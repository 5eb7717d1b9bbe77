//! The CLI must refuse what it cannot parse: a bad value or a misspelt
//! experiment that exits 0 has silently run a different experiment than the
//! one asked for.

use std::process::Command;

#[test]
fn unparsable_invocations_exit_2_with_a_message_and_no_report() {
    let cases: [(&[&str], &str); 9] = [
        (&["fleet", "--tenants", "abc"], "--tenants needs"),
        (&["fleet", "--days"], "--days needs"),
        (&["fleet", "--seed", "x"], "--seed needs"),
        (&["nosuchfig"], "unknown experiment 'nosuchfig'"),
        // An unknown name refuses the whole run, not just its own slot.
        (&["table1", "nosuchfig"], "unknown experiment 'nosuchfig'"),
        // The removed alias is an unknown transport like any other.
        (&["fleet", "--transport", "async"], "'bsp'"),
        // The removed staleness bound is no flag any more.
        (
            &["fleet", "--staleness", "2"],
            "unknown experiment '--staleness'",
        ),
        // Flags that would do nothing are refused, not ignored.
        (&["fleet", "--threads", "2"], "needs --transport steal"),
        (&["fleet", "--snapshot-compact"], "--snapshot-compact needs"),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dejavu-experiments"))
            .args(args)
            .output()
            .expect("spawn dejavu-experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
