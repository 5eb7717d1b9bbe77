//! `agree`: the benchmark's own acceptance test. Runs every workload's
//! end-to-end measurement in two back-to-back sets of child processes on the
//! same build and checks, per workload and metric, that each set's spread
//! (interquartile range over median) stays within the bound and that the
//! second set's median is not worse than the first's by more than the bound.
//! Run `i` of both sets has the same seed: their per-repetition operation
//! counts and input and result digests must be equal, as must the byte counts
//! of one traced `serve_durable_write` run per set. A workload passes when all of that
//! holds; `BENCHMARK.json` lists the workloads that pass.

use crate::json::{self, obj, Value};
use crate::metrics::{BOUND, END_TO_END, WORKLOADS};
use crate::stats;
use std::path::Path;
use std::process::Command;

/// Runs per set, the first run's seed (run `i` has seed `FIRST_SEED + i`)
/// and the seconds each run measures: the driver's own procedure, fixed so
/// that committed results can be compared with one another.
const RUNS: usize = 10;
const FIRST_SEED: u64 = 11;
const SECONDS: f64 = crate::DEFAULT_SECONDS;

/// The `--out` detail under which a run lists what must be identical in
/// every run of the same workload and seed, on any host and commit.
pub const REPEATS_EXACTLY: &str = "repeats_exactly";

/// Per-layer metrics of a traced `serve_durable_write` run that are byte
/// counts of the persistence path and so repeat exactly too.
const DURABLE_COUNTS: &[&str] = &[
    "durable.stored_bytes_per_user_byte",
    "durable.files_at_end",
    "durable.bytes_at_end",
    "snapshot.delta_bytes_per_mutation",
];

/// Runs one workload in a child process of this executable and returns its
/// result line.
pub fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<&str>,
) -> Result<Value, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        if traced { "1" } else { "0" },
    ];
    if let Some(out) = out {
        args.extend(["--out", out]);
    }
    let output = crate::spawn_self(&args)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| {
            format!(
                "{workload} printed no result (exit {:?})",
                output.status.code()
            )
        })?;
    json::parse(last).map_err(|e| format!("{workload}: result line does not parse: {e}"))
}

fn metric_value(line: &Value, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// What one run says must repeat: the [`REPEATS_EXACTLY`] detail of its
/// `--out` file — input and result digests and the operation count of one
/// repetition. (`attempted` is not in it: a run repeats its fixed work until
/// `--seconds` have passed, so the number of repetitions is the host's.)
fn identity(out: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", out.display()))?;
    doc.get("details")
        .and_then(|d| d.get(REPEATS_EXACTLY))
        .cloned()
        .ok_or_else(|| format!("{}: no {REPEATS_EXACTLY} detail", out.display()))
}

/// How much worse `second` is than `first`, as a share of `first`, in the
/// metric's own direction; negative when it is better.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    if better == "lower" {
        change
    } else {
        -change
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn run(rev: &str, out: Option<&Path>) -> Result<bool, String> {
    let scratch = crate::serve::scratch_dir("agree");
    let mut rows = Vec::new();
    let mut verdicts = Vec::new();
    for workload in WORKLOADS {
        let mut pass = true;
        let mut sets: Vec<Vec<Value>> = Vec::new();
        let mut identities: Vec<Vec<Value>> = Vec::new();
        let mut durable_counts: Vec<Vec<Value>> = Vec::new();
        for set in 0..2 {
            let (mut lines, mut ids) = (Vec::new(), Vec::new());
            for i in 0..RUNS {
                let file = scratch.join(format!("{workload}-{set}-{i}.json"));
                let line = child_run(
                    workload,
                    FIRST_SEED + i as u64,
                    SECONDS,
                    false,
                    Some(&file.to_string_lossy()),
                )?;
                if line.get("correct").and_then(Value::as_bool) != Some(true) {
                    pass = false;
                    eprintln!("{workload}: set {set} run {i} was not correct");
                }
                ids.push(identity(&file)?);
                lines.push(line);
            }
            sets.push(lines);
            identities.push(ids);
            if *workload == crate::serve::SERVE_DURABLE_WRITE.name {
                let line = child_run(workload, FIRST_SEED, SECONDS, true, None)?;
                pass &= line.get("correct").and_then(Value::as_bool) == Some(true);
                durable_counts.push(
                    DURABLE_COUNTS
                        .iter()
                        .map(|name| metric_value(&line, name).map_or(Value::Null, Value::Num))
                        .collect(),
                );
            }
        }
        let repeats = identities[0] == identities[1]
            && durable_counts.first() == durable_counts.get(1)
            && !durable_counts.iter().flatten().any(|v| *v == Value::Null);
        pass &= repeats;
        println!(
            "{workload:<20} counts and digests of equal-seed runs {}",
            if repeats { "repeat exactly" } else { "DIFFER" }
        );
        for &(name, unit, better) in END_TO_END {
            let values = |set: &[Value]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|l| {
                        metric_value(l, name).ok_or_else(|| format!("{workload}: {name} missing"))
                    })
                    .collect()
            };
            let (first, second) = (values(&sets[0])?, values(&sets[1])?);
            let spread = |v: &[f64]| {
                let (q1, _, q3) = stats::quartiles(v);
                (q3 - q1) / stats::median(v).abs().max(f64::MIN_POSITIVE)
            };
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let (s1, s2) = (spread(&first), spread(&second));
            let worse = worsening(m1, m2, better);
            // The set-up time's spread is reported but, as in the driver's
            // rule, only its median is held to the bound.
            let steady = name == "setup_s" || (s1 <= BOUND && s2 <= BOUND);
            let row_pass = steady && worse <= BOUND;
            pass &= row_pass;
            println!(
                "{workload:<20} {name:<12} {unit:<4} median {m1:>12.4} | {m2:>12.4}  spread {s1:.4} | {s2:.4}  worse by {worse:+.4}  bound {BOUND:.2}  {}",
                if row_pass { "PASS" } else { "FAIL" }
            );
            rows.push(obj([
                ("workload", Value::Str((*workload).into())),
                ("metric", Value::Str(name.into())),
                ("unit", Value::Str(unit.into())),
                ("better", Value::Str(better.into())),
                ("bound", Value::Num(BOUND)),
                ("first_median", Value::Num(m1)),
                ("second_median", Value::Num(m2)),
                ("first_spread", Value::Num(s1)),
                ("second_spread", Value::Num(s2)),
                ("worsening", Value::Num(worse)),
                (
                    "first_values",
                    Value::Arr(first.into_iter().map(Value::Num).collect()),
                ),
                (
                    "second_values",
                    Value::Arr(second.into_iter().map(Value::Num).collect()),
                ),
                ("pass", Value::Bool(row_pass)),
            ]));
        }
        println!("agree: {workload} {}", if pass { "PASS" } else { "FAIL" });
        let mut verdict = vec![
            ("workload", Value::Str((*workload).into())),
            ("pass", Value::Bool(pass)),
            ("repeats_exactly", Value::Bool(repeats)),
            // Run i of either set: they are equal when `repeats_exactly`.
            ("first_set", Value::Arr(identities.swap_remove(0))),
        ];
        if !repeats {
            verdict.push(("second_set", Value::Arr(identities.swap_remove(0))));
        }
        if !durable_counts.is_empty() {
            verdict.push((
                "traced_durable_counts",
                obj([
                    (
                        "names",
                        Value::Arr(
                            DURABLE_COUNTS
                                .iter()
                                .map(|n| Value::Str((*n).into()))
                                .collect(),
                        ),
                    ),
                    (
                        "per_set",
                        Value::Arr(durable_counts.into_iter().map(Value::Arr).collect()),
                    ),
                ]),
            ));
        }
        verdicts.push((pass, obj(verdict)));
    }
    let all_pass = verdicts.iter().all(|(pass, _)| *pass);
    if let Some(out) = out {
        let doc = obj([
            ("rev", Value::Str(rev.into())),
            ("rustc", Value::Str(rustc_version())),
            (
                "nproc",
                Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
            ),
            ("runs_per_set", Value::Int(RUNS as i64)),
            ("seconds", Value::Num(SECONDS)),
            ("first_seed", Value::Int(FIRST_SEED as i64)),
            ("pass", Value::Bool(all_pass)),
            (
                "workloads",
                Value::Arr(verdicts.into_iter().map(|(_, v)| v).collect()),
            ),
            ("rows", Value::Arr(rows)),
        ]);
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn metric_values_are_read_from_a_result_line() {
        let line = json::parse(
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"ops_per_s": {"value": 84211.5, "unit": "1/s"}}}"#,
        )
        .expect("parses");
        assert_eq!(metric_value(&line, "ops_per_s"), Some(84211.5));
        assert_eq!(metric_value(&line, "setup_s"), None);
    }
}
