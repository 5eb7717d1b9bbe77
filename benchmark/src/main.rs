//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dejavu-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! dejavu-benchmark run --all [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! dejavu-benchmark agree [--rev REV] [--out FILE]
//! ```
//!
//! The first form is what the driver invokes: it measures one workload and
//! prints one JSON object as the last line of standard output.

mod agree;
mod fleet;
mod gen;
mod json;
mod layers;
mod metrics;
mod proxies;
mod serve;
mod stats;
mod trace;

use json::{obj, Value};
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given; `BENCHMARK.json`
/// passes the same value and `agree` uses it.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 11;
/// A traced run fails above these: no phase may hide from the cost model,
/// and traced numbers must stay comparable to untraced ones.
const MAX_UNATTRIBUTED_FRAC: f64 = 0.10;
const MAX_OVERHEAD_FRAC: f64 = 0.25;

/// Flags after the subcommand, as `--name value` pairs (`--all` stands alone).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument '{flag}'"));
            };
            if name == "all" {
                pairs.push((name.to_string(), String::new()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: '{text}' is not a valid value")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace takes 0 or 1, not '{other}'")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

/// The process's peak resident set, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs this executable with `args` and waits for it; its standard error
/// goes to ours.
fn spawn_self(args: &[&str]) -> Result<std::process::Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    std::process::Command::new(exe)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", args.join(" ")))
}

/// Measures one workload in this process.
fn measure(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let fleet_workload = [fleet::FLEET_REUSE, fleet::FLEET_WIDE]
        .into_iter()
        .find(|w| w.name == workload);
    let serve_workload = [serve::SERVE_READ, serve::SERVE_DURABLE_WRITE]
        .into_iter()
        .find(|w| w.name == workload);
    match (fleet_workload, serve_workload, traced) {
        (Some(w), _, false) => fleet::run_end_to_end(&w, seed, seconds, &mut outcome),
        (Some(w), _, true) => fleet::run_traced(&w, seed, &mut outcome),
        (_, Some(w), false) => serve::run_end_to_end(&w, seed, seconds, &mut outcome),
        (_, Some(w), true) => serve::run_traced(&w, seed, &mut outcome),
        (None, None, _) => {
            return Err(format!(
                "unknown workload '{workload}': the workloads are {}",
                WORKLOADS.join(", ")
            ))
        }
    }
    if traced {
        let unattributed = outcome
            .metrics
            .get("trace.unattributed_frac")
            .copied()
            .unwrap_or(0.0);
        outcome.check(unattributed <= MAX_UNATTRIBUTED_FRAC, || {
            format!("trace.unattributed_frac {unattributed:.3} is above {MAX_UNATTRIBUTED_FRAC}")
        });
        let overhead = outcome
            .metrics
            .get("trace.overhead_frac")
            .copied()
            .unwrap_or(0.0);
        outcome.check(overhead <= MAX_OVERHEAD_FRAC, || {
            format!("trace.overhead_frac {overhead:.3} is above {MAX_OVERHEAD_FRAC}")
        });
    } else {
        let rss = peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?;
        outcome.set("peak_rss_mb", rss);
    }
    Ok(outcome)
}

fn host_facts() -> Value {
    obj([
        (
            "nproc",
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("fleet_workers", Value::Int(fleet::workers() as i64)),
        ("serve_connections", Value::Int(serve::connections() as i64)),
    ])
}

/// Runs one workload, writes `--out`-style files when asked, prints the
/// result line. Returns whether the run was correct.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<&std::path::Path>,
) -> Result<bool, String> {
    let outcome = measure(workload, seed, seconds, traced)?;
    let defs: &[MetricDef] = if traced { PER_LAYER } else { END_TO_END };
    let line = outcome.result_line(defs)?;
    for failure in &outcome.failures {
        eprintln!("{workload}: FAILED: {failure}");
    }
    if let Some(out) = out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let doc = obj([
            ("workload", Value::Str(workload.into())),
            ("seed", Value::Int(seed as i64)),
            ("seconds", Value::Num(seconds)),
            ("traced", Value::Bool(traced)),
            ("host", host_facts()),
            ("result", line.clone()),
            (
                "failures",
                Value::Arr(outcome.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("details", Value::Obj(outcome.details.clone())),
        ]);
        std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
        if traced {
            let mut path = out.as_os_str().to_owned();
            path.push(".trace.json");
            let traces = obj([("phases", Value::Arr(outcome.traces.clone()))]);
            std::fs::write(&path, traces.render() + "\n")
                .map_err(|e| format!("{}: {e}", std::path::Path::new(&path).display()))?;
        }
    }
    println!("{}", line.render());
    Ok(outcome.correct())
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(command @ ("run" | "agree" | "seed")) => (command, &args[1..]),
        _ => ("run", args),
    };
    let flags = Flags::parse(rest)?;
    // The helper the serve workloads run as a child of themselves.
    if command == "seed" {
        let out = flags.get("out").ok_or("seed needs --out FILE")?;
        return serve::seed_child(
            flags.number("seed", DEFAULT_SEED)?,
            std::path::Path::new(out),
        );
    }
    if command == "agree" {
        flags.only(&["rev", "out"])?;
        return agree::run(
            flags.get("rev").unwrap_or("unknown"),
            flags.get("out").map(std::path::Path::new),
        );
    }
    flags.only(&[
        "workload", "seed", "seconds", "trace", "out", "out-dir", "all",
    ])?;
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be between 1 and 60, not {seconds}"));
    }
    let traced = flags.trace()?;
    if flags.has("all") {
        // One child process per workload: a peak resident set belongs to a
        // process, and a workload must not inherit another's.
        let mut correct = true;
        for workload in WORKLOADS {
            let out = flags.get("out-dir").map(|dir| {
                format!(
                    "{dir}/{workload}{}.json",
                    if traced { ".traced" } else { "" }
                )
            });
            let line = agree::child_run(workload, seed, seconds, traced, out.as_deref())?;
            println!("{workload} {}", line.render());
            correct &= line.get("correct").and_then(Value::as_bool) == Some(true);
        }
        return Ok(correct);
    }
    let workload = flags
        .get("workload")
        .ok_or("--workload NAME (or run --all) is required")?;
    run_one(
        workload,
        seed,
        seconds,
        traced,
        flags.get("out").map(std::path::Path::new),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = real_main(&args);
    serve::remove_scratch();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dejavu-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
