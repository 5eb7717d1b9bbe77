//! The benchmark's metric registry and the result a run accumulates.
//!
//! `BENCHMARK.json` lists the same names, units and directions; a unit test
//! keeps the two in step. Every workload reports every metric of the run's
//! kind — end-to-end from an untraced run, per-layer from a traced one.

use crate::json::{obj, Value};
use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Share of the parent's median by which an end-to-end metric may worsen
/// before a change is rejected: the issue's flat bound. A metric that cannot
/// hold it is fixed or becomes a per-layer metric; it is not given a wider one.
pub const BOUND: f64 = 0.10;

pub const PER_LAYER: &[MetricDef] = &[
    ("fleet_engine.prepare_s", "s", "lower"),
    ("fleet_engine.finalize_s", "s", "lower"),
    ("transport.step_ns_per_tenant_epoch", "ns", "lower"),
    ("transport.step_p99_ns", "ns", "lower"),
    ("transport.drain_ns_per_epoch", "ns", "lower"),
    ("transport.commit_ns_per_epoch", "ns", "lower"),
    ("transport.sweep_ns_per_epoch", "ns", "lower"),
    ("transport.bookkeeping_ns_per_epoch", "ns", "lower"),
    ("transport.worker_idle_frac", "ratio", "lower"),
    ("transport.parks", "count", "lower"),
    ("transport.steals", "count", "lower"),
    ("shared_repo.peek_ns_per_call", "ns", "lower"),
    ("shared_repo.peek_p50_ns", "ns", "lower"),
    ("shared_repo.peek_p99_ns", "ns", "lower"),
    ("shared_repo.peek_calls", "count", "lower"),
    ("shared_repo.peek_hit_ratio", "ratio", "higher"),
    ("shared_repo.apply_ns_per_op", "ns", "lower"),
    ("shared_repo.apply_ops", "count", "lower"),
    ("shared_repo.evict_ns_per_sweep", "ns", "lower"),
    ("shared_repo.evicted", "count", "higher"),
    ("shared_repo.anchors", "count", "lower"),
    ("shared_repo.entries", "count", "lower"),
    ("shared_repo.tree_visits_per_resolve", "count", "lower"),
    ("shared_repo.memo_hit_ratio", "ratio", "higher"),
    ("shared_repo.lookup_ns_per_call", "ns", "lower"),
    ("shared_repo.insert_ns_per_call", "ns", "lower"),
    ("tenant_view.get_ns_per_call", "ns", "lower"),
    ("tenant_view.put_ns_per_call", "ns", "lower"),
    ("engine.step_self_ns_per_tick", "ns", "lower"),
    ("engine.finish_ns_per_tenant", "ns", "lower"),
    ("services.evaluate_ns_per_call", "ns", "lower"),
    ("services.evaluate_calls_per_tick", "count", "lower"),
    ("controller.decide_self_ns_per_tick", "ns", "lower"),
    ("controller.decide_p99_ns", "ns", "lower"),
    ("controller.tunings_per_tenant", "count", "lower"),
    ("controller.cache_hit_ratio", "ratio", "higher"),
    ("profiler.profile_ns_per_call", "ns", "lower"),
    ("clustering.cluster_ns_per_call", "ns", "lower"),
    ("classify.train_ns_per_call", "ns", "lower"),
    ("classify.classify_ns_per_call", "ns", "lower"),
    ("tuner.tune_ns_per_call", "ns", "lower"),
    ("kernels.sqdist_ns_per_dim_d8", "ns", "lower"),
    ("kernels.sqdist_ns_per_dim_d30", "ns", "lower"),
    ("protocol.req_encode_ns", "ns", "lower"),
    ("protocol.req_decode_ns", "ns", "lower"),
    ("protocol.resp_encode_ns", "ns", "lower"),
    ("protocol.resp_decode_ns", "ns", "lower"),
    ("protocol.req_bytes_per_op", "B", "lower"),
    ("protocol.resp_bytes_per_op", "B", "lower"),
    ("client.rtt_ns_lookup", "ns", "lower"),
    ("client.rtt_ns_publish", "ns", "lower"),
    ("client.rtt_ns_commit_batch", "ns", "lower"),
    ("client.rtt_ns_evict", "ns", "lower"),
    ("client.lookup_p50_us", "us", "lower"),
    ("client.lookup_p99_us", "us", "lower"),
    ("client.mutation_p50_us", "us", "lower"),
    ("client.mutation_p99_us", "us", "lower"),
    ("server.residual_ns_per_req", "ns", "lower"),
    ("server.bytes_in", "B", "lower"),
    ("server.bytes_out", "B", "lower"),
    ("snapshot.capture_ns_per_mutation", "ns", "lower"),
    ("snapshot.encode_delta_ns_per_mutation", "ns", "lower"),
    ("snapshot.delta_bytes_per_mutation", "B", "lower"),
    ("durable.record_ns_per_mutation", "ns", "lower"),
    ("durable.fsync_floor_ns", "ns", "lower"),
    ("durable.files_at_end", "count", "lower"),
    ("durable.bytes_at_end", "B", "lower"),
    ("durable.open_ns_per_segment", "ns", "lower"),
    ("durable.recovery_s", "s", "lower"),
    ("durable.stored_bytes_per_user_byte", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.span_cost_ns", "ns", "lower"),
];

/// The four workloads, in the order `run --all` and `agree` run them.
/// `BENCHMARK.json` lists those of them that `agree` passes on this host.
pub const WORKLOADS: &[&str] = &[
    "fleet_reuse",
    "fleet_wide",
    "serve_read",
    "serve_durable_write",
];

/// What one run accumulates: metric values, the operation and check tally,
/// and the details that go to `--out` only.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human reading stderr.
    pub failures: Vec<String>,
    /// Extra detail per metric or phase (min/max/n, counts, host facts).
    pub details: Vec<(String, Value)>,
    /// One trace document per traced phase.
    pub traces: Vec<Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Takes every metric of `other`, keeping this outcome's own where both
    /// have one: a workload's own layers win over a side probe's.
    pub fn fill_from(&mut self, other: BTreeMap<&'static str, f64>) {
        for (name, value) in other {
            self.metrics.entry(name).or_insert(value);
        }
    }

    /// Tallies `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }

    /// Tallies one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn detail(&mut self, key: impl Into<String>, value: Value) {
        self.details.push((key.into(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// the metrics being every one of `defs`. A metric the run did not
    /// produce is a harness bug and is reported as an error.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<Value, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for &(name, unit, _) in defs {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite"));
            }
            metrics.push((name, Value::metric(value, unit)));
        }
        Ok(obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted.max(1) as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", obj(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, valid_name};

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(matches!(better, "lower" | "higher"), "{name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, b)| (n, u, b) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            let text = |item: &Value, k: &str| match item.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key}.{k}: {other:?}"),
            };
            items
                .iter()
                .map(|i| (text(i, "name"), text(i, "unit"), text(i, "better")))
                .collect()
        };
        let registry = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), registry(END_TO_END));
        let Some(Value::Arr(end_to_end)) = doc.get("end_to_end") else {
            panic!("end_to_end missing")
        };
        for (item, &(name, _, _)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                item.get("bound").and_then(Value::as_f64),
                Some(BOUND),
                "{name}"
            );
        }
        assert_eq!(listed("per_layer"), registry(PER_LAYER));
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing")
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        // A workload `agree` fails on this host is measured but not listed.
        assert!(names.len() >= 2 && names.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn result_line_needs_every_metric_and_counts_failures() {
        let mut outcome = Outcome::default();
        outcome.ops(10, 0, "requests");
        outcome.check(true, || unreachable!());
        assert!(outcome.result_line(END_TO_END).is_err());
        for &(name, _, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = outcome.result_line(END_TO_END).expect("complete");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted"), Some(&Value::Int(11)));
        outcome.check(false, || "digest differs".into());
        let line = outcome.result_line(END_TO_END).expect("complete");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("failed"), Some(&Value::Int(1)));
        outcome.set("ops_per_s", f64::NAN);
        assert!(outcome.result_line(END_TO_END).is_err());
    }
}
