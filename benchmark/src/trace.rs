//! The harness's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions; nothing in the program under test knows
//! about them. A span's layer is the part of its name before the first `.`
//! (`shared_repo.peek` → `shared_repo`); the harness's own scaffolding —
//! the loops that call into the layers — uses layer `trace`, so whatever
//! time it keeps for itself is the run's *unattributed* time.
//!
//! Spans stay in memory (one mutex-guarded buffer per thread slot, so
//! short-lived worker threads lose nothing when they exit) and are drained
//! when the phase that produced them ends.

use crate::json::{obj, Value};
use crate::stats;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// One id per tenant-epoch or wire request; 0 outside any.
    pub req: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

const SLOTS: usize = 64;

struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    next_thread: AtomicUsize,
    slots: Vec<Mutex<Vec<Span>>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        origin: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU32::new(1),
        next_thread: AtomicUsize::new(1),
        slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
    })
}

thread_local! {
    // Plain `Cell`s: nothing to flush when a thread exits.
    static THREAD: Cell<usize> = const { Cell::new(0) };
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    static REQ: Cell<u32> = const { Cell::new(0) };
}

fn thread_index() -> usize {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(tracer().next_thread.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Nanoseconds since the tracer was first touched.
pub fn now_ns() -> u64 {
    tracer().origin.elapsed().as_nanos() as u64
}

/// Turns recording on or off. Off, [`span`] costs one relaxed load.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::Relaxed);
}

/// Sets the request id spans opened on this thread carry from now on.
pub fn set_req(req: u32) {
    REQ.with(|r| r.set(req));
}

/// Makes `parent` the cause of the spans this thread opens next: how a worker
/// thread hangs its spans under the span that spawned it.
pub fn adopt(parent: u32) {
    CURRENT.with(|c| c.set(parent));
}

/// An open span; closes (and is recorded) on drop.
pub struct Guard {
    open: Option<(&'static str, u32, u32, u64)>,
}

/// Opens a span named `layer.what` under this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Guard {
        open: Some((name, id, parent, now_ns())),
    }
}

impl Guard {
    /// The span's id (0 when recording is off).
    pub fn id(&self) -> u32 {
        self.open.map_or(0, |(_, id, _, _)| id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((name, id, parent, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            CURRENT.with(|c| c.set(parent));
            let thread = thread_index();
            push(Span {
                name,
                id,
                parent,
                req: REQ.with(Cell::get),
                thread: thread as u32,
                start_ns,
                end_ns,
            });
        }
    }
}

fn push(span: Span) {
    tracer().slots[span.thread as usize % SLOTS]
        .lock()
        .expect("span buffer poisoned")
        .push(span);
}

/// Records a span whose bounds were measured elsewhere (e.g. the stretch of
/// a program call before the harness's transport got control). Returns its id.
pub fn record(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return 0;
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    push(Span {
        name,
        id,
        parent,
        req: 0,
        thread: thread_index() as u32,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
    id
}

/// Takes every span recorded so far, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for slot in &tracer().slots {
        all.append(&mut slot.lock().expect("span buffer poisoned"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Count, total, self time and percentiles of one span name.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
    /// p99, or the highest percentile the sample count supports.
    pub tail_ns: f64,
    pub tail_percentile: f64,
}

impl Aggregate {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// What a drained set of spans says.
#[derive(Debug, Default)]
pub struct Analysis {
    pub by_name: BTreeMap<&'static str, Aggregate>,
    /// Self time summed per layer.
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl Analysis {
    pub fn get(&self, name: &str) -> Aggregate {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Time some thread spent inside a span and not inside a child span:
    /// waiting for children on other threads is not busy time.
    pub fn busy_ns(&self) -> u64 {
        self.by_layer.values().sum()
    }

    /// Share of busy time the harness's own scaffolding kept for itself.
    pub fn unattributed_frac(&self) -> f64 {
        let busy = self.busy_ns();
        if busy == 0 {
            return 0.0;
        }
        *self.by_layer.get("trace").unwrap_or(&0) as f64 / busy as f64
    }

    /// Each layer's share of busy time; the harness's own is layer `trace`.
    pub fn layer_shares(&self) -> BTreeMap<&'static str, f64> {
        let busy = self.busy_ns().max(1) as f64;
        self.by_layer
            .iter()
            .map(|(&layer, &ns)| (layer, ns as f64 / busy))
            .collect()
    }
}

/// A span's self time: its duration minus the part of it that its children
/// cover. Children are clipped to the span and may overlap one another (they
/// can run on other threads).
pub fn self_time_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.clamp(cursor, span.end_ns);
        let end = end.clamp(cursor, span.end_ns);
        covered += end - start;
        cursor = end;
    }
    span.dur_ns() - covered
}

/// Aggregates `spans`. Recording a child span costs its parent
/// `child_cost_ns` outside the child's own interval (see
/// `layers::span_cost_ns`); that much per child is taken off every parent's
/// self time, so tracing's own cost shows up as `trace.overhead_frac` and
/// not as some layer's work.
pub fn analyze(spans: &[Span], child_cost_ns: f64) -> Analysis {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut analysis = Analysis::default();
    for s in spans {
        let own = match children.get_mut(&s.id) {
            Some(kids) => {
                let tracing = (kids.len() as f64 * child_cost_ns) as u64;
                self_time_ns(s, kids).saturating_sub(tracing)
            }
            None => s.dur_ns(),
        };
        let agg = analysis.by_name.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += s.dur_ns();
        agg.self_ns += own;
        *analysis.by_layer.entry(s.layer()).or_default() += own;
        durations.entry(s.name).or_default().push(s.dur_ns() as f64);
    }
    for (name, mut samples) in durations {
        let (p50, tail, pct) = stats::p50_and_tail(&mut samples);
        let agg = analysis.by_name.get_mut(name).expect("aggregated above");
        agg.p50_ns = p50;
        agg.tail_ns = tail;
        agg.tail_percentile = pct;
    }
    analysis
}

/// Full spans are kept for every `SAMPLE_EVERY`th request, up to `SPAN_CAP`.
pub const SAMPLE_EVERY: u32 = 64;
pub const SPAN_CAP: usize = 200_000;

/// The `<out>.trace.json` document of one phase: aggregates per span name
/// for everything, full spans for every 64th request.
pub fn to_json(phase: &str, spans: &[Span], analysis: &Analysis) -> Value {
    let aggregates = analysis.by_name.iter().map(|(&name, a)| {
        obj([
            ("name", Value::Str(name.into())),
            ("layer", Value::Str(layer_of(name).into())),
            ("count", Value::Int(a.count as i64)),
            ("total_ns", Value::Int(a.total_ns as i64)),
            ("self_ns", Value::Int(a.self_ns as i64)),
            ("p50_ns", Value::Num(a.p50_ns)),
            ("tail_ns", Value::Num(a.tail_ns)),
            ("tail_percentile", Value::Num(a.tail_percentile)),
        ])
    });
    let sampled = spans
        .iter()
        .filter(|s| s.req % SAMPLE_EVERY == 0)
        .take(SPAN_CAP)
        .map(|s| {
            obj([
                ("name", Value::Str(s.name.into())),
                ("layer", Value::Str(s.layer().into())),
                ("id", Value::Int(s.id.into())),
                ("parent", Value::Int(s.parent.into())),
                ("req", Value::Int(s.req.into())),
                ("thread", Value::Int(s.thread.into())),
                ("start_ns", Value::Int(s.start_ns as i64)),
                ("end_ns", Value::Int(s.end_ns as i64)),
            ])
        });
    obj([
        ("phase", Value::Str(phase.into())),
        ("spans_recorded", Value::Int(spans.len() as i64)),
        ("busy_ns", Value::Int(analysis.busy_ns() as i64)),
        (
            "unattributed_frac",
            Value::Num(analysis.unattributed_frac()),
        ),
        ("aggregates", Value::Arr(aggregates.collect())),
        ("spans", Value::Arr(sampled.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children() {
        let parent = fixed("a.p", 1, 0, 100, 200);
        assert_eq!(self_time_ns(&parent, &mut []), 100);
        // Adjacent children: [110,130) [130,150).
        assert_eq!(self_time_ns(&parent, &mut [(130, 150), (110, 130)]), 60);
        // Overlapping children on two threads cover their union: [110,160).
        assert_eq!(self_time_ns(&parent, &mut [(110, 150), (120, 160)]), 50);
        // A child contained in another adds nothing; one past the end is clipped.
        assert_eq!(
            self_time_ns(&parent, &mut [(110, 150), (120, 130), (190, 250)]),
            50
        );
        // Children covering everything leave no self time.
        assert_eq!(self_time_ns(&parent, &mut [(90, 210)]), 0);
    }

    #[test]
    fn analysis_attributes_self_time_to_layers_and_reports_the_harness_share() {
        // trace.loop [0,1000) → a.call [100,400) → b.inner [150,250); a.call [500,900).
        let spans = [
            fixed("trace.loop", 1, 0, 0, 1000),
            fixed("a.call", 2, 1, 100, 400),
            fixed("b.inner", 3, 2, 150, 250),
            fixed("a.call", 4, 1, 500, 900),
        ];
        let analysis = analyze(&spans, 0.0);
        let a = analysis.get("a.call");
        assert_eq!((a.count, a.total_ns, a.self_ns), (2, 700, 600));
        assert_eq!(analysis.get("b.inner").self_ns, 100);
        assert_eq!(analysis.get("trace.loop").self_ns, 300);
        assert_eq!(analysis.busy_ns(), 1000);
        assert!((analysis.unattributed_frac() - 0.3).abs() < 1e-12);
        assert!((analysis.layer_shares()["a"] - 0.6).abs() < 1e-12);
        assert_eq!(analysis.get("missing").count, 0);
        // Ten ns of recording cost per child come off each parent's self time.
        let corrected = analyze(&spans, 10.0);
        assert_eq!(corrected.get("trace.loop").self_ns, 280);
        assert_eq!(corrected.get("a.call").self_ns, 590);
        assert_eq!(corrected.get("b.inner").self_ns, 100);
    }

    #[test]
    fn guards_nest_adopt_parents_and_cost_nothing_when_off() {
        // The recorder is process-global and other tests may run traced
        // code meanwhile: only this test's own span names are looked at.
        set_enabled(false);
        drop(span("trace.off"));
        set_enabled(true);
        set_req(64);
        let outer = span("trace.outer");
        let outer_id = outer.id();
        {
            let _inner = span("x.inner");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                adopt(outer_id);
                drop(span("x.worker"));
            });
        });
        let synthetic = record("x.synthetic", outer_id, 5, 3);
        drop(outer);
        set_enabled(false);
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("x.") || s.name == "trace.outer")
            .collect();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).expect("recorded");
        assert_eq!(by_name("x.inner").parent, outer_id);
        assert_eq!(by_name("x.inner").req, 64);
        assert_eq!(by_name("x.worker").parent, outer_id);
        assert_ne!(by_name("x.worker").thread, by_name("trace.outer").thread);
        assert_eq!(by_name("x.synthetic").id, synthetic);
        assert_eq!(by_name("x.synthetic").dur_ns(), 0);
        assert_eq!(by_name("trace.outer").parent, 0);
        let doc = to_json("unit", &spans, &analyze(&spans, 0.0));
        assert_eq!(crate::json::parse(&doc.render()).expect("parses"), doc);
    }
}
