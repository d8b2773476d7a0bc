//! Tracing from outside the engine: spans around calls into each layer's
//! public functions, plus two timing wrappers that sit at the engine's own
//! extension seams — a distribution [`Registry`] whose members wrap the
//! standard ones, and a [`WorldSink`] around the sink stack a backend
//! feeds. Every wrapper delegates each method unchanged, so a traced
//! evaluation computes bit-identical answers.
//!
//! Calls that happen millions of times (draws, densities, sink folds) are
//! tallied in atomic counters rather than kept as spans; the caller
//! attaches a pass's tally to the pass span as aggregate child spans, so
//! self-time arithmetic treats them like any other child.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use gdatalog_data::{ColType, Instance, Value};
use gdatalog_dist::{DistArity, DistError, ParamDist, Registry, Support};
use gdatalog_pdb::{BatchObs, DeficitKind, WorldSink};
use rand::rngs::StdRng;
use rand::Rng;

/// Items handled and nanoseconds spent in one kind of fine-grained call.
#[derive(Debug, Default)]
pub struct Counter {
    items: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time reading of a [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub items: u64,
    pub ns: u64,
}

impl Counter {
    // Relaxed throughout: the counters publish no other data and are read
    // only after the threads that write them have been joined.
    pub fn add(&self, items: u64, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.items.fetch_add(items, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    pub fn read(&self) -> Tally {
        Tally {
            items: self.items.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, rhs: Tally) -> Tally {
        Tally {
            items: self.items - rhs.items,
            ns: self.ns - rhs.ns,
        }
    }
}

/// The fine-grained counters the timing wrappers feed.
#[derive(Debug, Default)]
pub struct Layers {
    /// `ParamDist::sample{,_batch}`; items are draws.
    pub sample: Counter,
    /// `ParamDist::log_density{,_batch}`; items are densities.
    pub log_density: Counter,
    /// Every `WorldSink` fold; items are world observations.
    pub sink: Counter,
    /// World observations that arrived with a log-space weight — one per
    /// observation-likelihood evaluation of a conditioned pass.
    pub log_weighted: AtomicU64,
    /// Lanes delivered through `observe_batch`.
    pub batch_lanes: AtomicU64,
    /// Distinct world instances among those lanes.
    pub batch_worlds: AtomicU64,
}

/// A snapshot of [`Layers`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTally {
    pub sample: Tally,
    pub log_density: Tally,
    pub sink: Tally,
    pub log_weighted: u64,
    pub batch_lanes: u64,
    pub batch_worlds: u64,
}

impl Layers {
    pub fn read(&self) -> LayerTally {
        LayerTally {
            sample: self.sample.read(),
            log_density: self.log_density.read(),
            sink: self.sink.read(),
            log_weighted: self.log_weighted.load(Relaxed),
            batch_lanes: self.batch_lanes.load(Relaxed),
            batch_worlds: self.batch_worlds.load(Relaxed),
        }
    }
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, rhs: Tally) -> Tally {
        Tally {
            items: self.items + rhs.items,
            ns: self.ns + rhs.ns,
        }
    }
}

impl std::ops::Add for LayerTally {
    type Output = LayerTally;
    fn add(self, rhs: LayerTally) -> LayerTally {
        LayerTally {
            sample: self.sample + rhs.sample,
            log_density: self.log_density + rhs.log_density,
            sink: self.sink + rhs.sink,
            log_weighted: self.log_weighted + rhs.log_weighted,
            batch_lanes: self.batch_lanes + rhs.batch_lanes,
            batch_worlds: self.batch_worlds + rhs.batch_worlds,
        }
    }
}

impl std::ops::Sub for LayerTally {
    type Output = LayerTally;
    fn sub(self, rhs: LayerTally) -> LayerTally {
        LayerTally {
            sample: self.sample - rhs.sample,
            log_density: self.log_density - rhs.log_density,
            sink: self.sink - rhs.sink,
            log_weighted: self.log_weighted - rhs.log_weighted,
            batch_lanes: self.batch_lanes - rhs.batch_lanes,
            batch_worlds: self.batch_worlds - rhs.batch_worlds,
        }
    }
}

// ---------------------------------------------------------------------------
// Timing registry.
// ---------------------------------------------------------------------------

/// A registry member that times and counts its inner member's draws and
/// densities, delegating every method.
pub struct TimedDist {
    inner: Arc<dyn ParamDist>,
    layers: Arc<Layers>,
    draws: AtomicU64,
}

impl TimedDist {
    pub fn draws(&self) -> u64 {
        self.draws.load(Relaxed)
    }
}

impl ParamDist for TimedDist {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arity(&self) -> DistArity {
        self.inner.arity()
    }

    fn output_type(&self) -> ColType {
        self.inner.output_type()
    }

    fn is_discrete(&self) -> bool {
        self.inner.is_discrete()
    }

    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let t = Instant::now();
        let out = self.inner.sample(params, rng);
        self.layers.sample.add(1, t);
        self.draws.fetch_add(1, Relaxed);
        out
    }

    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let t = Instant::now();
        let out = self.inner.log_density(params, outcome);
        self.layers.log_density.add(1, t);
        out
    }

    fn density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        self.inner.density(params, outcome)
    }

    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        self.inner.cdf(params, x)
    }

    fn enumerate(&self, params: &[Value], tol: f64) -> Result<Support, DistError> {
        self.inner.enumerate(params, tol)
    }

    fn sample_batch(
        &self,
        params: &[Value],
        rngs: &mut [StdRng],
        out: &mut Vec<Value>,
    ) -> Result<(), DistError> {
        let t = Instant::now();
        let lanes = rngs.len() as u64;
        let res = self.inner.sample_batch(params, rngs, out);
        self.layers.sample.add(lanes, t);
        self.draws.fetch_add(lanes, Relaxed);
        res
    }

    fn log_density_batch(
        &self,
        params: &[Value],
        outcomes: &[Value],
        out: &mut Vec<f64>,
    ) -> Result<(), DistError> {
        let t = Instant::now();
        let res = self.inner.log_density_batch(params, outcomes, out);
        self.layers.log_density.add(outcomes.len() as u64, t);
        res
    }
}

/// The standard family with every member wrapped in a [`TimedDist`]
/// feeding `layers`; also returns the wrappers, for per-family counts.
pub fn timing_registry(layers: &Arc<Layers>) -> (Arc<Registry>, Vec<Arc<TimedDist>>) {
    let standard = Registry::standard();
    let mut registry = Registry::new();
    let mut members = Vec::new();
    for name in standard.names() {
        let inner = Arc::clone(standard.get(name).expect("listed member"));
        let timed = Arc::new(TimedDist {
            inner,
            layers: Arc::clone(layers),
            draws: AtomicU64::new(0),
        });
        registry.register(Arc::clone(&timed) as Arc<dyn ParamDist>);
        members.push(timed);
    }
    (Arc::new(registry), members)
}

/// Draws so far of the member named `family`.
pub fn family_draws(members: &[Arc<TimedDist>], family: &str) -> u64 {
    members
        .iter()
        .filter(|m| m.name() == family)
        .map(|m| m.draws())
        .sum()
}

// ---------------------------------------------------------------------------
// Timing sink.
// ---------------------------------------------------------------------------

/// A [`WorldSink`] that times every fold into `inner` and counts lane
/// sharing on batched deliveries. Forks wrap the inner sink's forks, so a
/// multi-threaded pass is timed on every worker.
pub struct TimingSink {
    inner: Box<dyn WorldSink>,
    layers: Arc<Layers>,
}

impl TimingSink {
    pub fn new(inner: Box<dyn WorldSink>, layers: &Arc<Layers>) -> TimingSink {
        TimingSink {
            inner,
            layers: Arc::clone(layers),
        }
    }

    pub fn into_inner(self) -> Box<dyn WorldSink> {
        self.inner
    }
}

impl WorldSink for TimingSink {
    fn observe(&mut self, world: Instance, weight: f64) {
        let t = Instant::now();
        self.inner.observe(world, weight);
        self.layers.sink.add(1, t);
    }

    fn observe_ref(&mut self, world: &Instance, weight: f64) {
        let t = Instant::now();
        self.inner.observe_ref(world, weight);
        self.layers.sink.add(1, t);
    }

    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        let t = Instant::now();
        self.inner.observe_log(world, log_weight);
        self.layers.sink.add(1, t);
        self.layers.log_weighted.fetch_add(1, Relaxed);
    }

    fn observe_log_ref(&mut self, world: &Instance, log_weight: f64) {
        let t = Instant::now();
        self.inner.observe_log_ref(world, log_weight);
        self.layers.sink.add(1, t);
        self.layers.log_weighted.fetch_add(1, Relaxed);
    }

    fn observe_batch(&mut self, batch: &[BatchObs<'_>]) {
        let t = Instant::now();
        self.inner.observe_batch(batch);
        let mut worlds: Vec<*const Instance> = Vec::with_capacity(batch.len());
        let mut logs = 0u64;
        for obs in batch {
            match *obs {
                BatchObs::World(w, _) => worlds.push(w),
                BatchObs::LogWorld(w, _) => {
                    worlds.push(w);
                    logs += 1;
                }
                BatchObs::Deficit(..) => {}
            }
        }
        let lanes = worlds.len() as u64;
        worlds.sort_unstable();
        worlds.dedup();
        self.layers.sink.add(lanes, t);
        self.layers.log_weighted.fetch_add(logs, Relaxed);
        self.layers.batch_lanes.fetch_add(lanes, Relaxed);
        self.layers
            .batch_worlds
            .fetch_add(worlds.len() as u64, Relaxed);
    }

    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64) {
        let t = Instant::now();
        self.inner.observe_deficit(kind, weight);
        self.layers.sink.add(0, t);
    }

    fn rescale(&mut self, factor: f64) {
        let t = Instant::now();
        self.inner.rescale(factor);
        self.layers.sink.add(0, t);
    }

    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        let inner = self.inner.fork()?;
        Some(Box::new(TimingSink::new(inner, &self.layers)))
    }

    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let forked = forked
            .into_any()
            .downcast::<TimingSink>()
            .expect("join requires a sink forked from a TimingSink");
        let t = Instant::now();
        self.inner.join(forked.inner);
        self.layers.sink.add(0, t);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One timed interval. Aggregate spans stand for a tally of many short
/// calls made inside their parent; their `start_ns` is the parent's and
/// their length is the tally's summed time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory, in the order they were opened.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's index. Spans opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            aggregate: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Records `ns` of tallied calls named `name` as a child of `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &str, ns: u64) {
        let (start, request) = (self.spans[parent].start_ns, self.spans[parent].request);
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + ns,
            aggregate: true,
        });
    }

    /// Restates a span's length as `ns` — for a span whose work ran on
    /// several threads and is measured in process CPU time.
    pub fn set_duration(&mut self, id: usize, ns: u64) {
        self.spans[id].end_ns = self.spans[id].start_ns + ns;
    }

    /// Self time of every span: its length minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Summed self time per layer (the span name up to its first `.`),
    /// largest first.
    pub fn self_by_layer(&self) -> Vec<(String, u64)> {
        let mut by: std::collections::BTreeMap<String, u64> = Default::default();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            let layer = span.name.split('.').next().unwrap_or("").to_string();
            *by.entry(layer).or_default() += ns;
        }
        let mut v: Vec<(String, u64)> = by.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    pub fn to_json(&self) -> String {
        let self_ns = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                format!(
                    "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"aggregate\":{}}}",
                    s.name,
                    s.request,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns,
                    own,
                    s.aggregate
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Span length minus the summed length of its direct children, floored at
/// zero (children measured on other clocks may overrun their parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Attaches the tally accumulated between `before` and `after` to span
/// `id` as aggregate children: sampling, densities and sink folds.
pub fn attach_tally(
    tracer: &mut Tracer,
    id: usize,
    before: LayerTally,
    after: LayerTally,
) -> LayerTally {
    let d = after - before;
    tracer.aggregate(id, "dist.sample", d.sample.ns);
    tracer.aggregate(id, "dist.log_density", d.log_density.ns);
    tracer.aggregate(id, "sink.fold", d.sink.ns);
    d
}

// ---------------------------------------------------------------------------
// Process clocks and memory.
// ---------------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, including threads that have exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on 64-bit Linux) that `clock_gettime` only writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.to_string(),
            request: 0,
            parent,
            start_ns: start,
            end_ns: end,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("chase.pass", None, 0, 100),
            span("dist.sample", Some(0), 10, 40),
            span("sink.fold", Some(0), 50, 60),
            span("sink.inner", Some(2), 52, 55),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 7, 3]);
    }

    #[test]
    fn self_time_floors_at_zero_when_children_overrun() {
        let spans = vec![span("p", None, 0, 10), span("c", Some(0), 0, 25)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_nests_spans_and_groups_by_layer() {
        let mut t = Tracer::new();
        let (_, outer) = t.span("chase.pass", 7, |t| {
            t.span("lang.parse", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        t.aggregate(outer, "dist.sample", 1_000);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[2].duration_ns(), 1_000);
        let own = t.self_ns();
        let total = t.spans[outer].duration_ns();
        assert_eq!(own[0], total - t.spans[1].duration_ns() - 1_000);
        let layers = t.self_by_layer();
        assert_eq!(layers[0].0, "lang", "the sleeping span dominates");
        assert!(t.to_json().contains("\"request\":7"));
    }

    const PROGRAM: &str =
        "R(Flip<0.3>) :- true. H(Normal<2.0, 1.0>) :- R(1). H(Normal<0.0, 1.0>) :- R(0).";

    #[test]
    fn timing_registry_and_sink_answer_bit_identically() {
        use gdatalog_core::{QuerySet, Session};
        use gdatalog_data::{tuple, Fact};
        use gdatalog_lang::SemanticsMode;
        use gdatalog_pdb::{MarginalSink, MultiplexSink, NormalizingSink};

        let layers = Arc::new(Layers::default());
        let (registry, members) = timing_registry(&layers);
        let plain = Session::from_source(PROGRAM, SemanticsMode::Grohe).unwrap();
        let timed =
            Session::from_source_with_registry(PROGRAM, SemanticsMode::Grohe, registry).unwrap();
        let r = plain.program().catalog.require("R").unwrap();
        let h = plain.program().catalog.require("H").unwrap();
        let fact = Fact::new(r, tuple![1i64]);
        let qs = QuerySet::new().marginal(&fact).quantile(h, 0, 0.5);
        for (threads, given) in [
            (1, None),
            (2, None),
            (2, Some("Normal<M, 1.0> == 1.5 :- H(M).")),
        ] {
            fn configure<'a>(
                s: &'a Session,
                threads: usize,
                given: Option<&str>,
            ) -> gdatalog_core::Evaluation<'a> {
                let e = s.eval().sample(3_000).seed(11).threads(threads);
                match given {
                    Some(g) => e.given(g),
                    None => e,
                }
            }
            let eval = |s| configure(s, threads, given);
            let want = eval(&plain).answer(&qs).unwrap();
            let got = eval(&timed).answer(&qs).unwrap();
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "timing registry, {threads} threads"
            );

            // The same stack `answer` builds, behind a timing sink.
            let mux = MultiplexSink::new(vec![Box::new(MarginalSink::new(fact.clone()))]);
            let stack = if given.is_some() {
                NormalizingSink::log_space(mux)
            } else {
                NormalizingSink::new(mux)
            };
            let mut sink = TimingSink::new(Box::new(stack), &layers);
            eval(&timed).collect_into(&mut sink).unwrap();
            let (mux, stats) = sink
                .into_inner()
                .into_any()
                .downcast::<NormalizingSink<MultiplexSink>>()
                .unwrap()
                .finish();
            let p = mux
                .into_sinks()
                .remove(0)
                .into_any()
                .downcast::<MarginalSink>()
                .unwrap()
                .finish();
            let p = if given.is_some() {
                p / stats.normalizer()
            } else {
                p
            };
            assert_eq!(
                p.to_bits(),
                want.get(0).unwrap().as_probability().unwrap().to_bits()
            );
        }
        assert!(family_draws(&members, "Flip") >= 3 * 3_000);
        assert!(layers.read().sink.items > 0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
        assert!(peak_rss_mb() > 0.0);
    }
}
