//! Streaming observers over possible-world observations.
//!
//! Both evaluation strategies of the engine produce the same kind of
//! stream: a sequence of weighted possible worlds (exact enumeration emits
//! each world once with its probability; Monte-Carlo emits each sampled
//! world with weight `1/runs`), plus weighted *deficit* observations for
//! the mass that never becomes a world (budget-cut paths, truncated
//! supports, error runs). A [`WorldSink`] consumes such a stream and folds
//! it into a statistic **run-by-run**, so a million-run Monte-Carlo
//! marginal holds O(result) memory instead of retaining every sampled
//! instance.
//!
//! The sinks in this module are the statistics of Fact 2.6 of the paper —
//! marginals, event probabilities, moments of aggregate queries,
//! histograms, quantiles — each usable unchanged on exact world tables
//! and on Monte-Carlo streams, because both are streams of weighted
//! worlds whose weights sum to (at most) one. A [`MultiplexSink`] fans
//! one stream out to many sinks **by reference**
//! ([`WorldSink::observe_ref`]), which is how the engine answers a whole
//! query set from a single backend pass.
//!
//! A sink can be driven by hand, which is also how custom statistics are
//! tested before plugging them into an engine backend:
//!
//! ```
//! use gdatalog_data::{tuple, Fact, Instance, RelId};
//! use gdatalog_pdb::{DeficitKind, MarginalSink, WorldSink};
//!
//! let rel = RelId(0);
//! let mut sink = MarginalSink::new(Fact::new(rel, tuple![1i64]));
//! // Two weighted worlds and one budget-cut path (deficit).
//! let mut world = Instance::new();
//! world.insert(rel, tuple![1i64]);
//! sink.observe(world, 0.5);
//! sink.observe(Instance::new(), 0.25);
//! sink.observe_deficit(DeficitKind::Nontermination, 0.25);
//! // The marginal counts only worlds containing the fact.
//! assert!((sink.finish() - 0.5).abs() < 1e-12);
//! ```

use std::any::Any;
use std::collections::BTreeMap;

use gdatalog_data::{Fact, Instance, RelId, Tuple};

use crate::empirical::EmpiricalPdb;
use crate::events::Event;
use crate::expectation::Moments;
use crate::query::{eval_query, AggFun, Query};
use crate::worlds::PossibleWorlds;

/// Which kind of probability mass a deficit observation carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeficitKind {
    /// Mass of chase paths cut off by the step/depth budget (the paper's
    /// `err` outcome of §4.2); Monte-Carlo error runs report this kind.
    Nontermination,
    /// Mass lost to truncating countably-infinite discrete supports during
    /// exact enumeration.
    Truncation,
}

/// One observation of a lane batch, borrowed from the emitting backend —
/// the unit of [`WorldSink::observe_batch`]. Worlds are borrowed because
/// a batched Monte-Carlo executor may share one terminated instance
/// across the lanes of a group; weights are linear or log-space exactly
/// as in the corresponding itemwise `observe_*` method.
#[derive(Debug, Clone, Copy)]
pub enum BatchObs<'a> {
    /// A terminated world with a linear weight
    /// ([`WorldSink::observe_ref`]).
    World(&'a Instance, f64),
    /// A terminated world with a log-space weight
    /// ([`WorldSink::observe_log_ref`]).
    LogWorld(&'a Instance, f64),
    /// Deficit mass ([`WorldSink::observe_deficit`]).
    Deficit(DeficitKind, f64),
}

/// A consumer of weighted possible-world observations.
///
/// Implementations fold each observation into their statistic immediately;
/// they must not retain the observed instances (that is the whole point —
/// see the module docs). The `fork`/`join` pair supports deterministic
/// parallel folding: a backend may `fork` one empty sink per worker, fold
/// disjoint chunks of the stream into them, and `join` them back **in
/// chunk order**, so the merged result does not depend on thread timing.
pub trait WorldSink: Send {
    /// Folds one weighted world into the statistic. Exact streams pass each
    /// world once with its probability; Monte-Carlo streams pass each
    /// sampled world with weight `1/runs`.
    fn observe(&mut self, world: Instance, weight: f64);

    /// Folds one weighted world **by reference** — the fan-out path of
    /// [`MultiplexSink`], where one observed world feeds many sinks.
    /// Statistic sinks override this (they only read the instance), so a
    /// K-way fan-out costs K folds and zero clones; collectors that retain
    /// the instance keep the default, which clones.
    fn observe_ref(&mut self, world: &Instance, weight: f64) {
        self.observe(world.clone(), weight);
    }

    /// Folds one world carrying a **log-space** weight. Conditioned
    /// backends emit log-weights (prior log-probability plus per-world
    /// log-likelihood), which stay finite where the linear product
    /// underflows (log-likelihood ≲ −745). The default exponentiates and
    /// forwards to [`WorldSink::observe`] — correct for any sink, lossy
    /// only in the underflow regime; wrap the sink in
    /// [`NormalizingSink::log_space`] to fold such streams exactly.
    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        self.observe(world, log_weight.exp());
    }

    /// By-reference variant of [`WorldSink::observe_log`]. The default
    /// clones and forwards to [`WorldSink::observe_log`], so a sink that
    /// overrides only the owned log method still sees log-space weights
    /// when observations arrive by reference (the batched Monte-Carlo
    /// path delivers conditioned worlds this way); statistic sinks
    /// override it to skip the clone.
    fn observe_log_ref(&mut self, world: &Instance, log_weight: f64) {
        self.observe_log(world.clone(), log_weight);
    }

    /// Folds one lane batch of observations in order: the itemwise loop,
    /// calling the matching `observe_*` method per entry. No sink in this
    /// crate overrides it, so a batch folds exactly as its entries would
    /// one by one; a wrapper that overrides it (to time or count lanes,
    /// say) must keep that equality bit for bit, since the batched
    /// Monte-Carlo path relies on it.
    fn observe_batch(&mut self, batch: &[BatchObs<'_>]) {
        for obs in batch {
            match *obs {
                BatchObs::World(world, weight) => self.observe_ref(world, weight),
                BatchObs::LogWorld(world, lw) => self.observe_log_ref(world, lw),
                BatchObs::Deficit(kind, weight) => self.observe_deficit(kind, weight),
            }
        }
    }

    /// Folds weighted deficit mass (non-termination or truncation).
    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64);

    /// Multiplies every weight folded so far by `factor ∈ (0, 1]`.
    ///
    /// This is the streaming log-sum-exp contract: a log-space
    /// [`NormalizingSink`] feeds its inner sink weights relative to the
    /// running maximum log-weight, and rescales the inner accumulation
    /// whenever a new maximum arrives. Every statistic in this module is
    /// linear in its weights (or weight-scale invariant), so rescaling
    /// commutes with folding.
    ///
    /// # Panics
    /// The default panics: a sink that does not implement `rescale` cannot
    /// sit under a log-space normalizer. Sinks driven directly by a
    /// backend (no normalizer) never receive this call.
    fn rescale(&mut self, factor: f64) {
        let _ = factor;
        unimplemented!("this sink cannot consume log-space weight streams (no rescale support)");
    }

    /// Creates an empty sink of the same type for a parallel worker, or
    /// `None` if this sink only supports sequential folding (the default).
    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        None
    }

    /// Merges a sink previously produced by [`WorldSink::fork`] back into
    /// this one. Backends call `join` in deterministic chunk order.
    ///
    /// # Panics
    /// The default panics; sinks that return `Some` from `fork` override it.
    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let _ = forked;
        unreachable!("join called on a sink that does not fork");
    }

    /// Upcast for [`WorldSink::join`] downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// `forkable!()` implements `fork`/`join`/`into_any` for a sink with
/// inherent `forked(&self) -> Self` and `absorb(&mut self, Self)` methods.
///
/// `forkable!(statistic: T)` writes the whole `WorldSink` impl of a
/// statistic sink `T` that also has `fold(&mut self, &Instance, weight)`
/// and `scale(&mut self, factor)`: owned worlds fold by reference,
/// log-weights fold as `exp`, deficits are ignored (a statistic reads
/// only worlds), `rescale` scales.
macro_rules! forkable {
    (statistic: $sink:ty) => {
        impl WorldSink for $sink {
            fn observe(&mut self, world: Instance, weight: f64) {
                self.fold(&world, weight);
            }

            fn observe_ref(&mut self, world: &Instance, weight: f64) {
                self.fold(world, weight);
            }

            fn observe_log_ref(&mut self, world: &Instance, log_weight: f64) {
                self.fold(world, log_weight.exp());
            }

            fn observe_deficit(&mut self, _kind: DeficitKind, _weight: f64) {}

            fn rescale(&mut self, factor: f64) {
                self.scale(factor);
            }

            forkable!();
        }
    };
    () => {
        fn fork(&self) -> Option<Box<dyn WorldSink>> {
            Some(Box::new(self.forked()))
        }

        fn join(&mut self, forked: Box<dyn WorldSink>) {
            let other = forked
                .into_any()
                .downcast::<Self>()
                .expect("join requires a sink forked from self");
            self.absorb(*other);
        }

        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    };
}

// ---------------------------------------------------------------------------
// Self-normalization (conditioning support).
// ---------------------------------------------------------------------------

/// Weight bookkeeping of a (possibly conditioned) observation stream,
/// held in **shifted** form: the stream's weights are accumulated as
/// `exp(log wᵢ − scale)` against a log-space offset `scale`, so the sums
/// stay representable even when every individual weight underflows the
/// linear `f64` range (log-weight ≲ −745). Linear streams use `scale = 0`,
/// in which case the fields are plain weight sums bit-for-bit.
///
/// Everything needed to self-normalize a statistic is derivable: the
/// evidence mass ([`WeightStats::total`] / [`WeightStats::log_total`]),
/// the normalizing constant of the *inner* sink's scale
/// ([`WeightStats::normalizer`]), and the classical effective sample size
/// `(Σw)² / Σw²` of importance sampling ([`WeightStats::ess`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightStats {
    /// Log-space offset of the accumulated sums: `0` on linear streams,
    /// the running maximum observed log-weight on log-space streams
    /// (`-inf` while the log-space stream is empty).
    scale: f64,
    /// `Σ exp(log wᵢ − scale)` — the plain weight sum on linear streams.
    sum: f64,
    /// `Σ exp(2·(log wᵢ − scale))` — the squared-weight sum on linear
    /// streams.
    sq_sum: f64,
    /// Number of world observations.
    pub worlds: usize,
}

impl Default for WeightStats {
    fn default() -> WeightStats {
        WeightStats {
            scale: 0.0,
            sum: 0.0,
            sq_sum: 0.0,
            worlds: 0,
        }
    }
}

impl WeightStats {
    /// Empty statistics for a log-space stream (offset starts at `-inf`
    /// and tracks the running maximum log-weight).
    pub fn log_space() -> WeightStats {
        WeightStats {
            scale: f64::NEG_INFINITY,
            ..WeightStats::default()
        }
    }

    /// Total observed world weight `Σ wᵢ` in linear space (the evidence
    /// mass: `P(evidence)` on exact streams, the self-normalizing constant
    /// `1/N·ΣLᵢ` on likelihood-weighted Monte-Carlo streams). On linear
    /// streams this is exact; on log-space streams it is `exp(log_total)`
    /// and may underflow to `0.0` — that is precisely the regime
    /// [`WeightStats::log_total`] exists for.
    pub fn total(&self) -> f64 {
        if self.scale == 0.0 {
            // Avoid `exp(0) * sum` so linear accumulation stays
            // bit-identical to the historical plain sum.
            self.sum
        } else if self.sum > 0.0 {
            self.scale.exp() * self.sum
        } else {
            0.0
        }
    }

    /// `ln Σ wᵢ`, computed without leaving log space: finite whenever any
    /// observed weight was nonzero, `-inf` otherwise.
    pub fn log_total(&self) -> f64 {
        if self.sum > 0.0 {
            self.scale + self.sum.ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Sum of squared weights `Σ wᵢ²` in linear space (subject to the same
    /// underflow caveat as [`WeightStats::total`]).
    pub fn sq_total(&self) -> f64 {
        if self.scale == 0.0 {
            self.sq_sum
        } else if self.sq_sum > 0.0 {
            (2.0 * self.scale).exp() * self.sq_sum
        } else {
            0.0
        }
    }

    /// The normalizing constant **in the inner sink's scale**: a
    /// [`NormalizingSink`] forwards weight `exp(log wᵢ − scale)` for each
    /// observation, so dividing the inner statistic by `normalizer()`
    /// self-normalizes it regardless of the offset. On linear streams this
    /// equals [`WeightStats::total`] exactly.
    pub fn normalizer(&self) -> f64 {
        self.sum
    }

    /// Effective sample size `(Σw)² / Σw²` — equals the world count when
    /// all weights are equal (unconditioned Monte-Carlo) and collapses
    /// toward 1 when a few runs dominate the posterior. Invariant under
    /// the log-space offset (it cancels in the ratio).
    pub fn ess(&self) -> f64 {
        if self.sq_sum > 0.0 {
            self.sum * self.sum / self.sq_sum
        } else {
            0.0
        }
    }

    /// Folds one linear weight (must only be used while `scale == 0`).
    fn add_linear(&mut self, weight: f64) {
        self.sum += weight;
        self.sq_sum += weight * weight;
        self.worlds += 1;
    }
}

/// Wraps an inner sink, forwarding every observation while accumulating
/// [`WeightStats`] — the self-normalization device for conditioned
/// evaluation: backends emit **unnormalized** posterior weights (prior ×
/// likelihood), the wrapper records their total, and the caller divides
/// the inner statistic by [`WeightStats::normalizer`].
///
/// Two modes:
/// - [`NormalizingSink::new`] — **linear**: weights pass through
///   unchanged; accumulation is bit-identical to summing them directly.
/// - [`NormalizingSink::log_space`] — **log-space streaming
///   log-sum-exp**: observations arrive via [`WorldSink::observe_log`]
///   carrying log-weights; the wrapper keeps a running maximum `m` and
///   feeds the inner sink `exp(log w − m)`, calling
///   [`WorldSink::rescale`] on it whenever a new maximum arrives. All
///   inner statistics end up at the common offset `m`, so normalizing by
///   [`WeightStats::normalizer`] yields correct posteriors even when
///   every individual weight underflows linear `f64` (log-likelihood
///   ≲ −745).
///
/// Forks iff the inner sink forks (to a fresh wrapper of the same mode),
/// preserving the backends' deterministic chunked parallelism; join
/// reconciles the two sides' offsets deterministically before merging.
#[derive(Debug)]
pub struct NormalizingSink<S> {
    inner: S,
    stats: WeightStats,
    log_mode: bool,
}

impl<S: WorldSink + 'static> NormalizingSink<S> {
    /// Wraps `inner` in linear mode.
    pub fn new(inner: S) -> NormalizingSink<S> {
        NormalizingSink {
            inner,
            stats: WeightStats::default(),
            log_mode: false,
        }
    }

    /// Wraps `inner` in log-space mode. The inner sink must support
    /// [`WorldSink::rescale`] (every statistic sink in this module does).
    pub fn log_space(inner: S) -> NormalizingSink<S> {
        NormalizingSink {
            inner,
            stats: WeightStats::log_space(),
            log_mode: true,
        }
    }

    /// The inner sink and the accumulated weight statistics.
    pub fn finish(self) -> (S, WeightStats) {
        (self.inner, self.stats)
    }

    /// The weight statistics accumulated so far (the adaptive-run driver
    /// polls this between batches without consuming the sink).
    pub fn stats(&self) -> &WeightStats {
        &self.stats
    }

    /// Shared log-space fold: returns the weight (in the post-update
    /// offset's scale) to forward to the inner sink, after rescaling the
    /// inner accumulation if the running maximum moved.
    fn fold_log(&mut self, log_weight: f64) -> f64 {
        self.stats.worlds += 1;
        if log_weight == f64::NEG_INFINITY {
            // Zero-weight world: counts as observed, contributes nothing.
            // (Subtracting the -inf offset below would produce NaN.)
            return 0.0;
        }
        if log_weight > self.stats.scale {
            // New running maximum: shift the accumulated sums (and the
            // inner sink) down to the new offset. `factor` is 0 when the
            // stream was empty (scale still -inf) — harmless, the sums
            // are 0 and the inner sink holds no weight yet.
            let factor = (self.stats.scale - log_weight).exp();
            self.stats.sum = self.stats.sum * factor + 1.0;
            self.stats.sq_sum = self.stats.sq_sum * factor * factor + 1.0;
            // Only shift the inner sink once it holds weighted worlds: at
            // scale -inf it holds none, and rescaling by exp(-inf) = 0
            // would wrongly zero any *linear* deficit mass already
            // forwarded (raw adaptive streams carry deficits at weight 1).
            if self.stats.scale.is_finite() {
                self.inner.rescale(factor);
            }
            self.stats.scale = log_weight;
            1.0
        } else {
            let w = (log_weight - self.stats.scale).exp();
            self.stats.sum += w;
            self.stats.sq_sum += w * w;
            w
        }
    }
}

impl<S: WorldSink + 'static> WorldSink for NormalizingSink<S> {
    fn observe(&mut self, world: Instance, weight: f64) {
        if self.log_mode {
            self.observe_log(world, weight.ln());
            return;
        }
        self.stats.add_linear(weight);
        self.inner.observe(world, weight);
    }

    fn observe_ref(&mut self, world: &Instance, weight: f64) {
        if self.log_mode {
            self.observe_log_ref(world, weight.ln());
            return;
        }
        self.stats.add_linear(weight);
        self.inner.observe_ref(world, weight);
    }

    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        if !self.log_mode {
            self.observe(world, log_weight.exp());
            return;
        }
        let w = self.fold_log(log_weight);
        self.inner.observe(world, w);
    }

    fn observe_log_ref(&mut self, world: &Instance, log_weight: f64) {
        if !self.log_mode {
            self.observe_ref(world, log_weight.exp());
            return;
        }
        let w = self.fold_log(log_weight);
        self.inner.observe_ref(world, w);
    }

    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64) {
        // Deficit mass is not part of the normalized world-weight stream
        // (conditioned backends drop deficits before the sink); forward it
        // linearly. In log mode a later offset shift rescales it along
        // with everything else — acceptable, since only unconditioned
        // streams carry deficits and those use linear weights (offset 0).
        self.inner.observe_deficit(kind, weight);
    }

    fn rescale(&mut self, factor: f64) {
        self.stats.sum *= factor;
        self.stats.sq_sum *= factor * factor;
        self.inner.rescale(factor);
    }

    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        // The inner fork is an empty sink of the same concrete type (the
        // `forkable!` contract), so the wrapper forks to a fresh wrapper
        // of the same mode.
        let forked = self.inner.fork()?;
        let inner = forked
            .into_any()
            .downcast::<S>()
            .expect("fork returns the sink's own type");
        Some(Box::new(NormalizingSink {
            inner: *inner,
            stats: if self.log_mode {
                WeightStats::log_space()
            } else {
                WeightStats::default()
            },
            log_mode: self.log_mode,
        }))
    }

    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let mut other = forked
            .into_any()
            .downcast::<NormalizingSink<S>>()
            .expect("join requires a sink forked from self");
        // Reconcile the two sides' offsets: rescale the lower-offset side
        // up to the larger offset before summing. Linear mode has both
        // offsets at 0, so this path degenerates to plain addition.
        let target = self.stats.scale.max(other.stats.scale);
        // A side whose offset is still -inf observed no worlds: its inner
        // sums are zero and any deficit mass it holds is linear — adopt
        // the target offset without rescaling it.
        if target > self.stats.scale && self.stats.scale.is_finite() {
            let factor = (self.stats.scale - target).exp();
            self.stats.sum *= factor;
            self.stats.sq_sum *= factor * factor;
            self.inner.rescale(factor);
        } else if target > other.stats.scale && other.stats.scale.is_finite() {
            let factor = (other.stats.scale - target).exp();
            other.stats.sum *= factor;
            other.stats.sq_sum *= factor * factor;
            other.inner.rescale(factor);
        }
        self.stats.scale = target;
        self.stats.sum += other.stats.sum;
        self.stats.sq_sum += other.stats.sq_sum;
        self.stats.worlds += other.stats.worlds;
        self.inner.join(Box::new(other.inner));
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// Fan-out (single-pass multi-query support).
// ---------------------------------------------------------------------------

/// Fans one weighted-world stream out to many sinks — the single-pass
/// multi-query device: every observation is folded into each inner sink
/// **by reference** ([`WorldSink::observe_ref`]), so answering K
/// statistics costs one backend pass plus K folds, with no per-sink
/// instance cloning for statistic sinks.
///
/// Inner sinks are kept in insertion order; [`MultiplexSink::into_sinks`]
/// returns them in the same order, which is how a caller maps the folded
/// sinks back to its queries. Forks iff **every** inner sink forks;
/// forked multiplexers join their inner sinks pairwise in chunk order,
/// preserving the backends' deterministic chunked parallelism.
pub struct MultiplexSink {
    sinks: Vec<Box<dyn WorldSink>>,
}

impl MultiplexSink {
    /// A fan-out over `sinks` (insertion order is answer order).
    pub fn new(sinks: Vec<Box<dyn WorldSink>>) -> MultiplexSink {
        MultiplexSink { sinks }
    }

    /// Number of inner sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the fan-out is empty (a valid null sink).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// The folded inner sinks, in insertion order.
    pub fn into_sinks(self) -> Vec<Box<dyn WorldSink>> {
        self.sinks
    }
}

impl WorldSink for MultiplexSink {
    fn observe(&mut self, world: Instance, weight: f64) {
        self.observe_ref(&world, weight);
    }

    fn observe_ref(&mut self, world: &Instance, weight: f64) {
        for sink in &mut self.sinks {
            sink.observe_ref(world, weight);
        }
    }

    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        self.observe_log_ref(&world, log_weight);
    }

    fn observe_log_ref(&mut self, world: &Instance, log_weight: f64) {
        for sink in &mut self.sinks {
            sink.observe_log_ref(world, log_weight);
        }
    }

    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64) {
        for sink in &mut self.sinks {
            sink.observe_deficit(kind, weight);
        }
    }

    fn rescale(&mut self, factor: f64) {
        for sink in &mut self.sinks {
            sink.rescale(factor);
        }
    }

    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        let forked: Option<Vec<Box<dyn WorldSink>>> =
            self.sinks.iter().map(|sink| sink.fork()).collect();
        Some(Box::new(MultiplexSink { sinks: forked? }))
    }

    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let other = forked
            .into_any()
            .downcast::<MultiplexSink>()
            .expect("join requires a sink forked from self");
        assert_eq!(
            self.sinks.len(),
            other.sinks.len(),
            "join requires a multiplexer forked from self"
        );
        for (mine, theirs) in self.sinks.iter_mut().zip(other.sinks) {
            mine.join(theirs);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// World-table collector (exact results).
// ---------------------------------------------------------------------------

/// Collects the stream back into an exact [`PossibleWorlds`] table.
///
/// Feeding it an exact enumeration reproduces the table bit-for-bit;
/// feeding it a Monte-Carlo stream yields the empirical distribution over
/// canonical instances (weights `1/runs` merged per world).
#[derive(Debug, Default)]
pub struct WorldTableSink {
    worlds: PossibleWorlds,
}

impl WorldTableSink {
    /// An empty collector.
    pub fn new() -> WorldTableSink {
        WorldTableSink::default()
    }

    /// The collected table.
    pub fn finish(self) -> PossibleWorlds {
        self.worlds
    }

    fn forked(&self) -> WorldTableSink {
        WorldTableSink::new()
    }

    fn absorb(&mut self, other: WorldTableSink) {
        let deficit = other.worlds.deficit();
        self.worlds.add_nontermination(deficit.nontermination);
        self.worlds.add_truncation(deficit.truncation);
        for (d, p) in other.worlds.into_worlds() {
            self.worlds.add(d, p);
        }
    }
}

impl WorldSink for WorldTableSink {
    fn observe(&mut self, world: Instance, weight: f64) {
        self.worlds.add(world, weight);
    }

    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64) {
        match kind {
            DeficitKind::Nontermination => self.worlds.add_nontermination(weight),
            DeficitKind::Truncation => self.worlds.add_truncation(weight),
        }
    }

    fn rescale(&mut self, factor: f64) {
        self.worlds.scale(factor);
    }

    forkable!();
}

// ---------------------------------------------------------------------------
// Empirical collector (Monte-Carlo results).
// ---------------------------------------------------------------------------

/// Collects a Monte-Carlo stream into an [`EmpiricalPdb`] (each observation
/// is one retained sample, each deficit observation one error run).
///
/// This sink intentionally *materializes* every observed instance — it is
/// the one statistic whose result is O(runs); use the other sinks when a
/// summary suffices.
#[derive(Debug, Default)]
pub struct EmpiricalSink {
    pdb: EmpiricalPdb,
}

impl EmpiricalSink {
    /// An empty collector.
    pub fn new() -> EmpiricalSink {
        EmpiricalSink::default()
    }

    /// The collected estimate.
    pub fn finish(self) -> EmpiricalPdb {
        self.pdb
    }

    fn forked(&self) -> EmpiricalSink {
        EmpiricalSink::new()
    }

    fn absorb(&mut self, other: EmpiricalSink) {
        self.pdb.merge(other.pdb);
    }
}

impl WorldSink for EmpiricalSink {
    fn observe(&mut self, world: Instance, _weight: f64) {
        self.pdb.push(world);
    }

    fn observe_deficit(&mut self, _kind: DeficitKind, _weight: f64) {
        self.pdb.push_error();
    }

    fn rescale(&mut self, _factor: f64) {
        // Unweighted collector: every observation is one retained sample.
    }

    forkable!();
}

// ---------------------------------------------------------------------------
// Marginal of a single fact.
// ---------------------------------------------------------------------------

/// Streams the marginal probability `P(f ∈ D)` of one fact.
///
/// Deficit mass counts against the marginal (sub-probability semantics:
/// an error run does not contain the fact), matching both
/// [`PossibleWorlds::marginal`] and [`EmpiricalPdb::marginal`].
#[derive(Debug, Clone)]
pub struct MarginalSink {
    fact: Fact,
    mass: f64,
}

impl MarginalSink {
    /// Streams the marginal of `fact`.
    pub fn new(fact: Fact) -> MarginalSink {
        MarginalSink { fact, mass: 0.0 }
    }

    /// The accumulated marginal probability.
    pub fn finish(&self) -> f64 {
        self.mass
    }

    fn forked(&self) -> MarginalSink {
        MarginalSink::new(self.fact.clone())
    }

    fn absorb(&mut self, other: MarginalSink) {
        self.mass += other.mass;
    }

    fn fold(&mut self, world: &Instance, weight: f64) {
        if world.contains(self.fact.rel, &self.fact.tuple) {
            self.mass += weight;
        }
    }

    fn scale(&mut self, factor: f64) {
        self.mass *= factor;
    }
}

forkable!(statistic: MarginalSink);

// ---------------------------------------------------------------------------
// Probability of a measurable event.
// ---------------------------------------------------------------------------

/// Streams the probability of a measurable [`Event`] (§2.3 of the paper).
/// Deficit mass counts as not satisfying the event.
#[derive(Debug, Clone)]
pub struct EventProbabilitySink {
    event: Event,
    mass: f64,
}

impl EventProbabilitySink {
    /// Streams the probability of `event`.
    pub fn new(event: Event) -> EventProbabilitySink {
        EventProbabilitySink { event, mass: 0.0 }
    }

    /// The accumulated event probability.
    pub fn finish(&self) -> f64 {
        self.mass
    }

    fn forked(&self) -> EventProbabilitySink {
        EventProbabilitySink::new(self.event.clone())
    }

    fn absorb(&mut self, other: EventProbabilitySink) {
        self.mass += other.mass;
    }

    fn fold(&mut self, world: &Instance, weight: f64) {
        if self.event.eval(world) {
            self.mass += weight;
        }
    }

    fn scale(&mut self, factor: f64) {
        self.mass *= factor;
    }
}

forkable!(statistic: EventProbabilitySink);

// ---------------------------------------------------------------------------
// Moments of an aggregate query.
// ---------------------------------------------------------------------------

/// Streams the mean/variance of a scalar aggregate statistic of a query:
/// per world, `query` is evaluated and `agg` is applied to the **last
/// column** of its answer tuples (the convention of
/// [`crate::expectation::query_moments`]); worlds with an empty answer
/// contribute `empty_default`. Moments are conditional on termination
/// (normalized by the observed world mass, excluding deficits).
#[derive(Debug, Clone)]
pub struct MomentsSink {
    query: Query,
    agg: AggFun,
    empty_default: f64,
    weight: f64,
    weighted_sum: f64,
    weighted_sq_sum: f64,
}

impl MomentsSink {
    /// Streams moments of `agg` over the answers of `query`.
    pub fn new(query: Query, agg: AggFun, empty_default: f64) -> MomentsSink {
        MomentsSink {
            query,
            agg,
            empty_default,
            weight: 0.0,
            weighted_sum: 0.0,
            weighted_sq_sum: 0.0,
        }
    }

    /// The accumulated moments, or `None` if no world mass was observed.
    pub fn finish(&self) -> Option<Moments> {
        if self.weight <= 0.0 {
            return None;
        }
        let mean = self.weighted_sum / self.weight;
        let variance = (self.weighted_sq_sum / self.weight - mean * mean).max(0.0);
        Some(Moments {
            mean,
            variance,
            mass: self.weight,
        })
    }

    fn forked(&self) -> MomentsSink {
        MomentsSink::new(self.query.clone(), self.agg, self.empty_default)
    }

    fn absorb(&mut self, other: MomentsSink) {
        self.weight += other.weight;
        self.weighted_sum += other.weighted_sum;
        self.weighted_sq_sum += other.weighted_sq_sum;
    }

    /// Folds the world's scalar: the aggregate of the query's answers, or
    /// the empty default. Bare relation scans aggregate directly over the
    /// instance's stored `BTreeSet` — the same tuples in the same sorted
    /// fold order as `eval_query`'s clone, so the result is bit-identical
    /// while the Monte-Carlo hot path allocates nothing per world.
    fn fold(&mut self, world: &Instance, weight: f64) {
        let x = match &self.query {
            Query::Rel(rel) => scalar_aggregate(world.relation(*rel), self.agg),
            q => scalar_aggregate(&eval_query(q, world), self.agg),
        }
        .unwrap_or(self.empty_default);
        self.weight += weight;
        self.weighted_sum += x * weight;
        self.weighted_sq_sum += x * x * weight;
    }

    fn scale(&mut self, factor: f64) {
        self.weight *= factor;
        self.weighted_sum *= factor;
        self.weighted_sq_sum *= factor;
    }
}

forkable!(statistic: MomentsSink);

/// Applies `agg` to the last column of an answer set, the scalar-statistic
/// convention shared by [`MomentsSink`] and
/// [`crate::expectation::query_moments`]. Returns `None` on an empty set.
pub fn scalar_aggregate(answers: &std::collections::BTreeSet<Tuple>, agg: AggFun) -> Option<f64> {
    if answers.is_empty() {
        return None;
    }
    let nums = || {
        answers
            .iter()
            .filter_map(|t| t.values().last())
            .filter_map(gdatalog_data::Value::as_f64)
    };
    Some(match agg {
        AggFun::Count => answers.len() as f64,
        AggFun::Sum => nums().sum(),
        AggFun::Avg => {
            let (n, s) = nums().fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
            if n == 0 {
                return None;
            }
            s / n as f64
        }
        AggFun::Min => nums().fold(f64::INFINITY, f64::min),
        AggFun::Max => nums().fold(f64::NEG_INFINITY, f64::max),
    })
}

// ---------------------------------------------------------------------------
// Histogram of a numeric column.
// ---------------------------------------------------------------------------

/// A probability-weighted fixed-bin histogram over a numeric column: bin
/// `i` holds the expected number of facts per world whose column value
/// falls into the bin (for Monte-Carlo streams, the average count per run).
///
/// The binned range is the half-open interval `[lo, hi)`, split into
/// equal-width half-open bins `[lo + i·w, lo + (i+1)·w)`: a value exactly
/// at `lo` lands in bin 0, a value exactly at `hi` counts as overflow, and
/// every finite value lands in exactly one of bins / underflow / overflow.
/// `NaN` values compare false against both bounds, so they are counted in
/// their own [`nan`](ColumnHistogram::nan) bucket instead of being
/// silently misfiled.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnHistogram {
    /// Inclusive lower bound of the binned range.
    pub lo: f64,
    /// Exclusive upper bound of the binned range.
    pub hi: f64,
    /// Per-bin expected fact counts.
    pub bins: Vec<f64>,
    /// Expected count of values below `lo`.
    pub underflow: f64,
    /// Expected count of values at or above `hi`.
    pub overflow: f64,
    /// Expected count of `NaN` values (orderable into no bin).
    pub nan: f64,
    /// Total world mass observed (excludes deficits).
    pub mass: f64,
}

impl ColumnHistogram {
    /// The `[lo, hi)` midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Total expected count over all bins including under/overflow and the
    /// NaN bucket.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum::<f64>() + self.underflow + self.overflow + self.nan
    }

    /// Deposits one value with the given weight, following the `[lo, hi)`
    /// convention documented on the type: NaN goes to
    /// [`nan`](ColumnHistogram::nan), values below `lo` to underflow,
    /// values at or above `hi` to overflow, everything else to its
    /// half-open bin. A hand-built histogram with no bins (the sink never
    /// constructs one) counts in-range values as overflow rather than
    /// indexing an empty bin vector.
    pub fn deposit(&mut self, x: f64, weight: f64) {
        // NaN fails both ordered comparisons below; without this arm it
        // would fall through and be cast into bin 0 (`NaN as usize`
        // saturates to 0) — route it to the explicit counter instead.
        if x.is_nan() {
            self.nan += weight;
        } else if x < self.lo {
            self.underflow += weight;
        } else if x >= self.hi || self.bins.is_empty() {
            self.overflow += weight;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[i] += weight;
        }
    }
}

/// Streams a [`ColumnHistogram`] of the values at column `col` of relation
/// `rel`, weighting each fact by its world's probability.
#[derive(Debug, Clone)]
pub struct HistogramSink {
    rel: RelId,
    col: usize,
    hist: ColumnHistogram,
}

impl HistogramSink {
    /// Streams a histogram of `rel`'s column `col` with `bins` equal-width
    /// bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi`, both bounds are finite (an infinite range
    /// would make the bin width arithmetic produce NaN indices), and
    /// `bins > 0`.
    pub fn new(rel: RelId, col: usize, lo: f64, hi: f64, bins: usize) -> HistogramSink {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi && bins > 0,
            "invalid histogram spec: need finite lo < hi and bins > 0"
        );
        HistogramSink {
            rel,
            col,
            hist: ColumnHistogram {
                lo,
                hi,
                bins: vec![0.0; bins],
                underflow: 0.0,
                overflow: 0.0,
                nan: 0.0,
                mass: 0.0,
            },
        }
    }

    /// The accumulated histogram.
    pub fn finish(self) -> ColumnHistogram {
        self.hist
    }

    fn forked(&self) -> HistogramSink {
        HistogramSink::new(
            self.rel,
            self.col,
            self.hist.lo,
            self.hist.hi,
            self.hist.bins.len(),
        )
    }

    fn absorb(&mut self, other: HistogramSink) {
        for (a, b) in self.hist.bins.iter_mut().zip(&other.hist.bins) {
            *a += b;
        }
        self.hist.underflow += other.hist.underflow;
        self.hist.overflow += other.hist.overflow;
        self.hist.nan += other.hist.nan;
        self.hist.mass += other.hist.mass;
    }

    fn fold(&mut self, world: &Instance, weight: f64) {
        self.hist.mass += weight;
        for t in world.relation(self.rel) {
            let Some(x) = t[self.col].as_f64() else {
                continue;
            };
            self.hist.deposit(x, weight);
        }
    }

    fn scale(&mut self, factor: f64) {
        for bin in &mut self.hist.bins {
            *bin *= factor;
        }
        self.hist.underflow *= factor;
        self.hist.overflow *= factor;
        self.hist.nan *= factor;
        self.hist.mass *= factor;
    }
}

forkable!(statistic: HistogramSink);

// ---------------------------------------------------------------------------
// Quantile of a numeric column.
// ---------------------------------------------------------------------------

/// A total-order key for `f64` accumulator maps (via [`f64::total_cmp`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &OrdF64) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &OrdF64) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Streams the weighted `q`-quantile of the values at column `col` of
/// relation `rel`: each value occurrence carries its world's weight, and
/// the quantile is the smallest value whose cumulative weight reaches `q`
/// of the total observed value weight — O(distinct values) memory,
/// invariant under rescaling the weights (so the conditioned and
/// unconditioned readings coincide). Non-numeric and NaN values carry no
/// value mass (NaN belongs to no quantile — the same totality concern as
/// [`ColumnHistogram`]'s explicit NaN bucket).
#[derive(Debug, Clone)]
pub struct QuantileSink {
    rel: RelId,
    col: usize,
    q: f64,
    acc: BTreeMap<OrdF64, f64>,
}

impl QuantileSink {
    /// Streams the `q`-quantile of `rel`'s column `col`.
    ///
    /// # Panics
    /// Panics unless `q ∈ [0, 1]`.
    pub fn new(rel: RelId, col: usize, q: f64) -> QuantileSink {
        assert!(
            (0.0..=1.0).contains(&q),
            "invalid quantile spec: need q in [0, 1], got {q}"
        );
        QuantileSink {
            rel,
            col,
            q,
            acc: BTreeMap::new(),
        }
    }

    /// The accumulated quantile, or `None` if no value weight was
    /// observed (no world contained a numeric value in the column).
    pub fn finish(&self) -> Option<f64> {
        let total: f64 = self.acc.values().sum();
        if total <= 0.0 {
            return None;
        }
        let target = self.q * total;
        let mut cum = 0.0;
        let mut last = None;
        for (value, weight) in &self.acc {
            cum += weight;
            last = Some(value.0);
            if cum >= target {
                return last;
            }
        }
        // Unreachable when the loop ran (the final cumulative sum equals
        // `total` by identical summation order), kept total for safety.
        last
    }

    fn forked(&self) -> QuantileSink {
        QuantileSink::new(self.rel, self.col, self.q)
    }

    fn absorb(&mut self, other: QuantileSink) {
        for (value, weight) in other.acc {
            *self.acc.entry(value).or_insert(0.0) += weight;
        }
    }

    fn fold(&mut self, world: &Instance, weight: f64) {
        for t in world.relation(self.rel) {
            let Some(x) = t[self.col].as_f64() else {
                continue;
            };
            // NaN is orderable into no quantile (total_cmp would sort it
            // after +inf and poison the top of the distribution); like
            // non-numeric values it carries no value mass. The engine's
            // own `Value` rejects NaN at construction, but the sink is
            // public API and must stay total on hand-fed streams.
            if x.is_nan() {
                continue;
            }
            *self.acc.entry(OrdF64(x)).or_insert(0.0) += weight;
        }
    }

    fn scale(&mut self, factor: f64) {
        for weight in self.acc.values_mut() {
            *weight *= factor;
        }
    }
}

forkable!(statistic: QuantileSink);

// ---------------------------------------------------------------------------
// All fact marginals of one relation.
// ---------------------------------------------------------------------------

/// Streams the marginal `P(R(t̄) ∈ D)` of **every** tuple of one relation
/// that occurs in some observed world — O(distinct tuples) memory, matching
/// [`crate::expectation::fact_marginals`] on exact tables.
#[derive(Debug, Clone)]
pub struct RelationMarginalsSink {
    rel: RelId,
    acc: BTreeMap<Tuple, f64>,
}

impl RelationMarginalsSink {
    /// Streams all fact marginals of `rel`.
    pub fn new(rel: RelId) -> RelationMarginalsSink {
        RelationMarginalsSink {
            rel,
            acc: BTreeMap::new(),
        }
    }

    /// The accumulated marginals, sorted by tuple.
    pub fn finish(self) -> Vec<(Fact, f64)> {
        let rel = self.rel;
        self.acc
            .into_iter()
            .map(|(t, p)| (Fact::new(rel, t), p))
            .collect()
    }

    fn forked(&self) -> RelationMarginalsSink {
        RelationMarginalsSink::new(self.rel)
    }

    fn absorb(&mut self, other: RelationMarginalsSink) {
        for (t, p) in other.acc {
            *self.acc.entry(t).or_insert(0.0) += p;
        }
    }

    fn fold(&mut self, world: &Instance, weight: f64) {
        for t in world.relation(self.rel) {
            *self.acc.entry(t.clone()).or_insert(0.0) += weight;
        }
    }

    fn scale(&mut self, factor: f64) {
        for p in self.acc.values_mut() {
            *p *= factor;
        }
    }
}

forkable!(statistic: RelationMarginalsSink);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ColPred, FactSet};
    use gdatalog_data::{tuple, Value};

    fn r(n: u32) -> RelId {
        RelId(n)
    }

    /// Feeds the demo table of `expectation::tests` into a sink: {1,2} w.p.
    /// 0.5, {5} w.p. 0.25, {} w.p. 0.25.
    fn feed_demo(sink: &mut dyn WorldSink) {
        let mut d1 = Instance::new();
        d1.insert(r(0), tuple![1i64]);
        d1.insert(r(0), tuple![2i64]);
        sink.observe(d1, 0.5);
        let mut d2 = Instance::new();
        d2.insert(r(0), tuple![5i64]);
        sink.observe(d2, 0.25);
        sink.observe(Instance::new(), 0.25);
    }

    #[test]
    fn world_table_round_trips() {
        let mut sink = WorldTableSink::new();
        feed_demo(&mut sink);
        sink.observe_deficit(DeficitKind::Truncation, 0.0);
        let w = sink.finish();
        assert_eq!(w.len(), 3);
        assert!(w.mass_is_consistent(1e-12));
    }

    #[test]
    fn marginal_streams() {
        let mut sink = MarginalSink::new(Fact::new(r(0), tuple![1i64]));
        feed_demo(&mut sink);
        assert!((sink.finish() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn event_probability_streams() {
        let ev = Event::count_exactly(FactSet::whole_relation(r(0)), 2);
        let mut sink = EventProbabilitySink::new(ev);
        feed_demo(&mut sink);
        sink.observe_deficit(DeficitKind::Nontermination, 0.1);
        assert!((sink.finish() - 0.5).abs() < 1e-12, "deficit never counts");
    }

    #[test]
    fn moments_match_expectation_module() {
        // E[sum] = 0.5·3 + 0.25·5 + 0.25·0 = 2.75, as in query_moments.
        let q = Query::Rel(r(0));
        let mut sink = MomentsSink::new(q, AggFun::Sum, 0.0);
        feed_demo(&mut sink);
        let m = sink.finish().unwrap();
        assert!((m.mean - 2.75).abs() < 1e-12);
        assert!((m.mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_weights_by_world() {
        let mut sink = HistogramSink::new(r(0), 0, 0.0, 10.0, 10);
        feed_demo(&mut sink);
        let h = sink.finish();
        assert!(
            (h.bins[1] - 0.5).abs() < 1e-12,
            "value 1 from the 0.5 world"
        );
        assert!((h.bins[2] - 0.5).abs() < 1e-12);
        assert!((h.bins[5] - 0.25).abs() < 1e-12);
        assert!((h.total() - 1.25).abs() < 1e-12, "E[|R|]");
        assert!((h.mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_routes_nan_to_its_own_counter() {
        // Regression: NaN fails both `< lo` and `>= hi` and `NaN as usize`
        // is 0, so NaN used to be silently counted in bin 0. (The engine's
        // own `Value` type rejects NaN at construction, but the histogram
        // is public API and its binning arithmetic must stay total.)
        let mut sink = HistogramSink::new(r(0), 0, 0.0, 10.0, 10);
        let mut world = Instance::new();
        world.insert(r(0), tuple![0.5]);
        sink.observe(world, 1.0);
        let mut h = sink.finish();
        h.deposit(f64::NAN, 1.0);
        assert!((h.nan - 1.0).abs() < 1e-12, "NaN counted explicitly");
        assert!((h.bins[0] - 1.0).abs() < 1e-12, "only the real 0.5 value");
        assert!(
            (h.total() - 2.0).abs() < 1e-12,
            "total includes the NaN bucket"
        );
        // Infinities are orderable and go to the flow counters, not NaN.
        h.deposit(f64::INFINITY, 1.0);
        h.deposit(f64::NEG_INFINITY, 1.0);
        assert!((h.overflow - 1.0).abs() < 1e-12);
        assert!((h.underflow - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deposit_is_total_on_a_binless_histogram() {
        // All fields are pub, so a caller can hand-build a histogram with
        // no bins; deposit must stay total instead of indexing bins[-1].
        let mut h = ColumnHistogram {
            lo: 0.0,
            hi: 1.0,
            bins: Vec::new(),
            underflow: 0.0,
            overflow: 0.0,
            nan: 0.0,
            mass: 0.0,
        };
        h.deposit(0.5, 1.0);
        assert!((h.overflow - 1.0).abs() < 1e-12, "in-range → overflow");
        h.deposit(-1.0, 1.0);
        assert!((h.underflow - 1.0).abs() < 1e-12);
        assert!((h.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid histogram spec")]
    fn histogram_rejects_infinite_bounds() {
        // An infinite range makes the bin-width arithmetic produce NaN
        // indices (everything would land in bin 0).
        let _ = HistogramSink::new(r(0), 0, f64::NEG_INFINITY, f64::INFINITY, 10);
    }

    #[test]
    fn histogram_bin_convention_is_half_open() {
        // [lo, hi) with half-open bins: lo lands in bin 0, hi overflows.
        let mut sink = HistogramSink::new(r(0), 0, 0.0, 2.0, 2);
        let mut world = Instance::new();
        world.insert(r(0), tuple![0.0]);
        world.insert(r(0), tuple![1.0]);
        world.insert(r(0), tuple![2.0]);
        sink.observe(world, 1.0);
        let h = sink.finish();
        assert!((h.bins[0] - 1.0).abs() < 1e-12, "lo is inclusive");
        assert!((h.bins[1] - 1.0).abs() < 1e-12, "interior boundary goes up");
        assert!((h.overflow - 1.0).abs() < 1e-12, "hi is exclusive");
    }

    #[test]
    fn normalizing_sink_tracks_totals_and_ess() {
        let mut sink = NormalizingSink::new(MarginalSink::new(Fact::new(r(0), tuple![1i64])));
        let mut with = Instance::new();
        with.insert(r(0), tuple![1i64]);
        sink.observe(with.clone(), 0.6);
        sink.observe(Instance::new(), 0.2);
        sink.observe_deficit(DeficitKind::Nontermination, 0.2);
        let (inner, stats) = sink.finish();
        assert!((stats.total() - 0.8).abs() < 1e-12, "deficits excluded");
        assert_eq!(stats.worlds, 2);
        // Self-normalized conditional marginal.
        assert!((inner.finish() / stats.normalizer() - 0.75).abs() < 1e-12);
        // ESS: (0.8)^2 / (0.36 + 0.04) = 1.6.
        assert!((stats.ess() - 1.6).abs() < 1e-12);
        // Linear mode: normalizer == total exactly, log_total consistent.
        assert_eq!(stats.normalizer().to_bits(), stats.total().to_bits());
        assert!((stats.log_total() - 0.8f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn normalizing_sink_forks_and_joins_with_inner() {
        let mut main = NormalizingSink::new(MarginalSink::new(Fact::new(r(0), tuple![1i64])));
        let mut w1 = main.fork().unwrap();
        let mut w2 = main.fork().unwrap();
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        w1.observe(d.clone(), 0.25);
        w2.observe(d, 0.5);
        w2.observe(Instance::new(), 0.25);
        main.join(w1);
        main.join(w2);
        let (inner, stats) = main.finish();
        assert!((stats.total() - 1.0).abs() < 1e-12);
        assert_eq!(stats.worlds, 3);
        assert!((inner.finish() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn log_space_matches_linear_on_representable_weights() {
        // Where linear arithmetic works, log-space must agree (up to the
        // offset, which normalizer() absorbs).
        let fact = Fact::new(r(0), tuple![1i64]);
        let mut linear = NormalizingSink::new(MarginalSink::new(fact.clone()));
        let mut log = NormalizingSink::log_space(MarginalSink::new(fact.clone()));
        let mut with = Instance::new();
        with.insert(r(0), tuple![1i64]);
        for (world, w) in [(with.clone(), 0.6), (Instance::new(), 0.2), (with, 0.1)] {
            linear.observe_ref(&world, w);
            log.observe_log(world, w.ln());
        }
        let (lin_inner, lin_stats) = linear.finish();
        let (log_inner, log_stats) = log.finish();
        assert!((lin_stats.total() - log_stats.total()).abs() < 1e-12);
        assert!((lin_stats.log_total() - log_stats.log_total()).abs() < 1e-12);
        assert!((lin_stats.ess() - log_stats.ess()).abs() < 1e-12);
        assert_eq!(lin_stats.worlds, log_stats.worlds);
        let lin_post = lin_inner.finish() / lin_stats.normalizer();
        let log_post = log_inner.finish() / log_stats.normalizer();
        assert!((lin_post - log_post).abs() < 1e-12);
    }

    #[test]
    fn log_space_survives_linear_underflow() {
        // Log-weights around -2000: every linear weight is exactly 0.0,
        // yet the normalized posterior and the ESS stay well-defined.
        let fact = Fact::new(r(0), tuple![1i64]);
        let mut sink = NormalizingSink::log_space(MarginalSink::new(fact));
        let mut with = Instance::new();
        with.insert(r(0), tuple![1i64]);
        assert_eq!((-2000.0f64).exp(), 0.0, "the linear path underflows");
        sink.observe_log(with.clone(), -2000.0);
        sink.observe_log(Instance::new(), -2000.0 + (1.0f64 / 3.0).ln());
        let (inner, stats) = sink.finish();
        assert_eq!(stats.worlds, 2);
        // log Σw = -2000 + ln(4/3).
        assert!((stats.log_total() - (-2000.0 + (4.0f64 / 3.0).ln())).abs() < 1e-9);
        assert_eq!(stats.total(), 0.0, "linear mass 0-safe, not NaN");
        // Posterior P(fact) = 1 / (4/3) = 0.75.
        assert!((inner.finish() / stats.normalizer() - 0.75).abs() < 1e-12);
        // ESS = (1 + 1/3)^2 / (1 + 1/9) = 1.6.
        assert!((stats.ess() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn log_space_zero_weight_worlds_count_but_contribute_nothing() {
        let fact = Fact::new(r(0), tuple![1i64]);
        let mut sink = NormalizingSink::log_space(MarginalSink::new(fact));
        sink.observe_log(Instance::new(), f64::NEG_INFINITY);
        let mut with = Instance::new();
        with.insert(r(0), tuple![1i64]);
        sink.observe_log(with, -500.0);
        let (inner, stats) = sink.finish();
        assert_eq!(stats.worlds, 2);
        assert!((stats.log_total() - (-500.0)).abs() < 1e-12);
        assert!((inner.finish() / stats.normalizer() - 1.0).abs() < 1e-12);
        assert!((stats.ess() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_space_forks_and_joins_reconciling_offsets() {
        let fact = Fact::new(r(0), tuple![1i64]);
        let mut main = NormalizingSink::log_space(MarginalSink::new(fact.clone()));
        let mut w1 = main.fork().unwrap();
        let mut w2 = main.fork().unwrap();
        let w3 = main.fork().unwrap();
        let mut with = Instance::new();
        with.insert(r(0), tuple![1i64]);
        // Workers at wildly different offsets; w3 stays empty.
        w1.observe_log(with.clone(), -1000.0);
        w2.observe_log(with.clone(), -980.0);
        w2.observe_log(Instance::new(), -981.0);
        main.join(w1);
        main.join(w2);
        main.join(w3);
        let (inner, stats) = main.finish();
        assert_eq!(stats.worlds, 3);
        // Sequential reference fold.
        let mut seq = NormalizingSink::log_space(MarginalSink::new(fact));
        seq.observe_log(with.clone(), -1000.0);
        seq.observe_log(with, -980.0);
        seq.observe_log(Instance::new(), -981.0);
        let (seq_inner, seq_stats) = seq.finish();
        assert!((stats.log_total() - seq_stats.log_total()).abs() < 1e-9);
        assert!((stats.ess() - seq_stats.ess()).abs() < 1e-9);
        let joined = inner.finish() / stats.normalizer();
        let sequential = seq_inner.finish() / seq_stats.normalizer();
        assert!((joined - sequential).abs() < 1e-12);
    }

    #[test]
    fn multiplex_rescale_reaches_every_inner_sink() {
        let mut mux = MultiplexSink::new(vec![
            Box::new(MarginalSink::new(Fact::new(r(0), tuple![1i64]))),
            Box::new(HistogramSink::new(r(0), 0, 0.0, 10.0, 10)),
            Box::new(QuantileSink::new(r(0), 0, 0.5)),
            Box::new(RelationMarginalsSink::new(r(0))),
            Box::new(WorldTableSink::new()),
        ]);
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        mux.observe(d, 1.0);
        mux.rescale(0.5);
        let mut sinks = mux.into_sinks().into_iter();
        let marginal = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<MarginalSink>()
            .unwrap();
        assert!((marginal.finish() - 0.5).abs() < 1e-12);
        let hist = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<HistogramSink>()
            .unwrap();
        assert!((hist.finish().total() - 0.5).abs() < 1e-12);
        let q = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<QuantileSink>()
            .unwrap();
        assert_eq!(q.finish(), Some(1.0), "quantiles are scale-invariant");
        let rels = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<RelationMarginalsSink>()
            .unwrap();
        assert!((rels.finish()[0].1 - 0.5).abs() < 1e-12);
        let table = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<WorldTableSink>()
            .unwrap();
        assert!((table.finish().mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relation_marginals_stream() {
        let mut sink = RelationMarginalsSink::new(r(0));
        feed_demo(&mut sink);
        let ms = sink.finish();
        assert_eq!(ms.len(), 3);
        assert!((ms[0].1 - 0.5).abs() < 1e-12);
        assert!((ms[2].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multiplex_fans_one_stream_into_many_sinks() {
        let mut mux = MultiplexSink::new(vec![
            Box::new(MarginalSink::new(Fact::new(r(0), tuple![1i64]))),
            Box::new(MomentsSink::new(Query::Rel(r(0)), AggFun::Count, 0.0)),
            Box::new(HistogramSink::new(r(0), 0, 0.0, 10.0, 10)),
        ]);
        feed_demo(&mut mux);
        mux.observe_deficit(DeficitKind::Nontermination, 0.0);
        let mut sinks = mux.into_sinks().into_iter();
        let marginal = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<MarginalSink>()
            .unwrap();
        assert!((marginal.finish() - 0.5).abs() < 1e-12);
        let moments = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<MomentsSink>()
            .unwrap();
        assert!((moments.finish().unwrap().mean - 1.25).abs() < 1e-12);
        let hist = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<HistogramSink>()
            .unwrap();
        assert!((hist.finish().total() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn multiplex_fold_is_bit_identical_to_standalone_sinks() {
        // The fan-out must not perturb any statistic: same observations,
        // same fold order, bit-identical result.
        let mut standalone = MarginalSink::new(Fact::new(r(0), tuple![1i64]));
        feed_demo(&mut standalone);
        let mut mux = MultiplexSink::new(vec![
            Box::new(MarginalSink::new(Fact::new(r(0), tuple![1i64]))),
            Box::new(EventProbabilitySink::new(Event::count_exactly(
                FactSet::whole_relation(r(0)),
                2,
            ))),
        ]);
        feed_demo(&mut mux);
        let folded = mux
            .into_sinks()
            .remove(0)
            .into_any()
            .downcast::<MarginalSink>()
            .unwrap();
        assert_eq!(folded.finish().to_bits(), standalone.finish().to_bits());
    }

    #[test]
    fn multiplex_forks_and_joins_in_chunk_order() {
        let mut main = MultiplexSink::new(vec![
            Box::new(MarginalSink::new(Fact::new(r(0), tuple![1i64]))),
            Box::new(RelationMarginalsSink::new(r(0))),
        ]);
        let mut w1 = main.fork().unwrap();
        let mut w2 = main.fork().unwrap();
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        w1.observe(d.clone(), 0.25);
        w2.observe(d, 0.5);
        w2.observe(Instance::new(), 0.25);
        main.join(w1);
        main.join(w2);
        let mut sinks = main.into_sinks().into_iter();
        let marginal = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<MarginalSink>()
            .unwrap();
        assert!((marginal.finish() - 0.75).abs() < 1e-12);
        let rels = sinks
            .next()
            .unwrap()
            .into_any()
            .downcast::<RelationMarginalsSink>()
            .unwrap();
        assert_eq!(rels.finish().len(), 1);
    }

    #[test]
    fn multiplex_forwards_owned_log_weights_in_log_space() {
        // An exact conditioned evaluation emits owned `observe_log`; the
        // mux must hand the log-weight on, not exponentiate it to 0 first.
        let fact = Fact::new(r(0), tuple![1i64]);
        let mut mux = MultiplexSink::new(vec![Box::new(NormalizingSink::log_space(
            MarginalSink::new(fact.clone()),
        ))]);
        let mut with = Instance::new();
        with.insert(fact.rel, fact.tuple.clone());
        mux.observe_log(with, -2000.0);
        let (inner, stats) = mux
            .into_sinks()
            .remove(0)
            .into_any()
            .downcast::<NormalizingSink<MarginalSink>>()
            .unwrap()
            .finish();
        assert!(stats.normalizer() > 0.0, "the world kept its weight");
        assert_eq!(inner.finish() / stats.normalizer(), 1.0);
    }

    #[test]
    fn empty_multiplex_is_a_null_sink() {
        let mut mux = MultiplexSink::new(Vec::new());
        assert!(mux.is_empty());
        feed_demo(&mut mux);
        assert!(mux.fork().is_some(), "vacuously forkable");
    }

    #[test]
    fn quantile_streams_weighted_order_statistics() {
        // Values 1, 2 (weight 0.5 each via the 0.5-world) and 5 (0.25).
        let mut sink = QuantileSink::new(r(0), 0, 0.5);
        feed_demo(&mut sink);
        // Total value weight 1.25; cumulative: 1 → 0.5, 2 → 1.0, 5 → 1.25.
        // Median target 0.625 lands on value 2.
        assert_eq!(sink.finish(), Some(2.0));
        let mut lo = QuantileSink::new(r(0), 0, 0.0);
        feed_demo(&mut lo);
        assert_eq!(lo.finish(), Some(1.0));
        let mut hi = QuantileSink::new(r(0), 0, 1.0);
        feed_demo(&mut hi);
        assert_eq!(hi.finish(), Some(5.0));
        // No observed values: None, not a panic.
        let empty = QuantileSink::new(r(0), 0, 0.5);
        assert_eq!(empty.finish(), None);
    }

    #[test]
    fn quantile_forks_and_joins() {
        let mut main = QuantileSink::new(r(0), 0, 0.5);
        let mut w1 = main.fork().unwrap();
        let mut w2 = main.fork().unwrap();
        let mut d1 = Instance::new();
        d1.insert(r(0), tuple![1.0]);
        w1.observe(d1, 0.5);
        let mut d2 = Instance::new();
        d2.insert(r(0), tuple![3.0]);
        w2.observe(d2, 0.5);
        main.join(w1);
        main.join(w2);
        assert_eq!(main.finish(), Some(1.0), "cum 0.5 >= target 0.5");
    }

    #[test]
    #[should_panic(expected = "invalid quantile spec")]
    fn quantile_rejects_out_of_range_q() {
        let _ = QuantileSink::new(r(0), 0, 1.5);
    }

    #[test]
    fn quantile_never_reports_nan() {
        // NaN carries no value mass (observe_ref skips it — total_cmp
        // would sort it after +inf and q = 1 would report Some(NaN)),
        // matching the histogram's explicit-NaN-bucket convention. The
        // accumulator is private and `Value` rejects NaN upstream, so
        // assert the observable contract: the top quantile of a clean
        // stream is the real maximum, never NaN.
        let mut sink = QuantileSink::new(r(0), 0, 1.0);
        let mut world = Instance::new();
        world.insert(r(0), tuple![2.0]);
        world.insert(r(0), tuple![f64::INFINITY]);
        sink.observe(world, 0.5);
        assert_eq!(sink.finish(), Some(f64::INFINITY), "infinities order");
        assert!(!sink.finish().unwrap().is_nan());
    }

    #[test]
    fn fork_join_is_deterministic_merge() {
        let mut main = MarginalSink::new(Fact::new(r(0), tuple![1i64]));
        let mut w1 = main.fork().unwrap();
        let mut w2 = main.fork().unwrap();
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        w1.observe(d.clone(), 0.25);
        w2.observe(d, 0.5);
        main.join(w1);
        main.join(w2);
        assert!((main.finish() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empirical_sink_counts_errors() {
        let mut sink = EmpiricalSink::new();
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        sink.observe(d, 0.5);
        sink.observe_deficit(DeficitKind::Nontermination, 0.5);
        let pdb = sink.finish();
        assert_eq!(pdb.runs(), 2);
        assert_eq!(pdb.errors(), 1);
        let _ = Value::int(0);
    }

    /// One of each sink in this module that reads the stream: every
    /// statistic (moments on both the relation fast path and the
    /// `eval_query` path) and both collectors.
    fn every_member() -> Vec<Box<dyn WorldSink>> {
        let rel = r(0);
        let wide = Query::Select {
            input: Box::new(Query::Rel(rel)),
            preds: vec![(0, ColPred::Range { lo: 1.0, hi: 10.0 })],
        };
        vec![
            Box::new(MarginalSink::new(Fact::new(rel, tuple![1.0]))),
            Box::new(EventProbabilitySink::new(Event::count_exactly(
                FactSet::whole_relation(rel),
                2,
            ))),
            Box::new(MomentsSink::new(Query::Rel(rel), AggFun::Sum, 0.0)),
            Box::new(MomentsSink::new(wide, AggFun::Avg, -1.0)),
            Box::new(HistogramSink::new(rel, 0, 0.0, 4.0, 4)),
            Box::new(QuantileSink::new(rel, 0, 0.5)),
            Box::new(RelationMarginalsSink::new(rel)),
            Box::new(WorldTableSink::new()),
            Box::new(EmpiricalSink::new()),
        ]
    }

    /// A sink's `finish()`, every float as its bit pattern.
    fn finish_bits(sink: Box<dyn WorldSink>) -> Vec<String> {
        fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<String> {
            xs.into_iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect()
        }
        let mut any = sink.into_any();
        macro_rules! digest {
            ($ty:ty, |$s:ident| $bits:expr) => {
                any = match any.downcast::<$ty>() {
                    Ok($s) => return $bits,
                    Err(other) => other,
                };
            };
        }
        digest!(MarginalSink, |s| bits([s.finish()]));
        digest!(EventProbabilitySink, |s| bits([s.finish()]));
        digest!(MomentsSink, |s| bits(
            s.finish()
                .into_iter()
                .flat_map(|m| [m.mean, m.variance, m.mass])
        ));
        digest!(HistogramSink, |s| {
            let h = s.finish();
            let flows = [h.lo, h.hi, h.underflow, h.overflow, h.nan, h.mass];
            bits(h.bins.iter().copied().chain(flows))
        });
        digest!(QuantileSink, |s| bits(s.finish()));
        digest!(RelationMarginalsSink, |s| s
            .finish()
            .into_iter()
            .map(|(fact, p)| format!("{fact:?} {:016x}", p.to_bits()))
            .collect());
        digest!(WorldTableSink, |s| {
            let table = s.finish();
            let deficit = table.deficit();
            let mut out: Vec<String> = table
                .iter()
                .map(|(world, p)| format!("{world:?} {:016x}", p.to_bits()))
                .collect();
            out.extend(bits([deficit.nontermination, deficit.truncation]));
            out
        });
        digest!(EmpiricalSink, |s| {
            let pdb = s.finish();
            let mut out: Vec<String> = pdb.samples().iter().map(|w| format!("{w:?}")).collect();
            out.push(pdb.errors().to_string());
            out
        });
        digest!(MultiplexSink, |s| s
            .into_sinks()
            .into_iter()
            .flat_map(finish_bits)
            .collect());
        digest!(NormalizingSink<MultiplexSink>, |s| {
            let (inner, stats) = s.finish();
            let mut out = bits([stats.scale, stats.sum, stats.sq_sum]);
            out.push(stats.worlds.to_string());
            out.extend(finish_bits(Box::new(inner)));
            out
        });
        drop(any);
        panic!("no digest for this sink type");
    }

    #[test]
    fn observe_batch_equals_the_itemwise_fold() {
        // `observe_batch` must fold exactly like the matching itemwise
        // `observe_*` calls, on every sink of this module: one mixed batch
        // (linear and log worlds, both deficit kinds, one instance borrowed
        // twice, a log-weight that moves a log-space normalizer's maximum).
        let mut w1 = Instance::new();
        w1.insert(r(0), tuple![1.0]);
        w1.insert(r(0), tuple![2.5]);
        let mut w2 = Instance::new();
        w2.insert(r(0), tuple![3.0]);
        let empty = Instance::new();
        let batch = [
            BatchObs::World(&w1, 0.375),
            BatchObs::LogWorld(&w2, -1.25),
            BatchObs::Deficit(DeficitKind::Nontermination, 0.125),
            BatchObs::World(&empty, 0.0625),
            BatchObs::LogWorld(&w1, -0.5),
            BatchObs::Deficit(DeficitKind::Truncation, 0.03125),
        ];
        let every_sink = || {
            let mut sinks = every_member();
            sinks.push(Box::new(MultiplexSink::new(every_member())));
            sinks.push(Box::new(NormalizingSink::new(MultiplexSink::new(
                every_member(),
            ))));
            sinks.push(Box::new(NormalizingSink::log_space(MultiplexSink::new(
                every_member(),
            ))));
            sinks
        };
        let (batched, itemwise) = (every_sink(), every_sink());
        assert_eq!(batched.len(), 12);
        for (i, (mut batched, mut itemwise)) in batched.into_iter().zip(itemwise).enumerate() {
            batched.observe_batch(&batch);
            for obs in batch {
                match obs {
                    BatchObs::World(world, weight) => itemwise.observe_ref(world, weight),
                    BatchObs::LogWorld(world, lw) => itemwise.observe_log_ref(world, lw),
                    BatchObs::Deficit(kind, weight) => itemwise.observe_deficit(kind, weight),
                }
            }
            assert_eq!(
                finish_bits(batched),
                finish_bits(itemwise),
                "sink {i}: the batch fold diverged from the itemwise fold"
            );
        }
    }

    #[test]
    fn scalar_aggregate_conventions() {
        let mut set = std::collections::BTreeSet::new();
        assert!(scalar_aggregate(&set, AggFun::Count).is_none());
        set.insert(tuple!["a", 2.0]);
        set.insert(tuple!["b", 4.0]);
        assert_eq!(scalar_aggregate(&set, AggFun::Count), Some(2.0));
        assert_eq!(scalar_aggregate(&set, AggFun::Sum), Some(6.0));
        assert_eq!(scalar_aggregate(&set, AggFun::Avg), Some(3.0));
        assert_eq!(scalar_aggregate(&set, AggFun::Min), Some(2.0));
        assert_eq!(scalar_aggregate(&set, AggFun::Max), Some(4.0));
    }
}
