//! Evaluation backends: one trait unifying exact-sequential,
//! exact-parallel, and Monte-Carlo chase evaluation.
//!
//! Every backend drives the same interface: it evaluates one [`EvalJob`] —
//! a compiled program (plus, optionally, its pre-built chase plans), an
//! input instance, and one unified [`EvalOptions`] record — and feeds
//! weighted possible-world observations into a [`WorldSink`]. Exact
//! backends emit each world of the enumerated table once with its
//! probability; the Monte-Carlo backend **streams** each sampled run with
//! weight `1/runs` — so any statistic expressible as a sink is computed in
//! O(result) memory, independent of the number of runs.
//!
//! Backends are driven directly for custom evaluation strategies, or —
//! almost always — through the builder surface of
//! [`Session`](crate::Session)/[`Evaluation`](crate::Evaluation):
//!
//! ```
//! use gdatalog_core::{Engine, EvalJob, EvalOptions, ExactSequentialBackend, Backend};
//! use gdatalog_lang::SemanticsMode;
//! use gdatalog_pdb::WorldTableSink;
//!
//! let engine = Engine::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
//! let options = EvalOptions::default();
//! let job = EvalJob {
//!     program: engine.program(),
//!     prepared: Some(engine.prepared()),   // reuse the compile-once plans
//!     input: &engine.program().initial_instance,
//!     options: &options,
//!     observes: &[],                       // no conditioning
//! };
//! let mut sink = WorldTableSink::new();
//! ExactSequentialBackend.run(&job, &mut sink).unwrap();
//! assert_eq!(sink.finish().len(), 2);
//! ```

use gdatalog_data::Instance;
use gdatalog_lang::{CompiledObserve, CompiledProgram};
use gdatalog_pdb::{DeficitKind, PossibleWorlds, WorldSink};

use crate::applicability::PreparedProgram;
use crate::exact::{walk, Branching, ExactConfig};
use crate::mc::ChaseVariant;
use crate::mc_batch::ChaseMemo;
use crate::observe;
use crate::policy::{ChasePolicy, PolicyKind};
use crate::EngineError;

/// The unified evaluation configuration consumed by every [`Backend`]:
/// each [`EvalSpec`](crate::EvalSpec) owns one options record, and each
/// backend reads the fields that apply to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Number of independent Monte-Carlo runs.
    pub runs: usize,
    /// Master seed for Monte-Carlo sampling; run `i` derives its own seed.
    pub seed: u64,
    /// Worker threads (1 = run on the calling thread). Used by the
    /// Monte-Carlo backend.
    pub threads: usize,
    /// Monte-Carlo batch size: how many runs the lane-group executor
    /// drives in lockstep, sharing the deterministic chase prefix and the
    /// per-step applicability/kernel work (see `crates/core/src/mc_batch.rs`).
    /// Sharing spans every batch and round of one evaluation: each worker
    /// slot keeps a memo of the discrete chase-tree paths its batches have
    /// chased, for the whole evaluation (every doubling round of
    /// [`Evaluation::sample_until`](crate::Evaluation::sample_until)
    /// included), and later lanes drawing the same outcomes walk it
    /// without chasing. Results are
    /// bit-identical at any batch size; at `1` every run is a lane group
    /// of its own and nothing is memoized — the unshared reference. The
    /// batch is also the scheduling quantum: deadline checks are
    /// cooperative at batch boundaries, so one batch bounds the deadline
    /// overshoot, and the adaptive ESS schedule grows in whole batches.
    /// The default was chosen by the `mc_batch` criterion sweep.
    pub batch: usize,
    /// Budget along any chase path; paths beyond it are charged to the
    /// non-termination deficit (the paper's `err` event, §4.2). One unit
    /// is one chase step for the sequential variant and one round for the
    /// parallel one, in exact enumeration, Monte-Carlo runs and MH alike.
    /// The saturating variant counts every derived fact as a step but
    /// tests the budget only before a sampling step, so the deterministic
    /// fixpoint after it is counted, never cut: one budget can leave a
    /// different `err` mass per variant (the rule
    /// `mc_batch::tests::every_driver_spends_the_same_steps` pins).
    pub max_depth: usize,
    /// Tail mass at which countably-infinite supports are truncated during
    /// exact enumeration.
    pub support_tol: f64,
    /// Exact-enumeration paths whose probability falls below this threshold
    /// are pruned into the non-termination deficit (0 disables pruning).
    pub min_path_prob: f64,
    /// Chase procedure driving each Monte-Carlo run.
    pub variant: ChaseVariant,
    /// Chase policy for exact sequential enumeration (and the default
    /// sequential Monte-Carlo variant).
    pub policy: PolicyKind,
    /// Whether to keep auxiliary experiment relations in the observed
    /// worlds instead of projecting to the output schema (Remark 4.9).
    pub keep_aux: bool,
    /// Cooperative per-request deadline. Backends check it between
    /// bounded units of work — enumeration nodes for the exact backends,
    /// lane batches ([`EvalOptions::batch`]) for Monte-Carlo — and abort with
    /// [`EngineError::DeadlineExceeded`] once it has passed. `None`
    /// (the default) never cancels.
    pub deadline: Option<std::time::Instant>,
    /// Markov-chain iterations discarded before the first kept sample
    /// (only read by [`crate::MhBackend`]).
    pub burn_in: usize,
    /// Markov-chain iterations between kept samples (1 = keep every
    /// post-burn-in state; only read by [`crate::MhBackend`]).
    pub thin: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            runs: 10_000,
            seed: 0xC0FFEE,
            threads: 1,
            batch: 64,
            max_depth: 10_000,
            support_tol: 1e-9,
            min_path_prob: 0.0,
            variant: ChaseVariant::Sequential(PolicyKind::Canonical),
            policy: PolicyKind::Canonical,
            keep_aux: false,
            deadline: None,
            burn_in: 500,
            thin: 1,
        }
    }
}

/// A validated Monte-Carlo run budget — the one place run-count
/// invariants live, shared by the fixed-run path
/// ([`Evaluation::sample`](crate::Evaluation::sample) /
/// [`EvalOptions::runs`]) and the adaptive path
/// ([`EssTarget`](crate::EssTarget)). Construct through
/// [`RunBudget::fixed`] / [`RunBudget::adaptive`] (or normalize an
/// ad-hoc value with [`RunBudget::validated`]); the constructors enforce
/// that lane batches are nonzero, the first scheduled batch is nonzero,
/// and the run cap admits at least one whole first batch
/// (`max_runs >= initial_batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Hard cap on the total run count.
    pub max_runs: usize,
    /// Runs scheduled before the first stopping-rule poll. On the fixed
    /// path this is the whole budget; the adaptive driver doubles from
    /// here.
    pub initial_batch: usize,
    /// Lane-batch size of the batched executor (see
    /// [`EvalOptions::batch`]); the adaptive driver grows the schedule in
    /// whole multiples of this so lane batches never straddle a poll.
    pub batch: usize,
}

impl RunBudget {
    /// A fixed budget: exactly `runs` runs, executed in lane batches of
    /// `batch` — one "scheduling batch" covering the whole budget.
    pub fn fixed(runs: usize, batch: usize) -> RunBudget {
        RunBudget {
            max_runs: runs,
            initial_batch: runs,
            batch,
        }
        .validated()
    }

    /// An adaptive budget: poll the stopping rule after `initial_batch`
    /// runs, never exceed `max_runs`, drive lane batches of `batch`.
    pub fn adaptive(max_runs: usize, initial_batch: usize, batch: usize) -> RunBudget {
        RunBudget {
            max_runs,
            initial_batch,
            batch,
        }
        .validated()
    }

    /// Normalizes the invariants: both batch sizes are at least 1, and
    /// the run cap admits at least one whole first batch.
    pub fn validated(mut self) -> RunBudget {
        self.batch = self.batch.max(1);
        self.initial_batch = self.initial_batch.max(1);
        self.max_runs = self.max_runs.max(self.initial_batch);
        self
    }

    /// Rounds a scheduled run count **up** to a whole number of lane
    /// batches, then clamps at the run cap (the final batch may be ragged
    /// only when the cap itself is). Saturating.
    pub fn round_to_batches(&self, runs: usize) -> usize {
        let whole = runs.div_ceil(self.batch).saturating_mul(self.batch);
        whole.min(self.max_runs)
    }
}

impl EvalOptions {
    /// The validated run budget of the fixed-run Monte-Carlo path.
    pub fn run_budget(&self) -> RunBudget {
        RunBudget::fixed(self.runs, self.batch)
    }

    /// The exact-enumeration slice of the options.
    pub fn exact_config(&self) -> ExactConfig {
        ExactConfig {
            max_depth: self.max_depth,
            support_tol: self.support_tol,
            min_path_prob: self.min_path_prob,
            deadline: self.deadline,
        }
    }
}

/// One evaluation request as a backend sees it: the compiled program,
/// optionally its pre-built chase plans, the input instance, and the
/// options record.
///
/// `prepared` is the serving-layer fast path: when a program is compiled
/// once and evaluated many times (a [`Session`](crate::Session), a session
/// pool, a batch), the caller passes the shared
/// [`PreparedProgram`] and no backend re-plans rule
/// bodies per request. When absent, backends plan on the fly — correct,
/// just slower on repeated requests.
pub struct EvalJob<'a> {
    /// The compiled program under evaluation.
    pub program: &'a CompiledProgram,
    /// Pre-built chase plans for `program`, if the caller holds them.
    /// Must have been built from this very program.
    pub prepared: Option<&'a PreparedProgram>,
    /// The instance evaluation starts from.
    pub input: &'a Instance,
    /// The unified configuration record.
    pub options: &'a EvalOptions,
    /// Evidence to condition on (empty = unconditional). When present,
    /// backends emit **unnormalized** posterior weights — prior ×
    /// likelihood per world — and drop deficit observations (the
    /// conditional is taken given termination); callers self-normalize,
    /// e.g. through [`gdatalog_pdb::NormalizingSink`].
    pub observes: &'a [CompiledObserve],
}

/// The job's plans: shared when the caller holds them, else freshly built.
pub(crate) enum Plans<'a> {
    Shared(&'a PreparedProgram),
    Owned(Box<PreparedProgram>),
}

impl std::ops::Deref for Plans<'_> {
    type Target = PreparedProgram;
    fn deref(&self) -> &PreparedProgram {
        match self {
            Plans::Shared(p) => p,
            Plans::Owned(p) => p,
        }
    }
}

impl<'a> EvalJob<'a> {
    pub(crate) fn plans(&self) -> Plans<'a> {
        match self.prepared {
            Some(p) => Plans::Shared(p),
            None => Plans::Owned(Box::new(PreparedProgram::new(self.program))),
        }
    }
}

/// An evaluation strategy: drives the probabilistic chase of a job's
/// program on its input and feeds weighted possible-world observations
/// into `sink`.
///
/// The three shipped implementations are [`ExactSequentialBackend`]
/// (Def. 4.2), [`ExactParallelBackend`] (Def. 5.2), and [`McBackend`]
/// (path sampling, §4.3); by Theorems 6.1/6.2 they agree on the denoted
/// SPDB, which the test suite verifies rather than assumes.
pub trait Backend {
    /// The backend's name (for diagnostics and reports).
    fn name(&self) -> &'static str;

    /// Evaluates and streams observations into `sink`.
    ///
    /// # Errors
    /// [`EngineError::NotDiscrete`] if an exact backend meets a continuous
    /// distribution; [`EngineError::Dist`] on runtime parameter failures.
    fn run(&self, job: &EvalJob<'_>, sink: &mut dyn WorldSink) -> Result<(), EngineError>;
}

pub(crate) fn existential_rule_ids(program: &CompiledProgram) -> Vec<usize> {
    program
        .rules
        .iter()
        .filter(|r| r.is_existential())
        .map(|r| r.id)
        .collect()
}

/// Walks the job's chase tree under `branching` into a world table and
/// feeds the table into a sink, applying the output-schema projection
/// unless `keep_aux`. Under conditioning (`observes` nonempty) every world
/// is emitted in **log space** ([`WorldSink::observe_log`]) with weight
/// `ln p + log-likelihood` — finite even where the linear product `p · L`
/// underflows `f64` — zero-weight worlds are filtered out, and deficit
/// mass is dropped (the conditional is taken given termination); the
/// stream carries the **unnormalized** conditional, which the evaluation
/// terminals renormalize.
fn run_exact(
    job: &EvalJob<'_>,
    branching: Branching<'_>,
    sink: &mut dyn WorldSink,
) -> Result<(), EngineError> {
    let (program, observes) = (job.program, job.observes);
    let config = job.options.exact_config();
    let table = walk(
        program,
        &job.plans(),
        job.input,
        branching,
        config,
        PossibleWorlds::new(),
    )?;
    let deficit = table.deficit();
    for (world, p) in table.into_worlds() {
        if p == 0.0 {
            continue;
        }
        let lp = if observes.is_empty() {
            None
        } else {
            let lp = p.ln() + observe::log_weight(observes, &world)?;
            if lp == f64::NEG_INFINITY {
                continue;
            }
            Some(lp)
        };
        let world = if job.options.keep_aux {
            world
        } else {
            program.project_output(&world)
        };
        match lp {
            None => sink.observe(world, p),
            Some(lp) => sink.observe_log(world, lp),
        }
    }
    if observes.is_empty() {
        sink.observe_deficit(DeficitKind::Nontermination, deficit.nontermination);
        sink.observe_deficit(DeficitKind::Truncation, deficit.truncation);
    }
    Ok(())
}

/// Exact **sequential** chase-tree enumeration (Def. 4.2) under the
/// configured policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSequentialBackend;

impl Backend for ExactSequentialBackend {
    fn name(&self) -> &'static str {
        "exact-sequential"
    }

    fn run(&self, job: &EvalJob<'_>, sink: &mut dyn WorldSink) -> Result<(), EngineError> {
        let existential = existential_rule_ids(job.program);
        let mut policy = ChasePolicy::new(job.options.policy, &existential);
        run_exact(job, Branching::Sequential(&mut policy), sink)
    }
}

/// Exact **parallel** chase enumeration (Def. 5.2): all applicable pairs
/// fire at every node. Equal to the sequential result by Theorem 6.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactParallelBackend;

impl Backend for ExactParallelBackend {
    fn name(&self) -> &'static str {
        "exact-parallel"
    }

    fn run(&self, job: &EvalJob<'_>, sink: &mut dyn WorldSink) -> Result<(), EngineError> {
        run_exact(job, Branching::Parallel, sink)
    }
}

/// **Monte-Carlo** path sampling of the chase Markov process (§4.3/§5.2),
/// streaming each run into the sink with weight `1/runs`.
///
/// Works for continuous programs. Runs that exhaust the step budget are
/// streamed as [`DeficitKind::Nontermination`] observations, so weight
/// totals estimate the SPDB mass `α` of Def. 2.7.
///
/// Under conditioning (`job.observes` nonempty) this is
/// **likelihood-weighted** (importance) sampling in log space: run `i` is
/// emitted via [`WorldSink::observe_log`] with log-weight
/// `log L(world i) − ln runs`, runs failing a hard observation (and
/// budget-exhausted runs) are dropped, and the evaluation terminals
/// self-normalize — the classical self-normalized importance-sampling
/// estimator of the posterior, finite even when every likelihood
/// underflows linear `f64` (log-likelihood ≲ −745). The per-run weight is
/// a deterministic function of the run's world, so every determinism
/// guarantee below carries over unchanged.
///
/// With `threads > 1` and a sink that supports
/// [`fork`](gdatalog_pdb::WorldSink::fork), the run range is split into
/// contiguous per-worker chunks, each folded locally and joined back in
/// chunk order — results are **deterministic** (independent of thread
/// timing) because every run's seed derives from its run index. Sinks that
/// do not fork are fed sequentially regardless of `threads`.
#[derive(Debug, Clone, Copy, Default)]
pub struct McBackend;

/// Streams the Monte-Carlo runs of `range` into `sink`, with the same
/// deterministic chunked parallelism as [`McBackend::run`].
///
/// `raw` selects the emission convention:
/// - `false` (the [`McBackend`] contract): each run carries its `1/runs`
///   share — linear weight `1/runs` unconditioned, log-weight
///   `log L − ln runs` conditioned, deficits `1/runs`.
/// - `true` (the adaptive-driver contract): **per-run** weights with no
///   `1/runs` normalization — log-weight `0` unconditioned / `log L`
///   conditioned, deficits `1` — so a caller can grow the run count in
///   batches against one persistent sink and divide by the final total
///   itself.
///
/// `memos` holds one chase-tree memo per worker slot (see
/// [`crate::mc_batch`]); missing slots are opened empty. Worker `w` of
/// this pass drives its chunk on `memos[w]`, so a caller that passes the
/// same set to successive passes of one evaluation — the adaptive
/// driver's rounds — lets each pass walk the paths earlier passes chased.
/// The memos change only the work, never a run's result.
pub(crate) fn mc_stream(
    job: &EvalJob<'_>,
    sink: &mut dyn WorldSink,
    range: std::ops::Range<usize>,
    raw: bool,
    memos: &mut Vec<ChaseMemo>,
) -> Result<(), EngineError> {
    let program = job.program;
    let runs = range.len();
    if runs == 0 {
        return Ok(());
    }
    let weight = if raw { 1.0 } else { 1.0 / runs as f64 };
    let log_shift = if raw { 0.0 } else { (runs as f64).ln() };
    let observes = job.observes;
    let existential = existential_rule_ids(program);
    let prepared = job.plans();
    let options = job.options;
    let threads = options.threads.max(1).min(runs);
    let batch_size = options.run_budget().batch;
    if memos.len() < threads {
        memos.resize_with(threads, || ChaseMemo::new(options));
    }

    // Drives one contiguous subrange of runs into one sink, reporting a
    // failure with the run index it occurred at. `batch` runs execute in
    // lockstep as lane groups sharing the deterministic prefix and
    // per-step chase work, and the worker slot's chase-tree memo shares
    // the recorded paths and their likelihoods across its batches
    // (`crate::mc_batch`). One `observe_batch` hands the lane batch over
    // by reference; sinks fold it with the trait's itemwise loop.
    // Deadline checks are cooperative at batch boundaries.
    let drive = |sink: &mut dyn WorldSink,
                 memo: &mut ChaseMemo,
                 chunk: std::ops::Range<usize>|
     -> Result<(), (usize, EngineError)> {
        use crate::mc_batch::LaneObs;
        use gdatalog_pdb::BatchObs;
        let mut lo = chunk.start;
        while lo < chunk.end {
            let hi = (lo + batch_size).min(chunk.end);
            if let Err(e) = crate::exact::check_deadline(options.deadline) {
                return Err((lo, e));
            }
            let lanes = crate::mc_batch::run_batch(job, &prepared, &existential, memo, lo..hi);
            let mut batch_obs: Vec<BatchObs<'_>> = Vec::with_capacity(lanes.len());
            let mut failure: Option<(usize, EngineError)> = None;
            for (off, lane) in lanes.iter().enumerate() {
                match lane {
                    LaneObs::World(world) if raw => batch_obs.push(BatchObs::LogWorld(world, 0.0)),
                    LaneObs::World(world) => batch_obs.push(BatchObs::World(world, weight)),
                    LaneObs::Weighted(world, lw) => {
                        batch_obs.push(BatchObs::LogWorld(world, lw - log_shift));
                    }
                    // Conditioning is taken given termination: rejected
                    // and budget-exhausted runs are dropped.
                    LaneObs::Rejected => {}
                    LaneObs::Budget => {
                        if observes.is_empty() {
                            batch_obs.push(BatchObs::Deficit(DeficitKind::Nontermination, weight));
                        }
                    }
                    LaneObs::Failed(err) => {
                        failure = Some((lo + off, err.clone()));
                        break;
                    }
                }
            }
            sink.observe_batch(&batch_obs);
            if let Some(e) = failure {
                return Err(e);
            }
            lo = hi;
        }
        Ok(())
    };

    if threads <= 1 || sink.fork().is_none() {
        return drive(sink, &mut memos[0], range).map_err(|(_, e)| e);
    }

    // Contiguous chunks, folded worker-locally into forked sinks and
    // joined back in chunk order: deterministic regardless of timing.
    // Every worker runs its whole chunk (stopping only at its *own*
    // first error), so the set of per-chunk outcomes — and therefore
    // the smallest-index error chosen below — does not depend on
    // thread scheduling.
    type ChunkResult = Result<Box<dyn WorldSink>, (usize, EngineError)>;
    let chunks: Vec<ChunkResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .zip(memos.iter_mut())
            .map(|(worker, memo)| {
                let lo = range.start + worker * runs / threads;
                let hi = range.start + (worker + 1) * runs / threads;
                let mut local = sink.fork().expect("fork checked above");
                let drive = &drive;
                scope.spawn(move || -> ChunkResult {
                    drive(&mut *local, memo, lo..hi)?;
                    Ok(local)
                })
            })
            .collect();
        // A worker's panic is re-raised with its own payload.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    // Report the smallest-index failure (deterministic: each chunk's
    // first error is fixed by the per-run seeds); otherwise join the
    // chunks in run order.
    let mut first_error: Option<(usize, EngineError)> = None;
    let mut done = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        match chunk {
            Ok(local) => done.push(local),
            Err((ix, e)) => {
                if first_error.as_ref().is_none_or(|(best, _)| ix < *best) {
                    first_error = Some((ix, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    for local in done {
        sink.join(local);
    }
    Ok(())
}

impl Backend for McBackend {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn run(&self, job: &EvalJob<'_>, sink: &mut dyn WorldSink) -> Result<(), EngineError> {
        mc_stream(job, sink, 0..job.options.runs, false, &mut Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_data::{tuple, Fact};
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use gdatalog_pdb::{EmpiricalSink, MarginalSink, WorldTableSink};
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    fn drive(
        backend: &dyn Backend,
        prog: &CompiledProgram,
        opts: &EvalOptions,
        sink: &mut dyn WorldSink,
    ) {
        backend
            .run(
                &EvalJob {
                    program: prog,
                    prepared: None,
                    input: &prog.initial_instance,
                    options: opts,
                    observes: &[],
                },
                sink,
            )
            .unwrap();
    }

    #[test]
    fn exact_backends_agree() {
        let prog = compile("R(Flip<0.25>) :- true. S(X) :- R(X).");
        let opts = EvalOptions::default();
        let mut seq = WorldTableSink::new();
        drive(&ExactSequentialBackend, &prog, &opts, &mut seq);
        let mut par = WorldTableSink::new();
        drive(&ExactParallelBackend, &prog, &opts, &mut par);
        let (a, b) = (seq.finish(), par.finish());
        assert!(a.total_variation(&b) < 1e-12);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn mc_streaming_marginal_matches_materialized() {
        let prog = compile("R(Flip<0.3>) :- true.");
        let r = prog.catalog.require("R").unwrap();
        let fact = Fact::new(r, tuple![1i64]);
        let opts = EvalOptions {
            runs: 5_000,
            seed: 42,
            ..EvalOptions::default()
        };
        let mut streaming = MarginalSink::new(fact.clone());
        drive(&McBackend, &prog, &opts, &mut streaming);
        let mut materialized = EmpiricalSink::new();
        drive(&McBackend, &prog, &opts, &mut materialized);
        let pdb = materialized.finish();
        assert_eq!(pdb.runs(), 5_000);
        assert!((streaming.finish() - pdb.marginal(&fact)).abs() < 1e-12);
    }

    #[test]
    fn mc_flip_frequency_matches_bias_and_projects_aux() {
        let prog = compile("R(Flip<0.3>) :- true.");
        let opts = EvalOptions {
            runs: 20_000,
            max_depth: 100,
            seed: 42,
            ..EvalOptions::default()
        };
        let mut sink = EmpiricalSink::new();
        drive(&McBackend, &prog, &opts, &mut sink);
        let pdb = sink.finish();
        assert_eq!(pdb.errors(), 0);
        let r = prog.catalog.require("R").unwrap();
        let p = pdb.marginal(&Fact::new(r, tuple![1i64]));
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
        // Aux relations projected away by default.
        assert!(pdb.samples()[0]
            .populated_relations()
            .all(|rel| prog.output_relations.contains(&rel)));
    }

    #[test]
    fn mc_expired_deadline_fails_at_every_thread_count_and_variant() {
        let prog = compile("R(Flip<0.5>) :- true.");
        for variant in [
            ChaseVariant::Sequential(PolicyKind::Canonical),
            ChaseVariant::Sequential(PolicyKind::Random { seed: 2 }),
            ChaseVariant::Parallel,
            ChaseVariant::Saturating,
        ] {
            for threads in [1, 4] {
                let opts = EvalOptions {
                    runs: 1_000,
                    threads,
                    variant,
                    deadline: Some(std::time::Instant::now()),
                    ..EvalOptions::default()
                };
                let job = EvalJob {
                    program: &prog,
                    prepared: None,
                    input: &prog.initial_instance,
                    options: &opts,
                    observes: &[],
                };
                let mut sink = EmpiricalSink::new();
                let err = McBackend.run(&job, &mut sink).unwrap_err();
                assert!(
                    matches!(err, EngineError::DeadlineExceeded),
                    "{variant:?} at {threads} threads: {err:?}"
                );
            }
        }
    }

    #[test]
    fn mc_multithreaded_streaming_is_deterministic() {
        let prog = compile("R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.");
        let r = prog.catalog.require("R").unwrap();
        let fact = Fact::new(r, tuple![1i64]);
        let single = EvalOptions {
            runs: 4_000,
            seed: 9,
            ..EvalOptions::default()
        };
        let multi = EvalOptions {
            threads: 4,
            ..single
        };
        let run = |opts: &EvalOptions| {
            let mut sink = MarginalSink::new(fact.clone());
            drive(&McBackend, &prog, opts, &mut sink);
            sink.finish()
        };
        let a = run(&multi);
        let b = run(&multi);
        assert_eq!(a.to_bits(), b.to_bits(), "repeat runs bit-identical");
        assert!((a - run(&single)).abs() < 1e-12, "thread-count invariant");
    }

    #[test]
    fn shared_plans_change_nothing() {
        // A job carrying pre-built plans is bit-identical to one that
        // plans on the fly — the serving layer's cache-reuse guarantee.
        let prog = compile("R(Flip<0.5>) :- true. S(X) :- R(X).");
        let r = prog.catalog.require("R").unwrap();
        let fact = Fact::new(r, tuple![1i64]);
        let opts = EvalOptions {
            runs: 2_000,
            seed: 13,
            ..EvalOptions::default()
        };
        let prepared = PreparedProgram::new(&prog);
        let mut with = MarginalSink::new(fact.clone());
        McBackend
            .run(
                &EvalJob {
                    program: &prog,
                    prepared: Some(&prepared),
                    input: &prog.initial_instance,
                    options: &opts,
                    observes: &[],
                },
                &mut with,
            )
            .unwrap();
        let mut without = MarginalSink::new(fact.clone());
        drive(&McBackend, &prog, &opts, &mut without);
        assert_eq!(with.finish().to_bits(), without.finish().to_bits());
    }

    #[test]
    fn mc_budget_exhaustion_streams_deficit() {
        let prog = compile("C(0.0). C(Normal<V, 1.0>) :- C(V).");
        let opts = EvalOptions {
            runs: 20,
            max_depth: 25,
            seed: 1,
            ..EvalOptions::default()
        };
        let mut sink = WorldTableSink::new();
        drive(&McBackend, &prog, &opts, &mut sink);
        let table = sink.finish();
        assert_eq!(table.len(), 0);
        assert!((table.deficit().nontermination - 1.0).abs() < 1e-9);
    }

    /// A coin whose every draw panics.
    struct Panicking;

    impl gdatalog_dist::ParamDist for Panicking {
        fn name(&self) -> &str {
            "Panicking"
        }
        fn arity(&self) -> gdatalog_dist::DistArity {
            gdatalog_dist::DistArity::Exact(1)
        }
        fn output_type(&self) -> gdatalog_data::ColType {
            gdatalog_data::ColType::Int
        }
        fn is_discrete(&self) -> bool {
            true
        }
        fn sample(
            &self,
            _: &[gdatalog_data::Value],
            _: &mut dyn rand::Rng,
        ) -> Result<gdatalog_data::Value, gdatalog_dist::DistError> {
            panic!("a draw of Panicking");
        }
        fn log_density(
            &self,
            _: &[gdatalog_data::Value],
            _: &gdatalog_data::Value,
        ) -> Result<f64, gdatalog_dist::DistError> {
            Ok(0.0)
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let mut registry = Registry::standard();
        registry.register(Arc::new(Panicking));
        let validated = validate(
            parse_program("R(Panicking<0.5>) :- true.").unwrap(),
            Arc::new(registry),
        )
        .unwrap();
        let prog = translate(&validated, SemanticsMode::Grohe).unwrap();
        let opts = EvalOptions {
            runs: 64,
            threads: 2,
            ..EvalOptions::default()
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&McBackend, &prog, &opts, &mut EmpiricalSink::new());
        }))
        .unwrap_err();
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"a draw of Panicking"));
    }
}
