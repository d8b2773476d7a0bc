//! The session/query surface: one compiled program serving many requests.
//!
//! A [`Session`] pairs a compiled [`Engine`] with a persistent,
//! incrementally extendable fact store (the extensional database), so a
//! program compiled once can answer many queries over evolving inputs.
//! Every evaluation goes through the builder-style [`Evaluation`] returned
//! by [`Session::eval`] (or [`Engine::eval`]): configure the run with
//! chained setters — each one write into the evaluation's [`EvalSpec`],
//! the spec a serving request carries and `gdl query` lowers its flags
//! onto, checked by [`EvalSpec::validate`] before any backend runs — then
//! finish with a typed terminal —
//! [`worlds`](Evaluation::worlds), [`pdb`](Evaluation::pdb),
//! [`marginal`](Evaluation::marginal),
//! [`probability`](Evaluation::probability),
//! [`expectation`](Evaluation::expectation),
//! [`histogram`](Evaluation::histogram),
//! [`quantile`](Evaluation::quantile),
//! [`tail_probability`](Evaluation::tail_probability), and friends — or
//! answer **many** statistics from one backend pass with
//! [`answer`](Evaluation::answer) over a
//! [`QuerySet`] (every statistic terminal is one-query
//! sugar over that path).
//!
//! Queries are the point of the exercise: Fact 2.6 of the paper says
//! relational-algebra and aggregate queries are measurable maps on
//! (S)PDBs, so every query terminal is well-defined on the *distribution*
//! the program denotes — and is evaluated natively on whichever backend
//! the builder selects, exact world tables or streaming Monte-Carlo.

use std::borrow::Cow;
use std::sync::Arc;

use gdatalog_data::{Fact, Instance, RelId};
use gdatalog_dist::Registry;
use gdatalog_lang::{
    compile_observations, parse_facts, CompiledObserve, CompiledProgram, Program, SemanticsMode,
};
use gdatalog_pdb::{
    AggFun, ColumnHistogram, EmpiricalPdb, EmpiricalSink, Event, Moments, MultiplexSink,
    NormalizingSink, PossibleWorlds, Query, WeightStats, WorldSink, WorldTableSink,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::applicability::PreparedProgram;
use crate::backend::{
    existential_rule_ids, Backend, EvalJob, ExactParallelBackend, ExactSequentialBackend, McBackend,
};
use crate::engine::{Engine, EngineError};
use crate::mc::ChaseVariant;
use crate::mcmc::MhBackend;
use crate::policy::{ChasePolicy, PolicyKind};
use crate::queryset::{Answer, Answers, QuerySet};
use crate::sequential::{run_sequential, ChaseRun};
use crate::spec::{BackendChoice, EssTarget, EvalSpec};

/// A compiled program plus a persistent extensional database: the serving
/// surface of the engine. Compile once, [insert facts](Session::insert_facts)
/// as they arrive, and answer any number of [`Evaluation`] requests.
///
/// ```
/// use gdatalog_core::Session;
/// use gdatalog_lang::SemanticsMode;
///
/// let mut session = Session::from_source(
///     "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
///     SemanticsMode::Grohe,
/// ).unwrap();
/// session.insert_facts_text("City(gotham).").unwrap();
/// let worlds = session.eval().exact().worlds().unwrap();
/// assert_eq!(worlds.len(), 2);
/// session.insert_facts_text("City(metropolis).").unwrap();
/// assert_eq!(session.eval().exact().worlds().unwrap().len(), 4);
/// ```
pub struct Session {
    engine: Engine,
    /// The program's initial facts unioned with everything inserted — the
    /// instance every evaluation starts from, maintained incrementally.
    input: Instance,
    /// The facts inserted on top of the program's own ground facts, in
    /// insertion order — the per-request delta that [`Session::reset`]
    /// removes in O(|delta|), independent of the base instance size.
    delta: Vec<Fact>,
}

impl Session {
    /// Compiles program text into a session, with the standard
    /// distribution family.
    ///
    /// # Errors
    /// Syntax/validation/translation errors.
    pub fn from_source(src: &str, mode: SemanticsMode) -> Result<Session, EngineError> {
        Ok(Session::new(Engine::from_source(src, mode)?))
    }

    /// Compiles program text against a custom distribution family Ψ.
    ///
    /// # Errors
    /// Syntax/validation/translation errors.
    pub fn from_source_with_registry(
        src: &str,
        mode: SemanticsMode,
        registry: Arc<Registry>,
    ) -> Result<Session, EngineError> {
        Ok(Session::new(Engine::from_source_with_registry(
            src, mode, registry,
        )?))
    }

    /// Compiles an already-parsed AST into a session.
    ///
    /// # Errors
    /// Validation/translation errors.
    pub fn from_ast(
        ast: Program,
        mode: SemanticsMode,
        registry: Arc<Registry>,
    ) -> Result<Session, EngineError> {
        Ok(Session::new(Engine::from_ast(ast, mode, registry)?))
    }

    /// Wraps an already-compiled engine.
    pub fn new(engine: Engine) -> Session {
        let input = engine.program().initial_instance.clone();
        Session {
            engine,
            input,
            delta: Vec::new(),
        }
    }

    /// The compiled engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The compiled program (catalog, rules, analyses).
    pub fn program(&self) -> &CompiledProgram {
        self.engine.program()
    }

    /// The instance every evaluation starts from: the program's own ground
    /// facts plus everything inserted into the session.
    pub fn facts(&self) -> &Instance {
        &self.input
    }

    /// Number of facts inserted beyond the program's own ground facts.
    pub fn inserted_facts(&self) -> usize {
        self.delta.len()
    }

    /// Extends the extensional database with `facts` (set semantics:
    /// duplicates are no-ops). The merge is incremental — no rebuild of the
    /// base instance per request.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_data::{tuple, Instance};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let mut session = Session::from_source(
    ///     "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let city = session.program().catalog.require("City").unwrap();
    /// let mut batch = Instance::new();
    /// batch.insert(city, tuple!["gotham"]);
    /// session.insert_facts(&batch);
    /// assert_eq!(session.facts().len(), 1);
    /// ```
    pub fn insert_facts(&mut self, facts: &Instance) {
        for fact in facts.facts() {
            self.insert_fact(fact);
        }
    }

    /// Inserts one fact; returns whether it was new.
    pub fn insert_fact(&mut self, fact: Fact) -> bool {
        let fresh = self.input.insert_fact(fact.clone());
        if fresh {
            self.delta.push(fact);
        }
        fresh
    }

    /// Parses `text` as ground facts against the program's catalog and
    /// inserts them; returns the number of facts parsed.
    ///
    /// # Errors
    /// Parse errors, unknown relations, arity/type mismatches.
    pub fn insert_facts_text(&mut self, text: &str) -> Result<usize, EngineError> {
        let parsed = parse_facts(text, &self.program().catalog)?;
        let n = parsed.len();
        self.insert_facts(&parsed);
        Ok(n)
    }

    /// Starts a builder-style evaluation over the session's facts.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let session = Session::from_source(
    ///     "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// // Example 1.1: three worlds with probabilities 1/4, 1/4, 1/2.
    /// let worlds = session.eval().worlds().unwrap();
    /// assert_eq!(worlds.len(), 3);
    /// ```
    pub fn eval(&self) -> Evaluation<'_> {
        Evaluation::new(self.program(), Cow::Borrowed(&self.input))
            .shared_plans(Arc::clone(self.engine.prepared()))
    }

    /// Discards every inserted fact, returning the extensional database to
    /// the program's own ground facts — the checkout hook of a session
    /// pool: a pooled session is `reset` when it comes back, so the next
    /// request starts from a clean base with the compiled program (and its
    /// chase plans) still warm. Costs O(|inserted delta|): only the facts
    /// inserted since construction (or the last reset) are removed, so a
    /// large base EDB is never re-cloned per request.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let mut session = Session::from_source(
    ///     "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// session.insert_facts_text("City(gotham).").unwrap();
    /// assert_eq!(session.facts().len(), 1);
    /// session.reset();
    /// assert_eq!(session.facts().len(), 0);
    /// assert_eq!(session.inserted_facts(), 0);
    /// ```
    pub fn reset(&mut self) {
        for fact in self.delta.drain(..) {
            self.input.remove(fact.rel, &fact.tuple);
        }
    }
}

/// The evidence summary of a (conditioned) evaluation: normalizing
/// constant and importance-sampling diagnostics. See
/// [`Evaluation::evidence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvidenceSummary {
    /// Total observed weight: `P(evidence ∧ termination)` on exact
    /// backends, the self-normalizing constant `1/N·ΣLᵢ` on
    /// likelihood-weighted Monte-Carlo streams. Underflows to 0 once
    /// `log_mass` drops below ≈ −745; the posterior statistics remain
    /// correct regardless (they are computed in log space).
    pub mass: f64,
    /// `ln mass`, computed without leaving log space — finite (and
    /// informative) even where `mass` underflows linear `f64`. `-inf`
    /// only when no weighted world was observed at all.
    pub log_mass: f64,
    /// Effective sample size `(Σw)²/Σw²`: equals the surviving world/run
    /// count when all weights agree, collapses toward 1 when few runs
    /// dominate the posterior. The [`Evaluation::sample_until`] driver
    /// grows the run count until this reaches its target.
    pub ess: f64,
    /// Number of (nonzero-weight) world observations.
    pub worlds: usize,
    /// Number of backend draws consumed: the Monte-Carlo run count
    /// (including dropped and over-budget runs), the kept-sample count on
    /// the MH backend, and the enumerated world count on exact backends.
    pub runs: usize,
    /// Metropolis-Hastings proposal acceptance rate in `[0, 1]` —
    /// `Some` only on [`MhBackend`] passes.
    pub accept_rate: Option<f64>,
}

/// A configured evaluation request: chain setters, then call a typed
/// terminal. Created by [`Session::eval`], [`Engine::eval`], or
/// [`Engine::eval_on`].
///
/// The setters write into one [`EvalSpec`], the configuration a serving
/// request carries too; every terminal runs [`EvalSpec::validate`]
/// before any backend runs, so a combination the chosen backend would
/// ignore is an [`EngineError::InvalidRequest`], not a silent no-op.
/// Unless [`exact`](Evaluation::exact),
/// [`exact_parallel`](Evaluation::exact_parallel), or
/// [`sample`](Evaluation::sample) is called, the backend is picked
/// automatically: exact enumeration for discrete programs, Monte-Carlo
/// when the program uses a continuous distribution.
pub struct Evaluation<'a> {
    program: &'a CompiledProgram,
    input: Cow<'a, Instance>,
    spec: EvalSpec,
    /// Shared chase plans (from the owning [`Engine`]/[`Session`]); when
    /// present, backends skip per-request planning.
    prepared: Option<Arc<PreparedProgram>>,
    /// Per-request evidence text (compiled lazily at the terminal, on top
    /// of the program's own `@observe` clauses).
    given: Vec<String>,
}

impl<'a> Evaluation<'a> {
    pub(crate) fn new(program: &'a CompiledProgram, input: Cow<'a, Instance>) -> Evaluation<'a> {
        Evaluation {
            program,
            input,
            spec: EvalSpec::default(),
            prepared: None,
            given: Vec::new(),
        }
    }

    /// One write into the spec.
    fn with(mut self, set: impl FnOnce(EvalSpec) -> EvalSpec) -> Evaluation<'a> {
        self.spec = set(self.spec);
        self
    }

    /// Attaches pre-built chase plans (must belong to this program), so
    /// backends reuse them instead of planning per request.
    pub(crate) fn shared_plans(mut self, prepared: Arc<PreparedProgram>) -> Evaluation<'a> {
        self.prepared = Some(prepared);
        self
    }

    // -- backend selection -------------------------------------------------

    /// Forces exact sequential chase-tree enumeration (Def. 4.2).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let worlds = s.eval().exact().worlds().unwrap();
    /// assert_eq!(worlds.len(), 2);
    /// ```
    pub fn exact(self) -> Evaluation<'a> {
        self.with(|s| s.backend(BackendChoice::Exact))
    }

    /// Forces exact **parallel** chase enumeration (Def. 5.2); the result
    /// equals [`exact`](Evaluation::exact) by Theorem 6.1.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let seq = s.eval().exact().worlds().unwrap();
    /// let par = s.eval().exact_parallel().worlds().unwrap();
    /// assert!(seq.total_variation(&par) < 1e-12);
    /// ```
    pub fn exact_parallel(self) -> Evaluation<'a> {
        self.with(|s| s.backend(BackendChoice::ExactParallel))
    }

    /// Forces Monte-Carlo path sampling with `runs` independent runs
    /// (works for continuous programs; statistics stream run-by-run).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("H(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let pdb = s.eval().sample(500).pdb().unwrap();
    /// assert_eq!(pdb.runs(), 500);
    /// ```
    pub fn sample(self, runs: usize) -> Evaluation<'a> {
        self.with(|s| s.backend(BackendChoice::Mc).runs(runs))
    }

    /// **Adaptive** Monte-Carlo: grows the run count in deterministic
    /// doubling batches until the effective sample size of the (possibly
    /// likelihood-weighted) stream reaches `target`, or its run cap or a
    /// configured [`deadline`](Evaluation::deadline) hits. The achieved
    /// ESS and consumed run count are reported in the
    /// [`EvidenceSummary`]. Honored by [`answer`](Evaluation::answer) and
    /// every statistic terminal; `worlds()`, `pdb()`, and the raw
    /// `collect_*` escape hatches use the fixed run count. A run count set
    /// by [`sample`](Evaluation::sample) is the first batch (as the
    /// wire's `runs` beside `infer`). The target must be finite and ≥ 1,
    /// and the backend stays Monte-Carlo: a later
    /// [`exact`](Evaluation::exact) or [`mh`](Evaluation::mh) is an
    /// [`EngineError::InvalidRequest`].
    ///
    /// ```
    /// use gdatalog_core::{EssTarget, Session};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let answers = s.eval()
    ///     .sample_until(EssTarget::new(200.0))
    ///     .seed(9)
    ///     .given("S(1).")
    ///     .answer(&gdatalog_core::QuerySet::new())
    ///     .unwrap();
    /// let ev = answers.evidence();
    /// assert!(ev.ess >= 200.0);
    /// assert!(ev.runs >= ev.ess as usize);
    /// ```
    pub fn sample_until(self, target: EssTarget) -> Evaluation<'a> {
        self.with(|s| s.backend(BackendChoice::Mc).ess_target(target))
    }

    /// Forces the single-site **Metropolis-Hastings** backend with
    /// `samples` kept states (see [`MhBackend`]):
    /// posterior inference that stays effective where likelihood
    /// weighting collapses (sharp or many-observation evidence). Burn-in
    /// and thinning default to [`EvalOptions`](crate::EvalOptions)
    /// values; override with [`burn_in`](Evaluation::burn_in) /
    /// [`thin`](Evaluation::thin).
    /// The MH stream does **not** estimate the evidence mass — the
    /// reported `mass` is 1.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_data::{tuple, Fact};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// let p = s.eval().mh(4000).seed(3).given("S(1).")
    ///     .marginal(&Fact::new(r, tuple![1i64])).unwrap();
    /// assert!((p - 1.0).abs() < 1e-12, "only R(1) worlds derive S(1)");
    /// ```
    pub fn mh(self, samples: usize) -> Evaluation<'a> {
        self.with(|s| s.backend(BackendChoice::Mh).runs(samples))
    }

    /// Sets the number of Markov-chain iterations discarded before the
    /// first kept sample (MH backend only: on any other backend the
    /// terminals reject it).
    pub fn burn_in(self, steps: usize) -> Evaluation<'a> {
        self.with(|s| s.burn_in(steps))
    }

    /// Sets the thinning interval: keep every `every`-th post-burn-in
    /// state (MH backend only, as [`burn_in`](Evaluation::burn_in);
    /// 1 keeps every state, and 0 is rejected).
    pub fn thin(self, every: usize) -> Evaluation<'a> {
        self.with(|s| s.thin(every))
    }

    // -- configuration -----------------------------------------------------

    /// Sets the number of Monte-Carlo worker threads. The set of sampled
    /// worlds is identical regardless of the thread count (each run's seed
    /// derives from its run index; partial results merge in run order);
    /// streamed f64 statistics can differ across thread counts only by
    /// floating-point re-association (≪ 1e-12).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let single = s.eval().sample(2000).pdb().unwrap();
    /// let multi = s.eval().sample(2000).threads(4).pdb().unwrap();
    /// assert_eq!(single.samples(), multi.samples());
    /// ```
    pub fn threads(self, threads: usize) -> Evaluation<'a> {
        self.with(|s| s.threads(threads))
    }

    /// Sets the Monte-Carlo lane-batch size: how many runs the lane-group
    /// executor drives in lockstep, sharing the deterministic chase
    /// prefix and the per-step kernel work (see
    /// [`EvalOptions::batch`](crate::EvalOptions::batch)).
    /// Results are **bit-identical** at any batch size; at `1` every run
    /// is a lane group of its own. This is a throughput knob, not a
    /// semantics knob.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let one_lane = s.eval().sample(2000).batch(1).pdb().unwrap();
    /// let batched = s.eval().sample(2000).batch(256).pdb().unwrap();
    /// assert_eq!(one_lane.samples(), batched.samples());
    /// ```
    pub fn batch(self, batch: usize) -> Evaluation<'a> {
        self.with(|s| s.batch(batch))
    }

    /// Sets the Monte-Carlo master seed (run `i` uses a deterministic
    /// derivation of it).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let a = s.eval().sample(100).seed(7).pdb().unwrap();
    /// let b = s.eval().sample(100).seed(7).pdb().unwrap();
    /// assert_eq!(a.samples(), b.samples());
    /// ```
    pub fn seed(self, seed: u64) -> Evaluation<'a> {
        self.with(|s| s.seed(seed))
    }

    /// Sets the chase policy (the measurable selection of §3.3) for
    /// sequential evaluation, exact or sampled. By Theorem 6.1 the denoted
    /// SPDB does not depend on the choice.
    ///
    /// ```
    /// use gdatalog_core::{PolicyKind, Session};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let canonical = s.eval().worlds().unwrap();
    /// let reversed = s.eval().policy(PolicyKind::Reverse).worlds().unwrap();
    /// assert!(canonical.total_variation(&reversed) < 1e-12);
    /// ```
    pub fn policy(self, policy: PolicyKind) -> Evaluation<'a> {
        self.with(|s| s.policy(policy))
    }

    /// Sets the chase budget: one unit is one chase step (sequential), one
    /// round (parallel), or one derived fact tested only before a sampling
    /// step (saturating, whose deterministic fixpoints are counted but not
    /// cut; see [`EvalOptions::max_depth`](crate::EvalOptions::max_depth)).
    /// Mass beyond the budget is charged to the non-termination deficit
    /// (the paper's `err`, §4.2).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "G(0). G(Geometric<0.5 | X>) :- G(X).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let worlds = s.eval().exact().max_depth(6).worlds().unwrap();
    /// assert!(worlds.deficit().nontermination > 0.0);
    /// ```
    pub fn max_depth(self, depth: usize) -> Evaluation<'a> {
        self.with(|s| s.max_depth(depth))
    }

    /// Sets the tail mass at which countably-infinite discrete supports are
    /// truncated during exact enumeration.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("N(Geometric<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let worlds = s.eval().exact().support_tol(1e-4).worlds().unwrap();
    /// assert!(worlds.deficit().truncation <= 1e-4 + 1e-9);
    /// ```
    pub fn support_tol(self, tol: f64) -> Evaluation<'a> {
        self.with(|s| s.support_tol(tol))
    }

    /// Prunes exact-enumeration paths whose probability falls below the
    /// threshold into the non-termination deficit (0 disables pruning).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.001>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let worlds = s.eval().exact().min_path_prob(0.01).worlds().unwrap();
    /// assert!(worlds.deficit().nontermination > 0.0, "rare branch pruned");
    /// ```
    pub fn min_path_prob(self, p: f64) -> Evaluation<'a> {
        self.with(|s| s.min_path_prob(p))
    }

    /// Sets the chase procedure driving each Monte-Carlo run (sequential
    /// under a policy, parallel, or saturating). Only Monte-Carlo reads
    /// it: exact enumeration and MH chains step the sequential chase, so
    /// a parallel or saturating variant on them (or on `auto` resolving
    /// to exact) is an [`EngineError::InvalidRequest`].
    ///
    /// ```
    /// use gdatalog_core::{ChaseVariant, Session};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let pdb = s.eval().sample(500).variant(ChaseVariant::Parallel).pdb().unwrap();
    /// assert_eq!(pdb.runs(), 500);
    /// ```
    pub fn variant(self, variant: ChaseVariant) -> Evaluation<'a> {
        self.with(|s| s.variant(variant))
    }

    /// Conditions the evaluation on **evidence**: the same statements as
    /// `@observe` program clauses, with the prefix optional — hard ground
    /// facts (`"Alarm(h1)."`) and soft likelihood statements
    /// (`"Normal<M, 1.0> == 2.5 :- Mu(M)."`). May be chained; each call
    /// appends. Evidence composes with the program's own `@observe`
    /// clauses.
    ///
    /// Under conditioning every statistic terminal returns the
    /// **posterior**: exact backends filter and renormalize the enumerated
    /// world table, the Monte-Carlo backend switches to likelihood-weighted
    /// (self-normalized importance) sampling using the distributions'
    /// log-densities. Use [`evidence`](Evaluation::evidence) for the
    /// normalizing constant and an effective-sample-size diagnostic.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_data::{tuple, Fact};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// // Posterior P(R(1) | S(1)) = 1: only R(1) worlds can derive S(1).
    /// let p = s.eval().given("S(1).").marginal(&Fact::new(r, tuple![1i64])).unwrap();
    /// assert!((p - 1.0).abs() < 1e-12);
    /// ```
    pub fn given(mut self, evidence: impl Into<String>) -> Evaluation<'a> {
        self.given.push(evidence.into());
        self
    }

    /// Keeps auxiliary experiment relations in the results instead of
    /// projecting to the output schema (Remark 4.9).
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let raw = s.eval().keep_aux(true).worlds().unwrap();
    /// let projected = s.eval().worlds().unwrap();
    /// // Aux experiment relations make the raw worlds strictly larger.
    /// let raw_facts: usize = raw.iter().map(|(d, _)| d.len()).sum();
    /// let out_facts: usize = projected.iter().map(|(d, _)| d.len()).sum();
    /// assert!(raw_facts > out_facts);
    /// ```
    pub fn keep_aux(self, keep: bool) -> Evaluation<'a> {
        self.with(|s| s.keep_aux(keep))
    }

    /// Sets a cooperative per-request deadline: the chase loops check it
    /// between bounded units of work (enumeration nodes, Monte-Carlo runs)
    /// and abort with [`EngineError::DeadlineExceeded`](crate::EngineError)
    /// once it has passed. Serving layers use this to bound tail latency.
    ///
    /// ```
    /// use gdatalog_core::{EngineError, Session};
    /// use gdatalog_lang::SemanticsMode;
    /// use std::time::Instant;
    ///
    /// let s = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let err = s.eval().deadline(Instant::now()).worlds().unwrap_err();
    /// assert!(matches!(err, EngineError::DeadlineExceeded));
    /// ```
    pub fn deadline(self, deadline: std::time::Instant) -> Evaluation<'a> {
        self.with(|s| s.deadline(deadline))
    }

    /// Replaces the whole spec — how a serving request, which carries
    /// one, configures its evaluation.
    pub fn with_spec(self, spec: EvalSpec) -> Evaluation<'a> {
        self.with(|_| spec)
    }

    /// The spec the setters have built.
    pub fn spec(&self) -> &EvalSpec {
        &self.spec
    }

    /// Whether any evidence applies — program-level `@observe` clauses or
    /// per-request [`given`](Evaluation::given) statements. Decided on the
    /// **compiled** observation set, so evidence text that compiles to
    /// nothing (empty or comment-only `given("")`) does not flip the
    /// evaluation into conditioned mode.
    fn is_conditioned(&self) -> Result<bool, EngineError> {
        if self.given.is_empty() {
            return Ok(self.program.has_observes());
        }
        Ok(!self.prepare()?.is_empty())
    }

    /// The step before every backend pass: runs the spec's checks
    /// ([`EvalSpec::validate`]), then compiles the full observation set —
    /// the program's `@observe` clauses plus the per-request
    /// [`given`](Evaluation::given) evidence.
    fn prepare(&self) -> Result<Cow<'a, [CompiledObserve]>, EngineError> {
        self.spec.validate()?;
        if self.given.is_empty() {
            return Ok(Cow::Borrowed(&self.program.observes));
        }
        let mut all = self.program.observes.clone();
        for text in &self.given {
            all.extend(compile_observations(self.program, text)?);
        }
        Ok(Cow::Owned(all))
    }

    /// The job record handed to backends: program, shared plans (when the
    /// evaluation came from an [`Engine`]/[`Session`]), input, options,
    /// evidence.
    fn job_with<'o>(&'o self, observes: &'o [CompiledObserve]) -> EvalJob<'o> {
        EvalJob {
            program: self.program,
            prepared: self.prepared.as_deref(),
            input: &self.input,
            options: &self.spec.options,
            observes,
        }
    }

    /// Runs the shipped backend `choice` names (once `auto` is resolved
    /// by the terminal), returning the MH chain's acceptance rate.
    fn run_with(
        &self,
        choice: BackendChoice,
        sink: &mut dyn WorldSink,
    ) -> Result<Option<f64>, EngineError> {
        let observes = self.prepare()?;
        self.spec.check_variant(choice)?;
        let job = self.job_with(&observes);
        match choice {
            BackendChoice::Auto | BackendChoice::Exact => ExactSequentialBackend.run(&job, sink)?,
            BackendChoice::ExactParallel => ExactParallelBackend.run(&job, sink)?,
            BackendChoice::Mc => McBackend.run(&job, sink)?,
            BackendChoice::Mh => {
                let mh = MhBackend::default();
                mh.run(&job, sink)?;
                return Ok(mh.acceptance_rate());
            }
        }
        Ok(None)
    }

    /// Runs under a **log-space** [`NormalizingSink`], returning the inner
    /// sink and the observed weight statistics — the conditioned-terminal
    /// work-horse. Conditioned backends emit log-weights
    /// ([`WorldSink::observe_log`]), so the accumulated statistics stay
    /// finite even when every weight underflows linear `f64`; divide the
    /// inner statistic by [`WeightStats::normalizer`] (same scale).
    fn run_normalized<S: WorldSink + 'static>(
        &self,
        choice: BackendChoice,
        sink: S,
    ) -> Result<(S, WeightStats), EngineError> {
        let mut wrapper = NormalizingSink::log_space(sink);
        self.run_with(choice, &mut wrapper)?;
        let (inner, stats) = wrapper.finish();
        if stats.normalizer() <= 0.0 {
            return Err(EngineError::ZeroEvidence);
        }
        Ok((inner, stats))
    }

    // -- terminals ---------------------------------------------------------

    /// Drives the selected backend, folding observations into a custom
    /// [`WorldSink`] — the escape hatch behind every other terminal, and
    /// the entry point for user-defined streaming statistics. Also accepts
    /// a custom [`Backend`] via [`Evaluation::collect_with`].
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    /// use gdatalog_pdb::WorldTableSink;
    ///
    /// let s = Session::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let mut sink = WorldTableSink::new();
    /// s.eval().collect_into(&mut sink).unwrap();
    /// assert_eq!(sink.finish().len(), 2);
    /// ```
    ///
    /// # Errors
    /// Backend evaluation errors.
    pub fn collect_into(&self, sink: &mut dyn WorldSink) -> Result<(), EngineError> {
        self.run_with(self.spec.resolve(self.program).backend, sink)
            .map(|_| ())
    }

    /// Like [`Evaluation::collect_into`], with a caller-supplied backend —
    /// the pluggable-backend entry point.
    ///
    /// # Errors
    /// Whatever the backend reports.
    pub fn collect_with(
        &self,
        backend: &dyn Backend,
        sink: &mut dyn WorldSink,
    ) -> Result<(), EngineError> {
        let observes = self.prepare()?;
        backend.run(&self.job_with(&observes), sink)
    }

    /// Answers **every** query of a [`QuerySet`] in one backend pass: the
    /// set is validated once against the program schema, one sink per
    /// query is built, and the selected backend's world stream is fanned
    /// out to all of them through a
    /// [`MultiplexSink`] wrapped in a single shared
    /// [`NormalizingSink`] — so K statistics cost one
    /// chase/enumeration/Monte-Carlo pass, and under
    /// [`given`](Evaluation::given) conditioning the normalizing constant
    /// and effective sample size are computed once and shared by every
    /// answer. Each single-query terminal is sugar over this method, so
    /// the bundled answers are **bit-identical** to the K individual
    /// terminal calls.
    ///
    /// ```
    /// use gdatalog_core::{Answer, QuerySet, Session};
    /// use gdatalog_data::{tuple, Fact};
    /// use gdatalog_lang::SemanticsMode;
    /// use gdatalog_pdb::{AggFun, Query};
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// let queries = QuerySet::new()
    ///     .marginal(&Fact::new(r, tuple![1i64]))
    ///     .expectation(&Query::Rel(r), AggFun::Count)
    ///     .histogram(r, 0, 0.0, 2.0, 2)
    ///     .tail(r, 0, 1.0);
    /// let answers = s.eval().answer(&queries).unwrap();   // one pass
    /// assert_eq!(answers.len(), 4);
    /// assert_eq!(answers[0], Answer::Marginal(0.75));
    /// assert_eq!(answers[3], Answer::Tail(0.75));
    /// ```
    ///
    /// An empty set is the diagnostics-only request: it still runs the
    /// pass and reports the [`EvidenceSummary`] through
    /// [`Answers::evidence`].
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] if a query fails schema
    /// validation; backend evaluation errors;
    /// [`EngineError::ZeroEvidence`] when conditioning rejects all mass.
    pub fn answer(&self, queries: &QuerySet) -> Result<Answers, EngineError> {
        self.answer_multiplexed(None, queries)
    }

    /// Like [`Evaluation::answer`], with a caller-supplied backend — the
    /// pluggable-backend entry point for multi-query execution (and the
    /// hook the test suite uses to *count* backend passes).
    ///
    /// # Errors
    /// As [`Evaluation::answer`], plus whatever the backend reports.
    pub fn answer_with(
        &self,
        backend: &dyn Backend,
        queries: &QuerySet,
    ) -> Result<Answers, EngineError> {
        self.answer_multiplexed(Some(backend), queries)
    }

    /// The single-pass multi-query work-horse behind
    /// [`answer`](Evaluation::answer) and every statistic terminal.
    fn answer_multiplexed(
        &self,
        backend: Option<&dyn Backend>,
        queries: &QuerySet,
    ) -> Result<Answers, EngineError> {
        queries.validate(self.program)?;
        let conditioned = self.is_conditioned()?;
        if backend.is_none() {
            if let Some(target) = self.spec.adaptive_target() {
                return self.answer_adaptive(queries, conditioned, target);
            }
        }
        // Conditioned backends emit log-space weights (finite where the
        // linear likelihood product underflows), so the shared normalizer
        // runs in log mode; unconditioned streams keep the historical
        // linear accumulation bit-identically.
        let mux = MultiplexSink::new(queries.sinks());
        let mut wrapper = if conditioned {
            NormalizingSink::log_space(mux)
        } else {
            NormalizingSink::new(mux)
        };
        let choice = self.spec.resolve(self.program).backend;
        let accept_rate = match backend {
            None => self.run_with(choice, &mut wrapper)?,
            Some(backend) => {
                self.collect_with(backend, &mut wrapper)?;
                None
            }
        };
        let (mux, stats) = wrapper.finish();
        if conditioned && stats.normalizer() <= 0.0 {
            return Err(EngineError::ZeroEvidence);
        }
        // The inner sinks hold weights at the normalizer's scale, so the
        // same-scale `normalizer()` (not the absolute `total()`) is the
        // correct divisor.
        let norm = conditioned.then(|| stats.normalizer());
        let answers = queries.finish(mux.into_sinks(), norm);
        let runs = match (backend, choice) {
            (None, BackendChoice::Mc | BackendChoice::Mh) => self.spec.options.runs,
            _ => stats.worlds,
        };
        Ok(Answers::new(
            answers,
            EvidenceSummary {
                mass: stats.total(),
                log_mass: stats.log_total(),
                ess: stats.ess(),
                worlds: stats.worlds,
                runs,
                accept_rate,
            },
            conditioned,
        ))
    }

    /// The ESS-targeted driver behind [`Evaluation::sample_until`]: feeds
    /// doubling batches of **raw** per-run Monte-Carlo observations (no
    /// `1/runs` share) into one persistent log-space normalizer, polling
    /// the achieved effective sample size between batches. Every run's
    /// seed derives from its global run index, so the adaptive stream is
    /// a prefix of the fixed-run stream under the same seed — results are
    /// reproducible and independent of the batch schedule.
    fn answer_adaptive(
        &self,
        queries: &QuerySet,
        conditioned: bool,
        target: EssTarget,
    ) -> Result<Answers, EngineError> {
        let observes = self.prepare()?;
        let job = self.job_with(&observes);
        let mut wrapper = NormalizingSink::log_space(MultiplexSink::new(queries.sinks()));
        // One validated budget carries every run-count invariant; the
        // schedule grows in whole executor lane batches so a stopping-rule
        // poll never lands mid-batch (the cap may still cut the last one).
        let budget = target.budget(self.spec.options.batch);
        let max_runs = budget.max_runs;
        let mut batch = budget.initial_batch;
        let mut done = 0usize;
        // One memo set for every round: later rounds walk the chase-tree
        // paths earlier rounds chased.
        let mut memos = Vec::new();
        while done < max_runs {
            let end = budget.round_to_batches(done.saturating_add(batch));
            match crate::backend::mc_stream(&job, &mut wrapper, done..end, true, &mut memos) {
                Ok(()) => {}
                // A deadline mid-batch is terminal: keep what the stream
                // folded if anything was observed — the posterior is
                // self-normalized, so a partial batch is still a valid
                // (shorter) importance sample. The unrun tail of the
                // interrupted batch is counted as attempted, biasing only
                // the evidence estimate, by at most one batch.
                Err(EngineError::DeadlineExceeded) if wrapper.stats().worlds > 0 => {
                    done = end;
                    break;
                }
                Err(e) => return Err(e),
            }
            done = end;
            if wrapper.stats().ess() >= target.target {
                break;
            }
            batch = batch.saturating_mul(2);
        }
        let (mux, stats) = wrapper.finish();
        if conditioned && stats.normalizer() <= 0.0 {
            return Err(EngineError::ZeroEvidence);
        }
        // Raw emission carries no 1/N share, so the run count is part of
        // the normalizer: conditioned streams self-normalize (the count
        // cancels), unconditioned ones divide by it explicitly.
        let norm = if conditioned {
            stats.normalizer()
        } else {
            done as f64
        };
        let answers = queries.finish(mux.into_sinks(), Some(norm));
        Ok(Answers::new(
            answers,
            EvidenceSummary {
                mass: stats.total() / done as f64,
                log_mass: stats.log_total() - (done as f64).ln(),
                ess: stats.ess(),
                worlds: stats.worlds,
                runs: done,
                accept_rate: None,
            },
            conditioned,
        ))
    }

    /// Unwraps the single answer of a one-query sugar terminal.
    fn answer_one(&self, queries: QuerySet) -> Result<Answer, EngineError> {
        debug_assert_eq!(queries.len(), 1);
        self.answer(&queries)
            .map(|answers| answers.into_iter().next().expect("one query, one answer"))
    }

    /// The full world table. Under an exact backend (the default, and the
    /// automatic choice for discrete programs) this is the exact SPDB; under
    /// an explicit [`sample`](Evaluation::sample) it is the empirical
    /// distribution over canonical instances.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let worlds = s.eval().worlds().unwrap();
    /// assert_eq!(worlds.len(), 3);
    /// assert!(worlds.mass_is_consistent(1e-12));
    /// ```
    ///
    /// Under conditioning (program `@observe` clauses or
    /// [`given`](Evaluation::given)) the returned table is the
    /// **renormalized posterior**: worlds rejected by the evidence are
    /// gone, the remaining probabilities sum to 1, and the deficit is empty
    /// (the conditional is taken given termination).
    ///
    /// # Errors
    /// [`EngineError::NotDiscrete`] when exact enumeration meets a
    /// continuous program — use [`sample`](Evaluation::sample);
    /// [`EngineError::ZeroEvidence`] when conditioning rejects all mass.
    pub fn worlds(&self) -> Result<PossibleWorlds, EngineError> {
        let choice = match self.spec.backend {
            BackendChoice::Auto => BackendChoice::Exact,
            c => c,
        };
        if !self.is_conditioned()? {
            let mut sink = WorldTableSink::new();
            self.run_with(choice, &mut sink)?;
            return Ok(sink.finish());
        }
        let (sink, stats) = self.run_normalized(choice, WorldTableSink::new())?;
        // The table's weights share the normalizer's log-space offset, so
        // the same-scale `normalizer()` renormalizes them exactly.
        let mut posterior = PossibleWorlds::new();
        for (world, p) in sink.finish().into_worlds() {
            posterior.add(world, p / stats.normalizer());
        }
        Ok(posterior)
    }

    /// The empirical PDB of a Monte-Carlo evaluation: every sampled world,
    /// materialized. Memory is O(runs) — prefer the streaming statistic
    /// terminals for large run counts.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.3>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let pdb = s.eval().sample(1000).seed(42).pdb().unwrap();
    /// assert_eq!(pdb.runs(), 1000);
    /// assert_eq!(pdb.errors(), 0);
    /// ```
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] if an exact backend was forced.
    pub fn pdb(&self) -> Result<EmpiricalPdb, EngineError> {
        match self.spec.backend {
            BackendChoice::Auto | BackendChoice::Mc => {}
            _ => {
                return Err(EngineError::InvalidRequest(
                    "pdb() materializes Monte-Carlo samples; use .sample(runs), \
                     or .worlds() for exact backends"
                        .to_string(),
                ))
            }
        }
        if self.is_conditioned()? {
            // An EmpiricalPdb is an unweighted sample multiset — it cannot
            // carry importance weights, so it would silently report the
            // prior instead of the posterior.
            return Err(EngineError::InvalidRequest(
                "pdb() is unweighted and cannot represent a conditioned \
                 (likelihood-weighted) sample; use worlds() or a statistic \
                 terminal"
                    .to_string(),
            ));
        }
        let mut sink = EmpiricalSink::new();
        self.run_with(BackendChoice::Mc, &mut sink)?;
        Ok(sink.finish())
    }

    /// The marginal probability `P(f ∈ D)` of one fact, streamed in O(1)
    /// memory on the Monte-Carlo path.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_data::{tuple, Fact};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// let p = s.eval().marginal(&Fact::new(r, tuple![1i64])).unwrap();
    /// assert!((p - 0.25).abs() < 1e-12);
    /// ```
    ///
    /// Under conditioning this is the **posterior** marginal
    /// `P(f ∈ D | evidence)` (self-normalized).
    ///
    /// # Errors
    /// Backend evaluation errors; [`EngineError::ZeroEvidence`] when
    /// conditioning rejects all mass.
    pub fn marginal(&self, fact: &Fact) -> Result<f64, EngineError> {
        match self.answer_one(QuerySet::new().marginal(fact))? {
            Answer::Marginal(p) => Ok(p),
            _ => unreachable!("marginal query answers with Answer::Marginal"),
        }
    }

    /// The probability of a measurable [`Event`] (§2.3 of the paper);
    /// deficit mass counts as not satisfying the event.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_data::{tuple, Fact};
    /// use gdatalog_lang::SemanticsMode;
    /// use gdatalog_pdb::Event;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// let both = Event::contains_fact(&Fact::new(r, tuple![0i64]))
    ///     .and(Event::contains_fact(&Fact::new(r, tuple![1i64])));
    /// let p = s.eval().probability(&both).unwrap();
    /// assert!((p - 0.5).abs() < 1e-12);
    /// ```
    ///
    /// Under conditioning this is the **posterior** event probability
    /// `P(event | evidence)` (self-normalized).
    ///
    /// # Errors
    /// Backend evaluation errors; [`EngineError::ZeroEvidence`] when
    /// conditioning rejects all mass.
    pub fn probability(&self, event: &Event) -> Result<f64, EngineError> {
        match self.answer_one(QuerySet::new().probability(event))? {
            Answer::Probability(p) => Ok(p),
            _ => unreachable!("probability query answers with Answer::Probability"),
        }
    }

    /// Mean and variance of an aggregate of a [`Query`]'s answers: per
    /// world, `agg` is applied to the last column of the answer tuples
    /// (count ignores the column); empty answers contribute 0. Moments are
    /// conditional on termination. Returns `None` if no world mass was
    /// observed.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    /// use gdatalog_pdb::{AggFun, Query};
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// // E[|R|] = 1/4·1 + 1/4·1 + 1/2·2 = 1.5.
    /// let m = s.eval().expectation(&Query::Rel(r), AggFun::Count).unwrap().unwrap();
    /// assert!((m.mean - 1.5).abs() < 1e-12);
    /// ```
    ///
    /// Under conditioning the moments are **posterior** moments: the sink
    /// normalizes by the observed (likelihood-weighted) mass, so no extra
    /// correction applies; `Moments::mass` then reports the unnormalized
    /// evidence mass (see [`evidence`](Evaluation::evidence)).
    ///
    /// # Errors
    /// Backend evaluation errors.
    pub fn expectation(&self, query: &Query, agg: AggFun) -> Result<Option<Moments>, EngineError> {
        match self.answer_one(QuerySet::new().expectation(query, agg))? {
            Answer::Expectation(m) => Ok(m),
            _ => unreachable!("expectation query answers with Answer::Expectation"),
        }
    }

    /// A probability-weighted histogram of the values at column `col` of
    /// relation `rel`, with `bins` equal-width bins spanning `[lo, hi)` —
    /// streamed in O(bins) memory on the Monte-Carlo path.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("H(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let h = s.program().catalog.require("H").unwrap();
    /// let hist = s.eval().sample(2000).histogram(h, 0, -4.0, 4.0, 16).unwrap();
    /// assert!((hist.total() - 1.0).abs() < 0.05, "one sample per run");
    /// ```
    ///
    /// Under conditioning the histogram is normalized by the evidence mass
    /// (bin totals are posterior expected counts, `mass` becomes 1).
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] unless `lo < hi` (finite), `col`
    /// is within the relation's arity, and `bins > 0`; backend evaluation
    /// errors; [`EngineError::ZeroEvidence`] when conditioning rejects
    /// all mass.
    pub fn histogram(
        &self,
        rel: RelId,
        col: usize,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Result<ColumnHistogram, EngineError> {
        match self.answer_one(QuerySet::new().histogram(rel, col, lo, hi, bins))? {
            Answer::Histogram(h) => Ok(h),
            _ => unreachable!("histogram query answers with Answer::Histogram"),
        }
    }

    /// The marginal of **every** tuple of `rel` occurring in some world,
    /// sorted by tuple — O(distinct tuples) memory.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let r = s.program().catalog.require("R").unwrap();
    /// let ms = s.eval().marginals(r).unwrap();
    /// assert_eq!(ms.len(), 2);
    /// assert!((ms[0].1 - 0.75).abs() < 1e-12, "P(R(0))");
    /// assert!((ms[1].1 - 0.25).abs() < 1e-12, "P(R(1))");
    /// ```
    ///
    /// Under conditioning the marginals are **posterior** marginals
    /// (self-normalized).
    ///
    /// # Errors
    /// Backend evaluation errors; [`EngineError::ZeroEvidence`] when
    /// conditioning rejects all mass.
    pub fn marginals(&self, rel: RelId) -> Result<Vec<(Fact, f64)>, EngineError> {
        match self.answer_one(QuerySet::new().marginals(rel))? {
            Answer::Marginals(rows) => Ok(rows),
            _ => unreachable!("marginals query answers with Answer::Marginals"),
        }
    }

    /// The weighted `q`-quantile of the values at column `col` of `rel`:
    /// each value occurrence is weighted by its world's probability, and
    /// the quantile is the smallest value whose cumulative weight reaches
    /// `q` of the total observed value weight — O(distinct values)
    /// memory. Returns `None` when no world carries a numeric value in
    /// the column.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("H(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let h = s.program().catalog.require("H").unwrap();
    /// let median = s.eval().sample(4000).seed(3).quantile(h, 0, 0.5).unwrap().unwrap();
    /// assert!(median.abs() < 0.1, "median of a standard normal ≈ 0");
    /// ```
    ///
    /// Quantiles are invariant under rescaling the weights, so the
    /// conditioned reading needs no renormalization; impossible evidence
    /// still reports [`EngineError::ZeroEvidence`].
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] unless `q ∈ [0, 1]` and `col` is
    /// within the relation's arity; backend evaluation errors;
    /// [`EngineError::ZeroEvidence`] when conditioning rejects all mass.
    pub fn quantile(&self, rel: RelId, col: usize, q: f64) -> Result<Option<f64>, EngineError> {
        match self.answer_one(QuerySet::new().quantile(rel, col, q))? {
            Answer::Quantile(v) => Ok(v),
            _ => unreachable!("quantile query answers with Answer::Quantile"),
        }
    }

    /// The tail probability `P(some fact of rel has column value ≥
    /// threshold)` — a counting event over the half-open value range
    /// `[threshold, ∞)`, streamed in O(1) memory. Deficit mass counts as
    /// not exceeding the threshold.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source("H(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let h = s.program().catalog.require("H").unwrap();
    /// let p = s.eval().sample(4000).seed(3).tail_probability(h, 0, 0.0).unwrap();
    /// assert!((p - 0.5).abs() < 0.05, "P(N(0,1) >= 0) = 1/2");
    /// ```
    ///
    /// Under conditioning this is the **posterior** tail probability
    /// (self-normalized).
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] unless `col` is within the
    /// relation's arity and `threshold` is not NaN; backend evaluation
    /// errors; [`EngineError::ZeroEvidence`] when conditioning rejects
    /// all mass.
    pub fn tail_probability(
        &self,
        rel: RelId,
        col: usize,
        threshold: f64,
    ) -> Result<f64, EngineError> {
        match self.answer_one(QuerySet::new().tail(rel, col, threshold))? {
            Answer::Tail(p) => Ok(p),
            _ => unreachable!("tail query answers with Answer::Tail"),
        }
    }

    /// The **evidence summary** of a conditioned evaluation: the estimated
    /// evidence mass (the normalizing constant — `P(evidence ∧ termination)`
    /// on exact backends, the self-normalizing constant `1/N·ΣLᵢ` on
    /// likelihood-weighted Monte-Carlo) and the effective sample size
    /// `(Σw)²/Σw²` of the weighted stream. Works unconditioned too, where
    /// it reports the observed world mass and the world/run count.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. S(Flip<0.8>) :- R(1).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let ev = s.eval().given("S(1).").evidence().unwrap();
    /// assert!((ev.mass - 0.4).abs() < 1e-12, "P(S(1)) = 0.5 · 0.8");
    /// assert!(ev.ess >= 1.0);
    /// ```
    ///
    /// # Errors
    /// Backend evaluation errors; [`EngineError::ZeroEvidence`] when
    /// conditioning rejects all mass.
    pub fn evidence(&self) -> Result<EvidenceSummary, EngineError> {
        // The empty QuerySet is the diagnostics-only request: one pass
        // through the shared normalizer, no statistic sinks. Conditioned
        // zero mass is ZeroEvidence; an unconditioned all-deficit stream
        // (every run over budget) legitimately reports mass 0.
        Ok(self.answer(&QuerySet::new())?.evidence())
    }

    /// Runs a **single** sequential chase under the configured policy,
    /// seed, and budget, recording the per-step trace — the debugging
    /// terminal.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let s = Session::from_source(
    ///     "R(Flip<0.5>) :- true. S(X) :- R(X).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let run = s.eval().seed(11).trace().unwrap();
    /// assert_eq!(run.trace.len(), run.steps);
    /// assert!(run.steps >= 3, "sample, deliver, copy");
    /// ```
    ///
    /// Traces the **prior** chase process: a program's own `@observe`
    /// clauses do not re-weight a single run, so they are reported in the
    /// run's instance but do not alter the trace.
    ///
    /// # Errors
    /// Runtime distribution failures; [`EngineError::InvalidRequest`] if
    /// per-request [`given`](Evaluation::given) evidence was supplied —
    /// a single run cannot represent a posterior, and silently tracing
    /// the prior would misread as one.
    pub fn trace(&self) -> Result<ChaseRun, EngineError> {
        // `prepare` compiles the evidence first, so malformed text surfaces
        // as its own error; text that compiles to zero observations (empty
        // or comment-only) is a no-op, not a rejection.
        if self.prepare()?.len() > self.program.observes.len() {
            return Err(EngineError::InvalidRequest(
                "trace() records a single prior chase run and cannot honor \
                 given() evidence; drop given() or use worlds()/statistic \
                 terminals for the posterior"
                    .to_string(),
            ));
        }
        let options = &self.spec.options;
        let existential = existential_rule_ids(self.program);
        let mut policy = ChasePolicy::new(options.policy, &existential);
        let mut rng = StdRng::seed_from_u64(options.seed);
        run_sequential(
            self.program,
            &self.input,
            &mut policy,
            &mut rng,
            options.max_depth,
            true,
        )
        .map_err(EngineError::Dist)
    }

    /// Applies the program to a **probabilistic input** (Theorems 4.8, 5.5
    /// and 6.2): the output SPDB is the probability-weighted mixture of the
    /// outputs on each input world, each evaluated exactly on top of the
    /// evaluation's base facts. Input deficit passes through unchanged.
    ///
    /// ```
    /// use gdatalog_core::Session;
    /// use gdatalog_data::{tuple, Fact, Instance};
    /// use gdatalog_lang::SemanticsMode;
    /// use gdatalog_pdb::PossibleWorlds;
    ///
    /// let s = Session::from_source(
    ///     "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let city = s.program().catalog.require("City").unwrap();
    /// let quake = s.program().catalog.require("Quake").unwrap();
    /// let mut with_city = Instance::new();
    /// with_city.insert(city, tuple!["gotham"]);
    /// let mut input = PossibleWorlds::new();
    /// input.add(with_city, 0.5);
    /// input.add(Instance::new(), 0.5);
    /// let out = s.eval().transform(&input).unwrap();
    /// let p = out.marginal(&Fact::new(quake, tuple!["gotham", 1i64]));
    /// assert!((p - 0.5 * 0.4).abs() < 1e-12);
    /// ```
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] under a Monte-Carlo backend or
    /// under conditioning (the mixture of per-world posteriors is not the
    /// posterior of the mixture — condition the transformed table
    /// yourself); else the errors of [`Evaluation::worlds`].
    pub fn transform(&self, input: &PossibleWorlds) -> Result<PossibleWorlds, EngineError> {
        let spec = match self.spec.backend {
            BackendChoice::Auto => self.spec.backend(BackendChoice::Exact),
            BackendChoice::Mc | BackendChoice::Mh => {
                return Err(EngineError::InvalidRequest(
                    "transform() mixes exact world tables; do not combine it with \
                     .sample()/.sample_until()/.mh()"
                        .to_string(),
                ))
            }
            _ => self.spec,
        };
        if self.is_conditioned()? {
            return Err(EngineError::InvalidRequest(
                "transform() does not compose with conditioning: renormalizing \
                 per input world would weight the mixture wrongly"
                    .to_string(),
            ));
        }
        let mut parts = Vec::with_capacity(input.len());
        for (world, p) in input.iter() {
            let part = Evaluation {
                program: self.program,
                input: Cow::Owned(self.input.union(world)),
                spec,
                prepared: self.prepared.clone(),
                given: Vec::new(),
            };
            parts.push((p, part.worlds()?));
        }
        let mut out = PossibleWorlds::mixture(parts);
        out.add_nontermination(input.deficit().nontermination);
        out.add_truncation(input.deficit().truncation);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_data::tuple;

    #[test]
    fn one_session_many_query_types_both_backends() {
        // Acceptance: a single compiled session serves marginal,
        // expectation, and histogram queries over exact AND MC backends.
        let mut session = Session::from_source(
            r#"
            rel City(symbol, real) input.
            Earthquake(C, Flip<R>) :- City(C, R).
            Alarm(C) :- Earthquake(C, 1).
        "#,
            SemanticsMode::Grohe,
        )
        .unwrap();
        session
            .insert_facts_text("City(gotham, 0.3). City(metropolis, 0.6).")
            .unwrap();
        let alarm = session.program().catalog.require("Alarm").unwrap();
        let quake = session.program().catalog.require("Earthquake").unwrap();
        let fact = Fact::new(alarm, tuple!["gotham"]);

        let exact_marginal = session.eval().exact().marginal(&fact).unwrap();
        assert!((exact_marginal - 0.3).abs() < 1e-12);
        let mc_marginal = session
            .eval()
            .sample(20_000)
            .seed(5)
            .threads(4)
            .marginal(&fact)
            .unwrap();
        assert!((mc_marginal - 0.3).abs() < 0.02);

        let q = Query::Rel(alarm);
        let exact_e = session
            .eval()
            .exact()
            .expectation(&q, AggFun::Count)
            .unwrap()
            .unwrap();
        assert!((exact_e.mean - 0.9).abs() < 1e-12, "0.3 + 0.6");
        let mc_e = session
            .eval()
            .sample(20_000)
            .seed(6)
            .expectation(&q, AggFun::Count)
            .unwrap()
            .unwrap();
        assert!((mc_e.mean - 0.9).abs() < 0.03);

        let exact_h = session
            .eval()
            .exact()
            .histogram(quake, 1, 0.0, 2.0, 2)
            .unwrap();
        assert!((exact_h.bins[0] - 1.1).abs() < 1e-12, "E[#zeros]");
        assert!((exact_h.bins[1] - 0.9).abs() < 1e-12, "E[#ones]");
        let mc_h = session
            .eval()
            .sample(20_000)
            .seed(7)
            .histogram(quake, 1, 0.0, 2.0, 2)
            .unwrap();
        assert!((mc_h.bins[1] - 0.9).abs() < 0.03);
    }

    #[test]
    fn incremental_edb_extends_results() {
        let mut session = Session::from_source(
            "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
            SemanticsMode::Grohe,
        )
        .unwrap();
        assert_eq!(session.eval().worlds().unwrap().len(), 1, "empty world");
        session.insert_facts_text("City(gotham).").unwrap();
        assert_eq!(session.inserted_facts(), 1);
        assert_eq!(session.eval().worlds().unwrap().len(), 2);
        // Duplicate insert is a set-semantics no-op.
        session.insert_facts_text("City(gotham).").unwrap();
        assert_eq!(session.inserted_facts(), 1);
    }

    #[test]
    fn hard_conditioning_renormalizes_exactly() {
        // Burglary-style chain: P(Quake=1) = 0.1; Alarm iff Trig=1, where
        // Trig fires w.p. 0.6 given a quake. Condition on the alarm.
        let session = Session::from_source(
            r#"
            Quake(Flip<0.1>) :- true.
            Trig(Flip<0.6>) :- Quake(1).
            Alarm() :- Trig(1).
        "#,
            SemanticsMode::Grohe,
        )
        .unwrap();
        let quake = session.program().catalog.require("Quake").unwrap();
        let fact = Fact::new(quake, tuple![1i64]);
        // Prior: P(Quake=1) = 0.1.
        let prior = session.eval().marginal(&fact).unwrap();
        assert!((prior - 0.1).abs() < 1e-12);
        // Posterior: P(Quake=1 | Alarm) = 1 (only quakes trigger alarms).
        let posterior = session.eval().given("Alarm().").marginal(&fact).unwrap();
        assert!((posterior - 1.0).abs() < 1e-12);
        // Evidence mass: P(Alarm) = 0.1 · 0.6.
        let ev = session.eval().given("Alarm().").evidence().unwrap();
        assert!((ev.mass - 0.06).abs() < 1e-12);
        // Posterior world table is a probability distribution again.
        let worlds = session.eval().given("Alarm().").worlds().unwrap();
        assert!((worlds.mass() - 1.0).abs() < 1e-12);
        assert_eq!(worlds.deficit().total(), 0.0);
    }

    #[test]
    fn program_level_observe_clauses_condition_every_evaluation() {
        let session = Session::from_source(
            r#"
            Quake(Flip<0.1>) :- true.
            Trig(Flip<0.6>) :- Quake(1).
            Alarm() :- Trig(1).
            @observe Alarm().
        "#,
            SemanticsMode::Grohe,
        )
        .unwrap();
        let quake = session.program().catalog.require("Quake").unwrap();
        let p = session
            .eval()
            .marginal(&Fact::new(quake, tuple![1i64]))
            .unwrap();
        assert!((p - 1.0).abs() < 1e-12, "@observe applies without given()");
    }

    #[test]
    fn soft_conditioning_is_bayes_rule() {
        // Two-component model: Mu ∈ {0, 4} uniformly; observe a Normal
        // reading of 4.0 with unit variance. Exact conditioning multiplies
        // each world by the Gaussian likelihood and renormalizes.
        let session = Session::from_source(
            "Mu(Categorical<0.0, 1.0, 4.0, 1.0>) :- true.",
            SemanticsMode::Grohe,
        )
        .unwrap();
        let mu = session.program().catalog.require("Mu").unwrap();
        let posterior = session
            .eval()
            .given("Normal<M, 1.0> == 4.0 :- Mu(M).")
            .marginal(&Fact::new(mu, tuple![4.0]))
            .unwrap();
        // Bayes: L(4|4)=φ(0), L(4|0)=φ(4); posterior = φ(0)/(φ(0)+φ(4)).
        let phi = |z: f64| (-0.5 * z * z).exp();
        let expect = phi(0.0) / (phi(0.0) + phi(4.0));
        assert!(
            (posterior - expect).abs() < 1e-12,
            "{posterior} vs {expect}"
        );
    }

    #[test]
    fn zero_evidence_is_an_error_not_a_nan() {
        let session = Session::from_source("R(Flip<1.0>) :- true.", SemanticsMode::Grohe).unwrap();
        let r = session.program().catalog.require("R").unwrap();
        let err = session
            .eval()
            .given("R(0).")
            .marginal(&Fact::new(r, tuple![0i64]))
            .unwrap_err();
        assert!(matches!(err, EngineError::ZeroEvidence));
        // expectation() reports it the same way — Ok(None) would be
        // indistinguishable from a legitimately empty query result.
        let err = session
            .eval()
            .given("R(0).")
            .expectation(&Query::Rel(r), AggFun::Count)
            .unwrap_err();
        assert!(matches!(err, EngineError::ZeroEvidence));
    }

    #[test]
    fn unconditioned_evidence_reports_all_deficit_mass_without_erroring() {
        // Every run exhausts the budget: the observed world mass is 0, but
        // no evidence was given, so this is a report — not ZeroEvidence.
        let session =
            Session::from_source("C(0.0). C(Normal<V, 1.0>) :- C(V).", SemanticsMode::Grohe)
                .unwrap();
        let ev = session
            .eval()
            .sample(20)
            .max_depth(10)
            .seed(1)
            .evidence()
            .unwrap();
        assert_eq!(ev.mass, 0.0);
        assert_eq!(ev.worlds, 0);
    }

    #[test]
    fn conditioned_pdb_transform_and_trace_are_rejected() {
        let session = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
        let err = session.eval().sample(10).given("R(1).").pdb().unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
        let err = session
            .eval()
            .given("R(1).")
            .transform(&PossibleWorlds::dirac(Instance::new()))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
        // trace() cannot honor evidence — rejecting beats silently
        // tracing the prior as if it were a posterior-consistent run.
        let err = session.eval().given("R(1).").trace().unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
        // Malformed evidence text surfaces as its own error first.
        let err = session.eval().given("R(1").trace().unwrap_err();
        assert!(matches!(err, EngineError::Lang(_)));
        // Program-level @observe clauses do not block the debug terminal.
        let observed =
            Session::from_source("R(Flip<0.5>) :- true. @observe R(1).", SemanticsMode::Grohe)
                .unwrap();
        assert!(observed.eval().trace().is_ok());
    }

    #[test]
    fn empty_evidence_text_is_a_no_op_not_a_condition() {
        // given("") compiles to zero observations: the evaluation must
        // behave exactly like the unconditioned one — same budget-deficit
        // handling, and no terminal rejections.
        let session =
            Session::from_source("G(0). G(Geometric<0.5 | X>) :- G(X).", SemanticsMode::Grohe)
                .unwrap();
        let g = session.program().catalog.require("G").unwrap();
        let fact = Fact::new(g, tuple![0i64]);
        let base = session
            .eval()
            .sample(200)
            .seed(4)
            .max_depth(5)
            .marginal(&fact)
            .unwrap();
        for noop in ["", "   ", "% just a comment"] {
            let same = session
                .eval()
                .sample(200)
                .seed(4)
                .max_depth(5)
                .given(noop)
                .marginal(&fact)
                .unwrap();
            assert_eq!(base.to_bits(), same.to_bits(), "{noop:?}");
            assert!(session.eval().given(noop).trace().is_ok());
            assert!(session.eval().sample(10).given(noop).pdb().is_ok());
        }
    }

    #[test]
    fn invalid_evidence_text_surfaces_at_the_terminal() {
        let session = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
        let r = session.program().catalog.require("R").unwrap();
        let fact = Fact::new(r, tuple![1i64]);
        for bad in ["NoSuchRel(1).", "Zorp<0.5> == 1.", "R(X).", "R(1"] {
            let err = session.eval().given(bad).marginal(&fact);
            assert!(err.is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn mc_likelihood_weighting_matches_exact_posterior() {
        let session = Session::from_source(
            r#"
            Quake(Flip<0.2>) :- true.
            Trig(Flip<0.7>) :- Quake(1).
            Trig(Flip<0.1>) :- Quake(0).
            Alarm() :- Trig(1).
        "#,
            SemanticsMode::Grohe,
        )
        .unwrap();
        let quake = session.program().catalog.require("Quake").unwrap();
        let fact = Fact::new(quake, tuple![1i64]);
        let exact = session
            .eval()
            .exact()
            .given("Alarm().")
            .marginal(&fact)
            .unwrap();
        // Bayes: 0.2·0.7 / (0.2·0.7 + 0.8·0.1) = 0.636…
        assert!((exact - 0.14 / 0.22).abs() < 1e-12);
        let mc = session
            .eval()
            .sample(40_000)
            .seed(11)
            .given("Alarm().")
            .marginal(&fact)
            .unwrap();
        assert!((mc - exact).abs() < 0.02, "mc = {mc}, exact = {exact}");
        // Deterministic: repeat bit-identical; thread-count invariant to fp
        // re-association.
        let mc2 = session
            .eval()
            .sample(40_000)
            .seed(11)
            .given("Alarm().")
            .marginal(&fact)
            .unwrap();
        assert_eq!(mc.to_bits(), mc2.to_bits());
        let mc4 = session
            .eval()
            .sample(40_000)
            .seed(11)
            .threads(4)
            .given("Alarm().")
            .marginal(&fact)
            .unwrap();
        assert!((mc4 - mc).abs() < 1e-12);
    }

    #[test]
    fn pdb_rejects_exact_backend() {
        let session = Session::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
        let err = session.eval().exact().pdb().unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
    }

    #[test]
    fn auto_backend_picks_mc_for_continuous() {
        let session =
            Session::from_source("H(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe).unwrap();
        let h = session.program().catalog.require("H").unwrap();
        // marginal on a continuous program auto-routes to Monte-Carlo
        // rather than failing with NotDiscrete.
        let ms = session.eval().sample(200).seed(1).marginals(h).unwrap();
        assert_eq!(ms.len(), 200, "a.s. distinct continuous samples");
        // worlds() keeps the exact backend and reports the obstruction.
        assert!(matches!(
            session.eval().worlds().unwrap_err(),
            EngineError::NotDiscrete(_)
        ));
    }

    /// A NaN target used to run to the 1 << 20 run cap and a target below
    /// 1 to stop after the first batch; both are the wire's rejection now.
    #[test]
    fn out_of_range_ess_targets_are_invalid_requests() {
        let session = Session::from_source(
            "R(Flip<0.5>) :- true. S(Flip<0.5>) :- true.",
            SemanticsMode::Grohe,
        )
        .unwrap();
        for target in [f64::NAN, 0.5] {
            let eval = session.eval().sample_until(EssTarget::new(target));
            match eval.evidence().unwrap_err() {
                EngineError::InvalidRequest(reason) => assert_eq!(
                    reason,
                    format!(
                        "`infer.target` must be a finite effective sample size ≥ 1, got {target}"
                    )
                ),
                other => panic!("{target}: {other:?}"),
            }
        }
    }
}
