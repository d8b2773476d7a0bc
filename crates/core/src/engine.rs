//! The user-facing engine: parse → validate → translate → evaluate.
//!
//! Evaluation goes through the builder-style [`Evaluation`] surface
//! ([`Engine::eval`] / [`Engine::eval_on`], or a [`Session`] for a
//! persistent extensional database). The pre-session method-per-strategy
//! entry points (`enumerate`, `sample`, …) were deprecated in 0.1.0 and
//! removed in 0.2.0; `docs/API.md` keeps the migration table.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

use gdatalog_data::{DataError, Instance};
use gdatalog_dist::{DistError, Registry};
use gdatalog_lang::{
    parse_program, translate, validate, CompiledProgram, LangError, Program, SemanticsMode,
};

use crate::applicability::PreparedProgram;
use crate::mc_batch::MemoStats;
use crate::session::Evaluation;
#[cfg(doc)]
use crate::session::Session;

/// Errors from engine construction or evaluation.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// Language front-end error (syntax, validation, translation).
    Lang(LangError),
    /// Runtime distribution error (invalid parameters flowing from data).
    Dist(DistError),
    /// Data-model error.
    Data(DataError),
    /// Exact enumeration requested for a program using this continuous
    /// distribution.
    NotDiscrete(String),
    /// An evaluation request that contradicts the selected backend (e.g.
    /// materializing Monte-Carlo samples from an exact enumeration).
    InvalidRequest(String),
    /// Conditioning left no probability mass: every enumerated world (or
    /// every Monte-Carlo run) was rejected by the evidence, so the
    /// conditional distribution is undefined.
    ZeroEvidence,
    /// A cooperative deadline elapsed before evaluation finished. The
    /// chase loops check the deadline between enumeration nodes and
    /// between Monte-Carlo runs, so cancellation lands within one bounded
    /// unit of work of the deadline.
    DeadlineExceeded,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lang(e) => write!(f, "language error: {e}"),
            EngineError::Dist(e) => write!(f, "distribution error: {e}"),
            EngineError::Data(e) => write!(f, "data error: {e}"),
            EngineError::NotDiscrete(d) => write!(
                f,
                "exact enumeration requires discrete distributions, found `{d}` \
                 (use Monte-Carlo sampling instead)"
            ),
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            EngineError::ZeroEvidence => write!(
                f,
                "conditioning rejected all probability mass (the evidence has \
                 probability ≈ 0 under this program — for Monte-Carlo, consider \
                 more runs or soft observations)"
            ),
            EngineError::DeadlineExceeded => write!(
                f,
                "evaluation deadline exceeded (the request was cancelled \
                 cooperatively before the chase finished)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LangError> for EngineError {
    fn from(e: LangError) -> Self {
        EngineError::Lang(e)
    }
}
impl From<DistError> for EngineError {
    fn from(e: DistError) -> Self {
        EngineError::Dist(e)
    }
}
impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}

/// A compiled, ready-to-run GDatalog program.
///
/// The compiled program and its chase plans live behind [`Arc`]s, so
/// cloning an `Engine` is cheap and every clone shares the same
/// allocations — that is what lets a session pool hold many warm
/// [`Session`]s over one compiled model.
///
/// ```
/// use gdatalog_core::Engine;
/// use gdatalog_lang::SemanticsMode;
///
/// let engine = Engine::from_source(
///     "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
///     SemanticsMode::Grohe,
/// ).unwrap();
/// let worlds = engine.eval().worlds().unwrap();
/// // Example 1.1 of the paper: three worlds, probabilities 1/4, 1/4, 1/2.
/// assert_eq!(worlds.len(), 3);
///
/// // Clones share the compiled program (pointer-identical).
/// let clone = engine.clone();
/// assert!(std::sync::Arc::ptr_eq(engine.program_shared(), clone.program_shared()));
/// ```
#[derive(Clone)]
pub struct Engine {
    program: Arc<CompiledProgram>,
    /// The chase plans (body plans + interned index specs), built on first
    /// use. The cell itself is shared, so whichever clone plans first
    /// plans for all of them — a pooled session never re-plans,
    /// regardless of whether cloning happened before or after the first
    /// evaluation.
    prepared: Arc<OnceLock<Arc<PreparedProgram>>>,
}

impl Engine {
    /// Compiles program text under the given semantics, with the standard
    /// distribution family.
    ///
    /// # Errors
    /// Syntax/validation/translation errors.
    pub fn from_source(src: &str, mode: SemanticsMode) -> Result<Engine, EngineError> {
        Engine::from_source_with_registry(src, mode, Arc::new(Registry::standard()))
    }

    /// Compiles program text against a custom distribution family Ψ.
    ///
    /// # Errors
    /// Syntax/validation/translation errors.
    pub fn from_source_with_registry(
        src: &str,
        mode: SemanticsMode,
        registry: Arc<Registry>,
    ) -> Result<Engine, EngineError> {
        let ast = parse_program(src)?;
        Engine::from_ast(ast, mode, registry)
    }

    /// Compiles an already-parsed AST.
    ///
    /// # Errors
    /// Validation/translation errors.
    pub fn from_ast(
        ast: Program,
        mode: SemanticsMode,
        registry: Arc<Registry>,
    ) -> Result<Engine, EngineError> {
        let validated = validate(ast, registry)?;
        let program = translate(&validated, mode)?;
        Ok(Engine::from_compiled(Arc::new(program)))
    }

    /// Wraps an already-compiled (possibly shared) program.
    pub fn from_compiled(program: Arc<CompiledProgram>) -> Engine {
        Engine {
            program,
            prepared: Arc::new(OnceLock::new()),
        }
    }

    /// The compiled program (catalog, rules, analyses).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The compiled program behind its shared handle (cheap to clone;
    /// pointer-identity is the cache-hit witness of the serving layer).
    pub fn program_shared(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// The chase plans of the program — body plans and the unified index
    /// spec table — built on first use and shared by every clone of this
    /// engine. Backends receive it through the evaluation surface, so a
    /// cached program plans **once** across any number of requests.
    pub fn prepared(&self) -> &Arc<PreparedProgram> {
        self.prepared
            .get_or_init(|| Arc::new(PreparedProgram::new(&self.program)))
    }

    /// The counters of the chase-tree memos this engine's evaluations
    /// share: every clone of the engine and every [`Session`] over it
    /// reuses the chase work of Monte-Carlo and MH evaluations on the
    /// same input, evidence and options. All zero until the plans are
    /// built.
    ///
    /// ```
    /// use gdatalog_core::Engine;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let engine = Engine::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
    /// for _ in 0..3 {
    ///     engine.eval().sample(256).seed(1).pdb().unwrap();
    /// }
    /// // The second sighting of the tree keeps its memo; the third finds it.
    /// let stats = engine.memo_stats();
    /// assert_eq!((stats.hits, stats.misses), (1, 2));
    /// assert!(stats.cells > 0);
    /// ```
    pub fn memo_stats(&self) -> MemoStats {
        self.prepared
            .get()
            .map_or_else(MemoStats::default, |prepared| prepared.memos().stats())
    }

    /// Merges the program's own ground facts with extra input facts,
    /// borrowing when there is nothing to merge.
    fn full_input(&self, extra: Option<&Instance>) -> Cow<'_, Instance> {
        match extra {
            None => Cow::Borrowed(&self.program.initial_instance),
            Some(d) if d.is_empty() => Cow::Borrowed(&self.program.initial_instance),
            Some(d) => Cow::Owned(self.program.initial_instance.union(d)),
        }
    }

    /// Starts a builder-style [`Evaluation`] over the program's own ground
    /// facts. For a persistent, incrementally extendable fact store, use a
    /// [`Session`].
    ///
    /// ```
    /// use gdatalog_core::Engine;
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let engine = Engine::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
    /// let worlds = engine.eval().exact().worlds().unwrap();
    /// assert_eq!(worlds.len(), 2);
    /// ```
    pub fn eval(&self) -> Evaluation<'_> {
        Evaluation::new(&self.program, Cow::Borrowed(&self.program.initial_instance))
            .shared_plans(Arc::clone(self.prepared()))
    }

    /// Starts an [`Evaluation`] over the program's ground facts unioned
    /// with `extra` input facts (borrowing when `extra` is `None`).
    ///
    /// ```
    /// use gdatalog_core::Engine;
    /// use gdatalog_data::{tuple, Instance};
    /// use gdatalog_lang::SemanticsMode;
    ///
    /// let engine = Engine::from_source(
    ///     "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
    ///     SemanticsMode::Grohe,
    /// ).unwrap();
    /// let city = engine.program().catalog.require("City").unwrap();
    /// let mut extra = Instance::new();
    /// extra.insert(city, tuple!["gotham"]);
    /// let worlds = engine.eval_on(Some(&extra)).worlds().unwrap();
    /// assert_eq!(worlds.len(), 2);
    /// ```
    pub fn eval_on<'a>(&'a self, extra: Option<&Instance>) -> Evaluation<'a> {
        Evaluation::new(&self.program, self.full_input(extra))
            .shared_plans(Arc::clone(self.prepared()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_data::{tuple, Fact};
    use gdatalog_pdb::PossibleWorlds;

    #[test]
    fn facade_round_trip() {
        let engine = Engine::from_source("R(Flip<0.25>) :- true.", SemanticsMode::Grohe).unwrap();
        let worlds = engine.eval().worlds().unwrap();
        assert_eq!(worlds.len(), 2);
        let r = engine.program().catalog.require("R").unwrap();
        let p = worlds.marginal(&Fact::new(r, tuple![1i64]));
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probabilistic_input_mixture() {
        // Input: City present with prob 0.5 (a simple tuple-independent
        // PDB); the output alarm probability is the mixture.
        let engine = Engine::from_source(
            r#"
            rel City(symbol) input.
            Quake(C, Flip<0.4>) :- City(C).
        "#,
            SemanticsMode::Grohe,
        )
        .unwrap();
        let city = engine.program().catalog.require("City").unwrap();
        let quake = engine.program().catalog.require("Quake").unwrap();
        let mut with_city = Instance::new();
        with_city.insert(city, tuple!["gotham"]);
        let mut input = PossibleWorlds::new();
        input.add(with_city, 0.5);
        input.add(Instance::new(), 0.5);
        let out = engine.eval().transform(&input).unwrap();
        assert!(out.mass_is_consistent(1e-12));
        let p = out.marginal(&Fact::new(quake, tuple!["gotham", 1i64]));
        assert!((p - 0.5 * 0.4).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn run_once_produces_trace() {
        let engine =
            Engine::from_source("R(Flip<0.5>) :- true. S(X) :- R(X).", SemanticsMode::Grohe)
                .unwrap();
        let run = engine.eval().seed(11).max_depth(100).trace().unwrap();
        assert_eq!(run.trace.len(), run.steps);
        assert!(run.steps >= 3, "sample, deliver, copy");
    }

    #[test]
    fn clones_share_plans_even_when_cloned_before_planning() {
        let engine = Engine::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).unwrap();
        let clone = engine.clone();
        // Neither has planned yet; whichever plans first plans for both.
        assert!(Arc::ptr_eq(engine.prepared(), clone.prepared()));
        assert!(Arc::ptr_eq(clone.prepared(), engine.clone().prepared()));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(Engine::from_source("R(X :-", SemanticsMode::Grohe).is_err());
        assert!(Engine::from_source("R(Zorp<1.0>) :- true.", SemanticsMode::Grohe).is_err());
    }
}
