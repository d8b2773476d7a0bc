//! Sequential chase steps and runs (Def. 4.1 / Def. 4.2 of the paper),
//! and the one chase stepper every stepping loop goes through.
//!
//! A run starts at `D₀`, repeatedly computes `App(D)`, lets the chase
//! policy (a measurable selection) pick one applicable pair, and fires it:
//! deterministic rules insert their head fact, existential rules sample
//! their distributions and insert the auxiliary experiment fact. A run that
//! reaches `App(D) = {(□,□)}` (no applicable pair) has *terminated* and
//! `lim-inst` maps it to its final instance; a run still alive at the step
//! budget corresponds to the error event `err` of §4.2.
//!
//! The sequential, parallel ([`crate::parallel`]) and saturating
//! ([`crate::saturate`]) chases differ only in which pairs fire at a step
//! and how fired facts count, so one `Chase` steps them all: it tests
//! `App(D) = ∅` before the budget, selects the pairs that fire (the
//! selection exact enumeration branches over, `exact::Branching`), and
//! inserts and counts fired facts. Each driver fires the selected pairs
//! with its own draws: the scalar loop behind the three `run_*_prepared`
//! entry points with one RNG, the kernels' sampling view
//! ([`crate::kernel`]) through that loop, the Monte-Carlo lane groups
//! (`mc_batch`) with one RNG per lane, and the Metropolis-Hastings chain
//! ([`crate::mcmc`]) by replaying recorded draws.

use std::borrow::BorrowMut;

use gdatalog_data::{Fact, Instance, Tuple, Value};
use gdatalog_datalog::Delta;
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, CompiledRule, RuleKind};
use rand::Rng;

use crate::applicability::{eval_terms, head_fact, AppPair, ChaseState, PreparedProgram};
use crate::exact::Branching;
use crate::mc::ChaseVariant;
use crate::policy::{ChasePolicy, PolicyKind};

/// One recorded chase step (the path of the Markov process, §4.2).
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Which rule fired.
    pub rule: usize,
    /// The valuation `ā`.
    pub valuation: Tuple,
    /// Values sampled by this step (empty for deterministic rules).
    pub sampled: Vec<Value>,
    /// Log-density of the sampled values under their distributions
    /// (0 for deterministic steps).
    pub log_density: f64,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// `App(D)` became empty: the path is finite and maximal, and
    /// `lim-inst` maps it to the final instance.
    Terminated,
    /// The step budget was exhausted: operationally the paper's error
    /// event `err` (the run may be non-terminating).
    BudgetExhausted,
}

/// A completed chase run.
#[derive(Debug, Clone)]
pub struct ChaseRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The final (or last reached) instance, including auxiliary relations.
    pub instance: Instance,
    /// Number of chase steps performed.
    pub steps: usize,
    /// Total log-density of all sampled values along the path.
    pub log_weight: f64,
    /// Per-step trace (empty unless requested).
    pub trace: Vec<TraceStep>,
}

/// The result of firing one rule: the new fact plus sampling bookkeeping.
pub(crate) struct Fired {
    pub fact: Fact,
    pub sampled: Vec<Value>,
    pub log_density: f64,
}

/// Fires `rule` under `valuation`, sampling existential outcomes from
/// `rng`. Does not insert the fact (callers differ in how they apply it).
pub(crate) fn fire(
    rule: &CompiledRule,
    valuation: &Tuple,
    rng: &mut dyn Rng,
) -> Result<Fired, DistError> {
    match &rule.kind {
        RuleKind::Deterministic { head } => Ok(Fired {
            fact: head_fact(head, valuation),
            sampled: Vec::new(),
            log_density: 0.0,
        }),
        RuleKind::Existential(e) => {
            let mut values = eval_terms(&e.key_terms, valuation);
            let mut sampled = Vec::with_capacity(e.samples.len());
            let mut log_density = 0.0;
            for spec in &e.samples {
                let params = eval_terms(&spec.param_terms, valuation);
                let outcome = spec.dist.sample(&params, rng)?;
                log_density += spec.dist.log_density(&params, &outcome)?;
                sampled.push(outcome.clone());
                values.push(outcome);
            }
            Ok(Fired {
                fact: Fact::new(e.aux_rel, Tuple::from(values)),
                sampled,
                log_density,
            })
        }
    }
}

/// The variant of a sequential chase whose policy is given as such: the
/// stepper reads the variant's shape, never its policy kind.
pub(crate) const SEQUENTIAL: ChaseVariant = ChaseVariant::Sequential(PolicyKind::Canonical);

/// One chase in progress: its [`ChaseState`], the policy selecting a
/// sequential step's pair (owned, or borrowed from a caller that keeps
/// its state across runs), the variant deciding which pairs fire and how
/// fired facts count, and the steps spent. Cloning it forks the chase: a
/// lane-group split, or a Metropolis-Hastings proposal from the chain's
/// snapshot.
#[derive(Clone)]
pub(crate) struct Chase<P = ChasePolicy> {
    pub(crate) state: ChaseState,
    pub(crate) policy: P,
    variant: ChaseVariant,
    /// Fired facts (sequential), rounds (parallel), or fired and derived
    /// facts (saturating).
    pub(crate) steps: usize,
}

impl<P: BorrowMut<ChasePolicy>> Chase<P> {
    /// The chase of `variant` at `input`. Only a sequential chase reads
    /// `policy` (its kind is `policy`'s, whatever `variant` names; see
    /// [`SEQUENTIAL`]). The
    /// saturating chase fires the first applicable pair of the
    /// existential rules, and starts from the deterministic fixpoint of
    /// `input`, whose derived facts count as steps.
    pub(crate) fn new(
        prepared: &PreparedProgram,
        program: &CompiledProgram,
        input: Instance,
        variant: ChaseVariant,
        policy: P,
    ) -> Self {
        let (state, steps) = if variant == ChaseVariant::Saturating {
            let mut state = ChaseState::existential(prepared, program, input);
            let derived = state.saturate(prepared, None);
            (state, derived)
        } else {
            (ChaseState::new(prepared, program, input), 0)
        };
        Chase {
            state,
            policy,
            variant,
            steps,
        }
    }

    /// Moves to the next step. Returns how the chase ends here —
    /// `App(D) = ∅` is tested before the budget, so a chase absorbing
    /// after exactly `max_steps` steps terminates — or else fills `fires`
    /// with the pairs to fire, in firing order (a parallel round counts
    /// its step here).
    pub(crate) fn next(
        &mut self,
        prepared: &PreparedProgram,
        program: &CompiledProgram,
        max_steps: usize,
        fires: &mut Vec<AppPair>,
    ) -> Option<RunOutcome> {
        let app = self.state.app(prepared, program);
        if app.is_empty() {
            return Some(RunOutcome::Terminated);
        }
        if self.steps >= max_steps {
            return Some(RunOutcome::BudgetExhausted);
        }
        fires.clear();
        let mut first = ChasePolicy::Canonical;
        let mut branching = match self.variant {
            ChaseVariant::Sequential(_) => Branching::Sequential(self.policy.borrow_mut()),
            ChaseVariant::Saturating => Branching::Sequential(&mut first),
            ChaseVariant::Parallel => {
                self.steps += 1;
                Branching::Parallel
            }
        };
        branching.select(program, app, |pair| fires.push(pair.clone()));
        None
    }

    /// Inserts a fired fact and counts it: one step per sequential fact;
    /// one per saturating fact plus the facts the deterministic fixpoint
    /// then derives from it; none for a fact of a parallel round.
    pub(crate) fn insert(&mut self, prepared: &PreparedProgram, fact: Fact) {
        let Fact { rel, tuple } = fact;
        match self.variant {
            ChaseVariant::Sequential(_) => {
                self.steps += 1;
                self.state.insert(prepared, rel, tuple);
            }
            ChaseVariant::Saturating => {
                self.steps += 1;
                if self.state.insert(prepared, rel, tuple.clone()) {
                    // Continue the deterministic fixpoint from the new fact.
                    self.steps += self
                        .state
                        .saturate(prepared, Some(Delta::single(rel, tuple)));
                }
            }
            ChaseVariant::Parallel => {
                self.state.insert(prepared, rel, tuple);
            }
        }
    }

    /// The scalar chase loop: steps the chase to its end, firing every
    /// selected pair with draws from `rng`, and records the trace when
    /// `record_trace` is set.
    ///
    /// # Errors
    /// Runtime distribution failures.
    pub(crate) fn run(
        mut self,
        program: &CompiledProgram,
        prepared: &PreparedProgram,
        rng: &mut dyn Rng,
        max_steps: usize,
        record_trace: bool,
    ) -> Result<ChaseRun, DistError> {
        let mut log_weight = 0.0;
        let mut trace = Vec::new();
        let mut fires = Vec::new();
        let outcome = loop {
            if let Some(outcome) = self.next(prepared, program, max_steps, &mut fires) {
                break outcome;
            }
            for AppPair { rule, valuation } in fires.drain(..) {
                let fired = fire(&program.rules[rule], &valuation, rng)?;
                self.insert(prepared, fired.fact);
                log_weight += fired.log_density;
                if record_trace {
                    trace.push(TraceStep {
                        rule,
                        valuation,
                        sampled: fired.sampled,
                        log_density: fired.log_density,
                    });
                }
            }
        };
        Ok(ChaseRun {
            outcome,
            instance: self.state.into_instance(),
            steps: self.steps,
            log_weight,
            trace,
        })
    }
}

/// Runs the sequential chase from `input` (which must already include the
/// program's initial facts if desired) until termination or `max_steps`.
///
/// # Errors
/// Returns a [`DistError`] if a sampled rule receives invalid parameters
/// at runtime (e.g. a negative variance flowing in from data).
pub fn run_sequential(
    program: &CompiledProgram,
    input: &Instance,
    policy: &mut ChasePolicy,
    rng: &mut dyn Rng,
    max_steps: usize,
    record_trace: bool,
) -> Result<ChaseRun, DistError> {
    let prepared = PreparedProgram::new(program);
    run_sequential_prepared(
        program,
        &prepared,
        input,
        policy,
        rng,
        max_steps,
        record_trace,
    )
}

/// [`run_sequential`] on a pre-planned program: rule bodies are planned
/// once, and one incrementally maintained index and one cached `App(D)`
/// ([`ChaseState`]) follow the instance across steps, so a chase step
/// re-enumerates only the rules its fact can affect.
///
/// # Errors
/// Same as [`run_sequential`].
pub fn run_sequential_prepared(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    policy: &mut ChasePolicy,
    rng: &mut dyn Rng,
    max_steps: usize,
    record_trace: bool,
) -> Result<ChaseRun, DistError> {
    let chase = Chase::new(prepared, program, input.clone(), SEQUENTIAL, policy);
    chase.run(program, prepared, rng, max_steps, record_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_data::tuple;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    fn run(prog: &CompiledProgram, seed: u64, max_steps: usize) -> ChaseRun {
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let mut rng = StdRng::seed_from_u64(seed);
        run_sequential(
            prog,
            &prog.initial_instance,
            &mut policy,
            &mut rng,
            max_steps,
            true,
        )
        .unwrap()
    }

    #[test]
    fn single_flip_terminates_in_two_steps() {
        let prog = compile("R(Flip<0.5>) :- true.");
        let run = run(&prog, 1, 100);
        assert_eq!(run.outcome, RunOutcome::Terminated);
        assert_eq!(run.steps, 2, "existential then delivery");
        let r = prog.catalog.require("R").unwrap();
        assert_eq!(run.instance.relation_len(r), 1);
        // The sampled value is 0 or 1 and log-density = ln(0.5).
        assert!((run.log_weight - 0.5f64.ln()).abs() < 1e-12);
        assert_eq!(run.trace.len(), 2);
        assert_eq!(run.trace[0].sampled.len(), 1);
    }

    #[test]
    fn deterministic_program_reaches_datalog_fixpoint() {
        let prog = compile(
            r#"
            E(1, 2). E(2, 3). E(3, 4).
            T(X, Y) :- E(X, Y).
            T(X, Z) :- T(X, Y), E(Y, Z).
        "#,
        );
        let run = run(&prog, 2, 1000);
        assert_eq!(run.outcome, RunOutcome::Terminated);
        let t = prog.catalog.require("T").unwrap();
        assert_eq!(run.instance.relation_len(t), 6);
        assert!(run.instance.contains(t, &tuple![1i64, 4i64]));
        assert_eq!(run.log_weight, 0.0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // The continuous chain is a.s. non-terminating (§6.3): every sample
        // is fresh, so the rule is applicable forever.
        let prog = compile(
            r#"
            C(0.0).
            C(Normal<V, 1.0>) :- C(V).
        "#,
        );
        let run = run(&prog, 3, 50);
        assert_eq!(run.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(run.steps, 50);
    }

    #[test]
    fn fd_invariant_holds_along_runs() {
        // Lemma 3.10: every reachable instance satisfies the induced FDs.
        let prog = compile(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            City(metropolis, 0.2).
            Earthquake(C, Flip<0.1>) :- City(C, R).
            Trig(X, Flip<0.6>) :- Earthquake(X, 1).
        "#,
        );
        for seed in 0..20 {
            let run = run(&prog, seed, 1000);
            assert_eq!(run.outcome, RunOutcome::Terminated);
            for fd in &prog.fds {
                assert!(fd.check(&run.instance).is_ok(), "seed {seed}");
            }
        }
    }

    #[test]
    fn different_policies_still_terminate_with_same_output_schema_facts() {
        let prog = compile(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            Earthquake(C, Flip<1.0>) :- City(C, R).
            Alarm(C) :- Earthquake(C, 1).
        "#,
        );
        // Flip<1.0> always yields 1, so the final output is deterministic
        // regardless of policy.
        let mut outputs = Vec::new();
        for kind in [
            PolicyKind::Canonical,
            PolicyKind::Reverse,
            PolicyKind::RoundRobin,
            PolicyKind::Random { seed: 5 },
            PolicyKind::DeterministicFirst,
        ] {
            let existential: Vec<usize> = prog
                .rules
                .iter()
                .filter(|r| r.is_existential())
                .map(|r| r.id)
                .collect();
            let mut policy = ChasePolicy::new(kind, &existential);
            let mut rng = StdRng::seed_from_u64(7);
            let run = run_sequential(
                &prog,
                &prog.initial_instance,
                &mut policy,
                &mut rng,
                1000,
                false,
            )
            .unwrap();
            assert_eq!(run.outcome, RunOutcome::Terminated);
            outputs.push(prog.project_output(&run.instance));
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }
}
