//! Parallel chase steps and runs (Defs. 5.1/5.2 of the paper): in each
//! round, **all** applicable pairs fire simultaneously, their distributions
//! sampled independently (the product measure of Def. 5.1). A round is one
//! step of the chase stepper (`sequential::Chase`) under
//! [`ChaseVariant::Parallel`].
//!
//! One subtlety beyond the paper: under the Bárány-style translation, two
//! distinct applicable pairs can demand the *same experiment* (same shared
//! auxiliary relation and key). Firing both independently would violate the
//! induced FD. We therefore group applicable existential pairs by
//! `(aux relation, key)` and sample once per group — which is exactly the
//! semantics of "one experiment per (distribution, parameters)". Under the
//! paper's own (Grohe) translation every pair has a distinct key, so the
//! grouping is a no-op and the step is precisely Def. 5.1.

use std::collections::HashSet;

use gdatalog_data::{Instance, RelId, Tuple, Value};
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, CompiledRule, RuleKind};
use rand::Rng;

use crate::applicability::{eval_terms, PreparedProgram};
use crate::mc::ChaseVariant;
use crate::policy::ChasePolicy;
use crate::sequential::{Chase, ChaseRun};

/// Whether `rule` fires under `valuation` in a parallel round that has
/// sampled the experiments in `sampled` so far. A deterministic pair always
/// fires. An existential pair fires only when its `(aux relation, key)`
/// experiment is new this round, and then records it (see module docs).
pub(crate) fn fires_in_round(
    sampled: &mut HashSet<(RelId, Vec<Value>)>,
    rule: &CompiledRule,
    valuation: &Tuple,
) -> bool {
    match &rule.kind {
        RuleKind::Deterministic { .. } => true,
        RuleKind::Existential(e) => {
            sampled.insert((e.aux_rel, eval_terms(&e.key_terms, valuation)))
        }
    }
}

/// Runs the parallel chase on a pre-planned program until no rule is
/// applicable or `max_rounds` parallel steps have been performed, with one
/// incrementally maintained index and one cached `App(D)`
/// ([`crate::ChaseState`]) following the instance round over round.
/// `App(D)` is tested before the round budget, as in the sequential chase
/// and exact enumeration: a run that becomes absorbing after exactly
/// `max_rounds` rounds terminates.
///
/// # Errors
/// Propagates runtime distribution-parameter failures.
pub fn run_parallel_prepared(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    rng: &mut dyn Rng,
    max_rounds: usize,
    record_trace: bool,
) -> Result<ChaseRun, DistError> {
    let (variant, policy) = (ChaseVariant::Parallel, ChasePolicy::Canonical);
    let chase = Chase::new(prepared, program, input.clone(), variant, policy);
    chase.run(program, prepared, rng, max_rounds, record_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ParallelKernel, StepKernel};
    use crate::sequential::RunOutcome;
    use gdatalog_data::tuple;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn compile(src: &str, mode: SemanticsMode) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, mode).unwrap()
    }

    fn run_parallel(program: &CompiledProgram, seed: u64) -> ChaseRun {
        let prepared = PreparedProgram::new(program);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = &program.initial_instance;
        run_parallel_prepared(program, &prepared, input, &mut rng, 100, false).unwrap()
    }

    #[test]
    fn parallel_rounds_fire_everything_at_once() {
        let prog = compile(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            City(metropolis, 0.2).
            Earthquake(C, Flip<0.1>) :- City(C, R).
        "#,
            SemanticsMode::Grohe,
        );
        let mut kernel = ParallelKernel::new(&prog);
        let mut rng = StdRng::seed_from_u64(1);
        let d0 = &prog.initial_instance;
        let d1 = kernel.sample_step(d0, &mut rng).unwrap().unwrap();
        assert_eq!(d1.len(), d0.len() + 2, "both cities sampled in one round");
        // Second round: two delivery rules.
        let d2 = kernel.sample_step(&d1, &mut rng).unwrap().unwrap();
        assert_eq!(d2.len(), d1.len() + 2);
        // Third round: nothing.
        assert!(kernel.sample_step(&d2, &mut rng).unwrap().is_none());
    }

    #[test]
    fn run_parallel_terminates_and_satisfies_fds() {
        let prog = compile(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            Earthquake(C, Flip<0.1>) :- City(C, R).
            Trig(X, Flip<0.6>) :- Earthquake(X, 1).
        "#,
            SemanticsMode::Grohe,
        );
        for seed in 0..20 {
            let run = run_parallel(&prog, seed);
            assert_eq!(run.outcome, RunOutcome::Terminated);
            for fd in &prog.fds {
                assert!(fd.check(&run.instance).is_ok(), "seed {seed}");
            }
        }
    }

    #[test]
    fn barany_shared_experiments_sampled_once_per_round() {
        // Two rules demanding the same (Flip, 0.5) experiment; the parallel
        // step must sample it once, so R and S always coincide.
        let prog = compile(
            "R(Flip<0.5>) :- true. S(Flip<0.5>) :- true.",
            SemanticsMode::Barany,
        );
        let r = prog.catalog.require("R").unwrap();
        let s = prog.catalog.require("S").unwrap();
        for seed in 0..30 {
            let run = run_parallel(&prog, seed);
            assert_eq!(run.outcome, RunOutcome::Terminated);
            let rv: Vec<_> = run.instance.relation(r).iter().cloned().collect();
            let sv: Vec<_> = run.instance.relation(s).iter().cloned().collect();
            assert_eq!(rv.len(), 1);
            assert_eq!(sv.len(), 1);
            assert_eq!(rv[0], sv[0], "Bárány semantics correlates R and S");
            for fd in &prog.fds {
                assert!(fd.check(&run.instance).is_ok());
            }
        }
    }

    #[test]
    fn grohe_two_rules_stay_independent() {
        let prog = compile(
            "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
            SemanticsMode::Grohe,
        );
        let r = prog.catalog.require("R").unwrap();
        let mut both_seen = false;
        for seed in 0..50 {
            let run = run_parallel(&prog, seed);
            if run.instance.contains(r, &tuple![0i64]) && run.instance.contains(r, &tuple![1i64]) {
                both_seen = true;
            }
        }
        assert!(both_seen, "independent flips must sometimes disagree");
    }
}
