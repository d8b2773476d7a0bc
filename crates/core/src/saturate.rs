//! Saturation-accelerated sequential chase: between sampling steps, all
//! deterministic rules are driven to fixpoint at once by the semi-naive
//! Datalog substrate, instead of firing one deterministic pair per step.
//!
//! Soundness: this is the [`crate::policy::PolicyKind::DeterministicFirst`]
//! chase with the deterministic prefix fast-forwarded; by Theorem 6.1 the
//! resulting SPDB is independent of the chase order, so the distribution is
//! unchanged. The speedup (deterministic work goes from one
//! `App(D)`-recomputation per fact to one fixpoint per sampling step) is
//! quantified by the `chase` ablation bench.
//!
//! The saturation itself is **incremental**: one index follows the
//! instance across the whole run, and after each sampled fact the
//! deterministic fixpoint *continues* from the delta `{f}` via
//! [`gdatalog_datalog::PlannedProgram::saturate_in_place`] rather than
//! restarting from the whole instance — per sampling step the
//! deterministic work is O(|Δ| + new matches), not O(|D|).
//!
//! A run is the chase stepper (`sequential::Chase`) under
//! [`crate::ChaseVariant::Saturating`]: its root is the deterministic
//! fixpoint of the input, each step fires the first applicable
//! existential pair, and inserting the fired fact continues the fixpoint,
//! counting the derived facts as steps.

use gdatalog_data::Instance;
use gdatalog_datalog::{DatalogProgram, DatalogRule};
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, RuleKind};
use rand::Rng;

use crate::applicability::{AppPair, PreparedProgram};
use crate::mc::ChaseVariant;
use crate::policy::ChasePolicy;
use crate::sequential::{Chase, ChaseRun};

/// The deterministic fragment of a compiled program, as a classical
/// Datalog program (reusable across runs).
pub fn deterministic_fragment(program: &CompiledProgram) -> DatalogProgram {
    let rules = program
        .rules
        .iter()
        .filter_map(|r| match &r.kind {
            RuleKind::Deterministic { head } => Some(
                DatalogRule::new(head.clone(), r.body.clone(), r.n_vars)
                    .expect("compiled rules are safe"),
            ),
            RuleKind::Existential(_) => None,
        })
        .collect();
    DatalogProgram::new(rules)
}

/// Computes the applicable pairs of **existential** rules only (canonical
/// order), assuming the instance is deterministically saturated.
///
/// Diagnostic/compatibility entry point: plans the program and builds a
/// fresh index per call. The chase itself uses
/// [`PreparedProgram::applicable_existential_pairs`] on a maintained index.
pub fn applicable_existential_pairs(
    program: &CompiledProgram,
    instance: &Instance,
) -> Vec<AppPair> {
    let prepared = PreparedProgram::new(program);
    let index = prepared.new_index(instance);
    prepared.applicable_existential_pairs(program, instance, &index)
}

/// Runs the saturation-accelerated sequential chase on a pre-planned
/// program, with one incrementally maintained index shared between the
/// deterministic saturation and the existential applicability probes, and
/// the existential rules' `App(D)` cached across sampling steps
/// ([`crate::ChaseState`]). `max_steps` bounds the total of *sampling*
/// steps plus derived deterministic facts, making budgets comparable with
/// [`crate::sequential::run_sequential`]; it is tested before each
/// sampling step.
///
/// # Errors
/// Runtime distribution failures.
pub fn run_saturating_prepared(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    rng: &mut dyn Rng,
    max_steps: usize,
    record_trace: bool,
) -> Result<ChaseRun, DistError> {
    let (variant, policy) = (ChaseVariant::Saturating, ChasePolicy::Canonical);
    let chase = Chase::new(prepared, program, input.clone(), variant, policy);
    chase.run(program, prepared, rng, max_steps, record_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::RunOutcome;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    fn run_saturating(prog: &CompiledProgram, seed: u64, record_trace: bool) -> ChaseRun {
        let prepared = PreparedProgram::new(prog);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = &prog.initial_instance;
        run_saturating_prepared(prog, &prepared, input, &mut rng, 100_000, record_trace).unwrap()
    }

    const BURGLARY: &str = r#"
        rel City(symbol, real) input.
        rel House(symbol, symbol) input.
        City(gotham, 0.3).
        House(h1, gotham).
        House(h2, gotham).
        Earthquake(C, Flip<0.1>) :- City(C, R).
        Unit(H, C) :- House(H, C).
        Burglary(X, C, Flip<R>) :- Unit(X, C), City(C, R).
        Trig(X, Flip<0.6>) :- Unit(X, C), Earthquake(C, 1).
        Trig(X, Flip<0.9>) :- Burglary(X, C, 1).
        Alarm(X) :- Trig(X, 1).
    "#;

    #[test]
    fn saturating_run_terminates_with_same_schema() {
        let prog = compile(BURGLARY);
        let run = run_saturating(&prog, 9, true);
        assert_eq!(run.outcome, RunOutcome::Terminated);
        for fd in &prog.fds {
            assert!(fd.check(&run.instance).is_ok());
        }
        // Trace only contains sampling steps.
        assert!(run.trace.iter().all(|t| !t.sampled.is_empty()));
    }

    #[test]
    fn saturating_reaches_a_saturated_final_instance() {
        // On the final instance no rule at all is applicable — the
        // incremental continuation must not leave deterministic rules
        // unfired.
        let prog = compile(BURGLARY);
        for seed in 0..40 {
            let run = run_saturating(&prog, seed, false);
            assert_eq!(run.outcome, RunOutcome::Terminated);
            assert!(
                crate::applicability::applicable_pairs(&prog, &run.instance).is_empty(),
                "seed {seed}: final instance not saturated"
            );
        }
    }

    #[test]
    fn saturating_marginals_match_plain_sequential() {
        let prog = compile(BURGLARY);
        let alarm = prog.catalog.require("Alarm").unwrap();
        let h1 = gdatalog_data::tuple!["h1"];
        let runs = 4_000u32;
        let mut hits_plain = 0u32;
        let mut hits_sat = 0u32;
        for seed in 0..runs {
            let run = run_saturating(&prog, u64::from(seed), false);
            if run.instance.contains(alarm, &h1) {
                hits_sat += 1;
            }
            let mut rng = StdRng::seed_from_u64(u64::from(seed));
            let mut policy =
                crate::policy::ChasePolicy::new(crate::policy::PolicyKind::Canonical, &[]);
            let run = crate::sequential::run_sequential(
                &prog,
                &prog.initial_instance,
                &mut policy,
                &mut rng,
                100_000,
                false,
            )
            .unwrap();
            if run.instance.contains(alarm, &h1) {
                hits_plain += 1;
            }
        }
        let expect = 1.0 - (1.0 - 0.1 * 0.6) * (1.0 - 0.3 * 0.9);
        let p_sat = f64::from(hits_sat) / f64::from(runs);
        let p_plain = f64::from(hits_plain) / f64::from(runs);
        assert!(
            (p_sat - expect).abs() < 0.04,
            "saturating: {p_sat} vs {expect}"
        );
        assert!(
            (p_plain - expect).abs() < 0.04,
            "plain: {p_plain} vs {expect}"
        );
    }

    #[test]
    fn deterministic_fragment_extraction() {
        let prog = compile(BURGLARY);
        let det = deterministic_fragment(&prog);
        // Unit + Alarm + 4 delivery rules (one per random source rule).
        assert_eq!(det.rules.len(), 6);
    }
}
