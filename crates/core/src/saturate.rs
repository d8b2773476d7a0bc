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

use gdatalog_data::{Fact, Instance};
use gdatalog_datalog::{DatalogProgram, DatalogRule, Delta};
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, RuleKind};
use rand::Rng;

use crate::applicability::{AppPair, ChaseState, PreparedProgram};
use crate::sequential::{fire, ChaseRun, RunOutcome, TraceStep};

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

/// Runs the saturation-accelerated sequential chase. `max_steps` bounds
/// the total of *sampling* steps plus derived deterministic facts, making
/// budgets comparable with [`crate::sequential::run_sequential`].
///
/// # Errors
/// Runtime distribution failures.
pub fn run_saturating(
    program: &CompiledProgram,
    input: &Instance,
    rng: &mut dyn Rng,
    max_steps: usize,
    record_trace: bool,
) -> Result<ChaseRun, DistError> {
    let prepared = PreparedProgram::new(program);
    run_saturating_prepared(program, &prepared, input, rng, max_steps, record_trace)
}

/// [`run_saturating`] on a pre-planned program, with one incrementally
/// maintained index shared between the deterministic saturation and the
/// existential applicability probes, and the existential rules' `App(D)`
/// cached across sampling steps ([`ChaseState`]).
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
    let mut log_weight = 0.0;
    let mut trace = Vec::new();

    // Initial deterministic closure (full round 0).
    let mut state = ChaseState::existential(prepared, program, input.clone());
    let mut steps = state.saturate(prepared, None);

    let outcome = loop {
        let app = state.app(prepared, program);
        if app.is_empty() {
            break RunOutcome::Terminated;
        }
        if steps >= max_steps {
            break RunOutcome::BudgetExhausted;
        }
        let pair = app[0].clone();
        let fired = fire(program, &program.rules[pair.rule], &pair.valuation, rng)?;
        let Fact { rel, tuple } = fired.fact;
        steps += 1;
        log_weight += fired.log_density;
        if record_trace {
            trace.push(TraceStep {
                rule: pair.rule,
                valuation: pair.valuation,
                sampled: fired.sampled,
                log_density: fired.log_density,
            });
        }
        if state.insert(prepared, rel, tuple.clone()) {
            // Continue the deterministic fixpoint from the new fact only.
            steps += state.saturate(prepared, Some(Delta::single(rel, tuple)));
        }
    };
    Ok(ChaseRun {
        outcome,
        instance: state.into_instance(),
        steps,
        log_weight,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
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
        let mut rng = StdRng::seed_from_u64(9);
        let run = run_saturating(&prog, &prog.initial_instance, &mut rng, 100_000, true).unwrap();
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
            let mut rng = StdRng::seed_from_u64(seed);
            let run =
                run_saturating(&prog, &prog.initial_instance, &mut rng, 100_000, false).unwrap();
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
            let mut rng = StdRng::seed_from_u64(u64::from(seed));
            let run =
                run_saturating(&prog, &prog.initial_instance, &mut rng, 100_000, false).unwrap();
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
