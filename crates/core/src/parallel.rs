//! Parallel chase steps and runs (Defs. 5.1/5.2 of the paper): in each
//! round, **all** applicable pairs fire simultaneously, their distributions
//! sampled independently (the product measure of Def. 5.1).
//!
//! One subtlety beyond the paper: under the Bárány-style translation, two
//! distinct applicable pairs can demand the *same experiment* (same shared
//! auxiliary relation and key). Firing both independently would violate the
//! induced FD. We therefore group applicable existential pairs by
//! `(aux relation, key)` and sample once per group — which is exactly the
//! semantics of "one experiment per (distribution, parameters)". Under the
//! paper's own (Grohe) translation every pair has a distinct key, so the
//! grouping is a no-op and the step is precisely Def. 5.1.

use std::collections::HashMap;

use gdatalog_data::{Instance, RelId, Value};
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, RuleKind};
use rand::Rng;

use crate::applicability::{eval_terms, ChaseState, PreparedProgram};
use crate::sequential::{fire, ChaseRun, RunOutcome, TraceStep};

/// Performs one parallel chase step. Returns `None` when `App(D)` is empty
/// (the instance is absorbing), otherwise the follow-up instance and the
/// number of pairs fired.
///
/// # Errors
/// Propagates runtime distribution-parameter failures.
pub fn parallel_step(
    program: &CompiledProgram,
    instance: &Instance,
    rng: &mut dyn Rng,
    trace: Option<&mut Vec<TraceStep>>,
) -> Result<Option<(Instance, usize)>, DistError> {
    let prepared = PreparedProgram::new(program);
    parallel_step_prepared(program, &prepared, instance, rng, trace)
}

/// [`parallel_step`] on a pre-planned program (no per-call replanning).
///
/// # Errors
/// Propagates runtime distribution-parameter failures.
pub fn parallel_step_prepared(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    instance: &Instance,
    rng: &mut dyn Rng,
    trace: Option<&mut Vec<TraceStep>>,
) -> Result<Option<(Instance, usize)>, DistError> {
    let index = prepared.new_index(instance);
    let app = prepared.applicable_pairs(program, instance, &index);
    if app.is_empty() {
        return Ok(None);
    }
    let mut next = instance.clone();
    let mut fired_count = 0usize;
    let mut local_trace = Vec::new();
    // Experiments demanded this round, keyed by (aux relation, key tuple):
    // sample once per distinct experiment.
    let mut experiments_done: HashMap<(RelId, Vec<Value>), ()> = HashMap::new();

    for pair in &app {
        let rule = &program.rules[pair.rule];
        if let RuleKind::Existential(e) = &rule.kind {
            let key = eval_terms(&e.key_terms, &pair.valuation);
            if experiments_done.contains_key(&(e.aux_rel, key.clone())) {
                continue;
            }
            experiments_done.insert((e.aux_rel, key), ());
        }
        let fired = fire(program, rule, &pair.valuation, rng)?;
        next.insert_fact(fired.fact);
        fired_count += 1;
        local_trace.push(TraceStep {
            rule: pair.rule,
            valuation: pair.valuation.clone(),
            sampled: fired.sampled,
            log_density: fired.log_density,
        });
    }
    if let Some(t) = trace {
        t.extend(local_trace);
    }
    Ok(Some((next, fired_count)))
}

/// Runs the parallel chase until no rule is applicable or `max_rounds`
/// parallel steps have been performed.
///
/// # Errors
/// Propagates runtime distribution-parameter failures.
pub fn run_parallel(
    program: &CompiledProgram,
    input: &Instance,
    rng: &mut dyn Rng,
    max_rounds: usize,
    record_trace: bool,
) -> Result<ChaseRun, DistError> {
    let prepared = PreparedProgram::new(program);
    run_parallel_prepared(program, &prepared, input, rng, max_rounds, record_trace)
}

/// [`run_parallel`] on a pre-planned program: the instance is mutated in
/// place round over round, and one incrementally maintained index and one
/// cached `App(D)` ([`ChaseState`]) follow it — no per-round instance
/// clone or index rebuild, and only the rules a round's facts can affect
/// are re-enumerated.
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
    let mut state = ChaseState::new(prepared, program, input.clone());
    let mut rounds = 0usize;
    let mut log_weight = 0.0;
    let mut trace = Vec::new();
    let mut experiments_done: HashMap<(RelId, Vec<Value>), ()> = HashMap::new();
    let outcome = loop {
        if rounds >= max_rounds {
            break RunOutcome::BudgetExhausted;
        }
        // The round inserts while it walks the pairs, so it walks a copy.
        let app = state.app(prepared, program).to_vec();
        if app.is_empty() {
            break RunOutcome::Terminated;
        }
        // Fire every applicable pair of this round, sampling each distinct
        // experiment once (see module docs).
        experiments_done.clear();
        for pair in app {
            let rule = &program.rules[pair.rule];
            if let RuleKind::Existential(e) = &rule.kind {
                let key = eval_terms(&e.key_terms, &pair.valuation);
                if experiments_done.contains_key(&(e.aux_rel, key.clone())) {
                    continue;
                }
                experiments_done.insert((e.aux_rel, key), ());
            }
            let fired = fire(program, rule, &pair.valuation, rng)?;
            state.insert(prepared, fired.fact.rel, fired.fact.tuple);
            log_weight += fired.log_density;
            if record_trace {
                trace.push(TraceStep {
                    rule: pair.rule,
                    valuation: pair.valuation,
                    sampled: fired.sampled,
                    log_density: fired.log_density,
                });
            }
        }
        rounds += 1;
    };
    Ok(ChaseRun {
        outcome,
        instance: state.into_instance(),
        steps: rounds,
        log_weight,
        trace,
    })
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

    fn compile(src: &str, mode: SemanticsMode) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, mode).unwrap()
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
        let mut rng = StdRng::seed_from_u64(1);
        let mut trace = Vec::new();
        let (d1, fired) = parallel_step(&prog, &prog.initial_instance, &mut rng, Some(&mut trace))
            .unwrap()
            .unwrap();
        assert_eq!(fired, 2, "both cities sampled in one round");
        assert_eq!(trace.len(), 2);
        // Second round: two delivery rules.
        let (d2, fired2) = parallel_step(&prog, &d1, &mut rng, None).unwrap().unwrap();
        assert_eq!(fired2, 2);
        // Third round: nothing.
        assert!(parallel_step(&prog, &d2, &mut rng, None).unwrap().is_none());
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
            let mut rng = StdRng::seed_from_u64(seed);
            let run = run_parallel(&prog, &prog.initial_instance, &mut rng, 100, false).unwrap();
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
            let mut rng = StdRng::seed_from_u64(seed);
            let run = run_parallel(&prog, &prog.initial_instance, &mut rng, 100, false).unwrap();
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
            let mut rng = StdRng::seed_from_u64(seed);
            let run = run_parallel(&prog, &prog.initial_instance, &mut rng, 100, false).unwrap();
            if run.instance.contains(r, &tuple![0i64]) && run.instance.contains(r, &tuple![1i64]) {
                both_seen = true;
            }
        }
        assert!(both_seen, "independent flips must sometimes disagree");
    }
}
