//! Batched Monte-Carlo execution: lane groups in lockstep over a shared
//! chase state.
//!
//! The chase is embarrassingly parallel across runs, and with per-run
//! derived RNG streams ([`crate::mc::derive_seed`]) the runs of a batch
//! can be driven *together* without changing any run's result: as long as
//! lane `i`'s RNG consumes exactly the draws the scalar
//! [`crate::mc::single_run`] would feed it, the lane's world is
//! bit-identical, regardless of how lanes are grouped or interleaved.
//!
//! The executor keeps the batch as **lane groups**: a group is a set of
//! runs whose chase states are still identical — one shared `Instance`,
//! one maintained index, one cached `App(D)`, one policy state, one step
//! counter, plus one RNG per lane. Every run of a batch starts in a single
//! root group (the deterministic prefix — rules firing before the first
//! Ψ-atom — is therefore executed exactly once and shared by all lanes),
//! and a group only *splits* when an existential firing draws diverging
//! outcomes: lanes are partitioned by their joint outcome vector
//! (first-occurrence order), the first partition continues on the group's
//! state in place, and each later partition clones the state — cached
//! `App(D)` included — once. Discrete programs with
//! few distinct outcomes thus share almost all chase work across a batch,
//! while continuous programs degenerate gracefully to one lane per group
//! after the first continuous sample — still amortizing the shared
//! prefix, the applicability probes before the fork, and the batched
//! kernel calls.
//!
//! Sampling inside a group is **spec-major** via
//! [`gdatalog_dist::ParamDist::sample_batch`]: parameters are evaluated
//! once per spec (they are a function of the valuation, shared by the
//! whole group) and each lane's RNG is touched once per spec in spec
//! order — exactly the scalar draw order of
//! [`crate::sequential::fire`].
//!
//! Lane-partition equality uses `Value`'s total equality (`-0.0` is
//! normalized at construction and NaN rejected), so two lanes merge only
//! when their sampled values are the same points of the value domain —
//! their futures are then provably identical.

use std::ops::Range;
use std::rc::Rc;

use gdatalog_data::{Instance, RelId, Tuple, Value};
use gdatalog_datalog::Delta;
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, RuleKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::applicability::{eval_term, eval_terms, AppPair, ChaseState, PreparedProgram};
use crate::mc::{derive_seed, ChaseVariant, McConfig};
use crate::policy::{ChasePolicy, PolicyKind};

/// Per-lane result of a batched execution. Terminated lanes of one group
/// share their projected world through an [`Rc`] (the batch is always
/// driven and consumed on one worker thread), so a group of N identical
/// runs materializes its world once.
#[derive(Debug, Clone)]
pub(crate) enum LaneObs {
    /// The lane terminated with this world (post `keep_aux` projection).
    World(Rc<Instance>),
    /// The lane exhausted the step budget (the error event `err`).
    Budget,
    /// A runtime distribution failure. The whole group of the failing
    /// lane is marked failed: parameters are shared group-wide, so for
    /// the standard family the error is lane-independent.
    Failed(DistError),
}

/// Whether `variant` can be driven by the batched executor. The parallel
/// chase has its own loop, and `Random` policies consume a *per-run
/// derived* PRNG stream, so their selection state cannot be shared by a
/// lane group — both fall back to the scalar path.
pub(crate) fn batched_variant(variant: ChaseVariant) -> bool {
    match variant {
        ChaseVariant::Sequential(PolicyKind::Random { .. }) | ChaseVariant::Parallel => false,
        ChaseVariant::Sequential(_) | ChaseVariant::Saturating => true,
    }
}

/// A set of runs whose chase states are still identical.
struct Group {
    /// Batch-local lane indices (positions into the result vector).
    lanes: Vec<usize>,
    /// One RNG per lane, parallel to `lanes`.
    rngs: Vec<StdRng>,
    /// The shared instance, index and cached `App(D)`; cloned on a split.
    state: ChaseState,
    policy: ChasePolicy,
    steps: usize,
}

impl Group {
    /// Applies one fired fact to the group state — the exact insert /
    /// step accounting of the scalar chase loops
    /// ([`crate::sequential::run_sequential_prepared`] and
    /// [`crate::saturate::run_saturating_prepared`]).
    fn apply_fact(
        &mut self,
        prepared: &PreparedProgram,
        saturating: bool,
        rel: RelId,
        tuple: Tuple,
    ) {
        self.steps += 1;
        if self.state.insert(prepared, rel, tuple.clone()) && saturating {
            // Continue the deterministic fixpoint from the new fact.
            self.steps += self
                .state
                .saturate(prepared, Some(Delta::single(rel, tuple)));
        }
    }
}

/// Executes the runs `range` as one batch and returns one observation per
/// lane, in run-index order. Each lane's outcome is bit-identical to the
/// scalar [`crate::mc::single_run`] on the same run index (same derived
/// seed, same draw order, same step accounting); only the *work* is
/// shared across lanes, never the randomness.
///
/// The caller must have checked [`batched_variant`]; deadline checks stay
/// outside (cooperative at batch boundaries).
pub(crate) fn run_batch(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    config: &McConfig,
    existential: &[usize],
    range: Range<usize>,
) -> Vec<LaneObs> {
    let n = range.len();
    if n == 0 {
        return Vec::new();
    }
    let saturating = matches!(config.variant, ChaseVariant::Saturating);
    let kind = match config.variant {
        // The saturating chase always fires app[0]; the policy is unused.
        ChaseVariant::Saturating => PolicyKind::Canonical,
        ChaseVariant::Sequential(kind) => kind,
        ChaseVariant::Parallel => unreachable!("parallel runs are not batchable"),
    };

    let rngs: Vec<StdRng> = range
        .clone()
        .map(|run_ix| StdRng::seed_from_u64(derive_seed(config.seed, run_ix as u64)))
        .collect();

    // Root group: the deterministic prefix below is shared by every lane.
    let (state, steps) = if saturating {
        let mut state = ChaseState::existential(prepared, program, input.clone());
        let derived = state.saturate(prepared, None);
        (state, derived)
    } else {
        (ChaseState::new(prepared, program, input.clone()), 0)
    };
    let root = Group {
        lanes: (0..n).collect(),
        rngs,
        state,
        policy: ChasePolicy::new(kind, existential),
        steps,
    };

    let mut results: Vec<Option<LaneObs>> = (0..n).map(|_| None).collect();
    let mut worklist = vec![root];
    while let Some(mut group) = worklist.pop() {
        loop {
            let app = group.state.app(prepared, program);
            if app.is_empty() {
                // Terminated: project once, share across the group.
                let world = Rc::new(if config.keep_aux {
                    group.state.into_instance()
                } else {
                    program.project_output(group.state.instance())
                });
                for &lane in &group.lanes {
                    results[lane] = Some(LaneObs::World(Rc::clone(&world)));
                }
                break;
            }
            if group.steps >= config.max_steps {
                for &lane in &group.lanes {
                    results[lane] = Some(LaneObs::Budget);
                }
                break;
            }
            let chosen = if saturating {
                0
            } else {
                group.policy.select(app)
            };
            let AppPair { rule, valuation } = app[chosen].clone();
            match &program.rules[rule].kind {
                RuleKind::Deterministic { head } => {
                    // No randomness: the whole group fires identically.
                    let tuple: Tuple = head.args.iter().map(|t| eval_term(t, &valuation)).collect();
                    group.apply_fact(prepared, saturating, head.rel, tuple);
                }
                RuleKind::Existential(e) => {
                    // Spec-major batched sampling over the group's lanes.
                    let key = eval_terms(&e.key_terms, &valuation);
                    let mut per_spec: Vec<Vec<Value>> = Vec::with_capacity(e.samples.len());
                    let mut failure: Option<DistError> = None;
                    for spec in &e.samples {
                        let params = eval_terms(&spec.param_terms, &valuation);
                        let mut outcomes = Vec::new();
                        if let Err(err) =
                            spec.dist
                                .sample_batch(&params, &mut group.rngs, &mut outcomes)
                        {
                            failure = Some(err);
                            break;
                        }
                        // The scalar fire() computes every outcome's
                        // log-density (the run's log-weight); match its
                        // work and its error surface, discarding the
                        // values — batched emission recomputes the
                        // conditioned weight from the final world.
                        let mut densities = Vec::new();
                        if let Err(err) =
                            spec.dist
                                .log_density_batch(&params, &outcomes, &mut densities)
                        {
                            failure = Some(err);
                            break;
                        }
                        per_spec.push(outcomes);
                    }
                    if let Some(err) = failure {
                        // Parameters are shared group-wide, so the error
                        // is lane-independent for the standard family;
                        // a custom member failing on one lane's outcome
                        // fails its whole group (the batch boundary is
                        // the error granularity).
                        for &lane in &group.lanes {
                            results[lane] = Some(LaneObs::Failed(err.clone()));
                        }
                        break;
                    }

                    // Partition lanes by joint outcome, first-occurrence
                    // order. Most steps have one partition (discrete
                    // draws agree) or all-singletons (continuous draws).
                    let mut parts: Vec<(Vec<usize>, Vec<Value>)> = Vec::new();
                    for li in 0..group.lanes.len() {
                        let joint: Vec<Value> = per_spec
                            .iter()
                            .map(|outcomes| outcomes[li].clone())
                            .collect();
                        match parts.iter_mut().find(|(_, j)| *j == joint) {
                            Some((members, _)) => members.push(li),
                            None => parts.push((vec![li], joint)),
                        }
                    }

                    // Later partitions clone the pre-fire state once each;
                    // partition 0 keeps the group's state in place.
                    for (members, joint) in parts.drain(1..) {
                        let mut spawned = Group {
                            lanes: members.iter().map(|&li| group.lanes[li]).collect(),
                            rngs: members.iter().map(|&li| group.rngs[li].clone()).collect(),
                            state: group.state.clone(),
                            policy: group.policy.clone(),
                            steps: group.steps,
                        };
                        let mut values = key.clone();
                        values.extend(joint);
                        spawned.apply_fact(prepared, saturating, e.aux_rel, Tuple::from(values));
                        worklist.push(spawned);
                    }
                    let (members, joint) = parts.pop().expect("a non-empty group partitions");
                    if members.len() < group.lanes.len() {
                        group.lanes = members.iter().map(|&li| group.lanes[li]).collect();
                        group.rngs = members.iter().map(|&li| group.rngs[li].clone()).collect();
                    }
                    let mut values = key;
                    values.extend(joint);
                    group.apply_fact(prepared, saturating, e.aux_rel, Tuple::from(values));
                }
            }
        }
    }

    results
        .into_iter()
        .map(|obs| obs.expect("every lane is assigned exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    fn scalar_obs(
        program: &CompiledProgram,
        config: &McConfig,
        existential: &[usize],
        run_ix: usize,
    ) -> Option<Instance> {
        let prepared = PreparedProgram::new(program);
        crate::mc::single_run(
            program,
            &prepared,
            &program.initial_instance,
            config,
            existential,
            run_ix,
        )
        .unwrap()
    }

    fn assert_batch_matches_scalar(src: &str, config: &McConfig, runs: usize) {
        let program = compile(src);
        let existential: Vec<usize> = program
            .rules
            .iter()
            .filter(|r| r.is_existential())
            .map(|r| r.id)
            .collect();
        let prepared = PreparedProgram::new(&program);
        let batched = run_batch(
            &program,
            &prepared,
            &program.initial_instance,
            config,
            &existential,
            0..runs,
        );
        assert_eq!(batched.len(), runs);
        for (run_ix, obs) in batched.iter().enumerate() {
            let scalar = scalar_obs(&program, config, &existential, run_ix);
            match (obs, scalar) {
                (LaneObs::World(world), Some(expect)) => {
                    assert_eq!(**world, expect, "run {run_ix} world diverged");
                }
                (LaneObs::Budget, None) => {}
                (got, expect) => panic!("run {run_ix}: {got:?} vs scalar {expect:?}"),
            }
        }
    }

    #[test]
    fn discrete_batch_is_bit_identical_to_scalar() {
        let config = McConfig {
            seed: 42,
            max_steps: 1_000,
            ..McConfig::default()
        };
        assert_batch_matches_scalar(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            City(metropolis, 0.2).
            Earthquake(C, Flip<0.1>) :- City(C, R).
            Trig(X, Flip<0.6>) :- Earthquake(X, 1).
            Alarm(X) :- Trig(X, 1).
        "#,
            &config,
            33,
        );
    }

    #[test]
    fn continuous_batch_is_bit_identical_to_scalar() {
        let config = McConfig {
            seed: 7,
            max_steps: 1_000,
            ..McConfig::default()
        };
        assert_batch_matches_scalar(
            r#"
            M(Normal<0.0, 1.0>) :- true.
            Y(Normal<X, 0.5>) :- M(X).
            Out(X) :- Y(X).
        "#,
            &config,
            17,
        );
    }

    #[test]
    fn saturating_batch_is_bit_identical_to_scalar() {
        let config = McConfig {
            seed: 11,
            max_steps: 10_000,
            variant: ChaseVariant::Saturating,
            ..McConfig::default()
        };
        assert_batch_matches_scalar(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            Earthquake(C, Flip<0.1>) :- City(C, R).
            Trig(X, Flip<0.6>) :- Earthquake(X, 1).
            Alarm(X) :- Trig(X, 1).
        "#,
            &config,
            33,
        );
    }

    #[test]
    fn budget_exhaustion_matches_scalar_per_lane() {
        let config = McConfig {
            seed: 3,
            max_steps: 30,
            ..McConfig::default()
        };
        assert_batch_matches_scalar(
            r#"
            C(0.0).
            C(Normal<V, 1.0>) :- C(V).
        "#,
            &config,
            9,
        );
    }

    #[test]
    fn keep_aux_batches_identically() {
        let config = McConfig {
            seed: 5,
            max_steps: 1_000,
            keep_aux: true,
            ..McConfig::default()
        };
        assert_batch_matches_scalar("R(Flip<0.5>) :- true. S(X) :- R(X).", &config, 16);
    }

    #[test]
    fn nontrivial_policies_batch_identically() {
        for kind in [
            PolicyKind::Reverse,
            PolicyKind::RoundRobin,
            PolicyKind::DeterministicFirst,
        ] {
            let config = McConfig {
                seed: 13,
                max_steps: 1_000,
                variant: ChaseVariant::Sequential(kind),
                ..McConfig::default()
            };
            assert_batch_matches_scalar(
                r#"
                rel City(symbol, real) input.
                City(gotham, 0.3).
                Earthquake(C, Flip<0.5>) :- City(C, R).
                Trig(X, Flip<0.5>) :- Earthquake(X, 1).
                Alarm(X) :- Trig(X, 1).
            "#,
                &config,
                21,
            );
        }
    }

    #[test]
    fn random_policy_and_parallel_are_not_batchable() {
        assert!(!batched_variant(ChaseVariant::Parallel));
        assert!(!batched_variant(ChaseVariant::Sequential(
            PolicyKind::Random { seed: 1 }
        )));
        assert!(batched_variant(ChaseVariant::Saturating));
        assert!(batched_variant(ChaseVariant::Sequential(
            PolicyKind::Canonical
        )));
    }

    #[test]
    fn identical_lanes_share_one_world_allocation() {
        // Flip<1.0> draws 1 in every lane: the batch never splits and all
        // lanes alias one Rc world.
        let program = compile("R(Flip<1.0>) :- true.");
        let prepared = PreparedProgram::new(&program);
        let config = McConfig::default();
        let obs = run_batch(
            &program,
            &prepared,
            &program.initial_instance,
            &config,
            &[],
            0..8,
        );
        let first = match &obs[0] {
            LaneObs::World(w) => Rc::clone(w),
            other => panic!("expected a world, got {other:?}"),
        };
        assert_eq!(Rc::strong_count(&first), 9, "8 lanes + the local clone");
    }
}
