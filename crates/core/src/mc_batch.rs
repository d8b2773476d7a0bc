//! Batched Monte-Carlo execution: lane groups in lockstep over a shared
//! chase state. This is the one executor that turns run indices into
//! Monte-Carlo observations, for every [`ChaseVariant`].
//!
//! The chase is embarrassingly parallel across runs, and with per-run
//! derived RNG streams ([`crate::mc::derive_seed`]) the runs of a batch
//! can be driven *together* without changing any run's result: as long as
//! lane `i`'s RNG consumes exactly the draws the reference loop of its
//! variant ([`crate::sequential::run_sequential_prepared`],
//! [`crate::parallel::run_parallel_prepared`] or
//! [`crate::saturate::run_saturating_prepared`], seeded with
//! `derive_seed(seed, i)`) would feed it, the lane's world is
//! bit-identical, regardless of how lanes are grouped or interleaved.
//!
//! The executor keeps the batch as **lane groups**: a group is a set of
//! runs whose chase states are still identical — one shared `Instance`,
//! one maintained index, one cached `App(D)`, one policy state, one step
//! counter, plus one RNG per lane. Every run of a batch starts in a single
//! root group (the deterministic prefix — rules firing before the first
//! Ψ-atom — is therefore executed exactly once and shared by all lanes),
//! and a group only *splits* when an existential firing (one sequential
//! step, or a whole parallel round) draws diverging outcomes: lanes are
//! partitioned by their joint outcome vector (first-occurrence order), the
//! first partition continues on the group's state in place, and each later
//! partition clones the state — cached `App(D)` included — once. Discrete
//! programs with few distinct outcomes thus share almost all chase work
//! across a batch, while continuous programs degenerate gracefully to one
//! lane per group after the first continuous sample — still amortizing
//! the shared prefix, the applicability probes before the fork, and the
//! batched kernel calls. `Random`-policy runs select from a per-run
//! derived stream, so no two lanes share a selection state: their batch
//! starts as one group per lane.
//!
//! Sampling inside a group is **spec-major** via
//! [`gdatalog_dist::ParamDist::sample_batch`]: parameters are evaluated
//! once per spec (they are a function of the valuation, shared by the
//! whole group) and each lane's RNG is touched once per spec in spec
//! order — exactly the per-run draw order of
//! [`crate::sequential::fire`].
//!
//! Lane-partition equality uses `Value`'s total equality (`-0.0` is
//! normalized at construction and NaN rejected), so two lanes merge only
//! when their sampled values are the same points of the value domain —
//! their futures are then provably identical.

use std::collections::HashSet;
use std::ops::Range;
use std::rc::Rc;

use gdatalog_data::{Instance, RelId, Tuple, Value};
use gdatalog_datalog::Delta;
use gdatalog_dist::DistError;
use gdatalog_lang::{CompiledProgram, ExistentialHead, RuleKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::applicability::{eval_term, eval_terms, AppPair, ChaseState, PreparedProgram};
use crate::backend::EvalOptions;
use crate::mc::{derive_seed, ChaseVariant};
use crate::parallel::fires_in_round;
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

/// A set of runs whose chase states are still identical.
struct Group {
    /// Batch-local lane indices (positions into the result vector).
    lanes: Vec<usize>,
    /// One RNG per lane, parallel to `lanes`.
    rngs: Vec<StdRng>,
    /// The shared instance, index and cached `App(D)`; cloned on a split.
    state: ChaseState,
    policy: ChasePolicy,
    /// Chase steps, or rounds for the parallel chase.
    steps: usize,
}

/// The experiments one chase step or parallel round fired, with every
/// lane's outcomes of them, awaiting the split.
struct Draws {
    /// Per experiment, in firing order: its auxiliary relation, its key
    /// values, and how many outcomes each lane drew for it.
    experiments: Vec<(RelId, Vec<Value>, usize)>,
    /// Per lane: its outcomes of every experiment, concatenated.
    joints: Vec<Vec<Value>>,
}

impl Draws {
    fn new(lanes: usize) -> Draws {
        Draws {
            experiments: Vec::new(),
            joints: vec![Vec::new(); lanes],
        }
    }

    /// Samples experiment `e` under `valuation` in every lane, spec-major.
    fn sample(
        &mut self,
        e: &ExistentialHead,
        valuation: &Tuple,
        rngs: &mut [StdRng],
    ) -> Result<(), DistError> {
        let mut outcomes = Vec::with_capacity(rngs.len());
        let mut densities = Vec::with_capacity(rngs.len());
        for spec in &e.samples {
            let params = eval_terms(&spec.param_terms, valuation);
            spec.dist.sample_batch(&params, rngs, &mut outcomes)?;
            // The reference loops' fire() computes every outcome's
            // log-density (the run's log-weight); match its work and its
            // error surface, discarding the values — emission recomputes
            // the conditioned weight from the final world.
            densities.clear();
            spec.dist
                .log_density_batch(&params, &outcomes, &mut densities)?;
            for (joint, outcome) in self.joints.iter_mut().zip(outcomes.drain(..)) {
                joint.push(outcome);
            }
        }
        self.experiments.push((
            e.aux_rel,
            eval_terms(&e.key_terms, valuation),
            e.samples.len(),
        ));
        Ok(())
    }
}

impl Group {
    /// Applies one fired fact to the group state — the insert / step
    /// accounting of the variant's reference loop. A parallel round counts
    /// one step however many facts it fires ([`Group::round`]).
    fn apply_fact(
        &mut self,
        prepared: &PreparedProgram,
        variant: ChaseVariant,
        rel: RelId,
        tuple: Tuple,
    ) {
        match variant {
            ChaseVariant::Parallel => {
                self.state.insert(prepared, rel, tuple);
            }
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
        }
    }

    /// One sequential (or saturating) chase step on a non-empty `App(D)`:
    /// the selected pair fires, and an existential firing splits the group
    /// on its outcomes.
    fn step(
        &mut self,
        program: &CompiledProgram,
        prepared: &PreparedProgram,
        variant: ChaseVariant,
        worklist: &mut Vec<Group>,
    ) -> Result<(), DistError> {
        let app = self.state.app(prepared, program);
        let chosen = match variant {
            // The saturating chase always fires app[0].
            ChaseVariant::Saturating => 0,
            _ => self.policy.select(app),
        };
        let AppPair { rule, valuation } = app[chosen].clone();
        match &program.rules[rule].kind {
            RuleKind::Deterministic { head } => {
                // No randomness: the whole group fires identically.
                let tuple: Tuple = head.args.iter().map(|t| eval_term(t, &valuation)).collect();
                self.apply_fact(prepared, variant, head.rel, tuple);
            }
            RuleKind::Existential(e) => {
                let mut draws = Draws::new(self.lanes.len());
                draws.sample(e, &valuation, &mut self.rngs)?;
                self.split(prepared, variant, draws, worklist);
            }
        }
        Ok(())
    }

    /// One parallel chase round on a non-empty `App(D)`, as
    /// [`crate::parallel::run_parallel_prepared`] fires it: every pair
    /// fires and a repeated experiment is skipped. Deterministic facts go
    /// into the shared state at once (the round's pairs were fixed before
    /// it, and the instance is a set, so the insertion order within a
    /// round does not matter); the group then splits on each lane's
    /// outcomes of the whole round.
    fn round(
        &mut self,
        program: &CompiledProgram,
        prepared: &PreparedProgram,
        worklist: &mut Vec<Group>,
    ) -> Result<(), DistError> {
        // The round inserts while it walks the pairs, so it walks a copy.
        let app = self.state.app(prepared, program).to_vec();
        let mut draws = Draws::new(self.lanes.len());
        let mut sampled = HashSet::new();
        for AppPair { rule, valuation } in app {
            let rule = &program.rules[rule];
            if !fires_in_round(&mut sampled, rule, &valuation) {
                continue;
            }
            match &rule.kind {
                RuleKind::Deterministic { head } => {
                    let tuple: Tuple = head.args.iter().map(|t| eval_term(t, &valuation)).collect();
                    self.state.insert(prepared, head.rel, tuple);
                }
                RuleKind::Existential(e) => draws.sample(e, &valuation, &mut self.rngs)?,
            }
        }
        self.steps += 1;
        self.split(prepared, ChaseVariant::Parallel, draws, worklist);
        Ok(())
    }

    /// Partitions the lanes by their joint outcomes (first-occurrence
    /// order) and applies each partition's experiment facts in firing
    /// order. Later partitions clone the state once each and go onto the
    /// worklist; partition 0 keeps the group's state in place. Most splits
    /// have one partition (discrete draws agree) or all singletons
    /// (continuous draws).
    fn split(
        &mut self,
        prepared: &PreparedProgram,
        variant: ChaseVariant,
        draws: Draws,
        worklist: &mut Vec<Group>,
    ) {
        let Draws {
            experiments,
            joints,
        } = draws;
        let mut parts: Vec<(Vec<usize>, Vec<Value>)> = Vec::new();
        for (li, joint) in joints.into_iter().enumerate() {
            match parts.iter_mut().find(|(_, j)| *j == joint) {
                Some((members, _)) => members.push(li),
                None => parts.push((vec![li], joint)),
            }
        }
        let apply = |group: &mut Group, joint: Vec<Value>| {
            let mut outcomes = joint.into_iter();
            for (rel, key, width) in &experiments {
                let mut values = Vec::with_capacity(key.len() + width);
                values.extend_from_slice(key);
                values.extend(outcomes.by_ref().take(*width));
                group.apply_fact(prepared, variant, *rel, Tuple::from(values));
            }
        };
        for (members, joint) in parts.drain(1..) {
            let mut spawned = Group {
                lanes: members.iter().map(|&li| self.lanes[li]).collect(),
                rngs: members.iter().map(|&li| self.rngs[li].clone()).collect(),
                state: self.state.clone(),
                policy: self.policy.clone(),
                steps: self.steps,
            };
            apply(&mut spawned, joint);
            worklist.push(spawned);
        }
        let (members, joint) = parts.pop().expect("a non-empty group partitions");
        if members.len() < self.lanes.len() {
            self.lanes = members.iter().map(|&li| self.lanes[li]).collect();
            self.rngs = members.iter().map(|&li| self.rngs[li].clone()).collect();
        }
        apply(self, joint);
    }
}

/// Executes the runs `range` as one batch and returns one observation per
/// lane, in run-index order. Each lane's outcome is bit-identical to the
/// reference loop of `options.variant` on the same run index (same derived
/// seeds, same draw order, same step accounting); only the *work* is
/// shared across lanes, never the randomness.
///
/// Deadline checks stay outside (cooperative at batch boundaries).
pub(crate) fn run_batch(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    options: &EvalOptions,
    existential: &[usize],
    range: Range<usize>,
) -> Vec<LaneObs> {
    let n = range.len();
    if n == 0 {
        return Vec::new();
    }
    let variant = options.variant;

    // Root state: the deterministic prefix below is shared by every lane
    // of a group.
    let (state, steps) = if variant == ChaseVariant::Saturating {
        let mut state = ChaseState::existential(prepared, program, input.clone());
        let derived = state.saturate(prepared, None);
        (state, derived)
    } else {
        (ChaseState::new(prepared, program, input.clone()), 0)
    };
    let rng = |run_ix: usize| StdRng::seed_from_u64(derive_seed(options.seed, run_ix as u64));
    let mut worklist: Vec<Group> = match variant {
        ChaseVariant::Sequential(PolicyKind::Random { seed }) => range
            .enumerate()
            .map(|(lane, run_ix)| Group {
                lanes: vec![lane],
                rngs: vec![rng(run_ix)],
                state: state.clone(),
                policy: ChasePolicy::new(
                    PolicyKind::Random {
                        seed: derive_seed(seed, run_ix as u64),
                    },
                    existential,
                ),
                steps,
            })
            .collect(),
        _ => {
            let kind = match variant {
                ChaseVariant::Sequential(kind) => kind,
                // The parallel and saturating chases select no pair.
                ChaseVariant::Parallel | ChaseVariant::Saturating => PolicyKind::Canonical,
            };
            vec![Group {
                lanes: (0..n).collect(),
                rngs: range.map(rng).collect(),
                state,
                policy: ChasePolicy::new(kind, existential),
                steps,
            }]
        }
    };

    let mut results: Vec<Option<LaneObs>> = vec![None; n];
    while let Some(mut group) = worklist.pop() {
        let obs = loop {
            // The parallel loop checks its round budget before App(D): a
            // run absorbing exactly at the budget is exhausted there, while
            // the sequential loops count it as terminated.
            if variant == ChaseVariant::Parallel && group.steps >= options.max_depth {
                break LaneObs::Budget;
            }
            if group.state.app(prepared, program).is_empty() {
                // Terminated: project once, share across the group.
                break LaneObs::World(Rc::new(if options.keep_aux {
                    group.state.into_instance()
                } else {
                    program.project_output(group.state.instance())
                }));
            }
            if group.steps >= options.max_depth {
                break LaneObs::Budget;
            }
            let fired = match variant {
                ChaseVariant::Parallel => group.round(program, prepared, &mut worklist),
                _ => group.step(program, prepared, variant, &mut worklist),
            };
            if let Err(err) = fired {
                // Parameters are shared group-wide, so the error is
                // lane-independent for the standard family; a custom
                // member failing on one lane's outcome fails its whole
                // group (the batch boundary is the error granularity).
                break LaneObs::Failed(err);
            }
        };
        for &lane in &group.lanes {
            results[lane] = Some(obs.clone());
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
    use crate::parallel::run_parallel_prepared;
    use crate::saturate::run_saturating_prepared;
    use crate::sequential::{run_sequential_prepared, RunOutcome};
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use std::sync::Arc;

    fn compile(src: &str, mode: SemanticsMode) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, mode).unwrap()
    }

    fn existential_rules(program: &CompiledProgram) -> Vec<usize> {
        program
            .rules
            .iter()
            .filter(|r| r.is_existential())
            .map(|r| r.id)
            .collect()
    }

    /// Every chase variant the executor drives.
    const VARIANTS: [ChaseVariant; 7] = [
        ChaseVariant::Sequential(PolicyKind::Canonical),
        ChaseVariant::Sequential(PolicyKind::Reverse),
        ChaseVariant::Sequential(PolicyKind::RoundRobin),
        ChaseVariant::Sequential(PolicyKind::DeterministicFirst),
        ChaseVariant::Sequential(PolicyKind::Random { seed: 17 }),
        ChaseVariant::Parallel,
        ChaseVariant::Saturating,
    ];

    /// Run `run_ix` on the public reference loop of its variant: the run's
    /// RNG is seeded with `derive_seed(seed, run_ix)`, and a `Random`
    /// policy with `derive_seed(policy_seed, run_ix)`. `None` is the error
    /// event (budget exhausted).
    fn reference_obs(
        program: &CompiledProgram,
        prepared: &PreparedProgram,
        options: &EvalOptions,
        run_ix: usize,
    ) -> Option<Instance> {
        let input = &program.initial_instance;
        let mut rng = StdRng::seed_from_u64(derive_seed(options.seed, run_ix as u64));
        let run = match options.variant {
            ChaseVariant::Sequential(kind) => {
                let kind = match kind {
                    PolicyKind::Random { seed } => PolicyKind::Random {
                        seed: derive_seed(seed, run_ix as u64),
                    },
                    other => other,
                };
                let mut policy = ChasePolicy::new(kind, &existential_rules(program));
                run_sequential_prepared(
                    program,
                    prepared,
                    input,
                    &mut policy,
                    &mut rng,
                    options.max_depth,
                    false,
                )
            }
            ChaseVariant::Parallel => {
                run_parallel_prepared(program, prepared, input, &mut rng, options.max_depth, false)
            }
            ChaseVariant::Saturating => run_saturating_prepared(
                program,
                prepared,
                input,
                &mut rng,
                options.max_depth,
                false,
            ),
        }
        .unwrap();
        match run.outcome {
            RunOutcome::Terminated => Some(if options.keep_aux {
                run.instance
            } else {
                program.project_output(&run.instance)
            }),
            RunOutcome::BudgetExhausted => None,
        }
    }

    /// Drives `runs` runs through `run_batch` in lane batches of `batch`
    /// and returns every lane's observation in run order.
    fn batched(
        program: &CompiledProgram,
        options: &EvalOptions,
        batch: usize,
        runs: usize,
    ) -> Vec<LaneObs> {
        let prepared = PreparedProgram::new(program);
        let existential = existential_rules(program);
        let mut out = Vec::with_capacity(runs);
        let mut lo = 0;
        while lo < runs {
            let hi = (lo + batch).min(runs);
            let lanes = run_batch(
                program,
                &prepared,
                &program.initial_instance,
                options,
                &existential,
                lo..hi,
            );
            assert_eq!(lanes.len(), hi - lo);
            out.extend(lanes);
            lo = hi;
        }
        out
    }

    /// Every lane equals the reference loop for its run index, for every
    /// variant, at batch 1, 7 and 64, with and without `keep_aux`. Returns
    /// how many lanes (over the whole matrix) exhausted the budget.
    fn assert_lanes_match_reference(
        src: &str,
        mode: SemanticsMode,
        seed: u64,
        max_depth: usize,
        runs: usize,
    ) -> usize {
        let program = compile(src, mode);
        let prepared = PreparedProgram::new(&program);
        let mut exhausted = 0;
        for variant in VARIANTS {
            for keep_aux in [false, true] {
                let options = EvalOptions {
                    seed,
                    max_depth,
                    variant,
                    keep_aux,
                    ..EvalOptions::default()
                };
                let reference: Vec<Option<Instance>> = (0..runs)
                    .map(|run_ix| reference_obs(&program, &prepared, &options, run_ix))
                    .collect();
                for batch in [1, 7, 64] {
                    let lanes = batched(&program, &options, batch, runs);
                    for (run_ix, (got, expect)) in lanes.iter().zip(&reference).enumerate() {
                        match (got, expect) {
                            (LaneObs::World(world), Some(expect)) => assert_eq!(
                                **world, *expect,
                                "{variant:?} keep_aux {keep_aux} batch {batch}: run {run_ix}"
                            ),
                            (LaneObs::Budget, None) => exhausted += 1,
                            (got, expect) => panic!(
                                "{variant:?} keep_aux {keep_aux} batch {batch}: run {run_ix} \
                                 gave {got:?}, reference {expect:?}"
                            ),
                        }
                    }
                }
            }
        }
        exhausted
    }

    const BURGLARY: &str = r#"
        rel City(symbol, real) input.
        City(gotham, 0.3).
        City(metropolis, 0.2).
        Earthquake(C, Flip<0.5>) :- City(C, R).
        Trig(X, Flip<0.6>) :- Earthquake(X, 1).
        Alarm(X) :- Trig(X, 1).
    "#;

    #[test]
    fn discrete_lanes_match_the_reference_loops() {
        let exhausted = assert_lanes_match_reference(BURGLARY, SemanticsMode::Grohe, 42, 1_000, 70);
        assert_eq!(exhausted, 0);
    }

    #[test]
    fn continuous_lanes_match_the_reference_loops() {
        let src = r#"
            M(Normal<0.0, 1.0>) :- true.
            Y(Normal<X, 0.5>) :- M(X).
            Out(X) :- Y(X).
        "#;
        assert_lanes_match_reference(src, SemanticsMode::Grohe, 7, 1_000, 70);
    }

    #[test]
    fn shared_experiments_match_the_reference_loops() {
        // Under Bárány semantics both rules demand one (Flip, 0.5)
        // experiment: a parallel round samples it once.
        let src = "R(Flip<0.5>) :- true. S(Flip<0.5>) :- true. T(X) :- R(X), S(X).";
        assert_lanes_match_reference(src, SemanticsMode::Barany, 5, 1_000, 70);
    }

    #[test]
    fn budget_exhaustion_matches_the_reference_loops() {
        let src = "C(0.0). C(Normal<V, 1.0>) :- C(V).";
        let exhausted = assert_lanes_match_reference(src, SemanticsMode::Grohe, 3, 30, 20);
        // Every lane of every cell of the matrix: 7 variants × 2 × 3 × 20.
        assert_eq!(exhausted, 7 * 2 * 3 * 20, "an a.s. non-terminating program");
    }

    #[test]
    fn parallel_run_absorbing_at_the_round_budget_is_exhausted() {
        // Round 1 samples R's experiment, round 2 delivers R, round 3
        // derives S: the parallel run is absorbing after exactly 3 rounds,
        // and the sequential run after exactly 3 steps.
        let src = "R(Flip<0.5>) :- true. S(X) :- R(X).";
        let program = compile(src, SemanticsMode::Grohe);
        let lanes = |variant, max_depth| {
            let options = EvalOptions {
                seed: 9,
                max_depth,
                variant,
                ..EvalOptions::default()
            };
            batched(&program, &options, 7, 12)
        };
        let parallel = ChaseVariant::Parallel;
        let canonical = ChaseVariant::Sequential(PolicyKind::Canonical);
        assert!(lanes(parallel, 3)
            .iter()
            .all(|o| matches!(o, LaneObs::Budget)));
        assert!(lanes(parallel, 4)
            .iter()
            .all(|o| matches!(o, LaneObs::World(_))));
        assert!(lanes(canonical, 3)
            .iter()
            .all(|o| matches!(o, LaneObs::World(_))));
        assert_lanes_match_reference(src, SemanticsMode::Grohe, 9, 3, 12);
    }

    #[test]
    fn identical_lanes_share_one_world_allocation() {
        // Flip<1.0> draws 1 in every lane: the batch never splits and all
        // lanes alias one Rc world.
        let program = compile("R(Flip<1.0>) :- true.", SemanticsMode::Grohe);
        let obs = batched(&program, &EvalOptions::default(), 8, 8);
        let first = match &obs[0] {
            LaneObs::World(w) => Rc::clone(w),
            other => panic!("expected a world, got {other:?}"),
        };
        assert_eq!(Rc::strong_count(&first), 9, "8 lanes + the local clone");
    }
}
