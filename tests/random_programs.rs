//! Property-based integration tests: randomly generated *weakly acyclic
//! discrete* GDatalog programs satisfy the paper's guarantees —
//! full-mass termination (Thm. 6.3), chase-order independence (Thm. 6.1),
//! and the FD invariant (Lemma 3.10) — and the stepping loops' cached
//! `App(D)` equals the from-scratch definition after every step.
//!
//! Program shape: a layered pipeline `L0 → L1 → … → Lk` where each layer
//! either copies, flips a coin parameterized by a constant, or joins two
//! earlier layers. Layering guarantees weak acyclicity by construction.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use gdatalog::datalog::{Delta, Term};
use gdatalog::engine::saturate::applicable_existential_pairs;
use gdatalog::engine::{applicable_pairs, AppPair, ChaseState};
use gdatalog::lang::{CompiledProgram, RuleKind};
use gdatalog::prelude::*;

#[derive(Debug, Clone)]
enum LayerKind {
    Copy,
    Coin(u8),     // bias in percent, 1..=99
    JoinPrevious, // join with layer k-2 (if any)
}

fn arb_layer() -> impl Strategy<Value = LayerKind> {
    prop_oneof![
        2 => Just(LayerKind::Copy),
        3 => (1u8..=99).prop_map(LayerKind::Coin),
        1 => Just(LayerKind::JoinPrevious),
    ]
}

/// Renders the layered program. `L0` is seeded with `seeds` facts.
fn render(layers: &[LayerKind], seeds: u8) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in 0..seeds.max(1) {
        let _ = writeln!(out, "L0({s}).");
    }
    for (i, layer) in layers.iter().enumerate() {
        let prev = i; // layer i reads L{i}, writes L{i+1}
        let cur = i + 1;
        match layer {
            LayerKind::Copy => {
                let _ = writeln!(out, "L{cur}(X) :- L{prev}(X).");
            }
            LayerKind::Coin(pct) => {
                let p = f64::from(*pct) / 100.0;
                let _ = writeln!(out, "L{cur}(Flip<{p} | X>) :- L{prev}(X).");
            }
            LayerKind::JoinPrevious => {
                if prev >= 1 {
                    let _ = writeln!(out, "L{cur}(X) :- L{prev}(X), L{}(X).", prev - 1);
                } else {
                    let _ = writeln!(out, "L{cur}(X) :- L{prev}(X).");
                }
            }
        }
    }
    out
}

/// The fact firing `pair` inserts: the deterministic head, or the
/// auxiliary fact (key values, then `outcomes`).
fn fired_fact(program: &CompiledProgram, pair: &AppPair, outcomes: &[Value]) -> Fact {
    let eval = |t: &Term| match t {
        Term::Const(c) => c.clone(),
        Term::Var(v) => pair.valuation[*v].clone(),
    };
    match &program.rules[pair.rule].kind {
        RuleKind::Deterministic { head } => {
            Fact::new(head.rel, head.args.iter().map(eval).collect())
        }
        RuleKind::Existential(e) => {
            let mut values: Vec<Value> = e.key_terms.iter().map(eval).collect();
            values.extend(outcomes.iter().cloned());
            Fact::new(e.aux_rel, Tuple::from(values))
        }
    }
}

/// Fresh outcomes of an existential pair, one per sample spec.
fn sample_outcomes(program: &CompiledProgram, pair: &AppPair, rng: &mut StdRng) -> Vec<Value> {
    let RuleKind::Existential(e) = &program.rules[pair.rule].kind else {
        return Vec::new();
    };
    e.samples
        .iter()
        .map(|spec| {
            let params: Vec<Value> = spec
                .param_terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => pair.valuation[*v].clone(),
                })
                .collect();
            spec.dist.sample(&params, rng).expect("valid parameters")
        })
        .collect()
}

/// Asserts that `state`'s cached `App(D)` equals the from-scratch oracle
/// and returns it.
fn checked_app(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    state: &mut ChaseState,
) -> Result<Vec<AppPair>, TestCaseError> {
    let expect = applicable_pairs(program, state.instance());
    let got = state.app(prepared, program).to_vec();
    prop_assert!(
        got == expect,
        "cached App(D) diverged at {} facts",
        state.instance().len()
    );
    Ok(got)
}

/// Drives a sequential chase from `state` under `policy`, checking the
/// cache before every step. `draw` gives each existential firing's
/// outcomes. With `split`, stops *before* the first existential firing and
/// returns its pair.
fn chase_checked(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    state: &mut ChaseState,
    policy: &mut ChasePolicy,
    draw: &mut dyn FnMut(&AppPair) -> Vec<Value>,
    split: bool,
) -> Result<Option<AppPair>, TestCaseError> {
    for _ in 0..10_000 {
        let app = checked_app(program, prepared, state)?;
        if app.is_empty() {
            return Ok(None);
        }
        let pair = app[policy.select(&app)].clone();
        let existential = program.rules[pair.rule].is_existential();
        if split && existential {
            return Ok(Some(pair));
        }
        let outcomes = if existential { draw(&pair) } else { Vec::new() };
        let fact = fired_fact(program, &pair, &outcomes);
        state.insert(prepared, fact.rel, fact.tuple);
    }
    Err(TestCaseError::fail("layered program did not terminate"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cached `App(D)` of every stepping loop equals the from-scratch
    /// [`applicable_pairs`] after every step, under both semantics: under
    /// each deterministic policy, in the saturating chase, across a
    /// lane-group split, and in a Metropolis-Hastings replay from a cloned
    /// snapshot.
    #[test]
    fn cached_app_matches_the_scratch_oracle(
        layers in proptest::collection::vec(arb_layer(), 1..5),
        seeds in 1u8..4,
        seed in 0u64..1_000,
        barany in 0u8..2,
    ) {
        let src = render(&layers, seeds);
        // Bárány semantics shares auxiliary relations between rules.
        let mode = if barany == 1 { SemanticsMode::Barany } else { SemanticsMode::Grohe };
        let engine = Engine::from_source(&src, mode)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        let program = engine.program();
        let prepared = PreparedProgram::new(program);
        let existential: Vec<usize> = program
            .rules
            .iter()
            .filter(|r| r.is_existential())
            .map(|r| r.id)
            .collect();
        let start = || ChaseState::new(&prepared, program, program.initial_instance.clone());

        for kind in [
            PolicyKind::Canonical,
            PolicyKind::Reverse,
            PolicyKind::RoundRobin,
            PolicyKind::DeterministicFirst,
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut policy = ChasePolicy::new(kind, &existential);
            let mut state = start();
            chase_checked(
                program, &prepared, &mut state, &mut policy,
                &mut |pair| sample_outcomes(program, pair, &mut rng), false,
            )?;
        }

        // The saturating chase: existential rules only, all re-enumerated
        // after a saturation pass that derives facts.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state =
            ChaseState::existential(&prepared, program, program.initial_instance.clone());
        state.saturate(&prepared, None);
        loop {
            let expect = applicable_existential_pairs(program, state.instance());
            let app = state.app(&prepared, program).to_vec();
            prop_assert!(app == expect, "saturating cache diverged on\n{src}");
            let Some(pair) = app.first() else { break };
            let fact = fired_fact(program, pair, &sample_outcomes(program, pair, &mut rng));
            if state.insert(&prepared, fact.rel, fact.tuple.clone()) {
                state.saturate(&prepared, Some(Delta::single(fact.rel, fact.tuple)));
            }
        }

        // A lane-group split: two groups continue from one cloned state,
        // each firing a different outcome of the first experiment.
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &existential);
        let mut state = start();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |pair: &AppPair| sample_outcomes(program, pair, &mut rng);
        if let Some(pair) = chase_checked(program, &prepared, &mut state, &mut policy, &mut draw, true)? {
            for outcome in [0i64, 1] {
                let mut group = state.clone();
                let mut group_policy = policy.clone();
                let fact = fired_fact(program, &pair, &[Value::int(outcome)]);
                group.insert(&prepared, fact.rel, fact.tuple);
                chase_checked(program, &prepared, &mut group, &mut group_policy, &mut draw, false)?;
            }
        }

        // A Metropolis-Hastings replay: record a run's draws by site, then
        // replay from a clone of the same snapshot, redrawing one site.
        let mut snapshot = start();
        checked_app(program, &prepared, &mut snapshot)?;
        let mut sites: HashMap<(usize, Tuple), Vec<Value>> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &existential);
        chase_checked(
            program, &prepared, &mut snapshot.clone(), &mut policy,
            &mut |pair| {
                let outcomes = sample_outcomes(program, pair, &mut rng);
                sites.insert((pair.rule, fired_fact(program, pair, &[]).tuple), outcomes.clone());
                outcomes
            },
            false,
        )?;
        let resample = sites.keys().min().cloned();
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &existential);
        chase_checked(
            program, &prepared, &mut snapshot.clone(), &mut policy,
            &mut |pair| {
                let site = (pair.rule, fired_fact(program, pair, &[]).tuple);
                match sites.get(&site) {
                    Some(recorded) if Some(&site) != resample.as_ref() => recorded.clone(),
                    _ => sample_outcomes(program, pair, &mut rng),
                }
            },
            false,
        )?;
    }

    #[test]
    fn random_layered_programs_obey_the_paper(
        layers in proptest::collection::vec(arb_layer(), 1..4),
        seeds in 1u8..3,
    ) {
        let src = render(&layers, seeds);
        let engine = Engine::from_source(&src, SemanticsMode::Grohe)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;

        // Layered ⇒ weakly acyclic.
        prop_assert!(engine.program().weakly_acyclic(), "program:\n{src}");

        // Thm. 6.3: exact enumeration completes with full mass.
        let reference = engine
            .eval().exact().worlds()
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        prop_assert!(
            (reference.mass() - 1.0).abs() < 1e-9,
            "mass {} for\n{src}",
            reference.mass()
        );

        // Thm. 6.1: policy independence + parallel agreement.
        for kind in [PolicyKind::Reverse, PolicyKind::Random { seed: 3 }] {
            let w = engine
                .eval().exact().policy(kind).keep_aux(true).worlds()
                .unwrap()
                .map(|d| engine.program().project_output(d));
            prop_assert!(reference.total_variation(&w) < 1e-9, "{kind:?} on\n{src}");
        }
        let par = engine.eval().exact_parallel().worlds().unwrap();
        prop_assert!(reference.total_variation(&par) < 1e-9, "parallel on\n{src}");

        // Lemma 3.10 in every world of the raw table.
        let raw = engine
            .eval().exact().policy(PolicyKind::Canonical).keep_aux(true).worlds()
            .unwrap();
        for (world, _) in raw.iter() {
            for fd in &engine.program().fds {
                prop_assert!(fd.check(world).is_ok(), "FD violated in\n{src}");
            }
        }
    }

    /// Both semantics agree on programs where every random rule has a
    /// unique (distribution, parameter, tag) signature — the sample-once
    /// keys then coincide.
    #[test]
    fn semantics_agree_when_signatures_are_unique(
        biases in proptest::collection::vec(1u8..=99, 1..4),
    ) {
        use std::fmt::Write as _;
        let mut src = String::new();
        let mut distinct: Vec<u8> = biases;
        distinct.sort_unstable();
        distinct.dedup();
        for (i, b) in distinct.iter().enumerate() {
            let p = f64::from(*b) / 100.0;
            let _ = writeln!(src, "R{i}(Flip<{p}>) :- true.");
        }
        let a = Engine::from_source(&src, SemanticsMode::Grohe).unwrap();
        let b = Engine::from_source(&src, SemanticsMode::Barany).unwrap();
        let wa = a.eval().exact().worlds().unwrap();
        let wb = b.eval().exact().worlds().unwrap();
        // Compare by canonical text (catalogs differ between engines).
        let ta = wa.table(&a.program().catalog);
        let tb = wb.table(&b.program().catalog);
        prop_assert_eq!(ta.len(), tb.len());
        for ((sa, pa), (sb, pb)) in ta.iter().zip(&tb) {
            prop_assert_eq!(sa, sb);
            prop_assert!((pa - pb).abs() < 1e-12);
        }
    }
}
