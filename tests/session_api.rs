//! API-equivalence suite for the Session/Evaluation surface: every builder
//! path must produce **bit-identical** results to the low-level chase
//! entry points it drives (exact and Monte-Carlo, single- and
//! multi-threaded), and the streaming statistic terminals must agree with
//! the materializing reference implementations.
//!
//! (Until 0.2.0 this suite compared the builder against the deprecated
//! `Engine::{enumerate, sample, …}` shims; those are gone, so the
//! reference side is now the public low-level functions themselves —
//! `enumerate_sequential`, `enumerate_parallel`, `run_sequential`, and
//! `McBackend::run` on a hand-built `EvalJob` — which is a strictly
//! stronger check.)

use gdatalog::engine::{enumerate_parallel, enumerate_sequential, run_sequential};
use gdatalog::pdb::{query_moments, EmpiricalSink, MarginalSink, WorldSink};
use gdatalog::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// A program with an infinite discrete support, so truncation deficits are
/// exercised by the equivalence checks too.
const GEOMETRIC: &str = "N(Geometric<0.5>) :- true. M(Geometric<0.3>) :- true.";

fn reference_exact(engine: &Engine, kind: PolicyKind, config: ExactConfig) -> PossibleWorlds {
    let mut policy = ChasePolicy::new(
        kind,
        &engine
            .program()
            .rules
            .iter()
            .filter(|r| r.is_existential())
            .map(|r| r.id)
            .collect::<Vec<_>>(),
    );
    enumerate_sequential(
        engine.program(),
        &engine.program().initial_instance,
        &mut policy,
        config,
    )
    .unwrap()
}

#[test]
fn exact_builder_bit_identical_to_enumerate_sequential() {
    for src in [BURGLARY, GEOMETRIC] {
        let engine = Engine::from_source(src, SemanticsMode::Grohe).unwrap();
        let reference = reference_exact(&engine, PolicyKind::Canonical, ExactConfig::default());
        let new = engine.eval().exact().keep_aux(true).worlds().unwrap();
        assert_eq!(reference, new, "worlds and deficits must match bit-for-bit");
        // The default builder output is exactly the projected table.
        let projected = engine.eval().exact().worlds().unwrap();
        assert_eq!(
            reference.map(|d| engine.program().project_output(d)),
            projected
        );
    }
}

#[test]
fn exact_parallel_builder_bit_identical_to_enumerate_parallel() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let reference = enumerate_parallel(
        engine.program(),
        &engine.program().initial_instance,
        ExactConfig::default(),
    )
    .unwrap();
    let new = engine
        .eval()
        .exact_parallel()
        .keep_aux(true)
        .worlds()
        .unwrap();
    assert_eq!(reference, new);
}

#[test]
fn raw_enumeration_policy_and_aux_preserved() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    for kind in [
        PolicyKind::Canonical,
        PolicyKind::Reverse,
        PolicyKind::RoundRobin,
        PolicyKind::DeterministicFirst,
    ] {
        let reference = reference_exact(&engine, kind, ExactConfig::default());
        let new = engine
            .eval()
            .exact()
            .policy(kind)
            .keep_aux(true)
            .worlds()
            .unwrap();
        assert_eq!(reference, new, "policy {kind:?}");
    }
}

#[test]
fn exact_config_knobs_flow_through_builder() {
    let src = "G(0). G(Geometric<0.5 | X>) :- G(X).";
    let engine = Engine::from_source(src, SemanticsMode::Grohe).unwrap();
    let config = ExactConfig {
        max_depth: 6,
        support_tol: 1e-4,
        min_path_prob: 1e-6,
        ..ExactConfig::default()
    };
    let reference = reference_exact(&engine, PolicyKind::Canonical, config);
    let new = engine
        .eval()
        .exact()
        .keep_aux(true)
        .max_depth(6)
        .support_tol(1e-4)
        .min_path_prob(1e-6)
        .worlds()
        .unwrap();
    assert_eq!(reference, new);
    assert!(new.deficit().nontermination > 0.0);
}

/// Every Monte-Carlo chase variant.
const VARIANTS: [ChaseVariant; 7] = [
    ChaseVariant::Sequential(PolicyKind::Canonical),
    ChaseVariant::Sequential(PolicyKind::Reverse),
    ChaseVariant::Sequential(PolicyKind::RoundRobin),
    ChaseVariant::Sequential(PolicyKind::DeterministicFirst),
    ChaseVariant::Sequential(PolicyKind::Random { seed: 8 }),
    ChaseVariant::Parallel,
    ChaseVariant::Saturating,
];

/// The Monte-Carlo reference: `McBackend::run` over an `EmpiricalSink` on
/// a hand-built `EvalJob` for the program's own initial instance.
fn reference_mc(engine: &Engine, options: &EvalOptions) -> EmpiricalPdb {
    let job = EvalJob {
        program: engine.program(),
        prepared: None,
        input: &engine.program().initial_instance,
        options,
        observes: &[],
    };
    let mut sink = EmpiricalSink::new();
    McBackend.run(&job, &mut sink).unwrap();
    sink.finish()
}

#[test]
fn mc_builder_bit_identical_to_mc_backend_single_and_multi_threaded() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    for variant in VARIANTS {
        let single = engine
            .eval()
            .sample(1_000)
            .seed(99)
            .variant(variant)
            .pdb()
            .unwrap();
        for threads in [1, 4] {
            let options = EvalOptions {
                runs: 1_000,
                seed: 99,
                threads,
                variant,
                ..EvalOptions::default()
            };
            let reference = reference_mc(&engine, &options);
            let new = engine
                .eval()
                .sample(1_000)
                .seed(99)
                .threads(threads)
                .variant(variant)
                .pdb()
                .unwrap();
            let label = format!("{variant:?} at {threads} threads");
            assert_eq!(reference.samples(), new.samples(), "{label}");
            assert_eq!(reference.errors(), new.errors(), "{label}");
            // And thread count itself never changes the result.
            assert_eq!(single.samples(), new.samples(), "{label}");
        }
    }
}

#[test]
fn mc_knobs_flow_through_builder() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let mut exhausted = 0;
    for variant in VARIANTS {
        for threads in [1, 4] {
            let options = EvalOptions {
                runs: 500,
                seed: 5,
                threads,
                variant,
                max_depth: 12,
                keep_aux: true,
                ..EvalOptions::default()
            };
            let reference = reference_mc(&engine, &options);
            let new = engine
                .eval()
                .sample(500)
                .seed(5)
                .threads(threads)
                .variant(variant)
                .max_depth(12)
                .keep_aux(true)
                .pdb()
                .unwrap();
            let label = format!("{variant:?} at {threads} threads");
            assert_eq!(reference.samples(), new.samples(), "{label}");
            assert_eq!(reference.errors(), new.errors(), "{label}");
            exhausted += new.errors();
        }
    }
    assert!(exhausted > 0, "the step budget must cut some runs");
}

#[test]
fn extra_input_equivalence_through_eval_on() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let city = engine.program().catalog.require("City").unwrap();
    let mut extra = Instance::new();
    extra.insert(city, tuple!["metropolis", 0.5]);
    let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
    let reference = enumerate_sequential(
        engine.program(),
        &engine.program().initial_instance.union(&extra),
        &mut policy,
        ExactConfig::default(),
    )
    .unwrap()
    .map(|d| engine.program().project_output(d));
    let new = engine.eval_on(Some(&extra)).worlds().unwrap();
    assert_eq!(reference, new);
    // A session with the same facts inserted answers identically.
    let mut session = Session::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    session.insert_facts(&extra);
    assert_eq!(reference, session.eval().worlds().unwrap());
}

#[test]
fn transform_equivalence_with_manual_mixture() {
    let engine = Engine::from_source(
        "rel City(symbol) input. Quake(C, Flip<0.4>) :- City(C).",
        SemanticsMode::Grohe,
    )
    .unwrap();
    let city = engine.program().catalog.require("City").unwrap();
    let mut with_city = Instance::new();
    with_city.insert(city, tuple!["gotham"]);
    let mut input = PossibleWorlds::new();
    input.add(with_city, 0.6);
    input.add(Instance::new(), 0.3);
    input.add_nontermination(0.1);
    // Theorems 4.8/5.5: the transformed SPDB is the probability-weighted
    // mixture of the per-world outputs; input deficit passes through.
    let parts: Vec<(f64, PossibleWorlds)> = input
        .iter()
        .map(|(world, p)| (p, engine.eval_on(Some(world)).worlds().unwrap()))
        .collect();
    let mut reference = PossibleWorlds::mixture(parts);
    reference.add_nontermination(input.deficit().nontermination);
    let new = engine.eval().transform(&input).unwrap();
    assert_eq!(reference, new);
    assert!(new.mass_is_consistent(1e-12));
}

#[test]
fn trace_equivalence_with_run_sequential() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let existential: Vec<usize> = engine
        .program()
        .rules
        .iter()
        .filter(|r| r.is_existential())
        .map(|r| r.id)
        .collect();
    let mut policy = ChasePolicy::new(PolicyKind::RoundRobin, &existential);
    let mut rng = StdRng::seed_from_u64(17);
    let reference = run_sequential(
        engine.program(),
        &engine.program().initial_instance,
        &mut policy,
        &mut rng,
        500,
        true,
    )
    .unwrap();
    let new = engine
        .eval()
        .policy(PolicyKind::RoundRobin)
        .seed(17)
        .max_depth(500)
        .trace()
        .unwrap();
    assert_eq!(reference.steps, new.steps);
    assert_eq!(reference.instance, new.instance);
    assert_eq!(reference.log_weight.to_bits(), new.log_weight.to_bits());
}

#[test]
fn trace_rejects_a_variant_it_would_not_trace() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    for variant in [ChaseVariant::Parallel, ChaseVariant::Saturating] {
        for eval in [engine.eval().sample(10), engine.eval()] {
            match eval.variant(variant).seed(3).trace() {
                Err(EngineError::InvalidRequest(reason)) => assert!(
                    reason.contains(&format!("the {variant:?} chase variant"))
                        && reason.contains(".sample(n)"),
                    "{reason}"
                ),
                other => panic!("{variant:?}: expected an invalid request, got {other:?}"),
            }
        }
    }
    // A sequential variant is the chase the trace records.
    let sequential = ChaseVariant::Sequential(PolicyKind::Canonical);
    let traced = engine.eval().sample(10).variant(sequential).seed(3).trace();
    assert_eq!(
        traced.unwrap().steps,
        engine.eval().seed(3).trace().unwrap().steps
    );
}

#[test]
fn streaming_marginal_agrees_with_materialized_pdb() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let alarm = engine.program().catalog.require("Alarm").unwrap();
    let fact = Fact::new(alarm, tuple!["h1"]);
    let pdb = engine.eval().sample(6_000).seed(3).pdb().unwrap();
    for threads in [1, 4] {
        let streamed = engine
            .eval()
            .sample(6_000)
            .seed(3)
            .threads(threads)
            .marginal(&fact)
            .unwrap();
        assert!(
            (streamed - pdb.marginal(&fact)).abs() < 1e-9,
            "threads {threads}"
        );
    }
}

#[test]
fn streaming_expectation_agrees_with_query_moments() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let alarm = engine.program().catalog.require("Alarm").unwrap();
    let worlds = engine.eval().worlds().unwrap();
    let q = Query::Rel(alarm).aggregate(vec![], AggFun::Count, 0);
    let reference = query_moments(&worlds, &q, 0.0).unwrap();
    let m = engine
        .eval()
        .expectation(&Query::Rel(alarm), AggFun::Count)
        .unwrap()
        .unwrap();
    assert!((m.mean - reference.mean).abs() < 1e-12);
    assert!((m.variance - reference.variance).abs() < 1e-12);
    assert!((m.mass - reference.mass).abs() < 1e-12);
}

#[test]
fn streaming_histogram_agrees_across_backends() {
    let engine = Engine::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    let quake = engine.program().catalog.require("Earthquake").unwrap();
    let exact = engine.eval().histogram(quake, 1, 0.0, 2.0, 2).unwrap();
    assert!((exact.bins[0] - 0.9).abs() < 1e-12);
    assert!((exact.bins[1] - 0.1).abs() < 1e-12);
    let mc = engine
        .eval()
        .sample(8_000)
        .seed(11)
        .threads(4)
        .histogram(quake, 1, 0.0, 2.0, 2)
        .unwrap();
    assert!((mc.bins[1] - 0.1).abs() < 0.02);
    assert!((mc.total() - 1.0).abs() < 1e-9, "one quake fact per world");
}

/// A sink that counts observations but retains nothing — used to show the
/// Monte-Carlo path truly streams: no per-run instance survives the fold.
struct CountingSink {
    observed: usize,
    deficits: usize,
}

impl WorldSink for CountingSink {
    fn observe(&mut self, world: Instance, _weight: f64) {
        // The world is dropped right here; nothing is retained.
        drop(world);
        self.observed += 1;
    }

    fn observe_deficit(&mut self, _kind: gdatalog::pdb::DeficitKind, _weight: f64) {
        self.deficits += 1;
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[test]
fn streaming_mc_holds_o_result_memory() {
    // 100k runs through a statistic sink: the only state that survives the
    // evaluation is the sink itself — a few machine words — versus the
    // O(runs · |D|) of a materialized EmpiricalPdb. The test checks the run
    // count and the sink's size, not the process's memory.
    let engine =
        Engine::from_source("R(Flip<0.5>) :- true. S(X) :- R(X).", SemanticsMode::Grohe).unwrap();
    let mut counter = CountingSink {
        observed: 0,
        deficits: 0,
    };
    engine
        .eval()
        .sample(100_000)
        .seed(1)
        .collect_into(&mut counter)
        .unwrap();
    assert_eq!(counter.observed, 100_000);
    assert_eq!(counter.deficits, 0);
    // The streaming statistic state is O(result), independent of runs.
    assert!(std::mem::size_of::<MarginalSink>() < 128);
}

#[test]
fn one_session_serves_all_query_types_over_both_backends() {
    // Acceptance criterion: one compiled session, ≥3 query types
    // (marginal, expectation, histogram), exact and MC backends.
    let mut session = Session::from_source(BURGLARY, SemanticsMode::Grohe).unwrap();
    session
        .insert_facts_text("City(metropolis, 0.2). House(h3, metropolis).")
        .unwrap();
    let alarm = session.program().catalog.require("Alarm").unwrap();
    let fact = Fact::new(alarm, tuple!["h3"]);

    let exact_p = session.eval().exact().marginal(&fact).unwrap();
    let mc_p = session
        .eval()
        .sample(6_000)
        .seed(8)
        .threads(4)
        .marginal(&fact)
        .unwrap();
    // Quake path (0.1·0.6) or burglary path (0.2·0.9) trigger h3's alarm.
    let expect = 1.0 - (1.0 - 0.1 * 0.6) * (1.0 - 0.2 * 0.9);
    assert!((exact_p - expect).abs() < 1e-12);
    assert!((mc_p - exact_p).abs() < 0.03);

    let m_exact = session
        .eval()
        .exact()
        .expectation(&Query::Rel(alarm), AggFun::Count)
        .unwrap()
        .unwrap();
    let m_mc = session
        .eval()
        .sample(6_000)
        .seed(9)
        .threads(4)
        .expectation(&Query::Rel(alarm), AggFun::Count)
        .unwrap()
        .unwrap();
    assert!((m_exact.mean - m_mc.mean).abs() < 0.06);

    let burglary = session.program().catalog.require("Burglary").unwrap();
    let h_exact = session
        .eval()
        .exact()
        .histogram(burglary, 2, 0.0, 2.0, 2)
        .unwrap();
    let h_mc = session
        .eval()
        .sample(6_000)
        .seed(10)
        .threads(4)
        .histogram(burglary, 2, 0.0, 2.0, 2)
        .unwrap();
    // Bin 1 holds E[#burgled houses] = 2·0.3 + 1·0.2.
    assert!((h_exact.bins[1] - 0.8).abs() < 1e-12);
    assert!((h_exact.bins[1] - h_mc.bins[1]).abs() < 0.06);
}
