//! Pinned chase runs: the digests below were recorded from the stepping
//! loops as they stood before they shared one chase stepper — the scalar
//! runs of every policy and variant, the sampling kernels iterated to
//! absorption, and the Monte-Carlo and Metropolis-Hastings streams. A run
//! is summarized by an FNV-1a digest of its world's canonical text, its
//! outcome, its step count, the bits of its log-weight and every trace
//! step; a stream by a digest of every observation it emits, in order.
//! Any change to a draw, a selection, a step count or the firing order
//! shows here.

use std::any::Any;

use gdatalog_core::parallel::run_parallel_prepared;
use gdatalog_core::saturate::run_saturating_prepared;
use gdatalog_core::sequential::run_sequential_prepared;
use gdatalog_core::{
    ChasePolicy, ChaseRun, ChaseVariant, Engine, ParallelKernel, PolicyKind, PreparedProgram,
    SequentialKernel, StepKernel,
};
use gdatalog_data::{canonical_text, Instance};
use gdatalog_lang::{CompiledProgram, SemanticsMode};
use gdatalog_pdb::{DeficitKind, WorldSink};
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

/// Ex. 3.5 with eight people, half per country.
const HEIGHTS_8: &str = r#"
    rel PCountry(symbol, symbol) input.
    rel CMoments(symbol, real, real) input.
    CMoments(nl, 183.8, 49.0).
    CMoments(pe, 165.2, 36.0).
    PCountry(p0, nl). PCountry(p1, pe). PCountry(p2, nl). PCountry(p3, pe).
    PCountry(p4, nl). PCountry(p5, pe). PCountry(p6, nl). PCountry(p7, pe).
    PHeight(P, Normal<Mu, S2>) :- PCountry(P, C), CMoments(C, Mu, S2).
"#;

/// Under Bárány semantics both rules demand one (Flip, 0.5) experiment.
const SHARED: &str = "R(Flip<0.5>) :- true. S(Flip<0.5>) :- true. T(X) :- R(X), S(X).";

/// An a.s. non-terminating chain: every run exhausts its budget.
const RECURSIVE: &str = "C(0.0). C(Normal<V, 1.0>) :- C(V).";

/// A discrete chain that ends once a value repeats: at a budget of 8
/// steps, some runs terminate and the others exhaust it.
const TAGGED_CHAIN: &str = "G(0). G(Geometric<0.5 | X>) :- G(X).";

/// `(name, source, semantics, step budget, evidence)` of every program.
const PROGRAMS: [(&str, &str, SemanticsMode, usize, &str); 5] = [
    (
        "burglary",
        BURGLARY,
        SemanticsMode::Grohe,
        10_000,
        "Alarm(h1).",
    ),
    (
        "heights-8",
        HEIGHTS_8,
        SemanticsMode::Grohe,
        10_000,
        "Normal<H, 5.0> == 180.0 :- PHeight(p0, H).",
    ),
    ("shared", SHARED, SemanticsMode::Barany, 10_000, "T(1)."),
    ("recursive", RECURSIVE, SemanticsMode::Grohe, 30, "C(0.0)."),
    (
        "tagged chain",
        TAGGED_CHAIN,
        SemanticsMode::Grohe,
        8,
        "G(1).",
    ),
];

const POLICIES: [(&str, PolicyKind); 5] = [
    ("canonical", PolicyKind::Canonical),
    ("reverse", PolicyKind::Reverse),
    ("round-robin", PolicyKind::RoundRobin),
    ("random", PolicyKind::Random { seed: 17 }),
    ("deterministic-first", PolicyKind::DeterministicFirst),
];

const VARIANTS: [(&str, ChaseVariant); 7] = [
    ("canonical", ChaseVariant::Sequential(PolicyKind::Canonical)),
    ("reverse", ChaseVariant::Sequential(PolicyKind::Reverse)),
    (
        "round-robin",
        ChaseVariant::Sequential(PolicyKind::RoundRobin),
    ),
    (
        "random",
        ChaseVariant::Sequential(PolicyKind::Random { seed: 17 }),
    ),
    (
        "deterministic-first",
        ChaseVariant::Sequential(PolicyKind::DeterministicFirst),
    ),
    ("parallel", ChaseVariant::Parallel),
    ("saturating", ChaseVariant::Saturating),
];

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }
}

fn existential(program: &CompiledProgram) -> Vec<usize> {
    program
        .rules
        .iter()
        .filter(|r| r.is_existential())
        .map(|r| r.id)
        .collect()
}

/// Folds one run into `h`: world, outcome, steps, log-weight, trace.
fn fold_run(h: &mut Fnv, engine: &Engine, run: &ChaseRun) {
    h.text(&canonical_text(&run.instance, &engine.program().catalog));
    h.text(&format!("{:?}", run.outcome));
    h.u64(run.steps as u64);
    h.u64(run.log_weight.to_bits());
    h.u64(run.trace.len() as u64);
    for step in &run.trace {
        h.text(&format!("{step:?}"));
        h.u64(step.log_density.to_bits());
    }
}

/// The scalar runs of one program: four seeds in a row on one policy
/// object per policy (so round-robin and random carry their state into
/// the later calls), then the parallel and saturating chases.
fn scalar_lines(name: &str, src: &str, mode: SemanticsMode, max_steps: usize) -> Vec<String> {
    let engine = Engine::from_source(src, mode).expect("compiles");
    let program = engine.program();
    let prepared = PreparedProgram::new(program);
    let input = &program.initial_instance;
    let mut lines = Vec::new();
    for (policy_name, kind) in POLICIES {
        let mut policy = ChasePolicy::new(kind, &existential(program));
        let mut h = Fnv::new();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let run = run_sequential_prepared(
                program,
                &prepared,
                input,
                &mut policy,
                &mut rng,
                max_steps,
                true,
            )
            .expect("runs");
            fold_run(&mut h, &engine, &run);
        }
        lines.push(format!("{name} sequential {policy_name}: {:016x}", h.0));
    }
    let mut parallel = Fnv::new();
    let mut saturating = Fnv::new();
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_parallel_prepared(program, &prepared, input, &mut rng, max_steps, true)
            .expect("runs");
        fold_run(&mut parallel, &engine, &run);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_saturating_prepared(program, &prepared, input, &mut rng, max_steps, true)
            .expect("runs");
        fold_run(&mut saturating, &engine, &run);
    }
    lines.push(format!("{name} parallel: {:016x}", parallel.0));
    lines.push(format!("{name} saturating: {:016x}", saturating.0));
    lines
}

/// Iterates `kernel` from the input for three seeds until it absorbs or
/// takes `max_steps` steps, folding every visited instance.
fn kernel_digest(engine: &Engine, kernel: &mut dyn StepKernel, max_steps: usize) -> u64 {
    let program = engine.program();
    let mut h = Fnv::new();
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = program.initial_instance.clone();
        let mut steps = 0;
        while steps < max_steps {
            match kernel.sample_step(&state, &mut rng).expect("steps") {
                Some(next) => state = next,
                None => break,
            }
            steps += 1;
            h.text(&canonical_text(&state, &program.catalog));
        }
        h.u64(steps as u64);
    }
    h.0
}

fn kernel_lines(name: &str, src: &str, mode: SemanticsMode, max_steps: usize) -> Vec<String> {
    let engine = Engine::from_source(src, mode).expect("compiles");
    let program = engine.program();
    let mut lines = Vec::new();
    for (policy_name, kind) in POLICIES {
        let policy = ChasePolicy::new(kind, &existential(program));
        let mut kernel = SequentialKernel::new(program, policy);
        let digest = kernel_digest(&engine, &mut kernel, max_steps);
        lines.push(format!("{name} kernel {policy_name}: {digest:016x}"));
    }
    let digest = kernel_digest(&engine, &mut ParallelKernel::new(program), max_steps);
    lines.push(format!("{name} kernel parallel: {digest:016x}"));
    lines
}

/// A sink that records every observation it receives, in stream order;
/// forks record their chunk, joined back in chunk order.
#[derive(Default)]
struct Recorder {
    events: Vec<String>,
    catalog: Option<gdatalog_data::Catalog>,
}

impl Recorder {
    fn world(&mut self, kind: &str, world: &Instance, weight: f64) {
        let catalog = self.catalog.as_ref().expect("a catalog");
        self.events.push(format!(
            "{kind} {:016x} {}",
            weight.to_bits(),
            canonical_text(world, catalog)
        ));
    }
}

impl WorldSink for Recorder {
    fn observe(&mut self, world: Instance, weight: f64) {
        self.world("world", &world, weight);
    }

    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        self.world("log", &world, log_weight);
    }

    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64) {
        self.events
            .push(format!("deficit {kind:?} {:016x}", weight.to_bits()));
    }

    fn rescale(&mut self, factor: f64) {
        self.events
            .push(format!("rescale {:016x}", factor.to_bits()));
    }

    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        Some(Box::new(Recorder {
            events: Vec::new(),
            catalog: self.catalog.clone(),
        }))
    }

    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let other = forked
            .into_any()
            .downcast::<Recorder>()
            .expect("a recorder");
        self.events.extend(other.events);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Digest of a recorded stream, or of the error that ended it.
fn stream_digest(recorder: Recorder, result: Result<(), gdatalog_core::EngineError>) -> String {
    let mut h = Fnv::new();
    for event in &recorder.events {
        h.text(event);
    }
    match result {
        Ok(()) => format!("{} events {:016x}", recorder.events.len(), h.0),
        Err(err) => format!("{} events {:016x} then {err}", recorder.events.len(), h.0),
    }
}

/// The Monte-Carlo streams of one program: every variant at batch 64 on
/// two threads, with and without evidence; then an MH chain under the
/// evidence.
fn stream_lines(
    name: &str,
    src: &str,
    mode: SemanticsMode,
    max_steps: usize,
    given: &str,
) -> Vec<String> {
    let engine = Engine::from_source(src, mode).expect("compiles");
    let recorder = || Recorder {
        events: Vec::new(),
        catalog: Some(engine.program().catalog.clone()),
    };
    let mut lines = Vec::new();
    for (variant_name, variant) in VARIANTS {
        for evidence in ["", given] {
            let mut eval = engine
                .eval()
                .sample(64 * 3)
                .variant(variant)
                .batch(64)
                .threads(2)
                .seed(5)
                .max_depth(max_steps)
                .keep_aux(true);
            if !evidence.is_empty() {
                eval = eval.given(evidence);
            }
            let mut sink = recorder();
            let result = eval.collect_into(&mut sink);
            let conditioned = if evidence.is_empty() { "" } else { " given" };
            lines.push(format!(
                "{name} stream {variant_name}{conditioned}: {}",
                stream_digest(sink, result)
            ));
        }
    }
    let eval = engine
        .eval()
        .mh(150)
        .burn_in(20)
        .seed(9)
        .max_depth(max_steps)
        .keep_aux(true)
        .given(given);
    let mut sink = recorder();
    let result = eval.collect_into(&mut sink);
    lines.push(format!("{name} mh given: {}", stream_digest(sink, result)));
    lines
}

#[test]
fn scalar_runs_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (name, src, mode, max_steps, _) in PROGRAMS {
        actual.extend(scalar_lines(name, src, mode, max_steps));
    }
    let expected = [
        "burglary sequential canonical: 07196d21bdccc0ba",
        "burglary sequential reverse: 7f1e2dffa0f6a287",
        "burglary sequential round-robin: d91d6db7279ab57a",
        "burglary sequential random: e9c9f90bb8940501",
        "burglary sequential deterministic-first: 866dbd81800d649e",
        "burglary parallel: 48ef23973827059f",
        "burglary saturating: 98adc8eb76ca9267",
        "heights-8 sequential canonical: 96f643daad1095fe",
        "heights-8 sequential reverse: 4ba587c81bf328e5",
        "heights-8 sequential round-robin: af46e7bab6a17952",
        "heights-8 sequential random: 6d255a413e514acf",
        "heights-8 sequential deterministic-first: af46e7bab6a17952",
        "heights-8 parallel: 379ec2a554cf046e",
        "heights-8 saturating: 787d4ed3082b9861",
        "shared sequential canonical: 8a07425e418d7f05",
        "shared sequential reverse: 156a58f1c0fc9c91",
        "shared sequential round-robin: 8a07425e418d7f05",
        "shared sequential random: 8c35130882e08163",
        "shared sequential deterministic-first: 8a07425e418d7f05",
        "shared parallel: 9bb7ed0ac10c8b19",
        "shared saturating: d9c2dd7655a96c61",
        "recursive sequential canonical: 8ff84a290dc9e4c1",
        "recursive sequential reverse: 8ff84a290dc9e4c1",
        "recursive sequential round-robin: 8ff84a290dc9e4c1",
        "recursive sequential random: 8ff84a290dc9e4c1",
        "recursive sequential deterministic-first: 8ff84a290dc9e4c1",
        "recursive parallel: 8ff84a290dc9e4c1",
        "recursive saturating: c2af343fa5ff147f",
        "tagged chain sequential canonical: 826b0cce11dbb790",
        "tagged chain sequential reverse: 826b0cce11dbb790",
        "tagged chain sequential round-robin: 826b0cce11dbb790",
        "tagged chain sequential random: 826b0cce11dbb790",
        "tagged chain sequential deterministic-first: 826b0cce11dbb790",
        "tagged chain parallel: 826b0cce11dbb790",
        "tagged chain saturating: 9f6887b958080be8",
    ];
    assert_eq!(actual, expected);
}

#[test]
fn kernel_paths_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (name, src, mode, max_steps, _) in PROGRAMS {
        actual.extend(kernel_lines(name, src, mode, max_steps));
    }
    let expected = [
        "burglary kernel canonical: 97a0e0b27e6adb2a",
        "burglary kernel reverse: 4f789dc5c2f0ee3d",
        "burglary kernel round-robin: 354425af96c919a8",
        "burglary kernel random: 79778cfe0d64b1ff",
        "burglary kernel deterministic-first: 0c0d40ce2ec49731",
        "burglary kernel parallel: e1b14354c2a4e590",
        "heights-8 kernel canonical: a428c8106dcb382f",
        "heights-8 kernel reverse: 138568655d05cbb5",
        "heights-8 kernel round-robin: 5496d9784e392b0b",
        "heights-8 kernel random: 8f3e1f325979acd5",
        "heights-8 kernel deterministic-first: 5496d9784e392b0b",
        "heights-8 kernel parallel: fee3b9749644f343",
        "shared kernel canonical: de87c9d4d57758ef",
        "shared kernel reverse: 2289081780a13aa4",
        "shared kernel round-robin: de87c9d4d57758ef",
        "shared kernel random: 9a174b267aad5e87",
        "shared kernel deterministic-first: de87c9d4d57758ef",
        "shared kernel parallel: f4661cdef61bd3bd",
        "recursive kernel canonical: 5e648d1614808941",
        "recursive kernel reverse: 5e648d1614808941",
        "recursive kernel round-robin: 5e648d1614808941",
        "recursive kernel random: 5e648d1614808941",
        "recursive kernel deterministic-first: 5e648d1614808941",
        "recursive kernel parallel: 5e648d1614808941",
        "tagged chain kernel canonical: bb40d663b2127fcd",
        "tagged chain kernel reverse: bb40d663b2127fcd",
        "tagged chain kernel round-robin: bb40d663b2127fcd",
        "tagged chain kernel random: bb40d663b2127fcd",
        "tagged chain kernel deterministic-first: bb40d663b2127fcd",
        "tagged chain kernel parallel: bb40d663b2127fcd",
    ];
    assert_eq!(actual, expected);
}

#[test]
fn streams_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (name, src, mode, max_steps, given) in PROGRAMS {
        actual.extend(stream_lines(name, src, mode, max_steps, given));
    }
    let expected = [
        "burglary stream canonical: 192 events c7ce4182b940d0b4",
        "burglary stream canonical given: 63 events 9d6105a0dcb2591b",
        "burglary stream reverse: 192 events 98db452cbb5909e5",
        "burglary stream reverse given: 64 events dbe231e6c453f7e4",
        "burglary stream round-robin: 192 events 1e4c9aafdef134e5",
        "burglary stream round-robin given: 62 events 3edea120624fc22c",
        "burglary stream random: 192 events 1cd112206a6db88a",
        "burglary stream random given: 59 events bec488dfda7466b1",
        "burglary stream deterministic-first: 192 events c7ce4182b940d0b4",
        "burglary stream deterministic-first given: 63 events 9d6105a0dcb2591b",
        "burglary stream parallel: 192 events c7ce4182b940d0b4",
        "burglary stream parallel given: 63 events 9d6105a0dcb2591b",
        "burglary stream saturating: 192 events c7ce4182b940d0b4",
        "burglary stream saturating given: 63 events 9d6105a0dcb2591b",
        "burglary mh given: 150 events 064541be667bbe92",
        "heights-8 stream canonical: 192 events 7ed5a1aa2fccee71",
        "heights-8 stream canonical given: 192 events b4c66635caa3ec8b",
        "heights-8 stream reverse: 192 events 4beabc6d2a1fa6a7",
        "heights-8 stream reverse given: 192 events a9f11b715c826817",
        "heights-8 stream round-robin: 192 events 7ed5a1aa2fccee71",
        "heights-8 stream round-robin given: 192 events b4c66635caa3ec8b",
        "heights-8 stream random: 192 events 3acc94c63154cfd9",
        "heights-8 stream random given: 192 events 02935e6386679d20",
        "heights-8 stream deterministic-first: 192 events 7ed5a1aa2fccee71",
        "heights-8 stream deterministic-first given: 192 events b4c66635caa3ec8b",
        "heights-8 stream parallel: 192 events 7ed5a1aa2fccee71",
        "heights-8 stream parallel given: 192 events b4c66635caa3ec8b",
        "heights-8 stream saturating: 192 events 7ed5a1aa2fccee71",
        "heights-8 stream saturating given: 192 events b4c66635caa3ec8b",
        "heights-8 mh given: 150 events 6298d8f85e11001f",
        "shared stream canonical: 192 events aaabaa2057964835",
        "shared stream canonical given: 83 events af037656b5b37d37",
        "shared stream reverse: 192 events aaabaa2057964835",
        "shared stream reverse given: 83 events af037656b5b37d37",
        "shared stream round-robin: 192 events aaabaa2057964835",
        "shared stream round-robin given: 83 events af037656b5b37d37",
        "shared stream random: 192 events aaabaa2057964835",
        "shared stream random given: 83 events af037656b5b37d37",
        "shared stream deterministic-first: 192 events aaabaa2057964835",
        "shared stream deterministic-first given: 83 events af037656b5b37d37",
        "shared stream parallel: 192 events aaabaa2057964835",
        "shared stream parallel given: 83 events af037656b5b37d37",
        "shared stream saturating: 192 events aaabaa2057964835",
        "shared stream saturating given: 83 events af037656b5b37d37",
        "shared mh given: 150 events 33a020fe3e11de31",
        "recursive stream canonical: 192 events 0c4a61e01223b225",
        "recursive stream canonical given: 0 events cbf29ce484222325",
        "recursive stream reverse: 192 events 0c4a61e01223b225",
        "recursive stream reverse given: 0 events cbf29ce484222325",
        "recursive stream round-robin: 192 events 0c4a61e01223b225",
        "recursive stream round-robin given: 0 events cbf29ce484222325",
        "recursive stream random: 192 events 0c4a61e01223b225",
        "recursive stream random given: 0 events cbf29ce484222325",
        "recursive stream deterministic-first: 192 events 0c4a61e01223b225",
        "recursive stream deterministic-first given: 0 events cbf29ce484222325",
        "recursive stream parallel: 192 events 0c4a61e01223b225",
        "recursive stream parallel given: 0 events cbf29ce484222325",
        "recursive stream saturating: 192 events 0c4a61e01223b225",
        "recursive stream saturating given: 0 events cbf29ce484222325",
        "recursive mh given: 0 events cbf29ce484222325 then conditioning rejected all probability mass (the evidence has probability ≈ 0 under this program — for Monte-Carlo, consider more runs or soft observations)",
        "tagged chain stream canonical: 192 events 2848a87c170b6b2a",
        "tagged chain stream canonical given: 58 events 0c28a8839cec3dfb",
        "tagged chain stream reverse: 192 events 2848a87c170b6b2a",
        "tagged chain stream reverse given: 58 events 0c28a8839cec3dfb",
        "tagged chain stream round-robin: 192 events 2848a87c170b6b2a",
        "tagged chain stream round-robin given: 58 events 0c28a8839cec3dfb",
        "tagged chain stream random: 192 events 2848a87c170b6b2a",
        "tagged chain stream random given: 58 events 0c28a8839cec3dfb",
        "tagged chain stream deterministic-first: 192 events 2848a87c170b6b2a",
        "tagged chain stream deterministic-first given: 58 events 0c28a8839cec3dfb",
        "tagged chain stream parallel: 192 events 2848a87c170b6b2a",
        "tagged chain stream parallel given: 58 events 0c28a8839cec3dfb",
        "tagged chain stream saturating: 192 events 2848a87c170b6b2a",
        "tagged chain stream saturating given: 58 events 0c28a8839cec3dfb",
        "tagged chain mh given: 150 events 51119b0e1a9e3f41",
    ];
    assert_eq!(actual, expected);
}
