//! Acceptance suite for batched Monte-Carlo execution: the lane width of
//! the lane-group executor (`--batch`) is a pure throughput knob. For
//! every batch size, worker count, and conditioning mode the observed
//! world stream is **bit-identical** to the one-lane, one-worker reference
//! (`batch(1)`, where every run is a lane group of its own) under the
//! same seed, ESS-targeted adaptive sampling included; and a deadline can
//! only fire between lane batches, never corrupt one mid-flight.

use std::any::Any;
use std::time::{Duration, Instant};

use gdatalog::pdb::DeficitKind;
use gdatalog::prelude::*;

/// A discrete/continuous mix with a branchy chase: lane groups split on
/// `Quake`, split again on `Alarm`, and diverge on the `Mag` draw.
const MIXED: &str = r#"
    Quake(Flip<0.2>) :- true.
    Mag(Normal<5.0, 1.0>) :- Quake(1).
    Alarm(Flip<0.7>) :- Quake(1).
    Alarm(Flip<0.1>) :- Quake(0).
"#;

/// One recorded sink call, weights compared bit-for-bit (`f64` equality is
/// deliberate: every lane width must replay the exact `batch(1)` stream).
#[derive(Debug, Clone, PartialEq)]
enum Obs {
    World(Instance, f64),
    LogWorld(Instance, f64),
    Deficit(DeficitKind, f64),
}

/// Records every observation in stream order; forks per worker and joins
/// in chunk order, so the recorded sequence is the run-order stream
/// regardless of the worker count.
#[derive(Default)]
struct RecordingSink {
    obs: Vec<Obs>,
}

impl RecordingSink {
    fn forked(&self) -> RecordingSink {
        RecordingSink::default()
    }

    fn absorb(&mut self, other: RecordingSink) {
        self.obs.extend(other.obs);
    }
}

impl WorldSink for RecordingSink {
    fn observe(&mut self, world: Instance, weight: f64) {
        self.obs.push(Obs::World(world, weight));
    }

    fn observe_ref(&mut self, world: &Instance, weight: f64) {
        self.obs.push(Obs::World(world.clone(), weight));
    }

    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        self.obs.push(Obs::LogWorld(world, log_weight));
    }

    fn observe_log_ref(&mut self, world: &Instance, log_weight: f64) {
        self.obs.push(Obs::LogWorld(world.clone(), log_weight));
    }

    fn observe_deficit(&mut self, kind: DeficitKind, weight: f64) {
        self.obs.push(Obs::Deficit(kind, weight));
    }

    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        Some(Box::new(self.forked()))
    }

    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let other = forked
            .into_any()
            .downcast::<RecordingSink>()
            .expect("join requires a RecordingSink");
        self.absorb(*other);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Streams `runs` Monte-Carlo runs of `MIXED` into a recording sink.
fn stream(
    session: &Session,
    seed: u64,
    runs: usize,
    batch: usize,
    threads: usize,
    given: Option<&str>,
) -> Vec<Obs> {
    let mut eval = session
        .eval()
        .sample(runs)
        .seed(seed)
        .batch(batch)
        .threads(threads);
    if let Some(evidence) = given {
        eval = eval.given(evidence);
    }
    let mut sink = RecordingSink::default();
    eval.collect_into(&mut sink).unwrap();
    sink.obs
}

/// The tentpole gate: for seeds × batch {1, 7, 64} × workers {1, 2, 4} ×
/// {unconditioned, conditioned}, the observed stream equals the scalar
/// single-worker reference **exactly** — same worlds, same weights, same
/// order.
#[test]
fn batched_stream_is_bit_identical_to_scalar_across_matrix() {
    let session = Session::from_source(MIXED, SemanticsMode::Grohe).unwrap();
    const RUNS: usize = 400;
    for seed in [0u64, 9, 1234] {
        for given in [None, Some("Alarm(1).")] {
            let reference = stream(&session, seed, RUNS, 1, 1, given);
            assert!(!reference.is_empty());
            for batch in [1usize, 7, 64] {
                for threads in [1usize, 2, 4] {
                    let got = stream(&session, seed, RUNS, batch, threads, given);
                    assert_eq!(
                        got, reference,
                        "seed {seed} given {given:?}: batch {batch} × {threads} workers \
                         diverged from the scalar stream"
                    );
                }
            }
        }
    }
}

/// Conditioned streams drop rejected runs, so the recorded stream is a
/// strict subset of the run range — and still identical across the matrix
/// (previous test). Sanity-check the reference shapes here.
#[test]
fn conditioned_reference_stream_drops_rejected_runs() {
    let session = Session::from_source(MIXED, SemanticsMode::Grohe).unwrap();
    let unconditioned = stream(&session, 9, 400, 1, 1, None);
    let conditioned = stream(&session, 9, 400, 1, 1, Some("Alarm(1)."));
    assert_eq!(unconditioned.len(), 400);
    assert!(!conditioned.is_empty());
    assert!(
        conditioned.len() < 400,
        "hard evidence must reject some runs"
    );
    for obs in &conditioned {
        assert!(matches!(obs, Obs::LogWorld(_, lw) if lw.is_finite()));
    }
}

/// ESS-targeted adaptive sampling grows in whole lane batches; with a
/// first batch that every lane size divides, the schedule — and therefore
/// every answer and the evidence summary — is identical across batch
/// sizes at a fixed worker count.
#[test]
fn adaptive_ess_answers_are_invariant_to_batch_size() {
    let session = Session::from_source(MIXED, SemanticsMode::Grohe).unwrap();
    let quake = session.program().catalog.require("Quake").unwrap();
    let queries = QuerySet::new().marginal(&Fact::new(quake, tuple![1i64]));
    // 448 = 64 · 7: a whole number of lane batches at every tested size,
    // so the doubling schedule polls at identical run counts.
    let target = EssTarget::new(150.0).initial_batch(448).max_runs(3584);
    let answer = |batch: usize| {
        session
            .eval()
            .sample_until(target)
            .seed(11)
            .batch(batch)
            .given("Alarm(1).")
            .answer(&queries)
            .unwrap()
    };
    let reference = answer(1);
    let ev = reference.evidence();
    assert!(ev.ess >= 150.0 || ev.runs == 3584);
    assert_eq!(ev.runs % 448, 0, "adaptive growth must be whole batches");
    for batch in [7usize, 64, 448] {
        let got = answer(batch);
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            reference.iter().collect::<Vec<_>>(),
            "batch {batch}"
        );
        assert_eq!(got.evidence().runs, ev.runs, "batch {batch}");
        assert_eq!(got.evidence().worlds, ev.worlds, "batch {batch}");
        assert!((got.evidence().ess - ev.ess).abs() == 0.0, "batch {batch}");
    }
}

/// The `RunBudget` invariants hold however the caller abuses the knobs:
/// nonzero batches and a cap that admits the first batch.
#[test]
fn run_budget_validation_is_shared_by_both_paths() {
    let fixed = RunBudget::fixed(0, 0);
    assert_eq!(
        (fixed.max_runs, fixed.initial_batch, fixed.batch),
        (1, 1, 1)
    );
    let adaptive = RunBudget::adaptive(10, 64, 0);
    assert_eq!(
        adaptive.max_runs, 64,
        "cap must admit one whole first batch"
    );
    assert_eq!(adaptive.batch, 1);
    assert_eq!(adaptive.round_to_batches(3), 3);
    let lanes = RunBudget::adaptive(1000, 448, 64);
    assert_eq!(lanes.round_to_batches(449), 512);
    assert_eq!(lanes.round_to_batches(999), 1000, "clamped at the cap");
    assert_eq!(
        EssTarget::new(10.0)
            .initial_batch(448)
            .budget(64)
            .initial_batch,
        448
    );
}

/// S3: a slow conditioned program under a deadline fails with
/// `DeadlineExceeded` at every worker count, and every world the sink saw
/// before the cut is a fully-chased, evidence-consistent world — the
/// deadline fires **between** lane batches, never mid-batch.
#[test]
fn deadline_cuts_between_batches_without_corruption() {
    // ~160 independent draws per run make a single run slow enough that a
    // small deadline lands mid-pass, whatever the host speed.
    let mut src = String::from(MIXED);
    for i in 0..160 {
        src.push_str(&format!("Pad{i}(Normal<0.0, 1.0>) :- true.\n"));
    }
    let session = Session::from_source(&src, SemanticsMode::Grohe).unwrap();
    let alarm = session.program().catalog.require("Alarm").unwrap();
    for threads in [1usize, 2, 4] {
        let mut sink = RecordingSink::default();
        let err = session
            .eval()
            .sample(2_000_000)
            .seed(5)
            .batch(64)
            .threads(threads)
            .given("Alarm(1).")
            .deadline(Instant::now() + Duration::from_millis(30))
            .collect_into(&mut sink)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::DeadlineExceeded),
            "{threads} workers: expected DeadlineExceeded, got {err:?}"
        );
        assert!(
            sink.obs.len() < 2_000_000,
            "{threads} workers: the deadline should interrupt the pass"
        );
        for obs in &sink.obs {
            match obs {
                Obs::LogWorld(world, lw) => {
                    assert!(lw.is_finite());
                    assert!(
                        world.relation(alarm).contains(&tuple![1i64]),
                        "{threads} workers: emitted world violates the evidence"
                    );
                }
                other => panic!("{threads} workers: unexpected observation {other:?}"),
            }
        }
    }
}

/// An expired deadline fails fast at the first batch boundary with
/// nothing observed — the batched path starts with the deadline check.
#[test]
fn expired_deadline_observes_nothing() {
    let session = Session::from_source(MIXED, SemanticsMode::Grohe).unwrap();
    let mut sink = RecordingSink::default();
    let err = session
        .eval()
        .sample(10_000)
        .batch(64)
        .deadline(Instant::now())
        .collect_into(&mut sink)
        .unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded));
    assert!(sink.obs.is_empty());
}

/// The alarm network of the diagnosis posterior, three houses: every draw
/// is discrete, so lanes walk the chase-tree memos of their worker slots.
const DIAGNOSIS: &str = r#"
    rel House(symbol) input.
    House(h1). House(h2). House(h3).
    Quake(Flip<0.05>) :- true.
    Burglary(H, Flip<0.1>) :- House(H).
    Trig(H, Flip<0.6>) :- House(H), Quake(1).
    Trig(H, Flip<0.9>) :- Burglary(H, 1).
    Alarm(H) :- Trig(H, 1).
"#;

/// ESS-targeted sampling keeps one chase-tree memo per worker slot across
/// all of its doubling rounds. At one and two workers its answers and
/// whole evidence summary equal the one-lane, one-worker reference bit
/// for bit, and its answers equal the fixed-run pass at the run count it
/// reached (the prefix property of `EssTarget`).
#[test]
fn adaptive_sampling_on_workers_equals_the_unshared_reference() {
    let session = Session::from_source(DIAGNOSIS, SemanticsMode::Grohe).unwrap();
    let catalog = &session.program().catalog;
    let quake = Fact::new(catalog.require("Quake").unwrap(), tuple![1i64]);
    let burglary = catalog.require("Burglary").unwrap();
    let queries = QuerySet::new()
        .marginal(&quake)
        .expectation(&Query::Rel(burglary), AggFun::Count);
    let given = "Alarm(h1). Alarm(h2).";
    let adaptive = |batch: usize, threads: usize| {
        session
            .eval()
            .sample_until(EssTarget::new(150.0))
            .seed(21)
            .batch(batch)
            .threads(threads)
            .given(given)
            .answer(&queries)
            .unwrap()
    };
    let reference = adaptive(1, 1);
    let ev = reference.evidence();
    assert!(ev.ess >= 150.0, "{ev:?}");
    assert!(
        ev.runs > 512,
        "the target takes more than one round: {ev:?}"
    );
    for threads in [1usize, 2] {
        let got = adaptive(64, threads);
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            reference.iter().collect::<Vec<_>>(),
            "batch 64 × {threads} workers"
        );
        assert_eq!(got.evidence(), ev, "batch 64 × {threads} workers");
    }
    let fixed = session
        .eval()
        .sample(ev.runs)
        .seed(21)
        .given(given)
        .answer(&queries)
        .unwrap();
    assert_eq!(
        fixed.iter().collect::<Vec<_>>(),
        reference.iter().collect::<Vec<_>>(),
        "the adaptive stream is the fixed-run stream's prefix"
    );
    let fixed_ev = fixed.evidence();
    assert_eq!(
        (fixed_ev.runs, fixed_ev.worlds, fixed_ev.ess),
        (ev.runs, ev.worlds, ev.ess)
    );
}
