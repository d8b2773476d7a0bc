//! P9 — batched Monte-Carlo execution: runs per second as a function of
//! the lane-batch size (`Evaluation::batch`), swept over the three
//! workload shapes that stress the lane-group executor differently:
//!
//! * **discrete** — one coin plus a deterministic rule: lane groups split
//!   once into two and the whole deterministic tail is shared;
//! * **continuous** — the heights model (Ex. 3.5): every `Normal` draw is
//!   lane-distinct, so groups degenerate to singletons fast and the win
//!   comes from the shared deterministic prefix and batch sampling;
//! * **conditioned** — the quake/alarm diagnosis posterior: the batch
//!   path also amortizes the per-world likelihood weighting (memoized per
//!   shared terminal world).
//!
//! `batch = 1` (one lane per group) is the baseline; results are bit-identical at every
//! size, so this sweep is pure throughput. It chose the default of 64.
//!
//! **adaptive_lw** times ESS-targeted likelihood weighting on the
//! three-house alarm network with two alarms observed, at the default
//! batch and one or two workers: the doubling rounds of one evaluation,
//! and every evaluation after the second, share one chase-tree memo.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdatalog_bench::heights_program;
use gdatalog_core::{EssTarget, QuerySet, Session};
use gdatalog_data::{tuple, Fact};
use gdatalog_lang::SemanticsMode;
use gdatalog_pdb::{AggFun, Query};
use std::hint::black_box;

const BATCHES: [usize; 4] = [1, 8, 64, 256];
const RUNS: usize = 2_048;

fn bench_discrete(c: &mut Criterion) {
    let session = Session::from_source("R(Flip<0.5>) :- true. S(X) :- R(X).", SemanticsMode::Grohe)
        .expect("ok");
    let r = session.program().catalog.require("R").expect("declared");
    let fact = Fact::new(r, tuple![1i64]);
    let mut group = c.benchmark_group("mc_batch/discrete");
    group.sample_size(10);
    for batch in BATCHES {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                black_box(
                    session
                        .eval()
                        .sample(RUNS)
                        .seed(1)
                        .batch(batch)
                        .marginal(&fact)
                        .expect("runs"),
                )
            })
        });
    }
    group.finish();
}

fn bench_continuous(c: &mut Criterion) {
    let session = Session::from_source(&heights_program(8), SemanticsMode::Grohe).expect("ok");
    let rel = session
        .program()
        .catalog
        .require("PHeight")
        .expect("declared");
    let queries = QuerySet::new().expectation(&Query::Rel(rel), AggFun::Count);
    let mut group = c.benchmark_group("mc_batch/continuous");
    group.sample_size(10);
    for batch in BATCHES {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                black_box(
                    session
                        .eval()
                        .sample(RUNS)
                        .seed(1)
                        .batch(batch)
                        .answer(&queries)
                        .expect("runs"),
                )
            })
        });
    }
    group.finish();
}

fn bench_conditioned(c: &mut Criterion) {
    let session = Session::from_source(
        "Quake(Flip<0.2>) :- true.
         Trig(Flip<0.7>) :- Quake(1).
         Trig(Flip<0.1>) :- Quake(0).
         Alarm() :- Trig(1).",
        SemanticsMode::Grohe,
    )
    .expect("ok");
    let quake = session
        .program()
        .catalog
        .require("Quake")
        .expect("declared");
    let fact = Fact::new(quake, tuple![1i64]);
    let mut group = c.benchmark_group("mc_batch/conditioned");
    group.sample_size(10);
    for batch in BATCHES {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                black_box(
                    session
                        .eval()
                        .sample(RUNS)
                        .seed(1)
                        .batch(batch)
                        .given("Alarm().")
                        .marginal(&fact)
                        .expect("runs"),
                )
            })
        });
    }
    group.finish();
}

fn bench_adaptive_lw(c: &mut Criterion) {
    let session = Session::from_source(
        "rel House(symbol) input.
         House(h1). House(h2). House(h3).
         Quake(Flip<0.05>) :- true.
         Burglary(H, Flip<0.1>) :- House(H).
         Trig(H, Flip<0.6>) :- House(H), Quake(1).
         Trig(H, Flip<0.9>) :- Burglary(H, 1).
         Alarm(H) :- Trig(H, 1).",
        SemanticsMode::Grohe,
    )
    .expect("ok");
    let quake = session
        .program()
        .catalog
        .require("Quake")
        .expect("declared");
    let fact = Fact::new(quake, tuple![1i64]);
    let mut group = c.benchmark_group("mc_batch/adaptive_lw");
    group.sample_size(10);
    for threads in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(
                        session
                            .eval()
                            .sample_until(EssTarget::new(500.0))
                            .seed(1)
                            .threads(threads)
                            .given("Alarm(h1). Alarm(h2).")
                            .marginal(&fact)
                            .expect("runs"),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_discrete,
    bench_continuous,
    bench_conditioned,
    bench_adaptive_lw
);
criterion_main!(benches);
