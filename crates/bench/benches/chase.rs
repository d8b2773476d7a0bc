//! P2 — chase throughput: Monte-Carlo runs per second on the burglary
//! network (Ex. 3.4), comparing the sequential chase, the parallel chase,
//! and the saturation-accelerated chase — the ablation for saturating
//! deterministic rules with the semi-naive engine (`saturate.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdatalog_bench::burglary_program;
use gdatalog_core::{ChaseVariant, Engine, PolicyKind};
use gdatalog_lang::SemanticsMode;
use std::hint::black_box;

fn bench_chase_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase_mc");
    group.sample_size(10);
    for houses in [2usize, 4, 8] {
        let engine =
            Engine::from_source(&burglary_program(houses), SemanticsMode::Grohe).expect("ok");
        for (label, variant) in [
            (
                "sequential",
                ChaseVariant::Sequential(PolicyKind::Canonical),
            ),
            ("parallel", ChaseVariant::Parallel),
            ("saturating", ChaseVariant::Saturating),
        ] {
            group.bench_with_input(BenchmarkId::new(label, houses), &houses, |b, _| {
                b.iter(|| {
                    black_box(
                        engine
                            .eval()
                            .sample(50)
                            .seed(1)
                            .variant(variant)
                            .max_depth(100_000)
                            .pdb()
                            .expect("runs"),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_single_run_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase_single_run");
    for houses in [2usize, 8, 16] {
        let engine =
            Engine::from_source(&burglary_program(houses), SemanticsMode::Grohe).expect("ok");
        group.bench_with_input(BenchmarkId::from_parameter(houses), &houses, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    engine
                        .eval()
                        .policy(PolicyKind::Canonical)
                        .seed(seed)
                        .max_depth(100_000)
                        .trace()
                        .expect("run"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chase_variants, bench_single_run_scaling);
criterion_main!(benches);
