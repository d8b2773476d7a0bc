//! Metropolis-Hastings over chase traces: one chain of 1000 kept states
//! after 2000 burn-in steps on the three-house alarm network with two
//! alarms observed. Nearly every proposal of this discrete chain walks
//! the chain's chase-tree memo; only the first visit of an outcome path
//! chases it.

use criterion::{criterion_group, criterion_main, Criterion};
use gdatalog_core::Session;
use gdatalog_data::{tuple, Fact};
use gdatalog_lang::SemanticsMode;
use std::hint::black_box;

fn bench_diagnosis_chain(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("mh");
    group.sample_size(10);
    group.bench_function("diagnosis", |b| {
        b.iter(|| {
            black_box(
                session
                    .eval()
                    .mh(1_000)
                    .burn_in(2_000)
                    .seed(1)
                    .given("Alarm(h1). Alarm(h2).")
                    .marginal(&fact)
                    .expect("runs"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_diagnosis_chain);
criterion_main!(benches);
