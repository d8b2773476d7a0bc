//! `heights-256`: Ex. 3.5 with 256 people, unconditioned Monte-Carlo,
//! single-threaded, three queries answered in one pass.

use std::sync::Arc;
use std::time::Instant;

use gdatalog_core::{Answer, QuerySet, Session};
use gdatalog_data::RelId;
use gdatalog_dist::special::std_normal_cdf;
use gdatalog_lang::SemanticsMode;
use gdatalog_pdb::{
    AggFun, HistogramSink, MomentsSink, MultiplexSink, NormalizingSink, QuantileSink, Query,
    WorldSink,
};

use crate::common::{
    app_replay, facts_parse_us, front_end, secs, set_pass_layers, setup_time, timed, traced_pass,
    Args, Outcome,
};
use crate::gen::{heights_input, HEIGHTS_PROGRAM, HEIGHT_MOMENTS};
use crate::stats;
use crate::trace::{family_draws, timing_registry, Layers, TimingSink, Tracer};

const PEOPLE: usize = 256;
/// Monte-Carlo runs per answer.
const RUNS: usize = 4;
/// Runs in the correctness pass.
const CHECK_RUNS: usize = 8;
const HIST: (f64, f64, usize) = (120.0, 230.0, 110);

fn queries(ph: RelId) -> QuerySet {
    QuerySet::new()
        .expectation(&Query::Rel(ph), AggFun::Count)
        .histogram(ph, 1, HIST.0, HIST.1, HIST.2)
        .quantile(ph, 1, 0.5)
}

fn compile(input: &str) -> Session {
    let mut s =
        Session::from_source(HEIGHTS_PROGRAM, SemanticsMode::Grohe).expect("heights compiles");
    s.insert_facts_text(input).expect("generated people parse");
    s
}

/// Whether an answer's count is exactly `PEOPLE` in every world.
fn count_ok(answers: &[Answer]) -> bool {
    matches!(answers.first(), Some(Answer::Expectation(Some(m))) if m.mean == PEOPLE as f64 && m.variance == 0.0)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let input = heights_input(PEOPLE, args.seed);
    out.set("setup_s", setup_time(51, || timed(|| compile(&input))));
    let session = compile(&input);
    let ph = session
        .program()
        .catalog
        .require("PHeight")
        .expect("declared");
    let qs = queries(ph);
    check(&mut out, &session, ph, args.seed);

    let pass = |i: u64| {
        session
            .eval()
            .sample(RUNS)
            .seed(args.seed.wrapping_mul(1_000_003).wrapping_add(i))
            .threads(1)
            .answer(&qs)
            .map(|a| a.into_vec())
    };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut times = Vec::new();
    let mut results = Vec::new();
    let start = Instant::now();
    while secs(start) < budget || times.len() < 3 {
        let t = Instant::now();
        let r = pass(times.len() as u64);
        times.push(secs(t));
        out.tally(r.as_ref().is_ok_and(|a| count_ok(a)));
        results.push(r);
    }
    let total: f64 = times.iter().sum();
    out.set("runs_per_s", (RUNS * times.len()) as f64 / total);
    out.set("answer_ms.p50", stats::median(&times) * 1e3);
    out.set("answer_ms.p95", stats::quantile(&times, 0.95) * 1e3);
    out.notes
        .push(format!("{} answers of {RUNS} runs each", times.len()));
    if args.trace {
        traced(&mut out, args, &input, ph, &results, total);
    }
    out
}

/// Count exact; height mean, variance and median within z-tolerance of
/// the closed-form mixture of the two countries' normals.
fn check(out: &mut Outcome, session: &Session, ph: RelId, seed: u64) {
    // The fourth query averages the last column, the height, per world.
    let qs = queries(ph).expectation(&Query::Rel(ph), AggFun::Avg);
    let answers = session
        .eval()
        .sample(CHECK_RUNS)
        .seed(seed ^ 0xC0FFEE)
        .threads(1)
        .answer(&qs);
    out.tally(answers.is_ok());
    let Ok(answers) = answers.map(|a| a.into_vec()) else {
        out.wrong("correctness pass failed".into());
        return;
    };
    if !count_ok(&answers) {
        out.wrong(format!(
            "count of PHeight is not exactly {PEOPLE}: {:?}",
            answers[0]
        ));
    }
    let n = (CHECK_RUNS * PEOPLE) as f64;
    let [(m1, v1), (m2, v2)] = HEIGHT_MOMENTS;
    let mu = (m1 + m2) / 2.0;
    let var = (v1 + v2) / 2.0 + (m1 - m2).powi(2) / 4.0;
    let mu4 = [(m1, v1), (m2, v2)]
        .iter()
        .map(|&(m, v)| 0.5 * ((m - mu).powi(4) + 6.0 * (m - mu).powi(2) * v + 3.0 * v * v))
        .sum::<f64>();
    let Answer::Histogram(h) = &answers[1] else {
        unreachable!("query order")
    };
    let width = (h.hi - h.lo) / h.bins.len() as f64;
    let total: f64 = h.bins.iter().sum();
    let mean = (0..h.bins.len())
        .map(|i| h.bin_center(i) * h.bins[i])
        .sum::<f64>()
        / total;
    let second = (0..h.bins.len())
        .map(|i| (h.bin_center(i) - mean).powi(2) * h.bins[i])
        .sum::<f64>()
        / total;
    let binned_var = second - width * width / 12.0;
    let z_mean = (mean - mu).abs() / (var / n).sqrt();
    let z_var = (binned_var - var).abs() / ((mu4 - var * var) / n).sqrt();
    if z_mean > 5.0 || z_var > 5.0 || h.underflow + h.overflow + h.nan > 0.0 {
        out.wrong(format!("heights: binned mean {mean:.3} (z {z_mean:.2}), variance {binned_var:.3} (z {z_var:.2})"));
    }
    // The per-world average height is an unbiased estimate of `mu`.
    if let Answer::Expectation(Some(m)) = &answers[3] {
        let z = (m.mean - mu).abs() / (var / n).sqrt();
        if z > 5.0 {
            out.wrong(format!(
                "heights: mean per-world average {:.3} (z {z:.2})",
                m.mean
            ));
        }
    }
    // Median of the mixture, by bisection on its CDF.
    let cdf = |x: f64| {
        0.5 * std_normal_cdf((x - m1) / v1.sqrt()) + 0.5 * std_normal_cdf((x - m2) / v2.sqrt())
    };
    let (mut lo, mut hi) = (m2, m1);
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if cdf(mid) < 0.5 {
            lo = mid
        } else {
            hi = mid
        }
    }
    let med = (lo + hi) / 2.0;
    let pdf = |x: f64, m: f64, v: f64| {
        (-(x - m).powi(2) / (2.0 * v)).exp() / (2.0 * std::f64::consts::PI * v).sqrt()
    };
    let dens = 0.5 * pdf(med, m1, v1) + 0.5 * pdf(med, m2, v2);
    let se = (0.25 / n).sqrt() / dens;
    match &answers[2] {
        Answer::Quantile(Some(q)) if (q - med).abs() <= 5.0 * se => {}
        other => out.wrong(format!(
            "heights: median {other:?} vs closed form {med:.3} ± {se:.3}"
        )),
    }
    out.notes.push(format!(
        "check: count {PEOPLE}, mean z {z_mean:.2}, variance z {z_var:.2}, median {med:.2} (n = {n})"
    ));
}

/// The traced run: the same answers again through the timing registry
/// and a timing sink, asserted bit-identical, plus the front end and an
/// applicability replay at 64 and 256 people.
fn traced(
    out: &mut Outcome,
    args: &Args,
    input: &str,
    ph: RelId,
    untraced: &[Result<Vec<Answer>, gdatalog_core::EngineError>],
    untraced_s: f64,
) {
    let mut tracer = Tracer::new();
    let compiled = front_end(out, &mut tracer, HEIGHTS_PROGRAM, 15);
    out.set(
        "lang.facts_parse_us",
        facts_parse_us(&mut tracer, &compiled, &[input; 9]),
    );

    let layers = Arc::new(Layers::default());
    let (registry, members) = timing_registry(&layers);
    let mut session =
        Session::from_source_with_registry(HEIGHTS_PROGRAM, SemanticsMode::Grohe, registry)
            .expect("heights compiles");
    session.insert_facts_text(input).expect("people parse");

    let mut traced_s = 0.0;
    let mut runs = 0usize;
    let mut chase_self = 0u64;
    let mut tally_sum = crate::trace::LayerTally::default();
    let mut ess = 0.0;
    let normal0 = family_draws(&members, "Normal");
    let flip0 = family_draws(&members, "Flip");
    for (i, expected) in untraced.iter().enumerate() {
        let t = Instant::now();
        let (got, tally, id) =
            traced_pass(&mut tracer, &layers, "chase.mc_pass", i as u64, 1, || {
                let inner = NormalizingSink::new(MultiplexSink::new(vec![
                    Box::new(MomentsSink::new(Query::Rel(ph), AggFun::Count, 0.0))
                        as Box<dyn WorldSink>,
                    Box::new(HistogramSink::new(ph, 1, HIST.0, HIST.1, HIST.2)),
                    Box::new(QuantileSink::new(ph, 1, 0.5)),
                ]));
                let mut sink = TimingSink::new(Box::new(inner), &layers);
                session
                    .eval()
                    .sample(RUNS)
                    .seed(args.seed.wrapping_mul(1_000_003).wrapping_add(i as u64))
                    .threads(1)
                    .collect_into(&mut sink)
                    .map(|()| finish(sink))
            });
        traced_s += secs(t);
        runs += RUNS;
        chase_self += tracer.self_ns()[id];
        tally_sum = tally_sum + tally;
        let got = got.map(|(answers, e)| {
            ess += e;
            answers
        });
        if format!("{got:?}") != format!("{expected:?}") {
            out.wrong(format!("traced answer {i} differs from the untraced one"));
        }
    }
    let runs_f = runs as f64;
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    out.set("chase.self_ns_per_run", chase_self as f64 / runs_f);
    out.set(
        "dist.draws_per_run.Normal",
        (family_draws(&members, "Normal") - normal0) as f64 / runs_f,
    );
    out.set(
        "dist.draws_per_run.Flip",
        (family_draws(&members, "Flip") - flip0) as f64 / runs_f,
    );
    set_pass_layers(out, &tally_sum, runs_f);
    out.set("sink.ess_per_run", ess / runs_f);

    let (ns256, pairs256, steps) = app_replay(&mut tracer, &compile(input), args.seed);
    let small = compile(&heights_input(64, args.seed));
    let ns64: Vec<f64> = (0..5)
        .map(|k| app_replay(&mut tracer, &small, args.seed + k).0)
        .collect();
    out.set("app.ns_per_step", ns256);
    out.set("app.pairs_per_step", pairs256);
    out.set("app.growth_64_to_256", ns256 / stats::median(&ns64));
    out.set("chase.steps_per_run", steps as f64);
    out.tracer = Some(tracer);
}

/// Unpacks the timing sink into the answers `Evaluation::answer` gives for
/// the same three queries, plus the pass's effective sample size.
fn finish(sink: TimingSink) -> (Vec<Answer>, f64) {
    let norm = sink
        .into_inner()
        .into_any()
        .downcast::<NormalizingSink<MultiplexSink>>()
        .expect("the stack built above");
    let (mux, stats) = norm.finish();
    let mut sinks = mux.into_sinks().into_iter().map(|s| s.into_any());
    let moments = sinks
        .next()
        .and_then(|s| s.downcast::<MomentsSink>().ok())
        .expect("moments")
        .finish();
    let hist = sinks
        .next()
        .and_then(|s| s.downcast::<HistogramSink>().ok())
        .expect("histogram")
        .finish();
    let q = sinks
        .next()
        .and_then(|s| s.downcast::<QuantileSink>().ok())
        .expect("quantile")
        .finish();
    (
        vec![
            Answer::Expectation(moments),
            Answer::Histogram(hist),
            Answer::Quantile(q),
        ],
        stats.ess(),
    )
}
