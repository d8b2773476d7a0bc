//! EM fitting, measured in the traced run of `diagnosis-posterior`:
//! `fit_program` EM on the alarm network with the quake and burglary
//! rates as holes, over blocks drawn from known rates. Every quake and
//! burglary is latent, so each EM iteration recompiles the program and
//! conditions an exact enumeration on every block. Its fit times swing by
//! a third with the load on a shared host, more than an end-to-end bound
//! can absorb, so it reports layer metrics only, which carry no bound.

use std::sync::Arc;

use gdatalog_core::Session;
use gdatalog_data::{canonical_text, tuple, Fact, Instance, RelationKind, Value};
use gdatalog_dist::fit::fit_params;
use gdatalog_dist::Registry;
use gdatalog_lang::{parse_program, validate, SemanticsMode};
use gdatalog_learn::{fit_program, Dataset, FitOptions, Fitted};
use gdatalog_pdb::{MarginalSink, NormalizingSink};

use crate::common::{traced_pass, Outcome};
use crate::gen::{em_dataset, EM_PROGRAM, EM_TRUE_RATES};
use crate::stats;
use crate::trace::{Layers, TimingSink, Tracer};

const BLOCKS: usize = 80;
/// EM iterations per fit. The convergence tolerance is 0, so every fit
/// runs exactly this many and does the same work on every seed.
const EM_ITERS: usize = 6;
/// Largest accepted distance between a fitted and a generating rate.
const RATE_TOL: f64 = 0.25;

fn options(seed: u64) -> FitOptions {
    FitOptions {
        em_iters: EM_ITERS,
        tol: 0.0,
        seed,
        ..FitOptions::default()
    }
}

/// The fitted `(quake, burglary)` rates.
fn rates(fitted: &Fitted) -> (f64, f64) {
    let get = |rel: &str| {
        fitted
            .report
            .estimates
            .iter()
            .find(|e| e.rel == rel)
            .and_then(|e| e.value.as_f64())
            .unwrap_or(f64::NAN)
    };
    (get("Quake"), get("Burglary"))
}

fn recovered(fitted: &Fitted) -> bool {
    let (q, b) = rates(fitted);
    (q - EM_TRUE_RATES.0).abs() <= RATE_TOL
        && (b - EM_TRUE_RATES.1).abs() <= RATE_TOL
        && fitted.report.iterations == EM_ITERS
}

/// Everything a fit reports, for bit-identity checks.
fn fingerprint(fitted: &Fitted) -> String {
    format!(
        "{:?} {:?} {}",
        rates(fitted),
        fitted.report.log_likelihood,
        fitted.source
    )
}

/// Parses the dataset, fits it three times inside spans, checks the
/// fits against the generating rates and against an untraced fit, and
/// replays one E-step and M-step from outside through the same public
/// calls the fitter makes. Spans go to `tracer`; failures count in `out`.
pub fn traced(out: &mut Outcome, tracer: &mut Tracer, seed: u64) {
    let data = em_dataset(BLOCKS, seed);
    let opts = options(seed);
    let vp = validate(
        parse_program(EM_PROGRAM).expect("parses"),
        Arc::new(Registry::standard()),
    )
    .expect("validates");
    let parse_ms: Vec<f64> = (0..5)
        .map(|i| {
            let (_, id) = tracer.span("learn.dataset_parse", i, |_| {
                Dataset::parse(&data, &vp.catalog).expect("parses")
            });
            tracer.spans[id].duration_ns() as f64 / 1e6
        })
        .collect();
    out.set("learn.dataset_parse_ms", stats::median(&parse_ms));
    let dataset = Dataset::parse(&data, &vp.catalog).expect("parses");

    let expected = fit_program(EM_PROGRAM, &data, &opts)
        .map(|f| fingerprint(&f))
        .ok();
    let mut fit_s = Vec::new();
    for i in 0..3 {
        let (fitted, id) = tracer.span("learn.fit", i, |_| fit_program(EM_PROGRAM, &data, &opts));
        fit_s.push(tracer.spans[id].duration_ns() as f64 / 1e9);
        let ok = match &fitted {
            Ok(f) => {
                let same = Some(fingerprint(f)) == expected;
                if !recovered(f) || !same {
                    out.wrong(format!(
                        "fit {i}: rates {:?} after {} iterations (generating {EM_TRUE_RATES:?}), same as untraced: {same}",
                        rates(f),
                        f.report.iterations
                    ));
                }
                recovered(f) && same
            }
            Err(e) => {
                out.wrong(format!("fit failed: {e}"));
                false
            }
        };
        out.tally(ok);
    }
    out.set("fit_s", stats::median(&fit_s));
    out.set("learn.iterations", EM_ITERS as f64);
    if let Ok(f) = fit_program(EM_PROGRAM, &data, &opts) {
        out.notes.push(format!(
            "EM fit of {BLOCKS} blocks: rates {:?}, generating {EM_TRUE_RATES:?}, {:.0} ms",
            rates(&f),
            stats::median(&fit_s) * 1e3
        ));
    }

    // One E-step at the generating rates: per block, the inputs go into
    // the session, the remaining facts become evidence, and an exact
    // enumeration conditioned on them folds the posterior of the quake.
    let filled = EM_PROGRAM
        .replace("?quake", &format!("{:?}", EM_TRUE_RATES.0))
        .replace("?burglary", &format!("{:?}", EM_TRUE_RATES.1));
    let layers = Arc::new(Layers::default());
    let mut session =
        Session::from_source(&filled, SemanticsMode::Grohe).expect("filled program compiles");
    let catalog = session.program().catalog.clone();
    let quake = Fact::new(catalog.require("Quake").expect("declared"), tuple![1i64]);
    let mut obs: Vec<(Value, f64)> = Vec::new();
    let (_, estep) = tracer.span("learn.estep", seed, |tracer| {
        for (bi, block) in dataset.blocks.iter().enumerate() {
            let (mut inputs, mut evidence) = (Instance::new(), Instance::new());
            for fact in block.facts() {
                if catalog.decl(fact.rel).kind() == RelationKind::Extensional {
                    inputs.insert_fact(fact);
                } else {
                    evidence.insert_fact(fact);
                }
            }
            session.reset();
            session.insert_facts(&inputs);
            let given = canonical_text(&evidence, &catalog);
            let (res, _, _) = traced_pass(tracer, &layers, "chase.exact", bi as u64, 1, || {
                let stack = NormalizingSink::log_space(MarginalSink::new(quake.clone()));
                let mut sink = TimingSink::new(Box::new(stack), &layers);
                session
                    .eval()
                    .exact()
                    .threads(1)
                    .given(given.clone())
                    .collect_into(&mut sink)
                    .map(|()| sink)
            });
            let Ok(sink) = res else { continue };
            let norm = sink
                .into_inner()
                .into_any()
                .downcast::<NormalizingSink<MarginalSink>>()
                .expect("the stack built above");
            let (marginal, stats) = norm.finish();
            let p = marginal.finish() / stats.normalizer();
            obs.push((Value::int(1), p));
            obs.push((Value::int(0), 1.0 - p));
        }
    });
    out.set(
        "learn.estep_ms",
        tracer.spans[estep].duration_ns() as f64 / 1e6,
    );

    // The M-step's estimator on the pooled posterior observations.
    let flip = Arc::clone(Registry::standard().get("Flip").expect("standard member"));
    let mstep_us: Vec<f64> = (0..25)
        .map(|i| {
            let (_, id) = tracer.span("learn.mstep", i, |_| {
                fit_params(flip.as_ref(), &obs, &[None]).expect("fits")
            });
            tracer.spans[id].duration_ns() as f64 / 1e3
        })
        .collect();
    out.set("learn.mstep_us", stats::median(&mstep_us));
}
