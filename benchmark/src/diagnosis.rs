//! `diagnosis-posterior`: the alarm network with three houses, conditioned
//! on two ringing alarms and a soft seismometer reading. A closed loop of
//! library requests cycles through exact enumeration, ESS-targeted
//! likelihood weighting and Metropolis-Hastings, at two threads.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use gdatalog_core::{Answer, EssTarget, MhBackend, QuerySet, Session};
use gdatalog_data::{tuple, Fact, Instance};
use gdatalog_lang::{compile_observations, SemanticsMode};
use gdatalog_pdb::{DeficitKind, MarginalSink, MultiplexSink, NormalizingSink, WorldSink};

use crate::common::{
    app_replay, facts_parse_us, front_end, secs, set_pass_layers, setup_time, timed, traced_pass,
    Args, Outcome,
};
use crate::gen::{
    diagnosis_given, diagnosis_posterior_quake, diagnosis_reading, DIAGNOSIS_HOUSES,
    DIAGNOSIS_PROGRAM,
};
use crate::stats;
use crate::trace::{family_draws, timing_registry, LayerTally, Layers, TimingSink, Tracer};

const THREADS: usize = 2;
const ESS_TARGET: f64 = 500.0;
const MH_KEPT: usize = 1_000;
/// The chain starts from a forward sample that rings both alarms, where
/// the quake is off about a quarter of the time, and usually switches it
/// on within a few hundred steps.
const MH_BURN_IN: usize = 2_000;
/// Tolerance of a sampled posterior, in standard errors.
const Z: f64 = 5.0;
/// Independent MH chains checked together before timing.
const MH_POOL: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exact,
    Lw,
    Mh,
}

fn kind(i: usize) -> Kind {
    [Kind::Exact, Kind::Lw, Kind::Mh][i % 3]
}

/// The posterior of one request and what it cost.
#[derive(Debug, Clone, PartialEq)]
struct Posterior {
    p_quake: f64,
    /// Effective samples: 0 for exact, Kish ESS for likelihood
    /// weighting, the indicator chain's ESS for MH.
    ess: f64,
    /// Sampled chase runs (likelihood weighting) or kept states (MH).
    runs: usize,
    accept_rate: Option<f64>,
}

struct Model {
    session: Session,
    quake: Fact,
    given: String,
    exact_p: f64,
}

fn compile(registry: Option<Arc<gdatalog_dist::Registry>>, reading: f64) -> Model {
    let mut session = match registry {
        Some(r) => Session::from_source_with_registry(DIAGNOSIS_PROGRAM, SemanticsMode::Grohe, r),
        None => Session::from_source(DIAGNOSIS_PROGRAM, SemanticsMode::Grohe),
    }
    .expect("diagnosis compiles");
    session
        .insert_facts_text(DIAGNOSIS_HOUSES)
        .expect("houses parse");
    let quake = Fact::new(
        session
            .program()
            .catalog
            .require("Quake")
            .expect("declared"),
        tuple![1i64],
    );
    Model {
        session,
        quake,
        given: diagnosis_given(reading),
        exact_p: diagnosis_posterior_quake(reading),
    }
}

fn op_seed(args: &Args, i: usize) -> u64 {
    args.seed.wrapping_mul(7_919).wrapping_add(i as u64)
}

/// Records the `Quake(1)` indicator of every kept MH state, in chain order.
struct ChainSink {
    fact: Fact,
    xs: Vec<f64>,
    ws: Vec<f64>,
}

impl WorldSink for ChainSink {
    fn observe(&mut self, world: Instance, weight: f64) {
        self.observe_ref(&world, weight);
    }

    fn observe_ref(&mut self, world: &Instance, weight: f64) {
        self.xs.push(f64::from(u8::from(
            world.contains(self.fact.rel, &self.fact.tuple),
        )));
        self.ws.push(weight);
    }

    fn observe_deficit(&mut self, _kind: DeficitKind, _weight: f64) {}

    fn rescale(&mut self, factor: f64) {
        self.ws.iter_mut().for_each(|w| *w *= factor);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

fn chain_posterior(sink: &ChainSink, accept_rate: Option<f64>) -> Posterior {
    let total: f64 = sink.ws.iter().sum();
    let p = sink
        .xs
        .iter()
        .zip(&sink.ws)
        .map(|(x, w)| x * w)
        .sum::<f64>()
        / total;
    Posterior {
        p_quake: p,
        ess: stats::indicator_ess(&sink.xs),
        runs: sink.xs.len(),
        accept_rate,
    }
}

/// One request through `Evaluation::answer` (exact, likelihood
/// weighting) or `collect_with` (MH). `lw_runs` replaces the ESS target
/// by a fixed run count.
fn request(m: &Model, kind: Kind, seed: u64, lw_runs: Option<usize>) -> Result<Posterior, String> {
    let eval = m
        .session
        .eval()
        .seed(seed)
        .threads(THREADS)
        .given(m.given.clone());
    let qs = QuerySet::new().marginal(&m.quake);
    let single = |answers: gdatalog_core::Answers| -> Result<Posterior, String> {
        let ev = answers.evidence();
        match answers.get(0) {
            Some(Answer::Marginal(p)) => Ok(Posterior {
                p_quake: *p,
                ess: if kind == Kind::Exact { 0.0 } else { ev.ess },
                runs: if kind == Kind::Exact { 0 } else { ev.runs },
                accept_rate: None,
            }),
            other => Err(format!("unexpected answer {other:?}")),
        }
    };
    match kind {
        Kind::Exact => single(eval.exact().answer(&qs).map_err(|e| e.to_string())?),
        Kind::Lw => {
            let eval = match lw_runs {
                Some(n) => eval.sample(n),
                None => eval.sample_until(EssTarget::new(ESS_TARGET)),
            };
            single(eval.answer(&qs).map_err(|e| e.to_string())?)
        }
        Kind::Mh => {
            let mh = MhBackend::new();
            let mut sink = ChainSink {
                fact: m.quake.clone(),
                xs: Vec::new(),
                ws: Vec::new(),
            };
            eval.mh(MH_KEPT)
                .burn_in(MH_BURN_IN)
                .collect_with(&mh, &mut sink)
                .map_err(|e| e.to_string())?;
            Ok(chain_posterior(&sink, mh.acceptance_rate()))
        }
    }
}

/// Whether a posterior lies within tolerance of the closed form: 1e-9
/// for exact enumeration, `Z` standard errors at the Kish ESS for
/// likelihood weighting. One MH chain is only checked for being whole:
/// a probability, a positive ESS, every kept state, and an acceptance rate
/// in (0, 1]. Its accuracy is checked over a pool of chains
/// (`pool_within`).
fn within(m: &Model, kind: Kind, post: &Posterior) -> bool {
    let err = (post.p_quake - m.exact_p).abs();
    let var = m.exact_p * (1.0 - m.exact_p);
    match kind {
        Kind::Exact => err < 1e-9,
        Kind::Lw => err <= Z * (var / post.ess.max(1.0)).sqrt(),
        Kind::Mh => {
            (0.0..=1.0).contains(&post.p_quake)
                && post.ess >= 1.0
                && post.runs == MH_KEPT
                && post.accept_rate.is_some_and(|a| a > 0.0 && a <= 1.0)
        }
    }
}

/// Whether the mean posterior of independent MH chains lies within `Z`
/// standard errors of the closed form. The chains mix slowly: the quake
/// turns off about once per 4000 steps and then stays off for about a
/// hundred, and the burglary explanation of the alarms holds it off for
/// longer stretches still. One chain of 1000 kept states can so land
/// anywhere from 0.2 to 1, and no ESS measured inside it bounds that:
/// checked one at a time at 5 standard errors of their batch-means ESS,
/// about one chain in 700 failed. Between chains the spread is plain to
/// see. The variance of one chain's estimate is taken as at least that of
/// one draw of the indicator, since most chains never leave the quake.
fn pool_within(m: &Model, ps: &[f64]) -> bool {
    if ps.is_empty() {
        return false;
    }
    let var = stats::variance(ps).max(m.exact_p * (1.0 - m.exact_p));
    (stats::mean(ps) - m.exact_p).abs() <= Z * (var / ps.len() as f64).sqrt()
}

/// Tallies MH requests: each passes when it returned a whole chain
/// (`within`) and the pool's mean posterior passes `pool_within`.
fn tally_mh(out: &mut Outcome, m: &Model, pool: &[Result<Posterior, String>], what: &str) {
    let ps: Vec<f64> = pool.iter().flatten().map(|p| p.p_quake).collect();
    let pooled = pool_within(m, &ps);
    if !pooled {
        out.wrong(format!(
            "MH mean posterior {:.6} over {} chains {what}, closed form {:.6}",
            stats::mean(&ps),
            ps.len(),
            m.exact_p
        ));
    }
    for r in pool {
        let whole = r.as_ref().is_ok_and(|p| within(m, Kind::Mh, p));
        out.tally(pooled && whole);
        match r {
            Err(e) => out.notes.push(format!("MH request {what} failed: {e}")),
            Ok(p) if !whole => out.wrong(format!(
                "MH request {what}: {:?}",
                (p.p_quake, p.ess, p.runs, p.accept_rate)
            )),
            Ok(_) => {}
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let reading = diagnosis_reading(args.seed);
    out.set(
        "setup_s",
        setup_time(51, || timed(|| compile(None, reading))),
    );
    let model = compile(None, reading);

    // Correctness before timing: one exact and one likelihood-weighting
    // request, and a pool of MH chains.
    for (i, k) in [Kind::Exact, Kind::Lw].into_iter().enumerate() {
        let r = request(&model, k, op_seed(args, usize::MAX - i), None);
        let ok = r.as_ref().is_ok_and(|p| within(&model, k, p));
        out.tally(ok);
        if !ok {
            out.wrong(format!(
                "{k:?} posterior {:?} vs closed form {:.6}",
                r.map(|p| (p.p_quake, p.ess, p.runs)),
                model.exact_p
            ));
        }
    }
    let pool: Vec<_> = (0..MH_POOL)
        .map(|j| request(&model, Kind::Mh, op_seed(args, usize::MAX - 2 - j), None))
        .collect();
    tally_mh(&mut out, &model, &pool, "before timing");

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut times = Vec::new();
    let (mut runs, mut ess) = (0usize, 0.0);
    let mut mh = Vec::new();
    let start = Instant::now();
    while secs(start) < budget || times.len() < 6 {
        let i = times.len();
        let t = Instant::now();
        let r = request(&model, kind(i), op_seed(args, i), None);
        times.push(secs(t));
        if let Ok(p) = &r {
            runs += p.runs;
            ess += p.ess;
        }
        if kind(i) == Kind::Mh {
            mh.push(r);
            continue;
        }
        let ok = r.as_ref().is_ok_and(|p| within(&model, kind(i), p));
        out.tally(ok);
        if !ok && out.failed <= 3 {
            let got = r.as_ref().map(|p| (p.p_quake, p.ess, p.runs));
            out.notes.push(format!(
                "request {i} ({:?}) outside tolerance: {got:?}",
                kind(i)
            ));
        }
    }
    tally_mh(&mut out, &model, &mh, "of the timed loop");
    let total: f64 = times.iter().sum();
    out.set("runs_per_s", runs as f64 / total);
    out.set("answer_ms.p50", stats::median(&times) * 1e3);
    out.set("answer_ms.p95", stats::quantile(&times, 0.95) * 1e3);
    out.set("ess_per_s", ess / total);
    out.notes.push(format!(
        "{} requests (exact / likelihood weighting / MH in turn), reading {reading:.4}, exact P(quake) {:.6}",
        times.len(),
        model.exact_p
    ));
    for k in [Kind::Exact, Kind::Lw, Kind::Mh] {
        let own: Vec<f64> = times
            .iter()
            .enumerate()
            .filter(|(i, _)| kind(*i) == k)
            .map(|(_, t)| *t)
            .collect();
        out.notes.push(format!(
            "{k:?}: median {:.2} ms over {} requests",
            stats::median(&own) * 1e3,
            own.len()
        ));
    }
    if args.trace {
        traced(&mut out, args, reading, times.len());
    }
    out
}

/// The traced run: every request of the timed loop again, untraced and
/// traced, asserted bit-identical. The likelihood-weighting requests run
/// with the fixed run count their ESS target led to, so that the pass can
/// go through `collect_into` with a timing sink.
fn traced(out: &mut Outcome, args: &Args, reading: f64, ops: usize) {
    let mut tracer = Tracer::new();
    let compiled = front_end(out, &mut tracer, DIAGNOSIS_PROGRAM, 15);
    out.set(
        "lang.facts_parse_us",
        facts_parse_us(&mut tracer, &compiled, &[DIAGNOSIS_HOUSES; 9]),
    );

    let plain = compile(None, reading);
    let observe_us: Vec<f64> = (0..9)
        .map(|i| {
            let (_, id) = tracer.span("lang.observe_compile", i, |_| {
                compile_observations(plain.session.program(), &plain.given)
                    .expect("evidence compiles")
            });
            tracer.spans[id].duration_ns() as f64 / 1e3
        })
        .collect();
    out.set("lang.observe_compile_us", stats::median(&observe_us));
    let observes =
        compile_observations(plain.session.program(), &plain.given).expect("evidence compiles");
    let worlds = plain
        .session
        .eval()
        .sample(512)
        .seed(args.seed)
        .pdb()
        .expect("prior sample");
    let (_, id) = tracer.span("observe.log_weight", 0, |_| {
        for w in worlds.samples() {
            std::hint::black_box(gdatalog_core::log_weight(&observes, w).expect("weights"));
        }
    });
    out.set(
        "observe.log_weight_ns",
        tracer.spans[id].duration_ns() as f64 / worlds.samples().len() as f64,
    );

    let (app_ns, app_pairs, steps) = app_replay(&mut tracer, &plain.session, args.seed);
    out.set("app.ns_per_step", app_ns);
    out.set("app.pairs_per_step", app_pairs);
    out.set("chase.steps_per_run", steps as f64);

    let layers = Arc::new(Layers::default());
    let (registry, members) = timing_registry(&layers);
    let timed = compile(Some(registry), reading);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut lw = LayerTally::default();
    let (mut lw_runs, mut lw_self, mut lw_ess, mut flips) = (0usize, 0u64, 0.0, 0u64);
    let (mut exact_ns, mut exact_worlds, mut exact_passes) = (0u64, 0usize, 0usize);
    let (mut mh_accept, mut mh_ess, mut mh_kept, mut mh_s, mut mh_n) =
        (0.0, 0.0, 0usize, 0.0, 0usize);
    for i in 0..ops {
        let k = kind(i);
        let seed = op_seed(args, i);
        let lw_n = if k == Kind::Lw {
            request(&plain, k, seed, None).ok().map(|p| p.runs)
        } else {
            None
        };
        let t = Instant::now();
        let expected = request(&plain, k, seed, lw_n);
        let reference_s = secs(t);
        untraced_s += reference_s;
        let flips0 = family_draws(&members, "Flip");
        let t = Instant::now();
        let (got, tally, id) = traced_pass(
            &mut tracer,
            &layers,
            &format!("chase.{k:?}"),
            i as u64,
            THREADS,
            || traced_request(&timed, &layers, k, seed, lw_n),
        );
        traced_s += secs(t);
        if format!("{:?}", got.as_ref().map(|(p, _)| p)) != format!("{expected:?}") {
            out.wrong(format!(
                "traced {k:?} request {i} differs from the untraced one"
            ));
        }
        let Ok((post, worlds)) = got else { continue };
        match k {
            Kind::Exact => {
                exact_ns += tracer.spans[id].duration_ns();
                exact_worlds += worlds;
                exact_passes += 1;
            }
            Kind::Lw => {
                lw = lw + tally;
                lw_runs += post.runs;
                lw_self += tracer.self_ns()[id];
                lw_ess += post.ess;
                flips += family_draws(&members, "Flip") - flips0;
            }
            Kind::Mh => {
                mh_accept += post.accept_rate.unwrap_or(0.0);
                mh_ess += post.ess;
                mh_kept += post.runs;
                mh_s += reference_s;
                mh_n += 1;
            }
        }
    }
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    let runs = lw_runs.max(1) as f64;
    set_pass_layers(out, &lw, runs);
    out.set("chase.self_ns_per_run", lw_self as f64 / runs);
    out.set("dist.draws_per_run.Flip", flips as f64 / runs);
    out.set("observe.calls_per_run", lw.log_weighted as f64 / runs);
    out.set("sink.ess_per_run", lw_ess / runs);
    if exact_passes > 0 {
        out.set("exact.worlds", exact_worlds as f64 / exact_passes as f64);
        out.set(
            "exact.ms_per_pass",
            exact_ns as f64 / 1e6 / exact_passes as f64,
        );
    }
    if mh_n > 0 {
        out.set("mh.accept_rate", mh_accept / mh_n as f64);
        out.set("mh.ess_per_kept", mh_ess / mh_kept as f64);
        out.set("mh.us_per_kept", mh_s * 1e6 / mh_kept as f64);
    }
    // The learning layer runs on this network too; see `emfit`.
    crate::emfit::traced(out, &mut tracer, args.seed);
    out.tracer = Some(tracer);
}

/// One request through the timing registry's session and a timing sink
/// around the sink stack `Evaluation::answer` builds; also returns the
/// number of worlds the pass observed.
fn traced_request(
    m: &Model,
    layers: &Arc<Layers>,
    kind: Kind,
    seed: u64,
    lw_runs: Option<usize>,
) -> Result<(Posterior, usize), String> {
    let eval = m
        .session
        .eval()
        .seed(seed)
        .threads(THREADS)
        .given(m.given.clone());
    if kind == Kind::Mh {
        let mh = MhBackend::new();
        let chain = ChainSink {
            fact: m.quake.clone(),
            xs: Vec::new(),
            ws: Vec::new(),
        };
        let mut sink = TimingSink::new(Box::new(chain), layers);
        eval.mh(MH_KEPT)
            .burn_in(MH_BURN_IN)
            .collect_with(&mh, &mut sink)
            .map_err(|e| e.to_string())?;
        let chain = sink
            .into_inner()
            .into_any()
            .downcast::<ChainSink>()
            .expect("the sink built above");
        return Ok((
            chain_posterior(&chain, mh.acceptance_rate()),
            chain.xs.len(),
        ));
    }
    let stack = NormalizingSink::log_space(MultiplexSink::new(vec![Box::new(MarginalSink::new(
        m.quake.clone(),
    ))]));
    let mut sink = TimingSink::new(Box::new(stack), layers);
    let eval = match (kind, lw_runs) {
        (Kind::Lw, Some(n)) => eval.sample(n),
        (Kind::Lw, None) => return Err("likelihood weighting needs its run count".into()),
        _ => eval.exact(),
    };
    eval.collect_into(&mut sink).map_err(|e| e.to_string())?;
    let norm = sink
        .into_inner()
        .into_any()
        .downcast::<NormalizingSink<MultiplexSink>>()
        .expect("the stack built above");
    let (mux, stats) = norm.finish();
    let marginal = mux
        .into_sinks()
        .remove(0)
        .into_any()
        .downcast::<MarginalSink>()
        .expect("marginal")
        .finish();
    let post = Posterior {
        p_quake: marginal / stats.normalizer(),
        ess: if kind == Kind::Exact {
            0.0
        } else {
            stats.ess()
        },
        runs: lw_runs.unwrap_or(0),
        accept_rate: None,
    };
    Ok((post, stats.worlds))
}
