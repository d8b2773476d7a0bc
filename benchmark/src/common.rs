//! What every workload shares: the run arguments, the result record, and
//! the measurements of layers that more than one workload reports (the
//! front end, planning, and an applicability replay).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gdatalog_core::sequential::run_sequential_prepared;
use gdatalog_core::{ChasePolicy, PolicyKind, PreparedProgram, Session};
use gdatalog_data::{Fact, Tuple, Value};
use gdatalog_datalog::Term;
use gdatalog_dist::Registry;
use gdatalog_lang::{
    parse_facts, parse_program, translate, validate, CompiledProgram, RuleKind, SemanticsMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats;
use crate::trace::{attach_tally, process_cpu_ns, LayerTally, Layers, Tracer};

/// The command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Whether every checked answer was right.
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines for the report on standard error.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed correctness check.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("WRONG: {what}"));
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Blocks of set-ups that `setup_time` times, `SETUP_PAUSE` apart.
const SETUP_BLOCKS: usize = 20;
const SETUP_PAUSE: Duration = Duration::from_millis(100);

/// `setup_s`: the lower quartile over `SETUP_BLOCKS` blocks, spread over
/// two seconds, of each block's median of `reps` set-ups. `once` runs one
/// set-up and returns its wall time in seconds. Within a block the times
/// repeat closely, but from one block to the next, a tenth of a second
/// apart, they took one of two levels some 50% apart on a shared host, as
/// other processes came and went on the same cores. They only add time,
/// so the quicker blocks are the program's own set-up.
pub fn setup_time(reps: usize, mut once: impl FnMut() -> f64) -> f64 {
    let blocks: Vec<f64> = (0..SETUP_BLOCKS)
        .map(|b| {
            if b > 0 {
                std::thread::sleep(SETUP_PAUSE);
            }
            let times: Vec<f64> = (0..reps).map(|_| once()).collect();
            stats::median(&times)
        })
        .collect();
    stats::quantile(&blocks, 0.25)
}

/// The wall time of `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    secs(t)
}

/// Front-end and planning times of `src`, each the median of `reps`
/// repetitions: `lang.parse_ms`, `lang.validate_ms`,
/// `lang.translate_ms`, `plan.prepare_ms`. Spans go to `tracer`.
pub fn front_end(
    out: &mut Outcome,
    tracer: &mut Tracer,
    src: &str,
    reps: usize,
) -> CompiledProgram {
    let registry = Arc::new(Registry::standard());
    let mut parse = Vec::new();
    let mut val = Vec::new();
    let mut trans = Vec::new();
    let mut prep = Vec::new();
    let mut compiled = None;
    for i in 0..reps {
        let req = i as u64;
        let (ast, s) = tracer.span("lang.parse", req, |_| {
            parse_program(src).expect("benchmark program parses")
        });
        let (vp, v) = tracer.span("lang.validate", req, |_| {
            validate(ast, Arc::clone(&registry)).expect("validates")
        });
        let (cp, t) = tracer.span("lang.translate", req, |_| {
            translate(&vp, SemanticsMode::Grohe).expect("translates")
        });
        let (_, p) = tracer.span("plan.prepare", req, |_| {
            std::hint::black_box(PreparedProgram::new(&cp))
        });
        parse.push(tracer.spans[s].duration_ns() as f64);
        val.push(tracer.spans[v].duration_ns() as f64);
        trans.push(tracer.spans[t].duration_ns() as f64);
        prep.push(tracer.spans[p].duration_ns() as f64);
        compiled = Some(cp);
    }
    out.set("lang.parse_ms", stats::median(&parse) / 1e6);
    out.set("lang.validate_ms", stats::median(&val) / 1e6);
    out.set("lang.translate_ms", stats::median(&trans) / 1e6);
    out.set("plan.prepare_ms", stats::median(&prep) / 1e6);
    compiled.expect("reps > 0")
}

/// Median time of `parse_facts` on `text`, in microseconds.
pub fn facts_parse_us(tracer: &mut Tracer, program: &CompiledProgram, texts: &[&str]) -> f64 {
    let mut times = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let (_, id) = tracer.span("lang.facts_parse", i as u64, |_| {
            std::hint::black_box(
                parse_facts(text, &program.catalog).expect("generated facts parse"),
            )
        });
        times.push(tracer.spans[id].duration_ns() as f64 / 1e3);
    }
    stats::median(&times)
}

/// The applicable-pair computation replayed at every step of one recorded
/// chase run: `(ns per step, pairs per step, steps)`. The run is recorded
/// once with its trace; the replay rebuilds the instance step by step,
/// keeping one index current through `InstanceIndex::absorb`, and times
/// only `PreparedProgram::applicable_pairs`.
pub fn app_replay(tracer: &mut Tracer, session: &Session, seed: u64) -> (f64, f64, usize) {
    let program = session.program();
    let prepared = PreparedProgram::new(program);
    let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
    let mut rng = StdRng::seed_from_u64(seed);
    let run = run_sequential_prepared(
        program,
        &prepared,
        session.facts(),
        &mut policy,
        &mut rng,
        usize::MAX,
        true,
    )
    .expect("recorded run succeeds");
    let mut instance = session.facts().clone();
    let mut index = prepared.new_index(&instance);
    let mut ns = 0u64;
    let mut pairs = 0usize;
    tracer.span("app.replay", seed, |tracer| {
        for step in &run.trace {
            let (n, id) = tracer.span("app.pairs", seed, |_| {
                prepared.applicable_pairs(program, &instance, &index).len()
            });
            ns += tracer.spans[id].duration_ns();
            pairs += n;
            let fact = fired_fact(program, step.rule, &step.valuation, &step.sampled);
            if instance.insert(fact.rel, fact.tuple.clone()) {
                index.absorb(fact.rel, &fact.tuple);
            }
        }
    });
    let steps = run.trace.len().max(1);
    (
        ns as f64 / steps as f64,
        pairs as f64 / steps as f64,
        run.trace.len(),
    )
}

/// The fact a recorded step inserted: the head of a deterministic rule,
/// or the auxiliary experiment fact (key values, then sampled outcomes)
/// of an existential one.
fn fired_fact(
    program: &CompiledProgram,
    rule: usize,
    valuation: &Tuple,
    sampled: &[Value],
) -> Fact {
    let eval = |t: &Term| match t {
        Term::Const(c) => c.clone(),
        Term::Var(v) => valuation[*v].clone(),
    };
    match &program.rules[rule].kind {
        RuleKind::Deterministic { head } => {
            Fact::new(head.rel, head.args.iter().map(eval).collect::<Tuple>())
        }
        RuleKind::Existential(e) => {
            let mut values: Vec<Value> = e.key_terms.iter().map(eval).collect();
            values.extend(sampled.iter().cloned());
            Fact::new(e.aux_rel, Tuple::from(values))
        }
    }
}

/// The sampling and sink metrics of backend passes that together ran
/// `runs` chase runs and tallied `t`.
pub fn set_pass_layers(out: &mut Outcome, t: &LayerTally, runs: f64) {
    out.set("dist.sample_ns_per_run", t.sample.ns as f64 / runs);
    out.set(
        "dist.log_density_calls_per_run",
        t.log_density.items as f64 / runs,
    );
    out.set(
        "sink.ns_per_obs",
        t.sink.ns as f64 / t.sink.items.max(1) as f64,
    );
    out.set("sink.obs_per_run", t.sink.items as f64 / runs);
    if t.batch_worlds > 0 {
        out.set(
            "mc.lanes_per_world",
            t.batch_lanes as f64 / t.batch_worlds as f64,
        );
    }
}

/// One backend pass run inside a span. Work that ran on more than one
/// thread is measured in process CPU time, so that the span's self time
/// (its length minus the tallied draws, densities and sink folds) stays
/// the chase's own busy time. Returns the result, the tally of the pass,
/// and the span's index.
pub fn traced_pass<T>(
    tracer: &mut Tracer,
    layers: &Layers,
    name: &str,
    request: u64,
    threads: usize,
    f: impl FnOnce() -> T,
) -> (T, LayerTally, usize) {
    let before = layers.read();
    let cpu = process_cpu_ns();
    let (out, id) = tracer.span(name, request, |_| f());
    if threads > 1 {
        tracer.set_duration(id, process_cpu_ns() - cpu);
    }
    let tally = attach_tally(tracer, id, before, layers.read());
    (out, tally, id)
}
