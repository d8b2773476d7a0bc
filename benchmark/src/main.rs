//! The workload-corpus benchmark of the gdatalog engine.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload heights-256 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds`, after checking its
//! answers, and prints a human-readable report on standard error. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. A traced run also writes its spans and host facts to
//! `.bench_out/`. See `README.md` in this directory for why each
//! workload exists and which end-to-end metric each layer metric should
//! move.

mod common;
mod diagnosis;
mod emfit;
mod gen;
mod heights;
mod http;
mod rng;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Args, Outcome};

/// The end-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("answer_ms.p50", "ms"),
    ("answer_ms.p95", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("lang.parse_ms", "ms"),
    ("lang.validate_ms", "ms"),
    ("lang.translate_ms", "ms"),
    ("lang.observe_compile_us", "us"),
    ("lang.facts_parse_us", "us"),
    ("plan.prepare_ms", "ms"),
    ("app.ns_per_step", "ns"),
    ("app.pairs_per_step", "count"),
    ("app.growth_64_to_256", "ratio"),
    ("chase.steps_per_run", "count"),
    ("chase.self_ns_per_run", "ns"),
    ("mc.lanes_per_world", "ratio"),
    ("dist.draws_per_run.Flip", "count"),
    ("dist.draws_per_run.Normal", "count"),
    ("dist.sample_ns_per_run", "ns"),
    ("dist.log_density_calls_per_run", "count"),
    ("observe.log_weight_ns", "ns"),
    ("observe.calls_per_run", "count"),
    ("sink.ns_per_obs", "ns"),
    ("sink.obs_per_run", "count"),
    ("sink.ess_per_run", "ratio"),
    ("exact.worlds", "count"),
    ("exact.ms_per_pass", "ms"),
    ("mh.accept_rate", "frac"),
    ("mh.ess_per_kept", "ratio"),
    ("mh.us_per_kept", "us"),
    ("serve.decode_us", "us"),
    ("serve.execute_us.exact", "us"),
    ("serve.execute_us.mc", "us"),
    ("serve.execute_us.lw", "us"),
    ("serve.execute_us.multi", "us"),
    ("serve.encode_us", "us"),
    ("net.overhead_us", "us"),
    ("gen.late_ms.p99", "ms"),
    ("net.admission_rejections", "count"),
    ("net.deadline_rejections", "count"),
    ("learn.dataset_parse_ms", "ms"),
    ("learn.estep_ms", "ms"),
    ("learn.mstep_us", "us"),
    ("learn.iterations", "count"),
    ("trace.overhead_frac", "frac"),
    ("ess_per_s", "1/s"),
    ("http.p50_ms", "ms"),
    ("http.p99_ms", "ms"),
    ("http.max_rps", "1/s"),
    ("fit_s", "s"),
    ("failed_frac", "frac"),
];

pub const WORKLOADS: [&str; 3] = ["heights-256", "diagnosis-posterior", "http-mix"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// Facts about the host that every result carries.
fn host_facts(args: &Args, skipped: &[String]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::env::var("GDL_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{cores},\"commit\":\"{}\",\"skipped\":[{}]}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        commit.replace(['"', '\\'], ""),
        skipped.iter().map(|s| format!("\"{}\"", s.replace(['"', '\\'], ""))).collect::<Vec<_>>().join(","),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("corpus: {e}");
            eprintln!("usage: corpus --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut skipped = Vec::new();
    if args.workload == "diagnosis-posterior" && cores < 2 {
        skipped.push(format!("2-thread parallelism: the host has {cores} core"));
    }
    let mut out: Outcome = match args.workload.as_str() {
        "heights-256" => heights::run(&args),
        "diagnosis-posterior" => diagnosis::run(&args),
        _ => http::run(&args),
    };
    out.set("peak_rss_mb", trace::peak_rss_mb());
    let host = host_facts(&args, &skipped);

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        out.set(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        let tracer = out.tracer.take().unwrap_or_default();
        let layers = tracer.self_by_layer();
        if let Some((layer, ns)) = layers.first() {
            out.notes.push(format!(
                "largest self time: layer `{layer}` ({:.1} ms)",
                *ns as f64 / 1e6
            ));
        }
        let path = format!(".bench_out/trace-{}-seed{}.json", args.workload, args.seed);
        let by_layer: Vec<String> = layers
            .iter()
            .map(|(l, ns)| format!("\"{l}\":{ns}"))
            .collect();
        let doc = format!(
            "{{\"host\":{host},\"self_ns_by_layer\":{{{}}},\"spans\":{}}}\n",
            by_layer.join(","),
            tracer.to_json()
        );
        if let Err(e) =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, doc))
        {
            eprintln!("corpus: could not write {path}: {e}");
        } else {
            out.notes.push(format!("spans written to {path}"));
        }
    }

    eprintln!(
        "== {} seed {} ({}) host {host}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    for note in &out.notes {
        eprintln!("   {note}");
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("   {name:<34} {value:>16.6} {unit}");
        let _ = write!(
            metrics,
            "{}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    eprintln!(
        "   attempted {} failed {} correct {} (failed_frac {:.6})",
        out.attempted,
        out.failed,
        out.correct,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}
