//! `gdl` — a small command-line front-end for the GDatalog engine.
//!
//! ```text
//! gdl check  <file.gdl>                  parse + validate + analyze + show Ĝ
//! gdl exact  <file.gdl> [--barany] [--depth N] [--input facts.gdl] [--given "obs"]
//!                       [--format json]
//! gdl sample <file.gdl> [--barany] [--runs N] [--seed S] [--steps N]
//!                       [--threads N] [--batch N] [--input facts.gdl]
//!                       [--format json|facts] [--out data.gdl]
//! gdl fit    <file.gdl> <data.gdl> [--barany] [--em-iters N] [--tol X]
//!                       [--runs N] [--seed S] [--steps N] [--out fitted.gdl]
//!                       [--format json]
//! gdl query  <file.gdl> <marginal|expectation|histogram|quantile|tail> <Relation>
//!                       [--agg count|sum|avg|min|max] [--col K]
//!                       [--lo X --hi Y --bins N] [--q Q] [--threshold T]
//!                       [--and "<kind>:<Rel>[:...]"]... [--given "observations"]
//!                       [--exact | --mc | --mh] [--runs N] [--seed S] [--steps N]
//!                       [--depth N] [--ess-target E [--max-runs N]] [--burn-in N]
//!                       [--thin N] [--threads N] [--batch N] [--input facts.gdl]
//!                       [--format json]
//! gdl batch  <requests.json> [--barany] [--threads N] [--format json]
//! gdl serve  <file.gdl> [--barany] [--addr HOST:PORT] [--workers N]
//!                       [--max-inflight N] [--deadline-ms MS] [--max-body-bytes N]
//! gdl loadgen <requests.json> [--addr HOST:PORT] [--connections N]
//!                       [--duration-ms MS] [--rate R] [--out report.json]
//! gdl tree   <file.gdl> [--barany] [--depth N]   chase tree in Graphviz DOT
//! ```
//!
//! Each command accepts exactly the flags listed in [`FLAGS`]; any other
//! flag is an error, never a silent no-op. `query`'s per-kind flags
//! (`--agg`, `--col`, `--lo`/`--hi`/`--bins`, `--q`, `--threshold`) are
//! accepted only next to the kinds that read them ([`KIND_FLAGS`]).
//!
//! `query` is the command-line face of the serving layer
//! (`gdatalog::serve`). Its flags are *lowered* to one wire [`Request`]
//! and answered by the same executor, validation and renderer as
//! `POST /v1/query`, so `--format json` prints exactly the wire reply.
//! The positional query and every `--and` query are answered from a
//! **single** evaluation pass (chase once, answer many). `--and` specs
//! are colon-separated: `marginal:Rel`, `expectation:Rel[:agg[:col]]`,
//! `histogram:Rel:col:lo:hi:bins`, `quantile:Rel:col:q`,
//! `tail:Rel:col:threshold`. The CLI checks only this syntax; relations,
//! columns, bounds and backend combinations are checked by the serving
//! layer and rejected with the wire's reason. Lowering keeps the CLI's
//! defaults: seed 0, and a chase budget of `--steps` (100 000) when the
//! request samples and `--depth` (10 000) when it enumerates exactly.
//! `--runs` is passed on only when given; next to `--ess-target` it sets
//! the first batch (default 512).
//!
//! `query --given "<observations>"` **conditions** the query: the argument
//! takes `@observe` statements with the prefix optional — hard ground
//! facts (`"Alarm(h1)."`) and soft likelihood statements
//! (`"Normal<M, 1.0> == 2.5 :- Mu(M)."`) — and the answer is the
//! posterior (exact renormalization or likelihood-weighted Monte-Carlo).
//!
//! `batch` is the serving path for many requests: the document names a
//! program (by path or inline source) and a list of independent requests
//! — the program compiles **once**, warm sessions are pooled, and
//! requests are scheduled across `--threads` workers with answers in
//! request order, bit-identical to one-at-a-time evaluation:
//!
//! ```text
//! {
//!   "program": "model.gdl",
//!   "requests": [
//!     {"kind": "marginal", "fact": "Alarm(h0)", "evidence": "City(h0, 0.3)."},
//!     {"kind": "expectation", "rel": "Alarm", "agg": "count"},
//!     {"kind": "histogram", "rel": "PHeight", "col": 1, "lo": 140, "hi": 220,
//!      "bins": 16, "backend": "mc", "runs": 20000, "seed": 7}
//!   ]
//! }
//! ```
//!
//! `sample --format facts` dumps the sampled worlds as ground-fact text,
//! one `% run k` block per run — exactly the dataset format `gdl fit`
//! ingests, so a model can be round-tripped: sample a dataset from known
//! parameters, punch `?` holes into the program, and refit.
//!
//! `fit` estimates every free-parameter hole (`Normal<?mu, ?s2>`) of a
//! program from such a dataset: holes of relations present in the data are
//! fitted in closed form (weighted MLE per family), holes of latent
//! relations by EM over the conditioned evaluation machinery
//! (`gdatalog::learn`).
//!
//! `serve` keeps the same model resident behind an HTTP/1.1 front end
//! (`gdatalog::net`): `POST /v1/query` and `POST /v1/batch` speak the
//! batch wire format, `GET /v1/stats` reports metrics, and
//! `POST /v1/shutdown` drains the server. `loadgen` drives a running
//! server with the requests of a corpus document and reports req/s and
//! exact p50/p99 latency.

use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

use gdatalog::engine::{build_chase_tree, ChasePolicy};
use gdatalog::lang::CompiledProgram;
use gdatalog::net::{self, HttpServer, LoadgenConfig, NetConfig};
use gdatalog::prelude::*;
use gdatalog::serve::json::{escape as json_escape, Json};
use gdatalog::serve::{batch_items, execute_on, parse_agg};

/// The flags each command honours, consulted once in [`run`]: a flag
/// missing from a command's row is rejected instead of silently ignored.
/// `--format facts` has a row entry of its own because only `sample`
/// dumps facts. The positional synopsis feeds the usage text.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, &[&str])] = &[
    ("check", "<file.gdl>", &["--barany"]),
    ("exact", "<file.gdl>", &["--barany", "--depth", "--input", "--given", "--format"]),
    ("sample", "<file.gdl>", &[
        "--barany", "--runs", "--seed", "--steps", "--threads", "--batch", "--input",
        "--format", "--format facts", "--out",
    ]),
    ("query", "<file.gdl> <marginal|expectation|histogram|quantile|tail> <Relation>", &[
        "--barany", "--agg", "--col", "--lo", "--hi", "--bins", "--q", "--threshold", "--and",
        "--given", "--exact", "--mc", "--mh", "--runs", "--seed", "--steps", "--depth",
        "--ess-target", "--max-runs", "--burn-in", "--thin", "--threads", "--batch", "--input",
        "--format",
    ]),
    ("fit", "<file.gdl> <data.gdl>", &[
        "--barany", "--em-iters", "--tol", "--runs", "--seed", "--steps", "--out", "--format",
    ]),
    ("batch", "<requests.json>", &["--barany", "--threads", "--format"]),
    ("serve", "<file.gdl>", &[
        "--barany", "--addr", "--workers", "--max-inflight", "--deadline-ms", "--max-body-bytes",
    ]),
    ("loadgen", "<requests.json>", &[
        "--addr", "--connections", "--duration-ms", "--rate", "--out",
    ]),
    ("tree", "<file.gdl>", &["--barany", "--depth"]),
];

/// `query`'s per-kind flags, each with the positional query kinds that
/// read it: next to any other kind the flag is rejected, not ignored.
#[rustfmt::skip]
const KIND_FLAGS: &[(&str, &[&str])] = &[
    ("--agg", &["expectation"]),
    ("--col", &["expectation", "histogram", "quantile", "tail"]),
    ("--lo", &["histogram"]),
    ("--hi", &["histogram"]),
    ("--bins", &["histogram"]),
    ("--q", &["quantile"]),
    ("--threshold", &["tail"]),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    /// `sample` only: ground-fact text in `% run k` blocks — the dataset
    /// format `gdl fit` ingests.
    Facts,
}

struct Args {
    command: String,
    file: String,
    /// `query` positionals: kind and relation name.
    query_kind: Option<String>,
    query_rel: Option<String>,
    /// `fit` positional: the dataset file.
    data: Option<String>,
    /// `fit --em-iters`: EM iteration cap for latent holes.
    em_iters: usize,
    /// `fit --tol`: relative log-likelihood convergence tolerance.
    tol: f64,
    mode: SemanticsMode,
    /// `--runs`, when given (`None` keeps each command's default).
    runs: Option<usize>,
    seed: u64,
    steps: usize,
    depth: usize,
    threads: usize,
    /// Whether `--threads` was given explicitly (the flag then overrides a
    /// batch document's own `threads` member, including `--threads 1`).
    threads_set: bool,
    /// Every flag seen on the command line, in order — checked against
    /// the command's row of [`FLAGS`].
    seen_flags: Vec<String>,
    input: Option<String>,
    given: Option<String>,
    format: Format,
    /// `query`'s evaluation spec, written by its backend, ESS and MH
    /// flags; `lower_query` adds the flags other commands share.
    spec: EvalSpec,
    agg: AggFun,
    col: Option<usize>,
    lo: Option<f64>,
    hi: Option<f64>,
    bins: usize,
    q: Option<f64>,
    threshold: Option<f64>,
    /// Additional queries (`--and <spec>`, repeatable) answered in the
    /// same backend pass as the positional query.
    and: Vec<String>,
    /// `--batch`: Monte-Carlo lane-batch size (bit-identical at any
    /// value; at `1` every run is a lane group of its own).
    batch: Option<usize>,
    /// `serve`/`loadgen`: address to bind / target.
    addr: String,
    /// `serve`: worker threads (`None` = one per core).
    workers: Option<usize>,
    /// `serve`: admission cap (`None` = the net-layer default).
    max_inflight: Option<usize>,
    /// `serve`: body cap in bytes (`None` = the net-layer default).
    max_body_bytes: Option<usize>,
    /// `serve`: per-request evaluation budget in milliseconds.
    deadline_ms: Option<u64>,
    /// `loadgen`: concurrent keep-alive connections.
    connections: usize,
    /// `loadgen`: run length in milliseconds.
    duration_ms: u64,
    /// `loadgen`: open-loop target rate (requests/second, all
    /// connections together); `None` = closed-loop.
    rate: Option<f64>,
    /// `sample`/`fit`/`loadgen`: also write the output to this path.
    out: Option<String>,
}

/// Parses `raw` as the value of `what`.
fn parse<T: FromStr>(what: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("{what}: {e}"))
}

/// Takes the value after `flag` and parses it.
fn value<T: FromStr>(flag: &str, argv: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    parse(flag, &argv.next().ok_or(format!("{flag} needs a value"))?)
}

/// Takes the value after `flag`, rejecting `0` with `why`.
fn positive(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
    why: &str,
) -> Result<usize, String> {
    match value(flag, argv)? {
        0 => Err(format!("{flag} 0 {why}")),
        n => Ok(n),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let file = argv.next().ok_or("missing program file")?;
    let mut args = Args {
        command,
        file,
        query_kind: None,
        query_rel: None,
        data: None,
        em_iters: 50,
        tol: 1e-6,
        mode: SemanticsMode::Grohe,
        runs: None,
        seed: 0,
        steps: 100_000,
        depth: 10_000,
        threads: 1,
        threads_set: false,
        seen_flags: Vec::new(),
        input: None,
        given: None,
        format: Format::Text,
        spec: EvalSpec::default(),
        agg: AggFun::Count,
        col: None,
        lo: None,
        hi: None,
        bins: 20,
        q: None,
        threshold: None,
        and: Vec::new(),
        batch: None,
        addr: "127.0.0.1:7171".to_string(),
        workers: None,
        max_inflight: None,
        max_body_bytes: None,
        deadline_ms: None,
        connections: 4,
        duration_ms: 3_000,
        rate: None,
        out: None,
    };
    if args.command == "query" {
        args.query_kind = Some(argv.next().ok_or("query needs a kind")?);
        args.query_rel = Some(argv.next().ok_or("query needs a relation")?);
    }
    if args.command == "fit" {
        args.data = Some(argv.next().ok_or("fit needs a dataset file")?);
    }
    while let Some(flag) = argv.next() {
        let argv = &mut argv;
        match flag.as_str() {
            "--barany" => args.mode = SemanticsMode::Barany,
            "--runs" => args.runs = Some(value(&flag, argv)?),
            "--seed" => args.seed = value(&flag, argv)?,
            "--steps" => args.steps = value(&flag, argv)?,
            "--depth" => args.depth = value(&flag, argv)?,
            "--threads" => {
                let why = "would mean no workers; pass at least 1 (or omit the flag)";
                args.threads = positive(&flag, argv, why)?;
                args.threads_set = true;
            }
            "--input" => args.input = Some(value(&flag, argv)?),
            "--given" => args.given = Some(value(&flag, argv)?),
            "--format" => {
                args.format = match value::<String>(&flag, argv)?.as_str() {
                    "json" => Format::Json,
                    "text" => Format::Text,
                    "facts" => Format::Facts,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--exact" => args.spec = args.spec.backend(BackendChoice::Exact),
            "--mc" => args.spec = args.spec.backend(BackendChoice::Mc),
            "--mh" => args.spec = args.spec.backend(BackendChoice::Mh),
            "--ess-target" => args.spec = args.spec.ess_target(EssTarget::new(value(&flag, argv)?)),
            "--max-runs" => args.spec = args.spec.max_runs(value(&flag, argv)?),
            "--batch" => {
                let why = "would schedule empty lane batches; pass at least 1 \
                           (at 1 each run is its own lane group)";
                args.batch = Some(positive(&flag, argv, why)?);
            }
            "--burn-in" => args.spec = args.spec.burn_in(value(&flag, argv)?),
            "--thin" => args.spec = args.spec.thin(value(&flag, argv)?),
            "--em-iters" => args.em_iters = positive(&flag, argv, "would fit nothing")?,
            "--tol" => {
                let tol: f64 = value(&flag, argv)?;
                if !tol.is_finite() || tol <= 0.0 {
                    return Err(format!("--tol must be a positive number, got {tol}"));
                }
                args.tol = tol;
            }
            "--agg" => {
                args.agg = parse_agg(&value::<String>(&flag, argv)?).map_err(|e| e.to_string())?
            }
            "--col" => args.col = Some(value(&flag, argv)?),
            "--lo" => args.lo = Some(value(&flag, argv)?),
            "--hi" => args.hi = Some(value(&flag, argv)?),
            "--bins" => args.bins = value(&flag, argv)?,
            "--q" => args.q = Some(value(&flag, argv)?),
            "--threshold" => args.threshold = Some(value(&flag, argv)?),
            "--and" => args.and.push(value(&flag, argv)?),
            "--addr" => args.addr = value(&flag, argv)?,
            "--workers" => {
                let why = "would mean no serving threads; pass at least 1 (or omit the flag)";
                args.workers = Some(positive(&flag, argv, why)?);
            }
            "--max-inflight" => args.max_inflight = Some(value(&flag, argv)?),
            "--max-body-bytes" => args.max_body_bytes = Some(value(&flag, argv)?),
            "--deadline-ms" => args.deadline_ms = Some(value(&flag, argv)?),
            "--connections" => {
                args.connections = positive(&flag, argv, "would send nothing")?;
            }
            "--duration-ms" => args.duration_ms = value(&flag, argv)?,
            "--rate" => {
                let rate: f64 = value(&flag, argv)?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(format!("--rate must be a positive number, got {rate}"));
                }
                args.rate = Some(rate);
            }
            "--out" => args.out = Some(value(&flag, argv)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        args.seen_flags.push(flag);
    }
    Ok(args)
}

/// Rejects any flag the command's row of [`FLAGS`] does not list.
fn check_flags(args: &Args) -> Result<(), String> {
    let Some((_, _, accepted)) = FLAGS.iter().find(|(cmd, _, _)| *cmd == args.command) else {
        let known: Vec<&str> = FLAGS.iter().map(|(cmd, _, _)| *cmd).collect();
        return Err(format!(
            "unknown command `{}` (expected {})",
            args.command,
            known.join(" | ")
        ));
    };
    let facts = (args.format == Format::Facts).then_some("--format facts");
    let seen = args.seen_flags.iter().map(String::as_str).chain(facts);
    for flag in seen {
        if !accepted.contains(&flag) {
            return Err(format!(
                "{flag} does not apply to `{}`; it takes {}",
                args.command,
                accepted.join(" ")
            ));
        }
    }
    Ok(())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn world_text(world: &Instance, catalog: &Catalog) -> String {
    let text = gdatalog::data::canonical_text(world, catalog);
    if text.is_empty() {
        "(empty)".to_string()
    } else {
        text.trim_end().replace('\n', "  ")
    }
}

/// Builds the session and applies `--input` facts.
fn make_session(args: &Args) -> Result<Session, String> {
    let mut session =
        Session::from_source(&read(&args.file)?, args.mode).map_err(|e| e.to_string())?;
    if let Some(path) = &args.input {
        session
            .insert_facts_text(&read(path)?)
            .map_err(|e| e.to_string())?;
    }
    Ok(session)
}

/// Runs `gdl batch <requests.json>`: compile once, pool sessions, answer
/// the batch in request order.
fn run_batch(args: &Args) -> Result<(), String> {
    let doc = Json::parse(&read(&args.file)?).map_err(|e| format!("{}: {e}", args.file))?;
    // The --barany flag wins; otherwise the document's "mode" member
    // (which must be a string when present — no silent default).
    let mode = if args.mode == SemanticsMode::Barany {
        SemanticsMode::Barany
    } else {
        match doc.get("mode") {
            None => SemanticsMode::Grohe,
            Some(m) => match m.as_str() {
                Some("grohe") => SemanticsMode::Grohe,
                Some("barany") => SemanticsMode::Barany,
                Some(other) => return Err(format!("unknown mode `{other}`")),
                None => return Err(format!("`mode` must be a string, got {}", m.render())),
            },
        }
    };
    let src = match (
        doc.get("source").and_then(Json::as_str),
        doc.get("program").and_then(Json::as_str),
    ) {
        (Some(src), _) => src.to_string(),
        (None, Some(path)) => {
            // A relative program path resolves against the batch document
            // (as documented); absolute paths are used as-is.
            let direct = std::path::Path::new(path);
            let resolved = if direct.is_absolute() {
                direct.to_path_buf()
            } else {
                std::path::Path::new(&args.file)
                    .parent()
                    .map(|dir| dir.join(path))
                    .unwrap_or_else(|| direct.to_path_buf())
            };
            read(&resolved.to_string_lossy())?
        }
        (None, None) => {
            return Err("batch document needs a `program` path or inline `source`".to_string())
        }
    };
    let requests: Vec<Request> = batch_items(&doc)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|v| Request::from_json(v).map_err(|e| e.to_string()))
        .collect::<Result<_, String>>()?;
    // An explicit --threads (even `--threads 1`) wins over the document's
    // own "threads" member; a malformed member is an error, not a silent
    // fall-back to sequential execution.
    let threads = if args.threads_set {
        args.threads
    } else {
        match doc.get("threads") {
            None => 1,
            Some(n) => n.as_usize().ok_or_else(|| {
                format!(
                    "`threads` must be a non-negative whole number, got {}",
                    n.render()
                )
            })?,
        }
    };
    if threads == 0 {
        return Err(
            "the document's `threads` member is 0, which would mean no workers; \
             use 1 or more (or drop the member for sequential execution)"
                .to_string(),
        );
    }
    let server = Server::from_source(&src, mode)
        .map_err(|e| e.to_string())?
        .threads(threads);
    let answers = server.batch(&requests);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let rendered: Vec<Json> = answers
        .iter()
        .map(|answer| match answer {
            Ok(response) => response.to_json(),
            Err(e) => Json::Obj(vec![("error".into(), Json::Str(e.to_string()))]),
        })
        .collect();
    match args.format {
        Format::Facts => unreachable!("rejected by the flag table"),
        Format::Json => {
            let _ = writeln!(
                out,
                "{}",
                Json::Obj(vec![("results".into(), Json::Arr(rendered))]).render()
            );
        }
        Format::Text => {
            for (i, row) in rendered.iter().enumerate() {
                let _ = writeln!(out, "[{i}] {}", row.render());
            }
            let _ = writeln!(
                out,
                "# {} request(s), {} worker(s), {} pooled session(s)",
                requests.len(),
                threads,
                server.pool().created()
            );
        }
    }
    Ok(())
}

/// Runs `gdl serve <model.gdl>`: compile once, then serve it over HTTP
/// until a client posts `/v1/shutdown`.
fn run_serve(args: &Args) -> Result<(), String> {
    let src = read(&args.file)?;
    let mut config = NetConfig::default();
    if let Some(workers) = args.workers {
        config.workers = workers;
    }
    if let Some(max_inflight) = args.max_inflight {
        config.max_inflight = max_inflight;
    }
    if let Some(max_body_bytes) = args.max_body_bytes {
        config.max_body_bytes = max_body_bytes;
    }
    config.deadline = args.deadline_ms.map(std::time::Duration::from_millis);
    let server =
        HttpServer::start_source(&src, args.mode, &args.addr, config).map_err(|e| e.to_string())?;
    eprintln!(
        "gdl serve: listening on http://{} ({} worker(s)); POST /v1/shutdown to stop",
        server.addr(),
        server.workers()
    );
    server.join();
    eprintln!("gdl serve: drained, bye");
    Ok(())
}

/// Runs `gdl loadgen <requests.json>` against a live server and prints
/// (and optionally writes) the JSON report.
fn run_loadgen(args: &Args) -> Result<(), String> {
    let bodies = net::bodies_from_json(&read(&args.file)?).map_err(|e| e.to_string())?;
    let report = net::run_loadgen(
        &bodies,
        &LoadgenConfig {
            addr: args.addr.clone(),
            connections: args.connections,
            duration: std::time::Duration::from_millis(args.duration_ms),
            rate: args.rate,
            ..LoadgenConfig::default()
        },
    );
    let rendered = report.to_json();
    println!("{rendered}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{rendered}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if report.sent == report.io_errors {
        return Err(format!(
            "no request survived the socket — is a server listening on {}?",
            args.addr
        ));
    }
    Ok(())
}

/// Runs `gdl fit <model.gdl> <data.gdl>`: estimate every `?` hole of the
/// program from the dataset and print (or write) the fitted program plus
/// its [`gdatalog::learn::FitReport`].
fn run_fit(args: &Args) -> Result<(), String> {
    let src = read(&args.file)?;
    let data = read(args.data.as_deref().expect("parsed"))?;
    let opts = gdatalog::learn::FitOptions {
        mode: args.mode,
        em_iters: args.em_iters,
        tol: args.tol,
        seed: args.seed,
        runs: args.runs.unwrap_or(10_000),
        max_depth: Some(args.steps),
    };
    let fitted = gdatalog::learn::fit_program(&src, &data, &opts).map_err(|e| e.to_string())?;
    let report = &fitted.report;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match args.format {
        Format::Json => {
            let _ = writeln!(out, "{}", report.to_json());
        }
        Format::Facts => unreachable!("rejected by the flag table"),
        Format::Text => {
            for e in &report.estimates {
                let gof = match e.goodness_of_fit {
                    Some(g) => format!("{g:.3}"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{:<24} = {:<12} ({} of {}, n_obs {:.1}, gof {gof}{})",
                    e.label,
                    e.value.to_string(),
                    e.dist,
                    e.rel,
                    e.n_obs,
                    if e.latent { ", latent" } else { "" },
                );
            }
            let _ = writeln!(
                out,
                "# {} block(s), {} fact(s); log-likelihood {:.4}; {} iteration(s), {}{}",
                report.n_blocks,
                report.n_facts,
                report.final_log_likelihood(),
                report.iterations,
                if report.em { "EM" } else { "closed form" },
                if report.converged {
                    ", converged"
                } else {
                    ", NOT converged"
                },
            );
            if args.out.is_none() {
                let _ = writeln!(out, "\nfitted program:");
                for line in fitted.source.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, &fitted.source).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("gdl fit: wrote fitted program to {path}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    check_flags(&args)?;
    match args.command.as_str() {
        "batch" => return run_batch(&args),
        "serve" => return run_serve(&args),
        "loadgen" => return run_loadgen(&args),
        "fit" => return run_fit(&args),
        "query" => return run_query(&args),
        _ => {}
    }
    let session = make_session(&args)?;
    let program = session.program();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match args.command.as_str() {
        "check" => {
            let n_exist = program.rules.iter().filter(|r| r.is_existential()).count();
            let _ = writeln!(out, "semantics:        {}", program.mode);
            let _ = writeln!(out, "relations:        {}", program.catalog.len());
            let _ = writeln!(
                out,
                "rules (Datalog∃): {} ({} existential)",
                program.rules.len(),
                n_exist
            );
            let _ = writeln!(out, "initial facts:    {}", program.initial_instance.len());
            let _ = writeln!(out, "all discrete:     {}", program.all_discrete());
            let _ = writeln!(out, "weakly acyclic:   {}", program.weakly_acyclic());
            if let Some(((from_r, from_c), (to_r, to_c))) = &program.acyclicity.witness {
                let _ = writeln!(
                    out,
                    "  cycle witness: ({from_r}, {from_c}) → ({to_r}, {to_c})"
                );
            }
            let _ = writeln!(out, "\nassociated Datalog∃ program Ĝ (§3.2):");
            for line in program.render_existential_program().lines() {
                let _ = writeln!(out, "  {line}");
            }
            Ok(())
        }
        "exact" => {
            let mut eval = session.eval().exact().max_depth(args.depth);
            if let Some(given) = &args.given {
                eval = eval.given(given.clone());
            }
            let worlds = eval.worlds().map_err(|e| e.to_string())?;
            match args.format {
                Format::Facts => unreachable!("rejected by the flag table"),
                Format::Text => {
                    for (text, p) in worlds.table(&program.catalog) {
                        let _ = writeln!(out, "{p:.6}  {text}");
                    }
                    let _ = writeln!(
                        out,
                        "# mass {:.6}, non-termination {:.6}, truncation {:.6}",
                        worlds.mass(),
                        worlds.deficit().nontermination,
                        worlds.deficit().truncation
                    );
                }
                Format::Json => {
                    let rows: Vec<String> = worlds
                        .table(&program.catalog)
                        .into_iter()
                        .map(|(text, p)| {
                            format!("{{\"p\": {p}, \"world\": \"{}\"}}", json_escape(&text))
                        })
                        .collect();
                    let _ = writeln!(
                        out,
                        "{{\"mass\": {}, \"nontermination\": {}, \"truncation\": {}, \
                         \"worlds\": [{}]}}",
                        worlds.mass(),
                        worlds.deficit().nontermination,
                        worlds.deficit().truncation,
                        rows.join(", ")
                    );
                }
            }
            Ok(())
        }
        "sample" => {
            let mut eval = session
                .eval()
                .sample(args.runs.unwrap_or(10_000))
                .seed(args.seed)
                .threads(args.threads)
                .max_depth(args.steps);
            if let Some(batch) = args.batch {
                eval = eval.batch(batch);
            }
            let pdb = eval.pdb().map_err(|e| e.to_string())?;
            if args.format == Format::Facts {
                // The dataset dump `gdl fit` ingests: one `% run k` block
                // of canonical ground-fact text per sampled world.
                let mut dump = String::new();
                for (k, world) in pdb.samples().iter().enumerate() {
                    dump.push_str(&format!("% run {k}\n"));
                    dump.push_str(&gdatalog::data::canonical_text(world, &program.catalog));
                }
                match &args.out {
                    Some(path) => std::fs::write(path, &dump)
                        .map_err(|e| format!("cannot write {path}: {e}"))?,
                    None => {
                        let _ = write!(out, "{dump}");
                    }
                }
                return Ok(());
            }
            if args.out.is_some() {
                return Err(
                    "--out on `sample` writes the facts dump; pass --format facts".to_string(),
                );
            }
            let dist = pdb.to_distribution();
            let mut rows: Vec<(f64, String)> = dist
                .iter()
                .map(|(d, p)| (*p, world_text(d, &program.catalog)))
                .collect();
            rows.sort_by(|a, b| b.0.total_cmp(&a.0));
            match args.format {
                Format::Facts => unreachable!("handled above"),
                Format::Text => {
                    for (p, text) in rows.iter().take(20) {
                        let _ = writeln!(out, "{p:.6}  {text}");
                    }
                    if rows.len() > 20 {
                        let _ = writeln!(out, "… {} more distinct worlds", rows.len() - 20);
                    }
                    let _ = writeln!(
                        out,
                        "# runs {}, errors {}, estimated mass {:.4}",
                        pdb.runs(),
                        pdb.errors(),
                        pdb.mass()
                    );
                }
                Format::Json => {
                    let worlds: Vec<String> = rows
                        .iter()
                        .map(|(p, text)| {
                            format!("{{\"p\": {p}, \"world\": \"{}\"}}", json_escape(text))
                        })
                        .collect();
                    let _ = writeln!(
                        out,
                        "{{\"runs\": {}, \"errors\": {}, \"mass\": {}, \"worlds\": [{}]}}",
                        pdb.runs(),
                        pdb.errors(),
                        pdb.mass(),
                        worlds.join(", ")
                    );
                }
            }
            Ok(())
        }
        "tree" => {
            let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
            let tree = build_chase_tree(
                program,
                &program.initial_instance,
                &mut policy,
                ExactConfig {
                    max_depth: args.depth,
                    ..ExactConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let _ = write!(out, "{}", tree.to_dot(&program.catalog));
            Ok(())
        }
        _ => unreachable!("the flag table admits only known commands"),
    }
}

/// Lowers `gdl query`'s flags to one wire [`Request`]: the positional
/// query first, then every `--and` query, and every evaluation flag onto
/// the request's [`EvalSpec`]. Only syntax is checked here; everything
/// else is the spec's and the serving layer's to check.
fn lower_query(args: &Args, program: &CompiledProgram) -> Result<Request, String> {
    let rel = args.query_rel.clone().expect("parsed");
    // Column statistics default to the relation's last column; an unknown
    // relation is left for the serving layer to report.
    let col = args.col.unwrap_or_else(|| {
        let arity = program
            .catalog
            .resolve(&rel)
            .map(|r| program.catalog.decl(r).arity());
        arity.unwrap_or(0).saturating_sub(1)
    });
    let kind = args.query_kind.as_deref().expect("parsed");
    let primary = match kind {
        // The CLI's `marginal` has always meant all-fact marginals of a
        // relation; `marginals` (the wire-format name) is an alias.
        "marginal" | "marginals" => QueryKind::Marginals { rel },
        "expectation" => QueryKind::Expectation {
            rel,
            agg: args.agg,
            col: args.col,
        },
        "histogram" => {
            let (Some(lo), Some(hi)) = (args.lo, args.hi) else {
                return Err("histogram needs --lo and --hi".to_string());
            };
            QueryKind::Histogram {
                rel,
                col,
                lo,
                hi,
                bins: args.bins,
            }
        }
        "quantile" => {
            let q = args.q.ok_or("quantile needs --q (in [0, 1])")?;
            QueryKind::Quantile { rel, col, q }
        }
        "tail" => {
            let threshold = args.threshold.ok_or("tail needs --threshold")?;
            QueryKind::Tail {
                rel,
                col,
                threshold,
            }
        }
        other => {
            return Err(format!(
                "unknown query kind `{other}` (expected marginal | expectation | histogram | \
                 quantile | tail)"
            ))
        }
    };
    for (flag, kinds) in KIND_FLAGS {
        if !kinds.contains(&kind) && args.seen_flags.iter().any(|seen| seen == flag) {
            return Err(format!(
                "{flag} does not apply to `query {kind}`; it applies to {}",
                kinds.join(" | ")
            ));
        }
    }
    let mut queries = vec![primary];
    for spec in &args.and {
        queries.push(parse_and_spec(spec)?);
    }
    let spec = args.spec.seed(args.seed).threads(args.threads);
    let spec = args.runs.map_or(spec, |runs| spec.runs(runs));
    let spec = args.batch.map_or(spec, |batch| spec.batch(batch));
    let budget = if spec.samples(program) {
        args.steps
    } else {
        args.depth
    };
    Ok(Request {
        queries,
        input: args.input.as_deref().map(read).transpose()?,
        given: args.given.clone(),
        spec: spec.max_depth(budget),
    })
}

/// Splits one `--and` spec into a textual query. The mini-grammar is
/// colon-separated: `marginal:Rel`, `expectation:Rel[:agg[:col]]`,
/// `histogram:Rel:col:lo:hi:bins`, `quantile:Rel:col:q`,
/// `tail:Rel:col:threshold`.
fn parse_and_spec(spec: &str) -> Result<QueryKind, String> {
    let bad = |msg: String| format!("--and `{spec}`: {msg}");
    let parts: Vec<&str> = spec.split(':').collect();
    let rel = parts.get(1).map(|r| r.to_string()).unwrap_or_default();
    Ok(match parts.as_slice() {
        ["marginal" | "marginals", _] => QueryKind::Marginals { rel },
        ["expectation", _, rest @ ..] if rest.len() <= 2 => QueryKind::Expectation {
            rel,
            agg: match rest.first() {
                Some(agg) => parse_agg(agg).map_err(|e| bad(e.to_string()))?,
                None => AggFun::Count,
            },
            col: rest
                .get(1)
                .map(|c| parse("col", c))
                .transpose()
                .map_err(bad)?,
        },
        ["histogram", _, col, lo, hi, bins] => QueryKind::Histogram {
            rel,
            col: parse("col", col).map_err(bad)?,
            lo: parse("lo", lo).map_err(bad)?,
            hi: parse("hi", hi).map_err(bad)?,
            bins: parse("bins", bins).map_err(bad)?,
        },
        ["quantile", _, col, q] => QueryKind::Quantile {
            rel,
            col: parse("col", col).map_err(bad)?,
            q: parse("q", q).map_err(bad)?,
        },
        ["tail", _, col, threshold] => QueryKind::Tail {
            rel,
            col: parse("col", col).map_err(bad)?,
            threshold: parse("threshold", threshold).map_err(bad)?,
        },
        _ => {
            return Err(bad(
                "expected marginal:Rel | expectation:Rel[:agg[:col]] | \
                 histogram:Rel:col:lo:hi:bins | quantile:Rel:col:q | tail:Rel:col:threshold"
                    .to_string(),
            ))
        }
    })
}

/// Renders one response as the text lines `gdl query` prints. Total: an
/// empty expectation/quantile prints an explicit `empty` line (matching
/// the `{"empty": true}` JSON shape) instead of erroring mid-stream and
/// discarding the remaining answers of a multi-query invocation.
fn write_answer_text(out: &mut impl std::io::Write, response: &Response) {
    match response {
        Response::Marginal(p) | Response::Probability(p) | Response::Tail(p) => {
            let _ = writeln!(out, "{p:.6}");
        }
        Response::Marginals(rows) => {
            for (fact, p) in rows {
                let _ = writeln!(out, "{p:.6}  {fact}");
            }
        }
        Response::Expectation(None) => {
            let _ = writeln!(out, "empty (no world mass observed)");
        }
        Response::Expectation(Some(m)) => {
            let _ = writeln!(
                out,
                "mean {:.6}  variance {:.6}  mass {:.6}",
                m.mean, m.variance, m.mass
            );
        }
        Response::Histogram(hist) => {
            for (i, count) in hist.bins.iter().enumerate() {
                let _ = writeln!(out, "{:>12.4}  {count:.6}", hist.bin_center(i));
            }
            let _ = writeln!(
                out,
                "# underflow {:.6}, overflow {:.6}, mass {:.6}",
                hist.underflow, hist.overflow, hist.mass
            );
        }
        Response::Quantile(None) => {
            let _ = writeln!(out, "empty (no value mass observed)");
        }
        Response::Quantile(Some(v)) => {
            let _ = writeln!(out, "{v:.6}");
        }
    }
}

/// Runs `gdl query`: lowers the flags to one [`Request`] and answers it
/// through the serving layer's executor — one backend pass for the
/// positional query and every `--and` query. `--threads` and `--batch`
/// ride in the request's spec (no wire member sets them); neither
/// changes an answer.
fn run_query(args: &Args) -> Result<(), String> {
    let mut session =
        Session::from_source(&read(&args.file)?, args.mode).map_err(|e| e.to_string())?;
    let request = lower_query(args, session.program())?;
    let reply = execute_on(&mut session, &request).map_err(|e| e.to_string())?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match args.format {
        Format::Facts => unreachable!("rejected by the flag table"),
        Format::Json => {
            let _ = writeln!(out, "{}", reply.to_json().render());
        }
        Format::Text => {
            let multi = reply.responses.len() > 1;
            for (i, response) in reply.responses.iter().enumerate() {
                if multi {
                    let _ = writeln!(out, "[{i}] {}", response.kind());
                }
                write_answer_text(&mut out, response);
            }
            if let Some(ev) = reply.evidence {
                // log-mass is the authoritative figure: the linear mass
                // reads 0.000000 once the log drops below ≈ −745.
                let _ = writeln!(
                    out,
                    "# evidence mass {:.6} (log {:.4}), ess {:.1}, worlds {}, runs {}",
                    ev.mass, ev.log_mass, ev.ess, ev.worlds, ev.runs
                );
                if let Some(rate) = ev.accept_rate {
                    let _ = writeln!(out, "# mh acceptance rate {rate:.3}");
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gdl: {e}");
            eprintln!("usage (flag values: see the module docs or docs/API.md):");
            for (command, positionals, flags) in FLAGS {
                eprintln!("  gdl {command} {positionals} [{}]", flags.join("] ["));
            }
            ExitCode::from(2)
        }
    }
}
