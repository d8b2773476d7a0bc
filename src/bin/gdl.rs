//! `gdl` — a small command-line front-end for the GDatalog engine.
//!
//! ```text
//! gdl check  <file.gdl>                  parse + validate + analyze + show Ĝ
//! gdl exact  <file.gdl> [--barany] [--depth N] [--input facts.gdl] [--format json]
//! gdl sample <file.gdl> [--barany] [--runs N] [--seed S] [--steps N]
//!                       [--threads N] [--input facts.gdl] [--format json|facts]
//!                       [--out data.gdl]
//! gdl fit    <file.gdl> <data.gdl> [--barany] [--em-iters N] [--tol X]
//!                       [--runs N] [--seed S] [--steps N] [--out fitted.gdl]
//!                       [--format json]
//! gdl query  <file.gdl> <marginal|expectation|histogram|quantile|tail> <Relation>
//!                       [--agg count|sum|avg|min|max] [--col K]
//!                       [--lo X --hi Y --bins N] [--q Q] [--threshold T]
//!                       [--and "<kind>:<Rel>[:...]"]... [--given "observations"]
//!                       [--exact | --mc | --mh] [--runs N] [--seed S] [--steps N]
//!                       [--ess-target E [--max-runs N]] [--burn-in N] [--thin N]
//!                       [--threads N] [--batch N] [--input facts.gdl] [--format json]
//! gdl batch  <requests.json> [--threads N] [--format json]
//! gdl serve  <file.gdl> [--barany] [--addr HOST:PORT] [--workers N]
//!                       [--max-inflight N] [--deadline-ms MS] [--max-body-bytes N]
//! gdl loadgen <requests.json> [--addr HOST:PORT] [--connections N]
//!                       [--duration-ms MS] [--rate R] [--out report.json]
//! gdl tree   <file.gdl> [--depth N]      chase tree in Graphviz DOT
//! ```
//!
//! Every evaluating command goes through the [`Session`] API: the program
//! is compiled once, `--input` facts extend the session's extensional
//! database, and the builder picks exact enumeration or streaming
//! Monte-Carlo automatically (`--exact` / `--mc` force a backend).
//!
//! `query` answers one query per `--and` flag **plus** the positional
//! one, all folded from a **single** evaluation pass (chase once, answer
//! many) — the CLI face of `Evaluation::answer`. Specs are
//! colon-separated: `marginal:Rel`, `expectation:Rel[:agg[:col]]`,
//! `histogram:Rel:col:lo:hi:bins`, `quantile:Rel:col:q`,
//! `tail:Rel:col:threshold`.
//!
//! `query --given "<observations>"` **conditions** the query: the argument
//! takes `@observe` statements with the prefix optional — hard ground
//! facts (`"Alarm(h1)."`) and soft likelihood statements
//! (`"Normal<M, 1.0> == 2.5 :- Mu(M)."`) — and the answer is the
//! posterior (exact renormalization or likelihood-weighted Monte-Carlo).
//!
//! `batch` is the serving path (`gdatalog::serve`): the document names a
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

use gdatalog::engine::{build_chase_tree, ChasePolicy, Evaluation};
use gdatalog::net::{self, HttpServer, LoadgenConfig, NetConfig};
use gdatalog::prelude::*;
// The wire-syntax renderers are shared with the serving layer so
// `gdl query` and `gdl batch` output cannot diverge.
use gdatalog::serve::fact_text;
use gdatalog::serve::json::{escape as json_escape, Json};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    /// `sample` only: ground-fact text in `% run k` blocks — the dataset
    /// format `gdl fit` ingests.
    Facts,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ForceBackend {
    Auto,
    Exact,
    Mc,
    Mh,
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
    runs: usize,
    seed: u64,
    steps: usize,
    depth: usize,
    threads: usize,
    /// Whether `--threads` was given explicitly (the flag then overrides a
    /// batch document's own `threads` member, including `--threads 1`).
    threads_set: bool,
    /// Every flag seen on the command line, in order — lets subcommands
    /// reject flags they would otherwise silently ignore.
    seen_flags: Vec<String>,
    input: Option<String>,
    given: Option<String>,
    format: Format,
    force: ForceBackend,
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
    /// `query --ess-target`: grow the Monte-Carlo run count until the
    /// conditioned pass reaches this effective sample size.
    ess_target: Option<f64>,
    /// `query --max-runs`: run-count cap for `--ess-target`.
    max_runs: Option<usize>,
    /// `--batch`: Monte-Carlo lane-batch size (bit-identical at any
    /// value; at `1` every run is a lane group of its own).
    batch: Option<usize>,
    /// `query --burn-in`: MH burn-in steps (with `--mh`).
    burn_in: Option<usize>,
    /// `query --thin`: MH thinning interval (with `--mh`).
    thin: Option<usize>,
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
    /// `loadgen`: also write the JSON report to this path.
    out: Option<String>,
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
        runs: 10_000,
        seed: 0,
        steps: 100_000,
        depth: 10_000,
        threads: 1,
        threads_set: false,
        seen_flags: Vec::new(),
        input: None,
        given: None,
        format: Format::Text,
        force: ForceBackend::Auto,
        agg: AggFun::Count,
        col: None,
        lo: None,
        hi: None,
        bins: 20,
        q: None,
        threshold: None,
        and: Vec::new(),
        ess_target: None,
        max_runs: None,
        batch: None,
        burn_in: None,
        thin: None,
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
        args.seen_flags.push(flag.clone());
        let mut take = |what: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{what} needs a value"))
        };
        let num = |what: &str, v: Result<String, String>| -> Result<f64, String> {
            v?.parse().map_err(|e| format!("{what}: {e}"))
        };
        match flag.as_str() {
            "--barany" => args.mode = SemanticsMode::Barany,
            "--runs" => args.runs = take("--runs")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = take("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--steps" => args.steps = take("--steps")?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => args.depth = take("--depth")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                args.threads = take("--threads")?.parse().map_err(|e| format!("{e}"))?;
                if args.threads == 0 {
                    return Err(
                        "--threads 0 would mean no workers; pass at least 1 (or omit \
                         the flag for the default)"
                            .to_string(),
                    );
                }
                args.threads_set = true;
            }
            "--input" => args.input = Some(take("--input")?),
            "--given" => args.given = Some(take("--given")?),
            "--format" => {
                args.format = match take("--format")?.as_str() {
                    "json" => Format::Json,
                    "text" => Format::Text,
                    "facts" => Format::Facts,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--exact" => args.force = ForceBackend::Exact,
            "--mc" => args.force = ForceBackend::Mc,
            "--mh" => args.force = ForceBackend::Mh,
            "--ess-target" => args.ess_target = Some(num("--ess-target", take("--ess-target"))?),
            "--max-runs" => {
                args.max_runs = Some(take("--max-runs")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--batch" => {
                let batch: usize = take("--batch")?.parse().map_err(|e| format!("{e}"))?;
                if batch == 0 {
                    return Err(
                        "--batch 0 would schedule empty lane batches; pass at least 1 \
                         (at 1 each run is its own lane group)"
                            .to_string(),
                    );
                }
                args.batch = Some(batch);
            }
            "--burn-in" => {
                args.burn_in = Some(take("--burn-in")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--thin" => args.thin = Some(take("--thin")?.parse().map_err(|e| format!("{e}"))?),
            "--em-iters" => {
                args.em_iters = take("--em-iters")?.parse().map_err(|e| format!("{e}"))?;
                if args.em_iters == 0 {
                    return Err("--em-iters must be at least 1".to_string());
                }
            }
            "--tol" => {
                let tol = num("--tol", take("--tol"))?;
                if !tol.is_finite() || tol <= 0.0 {
                    return Err(format!("--tol must be a positive number, got {tol}"));
                }
                args.tol = tol;
            }
            "--agg" => {
                args.agg = match take("--agg")?.as_str() {
                    "count" => AggFun::Count,
                    "sum" => AggFun::Sum,
                    "avg" => AggFun::Avg,
                    "min" => AggFun::Min,
                    "max" => AggFun::Max,
                    other => return Err(format!("unknown aggregate `{other}`")),
                }
            }
            "--col" => args.col = Some(take("--col")?.parse().map_err(|e| format!("{e}"))?),
            "--lo" => args.lo = Some(num("--lo", take("--lo"))?),
            "--hi" => args.hi = Some(num("--hi", take("--hi"))?),
            "--bins" => args.bins = take("--bins")?.parse().map_err(|e| format!("{e}"))?,
            "--q" => args.q = Some(num("--q", take("--q"))?),
            "--threshold" => args.threshold = Some(num("--threshold", take("--threshold"))?),
            "--and" => args.and.push(take("--and")?),
            "--addr" => args.addr = take("--addr")?,
            "--workers" => {
                let workers: usize = take("--workers")?.parse().map_err(|e| format!("{e}"))?;
                if workers == 0 {
                    return Err(
                        "--workers 0 would mean no serving threads; pass at least 1 \
                         (or omit the flag for one per core)"
                            .to_string(),
                    );
                }
                args.workers = Some(workers);
            }
            "--max-inflight" => {
                args.max_inflight = Some(
                    take("--max-inflight")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--max-body-bytes" => {
                args.max_body_bytes = Some(
                    take("--max-body-bytes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(take("--deadline-ms")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--connections" => {
                args.connections = take("--connections")?.parse().map_err(|e| format!("{e}"))?;
                if args.connections == 0 {
                    return Err("--connections must be at least 1".to_string());
                }
            }
            "--duration-ms" => {
                args.duration_ms = take("--duration-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--rate" => {
                let rate: f64 = take("--rate")?.parse().map_err(|e| format!("{e}"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(format!("--rate must be a positive number, got {rate}"));
                }
                args.rate = Some(rate);
            }
            "--out" => args.out = Some(take("--out")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
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
    let src = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let mut session = Session::from_source(&src, args.mode).map_err(|e| e.to_string())?;
    if let Some(path) = &args.input {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        session
            .insert_facts_text(&text)
            .map_err(|e| e.to_string())?;
    }
    Ok(session)
}

/// Configures an evaluation from the CLI flags: the backend is resolved
/// first (auto picks Monte-Carlo for continuous programs), then the budget
/// flag that matches it applies — `--steps` for sampling backends,
/// `--depth` for exact enumeration. `--ess-target` switches the
/// Monte-Carlo path to adaptive run control; `--mh` selects the
/// Metropolis-Hastings chain (with `--burn-in` / `--thin`).
fn configure<'a>(session: &'a Session, args: &Args) -> Result<Evaluation<'a>, String> {
    let sampling = match args.force {
        ForceBackend::Mc | ForceBackend::Mh => true,
        ForceBackend::Exact => false,
        ForceBackend::Auto => !session.program().all_discrete(),
    };
    let mut eval = session
        .eval()
        .seed(args.seed)
        .threads(args.threads)
        .max_depth(if sampling { args.steps } else { args.depth });
    if let Some(batch) = args.batch {
        eval = eval.batch(batch);
    }
    if let Some(given) = &args.given {
        eval = eval.given(given.clone());
    }
    if args.force == ForceBackend::Mh {
        if args.ess_target.is_some() {
            return Err(
                "--ess-target applies to the Monte-Carlo backend; it cannot be \
                 combined with --mh (the MH stream is already normalized)"
                    .to_string(),
            );
        }
        let mut eval = eval.mh(args.runs);
        if let Some(steps) = args.burn_in {
            eval = eval.burn_in(steps);
        }
        if let Some(every) = args.thin {
            eval = eval.thin(every);
        }
        return Ok(eval);
    }
    if args.burn_in.is_some() || args.thin.is_some() {
        return Err("--burn-in/--thin configure the MH chain; pass --mh".to_string());
    }
    if let Some(target) = args.ess_target {
        if args.force == ForceBackend::Exact {
            return Err("--ess-target applies to Monte-Carlo sampling, not --exact".to_string());
        }
        let mut target = EssTarget::new(target);
        if let Some(cap) = args.max_runs {
            target = target.max_runs(cap);
        }
        return Ok(eval.sample_until(target));
    }
    if let Some(cap) = args.max_runs {
        return Err(format!(
            "--max-runs {cap} caps --ess-target's adaptive run growth; pass --ess-target"
        ));
    }
    Ok(if sampling {
        eval.sample(args.runs)
    } else if args.force == ForceBackend::Exact {
        eval.exact()
    } else {
        eval
    })
}

/// Runs `gdl batch <requests.json>`: compile once, pool sessions, answer
/// the batch in request order.
fn run_batch(args: &Args) -> Result<(), String> {
    // Evaluation configuration is per-request in the document; accepting
    // these flags here and then ignoring them would silently change what
    // the user asked for.
    const NOT_FOR_BATCH: &[&str] = &[
        "--runs",
        "--seed",
        "--steps",
        "--depth",
        "--input",
        "--given",
        "--exact",
        "--mc",
        "--mh",
        "--ess-target",
        "--max-runs",
        "--batch",
        "--burn-in",
        "--thin",
        "--agg",
        "--col",
        "--lo",
        "--hi",
        "--bins",
        "--q",
        "--threshold",
        "--and",
    ];
    if let Some(flag) = args
        .seen_flags
        .iter()
        .find(|f| NOT_FOR_BATCH.contains(&f.as_str()))
    {
        return Err(format!(
            "{flag} does not apply to `batch`; set the per-request members \
             (backend/runs/seed/max_depth/evidence) in the document instead"
        ));
    }
    let doc_text = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let doc = Json::parse(&doc_text).map_err(|e| format!("{}: {e}", args.file))?;
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
            std::fs::read_to_string(&resolved)
                .map_err(|e| format!("cannot read {}: {e}", resolved.display()))?
        }
        (None, None) => {
            return Err("batch document needs a `program` path or inline `source`".to_string())
        }
    };
    let requests: Vec<Request> = doc
        .get("requests")
        .and_then(Json::as_array)
        .ok_or("batch document needs a `requests` array")?
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
        Format::Facts => unreachable!("rejected before dispatch"),
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
    let src = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
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
    let doc = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let bodies = net::bodies_from_json(&doc).map_err(|e| e.to_string())?;
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
    // Evaluation-shape flags that have no meaning during fitting are
    // rejected, not silently dropped.
    const NOT_FOR_FIT: &[&str] = &[
        "--given",
        "--input",
        "--exact",
        "--mc",
        "--mh",
        "--ess-target",
        "--max-runs",
        "--batch",
        "--burn-in",
        "--thin",
        "--depth",
        "--threads",
    ];
    if let Some(flag) = args
        .seen_flags
        .iter()
        .find(|f| NOT_FOR_FIT.contains(&f.as_str()))
    {
        return Err(format!(
            "{flag} does not apply to `fit`; the E-step is configured by \
             --runs/--seed/--steps and the EM loop by --em-iters/--tol"
        ));
    }
    let src = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let data_path = args.data.as_deref().expect("parsed");
    let data =
        std::fs::read_to_string(data_path).map_err(|e| format!("cannot read {data_path}: {e}"))?;
    let opts = gdatalog::learn::FitOptions {
        mode: args.mode,
        em_iters: args.em_iters,
        tol: args.tol,
        seed: args.seed,
        runs: args.runs,
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
        Format::Facts => unreachable!("rejected before dispatch"),
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
    // `fit`-only flags elsewhere, and formats/outputs a command does not
    // produce, are errors, not silent drops (the `batch` rule).
    if args.command != "fit" {
        if let Some(flag) = args
            .seen_flags
            .iter()
            .find(|f| matches!(f.as_str(), "--em-iters" | "--tol"))
        {
            return Err(format!(
                "{flag} configures parameter estimation; it only applies to `fit`"
            ));
        }
    }
    if args.format == Format::Facts && !matches!(args.command.as_str(), "sample") {
        return Err(format!(
            "--format facts dumps sampled worlds as dataset text; it only applies to \
             `sample` (got `{}`)",
            args.command
        ));
    }
    if args.out.is_some() && !matches!(args.command.as_str(), "loadgen" | "sample" | "fit") {
        return Err(format!(
            "--out does not apply to `{}`; it writes `sample` dumps, `fit` results, \
             and `loadgen` reports",
            args.command
        ));
    }
    if args.command == "batch" {
        return run_batch(&args);
    }
    if args.command == "serve" {
        return run_serve(&args);
    }
    if args.command == "loadgen" {
        return run_loadgen(&args);
    }
    if args.command == "fit" {
        return run_fit(&args);
    }
    let session = make_session(&args)?;
    let program = session.program();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    // `--given` conditions `query` and `exact`; accepting it elsewhere and
    // then ignoring it would silently answer the prior as if it were the
    // posterior (the same silent-flag-drop `batch` guards against).
    if args.given.is_some() && !matches!(args.command.as_str(), "query" | "exact") {
        return Err(format!(
            "--given does not apply to `{}`; use `query … --given` (posterior \
             statistics) or `exact --given` (renormalized posterior world table)",
            args.command
        ));
    }

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
                Format::Facts => unreachable!("rejected before dispatch"),
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
                .sample(args.runs)
                .seed(args.seed)
                .threads(args.threads.max(1))
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
        "query" => run_query(&args, &session, &mut out),
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
        other => Err(format!(
            "unknown command `{other}` (expected check | exact | sample | query | fit | \
             batch | serve | loadgen | tree)"
        )),
    }
}

/// Builds the primary query of `gdl query <kind> <Relation>` from the
/// positionals and their flags.
fn primary_query(args: &Args, session: &Session) -> Result<QueryIr, String> {
    let program = session.program();
    let rel_name = args.query_rel.as_deref().expect("parsed");
    let rel = program
        .catalog
        .require(rel_name)
        .map_err(|e| format!("{e}"))?;
    let arity = program.catalog.decl(rel).arity();
    let default_last_col = |col: Option<usize>| -> Result<usize, String> {
        let col = col.unwrap_or(arity.saturating_sub(1));
        if col >= arity {
            return Err(format!(
                "--col {col} out of range for {rel_name} (arity {arity})"
            ));
        }
        Ok(col)
    };
    match args.query_kind.as_deref().expect("parsed") {
        // The CLI's `marginal` has always meant all-fact marginals of a
        // relation; `marginals` (the wire-format name, and the label the
        // JSON output carries) is accepted as an alias.
        "marginal" | "marginals" => Ok(QueryIr::Marginals { rel }),
        "expectation" => {
            let query = Query::Rel(rel);
            let query = match args.col {
                // Aggregate a specific column by projecting it to the end.
                Some(col) if col < arity => query.project(vec![col]),
                Some(col) => {
                    return Err(format!(
                        "--col {col} out of range for {rel_name} (arity {arity})"
                    ))
                }
                None => query,
            };
            Ok(QueryIr::Expectation {
                query,
                agg: args.agg,
            })
        }
        "histogram" => {
            let col = default_last_col(args.col)?;
            let (lo, hi) = match (args.lo, args.hi) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => return Err("histogram needs --lo and --hi".to_string()),
            };
            if !lo.is_finite() || !hi.is_finite() || lo >= hi || args.bins == 0 {
                return Err(format!(
                    "invalid histogram spec: need finite --lo < --hi and --bins > 0 \
                     (got lo {lo}, hi {hi}, bins {})",
                    args.bins
                ));
            }
            Ok(QueryIr::Histogram {
                rel,
                col,
                lo,
                hi,
                bins: args.bins,
            })
        }
        "quantile" => {
            let col = default_last_col(args.col)?;
            let q = args.q.ok_or("quantile needs --q (in [0, 1])")?;
            if !(0.0..=1.0).contains(&q) {
                return Err(format!("--q must be in [0, 1], got {q}"));
            }
            Ok(QueryIr::Quantile { rel, col, q })
        }
        "tail" => {
            let col = default_last_col(args.col)?;
            let threshold = args.threshold.ok_or("tail needs --threshold")?;
            if threshold.is_nan() {
                return Err("--threshold must not be NaN".to_string());
            }
            Ok(QueryIr::Tail {
                rel,
                col,
                threshold,
            })
        }
        other => Err(format!(
            "unknown query kind `{other}` (expected marginal | expectation | histogram | \
             quantile | tail)"
        )),
    }
}

/// Parses one `--and` spec into a query. The mini-grammar is
/// colon-separated: `marginal:Rel`, `expectation:Rel[:agg[:col]]`,
/// `histogram:Rel:col:lo:hi:bins`, `quantile:Rel:col:q`,
/// `tail:Rel:col:threshold`.
fn parse_and_spec(spec: &str, session: &Session) -> Result<QueryIr, String> {
    let program = session.program();
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = |msg: &str| format!("--and `{spec}`: {msg}");
    let resolve = |name: &str| {
        program
            .catalog
            .require(name)
            .map_err(|e| bad(&format!("{e}")))
    };
    let check_col = |rel: RelId, col: usize| -> Result<usize, String> {
        let arity = program.catalog.decl(rel).arity();
        if col >= arity {
            return Err(bad(&format!("column {col} out of range (arity {arity})")));
        }
        Ok(col)
    };
    let num = |what: &str, v: &str| -> Result<f64, String> {
        v.parse().map_err(|e| bad(&format!("{what}: {e}")))
    };
    let int = |what: &str, v: &str| -> Result<usize, String> {
        v.parse().map_err(|e| bad(&format!("{what}: {e}")))
    };
    match parts.as_slice() {
        ["marginal" | "marginals", rel] => Ok(QueryIr::Marginals { rel: resolve(rel)? }),
        ["expectation", rel] => Ok(QueryIr::Expectation {
            query: Query::Rel(resolve(rel)?),
            agg: AggFun::Count,
        }),
        ["expectation", rel, agg] | ["expectation", rel, agg, _] => {
            let rel = resolve(rel)?;
            let agg = match *agg {
                "count" => AggFun::Count,
                "sum" => AggFun::Sum,
                "avg" => AggFun::Avg,
                "min" => AggFun::Min,
                "max" => AggFun::Max,
                other => return Err(bad(&format!("unknown aggregate `{other}`"))),
            };
            let query = Query::Rel(rel);
            let query = match parts.get(3) {
                Some(col) => query.project(vec![check_col(rel, int("col", col)?)?]),
                None => query,
            };
            Ok(QueryIr::Expectation { query, agg })
        }
        ["histogram", rel, col, lo, hi, bins] => {
            let rel = resolve(rel)?;
            let (lo, hi) = (num("lo", lo)?, num("hi", hi)?);
            let bins = int("bins", bins)?;
            if !lo.is_finite() || !hi.is_finite() || lo >= hi || bins == 0 {
                return Err(bad("need finite lo < hi and bins > 0"));
            }
            Ok(QueryIr::Histogram {
                rel,
                col: check_col(rel, int("col", col)?)?,
                lo,
                hi,
                bins,
            })
        }
        ["quantile", rel, col, q] => {
            let rel = resolve(rel)?;
            let q = num("q", q)?;
            if !(0.0..=1.0).contains(&q) {
                return Err(bad(&format!("q must be in [0, 1], got {q}")));
            }
            Ok(QueryIr::Quantile {
                rel,
                col: check_col(rel, int("col", col)?)?,
                q,
            })
        }
        ["tail", rel, col, threshold] => {
            let rel = resolve(rel)?;
            let threshold = num("threshold", threshold)?;
            if threshold.is_nan() {
                return Err(bad("threshold must not be NaN"));
            }
            Ok(QueryIr::Tail {
                rel,
                col: check_col(rel, int("col", col)?)?,
                threshold,
            })
        }
        _ => Err(bad(
            "expected marginal:Rel | expectation:Rel[:agg[:col]] | \
             histogram:Rel:col:lo:hi:bins | quantile:Rel:col:q | tail:Rel:col:threshold",
        )),
    }
}

/// Renders one answer as the flat JSON object `gdl query` emits (shared
/// shapes with the serving layer's wire format where they overlap).
fn answer_json(answer: &Answer, catalog: &Catalog) -> Json {
    match answer {
        Answer::Marginal(p) => Json::Obj(vec![("p".into(), Json::Num(*p))]),
        Answer::Probability(p) => Json::Obj(vec![("p".into(), Json::Num(*p))]),
        Answer::Marginals(rows) => Json::Obj(vec![(
            "marginals".into(),
            Json::Arr(
                rows.iter()
                    .map(|(fact, p)| {
                        Json::Obj(vec![
                            ("fact".into(), Json::Str(fact_text(fact, catalog))),
                            ("p".into(), Json::Num(*p)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Answer::Expectation(None) => Json::Obj(vec![("empty".into(), Json::Bool(true))]),
        Answer::Expectation(Some(m)) => Json::Obj(vec![
            ("mean".into(), Json::Num(m.mean)),
            ("variance".into(), Json::Num(m.variance)),
            ("mass".into(), Json::Num(m.mass)),
        ]),
        Answer::Histogram(hist) => Json::Obj(vec![
            ("lo".into(), Json::Num(hist.lo)),
            ("hi".into(), Json::Num(hist.hi)),
            ("underflow".into(), Json::Num(hist.underflow)),
            ("overflow".into(), Json::Num(hist.overflow)),
            ("mass".into(), Json::Num(hist.mass)),
            (
                "bins".into(),
                Json::Arr(
                    hist.bins
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            Json::Obj(vec![
                                ("center".into(), Json::Num(hist.bin_center(i))),
                                ("count".into(), Json::Num(*c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Answer::Quantile(None) => Json::Obj(vec![("empty".into(), Json::Bool(true))]),
        Answer::Quantile(Some(v)) => Json::Obj(vec![("value".into(), Json::Num(*v))]),
        Answer::Tail(p) => Json::Obj(vec![("p".into(), Json::Num(*p))]),
    }
}

/// Renders one answer as the text lines `gdl query` prints. Total: an
/// empty expectation/quantile prints an explicit `empty` line (matching
/// the `{"empty": true}` JSON shape) instead of erroring mid-stream and
/// discarding the remaining answers of a multi-query invocation.
fn write_answer_text(out: &mut impl std::io::Write, answer: &Answer, catalog: &Catalog) {
    match answer {
        Answer::Marginal(p) | Answer::Probability(p) | Answer::Tail(p) => {
            let _ = writeln!(out, "{p:.6}");
        }
        Answer::Marginals(rows) => {
            for (fact, p) in rows {
                let _ = writeln!(out, "{p:.6}  {}", fact_text(fact, catalog));
            }
        }
        Answer::Expectation(None) => {
            let _ = writeln!(out, "empty (no world mass observed)");
        }
        Answer::Expectation(Some(m)) => {
            let _ = writeln!(
                out,
                "mean {:.6}  variance {:.6}  mass {:.6}",
                m.mean, m.variance, m.mass
            );
        }
        Answer::Histogram(hist) => {
            for (i, count) in hist.bins.iter().enumerate() {
                let _ = writeln!(out, "{:>12.4}  {count:.6}", hist.bin_center(i));
            }
            let _ = writeln!(
                out,
                "# underflow {:.6}, overflow {:.6}, mass {:.6}",
                hist.underflow, hist.overflow, hist.mass
            );
        }
        Answer::Quantile(None) => {
            let _ = writeln!(out, "empty (no value mass observed)");
        }
        Answer::Quantile(Some(v)) => {
            let _ = writeln!(out, "{v:.6}");
        }
    }
}

/// Runs `gdl query`: the positional query plus every `--and` query,
/// answered together in **one** backend pass over the session.
fn run_query(args: &Args, session: &Session, out: &mut impl std::io::Write) -> Result<(), String> {
    let program = session.program();
    let mut queries = QuerySet::new();
    queries.push(primary_query(args, session)?);
    for spec in &args.and {
        queries.push(parse_and_spec(spec, session)?);
    }
    let eval = configure(session, args)?;
    let answers = eval.answer(&queries).map_err(|e| e.to_string())?;
    let evidence = answers.conditioned().then(|| answers.evidence());
    match args.format {
        Format::Facts => unreachable!("rejected before dispatch"),
        Format::Text => {
            let multi = answers.len() > 1;
            for (i, (query, answer)) in queries.queries().iter().zip(answers.iter()).enumerate() {
                if multi {
                    let _ = writeln!(out, "[{i}] {}", query.kind());
                }
                write_answer_text(out, answer, &program.catalog);
            }
            if let Some(ev) = evidence {
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
        Format::Json => {
            let evidence_json = evidence.map(|ev| {
                let mut members = vec![
                    ("mass".into(), Json::Num(ev.mass)),
                    ("log_mass".into(), Json::Num(ev.log_mass)),
                    ("ess".into(), Json::Num(ev.ess)),
                    ("worlds".into(), Json::Num(ev.worlds as f64)),
                    ("runs".into(), Json::Num(ev.runs as f64)),
                ];
                if let Some(rate) = ev.accept_rate {
                    members.push(("accept_rate".into(), Json::Num(rate)));
                }
                Json::Obj(members)
            });
            let doc = if answers.len() == 1 {
                let Json::Obj(mut members) = answer_json(&answers[0], &program.catalog) else {
                    unreachable!("answers render as objects")
                };
                if let Some(ev) = evidence_json {
                    members.push(("evidence".into(), ev));
                }
                Json::Obj(members)
            } else {
                let rendered: Vec<Json> = queries
                    .queries()
                    .iter()
                    .zip(answers.iter())
                    .map(|(query, answer)| {
                        let Json::Obj(mut members) = answer_json(answer, &program.catalog) else {
                            unreachable!("answers render as objects")
                        };
                        members.insert(0, ("kind".into(), Json::Str(query.kind().into())));
                        Json::Obj(members)
                    })
                    .collect();
                let mut members = vec![("answers".into(), Json::Arr(rendered))];
                if let Some(ev) = evidence_json {
                    members.push(("evidence".into(), ev));
                }
                Json::Obj(members)
            };
            let _ = writeln!(out, "{}", doc.render());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gdl: {e}");
            eprintln!(
                "usage: gdl <check|exact|sample|query|fit|batch|tree> <file.gdl> [args]\n\
                 \x20 fit:   gdl fit <file.gdl> <data.gdl> [--em-iters N] [--tol X] [--runs N]\n\
                 \x20        [--seed S] [--out fitted.gdl] [--format json]\n\
                 \x20        (dataset = `gdl sample <file.gdl> --format facts [--out data.gdl]`)\n\
                 \x20 query: gdl query <file.gdl> <marginal|expectation|histogram|quantile|tail>\n\
                 \x20        <Relation> [--agg count|sum|avg|min|max] [--col K]\n\
                 \x20        [--lo X --hi Y --bins N] [--q Q] [--threshold T]\n\
                 \x20        [--and \"expectation:Rel:count\"] (repeatable; one pass, many answers)\n\
                 \x20        [--given \"Alarm(h1). Normal<M, 1.0> == 2.5 :- Mu(M).\"]\n\
                 \x20        [--ess-target E [--max-runs N]] [--mh [--burn-in N] [--thin N]]\n\
                 \x20 batch: gdl batch <requests.json> [--threads N] [--format json]\n\
                 \x20 serve: gdl serve <file.gdl> [--addr HOST:PORT] [--workers N]\n\
                 \x20        [--max-inflight N] [--deadline-ms MS] [--max-body-bytes N]\n\
                 \x20 loadgen: gdl loadgen <requests.json> [--addr HOST:PORT]\n\
                 \x20        [--connections N] [--duration-ms MS] [--rate R] [--out report.json]\n\
                 \x20 flags: [--barany] [--runs N] [--seed S] [--steps N] [--depth N]\n\
                 \x20        [--threads N] [--batch N] [--input facts.gdl] [--format json]\n\
                 \x20        [--exact|--mc|--mh]"
            );
            ExitCode::from(2)
        }
    }
}
