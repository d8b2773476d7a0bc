//! The library, the wire and `gdl query` state one evaluation spec and
//! check it in one place (`EvalSpec::validate`): every rejection the
//! wire gives, the library builder gives too, with the same reason, at
//! every terminal; and every accepted `tests/cli_wire.rs` row parses to
//! the spec of the equivalent `session.eval()` setter chain.

use std::path::PathBuf;
use std::process::Command;

use gdatalog::engine::{
    ChaseVariant, EngineError, EssTarget, EvalSpec, Evaluation, McBackend, QuerySet, Session,
};
use gdatalog::lang::SemanticsMode;
use gdatalog::pdb::WorldTableSink;
use gdatalog::serve::json::Json;
use gdatalog::serve::{Request, ServeError};

const DISCRETE: &str = "rel City(symbol, real) input.
Earthquake(C, Flip<R>) :- City(C, R).
Alarm(C) :- Earthquake(C, 1).
";

const CONTINUOUS: &str = "rel Person(symbol) input.
Person(ann). Person(bob).
Height(P, Normal<170.0, 100.0>) :- Person(P).
";

const INPUT: &str = "City(sf, 0.3). City(la, 0.7).";

fn session(src: &str) -> Session {
    let mut session = Session::from_source(src, SemanticsMode::Grohe).unwrap();
    if src == DISCRETE {
        session.insert_facts_text(INPUT).unwrap();
    }
    session
}

fn wire(json: &str) -> Result<Request, ServeError> {
    Request::from_json(&Json::parse(&json.replace("IN", INPUT)).unwrap())
}

/// The reason the serving layer rejects a request with.
fn wire_reason(request: Result<Request, ServeError>) -> String {
    match request.and_then(|r| r.validate()) {
        Err(ServeError::BadRequest(reason)) => reason,
        other => panic!("expected a bad request, got {other:?}"),
    }
}

/// The reasons every terminal of `eval` rejects it with, one per terminal.
fn library_reasons(eval: &Evaluation<'_>) -> Vec<(&'static str, String)> {
    let reason = |terminal: &'static str, err: Option<EngineError>| match err {
        Some(EngineError::InvalidRequest(reason)) => (terminal, reason),
        other => panic!("{terminal}: expected an invalid request, got {other:?}"),
    };
    let mut sink = WorldTableSink::new();
    vec![
        reason("answer", eval.answer(&QuerySet::new()).err()),
        reason("evidence", eval.evidence().err()),
        reason("worlds", eval.worlds().err()),
        reason("collect_into", eval.collect_into(&mut sink).err()),
        reason(
            "collect_with",
            eval.collect_with(&McBackend, &mut sink).err(),
        ),
        reason(
            "answer_with",
            eval.answer_with(&McBackend, &QuerySet::new()).err(),
        ),
        reason("trace", eval.trace().err()),
    ]
}

/// The program-independent rows of `cli_wire.rs::cli_rejects_with_the_wire_reason`
/// plus the rejections that hold in the library since the spec moved
/// into one module: ESS targets below 1 and `thin 0`.
#[test]
fn the_library_rejects_what_the_wire_rejects_with_the_same_reason() {
    let s = session(DISCRETE);
    let marginals = || Request::marginals("Alarm").input(INPUT);
    let rows: Vec<(Result<Request, ServeError>, Evaluation<'_>)> = vec![
        (
            Ok(marginals().ess_target(f64::NAN)),
            s.eval().sample_until(EssTarget::new(f64::NAN)),
        ),
        (
            wire(r#"{"kind": "marginals", "rel": "Alarm", "infer": {"mode": "ess", "target": 0}}"#),
            s.eval().sample_until(EssTarget::new(0.0)),
        ),
        (
            Ok(marginals().ess_target(0.5)),
            s.eval().sample_until(EssTarget::new(0.5)),
        ),
        (
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "backend": "exact",
                     "infer": {"mode": "ess", "target": 100}}"#,
            ),
            s.eval().sample_until(EssTarget::new(100.0)).exact(),
        ),
        (
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "backend": "mh",
                     "infer": {"mode": "ess", "target": 100}}"#,
            ),
            s.eval().sample_until(EssTarget::new(100.0)).mh(10_000),
        ),
        (
            wire(r#"{"kind": "marginals", "rel": "Alarm", "burn_in": 5}"#),
            s.eval().burn_in(5),
        ),
        (
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "backend": "mc", "runs": 100, "burn_in": 5}"#,
            ),
            s.eval().sample(100).burn_in(5),
        ),
        (
            wire(r#"{"kind": "marginals", "rel": "Alarm", "backend": "exact", "thin": 2}"#),
            s.eval().exact().thin(2),
        ),
        (
            Ok(marginals().max_runs(100)),
            s.eval().with_spec(EvalSpec::default().max_runs(100)),
        ),
        (
            wire(r#"{"kind": "marginals", "rel": "Alarm", "backend": "mh", "thin": 0}"#),
            s.eval().mh(10_000).thin(0),
        ),
    ];
    for (request, eval) in rows {
        let want = wire_reason(request);
        for (terminal, got) in library_reasons(&eval) {
            assert_eq!(got, want, "{terminal}");
        }
    }
}

/// A chase variant only Monte-Carlo reads is rejected, by name, on the
/// backends that would ignore it — `auto` included when it resolves to
/// exact enumeration; it still runs wherever it is honoured.
#[test]
fn a_variant_the_backend_would_ignore_is_rejected_by_name() {
    let src = "A(Flip<0.5>) :- true. B(Flip<0.5>) :- true.";
    let s = Session::from_source(src, SemanticsMode::Grohe).unwrap();
    let names_the_variant = |variant: ChaseVariant, terminal: &str, reason: &str| {
        assert!(
            reason.contains(&format!("{variant:?}")) && reason.contains(".sample(n)"),
            "{terminal}: {reason}"
        );
    };
    for variant in [ChaseVariant::Parallel, ChaseVariant::Saturating] {
        for eval in [s.eval().exact(), s.eval().exact_parallel(), s.eval().mh(50)] {
            for (terminal, reason) in library_reasons(&eval.variant(variant).max_depth(2)) {
                names_the_variant(variant, terminal, &reason);
            }
        }
        // `auto` resolves per terminal: the ones that pick a backend reject.
        let auto = s.eval().variant(variant).max_depth(2);
        let mut sink = WorldTableSink::new();
        for (terminal, err) in [
            ("answer", auto.answer(&QuerySet::new()).err()),
            ("worlds", auto.worlds().err()),
            ("collect_into", auto.collect_into(&mut sink).err()),
        ] {
            match err {
                Some(EngineError::InvalidRequest(reason)) => {
                    names_the_variant(variant, terminal, &reason)
                }
                other => panic!("{terminal}: expected an invalid request, got {other:?}"),
            }
        }
    }
    let pdb = s
        .eval()
        .sample(200)
        .variant(ChaseVariant::Parallel)
        .max_depth(2);
    assert_eq!(
        pdb.pdb().unwrap().errors(),
        0,
        "two parallel rounds terminate"
    );
    let continuous = session(CONTINUOUS);
    let sampled = continuous
        .eval()
        .variant(ChaseVariant::Parallel)
        .evidence()
        .expect("auto resolves to Monte-Carlo on a continuous program");
    assert_eq!(sampled.runs, 10_000);
}

/// `thin 0` is one rejection on all three surfaces.
#[test]
fn thin_zero_is_rejected_with_one_reason_everywhere() {
    let reason = wire_reason(wire(
        r#"{"kind": "marginals", "rel": "Alarm", "backend": "mh", "thin": 0}"#,
    ));
    let s = session(DISCRETE);
    for (_, got) in library_reasons(&s.eval().mh(100).thin(0)) {
        assert_eq!(got, reason);
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("eval_spec_parity");
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("discrete.gdl");
    std::fs::write(&program, DISCRETE).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gdl"))
        .arg("query")
        .arg(&program)
        .args(["marginal", "Alarm", "--mh", "--thin", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.lines().next(),
        Some(format!("gdl: bad request: {reason}").as_str())
    );
}

/// Every accepted row of `cli_wire.rs::ANSWERED` parses to the spec the
/// equivalent library chain builds. Specs are compared resolved against
/// the program: the wire's `auto` with `runs` (or an `infer` target) is
/// the library's `.sample(runs)` (or `.sample_until(..)`) wherever `auto`
/// samples.
#[test]
fn accepted_wire_rows_parse_to_the_library_chains_spec() {
    let discrete = session(DISCRETE);
    let continuous = session(CONTINUOUS);
    let d = || discrete.eval();
    let c = || continuous.eval();
    #[rustfmt::skip]
    let rows: Vec<(&str, Evaluation<'_>)> = vec![
        (r#"{"kind": "marginals", "rel": "Alarm", "input": "IN"}"#, d()),
        (r#"{"kind": "marginals", "rel": "Alarm", "input": "IN", "backend": "exact",
             "max_depth": 50}"#,
         d().exact().max_depth(50)),
        (r#"{"kind": "expectation", "rel": "Alarm", "agg": "count", "input": "IN",
             "backend": "exact"}"#,
         d().exact()),
        (r#"{"kind": "expectation", "rel": "Earthquake", "agg": "sum", "col": 1,
             "input": "IN"}"#,
         d()),
        (r#"{"kind": "histogram", "rel": "Earthquake", "col": 1, "lo": 0, "hi": 2,
             "bins": 2, "input": "IN"}"#,
         d()),
        (r#"{"kind": "quantile", "rel": "Earthquake", "col": 1, "q": 0.5, "input": "IN",
             "backend": "mc", "runs": 500, "seed": 3, "max_depth": 100000}"#,
         d().sample(500).seed(3).max_depth(100_000)),
        (r#"{"kind": "tail", "rel": "Earthquake", "col": 1, "threshold": 1, "input": "IN",
             "backend": "mc", "runs": 500, "seed": 0, "max_depth": 100000}"#,
         d().sample(500).seed(0).max_depth(100_000)),
        (r#"{"queries": [
               {"kind": "marginals", "rel": "Alarm"},
               {"kind": "expectation", "rel": "Alarm"},
               {"kind": "histogram", "rel": "Earthquake", "col": 1, "lo": 0, "hi": 2, "bins": 2},
               {"kind": "quantile", "rel": "Earthquake", "col": 1, "q": 0.9},
               {"kind": "tail", "rel": "Earthquake", "col": 1, "threshold": 1},
               {"kind": "expectation", "rel": "Earthquake", "agg": "max", "col": 1},
               {"kind": "marginals", "rel": "Earthquake"}
             ], "input": "IN"}"#,
         d()),
        (r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(sf)."}"#,
         d().given("Alarm(sf).")),
        (r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(sf).",
             "backend": "mc", "runs": 800, "seed": 4, "max_depth": 100000}"#,
         d().sample(800).seed(4).max_depth(100_000)),
        (r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(la).",
             "infer": {"mode": "ess", "target": 200}, "seed": 2, "max_depth": 100000}"#,
         d().sample_until(EssTarget::new(200.0)).seed(2).max_depth(100_000)),
        (r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(la).",
             "backend": "mc", "runs": 64, "infer": {"mode": "ess", "target": 200,
             "max_runs": 4096}, "seed": 0, "max_depth": 100000}"#,
         d().sample(64).sample_until(EssTarget::new(200.0).max_runs(4096)).seed(0)
             .max_depth(100_000)),
        (r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(la).",
             "backend": "mh", "runs": 300, "burn_in": 50, "thin": 2, "seed": 1,
             "max_depth": 100000}"#,
         d().mh(300).burn_in(50).thin(2).seed(1).max_depth(100_000)),
        (r#"{"kind": "histogram", "rel": "Height", "col": 1, "lo": 140, "hi": 200, "bins": 4,
             "runs": 300, "seed": 0, "max_depth": 100000}"#,
         c().sample(300).seed(0).max_depth(100_000)),
        (r#"{"queries": [
               {"kind": "quantile", "rel": "Height", "col": 1, "q": 0.5},
               {"kind": "expectation", "rel": "Height", "agg": "avg", "col": 1}
             ], "runs": 200, "seed": 8, "max_depth": 100000}"#,
         c().sample(200).seed(8).max_depth(100_000)),
    ];
    for (json, eval) in rows {
        let request = wire(json).unwrap_or_else(|e| panic!("{json}: {e}"));
        let program = if json.contains("Height") {
            continuous.program()
        } else {
            discrete.program()
        };
        assert_eq!(
            request.spec.resolve(program),
            eval.spec().resolve(program),
            "{json}"
        );
    }
}

/// The checks that depend on the program — a column within the
/// relation's arity, histogram bounds, the quantile range, the tail
/// threshold — live in the library's `QuerySet::validate` alone: the wire
/// answers a bad query as a bad request (400) with the library's reason.
#[test]
fn a_bad_query_is_rejected_with_the_librarys_reason_on_the_wire() {
    let s = session(DISCRETE);
    let quake = s.program().catalog.require("Earthquake").unwrap();
    let rows: Vec<(Request, QuerySet)> = vec![
        (
            Request::histogram("Earthquake", 1, 2.0, 0.0, 4),
            QuerySet::new().histogram(quake, 1, 2.0, 0.0, 4),
        ),
        (
            Request::histogram("Earthquake", 1, 0.0, f64::INFINITY, 4),
            QuerySet::new().histogram(quake, 1, 0.0, f64::INFINITY, 4),
        ),
        (
            Request::histogram("Earthquake", 1, 0.0, 2.0, 0),
            QuerySet::new().histogram(quake, 1, 0.0, 2.0, 0),
        ),
        (
            Request::quantile("Earthquake", 1, 1.5),
            QuerySet::new().quantile(quake, 1, 1.5),
        ),
        (
            Request::tail("Earthquake", 1, f64::NAN),
            QuerySet::new().tail(quake, 1, f64::NAN),
        ),
        (
            Request::quantile("Earthquake", 7, 0.5),
            QuerySet::new().quantile(quake, 7, 0.5),
        ),
    ];
    let server = gdatalog::serve::Server::from_source(DISCRETE, SemanticsMode::Grohe).unwrap();
    for (request, queries) in rows {
        let library = match s.eval().answer(&queries) {
            Err(EngineError::InvalidRequest(reason)) => reason,
            other => panic!("expected an invalid request, got {other:?}"),
        };
        match server.execute(&request.input(INPUT)) {
            Err(ServeError::BadRequest(reason)) => assert_eq!(reason, library),
            other => panic!("{library}: expected a bad request, got {other:?}"),
        }
    }
}
