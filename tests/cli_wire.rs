//! The command line and the wire are one request spec: `gdl query …
//! --format json` prints byte for byte the reply the serving layer
//! renders for the same request, and a combination the serving layer
//! rejects makes `gdl` exit 2 with the same reason.

use std::path::PathBuf;
use std::process::{Command, Output};

use gdatalog::lang::SemanticsMode;
use gdatalog::serve::json::Json;
use gdatalog::serve::{Request, ServeError, Server};

const DISCRETE: &str = "rel City(symbol, real) input.
Earthquake(C, Flip<R>) :- City(C, R).
Alarm(C) :- Earthquake(C, 1).
";

const CONTINUOUS: &str = "rel Person(symbol) input.
Person(ann). Person(bob).
Height(P, Normal<170.0, 100.0>) :- Person(P).
";

/// The input facts `IN` stands for in a row's arguments.
const INPUT: &str = "City(sf, 0.3). City(la, 0.7).";

/// Writes the fixture files once per test and returns their paths.
struct Fixture {
    discrete: PathBuf,
    continuous: PathBuf,
    input: PathBuf,
}

fn fixture(name: &str) -> Fixture {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |file: &str, text: &str| {
        let path = dir.join(file);
        std::fs::write(&path, text).unwrap();
        path
    };
    Fixture {
        discrete: write("discrete.gdl", DISCRETE),
        continuous: write("continuous.gdl", CONTINUOUS),
        input: write("input.gdl", &format!("{INPUT}\n")),
    }
}

/// Runs `gdl query <program> <args>`, with the token `IN` replaced by the
/// input-facts file. Arguments are split on whitespace.
fn gdl_query(fx: &Fixture, continuous: bool, args: &str) -> Output {
    let program = if continuous {
        &fx.continuous
    } else {
        &fx.discrete
    };
    let args = args.split_whitespace().map(|a| match a {
        "IN" => fx.input.to_str().unwrap(),
        other => other,
    });
    Command::new(env!("CARGO_BIN_EXE_gdl"))
        .arg("query")
        .arg(program)
        .args(args)
        .output()
        .expect("gdl runs")
}

fn wire(json: &str) -> Result<Request, ServeError> {
    Request::from_json(&Json::parse(&json.replace("IN", INPUT)).unwrap())
}

fn server(continuous: bool) -> Server {
    let src = if continuous { CONTINUOUS } else { DISCRETE };
    Server::from_source(src, SemanticsMode::Grohe).unwrap()
}

/// Each row: program, `gdl query` arguments, and the wire request they
/// lower to. `IN` stands for the input facts in both. The CLI lowers an
/// absent `--seed` to 0 and its budget to `--steps` (100 000) when the
/// request samples, so sampling rows spell both out on the wire.
#[rustfmt::skip]
const ANSWERED: &[(bool, &str, &str)] = &[
    (false, "marginal Alarm --input IN",
     r#"{"kind": "marginals", "rel": "Alarm", "input": "IN"}"#),
    (false, "marginals Alarm --input IN --exact --depth 50",
     r#"{"kind": "marginals", "rel": "Alarm", "input": "IN", "backend": "exact",
         "max_depth": 50}"#),
    (false, "expectation Alarm --input IN --exact",
     r#"{"kind": "expectation", "rel": "Alarm", "agg": "count", "input": "IN",
         "backend": "exact"}"#),
    (false, "expectation Earthquake --agg sum --col 1 --input IN",
     r#"{"kind": "expectation", "rel": "Earthquake", "agg": "sum", "col": 1,
         "input": "IN"}"#),
    (false, "histogram Earthquake --lo 0 --hi 2 --bins 2 --input IN",
     r#"{"kind": "histogram", "rel": "Earthquake", "col": 1, "lo": 0, "hi": 2,
         "bins": 2, "input": "IN"}"#),
    (false, "quantile Earthquake --q 0.5 --input IN --mc --runs 500 --seed 3",
     r#"{"kind": "quantile", "rel": "Earthquake", "col": 1, "q": 0.5, "input": "IN",
         "backend": "mc", "runs": 500, "seed": 3, "max_depth": 100000}"#),
    (false, "tail Earthquake --threshold 1 --input IN --mc --runs 500",
     r#"{"kind": "tail", "rel": "Earthquake", "col": 1, "threshold": 1, "input": "IN",
         "backend": "mc", "runs": 500, "seed": 0, "max_depth": 100000}"#),
    (false, "marginal Alarm --and expectation:Alarm --and histogram:Earthquake:1:0:2:2 \
             --and quantile:Earthquake:1:0.9 --and tail:Earthquake:1:1 \
             --and expectation:Earthquake:max:1 --and marginals:Earthquake --input IN",
     r#"{"queries": [
           {"kind": "marginals", "rel": "Alarm"},
           {"kind": "expectation", "rel": "Alarm"},
           {"kind": "histogram", "rel": "Earthquake", "col": 1, "lo": 0, "hi": 2, "bins": 2},
           {"kind": "quantile", "rel": "Earthquake", "col": 1, "q": 0.9},
           {"kind": "tail", "rel": "Earthquake", "col": 1, "threshold": 1},
           {"kind": "expectation", "rel": "Earthquake", "agg": "max", "col": 1},
           {"kind": "marginals", "rel": "Earthquake"}
         ], "input": "IN"}"#),
    (false, "marginal Earthquake --input IN --given Alarm(sf).",
     r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(sf)."}"#),
    (false, "marginal Earthquake --input IN --given Alarm(sf). --mc --runs 800 --seed 4",
     r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(sf).",
         "backend": "mc", "runs": 800, "seed": 4, "max_depth": 100000}"#),
    (false, "marginal Earthquake --input IN --given Alarm(la). --ess-target 200 --seed 2",
     r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(la).",
         "infer": {"mode": "ess", "target": 200}, "seed": 2, "max_depth": 100000}"#),
    (false, "marginal Earthquake --input IN --given Alarm(la). --ess-target 200 --runs 64 \
             --max-runs 4096 --mc",
     r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(la).",
         "backend": "mc", "runs": 64, "infer": {"mode": "ess", "target": 200,
         "max_runs": 4096}, "seed": 0, "max_depth": 100000}"#),
    (false, "marginal Earthquake --input IN --given Alarm(la). --mh --runs 300 --burn-in 50 \
             --thin 2 --seed 1",
     r#"{"kind": "marginals", "rel": "Earthquake", "input": "IN", "given": "Alarm(la).",
         "backend": "mh", "runs": 300, "burn_in": 50, "thin": 2, "seed": 1,
         "max_depth": 100000}"#),
    (true, "histogram Height --lo 140 --hi 200 --bins 4 --runs 300",
     r#"{"kind": "histogram", "rel": "Height", "col": 1, "lo": 140, "hi": 200, "bins": 4,
         "runs": 300, "seed": 0, "max_depth": 100000}"#),
    (true, "quantile Height --q 0.5 --runs 200 --seed 8 --and expectation:Height:avg:1",
     r#"{"queries": [
           {"kind": "quantile", "rel": "Height", "col": 1, "q": 0.5},
           {"kind": "expectation", "rel": "Height", "agg": "avg", "col": 1}
         ], "runs": 200, "seed": 8, "max_depth": 100000}"#),
];

#[test]
fn cli_json_equals_the_wire_reply() {
    let fx = fixture("cli_wire_answers");
    for &(continuous, args, json) in ANSWERED {
        let out = gdl_query(&fx, continuous, &format!("{args} --format json"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "`{args}` failed: {stderr}");
        let request = wire(json).unwrap_or_else(|e| panic!("wire side of `{args}`: {e}"));
        let reply = server(continuous).execute(&request).unwrap();
        let want = format!("{}\n", reply.to_json().render());
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "`{args}`");
    }
}

#[test]
fn cli_rejects_with_the_wire_reason() {
    let fx = fixture("cli_wire_rejections");
    let marginals = || Request::marginals("Alarm").input(INPUT);
    let rows: Vec<(&str, Result<Request, ServeError>)> = vec![
        // Drifted at one time: the CLI ran NaN targets and accepted 0.
        (
            "marginal Alarm --input IN --ess-target NaN",
            Ok(marginals().ess_target(f64::NAN)),
        ),
        (
            "marginal Alarm --input IN --ess-target 0",
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "input": "IN",
                     "infer": {"mode": "ess", "target": 0}}"#,
            ),
        ),
        (
            "marginal Alarm --input IN --exact --ess-target 100",
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "input": "IN", "backend": "exact",
                     "infer": {"mode": "ess", "target": 100}}"#,
            ),
        ),
        (
            "marginal Alarm --input IN --mh --ess-target 100",
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "input": "IN", "backend": "mh",
                     "infer": {"mode": "ess", "target": 100}}"#,
            ),
        ),
        (
            "marginal Alarm --input IN --burn-in 5",
            wire(r#"{"kind": "marginals", "rel": "Alarm", "input": "IN", "burn_in": 5}"#),
        ),
        (
            "marginal Alarm --input IN --exact --thin 2",
            wire(
                r#"{"kind": "marginals", "rel": "Alarm", "input": "IN", "backend": "exact",
                     "thin": 2}"#,
            ),
        ),
        (
            "marginal Alarm --input IN --max-runs 100",
            Ok(marginals().max_runs(100)),
        ),
        (
            "histogram Earthquake --col 5 --lo 0 --hi 1 --input IN",
            wire(
                r#"{"kind": "histogram", "rel": "Earthquake", "col": 5, "lo": 0, "hi": 1,
                     "input": "IN"}"#,
            ),
        ),
        (
            "histogram Earthquake --lo 2 --hi 1 --input IN",
            wire(
                r#"{"kind": "histogram", "rel": "Earthquake", "col": 1, "lo": 2, "hi": 1,
                     "input": "IN"}"#,
            ),
        ),
        (
            "quantile Earthquake --q 2 --input IN",
            wire(
                r#"{"kind": "quantile", "rel": "Earthquake", "col": 1, "q": 2,
                     "input": "IN"}"#,
            ),
        ),
        (
            "tail Earthquake --threshold NaN --input IN",
            Ok(Request::tail("Earthquake", 1, f64::NAN).input(INPUT)),
        ),
        (
            "marginal Nope --input IN",
            wire(r#"{"kind": "marginals", "rel": "Nope", "input": "IN"}"#),
        ),
        (
            "marginal Alarm --and quantile:Earthquake:7:0.5 --input IN",
            wire(
                r#"{"queries": [{"kind": "marginals", "rel": "Alarm"},
                     {"kind": "quantile", "rel": "Earthquake", "col": 7, "q": 0.5}],
                     "input": "IN"}"#,
            ),
        ),
    ];
    let server = server(false);
    for (args, request) in rows {
        let reason = request
            .and_then(|r| server.execute(&r))
            .expect_err(args)
            .to_string();
        assert!(reason.starts_with("bad request: "), "`{args}`: {reason}");
        let out = gdl_query(&fx, false, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{args}`");
        assert!(out.stdout.is_empty(), "`{args}`");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("gdl: {reason}").as_str()),
            "`{args}`"
        );
    }
}

/// Every command rejects the flags it would otherwise ignore.
#[test]
fn commands_reject_flags_they_do_not_honour() {
    let fx = fixture("cli_wire_flags");
    for args in [
        "sample P --exact",
        "sample P --mh",
        "sample P --agg sum",
        "sample P --and expectation:Alarm",
        "check P --ess-target 5",
        "exact P --runs 5",
        "exact P --seed 5",
        "exact P --mc",
        "exact P --format facts",
        "tree P --input P",
        "batch P --seed 1",
        "fit P P --given Alarm(sf).",
    ] {
        let args: Vec<&str> = args
            .split_whitespace()
            .map(|a| {
                if a == "P" {
                    fx.discrete.to_str().unwrap()
                } else {
                    a
                }
            })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_gdl"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr.contains(&format!("does not apply to `{}`", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

/// `query` rejects the per-kind flags its query kind would ignore.
#[test]
fn query_rejects_flags_its_kind_does_not_read() {
    let fx = fixture("cli_wire_kind_flags");
    for (args, flag, kind) in [
        ("marginal Alarm --q 0.5 --input IN", "--q", "marginal"),
        ("expectation Alarm --q 0.5 --input IN", "--q", "expectation"),
        (
            "tail Earthquake --threshold 1 --lo 0 --input IN",
            "--lo",
            "tail",
        ),
        (
            "quantile Earthquake --q 0.5 --hi 1 --input IN",
            "--hi",
            "quantile",
        ),
        (
            "expectation Alarm --bins 4 --input IN",
            "--bins",
            "expectation",
        ),
        (
            "histogram Earthquake --lo 0 --hi 1 --threshold 1 --input IN",
            "--threshold",
            "histogram",
        ),
        (
            "quantile Earthquake --q 0.5 --agg max --input IN",
            "--agg",
            "quantile",
        ),
        ("marginal Alarm --col 1 --input IN", "--col", "marginal"),
        ("marginals Alarm --col 1 --input IN", "--col", "marginals"),
    ] {
        let out = gdl_query(&fx, false, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{args}`");
        assert!(out.stdout.is_empty(), "`{args}`");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("gdl: {flag} does not apply to `query {kind}`")),
            "`{args}`: {stderr}"
        );
    }
}
