//! Conditioning end-to-end: posterior diagnosis in a burglary-style
//! network, with hard evidence, soft (likelihood) evidence, and the
//! evidence/ESS diagnostics, answered exactly, by likelihood-weighted
//! Monte-Carlo and by Metropolis-Hastings.
//!
//! The model is the classic alarm network: earthquakes and burglaries
//! both trigger alarms, and a noisy seismometer reads a continuous value
//! whose mean depends on whether a quake happened. We ask the posterior
//! question every monitoring system asks: *given what we observed, what
//! probably caused it?*
//!
//! Run with `cargo run --example posterior_diagnosis`.

use gdatalog::prelude::*;

const PROGRAM: &str = r#"
    rel House(symbol) input.
    House(h1). House(h2).

    Quake(Flip<0.05>) :- true.
    Burglary(H, Flip<0.1>) :- House(H).

    Trig(H, Flip<0.6>) :- House(H), Quake(1).
    Trig(H, Flip<0.9>) :- Burglary(H, 1).
    Alarm(H) :- Trig(H, 1).

    % A seismometer: its reading is centered at 3.0 under a quake and at
    % 0.0 otherwise (unit variance). Tabulated, as GDatalog has no
    % arithmetic built-ins.
    SeismoMean(1, 3.0).
    SeismoMean(0, 0.0).
"#;

fn main() {
    let session = Session::from_source(PROGRAM, SemanticsMode::Grohe).expect("compiles");
    let quake = session.program().catalog.require("Quake").expect("Quake");
    let burglary = session
        .program()
        .catalog
        .require("Burglary")
        .expect("Burglary");
    let quake_fact = Fact::new(quake, tuple![1i64]);
    let burgled_h1 = Fact::new(burglary, tuple!["h1", 1i64]);

    // ---- Priors ---------------------------------------------------------
    let p_quake = session.eval().exact().marginal(&quake_fact).expect("ok");
    let p_burgl = session.eval().exact().marginal(&burgled_h1).expect("ok");
    println!("prior      P(quake) = {p_quake:.4}   P(burglary h1) = {p_burgl:.4}");

    // ---- Hard evidence: h1's alarm is ringing ---------------------------
    let given_alarm = || session.eval().exact().given("Alarm(h1).");
    let q = given_alarm().marginal(&quake_fact).expect("ok");
    let b = given_alarm().marginal(&burgled_h1).expect("ok");
    let ev = given_alarm().evidence().expect("ok");
    println!(
        "| alarm h1  P(quake) = {q:.4}   P(burglary h1) = {b:.4}   (P(evidence) = {:.4})",
        ev.mass
    );

    // ---- Both alarms: the shared-cause explanation takes over -----------
    let given_both = || session.eval().exact().given("Alarm(h1). Alarm(h2).");
    let q2 = given_both().marginal(&quake_fact).expect("ok");
    let b2 = given_both().marginal(&burgled_h1).expect("ok");
    println!("| both alarms  P(quake) = {q2:.4}   P(burglary h1) = {b2:.4}");

    // ---- Soft evidence: a seismometer reading of 2.4 --------------------
    // The likelihood statement reweights each world by the Gaussian
    // density of the reading around the world's own mean.
    let seismo = "Normal<M, 1.0> == 2.4 :- Quake(Q), SeismoMean(Q, M).";
    let q3 = session
        .eval()
        .exact()
        .given("Alarm(h1).")
        .given(seismo)
        .marginal(&quake_fact)
        .expect("ok");
    println!("| alarm h1 + seismo 2.4  P(quake) = {q3:.4}");

    // ---- The same posterior by likelihood-weighted Monte-Carlo ----------
    let mc = session
        .eval()
        .sample(100_000)
        .seed(7)
        .threads(4)
        .given("Alarm(h1).")
        .given(seismo)
        .marginal(&quake_fact)
        .expect("ok");
    let diag = session
        .eval()
        .sample(100_000)
        .seed(7)
        .threads(4)
        .given("Alarm(h1).")
        .given(seismo)
        .evidence()
        .expect("ok");
    println!(
        "  (LW-MC, 100k runs: P(quake) = {mc:.4}, surviving runs = {}, ESS = {:.0})",
        diag.worlds, diag.ess
    );
    assert!((mc - q3).abs() < 0.05, "MC posterior tracks exact");

    // ---- The same posterior by Metropolis-Hastings ----------------------
    // A single-site chain over chase traces targets the posterior itself
    // instead of reweighting prior samples. Its kept states are
    // autocorrelated, so 20k of them carry the MC pass's tolerance.
    let mh = session
        .eval()
        .mh(20_000)
        .burn_in(2_000)
        .seed(7)
        .given("Alarm(h1).")
        .given(seismo)
        .marginal(&quake_fact)
        .expect("ok");
    println!("  (MH, 20k kept states: P(quake) = {mh:.4})");
    assert!((mh - q3).abs() < 0.05, "MH posterior tracks exact");
    assert!(q2 > q && b2 < b, "a shared cause explains both alarms away");
}
