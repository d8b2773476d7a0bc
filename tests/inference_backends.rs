//! Cross-backend statistical acceptance harness (PR 8): on a panel of
//! discrete conditioned programs, the exact enumerator, the
//! likelihood-weighted Monte-Carlo path (at 1/2/4 workers), and the
//! Metropolis-Hastings chain must all answer the **same posterior**.
//!
//! Agreement is checked with an explicit z-score bound rather than a
//! hand-tuned epsilon: a sampling backend's estimate must sit within
//! `Z · se` of the exactly enumerated value, where
//! `se = sqrt(p·(1−p)/n_eff)` uses the pass's own effective sample size
//! (likelihood weighting) or a conservatively discounted chain length
//! (MH, which is autocorrelated). Failures print both estimates and the
//! tolerance arithmetic, so a statistical regression is diagnosable from
//! the assertion message alone.

use gdatalog::data::canonical_text;
use gdatalog::pdb::{DeficitKind, WorldSink};
use gdatalog::prelude::*;

/// Number of standard errors a seeded estimate may sit from the exact
/// answer before the harness fails. At Z = 5 a correct backend trips one
/// check in ~3.5 million runs, so a failure is evidence, not noise.
const Z: f64 = 5.0;

/// MH chains are autocorrelated, so their `K` kept states are worth far
/// fewer independent draws. Dividing by 20 is a deliberately conservative
/// integrated-autocorrelation-time allowance for single-site chains on
/// these few-site programs.
const MH_AUTOCORR_DISCOUNT: f64 = 20.0;

struct Case {
    name: &'static str,
    program: &'static str,
    given: &'static str,
    /// Queried relation and tuple, the posterior marginal under test.
    rel: &'static str,
    args: &'static [i64],
}

/// Six discrete conditioned programs spanning the shapes that have bitten
/// before: diagnostic chains, joint coins, multi-step noisy relays,
/// weighted categorical choice, soft evidence, and disjunctive structure.
fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "diagnosis",
            program: r#"
                Quake(Flip<0.2>) :- true.
                Trig(Flip<0.7>) :- Quake(1).
                Trig(Flip<0.1>) :- Quake(0).
                Alarm() :- Trig(1).
            "#,
            given: "Alarm().",
            rel: "Quake",
            args: &[1],
        },
        // NB the coupling between A and B routes through the rule
        // structure (flipping A re-fires a *different* B rule, i.e. a
        // fresh sampling site), which keeps single-site MH ergodic. Two
        // *independent* coins under a hard equality constraint would not
        // be: no single-site move can cross between (0,0) and (1,1) —
        // see the ergodicity note in gdatalog_core::mcmc.
        Case {
            name: "agreeing-coins",
            program: r#"
                A(Flip<0.3>) :- true.
                B(Flip<0.7>) :- A(1).
                B(Flip<0.2>) :- A(0).
                Same() :- A(1), B(1).
                Same() :- A(0), B(0).
            "#,
            given: "Same().",
            rel: "A",
            args: &[1],
        },
        Case {
            name: "noisy-relay",
            program: r#"
                S0(Flip<0.5>) :- true.
                S1(Flip<0.8>) :- S0(1).
                S1(Flip<0.2>) :- S0(0).
                S2(Flip<0.8>) :- S1(1).
                S2(Flip<0.2>) :- S1(0).
            "#,
            given: "S2(1).",
            rel: "S0",
            args: &[1],
        },
        Case {
            name: "weighted-die",
            program: r#"
                Die(Categorical<1, 1.0, 2, 2.0, 3, 3.0, 4, 4.0, 5, 5.0, 6, 6.0>) :- true.
                High() :- Die(5).
                High() :- Die(6).
            "#,
            given: "High().",
            rel: "Die",
            args: &[6],
        },
        Case {
            name: "soft-evidence",
            program: "Quake(Flip<0.2>) :- true.",
            // Likelihood 0.9 under a quake, 0.3 otherwise: posterior
            // 0.2·0.9 / (0.2·0.9 + 0.8·0.3) = 3/7.
            given: "Flip<0.9> == 1 :- Quake(1). Flip<0.3> == 1 :- Quake(0).",
            rel: "Quake",
            args: &[1],
        },
        Case {
            name: "two-path-reachability",
            program: r#"
                Edge01(Flip<0.6>) :- true.
                Edge12(Flip<0.6>) :- true.
                Edge02(Flip<0.2>) :- true.
                Reach() :- Edge02(1).
                Reach() :- Edge01(1), Edge12(1).
            "#,
            given: "Reach().",
            rel: "Edge01",
            args: &[1],
        },
    ]
}

fn query_fact(session: &Session, rel: &str, args: &[i64]) -> Fact {
    let rel = session.program().catalog.require(rel).unwrap();
    Fact::new(rel, args.iter().copied().map(Value::int).collect())
}

/// Answers the case's marginal through the multiplexed path so the pass's
/// evidence summary (and with it the achieved ESS) rides along.
fn posterior(eval: Evaluation<'_>, fact: &Fact) -> (f64, EvidenceSummary) {
    let queries = QuerySet::new().marginal(fact);
    let answers = eval.answer(&queries).unwrap();
    let p = answers.get(0).unwrap().as_probability().unwrap();
    (p, answers.evidence())
}

/// The z-score agreement check. `n_eff` is the number of effectively
/// independent draws behind `estimate`.
fn assert_within_z(case: &str, backend: &str, estimate: f64, exact: f64, n_eff: f64) {
    let n_eff = n_eff.max(1.0);
    let se = (exact * (1.0 - exact) / n_eff).sqrt();
    // A tiny absolute floor keeps the bound meaningful when the exact
    // posterior sits at 0 or 1 (se collapses to zero there).
    let bound = Z * se + 1e-4;
    assert!(
        (estimate - exact).abs() <= bound,
        "{case}/{backend}: estimate {estimate:.6} vs exact {exact:.6}: \
         |Δ| = {:.6} exceeds Z·se + floor = {Z}·sqrt({exact:.6}·{:.6}/{n_eff:.1}) + 1e-4 \
         = {bound:.6}",
        (estimate - exact).abs(),
        1.0 - exact,
    );
}

#[test]
fn exact_lw_and_mh_agree_on_every_panel_program() {
    for case in cases() {
        let session = Session::from_source(case.program, SemanticsMode::Grohe).unwrap();
        let fact = query_fact(&session, case.rel, case.args);

        // The reference: sequential exact enumeration, and its parallel
        // variant, which must agree to rounding at every worker count.
        let (exact, exact_ev) = posterior(session.eval().exact().given(case.given), &fact);
        assert!(
            exact_ev.mass > 0.0,
            "{}: panel evidence must be satisfiable",
            case.name
        );
        for threads in [1, 2, 4] {
            let (par, _) = posterior(
                session
                    .eval()
                    .exact_parallel()
                    .threads(threads)
                    .given(case.given),
                &fact,
            );
            assert!(
                (par - exact).abs() < 1e-9,
                "{}: exact-parallel@{threads} {par} vs exact {exact}",
                case.name
            );
        }

        // Likelihood weighting at 1, 2, and 4 workers: each pass is
        // z-checked against the enumerated posterior using its own
        // achieved effective sample size.
        for threads in [1, 2, 4] {
            let (lw, ev) = posterior(
                session
                    .eval()
                    .sample(40_000)
                    .seed(0xFEED)
                    .threads(threads)
                    .given(case.given),
                &fact,
            );
            assert!(ev.ess > 1.0, "{}: degenerate LW ESS {}", case.name, ev.ess);
            assert_within_z(case.name, &format!("lw@{threads}"), lw, exact, ev.ess);
        }

        // The MH chain, discounted for autocorrelation.
        let kept = 40_000usize;
        let (mh, ev) = posterior(
            session
                .eval()
                .mh(kept)
                .burn_in(1_000)
                .seed(0xBEEF)
                .given(case.given),
            &fact,
        );
        assert_eq!(
            ev.runs, kept,
            "{}: MH reports kept states as runs",
            case.name
        );
        assert!(
            ev.accept_rate.is_some(),
            "{}: MH pass must report its acceptance rate",
            case.name
        );
        assert_within_z(
            case.name,
            "mh",
            mh,
            exact,
            kept as f64 / MH_AUTOCORR_DISCOUNT,
        );
    }
}

#[test]
fn adaptive_sampling_reaches_its_ess_target_on_panel_programs() {
    for case in cases() {
        let session = Session::from_source(case.program, SemanticsMode::Grohe).unwrap();
        let fact = query_fact(&session, case.rel, case.args);
        let (exact, _) = posterior(session.eval().exact().given(case.given), &fact);
        let target = 2_000.0;
        let (adaptive, ev) = posterior(
            session
                .eval()
                .sample_until(EssTarget::new(target))
                .seed(7)
                .given(case.given),
            &fact,
        );
        assert!(
            ev.ess >= target,
            "{}: adaptive pass stopped at ESS {:.1} < target {target}",
            case.name,
            ev.ess
        );
        assert!(
            ev.runs >= ev.ess as usize,
            "{}: ESS {:.1} cannot exceed the {} runs that produced it",
            case.name,
            ev.ess,
            ev.runs
        );
        assert_within_z(case.name, "adaptive-lw", adaptive, exact, ev.ess);
    }
}

/// Records every **log-space** observation as
/// `(canonical world text, log-weight bits)`, so conditioned weighted
/// streams can be compared bitwise as multisets across worker counts.
struct LogRecordingSink {
    catalog: Catalog,
    rows: Vec<(String, u64)>,
    deficits: Vec<u64>,
}

impl WorldSink for LogRecordingSink {
    fn observe(&mut self, world: Instance, weight: f64) {
        // Conditioned Monte-Carlo emits exclusively through observe_log
        // now; a linear observation here would mean the log-space
        // pipeline regressed somewhere.
        panic!(
            "conditioned stream delivered a linear observation ({}, {weight})",
            canonical_text(&world, &self.catalog)
        );
    }

    fn observe_log(&mut self, world: Instance, log_weight: f64) {
        self.rows
            .push((canonical_text(&world, &self.catalog), log_weight.to_bits()));
    }

    fn observe_deficit(&mut self, _kind: DeficitKind, weight: f64) {
        self.deficits.push(weight.to_bits());
    }

    fn fork(&self) -> Option<Box<dyn WorldSink>> {
        Some(Box::new(LogRecordingSink {
            catalog: self.catalog.clone(),
            rows: Vec::new(),
            deficits: Vec::new(),
        }))
    }

    fn join(&mut self, forked: Box<dyn WorldSink>) {
        let other = forked
            .into_any()
            .downcast::<LogRecordingSink>()
            .expect("forked from self");
        self.rows.extend(other.rows);
        self.deficits.extend(other.deficits);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[test]
fn lw_log_weighted_stream_is_bit_identical_across_worker_counts() {
    for case in cases() {
        let session = Session::from_source(case.program, SemanticsMode::Grohe).unwrap();
        let catalog = session.program().catalog.clone();
        let stream = |threads: usize| {
            let mut sink = LogRecordingSink {
                catalog: catalog.clone(),
                rows: Vec::new(),
                deficits: Vec::new(),
            };
            session
                .eval()
                .sample(6_000)
                .seed(1234)
                .threads(threads)
                .given(case.given)
                .collect_into(&mut sink)
                .unwrap();
            let mut rows = sink.rows;
            rows.sort();
            rows
        };
        let reference = stream(1);
        assert!(!reference.is_empty(), "{}: empty stream", case.name);
        for threads in [2, 4] {
            assert_eq!(
                reference,
                stream(threads),
                "{}: the multiset of (world, log-weight) observations must \
                 be bit-identical at {threads} workers",
                case.name
            );
        }
        assert_eq!(reference, stream(1), "{}: repeat determinism", case.name);
    }
}

#[test]
fn mh_posterior_is_seed_reproducible_end_to_end() {
    let case = &cases()[0];
    let session = Session::from_source(case.program, SemanticsMode::Grohe).unwrap();
    let fact = query_fact(&session, case.rel, case.args);
    let run = || {
        session
            .eval()
            .mh(5_000)
            .burn_in(500)
            .thin(2)
            .seed(99)
            .given(case.given)
            .marginal(&fact)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_bits(), b.to_bits(), "same seed, same chain, same bits");
}

/// The MH chain of the panel's first case, pinned bit for bit for two
/// seeds: its posterior marginal and its acceptance rate. The values were
/// measured on the chain that re-chased every proposal from the input, so
/// a replay that walks recorded sites must reproduce that chain exactly.
#[test]
fn mh_chain_is_pinned_for_fixed_seeds() {
    let case = &cases()[0];
    let session = Session::from_source(case.program, SemanticsMode::Grohe).unwrap();
    let fact = query_fact(&session, case.rel, case.args);
    for (seed, marginal, rate) in [
        (7u64, 0x3fe4_0c49_ba5e_353f_u64, 0x3fdf_8c59_25f2_bf8c_u64),
        (0xBEEF, 0x3fe3_b439_5810_624e, 0x3fdf_b6c0_fe6f_12ea),
    ] {
        let (p, ev) = posterior(
            session
                .eval()
                .mh(4_000)
                .burn_in(500)
                .thin(2)
                .seed(seed)
                .given(case.given),
            &fact,
        );
        let accept = ev.accept_rate.expect("MH reports its acceptance rate");
        assert_eq!(p.to_bits(), marginal, "seed {seed}: marginal {p}");
        assert_eq!(
            accept.to_bits(),
            rate,
            "seed {seed}: acceptance rate {accept}"
        );
    }
}
