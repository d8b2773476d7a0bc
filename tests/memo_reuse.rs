//! Reusing chase work across evaluations changes no answer.
//!
//! A `Session` keeps one chase-tree memo per tree key — input, evidence,
//! chase variant, `max_depth`, `keep_aux` — in its engine's plans, shared
//! by every evaluation over the same tree: fixed-run Monte-Carlo, every
//! round of `sample_until`, and MH chains, which walk edges the
//! likelihood-weighting lanes recorded and the other way round. Every
//! answer of a warm session must equal, bit for bit, the answer of a
//! fresh session per request, at one and two threads; and a request with
//! any part of the key changed must start from an empty memo.

use gdatalog::prelude::*;

/// The alarm network of the diagnosis workload, its houses given as input.
const ALARM: &str = "rel House(symbol) input.
Quake(Flip<0.05>) :- true.
Burglary(H, Flip<0.1>) :- House(H).
Trig(H, Flip<0.6>) :- House(H), Quake(1).
Trig(H, Flip<0.9>) :- Burglary(H, 1).
Alarm(H) :- Trig(H, 1).
SeismoMean(1, 3.0).
SeismoMean(0, 0.0).
";

const HOUSES: &str = "House(h1). House(h2). House(h3).";

const EVIDENCE: &str = "Alarm(h1). Alarm(h2). Normal<M, 1.0> == 2.4 :- Quake(Q), SeismoMean(Q, M).";

/// A layered discrete program as `tests/random_programs.rs` generates
/// them: seeds, keyed coins, copies and a join.
const LAYERED: &str = "L0(0). L0(1). L0(2).
L1(Flip<0.3 | X>) :- L0(X).
L2(X) :- L1(X).
L3(Flip<0.6 | X>) :- L2(X).
L4(X) :- L3(X), L2(X).
L5(Flip<0.45 | X>) :- L4(X).
";

/// One request of the reuse matrix.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Fixed,
    Adaptive,
    Chain,
}

const KINDS: [Kind; 3] = [Kind::Fixed, Kind::Adaptive, Kind::Chain];

/// A model: its source, input facts and evidence.
struct Model {
    src: &'static str,
    input: &'static str,
    given: &'static str,
}

const MODELS: [Model; 2] = [
    Model {
        src: ALARM,
        input: HOUSES,
        given: EVIDENCE,
    },
    Model {
        src: LAYERED,
        input: "",
        given: "",
    },
];

impl Model {
    fn session(&self) -> Session {
        let mut session = Session::from_source(self.src, SemanticsMode::Grohe).unwrap();
        session.insert_facts_text(self.input).unwrap();
        session
    }

    /// Every marginal of the model's output relations, one pass.
    fn queries(&self, session: &Session) -> QuerySet {
        let program = session.program();
        let mut queries = QuerySet::new();
        for rel in &program.output_relations {
            queries = queries.marginals(*rel);
        }
        queries
    }
}

/// The evaluation of `kind` at `seed` and `threads` on `session`.
fn eval<'s>(
    model: &Model,
    session: &'s Session,
    kind: Kind,
    seed: u64,
    threads: usize,
) -> Evaluation<'s> {
    let eval = session
        .eval()
        .seed(seed)
        .threads(threads)
        .given(model.given);
    match kind {
        Kind::Fixed => eval.sample(384),
        Kind::Adaptive => eval.sample_until(EssTarget::new(150.0).initial_batch(128)),
        Kind::Chain => eval.mh(150).burn_in(100),
    }
}

/// The answers of `eval` to `queries` and its evidence summary,
/// rendered so that equal text means equal bits.
fn rendered(eval: Evaluation<'_>, queries: &QuerySet) -> String {
    let answers = eval.answer(queries).unwrap();
    let evidence = answers.evidence();
    let answers: Vec<Answer> = answers.into_iter().collect();
    format!("{answers:?} {evidence:?}")
}

/// The answer of a fresh session per request.
fn cold(model: &Model, kind: Kind, seed: u64, threads: usize) -> String {
    let session = model.session();
    let queries = model.queries(&session);
    rendered(eval(model, &session, kind, seed, threads), &queries)
}

#[test]
fn a_warm_session_answers_as_a_fresh_session_per_request() {
    for model in &MODELS {
        let warm = model.session();
        let queries = model.queries(&warm);
        for seed in 0..20 {
            for threads in [1, 2] {
                for kind in KINDS {
                    let got = rendered(eval(model, &warm, kind, seed, threads), &queries);
                    let want = cold(model, kind, seed, threads);
                    assert_eq!(got, want, "{kind:?} seed {seed} at {threads} threads");
                }
            }
        }
        let stats = warm.engine().memo_stats();
        assert!(
            stats.hits > 100,
            "the evaluations shared one memo: {stats:?}"
        );
        assert!(stats.cells > 0);
    }
}

/// Warms the memo of `model`'s tree on `session` (kept on the second
/// sighting, found on the third).
fn warm_up(model: &Model, session: &Session) {
    let queries = model.queries(session);
    for seed in 0..3 {
        rendered(eval(model, session, Kind::Fixed, seed, 1), &queries);
    }
    assert!(session.engine().memo_stats().hits > 0);
}

/// Runs `eval` on `session`, asserting it found no kept memo and answered
/// as `want`.
fn assert_cold(
    session: &Session,
    eval: Evaluation<'_>,
    queries: &QuerySet,
    want: &str,
    what: &str,
) {
    let before = session.engine().memo_stats();
    let got = rendered(eval, queries);
    let after = session.engine().memo_stats();
    assert_eq!(
        after.hits, before.hits,
        "{what}: a changed key found a memo"
    );
    assert_eq!(after.misses, before.misses + 1, "{what}");
    assert_eq!(got, want, "{what}");
}

#[test]
fn every_part_of_the_key_separates_trees() {
    let model = &MODELS[0];
    let mut session = model.session();
    let queries = model.queries(&session);
    warm_up(model, &session);
    fn fixed(session: &Session) -> Evaluation<'_> {
        eval(&MODELS[0], session, Kind::Fixed, 11, 2)
    }
    let fresh = || model.session();

    // A different `given`.
    let other = "Alarm(h3).";
    let want = rendered(
        fresh().eval().seed(11).threads(2).given(other).sample(384),
        &queries,
    );
    let changed = session.eval().seed(11).threads(2).given(other).sample(384);
    assert_cold(&session, changed, &queries, &want, "given");

    // A different step budget, and auxiliary relations kept.
    let want = rendered(fixed(&fresh()).max_depth(400), &queries);
    assert_cold(
        &session,
        fixed(&session).max_depth(400),
        &queries,
        &want,
        "max_depth",
    );
    let want = rendered(fixed(&fresh()).keep_aux(true), &queries);
    assert_cold(
        &session,
        fixed(&session).keep_aux(true),
        &queries,
        &want,
        "keep_aux",
    );

    // Another chase variant.
    for variant in [
        ChaseVariant::Sequential(PolicyKind::Reverse),
        ChaseVariant::Parallel,
        ChaseVariant::Saturating,
    ] {
        let want = rendered(fixed(&fresh()).variant(variant), &queries);
        let what = format!("{variant:?}");
        assert_cold(
            &session,
            fixed(&session).variant(variant),
            &queries,
            &want,
            &what,
        );
    }

    // Another input, then back to the warm one.
    session.insert_facts_text("House(h4).").unwrap();
    let mut grown = fresh();
    grown.insert_facts_text("House(h4).").unwrap();
    let want = rendered(fixed(&grown), &queries);
    assert_cold(&session, fixed(&session), &queries, &want, "insert_facts");
    session.reset();
    session.insert_facts_text(model.input).unwrap();
    let before = session.engine().memo_stats();
    let want = rendered(fixed(&fresh()), &queries);
    assert_eq!(rendered(fixed(&session), &queries), want, "reset");
    assert_eq!(session.engine().memo_stats().hits, before.hits + 1, "reset");
}
