//! Acceptance tests for the serving layer (ISSUE 3): batch-of-one
//! bit-identity against the plain Session/Evaluation surface (exact and
//! seeded Monte-Carlo), residual-free session reset, and pointer-identical
//! plan reuse on cache hits.

use std::sync::Arc;

use gdatalog::prelude::*;

const MODEL: &str = "rel City(symbol, real) input.
    Earthquake(C, Flip<R>) :- City(C, R).
    Trig(C, Flip<0.6>) :- Earthquake(C, 1).
    Alarm(C) :- Trig(C, 1).";

/// Evaluates the same marginal directly on a fresh `Session`, bypassing
/// the serving layer entirely — the reference the batch must match bit
/// for bit.
fn direct_marginal(evidence: &str, fact_text: &str, mc: Option<(usize, u64)>) -> f64 {
    let mut session = Session::from_source(MODEL, SemanticsMode::Grohe).unwrap();
    session.insert_facts_text(evidence).unwrap();
    let parsed =
        gdatalog::lang::parse_facts(&format!("{fact_text}."), &session.program().catalog).unwrap();
    let fact = parsed.facts().next().unwrap();
    match mc {
        None => session.eval().exact().marginal(&fact).unwrap(),
        Some((runs, seed)) => session
            .eval()
            .sample(runs)
            .seed(seed)
            .marginal(&fact)
            .unwrap(),
    }
}

#[test]
fn batch_of_one_is_bit_identical_exact() {
    let server = Server::from_source(MODEL, SemanticsMode::Grohe).unwrap();
    let request = Request::marginal("Alarm(gotham)")
        .evidence("City(gotham, 0.3).")
        .exact();
    let reference = direct_marginal("City(gotham, 0.3).", "Alarm(gotham)", None);
    // Once through batch(), once through the single-request entry point.
    let batched = server.batch(std::slice::from_ref(&request));
    let Response::Marginal(p) = batched[0].as_ref().unwrap().single() else {
        panic!("marginal response expected");
    };
    assert_eq!(p.to_bits(), reference.to_bits(), "batch-of-one, exact");
    let Response::Marginal(p) = server.execute(&request).unwrap().single().clone() else {
        panic!("marginal response expected");
    };
    assert_eq!(p.to_bits(), reference.to_bits(), "single execute, exact");
}

#[test]
fn batch_of_one_is_bit_identical_seeded_mc() {
    let server = Server::from_source(MODEL, SemanticsMode::Grohe).unwrap();
    for seed in [0u64, 7, 0xC0FFEE] {
        let request = Request::marginal("Alarm(gotham)")
            .evidence("City(gotham, 0.3).")
            .mc(3_000)
            .seed(seed);
        let reference = direct_marginal("City(gotham, 0.3).", "Alarm(gotham)", Some((3_000, seed)));
        let batched = server.batch(std::slice::from_ref(&request));
        let Response::Marginal(p) = batched[0].as_ref().unwrap().single() else {
            panic!("marginal response expected");
        };
        assert_eq!(p.to_bits(), reference.to_bits(), "seed {seed}");
    }
}

#[test]
fn batch_is_bit_identical_to_sequential_singles_any_worker_count() {
    // The four query kinds round-robin; with the backend picked by `i % 3`,
    // the 12 slots cover every kind on both backends.
    let requests: Vec<Request> = (0..12)
        .map(|i| {
            let req = match i % 4 {
                0 => Request::marginal(format!("Alarm(c{i})")),
                1 => Request::probability(format!("Alarm(c{i})")),
                2 => Request::expectation("Alarm", AggFun::Count),
                _ => Request::histogram("Earthquake", 1, 0.0, 2.0, 2),
            }
            .evidence(format!("City(c{i}, 0.{}).", 1 + i % 8));
            if i % 3 == 2 {
                req.mc(1_000).seed(i as u64)
            } else {
                req.exact()
            }
        })
        .collect();
    let reference: Vec<Reply> = {
        let server = Server::from_source(MODEL, SemanticsMode::Grohe).unwrap();
        requests
            .iter()
            .map(|r| server.execute(r).unwrap())
            .collect()
    };
    // The uncached reference: every request compiled and answered on a
    // fresh session, with no cache, pool or executor involved.
    let fresh: Vec<Reply> = requests
        .iter()
        .map(|r| {
            let mut session = Session::from_source(MODEL, SemanticsMode::Grohe).unwrap();
            gdatalog::serve::execute_on(&mut session, r).unwrap()
        })
        .collect();
    for workers in [1usize, 2, 5] {
        let server = Server::from_source(MODEL, SemanticsMode::Grohe)
            .unwrap()
            .threads(workers);
        let answers = server.batch(&requests);
        for (i, answer) in answers.into_iter().enumerate() {
            assert_eq!(
                answer.as_ref().unwrap(),
                &fresh[i],
                "workers {workers}, slot {i} vs a fresh session"
            );
            assert_eq!(answer.unwrap(), reference[i], "workers {workers}, slot {i}");
        }
    }
}

#[test]
fn session_reset_leaves_no_residual_facts() {
    let mut session = Session::from_source(MODEL, SemanticsMode::Grohe).unwrap();
    let base = session.facts().len();
    session
        .insert_facts_text("City(gotham, 0.3). City(metropolis, 0.6).")
        .unwrap();
    assert_eq!(session.facts().len(), base + 2);
    session.reset();
    assert_eq!(session.facts().len(), base, "reset restores the base EDB");
    assert_eq!(session.inserted_facts(), 0);
    // And the reset session answers like a fresh one.
    let alarm = session.program().catalog.require("Alarm").unwrap();
    assert!(session.eval().exact().marginals(alarm).unwrap().is_empty());

    // Through the pool: a returned session is clean on next checkout.
    let server = Server::from_source(MODEL, SemanticsMode::Grohe).unwrap();
    let _ = server.batch(&[Request::marginals("Alarm")
        .evidence("City(gotham, 1.0).")
        .exact()]);
    let session = server.pool().checkout();
    assert_eq!(
        session.facts().len(),
        base,
        "pooled session carries no residue"
    );
}

#[test]
fn cache_hit_returns_identical_plan_pointer() {
    let cache = ProgramCache::new();
    let a = cache.get_or_compile(MODEL, SemanticsMode::Grohe).unwrap();
    let b = cache.get_or_compile(MODEL, SemanticsMode::Grohe).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "hit returns the same model");
    assert!(
        Arc::ptr_eq(a.plans(), b.plans()),
        "hit returns the identical PreparedProgram allocation"
    );
    assert!(
        Arc::ptr_eq(a.engine().program_shared(), b.engine().program_shared()),
        "hit returns the identical CompiledProgram allocation"
    );
    // Sessions spawned from the model keep sharing those allocations.
    let session = a.session();
    assert!(Arc::ptr_eq(session.engine().prepared(), b.plans()));
    assert_eq!(
        cache.stats(),
        gdatalog::serve::CacheStats {
            hits: 1,
            misses: 1,
            entries: 1
        }
    );
}

/// The served model keeps the chase-tree memo of a repeated request's
/// tree, which `/v1/stats` reports: the third sighting of one keyed
/// Monte-Carlo request hits it with an unchanged answer, and a request
/// with a fresh input misses.
#[test]
fn repeated_keyed_requests_hit_the_memo_and_fresh_inputs_miss() {
    let server = Server::from_source(MODEL, SemanticsMode::Grohe).unwrap();
    let request = |input: &str| {
        Request::marginal("Alarm(gotham)")
            .evidence(input)
            .mc(2_000)
            .seed(5)
    };
    let keyed = request("City(gotham, 0.3).");
    let first = server.execute(&keyed).unwrap();
    for _ in 0..2 {
        assert_eq!(server.execute(&keyed).unwrap(), first);
    }
    let m = server.metrics();
    assert_eq!(
        (m.memo_hits, m.memo_misses),
        (1, 2),
        "kept on the second sighting"
    );
    assert!(m.memo_cells > 0);
    server.execute(&request("City(gotham, 0.4).")).unwrap();
    let m = server.metrics();
    assert_eq!((m.memo_hits, m.memo_misses), (1, 3), "a fresh input misses");
    assert_eq!(m.memo_evictions, 0);
}
