//! Integration test: Monte-Carlo sampling converges to the exact world
//! table (chi-square GOF on the world distribution, plus marginals).

use std::collections::BTreeMap;

use gdatalog::prelude::*;
use gdatalog::stats::chi_square_gof;

#[test]
fn mc_matches_exact_world_distribution() {
    let src = r#"
        rel City(symbol, real) input.
        City(gotham, 0.3).
        Earthquake(C, Flip<0.1>) :- City(C, R).
        Trig(C, Flip<0.6>) :- Earthquake(C, 1).
        Alarm(C) :- Trig(C, 1).
    "#;
    let engine = Engine::from_source(src, SemanticsMode::Grohe).unwrap();
    let exact = engine.eval().exact().worlds().unwrap();
    let pdb = engine
        .eval()
        .sample(60_000)
        .seed(31)
        .threads(4)
        .pdb()
        .unwrap();
    assert_eq!(pdb.errors(), 0);

    // Count sampled worlds against the exact probabilities.
    let empirical: BTreeMap<Instance, f64> = pdb.to_distribution();
    let mut observed = Vec::new();
    let mut probs = Vec::new();
    for (world, p) in exact.iter() {
        let freq = empirical.get(world).copied().unwrap_or(0.0);
        observed.push((freq * pdb.runs() as f64).round() as u64);
        probs.push(p);
    }
    // Every sampled world must be one of the exact worlds.
    let total_obs: u64 = observed.iter().sum();
    assert_eq!(total_obs, pdb.runs() as u64, "no spurious worlds sampled");
    let r = chi_square_gof(&observed, &probs, 5.0);
    assert!(r.passes(1e-4), "X² = {}, p = {}", r.statistic, r.p_value);
}

#[test]
fn mc_parallel_variant_matches_exact_too() {
    let src = "R(Flip<0.5>) :- true. S(Flip<0.25>) :- true.";
    let engine = Engine::from_source(src, SemanticsMode::Grohe).unwrap();
    let exact = engine.eval().exact().worlds().unwrap();
    let pdb = engine
        .eval()
        .sample(40_000)
        .seed(77)
        .variant(ChaseVariant::Parallel)
        .pdb()
        .unwrap();
    let empirical = pdb.to_distribution();
    let mut observed = Vec::new();
    let mut probs = Vec::new();
    for (world, p) in exact.iter() {
        observed.push(
            (empirical.get(world).copied().unwrap_or(0.0) * pdb.runs() as f64).round() as u64,
        );
        probs.push(p);
    }
    let r = chi_square_gof(&observed, &probs, 5.0);
    assert!(r.passes(1e-4), "X² = {}, p = {}", r.statistic, r.p_value);
}

#[test]
fn empirical_mass_estimates_spdb_mass() {
    // Tagged geometric chain: exact enumeration bounds the termination
    // mass; the MC mass estimate must be compatible.
    let src = r#"
        G(0).
        G(Geometric<0.5 | X>) :- G(X).
    "#;
    let engine = Engine::from_source(src, SemanticsMode::Grohe).unwrap();
    let exact = engine
        .eval()
        .exact()
        .policy(PolicyKind::Canonical)
        .keep_aux(true)
        .max_depth(16)
        .support_tol(1e-6)
        .min_path_prob(1e-6)
        .worlds()
        .unwrap();
    // Termination mass is at least the exactly-terminated mass.
    let lower = exact.mass();
    assert!(lower > 0.8);

    let pdb = engine
        .eval()
        .sample(5_000)
        .max_depth(5_000)
        .seed(13)
        .pdb()
        .unwrap();
    let mc_mass = pdb.mass();
    assert!(
        mc_mass >= lower - 0.02,
        "MC mass {mc_mass} below exact lower bound {lower}"
    );
}

/// A run that becomes absorbing exactly at the round budget terminates in
/// every chase: Monte-Carlo Parallel, Monte-Carlo sequential and exact
/// parallel enumeration agree on the world mass at every budget.
#[test]
fn parallel_mc_mass_matches_exact_parallel_at_each_budget() {
    // Absorbing after 2 rounds, and after 3 rounds.
    for src in [
        "R(Flip<0.5>) :- true.",
        "R(Flip<0.5>) :- true. S(X) :- R(X).",
    ] {
        let engine = Engine::from_source(src, SemanticsMode::Grohe).unwrap();
        for budget in 1..=3 {
            let exact = engine
                .eval()
                .exact_parallel()
                .max_depth(budget)
                .worlds()
                .unwrap()
                .mass();
            for variant in [
                ChaseVariant::Parallel,
                ChaseVariant::Sequential(PolicyKind::Canonical),
            ] {
                let mc = engine
                    .eval()
                    .sample(1000)
                    .seed(5)
                    .variant(variant)
                    .max_depth(budget)
                    .pdb()
                    .unwrap()
                    .mass();
                assert!(
                    (mc - exact).abs() < 1e-9,
                    "{src} at budget {budget} under {variant:?}: MC {mc}, exact {exact}"
                );
            }
        }
    }
}
