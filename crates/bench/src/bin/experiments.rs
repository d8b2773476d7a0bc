//! The experiment harness: regenerates every quantitative claim of the
//! paper (experiments E1–E8) and prints paper-expected vs measured
//! values. `cargo run --release -p gdatalog-bench --bin experiments
//! [e1 e2 …]` — no arguments runs all eight.
//!
//! Performance is measured elsewhere: the workload corpus in
//! `benchmark/` (see `benchmark/README.md`) and the criterion suites in
//! `crates/bench/benches/`.

use std::sync::Arc;

use gdatalog_bench::{burglary_program, geometric_chain, heights_program, normal_chain};
use gdatalog_core::engine::Engine;
use gdatalog_core::{
    build_chase_tree, ChasePolicy, ChaseVariant, ExactConfig, PolicyKind, RunOutcome,
};
use gdatalog_data::{Fact, Tuple, Value};
use gdatalog_dist::Registry;
use gdatalog_lang::{
    parse_program, simulate_barany_in_grohe, simulate_grohe_in_barany, SemanticsMode, BSIM_PREFIX,
};
use gdatalog_pdb::PossibleWorlds;
use gdatalog_stats::{ks_one_sample, ks_two_sample, Summary};

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

fn row3(a: impl std::fmt::Display, b: impl std::fmt::Display, c: impl std::fmt::Display) {
    println!("  {a:<34} {b:>16} {c:>16}");
}

/// Outcome triple (only R(1), only R(0), both) for programs with a unary R.
fn triple(engine: &Engine, worlds: &PossibleWorlds) -> (f64, f64, f64) {
    let r = engine.program().catalog.require("R").expect("R declared");
    let one = Tuple::from(vec![Value::int(1)]);
    let zero = Tuple::from(vec![Value::int(0)]);
    (
        worlds.probability(|d| d.contains(r, &one) && !d.contains(r, &zero)),
        worlds.probability(|d| d.contains(r, &zero) && !d.contains(r, &one)),
        worlds.probability(|d| d.contains(r, &zero) && d.contains(r, &one)),
    )
}

fn e1() {
    header(
        "E1",
        "Example 1.1 — programs G0, Gε, G′0 under both semantics",
    );
    let g0 = "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.";

    let new = Engine::from_source(g0, SemanticsMode::Grohe).expect("ok");
    let w = new.eval().exact().worlds().expect("ok");
    let (p1, p0, pb) = triple(&new, &w);
    println!("\nG0 under this paper's semantics (paper: 1/4, 1/4, 1/2):");
    row3("outcome", "paper", "measured");
    row3("{R(1)}", 0.25, p1);
    row3("{R(0)}", 0.25, p0);
    row3("{R(0), R(1)}", 0.5, pb);

    let old = Engine::from_source(g0, SemanticsMode::Barany).expect("ok");
    let w = old.eval().exact().worlds().expect("ok");
    let (p1, p0, pb) = triple(&old, &w);
    println!("\nG0 under Bárány et al. semantics (paper: 1/2, 1/2, 0):");
    row3("outcome", "paper", "measured");
    row3("{R(1)}", 0.5, p1);
    row3("{R(0)}", 0.5, p0);
    row3("{R(0), R(1)}", 0.0, pb);

    println!("\nGε as displayed (rules Flip<1/2>, Flip<1/2+ε>), new semantics:");
    println!("  (expected (1/2)(1/2+ε), (1/2)(1/2−ε), 1/2 — see errata note: the");
    println!("  paper's stated 1/4±ε+ε² arithmetic corresponds to Flip<1/2+ε> twice)");
    println!(
        "  {:>8} {:>12} {:>12} {:>12}",
        "ε", "{R(1)}", "{R(0)}", "both"
    );
    for eps in [0.25, 0.1, 0.05, 0.01, 0.0] {
        let src = format!("R(Flip<0.5>) :- true. R(Flip<{}>) :- true.", 0.5 + eps);
        let e = Engine::from_source(&src, SemanticsMode::Grohe).expect("ok");
        let w = e.eval().exact().worlds().expect("ok");
        let (p1, p0, pb) = triple(&e, &w);
        println!("  {eps:>8} {p1:>12.6} {p0:>12.6} {pb:>12.6}");
    }

    println!("\nGε paper-arithmetic variant (Flip<1/2+ε> twice), new semantics:");
    println!(
        "  {:>8} {:>12} {:>12} {:>14} {:>14}",
        "ε", "{R(1)}", "paper", "both", "paper"
    );
    for eps in [0.25f64, 0.1, 0.01] {
        let p = 0.5 + eps;
        let src = format!("R(Flip<{p}>) :- true. R(Flip<{p}>) :- true.");
        let e = Engine::from_source(&src, SemanticsMode::Grohe).expect("ok");
        let w = e.eval().exact().worlds().expect("ok");
        let (p1, _, pb) = triple(&e, &w);
        println!(
            "  {eps:>8} {p1:>12.6} {:>12.6} {pb:>14.6} {:>14.6}",
            0.25 + eps + eps * eps,
            0.5 - 2.0 * eps * eps
        );
    }

    let g0p = "R(Flip<0.5>) :- true. R(Bernoulli<0.5>) :- true.";
    println!("\nG′0 (Flip vs identically-distributed Bernoulli):");
    for (label, mode, expect) in [
        (
            "new semantics (same as G0)",
            SemanticsMode::Grohe,
            (0.25, 0.25, 0.5),
        ),
        (
            "Bárány (rename decorrelates)",
            SemanticsMode::Barany,
            (0.25, 0.25, 0.5),
        ),
    ] {
        let e = Engine::from_source(g0p, mode).expect("ok");
        let w = e.eval().exact().worlds().expect("ok");
        let t = triple(&e, &w);
        println!(
            "  {label:<32} paper ({:.2}, {:.2}, {:.2})  measured ({:.4}, {:.4}, {:.4})",
            expect.0, expect.1, expect.2, t.0, t.1, t.2
        );
    }
}

fn e2() {
    header(
        "E2",
        "Example 3.4 — burglary network: exact vs closed form vs MC",
    );
    let engine = Engine::from_source(&burglary_program(2), SemanticsMode::Grohe).expect("ok");
    let worlds = engine.eval().exact().worlds().expect("ok");
    println!(
        "exact worlds over the output schema: {} (mass {:.9})",
        worlds.len(),
        worlds.mass()
    );
    let pdb = engine
        .eval()
        .sample(100_000)
        .seed(7)
        .threads(4)
        .variant(ChaseVariant::Saturating)
        .pdb()
        .expect("ok");
    let alarm = engine.program().catalog.require("Alarm").expect("ok");
    println!("\n  unit  rate   closed-form      exact           MC(100k)");
    for (unit, rate) in [("h0", 0.3), ("h1", 0.3), ("b1", 0.1)] {
        let fact = Fact::new(alarm, Tuple::from(vec![Value::sym(unit)]));
        let closed = 1.0 - (1.0 - 0.1 * 0.6) * (1.0 - rate * 0.9);
        println!(
            "  {unit:<5} {rate:<6} {closed:<16.6} {:<15.9} {:.6}",
            worlds.marginal(&fact),
            pdb.marginal(&fact)
        );
    }
    // Correlation through the shared earthquake.
    let a0 = Fact::new(alarm, Tuple::from(vec![Value::sym("h0")]));
    let a1 = Fact::new(alarm, Tuple::from(vec![Value::sym("h1")]));
    let joint =
        worlds.probability(|d| d.contains(a0.rel, &a0.tuple) && d.contains(a1.rel, &a1.tuple));
    println!(
        "\n  P(alarm h0 ∧ alarm h1) = {:.6} > product {:.6} (same-city correlation)",
        joint,
        worlds.marginal(&a0) * worlds.marginal(&a1)
    );
}

fn e3() {
    header(
        "E3",
        "Example 3.5 — heights from per-country Normals (continuous MC)",
    );
    let engine = Engine::from_source(&heights_program(2), SemanticsMode::Grohe).expect("ok");
    let pheight = engine.program().catalog.require("PHeight").expect("ok");
    let pdb = engine
        .eval()
        .sample(8_000)
        .seed(3)
        .threads(4)
        .pdb()
        .expect("ok");
    println!("worlds sampled: {} ({} errors)\n", pdb.runs(), pdb.errors());
    println!("  person  target µ  target σ   sample mean  sample sd   KS p-value");
    for (person, mu, s2) in [("nl0", 183.8, 49.0f64), ("pe0", 165.2, 36.0)] {
        let mut vals = Vec::new();
        for world in pdb.samples() {
            for t in world.relation(pheight) {
                if t[0] == Value::sym(person) {
                    vals.push(t[1].as_f64().expect("real"));
                }
            }
        }
        let s = Summary::of(&vals);
        let sigma = s2.sqrt();
        let ks = ks_one_sample(&vals, |x| {
            gdatalog_dist::special::std_normal_cdf((x - mu) / sigma)
        });
        println!(
            "  {person:<7} {mu:<9} {sigma:<10.3} {:<12.3} {:<11.3} {:.3}",
            s.mean(),
            s.std_dev(),
            ks.p_value
        );
    }
}

fn e4() {
    header(
        "E4",
        "Theorem 6.1/6.2 — chase independence (policies & parallel)",
    );
    let engine = Engine::from_source(&burglary_program(2), SemanticsMode::Grohe).expect("ok");
    let program = engine.program();
    let reference = engine.eval().exact().worlds().expect("ok");
    println!("\n  discrete (burglary, exact): total variation vs canonical policy");
    for kind in [
        PolicyKind::Reverse,
        PolicyKind::RoundRobin,
        PolicyKind::Random { seed: 417 },
        PolicyKind::DeterministicFirst,
    ] {
        let w = engine
            .eval()
            .exact()
            .policy(kind)
            .keep_aux(true)
            .worlds()
            .expect("ok")
            .map(|d| program.project_output(d));
        let label = format!("{kind:?}");
        println!("    {label:<28} TV = {:.2e}", reference.total_variation(&w));
    }
    let par = engine.eval().exact_parallel().worlds().expect("ok");
    println!(
        "    {:<28} TV = {:.2e}",
        "Parallel chase",
        reference.total_variation(&par)
    );

    println!("\n  continuous (heights, MC): two-sample KS vs canonical sequential");
    let heights_engine =
        Engine::from_source(&heights_program(1), SemanticsMode::Grohe).expect("ok");
    let ph = heights_engine
        .program()
        .catalog
        .require("PHeight")
        .expect("ok");
    let sample_with = |variant, seed| {
        heights_engine
            .eval()
            .sample(4_000)
            .seed(seed)
            .variant(variant)
            .pdb()
            .expect("ok")
            .column_values(ph, 1)
    };
    let base = sample_with(ChaseVariant::Sequential(PolicyKind::Canonical), 100);
    for (label, variant, seed) in [
        (
            "Sequential(Reverse)",
            ChaseVariant::Sequential(PolicyKind::Reverse),
            101,
        ),
        (
            "Sequential(Random)",
            ChaseVariant::Sequential(PolicyKind::Random { seed: 5 }),
            102,
        ),
        ("Parallel", ChaseVariant::Parallel, 103),
        ("Saturating", ChaseVariant::Saturating, 104),
    ] {
        let other = sample_with(variant, seed);
        let ks = ks_two_sample(&base, &other);
        println!(
            "    {label:<28} KS D = {:.4}, p = {:.3}",
            ks.statistic, ks.p_value
        );
    }
}

fn e5() {
    header("E5", "Theorem 6.3 / §6.3 — weak acyclicity and termination");
    println!("\n  program                      weakly acyclic   behavior");
    let cases: [(&str, String); 4] = [
        ("burglary (Ex. 3.4)", burglary_program(2)),
        ("heights (Ex. 3.5)", heights_program(1)),
        ("normal chain (§6.3)", normal_chain().to_string()),
        ("geometric chain (§6.3)", geometric_chain().to_string()),
    ];
    for (label, src) in &cases {
        let engine = Engine::from_source(src, SemanticsMode::Grohe).expect("ok");
        let wa = engine.program().weakly_acyclic();
        let pdb = engine
            .eval()
            .sample(200)
            .max_depth(500)
            .seed(11)
            .threads(4)
            .pdb()
            .expect("ok");
        let behavior = if pdb.errors() == 0 {
            "terminates (all runs)".to_string()
        } else if pdb.errors() == pdb.runs() {
            "never terminated within budget".to_string()
        } else {
            format!(
                "{}/{} runs terminated",
                pdb.runs() - pdb.errors(),
                pdb.runs()
            )
        };
        println!("  {label:<28} {wa:<16} {behavior}");
    }

    println!("\n  continuous chain: alive fraction by step budget (paper: a.s. non-terminating)");
    let cont = Engine::from_source(normal_chain(), SemanticsMode::Grohe).expect("ok");
    for budget in [10usize, 100, 500] {
        let pdb = cont
            .eval()
            .sample(200)
            .max_depth(budget)
            .seed(2)
            .threads(4)
            .pdb()
            .expect("ok");
        println!(
            "    budget {budget:>5}: alive {:.3} (expected 1.000)",
            pdb.errors() as f64 / pdb.runs() as f64
        );
    }

    println!("\n  geometric chain: terminates a.s.; exact termination mass by depth");
    let disc = Engine::from_source(geometric_chain(), SemanticsMode::Grohe).expect("ok");
    // Paths below probability 1e-6 are pruned into the unresolved mass,
    // keeping the tree finite (the geometric support alone has ~20
    // outcomes per sample at this tolerance).
    for depth in [4usize, 8, 12, 16] {
        let w = disc
            .eval()
            .exact()
            .policy(PolicyKind::Canonical)
            .keep_aux(true)
            .max_depth(depth)
            .support_tol(1e-6)
            .min_path_prob(1e-6)
            .worlds()
            .expect("ok");
        println!(
            "    depth ≤ {depth:>2}: terminated mass ≥ {:.6}, unresolved ≤ {:.6}",
            w.mass(),
            w.deficit().nontermination + w.deficit().truncation
        );
    }
    let mut lens = Vec::new();
    for seed in 0..2_000u64 {
        let run = disc
            .eval()
            .policy(PolicyKind::Canonical)
            .seed(seed)
            .max_depth(100_000)
            .trace()
            .expect("ok");
        assert_eq!(run.outcome, RunOutcome::Terminated);
        lens.push(run.steps as f64);
    }
    let s = Summary::of(&lens);
    println!(
        "    2000 MC runs all terminated; steps: mean {:.2}, max {:.0}",
        s.mean(),
        s.max()
    );
}

fn e6() {
    header(
        "E6",
        "§6.2 — semantics simulation (H ↦ H′ and the tagged dual)",
    );
    let h = "R(Flip<0.5>) :- true. S(Flip<0.5>) :- true.";
    let old_engine = Engine::from_source(h, SemanticsMode::Barany).expect("ok");
    let old_table = old_engine
        .eval()
        .exact()
        .worlds()
        .expect("ok")
        .table(&old_engine.program().catalog);
    println!("\n  H under Bárány et al. (paper: two perfectly correlated worlds):");
    for (t, p) in &old_table {
        println!("    {p:.4}  {t}");
    }

    let h_prime = simulate_barany_in_grohe(&parse_program(h).expect("ok"));
    let sim_engine = Engine::from_ast(
        h_prime,
        SemanticsMode::Grohe,
        Arc::new(Registry::standard()),
    )
    .expect("ok");
    let sim_catalog = sim_engine.program().catalog.clone();
    let sim_table = sim_engine
        .eval()
        .exact()
        .worlds()
        .expect("ok")
        .project_relations(|rel| !sim_catalog.name(rel).starts_with(BSIM_PREFIX))
        .table(&sim_catalog);
    println!("\n  H′ under this paper's semantics, helpers projected (paper: same):");
    for (t, p) in &sim_table {
        println!("    {p:.4}  {t}");
    }
    let agree = old_table.len() == sim_table.len()
        && old_table
            .iter()
            .zip(&sim_table)
            .all(|((ta, pa), (tb, pb))| ta == tb && (pa - pb).abs() < 1e-12);
    println!("\n  tables agree exactly: {agree}");

    // Dual direction.
    let g = "Quake(C, Flip<R>) :- City(C, R).\nEcho(C, Flip<R>) :- City(C, R).\nCity(a, 0.5).\nCity(b, 0.25).";
    let new_engine = Engine::from_source(g, SemanticsMode::Grohe).expect("ok");
    let new_table = new_engine
        .eval()
        .exact()
        .worlds()
        .expect("ok")
        .table(&new_engine.program().catalog);
    let tagged = simulate_grohe_in_barany(&parse_program(g).expect("ok"));
    let dual_engine = Engine::from_ast(
        tagged,
        SemanticsMode::Barany,
        Arc::new(Registry::standard()),
    )
    .expect("ok");
    let dual_table = dual_engine
        .eval()
        .exact()
        .worlds()
        .expect("ok")
        .table(&dual_engine.program().catalog);
    let agree_dual = new_table.len() == dual_table.len()
        && new_table
            .iter()
            .zip(&dual_table)
            .all(|((ta, pa), (tb, pb))| ta == tb && (pa - pb).abs() < 1e-12);
    println!(
        "  dual (tagging) simulation agrees exactly: {agree_dual} ({} worlds)",
        new_table.len()
    );
}

fn e7() {
    header(
        "E7",
        "Theorems 4.8/5.5 — probabilistic inputs (SPDB → SPDB)",
    );
    let engine = Engine::from_source(
        r#"
        rel Device(symbol, real) input.
        Fault(D, Flip<P>) :- Device(D, P).
        Alert(D) :- Fault(D, 1).
        "#,
        SemanticsMode::Grohe,
    )
    .expect("ok");
    let device = engine.program().catalog.require("Device").expect("ok");
    let alert = engine.program().catalog.require("Alert").expect("ok");
    let mut w1 = gdatalog_data::Instance::new();
    w1.insert(
        device,
        Tuple::from(vec![Value::sym("pump"), Value::real(0.5)]),
    );
    let mut w2 = w1.clone();
    w2.insert(
        device,
        Tuple::from(vec![Value::sym("valve"), Value::real(0.25)]),
    );
    let mut input = PossibleWorlds::new();
    input.add(w1, 0.6);
    input.add(w2, 0.4);
    let out = engine.eval().transform(&input).expect("ok");
    println!(
        "\n  input: 2 worlds (0.6 / 0.4); output mass {:.9}",
        out.mass()
    );
    println!("  {:<22} {:>12} {:>12}", "marginal", "analytic", "measured");
    let pump = Fact::new(alert, Tuple::from(vec![Value::sym("pump")]));
    let valve = Fact::new(alert, Tuple::from(vec![Value::sym("valve")]));
    println!(
        "  {:<22} {:>12} {:>12.6}",
        "P(Alert(pump))",
        0.5,
        out.marginal(&pump)
    );
    println!(
        "  {:<22} {:>12} {:>12.6}",
        "P(Alert(valve))",
        0.1,
        out.marginal(&valve)
    );
}

fn e8() {
    header("E8", "Figure 1 — chase-tree path census and DOT rendering");
    let engine = Engine::from_source(geometric_chain(), SemanticsMode::Grohe).expect("ok");
    let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
    let tree = build_chase_tree(
        engine.program(),
        &engine.program().initial_instance,
        &mut policy,
        ExactConfig {
            max_depth: 8,
            support_tol: 1e-6,
            min_path_prob: 1e-6,
            ..ExactConfig::default()
        },
    )
    .expect("discrete");
    println!("\n  nodes: {}", tree.nodes.len());
    println!(
        "  finite maximal paths (→ instances): {} carrying mass {:.6}",
        tree.leaves().count(),
        tree.terminated_mass()
    );
    println!(
        "  budget-cut paths (→ err):           {} carrying mass {:.6}",
        tree.cut_nodes().count(),
        tree.cut_mass()
    );
    println!(
        "  truncated support mass:             {:.6}",
        tree.truncated_mass
    );
    println!("\n  terminated mass by depth:");
    for (d, m) in tree.mass_by_depth() {
        let bar = "#".repeat((m * 60.0).round() as usize);
        println!("    depth {d:>2}: {m:.6} {bar}");
    }
    // A tiny tree rendered in full.
    let flip = Engine::from_source("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).expect("ok");
    let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
    let small = build_chase_tree(
        flip.program(),
        &flip.program().initial_instance,
        &mut policy,
        ExactConfig::default(),
    )
    .expect("ok");
    println!("\n  DOT rendering of the single-flip chase tree:\n");
    for line in small.to_dot(&flip.program().catalog).lines() {
        println!("    {line}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments: [(&str, fn()); 8] = [
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
    ];
    let known = |arg: &String| {
        experiments
            .iter()
            .any(|(id, _)| arg.eq_ignore_ascii_case(id))
    };
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        eprintln!("unknown experiment id `{unknown}`; available: e1..e8");
        std::process::exit(2);
    }
    for (id, f) in &experiments {
        if args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id)) {
            f();
        }
    }
    println!("\nAll requested experiments completed.");
}
