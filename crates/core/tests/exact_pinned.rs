//! Pinned exact results: the world tables, deficits and chase trees below
//! were recorded from the enumerators as they stood before the node
//! expansion was shared between `exact`, `tree` and `kernel`. Each table is
//! summarized by its world count, an FNV-1a digest of every world's
//! canonical text and probability bits (sorted by text), and the bits of
//! both deficits; each tree by its census and a digest of every node in
//! creation order. Any change to a probability's last bit, a world, a
//! deficit or the tree's node order shows here.

use gdatalog_core::{
    build_chase_tree, enumerate_parallel, enumerate_sequential, ChasePolicy, ChaseTree, Engine,
    ExactConfig, PolicyKind,
};
use gdatalog_data::canonical_text;
use gdatalog_lang::SemanticsMode;
use gdatalog_pdb::PossibleWorlds;

const G0: &str = "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.";

const BURGLARY: &str = r#"
    rel City(symbol, real) input.
    rel House(symbol, symbol) input.
    City(gotham, 0.3).
    House(h1, gotham).
    Earthquake(C, Flip<0.1>) :- City(C, R).
    Unit(H, C) :- House(H, C).
    Burglary(X, C, Flip<R>) :- Unit(X, C), City(C, R).
    Trig(X, Flip<0.6>) :- Unit(X, C), Earthquake(C, 1).
    Trig(X, Flip<0.9>) :- Burglary(X, C, 1).
    Alarm(X) :- Trig(X, 1).
"#;

const GEOMETRIC: &str = "N(Geometric<0.5>) :- true.";

const TAGGED_CHAIN: &str = "G(0).\nG(Geometric<0.5 | X>) :- G(X).\n";

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn table_line(name: &str, engine: &Engine, worlds: &PossibleWorlds) -> String {
    let mut rows: Vec<(String, u64)> = worlds
        .iter()
        .map(|(w, p)| (canonical_text(w, &engine.program().catalog), p.to_bits()))
        .collect();
    rows.sort();
    let mut h = Fnv::new();
    for (text, bits) in &rows {
        h.bytes(text.as_bytes());
        h.bytes(&[0xff]);
        h.u64(*bits);
    }
    let deficit = worlds.deficit();
    format!(
        "{name}: worlds {} digest {:016x} nontermination {:016x} truncation {:016x}",
        rows.len(),
        h.0,
        deficit.nontermination.to_bits(),
        deficit.truncation.to_bits()
    )
}

fn tree_line(name: &str, engine: &Engine, tree: &ChaseTree) -> String {
    let mut h = Fnv::new();
    for node in &tree.nodes {
        h.bytes(canonical_text(&node.instance, &engine.program().catalog).as_bytes());
        h.u64(node.parent.map_or(u64::MAX, |p| p as u64));
        h.u64(node.path_probability.to_bits());
        h.u64(node.fired_rule.map_or(u64::MAX, |r| r as u64));
        h.u64(node.depth as u64);
        h.bytes(&[u8::from(node.terminated), u8::from(node.cut)]);
        for &(child, q) in &node.children {
            h.u64(child as u64);
            h.u64(q.to_bits());
        }
    }
    format!(
        "{name}: nodes {} leaves {} cuts {} terminated {:016x} cut {:016x} truncated {:016x} digest {:016x}",
        tree.nodes.len(),
        tree.leaves().count(),
        tree.cut_nodes().count(),
        tree.terminated_mass().to_bits(),
        tree.cut_mass().to_bits(),
        tree.truncated_mass.to_bits(),
        h.0
    )
}

/// Every pinned table under Canonical and Reverse sequential enumeration
/// and parallel enumeration.
fn table_lines(name: &str, src: &str, mode: SemanticsMode, config: ExactConfig) -> Vec<String> {
    let engine = Engine::from_source(src, mode).expect("compiles");
    let program = engine.program();
    let existential: Vec<usize> = program
        .rules
        .iter()
        .filter(|r| r.is_existential())
        .map(|r| r.id)
        .collect();
    let mut lines = Vec::new();
    for (policy, kind) in [
        ("canonical", PolicyKind::Canonical),
        ("reverse", PolicyKind::Reverse),
    ] {
        let mut policy_state = ChasePolicy::new(kind, &existential);
        let worlds = enumerate_sequential(
            program,
            &program.initial_instance,
            &mut policy_state,
            config,
        )
        .expect("discrete");
        lines.push(table_line(&format!("{name} {policy}"), &engine, &worlds));
    }
    let worlds = enumerate_parallel(program, &program.initial_instance, config).expect("discrete");
    lines.push(table_line(&format!("{name} parallel"), &engine, &worlds));
    lines
}

fn tree_of(name: &str, src: &str, config: ExactConfig) -> String {
    let engine = Engine::from_source(src, SemanticsMode::Grohe).expect("compiles");
    let program = engine.program();
    let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
    let tree = build_chase_tree(program, &program.initial_instance, &mut policy, config)
        .expect("discrete");
    tree_line(name, &engine, &tree)
}

#[test]
fn exact_tables_and_trees_match_the_recorded_digests() {
    let default = ExactConfig::default();
    let mut actual = Vec::new();
    actual.extend(table_lines("g0 grohe", G0, SemanticsMode::Grohe, default));
    actual.extend(table_lines("g0 barany", G0, SemanticsMode::Barany, default));
    actual.extend(table_lines(
        "burglary",
        BURGLARY,
        SemanticsMode::Grohe,
        default,
    ));
    actual.extend(table_lines(
        "geometric",
        GEOMETRIC,
        SemanticsMode::Grohe,
        ExactConfig {
            support_tol: 1e-4,
            ..default
        },
    ));
    actual.extend(table_lines(
        "tagged chain",
        TAGGED_CHAIN,
        SemanticsMode::Grohe,
        ExactConfig {
            max_depth: 6,
            support_tol: 1e-6,
            ..default
        },
    ));
    // Experiment E8's census of Figure 1.
    actual.push(tree_of(
        "e8 tree",
        TAGGED_CHAIN,
        ExactConfig {
            max_depth: 8,
            support_tol: 1e-6,
            min_path_prob: 1e-6,
            ..default
        },
    ));
    actual.push(tree_of(
        "single flip tree",
        "R(Flip<0.5>) :- true.",
        default,
    ));
    let expected = [
        "g0 grohe canonical: worlds 4 digest 2acc58c7a11c6980 nontermination 0000000000000000 truncation 0000000000000000",
        "g0 grohe reverse: worlds 4 digest 2acc58c7a11c6980 nontermination 0000000000000000 truncation 0000000000000000",
        "g0 grohe parallel: worlds 4 digest 2acc58c7a11c6980 nontermination 0000000000000000 truncation 0000000000000000",
        "g0 barany canonical: worlds 2 digest 7aaa473a18b7e81d nontermination 0000000000000000 truncation 0000000000000000",
        "g0 barany reverse: worlds 2 digest 7aaa473a18b7e81d nontermination 0000000000000000 truncation 0000000000000000",
        "g0 barany parallel: worlds 2 digest 7aaa473a18b7e81d nontermination 0000000000000000 truncation 0000000000000000",
        "burglary canonical: worlds 9 digest 6a3457c16fbfb101 nontermination 0000000000000000 truncation 0000000000000000",
        "burglary reverse: worlds 9 digest 51891921e231777e nontermination 0000000000000000 truncation 0000000000000000",
        "burglary parallel: worlds 9 digest 6a3457c16fbfb101 nontermination 0000000000000000 truncation 0000000000000000",
        "geometric canonical: worlds 14 digest 28e3e49aa65c82e5 nontermination 0000000000000000 truncation 3f10000000000000",
        "geometric reverse: worlds 14 digest 28e3e49aa65c82e5 nontermination 0000000000000000 truncation 3f10000000000000",
        "geometric parallel: worlds 14 digest 28e3e49aa65c82e5 nontermination 0000000000000000 truncation 3f10000000000000",
        "tagged chain canonical: worlds 1065 digest 29c90f184a77f66a nontermination 3fa24914924d2492 truncation 3ebaaaa8aaaac000",
        "tagged chain reverse: worlds 1065 digest 29c90f184a77f66a nontermination 3fa24914924d2492 truncation 3ebaaaa8aaaac000",
        "tagged chain parallel: worlds 1065 digest 29c90f184a77f66a nontermination 3fa24914924d2492 truncation 3ebaaaa8aaaac000",
        "e8 tree: nodes 11961 leaves 2029 cuts 8403 terminated 3fefd7a8fff68000 cut 3f7429cc45e00000 truncated 3ebb3bee00000000 digest e11ddac2a358e43d",
        "single flip tree: nodes 5 leaves 2 cuts 0 terminated 3ff0000000000000 cut 8000000000000000 truncated 0000000000000000 digest a7708ba9cfc3b1a8",
    ];
    assert_eq!(actual, expected);
}
