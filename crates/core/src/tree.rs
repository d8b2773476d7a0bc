//! Explicit chase trees (Def. 4.2 / Figure 1 of the paper) for discrete
//! programs: nodes labelled with instances, edges with the probabilities of
//! the chase-step measure, leaves marked as terminated or budget-cut.
//!
//! The tree is primarily a pedagogical/diagnostic artifact (the engine
//! proper enumerates without materializing it); it regenerates Figure 1's
//! picture — finite maximal paths mapping to instances, budget-cut paths
//! mapping to `err` — as a path census and a DOT rendering.

use std::rc::Rc;

use gdatalog_data::{Catalog, Instance};
use gdatalog_lang::CompiledProgram;

use crate::applicability::PreparedProgram;
use crate::exact::{branch_fact, existential_branches, ExactConfig, Frame};
use crate::policy::ChasePolicy;
use crate::EngineError;
use gdatalog_lang::RuleKind;

/// One node of a chase tree.
#[derive(Debug, Clone)]
pub struct ChaseNode {
    /// The instance labelling the node.
    pub instance: Instance,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Probability of the path from the root to this node.
    pub path_probability: f64,
    /// Child node indices with their one-step probabilities.
    pub children: Vec<(usize, f64)>,
    /// Which rule fired *at this node* (`None` for leaves).
    pub fired_rule: Option<usize>,
    /// Depth (steps from the root).
    pub depth: usize,
    /// Whether this node is a leaf because no rule is applicable
    /// (a finite maximal path — maps to an instance under `lim-inst`).
    pub terminated: bool,
    /// Whether this node is a leaf because the depth budget was hit
    /// (maps to `err`).
    pub cut: bool,
}

/// An explicit (sequential) chase tree.
#[derive(Debug, Clone)]
pub struct ChaseTree {
    /// Nodes in creation order; node 0 is the root.
    pub nodes: Vec<ChaseNode>,
    /// Probability mass truncated from infinite supports during expansion.
    pub truncated_mass: f64,
}

impl ChaseTree {
    /// Terminated leaves (finite maximal paths).
    pub fn leaves(&self) -> impl Iterator<Item = &ChaseNode> {
        self.nodes.iter().filter(|n| n.terminated)
    }

    /// Budget-cut leaves (the `err` mass).
    pub fn cut_nodes(&self) -> impl Iterator<Item = &ChaseNode> {
        self.nodes.iter().filter(|n| n.cut)
    }

    /// Total probability mass of terminated leaves.
    pub fn terminated_mass(&self) -> f64 {
        self.leaves().map(|n| n.path_probability).sum()
    }

    /// Total probability mass of budget-cut paths.
    pub fn cut_mass(&self) -> f64 {
        self.cut_nodes().map(|n| n.path_probability).sum()
    }

    /// Mass of terminated leaves at each depth — the "path census" used to
    /// regenerate Figure 1 quantitatively (experiment E8).
    pub fn mass_by_depth(&self) -> Vec<(usize, f64)> {
        let mut by_depth: Vec<(usize, f64)> = Vec::new();
        for n in self.leaves() {
            match by_depth.iter_mut().find(|(d, _)| *d == n.depth) {
                Some((_, m)) => *m += n.path_probability,
                None => by_depth.push((n.depth, n.path_probability)),
            }
        }
        by_depth.sort_by_key(|&(d, _)| d);
        by_depth
    }

    /// Renders the tree in Graphviz DOT format. Node labels show the fact
    /// count and path probability; terminated leaves are doubly circled,
    /// cut leaves are drawn dashed (they correspond to `err`).
    pub fn to_dot(&self, catalog: &Catalog) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph chase {\n  rankdir=TB;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.terminated {
                "doublecircle"
            } else if n.cut {
                "box"
            } else {
                "circle"
            };
            let style = if n.cut { ", style=dashed" } else { "" };
            let label = if n.instance.len() <= 4 {
                gdatalog_data::canonical_text(&n.instance, catalog)
                    .trim_end()
                    .replace('\n', "\\n")
            } else {
                format!("{} facts", n.instance.len())
            };
            let _ = writeln!(
                out,
                "  n{i} [shape={shape}{style}, label=\"{label}\\np={:.4}\"];",
                n.path_probability
            );
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for (c, p) in &n.children {
                let _ = writeln!(out, "  n{i} -> n{c} [label=\"{p:.4}\"];");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Builds the explicit sequential chase tree of a **discrete** program
/// under `policy`, cutting paths at `config.max_depth`.
///
/// # Errors
/// [`EngineError::NotDiscrete`] for continuous programs.
pub fn build_chase_tree(
    program: &CompiledProgram,
    input: &Instance,
    policy: &mut ChasePolicy,
    config: ExactConfig,
) -> Result<ChaseTree, EngineError> {
    if !program.all_discrete() {
        return Err(EngineError::NotDiscrete(
            "chase trees are materialized for discrete programs only".to_string(),
        ));
    }
    let mut tree = ChaseTree {
        nodes: vec![ChaseNode {
            instance: Instance::new(),
            parent: None,
            path_probability: 1.0,
            children: Vec::new(),
            fired_rule: None,
            depth: 0,
            terminated: false,
            cut: false,
        }],
        truncated_mass: 0.0,
    };
    let prepared = PreparedProgram::new(program);
    // Frontier entries pair a node with the frame its state comes from
    // (the parent's state plus the fired fact); a node's instance is
    // filled in when it is popped.
    let mut frontier = vec![(0usize, Frame::root(&prepared, program, input))];
    while let Some((ix, frame)) = frontier.pop() {
        let (p, depth) = (frame.p, frame.depth);
        let mut state = frame.into_state(&prepared);
        let app = state.app(&prepared, program);
        if app.is_empty() {
            tree.nodes[ix].terminated = true;
            tree.nodes[ix].instance = state.into_instance();
            continue;
        }
        if depth >= config.max_depth || (config.min_path_prob > 0.0 && p < config.min_path_prob) {
            tree.nodes[ix].cut = true;
            tree.nodes[ix].instance = state.into_instance();
            continue;
        }
        let pair = app[policy.select(app)].clone();
        tree.nodes[ix].fired_rule = Some(pair.rule);
        tree.nodes[ix].instance = state.instance().clone();
        let branches: Vec<(Vec<gdatalog_data::Value>, f64)> = match &program.rules[pair.rule].kind {
            RuleKind::Deterministic { .. } => vec![(Vec::new(), 1.0)],
            RuleKind::Existential(_) => {
                let (bs, truncated) = existential_branches(program, &pair, config.support_tol)?;
                tree.truncated_mass += p * truncated;
                bs
            }
        };
        let parent = Rc::new(state);
        for (outcomes, q) in branches {
            let cix = tree.nodes.len();
            tree.nodes.push(ChaseNode {
                instance: Instance::new(),
                parent: Some(ix),
                path_probability: p * q,
                children: Vec::new(),
                fired_rule: None,
                depth: depth + 1,
                terminated: false,
                cut: false,
            });
            tree.nodes[ix].children.push((cix, q));
            let frame = Frame {
                parent: Rc::clone(&parent),
                fired: vec![branch_fact(program, &pair, &outcomes)],
                p: p * q,
                depth: depth + 1,
            };
            frontier.push((cix, frame));
        }
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    fn tree_of(src: &str, max_depth: usize) -> (CompiledProgram, ChaseTree) {
        let prog = compile(src);
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let cfg = ExactConfig {
            max_depth,
            ..ExactConfig::default()
        };
        let tree = build_chase_tree(&prog, &prog.initial_instance, &mut policy, cfg).unwrap();
        (prog, tree)
    }

    #[test]
    fn single_flip_tree_shape() {
        let (_, tree) = tree_of("R(Flip<0.5>) :- true.", 100);
        // Root → 2 sampling children → each gets a delivery child.
        assert_eq!(tree.nodes.len(), 5);
        assert_eq!(tree.leaves().count(), 2);
        assert!((tree.terminated_mass() - 1.0).abs() < 1e-12);
        assert_eq!(tree.cut_mass(), 0.0);
        // Leaves sit at depth 2.
        assert_eq!(tree.mass_by_depth(), vec![(2, 1.0)]);
    }

    #[test]
    fn two_flips_tree_has_four_leaves() {
        let (_, tree) = tree_of("R(Flip<0.5>) :- true. S(Flip<0.5>) :- true.", 100);
        assert_eq!(tree.leaves().count(), 4);
        assert!((tree.terminated_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_cut_paths_are_err_mass() {
        let (_, tree) = tree_of(
            r#"
            G(0).
            G(Geometric<0.5 | X>) :- G(X).
        "#,
            4,
        );
        assert!(tree.cut_mass() > 0.0, "cut mass must be positive");
        let total = tree.terminated_mass() + tree.cut_mass() + tree.truncated_mass;
        assert!((total - 1.0).abs() < 1e-6, "mass accounting: {total}");
    }

    #[test]
    fn dot_rendering_mentions_all_nodes() {
        let (prog, tree) = tree_of("R(Flip<0.5>) :- true.", 100);
        let dot = tree.to_dot(&prog.catalog);
        assert!(dot.starts_with("digraph chase {"));
        assert_eq!(dot.matches("doublecircle").count(), 2);
        assert!(dot.contains("->"));
    }

    #[test]
    fn continuous_program_rejected() {
        let prog = compile("X(Normal<0.0, 1.0>) :- true.");
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        assert!(build_chase_tree(
            &prog,
            &prog.initial_instance,
            &mut policy,
            ExactConfig::default()
        )
        .is_err());
    }
}
