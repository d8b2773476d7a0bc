//! Exact chase-tree enumeration for discrete programs: computes the
//! push-forward measure of the chase Markov process along `lim-inst`
//! (§4.2/§4.3) **exactly**, as a finite [`PossibleWorlds`] table.
//!
//! * Finite-support distributions (Flip, Categorical, …) enumerate
//!   completely; countably-infinite ones (Poisson, Geometric) are truncated
//!   at tail mass `support_tol`, and the truncated mass is tracked as the
//!   `truncation` component of the SPDB deficit.
//! * Paths longer than `max_depth` contribute their probability to the
//!   `nontermination` deficit — the measure of the `err` outcome of §4.2.
//! * Both the sequential chase (with an arbitrary policy, Def. 4.2) and the
//!   parallel chase (Def. 5.2) are supported; Theorem 6.1/6.2 — which this
//!   suite verifies rather than assumes — says they all yield the same
//!   world table.
//!
//! The two chase trees differ only in how a node branches, so one node
//! expansion (`expand`) serves both: the sequential rule fires the pair
//! its policy selects, the parallel rule fires every applicable pair at
//! once, sampling each distinct experiment once (see [`crate::parallel`]).
//! One depth-first walk (`walk`) drives the expansion from the root and
//! folds every node into a `TreeFold`: the world table here, the explicit
//! [`crate::tree::ChaseTree`] in [`crate::tree`]. The step kernels of
//! [`crate::kernel`] expand a single node.

use std::collections::HashSet;
use std::rc::Rc;

use gdatalog_data::{Fact, Instance, Tuple};
use gdatalog_lang::{CompiledProgram, RuleKind};
use gdatalog_pdb::PossibleWorlds;

use crate::applicability::{eval_terms, head_fact, AppPair, ChaseState, PreparedProgram};
use crate::parallel::fires_in_round;
use crate::policy::ChasePolicy;
use crate::EngineError;

/// Configuration for exact enumeration.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Maximum chase steps along any path (sequential) or rounds
    /// (parallel); deeper paths are charged to the non-termination deficit.
    pub max_depth: usize,
    /// Tail mass at which countably-infinite supports are truncated.
    pub support_tol: f64,
    /// Paths whose probability falls below this threshold are pruned into
    /// the non-termination deficit (0 disables pruning).
    pub min_path_prob: f64,
    /// Cooperative cancellation: checked between enumeration nodes, so a
    /// serving layer can bound request latency. `None` never cancels.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_depth: 10_000,
            support_tol: 1e-9,
            min_path_prob: 0.0,
            deadline: None,
        }
    }
}

/// Returns [`EngineError::DeadlineExceeded`] once `deadline` has passed.
/// The chase loops call this between bounded units of work (enumeration
/// nodes, Monte-Carlo runs), which keeps cancellation cooperative — no
/// state is left half-mutated — while bounding the overage to one unit.
pub(crate) fn check_deadline(deadline: Option<std::time::Instant>) -> Result<(), EngineError> {
    match deadline {
        Some(d) if std::time::Instant::now() >= d => Err(EngineError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// The branches of firing `pair`: each fact it may insert (the head of a
/// deterministic rule, or the auxiliary experiment fact — key, then one
/// combination of outcomes of the samples) with its probability, plus the
/// mass truncated from infinite supports.
#[allow(clippy::type_complexity)]
fn pair_branches(
    program: &CompiledProgram,
    pair: &AppPair,
    tol: f64,
) -> Result<(Vec<(Fact, f64)>, f64), EngineError> {
    let e = match &program.rules[pair.rule].kind {
        RuleKind::Deterministic { head } => {
            return Ok((vec![(head_fact(head, &pair.valuation), 1.0)], 0.0));
        }
        RuleKind::Existential(e) => e,
    };
    let mut combos = vec![(eval_terms(&e.key_terms, &pair.valuation), 1.0)];
    let mut tabulated = 1.0;
    for spec in &e.samples {
        let params = eval_terms(&spec.param_terms, &pair.valuation);
        let support = spec
            .dist
            .enumerate(&params, tol)
            .map_err(EngineError::Dist)?;
        tabulated *= support.tabulated_mass();
        let mut next = Vec::with_capacity(combos.len() * support.outcomes.len());
        for (prefix, p) in &combos {
            for (v, q) in &support.outcomes {
                let mut ext = prefix.clone();
                ext.push(v.clone());
                next.push((ext, p * q));
            }
        }
        combos = next;
    }
    let facts = combos
        .into_iter()
        .map(|(values, p)| (Fact::new(e.aux_rel, Tuple::from(values)), p))
        .collect();
    Ok((facts, (1.0 - tabulated).max(0.0)))
}

/// How a node of a chase tree branches, and a chase steps.
pub(crate) enum Branching<'a> {
    /// The sequential chase tree (Def. 4.2): the pair the policy selects
    /// fires.
    Sequential(&'a mut ChasePolicy),
    /// The parallel chase tree (Def. 5.2): every applicable pair fires,
    /// each distinct experiment sampled once.
    Parallel,
}

impl Branching<'_> {
    /// Calls `fire` on each pair of the non-empty `app` that fires at a
    /// node, in firing order: the pair the policy selects, or every pair
    /// of a parallel round but a repeated experiment (see
    /// [`crate::parallel`]). The one selection of every chase: the tree
    /// walk here, and each driver of [`crate::sequential::Chase`].
    pub(crate) fn select<'a>(
        &mut self,
        program: &CompiledProgram,
        app: &'a [AppPair],
        mut fire: impl FnMut(&'a AppPair),
    ) {
        match self {
            Branching::Sequential(policy) => fire(&app[policy.select(app)]),
            Branching::Parallel => {
                let mut sampled = HashSet::new();
                for pair in app {
                    if fires_in_round(&mut sampled, &program.rules[pair.rule], &pair.valuation) {
                        fire(pair);
                    }
                }
            }
        }
    }
}

/// One expanded node of a chase tree.
pub(crate) struct Expansion {
    /// Each child's fired facts, in firing order, with its one-step
    /// probability.
    pub(crate) children: Vec<(Vec<Fact>, f64)>,
    /// One-step mass lost to truncating infinite supports.
    pub(crate) truncated: f64,
    /// The rule that fired (sequential branching only).
    pub(crate) rule: Option<usize>,
}

/// Expands a node whose `App(D)` is the non-empty `app`: the children are
/// the product of the outcome combinations of every pair that fires.
///
/// # Errors
/// [`EngineError::Dist`] when a distribution's parameters are invalid or
/// its support cannot be enumerated.
pub(crate) fn expand(
    program: &CompiledProgram,
    app: &[AppPair],
    branching: &mut Branching<'_>,
    tol: f64,
) -> Result<Expansion, EngineError> {
    let mut fires = Vec::new();
    branching.select(program, app, |pair| fires.push(pair));
    let rule = match branching {
        Branching::Sequential(_) => Some(fires[0].rule),
        Branching::Parallel => None,
    };
    let mut children: Vec<(Vec<Fact>, f64)> = vec![(Vec::new(), 1.0)];
    let mut truncated = 0.0;
    for pair in fires {
        let (branches, lost) = pair_branches(program, pair, tol)?;
        if lost > 0.0 {
            // Truncated mass applies to every partial product.
            truncated += children.iter().map(|(_, q)| q).sum::<f64>() * lost;
        }
        if let [(fact, b)] = &branches[..] {
            // One branch (a deterministic pair): extend in place, no copy.
            for (facts, q) in &mut children {
                facts.push(fact.clone());
                *q *= b;
            }
            continue;
        }
        let mut next = Vec::with_capacity(children.len() * branches.len());
        for (facts, q) in &children {
            for (fact, b) in &branches {
                let mut ext = facts.clone();
                ext.push(fact.clone());
                next.push((ext, q * b));
            }
        }
        children = next;
    }
    Ok(Expansion {
        children,
        truncated,
        rule,
    })
}

/// What a walk of a chase tree folds its nodes into: the world table, or
/// the explicit [`crate::tree::ChaseTree`].
pub(crate) trait TreeFold {
    /// A handle on a node waiting to be visited.
    type Node;

    /// Opens the node reached from `parent` (`None` at the root) by a step
    /// of probability `q`, with path probability `p`; `None` leaves the
    /// node and its subtree unvisited.
    fn open(&mut self, parent: Option<&Self::Node>, q: f64, p: f64) -> Option<Self::Node>;

    /// A node that branches: `rule` fired (sequential trees only) and path
    /// mass `lost` went to support truncation.
    fn branch(&mut self, node: &Self::Node, instance: &Instance, rule: Option<usize>, lost: f64);

    /// A leaf with path probability `p`: `terminated` when `App(D)` is
    /// empty (a finite maximal path), otherwise cut by the depth budget or
    /// `min_path_prob` (the `err` outcome).
    fn leaf(&mut self, node: Self::Node, instance: Instance, p: f64, terminated: bool);
}

impl TreeFold for PossibleWorlds {
    type Node = ();

    fn open(&mut self, _: Option<&()>, _: f64, p: f64) -> Option<()> {
        // A zero-mass path adds nothing to the table.
        (p != 0.0).then_some(())
    }

    fn branch(&mut self, _: &(), _: &Instance, _: Option<usize>, lost: f64) {
        self.add_truncation(lost);
    }

    fn leaf(&mut self, _: (), instance: Instance, p: f64, terminated: bool) {
        if terminated {
            self.add(instance, p);
        } else {
            self.add_nontermination(p);
        }
    }
}

/// Walks the chase tree of `program` on `input` depth first, branching
/// every node by `branching`, and folds the nodes into `fold`.
///
/// At every node the deadline is checked, then `App(D) = ∅` (a terminated
/// leaf) before the depth budget and `min_path_prob` (a cut leaf), so a
/// path absorbing exactly at the budget terminates.
///
/// # Errors
/// [`EngineError::NotDiscrete`] naming the first continuous family,
/// [`EngineError::DeadlineExceeded`] once `config.deadline` passes, and
/// [`EngineError::Dist`] from [`expand`].
pub(crate) fn walk<F: TreeFold>(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    mut branching: Branching<'_>,
    config: ExactConfig,
    mut fold: F,
) -> Result<F, EngineError> {
    require_discrete(program)?;
    let mut stack = Vec::new();
    if let Some(node) = fold.open(None, 1.0, 1.0) {
        let root = Rc::new(ChaseState::new(prepared, program, input.clone()));
        stack.push(Frame::new(node, root, Vec::new(), 1.0, 0));
    }
    while let Some(frame) = stack.pop() {
        check_deadline(config.deadline)?;
        let (node, p, depth) = (frame.node, frame.p, frame.depth);
        let mut state = Rc::try_unwrap(frame.parent).unwrap_or_else(|rc| (*rc).clone());
        for fact in frame.fired {
            state.insert(prepared, fact.rel, fact.tuple);
        }
        let app = state.app(prepared, program);
        if app.is_empty() {
            fold.leaf(node, state.into_instance(), p, true);
            continue;
        }
        if depth >= config.max_depth || (config.min_path_prob > 0.0 && p < config.min_path_prob) {
            fold.leaf(node, state.into_instance(), p, false);
            continue;
        }
        let Expansion {
            children,
            truncated,
            rule,
        } = expand(program, app, &mut branching, config.support_tol)?;
        fold.branch(&node, state.instance(), rule, p * truncated);
        let parent = Rc::new(state);
        for (fired, q) in children {
            if let Some(child) = fold.open(Some(&node), q, p * q) {
                stack.push(Frame::new(
                    child,
                    Rc::clone(&parent),
                    fired,
                    p * q,
                    depth + 1,
                ));
            }
        }
    }
    Ok(fold)
}

/// One pending node of a walk: its parent's chase state and the facts the
/// branch into it fired. The node's state is materialized when it is
/// popped — the last sibling popped takes the parent's state without a
/// copy.
struct Frame<N> {
    node: N,
    parent: Rc<ChaseState>,
    fired: Vec<Fact>,
    p: f64,
    depth: usize,
}

impl<N> Frame<N> {
    fn new(node: N, parent: Rc<ChaseState>, fired: Vec<Fact>, p: f64, depth: usize) -> Self {
        Frame {
            node,
            parent,
            fired,
            p,
            depth,
        }
    }
}

/// Exact **sequential** enumeration under an arbitrary chase policy.
///
/// # Errors
/// [`EngineError::NotDiscrete`] if the program uses a continuous
/// distribution; [`EngineError::Dist`] on runtime parameter failures.
pub fn enumerate_sequential(
    program: &CompiledProgram,
    input: &Instance,
    policy: &mut ChasePolicy,
    config: ExactConfig,
) -> Result<PossibleWorlds, EngineError> {
    let prepared = PreparedProgram::new(program);
    let branching = Branching::Sequential(policy);
    walk(
        program,
        &prepared,
        input,
        branching,
        config,
        PossibleWorlds::new(),
    )
}

/// Exact **parallel** enumeration (Def. 5.2): at every node all applicable
/// pairs fire; branches are the product of all their outcome combinations.
/// Shared experiments (Bárány translation) are grouped by key and sampled
/// once, as in [`crate::parallel`].
///
/// # Errors
/// Same as [`enumerate_sequential`].
pub fn enumerate_parallel(
    program: &CompiledProgram,
    input: &Instance,
    config: ExactConfig,
) -> Result<PossibleWorlds, EngineError> {
    let prepared = PreparedProgram::new(program);
    let branching = Branching::Parallel;
    walk(
        program,
        &prepared,
        input,
        branching,
        config,
        PossibleWorlds::new(),
    )
}

/// [`EngineError::NotDiscrete`] naming the program's first continuous
/// family, if it has one.
pub(crate) fn require_discrete(program: &CompiledProgram) -> Result<(), EngineError> {
    let continuous = program
        .rules
        .iter()
        .filter_map(|r| match &r.kind {
            RuleKind::Existential(e) => e.samples.iter().find(|s| !s.dist.is_discrete()),
            RuleKind::Deterministic { .. } => None,
        })
        .next();
    match continuous {
        Some(spec) => Err(EngineError::NotDiscrete(spec.dist.name().to_string())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use gdatalog_data::Fact;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use std::sync::Arc;

    fn compile(src: &str, mode: SemanticsMode) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, mode).unwrap()
    }

    fn enumerate(prog: &CompiledProgram) -> PossibleWorlds {
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        enumerate_sequential(
            prog,
            &prog.initial_instance,
            &mut policy,
            ExactConfig::default(),
        )
        .unwrap()
        // Compare on the output schema.
        .map(|d| prog.project_output(d))
    }

    /// Example 1.1, program G0, our semantics: {R(1)}: 1/4, {R(0)}: 1/4,
    /// {R(0), R(1)}: 1/2.
    #[test]
    fn example_1_1_g0_new_semantics() {
        let prog = compile(
            "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
            SemanticsMode::Grohe,
        );
        let worlds = enumerate(&prog);
        assert!(worlds.mass_is_consistent(1e-12));
        let r = prog.catalog.require("R").unwrap();
        let one = Fact::new(r, gdatalog_data::tuple![1i64]);
        let zero = Fact::new(r, gdatalog_data::tuple![0i64]);
        let p_only_one =
            worlds.probability(|d| d.contains(r, &one.tuple) && !d.contains(r, &zero.tuple));
        let p_only_zero =
            worlds.probability(|d| d.contains(r, &zero.tuple) && !d.contains(r, &one.tuple));
        let p_both =
            worlds.probability(|d| d.contains(r, &zero.tuple) && d.contains(r, &one.tuple));
        assert!((p_only_one - 0.25).abs() < 1e-12, "{p_only_one}");
        assert!((p_only_zero - 0.25).abs() < 1e-12, "{p_only_zero}");
        assert!((p_both - 0.5).abs() < 1e-12, "{p_both}");
    }

    /// Example 1.1, program G0, Bárány semantics: {R(1)}: 1/2, {R(0)}: 1/2.
    #[test]
    fn example_1_1_g0_barany_semantics() {
        let prog = compile(
            "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
            SemanticsMode::Barany,
        );
        let worlds = enumerate(&prog);
        assert!(worlds.mass_is_consistent(1e-12));
        assert_eq!(worlds.len(), 2, "only the two singleton worlds");
        let r = prog.catalog.require("R").unwrap();
        let p_one = worlds.probability(|d| d.contains(r, &gdatalog_data::tuple![1i64]));
        assert!((p_one - 0.5).abs() < 1e-12);
    }

    /// Example 1.1, program G′0 (renamed distribution): under Bárány
    /// semantics the rename decorrelates the rules (4 outcomes), under ours
    /// it changes nothing vs. G0.
    #[test]
    fn example_1_1_g0_prime() {
        let src = "R(Flip<0.5>) :- true. R(Bernoulli<0.5>) :- true.";
        let grohe = enumerate(&compile(src, SemanticsMode::Grohe));
        assert_eq!(grohe.len(), 3);
        let barany = enumerate(&compile(src, SemanticsMode::Barany));
        assert_eq!(barany.len(), 3, "renaming decorrelates under Bárány");
        let p_both = barany.probability(|d| d.len() == 2);
        assert!((p_both - 0.5).abs() < 1e-12);
    }

    /// Sequential policies and the parallel chase agree exactly
    /// (Theorem 6.1).
    #[test]
    fn chase_independence_small() {
        let src = r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            Earthquake(C, Flip<0.1>) :- City(C, R).
            Trig(C, Flip<0.6>) :- Earthquake(C, 1).
            Alarm(C) :- Trig(C, 1).
        "#;
        let prog = compile(src, SemanticsMode::Grohe);
        let reference = enumerate(&prog);
        for kind in [
            PolicyKind::Reverse,
            PolicyKind::RoundRobin,
            PolicyKind::Random { seed: 11 },
            PolicyKind::DeterministicFirst,
        ] {
            let existential: Vec<usize> = prog
                .rules
                .iter()
                .filter(|r| r.is_existential())
                .map(|r| r.id)
                .collect();
            let mut policy = ChasePolicy::new(kind, &existential);
            let worlds = enumerate_sequential(
                &prog,
                &prog.initial_instance,
                &mut policy,
                ExactConfig::default(),
            )
            .unwrap()
            .map(|d| prog.project_output(d));
            assert!(
                reference.total_variation(&worlds) < 1e-12,
                "policy {kind:?} disagrees"
            );
        }
        let par = enumerate_parallel(&prog, &prog.initial_instance, ExactConfig::default())
            .unwrap()
            .map(|d| prog.project_output(d));
        assert!(
            reference.total_variation(&par) < 1e-12,
            "parallel disagrees"
        );
    }

    /// Truncation accounting: a Geometric support is infinite, the deficit
    /// must absorb exactly the truncated tail.
    #[test]
    fn truncation_deficit_tracked() {
        let prog = compile("N(Geometric<0.5>) :- true.", SemanticsMode::Grohe);
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let cfg = ExactConfig {
            support_tol: 1e-4,
            ..ExactConfig::default()
        };
        let worlds = enumerate_sequential(&prog, &prog.initial_instance, &mut policy, cfg).unwrap();
        assert!(worlds.deficit().truncation > 0.0);
        assert!(worlds.deficit().truncation <= 1e-4 + 1e-9);
        assert!(worlds.mass_is_consistent(1e-9));
    }

    /// Non-termination deficit: the tagged geometric chain is not weakly
    /// acyclic; with a tiny depth budget some mass must be charged to
    /// non-termination, and the total mass must stay consistent.
    #[test]
    fn nontermination_deficit_tracked() {
        let prog = compile(
            r#"
            G(0).
            G(Geometric<0.5 | X>) :- G(X).
        "#,
            SemanticsMode::Grohe,
        );
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let cfg = ExactConfig {
            max_depth: 6,
            support_tol: 1e-6,
            ..ExactConfig::default()
        };
        let worlds = enumerate_sequential(&prog, &prog.initial_instance, &mut policy, cfg).unwrap();
        assert!(worlds.deficit().nontermination > 0.0);
        assert!(worlds.mass_is_consistent(1e-6));
    }

    /// An already-elapsed deadline cancels enumeration cooperatively.
    #[test]
    fn elapsed_deadline_cancels_enumeration() {
        let prog = compile("R(Flip<0.5>) :- true.", SemanticsMode::Grohe);
        let cfg = ExactConfig {
            deadline: Some(std::time::Instant::now()),
            ..ExactConfig::default()
        };
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let err =
            enumerate_sequential(&prog, &prog.initial_instance, &mut policy, cfg).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded));
        let err = enumerate_parallel(&prog, &prog.initial_instance, cfg).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded));
    }

    /// A generous deadline does not perturb results.
    #[test]
    fn future_deadline_is_inert() {
        let prog = compile("R(Flip<0.5>) :- true.", SemanticsMode::Grohe);
        let cfg = ExactConfig {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..ExactConfig::default()
        };
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let worlds = enumerate_sequential(&prog, &prog.initial_instance, &mut policy, cfg).unwrap();
        assert_eq!(worlds.len(), 2);
    }

    /// Continuous programs are rejected with a helpful error.
    #[test]
    fn continuous_program_rejected() {
        let prog = compile("X(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe);
        let mut policy = ChasePolicy::new(PolicyKind::Canonical, &[]);
        let err = enumerate_sequential(
            &prog,
            &prog.initial_instance,
            &mut policy,
            ExactConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::NotDiscrete(name) if name == "Normal"));
    }

    /// Example 3.4-style network: exact marginal P(Alarm) matches the
    /// closed form 1 − (1 − p_eq·0.6)(1 − r·0.9).
    #[test]
    fn burglary_alarm_marginal_matches_closed_form() {
        let src = r#"
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
        let prog = compile(src, SemanticsMode::Grohe);
        let worlds = enumerate(&prog);
        assert!(worlds.mass_is_consistent(1e-9));
        let alarm = prog.catalog.require("Alarm").unwrap();
        let p = worlds.probability(|d| d.contains(alarm, &gdatalog_data::tuple!["h1"]));
        let expect = 1.0 - (1.0 - 0.1 * 0.6) * (1.0 - 0.3 * 0.9);
        assert!(
            (p - expect).abs() < 1e-9,
            "P(Alarm) = {p}, expected {expect}"
        );
    }
}
