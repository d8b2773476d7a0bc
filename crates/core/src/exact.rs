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

use std::rc::Rc;

use gdatalog_data::{Fact, Instance, Tuple, Value};
use gdatalog_lang::{CompiledProgram, RuleKind};
use gdatalog_pdb::PossibleWorlds;

use crate::applicability::{eval_terms, AppPair, ChaseState, PreparedProgram};
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

/// The branches of firing one existential rule: every combination of
/// outcomes of its samples, with its probability, plus truncated mass.
#[allow(clippy::type_complexity)]
pub(crate) fn existential_branches(
    program: &CompiledProgram,
    pair: &AppPair,
    tol: f64,
) -> Result<(Vec<(Vec<Value>, f64)>, f64), EngineError> {
    let rule = &program.rules[pair.rule];
    let RuleKind::Existential(e) = &rule.kind else {
        unreachable!("existential_branches on deterministic rule");
    };
    let mut combos: Vec<(Vec<Value>, f64)> = vec![(Vec::new(), 1.0)];
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
    Ok((combos, (1.0 - tabulated).max(0.0)))
}

/// The fact a fired branch of `pair` inserts: the head of a deterministic
/// rule, or the auxiliary experiment fact (key, then `outcomes`).
pub(crate) fn branch_fact(program: &CompiledProgram, pair: &AppPair, outcomes: &[Value]) -> Fact {
    match &program.rules[pair.rule].kind {
        RuleKind::Deterministic { head } => {
            let tuple: Tuple = head
                .args
                .iter()
                .map(|t| crate::applicability::eval_term(t, &pair.valuation))
                .collect();
            Fact::new(head.rel, tuple)
        }
        RuleKind::Existential(e) => {
            let mut values = eval_terms(&e.key_terms, &pair.valuation);
            values.extend(outcomes.iter().cloned());
            Fact::new(e.aux_rel, Tuple::from(values))
        }
    }
}

/// Applies a fired branch of `pair` to a copy of `instance`.
pub(crate) fn apply_branch(
    program: &CompiledProgram,
    pair: &AppPair,
    outcomes: &[Value],
    instance: &Instance,
) -> Instance {
    let mut next = instance.clone();
    next.insert_fact(branch_fact(program, pair, outcomes));
    next
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
    enumerate_sequential_prepared(program, &prepared, input, policy, config)
}

/// [`enumerate_sequential`] against caller-held chase plans, the serving
/// fast path: a cached program's [`PreparedProgram`] is built once and
/// reused across requests instead of being re-planned per call.
///
/// # Errors
/// Same as [`enumerate_sequential`].
pub fn enumerate_sequential_prepared(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    policy: &mut ChasePolicy,
    config: ExactConfig,
) -> Result<PossibleWorlds, EngineError> {
    require_discrete(program)?;
    let mut worlds = PossibleWorlds::new();
    // DFS over frames; each child materializes its state from its parent's
    // (index and cached App(D) included) plus the fact its branch fired.
    let mut stack = vec![Frame::root(prepared, program, input)];
    while let Some(frame) = stack.pop() {
        check_deadline(config.deadline)?;
        if frame.p == 0.0 {
            continue;
        }
        let (p, depth) = (frame.p, frame.depth);
        let mut state = frame.into_state(prepared);
        let app = state.app(prepared, program);
        if app.is_empty() {
            worlds.add(state.into_instance(), p);
            continue;
        }
        if depth >= config.max_depth || (config.min_path_prob > 0.0 && p < config.min_path_prob) {
            worlds.add_nontermination(p);
            continue;
        }
        let pair = app[policy.select(app)].clone();
        let branches = match &program.rules[pair.rule].kind {
            RuleKind::Deterministic { .. } => vec![(Vec::new(), 1.0)],
            RuleKind::Existential(_) => {
                let (branches, truncated) =
                    existential_branches(program, &pair, config.support_tol)?;
                worlds.add_truncation(p * truncated);
                branches
            }
        };
        let parent = Rc::new(state);
        for (outcomes, q) in branches {
            stack.push(Frame {
                parent: Rc::clone(&parent),
                fired: vec![branch_fact(program, &pair, &outcomes)],
                p: p * q,
                depth: depth + 1,
            });
        }
    }
    Ok(worlds)
}

/// One pending node of an exact enumeration: its parent's chase state and
/// the facts the branch into it fired. The state is materialized when the
/// node is popped — the last sibling popped takes the parent's state
/// without a copy.
pub(crate) struct Frame {
    pub(crate) parent: Rc<ChaseState>,
    pub(crate) fired: Vec<Fact>,
    pub(crate) p: f64,
    pub(crate) depth: usize,
}

impl Frame {
    /// The root node: `input` with a fresh index and cache.
    pub(crate) fn root(
        prepared: &PreparedProgram,
        program: &CompiledProgram,
        input: &Instance,
    ) -> Frame {
        Frame {
            parent: Rc::new(ChaseState::new(prepared, program, input.clone())),
            fired: Vec::new(),
            p: 1.0,
            depth: 0,
        }
    }

    /// The node's own state: the parent's with the fired facts inserted.
    pub(crate) fn into_state(self, prepared: &PreparedProgram) -> ChaseState {
        let mut state = Rc::try_unwrap(self.parent).unwrap_or_else(|rc| (*rc).clone());
        for fact in self.fired {
            state.insert(prepared, fact.rel, fact.tuple);
        }
        state
    }
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
    enumerate_parallel_prepared(program, &prepared, input, config)
}

/// [`enumerate_parallel`] against caller-held chase plans (see
/// [`enumerate_sequential_prepared`]).
///
/// # Errors
/// Same as [`enumerate_sequential`].
pub fn enumerate_parallel_prepared(
    program: &CompiledProgram,
    prepared: &PreparedProgram,
    input: &Instance,
    config: ExactConfig,
) -> Result<PossibleWorlds, EngineError> {
    require_discrete(program)?;
    let mut worlds = PossibleWorlds::new();
    let mut stack = vec![Frame::root(prepared, program, input)];
    while let Some(frame) = stack.pop() {
        check_deadline(config.deadline)?;
        if frame.p == 0.0 {
            continue;
        }
        let (p, depth) = (frame.p, frame.depth);
        let mut state = frame.into_state(prepared);
        let app = state.app(prepared, program);
        if app.is_empty() {
            worlds.add(state.into_instance(), p);
            continue;
        }
        if depth >= config.max_depth || (config.min_path_prob > 0.0 && p < config.min_path_prob) {
            worlds.add_nontermination(p);
            continue;
        }
        let (children, truncated) = parallel_round(program, app, config)?;
        worlds.add_truncation(p * truncated);
        let parent = Rc::new(state);
        for (fired, q) in children {
            stack.push(Frame {
                parent: Rc::clone(&parent),
                fired,
                p: p * q,
                depth: depth + 1,
            });
        }
    }
    Ok(worlds)
}

/// Expands one parallel round (all applicable pairs fire) into the fact
/// sets of the follow-up instances with their probabilities, plus
/// truncated mass. `app` must be the (non-empty) `App(D)` of the instance
/// the round starts from.
#[allow(clippy::type_complexity)]
pub(crate) fn parallel_round(
    program: &CompiledProgram,
    app: &[AppPair],
    config: ExactConfig,
) -> Result<(Vec<(Vec<Fact>, f64)>, f64), EngineError> {
    // Accumulate follow-up fact sets as a product over pairs.
    let mut frontier: Vec<(Vec<Fact>, f64)> = vec![(Vec::new(), 1.0)];
    let mut truncated_total = 0.0;
    let mut experiments_done: Vec<(gdatalog_data::RelId, Vec<Value>)> = Vec::new();
    for pair in app {
        match &program.rules[pair.rule].kind {
            RuleKind::Deterministic { .. } => {
                let fact = branch_fact(program, pair, &[]);
                for (facts, _) in &mut frontier {
                    facts.push(fact.clone());
                }
            }
            RuleKind::Existential(e) => {
                let key = eval_terms(&e.key_terms, &pair.valuation);
                let exp_id = (e.aux_rel, key);
                if experiments_done.contains(&exp_id) {
                    continue; // shared experiment already sampled this round
                }
                experiments_done.push(exp_id);
                let (branches, truncated) =
                    existential_branches(program, pair, config.support_tol)?;
                // Truncated mass applies to every partial product.
                let partial_mass: f64 = frontier.iter().map(|(_, q)| q).sum();
                truncated_total += partial_mass * truncated;
                let mut next = Vec::with_capacity(frontier.len() * branches.len());
                for (facts, q) in &frontier {
                    for (outcomes, b) in &branches {
                        let mut ext = facts.clone();
                        ext.push(branch_fact(program, pair, outcomes));
                        next.push((ext, q * b));
                    }
                }
                frontier = next;
            }
        }
    }
    Ok((frontier, truncated_total))
}

fn require_discrete(program: &CompiledProgram) -> Result<(), EngineError> {
    if program.all_discrete() {
        Ok(())
    } else {
        let name = program
            .rules
            .iter()
            .find_map(|r| match &r.kind {
                RuleKind::Existential(e) => e
                    .samples
                    .iter()
                    .find(|s| !s.dist.is_discrete())
                    .map(|s| s.dist.name().to_string()),
                RuleKind::Deterministic { .. } => None,
            })
            .unwrap_or_else(|| "<unknown>".to_string());
        Err(EngineError::NotDiscrete(name))
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
