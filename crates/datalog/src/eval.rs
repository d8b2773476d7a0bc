//! Bottom-up fixpoint evaluation: naive and semi-naive, over compile-once
//! rule plans and incrementally maintained indexes.
//!
//! [`PlannedProgram`] is the reusable evaluation object: rule bodies are
//! planned once (per-atom bound-column sets, interned index specs) and the
//! semi-naive loop keeps one [`InstanceIndex`] in lockstep with the
//! growing instance by absorbing each inserted fact — no index is rebuilt
//! between rounds. [`PlannedProgram::saturate_in_place`] additionally
//! supports *continuing* saturation from an externally supplied delta,
//! which is what lets the probabilistic chase re-saturate after each
//! sampled fact in O(|Δ|) instead of O(|D|).
//!
//! [`fixpoint_seminaive_rebuild`] preserves the old rebuild-per-round
//! behavior; it exists as the oracle in the incremental-vs-rebuilt
//! property tests.

use gdatalog_data::{Instance, RelId, Tuple, Value};

use crate::index::{Delta, IndexSpecs, InstanceIndex};
use crate::plan::BodyPlan;
use crate::rule::{Atom, DatalogProgram};

/// Statistics from a fixpoint run (for benches and ablation reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint iterations.
    pub iterations: usize,
    /// Facts derived (inserted) beyond the input.
    pub derived_facts: usize,
    /// Rule instantiations considered (successful matches).
    pub matches: usize,
}

struct PlannedRule {
    head: Atom,
    plan: BodyPlan,
    body_rels: Vec<RelId>,
}

/// A Datalog program with all rule bodies planned and index specs
/// interned — build once, evaluate many times.
pub struct PlannedProgram {
    rules: Vec<PlannedRule>,
}

impl PlannedProgram {
    /// Plans every rule of `program`, interning index specs into `specs`.
    ///
    /// The same `specs` table can be shared with other plans (the chase
    /// shares one table across the deterministic fragment and the
    /// existential rules so a single index serves both).
    pub fn new(program: &DatalogProgram, specs: &mut IndexSpecs) -> PlannedProgram {
        let rules = program
            .rules
            .iter()
            .map(|r| PlannedRule {
                head: r.head.clone(),
                plan: BodyPlan::new(&r.body, r.n_vars, specs),
                body_rels: r.body.iter().map(|a| a.rel).collect(),
            })
            .collect();
        PlannedProgram { rules }
    }

    /// Runs semi-naive evaluation to fixpoint, mutating `current` (and its
    /// lockstep `index`) in place.
    ///
    /// With `initial_delta = None` this performs a full round 0 (all rules
    /// against the whole instance — the only round that fires body-less
    /// rules) and then delta rounds to fixpoint. With `initial_delta =
    /// Some(Δ)` the caller asserts that `current` is already saturated
    /// except for the facts in `Δ` (which must already be inserted in
    /// `current` and absorbed by `index`); evaluation starts directly from
    /// the delta rounds, costing O(|Δ| + new matches) instead of O(|D|).
    pub fn saturate_in_place(
        &self,
        specs: &IndexSpecs,
        current: &mut Instance,
        index: &mut InstanceIndex,
        initial_delta: Option<Delta>,
    ) -> EvalStats {
        let mut stats = EvalStats::default();
        let mut new_facts: Vec<(RelId, Tuple)> = Vec::new();

        let mut delta = match initial_delta {
            Some(d) => d,
            None => {
                stats.iterations += 1;
                for rule in &self.rules {
                    rule.plan.for_each_match(current, index, &mut |binding| {
                        stats.matches += 1;
                        new_facts.push((rule.head.rel, rule.head.instantiate(binding)));
                    });
                }
                insert_round(current, index, &mut new_facts, &mut stats)
            }
        };

        // One delta index turned over across rounds (allocation reuse).
        let mut delta_index = InstanceIndex::new(specs);
        while !delta.is_empty() {
            stats.iterations += 1;
            delta_index.build_from_delta(&delta);
            for rule in &self.rules {
                if rule.body_rels.is_empty() {
                    continue; // body-less rules fire in round 0 only
                }
                for pos in 0..rule.body_rels.len() {
                    if delta.tuples(rule.body_rels[pos]).is_empty() {
                        continue;
                    }
                    rule.plan.for_each_match_delta(
                        current,
                        index,
                        Some((pos, &delta, &delta_index)),
                        &mut |binding| {
                            stats.matches += 1;
                            new_facts.push((rule.head.rel, rule.head.instantiate(binding)));
                        },
                    );
                }
            }
            delta = insert_round(current, index, &mut new_facts, &mut stats);
        }
        stats
    }
}

/// Inserts a round's derived facts, absorbing the new ones into the index;
/// returns them as the next delta. Drains `new_facts` for reuse.
fn insert_round(
    current: &mut Instance,
    index: &mut InstanceIndex,
    new_facts: &mut Vec<(RelId, Tuple)>,
    stats: &mut EvalStats,
) -> Delta {
    let mut delta = Delta::new();
    for (rel, t) in new_facts.drain(..) {
        if current.insert(rel, t.clone()) {
            stats.derived_facts += 1;
            index.absorb(rel, &t);
            delta.push(rel, t);
        }
    }
    delta
}

/// Enumerates all matches of a conjunctive body against `instance`,
/// invoking `emit` with the complete variable binding for each match.
///
/// This is the single-rule matching primitive the probabilistic chase uses
/// to compute the applicable pairs `App(D)` (§3.3 of the paper). It plans
/// and indexes on the fly; hot paths should plan once via [`BodyPlan`] and
/// probe a maintained index instead.
///
/// Variables not occurring in the body are left `None` in the binding.
pub fn for_each_body_match(
    body: &[Atom],
    n_vars: usize,
    instance: &Instance,
    emit: &mut dyn FnMut(&[Option<Value>]),
) {
    let mut specs = IndexSpecs::new();
    let plan = BodyPlan::new(body, n_vars, &mut specs);
    let index = InstanceIndex::built(&specs, instance);
    plan.for_each_match(instance, &index, emit);
}

/// Naive bottom-up evaluation: applies all rules to the whole instance
/// until nothing new is derived, rebuilding indexes every round. Returns
/// the least fixpoint extension of `input` and evaluation statistics.
///
/// This is the semantic oracle (and the slowest baseline) the semi-naive
/// variants are tested and benchmarked against.
pub fn fixpoint_naive(program: &DatalogProgram, input: &Instance) -> (Instance, EvalStats) {
    let mut specs = IndexSpecs::new();
    let planned = PlannedProgram::new(program, &mut specs);
    let mut stats = EvalStats::default();
    let mut current = input.clone();
    loop {
        stats.iterations += 1;
        let index = InstanceIndex::built(&specs, &current);
        let mut new_facts: Vec<(RelId, Tuple)> = Vec::new();
        for rule in &planned.rules {
            rule.plan.for_each_match(&current, &index, &mut |binding| {
                stats.matches += 1;
                new_facts.push((rule.head.rel, rule.head.instantiate(binding)));
            });
        }
        let mut changed = false;
        for (rel, t) in new_facts {
            if current.insert(rel, t) {
                stats.derived_facts += 1;
                changed = true;
            }
        }
        if !changed {
            return (current, stats);
        }
    }
}

/// Semi-naive bottom-up evaluation over **incrementally maintained**
/// indexes: after the first round, rules only fire on instantiations that
/// touch at least one newly derived fact, and inserted facts are absorbed
/// into the live index instead of rebuilding it.
pub fn fixpoint_seminaive(program: &DatalogProgram, input: &Instance) -> (Instance, EvalStats) {
    let mut specs = IndexSpecs::new();
    let planned = PlannedProgram::new(program, &mut specs);
    let mut current = input.clone();
    let mut index = InstanceIndex::built(&specs, &current);
    let stats = planned.saturate_in_place(&specs, &mut current, &mut index, None);
    (current, stats)
}

/// Semi-naive evaluation with the **old rebuild-after-mutation** index
/// discipline: every round builds fresh indexes over the full instance.
///
/// Kept as a second oracle in property tests; do not use on hot paths.
pub fn fixpoint_seminaive_rebuild(
    program: &DatalogProgram,
    input: &Instance,
) -> (Instance, EvalStats) {
    let mut specs = IndexSpecs::new();
    let planned = PlannedProgram::new(program, &mut specs);
    let mut stats = EvalStats::default();
    let mut current = input.clone();
    let mut new_facts: Vec<(RelId, Tuple)> = Vec::new();

    // Round 0: all rules against the input.
    stats.iterations += 1;
    {
        let index = InstanceIndex::built(&specs, &current);
        for rule in &planned.rules {
            rule.plan.for_each_match(&current, &index, &mut |binding| {
                stats.matches += 1;
                new_facts.push((rule.head.rel, rule.head.instantiate(binding)));
            });
        }
    }
    let mut delta = Delta::new();
    for (rel, t) in new_facts.drain(..) {
        if current.insert(rel, t.clone()) {
            stats.derived_facts += 1;
            delta.push(rel, t);
        }
    }

    while !delta.is_empty() {
        stats.iterations += 1;
        // The rebuild being benchmarked away: O(|D|) every round.
        let index = InstanceIndex::built(&specs, &current);
        let mut delta_index = InstanceIndex::new(&specs);
        delta_index.build_from_delta(&delta);
        for rule in &planned.rules {
            if rule.body_rels.is_empty() {
                continue;
            }
            for pos in 0..rule.body_rels.len() {
                if delta.tuples(rule.body_rels[pos]).is_empty() {
                    continue;
                }
                rule.plan.for_each_match_delta(
                    &current,
                    &index,
                    Some((pos, &delta, &delta_index)),
                    &mut |binding| {
                        stats.matches += 1;
                        new_facts.push((rule.head.rel, rule.head.instantiate(binding)));
                    },
                );
            }
        }
        let mut next_delta = Delta::new();
        for (rel, t) in new_facts.drain(..) {
            if current.insert(rel, t.clone()) {
                stats.derived_facts += 1;
                next_delta.push(rel, t);
            }
        }
        delta = next_delta;
    }
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Atom, DatalogRule, Term};
    use gdatalog_data::{tuple, RelId};

    fn r(n: u32) -> RelId {
        RelId(n)
    }

    /// Transitive closure program: T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).
    fn tc_program() -> DatalogProgram {
        let edge = r(0);
        let tc = r(1);
        DatalogProgram::new(vec![
            DatalogRule::new(
                Atom::new(tc, vec![Term::Var(0), Term::Var(1)]),
                vec![Atom::new(edge, vec![Term::Var(0), Term::Var(1)])],
                2,
            )
            .unwrap(),
            DatalogRule::new(
                Atom::new(tc, vec![Term::Var(0), Term::Var(2)]),
                vec![
                    Atom::new(tc, vec![Term::Var(0), Term::Var(1)]),
                    Atom::new(edge, vec![Term::Var(1), Term::Var(2)]),
                ],
                3,
            )
            .unwrap(),
        ])
    }

    fn chain(n: i64) -> Instance {
        let mut d = Instance::new();
        for i in 0..n {
            d.insert(r(0), tuple![i, i + 1]);
        }
        d
    }

    #[test]
    fn transitive_closure_of_chain() {
        let input = chain(5);
        let (out, _) = fixpoint_seminaive(&tc_program(), &input);
        // T should contain all pairs (i, j) with i < j <= 5: 15 pairs.
        assert_eq!(out.relation_len(r(1)), 15);
        assert!(out.contains(r(1), &tuple![0i64, 5i64]));
        assert!(!out.contains(r(1), &tuple![3i64, 2i64]));
    }

    #[test]
    fn naive_and_seminaive_agree_on_chain() {
        let input = chain(8);
        let (a, _) = fixpoint_naive(&tc_program(), &input);
        let (b, _) = fixpoint_seminaive(&tc_program(), &input);
        let (c, _) = fixpoint_seminaive_rebuild(&tc_program(), &input);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn naive_and_seminaive_agree_on_cycle() {
        let mut input = chain(6);
        input.insert(r(0), tuple![6i64, 0i64]);
        let (a, _) = fixpoint_naive(&tc_program(), &input);
        let (b, sb) = fixpoint_seminaive(&tc_program(), &input);
        assert_eq!(a, b);
        // Full 7-node cycle: 49 pairs.
        assert_eq!(a.relation_len(r(1)), 49);
        assert!(sb.derived_facts >= 49);
    }

    #[test]
    fn seminaive_does_less_matching_work() {
        let input = chain(30);
        let (_, naive) = fixpoint_naive(&tc_program(), &input);
        let (_, semi) = fixpoint_seminaive(&tc_program(), &input);
        assert!(
            semi.matches < naive.matches,
            "semi-naive {} vs naive {}",
            semi.matches,
            naive.matches
        );
    }

    #[test]
    fn incremental_continuation_matches_full_fixpoint() {
        // Saturate a chain, then add one edge and continue from the delta;
        // the result must equal a from-scratch fixpoint on the bigger input.
        let program = tc_program();
        let mut specs = IndexSpecs::new();
        let planned = PlannedProgram::new(&program, &mut specs);
        let mut current = chain(10);
        let mut index = InstanceIndex::built(&specs, &current);
        planned.saturate_in_place(&specs, &mut current, &mut index, None);

        let new_edge = tuple![10i64, 11i64];
        assert!(current.insert(r(0), new_edge.clone()));
        index.absorb(r(0), &new_edge);
        planned.saturate_in_place(
            &specs,
            &mut current,
            &mut index,
            Some(Delta::single(r(0), new_edge)),
        );

        let (expect, _) = fixpoint_naive(&program, &chain(11));
        assert_eq!(current, expect);
    }

    #[test]
    fn bodyless_rules_fire_once() {
        // P(1) :- ⊤.
        let p = DatalogProgram::new(vec![DatalogRule::new(
            Atom::new(r(0), vec![Term::Const(Value::int(1))]),
            vec![],
            0,
        )
        .unwrap()]);
        let (out, stats) = fixpoint_seminaive(&p, &Instance::new());
        assert_eq!(out.len(), 1);
        assert!(out.contains(r(0), &tuple![1i64]));
        assert_eq!(stats.derived_facts, 1);
    }

    #[test]
    fn constants_in_body_filter() {
        // P(x) :- E(1, x).
        let p = DatalogProgram::new(vec![DatalogRule::new(
            Atom::new(r(1), vec![Term::Var(0)]),
            vec![Atom::new(
                r(0),
                vec![Term::Const(Value::int(1)), Term::Var(0)],
            )],
            1,
        )
        .unwrap()]);
        let mut input = Instance::new();
        input.insert(r(0), tuple![1i64, 10i64]);
        input.insert(r(0), tuple![2i64, 20i64]);
        let (out, _) = fixpoint_seminaive(&p, &input);
        assert!(out.contains(r(1), &tuple![10i64]));
        assert!(!out.contains(r(1), &tuple![20i64]));
    }

    #[test]
    fn repeated_var_in_atom_checks_equality() {
        // Diag(x) :- E(x, x).
        let p = DatalogProgram::new(vec![DatalogRule::new(
            Atom::new(r(1), vec![Term::Var(0)]),
            vec![Atom::new(r(0), vec![Term::Var(0), Term::Var(0)])],
            1,
        )
        .unwrap()]);
        let mut input = Instance::new();
        input.insert(r(0), tuple![1i64, 1i64]);
        input.insert(r(0), tuple![1i64, 2i64]);
        let (out, _) = fixpoint_seminaive(&p, &input);
        assert_eq!(out.relation_len(r(1)), 1);
        assert!(out.contains(r(1), &tuple![1i64]));
    }

    #[test]
    fn cross_product_join() {
        // Pair(x, y) :- A(x), B(y).
        let p = DatalogProgram::new(vec![DatalogRule::new(
            Atom::new(r(2), vec![Term::Var(0), Term::Var(1)]),
            vec![
                Atom::new(r(0), vec![Term::Var(0)]),
                Atom::new(r(1), vec![Term::Var(1)]),
            ],
            2,
        )
        .unwrap()]);
        let mut input = Instance::new();
        for i in 0..3i64 {
            input.insert(r(0), tuple![i]);
        }
        for j in 0..4i64 {
            input.insert(r(1), tuple![j]);
        }
        let (out, _) = fixpoint_seminaive(&p, &input);
        assert_eq!(out.relation_len(r(2)), 12);
    }

    #[test]
    fn same_generation_program() {
        // Classic same-generation: sg(x,y) :- sibling(x,y).
        //                          sg(x,y) :- parent(x,px), sg(px,py), parent(y,py).
        let parent = r(0);
        let sibling = r(1);
        let sg = r(2);
        let p = DatalogProgram::new(vec![
            DatalogRule::new(
                Atom::new(sg, vec![Term::Var(0), Term::Var(1)]),
                vec![Atom::new(sibling, vec![Term::Var(0), Term::Var(1)])],
                2,
            )
            .unwrap(),
            DatalogRule::new(
                Atom::new(sg, vec![Term::Var(0), Term::Var(1)]),
                vec![
                    Atom::new(parent, vec![Term::Var(0), Term::Var(2)]),
                    Atom::new(sg, vec![Term::Var(2), Term::Var(3)]),
                    Atom::new(parent, vec![Term::Var(1), Term::Var(3)]),
                ],
                4,
            )
            .unwrap(),
        ]);
        let mut input = Instance::new();
        // Two family trees: a-b siblings; children c(of a), d(of b).
        input.insert(sibling, tuple!["a", "b"]);
        input.insert(parent, tuple!["c", "a"]);
        input.insert(parent, tuple!["d", "b"]);
        let (out, _) = fixpoint_seminaive(&p, &input);
        assert!(out.contains(sg, &tuple!["c", "d"]));
        assert!(!out.contains(sg, &tuple!["c", "b"]));
        let (out_naive, _) = fixpoint_naive(&p, &input);
        assert_eq!(out, out_naive);
    }
}
