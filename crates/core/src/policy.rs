//! Chase policies: concrete counterparts of the paper's *measurable
//! selections* `app` of the multifunction `App` (Lemma 3.6(ii)).
//!
//! Since [`crate::applicable_pairs`] returns `App(D)` in a canonical order
//! that depends only on `D`, any index choice that is a function of the
//! returned list is a genuine selection (a function of the instance).
//! The `Random` policy is *not* a function of `D` — it consumes PRNG state
//! — which makes it an even stronger stress test of Theorem 6.1 (the
//! theorem's proof never uses that `app` is the same selection at every
//! tree level).

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::applicability::AppPair;

/// Declarative description of a policy (serializable into configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Always the canonically first applicable pair.
    Canonical,
    /// Always the canonically last applicable pair.
    Reverse,
    /// Uniformly random among applicable pairs (seeded).
    Random {
        /// PRNG seed for the policy's own randomness.
        seed: u64,
    },
    /// Cycle through rule ids across steps.
    RoundRobin,
    /// Prefer deterministic rules (saturate logic before sampling).
    DeterministicFirst,
}

/// A chase policy: selects one applicable pair per step. `Clone`
/// duplicates the policy state (including any PRNG state), which the
/// batched executor uses when a lane group forks.
#[derive(Debug, Clone)]
pub enum ChasePolicy {
    /// See [`PolicyKind::Canonical`].
    Canonical,
    /// See [`PolicyKind::Reverse`].
    Reverse,
    /// See [`PolicyKind::Random`].
    Random(StdRng),
    /// See [`PolicyKind::RoundRobin`].
    RoundRobin {
        /// Rule id to prefer next.
        next: usize,
    },
    /// See [`PolicyKind::DeterministicFirst`].
    DeterministicFirst {
        /// Rule ids that are existential (sampled) rules.
        existential_rules: Vec<usize>,
    },
}

impl ChasePolicy {
    /// Instantiates a policy from its description.
    ///
    /// `existential_rules` lists the rule ids that sample (needed by
    /// [`PolicyKind::DeterministicFirst`]).
    pub fn new(kind: PolicyKind, existential_rules: &[usize]) -> ChasePolicy {
        match kind {
            PolicyKind::Canonical => ChasePolicy::Canonical,
            PolicyKind::Reverse => ChasePolicy::Reverse,
            PolicyKind::Random { seed } => ChasePolicy::Random(StdRng::seed_from_u64(seed)),
            PolicyKind::RoundRobin => ChasePolicy::RoundRobin { next: 0 },
            PolicyKind::DeterministicFirst => ChasePolicy::DeterministicFirst {
                existential_rules: existential_rules.to_vec(),
            },
        }
    }

    /// Selects the index of the pair to fire from a non-empty `App(D)`.
    ///
    /// # Panics
    /// Panics if `pairs` is empty.
    pub fn select(&mut self, pairs: &[AppPair]) -> usize {
        assert!(!pairs.is_empty(), "select on empty App(D)");
        match self {
            ChasePolicy::Canonical => 0,
            ChasePolicy::Reverse => pairs.len() - 1,
            ChasePolicy::Random(rng) => (rng.next_u64() % pairs.len() as u64) as usize,
            ChasePolicy::RoundRobin { next } => {
                // First pair whose rule id is >= next (cyclically).
                let chosen = pairs.iter().position(|p| p.rule >= *next).unwrap_or(0);
                *next = pairs[chosen].rule + 1;
                chosen
            }
            ChasePolicy::DeterministicFirst { existential_rules } => pairs
                .iter()
                .position(|p| !existential_rules.contains(&p.rule))
                .unwrap_or(0),
        }
    }

    /// Human-readable name (for reports).
    pub fn name(&self) -> &'static str {
        match self {
            ChasePolicy::Canonical => "canonical",
            ChasePolicy::Reverse => "reverse",
            ChasePolicy::Random(_) => "random",
            ChasePolicy::RoundRobin { .. } => "round-robin",
            ChasePolicy::DeterministicFirst { .. } => "deterministic-first",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_data::{tuple, Tuple};

    fn pairs(rules: &[usize]) -> Vec<AppPair> {
        rules
            .iter()
            .enumerate()
            .map(|(i, &r)| AppPair {
                rule: r,
                valuation: tuple![i as i64],
            })
            .collect()
    }

    #[test]
    fn canonical_and_reverse() {
        let ps = pairs(&[0, 1, 2]);
        assert_eq!(ChasePolicy::Canonical.select(&ps), 0);
        assert_eq!(ChasePolicy::Reverse.select(&ps), 2);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let ps = pairs(&[0, 1, 2, 3, 4]);
        let mut a = ChasePolicy::new(PolicyKind::Random { seed: 9 }, &[]);
        let mut b = ChasePolicy::new(PolicyKind::Random { seed: 9 }, &[]);
        for _ in 0..20 {
            assert_eq!(a.select(&ps), b.select(&ps));
        }
    }

    #[test]
    fn round_robin_cycles_rules() {
        let ps = pairs(&[0, 1, 2]);
        let mut p = ChasePolicy::new(PolicyKind::RoundRobin, &[]);
        assert_eq!(ps[p.select(&ps)].rule, 0);
        assert_eq!(ps[p.select(&ps)].rule, 1);
        assert_eq!(ps[p.select(&ps)].rule, 2);
        // Wraps around.
        assert_eq!(ps[p.select(&ps)].rule, 0);
    }

    #[test]
    fn deterministic_first_prefers_non_sampling() {
        let ps = pairs(&[0, 1, 2]);
        let mut p = ChasePolicy::new(PolicyKind::DeterministicFirst, &[0, 1]);
        // Rules 0 and 1 are existential; rule 2 is deterministic.
        assert_eq!(ps[p.select(&ps)].rule, 2);
        // All-existential fallback: first.
        let ps2 = pairs(&[0, 1]);
        assert_eq!(ps2[p.select(&ps2)].rule, 0);
        let _ = Tuple::empty();
    }
}
