//! Set-semantics database instances: the sample space `D` of the paper
//! (finite sets of facts, §2.3).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::schema::RelId;
use crate::tuple::Tuple;
use crate::value::Value;

/// A fact `R(v̄)`: a relation id plus a tuple.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fact {
    /// The relation the fact belongs to.
    pub rel: RelId,
    /// The attribute values.
    pub tuple: Tuple,
}

impl Fact {
    /// Creates a fact.
    pub fn new(rel: RelId, tuple: Tuple) -> Fact {
        Fact { rel, tuple }
    }
}

static EMPTY_RELATION: BTreeSet<Tuple> = BTreeSet::new();

/// A finite database instance with **set semantics**.
///
/// Facts are stored per relation in `BTreeSet`s, so an `Instance` has a
/// canonical representation: equality, ordering and hashing of instances are
/// well defined and deterministic. This is what lets the exact engine merge
/// chase-tree leaves that denote the same world, and lets `PossibleWorlds`
/// tables be compared across chase orders (Theorem 6.1).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instance {
    rels: BTreeMap<RelId, BTreeSet<Tuple>>,
    nfacts: usize,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from facts (duplicates collapse).
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Instance {
        let mut inst = Instance::new();
        for f in facts {
            inst.insert(f.rel, f.tuple);
        }
        inst
    }

    /// Inserts a fact; returns `true` if it was new (set semantics).
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> bool {
        let fresh = self.rels.entry(rel).or_default().insert(tuple);
        if fresh {
            self.nfacts += 1;
        }
        fresh
    }

    /// Inserts a [`Fact`]; returns `true` if it was new.
    pub fn insert_fact(&mut self, fact: Fact) -> bool {
        self.insert(fact.rel, fact.tuple)
    }

    /// Removes a fact; returns `true` if it was present.
    pub fn remove(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        let removed = self
            .rels
            .get_mut(&rel)
            .map(|s| s.remove(tuple))
            .unwrap_or(false);
        if removed {
            self.nfacts -= 1;
            if self.rels.get(&rel).is_some_and(BTreeSet::is_empty) {
                self.rels.remove(&rel);
            }
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, rel: RelId, tuple: &Tuple) -> bool {
        self.rels.get(&rel).is_some_and(|s| s.contains(tuple))
    }

    /// Membership test on a borrowed value slice — the allocation-free
    /// probe of hot loops that assemble a candidate fact in a scratch
    /// buffer.
    pub fn contains_values(&self, rel: RelId, values: &[Value]) -> bool {
        self.rels.get(&rel).is_some_and(|s| s.contains(values))
    }

    /// The tuples of one relation (empty set if the relation has no facts).
    pub fn relation(&self, rel: RelId) -> &BTreeSet<Tuple> {
        self.rels.get(&rel).unwrap_or(&EMPTY_RELATION)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.nfacts
    }

    /// Whether the instance holds no facts.
    pub fn is_empty(&self) -> bool {
        self.nfacts == 0
    }

    /// Number of facts in one relation.
    pub fn relation_len(&self, rel: RelId) -> usize {
        self.rels.get(&rel).map_or(0, BTreeSet::len)
    }

    /// Iterates over all facts in canonical order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rels
            .iter()
            .flat_map(|(&rel, tuples)| tuples.iter().map(move |t| Fact::new(rel, t.clone())))
    }

    /// The relations that currently hold at least one fact.
    pub fn populated_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels.keys().copied()
    }

    /// Set union (the paper's `D ∪ {f}` generalized to whole instances).
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// Adds all facts of `other` into `self`.
    pub fn extend_from(&mut self, other: &Instance) {
        for (&rel, tuples) in &other.rels {
            let slot = self.rels.entry(rel).or_default();
            for t in tuples {
                if slot.insert(t.clone()) {
                    self.nfacts += 1;
                }
            }
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.rels.iter().all(|(rel, tuples)| {
            let theirs = other.relation(*rel);
            tuples.iter().all(|t| theirs.contains(t))
        })
    }

    /// Keeps only the facts whose relation satisfies `keep`.
    ///
    /// This is the schema restriction used in Remark 4.9 / §6.2 to drop the
    /// auxiliary sampling relations from final results.
    pub fn project_relations(&self, mut keep: impl FnMut(RelId) -> bool) -> Instance {
        let mut out = Instance::new();
        for (&rel, tuples) in &self.rels {
            if keep(rel) {
                let n = tuples.len();
                out.rels.insert(rel, tuples.clone());
                out.nfacts += n;
            }
        }
        out
    }

    /// Retains only facts satisfying the predicate.
    pub fn retain_facts(&mut self, mut keep: impl FnMut(RelId, &Tuple) -> bool) {
        let mut removed = 0usize;
        self.rels.retain(|&rel, tuples| {
            let before = tuples.len();
            tuples.retain(|t| keep(rel, t));
            removed += before - tuples.len();
            !tuples.is_empty()
        });
        self.nfacts -= removed;
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Instance({} facts)", self.nfacts)
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Instance {
        Instance::from_facts(iter)
    }
}

impl Extend<Fact> for Instance {
    fn extend<I: IntoIterator<Item = Fact>>(&mut self, iter: I) {
        for f in iter {
            self.insert_fact(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(n: u32) -> RelId {
        RelId(n)
    }

    #[test]
    fn set_semantics_insert() {
        let mut d = Instance::new();
        assert!(d.insert(r(0), tuple![1i64]));
        assert!(!d.insert(r(0), tuple![1i64]), "duplicate must be ignored");
        assert_eq!(d.len(), 1);
        assert!(d.contains(r(0), &tuple![1i64]));
        assert!(!d.contains(r(1), &tuple![1i64]));
        assert!(d.contains_values(r(0), &[Value::int(1)]));
        assert!(!d.contains_values(r(0), &[Value::int(2)]));
        assert!(!d.contains_values(r(1), &[Value::int(1)]));
    }

    #[test]
    fn remove_maintains_count() {
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        d.insert(r(0), tuple![2i64]);
        assert!(d.remove(r(0), &tuple![1i64]));
        assert!(!d.remove(r(0), &tuple![1i64]));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn canonical_equality_is_order_independent() {
        let mut a = Instance::new();
        a.insert(r(0), tuple![1i64]);
        a.insert(r(1), tuple!["x"]);
        let mut b = Instance::new();
        b.insert(r(1), tuple!["x"]);
        b.insert(r(0), tuple![1i64]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn union_and_subset() {
        let mut a = Instance::new();
        a.insert(r(0), tuple![1i64]);
        let mut b = Instance::new();
        b.insert(r(0), tuple![2i64]);
        b.insert(r(1), tuple![3i64]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn projection_drops_relations() {
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        d.insert(r(1), tuple![2i64]);
        let p = d.project_relations(|rel| rel == r(0));
        assert_eq!(p.len(), 1);
        assert!(p.contains(r(0), &tuple![1i64]));
        assert!(!p.contains(r(1), &tuple![2i64]));
    }

    #[test]
    fn retain_facts_updates_len() {
        let mut d = Instance::new();
        d.insert(r(0), tuple![1i64]);
        d.insert(r(0), tuple![2i64]);
        d.insert(r(1), tuple![3i64]);
        d.retain_facts(|_, t| t[0].as_i64().unwrap() >= 2);
        assert_eq!(d.len(), 2);
        assert!(!d.contains(r(0), &tuple![1i64]));
    }

    #[test]
    fn facts_iterate_in_canonical_order() {
        let mut d = Instance::new();
        d.insert(r(1), tuple![5i64]);
        d.insert(r(0), tuple![9i64]);
        d.insert(r(0), tuple![3i64]);
        let facts: Vec<_> = d.facts().collect();
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[0], Fact::new(r(0), tuple![3i64]));
        assert_eq!(facts[1], Fact::new(r(0), tuple![9i64]));
        assert_eq!(facts[2], Fact::new(r(1), tuple![5i64]));
    }
}
