//! The applicable-pair set `App(D)` of §3.3: pairs `(φ̂, ā)` such that the
//! instance satisfies the rule body under `ā` but not the head.
//!
//! For deterministic rules "head satisfied" means the instantiated head
//! fact is present; for existential rules it means an auxiliary fact with
//! the instantiated *key* already exists (the `∃y` in rule (3.A)) — which,
//! combined with the induced FD of §3.5, realizes the sample-once
//! discipline.
//!
//! [`PreparedProgram`] is the compile-once artifact the chase hot paths
//! run on: every rule body is planned ([`BodyPlan`]) and every index the
//! program will ever probe — body probes, existential head-key probes, and
//! the deterministic fragment's probes — is interned into **one**
//! [`IndexSpecs`] table, so a single incrementally maintained
//! [`InstanceIndex`] serves the entire chase step.
//!
//! The stepping loops do not recompute `App(D)` from scratch: a
//! [`ChaseState`] keeps it as one pair list per rule beside its instance
//! and index, and refreshes a rule only after a fact lands in a relation
//! the rule depends on. [`applicable_pairs`] stays the from-scratch
//! definition and the oracle the cache is tested against.

use gdatalog_data::{Fact, Instance, RelId, Tuple, Value};
use gdatalog_datalog::{
    Atom as DlAtom, BodyPlan, Delta, IndexSpecs, InstanceIndex, PlannedProgram, Term as DlTerm,
};
use gdatalog_lang::{CompiledProgram, RuleKind};

/// An applicable pair `(rule, ā)`: rule id plus the valuation of the
/// rule's body variables (outcome variables of delivery rules are bound by
/// the auxiliary body atom, so every body match binds all of them).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppPair {
    /// Index into [`CompiledProgram::rules`].
    pub rule: usize,
    /// Full valuation of the rule's variables, in variable order.
    pub valuation: Tuple,
}

/// Evaluates a deterministic term under a valuation.
pub(crate) fn eval_term(term: &DlTerm, valuation: &Tuple) -> Value {
    match term {
        DlTerm::Const(c) => c.clone(),
        DlTerm::Var(v) => valuation[*v].clone(),
    }
}

/// Evaluates a list of terms under a valuation.
pub(crate) fn eval_terms(terms: &[DlTerm], valuation: &Tuple) -> Vec<Value> {
    terms.iter().map(|t| eval_term(t, valuation)).collect()
}

/// The fact a deterministic rule with head `head` derives under
/// `valuation`.
pub(crate) fn head_fact(head: &DlAtom, valuation: &Tuple) -> Fact {
    let tuple = head.args.iter().map(|t| eval_term(t, valuation)).collect();
    Fact::new(head.rel, tuple)
}

/// Completes a body-match binding into a total valuation tuple.
///
/// Validated rules are safe (every rule variable occurs in the body), so
/// every slot must be bound; an unbound slot is a compiler/engine logic
/// error and surfaces as a panic instead of being papered over with a
/// fabricated value.
fn valuation_of(binding: &[Option<Value>]) -> Tuple {
    binding
        .iter()
        .enumerate()
        .map(|(v, b)| {
            b.clone().unwrap_or_else(|| {
                panic!(
                    "variable v{v} unbound after a body match — unsafe rule \
                     slipped past validation"
                )
            })
        })
        .collect()
}

/// A compiled program with planned bodies and a unified index layout —
/// built once, shared by every chase run over the program.
pub struct PreparedProgram {
    specs: IndexSpecs,
    plans: Vec<BodyPlan>,
    /// Per rule: the interned spec probing the existential auxiliary
    /// relation on its full key (None for deterministic rules and for
    /// empty keys, which degrade to a relation-emptiness test).
    head_probe: Vec<Option<usize>>,
    /// The rules whose applicable pairs can change when a fact lands in a
    /// relation, grouped by relation: relation `r`'s entries are
    /// `dependents[dependent_starts[r]..dependent_starts[r + 1]]`. Each
    /// entry is a rule flagged with whether it reads the relation in its
    /// body; the others only probe it as head — deterministic rules with
    /// it as head relation, existential rules with it as auxiliary
    /// relation.
    dependents: Vec<(usize, bool)>,
    dependent_starts: Vec<usize>,
    det: PlannedProgram,
}

impl PreparedProgram {
    /// Plans every rule of `program` and the deterministic fragment into
    /// one shared spec table.
    pub fn new(program: &CompiledProgram) -> PreparedProgram {
        let mut specs = IndexSpecs::new();
        let plans = program
            .rules
            .iter()
            .map(|r| BodyPlan::new(&r.body, r.n_vars, &mut specs))
            .collect();
        let head_probe = program
            .rules
            .iter()
            .map(|r| match &r.kind {
                RuleKind::Existential(e) if !e.key_terms.is_empty() => {
                    let key_cols: Vec<usize> = (0..e.key_terms.len()).collect();
                    Some(specs.intern(e.aux_rel, &key_cols))
                }
                _ => None,
            })
            .collect();
        // (relation, rule, read in body), one entry per pair: sorting puts
        // a body read before a head probe of the same rule.
        let mut deps: Vec<(RelId, usize, bool)> = Vec::new();
        for (rule_ix, rule) in program.rules.iter().enumerate() {
            let head_rel = match &rule.kind {
                RuleKind::Deterministic { head } => head.rel,
                RuleKind::Existential(e) => e.aux_rel,
            };
            deps.extend(rule.body.iter().map(|a| (a.rel, rule_ix, true)));
            deps.push((head_rel, rule_ix, false));
        }
        deps.sort_unstable_by_key(|&(rel, rule, in_body)| (rel, rule, !in_body));
        deps.dedup_by_key(|&mut (rel, rule, _)| (rel, rule));
        let n_rels = deps.last().map_or(0, |&(rel, ..)| rel.index() + 1);
        let mut dependent_starts = vec![0; n_rels + 1];
        for &(rel, ..) in &deps {
            dependent_starts[rel.index() + 1] += 1;
        }
        for r in 0..n_rels {
            dependent_starts[r + 1] += dependent_starts[r];
        }
        let dependents = deps.into_iter().map(|(_, rule, b)| (rule, b)).collect();
        let det = PlannedProgram::new(
            &crate::saturate::deterministic_fragment(program),
            &mut specs,
        );
        PreparedProgram {
            specs,
            plans,
            head_probe,
            dependents,
            dependent_starts,
            det,
        }
    }

    /// The unified index spec table.
    pub fn specs(&self) -> &IndexSpecs {
        &self.specs
    }

    /// The planned deterministic fragment (for saturation between
    /// sampling steps).
    pub fn det(&self) -> &PlannedProgram {
        &self.det
    }

    /// The body plan of rule `rule`.
    pub fn plan(&self, rule: usize) -> &BodyPlan {
        &self.plans[rule]
    }

    /// A freshly built index over `instance`, laid out for this program.
    pub fn new_index(&self, instance: &Instance) -> InstanceIndex {
        InstanceIndex::built(&self.specs, instance)
    }

    /// The rules whose applicable pairs may change when a fact is
    /// inserted into `rel`, in ascending rule order, each with whether it
    /// reads `rel` in its body (else it only probes `rel` as head).
    pub(crate) fn dependents(&self, rel: RelId) -> &[(usize, bool)] {
        match self.dependent_starts.get(rel.index() + 1) {
            Some(&end) => &self.dependents[self.dependent_starts[rel.index()]..end],
            None => &[],
        }
    }

    /// Whether the head of rule `rule_ix` is satisfied in `instance` under
    /// `valuation` (the `D ⊨ φ̂h(ā)` test of §3.3). `key` is scratch space
    /// for the instantiated head fact or key, reused across probes.
    fn head_satisfied(
        &self,
        program: &CompiledProgram,
        rule_ix: usize,
        valuation: &Tuple,
        instance: &Instance,
        index: &InstanceIndex,
        key: &mut Vec<Value>,
    ) -> bool {
        key.clear();
        match &program.rules[rule_ix].kind {
            RuleKind::Deterministic { head } => {
                key.extend(head.args.iter().map(|t| eval_term(t, valuation)));
                instance.contains_values(head.rel, key)
            }
            RuleKind::Existential(e) => match self.head_probe[rule_ix] {
                Some(spec) => {
                    key.extend(e.key_terms.iter().map(|t| eval_term(t, valuation)));
                    index.contains_key(spec, key)
                }
                None => instance.relation_len(e.aux_rel) > 0,
            },
        }
    }

    /// Appends the applicable pairs of rule `rule_ix` to `out`, in
    /// canonical (valuation) order with duplicates collapsed.
    fn push_applicable(
        &self,
        program: &CompiledProgram,
        rule_ix: usize,
        instance: &Instance,
        index: &InstanceIndex,
        out: &mut Vec<AppPair>,
    ) {
        let seen_start = out.len();
        self.plans[rule_ix].for_each_match(instance, index, &mut |binding| {
            out.push(AppPair {
                rule: rule_ix,
                valuation: valuation_of(binding),
            });
        });
        // Dedup repeated valuations (a body can match the same binding
        // through different derivations) and drop head-satisfied pairs,
        // compacting the survivors in place. Equal pairs are identical,
        // so an unstable sort yields the same order as a stable one.
        out[seen_start..].sort_unstable();
        let mut key = Vec::new();
        let mut kept = seen_start;
        for i in seen_start..out.len() {
            if kept > seen_start && out[kept - 1] == out[i] {
                continue;
            }
            if !self.head_satisfied(
                program,
                rule_ix,
                &out[i].valuation,
                instance,
                index,
                &mut key,
            ) {
                out.swap(kept, i);
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// Computes `App(D)` against a maintained `index` (which must be in
    /// lockstep with `instance`), in canonical order (rule id, then
    /// valuation order). The canonical order makes chase policies
    /// well-defined *functions of the instance* — i.e. genuine selections
    /// of the multifunction `App` in the sense of Lemma 3.6(ii).
    pub fn applicable_pairs(
        &self,
        program: &CompiledProgram,
        instance: &Instance,
        index: &InstanceIndex,
    ) -> Vec<AppPair> {
        let mut out: Vec<AppPair> = Vec::new();
        for rule_ix in 0..program.rules.len() {
            self.push_applicable(program, rule_ix, instance, index, &mut out);
        }
        out
    }

    /// Computes the applicable pairs of **existential** rules only
    /// (canonical order), assuming the instance is deterministically
    /// saturated — the selection the saturating chase samples from.
    pub fn applicable_existential_pairs(
        &self,
        program: &CompiledProgram,
        instance: &Instance,
        index: &InstanceIndex,
    ) -> Vec<AppPair> {
        let mut out: Vec<AppPair> = Vec::new();
        for (rule_ix, rule) in program.rules.iter().enumerate() {
            if rule.is_existential() {
                self.push_applicable(program, rule_ix, instance, index, &mut out);
            }
        }
        out
    }
}

/// How stale one rule's cached pair list is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stale {
    /// The list is current.
    Clean,
    /// Only the relation the rule's head probes grew: the body matches
    /// are unchanged, and a pair can only have become blocked.
    Head,
    /// A body relation grew: the rule must be re-enumerated.
    Body,
}

/// `App(D)` kept across chase steps as one pair list per rule.
///
/// A rule's list depends only on its body relations and on the relation
/// its head probe reads: the head relation of a deterministic rule, the
/// auxiliary relation of an existential rule ([`PreparedProgram::new`]
/// tabulates these once). So a fresh fact marks just the rules depending
/// on its relation stale, and the next [`ChaseState::app`] refreshes only
/// those: a rule with a new fact in a body relation is re-enumerated; a
/// rule whose head relation alone grew keeps its body matches, so its
/// list is only filtered by the head probe (instances only grow, so a
/// blocked pair never comes back). The lists are stored concatenated in
/// rule order, which is exactly the canonical order of
/// [`PreparedProgram::applicable_pairs`] — policies see the same slice,
/// and draws and worlds stay bit-identical.
///
/// The cache must follow its instance and index in lockstep — every fresh
/// insert and every saturation pass must reach it — so it lives only
/// inside the [`ChaseState`] that owns all three.
#[derive(Debug, Clone)]
struct AppCache {
    /// The per-rule lists, concatenated in rule order.
    pairs: Vec<AppPair>,
    /// Length of each rule's list within `pairs`.
    lens: Vec<usize>,
    /// Whether each rule takes part (all rules, or the existential rules
    /// for the saturating chase); other rules keep an empty list.
    tracked: Vec<bool>,
    /// How stale each rule's list is.
    stale: Vec<Stale>,
    /// Whether any rule is stale (a clean step skips the scan).
    any_stale: bool,
    /// Reused buffer for one rule's re-enumeration.
    scratch: Vec<AppPair>,
}

impl AppCache {
    /// A cache over the rules flagged in `tracked`, all stale.
    fn tracking(tracked: Vec<bool>) -> AppCache {
        let mut cache = AppCache {
            pairs: Vec::new(),
            lens: vec![0; tracked.len()],
            stale: vec![Stale::Clean; tracked.len()],
            tracked,
            any_stale: false,
            scratch: Vec::new(),
        };
        cache.invalidate();
        cache
    }

    /// Records that a **new** fact was inserted into `rel`: marks the
    /// tracked rules depending on `rel` stale.
    fn note_insert(&mut self, prepared: &PreparedProgram, rel: RelId) {
        for &(rule, in_body) in prepared.dependents(rel) {
            if self.tracked[rule] {
                let level = if in_body { Stale::Body } else { Stale::Head };
                self.stale[rule] = self.stale[rule].max(level);
                self.any_stale = true;
            }
        }
    }

    /// Marks every tracked rule for re-enumeration.
    fn invalidate(&mut self) {
        for (stale, &tracked) in self.stale.iter_mut().zip(&self.tracked) {
            if tracked {
                *stale = Stale::Body;
            }
        }
        self.any_stale = true;
    }

    /// `App(D)` in canonical order for the instance and index the cache
    /// follows, refreshing only the stale rules.
    fn pairs(
        &mut self,
        prepared: &PreparedProgram,
        program: &CompiledProgram,
        instance: &Instance,
        index: &InstanceIndex,
    ) -> &[AppPair] {
        if self.any_stale {
            let mut key = Vec::new();
            let mut start = 0;
            for rule in 0..self.lens.len() {
                let end = start + self.lens[rule];
                match std::mem::replace(&mut self.stale[rule], Stale::Clean) {
                    Stale::Clean => {}
                    Stale::Head => {
                        let mut kept = start;
                        for i in start..end {
                            let valuation = &self.pairs[i].valuation;
                            if !prepared
                                .head_satisfied(program, rule, valuation, instance, index, &mut key)
                            {
                                self.pairs.swap(kept, i);
                                kept += 1;
                            }
                        }
                        self.pairs.drain(kept..end);
                        self.lens[rule] = kept - start;
                    }
                    Stale::Body => {
                        let fresh = &mut self.scratch;
                        prepared.push_applicable(program, rule, instance, index, fresh);
                        self.lens[rule] = fresh.len();
                        self.pairs.splice(start..end, fresh.drain(..));
                    }
                }
                start += self.lens[rule];
            }
            self.any_stale = false;
        }
        &self.pairs
    }
}

/// The state of one stepping chase loop: an instance, the index over it,
/// and its cached `App(D)`, moved in lockstep. Cloning it forks the chase
/// (a lane-group split, a branch of an exact enumeration, or a
/// Metropolis-Hastings proposal from the chain's input snapshot).
///
/// [`ChaseState::app`] equals [`PreparedProgram::applicable_pairs`] (or
/// [`PreparedProgram::applicable_existential_pairs`] for a state built by
/// [`ChaseState::existential`]) on the current instance, in the same
/// canonical order. A fresh insert into a relation a rule reads in its
/// body re-enumerates that rule at the next call; an insert into the
/// relation only its head probe reads re-filters the rule's pairs; every
/// other rule's pairs are reused.
#[derive(Debug, Clone)]
pub struct ChaseState {
    instance: Instance,
    /// The index over `instance`, laid out for the program.
    index: InstanceIndex,
    app: AppCache,
}

impl ChaseState {
    /// A state at `instance` whose cache covers every rule (the `App(D)`
    /// of the sequential and parallel chases).
    pub fn new(
        prepared: &PreparedProgram,
        program: &CompiledProgram,
        instance: Instance,
    ) -> ChaseState {
        let tracked = program.rules.iter().map(|_| true).collect();
        ChaseState::tracking(prepared, instance, tracked)
    }

    /// A state at `instance` whose cache covers the existential rules only
    /// — the selection of the saturating chase
    /// ([`PreparedProgram::applicable_existential_pairs`]).
    pub fn existential(
        prepared: &PreparedProgram,
        program: &CompiledProgram,
        instance: Instance,
    ) -> ChaseState {
        let tracked = program.rules.iter().map(|r| r.is_existential()).collect();
        ChaseState::tracking(prepared, instance, tracked)
    }

    fn tracking(prepared: &PreparedProgram, instance: Instance, tracked: Vec<bool>) -> ChaseState {
        let index = prepared.new_index(&instance);
        ChaseState {
            instance,
            index,
            app: AppCache::tracking(tracked),
        }
    }

    /// Inserts a fact; when it is new, absorbs it into the index and marks
    /// the rules it can affect stale. Returns whether it was new.
    pub fn insert(&mut self, prepared: &PreparedProgram, rel: RelId, tuple: Tuple) -> bool {
        let fresh = self.instance.insert(rel, tuple.clone());
        if fresh {
            self.index.absorb(rel, &tuple);
            self.app.note_insert(prepared, rel);
        }
        fresh
    }

    /// Drives the deterministic rules to fixpoint — from scratch with
    /// `delta = None`, else continuing from the already inserted facts of
    /// `delta`, which must already be inserted — and returns the number of
    /// derived facts. A pass that derives anything marks every rule for
    /// re-enumeration.
    pub fn saturate(&mut self, prepared: &PreparedProgram, delta: Option<Delta>) -> usize {
        let derived = prepared
            .det()
            .saturate_in_place(prepared.specs(), &mut self.instance, &mut self.index, delta)
            .derived_facts;
        if derived > 0 {
            self.app.invalidate();
        }
        derived
    }

    /// The cached `App(D)` of the current instance, in canonical order.
    pub fn app(&mut self, prepared: &PreparedProgram, program: &CompiledProgram) -> &[AppPair] {
        self.app
            .pairs(prepared, program, &self.instance, &self.index)
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Ends the chase, keeping the instance.
    pub fn into_instance(self) -> Instance {
        self.instance
    }
}

/// Computes `App(D)` for the whole program from scratch (plans the program
/// and builds a fresh index per call). Diagnostic/compatibility entry
/// point — hot paths hold a [`PreparedProgram`] and a maintained index.
pub fn applicable_pairs(program: &CompiledProgram, instance: &Instance) -> Vec<AppPair> {
    let prepared = PreparedProgram::new(program);
    let index = prepared.new_index(instance);
    prepared.applicable_pairs(program, instance, &index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_data::tuple;
    use gdatalog_dist::Registry;
    use gdatalog_lang::{parse_program, translate, validate, SemanticsMode};
    use std::sync::Arc;

    fn compile(src: &str) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, SemanticsMode::Grohe).unwrap()
    }

    #[test]
    fn bodyless_rule_applicable_once() {
        let prog = compile("R(Flip<0.5>) :- true.");
        let app = applicable_pairs(&prog, &prog.initial_instance);
        // Only the existential rule (3.A) is applicable: the delivery rule
        // needs an aux fact.
        assert_eq!(app.len(), 1);
        assert_eq!(app[0].rule, 0);
        assert_eq!(app[0].valuation, Tuple::empty());
    }

    #[test]
    fn sample_once_blocks_refiring() {
        let prog = compile("R(Flip<0.5>) :- true.");
        let aux = prog.aux_relations[0];
        let mut d = prog.initial_instance.clone();
        d.insert(aux, tuple![0.5, 1i64]);
        let app = applicable_pairs(&prog, &d);
        // Existential rule now blocked; delivery rule applicable.
        assert_eq!(app.len(), 1);
        assert_eq!(app[0].rule, 1);
        // After delivery fires, nothing is applicable.
        let r = prog.catalog.require("R").unwrap();
        d.insert(r, tuple![1i64]);
        assert!(applicable_pairs(&prog, &d).is_empty());
    }

    #[test]
    fn per_city_experiments() {
        let prog = compile(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            City(metropolis, 0.2).
            Earthquake(C, Flip<0.1>) :- City(C, R).
        "#,
        );
        let app = applicable_pairs(&prog, &prog.initial_instance);
        assert_eq!(app.len(), 2, "one experiment per city");
        // Canonical order: valuations sorted.
        assert!(app[0].valuation < app[1].valuation);
    }

    #[test]
    fn deterministic_rule_blocked_by_existing_fact() {
        let prog = compile(
            r#"
            Unit(H, C) :- House(H, C).
            House(h1, gotham).
        "#,
        );
        let app = applicable_pairs(&prog, &prog.initial_instance);
        assert_eq!(app.len(), 1);
        let mut d = prog.initial_instance.clone();
        let unit = prog.catalog.require("Unit").unwrap();
        d.insert(unit, tuple!["h1", "gotham"]);
        assert!(applicable_pairs(&prog, &d).is_empty());
    }

    #[test]
    fn duplicate_derivations_collapse() {
        // Unit can be derived from two body atoms with the same binding.
        let prog = compile(
            r#"
            P(X) :- Q(X), Q(X).
            Q(1).
        "#,
        );
        let app = applicable_pairs(&prog, &prog.initial_instance);
        assert_eq!(app.len(), 1);
    }

    #[test]
    fn prepared_pairs_match_scratch_pairs() {
        let prog = compile(
            r#"
            rel City(symbol, real) input.
            City(gotham, 0.3).
            Earthquake(C, Flip<0.1>) :- City(C, R).
            Trig(X, Flip<0.6>) :- Earthquake(X, 1).
        "#,
        );
        let prepared = PreparedProgram::new(&prog);
        let mut d = prog.initial_instance.clone();
        let mut index = prepared.new_index(&d);
        assert_eq!(
            prepared.applicable_pairs(&prog, &d, &index),
            applicable_pairs(&prog, &d)
        );
        // Mutate + absorb, and the maintained index stays equivalent.
        let aux = prog.aux_relations[0];
        let t = tuple!["gotham", 0.1, 1i64];
        assert!(d.insert(aux, t.clone()));
        index.absorb(aux, &t);
        assert_eq!(
            prepared.applicable_pairs(&prog, &d, &index),
            applicable_pairs(&prog, &d)
        );
    }

    #[test]
    fn dependents_flag_body_reads_over_head_probes() {
        let prog = compile(
            r#"
            T(X, Z) :- T(X, Y), E(Y, Z).
            T(X, Y) :- E(X, Y).
            E(1, 2).
        "#,
        );
        let prepared = PreparedProgram::new(&prog);
        let t = prog.catalog.require("T").unwrap();
        let e = prog.catalog.require("E").unwrap();
        assert_eq!(prepared.dependents(t), &[(0, true), (1, false)]);
        assert_eq!(prepared.dependents(e), &[(0, true), (1, true)]);
    }

    const CITIES: &str = r#"
        rel City(symbol, real) input.
        rel Noise(symbol) input.
        City(gotham, 0.3).
        City(metropolis, 0.2).
        Earthquake(C, Flip<0.1>) :- City(C, R).
    "#;

    /// A state over `prog` whose cache has just been refreshed (all clean).
    fn clean_state(prog: &CompiledProgram, prepared: &PreparedProgram) -> ChaseState {
        let mut state = ChaseState::new(prepared, prog, prog.initial_instance.clone());
        state.app(prepared, prog);
        assert!(!state.app.any_stale);
        state
    }

    #[test]
    fn unread_relation_insert_leaves_every_rule_clean() {
        let prog = compile(CITIES);
        let prepared = PreparedProgram::new(&prog);
        let mut state = clean_state(&prog, &prepared);
        let noise = prog.catalog.require("Noise").unwrap();
        assert!(prepared.dependents(noise).is_empty());
        assert!(state.insert(&prepared, noise, tuple!["hiss"]));
        assert!(!state.app.any_stale);
        assert!(state.app.stale.iter().all(|&d| d == Stale::Clean));
        let expect = applicable_pairs(&prog, &state.instance);
        assert_eq!(state.app(&prepared, &prog), expect.as_slice());
    }

    #[test]
    fn aux_insert_removes_exactly_the_blocked_existential_pair() {
        let prog = compile(CITIES);
        let prepared = PreparedProgram::new(&prog);
        let mut state = clean_state(&prog, &prepared);
        let before = state.app(&prepared, &prog).to_vec();
        assert_eq!(before.len(), 2, "one experiment per city");
        let aux = prog.aux_relations[0];
        // The experiment fact (key, outcome) of gotham blocks its pair:
        // the existential rule only probes the auxiliary relation, so its
        // list is filtered, while the delivery rule reading it re-enumerates.
        assert!(state.insert(&prepared, aux, tuple!["gotham", 0.1, 1i64]));
        assert_eq!(state.app.stale, vec![Stale::Head, Stale::Body]);
        let existential: Vec<&AppPair> = state
            .app(&prepared, &prog)
            .iter()
            .filter(|p| prog.rules[p.rule].is_existential())
            .collect();
        assert_eq!(existential, vec![&before[1]], "only metropolis survives");
        let expect = applicable_pairs(&prog, &state.instance);
        assert_eq!(state.app(&prepared, &prog), expect.as_slice());
    }

    #[test]
    fn duplicate_insert_marks_nothing_stale() {
        let prog = compile(CITIES);
        let prepared = PreparedProgram::new(&prog);
        let mut state = clean_state(&prog, &prepared);
        let city = prog.catalog.require("City").unwrap();
        assert!(!state.insert(&prepared, city, tuple!["gotham", 0.3]));
        assert!(!state.app.any_stale);
        assert!(state.app.stale.iter().all(|&d| d == Stale::Clean));
        // A fresh fact in the same relation does mark its readers.
        assert!(state.insert(&prepared, city, tuple!["smallville", 0.5]));
        assert_eq!(state.app.stale[0], Stale::Body);
        assert_eq!(state.app(&prepared, &prog).len(), 3);
    }

    #[test]
    fn existential_cache_tracks_existential_rules_only() {
        let prog = compile(CITIES);
        let prepared = PreparedProgram::new(&prog);
        let mut state = ChaseState::existential(&prepared, &prog, prog.initial_instance.clone());
        let aux = prog.aux_relations[0];
        assert!(state.insert(&prepared, aux, tuple!["gotham", 0.1, 1i64]));
        let expect = prepared.applicable_existential_pairs(&prog, &state.instance, &state.index);
        assert_eq!(state.app(&prepared, &prog), expect.as_slice());
    }
}
