//! Association of the existential Datalog program `Ĝ` to a GDatalog
//! program `G` (§3.2 of the paper, rules (3.A)/(3.B)), under either
//! semantics.
//!
//! For a random rule
//! `R(x₁,…,xₙ, ψ⟨p₁,…,pₘ⟩) ← body(x̄)`
//! the translation produces
//!
//! * an **existential rule** (3.A)
//!   `∃y: Ri(x₁,…,xₙ, p₁,…,pₘ, y) ← body(x̄)`, and
//! * a **delivery rule** (3.B)
//!   `R(x₁,…,xₙ, y) ← body(x̄), Ri(x₁,…,xₙ, p₁,…,pₘ, y)`,
//!
//! where `Ri` is a fresh auxiliary relation recording the sampling
//! experiment. The *key* columns of `Ri` (everything but `y`) define the
//! induced functional dependency `FD(φ̂)` (§3.5, Lemma 3.10) and the
//! sample-once discipline: the existential rule is applicable only while no
//! `Ri` fact with the same key exists.
//!
//! [`SemanticsMode::Grohe`] keys experiments per **rule** (fresh `Ri` per
//! source rule, key = deterministic head args + parameters + tags).
//! [`SemanticsMode::Barany`] keys experiments per **distribution name**
//! (one shared `Result_ψ` relation per distribution signature, key =
//! parameters + tags, as in Bárány et al. TODS 2017) — producing exactly the
//! behavioral differences discussed in Example 1.1 and §6.2.
//!
//! Rules whose head carries several random terms are translated with a
//! single joint auxiliary relation holding one outcome column per random
//! term under `Grohe` (the product-density construction the paper sketches
//! after Def. 3.2), and with one experiment per random term under `Barany`.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gdatalog_data::{
    Catalog, ColType, Fact, FunctionalDependency, Instance, RelId, RelationKind, Tuple, Value,
};
use gdatalog_datalog::{Atom as DlAtom, Term as DlTerm};
use gdatalog_dist::{ParamDist, Registry};

use crate::acyclicity::{weak_acyclicity, AcyclicityReport};
use crate::ast::{ObserveAst, ObserveKind, Span, TermAst};
use crate::validate::{check_observe, rule_vars, ValidatedProgram};
use crate::LangError;

/// Which sample-once discipline to compile (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticsMode {
    /// This paper's semantics: one experiment per rule × head valuation ×
    /// parameters.
    Grohe,
    /// Bárány et al. (TODS 2017): one experiment per distribution name ×
    /// parameters × tags.
    Barany,
}

impl fmt::Display for SemanticsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsMode::Grohe => write!(f, "Grohe"),
            SemanticsMode::Barany => write!(f, "Barany"),
        }
    }
}

/// One sampling slot of an existential rule: the distribution and the terms
/// (over the rule's variables) that evaluate to its parameters.
#[derive(Clone)]
pub struct SampleSpec {
    /// The parameterized distribution ψ.
    pub dist: Arc<dyn ParamDist>,
    /// Parameter terms (evaluated under the body valuation to obtain θ).
    pub param_terms: Vec<DlTerm>,
}

/// Two sampling slots are equal when they name the same family — names
/// are unique within the registry a program is compiled against — with
/// equal parameter terms.
impl PartialEq for SampleSpec {
    fn eq(&self, other: &SampleSpec) -> bool {
        self.dist.name() == other.dist.name() && self.param_terms == other.param_terms
    }
}

impl Eq for SampleSpec {}

impl Hash for SampleSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dist.name().hash(state);
        self.param_terms.hash(state);
    }
}

impl fmt::Debug for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SampleSpec({}, {:?})",
            self.dist.name(),
            self.param_terms
        )
    }
}

/// The head of an existential rule (3.A): the auxiliary relation, its key
/// terms, and the sampling slots filling the outcome columns.
#[derive(Debug, Clone)]
pub struct ExistentialHead {
    /// The auxiliary relation `Ri`.
    pub aux_rel: RelId,
    /// Key terms; the aux tuple is `key ++ outcomes`.
    pub key_terms: Vec<DlTerm>,
    /// One sampler per outcome column.
    pub samples: Vec<SampleSpec>,
}

/// One compiled observation: evidence the evaluation conditions on, as
/// produced from `@observe` program clauses (at translation time) or from
/// dynamic evidence text ([`compile_observations`]).
///
/// The conditional semantics is the one of Bárány et al.'s PPDL and the
/// companion PPDB paper (Grohe et al.): a world's prior weight is
/// multiplied by the indicator of every hard observation and by the
/// likelihood of every soft observation (the density of the observed value
/// under the distribution, once per valuation of the observation body),
/// and the surviving mass is renormalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompiledObserve {
    /// The world must contain this ground fact.
    Hard {
        /// The observed fact.
        fact: gdatalog_data::Fact,
    },
    /// For every valuation of `body` over the world, multiply the world's
    /// weight by the density of `value_term` under the distribution.
    Soft {
        /// Deterministic body atoms binding the observation's variables.
        body: Vec<DlAtom>,
        /// Number of body variables.
        n_vars: usize,
        /// The distribution and its parameter terms.
        sample: SampleSpec,
        /// The observed value (evaluated under the body valuation).
        value_term: DlTerm,
    },
}

/// A compiled rule is either deterministic (including the delivery rules
/// (3.B)) or existential (3.A).
#[derive(Debug, Clone)]
pub enum RuleKind {
    /// Ordinary Datalog rule; fires by inserting the head fact.
    Deterministic {
        /// The head atom.
        head: DlAtom,
    },
    /// Existential rule; fires by sampling and inserting an aux fact.
    Existential(ExistentialHead),
}

/// One rule of the compiled Datalog∃ program `Ĝ`.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Stable rule id (index into [`CompiledProgram::rules`]).
    pub id: usize,
    /// Body atoms (all deterministic).
    pub body: Vec<DlAtom>,
    /// Number of rule-local variables (body vars + outcome vars).
    pub n_vars: usize,
    /// Deterministic or existential.
    pub kind: RuleKind,
    /// Index of the source rule in the validated program (delivery rules
    /// share the index of the random rule they originate from).
    pub source_rule: usize,
    /// Source span for diagnostics.
    pub span: Span,
}

impl CompiledRule {
    /// Whether the rule is existential.
    pub fn is_existential(&self) -> bool {
        matches!(self.kind, RuleKind::Existential(_))
    }
}

/// The compiled program: catalog (now including auxiliary relations), the
/// rules of `Ĝ`, the induced FDs, and the acyclicity analysis.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Schema `S = E ∪ I ∪ {Ri}`.
    pub catalog: Catalog,
    /// Distribution family Ψ.
    pub registry: Arc<Registry>,
    /// Rules of the associated Datalog∃ program.
    pub rules: Vec<CompiledRule>,
    /// Which semantics the auxiliary keys implement.
    pub mode: SemanticsMode,
    /// Ground facts from the program text.
    pub initial_instance: Instance,
    /// Non-auxiliary relations (the schema of final results, Remark 4.9).
    pub output_relations: Vec<RelId>,
    /// Auxiliary relations created by the translation.
    pub aux_relations: Vec<RelId>,
    /// The induced functional dependencies `FD(φ̂)` (§3.5).
    pub fds: Vec<FunctionalDependency>,
    /// Weak-acyclicity analysis of the source program (Thm. 6.3).
    pub acyclicity: AcyclicityReport,
    /// Compiled `@observe` clauses — evidence every evaluation of this
    /// program conditions on (extendable per request via
    /// `Evaluation::given`).
    pub observes: Vec<CompiledObserve>,
}

impl CompiledProgram {
    /// Whether the source program is weakly acyclic (hence terminating,
    /// Theorem 6.3).
    pub fn weakly_acyclic(&self) -> bool {
        self.acyclicity.weakly_acyclic
    }

    /// Renders the associated Datalog∃ program `Ĝ` in a readable notation
    /// mirroring rules (3.A)/(3.B) of the paper:
    ///
    /// ```text
    /// ∃y0: @exp0_R(0.5; y0) ← ⊤                      [rule 0, from source rule 0]
    /// R(y0) ← @exp0_R(0.5, y0)                        [rule 1, from source rule 0]
    /// ```
    pub fn render_existential_program(&self) -> String {
        use std::fmt::Write as _;
        let term = |t: &DlTerm| -> String {
            match t {
                DlTerm::Var(v) => format!("v{v}"),
                DlTerm::Const(c) => c.to_string(),
            }
        };
        let atom = |a: &gdatalog_datalog::Atom| -> String {
            let args: Vec<String> = a.args.iter().map(&term).collect();
            format!("{}({})", self.catalog.name(a.rel), args.join(", "))
        };
        let mut out = String::new();
        for rule in &self.rules {
            let body = if rule.body.is_empty() {
                "⊤".to_string()
            } else {
                rule.body.iter().map(&atom).collect::<Vec<_>>().join(", ")
            };
            match &rule.kind {
                RuleKind::Deterministic { head } => {
                    let _ = writeln!(
                        out,
                        "{} ← {}    [rule {}, from source rule {}]",
                        atom(head),
                        body,
                        rule.id,
                        rule.source_rule
                    );
                }
                RuleKind::Existential(e) => {
                    let ys: Vec<String> = (0..e.samples.len()).map(|j| format!("y{j}")).collect();
                    let keys: Vec<String> = e.key_terms.iter().map(&term).collect();
                    let dists: Vec<String> = e
                        .samples
                        .iter()
                        .map(|s| {
                            let ps: Vec<String> = s.param_terms.iter().map(&term).collect();
                            format!("{}⟨{}⟩", s.dist.name(), ps.join(", "))
                        })
                        .collect();
                    let _ = writeln!(
                        out,
                        "∃{}: {}({}; {}) ← {}    [rule {}, samples {}, from source rule {}]",
                        ys.join(", "),
                        self.catalog.name(e.aux_rel),
                        keys.join(", "),
                        ys.join(", "),
                        body,
                        rule.id,
                        dists.join(" × "),
                        rule.source_rule
                    );
                }
            }
        }
        out
    }

    /// Whether every distribution used by the program is discrete — the
    /// precondition for exact chase-tree enumeration.
    pub fn all_discrete(&self) -> bool {
        self.rules.iter().all(|r| match &r.kind {
            RuleKind::Deterministic { .. } => true,
            RuleKind::Existential(e) => e.samples.iter().all(|s| s.dist.is_discrete()),
        })
    }

    /// Restricts an instance to the output schema (drops aux relations).
    pub fn project_output(&self, instance: &Instance) -> Instance {
        let catalog = &self.catalog;
        instance.project_relations(|rel| catalog.decl(rel).kind() != RelationKind::Auxiliary)
    }

    /// Whether the program carries `@observe` clauses (so every evaluation
    /// is conditional).
    pub fn has_observes(&self) -> bool {
        !self.observes.is_empty()
    }
}

/// Term-level helper: converts a deterministic AST term to a Datalog term
/// under a variable numbering.
fn lower_term(
    t: &TermAst,
    var_ix: &HashMap<String, usize>,
    span: Span,
) -> Result<DlTerm, LangError> {
    match t {
        TermAst::Var(v) => var_ix
            .get(v)
            .map(|&i| DlTerm::Var(i))
            .ok_or_else(|| LangError::at(span, format!("unbound variable `{v}`"))),
        TermAst::Const(c) => Ok(DlTerm::Const(c.clone())),
        TermAst::Random { .. } => Err(LangError::at(
            span,
            "random term in a deterministic position",
        )),
        TermAst::Hole { name, span: hsp } => Err(LangError::at(
            *hsp,
            format!(
                "free parameter `?{}` cannot be evaluated; estimate it from data \
                 with `gdl fit` first",
                name.as_deref().unwrap_or("")
            ),
        )),
    }
}

/// Lowers one (already checked) observation clause against a catalog and
/// distribution family.
fn lower_observe(
    o: &ObserveAst,
    catalog: &Catalog,
    registry: &Registry,
) -> Result<CompiledObserve, LangError> {
    // Observations may only reference the output schema. Auxiliary
    // experiment relations are an implementation detail, and — decisive
    // for correctness — the Monte-Carlo backend weighs worlds after the
    // aux projection while exact enumeration weighs them before it, so an
    // aux reference would make the two backends disagree. (The text
    // parser cannot produce `@…` names; this guards programmatically
    // built ASTs.)
    let require_output = |name: &str, span: Span| -> Result<RelId, LangError> {
        let rel = catalog
            .resolve(name)
            .ok_or_else(|| LangError::at(span, format!("unknown relation `{name}`")))?;
        if catalog.decl(rel).kind() == RelationKind::Auxiliary {
            return Err(LangError::at(
                span,
                format!("observations cannot reference the auxiliary relation `{name}`"),
            ));
        }
        Ok(rel)
    };
    match &o.kind {
        ObserveKind::Hard { rel, values } => {
            let rel_id = require_output(rel, o.span)?;
            let tuple = Tuple::from(values.clone());
            catalog
                .check_tuple(rel_id, &tuple)
                .map_err(|e| LangError::at(o.span, e.to_string()))?;
            Ok(CompiledObserve::Hard {
                fact: Fact::new(rel_id, tuple),
            })
        }
        ObserveKind::Soft {
            dist,
            params,
            value,
        } => {
            // Body variables in first-use order, as for rules.
            let mut vars: Vec<String> = Vec::new();
            for a in &o.body {
                for v in a.vars() {
                    if !vars.iter().any(|s| s == v) {
                        vars.push(v.to_string());
                    }
                }
            }
            let var_ix: HashMap<String, usize> = vars
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i))
                .collect();
            let body = o
                .body
                .iter()
                .map(|a| {
                    let rel = require_output(&a.rel, a.span)?;
                    let arity = catalog.decl(rel).arity();
                    if arity != a.args.len() {
                        return Err(LangError::at(
                            a.span,
                            format!(
                                "relation `{}` has arity {arity}, found {} argument(s)",
                                a.rel,
                                a.args.len()
                            ),
                        ));
                    }
                    let args = a
                        .args
                        .iter()
                        .map(|t| lower_term(t, &var_ix, a.span))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(DlAtom::new(rel, args))
                })
                .collect::<Result<Vec<_>, LangError>>()?;
            let d = registry
                .get(dist)
                .ok_or_else(|| LangError::at(o.span, format!("unknown distribution `{dist}`")))?
                .clone();
            let param_terms = params
                .iter()
                .map(|p| lower_term(p, &var_ix, o.span))
                .collect::<Result<Vec<_>, _>>()?;
            let value_term = lower_term(value, &var_ix, o.span)?;
            Ok(CompiledObserve::Soft {
                body,
                n_vars: vars.len(),
                sample: SampleSpec {
                    dist: d,
                    param_terms,
                },
                value_term,
            })
        }
    }
}

/// Compiles **dynamic evidence text** against an already-compiled program:
/// the per-request counterpart of `@observe` program clauses, used by
/// `Evaluation::given(...)`, the serving layer's `"given"` request member
/// and `gdl query --given`. Accepts the same statements with the
/// `@observe` prefix optional (`"Alarm(h1)."`,
/// `"Normal<M, 1.0> == 2.5 :- Mu(M)."`).
///
/// # Errors
/// Syntax errors, unknown relations/distributions, arity and type
/// mismatches, unbound observation variables.
pub fn compile_observations(
    program: &CompiledProgram,
    src: &str,
) -> Result<Vec<CompiledObserve>, LangError> {
    let parsed = crate::parser::parse_observations(src)?;
    parsed
        .iter()
        .map(|o| {
            check_observe(o, &program.registry)?;
            lower_observe(o, &program.catalog, &program.registry)
        })
        .collect()
}

/// Translates a validated GDatalog program into its associated Datalog∃
/// program `Ĝ` (§3.2) under the chosen semantics.
///
/// # Errors
/// Returns a [`LangError`] on internal inconsistencies (which validation
/// should have ruled out) or on auxiliary-relation name clashes.
pub fn translate(
    validated: &ValidatedProgram,
    mode: SemanticsMode,
) -> Result<CompiledProgram, LangError> {
    // A program with free-parameter holes has no semantics to evaluate.
    // Reject it here — before any chase machinery — with an error that
    // names the relation and parameter position of the first hole, so
    // `gdl query`/`gdl serve` report *what* is missing and *where*.
    if let Some(fp) = validated.free_params.first() {
        let more = match validated.free_params.len() {
            1 => String::new(),
            n => format!(" (and {} more)", n - 1),
        };
        return Err(LangError::at(
            fp.span,
            format!(
                "program has free parameter `?{}` at parameter {} of `{}` in the \
                 head of `{}`{more}; estimate it from data with \
                 `gdl fit <program> <data>` before evaluating",
                fp.name.as_deref().unwrap_or(""),
                fp.param_index,
                fp.dist,
                fp.rel,
            ),
        ));
    }
    let acyclicity = weak_acyclicity(validated);
    let mut catalog = validated.catalog.clone();
    let registry = validated.registry.clone();
    let mut rules: Vec<CompiledRule> = Vec::new();
    let mut fds: Vec<FunctionalDependency> = Vec::new();
    let mut aux_relations: Vec<RelId> = Vec::new();
    // Bárány mode: shared aux relation per (dist name, n_params, n_tags).
    let mut shared_aux: HashMap<(String, usize, usize), RelId> = HashMap::new();

    for (rix, rule) in validated.program.rules.iter().enumerate() {
        let vars = rule_vars(&rule.head, &rule.body);
        let var_ix: HashMap<String, usize> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();
        let n_body_vars = vars.len();

        // Lower the body (shared by all rules generated from this rule).
        let body: Vec<DlAtom> = rule
            .body
            .iter()
            .map(|a| {
                let rel = catalog
                    .require(&a.rel)
                    .map_err(|e| LangError::at(a.span, e.to_string()))?;
                let args = a
                    .args
                    .iter()
                    .map(|t| lower_term(t, &var_ix, a.span))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(DlAtom::new(rel, args))
            })
            .collect::<Result<Vec<_>, LangError>>()?;

        let head_rel = catalog
            .require(&rule.head.rel)
            .map_err(|e| LangError::at(rule.head.span, e.to_string()))?;

        // Split the head into deterministic terms and random slots.
        let mut det_terms: Vec<(usize, DlTerm)> = Vec::new(); // (head col, term)
        let mut randoms: Vec<(usize, &TermAst)> = Vec::new();
        for (i, t) in rule.head.args.iter().enumerate() {
            if t.is_random() {
                randoms.push((i, t));
            } else {
                det_terms.push((i, lower_term(t, &var_ix, rule.head.span)?));
            }
        }

        if randoms.is_empty() {
            let head_args = det_terms.into_iter().map(|(_, t)| t).collect();
            rules.push(CompiledRule {
                id: rules.len(),
                body,
                n_vars: n_body_vars,
                kind: RuleKind::Deterministic {
                    head: DlAtom::new(head_rel, head_args),
                },
                source_rule: rix,
                span: rule.span,
            });
            continue;
        }

        // Random rule. Gather per-random-term data.
        struct Rnd {
            head_col: usize,
            dist: Arc<dyn ParamDist>,
            param_terms: Vec<DlTerm>,
            tag_terms: Vec<DlTerm>,
        }
        let mut rnds: Vec<Rnd> = Vec::new();
        for (col, t) in &randoms {
            let TermAst::Random {
                dist,
                params,
                tags,
                span,
            } = t
            else {
                unreachable!("filtered to random terms");
            };
            let d = registry
                .get(dist)
                .ok_or_else(|| LangError::at(*span, format!("unknown distribution `{dist}`")))?
                .clone();
            let param_terms = params
                .iter()
                .map(|p| lower_term(p, &var_ix, *span))
                .collect::<Result<Vec<_>, _>>()?;
            let tag_terms = tags
                .iter()
                .map(|p| lower_term(p, &var_ix, *span))
                .collect::<Result<Vec<_>, _>>()?;
            rnds.push(Rnd {
                head_col: *col,
                dist: d,
                param_terms,
                tag_terms,
            });
        }

        // Outcome variables (fresh, appended after the body variables).
        let outcome_vars: Vec<usize> = (0..rnds.len()).map(|j| n_body_vars + j).collect();

        match mode {
            SemanticsMode::Grohe => {
                // One joint aux relation per source rule:
                // key = det head args ++ (params ++ tags per random term);
                // outcomes = one column per random term.
                let mut key_terms: Vec<DlTerm> = det_terms.iter().map(|(_, t)| t.clone()).collect();
                for r in &rnds {
                    key_terms.extend(r.param_terms.iter().cloned());
                    key_terms.extend(r.tag_terms.iter().cloned());
                }
                let mut cols = vec![ColType::Any; key_terms.len()];
                cols.extend(rnds.iter().map(|r| r.dist.output_type()));
                let aux_name = format!("@exp{rix}_{}", rule.head.rel);
                let aux_rel = catalog
                    .declare_named(&aux_name, cols, RelationKind::Auxiliary)
                    .map_err(|e| LangError::at(rule.span, e.to_string()))?;
                aux_relations.push(aux_rel);
                let arity = key_terms.len() + rnds.len();
                fds.push(FunctionalDependency::new(
                    aux_rel,
                    (0..key_terms.len()).collect(),
                    (key_terms.len()..arity).collect(),
                ));

                // (3.A) existential rule.
                rules.push(CompiledRule {
                    id: rules.len(),
                    body: body.clone(),
                    n_vars: n_body_vars,
                    kind: RuleKind::Existential(ExistentialHead {
                        aux_rel,
                        key_terms: key_terms.clone(),
                        samples: rnds
                            .iter()
                            .map(|r| SampleSpec {
                                dist: r.dist.clone(),
                                param_terms: r.param_terms.clone(),
                            })
                            .collect(),
                    }),
                    source_rule: rix,
                    span: rule.span,
                });

                // (3.B) delivery rule.
                let mut delivery_body = body.clone();
                let mut aux_args = key_terms;
                aux_args.extend(outcome_vars.iter().map(|&v| DlTerm::Var(v)));
                delivery_body.push(DlAtom::new(aux_rel, aux_args));
                let mut head_args: Vec<DlTerm> =
                    vec![DlTerm::Const(Value::int(0)); rule.head.args.len()];
                for (col, t) in &det_terms {
                    head_args[*col] = t.clone();
                }
                for (j, r) in rnds.iter().enumerate() {
                    head_args[r.head_col] = DlTerm::Var(outcome_vars[j]);
                }
                rules.push(CompiledRule {
                    id: rules.len(),
                    body: delivery_body,
                    n_vars: n_body_vars + rnds.len(),
                    kind: RuleKind::Deterministic {
                        head: DlAtom::new(head_rel, head_args),
                    },
                    source_rule: rix,
                    span: rule.span,
                });
            }
            SemanticsMode::Barany => {
                // One experiment per random term, keyed by the distribution
                // signature. Existential rules (3.A), one per random term.
                let mut aux_atoms: Vec<DlAtom> = Vec::new();
                for (j, r) in rnds.iter().enumerate() {
                    let sig = (
                        r.dist.name().to_string(),
                        r.param_terms.len(),
                        r.tag_terms.len(),
                    );
                    let aux_rel = match shared_aux.get(&sig) {
                        Some(&id) => id,
                        None => {
                            let mut cols =
                                vec![ColType::Any; r.param_terms.len() + r.tag_terms.len()];
                            cols.push(r.dist.output_type());
                            let aux_name = format!(
                                "@res_{}_{}_{}",
                                r.dist.name(),
                                r.param_terms.len(),
                                r.tag_terms.len()
                            );
                            let id = catalog
                                .declare_named(&aux_name, cols, RelationKind::Auxiliary)
                                .map_err(|e| LangError::at(rule.span, e.to_string()))?;
                            aux_relations.push(id);
                            let keylen = r.param_terms.len() + r.tag_terms.len();
                            fds.push(FunctionalDependency::new(
                                id,
                                (0..keylen).collect(),
                                vec![keylen],
                            ));
                            shared_aux.insert(sig, id);
                            id
                        }
                    };
                    let mut key_terms = r.param_terms.clone();
                    key_terms.extend(r.tag_terms.iter().cloned());
                    rules.push(CompiledRule {
                        id: rules.len(),
                        body: body.clone(),
                        n_vars: n_body_vars,
                        kind: RuleKind::Existential(ExistentialHead {
                            aux_rel,
                            key_terms: key_terms.clone(),
                            samples: vec![SampleSpec {
                                dist: r.dist.clone(),
                                param_terms: r.param_terms.clone(),
                            }],
                        }),
                        source_rule: rix,
                        span: rule.span,
                    });
                    let mut aux_args = key_terms;
                    aux_args.push(DlTerm::Var(outcome_vars[j]));
                    aux_atoms.push(DlAtom::new(aux_rel, aux_args));
                }
                // (3.B) delivery rule joining all experiments.
                let mut delivery_body = body.clone();
                delivery_body.extend(aux_atoms);
                let mut head_args: Vec<DlTerm> =
                    vec![DlTerm::Const(Value::int(0)); rule.head.args.len()];
                for (col, t) in &det_terms {
                    head_args[*col] = t.clone();
                }
                for (j, r) in rnds.iter().enumerate() {
                    head_args[r.head_col] = DlTerm::Var(outcome_vars[j]);
                }
                rules.push(CompiledRule {
                    id: rules.len(),
                    body: delivery_body,
                    n_vars: n_body_vars + rnds.len(),
                    kind: RuleKind::Deterministic {
                        head: DlAtom::new(head_rel, head_args),
                    },
                    source_rule: rix,
                    span: rule.span,
                });
            }
        }
    }

    let output_relations = catalog
        .iter()
        .filter(|(_, d)| d.kind() != RelationKind::Auxiliary)
        .map(|(id, _)| id)
        .collect();

    // Lower the program's own `@observe` clauses against the final catalog
    // (validation already checked their well-formedness).
    let observes = validated
        .program
        .observes
        .iter()
        .map(|o| lower_observe(o, &catalog, &registry))
        .collect::<Result<Vec<_>, _>>()?;

    Ok(CompiledProgram {
        catalog,
        registry,
        rules,
        mode,
        initial_instance: validated.initial_instance.clone(),
        output_relations,
        aux_relations,
        fds,
        acyclicity,
        observes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::validate::validate;

    fn compile(src: &str, mode: SemanticsMode) -> CompiledProgram {
        let v = validate(parse_program(src).unwrap(), Arc::new(Registry::standard())).unwrap();
        translate(&v, mode).unwrap()
    }

    #[test]
    fn holed_programs_rejected_with_location() {
        let v = validate(
            parse_program("H(Normal<?mu, ?>) :- Obs(X).").unwrap(),
            Arc::new(Registry::standard()),
        )
        .unwrap();
        let err = translate(&v, SemanticsMode::Grohe).unwrap_err();
        assert!(err.message.contains("free parameter `?mu`"), "{err}");
        assert!(err.message.contains("parameter 0 of `Normal`"), "{err}");
        assert!(err.message.contains("head of `H`"), "{err}");
        assert!(err.message.contains("and 1 more"), "{err}");
        assert!(err.message.contains("gdl fit"), "{err}");
        assert!(err.span.is_some());
    }

    #[test]
    fn deterministic_rules_pass_through() {
        let c = compile("Alarm(X) :- Trig(X, 1).", SemanticsMode::Grohe);
        assert_eq!(c.rules.len(), 1);
        assert!(!c.rules[0].is_existential());
        assert!(c.aux_relations.is_empty());
    }

    #[test]
    fn random_rule_splits_into_3a_and_3b() {
        let c = compile(
            "Earthquake(C, Flip<0.1>) :- City(C, R).",
            SemanticsMode::Grohe,
        );
        assert_eq!(c.rules.len(), 2);
        assert!(c.rules[0].is_existential());
        assert!(!c.rules[1].is_existential());
        assert_eq!(c.aux_relations.len(), 1);
        // Aux key: deterministic head arg C plus param 0.1 → arity 3 with
        // one outcome column.
        let aux = c.aux_relations[0];
        assert_eq!(c.catalog.decl(aux).arity(), 3);
        assert_eq!(c.fds.len(), 1);
        assert_eq!(c.fds[0].lhs, vec![0, 1]);
        assert_eq!(c.fds[0].rhs, vec![2]);
        // Delivery rule body = original body + aux atom.
        assert_eq!(c.rules[1].body.len(), 2);
    }

    #[test]
    fn grohe_gives_each_rule_its_own_experiment() {
        // Program G0 of Example 1.1.
        let c = compile(
            "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
            SemanticsMode::Grohe,
        );
        assert_eq!(c.aux_relations.len(), 2, "two rules → two experiments");
    }

    #[test]
    fn barany_shares_experiments_by_distribution() {
        let c = compile(
            "R(Flip<0.5>) :- true. R(Flip<0.5>) :- true.",
            SemanticsMode::Barany,
        );
        assert_eq!(c.aux_relations.len(), 1, "same distribution → shared");
        // But a renamed distribution gets its own relation (G′0).
        let c2 = compile(
            "R(Flip<0.5>) :- true. R(Bernoulli<0.5>) :- true.",
            SemanticsMode::Barany,
        );
        assert_eq!(c2.aux_relations.len(), 2);
    }

    #[test]
    fn multi_random_head_uses_joint_aux_in_grohe() {
        let c = compile(
            "P(Flip<0.5>, Normal<0.0, 1.0>) :- Seed(X).",
            SemanticsMode::Grohe,
        );
        // 1 existential + 1 delivery.
        assert_eq!(c.rules.len(), 2);
        match &c.rules[0].kind {
            RuleKind::Existential(e) => {
                assert_eq!(e.samples.len(), 2);
                assert_eq!(e.samples[0].dist.name(), "Flip");
                assert_eq!(e.samples[1].dist.name(), "Normal");
            }
            other => panic!("expected existential, got {other:?}"),
        }
    }

    #[test]
    fn multi_random_head_uses_separate_experiments_in_barany() {
        let c = compile(
            "P(Flip<0.5>, Normal<0.0, 1.0>) :- Seed(X).",
            SemanticsMode::Barany,
        );
        // 2 existential + 1 delivery.
        assert_eq!(c.rules.len(), 3);
        assert_eq!(c.rules.iter().filter(|r| r.is_existential()).count(), 2);
    }

    #[test]
    fn output_projection_drops_aux() {
        let c = compile("R(Flip<0.5>) :- true.", SemanticsMode::Grohe);
        let mut inst = Instance::new();
        let aux = c.aux_relations[0];
        let r = c.catalog.require("R").unwrap();
        inst.insert(aux, gdatalog_data::tuple![0.5, 1i64]);
        inst.insert(r, gdatalog_data::tuple![1i64]);
        let out = c.project_output(&inst);
        assert_eq!(out.len(), 1);
        assert!(out.contains(r, &gdatalog_data::tuple![1i64]));
    }

    #[test]
    fn all_discrete_detection() {
        assert!(compile("R(Flip<0.5>) :- true.", SemanticsMode::Grohe).all_discrete());
        assert!(!compile("R(Normal<0.0, 1.0>) :- true.", SemanticsMode::Grohe).all_discrete());
    }

    #[test]
    fn tags_enter_the_aux_key() {
        let c = compile("G(Geometric<0.5 | X>) :- Seed(X).", SemanticsMode::Grohe);
        let aux = c.aux_relations[0];
        // key = param 0.5 + tag X → 2 key cols + outcome.
        assert_eq!(c.catalog.decl(aux).arity(), 3);
    }

    #[test]
    fn observations_cannot_reference_auxiliary_relations() {
        // The text parser cannot spell `@…` names, but programmatically
        // built ASTs could; the lowering must refuse them, because exact
        // and Monte-Carlo backends weigh worlds on opposite sides of the
        // aux projection.
        let c = compile("R(Flip<0.5>) :- true.", SemanticsMode::Grohe);
        let aux_name = c.catalog.name(c.aux_relations[0]).to_string();
        let hard = ObserveAst {
            kind: crate::ast::ObserveKind::Hard {
                rel: aux_name.clone(),
                values: vec![Value::real(0.5), Value::int(1)],
            },
            body: Vec::new(),
            span: Span::default(),
        };
        let err = lower_observe(&hard, &c.catalog, &c.registry).unwrap_err();
        assert!(err.message.contains("auxiliary"), "{err}");
        let soft = ObserveAst {
            kind: crate::ast::ObserveKind::Soft {
                dist: "Flip".into(),
                params: vec![TermAst::Const(Value::real(0.5))],
                value: TermAst::Var("X".into()),
            },
            body: vec![crate::ast::AtomAst {
                rel: aux_name,
                args: vec![TermAst::Const(Value::real(0.5)), TermAst::Var("X".into())],
                span: Span::default(),
            }],
            span: Span::default(),
        };
        let err = lower_observe(&soft, &c.catalog, &c.registry).unwrap_err();
        assert!(err.message.contains("auxiliary"), "{err}");
    }

    #[test]
    fn weak_acyclicity_is_recorded() {
        let c = compile("C(Normal<V, 1.0>) :- C(V).", SemanticsMode::Grohe);
        assert!(!c.weakly_acyclic());
        let c2 = compile("R(Flip<0.5>) :- true.", SemanticsMode::Grohe);
        assert!(c2.weakly_acyclic());
    }

    #[test]
    fn renders_existential_program() {
        let c = compile(
            "Earthquake(C, Flip<0.1>) :- City(C, R).",
            SemanticsMode::Grohe,
        );
        let rendered = c.render_existential_program();
        assert!(rendered.contains("∃y0"), "{rendered}");
        assert!(rendered.contains("Flip⟨0.1⟩"), "{rendered}");
        assert!(
            rendered.contains("Earthquake(v0, y0)") || rendered.contains("Earthquake(v0, v2)"),
            "{rendered}"
        );
        assert_eq!(rendered.lines().count(), 2, "3.A and 3.B");
    }
}
