//! First-class queries: many statistics, one backend pass.
//!
//! The paper's probabilistic-database semantics defines *many* statistics
//! over one distribution ⟦P⟧ — marginals, event probabilities, aggregate
//! moments (Fact 2.6) — and a serving client typically asks several of
//! them about the same program and input. This module makes queries
//! **data**: a [`QueryIr`] names one statistic, a [`QuerySet`] is an
//! ordered bundle of them validated once against the program schema, and
//! [`Evaluation::answer`](crate::Evaluation::answer) drives **one**
//! backend pass whose world stream is fanned out to every query's sink
//! through a [`gdatalog_pdb::MultiplexSink`] — so a K-statistics request
//! costs one chase/enumeration/Monte-Carlo pass instead of K.
//!
//! Every single-query terminal of [`Evaluation`](crate::Evaluation) is
//! sugar over this surface, which keeps the two bit-identical by
//! construction.
//!
//! ```
//! use gdatalog_core::{Answer, QuerySet, Session};
//! use gdatalog_data::{tuple, Fact};
//! use gdatalog_lang::SemanticsMode;
//! use gdatalog_pdb::AggFun;
//!
//! let s = Session::from_source(
//!     "R(Flip<0.25>) :- true. S(X) :- R(X).",
//!     SemanticsMode::Grohe,
//! ).unwrap();
//! let r = s.program().catalog.require("R").unwrap();
//! let queries = QuerySet::new()
//!     .marginal(&Fact::new(r, tuple![1i64]))
//!     .marginals(r)
//!     .expectation(&gdatalog_pdb::Query::Rel(r), AggFun::Sum);
//! let answers = s.eval().answer(&queries).unwrap();   // one pass, 3 answers
//! assert_eq!(answers.len(), 3);
//! assert_eq!(answers[0], Answer::Marginal(0.25));
//! ```

use std::ops::Index;

use gdatalog_data::{Fact, RelId};
use gdatalog_lang::CompiledProgram;
use gdatalog_pdb::{
    AggFun, ColPred, ColumnHistogram, CountOp, Event, EventProbabilitySink, FactSet, HistogramSink,
    MarginalSink, Moments, MomentsSink, QuantileSink, Query, RelationMarginalsSink, WorldSink,
};

use crate::engine::EngineError;
use crate::session::EvidenceSummary;

/// One statistic over the denoted distribution, as **data**: the query IR
/// compiled by [`QuerySet::validate`] and answered by
/// [`Evaluation::answer`](crate::Evaluation::answer). Each kind mirrors a
/// single-query terminal; [`Quantile`](QueryIr::Quantile) and
/// [`Tail`](QueryIr::Tail) are additionally available as terminals
/// [`quantile`](crate::Evaluation::quantile) and
/// [`tail_probability`](crate::Evaluation::tail_probability).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryIr {
    /// `P(fact ∈ D)` of one fact.
    Marginal {
        /// The fact.
        fact: Fact,
    },
    /// The marginal of every tuple of `rel` occurring in some world.
    Marginals {
        /// The relation.
        rel: RelId,
    },
    /// The probability of a measurable [`Event`] (§2.3 of the paper).
    Probability {
        /// The event.
        event: Event,
    },
    /// Mean/variance of an aggregate of a [`Query`]'s answers per world.
    Expectation {
        /// The relational-algebra query.
        query: Query,
        /// Aggregate applied to the last column of the answers.
        agg: AggFun,
    },
    /// Probability-weighted fixed-bin histogram of a numeric column.
    Histogram {
        /// The relation.
        rel: RelId,
        /// Column index.
        col: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
        /// Number of equal-width bins.
        bins: usize,
    },
    /// Weighted `q`-quantile of the values at a numeric column: the
    /// smallest value whose cumulative world-weighted mass reaches `q`
    /// of the total observed value mass.
    Quantile {
        /// The relation.
        rel: RelId,
        /// Column index.
        col: usize,
        /// The quantile, in `[0, 1]`.
        q: f64,
    },
    /// Tail probability: `P(some fact of rel has column value ≥ threshold)`
    /// — sugar over a counting event with a half-open
    /// [`ColPred::Range`].
    Tail {
        /// The relation.
        rel: RelId,
        /// Column index.
        col: usize,
        /// Inclusive threshold.
        threshold: f64,
    },
}

impl QueryIr {
    /// The kind name (for diagnostics and wire rendering).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryIr::Marginal { .. } => "marginal",
            QueryIr::Marginals { .. } => "marginals",
            QueryIr::Probability { .. } => "probability",
            QueryIr::Expectation { .. } => "expectation",
            QueryIr::Histogram { .. } => "histogram",
            QueryIr::Quantile { .. } => "quantile",
            QueryIr::Tail { .. } => "tail",
        }
    }

    /// Checks the query against the program schema: relations must exist,
    /// column indices must be within arity, histogram bounds must be
    /// finite with `lo < hi` and `bins > 0`, quantiles must lie in
    /// `[0, 1]`. Returning an error here (instead of panicking in a sink
    /// constructor mid-pass) is what makes a `QuerySet` safe to build
    /// from untrusted wire input.
    fn validate(&self, program: &CompiledProgram) -> Result<(), EngineError> {
        let bad = |msg: String| Err(EngineError::InvalidRequest(msg));
        let check_rel = |rel: RelId| -> Result<(), EngineError> {
            if rel.index() >= program.catalog.len() {
                return Err(EngineError::InvalidRequest(format!(
                    "{}: relation id {} out of range (catalog has {} relations)",
                    self.kind(),
                    rel.index(),
                    program.catalog.len()
                )));
            }
            Ok(())
        };
        let check_col = |rel: RelId, col: usize| -> Result<(), EngineError> {
            check_rel(rel)?;
            let arity = program.catalog.decl(rel).arity();
            if col >= arity {
                return Err(EngineError::InvalidRequest(format!(
                    "{}: column {col} out of range for {} (arity {arity})",
                    self.kind(),
                    program.catalog.name(rel)
                )));
            }
            Ok(())
        };
        match self {
            QueryIr::Marginal { fact } => check_rel(fact.rel),
            QueryIr::Marginals { rel } => check_rel(*rel),
            // Events carry resolved relation ids but no column arithmetic;
            // nothing further to check statically.
            QueryIr::Probability { .. } => Ok(()),
            // A relational-algebra tree indexes tuples by column in
            // Select/Project/Join/Aggregate; walk it so an out-of-arity
            // column is InvalidRequest here, not an index panic mid-pass.
            QueryIr::Expectation { query, .. } => query_arity(query, program).map(|_| ()),
            QueryIr::Histogram {
                rel,
                col,
                lo,
                hi,
                bins,
            } => {
                check_col(*rel, *col)?;
                if !lo.is_finite() || !hi.is_finite() || lo >= hi || *bins == 0 {
                    return bad(format!(
                        "histogram: need finite lo < hi and bins > 0 \
                         (got lo {lo}, hi {hi}, bins {bins})"
                    ));
                }
                Ok(())
            }
            QueryIr::Quantile { rel, col, q } => {
                check_col(*rel, *col)?;
                if !(0.0..=1.0).contains(q) {
                    return bad(format!("quantile: need q in [0, 1], got {q}"));
                }
                Ok(())
            }
            QueryIr::Tail {
                rel,
                col,
                threshold,
            } => {
                check_col(*rel, *col)?;
                if threshold.is_nan() {
                    return bad("tail: threshold must not be NaN".to_string());
                }
                Ok(())
            }
        }
    }

    /// The fresh sink answering this query (validated queries only).
    fn sink(&self) -> Box<dyn WorldSink> {
        match self {
            QueryIr::Marginal { fact } => Box::new(MarginalSink::new(fact.clone())),
            QueryIr::Marginals { rel } => Box::new(RelationMarginalsSink::new(*rel)),
            QueryIr::Probability { event } => Box::new(EventProbabilitySink::new(event.clone())),
            QueryIr::Expectation { query, agg } => {
                Box::new(MomentsSink::new(query.clone(), *agg, 0.0))
            }
            QueryIr::Histogram {
                rel,
                col,
                lo,
                hi,
                bins,
            } => Box::new(HistogramSink::new(*rel, *col, *lo, *hi, *bins)),
            QueryIr::Quantile { rel, col, q } => Box::new(QuantileSink::new(*rel, *col, *q)),
            QueryIr::Tail {
                rel,
                col,
                threshold,
            } => Box::new(EventProbabilitySink::new(tail_event(
                *rel, *col, *threshold,
            ))),
        }
    }

    /// Folds the finished sink back into a typed [`Answer`], normalizing
    /// by `norm` (the observed evidence mass) under conditioning —
    /// reproducing each single-query terminal's arithmetic exactly.
    fn finish(&self, sink: Box<dyn WorldSink>, norm: Option<f64>) -> Answer {
        let sink = sink.into_any();
        let normalized = |p: f64| norm.map_or(p, |total| p / total);
        match self {
            QueryIr::Marginal { .. } => Answer::Marginal(normalized(
                sink.downcast::<MarginalSink>()
                    .expect("marginal sink")
                    .finish(),
            )),
            QueryIr::Marginals { .. } => {
                let rows = sink
                    .downcast::<RelationMarginalsSink>()
                    .expect("marginals sink")
                    .finish();
                Answer::Marginals(
                    rows.into_iter()
                        .map(|(fact, p)| (fact, normalized(p)))
                        .collect(),
                )
            }
            QueryIr::Probability { .. } => Answer::Probability(normalized(
                sink.downcast::<EventProbabilitySink>()
                    .expect("probability sink")
                    .finish(),
            )),
            // The moments sink self-normalizes by its observed mass, so no
            // extra correction applies under conditioning (the terminal
            // behaves identically).
            QueryIr::Expectation { .. } => Answer::Expectation(
                sink.downcast::<MomentsSink>()
                    .expect("expectation sink")
                    .finish(),
            ),
            QueryIr::Histogram { .. } => {
                let mut hist = sink
                    .downcast::<HistogramSink>()
                    .expect("histogram sink")
                    .finish();
                if let Some(total) = norm {
                    for bin in &mut hist.bins {
                        *bin /= total;
                    }
                    hist.underflow /= total;
                    hist.overflow /= total;
                    hist.nan /= total;
                    hist.mass /= total;
                }
                Answer::Histogram(hist)
            }
            // Quantiles are invariant under rescaling the weights, so the
            // conditioned and unconditioned readings coincide.
            QueryIr::Quantile { .. } => Answer::Quantile(
                sink.downcast::<QuantileSink>()
                    .expect("quantile sink")
                    .finish(),
            ),
            QueryIr::Tail { .. } => Answer::Tail(normalized(
                sink.downcast::<EventProbabilitySink>()
                    .expect("tail sink")
                    .finish(),
            )),
        }
    }
}

/// Computes the output arity of a relational-algebra tree, checking every
/// column index the evaluator would use to index a tuple — the static
/// half of the untrusted-input contract of [`QuerySet::validate`]:
/// [`gdatalog_pdb::eval_query`] indexes tuples directly (Select
/// predicates, Project/Aggregate columns, Join keys), so an out-of-range
/// column must be rejected here rather than panic mid-pass.
fn query_arity(query: &Query, program: &CompiledProgram) -> Result<usize, EngineError> {
    let bad = |msg: String| Err(EngineError::InvalidRequest(msg));
    let check_cols = |what: &str, cols: &[usize], arity: usize| -> Result<(), EngineError> {
        match cols.iter().find(|&&c| c >= arity) {
            Some(c) => Err(EngineError::InvalidRequest(format!(
                "expectation: {what} column {c} out of range (input arity {arity})"
            ))),
            None => Ok(()),
        }
    };
    match query {
        Query::Rel(rel) => {
            if rel.index() >= program.catalog.len() {
                return bad(format!(
                    "expectation: relation id {} out of range (catalog has {} relations)",
                    rel.index(),
                    program.catalog.len()
                ));
            }
            Ok(program.catalog.decl(*rel).arity())
        }
        Query::Select { input, preds } => {
            let arity = query_arity(input, program)?;
            let cols: Vec<usize> = preds.iter().map(|(c, _)| *c).collect();
            check_cols("selection", &cols, arity)?;
            Ok(arity)
        }
        Query::Project { input, cols } => {
            let arity = query_arity(input, program)?;
            check_cols("projection", cols, arity)?;
            Ok(cols.len())
        }
        Query::Join { left, right, on } => {
            let l = query_arity(left, program)?;
            let r = query_arity(right, program)?;
            let lcols: Vec<usize> = on.iter().map(|(lc, _)| *lc).collect();
            let rcols: Vec<usize> = on.iter().map(|(_, rc)| *rc).collect();
            check_cols("left join", &lcols, l)?;
            check_cols("right join", &rcols, r)?;
            Ok(l + r)
        }
        // Union/Diff compare whole tuples without indexing; arity
        // mismatches between the sides are legal (if unusual) inputs to
        // the evaluator, so only the subtrees are checked.
        Query::Union(a, b) | Query::Diff(a, b) => {
            let arity = query_arity(a, program)?;
            query_arity(b, program)?;
            Ok(arity)
        }
        Query::Aggregate {
            input,
            group_by,
            agg,
            col,
        } => {
            let arity = query_arity(input, program)?;
            check_cols("group-by", group_by, arity)?;
            // Count never indexes the aggregated column.
            if *agg != AggFun::Count {
                check_cols("aggregate", &[*col], arity)?;
            }
            Ok(group_by.len() + 1)
        }
    }
}

/// The counting event behind [`QueryIr::Tail`]: at least one fact of
/// `rel` whose column `col` carries a numeric value in `[threshold, ∞]`.
///
/// [`ColPred::Range`] is half-open (`lo ≤ x < hi`), so `hi = ∞` alone
/// would exclude a column value of exactly `+∞` — representable in this
/// engine's value domain — and the tail would disagree with
/// [`QuantileSink`] on the same data. The
/// event therefore disjoins an explicit `+∞` equality clause.
pub fn tail_event(rel: RelId, col: usize, threshold: f64) -> Event {
    let at_least_one = |pred: ColPred| {
        let mut cols = vec![ColPred::Any; col];
        cols.push(pred);
        Event::Count {
            set: FactSet { rel, cols },
            op: CountOp::AtLeast,
            n: 1,
        }
    };
    at_least_one(ColPred::Range {
        lo: threshold,
        hi: f64::INFINITY,
    })
    .or(at_least_one(ColPred::Eq(gdatalog_data::Value::real(
        f64::INFINITY,
    ))))
}

/// An ordered bundle of [`QueryIr`] queries, answered together by
/// [`Evaluation::answer`](crate::Evaluation::answer) in a **single**
/// backend pass. Order is preserved: answer `i` of the returned
/// [`Answers`] belongs to query `i`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySet {
    queries: Vec<QueryIr>,
}

impl QuerySet {
    /// An empty set (answering it still runs one pass and reports the
    /// [`EvidenceSummary`] — the diagnostics-only request).
    pub fn new() -> QuerySet {
        QuerySet::default()
    }

    /// Appends a query; returns its index (= its answer's position).
    pub fn push(&mut self, query: QueryIr) -> usize {
        self.queries.push(query);
        self.queries.len() - 1
    }

    /// Appends a marginal query for `fact` (chainable).
    pub fn marginal(mut self, fact: &Fact) -> QuerySet {
        self.push(QueryIr::Marginal { fact: fact.clone() });
        self
    }

    /// Appends an all-fact-marginals query for `rel` (chainable).
    pub fn marginals(mut self, rel: RelId) -> QuerySet {
        self.push(QueryIr::Marginals { rel });
        self
    }

    /// Appends an event-probability query (chainable).
    pub fn probability(mut self, event: &Event) -> QuerySet {
        self.push(QueryIr::Probability {
            event: event.clone(),
        });
        self
    }

    /// Appends an aggregate-moments query (chainable).
    pub fn expectation(mut self, query: &Query, agg: AggFun) -> QuerySet {
        self.push(QueryIr::Expectation {
            query: query.clone(),
            agg,
        });
        self
    }

    /// Appends a histogram query (chainable).
    pub fn histogram(mut self, rel: RelId, col: usize, lo: f64, hi: f64, bins: usize) -> QuerySet {
        self.push(QueryIr::Histogram {
            rel,
            col,
            lo,
            hi,
            bins,
        });
        self
    }

    /// Appends a quantile query (chainable).
    pub fn quantile(mut self, rel: RelId, col: usize, q: f64) -> QuerySet {
        self.push(QueryIr::Quantile { rel, col, q });
        self
    }

    /// Appends a tail-probability query (chainable).
    pub fn tail(mut self, rel: RelId, col: usize, threshold: f64) -> QuerySet {
        self.push(QueryIr::Tail {
            rel,
            col,
            threshold,
        });
        self
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the set holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in answer order.
    pub fn queries(&self) -> &[QueryIr] {
        &self.queries
    }

    /// Checks every query against the program schema — the compile step
    /// run once per [`answer`](crate::Evaluation::answer) call, before
    /// any backend work.
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] naming the offending query.
    pub fn validate(&self, program: &CompiledProgram) -> Result<(), EngineError> {
        for query in &self.queries {
            query.validate(program)?;
        }
        Ok(())
    }

    /// One fresh sink per query, in query order.
    pub(crate) fn sinks(&self) -> Vec<Box<dyn WorldSink>> {
        self.queries.iter().map(QueryIr::sink).collect()
    }

    /// Folds the finished sinks back into typed answers, in query order.
    pub(crate) fn finish(&self, sinks: Vec<Box<dyn WorldSink>>, norm: Option<f64>) -> Vec<Answer> {
        debug_assert_eq!(self.queries.len(), sinks.len());
        self.queries
            .iter()
            .zip(sinks)
            .map(|(query, sink)| query.finish(sink, norm))
            .collect()
    }
}

impl FromIterator<QueryIr> for QuerySet {
    fn from_iter<I: IntoIterator<Item = QueryIr>>(iter: I) -> QuerySet {
        QuerySet {
            queries: iter.into_iter().collect(),
        }
    }
}

impl Extend<QueryIr> for QuerySet {
    fn extend<I: IntoIterator<Item = QueryIr>>(&mut self, iter: I) {
        self.queries.extend(iter);
    }
}

/// The typed answer to one [`QueryIr`], in the same position as its query.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A marginal probability.
    Marginal(f64),
    /// All fact marginals of a relation, sorted by tuple.
    Marginals(Vec<(Fact, f64)>),
    /// An event probability.
    Probability(f64),
    /// Moments of an aggregate (`None` when no world mass was observed).
    Expectation(Option<Moments>),
    /// A column histogram.
    Histogram(ColumnHistogram),
    /// A weighted quantile (`None` when no value mass was observed).
    Quantile(Option<f64>),
    /// A tail probability.
    Tail(f64),
}

impl Answer {
    /// The scalar probability carried by `Marginal` / `Probability` /
    /// `Tail` answers.
    pub fn as_probability(&self) -> Option<f64> {
        match self {
            Answer::Marginal(p) | Answer::Probability(p) | Answer::Tail(p) => Some(*p),
            _ => None,
        }
    }
}

/// The query-order-preserving result bundle of
/// [`Evaluation::answer`](crate::Evaluation::answer): one [`Answer`] per
/// query, plus the pass's [`EvidenceSummary`] (the weight statistics the
/// shared normalizer accumulated — computed **once** for the whole set).
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    answers: Vec<Answer>,
    evidence: EvidenceSummary,
    conditioned: bool,
}

impl Answers {
    pub(crate) fn new(answers: Vec<Answer>, evidence: EvidenceSummary, conditioned: bool) -> Self {
        Answers {
            answers,
            evidence,
            conditioned,
        }
    }

    /// Number of answers (= number of queries asked).
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether the bundle is empty.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The answer at query position `i`.
    pub fn get(&self, i: usize) -> Option<&Answer> {
        self.answers.get(i)
    }

    /// Iterates the answers in query order.
    pub fn iter(&self) -> std::slice::Iter<'_, Answer> {
        self.answers.iter()
    }

    /// The evidence summary of the shared pass: observed mass, effective
    /// sample size, world count. Under conditioning this is the
    /// normalizing constant every answer was divided by; unconditioned it
    /// reports the observed world mass (mirroring
    /// [`Evaluation::evidence`](crate::Evaluation::evidence)).
    pub fn evidence(&self) -> EvidenceSummary {
        self.evidence
    }

    /// Whether the pass was conditioned (program `@observe` clauses or
    /// per-request `given` evidence).
    pub fn conditioned(&self) -> bool {
        self.conditioned
    }

    /// The answers, in query order.
    pub fn into_vec(self) -> Vec<Answer> {
        self.answers
    }
}

impl Index<usize> for Answers {
    type Output = Answer;
    fn index(&self, i: usize) -> &Answer {
        &self.answers[i]
    }
}

impl IntoIterator for Answers {
    type Item = Answer;
    type IntoIter = std::vec::IntoIter<Answer>;
    fn into_iter(self) -> Self::IntoIter {
        self.answers.into_iter()
    }
}

impl<'a> IntoIterator for &'a Answers {
    type Item = &'a Answer;
    type IntoIter = std::slice::Iter<'a, Answer>;
    fn into_iter(self) -> Self::IntoIter {
        self.answers.iter()
    }
}
