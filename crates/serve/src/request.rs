//! The batch wire format: one [`Request`] per independent unit of work,
//! one [`Reply`] per answer.
//!
//! Requests name relations and facts **textually** (`"Alarm(h0)"`) so they
//! can travel as JSON; the executor resolves them against the cached
//! program's catalog at evaluation time. Each request carries its own
//! input facts (inserted into the pooled session before evaluation),
//! conditioning evidence, backend choice, and Monte-Carlo configuration —
//! requests in one batch are fully independent, which is what makes
//! batched execution embarrassingly parallel *and* bit-reproducible.
//!
//! A request may ask **several queries at once** (the `"queries"` wire
//! member / [`Request::query`]); the executor answers all of them in one
//! backend pass over the session, so a K-statistics dashboard request
//! costs one chase instead of K. The answer is a [`Reply`]: one
//! [`Response`] per query in query order, plus conditioning diagnostics
//! (evidence mass, effective sample size) when the request was
//! conditioned.
//!
//! ```
//! use gdatalog_serve::{Request, json::Json};
//!
//! let req = Request::marginal("Alarm(h0)").input("City(h0, 0.3).").seed(7);
//! let parsed = Request::from_json(&Json::parse(
//!     r#"{"kind": "marginal", "fact": "Alarm(h0)", "input": "City(h0, 0.3).", "seed": 7}"#,
//! ).unwrap()).unwrap();
//! assert_eq!(req, parsed);
//!
//! // Multi-query: one pass, three answers, order preserved.
//! let multi = Request::from_json(&Json::parse(
//!     r#"{"queries": [
//!         {"kind": "marginal", "fact": "Alarm(h0)"},
//!         {"kind": "expectation", "rel": "Alarm"},
//!         {"kind": "quantile", "rel": "Reading", "col": 1, "q": 0.5}
//!     ], "input": "City(h0, 0.3)."}"#,
//! ).unwrap()).unwrap();
//! assert_eq!(multi.queries.len(), 3);
//! ```

use gdatalog_core::EvidenceSummary;
use gdatalog_data::{Catalog, Fact};
use gdatalog_lang::CompiledProgram;
use gdatalog_pdb::{AggFun, ColumnHistogram, Moments};

use crate::json::Json;
use crate::ServeError;

/// Which evaluation strategy a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// Let the builder pick: exact for discrete programs, Monte-Carlo for
    /// continuous ones.
    #[default]
    Auto,
    /// Exact sequential chase-tree enumeration.
    Exact,
    /// Exact parallel chase enumeration.
    ExactParallel,
    /// Monte-Carlo path sampling.
    Mc,
    /// Single-site Metropolis-Hastings over chase traces — posterior
    /// sampling that stays effective where likelihood weighting's
    /// effective sample size collapses under sharp evidence.
    Mh,
}

impl BackendSpec {
    /// Every backend, in wire-documentation order.
    pub(crate) const ALL: [BackendSpec; 5] = [
        BackendSpec::Auto,
        BackendSpec::Exact,
        BackendSpec::ExactParallel,
        BackendSpec::Mc,
        BackendSpec::Mh,
    ];

    /// The backend's name on the wire (the `"backend"` member).
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            BackendSpec::Auto => "auto",
            BackendSpec::Exact => "exact",
            BackendSpec::ExactParallel => "exact-parallel",
            BackendSpec::Mc => "mc",
            BackendSpec::Mh => "mh",
        }
    }
}

/// One query of a request, with textual relation/fact references.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// `P(fact ∈ D)` for one fact, e.g. `"Alarm(h0)"`.
    Marginal {
        /// The fact, in program syntax (trailing `.` optional).
        fact: String,
    },
    /// The marginal of every tuple of a relation occurring in some world.
    Marginals {
        /// Relation name.
        rel: String,
    },
    /// Probability that **all** listed facts are present (a conjunctive
    /// event over fact containment, §2.3).
    Probability {
        /// Ground facts in program syntax, e.g. `"Alarm(h0). Alarm(h1)."`.
        facts: String,
    },
    /// Mean/variance of an aggregate over a relation's tuples per world.
    Expectation {
        /// Relation name.
        rel: String,
        /// Aggregate applied per world.
        agg: AggFun,
        /// Column to aggregate (projected to the aggregate position);
        /// `None` aggregates whole tuples (only meaningful for `count`).
        col: Option<usize>,
    },
    /// Probability-weighted fixed-bin histogram of a numeric column.
    Histogram {
        /// Relation name.
        rel: String,
        /// Column index.
        col: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
        /// Number of equal-width bins.
        bins: usize,
    },
    /// Weighted `q`-quantile of the values at a numeric column.
    Quantile {
        /// Relation name.
        rel: String,
        /// Column index.
        col: usize,
        /// The quantile, in `[0, 1]`.
        q: f64,
    },
    /// Tail probability `P(some fact has column value ≥ threshold)`.
    Tail {
        /// Relation name.
        rel: String,
        /// Column index.
        col: usize,
        /// Inclusive threshold.
        threshold: f64,
    },
}

/// One independent request: one or more queries answered in a **single**
/// backend pass over one session state.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The queries to answer, in answer order. Every query of one request
    /// shares the request's input facts, evidence, backend, and seed —
    /// and one evaluation pass.
    pub queries: Vec<QueryKind>,
    /// Ground facts (program syntax) inserted into the session before
    /// evaluation — the request's **input** facts. (Renamed from
    /// `evidence`, which wrongly suggested conditioning; the JSON parser
    /// still accepts the old `"evidence"` key as an alias.)
    pub input: Option<String>,
    /// Observation statements to **condition** on (`@observe` syntax with
    /// the prefix optional): hard ground facts (`"Alarm(h0)."`) and soft
    /// likelihood statements (`"Normal<M, 1.0> == 2.5 :- Mu(M)."`). The
    /// answer is then the posterior given this evidence, self-normalized.
    pub given: Option<String>,
    /// Evaluation strategy.
    pub backend: BackendSpec,
    /// Monte-Carlo run count (applies when the Monte-Carlo backend is
    /// selected or auto-picked).
    pub runs: Option<usize>,
    /// Monte-Carlo master seed.
    pub seed: Option<u64>,
    /// Chase depth/step budget.
    pub max_depth: Option<usize>,
    /// Metropolis-Hastings burn-in steps (the `mh` backend only).
    pub burn_in: Option<usize>,
    /// Metropolis-Hastings thinning interval (the `mh` backend only).
    pub thin: Option<usize>,
    /// Adaptive run control (the wire member `"infer": {"mode": "ess",
    /// "target": …}`): grow the Monte-Carlo run count in doubling batches
    /// until the conditioned pass's effective sample size reaches this
    /// target. Incompatible with the exact and `mh` backends.
    pub ess_target: Option<f64>,
    /// Run-count cap for adaptive inference (wire member
    /// `"infer": {…, "max_runs": …}`).
    pub max_runs: Option<usize>,
    /// Cooperative evaluation deadline, set by the serving layer (not part
    /// of the wire format): the chase aborts with
    /// `EngineError::DeadlineExceeded` once it has passed.
    pub deadline: Option<std::time::Instant>,
}

impl Request {
    fn new(query: QueryKind) -> Request {
        Request::multi(vec![query])
    }

    /// A request asking several queries at once (one backend pass).
    pub fn multi(queries: Vec<QueryKind>) -> Request {
        Request {
            queries,
            input: None,
            given: None,
            backend: BackendSpec::Auto,
            runs: None,
            seed: None,
            max_depth: None,
            burn_in: None,
            thin: None,
            ess_target: None,
            max_runs: None,
            deadline: None,
        }
    }

    /// A marginal request for one fact, e.g. `"Alarm(h0)"`.
    pub fn marginal(fact: impl Into<String>) -> Request {
        Request::new(QueryKind::Marginal { fact: fact.into() })
    }

    /// An all-fact-marginals request for one relation.
    pub fn marginals(rel: impl Into<String>) -> Request {
        Request::new(QueryKind::Marginals { rel: rel.into() })
    }

    /// A conjunctive event-probability request: all listed facts present.
    pub fn probability(facts: impl Into<String>) -> Request {
        Request::new(QueryKind::Probability {
            facts: facts.into(),
        })
    }

    /// An expectation request over a relation.
    pub fn expectation(rel: impl Into<String>, agg: AggFun) -> Request {
        Request::new(QueryKind::Expectation {
            rel: rel.into(),
            agg,
            col: None,
        })
    }

    /// A histogram request over `rel`'s column `col`.
    pub fn histogram(rel: impl Into<String>, col: usize, lo: f64, hi: f64, bins: usize) -> Request {
        Request::new(QueryKind::Histogram {
            rel: rel.into(),
            col,
            lo,
            hi,
            bins,
        })
    }

    /// A quantile request over `rel`'s column `col`.
    pub fn quantile(rel: impl Into<String>, col: usize, q: f64) -> Request {
        Request::new(QueryKind::Quantile {
            rel: rel.into(),
            col,
            q,
        })
    }

    /// A tail-probability request over `rel`'s column `col`.
    pub fn tail(rel: impl Into<String>, col: usize, threshold: f64) -> Request {
        Request::new(QueryKind::Tail {
            rel: rel.into(),
            col,
            threshold,
        })
    }

    /// Appends another query to the request — all queries of one request
    /// are answered by a single backend pass, in append order.
    pub fn query(mut self, query: QueryKind) -> Request {
        self.queries.push(query);
        self
    }

    /// Sets the request's input facts.
    pub fn input(mut self, facts: impl Into<String>) -> Request {
        self.input = Some(facts.into());
        self
    }

    /// Back-compat alias for [`Request::input`] (the member used to be
    /// called `evidence`, which wrongly suggested conditioning — use
    /// [`Request::given`] for that).
    pub fn evidence(self, facts: impl Into<String>) -> Request {
        self.input(facts)
    }

    /// Conditions the request on observation statements (the wire
    /// counterpart of `Evaluation::given`).
    pub fn given(mut self, observations: impl Into<String>) -> Request {
        self.given = Some(observations.into());
        self
    }

    /// Forces exact sequential enumeration.
    pub fn exact(mut self) -> Request {
        self.backend = BackendSpec::Exact;
        self
    }

    /// Forces Monte-Carlo sampling with `runs` runs.
    pub fn mc(mut self, runs: usize) -> Request {
        self.backend = BackendSpec::Mc;
        self.runs = Some(runs);
        self
    }

    /// Forces Metropolis-Hastings sampling keeping `samples` states.
    pub fn mh(mut self, samples: usize) -> Request {
        self.backend = BackendSpec::Mh;
        self.runs = Some(samples);
        self
    }

    /// Sets the Metropolis-Hastings burn-in step count.
    pub fn burn_in(mut self, steps: usize) -> Request {
        self.burn_in = Some(steps);
        self
    }

    /// Sets the Metropolis-Hastings thinning interval.
    pub fn thin(mut self, every: usize) -> Request {
        self.thin = Some(every);
        self
    }

    /// Asks for ESS-adaptive Monte-Carlo inference: run count grows in
    /// doubling batches until the conditioned pass's effective sample
    /// size reaches `target` (the wire's `"infer"` member).
    pub fn ess_target(mut self, target: f64) -> Request {
        self.ess_target = Some(target);
        self
    }

    /// Caps the run count of ESS-adaptive inference.
    pub fn max_runs(mut self, cap: usize) -> Request {
        self.max_runs = Some(cap);
        self
    }

    /// Sets the Monte-Carlo master seed.
    pub fn seed(mut self, seed: u64) -> Request {
        self.seed = Some(seed);
        self
    }

    /// Sets the chase depth/step budget.
    pub fn max_depth(mut self, depth: usize) -> Request {
        self.max_depth = Some(depth);
        self
    }

    /// Sets a cooperative evaluation deadline (serving-layer concern; not
    /// part of the wire format).
    pub fn deadline(mut self, deadline: std::time::Instant) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Parses one request object of the batch wire format: either the
    /// single-query form (`"kind"` and its fields at top level) or the
    /// multi-query form (a `"queries"` array of such objects, sharing the
    /// top-level configuration members).
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on unknown kinds, missing fields, a
    /// request mixing both forms, or one failing [`Request::validate`].
    pub fn from_json(v: &Json) -> Result<Request, ServeError> {
        // Optional members: absent is fine, present-but-invalid (wrong
        // type, negative, fractional, or beyond the exact-f64 range) is
        // an error — never a silent fallback to a default.
        let opt_str = |key: &str| -> Result<Option<String>, ServeError> {
            match v.get(key) {
                None => Ok(None),
                Some(s) => s.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
                    ServeError::BadRequest(format!("`{key}` must be a string, got {}", s.render()))
                }),
            }
        };
        let opt_usize = |key: &str| -> Result<Option<usize>, ServeError> {
            match v.get(key) {
                None => Ok(None),
                Some(n) => n.as_usize().map(Some).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "`{key}` must be a non-negative whole number, got {}",
                        n.render()
                    ))
                }),
            }
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, ServeError> {
            match v.get(key) {
                None => Ok(None),
                Some(n) => n.as_u64().map(Some).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "`{key}` must be a whole number in [0, 2^53] — JSON numbers \
                         are f64, so larger values do not survive the wire — got {}",
                        n.render()
                    ))
                }),
            }
        };
        let queries = match v.get("queries") {
            Some(arr) => {
                if v.get("kind").is_some() {
                    return Err(ServeError::BadRequest(
                        "a request carries either a top-level `kind` (single query) \
                         or a `queries` array, not both"
                            .to_string(),
                    ));
                }
                let items = arr.as_array().ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "`queries` must be an array, got {}",
                        arr.render()
                    ))
                })?;
                if items.is_empty() {
                    return Err(ServeError::BadRequest(
                        "`queries` must not be empty".to_string(),
                    ));
                }
                items
                    .iter()
                    .map(query_from_json)
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => vec![query_from_json(v)?],
        };
        let backend = opt_str("backend")?;
        let backend = backend.as_deref().unwrap_or("auto");
        let backend = BackendSpec::ALL
            .into_iter()
            .find(|b| b.wire_name() == backend)
            .ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "unknown backend `{backend}` (expected auto | exact | exact-parallel | mc | mh)"
                ))
            })?;
        // Adaptive inference: `"infer": {"mode": "ess", "target": …,
        // "max_runs"?: …}`. Only the `ess` mode exists today; an explicit
        // unknown mode is an error, not a silent fixed-run fallback.
        let (ess_target, max_runs) = match v.get("infer") {
            None => (None, None),
            Some(obj) => {
                let mode = obj.get("mode").and_then(Json::as_str).ok_or_else(|| {
                    ServeError::BadRequest("`infer` needs a string `mode`".to_string())
                })?;
                if mode != "ess" {
                    return Err(ServeError::BadRequest(format!(
                        "unknown infer mode `{mode}` (expected ess)"
                    )));
                }
                let target = obj.get("target").and_then(Json::as_f64).ok_or_else(|| {
                    ServeError::BadRequest("`infer` needs a numeric `target`".to_string())
                })?;
                let cap = match obj.get("max_runs") {
                    None => None,
                    Some(n) => Some(n.as_usize().ok_or_else(|| {
                        ServeError::BadRequest(format!(
                            "`infer.max_runs` must be a non-negative whole number, got {}",
                            n.render()
                        ))
                    })?),
                };
                (Some(target), cap)
            }
        };
        // `input` is the member's name; `evidence` stays accepted as a
        // back-compat alias (it never meant conditioning — that's
        // `given`). Both at once would be ambiguous.
        let input = match (opt_str("input")?, opt_str("evidence")?) {
            (Some(_), Some(_)) => {
                return Err(ServeError::BadRequest(
                    "`input` and its legacy alias `evidence` are the same member; \
                     send only one"
                        .to_string(),
                ))
            }
            (input, legacy) => input.or(legacy),
        };
        let request = Request {
            queries,
            input,
            given: opt_str("given")?,
            backend,
            runs: opt_usize("runs")?,
            seed: opt_u64("seed")?,
            max_depth: opt_usize("max_depth")?,
            burn_in: opt_usize("burn_in")?,
            thin: opt_usize("thin")?,
            ess_target,
            max_runs,
            // Deadlines are a serving-layer policy (set from the server's
            // configuration), not a wire member a client can extend.
            deadline: None,
        };
        request.validate()?;
        Ok(request)
    }

    /// The checks that do not depend on the program, in one place for
    /// parsed, builder-made and CLI-lowered requests alike: at least one
    /// query; an ESS target that is finite and ≥ 1 and rides on a
    /// sampling backend other than MH; a run cap only with an ESS target;
    /// burn-in and thinning only with MH. [`Request::from_json`] runs
    /// them at parse time and the executor before any evaluation.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] naming the offending member.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::BadRequest(msg));
        if self.queries.is_empty() {
            return bad("request asks no queries".to_string());
        }
        if let Some(target) = self.ess_target {
            if !target.is_finite() || target < 1.0 {
                return bad(format!(
                    "`infer.target` must be a finite effective sample size ≥ 1, got {target}"
                ));
            }
            if !matches!(self.backend, BackendSpec::Auto | BackendSpec::Mc) {
                return bad(format!(
                    "`infer` (ESS-adaptive run control) requires the Monte-Carlo \
                     backend, but the request asks for `{}`",
                    self.backend.wire_name()
                ));
            }
        } else if self.max_runs.is_some() {
            return bad(
                "`infer.max_runs` caps ESS-adaptive run growth; it needs an \
                 `infer` target"
                    .to_string(),
            );
        }
        if self.backend != BackendSpec::Mh && (self.burn_in.is_some() || self.thin.is_some()) {
            return bad(
                "`burn_in`/`thin` configure the Metropolis-Hastings chain; they \
                 need the `mh` backend"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Whether the request evaluates by sampling rather than by exact
    /// enumeration: an explicit backend decides; `auto` samples under an
    /// ESS target or when `program` draws from a continuous distribution.
    pub fn samples(&self, program: &CompiledProgram) -> bool {
        match self.backend {
            BackendSpec::Mc | BackendSpec::Mh => true,
            BackendSpec::Exact | BackendSpec::ExactParallel => false,
            BackendSpec::Auto => self.ess_target.is_some() || !program.all_discrete(),
        }
    }
}

/// The request objects of a batch document: a top-level array, or an
/// object with a `requests` array — the shapes `gdl batch`,
/// `POST /v1/batch` and the load generator all read.
///
/// # Errors
/// [`ServeError::Json`] when the document has neither shape.
pub fn batch_items(doc: &Json) -> Result<&[Json], ServeError> {
    doc.get("requests")
        .and_then(Json::as_array)
        .or_else(|| doc.as_array())
        .ok_or_else(|| {
            ServeError::Json(
                "expected a top-level array of requests or an object with a `requests` array"
                    .to_string(),
            )
        })
}

/// Parses an aggregate name as the wire's `agg` member spells it.
///
/// # Errors
/// [`ServeError::BadRequest`] for a name other than `count | sum | avg |
/// min | max`.
pub fn parse_agg(name: &str) -> Result<AggFun, ServeError> {
    Ok(match name {
        "count" => AggFun::Count,
        "sum" => AggFun::Sum,
        "avg" => AggFun::Avg,
        "min" => AggFun::Min,
        "max" => AggFun::Max,
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown aggregate `{other}`"
            )))
        }
    })
}

/// Parses one query object (the `"kind"` + kind-specific fields shape
/// used both at request top level and inside a `"queries"` array).
///
/// # Errors
/// [`ServeError::BadRequest`] on unknown kinds or missing fields.
pub fn query_from_json(v: &Json) -> Result<QueryKind, ServeError> {
    let bad = |msg: &str| ServeError::BadRequest(msg.to_string());
    let str_field = |key: &str| -> Result<String, ServeError> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::BadRequest(format!("request needs a string `{key}`")))
    };
    let opt_str = |key: &str| -> Result<Option<String>, ServeError> {
        match v.get(key) {
            None => Ok(None),
            Some(s) => s.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
                ServeError::BadRequest(format!("`{key}` must be a string, got {}", s.render()))
            }),
        }
    };
    let opt_usize = |key: &str| -> Result<Option<usize>, ServeError> {
        match v.get(key) {
            None => Ok(None),
            Some(n) => n.as_usize().map(Some).ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "`{key}` must be a non-negative whole number, got {}",
                    n.render()
                ))
            }),
        }
    };
    let num_field = |key: &str, what: &str| -> Result<f64, ServeError> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| ServeError::BadRequest(format!("{what} needs a numeric `{key}`")))
    };
    let kind = str_field("kind")?;
    Ok(match kind.as_str() {
        "marginal" => QueryKind::Marginal {
            fact: str_field("fact")?,
        },
        "marginals" => QueryKind::Marginals {
            rel: str_field("rel")?,
        },
        "probability" => QueryKind::Probability {
            facts: str_field("facts")?,
        },
        "expectation" => QueryKind::Expectation {
            rel: str_field("rel")?,
            agg: parse_agg(opt_str("agg")?.as_deref().unwrap_or("count"))?,
            col: opt_usize("col")?,
        },
        "histogram" => QueryKind::Histogram {
            rel: str_field("rel")?,
            col: opt_usize("col")?.ok_or_else(|| bad("histogram needs an integer `col`"))?,
            lo: num_field("lo", "histogram")?,
            hi: num_field("hi", "histogram")?,
            bins: opt_usize("bins")?.unwrap_or(20),
        },
        "quantile" => QueryKind::Quantile {
            rel: str_field("rel")?,
            col: opt_usize("col")?.ok_or_else(|| bad("quantile needs an integer `col`"))?,
            q: num_field("q", "quantile")?,
        },
        "tail" => QueryKind::Tail {
            rel: str_field("rel")?,
            col: opt_usize("col")?.ok_or_else(|| bad("tail needs an integer `col`"))?,
            threshold: num_field("threshold", "tail")?,
        },
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown request kind `{other}` (expected marginal | marginals | \
                 probability | expectation | histogram | quantile | tail)"
            )))
        }
    })
}

/// The answer to one query of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A marginal probability.
    Marginal(f64),
    /// A conjunctive event probability.
    Probability(f64),
    /// Moments of an aggregate (`None` when no world mass was observed).
    Expectation(Option<Moments>),
    /// A column histogram.
    Histogram(ColumnHistogram),
    /// All fact marginals of a relation, facts rendered in program syntax.
    Marginals(Vec<(String, f64)>),
    /// A weighted quantile (`None` when no value mass was observed).
    Quantile(Option<f64>),
    /// A tail probability.
    Tail(f64),
}

impl Response {
    /// The wire name of the response's query kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Marginal(_) => "marginal",
            Response::Probability(_) => "probability",
            Response::Expectation(_) => "expectation",
            Response::Histogram(_) => "histogram",
            Response::Marginals(_) => "marginals",
            Response::Quantile(_) => "quantile",
            Response::Tail(_) => "tail",
        }
    }

    /// Renders the response as a JSON object tagged with its kind.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("kind".into(), Json::Str(self.kind().into()))];
        members.extend(match self {
            Response::Marginal(p) | Response::Probability(p) | Response::Tail(p) => {
                vec![("p".into(), Json::Num(*p))]
            }
            Response::Expectation(None) | Response::Quantile(None) => {
                vec![("empty".into(), Json::Bool(true))]
            }
            Response::Expectation(Some(m)) => vec![
                ("mean".into(), Json::Num(m.mean)),
                ("variance".into(), Json::Num(m.variance)),
                ("mass".into(), Json::Num(m.mass)),
            ],
            Response::Histogram(h) => vec![
                ("lo".into(), Json::Num(h.lo)),
                ("hi".into(), Json::Num(h.hi)),
                (
                    "bins".into(),
                    Json::Arr(h.bins.iter().map(|c| Json::Num(*c)).collect()),
                ),
                ("underflow".into(), Json::Num(h.underflow)),
                ("overflow".into(), Json::Num(h.overflow)),
                ("nan".into(), Json::Num(h.nan)),
                ("mass".into(), Json::Num(h.mass)),
            ],
            Response::Marginals(rows) => vec![(
                "marginals".into(),
                Json::Arr(
                    rows.iter()
                        .map(|(fact, p)| {
                            Json::Obj(vec![
                                ("fact".into(), Json::Str(fact.clone())),
                                ("p".into(), Json::Num(*p)),
                            ])
                        })
                        .collect(),
                ),
            )],
            Response::Quantile(Some(value)) => vec![("value".into(), Json::Num(*value))],
        });
        Json::Obj(members)
    }
}

/// The full answer to one [`Request`]: one [`Response`] per query in
/// query order, plus the pass's conditioning diagnostics when the
/// request was conditioned (`given` / program `@observe` clauses).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// One response per query, in query order.
    pub responses: Vec<Response>,
    /// The evidence summary of the (single, shared) conditioned pass:
    /// observed mass and effective sample size. `None` for
    /// unconditioned requests.
    pub evidence: Option<EvidenceSummary>,
}

impl Reply {
    /// The sole response of a single-query request.
    ///
    /// # Panics
    /// Panics unless the reply answers exactly one query.
    pub fn single(&self) -> &Response {
        assert_eq!(
            self.responses.len(),
            1,
            "Reply::single on a {}-query reply",
            self.responses.len()
        );
        &self.responses[0]
    }

    /// Renders the reply as JSON. Replies answering exactly **one**
    /// query keep the flat pre-multi-query shape (`{"kind": …, …}`) —
    /// regardless of whether the request used the top-level or the
    /// `"queries": [...]` form — gaining an `"evidence"` member when
    /// conditioned; replies answering several render as
    /// `{"kind": "multi", "answers": […], "evidence"?: …}`. Clients
    /// parse unambiguously by branching on `kind == "multi"` (no flat
    /// answer shape uses that tag).
    pub fn to_json(&self) -> Json {
        let evidence = self.evidence.as_ref().map(|ev| {
            // `log_mass` is the authoritative evidence figure — `mass` is
            // its exponential and reads 0 once the log drops below ≈ −745
            // (kept for back-compat; see docs/API.md).
            let mut members = vec![
                ("mass".into(), Json::Num(ev.mass)),
                ("log_mass".into(), Json::Num(ev.log_mass)),
                ("ess".into(), Json::Num(ev.ess)),
                ("worlds".into(), Json::Num(ev.worlds as f64)),
                ("runs".into(), Json::Num(ev.runs as f64)),
            ];
            if let Some(rate) = ev.accept_rate {
                members.push(("accept_rate".into(), Json::Num(rate)));
            }
            Json::Obj(members)
        });
        if self.responses.len() == 1 {
            let mut obj = match self.responses[0].to_json() {
                Json::Obj(members) => members,
                other => vec![("answer".into(), other)],
            };
            if let Some(ev) = evidence {
                obj.push(("evidence".into(), ev));
            }
            return Json::Obj(obj);
        }
        let mut obj = vec![
            ("kind".into(), Json::Str("multi".into())),
            (
                "answers".into(),
                Json::Arr(self.responses.iter().map(Response::to_json).collect()),
            ),
        ];
        if let Some(ev) = evidence {
            obj.push(("evidence".into(), ev));
        }
        Json::Obj(obj)
    }
}

/// Renders a fact in program syntax against a catalog, e.g. `Alarm(h0)`.
pub fn fact_text(fact: &Fact, catalog: &Catalog) -> String {
    let mut line = format!("{}(", catalog.name(fact.rel));
    for (i, v) in fact.tuple.values().iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!("{v}"));
    }
    line.push(')');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let reqs = r#"[
            {"kind": "marginal", "fact": "A(x)"},
            {"kind": "marginals", "rel": "A", "backend": "exact-parallel"},
            {"kind": "probability", "facts": "A(x). A(y).", "backend": "mc", "runs": 100},
            {"kind": "expectation", "rel": "A", "agg": "sum", "col": 1},
            {"kind": "histogram", "rel": "A", "col": 0, "lo": 0, "hi": 1, "bins": 4},
            {"kind": "quantile", "rel": "A", "col": 0, "q": 0.5},
            {"kind": "tail", "rel": "A", "col": 0, "threshold": 2.5}
        ]"#;
        let parsed: Vec<Request> = Json::parse(reqs)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| Request::from_json(v).unwrap())
            .collect();
        assert_eq!(parsed.len(), 7);
        assert_eq!(parsed[1].backend, BackendSpec::ExactParallel);
        assert_eq!(parsed[2].runs, Some(100));
        assert!(matches!(
            &parsed[3].queries[0],
            QueryKind::Expectation {
                agg: AggFun::Sum,
                col: Some(1),
                ..
            }
        ));
        assert!(matches!(
            &parsed[5].queries[0],
            QueryKind::Quantile { q, .. } if (*q - 0.5).abs() < 1e-12
        ));
        assert!(matches!(
            &parsed[6].queries[0],
            QueryKind::Tail { threshold, .. } if (*threshold - 2.5).abs() < 1e-12
        ));
    }

    #[test]
    fn parses_multi_query_requests() {
        let v = Json::parse(
            r#"{"queries": [
                {"kind": "marginal", "fact": "A(x)"},
                {"kind": "expectation", "rel": "A"},
                {"kind": "tail", "rel": "A", "col": 0, "threshold": 1}
            ], "input": "B(x).", "seed": 9}"#,
        )
        .unwrap();
        let req = Request::from_json(&v).unwrap();
        assert_eq!(req.queries.len(), 3);
        assert_eq!(req.input.as_deref(), Some("B(x)."));
        assert_eq!(req.seed, Some(9));
        // Mixing the single- and multi-query forms is ambiguous.
        let both = Json::parse(
            r#"{"kind": "marginal", "fact": "A(x)",
                "queries": [{"kind": "marginals", "rel": "A"}]}"#,
        )
        .unwrap();
        assert!(Request::from_json(&both).is_err());
        // An empty queries array asks nothing — reject it.
        let empty = Json::parse(r#"{"queries": []}"#).unwrap();
        assert!(Request::from_json(&empty).is_err());
    }

    #[test]
    fn evidence_is_a_back_compat_alias_for_input() {
        let legacy =
            Json::parse(r#"{"kind": "marginal", "fact": "A(x)", "evidence": "B(x)."}"#).unwrap();
        let renamed =
            Json::parse(r#"{"kind": "marginal", "fact": "A(x)", "input": "B(x)."}"#).unwrap();
        assert_eq!(
            Request::from_json(&legacy).unwrap(),
            Request::from_json(&renamed).unwrap()
        );
        // Both at once is ambiguous — error, not silent preference.
        let both = Json::parse(
            r#"{"kind": "marginal", "fact": "A(x)", "input": "B(x).", "evidence": "C(x)."}"#,
        )
        .unwrap();
        assert!(Request::from_json(&both).is_err());
        // The Rust builder alias matches the rename too.
        assert_eq!(
            Request::marginal("A(x)").evidence("B(x)."),
            Request::marginal("A(x)").input("B(x).")
        );
    }

    #[test]
    fn parses_mh_and_adaptive_inference_members() {
        let v = Json::parse(
            r#"{"kind": "marginal", "fact": "A(x)", "backend": "mh",
                "runs": 500, "burn_in": 100, "thin": 3}"#,
        )
        .unwrap();
        let req = Request::from_json(&v).unwrap();
        assert_eq!(req.backend, BackendSpec::Mh);
        assert_eq!(req.runs, Some(500));
        assert_eq!(req.burn_in, Some(100));
        assert_eq!(req.thin, Some(3));
        assert_eq!(req, Request::marginal("A(x)").mh(500).burn_in(100).thin(3));

        let v = Json::parse(
            r#"{"kind": "marginal", "fact": "A(x)",
                "infer": {"mode": "ess", "target": 200, "max_runs": 100000}}"#,
        )
        .unwrap();
        let req = Request::from_json(&v).unwrap();
        assert_eq!(req.ess_target, Some(200.0));
        assert_eq!(req.max_runs, Some(100_000));
        assert_eq!(
            req,
            Request::marginal("A(x)")
                .ess_target(200.0)
                .max_runs(100_000)
        );

        // Malformed adaptive specs error instead of degrading to a
        // fixed-run evaluation.
        for bad in [
            r#"{"kind": "marginal", "fact": "A(x)", "infer": {"target": 200}}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "infer": {"mode": "magic", "target": 200}}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "infer": {"mode": "ess"}}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "infer": {"mode": "ess", "target": 0.5}}"#,
            r#"{"kind": "marginal", "fact": "A(x)",
                "infer": {"mode": "ess", "target": 200, "max_runs": -1}}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "burn_in": -3}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "thin": 1.5}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn validation_rejects_program_independent_contradictions() {
        let bad_request = |r: Request| matches!(r.validate(), Err(ServeError::BadRequest(_)));
        // MH chain controls without the MH backend.
        assert!(bad_request(Request::marginal("A(x)").burn_in(5)));
        assert!(bad_request(Request::marginal("A(x)").exact().thin(2)));
        assert!(Request::marginal("A(x)")
            .mh(10)
            .burn_in(5)
            .thin(2)
            .validate()
            .is_ok());
        // A run cap without an ESS target.
        assert!(bad_request(Request::marginal("A(x)").max_runs(1_000)));
        assert!(Request::marginal("A(x)")
            .ess_target(10.0)
            .max_runs(1_000)
            .validate()
            .is_ok());
        // ESS targets: finite, ≥ 1, and on a Monte-Carlo backend.
        for target in [f64::NAN, f64::INFINITY, 0.0, 0.5] {
            assert!(bad_request(Request::marginal("A(x)").ess_target(target)));
        }
        assert!(bad_request(
            Request::marginal("A(x)").exact().ess_target(10.0)
        ));
        assert!(bad_request(
            Request::marginal("A(x)").mh(10).ess_target(10.0)
        ));
        assert!(Request::marginal("A(x)")
            .mc(10)
            .ess_target(10.0)
            .validate()
            .is_ok());
        assert!(bad_request(Request::multi(Vec::new())));
        // The parser runs the same checks, so a batch document carrying
        // one of these fails as a whole.
        for bad in [
            r#"{"kind": "marginal", "fact": "A(x)", "burn_in": 5}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "backend": "exact", "thin": 2}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "backend": "exact",
                "infer": {"mode": "ess", "target": 10}}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(
                matches!(Request::from_json(&v), Err(ServeError::BadRequest(_))),
                "{bad} should be rejected at parse time"
            );
        }
    }

    #[test]
    fn infer_rejection_names_the_backend_by_its_wire_name() {
        let exact_parallel = Request {
            backend: BackendSpec::ExactParallel,
            ..Request::marginal("A(x)")
        };
        for (request, name) in [
            (Request::marginal("A(x)").exact(), "exact"),
            (exact_parallel, "exact-parallel"),
            (Request::marginal("A(x)").mh(10), "mh"),
        ] {
            let reason = request.ess_target(10.0).validate().unwrap_err().to_string();
            assert!(
                reason.ends_with(&format!("the request asks for `{name}`")),
                "{reason}"
            );
        }
        for backend in BackendSpec::ALL {
            let doc = format!(
                r#"{{"kind": "marginal", "fact": "A(x)", "backend": "{}"}}"#,
                backend.wire_name()
            );
            let parsed = Request::from_json(&Json::parse(&doc).unwrap()).unwrap();
            assert_eq!(parsed.backend, backend, "{doc}");
        }
    }

    #[test]
    fn batch_items_reads_both_document_shapes() {
        let arr = Json::parse(r#"[{"kind": "marginals", "rel": "A"}]"#).unwrap();
        assert_eq!(batch_items(&arr).unwrap().len(), 1);
        let obj = Json::parse(r#"{"requests": [{"kind": "marginals", "rel": "A"}, 1]}"#).unwrap();
        assert_eq!(batch_items(&obj).unwrap().len(), 2);
        for bad in [r#"{"requests": 5}"#, r#"{"nope": []}"#, "7"] {
            let v = Json::parse(bad).unwrap();
            assert!(matches!(batch_items(&v), Err(ServeError::Json(_))), "{bad}");
        }
    }

    #[test]
    fn rejects_unknown_kind_and_backend() {
        let v = Json::parse(r#"{"kind": "zorp"}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
        let v = Json::parse(r#"{"kind": "marginal", "fact": "A(x)", "backend": "gpu"}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
    }

    #[test]
    fn invalid_numeric_members_error_instead_of_degrading() {
        // A present-but-invalid `runs` must not silently fall back to the
        // 10,000-run default.
        for bad in [
            r#"{"kind": "marginal", "fact": "A(x)", "runs": -5}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "runs": 1.5}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "seed": "seven"}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "max_depth": -1}"#,
            r#"{"kind": "histogram", "rel": "A", "col": 0, "lo": 0, "hi": 1, "bins": 2.5}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "evidence": 5}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "input": 5}"#,
            r#"{"kind": "marginal", "fact": "A(x)", "backend": 5}"#,
            r#"{"kind": "expectation", "rel": "A", "agg": 3}"#,
            r#"{"kind": "quantile", "rel": "A", "col": 0}"#,
            r#"{"kind": "tail", "rel": "A", "col": 0}"#,
            r#"{"queries": 5}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} should be rejected");
        }
        // Large-but-exact run counts parse instead of being dropped.
        let v = Json::parse(r#"{"kind": "marginal", "fact": "A(x)", "runs": 5000000000}"#).unwrap();
        assert_eq!(Request::from_json(&v).unwrap().runs, Some(5_000_000_000));
    }

    #[test]
    fn responses_render_as_json() {
        let r = Response::Marginal(0.25);
        assert_eq!(r.to_json().render(), r#"{"kind": "marginal", "p": 0.25}"#);
        let e = Response::Expectation(None);
        assert_eq!(
            e.to_json().render(),
            r#"{"kind": "expectation", "empty": true}"#
        );
        let q = Response::Quantile(Some(1.5));
        assert_eq!(
            q.to_json().render(),
            r#"{"kind": "quantile", "value": 1.5}"#
        );
        let t = Response::Tail(0.1);
        assert_eq!(t.to_json().render(), r#"{"kind": "tail", "p": 0.1}"#);
    }

    #[test]
    fn replies_render_flat_single_and_tagged_multi() {
        // Single-query replies keep the old flat shape.
        let single = Reply {
            responses: vec![Response::Marginal(0.25)],
            evidence: None,
        };
        assert_eq!(
            single.to_json().render(),
            r#"{"kind": "marginal", "p": 0.25}"#
        );
        // Conditioned single-query replies gain the diagnostics member.
        let conditioned = Reply {
            responses: vec![Response::Marginal(1.0)],
            evidence: Some(EvidenceSummary {
                mass: 0.06,
                log_mass: -2.5,
                ess: 3.0,
                worlds: 3,
                runs: 8,
                accept_rate: None,
            }),
        };
        assert_eq!(
            conditioned.to_json().render(),
            r#"{"kind": "marginal", "p": 1, "evidence": {"mass": 0.06, "log_mass": -2.5, "ess": 3, "worlds": 3, "runs": 8}}"#
        );
        // An MH pass also reports its chain acceptance rate.
        let mh = Reply {
            responses: vec![Response::Marginal(1.0)],
            evidence: Some(EvidenceSummary {
                mass: 1.0,
                log_mass: 0.0,
                ess: 100.0,
                worlds: 100,
                runs: 100,
                accept_rate: Some(0.5),
            }),
        };
        assert_eq!(
            mh.to_json().render(),
            r#"{"kind": "marginal", "p": 1, "evidence": {"mass": 1, "log_mass": 0, "ess": 100, "worlds": 100, "runs": 100, "accept_rate": 0.5}}"#
        );
        // Multi-query replies are tagged and ordered.
        let multi = Reply {
            responses: vec![Response::Marginal(0.25), Response::Tail(0.5)],
            evidence: None,
        };
        assert_eq!(
            multi.to_json().render(),
            r#"{"kind": "multi", "answers": [{"kind": "marginal", "p": 0.25}, {"kind": "tail", "p": 0.5}]}"#
        );
    }
}
