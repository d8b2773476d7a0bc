//! The batch wire format: one [`Request`] per independent unit of work,
//! one [`Reply`] per answer.
//!
//! Requests name relations and facts **textually** (`"Alarm(h0)"`) so they
//! can travel as JSON; the executor resolves them against the cached
//! program's catalog at evaluation time. Each request carries its own
//! input facts (inserted into the pooled session before evaluation),
//! conditioning evidence, and [`EvalSpec`] — the backend choice and
//! configuration an `Evaluation` holds, so each configuration member of
//! the wire maps onto one spec setter and the spec's own
//! [`validate`](EvalSpec::validate) checks it. Requests in one batch are
//! fully independent, which is what makes batched execution
//! embarrassingly parallel *and* bit-reproducible.
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

use gdatalog_core::{BackendChoice, EngineError, EssTarget, EvalSpec, EvidenceSummary};
use gdatalog_data::{Catalog, Fact};
use gdatalog_pdb::{AggFun, ColumnHistogram, Moments};

use crate::json::Json;
use crate::ServeError;

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
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// How the request is evaluated: backend, run count, seed, chase
    /// budget, MH chain, ESS target — filled from the wire members
    /// `backend`, `runs`, `seed`, `max_depth`, `burn_in`, `thin` and
    /// `infer`, one setter each — plus the serving layer's deadline.
    pub spec: EvalSpec,
}

impl Request {
    fn new(query: QueryKind) -> Request {
        Request::multi(vec![query])
    }

    /// A request asking several queries at once (one backend pass).
    pub fn multi(queries: Vec<QueryKind>) -> Request {
        Request {
            queries,
            ..Request::default()
        }
    }

    /// One write into the spec.
    fn with(mut self, set: impl FnOnce(EvalSpec) -> EvalSpec) -> Request {
        self.spec = set(self.spec);
        self
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
    pub fn exact(self) -> Request {
        self.with(|s| s.backend(BackendChoice::Exact))
    }

    /// Forces Monte-Carlo sampling with `runs` runs.
    pub fn mc(self, runs: usize) -> Request {
        self.with(|s| s.backend(BackendChoice::Mc).runs(runs))
    }

    /// Forces Metropolis-Hastings sampling keeping `samples` states.
    pub fn mh(self, samples: usize) -> Request {
        self.with(|s| s.backend(BackendChoice::Mh).runs(samples))
    }

    /// Sets the Metropolis-Hastings burn-in step count.
    pub fn burn_in(self, steps: usize) -> Request {
        self.with(|s| s.burn_in(steps))
    }

    /// Sets the Metropolis-Hastings thinning interval.
    pub fn thin(self, every: usize) -> Request {
        self.with(|s| s.thin(every))
    }

    /// Asks for ESS-adaptive Monte-Carlo inference: run count grows in
    /// doubling batches until the conditioned pass's effective sample
    /// size reaches `target` (the wire's `"infer"` member).
    pub fn ess_target(self, target: f64) -> Request {
        self.with(|s| s.ess_target(EssTarget::new(target)))
    }

    /// Caps the run count of ESS-adaptive inference.
    pub fn max_runs(self, cap: usize) -> Request {
        self.with(|s| s.max_runs(cap))
    }

    /// Sets the Monte-Carlo master seed.
    pub fn seed(self, seed: u64) -> Request {
        self.with(|s| s.seed(seed))
    }

    /// Sets the chase depth/step budget.
    pub fn max_depth(self, depth: usize) -> Request {
        self.with(|s| s.max_depth(depth))
    }

    /// Sets a cooperative evaluation deadline (serving-layer concern; not
    /// part of the wire format).
    pub fn deadline(self, deadline: std::time::Instant) -> Request {
        self.with(|s| s.deadline(deadline))
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
        let backend = opt_str(v, "backend")?;
        let backend = backend.as_deref().unwrap_or("auto");
        let backend = BackendChoice::from_wire_name(backend).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "unknown backend `{backend}` (expected auto | exact | exact-parallel | mc | mh)"
            ))
        })?;
        let mut spec = EvalSpec::default().backend(backend);
        // Adaptive inference: `"infer": {"mode": "ess", "target": …,
        // "max_runs"?: …}`. Only the `ess` mode exists today; an explicit
        // unknown mode is an error, not a silent fixed-run fallback.
        if let Some(obj) = v.get("infer") {
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
            spec = spec.ess_target(EssTarget::new(target));
            if let Some(n) = obj.get("max_runs") {
                spec = spec.max_runs(n.as_usize().ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "`infer.max_runs` must be a non-negative whole number, got {}",
                        n.render()
                    ))
                })?);
            }
        }
        // `input` is the member's name; `evidence` stays accepted as a
        // back-compat alias (it never meant conditioning — that's
        // `given`). Both at once would be ambiguous.
        let input = match (opt_str(v, "input")?, opt_str(v, "evidence")?) {
            (Some(_), Some(_)) => {
                return Err(ServeError::BadRequest(
                    "`input` and its legacy alias `evidence` are the same member; \
                     send only one"
                        .to_string(),
                ))
            }
            (input, legacy) => input.or(legacy),
        };
        let given = opt_str(v, "given")?;
        // The remaining members map one to one onto spec setters.
        for (key, set) in [
            ("runs", EvalSpec::runs as fn(EvalSpec, usize) -> EvalSpec),
            ("max_depth", EvalSpec::max_depth),
            ("burn_in", EvalSpec::burn_in),
            ("thin", EvalSpec::thin),
        ] {
            spec = opt_usize(v, key)?.map_or(spec, |n| set(spec, n));
        }
        let whole = "a whole number in [0, 2^53] (JSON numbers are f64, so larger \
                     values do not survive the wire)";
        spec = member(v, "seed", Json::as_u64, whole)?.map_or(spec, |seed| spec.seed(seed));
        // Deadlines are a serving-layer policy (set from the server's
        // configuration), not a wire member a client can extend.
        let request = Request {
            queries,
            input,
            given,
            spec,
        };
        request.validate()?;
        Ok(request)
    }

    /// The checks that do not depend on the program, for parsed,
    /// builder-made and CLI-lowered requests alike: at least one query,
    /// then [`EvalSpec::validate`] with its reason.
    /// [`Request::from_json`] runs them at parse time and the executor
    /// before any evaluation.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] naming the offending member.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queries.is_empty() {
            return Err(ServeError::BadRequest(
                "request asks no queries".to_string(),
            ));
        }
        self.spec.validate().map_err(|e| match e {
            EngineError::InvalidRequest(reason) => ServeError::BadRequest(reason),
            other => ServeError::Engine(other),
        })
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

/// Reads the optional member `key` of `v` with `read`: absent is `None`;
/// present but unreadable (wrong type, negative, fractional, or beyond
/// the exact-f64 range) is an error saying what it must be — never a
/// silent fallback to a default.
fn member<T>(
    v: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
    what: &str,
) -> Result<Option<T>, ServeError> {
    let Some(m) = v.get(key) else { return Ok(None) };
    read(m).map(Some).ok_or_else(|| {
        ServeError::BadRequest(format!("`{key}` must be {what}, got {}", m.render()))
    })
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, ServeError> {
    member(v, key, |s| s.as_str().map(str::to_string), "a string")
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, ServeError> {
    member(v, key, Json::as_usize, "a non-negative whole number")
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
            agg: parse_agg(opt_str(v, "agg")?.as_deref().unwrap_or("count"))?,
            col: opt_usize(v, "col")?,
        },
        "histogram" => QueryKind::Histogram {
            rel: str_field("rel")?,
            col: opt_usize(v, "col")?.ok_or_else(|| bad("histogram needs an integer `col`"))?,
            lo: num_field("lo", "histogram")?,
            hi: num_field("hi", "histogram")?,
            bins: opt_usize(v, "bins")?.unwrap_or(20),
        },
        "quantile" => QueryKind::Quantile {
            rel: str_field("rel")?,
            col: opt_usize(v, "col")?.ok_or_else(|| bad("quantile needs an integer `col`"))?,
            q: num_field("q", "quantile")?,
        },
        "tail" => QueryKind::Tail {
            rel: str_field("rel")?,
            col: opt_usize(v, "col")?.ok_or_else(|| bad("tail needs an integer `col`"))?,
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
        let spec = EvalSpec::default();
        assert_eq!(parsed[1].spec, spec.backend(BackendChoice::ExactParallel));
        assert_eq!(parsed[2].spec, spec.backend(BackendChoice::Mc).runs(100));
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
        assert_eq!(req.spec, EvalSpec::default().seed(9));
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
        assert_eq!(req, Request::marginal("A(x)").mh(500).burn_in(100).thin(3));

        let v = Json::parse(
            r#"{"kind": "marginal", "fact": "A(x)",
                "infer": {"mode": "ess", "target": 200, "max_runs": 100000}}"#,
        )
        .unwrap();
        let req = Request::from_json(&v).unwrap();
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
        // MH chain controls without the MH backend, and an empty thinning.
        assert!(bad_request(Request::marginal("A(x)").burn_in(5)));
        assert!(bad_request(Request::marginal("A(x)").exact().thin(2)));
        assert!(bad_request(Request::marginal("A(x)").mh(10).thin(0)));
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
            r#"{"kind": "marginal", "fact": "A(x)", "backend": "mh", "thin": 0}"#,
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
            spec: EvalSpec::default().backend(BackendChoice::ExactParallel),
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
        for backend in BackendChoice::ALL {
            let doc = format!(
                r#"{{"kind": "marginal", "fact": "A(x)", "backend": "{}"}}"#,
                backend.wire_name()
            );
            let parsed = Request::from_json(&Json::parse(&doc).unwrap()).unwrap();
            assert_eq!(parsed.spec, EvalSpec::default().backend(backend), "{doc}");
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
        assert_eq!(
            Request::from_json(&v).unwrap().spec,
            EvalSpec::default().runs(5_000_000_000)
        );
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
