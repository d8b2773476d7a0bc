//! Batched query execution: schedule independent requests across pooled
//! sessions with deterministic **work-stealing** parallelism.
//!
//! [`BatchExecutor`] is the scheduling core: workers claim requests one at
//! a time off a shared atomic cursor, each holding one pooled session
//! (checked out with shard affinity, reset between requests), and every
//! answer is scattered back into its **request-index slot** — so answers
//! land in request order no matter which worker computed them or when.
//! Because every request is evaluated independently — its own evidence,
//! its own seed, thread-count 1 inside the evaluation — the batch answers
//! are bit-identical to evaluating each request alone, regardless of
//! worker count.
//!
//! Work stealing replaced the earlier contiguous-chunk schedule: with
//! chunks, one slow request at the head of a chunk idled that worker's
//! whole remainder while other workers finished, and on skewed batches
//! the makespan was the slowest *chunk*, not the slowest *request*.
//! Claiming one request at a time keeps every worker busy until the
//! global queue drains; determinism is unaffected because ordering is
//! restored by slot index, not by completion order.
//!
//! [`Server`] ties the pieces together for one program: a
//! [`SessionPool`] over a cached [`PreparedModel`] plus an executor and a
//! [`MetricsRecorder`] capturing per-request timings.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gdatalog_core::{Answer, EngineError, QueryIr, QuerySet, Session};
use gdatalog_lang::{parse_facts, CompiledProgram, SemanticsMode};
use gdatalog_pdb::{Event, Query};

use crate::cache::PreparedModel;
use crate::metrics::{Metrics, MetricsRecorder};
use crate::pool::SessionPool;
use crate::request::{fact_text, QueryKind, Reply, Request, Response};
use crate::ServeError;

/// Resolves one wire query against the program catalog into the core
/// query IR — name resolution and spec validation happen here, once,
/// before any backend work.
///
/// # Errors
/// [`ServeError::BadRequest`] for unresolvable names or malformed specs.
fn compile_query(kind: &QueryKind, program: &CompiledProgram) -> Result<QueryIr, ServeError> {
    let resolve = |name: &str| {
        program
            .catalog
            .require(name)
            .map_err(|e| ServeError::BadRequest(format!("{e}")))
    };
    // Resolves the relation and checks the column in one step, so the
    // quantile/tail/histogram arms resolve each name exactly once.
    let resolve_col = |name: &str, col: usize| -> Result<gdatalog_data::RelId, ServeError> {
        let rel = resolve(name)?;
        let arity = program.catalog.decl(rel).arity();
        if col >= arity {
            return Err(ServeError::BadRequest(format!(
                "column {col} out of range (arity {arity})"
            )));
        }
        Ok(rel)
    };
    match kind {
        QueryKind::Marginal { fact } => {
            let parsed = parse_facts(&ensure_dot(fact), &program.catalog)?;
            let mut facts = parsed.facts();
            let (Some(fact), None) = (facts.next(), facts.next()) else {
                return Err(ServeError::BadRequest(format!(
                    "marginal expects exactly one fact, got `{fact}`"
                )));
            };
            Ok(QueryIr::Marginal { fact })
        }
        QueryKind::Marginals { rel } => Ok(QueryIr::Marginals { rel: resolve(rel)? }),
        QueryKind::Probability { facts } => {
            let parsed = parse_facts(&ensure_dot(facts), &program.catalog)?;
            let mut event: Option<Event> = None;
            for fact in parsed.facts() {
                let clause = Event::contains_fact(&fact);
                event = Some(match event {
                    None => clause,
                    Some(e) => e.and(clause),
                });
            }
            let Some(event) = event else {
                return Err(ServeError::BadRequest(
                    "probability needs at least one fact".to_string(),
                ));
            };
            Ok(QueryIr::Probability { event })
        }
        QueryKind::Expectation { rel, agg, col } => {
            let query = match *col {
                Some(c) => Query::Rel(resolve_col(rel, c)?).project(vec![c]),
                None => Query::Rel(resolve(rel)?),
            };
            Ok(QueryIr::Expectation { query, agg: *agg })
        }
        QueryKind::Histogram {
            rel,
            col,
            lo,
            hi,
            bins,
        } => {
            let rel = resolve_col(rel, *col)?;
            // Finiteness required: JSON can smuggle ±∞ in via `1e999`, and
            // an infinite range breaks the bin-width arithmetic. NaN fails
            // `is_finite` too.
            if !lo.is_finite() || !hi.is_finite() || lo >= hi || *bins == 0 {
                return Err(ServeError::BadRequest(format!(
                    "invalid histogram spec: need finite lo < hi and bins > 0 \
                     (got lo {lo}, hi {hi}, bins {bins})"
                )));
            }
            Ok(QueryIr::Histogram {
                rel,
                col: *col,
                lo: *lo,
                hi: *hi,
                bins: *bins,
            })
        }
        QueryKind::Quantile { rel, col, q } => {
            let rel = resolve_col(rel, *col)?;
            if !(0.0..=1.0).contains(q) {
                return Err(ServeError::BadRequest(format!(
                    "invalid quantile spec: need q in [0, 1], got {q}"
                )));
            }
            Ok(QueryIr::Quantile {
                rel,
                col: *col,
                q: *q,
            })
        }
        QueryKind::Tail {
            rel,
            col,
            threshold,
        } => {
            let rel = resolve_col(rel, *col)?;
            if threshold.is_nan() {
                return Err(ServeError::BadRequest(
                    "invalid tail spec: threshold must not be NaN".to_string(),
                ));
            }
            Ok(QueryIr::Tail {
                rel,
                col: *col,
                threshold: *threshold,
            })
        }
    }
}

/// Renders one typed core answer back into its wire response.
fn render_answer(answer: Answer, program: &CompiledProgram) -> Response {
    match answer {
        Answer::Marginal(p) => Response::Marginal(p),
        Answer::Probability(p) => Response::Probability(p),
        Answer::Expectation(m) => Response::Expectation(m),
        Answer::Histogram(h) => Response::Histogram(h),
        Answer::Marginals(rows) => Response::Marginals(
            rows.into_iter()
                .map(|(fact, p)| (fact_text(&fact, &program.catalog), p))
                .collect(),
        ),
        Answer::Quantile(v) => Response::Quantile(v),
        Answer::Tail(p) => Response::Tail(p),
    }
}

/// Evaluates one request on a (clean) session: the request is
/// validated, the session's extensional database is extended with the
/// request's input facts, **all** of the request's queries are compiled
/// against the catalog, and a single backend pass configured by the
/// request's spec answers every one of them (the multiplexed
/// `Evaluation::answer` path — a K-query request costs one
/// chase/enumeration/Monte-Carlo pass, not K). The caller is responsible
/// for [`Session::reset`] afterwards (the pool and executor do this
/// automatically).
///
/// # Errors
/// [`ServeError::BadRequest`] for invalid requests, unresolvable names or
/// malformed specs; engine errors from evaluation.
pub fn execute_on(session: &mut Session, request: &Request) -> Result<Reply, ServeError> {
    request.validate()?;
    if let Some(input) = &request.input {
        session.insert_facts_text(input)?;
    }
    let program = session.program();
    let mut queries = QuerySet::new();
    for kind in &request.queries {
        queries.push(compile_query(kind, program)?);
    }
    let mut eval = session.eval().with_spec(request.spec);
    if let Some(given) = &request.given {
        eval = eval.given(given.clone());
    }
    let answers = eval.answer(&queries)?;
    // Conditioning diagnostics ride along instead of being discarded: the
    // pass's evidence mass and effective sample size, computed once for
    // the whole query set.
    let evidence = answers.conditioned().then(|| answers.evidence());
    let responses = answers
        .into_iter()
        .map(|answer| render_answer(answer, program))
        .collect();
    Ok(Reply {
        responses,
        evidence,
    })
}

fn ensure_dot(text: &str) -> String {
    let trimmed = text.trim();
    if trimmed.ends_with('.') {
        trimmed.to_string()
    } else {
        format!("{trimmed}.")
    }
}

/// Deterministic work-stealing scheduling of independent requests over a
/// [`SessionPool`].
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor {
    threads: usize,
}

/// Executes one request on a pooled-and-reset session, recording its
/// wall-clock latency (and a deadline rejection, when that is how it
/// ended) into `recorder`.
fn execute_recorded(
    session: &mut Session,
    request: &Request,
    recorder: Option<&MetricsRecorder>,
) -> Result<Reply, ServeError> {
    let started = Instant::now();
    let out = execute_on(session, request);
    session.reset();
    if let Some(recorder) = recorder {
        recorder.record_request(started.elapsed(), out.is_ok());
        if matches!(out, Err(ServeError::Engine(EngineError::DeadlineExceeded))) {
            recorder.record_deadline_rejection();
        }
        if let Ok(reply) = &out {
            if let Some(ev) = &reply.evidence {
                recorder.record_inference(ev.ess, ev.accept_rate);
            }
        }
    }
    out
}

impl BatchExecutor {
    /// An executor with `threads` workers (1 = run on the calling thread).
    pub fn new(threads: usize) -> BatchExecutor {
        BatchExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every request, answers in request order. Each worker
    /// checks out one session and resets it between requests, so no
    /// request observes another's evidence. One failing request yields an
    /// `Err` in its slot without sinking the batch.
    pub fn execute(
        &self,
        pool: &SessionPool,
        requests: &[Request],
    ) -> Vec<Result<Reply, ServeError>> {
        self.execute_metered(pool, requests, None)
    }

    /// [`execute`](Self::execute), recording per-request timings into a
    /// [`MetricsRecorder`].
    pub fn execute_metered(
        &self,
        pool: &SessionPool,
        requests: &[Request],
        recorder: Option<&MetricsRecorder>,
    ) -> Vec<Result<Reply, ServeError>> {
        let n = requests.len();
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            let mut session = pool.checkout_for(0);
            return requests
                .iter()
                .map(|request| execute_recorded(&mut session, request, recorder))
                .collect();
        }
        // Work stealing over a shared cursor: each worker claims one
        // request at a time and tags its answer with the request index, so
        // no worker idles while requests remain and the scatter below
        // restores request order exactly.
        let next = AtomicUsize::new(0);
        type Tagged = (usize, Result<Reply, ServeError>);
        let per_worker: Vec<Vec<Tagged>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut session = pool.checkout_for(worker);
                        let mut local: Vec<Tagged> = Vec::new();
                        loop {
                            let ix = next.fetch_add(1, Ordering::Relaxed);
                            if ix >= n {
                                return local;
                            }
                            let out = execute_recorded(&mut session, &requests[ix], recorder);
                            local.push((ix, out));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                // A worker's panic is re-raised with its own payload.
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        // Scatter into request-order slots. Every index in [0, n) was
        // claimed by exactly one worker, so every slot fills.
        let mut slots: Vec<Option<Result<Reply, ServeError>>> = (0..n).map(|_| None).collect();
        for (ix, out) in per_worker.into_iter().flatten() {
            debug_assert!(slots[ix].is_none(), "request {ix} claimed twice");
            slots[ix] = Some(out);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every request claimed exactly once"))
            .collect()
    }
}

impl Default for BatchExecutor {
    fn default() -> Self {
        BatchExecutor::new(1)
    }
}

/// The serving surface for one program: a session pool over a cached
/// model plus a batch executor.
///
/// ```
/// use gdatalog_serve::{Request, Response, Server};
/// use gdatalog_lang::SemanticsMode;
///
/// let server = Server::from_source(
///     "rel City(symbol, real) input.
///      Quake(C, Flip<R>) :- City(C, R).",
///     SemanticsMode::Grohe,
/// ).unwrap().threads(4);
/// let requests: Vec<Request> = (0..8)
///     .map(|i| {
///         Request::marginal(format!("Quake(c{i}, 1)"))
///             .evidence(format!("City(c{i}, 0.25)."))
///             .exact()
///     })
///     .collect();
/// let answers = server.batch(&requests);
/// for answer in answers {
///     assert_eq!(answer.unwrap().single(), &Response::Marginal(0.25));
/// }
/// ```
pub struct Server {
    pool: SessionPool,
    executor: BatchExecutor,
    metrics: Arc<MetricsRecorder>,
}

impl Server {
    /// A server over an already-prepared (typically cached) model.
    pub fn new(model: Arc<PreparedModel>) -> Server {
        Server {
            pool: SessionPool::new(model),
            executor: BatchExecutor::default(),
            metrics: Arc::new(MetricsRecorder::new()),
        }
    }

    /// Compiles `src` and serves it (going through a
    /// [`ProgramCache`](crate::ProgramCache) instead amortizes this across
    /// servers).
    ///
    /// # Errors
    /// Compilation errors.
    pub fn from_source(src: &str, mode: SemanticsMode) -> Result<Server, EngineError> {
        Ok(Server::new(Arc::new(PreparedModel::compile(src, mode)?)))
    }

    /// Sets the batch worker count. Answers do not depend on it.
    pub fn threads(mut self, threads: usize) -> Server {
        self.executor = BatchExecutor::new(threads);
        self
    }

    /// The served model.
    pub fn model(&self) -> &Arc<PreparedModel> {
        self.pool.model()
    }

    /// The underlying session pool.
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// The server's metrics recorder (shared so an HTTP front end can
    /// report the same counters at its stats endpoint).
    pub fn metrics_recorder(&self) -> &Arc<MetricsRecorder> {
        &self.metrics
    }

    /// A point-in-time metrics snapshot (per-request timings, error and
    /// rejection counters).
    pub fn metrics(&self) -> Metrics {
        self.metrics.snapshot()
    }

    /// Answers one request (equivalent to a batch of one).
    ///
    /// # Errors
    /// Bad request specs or evaluation errors.
    pub fn execute(&self, request: &Request) -> Result<Reply, ServeError> {
        self.execute_for(0, request)
    }

    /// [`execute`](Self::execute) with **worker affinity**: the session is
    /// checked out from (and returned to) the pool shard of `worker`, so a
    /// long-lived serving worker keeps reusing the session it warmed
    /// instead of contending with its peers on one shard.
    ///
    /// # Errors
    /// Bad request specs or evaluation errors.
    pub fn execute_for(&self, worker: usize, request: &Request) -> Result<Reply, ServeError> {
        let mut session = self.pool.checkout_for(worker);
        execute_recorded(&mut session, request, Some(&self.metrics))
    }

    /// Answers a batch of independent requests, in request order —
    /// bit-identical to answering each alone, for any worker count.
    pub fn batch(&self, requests: &[Request]) -> Vec<Result<Reply, ServeError>> {
        self.executor
            .execute_metered(&self.pool, requests, Some(&self.metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_pdb::AggFun;

    const SRC: &str = "rel City(symbol, real) input.
        Earthquake(C, Flip<R>) :- City(C, R).
        Alarm(C) :- Earthquake(C, 1).";

    #[test]
    fn batch_answers_land_in_request_order() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe)
            .unwrap()
            .threads(3);
        let rates = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let requests: Vec<Request> = rates
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Request::marginal(format!("Alarm(c{i})"))
                    .evidence(format!("City(c{i}, {r})."))
                    .exact()
            })
            .collect();
        for (i, answer) in server.batch(&requests).into_iter().enumerate() {
            let Response::Marginal(p) = answer.unwrap().single().clone() else {
                panic!("marginal response expected");
            };
            assert!((p - rates[i]).abs() < 1e-12, "slot {i}");
        }
        assert!(server.pool().created() <= 3);
    }

    #[test]
    fn evidence_does_not_leak_between_requests() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let with = Request::marginals("Alarm").input("City(a, 1.0).").exact();
        let without = Request::marginals("Alarm").exact();
        let answers = server.batch(&[with, without]);
        let Response::Marginals(first) = answers[0].as_ref().unwrap().single() else {
            panic!()
        };
        assert_eq!(first.len(), 1);
        let Response::Marginals(second) = answers[1].as_ref().unwrap().single() else {
            panic!()
        };
        assert!(second.is_empty(), "no residual evidence from request 0");
    }

    #[test]
    fn one_bad_request_does_not_sink_the_batch() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let answers = server.batch(&[
            Request::marginals("NoSuchRel"),
            Request::expectation("Alarm", AggFun::Count).exact(),
        ]);
        assert!(answers[0].is_err());
        assert!(answers[1].is_ok());
    }

    #[test]
    fn all_query_kinds_execute() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let evidence = "City(a, 0.5). City(b, 0.5).";
        let answers = server.batch(&[
            Request::marginal("Alarm(a)").evidence(evidence).exact(),
            Request::probability("Alarm(a). Alarm(b).")
                .evidence(evidence)
                .exact(),
            Request::expectation("Alarm", AggFun::Count)
                .evidence(evidence)
                .exact(),
            Request::histogram("Earthquake", 1, 0.0, 2.0, 2)
                .evidence(evidence)
                .exact(),
            Request::marginals("Alarm").evidence(evidence).exact(),
            Request::quantile("Earthquake", 1, 0.75)
                .evidence(evidence)
                .exact(),
            Request::tail("Earthquake", 1, 1.0)
                .evidence(evidence)
                .exact(),
        ]);
        assert_eq!(
            answers[0].as_ref().unwrap().single(),
            &Response::Marginal(0.5)
        );
        assert_eq!(
            answers[1].as_ref().unwrap().single(),
            &Response::Probability(0.25)
        );
        let Response::Expectation(Some(m)) = answers[2].as_ref().unwrap().single() else {
            panic!()
        };
        assert!((m.mean - 1.0).abs() < 1e-12);
        let Response::Histogram(h) = answers[3].as_ref().unwrap().single() else {
            panic!()
        };
        assert!((h.bins[1] - 1.0).abs() < 1e-12, "E[#quake=1] = 1");
        let Response::Marginals(rows) = answers[4].as_ref().unwrap().single() else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "Alarm(a)");
        let Response::Quantile(Some(v)) = answers[5].as_ref().unwrap().single() else {
            panic!()
        };
        // Indicator values 0 and 1 carry weight 1.0 each; the 0.75
        // quantile (target 1.5 of 2.0) lands on 1.
        assert!((v - 1.0).abs() < 1e-12);
        let Response::Tail(p) = answers[6].as_ref().unwrap().single() else {
            panic!()
        };
        assert!((p - 0.75).abs() < 1e-12, "P(some quake indicator >= 1)");
    }

    #[test]
    fn conditional_requests_answer_the_posterior() {
        // P(Earthquake=1 | Alarm) = 1 under this program: alarms only
        // fire on earthquakes.
        let server = Server::from_source(SRC, SemanticsMode::Grohe)
            .unwrap()
            .threads(2);
        let prior = Request::marginal("Earthquake(a, 1)")
            .evidence("City(a, 0.3).")
            .exact();
        let posterior = Request::marginal("Earthquake(a, 1)")
            .evidence("City(a, 0.3).")
            .given("Alarm(a).")
            .exact();
        let answers = server.batch(&[prior.clone(), posterior.clone()]);
        assert_eq!(
            answers[0].as_ref().unwrap().single(),
            &Response::Marginal(0.3)
        );
        assert_eq!(
            answers[1].as_ref().unwrap().single(),
            &Response::Marginal(1.0)
        );
        // The conditioned reply surfaces the pass's evidence diagnostics
        // (mass = P(Alarm(a)) = 0.3) instead of discarding them.
        assert!(answers[0].as_ref().unwrap().evidence.is_none());
        let ev = answers[1].as_ref().unwrap().evidence.expect("diagnostics");
        assert!((ev.mass - 0.3).abs() < 1e-12);
        assert!(ev.ess >= 1.0);
        // Batched conditional answers are identical to the single-request
        // path (the acceptance criterion for serving-layer conditioning).
        let single = server.execute(&posterior).unwrap();
        assert_eq!(&single, answers[1].as_ref().unwrap());
    }

    #[test]
    fn conditional_mc_requests_are_deterministic_and_batch_equals_single() {
        let server1 = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let server4 = Server::from_source(SRC, SemanticsMode::Grohe)
            .unwrap()
            .threads(4);
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                Request::marginal(format!("Earthquake(c{i}, 1)"))
                    .evidence(format!("City(c{i}, 0.3)."))
                    .given(format!("Alarm(c{i})."))
                    .mc(4_000)
                    .seed(i as u64)
            })
            .collect();
        let a = server1.batch(&requests);
        let b = server4.batch(&requests);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            let (Response::Marginal(p), Response::Marginal(q)) =
                (x.as_ref().unwrap().single(), y.as_ref().unwrap().single())
            else {
                panic!()
            };
            assert_eq!(p.to_bits(), q.to_bits(), "slot {i}");
            assert!((p - 1.0).abs() < 1e-12, "posterior is 1 here");
            // Single-request path bit-identical to the batch slot.
            let single = server1.execute(&requests[i]).unwrap();
            assert_eq!(&single, x.as_ref().unwrap());
        }
    }

    /// Satellite 3: work stealing preserves request-order answers and
    /// bit-identity at 1/2/4/8 workers, for exact and Monte-Carlo
    /// backends alike, on a batch with deliberately skewed per-request
    /// cost (so stealing actually reorders completion).
    #[test]
    fn work_stealing_is_bit_identical_at_1_2_4_8_workers() {
        let requests: Vec<Request> = (0..24)
            .map(|i| {
                // Vary the evidence size so request costs are skewed.
                let cities: String = (0..=(i % 5))
                    .map(|j| format!("City(c{i}_{j}, 0.{}).", (i % 9) + 1))
                    .collect();
                let r = Request::marginals("Alarm").input(cities);
                if i % 2 == 0 {
                    r.exact()
                } else {
                    r.mc(500).seed(i as u64)
                }
            })
            .collect();
        let reference: Vec<Result<Reply, ServeError>> = {
            let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
            requests.iter().map(|r| server.execute(r)).collect()
        };
        for workers in [1usize, 2, 4, 8] {
            let server = Server::from_source(SRC, SemanticsMode::Grohe)
                .unwrap()
                .threads(workers);
            let batch = server.batch(&requests);
            for (i, (got, want)) in batch.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.as_ref().unwrap(),
                    want.as_ref().unwrap(),
                    "slot {i} diverges at {workers} workers"
                );
            }
        }
    }

    /// Checks that do not depend on the program reject builder-made
    /// requests before any evaluation, on every execution path.
    #[test]
    fn executor_rejects_invalid_builder_requests() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let base = || Request::marginal("Alarm(a)").input("City(a, 0.3).");
        for request in [
            base().burn_in(5),
            base().exact().thin(2),
            base().mh(200).thin(0),
            base().max_runs(100),
        ] {
            assert!(matches!(
                server.execute(&request),
                Err(ServeError::BadRequest(_))
            ));
            let mut session = server.pool().checkout_for(0);
            assert!(matches!(
                execute_on(&mut session, &request),
                Err(ServeError::BadRequest(_))
            ));
        }
        // The valid MH form of the same request answers.
        assert!(server.execute(&base().mh(200).burn_in(5).thin(2)).is_ok());
    }

    /// A spec knob no wire member sets (the CLI's lane-batch width) rides
    /// in the request's spec; a lane-batch width never changes an answer,
    /// a seed does.
    #[test]
    fn the_request_spec_configures_the_evaluation() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let request = Request::marginals("Alarm")
            .input("City(a, 0.3). City(b, 0.6).")
            .mc(3_000)
            .seed(5);
        let plain = server.execute(&request).unwrap();
        let batched = Request {
            spec: request.spec.batch(7),
            ..request.clone()
        };
        assert_eq!(plain, server.execute(&batched).unwrap());
        let reseeded = server.execute(&request.clone().seed(9)).unwrap();
        assert_ne!(plain, reseeded);
    }

    /// An expired deadline surfaces as `EngineError::DeadlineExceeded`
    /// and is counted by the server's metrics.
    #[test]
    fn expired_deadline_rejects_request_and_is_counted() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let request = Request::marginal("Alarm(a)")
            .input("City(a, 0.3).")
            .exact()
            .deadline(std::time::Instant::now());
        let err = server.execute(&request).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Engine(EngineError::DeadlineExceeded)
        ));
        let m = server.metrics();
        assert_eq!(m.deadline_rejections, 1);
        assert_eq!(m.errors, 1);
        // A generous deadline changes nothing.
        let ok = server
            .execute(
                &Request::marginal("Alarm(a)")
                    .input("City(a, 0.3).")
                    .exact()
                    .deadline(Instant::now() + std::time::Duration::from_secs(3600)),
            )
            .unwrap();
        assert_eq!(ok.single(), &Response::Marginal(0.3));
        assert_eq!(server.metrics().requests, 2);
    }

    /// The batch path records one timing per request.
    #[test]
    fn batch_records_per_request_metrics() {
        let server = Server::from_source(SRC, SemanticsMode::Grohe)
            .unwrap()
            .threads(4);
        let requests: Vec<Request> = (0..10)
            .map(|i| {
                Request::marginal(format!("Alarm(c{i})"))
                    .input(format!("City(c{i}, 0.2)."))
                    .exact()
            })
            .collect();
        let answers = server.batch(&requests);
        assert!(answers.iter().all(|a| a.is_ok()));
        let m = server.metrics();
        assert_eq!(m.requests, 10);
        assert_eq!(m.errors, 0);
        assert!(m.p99_us > 0);
    }

    #[test]
    fn mc_requests_are_deterministic_across_worker_counts() {
        let server1 = Server::from_source(SRC, SemanticsMode::Grohe).unwrap();
        let server4 = Server::from_source(SRC, SemanticsMode::Grohe)
            .unwrap()
            .threads(4);
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                Request::marginal(format!("Alarm(c{i})"))
                    .evidence(format!("City(c{i}, 0.3)."))
                    .mc(2_000)
                    .seed(i as u64)
            })
            .collect();
        let a = server1.batch(&requests);
        let b = server4.batch(&requests);
        for (x, y) in a.iter().zip(&b) {
            let (Response::Marginal(p), Response::Marginal(q)) =
                (x.as_ref().unwrap().single(), y.as_ref().unwrap().single())
            else {
                panic!()
            };
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}
