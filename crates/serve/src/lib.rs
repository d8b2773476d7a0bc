#![warn(missing_docs)]

//! # gdatalog-serve
//!
//! The request-serving layer: compile a generative-Datalog program
//! **once**, keep warm sessions over it, and answer batches of
//! independent queries with deterministic parallelism.
//!
//! The paper's framing (and that of its PPDL ancestor, Bárány et al.)
//! treats a program as a reusable statistical *model* queried many times
//! over varying evidence. This crate is that workload's fast path, in
//! three composable pieces:
//!
//! * [`ProgramCache`] — memoizes parse+validate+translate+plan per
//!   distinct `(source, semantics)` pair, keyed by a content hash
//!   ([`gdatalog_core::fingerprint`]); a hit returns the *same*
//!   [`PreparedModel`] allocation, so plans are shared by pointer, never
//!   re-derived.
//! * [`SessionPool`] — checks out warm [`gdatalog_core::Session`]s and
//!   resets each request's fact delta on return, so the per-request cost
//!   is evidence insertion plus evaluation, nothing else.
//! * [`BatchExecutor`] / [`Server`] — schedules a batch of independent
//!   [`Request`]s across pooled sessions by **work stealing** (workers
//!   claim one request at a time off a shared cursor) and scatters
//!   answers back into request-order slots. Batch answers are
//!   bit-identical to evaluating each request alone, for any worker
//!   count. Per-request timings and rejection counters are captured by a
//!   [`MetricsRecorder`] and snapshotted as [`Metrics`].
//!
//! A request may bundle **several queries** (`Request::query` /
//! the `"queries"` wire member): the executor compiles them into one
//! `gdatalog_core::QuerySet` and answers all of them in a **single**
//! backend pass, so a K-statistics dashboard request costs one chase
//! instead of K. The [`Reply`] carries one [`Response`] per query in
//! query order, plus the evidence diagnostics (mass, effective sample
//! size) when the request was conditioned.
//!
//! ```
//! use gdatalog_serve::{ProgramCache, Request, Response, Server};
//! use gdatalog_lang::SemanticsMode;
//!
//! // One cache for the process; each distinct program compiles once.
//! let cache = ProgramCache::new();
//! let model = cache.get_or_compile(
//!     "rel City(symbol, real) input.
//!      Earthquake(C, Flip<R>) :- City(C, R).
//!      Alarm(C) :- Earthquake(C, 1).",
//!     SemanticsMode::Grohe,
//! ).unwrap();
//!
//! // A server = session pool + batch executor over the cached model.
//! let server = Server::new(model).threads(4);
//! let requests: Vec<Request> = (0..16)
//!     .map(|i| Request::marginal(format!("Alarm(city{i})"))
//!         .input(format!("City(city{i}, 0.3)."))
//!         .exact())
//!     .collect();
//! for answer in server.batch(&requests) {
//!     assert_eq!(answer.unwrap().single(), &Response::Marginal(0.3));
//! }
//! assert_eq!(cache.stats().misses, 1);
//! ```
//!
//! The same surface drives `gdl batch <requests.json>` and `gdl query`,
//! which lowers its flags to a [`Request`] — its evaluation flags onto
//! the request's `EvalSpec` — and answers through [`execute_on`]; the
//! wire format lives in [`request`] and the dependency-free JSON reader
//! in [`json`].

use std::fmt;

use gdatalog_core::EngineError;
use gdatalog_lang::LangError;

pub mod cache;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod request;
pub mod server;

pub use cache::{CacheStats, PreparedModel, ProgramCache, CACHE_SHARDS};
pub use metrics::{Metrics, MetricsRecorder};
pub use pool::{PoolStats, PooledSession, SessionPool, DEFAULT_MAX_IDLE, POOL_SHARDS};
pub use request::{
    batch_items, fact_text, parse_agg, query_from_json, QueryKind, Reply, Request, Response,
};
pub use server::{execute_on, BatchExecutor, Server};

/// Errors of the serving layer.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// Compilation or evaluation failed in the engine.
    Engine(EngineError),
    /// The request itself is malformed (unknown relation, bad spec, …).
    BadRequest(String),
    /// The batch document is not valid JSON / not the expected shape.
    Json(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Json(msg) => write!(f, "bad batch document: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<LangError> for ServeError {
    fn from(e: LangError) -> Self {
        ServeError::Engine(EngineError::Lang(e))
    }
}

impl From<json::JsonError> for ServeError {
    fn from(e: json::JsonError) -> Self {
        ServeError::Json(e.to_string())
    }
}
