//! The long-lived HTTP front end: thread-per-core workers over one
//! shared [`Server`], with admission control, per-request deadlines and
//! body caps enforced *before* any engine work happens.
//!
//! ## Design
//!
//! * **Thread-per-core accept loop.** Every worker runs the same loop
//!   over one shared non-blocking listener: accept a connection, own it
//!   until it closes, poll again. A worker passes its index to
//!   [`Server::execute_for`], so the session it warms lives in *its*
//!   pool shard and is found again on the next request it serves —
//!   per-core session affinity without any routing layer.
//! * **Admission control.** An atomic in-flight gauge refuses work past
//!   `max_inflight` with `503` before parsing the body; the rejection is
//!   counted in the shared [`MetricsRecorder`](gdatalog_serve::MetricsRecorder).
//! * **Deadlines.** `deadline` stamps every admitted request with an
//!   absolute [`Instant`]; the chase checks it cooperatively between
//!   enumeration nodes / sampling runs and the request fails `504`.
//! * **Clean shutdown.** `POST /v1/shutdown` (or [`HttpServer::shutdown`])
//!   flips one flag; workers notice it at the next accept poll (a few
//!   milliseconds) and exit, so [`HttpServer::join`] returns promptly —
//!   no signal handling, no thread leaks.
//!
//! ## Endpoints
//!
//! | Route | Answers |
//! |---|---|
//! | `POST /v1/query` | one request object → one reply object |
//! | `POST /v1/batch` | `{"requests": […]}` or `[…]` → `{"replies": […]}` |
//! | `GET /v1/stats` | metrics + cache + pool counters |
//! | `POST /v1/shutdown` | `{"ok": true}`, then the server drains |
//!
//! Status codes: `503` admission, `504` deadline, `413` body cap, `400`
//! malformed HTTP/JSON/request, `500` other engine errors, `404`/`405`
//! routing.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gdatalog_core::EngineError;
use gdatalog_lang::SemanticsMode;
use gdatalog_serve::json::Json;
use gdatalog_serve::{batch_items, Metrics, ProgramCache, Request, ServeError, Server};

use crate::http::{Conn, HttpError, HttpRequest};

/// How often an idle worker polls the shared listener and the shutdown
/// flag. Small enough that accept latency and shutdown are both prompt;
/// large enough that an idle server burns no measurable CPU.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Tuning knobs of the HTTP front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Accept/serve threads. Each worker owns the connections it accepts
    /// and keeps per-shard session affinity in the pool, so this is also
    /// the number of connections served concurrently — run one per core.
    pub workers: usize,
    /// Admission cap: requests evaluating at once across all workers.
    /// One past the cap is refused with `503` before its body is parsed.
    pub max_inflight: usize,
    /// Largest accepted request body in bytes; beyond it the request is
    /// refused with `413` without reading the body.
    pub max_body_bytes: usize,
    /// Per-request evaluation budget; an admitted request that exceeds
    /// it is cancelled cooperatively and answered `504`. `None` disables
    /// cancellation.
    pub deadline: Option<Duration>,
    /// Socket read timeout — an idle keep-alive connection is dropped
    /// after this long, freeing its worker.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            max_inflight: 64,
            max_body_bytes: 1 << 20,
            deadline: None,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum NetError {
    /// The model failed to compile.
    Engine(EngineError),
    /// Binding or configuring the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Engine(e) => write!(f, "{e}"),
            NetError::Io(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// State shared by every worker thread.
struct Shared {
    listener: TcpListener,
    server: Server,
    cache: Arc<ProgramCache>,
    config: NetConfig,
    workers: usize,
    inflight: AtomicUsize,
    shutdown: AtomicBool,
}

/// A running HTTP server: worker threads over a bound listener.
///
/// ```
/// use gdatalog_net::{HttpServer, NetConfig};
/// use gdatalog_lang::SemanticsMode;
///
/// let server = HttpServer::start_source(
///     "R(Flip<0.5>) :- true.",
///     SemanticsMode::Grohe,
///     "127.0.0.1:0",
///     NetConfig { workers: 2, ..NetConfig::default() },
/// )
/// .unwrap();
/// assert!(server.addr().port() != 0, "bound to an ephemeral port");
/// server.shutdown();
/// server.join();
/// ```
pub struct HttpServer {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl HttpServer {
    /// Compiles `src` and starts serving it on `addr` (use port 0 for an
    /// ephemeral port; the bound address is [`HttpServer::addr`]).
    ///
    /// # Errors
    /// Compilation or bind errors.
    pub fn start_source(
        src: &str,
        mode: SemanticsMode,
        addr: &str,
        config: NetConfig,
    ) -> Result<HttpServer, NetError> {
        HttpServer::start_cached(Arc::new(ProgramCache::new()), src, mode, addr, config)
    }

    /// [`start_source`](Self::start_source) against a caller-owned
    /// [`ProgramCache`], so several servers (or a server and a batch
    /// path) share compiled models, and `GET /v1/stats` reports the
    /// cache's real hit/miss history.
    ///
    /// # Errors
    /// Compilation or bind errors.
    pub fn start_cached(
        cache: Arc<ProgramCache>,
        src: &str,
        mode: SemanticsMode,
        addr: &str,
        config: NetConfig,
    ) -> Result<HttpServer, NetError> {
        let model = cache.get_or_compile(src, mode).map_err(NetError::Engine)?;
        let listener = TcpListener::bind(addr).map_err(NetError::Io)?;
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let local = listener.local_addr().map_err(NetError::Io)?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            listener,
            server: Server::new(model).threads(workers),
            cache,
            config,
            workers,
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gdl-net-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(HttpServer {
            shared,
            handles,
            addr: local,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of worker threads serving.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// A snapshot of the request metrics.
    pub fn metrics(&self) -> Metrics {
        self.shared.server.metrics()
    }

    /// The `GET /v1/stats` body, available in-process.
    pub fn stats_json(&self) -> String {
        stats_body(&self.shared)
    }

    /// Asks every worker to stop after its current request. Idempotent;
    /// also triggered remotely by `POST /v1/shutdown`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for every worker to exit. Call [`shutdown`](Self::shutdown)
    /// first (or have a client `POST /v1/shutdown`), or this blocks for
    /// the server's lifetime.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// One worker: poll the shared listener, own each accepted connection
/// until it closes, exit when the shutdown flag is up.
fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match shared.listener.accept() {
            Ok((stream, _peer)) => serve_connection(shared, worker, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            // Transient accept errors (connection reset before accept,
            // fd pressure): back off and keep serving.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// How long one blocking read waits before re-checking the shutdown
/// flag. A worker parked on an idle keep-alive connection must still
/// notice shutdown promptly; `Conn`'s buffer persists across retries,
/// so resuming `read_request` mid-message is safe.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Serves one keep-alive connection to completion. The full
/// `read_timeout` bounds the gap between *complete* requests (also a
/// slow-trickle guard: a request must arrive whole within it).
fn serve_connection(shared: &Shared, worker: usize, stream: TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout.min(READ_SLICE)));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut conn = Conn::new(stream);
    let mut idle_since = Instant::now();
    loop {
        match conn.read_request(shared.config.max_body_bytes) {
            Err(HttpError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst)
                    || idle_since.elapsed() >= shared.config.read_timeout
                {
                    return;
                }
            }
            Ok(req) => {
                idle_since = Instant::now();
                let (status, body, close) = route(shared, worker, &req);
                let keep = req.keep_alive && !close && !shared.shutdown.load(Ordering::SeqCst);
                if conn.write_response(status, &body, keep).is_err() || !keep {
                    return;
                }
            }
            Err(HttpError::TooLarge { declared, limit }) => {
                // The oversized body was never read, so the connection
                // cannot be reused: respond and close.
                let body = error_body(
                    &format!("request body of {declared} bytes exceeds the {limit}-byte cap"),
                    "too_large",
                );
                let _ = conn.write_response(413, &body, false);
                return;
            }
            Err(HttpError::Malformed(msg)) => {
                let body = error_body(&format!("malformed HTTP request: {msg}"), "malformed");
                let _ = conn.write_response(400, &body, false);
                return;
            }
            Err(HttpError::Closed | HttpError::Io(_)) => return,
        }
    }
}

/// Routes one request to its handler; returns (status, body, close?).
fn route(shared: &Shared, worker: usize, req: &HttpRequest) -> (u16, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/query") => admitted(shared, || handle_query(shared, worker, &req.body)),
        ("POST", "/v1/batch") => admitted(shared, || handle_batch(shared, &req.body)),
        ("GET", "/v1/stats") => (200, stats_body(shared), false),
        ("POST", "/v1/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (200, "{\"ok\":true}".to_string(), true)
        }
        (_, "/v1/query" | "/v1/batch" | "/v1/stats" | "/v1/shutdown") => (
            405,
            error_body("method not allowed on this endpoint", "method_not_allowed"),
            false,
        ),
        _ => (
            404,
            error_body(&format!("no such endpoint: {}", req.path), "not_found"),
            false,
        ),
    }
}

/// Runs `f` under the admission gate: past `max_inflight` concurrently
/// evaluating requests the caller is refused with `503` instead.
fn admitted(shared: &Shared, f: impl FnOnce() -> (u16, String)) -> (u16, String, bool) {
    if shared.inflight.fetch_add(1, Ordering::SeqCst) >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared
            .server
            .metrics_recorder()
            .record_admission_rejection();
        return (
            503,
            error_body("server at capacity; retry later", "admission"),
            false,
        );
    }
    let (status, body) = f();
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    (status, body, false)
}

/// Parses one wire request object and stamps the configured deadline.
fn parse_request(shared: &Shared, v: &Json) -> Result<Request, ServeError> {
    let request = Request::from_json(v)?;
    match shared.config.deadline {
        Some(budget) => Ok(request.deadline(Instant::now() + budget)),
        None => Ok(request),
    }
}

/// `POST /v1/query`: one request object in, one reply object out.
fn handle_query(shared: &Shared, worker: usize, body: &str) -> (u16, String) {
    let out = Json::parse(body)
        .map_err(ServeError::from)
        .and_then(|v| parse_request(shared, &v))
        .and_then(|request| shared.server.execute_for(worker, &request));
    match out {
        Ok(reply) => (200, reply.to_json().render()),
        Err(e) => rejected(&e),
    }
}

/// `POST /v1/batch`: a `{"requests": […]}` object (or bare array) in,
/// `{"replies": […]}` out — one slot per request, in request order,
/// evaluation errors inline per slot. A malformed *document* (bad JSON
/// or a bad request spec) fails the whole batch with `400` instead.
fn handle_batch(shared: &Shared, body: &str) -> (u16, String) {
    let doc = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return rejected(&ServeError::from(e)),
    };
    let items = match batch_items(&doc) {
        Ok(items) => items,
        Err(e) => return rejected(&e),
    };
    let mut requests = Vec::with_capacity(items.len());
    for item in items {
        match parse_request(shared, item) {
            Ok(r) => requests.push(r),
            Err(e) => return rejected(&e),
        }
    }
    let slots: Vec<String> = shared
        .server
        .batch(&requests)
        .iter()
        .map(|slot| match slot {
            Ok(reply) => reply.to_json().render(),
            Err(e) => error_body(&e.to_string(), kind_of(e)),
        })
        .collect();
    (200, format!("{{\"replies\":[{}]}}", slots.join(",")))
}

/// The machine-readable error tag for one serving error.
fn kind_of(e: &ServeError) -> &'static str {
    match e {
        ServeError::Json(_) => "json",
        ServeError::BadRequest(_) => "bad_request",
        ServeError::Engine(EngineError::DeadlineExceeded) => "deadline",
        ServeError::Engine(_) => "engine",
    }
}

/// The HTTP status for one serving error.
fn status_of(e: &ServeError) -> u16 {
    match e {
        ServeError::Json(_) | ServeError::BadRequest(_) => 400,
        ServeError::Engine(EngineError::DeadlineExceeded) => 504,
        ServeError::Engine(_) => 500,
    }
}

/// Status + error body for one serving error.
fn rejected(e: &ServeError) -> (u16, String) {
    (status_of(e), error_body(&e.to_string(), kind_of(e)))
}

/// A `{"error": …, "kind": …}` body with proper string escaping.
fn error_body(message: &str, kind: &str) -> String {
    format!(
        "{{\"error\":{},\"kind\":{}}}",
        Json::Str(message.to_string()).render(),
        Json::Str(kind.to_string()).render(),
    )
}

/// The `GET /v1/stats` body: request metrics plus cache and pool
/// counters, so one curl answers "is the cache warm, are sessions being
/// reused, are we rejecting?".
fn stats_body(shared: &Shared) -> String {
    let m = shared.server.metrics();
    let c = shared.cache.stats();
    let p = shared.server.pool().stats();
    format!(
        "{{\"workers\":{},\"inflight\":{},\"metrics\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\
         \"pool\":{{\"checkouts\":{},\"created\":{},\"dropped\":{},\
         \"idle\":{},\"max_idle\":{}}}}}",
        shared.workers,
        shared.inflight.load(Ordering::SeqCst),
        m.to_json(),
        c.hits,
        c.misses,
        c.entries,
        p.checkouts,
        p.created,
        p.dropped,
        p.idle,
        p.max_idle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    const SRC: &str = "rel City(symbol, real) input.
        Earthquake(C, Flip<R>) :- City(C, R).
        Alarm(C) :- Earthquake(C, 1).";

    fn start(config: NetConfig) -> HttpServer {
        HttpServer::start_source(SRC, SemanticsMode::Grohe, "127.0.0.1:0", config).unwrap()
    }

    fn client(server: &HttpServer) -> Conn {
        Conn::new(TcpStream::connect(server.addr()).unwrap())
    }

    const QUERY: &str =
        r#"{"kind":"marginal","fact":"Alarm(sf)","input":"City(sf, 0.3).","backend":"exact"}"#;

    fn post(conn: &mut Conn, path: &str, body: &str) -> (u16, Json) {
        conn.write_request("POST", path, body).unwrap();
        let resp = conn.read_response().unwrap();
        (resp.status, Json::parse(&resp.body).unwrap())
    }

    #[test]
    fn query_endpoint_answers_over_the_wire() {
        let server = start(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, reply) = post(&mut conn, "/v1/query", QUERY);
        assert_eq!(status, 200);
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("marginal"));
        assert_eq!(reply.get("p").and_then(Json::as_f64), Some(0.3));
        server.shutdown();
        server.join();
    }

    #[test]
    fn keep_alive_reuses_the_connection_and_the_session() {
        let server = start(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        for _ in 0..5 {
            let (status, _) = post(&mut conn, "/v1/query", QUERY);
            assert_eq!(status, 200);
        }
        let m = server.metrics();
        assert_eq!(m.requests, 5);
        assert_eq!(m.errors, 0);
        // One worker, keep-alive, shard affinity: one session serves all
        // five requests.
        assert_eq!(server.shared.server.pool().stats().created, 1);
        server.shutdown();
        server.join();
    }

    #[test]
    fn batch_endpoint_answers_in_request_order() {
        let server = start(NetConfig {
            workers: 2,
            ..NetConfig::default()
        });
        let requests: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    r#"{{"kind":"marginal","fact":"Alarm(c{i})","input":"City(c{i}, 0.{i}).","backend":"exact"}}"#
                )
            })
            .collect();
        let body = format!("{{\"requests\":[{}]}}", requests.join(","));
        let mut conn = client(&server);
        let (status, reply) = post(&mut conn, "/v1/batch", &body);
        assert_eq!(status, 200);
        let replies = reply.get("replies").and_then(Json::as_array).unwrap();
        assert_eq!(replies.len(), 6);
        for (i, slot) in replies.iter().enumerate() {
            let expected = i as f64 / 10.0;
            let got = slot.get("p").and_then(Json::as_f64).unwrap();
            assert!((got - expected).abs() < 1e-12, "slot {i}: {got}");
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn routing_errors_are_404_and_405() {
        let server = start(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, body) = post(&mut conn, "/v1/nope", "{}");
        assert_eq!(status, 404);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("not_found"));
        // Wrong method on a real endpoint.
        conn.write_request("GET", "/v1/query", "").unwrap();
        assert_eq!(conn.read_response().unwrap().status, 405);
        server.shutdown();
        server.join();
    }

    #[test]
    fn bad_json_is_400() {
        let server = start(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, body) = post(&mut conn, "/v1/query", "{nope");
        assert_eq!(status, 400);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("json"));
        let (status, body) = post(&mut conn, "/v1/query", r#"{"kind":"teleport"}"#);
        assert_eq!(status, 400);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("bad_request"));
        server.shutdown();
        server.join();
    }

    #[test]
    fn oversized_body_is_413_and_closes_the_connection() {
        let server = start(NetConfig {
            workers: 1,
            max_body_bytes: 64,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let big = format!(
            r#"{{"kind":"marginal","fact":"Alarm(sf)","input":"{}"}}"#,
            "City(sf, 0.3). ".repeat(64)
        );
        let (status, body) = post(&mut conn, "/v1/query", &big);
        assert_eq!(status, 413);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("too_large"));
        // The server closed after the 413; the next read sees EOF.
        assert!(conn.read_response().is_err());
        server.shutdown();
        server.join();
    }

    #[test]
    fn admission_cap_rejects_with_503_and_counts_it() {
        let server = start(NetConfig {
            workers: 1,
            max_inflight: 0,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, body) = post(&mut conn, "/v1/query", QUERY);
        assert_eq!(status, 503);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("admission"));
        assert_eq!(server.metrics().admission_rejections, 1);
        // Stats keep serving even at capacity.
        conn.write_request("GET", "/v1/stats", "").unwrap();
        assert_eq!(conn.read_response().unwrap().status, 200);
        server.shutdown();
        server.join();
    }

    #[test]
    fn expired_deadline_is_504_and_counts_it() {
        let server = start(NetConfig {
            workers: 1,
            deadline: Some(Duration::ZERO),
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, body) = post(&mut conn, "/v1/query", QUERY);
        assert_eq!(status, 504);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(server.metrics().deadline_rejections, 1);
        server.shutdown();
        server.join();
    }

    #[test]
    fn stats_endpoint_reports_every_counter_group() {
        let server = start(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, _) = post(&mut conn, "/v1/query", QUERY);
        assert_eq!(status, 200);
        conn.write_request("GET", "/v1/stats", "").unwrap();
        let resp = conn.read_response().unwrap();
        assert_eq!(resp.status, 200);
        let stats = Json::parse(&resp.body).unwrap();
        assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(1));
        let metrics = stats.get("metrics").unwrap();
        assert_eq!(metrics.get("requests").and_then(Json::as_u64), Some(1));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        let pool = stats.get("pool").unwrap();
        assert_eq!(pool.get("checkouts").and_then(Json::as_u64), Some(1));
        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_endpoint_stops_every_worker() {
        let server = start(NetConfig {
            workers: 2,
            ..NetConfig::default()
        });
        let mut conn = client(&server);
        let (status, body) = post(&mut conn, "/v1/shutdown", "");
        assert_eq!(status, 200);
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(true));
        assert!(server.is_shutting_down());
        // Both workers observe the flag and exit; join returns.
        server.join();
    }

    #[test]
    fn malformed_http_is_400_and_closes() {
        let server = start(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut conn = Conn::new(stream);
        use std::io::Write;
        conn.stream()
            .try_clone()
            .unwrap()
            .write_all(b"garbage\r\n\r\n")
            .unwrap();
        let resp = conn.read_response().unwrap();
        assert_eq!(resp.status, 400);
        server.shutdown();
        server.join();
    }
}
