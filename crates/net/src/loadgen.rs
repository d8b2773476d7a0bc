//! An open-loop load generator for the HTTP front end: N keep-alive
//! connections cycling through a request corpus, reporting throughput
//! and exact latency percentiles.
//!
//! Without a target rate each connection issues back-to-back requests
//! (closed-loop per connection, which measures server capacity). With
//! [`LoadgenConfig::rate`] set, requests fire on a fixed global schedule
//! regardless of how fast replies come back — the open-loop discipline
//! that exposes queueing delay instead of coordinated omission hiding
//! it: a slow reply does not postpone the next request's *scheduled*
//! time, so the wait shows up in the measured latency.
//!
//! Percentiles are exact (sorted per-request microseconds), unlike the
//! server's own bucketed [`gdatalog_serve::Metrics`] — the two should
//! agree to within a bucket width.

use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use gdatalog_serve::json::Json;
use gdatalog_serve::{batch_items, ServeError};

use crate::http::Conn;

/// What traffic to drive where.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Endpoint to post to (default `/v1/query`).
    pub path: String,
    /// Concurrent keep-alive connections. Match the server's worker
    /// count to measure capacity; exceed it to measure admission.
    pub connections: usize,
    /// How long to drive traffic.
    pub duration: Duration,
    /// Target request rate across all connections (requests/second).
    /// `None` = closed-loop: each connection sends as fast as replies
    /// arrive.
    pub rate: Option<f64>,
    /// Socket timeout for connect/read/write.
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:7171".to_string(),
            path: "/v1/query".to_string(),
            connections: 1,
            duration: Duration::from_secs(5),
            rate: None,
            timeout: Duration::from_secs(10),
        }
    }
}

/// What happened during one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests sent (whether or not a reply arrived).
    pub sent: u64,
    /// Replies with a 2xx status.
    pub ok_2xx: u64,
    /// Replies with any other status (including 503/504 rejections —
    /// those are the server *working as configured*, counted separately
    /// from transport failures).
    pub non_2xx: u64,
    /// Requests that died on the socket (connect/read/write errors).
    pub io_errors: u64,
    /// Wall-clock of the run in milliseconds.
    pub elapsed_ms: u64,
    /// Completed requests per second (2xx + non-2xx over wall-clock).
    pub req_per_sec: f64,
    /// Mean reply latency, microseconds.
    pub mean_us: u64,
    /// Median reply latency, microseconds (exact, not bucketed).
    pub p50_us: u64,
    /// 99th-percentile reply latency, microseconds (exact).
    pub p99_us: u64,
}

impl LoadgenReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sent\":{},\"ok_2xx\":{},\"non_2xx\":{},\"io_errors\":{},\
             \"elapsed_ms\":{},\"req_per_sec\":{:.2},\
             \"latency_us\":{{\"mean\":{},\"p50\":{},\"p99\":{}}}}}",
            self.sent,
            self.ok_2xx,
            self.non_2xx,
            self.io_errors,
            self.elapsed_ms,
            self.req_per_sec,
            self.mean_us,
            self.p50_us,
            self.p99_us,
        )
    }
}

/// Extracts the request corpus from a JSON document: either a top-level
/// array of request objects or an object with a `requests` array (the
/// same shapes `POST /v1/batch` accepts). Each element is re-rendered to
/// its own wire body.
///
/// # Errors
/// [`ServeError::Json`] when the document parses but has neither shape,
/// or does not parse at all.
pub fn bodies_from_json(doc: &str) -> Result<Vec<String>, ServeError> {
    let parsed = Json::parse(doc).map_err(ServeError::from)?;
    let items = batch_items(&parsed)?;
    if items.is_empty() {
        return Err(ServeError::Json("the request corpus is empty".to_string()));
    }
    Ok(items.iter().map(Json::render).collect())
}

/// What one connection thread measured.
struct ConnTally {
    sent: u64,
    ok_2xx: u64,
    non_2xx: u64,
    io_errors: u64,
    latencies_us: Vec<u64>,
}

/// Drives `bodies` at the server and reports when the duration elapses.
/// Transport failures are counted, not fatal: a report with nothing but
/// `io_errors` means the server was unreachable.
pub fn run(bodies: &[String], config: &LoadgenConfig) -> LoadgenReport {
    assert!(!bodies.is_empty(), "loadgen needs a non-empty corpus");
    let connections = config.connections.max(1);
    let started = Instant::now();
    let deadline = started + config.duration;
    let tallies: Vec<ConnTally> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|t| {
                scope.spawn(move || drive_connection(t, connections, bodies, config, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut sent, mut ok_2xx, mut non_2xx, mut io_errors) = (0u64, 0u64, 0u64, 0u64);
    for tally in tallies {
        sent += tally.sent;
        ok_2xx += tally.ok_2xx;
        non_2xx += tally.non_2xx;
        io_errors += tally.io_errors;
        latencies.extend(tally.latencies_us);
    }
    latencies.sort_unstable();
    let completed = ok_2xx + non_2xx;
    let mean_us = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    LoadgenReport {
        sent,
        ok_2xx,
        non_2xx,
        io_errors,
        elapsed_ms: elapsed.as_millis() as u64,
        req_per_sec: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_us,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// One connection: connect, then fire until the deadline.
fn drive_connection(
    thread_ix: usize,
    connections: usize,
    bodies: &[String],
    config: &LoadgenConfig,
    deadline: Instant,
) -> ConnTally {
    let mut tally = ConnTally {
        sent: 0,
        ok_2xx: 0,
        non_2xx: 0,
        io_errors: 0,
        latencies_us: Vec::new(),
    };
    let mut conn = match connect(config) {
        Some(conn) => conn,
        None => {
            tally.io_errors += 1;
            return tally;
        }
    };
    // The open-loop schedule interleaves threads: request k of thread t
    // is the (t + k·connections)-th global request, due at
    // start + global/rate.
    let start = deadline - config.duration;
    let mut k = 0u64;
    while Instant::now() < deadline {
        if let Some(rate) = config.rate {
            let global = thread_ix as u64 + k * connections as u64;
            let due = start + Duration::from_secs_f64(global as f64 / rate);
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
        }
        let body = &bodies[(k as usize) % bodies.len()];
        let sent_at = Instant::now();
        tally.sent += 1;
        let outcome = conn
            .write_request("POST", &config.path, body)
            .map_err(|e| e.to_string())
            .and_then(|()| conn.read_response().map_err(|e| e.to_string()));
        match outcome {
            Ok(resp) => {
                tally
                    .latencies_us
                    .push(sent_at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                if (200..300).contains(&resp.status) {
                    tally.ok_2xx += 1;
                } else {
                    tally.non_2xx += 1;
                }
            }
            Err(_) => {
                tally.io_errors += 1;
                // One reconnect attempt keeps a dropped keep-alive
                // connection (server restart, idle timeout) from ending
                // the thread early; a dead server ends it.
                match connect(config) {
                    Some(fresh) => conn = fresh,
                    None => break,
                }
            }
        }
        k += 1;
    }
    tally
}

/// One configured client connection, or `None` if the connect failed.
fn connect(config: &LoadgenConfig) -> Option<Conn> {
    let stream = TcpStream::connect(&config.addr).ok()?;
    stream.set_read_timeout(Some(config.timeout)).ok()?;
    stream.set_write_timeout(Some(config.timeout)).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(Conn::new(stream))
}

/// The exact `q`-quantile of sorted latencies (nearest-rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HttpServer, NetConfig};
    use gdatalog_lang::SemanticsMode;

    const SRC: &str = "rel City(symbol, real) input.
        Earthquake(C, Flip<R>) :- City(C, R).
        Alarm(C) :- Earthquake(C, 1).";

    #[test]
    fn corpus_accepts_both_wire_shapes_and_rejects_others() {
        let arr = r#"[{"kind":"marginal","fact":"A(x)"}]"#;
        assert_eq!(bodies_from_json(arr).unwrap().len(), 1);
        let obj =
            r#"{"requests":[{"kind":"marginal","fact":"A(x)"},{"kind":"marginals","rel":"A"}]}"#;
        assert_eq!(bodies_from_json(obj).unwrap().len(), 2);
        assert!(bodies_from_json(r#"{"nope":1}"#).is_err());
        assert!(bodies_from_json("[]").is_err());
        assert!(bodies_from_json("{{{").is_err());
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn loadgen_drives_a_live_server_and_reports() {
        let server = HttpServer::start_source(
            SRC,
            SemanticsMode::Grohe,
            "127.0.0.1:0",
            NetConfig {
                workers: 2,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let bodies = bodies_from_json(
            r#"[{"kind":"marginal","fact":"Alarm(sf)","input":"City(sf, 0.3).","backend":"exact"}]"#,
        )
        .unwrap();
        let report = run(
            &bodies,
            &LoadgenConfig {
                addr: server.addr().to_string(),
                connections: 2,
                duration: Duration::from_millis(300),
                ..LoadgenConfig::default()
            },
        );
        assert!(report.sent > 0, "drove traffic: {report:?}");
        assert_eq!(report.io_errors, 0, "no transport failures: {report:?}");
        assert_eq!(report.non_2xx, 0, "all 2xx: {report:?}");
        assert_eq!(report.ok_2xx, report.sent);
        assert!(report.p50_us > 0 && report.p99_us >= report.p50_us);
        let rendered = report.to_json();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(
            parsed.get("ok_2xx").and_then(Json::as_u64),
            Some(report.ok_2xx)
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn open_loop_rate_caps_the_request_count() {
        let server = HttpServer::start_source(
            SRC,
            SemanticsMode::Grohe,
            "127.0.0.1:0",
            NetConfig {
                workers: 1,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let bodies = bodies_from_json(
            r#"[{"kind":"marginal","fact":"Alarm(sf)","input":"City(sf, 0.3).","backend":"exact"}]"#,
        )
        .unwrap();
        let report = run(
            &bodies,
            &LoadgenConfig {
                addr: server.addr().to_string(),
                connections: 1,
                duration: Duration::from_millis(400),
                rate: Some(20.0),
                ..LoadgenConfig::default()
            },
        );
        // 20 req/s for 0.4 s schedules at most 8 sends; closed-loop on
        // this corpus would do hundreds.
        assert!(report.sent <= 8, "rate-limited: {report:?}");
        assert!(report.sent >= 1);
        server.shutdown();
        server.join();
    }
}
