//! `http-mix`: an in-process HTTP server with one worker, serving the
//! alarm network plus a detector library, driven open-loop by the
//! benchmark's own one-connection client at a fixed ladder of offered
//! rates. Each request is timed from its scheduled send time, so a stall
//! charges the wait it imposes on every later request.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gdatalog_lang::SemanticsMode;
use gdatalog_net::{Conn, HttpServer, NetConfig};
use gdatalog_serve::json::Json;
use gdatalog_serve::{Request, ServeError, Server};

use crate::common::{facts_parse_us, front_end, secs, setup_time, Args, Outcome};
use crate::gen::{http_bodies, Kind, SERVE_PROGRAM};
use crate::stats;
use crate::trace::Tracer;

/// Offered rates in requests per second, well below the mix's capacity
/// on one worker.
const LADDER: [f64; 4] = [50.0, 100.0, 150.0, 200.0];
/// The ladder step whose latencies are the workload's operating point.
const OPERATING: usize = 1;
/// Each step's share of the run. The operating step gets most of it, so
/// that its windowed percentiles rest on many windows and a few slow
/// seconds on a busy host move them less.
const SHARE: [f64; 4] = [0.1, 0.7, 0.1, 0.1];
/// Requests per window of the operating step's windowed percentiles: two
/// seconds at the operating rate, so that each window's p95 has ten
/// requests beyond it.
const WINDOW: usize = 200;
/// A step fails when its p99 exceeds this.
const P99_LIMIT_MS: f64 = 100.0;
/// How long before a due time the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(500);
/// Server-side evaluation deadline; a request past it is answered 504.
const DEADLINE: Duration = Duration::from_secs(2);

/// One request of an open-loop step.
#[derive(Debug, Clone)]
struct Record {
    kind: Kind,
    body: usize,
    due: Instant,
    sent: Instant,
    done: Option<(Instant, u16, String)>,
}

impl Record {
    fn latency_ms(&self) -> Option<f64> {
        self.done
            .as_ref()
            .map(|(t, _, _)| t.duration_since(self.due).as_secs_f64() * 1e3)
    }
}

fn start_server() -> HttpServer {
    let config = NetConfig {
        workers: 1,
        deadline: Some(DEADLINE),
        ..NetConfig::default()
    };
    HttpServer::start_source(SERVE_PROGRAM, SemanticsMode::Grohe, "127.0.0.1:0", config)
        .expect("server starts")
}

/// The reply the in-process server gives for `body`: status and body,
/// computed through the same decode, execute and encode calls.
fn in_process(server: &Server, body: &str) -> (u16, String) {
    let out = Json::parse(body)
        .map_err(ServeError::from)
        .and_then(|v| Request::from_json(&v))
        .and_then(|r| server.execute(&r));
    match out {
        Ok(reply) => (200, reply.to_json().render()),
        Err(ServeError::Json(_) | ServeError::BadRequest(_)) => (400, String::new()),
        Err(_) => (500, String::new()),
    }
}

/// Whether an HTTP reply matches the in-process one: the same status,
/// and for a 200 the same bytes.
fn matches(expected: &(u16, String), status: u16, body: &str) -> bool {
    expected.0 == status && (status != 200 || expected.1 == body)
}

fn connect(addr: SocketAddr) -> (Conn, Conn) {
    let stream = TcpStream::connect(addr).expect("connects to the local server");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = stream.try_clone().expect("clones the socket");
    (Conn::new(stream), Conn::new(reader))
}

/// Sends `n` requests at `rate` per second on the connection, cycling
/// through `bodies` from `offset`, while the calling thread reads the
/// replies in order.
fn open_loop(
    conns: &mut (Conn, Conn),
    bodies: &[(Kind, String)],
    offset: usize,
    rate: f64,
    n: usize,
) -> Vec<Record> {
    let (writer, reader) = conns;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            for k in 0..n {
                // Sleep to just before the due time, then spin: a sleeping
                // thread can wake milliseconds late on a busy host.
                let at = due(k);
                if let Some(wait) = at.checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                let t = Instant::now();
                let body = &bodies[(offset + k) % bodies.len()].1;
                if writer.write_request("POST", "/v1/query", body).is_err() {
                    break;
                }
                sent.push(t);
            }
            sent
        });
        let mut replies = Vec::with_capacity(n);
        for _ in 0..n {
            match reader.read_response() {
                Ok(r) => replies.push((Instant::now(), r.status, r.body)),
                Err(_) => break,
            }
        }
        (sender.join().expect("sender thread"), replies)
    });
    let mut replies = replies.into_iter();
    sent.into_iter()
        .enumerate()
        .map(|(k, t)| {
            let i = (offset + k) % bodies.len();
            Record {
                kind: bodies[i].0,
                body: i,
                due: due(k),
                sent: t,
                done: replies.next(),
            }
        })
        .collect()
}

/// What one ladder step measured.
struct Step {
    rate: f64,
    p50: f64,
    p95: f64,
    /// The lower quartile over windows of `WINDOW` requests of each
    /// window's p50 and p95.
    window_p50: f64,
    window_p95: f64,
    p99: f64,
    late_p99: f64,
    achieved: f64,
    passed: bool,
    failed: usize,
    count: usize,
}

/// The lower quartile over consecutive windows of `WINDOW` latencies of
/// each window's `q`-quantile. Other processes on a shared host only add
/// latency, and they did so for stretches of ten seconds and more: a
/// request longer than the scheduler's time slice waits out a slice of
/// theirs. In a set of ten runs, the median over windows of the p95 rose
/// from 3.0 ms to between 3.6 and 5.2 ms in three runs, while the quieter
/// windows of each run kept the program's own latency.
fn windowed(lat: &[f64], q: f64) -> f64 {
    let per: Vec<f64> = lat
        .chunks_exact(WINDOW)
        .map(|w| stats::quantile(w, q))
        .collect();
    if per.is_empty() {
        stats::quantile(lat, q)
    } else {
        stats::quantile(&per, 0.25)
    }
}

fn summarize(rate: f64, records: &[Record], failed: usize) -> Step {
    let lat: Vec<f64> = records.iter().filter_map(Record::latency_ms).collect();
    let late: Vec<f64> = records
        .iter()
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    let quarter = lat.len() / 4;
    let growing = quarter > 0
        && stats::median(&lat[lat.len() - quarter..]) > 2.0 * stats::median(&lat[..quarter]) + 5.0;
    let p99 = stats::quantile(&lat, 0.99);
    let span = match (
        records.first(),
        records.last().and_then(|r| r.done.as_ref()),
    ) {
        (Some(first), Some((end, _, _))) => end.duration_since(first.due).as_secs_f64(),
        _ => f64::NAN,
    };
    Step {
        rate,
        p50: stats::median(&lat),
        p95: stats::quantile(&lat, 0.95),
        window_p50: windowed(&lat, 0.5),
        window_p95: windowed(&lat, 0.95),
        p99,
        late_p99: stats::quantile(&late, 0.99),
        achieved: lat.len() as f64 / span,
        passed: failed == 0 && !growing && p99 <= P99_LIMIT_MS,
        failed,
        count: records.len(),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let setup_s = setup_time(11, || {
        let t = Instant::now();
        let server = start_server();
        drop(connect(server.addr()));
        let s = secs(t);
        server.shutdown();
        server.join();
        s
    });
    out.set("setup_s", setup_s);

    let server = start_server();
    let reference =
        Server::from_source(SERVE_PROGRAM, SemanticsMode::Grohe).expect("model compiles");
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let count = |step: usize| (LADDER[step] * SHARE[step] * budget).ceil() as usize;
    let total: usize = (0..LADDER.len()).map(count).sum();
    let bodies = http_bodies(total + 40, args.seed);
    let mut conns = connect(server.addr());

    // Correctness before timing: forty bodies kept apart from the ladder's,
    // one at a time. A 504 is a missed deadline: failed, but no wrong answer.
    let mut expected: Vec<Option<(u16, String)>> = vec![None; bodies.len()];
    let mut check = |i: usize, status: u16, body: &str, out: &mut Outcome| -> bool {
        if status == 504 {
            return false;
        }
        let want = expected[i].get_or_insert_with(|| in_process(&reference, &bodies[i].1));
        let ok = matches(want, status, body) && (status == 400) == (bodies[i].0 == Kind::Bad);
        if !ok {
            out.wrong(format!(
                "{:?} request {i}: status {status}, expected {}",
                bodies[i].0, want.0
            ));
        }
        ok
    };
    for i in total..total + 40 {
        let recs = open_loop(&mut conns, &bodies, i, 1e6, 1);
        let ok = recs
            .first()
            .and_then(|r| r.done.as_ref())
            .is_some_and(|(_, s, b)| check(i, *s, b, &mut out));
        out.tally(ok);
    }

    let mut steps = Vec::new();
    let mut offset = 0;
    for (step, &rate) in LADDER.iter().enumerate() {
        let n = count(step);
        let records = open_loop(&mut conns, &bodies, offset, rate, n);
        offset += n;
        let mut failed = n - records.len();
        for _ in records.len()..n {
            out.tally(false);
        }
        for (k, r) in records.iter().enumerate() {
            let ok = match &r.done {
                None => false,
                // Every tenth reply, and every refusal, is compared with
                // the in-process server's.
                Some((_, status, body)) if k % 10 == 0 || *status != 200 => {
                    check(r.body, *status, body, &mut out)
                }
                Some((_, status, _)) => *status == 200,
            };
            out.tally(ok);
            failed += usize::from(!ok);
        }
        steps.push((summarize(rate, &records, failed), records));
    }
    for (s, _) in &steps {
        out.notes.push(format!(
            "offered {:>5.1}/s: {} sent, achieved {:.1}/s, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, late p99 {:.3} ms, {} failed, {}",
            s.rate, s.count, s.achieved, s.p50, s.p95, s.p99, s.late_p99, s.failed,
            if s.passed { "passes" } else { "misses the limit" }
        ));
    }
    let by_kind: Vec<String> = [Kind::Exact, Kind::Mc, Kind::Lw, Kind::Multi, Kind::Bad]
        .into_iter()
        .map(|k| {
            let own: Vec<f64> = steps[OPERATING]
                .1
                .iter()
                .filter(|r| r.kind == k)
                .filter_map(Record::latency_ms)
                .collect();
            format!("{k:?} {:.2}", stats::median(&own))
        })
        .collect();
    out.notes.push(format!(
        "operating step median ms by kind: {}",
        by_kind.join(", ")
    ));
    let op = &steps[OPERATING].0;
    let top = steps
        .iter()
        .rev()
        .find(|(s, _)| s.passed)
        .map_or(&steps[0].0, |(s, _)| s);
    out.set("answer_ms.p50", op.window_p50);
    out.set("answer_ms.p95", op.window_p95);
    out.set("runs_per_s", top.achieved);
    out.set("http.p50_ms", op.p50);
    out.set("http.p99_ms", op.p99);
    out.set("http.max_rps", top.achieved);
    out.set("gen.late_ms.p99", op.late_p99);
    out.notes.push(format!(
        "operating point {:.0}/s ({} requests): windowed p50 {:.2} ms, p95 {:.2} ms; highest passing rate {:.0}/s",
        op.rate, op.count, op.window_p50, op.window_p95, top.rate
    ));

    // On the same connection: the one worker serves it until it closes.
    conns.0.write_request("GET", "/v1/stats", "").ok();
    let stats_body = conns.1.read_response().map(|r| r.body).unwrap_or_default();
    let counter = |key: &str| {
        Json::parse(&stats_body)
            .ok()
            .and_then(|v| {
                v.get("metrics")
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            })
            .unwrap_or(f64::NAN)
    };
    out.set("net.admission_rejections", counter("admission_rejections"));
    out.set("net.deadline_rejections", counter("deadline_rejections"));
    drop(conns);
    server.shutdown();
    server.join();

    if args.trace {
        traced(&mut out, &reference, &bodies, &steps[0].1);
    }
    out
}

/// The traced run: every body of the lowest ladder step decoded, executed
/// and encoded in process, untraced and then inside spans, with the replies
/// asserted bit-identical to each other and to the HTTP replies.
fn traced(out: &mut Outcome, server: &Server, bodies: &[(Kind, String)], lowest: &[Record]) {
    let mut tracer = Tracer::new();
    let compiled = front_end(out, &mut tracer, SERVE_PROGRAM, 15);
    let inputs: Vec<String> = lowest
        .iter()
        .filter_map(|r| Json::parse(&bodies[r.body].1).ok())
        .filter_map(|v| v.get("input").and_then(Json::as_str).map(str::to_string))
        .take(25)
        .collect();
    let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    out.set(
        "lang.facts_parse_us",
        facts_parse_us(&mut tracer, &compiled, &inputs),
    );
    let given: Vec<String> = lowest
        .iter()
        .filter_map(|r| Json::parse(&bodies[r.body].1).ok())
        .filter_map(|v| v.get("given").and_then(Json::as_str).map(str::to_string))
        .take(25)
        .collect();
    let observe_us: Vec<f64> = given
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let (_, id) = tracer.span("lang.observe_compile", i as u64, |_| {
                gdatalog_lang::compile_observations(&compiled, g).expect("evidence compiles")
            });
            tracer.spans[id].duration_ns() as f64 / 1e3
        })
        .collect();
    out.set("lang.observe_compile_us", stats::median(&observe_us));

    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    let mut execute: Vec<(Kind, f64)> = Vec::new();
    let mut in_process_us = Vec::new();
    for (req, r) in lowest.iter().enumerate() {
        let body = &bodies[r.body].1;
        let t = Instant::now();
        let plain = in_process(server, body);
        untraced_s += secs(t);
        let t = Instant::now();
        let (got, root) = tracer.span("serve.request", req as u64, |tracer| {
            let (parsed, d) = tracer.span("serve.decode", req as u64, |_| {
                Json::parse(body)
                    .map_err(ServeError::from)
                    .and_then(|v| Request::from_json(&v))
            });
            let Ok(request) = parsed else {
                return ((400, String::new()), Some(d), None, None);
            };
            let (reply, e) = tracer.span("serve.execute", req as u64, |_| server.execute(&request));
            let Ok(reply) = reply else {
                return ((500, String::new()), Some(d), Some(e), None);
            };
            let (text, x) = tracer.span("serve.encode", req as u64, |_| reply.to_json().render());
            ((200, text), Some(d), Some(e), Some(x))
        });
        traced_s += secs(t);
        let (reply, d, e, x) = got;
        in_process_us.push(tracer.spans[root].duration_ns() as f64 / 1e3);
        if let Some(d) = d {
            decode.push(tracer.spans[d].duration_ns() as f64 / 1e3);
        }
        if let Some(e) = e {
            execute.push((r.kind, tracer.spans[e].duration_ns() as f64 / 1e3));
        }
        if let Some(x) = x {
            encode.push(tracer.spans[x].duration_ns() as f64 / 1e3);
        }
        let http_ok = r
            .done
            .as_ref()
            .is_some_and(|(_, s, b)| matches(&reply, *s, b));
        if reply != plain || !http_ok {
            out.wrong(format!(
                "traced in-process reply {req} differs from the untraced or HTTP one"
            ));
        }
    }
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    out.set("serve.decode_us", stats::median(&decode));
    out.set("serve.encode_us", stats::median(&encode));
    for (kind, name) in [
        (Kind::Exact, "serve.execute_us.exact"),
        (Kind::Mc, "serve.execute_us.mc"),
        (Kind::Lw, "serve.execute_us.lw"),
        (Kind::Multi, "serve.execute_us.multi"),
    ] {
        let own: Vec<f64> = execute
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, us)| *us)
            .collect();
        out.set(name, stats::median(&own));
    }
    // HTTP round trip at the lowest rate minus the same requests' in-process
    // decode + execute + encode.
    let http_us: Vec<f64> = lowest
        .iter()
        .filter_map(Record::latency_ms)
        .map(|ms| ms * 1e3)
        .collect();
    out.set(
        "net.overhead_us",
        stats::mean(&http_us) - stats::mean(&in_process_us),
    );
    out.tracer = Some(tracer);
}
