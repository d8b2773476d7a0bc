//! Serving observability: lock-free counters and a per-request latency
//! histogram, snapshotted as [`Metrics`].
//!
//! Every counter is a relaxed atomic — recording sits on the request fast
//! path of the batch executor and the HTTP front end, so a snapshot is
//! allowed to be *approximately* consistent (it may straddle an in-flight
//! request) but recording must never contend. Latencies go into
//! power-of-two microsecond buckets; percentile reads report the upper
//! bound of the bucket holding the target rank, i.e. p50/p99 are
//! conservative to within a factor of two — the right fidelity for a
//! saturation dashboard, at the cost of one `fetch_add` per request.
//!
//! ```
//! use gdatalog_serve::MetricsRecorder;
//! use std::time::Duration;
//!
//! let recorder = MetricsRecorder::new();
//! recorder.record_request(Duration::from_micros(120), true);
//! recorder.record_request(Duration::from_micros(90), true);
//! recorder.record_request(Duration::from_micros(3_000), false);
//! let m = recorder.snapshot();
//! assert_eq!(m.requests, 3);
//! assert_eq!(m.errors, 1);
//! assert!(m.p50_us >= 90 && m.p50_us <= 256);
//! assert!(m.p99_us >= 3_000);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, so the top bucket absorbs anything from
/// ~17 minutes up.
const BUCKETS: usize = 30;

/// Lock-free serving counters, shared by reference between the batch
/// executor, the HTTP front end, and the stats endpoint.
#[derive(Debug)]
pub struct MetricsRecorder {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: [AtomicU64; BUCKETS],
    latency_sum_us: AtomicU64,
    deadline_rejections: AtomicU64,
    admission_rejections: AtomicU64,
    // Inference-quality counters. Means are accumulated as micro-unit
    // integer sums (value × 1e6, saturating) so recording stays a relaxed
    // fetch_add — the same discipline as the latency histogram.
    conditioned_passes: AtomicU64,
    ess_micro_sum: AtomicU64,
    mh_passes: AtomicU64,
    accept_micro_sum: AtomicU64,
}

/// One point-in-time reading of a [`MetricsRecorder`] (plus, at the
/// serving surface, the cache/pool counters it is reported next to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Requests whose evaluation finished (successfully or not).
    pub requests: u64,
    /// Requests that finished with an error (bad request, engine error,
    /// deadline).
    pub errors: u64,
    /// Requests aborted by a cooperative evaluation deadline (a subset of
    /// `errors`).
    pub deadline_rejections: u64,
    /// Requests refused up front by admission control (never evaluated;
    /// *not* counted in `requests`).
    pub admission_rejections: u64,
    /// Mean request latency in microseconds (0 when no requests yet).
    pub mean_us: u64,
    /// Median request latency, rounded up to its bucket boundary.
    pub p50_us: u64,
    /// 99th-percentile request latency, rounded up to its bucket boundary.
    pub p99_us: u64,
    /// Conditioned evaluation passes that reported an evidence summary.
    pub conditioned_passes: u64,
    /// Mean effective sample size of conditioned passes, in micro-units
    /// (ESS × 1e6; divide by 1e6 to read). 0 when none yet.
    pub mean_ess_micro: u64,
    /// Conditioned passes answered by the Metropolis-Hastings backend.
    pub mh_passes: u64,
    /// Mean MH chain acceptance rate, in micro-units (rate × 1e6).
    pub mean_accept_micro: u64,
    /// Monte-Carlo and MH evaluations that found their chase tree's memo
    /// kept by the served model ([`gdatalog_core::MemoStats`]; 0 from a
    /// bare recorder).
    pub memo_hits: u64,
    /// Evaluations that started from an empty chase-tree memo.
    pub memo_misses: u64,
    /// Cells the kept chase-tree memos hold.
    pub memo_cells: u64,
    /// Chase-tree memos evicted for the memo store's budget.
    pub memo_evictions: u64,
}

impl MetricsRecorder {
    /// A recorder with every counter at zero.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: [const { AtomicU64::new(0) }; BUCKETS],
            latency_sum_us: AtomicU64::new(0),
            deadline_rejections: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            conditioned_passes: AtomicU64::new(0),
            ess_micro_sum: AtomicU64::new(0),
            mh_passes: AtomicU64::new(0),
            accept_micro_sum: AtomicU64::new(0),
        }
    }

    /// Records the diagnostics of one conditioned evaluation pass: its
    /// achieved effective sample size and, for MH passes, the chain
    /// acceptance rate. Non-finite values are dropped rather than
    /// poisoning the running means.
    pub fn record_inference(&self, ess: f64, accept_rate: Option<f64>) {
        if ess.is_finite() && ess >= 0.0 {
            self.conditioned_passes.fetch_add(1, Ordering::Relaxed);
            self.ess_micro_sum
                .fetch_add((ess * 1e6).min(u64::MAX as f64) as u64, Ordering::Relaxed);
        }
        if let Some(rate) = accept_rate {
            if rate.is_finite() && (0.0..=1.0).contains(&rate) {
                self.mh_passes.fetch_add(1, Ordering::Relaxed);
                self.accept_micro_sum
                    .fetch_add((rate * 1e6) as u64, Ordering::Relaxed);
            }
        }
    }

    /// Records one finished request: its wall-clock latency and whether it
    /// succeeded.
    pub fn record_request(&self, elapsed: Duration, ok: bool) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request aborted by its evaluation deadline (callers also
    /// [`record_request`](Self::record_request) it with `ok = false`).
    pub fn record_deadline_rejection(&self) {
        self.deadline_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request refused by admission control before evaluation.
    pub fn record_admission_rejection(&self) {
        self.admission_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> Metrics {
        let requests = self.requests.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .latency
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // The histogram total is the rank base: it can trail `requests` by
        // in-flight recordings, which keeps percentiles self-consistent.
        let total: u64 = buckets.iter().sum();
        Metrics {
            requests,
            errors: self.errors.load(Ordering::Relaxed),
            deadline_rejections: self.deadline_rejections.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            mean_us: self
                .latency_sum_us
                .load(Ordering::Relaxed)
                .checked_div(total)
                .unwrap_or(0),
            p50_us: percentile(&buckets, total, 0.50),
            p99_us: percentile(&buckets, total, 0.99),
            conditioned_passes: self.conditioned_passes.load(Ordering::Relaxed),
            mean_ess_micro: self
                .ess_micro_sum
                .load(Ordering::Relaxed)
                .checked_div(self.conditioned_passes.load(Ordering::Relaxed))
                .unwrap_or(0),
            mh_passes: self.mh_passes.load(Ordering::Relaxed),
            mean_accept_micro: self
                .accept_micro_sum
                .load(Ordering::Relaxed)
                .checked_div(self.mh_passes.load(Ordering::Relaxed))
                .unwrap_or(0),
            memo_hits: 0,
            memo_misses: 0,
            memo_cells: 0,
            memo_evictions: 0,
        }
    }
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

/// The bucket index of a latency: `floor(log2(us))`, clamped to the table.
fn bucket_of(us: u64) -> usize {
    let log2 = 63 - us.max(1).leading_zeros() as usize;
    log2.min(BUCKETS - 1)
}

/// The upper bound of the bucket containing rank `ceil(q · total)`.
fn percentile(buckets: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return 1u64 << (i + 1).min(63);
        }
    }
    1u64 << BUCKETS.min(63)
}

impl Metrics {
    /// Renders the snapshot as a JSON object (the body core of
    /// `GET /v1/stats`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"errors\":{},\"deadline_rejections\":{},\
             \"admission_rejections\":{},\"latency_us\":{{\"mean\":{},\
             \"p50\":{},\"p99\":{}}},\"inference\":{{\
             \"conditioned_passes\":{},\"mean_ess\":{},\
             \"mh_passes\":{},\"mean_accept_rate\":{}}},\"memo_hits\":{},\
             \"memo_misses\":{},\"memo_cells\":{},\"memo_evictions\":{}}}",
            self.requests,
            self.errors,
            self.deadline_rejections,
            self.admission_rejections,
            self.mean_us,
            self.p50_us,
            self.p99_us,
            self.conditioned_passes,
            self.mean_ess_micro as f64 / 1e6,
            self.mh_passes,
            self.mean_accept_micro as f64 / 1e6,
            self.memo_hits,
            self.memo_misses,
            self.memo_cells,
            self.memo_evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_snapshots_zeros() {
        let m = MetricsRecorder::new().snapshot();
        assert_eq!(m.requests, 0);
        assert_eq!(m.p50_us, 0);
        assert_eq!(m.p99_us, 0);
        assert_eq!(m.mean_us, 0);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let r = MetricsRecorder::new();
        // 99 fast requests and one slow outlier.
        for _ in 0..99 {
            r.record_request(Duration::from_micros(100), true);
        }
        r.record_request(Duration::from_millis(50), true);
        let m = r.snapshot();
        assert_eq!(m.requests, 100);
        // p50 lands in the [64, 128) bucket → reported as 128.
        assert_eq!(m.p50_us, 128);
        // p99 is still in the fast bucket (rank 99 of 100) …
        assert_eq!(m.p99_us, 128);
        // … and the mean is pulled up by the outlier.
        assert!(m.mean_us > 500);
    }

    #[test]
    fn rejection_counters_are_independent() {
        let r = MetricsRecorder::new();
        r.record_admission_rejection();
        r.record_deadline_rejection();
        r.record_request(Duration::from_micros(10), false);
        let m = r.snapshot();
        assert_eq!(m.admission_rejections, 1);
        assert_eq!(m.deadline_rejections, 1);
        assert_eq!(m.requests, 1, "admission rejections never evaluated");
        assert_eq!(m.errors, 1);
    }

    #[test]
    fn bucket_of_is_monotone_and_clamped() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn inference_counters_average_in_micro_units() {
        let r = MetricsRecorder::new();
        r.record_inference(100.0, None);
        r.record_inference(300.0, Some(0.25));
        r.record_inference(f64::NAN, Some(2.0)); // both dropped
        let m = r.snapshot();
        assert_eq!(m.conditioned_passes, 2);
        assert_eq!(m.mean_ess_micro, 200_000_000);
        assert_eq!(m.mh_passes, 1);
        assert_eq!(m.mean_accept_micro, 250_000);
        let parsed = crate::json::Json::parse(&m.to_json()).unwrap();
        let inference = parsed.get("inference").unwrap();
        assert_eq!(
            inference.get("mean_ess").and_then(|v| v.as_f64()),
            Some(200.0)
        );
        assert_eq!(
            inference.get("mean_accept_rate").and_then(|v| v.as_f64()),
            Some(0.25)
        );
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let r = MetricsRecorder::new();
        r.record_request(Duration::from_micros(5), true);
        let metrics = Metrics {
            memo_hits: 3,
            memo_misses: 2,
            memo_cells: 640,
            memo_evictions: 1,
            ..r.snapshot()
        };
        let parsed = crate::json::Json::parse(&metrics.to_json()).unwrap();
        assert_eq!(parsed.get("requests").and_then(|v| v.as_u64()), Some(1));
        assert!(parsed.get("latency_us").is_some());
        for (member, value) in [
            ("memo_hits", 3),
            ("memo_misses", 2),
            ("memo_cells", 640),
            ("memo_evictions", 1),
        ] {
            assert_eq!(
                parsed.get(member).and_then(|v| v.as_u64()),
                Some(value),
                "{member}"
            );
        }
    }
}
