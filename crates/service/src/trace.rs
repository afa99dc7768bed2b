//! Per-request tracing: trace ids, per-stage timings, and a rate-limited
//! slow-request log.
//!
//! Std-only and allocation-light. The server creates one [`RequestTrace`]
//! per request from the connection id and a per-connection sequence
//! number, marks stage boundaries as the request moves through the
//! pipeline (`parse → admission → cache|plan → encode → write`), and
//! hands the finished trace to its [`SlowLog`]. Requests over the
//! configured threshold render one structured log line — rate-limited so a storm of
//! slow requests cannot turn the log into its own overload — and the
//! trace id is echoed on JSON wire responses (the `"trace"` field, see
//! [`crate::proto::attach_trace`]) so a log line correlates with the
//! exact response a client saw.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request's trace: an id stable for the request's lifetime and the
/// wall-clock duration of each pipeline stage.
#[derive(Debug)]
pub struct RequestTrace {
    id: String,
    started: Instant,
    last_mark: Instant,
    stages: Vec<(&'static str, Duration)>,
}

impl RequestTrace {
    /// Starts a trace for request `seq` on connection `conn`. The id is
    /// `c<conn>-r<seq>` — unique per server process, cheap to generate,
    /// and readable in both the log and the wire response.
    pub fn start(conn: u64, seq: u64) -> Self {
        let now = Instant::now();
        Self {
            id: format!("c{conn}-r{seq}"),
            started: now,
            last_mark: now,
            stages: Vec::with_capacity(6),
        }
    }

    /// The trace id (`c<conn>-r<seq>`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Closes the stage that ran since the previous mark (or since the
    /// trace started) under `name`. Stages are recorded in call order.
    pub fn stage(&mut self, name: &'static str) {
        let now = Instant::now();
        self.stages.push((name, now.duration_since(self.last_mark)));
        self.last_mark = now;
    }

    /// Total wall clock since the trace started.
    pub fn total(&self) -> Duration {
        self.started.elapsed()
    }

    /// The recorded stages, in order.
    pub fn stages(&self) -> &[(&'static str, Duration)] {
        &self.stages
    }

    /// Renders the structured slow-request log line:
    /// `slow-request trace=c3-r7 total_us=12345 parse_us=10 ...`.
    pub fn render_line(&self) -> String {
        let mut out = format!(
            "slow-request trace={} total_us={}",
            self.id,
            self.total().as_micros()
        );
        for (name, took) in &self.stages {
            let _ = write!(out, " {name}_us={}", took.as_micros());
        }
        out
    }
}

/// What [`SlowLog::observe`] decided about one finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlowVerdict {
    /// Under the threshold — nothing to log.
    Fast,
    /// Over the threshold and within the rate budget: the rendered log
    /// line, ready to print.
    Emit(String),
    /// Over the threshold but suppressed by the rate limiter.
    Suppressed,
}

/// Minimum spacing between emitted slow-request lines when none is
/// configured explicitly.
pub const DEFAULT_SLOW_LOG_INTERVAL: Duration = Duration::from_secs(1);

/// The slow-request log: emits at most one line per interval for requests
/// whose total time crosses the threshold. Shared across handler threads;
/// the only synchronization is one mutex taken *after* a request already
/// proved slow, so the fast path never touches it.
#[derive(Debug)]
pub struct SlowLog {
    threshold: Duration,
    min_interval: Duration,
    last_emit: Mutex<Option<Instant>>,
}

impl SlowLog {
    /// A slow log with the default one-line-per-second rate limit.
    pub fn new(threshold: Duration) -> Self {
        Self::with_rate(threshold, DEFAULT_SLOW_LOG_INTERVAL)
    }

    /// A slow log emitting at most one line per `min_interval`.
    pub fn with_rate(threshold: Duration, min_interval: Duration) -> Self {
        Self {
            threshold,
            min_interval,
            last_emit: Mutex::new(None),
        }
    }

    /// The configured slowness threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Judges one finished request: fast requests pass untouched, slow
    /// ones render a line unless the rate limiter has emitted within the
    /// last interval.
    pub fn observe(&self, trace: &RequestTrace) -> SlowVerdict {
        if trace.total() < self.threshold {
            return SlowVerdict::Fast;
        }
        let now = Instant::now();
        let mut last = self.last_emit.lock().unwrap_or_else(|e| e.into_inner());
        match *last {
            Some(prev) if now.duration_since(prev) < self.min_interval => SlowVerdict::Suppressed,
            _ => {
                *last = Some(now);
                SlowVerdict::Emit(trace.render_line())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_stages_in_order_and_renders_them() {
        let mut t = RequestTrace::start(3, 7);
        assert_eq!(t.id(), "c3-r7");
        t.stage("parse");
        std::thread::sleep(Duration::from_millis(2));
        t.stage("plan");
        t.stage("serialize");
        let names: Vec<_> = t.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["parse", "plan", "serialize"]);
        assert!(t.stages()[1].1 >= Duration::from_millis(2));
        let line = t.render_line();
        assert!(
            line.starts_with("slow-request trace=c3-r7 total_us="),
            "{line}"
        );
        assert!(line.contains(" plan_us="), "{line}");
    }

    #[test]
    fn slow_log_only_fires_above_the_threshold() {
        let log = SlowLog::new(Duration::from_millis(50));
        let t = RequestTrace::start(1, 1);
        assert_eq!(log.observe(&t), SlowVerdict::Fast, "fresh trace is fast");

        let log = SlowLog::new(Duration::ZERO);
        let t = RequestTrace::start(1, 2);
        assert!(matches!(log.observe(&t), SlowVerdict::Emit(_)));
    }

    #[test]
    fn slow_log_rate_limits_then_recovers() {
        let log = SlowLog::with_rate(Duration::ZERO, Duration::from_millis(40));
        let t = RequestTrace::start(2, 1);
        assert!(matches!(log.observe(&t), SlowVerdict::Emit(_)));
        assert_eq!(log.observe(&t), SlowVerdict::Suppressed);
        assert_eq!(log.observe(&t), SlowVerdict::Suppressed);
        std::thread::sleep(Duration::from_millis(45));
        assert!(
            matches!(log.observe(&t), SlowVerdict::Emit(_)),
            "budget refills after the interval"
        );
    }

    #[test]
    fn suppressed_counts_stay_accurate_across_a_window_boundary() {
        // Drive a burst through one rate window, cross the boundary, and
        // drive a second burst: exactly one line per window may emit and
        // every other slow request must count as suppressed — the split
        // `pops_slow_traces_total{outcome}` reports.
        let window = Duration::from_millis(150);
        let log = SlowLog::with_rate(Duration::ZERO, window);
        let t = RequestTrace::start(5, 1);
        let mut emitted = 0u64;
        let mut suppressed = 0u64;
        let mut count = |verdict: SlowVerdict| match verdict {
            SlowVerdict::Emit(_) => emitted += 1,
            SlowVerdict::Suppressed => suppressed += 1,
            SlowVerdict::Fast => panic!("zero threshold never judges fast"),
        };
        for _ in 0..10 {
            count(log.observe(&t));
        }
        std::thread::sleep(window + Duration::from_millis(30));
        for _ in 0..5 {
            count(log.observe(&t));
        }
        assert_eq!(emitted, 2, "one line per window");
        assert_eq!(
            suppressed, 13,
            "every other slow request is counted, none double-counted"
        );
    }

    #[test]
    fn emitted_line_carries_the_trace_id() {
        let log = SlowLog::new(Duration::ZERO);
        let mut t = RequestTrace::start(9, 4);
        t.stage("parse");
        let SlowVerdict::Emit(line) = log.observe(&t) else {
            panic!("zero threshold must emit");
        };
        assert!(line.contains("trace=c9-r4"), "{line}");
        assert!(line.contains("parse_us="), "{line}");
    }
}
