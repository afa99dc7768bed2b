//! The service metrics registry: one declarative table of every metric,
//! lock-free counters and log₂ latency histograms.
//!
//! Every metric is declared **once**, as a row of a table below. A row
//! names the metric, says whether it is a `counter` (monotonic; a relaxed
//! atomic in [`ServiceMetrics`]), a `gauge` (a current level, filled into
//! the snapshot by [`crate::RoutingService::metrics`]) or a `histogram`,
//! and then lists, in order:
//!
//! - an optional `(read)` function, for a value derived from other
//!   fields instead of stored in a field of its own;
//! - its paths in the `stats` document, e.g. `["cache", "l1", "hits"]`;
//! - after `=>`, its Prometheus family: name, an optional `(label)`
//!   whose value comes from the row's source (request kind, topology, …),
//!   optional fixed `{label: "value"}` pairs, and the `# HELP` text. A
//!   family spread over several rows carries its help on the first one.
//!
//! From `SNAPSHOT_ROWS` the macro generates the [`ServiceMetrics`]
//! atomics, the [`MetricsSnapshot`] fields, `snapshot`, `absorb` and
//! `clear_gauges`; the `stats` op (`json_fields`) and `/metrics`
//! ([`crate::exposition`]) walk the tables. Recording stays a relaxed
//! `fetch_add` on a field known at compile time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;
use crate::proto::WireErrorKind;
use crate::router::RouterStats;

/// Number of registry latency buckets: bucket `i` counts requests whose
/// latency in microseconds `µs` satisfies `2^(i-1) ≤ µs < 2^i` (bucket 0
/// is `< 1 µs`).
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Number of wire-error kinds tracked by the per-kind error counters
/// (one slot per [`WireErrorKind`], indexed by [`WireErrorKind::index`]).
pub const WIRE_ERROR_KINDS: usize = WireErrorKind::ALL.len();

/// The request kinds the service distinguishes in its per-kind metrics —
/// one per [`pops_core::RoutingRequest`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// General Theorem-2 permutation routing.
    Theorem2,
    /// Single-slot routing (Gravenstreter–Melhem condition).
    SingleSlot,
    /// h-relation routing by König decomposition.
    HRelation,
    /// Fault-tolerant routing around failed couplers.
    WithFaults,
    /// The direct single-hop baseline.
    Direct,
    /// The structured (Sahni-style) baseline.
    Structured,
}

impl RequestKind {
    /// All kinds, in wire-name order.
    pub const ALL: [RequestKind; 6] = [
        RequestKind::Theorem2,
        RequestKind::SingleSlot,
        RequestKind::HRelation,
        RequestKind::WithFaults,
        RequestKind::Direct,
        RequestKind::Structured,
    ];

    /// The kind's index into per-kind metric arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kind's wire name (used by the JSON protocol and reports).
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Theorem2 => "theorem2",
            RequestKind::SingleSlot => "single-slot",
            RequestKind::HRelation => "h-relation",
            RequestKind::WithFaults => "faults",
            RequestKind::Direct => "direct",
            RequestKind::Structured => "structured",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        RequestKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A monotonic counter: one relaxed atomic.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed latency histogram in microseconds with `N` buckets:
/// bucket `i` counts `2^(i-1) ≤ µs < 2^i`, and the last bucket also
/// takes everything beyond. The registry keeps [`HISTOGRAM_BUCKETS`];
/// replay reports keep 64, enough for any `u64`.
#[derive(Debug)]
pub struct LatencyHistogram<const N: usize = HISTOGRAM_BUCKETS> {
    buckets: [AtomicU64; N],
}

impl<const N: usize> Default for LatencyHistogram<N> {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl<const N: usize> Clone for LatencyHistogram<N> {
    fn clone(&self) -> Self {
        Self {
            buckets: self.snapshot().map(AtomicU64::new),
        }
    }
}

impl<const N: usize> LatencyHistogram<N> {
    /// Records one observation.
    pub fn record(&self, micros: u64) {
        let bucket = (u64::BITS - micros.leading_zeros()) as usize;
        self.buckets[bucket.min(N - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds another histogram's bucket counts into this one.
    pub fn absorb(&self, counts: &[u64; N]) {
        for (bucket, &n) in self.buckets.iter().zip(counts) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Plain-data copy of the bucket counts.
    pub fn snapshot(&self) -> [u64; N] {
        self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed))
    }
}

/// The inclusive upper bound of log₂ bucket `i`: `2^i − 1` µs. Latencies
/// are whole microseconds, so this is exact (`0, 1, 3, 7, …`).
pub(crate) fn bucket_edge(i: usize) -> u64 {
    (1u64 << i) - 1
}

/// The `q`-quantile of log₂ bucket counts, reported as the inclusive
/// upper edge ([`bucket_edge`]) of the bucket holding it; 0 when empty.
/// `/metrics`, the `stats` op and replay reports all use this edge.
pub(crate) fn quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_edge(i);
        }
    }
    bucket_edge(buckets.len() - 1)
}

/// Whether a metric only grows, reports a current level, or is a
/// latency distribution. The Prometheus `# TYPE` of its family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonic; kept by the retired-topology ledger.
    Counter,
    /// A current level; summed across registries, zeroed on retirement.
    Gauge,
    /// A log₂ latency histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus type name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One row's value, read at render time.
#[derive(Debug, Clone)]
pub(crate) enum Reading {
    /// A count or level.
    Count(u64),
    /// A ratio (stats-document only).
    Ratio(f64),
    /// One count per value of the row's source label.
    Labelled(Vec<(&'static str, u64)>),
    /// Log₂ bucket counts and the sum of the observations.
    Histogram([u64; HISTOGRAM_BUCKETS], u64),
}

impl From<u64> for Reading {
    fn from(n: u64) -> Self {
        Reading::Count(n)
    }
}

impl From<f64> for Reading {
    fn from(r: f64) -> Self {
        Reading::Ratio(r)
    }
}

impl Reading {
    fn json(self) -> Json {
        match self {
            Reading::Count(n) => Json::Num(n as f64),
            Reading::Ratio(r) => Json::Num(r),
            Reading::Labelled(values) => Json::Obj(
                values
                    .into_iter()
                    .map(|(key, n)| (key.to_owned(), Json::Num(n as f64)))
                    .collect(),
            ),
            Reading::Histogram(..) => Json::Null,
        }
    }
}

/// One declared metric, read from a source `S`.
#[derive(Debug)]
pub(crate) struct Metric<S> {
    /// Counter, gauge or histogram.
    pub(crate) kind: MetricKind,
    /// Paths in the `stats` document (none: not in the document).
    pub(crate) json: &'static [&'static [&'static str]],
    /// The Prometheus family (empty: not exported).
    pub(crate) family: &'static str,
    /// The label whose value comes from the row's source (empty: none).
    pub(crate) label: &'static str,
    /// Fixed labels of this row's sample.
    pub(crate) labels: &'static [(&'static str, &'static str)],
    /// `# HELP` text; empty on every row of a family but the first.
    pub(crate) help: &'static str,
    /// Reads the row's value.
    pub(crate) read: fn(&S) -> Reading,
}

/// The `stats`-document fields of `rows`, read from `src`. Each row's
/// first path fixes where its top-level key sits; nested keys and later
/// paths fill in in row order.
pub(crate) fn json_fields<S>(rows: &[Metric<S>], src: &S) -> Vec<(String, Json)> {
    let mut doc = Vec::new();
    for path in rows.iter().filter_map(|row| row.json.first()) {
        slot(&mut doc, path[0]);
    }
    for row in rows.iter().filter(|row| !row.json.is_empty()) {
        let value = (row.read)(src).json();
        for path in row.json {
            insert(&mut doc, path, value.clone());
        }
    }
    doc
}

/// The value under `key`, appended as `null` if absent.
fn slot<'a>(doc: &'a mut Vec<(String, Json)>, key: &str) -> &'a mut Json {
    let at = match doc.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            doc.push((key.to_owned(), Json::Null));
            doc.len() - 1
        }
    };
    &mut doc[at].1
}

fn insert(doc: &mut Vec<(String, Json)>, path: &[&str], value: Json) {
    let Some((key, rest)) = path.split_first() else {
        return;
    };
    let entry = slot(doc, key);
    if rest.is_empty() {
        *entry = value;
        return;
    }
    if !matches!(entry, Json::Obj(_)) {
        *entry = Json::Obj(Vec::new());
    }
    if let Json::Obj(fields) = entry {
        insert(fields, rest, value);
    }
}

/// Builds a `&[Metric<S>]` table from rows in the grammar of the module
/// docs.
macro_rules! metric_rows {
    ($src:ty; $(
        $(#[$meta:meta])*
        $name:ident : $kind:ident $(($read:expr))? $([$($seg:literal),+])*
            $(=> $family:literal $(($label:ident))? $({$($lk:ident: $lv:literal),*})? $($help:literal)?)?;
    )*) => {
        &[$(Metric::<$src> {
            kind: metric_rows!(@kind $kind),
            json: &[$(&[$($seg),+]),*],
            family: concat!("" $(, $family)?),
            label: concat!("" $($(, stringify!($label))?)?),
            labels: &[$($($((stringify!($lk), $lv)),*)?)?],
            help: concat!("" $($(, $help)?)?),
            read: metric_rows!(@read $src, $name $(, $read)?),
        }),*]
    };
    (@kind counter) => { MetricKind::Counter };
    (@kind gauge) => { MetricKind::Gauge };
    (@kind histogram) => { MetricKind::Histogram };
    (@read $src:ty, $name:ident) => { |s: &$src| Reading::from(s.$name) };
    (@read $src:ty, $name:ident, $read:expr) => {
        |s: &$src| {
            let read: fn(&$src) -> _ = $read;
            Reading::from(read(s))
        }
    };
}

/// Sorts the registry's rows into stored counters, stored gauges and
/// derived rows, then generates the registry and snapshot from them.
macro_rules! snapshot_table {
    (@split [$($c:tt)*] $g:tt [
        $(#[$m:meta])* $name:ident : counter $([$($seg:literal),+])*
            $(=> $f:literal $(($l:ident))? $({$($lk:ident: $lv:literal),*})? $($h:literal)?)?;
        $($rest:tt)*
    ] $all:tt) => {
        snapshot_table!(@split [$($c)* $(#[$m])* $name,] $g [$($rest)*] $all);
    };
    (@split $c:tt [$($g:tt)*] [
        $(#[$m:meta])* $name:ident : gauge $([$($seg:literal),+])*
            $(=> $f:literal $(($l:ident))? $({$($lk:ident: $lv:literal),*})? $($h:literal)?)?;
        $($rest:tt)*
    ] $all:tt) => {
        snapshot_table!(@split $c [$($g)* $(#[$m])* $name,] [$($rest)*] $all);
    };
    (@split $c:tt $g:tt [
        $(#[$m:meta])* $name:ident : $kind:ident ($read:expr) $([$($seg:literal),+])*
            $(=> $f:literal $(($l:ident))? $({$($lk:ident: $lv:literal),*})? $($h:literal)?)?;
        $($rest:tt)*
    ] $all:tt) => {
        snapshot_table!(@split $c $g [$($rest)*] $all);
    };
    (@split [$($(#[$cm:meta])* $c:ident,)*] [$($(#[$gm:meta])* $g:ident,)*] [] [$($all:tt)*]) => {
        /// The registry. One instance lives in every [`crate::RoutingService`];
        /// pools, the admission gate and the server bump its counters
        /// directly.
        #[derive(Debug, Default)]
        pub struct ServiceMetrics {
            $($(#[$cm])* pub(crate) $c: Counter,)*
            wire_errors: [Counter; WIRE_ERROR_KINDS],
            per_kind: [KindMetrics; 6],
        }

        /// Plain-data copy of the whole registry.
        #[derive(Debug, Clone)]
        pub struct MetricsSnapshot {
            $($(#[$cm])* pub $c: u64,)*
            $($(#[$gm])* pub $g: u64,)*
            /// Wire-level error responses written, indexed by
            /// [`WireErrorKind::index`].
            pub wire_errors: [u64; WIRE_ERROR_KINDS],
            /// Per-kind counters.
            pub per_kind: [KindSnapshot; 6],
        }

        impl ServiceMetrics {
            /// A plain-data copy of every counter at this instant (gauges
            /// read 0 from a bare registry).
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($c: self.$c.get(),)*
                    $($g: 0,)*
                    wire_errors: self.wire_errors.each_ref().map(Counter::get),
                    per_kind: RequestKind::ALL.map(|kind| {
                        let k = &self.per_kind[kind.index()];
                        KindSnapshot {
                            kind,
                            requests: k.requests.get(),
                            errors: k.errors.get(),
                            total_micros: k.total_micros.get(),
                            latency: k.latency.snapshot(),
                        }
                    }),
                }
            }
        }

        impl MetricsSnapshot {
            /// Adds every counter and gauge of `other` into `self`: the
            /// server absorbs every topology's registry and the connection
            /// layer's into one fleet-wide view, gauges included.
            ///
            /// ```
            /// use pops_service::{MetricsSnapshot, RequestKind, ServiceMetrics};
            ///
            /// let a = ServiceMetrics::new();
            /// a.record_miss(RequestKind::Theorem2, 2, 10);
            /// let b = ServiceMetrics::new();
            /// b.record_hit(RequestKind::Theorem2, 1);
            ///
            /// let mut total = MetricsSnapshot::zero();
            /// total.absorb(&a.snapshot());
            /// total.absorb(&b.snapshot());
            /// assert_eq!((total.hits, total.misses), (1, 1));
            /// assert_eq!(total.per_kind[0].requests, 2);
            /// ```
            pub fn absorb(&mut self, other: &MetricsSnapshot) {
                $(self.$c += other.$c;)*
                $(self.$g += other.$g;)*
                for (mine, theirs) in self.wire_errors.iter_mut().zip(&other.wire_errors) {
                    *mine += theirs;
                }
                for (mine, theirs) in self.per_kind.iter_mut().zip(&other.per_kind) {
                    debug_assert_eq!(mine.kind, theirs.kind);
                    mine.requests += theirs.requests;
                    mine.errors += theirs.errors;
                    mine.total_micros += theirs.total_micros;
                    for (bucket, add) in mine.latency.iter_mut().zip(&theirs.latency) {
                        *bucket += add;
                    }
                }
            }

            /// Zeroes every stored gauge, keeping the counters — what a
            /// retired topology contributes to the monotonic ledger.
            pub fn clear_gauges(&mut self) {
                $(self.$g = 0;)*
            }
        }

        /// The registry's scalar rows, in `stats`-document order.
        pub(crate) const SNAPSHOT_ROWS: &[Metric<MetricsSnapshot>] =
            metric_rows!(MetricsSnapshot; $($all)*);
    };
    ($($rows:tt)*) => { snapshot_table!(@split [] [] [$($rows)*] [$($rows)*]); };
}

snapshot_table! {
    /// Level-1 (whole-request) plan-cache hits.
    hits: counter ["hits"] ["cache", "l1", "hits"]
        => "pops_cache_hits_total" {level: "l1"}
           "Plan-cache hits: level l1 is whole plans, l2 is h-relation phases.";
    /// Level-1 plan-cache misses (each one computed or assembled a plan).
    misses: counter ["misses"] ["cache", "l1", "misses"]
        => "pops_cache_misses_total" {level: "l1"} "Plan-cache misses, by cache level.";
    /// Level-1 hit rate over single-request traffic.
    hit_rate: gauge(MetricsSnapshot::hit_rate) ["hit_rate"] ["cache", "l1", "hit_rate"];
    /// Level-1 plans cached (filled by [`crate::RoutingService::metrics`]).
    cache_entries: gauge ["cache", "l1", "entries"] ["cache_entries"]
        => "pops_cache_entries" {level: "l1"} "Plans currently cached, by cache level.";
    /// Level-1 plan-cache capacity.
    cache_capacity: gauge ["cache", "l1", "capacity"] ["cache_capacity"]
        => "pops_cache_capacity" {level: "l1"} "Plan-cache capacity, by cache level.";
    /// Level-2 hits: h-relation phases answered from the phase cache.
    phase_hits: counter ["cache", "l2", "hits"] => "pops_cache_hits_total" {level: "l2"};
    /// Level-2 misses: phases that had to be planned on an engine.
    phase_misses: counter ["cache", "l2", "misses"] => "pops_cache_misses_total" {level: "l2"};
    /// Level-2 hit rate over routed phases.
    phase_hit_rate: gauge(MetricsSnapshot::phase_hit_rate) ["cache", "l2", "hit_rate"];
    /// Level-2 phase plans cached.
    phase_cache_entries: gauge ["cache", "l2", "entries"] => "pops_cache_entries" {level: "l2"};
    /// Level-2 phase-cache capacity.
    phase_cache_capacity: gauge ["cache", "l2", "capacity"]
        => "pops_cache_capacity" {level: "l2"};
    /// Level-1 entries evicted to make room for a miss's plan.
    evictions: counter ["cache", "l1", "evictions"]
        => "pops_cache_evictions_total" {level: "l1"}
           "Plan-cache entries evicted by the LRU to make room on a miss, by cache level.";
    /// Level-2 entries evicted to make room for a missed phase's plan.
    phase_evictions: counter ["cache", "l2", "evictions"]
        => "pops_cache_evictions_total" {level: "l2"};
    /// Total slots across every schedule the service emitted.
    slots_emitted: counter ["slots_emitted"]
        => "pops_slots_emitted_total" "Total slots across every schedule the service emitted.";
    /// Requests that returned a routing error.
    errors: counter ["errors"];
    /// Engine-pool acquisitions that found their home shard free.
    pool_fast: counter ["pool", "fast"]
        => "pops_pool_acquisitions_total" {outcome: "fast"} "Engine-pool acquisitions, by outcome.";
    /// Acquisitions that overflowed to another idle shard.
    pool_overflows: counter ["pool", "overflows"]
        => "pops_pool_acquisitions_total" {outcome: "overflow"};
    /// Acquisitions that found every shard busy and had to block.
    pool_blocked: counter ["pool", "blocked"]
        => "pops_pool_acquisitions_total" {outcome: "blocked"};
    /// Requests that had to wait at the admission gate.
    admission_waits: counter ["admission_waits"]
        => "pops_admission_waits_total" "Requests that had to wait at the admission gate.";
    /// Batch submissions.
    batches: counter ["batches"] => "pops_batches_total" "Batch submissions.";
    /// Plans produced by batch submissions.
    batch_plans: counter ["batch_plans"]
        => "pops_batch_plans_total" "Plans produced by batch submissions.";
    /// Connections currently live.
    active_connections: gauge(MetricsSnapshot::active_connections) ["connections", "active"]
        => "pops_connections_active" "Connections currently live.";
    /// Connections the server accepted and handed to a handler.
    conns_opened: counter ["connections", "opened"]
        => "pops_connections_opened_total" "Connections accepted and handed to a handler.";
    /// Handler threads that have exited (their connection is done).
    conns_closed: counter ["connections", "closed"]
        => "pops_connections_closed_total" "Connections whose handler has exited.";
    /// Connections refused because the server was at capacity.
    conns_rejected: counter ["connections", "rejected"]
        => "pops_connections_rejected_total" "Connections refused at the capacity limit.";
    /// Connections that stayed on the default JSON-lines framing.
    json_connections: counter(MetricsSnapshot::json_connections) ["connections", "json"]
        => "pops_connections_format_total" {format: "json"}
           "Connections by negotiated wire format (every connection starts \
            as json; binary counts successful hello negotiations).";
    /// Connections that negotiated the binary framing.
    conns_binary: counter ["connections", "binary"]
        => "pops_connections_format_total" {format: "binary"};
    /// Request bytes received on JSON-lines connections.
    json_bytes_in: counter ["wire", "json", "bytes_in"]
        => "pops_wire_bytes_total" {format: "json", direction: "in"}
           "Wire traffic in bytes, by format and direction.";
    /// Response bytes written on JSON-lines connections.
    json_bytes_out: counter ["wire", "json", "bytes_out"]
        => "pops_wire_bytes_total" {format: "json", direction: "out"};
    /// Request bytes received on binary-framed connections.
    binary_bytes_in: counter ["wire", "binary", "bytes_in"]
        => "pops_wire_bytes_total" {format: "binary", direction: "in"};
    /// Response bytes written on binary-framed connections.
    binary_bytes_out: counter ["wire", "binary", "bytes_out"]
        => "pops_wire_bytes_total" {format: "binary", direction: "out"};
    /// Request lines rejected for exceeding the line-length cap.
    oversized_lines: counter ["oversized_lines"]
        => "pops_oversized_lines_total" "Request lines rejected for exceeding the length cap.";
    /// Connections dropped because a complete line never arrived in time.
    read_timeouts: counter ["read_timeouts"]
        => "pops_read_timeouts_total"
           "Connections dropped because a complete request never arrived in time.";
    /// Requests shed by overload control, all causes combined.
    sheds_total: counter(MetricsSnapshot::sheds) ["sheds", "total"];
    /// Requests shed at the global in-flight watermark.
    sheds_watermark: counter ["sheds", "watermark"]
        => "pops_sheds_total" {cause: "watermark"} "Requests shed by overload control, by cause.";
    /// Requests shed by a per-client token-bucket quota.
    sheds_quota: counter ["sheds", "quota"] => "pops_sheds_total" {cause: "quota"};
    /// Slow-request trace lines actually emitted to the log.
    slow_traces: counter ["slow_traces", "emitted"]
        => "pops_slow_traces_total" {outcome: "emitted"}
           "Slow-request trace lines, by whether the rate limiter let them through.";
    /// Slow-request trace lines suppressed by the rate limiter.
    slow_traces_suppressed: counter ["slow_traces", "suppressed"]
        => "pops_slow_traces_total" {outcome: "suppressed"};
    /// Level-1 misses planned by the greedy fault router.
    degraded_plans: counter ["degraded", "plans"]
        => "pops_degraded_plans_total"
           "Plans computed by the greedy fault router under a non-empty fault set.";
    /// Level-1 hits answered from a degraded (fault-keyed) cache entry.
    degraded_hits: counter ["degraded", "hits"]
        => "pops_degraded_hits_total"
           "Plan-cache hits answered from a degraded (fault-keyed) cache entry.";
    /// Requests refused because their fault set was not fully routable.
    unroutable_refusals: counter ["degraded", "unroutable_refusals"]
        => "pops_unroutable_refusals_total"
           "Requests refused before planning because the fault set left the fabric not fully routable.";
    /// Wire-level error responses written, by [`WireErrorKind`].
    wire_errors: counter(MetricsSnapshot::wire_errors_by_kind) ["wire_errors"]
        => "pops_wire_errors_total" (error_kind)
           "Typed error responses written on the wire, by error kind.";
    /// Engine-arena bytes across the pool.
    arena_bytes: gauge ["arena_bytes"]
        => "pops_arena_bytes" "Engine-arena bytes across every resident topology's pool.";
}

/// Per-kind rows (source label `kind`); the `stats` document gives each
/// kind with traffic an object in `kinds`.
pub(crate) const KIND_ROWS: &[Metric<KindSnapshot>] = metric_rows! { KindSnapshot;
    requests: counter ["requests"]
        => "pops_requests_total" (kind) "Single routing requests served, by request kind.";
    errors: counter ["errors"]
        => "pops_request_errors_total" (kind)
           "Routing requests that returned an error, by request kind.";
    avg_micros: gauge(KindSnapshot::avg_micros) ["avg_micros"];
    p50_micros: gauge(|k| k.quantile_micros(0.5)) ["p50_micros"];
    p99_micros: gauge(|k| k.quantile_micros(0.99)) ["p99_micros"];
    latency: histogram(|k| Reading::Histogram(k.latency, k.total_micros))
        => "pops_request_duration_microseconds" (kind)
           "Service latency of single routing requests, by request kind.";
};

/// Per-resident-topology rows (source label `topology`); the `stats`
/// document gives each shape an object in `topologies`. These series
/// vanish on eviction; the fleet families above stay monotonic.
pub(crate) const TOPOLOGY_ROWS: &[Metric<MetricsSnapshot>] = metric_rows! { MetricsSnapshot;
    requests: counter(MetricsSnapshot::requests) ["requests"]
        => "pops_topology_requests_total" (topology)
           "Single requests served by a resident topology.";
    hits: counter ["hits"]
        => "pops_topology_cache_hits_total" (topology)
           "Level-1 plan-cache hits on a resident topology.";
    misses: counter ["misses"];
    hit_rate: gauge(MetricsSnapshot::hit_rate) ["hit_rate"];
    errors: counter ["errors"]
        => "pops_topology_errors_total" (topology) "Routing errors on a resident topology.";
    batches: counter ["batches"];
    batch_plans: counter ["batch_plans"];
    arena_bytes: gauge ["arena_bytes"]
        => "pops_topology_arena_bytes" (topology)
           "Engine-arena bytes held by a resident topology's pool.";
    latency: histogram(MetricsSnapshot::merged_latency)
        => "pops_topology_request_duration_microseconds" (topology)
           "Service latency on a resident topology, all request kinds merged.";
};

/// Topology-registry rows, read from `(resident count, router counters)`.
pub(crate) const ROUTER_ROWS: &[Metric<(u64, RouterStats)>] = metric_rows! { (u64, RouterStats);
    topologies: gauge(|r| r.0) ["router", "topologies"]
        => "pops_router_topologies" "Topologies currently resident in the registry.";
    hits: counter(|r| r.1.hits) ["router", "hits"]
        => "pops_router_hits_total" "Registry lookups answered by an already-resident service.";
    built: counter(|r| r.1.built) ["router", "built"]
        => "pops_router_built_total" "Services constructed on demand.";
    evictions: counter(|r| r.1.evictions) ["router", "evictions"]
        => "pops_router_evictions_total" "Unpinned topologies evicted to make room.";
    rejections: counter(|r| r.1.rejections) ["router", "rejections"]
        => "pops_router_rejections_total" "Registry lookups refused at capacity.";
};

/// Process rows, read from the uptime in seconds (source label `version`).
pub(crate) const PROCESS_ROWS: &[Metric<u64>] = metric_rows! { u64;
    build_info: gauge(|_| 1u64)
        => "pops_build_info" (version) "Constant 1, labelled with the server's crate version.";
    uptime_seconds: gauge(|&secs| secs)
        => "pops_uptime_seconds" "Seconds since the server started.";
};

/// Per-kind counters.
#[derive(Debug, Default)]
struct KindMetrics {
    requests: Counter,
    errors: Counter,
    total_micros: Counter,
    latency: LatencyHistogram,
}

impl ServiceMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cache hit for `kind`, `micros` in service.
    pub fn record_hit(&self, kind: RequestKind, micros: u64) {
        self.hits.inc();
        self.record_kind(kind, micros);
    }

    /// Records a computed (cache-miss) plan for `kind` that emitted
    /// `slots` slots, `micros` in service.
    pub fn record_miss(&self, kind: RequestKind, slots: usize, micros: u64) {
        self.misses.inc();
        self.slots_emitted.add(slots as u64);
        self.record_kind(kind, micros);
    }

    /// Records a failed request.
    pub fn record_error(&self, kind: RequestKind) {
        self.errors.inc();
        self.per_kind[kind.index()].errors.inc();
    }

    fn record_kind(&self, kind: RequestKind, micros: u64) {
        let k = &self.per_kind[kind.index()];
        k.requests.inc();
        k.total_micros.add(micros);
        k.latency.record(micros);
    }

    /// Records an engine-pool acquisition outcome.
    pub fn record_pool(&self, outcome: PoolAcquisition) {
        match outcome {
            PoolAcquisition::Fast => self.pool_fast.inc(),
            PoolAcquisition::Overflow => self.pool_overflows.inc(),
            PoolAcquisition::Blocked => self.pool_blocked.inc(),
        }
    }

    /// Records a batch submission of `plans` plans totalling `slots` slots.
    pub fn record_batch(&self, plans: usize, slots: usize) {
        self.batches.inc();
        self.batch_plans.add(plans as u64);
        self.slots_emitted.add(slots as u64);
    }

    /// Records a request shed by overload control: at the global in-flight
    /// watermark (`quota = false`) or by a per-client quota (`quota = true`).
    pub fn record_shed(&self, quota: bool) {
        if quota {
            self.sheds_quota.inc();
        } else {
            self.sheds_watermark.inc();
        }
    }

    /// Records a slow-request trace line: emitted to the log, or suppressed
    /// by the rate limiter (`emitted = false`).
    pub fn record_slow_trace(&self, emitted: bool) {
        if emitted {
            self.slow_traces.inc();
        } else {
            self.slow_traces_suppressed.inc();
        }
    }

    /// Records one wire-level error response of the given kind (the typed
    /// `"kind"` field the server put on an `ok: false` reply).
    pub fn record_wire_error(&self, kind: WireErrorKind) {
        self.wire_errors[kind.index()].inc();
    }

    /// Records wire traffic: `bytes_in` request bytes received and
    /// `bytes_out` response bytes written, attributed to the connection's
    /// negotiated format.
    pub fn record_wire_bytes(&self, binary: bool, bytes_in: u64, bytes_out: u64) {
        let (counter_in, counter_out) = if binary {
            (&self.binary_bytes_in, &self.binary_bytes_out)
        } else {
            (&self.json_bytes_in, &self.json_bytes_out)
        };
        counter_in.add(bytes_in);
        counter_out.add(bytes_out);
    }
}

/// How an engine-pool acquisition went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolAcquisition {
    /// The round-robin home shard was free.
    Fast,
    /// The home shard was busy; the request overflowed to an idle shard.
    Overflow,
    /// Every shard was busy; the request blocked on its home shard.
    Blocked,
}

/// Plain-data copy of one request kind's counters.
#[derive(Debug, Clone)]
pub struct KindSnapshot {
    /// The kind.
    pub kind: RequestKind,
    /// Requests served (hits + misses).
    pub requests: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Total service latency in microseconds.
    pub total_micros: u64,
    /// The log₂ latency histogram.
    pub latency: [u64; HISTOGRAM_BUCKETS],
}

impl KindSnapshot {
    /// Mean service latency in microseconds (0 when idle).
    pub fn avg_micros(&self) -> u64 {
        self.total_micros.checked_div(self.requests).unwrap_or(0)
    }

    /// Approximate p-quantile latency in microseconds from the histogram
    /// (the inclusive upper edge of its bucket, `2^i − 1`).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        quantile(&self.latency, q)
    }
}

impl MetricsSnapshot {
    /// A zeroed snapshot — the identity of [`MetricsSnapshot::absorb`].
    pub fn zero() -> Self {
        ServiceMetrics::new().snapshot()
    }

    /// Level-1 cache hit rate over single-request traffic (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.misses)
    }

    /// Level-2 (phase) cache hit rate over routed phases (0 when idle).
    pub fn phase_hit_rate(&self) -> f64 {
        ratio(self.phase_hits, self.phase_misses)
    }

    /// Single requests served (hits + misses).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Connections currently live (opened minus closed).
    pub fn active_connections(&self) -> u64 {
        self.conns_opened.saturating_sub(self.conns_closed)
    }

    /// Connections that stayed on the default JSON-lines framing (opened
    /// minus binary-negotiated).
    pub fn json_connections(&self) -> u64 {
        self.conns_opened.saturating_sub(self.conns_binary)
    }

    /// Requests shed by overload control, all causes combined.
    pub fn sheds(&self) -> u64 {
        self.sheds_watermark + self.sheds_quota
    }

    /// Wire-level error responses written, all kinds combined.
    pub fn wire_errors_total(&self) -> u64 {
        self.wire_errors.iter().sum()
    }

    fn wire_errors_by_kind(&self) -> Reading {
        let names = WireErrorKind::ALL.iter().map(|kind| kind.name());
        Reading::Labelled(names.zip(self.wire_errors).collect())
    }

    /// Every kind's latency histogram summed, with the summed latency.
    fn merged_latency(&self) -> Reading {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for k in &self.per_kind {
            for (slot, add) in buckets.iter_mut().zip(&k.latency) {
                *slot += add;
            }
        }
        Reading::Histogram(buckets, self.per_kind.iter().map(|k| k.total_micros).sum())
    }
}

/// `hits / (hits + misses)`, 0 when both are 0.
fn ratio(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} ({} L1 hits, {} L1 misses, hit rate {:.1}%), {} errors",
            self.requests(),
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.errors,
        )?;
        writeln!(
            f,
            "phases (L2): {} hits, {} misses, hit rate {:.1}%",
            self.phase_hits,
            self.phase_misses,
            100.0 * self.phase_hit_rate(),
        )?;
        writeln!(
            f,
            "slots emitted: {}   batches: {} ({} plans)",
            self.slots_emitted, self.batches, self.batch_plans
        )?;
        writeln!(
            f,
            "degraded: {} plans, {} hits   unroutable refusals: {}",
            self.degraded_plans, self.degraded_hits, self.unroutable_refusals
        )?;
        writeln!(
            f,
            "pool: {} fast, {} overflowed, {} blocked   admission waits: {}",
            self.pool_fast, self.pool_overflows, self.pool_blocked, self.admission_waits
        )?;
        writeln!(
            f,
            "connections: {} active ({} opened, {} closed, {} rejected)   \
             oversized lines: {}   read timeouts: {}",
            self.active_connections(),
            self.conns_opened,
            self.conns_closed,
            self.conns_rejected,
            self.oversized_lines,
            self.read_timeouts,
        )?;
        writeln!(
            f,
            "sheds: {} ({} watermark, {} quota)   slow traces: {} emitted, \
             {} suppressed   wire errors: {}",
            self.sheds(),
            self.sheds_watermark,
            self.sheds_quota,
            self.slow_traces,
            self.slow_traces_suppressed,
            self.wire_errors_total(),
        )?;
        writeln!(
            f,
            "wire: {} json conn(s) ({} B in, {} B out), {} binary conn(s) \
             ({} B in, {} B out)",
            self.json_connections(),
            self.json_bytes_in,
            self.json_bytes_out,
            self.conns_binary,
            self.binary_bytes_in,
            self.binary_bytes_out,
        )?;
        writeln!(
            f,
            "arena footprint: {} bytes   plan cache: {}/{} entries   \
             phase cache: {}/{} entries",
            self.arena_bytes,
            self.cache_entries,
            self.cache_capacity,
            self.phase_cache_entries,
            self.phase_cache_capacity,
        )?;
        writeln!(
            f,
            "{:<12} {:>9} {:>7} {:>10} {:>10} {:>10}",
            "kind", "requests", "errors", "avg µs", "p50 µs", "p99 µs"
        )?;
        for k in &self.per_kind {
            if k.requests == 0 && k.errors == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>9} {:>7} {:>10} {:>10} {:>10}",
                k.kind.name(),
                k.requests,
                k.errors,
                k.avg_micros(),
                k.quantile_micros(0.5),
                k.quantile_micros(0.99),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::<HISTOGRAM_BUCKETS>::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        h.record(u64::MAX); // clamped to last bucket
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[2], 2);
        assert_eq!(snap[11], 1);
        assert_eq!(snap[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn snapshot_reflects_recordings() {
        let m = ServiceMetrics::new();
        m.record_miss(RequestKind::Theorem2, 2, 100);
        m.record_hit(RequestKind::Theorem2, 1);
        m.record_error(RequestKind::SingleSlot);
        m.record_pool(PoolAcquisition::Fast);
        m.record_pool(PoolAcquisition::Overflow);
        m.record_batch(8, 16);
        let s = m.snapshot();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.slots_emitted, 2 + 16);
        assert_eq!(s.errors, 1);
        assert_eq!(s.pool_fast, 1);
        assert_eq!(s.pool_overflows, 1);
        assert_eq!(s.batch_plans, 8);
        assert_eq!(s.per_kind[0].requests, 2);
        assert_eq!(s.per_kind[1].errors, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        let rendered = s.to_string();
        assert!(rendered.contains("hit rate 50.0%"), "{rendered}");
        assert!(rendered.contains("theorem2"), "{rendered}");
    }

    #[test]
    fn phase_counters_are_reported_separately_from_l1() {
        let m = ServiceMetrics::new();
        m.record_miss(RequestKind::HRelation, 8, 120);
        m.phase_misses.inc();
        m.phase_hits.inc();
        m.phase_hits.inc();
        m.phase_hits.inc();
        let s = m.snapshot();
        assert_eq!((s.hits, s.misses), (0, 1), "L1 view");
        assert_eq!((s.phase_hits, s.phase_misses), (3, 1), "L2 view");
        assert!((s.phase_hit_rate() - 0.75).abs() < 1e-9);
        let rendered = s.to_string();
        assert!(rendered.contains("L1 hits"), "{rendered}");
        assert!(
            rendered.contains("phases (L2): 3 hits, 1 misses"),
            "{rendered}"
        );
    }

    #[test]
    fn connection_and_limit_counters_round_trip() {
        let m = ServiceMetrics::new();
        for _ in 0..3 {
            m.conns_opened.inc();
        }
        m.conns_closed.inc();
        m.conns_rejected.inc();
        m.oversized_lines.inc();
        m.read_timeouts.inc();
        let s = m.snapshot();
        assert_eq!((s.conns_opened, s.conns_closed), (3, 1));
        assert_eq!(s.active_connections(), 2);
        assert_eq!(s.conns_rejected, 1);
        assert_eq!((s.oversized_lines, s.read_timeouts), (1, 1));
        let rendered = s.to_string();
        assert!(rendered.contains("2 active"), "{rendered}");
        assert!(rendered.contains("read timeouts: 1"), "{rendered}");
        assert!(rendered.contains("arena footprint"), "{rendered}");
    }

    #[test]
    fn per_format_wire_counters_round_trip() {
        let m = ServiceMetrics::new();
        for _ in 0..3 {
            m.conns_opened.inc();
        }
        m.conns_binary.inc();
        m.record_wire_bytes(false, 100, 900);
        m.record_wire_bytes(false, 20, 80);
        m.record_wire_bytes(true, 50, 200);
        let s = m.snapshot();
        assert_eq!(s.conns_binary, 1);
        assert_eq!(s.json_connections(), 2);
        assert_eq!((s.json_bytes_in, s.json_bytes_out), (120, 980));
        assert_eq!((s.binary_bytes_in, s.binary_bytes_out), (50, 200));
        let rendered = s.to_string();
        assert!(
            rendered.contains("2 json conn(s) (120 B in, 980 B out)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("1 binary conn(s) (50 B in, 200 B out)"),
            "{rendered}"
        );

        // Aggregation across registries sums the per-format views too.
        let other = ServiceMetrics::new();
        other.record_wire_bytes(true, 1, 2);
        other.conns_binary.inc();
        let mut total = MetricsSnapshot::zero();
        total.absorb(&s);
        total.absorb(&other.snapshot());
        assert_eq!(total.conns_binary, 2);
        assert_eq!((total.binary_bytes_in, total.binary_bytes_out), (51, 202));
    }

    #[test]
    fn quantiles_from_histogram() {
        let mut k = KindSnapshot {
            kind: RequestKind::Theorem2,
            requests: 0,
            errors: 0,
            total_micros: 0,
            latency: [0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(k.quantile_micros(0.5), 0);
        k.latency[3] = 99; // 4..8 µs
        k.latency[10] = 1; // one slow outlier
        assert_eq!(k.quantile_micros(0.5), 7);
        assert_eq!(k.quantile_micros(0.999), 1023);
    }

    #[test]
    fn absorb_sums_counters_and_histograms() {
        let a = ServiceMetrics::new();
        a.record_miss(RequestKind::Theorem2, 2, 100);
        a.phase_misses.inc();
        a.conns_opened.inc();
        let b = ServiceMetrics::new();
        b.record_hit(RequestKind::Theorem2, 100);
        b.record_error(RequestKind::HRelation);
        b.phase_hits.inc();

        let mut total = MetricsSnapshot::zero();
        total.absorb(&a.snapshot());
        total.absorb(&b.snapshot());
        assert_eq!((total.hits, total.misses), (1, 1));
        assert_eq!((total.phase_hits, total.phase_misses), (1, 1));
        assert_eq!(total.errors, 1);
        assert_eq!(total.conns_opened, 1);
        assert_eq!(total.per_kind[0].requests, 2);
        assert_eq!(total.per_kind[2].errors, 1);
        // Both 100 µs observations land in the same histogram bucket.
        let bucket = (u64::BITS - 100u64.leading_zeros()) as usize;
        assert_eq!(total.per_kind[0].latency[bucket], 2);
    }

    #[test]
    fn shed_and_slow_trace_counters_round_trip() {
        let m = ServiceMetrics::new();
        m.record_shed(false);
        m.record_shed(false);
        m.record_shed(true);
        m.record_slow_trace(true);
        m.record_slow_trace(false);
        m.record_slow_trace(false);
        let s = m.snapshot();
        assert_eq!((s.sheds_watermark, s.sheds_quota), (2, 1));
        assert_eq!(s.sheds(), 3);
        assert_eq!((s.slow_traces, s.slow_traces_suppressed), (1, 2));
        let rendered = s.to_string();
        assert!(
            rendered.contains("sheds: 3 (2 watermark, 1 quota)"),
            "{rendered}"
        );

        // Aggregation sums the overload view too.
        let mut total = MetricsSnapshot::zero();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.sheds(), 6);
        assert_eq!(total.slow_traces_suppressed, 4);
    }

    #[test]
    fn wire_error_counters_round_trip_per_kind() {
        let m = ServiceMetrics::new();
        m.record_wire_error(WireErrorKind::Parse);
        m.record_wire_error(WireErrorKind::Parse);
        m.record_wire_error(WireErrorKind::Overloaded);
        let s = m.snapshot();
        assert_eq!(s.wire_errors[WireErrorKind::Parse.index()], 2);
        assert_eq!(s.wire_errors[WireErrorKind::Overloaded.index()], 1);
        assert_eq!(s.wire_errors_total(), 3);
        assert!(s.to_string().contains("wire errors: 3"), "{s}");

        let mut total = MetricsSnapshot::zero();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.wire_errors[WireErrorKind::Parse.index()], 4);
        assert_eq!(total.wire_errors_total(), 6);
    }

    #[test]
    fn kind_names_round_trip() {
        for (i, kind) in RequestKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(RequestKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(RequestKind::from_name("nope"), None);
    }

    /// Every exported row, whatever its source type, as
    /// `(family, kind, source label, fixed label names, help)`.
    type Export = (
        &'static str,
        MetricKind,
        &'static str,
        Vec<&'static str>,
        &'static str,
    );

    fn exports<S>(rows: &'static [Metric<S>]) -> Vec<Export> {
        rows.iter()
            .filter(|row| !row.family.is_empty())
            .map(|r| {
                (
                    r.family,
                    r.kind,
                    r.label,
                    r.labels.iter().map(|l| l.0).collect(),
                    r.help,
                )
            })
            .collect()
    }

    #[test]
    fn every_family_has_one_help_one_type_and_one_label_set() {
        let mut all = exports(SNAPSHOT_ROWS);
        all.extend(exports(KIND_ROWS));
        all.extend(exports(TOPOLOGY_ROWS));
        all.extend(exports(ROUTER_ROWS));
        all.extend(exports(PROCESS_ROWS));
        for (family, kind, label, labels, _) in &all {
            let rows: Vec<_> = all.iter().filter(|r| r.0 == *family).collect();
            assert!(
                !rows[0].4.is_empty(),
                "{family}: the first row carries the help"
            );
            let helps = rows.iter().filter(|r| !r.4.is_empty()).count();
            assert_eq!(helps, 1, "{family}: exactly one row carries the help");
            for row in rows {
                assert_eq!((kind, label, labels), (&row.1, &row.2, &row.3), "{family}");
            }
        }
    }
}
