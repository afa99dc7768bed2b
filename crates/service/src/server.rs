//! The std-only TCP front door: a JSON-lines server over a
//! [`TopologyRouter`] of [`RoutingService`]s, hardened for hostile
//! traffic.
//!
//! One server fronts **many topologies**: each request's `d`/`g` fields
//! select (and lazily construct) the backend service, bounded by the
//! router's LRU registry; `{"op":"batch"}` requests fan a whole vector of
//! permutations through the per-topology batch fast path and stream one
//! response line per item plus a trailing summary.
//!
//! Connections speak JSON lines until (and unless) they negotiate the
//! opt-in binary framing with `{"op":"hello","format":"binary"}` — the
//! acknowledgement is the last JSON line, and both directions then switch
//! to the length-prefixed frames of [`crate::frame`]. The binary reader
//! enforces the same caps as the line reader (`max_line_bytes` bounds the
//! frame payload, `read_timeout` bounds one complete frame) and control
//! ops keep their JSON bodies inside `TAG_JSON` frames, so the two
//! transports share one feature set and error vocabulary.
//!
//! One thread per connection (each service's admission gate, not the
//! thread count, bounds concurrent routing work), governed by a
//! [`ServerConfig`]:
//!
//! * **Bounded reads.** Request lines are read through a capped reader —
//!   a frame longer than `max_line_bytes` is answered with a structured
//!   `too-large` error and the connection closed, instead of buffering an
//!   unterminated line without bound (a remote OOM).
//! * **Read deadlines.** `read_timeout` is the budget for receiving one
//!   *complete* line, measured from when the server starts waiting — a
//!   slow-loris client dripping a byte per second cannot reset it, and an
//!   idle connection is reclaimed after the same budget. Timed-out
//!   connections get a structured `timeout` error (best effort) and are
//!   closed; the handler thread exits rather than leaking.
//! * **Connection cap.** At `max_connections` live handlers, further
//!   accepts are answered with an `unavailable` error and closed.
//! * **Graceful drain.** Every accepted connection is tracked in a
//!   registry. `{"op":"shutdown"}` flips the shutdown flag and [`serve`]
//!   then **joins** every handler thread before returning. Handlers
//!   waiting for input observe the flag within two poll ticks and close
//!   their own sockets — nobody closes a socket out from under a request,
//!   so any request line fully delivered before shutdown is read and
//!   answered, and a handler mid-request finishes writing its complete
//!   response first. Only lines still partially in flight when the flag
//!   flips are dropped.
//!
//! `std::net` exposes no `SO_KEEPALIVE` setter (and this workspace takes
//! no socket crate), so dead-peer detection is subsumed by the read
//! deadline; `tcp_nodelay` is available for latency-sensitive callers.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::exposition::{self, Exposition};
use crate::frame::{self, TAG_BATCH, TAG_JSON, TAG_ROUTE};
use crate::json::Json;
use crate::metrics::{MetricsSnapshot, RequestKind, ServiceMetrics};
use crate::proto::{
    attach_trace, batch_item_error, batch_summary_response, bind_perm, cache_persist_response,
    cache_stats_response, error_response, hello_response, info_response, item_perm,
    overloaded_response, parse_request, pong_response, requested_shape, shutdown_response,
    stats_response, write_batch_item_response, write_route_response, BatchItemRequest, CacheAction,
    WireErrorKind, WireFormat, WireRequest,
};
use crate::record;
use crate::router::{RouterError, TopologyRouter, TopologyRouterConfig};
use crate::service::{RoutingService, ServiceReply, ServiceRequest};
use crate::trace::{RequestTrace, SlowLog, SlowVerdict};
use pops_core::{FaultRoutingError, RoutingError, RoutingPlan};
use pops_network::{FaultSet, PopsTopology, Schedule};
use pops_permutation::Permutation;

/// Limits and timeouts of one [`serve_with_config`] loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Budget for receiving one complete request line (also the idle
    /// timeout between requests). `None` disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Per-write socket timeout for responses. `None` disables it.
    pub write_timeout: Option<Duration>,
    /// Maximum request-line length in bytes (newline excluded). Longer
    /// frames get a `too-large` error and the connection is closed.
    pub max_line_bytes: usize,
    /// Maximum live connections; further accepts are refused with an
    /// `unavailable` error.
    pub max_connections: usize,
    /// Whether to set `TCP_NODELAY` on accepted sockets.
    pub tcp_nodelay: bool,
    /// Directory the `{"op":"cache"}` save/load actions spill to and
    /// restore from (one file per topology,
    /// [`crate::persist::topology_file_path`]). `None` — the default —
    /// answers those actions with a `bad-request` error; clients never
    /// choose paths.
    pub cache_dir: Option<PathBuf>,
    /// Most items one `{"op":"batch"}` request may carry; larger batches
    /// are refused whole with a `too-large` error (never silently
    /// truncated).
    pub max_batch_items: usize,
    /// Most **distinct topologies** one batch may touch. Admitting a
    /// topology can construct a warm service, so without this cap a
    /// single batch line naming ~`max_batch_items` distinct shapes would
    /// amplify into that many expensive constructions (and LRU-evict
    /// every other client's warm shape on the way). Refused whole with
    /// `too-large`.
    pub max_batch_topologies: usize,
    /// Global admission watermark: the most route/batch requests allowed
    /// in service at once across every connection. A request beyond it is
    /// **shed** — answered immediately with a typed `overloaded` error
    /// carrying `retry-after-ms` — instead of queueing unboundedly at the
    /// per-service admission gate. Control ops (ping, info, stats, cache)
    /// are never shed, so the server stays observable under overload.
    /// `None` — the default — disables watermark shedding.
    pub overload_watermark: Option<usize>,
    /// Per-client token-bucket quota in route/batch requests per second,
    /// keyed by peer IP. Requests beyond the bucket are shed with an
    /// `overloaded` error whose `retry-after-ms` is the time until the
    /// next token. `None` — the default — disables quotas.
    pub quota_rps: Option<u64>,
    /// Token-bucket burst capacity (tokens a quiet client accumulates).
    /// `None` defaults to the rate, i.e. a one-second burst.
    pub quota_burst: Option<u64>,
    /// Threshold above which a finished request emits a rate-limited
    /// slow-request trace line (see [`crate::trace`]) to stderr. `None` —
    /// the default — disables the slow log; trace ids are still assigned
    /// and echoed on JSON responses either way.
    pub slow_threshold: Option<Duration>,
    /// Port for a dedicated metrics sidecar listener answering
    /// `GET /metrics`, bound on the same interface as the main listener
    /// (the main listener answers `GET /metrics` regardless, so scrapers
    /// work without this). `None` — the default — binds no sidecar.
    pub metrics_port: Option<u16>,
    /// Operator-declared baseline fault sets, keyed by `(d, g)`: the
    /// coupler ids listed for a shape are composed (set union) into every
    /// `theorem2`/`faults` route and batch item served on that shape —
    /// the wire story of `pops serve --fault DxG:c1,c2,...`. Diagnostic
    /// kinds (`single-slot`, `direct`, `structured`, `h-relation`) probe
    /// the *healthy* fabric and ignore the baseline. Ids must be in
    /// `0..g²`; [`serve_router`] refuses to start otherwise. Empty — the
    /// default — declares every topology healthy.
    pub baseline_faults: Vec<((usize, usize), Vec<usize>)>,
    /// Append-only JSONL trace file every route/batch/cache request
    /// accepted for service is teed to (see [`crate::record`]) — the
    /// wire story of `pops serve --record trace.jsonl`. Recording is a
    /// pure observer: responses, schedules, and errors are byte-identical
    /// with it on or off. `None` — the default — records nothing.
    pub record_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            // Large enough for a permutation over the biggest topology the
            // CLI accepts (n = 2^20 needs ~8 MiB of JSON), small enough to
            // bound a hostile unterminated line.
            max_line_bytes: 16 << 20,
            max_connections: 256,
            tcp_nodelay: false,
            cache_dir: None,
            max_batch_items: 1024,
            max_batch_topologies: 8,
            overload_watermark: None,
            quota_rps: None,
            quota_burst: None,
            slow_threshold: None,
            metrics_port: None,
            baseline_faults: Vec::new(),
            record_path: None,
        }
    }
}

/// What a finished [`serve`] loop saw.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// Connections accepted and handled (the shutdown wake-up and
    /// capacity-rejected connections excluded).
    pub connections: u64,
    /// Request lines answered.
    pub requests: u64,
    /// The fleet-wide aggregate snapshot at shutdown: every resident
    /// topology's registry absorbed, plus the connection layer.
    pub metrics: MetricsSnapshot,
}

/// What clients are told to wait when a watermark shed happens. The
/// watermark clears as soon as any in-flight request finishes, so this
/// is deliberately short.
const WATERMARK_RETRY_MS: u64 = 100;

/// Most peer IPs tracked by the quota map at once; beyond this, fully
/// refilled (idle) buckets are pruned, and as a last resort the map is
/// cleared — a source-address spray degrades quota precision, never
/// memory.
const MAX_QUOTA_CLIENTS: usize = 4096;

/// Why a request was shed, and what to tell the client.
#[derive(Debug)]
struct Shed {
    /// `true` for a per-client quota shed, `false` for the watermark.
    quota: bool,
    retry_after_ms: u64,
    msg: String,
}

/// One peer's token bucket: `tokens` refill at the configured rate up to
/// the burst capacity; each admitted route/batch request spends one.
struct TokenBucket {
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    fn refill(&mut self, now: Instant, rps: u64, burst: u64) {
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + elapsed * rps as f64).min(burst as f64);
        self.refilled = now;
    }
}

/// Overload control for route/batch work: a per-client token-bucket
/// quota (checked first — a noisy neighbour is shed before it can claim
/// a watermark slot) and a global in-flight watermark. Both default off;
/// with neither configured [`OverloadControl::try_admit`] is two `None`
/// checks and touches no shared state.
struct OverloadControl {
    watermark: Option<usize>,
    quota_rps: Option<u64>,
    quota_burst: u64,
    inflight: AtomicU64,
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
}

impl OverloadControl {
    fn from_config(config: &ServerConfig) -> Self {
        Self {
            watermark: config.overload_watermark,
            quota_rps: config.quota_rps,
            quota_burst: config.quota_burst.or(config.quota_rps).unwrap_or(1).max(1),
            inflight: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Admits one route/batch request or says how it was shed. The
    /// returned guard releases the watermark slot when dropped — hold it
    /// for the request's whole time in service.
    fn try_admit(&self, peer: Option<IpAddr>) -> Result<InflightGuard<'_>, Shed> {
        if let (Some(rps), Some(ip)) = (self.quota_rps, peer) {
            let burst = self.quota_burst;
            let now = Instant::now();
            let mut buckets = self
                .buckets
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let bucket = buckets.entry(ip).or_insert(TokenBucket {
                tokens: burst as f64,
                refilled: now,
            });
            bucket.refill(now, rps, burst);
            if bucket.tokens < 1.0 {
                let deficit = 1.0 - bucket.tokens;
                let retry_after_ms = ((deficit / rps as f64) * 1000.0).ceil().max(1.0) as u64;
                drop(buckets);
                return Err(Shed {
                    quota: true,
                    retry_after_ms,
                    msg: format!("client quota exceeded ({rps} requests/s, burst {burst})"),
                });
            }
            bucket.tokens -= 1.0;
            if buckets.len() > MAX_QUOTA_CLIENTS {
                buckets.retain(|_, b| {
                    let mut probe = TokenBucket {
                        tokens: b.tokens,
                        refilled: b.refilled,
                    };
                    probe.refill(now, rps, burst);
                    probe.tokens < burst as f64
                });
                if buckets.len() > MAX_QUOTA_CLIENTS {
                    buckets.clear();
                }
            }
        }
        if let Some(watermark) = self.watermark {
            let previous = self.inflight.fetch_add(1, Ordering::SeqCst);
            if previous as usize >= watermark {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                return Err(Shed {
                    quota: false,
                    retry_after_ms: WATERMARK_RETRY_MS,
                    msg: format!("server is at its in-flight watermark ({watermark})"),
                });
            }
            return Ok(InflightGuard {
                control: self,
                counted: true,
            });
        }
        Ok(InflightGuard {
            control: self,
            counted: false,
        })
    }
}

/// Releases the watermark slot its request held.
struct InflightGuard<'a> {
    control: &'a OverloadControl,
    counted: bool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.control.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Shared state of one serve loop: the topology router, the shutdown
/// flag, the connection registry, and the counters the summary reports.
struct ServeState {
    router: Arc<TopologyRouter>,
    /// Connection-layer counters (opened/closed/rejected, oversized
    /// lines, read timeouts). Request counters live in each topology's
    /// own service registry; the `stats` op absorbs both into one
    /// fleet-wide view.
    server_metrics: Arc<ServiceMetrics>,
    config: ServerConfig,
    listener_addr: SocketAddr,
    /// When the server started, for `uptime_secs` and the exposition.
    started: Instant,
    /// The slow-request log, present when `slow_threshold` is set.
    slow_log: Option<SlowLog>,
    /// Overload control for route/batch work (no-op unless configured).
    overload: OverloadControl,
    shutdown: AtomicBool,
    /// Live connections by id: their join handles (joined by the accept
    /// loop's reaper or the final drain) — also the live-connection count
    /// the capacity cap checks.
    conns: Mutex<HashMap<u64, ConnHandle>>,
    /// Ids of handlers that have exited, awaiting a reap.
    finished: Mutex<Vec<u64>>,
    requests: AtomicU64,
    /// Live capacity-reject helper threads, capped at
    /// [`MAX_REJECT_THREADS`] so a connect flood against a full server
    /// cannot mint threads faster than they retire.
    reject_threads: AtomicU64,
    /// The request-trace tee, present when `record_path` is set. Purely
    /// observational: `execute` feeds it once a request is accepted for
    /// service, and it never alters responses.
    recorder: Option<record::TraceRecorder>,
}

struct ConnHandle {
    join: Option<JoinHandle<()>>,
}

impl ServeState {
    fn new(
        router: Arc<TopologyRouter>,
        config: ServerConfig,
        listener_addr: SocketAddr,
    ) -> std::io::Result<Self> {
        // Refuse a misconfigured baseline up front: `fail_coupler` panics
        // on an out-of-range id, and a fault list that silently dropped
        // entries would serve schedules that drive couplers the operator
        // declared dead.
        for ((d, g), ids) in &config.baseline_faults {
            let couplers = g.saturating_mul(*g);
            if let Some(&c) = ids.iter().find(|&&c| c >= couplers) {
                return Err(std::io::Error::other(format!(
                    "baseline fault set for {d}x{g}: coupler {c} out of range (couplers: 0..{couplers})"
                )));
            }
        }
        // Open the trace file before accepting anything: an unwritable
        // recording target is a boot error, not a silently-dropped tee.
        let recorder = match &config.record_path {
            None => None,
            Some(path) => Some(record::TraceRecorder::create(path).map_err(|e| {
                std::io::Error::other(format!("cannot record to {}: {e}", path.display()))
            })?),
        };
        Ok(Self {
            router,
            server_metrics: Arc::new(ServiceMetrics::new()),
            listener_addr,
            started: Instant::now(),
            slow_log: config.slow_threshold.map(SlowLog::new),
            overload: OverloadControl::from_config(&config),
            config,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            finished: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            reject_threads: AtomicU64::new(0),
            recorder,
        })
    }

    /// Flips the shutdown flag and pokes the accept loop. Handlers notice
    /// the flag within [`SHUTDOWN_POLL`] (or finish their in-flight
    /// response first); [`serve_with_config`] joins them all.
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.listener_addr);
    }
}

/// Serves `service` on `listener` with the default [`ServerConfig`] until
/// a client sends `{"op":"shutdown"}`. Blocks the calling thread.
pub fn serve(
    listener: TcpListener,
    service: Arc<RoutingService>,
) -> std::io::Result<ServerSummary> {
    serve_with_config(listener, service, ServerConfig::default())
}

/// Serves `service` on `listener` under `config` until a client sends
/// `{"op":"shutdown"}` — the **single-topology** compatibility entry:
/// the service is wrapped as the pinned sole resident of a one-slot
/// [`TopologyRouter`], so requests for any other shape are refused with a
/// `topology-limit` error exactly as a fixed-shape server should. Blocks
/// the calling thread; returns only after **every** accepted connection's
/// handler thread has been joined.
pub fn serve_with_config(
    listener: TcpListener,
    service: Arc<RoutingService>,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    // The caller already built (and owns the memory of) this service, so
    // the router must accept its shape whatever its size — the size
    // limits exist to stop *remote* clients minting services, and with a
    // one-slot all-pinned registry no dynamic admission can happen.
    let router_config = TopologyRouterConfig {
        max_topologies: 1,
        ..TopologyRouterConfig::default()
    };
    let max_n = router_config.max_n.max(service.topology().n());
    let router = Arc::new(TopologyRouter::from_service(
        service,
        TopologyRouterConfig {
            max_n,
            ..router_config
        },
    ));
    serve_router(listener, router, config)
}

/// Serves a whole [`TopologyRouter`] on `listener` under `config` until a
/// client sends `{"op":"shutdown"}` — the multi-topology entry behind
/// `pops serve`. Blocks the calling thread; returns only after **every**
/// accepted connection's handler thread has been joined.
pub fn serve_router(
    listener: TcpListener,
    router: Arc<TopologyRouter>,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    let listener_addr = listener.local_addr()?;
    let state = Arc::new(ServeState::new(router, config, listener_addr)?);
    let metrics = state.server_metrics.clone();
    // Optional metrics sidecar: a second listener on the same interface
    // that only ever answers HTTP GETs, so a scraper never competes with
    // wire clients for the main accept loop or the connection cap.
    let sidecar = match state.config.metrics_port {
        None => None,
        Some(port) => {
            let sidecar_listener = TcpListener::bind((listener_addr.ip(), port))?;
            let sidecar_state = state.clone();
            Some(
                std::thread::Builder::new()
                    .name("pops-metrics".into())
                    .spawn(move || metrics_sidecar_loop(sidecar_listener, &sidecar_state))?,
            )
        }
    };
    let mut next_id: u64 = 0;
    let mut connections: u64 = 0;

    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        reap_finished(&state);
        let active = state
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        if active >= state.config.max_connections {
            metrics.conns_rejected.inc();
            reject_at_capacity(stream, &state);
            continue;
        }
        connections += 1;
        metrics.conns_opened.inc();
        let id = next_id;
        next_id += 1;
        let handler_state = state.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("pops-conn-{id}"))
            .spawn(move || {
                let _ = handle_connection(stream, &handler_state, id);
                handler_state.server_metrics.conns_closed.inc();
                handler_state
                    .finished
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(id);
            });
        match spawned {
            Ok(join) => {
                state
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(id, ConnHandle { join: Some(join) });
            }
            Err(_) => {
                metrics.conns_closed.inc();
            }
        }
    }

    // Graceful drain: join every handler. Idle handlers observe the flag
    // within a poll tick; in-flight ones finish writing their complete
    // responses first.
    let drained: Vec<ConnHandle> = {
        let mut conns = state
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        conns.drain().map(|(_, conn)| conn).collect()
    };
    for mut conn in drained {
        if let Some(join) = conn.join.take() {
            let _ = join.join();
        }
    }
    if let Some(join) = sidecar {
        let _ = join.join();
    }

    let (aggregate, _) = aggregate_stats(&state);
    Ok(ServerSummary {
        connections,
        requests: state.requests.load(Ordering::Relaxed),
        metrics: aggregate,
    })
}

/// Joins handler threads that have already exited, keeping the registry
/// (and its join handles) from growing without bound on a long-lived
/// server.
fn reap_finished(state: &ServeState) {
    let finished: Vec<u64> = {
        let mut list = state
            .finished
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *list)
    };
    if finished.is_empty() {
        return;
    }
    let mut conns = state
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for id in finished {
        if let Some(mut conn) = conns.remove(&id) {
            if let Some(join) = conn.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// How often a waiting reader re-checks the shutdown flag. Short enough
/// that drain latency is imperceptible, long enough that an idle
/// connection costs ~20 wakeups per second.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Hard bounds on the post-error drain: total wall-clock and total bytes.
const DRAIN_BUDGET: Duration = Duration::from_millis(250);
const DRAIN_MAX_BYTES: usize = 64 * 1024;

/// Most capacity-reject helper threads alive at once; connections beyond
/// this under a connect flood are dropped without the polite error line.
const MAX_REJECT_THREADS: u64 = 32;

/// Answers a connection refused at the capacity limit with a structured
/// error (best effort) and drops it. The polite path runs on a
/// short-lived thread (its lifetime is bounded by a 1 s write timeout
/// plus the [`DRAIN_BUDGET`] drain) so a reject never stalls the accept
/// loop: after the error line the write side is FIN'd and any request
/// the client already pipelined is swallowed — closing with unread input
/// would RST the error line out of the peer's receive buffer. At most
/// [`MAX_REJECT_THREADS`] of these run concurrently; a flood beyond that
/// gets its sockets dropped on the spot, so rejected clients can never
/// mint unbounded threads. (The helpers are detached: up to 32 may
/// linger ~1 s past `serve` returning, holding nothing but a dead
/// socket.)
fn reject_at_capacity(stream: TcpStream, state: &Arc<ServeState>) {
    if state.reject_threads.fetch_add(1, Ordering::SeqCst) >= MAX_REJECT_THREADS {
        state.reject_threads.fetch_sub(1, Ordering::SeqCst);
        return; // flood mode: drop without the courtesy line
    }
    let helper_state = state.clone();
    let spawned = std::thread::Builder::new()
        .name("pops-conn-reject".into())
        .spawn(move || {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let mut writer = stream;
            let response = error_response(
                WireErrorKind::Unavailable,
                format!(
                    "server is at its connection capacity ({})",
                    helper_state.config.max_connections
                ),
            );
            let text = response.to_string();
            if writeln!(writer, "{text}").is_ok() {
                // Even a courtesy rejection is wire traffic and a typed
                // error — the counters must see both.
                helper_state
                    .server_metrics
                    .record_wire_bytes(false, 0, text.len() as u64 + 1);
                helper_state
                    .server_metrics
                    .record_wire_error(WireErrorKind::Unavailable);
            }
            close_after_error(&mut writer);
            helper_state.reject_threads.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        state.reject_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Politely closes a connection after a fatal error line: FIN the write
/// side, then briefly drain pending input — dropping a socket with
/// unread data makes the kernel RST it, which would discard the error
/// line out of the peer's receive buffer before it reads it. The drain
/// is hard-bounded by [`DRAIN_BUDGET`] wall-clock and [`DRAIN_MAX_BYTES`]
/// total, so a client dripping bytes cannot pin the thread.
fn close_after_error(writer: &mut TcpStream) {
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_BUDGET;
    let mut budget = DRAIN_MAX_BYTES;
    let mut sink = [0u8; 1024];
    while budget > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() || writer.set_read_timeout(Some(remaining)).is_err() {
            break;
        }
        match std::io::Read::read(writer, &mut sink) {
            Ok(n) if n > 0 => budget = budget.saturating_sub(n),
            _ => break, // EOF, timeout, or error — done draining
        }
    }
}

/// How reading one request message ended. Shared with the recording
/// proxy ([`crate::record`]), which reads client traffic under the same
/// caps.
pub(crate) enum ReadOutcome {
    /// A complete message: a line with its `\n` (and any `\r`) stripped,
    /// or a frame payload with its 4-byte length prefix stripped.
    Message(Vec<u8>),
    /// The peer closed the connection (partial messages are dropped).
    Eof,
    /// The message exceeded the configured cap; carries the bytes
    /// consumed before giving up, so the traffic counters still see them.
    TooLong { consumed: u64 },
    /// No complete message arrived within the read deadline; carries the
    /// partial bytes consumed while waiting.
    TimedOut { consumed: u64 },
    /// The server is shutting down and no complete message was pending —
    /// the handler should close quietly.
    ShuttingDown,
}

/// What one chunk of input did to the message being assembled.
enum Step {
    More,
    Done,
    /// Over the cap, having consumed this many bytes in total.
    TooLong(u64),
}

/// Reads one message in `format` — a `\n`-terminated line or a
/// length-prefixed frame — enforcing the size cap and the whole-message
/// deadline. Waits in [`SHUTDOWN_POLL`] slices so the shutdown flag is
/// noticed promptly — but only on a tick where no data was pending, and
/// even then only after one extra grace tick (catching a request segment
/// that was in flight when the flag flipped). A message delivered before
/// shutdown is therefore read and served, and no socket is ever torn
/// down mid-request; only partial messages are dropped.
pub(crate) fn read_message(
    reader: &mut BufReader<TcpStream>,
    format: WireFormat,
    max_bytes: usize,
    deadline: Option<Duration>,
    shutdown: &AtomicBool,
) -> std::io::Result<ReadOutcome> {
    let mut message: Vec<u8> = Vec::new();
    let started = Instant::now();
    let mut shutdown_grace_used = false;
    loop {
        let mut slice = SHUTDOWN_POLL;
        if let Some(budget) = deadline {
            match budget.checked_sub(started.elapsed()) {
                Some(remaining) if !remaining.is_zero() => slice = slice.min(remaining),
                _ => {
                    let consumed = message.len() as u64;
                    return Ok(ReadOutcome::TimedOut { consumed });
                }
            }
        }
        reader.get_ref().set_read_timeout(Some(slice))?;
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Nothing arrived this tick: notice a shutdown (after one
                // grace tick for a segment racing the flag), otherwise
                // keep waiting towards the deadline.
                if shutdown.load(Ordering::SeqCst) {
                    if shutdown_grace_used {
                        return Ok(ReadOutcome::ShuttingDown);
                    }
                    shutdown_grace_used = true;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(ReadOutcome::Eof);
        }
        let (used, step) = match format {
            WireFormat::Json => line_step(&mut message, available, max_bytes),
            WireFormat::Binary => frame_step(&mut message, available, max_bytes),
        };
        reader.consume(used);
        match step {
            Step::Done => return Ok(ReadOutcome::Message(message)),
            Step::TooLong(consumed) => return Ok(ReadOutcome::TooLong { consumed }),
            // Still mid-message: a shutdown abandons the partial (only
            // *complete* messages are owed a response). Without this, a
            // client dripping bytes would dodge the idle tick above and
            // stall the drain for the whole read deadline — or forever
            // with timeouts disabled.
            Step::More if shutdown.load(Ordering::SeqCst) => return Ok(ReadOutcome::ShuttingDown),
            Step::More => {}
        }
    }
}

/// Line framing: takes `available` up to the next `\n`, refusing a line
/// longer than `max_bytes` (newline excluded). Returns the bytes used.
fn line_step(line: &mut Vec<u8>, available: &[u8], max_bytes: usize) -> (usize, Step) {
    let Some(newline) = available.iter().position(|&b| b == b'\n') else {
        let total = line.len() + available.len();
        if total > max_bytes {
            return (0, Step::TooLong(total as u64));
        }
        line.extend_from_slice(available);
        return (available.len(), Step::More);
    };
    if line.len() + newline > max_bytes {
        return (0, Step::TooLong((line.len() + newline) as u64));
    }
    // lint: allow(panic-freedom) -- `newline` was returned by position() over `available`
    line.extend_from_slice(&available[..newline]);
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    (newline + 1, Step::Done)
}

/// Frame framing: takes the 4-byte length prefix, then exactly the
/// payload it declares (pipelined frames stay buffered). The cap is
/// checked against the **declared** length as soon as the prefix
/// arrives, so an oversized frame is refused before any of its payload
/// is buffered. Returns the bytes used.
fn frame_step(frame: &mut Vec<u8>, available: &[u8], max_bytes: usize) -> (usize, Step) {
    let declared = |frame: &[u8]| {
        frame
            .first_chunk::<4>()
            .map(|h| u32::from_le_bytes(*h) as usize)
    };
    let needed = match declared(frame) {
        None => 4 - frame.len(),
        Some(len) => 4 + len - frame.len(),
    };
    let take = needed.min(available.len());
    // lint: allow(panic-freedom) -- `take` is clamped to available.len() on the line above
    frame.extend_from_slice(&available[..take]);
    match declared(frame) {
        Some(len) if len > max_bytes => (take, Step::TooLong(4)),
        Some(len) if frame.len() == 4 + len => {
            frame.drain(..4);
            (take, Step::Done)
        }
        _ => (take, Step::More),
    }
}

/// One connection's state between requests.
struct Conn {
    id: u64,
    peer: Option<IpAddr>,
    format: WireFormat,
    /// Requests served so far: the sequence number in trace ids.
    seq: u64,
    /// The single write buffer every reply is encoded into, reused
    /// across requests.
    out: Vec<u8>,
}

impl Conn {
    fn new(id: u64, peer: Option<IpAddr>) -> Self {
        Self {
            id,
            peer,
            format: WireFormat::Json,
            seq: 0,
            out: Vec::new(),
        }
    }

    /// The codec of replies that are JSON documents whatever the request
    /// was: errors and control ops.
    fn codec(&self) -> Codec {
        match self.format {
            WireFormat::Json => Codec::Line,
            WireFormat::Binary => Codec::JsonFrame,
        }
    }
}

/// Framing plus I/O for one connection: read a complete message, serve
/// it, repeat. Transport failures (timeout, oversize) are answered in
/// the connection's format and close it.
fn handle_connection(stream: TcpStream, state: &ServeState, conn_id: u64) -> std::io::Result<()> {
    if state.config.tcp_nodelay {
        let _ = stream.set_nodelay(true);
    }
    stream.set_write_timeout(state.config.write_timeout)?;
    let metrics = &state.server_metrics;
    let mut conn = Conn::new(conn_id, stream.peer_addr().ok().map(|addr| addr.ip()));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        // No shutdown check here: already-delivered requests (buffered or
        // still a segment in flight) must be served first, and the reader
        // notices the flag itself within two poll ticks.
        let config = &state.config;
        let outcome = read_message(
            &mut reader,
            conn.format,
            config.max_line_bytes,
            config.read_timeout,
            &state.shutdown,
        )?;
        let (unit, cap) = match conn.format {
            WireFormat::Json => ("request line", "cap"),
            WireFormat::Binary => ("frame", "payload cap"),
        };
        let (error, consumed) = match outcome {
            ReadOutcome::Eof | ReadOutcome::ShuttingDown => break,
            ReadOutcome::TimedOut { consumed } => {
                metrics.read_timeouts.inc();
                let budget = config.read_timeout.unwrap_or_default();
                let msg = format!("no complete {unit} within {budget:?}");
                (WireError::new(WireErrorKind::Timeout, msg), consumed)
            }
            ReadOutcome::TooLong { consumed } => {
                metrics.oversized_lines.inc();
                let msg = format!("{unit} exceeds the {}-byte {cap}", config.max_line_bytes);
                (WireError::new(WireErrorKind::TooLarge, msg), consumed)
            }
            ReadOutcome::Message(message) => {
                if conn.format == WireFormat::Json {
                    let line = String::from_utf8_lossy(&message);
                    if line.trim().is_empty() {
                        continue;
                    }
                    // A scraper, not a wire client: answer the HTTP
                    // request and close.
                    if let Some(path) = exposition::http_request_path(&line) {
                        let bytes_out = answer_http(&mut writer, state, path);
                        metrics.record_wire_bytes(false, message.len() as u64 + 1, bytes_out);
                        break;
                    }
                }
                let (_, stop) = serve_message(state, &mut conn, &message, &mut writer)?;
                if stop {
                    state.initiate_shutdown();
                    break;
                }
                continue;
            }
        };
        // Fatal transport-level problem: answer in the connection's
        // format (best effort) and close. The partial request bytes
        // consumed before giving up still count.
        metrics.record_wire_error(error.kind);
        conn.out.clear();
        let codec = conn.codec();
        put_doc(&mut conn.out, codec, error.into_json());
        let bytes_out = match writer.write_all(&conn.out) {
            Ok(()) => conn.out.len() as u64,
            Err(_) => 0,
        };
        metrics.record_wire_bytes(conn.format == WireFormat::Binary, consumed, bytes_out);
        close_after_error(&mut writer);
        break;
    }
    Ok(())
}

/// Serves one complete request message: decode → execute → encode into
/// the connection's write buffer, then one write. Returns the finished
/// trace and whether the request asked the server to stop.
fn serve_message(
    state: &ServeState,
    conn: &mut Conn,
    message: &[u8],
    writer: &mut impl Write,
) -> std::io::Result<(RequestTrace, bool)> {
    let metrics = &state.server_metrics;
    conn.seq += 1;
    let mut trace = RequestTrace::start(conn.id, conn.seq);
    state.requests.fetch_add(1, Ordering::Relaxed);
    let (codec, request) = decode(&state.router.default_topology(), conn.format, message);
    trace.stage("parse");
    let result = request.and_then(|request| execute(state, conn, request, &mut trace));
    match &result {
        Err(e) => metrics.record_wire_error(e.kind),
        Ok(Reply::Batch(batch)) => {
            for e in batch.items.iter().filter_map(|item| item.as_ref().err()) {
                metrics.record_wire_error(e.kind);
            }
        }
        Ok(_) => {}
    }
    let (switch_to, stop) = match &result {
        Ok(Reply::Hello(format)) => (Some(*format), false),
        Ok(Reply::Shutdown) => (None, true),
        _ => (None, false),
    };
    conn.out.clear();
    encode(&mut conn.out, codec, result, trace.id());
    trace.stage("encode");
    // The whole reply goes out in ONE write: per-document (or worse,
    // per-fragment) writes on a raw socket without TCP_NODELAY let Nagle
    // hold the tail segment until the peer's delayed ACK fires — a
    // ~40 ms stall per reply that the soak harness flags as p99.
    writer.write_all(&conn.out)?;
    writer.flush()?;
    let (binary, framing) = match conn.format {
        WireFormat::Json => (false, 1),
        WireFormat::Binary => (true, 4),
    };
    metrics.record_wire_bytes(
        binary,
        message.len() as u64 + framing,
        conn.out.len() as u64,
    );
    trace.stage("write");
    if let Some(slow_log) = &state.slow_log {
        match slow_log.observe(&trace) {
            SlowVerdict::Fast => {}
            SlowVerdict::Emit(line) => {
                metrics.record_slow_trace(true);
                eprintln!("{line}");
            }
            SlowVerdict::Suppressed => metrics.record_slow_trace(false),
        }
    }
    // The acknowledgement went out in the old format; the switch takes
    // effect on the next message.
    if let Some(format) = switch_to {
        if format == WireFormat::Binary && conn.format != WireFormat::Binary {
            metrics.conns_binary.inc();
        }
        conn.format = format;
    }
    Ok((trace, stop))
}

/// The `(d, g)`-selected backend for one request: unacceptable shapes
/// are `bad-request`, a full registry of pinned topologies is
/// `topology-limit`.
fn select_service(
    state: &ServeState,
    d: usize,
    g: usize,
) -> Result<Arc<RoutingService>, WireError> {
    state.router.get(d, g).map_err(|e| match e {
        RouterError::BadShape(_) => WireError::bad_request(e.to_string()),
        RouterError::AtCapacity { .. } => {
            WireError::new(WireErrorKind::TopologyLimit, e.to_string())
        }
    })
}

/// The operator-declared baseline fault ids for shape `(d, g)`, empty
/// when the shape has none.
fn baseline_fault_ids(config: &ServerConfig, d: usize, g: usize) -> &[usize] {
    config
        .baseline_faults
        .iter()
        .find(|((bd, bg), _)| (*bd, *bg) == (d, g))
        .map(|(_, ids)| ids.as_slice())
        .unwrap_or(&[])
}

/// Composes the baseline fault set into one route request: a `theorem2`
/// request on a shape with declared faults becomes a fault-routing
/// request, an explicit fault request gains the baseline's couplers (set
/// union), and the diagnostic kinds pass through untouched — they probe
/// the healthy fabric by definition. With an empty baseline this is the
/// identity.
fn compose_baseline_route(
    req: ServiceRequest,
    baseline: &[usize],
    topology: &PopsTopology,
) -> ServiceRequest {
    if baseline.is_empty() {
        return req;
    }
    // Out-of-range ids were refused at boot; the filter keeps this
    // total (fail_coupler panics) whatever the config's provenance.
    let add_baseline = |faults: &mut FaultSet| {
        for &c in baseline.iter().filter(|&&c| c < topology.coupler_count()) {
            faults.fail_coupler(c);
        }
    };
    match req {
        ServiceRequest::Theorem2 { pi } => {
            let mut faults = FaultSet::none(topology);
            add_baseline(&mut faults);
            ServiceRequest::WithFaults { pi, faults }
        }
        ServiceRequest::WithFaults { pi, mut faults } => {
            add_baseline(&mut faults);
            ServiceRequest::WithFaults { pi, faults }
        }
        other => other,
    }
}

/// The fleet-wide aggregate snapshot plus the per-topology breakdown the
/// `stats` op reports. The aggregate includes the **retired ledger** —
/// counters of topologies evicted since boot — so fleet totals stay
/// monotonic across LRU churn.
fn aggregate_stats(state: &ServeState) -> (MetricsSnapshot, Vec<(usize, usize, MetricsSnapshot)>) {
    let mut aggregate = state.server_metrics.snapshot();
    aggregate.absorb(&state.router.retired_metrics());
    let mut per_topology = Vec::new();
    for (topology, service) in state.router.services() {
        let snap = service.metrics();
        aggregate.absorb(&snap);
        per_topology.push((topology.d(), topology.g(), snap));
    }
    (aggregate, per_topology)
}

/// Renders the Prometheus exposition for the current fleet state.
fn render_metrics(state: &ServeState) -> String {
    let (aggregate, per_topology) = aggregate_stats(state);
    exposition::render(&Exposition {
        aggregate: &aggregate,
        topologies: &per_topology,
        router: &state.router.stats(),
        version: env!("CARGO_PKG_VERSION"),
        uptime_secs: state.started.elapsed().as_secs(),
    })
}

/// Answers one HTTP request line on an already-sniffed connection:
/// `GET /metrics` gets the exposition, anything else a 404. Returns the
/// bytes written. The response is `HTTP/1.0` + `Connection: close`, so
/// the caller closes afterwards; any headers the client pipelined behind
/// the request line are swallowed by the close-side drain.
fn answer_http(writer: &mut TcpStream, state: &ServeState, path: &str) -> u64 {
    let response = if path == exposition::METRICS_PATH {
        exposition::http_ok(&render_metrics(state))
    } else {
        exposition::http_not_found()
    };
    let written = match writer.write_all(&response) {
        Ok(()) => response.len() as u64,
        Err(_) => 0,
    };
    let _ = writer.flush();
    close_after_error(writer);
    written
}

/// The metrics sidecar accept loop: answers `GET /metrics` (and 404s any
/// other path) until the server shuts down. Scrapes are short-lived
/// one-request connections handled inline — a scraper that stalls
/// mid-request is bounded by a short fixed read deadline, not the main
/// listener's configurable one.
fn metrics_sidecar_loop(listener: TcpListener, state: &Arc<ServeState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => continue,
                });
                let mut writer = stream;
                let outcome = read_message(
                    &mut reader,
                    WireFormat::Json,
                    8 * 1024,
                    Some(Duration::from_secs(2)),
                    &state.shutdown,
                );
                if let Ok(ReadOutcome::Message(line)) = outcome {
                    let text = String::from_utf8_lossy(&line);
                    let path = exposition::http_request_path(&text).unwrap_or("");
                    let bytes_out = answer_http(&mut writer, state, path);
                    state
                        .server_metrics
                        .record_wire_bytes(false, line.len() as u64 + 1, bytes_out);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(SHUTDOWN_POLL);
            }
            Err(_) => std::thread::sleep(SHUTDOWN_POLL),
        }
    }
}

/// A typed refusal on its way to the client.
#[derive(Debug, Clone)]
pub(crate) struct WireError {
    kind: WireErrorKind,
    msg: String,
    /// The back-off hint of an overload shed.
    retry_after_ms: Option<u64>,
}

impl WireError {
    fn new(kind: WireErrorKind, msg: impl Into<String>) -> Self {
        Self {
            kind,
            msg: msg.into(),
            retry_after_ms: None,
        }
    }

    fn bad_request(msg: impl Into<String>) -> Self {
        Self::new(WireErrorKind::BadRequest, msg)
    }

    fn into_json(self) -> Json {
        match self.retry_after_ms {
            Some(ms) => overloaded_response(self.msg, ms),
            None => error_response(self.kind, self.msg),
        }
    }
}

/// A decoded request, whichever wire format it arrived in.
pub(crate) enum Request {
    /// A route op: the shape it selects, and its body, which is bound to
    /// that topology only after the lookup.
    Route { d: usize, g: usize, body: RouteBody },
    /// Every other op, fully decoded.
    Op(WireRequest),
}

/// A route body not yet bound to a topology.
pub(crate) enum RouteBody {
    /// A `{"op":"route"}` document.
    Json(Json),
    /// A dense `TAG_ROUTE` body.
    Dense(frame::RouteFrame),
}

/// What executing a request produced, before it is encoded.
enum Reply {
    /// A finished response document (control ops).
    Doc(Json),
    /// The `hello` acknowledgement; the connection switches format after
    /// writing it.
    Hello(WireFormat),
    /// The `shutdown` acknowledgement; the server stops after writing it.
    Shutdown,
    Route {
        kind: RequestKind,
        reply: ServiceReply,
        want_schedule: bool,
    },
    Batch(BatchReply),
}

/// A routed batch: one answer per item, in input order.
struct BatchReply {
    items: Vec<Result<BatchItem, WireError>>,
    want_schedule: bool,
    micros: u64,
}

/// One routed batch item and the topology that served it.
struct BatchItem {
    d: usize,
    g: usize,
    plan: ItemPlan,
}

/// How a batch item was routed.
enum ItemPlan {
    /// On its shape's no-artefacts fast path (always healthy).
    Healthy(RoutingPlan),
    /// Alone through [`route_one`], under its effective fault set.
    Degraded(ServiceReply),
}

impl ItemPlan {
    fn schedule(&self) -> &Schedule {
        match self {
            ItemPlan::Healthy(plan) => &plan.schedule,
            ItemPlan::Degraded(reply) => reply.outcome.schedule(),
        }
    }

    fn degraded(&self) -> bool {
        matches!(self, ItemPlan::Degraded(reply) if reply.degraded)
    }
}

/// Which encoding a reply goes out in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Codec {
    /// JSON documents, one per line.
    Line,
    /// JSON documents inside `TAG_JSON` frames.
    JsonFrame,
    /// Dense route-reply and batch-item frames for `TAG_ROUTE` and
    /// `TAG_BATCH` requests; their errors and the batch summary stay
    /// `TAG_JSON` frames.
    Dense,
}

/// Decodes one message into a [`Request`], plus the codec its reply goes
/// out in. A JSON body decodes the same way whether it arrived as a line
/// or inside a `TAG_JSON` frame; a dense frame with `d = g = 0` selects
/// `default`, like a JSON request without `d`/`g` fields.
pub(crate) fn decode(
    default: &PopsTopology,
    format: WireFormat,
    message: &[u8],
) -> (Codec, Result<Request, WireError>) {
    let parse_error = |e: String| WireError::new(WireErrorKind::Parse, e);
    if format == WireFormat::Json {
        let line = String::from_utf8_lossy(message);
        return (Codec::Line, decode_json(&line, default, true));
    }
    let Some((&tag, body)) = message.split_first() else {
        return (Codec::JsonFrame, Err(parse_error("empty frame".into())));
    };
    let resolve = |shape| match shape {
        (0, 0) => (default.d(), default.g()),
        shape => shape,
    };
    match tag {
        TAG_JSON => (
            Codec::JsonFrame,
            match std::str::from_utf8(body) {
                Ok(text) => decode_json(text, default, false),
                Err(_) => Err(parse_error("TAG_JSON frame is not valid UTF-8".into())),
            },
        ),
        TAG_ROUTE => (
            Codec::Dense,
            frame::decode_route_request(body)
                .map_err(parse_error)
                .map(|route| {
                    let (d, g) = resolve(route.shape);
                    Request::Route {
                        d,
                        g,
                        body: RouteBody::Dense(route),
                    }
                }),
        ),
        TAG_BATCH => (
            Codec::Dense,
            frame::decode_batch_request(body)
                .map_err(parse_error)
                .map(|(items, want_schedule)| {
                    let items = items
                        .into_iter()
                        .map(|item| {
                            let (d, g) = resolve(item.shape);
                            // The dense body carries no fault lists; a
                            // declared baseline still applies per item.
                            BatchItemRequest {
                                d,
                                g,
                                perm: item.perm.and_then(|pi| item_perm(d, g, pi)),
                                faults: Vec::new(),
                            }
                        })
                        .collect();
                    Request::Op(WireRequest::Batch {
                        items,
                        want_schedule,
                    })
                }),
        ),
        other => (
            Codec::JsonFrame,
            Err(WireError::bad_request(format!(
                "unknown frame tag 0x{other:02x}"
            ))),
        ),
    }
}

/// Decodes one JSON request document. A route's shape is resolved (absent
/// `d`/`g` fall back to `default` field by field) but its body is left
/// unbound. `on_line` says the document arrived as a JSON line, the only
/// place a `hello` can still switch formats.
fn decode_json(text: &str, default: &PopsTopology, on_line: bool) -> Result<Request, WireError> {
    let doc = Json::parse(text).map_err(|e| WireError::new(WireErrorKind::Parse, e.to_string()))?;
    if doc.get("op").and_then(Json::as_str) == Some("route") {
        let (d, g) = requested_shape(&doc, default).map_err(WireError::bad_request)?;
        let body = RouteBody::Json(doc);
        return Ok(Request::Route { d, g, body });
    }
    match parse_request(&doc, default).map_err(WireError::bad_request)? {
        WireRequest::Hello { .. } if !on_line => Err(WireError::bad_request(
            "connection already negotiated the binary framing",
        )),
        request => Ok(Request::Op(request)),
    }
}

/// Executes one decoded request as staged checks with early typed
/// returns, in one order for every wire format: shape → admission →
/// lookup → bind → record → compose baseline faults → route.
fn execute(
    state: &ServeState,
    conn: &Conn,
    request: Request,
    trace: &mut RequestTrace,
) -> Result<Reply, WireError> {
    let config = &state.config;
    // Shape: a batch over the item cap is refused whole (never silently
    // truncated) before it costs an admission slot.
    if let Request::Op(WireRequest::Batch { items, .. }) = &request {
        if items.len() > config.max_batch_items {
            return Err(WireError::new(
                WireErrorKind::TooLarge,
                format!(
                    "batch of {} items exceeds the {}-item cap",
                    items.len(),
                    config.max_batch_items
                ),
            ));
        }
    }
    // Admission: route and batch work holds one watermark slot (and
    // spends one quota token) for its whole time in service — a whole
    // batch included, since charging per item would let one batch starve
    // every other client's quota. Control ops are never shed, so the
    // server stays observable under overload.
    let _admitted = match &request {
        Request::Route { .. } | Request::Op(WireRequest::Batch { .. }) => {
            let guard = state.overload.try_admit(conn.peer).map_err(|shed| {
                state.server_metrics.record_shed(shed.quota);
                WireError {
                    kind: WireErrorKind::Overloaded,
                    msg: shed.msg,
                    retry_after_ms: Some(shed.retry_after_ms),
                }
            })?;
            trace.stage("admission");
            Some(guard)
        }
        Request::Op(_) => None,
    };
    // Lookup, then bind: a route body is parsed only against the topology
    // the router admitted, because building one from an unvalidated shape
    // panics. A batch caps its distinct shapes before any lookup
    // (admitting a topology can construct a warm service, so a batch
    // spraying novel shapes would otherwise amplify into that many
    // builds); each shape is then looked up as its group is routed.
    let (request, service) = match request {
        Request::Route { d, g, body } => {
            let service = select_service(state, d, g)?;
            (bind(body, &service.topology())?, Some(service))
        }
        Request::Op(request) => {
            if let WireRequest::Batch { items, .. } = &request {
                let shapes: BTreeSet<(usize, usize)> = items
                    .iter()
                    .filter(|item| item.perm.is_ok())
                    .map(|item| (item.d, item.g))
                    .collect();
                if shapes.len() > config.max_batch_topologies {
                    return Err(WireError::new(
                        WireErrorKind::TooLarge,
                        format!(
                            "batch touches {} distinct topologies, exceeding the {}-topology cap",
                            shapes.len(),
                            config.max_batch_topologies
                        ),
                    ));
                }
            }
            (request, None)
        }
    };
    // Record the request as the client sent it — request-level faults
    // only, no baseline — so traces port across baseline configurations.
    if let Some(recorder) = &state.recorder {
        if let Some(op) = record::recorded_op(&request) {
            recorder.record(conn.format, op);
        }
    }
    // Compose the baseline and route.
    let router = &state.router;
    match request {
        WireRequest::Route {
            req, want_schedule, ..
        } => {
            // Only a route decoded with its body unbound reaches here, and
            // that one was bound to the service looked up above.
            let Some(service) = service else {
                return Err(WireError::bad_request(
                    "internal: route bound without a topology lookup",
                ));
            };
            let routed = route_one(state, &service, req);
            trace.stage(match &routed {
                Ok((_, reply)) if reply.cache_hit => "cache",
                _ => "plan",
            });
            let (kind, reply) = routed?;
            Ok(Reply::Route {
                kind,
                reply,
                want_schedule,
            })
        }
        WireRequest::Batch {
            items,
            want_schedule,
        } => {
            let batch = route_batch(state, items, want_schedule);
            trace.stage("plan");
            Ok(Reply::Batch(batch))
        }
        WireRequest::Cache { action } => cache_op(state, action).map(Reply::Doc),
        WireRequest::Hello { format } => Ok(Reply::Hello(format)),
        WireRequest::Shutdown => Ok(Reply::Shutdown),
        WireRequest::Ping => Ok(Reply::Doc(pong_response())),
        WireRequest::Info => {
            let service = router.default_service();
            let shapes: Vec<(usize, usize)> = router
                .services()
                .iter()
                .map(|(t, _)| (t.d(), t.g()))
                .collect();
            Ok(Reply::Doc(info_response(
                &router.default_topology(),
                service.shard_count(),
                service.cache_capacity(),
                &shapes,
                router.max_topologies(),
                env!("CARGO_PKG_VERSION"),
                state.started.elapsed().as_secs(),
            )))
        }
        WireRequest::Stats => {
            let (aggregate, per_topology) = aggregate_stats(state);
            let doc = stats_response(&aggregate, &per_topology, &router.stats());
            Ok(Reply::Doc(doc))
        }
    }
}

/// Binds a route body to the topology its lookup selected.
pub(crate) fn bind(body: RouteBody, topology: &PopsTopology) -> Result<WireRequest, WireError> {
    let route = match body {
        RouteBody::Json(doc) => {
            return parse_request(&doc, topology).map_err(WireError::bad_request)
        }
        RouteBody::Dense(route) => route,
    };
    let pi = route
        .perm
        .and_then(|pi| bind_perm(pi, topology))
        .map_err(WireError::bad_request)?;
    let req = match route.kind {
        RequestKind::Theorem2 => ServiceRequest::Theorem2 { pi },
        RequestKind::SingleSlot => ServiceRequest::SingleSlot { pi },
        RequestKind::Direct => ServiceRequest::Direct { pi },
        RequestKind::Structured => ServiceRequest::Structured { pi },
        // The decoder refuses these kinds; their richer bodies ride
        // TAG_JSON frames instead.
        RequestKind::HRelation | RequestKind::WithFaults => {
            return Err(WireError::bad_request(
                "h-relation and fault bodies ride TAG_JSON frames, not TAG_ROUTE",
            ))
        }
    };
    Ok(WireRequest::Route {
        d: topology.d(),
        g: topology.g(),
        req,
        want_schedule: route.want_schedule,
    })
}

/// Composes the shape's baseline faults into `req` and routes it — the
/// one place a single request reaches [`RoutingService::route`], for
/// route ops and degraded batch items alike. Returns the kind actually
/// routed (a baseline turns `theorem2` into `faults`) with the reply.
fn route_one(
    state: &ServeState,
    service: &RoutingService,
    req: ServiceRequest,
) -> Result<(RequestKind, ServiceReply), WireError> {
    let topology = service.topology();
    let baseline = baseline_fault_ids(&state.config, topology.d(), topology.g());
    let req = compose_baseline_route(req, baseline, &topology);
    match service.route(&req) {
        Ok(reply) => Ok((req.kind(), reply)),
        // A fault set that disconnects a group pair is the typed
        // `unroutable` refusal; everything else is a generic `routing`.
        Err(e @ RoutingError::Fault(FaultRoutingError::Disconnected { .. })) => {
            Err(WireError::new(WireErrorKind::Unroutable, e.to_string()))
        }
        Err(e) => Err(WireError::new(WireErrorKind::Routing, e.to_string())),
    }
}

/// Routes a batch's items. Healthy items are grouped by topology and each
/// group rides [`RoutingService::route_batch`] — the in-process threads +
/// no-artefacts fast path — so a mixed-shape batch costs one dispatch per
/// distinct shape, not one per item. Items whose effective fault set (own
/// faults ∪ the shape's baseline) is non-empty take [`route_one`]
/// instead, so their plans live under fault-keyed cache entries and their
/// replies carry the degraded flag. Per-item problems (bad permutation,
/// unadmittable shape, unroutable faults) become per-item errors that
/// never poison their siblings.
fn route_batch(
    state: &ServeState,
    items: Vec<BatchItemRequest>,
    want_schedule: bool,
) -> BatchReply {
    let start = Instant::now();
    let mut answers: Vec<Option<Result<BatchItem, WireError>>> =
        (0..items.len()).map(|_| None).collect();
    let mut answer = |index: usize, answer: Result<BatchItem, WireError>| {
        if let Some(slot) = answers.get_mut(index) {
            *slot = Some(answer);
        }
    };
    let mut groups: BTreeMap<(usize, usize), Vec<(usize, Permutation)>> = BTreeMap::new();
    let mut degraded = Vec::new();
    for (index, item) in items.into_iter().enumerate() {
        let (d, g) = (item.d, item.g);
        match item.perm {
            Err(e) => answer(index, Err(WireError::bad_request(e))),
            Ok(pi)
                if item.faults.is_empty() && baseline_fault_ids(&state.config, d, g).is_empty() =>
            {
                groups.entry((d, g)).or_default().push((index, pi));
            }
            Ok(pi) => degraded.push((index, d, g, pi, item.faults)),
        }
    }
    for ((d, g), members) in groups {
        let service = match select_service(state, d, g) {
            Ok(service) => service,
            Err(e) => {
                for (index, _) in members {
                    answer(index, Err(e.clone()));
                }
                continue;
            }
        };
        let (indices, perms): (Vec<usize>, Vec<Permutation>) = members.into_iter().unzip();
        let plans = service.route_batch(&perms, None, false);
        for (index, plan) in indices.into_iter().zip(plans) {
            let plan = ItemPlan::Healthy(plan);
            answer(index, Ok(BatchItem { d, g, plan }));
        }
    }
    for (index, d, g, pi, ids) in degraded {
        let routed = select_service(state, d, g).and_then(|service| {
            let topology = service.topology();
            let mut faults = FaultSet::none(&topology);
            // Item faults were validated in parsing; the filter keeps
            // this total regardless.
            for &c in ids.iter().filter(|&&c| c < topology.coupler_count()) {
                faults.fail_coupler(c);
            }
            route_one(state, &service, ServiceRequest::WithFaults { pi, faults })
        });
        let plan = routed.map(|(_, reply)| ItemPlan::Degraded(reply));
        answer(index, plan.map(|plan| BatchItem { d, g, plan }));
    }
    BatchReply {
        items: answers
            .into_iter()
            .map(|answer| {
                // Every index is answered above; say so rather than
                // panic if one was not.
                answer.unwrap_or_else(|| {
                    Err(WireError::bad_request(
                        "internal: batch item was not answered",
                    ))
                })
            })
            .collect(),
        want_schedule,
        micros: start.elapsed().as_micros() as u64,
    }
}

/// Answers a `cache` op across **every resident topology**. The spill
/// paths are fixed server-side (one file per topology under
/// `--cache-dir`) — a client can trigger persistence but never chooses
/// where the bytes go; without a configured directory the persistence
/// actions are `bad-request`. A save stops at the first filesystem
/// failure (`unavailable`); a load skips unmatchable files (wrong
/// topology, corrupt) and reports how many, failing only if the
/// directory itself cannot be listed.
fn cache_op(state: &ServeState, action: CacheAction) -> Result<Json, WireError> {
    let dir = || {
        state.config.cache_dir.as_deref().ok_or_else(|| {
            WireError::bad_request(
                "server started without --cache-dir; cache persistence is disabled",
            )
        })
    };
    let unavailable = |what: &str, e: std::io::Error| {
        WireError::new(
            WireErrorKind::Unavailable,
            format!("cache {what} failed: {e}"),
        )
    };
    match action {
        CacheAction::Stats => Ok(cache_stats_response(&aggregate_stats(state).0)),
        CacheAction::Save => {
            let written = state
                .router
                .save_all(dir()?)
                .map_err(|e| unavailable("save", e))?;
            let l1 = written.iter().map(|(_, s)| s.l1_entries).sum();
            let l2 = written.iter().map(|(_, s)| s.l2_entries).sum();
            Ok(cache_persist_response(action, l1, l2, 0))
        }
        CacheAction::Load => {
            let report = state
                .router
                .load_dir(dir()?)
                .map_err(|e| unavailable("load", e))?;
            Ok(cache_persist_response(
                action,
                report.l1_entries(),
                report.l2_entries(),
                report.skipped.len(),
            ))
        }
    }
}

/// Writes one request's reply into `out` in `codec`, tagging every JSON
/// document with the trace id (dense frames have no spare field). Route
/// and batch-item replies stream straight into `out`; only small
/// documents are built as trees. Pure: no I/O, no counters.
fn encode(out: &mut Vec<u8>, codec: Codec, result: Result<Reply, WireError>, trace_id: &str) {
    let tagged = |doc: Json| attach_trace(doc, trace_id);
    let reply = match result {
        Ok(reply) => reply,
        Err(e) => return put_doc(out, codec, tagged(e.into_json())),
    };
    match reply {
        Reply::Doc(doc) => put_doc(out, codec, tagged(doc)),
        Reply::Hello(format) => put_doc(out, codec, tagged(hello_response(format))),
        Reply::Shutdown => put_doc(out, codec, tagged(shutdown_response())),
        Reply::Route {
            kind,
            reply,
            want_schedule,
        } => match codec {
            Codec::Dense => frame::put_frame(out, |buf| {
                let schedule = reply.outcome.schedule();
                frame::put_route_reply(buf, reply.cache_hit, reply.micros, schedule, want_schedule)
            }),
            Codec::Line | Codec::JsonFrame => put_json(out, codec, |buf| {
                write_route_response(buf, kind, &reply, want_schedule, trace_id)
            }),
        },
        Reply::Batch(batch) => {
            // One document (or dense frame) per item in input order, then
            // the summary.
            let want = batch.want_schedule;
            let mut slots = 0;
            let mut topologies = BTreeSet::new();
            for (index, item) in batch.items.iter().enumerate() {
                let item = match item {
                    Ok(item) => item,
                    Err(e) => {
                        let doc = batch_item_error(index, e.kind, e.msg.as_str());
                        put_doc(out, codec, tagged(doc));
                        continue;
                    }
                };
                let (d, g, schedule) = (item.d, item.g, item.plan.schedule());
                slots += schedule.slot_count();
                topologies.insert((d, g));
                match codec {
                    Codec::Dense => frame::put_frame(out, |buf| {
                        frame::put_batch_item(buf, index, d, g, schedule, want)
                    }),
                    Codec::Line | Codec::JsonFrame => put_json(out, codec, |buf| {
                        let degraded = item.plan.degraded();
                        write_batch_item_response(
                            buf,
                            index,
                            (d, g),
                            schedule,
                            want,
                            degraded,
                            trace_id,
                        )
                    }),
                }
            }
            let total = batch.items.len();
            let routed = batch.items.iter().filter(|item| item.is_ok()).count();
            let topologies: Vec<(usize, usize)> = topologies.into_iter().collect();
            let summary = batch_summary_response(
                total,
                routed,
                total - routed,
                slots,
                batch.micros,
                &topologies,
            );
            put_doc(out, codec, tagged(summary));
        }
    }
}

/// Appends one JSON document in `codec`.
fn put_doc(out: &mut Vec<u8>, codec: Codec, doc: Json) {
    put_json(out, codec, |buf| doc.write_to(buf));
}

/// Appends the JSON text `write` produces in `codec`: a line, or a
/// `TAG_JSON` frame.
fn put_json(out: &mut Vec<u8>, codec: Codec, write: impl FnOnce(&mut Vec<u8>)) {
    match codec {
        Codec::Line => {
            write(out);
            out.push(b'\n');
        }
        Codec::JsonFrame | Codec::Dense => frame::put_frame(out, |buf| {
            buf.push(TAG_JSON);
            write(buf);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::service::ServiceConfig;
    use pops_bipartite::ColorerKind;
    use pops_network::Simulator;
    use pops_permutation::families::vector_reversal;

    fn spawn_server(
        topology: PopsTopology,
    ) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(RoutingService::with_config(
            topology,
            ServiceConfig {
                shards: 2,
                cache_capacity: 32,
                max_in_flight: 4,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let handle = std::thread::spawn(move || serve(listener, service).unwrap());
        (addr, handle)
    }

    #[test]
    fn end_to_end_route_verify_stats_shutdown() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();

        client.ping().unwrap();
        let info = client.info().unwrap();
        assert_eq!((info.d, info.g), (4, 4));

        let pi = vector_reversal(16);
        let first = client.route_permutation("theorem2", &pi).unwrap();
        assert_eq!(first.slots, 2);
        assert!(!first.cache_hit);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&first.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();

        let again = client.route_permutation("theorem2", &pi).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.schedule, first.schedule);

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        // The new gauges ride along in the stats response.
        assert!(stats.get("arena_bytes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(stats.get("cache_entries").unwrap().as_u64(), Some(1));

        client.shutdown().unwrap();
        let summary = handle.join().unwrap();
        assert!(summary.requests >= 5);
        assert!(summary.connections >= 1);
    }

    #[test]
    fn malformed_lines_get_error_responses_and_do_not_kill_the_server() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut client = ServiceClient::connect(addr).unwrap();
        for bad in [
            "this is not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"route","perm":[0,1]}"#,
        ] {
            let err = client.call_raw(bad).unwrap_err();
            assert!(err.to_string().contains("server error"), "{err}");
        }
        // Still alive and serving.
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn cache_op_persists_across_server_restarts() {
        let t = PopsTopology::new(4, 4);
        let dir = std::env::temp_dir().join(format!(
            "pops-server-cache-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let config = || ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let spawn = |config: ServerConfig| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let service = Arc::new(RoutingService::with_config(
                t,
                ServiceConfig {
                    shards: 1,
                    cache_capacity: 16,
                    max_in_flight: 2,
                    colorer: ColorerKind::AlternatingPath,
                    ..ServiceConfig::default()
                },
            ));
            let handle =
                std::thread::spawn(move || serve_with_config(listener, service, config).unwrap());
            (addr, handle)
        };

        // First server: route, save, shut down.
        let (addr, handle) = spawn(config());
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        assert!(!client.route_permutation("theorem2", &pi).unwrap().cache_hit);
        let saved = client.cache_op("save").unwrap();
        assert_eq!(saved.get("l1_entries").unwrap().as_u64(), Some(1));
        let stats = client.cache_op("stats").unwrap();
        assert_eq!(
            stats
                .get("cache")
                .unwrap()
                .get("l1")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        client.shutdown().unwrap();
        handle.join().unwrap();

        // Restarted server: load, and the very first repeat is a hit.
        let (addr, handle) = spawn(config());
        let mut client = ServiceClient::connect(addr).unwrap();
        let loaded = client.cache_op("load").unwrap();
        assert_eq!(loaded.get("l1_entries").unwrap().as_u64(), Some(1));
        let reply = client.route_permutation("theorem2", &pi).unwrap();
        assert!(reply.cache_hit, "warm restart must hit immediately");
        // The restored schedule still passes the client-side referee.
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&reply.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();

        // A server without --cache-dir refuses persistence, structurally.
        let (addr, handle) = spawn(ServerConfig::default());
        let mut client = ServiceClient::connect(addr).unwrap();
        let err = client.cache_op("save").unwrap_err();
        assert_eq!(err.remote_kind(), Some("bad-request"), "{err}");
        client.shutdown().unwrap();
        handle.join().unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_negotiation_routes_batches_and_counts_bytes() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();

        client.set_format(WireFormat::Binary).unwrap();
        assert_eq!(client.format(), WireFormat::Binary);
        // Re-negotiating the current format is a client-side no-op...
        client.set_format(WireFormat::Binary).unwrap();
        // ...but a second hello on the wire is a structural error.
        let err = client.call_raw(r#"{"op":"hello","format":"binary"}"#);
        assert_eq!(err.unwrap_err().remote_kind(), Some("bad-request"));

        // Control ops ride JSON-in-a-frame transparently.
        client.ping().unwrap();
        let info = client.info().unwrap();
        assert_eq!((info.d, info.g), (4, 4));

        // Dense binary route: referee the schedule, then hit the cache.
        let pi = vector_reversal(16);
        let first = client.route_permutation("theorem2", &pi).unwrap();
        assert_eq!(first.slots, 2);
        assert!(!first.cache_hit);
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&first.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        let again = client.route_permutation("theorem2", &pi).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.schedule, first.schedule);

        // Dense binary batch, schedules included, default + explicit shape.
        let items = vec![
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: None,
                faults: vec![],
            },
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: Some((4, 4)),
                faults: vec![],
            },
        ];
        let batch = client.batch(&items, true).unwrap();
        assert_eq!(batch.summary.routed, 2);
        for item in &batch.items {
            let item = item.as_ref().unwrap();
            assert_eq!(item.slots, 2);
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(&item.schedule).unwrap();
            sim.verify_delivery(pi.as_slice()).unwrap();
        }

        // The stats op reports this connection as binary and the wire
        // byte counters from completed exchanges are non-zero. (Bytes
        // are recorded per exchange, so everything before this stats
        // request is already counted.)
        let stats = client.stats().unwrap();
        let conns = stats.get("connections").unwrap();
        assert_eq!(conns.get("binary").unwrap().as_u64(), Some(1));
        let wire = stats.get("wire").unwrap();
        let binary = wire.get("binary").unwrap();
        assert!(binary.get("bytes_in").unwrap().as_u64().unwrap() > 0);
        assert!(binary.get("bytes_out").unwrap().as_u64().unwrap() > 0);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn binary_and_json_clients_interoperate_on_one_server() {
        let t = PopsTopology::new(2, 8);
        let (addr, handle) = spawn_server(t);
        let pi = vector_reversal(16);

        let mut json_client = ServiceClient::connect(addr).unwrap();
        let mut binary_client = ServiceClient::connect(addr).unwrap();
        binary_client.set_format(WireFormat::Binary).unwrap();

        // Identical requests produce identical schedules regardless of
        // the transport (the second is the first's cache hit).
        let via_json = json_client.route_permutation("theorem2", &pi).unwrap();
        let via_binary = binary_client.route_permutation("theorem2", &pi).unwrap();
        assert_eq!(via_json.schedule, via_binary.schedule);
        assert!(via_binary.cache_hit);

        let stats = json_client.stats().unwrap();
        let conns = stats.get("connections").unwrap();
        assert_eq!(conns.get("binary").unwrap().as_u64(), Some(1));
        assert_eq!(conns.get("json").unwrap().as_u64(), Some(1));

        json_client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn malformed_binary_frames_get_error_frames_and_do_not_kill_the_connection() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(stream, r#"{{"op":"hello","format":"binary"}}"#).unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.contains(r#""format":"binary""#), "{ack}");

        // An unknown tag is answered with a structured JSON error frame
        // and the connection survives.
        crate::frame::write_frame(&mut stream, &[0xff]).unwrap();
        let payload = crate::frame::read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(payload[0], TAG_JSON);
        let doc = Json::parse(std::str::from_utf8(&payload[1..]).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bad-request"));

        // Still serving: a ping in a JSON frame round-trips.
        let json_frame = |body: &[u8]| {
            let mut payload = vec![TAG_JSON];
            payload.extend_from_slice(body);
            payload
        };
        crate::frame::write_frame(&mut stream, &json_frame(br#"{"op":"ping"}"#)).unwrap();
        let payload = crate::frame::read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(payload[0], TAG_JSON);
        assert!(std::str::from_utf8(&payload[1..]).unwrap().contains("pong"));

        // A shutdown in a JSON frame stops the server.
        crate::frame::write_frame(&mut stream, &json_frame(br#"{"op":"shutdown"}"#)).unwrap();
        let _ = crate::frame::read_frame(&mut reader, 1 << 20).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_clients_share_the_cache() {
        let (addr, handle) = spawn_server(PopsTopology::new(4, 4));
        let pi = vector_reversal(16);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pi = pi.clone();
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    for _ in 0..5 {
                        let reply = client.route_permutation("theorem2", &pi).unwrap();
                        assert_eq!(reply.slots, 2);
                    }
                });
            }
        });
        let mut client = ServiceClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        // All 20 requests share one key. The service does not coalesce
        // in-flight duplicates, so each client's *first* request can race
        // into the miss window — between 1 and 4 misses, the rest hits.
        let misses = stats.get("misses").unwrap().as_u64().unwrap();
        let hits = stats.get("hits").unwrap().as_u64().unwrap();
        assert!((1..=4).contains(&misses), "misses {misses}");
        assert_eq!(hits + misses, 20);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    fn spawn_server_with(
        topology: PopsTopology,
        config: ServerConfig,
    ) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(RoutingService::with_config(
            topology,
            ServiceConfig {
                shards: 2,
                cache_capacity: 32,
                max_in_flight: 4,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let handle =
            std::thread::spawn(move || serve_with_config(listener, service, config).unwrap());
        (addr, handle)
    }

    /// One HTTP exchange against `addr`: request `path`, read to EOF.
    fn http_get(addr: SocketAddr, path: &str) -> String {
        use std::io::Read as _;
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: pops\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut page = String::new();
        stream.read_to_string(&mut page).unwrap();
        page
    }

    /// [`http_get`], but retrying the connect — for the sidecar listener,
    /// which binds on the serve thread after the test already holds the
    /// main address.
    fn http_get_retry(addr: SocketAddr, path: &str) -> String {
        for _ in 0..200 {
            if TcpStream::connect(addr).is_ok() {
                return http_get(addr, path);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("metrics sidecar on {addr} never came up");
    }

    #[test]
    fn overload_control_enforces_the_watermark_and_the_quota() {
        let peer = Some("10.0.0.1".parse().unwrap());

        // Watermark: one in-flight slot, released by the guard's drop.
        let control = OverloadControl::from_config(&ServerConfig {
            overload_watermark: Some(1),
            ..ServerConfig::default()
        });
        let guard = control.try_admit(peer).unwrap();
        let shed = control.try_admit(peer).err().expect("second admit sheds");
        assert!(!shed.quota);
        assert_eq!(shed.retry_after_ms, WATERMARK_RETRY_MS);
        drop(guard);
        assert!(control.try_admit(peer).is_ok(), "slot freed by drop");

        // Quota: a burst of two tokens, then a deficit-derived hint.
        let control = OverloadControl::from_config(&ServerConfig {
            quota_rps: Some(1),
            quota_burst: Some(2),
            ..ServerConfig::default()
        });
        assert!(control.try_admit(peer).is_ok());
        assert!(control.try_admit(peer).is_ok());
        let shed = control.try_admit(peer).err().expect("burst spent");
        assert!(shed.quota);
        assert!(shed.retry_after_ms >= 1, "{}", shed.retry_after_ms);
        // Another peer has its own bucket.
        let other = Some("10.0.0.2".parse().unwrap());
        assert!(control.try_admit(other).is_ok());

        // A peerless connection (no resolvable address) bypasses quota
        // but still honours the watermark.
        let control = OverloadControl::from_config(&ServerConfig {
            overload_watermark: Some(0),
            quota_rps: Some(1),
            ..ServerConfig::default()
        });
        let shed = control.try_admit(None).err().expect("watermark zero");
        assert!(!shed.quota);
    }

    #[test]
    fn quota_bucket_map_is_pruned_at_the_client_cap() {
        // A source-address spray must degrade quota precision, never
        // memory: crossing MAX_QUOTA_CLIENTS prunes refilled (idle)
        // buckets, and when no bucket is idle the map is cleared.
        let spray_ip = |i: usize| IpAddr::from([10, (i >> 16) as u8, (i >> 8) as u8, i as u8]);

        // rps = 1: no bucket can refill within the loop, so the prune
        // finds nothing idle and falls back to clearing the whole map.
        let control = OverloadControl::from_config(&ServerConfig {
            quota_rps: Some(1),
            quota_burst: Some(1),
            ..ServerConfig::default()
        });
        for i in 0..=MAX_QUOTA_CLIENTS {
            assert!(
                control.try_admit(Some(spray_ip(i))).is_ok(),
                "every distinct peer admits on its burst token"
            );
        }
        let len = control.buckets.lock().unwrap().len();
        assert_eq!(len, 0, "nothing idle: the cap clears the map");

        // A fast refill rate leaves earlier buckets idle by the time the
        // cap is crossed, so the prune keeps the map bounded without the
        // clear fallback.
        let control = OverloadControl::from_config(&ServerConfig {
            quota_rps: Some(1_000_000),
            quota_burst: Some(1),
            ..ServerConfig::default()
        });
        for i in 0..=MAX_QUOTA_CLIENTS {
            assert!(control.try_admit(Some(spray_ip(i))).is_ok());
        }
        let len = control.buckets.lock().unwrap().len();
        assert!(
            len <= MAX_QUOTA_CLIENTS,
            "the map stays bounded after the prune (kept {len})"
        );

        // Quota still functions for a fresh peer after prune/clear.
        assert!(control
            .try_admit(Some(IpAddr::from([192, 168, 0, 1])))
            .is_ok());
    }

    #[test]
    fn a_zero_watermark_sheds_routes_with_typed_errors_but_not_control_ops() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(4, 4),
            ServerConfig {
                overload_watermark: Some(0),
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        // Control ops are never shed: the server stays observable.
        client.ping().unwrap();
        let err = client
            .route_permutation("theorem2", &vector_reversal(16))
            .unwrap_err();
        assert_eq!(err.remote_kind(), Some("overloaded"), "{err}");
        assert_eq!(err.retry_after_ms(), Some(WATERMARK_RETRY_MS));
        // The connection survives a shed; the next call works.
        let stats = client.stats().unwrap();
        let sheds = stats.get("sheds").unwrap();
        assert_eq!(sheds.get("watermark").unwrap().as_u64(), Some(1));
        assert_eq!(sheds.get("quota").unwrap().as_u64(), Some(0));
        let wire_errors = stats.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("overloaded").unwrap().as_u64(), Some(1));
        // The shed reaches the exposition with its cause label.
        let page = http_get(addr, "/metrics");
        assert!(
            page.contains(r#"pops_sheds_total{cause="watermark"} 1"#),
            "{page}"
        );
        assert!(
            page.contains(r#"pops_wire_errors_total{error_kind="overloaded"} 1"#),
            "{page}"
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_quota_shed_carries_a_deficit_derived_retry_hint() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(4, 4),
            ServerConfig {
                quota_rps: Some(1),
                quota_burst: Some(1),
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        client.route_permutation("theorem2", &pi).unwrap();
        let err = client.route_permutation("theorem2", &pi).unwrap_err();
        assert_eq!(err.remote_kind(), Some("overloaded"), "{err}");
        assert!(err.retry_after_ms().unwrap() >= 1, "{err}");
        let stats = client.stats().unwrap();
        let quota_sheds = stats.get("sheds").unwrap().get("quota").unwrap();
        assert!(quota_sheds.as_u64().unwrap() >= 1);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn get_metrics_on_the_main_listener_returns_the_exposition() {
        let (addr, handle) = spawn_server(PopsTopology::new(4, 4));
        let mut client = ServiceClient::connect(addr).unwrap();
        client
            .route_permutation("theorem2", &vector_reversal(16))
            .unwrap();

        let page = http_get(addr, "/metrics");
        assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
        assert!(page.contains(exposition::CONTENT_TYPE), "{page}");
        assert!(
            page.contains("# TYPE pops_requests_total counter"),
            "{page}"
        );
        assert!(
            page.contains(r#"pops_requests_total{kind="theorem2"} 1"#),
            "{page}"
        );
        assert!(
            page.contains(r#"pops_topology_requests_total{topology="4x4"} 1"#),
            "{page}"
        );
        assert!(page.contains("pops_uptime_seconds"), "{page}");
        assert!(page.contains("pops_build_info{"), "{page}");

        // Unknown paths 404; the JSON protocol is undisturbed either way.
        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn the_metrics_sidecar_serves_the_exposition_and_stops_with_the_server() {
        // Reserve a free port, then hand it to the sidecar.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(2, 2),
            ServerConfig {
                metrics_port: Some(port),
                ..ServerConfig::default()
            },
        );
        let sidecar = SocketAddr::from(([127, 0, 0, 1], port));
        let page = http_get_retry(sidecar, "/metrics");
        assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
        assert!(page.contains("pops_build_info{"), "{page}");
        assert!(page.contains("pops_connections_active"), "{page}");

        // serve() joins the sidecar thread on shutdown — if it hangs,
        // this join hangs and the test harness times out.
        let mut client = ServiceClient::connect(addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_zero_slow_threshold_traces_every_request_and_rate_limits_the_log() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(2, 2),
            ServerConfig {
                slow_threshold: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        // Every JSON response echoes its trace id.
        let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
        let trace = doc.get("trace").and_then(Json::as_str).unwrap();
        assert!(trace.starts_with('c') && trace.contains("-r"), "{trace}");
        for _ in 0..5 {
            client.ping().unwrap();
        }
        // Six exchanges observed so far (the stats request below is only
        // observed after its response is written): the limiter lets one
        // through per interval and suppresses the rest of the storm.
        let stats = client.stats().unwrap();
        let slow = stats.get("slow_traces").unwrap();
        let emitted = slow.get("emitted").unwrap().as_u64().unwrap();
        let suppressed = slow.get("suppressed").unwrap().as_u64().unwrap();
        assert!(emitted >= 1, "emitted={emitted}");
        assert!(suppressed >= 1, "suppressed={suppressed}");
        assert_eq!(emitted + suppressed, 6);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn trace_ids_are_echoed_even_without_a_slow_log() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut client = ServiceClient::connect(addr).unwrap();
        let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
        assert!(doc.get("trace").and_then(Json::as_str).is_some());
        // Request sequence numbers advance per connection.
        let first = doc.get("trace").unwrap().as_str().unwrap().to_string();
        let doc = client.call_raw(r#"{"op":"ping"}"#).unwrap();
        let second = doc.get("trace").unwrap().as_str().unwrap();
        assert_ne!(first, second);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn fatal_oversized_lines_charge_consumed_bytes_and_the_error_response() {
        let (addr, handle) = spawn_server_with(
            PopsTopology::new(2, 2),
            ServerConfig {
                max_line_bytes: 256,
                ..ServerConfig::default()
            },
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(&vec![b'x'; 1024]).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("too-large"), "{reply}");
        let error_len = reply.len() as u64;
        // Fatal framing errors close the connection.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);

        // A fresh connection's stats see the aborted exchange's bytes:
        // at least the refused prefix on the way in, and exactly the
        // error response on the way out.
        let mut client = ServiceClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        let json = stats.get("wire").unwrap().get("json").unwrap();
        let bytes_in = json.get("bytes_in").unwrap().as_u64().unwrap();
        assert!(bytes_in >= 256, "bytes_in={bytes_in}");
        assert_eq!(json.get("bytes_out").unwrap().as_u64(), Some(error_len));
        let wire_errors = stats.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("too-large").unwrap().as_u64(), Some(1));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn baseline_faults_degrade_served_plans_and_key_them_apart() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server_with(
            t,
            ServerConfig {
                baseline_faults: vec![((4, 4), vec![1])],
                ..ServerConfig::default()
            },
        );
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        // A plain theorem2 request degrades under the declared baseline,
        // and its schedule verifies on the degraded fabric.
        let reply = client.route_permutation("theorem2", &pi).unwrap();
        assert!(reply.degraded, "baseline fault must degrade theorem2");
        assert!(!reply.cache_hit);
        let mut faults = FaultSet::none(&t);
        faults.fail_coupler(1);
        let mut sim = Simulator::with_unit_packets_and_faults(t, faults);
        sim.execute_schedule(&reply.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        // Request faults compose with the baseline as a set union: the
        // same effective set is the same cache key, a wider one is not.
        let same = client
            .route_permutation_with_faults("theorem2", &pi, None, &[1])
            .unwrap();
        assert!(same.cache_hit, "identical effective fault set must hit");
        assert!(same.degraded);
        let wider = client
            .route_permutation_with_faults("theorem2", &pi, None, &[2])
            .unwrap();
        assert!(!wider.cache_hit, "a wider fault set is a distinct key");
        assert!(wider.degraded);
        let stats = client.stats().unwrap();
        let degraded = stats.get("degraded").unwrap();
        assert_eq!(degraded.get("plans").unwrap().as_u64(), Some(2));
        assert_eq!(degraded.get("hits").unwrap().as_u64(), Some(1));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn an_unroutable_fault_set_is_refused_with_the_typed_wire_error() {
        let t = PopsTopology::new(2, 3);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();
        // Kill every coupler into group 1 — c(1, src) = 1·g + src — so no
        // packet can reach that group and the fabric is not fully
        // routable.
        let faults: Vec<usize> = (0..3).map(|src| 3 + src).collect();
        let pi = vector_reversal(6);
        let err = client
            .route_permutation_with_faults("theorem2", &pi, None, &faults)
            .unwrap_err();
        assert_eq!(err.remote_kind(), Some("unroutable"), "{err}");
        // The refusal reaches the stats document and the exposition.
        let stats = client.stats().unwrap();
        let wire_errors = stats.get("wire_errors").unwrap();
        assert_eq!(wire_errors.get("unroutable").unwrap().as_u64(), Some(1));
        let degraded = stats.get("degraded").unwrap();
        assert_eq!(
            degraded.get("unroutable_refusals").unwrap().as_u64(),
            Some(1)
        );
        let page = http_get(addr, "/metrics");
        assert!(page.contains("pops_unroutable_refusals_total 1"), "{page}");
        assert!(
            page.contains(r#"pops_wire_errors_total{error_kind="unroutable"} 1"#),
            "{page}"
        );
        // The connection and the server survive; healthy traffic routes.
        let healthy = client.route_permutation("theorem2", &pi).unwrap();
        assert!(!healthy.degraded);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn batch_items_carry_their_own_fault_sets() {
        let t = PopsTopology::new(4, 4);
        let (addr, handle) = spawn_server(t);
        let mut client = ServiceClient::connect(addr).unwrap();
        let pi = vector_reversal(16);
        let items = vec![
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: None,
                faults: vec![],
            },
            crate::client::BatchItem {
                pi: pi.clone(),
                shape: None,
                faults: vec![5],
            },
        ];
        let batch = client.batch(&items, true).unwrap();
        assert_eq!(batch.summary.routed, 2);
        let healthy = batch.items[0].as_ref().unwrap();
        assert!(!healthy.degraded);
        let degraded = batch.items[1].as_ref().unwrap();
        assert!(degraded.degraded, "faulted item must be flagged");
        // The degraded item's schedule verifies under its declared
        // fault set; the healthy one on the pristine fabric.
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&healthy.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        let mut faults = FaultSet::none(&t);
        faults.fail_coupler(5);
        let mut sim = Simulator::with_unit_packets_and_faults(t, faults);
        sim.execute_schedule(&degraded.schedule).unwrap();
        sim.verify_delivery(pi.as_slice()).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn an_out_of_range_baseline_fault_refuses_to_serve() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(2, 2),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let err = serve_with_config(
            listener,
            service,
            ServerConfig {
                baseline_faults: vec![((2, 2), vec![99])],
                ..ServerConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// A serve loop's state without a listener, for driving
    /// [`serve_message`] in process.
    fn in_process_state(config: ServerConfig) -> ServeState {
        let router = Arc::new(TopologyRouter::new(
            PopsTopology::new(4, 4),
            TopologyRouterConfig {
                service: ServiceConfig {
                    shards: 1,
                    cache_capacity: 32,
                    max_in_flight: 2,
                    colorer: ColorerKind::AlternatingPath,
                    ..ServiceConfig::default()
                },
                ..TopologyRouterConfig::default()
            },
        ));
        ServeState::new(router, config, SocketAddr::from(([127, 0, 0, 1], 0))).unwrap()
    }

    /// Serves one message in `format` on a fresh connection; returns the
    /// names of the trace's stages.
    fn stage_names(state: &ServeState, format: WireFormat, message: &[u8]) -> Vec<&'static str> {
        let mut conn = Conn::new(0, None);
        conn.format = format;
        let mut sink = Vec::new();
        let (trace, stop) = serve_message(state, &mut conn, message, &mut sink).unwrap();
        assert!(!stop && !sink.is_empty());
        trace.stages().iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn every_format_marks_the_same_trace_stages() {
        let state = in_process_state(ServerConfig::default());
        let pi = vector_reversal(16);
        let image: Vec<String> = pi.as_slice().iter().map(usize::to_string).collect();
        let route = format!(r#"{{"op":"route","perm":[{}]}}"#, image.join(","));
        let batch = format!(
            r#"{{"op":"batch","items":[{{"perm":[{}]}}]}}"#,
            image.join(",")
        );
        let route_frame = frame::encode_route_request(RequestKind::Theorem2, true, None, &pi);
        let batch_frame = frame::encode_batch_request(false, [(None, pi.clone())]);
        let routed = ["parse", "admission", "plan", "encode", "write"];
        let hit = ["parse", "admission", "cache", "encode", "write"];
        // The first route misses; the binary repeat hits the same entry.
        assert_eq!(
            stage_names(&state, WireFormat::Json, route.as_bytes()),
            routed
        );
        assert_eq!(stage_names(&state, WireFormat::Binary, &route_frame), hit);
        assert_eq!(
            stage_names(&state, WireFormat::Json, batch.as_bytes()),
            routed
        );
        assert_eq!(
            stage_names(&state, WireFormat::Binary, &batch_frame),
            routed
        );
        // A request refused at decode is parsed, encoded and written.
        let refused = ["parse", "encode", "write"];
        assert_eq!(stage_names(&state, WireFormat::Json, b"nope"), refused);
        assert_eq!(stage_names(&state, WireFormat::Binary, &[0xff]), refused);
    }

    #[test]
    fn shed_routes_and_shed_batches_are_recorded_alike() {
        let path = std::env::temp_dir().join(format!(
            "pops-server-record-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let image: Vec<String> = (0..16).rev().map(|v: usize| v.to_string()).collect();
        let route = format!(r#"{{"op":"route","perm":[{}]}}"#, image.join(","));
        let batch = format!(
            r#"{{"op":"batch","items":[{{"perm":[{}]}}]}}"#,
            image.join(",")
        );
        let serve = |state: &ServeState, line: &str| {
            let mut conn = Conn::new(0, None);
            serve_message(state, &mut conn, line.as_bytes(), &mut Vec::new()).unwrap();
        };
        let recorded_ops = || -> Vec<&'static str> {
            let trace = record::read_trace(&path).unwrap();
            trace
                .iter()
                .map(|entry| match entry.op {
                    record::RecordedOp::Route { .. } => "route",
                    record::RecordedOp::Batch { .. } => "batch",
                    record::RecordedOp::Cache { .. } => "cache",
                })
                .collect()
        };
        let config = |watermark| ServerConfig {
            overload_watermark: watermark,
            record_path: Some(path.clone()),
            ..ServerConfig::default()
        };
        // Shed at a zero watermark: neither work request is recorded,
        // while a never-shed cache op is.
        let state = in_process_state(config(Some(0)));
        for line in [&route, &batch, r#"{"op":"cache"}"#] {
            serve(&state, line);
        }
        assert_eq!(recorded_ops(), ["cache"]);
        // Admitted, both are recorded (the file is appended to).
        let state = in_process_state(config(None));
        for line in [&route, &batch] {
            serve(&state, line);
        }
        assert_eq!(recorded_ops(), ["cache", "route", "batch"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_hello_exchange_is_charged_to_the_json_byte_counters() {
        let (addr, handle) = spawn_server(PopsTopology::new(2, 2));
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = r#"{"op":"hello","format":"binary"}"#;
        writeln!(stream, "{request}").unwrap();
        stream.flush().unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.contains(r#""format":"binary""#), "{ack}");

        // The negotiation itself happened in JSON, and is accounted as
        // such; no binary bytes have moved yet.
        let mut client = ServiceClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        let wire = stats.get("wire").unwrap();
        let json = wire.get("json").unwrap();
        assert_eq!(
            json.get("bytes_in").unwrap().as_u64(),
            Some(request.len() as u64 + 1)
        );
        assert_eq!(
            json.get("bytes_out").unwrap().as_u64(),
            Some(ack.len() as u64)
        );
        let binary = wire.get("binary").unwrap();
        assert_eq!(binary.get("bytes_in").unwrap().as_u64(), Some(0));
        assert_eq!(binary.get("bytes_out").unwrap().as_u64(), Some(0));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// The reference bytes of one reply document in `codec`: the tree
    /// form, tagged and rendered with `Display`.
    fn rendered(codec: Codec, doc: Json, trace_id: &str) -> Vec<u8> {
        let text = attach_trace(doc, trace_id).to_string();
        match codec {
            Codec::Line => format!("{text}\n").into_bytes(),
            Codec::JsonFrame | Codec::Dense => {
                let mut payload = vec![TAG_JSON];
                payload.extend_from_slice(text.as_bytes());
                let mut out = Vec::new();
                frame::write_frame(&mut out, &payload).unwrap();
                out
            }
        }
    }

    /// Trace ids that exercise every escape the string writer knows.
    const TRACE_IDS: [&str; 5] = [
        "c1-r1",
        "q\"uote",
        "back\\slash",
        "ctl\u{1}\n\t\r\u{1f}\u{7f}",
        "snow\u{2603}",
    ];

    /// A Theorem-2 plan, plus a schedule mixing unicast, multicast and
    /// blind transmissions with ids beyond 2^53.
    fn parity_outcomes() -> (RoutingPlan, Vec<Arc<pops_core::RoutingOutcome>>) {
        use pops_network::{SlotFrame, Transmission};
        let plan = pops_core::engine::RoutingEngine::new(PopsTopology::new(4, 4))
            .plan_theorem2(&vector_reversal(16));
        let mut mixed = plan.schedule.clone();
        mixed.slots.push(SlotFrame {
            transmissions: vec![
                Transmission {
                    sender: 1,
                    coupler: 2,
                    packet: 3,
                    receivers: vec![4, 5, 6].into(),
                },
                Transmission {
                    sender: 7,
                    coupler: 0,
                    packet: 8,
                    receivers: Vec::new().into(),
                },
                Transmission::unicast(usize::MAX, 1 << 53, (1 << 53) + 1, 9),
            ],
        });
        let outcomes = vec![
            Arc::new(pops_core::RoutingOutcome::Plan(plan.clone())),
            Arc::new(pops_core::RoutingOutcome::Schedule(mixed)),
            Arc::new(pops_core::RoutingOutcome::Schedule(Schedule::new())),
        ];
        (plan, outcomes)
    }

    #[test]
    fn streamed_route_replies_match_the_tree_rendering() {
        let (_, outcomes) = parity_outcomes();
        let mut cases = 0;
        for codec in [Codec::Line, Codec::JsonFrame] {
            for kind in RequestKind::ALL {
                for outcome in &outcomes {
                    for (cache_hit, degraded, want_schedule) in
                        (0..8).map(|bits| (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0))
                    {
                        for (phase_hits, micros) in [(0, 0), (3, 1234), (7, u64::MAX)] {
                            for trace_id in TRACE_IDS {
                                let reply = ServiceReply {
                                    outcome: outcome.clone(),
                                    cache_hit,
                                    phase_hits,
                                    degraded,
                                    micros,
                                };
                                let doc = crate::proto::route_response(kind, &reply, want_schedule);
                                let expected = rendered(codec, doc, trace_id);
                                let route = Reply::Route {
                                    kind,
                                    reply,
                                    want_schedule,
                                };
                                let mut out = Vec::new();
                                encode(&mut out, codec, Ok(route), trace_id);
                                assert_eq!(
                                    String::from_utf8_lossy(&out),
                                    String::from_utf8_lossy(&expected),
                                    "{codec:?} {kind:?} hit={cache_hit} degraded={degraded}"
                                );
                                assert_eq!(out, expected);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 6 * 3 * 8 * 3 * 5);
    }

    #[test]
    fn streamed_batch_items_match_the_tree_rendering() {
        let (plan, outcomes) = parity_outcomes();
        let degraded_reply = |degraded| ServiceReply {
            outcome: outcomes[1].clone(),
            cache_hit: false,
            phase_hits: 0,
            degraded,
            micros: 5,
        };
        for codec in [Codec::Line, Codec::JsonFrame] {
            for want_schedule in [false, true] {
                for trace_id in TRACE_IDS {
                    let batch = BatchReply {
                        items: vec![
                            Ok(BatchItem {
                                d: 4,
                                g: 4,
                                plan: ItemPlan::Healthy(plan.clone()),
                            }),
                            Err(WireError::new(WireErrorKind::BadRequest, "bad \"perm\"\n")),
                            Ok(BatchItem {
                                d: 2,
                                g: 8,
                                plan: ItemPlan::Degraded(degraded_reply(true)),
                            }),
                            Ok(BatchItem {
                                d: 4,
                                g: 4,
                                plan: ItemPlan::Degraded(degraded_reply(false)),
                            }),
                        ],
                        want_schedule,
                        micros: 77,
                    };
                    let mut expected = Vec::new();
                    let mut slots = 0;
                    for (index, item) in batch.items.iter().enumerate() {
                        let doc = match item {
                            Ok(item) => {
                                let schedule = item.plan.schedule();
                                slots += schedule.slot_count();
                                crate::proto::batch_item_response(
                                    index,
                                    item.d,
                                    item.g,
                                    schedule,
                                    want_schedule,
                                    item.plan.degraded(),
                                )
                            }
                            Err(e) => batch_item_error(index, e.kind, e.msg.as_str()),
                        };
                        expected.extend(rendered(codec, doc, trace_id));
                    }
                    let summary = batch_summary_response(4, 3, 1, slots, 77, &[(2, 8), (4, 4)]);
                    expected.extend(rendered(codec, summary, trace_id));
                    let mut out = Vec::new();
                    encode(&mut out, codec, Ok(Reply::Batch(batch)), trace_id);
                    assert_eq!(
                        String::from_utf8_lossy(&out),
                        String::from_utf8_lossy(&expected),
                        "{codec:?} want_schedule={want_schedule}"
                    );
                    assert_eq!(out, expected);
                }
            }
        }
    }
}
