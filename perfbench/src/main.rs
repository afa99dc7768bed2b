//! The serving benchmark.
//!
//! Drives a `pops serve` child process from two closed-loop connections,
//! checks every reply, and prints the end-to-end metrics; with
//! `--trace 1` it also runs a traced window and the in-process layer
//! replay, and prints the per-layer metrics with a reconciliation table.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --pops PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--corrupt]
//! ```
//!
//! `--corrupt` rewrites one sender in every reply of the measured windows
//! (the negative self-test): the run must then fail its checks and exit
//! non-zero.

mod affinity;
mod check;
mod load;
mod server;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pops_service::{Json, ServiceConfig};

use check::Store;
use load::{closed_loop, exchange, LoopResult};
use server::Server;
use stats::{median, quantile, us, Sample};
use trace::{write_spans, Tracer};
use wire::Conn;
use workload::{Universe, Workload};

/// Closed-loop connections: one per core of the two-core benchmark host
/// (never more loops than cores, so the figures measure the daemon, not
/// the scheduler).
const CONNS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Measured windows per server. The end-to-end figures are taken over
/// all windows of the run (medians; the lower quartile for p99), each
/// window's percentiles exact over its own samples: a short host stall
/// spoils a window, not the run.
const WINDOWS_PER_SETUP: usize = 4;
/// With `--trace 1`: each server's traced window is this fraction of its
/// untraced share, and the in-process replay runs at most this long.
const TRACED_SHARE: u32 = 4;
const REPLAY_SECONDS: u64 = 10;
/// Where `--trace 1` writes its spans, relative to the checkout root.
const SPANS_DIR: &str = "perfbench/out";

struct Args {
    pops: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut pops = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--pops" => pops = Some(PathBuf::from(&value)),
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        pops: pops.ok_or("--pops is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        corrupt,
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The result object's metrics, in print order: name, value, unit.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::new();
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!("{{{out}}}")
    }
}

/// Counter at `path` in a `stats` document (0 when absent).
fn counter(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Spawns the server and warms it; returns the live server, its
/// connections, and the set-up time without the client's checks.
fn set_up(
    args: &Args,
    u: &Universe,
    store: &Store,
    warm: &mut LoopResult,
) -> Result<(Server, Vec<Conn>, f64), String> {
    let binary = u.workload.binary();
    let start = Instant::now();
    let server = Server::spawn(&args.pops, u.shapes[0].topology)?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(server.addr, binary))
        .collect::<Result<Vec<_>, _>>()?;
    let mut checking = Duration::ZERO;
    for op in u.warmup(ServiceConfig::default().cache_capacity) {
        checking += exchange(u, store, &mut conns[0], &op, false, warm, None)?;
    }
    let setup = (start.elapsed() - checking).as_secs_f64();
    Ok((server, conns, setup))
}

/// One measured window's exact figures.
struct Window {
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    beyond_p99: usize,
}

impl Window {
    fn of(r: &LoopResult) -> Result<Self, String> {
        let lat = Sample::new(r.latencies.clone());
        let (p50, _) = lat.percentile(0.5).ok_or("a window completed no request")?;
        let (p99, beyond_p99) = lat
            .percentile(0.99)
            .ok_or("a window completed no request")?;
        Ok(Self {
            rps: r.attempted as f64 / r.elapsed.as_secs_f64(),
            p50_us: us(p50),
            p99_us: us(p99),
            samples: lat.len(),
            beyond_p99,
        })
    }
}

/// `latency_p99_us`: the lower quartile over the windows of each
/// window's exact p99. A stall of the shared host lifts the p99 of every
/// window it overlaps, and such stalls can outlast half a run; the
/// quietest quarter of the windows still shows the daemon's own tail.
fn quiet_p99(windows: &[Window]) -> f64 {
    quantile(
        &mut windows.iter().map(|w| w.p99_us).collect::<Vec<_>>(),
        0.25,
    )
}

/// Server-side counters summed over the measured windows.
#[derive(Default)]
struct ServerCounters {
    l2_hits: u64,
    l2_lookups: u64,
    admission_waits: u64,
}

impl ServerCounters {
    fn add(&mut self, before: &Json, after: &Json) {
        let delta = |path: &[&str]| counter(after, path).saturating_sub(counter(before, path));
        let hits = delta(&["cache", "l2", "hits"]);
        self.l2_hits += hits;
        self.l2_lookups += hits + delta(&["cache", "l2", "misses"]);
        self.admission_waits += delta(&["admission_waits"]);
    }
}

/// Every set-up gets its own server, and every server serves one
/// `1/SETUPS` share of the measured time, so one process's luck (thread
/// placement, memory layout) is one sample among several. The report
/// line also gives the percentiles pooled over every measured sample.
fn run(args: &Args) -> Result<bool, String> {
    let u = Universe::new(args.workload, args.seed);
    let store = Store::new(&u);
    let share = Duration::from_secs(args.seconds) / SETUPS as u32;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNS as u64).map(|c| Tracer::new(epoch, c)).collect();
    let mut warm = LoopResult::default();
    let mut measured = LoopResult::default();
    let mut traced = LoopResult::default();
    let mut counters = ServerCounters::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rss_mb = Vec::with_capacity(SETUPS);
    let mut windows = Vec::new();
    for _ in 0..SETUPS {
        let (server, mut conns, setup) = set_up(args, &u, &store, &mut warm)?;
        setups.push(setup);
        let mut streams: Vec<_> = (0..CONNS as u64).map(|c| u.stream(c)).collect();
        for _ in 0..WINDOWS_PER_SETUP {
            let before = server.stats()?;
            let (window, _) = closed_loop(
                &u,
                &store,
                &mut conns,
                &mut streams,
                share / WINDOWS_PER_SETUP as u32,
                args.corrupt,
                None,
            )?;
            counters.add(&before, &server.stats()?);
            windows.push(Window::of(&window)?);
            measured.absorb(window);
        }
        if args.trace {
            let mut streams: Vec<_> = (0..CONNS as u64).map(|c| u.stream(c)).collect();
            let (window, back) = closed_loop(
                &u,
                &store,
                &mut conns,
                &mut streams,
                share / TRACED_SHARE,
                args.corrupt,
                Some(tracers),
            )?;
            traced.absorb(window);
            tracers = back.unwrap_or_default();
        }
        rss_mb.push(server.peak_rss_mb()?);
        drop(conns);
        server.shutdown()?;
    }

    let latency = Sample::new(measured.latencies.clone());
    let (p50, _) = latency.percentile(0.5).ok_or("no request completed")?;
    let (p99, beyond99) = latency.percentile(0.99).ok_or("no request completed")?;
    let secs = measured.elapsed.as_secs_f64();
    let failures = warm.check_failures + measured.check_failures;
    let mut report = format!(
        "{} seed {}: {} requests in {secs:.3} s over {CONNS} closed loops; \
         latency p50 {:.1} us, p99 {:.1} us ({} samples, {beyond99} beyond p99); \
         set-ups {:?} s; {} of {} loop threads pinned to a CPU of their own; \
         checks: {} simulated, {} compared, {} unchecked, {failures} failed",
        u.workload.name(),
        u.seed,
        measured.attempted,
        us(p50),
        us(p99),
        latency.len(),
        setups,
        windows.len() * CONNS - measured.unpinned as usize,
        windows.len() * CONNS,
        warm.simulated + measured.simulated,
        warm.compared + measured.compared,
        warm.unchecked + measured.unchecked,
    );
    let mut p99s: Vec<f64> = windows.iter().map(|w| w.p99_us).collect();
    let _ = write!(
        report,
        "\nwindow p99: lower quartile {:.1} us, median {:.1} us",
        quiet_p99(&windows),
        median(&mut p99s)
    );
    for (i, w) in windows.iter().enumerate() {
        let _ = write!(
            report,
            "\nwindow {i}: {:.1} rps, p50 {:.1} us, p99 {:.1} us ({} samples, {} beyond p99)",
            w.rps, w.p50_us, w.p99_us, w.samples, w.beyond_p99
        );
    }
    let mut correct = failures == 0;
    let failed = measured.failed + measured.shed;

    let mut m = Metrics(Vec::new());
    if args.trace {
        correct &= traced.check_failures == 0;
        let replay = trace::replay(
            &u,
            ServiceConfig::default().cache_capacity,
            Duration::from_secs(args.seconds.min(REPLAY_SECONDS)),
            epoch,
        )?;
        let traced_p50 = Sample::new(traced.latencies.clone())
            .percentile(0.5)
            .map_or(0.0, |(v, _)| us(v));
        let mut all: Vec<&Tracer> = tracers.iter().collect();
        all.push(&replay.tracer);
        let path =
            Path::new(SPANS_DIR).join(format!("spans-{}-seed{}.tsv", u.workload.name(), u.seed));
        write_spans(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = write!(report, "\nspans written to {}", path.display());
        report.push_str(&layers(
            &mut m,
            &u,
            &replay,
            &measured,
            &counters,
            us(p50),
            traced_p50,
            beyond99,
            latency.len(),
        ));
        first_failure(&mut report, &traced);
    } else {
        let of = |f: fn(&Window) -> f64| median(&mut windows.iter().map(f).collect::<Vec<_>>());
        m.put("throughput_rps", of(|w| w.rps), "1/s");
        m.put("latency_p50_us", of(|w| w.p50_us), "us");
        m.put("latency_p99_us", quiet_p99(&windows), "us");
        m.put("setup_s", median(&mut setups.clone()), "s");
        m.put("server_peak_rss_mb", median(&mut rss_mb), "MB");
    }
    first_failure(&mut report, &warm);
    first_failure(&mut report, &measured);
    println!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        measured.attempted,
        m.json()
    );
    Ok(correct)
}

fn first_failure(report: &mut String, r: &LoopResult) {
    if let Some(e) = &r.first_failure {
        let _ = write!(report, "\nCHECK FAILED ({} replies): {e}", r.check_failures);
    }
}

/// Layers on each workload's request path, in the server's order.
fn on_path(w: Workload) -> [&'static str; 5] {
    let (decode, encode) = if w.binary() {
        ("frame.decode", "frame.encode")
    } else {
        ("json.decode", "json.encode")
    };
    [
        decode,
        "router.lookup",
        "service.route",
        encode,
        "client.decode",
    ]
}

/// Every timed layer, reported on every workload.
const LAYERS: [&str; 15] = [
    "frame.decode",
    "frame.encode",
    "json.decode",
    "json.encode",
    "router.lookup",
    "cache.key",
    "service.route",
    "service.hit",
    "service.miss",
    "engine.fair_distribution",
    "engine.plan",
    "engine.fault_plan",
    "engine.h_decompose",
    "simulator.check",
    "client.decode",
];

/// Fills the per-layer metrics and returns the reconciliation table.
#[allow(clippy::too_many_arguments)]
fn layers(
    m: &mut Metrics,
    u: &Universe,
    replay: &trace::Replay,
    measured: &LoopResult,
    counters: &ServerCounters,
    e2e_p50: f64,
    traced_p50: f64,
    beyond99: usize,
    samples: usize,
) -> String {
    let durations = replay.tracer.durations();
    let sample = |name: &str| Sample::new(durations.get(name).cloned().unwrap_or_default());
    for name in LAYERS {
        if name == "engine.fault_plan" {
            let assembly = Sample::new(replay.assembly_ns.clone());
            m.put("engine.assembly_us", assembly.median_us(), "us");
        }
        m.put(&format!("{name}_us"), sample(name).median_us(), "us");
    }
    let mut server_us: Vec<f64> = measured.server_micros.iter().map(|&v| v as f64).collect();
    m.put("server.service_us", median(&mut server_us), "us");

    let mut table = format!(
        "\nreconciliation ({}, seed {}, {} in-process requests)\n{:<16}{:>12}{:>10}",
        u.workload.name(),
        u.seed,
        replay.requests,
        "layer",
        "median_us",
        "spans"
    );
    let mut sum = 0.0;
    for name in on_path(u.workload) {
        let s = sample(name);
        sum += s.median_us();
        let _ = write!(table, "\n{name:<16}{:>12.3}{:>10}", s.median_us(), s.len());
    }
    let residual = e2e_p50 - sum;
    let overhead = traced_p50 - e2e_p50;
    let _ = write!(
        table,
        "\n{:<16}{sum:>12.3}\n{:<16}{e2e_p50:>12.3}\n{:<16}{residual:>12.3}\n{:<16}{traced_p50:>12.3}\n{:<16}{overhead:>12.3}",
        "sum",
        "e2e p50",
        "residual_us",
        "traced p50",
        "trace overhead",
    );
    m.put("layers.sum_us", sum, "us");
    m.put("e2e.p50_us", e2e_p50, "us");
    m.put("traced.p50_us", traced_p50, "us");
    m.put("residual_us", residual, "us");
    m.put("tracing.overhead_us", overhead, "us");

    let (l2_hits, l2_lookups) = (counters.l2_hits, counters.l2_lookups);
    m.put(
        "cache.l1_hit_ratio",
        ratio(measured.l1_hits, measured.ok),
        "ratio",
    );
    m.put("cache.l1_lookups", measured.ok as f64, "count");
    m.put(
        "cache.l2_phase_hit_ratio",
        ratio(l2_hits, l2_lookups),
        "ratio",
    );
    m.put("cache.l2_phase_lookups", l2_lookups as f64, "count");
    m.put("admission.waits", counters.admission_waits as f64, "count");
    let failed = measured.failed + measured.shed;
    m.put("requests.attempted", measured.attempted as f64, "count");
    m.put("requests.ok", measured.ok as f64, "count");
    m.put("requests.failed", measured.failed as f64, "count");
    m.put("requests.shed", measured.shed as f64, "count");
    m.put(
        "requests.error_rate",
        ratio(failed, measured.attempted),
        "ratio",
    );
    m.put("replies.checked", measured.checked() as f64, "count");
    m.put("replies.simulated", measured.simulated as f64, "count");
    m.put("replies.unchecked", measured.unchecked as f64, "count");
    m.put("latency.samples", samples as f64, "count");
    m.put("latency.p99_beyond", beyond99 as f64, "count");
    table
}
