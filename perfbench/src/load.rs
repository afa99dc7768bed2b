//! The closed-loop load generator: one connection per loop, each sending
//! its next request only after the previous reply is decoded and checked,
//! and each loop on a CPU of its own where the host allows it.

use std::time::{Duration, Instant};

use crate::affinity::{allowed_cpus, pin_current_thread};
use crate::check::{check, Store, Verdict};
use crate::trace::Tracer;
use crate::wire::{corrupt, decode_reply, encode_request, Conn};
use crate::workload::{Op, Stream, Universe};

/// Everything one closed-loop window observed.
#[derive(Default)]
pub struct LoopResult {
    /// Client-observed latency of every completed request: request write
    /// to reply decoded, in nanoseconds.
    pub latencies: Vec<u64>,
    /// The server-reported service time of every routed reply.
    pub server_micros: Vec<u64>,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
    pub l1_hits: u64,
    pub simulated: u64,
    pub compared: u64,
    pub unchecked: u64,
    pub check_failures: u64,
    pub first_failure: Option<String>,
    /// Loop threads that could not be pinned to a CPU of their own.
    pub unpinned: u64,
    /// From the window's start to its last completion, summed over
    /// windows.
    pub elapsed: Duration,
}

impl LoopResult {
    pub fn absorb(&mut self, other: LoopResult) {
        self.latencies.extend(other.latencies);
        self.server_micros.extend(other.server_micros);
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
        self.l1_hits += other.l1_hits;
        self.simulated += other.simulated;
        self.compared += other.compared;
        self.unchecked += other.unchecked;
        self.check_failures += other.check_failures;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.unpinned += other.unpinned;
        self.elapsed += other.elapsed;
    }

    pub fn checked(&self) -> u64 {
        self.simulated + self.compared
    }

    fn fail(&mut self, message: String) {
        self.check_failures += 1;
        self.first_failure.get_or_insert(message);
    }
}

/// Sends one request and checks its reply. Returns the time spent
/// checking, which is outside the request's latency.
pub fn exchange(
    u: &Universe,
    store: &Store,
    conn: &mut Conn,
    op: &Op,
    corrupting: bool,
    out: &mut LoopResult,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<Duration, String> {
    let binary = u.workload.binary();
    let t_encode = Instant::now();
    let request = encode_request(u, op, binary);
    let t_write = Instant::now();
    conn.send(&request)?;
    let mut raw = conn.recv()?;
    if corrupting {
        corrupt(&mut raw, binary, u.topology(op).n());
    }
    let t_decode = Instant::now();
    let decoded = decode_reply(&raw, binary);
    let t_done = Instant::now();
    out.attempted += 1;
    out.latencies.push((t_done - t_write).as_nanos() as u64);
    match decoded {
        Err(e) => out.fail(format!("{op:?}: unreadable reply: {e}")),
        Ok(Err(kind)) if kind == "overloaded" => out.shed += 1,
        Ok(Err(_)) => out.failed += 1,
        Ok(Ok(reply)) => {
            out.ok += 1;
            out.l1_hits += u64::from(reply.cache_hit);
            out.server_micros.push(reply.micros);
            match check(u, store, op, &reply, &raw) {
                Ok(Verdict::Simulated) => out.simulated += 1,
                Ok(Verdict::Compared) => out.compared += 1,
                Ok(Verdict::Unchecked) => out.unchecked += 1,
                Err(e) => out.fail(e),
            }
        }
    }
    let t_checked = Instant::now();
    if let Some((tracer, request)) = tracer {
        let cycle = tracer.span("tcp.cycle", 0, request, t_encode, t_checked);
        tracer.span("tcp.encode", cycle, request, t_encode, t_write);
        let rtt = tracer.span("tcp.request", cycle, request, t_write, t_done);
        tracer.span("tcp.decode", rtt, request, t_decode, t_done);
        tracer.span("tcp.check", cycle, request, t_done, t_checked);
    }
    Ok(t_checked - t_done)
}

/// Runs one closed loop per connection for `window`, loop `i` pinned to
/// the `i`-th CPU the process may use.
pub fn closed_loop(
    u: &Universe,
    store: &Store,
    conns: &mut [Conn],
    streams: &mut [Stream<'_>],
    window: Duration,
    corrupting: bool,
    mut tracers: Option<Vec<Tracer>>,
) -> Result<(LoopResult, Option<Vec<Tracer>>), String> {
    let cpus = allowed_cpus();
    let start = Instant::now();
    let deadline = start + window;
    let mut lanes: Vec<_> = conns.iter_mut().zip(streams.iter_mut()).collect();
    let tracer_slots: Vec<Option<&mut Tracer>> = match tracers.as_mut() {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => lanes.iter().map(|_| None).collect(),
    };
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(tracer_slots)
            .enumerate()
            .map(|(lane, ((conn, stream), mut tracer))| {
                let cpu = (lane < cpus.len()).then(|| cpus[lane]);
                scope.spawn(move || -> Result<LoopResult, String> {
                    let mut out = LoopResult::default();
                    if !cpu.is_some_and(pin_current_thread) {
                        out.unpinned = 1;
                    }
                    while Instant::now() < deadline {
                        let op = stream.next_op();
                        let traced = tracer.as_deref_mut().map(|t| {
                            let request = t.next_request();
                            (t, request)
                        });
                        exchange(u, store, conn, &op, corrupting, &mut out, traced)?;
                    }
                    out.elapsed = start.elapsed();
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    let mut total = LoopResult::default();
    let mut elapsed = Duration::ZERO;
    for r in results {
        let r = r?;
        elapsed = elapsed.max(r.elapsed);
        total.absorb(r);
    }
    total.elapsed = elapsed;
    Ok((total, tracers))
}
