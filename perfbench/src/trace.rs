//! Spans, and the traced in-process replay that times each layer's
//! public entry points on the workload's own request sequence.
//!
//! Pass A calls, per request, exactly the layers the server runs on the
//! workload's path, in the server's order, as children of one `request`
//! span. Pass B times the sub-layers and the layers off this workload's
//! path (the other wire format, the engine, the simulator) as children of
//! a `probe` span; they are reported but never enter the reconciliation
//! sum.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use pops_core::{HRelation, RoutingEngine};
use pops_network::{FaultSet, PopsTopology};
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};
use pops_service::frame::{decode_route_request, encode_route_reply};
use pops_service::proto::{
    attach_trace, parse_request, requested_shape, route_response, WireRequest,
};
use pops_service::{
    canonical_key, Json, ServiceReply, ServiceRequest, TopologyRouter, TopologyRouterConfig,
};

use crate::check::simulate;
use crate::wire::{decode_reply, request_json, route_frame_payload, Routed};
use crate::workload::{sub_seed, Op, Universe, H};

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

/// An in-memory span log of one thread; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    requests: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            lane,
            next: 0,
            requests: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh request id for this lane.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Records a finished span; `request` is unique within the lane.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request: (self.lane << 40) | request,
            name,
            start: ns(start),
            end: ns(end),
        });
        id
    }

    /// Starts a span whose end is set by [`Tracer::close`]; returns its
    /// index in the log and its id, for its children.
    pub fn open(&mut self, name: &'static str, request: u64) -> (usize, u64) {
        let now = Instant::now();
        let id = self.span(name, 0, request, now, now);
        (self.spans.len() - 1, id)
    }

    pub fn close(&mut self, index: usize) {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        self.spans[index].end = end;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, parent, request, start, Instant::now());
        out
    }

    pub fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.end - s.start);
        }
        out
    }
}

/// Writes every span as one tab-separated line.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for t in tracers {
        for s in &t.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}

/// The request the service sees for `op`.
pub fn service_request(u: &Universe, op: &Op) -> ServiceRequest {
    let t = u.topology(op);
    match (u.permutation(op), u.fault(op), u.relation(op)) {
        (Some(pi), Some(c), _) => {
            let mut faults = FaultSet::none(&t);
            faults.fail_coupler(c);
            ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults,
            }
        }
        (Some(pi), None, _) => ServiceRequest::Theorem2 { pi: pi.clone() },
        (None, _, Some(relation)) => ServiceRequest::HRelation { relation },
        (None, _, None) => unreachable!("every request carries a permutation or a relation"),
    }
}

fn routed(reply: &ServiceReply) -> Routed {
    let schedule = reply.outcome.schedule().clone();
    Routed {
        cache_hit: reply.cache_hit,
        micros: reply.micros,
        slots: schedule.slot_count(),
        degraded: reply.degraded,
        schedule,
        schedule_bytes: 0..0,
    }
}

/// The result of the in-process replay.
pub struct Replay {
    pub tracer: Tracer,
    /// Per request: `plan_theorem2` minus `fair_distribution_targets`.
    pub assembly_ns: Vec<u64>,
    pub requests: u64,
}

/// Routes the warm-up requests so the in-process caches start where the
/// server's did.
fn warm(u: &Universe, router: &TopologyRouter, fresh: usize) -> Result<(), String> {
    for op in u.warmup(fresh) {
        let t = u.topology(&op);
        let service = router.get(t.d(), t.g()).map_err(|e| e.to_string())?;
        service
            .route(&service_request(u, &op))
            .map_err(|e| format!("warm-up {op:?}: {e}"))?;
    }
    Ok(())
}

/// Replays the workload's request sequence (both loops' streams,
/// interleaved) through the layers in process, each pass for half of
/// `budget`.
pub fn replay(
    u: &Universe,
    fresh: usize,
    budget: Duration,
    epoch: Instant,
) -> Result<Replay, String> {
    let default = u.shapes[0].topology;
    let router = TopologyRouter::new(default, TopologyRouterConfig::default());
    warm(u, &router, fresh)?;
    // Lanes 0 and 1 are the two TCP loops' tracers.
    let mut tracer = Tracer::new(epoch, 2);
    let mut requests = 0;
    let pass = budget / 2;

    let mut streams = [u.stream(0), u.stream(1)];
    let deadline = Instant::now() + pass;
    while Instant::now() < deadline {
        let op = streams[(requests % 2) as usize].next_op();
        on_path(u, &router, &default, &op, &mut tracer, requests)?;
        requests += 1;
    }

    let probe_router = TopologyRouter::new(default, TopologyRouterConfig::default());
    let mut engines: Vec<RoutingEngine> = u
        .shapes
        .iter()
        .map(|s| {
            let mut e = RoutingEngine::new(s.topology);
            e.warm();
            e
        })
        .collect();
    let mut rng = SplitMix64::new(sub_seed(u.seed, 9));
    let mut recent: Vec<Vec<Permutation>> = vec![Vec::new(); u.shapes.len()];
    let mut assembly_ns = Vec::new();
    let mut streams = [u.stream(0), u.stream(1)];
    let deadline = Instant::now() + pass;
    let mut k = 0u64;
    while Instant::now() < deadline {
        let op = streams[(k % 2) as usize].next_op();
        let request = requests + k;
        k += 1;
        let s = op.shape();
        let t = u.shapes[s].topology;
        let req = service_request(u, &op);
        let service = router.get(t.d(), t.g()).map_err(|e| e.to_string())?;
        let reply = service.route(&req).map_err(|e| format!("{op:?}: {e}"))?;
        let (probe_index, probe) = tracer.open("probe", request);

        tracer.time("cache.key", probe, request, || {
            black_box(canonical_key(t.d(), t.g(), black_box(&req)))
        });
        // The wire format this workload does not speak, on its requests.
        if u.workload.binary() {
            let line = request_json(u, &op).to_string();
            tracer.time("json.decode", probe, request, || {
                black_box(json_decode(&line, &default).is_ok())
            });
            tracer.time("json.encode", probe, request, || {
                black_box(json_encode(&req, &reply))
            });
        } else if let Some(payload) = route_frame_payload(u, &op) {
            tracer.time("frame.decode", probe, request, || {
                black_box(decode_route_request(&payload[1..]).is_ok())
            });
            tracer.time("frame.encode", probe, request, || {
                let s = reply.outcome.schedule();
                black_box(encode_route_reply(reply.cache_hit, reply.micros, s, true))
            });
        }

        // A theorem2 miss, then its hit, on a default-config service.
        let probe_service = probe_router.get(t.d(), t.g()).map_err(|e| e.to_string())?;
        let fresh = ServiceRequest::Theorem2 {
            pi: random_permutation(t.n(), &mut rng),
        };
        for name in ["service.miss", "service.hit"] {
            tracer
                .time(name, probe, request, || {
                    probe_service.route(&fresh).map(black_box)
                })
                .map_err(|e| format!("probe service: {e}"))?;
        }

        let engine = &mut engines[s];
        if let Some(pi) = u.permutation(&op) {
            // Untimed first touch, so neither timed call pays for loading
            // the permutation into cache.
            black_box(engine.fair_distribution_targets(pi).len());
            let start = Instant::now();
            black_box(engine.fair_distribution_targets(pi).len());
            let mid = Instant::now();
            let plan = black_box(engine.plan_theorem2(pi));
            let end = Instant::now();
            engine.recycle(plan);
            tracer.span("engine.fair_distribution", probe, request, start, mid);
            tracer.span("engine.plan", probe, request, mid, end);
            assembly_ns.push((end - mid).saturating_sub(mid - start).as_nanos() as u64);

            let set = &u.shapes[s];
            let coupler = u
                .fault(&op)
                .unwrap_or(set.couplers[(request as usize) % set.couplers.len()]);
            let mut faults = FaultSet::none(&t);
            faults.fail_coupler(coupler);
            let planned = tracer.time("engine.fault_plan", probe, request, || {
                engine.plan_with_faults(pi, &faults).map(black_box).is_ok()
            });
            if !planned {
                return Err(format!("{op:?}: fault planning failed"));
            }
            let recent = &mut recent[s];
            recent.push(pi.clone());
            if recent.len() > H {
                recent.remove(0);
            }
        }
        let relation = match u.relation(&op) {
            Some(r) => Some(r),
            None if !has_relations(u) && recent[s].len() == H => Some(relation_of(t, &recent[s])),
            None => None,
        };
        if let Some(relation) = relation {
            tracer.time("engine.h_decompose", probe, request, || {
                black_box(engine.decompose_h_relation(&relation).len())
            });
        }
        let routed = routed(&reply);
        tracer
            .time("simulator.check", probe, request, || {
                simulate(u, &op, &routed)
            })
            .map_err(|e| format!("in-process {op:?}: {e}"))?;
        tracer.close(probe_index);
    }
    Ok(Replay {
        tracer,
        assembly_ns,
        requests: requests + k,
    })
}

fn has_relations(u: &Universe) -> bool {
    u.shapes.iter().any(|s| !s.pool.is_empty())
}

fn relation_of(t: PopsTopology, perms: &[Permutation]) -> HRelation {
    let requests = perms
        .iter()
        .flat_map(|pi| pi.as_slice().iter().copied().enumerate())
        .collect();
    HRelation::new(t.n(), requests).expect("permutation images are in range")
}

/// The server's JSON request decode: parse, resolve the shape, parse the
/// route body.
fn json_decode(line: &str, default: &PopsTopology) -> Result<ServiceRequest, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let (d, g) = requested_shape(&doc, default)?;
    match parse_request(&doc, &PopsTopology::new(d, g))? {
        WireRequest::Route { req, .. } => Ok(req),
        _ => Err("not a route request".into()),
    }
}

/// The server's JSON reply encode: build, tag with a trace id, render.
fn json_encode(req: &ServiceRequest, reply: &ServiceReply) -> String {
    attach_trace(route_response(req.kind(), reply, true), "c1-r1").to_string()
}

/// One request through the layers the server runs for it, in order.
fn on_path(
    u: &Universe,
    router: &TopologyRouter,
    default: &PopsTopology,
    op: &Op,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(), String> {
    let t = u.topology(op);
    let binary = u.workload.binary();
    let input = if binary {
        route_frame_payload(u, op).ok_or("binary workloads send theorem2 frames")?
    } else {
        request_json(u, op).to_string().into_bytes()
    };
    let mut spans = Vec::with_capacity(5);
    let start = Instant::now();
    let mut at = start;
    let mut mark = |name: &'static str, at: &mut Instant| {
        let now = Instant::now();
        spans.push((name, *at, now));
        *at = now;
    };
    let req = if binary {
        let pi = decode_route_request(&input[1..])?.perm?;
        mark("frame.decode", &mut at);
        ServiceRequest::Theorem2 { pi }
    } else {
        let line = std::str::from_utf8(&input).map_err(|e| e.to_string())?;
        let req = json_decode(line, default)?;
        mark("json.decode", &mut at);
        req
    };
    let service = router.get(t.d(), t.g()).map_err(|e| e.to_string())?;
    mark("router.lookup", &mut at);
    let reply = service.route(&req).map_err(|e| format!("{op:?}: {e}"))?;
    mark("service.route", &mut at);
    let encoded = if binary {
        encode_route_reply(
            reply.cache_hit,
            reply.micros,
            reply.outcome.schedule(),
            true,
        )
    } else {
        json_encode(&req, &reply).into_bytes()
    };
    mark(
        if binary {
            "frame.encode"
        } else {
            "json.encode"
        },
        &mut at,
    );
    let decoded = decode_reply(&encoded, binary)?;
    mark("client.decode", &mut at);
    decoded.map_err(|kind| format!("{op:?}: in-process {kind}"))?;
    let root = tracer.span("request", 0, request, start, at);
    for (name, from, to) in spans {
        tracer.span(name, root, request, from, to);
    }
    Ok(())
}
