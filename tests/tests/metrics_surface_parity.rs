//! Referee for the metrics surfaces: one fixed recording, rendered three
//! ways, must match the committed fixtures exactly.
//!
//! - the `stats` op document, byte for byte (its key order is part of
//!   the wire contract: CI and `pops stats` grep it);
//! - the `Display` text summary the CLI prints on exit;
//! - the `/metrics` page, compared as a set of per-family blocks (the
//!   `# HELP`/`# TYPE` header plus every sample line, in order), so the
//!   order of families on the page is free but nothing inside one is.
//!
//! The recording covers every surface the registry feeds: two resident
//! topologies, a retired-topology ledger, router counters, every
//! wire-error kind, sheds, slow traces, degraded counts, per-format wire
//! bytes and latency in several histogram buckets.

use std::collections::BTreeMap;

use pops_service::exposition::{render, Exposition};
use pops_service::proto::stats_response;
use pops_service::{
    MetricsSnapshot, PoolAcquisition, RequestKind, RouterStats, ServiceMetrics, WireErrorKind,
};

const STATS: &str = include_str!("fixtures/metrics_parity/stats.json");
const SUMMARY: &str = include_str!("fixtures/metrics_parity/summary.txt");
const PAGE: &str = include_str!("fixtures/metrics_parity/metrics.prom");

/// The 4x4 topology's registry: every request kind that misses, hits or
/// errors, pool outcomes, a batch, and the cache/arena gauges.
fn topology_4x4() -> MetricsSnapshot {
    let m = ServiceMetrics::new();
    m.record_miss(RequestKind::Theorem2, 2, 100);
    m.record_hit(RequestKind::Theorem2, 3);
    m.record_hit(RequestKind::Theorem2, 5);
    m.record_miss(RequestKind::HRelation, 8, 900);
    m.record_error(RequestKind::SingleSlot);
    m.record_miss(RequestKind::WithFaults, 4, 250);
    m.record_hit(RequestKind::WithFaults, 7);
    m.record_error(RequestKind::WithFaults);
    m.record_batch(3, 6);
    m.record_pool(PoolAcquisition::Fast);
    m.record_pool(PoolAcquisition::Fast);
    m.record_pool(PoolAcquisition::Overflow);
    m.record_pool(PoolAcquisition::Blocked);
    let mut s = m.snapshot();
    s.phase_hits = 5;
    s.phase_misses = 2;
    s.degraded_plans = 1;
    s.degraded_hits = 1;
    s.unroutable_refusals = 1;
    s.admission_waits = 2;
    s.arena_bytes = 4096;
    s.cache_entries = 3;
    s.cache_capacity = 64;
    s.phase_cache_entries = 2;
    s.phase_cache_capacity = 32;
    s.evictions = 2;
    s.phase_evictions = 1;
    s
}

/// The 2x8 topology's registry: the baselines and one error.
fn topology_2x8() -> MetricsSnapshot {
    let m = ServiceMetrics::new();
    m.record_miss(RequestKind::Direct, 4, 40);
    m.record_miss(RequestKind::Structured, 6, 60_000);
    m.record_error(RequestKind::Theorem2);
    let mut s = m.snapshot();
    s.arena_bytes = 1024;
    s.cache_entries = 2;
    s.cache_capacity = 16;
    s.phase_cache_capacity = 16;
    s
}

/// Counters of an evicted 8x2 topology: history only, gauges zero.
fn retired_ledger() -> MetricsSnapshot {
    let m = ServiceMetrics::new();
    m.record_miss(RequestKind::Theorem2, 4, 2000);
    m.record_hit(RequestKind::Theorem2, 1);
    let mut s = m.snapshot();
    s.phase_misses = 1;
    s.evictions = 1;
    s
}

/// The connection layer's registry: overload, tracing and wire counters.
fn connection_layer() -> MetricsSnapshot {
    let m = ServiceMetrics::new();
    m.record_shed(false);
    m.record_shed(false);
    m.record_shed(true);
    m.record_slow_trace(true);
    m.record_slow_trace(false);
    m.record_slow_trace(false);
    for (i, kind) in WireErrorKind::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            m.record_wire_error(kind);
        }
    }
    m.record_wire_bytes(false, 100, 900);
    m.record_wire_bytes(false, 20, 80);
    m.record_wire_bytes(true, 50, 200);
    let mut s = m.snapshot();
    s.conns_opened = 7;
    s.conns_closed = 4;
    s.conns_rejected = 1;
    s.conns_binary = 2;
    s.oversized_lines = 1;
    s.read_timeouts = 2;
    s
}

struct Fleet {
    aggregate: MetricsSnapshot,
    topologies: Vec<(usize, usize, MetricsSnapshot)>,
    router: RouterStats,
}

/// Composes the fleet view the way the server does: connection layer,
/// plus the retired ledger, plus every resident topology.
fn fleet() -> Fleet {
    let topologies = vec![(4, 4, topology_4x4()), (2, 8, topology_2x8())];
    let mut aggregate = connection_layer();
    aggregate.absorb(&retired_ledger());
    for (_, _, snap) in &topologies {
        aggregate.absorb(snap);
    }
    Fleet {
        aggregate,
        topologies,
        router: RouterStats {
            hits: 9,
            built: 3,
            evictions: 1,
            rejections: 2,
        },
    }
}

/// Splits an exposition page into `family → block`, asserting every
/// family is announced exactly once.
fn family_blocks(page: &str) -> BTreeMap<String, String> {
    let mut blocks = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, block)) = current.take() {
                assert!(blocks.insert(name.clone(), block).is_none(), "{name} twice");
            }
            let name = rest.split(' ').next().unwrap().to_string();
            current = Some((name, String::new()));
        }
        let (_, block) = current.as_mut().expect("sample before any # HELP");
        block.push_str(line);
        block.push('\n');
    }
    if let Some((name, block)) = current {
        assert!(blocks.insert(name.clone(), block).is_none(), "{name} twice");
    }
    blocks
}

#[test]
fn stats_document_is_byte_identical() {
    let f = fleet();
    let doc = stats_response(&f.aggregate, &f.topologies, &f.router).to_string();
    assert_eq!(doc, STATS.trim_end(), "stats document drifted");
}

#[test]
fn text_summary_is_identical() {
    assert_eq!(fleet().aggregate.to_string(), SUMMARY, "Display drifted");
}

#[test]
fn exposition_families_are_identical() {
    let f = fleet();
    let page = render(&Exposition {
        aggregate: &f.aggregate,
        topologies: &f.topologies,
        router: &f.router,
        version: "9.9.9",
        uptime_secs: 77,
    });
    let got = family_blocks(&page);
    let want = family_blocks(PAGE);
    let names = |m: &BTreeMap<String, String>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "family set drifted");
    for (name, block) in &want {
        assert_eq!(&got[name], block, "family {name} drifted");
    }
}
