//! Prometheus text exposition for the serving daemon.
//!
//! [`render`] walks the metric tables of [`crate::metrics`] over the
//! fleet-wide [`MetricsSnapshot`], its per-kind and per-topology
//! breakdowns and the [`TopologyRouter`](crate::TopologyRouter) counters,
//! and writes the Prometheus text format, version 0.0.4: every family is
//! announced once with `# HELP`/`# TYPE` lines, counters carry the
//! `_total` suffix, and the log₂ latency histograms become cumulative-`le`
//! histogram families. Metric names are part of the operational contract
//! — dashboards and alert rules reference them — so treat renames like
//! wire-protocol changes (see docs/OPERATIONS.md for the full name table).
//!
//! The module also owns the minimal HTTP plumbing the server needs to
//! answer `GET /metrics` on its main listener or a `--metrics-port`
//! sidecar: [`http_request_path`] sniffs an HTTP request line apart from
//! the JSON/binary wire protocol, and [`http_ok`]/[`http_not_found`]
//! build complete `HTTP/1.0` close-delimited responses.

use std::fmt::{Display, Write as _};

use crate::metrics::{
    bucket_edge, Metric, MetricKind, MetricsSnapshot, Reading, KIND_ROWS, PROCESS_ROWS,
    ROUTER_ROWS, SNAPSHOT_ROWS, TOPOLOGY_ROWS,
};
use crate::router::RouterStats;

/// The content type of the rendered exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The path the exposition is served under.
pub const METRICS_PATH: &str = "/metrics";

/// Everything [`render`] needs, borrowed from the server at scrape time.
#[derive(Debug)]
pub struct Exposition<'a> {
    /// The fleet-wide aggregate (every topology's registry absorbed, plus
    /// the retired-topology ledger and the connection layer) — the same
    /// snapshot the `stats` op reports at its top level.
    pub aggregate: &'a MetricsSnapshot,
    /// Per-resident-topology `(d, g, snapshot)` breakdown.
    pub topologies: &'a [(usize, usize, MetricsSnapshot)],
    /// Topology-registry counters.
    pub router: &'a RouterStats,
    /// The server's crate version, for `pops_build_info`.
    pub version: &'a str,
    /// Seconds since the server started, for `pops_uptime_seconds`.
    pub uptime_secs: u64,
}

/// Renders the full exposition document.
pub fn render(x: &Exposition<'_>) -> String {
    let kinds: Vec<_> = x
        .aggregate
        .per_kind
        .iter()
        .map(|k| (k, k.kind.name().to_owned()))
        .collect();
    let shapes: Vec<_> = x
        .topologies
        .iter()
        .map(|(d, g, s)| (s, format!("{d}x{g}")))
        .collect();
    let router = (x.topologies.len() as u64, *x.router);
    let mut page = Vec::new();
    add(
        &mut page,
        PROCESS_ROWS,
        &[(&x.uptime_secs, x.version.to_owned())],
    );
    add(&mut page, SNAPSHOT_ROWS, &[(x.aggregate, String::new())]);
    add(&mut page, KIND_ROWS, &kinds);
    add(&mut page, ROUTER_ROWS, &[(&router, String::new())]);
    add(&mut page, TOPOLOGY_ROWS, &shapes);
    let mut out = String::with_capacity(8192);
    for family in page {
        let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.name());
        out.push_str(&family.samples);
    }
    out
}

/// One family of the page under construction.
struct PageFamily {
    name: &'static str,
    kind: MetricKind,
    help: &'static str,
    samples: String,
}

/// Adds every exported row of `rows` to its family on `page` (families
/// stay in first-seen order), with one sample per `(source, value of the
/// rows' source label)`; a family with no sources still gets its header.
fn add<S>(page: &mut Vec<PageFamily>, rows: &[Metric<S>], sources: &[(&S, String)]) {
    for row in rows.iter().filter(|row| !row.family.is_empty()) {
        let at = match page.iter().position(|f| f.name == row.family) {
            Some(at) => at,
            None => {
                page.push(PageFamily {
                    name: row.family,
                    kind: row.kind,
                    help: row.help,
                    samples: String::new(),
                });
                page.len() - 1
            }
        };
        let out = &mut page[at].samples;
        for (src, label) in sources {
            let mut labels = Vec::new();
            if !row.label.is_empty() {
                labels.push((row.label, label.as_str()));
            }
            labels.extend_from_slice(row.labels);
            match (row.read)(src) {
                Reading::Count(n) => sample(out, row.family, &labels, n),
                Reading::Ratio(r) => sample(out, row.family, &labels, r),
                Reading::Labelled(values) => {
                    for (value, n) in values {
                        labels[0].1 = value;
                        sample(out, row.family, &labels, n);
                    }
                }
                Reading::Histogram(buckets, sum) => {
                    histogram(out, row.family, &labels, &buckets, sum)
                }
            }
        }
    }
}

/// Writes one sample line: `name{k="v",...} value`.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl Display) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Renders one log₂ histogram as cumulative `le` buckets plus `_sum` and
/// `_count`; bucket `i` has the exact inclusive upper bound
/// [`bucket_edge`]`(i)`.
fn histogram(out: &mut String, name: &str, labels: &[(&str, &str)], buckets: &[u64], sum: u64) {
    let edges = (0..buckets.len()).map(|i| bucket_edge(i).to_string());
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (le, count) in edges
        .chain(["+Inf".to_owned()])
        .zip(buckets.iter().chain([&0]))
    {
        cumulative += count;
        let mut with_le = labels.to_vec();
        with_le.push(("le", &le));
        sample(out, &bucket_name, &with_le, cumulative);
    }
    sample(out, &format!("{name}_sum"), labels, sum);
    sample(out, &format!("{name}_count"), labels, cumulative);
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// If `line` is an HTTP GET request line (`GET <path> HTTP/1.x`, or a
/// bare `GET <path>`), returns the path (query string stripped). The
/// server uses this to tell a scraper apart from a JSON/binary wire
/// client: no JSON request starts with `GET `, and in the binary framing
/// the bytes `GET ` would be an implausibly huge little-endian length.
pub fn http_request_path(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("GET ")?;
    let path = rest.split_whitespace().next()?;
    let path = path.split('?').next().unwrap_or(path);
    if path.starts_with('/') {
        Some(path)
    } else {
        None
    }
}

/// A complete `HTTP/1.0 200` response carrying `body` with the
/// exposition content type. `HTTP/1.0` deliberately: the connection
/// closes after the response, which every scraper handles.
pub fn http_ok(body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A complete `HTTP/1.0 404` response for any other path.
pub fn http_not_found() -> Vec<u8> {
    let body = "not found; try /metrics\n";
    format!(
        "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServiceMetrics;
    use crate::{RequestKind, WireErrorKind};

    fn demo_exposition() -> String {
        let m = ServiceMetrics::new();
        m.record_miss(RequestKind::Theorem2, 4, 100);
        m.record_hit(RequestKind::Theorem2, 3);
        m.record_hit(RequestKind::HRelation, 900);
        m.record_error(RequestKind::SingleSlot);
        m.record_shed(false);
        m.record_shed(true);
        m.record_wire_error(WireErrorKind::Overloaded);
        m.record_wire_bytes(true, 10, 20);
        m.degraded_plans.inc();
        m.degraded_hits.inc();
        m.degraded_hits.inc();
        m.unroutable_refusals.inc();
        let aggregate = m.snapshot();
        let per_topology = vec![
            (4, 4, m.snapshot()),
            (2, 8, ServiceMetrics::new().snapshot()),
        ];
        let router = RouterStats {
            hits: 5,
            built: 2,
            evictions: 1,
            rejections: 0,
        };
        render(&Exposition {
            aggregate: &aggregate,
            topologies: &per_topology,
            router: &router,
            version: "1.2.3",
            uptime_secs: 42,
        })
    }

    /// Strips histogram sample suffixes to recover the family name.
    fn family_of(sample_name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                return base;
            }
        }
        sample_name
    }

    #[test]
    fn every_sample_is_preceded_by_its_type_and_families_are_unique() {
        let text = demo_exposition();
        let mut declared = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(declared.insert(name.to_string()), "duplicate family {name}");
            } else if !line.starts_with('#') && !line.is_empty() {
                let name_end = line.find(['{', ' ']).unwrap();
                let fam = family_of(&line[..name_end]);
                assert!(declared.contains(fam), "sample before # TYPE: {line}");
            }
        }
        assert!(declared.len() > 20, "expected a rich exposition");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = demo_exposition();
        let prefix = "pops_request_duration_microseconds_bucket{kind=\"theorem2\",";
        let mut last = 0u64;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "buckets must be cumulative: {line}");
            last = value;
            if line.contains("le=\"+Inf\"") {
                saw_inf = true;
                assert_eq!(value, 2, "theorem2 saw two requests");
            }
        }
        assert!(saw_inf, "+Inf bucket present");
        assert!(
            text.contains("pops_request_duration_microseconds_count{kind=\"theorem2\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pops_request_duration_microseconds_sum{kind=\"theorem2\"} 103"),
            "{text}"
        );
    }

    #[test]
    fn labels_cover_topology_format_and_error_kind() {
        let text = demo_exposition();
        assert!(
            text.contains("pops_topology_requests_total{topology=\"4x4\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("pops_topology_requests_total{topology=\"2x8\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pops_wire_bytes_total{format=\"binary\",direction=\"out\"} 20"),
            "{text}"
        );
        assert!(
            text.contains("pops_wire_errors_total{error_kind=\"overloaded\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pops_sheds_total{cause=\"watermark\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pops_sheds_total{cause=\"quota\"} 1"),
            "{text}"
        );
        assert!(text.contains("pops_degraded_plans_total 1"), "{text}");
        assert!(text.contains("pops_degraded_hits_total 2"), "{text}");
        assert!(text.contains("pops_unroutable_refusals_total 1"), "{text}");
        assert!(
            text.contains("pops_wire_errors_total{error_kind=\"unroutable\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pops_topology_request_duration_microseconds_bucket{topology=\"4x4\",le=\"+Inf\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn build_info_and_uptime_are_present() {
        let text = demo_exposition();
        assert!(
            text.contains("pops_build_info{version=\"1.2.3\"} 1"),
            "{text}"
        );
        assert!(text.contains("pops_uptime_seconds 42"), "{text}");
        assert!(text.contains("pops_router_evictions_total 1"), "{text}");
        assert!(text.contains("pops_router_topologies 2"), "{text}");
    }

    #[test]
    fn families_without_samples_keep_their_header() {
        let text = render(&Exposition {
            aggregate: &MetricsSnapshot::zero(),
            topologies: &[],
            router: &RouterStats::default(),
            version: "1.2.3",
            uptime_secs: 0,
        });
        assert!(
            text.contains("# TYPE pops_topology_requests_total counter\n# HELP"),
            "{text}"
        );
        assert!(text.contains("pops_router_topologies 0"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn http_request_lines_are_recognised() {
        assert_eq!(http_request_path("GET /metrics HTTP/1.1"), Some("/metrics"));
        assert_eq!(
            http_request_path("GET /metrics?x=1 HTTP/1.0"),
            Some("/metrics")
        );
        assert_eq!(http_request_path("GET /other"), Some("/other"));
        assert_eq!(http_request_path("{\"op\":\"ping\"}"), None);
        assert_eq!(http_request_path("GET metrics"), None);
    }

    #[test]
    fn http_responses_are_complete() {
        let ok = http_ok("hello\n");
        let text = String::from_utf8(ok).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4"),
            "{text}"
        );
        assert!(text.contains("Content-Length: 6\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello\n"), "{text}");
        let nf = String::from_utf8(http_not_found()).unwrap();
        assert!(nf.starts_with("HTTP/1.0 404"), "{nf}");
    }
}
