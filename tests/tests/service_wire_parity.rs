//! Cross-format parity: every input both wire formats can express gets
//! the same answer whether it arrives as a JSON line or as a binary
//! frame — the same schedule, or the same typed error `kind` — and
//! moves the `pops_wire_errors_total` counters by the same amounts.
//!
//! Each (input, format) pair runs against a fresh server, so every plan
//! is computed independently and the wire-error counters start at zero.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use pops_bipartite::ColorerKind;
use pops_network::{PopsTopology, Schedule};
use pops_permutation::families::vector_reversal;
use pops_permutation::Permutation;
use pops_service::frame::{self, TAG_BATCH_ITEM, TAG_JSON, TAG_ROUTE_REPLY};
use pops_service::proto::schedule_from_json;
use pops_service::{
    serve_router, Json, RequestKind, ServerConfig, ServerSummary, ServiceClient, ServiceConfig,
    TopologyRouter, TopologyRouterConfig, WireErrorKind,
};

/// What one request came back as, with format-specific envelopes and
/// incidental fields (cache provenance, timings, trace ids) stripped.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// A whole-request error, by its typed kind.
    Error(String),
    /// A routed request's schedule.
    Route(Schedule),
    /// A batch: each item's schedule or error kind, in input order, plus
    /// the summary's routed/failed accounting.
    Batch {
        items: Vec<Result<Schedule, String>>,
        routed: u64,
        failed: u64,
    },
}

/// A requested shape; `None` selects the server's default topology.
type Shape = Option<(usize, usize)>;

/// One request both formats can express.
enum Input {
    Route { shape: Shape, perm: Vec<usize> },
    Batch(Vec<(Shape, Vec<usize>)>),
}

#[derive(Clone, Copy, Debug)]
enum Format {
    Json,
    Binary,
}

/// Knobs one scenario's server runs with.
#[derive(Clone)]
struct Setup {
    max_topologies: usize,
    server: ServerConfig,
}

impl Default for Setup {
    fn default() -> Self {
        Self {
            max_topologies: 4,
            server: ServerConfig::default(),
        }
    }
}

fn spawn(setup: &Setup) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
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
            max_topologies: setup.max_topologies,
            ..TopologyRouterConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = setup.server.clone();
    let handle = std::thread::spawn(move || serve_router(listener, router, config).unwrap());
    (addr, handle)
}

fn error_kind(doc: &Json) -> String {
    doc.get("kind")
        .and_then(Json::as_str)
        .expect("error documents carry a kind")
        .to_string()
}

fn is_ok(doc: &Json) -> bool {
    doc.get("ok").and_then(Json::as_bool) == Some(true)
}

fn json_shape(fields: &mut Vec<(String, Json)>, shape: Shape) {
    if let Some((d, g)) = shape {
        fields.push(("d".into(), Json::num(d)));
        fields.push(("g".into(), Json::num(g)));
    }
}

fn json_perm(perm: &[usize]) -> Json {
    Json::Arr(perm.iter().map(|&v| Json::num(v)).collect())
}

/// The request as a JSON document.
fn json_request(input: &Input) -> Json {
    match input {
        Input::Route { shape, perm } => {
            let mut fields = vec![
                ("op".to_string(), Json::str("route")),
                ("kind".to_string(), Json::str("theorem2")),
            ];
            json_shape(&mut fields, *shape);
            fields.push(("perm".into(), json_perm(perm)));
            Json::Obj(fields)
        }
        Input::Batch(items) => Json::Obj(vec![
            ("op".into(), Json::str("batch")),
            ("want_schedule".into(), Json::Bool(true)),
            (
                "items".into(),
                Json::Arr(
                    items
                        .iter()
                        .map(|(shape, perm)| {
                            let mut fields = Vec::new();
                            json_shape(&mut fields, *shape);
                            fields.push(("perm".into(), json_perm(perm)));
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// The request as a binary frame payload.
fn frame_request(input: &Input) -> Vec<u8> {
    let perm = |image: &[usize]| Permutation::new(image.to_vec()).unwrap();
    match input {
        Input::Route { shape, perm: image } => {
            frame::encode_route_request(RequestKind::Theorem2, true, *shape, &perm(image))
        }
        Input::Batch(items) => frame::encode_batch_request(
            true,
            items.iter().map(|(shape, image)| (*shape, perm(image))),
        ),
    }
}

/// Folds a batch's per-item and summary documents into an [`Outcome`].
#[derive(Default)]
struct BatchFold {
    items: Vec<(usize, Result<Schedule, String>)>,
}

impl BatchFold {
    /// Takes one JSON document of a batch answer; returns the finished
    /// outcome once the summary (or a whole-batch error) arrives.
    fn take(&mut self, doc: &Json) -> Option<Outcome> {
        match doc.get("op").and_then(Json::as_str) {
            Some("batch-item") => {
                let index = doc.get("index").and_then(Json::as_usize).unwrap();
                let item = if is_ok(doc) {
                    Ok(schedule_from_json(doc.get("schedule").unwrap()).unwrap())
                } else {
                    Err(error_kind(doc))
                };
                self.items.push((index, item));
                None
            }
            Some("batch") => {
                let mut items = std::mem::take(&mut self.items);
                items.sort_by_key(|(index, _)| *index);
                Some(Outcome::Batch {
                    items: items.into_iter().map(|(_, item)| item).collect(),
                    routed: doc.get("routed").and_then(Json::as_u64).unwrap(),
                    failed: doc.get("failed").and_then(Json::as_u64).unwrap(),
                })
            }
            _ => {
                assert!(!is_ok(doc), "unexpected document {doc}");
                Some(Outcome::Error(error_kind(doc)))
            }
        }
    }
}

fn read_json_line(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
    Json::parse(line.trim_end()).unwrap()
}

fn exchange_json(addr: SocketAddr, input: &Input) -> Outcome {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "{}", json_request(input)).unwrap();
    let first = read_json_line(&mut reader);
    match input {
        Input::Route { .. } if is_ok(&first) => {
            Outcome::Route(schedule_from_json(first.get("schedule").unwrap()).unwrap())
        }
        Input::Route { .. } => Outcome::Error(error_kind(&first)),
        Input::Batch(_) => {
            let mut fold = BatchFold::default();
            let mut doc = first;
            loop {
                if let Some(outcome) = fold.take(&doc) {
                    return outcome;
                }
                doc = read_json_line(&mut reader);
            }
        }
    }
}

fn exchange_binary(addr: SocketAddr, input: &Input) -> Outcome {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, r#"{{"op":"hello","format":"binary"}}"#).unwrap();
    assert!(is_ok(&read_json_line(&mut reader)));
    frame::write_frame(&mut stream, &frame_request(input)).unwrap();
    let mut fold = BatchFold::default();
    loop {
        let payload = frame::read_frame(&mut reader, 1 << 24).unwrap();
        let (&tag, body) = payload.split_first().unwrap();
        match tag {
            TAG_ROUTE_REPLY => {
                return Outcome::Route(frame::decode_route_reply(body).unwrap().schedule)
            }
            TAG_BATCH_ITEM => {
                let item = frame::decode_batch_item(body).unwrap();
                fold.items.push((item.index, Ok(item.schedule)));
            }
            TAG_JSON => {
                let doc = Json::parse(std::str::from_utf8(body).unwrap()).unwrap();
                if let Some(outcome) = fold.take(&doc) {
                    return outcome;
                }
            }
            other => panic!("unexpected reply tag 0x{other:02x}"),
        }
    }
}

/// The server's wire-error counters, one per kind in wire-name order.
fn wire_errors(addr: SocketAddr) -> Vec<(String, u64)> {
    let mut client = ServiceClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let counters = stats.get("wire_errors").unwrap();
    WireErrorKind::ALL
        .iter()
        .map(|kind| {
            let count = counters.get(kind.name()).and_then(Json::as_u64).unwrap();
            (kind.name().to_string(), count)
        })
        .collect()
}

fn run(setup: &Setup, format: Format, input: &Input) -> (Outcome, Vec<(String, u64)>) {
    let (addr, handle) = spawn(setup);
    let before = wire_errors(addr);
    let outcome = match format {
        Format::Json => exchange_json(addr, input),
        Format::Binary => exchange_binary(addr, input),
    };
    let after = wire_errors(addr);
    let delta = before
        .into_iter()
        .zip(after)
        .map(|((kind, b), (_, a))| (kind, a - b))
        .collect();
    ServiceClient::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
    (outcome, delta)
}

/// Runs `input` in both formats and asserts the two answers agree;
/// returns the shared outcome for scenario-specific checks.
fn assert_parity(name: &str, setup: &Setup, input: &Input) -> Outcome {
    let (json, json_errors) = run(setup, Format::Json, input);
    let (binary, binary_errors) = run(setup, Format::Binary, input);
    assert_eq!(json, binary, "{name}: the formats answer differently");
    assert_eq!(
        json_errors, binary_errors,
        "{name}: the formats count wire errors differently"
    );
    json
}

fn reversal16() -> Vec<usize> {
    vector_reversal(16).as_slice().to_vec()
}

fn assert_error(name: &str, outcome: &Outcome, kind: &str) {
    assert_eq!(outcome, &Outcome::Error(kind.into()), "{name}");
}

#[test]
fn a_wrong_length_permutation_is_refused_alike() {
    let input = Input::Route {
        shape: None,
        perm: vec![3, 2, 1, 0],
    };
    let outcome = assert_parity("wrong-length perm", &Setup::default(), &input);
    assert_error("wrong-length perm", &outcome, "bad-request");
}

#[test]
fn a_zero_dimension_shape_is_refused_alike() {
    let input = Input::Route {
        shape: Some((0, 4)),
        perm: Vec::new(),
    };
    let outcome = assert_parity("d = 0", &Setup::default(), &input);
    assert_error("d = 0", &outcome, "bad-request");
}

#[test]
fn a_shape_beyond_max_topologies_is_refused_alike() {
    let setup = Setup {
        max_topologies: 1,
        ..Setup::default()
    };
    let input = Input::Route {
        shape: Some((2, 8)),
        perm: reversal16(),
    };
    let outcome = assert_parity("over max_topologies", &setup, &input);
    assert_error("over max_topologies", &outcome, "topology-limit");
}

#[test]
fn a_zero_watermark_sheds_routes_and_batches_alike() {
    let setup = Setup {
        server: ServerConfig {
            overload_watermark: Some(0),
            ..ServerConfig::default()
        },
        ..Setup::default()
    };
    let route = Input::Route {
        shape: None,
        perm: reversal16(),
    };
    let outcome = assert_parity("shed route", &setup, &route);
    assert_error("shed route", &outcome, "overloaded");
    let batch = Input::Batch(vec![(None, reversal16())]);
    let outcome = assert_parity("shed batch", &setup, &batch);
    assert_error("shed batch", &outcome, "overloaded");
}

#[test]
fn a_baseline_degraded_route_gets_the_same_schedule() {
    let setup = Setup {
        server: ServerConfig {
            baseline_faults: vec![((4, 4), vec![1])],
            ..ServerConfig::default()
        },
        ..Setup::default()
    };
    let input = Input::Route {
        shape: None,
        perm: reversal16(),
    };
    let outcome = assert_parity("baseline-degraded route", &setup, &input);
    assert!(matches!(outcome, Outcome::Route(_)), "{outcome:?}");
}

#[test]
fn a_batch_over_max_batch_items_is_refused_alike() {
    let setup = Setup {
        server: ServerConfig {
            max_batch_items: 2,
            ..ServerConfig::default()
        },
        ..Setup::default()
    };
    let input = Input::Batch(vec![(None, reversal16()); 3]);
    let outcome = assert_parity("over max_batch_items", &setup, &input);
    assert_error("over max_batch_items", &outcome, "too-large");
}

#[test]
fn a_batch_over_max_batch_topologies_is_refused_alike() {
    let setup = Setup {
        server: ServerConfig {
            max_batch_topologies: 1,
            ..ServerConfig::default()
        },
        ..Setup::default()
    };
    let input = Input::Batch(vec![(None, reversal16()), (Some((2, 8)), reversal16())]);
    let outcome = assert_parity("over max_batch_topologies", &setup, &input);
    assert_error("over max_batch_topologies", &outcome, "too-large");
}

#[test]
fn mixed_good_and_bad_batch_items_are_answered_alike() {
    let input = Input::Batch(vec![
        (None, reversal16()),
        (None, vec![3, 2, 1, 0]),
        (Some((2, 8)), reversal16()),
        (Some((0, 4)), Vec::new()),
        (Some((2, 3)), vec![5, 4, 3, 2, 1, 0]),
    ]);
    let outcome = assert_parity("mixed batch", &Setup::default(), &input);
    let Outcome::Batch {
        items,
        routed,
        failed,
    } = outcome
    else {
        panic!("mixed batch: expected a batch answer, got {outcome:?}");
    };
    assert_eq!((routed, failed), (3, 2));
    let kinds: Vec<Option<&str>> = items
        .iter()
        .map(|item| item.as_ref().err().map(String::as_str))
        .collect();
    assert_eq!(
        kinds,
        [None, Some("bad-request"), None, Some("bad-request"), None]
    );
}
