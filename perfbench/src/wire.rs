//! The load generator's side of the wire: request encoding, one blocking
//! connection per closed loop, and reply decoding that keeps the raw
//! bytes for the byte-compare check.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

use pops_network::Schedule;
use pops_service::frame::{self, TAG_JSON, TAG_ROUTE_REPLY};
use pops_service::proto::schedule_from_json;
use pops_service::{Json, RequestKind};

use crate::workload::{Op, Universe};

/// Route-reply payload bytes before the schedule body:
/// tag, flags, `slots:u32`, `micros:u64`.
const ROUTE_REPLY_HEADER: usize = 14;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl Conn {
    /// Connects and, for binary loops, negotiates the binary framing.
    pub fn connect(addr: SocketAddr, binary: bool) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let io = |e: std::io::Error| format!("socket setup: {e}");
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut conn = Self {
            reader,
            writer: stream,
            binary: false,
        };
        if binary {
            let ack = conn.call(r#"{"op":"hello","format":"binary"}"#)?;
            if ack.get("format").and_then(Json::as_str) != Some("binary") {
                return Err(format!("binary negotiation refused: {ack}"));
            }
            conn.binary = true;
        }
        Ok(conn)
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// One reply: a frame payload on binary connections, a line without
    /// its newline on JSON ones.
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        let io = |e: std::io::Error| format!("read: {e}");
        if self.binary {
            let mut header = [0u8; 4];
            self.reader.read_exact(&mut header).map_err(io)?;
            let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
            self.reader.read_exact(&mut payload).map_err(io)?;
            return Ok(payload);
        }
        let mut line = Vec::new();
        self.reader.read_until(b'\n', &mut line).map_err(io)?;
        if line.pop() != Some(b'\n') {
            return Err("connection closed mid-reply".into());
        }
        Ok(line)
    }

    /// A control op on a JSON-lines connection.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        assert!(!self.binary, "control ops ride JSON-lines connections");
        self.send(format!("{line}\n").as_bytes())?;
        let reply = self.recv()?;
        let text = std::str::from_utf8(&reply).map_err(|e| e.to_string())?;
        Json::parse(text).map_err(|e| format!("reply to {line}: {e}"))
    }
}

/// The JSON document of a route request, as the protocol documents it.
pub fn request_json(u: &Universe, op: &Op) -> Json {
    let t = u.topology(op);
    let kind = match op {
        Op::Theorem2 { .. } | Op::Fresh { .. } => "theorem2",
        Op::Faults { .. } => "faults",
        Op::HRelation { .. } => "h-relation",
    };
    let mut fields = vec![
        ("op".into(), Json::str("route")),
        ("kind".into(), Json::str(kind)),
        ("d".into(), Json::num(t.d())),
        ("g".into(), Json::num(t.g())),
    ];
    if let Some(pi) = u.permutation(op) {
        fields.push((
            "perm".into(),
            Json::Arr(pi.as_slice().iter().map(|&v| Json::num(v)).collect()),
        ));
    }
    if let Some(c) = u.fault(op) {
        fields.push(("faults".into(), Json::Arr(vec![Json::num(c)])));
    }
    if let Some(relation) = u.relation(op) {
        let pairs = relation
            .requests()
            .iter()
            .map(|&(s, d)| Json::Arr(vec![Json::num(s), Json::num(d)]))
            .collect();
        fields.push(("requests".into(), Json::Arr(pairs)));
    }
    Json::Obj(fields)
}

/// The dense `TAG_ROUTE` payload of a theorem2 request.
pub fn route_frame_payload(u: &Universe, op: &Op) -> Option<Vec<u8>> {
    let t = u.topology(op);
    match op {
        Op::Theorem2 { .. } | Op::Fresh { .. } => Some(frame::encode_route_request(
            RequestKind::Theorem2,
            true,
            Some((t.d(), t.g())),
            u.permutation(op)?,
        )),
        _ => None,
    }
}

/// The bytes one request puts on the wire.
pub fn encode_request(u: &Universe, op: &Op, binary: bool) -> Vec<u8> {
    if !binary {
        let mut line = request_json(u, op).to_string().into_bytes();
        line.push(b'\n');
        return line;
    }
    let payload = route_frame_payload(u, op).expect("binary workloads send only theorem2 frames");
    let mut out = Vec::with_capacity(4 + payload.len());
    frame::write_frame(&mut out, &payload).expect("writing to a Vec cannot fail");
    out
}

/// A successful route reply.
pub struct Routed {
    pub cache_hit: bool,
    pub micros: u64,
    pub slots: usize,
    pub degraded: bool,
    pub schedule: Schedule,
    /// Where the schedule body sits in the raw reply bytes.
    pub schedule_bytes: Range<usize>,
}

/// A decoded reply: routed, or refused with the server's error kind.
pub type Decoded = Result<Routed, String>;

/// Decodes one reply. The outer error is a protocol violation (a reply
/// the client cannot read), which fails the correctness gate.
pub fn decode_reply(raw: &[u8], binary: bool) -> Result<Decoded, String> {
    if binary {
        match raw.split_first() {
            Some((&TAG_ROUTE_REPLY, body)) => {
                let r = frame::decode_route_reply(body)?;
                return Ok(Ok(Routed {
                    cache_hit: r.cache_hit,
                    micros: r.micros,
                    slots: r.slots,
                    degraded: false,
                    schedule: r.schedule,
                    schedule_bytes: ROUTE_REPLY_HEADER.min(raw.len())..raw.len(),
                }));
            }
            Some((&TAG_JSON, body)) => return decode_json(body),
            _ => return Err("reply frame with an unknown tag".into()),
        }
    }
    decode_json(raw)
}

fn decode_json(raw: &[u8]) -> Result<Decoded, String> {
    let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("error");
        return Ok(Err(kind.to_string()));
    }
    let body = doc
        .get("schedule")
        .ok_or("route reply without a schedule")?;
    let schedule = schedule_from_json(body)?;
    let start = text
        .find("\"schedule\":")
        .map(|i| i + "\"schedule\":".len())
        .ok_or("schedule field not found in the raw reply")?;
    let end = text
        .rfind(",\"trace\":")
        .filter(|&e| e > start)
        .unwrap_or(text.len());
    Ok(Ok(Routed {
        cache_hit: doc.get("cache").and_then(Json::as_str) == Some("hit"),
        micros: doc.get("micros").and_then(Json::as_u64).unwrap_or(0),
        slots: doc
            .get("slots")
            .and_then(Json::as_usize)
            .ok_or("route reply without slots")?,
        degraded: doc.get("degraded").and_then(Json::as_bool) == Some(true),
        schedule,
        schedule_bytes: start..end,
    }))
}

/// Rewrites the first transmission's sender of a route reply to another
/// processor — the negative self-test's injected fault. Replies without
/// a schedule are left alone.
pub fn corrupt(raw: &mut Vec<u8>, binary: bool, n: usize) {
    const SENDER: usize = ROUTE_REPLY_HEADER + 8;
    if binary && raw.first() == Some(&TAG_ROUTE_REPLY) && raw.len() >= SENDER + 4 {
        let mut word = [0u8; 4];
        word.copy_from_slice(&raw[SENDER..SENDER + 4]);
        let sender = (u32::from_le_bytes(word) as usize + 1) % n;
        raw[SENDER..SENDER + 4].copy_from_slice(&(sender as u32).to_le_bytes());
        return;
    }
    let marker = b"\"schedule\":[[[";
    let Some(at) = raw.windows(marker.len()).position(|w| w == marker) else {
        return;
    };
    let start = at + marker.len();
    let end = start
        + raw[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
    let Some(sender) = std::str::from_utf8(&raw[start..end])
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    else {
        return;
    };
    let replacement = ((sender + 1) % n).to_string().into_bytes();
    raw.splice(start..end, replacement);
}
