//! A minimal JSON value, parser, and writer — exactly the surface the
//! service's line protocol needs, with no external dependency.
//!
//! Objects preserve insertion order (they are stored as a pair list), so
//! encoded responses are deterministic and greppable in tests and CI.
//!
//! **Writer.** [`Json::write_to`] is the one byte renderer: it appends a
//! document to a `Vec<u8>`, writing integer digits without `fmt` and
//! copying unescaped string runs whole. `Display` delegates to it, and the
//! server's streamed replies (`proto::write_route_response`) use its
//! number and string writers, so a streamed reply and a rendered tree are
//! the same bytes.
//!
//! **Parser fast paths.** [`Json::parse`] reads a run of at most 15 ASCII
//! digits that no other number character follows as an exact integer
//! (below 10^15 < 2^53, so it equals `str::parse::<f64>` on the same
//! text); every other number takes the `str::parse::<f64>` path. String
//! bodies are copied as runs up to the next `"` or `\`, so a string costs
//! time linear in its length. Neither changes an accepted document, an
//! error offset or an error message.

use std::fmt;

/// Maximum container nesting depth [`Json::parse`] accepts. Deeper
/// documents are rejected with a [`JsonError`] instead of recursing —
/// without this cap a hostile line of `[[[[…` drives the parser into a
/// stack overflow (an abort, not a catchable error).
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the protocol only uses non-negative integers, which are
    /// exact in an `f64` up to 2⁵³ — far beyond any id in this workspace).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an order-preserving pair list.
    Obj(Vec<(String, Json)>),
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an integer.
    pub fn num(n: usize) -> Self {
        Json::Num(n as f64)
    }

    /// Convenience constructor for a string.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                at: pos,
                msg: "trailing characters after document".into(),
            });
        }
        Ok(value)
    }

    /// Appends the document's compact JSON text to `out`: the bytes
    /// `Display` prints.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_to(out);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_to(&mut out);
        f.write_str(std::str::from_utf8(&out).map_err(|_| fmt::Error)?)
    }
}

/// Appends a number as [`Json::Num`] renders it: an integral value within
/// ±2⁵³ as plain digits, anything else through `f64`'s `Display`.
// lint: hot-path
fn write_num(out: &mut Vec<u8>, x: f64) {
    if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        let n = x as i64;
        if n < 0 {
            out.push(b'-');
        }
        write_digits(out, n.unsigned_abs());
    } else {
        // Writing into a Vec cannot fail.
        let _ = std::io::Write::write_fmt(out, format_args!("{x}"));
    }
}

/// Appends `n` as [`Json::Num`] renders `n as f64`, without the float
/// round trip when `n` is exact in an `f64`.
// lint: hot-path
pub(crate) fn write_uint(out: &mut Vec<u8>, n: u64) {
    if n <= 1 << 53 {
        write_digits(out, n);
    } else {
        write_num(out, n as f64);
    }
}

/// Appends the decimal digits of `n`. Up to four digits (every id of a
/// 1024-processor fabric) are one fixed-size copy.
// lint: hot-path
fn write_digits(out: &mut Vec<u8>, n: u64) {
    let digit = |k: u64| b'0' + (k % 10) as u8;
    match n {
        0..=9 => out.push(digit(n)),
        10..=99 => out.extend_from_slice(&[digit(n / 10), digit(n)]),
        100..=999 => out.extend_from_slice(&[digit(n / 100), digit(n / 10), digit(n)]),
        1000..=9999 => {
            out.extend_from_slice(&[digit(n / 1000), digit(n / 100), digit(n / 10), digit(n)])
        }
        _ => {
            let mut buf = [0u8; 20];
            let mut len = 0;
            let mut rest = n;
            for slot in buf.iter_mut().rev() {
                *slot = digit(rest);
                rest /= 10;
                len += 1;
                if rest == 0 {
                    break;
                }
            }
            out.extend_from_slice(buf.get(buf.len() - len..).unwrap_or_default());
        }
    }
}

/// Appends `s` as a quoted JSON string. Unescaped runs are copied whole;
/// `"`, `\`, `\n`, `\r` and `\t` get short escapes and the other control
/// characters `\u00XX`.
// lint: hot-path
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut rest = s.as_bytes();
    while let Some(at) = rest
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        let (run, tail) = rest.split_at(at);
        out.extend_from_slice(run);
        let [b, tail @ ..] = tail else { break };
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            &c => out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(c >> 4), hex(c & 0xf)]),
        }
        rest = tail;
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

/// The lowercase hex digit of a nibble.
fn hex(nibble: u8) -> u8 {
    if nibble < 10 {
        b'0' + nibble
    } else {
        b'a' + nibble - 10
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(at: usize, msg: impl Into<String>) -> JsonError {
    JsonError {
        at,
        msg: msg.into(),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(fail(*pos, format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(fail(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            if depth >= MAX_DEPTH {
                return Err(fail(
                    *pos,
                    format!("nesting deeper than {MAX_DEPTH} levels"),
                ));
            }
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(fail(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            if depth >= MAX_DEPTH {
                return Err(fail(
                    *pos,
                    format!("nesting deeper than {MAX_DEPTH} levels"),
                ));
            }
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(fail(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(fail(*pos, format!("expected '{word}'")))
    }
}

/// Whether `b` can continue a number token (the bytes [`parse_number`]'s
/// scan consumes).
fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let rest = bytes.get(start..).unwrap_or_default();
    // Fast path: at most 15 digits with no other number byte after them
    // is an integer below 10^15, exact in an f64 — the value
    // `str::parse::<f64>` returns for the same text.
    let digits = rest
        .iter()
        .take(16)
        .take_while(|b| b.is_ascii_digit())
        .count();
    if (1..=15).contains(&digits) && !rest.get(digits).is_some_and(|&b| is_number_byte(b)) {
        let value = rest
            .iter()
            .take(digits)
            .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'));
        *pos += digits;
        return Ok(Json::Num(value as f64));
    }
    while *pos < bytes.len() && is_number_byte(bytes[*pos]) {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| fail(start, "invalid number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| fail(start, format!("invalid number '{text}'")))
}

/// Reads the four hex digits of a `\uXXXX` escape, with `*pos` on the
/// `u`; leaves `*pos` on the last digit (the caller's `*pos += 1` steps
/// past it).
fn parse_u_escape(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or_else(|| fail(*pos, "truncated \\u escape"))?;
    let code = u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| fail(*pos, "non-ASCII \\u escape"))?,
        16,
    )
    .map_err(|_| fail(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(code)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(fail(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_u_escape(bytes, pos)?;
                        let scalar = match code {
                            // A high surrogate must pair with a following
                            // `\uXXXX` low surrogate (RFC 8259 §7).
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(fail(*pos, "unpaired high surrogate"));
                                }
                                *pos += 2;
                                let low = parse_u_escape(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(fail(*pos, "invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xDC00..=0xDFFF => return Err(fail(*pos, "unpaired low surrogate")),
                            code => code,
                        };
                        out.push(
                            char::from_u32(scalar)
                                .ok_or_else(|| fail(*pos, "\\u escape is not a scalar value"))?,
                        );
                    }
                    _ => return Err(fail(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash whole:
                // both are ASCII, so the run ends on a char boundary.
                let rest = bytes.get(*pos..).unwrap_or_default();
                let len = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(&rest[..len])
                    .map_err(|e| fail(*pos + e.valid_up_to(), "invalid UTF-8 in string"))?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let doc = r#"{"op":"route","kind":"theorem2","perm":[3,2,1,0],"want_schedule":true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("route"));
        assert_eq!(v.get("perm").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("want_schedule").unwrap().as_bool(), Some(true));
        let re = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
    }

    /// The `fmt` renderer `Display` used before [`Json::write_to`]: the
    /// oracle the byte writer is held to.
    fn fmt_render(doc: &Json) -> String {
        match doc {
            Json::Null => "null".into(),
            Json::Bool(b) => format!("{b}"),
            Json::Num(x) if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) => {
                format!("{}", *x as i64)
            }
            Json::Num(x) => format!("{x}"),
            Json::Str(s) => {
                let mut out = String::from("\"");
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out + "\""
            }
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(fmt_render).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(pairs) => {
                let pairs: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| {
                        format!("{}:{}", fmt_render(&Json::Str(k.clone())), fmt_render(v))
                    })
                    .collect();
                format!("{{{}}}", pairs.join(","))
            }
        }
    }

    #[test]
    fn the_byte_writer_matches_the_fmt_renderer() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let numbers = [
            0.0,
            -0.0,
            7.0,
            -7.0,
            1048576.0,
            2f64.powi(53),
            -(2f64.powi(53)),
            2f64.powi(53) + 2.0,
            1e300,
            3.5,
            -0.25,
            u64::MAX as f64,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut docs: Vec<Json> = numbers.into_iter().map(Json::Num).collect();
        docs.extend([
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::str(""),
            Json::str(every_control.as_str()),
            Json::str("quote\"slash\\del\u{7f}snow\u{2603}emoji\u{1F600}"),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
        ]);
        docs.push(Json::Obj(vec![
            ("k\"ey\n".into(), Json::Arr(docs.clone())),
            ("".into(), Json::Obj(vec![("x".into(), Json::Null)])),
        ]));
        for doc in &docs {
            let mut bytes = Vec::new();
            doc.write_to(&mut bytes);
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                fmt_render(doc),
                "{doc:?}"
            );
            assert_eq!(doc.to_string(), fmt_render(doc));
        }
    }

    #[test]
    fn long_strings_mix_multibyte_text_and_escapes() {
        let unit = "ab\u{e9}\u{2603}\u{1F600}\"q\\\n\t\u{1}z";
        let text = unit.repeat(20_000);
        let encoded = Json::str(text.as_str()).to_string();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(text.as_str()));
        // The same text through `\uXXXX` escapes and surrogate pairs.
        let escaped = format!(
            "\"{}\"",
            "\\u00e9\u{2603}\\ud83d\\ude00\\/plain ".repeat(20_000)
        );
        let want = "\u{e9}\u{2603}\u{1F600}/plain ".repeat(20_000);
        assert_eq!(Json::parse(&escaped).unwrap().as_str(), Some(want.as_str()));
        // An error deep inside a long string keeps its byte offset.
        let bad = format!("\"{}\\x\"", "\u{2603}".repeat(1000));
        let err = Json::parse(&bad).unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (3002, "invalid escape"));
        let open = format!("\"{}", "\u{2603}".repeat(1000));
        let err = Json::parse(&open).unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (3001, "unterminated string"));
    }

    #[test]
    fn integer_fast_path_agrees_with_f64_parsing() {
        for text in [
            "0",
            "7",
            "007",
            "123456789012345",
            "999999999999999",
            "1234567890123456",
            "9007199254740993",
            "00000000000000000001",
        ] {
            let want: f64 = text.parse().unwrap();
            assert_eq!(Json::parse(text).unwrap(), Json::Num(want), "{text}");
            let array = format!("[{text},{text}]");
            assert_eq!(
                Json::parse(&array).unwrap(),
                Json::Arr(vec![Json::Num(want), Json::Num(want)])
            );
        }
        // A digit run followed by another number byte is not an integer.
        assert_eq!(Json::parse("12.5").unwrap(), Json::Num(12.5));
        assert_eq!(Json::parse("12e2").unwrap(), Json::Num(1200.0));
        let err = Json::parse("12-3").unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (0, "invalid number '12-3'"));
        let err = Json::parse("[1,12x]").unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (5, "expected ',' or ']'"));
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::num(1048576).to_string(), "1048576");
        assert_eq!(Json::Num(0.0).to_string(), "0");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"slash\\tab\tunicode\u{2603}";
        let encoded = Json::Str(s.into()).to_string();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(s));
        assert_eq!(Json::parse(r#""A☃""#).unwrap().as_str(), Some("A\u{2603}"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // What e.g. Python's json.dumps("\U0001F600") emits
        // (ensure_ascii): a \uXXXX\uXXXX surrogate pair.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        // BMP escapes still decode singly.
        assert_eq!(
            Json::parse("\"\\u2603\"").unwrap().as_str(),
            Some("\u{2603}")
        );
        // Lone or malformed surrogates are rejected.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83dx\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn numbers_validate_integrality() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-2").unwrap().as_u64(), None);
        assert_eq!(Json::parse("42").unwrap().as_usize(), Some(42));
    }

    #[test]
    fn depth_guard_rejects_hostile_nesting_without_overflowing() {
        // Unbalanced: a hostile stream of open brackets.
        let bombs = ["[".repeat(100_000), "{\"k\":".repeat(100_000)];
        for bomb in &bombs {
            let err = Json::parse(bomb).unwrap_err();
            assert!(err.msg.contains("nesting"), "{err}");
        }
        // Balanced but too deep: also rejected, not parsed.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep).is_err());
        // Exactly at the limit: still accepted.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"{"a":[[0,1],[2,3]],"b":{"c":null}}"#).unwrap();
        let rows = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].as_arr().unwrap()[0].as_usize(), Some(2));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }
}
