//! Fuzz-style property tests of the service's hand-rolled JSON parser:
//! arbitrary byte soup and hostile nesting must come back as `JsonError`
//! values — never a panic, and never a recursion-driven stack overflow.

use proptest::prelude::*;

use pops_permutation::SplitMix64;
use pops_service::{Json, JsonError, MAX_DEPTH};

/// Builds a random `Json` document of bounded depth, exercising every
/// constructor (including strings with control and non-ASCII characters,
/// which stress the escape writer).
fn random_doc(rng: &mut SplitMix64, depth: usize) -> Json {
    let roll = if depth == 0 {
        rng.next_u64() % 4 // leaves only
    } else {
        rng.next_u64() % 6
    };
    match roll {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::num((rng.next_u64() % 1_000_000) as usize),
        3 => {
            let len = (rng.next_u64() % 12) as usize;
            let s: String = (0..len)
                .map(|_| char::from_u32((rng.next_u64() % 0xD7FF) as u32).unwrap_or('\u{FFFD}'))
                .collect();
            Json::Str(s)
        }
        4 => {
            let len = (rng.next_u64() % 4) as usize;
            Json::Arr((0..len).map(|_| random_doc(rng, depth - 1)).collect())
        }
        _ => {
            let len = (rng.next_u64() % 4) as usize;
            Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}"), random_doc(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// How the parser read a number before its integer fast path: scan the
/// number bytes, then `str::parse::<f64>` the run (offsets for a bare
/// document `text`).
fn number_by_f64_rule(text: &str) -> Result<Json, JsonError> {
    let end = text
        .bytes()
        .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        .unwrap_or(text.len());
    let run = &text[..end];
    match run.parse::<f64>() {
        Err(_) => Err(JsonError {
            at: 0,
            msg: format!("invalid number '{run}'"),
        }),
        Ok(_) if end < text.len() => Err(JsonError {
            at: end,
            msg: "trailing characters after document".into(),
        }),
        Ok(x) => Ok(Json::Num(x)),
    }
}

/// Asserts `text` parses as [`number_by_f64_rule`] says, alone and as the
/// element of an array (bit-exact, so `-0` stays distinct from `0`).
fn assert_number_rule(text: &str) -> Result<(), TestCaseError> {
    let want = number_by_f64_rule(text);
    let got = Json::parse(text);
    match (&got, &want) {
        (Ok(Json::Num(a)), Ok(Json::Num(b))) => {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", text)
        }
        _ => prop_assert_eq!(&got, &want, "{}", text),
    }
    if let Ok(value) = want {
        let array = Json::parse(&format!("[{text}]")).map_err(|e| e.to_string());
        prop_assert_eq!(array, Ok(Json::Arr(vec![value])), "[{}]", text);
    }
    Ok(())
}

#[test]
fn numbers_at_the_fast_path_edges_follow_the_f64_rule() {
    let p53 = 1u64 << 53;
    let mut texts: Vec<String> = [p53 - 1, p53, p53 + 1]
        .iter()
        .chain(&[10u64.pow(15) - 1, 10u64.pow(15), 10u64.pow(15) + 1])
        .map(u64::to_string)
        .collect();
    for base in texts.clone() {
        texts.extend([
            format!("-{base}"),
            format!("0{base}"),
            format!("{base}.0"),
            format!("{base}e0"),
            format!("{base}E-2"),
            format!("{base}x"),
        ]);
    }
    texts.extend(["0", "00", "-0", "1.", ".5", "1e", "1e+", "--1", "1-1", "+1"].map(String::from));
    texts.extend((1..=25).map(|len| "9".repeat(len)));
    texts.extend((1..=25).map(|len| format!("{}1", "0".repeat(len - 1))));
    for text in &texts {
        assert_number_rule(text).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn digit_strings_follow_the_f64_rule(seed in any::<u64>(), len in 1usize..26) {
        // Mostly digits (and leading zeros), with the sign, point and
        // exponent forms mixed in at random positions.
        const ALPHABET: &[u8] = b"00001234567899999-.eE+";
        let mut rng = SplitMix64::new(seed);
        let digits_only = rng.next_u64() & 1 == 0;
        let text: String = (0..len)
            .map(|_| {
                let bound = if digits_only { 14 } else { ALPHABET.len() };
                ALPHABET[(rng.next_u64() as usize) % bound] as char
            })
            .collect();
        assert_number_rule(&text)?;
    }

    #[test]
    fn parse_survives_arbitrary_bytes(seed in any::<u64>(), len in 0usize..600) {
        let mut rng = SplitMix64::new(seed);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // Err is fine; a panic (or abort) is the bug being hunted.
        let _ = Json::parse(&text);
    }

    #[test]
    fn parse_survives_json_shaped_soup(seed in any::<u64>(), len in 0usize..600) {
        // Bytes weighted towards JSON structure so the parser gets past
        // the first token far more often than with uniform bytes.
        const ALPHABET: &[u8] = b"{}[]\",:0123456789eE+-.\\ nulltruefalse\tu";
        let mut rng = SplitMix64::new(seed);
        let text: String = (0..len)
            .map(|_| ALPHABET[(rng.next_u64() as usize) % ALPHABET.len()] as char)
            .collect();
        let _ = Json::parse(&text);
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing(extra in 1usize..4000, obj in any::<bool>()) {
        let depth = MAX_DEPTH + extra;
        let text = if obj {
            format!("{}null{}", "{\"k\":".repeat(depth), "}".repeat(depth))
        } else {
            format!("{}null{}", "[".repeat(depth), "]".repeat(depth))
        };
        let err = Json::parse(&text).unwrap_err();
        prop_assert!(err.msg.contains("nesting"), "{}", err);
    }

    #[test]
    fn generated_documents_round_trip(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let doc = random_doc(&mut rng, 4);
        let encoded = doc.to_string();
        let reparsed = Json::parse(&encoded);
        prop_assert_eq!(Ok(doc), reparsed);
    }
}
