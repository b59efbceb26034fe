//! Adversarial property tests for the strict JSON parser.
//!
//! `redbin::json::parse` now sits on a network boundary (`redbin-served`
//! feeds it raw socket lines), so it must reject malformed input with an
//! error — never a panic, a stack overflow, or a silent misparse. These
//! tests drive it with `redbin-testkit` property cases: deeply nested
//! documents around and far past the depth limit, truncations of valid
//! envelopes at every char boundary, duplicate object keys, and plain
//! byte garbage. String literals are checked against a reference decoder
//! that reads one character at a time, and a multi-megabyte literal must
//! parse in linear time.

use std::time::Duration;

use redbin::json::{self, Json, ParseError, MAX_DEPTH};
use redbin_testkit::{cases, Rng};

/// A random JSON document. `depth` bounds recursion so generation cannot
/// itself blow the stack; leaves cover every scalar variant including
/// strings with escapes and non-ASCII.
fn random_json(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.range_usize(0, 3) == 0;
    if leaf {
        match rng.range_usize(0, 6) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_bool()),
            2 => Json::Int(rng.next_i64()),
            3 => Json::UInt(rng.next_u64()),
            4 => Json::Num(rng.next_i64() as f64 / 64.0),
            _ => Json::Str(random_string(rng)),
        }
    } else if rng.next_bool() {
        let n = rng.range_usize(0, 4);
        Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
    } else {
        let n = rng.range_usize(0, 4);
        let mut obj = Json::object();
        for i in 0..n {
            // Distinct keys: the strict parser rejects duplicates.
            obj.set(
                &format!("k{i}-{}", random_string(rng)),
                random_json(rng, depth - 1),
            );
        }
        obj
    }
}

fn random_string(rng: &mut Rng) -> String {
    let n = rng.range_usize(0, 8);
    (0..n)
        .map(|_| *rng.pick(&['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', 'µ', '⌘']))
        .collect()
}

/// Serializes `inner` wrapped in `extra` levels of `[` … `]` nesting.
fn nested(extra: usize, inner: &str) -> String {
    let mut s = String::with_capacity(extra * 2 + inner.len());
    for _ in 0..extra {
        s.push('[');
    }
    s.push_str(inner);
    for _ in 0..extra {
        s.push(']');
    }
    s
}

#[test]
fn random_documents_roundtrip_through_both_renderings() {
    cases(200, 0x5EED_0001, |rng| {
        let doc = random_json(rng, 5);
        let compact = json::parse(&doc.to_compact()).expect("compact reparses");
        assert_eq!(compact.to_compact(), doc.to_compact());
        let pretty = json::parse(&doc.to_pretty()).expect("pretty reparses");
        assert_eq!(pretty.to_compact(), doc.to_compact());
    });
}

#[test]
fn depth_limit_is_exact_and_panic_free() {
    // Exactly at the limit: fine. One past: an error, not a crash.
    assert!(json::parse(&nested(MAX_DEPTH, "0")).is_ok());
    let err = json::parse(&nested(MAX_DEPTH + 1, "0")).unwrap_err();
    assert!(err.to_string().contains("deep"), "{err}");
    // Fuzz the boundary region and far past it (a recursive-descent parser
    // without the limit would overflow its stack near ~100k).
    cases(64, 0x5EED_0002, |rng| {
        let extra = rng.range_usize(1, 120_000);
        let doc = nested(extra, "true");
        match json::parse(&doc) {
            Ok(_) => assert!(extra <= MAX_DEPTH, "depth {extra} must be rejected"),
            Err(e) => assert!(extra > MAX_DEPTH, "depth {extra} must parse: {e}"),
        }
        // Unterminated nesting must also fail cleanly at any depth.
        let open_only = &doc[..extra];
        assert!(json::parse(open_only).is_err());
    });
}

#[test]
fn every_truncation_of_a_valid_envelope_errors_cleanly() {
    cases(60, 0x5EED_0003, |rng| {
        // Object-rooted like every wire envelope: any proper prefix is
        // incomplete, so the strict parser must error on all of them.
        let mut doc = Json::object();
        // Not a real envelope, just envelope-shaped fuzz input.
        doc.set("v", Json::UInt(1));
        doc.set("body", random_json(rng, 4));
        let line = doc.to_compact();
        for (cut, _) in line.char_indices() {
            let truncated = &line[..cut];
            assert!(
                json::parse(truncated).is_err(),
                "prefix of length {cut} of {line:?} must not parse"
            );
        }
        assert!(json::parse(&line).is_ok(), "the full line still parses");
    });
}

#[test]
fn duplicate_keys_are_rejected_wherever_they_hide() {
    cases(100, 0x5EED_0004, |rng| {
        // Build an object with distinct keys, then duplicate one of them at
        // a random position — possibly nested inside another object.
        let n = rng.range_usize(2, 6);
        let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
        let dup = rng.pick(&keys).clone();
        let mut fields: Vec<String> = keys
            .iter()
            .map(|k| format!("\"{k}\":{}", rng.range_u64(0, 100)))
            .collect();
        let at = rng.range_usize(0, fields.len() + 1);
        fields.insert(at, format!("\"{dup}\":null"));
        let flat = format!("{{{}}}", fields.join(","));
        let err = json::parse(&flat).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{flat}: {err}");
        let wrapped = format!("{{\"outer\":{flat}}}");
        assert!(json::parse(&wrapped).is_err(), "{wrapped}");
        // The same key in sibling objects is fine.
        let siblings = format!("{{\"a\":{{\"{dup}\":1}},\"b\":{{\"{dup}\":2}}}}");
        assert!(json::parse(&siblings).is_ok(), "{siblings}");
    });
}

#[test]
fn byte_garbage_never_panics_the_parser() {
    cases(300, 0x5EED_0005, |rng| {
        let n = rng.range_usize(0, 64);
        let garbage: String = (0..n)
            .map(|_| {
                *rng.pick(&[
                    '{', '}', '[', ']', '"', ':', ',', '\\', '0', '9', '-', '+', '.', 'e', 't',
                    'f', 'n', 'u', 'l', ' ', '\n', '\u{0}', 'µ', '𝕊',
                ])
            })
            .collect();
        // Any outcome is acceptable except a panic; errors must carry a
        // message (offsets are checked by the unit tests).
        if let Err(e) = json::parse(&garbage) {
            assert!(!e.to_string().is_empty());
        }
    });
}

/// The reference for string literals: decodes a document holding one
/// string literal one character at a time, with the parser's rules for
/// escapes, whitespace and trailing content. The parser copies whole runs
/// between quotes and backslashes; it must agree with this on every value
/// and on every error's offset and message.
fn reference_string_doc(text: &str) -> Result<Json, ParseError> {
    let fail = |at: usize, message: &str| {
        Err(ParseError {
            at,
            message: message.to_string(),
        })
    };
    let b = text.as_bytes();
    let skip_ws = |mut pos: usize| {
        while matches!(b.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            pos += 1;
        }
        pos
    };
    let mut pos = skip_ws(0);
    if b.get(pos) != Some(&b'"') {
        return fail(pos, "the reference decodes string literals only");
    }
    pos += 1;
    let mut out = String::new();
    loop {
        let Some(c) = text[pos..].chars().next() else {
            return fail(pos, "unterminated string");
        };
        match c {
            '"' => {
                pos += 1;
                break;
            }
            '\\' => {
                pos += 1;
                match text[pos..].chars().next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let Some(hex) = b.get(pos + 1..pos + 5) else {
                            return fail(pos, "truncated \\u escape");
                        };
                        let Some(code) = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                        else {
                            return fail(pos, "bad \\u escape");
                        };
                        let Some(c) = char::from_u32(code) else {
                            return fail(pos, "unsupported \\u escape");
                        };
                        out.push(c);
                        pos += 4;
                    }
                    _ => return fail(pos, "bad escape"),
                }
                pos += 1;
            }
            c => {
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
    let end = skip_ws(pos);
    if end != b.len() {
        return fail(end, "trailing content");
    }
    Ok(Json::Str(out))
}

/// A random string literal, well-formed or not: plain runs, multi-byte
/// UTF-8, raw control characters, every escape, `\u` escapes valid,
/// surrogate, truncated and malformed, and stray backslashes; the closing
/// quote is sometimes missing and trailing content sometimes present.
fn random_string_literal(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "a",
        "Zq9",
        "plain words ",
        "{}[]:,",
        "µ",
        "⌘",
        "𝕊",
        "é",
        "\n",
        "\t",
        "\u{0}",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\u2318",
        "\\uFFFF",
        "\\u0000",
        "\\uD800",
        "\\uDFFF",
        "\\u+041",
        "\\u-041",
        "\\u12",
        "\\uZZZZ",
        "\\u0⌘",
        "\\u00⌘",
        "\\uµµ",
        "\\x",
        "\\µ",
        "\\",
    ];
    let mut s = String::new();
    for _ in 0..rng.range_usize(0, 3) {
        s.push(*rng.pick(&[' ', '\n', '\t']));
    }
    s.push('"');
    for _ in 0..rng.range_usize(0, 12) {
        s.push_str(rng.pick::<&str>(PIECES));
    }
    if rng.range_usize(0, 5) != 0 {
        s.push('"');
    }
    match rng.range_usize(0, 6) {
        0 => s.push_str(" \r\n"),
        1 => s.push('x'),
        2 => s.push_str(" \"µ\""),
        _ => {}
    }
    s
}

#[test]
fn string_literals_decode_like_the_char_at_a_time_reference() {
    // Fixed edge cases first: each escape error at its offset, and the
    // accepted `\u+hhh` that `from_str_radix` lets through.
    for doc in [
        r#""""#,
        r#""abc"#,
        r#""\"#,
        r#""\u12"#,
        r#""\u12""#,
        r#""\uD800""#,
        r#""\u+041""#,
        r#""\q""#,
        "\"\\u00⌘\"",
        r#""ok" x"#,
    ] {
        assert_eq!(json::parse(doc), reference_string_doc(doc), "{doc:?}");
    }
    cases(2000, 0x5EED_0006, |rng| {
        let doc = random_string_literal(rng);
        assert_eq!(json::parse(&doc), reference_string_doc(&doc), "{doc:?}");
    });
}

#[test]
fn a_four_mib_string_literal_parses_in_linear_time() {
    const TARGET: usize = 4 << 20;
    let unit = r#"plain ascii text µ⌘𝕊 \n\t\u00e9\\ \" "#;
    let decoded_unit = "plain ascii text µ⌘𝕊 \n\té\\ \" ";
    let copies = TARGET / unit.len() + 1;
    let doc = format!("\"{}\"", unit.repeat(copies));
    assert!(doc.len() > TARGET);
    // Linear parsing takes well under a second even unoptimised; a parser
    // that rescans the rest of the input per character would take hours,
    // so it runs on a thread the test stops waiting for after 10 s.
    let (tx, rx) = std::sync::mpsc::channel();
    let parser = std::thread::spawn(move || tx.send(json::parse(&doc)));
    let parsed = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a 4 MiB string parses within 10 s")
        .expect("parses");
    parser.join().expect("parser thread").expect("sent");
    assert_eq!(parsed, Json::Str(decoded_unit.repeat(copies)));
}
