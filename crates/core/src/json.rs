//! A dependency-free structured JSON layer for experiment results.
//!
//! The workspace builds offline, so there is no serde: this module provides
//! a small [`Json`] value type, a deterministic pretty-printer, a strict
//! parser (used by the tests to validate emitted documents), and one
//! serializer per experiment result in [`crate::experiments`].
//!
//! Determinism matters here — the golden-snapshot tests compare emitted
//! documents byte-for-byte. Object keys keep insertion order, and floats
//! are formatted with Rust's shortest-roundtrip `Display`, which is
//! platform-independent. Non-finite floats serialize as `null` (JSON has
//! no representation for them).

use std::fmt::Write as _;

use redbin_gates::report::DelayReport;
use redbin_isa::format::{Table1Counts, Table1Row};
use redbin_sim::stats::{BypassCase, SimStats, StallCause};
use redbin_sim::CoreModel;
use redbin_workload::{Benchmark, Scale};

use crate::experiments::{Figure13, Figure14, IpcFigure, ProgramsReport, Table3Row};

/// A JSON value. Objects preserve insertion order (deterministic output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float. NaN and infinities serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) a key in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on a non-object")
        };
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            pairs.push((key.to_string(), value));
        }
        self
    }

    /// Object lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as u64, if an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — the framing used by
    /// the newline-delimited wire protocol ([`crate::wire`]), where one
    /// document occupies exactly one line.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's Display is shortest-roundtrip; ensure the token stays a JSON
    // number with a decimal point (Display prints `2` for 2.0).
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parsing ---------------------------------------------------------------

/// A parse error: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting depth the parser accepts.
///
/// The parser is recursive, and since PR 2 it sits on a network boundary
/// (the `redbin-served` wire protocol), so unbounded nesting would let a
/// hostile peer overflow the stack with a few kilobytes of `[[[[…`. No
/// legitimate redbin document nests anywhere near this deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (strict: exactly one value plus whitespace,
/// container nesting limited to [`MAX_DEPTH`], duplicate object keys
/// rejected).
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn check_depth(at: usize, depth: usize) -> Result<(), ParseError> {
    if depth >= MAX_DEPTH {
        Err(err(at, "nesting too deep"))
    } else {
        Ok(())
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    check_depth(*pos, depth)?;
    expect(b, pos, b'{')?;
    let mut pairs: Vec<(String, Json)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key_at = *pos;
        let key = parse_string(b, pos)?;
        if pairs.iter().any(|(k, _)| *k == key) {
            // Our writer never emits duplicates; accepting them on a
            // network boundary would make lookups ambiguous.
            return Err(err(key_at, "duplicate object key"));
        }
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    check_depth(*pos, depth)?;
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not emitted by our writer; reject.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "unsupported \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash at
                // once. Both are ASCII, so the run ends on a char boundary
                // and validating it costs time linear in its length.
                let start = *pos;
                let len = b[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(b.len() - start);
                let run = std::str::from_utf8(&b[start..start + len])
                    .map_err(|e| err(start + e.valid_up_to(), "invalid utf-8"))?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let tok = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if tok.is_empty() || tok == "-" {
        return Err(err(start, "expected a value"));
    }
    if !float {
        if let Ok(u) = tok.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
        if let Ok(i) = tok.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    tok.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "bad number"))
}

// ---- experiment serializers -------------------------------------------------

/// Schema version stamped into every document produced by this module.
pub const SCHEMA_VERSION: u32 = 1;

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn benchmark_name(b: Benchmark) -> Json {
    Json::Str(b.name().to_string())
}

/// Serializes one run's [`SimStats`], including the stall-cause breakdown.
pub fn sim_stats(s: &SimStats) -> Json {
    let mut causes = Vec::new();
    for &c in StallCause::all() {
        causes.push((c.key().to_string(), Json::UInt(s.stall.count(c))));
    }
    let mut cases = Vec::new();
    for &c in BypassCase::all() {
        cases.push((c.label().to_string(), Json::UInt(s.bypass_cases.count(c))));
    }
    obj(vec![
        ("cycles", Json::UInt(s.cycles)),
        ("width", Json::UInt(s.width)),
        ("retired", Json::UInt(s.retired)),
        ("ipc", Json::Num(s.ipc())),
        ("branches", Json::UInt(s.branches)),
        ("mispredicts", Json::UInt(s.mispredicts)),
        ("icache-misses", Json::UInt(s.icache_misses)),
        ("dcache-accesses", Json::UInt(s.dcache_accesses)),
        ("dcache-misses", Json::UInt(s.dcache_misses)),
        ("l2-hits", Json::UInt(s.l2_hits)),
        ("l2-misses", Json::UInt(s.l2_misses)),
        ("store-forwards", Json::UInt(s.store_forwards)),
        ("load-blocks", Json::UInt(s.load_blocks)),
        ("bypassed-operands", Json::UInt(s.bypassed_operands)),
        ("regfile-operands", Json::UInt(s.regfile_operands)),
        ("fidelity-checks", Json::UInt(s.fidelity_checks)),
        (
            "stall",
            obj(vec![
                ("used", Json::UInt(s.stall.used)),
                ("charged", Json::UInt(s.stall.charged())),
                ("total-slots", Json::UInt(s.total_slots())),
                ("complete", Json::Bool(s.stall_accounting_is_complete())),
                ("causes", Json::Obj(causes)),
            ]),
        ),
        ("bypass-cases", Json::Obj(cases)),
    ])
}

/// One value per machine model, keyed by the model's name.
fn per_model<T>(values: &[T], f: impl Fn(&T) -> Json) -> Json {
    Json::Obj(
        CoreModel::all()
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name().to_string(), f(v)))
            .collect(),
    )
}

/// Serializes a Figures 9–12 style result (IPC of the four machine models
/// per benchmark, plus the full statistics each IPC was derived from).
pub fn ipc_figure(fig: &IpcFigure) -> Json {
    let models: Vec<Json> = CoreModel::all()
        .iter()
        .map(|m| Json::Str(m.name().to_string()))
        .collect();
    let rows: Vec<Json> = fig
        .rows
        .iter()
        .map(|r| {
            let mut o = vec![
                ("benchmark", benchmark_name(r.benchmark)),
                ("ipc", per_model(&r.ipc, |v| Json::Num(*v))),
            ];
            if !r.stats.is_empty() {
                o.push(("stats", per_model(&r.stats, sim_stats)));
            }
            obj(o)
        })
        .collect();
    let hm = fig.harmonic_means();
    let (gain, gap, limited_loss) = fig.headline_ratios();
    obj(vec![
        ("width", Json::UInt(fig.width as u64)),
        ("suite", Json::Str(fig.suite.name().to_string())),
        ("models", Json::Arr(models)),
        ("rows", Json::Arr(rows)),
        ("harmonic-means", per_model(&hm, |v| Json::Num(*v))),
        (
            "headline-ratios",
            obj(vec![
                ("rb-full-over-baseline", Json::Num(gain)),
                ("gap-to-ideal", Json::Num(gap)),
                ("limited-loss", Json::Num(limited_loss)),
            ]),
        ),
    ])
}

/// Serializes the whole-program suite result (per-program IPC across the
/// four machines plus the emulator-verified checksum).
pub fn programs(rep: &ProgramsReport) -> Json {
    let models: Vec<Json> = CoreModel::all()
        .iter()
        .map(|m| Json::Str(m.name().to_string()))
        .collect();
    let rows: Vec<Json> = rep
        .rows
        .iter()
        .map(|r| {
            obj(vec![
                ("program", Json::Str(r.program.name().to_string())),
                ("checksum", Json::Str(format!("{:016x}", r.checksum))),
                ("emulated-instructions", Json::UInt(r.emulated)),
                ("ipc", per_model(&r.ipc, |v| Json::Num(*v))),
                ("stats", per_model(&r.stats, sim_stats)),
            ])
        })
        .collect();
    let hm = rep.harmonic_means();
    obj(vec![
        ("width", Json::UInt(rep.width as u64)),
        ("models", Json::Arr(models)),
        ("rows", Json::Arr(rows)),
        ("harmonic-means", per_model(&hm, |v| Json::Num(*v))),
    ])
}

/// Serializes the Figure 13 bypass-case distribution.
pub fn figure13(fig: &Figure13) -> Json {
    let rows: Vec<Json> = fig
        .rows
        .iter()
        .map(|(b, cases, frac)| {
            obj(vec![
                ("benchmark", benchmark_name(*b)),
                (
                    "cases",
                    Json::Obj(
                        BypassCase::all()
                            .iter()
                            .map(|c| (c.label().to_string(), Json::UInt(cases.count(*c))))
                            .collect(),
                    ),
                ),
                ("total", Json::UInt(cases.total())),
                ("bypassed-inst-fraction", Json::Num(*frac)),
            ])
        })
        .collect();
    obj(vec![("rows", Json::Arr(rows))])
}

/// Serializes the Figure 14 limited-bypass sweep.
pub fn figure14(fig: &Figure14) -> Json {
    let rows: Vec<Json> = fig
        .rows
        .iter()
        .map(|r| {
            obj(vec![
                ("config", Json::Str(r.label.clone())),
                ("hmean-ipc-w4", Json::Num(r.hmean_w4)),
                ("hmean-ipc-w8", Json::Num(r.hmean_w8)),
            ])
        })
        .collect();
    obj(vec![("rows", Json::Arr(rows))])
}

/// Serializes one design-space point result (the `point` experiment
/// behind `redbin-explore`; see `EXPLORATION.md`).
pub fn point(r: &crate::experiments::PointResult) -> Json {
    let rows: Vec<Json> = r
        .rows
        .iter()
        .map(|&(b, ipc)| {
            obj(vec![
                ("benchmark", benchmark_name(b)),
                ("ipc", Json::Num(ipc)),
            ])
        })
        .collect();
    obj(vec![
        ("model", Json::Str(r.machine.model.name().to_string())),
        ("width", Json::UInt(r.machine.width as u64)),
        ("bypass", Json::Str(r.machine.bypass.label())),
        ("steering", Json::Str(r.machine.steering.name().to_string())),
        ("rb-rf-only", Json::Bool(r.machine.rb_rf_only)),
        ("rows", Json::Arr(rows)),
        ("hmean-ipc", Json::Num(r.hmean)),
        ("cycles", Json::UInt(r.cycles)),
        ("retired", Json::UInt(r.retired)),
    ])
}

fn table1_counts(c: &Table1Counts) -> Json {
    Json::Obj(
        Table1Row::all()
            .iter()
            .map(|r| (r.label().to_string(), Json::Num(c.fraction(*r))))
            .collect(),
    )
}

/// Serializes the Table 1 dynamic instruction mix.
pub fn table1(merged: &Table1Counts, per: &[(Benchmark, Table1Counts)]) -> Json {
    let rows: Vec<Json> = per
        .iter()
        .map(|(b, c)| {
            obj(vec![
                ("benchmark", benchmark_name(*b)),
                ("total", Json::UInt(c.total())),
                ("fractions", table1_counts(c)),
            ])
        })
        .collect();
    obj(vec![
        ("total", Json::UInt(merged.total())),
        ("fractions", table1_counts(merged)),
        ("per-benchmark", Json::Arr(rows)),
    ])
}

/// Serializes Table 3 (latency of each class per machine).
pub fn table3(rows: &[Table3Row]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("class", Json::Str(format!("{:?}", r.class))),
                ("baseline", Json::UInt(r.base)),
                ("rb", Json::UInt(r.rb)),
                ("rb-tc", r.rb_tc.map_or(Json::Null, Json::UInt)),
                ("ideal", Json::UInt(r.ideal)),
            ])
        })
        .collect();
    obj(vec![("rows", Json::Arr(rows))])
}

/// Serializes the §3.4 gate-level delay report.
pub fn delay_report(r: &DelayReport) -> Json {
    let rows: Vec<Json> = r
        .rows
        .iter()
        .map(|row| {
            obj(vec![
                ("width", Json::UInt(row.width as u64)),
                ("ripple", Json::Num(row.ripple)),
                ("cla", Json::Num(row.cla)),
                ("carry-select", Json::Num(row.carry_select)),
                ("rb", Json::Num(row.rb)),
                ("converter", Json::Num(row.converter)),
                ("cla-over-rb", Json::Num(row.cla_over_rb())),
            ])
        })
        .collect();
    obj(vec![
        ("model", Json::Str(format!("{:?}", r.model))),
        ("rows", Json::Arr(rows)),
    ])
}

/// Serializes a `(x, harmonic-mean IPC)` sweep (conversion latency, cluster
/// delay, window size, …).
pub fn sweep(x_label: &str, rows: &[(u64, f64)]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|(x, hm)| {
            obj(vec![
                (x_label, Json::UInt(*x)),
                ("hmean-ipc", Json::Num(*hm)),
            ])
        })
        .collect();
    obj(vec![("rows", Json::Arr(rows))])
}

/// Serializes the steering-policy comparison.
pub fn steering(rows: &[(&'static str, usize, f64)]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|(name, width, hm)| {
            obj(vec![
                ("policy", Json::Str((*name).to_string())),
                ("width", Json::UInt(*width as u64)),
                ("hmean-ipc", Json::Num(*hm)),
            ])
        })
        .collect();
    obj(vec![("rows", Json::Arr(rows))])
}

/// Wraps an experiment body with run metadata: schema version, experiment
/// name, workload scale, and wall-clock/throughput figures.
pub fn with_meta(experiment: &str, scale: Scale, elapsed: std::time::Duration, body: Json) -> Json {
    obj(vec![
        ("schema-version", Json::UInt(u64::from(SCHEMA_VERSION))),
        ("experiment", Json::Str(experiment.to_string())),
        ("scale", Json::Str(scale.name().to_string())),
        ("wall-seconds", Json::Num(elapsed.as_secs_f64())),
        ("result", body),
    ])
}

/// Serializes a [`MetricsRegistry`](redbin_telemetry::MetricsRegistry):
/// counters and gauges become flat objects, each histogram an object with
/// its bounds, raw per-bucket counts (last entry = overflow), sum, and
/// count. Gauges are sanitised by the registry, so the document never
/// contains non-finite numbers.
pub fn metrics(reg: &redbin_telemetry::MetricsRegistry) -> Json {
    let counters = Json::Obj(
        reg.counters()
            .map(|(n, v)| (n.to_string(), Json::UInt(v)))
            .collect(),
    );
    let gauges = Json::Obj(
        reg.gauges()
            .map(|(n, v)| (n.to_string(), Json::Num(v)))
            .collect(),
    );
    let histograms = Json::Obj(
        reg.histograms()
            .map(|(n, h)| {
                (
                    n.to_string(),
                    obj(vec![
                        (
                            "bounds",
                            Json::Arr(h.bounds().iter().map(|b| Json::UInt(*b)).collect()),
                        ),
                        (
                            "counts",
                            Json::Arr(h.counts().iter().map(|c| Json::UInt(*c)).collect()),
                        ),
                        ("sum", Json::UInt(h.sum())),
                        ("count", Json::UInt(h.count())),
                    ]),
                )
            })
            .collect(),
    );
    obj(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Writes a document to `path` (pretty-printed, trailing newline).
///
/// # Errors
///
/// Propagates I/O errors from the filesystem.
pub fn write_file(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_nesting() {
        let doc = obj(vec![
            ("a", Json::UInt(7)),
            ("b", Json::Num(1.5)),
            ("c", Json::Str("x \"quoted\"\nline".into())),
            (
                "d",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Int(-3)]),
            ),
            ("e", Json::object()),
            ("f", Json::Arr(vec![])),
        ]);
        let text = doc.to_pretty();
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn floats_are_json_numbers() {
        let mut s = String::new();
        write_f64(&mut s, 2.0);
        assert_eq!(s, "2.0");
        let mut s = String::new();
        write_f64(&mut s, 0.1);
        assert_eq!(s, "0.1");
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        let mut s = String::new();
        write_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }

    #[test]
    fn compact_roundtrips_and_is_one_line() {
        let doc = obj(vec![
            ("a", Json::UInt(7)),
            ("b", Json::Num(1.5)),
            ("c", Json::Str("x\n\"y\"".into())),
            ("d", Json::Arr(vec![Json::Null, Json::Bool(false)])),
            ("e", Json::object()),
        ]);
        let line = doc.to_compact();
        assert!(!line.contains('\n'), "compact form must be newline-free");
        assert_eq!(parse(&line).expect("parses"), doc);
        assert_eq!(
            line,
            r#"{"a":7,"b":1.5,"c":"x\n\"y\"","d":[null,false],"e":{}}"#
        );
    }

    #[test]
    fn parser_enforces_depth_limit() {
        // MAX_DEPTH nested arrays parse; one more level errors instead of
        // overflowing the stack.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let e = parse(&deep).expect_err("too deep");
        assert!(e.message.contains("deep"), "{e}");
        // Unclosed deep nesting must also error, not crash.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":[".repeat(100_000)).is_err());
    }

    #[test]
    fn parser_rejects_duplicate_keys() {
        let e = parse(r#"{"a":1,"a":2}"#).expect_err("duplicate");
        assert!(e.message.contains("duplicate"), "{e}");
        assert!(parse(r#"{"a":{"a":1},"b":{"a":2}}"#).is_ok());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parser_handles_numbers() {
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn sim_stats_document_is_valid_and_complete() {
        let mut s = SimStats {
            cycles: 10,
            width: 8,
            retired: 30,
            ..Default::default()
        };
        s.stall.used = 30;
        s.stall.charge(StallCause::FetchStarved, 50);
        let doc = sim_stats(&s);
        let text = doc.to_pretty();
        let back = parse(&text).expect("valid json");
        assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(10));
        let stall = back.get("stall").expect("stall");
        assert_eq!(stall.get("used").and_then(Json::as_u64), Some(30));
        assert_eq!(stall.get("total-slots").and_then(Json::as_u64), Some(80));
        let causes = stall.get("causes").expect("causes");
        assert_eq!(causes.get("fetch-starved").and_then(Json::as_u64), Some(50));
        // All seven causes present.
        for &c in StallCause::all() {
            assert!(causes.get(c.key()).is_some(), "missing {c}");
        }
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut o = Json::object();
        o.set("k", Json::UInt(1));
        o.set("k", Json::UInt(2));
        o.set("l", Json::Bool(false));
        assert_eq!(o.get("k").and_then(Json::as_u64), Some(2));
        assert_eq!(o.get("l"), Some(&Json::Bool(false)));
    }

    #[test]
    fn meta_wrapper_carries_the_body() {
        let doc = with_meta(
            "figure9",
            Scale::Test,
            std::time::Duration::from_millis(1500),
            obj(vec![("x", Json::UInt(1))]),
        );
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("figure9")
        );
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("test"));
        assert!(doc.get("wall-seconds").and_then(Json::as_f64).unwrap() > 1.0);
        assert_eq!(
            doc.get("result")
                .and_then(|r| r.get("x"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
