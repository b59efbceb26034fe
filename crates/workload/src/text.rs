//! A text-format assembler: parse human-written assembly into programs.
//!
//! The syntax mirrors the disassembly the simulator prints, plus labels,
//! sections, data directives, constant expressions and file inclusion:
//!
//! ```text
//! ; sum the numbers 1..=N
//!         .equ N, 10
//!         .reg r1, N           ; initial register value
//! loop:   addq r2, r1, r2
//!         subq r1, #1, r1
//!         bne r1, loop
//!         halt
//!
//!         .data 0x1000
//! table:  .quad 7, 8, N*N      ; initialized quadwords
//! msg:    .asciz "done"
//!
//!         .bss 0x100000
//! buf:    .space 4096          ; uninitialized scratch
//! ```
//!
//! # Sections
//!
//! Assembly starts in `.text`. `.data [addr]` and `.bss [addr]` switch to
//! the byte-addressed data sections; each keeps its own location counter
//! (defaults `0x1000` and `0x100000`), adjustable with the optional
//! address argument, `.org expr`, and `.align expr`. Labels defined in
//! `.text` name instruction indices; labels in `.data`/`.bss` name byte
//! addresses. All labels share one namespace and may be referenced from
//! any section (`lda r1, buf` loads a data address into a register).
//!
//! # Directives
//!
//! * `.reg rN, expr` — initial register value (any section).
//! * `.u64 addr, v0, v1…` / `.bytes addr, b0…` — legacy absolute-address
//!   data, kept for backward compatibility (any section).
//! * `.byte e0, e1…`, `.word e0…` (4 bytes), `.quad e0…` (8 bytes) — emit
//!   initialized data at the location counter (`.data` only).
//! * `.ascii "s"` / `.asciz "s"` — string bytes, the latter NUL-terminated
//!   (`.data` only).
//! * `.space count [, fill]` — advance the counter (`fill` only in `.data`).
//! * `.align n` — round the counter up to a multiple of `n`.
//! * `.org expr` — set the counter (`.data`/`.bss` only).
//! * `.equ name, expr` — define a constant (expression over earlier
//!   symbols).
//! * `.entry label` — set the program entry point (default 0).
//! * `.include "path"` — splice another source file (see
//!   [`parse_with`]/[`parse_file_listing`]; cyclic includes are an error).
//!
//! # Expressions
//!
//! Every integer position accepts a constant expression over literals
//! (decimal, `0x` hex with optional `_` separators, `'c'` character
//! literals) and symbols, with C-like precedence: unary `- ~ +`, then
//! `* / %`, `+ -`, `<< >>`, `&`, `^`, `|`, and parentheses. Immediates are
//! written `#expr`; memory operands `expr(base)`. Branch targets are
//! labels (or symbol expressions, taken as absolute instruction indices);
//! a pure numeric branch target is a relative displacement, matching the
//! simulator's disassembly output.
//!
//! Comments start with `;` (outside string/char literals) or `#` at the
//! start of a line. Labels end with `:` and may share a line with an
//! instruction or directive.

use std::collections::HashMap;

use redbin_isa::{Inst, Opcode, Operand, Program, Reg};

/// A parse error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The file the error is in (`None` for the top-level string input).
    pub file: Option<String>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.file {
            Some(name) => write!(f, "{name}:{}:{}: {}", self.line, self.column, self.message),
            None => write!(f, "line {}:{}: {}", self.line, self.column, self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Resolves `.include "path"` directives to source text.
///
/// Implemented for closures (`Fn(&str) -> Result<String, String>`), so a
/// test can serve includes from a map and [`parse_file_listing`] from
/// the filesystem.
pub trait IncludeSource {
    /// Returns the text of `path`, or a human-readable failure reason.
    fn read(&self, path: &str) -> Result<String, String>;
}

impl<F: Fn(&str) -> Result<String, String>> IncludeSource for F {
    fn read(&self, path: &str) -> Result<String, String> {
        self(path)
    }
}

/// The resolver behind [`parse`]: every include fails.
struct NoIncludes;

impl IncludeSource for NoIncludes {
    fn read(&self, _path: &str) -> Result<String, String> {
        Err("no include resolver (use parse_with or parse_file_listing)".to_string())
    }
}

/// The source position an assembled instruction came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstSpan {
    /// The file the instruction is in (`None` for the top-level input).
    pub file: Option<String>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column of the mnemonic.
    pub column: usize,
}

impl std::fmt::Display for InstSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.file {
            Some(name) => write!(f, "{name}:{}:{}", self.line, self.column),
            None => write!(f, "{}:{}", self.line, self.column),
        }
    }
}

/// Source-level metadata for an assembled program: the per-instruction
/// line:column spans plus every `redbin-lint: allow(<rule>)` comment —
/// what lets the static program passes render findings at their source
/// positions and honor an assembly program's suppressions.
#[derive(Debug, Clone, Default)]
pub struct Listing {
    spans: Vec<InstSpan>,
    /// `(file, line, comment text)` of every allow-comment seen.
    allows: Vec<(Option<String>, usize, String)>,
}

impl Listing {
    /// The span of instruction `index`, when known.
    pub fn span(&self, index: usize) -> Option<&InstSpan> {
        self.spans.get(index)
    }

    /// `true` if instruction `index`'s source line — or the line above
    /// it — carries `redbin-lint: allow(<rule>)`.
    pub fn suppresses(&self, index: usize, rule: &str) -> bool {
        let Some(span) = self.span(index) else {
            return false;
        };
        let marker = format!("allow({rule})");
        self.allows.iter().any(|(file, line, text)| {
            file == &span.file
                && (*line == span.line || *line + 1 == span.line)
                && text.contains(&marker)
        })
    }
}

/// Parses a text program with no `.include` support.
///
/// # Errors
///
/// Reports the first syntax error, undefined label, or malformed directive
/// with its line and column.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    parse_with(source, &NoIncludes)
}

/// Parses a text program, resolving `.include` directives through
/// `includes`.
///
/// # Errors
///
/// As [`parse`], plus failed, cyclic, or too-deeply-nested includes.
pub fn parse_with(source: &str, includes: &dyn IncludeSource) -> Result<Program, ParseError> {
    Assembler::new(includes)
        .assemble(source, None)
        .map(|(p, _)| p)
}

/// Like [`parse`], but also returns the [`Listing`] mapping each
/// instruction back to its source position (no `.include` support).
///
/// # Errors
///
/// As [`parse`].
pub fn parse_listing(source: &str) -> Result<(Program, Listing), ParseError> {
    parse_with_listing(source, &NoIncludes)
}

/// Like [`parse_with`], but also returns the [`Listing`] mapping each
/// instruction back to its source position.
///
/// # Errors
///
/// As [`parse_with`].
pub fn parse_with_listing(
    source: &str,
    includes: &dyn IncludeSource,
) -> Result<(Program, Listing), ParseError> {
    Assembler::new(includes).assemble(source, None)
}

/// Parses an assembly file; `.include` paths resolve relative to the
/// file's directory. Also returns the [`Listing`] mapping each
/// instruction back to its source position (spans carry the file name).
///
/// # Errors
///
/// As [`parse_with`], plus an unreadable root file (reported as a
/// [`ParseError`] at line 0).
pub fn parse_file_listing(
    path: impl AsRef<std::path::Path>,
) -> Result<(Program, Listing), ParseError> {
    let path = path.as_ref();
    let name = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| ParseError {
        file: Some(name.clone()),
        line: 0,
        column: 0,
        message: format!("cannot read file: {e}"),
    })?;
    let base = path.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    let fs_includes = move |p: &str| -> Result<String, String> {
        std::fs::read_to_string(base.join(p)).map_err(|e| e.to_string())
    };
    Assembler::new(&fs_includes).assemble(&text, Some(name))
}

const MAX_INCLUDE_DEPTH: usize = 16;

/// Position of a statement: file table index (`usize::MAX` = top level),
/// line, column.
#[derive(Debug, Clone, Copy)]
struct Pos {
    file: usize,
    line: usize,
    column: usize,
}

/// One comment-stripped source line with its origin.
struct SrcLine {
    file: usize,
    line: usize,
    text: String,
}

/// A raw operand with the column it starts at.
#[derive(Debug, Clone)]
struct Arg {
    text: String,
    column: usize,
}

/// A not-yet-encoded instruction (operands resolve in pass 2).
struct PendingInst {
    op: Opcode,
    args: Vec<Arg>,
    pos: Pos,
}

/// Deferred data emission (values resolve in pass 2).
enum Payload {
    /// Little-endian integers of `size` bytes each.
    Words {
        size: usize,
        items: Vec<Arg>,
        pos: Pos,
    },
    /// Literal bytes (strings, fills) — already resolved.
    Bytes(Vec<u8>),
}

struct DataChunk {
    addr: u64,
    payload: Payload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
    Bss,
}

struct Assembler<'a> {
    includes: &'a dyn IncludeSource,
    /// Names of files seen (for error reporting); index = `Pos::file`.
    files: Vec<String>,
    symbols: HashMap<String, i64>,
    insts: Vec<PendingInst>,
    chunks: Vec<DataChunk>,
    init_regs: Vec<(Reg, Arg, Pos)>,
    entry: Option<(Arg, Pos)>,
    section: Section,
    data_loc: u64,
    bss_loc: u64,
    /// `.space` intervals with no chunk behind them (`.bss` storage and
    /// unfilled `.data` gaps) — part of the program's declared regions.
    space_regions: Vec<(u64, u64)>,
    /// Every `redbin-lint: allow(...)` comment: `(file, line, text)`.
    allows: Vec<(Option<String>, usize, String)>,
}

impl<'a> Assembler<'a> {
    fn new(includes: &'a dyn IncludeSource) -> Self {
        Assembler {
            includes,
            files: Vec::new(),
            symbols: HashMap::new(),
            insts: Vec::new(),
            chunks: Vec::new(),
            init_regs: Vec::new(),
            entry: None,
            section: Section::Text,
            data_loc: 0x1000,
            bss_loc: 0x10_0000,
            space_regions: Vec::new(),
            allows: Vec::new(),
        }
    }

    fn err(&self, pos: Pos, column: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            file: self.files.get(pos.file).cloned(),
            line: pos.line,
            column,
            message: message.into(),
        }
    }

    fn assemble(
        mut self,
        source: &str,
        name: Option<String>,
    ) -> Result<(Program, Listing), ParseError> {
        // Flatten includes into one line stream, then run the two passes.
        let mut lines = Vec::new();
        let root_file = match name {
            Some(n) => {
                self.files.push(n);
                0
            }
            None => usize::MAX,
        };
        let mut stack: Vec<String> = Vec::new();
        self.flatten(source, root_file, &mut stack, &mut lines)?;
        for line in &lines {
            self.statement(line)?;
        }
        let spans = self
            .insts
            .iter()
            .map(|p| InstSpan {
                file: self.files.get(p.pos.file).cloned(),
                line: p.pos.line,
                column: p.pos.column,
            })
            .collect();
        let allows = std::mem::take(&mut self.allows);
        let program = self.finish()?;
        Ok((program, Listing { spans, allows }))
    }

    /// Expands `.include` directives depth-first into a flat line stream.
    fn flatten(
        &mut self,
        source: &str,
        file: usize,
        stack: &mut Vec<String>,
        out: &mut Vec<SrcLine>,
    ) -> Result<(), ParseError> {
        for (lineno, raw) in source.lines().enumerate() {
            let line = lineno + 1;
            if let Some(pos) = raw.find("redbin-lint:") {
                let file_name = if file == usize::MAX {
                    None
                } else {
                    self.files.get(file).cloned()
                };
                self.allows.push((file_name, line, raw[pos..].to_string()));
            }
            let text = strip_comment(raw);
            let trimmed = text.trim_start();
            if let Some(rest) = trimmed.strip_prefix(".include") {
                let pos = Pos {
                    file,
                    line,
                    column: text.len() - trimmed.len() + 1,
                };
                let path =
                    parse_string_literal(rest.trim(), pos.column, |c, m| self.err(pos, c, m))?;
                if stack.iter().any(|p| p == &path) {
                    return Err(self.err(pos, pos.column, format!("cyclic .include of `{path}`")));
                }
                if stack.len() >= MAX_INCLUDE_DEPTH {
                    return Err(self.err(
                        pos,
                        pos.column,
                        format!("includes nested more than {MAX_INCLUDE_DEPTH} deep"),
                    ));
                }
                let included = self.includes.read(&path).map_err(|e| {
                    self.err(pos, pos.column, format!("cannot include `{path}`: {e}"))
                })?;
                self.files.push(path.clone());
                let sub_file = self.files.len() - 1;
                stack.push(path);
                self.flatten(&included, sub_file, stack, out)?;
                stack.pop();
            } else {
                out.push(SrcLine {
                    file,
                    line,
                    text: text.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Pass 1 over one line: define labels, emit pending instructions and
    /// data chunks, track sections and location counters.
    fn statement(&mut self, src: &SrcLine) -> Result<(), ParseError> {
        let pos0 = Pos {
            file: src.file,
            line: src.line,
            column: 1,
        };
        let full = src.text.as_str();
        let mut rest = full.trim_start();
        if rest.starts_with('#') {
            return Ok(()); // whole-line comment
        }
        // Labels (possibly several) at the start of the statement.
        while let Some(tok) = rest.split_whitespace().next() {
            let Some(name) = tok.strip_suffix(':') else {
                break;
            };
            let column = col_of(full, rest);
            if !is_identifier(name) {
                return Err(self.err(pos0, column, format!("malformed label `{name}`")));
            }
            let value = match self.section {
                Section::Text => self.insts.len() as i64,
                Section::Data => self.data_loc as i64,
                Section::Bss => self.bss_loc as i64,
            };
            self.define(name, value, pos0, column)?;
            rest = rest[tok.len()..].trim_start();
        }
        if rest.is_empty() {
            return Ok(());
        }
        let head_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        let (head, tail) = rest.split_at(head_end);
        let pos = Pos {
            file: src.file,
            line: src.line,
            column: col_of(full, rest),
        };
        let args = split_args(tail, col_of(full, tail));
        if let Some(directive) = head.strip_prefix('.') {
            self.directive(directive, &args, pos, full)
        } else {
            self.instruction(head, args, pos)
        }
    }

    fn define(
        &mut self,
        name: &str,
        value: i64,
        pos: Pos,
        column: usize,
    ) -> Result<(), ParseError> {
        if self.symbols.insert(name.to_string(), value).is_some() {
            return Err(self.err(pos, column, format!("label `{name}` defined twice")));
        }
        Ok(())
    }

    /// Evaluates an expression with the symbols known *so far* — used in
    /// pass 1 for location-affecting values, which cannot forward-reference.
    fn eval_now(&self, arg: &Arg, pos: Pos) -> Result<i64, ParseError> {
        eval_expr(&arg.text, arg.column, &self.symbols, &mut |c, m| {
            self.err(pos, c, m)
        })
    }

    fn directive(
        &mut self,
        name: &str,
        args: &[Arg],
        pos: Pos,
        _full: &str,
    ) -> Result<(), ParseError> {
        let need = |n: usize| -> Result<(), ParseError> {
            if args.len() != n {
                Err(self.err(
                    pos,
                    pos.column,
                    format!(".{name} takes {n} operand(s), got {}", args.len()),
                ))
            } else {
                Ok(())
            }
        };
        let data_only = |me: &Self| -> Result<(), ParseError> {
            if me.section != Section::Data {
                Err(me.err(pos, pos.column, format!(".{name} is only valid in .data")))
            } else {
                Ok(())
            }
        };
        match name {
            "text" => {
                need(0)?;
                self.section = Section::Text;
            }
            "data" | "bss" => {
                if args.len() > 1 {
                    return Err(self.err(
                        pos,
                        pos.column,
                        format!(".{name} takes at most one operand"),
                    ));
                }
                let addr = match args.first() {
                    Some(a) => Some(self.eval_now(a, pos)? as u64),
                    None => None,
                };
                if name == "data" {
                    self.section = Section::Data;
                    if let Some(a) = addr {
                        self.data_loc = a;
                    }
                } else {
                    self.section = Section::Bss;
                    if let Some(a) = addr {
                        self.bss_loc = a;
                    }
                }
            }
            "org" => {
                need(1)?;
                let v = self.eval_now(&args[0], pos)? as u64;
                match self.section {
                    Section::Text => {
                        return Err(self.err(pos, pos.column, ".org is only valid in .data/.bss"))
                    }
                    Section::Data => self.data_loc = v,
                    Section::Bss => self.bss_loc = v,
                }
            }
            "align" => {
                need(1)?;
                if self.section == Section::Text {
                    return Err(self.err(pos, pos.column, ".align is only valid in .data/.bss"));
                }
                let n = self.eval_now(&args[0], pos)?;
                if n <= 0 || (n & (n - 1)) != 0 {
                    return Err(self.err(
                        pos,
                        args[0].column,
                        format!(".align needs a positive power of two, got {n}"),
                    ));
                }
                let n = n as u64;
                match self.section {
                    Section::Data => self.data_loc = self.data_loc.div_ceil(n) * n,
                    _ => self.bss_loc = self.bss_loc.div_ceil(n) * n,
                }
            }
            "equ" => {
                need(2)?;
                if !is_identifier(&args[0].text) {
                    return Err(self.err(
                        pos,
                        args[0].column,
                        format!(".equ needs a symbol name, got `{}`", args[0].text),
                    ));
                }
                let v = self.eval_now(&args[1], pos)?;
                let name = args[0].text.clone();
                self.define(&name, v, pos, args[0].column)?;
            }
            "entry" => {
                need(1)?;
                if self.entry.is_some() {
                    return Err(self.err(pos, pos.column, ".entry given twice"));
                }
                self.entry = Some((args[0].clone(), pos));
            }
            "reg" => {
                need(2)?;
                let r = parse_reg_tok(&args[0], |c, m| self.err(pos, c, m))?;
                self.init_regs.push((r, args[1].clone(), pos));
            }
            "u64" => {
                // Legacy absolute form: `.u64 addr, v0, v1…`.
                if args.len() < 2 {
                    return Err(self.err(pos, pos.column, ".u64 takes `addr, v0, v1…`"));
                }
                let addr = self.eval_now(&args[0], pos)? as u64;
                self.chunks.push(DataChunk {
                    addr,
                    payload: Payload::Words {
                        size: 8,
                        items: args[1..].to_vec(),
                        pos,
                    },
                });
            }
            "bytes" => {
                if args.len() < 2 {
                    return Err(self.err(pos, pos.column, ".bytes takes `addr, b0, b1…`"));
                }
                let addr = self.eval_now(&args[0], pos)? as u64;
                self.chunks.push(DataChunk {
                    addr,
                    payload: Payload::Words {
                        size: 1,
                        items: args[1..].to_vec(),
                        pos,
                    },
                });
            }
            "byte" | "word" | "quad" => {
                data_only(self)?;
                if args.is_empty() {
                    return Err(self.err(
                        pos,
                        pos.column,
                        format!(".{name} needs at least one value"),
                    ));
                }
                let size = match name {
                    "byte" => 1,
                    "word" => 4,
                    _ => 8,
                };
                self.chunks.push(DataChunk {
                    addr: self.data_loc,
                    payload: Payload::Words {
                        size,
                        items: args.to_vec(),
                        pos,
                    },
                });
                self.data_loc += (args.len() * size) as u64;
            }
            "ascii" | "asciz" => {
                data_only(self)?;
                need(1)?;
                let mut bytes = parse_string_literal(&args[0].text, args[0].column, |c, m| {
                    self.err(pos, c, m)
                })?
                .into_bytes();
                if name == "asciz" {
                    bytes.push(0);
                }
                self.data_loc += bytes.len() as u64;
                self.chunks.push(DataChunk {
                    addr: self.data_loc - bytes.len() as u64,
                    payload: Payload::Bytes(bytes),
                });
            }
            "space" => {
                if args.is_empty() || args.len() > 2 {
                    return Err(self.err(pos, pos.column, ".space takes `count [, fill]`"));
                }
                if self.section == Section::Text {
                    return Err(self.err(pos, pos.column, ".space is only valid in .data/.bss"));
                }
                let count = self.eval_now(&args[0], pos)?;
                if count < 0 {
                    return Err(self.err(
                        pos,
                        args[0].column,
                        format!(".space count must be non-negative, got {count}"),
                    ));
                }
                if let Some(fill) = args.get(1) {
                    if self.section == Section::Bss {
                        return Err(self.err(
                            pos,
                            fill.column,
                            ".bss space cannot take a fill byte",
                        ));
                    }
                    let v = self.eval_now(fill, pos)?;
                    let b = byte_value(v).ok_or_else(|| {
                        self.err(pos, fill.column, format!("fill byte {v} out of range"))
                    })?;
                    self.chunks.push(DataChunk {
                        addr: self.data_loc,
                        payload: Payload::Bytes(vec![b; count as usize]),
                    });
                } else if count > 0 {
                    // Unfilled storage never becomes a data chunk, so it
                    // must be declared as a region directly.
                    let loc = match self.section {
                        Section::Bss => self.bss_loc,
                        _ => self.data_loc,
                    };
                    self.space_regions.push((loc, count as u64));
                }
                match self.section {
                    Section::Bss => self.bss_loc += count as u64,
                    _ => self.data_loc += count as u64, // .text rejected above
                }
            }
            other => {
                return Err(self.err(pos, pos.column, format!("unknown directive `.{other}`")));
            }
        }
        Ok(())
    }

    fn instruction(&mut self, mnemonic: &str, args: Vec<Arg>, pos: Pos) -> Result<(), ParseError> {
        if self.section != Section::Text {
            return Err(self.err(
                pos,
                pos.column,
                format!("instruction `{mnemonic}` outside .text"),
            ));
        }
        let op = opcode_by_name(mnemonic)
            .ok_or_else(|| self.err(pos, pos.column, format!("unknown mnemonic `{mnemonic}`")))?;
        self.insts.push(PendingInst { op, args, pos });
        Ok(())
    }

    /// Pass 2: all symbols known; encode instructions and data.
    fn finish(mut self) -> Result<Program, ParseError> {
        let insts = std::mem::take(&mut self.insts);
        let mut code = Vec::with_capacity(insts.len());
        for (site, p) in insts.iter().enumerate() {
            code.push(self.encode(p, site)?);
        }
        let chunks = std::mem::take(&mut self.chunks);
        let mut data: Vec<(u64, Vec<u8>)> = Vec::new();
        for c in chunks {
            let bytes = match c.payload {
                Payload::Bytes(b) => b,
                Payload::Words { size, items, pos } => {
                    let mut out = Vec::with_capacity(items.len() * size);
                    for item in &items {
                        let v = self.eval_final(item, pos)?;
                        match size {
                            1 => out.push(byte_value(v).ok_or_else(|| {
                                self.err(pos, item.column, format!("byte value {v} out of range"))
                            })?),
                            4 => {
                                if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
                                    return Err(self.err(
                                        pos,
                                        item.column,
                                        format!("word value {v} out of range"),
                                    ));
                                }
                                out.extend_from_slice(&(v as u32).to_le_bytes());
                            }
                            _ => out.extend_from_slice(&(v as u64).to_le_bytes()),
                        }
                    }
                    out
                }
            };
            if !bytes.is_empty() {
                data.push((c.addr, bytes));
            }
        }
        let init_regs = std::mem::take(&mut self.init_regs);
        let mut regs = Vec::with_capacity(init_regs.len());
        for (r, arg, pos) in &init_regs {
            regs.push((r.0, self.eval_final(arg, *pos)? as u64));
        }
        let entry = match self.entry.take() {
            Some((arg, pos)) => {
                let v = self.eval_final(&arg, pos)?;
                if v < 0 || v as usize >= code.len().max(1) {
                    return Err(self.err(
                        pos,
                        arg.column,
                        format!("entry {v} is outside the code (0..{})", code.len()),
                    ));
                }
                v as usize
            }
            None => 0,
        };
        let mut program = Program::new(code);
        program.entry = entry;
        // Declare the `.data`/`.bss` footprint explicitly: every chunk's
        // extent plus the unfilled `.space` intervals. The static bounds
        // pass proves loads and stores against exactly these regions.
        for (addr, bytes) in &data {
            program = program.with_region(*addr, bytes.len() as u64);
        }
        for &(addr, len) in &self.space_regions {
            program = program.with_region(addr, len);
        }
        for (addr, bytes) in data {
            program = program.with_data(addr, bytes);
        }
        for (r, v) in regs {
            program = program.with_reg(r, v);
        }
        Ok(program)
    }

    /// Evaluates with the complete symbol table (pass 2).
    fn eval_final(&self, arg: &Arg, pos: Pos) -> Result<i64, ParseError> {
        eval_expr(&arg.text, arg.column, &self.symbols, &mut |c, m| {
            self.err(pos, c, m)
        })
    }

    /// Resolves a branch target operand to a displacement from `site`.
    fn branch_disp(&self, arg: &Arg, pos: Pos, site: usize) -> Result<i64, ParseError> {
        // A bare undefined symbol reads best as "undefined label".
        if is_identifier(&arg.text) && !self.symbols.contains_key(arg.text.as_str()) {
            return Err(self.err(pos, arg.column, format!("undefined label `{}`", arg.text)));
        }
        let v = self.eval_final(arg, pos)?;
        if expr_is_literal(&arg.text) {
            // Pure numeric target: a relative displacement (the form the
            // disassembler prints).
            Ok(v)
        } else {
            if v < 0 {
                return Err(self.err(
                    pos,
                    arg.column,
                    format!("branch target {v} is before the code"),
                ));
            }
            Ok(v - (site as i64 + 1))
        }
    }

    fn encode(&self, p: &PendingInst, site: usize) -> Result<Inst, ParseError> {
        use Opcode::*;
        let pos = p.pos;
        let op = p.op;
        let args = &p.args;
        let need = |n: usize| -> Result<(), ParseError> {
            if args.len() != n {
                Err(self.err(
                    pos,
                    pos.column,
                    format!("{op} takes {n} operand(s), got {}", args.len()),
                ))
            } else {
                Ok(())
            }
        };
        let reg = |a: &Arg| parse_reg_tok(a, |c, m| self.err(pos, c, m));
        Ok(match op {
            Halt => {
                need(0)?;
                Inst::halt()
            }
            Ret | Jmp => {
                need(1)?;
                let target = args[0].text.trim_start_matches('(').trim_end_matches(')');
                let ra = parse_reg_tok(
                    &Arg {
                        text: target.to_string(),
                        column: args[0].column,
                    },
                    |c, m| self.err(pos, c, m),
                )?;
                if op == Ret {
                    Inst::ret(ra)
                } else {
                    Inst {
                        op,
                        ra,
                        rb: Operand::Imm(0),
                        rc: Reg::RA,
                        disp: 0,
                    }
                }
            }
            Br => {
                need(1)?;
                Inst::br(self.branch_disp(&args[0], pos, site)?)
            }
            Bsr => match args.len() {
                // `bsr label` (links r26) or `bsr rN, label`.
                1 => Inst::bsr(self.branch_disp(&args[0], pos, site)?, Reg::RA),
                2 => {
                    let rc = reg(&args[0])?;
                    Inst::bsr(self.branch_disp(&args[1], pos, site)?, rc)
                }
                n => {
                    return Err(self.err(
                        pos,
                        pos.column,
                        format!("bsr takes 1 or 2 operands, got {n}"),
                    ))
                }
            },
            Beq | Bne | Blt | Bge | Ble | Bgt | Blbs | Blbc => {
                need(2)?;
                Inst::branch(op, reg(&args[0])?, self.branch_disp(&args[1], pos, site)?)
            }
            Lda | Ldah => {
                need(2)?;
                let rc = reg(&args[0])?;
                let (base, disp) = self.mem_operand(&args[1], pos, true)?;
                Inst::lda(op, base, disp, rc)
            }
            _ if op.is_mem() => {
                need(2)?;
                let rc = reg(&args[0])?;
                let (base, disp) = self.mem_operand(&args[1], pos, false)?;
                Inst::mem(op, rc, base, disp)
            }
            _ => {
                need(3)?;
                let ra = reg(&args[0])?;
                let rb = self.operand(&args[1], pos)?;
                let rc = reg(&args[2])?;
                Inst::op(op, ra, rb, rc)
            }
        })
    }

    /// `#expr` immediate or register operand.
    fn operand(&self, arg: &Arg, pos: Pos) -> Result<Operand, ParseError> {
        if let Some(expr) = arg.text.strip_prefix('#') {
            let inner = Arg {
                text: expr.to_string(),
                column: arg.column + 1,
            };
            Ok(Operand::Imm(self.eval_final(&inner, pos)?))
        } else {
            Ok(Operand::Reg(parse_reg_tok(arg, |c, m| {
                self.err(pos, c, m)
            })?))
        }
    }

    /// `expr(base)` → (base, disp). With `bare_ok`, a parenless expression
    /// means `expr(r31)` — the `lda rc, symbol` idiom.
    fn mem_operand(&self, arg: &Arg, pos: Pos, bare_ok: bool) -> Result<(Reg, i64), ParseError> {
        let t = arg.text.as_str();
        // The base register lives in the *last* parenthesized group, so
        // `(x+1)*2(r3)` parses; a lone trailing `)` without `(` is an error.
        if let Some(open) = t.rfind('(') {
            if t.ends_with(')') && open < t.len() - 1 {
                let inner = &t[open + 1..t.len() - 1];
                if let Some(body) = inner.strip_prefix('r') {
                    if body.chars().all(|c| c.is_ascii_digit()) && !body.is_empty() {
                        let disp = if open == 0 {
                            0
                        } else {
                            self.eval_final(
                                &Arg {
                                    text: t[..open].to_string(),
                                    column: arg.column,
                                },
                                pos,
                            )?
                        };
                        let base = parse_reg_tok(
                            &Arg {
                                text: inner.to_string(),
                                column: arg.column + open + 1,
                            },
                            |c, m| self.err(pos, c, m),
                        )?;
                        return Ok((base, disp));
                    }
                }
            }
        }
        if bare_ok {
            // `lda rc, expr` — address relative to r31 (= absolute).
            let disp = self.eval_final(arg, pos)?;
            return Ok((Reg::R31, disp));
        }
        Err(self.err(pos, arg.column, format!("expected `disp(base)`, got `{t}`")))
    }
}

// ---- lexical helpers -------------------------------------------------------

/// 1-based column of the suffix `rest` within `full`.
fn col_of(full: &str, rest: &str) -> usize {
    full.len() - rest.len() + 1
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn byte_value(v: i64) -> Option<u8> {
    if (-128..=255).contains(&v) {
        Some(v as u8)
    } else {
        None
    }
}

/// Removes a `;` comment, honoring string and character literals.
fn strip_comment(raw: &str) -> &str {
    let bytes = raw.as_bytes();
    let mut in_str = false;
    let mut in_char = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str || in_char => i += 1, // skip the escaped byte
            b'"' if !in_char => in_str = !in_str,
            b'\'' if !in_str => in_char = !in_char,
            b';' if !in_str && !in_char => return &raw[..i],
            _ => {}
        }
        i += 1;
    }
    raw
}

/// Splits an operand list on top-level commas (outside quotes and
/// parentheses), recording each operand's starting column.
fn split_args(tail: &str, base_col: usize) -> Vec<Arg> {
    let bytes = tail.as_bytes();
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut in_char = false;
    let mut start = 0usize;
    let push = |args: &mut Vec<Arg>, from: usize, to: usize| {
        let piece = &tail[from..to];
        let lead = piece.len() - piece.trim_start().len();
        let text = piece.trim().to_string();
        if !text.is_empty() {
            args.push(Arg {
                text,
                column: base_col + from + lead,
            });
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str || in_char => i += 1,
            b'"' if !in_char => in_str = !in_str,
            b'\'' if !in_str => in_char = !in_char,
            b'(' if !in_str && !in_char => depth += 1,
            b')' if !in_str && !in_char => depth -= 1,
            b',' if !in_str && !in_char && depth == 0 => {
                push(&mut args, start, i);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    push(&mut args, start, bytes.len());
    args
}

/// Parses `"text"` with escapes (`\n \t \r \0 \\ \" \xNN`).
fn parse_string_literal(
    tok: &str,
    col: usize,
    mk: impl Fn(usize, String) -> ParseError,
) -> Result<String, ParseError> {
    let inner = tok
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| mk(col, format!("expected a quoted string, got `{tok}`")))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('x') => {
                let hi = chars.next();
                let lo = chars.next();
                let (Some(hi), Some(lo)) = (hi, lo) else {
                    return Err(mk(col, "truncated \\x escape".to_string()));
                };
                let v = u8::from_str_radix(&format!("{hi}{lo}"), 16)
                    .map_err(|_| mk(col, format!("bad \\x escape `\\x{hi}{lo}`")))?;
                out.push(v as char);
            }
            other => {
                return Err(mk(
                    col,
                    format!(
                        "unknown escape `\\{}`",
                        other.map(String::from).unwrap_or_default()
                    ),
                ))
            }
        }
    }
    Ok(out)
}

fn parse_reg_tok(arg: &Arg, mk: impl Fn(usize, String) -> ParseError) -> Result<Reg, ParseError> {
    let tok = arg.text.as_str();
    let body = tok
        .strip_prefix('r')
        .filter(|b| !b.is_empty() && b.chars().all(|c| c.is_ascii_digit()))
        .ok_or_else(|| mk(arg.column, format!("expected a register, got `{tok}`")))?;
    let n: u8 = body
        .parse()
        .map_err(|_| mk(arg.column, format!("bad register `{tok}`")))?;
    if n >= 32 {
        return Err(mk(arg.column, format!("register r{n} out of range")));
    }
    Ok(Reg(n))
}

fn opcode_by_name(name: &str) -> Option<Opcode> {
    Opcode::all().iter().copied().find(|o| o.mnemonic() == name)
}

// ---- constant expressions --------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum ETok {
    Num(i64),
    Sym(String),
    Op(u8),
    Shl,
    Shr,
    LParen,
    RParen,
}

/// `true` if the expression contains no symbols — branch targets that are
/// pure literals are displacements, not absolute indices.
fn expr_is_literal(text: &str) -> bool {
    match lex_expr(text, 1, &mut |_, _| ParseError {
        file: None,
        line: 0,
        column: 0,
        message: String::new(),
    }) {
        Ok(toks) => toks.iter().all(|(t, _)| !matches!(t, ETok::Sym(_))),
        Err(_) => false,
    }
}

fn lex_expr(
    text: &str,
    base_col: usize,
    mk: &mut dyn FnMut(usize, String) -> ParseError,
) -> Result<Vec<(ETok, usize)>, ParseError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let col = base_col + i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' => i += 1,
            b'(' => {
                toks.push((ETok::LParen, col));
                i += 1;
            }
            b')' => {
                toks.push((ETok::RParen, col));
                i += 1;
            }
            b'<' | b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b {
                    toks.push((if b == b'<' { ETok::Shl } else { ETok::Shr }, col));
                    i += 2;
                } else {
                    return Err(mk(col, format!("bad operator `{}`", b as char)));
                }
            }
            b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' | b'~' => {
                toks.push((ETok::Op(b), col));
                i += 1;
            }
            b'\'' => {
                // Character literal with the string-escape repertoire.
                let rest = &text[i + 1..];
                let (ch, consumed) = match rest.chars().next() {
                    Some('\\') => {
                        let mut it = rest.chars();
                        it.next();
                        match it.next() {
                            Some('n') => ('\n', 2),
                            Some('t') => ('\t', 2),
                            Some('r') => ('\r', 2),
                            Some('0') => ('\0', 2),
                            Some('\\') => ('\\', 2),
                            Some('\'') => ('\'', 2),
                            _ => return Err(mk(col, "bad character escape".to_string())),
                        }
                    }
                    Some(c) => (c, c.len_utf8()),
                    None => return Err(mk(col, "unterminated character literal".to_string())),
                };
                let close = i + 1 + consumed;
                if bytes.get(close) != Some(&b'\'') {
                    return Err(mk(col, "unterminated character literal".to_string()));
                }
                toks.push((ETok::Num(ch as i64), col));
                i = close + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let tok = &text[start..i];
                let clean: String = tok.chars().filter(|&c| c != '_').collect();
                let parsed = if let Some(hex) = clean
                    .strip_prefix("0x")
                    .or_else(|| clean.strip_prefix("0X"))
                {
                    u64::from_str_radix(hex, 16).map(|v| v as i64)
                } else {
                    // Accept the full u64 range; values above i64::MAX wrap
                    // to their two's-complement bit pattern.
                    clean
                        .parse::<u64>()
                        .map(|v| v as i64)
                        .or_else(|_| clean.parse::<i64>())
                };
                match parsed {
                    Ok(v) => toks.push((ETok::Num(v), base_col + start)),
                    Err(_) => return Err(mk(base_col + start, format!("bad integer `{tok}`"))),
                }
            }
            _ if (b as char).is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((ETok::Sym(text[start..i].to_string()), base_col + start));
            }
            other => {
                return Err(mk(col, format!("unexpected character `{}`", other as char)));
            }
        }
    }
    Ok(toks)
}

struct ExprParser<'a> {
    toks: &'a [(ETok, usize)],
    pos: usize,
    end_col: usize,
    symbols: &'a HashMap<String, i64>,
}

/// A binary operator of the expression grammar: its value, or why the
/// operands have none.
type BinaryOp = fn(i64, i64) -> Result<i64, &'static str>;

impl<'a> ExprParser<'a> {
    fn peek(&self) -> Option<&ETok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn col(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, c)| c)
            .unwrap_or(self.end_col)
    }

    fn bump(&mut self) -> Option<ETok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expr(&mut self, mk: &mut dyn FnMut(usize, String) -> ParseError) -> Result<i64, ParseError> {
        self.binary(0, mk)
    }

    /// Precedence climbing; level 0 = `|`, rising to 5 = `* / %`.
    fn binary(
        &mut self,
        level: u8,
        mk: &mut dyn FnMut(usize, String) -> ParseError,
    ) -> Result<i64, ParseError> {
        if level > 5 {
            return self.unary(mk);
        }
        let mut lhs = self.binary(level + 1, mk)?;
        loop {
            let apply: Option<BinaryOp> = match (level, self.peek()) {
                (0, Some(ETok::Op(b'|'))) => Some(|a, b| Ok(a | b)),
                (1, Some(ETok::Op(b'^'))) => Some(|a, b| Ok(a ^ b)),
                (2, Some(ETok::Op(b'&'))) => Some(|a, b| Ok(a & b)),
                (3, Some(ETok::Shl)) => Some(|a, b| {
                    u32::try_from(b)
                        .ok()
                        .filter(|&s| s < 64)
                        .map(|s| ((a as u64) << s) as i64)
                        .ok_or("shift count out of range")
                }),
                (3, Some(ETok::Shr)) => Some(|a, b| {
                    u32::try_from(b)
                        .ok()
                        .filter(|&s| s < 64)
                        .map(|s| ((a as u64) >> s) as i64)
                        .ok_or("shift count out of range")
                }),
                (4, Some(ETok::Op(b'+'))) => Some(|a, b| Ok(a.wrapping_add(b))),
                (4, Some(ETok::Op(b'-'))) => Some(|a, b| Ok(a.wrapping_sub(b))),
                (5, Some(ETok::Op(b'*'))) => Some(|a, b| Ok(a.wrapping_mul(b))),
                (5, Some(ETok::Op(b'/'))) => Some(|a, b| {
                    if b == 0 {
                        Err("division by zero")
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                }),
                (5, Some(ETok::Op(b'%'))) => Some(|a, b| {
                    if b == 0 {
                        Err("division by zero")
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }),
                _ => None,
            };
            let Some(f) = apply else { return Ok(lhs) };
            let col = self.col();
            self.bump();
            let rhs = self.binary(level + 1, mk)?;
            lhs = f(lhs, rhs).map_err(|e| mk(col, e.to_string()))?;
        }
    }

    fn unary(
        &mut self,
        mk: &mut dyn FnMut(usize, String) -> ParseError,
    ) -> Result<i64, ParseError> {
        match self.peek() {
            Some(ETok::Op(b'-')) => {
                self.bump();
                Ok(self.unary(mk)?.wrapping_neg())
            }
            Some(ETok::Op(b'+')) => {
                self.bump();
                self.unary(mk)
            }
            Some(ETok::Op(b'~')) => {
                self.bump();
                Ok(!self.unary(mk)?)
            }
            _ => self.atom(mk),
        }
    }

    fn atom(&mut self, mk: &mut dyn FnMut(usize, String) -> ParseError) -> Result<i64, ParseError> {
        let col = self.col();
        match self.bump() {
            Some(ETok::Num(v)) => Ok(v),
            Some(ETok::Sym(name)) => self
                .symbols
                .get(&name)
                .copied()
                .ok_or_else(|| mk(col, format!("undefined symbol `{name}`"))),
            Some(ETok::LParen) => {
                let v = self.expr(mk)?;
                match self.bump() {
                    Some(ETok::RParen) => Ok(v),
                    _ => Err(mk(col, "unclosed parenthesis".to_string())),
                }
            }
            other => Err(mk(
                col,
                match other {
                    Some(_) => "expected a value".to_string(),
                    None => "missing expression".to_string(),
                },
            )),
        }
    }
}

/// Evaluates a constant expression over `symbols`; errors carry the column
/// of the offending token (`base_col` = column of the expression start).
fn eval_expr(
    text: &str,
    base_col: usize,
    symbols: &HashMap<String, i64>,
    mk: &mut dyn FnMut(usize, String) -> ParseError,
) -> Result<i64, ParseError> {
    let toks = lex_expr(text, base_col, mk)?;
    if toks.is_empty() {
        return Err(mk(base_col, "missing expression".to_string()));
    }
    let mut p = ExprParser {
        toks: &toks,
        pos: 0,
        end_col: base_col + text.len(),
        symbols,
    };
    let v = p.expr(mk)?;
    if p.pos != toks.len() {
        let col = p.col();
        return Err(mk(col, "trailing junk after expression".to_string()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_isa::Emulator;

    #[test]
    fn parses_and_runs_a_loop() {
        let src = r#"
            ; sum 1..=10
                    .reg r1, 10
            loop:   addq r2, r1, r2
                    subq r1, #1, r1
                    bne r1, loop
                    halt
        "#;
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(1000).expect("halts");
        assert_eq!(e.reg(Reg(2)), 55);
    }

    #[test]
    fn memory_and_data_directives() {
        let src = r#"
            .u64 0x1000, 7, 8, 9
            .reg r1, 0x1000
            ldq r2, 16(r1)
            stq r2, (r1)
            ldq r3, (r1)
            halt
        "#;
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(100).expect("halts");
        assert_eq!(e.reg(Reg(3)), 9);
    }

    #[test]
    fn calls_and_returns() {
        let src = r#"
                bsr f
                halt
            f:  addq r1, #42, r1
                ret r26
        "#;
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(100).expect("halts");
        assert_eq!(e.reg(Reg(1)), 42);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("addq r1, r2\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("\nfoo r1, r2, r3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown mnemonic"));
        let e = parse("bne r1, nowhere\nhalt\n").unwrap_err();
        assert!(e.message.contains("undefined label"));
        let e = parse("x: halt\nx: halt\n").unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn negative_and_hex_immediates() {
        let src = "addq r31, #-5, r1\nand r1, #0xff, r2\nhalt\n";
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(10).expect("halts");
        assert_eq!(e.reg(Reg(1)) as i64, -5);
        assert_eq!(e.reg(Reg(2)), 0xfb);
    }

    #[test]
    fn display_output_reparses_for_operates() {
        // The disassembly of operate/memory instructions is valid input.
        let insts = [
            Inst::op(Opcode::S8addq, Reg(3), Operand::Reg(Reg(4)), Reg(5)),
            Inst::op(Opcode::Xor, Reg(1), Operand::Imm(7), Reg(2)),
            Inst::mem(Opcode::Stb, Reg(9), Reg(10), -3),
        ];
        for i in insts {
            let src = format!("{i}\nhalt\n");
            let p = parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(p.code[0], i);
        }
    }

    // ---- sections, data directives and expressions -------------------------

    #[test]
    fn data_section_with_labels_and_expressions() {
        let src = r#"
                .equ BASE, 0x2000
                .equ N, 3
                .data BASE
        tab:    .quad 1, 2, N*N + 1
        small:  .byte 'A', 'A'+1, 0x7f
                .align 8
        big:    .quad tab
                .text
                .reg r1, tab
                ldq r2, (N-1)*8(r1)     ; tab[2] = 10
                lda r3, small
                ldbu r4, 1(r3)          ; 'B'
                .reg r5, big
                ldq r6, (r5)            ; address of tab
                halt
        "#;
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(100).expect("halts");
        assert_eq!(e.reg(Reg(2)), 10);
        assert_eq!(e.reg(Reg(4)), u64::from(b'B'));
        assert_eq!(e.reg(Reg(6)), 0x2000);
    }

    #[test]
    fn bss_and_strings() {
        let src = r#"
                .data 0x3000
        msg:    .asciz "hi;)"       ; the ; is inside the string
                .bss 0x5000
        buf:    .space 64
        after:
                .text
                lda r1, msg
                ldbu r2, 3(r1)      ; ')'
                lda r3, after
                halt
        "#;
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(100).expect("halts");
        assert_eq!(e.reg(Reg(2)), u64::from(b')'));
        assert_eq!(e.reg(Reg(3)), 0x5000 + 64);
    }

    #[test]
    fn word_directive_and_space_fill() {
        let src = r#"
                .data 0x4000
        w:      .word 7, -1
        f:      .space 4, 0xab
                .text
                .reg r1, 0x4000
                ldl r2, (r1)
                ldl r3, 4(r1)
                ldbu r4, f - w + 1(r1)
                halt
        "#;
        let p = parse(src).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(100).expect("halts");
        assert_eq!(e.reg(Reg(2)), 7);
        assert_eq!(e.reg(Reg(3)) as i64, -1);
        assert_eq!(e.reg(Reg(4)), 0xab);
    }

    #[test]
    fn entry_directive() {
        let src = "
            dead:   halt
            start:  addq r31, #9, r1
                    halt
            .entry start
        ";
        let p = parse(src).expect("parses");
        assert_eq!(p.entry, 1);
        let mut e = Emulator::new(&p);
        e.run(10).expect("halts");
        assert_eq!(e.reg(Reg(1)), 9);
    }

    #[test]
    fn includes_resolve_through_a_source_map() {
        let lib = "double: addq r1, r1, r1\n        ret r26\n";
        let resolver = move |path: &str| -> Result<String, String> {
            match path {
                "lib.s" => Ok(lib.to_string()),
                other => Err(format!("not found: {other}")),
            }
        };
        let src = "
                .reg r1, 21
                bsr double
                halt
                .include \"lib.s\"
        ";
        let p = parse_with(src, &resolver).expect("parses");
        let mut e = Emulator::new(&p);
        e.run(100).expect("halts");
        assert_eq!(e.reg(Reg(1)), 42);
    }

    #[test]
    fn cyclic_includes_are_an_error() {
        let resolver = |path: &str| -> Result<String, String> {
            match path {
                "a.s" => Ok(".include \"b.s\"\n".to_string()),
                "b.s" => Ok(".include \"a.s\"\n".to_string()),
                other => Err(format!("not found: {other}")),
            }
        };
        let e = parse_with(".include \"a.s\"\n", &resolver).unwrap_err();
        assert!(e.message.contains("cyclic .include"), "{e}");
        assert_eq!(e.file.as_deref(), Some("b.s"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn include_errors_name_the_file() {
        let resolver = |path: &str| -> Result<String, String> {
            match path {
                "bad.s" => Ok("\nbogus r1, r2, r3\n".to_string()),
                other => Err(format!("not found: {other}")),
            }
        };
        let e = parse_with(".include \"bad.s\"\n", &resolver).unwrap_err();
        assert_eq!(e.file.as_deref(), Some("bad.s"));
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown mnemonic"), "{e}");
        let e = parse(".include \"lib.s\"\n").unwrap_err();
        assert!(e.message.contains("no include resolver"), "{e}");
    }

    #[test]
    fn structured_errors_have_columns() {
        // column points at the offending token, 1-based
        let e = parse("        addq r1, #1+, r2\n").unwrap_err();
        assert_eq!((e.line, e.column), (1, 21), "{e}");
        let e = parse("addq r99, #1, r2\n").unwrap_err();
        assert_eq!((e.line, e.column), (1, 6), "{e}");
        assert!(e.message.contains("out of range"), "{e}");
        let e = parse(".data 0x100\n.byte 999\n").unwrap_err();
        assert_eq!((e.line, e.column), (2, 7), "{e}");
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn malformed_labels_and_directives_error_cleanly() {
        let e = parse("1bad: halt\n").unwrap_err();
        assert!(e.message.contains("malformed label"), "{e}");
        let e = parse(".frobnicate 3\n").unwrap_err();
        assert!(e.message.contains("unknown directive"), "{e}");
        let e = parse(".data\n.byte\n").unwrap_err();
        assert!(e.message.contains("at least one value"), "{e}");
        let e = parse(".byte 1\n").unwrap_err();
        assert!(e.message.contains("only valid in .data"), "{e}");
        let e = parse(".data 0x100\nhalt\n").unwrap_err();
        assert!(e.message.contains("outside .text"), "{e}");
        let e = parse(".equ x, 1/0\n").unwrap_err();
        assert!(e.message.contains("division by zero"), "{e}");
        let e = parse(".bss 0x100\n.space 8, 1\n").unwrap_err();
        assert!(e.message.contains("fill"), "{e}");
        let e = parse(".align 3\n").unwrap_err();
        assert!(e.message.contains("only valid in .data"), "{e}");
    }

    #[test]
    fn numeric_branch_targets_are_displacements() {
        // The disassembler prints `beq r2, -4`; reparse must preserve it.
        let i = Inst::branch(Opcode::Beq, Reg(2), -1);
        let src = format!("addq r31, #1, r1\n{i}\nhalt\n");
        let p = parse(&src).expect("parses");
        assert_eq!(p.code[1], i);
    }

    #[test]
    fn listing_spans_and_allow_comments() {
        let src = "\
        .reg r1, 3
start:  addq r1, #1, r2
        ; redbin-lint: allow(unused-result)
        addq r2, #1, r3
        addq r3, #1, r4 ; redbin-lint: allow(dead-store)
        halt
";
        let (p, listing) = parse_with_listing(src, &NoIncludes).expect("parses");
        assert_eq!(p.code.len(), 4);
        let s0 = listing.span(0).expect("span");
        assert_eq!((s0.file.as_deref(), s0.line, s0.column), (None, 2, 9));
        assert_eq!(listing.span(3).map(|s| s.line), Some(6));
        assert!(listing.span(4).is_none());
        // allow() suppresses on the same line and from the line above.
        assert!(listing.suppresses(1, "unused-result"));
        assert!(!listing.suppresses(1, "dead-store"));
        assert!(listing.suppresses(2, "dead-store"));
        assert!(!listing.suppresses(0, "unused-result"));
    }

    #[test]
    fn sections_declare_memory_regions() {
        let src = r#"
                .data 0x1000
        tab:    .quad 1, 2, 3
                .bss 0x5000
        buf:    .space 64
                .text
                halt
        "#;
        let p = parse(src).expect("parses");
        assert_eq!(p.memory_regions(), vec![(0x1000, 24), (0x5000, 64)]);
    }

    #[test]
    fn expressions_follow_precedence() {
        let cases = [
            ("1+2*3", 7),
            ("(1+2)*3", 9),
            ("1<<4|1", 17),
            ("~0&0xff", 255),
            ("-7%3", -1),
            ("'z'-'a'", 25),
            ("16>>2", 4),
            ("10-3-4", 3),
        ];
        for (expr, want) in cases {
            let src = format!(".equ v, {expr}\n.reg r1, v\nhalt\n");
            let p = parse(&src).unwrap_or_else(|e| panic!("{expr}: {e}"));
            assert_eq!(p.init_regs[0].1 as i64, want, "{expr}");
        }
    }
}
