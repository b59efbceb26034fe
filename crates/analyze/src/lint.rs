//! Pass 3: a workspace source lint, std-only, line/token based.
//!
//! The linter walks every `.rs` file under the workspace root (skipping
//! `target/` and hidden directories) and applies a small set of named
//! rules. It deliberately does not parse Rust — a line/token scanner with
//! brace tracking is enough for the properties checked here, keeps the
//! pass dependency-free, and is fast enough to run as a CI gate.
//!
//! # Rules
//!
//! * **`no-panic`** — panicking constructs (`.unwrap()`, `.expect(`,
//!   `panic!`, `unreachable!`, `todo!`, `unimplemented!`) are forbidden in
//!   the always-on service loop (`crates/serve/src/server.rs`), the
//!   simulator's hot loop (`crates/sim/src/core.rs`), and the whole
//!   exploration service (`crates/explore/src/`). A worker thread that
//!   panics takes a queued job (or the whole service) with it; the hot loop
//!   runs billions of times; a grid driver must report a bad point, not
//!   die on it. Test modules are exempt.
//! * **`wildcard-stall-match`** — a `match` over [`StallCause`] or
//!   [`UnavailableReason`] must not have a `_ =>` arm: both taxonomies are
//!   designed to grow, and a wildcard silently absorbs new variants
//!   instead of forcing the accounting to be extended.
//! * **`wire-version`** — an envelope site that sets the `"v"` key must
//!   reference `WIRE_VERSION`, never re-hardcode the number; otherwise a
//!   protocol bump leaves stale envelopes behind.
//! * **`instant-now`** — raw `Instant::now()` is forbidden outside
//!   `crates/telemetry/` (plus test modules and `tests/` directories):
//!   wall-clock policy — monotonic reads, deadline arithmetic, phase
//!   timing — lives behind `redbin::telemetry::{Clock, Deadline,
//!   Stopwatch}` so it stays observable and consistently guarded against
//!   overflow.
//! * **`golden-json`** — every `tests/golden/*.json` manifest must parse
//!   with [`redbin::json::parse`] (the goldens gate byte-identical output,
//!   so an unparseable golden silently disables its test's protection).
//!
//! # Suppressions
//!
//! A finding on line *N* is suppressed if line *N* or line *N−1* carries
//! `// redbin-lint: allow(<rule>)` with the finding's rule name.
//!
//! [`StallCause`]: redbin::sim::stats::StallCause
//! [`UnavailableReason`]: redbin::sim::bypass::UnavailableReason

use std::path::{Path, PathBuf};

use redbin::json::Json;

/// Files (workspace-relative, `/`-separated) covered by `no-panic`.
pub const NO_PANIC_FILES: [&str; 2] = ["crates/serve/src/server.rs", "crates/sim/src/core.rs"];

/// Directory prefixes (workspace-relative, `/`-separated, trailing slash)
/// whose every `.rs` file is covered by `no-panic`. The exploration
/// service is a long-running fan-out driver: one panicking grid point
/// must surface as a structured error, not tear down the whole run. The
/// workload crate feeds `redbin-served` (custom programs assemble there
/// on worker threads) — a panic on attacker-shaped input kills a queued
/// job, so assembler/generator failures must be `Result`s or carry an
/// allow-comment arguing the invariant that makes them unreachable.
pub const NO_PANIC_DIRS: [&str; 2] = ["crates/explore/src/", "crates/workload/src/"];

/// Tokens `no-panic` forbids. These occurrences live in string literals,
/// which [`strip_line`] removes before matching — the linter does not flag
/// its own rule table.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Type names whose `match` expressions must be wildcard-free.
const STALL_TYPES: [&str; 2] = ["StallCause", "UnavailableReason"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule name (usable in an allow-comment).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
}

/// The lint pass result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of golden manifests checked.
    pub goldens_checked: usize,
    /// All findings, in path order.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// `true` if no rule fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Two comment-free views of one source line: `code` keeps string
/// literals intact (for rules that must see their contents, like
/// `wire-version`'s `"v"` key), `bare` empties them (so a rule token
/// quoted in a string — e.g. this linter's own tables — never fires).
/// Raw strings and char literals are handled approximately, which is
/// good enough for this codebase.
struct LineViews {
    code: String,
    bare: String,
}

/// If `chars[j]` closes a raw string with `hashes` hash marks, returns the
/// index just past the closing delimiter.
fn raw_close(chars: &[char], j: usize, hashes: usize) -> Option<usize> {
    if chars[j] != '"' {
        return None;
    }
    let tail = &chars[j + 1..];
    (tail.len() >= hashes && tail.iter().take(hashes).all(|&h| h == '#')).then(|| j + 1 + hashes)
}

/// `raw_str` carries the hash count of a raw string still open from a
/// previous line (`r#"…` with no closing `"#` yet); lines wholly inside
/// one produce empty views so brace counting stays in sync.
fn strip_line(line: &str, raw_str: &mut Option<usize>) -> LineViews {
    let chars: Vec<char> = line.chars().collect();
    let n = chars.len();
    let mut code = String::with_capacity(line.len());
    let mut bare = String::with_capacity(line.len());
    let mut i = 0;
    if let Some(hashes) = *raw_str {
        loop {
            if i >= n {
                return LineViews { code, bare }; // still inside the raw string
            }
            if let Some(next) = raw_close(&chars, i, hashes) {
                *raw_str = None;
                code.push('"');
                bare.push('"');
                i = next;
                break;
            }
            code.push(chars[i]);
            i += 1;
        }
    }
    while i < n {
        let c = chars[i];
        match c {
            '/' if i + 1 < n && chars[i + 1] == '/' => break,
            '"' => {
                // Ordinary string: copy contents into `code` only.
                code.push('"');
                bare.push('"');
                i += 1;
                while i < n {
                    match chars[i] {
                        '\\' => {
                            code.push('\\');
                            if i + 1 < n {
                                code.push(chars[i + 1]);
                            }
                            i += 2;
                        }
                        '"' => {
                            code.push('"');
                            bare.push('"');
                            i += 1;
                            break;
                        }
                        other => {
                            code.push(other);
                            i += 1;
                        }
                    }
                }
            }
            'r' if {
                // Raw string head: r, zero or more #, then a quote.
                let mut j = i + 1;
                while j < n && chars[j] == '#' {
                    j += 1;
                }
                j < n && chars[j] == '"'
            } =>
            {
                let mut hashes = 0;
                let mut j = i + 1;
                while chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                code.push('"');
                bare.push('"');
                j += 1; // past the opening quote
                let mut closed = false;
                while j < n {
                    if let Some(next) = raw_close(&chars, j, hashes) {
                        code.push('"');
                        bare.push('"');
                        j = next;
                        closed = true;
                        break;
                    }
                    code.push(chars[j]);
                    j += 1;
                }
                if !closed {
                    *raw_str = Some(hashes); // spans into following lines
                }
                i = j;
            }
            '\'' => {
                // Char literal ('x', '\n', '\''); lifetimes ('a in
                // generics) fall through as plain code.
                if i + 2 < n && chars[i + 1] == '\\' {
                    let mut j = i + 2;
                    while j < n && chars[j] != '\'' {
                        j += 1;
                    }
                    code.push('\'');
                    bare.push('\'');
                    i = (j + 1).min(n);
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    code.push('\'');
                    bare.push('\'');
                    i += 3;
                } else {
                    code.push('\'');
                    bare.push('\'');
                    i += 1;
                }
            }
            other => {
                code.push(other);
                bare.push(other);
                i += 1;
            }
        }
    }
    LineViews { code, bare }
}

/// Does `line` (raw, un-stripped) carry an allow-comment for `rule`?
fn allows(line: &str, rule: &str) -> bool {
    match line.find("redbin-lint:") {
        Some(pos) => {
            let rest = &line[pos..];
            rest.contains(&format!("allow({rule})"))
        }
        None => false,
    }
}

/// Scans one Rust source file. `rel` is the workspace-relative path.
fn scan_rust_file(rel: &str, text: &str, findings: &mut Vec<LintFinding>) {
    let lines: Vec<&str> = text.lines().collect();
    let no_panic =
        NO_PANIC_FILES.contains(&rel) || NO_PANIC_DIRS.iter().any(|d| rel.starts_with(d));
    // `instant-now` exemptions: the telemetry crate is the sanctioned home
    // of the raw call; integration-test directories poll real servers and
    // are covered by the test-module exemption in spirit.
    let lint_instant = !rel.starts_with("crates/telemetry/")
        && !rel.starts_with("tests/")
        && !rel.contains("/tests/");

    let mut depth: i64 = 0;
    // Depth below which each tracked scope ends: test modules, and open
    // match expressions. A match scope is marked "stall" once any of its
    // lines (head or arm) names a stall taxonomy type — the wildcard arm
    // conventionally comes last, after the variant arms that name it.
    let mut test_mod_until: Option<i64> = None;
    let mut match_scopes: Vec<(i64, bool)> = Vec::new();
    let mut pending_cfg_test = false;
    let mut raw_str: Option<usize> = None;

    let mut report = |line_no: usize, rule: &'static str, message: String| {
        let here = lines[line_no - 1];
        let above = if line_no >= 2 { lines[line_no - 2] } else { "" };
        if allows(here, rule) || allows(above, rule) {
            return;
        }
        findings.push(LintFinding {
            file: rel.to_string(),
            line: line_no,
            rule,
            message,
        });
    };

    for (i, raw) in lines.iter().enumerate() {
        let line_no = i + 1;
        let views = strip_line(raw, &mut raw_str);
        let code = views.code.as_str();
        let bare = views.bare.as_str();
        let trimmed = bare.trim();
        let depth_before = depth;
        let opens = bare.matches('{').count() as i64;
        let closes = bare.matches('}').count() as i64;
        depth += opens - closes;

        // Track `#[cfg(test)] mod …` so test code is exempt everywhere.
        if trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && trimmed.starts_with("mod ") {
            if test_mod_until.is_none() {
                test_mod_until = Some(depth_before);
            }
            pending_cfg_test = false;
        } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
            pending_cfg_test = false;
        }
        let in_tests = match test_mod_until {
            Some(until) => {
                if depth <= until {
                    test_mod_until = None;
                    true // the closing line itself still belongs to the module
                } else {
                    true
                }
            }
            None => false,
        };
        if in_tests {
            continue;
        }

        // Rule: wildcard-stall-match.
        let is_match_head = trimmed.contains("match ") && opens > closes;
        if is_match_head {
            match_scopes.push((depth_before, false));
        }
        match_scopes.retain(|&(until, _)| depth > until);
        if STALL_TYPES.iter().any(|t| bare.contains(t)) {
            if let Some(scope) = match_scopes.last_mut() {
                scope.1 = true;
            }
        }
        let in_stall_match = match_scopes.last().is_some_and(|&(_, stall)| stall);
        if in_stall_match && !is_match_head {
            let wildcard_arm = trimmed.starts_with("_ =>")
                || trimmed.contains(" _ =>")
                || trimmed.starts_with("_ |");
            if wildcard_arm {
                report(
                    line_no,
                    "wildcard-stall-match",
                    "wildcard arm in a match over a stall taxonomy; enumerate the variants"
                        .to_string(),
                );
            }
        }

        // Rule: no-panic (designated files only).
        if no_panic {
            for t in PANIC_TOKENS {
                if bare.contains(t) {
                    report(
                        line_no,
                        "no-panic",
                        format!("`{t}` in a no-panic file; handle the failure instead"),
                    );
                }
            }
        }

        // Rule: instant-now (everywhere except the telemetry crate).
        if lint_instant && bare.contains("Instant::now(") {
            report(
                line_no,
                "instant-now",
                "raw `Instant::now()`; use redbin::telemetry::{Clock, Deadline, Stopwatch}"
                    .to_string(),
            );
        }

        // Rule: wire-version. A `"v"` envelope assignment with a literal
        // integer instead of WIRE_VERSION.
        if code.contains("set(\"v\"")
            && code.contains("Json::UInt(")
            && !code.contains("WIRE_VERSION")
        {
            report(
                line_no,
                "wire-version",
                "envelope version hardcoded; reference WIRE_VERSION".to_string(),
            );
        }
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns an IO error if the tree cannot be read.
pub fn run(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for path in &files {
        let rel = relative(root, path);
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // non-UTF-8 — not a source file we lint
        };
        files_scanned += 1;
        scan_rust_file(&rel, &text, &mut findings);
    }

    // Rule: golden-json.
    let mut goldens_checked = 0usize;
    let golden_dir = root.join("tests").join("golden");
    if golden_dir.is_dir() {
        let mut goldens: Vec<PathBuf> = std::fs::read_dir(&golden_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        goldens.sort();
        for path in goldens {
            goldens_checked += 1;
            let rel = relative(root, &path);
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    if let Err(e) = redbin::json::parse(&text) {
                        findings.push(LintFinding {
                            file: rel,
                            line: 1,
                            rule: "golden-json",
                            message: format!("golden manifest does not parse: {e}"),
                        });
                    }
                }
                Err(e) => findings.push(LintFinding {
                    file: rel,
                    line: 1,
                    rule: "golden-json",
                    message: format!("golden manifest unreadable: {e}"),
                }),
            }
        }
    }

    Ok(LintReport {
        files_scanned,
        goldens_checked,
        findings,
    })
}

/// Renders the report as JSON.
pub fn to_json(r: &LintReport) -> Json {
    let mut o = Json::object();
    o.set("pass", Json::Str("lint".into()));
    o.set("clean", Json::Bool(r.clean()));
    o.set("files-scanned", Json::UInt(r.files_scanned as u64));
    o.set("goldens-checked", Json::UInt(r.goldens_checked as u64));
    o.set(
        "findings",
        Json::Arr(
            r.findings
                .iter()
                .map(|f| {
                    let mut fo = Json::object();
                    fo.set("file", Json::Str(f.file.clone()));
                    fo.set("line", Json::UInt(f.line as u64));
                    fo.set("rule", Json::Str(f.rule.to_string()));
                    fo.set("message", Json::Str(f.message.clone()));
                    fo
                })
                .collect(),
        ),
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, text: &str) -> Vec<LintFinding> {
        let mut findings = Vec::new();
        scan_rust_file(rel, text, &mut findings);
        findings
    }

    #[test]
    fn panic_tokens_fire_only_in_designated_files() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(scan("crates/serve/src/server.rs", src).len(), 1);
        assert_eq!(scan("crates/sim/src/core.rs", src).len(), 1);
        assert!(scan("crates/sim/src/stats.rs", src).is_empty());
    }

    #[test]
    fn panic_tokens_fire_in_covered_directories() {
        // The whole exploration service is no-panic, binary included.
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(scan("crates/explore/src/lib.rs", src).len(), 1);
        assert_eq!(scan("crates/explore/src/pareto.rs", src).len(), 1);
        assert_eq!(
            scan("crates/explore/src/bin/redbin-explore.rs", src).len(),
            1
        );
        // The workload crate assembles server-supplied custom programs.
        assert_eq!(scan("crates/workload/src/text.rs", src).len(), 1);
        assert_eq!(scan("crates/workload/src/kernels/spec95.rs", src).len(), 1);
        // Safe combinators never fire.
        let safe = "let v = x.unwrap_or_else(|| fail(\"no\"));\n";
        assert!(scan("crates/explore/src/lib.rs", safe).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_on_same_or_previous_line() {
        let rule = "no-panic";
        let same = format!("let v = x.unwrap(); // redbin-lint: allow({rule})\n");
        assert!(scan("crates/sim/src/core.rs", &same).is_empty());
        let above = format!("// redbin-lint: allow({rule})\nlet v = x.unwrap();\n");
        assert!(scan("crates/sim/src/core.rs", &above).is_empty());
        let wrong = "// redbin-lint: allow(wire-version)\nlet v = x.unwrap();\n";
        assert_eq!(scan("crates/sim/src/core.rs", wrong).len(), 1);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn f(x: Option<u8>) -> u8 { x.unwrap() }
}
";
        assert!(scan("crates/sim/src/core.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "let s = \"call unwrap() here\"; // then unwrap() it\n";
        assert!(scan("crates/sim/src/core.rs", src).is_empty());
    }

    #[test]
    fn wildcard_stall_match_is_flagged() {
        let src = "\
fn f(c: StallCause) -> u8 {
    match c {
        StallCause::FetchStarved => 1,
        _ => 0,
    }
}
";
        let findings = scan("crates/sim/src/anything.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wildcard-stall-match");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn wildcards_outside_stall_matches_are_fine() {
        let src = "\
fn f(c: Color) -> u8 {
    match c {
        Color::Red => 1,
        _ => 0,
    }
}
";
        assert!(scan("crates/sim/src/anything.rs", src).is_empty());
    }

    #[test]
    fn instant_now_is_flagged_outside_telemetry() {
        let src = "let t = std::time::Instant::now();\n";
        let findings = scan("crates/bench/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "instant-now");
        // Sanctioned home and test locations are exempt.
        assert!(scan("crates/telemetry/src/clock.rs", src).is_empty());
        assert!(scan("tests/integration_pipeline.rs", src).is_empty());
        assert!(scan("crates/serve/tests/integration_serve.rs", src).is_empty());
        // Test modules are exempt like every other rule.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
        assert!(scan("crates/sim/src/core.rs", in_tests).is_empty());
        // Mentions in strings or comments do not fire.
        let quoted = "let s = \"Instant::now()\"; // Instant::now()\n";
        assert!(scan("crates/sim/src/core.rs", quoted).is_empty());
    }

    #[test]
    fn wire_version_literal_is_flagged() {
        let bad = "o.set(\"v\", Json::UInt(1));\n";
        let findings = scan("crates/foo/src/x.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wire-version");
        let good = "o.set(\"v\", Json::UInt(WIRE_VERSION));\n";
        assert!(scan("crates/foo/src/x.rs", good).is_empty());
    }

    #[test]
    fn workspace_root_is_clean() {
        // The repository's own tree must pass its own lint. CARGO_MANIFEST_DIR
        // is crates/analyze, so the root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let report = run(&root).expect("lints");
        assert!(
            report.files_scanned > 50,
            "scanned {}",
            report.files_scanned
        );
        assert!(
            report.goldens_checked >= 3,
            "goldens {}",
            report.goldens_checked
        );
        assert!(report.clean(), "findings: {:#?}", report.findings);
    }
}
