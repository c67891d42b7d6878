#![forbid(unsafe_code)]
//! simlint: the workspace's energy-accounting lint pass.
//!
//! The reproduction's headline claim is bit-identical determinism: the
//! figure sweeps, the chaos/supervise experiments, and the checkpoint
//! digests all assume that a fixed seed replays the same bytes. Stock
//! clippy enforces the token-level half of that (see the root
//! `clippy.toml` and `[workspace.lints.clippy]`: no wall-clock, thread
//! or env reads, no hash-ordered collections, no `f32`, no float
//! equality, no unwraps, no unchecked indexing in `simserve`). This
//! crate keeps the rules clippy cannot express. It scans every
//! workspace source file with a dependency-free lexer and tolerant
//! Pratt parser — no `syn`, the repo builds offline. D4 and S1 work at
//! the line level; U1 and P1 run on a lightweight AST and see the whole
//! workspace at once:
//!
//! - **D4** — unit-suffix discipline: a public `f64` field or function
//!   whose name says it carries energy/power/time must name its unit
//!   (`_j`, `_w`, `_s`, `_mw`, …), aligned with `apps::units`.
//! - **S1** — service-layer API discipline, scoped to `crates/simserve/`:
//!   every public state-changing entry point (a `pub fn` taking
//!   `&mut self`) must return `Result` — the always-on serving layer
//!   refuses bad input, it does not panic.
//! - **U1** — dimensional consistency: the D4 suffixes make every
//!   quantity's dimension recoverable from its name (`_j` = J, `_w` =
//!   J/s, `_s` = s, `_hz` = 1/s, `_frac`/`_ratio` dimensionless), so the
//!   checker infers a dimension for every expression and rejects
//!   `energy_j + power_w` while accepting `power_w * dt_s` as J.
//!   Addition, subtraction, comparison, and assignment require equal
//!   dimensions; multiplication and division compose them. Checked at
//!   `let` bindings, assignments, struct-literal fields, call arguments
//!   against the (workspace-wide) callee signature, and returns. See
//!   [`dims`] for the algebra and [`unit`] for the walker.
//! - **P1** — transitive purity: clippy catches a *direct*
//!   `Instant::now()`; P1 builds a per-crate symbol table and call graph
//!   so a simulation function that reaches a banned API through any
//!   chain of workspace helpers is flagged too, with the full call path
//!   in the message. Waivers are boundaries: a waived function is
//!   unflagged and stops propagation to its callers. See [`purity`].
//!
//! Any site can be waived with a comment carrying a reason:
//!
//! ```text
//! // simlint: allow(P1) — benches time real execution by design
//! ```
//!
//! either trailing on the offending line or standing alone on the line
//! above it. A waiver without a reason, or one naming a rule that does
//! not exist (including the retired D1, D2, D3 and D5), is itself a
//! finding (**W0**).

pub mod dims;
pub mod lexer;
pub mod parse;
pub mod purity;
pub mod unit;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers, in report order.
pub const RULE_IDS: [&str; 5] = ["D4", "P1", "S1", "U1", "W0"];

/// One diagnostic: a rule violated at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// The finding as one machine-readable JSON object (hand-rolled; the
    /// scanner is dependency-free by construction).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.path),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

/// Renders a whole report as the machine-readable JSON array consumed by
/// CI: one object per finding in report order, each with the keys
/// `path`, `line`, `rule`, `message` in exactly that order, no
/// insignificant whitespace. The schema is pinned by an integration
/// test; downstream tooling may rely on it byte for byte.
pub fn render_json(report: &Report) -> String {
    let objects: Vec<String> = report.findings.iter().map(Finding::to_json).collect();
    format!("[{}]", objects.join(","))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Result of scanning a whole workspace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

// ---------------------------------------------------------------------------
// Source stripping: split each line into code and comment text.
// ---------------------------------------------------------------------------

/// Per-line views of a source file with literals and comments separated.
struct Stripped {
    /// Line text with string/char literal contents and comments blanked.
    code: Vec<String>,
    /// Comment text of each line (line + block comments, `//` stripped).
    comment: Vec<String>,
}

fn strip(source: &str) -> Stripped {
    let chars: Vec<char> = source.chars().collect();
    let mut code = Vec::new();
    let mut comment = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut i = 0usize;
    // 0 = code, 1 = block comment (with depth), 2 = string, 3 = raw string.
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut raw_hashes: Option<usize> = None;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            code.push(std::mem::take(&mut code_line));
            comment.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        if block_depth > 0 {
            if c == '/' && chars.get(i + 1) == Some(&'*') {
                block_depth += 1;
                i += 2;
                continue;
            }
            if c == '*' && chars.get(i + 1) == Some(&'/') {
                block_depth -= 1;
                i += 2;
                continue;
            }
            comment_line.push(c);
            i += 1;
            continue;
        }
        if let Some(n) = raw_hashes {
            if c == '"' && chars[i + 1..].iter().take(n).filter(|h| **h == '#').count() == n {
                raw_hashes = None;
                i += 1 + n;
                continue;
            }
            i += 1;
            continue;
        }
        if in_str {
            if c == '\\' {
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        // Code state.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            // Line comment: rest of the physical line is comment text.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\n' {
                comment_line.push(chars[j]);
                j += 1;
            }
            i = j;
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            block_depth = 1;
            i += 2;
            continue;
        }
        if c == '"' {
            in_str = true;
            code_line.push_str("\"\"");
            i += 1;
            continue;
        }
        let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if c == 'r' && !prev_is_ident {
            // Possible raw string: r"..." or r#"..."#.
            let mut j = i + 1;
            let mut n = 0usize;
            while chars.get(j) == Some(&'#') {
                n += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                raw_hashes = Some(n);
                code_line.push_str("\"\"");
                i = j + 1;
                continue;
            }
        }
        if c == '\'' {
            // Char literal vs lifetime.
            if chars.get(i + 1) == Some(&'\\') {
                let mut j = i + 2;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                code_line.push_str("' '");
                i = j + 1;
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') {
                code_line.push_str("' '");
                i += 3;
                continue;
            }
            // Lifetime: keep the tick, it is harmless in code text.
            code_line.push(c);
            i += 1;
            continue;
        }
        code_line.push(c);
        i += 1;
    }
    code.push(code_line);
    comment.push(comment_line);
    Stripped { code, comment }
}

// ---------------------------------------------------------------------------
// #[cfg(test)] region tracking.
// ---------------------------------------------------------------------------

/// Marks each line that sits inside a `#[cfg(test)]` item's braces.
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    // Depths at which an active test region's opening brace sits.
    let mut regions: Vec<i64> = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let mut active = !regions.is_empty();
        if line.contains("#[cfg(test)]") {
            pending_attr = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_attr {
                        regions.push(depth);
                        pending_attr = false;
                        active = true;
                    }
                }
                '}' => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        active = active || !regions.is_empty();
        in_test[idx] = active;
    }
    in_test
}

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

/// Per-line waived rules plus any malformed-waiver findings.
fn parse_waivers(
    path: &str,
    stripped: &Stripped,
) -> (BTreeMap<usize, BTreeSet<&'static str>>, Vec<Finding>) {
    let mut waived: BTreeMap<usize, BTreeSet<&'static str>> = BTreeMap::new();
    let mut findings = Vec::new();
    for (idx, comment) in stripped.comment.iter().enumerate() {
        let Some(pos) = comment.find("simlint:") else {
            continue;
        };
        let line_no = idx + 1;
        let w0 = |message: String| Finding {
            path: path.to_string(),
            line: line_no,
            rule: "W0",
            message,
        };
        let rest = comment[pos + "simlint:".len()..].trim_start();
        // Prose that merely mentions simlint is not a waiver attempt.
        if !rest.starts_with("allow") {
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(w0(
                "malformed waiver: expected `simlint: allow(<rule>) — <reason>`".to_string(),
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            findings.push(w0("malformed waiver: missing `)`".to_string()));
            continue;
        };
        let mut rules: BTreeSet<&'static str> = BTreeSet::new();
        let mut bad_rule = false;
        for raw in args[..close].split(',') {
            let name = raw.trim();
            match RULE_IDS.iter().find(|id| **id == name && **id != "W0") {
                Some(id) => {
                    rules.insert(id);
                }
                None => {
                    findings.push(w0(format!("waiver names unknown rule `{name}`")));
                    bad_rule = true;
                }
            }
        }
        // A reason is mandatory: `— why this site is sound`.
        let after = args[close + 1..].trim_start();
        let reason = ["—", "--", "-", ":"]
            .iter()
            .find_map(|sep| after.strip_prefix(sep))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            findings.push(w0(
                "waiver has no reason: write `simlint: allow(<rule>) — <why this site is sound>`"
                    .to_string(),
            ));
            continue;
        }
        if bad_rule {
            continue;
        }
        // Trailing waiver applies to its own line; a standalone comment
        // line applies to the next line that has code on it.
        let target = if stripped.code[idx].trim().is_empty() {
            stripped.code[idx + 1..]
                .iter()
                .position(|l| !l.trim().is_empty())
                .map(|off| idx + 1 + off + 1)
        } else {
            Some(line_no)
        };
        if let Some(t) = target {
            waived.entry(t).or_default().extend(rules.iter().copied());
        }
    }
    (waived, findings)
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `word` occurs in `line` as a whole word.
fn contains_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].ends_with(is_ident_char) && !line[at + word.len()..].starts_with(is_ident_char)
    })
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

const D4_KEYWORDS: [&str; 6] = ["energy", "power", "watt", "joule", "time", "duration"];
const D4_SUFFIXES: [&str; 13] = [
    "_j", "_w", "_s", "_mw", "_mj", "_kj", "_wh", "_us", "_ms", "_ns", "_hz", "_bps", "_frac",
];

fn d4_name_violates(name: &str) -> bool {
    let triggered = name
        .split('_')
        .any(|seg| D4_KEYWORDS.contains(&seg.to_ascii_lowercase().as_str()));
    triggered && !D4_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Everything one file contributes to the workspace passes: the
/// line-rule findings plus the parsed inputs U1 and P1 need. Produced by
/// [`analyze_str`] and consumed by [`cross_pass`].
#[derive(Debug)]
struct FileAnalysis {
    /// Workspace-relative path.
    rel: String,
    /// Line-rule findings (D4, S1, W0), waivers already applied.
    line_findings: Vec<Finding>,
    /// Waived rules per line (U1/P1 filtering happens in the cross pass).
    waived: BTreeMap<usize, BTreeSet<&'static str>>,
    /// Parsed AST — empty for test-path files, which U1/P1 skip.
    ast: parse::FileAst,
    /// Stripped code lines (P1 scans fn bodies for banned tokens).
    code: Vec<String>,
    /// Per-line `#[cfg(test)]` membership.
    test_lines: Vec<bool>,
}

/// Scans one file's source text as if it sat at the workspace-relative
/// `path`, which decides the rules that apply: test trees (`tests/`,
/// `benches/`, `examples/`) get only W0, and `crates/simserve/` adds
/// S1. Fixtures exercise every rule through this one entry point.
pub fn scan_str(path: &str, source: &str) -> Vec<Finding> {
    let analysis = analyze_str(path, source);
    let mut findings = cross_pass(std::slice::from_ref(&analysis));
    findings.extend(analysis.line_findings);
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings
}

/// Runs the line rules on one file and parses it for the cross-file
/// passes. The path plus `#[cfg(test)]` regions decide which rules run
/// on which lines.
fn analyze_str(path: &str, source: &str) -> FileAnalysis {
    let stripped = strip(source);
    let in_test_region = test_regions(&stripped.code);
    let (waived, mut findings) = parse_waivers(path, &stripped);
    let is_test = is_test_path(path);
    if !is_test {
        let service = is_service_path(path);
        for (line, rule, message) in scan_lines(&stripped.code, &in_test_region, service) {
            if !waived.get(&line).is_some_and(|set| set.contains(rule)) {
                findings.push(Finding {
                    path: path.to_string(),
                    line,
                    rule,
                    message,
                });
            }
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    // Parse the AST for the cross-file passes; test-path files are out
    // of U1/P1's scope, so skip the work there.
    let mut ast = parse::FileAst::default();
    if !is_test {
        ast = parse::parse_file(&lexer::lex(&stripped.code));
        for f in &mut ast.fns {
            f.in_test = in_test_region
                .get(f.line.saturating_sub(1))
                .copied()
                .unwrap_or(false);
        }
    }
    FileAnalysis {
        rel: path.to_string(),
        line_findings: findings,
        waived,
        ast,
        code: stripped.code,
        test_lines: in_test_region,
    }
}

/// The workspace-wide passes over per-file analyses: U1 checks each
/// file against the shared symbol table, then P1 runs its call-graph
/// fixpoint. Returns the unwaived U1/P1 findings, unsorted.
fn cross_pass(analyses: &[FileAnalysis]) -> Vec<Finding> {
    // Test-path files are out of U1's and P1's scope.
    let live: Vec<&FileAnalysis> = analyses.iter().filter(|a| !is_test_path(&a.rel)).collect();
    let tabled: Vec<(String, parse::FileAst)> = live
        .iter()
        .map(|a| (a.rel.clone(), a.ast.clone()))
        .collect();
    let table = unit::SymbolTable::build(&tabled);
    let mut findings = Vec::new();
    let mut pfiles = Vec::new();
    for a in &live {
        let out = unit::check_file(&a.ast, &table, &a.test_lines);
        for (line, msg) in &out.findings {
            if !a.waived.get(line).is_some_and(|set| set.contains("U1")) {
                findings.push(Finding {
                    path: a.rel.clone(),
                    line: *line,
                    rule: "U1",
                    message: msg.clone(),
                });
            }
        }
        // P1 sees every non-test file: sanctioned crates (simpar, bench)
        // still conduct impurity through to their callers even though
        // findings are never reported inside them.
        let direct = purity::direct_sites(&a.rel, &a.code, &a.ast.fns);
        pfiles.push(purity::PurityFile {
            rel: a.rel.clone(),
            eligible: !is_par_path(&a.rel) && !is_bench_path(&a.rel),
            fns: a
                .ast
                .fns
                .iter()
                .enumerate()
                .map(|(i, f)| purity::PurityFn {
                    name: f.name.clone(),
                    qual: f.qual.clone(),
                    line: f.line,
                    in_test: f.in_test,
                    waived: a.waived.get(&f.line).is_some_and(|set| set.contains("P1")),
                    direct: direct.get(i).cloned().flatten(),
                    calls: out.fn_calls.get(i).cloned().unwrap_or_default(),
                })
                .collect(),
        });
    }
    for (file_idx, line, message) in purity::analyze(&pfiles) {
        findings.push(Finding {
            path: live[file_idx].rel.clone(),
            line,
            rule: "P1",
            message,
        });
    }
    findings
}

/// The line rules over one file's non-test lines, as `(line, rule,
/// message)`: D4 wants a public `f64` field or function to name its
/// unit, and S1 (service layer only) wants a public `&mut self` entry
/// point to return `Result`.
fn scan_lines(
    code: &[String],
    in_test_region: &[bool],
    service: bool,
) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        if in_test_region[idx] {
            continue;
        }
        let line_no = idx + 1;
        let trimmed = line.trim_start();
        // Public f64 field: `pub name: f64,`
        if let Some(rest) = trimmed.strip_prefix("pub ") {
            let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
            let after = rest[name.len()..].trim_start();
            if name.starts_with(|c: char| c.is_lowercase() || c == '_')
                && after.starts_with(':')
                && after[1..].trim().trim_end_matches(',').trim() == "f64"
                && d4_name_violates(&name)
            {
                out.push((
                    line_no,
                    "D4",
                    format!(
                        "public f64 field `{name}` carries a unit but its name does not: end it \
                         in _j/_w/_s/_mw (see apps::units)"
                    ),
                ));
            }
        }
        // Public function: `pub fn name(...) -> T` (the signature may
        // span lines; collect until the body opens).
        let Some(name) = pub_fn_name(trimmed) else {
            continue;
        };
        let mut sig = String::new();
        for cont in &code[idx..code.len().min(idx + 12)] {
            sig.push_str(cont);
            sig.push(' ');
            if cont.contains('{') || cont.trim_end().ends_with(';') {
                break;
            }
        }
        let ret = sig.split("->").nth(1).map(str::trim_start).unwrap_or("");
        if ret.starts_with("f64") && d4_name_violates(name) {
            out.push((
                line_no,
                "D4",
                format!(
                    "public fn `{name}` returns a unit-carrying f64 but its name does not say the \
                     unit: end it in _j/_w/_s/_mw (see apps::units)"
                ),
            ));
        }
        if service && sig.contains("&mut self") && !ret.starts_with("Result") {
            out.push((
                line_no,
                "S1",
                format!(
                    "service-layer entry point `{name}` takes `&mut self` but does not return \
                     `Result`: the serving API refuses bad input, it never panics"
                ),
            ));
        }
    }
    out
}

/// The name in `pub fn name` / `pub const fn name`, if the line
/// declares a plainly-public function.
fn pub_fn_name(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let body = rest
        .strip_prefix("const ")
        .unwrap_or(rest)
        .strip_prefix("fn ")?;
    let name = &body[..body.find(|c: char| !is_ident_char(c)).unwrap_or(body.len())];
    (!name.is_empty()).then_some(name)
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Directories never scanned.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "results", ".github"];

fn collect_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.insert(path);
        }
    }
    Ok(())
}

fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// True for files inside the simpar work pool — the one crate whose job
/// is spawning threads, so P1's thread tokens are not impure there.
fn is_par_path(rel: &str) -> bool {
    rel.starts_with("crates/simpar/")
}

/// True for files inside the always-on service layer, where the S1
/// API-discipline rule applies.
fn is_service_path(rel: &str) -> bool {
    rel.starts_with("crates/simserve/")
}

/// True for the sanctioned wall-clock timing crate: P1 never reports
/// findings there (holding the stopwatch is its whole job), though
/// impurity still conducts through it to simulation-crate callers.
fn is_bench_path(rel: &str) -> bool {
    rel.starts_with("crates/bench/")
}

/// Scans every `.rs` file under `root` (a workspace checkout), in path
/// order.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = BTreeSet::new();
    collect_rs(root, &mut files)?;
    let mut analyses = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        analyses.push(analyze_str(&rel, &source));
    }
    let mut findings = cross_pass(&analyses);
    for analysis in &analyses {
        findings.extend(analysis.line_findings.iter().cloned());
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned: analyses.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/x/src/lib.rs";
    const TEST: &str = "crates/x/tests/t.rs";
    const SERVICE: &str = "crates/simserve/src/lib.rs";

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn is_par_path_covers_only_simpar() {
        assert!(is_par_path("crates/simpar/src/lib.rs"));
        assert!(!is_par_path("crates/simcore/src/lib.rs"));
        assert!(!is_par_path("src/simpar.rs"));
    }

    // ---- D4: unit-suffix discipline ----

    #[test]
    fn d4_flags_unitless_public_energy_field() {
        let f = scan_str(SIM, "pub struct S {\n    pub total_energy: f64,\n}\n");
        assert_eq!(rules(&f), ["D4"]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("total_energy"));
    }

    #[test]
    fn d4_flags_unitless_public_fn_with_multiline_signature() {
        let src = "pub fn drain_power(\n    &self,\n    zone: usize,\n) -> f64 {\n    0.0\n}\n";
        let f = scan_str(SIM, src);
        assert_eq!(rules(&f), ["D4"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d4_accepts_suffixed_names_and_non_f64() {
        let src = "pub struct S {\n    pub energy_j: f64,\n    pub power_w: f64,\n}\n\
                   pub fn duration_s(&self) -> f64 { self.d }\n\
                   pub fn energy_label(&self) -> String { String::new() }\n";
        assert!(scan_str(SIM, src).is_empty());
    }

    /// Fixture mirroring the simtrace payload schema: the unit-suffixed
    /// field names the trace events use (`energy_j`, `supply_j`,
    /// `raw_power_w`, …) pass D4, and stripping the suffix from any of
    /// them is flagged. Guards the trace schema's unit discipline.
    #[test]
    fn d4_trace_payload_schema_fixture() {
        let clean = "pub struct GoalBudget {\n\
                     \x20   pub supply_j: f64,\n\
                     \x20   pub demand_j: f64,\n\
                     }\n\
                     pub struct EnergyDelta {\n\
                     \x20   pub energy_j: f64,\n\
                     }\n\
                     pub struct GoalClamp {\n\
                     \x20   pub raw_power_w: f64,\n\
                     \x20   pub power_w: f64,\n\
                     }\n\
                     pub fn residual_energy_j(&self) -> f64 { 0.0 }\n";
        assert!(scan_str(SIM, clean).is_empty());

        let dirty = "pub struct GoalBudget {\n\
                     \x20   pub supply_energy: f64,\n\
                     }\n\
                     pub fn raw_power(&self) -> f64 { 0.0 }\n";
        let f = scan_str(SIM, dirty);
        assert_eq!(rules(&f), ["D4", "D4"]);
        assert!(f[0].message.contains("supply_energy"));
        assert!(f[1].message.contains("raw_power"));
    }

    /// Fixture mirroring the energymap path-row schema: the per-call-path
    /// energy table's field names (`self_energy_j`, `inclusive_energy_j`,
    /// `self_time_s`, `inclusive_time_s`, plus the unitless `samples`
    /// count, which is a u64 and out of D4's scope) pass, and dropping
    /// the unit suffix from either energy field is flagged. Guards the
    /// energy-regression gate's table schema.
    #[test]
    fn d4_energymap_path_row_schema_fixture() {
        let clean = "pub struct PathRow {\n\
                     \x20   pub path: String,\n\
                     \x20   pub samples: u64,\n\
                     \x20   pub self_time_s: f64,\n\
                     \x20   pub self_energy_j: f64,\n\
                     \x20   pub inclusive_time_s: f64,\n\
                     \x20   pub inclusive_energy_j: f64,\n\
                     }\n\
                     pub struct ProcessPaths {\n\
                     \x20   pub energy_j: f64,\n\
                     }\n\
                     pub fn total_energy_j(&self) -> f64 { 0.0 }\n";
        assert!(scan_str(SIM, clean).is_empty());

        let dirty = "pub struct PathRow {\n\
                     \x20   pub self_energy: f64,\n\
                     \x20   pub inclusive_energy: f64,\n\
                     \x20   pub inclusive_time: f64,\n\
                     }\n";
        let f = scan_str(SIM, dirty);
        assert_eq!(rules(&f), ["D4", "D4", "D4"]);
        assert!(f[0].message.contains("self_energy"));
        assert!(f[1].message.contains("inclusive_energy"));
        assert!(f[2].message.contains("inclusive_time"));
    }

    // ---- S1: service-layer API discipline ----

    /// Fixture mirroring the `simserve::Session` step API: every public
    /// `&mut self` entry point returns `Result`, read-only accessors and
    /// constructors are free-form. Dropping the `Result` from a stepping
    /// method is flagged — in the service layer only.
    #[test]
    fn s1_flags_mut_entry_points_without_result() {
        let dirty = "pub fn ingest(&mut self, s: &[u8]) {\n    self.n += 1;\n}\n";
        let f = scan_str(SERVICE, dirty);
        assert_eq!(rules(&f), ["S1"]);
        assert!(f[0].message.contains("ingest"));
        // The same source outside crates/simserve/ is not S1's business.
        assert!(scan_str(SIM, dirty).is_empty());
    }

    #[test]
    fn s1_accepts_result_entry_points_accessors_and_constructors() {
        let clean = "pub fn ingest(&mut self, n: u32) -> Result<u32, Error> {\n\
                     \x20   Ok(n)\n\
                     }\n\
                     pub fn finish(\n\
                     \x20   &mut self,\n\
                     ) -> Result<(), Error> {\n\
                     \x20   Ok(())\n\
                     }\n\
                     pub fn cursor(&self) -> u64 { self.cursor }\n\
                     pub fn tick(at_s: f64) -> Sample { Sample { at_s } }\n";
        assert!(scan_str(SERVICE, clean).is_empty());
    }

    #[test]
    fn s1_flags_multiline_signature_without_result() {
        let dirty = "pub fn reset(\n    &mut self,\n    hard: bool,\n) {\n}\n";
        let f = scan_str(SERVICE, dirty);
        assert_eq!(rules(&f), ["S1"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn s1_does_not_run_in_service_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn step(&mut self) {}\n}\n";
        assert!(scan_str(SERVICE, src).is_empty());
    }

    // ---- Waivers ----

    const UNITLESS: &str = "pub fn raw_power() -> f64 { 0.0 }";

    #[test]
    fn trailing_waiver_with_reason_is_honored() {
        let src = format!("{UNITLESS} // simlint: allow(D4) — fixture\n");
        assert!(scan_str(SIM, &src).is_empty());
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let src = format!("// simlint: allow(D4) — fixture\n{UNITLESS}\n");
        assert!(scan_str(SIM, &src).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_rejected_and_finding_stands() {
        let src = format!("{UNITLESS} // simlint: allow(D4)\n");
        let f = scan_str(SIM, &src);
        // Both the malformed waiver and the original violation surface.
        assert_eq!(rules(&f), ["D4", "W0"]);
        assert!(f[1].message.contains("no reason"));
    }

    /// Rules handed to clippy are unknown now: a leftover waiver for one
    /// of them is a W0 finding, not a silent no-op.
    #[test]
    fn waiver_naming_unknown_or_retired_rule_is_rejected() {
        for rule in ["D1", "D2", "D3", "D5", "D9"] {
            let src = format!("fn f() {{}} // simlint: allow({rule}) — because\n");
            let f = scan_str(SIM, &src);
            assert_eq!(rules(&f), ["W0"], "{rule}");
            assert!(f[0].message.contains("unknown rule"), "{rule}");
        }
    }

    #[test]
    fn waiver_covers_multiple_rules() {
        let src = "// simlint: allow(D4, U1) — fixture\n\
                   pub fn raw_power(e_j: f64, p_w: f64) -> f64 { e_j + p_w }\n";
        assert!(scan_str(SIM, src).is_empty());
    }

    #[test]
    fn waiver_does_not_leak_to_other_lines() {
        let src = format!("{UNITLESS} // simlint: allow(D4) — fine here\n{UNITLESS}\n");
        let f = scan_str(SIM, &src);
        assert_eq!(rules(&f), ["D4"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn prose_mentioning_simlint_is_not_a_waiver() {
        let src = "// simlint: the scanner that enforces these rules.\nfn f() -> u32 { 1 }\n";
        assert!(scan_str(SIM, src).is_empty());
    }

    // ---- Source stripping corner cases ----

    #[test]
    fn raw_strings_and_block_comments_are_invisible() {
        let src = "fn f() -> &'static str {\n\
                       /* pub fn raw_power() -> f64 in a block comment,\n\
                       spanning lines */\n\
                       r#\"e_j + p_w\"#\n\
                   }\n";
        assert!(scan_str(SIM, src).is_empty());
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        // If '\"' were mis-lexed as a string opener, the sum after it
        // would be hidden inside a phantom literal.
        let src = "fn f(c: char, e_j: f64, p_w: f64) -> f64 { if c == '\"' { e_j + p_w } else { 0.0 } }\n";
        let f = scan_str(SIM, src);
        assert_eq!(rules(&f), ["U1"]);
    }

    // ---- U1 through the public entry point ----

    #[test]
    fn u1_flags_energy_plus_power_through_scan_str() {
        let src = "fn f(energy_j: f64, power_w: f64) -> f64 { energy_j + power_w }\n";
        let f = scan_str(SIM, src);
        assert_eq!(rules(&f), ["U1"]);
        assert!(f[0].message.contains("J (from `energy_j`)"), "{}", f[0]);
        assert!(f[0].message.contains("J/s (from `power_w`)"), "{}", f[0]);
    }

    #[test]
    fn u1_accepts_dimensionally_sound_energy_math() {
        let src = "fn f(power_w: f64, dt_s: f64) -> f64 {\n\
                   \x20   let step_j = power_w * dt_s;\n\
                   \x20   step_j / dt_s\n\
                   }\n";
        assert!(scan_str(SIM, src).is_empty());
    }

    #[test]
    fn u1_is_waivable_and_skips_test_paths() {
        let waived = "fn f(e_j: f64, p_w: f64) -> f64 { e_j + p_w } \
                      // simlint: allow(U1) — fixture mixes units on purpose\n";
        assert!(scan_str(SIM, waived).is_empty());
        let src = "fn f(e_j: f64, p_w: f64) -> f64 { e_j + p_w }\n";
        assert!(scan_str(TEST, src).is_empty());
    }

    // ---- P1 through the public entry point ----

    #[test]
    fn p1_flags_two_hop_wall_clock_reach_with_path() {
        let src = "fn leaf() -> f64 { Instant::now().elapsed().as_secs_f64() }\n\
                   fn mid() -> f64 { leaf() }\n\
                   fn top() -> f64 { mid() }\n";
        let f = scan_str(SIM, src);
        // `leaf` is direct (clippy's finding); `mid` and `top` reach the
        // clock transitively and are P1's findings.
        assert_eq!(rules(&f), ["P1", "P1"]);
        assert!(f[1].message.contains("`top`"), "{}", f[1]);
        assert!(f[1].message.contains("`mid`"), "{}", f[1]);
        assert!(f[1].message.contains("Instant"), "{}", f[1]);
    }

    #[test]
    fn p1_waiver_is_a_propagation_boundary() {
        let src = "fn leaf() -> f64 { Instant::now().elapsed().as_secs_f64() }\n\
                   // simlint: allow(P1) — sanctioned timing boundary\n\
                   fn mid() -> f64 { leaf() }\n\
                   fn top() -> f64 { mid() }\n";
        assert!(scan_str(SIM, src).is_empty());
    }

    // ---- Output formats ----

    #[test]
    fn render_json_is_a_stable_array() {
        let report = Report {
            findings: vec![
                Finding {
                    path: "a.rs".to_string(),
                    line: 1,
                    rule: "D4",
                    message: "m1".to_string(),
                },
                Finding {
                    path: "b.rs".to_string(),
                    line: 2,
                    rule: "U1",
                    message: "m2".to_string(),
                },
            ],
            files_scanned: 2,
        };
        assert_eq!(
            render_json(&report),
            "[{\"path\":\"a.rs\",\"line\":1,\"rule\":\"D4\",\"message\":\"m1\"},\
             {\"path\":\"b.rs\",\"line\":2,\"rule\":\"U1\",\"message\":\"m2\"}]"
        );
        assert_eq!(render_json(&Report::default()), "[]");
    }

    #[test]
    fn display_and_json_forms() {
        let f = Finding {
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: "S1",
            message: "say \"no\"".to_string(),
        };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:7: S1: say \"no\"");
        assert_eq!(
            f.to_json(),
            "{\"path\":\"crates/x/src/lib.rs\",\"line\":7,\"rule\":\"S1\",\
             \"message\":\"say \\\"no\\\"\"}"
        );
    }
}
