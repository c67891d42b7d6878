//! Rule P1 — transitive purity over the workspace call graph.
//!
//! Clippy's `disallowed_methods` bans wall-clock, thread, and env APIs
//! at the call site, but a per-site check cannot see *laundering*: a
//! simulation function calling a helper that calls `Instant::now()` is
//! just as nondeterministic as one calling it directly. P1 closes that
//! hole. It builds a call graph from the edges the U1 walk already
//! collected (callee bare name + line per function), marks every
//! function whose own body touches a banned token — **including sites
//! clippy was told to expect**, which is the whole point: a sanctioned
//! `Instant` in `bench` is sanctioned *there*, not wherever its callers
//! sit — and propagates impurity along call edges to a fixpoint.
//!
//! Resolution is deliberately conservative. A call edge only conducts
//! impurity when its bare name resolves to workspace definitions that
//! are **all** impure: a name shared by an impure function and a pure
//! one (or by nothing in the workspace at all — `push`, `get`, `len`)
//! propagates nothing. That trades a little recall for zero false
//! positives from name collisions.
//!
//! Waivers are boundaries, not blindfolds: a function whose definition
//! line carries an `allow(P1)` waiver is itself unflagged *and* stops
//! propagation, so one sanctioned timing call does not cascade findings
//! all the way up to `main`. Functions that are directly banned are
//! clippy's findings, never P1's. Findings render the full call path down to the
//! banned token so the report reads as a proof, not an accusation.
//!
//! Sanctioned crates: `crates/simpar/` may use thread APIs (mirroring
//! its site-level clippy expectations) and `crates/bench/` exists to hold wall-clock
//! timing, so neither produces P1 *findings* — but impurity still flows
//! **through** bench helpers to callers in simulation crates, which is
//! exactly how `experiments` timing verbs get caught and must carry
//! reasoned waivers.

use crate::parse::FnAst;

/// Impurity sources banned everywhere, including `crates/simpar/`:
/// wall-clock and environment reads, plus `thread::sleep` (a wall-clock
/// wait). The root `clippy.toml` bans the same APIs at the call site; a
/// test below keeps the two lists in step.
pub const CLOCK_TOKENS: [&str; 4] = ["Instant", "SystemTime", "thread::sleep", "env::var"];

/// Impurity sources outside `crates/simpar/`: thread spawning and
/// anything that reaches the `std::thread` module to do it.
pub const THREAD_TOKENS: [&str; 4] = [
    "thread::spawn",
    "thread::scope",
    "available_parallelism",
    "std::thread",
];

/// One file's worth of P1 input.
#[derive(Clone, Debug)]
pub struct PurityFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Per-function facts, in `FileAst::fns` order.
    pub fns: Vec<PurityFn>,
    /// Whether findings may be reported here (false for the sanctioned
    /// `bench`/`simpar` crates — they still conduct impurity).
    pub eligible: bool,
}

/// One function's P1-relevant facts.
#[derive(Clone, Debug)]
pub struct PurityFn {
    /// Bare name (call edges resolve against this).
    pub name: String,
    /// Qualified display name for path rendering.
    pub qual: String,
    /// 1-based definition line (findings anchor here).
    pub line: usize,
    /// Defined in a `#[cfg(test)]` region: invisible to P1.
    pub in_test: bool,
    /// Carries a P1 waiver: unflagged and a propagation boundary.
    pub waived: bool,
    /// First banned token in the body, waivers ignored: `(token, line)`.
    pub direct: Option<(String, usize)>,
    /// Outgoing call edges `(callee bare name, call line)`.
    pub calls: Vec<(String, usize)>,
}

/// Scans each function's body line range for banned tokens, *ignoring
/// waivers* (a sanctioned clock is still a P1 impurity source). Thread
/// tokens are exempt under `crates/simpar/`. Returns the first site per
/// function.
pub fn direct_sites(rel: &str, code: &[String], fns: &[FnAst]) -> Vec<Option<(String, usize)>> {
    let thread_ok = crate::is_par_path(rel);
    fns.iter()
        .map(|f| {
            if !f.has_body {
                return None;
            }
            for line_no in f.line..=f.end_line.min(code.len()) {
                let line = &code[line_no - 1];
                for tok in CLOCK_TOKENS {
                    if token_on_line(line, tok) {
                        return Some((tok.to_string(), line_no));
                    }
                }
                if !thread_ok {
                    for tok in THREAD_TOKENS {
                        if token_on_line(line, tok) {
                            return Some((tok.to_string(), line_no));
                        }
                    }
                }
            }
            None
        })
        .collect()
}

fn token_on_line(line: &str, tok: &str) -> bool {
    if tok.contains("::") {
        line.contains(tok)
    } else {
        crate::contains_word(line, tok)
    }
}

/// Why a node is impure.
#[derive(Clone, Debug)]
enum Cause {
    /// The body itself touches `(token, line)`.
    Direct(String, usize),
    /// A call reaches the impure node `callee` (the rendered path points
    /// at definition lines, which is where the fix happens).
    Via { callee: (usize, usize) },
}

/// Runs the propagation and returns findings as
/// `(file index, definition line, message)`. Input file order defines
/// tie-breaks everywhere, so callers pass files sorted by path.
pub fn analyze(files: &[PurityFile]) -> Vec<(usize, usize, String)> {
    // Bare name -> all non-test definitions, in input order.
    let mut defs: std::collections::BTreeMap<&str, Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            if !f.in_test {
                defs.entry(f.name.as_str()).or_default().push((fi, ni));
            }
        }
    }

    // Seed: directly banned bodies. Waived functions stay permanently
    // pure — they are sanctioned boundaries.
    let mut cause: Vec<Vec<Option<Cause>>> = files
        .iter()
        .map(|file| {
            file.fns
                .iter()
                .map(|f| {
                    if f.in_test || f.waived {
                        None
                    } else {
                        f.direct
                            .as_ref()
                            .map(|(tok, line)| Cause::Direct(tok.clone(), *line))
                    }
                })
                .collect()
        })
        .collect();

    // Fixpoint: a call conducts impurity only when every definition of
    // its bare name is impure (conservative against collisions). The
    // first conducting call in body order wins as the witness.
    loop {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                if f.in_test || f.waived || cause[fi][ni].is_some() {
                    continue;
                }
                let hit = f.calls.iter().find_map(|(name, _line)| {
                    let targets = defs.get(name.as_str())?;
                    let all_impure = targets.iter().all(|&(tf, tn)| cause[tf][tn].is_some());
                    if all_impure && !targets.is_empty() {
                        Some(Cause::Via { callee: targets[0] })
                    } else {
                        None
                    }
                });
                if let Some(c) = hit {
                    cause[fi][ni] = Some(c);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Findings: transitively impure functions in eligible files.
    // Directly banned ones are clippy's findings, not P1's.
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !file.eligible {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            if !matches!(cause[fi][ni], Some(Cause::Via { .. })) {
                continue;
            }
            let mut msg = format!("transitively reaches a banned API: `{}`", f.qual);
            let mut cur = (fi, ni);
            for _hop in 0..32 {
                match &cause[cur.0][cur.1] {
                    Some(Cause::Via { callee }) => {
                        let (cf, cn) = *callee;
                        let target = &files[cf].fns[cn];
                        msg.push_str(&format!(
                            " → `{}` ({}:{})",
                            target.qual, files[cf].rel, target.line
                        ));
                        cur = (cf, cn);
                    }
                    Some(Cause::Direct(tok, tline)) => {
                        msg.push_str(&format!(
                            "; banned `{tok}` at {}:{}",
                            files[cur.0].rel, tline
                        ));
                        break;
                    }
                    None => break,
                }
            }
            out.push((fi, f.line, msg));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;
    use crate::unit::{check_file, SymbolTable};

    /// Builds P1 input from real sources: `(rel, src, eligible)` plus a
    /// list of function names to mark waived.
    fn build(files: &[(&str, &str, bool)], waived: &[&str]) -> Vec<PurityFile> {
        let parsed: Vec<(String, crate::parse::FileAst, Vec<String>)> = files
            .iter()
            .map(|(rel, src, _)| {
                let stripped = crate::strip(src);
                let ast = parse_file(&lex(&stripped.code));
                (rel.to_string(), ast, stripped.code.clone())
            })
            .collect();
        let table = SymbolTable::build(
            &parsed
                .iter()
                .map(|(rel, ast, _)| (rel.clone(), ast.clone()))
                .collect::<Vec<_>>(),
        );
        parsed
            .iter()
            .zip(files)
            .map(|((rel, ast, code), (_, _, eligible))| {
                let outcome = check_file(ast, &table, &vec![false; code.len()]);
                let direct = direct_sites(rel, code, &ast.fns);
                PurityFile {
                    rel: rel.clone(),
                    eligible: *eligible,
                    fns: ast
                        .fns
                        .iter()
                        .enumerate()
                        .map(|(i, f)| PurityFn {
                            name: f.name.clone(),
                            qual: f.qual.clone(),
                            line: f.line,
                            in_test: f.in_test,
                            waived: waived.contains(&f.name.as_str()),
                            direct: direct[i].clone(),
                            calls: outcome.fn_calls[i].clone(),
                        })
                        .collect(),
                }
            })
            .collect()
    }

    fn run(files: &[(&str, &str, bool)], waived: &[&str]) -> Vec<(usize, usize, String)> {
        analyze(&build(files, waived))
    }

    // -- the canonical catch ---------------------------------------------

    #[test]
    fn two_hop_transitive_wall_clock_reach_is_flagged() {
        let f = run(
            &[
                (
                    "crates/machine/src/lib.rs",
                    "fn step_machine() { helper_mid(); }\nfn helper_mid() { read_clock(); }\n",
                    true,
                ),
                (
                    "crates/util/src/lib.rs",
                    "fn read_clock() -> u64 { let t = Instant::now(); 0 }\n",
                    true,
                ),
            ],
            &[],
        );
        // `read_clock` is direct (clippy's), `helper_mid` one hop,
        // `step_machine` two hops: both hops are P1 findings.
        assert_eq!(f.len(), 2, "{f:?}");
        let msg = &f.iter().find(|(_, line, _)| *line == 1).unwrap().2;
        assert!(
            msg.contains("`step_machine` → `helper_mid` (crates/machine/src/lib.rs:2)"),
            "{msg}"
        );
        assert!(
            msg.contains("→ `read_clock` (crates/util/src/lib.rs:1)"),
            "{msg}"
        );
        assert!(
            msg.contains("banned `Instant` at crates/util/src/lib.rs:1"),
            "{msg}"
        );
    }

    #[test]
    fn direct_offenders_are_left_to_d1() {
        let f = run(
            &[(
                "a.rs",
                "fn uses_clock() { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pure_chains_are_clean() {
        let f = run(
            &[(
                "a.rs",
                "fn top() { mid(); }\nfn mid() { bottom(); }\nfn bottom() -> f64 { 1.0 }\n",
                true,
            )],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // -- waiver semantics -------------------------------------------------

    #[test]
    fn waived_fn_is_not_flagged() {
        let f = run(
            &[(
                "a.rs",
                "fn timed_run() { read_clock(); }\nfn read_clock() { let t = Instant::now(); }\n",
                true,
            )],
            &["timed_run"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn waiver_is_a_propagation_boundary() {
        // main -> timed_run(waived) -> read_clock(direct): the waiver
        // stops the cascade, so main stays clean.
        let f = run(
            &[(
                "a.rs",
                "fn main() { timed_run(); }\nfn timed_run() { read_clock(); }\nfn read_clock() { let t = Instant::now(); }\n",
                true,
            )],
            &["timed_run"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwaived_chains_cascade_to_every_caller() {
        let f = run(
            &[(
                "a.rs",
                "fn main() { timed_run(); }\nfn timed_run() { read_clock(); }\nfn read_clock() { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        // Both main and timed_run are flagged (read_clock is clippy's).
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn waiving_a_direct_fn_sanctions_its_callers() {
        let f = run(
            &[(
                "a.rs",
                "fn caller() { read_clock(); }\nfn read_clock() { let t = Instant::now(); }\n",
                true,
            )],
            &["read_clock"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // -- resolution rules -------------------------------------------------

    #[test]
    fn name_collisions_block_propagation_unless_all_impure() {
        // Two `refresh` defs: one impure, one pure. The call must not
        // conduct.
        let f = run(
            &[
                (
                    "a.rs",
                    "fn caller() { refresh(); }\nfn refresh() { let t = Instant::now(); }\n",
                    true,
                ),
                ("b.rs", "fn refresh() -> f64 { 1.0 }\n", true),
            ],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn name_collisions_conduct_when_all_defs_are_impure() {
        let f = run(
            &[
                (
                    "a.rs",
                    "fn caller() { refresh(); }\nfn refresh() { let t = Instant::now(); }\n",
                    true,
                ),
                (
                    "b.rs",
                    "fn refresh() { let t = SystemTime::now(); }\n",
                    true,
                ),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`caller`"), "{}", f[0].2);
    }

    #[test]
    fn unknown_names_conduct_nothing() {
        // `push`, `get`, `len` resolve to nothing in the workspace.
        let f = run(
            &[(
                "a.rs",
                "fn caller(v: &mut Vec<f64>) { v.push(1.0); v.len(); }\n",
                true,
            )],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn method_call_edges_conduct() {
        let f = run(
            &[(
                "a.rs",
                "impl Sw { fn elapsed_poll(&self) { let t = Instant::now(); } }\nfn caller(s: &Sw) { s.elapsed_poll(); }\n",
                true,
            )],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`Sw::elapsed_poll`"), "{}", f[0].2);
    }

    #[test]
    fn test_fns_neither_flag_nor_conduct() {
        let files = &[(
            "a.rs",
            "fn caller() { helper(); }\nfn helper() { let t = Instant::now(); }\n",
            true,
        )];
        let mut built = build(files, &[]);
        built[0].fns[1].in_test = true; // helper is now test-only
        let f = analyze(&built);
        assert!(f.is_empty(), "{f:?}");
    }

    // -- sanctioned crates ------------------------------------------------

    #[test]
    fn bench_conducts_but_never_reports() {
        let f = run(
            &[
                (
                    "crates/bench/src/lib.rs",
                    "fn time_reps() { let sw = Instant::now(); }\nfn render_table() { time_reps(); }\n",
                    false,
                ),
                (
                    "crates/experiments/src/main.rs",
                    "fn run_bench_verb() { time_reps(); }\n",
                    true,
                ),
            ],
            &[],
        );
        // render_table (inside bench) is impure but not reported;
        // run_bench_verb (experiments) is reported.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`run_bench_verb`"), "{}", f[0].2);
        assert!(
            f[0].2
                .contains("banned `Instant` at crates/bench/src/lib.rs:1"),
            "{}",
            f[0].2
        );
    }

    #[test]
    fn simpar_thread_use_is_sanctioned_at_the_source() {
        // direct_sites already exempts thread tokens under simpar, so
        // callers of the pool are pure.
        let f = run(
            &[
                (
                    "crates/simpar/src/lib.rs",
                    "pub fn map_indexed() { std::thread::scope(|s| {}); }\n",
                    false,
                ),
                (
                    "crates/experiments/src/harness.rs",
                    "fn run_trials() { map_indexed(); }\n",
                    true,
                ),
            ],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_use_outside_simpar_is_a_source() {
        let f = run(
            &[
                (
                    "crates/apps/src/lib.rs",
                    "fn sneaky_pool() { std::thread::scope(|s| {}); }\n",
                    true,
                ),
                (
                    "crates/apps/src/video.rs",
                    "fn render() { sneaky_pool(); }\n",
                    true,
                ),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`render`"), "{}", f[0].2);
        assert!(f[0].2.contains("banned `thread::scope`"), "{}", f[0].2);
    }

    /// P1's impurity sources and the clock, thread and env bans in the
    /// root `clippy.toml` are one decision: every such ban names a P1
    /// token, and every P1 token names some ban.
    #[test]
    fn impurity_tokens_match_clippy_bans() {
        let banned: Vec<&str> = include_str!("../../../clippy.toml")
            .lines()
            .filter_map(|l| l.split("path = \"").nth(1)?.split('"').next())
            .filter(|p| {
                ["std::time::", "std::thread::", "std::env::"]
                    .iter()
                    .any(|m| p.starts_with(m))
            })
            .collect();
        assert!(banned.len() >= 8, "{banned:?}");
        let tokens: Vec<&str> = CLOCK_TOKENS.iter().chain(&THREAD_TOKENS).copied().collect();
        for path in &banned {
            assert!(
                tokens.iter().any(|t| path.contains(t)),
                "clippy.toml bans `{path}` but P1 does not treat it as impure"
            );
        }
        for tok in &tokens {
            assert!(
                banned.iter().any(|p| p.contains(tok)),
                "P1 treats `{tok}` as impure but clippy.toml does not ban it"
            );
        }
    }

    // -- direct_sites details ---------------------------------------------

    #[test]
    fn direct_sites_ignore_waiver_comments() {
        // The waiver comment lives in the comment stream; the stripped
        // code still carries the token — and P1 must see it.
        let src =
            "fn start() {\n    let t = Instant::now(); // simlint: allow(P1) — timing crate\n}\n";
        let stripped = crate::strip(src);
        let ast = parse_file(&lex(&stripped.code));
        let sites = direct_sites("crates/bench/src/lib.rs", &stripped.code, &ast.fns);
        assert_eq!(sites[0], Some(("Instant".to_string(), 2)));
    }

    #[test]
    fn direct_sites_report_the_first_line() {
        let src = "fn f() {\n    let a = SystemTime::now();\n    let b = Instant::now();\n}\n";
        let stripped = crate::strip(src);
        let ast = parse_file(&lex(&stripped.code));
        let sites = direct_sites("a.rs", &stripped.code, &ast.fns);
        // Line 2 carries SystemTime — scan order is line-major.
        assert_eq!(sites[0], Some(("SystemTime".to_string(), 2)));
    }

    #[test]
    fn bodiless_signatures_have_no_sites() {
        let src = "trait T { fn poll(&self); }\n";
        let stripped = crate::strip(src);
        let ast = parse_file(&lex(&stripped.code));
        let sites = direct_sites("a.rs", &stripped.code, &ast.fns);
        assert_eq!(sites, vec![None]);
    }

    #[test]
    fn env_reads_are_sources_too() {
        let f = run(
            &[(
                "a.rs",
                "fn config() -> u64 { let v = env::var(\"X\"); 0 }\nfn caller() { config(); }\n",
                true,
            )],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("banned `env::var`"), "{}", f[0].2);
    }

    // -- path rendering and determinism -----------------------------------

    #[test]
    fn three_hop_paths_render_every_link() {
        let f = run(
            &[(
                "a.rs",
                "fn a() { b(); }\nfn b() { c(); }\nfn c() { d(); }\nfn d() { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        let top = f.iter().find(|(_, line, _)| *line == 1).unwrap();
        assert!(
            top.2.contains(
                "`a` → `b` (a.rs:2) → `c` (a.rs:3) → `d` (a.rs:4); banned `Instant` at a.rs:4"
            ),
            "{}",
            top.2
        );
    }

    #[test]
    fn first_conducting_call_in_body_order_is_the_witness() {
        let f = run(
            &[(
                "a.rs",
                "fn top() { pure(); clocky_a(); clocky_b(); }\nfn pure() {}\nfn clocky_a() { let t = Instant::now(); }\nfn clocky_b() { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("→ `clocky_a`"), "{}", f[0].2);
    }

    #[test]
    fn recursion_does_not_hang_or_flag() {
        let f = run(
            &[(
                "a.rs",
                "fn ping() { pong(); }\nfn pong() { ping(); }\n",
                true,
            )],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn recursive_cycle_reaching_a_clock_flags_the_cycle() {
        let f = run(
            &[(
                "a.rs",
                "fn ping() { pong(); }\nfn pong() { ping(); tick(); }\nfn tick() { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        // pong conducts via tick; ping conducts via pong.
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn diamond_dependencies_flag_each_caller_once() {
        let f = run(
            &[(
                "a.rs",
                "fn left() { shared(); }\nfn right() { shared(); }\nfn shared() { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let files = &[
            (
                "a.rs",
                "fn a() { c(); }\nfn b() { c(); }\nfn c() { let t = Instant::now(); }\n",
                true,
            ),
            ("d.rs", "fn d() { a(); }\n", true),
        ];
        let one = run(files, &[]);
        let two = run(files, &[]);
        assert_eq!(one, two);
        assert_eq!(one.len(), 3, "{one:?}");
    }

    #[test]
    fn calls_inside_closures_and_branches_conduct() {
        let f = run(
            &[(
                "a.rs",
                "fn top(xs: &[f64], go: bool) { if go { xs.iter().map(|x| clocky(x)); } }\nfn clocky(x: &f64) { let t = Instant::now(); }\n",
                true,
            )],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`top`"), "{}", f[0].2);
    }

    #[test]
    fn qualified_path_calls_resolve_by_last_segment() {
        let f = run(
            &[
                (
                    "crates/bench/src/lib.rs",
                    "impl Stopwatch { fn start_wall() -> Stopwatch { let t = Instant::now(); Stopwatch } }\n",
                    false,
                ),
                (
                    "crates/experiments/src/main.rs",
                    "fn verb() { let sw = Stopwatch::start_wall(); }\n",
                    true,
                ),
            ],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].2
                .contains("`verb` → `Stopwatch::start_wall` (crates/bench/src/lib.rs:1)"),
            "{}",
            f[0].2
        );
    }
}
