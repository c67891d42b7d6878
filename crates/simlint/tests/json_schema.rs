//! Pins `--json` output byte for byte: key order (`path`, `line`,
//! `rule`, `message`), escaping, and array form. CI parses this output
//! and uploads it as an artifact, so the schema is a contract — if this
//! test needs updating, downstream tooling needs updating too.
//!
//! The fixture tree seeds exactly one finding per rule (D4, P1, S1, U1,
//! W0), which also proves every rule survives the trip through the
//! workspace scanner, not just through per-file unit fixtures.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test on a broken fixture"
)]

use std::path::PathBuf;

/// One finding per rule: D4 (line 2), P1 (3, reach into the clock read
/// on line 1, which is clippy's finding), U1 (4), W0 (5, unknown rule
/// with a quote to exercise escaping).
const SIM_SRC: &str = "\
fn clock() { let t = Instant::now(); }\n\
pub fn energy_total() -> f64 { 0.0 }\n\
fn reach() { clock(); }\n\
fn u1(e_j: f64, p_w: f64) -> f64 { e_j + p_w }\n\
fn w0() {} // simlint: allow(D\"9) — escaping check\n";

/// S1 (line 3): a `&mut self` entry point without `Result`.
const SERVE_SRC: &str = "\
pub struct Gate { n: u32 }\n\
impl Gate {\n\
    pub fn ingest(&mut self, n: u32) { self.n += n; }\n\
}\n";

fn write_tree() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("simlint_json_schema");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/sim/src")).expect("mkdir sim");
    std::fs::create_dir_all(root.join("crates/simserve/src")).expect("mkdir simserve");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    std::fs::write(root.join("crates/sim/src/lib.rs"), SIM_SRC).expect("write sim");
    std::fs::write(root.join("crates/simserve/src/lib.rs"), SERVE_SRC).expect("write simserve");
    root
}

#[test]
fn json_output_schema_is_pinned() {
    let root = write_tree();
    let report = simlint::scan_workspace(&root).expect("scan fixture tree");
    let expected = concat!(
        "[",
        "{\"path\":\"crates/sim/src/lib.rs\",\"line\":2,\"rule\":\"D4\",\"message\":\"",
        "public fn `energy_total` returns a unit-carrying f64 but its name does not say ",
        "the unit: end it in _j/_w/_s/_mw (see apps::units)\"},",
        "{\"path\":\"crates/sim/src/lib.rs\",\"line\":3,\"rule\":\"P1\",\"message\":\"",
        "transitively reaches a banned API: `reach` → `clock` (crates/sim/src/lib.rs:1); ",
        "banned `Instant` at crates/sim/src/lib.rs:1\"},",
        "{\"path\":\"crates/sim/src/lib.rs\",\"line\":4,\"rule\":\"U1\",\"message\":\"",
        "dimension mismatch: `+` combines J (from `e_j`) with J/s (from `p_w`)\"},",
        "{\"path\":\"crates/sim/src/lib.rs\",\"line\":5,\"rule\":\"W0\",\"message\":\"",
        "waiver names unknown rule `D\\\"9`\"},",
        "{\"path\":\"crates/simserve/src/lib.rs\",\"line\":3,\"rule\":\"S1\",\"message\":\"",
        "service-layer entry point `ingest` takes `&mut self` but does not return ",
        "`Result`: the serving API refuses bad input, it never panics\"}",
        "]"
    );
    assert_eq!(simlint::render_json(&report), expected);
    // One finding per rule, every rule represented.
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(rules, simlint::RULE_IDS);
}
