//! The live workspace must be simlint-clean.
//!
//! This is the same check `scripts/verify.sh` and CI run via the binary,
//! kept as a test so `cargo test` alone catches a regression: any new
//! unit-less name or non-`Result` service entry point lands here as a
//! failure with the full diagnostic list — and since the scan includes
//! the workspace passes, so does any dimensional mismatch (U1) or
//! unwaived transitive wall-clock reach (P1).

use std::path::Path;

#[test]
fn live_workspace_is_simlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = simlint::scan_workspace(&root).expect("workspace scan failed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "simlint found {} violation(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}
