#![forbid(unsafe_code)]
//! CLI driver: `cargo run -p simlint [--json] [ROOT]`.
//!
//! Scans every `.rs` file under `ROOT` (default: the current directory,
//! which is the workspace root when invoked through `cargo run`) and
//! prints one diagnostic per violation. Exits 0 when the tree is clean,
//! 1 when there are findings, 2 on usage or I/O errors — so it slots
//! directly into `scripts/verify.sh` and CI as a hard gate.

use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: simlint [--json] [ROOT]");
    std::process::exit(2)
}

fn main() {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => {
                if root.is_some() {
                    usage();
                }
                root = Some(PathBuf::from(other));
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let report = match simlint::scan_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("simlint: {e}");
            std::process::exit(2);
        }
    };
    if json {
        println!("{}", simlint::render_json(&report));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        eprintln!(
            "simlint: {} finding(s) in {} file(s)",
            report.findings.len(),
            report.files_scanned
        );
    }
    if !report.findings.is_empty() {
        std::process::exit(1);
    }
}
