//! Lint parity: the rules simlint used to enforce line by line (D1's
//! direct reads, D2, D3, D5 and S1's indexing and waiver halves) are
//! now stock clippy's job. This test compiles the fixtures in
//! `tests/lint_parity/` under the workspace's real `clippy.toml` and
//! `[workspace.lints.clippy]` table and checks that clippy reports
//! exactly the lints the fixtures mark with a trailing `//~ <lint>`:
//! every positive case draws its lint, every carve-out draws nothing,
//! and a stale `#[expect]` fails.
//!
//! `s1.rs` and `s1_waiver.rs` build under the same crate-level
//! `forbid`s as `crates/simserve/src/lib.rs`, copied from that file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// (crate, fixture files, copies simserve's crate-level forbids).
const CRATES: [(&str, &[&str], bool); 3] = [
    ("sim", &["d1.rs", "d2.rs", "d3.rs", "d5.rs"], false),
    ("service", &["s1.rs"], true),
    // E0453 stops the build before lints run, so it gets its own crate.
    ("service_waiver", &["s1_waiver.rs"], true),
];

/// One diagnostic: (fixture file, line, lint or error code).
type Hit = (String, usize, String);

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    let made = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    made.and_then(|()| std::fs::write(path, text))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The `//~` markers of one fixture file.
fn expected(file: &str, src: &str) -> BTreeSet<Hit> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        if let Some((_, marks)) = line.split_once("//~") {
            for lint in marks.split_whitespace() {
                out.insert((file.to_string(), i + 1, lint.to_string()));
            }
        }
    }
    out
}

/// Parses one line of `--message-format=json-diagnostic-short` output.
/// The first non-null `rendered` is the diagnostic's own
/// `file:line:col: level: message`, and only the top-level diagnostic
/// carries a `code` object.
fn hit(json: &str) -> Option<Hit> {
    let field = |key: &str| -> Option<&str> {
        let start = json.find(key)? + key.len();
        json[start..].split('"').next()
    };
    let rendered = field("\"rendered\":\"")?;
    let mut loc = rendered.split(':');
    let file = loc.next()?.rsplit('/').next()?.to_string();
    let line = loc.next()?.parse().ok()?;
    let code = field("\"code\":{\"code\":\"").unwrap_or("?");
    Some((file, line, code.trim_start_matches("clippy::").to_string()))
}

#[test]
fn clippy_enforces_the_retired_simlint_rules() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_parity");
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_parity");
    let _ = std::fs::remove_dir_all(&root);

    let manifest = read(&repo.join("Cargo.toml"));
    let table = manifest
        .split("\n[")
        .find(|s| s.starts_with("workspace.lints.clippy]"))
        .expect("root Cargo.toml has a [workspace.lints.clippy] table");
    let serve = read(&repo.join("crates/simserve/src/lib.rs"));
    let forbids: String = serve
        .lines()
        .filter(|l| l.starts_with("#![") && l.contains("forbid(clippy::"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(forbids.contains("unwrap_used"), "simserve forbids moved");

    let mut want = BTreeSet::new();
    write(
        &root.join("Cargo.toml"),
        &format!("[workspace]\nmembers = [\"crates/*\"]\n\n[{table}"),
    );
    for (name, files, service) in CRATES {
        let dir = root.join("crates").join(name);
        write(
            &dir.join("Cargo.toml"),
            &format!(
                "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
                 [lints]\nworkspace = true\n"
            ),
        );
        let mut lib = if service { &forbids } else { "" }.to_string();
        for file in files {
            let src = read(&fixtures.join(file));
            want.extend(expected(file, &src));
            write(&dir.join("src").join(file), &src);
            lib.push_str(&format!("pub mod {};\n", file.trim_end_matches(".rs")));
        }
        write(&dir.join("src/lib.rs"), &lib);
    }

    let out = Command::new(env!("CARGO"))
        .current_dir(&root)
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--keep-going",
            "--offline",
        ])
        .arg("--message-format=json-diagnostic-short")
        .env("CARGO_TARGET_DIR", root.join("target"))
        .env("CLIPPY_CONF_DIR", &repo)
        .output()
        .expect("run cargo clippy");
    let got: BTreeSet<Hit> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""))
        .filter_map(hit)
        .collect();

    let stale = want
        .iter()
        .find(|h| h.2 == "unfulfilled_lint_expectations")
        .expect("the fixtures carry a stale #[expect]");
    assert!(
        got.contains(stale),
        "negative control: a stale #[expect] must fail\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let missing: Vec<&Hit> = want.difference(&got).collect();
    let extra: Vec<&Hit> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "clippy disagrees with the fixture markers\nmissing: {missing:?}\nunexpected: {extra:?}"
    );
}
