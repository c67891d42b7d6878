#![forbid(unsafe_code)]
//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload figures|serve [--seed N] [--seconds S]
//!           [--trace 0|1]
//! ```
//!
//! Runs one workload from its seed for about `--seconds`, checks every
//! output, prints each metric by name and unit, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (from an untraced pass followed by a traced one) with `--trace 1`.
//! Exits 1 when any output is wrong, 2 on a usage or input error.

mod figures;
mod harness;
mod procfs;
mod profile;
mod serve;
mod spans;
mod stats;
mod stream;

use std::collections::BTreeMap;

use harness::{run_pass, Counters, Metric, Pass, Workload};
use spans::Tracer;

/// Seed used when `--seed` is not given: the seed the committed
/// evaluation and golden files were made at.
const DEFAULT_SEED: u64 = 42;

/// Run length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Where the traced pass writes its spans.
const SPAN_DIR: &str = "target/perfbench";

/// Every per-layer metric `--trace 1` prints, with its unit. Layers a
/// workload does not drive read 0, which is the prediction for them.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for id in figures::FIGURE_IDS {
        out.push((format!("experiments.{id}.render_s"), "s"));
        out.push((format!("experiments.{id}.cpu_s"), "s"));
    }
    out.push(("simpar.utilization".to_string(), "ratio"));
    for id in figures::FIGURE_IDS {
        out.push((format!("simpar.{id}.utilization"), "ratio"));
    }
    let fixed: [(&str, &str); 40] = [
        ("machine.self_s", "s"),
        ("machine.sim_s", "s"),
        ("machine.host_us_per_sim_s", "us/s"),
        ("machine.run_until_calls", "count"),
        ("machine.readmit_faults", "count"),
        ("powerscope.observe_s", "s"),
        ("powerscope.intervals", "count"),
        ("powerscope.samples", "count"),
        ("powerscope.into_run_s", "s"),
        ("powerscope.correlate_s", "s"),
        ("powerscope.correlate_paths_s", "s"),
        ("powerscope.format_table_s", "s"),
        ("powerscope.ns_per_sample", "ns"),
        ("odyssey.goal.tick_s", "s"),
        ("odyssey.goal.ticks", "count"),
        ("simserve.server_ingest_s", "s"),
        ("simserve.ingest_calls", "count"),
        ("simserve.session_ingest_s", "s"),
        ("simserve.admit_s", "s"),
        ("simserve.finish_s", "s"),
        ("simserve.directives", "count"),
        ("simserve.dead_letters", "count"),
        ("simserve.snapshots", "count"),
        ("simcore.snapshot.freeze_s", "s"),
        ("simcore.snapshot.freeze_calls", "count"),
        ("simcore.snapshot.bytes_mean", "bytes"),
        ("simcore.snapshot.thaw_s", "s"),
        ("simcore.snapshot.thaw_calls", "count"),
        ("simcore.snapshot.useful_frac", "ratio"),
        ("simcore.trace.records", "count"),
        ("simcore.trace.jsonl_s", "s"),
        ("netsim.bytes_carried", "bytes"),
        ("netsim.rpc_timeouts", "count"),
        ("netsim.rpc_retries", "count"),
        ("bench.trace_overhead_frac", "ratio"),
        ("e2e.failed_frac", "ratio"),
        ("e2e.sim_s_per_host_s", "ratio"),
        ("e2e.ingest_p50_ms", "ms"),
        ("e2e.ingest_p99_ms", "ms"),
        ("e2e.recover_p50_ms", "ms"),
    ];
    out.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload figures|serve [--seed N] [--seconds S] [--trace 0|1]".to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !["figures", "serve"].contains(&out.workload.as_str()) {
        return Err(usage());
    }
    Ok(out)
}

/// Formats a value with all its digits; non-finite values become 0 so
/// the JSON stays valid.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_metric(kind: &str, m: &Metric) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!(" ({})", m.note)
    };
    println!("{kind} {} {} {}{note}", m.name, num(m.value), m.unit);
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn build(args: &Args, threads: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "figures" => Box::new(figures::Figures::new(threads)?),
        _ => Box::new(serve::Serve::new(args.seed)?),
    })
}

fn print_pass(label: &str, pass: &Pass, extra: &[Metric]) {
    let q = |p: f64| num(stats::percentile(&pass.round_s, p).unwrap_or(0.0));
    println!(
        "pass {label}: {} rounds, round_s min {} p25 {} p50 {} p75 {} max {}",
        pass.round_s.len(),
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0)
    );
    let rounds: Vec<String> = pass.round_s.iter().map(|r| format!("{r:.4}")).collect();
    println!("rounds {label}: {}", rounds.join(" "));
    for m in pass.common_metrics().iter().chain(extra) {
        print_metric("metric", m);
    }
    print_metric("metric", &pass.failed_frac());
    for f in pass.failures.iter().take(20) {
        println!("FAILED {f}");
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let threads = simcore::par::available_threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={threads} cpu=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::cpu_model()
    );
    let mut w = build(args, threads)?;
    let mut reference: Option<Counters> = None;
    // The traced run splits its time between the untraced pass and the
    // traced pass, so both fit the same budget as an untraced run.
    let budget_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run_pass(
        w.as_mut(),
        &mut Tracer::new(false),
        budget_s,
        &mut reference,
    )?;
    let extra = w.extra_metrics(plain.run_s());
    print_pass("untraced", &plain, &extra);
    for (name, value) in &plain.counters {
        println!("counter {name} {value}");
    }
    let mut attempted = plain.attempted;
    let mut failed = plain.failures.len() as u64;

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut tracer = Tracer::new(true);
        let traced = run_pass(w.as_mut(), &mut tracer, budget_s, &mut reference)?;
        print_pass("traced", &traced, &[]);
        attempted += traced.attempted;
        failed += traced.failures.len() as u64;
        let mut layer: BTreeMap<String, f64> = BTreeMap::new();
        for m in w.layer_metrics(&tracer, traced.shape()) {
            layer.insert(m.name, m.value);
        }
        let failed_frac = [plain.failed_frac()];
        for m in extra.iter().chain(&failed_frac) {
            layer.insert(format!("e2e.{}", m.name), m.value);
        }
        layer.insert(
            "bench.trace_overhead_frac".to_string(),
            stats::ratio(traced.run_s(), plain.run_s()) - 1.0,
        );
        for (name, value) in &traced.counters {
            println!("traced-counter {name} {value}");
        }
        let path = format!("{SPAN_DIR}/{}-seed{}.spans.jsonl", args.workload, args.seed);
        std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, tracer.jsonl()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans {path} ({} spans)", tracer.spans().len());
        for (name, self_s) in spans::self_times(tracer.spans()) {
            println!("self {name} {} s", num(self_s));
        }
        per_layer_catalogue()
            .into_iter()
            .map(|(name, unit)| {
                let v = layer.get(&name).copied().unwrap_or(0.0);
                println!("layer {name} {} {unit}", num(v));
                (name, v, unit)
            })
            .collect()
    } else {
        let common = plain.common_metrics();
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = common
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or(0.0, |m| m.value);
                (name.to_string(), v, *unit)
            })
            .collect()
    };
    let correct = failed == 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("serve", 7, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[("run_s".to_string(), 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let cat = per_layer_catalogue();
        assert!(cat.len() <= 128, "{}", cat.len());
        let mut names: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("end of section")];
            body.split("\"name\"")
                .skip(1)
                .filter_map(|s| s.split('"').nth(1).map(str::to_string))
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layer: Vec<String> = per_layer_catalogue().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layer);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
