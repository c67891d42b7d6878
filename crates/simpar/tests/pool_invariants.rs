//! PoolStats invariants: the chunk plan and the scheduling stats must
//! describe a real, exact partition of the work.
//!
//! Three properties, each over adversarial `(n, workers)` grids:
//!
//! 1. `plan_chunks` partitions `0..n` exactly — contiguous, no overlap,
//!    no gap, every chunk non-empty.
//! 2. A forced-parallel run's per-worker item counts sum to `n`, and
//!    its per-worker chunk counts sum to the plan length (every chunk
//!    claimed exactly once).
//! 3. The inline fallback spawns zero workers and says so.
//!
//! The cost-aware plan (`plan_chunks_by_cost`) gets the same partition
//! check under adversarial costs, must reproduce `plan_chunks` exactly
//! for unit costs, and must keep every chunk within its cost budget on
//! the skewed fig16 shape it exists for.

use simpar::{plan_chunks, plan_chunks_by_cost, Chunk, PoolConfig};

/// Adversarial item counts: empty, single, around powers of two, around
/// typical worker counts, and a large one.
const NS: [usize; 17] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 1000];

/// Worker counts: serial through oversubscribed.
const WORKERS: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// Asserts that `plan` partitions `0..n` exactly: contiguous, no
/// overlap, no gap, every chunk non-empty.
fn assert_partition(plan: &[Chunk], n: usize, what: &str) {
    let mut next = 0usize;
    for c in plan {
        assert_eq!(
            c.start, next,
            "gap/overlap at {what}: chunk starts at {} but {} items are covered",
            c.start, next
        );
        assert!(c.len > 0, "empty chunk at {what}");
        next += c.len;
    }
    assert_eq!(next, n, "plan covers {next} of {n} items at {what}");
    if n == 0 {
        assert!(plan.is_empty(), "non-empty plan for zero items");
    }
}

/// Property 1: the plan partitions `0..n` exactly for every grid point.
#[test]
fn plan_partitions_index_space_exactly() {
    for n in NS {
        for workers in WORKERS {
            let plan = plan_chunks(n, workers);
            assert_partition(&plan, n, &format!("n={n} workers={workers}"));
        }
    }
}

/// Adversarial cost vectors of length `n`, by name.
fn adversarial_costs(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    let near_half = u64::MAX / 2;
    vec![
        ("all zero", vec![0; n]),
        (
            "huge first",
            (0..n).map(|i| if i == 0 { near_half } else { 1 }).collect(),
        ),
        (
            "huge last",
            (0..n)
                .map(|i| if i + 1 == n { near_half } else { 1 })
                .collect(),
        ),
        (
            "alternating",
            (0..n).map(|i| if i % 2 == 0 { 1000 } else { 1 }).collect(),
        ),
        ("all near u64::MAX / 2", vec![near_half; n]),
        (
            "sum near u64::MAX / 2",
            vec![near_half / (n.max(1) as u64); n],
        ),
    ]
}

/// The cost-aware plan partitions `0..n` exactly under adversarial
/// costs — zero hints, one item dwarfing the rest at either end,
/// alternating heavy/light, and sums at the edge of `u64`.
#[test]
fn cost_plan_partitions_index_space_exactly() {
    for n in NS {
        for (name, costs) in adversarial_costs(n) {
            for workers in WORKERS {
                let plan = plan_chunks_by_cost(&costs, workers);
                assert_partition(&plan, n, &format!("{name} n={n} workers={workers}"));
            }
        }
    }
}

/// Unit costs are the count-guided plan: every existing caller of
/// `plan_chunks` gets byte-identical chunk boundaries.
#[test]
fn unit_costs_reproduce_plan_chunks() {
    for n in NS {
        for workers in WORKERS {
            assert_eq!(
                plan_chunks_by_cost(&vec![1; n], workers),
                plan_chunks(n, workers),
                "n={n} workers={workers}"
            );
        }
    }
}

/// On the bench fig16 shape — 64 cells whose first 16 (the Video row)
/// carry the cost hint 60 — no chunk costs more than its budget
/// `remaining / (2w)` or the largest single item, whichever is larger.
/// Count-guided chunking put all 16 Video cells in chunk 0 at w = 2.
#[test]
fn fig16_shape_chunks_stay_within_budget() {
    let costs: Vec<u64> = (0..64).map(|i| if i < 16 { 60 } else { 1 }).collect();
    let workers = 2;
    let largest = costs.iter().copied().max().unwrap_or(1);
    let plan = plan_chunks_by_cost(&costs, workers);
    assert_partition(&plan, costs.len(), "fig16 shape");
    let mut remaining: u64 = costs.iter().sum();
    for c in &plan {
        let cost: u64 = costs[c.start..c.start + c.len].iter().sum();
        let bound = (remaining / (2 * workers as u64)).max(largest);
        assert!(
            cost <= bound,
            "chunk {c:?} costs {cost}, over max(remaining/(2w), largest) = {bound}"
        );
        remaining -= cost;
    }
    let video_chunks = plan.iter().filter(|c| c.start < 16).count();
    assert!(
        video_chunks >= 4,
        "Video cells must spread over several chunks, got {video_chunks}"
    );
    assert_eq!(plan_chunks(64, workers)[0].len, 16);
}

/// Property 2: on the forced-parallel path, per-worker accounting sums
/// to the whole job — items to `n`, chunks to the plan length — and the
/// results are the identity permutation (each job returns its index).
#[test]
fn per_worker_accounting_sums_to_whole_job() {
    for n in NS.into_iter().filter(|&n| n >= 2) {
        for workers in [2, 3, 4, 8] {
            // assume_parallelism forces real spawning even on a
            // single-core CI host, where the pool would otherwise
            // (correctly) run inline.
            let cfg = PoolConfig::new(workers).assume_parallelism(workers);
            let (out, stats) = simpar::map_indexed_stats(&cfg, n, |i| i);
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert!(!stats.inline, "n={n} workers={workers} ran inline");
            assert_eq!(stats.items, n);
            assert_eq!(stats.workers_spawned, workers.min(n));
            assert_eq!(stats.per_worker_items.len(), stats.workers_spawned);
            assert_eq!(stats.per_worker_chunks.len(), stats.workers_spawned);
            assert_eq!(
                stats.per_worker_items.iter().sum::<usize>(),
                n,
                "worker item counts must sum to n={n} (workers={workers})"
            );
            assert_eq!(
                stats.per_worker_chunks.iter().sum::<usize>(),
                stats.plan.len(),
                "every chunk claimed exactly once (n={n} workers={workers})"
            );
            assert_eq!(stats.chunks_claimed(), stats.plan.len());
        }
    }
}

/// Property 3: every inline trigger — one thread, one job, empty input,
/// or a single-core host — reports zero spawned workers.
#[test]
fn inline_fallback_reports_zero_workers() {
    let cases: [(PoolConfig, usize, &str); 4] = [
        (PoolConfig::new(1).assume_parallelism(8), 64, "one thread"),
        (PoolConfig::new(8).assume_parallelism(8), 1, "one job"),
        (PoolConfig::new(8).assume_parallelism(8), 0, "empty input"),
        (
            PoolConfig::new(8).assume_parallelism(1),
            64,
            "single-core host",
        ),
    ];
    for (cfg, n, why) in cases {
        let (out, stats) = simpar::map_indexed_stats(&cfg, n, |i| i * 3);
        assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        assert!(stats.inline, "{why}: expected the inline path");
        assert_eq!(stats.workers_spawned, 0, "{why}: inline must spawn nothing");
        assert!(stats.per_worker_items.is_empty(), "{why}");
        assert!(stats.per_worker_chunks.is_empty(), "{why}");
        if n == 0 {
            assert_eq!(stats.chunks_claimed(), 0, "{why}");
        } else {
            assert_eq!(stats.chunks_claimed(), 1, "{why}");
        }
    }
}
