//! Cross-RTS conformance suite.
//!
//! The Orca model promises that an application observes the *same* behavior
//! regardless of which runtime system keeps its replicas consistent: the
//! broadcast RTS (full replication, operation shipping), the primary-copy
//! RTS in both its update and invalidate variants, and the sharded RTS
//! (partitioned objects, owner-shipped operations) are interchangeable
//! implementations of consistent shared objects. This suite runs one
//! replicated-worker program under all strategies — with network fault
//! injection enabled — and asserts that every observable (job coverage,
//! final sums, table contents) is identical.
//!
//! Set `ORCA_RTS=<name-prefix>` to restrict the suite to matching
//! strategies (CI runs a dedicated `ORCA_RTS=sharded` matrix entry), and
//! `ORCA_SEED=<n>` to override every fault-injection seed — the seed a
//! failure reports reproduces that failure with this one variable.
//!
//! Beyond the fixed-workload observable comparison, the suite records
//! per-process *invocation histories* (operation, reply, issue order) on a
//! shared counter and feeds them to a sequential-consistency checker that
//! searches for one legal total order explaining every process's
//! observations — across all five strategy families, on both the
//! synchronous and the pipelined asynchronous invocation paths, with and
//! without fault injection.

use orca::amoeba::FaultConfig;
use orca::core::objects::{BoolArray, IntObject, IntOp, JobQueue, KvTable, SharedInt, TableEntry};
use orca::core::{
    replicated_workers, standard_registry, BatchPolicy, OrcaConfig, OrcaRuntime, RtsStrategy,
};

const WORKERS: usize = 3;
const JOBS: u32 = 40;

/// Fault seed, overridable with `ORCA_SEED` so a reported failure
/// reproduces with one environment variable.
fn fault_seed(default: u64) -> u64 {
    std::env::var("ORCA_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Everything the replicated-worker program can observe at the end of a
/// run. Sorted so scheduling nondeterminism (which worker gets which job)
/// does not leak into the comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    /// Every job, as seen by whichever worker processed it, sorted.
    jobs_processed: Vec<u32>,
    /// Final value of the shared accumulator.
    sum: i64,
    /// Final shared-table contents: job -> job squared.
    squares: Vec<(u32, i64)>,
    /// Every worker raised its completion flag.
    all_done: bool,
}

fn strategies() -> Vec<(&'static str, RtsStrategy)> {
    let all = vec![
        ("broadcast", RtsStrategy::broadcast()),
        ("primary_update", RtsStrategy::primary_update()),
        ("primary_invalidate", RtsStrategy::primary_invalidate()),
        // Single-partition sharding must be observationally identical to
        // primary-copy; multi-partition sharding parallelizes writes but
        // must not change any observable either.
        ("sharded", RtsStrategy::sharded(1)),
        ("sharded_multi", RtsStrategy::sharded(4)),
        // With the default window the adaptive system hardly moves an
        // object in a run this short; the eager variant reports, evaluates
        // and moves after very little evidence, so switches happen
        // *during* the run — while workers are mid-drain and the fault
        // injector is dropping packets — and must not change any
        // observable.
        ("adaptive", RtsStrategy::adaptive()),
        (
            "adaptive_eager",
            RtsStrategy::Adaptive {
                policy: orca::rts::AdaptivePolicy::eager(),
            },
        ),
    ];
    match std::env::var("ORCA_RTS") {
        Ok(only) if !only.is_empty() => {
            let filtered: Vec<_> = all
                .into_iter()
                .filter(|(name, _)| name.starts_with(&only))
                .collect();
            assert!(!filtered.is_empty(), "ORCA_RTS={only} matches no strategy");
            filtered
        }
        _ => all,
    }
}

/// The reference program: a shared job queue feeds workers that accumulate
/// into a shared integer, publish per-job results into a shared table, and
/// raise a completion flag.
fn run_program(strategy: RtsStrategy, fault: FaultConfig) -> Observables {
    let config = OrcaConfig {
        fault,
        strategy,
        ..OrcaConfig::broadcast(WORKERS)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let main = runtime.main();
    let queue: JobQueue<u32> = JobQueue::create(main).unwrap();
    let sum = SharedInt::create(main, 0).unwrap();
    let squares = KvTable::create(main).unwrap();
    let done = BoolArray::create(main, WORKERS, false).unwrap();
    for job in 1..=JOBS {
        queue.add(main, &job).unwrap();
    }
    queue.close(main).unwrap();

    let per_worker: Vec<Vec<u32>> = replicated_workers(&runtime, WORKERS, move |worker, ctx| {
        let mut mine = Vec::new();
        while let Some(job) = queue.get(&ctx).unwrap() {
            sum.add(&ctx, i64::from(job)).unwrap();
            let entry = TableEntry {
                depth: 0,
                value: i64::from(job) * i64::from(job),
                aux: 0,
            };
            squares.put(&ctx, u64::from(job), entry).unwrap();
            mine.push(job);
        }
        done.set(&ctx, worker as u32, true).unwrap();
        mine
    });

    let mut jobs_processed: Vec<u32> = per_worker.into_iter().flatten().collect();
    jobs_processed.sort_unstable();
    let main = runtime.main();
    // Under message loss the workers' final broadcasts may still be in
    // flight (awaiting gap repair) when the workers join; reads on main are
    // local replica reads, so wait for the last write to become visible
    // before snapshotting the observables.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done.all_true(main).unwrap() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut squares_out: Vec<(u32, i64)> = (1..=JOBS)
        .filter_map(|job| {
            squares
                .get(main, u64::from(job))
                .unwrap()
                .map(|entry| (job, entry.value))
        })
        .collect();
    squares_out.sort_unstable();
    let observed = Observables {
        jobs_processed,
        sum: sum.value(main).unwrap(),
        squares: squares_out,
        all_done: done.all_true(main).unwrap(),
    };
    runtime.shutdown();
    observed
}

fn expected() -> Observables {
    Observables {
        jobs_processed: (1..=JOBS).collect(),
        sum: (1..=JOBS).map(i64::from).sum(),
        squares: (1..=JOBS)
            .map(|j| (j, i64::from(j) * i64::from(j)))
            .collect(),
        all_done: true,
    }
}

#[test]
fn all_strategies_agree_on_a_reliable_network() {
    for (name, strategy) in strategies() {
        let observed = run_program(strategy, FaultConfig::reliable());
        assert_eq!(
            observed,
            expected(),
            "strategy {name} diverged (reliable network; reproduce with ORCA_RTS={name})"
        );
    }
}

#[test]
fn all_strategies_agree_under_fault_injection() {
    // The broadcast RTS rides on the PB/BB recovery protocols and the
    // primary-copy RTS on reliable RPC transport, so a lossy, duplicating,
    // reordering network must not change any observable outcome.
    let fault = FaultConfig {
        drop_prob: 0.1,
        duplicate_prob: 0.05,
        reorder_prob: 0.05,
        seed: fault_seed(0x5EED),
    };
    for (name, strategy) in strategies() {
        let observed = run_program(strategy, fault);
        assert_eq!(
            observed,
            expected(),
            "strategy {name} diverged under faults (reproduce with ORCA_RTS={name} ORCA_SEED={})",
            fault.seed
        );
    }
}

#[test]
fn sharded_single_partition_matches_primary_update_exactly() {
    // The acceptance bar for the sharded runtime system: with N = 1 every
    // shardable object degenerates to one owner-held copy and the program
    // must observe exactly what the primary-copy (update) system produces.
    let sharded = run_program(RtsStrategy::sharded(1), FaultConfig::reliable());
    let primary = run_program(RtsStrategy::primary_update(), FaultConfig::reliable());
    assert_eq!(sharded, primary);
}

/// Per-object partition placements (owner node index per partition).
type Placements = Vec<Vec<u16>>;

/// Per-node message-delivery counts:
/// `(p2p sent, broadcasts sent, interrupts taken, drops)`.
type DeliveryCounts = Vec<(u64, u64, u64, u64)>;

/// Trace of one deterministic single-threaded sharded run: partition
/// placements of every object plus the per-node message-delivery counts.
/// Byte counts are deliberately excluded: RPC request ids come from a
/// process-global counter, so their varint encodings (and nothing else)
/// differ between two runs in one test process.
fn sharded_trace(partitions: u32) -> (Placements, DeliveryCounts) {
    let runtime = OrcaRuntime::start(OrcaConfig::sharded(4, partitions), standard_registry());
    let main = runtime.main();
    let queue: JobQueue<u32> = JobQueue::create(main).unwrap();
    let squares = KvTable::create(main).unwrap();
    for job in 1..=24u32 {
        queue.add(main, &job).unwrap();
    }
    queue.close(main).unwrap();
    // Drain single-threadedly from a non-creating node so every operation
    // sequence (and thus every message sequence) is fully determined.
    let ctx = runtime.context(2);
    while let Some(job) = queue.get(ctx).unwrap() {
        let entry = TableEntry {
            depth: 0,
            value: i64::from(job) * i64::from(job),
            aux: 0,
        };
        squares.put(ctx, u64::from(job), entry).unwrap();
    }
    let placements = [queue.handle().id(), squares.handle().id()]
        .into_iter()
        .map(|object| {
            runtime
                .shard_owners(object)
                .unwrap()
                .into_iter()
                .map(|node| node.0)
                .collect()
        })
        .collect();
    let deliveries = runtime
        .network_stats()
        .per_node
        .iter()
        .map(|node| {
            (
                node.p2p_sent,
                node.broadcasts_sent,
                node.interrupts,
                node.dropped,
            )
        })
        .collect();
    runtime.shutdown();
    (placements, deliveries)
}

#[test]
fn sharded_placement_and_delivery_are_deterministic() {
    // Two runs of the same configuration must place every partition on the
    // same owner and exchange byte-identical traffic: shard placement is a
    // pure function of the object id, and routing decisions (including the
    // GetJob partition scan order) contain no hidden nondeterminism.
    let (placements_a, stats_a) = sharded_trace(4);
    let (placements_b, stats_b) = sharded_trace(4);
    assert_eq!(placements_a, placements_b, "shard placement changed");
    assert_eq!(stats_a, stats_b, "delivery sequences changed");
    // The queue really is spread: its partitions have more than one owner.
    let queue_owners: std::collections::BTreeSet<u16> = placements_a[0].iter().copied().collect();
    assert!(queue_owners.len() > 1, "expected a multi-owner placement");
}

#[test]
fn fault_schedule_seed_does_not_leak_into_observables() {
    // Different fault schedules change *how* the protocols recover, never
    // *what* the application observes.
    for seed in [1u64, 99, 0xA30EBA] {
        let fault = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            reorder_prob: 0.05,
            seed: fault_seed(seed),
        };
        let observed = run_program(RtsStrategy::broadcast(), fault);
        assert_eq!(
            observed,
            expected(),
            "seed {} changed observables (reproduce with ORCA_SEED={})",
            fault.seed,
            fault.seed
        );
    }
}

// ---------------------------------------------------------------------------
// Sequential-consistency history checking.
//
// Workers hammer one shared counter with `Add` operations (each returns the
// post-operation sum) and occasional `Value` reads, recording their own
// history in issue order. The checker itself lives in `orca-check` (shared
// with the seed sweep and the `orca-mc` bounded model checker): it searches
// for ONE total order of all operations, consistent with every process's
// issue order, in which each reply equals the running prefix sum.
// ---------------------------------------------------------------------------

use orca_check::{sequentially_consistent, HistOp};

const HIST_WORKERS: usize = 3;
const HIST_OPS: usize = 12;

/// Run the counter workload under one strategy and record every worker's
/// history. `async_path` drives the pipelined asynchronous invocations
/// (windows of 4 kept in flight, waited in issue order) instead of the
/// blocking path.
fn run_history_program(
    label: &str,
    strategy: RtsStrategy,
    fault: FaultConfig,
    async_path: bool,
) -> Vec<Vec<HistOp>> {
    let config = OrcaConfig {
        fault,
        strategy,
        ..OrcaConfig::broadcast(HIST_WORKERS)
    }
    .with_batch(BatchPolicy {
        max_batch: 8,
        max_delay: std::time::Duration::from_millis(2),
    });
    let runtime = OrcaRuntime::start(config, standard_registry());
    let counter = runtime.create::<IntObject>(&0).unwrap();
    let seed = fault.seed;
    let workers: Vec<_> = (0..HIST_WORKERS)
        .map(|w| {
            let label = format!("{label} (ORCA_SEED={seed})");
            runtime.fork_on(w, "historian", move |ctx| {
                // Distinct deltas per (worker, op) make replies maximally
                // discriminating; every 4th op is a read.
                let ops: Vec<IntOp> = (0..HIST_OPS)
                    .map(|i| {
                        if i % 4 == 3 {
                            IntOp::Value
                        } else {
                            IntOp::Add((w * HIST_OPS + i + 1) as i64)
                        }
                    })
                    .collect();
                let deltas: Vec<i64> = ops
                    .iter()
                    .map(|op| match op {
                        IntOp::Add(d) => *d,
                        _ => 0,
                    })
                    .collect();
                let replies: Vec<i64> = if async_path {
                    let mut replies = Vec::new();
                    for window in ops.chunks(4) {
                        let futures = ctx.invoke_many(counter, window);
                        for future in &futures {
                            replies.push(future.wait().unwrap_or_else(|err| {
                                panic!("{label}: async invocation failed: {err}")
                            }));
                        }
                    }
                    replies
                } else {
                    ops.iter()
                        .map(|op| {
                            ctx.invoke(counter, op).unwrap_or_else(|err| {
                                panic!("{label}: sync invocation failed: {err}")
                            })
                        })
                        .collect()
                };
                deltas
                    .into_iter()
                    .zip(replies)
                    .map(|(delta, reply)| HistOp { delta, reply })
                    .collect::<Vec<HistOp>>()
            })
        })
        .collect();
    let histories: Vec<Vec<HistOp>> = workers.into_iter().map(|w| w.join()).collect();
    // Check consistency while the runtime (and its flight recorder) is
    // still alive: a violation persists the black box — every protocol
    // event of the run plus the causal span of each invocation — and the
    // failure message carries its path.
    if !sequentially_consistent(&histories) {
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let dump = runtime
            .telemetry()
            .dump_to_file(&format!("conformance_{slug}"));
        panic!(
            "{label}: no sequentially consistent total order explains the \
             histories {histories:?}\n  flight dump: {dump:?}"
        );
    }
    runtime.shutdown();
    histories
}

/// The strategy families the history checker sweeps (one representative
/// per family — five in all).
fn history_strategies() -> Vec<(&'static str, RtsStrategy)> {
    strategies()
        .into_iter()
        .filter(|(name, _)| {
            matches!(
                *name,
                "broadcast"
                    | "primary_update"
                    | "primary_invalidate"
                    | "sharded_multi"
                    | "adaptive_eager"
            )
        })
        .collect()
}

#[test]
fn histories_are_sequentially_consistent_on_sync_and_async_paths() {
    let faults = [
        ("reliable", FaultConfig::reliable()),
        (
            "faulty",
            FaultConfig {
                drop_prob: 0.08,
                duplicate_prob: 0.04,
                reorder_prob: 0.04,
                seed: fault_seed(0xC0FFEE),
            },
        ),
    ];
    for (name, strategy) in history_strategies() {
        for (fault_name, fault) in faults {
            for async_path in [false, true] {
                let path = if async_path { "async" } else { "sync" };
                let label = format!("strategy {name}, {fault_name} network, {path} path");
                let histories = run_history_program(&label, strategy.clone(), fault, async_path);
                // Per-process per-object issue-order completion: with all
                // deltas positive, a later-issued write must return a
                // strictly larger sum than an earlier one. An RTS that
                // reordered or dropped a pipelined write breaks this
                // before the full checker even runs.
                for (w, history) in histories.iter().enumerate() {
                    let write_replies: Vec<i64> = history
                        .iter()
                        .filter(|op| op.delta != 0)
                        .map(|op| op.reply)
                        .collect();
                    assert!(
                        write_replies.windows(2).all(|pair| pair[0] < pair[1]),
                        "{label} (ORCA_SEED={}): worker {w} writes completed out of \
                         issue order: {write_replies:?}",
                        fault.seed
                    );
                }
                assert!(
                    sequentially_consistent(&histories),
                    "{label} (ORCA_SEED={}): no sequentially consistent total order \
                     explains the histories {histories:?}",
                    fault.seed
                );
            }
        }
    }
}

/// Checker self-test: legal interleavings pass, deliberately broken
/// orderings are caught.
#[test]
fn history_checker_catches_broken_orderings() {
    let op = |delta, reply| HistOp { delta, reply };
    // Two legal serializations of two single-op processes.
    assert!(sequentially_consistent(&[vec![op(1, 1)], vec![op(2, 3)]]));
    assert!(sequentially_consistent(&[vec![op(1, 3)], vec![op(2, 2)]]));
    // Both processes claim to have run first: no total order explains it.
    assert!(!sequentially_consistent(&[vec![op(1, 1)], vec![op(2, 2)]]));
    // A read observing a sum no prefix can produce.
    assert!(!sequentially_consistent(&[vec![op(1, 1), op(0, 99)]]));
    // Issue-order violation inside one process: the replies of its two
    // writes are swapped relative to a legal execution.
    assert!(sequentially_consistent(&[
        vec![op(1, 3), op(4, 7)],
        vec![op(2, 2)],
    ]));
    assert!(!sequentially_consistent(&[
        vec![op(1, 7), op(4, 3)],
        vec![op(2, 2)],
    ]));
    // A lost write: the second op's reply misses the first one's delta.
    assert!(!sequentially_consistent(&[vec![op(1, 1), op(2, 2)]]));
    // The empty history is trivially consistent.
    assert!(sequentially_consistent(&[vec![], vec![]]));
}
