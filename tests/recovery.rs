//! Crash-recovery conformance: kill 1 of 4 nodes *mid-workload* under
//! every runtime-system strategy.
//!
//! The scenario exercises the hardest placement: the shared table is
//! created on the node that will be killed, so its death orphans the
//! primary copy (primary strategy), the routing table plus the partitions
//! it owned (sharded), and the authoritative home copy (adaptive). The
//! broadcast strategy keeps full replicas everywhere and rides the group
//! layer's sequencer machinery instead.
//!
//! Invariants checked for every strategy:
//!
//! * every write *acknowledged* to a surviving worker is present after
//!   recovery (in-flight unacknowledged writes may or may not land);
//! * all survivors converge on the identical table contents;
//! * the membership view agrees the killed node is gone.
//!
//! Set `ORCA_RTS=<name-prefix>` to restrict to matching strategies, like
//! the fault-injection conformance suite.

use std::time::{Duration, Instant};

use orca::amoeba::{FaultConfig, NodeId};
use orca::core::objects::{KvTable, TableEntry};
use orca::core::{standard_registry, OrcaConfig, OrcaRuntime, RecoveryConfig, RtsStrategy};
use orca::rts::{AdaptivePolicy, RegimeKind, RtsKind, WritePolicy};

/// Fault seed, overridable with `ORCA_SEED` so a reported failure
/// reproduces with one environment variable (same plumbing as the
/// conformance suite).
fn fault_seed(default: u64) -> u64 {
    std::env::var("ORCA_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const NODES: usize = 4;
const KILLED: NodeId = NodeId(3);
/// Worker nodes that survive the kill.
const SURVIVORS: [usize; 3] = [0, 1, 2];
const OPS_PER_WORKER: u64 = 120;
/// The kill lands roughly a third of the way into the write streams.
const KILL_AFTER: Duration = Duration::from_millis(60);

fn recovery_knobs() -> RecoveryConfig {
    RecoveryConfig {
        heartbeat_every: Duration::from_millis(25),
        // A generous silence limit (300 ms): the workload threads contend
        // hard for the build machine's cores, and a heartbeat thread
        // starved past the limit would *falsely* kill a survivor — which
        // fail-stop membership cannot take back.
        suspect_after: 12,
        rehome_wait: Duration::from_secs(10),
        ..RecoveryConfig::enabled()
    }
}

/// The primary-copy backend — [`pinned_adaptive`] with the regime pinned to
/// replicated — so every survivor that read the table holds a secondary
/// copy to regenerate it from when the primary dies, and keeps it: nothing
/// re-places the copies mid-workload.
fn eager_replication(write: WritePolicy) -> RtsStrategy {
    RtsStrategy::Adaptive {
        policy: AdaptivePolicy {
            pin: Some(RegimeKind::Replicated),
            write,
            ..pinned_adaptive()
        },
    }
}

/// Adaptive policy under which nothing reports on its own: the explicit
/// `propose_regime` that flushes the priming reads is the one evaluation —
/// so the object *deterministically* has a mirror on every survivor to
/// recover from when the home dies.
fn pinned_adaptive() -> AdaptivePolicy {
    AdaptivePolicy {
        window: u64::MAX,
        ..AdaptivePolicy::default()
    }
}

fn filter_strategies(all: Vec<(&'static str, RtsStrategy)>) -> Vec<(&'static str, RtsStrategy)> {
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

fn strategies() -> Vec<(&'static str, RtsStrategy)> {
    filter_strategies(vec![
        ("broadcast", RtsStrategy::broadcast()),
        ("primary_update", eager_replication(WritePolicy::Update)),
        ("sharded", RtsStrategy::sharded(4)),
        (
            "adaptive",
            RtsStrategy::Adaptive {
                policy: pinned_adaptive(),
            },
        ),
    ])
}

/// Wait until the membership view has moved past the kill.
fn await_kill_detected(runtime: &OrcaRuntime) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.membership_view().expect("recovery enabled").epoch < 1 {
        assert!(Instant::now() < deadline, "kill never detected");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn entry_for(key: u64) -> TableEntry {
    TableEntry {
        depth: 0,
        value: key as i64,
        aux: 1,
    }
}

/// Run the crash scenario under one strategy and check every invariant.
/// `fault` perturbs all unreliable traffic for the whole run (the chaotic
/// lane combines it with the kill); `create_on` picks the node whose death
/// the object must survive — every strategy but primary-invalidate places
/// the object on the doomed node.
fn run_crash_scenario_on(name: &str, strategy: RtsStrategy, fault: FaultConfig, create_on: usize) {
    let config = OrcaConfig {
        strategy,
        recovery: recovery_knobs(),
        fault,
        ..OrcaConfig::broadcast(NODES)
    };
    // The strategies whose table settles replicated: primary copy and
    // adaptive.
    let replicated = !matches!(
        config.strategy.kind(),
        RtsKind::Broadcast | RtsKind::Sharded
    );
    let runtime = OrcaRuntime::start(config, standard_registry());
    // Usually created on the doomed node: its death orphans whatever
    // authority the strategy placed there.
    let table = KvTable::create(runtime.context(create_on)).unwrap();

    // Priming: every surviving node reads the table, which builds the
    // secondary copies (primary strategy) and the usage evidence plus
    // mirrors (adaptive, after the forced proposal below).
    for _ in 0..24 {
        for w in SURVIVORS {
            assert_eq!(table.get(runtime.context(w), 0).unwrap(), None);
        }
    }
    if replicated {
        let regime = runtime.propose_regime(table.handle().id()).unwrap();
        assert_eq!(
            regime,
            RegimeKind::Replicated,
            "{name}: priming reads must put the table in the replicated regime"
        );
        // One read per survivor installs the mirrors recovery will need.
        for w in SURVIVORS {
            assert_eq!(table.get(runtime.context(w), 0).unwrap(), None);
        }
    }

    // The write streams: each surviving worker puts distinct keys and
    // records exactly which ones were acknowledged.
    let workers: Vec<_> = SURVIVORS
        .map(|w| {
            runtime.fork_on(w, "ledger", move |ctx| {
                let mut acked = Vec::new();
                for i in 0..OPS_PER_WORKER {
                    let key = (w as u64) * 100_000 + i;
                    // A NodeDown/Timeout while recovery settles means the
                    // write may or may not have landed; it is simply not
                    // acknowledged. Keep going.
                    if table.put(&ctx, key, entry_for(key)).is_ok() {
                        acked.push(key);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                acked
            })
        })
        .into_iter()
        .collect();

    std::thread::sleep(KILL_AFTER);
    runtime.kill_node(KILLED);

    let acked_per_worker: Vec<Vec<u64>> = workers.into_iter().map(|w| w.join()).collect();
    let acked: Vec<u64> = acked_per_worker.iter().flatten().copied().collect();
    assert!(
        !acked.is_empty(),
        "{name}: the workload produced no acknowledged writes"
    );

    // The membership view converges on the survivors.
    let deadline = Instant::now() + Duration::from_secs(10);
    let view = loop {
        let view = runtime.membership_view().expect("recovery enabled");
        if view.epoch >= 1 {
            break view;
        }
        assert!(Instant::now() < deadline, "{name}: kill never detected");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        view.alive,
        SURVIVORS.map(NodeId::from).to_vec(),
        "{name}: wrong membership view at epoch {}",
        view.epoch
    );

    // No acknowledged write is lost: every acked key becomes readable on
    // every survivor (bounded wait covers re-homing plus, for broadcast,
    // the propagation of the final appends).
    let deadline = Instant::now() + Duration::from_secs(20);
    for w in SURVIVORS {
        let ctx = runtime.context(w);
        for &key in &acked {
            loop {
                match table.get(ctx, key) {
                    Ok(Some(entry)) => {
                        assert_eq!(
                            entry,
                            entry_for(key),
                            "{name}: node {w} sees a corrupted entry for {key}"
                        );
                        break;
                    }
                    Ok(None) | Err(_) => {
                        assert!(
                            Instant::now() < deadline,
                            "{name}: acknowledged write {key} lost (node {w})"
                        );
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }
    }

    // Survivors converge on the identical table: same size everywhere once
    // the state is quiescent (contents equality follows from the per-key
    // checks above plus equal cardinality).
    let sizes: Vec<u64> = SURVIVORS
        .iter()
        .map(|&w| {
            let ctx = runtime.context(w);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let len = table.len(ctx).unwrap();
                if len >= acked.len() as u64 {
                    return len;
                }
                assert!(Instant::now() < deadline, "{name}: node {w} stuck short");
                std::thread::sleep(Duration::from_millis(10));
            }
        })
        .collect();
    assert!(
        sizes.windows(2).all(|pair| pair[0] == pair[1]),
        "{name}: survivors diverged on table size: {sizes:?}"
    );
    runtime.shutdown();
}

#[test]
fn crash_mid_workload_all_strategies_keep_every_acknowledged_write() {
    for (name, strategy) in strategies() {
        run_crash_scenario_on(name, strategy, FaultConfig::reliable(), KILLED.index());
    }
}

/// The chaotic conformance lane: `FaultConfig::chaotic` *and* a mid-workload
/// kill, across all five strategy families. Loss, duplication and
/// reordering stress the very protocols recovery rides on (heartbeats,
/// group retransmission, re-homing RPC) while a node dies under them.
///
/// Primary-invalidate is the one family whose crash recovery legitimately
/// cannot promise promotion: writes invalidate every secondary, so at the
/// moment of death no survivor may hold a promotable copy. Its lane
/// therefore keeps the object on a surviving node and exercises loss +
/// crash around it (membership churn, aborted RPCs) rather than
/// promotion-after-crash.
#[test]
fn chaotic_lane_crash_plus_loss_across_all_strategy_families() {
    let seed = fault_seed(0xC4A05);
    let fault = FaultConfig::chaotic(seed);
    let all = filter_strategies(vec![
        ("broadcast", RtsStrategy::broadcast()),
        ("primary_update", eager_replication(WritePolicy::Update)),
        ("sharded", RtsStrategy::sharded(4)),
        (
            "adaptive",
            RtsStrategy::Adaptive {
                policy: pinned_adaptive(),
            },
        ),
        (
            "primary_invalidate",
            eager_replication(WritePolicy::Invalidate),
        ),
    ]);
    for (name, strategy) in all {
        let create_on = if name == "primary_invalidate" {
            SURVIVORS[0]
        } else {
            KILLED.index()
        };
        run_crash_scenario_on(
            &format!("{name} (chaotic, ORCA_SEED={seed})"),
            strategy,
            fault,
            create_on,
        );
    }
}

/// A table two nodes use at 60 % reads is neither write-hot enough to shard
/// nor — before copies without mirrors were allowed to move — read enough to
/// be replicated: it sat in a single copy at its creator and died with it
/// (`ObjectLost`). Placed by use it lives on one of its two users with a
/// mirror on the other, and its creator's death changes nothing but who
/// publishes its table.
#[test]
fn adaptive_object_in_mixed_use_survives_its_homes_death() {
    let config = OrcaConfig {
        recovery: recovery_knobs(),
        ..OrcaConfig::adaptive(NODES)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = KvTable::create(runtime.context(KILLED.index())).unwrap();
    let mut written = Vec::new();
    for op in 0..2048u64 {
        let ctx = runtime.context(1 + (op % 2) as usize);
        let coin = op.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        if coin % 100 < 60 {
            table.get(ctx, op / 3).unwrap();
        } else {
            assert!(table.put(ctx, op, entry_for(op)).unwrap());
            written.push(op);
        }
    }
    let id = table.handle().id();
    assert_eq!(runtime.object_regime(id), Some(RegimeKind::Replicated));
    let owner = runtime.object_placement(id).expect("adaptive");
    assert!(
        owner == [NodeId(1)] || owner == [NodeId(2)],
        "the copy is not on a user: {owner:?}"
    );

    runtime.kill_node(KILLED);
    await_kill_detected(&runtime);
    for w in SURVIVORS {
        let ctx = runtime.context(w);
        assert_eq!(table.len(ctx).unwrap(), written.len() as u64, "node {w}");
        for &key in &written {
            assert_eq!(table.get(ctx, key).unwrap(), Some(entry_for(key)));
        }
    }
    assert_eq!(runtime.object_placement(id), Some(owner));
    runtime.shutdown();
}

/// The detect-only mode satisfies the fail-fast contract at the Orca
/// layer too: with re-homing disabled, an operation against the killed
/// node's object reports `NodeDown` well inside the operation deadline.
#[test]
fn detect_only_surfaces_node_down_at_the_orca_layer() {
    let config = OrcaConfig {
        strategy: RtsStrategy::primary_update(),
        recovery: RecoveryConfig {
            heartbeat_every: Duration::from_millis(25),
            suspect_after: 8,
            ..RecoveryConfig::detect_only()
        },
        ..OrcaConfig::broadcast(2)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = KvTable::create(runtime.context(1)).unwrap();
    assert!(table.put(runtime.context(0), 7, entry_for(7)).unwrap());
    runtime.kill_node(NodeId(1));
    await_kill_detected(&runtime);
    let started = Instant::now();
    let err = table.put(runtime.context(0), 8, entry_for(8)).unwrap_err();
    assert_eq!(err, orca::rts::RtsError::NodeDown(NodeId(1)));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "NodeDown was not fail-fast"
    );
    runtime.shutdown();
}

/// Tentpole acceptance: a *pipelined* batch of writes interrupted by
/// `kill_node` loses no acknowledged operation and duplicates none.
///
/// Survivor workers stream distinct jobs into a sharded queue through the
/// asynchronous path (windows of 8 in flight, coalesced into per-owner
/// batches — including the synchronous push to the partition's keeper). Node 3, which
/// owns some partitions and backs up others, is killed mid-stream. A batch
/// that dies with it reports a per-operation outcome: those futures resolve
/// with an error (`NodeDown`/`Timeout`) and are simply not acknowledged —
/// the asynchronous path never re-sends across a failure, so nothing can
/// double-apply. After recovery, the drained queue must contain every
/// acknowledged job exactly once and no job more than once.
#[test]
fn async_batch_interrupted_by_kill_loses_no_acked_op_and_duplicates_none() {
    use orca::core::objects::{JobQueue, JobQueueOp};
    use orca::core::BatchPolicy;
    use orca::wire::Wire;

    const BATCH_OPS_PER_WORKER: u64 = 240;
    let config = OrcaConfig {
        strategy: RtsStrategy::sharded(4),
        recovery: recovery_knobs(),
        ..OrcaConfig::broadcast(NODES)
    }
    .with_batch(BatchPolicy {
        max_batch: 8,
        max_delay: Duration::from_micros(500),
    });
    let runtime = OrcaRuntime::start(config, standard_registry());
    let queue: JobQueue<u64> = JobQueue::create(runtime.main()).unwrap();

    let workers: Vec<_> = SURVIVORS
        .map(|w| {
            let handle = queue.handle();
            runtime.fork_on(w, "batch-writer", move |ctx| {
                let mut acked = Vec::new();
                let mut issued = 0u64;
                while issued < BATCH_OPS_PER_WORKER {
                    let window: Vec<JobQueueOp> = (0..8)
                        .map(|i| {
                            let job = (w as u64) * 1_000_000 + issued + i;
                            JobQueueOp::AddJob(job.to_bytes())
                        })
                        .collect();
                    let futures = ctx.invoke_many(handle, &window);
                    for (i, future) in futures.iter().enumerate() {
                        // An errored op is not acknowledged; it is NOT
                        // retried (it may or may not have landed before the
                        // crash — re-sending could duplicate it).
                        if future.wait().is_ok() {
                            acked.push((w as u64) * 1_000_000 + issued + i as u64);
                        }
                    }
                    issued += 8;
                    std::thread::sleep(Duration::from_millis(2));
                }
                acked
            })
        })
        .into_iter()
        .collect();

    std::thread::sleep(Duration::from_millis(25));
    runtime.kill_node(KILLED);

    let acked: Vec<u64> = workers.into_iter().flat_map(|w| w.join()).collect();
    assert!(
        !acked.is_empty(),
        "sharded async batch workload produced no acknowledged writes"
    );

    // Wait for the membership to agree, then close and drain from a
    // survivor (the synchronous path rides the re-homing machinery).
    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.membership_view().expect("recovery enabled").epoch < 1 {
        assert!(
            Instant::now() < deadline,
            "sharded async batch: kill never detected"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    queue.close(runtime.context(1)).unwrap();
    let mut drained = Vec::new();
    while let Some(job) = queue.get(runtime.context(1)).unwrap() {
        drained.push(job);
    }
    drained.sort_unstable();
    // No duplicated op: every job (acked or not) appears at most once.
    let mut deduped = drained.clone();
    deduped.dedup();
    assert_eq!(
        drained, deduped,
        "sharded async batch: a job was applied twice across the kill"
    );
    // No lost acked op: every acknowledged job survived the crash.
    for job in &acked {
        assert!(
            drained.binary_search(job).is_ok(),
            "sharded async batch: acknowledged job {job} was lost (drained {} of {} acked)",
            drained.len(),
            acked.len()
        );
    }
    runtime.shutdown();
}
