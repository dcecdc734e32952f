//! Coalescing, partitioning and per-object regimes, counted in messages.
//!
//! Each claim is a ratio of counts the statistics layer keeps: messages a
//! node sent plus message copies delivered to it (`network_stats()`),
//! batches and the operations they carried (`rts_stats()`), and the regime
//! an object settled in (`object_regime`). Unlike a time, a count does not
//! depend on how fast the machine is, so the claims hold at tier-1 size.
//!
//! * Windows of 16 asynchronous operations coalesce more operations per
//!   batch than windows of 1, and cost fewer messages per operation.
//! * Four partitions of a queue that four nodes add to shrink the busiest
//!   node's share of the messages.
//! * On a read-mostly table beside a write-hot queue the adaptive runtime
//!   system settles each object in its own regime. Its busiest node handles
//!   at most 1/1.1 of the messages per operation it does under broadcast or
//!   primary copy, and at most 1/0.95 of sharded's.

use std::time::Duration;

use orca::amoeba::NetStatsSnapshot;
use orca::core::objects::{JobQueue, JobQueueOp, KvTable, TableEntry};
use orca::core::{standard_registry, BatchPolicy, OrcaConfig, OrcaNode, OrcaRuntime, RtsStrategy};
use orca::rts::{AdaptivePolicy, RegimeKind};
use orca::wire::Wire;

/// Messages each node sent plus the message copies delivered to it.
fn node_messages(spent: &NetStatsSnapshot) -> Vec<u64> {
    spent
        .per_node
        .iter()
        .map(|node| node.messages_sent() + node.interrupts)
        .collect()
}

/// Run `work` on every node at once, one forked process each.
fn on_every_node(runtime: &OrcaRuntime, work: impl Fn(usize, &OrcaNode) + Clone + Send + 'static) {
    let workers: Vec<_> = (0..runtime.processors())
        .map(|n| {
            let work = work.clone();
            runtime.fork_on(n, "worker", move |ctx| work(n, &ctx))
        })
        .collect();
    for worker in workers {
        worker.join();
    }
}

/// Coalescing factor and messages per operation when two nodes each add 32
/// jobs in windows of `window` asynchronous operations.
fn windowed_adds(strategy: RtsStrategy, window: usize) -> (f64, f64) {
    const NODES: usize = 2;
    const OPS_PER_NODE: usize = 32;
    let config = OrcaConfig {
        strategy,
        ..OrcaConfig::broadcast(NODES)
    }
    .with_batch(BatchPolicy {
        max_batch: window,
        // Long enough that a window reliably leaves as one round.
        max_delay: Duration::from_micros(500),
    });
    let runtime = OrcaRuntime::start(config, standard_registry());
    let queue: JobQueue<u64> = JobQueue::create(runtime.main()).unwrap();
    // Routes and regimes are fetched on first contact, not measured.
    on_every_node(&runtime, move |_, ctx| {
        let warm = JobQueueOp::AddJob(u64::MAX.to_bytes());
        ctx.invoke_async(queue.handle(), &warm).wait().unwrap();
    });
    let net_before = runtime.network_stats();
    let rts_before = runtime.rts_stats();
    on_every_node(&runtime, move |n, ctx| {
        let base = (n as u64) << 32;
        for start in (0..OPS_PER_NODE as u64).step_by(window) {
            let ops: Vec<JobQueueOp> = (start..start + window as u64)
                .map(|i| JobQueueOp::AddJob((base | i).to_bytes()))
                .collect();
            for future in ctx.invoke_many(queue.handle(), &ops) {
                future.wait().unwrap();
            }
        }
    });
    let messages = runtime.network_stats().since(&net_before).total_messages();
    let (mut batches, mut ops_batched) = (0, 0);
    for (after, before) in runtime.rts_stats().iter().zip(&rts_before) {
        batches += after.batches_sent - before.batches_sent;
        ops_batched += after.ops_batched - before.ops_batched;
    }
    // The rounds' service time is recorded, not modeled.
    let hists = runtime.telemetry().registry().snapshot().hists;
    let service = hists
        .get("rts.pipeline.service_ns")
        .map_or(0, |hist| hist.count);
    runtime.shutdown();
    assert!(batches > 0, "window {window}: nothing was batched");
    assert!(
        service > 0,
        "window {window}: no round's service time recorded"
    );
    let ops = (NODES * OPS_PER_NODE) as f64;
    (ops_batched as f64 / batches as f64, messages as f64 / ops)
}

/// Windows of 16 carry more operations a batch, and cost fewer messages
/// an operation, than windows of 1.
fn windows_of_sixteen_coalesce(name: &str, strategy: RtsStrategy) {
    let (single_coalescing, single_messages) = windowed_adds(strategy.clone(), 1);
    let (deep_coalescing, deep_messages) = windowed_adds(strategy, 16);
    assert!(
        deep_coalescing > single_coalescing,
        "{name}: windows of 16 carry {deep_coalescing:.2} ops a batch, \
         windows of 1 {single_coalescing:.2}"
    );
    assert!(
        deep_messages < single_messages,
        "{name}: windows of 16 cost {deep_messages:.3} messages an op, \
         windows of 1 {single_messages:.3}"
    );
}

#[test]
fn broadcast_windows_of_sixteen_coalesce_and_cost_fewer_messages() {
    windows_of_sixteen_coalesce("broadcast", RtsStrategy::broadcast());
}

#[test]
fn primary_windows_of_sixteen_coalesce_and_cost_fewer_messages() {
    windows_of_sixteen_coalesce("primary_update", RtsStrategy::primary_update());
}

#[test]
fn sharded_windows_of_sixteen_coalesce_and_cost_fewer_messages() {
    windows_of_sixteen_coalesce("sharded", RtsStrategy::sharded(4));
}

/// The busiest node's share of all messages handled while four nodes each
/// add 32 distinct jobs to one queue of `partitions` partitions.
fn busiest_share(partitions: u32) -> f64 {
    let runtime = OrcaRuntime::start(OrcaConfig::sharded(4, partitions), standard_registry());
    let queue: JobQueue<u64> = JobQueue::create(runtime.main()).unwrap();
    on_every_node(&runtime, move |_, ctx| queue.add(ctx, &u64::MAX).unwrap());
    let before = runtime.network_stats();
    on_every_node(&runtime, move |n, ctx| {
        // Distinct jobs hash across the partitions.
        for i in 0..32 {
            queue.add(ctx, &((n as u64) << 32 | i)).unwrap();
        }
    });
    let handled = node_messages(&runtime.network_stats().since(&before));
    runtime.shutdown();
    let busiest = *handled.iter().max().unwrap();
    busiest as f64 / handled.iter().sum::<u64>().max(1) as f64
}

#[test]
fn four_partitions_shrink_the_busiest_nodes_share_of_messages() {
    let one = busiest_share(1);
    let four = busiest_share(4);
    assert!(
        four < one,
        "the busiest node handles {four:.3} of the messages with 4 partitions, \
         {one:.3} with 1"
    );
}

/// Keys of the read-mostly table.
const TABLE_KEYS: u64 = 16;

/// Per node, `volume` operations: three table reads to every queue add.
fn mixed_pass(runtime: &OrcaRuntime, table: KvTable, queue: JobQueue<u64>, volume: u64, tag: u64) {
    on_every_node(runtime, move |n, ctx| {
        let base = tag << 32 | (n as u64) << 24;
        for i in 0..volume {
            if i % 4 == 3 {
                queue.add(ctx, &(base | i)).unwrap();
            } else {
                table.get(ctx, i % TABLE_KEYS).unwrap();
            }
        }
    });
}

/// One mixed run on four nodes: the regimes the table and the queue
/// settled in after a warm-up pass, and the busiest node's messages per
/// operation over the measured pass.
fn mixed_run(strategy: RtsStrategy) -> (Option<RegimeKind>, Option<RegimeKind>, f64) {
    const NODES: usize = 4;
    const OPS_PER_NODE: u64 = 128;
    let config = OrcaConfig {
        strategy,
        ..OrcaConfig::broadcast(NODES)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let main = runtime.main();
    let table = KvTable::create(main).unwrap();
    let queue: JobQueue<u64> = JobQueue::create(main).unwrap();
    for key in 0..TABLE_KEYS {
        let entry = TableEntry {
            depth: 0,
            value: key as i64,
            aux: 0,
        };
        table.put(main, key, entry).unwrap();
    }
    // A quarter-volume warm-up gathers the usage an adaptive placement
    // needs; the proposals settle it (a fixed strategy ignores them).
    mixed_pass(&runtime, table, queue, OPS_PER_NODE / 4, 0);
    runtime.propose_regime(table.handle().id());
    runtime.propose_regime(queue.handle().id());
    let table_regime = runtime.object_regime(table.handle().id());
    let queue_regime = runtime.object_regime(queue.handle().id());
    let before = runtime.network_stats();
    mixed_pass(&runtime, table, queue, OPS_PER_NODE, 1);
    let handled = node_messages(&runtime.network_stats().since(&before));
    runtime.shutdown();
    let busiest = *handled.iter().max().unwrap();
    (
        table_regime,
        queue_regime,
        busiest as f64 / (NODES as u64 * OPS_PER_NODE) as f64,
    )
}

/// Reports often enough to settle within the warm-up pass.
fn adaptive() -> RtsStrategy {
    RtsStrategy::Adaptive {
        policy: AdaptivePolicy {
            window: 48,
            ..AdaptivePolicy::default()
        },
    }
}

#[test]
fn adaptive_settles_each_object_of_a_mixed_workload_in_its_own_regime() {
    let (table, queue, _) = mixed_run(adaptive());
    assert_eq!(table, Some(RegimeKind::Replicated), "the read-mostly table");
    assert_eq!(queue, Some(RegimeKind::Sharded), "the write-hot queue");
}

#[test]
fn adaptive_busiest_node_handles_fewer_messages_than_the_fixed_strategies() {
    let (_, _, adaptive) = mixed_run(adaptive());
    // The sharded backend serves both objects as adaptive does — the
    // queue's partitions at its writers, the table's partitions mirrored
    // at its readers — so against it adaptive need only keep up. A pin
    // reports the regime it pins; broadcast has none.
    for (name, strategy, regime, margin) in [
        ("broadcast", RtsStrategy::broadcast(), None, 1.1),
        (
            "primary_update",
            RtsStrategy::primary_update(),
            Some(RegimeKind::Replicated),
            1.1,
        ),
        (
            "sharded",
            RtsStrategy::sharded(4),
            Some(RegimeKind::Sharded),
            0.95,
        ),
    ] {
        let (table, queue, fixed) = mixed_run(strategy);
        assert_eq!((table, queue), (regime, regime), "{name}");
        assert!(
            adaptive * margin <= fixed,
            "adaptive's busiest node handles {adaptive:.3} messages an op, \
             {name}'s {fixed:.3} (margin {margin})"
        );
    }
}
