//! Golden byte counts of one remote synchronous operation.
//!
//! A remote `Put` or `Get` is one RPC round trip, and what it puts on the
//! wire besides the operation and its result is fixed overhead: the RPC
//! envelope (reply mailbox, call id and trace on the request; call id on
//! the reply) plus the runtime system's own message head (tag, object,
//! partition, dedup stamp). The invocation benchmark reports the same
//! bytes as `wire_bytes_per_op`; these budgets make a regression of the
//! envelope or of a message head fail `cargo test`, not only the ledger.
//!
//! The adaptive runtime has a second lever, how many operations travel at
//! all: its budget is the same remote `Put` times the share of them that
//! leave the writer's node once the partitions sit where the writers are —
//! and, for a table that is mostly read, a write's messages once the copy
//! sits at one of its writers and its mirrors where it is read. The
//! primary-copy and sharded backends are that runtime with the regime
//! pinned, and are held to the same: a pin fixes the regime, not the
//! placement — the one copy follows its writers, the partitions their
//! users.

use orca::amoeba::message::WIRE_HEADER_BYTES;
use orca::amoeba::NodeId;
use orca::core::objects::{KvTableObject, KvTableOp, KvTableReply, TableEntry};
use orca::core::{standard_registry, ObjectHandle, OrcaConfig, OrcaNode, OrcaRuntime, RtsStrategy};
use orca::rts::{AdaptivePolicy, RecoveryConfig, RegimeKind, WritePolicy};
use orca::wire::Wire;

/// Overhead budget of a remote write: 5 envelope + 1 tag + 2 object and
/// partition + 4 stamp on the request, 1 call id + 1 tag on the reply.
const WRITE_OVERHEAD: u64 = 14;
/// A read carries no stamp (one byte of `None` instead of up to four).
const READ_OVERHEAD: u64 = 12;

/// The benchmark's 27-byte `Put`: a hashed key, a small depth, and the key
/// again as the entry's payload.
fn put(key: u64, depth: i32) -> KvTableOp {
    KvTableOp::Put {
        key,
        entry: TableEntry {
            depth,
            value: 0x1234_5601,
            aux: key,
        },
    }
}

/// Messages and payload bytes (wire bytes less the per-message header the
/// statistics layer charges) one invocation from `ctx` costs.
fn cost(
    runtime: &OrcaRuntime,
    ctx: &OrcaNode,
    table: ObjectHandle<KvTableObject>,
    op: &KvTableOp,
) -> (KvTableReply, u64, u64) {
    let before = runtime.network_stats();
    let reply = ctx.invoke(table, op).expect("invocation succeeds");
    let spent = runtime.network_stats().since(&before);
    let messages = spent.total_messages();
    let payload = spent.total_wire_bytes() - messages * WIRE_HEADER_BYTES as u64;
    (reply, messages, payload)
}

/// Check both budgets on `runtime` for a key whose operations travel from
/// node 1 to another node.
fn assert_budgets(name: &str, runtime: &OrcaRuntime, table: ObjectHandle<KvTableObject>) {
    let ctx = runtime.context(1);
    // Routing tables and the like are fetched on first contact.
    ctx.invoke(table, &KvTableOp::Len).expect("warm-up read");
    // Under sharding some keys live on node 1 itself: find one that does
    // not (a local operation sends nothing).
    let key = (0..64u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
        .find(|&key| cost(runtime, ctx, table, &put(key, 1)).1 > 0)
        .expect("some key is owned by another node");

    let write = put(key, 2);
    let op_len = write.to_bytes().len() as u64;
    assert_eq!(op_len, 27, "the benchmark's Put");
    let (reply, messages, payload) = cost(runtime, ctx, table, &write);
    assert_eq!(reply, KvTableReply::Count(1));
    let reply_len = reply.to_bytes().len() as u64;
    assert_eq!(messages, 2, "{name}: a remote Put is a request and a reply");
    assert!(
        payload <= op_len + reply_len + WRITE_OVERHEAD,
        "{name}: remote Put cost {payload} payload bytes for a {op_len}-byte op \
         and a {reply_len}-byte reply"
    );

    let read = KvTableOp::Get(key);
    let op_len = read.to_bytes().len() as u64;
    let (reply, messages, payload) = cost(runtime, ctx, table, &read);
    assert!(matches!(reply, KvTableReply::Found(entry) if entry.depth == 2));
    let reply_len = reply.to_bytes().len() as u64;
    assert_eq!(messages, 2, "{name}: a remote Get is a request and a reply");
    assert!(
        payload <= op_len + reply_len + READ_OVERHEAD,
        "{name}: remote Get cost {payload} payload bytes for a {op_len}-byte op \
         and a {reply_len}-byte reply"
    );
}

#[test]
fn a_remote_put_on_sharded_costs_its_bytes_plus_fourteen() {
    let runtime = OrcaRuntime::start(OrcaConfig::sharded(3, 3), standard_registry());
    let table = runtime
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    assert_budgets("sharded", &runtime, table);
    runtime.shutdown();
}

/// With recovery on a partition keeps a mirror on the next live node, and
/// a write is acknowledged once that has it: request, push, the push's
/// acknowledgement, reply — one round trip more, what a backup cost before
/// it was a mirror. (Heartbeats share the wire and only ever add to a
/// count: the quietest of a few puts is the put.)
#[test]
fn a_remote_put_on_sharded_with_recovery_is_four_messages() {
    let config = OrcaConfig {
        recovery: RecoveryConfig::enabled(),
        ..OrcaConfig::sharded(3, 3)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = runtime
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    let ctx = runtime.context(1);
    ctx.invoke(table, &KvTableOp::Len).expect("warm-up read");
    let keys = (0..64u64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    let quietest = |key| {
        (0..8)
            .map(|_| cost(&runtime, ctx, table, &put(key, 1)).1)
            .min()
    };
    let costs: Vec<u64> = keys.filter_map(quietest).collect();
    assert!(costs.contains(&4), "a Put another node owns: {costs:?}");
    assert!(costs.iter().all(|cost| [2, 4].contains(cost)), "{costs:?}");
    runtime.shutdown();
}

#[test]
fn a_remote_put_on_primary_without_copies_costs_its_bytes_plus_fourteen() {
    // Nothing is ever reported, so the copy stays at its creator and has
    // no mirror: every operation of node 1 ships to it.
    let policy = AdaptivePolicy {
        window: u64::MAX,
        ..AdaptivePolicy::primary_copy(WritePolicy::Update)
    };
    let config = OrcaConfig {
        strategy: RtsStrategy::Adaptive { policy },
        ..OrcaConfig::primary_copy(2, WritePolicy::Update)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = runtime
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    assert_budgets("primary", &runtime, table);
    assert_eq!(
        runtime.copy_holders(0, table.id()),
        Some(Vec::new()),
        "the budget is for an object without copies"
    );
    runtime.shutdown();
}

/// The invocation benchmark's write workloads in miniature: node 0 creates
/// the table and never touches it again, nodes 1 and 2 write 4 096 hashed
/// keys in turn. The adaptive runtime shards the table and puts the
/// partitions on the two writers, so half the `Put`s stay on their node
/// (a spread over all three ships 0.61 of them); what is left per
/// operation is that share of a remote `Put` plus the usage reports (two
/// short messages every 64 accesses).
#[test]
fn adaptive_ships_half_the_puts_of_two_remote_writers() {
    ships_half_the_puts_of_two_remote_writers(OrcaConfig::adaptive(3));
}

/// The same under the sharded backend: a pin fixes the regime, not the
/// placement, so the partitions leave the idle creator for the writers as
/// the adaptive runtime's do.
#[test]
fn sharded_ships_half_the_puts_of_two_remote_writers() {
    ships_half_the_puts_of_two_remote_writers(OrcaConfig::sharded(3, 4));
}

fn ships_half_the_puts_of_two_remote_writers(config: OrcaConfig) {
    const KEYS: u64 = 4096;
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = runtime
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    let mut puts = 0u64;
    let mut write = |count: u64| {
        for _ in 0..count {
            let key = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(puts % KEYS + 1);
            let ctx = runtime.context(1 + (puts % 2) as usize);
            ctx.invoke(table, &put(key, (puts / KEYS) as i32))
                .expect("put succeeds");
            puts += 1;
        }
    };
    // Adaptation: sixteen evaluation windows in, the table is sharded and
    // its owners have stopped moving (asserted again after the measurement).
    write(2048);
    assert_eq!(runtime.object_regime(table.id()), Some(RegimeKind::Sharded));
    let placement = runtime.object_placement(table.id()).expect("one engine");
    assert!(
        !placement.contains(&NodeId(0)),
        "the idle creator owns a partition: {placement:?}"
    );

    let before = runtime.network_stats();
    write(4000);
    let spent = runtime.network_stats().since(&before);
    let per_op = spent.total_wire_bytes() as f64 / 4000.0;
    let reply_len = KvTableReply::Count(1).to_bytes().len() as u64;
    let remote_put = 27 + reply_len + WRITE_OVERHEAD + 2 * WIRE_HEADER_BYTES as u64;
    let budget = 0.55 * remote_put as f64 + 3.0;
    assert!(
        per_op <= budget,
        "{per_op:.1} wire bytes per Put against a budget of {budget:.1}: \
         placement {placement:?}"
    );
    assert_eq!(runtime.object_placement(table.id()), Some(placement));
    runtime.shutdown();
}

/// The invocation benchmark's `read_mostly_tcp` in miniature: node 0
/// creates a table of 4 096 keys and never touches it again, nodes 1 and 2
/// each read it nine times for every `Put`. The adaptive runtime replicates
/// the table, puts the copy on one of the two and its one mirror on the
/// other: reads cost nothing, the owner's write an `Update` and its
/// acknowledgement — its one mirror is the last it pushes to, and never
/// locked — the other's a `WriteThrough` and its `Installed`: 2 messages a
/// write plus the one-way usage reports, where the copy at the idle creator
/// with a mirror on either user cost five (28.8 bytes an operation).
#[test]
fn adaptive_read_mostly_costs_a_mirror_push_not_a_detour() {
    const KEYS: u64 = 4096;
    let key = |slot: u64| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot % KEYS + 1);
    let runtime = OrcaRuntime::start(OrcaConfig::adaptive(3), standard_registry());
    let filled = (0..KEYS).map(|slot| match put(key(slot), 0) {
        KvTableOp::Put { key, entry } => (key, entry),
        _ => unreachable!("put builds a Put"),
    });
    let table = runtime.create::<KvTableObject>(&filled.collect()).unwrap();
    let mut ops = 0u64;
    // Every tenth operation of a node is a `Put`; the nodes take turns.
    let mut run = |count: u64| {
        for _ in 0..count {
            let ctx = runtime.context(1 + (ops % 2) as usize);
            let slot = ops.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 20;
            let write = (ops / 2) % 10 == 9;
            let reply = if write {
                ctx.invoke(table, &put(key(slot), (ops / KEYS) as i32 + 1))
            } else {
                ctx.invoke(table, &KvTableOp::Get(key(slot)))
            };
            assert!(matches!(
                (write, reply.expect("invocation succeeds")),
                (true, KvTableReply::Count(_)) | (false, KvTableReply::Found(_))
            ));
            ops += 1;
        }
    };
    // Adaptation: sixteen evaluation windows in, the table is replicated
    // and its copies have stopped moving (asserted again after the
    // measurement).
    run(2048);
    assert_eq!(
        runtime.object_regime(table.id()),
        Some(RegimeKind::Replicated)
    );
    let placement = runtime.object_placement(table.id()).expect("adaptive");
    let mirrors = runtime.copy_holders(1, table.id()).expect("adaptive");
    assert!(
        !placement.contains(&NodeId(0)) && !mirrors.contains(&NodeId(0)),
        "the idle creator holds a copy: owner {placement:?}, mirrors {mirrors:?}"
    );
    assert_eq!((placement.len(), mirrors.len()), (1, 1));

    let before = runtime.network_stats();
    run(4000);
    let spent = runtime.network_stats().since(&before);
    let per_op = spent.total_wire_bytes() as f64 / 4000.0;
    let per_write = spent.total_messages() as f64 / 400.0;
    let unlocks = runtime.network().telemetry().registry();
    let unlocks = unlocks.counter("rts.update.unlock_notifies").get();
    assert!(
        per_op <= 12.8 && per_write <= 2.3 && unlocks == 0,
        "{per_op:.1} wire bytes per operation, {per_write:.2} messages per write, \
         {unlocks} unlocks: owner {placement:?}, mirrors {mirrors:?}"
    );
    assert_eq!(runtime.object_placement(table.id()), Some(placement));
    assert_eq!(runtime.copy_holders(2, table.id()), Some(mirrors));
    runtime.shutdown();
}

/// One operation of the invocation benchmark's workloads in miniature, the
/// `ops`-th overall: nodes 1 and 2 take turns, every operation a `Put` — or,
/// `write` unset, a `Get` — of one of 4 096 hashed keys.
fn miniature_op(runtime: &OrcaRuntime, table: ObjectHandle<KvTableObject>, ops: u64, write: bool) {
    const KEYS: u64 = 4096;
    let key = |slot: u64| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot % KEYS + 1);
    let ctx = runtime.context(1 + (ops % 2) as usize);
    let slot = ops.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 20;
    let reply = if write {
        ctx.invoke(table, &put(key(slot), (ops / KEYS) as i32 + 1))
    } else {
        ctx.invoke(table, &KvTableOp::Get(key(slot)))
    };
    assert!(matches!(
        (write, reply.expect("invocation succeeds")),
        (true, KvTableReply::Count(_)) | (false, KvTableReply::Found(_) | KvTableReply::Missing)
    ));
}

/// The write workloads in miniature under the primary-copy backend: node 0
/// creates the table and never touches it again, nodes 1 and 2 write it in
/// turns. The copy moves to one of the two writers and nobody mirrors a
/// table nobody reads: the owner's `Put`s stay on its node, the other's are
/// one remote `Put` each — half a round trip an operation plus the usage
/// reports, where the copy at its idle creator cost every operation a whole
/// one (105.0 bytes, 2.00 messages).
#[test]
fn primary_copy_follows_its_writer() {
    let config = OrcaConfig::primary_copy(3, WritePolicy::Update);
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = runtime
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    let mut puts = 0u64;
    let mut write = |count: u64| {
        for _ in 0..count {
            miniature_op(&runtime, table, puts, true);
            puts += 1;
        }
    };
    // Adaptation: sixteen evaluation windows in, the copy has stopped
    // moving (asserted again after the measurement).
    write(2048);
    assert_eq!(
        runtime.object_regime(table.id()),
        Some(RegimeKind::Replicated)
    );
    let placement = runtime.object_placement(table.id()).expect("one engine");
    assert!(
        placement == [NodeId(1)] || placement == [NodeId(2)],
        "the copy is not on a writer: {placement:?}"
    );
    assert_eq!(runtime.copy_holders(1, table.id()), Some(Vec::new()));

    let before = runtime.network_stats();
    write(4000);
    let spent = runtime.network_stats().since(&before);
    let per_op = spent.total_wire_bytes() as f64 / 4000.0;
    let messages = spent.total_messages() as f64 / 4000.0;
    assert!(
        per_op <= 58.0 && messages <= 1.1,
        "{per_op:.1} wire bytes and {messages:.2} messages per Put: owner {placement:?}"
    );
    assert_eq!(runtime.object_placement(table.id()), Some(placement));
    assert_eq!(runtime.copy_holders(2, table.id()), Some(Vec::new()));
    runtime.shutdown();
}

/// `read_mostly_tcp` in miniature under the primary-copy backend, which
/// places a table that is mostly read as the adaptive runtime does: the
/// copy on one of the two users, a secondary copy on the other, nothing on
/// the idle creator — 2 messages a write, never an unlock, plus the one-way
/// usage reports, where the copy at the creator with a secondary on either
/// user cost five (27.1 bytes an operation).
#[test]
fn primary_read_mostly_costs_a_mirror_push_not_a_detour() {
    const KEYS: u64 = 4096;
    let config = OrcaConfig::primary_copy(3, WritePolicy::Update);
    let runtime = OrcaRuntime::start(config, standard_registry());
    let key = |slot: u64| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot + 1);
    let filled = (0..KEYS).map(|slot| match put(key(slot), 0) {
        KvTableOp::Put { key, entry } => (key, entry),
        _ => unreachable!("put builds a Put"),
    });
    let table = runtime.create::<KvTableObject>(&filled.collect()).unwrap();
    let mut ops = 0u64;
    let mut run = |count: u64| {
        for _ in 0..count {
            // Every tenth operation of a node is a `Put`.
            miniature_op(&runtime, table, ops, (ops / 2) % 10 == 9);
            ops += 1;
        }
    };
    run(2048);
    let placement = runtime.object_placement(table.id()).expect("one engine");
    let mirrors = runtime.copy_holders(1, table.id()).expect("one engine");
    assert!(
        !placement.contains(&NodeId(0)) && !mirrors.contains(&NodeId(0)),
        "the idle creator holds a copy: owner {placement:?}, mirrors {mirrors:?}"
    );
    assert_eq!((placement.len(), mirrors.len()), (1, 1));

    let before = runtime.network_stats();
    run(4000);
    let spent = runtime.network_stats().since(&before);
    let per_op = spent.total_wire_bytes() as f64 / 4000.0;
    let per_write = spent.total_messages() as f64 / 400.0;
    let unlocks = runtime.network().telemetry().registry();
    let unlocks = unlocks.counter("rts.update.unlock_notifies").get();
    assert!(
        per_op <= 12.8 && per_write <= 2.3 && unlocks == 0,
        "{per_op:.1} wire bytes per operation, {per_write:.2} messages per write, \
         {unlocks} unlocks: owner {placement:?}, mirrors {mirrors:?}"
    );
    assert_eq!(runtime.object_placement(table.id()), Some(placement));
    assert_eq!(runtime.copy_holders(2, table.id()), Some(mirrors));
    runtime.shutdown();
}

/// Regime switches so far, over all nodes.
fn regime_switches(runtime: &OrcaRuntime) -> u64 {
    let nodes = runtime.rts_stats();
    nodes.iter().map(|node| node.regime_switches).sum()
}

/// Every read-modify-write loop is an even mix of reads and writes, which
/// is the sharded regime's threshold exactly: decay noise puts every other
/// window on the far side of it, and a regime left on such evidence is
/// re-entered a window later — each time re-shipping the table (74 switches
/// in these 12 000 operations, 714.6 bytes each, before regimes were given
/// a band to stay in). The table settles.
#[test]
fn an_even_mix_settles() {
    let runtime = OrcaRuntime::start(OrcaConfig::adaptive(3), standard_registry());
    let table = runtime
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    for ops in 0u64..12_000 {
        // A coin per operation, as the benchmark's clients toss one.
        let coin = ops.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        miniature_op(&runtime, table, ops, coin % 2 == 1);
    }
    let switches = regime_switches(&runtime);
    assert!(
        switches <= 2,
        "{switches} regime switches under a steady mix"
    );
    runtime.shutdown();
}

/// Between the two: 55 to 70 % reads are too many for the sharded regime
/// and were too few for a mirror, so the table sat in a single copy at its
/// idle creator and every operation of either user was a round trip (105
/// bytes). A copy without mirrors is allowed to move: it settles on one of
/// the two users — whose operations then stay on its node — with its one
/// mirror on the other, whose reads stay on its own (51.7 bytes an
/// operation at 55 % reads, 35.0 at 70 %).
#[test]
fn adaptive_mixed_reads_and_writes_live_at_a_writer() {
    for reads_per_cent in [55, 70] {
        let runtime = OrcaRuntime::start(OrcaConfig::adaptive(3), standard_registry());
        let table = runtime
            .create::<KvTableObject>(&Default::default())
            .unwrap();
        let mut ops = 0u64;
        let mut run = |count: u64| {
            for _ in 0..count {
                let coin = ops.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                miniature_op(&runtime, table, ops, coin % 100 >= reads_per_cent);
                ops += 1;
            }
        };
        run(4096);
        assert_eq!(
            runtime.object_regime(table.id()),
            Some(RegimeKind::Replicated)
        );
        let placement = runtime.object_placement(table.id()).expect("adaptive");
        assert!(
            placement == [NodeId(1)] || placement == [NodeId(2)],
            "{reads_per_cent} % reads: the copy is not on a writer: {placement:?}"
        );
        let before = runtime.network_stats();
        run(8000);
        let spent = runtime.network_stats().since(&before);
        let per_op = spent.total_wire_bytes() as f64 / 8000.0;
        let switches = regime_switches(&runtime);
        assert!(
            per_op <= 58.0 && switches <= 2,
            "{reads_per_cent} % reads: {per_op:.1} wire bytes per operation, \
             {switches} switches: owner {placement:?}"
        );
        runtime.shutdown();
    }
}
