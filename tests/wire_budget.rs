//! Golden byte counts of one remote synchronous operation.
//!
//! A remote `Put` or `Get` is one RPC round trip, and what it puts on the
//! wire besides the operation and its result is fixed overhead: the RPC
//! envelope (reply mailbox, call id and trace on the request; call id on
//! the reply) plus the runtime system's own message head (tag, object,
//! partition, dedup stamp). The invocation benchmark reports the same
//! bytes as `wire_bytes_per_op`; these budgets make a regression of the
//! envelope or of a message head fail `cargo test`, not only the ledger.

use orca::amoeba::message::WIRE_HEADER_BYTES;
use orca::core::objects::{KvTableObject, KvTableOp, KvTableReply, TableEntry};
use orca::core::{standard_registry, ObjectHandle, OrcaConfig, OrcaNode, OrcaRuntime};
use orca::rts::WritePolicy;
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

#[test]
fn a_remote_put_on_primary_without_copies_costs_its_bytes_plus_fourteen() {
    // Writes alone never make node 1 fetch a copy, and the single read
    // after them does not either: every operation ships to the primary.
    let config = OrcaConfig::primary_copy(2, WritePolicy::Update);
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
