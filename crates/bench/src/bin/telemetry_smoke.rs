//! Emit a metrics-registry snapshot from a tiny real workload, for the CI
//! telemetry lane.
//!
//! Drives a handful of synchronous and pipelined-asynchronous invocations
//! through the full stack so every always-on instrument records something —
//! network counters, per-node RTS counters, the invoke/queue/service
//! latency histograms — then writes `Registry::snapshot().to_json()` to the
//! given path (default `target/telemetry_smoke.json`). A second, leased
//! primary-copy runtime contributes the `rts.lease.*` counters (grants and
//! zero-message local reads) and the `rts.update.*` counters (where a
//! replicated write's messages went: pushes, one-way unlocks, writes
//! installed from their own reply) and the RPC layer's thread census
//! (`amoeba.rpc.*`: a few hundred requests served by the handful of
//! workers the services keep) merged into the same document. A sharded
//! runtime — two of three nodes writing a table the third created — and an
//! adaptive one — a counter two nodes mostly read — contribute
//! `rts.node*.regime_switches` and `rts.adaptive.replacements` (the
//! table's partitions move to the writers, the counter's copy to a reader
//! and a mirror to the other). `scripts/check_telemetry.py` validates the
//! emitted document.
//!
//! Usage: `telemetry_smoke [output.json]`

use std::collections::BTreeMap;

use orca_amoeba::NodeId;
use orca_core::objects::{
    IntObject, IntOp, JobQueue, JobQueueOp, KvTableObject, KvTableOp, TableEntry,
};
use orca_core::{standard_registry, BatchPolicy, OrcaConfig, OrcaRuntime, RtsStrategy};
use orca_rts::{AdaptivePolicy, RegimeKind, WritePolicy};
use orca_wire::Wire;

/// Add the counters of `from` that `keep` selects onto those of `into`.
fn merge_counters(
    into: &mut BTreeMap<String, u64>,
    from: &BTreeMap<String, u64>,
    keep: impl Fn(&str) -> bool,
) {
    for (name, value) in from {
        if keep(name) {
            *into.entry(name.clone()).or_insert(0) += value;
        }
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/telemetry_smoke.json".to_string());
    let config = OrcaConfig::broadcast(2).with_batch(BatchPolicy {
        max_batch: 4,
        max_delay: std::time::Duration::from_micros(500),
    });
    let runtime = OrcaRuntime::start(config, standard_registry());
    let queue: JobQueue<u64> = JobQueue::create(runtime.main()).unwrap();
    let ctx = runtime.context(1);
    // The pipelined path feeds the queue-wait and service histograms.
    for window in 0..4u64 {
        let ops: Vec<JobQueueOp> = (0..4u64)
            .map(|i| JobQueueOp::AddJob((window * 4 + i).to_bytes()))
            .collect();
        for future in &ctx.invoke_many(queue.handle(), &ops) {
            future.wait().unwrap();
        }
    }
    // The synchronous path feeds the invoke histogram. Close first so the
    // final `get` returns `None` instead of blocking on an open queue.
    queue.close(runtime.main()).unwrap();
    let mut drained = 0u32;
    while queue.get(ctx).unwrap().is_some() {
        drained += 1;
    }
    assert_eq!(drained, 16, "smoke workload lost jobs");
    let mut snapshot = runtime.telemetry().registry().snapshot();
    // The broadcast runtime grants no read leases and pushes no updates; a
    // tiny leased primary-copy phase populates the `rts.lease.*` and
    // `rts.update.*` counters, merged into the same document for the
    // validator.
    let lease_cfg = OrcaConfig {
        strategy: RtsStrategy::Adaptive {
            // The reader's copy is placed once, by the proposal below, and
            // kept: nothing reports afterwards.
            policy: AdaptivePolicy {
                window: u64::MAX,
                read_lease_ms: 60_000,
                ..AdaptivePolicy::primary_copy(WritePolicy::Update)
            },
        },
        ..OrcaConfig::broadcast(3)
    };
    let leased = OrcaRuntime::start(lease_cfg, standard_registry());
    let counter = leased.create::<IntObject>(&0).unwrap();
    let reader = leased.context(1);
    for _ in 0..8 {
        reader.invoke(counter, &IntOp::Value).unwrap();
        leased.context(2).invoke(counter, &IntOp::Value).unwrap();
    }
    leased.propose_regime(counter.id());
    let holders = leased.copy_holders(0, counter.id());
    assert_eq!(holders, Some(vec![NodeId(1), NodeId(2)]));
    // One write pushed to both readers' copies — the first locked and
    // unlocked one-way, the last never locked — and one written through a
    // reader's own copy (and pushed to the other's alone: no unlock).
    leased.main().invoke(counter, &IntOp::Add(1)).unwrap();
    reader.invoke(counter, &IntOp::Add(1)).unwrap();
    for _ in 0..8 {
        assert_eq!(reader.invoke(counter, &IntOp::Value).unwrap(), 2);
    }
    // Every further write-through is one RPC: enough of them that the
    // census shows requests outnumbering the workers that served them.
    for _ in 0..300 {
        reader.invoke(counter, &IntOp::Add(1)).unwrap();
    }
    let lease_snap = leased.telemetry().registry().snapshot();
    let merged = |name: &str| {
        ["rts.lease.", "rts.update.", "amoeba.rpc."]
            .iter()
            .any(|prefix| name.starts_with(prefix))
    };
    merge_counters(&mut snapshot.counters, &lease_snap.counters, merged);
    for (name, value) in &lease_snap.gauges {
        if merged(name) {
            *snapshot.gauges.entry(name.clone()).or_insert(0) += value;
        }
    }
    leased.shutdown();
    // Neither runtime above ever switches a regime. Two of three nodes
    // writing a table the third created make the sharded runtime place its
    // partitions on the writers — on node 1 alone at first, whose reports
    // fill the first evaluation window, then re-placed over both.
    let sharded_cfg = OrcaConfig {
        strategy: RtsStrategy::Adaptive {
            policy: AdaptivePolicy {
                pin: Some(RegimeKind::Sharded),
                ..AdaptivePolicy::eager()
            },
        },
        ..OrcaConfig::sharded(3, 4)
    };
    let sharded = OrcaRuntime::start(sharded_cfg, standard_registry());
    let table = sharded
        .create::<KvTableObject>(&Default::default())
        .unwrap();
    for key in 0..256u64 {
        let entry = TableEntry {
            depth: 1,
            value: 0,
            aux: key,
        };
        let writer = if key < 16 { 1 } else { 1 + (key % 2) as usize };
        sharded
            .context(writer)
            .invoke(table, &KvTableOp::Put { key, entry })
            .unwrap();
    }
    assert_eq!(sharded.object_regime(table.id()), Some(RegimeKind::Sharded));
    let placement = sharded.object_placement(table.id()).unwrap();
    assert!(
        !placement.contains(&NodeId(0)),
        "the idle creator owns a partition: {placement:?}"
    );
    assert!(placement.contains(&NodeId(1)) && placement.contains(&NodeId(2)));
    let placements =
        |name: &str| name.starts_with("rts.adaptive.") || name.ends_with(".regime_switches");
    let sharded_snap = sharded.telemetry().registry().snapshot();
    merge_counters(&mut snapshot.counters, &sharded_snap.counters, placements);
    sharded.shutdown();
    // An object mostly read by two nodes under the adaptive runtime:
    // replicated, its copy on node 1, which used it first, and — re-placed
    // once node 2's reports are in — a mirror on node 2; nothing on the
    // creator.
    let adaptive_cfg = OrcaConfig {
        strategy: RtsStrategy::Adaptive {
            policy: AdaptivePolicy::eager(),
        },
        ..OrcaConfig::adaptive(3)
    };
    let adaptive = OrcaRuntime::start(adaptive_cfg, standard_registry());
    let gauge = adaptive.create::<IntObject>(&0).unwrap();
    for user in [1, 2] {
        for op in 0..32 {
            let ctx = adaptive.context(user);
            let op = if op % 8 == 7 {
                IntOp::Add(1)
            } else {
                IntOp::Value
            };
            ctx.invoke(gauge, &op).unwrap();
        }
    }
    assert_eq!(
        adaptive.object_regime(gauge.id()),
        Some(RegimeKind::Replicated)
    );
    assert_eq!(adaptive.object_placement(gauge.id()), Some(vec![NodeId(1)]));
    assert_eq!(adaptive.copy_holders(0, gauge.id()), Some(vec![NodeId(2)]));
    let adaptive_snap = adaptive.telemetry().registry().snapshot();
    merge_counters(&mut snapshot.counters, &adaptive_snap.counters, placements);
    adaptive.shutdown();
    let events = runtime.telemetry().flight_events().len();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(&out, snapshot.to_json()).unwrap_or_else(|err| panic!("writing {out}: {err}"));
    println!(
        "wrote {out}: {} counters, {} gauges, {} histograms; flight recorder holds {events} events",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.hists.len(),
    );
    runtime.shutdown();
}
