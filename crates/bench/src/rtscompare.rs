//! Invalidation vs two-phase update vs broadcast runtime systems (§3.2.2).
//!
//! "Comparisons of update and invalidation did not show a clear winner.
//! Which one is better depends on the problem being solved." This experiment
//! sweeps the read/write ratio of a synthetic shared-object workload and
//! reports, for each runtime system, the communication it generated and the
//! estimated time per operation on the paper's hardware.
//!
//! [`leased_read_phase`] additionally compares the read-lease path against
//! the plain primary-copy read path on a read-only phase: leased
//! secondaries serve linearizable reads from local copies with zero
//! messages (counted on the wire), so read throughput is limited only by
//! local apply cost, while the unreplicated baseline pays one RPC round
//! trip — two messages — per non-primary read.

use std::time::{Duration, Instant};

use orca_amoeba::NodeId;
use orca_core::objects::{IntObject, IntOp};
use orca_core::{OrcaConfig, OrcaRuntime, RtsStrategy};
use orca_perf::{CostModel, NodeLoad};
use orca_rts::{AdaptivePolicy, RtsKind, WritePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct RtsRow {
    /// Runtime-system kind.
    pub rts: RtsKind,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Messages on the wire per operation.
    pub messages_per_op: f64,
    /// Wire bytes per operation.
    pub bytes_per_op: f64,
    /// Estimated milliseconds per operation on the paper's hardware.
    pub est_ms_per_op: f64,
    /// Copies fetched / dropped by the dynamic replication policy.
    pub copies_fetched: u64,
}

/// Run the synthetic workload: `nodes` nodes each perform `ops_per_node`
/// operations on one shared integer, a `read_fraction` of which are reads.
pub fn rts_comparison(nodes: usize, ops_per_node: usize, read_fractions: &[f64]) -> Vec<RtsRow> {
    let mut rows = Vec::new();
    for &read_fraction in read_fractions {
        for strategy in [
            RtsStrategy::broadcast(),
            RtsStrategy::primary_invalidate(),
            RtsStrategy::primary_update(),
        ] {
            rows.push(run_one(nodes, ops_per_node, read_fraction, strategy));
        }
    }
    rows
}

fn run_one(nodes: usize, ops_per_node: usize, read_fraction: f64, strategy: RtsStrategy) -> RtsRow {
    let kind = strategy.kind();
    let config = OrcaConfig {
        strategy,
        ..OrcaConfig::broadcast(nodes)
    };
    let runtime = OrcaRuntime::start(config, orca_core::standard_registry());
    let counter = runtime.create::<IntObject>(&0).expect("create counter");
    let before = runtime.network_stats();
    let mut handles = Vec::new();
    for node in 0..nodes {
        let handle = counter;
        handles.push(runtime.fork_on(node, "load", move |ctx| {
            let mut rng = StdRng::seed_from_u64(node as u64 + 1);
            for _ in 0..ops_per_node {
                if rng.gen_bool(read_fraction) {
                    ctx.invoke(handle, &IntOp::Value).expect("read");
                } else {
                    ctx.invoke(handle, &IntOp::Add(1)).expect("write");
                }
            }
        }));
    }
    for handle in handles {
        handle.join();
    }
    let delta = runtime.network_stats().since(&before);
    let rts_stats = runtime.rts_stats();
    let total_ops = (nodes * ops_per_node) as f64;
    // Per-op estimated time on the paper's hardware: average node time over
    // the run divided by the operations one node performed.
    let model = CostModel::with_unit_seconds(0.0);
    let loads: Vec<NodeLoad> = (0..nodes)
        .map(|n| {
            let stats = rts_stats[n];
            NodeLoad {
                work_units: 0,
                updates_handled: stats.updates_applied,
                ops_shipped: stats.broadcast_writes + stats.remote_writes,
                rpcs: stats.remote_reads + stats.remote_writes + stats.copies_fetched,
                interrupts: delta.node(NodeId::from(n)).interrupts,
                wire_bytes: delta.node(NodeId::from(n)).bytes_sent,
            }
        })
        .collect();
    let total_comm_seconds: f64 = loads.iter().map(|l| model.node_time(l)).sum();
    let copies_fetched = rts_stats.iter().map(|s| s.copies_fetched).sum();
    runtime.shutdown();
    RtsRow {
        rts: kind,
        read_fraction,
        messages_per_op: delta.total_messages() as f64 / total_ops,
        bytes_per_op: delta.total_wire_bytes() as f64 / total_ops,
        est_ms_per_op: total_comm_seconds * 1000.0 / total_ops,
        copies_fetched,
    }
}

/// One side of the leased-read comparison: a read-only phase over one
/// shared integer, every node reading concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadPhase {
    /// Total reads performed during the phase.
    pub reads: u64,
    /// Wire messages generated during the phase (telemetry-verified).
    pub messages: u64,
    /// `rts.lease.local_reads` counter delta over the phase.
    pub lease_local_reads: u64,
    /// Estimated microseconds per read: measured local apply cost for the
    /// leased phase (it generates no communication to model), the cost
    /// model's RPC path for the baseline.
    pub est_us_per_read: f64,
}

/// Leased reads vs the plain primary-copy read path, same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LeasedReadReport {
    /// Nodes in both runs.
    pub nodes: usize,
    /// The phase with read leases: secondaries serve linearizable reads
    /// from their leased local copies with **zero messages**, so throughput
    /// is limited only by local apply cost (measured, not modeled).
    pub leased: ReadPhase,
    /// The phase without replication: every non-primary read is an RPC to
    /// the primary (modeled on the paper's hardware).
    pub baseline: ReadPhase,
    /// `baseline.est_us_per_read / leased.est_us_per_read`.
    pub modeled_read_speedup: f64,
}

fn read_phase(nodes: usize, reads_per_node: usize, leased: bool) -> ReadPhase {
    // The two sides are one policy: a copy at its creator that nothing was
    // ever reported about, and so has no mirror, or — one proposal later —
    // the primary-copy backend's leased secondaries. Leases and tables far
    // outlast the phase and nothing reports during it, so no renewal,
    // re-fetch or usage report perturbs the zero-message claim.
    let policy = AdaptivePolicy {
        window: u64::MAX,
        regime_lease: Duration::from_secs(60),
        read_lease_ms: 60_000,
        ..AdaptivePolicy::primary_copy(WritePolicy::Update)
    };
    let config = OrcaConfig {
        strategy: RtsStrategy::Adaptive { policy },
        ..OrcaConfig::broadcast(nodes)
    };
    let runtime = OrcaRuntime::start(config, orca_core::standard_registry());
    let counter = runtime.create::<IntObject>(&1).expect("create counter");
    // Prime past one evaluation: every node reads, the home — asked to —
    // places a leased copy on each reader, and one more read each warms the
    // table caches — the measured phase is pure steady-state reads.
    for round in 0..2 {
        for node in 0..nodes {
            let read = runtime.context(node).invoke(counter, &IntOp::Value);
            read.expect("priming read");
        }
        if round == 0 && leased {
            runtime.propose_regime(counter.id());
        }
    }
    let local_reads = runtime
        .telemetry()
        .registry()
        .counter("rts.lease.local_reads");
    let local_before = local_reads.get();
    let before = runtime.network_stats();
    let started = Instant::now();
    let workers: Vec<_> = (0..nodes)
        .map(|node| {
            let handle = counter;
            runtime.fork_on(node, "reader", move |ctx| {
                for _ in 0..reads_per_node {
                    ctx.invoke(handle, &IntOp::Value).expect("read");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join();
    }
    let wall = started.elapsed();
    let delta = runtime.network_stats().since(&before);
    let reads = (nodes * reads_per_node) as u64;
    let est_us_per_read = if leased {
        // No communication to model: throughput is bounded by the local
        // apply cost alone, so measure it.
        wall.as_secs_f64() * 1e6 / reads as f64
    } else {
        let model = CostModel::with_unit_seconds(0.0);
        let rts_stats = runtime.rts_stats();
        let total: f64 = (0..nodes)
            .map(|n| {
                let stats = rts_stats[n];
                model.node_time(&NodeLoad {
                    work_units: 0,
                    updates_handled: stats.updates_applied,
                    ops_shipped: 0,
                    rpcs: stats.remote_reads + stats.copies_fetched,
                    interrupts: delta.node(NodeId::from(n)).interrupts,
                    wire_bytes: delta.node(NodeId::from(n)).bytes_sent,
                })
            })
            .sum();
        total * 1e6 / reads as f64
    };
    let phase = ReadPhase {
        reads,
        messages: delta.total_messages(),
        lease_local_reads: local_reads.get() - local_before,
        est_us_per_read,
    };
    runtime.shutdown();
    phase
}

/// Run the read-only phase twice — leases on, replication off — and report
/// messages per read and the modeled read-throughput gap.
pub fn leased_read_phase(nodes: usize, reads_per_node: usize) -> LeasedReadReport {
    let leased = read_phase(nodes, reads_per_node, true);
    let baseline = read_phase(nodes, reads_per_node, false);
    let modeled_read_speedup = baseline.est_us_per_read / leased.est_us_per_read.max(1e-9);
    LeasedReadReport {
        nodes,
        leased,
        baseline,
        modeled_read_speedup,
    }
}

/// Format the leased-read comparison as a text table.
pub fn format_leased(report: &LeasedReadReport) -> String {
    let mut out = String::from("# read leases: zero-message linearizable reads\n");
    out.push_str("phase      reads   messages  msgs/read  lease_local  est_us/read\n");
    for (name, phase) in [("leased", &report.leased), ("baseline", &report.baseline)] {
        out.push_str(&format!(
            "{:<9} {:>6}  {:>9}  {:>9.3}  {:>11}  {:>11.2}\n",
            name,
            phase.reads,
            phase.messages,
            phase.messages as f64 / phase.reads as f64,
            phase.lease_local_reads,
            phase.est_us_per_read,
        ));
    }
    out.push_str(&format!(
        "modeled read speedup (leased vs primary-copy RPC path): {:.1}x\n",
        report.modeled_read_speedup
    ));
    out
}

/// Format the comparison as a text table.
pub fn format_table(rows: &[RtsRow]) -> String {
    let mut out = String::from("# §3.2.2: invalidation vs two-phase update vs broadcast RTS\n");
    out.push_str("rts         read%   msgs/op  bytes/op  est_ms/op  copies_fetched\n");
    for row in rows {
        out.push_str(&format!(
            "{:<11} {:>5.0}  {:>8.2}  {:>8.0}  {:>9.3}  {:>14}\n",
            row.rts.name(),
            row.read_fraction * 100.0,
            row.messages_per_op,
            row.bytes_per_op,
            row.est_ms_per_op,
            row.copies_fetched
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_heavy_workloads_favour_replication() {
        let rows = rts_comparison(3, 60, &[0.95]);
        let broadcast = rows.iter().find(|r| r.rts == RtsKind::Broadcast).unwrap();
        let update = rows
            .iter()
            .find(|r| r.rts == RtsKind::PrimaryUpdate)
            .unwrap();
        let invalidate = rows
            .iter()
            .find(|r| r.rts == RtsKind::PrimaryInvalidate)
            .unwrap();
        // With 95% reads the broadcast RTS does almost all its work locally.
        assert!(broadcast.messages_per_op < 1.0);
        // The primary-copy systems need messages for the remote accesses of
        // the two non-primary nodes, but still fewer than one RPC per op once
        // copies have been fetched.
        assert!(update.messages_per_op > broadcast.messages_per_op);
        assert!(invalidate.messages_per_op > 0.0);
    }

    #[test]
    fn leased_read_phase_is_zero_message_and_faster() {
        let report = leased_read_phase(3, 50);
        assert_eq!(
            report.leased.messages, 0,
            "leased read-only phase must put nothing on the wire: {report:?}"
        );
        // Both secondaries served every read under their lease (the
        // primary's own reads need none), where the single copy costs each
        // of those reads a round trip.
        assert_eq!(report.leased.lease_local_reads, 100, "{report:?}");
        assert_eq!(report.baseline.messages, 200, "{report:?}");
        assert_eq!(report.baseline.lease_local_reads, 0, "{report:?}");
    }

    #[test]
    fn write_heavy_workloads_penalize_full_replication() {
        let rows = rts_comparison(3, 40, &[0.2]);
        let broadcast = rows.iter().find(|r| r.rts == RtsKind::Broadcast).unwrap();
        // Every write is a broadcast that every node must process.
        assert!(broadcast.messages_per_op > 0.5);
    }
}
