//! Adaptive-RTS comparison: per-object regimes vs every fixed regime.
//!
//! A process-wide runtime-system choice is a compromise as soon as one run
//! holds objects with different access mixes: full replication makes the
//! read-heavy table fast but every node pays for the write-hot queue's
//! updates; sharding spreads the queue's writes but turns the table's
//! reads into RPCs. The adaptive runtime system places (and moves) each
//! object where its observed use costs the fewest messages, at the busiest
//! node as well as in all, so on a mixed workload it should match whichever
//! fixed regime is best *per object* — beating every fixed regime overall —
//! while staying within a few percent of the best fixed regime on pure
//! workloads (its only extra cost there is usage reporting).
//!
//! This experiment drives three workloads over one shared KvTable and one
//! shared JobQueue on every strategy:
//!
//! * `read_heavy` — table gets only;
//! * `write_hot`  — queue adds only;
//! * `mixed`      — both, interleaved per node.
//!
//! Each run warms up with a quarter-volume pass (fixed regimes warm their
//! caches and replication policies; the adaptive system accumulates usage
//! evidence and is then proposed to its converged regimes), and the
//! steady-state pass is measured. Like every other experiment in this
//! harness, the run uses the real protocol stack and feeds the measured
//! per-node work and communication counts into the calibrated cost model
//! of `orca-perf` (wall-clock time on the single-core build machine is
//! not used — see DESIGN.md §3). Results land in `BENCH_adaptive.json`.

use std::time::{Duration, Instant};

use orca_amoeba::NodeId;
use orca_core::objects::{JobQueue, KvTable, TableEntry};
use orca_core::{standard_registry, OrcaConfig, OrcaRuntime, RtsStrategy};
use orca_perf::{CostModel, NodeLoad};
use orca_rts::{AdaptivePolicy, RegimeKind};

/// Distinct keys the shared table holds.
pub const TABLE_KEYS: u64 = 16;

/// Which synthetic workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table gets only.
    ReadHeavy,
    /// Queue adds only.
    WriteHot,
    /// Both, interleaved on every node.
    Mixed,
}

impl Workload {
    /// Name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHeavy => "read_heavy",
            Workload::WriteHot => "write_hot",
            Workload::Mixed => "mixed",
        }
    }

    /// All three workloads.
    pub fn all() -> [Workload; 3] {
        [Workload::ReadHeavy, Workload::WriteHot, Workload::Mixed]
    }
}

/// One (workload, strategy) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRow {
    /// Workload name.
    pub workload: &'static str,
    /// Strategy name (RtsKind name).
    pub strategy: &'static str,
    /// Simulated nodes.
    pub nodes: usize,
    /// Operations performed per node in the measured pass.
    pub ops_per_node: usize,
    /// Regime serving the table after convergence (adaptive only).
    pub table_regime: &'static str,
    /// Regime serving the queue after convergence (adaptive only).
    pub queue_regime: &'static str,
    /// Modeled time of the busiest node for the measured pass.
    pub bottleneck_seconds: f64,
    /// Modeled aggregate throughput (`total ops / bottleneck`).
    pub ops_per_sec: f64,
    /// Wall-clock time of the measured pass on the build machine
    /// (orientation only).
    pub elapsed: Duration,
}

/// The strategies the comparison sweeps: every fixed regime plus adaptive.
pub fn strategies() -> Vec<(&'static str, RtsStrategy)> {
    vec![
        ("broadcast", RtsStrategy::broadcast()),
        ("update", RtsStrategy::primary_update()),
        ("sharded", RtsStrategy::sharded(4)),
        (
            "adaptive",
            RtsStrategy::Adaptive {
                policy: bench_policy(),
            },
        ),
    ]
}

/// Adaptation knobs used by the benchmark: frequent enough reporting to
/// converge inside the warmup pass, infrequent enough that reports stay a
/// rounding error next to the operations themselves.
pub fn bench_policy() -> AdaptivePolicy {
    AdaptivePolicy {
        window: 48,
        ..AdaptivePolicy::default()
    }
}

fn regime_name(regime: Option<RegimeKind>) -> &'static str {
    regime.map_or("-", RegimeKind::name)
}

/// Run every workload under every strategy.
pub fn adaptive_comparison(nodes: usize, ops_per_node: usize) -> Vec<AdaptiveRow> {
    let mut rows = Vec::new();
    for workload in Workload::all() {
        for (name, strategy) in strategies() {
            rows.push(run_one(
                nodes,
                ops_per_node,
                workload,
                name,
                strategy.clone(),
            ));
        }
    }
    rows
}

/// Drive `volume` operations per node of `workload` against the two
/// shared objects, one forked worker per node.
fn drive(
    runtime: &OrcaRuntime,
    table: KvTable,
    queue: JobQueue<u64>,
    workload: Workload,
    nodes: usize,
    volume: usize,
    tag: u64,
) {
    let workers: Vec<_> = (0..nodes)
        .map(|n| {
            runtime.fork_on(n, "load", move |ctx| {
                let base = (tag << 32) | ((n as u64) << 24);
                match workload {
                    Workload::ReadHeavy => {
                        for i in 0..volume as u64 {
                            table.get(&ctx, i % TABLE_KEYS).unwrap();
                        }
                    }
                    Workload::WriteHot => {
                        for i in 0..volume as u64 {
                            queue.add(&ctx, &(base | i)).unwrap();
                        }
                    }
                    Workload::Mixed => {
                        // Same total volume, 3:1 table gets to queue adds,
                        // so the table stays read-dominated while the
                        // queue is pure writes.
                        for i in 0..volume as u64 {
                            if i % 4 == 3 {
                                queue.add(&ctx, &(base | i)).unwrap();
                            } else {
                                table.get(&ctx, i % TABLE_KEYS).unwrap();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join();
    }
}

fn run_one(
    nodes: usize,
    ops_per_node: usize,
    workload: Workload,
    strategy_name: &'static str,
    strategy: RtsStrategy,
) -> AdaptiveRow {
    let config = OrcaConfig {
        strategy,
        ..OrcaConfig::broadcast(nodes)
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

    // Warmup: a quarter-volume pass. Fixed regimes warm route caches and
    // the dynamic replication policy; the adaptive system accumulates the
    // usage evidence its regime decisions need.
    drive(
        &runtime,
        table,
        queue,
        workload,
        nodes,
        (ops_per_node / 4).max(1),
        0,
    );
    // Settle the adaptive regimes before measuring (no-op on fixed
    // strategies).
    runtime.propose_regime(table.handle().id());
    runtime.propose_regime(queue.handle().id());
    let regime_of = |object| regime_name(runtime.object_regime(object));
    let table_regime = regime_of(table.handle().id());
    let queue_regime = regime_of(queue.handle().id());

    let net_before = runtime.network_stats();
    let rts_before = runtime.rts_stats();
    let started = Instant::now();
    drive(&runtime, table, queue, workload, nodes, ops_per_node, 1);
    let elapsed = started.elapsed();

    let net_delta = runtime.network_stats().since(&net_before);
    let rts_after = runtime.rts_stats();
    let model = CostModel::default();
    let loads: Vec<NodeLoad> = (0..nodes)
        .map(|n| {
            let before = rts_before[n];
            let after = rts_after[n];
            let node_net = net_delta.node(NodeId::from(n));
            NodeLoad {
                // Every invocation costs one application work unit, so
                // purely local regimes still accumulate modeled time.
                work_units: after.total_invocations() - before.total_invocations(),
                updates_handled: after.updates_applied - before.updates_applied,
                ops_shipped: (after.broadcast_writes + after.remote_writes)
                    - (before.broadcast_writes + before.remote_writes),
                rpcs: (after.remote_reads + after.remote_writes + after.copies_fetched)
                    - (before.remote_reads + before.remote_writes + before.copies_fetched),
                interrupts: node_net.interrupts,
                wire_bytes: node_net.bytes_sent,
            }
        })
        .collect();
    let bottleneck_seconds = loads
        .iter()
        .map(|load| model.node_time(load))
        .fold(f64::MIN_POSITIVE, f64::max);
    let total_ops = (nodes * ops_per_node) as f64;
    let row = AdaptiveRow {
        workload: workload.name(),
        strategy: strategy_name,
        nodes,
        ops_per_node,
        table_regime,
        queue_regime,
        bottleneck_seconds,
        ops_per_sec: total_ops / bottleneck_seconds,
        elapsed,
    };
    runtime.shutdown();
    row
}

/// Throughput of `strategy` on `workload` within a sweep.
pub fn throughput_of(rows: &[AdaptiveRow], workload: &str, strategy: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.workload == workload && r.strategy == strategy)
        .map(|r| r.ops_per_sec)
}

/// Best fixed-regime throughput on `workload` (everything except adaptive).
pub fn best_fixed(rows: &[AdaptiveRow], workload: &str) -> Option<f64> {
    rows.iter()
        .filter(|r| r.workload == workload && r.strategy != "adaptive")
        .map(|r| r.ops_per_sec)
        .fold(None, |best, t| Some(best.map_or(t, |b: f64| b.max(t))))
}

/// `adaptive / best fixed` throughput ratio on `workload`.
pub fn adaptive_ratio(rows: &[AdaptiveRow], workload: &str) -> Option<f64> {
    Some(throughput_of(rows, workload, "adaptive")? / best_fixed(rows, workload)?)
}

/// Format the sweep as a text table.
pub fn format_table(rows: &[AdaptiveRow]) -> String {
    let mut out =
        String::from("# Adaptive RTS vs fixed regimes (KvTable reads + JobQueue writes)\n");
    out.push_str(
        "workload    strategy   table_rg    queue_rg    bottleneck_ms  ops/sec  wall_ms\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<10}  {:<9}  {:<10}  {:<10}  {:>13.1}  {:>7.0}  {:>7.1}\n",
            row.workload,
            row.strategy,
            row.table_regime,
            row.queue_regime,
            row.bottleneck_seconds * 1000.0,
            row.ops_per_sec,
            row.elapsed.as_secs_f64() * 1000.0,
        ));
    }
    for workload in Workload::all() {
        if let Some(ratio) = adaptive_ratio(rows, workload.name()) {
            out.push_str(&format!(
                "adaptive vs best fixed on {}: {ratio:.2}x\n",
                workload.name()
            ));
        }
    }
    out
}

/// Serialize the sweep as the `BENCH_adaptive.json` trajectory record
/// (hand-rolled: the workspace has no JSON dependency).
pub fn to_json(rows: &[AdaptiveRow]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"adaptive_mixed\",\n  \"workloads\": [\"read_heavy\", \"write_hot\", \"mixed\"],\n  \"results\": [\n",
    );
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"strategy\": \"{}\", \"nodes\": {}, \"ops_per_node\": {}, \"table_regime\": \"{}\", \"queue_regime\": \"{}\", \"bottleneck_ms\": {:.3}, \"ops_per_sec\": {:.1}, \"wall_ms\": {:.3}}}{}\n",
            row.workload,
            row.strategy,
            row.nodes,
            row.ops_per_node,
            row.table_regime,
            row.queue_regime,
            row.bottleneck_seconds * 1000.0,
            row.ops_per_sec,
            row.elapsed.as_secs_f64() * 1000.0,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"adaptive_vs_best_fixed\": {\n");
    let mut ratios = Vec::new();
    for workload in Workload::all() {
        let ratio = adaptive_ratio(rows, workload.name()).unwrap_or(0.0);
        ratios.push(format!("    \"{}\": {ratio:.3}", workload.name()));
    }
    out.push_str(&ratios.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_serializes() {
        // Small configuration: correctness of the harness, not performance.
        let rows = adaptive_comparison(2, 32);
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.ops_per_sec > 0.0));
        assert!(rows.iter().all(|r| r.bottleneck_seconds > 0.0));
        // A pin reports the regime it pins, broadcast has none, and
        // adaptive reports what it decided.
        for row in &rows {
            let regimes = [row.table_regime, row.queue_regime];
            match row.strategy {
                "broadcast" => assert_eq!(regimes, ["-"; 2]),
                "update" => assert_eq!(regimes, ["replicated"; 2]),
                "sharded" => assert_eq!(regimes, ["sharded"; 2]),
                _ => assert!(!regimes.contains(&"-"), "{row:?}"),
            }
        }
        let json = to_json(&rows);
        assert!(json.contains("\"bench\": \"adaptive_mixed\""));
        assert!(json.contains("\"adaptive_vs_best_fixed\""));
        let table = format_table(&rows);
        assert!(table.contains("adaptive vs best fixed on mixed"));
    }

    #[test]
    fn adaptive_converges_per_object_on_the_mixed_workload() {
        // The whole point: one run, two objects, two different regimes.
        let row = run_one(
            4,
            128,
            Workload::Mixed,
            "adaptive",
            RtsStrategy::Adaptive {
                policy: bench_policy(),
            },
        );
        assert_eq!(row.table_regime, "replicated", "{row:?}");
        assert_eq!(row.queue_regime, "sharded", "{row:?}");
    }

    #[test]
    fn adaptive_beats_every_fixed_regime_on_the_mixed_workload() {
        // Small scale, generous margin: the committed BENCH_adaptive.json
        // documents the full-size numbers. The sharded backend prices its
        // mirrors as the adaptive one does, and on this workload serves both
        // objects as adaptive does: the queue's partitions spread over its
        // writers, and the table's partitions, mirrored on every reader,
        // serve its reads as locally as adaptive's mirrored copy. Against it
        // adaptive keeps up.
        let rows: Vec<AdaptiveRow> = strategies()
            .into_iter()
            .map(|(name, strategy)| run_one(4, 128, Workload::Mixed, name, strategy))
            .collect();
        let adaptive = throughput_of(&rows, "mixed", "adaptive").unwrap();
        for row in rows.iter().filter(|r| r.strategy != "adaptive") {
            let margin = if row.strategy == "sharded" { 0.95 } else { 1.1 };
            assert!(
                adaptive > row.ops_per_sec * margin,
                "adaptive ({adaptive:.0} ops/s) must beat {} ({:.0} ops/s)",
                row.strategy,
                row.ops_per_sec
            );
        }
    }

    #[test]
    fn adaptive_stays_competitive_on_pure_workloads() {
        for workload in [Workload::ReadHeavy, Workload::WriteHot] {
            let rows: Vec<AdaptiveRow> = strategies()
                .into_iter()
                .map(|(name, strategy)| run_one(4, 128, workload, name, strategy))
                .collect();
            let ratio = adaptive_ratio(&rows, workload.name()).unwrap();
            assert!(
                ratio >= 0.8,
                "adaptive fell behind on {}: {ratio:.2}x of best fixed ({rows:?})",
                workload.name()
            );
        }
    }
}
