//! Wall-clock pipeline-depth sweep over the real socket transport.
//!
//! The paper's experiments in this harness measure protocol *events* and
//! feed them to the calibrated cost model, because the simulated network
//! has no real latency. The socket transport does: an in-process loopback
//! cluster ([`orca_core::TransportConfig::SocketLoopback`]) sends every
//! inter-node message through real TCP/UDP sockets, so here — and only
//! here — the wall clock is the measurement. The sweep drives a JobQueue
//! write workload at pipeline depths {1, 4, 16, 64}: at depth 1 a
//! writer pays one socket round-trip per operation, at depth 16 the
//! batching layer coalesces a window into one framed TCP message per
//! destination, and the measured throughput shows how much of the
//! round-trip latency pipelining actually hides on this machine. Results
//! land in `BENCH_tcp.json`.

use std::time::{Duration, Instant};

use orca_core::objects::{JobQueue, JobQueueOp};
use orca_core::{
    standard_registry, BatchPolicy, OrcaConfig, OrcaRuntime, RtsStrategy, TransportConfig,
};
use orca_wire::Wire;

/// How long a flusher round waits for more submissions, so a depth-`D`
/// window reliably coalesces into one batch instead of racing the flusher.
const FLUSH_DELAY: Duration = Duration::from_micros(500);

/// One point of the sweep. All timing fields are real wall-clock numbers
/// from this machine's loopback stack — they are *not* modeled.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpRow {
    /// Runtime-system strategy name.
    pub strategy: &'static str,
    /// Operations each writer keeps in flight before waiting.
    pub depth: usize,
    /// Cluster size (one socket transport per node, loopback).
    pub nodes: usize,
    /// `AddJob` operations performed per node.
    pub ops_per_node: usize,
    /// Wall-clock duration of the write phase.
    pub elapsed: Duration,
    /// Achieved aggregate write throughput (`total ops / elapsed`).
    pub ops_per_sec: f64,
    /// Mean wall-clock latency per op per writer (`elapsed / ops_per_node`).
    pub mean_op_latency_us: f64,
    /// TCP frames the cluster's transports sent during the write phase.
    pub tcp_frames: u64,
    /// UDP datagrams the cluster's transports sent during the write phase.
    pub udp_datagrams: u64,
}

/// The strategies the sweep covers.
pub fn strategies() -> Vec<(&'static str, RtsStrategy)> {
    vec![
        ("broadcast", RtsStrategy::broadcast()),
        ("primary_update", RtsStrategy::primary_update()),
        ("sharded", RtsStrategy::sharded(4)),
    ]
}

/// Run the JobQueue write workload over loopback sockets once per
/// (strategy, depth).
pub fn tcp_pipeline_throughput(nodes: usize, ops_per_node: usize, depths: &[usize]) -> Vec<TcpRow> {
    let mut rows = Vec::new();
    for (name, strategy) in strategies() {
        for &depth in depths {
            rows.push(run_one(name, strategy.clone(), nodes, ops_per_node, depth));
        }
    }
    rows
}

/// Sum of one transport counter family (`transport.node*.<suffix>`)
/// across the cluster.
fn transport_counter_total(snapshot: &orca_telemetry::RegistrySnapshot, suffix: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("transport.node") && name.ends_with(suffix))
        .map(|(_, value)| value)
        .sum()
}

fn run_one(
    name: &'static str,
    strategy: RtsStrategy,
    nodes: usize,
    ops_per_node: usize,
    depth: usize,
) -> TcpRow {
    let config = OrcaConfig {
        strategy,
        ..OrcaConfig::broadcast(nodes)
    }
    .with_batch(BatchPolicy {
        max_batch: depth.max(1),
        max_delay: FLUSH_DELAY,
    })
    .with_transport(TransportConfig::SocketLoopback);
    let runtime = OrcaRuntime::start(config, standard_registry());
    let queue: JobQueue<u64> = JobQueue::create(runtime.main()).unwrap();
    // Warm route/regime caches and TCP connections, so the measurement is
    // steady-state batched shipping over established sockets.
    let warmup: Vec<_> = (0..nodes)
        .map(|n| {
            runtime.fork_on(n, "warmup", move |ctx| {
                ctx.invoke_async(queue.handle(), &JobQueueOp::AddJob(u64::MAX.to_bytes()))
                    .wait()
                    .unwrap();
            })
        })
        .collect();
    for handle in warmup {
        handle.join();
    }
    let before = runtime.telemetry().registry().snapshot();

    let started = Instant::now();
    let writers: Vec<_> = (0..nodes)
        .map(|n| {
            runtime.fork_on(n, "writer", move |ctx| {
                let base = (n as u64) << 32;
                let mut issued = 0u64;
                while (issued as usize) < ops_per_node {
                    let window = depth.min(ops_per_node - issued as usize);
                    let ops: Vec<JobQueueOp> = (0..window as u64)
                        .map(|i| JobQueueOp::AddJob((base | (issued + i)).to_bytes()))
                        .collect();
                    let futures = ctx.invoke_many(queue.handle(), &ops);
                    for future in &futures {
                        future.wait().unwrap();
                    }
                    issued += window as u64;
                }
            })
        })
        .collect();
    for handle in writers {
        handle.join();
    }
    let elapsed = started.elapsed();

    let after = runtime.telemetry().registry().snapshot();
    let tcp_frames = transport_counter_total(&after, ".tcp.frames_sent")
        - transport_counter_total(&before, ".tcp.frames_sent");
    let udp_datagrams = transport_counter_total(&after, ".udp.datagrams_sent")
        - transport_counter_total(&before, ".udp.datagrams_sent");
    let total_ops = (nodes * ops_per_node) as f64;
    let row = TcpRow {
        strategy: name,
        depth,
        nodes,
        ops_per_node,
        elapsed,
        ops_per_sec: total_ops / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        mean_op_latency_us: elapsed.as_secs_f64() * 1e6 / (ops_per_node as f64).max(1.0),
        tcp_frames,
        udp_datagrams,
    };
    runtime.shutdown();
    row
}

/// Throughput ratio between the runs of `strategy` at depths `to` and
/// `from` (`None` if either point is missing).
pub fn speedup(rows: &[TcpRow], strategy: &str, from: usize, to: usize) -> Option<f64> {
    let base = rows
        .iter()
        .find(|r| r.strategy == strategy && r.depth == from)?;
    let target = rows
        .iter()
        .find(|r| r.strategy == strategy && r.depth == to)?;
    Some(target.ops_per_sec / base.ops_per_sec)
}

/// Format the sweep as a text table.
pub fn format_table(rows: &[TcpRow]) -> String {
    let mut out = String::from(
        "# Loopback socket transport: JobQueue write throughput vs pipeline depth (wall clock)\n",
    );
    out.push_str(
        "strategy        depth  total_ops  wall_ms  ops/sec  op_latency_us  tcp_frames  udp_datagrams\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<15} {:>5}  {:>9}  {:>7.1}  {:>7.0}  {:>13.1}  {:>10}  {:>13}\n",
            row.strategy,
            row.depth,
            row.nodes * row.ops_per_node,
            row.elapsed.as_secs_f64() * 1000.0,
            row.ops_per_sec,
            row.mean_op_latency_us,
            row.tcp_frames,
            row.udp_datagrams,
        ));
    }
    for (name, _) in strategies() {
        if let Some(ratio) = speedup(rows, name, 1, 16) {
            out.push_str(&format!(
                "wall-clock speedup depth 1 -> 16 ({name}): {ratio:.2}x\n"
            ));
        }
    }
    out
}

/// Serialize the sweep as the `BENCH_tcp.json` trajectory record
/// (hand-rolled: the workspace has no JSON dependency).
pub fn to_json(rows: &[TcpRow]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"tcp\",\n  \"workload\": \"jobqueue_add_async_loopback_sockets\",\n  \"clock\": \"wall\",\n  \"results\": [\n",
    );
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"depth\": {}, \"nodes\": {}, \"ops_per_node\": {}, \"wall_ms\": {:.3}, \"ops_per_sec\": {:.1}, \"op_latency_us\": {:.2}, \"tcp_frames\": {}, \"udp_datagrams\": {}}}{}\n",
            row.strategy,
            row.depth,
            row.nodes,
            row.ops_per_node,
            row.elapsed.as_secs_f64() * 1000.0,
            row.ops_per_sec,
            row.mean_op_latency_us,
            row.tcp_frames,
            row.udp_datagrams,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let mut ratios = Vec::new();
    for (name, _) in strategies() {
        let ratio = speedup(rows, name, 1, 16).unwrap_or(0.0);
        ratios.push(format!("    \"{name}\": {ratio:.3}"));
    }
    out.push_str("  \"wall_speedup_depth_1_to_16\": {\n");
    out.push_str(&ratios.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_over_real_sockets_and_serializes() {
        // Small configuration: correctness of the harness, not performance.
        let rows = tcp_pipeline_throughput(2, 16, &[1, 4]);
        assert_eq!(rows.len(), strategies().len() * 2);
        assert!(rows.iter().all(|r| r.ops_per_sec > 0.0));
        // The traffic really crossed sockets: every run framed something.
        assert!(
            rows.iter().all(|r| r.tcp_frames + r.udp_datagrams > 0),
            "no socket traffic recorded: {rows:?}"
        );
        let json = to_json(&rows);
        assert!(json.contains("\"bench\": \"tcp\""));
        assert!(json.contains("\"clock\": \"wall\""));
        assert!(json.contains("wall_speedup_depth_1_to_16"));
        let table = format_table(&rows);
        assert!(table.contains("tcp_frames"));
        assert!(speedup(&rows, "broadcast", 1, 16).is_none());
        assert!(speedup(&rows, "broadcast", 1, 4).is_some());
    }
}
