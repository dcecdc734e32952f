//! Crash-recovery latency: time-to-detect, time-to-recover, and operations
//! failed, as a function of the heartbeat/suspicion settings.
//!
//! Unlike the throughput experiments — which feed measured work counts into
//! the calibrated cost model because wall-clock time on a single-core build
//! machine misrepresents parallel protocol handling — recovery latency *is*
//! a wall-clock quantity: it is dominated by the configured heartbeat
//! silence limit, not by CPU contention, so the run measures it directly.
//!
//! The scenario mirrors the crash conformance suite: a sharded table is
//! created on the node that will be killed (so its death orphans both the
//! routing table and the partitions it owned), survivors hammer writes, the
//! node is killed mid-stream, and the run records how long the membership
//! takes to converge, how long until a write against a previously
//! dead-owned partition succeeds again, and how many operations failed in
//! between. Results land in `BENCH_recovery.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::NodeId;
use orca_core::objects::{KvTable, TableEntry};
use orca_core::{standard_registry, OrcaConfig, OrcaRuntime, RecoveryConfig, RtsStrategy};

/// One point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// Silent heartbeat intervals before a node is declared dead.
    pub suspect_after: u32,
    /// Kill → membership epoch bump (failure detected everywhere needed).
    pub detect: Duration,
    /// Kill → first acknowledged write against state the dead node owned.
    pub recover: Duration,
    /// Invocations that failed during the outage window (survivor-side).
    pub ops_failed: u64,
    /// Invocations acknowledged over the whole run (survivor-side).
    pub ops_ok: u64,
    /// Recovery phase timeline, recorded by the flight recorder's
    /// coordinator instrumentation: report-collection phase duration
    /// (`rts.recovery.coordinate_ns`, detect → reports in hand).
    pub coordinate_ns: u64,
    /// Promotion/publication phase duration (`rts.recovery.rehome_ns`,
    /// reports in hand → new owners published).
    pub rehome_ns: u64,
    /// Recorded synchronous invocation latency percentiles over the whole
    /// run (`rts.invoke.sync_ns`) — the outage shows up in the tail.
    pub invoke_p50_ns: u64,
    /// Synchronous invocation p99 (ns).
    pub invoke_p99_ns: u64,
    /// Synchronous invocation p99.9 (ns).
    pub invoke_p999_ns: u64,
}

/// Simulated nodes (node `nodes - 1` is killed).
pub const NODES: usize = 4;

/// Run the kill-mid-workload scenario once per heartbeat setting.
pub fn recovery_sweep(settings: &[(Duration, u32)]) -> Vec<RecoveryRow> {
    settings
        .iter()
        .map(|&(heartbeat, suspect_after)| run_once(heartbeat, suspect_after))
        .collect()
}

fn run_once(heartbeat: Duration, suspect_after: u32) -> RecoveryRow {
    let killed = NodeId((NODES - 1) as u16);
    let config = OrcaConfig {
        strategy: RtsStrategy::sharded(NODES as u32),
        recovery: RecoveryConfig {
            heartbeat_every: heartbeat,
            suspect_after,
            rehome_wait: Duration::from_secs(10),
            ..RecoveryConfig::enabled()
        },
        ..OrcaConfig::broadcast(NODES)
    };
    let runtime = OrcaRuntime::start(config, standard_registry());
    let table = KvTable::create(runtime.context(killed.index())).unwrap();
    let entry = TableEntry {
        depth: 0,
        value: 1,
        aux: 0,
    };
    // Background writers on the survivors keep offered load on the table
    // throughout the outage, counting successes and failures.
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..NODES - 1)
        .map(|w| {
            let ok = Arc::clone(&ok);
            let failed = Arc::clone(&failed);
            let stop = Arc::clone(&stop);
            runtime.fork_on(w, "load", move |ctx| {
                let mut i = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let key = (w as u64) * 1_000_000 + i;
                    i += 1;
                    match table.put(&ctx, key, entry) {
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let kill_at = Instant::now();
    runtime.kill_node(killed);
    // Detection: the surviving membership view bumps its epoch.
    while runtime.membership_view().map(|v| v.epoch).unwrap_or(0) < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let detect = kill_at.elapsed();
    // Recovery: a write whose key hashes to a partition the dead node
    // owned succeeds again (the probe retries until the promoted mirror
    // serves it). Any key works as a probe target for "the table is fully
    // writable again": the adopted home only answers once every partition
    // has a live owner.
    let probe_ctx = runtime.context(0);
    let recover = loop {
        if table.put(probe_ctx, 42_000_042, entry).is_ok() {
            break kill_at.elapsed();
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // A short post-recovery tail keeps the ok-counter honest.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(1, Ordering::Relaxed);
    for writer in writers {
        writer.join();
    }
    // The recovery phase split and the run's recorded invoke latencies,
    // straight from the telemetry histograms (one recovery per run, so
    // the histogram max is that recovery's duration).
    let telemetry = runtime.telemetry().registry().snapshot();
    let hist_max = |name: &str| telemetry.hists.get(name).map_or(0, |h| h.max);
    let invoke = telemetry.hists.get("rts.invoke.sync_ns").cloned();
    let row = RecoveryRow {
        heartbeat,
        suspect_after,
        detect,
        recover,
        ops_failed: failed.load(Ordering::Relaxed),
        ops_ok: ok.load(Ordering::Relaxed),
        coordinate_ns: hist_max("rts.recovery.coordinate_ns"),
        rehome_ns: hist_max("rts.recovery.rehome_ns"),
        invoke_p50_ns: invoke.as_ref().map_or(0, |h| h.p50()),
        invoke_p99_ns: invoke.as_ref().map_or(0, |h| h.p99()),
        invoke_p999_ns: invoke.as_ref().map_or(0, |h| h.p999()),
    };
    runtime.shutdown();
    row
}

/// Human-readable table.
pub fn format_table(rows: &[RecoveryRow]) -> String {
    let mut out = String::new();
    out.push_str("crash recovery: kill 1 of 4 nodes mid-workload (sharded RTS)\n");
    out.push_str(
        "heartbeat  suspect  detect(ms)  coordinate(ms)  rehome(ms)  recover(ms)  \
         ops-failed  ops-ok  put_p50(us)  put_p99(us)\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:>8.0?}  {:>7}  {:>10.1}  {:>14.2}  {:>10.2}  {:>11.1}  {:>10}  {:>6}  {:>11.1}  {:>11.1}\n",
            row.heartbeat,
            row.suspect_after,
            row.detect.as_secs_f64() * 1e3,
            row.coordinate_ns as f64 / 1e6,
            row.rehome_ns as f64 / 1e6,
            row.recover.as_secs_f64() * 1e3,
            row.ops_failed,
            row.ops_ok,
            row.invoke_p50_ns as f64 / 1e3,
            row.invoke_p99_ns as f64 / 1e3,
        ));
    }
    out
}

/// JSON trajectory record for `BENCH_recovery.json`.
pub fn to_json(rows: &[RecoveryRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"recovery\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"heartbeat_ms\": {:.1}, \"suspect_after\": {}, \"detect_ms\": {:.2}, \"coordinate_ms\": {:.3}, \"rehome_ms\": {:.3}, \"recover_ms\": {:.2}, \"ops_failed\": {}, \"ops_ok\": {}, \"invoke_p50_ns\": {}, \"invoke_p99_ns\": {}, \"invoke_p999_ns\": {}}}{}\n",
            row.heartbeat.as_secs_f64() * 1e3,
            row.suspect_after,
            row.detect.as_secs_f64() * 1e3,
            row.coordinate_ns as f64 / 1e6,
            row.rehome_ns as f64 / 1e6,
            row.recover.as_secs_f64() * 1e3,
            row.ops_failed,
            row.ops_ok,
            row.invoke_p50_ns,
            row.invoke_p99_ns,
            row.invoke_p999_ns,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_point_recovers_and_reports() {
        let rows = recovery_sweep(&[(Duration::from_millis(20), 4)]);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.detect >= Duration::from_millis(20));
        assert!(row.recover >= row.detect);
        assert!(row.ops_ok > 0);
        // The killed node owned state, so the run's single recovery must
        // have gone through both coordinator phases, and the recorded
        // invocation histogram saw the survivors' writes.
        assert!(
            row.coordinate_ns > 0,
            "coordinate phase unrecorded: {row:?}"
        );
        assert!(row.rehome_ns > 0, "rehome phase unrecorded: {row:?}");
        assert!(row.invoke_p50_ns > 0);
        assert!(row.invoke_p99_ns >= row.invoke_p50_ns);
        let json = to_json(&rows);
        assert!(json.contains("\"recover_ms\""));
        assert!(json.contains("\"coordinate_ms\""));
        assert!(json.contains("\"invoke_p999_ns\""));
        assert!(format_table(&rows).contains("ops-failed"));
    }
}
