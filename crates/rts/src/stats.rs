//! Runtime-system statistics: per-node counters of what the runtime system
//! did on behalf of the application (local reads, shipped writes, update
//! messages handled for other nodes' writes, copies fetched/dropped, guard
//! retries). The performance model combines these with the network
//! statistics to estimate per-node protocol handling time.

use orca_amoeba::network::NetworkHandle;

orca_telemetry::counter_set! {
    /// Live per-node runtime-system counters, `rts.node<i>.<field>` in the
    /// registry.
    pub struct RtsStats => RtsStatsSnapshot {
        /// Read operations satisfied from a local replica (no communication).
        local_reads,
        /// Read operations shipped by RPC to a replica on another node.
        remote_reads,
        /// Write operations invoked by processes on this node.
        writes,
        /// Write operations shipped through the totally-ordered broadcast.
        broadcast_writes,
        /// Write operations shipped by RPC to a replica on another node (a
        /// pipelined batch counts once).
        remote_writes,
        /// Operations of other nodes applied to (or served against) local
        /// replicas — broadcast updates handled by the object manager, remote
        /// operations served at an owner, and mirror updates of the
        /// replicated regime. The "CPU overhead of handling incoming update
        /// messages" the paper blames for the ACP slowdown.
        updates_applied,
        /// Invalidation messages processed (local copy discarded).
        invalidations_received,
        /// Mirrors installed here from a snapshot of the object's state
        /// (adaptive runtime system only).
        copies_fetched,
        /// Slots this node served and withdrew for a regime switch
        /// (adaptive runtime system only).
        copies_dropped,
        /// Times a blocking operation found its guard false and had to wait.
        guard_retries,
        /// Objects created by this node.
        objects_created,
        /// Regime switches coordinated by this node (adaptive runtime system
        /// only; a node switches regimes only for objects it is home of).
        regime_switches,
        /// Operation batches this node shipped on behalf of its pipelined
        /// asynchronous invocations (one broadcast slot or one RPC each).
        batches_sent,
        /// Operations carried inside those batches. `ops_batched /
        /// batches_sent` is the achieved coalescing factor.
        ops_batched,
        /// Operations this node applied *out of incoming batches*. For batch
        /// traffic the per-message protocol-handling event is counted in
        /// `updates_applied` (once per batch) and the per-operation applies
        /// land here, so the cost model can charge interrupt/protocol cost
        /// per message and apply cost per operation.
        batch_ops_applied,
    }
}

impl RtsStats {
    /// The counters of the runtime system on `handle`'s node.
    pub(crate) fn from_handle(handle: &NetworkHandle) -> RtsStats {
        let prefix = format!("rts.node{}", handle.node().index());
        RtsStats::new(handle.telemetry().registry(), &prefix)
    }
}

impl RtsStatsSnapshot {
    /// Total operations invoked by processes on this node.
    pub fn total_invocations(&self) -> u64 {
        self.local_reads + self.remote_reads + self.writes
    }

    /// Fraction of all reads that were satisfied locally (1.0 when there were
    /// no reads at all).
    pub fn local_read_fraction(&self) -> f64 {
        let total = self.local_reads + self.remote_reads;
        if total == 0 {
            1.0
        } else {
            self.local_reads as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_telemetry::Registry;

    #[test]
    fn rts_stats_snapshot() {
        let stats = RtsStats::new(&Registry::new(), "rts.node0");
        stats.local_reads.add(2);
        stats.writes.inc();
        stats.remote_reads.inc();
        let snap = stats.snapshot();
        assert_eq!(snap.local_reads, 2);
        assert_eq!(snap.total_invocations(), 4);
        assert!((snap.local_read_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn local_read_fraction_with_no_reads() {
        let snap = RtsStatsSnapshot::default();
        assert_eq!(snap.local_read_fraction(), 1.0);
        assert!(snap.local_read_fraction().is_finite());
    }
}
