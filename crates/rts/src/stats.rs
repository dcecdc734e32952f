//! Runtime-system statistics: per-node counters of what the runtime system
//! did on behalf of the application (local reads, shipped writes, update
//! messages handled for other nodes' writes, copies fetched/dropped, guard
//! retries). The performance model combines these with the network
//! statistics to estimate per-node protocol handling time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live per-node runtime-system counters.
#[derive(Debug, Default)]
pub struct RtsStats {
    /// Read operations satisfied from a local replica (no communication).
    pub local_reads: AtomicU64,
    /// Read operations that required an RPC to the primary copy.
    pub remote_reads: AtomicU64,
    /// Write operations invoked by processes on this node.
    pub writes: AtomicU64,
    /// Write operations shipped through the totally-ordered broadcast.
    pub broadcast_writes: AtomicU64,
    /// Write operations sent to a primary copy by RPC.
    pub remote_writes: AtomicU64,
    /// Operations of other nodes applied to (or served against) local
    /// replicas — broadcast updates handled by the object manager, remote
    /// operations served at a primary copy or partition owner, and mirror
    /// updates of the adaptive replicated regime. The "CPU overhead of
    /// handling incoming update messages" the paper blames for the ACP
    /// slowdown.
    pub updates_applied: AtomicU64,
    /// Invalidation messages processed (local copy discarded).
    pub invalidations_received: AtomicU64,
    /// Object copies fetched because the read/write ratio crossed the
    /// replication threshold.
    pub copies_fetched: AtomicU64,
    /// Object copies dropped because the ratio fell below the threshold.
    pub copies_dropped: AtomicU64,
    /// Times a blocking operation found its guard false and had to wait.
    pub guard_retries: AtomicU64,
    /// Objects created by this node.
    pub objects_created: AtomicU64,
    /// Regime switches coordinated by this node (adaptive runtime system
    /// only; a node switches regimes only for objects it is home of).
    pub regime_switches: AtomicU64,
    /// Operation batches this node shipped on behalf of its pipelined
    /// asynchronous invocations (one broadcast slot or one RPC each).
    pub batches_sent: AtomicU64,
    /// Operations carried inside those batches. `ops_batched /
    /// batches_sent` is the achieved coalescing factor.
    pub ops_batched: AtomicU64,
    /// Operations this node applied *out of incoming batches*. For batch
    /// traffic the per-message protocol-handling event is counted in
    /// [`RtsStats::updates_applied`] (once per batch) and the per-operation
    /// applies land here, so the cost model can charge interrupt/protocol
    /// cost per message and apply cost per operation.
    pub batch_ops_applied: AtomicU64,
}

impl RtsStats {
    /// Create a zeroed, shareable statistics block.
    pub fn new_shared() -> Arc<RtsStats> {
        Arc::new(RtsStats::default())
    }

    /// Increment a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> RtsStatsSnapshot {
        RtsStatsSnapshot {
            local_reads: self.local_reads.load(Ordering::Relaxed),
            remote_reads: self.remote_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            broadcast_writes: self.broadcast_writes.load(Ordering::Relaxed),
            remote_writes: self.remote_writes.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            invalidations_received: self.invalidations_received.load(Ordering::Relaxed),
            copies_fetched: self.copies_fetched.load(Ordering::Relaxed),
            copies_dropped: self.copies_dropped.load(Ordering::Relaxed),
            guard_retries: self.guard_retries.load(Ordering::Relaxed),
            objects_created: self.objects_created.load(Ordering::Relaxed),
            regime_switches: self.regime_switches.load(Ordering::Relaxed),
            batches_sent: self.batches_sent.load(Ordering::Relaxed),
            ops_batched: self.ops_batched.load(Ordering::Relaxed),
            batch_ops_applied: self.batch_ops_applied.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`RtsStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtsStatsSnapshot {
    /// Read operations satisfied locally.
    pub local_reads: u64,
    /// Read operations that needed an RPC.
    pub remote_reads: u64,
    /// Write operations invoked on this node.
    pub writes: u64,
    /// Writes shipped via broadcast.
    pub broadcast_writes: u64,
    /// Writes sent to a remote primary.
    pub remote_writes: u64,
    /// Other nodes' operations applied locally.
    pub updates_applied: u64,
    /// Invalidations processed.
    pub invalidations_received: u64,
    /// Copies fetched by the dynamic replication policy.
    pub copies_fetched: u64,
    /// Copies dropped by the dynamic replication policy.
    pub copies_dropped: u64,
    /// Guard retries (blocked operations).
    pub guard_retries: u64,
    /// Objects created.
    pub objects_created: u64,
    /// Regime switches coordinated (adaptive runtime system only).
    pub regime_switches: u64,
    /// Operation batches shipped by the asynchronous invocation path.
    pub batches_sent: u64,
    /// Operations carried inside shipped batches.
    pub ops_batched: u64,
    /// Operations applied out of incoming batches (per-op applies; the
    /// per-message handling event is in `updates_applied`).
    pub batch_ops_applied: u64,
}

impl RtsStatsSnapshot {
    /// Element-wise difference `self - earlier`, saturating at zero.
    ///
    /// Saturating, not wrapping: benchmark windows subtract a "before"
    /// snapshot from an "after" one, and a snapshot pair taken around a
    /// counter reset (or passed in the wrong order) must yield zeros, not
    /// a number near `u64::MAX` that silently wrecks every derived rate.
    pub fn since(&self, earlier: &RtsStatsSnapshot) -> RtsStatsSnapshot {
        RtsStatsSnapshot {
            local_reads: self.local_reads.saturating_sub(earlier.local_reads),
            remote_reads: self.remote_reads.saturating_sub(earlier.remote_reads),
            writes: self.writes.saturating_sub(earlier.writes),
            broadcast_writes: self
                .broadcast_writes
                .saturating_sub(earlier.broadcast_writes),
            remote_writes: self.remote_writes.saturating_sub(earlier.remote_writes),
            updates_applied: self.updates_applied.saturating_sub(earlier.updates_applied),
            invalidations_received: self
                .invalidations_received
                .saturating_sub(earlier.invalidations_received),
            copies_fetched: self.copies_fetched.saturating_sub(earlier.copies_fetched),
            copies_dropped: self.copies_dropped.saturating_sub(earlier.copies_dropped),
            guard_retries: self.guard_retries.saturating_sub(earlier.guard_retries),
            objects_created: self.objects_created.saturating_sub(earlier.objects_created),
            regime_switches: self.regime_switches.saturating_sub(earlier.regime_switches),
            batches_sent: self.batches_sent.saturating_sub(earlier.batches_sent),
            ops_batched: self.ops_batched.saturating_sub(earlier.ops_batched),
            batch_ops_applied: self
                .batch_ops_applied
                .saturating_sub(earlier.batch_ops_applied),
        }
    }

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

    #[test]
    fn rts_stats_snapshot() {
        let stats = RtsStats::new_shared();
        RtsStats::bump(&stats.local_reads);
        RtsStats::bump(&stats.local_reads);
        RtsStats::bump(&stats.writes);
        RtsStats::bump(&stats.remote_reads);
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

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let stats = RtsStats::new_shared();
        RtsStats::bump(&stats.local_reads);
        RtsStats::bump(&stats.writes);
        let before = stats.snapshot();
        RtsStats::bump(&stats.local_reads);
        let after = stats.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.local_reads, 1);
        assert_eq!(delta.writes, 0);
        // Swapped order (or a reset between snapshots) yields zeros, never
        // a wrapped value.
        let swapped = before.since(&after);
        assert_eq!(swapped, RtsStatsSnapshot::default());
        assert_eq!(swapped.local_read_fraction(), 1.0);
    }
}
