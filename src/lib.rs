//! Umbrella crate for the Orca shared data-object system reproduction.
//!
//! This crate simply re-exports every sub-crate of the workspace under a
//! single name so that examples, integration tests and downstream users can
//! depend on `orca` alone.
//!
//! The layers, bottom to top:
//!
//! * [`wire`] — compact binary wire codec used for every simulated network
//!   message, so that byte counts reported by the statistics layer are
//!   meaningful.
//! * [`telemetry`] — unified observability: metrics registry with latency
//!   histograms, per-node flight recorder, causal invocation tracing.
//! * [`amoeba`] — the simulated multicomputer substrate (nodes, unreliable
//!   network with fault injection, RPC, statistics, sequencer election),
//!   standing in for the Amoeba microkernel of the paper.
//! * [`group`] — totally-ordered reliable broadcast built from the PB
//!   (point-to-point/broadcast) and BB (broadcast/broadcast) protocols with a
//!   sequencer and history buffer.
//! * [`object`] — the shared data-object model: abstract data types with
//!   read/write operations, guards, and type-erased replicas.
//! * [`rts`] — the runtime systems that keep replicas sequentially
//!   consistent: the broadcast RTS (full replication, operation shipping) and
//!   the adaptive RTS, which places each object replicated or sharded by its
//!   observed use. Pinned to replicated it is the paper's primary-copy RTS
//!   (invalidation and two-phase update protocols, dynamic replication);
//!   pinned to sharded, the sharded RTS.
//! * [`core`] — the Orca programming model: runtime, `fork`-style process
//!   creation, typed object handles and a standard object library.
//! * [`apps`] — the four applications evaluated in the paper (TSP, arc
//!   consistency, chess, ATPG) in sequential and Orca-parallel form.
//!
//! The calibrated 1993 cost model (`orca_perf`) is not re-exported: it
//! serves only the paper's figures, which `orca_bench`'s `experiments`
//! binary regenerates.

pub use orca_amoeba as amoeba;
pub use orca_apps as apps;
pub use orca_core as core;
pub use orca_group as group;
pub use orca_object as object;
pub use orca_rts as rts;
pub use orca_telemetry as telemetry;
pub use orca_wire as wire;

/// Version of the umbrella crate (mirrors the workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
