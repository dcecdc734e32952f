//! Configuration of an Orca runtime instance.

use orca_amoeba::FaultConfig;
use orca_group::GroupConfig;
use orca_rts::{AdaptivePolicy, BatchPolicy, RecoveryConfig, RtsKind, WritePolicy};

/// Which runtime system each node runs.
#[derive(Debug, Clone)]
pub enum RtsStrategy {
    /// The broadcast runtime system (full replication, operation shipping
    /// over PB/BB totally-ordered broadcast).
    Broadcast(GroupConfig),
    /// The adaptive runtime system: each object's regime (replicated or
    /// sharded) and placement are picked and changed at runtime from its
    /// observed use — unless the policy pins the regime. The
    /// point-to-point runtime system of the paper (primary copy, invalidation
    /// or two-phase update, dynamic replication) is this one with every
    /// regime pinned to replicated ([`AdaptivePolicy::primary_copy`],
    /// [`RtsStrategy::primary_update`]); the sharded runtime system pins it
    /// to sharded ([`AdaptivePolicy::sharded`], [`RtsStrategy::sharded`]).
    Adaptive {
        /// Thresholds, reporting cadence, leases and partition count.
        policy: AdaptivePolicy,
    },
}

impl RtsStrategy {
    /// Default broadcast strategy.
    pub fn broadcast() -> Self {
        RtsStrategy::Broadcast(GroupConfig::default())
    }

    /// Primary-copy strategy with two-phase updates (the paper's usual
    /// better-performing point-to-point variant).
    pub fn primary_update() -> Self {
        RtsStrategy::Adaptive {
            policy: AdaptivePolicy::primary_copy(WritePolicy::Update),
        }
    }

    /// Primary-copy strategy with invalidation.
    pub fn primary_invalidate() -> Self {
        RtsStrategy::Adaptive {
            policy: AdaptivePolicy::primary_copy(WritePolicy::Invalidate),
        }
    }

    /// Sharded strategy with `partitions` partitions per shardable object
    /// (at least one): shardable objects partitioned over the nodes that use
    /// them with owner-shipped operations, non-shardable objects a single
    /// copy at their creating node.
    pub fn sharded(partitions: u32) -> Self {
        RtsStrategy::Adaptive {
            policy: AdaptivePolicy::sharded(partitions.max(1)),
        }
    }

    /// Adaptive strategy with default thresholds.
    pub fn adaptive() -> Self {
        RtsStrategy::Adaptive {
            policy: AdaptivePolicy::default(),
        }
    }

    /// The policy the adaptive runtime system runs this strategy under, or
    /// `None` for the broadcast strategy, which is another runtime system.
    pub fn adaptive_policy(&self) -> Option<AdaptivePolicy> {
        match self {
            RtsStrategy::Broadcast(_) => None,
            RtsStrategy::Adaptive { policy } => Some(*policy),
        }
    }

    /// The [`RtsKind`] this strategy produces.
    pub fn kind(&self) -> RtsKind {
        let policy = self.adaptive_policy();
        policy.map_or(RtsKind::Broadcast, |policy| policy.kind())
    }
}

/// Which transport backend carries the cluster's traffic.
///
/// The deterministic simulator is the default; the socket variant runs the
/// same runtime systems over real loopback TCP/UDP sockets inside one
/// process (wall-clock benches, transport-conformance tests). Real
/// multi-process clusters use the `orca-node` binary, which drives one
/// node per process over `SocketTransport` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// In-process simulated network (deterministic; supports fault
    /// injection, crash simulation and the model-checking scheduler).
    #[default]
    Sim,
    /// One real `SocketTransport` per node, all inside this process on
    /// loopback ephemeral ports. Fault injection and the scheduler seam
    /// are unavailable; `kill_node` maps to a local crash flag plus
    /// failure-detector confirmation.
    SocketLoopback,
}

/// Configuration of a whole Orca application run.
#[derive(Debug, Clone)]
pub struct OrcaConfig {
    /// Number of processors in the pool (the paper's experiments use up
    /// to 16).
    pub processors: usize,
    /// Fault injection applied to the simulated network.
    pub fault: FaultConfig,
    /// Runtime-system strategy used on every node.
    pub strategy: RtsStrategy,
    /// Crash-recovery and membership knobs (disabled by default; see
    /// [`RecoveryConfig`]). With recovery enabled, every node runs a
    /// heartbeat failure detector and the runtime systems re-home objects
    /// orphaned by a node failure onto survivors.
    pub recovery: RecoveryConfig,
    /// Batching knobs of the pipelined asynchronous invocation path
    /// ([`crate::OrcaNode::invoke_async`] / `invoke_many`): how many
    /// pending operations one flusher round may coalesce per destination
    /// message, and how long a round waits for more submissions.
    /// Synchronous invocations are never batched.
    pub batch: BatchPolicy,
    /// Transport backend: the deterministic simulator (default) or real
    /// loopback sockets. Fault injection only applies to the simulator.
    pub transport: TransportConfig,
}

impl OrcaConfig {
    /// Broadcast runtime system on `processors` processors over a reliable
    /// network — the configuration the paper's measurements use.
    pub fn broadcast(processors: usize) -> Self {
        OrcaConfig {
            processors,
            fault: FaultConfig::reliable(),
            strategy: RtsStrategy::broadcast(),
            recovery: RecoveryConfig::disabled(),
            batch: BatchPolicy::default(),
            transport: TransportConfig::Sim,
        }
    }

    /// Point-to-point runtime system with the given write policy.
    pub fn primary_copy(processors: usize, policy: WritePolicy) -> Self {
        OrcaConfig {
            processors,
            fault: FaultConfig::reliable(),
            strategy: RtsStrategy::Adaptive {
                policy: AdaptivePolicy::primary_copy(policy),
            },
            recovery: RecoveryConfig::disabled(),
            batch: BatchPolicy::default(),
            transport: TransportConfig::Sim,
        }
    }

    /// Sharded runtime system with `partitions` partitions per shardable
    /// object.
    pub fn sharded(processors: usize, partitions: u32) -> Self {
        OrcaConfig {
            processors,
            fault: FaultConfig::reliable(),
            strategy: RtsStrategy::sharded(partitions),
            recovery: RecoveryConfig::disabled(),
            batch: BatchPolicy::default(),
            transport: TransportConfig::Sim,
        }
    }

    /// Adaptive runtime system with default thresholds.
    pub fn adaptive(processors: usize) -> Self {
        OrcaConfig {
            processors,
            fault: FaultConfig::reliable(),
            strategy: RtsStrategy::adaptive(),
            recovery: RecoveryConfig::disabled(),
            batch: BatchPolicy::default(),
            transport: TransportConfig::Sim,
        }
    }

    /// Replace the fault configuration.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Replace the crash-recovery configuration.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Replace the asynchronous-path batching knobs.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Replace the transport backend.
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kinds() {
        assert_eq!(RtsStrategy::broadcast().kind(), RtsKind::Broadcast);
        assert_eq!(RtsStrategy::primary_update().kind(), RtsKind::PrimaryUpdate);
        assert_eq!(
            RtsStrategy::primary_invalidate().kind(),
            RtsKind::PrimaryInvalidate
        );
        assert_eq!(RtsStrategy::sharded(4).kind(), RtsKind::Sharded);
        assert_eq!(RtsStrategy::adaptive().kind(), RtsKind::Adaptive);
        assert_eq!(OrcaConfig::adaptive(4).strategy.kind(), RtsKind::Adaptive);
    }

    #[test]
    fn sharded_config_builder() {
        let config = OrcaConfig::sharded(8, 4);
        assert_eq!(config.processors, 8);
        assert_eq!(config.strategy.kind(), RtsKind::Sharded);
        let partitions = |strategy: &RtsStrategy| strategy.adaptive_policy().unwrap().partitions;
        assert_eq!(partitions(&config.strategy), 4);
        // Partition counts are clamped to at least one.
        assert_eq!(partitions(&RtsStrategy::sharded(0)), 1);
        // Spelled out: the adaptive runtime, its regime pinned.
        let pinned = RtsStrategy::Adaptive {
            policy: AdaptivePolicy::sharded(4),
        };
        assert_eq!(pinned.kind(), RtsKind::Sharded);
        let pinned = RtsStrategy::Adaptive {
            policy: AdaptivePolicy::primary_copy(WritePolicy::Invalidate),
        };
        assert_eq!(pinned.kind(), RtsKind::PrimaryInvalidate);
    }

    #[test]
    fn config_builders() {
        let config = OrcaConfig::broadcast(16);
        assert_eq!(config.processors, 16);
        assert!(config.fault.is_reliable());
        let config = OrcaConfig::primary_copy(4, WritePolicy::Invalidate)
            .with_fault(FaultConfig::lossy(0.1, 3));
        assert_eq!(config.strategy.kind(), RtsKind::PrimaryInvalidate);
        assert!(!config.fault.is_reliable());
    }
}
