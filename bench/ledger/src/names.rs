//! The fixed vocabulary of the ledger: backends, workloads, and the list of
//! reported metrics collected under their published names.

use orca_core::{OrcaConfig, TransportConfig};
use orca_rts::WritePolicy;

/// Nodes in every benchmark cluster.
pub const NODES: usize = 3;
/// Client processes, forked on nodes 1 and 2 (node 0 is every object's
/// creator, so each client is remote from the home/primary/sequencer).
pub const CLIENTS: usize = 2;
/// Keys the table holds from set-up to audit.
pub const KEYS: usize = 4096;
/// Operations a pipelined client keeps in flight before waiting.
pub const WINDOW: usize = 64;
/// Partitions of the sharded backend.
pub const PARTITIONS: u32 = 4;

/// The four runtime systems, in the order every round visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Full replication over totally-ordered broadcast.
    Broadcast,
    /// Primary copy with two-phase update.
    Primary,
    /// Four hash partitions with owner-shipped operations.
    Sharded,
    /// Per-object regime picked at run time.
    Adaptive,
}

impl Backend {
    /// Every backend, in round order.
    pub const ALL: [Backend; 4] = [
        Backend::Broadcast,
        Backend::Primary,
        Backend::Sharded,
        Backend::Adaptive,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Broadcast => "broadcast",
            Backend::Primary => "primary",
            Backend::Sharded => "sharded",
            Backend::Adaptive => "adaptive",
        }
    }

    /// Position in [`Backend::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The configuration users get by default for this backend, over
    /// `transport`.
    pub fn config(self, transport: TransportConfig) -> OrcaConfig {
        match self {
            Backend::Broadcast => OrcaConfig::broadcast(NODES),
            Backend::Primary => OrcaConfig::primary_copy(NODES, WritePolicy::Update),
            Backend::Sharded => OrcaConfig::sharded(NODES, PARTITIONS),
            Backend::Adaptive => OrcaConfig::adaptive(NODES),
        }
        .with_transport(transport)
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synchronous `Put`s over loopback sockets.
    WriteSyncTcp,
    /// Windows of 64 asynchronous `Put`s over loopback sockets.
    WritePipelinedTcp,
    /// Windows of 64 asynchronous `Put`s over the simulated network.
    WritePipelinedSim,
    /// Synchronous 90% `Get` / 10% `Put` over loopback sockets.
    ReadMostlyTcp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::WriteSyncTcp,
        Workload::WritePipelinedTcp,
        Workload::WritePipelinedSim,
        Workload::ReadMostlyTcp,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteSyncTcp => "write_sync_tcp",
            Workload::WritePipelinedTcp => "write_pipelined_tcp",
            Workload::WritePipelinedSim => "write_pipelined_sim",
            Workload::ReadMostlyTcp => "read_mostly_tcp",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Transport the workload's clusters run over.
    pub fn transport(self) -> TransportConfig {
        match self {
            Workload::WritePipelinedSim => TransportConfig::Sim,
            _ => TransportConfig::SocketLoopback,
        }
    }

    /// True when clients keep a window of asynchronous operations in
    /// flight; false when every operation is a synchronous `invoke`.
    pub fn pipelined(self) -> bool {
        matches!(
            self,
            Workload::WritePipelinedTcp | Workload::WritePipelinedSim
        )
    }

    /// Share of operations that are reads, in percent.
    pub fn read_percent(self) -> u32 {
        match self {
            Workload::ReadMostlyTcp => 90,
            _ => 0,
        }
    }

    /// Operations one latency sample covers (a whole window when
    /// pipelined).
    pub fn ops_per_sample(self) -> usize {
        if self.pipelined() {
            WINDOW
        } else {
            1
        }
    }
}

/// Metrics of one run, in the order they were reported.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Report `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// The reported rows.
    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// Value reported under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|row| row.0 == name).map(|row| row.1)
    }
}
