//! Simulated Amoeba-style multicomputer substrate.
//!
//! The paper's system runs on the Amoeba microkernel: a pool of processors
//! connected by a 10 Mb/s Ethernet, with kernel support for processes and
//! threads, memory segments, RPC, and (un)reliable broadcasting. This crate
//! provides an in-process stand-in for that substrate:
//!
//! * [`Network`] — a simulated broadcast network connecting a fixed set of
//!   [`NodeId`]s. Point-to-point sends and hardware-style broadcasts are
//!   delivered to per-node, per-port inboxes. The network is *unreliable on
//!   request*: a [`FaultConfig`] can drop, duplicate and reorder packets so
//!   that the reliable-broadcast protocols built on top (crate `orca-group`)
//!   are exercised on the failure model they were designed for.
//! * [`NetStats`] — per-node counters of messages, packets, bytes and
//!   interrupts, the raw material of the PB-vs-BB comparison in §3.1 of the
//!   paper and of the performance model in `orca-perf`.
//! * [`rpc`] — a remote-procedure-call layer (client call / server dispatch)
//!   mirroring Amoeba's RPC primitive; used by the point-to-point runtime
//!   system.
//! * [`process`] — processor-pool bookkeeping and spawning of "Orca
//!   processes" (OS threads bound to a simulated node).
//! * [`election`] — sequencer election among the live members of a group.
//! * [`transport`] — the seam that makes everything above the packet layer
//!   generic over a [`transport::Transport`] backend: the simulated network
//!   is the default ([`transport::SimTransport`]), and
//!   [`transport::SocketTransport`] runs the same stack over real TCP/UDP
//!   sockets so N OS processes form a live cluster.
//!
//! Everything in this crate is deliberately independent of the shared-object
//! model; it only moves bytes and counts them.

pub mod election;
pub mod fault;
pub mod message;
pub mod network;
pub mod node;
pub mod process;
pub mod rng;
pub mod rpc;
pub mod sched;
pub mod stats;
pub mod transport;

pub use fault::FaultConfig;
pub use message::NetMessage;
pub use network::{Network, NetworkConfig, NetworkHandle, PortReceiver};
pub use node::{ports, NodeId, Port};
pub use sched::{HeldDescriptor, MsgId, SchedulerConfig};
pub use stats::{NetStats, NetStatsSnapshot};
pub use transport::{SimTransport, SocketConfig, SocketTransport, Transport, TransportKind};
