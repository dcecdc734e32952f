//! Totally-ordered reliable broadcast for the simulated Amoeba network.
//!
//! This crate implements the group-communication layer described in §3.1 of
//! the paper: a sequencer-based protocol family that turns the unreliable
//! hardware broadcast of the network into a *reliable, totally-ordered*
//! broadcast, the property the broadcast runtime system needs to keep object
//! replicas sequentially consistent.
//!
//! Two protocols are provided, selectable per message:
//!
//! * **PB (Point-to-point → Broadcast).** The sender transmits the message
//!   point-to-point to the sequencer; the sequencer assigns the next global
//!   sequence number, stores the message in its history buffer, and
//!   broadcasts it. The full message crosses the wire twice (2·m bytes) but
//!   each member is interrupted only once.
//! * **BB (Broadcast → Broadcast).** The sender broadcasts the full message
//!   itself (tagged with a unique id); the sequencer broadcasts a short
//!   *Accept* carrying the assigned sequence number. Only ~m bytes cross the
//!   wire but every member is interrupted twice.
//!
//! The default policy mirrors the paper: PB for messages that fit in one
//! network packet, BB for larger ones.
//!
//! Members deliver messages strictly in sequence-number order. Gaps (lost
//! broadcasts) are detected by comparing sequence numbers and repaired by
//! asking the sequencer for a retransmission from its history buffer;
//! senders whose message never gets sequenced (lost request) retransmit it.
//! If the sequencer crashes, the remaining members elect the lowest-numbered
//! live node as the new sequencer (see [`member::GroupMember`] for the
//! recovery caveats of this simulation).

pub mod config;
pub mod failure;
pub mod history;
pub mod member;
pub mod messages;
#[doc(hidden)]
pub mod sabotage;
pub mod stats;

pub use config::{GroupConfig, MethodPolicy, HISTORY_LIMIT, PB_MAX_PAYLOAD, TICK};
pub use failure::{FailureConfig, FailureDetector, ViewSnapshot};
pub use member::{Delivered, GroupError, GroupMember, GroupSender};
pub use messages::{BroadcastMethod, GroupMsg, MsgId};
pub use stats::{GroupStats, GroupStatsSnapshot};
