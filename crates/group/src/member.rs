//! The group member: protocol engine for totally-ordered reliable broadcast.
//!
//! Every node of an application runs one [`GroupMember`]. A member can
//! [`GroupMember::broadcast`] application payloads and receives *all* group
//! messages (its own included) through [`GroupMember::recv`] in a single
//! total order that is identical at every member.
//!
//! One member at a time acts as the *sequencer* (initially the
//! lowest-numbered node). The sequencer assigns consecutive global sequence
//! numbers, keeps a history buffer for retransmissions and — depending on
//! message size — either rebroadcasts the full message (PB) or broadcasts a
//! short Accept for a message the origin already broadcast (BB).
//!
//! ## Failure handling
//!
//! * Lost broadcasts are detected as gaps in the sequence numbers and
//!   repaired with retransmission requests served from the history buffer.
//! * Lost requests (the origin's message never gets sequenced) are detected
//!   by the origin's retransmission timer and simply sent again; the
//!   sequencer deduplicates by message id.
//! * A crashed sequencer is detected either through the simulated kernel's
//!   crash flag or after repeated fruitless retransmissions; the remaining
//!   members elect the lowest-numbered live node as the new sequencer.
//!   Every member keeps a history buffer of the messages it has *delivered*
//!   (not just the ones it sequenced), so a newly elected sequencer can
//!   serve retransmissions for the old sequencer's era. Because the new
//!   sequencer may not have observed the failed sequencer's final
//!   assignments, it announces itself (`NewSequencer`) and pauses
//!   sequencing for one retransmission interval: members that have seen
//!   higher sequence numbers replay those entries to it from their own
//!   history, the new sequencer adopts them (advancing its numbering past
//!   everything any survivor delivered), and only then does it resume
//!   assigning fresh numbers. A message acknowledged to any *surviving*
//!   origin is therefore never lost and never double-numbered across the
//!   change-over. (Residual: under simultaneous heavy message loss the
//!   replay itself can be dropped; the resync window bounds but does not
//!   eliminate that race — see docs/ARCHITECTURE.md.)

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use orca_amoeba::election::Membership;
use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::{ports, NodeId};
use orca_amoeba::NetMessage;
use orca_wire::Wire;

use crate::config::{GroupConfig, MethodPolicy};
use crate::history::{HistoryBuffer, HistoryEntry};
use crate::messages::{BroadcastMethod, GroupMsg, MsgId};
use crate::stats::{GroupStats, GroupStatsSnapshot};

/// A message delivered in total order to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Position in the global total order (1-based, no gaps).
    pub global_seq: u64,
    /// Identity assigned by the message's origin.
    pub id: MsgId,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// Errors surfaced by the group layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// The member has been shut down.
    Terminated,
    /// A blocking receive timed out.
    Timeout,
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::Terminated => write!(f, "group member terminated"),
            GroupError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for GroupError {}

enum Command {
    Broadcast { payload: Vec<u8> },
    Shutdown,
}

/// Cheap cloneable handle that can queue broadcasts on a [`GroupMember`]
/// from other threads (e.g. the runtime system's invocation path) while the
/// member itself is owned by its manager thread.
#[derive(Clone)]
pub struct GroupSender {
    cmd_tx: Sender<Command>,
}

impl std::fmt::Debug for GroupSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSender").finish()
    }
}

impl GroupSender {
    /// Queue an application payload for totally-ordered broadcast.
    pub fn broadcast(&self, payload: Vec<u8>) -> Result<(), GroupError> {
        self.cmd_tx
            .send(Command::Broadcast { payload })
            .map_err(|_| GroupError::Terminated)
    }
}

/// Handle to a running group member (protocol thread + delivery queue).
pub struct GroupMember {
    node: NodeId,
    cmd_tx: Sender<Command>,
    delivery_rx: Receiver<Delivered>,
    stats: GroupStats,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for GroupMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupMember")
            .field("node", &self.node)
            .finish()
    }
}

impl GroupMember {
    /// Start a group member on the node owning `handle`.
    ///
    /// All nodes of the network are assumed to be members of the (single)
    /// group, which matches the paper's model of one parallel application
    /// owning the processor pool.
    pub fn start(handle: NetworkHandle, config: GroupConfig) -> GroupMember {
        let node = handle.node();
        let prefix = format!("group.node{}", node.index());
        let stats = GroupStats::new(handle.telemetry().registry(), &prefix);
        let (cmd_tx, cmd_rx) = unbounded();
        let (delivery_tx, delivery_rx) = unbounded();
        let state_stats = stats.clone();
        let thread = std::thread::Builder::new()
            .name(format!("group-{node}"))
            .spawn(move || {
                let mut state = ProtocolState::new(handle, config, state_stats, delivery_tx);
                state.run(cmd_rx);
            })
            .expect("spawn group protocol thread");
        GroupMember {
            node,
            cmd_tx,
            delivery_rx,
            stats,
            thread: Some(thread),
        }
    }

    /// Node this member runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A cloneable handle that can queue broadcasts from other threads.
    pub fn sender(&self) -> GroupSender {
        GroupSender {
            cmd_tx: self.cmd_tx.clone(),
        }
    }

    /// Queue an application payload for totally-ordered broadcast.
    ///
    /// The call returns immediately; the message is delivered (also to the
    /// caller's own member) once the sequencer has ordered it.
    pub fn broadcast(&self, payload: Vec<u8>) -> Result<(), GroupError> {
        self.cmd_tx
            .send(Command::Broadcast { payload })
            .map_err(|_| GroupError::Terminated)
    }

    /// Blocking receive of the next message in total order.
    pub fn recv(&self) -> Result<Delivered, GroupError> {
        self.delivery_rx.recv().map_err(|_| GroupError::Terminated)
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Delivered, GroupError> {
        self.delivery_rx
            .recv_timeout(timeout)
            .map_err(|err| match err {
                crossbeam::channel::RecvTimeoutError::Timeout => GroupError::Timeout,
                crossbeam::channel::RecvTimeoutError::Disconnected => GroupError::Terminated,
            })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Delivered> {
        self.delivery_rx.try_recv().ok()
    }

    /// Borrow the delivery channel (for select loops in higher layers).
    pub fn deliveries(&self) -> &Receiver<Delivered> {
        &self.delivery_rx
    }

    /// Snapshot of this member's protocol statistics.
    pub fn stats(&self) -> GroupStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop the protocol thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for GroupMember {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

struct PendingSend {
    payload: Vec<u8>,
    method: BroadcastMethod,
    last_sent: Instant,
}

struct ProtocolState {
    handle: NetworkHandle,
    config: GroupConfig,
    stats: GroupStats,
    delivery_tx: Sender<Delivered>,
    membership: Membership,
    sequencer: NodeId,
    // Member-side ordering state.
    next_deliver: u64,
    pending_order: BTreeMap<u64, (MsgId, Option<Vec<u8>>)>,
    /// Sequence numbers declared abandoned by a sequencer change-over
    /// ([`GroupMsg::Skip`]) or consumed by a re-sequenced duplicate;
    /// delivery advances past them without handing anything up.
    skipped: BTreeSet<u64>,
    bb_data: HashMap<MsgId, Vec<u8>>,
    delivered_ids: HashSet<MsgId>,
    gap_since: Option<Instant>,
    /// Highest global sequence number this member knows to exist (from data,
    /// accepts or sequencer status messages).
    known_highest: u64,
    last_status_sent: Instant,
    // Sender-side state.
    next_origin_seq: u64,
    unacked: HashMap<MsgId, PendingSend>,
    // Sequencer-side state.
    next_global_seq: u64,
    /// Sequenced (as sequencer) *and* delivered (as member) messages, so a
    /// newly elected sequencer can serve retransmissions and replay the old
    /// sequencer's era.
    history: HistoryBuffer,
    sequenced_ids: HashMap<MsgId, u64>,
    /// Set while a newly elected sequencer waits for survivors to replay
    /// sequence numbers it may have missed; sequencing duties arriving in
    /// the window are deferred to [`ProtocolState::deferred`].
    resync_until: Option<Instant>,
    /// Sequencing duties (id, payload, use-BB-accept) deferred by the
    /// resync window.
    deferred: Vec<(MsgId, Vec<u8>, bool)>,
    /// Consecutive post-resync repair rounds in which the sequencer still
    /// had holes in the failed sequencer's era; after a few fruitless
    /// survivor probes the holes are declared abandoned and skipped.
    hole_rounds: u32,
}

/// Fruitless survivor-probe rounds after which a newly elected sequencer
/// declares a hole in its predecessor's era abandoned.
const HOLE_PROBE_ROUNDS: u32 = 3;

impl ProtocolState {
    fn new(
        handle: NetworkHandle,
        config: GroupConfig,
        stats: GroupStats,
        delivery_tx: Sender<Delivered>,
    ) -> Self {
        let members = handle.node_ids();
        let membership = Membership::new(&members);
        let sequencer = membership.sequencer().expect("non-empty group");
        let history_limit = config.history_limit;
        ProtocolState {
            handle,
            config,
            stats,
            delivery_tx,
            membership,
            sequencer,
            next_deliver: 1,
            pending_order: BTreeMap::new(),
            skipped: BTreeSet::new(),
            bb_data: HashMap::new(),
            delivered_ids: HashSet::new(),
            gap_since: None,
            known_highest: 0,
            last_status_sent: Instant::now(),
            next_origin_seq: 1,
            unacked: HashMap::new(),
            next_global_seq: 1,
            history: HistoryBuffer::new(history_limit),
            sequenced_ids: HashMap::new(),
            resync_until: None,
            deferred: Vec::new(),
            hole_rounds: 0,
        }
    }

    fn run(&mut self, cmd_rx: Receiver<Command>) {
        let net_rx = self.handle.bind(ports::GROUP);
        loop {
            crossbeam::channel::select! {
                recv(cmd_rx) -> cmd => match cmd {
                    Ok(Command::Broadcast { payload }) => self.start_broadcast(payload),
                    Ok(Command::Shutdown) | Err(_) => return,
                },
                recv(net_rx.receiver()) -> msg => match msg {
                    Ok(msg) => self.handle_net(msg),
                    Err(_) => return,
                },
                default(self.config.tick) => {}
            }
            self.check_timers();
        }
    }

    fn is_sequencer(&self) -> bool {
        self.sequencer == self.handle.node()
    }

    fn choose_method(&self, payload_len: usize) -> BroadcastMethod {
        match self.config.method {
            MethodPolicy::AlwaysPb => BroadcastMethod::Pb,
            MethodPolicy::AlwaysBb => BroadcastMethod::Bb,
            MethodPolicy::Auto => {
                if payload_len <= self.config.pb_max_payload {
                    BroadcastMethod::Pb
                } else {
                    BroadcastMethod::Bb
                }
            }
        }
    }

    fn start_broadcast(&mut self, payload: Vec<u8>) {
        let id = MsgId {
            origin: self.handle.node(),
            origin_seq: self.next_origin_seq,
        };
        self.next_origin_seq += 1;
        let method = self.choose_method(payload.len());
        match method {
            BroadcastMethod::Pb => self.stats.pb_sent.inc(),
            BroadcastMethod::Bb => self.stats.bb_sent.inc(),
        }
        self.unacked.insert(
            id,
            PendingSend {
                payload: payload.clone(),
                method,
                last_sent: Instant::now(),
            },
        );
        self.transmit(id, &payload, method);
    }

    fn transmit(&mut self, id: MsgId, payload: &[u8], method: BroadcastMethod) {
        match method {
            BroadcastMethod::Pb => {
                if self.is_sequencer() {
                    // The sequencer's own writes never touch the wire on the
                    // request leg; it sequences them directly.
                    self.sequence_data(id, payload.to_vec());
                } else {
                    let msg = GroupMsg::RequestForBroadcast {
                        id,
                        payload: payload.to_vec(),
                    };
                    let _ = self
                        .handle
                        .send(self.sequencer, ports::GROUP, msg.to_bytes());
                }
            }
            BroadcastMethod::Bb => {
                let msg = GroupMsg::BbData {
                    id,
                    payload: payload.to_vec(),
                };
                let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
            }
        }
    }

    /// True while a newly elected sequencer is waiting out its resync
    /// window (survivors may still be replaying the old sequencer's
    /// assignments).
    fn in_resync(&self) -> bool {
        matches!(self.resync_until, Some(until) if Instant::now() < until)
    }

    /// Sequencer duty: assign the next global number and announce the data.
    fn sequence_data(&mut self, id: MsgId, payload: Vec<u8>) {
        if self.in_resync() {
            self.defer(id, payload, false);
            return;
        }
        if let Some(&existing) = self.sequenced_ids.get(&id) {
            // Duplicate request (origin retransmitted): re-announce.
            self.stats.duplicates_ignored.inc();
            if let Some(entry) = self.history.get(existing) {
                let msg = GroupMsg::SeqData {
                    global_seq: existing,
                    id,
                    payload: entry.payload.clone(),
                };
                let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
            }
            return;
        }
        let global_seq = self.next_global_seq;
        self.next_global_seq += 1;
        self.history.insert(
            global_seq,
            HistoryEntry {
                id,
                payload: payload.clone(),
            },
        );
        self.sequenced_ids.insert(id, global_seq);
        self.stats.sequenced.inc();
        let msg = GroupMsg::SeqData {
            global_seq,
            id,
            payload,
        };
        let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
    }

    /// Park a request that arrived during the resync window. Origins keep
    /// retransmitting while we defer (they cannot see the window), so dedup
    /// by id or the backlog grows one copy per retry.
    fn defer(&mut self, id: MsgId, payload: Vec<u8>, accept: bool) {
        if self.deferred.iter().any(|(existing, _, _)| *existing == id) {
            self.stats.duplicates_ignored.inc();
            return;
        }
        self.deferred.push((id, payload, accept));
    }

    /// Sequencer duty for the BB protocol: bind an already-broadcast message
    /// to a global number with a short Accept.
    fn sequence_accept(&mut self, id: MsgId, payload: Vec<u8>) {
        if self.in_resync() {
            self.defer(id, payload, true);
            return;
        }
        if let Some(&existing) = self.sequenced_ids.get(&id) {
            self.stats.duplicates_ignored.inc();
            let msg = GroupMsg::Accept {
                global_seq: existing,
                id,
            };
            let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
            return;
        }
        let global_seq = self.next_global_seq;
        self.next_global_seq += 1;
        self.history
            .insert(global_seq, HistoryEntry { id, payload });
        self.sequenced_ids.insert(id, global_seq);
        self.stats.sequenced.inc();
        let msg = GroupMsg::Accept { global_seq, id };
        let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
    }

    fn handle_net(&mut self, msg: NetMessage) {
        let src = msg.src;
        let decoded: GroupMsg = match msg.decode_payload() {
            Ok(decoded) => decoded,
            Err(_) => return, // corrupted message: the protocol recovers via gaps
        };
        match decoded {
            GroupMsg::RequestForBroadcast { id, payload } => {
                if self.is_sequencer() {
                    self.sequence_data(id, payload);
                } else {
                    // Stale view: the origin thinks we are the sequencer
                    // (it rode out an election we saw first, or vice
                    // versa). Point it at the real one so its retries
                    // converge instead of vanishing into a non-sequencer.
                    let msg = GroupMsg::NewSequencer {
                        sequencer: self.sequencer,
                        next_seq: self.next_global_seq,
                    };
                    let _ = self.handle.send(src, ports::GROUP, msg.to_bytes());
                }
            }
            GroupMsg::SeqData {
                global_seq,
                id,
                payload,
            } => {
                if self.is_sequencer() && !crate::sabotage::skip_era_replay() {
                    // Replayed assignments of a previous sequencer's era
                    // (handover after an election, or retransmissions in
                    // flight across it): adopt them so our numbering
                    // resumes past everything any survivor has seen and
                    // duplicate requests stay deduplicated. (The sabotaged
                    // failover also ignores these survivor-pushed replays —
                    // otherwise they silently compensate for the skipped
                    // replay and the mutation is unobservable.)
                    self.adopt_sequenced(global_seq, id, &payload);
                }
                self.receive_sequenced(global_seq, id, Some(payload));
            }
            GroupMsg::BbData { id, payload } => {
                // Its accept may have come first (a message too large for a
                // datagram rides TCP, its accept UDP): then the data fills
                // the number it waits at instead of waiting to be resent.
                let accepted = self
                    .pending_order
                    .iter()
                    .find(|(_, (waiting, data))| *waiting == id && data.is_none())
                    .map(|(&global_seq, _)| global_seq);
                if let Some(global_seq) = accepted {
                    self.receive_sequenced(global_seq, id, Some(payload.clone()));
                } else if !self.delivered_ids.contains(&id) {
                    self.bb_data.insert(id, payload.clone());
                }
                if self.is_sequencer() {
                    self.sequence_accept(id, payload);
                }
            }
            GroupMsg::Accept { global_seq, id } => {
                let payload = self.bb_data.remove(&id);
                self.receive_sequenced(global_seq, id, payload);
            }
            GroupMsg::RetransmitRequest { from, to } => {
                self.serve_retransmission(src, from, to);
                // A requester (typically a newly elected sequencer probing
                // the failed sequencer's era) that asks up to `to` has not
                // heard of anything higher; if we have, tell it.
                if self.known_highest > to {
                    let msg = GroupMsg::Status {
                        highest_seq: self.known_highest,
                    };
                    let _ = self.handle.send(src, ports::GROUP, msg.to_bytes());
                }
            }
            GroupMsg::NewSequencer {
                sequencer,
                next_seq,
            } => {
                self.sequencer = sequencer;
                if next_seq > self.next_global_seq {
                    self.next_global_seq = next_seq;
                }
                // Handover: if this member has seen sequence numbers the
                // new sequencer has not, replay them from local history
                // (delivered) and the reorder buffer (received, not yet
                // delivered) so the new sequencer adopts them before it
                // assigns fresh numbers.
                // (The sabotaged build has no era-replay code on either
                // side — survivors do not push old assignments at the new
                // sequencer, so nothing repairs a resumed-too-low
                // numbering.)
                if sequencer != self.handle.node()
                    && self.known_highest >= next_seq
                    && !crate::sabotage::skip_era_replay()
                {
                    for (global_seq, entry) in self.history.range(next_seq, self.known_highest) {
                        let msg = GroupMsg::SeqData {
                            global_seq,
                            id: entry.id,
                            payload: entry.payload,
                        };
                        let _ = self.handle.send(sequencer, ports::GROUP, msg.to_bytes());
                    }
                    for (&global_seq, (id, payload)) in self.pending_order.range(next_seq..) {
                        if let Some(payload) = payload {
                            let msg = GroupMsg::SeqData {
                                global_seq,
                                id: *id,
                                payload: payload.clone(),
                            };
                            let _ = self.handle.send(sequencer, ports::GROUP, msg.to_bytes());
                        }
                    }
                }
            }
            GroupMsg::Status { highest_seq } => {
                self.note_highest(highest_seq);
            }
            GroupMsg::Skip { from, to } => {
                // Bounded like retransmission bursts; numbers below the
                // delivery point are already consumed.
                let to = to.min(from.saturating_add(256));
                for seq in from.max(self.next_deliver)..=to {
                    self.skipped.insert(seq);
                }
                self.try_deliver();
            }
        }
    }

    /// Record that sequence numbers up to `seq` have been assigned; if this
    /// member has not delivered that far yet, start the gap-repair timer.
    fn note_highest(&mut self, seq: u64) {
        if seq > self.known_highest {
            self.known_highest = seq;
        }
        if self.known_highest >= self.next_deliver && self.gap_since.is_none() {
            self.gap_since = Some(Instant::now());
        }
    }

    fn serve_retransmission(&mut self, requester: NodeId, from: u64, to: u64) {
        // Any member that still has the entry in its history can serve it;
        // normally only the sequencer has one.
        let to = to.min(from.saturating_add(256)); // bound the burst
        let mut present = BTreeSet::new();
        for (global_seq, entry) in self.history.range(from, to) {
            present.insert(global_seq);
            self.stats.retransmissions_served.inc();
            let msg = GroupMsg::SeqData {
                global_seq,
                id: entry.id,
                payload: entry.payload,
            };
            let _ = self.handle.send(requester, ports::GROUP, msg.to_bytes());
        }
        // Sequencer authority: numbers this sequencer has itself already
        // consumed (delivered or skipped — i.e. below its own delivery
        // point) that are absent from its history were abandoned in a
        // change-over; tell the requester to skip them, otherwise its
        // delivery would stall forever. Two bounds keep Skip truthful:
        // the *delivery* point (never skip a number we might still fill
        // in), and the history buffer's lowest retained entry (a number
        // below it may be a real delivered message the size bound
        // evicted — absence proves nothing there, so the requester keeps
        // retrying instead of silently diverging).
        if !self.is_sequencer() || self.in_resync() {
            return;
        }
        let floor = self.history.lowest_seq();
        if floor == 0 {
            return;
        }
        let mut seq = from.max(floor);
        while seq <= to && seq < self.next_deliver {
            if present.contains(&seq) {
                seq += 1;
                continue;
            }
            let run_start = seq;
            while seq <= to && seq < self.next_deliver && !present.contains(&seq) {
                seq += 1;
            }
            let msg = GroupMsg::Skip {
                from: run_start,
                to: seq - 1,
            };
            let _ = self.handle.send(requester, ports::GROUP, msg.to_bytes());
        }
    }

    /// Sequencer duty after an election: fold a replayed assignment of a
    /// previous era into our own sequencer state (history for
    /// retransmissions, id map for request deduplication, numbering past
    /// everything adopted).
    fn adopt_sequenced(&mut self, global_seq: u64, id: MsgId, payload: &[u8]) {
        if let std::collections::hash_map::Entry::Vacant(vacant) = self.sequenced_ids.entry(id) {
            vacant.insert(global_seq);
            self.history.insert(
                global_seq,
                HistoryEntry {
                    id,
                    payload: payload.to_vec(),
                },
            );
        }
        if global_seq >= self.next_global_seq {
            self.next_global_seq = global_seq + 1;
        }
    }

    fn receive_sequenced(&mut self, global_seq: u64, id: MsgId, payload: Option<Vec<u8>>) {
        if global_seq > self.known_highest {
            self.known_highest = global_seq;
        }
        if global_seq < self.next_deliver {
            self.stats.duplicates_ignored.inc();
            return;
        }
        // A message this member already delivered, re-sequenced under a new
        // number (its origin retransmitted across a sequencer change-over
        // that this member rode out with the *old* assignment): consume the
        // new number without delivering twice.
        if payload.is_some() && self.delivered_ids.contains(&id) {
            self.stats.duplicates_ignored.inc();
            self.skipped.insert(global_seq);
            self.try_deliver();
            return;
        }
        match self.pending_order.get_mut(&global_seq) {
            Some((_, existing @ None)) => {
                if payload.is_some() {
                    *existing = payload;
                }
            }
            Some(_) => {
                self.stats.duplicates_ignored.inc();
            }
            None => {
                if global_seq > self.next_deliver {
                    self.stats.buffered_out_of_order.inc();
                }
                self.pending_order.insert(global_seq, (id, payload));
            }
        }
        self.try_deliver();
    }

    fn try_deliver(&mut self) {
        loop {
            let ready = matches!(
                self.pending_order.get(&self.next_deliver),
                Some((_, Some(_)))
            );
            if !ready {
                // An abandoned number (sequencer change-over) with no real
                // payload pending is consumed silently.
                if self.skipped.contains(&self.next_deliver) {
                    self.skipped.remove(&self.next_deliver);
                    self.pending_order.remove(&self.next_deliver);
                    self.next_deliver += 1;
                    continue;
                }
                break;
            }
            self.skipped.remove(&self.next_deliver);
            let (id, payload) = self
                .pending_order
                .remove(&self.next_deliver)
                .expect("checked above");
            let payload = payload.expect("checked above");
            if self.delivered_ids.contains(&id) {
                // Already delivered under an earlier number (the message
                // was re-sequenced across a sequencer change-over and the
                // new assignment was buffered before the old one arrived):
                // consume the number silently.
                self.stats.duplicates_ignored.inc();
                self.next_deliver += 1;
                continue;
            }
            // Every member (not just the sequencer) remembers what it
            // delivered, so a newly elected sequencer can replay and serve
            // the failed sequencer's era from its own buffer.
            self.history.insert(
                self.next_deliver,
                HistoryEntry {
                    id,
                    payload: payload.clone(),
                },
            );
            let delivered = Delivered {
                global_seq: self.next_deliver,
                id,
                payload,
            };
            self.delivered_ids.insert(id);
            self.bb_data.remove(&id);
            self.unacked.remove(&id);
            self.stats.delivered.inc();
            self.next_deliver += 1;
            let _ = self.delivery_tx.send(delivered);
        }
        self.gap_since = if self.pending_order.is_empty() && self.known_highest < self.next_deliver
        {
            None
        } else if self.gap_since.is_none() {
            Some(Instant::now())
        } else {
            self.gap_since
        };
    }

    fn check_timers(&mut self) {
        // `ORCA_GROUP_TRACE=1` dumps per-tick member state to stderr — the
        // fastest way to see an election livelock or a stuck resync window
        // when a model-checker trace replays but the cause is not obvious.
        static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if *TRACE.get_or_init(|| std::env::var_os("ORCA_GROUP_TRACE").is_some()) {
            eprintln!(
                "group-trace node={} seq={} next_global={} next_deliver={} unacked={} deferred={} resync={} pending={}",
                self.handle.node().index(),
                self.sequencer.index(),
                self.next_global_seq,
                self.next_deliver,
                self.unacked.len(),
                self.deferred.len(),
                self.in_resync(),
                self.pending_order.len(),
            );
        }
        self.check_sequencer_alive();
        self.probe_predecessor_era();
        self.flush_deferred();
        self.retry_unacked();
        self.repair_gaps();
        self.send_status();
    }

    /// During the post-election resync window, the new sequencer actively
    /// asks every survivor to replay anything it is missing from the failed
    /// sequencer's era (a single handover replay can be lost on a lossy
    /// network). Members answer with history entries and with their own
    /// highest known number, so by the end of the window the new
    /// sequencer's numbering has moved past everything any survivor saw.
    fn probe_predecessor_era(&mut self) {
        if !self.is_sequencer() || !self.in_resync() {
            return;
        }
        if self.known_highest >= self.next_deliver {
            let msg = GroupMsg::RetransmitRequest {
                from: self.next_deliver,
                to: self.known_highest,
            };
            let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
        }
    }

    /// Sequencer duty: once the post-election resync window has passed,
    /// sequence the requests that arrived during it.
    fn flush_deferred(&mut self) {
        if self.in_resync() {
            return;
        }
        self.resync_until = None;
        if self.deferred.is_empty() {
            return;
        }
        if !self.is_sequencer() {
            // Deferred entries only exist on a (former) sequencer; if
            // leadership moved on, the origins retransmit to the new
            // sequencer themselves.
            self.deferred.clear();
            return;
        }
        let deferred = std::mem::take(&mut self.deferred);
        for (id, payload, accept) in deferred {
            if accept {
                self.sequence_accept(id, payload);
            } else {
                self.sequence_data(id, payload);
            }
        }
    }

    /// Sequencer duty: periodically announce the highest assigned sequence
    /// number so members that missed the *last* broadcast (and therefore see
    /// no gap) still learn they are behind.
    fn send_status(&mut self) {
        if !self.is_sequencer() || self.next_global_seq == 1 {
            return;
        }
        let interval = self.config.retransmit_timeout;
        if self.last_status_sent.elapsed() < interval {
            return;
        }
        self.last_status_sent = Instant::now();
        let msg = GroupMsg::Status {
            highest_seq: self.next_global_seq - 1,
        };
        let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
    }

    fn check_sequencer_alive(&mut self) {
        // The transport's fail-stop oracle, consulted every tick and the one
        // trigger of a failover: the simulated kernel exposes crash state
        // directly (a perfect failure detector), the socket backend reports
        // failure-detector verdicts. Fruitless retransmissions alone never
        // depose anyone: failing over on suspicion marks a live node failed
        // in the local membership — which is sticky, so two members that
        // each suspect the other's (live, merely resyncing) sequencer would
        // elect each other in a cycle and livelock the group.
        if self.handle.is_crashed(self.sequencer) {
            self.fail_sequencer();
        }
    }

    fn fail_sequencer(&mut self) {
        self.membership.mark_failed(self.sequencer);
        let Some(new_sequencer) = self.membership.sequencer() else {
            return;
        };
        if new_sequencer == self.sequencer {
            return;
        }
        self.sequencer = new_sequencer;
        self.handle.telemetry().record_traced(
            self.handle.node().0,
            orca_telemetry::FlightKind::Election,
            u64::from(new_sequencer.0),
            self.next_global_seq,
        );
        if self.is_sequencer() {
            if crate::sabotage::skip_era_replay() {
                // Sabotaged failover (model-checker self-test): resume from
                // this member's own delivery point with no history dedup
                // and no resync window — the dead sequencer's unseen
                // assignments are reused and retries re-sequenced.
                if self.next_deliver > self.next_global_seq {
                    self.next_global_seq = self.next_deliver;
                }
                let msg = GroupMsg::NewSequencer {
                    sequencer: self.sequencer,
                    next_seq: self.next_global_seq,
                };
                let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
                return;
            }
            // Resume numbering after everything this member has seen:
            // delivered history, the reorder buffer, and any number known
            // to exist from status traffic.
            let highest_buffered = self
                .pending_order
                .keys()
                .next_back()
                .copied()
                .unwrap_or(self.next_deliver.saturating_sub(1));
            let resume = highest_buffered
                .max(self.next_deliver.saturating_sub(1))
                .max(self.history.highest_seq())
                .max(self.known_highest)
                + 1;
            if resume > self.next_global_seq {
                self.next_global_seq = resume;
            }
            // The new sequencer serves retransmissions for the old era
            // from its delivery history; requests it merely delivered must
            // dedup like requests it sequenced.
            for (global_seq, entry) in self.history.range(1, self.history.highest_seq()) {
                self.sequenced_ids.entry(entry.id).or_insert(global_seq);
            }
            // Announce, then hold off assigning fresh numbers for two
            // retransmission intervals so survivors can replay assignments
            // of the failed sequencer we never saw (they arrive as SeqData
            // and are adopted, advancing next_global_seq past them; the
            // resync probe re-asks every tick in case a replay is lost).
            self.resync_until = Some(Instant::now() + self.config.retransmit_timeout * 2);
            let msg = GroupMsg::NewSequencer {
                sequencer: self.sequencer,
                next_seq: self.next_global_seq,
            };
            let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
        }
    }

    fn retry_unacked(&mut self) {
        let now = Instant::now();
        let timeout = self.config.retransmit_timeout;
        let due: Vec<MsgId> = self
            .unacked
            .iter()
            .filter(|(_, pending)| now.duration_since(pending.last_sent) >= timeout)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let (payload, method) = {
                let pending = self.unacked.get_mut(&id).expect("due id present");
                pending.last_sent = now;
                (pending.payload.clone(), pending.method)
            };
            self.stats.send_retries.inc();
            self.transmit(id, &payload, method);
        }
    }

    fn repair_gaps(&mut self) {
        let Some(since) = self.gap_since else { return };
        if since.elapsed() < self.config.retransmit_timeout {
            return;
        }
        let highest_buffered = self.pending_order.keys().next_back().copied().unwrap_or(0);
        let highest = highest_buffered.max(self.known_highest);
        if highest < self.next_deliver {
            self.gap_since = None;
            return;
        }
        if self.is_sequencer() {
            if self.in_resync() {
                // Survivors may still be replaying the failed sequencer's
                // assignments (probe_predecessor_era is asking for them);
                // treat nothing as abandoned yet.
                self.gap_since = Some(Instant::now());
                return;
            }
            // We *are* the sequencer: lost copies of our own era are in our
            // history buffer (we store every message we sequence or
            // deliver), so re-inject them locally. Numbers below our
            // assignment point that neither we nor — after a few more
            // survivor probes — anyone else has were abandoned by the
            // failed sequencer: skip them, or delivery would stall.
            let missing = self.history.range(self.next_deliver, highest);
            let present: BTreeSet<u64> = missing.iter().map(|(seq, _)| *seq).collect();
            for (global_seq, entry) in missing {
                self.receive_sequenced(global_seq, entry.id, Some(entry.payload));
            }
            let ceiling = highest.min(self.next_global_seq.saturating_sub(1));
            let holes: Vec<u64> = (self.next_deliver..=ceiling)
                .filter(|seq| {
                    let has_payload = matches!(self.pending_order.get(seq), Some((_, Some(_))));
                    !present.contains(seq) && !has_payload
                })
                .collect();
            if holes.is_empty() {
                self.hole_rounds = 0;
            } else if self.hole_rounds < HOLE_PROBE_ROUNDS {
                self.hole_rounds += 1;
                let msg = GroupMsg::RetransmitRequest {
                    from: self.next_deliver,
                    to: ceiling,
                };
                let _ = self.handle.broadcast(ports::GROUP, msg.to_bytes());
            } else {
                self.hole_rounds = 0;
                for seq in holes {
                    self.skipped.insert(seq);
                }
            }
            self.try_deliver();
            self.gap_since = Some(Instant::now());
            return;
        }
        // Ask for everything from the next expected number up to the highest
        // number known to exist; the sequencer ignores numbers it no longer
        // has.
        self.stats.retransmit_requests.inc();
        let msg = GroupMsg::RetransmitRequest {
            from: self.next_deliver,
            to: highest,
        };
        let _ = self
            .handle
            .send(self.sequencer, ports::GROUP, msg.to_bytes());
        self.gap_since = Some(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::network::{Network, NetworkConfig};
    use orca_amoeba::{FaultConfig, HeldDescriptor, SchedulerConfig};

    fn start_members(net: &Network, config: &GroupConfig) -> Vec<GroupMember> {
        net.node_ids()
            .into_iter()
            .map(|n| GroupMember::start(net.handle(n), config.clone()))
            .collect()
    }

    fn collect(member: &GroupMember, count: usize, per_msg: Duration) -> Vec<Delivered> {
        (0..count)
            .map(|_| {
                member
                    .recv_timeout(per_msg)
                    .expect("delivery within timeout")
            })
            .collect()
    }

    #[test]
    fn single_broadcast_reaches_all_members_in_order() {
        let net = Network::reliable(4);
        let members = start_members(&net, &GroupConfig::default());
        members[2].broadcast(b"hello".to_vec()).unwrap();
        for member in &members {
            let delivered = member.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(delivered.global_seq, 1);
            assert_eq!(delivered.payload, b"hello");
            assert_eq!(delivered.id.origin, NodeId(2));
        }
    }

    #[test]
    fn concurrent_broadcasts_identical_total_order() {
        let net = Network::reliable(5);
        let members = start_members(&net, &GroupConfig::default());
        let per_member = 20usize;
        for (i, member) in members.iter().enumerate() {
            for k in 0..per_member {
                member.broadcast(format!("{i}:{k}").into_bytes()).unwrap();
            }
        }
        let total = per_member * members.len();
        let orders: Vec<Vec<(u64, MsgId)>> = members
            .iter()
            .map(|m| {
                collect(m, total, Duration::from_secs(5))
                    .into_iter()
                    .map(|d| (d.global_seq, d.id))
                    .collect()
            })
            .collect();
        for order in &orders[1..] {
            assert_eq!(order, &orders[0]);
        }
        // Sequence numbers are gapless 1..=total.
        let seqs: Vec<u64> = orders[0].iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (1..=total as u64).collect::<Vec<_>>());
    }

    #[test]
    fn large_messages_use_bb_and_small_use_pb_under_auto() {
        let net = Network::reliable(3);
        let members = start_members(&net, &GroupConfig::default());
        members[1].broadcast(vec![1u8; 10]).unwrap();
        members[1].broadcast(vec![2u8; 50_000]).unwrap();
        for member in &members {
            let _ = collect(member, 2, Duration::from_secs(2));
        }
        let stats = members[1].stats();
        assert_eq!(stats.pb_sent, 1);
        assert_eq!(stats.bb_sent, 1);
        let counters = net.telemetry().registry().snapshot().counters;
        assert_eq!(counters["group.node1.pb_sent"], stats.pb_sent);
        assert_eq!(counters["group.node1.bb_sent"], stats.bb_sent);
    }

    #[test]
    fn bb_data_overtaken_by_its_accept_is_delivered_on_arrival() {
        let net = Network::reliable(2);
        let members = start_members(&net, &GroupConfig::always_bb());
        net.set_scheduler(Some(SchedulerConfig::default_for_mc()));
        members[1].broadcast(vec![7; 2000]).unwrap();
        // Hold node 1's copy of its own data; release everything else until
        // the sequencer (node 0) has delivered, so its accept reaches node 1
        // first. A resent copy would be held too: only the data can deliver.
        let own_data = |held: &HeldDescriptor| {
            held.id.src == NodeId(1) && held.id.dst == NodeId(1) && held.len >= 2000
        };
        let release_others = || {
            for held in net.sched_pending().iter().filter(|held| !own_data(held)) {
                net.sched_release(held.id);
            }
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while members[0].try_recv().is_none() {
            assert!(Instant::now() < deadline, "the sequencer never delivered");
            release_others();
            std::thread::yield_now();
        }
        release_others();
        let data = net.sched_pending().into_iter().find(own_data).unwrap();
        assert!(net.sched_release(data.id));
        let delivered = members[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.payload, vec![7; 2000]);
        net.set_scheduler(None);
    }

    #[test]
    fn lossy_network_still_delivers_everything_in_order() {
        let fault = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            reorder_prob: 0.05,
            seed: 7,
        };
        let net = Network::new(NetworkConfig::with_fault(4, fault));
        let config = GroupConfig {
            retransmit_timeout: Duration::from_millis(40),
            ..GroupConfig::default()
        };
        let members = start_members(&net, &config);
        let per_member = 15usize;
        for (i, member) in members.iter().enumerate() {
            for k in 0..per_member {
                member.broadcast(vec![i as u8, k as u8]).unwrap();
            }
        }
        let total = per_member * members.len();
        let orders: Vec<Vec<MsgId>> = members
            .iter()
            .map(|m| {
                collect(m, total, Duration::from_secs(20))
                    .into_iter()
                    .map(|d| d.id)
                    .collect()
            })
            .collect();
        for order in &orders[1..] {
            assert_eq!(order, &orders[0]);
        }
    }

    #[test]
    fn sequencer_crash_elects_new_sequencer_and_traffic_continues() {
        let net = Network::reliable(3);
        let config = GroupConfig {
            retransmit_timeout: Duration::from_millis(30),
            ..GroupConfig::default()
        };
        let members = start_members(&net, &config);
        // Quiesce: one message through the original sequencer first.
        members[1].broadcast(b"before".to_vec()).unwrap();
        for member in &members {
            let _ = member.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        // Kill the sequencer (node 0) and keep broadcasting from node 2.
        net.crash(NodeId(0));
        members[2].broadcast(b"after".to_vec()).unwrap();
        for member in &members[1..] {
            let delivered = member.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(delivered.payload, b"after");
            assert_eq!(delivered.global_seq, 2);
        }
    }

    #[test]
    fn forced_pb_and_bb_policies_are_respected() {
        for (config, expect_pb) in [
            (GroupConfig::always_pb(), true),
            (GroupConfig::always_bb(), false),
        ] {
            let net = Network::reliable(2);
            let members = start_members(&net, &config);
            members[1].broadcast(vec![0u8; 20_000]).unwrap();
            members[1].broadcast(vec![0u8; 8]).unwrap();
            for member in &members {
                let _ = collect(member, 2, Duration::from_secs(2));
            }
            let stats = members[1].stats();
            if expect_pb {
                assert_eq!(stats.pb_sent, 2);
                assert_eq!(stats.bb_sent, 0);
            } else {
                assert_eq!(stats.pb_sent, 0);
                assert_eq!(stats.bb_sent, 2);
            }
        }
    }
}
