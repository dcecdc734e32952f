//! The two-phase update protocol (the replicated regime's update policy):
//! the fan-out the authoritative copy runs ([`two_phase`]) and the state
//! machine of every other copy ([`HeldCopy`]) — the read mirrors of a
//! replicated object or of a sharded partition, and the mirror nobody reads
//! a sharded partition keeps for its promotion.
//!
//! A write that executed at the authoritative copy reaches every other
//! copy in two phases (§3.2.2 of the paper): phase 1 ships the operation
//! and each holder applies it and *locks* its copy; phase 2 unlocks. Reads
//! wait on a locked copy, so nobody observes the new value while another
//! copy could still serve the old one.
//!
//! The **last** holder a write is pushed to has nothing left to wait for,
//! and is never locked. The authority serializes writes under its replica
//! mutex and sends a write's unlocks before it applies the next, so when
//! the last holder applies version `v` every other copy is blocked — the
//! authority's (mutex held until the acknowledgement), a writing holder's
//! (its pending mark), every earlier holder's (locked) — and whatever the
//! last one serves from then on is the newest value any reader can have
//! seen. With one other holder, the common placement, there is no phase 2
//! at all.
//!
//! Phase 1 is an acknowledged RPC — the write may only complete once every
//! copy has the operation — and carries the holder's renewed lease: the
//! message that makes a copy current renews it. Phase 2 is a one-way
//! notification ([`orca_amoeba::rpc::rpc_notify`]): nothing the writer
//! waits for depends on *when* a holder unlocks, only on the unlock being
//! on its way after every phase-1 acknowledgement is in. A notification can
//! be handled after the next write's phase 1, so it names the version it
//! unlocks and the holder ignores it when its copy has moved past that.
//!
//! The writer itself is never in the fan-out when it holds a copy: it marks
//! its copy pending before sending ([`HeldCopy::mark_pending`]) and brings
//! it up to date from the acknowledgement of its own write
//! ([`HeldCopy::finish_write_through`]), so a write costs `2 + 3k − 1`
//! messages with `k ≥ 1` other holders — request and reply, a push and its
//! acknowledgement each, an unlock for all but the last — and 2 with none.
//!
//! Copies apply updates strictly in version order. An update — pushed, or a
//! writer's own acknowledged one — that arrives *ahead* waits, bounded, for
//! its predecessor as long as a write-through of this node is in flight
//! (its acknowledgement carries the missing version); otherwise a gap drops
//! the copy, which re-syncs on the next access.

use std::time::{Duration, Instant};

use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::ports;
use orca_amoeba::rpc::rpc_notify;
use orca_amoeba::NodeId;
use orca_object::AnyReplica;
use orca_telemetry::Counter;
use orca_wire::{DedupWindow, OpStamp};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::sabotage::{on, NO_VERSION_GATING, SKIP_WRITER_PENDING_MARK, UNHELD_EVERY_PUSH};

orca_telemetry::counter_set! {
    /// Where a write's messages went, `rts.update.<field>` in the registry.
    pub(crate) struct UpdateStats => UpdateStatsSnapshot {
        /// Acknowledged phase-1 pushes sent to other copy holders.
        pushes,
        /// One-way phase-2 unlock notifications sent.
        unlock_notifies,
        /// Own writes this node installed into its copy from the write's
        /// acknowledgement (the push and unlock that did not have to be sent).
        reply_installs,
    }
}

/// Run both phases for one already-applied write against `holders` (which
/// excludes a writer that writes through its own copy), the unlocks sent
/// from `handle` to the adaptive engine's port, and return the holders that
/// could not be reached, whose leases the caller must settle before the
/// write completes.
///
/// `push` performs one holder's acknowledged phase-1 RPC — `held` says
/// whether the holder is to lock its copy: all but the last are — with the
/// caller's deadline rules, books whatever lease it renews *now*, at send
/// time (the holder counts the lease from receipt, so booking before sending
/// can only make the grantor's record outlast the holder's), and says
/// whether the holder acknowledged. `unlock` is the phase-2 message, the
/// same for every holder that was locked.
pub(crate) fn two_phase(
    handle: &NetworkHandle,
    stats: &UpdateStats,
    holders: &[NodeId],
    mut push: impl FnMut(NodeId, bool) -> bool,
    unlock: &[u8],
) -> Vec<NodeId> {
    let mut failed: Vec<NodeId> = Vec::new();
    let held = holders.len().saturating_sub(1);
    for (at, holder) in holders.iter().enumerate() {
        stats.pushes.inc();
        if !push(*holder, at < held && !on(&UNHELD_EVERY_PUSH)) {
            failed.push(*holder);
        }
    }
    for holder in &holders[..held] {
        if failed.contains(holder) {
            continue;
        }
        stats.unlock_notifies.inc();
        if rpc_notify(handle, *holder, ports::RTS_ADAPTIVE, unlock).is_err() {
            // The holder applied the update but the unlock never left; the
            // grant booked for it must not outlive this write unsettled.
            failed.push(*holder);
        }
    }
    failed
}

/// Holder-side record of the read lease covering a copy: a reader's mirror
/// serves reads locally only while it is valid, and a lapsed one is renewed
/// at the owner, which ships the state along only if the copy fell behind.
pub(crate) struct MirrorLease {
    /// Membership epoch of this node's failure detector at receipt; a
    /// view change invalidates the lease regardless of the clock.
    pub(crate) detector_epoch: u64,
    /// Expiry on the holder's clock (`valid_ms` from receipt).
    pub(crate) expires: Instant,
}

/// One node's copy of an object as the update protocol sees it: a mirror of
/// a replicated-regime object or of a sharded partition, read or kept for a
/// promotion.
#[derive(Default)]
pub(crate) struct CopyState {
    /// Valid local copy, if any.
    pub(crate) copy: Option<Box<dyn AnyReplica>>,
    /// Regime epoch the copy belongs to. Versions restart with each epoch,
    /// and messages of another epoch never touch the copy.
    pub(crate) epoch: u64,
    /// Version of `copy`: the authoritative replica's version the state
    /// corresponds to. Updates apply strictly in version order, so a copy
    /// of version `v` provably contains every write up to `v` — the
    /// property crash recovery's freshest-copy promotion relies on.
    pub(crate) version: u64,
    /// Highest update version *observed* in this epoch, applied or not. A
    /// fetched snapshot older than this raced a concurrent update past it
    /// and is discarded instead of installed.
    pub(crate) seen: u64,
    /// True between phase 1 (a held update applied) and phase 2 (unlock);
    /// local reads wait while this is set.
    pub(crate) locked: bool,
    /// Writes of this node currently being written *through* `copy`: sent
    /// to the authoritative copy, not yet installed here from its
    /// acknowledgement. Local reads wait while any is in flight, exactly as
    /// on `locked` — this node was left out of the fan-out, so the mark is
    /// all that keeps the copy from serving the old value once other copies
    /// show the new one. Counts marks, not copies: it survives the copy
    /// being dropped and re-fetched under an in-flight write.
    pub(crate) pending_writes: u32,
    /// Dedup window mirroring the authoritative one, kept exactly as fresh
    /// as `copy` by the stamped piggyback on updates — what lets a promoted
    /// copy answer retries of writes the dead authority already applied.
    pub(crate) dedup: DedupWindow,
    /// Read lease over `copy`, when leases are enabled; goes with the copy.
    pub(crate) lease: Option<MirrorLease>,
}

impl CopyState {
    /// Local reads must wait: an update's unlock is outstanding, or a write
    /// of this node is being written through the copy.
    pub(crate) fn reads_blocked(&self) -> bool {
        self.locked || (self.pending_writes > 0 && !on(&SKIP_WRITER_PENDING_MARK))
    }

    /// Give up the copy (it can no longer be kept current) and what went
    /// with it; true when there was one. The next access re-syncs.
    pub(crate) fn discard(&mut self) -> bool {
        self.locked = false;
        self.lease = None;
        self.dedup = DedupWindow::new();
        self.copy.take().is_some()
    }

    /// Move on to regime `epoch` if it is newer than the copy's: whatever
    /// the retired regime left here is gone and versions start over.
    pub(crate) fn enter_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.discard();
            self.epoch = epoch;
            self.version = 0;
            self.seen = 0;
        }
    }

    /// Install a snapshot of the current epoch as the copy, unless an update
    /// overtook it in flight (`seen` is past it): holding on to the older
    /// state would serve stale reads and could be promoted by recovery.
    /// False — and nothing changed — in that case. The gate is for copies
    /// that are fetched while updates are pushed. An `unraced` snapshot —
    /// the authority's own prime, which no write overtakes — is its word for
    /// the copy as of `version` whatever this holder remembers of the
    /// epoch's versions: an install since undone started them over.
    pub(crate) fn install_snapshot(
        &mut self,
        replica: Box<dyn AnyReplica>,
        version: u64,
        dedup: DedupWindow,
        lease: Option<MirrorLease>,
        unraced: bool,
    ) -> bool {
        if !unraced && self.seen > version && !on(&NO_VERSION_GATING) {
            return false;
        }
        self.copy = Some(replica);
        self.version = version;
        self.seen = if unraced {
            version
        } else {
            self.seen.max(version)
        };
        self.locked = false;
        self.dedup = dedup;
        self.lease = lease;
        true
    }

    /// Apply the run `ops` — pushed by the authority, or this node's own
    /// acknowledged write — whose first operation left the authoritative
    /// replica at `first_version`; lock the copy if the run is `held`,
    /// record the stamped reply and install the renewed `lease` riding it.
    /// Exactly the unseen suffix is applied: a prefix up to the copy's
    /// version is a duplicate (the copy was re-fetched meanwhile, from a
    /// snapshot that contains it), and a run that is all duplicate changes
    /// nothing — the lock least of all: it may be a later update's by now.
    /// A gap, or an operation the copy cannot apply, drops the copy rather
    /// than let it diverge. Returns how many operations were applied.
    ///
    /// A run that is not held *clears* a lock: the authority serializes
    /// writes and sent the previous one's unlocks before it applied this
    /// one, so a lock still standing is one whose unlock is in flight, and
    /// will be ignored as stale when it arrives.
    fn apply_run(
        &mut self,
        first_version: u64,
        held: bool,
        ops: &[impl AsRef<[u8]>],
        stamped: Option<(OpStamp, Vec<u8>)>,
        lease: Option<MirrorLease>,
    ) -> usize {
        let last_version = first_version + ops.len() as u64 - 1;
        self.seen = self.seen.max(last_version);
        if self.copy.is_none() || last_version <= self.version {
            return 0;
        }
        if first_version > self.version + 1 && !on(&NO_VERSION_GATING) {
            self.discard();
            return 0;
        }
        let unseen = (self.version + 1).saturating_sub(first_version) as usize;
        let copy = self.copy.as_mut().expect("checked above");
        let mut apply = |op: &_| copy.apply_encoded(AsRef::as_ref(op)).is_ok();
        let applied = ops[unseen..].iter().take_while(|op| apply(op)).count();
        if unseen + applied < ops.len() {
            self.discard();
            return applied;
        }
        self.version = last_version;
        self.locked = held;
        if let Some((stamp, reply)) = stamped {
            self.dedup.record(stamp, reply);
        }
        // A lease is installed only over a live copy.
        if lease.is_some() {
            self.lease = lease;
        }
        applied
    }
}

/// How the authoritative copy answered a write shipped through this node's
/// copy, reduced to what the copy must do about it.
pub(crate) enum WriteAck {
    /// Applied at `version`, every other copy has it: apply the operation
    /// bytes still in hand, record the stamped reply, install the lease.
    Installed {
        version: u64,
        stamped: Option<(OpStamp, Vec<u8>)>,
        lease: Option<MirrorLease>,
    },
    /// Nothing was applied (false guard, retired regime): the copy is as
    /// current as it was.
    NotApplied,
    /// The write may have been applied without this copy being kept
    /// current — a plain reply (this node is not listed as a holder, or a
    /// retry was answered from the dedup window, without a version), or,
    /// without re-homing, an error or a timeout: the copy is dropped.
    Unsynced,
    /// The write failed without an answer and re-homing is on — the
    /// authority may have died under it: the copy is left *locked*, the rule
    /// for a copy caught mid-push. It holds every acknowledged write and may
    /// be the slot's keeper, which a write through it leaves out of the
    /// push: recovery may promote it, or the live authority's next update
    /// resolves the lock.
    AuthorityLost,
}

/// A [`CopyState`] with the condition variable its waiters park on.
#[derive(Default)]
pub(crate) struct HeldCopy {
    pub(crate) state: Mutex<CopyState>,
    /// Signalled whenever `state` changes in a way a waiter may care about:
    /// unlock, install, copy dropped, pending mark cleared.
    pub(crate) unlocked: Condvar,
}

impl HeldCopy {
    /// Mark the copy pending for a write about to be shipped through it;
    /// false when there is no installed copy of `epoch` to write through.
    /// Every mark is cleared by one [`HeldCopy::finish_write_through`].
    pub(crate) fn mark_pending(&self, epoch: u64) -> bool {
        let mut state = self.state.lock();
        if state.epoch != epoch || state.copy.is_none() {
            return false;
        }
        state.pending_writes += 1;
        true
    }

    /// The version gate's bounded wait: an update for `version` that finds
    /// the copy more than one version behind waits for the predecessors to
    /// be installed instead of declaring a gap — as long as they can still
    /// come, i.e. the copy is there and a write-through of this node other
    /// than the caller's own `own_marks` is in flight (its acknowledgement
    /// carries the missing version; pushed predecessors were acknowledged
    /// before the authority moved on, so they are never what is missing).
    fn await_predecessor(
        &self,
        state: &mut MutexGuard<'_, CopyState>,
        epoch: u64,
        version: u64,
        own_marks: u32,
        budget: Duration,
    ) {
        let behind = |state: &CopyState| {
            let coming = state.epoch == epoch && state.copy.is_some();
            coming && version > state.version + 1 && state.pending_writes > own_marks
        };
        crate::await_change(&self.unlocked, state, Some(Instant::now() + budget), behind);
    }

    /// Phase 1 at a holder: apply the pushed run `ops`
    /// ([`CopyState::apply_run`]), once its predecessor is in, and return how
    /// many operations that took — or `None` when the copy does not hold the
    /// run's last version afterwards: there is none, it is of another epoch,
    /// the run left a gap. (A reader fetches at its next read; a holder
    /// nobody reads is primed again by the authority it tells.) An update
    /// that beats the snapshot install still raises `seen`, so the older
    /// snapshot is not installed as current.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply_pushed(
        &self,
        epoch: u64,
        first_version: u64,
        held: bool,
        ops: &[Vec<u8>],
        stamped: Option<(OpStamp, Vec<u8>)>,
        lease: Option<MirrorLease>,
        budget: Duration,
    ) -> Option<usize> {
        let mut state = self.state.lock();
        if ops.is_empty() || epoch < state.epoch {
            return None;
        }
        state.enter_epoch(epoch);
        let last_version = first_version + ops.len() as u64 - 1;
        state.seen = state.seen.max(last_version);
        self.await_predecessor(&mut state, epoch, first_version, 0, budget);
        // The copy may have moved on to a newer regime during the wait.
        let applied = if state.epoch == epoch {
            state.apply_run(first_version, held, ops, stamped, lease)
        } else {
            0
        };
        // A write-through acknowledgement may be waiting for this install,
        // a reader for the new value.
        self.unlocked.notify_all();
        let current = state.epoch == epoch && state.copy.is_some() && state.version >= last_version;
        current.then_some(applied)
    }

    /// Phase 2 at a holder: release the lock of the update that left the
    /// copy at `version`. The notification is one-way, so it may be handled
    /// after a later update locked the copy again; that update's own unlock
    /// is still to come, so a stale unlock is ignored.
    pub(crate) fn unlock(&self, epoch: u64, version: u64) {
        let mut state = self.state.lock();
        if state.epoch == epoch && version >= state.version {
            state.locked = false;
        }
        self.unlocked.notify_all();
    }

    /// Close one write-through attempt for operation `op`, shipped under
    /// `epoch`: act on the acknowledgement as [`WriteAck`] describes, then
    /// clear the attempt's pending mark — only then, so the mark covers the
    /// predecessor wait inside the install and no reader slips in on the
    /// old value; an install counts in `installs`. Leaves the copy either
    /// current or not serving reads; true when it had to be dropped.
    pub(crate) fn finish_write_through(
        &self,
        installs: &Counter,
        epoch: u64,
        op: &[u8],
        ack: WriteAck,
        budget: Duration,
    ) -> bool {
        let mut state = self.state.lock();
        let dropped = match ack {
            WriteAck::Installed {
                version,
                stamped,
                lease,
            } => {
                // An acknowledgement that is ahead belongs to the later of
                // two writers on this node; the earlier one's install is on
                // its way.
                self.await_predecessor(&mut state, epoch, version, 1, budget);
                // Under the same strict gate as a pushed update, and never
                // held: this write is acknowledged only after every other
                // copy has it.
                if state.epoch != epoch {
                    false
                } else {
                    let had = state.copy.is_some();
                    if state.apply_run(version, false, &[op], stamped, lease) > 0 {
                        installs.inc();
                    }
                    had && state.copy.is_none()
                }
            }
            WriteAck::NotApplied => false,
            WriteAck::Unsynced => state.epoch == epoch && state.discard(),
            WriteAck::AuthorityLost => {
                if state.epoch == epoch {
                    state.locked = state.copy.is_some();
                }
                false
            }
        };
        state.pending_writes -= 1;
        self.unlocked.notify_all();
        dropped
    }
}
