//! The adaptive runtime system: per-object synchronization regimes chosen
//! — and changed — at runtime from each object's observed access mix.
//!
//! The paper's point-to-point RTS already adapts *within* one regime (it
//! fetches and drops secondary copies from each node's read/write ratio,
//! §3.2.2), but which runtime system serves an application is a static,
//! process-wide choice: a read-dominated table and a write-hot job queue in
//! the same run are stuck with the same machinery. This runtime system —
//! the one engine behind every point-to-point backend — makes the regime a
//! *per-object, dynamic* property:
//!
//! * **Replicated** — one authoritative copy at the object's *owner*, a
//!   node that writes it, plus a read mirror on every other node that reads
//!   it; the table names both. Writes execute at the owner, which pushes
//!   sequence-numbered updates to its mirrors (two-phase lock/unlock — the
//!   paper's update protocol, in the `update` module) or, under
//!   [`WritePolicy::Invalidate`], has them discard their copies, to be
//!   fetched again at the next read; a writer that holds a mirror writes
//!   *through* it and is left out of either. Reads are local at the owner
//!   and at a mirror; a node the table lists neither for ships them to the
//!   owner. For read-dominated objects.
//! * **Primary** — a single copy at the home node, all remote operations
//!   shipped by RPC. For mixed or low-traffic objects (and the regime
//!   every object starts in).
//! * **Sharded** — the object is split with its type's partitioning logic
//!   ([`orca_object::shard`]) into hash-partitioned slices spread over the
//!   nodes that use it, operations shipped point-to-point to partition
//!   owners. For write-hot shardable objects.
//!
//! With the regime *pinned* ([`AdaptivePolicy::pin`]) every object is
//! created in that regime and stays there. Pinned to sharded
//! ([`AdaptivePolicy::sharded`]) this runtime system is the `sharded`
//! backend: an object's partitions are spread over all nodes, which is
//! where the placement rule puts an object nobody has used yet; a type
//! without partitioning logic is one partition at its creator. Nothing
//! below about counting, reporting and evaluating applies then, and
//! nothing depends on the wall clock. Pinned to replicated
//! ([`AdaptivePolicy::primary_copy`]) it is the `primary` backend, the
//! paper's point-to-point runtime system: one authoritative copy — created
//! at the creator, without mirrors — and a *dynamic* set of secondary
//! copies. Usage is counted, reported and evaluated as below, for where the
//! object lives alone: the copy moves to a node that writes it, mirrors
//! come and go where it is read.
//!
//! ## Who decides, and how nodes agree
//!
//! Every node counts its own reads/writes per object and reports them to
//! the object's home node every [`AdaptivePolicy::report_every`] accesses,
//! one-way: no invocation waits for the home. The home folds the reports
//! into a *decayed* per-node aggregate ([`crate::AccessStats::decay_halve`]
//! — stale bursts lose half their weight per evaluation window, so they
//! cannot pin a regime) and re-evaluates the regime every
//! [`AdaptivePolicy::evaluate_every`] reported accesses. The home's [`RegimeTable`] is authoritative; other
//! nodes cache it and carry its epoch in every shipped operation — a server
//! that sees an outdated epoch answers `StaleRegime` and the client
//! re-fetches. That check is the whole invalidation where every operation
//! is answered by an owner; only a replicated-regime table, whose reads ask
//! nobody, also expires ([`AdaptivePolicy::regime_lease`]).
//!
//! The per-node counts also decide *where* an object lives (the rules are
//! in the `policy` module): a sharded-regime object's partitions are spread
//! over the nodes that use it; a replicated-regime object's copy sits on a
//! node that writes it — it moves only when its owner stops writing — and
//! its mirrors on the nodes that read it. When those change the object is
//! re-placed by a switch to the same regime.
//!
//! ## The switch protocol (drain → merge → install → publish)
//!
//! A withdrawn mark on every retiring replica makes sure no write is lost
//! or double-applied across the change:
//!
//! 1. **Drain.** The home withdraws every authoritative replica of the old
//!    regime (its own directly, remote owners' via [`RegimeMsg::Drain`]).
//!    Withdrawal marks the slot under its replica mutex and removes it: an
//!    in-flight operation that already cloned the slot acquires the mutex,
//!    sees the mark, and is answered `StaleRegime` instead of being applied
//!    to (and acknowledged against) an orphaned replica — the caller
//!    retries under the new regime. The owner of a retiring replicated
//!    regime drops its mirrors ([`RegimeMsg::DropMirror`]) and settles the
//!    leases it granted them before it hands the state over, so no node
//!    keeps serving pre-switch reads; the regime lease bounds the staleness
//!    window if a drop notification is lost to a crash.
//! 2. **Merge.** Partition states of a retiring sharded regime are
//!    recombined with the type's [`orca_object::ShardLogic::merge_states`].
//! 3. **Install.** The new regime's replicas are installed under
//!    `epoch + 1` ([`RegimeMsg::Install`]); the node that installs a
//!    replicated regime's copy primes the mirrors the table lists
//!    ([`RegimeMsg::Mirror`]) and is their lease grantor from then on. If
//!    a remote install fails (crashed node), a switch into a regime falls
//!    back to a primary-regime copy at home under a further epoch — the merged
//!    state is in hand, so the fallback cannot fail and no state is lost —
//!    and a re-placement goes back to the owners and epoch it had.
//! 4. **Publish.** The home's table gets the new epoch; stale caches
//!    recover through `StaleRegime` replies or lease expiry.
//!
//! Multi-partition (`All`-routed) operations are forwarded to the home and
//! executed under its switch lock ([`RegimeMsg::OpAll`]), so a switch can
//! never interleave with the per-partition shares of a non-idempotent
//! batch (which a client-side retry would re-apply).
//!
//! ## Surviving a node's death
//!
//! With recovery enabled ([`RecoveryConfig`]) a sharded-regime slot — and
//! no other — is backed up: its owner ships every completed write (a
//! batch's run of them as one message) to the next live node *before*
//! acknowledging it, and the full state whenever the slot is installed or
//! the backup lost sync. When an owner dies the home asks every survivor
//! once what it holds of the object ([`RegimeMsg::Holdings`]) and promotes,
//! per orphaned partition, the backup of the table's epoch with the highest
//! version; the partitions keep their epoch, and clients learn of the new
//! owner because they distrust a cached table that names a dead one. A
//! replicated regime's copy has its mirrors for backups — with re-homing
//! on, a copy that would have none and has left its home keeps one there:
//! when its owner dies the home regenerates it from the freshest one, as a
//! single copy of its own under the next epoch (primary-regime, or, where
//! that regime is pinned, replicated and without mirrors until the next
//! evaluation). When the *home* dies the lowest live node
//! adopts the object on first contact with the same steps: the newest epoch
//! any survivor holds a part of is the object's, every partition of it must
//! have a slot or a backup (how many there are follows from the policy
//! every node runs), a replicated-regime copy whose owner survives keeps
//! serving under the epoch it has, and one that died with the home is
//! regenerated from its freshest read mirror. What leaves none of these — a
//! primary-regime copy, a partition whose owner and backup both died — is
//! lost, explicitly ([`RtsError::ObjectLost`]).
//!
//! ## Residual windows
//!
//! Update pushes to mirrors and mirror drops are best-effort under node
//! crashes: a mirror that misses an update detects the sequence gap on the
//! next update and re-syncs from the owner, and the regime lease bounds how
//! long a node can act on a retired table. On a live network both paths are
//! reliable.

pub(crate) mod messages;
mod policy;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::ports;
use orca_amoeba::rpc::{rpc_notify, RpcServer};
use orca_amoeba::NodeId;
use orca_group::FailureDetector;
use orca_object::ShardRoute;
use orca_object::{AnyReplica, AppliedOutcome, ObjectError, ObjectId, ObjectRegistry, OpKind};
use orca_telemetry::{trace, Counter, FlightKind};
use orca_wire::{
    BatchOutcome, DedupWindow, Holdings, LeaseGrant, OpBatchView, OpRef, OpStamp, Wire,
};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::pipeline::{
    pending_pair, resolve_round, BatchPolicy, PendingBatches, Pipeline, QueuedOp, RoundSlot,
};
use crate::recovery::{is_dead, recovery_rpc, RecoveryConfig};
use crate::stats::{RtsStats, RtsStatsSnapshot};
use crate::update::{CopyState, HeldCopy, UpdateChannel, WriteAck};
use crate::{PendingInvocation, RtsError, RtsKind, RuntimeSystem, ViewSnapshot};
use messages::{table_object, RegimeKind, RegimeMsg, RegimeReply, RegimeTable};
use policy::{pick_regime, place, Count, UsageAggregate};

pub use policy::{AdaptivePolicy, WritePolicy};

/// How long a guarded read parks on a mirror before re-validating the
/// regime (protects against missed wake-ups and retired mirrors).
const MIRROR_GUARD_WAIT: Duration = Duration::from_millis(100);

/// How long a mirror read waits for an in-flight two-phase update to
/// unlock before re-checking.
const MIRROR_LOCK_WAIT: Duration = Duration::from_millis(50);

/// One authoritative replica (the single copy under the primary/replicated
/// regimes, or one partition under the sharded regime) held by this node.
struct Slot {
    replica: Mutex<Box<dyn AnyReplica>>,
    /// Epoch of the regime this slot serves; operations stamped with any
    /// other epoch are answered `StaleRegime`.
    epoch: u64,
    /// Set (under the replica mutex) when a regime switch has serialized
    /// this replica's state for transfer. An operation may have cloned the
    /// slot `Arc` before the drain removed it; without this mark it would
    /// apply to the orphaned replica *after* the state snapshot and be
    /// silently lost across the switch.
    withdrawn: AtomicBool,
    /// The regime this slot serves, which is what a completed write owes
    /// before it is acknowledged: under the replicated regime a
    /// sequence-numbered update to every mirror, under the sharded regime —
    /// with recovery enabled — a copy to the partition's backup.
    regime: RegimeKind,
    /// The nodes holding a read mirror of a replicated-regime slot, as the
    /// table of its epoch lists them: primed when the slot was installed,
    /// pushed every write, dropped when it is drained.
    mirrors: Vec<u16>,
    /// Recently applied stamped writes and their replies (exactly-once
    /// across client retries; travels with the state through regime
    /// switches and adoption). Locked strictly after — and only while
    /// holding — the replica mutex.
    dedup: Mutex<DedupWindow>,
    /// What a replicated-regime slot books about its mirrors.
    leases: Mutex<SlotLeases>,
    /// Requests of other nodes parked on the replica mutex
    /// ([`Slot::lock_for`]).
    parked: AtomicU32,
}

impl Slot {
    /// True when a completed write on this slot is paid for with messages
    /// ([`settle_writes`]) — while the replica mutex is held: a push to its
    /// mirrors, a copy to its backup.
    fn fans_out(&self, inner: &Inner) -> bool {
        match self.regime {
            RegimeKind::Replicated => !self.mirrors.is_empty(),
            RegimeKind::Sharded => inner.recovery.enabled,
            RegimeKind::Primary => false,
        }
    }

    /// Lock the replica for a request of `caller`, which counts as parked
    /// while it waits unless it is this node's own.
    fn lock_for(&self, inner: &Inner, caller: NodeId) -> MutexGuard<'_, Box<dyn AnyReplica>> {
        if caller == inner.node {
            return self.replica.lock();
        }
        self.parked.fetch_add(1, Ordering::SeqCst);
        let replica = self.replica.lock();
        self.parked.fetch_sub(1, Ordering::SeqCst);
        replica
    }

    /// Let the requests that parked while this node held the replica
    /// across a fan-out take it before this node's next operation does.
    /// The mutex is not fair: a thread that releases it and comes straight
    /// back beats a waiter that has to be woken first, and a node that
    /// writes its own copy in a loop holds the mutex for all but a
    /// microsecond of every round trip — the other writers would wait for
    /// as long as it goes on. (It also leaves the order of the two to the
    /// requests' arrival, not to the operating system's scheduler, which a
    /// replayed model-checker schedule depends on.) Bounded: a waiter that
    /// is not on its way within a timer tick is not waited for.
    fn yield_to_parked(&self) {
        let patience = Instant::now() + Duration::from_millis(1);
        while self.parked.load(Ordering::SeqCst) > 0 && Instant::now() < patience {
            std::thread::yield_now();
        }
    }
}

/// Telemetry counters of the lease protocol (`rts.lease.*`), cached so the
/// leased read path does not take the registry lock per read.
struct LeaseCounters {
    grants: Counter,
    renewals: Counter,
    revokes: Counter,
    local_reads: Counter,
}

impl LeaseCounters {
    fn from_handle(handle: &NetworkHandle) -> Self {
        let reg = handle.telemetry().registry();
        LeaseCounters {
            grants: reg.counter("rts.lease.grants"),
            renewals: reg.counter("rts.lease.renewals"),
            revokes: reg.counter("rts.lease.revokes"),
            local_reads: reg.counter("rts.lease.local_reads"),
        }
    }
}

/// Grantor-side read-lease state of one authoritative slot.
#[derive(Default)]
struct SlotLeases {
    /// Conservative expiry (on the grantor's clock, twice the holder-side
    /// validity) of the newest lease granted to each mirror node. A write
    /// whose push cannot reach a live mirror waits out that entry before
    /// completing.
    grants: HashMap<u16, Instant>,
    /// Writes may not execute before this instant. Set when this slot was
    /// regenerated from a mirror: the dead owner's outstanding grants are
    /// unknown, so the first write conservatively waits out a full grant
    /// span (reads need no fence — every valid lease covers a mirror that
    /// already contains every acknowledged write).
    fence: Option<Instant>,
    /// Listed mirrors a push got no answer from, though nobody had declared
    /// them dead: reported to the home once ([`RegimeMsg::Unreached`]), and
    /// not told to drop their copy when the re-placement that asks for
    /// drains this slot — they would not answer that either.
    unreached: Vec<u16>,
}

/// A backup of a sharded-regime slot owned elsewhere: the owner ships every
/// completed write here before acknowledging it, so a single owner failure
/// loses no acknowledged write.
struct BackupSlot {
    /// Epoch of the slot this backs up; a backup of any other epoch is
    /// what a drain left behind and is never promoted.
    epoch: u64,
    state: Mutex<BackupState>,
}

struct BackupState {
    replica: Box<dyn AnyReplica>,
    /// Version of the owner's replica this state corresponds to.
    version: u64,
    /// Dedup window, exactly as current as the replica.
    dedup: DedupWindow,
}

/// One node's read mirror of a replicated-regime object: the copy the
/// update protocol keeps current (its version is the sequence number of
/// the last update applied), under this runtime's lease record. Reads
/// serve locally only while the lease is valid; a lapsed lease is renewed
/// at the owner, which ships the state along only if the copy fell behind.
type MirrorState = CopyState<MirrorLease>;

/// A mirror with the condition variable its readers and writers park on.
type Mirror = HeldCopy<MirrorLease>;

/// Holder-side record of the lease covering the local mirror.
struct MirrorLease {
    /// Membership epoch of this node's failure detector at receipt; a
    /// view change invalidates the lease regardless of the clock.
    detector_epoch: u64,
    /// Expiry on the holder's clock (`valid_ms` from receipt).
    expires: Instant,
}

/// Home-node record of one object this node created.
struct HomeObject {
    /// The authoritative regime table, swapped wholesale by regime
    /// switches so the hot path hands out `Arc` clones instead of deep
    /// copies. Held only for reads and short updates — never across an
    /// RPC.
    table: Mutex<Arc<RegimeTable>>,
    /// Serializes regime switches and `All`-routed fan-outs of this
    /// object. Held across the drain/install RPCs.
    switch: Mutex<()>,
    /// Decayed per-node usage aggregate driving regime decisions.
    usage: Mutex<UsageAggregate>,
}

struct Inner {
    node: NodeId,
    num_nodes: usize,
    handle: NetworkHandle,
    registry: ObjectRegistry,
    policy: AdaptivePolicy,
    /// Authoritative replicas this node currently serves.
    slots: RwLock<HashMap<(ObjectId, u32), Arc<Slot>>>,
    /// Backups of sharded-regime slots other nodes serve.
    backups: RwLock<HashMap<(ObjectId, u32), Arc<BackupSlot>>>,
    /// Read mirrors of replicated-regime objects.
    mirrors: RwLock<HashMap<ObjectId, Arc<Mirror>>>,
    /// Authoritative tables of objects this node created.
    homes: RwLock<HashMap<ObjectId, Arc<HomeObject>>>,
    /// Leased cache of other objects' regime tables.
    routes: Mutex<HashMap<ObjectId, (Arc<RegimeTable>, Instant)>>,
    /// This node's unreported read/write counts per object.
    pending_usage: Mutex<HashMap<ObjectId, (u64, u64)>>,
    next_object: AtomicU64,
    /// Rotates the scan start of `Any`-routed operations.
    any_seq: AtomicU64,
    stats: Arc<RtsStats>,
    /// Set by [`AdaptiveRts::shutdown`]; invocation retry loops observe it
    /// and return [`RtsError::Terminated`] instead of spinning forever
    /// (home-local guarded operations never touch the RPC server, so
    /// stopping the server alone would not wake them).
    stopped: AtomicBool,
    /// Crash-recovery knobs (see [`RecoveryConfig`]).
    recovery: RecoveryConfig,
    /// Heartbeat failure detector, present when recovery is enabled.
    detector: Option<Arc<FailureDetector>>,
    /// Objects declared lost (home died with no surviving mirror).
    lost: RwLock<HashSet<ObjectId>>,
    /// Serializes home adoptions on this node.
    adoption: Mutex<()>,
    /// Per-node monotonic sequence stamping synchronously-invoked writes
    /// with an exactly-once identity (see [`OpStamp`]).
    next_stamp: AtomicU64,
    /// Cached `rts.lease.*` telemetry counters.
    lease_counters: LeaseCounters,
    /// `rts.adaptive.replacements`: switches that kept the regime and moved
    /// what it places by use — a sharded regime's partitions, a replicated
    /// regime's owner or mirrors (a subset of `regime_switches`).
    replacements: Counter,
    /// This node's end of the two-phase update fan-out.
    updates: UpdateChannel,
    /// Batching knobs of the asynchronous path.
    batch_policy: Arc<Mutex<BatchPolicy>>,
}

impl Inner {
    fn is_lost(&self, object: ObjectId) -> bool {
        self.lost.read().contains(&object)
    }

    fn leases_enabled(&self) -> bool {
        self.policy.read_lease_ms > 0
    }

    /// Conservative grantor-side span of one lease: double the holder-side
    /// validity, covering delivery delay and clock drift to the same
    /// degree the recovery timeline already assumes.
    fn grant_span(&self) -> Duration {
        Duration::from_millis(self.policy.read_lease_ms.saturating_mul(2))
    }

    /// This node's failure-detector membership epoch (0 without recovery;
    /// both sides then agree and leases degrade to pure clock bounds).
    fn detector_epoch(&self) -> u64 {
        self.detector.as_ref().map(|d| d.epoch()).unwrap_or(0)
    }

    /// The lease that rides a message to a mirror, when leases are granted:
    /// its validity in milliseconds from receipt. The value alone — booking
    /// it in the slot's grant table is the call site's, which knows who it
    /// is sent to.
    fn lease_span(&self) -> Option<u64> {
        self.leases_enabled().then_some(self.policy.read_lease_ms)
    }
}

/// The mirror-side lease a received grant of `valid_ms` amounts to
/// (validity counted from receipt, on the holder's own clock and detector
/// epoch).
fn mirror_lease(inner: &Inner, valid_ms: u64) -> MirrorLease {
    MirrorLease {
        detector_epoch: inner.detector_epoch(),
        expires: Instant::now() + Duration::from_millis(valid_ms),
    }
}

/// True while the mirror-side lease permits zero-message local reads.
fn mirror_lease_valid(inner: &Inner, state: &MirrorState) -> bool {
    match &state.lease {
        Some(lease) => {
            Instant::now() < lease.expires && inner.detector_epoch() == lease.detector_epoch
        }
        None => false,
    }
}

/// Handle to one node's adaptive runtime system. Cheap to clone.
#[derive(Clone)]
pub struct AdaptiveRts {
    inner: Arc<Inner>,
    server: Arc<Mutex<Option<RpcServer>>>,
    /// Asynchronous-invocation pipeline, started lazily on first use and
    /// shared by all clones of this handle.
    pipeline: Arc<Mutex<Option<Arc<Pipeline>>>>,
}

impl std::fmt::Debug for AdaptiveRts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRts")
            .field("node", &self.inner.node)
            .finish()
    }
}

/// What the tests of the pinned backends (`sharded`, `primary`) look at and
/// do that an application cannot.
#[cfg(test)]
impl AdaptiveRts {
    /// Partitions of `object` this node serves an authoritative slot of.
    pub(crate) fn held_partitions(&self, object: ObjectId) -> Vec<u32> {
        let held = of_object(&self.inner.slots, object);
        let mut held: Vec<u32> = held.into_iter().map(|(partition, _)| partition).collect();
        held.sort_unstable();
        held
    }

    /// This node's mirror of `object`: whether it holds a copy, the copy's
    /// version, whether it is locked, and its pending write-throughs.
    pub(crate) fn mirror_of(&self, object: ObjectId) -> (bool, u64, bool, u32) {
        let mirror = mirror_entry(&self.inner, object);
        let state = mirror.state.lock();
        let held = state.copy.is_some();
        (held, state.version, state.locked, state.pending_writes)
    }

    /// Replace the evidence of `object`, whose home this node is, with
    /// `reads[node]` reads and `writes[node]` writes per node and re-place
    /// its replicated regime over it.
    pub(crate) fn replicate_by(
        &self,
        object: ObjectId,
        reads: &[u64],
        writes: &[u64],
    ) -> Result<(), RtsError> {
        let home = self.inner.homes.read().get(&object).cloned().unwrap();
        *home.usage.lock() = UsageAggregate::of(reads, writes);
        switch_regime(&self.inner, object, &home, RegimeKind::Replicated, None)
    }

    /// Handle `msg` as if `caller` had sent it.
    pub(crate) fn serve(&self, msg: RegimeMsg, caller: NodeId) -> RegimeReply {
        dispatch(&self.inner, msg, caller)
    }

    /// One attempt of a write of this node under a stamp of the caller's
    /// choosing (a retry presents the stamp of the attempt it repeats).
    pub(crate) fn write_stamped(
        &self,
        object: ObjectId,
        op: &[u8],
        stamp: OpStamp,
    ) -> Result<Vec<u8>, RtsError> {
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        let table = self.route_for(object, deadline)?;
        match self.dispatch_client_op(&table, OpKind::Write, op, Some(stamp), deadline)? {
            PartOutcome::Done(reply) => Ok(reply),
            _ => Err(RtsError::Timeout),
        }
    }
}

/// Outcome of one attempt to execute (part of) an operation.
enum PartOutcome {
    Done(Vec<u8>),
    Blocked,
    Stale,
}

impl AdaptiveRts {
    /// Start the adaptive runtime system on the node owning `handle`
    /// (without crash recovery — node failures surface as timeouts).
    pub fn start(handle: NetworkHandle, registry: ObjectRegistry, policy: AdaptivePolicy) -> Self {
        Self::start_recoverable(handle, registry, policy, RecoveryConfig::disabled(), None)
    }

    /// Start the runtime system with crash recovery: every sharded-regime
    /// slot is backed up on the next live node, and a dead owner's
    /// partitions are re-owned by promoting their backups; when an object's
    /// home node dies, the lowest live node adopts the object — sharded
    /// regime: from the slots and backups the survivors hold; replicated
    /// regime: from the freshest surviving read mirror; an object that left
    /// neither is lost (see the `recovery` module docs).
    pub fn start_recoverable(
        handle: NetworkHandle,
        registry: ObjectRegistry,
        policy: AdaptivePolicy,
        recovery: RecoveryConfig,
        detector: Option<Arc<FailureDetector>>,
    ) -> Self {
        let detector = crate::recovery::ensure_detector(&handle, &recovery, detector);
        let inner = Arc::new(Inner {
            node: handle.node(),
            num_nodes: handle.num_nodes(),
            handle: handle.clone(),
            registry,
            policy,
            slots: RwLock::new(HashMap::new()),
            backups: RwLock::new(HashMap::new()),
            mirrors: RwLock::new(HashMap::new()),
            homes: RwLock::new(HashMap::new()),
            routes: Mutex::new(HashMap::new()),
            pending_usage: Mutex::new(HashMap::new()),
            next_object: AtomicU64::new(1),
            any_seq: AtomicU64::new(0),
            stats: RtsStats::new_shared(),
            stopped: AtomicBool::new(false),
            recovery,
            detector,
            lost: RwLock::new(HashSet::new()),
            adoption: Mutex::new(()),
            next_stamp: AtomicU64::new(1),
            lease_counters: LeaseCounters::from_handle(&handle),
            replacements: handle
                .telemetry()
                .registry()
                .counter("rts.adaptive.replacements"),
            updates: UpdateChannel::new(&handle, ports::RTS_ADAPTIVE),
            batch_policy: Arc::new(Mutex::new(BatchPolicy::default())),
        });
        if recovery.rehome {
            if let Some(detector) = &inner.detector {
                let home_inner = Arc::clone(&inner);
                detector.on_failure(Box::new(move |_dead, view| {
                    let inner = Arc::clone(&home_inner);
                    std::thread::Builder::new()
                        .name(format!("regime-recovery-{}", inner.node))
                        .spawn(move || recover_home_objects(&inner, &view))
                        .expect("spawn regime recovery thread");
                }));
            }
        }
        let service_inner = Arc::clone(&inner);
        // Regime switches and `All` fan-outs hold a handler across nested
        // RPCs, some of them back into this service.
        let server =
            RpcServer::serve_concurrent(handle, ports::RTS_ADAPTIVE, move |body, caller| {
                serve_request(&service_inner, body, caller)
            });
        AdaptiveRts {
            inner,
            server: Arc::new(Mutex::new(Some(server))),
            pipeline: Arc::new(Mutex::new(None)),
        }
    }

    /// Stop the RPC service of this node and fail any invocation still in
    /// its retry loop with [`RtsError::Terminated`] (all waits in the loop
    /// are bounded, so blocked guards observe the flag promptly).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
        if let Some(pipeline) = self.pipeline.lock().take() {
            pipeline.shutdown();
        }
        if let Some(server) = self.server.lock().take() {
            server.shutdown();
        }
        if let Some(detector) = &self.inner.detector {
            detector.shutdown();
        }
    }

    /// The current membership view, when recovery is enabled.
    pub fn membership_view(&self) -> Option<ViewSnapshot> {
        self.inner.detector.as_ref().map(|d| d.view())
    }

    /// The regime currently serving `object` and its epoch, freshly fetched
    /// from the home node (bypassing this node's cache).
    pub fn regime_of(&self, object: ObjectId) -> Result<(RegimeKind, u64), RtsError> {
        self.placement_of(object)
            .map(|(regime, epoch, _)| (regime, epoch))
    }

    /// The regime currently serving `object`, its epoch and the owner of
    /// each of its authoritative replicas (one per partition under the
    /// sharded regime, the one copy's otherwise), freshly fetched from the
    /// home node (bypassing this node's cache).
    pub fn placement_of(
        &self,
        object: ObjectId,
    ) -> Result<(RegimeKind, u64, Vec<NodeId>), RtsError> {
        let table = self.fresh_table(object)?;
        let owners = table.owners.iter().map(|&owner| NodeId(owner)).collect();
        Ok((table.regime, table.epoch, owners))
    }

    /// The nodes the published table lists as holding a read mirror of
    /// `object` (none outside the replicated regime), freshly fetched like
    /// [`AdaptiveRts::placement_of`].
    pub fn copy_holders(&self, object: ObjectId) -> Result<Vec<NodeId>, RtsError> {
        let table = self.fresh_table(object)?;
        Ok(table.mirrors.iter().map(|&mirror| NodeId(mirror)).collect())
    }

    /// The home's table of `object`, bypassing this node's cache.
    fn fresh_table(&self, object: ObjectId) -> Result<Arc<RegimeTable>, RtsError> {
        self.inner.routes.lock().remove(&object);
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        self.route_for(object, deadline)
    }

    /// Ask the object's home node to re-evaluate its regime right now from
    /// the usage evidence reported so far (a regime-change proposal).
    /// Returns the — possibly freshly switched — regime.
    pub fn propose(&self, object: ObjectId) -> Result<RegimeKind, RtsError> {
        let home = current_home(&self.inner, object);
        if home == self.inner.node {
            let entry = self.inner.homes.read().get(&object).cloned();
            let entry = entry.ok_or(RtsError::Object(ObjectError::NoSuchObject(object)))?;
            evaluate_object(&self.inner, object, &entry);
            return Ok(entry.table.lock().regime);
        }
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        match self.rpc(home, &RegimeMsg::Propose { object: object.0 }, deadline)? {
            RegimeReply::Route(table) => Ok(table.regime),
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected Propose reply {other:?}"
            ))),
        }
    }

    /// Move partition `partition` of sharded-regime `object`, whose home
    /// this node is, to node `dst`: a switch to the same regime with the
    /// owners given instead of computed.
    pub fn migrate(&self, object: ObjectId, partition: u32, dst: NodeId) -> Result<(), RtsError> {
        let entry = self.inner.homes.read().get(&object).cloned();
        let entry = entry.ok_or(RtsError::Object(ObjectError::NoSuchObject(object)))?;
        if dst.index() >= self.inner.num_nodes {
            return Err(RtsError::Communication(format!("no such node {dst}")));
        }
        let moved = Some((partition, dst));
        switch_regime(&self.inner, object, &entry, RegimeKind::Sharded, moved)
    }

    /// Flush this node's unreported usage counters for `object` to its
    /// home and wait until it has them (tests and benchmarks use this
    /// before [`AdaptiveRts::propose`] so decisions see all the evidence:
    /// here, and only here, the report is sent as a call).
    pub fn flush_usage(&self, object: ObjectId) {
        let taken = self.inner.pending_usage.lock().remove(&object);
        if let Some((reads, writes)) = taken {
            if reads + writes > 0 {
                self.send_report(object, reads, writes, true);
            }
        }
    }

    /// Send a regime request to `dst`, bounded by `deadline`.
    fn rpc(
        &self,
        dst: NodeId,
        msg: &RegimeMsg,
        deadline: Instant,
    ) -> Result<RegimeReply, RtsError> {
        regime_rpc_deadline(&self.inner, dst, msg, deadline)
    }

    /// Regime table for `object`: authoritative at home, cached elsewhere.
    /// When the creating node is dead, the home role falls to the lowest
    /// live node, which re-assembles the object from what the survivors
    /// hold of it on first contact.
    fn route_for(&self, object: ObjectId, deadline: Instant) -> Result<Arc<RegimeTable>, RtsError> {
        if self.inner.is_lost(object) {
            return Err(RtsError::ObjectLost(object));
        }
        let creator = NodeId(object.creator_index());
        let home = if is_dead(&self.inner.detector, creator) && self.inner.recovery.rehome {
            match self
                .inner
                .detector
                .as_ref()
                .and_then(|d| crate::recovery::recovery_home(&d.view()))
            {
                Some(adopter) => adopter,
                None => return Err(RtsError::NodeDown(creator)),
            }
        } else {
            creator
        };
        if home == self.inner.node {
            if let Some(entry) = self.inner.homes.read().get(&object).cloned() {
                return Ok(Arc::clone(&entry.table.lock()));
            }
            if home != creator {
                let entry = adopt_object(&self.inner, object)?;
                return Ok(Arc::clone(&entry.table.lock()));
            }
            return Err(RtsError::Object(ObjectError::NoSuchObject(object)));
        }
        if let Some((table, fetched)) = self.inner.routes.lock().get(&object) {
            // Where every operation is answered by an owner, the owner's
            // epoch check is the invalidation; only a replicated-regime
            // table, whose reads ask nobody, has to expire. No slot is
            // special: an operation for any partition whose owner died
            // must re-fetch, not time out against a corpse.
            let fresh = table.regime != RegimeKind::Replicated
                || fetched.elapsed() < self.inner.policy.regime_lease;
            if fresh
                && !table
                    .owners
                    .iter()
                    .any(|&owner| is_dead(&self.inner.detector, NodeId(owner)))
            {
                return Ok(Arc::clone(table));
            }
        }
        match self.rpc(home, &RegimeMsg::Route { object: object.0 }, deadline)? {
            RegimeReply::Route(table) => {
                let table = Arc::new(table);
                self.inner
                    .routes
                    .lock()
                    .insert(object, (Arc::clone(&table), Instant::now()));
                Ok(table)
            }
            RegimeReply::ObjectLost => {
                self.inner.lost.write().insert(object);
                Err(RtsError::ObjectLost(object))
            }
            RegimeReply::Error(msg) if home != creator => {
                // The adopter may not have declared the creator dead yet;
                // surface as NodeDown so the invocation loop retries.
                let _ = msg;
                Err(RtsError::NodeDown(creator))
            }
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected Route reply {other:?}"
            ))),
        }
    }

    /// Count a local access and ship a usage report to the home every
    /// [`AdaptivePolicy::report_every`] accesses.
    fn note_access(&self, object: ObjectId, kind: OpKind) {
        if !self.inner.policy.counts_usage() {
            return;
        }
        let taken = {
            let mut pending = self.inner.pending_usage.lock();
            let entry = pending.entry(object).or_insert((0, 0));
            match kind {
                OpKind::Read => entry.0 += 1,
                OpKind::Write => entry.1 += 1,
            }
            if entry.0 + entry.1 >= self.inner.policy.report_every {
                pending.remove(&object)
            } else {
                None
            }
        };
        if let Some((reads, writes)) = taken {
            self.send_report(object, reads, writes, false);
        }
    }

    /// Deliver a usage report to the home (directly when this node is the
    /// home) — one message, nothing waited for, unless `acknowledged`: an
    /// invocation never stalls on the home's evaluation. Failures are
    /// ignored: a lost report only delays adaptation.
    fn send_report(&self, object: ObjectId, reads: u64, writes: u64, acknowledged: bool) {
        let home = current_home(&self.inner, object);
        let msg = RegimeMsg::Report {
            object: object.0,
            reads,
            writes,
        };
        if home == self.inner.node {
            let _ = dispatch(&self.inner, msg, self.inner.node);
        } else if acknowledged {
            let deadline = Instant::now() + self.inner.policy.op_timeout;
            let _ = self.rpc(home, &msg, deadline);
        } else {
            let _ = rpc_notify(
                &self.inner.handle,
                home,
                ports::RTS_ADAPTIVE,
                msg.to_bytes(),
            );
        }
    }

    /// Set the batching knobs of the asynchronous invocation path (takes
    /// effect from the next flusher round).
    pub fn set_batch_policy(&self, policy: BatchPolicy) {
        *self.inner.batch_policy.lock() = policy;
    }

    /// A clone of this handle whose `pipeline` cell is fresh and empty, for
    /// capture by the flusher and retry closures: capturing `self` directly
    /// would create an `Arc` cycle (pipeline → closure → handle →
    /// pipeline) and leak the runtime system.
    fn detached(&self) -> AdaptiveRts {
        AdaptiveRts {
            inner: Arc::clone(&self.inner),
            server: Arc::clone(&self.server),
            pipeline: Arc::new(Mutex::new(None)),
        }
    }

    /// The asynchronous-invocation pipeline, started on first use.
    fn ensure_pipeline(&self) -> Arc<Pipeline> {
        let mut guard = self.pipeline.lock();
        if let Some(pipeline) = guard.as_ref() {
            return Arc::clone(pipeline);
        }
        let rts = self.detached();
        let pipeline = Arc::new(Pipeline::start(
            format!("rts-pipe-{}", self.inner.node),
            self.inner.node.0,
            Arc::clone(self.inner.handle.telemetry()),
            Arc::clone(&self.inner.batch_policy),
            move |ops| rts.run_round(ops),
        ));
        *guard = Some(Arc::clone(&pipeline));
        pipeline
    }

    /// Execute one flusher round. The adaptive system *inherits* batching
    /// through the regime each object currently delegates to: slot-addressed
    /// operations (the primary regime's home copy, replicated-regime
    /// writes, `One`-routed sharded operations) coalesce into one
    /// epoch-stamped operation-batch request per destination node; mirror
    /// reads stay local; `All`/`Any` fan-outs act as barriers. Operations
    /// bounced by a regime switch (`Stale`) retry in a follow-up pass.
    /// Every handle resolves in issue order at the end of the round.
    fn run_round(&self, ops: Vec<QueuedOp>) {
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        let mut slots: Vec<RoundSlot> = ops.iter().map(|_| RoundSlot::Todo).collect();
        let mut todo: Vec<usize> = (0..ops.len()).collect();
        for pass in 0.. {
            todo = self.execute_pass(&ops, &todo, &mut slots, deadline);
            if todo.is_empty()
                || Instant::now() >= deadline
                || self.inner.stopped.load(Ordering::SeqCst)
            {
                break;
            }
            for &i in &todo {
                self.inner.routes.lock().remove(&ops[i].object);
            }
            // What bounced a window off a slot already drained is most
            // often a switch about to publish: the first re-fetch of the
            // table goes out at once, the ones after it wait.
            if pass > 0 {
                std::thread::sleep(self.inner.policy.stale_retry_delay);
            }
        }
        resolve_round(ops, slots);
    }

    /// One pass over the still-unexecuted operations of a round. Returns
    /// the indices that must be retried (regime switch in flight), in
    /// issue order.
    fn execute_pass(
        &self,
        ops: &[QueuedOp],
        todo: &[usize],
        slots: &mut [RoundSlot],
        deadline: Instant,
    ) -> Vec<usize> {
        let mut stale: Vec<usize> = Vec::new();
        let mut batches = PendingBatches::new(RegimeMsg::OP_BATCH_TAG, ops);
        for &i in todo {
            let op = &ops[i];
            // An earlier operation on this object bounced in this pass;
            // executing a later one now would invert their effects.
            if stale.iter().any(|&s| ops[s].object == op.object) {
                stale.push(i);
                continue;
            }
            let table = match self.route_for(op.object, deadline) {
                Ok(table) => table,
                Err(err) => {
                    slots[i] = RoundSlot::Ready(Err(err));
                    continue;
                }
            };
            let me = self.inner.node.0;
            match table.regime {
                RegimeKind::Replicated
                    if op.kind == OpKind::Read && table.mirrors.contains(&me) =>
                {
                    // Barrier before the local mirror read: this process's
                    // earlier batched writes must be visible to it (the
                    // owner pushes mirror updates before it acknowledges a
                    // batch, so flushing first gives read-your-writes).
                    self.flush_batches(&mut batches, &mut stale, slots, deadline);
                    if stale.iter().any(|&s| ops[s].object == op.object) {
                        stale.push(i);
                        continue;
                    }
                    // Local mirror read (fetching/re-syncing as needed).
                    slots[i] = match self.mirror_read(&table, &op.op, deadline) {
                        Ok(PartOutcome::Done(reply)) => RoundSlot::Ready(Ok(reply)),
                        Ok(PartOutcome::Blocked) => RoundSlot::Blocked,
                        Ok(PartOutcome::Stale) => {
                            stale.push(i);
                            continue;
                        }
                        Err(err) => RoundSlot::Ready(Err(err)),
                    };
                }
                // One copy: every operation goes to its owner — under the
                // replicated regime every write, and the reads of the owner
                // and of a node the table lists no mirror for.
                RegimeKind::Primary | RegimeKind::Replicated => {
                    batches.push(
                        NodeId(table.owners[0]),
                        i,
                        op.batched(0, table.epoch, &op.op),
                    );
                }
                RegimeKind::Sharded => {
                    let Some(logic) = self.inner.registry.shard_logic(&table.type_name) else {
                        // Pinned, a type that does not shard: one partition.
                        batches.push(
                            NodeId(table.owners[0]),
                            i,
                            op.batched(0, table.epoch, &op.op),
                        );
                        continue;
                    };
                    let routed =
                        logic
                            .route(&op.op, table.partitions())
                            .and_then(|route| match route {
                                ShardRoute::One(partition) => logic
                                    .op_for(&op.op, partition, table.partitions())
                                    .map(|part_op| (route, Some((partition, part_op)))),
                                _ => Ok((route, None)),
                            });
                    match routed {
                        Ok((ShardRoute::One(_), Some((partition, part_op)))) => {
                            batches.push(
                                NodeId(table.owners[partition as usize]),
                                i,
                                op.batched(partition, table.epoch, &part_op),
                            );
                        }
                        Ok((route, _)) => {
                            // Barrier: whole-object operations must order
                            // against every batched operation before them.
                            self.flush_batches(&mut batches, &mut stale, slots, deadline);
                            if stale.iter().any(|&s| ops[s].object == op.object) {
                                stale.push(i);
                                continue;
                            }
                            slots[i] = match route {
                                ShardRoute::Any => {
                                    // Unstamped: the batched asynchronous
                                    // path never re-presents an op across a
                                    // node death.
                                    match self.any_partition_op(
                                        &table,
                                        logic.as_ref(),
                                        &op.op,
                                        None,
                                        deadline,
                                    ) {
                                        Ok(PartOutcome::Done(reply)) => RoundSlot::Ready(Ok(reply)),
                                        Ok(PartOutcome::Blocked) => RoundSlot::Blocked,
                                        Ok(PartOutcome::Stale) => {
                                            stale.push(i);
                                            continue;
                                        }
                                        Err(err) => RoundSlot::Ready(Err(err)),
                                    }
                                }
                                // `All`-routed operations run to completion
                                // inline (the home's switch lock owns their
                                // fan-out discipline).
                                _ => RoundSlot::Ready(self.invoke(
                                    op.object,
                                    &table.type_name,
                                    op.kind,
                                    &op.op,
                                )),
                            };
                        }
                        Err(err) => slots[i] = RoundSlot::Ready(Err(err.into())),
                    }
                }
            }
        }
        self.flush_batches(&mut batches, &mut stale, slots, deadline);
        stale
    }

    /// Ship every pending per-destination batch through the shared
    /// reply-demultiplexing flusher (see
    /// [`crate::pipeline::flush_op_batches`] for the failure contract).
    fn flush_batches(
        &self,
        batches: &mut PendingBatches,
        stale: &mut Vec<usize>,
        slots: &mut [RoundSlot],
        deadline: Instant,
    ) {
        let inner = &self.inner;
        crate::pipeline::flush_op_batches(
            &inner.handle,
            inner.node,
            ports::RTS_ADAPTIVE,
            &inner.stats,
            &inner.detector,
            batches,
            stale,
            slots,
            deadline,
            &|ops| apply_op_batch(inner, ops, inner.node),
            &|bytes| match RegimeReply::from_bytes(bytes) {
                Ok(RegimeReply::Batch(outcomes)) => Ok(outcomes),
                Ok(other) => Err(format!("unexpected batch reply {other:?}")),
                Err(err) => Err(format!("bad reply: {err}")),
            },
        );
    }

    /// Record invocation-level statistics once the routing decision is
    /// known.
    fn record_invocation(&self, all_local: bool, kind: OpKind) {
        let stats = &self.inner.stats;
        match kind {
            OpKind::Read => {
                if all_local {
                    RtsStats::bump(&stats.local_reads);
                } else {
                    RtsStats::bump(&stats.remote_reads);
                }
            }
            OpKind::Write => {
                RtsStats::bump(&stats.writes);
                if !all_local {
                    RtsStats::bump(&stats.remote_writes);
                }
            }
        }
    }

    /// Execute an (already partition-narrowed) operation on one
    /// authoritative slot — locally if this node serves it, otherwise
    /// shipped to the owner.
    fn slot_op(
        &self,
        table: &RegimeTable,
        partition: u32,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let owner = NodeId(table.owners[partition as usize]);
        let object = table_object(table);
        let reply = if owner == self.inner.node {
            apply_at_slot(
                &self.inner,
                object,
                partition,
                table.epoch,
                op,
                stamp,
                self.inner.node,
                false,
            )
        } else {
            self.rpc(
                owner,
                &RegimeMsg::Op {
                    object: object.0,
                    epoch: table.epoch,
                    partition,
                    op: op.to_vec(),
                    stamp,
                },
                deadline,
            )?
        };
        match reply {
            RegimeReply::Done(bytes) => Ok(PartOutcome::Done(bytes)),
            RegimeReply::Blocked => Ok(PartOutcome::Blocked),
            RegimeReply::StaleRegime => Ok(PartOutcome::Stale),
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected Op reply {other:?}"
            ))),
        }
    }

    /// Serve a replicated-regime read from the mirror the table lists this
    /// node for, fetching or re-syncing it from the owner when needed.
    fn mirror_read(
        &self,
        table: &RegimeTable,
        op: &[u8],
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let object = table_object(table);
        loop {
            let mirror = mirror_entry(&self.inner, object);
            let mut state = mirror.state.lock();
            let held = state.epoch == table.epoch && state.copy.is_some();
            if !held || (self.inner.leases_enabled() && !mirror_lease_valid(&self.inner, &state)) {
                // No copy of this epoch (a missed install, a copy dropped on
                // a gap), or its lease lapsed (idle owner) or the
                // membership view moved under it: ask the owner, naming the
                // version of an unlocked copy — if that is current the
                // grant alone comes back, not the state.
                if Instant::now() >= deadline {
                    return Ok(PartOutcome::Stale);
                }
                let have = (held && !state.locked).then_some(state.version);
                drop(state);
                if !self.fetch_mirror(object, table, &mirror, have, deadline)? {
                    return Ok(PartOutcome::Stale);
                }
                continue;
            }
            if state.reads_blocked() {
                // A two-phase update (or a write of this node through the
                // mirror) is in flight; wait for its unlock. A
                // lock that never clears (the unlock was lost to a crash
                // mid-push) must not wedge this mirror forever: once the
                // deadline passes, discard the copy — the next read
                // re-syncs a fresh, unlocked state from the owner — and
                // hand back Stale so the caller's deadline check fails
                // this invocation instead of hanging.
                if Instant::now() >= deadline {
                    state.copy = None;
                    return Ok(PartOutcome::Stale);
                }
                // Nor wait for an unlock that died with the owner: the
                // caller goes back to the home for whoever serves now.
                let owner = NodeId(table.owners[0]);
                if is_dead(&self.inner.detector, owner) {
                    return Err(RtsError::NodeDown(owner));
                }
                mirror.unlocked.wait_for(&mut state, MIRROR_LOCK_WAIT);
                continue;
            }
            let copy = state.copy.as_mut().expect("checked above");
            match copy.apply_encoded(op)? {
                AppliedOutcome::Done(reply) => {
                    RtsStats::bump(&self.inner.stats.local_reads);
                    if self.inner.leases_enabled() {
                        self.inner.lease_counters.local_reads.inc();
                    }
                    return Ok(PartOutcome::Done(reply));
                }
                AppliedOutcome::Blocked => {
                    // Guarded read: wait for an update to change the mirror,
                    // then hand control back so the caller re-validates the
                    // regime (the guard's write may commit under a new one).
                    // The caller accounts the guard retry.
                    mirror.unlocked.wait_for(&mut state, MIRROR_GUARD_WAIT);
                    return Ok(PartOutcome::Blocked);
                }
            }
        }
    }

    /// Ship a replicated-regime write *through* this node's mirror: mark it
    /// pending, send [`RegimeMsg::WriteThrough`] — the owner then pushes the
    /// update to the other mirrors only — and apply the operation here from
    /// the acknowledgement ([`finish_write_through`]). `None` when the table
    /// lists no mirror here (the owner's own node included) or none of its
    /// epoch is installed; the write then goes as a plain [`RegimeMsg::Op`].
    /// The mark lasts one attempt: a guard-blocked write retries through the
    /// invocation loop and must not keep this node's readers waiting
    /// meanwhile.
    fn write_through(
        &self,
        table: &RegimeTable,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Option<Result<PartOutcome, RtsError>> {
        let owner = NodeId(table.owners[0]);
        if !table.mirrors.contains(&self.inner.node.0) {
            return None;
        }
        let object = table_object(table);
        let mirror = mirror_entry(&self.inner, object);
        if !mirror.mark_pending(table.epoch) {
            return None;
        }
        let msg = RegimeMsg::WriteThrough {
            object: object.0,
            epoch: table.epoch,
            op: op.to_vec(),
            stamp,
        };
        let answer = self.rpc(owner, &msg, deadline);
        Some(self.finish_write_through(&mirror, table.epoch, op, stamp, answer))
    }

    /// Close one write-through attempt: tell the mirror what the owner's
    /// answer means for it ([`WriteAck`]) — which also clears the attempt's
    /// pending mark — and turn the answer into the attempt's outcome.
    ///
    /// * `Installed` — the mirror applies the operation bytes still in hand
    ///   at the sequence number the owner applied them at.
    /// * `Blocked` / `StaleRegime` — nothing was applied under this epoch;
    ///   the mirror is as current as it was (a retired regime's mirror goes
    ///   with its `DropMirror`).
    /// * A plain `Done` — the owner answered a retry from its dedup window
    ///   (or serves no mirrors): the mirror may have missed the write and
    ///   is dropped.
    /// * An error or a timeout — the write may or may not have been
    ///   applied. Without re-homing the mirror is dropped. With it, the
    ///   owner may have died under the write — a killed process resets its
    ///   connections long before a detector counts it out — and the mirror
    ///   may be the only copy left (a table nobody reads keeps just the one
    ///   at its home): it is left *locked*, like a mirror caught mid-push. It
    ///   serves no read, still answers the `Holdings` query of whoever
    ///   regenerates the object, and under a live owner the next update —
    ///   this node's own, or a pushed one — brings it back or finds the gap.
    fn finish_write_through(
        &self,
        mirror: &Mirror,
        epoch: u64,
        op: &[u8],
        stamp: Option<OpStamp>,
        answer: Result<RegimeReply, RtsError>,
    ) -> Result<PartOutcome, RtsError> {
        let inner = &self.inner;
        let (ack, outcome) = match answer {
            Ok(RegimeReply::Installed { reply, seq, lease }) => {
                let ack = WriteAck::Installed {
                    version: seq,
                    stamped: stamp.map(|stamp| (stamp, reply.clone())),
                    lease: lease.map(|valid_ms| mirror_lease(inner, valid_ms)),
                };
                (ack, Ok(PartOutcome::Done(reply)))
            }
            Ok(RegimeReply::Blocked) => (WriteAck::NotApplied, Ok(PartOutcome::Blocked)),
            Ok(RegimeReply::StaleRegime) => (WriteAck::NotApplied, Ok(PartOutcome::Stale)),
            Ok(RegimeReply::Done(reply)) => (WriteAck::Unsynced, Ok(PartOutcome::Done(reply))),
            Ok(RegimeReply::Error(msg)) => (WriteAck::Unsynced, Err(RtsError::Communication(msg))),
            Ok(other) => (
                WriteAck::Unsynced,
                Err(RtsError::Communication(format!(
                    "unexpected WriteThrough reply {other:?}"
                ))),
            ),
            Err(err) if inner.recovery.rehome => (WriteAck::AuthorityLost, Err(err)),
            Err(err) => (WriteAck::Unsynced, Err(err)),
        };
        mirror.finish_write_through(&inner.updates, epoch, op, ack, inner.policy.op_timeout);
        outcome
    }

    /// Fetch a fresh mirror state — or, when the copy at version `have` is
    /// still current, a fresh lease alone — from the owner the table names.
    /// Returns false when the owner says the table is stale (the epoch, or
    /// this node's place in it; the caller re-fetches the table).
    fn fetch_mirror(
        &self,
        object: ObjectId,
        table: &RegimeTable,
        mirror: &Mirror,
        have: Option<u64>,
        deadline: Instant,
    ) -> Result<bool, RtsError> {
        let msg = RegimeMsg::FetchMirror {
            object: object.0,
            epoch: table.epoch,
            have,
        };
        match self.rpc(NodeId(table.owners[0]), &msg, deadline)? {
            RegimeReply::Renewed(grant) => {
                // Good for the copy it names and no other: an update that
                // got here first brought its own lease.
                let mut state = mirror.state.lock();
                let named = (grant.epoch, grant.seq) == (state.epoch, state.version);
                if named && state.epoch == table.epoch && state.copy.is_some() {
                    state.lease = Some(mirror_lease(&self.inner, grant.valid_ms));
                }
                Ok(true)
            }
            RegimeReply::MirrorState {
                state,
                seq,
                dedup,
                lease,
            } => {
                let (inner, name) = (&self.inner, &table.type_name);
                install_mirror(inner, object, table.epoch, name, &state, seq, dedup, lease)
            }
            RegimeReply::StaleRegime => Ok(false),
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected FetchMirror reply {other:?}"
            ))),
        }
    }

    /// Run an `Any`-routed operation: scan partitions (rotating start)
    /// until one accepts. Safe to restart after a `StaleRegime`: every
    /// non-accepted partition reply was a no-op.
    fn any_partition_op(
        &self,
        table: &RegimeTable,
        logic: &dyn orca_object::ShardLogic,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let parts = table.partitions();
        let start = (self.inner.node.index() as u64
            + self.inner.any_seq.fetch_add(1, Ordering::Relaxed))
            % u64::from(parts);
        let mut last_pass = None;
        let mut any_blocked = false;
        for step in 0..parts {
            let partition = ((start + u64::from(step)) % u64::from(parts)) as u32;
            let part_op = logic.op_for(op, partition, parts)?;
            match self.slot_op(table, partition, &part_op, stamp, deadline)? {
                PartOutcome::Done(reply) => {
                    if logic.accepts(op, &reply)? {
                        return Ok(PartOutcome::Done(reply));
                    }
                    last_pass = Some(reply);
                }
                PartOutcome::Blocked => any_blocked = true,
                PartOutcome::Stale => return Ok(PartOutcome::Stale),
            }
        }
        if any_blocked {
            Ok(PartOutcome::Blocked)
        } else {
            Ok(PartOutcome::Done(
                last_pass.expect("scan visited at least one partition"),
            ))
        }
    }

    /// Run an `All`-routed operation through the home node, which fans it
    /// out under its switch lock so no regime change can interleave with
    /// the per-partition shares.
    fn all_partitions_op(
        &self,
        table: &RegimeTable,
        op: &[u8],
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let object = table_object(table);
        let home = current_home(&self.inner, object);
        let reply = if home == self.inner.node {
            serve_op_all(&self.inner, object, op, self.inner.node)
        } else {
            self.rpc(
                home,
                &RegimeMsg::OpAll {
                    object: object.0,
                    op: op.to_vec(),
                },
                deadline,
            )?
        };
        match reply {
            RegimeReply::Done(bytes) => Ok(PartOutcome::Done(bytes)),
            RegimeReply::Blocked => Ok(PartOutcome::Blocked),
            RegimeReply::StaleRegime => Ok(PartOutcome::Stale),
            RegimeReply::ObjectLost => {
                self.inner.lost.write().insert(object);
                Err(RtsError::ObjectLost(object))
            }
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected OpAll reply {other:?}"
            ))),
        }
    }

    /// Route one invocation under the current regime table.
    fn dispatch_client_op(
        &self,
        table: &RegimeTable,
        kind: OpKind,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let me = self.inner.node.0;
        match table.regime {
            RegimeKind::Replicated if kind == OpKind::Read && table.mirrors.contains(&me) => {
                self.mirror_read(table, op, deadline)
            }
            // One copy, every operation executed at its owner. Under the
            // replicated regime that is every write — through the writer's
            // own mirror when the table lists one — and the reads of the
            // owner and of a node the table lists no mirror for: shipped
            // like a primary-regime read and counted like one, so a node
            // that starts reading is a user at the next evaluation.
            RegimeKind::Primary | RegimeKind::Replicated => {
                self.record_invocation(table.owners[0] == me, kind);
                let through = match kind {
                    OpKind::Write => self.write_through(table, op, stamp, deadline),
                    OpKind::Read => None,
                };
                match through {
                    Some(outcome) => outcome,
                    None => self.slot_op(table, 0, op, stamp, deadline),
                }
            }
            RegimeKind::Sharded => {
                let Some(logic) = self.inner.registry.shard_logic(&table.type_name) else {
                    // Pinned, a type that does not shard: one partition at
                    // its creator, served like a primary copy.
                    self.record_invocation(table.owners[0] == me, kind);
                    return self.slot_op(table, 0, op, stamp, deadline);
                };
                let route = logic.route(op, table.partitions())?;
                let all_local = match route {
                    ShardRoute::One(p) => table.owners[p as usize] == me,
                    ShardRoute::All | ShardRoute::Any => table.owners.iter().all(|&o| o == me),
                };
                self.record_invocation(all_local, kind);
                match route {
                    ShardRoute::One(partition) => {
                        let part_op = logic.op_for(op, partition, table.partitions())?;
                        self.slot_op(table, partition, &part_op, stamp, deadline)
                    }
                    ShardRoute::Any => {
                        self.any_partition_op(table, logic.as_ref(), op, stamp, deadline)
                    }
                    // All-routed operations fan out at the home under its
                    // switch lock; the shares of one logical op need
                    // distinct stamps per partition, which the home mints —
                    // not the client.
                    ShardRoute::All => self.all_partitions_op(table, op, deadline),
                }
            }
        }
    }
}

impl RuntimeSystem for AdaptiveRts {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    fn create_object(&self, type_name: &str, initial_state: &[u8]) -> Result<ObjectId, RtsError> {
        let inner = &self.inner;
        let counter = inner.next_object.fetch_add(1, Ordering::Relaxed);
        let id = ObjectId::compose(inner.node.0, counter);
        // Left to itself every object starts in the primary regime: a
        // single copy at home is the cheapest regime to leave once the
        // access mix is known. A pinned regime is the one it is created in:
        // a replicated copy here, without mirrors — nobody has read it yet.
        let regime = inner.policy.pin.unwrap_or(RegimeKind::Primary);
        let owners = match inner.registry.shard_logic(type_name) {
            // The owners of an object nobody has used yet: every node's.
            Some(_) if regime == RegimeKind::Sharded => {
                placement(inner, id, &UsageAggregate::default(), &[])
            }
            _ => vec![inner.node.0],
        };
        let table = RegimeTable {
            object: id.0,
            type_name: type_name.to_string(),
            epoch: 0,
            regime,
            owners,
            mirrors: Vec::new(),
        };
        install_slots(inner, &table, initial_state, &DedupWindow::new())?;
        inner.homes.write().insert(
            id,
            Arc::new(HomeObject {
                table: Mutex::new(Arc::new(table)),
                switch: Mutex::new(()),
                usage: Mutex::new(UsageAggregate::default()),
            }),
        );
        RtsStats::bump(&inner.stats.objects_created);
        Ok(id)
    }

    fn invoke(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError> {
        let mut deadline = Instant::now() + self.inner.policy.op_timeout;
        // Counted once per logical invocation, before the retry loop:
        // guard-blocked and stale-regime retries must not masquerade as
        // fresh accesses in the usage evidence driving regime decisions.
        self.note_access(object, kind);
        // Minted once per logical invocation and re-presented verbatim by
        // every retry: a slot that already applied the write under this
        // stamp answers its recorded reply instead of applying again.
        let stamp = (kind == OpKind::Write).then(|| OpStamp {
            origin: self.inner.node.0,
            seq: self.inner.next_stamp.fetch_add(1, Ordering::Relaxed),
        });
        // When this invocation first found the node it needs dead.
        let mut orphaned: Option<Instant> = None;
        loop {
            if self.inner.stopped.load(Ordering::SeqCst) {
                return Err(RtsError::Terminated);
            }
            let attempt = self
                .route_for(object, deadline)
                .and_then(|table| self.dispatch_client_op(&table, kind, op, stamp, deadline));
            let outcome = match attempt {
                Ok(outcome) => outcome,
                Err(RtsError::NodeDown(node)) if self.inner.recovery.rehome => {
                    // The home (or a partition owner) is dead; adoption or
                    // a regime fallback will re-home the object. Retry
                    // until the deadline — or for as long as a re-homing
                    // is waited for — then name the dead node. The
                    // retry re-presents `stamp`, and the dedup window
                    // rides mirror updates and regime transfers, so a
                    // write the dead home already applied is answered its
                    // recorded reply — exactly once, not at-least-once.
                    self.inner.routes.lock().remove(&object);
                    let since = *orphaned.get_or_insert_with(Instant::now);
                    let patience = since + self.inner.recovery.rehome_wait;
                    if Instant::now() >= deadline.min(patience) {
                        return Err(RtsError::NodeDown(node));
                    }
                    std::thread::sleep(self.inner.policy.blocked_retry_delay);
                    continue;
                }
                Err(err) => return Err(err),
            };
            match outcome {
                PartOutcome::Done(reply) => return Ok(reply),
                PartOutcome::Blocked => {
                    // The guard was false: the replica answered, so the
                    // transport is alive — restart the deadline and retry.
                    RtsStats::bump(&self.inner.stats.guard_retries);
                    std::thread::sleep(self.inner.policy.blocked_retry_delay);
                    deadline = Instant::now() + self.inner.policy.op_timeout;
                }
                PartOutcome::Stale => {
                    // A regime switch is (or was) in flight; re-fetch the
                    // table. The deadline is *not* restarted: a regime that
                    // never settles surfaces Timeout.
                    self.inner.routes.lock().remove(&object);
                    if Instant::now() >= deadline {
                        return Err(RtsError::Timeout);
                    }
                    std::thread::sleep(self.inner.policy.stale_retry_delay);
                }
            }
        }
    }

    fn invoke_async(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> PendingInvocation {
        if self.inner.stopped.load(Ordering::SeqCst) {
            return PendingInvocation::ready(Err(RtsError::Terminated));
        }
        if self.inner.is_lost(object) {
            return PendingInvocation::ready(Err(RtsError::ObjectLost(object)));
        }
        if kind == OpKind::Write {
            RtsStats::bump(&self.inner.stats.writes);
        }
        // The access evidence driving regime decisions counts logical
        // invocations, exactly like the synchronous path.
        self.note_access(object, kind);
        let pipeline = self.ensure_pipeline();
        let trace = trace::current();
        // A guard-blocked op re-enters this same queue from wait(), so its
        // re-execution keeps issue order instead of jumping ahead through
        // the synchronous path.
        let resubmit = {
            let pipeline = Arc::clone(&pipeline);
            let op = op.to_vec();
            Arc::new(move |completer| {
                pipeline.submit(QueuedOp {
                    object,
                    kind,
                    op: op.clone(),
                    trace,
                    submitted: Instant::now(),
                    completer,
                })
            })
        };
        let (handle, completer) = pending_pair(resubmit);
        pipeline.submit(QueuedOp {
            object,
            kind,
            op: op.to_vec(),
            trace,
            submitted: Instant::now(),
            completer,
        });
        handle
    }

    fn stats(&self) -> RtsStatsSnapshot {
        self.inner.stats.snapshot()
    }

    fn kind(&self) -> RtsKind {
        self.inner.policy.kind()
    }
}

/// The node currently playing home for `object`: its creator while alive,
/// the adopter (lowest live node) once the creator is dead and re-homing
/// is enabled. Every home-addressed path (routing, proposals, usage
/// reports, `All` fan-outs) resolves through this, so a recovered object
/// keeps adapting instead of RPC-ing its dead creator.
fn current_home(inner: &Arc<Inner>, object: ObjectId) -> NodeId {
    let creator = NodeId(object.creator_index());
    if is_dead(&inner.detector, creator) && inner.recovery.rehome {
        if let Some(adopter) = inner
            .detector
            .as_ref()
            .and_then(|d| crate::recovery::recovery_home(&d.view()))
        {
            return adopter;
        }
    }
    creator
}

/// RPC dispatch: the service side of the regime protocol, on every node.
fn serve_request(inner: &Arc<Inner>, body: &[u8], caller: NodeId) -> Vec<u8> {
    // An operation batch is applied straight from the request bytes;
    // everything else decodes into an owned message first.
    let reply = match OpBatchView::from_request(RegimeMsg::OP_BATCH_TAG, body) {
        Some(ops) => ops.map(|ops| RegimeReply::Batch(apply_op_batch(inner, &ops, caller))),
        None => RegimeMsg::from_bytes(body).map(|msg| dispatch(inner, msg, caller)),
    }
    .unwrap_or_else(|err| RegimeReply::Error(format!("bad request: {err}")));
    reply.to_bytes()
}

fn dispatch(inner: &Arc<Inner>, msg: RegimeMsg, caller: NodeId) -> RegimeReply {
    match msg {
        RegimeMsg::Route { object } => match home_entry(inner, ObjectId(object)) {
            Ok(entry) => RegimeReply::Route(RegimeTable::clone(&entry.table.lock())),
            Err(RtsError::ObjectLost(_)) => RegimeReply::ObjectLost,
            Err(err) => RegimeReply::Error(err.to_string()),
        },
        RegimeMsg::Op {
            object,
            epoch,
            partition,
            op,
            stamp,
        } => apply_at_slot(
            inner,
            ObjectId(object),
            partition,
            epoch,
            &op,
            stamp,
            caller,
            false,
        ),
        RegimeMsg::WriteThrough {
            object,
            epoch,
            op,
            stamp,
        } => apply_at_slot(inner, ObjectId(object), 0, epoch, &op, stamp, caller, true),
        RegimeMsg::OpAll { object, op } => serve_op_all(inner, ObjectId(object), &op, caller),
        RegimeMsg::Propose { object } => {
            let object = ObjectId(object);
            let entry = inner.homes.read().get(&object).cloned();
            match entry {
                Some(entry) => {
                    evaluate_object(inner, object, &entry);
                    RegimeReply::Route(RegimeTable::clone(&entry.table.lock()))
                }
                None => RegimeReply::Error(format!("not home of {object}")),
            }
        }
        RegimeMsg::Report {
            object,
            reads,
            writes,
        } => {
            let object = ObjectId(object);
            let entry = inner.homes.read().get(&object).cloned();
            if let Some(entry) = entry {
                let every = inner.policy.evaluate_every;
                let due = entry.usage.lock().report(caller.0, reads, writes, every);
                if due {
                    evaluate_object(inner, object, &entry);
                }
            }
            RegimeReply::Ack
        }
        RegimeMsg::Drain {
            object,
            epoch,
            partition,
        } => match drain_local(inner, ObjectId(object), partition, epoch) {
            Some((state, dedup)) => RegimeReply::State { state, dedup },
            None => RegimeReply::StaleRegime,
        },
        RegimeMsg::Install {
            object,
            epoch,
            partition,
            type_name,
            state,
            dedup,
            regime,
            mirrors,
        } => {
            let key = (ObjectId(object), partition);
            let placed = (regime, &mirrors[..]);
            match install_slot(inner, key, epoch, &type_name, &state, dedup, placed) {
                Ok(()) => RegimeReply::Ack,
                Err(err) => RegimeReply::Error(err.to_string()),
            }
        }
        RegimeMsg::Mirror {
            object,
            epoch,
            type_name,
            state,
            seq,
            dedup,
            lease,
        } => {
            let object = ObjectId(object);
            match install_mirror(inner, object, epoch, &type_name, &state, seq, dedup, lease) {
                Ok(_) => RegimeReply::Ack,
                Err(err) => RegimeReply::Error(err.to_string()),
            }
        }
        RegimeMsg::FetchMirror {
            object,
            epoch,
            have,
        } => serve_fetch_mirror(inner, ObjectId(object), epoch, have, caller),
        RegimeMsg::DropMirror {
            object,
            epoch,
            written: Some(version),
        } => {
            // A write invalidates the copy. The version is remembered even
            // when no copy is installed yet: an invalidation that overtakes
            // the fetch reply it races must still refuse that older
            // snapshot, or the late install would serve stale reads.
            let mirror = mirror_entry(inner, ObjectId(object));
            let mut state = mirror.state.lock();
            if epoch >= state.epoch {
                state.enter_epoch(epoch);
                state.seen = state.seen.max(version);
                state.discard();
                RtsStats::bump(&inner.stats.invalidations_received);
                mirror.unlocked.notify_all();
            }
            RegimeReply::Ack
        }
        RegimeMsg::DropMirror {
            object,
            epoch,
            written: None,
        } => {
            let object = ObjectId(object);
            let mirror = inner.mirrors.read().get(&object).cloned();
            if let Some(mirror) = mirror {
                let mut state = mirror.state.lock();
                if state.epoch <= epoch {
                    state.discard();
                    // A switch that is undone installs this epoch's copy
                    // again, and its versions start over.
                    (state.version, state.seen) = (0, 0);
                    mirror.unlocked.notify_all();
                }
            }
            // Backups of the retired epoch go with it: left behind, they
            // would be all an adopter finds of an object that has since
            // gone to a single copy at its home.
            let retired =
                |held: &ObjectId, backup: &BackupSlot| *held == object && backup.epoch <= epoch;
            let mut backups = inner.backups.write();
            backups.retain(|(held, _), backup| !retired(held, backup));
            RegimeReply::Ack
        }
        RegimeMsg::Update {
            object,
            epoch,
            seq,
            held,
            ops,
            stamped,
            lease,
        } => {
            // An update that beats the mirror install creates the (empty)
            // entry, so its sequence number is remembered and a concurrent
            // fetch cannot install an older snapshot as current. The update
            // doubles as the lease renewal: it is what makes the mirror
            // current again.
            let mirror = mirror_entry(inner, ObjectId(object));
            let lease = lease.map(|valid_ms| mirror_lease(inner, valid_ms));
            let budget = inner.policy.op_timeout;
            if mirror.apply_pushed(epoch, seq, held, &ops, stamped, lease, budget) > 0 {
                RtsStats::bump(&inner.stats.updates_applied);
            }
            RegimeReply::Ack
        }
        RegimeMsg::Unlock { object, epoch, seq } => {
            let mirror = inner.mirrors.read().get(&ObjectId(object)).cloned();
            if let Some(mirror) = mirror {
                mirror.unlock(epoch, seq);
            }
            RegimeReply::Ack
        }
        RegimeMsg::Unreached { object, node } => {
            let object = ObjectId(object);
            let entry = inner.homes.read().get(&object).cloned();
            if let Some(entry) = entry {
                entry.usage.lock().forget(node);
                if entry.table.lock().regime == RegimeKind::Replicated {
                    // A failed re-placement leaves the mirror listed; the
                    // next evaluation tries again.
                    let _ = switch_regime(inner, object, &entry, RegimeKind::Replicated, None);
                }
            }
            RegimeReply::Ack
        }
        RegimeMsg::Holdings { object } => {
            RegimeReply::Holdings(Box::new(holdings(inner, ObjectId(object))))
        }
        RegimeMsg::Backup {
            object,
            epoch,
            partition,
            first_version,
            ops,
            stamped,
        } => {
            let key = (ObjectId(object), partition);
            apply_backup(inner, key, epoch, first_version, &ops, stamped)
        }
        RegimeMsg::InstallBackup {
            object,
            epoch,
            partition,
            type_name,
            state,
            version,
            dedup,
        } => match inner.registry.instantiate(&type_name, &state) {
            Ok(replica) => {
                let state = Mutex::new(BackupState {
                    replica,
                    version,
                    dedup,
                });
                inner.backups.write().insert(
                    (ObjectId(object), partition),
                    Arc::new(BackupSlot { epoch, state }),
                );
                RegimeReply::Ack
            }
            Err(err) => RegimeReply::Error(err.to_string()),
        },
        RegimeMsg::PromoteBackup {
            object,
            epoch,
            partition,
        } => promote_backup(inner, (ObjectId(object), partition), epoch),
    }
}

/// This node's home record of `object`. A dead creator's home role falls
/// to the lowest live node; if that is us, the object is re-assembled from
/// what the survivors hold on first contact.
fn home_entry(inner: &Arc<Inner>, object: ObjectId) -> Result<Arc<HomeObject>, RtsError> {
    if inner.is_lost(object) {
        return Err(RtsError::ObjectLost(object));
    }
    if let Some(entry) = inner.homes.read().get(&object).cloned() {
        return Ok(entry);
    }
    let creator = NodeId(object.creator_index());
    let adopter = inner
        .detector
        .as_ref()
        .filter(|d| !d.is_alive(creator))
        .and_then(|d| crate::recovery::recovery_home(&d.view()));
    if inner.recovery.rehome && adopter == Some(inner.node) {
        adopt_object(inner, object)
    } else {
        Err(RtsError::Communication(format!("not home of {object}")))
    }
}

/// The entries of `map` that belong to `object`, by partition — taken out
/// of the map: what they hold is locked next, a replica mutex can be held
/// across a backup RPC, and the map must not wait for that.
fn of_object<T>(
    map: &RwLock<HashMap<(ObjectId, u32), Arc<T>>>,
    object: ObjectId,
) -> Vec<(u32, Arc<T>)> {
    let map = map.read();
    let entries = map.iter().filter(|((held, _), _)| *held == object);
    entries
        .map(|((_, p), entry)| (*p, Arc::clone(entry)))
        .collect()
}

/// What this node holds of `object`, for a recovering home. Locked mirrors
/// report too: the lock only means an update's unlock phase is outstanding,
/// and the applied update may be the freshest state alive.
fn holdings(inner: &Arc<Inner>, object: ObjectId) -> Holdings {
    let mut held = Holdings::default();
    for (partition, slot) in of_object(&inner.slots, object) {
        let replica = slot.replica.lock();
        held.type_name = replica.type_name().to_string();
        let part = (partition, slot.epoch, replica.version(), slot.regime);
        held.slots.push(part);
    }
    for (partition, backup) in of_object(&inner.backups, object) {
        let state = backup.state.lock();
        held.type_name = state.replica.type_name().to_string();
        held.backups.push((partition, backup.epoch, state.version));
    }
    if let Some(mirror) = inner.mirrors.read().get(&object) {
        let state = mirror.state.lock();
        if let Some(copy) = &state.copy {
            held.type_name = copy.type_name().to_string();
            held.mirror = Some((state.epoch, state.version, copy.state_bytes()));
            // The window pairs with exactly this state; an adopter must
            // never combine it with another mirror's snapshot.
            held.dedup = state.dedup.clone();
        }
    }
    held
}

/// Ask every survivor of `view` once — this node included — what it holds
/// of `object`: the first phase of every re-homing.
fn survey(inner: &Arc<Inner>, object: ObjectId, view: &ViewSnapshot) -> Vec<(NodeId, Holdings)> {
    let telemetry = inner.handle.telemetry();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 0);
    let started = Instant::now();
    let query = RegimeMsg::Holdings { object: object.0 };
    let held = view
        .alive
        .iter()
        .filter_map(|&node| {
            if node == inner.node {
                return Some((node, holdings(inner, object)));
            }
            match regime_rpc(inner, node, &query) {
                Ok(RegimeReply::Holdings(held)) => Some((node, *held)),
                _ => None,
            }
        })
        .collect();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 1);
    let coordinate = telemetry.registry().histogram("rts.recovery.coordinate_ns");
    coordinate.record(started.elapsed().as_nanos() as u64);
    held
}

/// Give every partition of sharded-regime `object` that has no owner in
/// `owners` one among the survivors: the node that holds its slot of
/// `epoch` (an earlier promotion) or else, promoted, the one that holds its
/// freshest backup of that epoch. `None` when a partition left neither —
/// the object is lost. The second phase of a re-homing, written once for
/// the live home and for the node that adopts a dead one's role.
fn reown(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    owners: Vec<Option<u16>>,
    held: &[(NodeId, Holdings)],
    view: &ViewSnapshot,
) -> Option<Vec<u16>> {
    let started = Instant::now();
    let owners = owners
        .into_iter()
        .enumerate()
        .map(|(partition, owner)| {
            let at = (partition as u32, epoch);
            if owner.is_some() {
                return owner;
            }
            let serves = |h: &Holdings| h.slots.iter().any(|(p, e, ..)| (*p, *e) == at);
            if let Some((node, _)) = held.iter().find(|(_, h)| serves(h)) {
                return Some(node.0);
            }
            let backups = held.iter().filter_map(|(node, h)| {
                let backup = h.backups.iter().find(|(p, e, _)| (*p, *e) == at);
                backup.map(|(_, _, version)| (*version, *node))
            });
            let (_, holder) = backups.max()?;
            let promote = RegimeMsg::PromoteBackup {
                object: object.0,
                epoch,
                partition: at.0,
            };
            let promoted = if holder == inner.node {
                dispatch(inner, promote, inner.node)
            } else {
                regime_rpc(inner, holder, &promote).ok()?
            };
            matches!(promoted, RegimeReply::Ack).then_some(holder.0)
        })
        .collect();
    let telemetry = inner.handle.telemetry();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 2);
    let rehome = telemetry.registry().histogram("rts.recovery.rehome_ns");
    rehome.record(started.elapsed().as_nanos() as u64);
    owners
}

/// Give the objects this node is home of whose owners `view` no longer
/// contains live ones again. Run on every view change.
fn recover_home_objects(inner: &Arc<Inner>, view: &ViewSnapshot) {
    let homes: Vec<_> = inner
        .homes
        .read()
        .iter()
        .map(|(object, entry)| (*object, Arc::clone(entry)))
        .collect();
    for (object, entry) in homes {
        let _switch = entry.switch.lock();
        recover_object(inner, object, &entry, view);
    }
}

/// [`recover_home_objects`] for one object; the caller holds its switch
/// lock. Orphaned partitions are re-owned and keep their epoch: a client
/// learns of the new owner because it distrusts any table that names a dead
/// one. A replicated regime's one copy is regenerated here, at the home,
/// from the freshest mirror of the table's epoch.
fn recover_object(inner: &Arc<Inner>, object: ObjectId, entry: &HomeObject, view: &ViewSnapshot) {
    let table = Arc::clone(&entry.table.lock());
    let live = |owner: &u16| view.contains(NodeId(*owner));
    if table.owners.iter().all(live) {
        return;
    }
    let held = survey(inner, object, view);
    let recovered = if table.regime == RegimeKind::Sharded {
        let owners = table.owners.iter().map(|o| live(o).then_some(*o)).collect();
        let owners = reown(inner, object, table.epoch, owners, &held, view);
        owners.map(|owners| RegimeTable {
            owners,
            ..RegimeTable::clone(&table)
        })
    } else {
        let mirror = freshest_mirror(&held, Some(table.epoch));
        mirror.and_then(|(epoch, mirror)| regenerate(inner, object, epoch, mirror).ok())
    };
    let Some(recovered) = recovered else {
        inner.lost.write().insert(object);
        return;
    };
    let regenerated = recovered.epoch != table.epoch;
    *entry.table.lock() = Arc::new(recovered);
    if regenerated {
        drop_copies(inner, object, table.epoch, None, view.alive.iter().copied());
    }
}

/// The freshest read mirror the survivors hold — of `epoch` alone, when the
/// table that lists it is known — by `(epoch, version)`; a locked one counts
/// like any other. Returns its epoch and its holder's report.
fn freshest_mirror(held: &[(NodeId, Holdings)], epoch: Option<u64>) -> Option<(u64, &Holdings)> {
    let mirrors = held.iter().filter_map(|(_, h)| {
        let (held_epoch, seq, _) = h.mirror.as_ref()?;
        let wanted = epoch.is_none_or(|epoch| epoch == *held_epoch);
        wanted.then_some(((*held_epoch, *seq), h))
    });
    let freshest = mirrors.max_by_key(|(rank, _)| *rank);
    freshest.map(|((epoch, _), h)| (epoch, h))
}

/// Regenerate a replicated-regime object whose owner died from `mirror`,
/// the freshest one of `epoch`, into a single copy on this node — its home,
/// or the node adopting that role — under `epoch + 1`, and return the table
/// to publish: a primary-regime copy, or, where that regime is pinned, a
/// replicated one without mirrors, which the next evaluation places. The
/// report's dedup window pairs with exactly that mirror's snapshot, so it
/// is taken whole and never merged with another mirror's.
fn regenerate(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    mirror: &Holdings,
) -> Result<RegimeTable, RtsError> {
    let (_, _, state) = mirror.mirror.as_ref().expect("ranked by its mirror");
    let key = (object, 0);
    let (name, dedup) = (&mirror.type_name, mirror.dedup.clone());
    let regime = match inner.policy.pin {
        Some(RegimeKind::Replicated) => RegimeKind::Replicated,
        _ => RegimeKind::Primary,
    };
    // Under the next epoch, which nothing the dead owner's regime left on
    // the survivors answers to. (Sabotaged: under the epoch it had, every
    // other node listed, so whoever kept a copy goes on reading it.)
    let (epoch, mirrors) = match crate::sabotage::rehome_keeps_stale_copies() {
        false => (epoch + 1, Vec::new()),
        true => {
            let others = (0..inner.num_nodes as u16).filter(|node| *node != inner.node.0);
            (epoch, others.collect())
        }
    };
    install_slot(inner, key, epoch, name, state, dedup, (regime, &[][..]))?;
    if inner.leases_enabled() {
        // The dead owner's grant ledger died with it. Fence the new slot
        // for a full conservative grant span: the first write waits it out,
        // so any lease the dead owner granted before crashing has lapsed
        // before a write of the new regime can become visible.
        if let Some(slot) = inner.slots.read().get(&key) {
            slot.leases.lock().fence = Some(Instant::now() + inner.grant_span());
        }
    }
    Ok(RegimeTable {
        object: object.0,
        type_name: mirror.type_name.clone(),
        epoch,
        regime,
        owners: vec![inner.node.0],
        mirrors,
    })
}

/// Have `nodes` — this one among them, perhaps — discard what they hold of
/// `object` up to regime `epoch`, read mirror and partition backups, so
/// nobody keeps serving (or promotes) what that regime left behind — or,
/// `written` naming the version of a write under the invalidation policy,
/// their copy of the current one, to be fetched again. Returns the nodes
/// that did; the regime lease bounds a missed drop. An invalidation runs
/// under the budget of an update push, half the operation deadline for the
/// whole fan-out: its writer is waiting.
fn drop_copies(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    written: Option<u64>,
    nodes: impl Iterator<Item = NodeId>,
) -> Vec<NodeId> {
    let drop_msg = RegimeMsg::DropMirror {
        object: object.0,
        epoch,
        written,
    };
    let budget = written.map(|_| Instant::now() + inner.policy.op_timeout / 2);
    let dropped = nodes.filter(|node| {
        let reply = if *node == inner.node {
            Ok(dispatch(inner, drop_msg.clone(), inner.node))
        } else {
            let deadline = budget.unwrap_or_else(|| Instant::now() + inner.policy.op_timeout);
            regime_rpc_deadline(inner, *node, &drop_msg, deadline)
        };
        matches!(reply, Ok(RegimeReply::Ack))
    });
    dropped.collect()
}

/// Take over a dead creator's object on this node (the adopter) from what
/// the survivors hold of it. Its newest epoch decides: partitions (slots
/// and backups of a sharded regime) are re-owned where they are and keep
/// serving under that epoch, and so does a replicated regime's one copy
/// when its owner is among the survivors; when only read mirrors are, the
/// freshest is regenerated into a single copy here under a fresh epoch.
/// An object that left none of these — a primary-regime copy at the dead
/// home, a partition whose owner and backup both died — is lost.
fn adopt_object(inner: &Arc<Inner>, object: ObjectId) -> Result<Arc<HomeObject>, RtsError> {
    let _adoption = inner.adoption.lock();
    if let Some(entry) = inner.homes.read().get(&object).cloned() {
        return Ok(entry);
    }
    if inner.is_lost(object) {
        return Err(RtsError::ObjectLost(object));
    }
    let Some(detector) = &inner.detector else {
        return Err(RtsError::Communication("no failure detector".into()));
    };
    let view = detector.view();
    let held = survey(inner, object, &view);
    let lost = || {
        inner.lost.write().insert(object);
        RtsError::ObjectLost(object)
    };
    // The newest epoch any survivor serves an authoritative part of — a
    // slot, which names its regime, or a partition's backup — against the
    // freshest mirror.
    let parts = held.iter().flat_map(|(node, h)| {
        let slots = h.slots.iter().map(|slot| (slot.1, slot.3));
        let backups = h.backups.iter().map(|part| (part.1, RegimeKind::Sharded));
        let parts = slots.chain(backups);
        parts.map(move |(epoch, regime)| (epoch, regime, node.0, h))
    });
    let newest = parts.max_by_key(|(epoch, ..)| *epoch);
    let mirror = freshest_mirror(&held, None);
    let newest = newest.filter(|(epoch, ..)| mirror.is_none_or(|(newer, _)| *epoch >= newer));
    // The table to publish and, adopted from a mirror, the epoch to retire.
    let (table, retired) = match (newest, mirror) {
        (Some((epoch, regime, owner, h)), _) => {
            let (owners, mirrors) = if regime == RegimeKind::Sharded {
                // Every node runs the same policy, so how many partitions a
                // sharded-regime object has is known without the dead home.
                let partitions = match inner.registry.shard_logic(&h.type_name) {
                    Some(_) => inner.policy.partitions.max(1) as usize,
                    None => 1,
                };
                let owners = reown(inner, object, epoch, vec![None; partitions], &held, &view);
                (owners.ok_or_else(lost)?, Vec::new())
            } else {
                // One copy, and its owner outlived the home: it keeps
                // serving where it is under the epoch it has — nothing is
                // regenerated, no write fenced — and its mirrors are the
                // survivors that hold one.
                let mirrors = held.iter().filter(|(_, h)| {
                    let mirror = h.mirror.as_ref();
                    mirror.is_some_and(|(held_epoch, ..)| *held_epoch == epoch)
                });
                (vec![owner], mirrors.map(|(node, _)| node.0).collect())
            };
            let table = RegimeTable {
                object: object.0,
                type_name: h.type_name.clone(),
                epoch,
                regime,
                owners,
                mirrors,
            };
            (table, None)
        }
        (None, Some((epoch, h))) => {
            let table = regenerate(inner, object, epoch, h)?;
            let retired = (table.epoch != epoch).then_some(epoch);
            (table, retired)
        }
        _ => return Err(lost()),
    };
    let entry = Arc::new(HomeObject {
        table: Mutex::new(Arc::new(table)),
        switch: Mutex::new(()),
        usage: Mutex::new(UsageAggregate::default()),
    });
    inner.homes.write().insert(object, Arc::clone(&entry));
    if let Some(epoch) = retired {
        drop_copies(inner, object, epoch, None, view.alive.iter().copied());
    }
    Ok(entry)
}

/// The node that backs up the sharded-regime slots this node serves: the
/// next live node after it in index order. `None` with recovery off, or
/// alone.
fn backup_target(inner: &Inner) -> Option<NodeId> {
    if !inner.recovery.enabled {
        return None;
    }
    (1..inner.num_nodes)
        .map(|step| NodeId::from((inner.node.index() + step) % inner.num_nodes))
        .find(|node| !is_dead(&inner.detector, *node))
}

/// Backup traffic waits one attempt slice, not an operation deadline: the
/// owner holds its replica mutex, and an unreachable backup node is skipped
/// — the next write re-targets the then-next live node.
fn backup_rpc(inner: &Arc<Inner>, dst: NodeId, msg: &RegimeMsg) -> Result<RegimeReply, RtsError> {
    regime_rpc_deadline(
        inner,
        dst,
        msg,
        Instant::now() + inner.recovery.attempt_timeout,
    )
}

/// Ship a run of completed writes (one, with its stamp and reply, from the
/// synchronous path) to the slot's backup, as one message. The caller
/// still holds the replica mutex, so the backup sees writes in execution
/// order and none is acknowledged before its backup exists. A backup that
/// lost sync is re-installed from full state.
fn ship_backup(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    ops: Vec<Vec<u8>>,
    stamped: Option<(OpStamp, Vec<u8>)>,
) {
    let Some(target) = backup_target(inner) else {
        return;
    };
    let msg = RegimeMsg::Backup {
        object: key.0 .0,
        epoch: slot.epoch,
        partition: key.1,
        first_version: replica.version() + 1 - ops.len() as u64,
        ops,
        stamped,
    };
    // An unreachable backup node is skipped; one that answers anything but
    // an acknowledgement has lost sync.
    if backup_rpc(inner, target, &msg).is_ok_and(|reply| reply != RegimeReply::Ack) {
        ship_backup_state(inner, key, slot, replica);
    }
}

/// Install (or refresh) the full backup state of a sharded-regime slot on
/// its backup node.
fn ship_backup_state(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
) {
    let Some(target) = backup_target(inner) else {
        return;
    };
    let install = RegimeMsg::InstallBackup {
        object: key.0 .0,
        epoch: slot.epoch,
        partition: key.1,
        type_name: replica.type_name().to_string(),
        state: replica.state_bytes(),
        version: replica.version(),
        dedup: slot.dedup.lock().clone(),
    };
    let _ = backup_rpc(inner, target, &install);
}

/// Backup side of [`ship_backup`]: apply the unseen suffix of the run.
/// Anything but an `Ack` makes the owner re-install the backup whole — a
/// backup it never installed or of another epoch, a run that went missing
/// before this one, an operation that does not complete here as it did at
/// the owner.
fn apply_backup(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    epoch: u64,
    first_version: u64,
    ops: &[Vec<u8>],
    stamped: Option<(OpStamp, Vec<u8>)>,
) -> RegimeReply {
    let backup = inner.backups.read().get(&key).cloned();
    let Some(backup) = backup.filter(|backup| backup.epoch == epoch) else {
        return RegimeReply::StaleRegime;
    };
    let mut state = backup.state.lock();
    if first_version > state.version + 1 {
        return RegimeReply::StaleRegime;
    }
    let seen = (state.version + 1 - first_version) as usize;
    for op in ops.iter().skip(seen) {
        match state.replica.apply_encoded(op) {
            Ok(AppliedOutcome::Done(_)) => state.version += 1,
            Ok(AppliedOutcome::Blocked) | Err(_) => return RegimeReply::StaleRegime,
        }
    }
    if let Some((stamp, reply)) = stamped {
        state.dedup.record(stamp, reply);
    }
    RtsStats::bump(&inner.stats.updates_applied);
    RegimeReply::Ack
}

/// Make this node's backup of `epoch` the authoritative slot (its owner
/// died); the install re-protects it on the next live node before it
/// serves a write.
fn promote_backup(inner: &Arc<Inner>, key: (ObjectId, u32), epoch: u64) -> RegimeReply {
    let backup = {
        let mut backups = inner.backups.write();
        match backups.get(&key) {
            Some(backup) if backup.epoch == epoch => backups.remove(&key),
            _ => None,
        }
    };
    let Some(backup) = backup else {
        return RegimeReply::StaleRegime;
    };
    let state = backup.state.lock();
    let (replica, dedup) = (&state.replica, state.dedup.clone());
    let (name, bytes) = (replica.type_name(), replica.state_bytes());
    let placed = (RegimeKind::Sharded, &[][..]);
    match install_slot(inner, key, epoch, name, &bytes, dedup, placed) {
        Ok(()) => RegimeReply::Ack,
        Err(err) => RegimeReply::Error(err.to_string()),
    }
}

/// Apply one received operation batch in issue order, through the same
/// epoch-checked slot path as single operations. Runs of consecutive ops on
/// one slot execute under a single hold of its replica lock, and what the
/// run's completed writes owe ([`settle_writes`]) is paid as **one** message
/// per destination before the run is acknowledged: one run to the backup of
/// a sharded-regime slot, one pushed run (or one invalidation) to each
/// mirror of a replicated-regime one.
fn apply_op_batch(inner: &Arc<Inner>, ops: &OpBatchView<'_>, caller: NodeId) -> Vec<BatchOutcome> {
    // One protocol-handling event for the whole message, one apply per op
    // — the accounting split the cost model relies on.
    if caller != inner.node {
        RtsStats::bump(&inner.stats.updates_applied);
    }
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut ops = ops.iter().peekable();
    while let Some(first) = ops.peek().copied() {
        let address = |op: &OpRef<'_>| (op.object, op.partition, op.epoch);
        let run = std::iter::from_fn(|| ops.next_if(|op| address(op) == address(&first)));
        let key = (ObjectId(first.object), first.partition);
        let Some(slot) = slot_at(inner, key, first.epoch) else {
            outcomes.extend(run.map(|_| BatchOutcome::Stale));
            continue;
        };
        let mut replica = slot.lock_for(inner, caller);
        let mut written = Vec::new();
        for op in run {
            RtsStats::bump(&inner.stats.batch_ops_applied);
            inner.handle.telemetry().record(
                inner.node.0,
                FlightKind::Apply,
                op.trace,
                op.object,
                u64::from(op.partition),
            );
            // `caller = inner.node` suppresses the per-op `updates_applied`
            // bump; the per-message event was counted above.
            let (me, run) = (inner.node, Some(&mut written));
            outcomes.push(
                match apply_locked(inner, key, &slot, &mut replica, op.op, None, me, false, run) {
                    RegimeReply::Done(reply) => BatchOutcome::Done(reply),
                    RegimeReply::Blocked => BatchOutcome::Blocked,
                    RegimeReply::StaleRegime => BatchOutcome::Stale,
                    RegimeReply::Error(msg) => BatchOutcome::Failed(msg),
                    other => BatchOutcome::Failed(format!("unexpected slot reply {other:?}")),
                },
            );
        }
        if !written.is_empty() {
            settle_writes(inner, key, &slot, &**replica, written, None, None);
        }
    }
    outcomes
}

/// The slot this node serves for `key` under `epoch`, if it does.
fn slot_at(inner: &Inner, key: (ObjectId, u32), epoch: u64) -> Option<Arc<Slot>> {
    let slots = inner.slots.read();
    slots.get(&key).filter(|slot| slot.epoch == epoch).cloned()
}

/// Execute an operation on a locally-served authoritative slot, honoring
/// the epoch and withdrawn-mark discipline ([`apply_locked`]).
#[allow(clippy::too_many_arguments)]
fn apply_at_slot(
    inner: &Arc<Inner>,
    object: ObjectId,
    partition: u32,
    epoch: u64,
    op: &[u8],
    stamp: Option<OpStamp>,
    caller: NodeId,
    through: bool,
) -> RegimeReply {
    let key = (object, partition);
    let Some(slot) = slot_at(inner, key, epoch) else {
        return RegimeReply::StaleRegime;
    };
    let reply = {
        let mut replica = slot.lock_for(inner, caller);
        let (replica, run) = (&mut replica, None);
        apply_locked(inner, key, &slot, replica, op, stamp, caller, through, run)
    };
    if caller == inner.node && slot.fans_out(inner) {
        slot.yield_to_parked();
    }
    reply
}

/// Execute an operation on `slot`, whose replica the caller has locked.
/// What a completed write owes before it is acknowledged
/// ([`settle_writes`]) is paid while the mutex is still held, which keeps it
/// in execution order — here, or, when the caller applies a `run` of a
/// batch, by the caller, for the whole run it is appended to. `through`
/// marks a write the caller ships through its own mirror: when it is
/// freshly applied on a replicated-regime slot, the caller is left out of
/// what the write owes and answered [`RegimeReply::Installed`]; in every
/// other case (retry answered from the dedup window, a slot of another
/// regime) the plain reply tells the caller its mirror is not being kept
/// current.
#[allow(clippy::too_many_arguments)]
fn apply_locked(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &mut Box<dyn AnyReplica>,
    op: &[u8],
    stamp: Option<OpStamp>,
    caller: NodeId,
    through: bool,
    run: Option<&mut Vec<Vec<u8>>>,
) -> RegimeReply {
    if slot.withdrawn.load(Ordering::Relaxed) {
        // A regime switch serialized this replica's state while we were
        // waiting for the lock; applying now would lose the write.
        return RegimeReply::StaleRegime;
    }
    let kind = match replica.op_kind(op) {
        Ok(kind) => kind,
        Err(err) => return RegimeReply::Error(err.to_string()),
    };
    if kind == OpKind::Write {
        // Exactly-once: a retried stamped write the slot (or the state it
        // was regenerated from) already applied is answered its recorded
        // reply without applying again.
        if let Some(stamp) = stamp {
            if let Some(reply) = slot.dedup.lock().lookup(stamp) {
                return RegimeReply::Done(reply.to_vec());
            }
        }
        // Regeneration fence: the dead owner's outstanding read leases are
        // unknown, so the first write of a copy regenerated from a mirror
        // waits out a full grant span. Held under the replica mutex — the
        // fence must also keep this node's own reads from observing the
        // new write early, and it clears within one grant span of the
        // install.
        let fence = slot.leases.lock().fence;
        if let Some(fence) = fence {
            let now = Instant::now();
            if now < fence {
                std::thread::sleep(fence - now);
            }
            slot.leases.lock().fence = None;
        }
    }
    match replica.apply_encoded(op) {
        Ok(AppliedOutcome::Done(reply)) => {
            if caller != inner.node {
                RtsStats::bump(&inner.stats.updates_applied);
            }
            if kind == OpKind::Write {
                let stamped = stamp.map(|stamp| (stamp, reply.clone()));
                if let Some((stamp, reply)) = &stamped {
                    slot.dedup.lock().record(*stamp, reply.clone());
                }
                let through = through && slot.regime == RegimeKind::Replicated;
                let owes = slot.fans_out(inner);
                match run {
                    Some(run) if owes => run.push(op.to_vec()),
                    None if owes => {
                        let (ops, skip) = (vec![op.to_vec()], through.then_some(caller));
                        settle_writes(inner, key, slot, &**replica, ops, stamped, skip);
                    }
                    _ => {}
                }
                if through {
                    // The writer's renewal rides the acknowledgement,
                    // booked like the others when it is sent.
                    let seq = replica.version();
                    let lease = inner.lease_span();
                    if lease.is_some() {
                        renew_mirror_grant(inner, slot, caller);
                    }
                    return RegimeReply::Installed { reply, seq, lease };
                }
            }
            RegimeReply::Done(reply)
        }
        Ok(AppliedOutcome::Blocked) => RegimeReply::Blocked,
        Err(err) => RegimeReply::Error(err.to_string()),
    }
}

/// Pay what the completed writes `ops` — one, or a batch's run, the last of
/// which left `replica` at its current version — owe before they are
/// acknowledged ([`Slot::fans_out`]). The caller holds the replica mutex.
/// On a sharded-regime slot that is a copy to the partition's backup; on
/// the copy of a replicated-regime object, whatever the write policy does
/// to the mirrors, all but `skip` — a writer bringing its own mirror up to
/// date from the acknowledgement — and the dead: a two-phase push of the
/// run ([`push_update`]), or an invalidation naming its last version,
/// which retires the copies with the `DropMirror` and grant settlement a
/// drain uses and leaves the mirrors listed, to fetch at their next read.
fn settle_writes(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    ops: Vec<Vec<u8>>,
    stamped: Option<(OpStamp, Vec<u8>)>,
    skip: Option<NodeId>,
) {
    match slot.regime {
        RegimeKind::Replicated => {
            let mirrors = slot.mirrors.iter().map(|&mirror| NodeId(mirror));
            let others: Vec<NodeId> = mirrors
                .filter(|n| Some(*n) != skip && !is_dead(&inner.detector, *n))
                .collect();
            if others.is_empty() {
                return;
            }
            let last = replica.version();
            match inner.policy.write {
                WritePolicy::Update => {
                    let first = last + 1 - ops.len() as u64;
                    push_update(inner, slot, key.0, &others, first, ops, stamped);
                }
                WritePolicy::Invalidate => {
                    let nodes = || others.iter().copied();
                    let dropped = drop_copies(inner, key.0, slot.epoch, Some(last), nodes());
                    settle_grants(inner, slot, nodes(), &dropped);
                }
            }
        }
        RegimeKind::Sharded => ship_backup(inner, key, slot, replica, ops, stamped),
        RegimeKind::Primary => {}
    }
}

/// Push a run of committed writes — `ops[0]` left the replica at version
/// `first` — to the mirrors `others` of `slot`, in two phases:
/// update-and-lock, then a one-way unlock of the run's last version — for
/// all but the last of them, which is never locked
/// ([`UpdateChannel::two_phase`]). Without read leases this is best-effort
/// under crashes: a mirror that misses an update detects the sequence gap
/// on the next one and re-syncs from the owner. With leases enabled the
/// update doubles as the lease renewal, and a mirror a push could not reach
/// has its outstanding grant *settled* — the write waits out the grant's
/// conservative expiry before it is acknowledged, so no node can still be
/// serving leased reads of the pre-write state when the writer continues.
/// A mirror that does not answer and is not known dead would cost every
/// later write the same: the home is told, once, and re-places the object
/// without it ([`RegimeMsg::Unreached`]).
///
/// The fan-out runs under a budget of half the operation deadline (the
/// replica mutex is held throughout, and the writer is waiting on this
/// reply): a crashed node eats the remaining budget at most once, the
/// rest of the push is skipped, and the owner still answers the writer
/// before *its* deadline expires — a committed write must not be reported
/// as a timeout just because a mirror is unreachable.
fn push_update(
    inner: &Arc<Inner>,
    slot: &Slot,
    object: ObjectId,
    others: &[NodeId],
    first: u64,
    ops: Vec<Vec<u8>>,
    stamped: Option<(OpStamp, Vec<u8>)>,
) {
    let deadline = Instant::now() + inner.policy.op_timeout / 2;
    let (epoch, last) = (slot.epoch, first + ops.len() as u64 - 1);
    // Each phase is encoded once and the bytes fanned out: the lease is the
    // same for all holders (validity counts from each holder's own receipt)
    // and whether a holder is held is one byte, set in place.
    let lease = inner.lease_span();
    let room = ops.iter().map(|op| op.len() + 2).sum::<usize>();
    let mut update = Vec::with_capacity(room + 48);
    RegimeMsg::Update {
        object: object.0,
        epoch,
        seq: first,
        held: true,
        ops,
        stamped,
        lease,
    }
    .encode_into(&mut update);
    let unlock = RegimeMsg::Unlock {
        object: object.0,
        epoch,
        seq: last,
    }
    .to_bytes();
    let push = |node, held| {
        if lease.is_some() {
            renew_mirror_grant(inner, slot, node);
        }
        RegimeMsg::hold_update(&mut update, held);
        regime_rpc_raw(inner, node, &update, deadline).is_ok()
    };
    let failed = inner.updates.two_phase(others, push, &unlock);
    settle_grants(inner, slot, failed.iter().copied(), &[]);
    let alive = failed.iter().filter(|n| !is_dead(&inner.detector, **n));
    for node in alive.map(|node| node.0) {
        let unreached = &mut slot.leases.lock().unreached;
        if !unreached.contains(&node) {
            unreached.push(node);
            let home = current_home(inner, object);
            let object = object.0;
            let report = RegimeMsg::Unreached { object, node }.to_bytes();
            let _ = rpc_notify(&inner.handle, home, ports::RTS_ADAPTIVE, report);
        }
    }
}

/// Book a renewed lease for `holder`'s mirror, as it is sent: the holder
/// counts validity from receipt, so the grantor's conservative expiry can
/// only outlast it — and a push that is never acknowledged may still have
/// delivered the lease, which is why it is booked before, not after.
fn renew_mirror_grant(inner: &Inner, slot: &Slot, holder: NodeId) {
    slot.leases
        .lock()
        .grants
        .insert(holder.0, Instant::now() + inner.grant_span());
    inner.lease_counters.renewals.inc();
}

/// Take the read-lease grants of `holders` off `slot`'s ledger and settle
/// them: the mirrors a push could not reach, the ones a write invalidated,
/// or all of a drained slot's. A holder among `revoked` acknowledged a
/// `DropMirror`, which is the revoke; a dead one cannot answer reads; any
/// other may go on serving leased reads of the old state until its grant
/// runs out, so the caller sleeps that out before it acknowledges the write
/// or hands over the state a new regime will accept writes on. Without
/// leases there is nothing to settle and a missed push or drop stays
/// best-effort.
fn settle_grants(
    inner: &Inner,
    slot: &Slot,
    holders: impl Iterator<Item = NodeId>,
    revoked: &[NodeId],
) {
    for node in holders {
        let Some(expires) = slot.leases.lock().grants.remove(&node.0) else {
            continue;
        };
        let left = expires.saturating_duration_since(Instant::now());
        if revoked.contains(&node) {
            inner.lease_counters.revokes.inc();
        } else if !is_dead(&inner.detector, node) && !left.is_zero() {
            std::thread::sleep(left);
            inner.lease_counters.revokes.inc();
        }
    }
}

/// This node's mirror entry for `object`, created empty on first use.
fn mirror_entry(inner: &Arc<Inner>, object: ObjectId) -> Arc<Mirror> {
    if let Some(entry) = inner.mirrors.read().get(&object) {
        return Arc::clone(entry);
    }
    let mut mirrors = inner.mirrors.write();
    Arc::clone(
        mirrors
            .entry(object)
            .or_insert_with(|| Arc::new(Mirror::default())),
    )
}

/// Install a snapshot of `object` at version `seq` of regime `epoch` — the
/// owner primed it, or this node fetched it — as the local mirror, with the
/// lease that came along. False when the mirror has moved on to a newer
/// regime meanwhile: the retired snapshot would regress it. Nor is a
/// snapshot installed that an update raced ahead of; the next read fetches.
#[allow(clippy::too_many_arguments)]
fn install_mirror(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    type_name: &str,
    state_bytes: &[u8],
    seq: u64,
    dedup: DedupWindow,
    lease: Option<u64>,
) -> Result<bool, RtsError> {
    let replica = inner.registry.instantiate(type_name, state_bytes)?;
    let mirror = mirror_entry(inner, object);
    let mut state = mirror.state.lock();
    if epoch < state.epoch {
        return Ok(false);
    }
    state.enter_epoch(epoch);
    let lease = lease.map(|valid_ms| mirror_lease(inner, valid_ms));
    if state.install_snapshot(replica, seq, dedup, lease) {
        RtsStats::bump(&inner.stats.copies_fetched);
    }
    mirror.unlocked.notify_all();
    Ok(true)
}

/// Owner side of a mirror fetch: the slot's state and a lease over it, or
/// the lease alone when the caller's copy, at version `have`, is current.
/// Only a mirror the slot lists is served — the table is the truth: anyone
/// else re-reads it and ships its reads, instead of fetching its way into
/// the push set.
fn serve_fetch_mirror(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    have: Option<u64>,
    caller: NodeId,
) -> RegimeReply {
    let Some(slot) = slot_at(inner, (object, 0), epoch) else {
        return RegimeReply::StaleRegime;
    };
    if !slot.mirrors.contains(&caller.0) {
        return RegimeReply::StaleRegime;
    }
    let replica = slot.lock_for(inner, caller);
    if slot.withdrawn.load(Ordering::Relaxed) {
        return RegimeReply::StaleRegime;
    }
    let seq = replica.version();
    let lease = inner.lease_span();
    {
        let mut leases = slot.leases.lock();
        if lease.is_some() {
            // Record the conservative grant span before the reply leaves,
            // so a write can never observe the mirror reading without a
            // tracked grant to wait out.
            let expires = Instant::now() + inner.grant_span();
            leases.grants.insert(caller.0, expires);
        }
        // A mirror that asks is answering again.
        leases.unreached.retain(|node| *node != caller.0);
    }
    match lease {
        Some(valid_ms) if have == Some(seq) => {
            inner.lease_counters.renewals.inc();
            RegimeReply::Renewed(LeaseGrant {
                object: object.0,
                epoch,
                seq,
                valid_ms,
            })
        }
        _ => {
            if lease.is_some() {
                inner.lease_counters.grants.inc();
            }
            RegimeReply::MirrorState {
                state: replica.state_bytes(),
                seq,
                dedup: slot.dedup.lock().clone(),
                lease,
            }
        }
    }
}

/// Execute an `All`-routed operation at the home, under the switch lock,
/// so its per-partition shares can never interleave with a regime change.
fn serve_op_all(inner: &Arc<Inner>, object: ObjectId, op: &[u8], caller: NodeId) -> RegimeReply {
    let entry = match home_entry(inner, object) {
        Ok(entry) => entry,
        Err(RtsError::ObjectLost(_)) => return RegimeReply::ObjectLost,
        // Not the home, or not yet: the caller re-fetches the table, which
        // is what makes an adopter adopt.
        Err(_) => return RegimeReply::StaleRegime,
    };
    let _switch = entry.switch.lock();
    let table = entry.table.lock().clone();
    match table.regime {
        // Nobody routes to every partition of a single copy: the caller
        // went by a retired sharded-regime table.
        RegimeKind::Primary | RegimeKind::Replicated => RegimeReply::StaleRegime,
        RegimeKind::Sharded => {
            let Some(logic) = inner.registry.shard_logic(&table.type_name) else {
                return RegimeReply::Error(format!("no shard logic for {}", table.type_name));
            };
            let parts = table.partitions();
            let mut replies = Vec::with_capacity(parts as usize);
            for partition in 0..parts {
                let share = match logic.op_for(op, partition, parts) {
                    Ok(share) => share,
                    Err(err) => return RegimeReply::Error(err.to_string()),
                };
                // A share's stamp is minted here, one per partition: the
                // client's would be shared by all of them, and windows merge
                // when partitions do.
                let stamp = Some(OpStamp {
                    origin: inner.node.0,
                    seq: inner.next_stamp.fetch_add(1, Ordering::Relaxed),
                });
                let reply = loop {
                    let table = Arc::clone(&entry.table.lock());
                    let owner = NodeId(table.owners[partition as usize]);
                    let epoch = table.epoch;
                    let sent = if owner == inner.node {
                        Ok(apply_at_slot(
                            inner, object, partition, epoch, &share, stamp, caller, false,
                        ))
                    } else {
                        let request = RegimeMsg::Op {
                            object: object.0,
                            epoch,
                            partition,
                            op: share.clone(),
                            stamp,
                        };
                        regime_rpc(inner, owner, &request)
                    };
                    match (sent, &inner.detector) {
                        // The owner is dead, found so or found out: the
                        // operation waits for the promotion like one routed
                        // to that partition alone, and the share goes to the
                        // promoted backup, whose window knows whether the
                        // owner had applied it.
                        (Err(RtsError::NodeDown(_)), Some(detector)) if inner.recovery.rehome => {
                            recover_object(inner, object, &entry, &detector.view());
                            if inner.is_lost(object) {
                                return RegimeReply::ObjectLost;
                            }
                        }
                        (Ok(reply), _) => break reply,
                        (Err(err), _) => return RegimeReply::Error(err.to_string()),
                    }
                };
                match reply {
                    RegimeReply::Done(bytes) => replies.push(bytes),
                    // None of the standard All-routed operations carries a
                    // guard; partial application of a blocking batch could
                    // not be rolled back, so it is rejected outright.
                    RegimeReply::Blocked => {
                        return RegimeReply::Error(
                            "blocking all-partition operations are not supported".into(),
                        )
                    }
                    RegimeReply::StaleRegime => {
                        // Cannot happen while the switch lock is held unless
                        // an owner lost its slot to a crash.
                        return RegimeReply::Error(format!(
                            "partition {partition} of {object} unavailable"
                        ));
                    }
                    RegimeReply::Error(msg) => return RegimeReply::Error(msg),
                    other => return RegimeReply::Error(format!("unexpected Op reply {other:?}")),
                }
            }
            match logic.combine(op, replies) {
                Ok(reply) => RegimeReply::Done(reply),
                Err(err) => RegimeReply::Error(err.to_string()),
            }
        }
    }
}

/// Withdraw a locally-served slot for a regime switch and return its
/// serialized state plus the dedup window that describes exactly that
/// state. Returns `None` when the slot is absent or belongs to a
/// different epoch (duplicate or late drain).
///
/// The mirrors of a replicated-regime slot are retired with it, by the node
/// that granted their leases, and *after* the withdrawal: a racing
/// `FetchMirror` is answered `StaleRegime` and cannot resurrect one;
/// existing mirrors serve the last committed state until their drop
/// arrives, and no write can commit anywhere until the new regime
/// publishes, so those reads stay consistent (best-effort under crashes;
/// the regime lease bounds the window for a node whose drop was lost, and
/// its read lease is waited out here).
fn drain_local(
    inner: &Arc<Inner>,
    object: ObjectId,
    partition: u32,
    epoch: u64,
) -> Option<(Vec<u8>, DedupWindow)> {
    let slot = {
        let mut slots = inner.slots.write();
        match slots.get(&(object, partition)) {
            Some(slot) if slot.epoch == epoch => slots.remove(&(object, partition)),
            _ => None,
        }
    }?;
    // Mark the slot withdrawn in the same critical section that snapshots
    // the state: an operation that cloned the slot out of `slots` before
    // the removal above will acquire this mutex later, see the mark and
    // answer StaleRegime instead of applying to the orphaned replica. The
    // dedup window is cloned under the same lock so it pairs with exactly
    // this snapshot.
    let drained = {
        let replica = slot.replica.lock();
        slot.withdrawn.store(true, Ordering::Relaxed);
        (replica.state_bytes(), slot.dedup.lock().clone())
    };
    RtsStats::bump(&inner.stats.copies_dropped);
    let unreached = std::mem::take(&mut slot.leases.lock().unreached);
    let mirrors = || slot.mirrors.iter().map(|&mirror| NodeId(mirror));
    let answering = mirrors().filter(|node| !unreached.contains(&node.0));
    let dropped = drop_copies(inner, object, epoch, None, answering);
    settle_grants(inner, &slot, mirrors(), &dropped);
    Some(drained)
}

/// Install an authoritative slot on this node, `placed` = the regime it
/// serves and its mirrors. A sharded-regime slot is protected — its state
/// shipped to the backup node — before it becomes visible, so no write can
/// reach the backup ahead of the state it applies to. The mirrors of a
/// replicated-regime slot are primed here, wherever the slot is, each with
/// a lease booked in the slot's own ledger — best-effort: a mirror that
/// misses its install fetches on its first read.
fn install_slot(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    epoch: u64,
    type_name: &str,
    state: &[u8],
    dedup: DedupWindow,
    (regime, mirrors): (RegimeKind, &[u16]),
) -> Result<(), RtsError> {
    let replica = inner.registry.instantiate(type_name, state)?;
    let mut leases = SlotLeases::default();
    if !mirrors.is_empty() {
        // Encoded once: the grant is the same for every mirror (validity
        // counts from each holder's own receipt).
        let lease = inner.lease_span();
        let prime = RegimeMsg::Mirror {
            object: key.0 .0,
            epoch,
            type_name: type_name.to_string(),
            state: state.to_vec(),
            seq: replica.version(),
            dedup: dedup.clone(),
            lease,
        }
        .to_bytes();
        for &mirror in mirrors {
            let deadline = Instant::now() + inner.policy.op_timeout;
            let primed = regime_rpc_raw(inner, NodeId(mirror), &prime, deadline);
            if lease.is_some() && matches!(primed, Ok(RegimeReply::Ack)) {
                let expires = Instant::now() + inner.grant_span();
                leases.grants.insert(mirror, expires);
                inner.lease_counters.grants.inc();
            }
        }
    }
    let slot = Slot {
        replica: Mutex::new(replica),
        epoch,
        withdrawn: AtomicBool::new(false),
        regime,
        mirrors: mirrors.to_vec(),
        dedup: Mutex::new(dedup),
        leases: Mutex::new(leases),
        parked: AtomicU32::new(0),
    };
    if regime == RegimeKind::Sharded {
        ship_backup_state(inner, key, &slot, &**slot.replica.lock());
    }
    inner.slots.write().insert(key, Arc::new(slot));
    Ok(())
}

/// Install the authoritative slots `table` names, cut from the
/// whole-object state `full`: one copy at its owner under the primary and
/// replicated regimes, one partition per owner under the sharded regime (a
/// type that does not shard is one partition). When an owner cannot take
/// its partition the partial install is discarded — local slots directly,
/// remote ones with a best-effort drain; the epoch is never published, so
/// an unreachable node's leftover slot can take no operation — and the
/// error returned.
fn install_slots(
    inner: &Arc<Inner>,
    table: &RegimeTable,
    full: &[u8],
    dedup: &DedupWindow,
) -> Result<(), RtsError> {
    let object = table_object(table);
    let states = match inner.registry.shard_logic(&table.type_name) {
        Some(logic) if table.regime == RegimeKind::Sharded => {
            logic.split_state(full, table.partitions())?
        }
        _ => vec![full.to_vec()],
    };
    let mut installed: Vec<(u32, NodeId)> = Vec::new();
    let mut failure = None;
    for ((partition, &owner), state) in (0u32..).zip(&table.owners).zip(states) {
        let owner = NodeId(owner);
        let done = install_at(inner, owner, table, partition, state, dedup.clone());
        match done {
            Ok(()) => installed.push((partition, owner)),
            Err(err) => {
                failure = Some(err);
                break;
            }
        }
    }
    let Some(failure) = failure else {
        return Ok(());
    };
    for (partition, owner) in installed {
        if owner == inner.node {
            let mut slots = inner.slots.write();
            if slots
                .get(&(object, partition))
                .is_some_and(|slot| slot.epoch == table.epoch)
            {
                slots.remove(&(object, partition));
            }
        } else {
            let drain = RegimeMsg::Drain {
                object: object.0,
                epoch: table.epoch,
                partition,
            };
            let _ = regime_rpc(inner, owner, &drain);
        }
    }
    Err(failure)
}

/// Install partition `partition` of `table` — its state, the dedup window
/// recorded against exactly that state, the regime and the mirrors the
/// table names — at `owner`, this node or another.
fn install_at(
    inner: &Arc<Inner>,
    owner: NodeId,
    table: &RegimeTable,
    partition: u32,
    state: Vec<u8>,
    dedup: DedupWindow,
) -> Result<(), RtsError> {
    let object = table_object(table);
    if owner == inner.node {
        let key = (object, partition);
        let placed = (table.regime, &table.mirrors[..]);
        let name = &table.type_name;
        return install_slot(inner, key, table.epoch, name, &state, dedup, placed);
    }
    let install = RegimeMsg::Install {
        object: object.0,
        epoch: table.epoch,
        partition,
        type_name: table.type_name.clone(),
        state,
        dedup,
        regime: table.regime,
        mirrors: table.mirrors.clone(),
    };
    match regime_rpc(inner, owner, &install)? {
        RegimeReply::Ack => Ok(()),
        other => Err(RtsError::Communication(format!(
            "{owner} refused partition {partition} of {object}: {other:?}"
        ))),
    }
}

/// Server-side regime RPC (switch and fan-out traffic), bounded by the
/// policy deadline.
fn regime_rpc(inner: &Arc<Inner>, dst: NodeId, msg: &RegimeMsg) -> Result<RegimeReply, RtsError> {
    regime_rpc_deadline(inner, dst, msg, Instant::now() + inner.policy.op_timeout)
}

/// Server-side regime RPC bounded by an explicit shared deadline: a
/// fan-out whose early legs stall (crashed peer) skips the remaining
/// legs instead of multiplying the stall.
fn regime_rpc_deadline(
    inner: &Arc<Inner>,
    dst: NodeId,
    msg: &RegimeMsg,
    deadline: Instant,
) -> Result<RegimeReply, RtsError> {
    regime_rpc_raw(inner, dst, &msg.to_bytes(), deadline)
}

/// Like [`regime_rpc_deadline`] but takes the already-encoded request, so
/// fan-outs (update pushes) encode once and ship the same bytes.
fn regime_rpc_raw(
    inner: &Arc<Inner>,
    dst: NodeId,
    body: &[u8],
    deadline: Instant,
) -> Result<RegimeReply, RtsError> {
    let reply = recovery_rpc(
        &inner.handle,
        &inner.detector,
        &inner.recovery,
        dst,
        ports::RTS_ADAPTIVE,
        body,
        deadline,
    )?;
    RegimeReply::from_bytes(&reply)
        .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
}

/// Close a usage window at the home and switch the regime if the decayed
/// evidence says a different one fits — or, for a regime that places by
/// use, the same one over different nodes.
fn evaluate_object(inner: &Arc<Inner>, object: ObjectId, entry: &Arc<HomeObject>) {
    if !inner.policy.counts_usage() {
        return;
    }
    let (reads, writes) = {
        let mut usage = entry.usage.lock();
        let totals = usage.totals();
        usage.end_window();
        totals
    };
    if reads + writes < inner.policy.min_accesses {
        return;
    }
    let (current, type_name) = {
        let table = entry.table.lock();
        (table.regime, table.type_name.clone())
    };
    let target = inner.policy.pin.unwrap_or_else(|| {
        let shardable = inner.registry.shard_logic(&type_name).is_some();
        let nodes = inner.num_nodes;
        pick_regime(reads, writes, shardable, nodes, current, &inner.policy)
    });
    // The sharded and replicated regimes place by use, so they are worth a
    // second look when the regime itself fits: the switch returns early
    // unless the placement moved.
    if target != current || target != RegimeKind::Primary {
        // A failed switch (crashed peer) leaves the old regime in place;
        // the next evaluation window simply proposes it again.
        let _ = switch_regime(inner, object, entry, target, None);
    }
}

/// Owners of the partitions of sharded-regime `object`, by use: spread
/// evenly over the nodes `usage` says access it — all of them when it says
/// nothing, as for an object just created. An owner in `owned` that has
/// been quiet for less than a regime lease — the time scale on which nodes
/// learn of a placement at all — keeps its partitions.
fn placement(inner: &Inner, object: ObjectId, usage: &UsageAggregate, owned: &[u16]) -> Vec<u16> {
    let (nodes, grace) = (inner.num_nodes, inner.policy.regime_lease);
    let users = usage.users(Count::Accesses, nodes, owned, grace);
    (0..inner.policy.partitions.max(1))
        .map(|partition| place(object, partition, &users))
        .collect()
}

/// Execute a regime switch: drain the old regime's replicas, merge their
/// states, install the new regime under the next epoch, publish the table.
/// The only path that changes an owner or a mirror set of a live object:
/// moving a sharded object's partitions to the nodes that use it now — or
/// one of them where `moved` says, by hand — and a replicated object's copy
/// to a node that writes it, its mirrors to the ones that read it, is a
/// switch to the same regime (what stays is re-installed where it was —
/// handing single partitions or mirrors over would be a second mechanism
/// for a state this small).
fn switch_regime(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &Arc<HomeObject>,
    target: RegimeKind,
    moved: Option<(u32, NodeId)>,
) -> Result<(), RtsError> {
    let _switch = entry.switch.lock();
    let old = RegimeTable::clone(&entry.table.lock());
    let logic = inner.registry.shard_logic(&old.type_name);
    let owned: &[u16] = match old.regime {
        RegimeKind::Sharded => &old.owners,
        _ => &[],
    };
    let (owners, mirrors): (Vec<u16>, Vec<u16>) = match (target, moved) {
        (RegimeKind::Sharded, Some((partition, dst))) => {
            let mut owners = owned.to_vec();
            let owner = owners.get_mut(partition as usize).ok_or_else(|| {
                RtsError::Communication(format!("no partition {partition} of {object}"))
            })?;
            *owner = dst.0;
            (owners, Vec::new())
        }
        (RegimeKind::Sharded, None) if logic.is_none() => return Ok(()),
        (RegimeKind::Sharded, None) => (
            placement(inner, object, &entry.usage.lock(), owned),
            Vec::new(),
        ),
        (RegimeKind::Replicated, _) => {
            // Entering the regime, the copy is the home's and has no
            // mirrors: where the rule leaves it when nothing is known.
            let (owner, named) = match old.regime {
                RegimeKind::Replicated => (old.owners[0], &old.mirrors[..]),
                _ => (inner.node.0, &[][..]),
            };
            let (nodes, grace) = (inner.num_nodes, inner.policy.regime_lease);
            let (owner, mut mirrors) = entry.usage.lock().replicate(nodes, owner, named, grace);
            // A copy nobody reads would live on its one writer alone, and
            // die with it: where a dead owner's copy is regenerated, one
            // that leaves its home leaves a mirror there to do it from.
            if inner.recovery.rehome && mirrors.is_empty() && owner != inner.node.0 {
                mirrors.push(inner.node.0);
            }
            (vec![owner], mirrors)
        }
        (RegimeKind::Primary, _) => (vec![inner.node.0], Vec::new()),
    };
    if old.regime == target && old.owners == owners && old.mirrors == mirrors {
        return Ok(());
    }
    // Every owner has to hand its replica over, so one already known dead
    // fails the switch before anything is withdrawn: once a dead owner's
    // evidence has decayed every evaluation asks for a re-placement, which
    // must not drain and re-install the surviving partitions each time.
    if let Some(&dead) = old
        .owners
        .iter()
        .find(|&&owner| is_dead(&inner.detector, NodeId(owner)))
    {
        return Err(RtsError::NodeDown(NodeId(dead)));
    }

    // Phase 1: drain every authoritative replica of the old regime. Each
    // drained state travels with the dedup window that was recorded
    // against exactly that state, and a replicated regime's owner retires
    // its mirrors and their leases before it answers.
    let mut states: Vec<(Vec<u8>, DedupWindow)> = Vec::with_capacity(old.owners.len());
    for (partition, &owner) in old.owners.iter().enumerate() {
        let partition = partition as u32;
        let drained = if NodeId(owner) == inner.node {
            drain_local(inner, object, partition, old.epoch)
                .ok_or_else(|| RtsError::Communication(format!("slot {partition} already gone")))
        } else {
            match regime_rpc(
                inner,
                NodeId(owner),
                &RegimeMsg::Drain {
                    object: object.0,
                    epoch: old.epoch,
                    partition,
                },
            ) {
                Ok(RegimeReply::State { state, dedup }) => Ok((state, dedup)),
                Ok(other) => Err(RtsError::Communication(format!(
                    "unexpected Drain reply {other:?}"
                ))),
                Err(err) => Err(err),
            }
        };
        match drained {
            Ok(state) => states.push(state),
            Err(err) => {
                // Reinstall what was drained under the old epoch so the old
                // regime keeps serving, and report the failed switch.
                undo_drain(inner, &old, &states);
                return Err(err);
            }
        }
    }

    // The backups of a sharded regime's slots are retired after the drain,
    // this node's included: a node whose drop was lost keeps one that is
    // never promoted while the object's newer epoch leaves a trace among
    // the survivors.
    if old.regime == RegimeKind::Sharded && inner.recovery.enabled {
        let everyone = (0..inner.num_nodes).map(NodeId::from);
        drop_copies(inner, object, old.epoch, None, everyone);
    }

    // Phase 2: merge the drained states into one whole-object state
    // (`states` stays alive so any later failure can re-install the old
    // regime — a drained object must never be lost). The dedup windows
    // merge alongside: lookups are by stamp, so an entry recorded at one
    // partition is simply inert at another.
    let mut dedup = DedupWindow::new();
    for (_, window) in &states {
        dedup.merge(window);
    }
    let full = if states.len() == 1 {
        states[0].0.clone()
    } else {
        let logic = logic
            .as_ref()
            .expect("multi-partition regime implies shard logic");
        match logic.merge_states(states.iter().map(|(state, _)| state.clone()).collect()) {
            Ok(full) => full,
            Err(err) => {
                undo_drain(inner, &old, &states);
                return Err(err.into());
            }
        }
    };

    // Phase 3: install the new regime. Any failure here re-installs the
    // old regime from the drained states, so evaluate_object's invariant —
    // a failed switch leaves the old regime in place — holds on every
    // error path.
    let new = RegimeTable {
        epoch: old.epoch + 1,
        regime: target,
        owners,
        mirrors,
        ..old.clone()
    };
    let new = match install_new_regime(inner, &old, new, &full, &dedup) {
        Ok(new) => new,
        Err(err) => {
            undo_drain(inner, &old, &states);
            return Err(err);
        }
    };

    // Phase 4: publish.
    let regime = new.regime;
    *entry.table.lock() = Arc::new(new);
    RtsStats::bump(&inner.stats.regime_switches);
    if regime == old.regime {
        inner.replacements.inc();
    }
    inner.handle.telemetry().record_traced(
        inner.node.0,
        FlightKind::RegimeSwitch,
        object.0,
        regime as u64,
    );
    Ok(())
}

/// Install the replicas of `new` — the target regime at its owners, under
/// the next epoch — and return the table to publish. Remote install
/// failures fall back to a primary copy at home under a further epoch — the
/// merged state is in hand, so the fallback cannot fail remotely — except
/// when the regime was only being re-placed: its old owners were serving a
/// moment ago and take their replicas back. An error return means nothing
/// usable was installed and the caller re-installs the old regime.
fn install_new_regime(
    inner: &Arc<Inner>,
    old: &RegimeTable,
    new: RegimeTable,
    full: &[u8],
    dedup: &DedupWindow,
) -> Result<RegimeTable, RtsError> {
    match install_slots(inner, &new, full, dedup) {
        Ok(()) => Ok(new),
        Err(_) if old.regime != new.regime => {
            let fallback = RegimeTable {
                epoch: new.epoch + 1,
                regime: RegimeKind::Primary,
                owners: vec![inner.node.0],
                mirrors: Vec::new(),
                ..new
            };
            install_slots(inner, &fallback, full, dedup)?;
            Ok(fallback)
        }
        Err(err) => Err(err),
    }
}

/// Put drained partitions back at their old owners (failed switch), so the
/// old regime keeps serving without any lost state. Each partition's dedup
/// window goes back with the state it was drained with.
fn undo_drain(inner: &Arc<Inner>, old: &RegimeTable, states: &[(Vec<u8>, DedupWindow)]) {
    for ((partition, &owner), (state, dedup)) in (0u32..).zip(&old.owners).zip(states) {
        let (state, dedup) = (state.clone(), dedup.clone());
        let _ = install_at(inner, NodeId(owner), old, partition, state, dedup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::message::WIRE_HEADER_BYTES;
    use orca_amoeba::network::Network;
    use orca_object::testing::{Accumulator, AccumulatorOp, Bank, BankOp, BankReply};
    use orca_object::ObjectType;

    fn registry() -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry.register_sharded::<Bank>();
        registry
    }

    fn start_all(net: &Network, policy: AdaptivePolicy) -> Vec<AdaptiveRts> {
        net.node_ids()
            .into_iter()
            .map(|n| AdaptiveRts::start(net.handle(n), registry(), policy))
            .collect()
    }

    fn shutdown_all(rtses: &[AdaptiveRts]) {
        for rts in rtses {
            rts.shutdown();
        }
    }

    /// Wait for what a usage report leads to. A report is one-way: the
    /// invocation that sent it returns before the home has evaluated.
    fn eventually(what: &str, holds: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !holds() {
            assert!(Instant::now() < deadline, "never happened: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn add(rts: &AdaptiveRts, id: ObjectId, n: i64) -> i64 {
        let reply = rts
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(n).to_bytes(),
            )
            .unwrap();
        i64::from_bytes(&reply).unwrap()
    }

    fn read(rts: &AdaptiveRts, id: ObjectId) -> i64 {
        let reply = rts
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::Read.to_bytes(),
            )
            .unwrap();
        i64::from_bytes(&reply).unwrap()
    }

    fn deposit(rts: &AdaptiveRts, id: ObjectId, key: u64, amount: i64) -> i64 {
        let reply = rts
            .invoke(
                id,
                Bank::TYPE_NAME,
                OpKind::Write,
                &BankOp::Deposit { key, amount }.to_bytes(),
            )
            .unwrap();
        let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
        v
    }

    fn bank_sum(rts: &AdaptiveRts, id: ObjectId) -> i64 {
        let reply = rts
            .invoke(id, Bank::TYPE_NAME, OpKind::Read, &BankOp::Sum.to_bytes())
            .unwrap();
        let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
        v
    }

    #[test]
    fn starts_primary_and_round_trips_across_nodes() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::default());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(rtses[1].regime_of(id).unwrap(), (RegimeKind::Primary, 0));
        assert_eq!(add(&rtses[1], id, 5), 5);
        assert_eq!(add(&rtses[2], id, 7), 12);
        assert_eq!(read(&rtses[0], id), 12);
        assert_eq!(read(&rtses[2], id), 12);
        assert!(rtses[2].stats().remote_reads >= 1);
        assert!(rtses[1].stats().remote_writes >= 1);
        shutdown_all(&rtses);
    }

    #[test]
    fn read_heavy_object_switches_to_replicated_and_reads_go_local() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &1i64.to_bytes())
            .unwrap();
        // A read burst from every node pushes the ratio over the
        // replicate threshold.
        for rts in &rtses {
            for _ in 0..24 {
                assert_eq!(read(rts, id), 1);
            }
            rts.flush_usage(id);
        }
        assert_eq!(rtses[1].propose(id).unwrap(), RegimeKind::Replicated);
        let (regime, epoch) = rtses[2].regime_of(id).unwrap();
        assert_eq!(regime, RegimeKind::Replicated);
        // Node 0's sixteenth read switched the regime, when the only reader
        // known was the owner itself: no mirror. Nodes 1 and 2 each joined
        // when its own reads were reported — two re-placements.
        assert_eq!(epoch, 3);

        // Reads now hit the local mirror.
        let before = rtses[1].stats().local_reads;
        for _ in 0..10 {
            assert_eq!(read(&rtses[1], id), 1);
        }
        assert!(rtses[1].stats().local_reads >= before + 10);

        // A write at a non-home node propagates to every mirror before it
        // completes (two-phase update push).
        assert_eq!(add(&rtses[2], id, 9), 10);
        assert_eq!(read(&rtses[1], id), 10);
        assert_eq!(read(&rtses[0], id), 10);
        assert!(rtses[1].stats().updates_applied >= 1);
        shutdown_all(&rtses);
    }

    #[test]
    fn write_hot_shardable_object_switches_to_sharded() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        for (n, rts) in rtses.iter().enumerate() {
            for key in 0..16u64 {
                deposit(rts, id, key, (n + 1) as i64);
            }
            rts.flush_usage(id);
        }
        assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Sharded);
        // Writes keep working and spread over partition owners.
        for key in 0..16u64 {
            deposit(&rtses[1], id, key, 1);
        }
        let expected: i64 = (1..=4i64).sum::<i64>() * 16 + 16;
        for rts in &rtses {
            assert_eq!(bank_sum(rts, id), expected);
        }
        assert!(rtses.iter().any(|rts| rts.stats().updates_applied > 0));
        // The sharded slots really are distributed.
        let distinct: std::collections::BTreeSet<u16> = rtses
            .iter()
            .flat_map(|rts| {
                let slots = rts.inner.slots.read();
                slots
                    .keys()
                    .filter(|(obj, _)| *obj == id)
                    .map(|_| rts.inner.node.0)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(distinct.len() > 1, "partitions should span nodes");
        shutdown_all(&rtses);
    }

    #[test]
    fn write_hot_non_shardable_object_stays_primary() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        for rts in &rtses {
            for _ in 0..24 {
                add(rts, id, 1);
            }
            rts.flush_usage(id);
        }
        assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Primary);
        assert_eq!(read(&rtses[1], id), 48);
        shutdown_all(&rtses);
    }

    #[test]
    fn regime_switches_under_concurrent_writers_lose_nothing() {
        // Writers hammer a bank while its regime is forced back and forth
        // between every pair of regimes. Every acknowledged deposit must
        // survive: an op that races a drain either lands before the state
        // snapshot (and is part of the merged state) or is answered
        // StaleRegime and retried under the new regime.
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            // Manual switching only: evaluations never fire on their own.
            report_every: u64::MAX,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        const DEPOSITS: i64 = 120;
        let writers: Vec<_> = rtses
            .iter()
            .map(|rts| {
                let rts = rts.clone();
                std::thread::spawn(move || {
                    for i in 0..DEPOSITS {
                        deposit(&rts, id, (i % 16) as u64, 1);
                    }
                })
            })
            .collect();
        // Force switches through every regime while the writers run.
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        for target in [
            RegimeKind::Sharded,
            RegimeKind::Replicated,
            RegimeKind::Primary,
            RegimeKind::Sharded,
            RegimeKind::Primary,
            RegimeKind::Replicated,
            RegimeKind::Sharded,
        ] {
            switch_regime(&rtses[0].inner, id, &home, target, None).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(
            bank_sum(&rtses[1], id),
            DEPOSITS * rtses.len() as i64,
            "acknowledged writes were lost across regime switches"
        );
        assert!(rtses[0].stats().regime_switches >= 7);
        shutdown_all(&rtses);
    }

    #[test]
    fn blocked_guarded_read_survives_a_regime_switch() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            report_every: u64::MAX,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let waiter = {
            let rts = rtses[1].clone();
            std::thread::spawn(move || {
                let reply = rts
                    .invoke(
                        id,
                        Accumulator::TYPE_NAME,
                        OpKind::Read,
                        &AccumulatorOp::AwaitAtLeast(50).to_bytes(),
                    )
                    .unwrap();
                i64::from_bytes(&reply).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        // Switch to replicated while the reader is parked, then satisfy
        // the guard from the other node.
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated, None).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(add(&rtses[0], id, 60), 60);
        assert_eq!(waiter.join().unwrap(), 60);
        assert!(rtses[1].stats().guard_retries >= 1);
        shutdown_all(&rtses);
    }

    #[test]
    fn workload_shift_reverses_a_regime_decision() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        // Phase 1: read-heavy → replicated.
        for rts in &rtses {
            for _ in 0..24 {
                bank_sum(rts, id);
            }
            rts.flush_usage(id);
        }
        assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
        // Phase 2: a sustained write burst decays the read history and
        // flips the object to sharded.
        let mut deposits = 0i64;
        for round in 0..6 {
            for rts in &rtses {
                for key in 0..16u64 {
                    deposit(rts, id, key + round * 16, 1);
                    deposits += 1;
                }
                rts.flush_usage(id);
            }
            if rtses[0].propose(id).unwrap() == RegimeKind::Sharded {
                break;
            }
        }
        assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Sharded);
        // Nothing was lost across either switch.
        assert_eq!(bank_sum(&rtses[1], id), deposits);
        shutdown_all(&rtses);
    }

    #[test]
    fn shutdown_wakes_blocked_invocation() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::default());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Home-local guarded read: never touches the RPC server, so only
        // the stopped flag can wake it.
        let waiter = {
            let rts = rtses[0].clone();
            std::thread::spawn(move || {
                rts.invoke(
                    id,
                    Accumulator::TYPE_NAME,
                    OpKind::Read,
                    &AccumulatorOp::AwaitAtLeast(10_000).to_bytes(),
                )
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        rtses[0].shutdown();
        assert_eq!(waiter.join().unwrap().unwrap_err(), RtsError::Terminated);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "blocked invocation was not woken promptly"
        );
        shutdown_all(&rtses);
    }

    #[test]
    fn dropped_reply_surfaces_timeout_not_hang() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(150),
            ..AdaptivePolicy::default()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        net.crash(NodeId(0));
        let started = Instant::now();
        let err = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(1).to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::Timeout);
        assert!(started.elapsed() < Duration::from_secs(5));
        net.recover(NodeId(0));
        assert_eq!(add(&rtses[1], id, 4), 4);
        shutdown_all(&rtses);
    }

    fn start_all_recoverable(
        net: &Network,
        policy: AdaptivePolicy,
        recovery: RecoveryConfig,
    ) -> Vec<AdaptiveRts> {
        net.node_ids()
            .into_iter()
            .map(|n| {
                AdaptiveRts::start_recoverable(net.handle(n), registry(), policy, recovery, None)
            })
            .collect()
    }

    fn wait_for_death(rtses: &[AdaptiveRts], killed: NodeId) {
        crate::recovery::wait_for_deaths(rtses.len(), &[killed], &|node| {
            rtses[node.index()].membership_view()
        });
    }

    /// Tentpole: the home of a replicated-regime object dies; the lowest
    /// live node regenerates the object from the freshest surviving read
    /// mirror, so every acknowledged write survives (the two-phase update
    /// push put them on all mirrors before acknowledging).
    #[test]
    fn home_crash_regenerates_object_from_surviving_mirror() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::eager(), crate::recovery::patient());
        // Created at node 2, so its death orphans the object while node 0
        // (the adopter) and node 1 survive.
        let id = rtses[2]
            .create_object(Accumulator::TYPE_NAME, &1i64.to_bytes())
            .unwrap();
        for rts in &rtses {
            for _ in 0..24 {
                assert_eq!(read(rts, id), 1);
            }
            rts.flush_usage(id);
        }
        assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
        // Mirror reads on the survivors, then an acknowledged write that
        // the two-phase push replicates everywhere.
        assert_eq!(read(&rtses[0], id), 1);
        assert_eq!(read(&rtses[1], id), 1);
        assert_eq!(add(&rtses[0], id, 9), 10);

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        // Survivors re-route through the adopted home; the acknowledged
        // write survived in the promoted mirror state.
        assert_eq!(read(&rtses[1], id), 10);
        assert_eq!(add(&rtses[1], id, 5), 15);
        assert_eq!(read(&rtses[0], id), 15);
        let (regime, _) = rtses[1].regime_of(id).unwrap();
        assert_eq!(regime, RegimeKind::Primary, "adoption restarts primary");
        // Adaptation stays alive after adoption: proposals (and usage
        // reports) address the adopter, not the dead creator.
        assert_eq!(rtses[1].propose(id).unwrap(), RegimeKind::Primary);
        shutdown_all(&rtses);
    }

    /// A primary-regime object (single copy at home, no mirrors) cannot
    /// survive its home: survivors get a fast, explicit `ObjectLost`.
    #[test]
    fn home_crash_without_mirror_reports_object_lost() {
        let net = Network::reliable(2);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::default(), crate::recovery::patient());
        let id = rtses[1]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[0], id, 3), 3);
        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        let started = Instant::now();
        let err = rtses[0]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::Read.to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::ObjectLost(id));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "ObjectLost was not fast"
        );
        shutdown_all(&rtses);
    }

    /// Tentpole: once an object is replicated and a mirror holds a valid
    /// read lease, its reads are answered entirely locally — zero
    /// messages on the wire — and the lease telemetry records them.
    #[test]
    fn leased_mirror_reads_put_nothing_on_the_wire() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            report_every: u64::MAX,
            regime_lease: Duration::from_secs(10),
            read_lease_ms: 10_000,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &7i64.to_bytes())
            .unwrap();
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated, None).unwrap();
        // The switch pushed eager mirrors with leases alongside.
        assert!(rtses[0].inner.lease_counters.grants.get() >= 1);
        // Warm node 1's regime-table cache, then measure.
        assert_eq!(read(&rtses[1], id), 7);
        let before = net.stats();
        let leased_before = rtses[1].inner.lease_counters.local_reads.get();
        for _ in 0..20 {
            assert_eq!(read(&rtses[1], id), 7);
        }
        let sent = net.stats().since(&before).node(NodeId(1)).messages_sent();
        assert_eq!(sent, 0, "leased reads must be message-free");
        assert!(rtses[1].inner.lease_counters.local_reads.get() >= leased_before + 20);
        shutdown_all(&rtses);
    }

    /// Headline bugfix: a stamped write re-presented after a retry is
    /// answered its recorded reply from the dedup window instead of being
    /// applied a second time.
    #[test]
    fn represented_stamped_write_applies_exactly_once() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::default());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let stamp = OpStamp { origin: 1, seq: 77 };
        let op = AccumulatorOp::Add(5).to_bytes();
        let first = apply_at_slot(
            &rtses[0].inner,
            id,
            0,
            0,
            &op,
            Some(stamp),
            NodeId(1),
            false,
        );
        let retry = apply_at_slot(
            &rtses[0].inner,
            id,
            0,
            0,
            &op,
            Some(stamp),
            NodeId(1),
            false,
        );
        let RegimeReply::Done(first) = first else {
            panic!("first apply failed");
        };
        assert_eq!(i64::from_bytes(&first).unwrap(), 5);
        let RegimeReply::Done(retry) = retry else {
            panic!("retry was not answered");
        };
        assert_eq!(
            i64::from_bytes(&retry).unwrap(),
            5,
            "retry must see the recorded reply"
        );
        assert_eq!(read(&rtses[1], id), 5, "the write must have applied once");
        shutdown_all(&rtses);
    }

    /// The dedup window rides the drain/install state transfer of a regime
    /// switch: a stamp recorded under the old regime still answers its
    /// recorded reply under the new one.
    #[test]
    fn dedup_window_survives_a_regime_switch() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            report_every: u64::MAX,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let stamp = OpStamp { origin: 1, seq: 3 };
        let op = AccumulatorOp::Add(9).to_bytes();
        let RegimeReply::Done(_) = apply_at_slot(
            &rtses[0].inner,
            id,
            0,
            0,
            &op,
            Some(stamp),
            NodeId(1),
            false,
        ) else {
            panic!("stamped write failed");
        };
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated, None).unwrap();
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        let RegimeReply::Done(reply) = apply_at_slot(
            &rtses[0].inner,
            id,
            0,
            epoch,
            &op,
            Some(stamp),
            NodeId(1),
            false,
        ) else {
            panic!("re-presented write was not answered");
        };
        assert_eq!(i64::from_bytes(&reply).unwrap(), 9);
        assert_eq!(read(&rtses[1], id), 9, "retry must not double-apply");
        shutdown_all(&rtses);
    }

    /// A mirror whose lease lapsed (idle owner) asks the owner to renew it,
    /// naming the version it holds: the grant alone comes back — a request
    /// and a reply of a few bytes, not the state — and reads are leased
    /// again. A mirror that fell behind meanwhile still gets the snapshot.
    #[test]
    fn lapsed_mirror_lease_renews_without_the_state() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(300),
            report_every: u64::MAX,
            regime_lease: Duration::from_secs(10),
            read_lease_ms: 100,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all(&net, policy);
        let accounts: <Bank as ObjectType>::State = (0..2_000).map(|key| (key << 40, 1)).collect();
        let state = accounts.to_bytes();
        assert!(state.len() >= 10_000, "{} bytes of state", state.len());
        let id = rtses[0].create_object(Bank::TYPE_NAME, &state).unwrap();
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated, None).unwrap();
        assert_eq!(bank_sum(&rtses[1], id), 2_000);
        let fetched = rtses[1].stats().copies_fetched;
        std::thread::sleep(Duration::from_millis(250));
        let before = net.stats();
        assert_eq!(bank_sum(&rtses[1], id), 2_000);
        let spent = net.stats().since(&before);
        assert_eq!(spent.total_messages(), 2, "a request and a reply");
        let payload = spent.total_wire_bytes() - 2 * WIRE_HEADER_BYTES as u64;
        assert!(payload < 100, "{payload} payload bytes to renew a lease");
        assert_eq!(rtses[1].stats().copies_fetched, fetched, "state re-shipped");
        // The renewal took; the next read is leased again.
        let leased = rtses[1].inner.lease_counters.local_reads.get();
        assert_eq!(bank_sum(&rtses[1], id), 2_000);
        assert!(rtses[1].inner.lease_counters.local_reads.get() > leased);
        assert_eq!(net.stats().since(&before).total_messages(), 2);

        // A write whose push cannot reach the mirror waits its grant out
        // and leaves it a version behind: that renewal ships the state.
        net.crash(NodeId(1));
        assert_eq!(deposit(&rtses[0], id, 0, 5), 6);
        net.recover(NodeId(1));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(bank_sum(&rtses[1], id), 2_005);
        assert_eq!(rtses[1].stats().copies_fetched, fetched + 1);
        shutdown_all(&rtses);
    }

    /// Recovery fences adopted state: the adopter cannot know which leases
    /// the dead home granted, so the adopted slot starts under a
    /// conservative fence that the first write waits out (reads are
    /// exempt — they serve the regenerated committed state).
    #[test]
    fn adoption_fences_writes_for_a_grant_span() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            read_lease_ms: 150,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = rtses[2]
            .create_object(Accumulator::TYPE_NAME, &1i64.to_bytes())
            .unwrap();
        for rts in &rtses {
            for _ in 0..24 {
                assert_eq!(read(rts, id), 1);
            }
            rts.flush_usage(id);
        }
        assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
        assert_eq!(read(&rtses[0], id), 1);
        assert_eq!(read(&rtses[1], id), 1);

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        // A read adopts the object on node 0 (lowest live) and is served
        // without waiting for the fence.
        assert_eq!(read(&rtses[1], id), 1);
        let slot = rtses[0]
            .inner
            .slots
            .read()
            .get(&(id, 0))
            .cloned()
            .expect("node 0 adopted the object");
        assert!(
            slot.leases.lock().fence.is_some(),
            "adoption must arm the write fence"
        );
        // The first write waits the fence out, then clears it.
        assert_eq!(add(&rtses[1], id, 5), 6);
        assert!(
            slot.leases.lock().fence.is_none(),
            "the write consumed the fence"
        );
        shutdown_all(&rtses);
    }
    /// Three nodes, `id` in the replicated regime with long-leased mirrors
    /// everywhere and every node's table cache warm; no usage reports.
    fn replicated_cluster(net: &Network, op_timeout: Duration) -> (Vec<AdaptiveRts>, ObjectId) {
        let policy = AdaptivePolicy {
            op_timeout,
            report_every: u64::MAX,
            regime_lease: Duration::from_secs(10),
            read_lease_ms: 10_000,
            ..AdaptivePolicy::eager()
        };
        let rtses = start_all(net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated, None).unwrap();
        for rts in &rtses {
            assert_eq!(read(rts, id), 0);
        }
        (rtses, id)
    }

    /// The cost claim for the replicated regime, counted on the wire: with
    /// mirrors on both other nodes and the writer one of them a write is
    /// WriteThrough + Update + ack + Installed — the one mirror pushed to
    /// is the last of its fan-out, and never locked; under the primary
    /// regime (no mirrors) it is the request and the reply.
    #[test]
    fn replicated_write_costs_four_messages_and_a_primary_regime_write_two() {
        let net = Network::reliable(3);
        let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
        let counters = &rtses[0].inner.updates;
        let renewals = rtses[0].inner.lease_counters.renewals.get();
        let before = net.stats();
        assert_eq!(add(&rtses[1], id, 3), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 4);
        assert_eq!(counters.pushes.get(), 1);
        assert_eq!(counters.unlock_notifies.get(), 0);
        assert_eq!(counters.reply_installs.get(), 1);
        assert_eq!(
            rtses[0].inner.lease_counters.renewals.get(),
            renewals + 2,
            "both mirrors' leases are renewed: one by the update, one by the reply"
        );
        // Both mirrors are current and serve reads locally.
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 3);
        assert_eq!(read(&rtses[2], id), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 0);

        let lonely = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], lonely, 1), 1); // fetches the table
        let before = net.stats();
        assert_eq!(add(&rtses[1], lonely, 1), 2);
        assert_eq!(net.stats().since(&before).total_messages(), 2);
        shutdown_all(&rtses);
    }

    /// Run `write` on a cluster whose network holds every message, releasing
    /// them one at a time, and return what `observe` saw each time a message
    /// was waiting to be released — one entry a message. The protocol is
    /// sequential up to its unlocks, so "a message is waiting" means the one
    /// before it has been handled.
    fn released_one_by_one<T>(
        net: &Network,
        write: impl FnOnce() + Send,
        observe: impl Fn() -> T,
    ) -> Vec<T> {
        net.set_scheduler(Some(orca_amoeba::sched::SchedulerConfig::default()));
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            let writer = scope.spawn(write);
            while !writer.is_finished() || !net.sched_pending().is_empty() {
                if let Some(next) = net.sched_pending().first() {
                    seen.push(observe());
                    assert!(net.sched_release(next.id));
                }
                std::thread::yield_now();
            }
        });
        net.set_scheduler(None);
        seen
    }

    /// The fan-out with more than one mirror, on four nodes: `2 + 3k − 1`
    /// messages — the owner's write with three mirrors is 3 pushes, 3
    /// acknowledgements and 2 unlocks, a mirror's write-through with two
    /// others 7 — and between the phases every mirror pushed to is locked
    /// but the last, which never is.
    #[test]
    fn a_write_locks_every_mirror_it_pushes_to_but_the_last() {
        let net = Network::reliable(4);
        let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
        let locked = || [1, 2, 3].map(|node: usize| rtses[node].mirror_of(id).2);
        let unlocks = &rtses[0].inner.updates.unlock_notifies;

        let seen = released_one_by_one(&net, || assert_eq!(add(&rtses[0], id, 3), 3), locked);
        assert_eq!(seen.len(), 8);
        // Waiting: Update, ack, Update, ack, Update, ack, then the unlocks.
        let (f, t) = (false, true);
        let phases = [
            [f, f, f],
            [t, f, f],
            [t, f, f],
            [t, t, f],
            [t, t, f],
            [t, t, f],
        ];
        assert_eq!(seen[..6], phases);
        assert!(seen.iter().all(|locked| !locked[2]), "the last was locked");
        assert_eq!(unlocks.get(), 2);
        eventually("both unlocks land", || locked() == [f, f, f]);
        for rts in &rtses {
            assert_eq!(read(rts, id), 3);
        }

        // Node 1 writes through its mirror: nodes 2 and 3 are pushed to.
        let seen = released_one_by_one(&net, || assert_eq!(add(&rtses[1], id, 1), 4), locked);
        assert_eq!(seen.len(), 7);
        // Waiting: WriteThrough, Update, ack, Update, ack, unlock, Installed.
        assert_eq!(
            seen[..5],
            [[f, f, f], [f, f, f], [f, t, f], [f, t, f], [f, t, f]]
        );
        assert!(seen.iter().all(|locked| !locked[2]), "the last was locked");
        assert_eq!(unlocks.get(), 3);
        eventually("the unlock lands", || locked() == [f, f, f]);
        for rts in &rtses {
            assert_eq!(read(rts, id), 4);
        }
        shutdown_all(&rtses);
    }

    /// A mirror whose node stopped answering, with no detector to say so,
    /// costs the write that finds out half its deadline — and no write
    /// after it: the failed push has the home re-place the object without
    /// the mirror, there and then, not at some later evaluation.
    #[test]
    fn an_unanswering_mirror_costs_one_write_its_push_budget_not_every_write() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(600),
            read_lease_ms: 0,
            ..manual_exact()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        replicate_by(&rtses[0], id, &[0, 8, 8], &[8, 0, 0]).unwrap();
        assert_eq!(replicated_at(&rtses[0], id), (0, vec![1, 2]));
        assert_eq!(read(&rtses[1], id), 0);

        net.crash(NodeId(2));
        let started = Instant::now();
        assert_eq!(add(&rtses[0], id, 1), 1);
        assert!(started.elapsed() >= policy.op_timeout / 2);
        eventually("the failed push re-places", || {
            replicated_at(&rtses[0], id) == (0, vec![1])
        });
        assert_eq!(add(&rtses[0], id, 1), 2);
        assert_eq!(add(&rtses[0], id, 1), 3);
        assert!(
            started.elapsed() < policy.op_timeout,
            "three writes cost one push budget, not three"
        );
        assert_eq!(rtses[0].inner.replacements.get(), 1);
        assert_eq!(read(&rtses[1], id), 3);
        shutdown_all(&rtses);
    }

    /// Two writers on one mirror-holding node, racing a writer on another:
    /// acknowledgements and pushed updates that arrive ahead of their
    /// predecessor wait for it, and no mirror is ever re-fetched.
    #[test]
    fn concurrent_write_throughs_keep_every_mirror_and_converge() {
        let net = Network::reliable(3);
        let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
        let fetched: Vec<u64> = rtses.iter().map(|r| r.stats().copies_fetched).collect();
        const PER_WRITER: i64 = 40;
        let start = Arc::new(std::sync::Barrier::new(3));
        let writers: Vec<_> = [1usize, 1, 2]
            .into_iter()
            .map(|node| {
                let rts = rtses[node].clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..PER_WRITER {
                        add(&rts, id, 1);
                        // Read-your-writes on the local mirror, every time.
                        assert!(read(&rts, id) >= 1);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        for (rts, fetched) in rtses.iter().zip(fetched) {
            assert_eq!(read(rts, id), 3 * PER_WRITER);
            assert_eq!(rts.stats().copies_fetched, fetched, "mirror re-fetched");
        }
        assert_eq!(
            rtses[0].inner.updates.reply_installs.get(),
            3 * PER_WRITER as u64
        );
        shutdown_all(&rtses);
    }

    fn new_bank(rts: &AdaptiveRts) -> ObjectId {
        rts.create_object(
            Bank::TYPE_NAME,
            &<Bank as ObjectType>::State::new().to_bytes(),
        )
        .unwrap()
    }

    /// Policy under which nothing reports: tests place by hand.
    fn manual() -> AdaptivePolicy {
        AdaptivePolicy {
            report_every: u64::MAX,
            ..AdaptivePolicy::eager()
        }
    }

    /// Replace the home's evidence for `id` with `weights[node]` writes per
    /// node and force a switch to the sharded regime over it (a
    /// re-placement when the object is sharded already).
    fn place_by(rts: &AdaptiveRts, id: ObjectId, weights: &[u64]) -> Result<(), RtsError> {
        let home = rts.inner.homes.read().get(&id).cloned().unwrap();
        *home.usage.lock() = UsageAggregate::of_writes(weights);
        switch_regime(&rts.inner, id, &home, RegimeKind::Sharded, None)
    }

    /// Owners of `id`'s partitions as the home publishes them.
    fn owners_of(rts: &AdaptiveRts, id: ObjectId) -> Vec<u16> {
        let (_, _, owners) = rts.placement_of(id).unwrap();
        owners.into_iter().map(|owner| owner.0).collect()
    }

    /// The tentpole's cost claim, counted on the wire: two of three nodes
    /// write a table the third created and never touches again. The
    /// partitions end up on the two writers, half of each writer's
    /// operations stay local, and an operation costs about one message
    /// (2 × ½ shipped + 2/64 usage reports) where the fixed spread over all
    /// three nodes costs 1.25.
    #[test]
    fn partitions_follow_the_writers_and_half_the_writes_stay_local() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::default());
        let id = new_bank(&rtses[0]);
        let mut deposits = 0u64;
        let mut write = |count: u64| {
            for _ in 0..count {
                deposit(&rtses[1 + (deposits % 2) as usize], id, deposits / 2, 1);
                deposits += 1;
            }
        };
        write(1024);
        let (regime, _, owners) = rtses[1].placement_of(id).unwrap();
        assert_eq!(regime, RegimeKind::Sharded);
        assert_eq!(owners.len(), 4);
        assert!(
            !owners.contains(&NodeId(0)),
            "the idle home owns a partition: {owners:?}"
        );
        assert!(owners.contains(&NodeId(1)) && owners.contains(&NodeId(2)));
        let switches = rtses[0].stats().regime_switches;
        let before = net.stats();
        write(2000);
        let per_op = net.stats().since(&before).total_messages() as f64 / 2000.0;
        assert!(per_op <= 1.1, "{per_op} messages per operation");
        assert_eq!(
            rtses[0].stats().regime_switches,
            switches,
            "placement must not move under a steady load"
        );
        assert_eq!(bank_sum(&rtses[0], id), deposits as i64);
        shutdown_all(&rtses);
    }

    /// The first evaluation can fire on one node's reports alone and put
    /// every partition there; the next one, with the second node's reports
    /// in, re-places — a switch to the same regime — and both own
    /// partitions.
    #[test]
    fn thin_evidence_heals_at_the_next_evaluation() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = new_bank(&rtses[0]);
        for key in 0..16u64 {
            deposit(&rtses[1], id, key, 1);
        }
        eventually("two reports of eight are an evaluation window", || {
            rtses[0].regime_of(id).unwrap() == (RegimeKind::Sharded, 1)
        });
        assert_eq!(owners_of(&rtses[0], id), vec![1, 1, 1, 1]);
        assert_eq!(rtses[0].inner.replacements.get(), 0);

        for key in 0..16u64 {
            deposit(&rtses[2], id, key, 1);
        }
        eventually("the second node's reports re-place", || {
            rtses[0].regime_of(id).unwrap().1 == 2
        });
        let (regime, epoch, owners) = rtses[2].placement_of(id).unwrap();
        assert_eq!((regime, epoch), (RegimeKind::Sharded, 2));
        for node in [NodeId(1), NodeId(2)] {
            assert_eq!(owners.iter().filter(|o| **o == node).count(), 2);
        }
        assert_eq!(rtses[0].stats().regime_switches, 2);
        assert_eq!(rtses[0].inner.replacements.get(), 1);
        assert_eq!(bank_sum(&rtses[1], id), 32);
        shutdown_all(&rtses);
    }

    /// The writers move from nodes {1, 2} to {0, 1}: node 0 joins at once;
    /// node 2's decayed share runs out three windows later, and once it
    /// has also been silent for a regime lease its partitions leave — and
    /// then nothing moves any more.
    #[test]
    fn workload_shift_moves_the_partitions_and_then_stops() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy::eager();
        let rtses = start_all(&net, policy);
        let id = new_bank(&rtses[0]);
        let mut deposits = 0u64;
        // One evaluation window of deposits, alternating over `nodes`.
        let mut window = |nodes: [usize; 2]| {
            for _ in 0..policy.evaluate_every {
                deposit(&rtses[nodes[(deposits % 2) as usize]], id, deposits % 64, 1);
                deposits += 1;
            }
        };
        for _ in 0..8 {
            window([1, 2]);
        }
        let settled = owners_of(&rtses[0], id);
        assert!(settled.iter().all(|owner| [1, 2].contains(owner)));
        assert!(settled.contains(&1) && settled.contains(&2));

        let shifted = Instant::now();
        let mut windows = 0;
        while owners_of(&rtses[0], id).contains(&2) {
            windows += 1;
            assert!(
                shifted.elapsed() < Duration::from_secs(10),
                "node 2 still owns a partition"
            );
            window([0, 1]);
        }
        // Halved at every evaluation, node 2's seven decayed writes read
        // 3, 1, 0: a share of an owner's eighth for two windows, no
        // evidence of use at the third. How many more its grace adds is
        // the machine's speed.
        assert!(windows >= 3, "evicted on evidence of use");
        assert!(
            shifted.elapsed() >= policy.regime_lease / 2,
            "evicted while its last report was fresh"
        );
        let moved = owners_of(&rtses[0], id);
        assert!(moved.contains(&0) && moved.contains(&1));
        let switches = rtses[0].stats().regime_switches;
        for _ in 0..20 {
            window([0, 1]);
        }
        assert_eq!(rtses[0].stats().regime_switches, switches);
        assert_eq!(owners_of(&rtses[0], id), moved);
        assert_eq!(bank_sum(&rtses[2], id), deposits as i64);
        shutdown_all(&rtses);
    }

    /// Eight writers hammer a sharded bank while its partitions are moved
    /// from one set of owners to the next. Every acknowledged deposit must
    /// survive, exactly as across switches between regimes: it lands
    /// before the drain's snapshot or is answered `StaleRegime` and retried
    /// under the new epoch.
    #[test]
    fn re_placements_under_concurrent_writers_lose_nothing() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, manual());
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[1, 1, 1]).unwrap();
        const DEPOSITS: i64 = 100;
        let start = Arc::new(std::sync::Barrier::new(9));
        let writers: Vec<_> = (0..8)
            .map(|writer| {
                let rts = rtses[writer % 3].clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..DEPOSITS {
                        deposit(&rts, id, (i % 16) as u64, 1);
                    }
                })
            })
            .collect();
        start.wait();
        let rounds: [&[u64]; 8] = [
            &[0, 1, 1],
            &[1, 1, 0],
            &[0, 0, 1],
            &[1, 0, 1],
            &[1, 1, 1],
            &[0, 1, 0],
            &[1, 0, 0],
            &[0, 1, 1],
        ];
        for weights in rounds {
            place_by(&rtses[0], id, weights).unwrap();
            let users: Vec<u16> = (0..3u16).filter(|n| weights[*n as usize] > 0).collect();
            let owners = owners_of(&rtses[0], id);
            assert!(owners.iter().all(|owner| users.contains(owner)));
            std::thread::sleep(Duration::from_millis(5));
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(
            bank_sum(&rtses[1], id),
            8 * DEPOSITS,
            "acknowledged writes were lost across re-placements"
        );
        assert_eq!(rtses[0].stats().regime_switches, 9);
        assert_eq!(rtses[0].inner.replacements.get(), 8);
        shutdown_all(&rtses);
    }

    /// The dedup window travels with a re-placed partition: a stamped write
    /// applied at the old owner and re-presented at the new one is answered
    /// its recorded reply, not applied again.
    #[test]
    fn dedup_window_survives_a_re_placement() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, manual());
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[0, 1, 0]).unwrap();
        let key = 5u64;
        let partition = orca_object::shard::shard_of_u64(key, 4);
        let stamp = OpStamp { origin: 2, seq: 9 };
        let op = BankOp::Deposit { key, amount: 7 }.to_bytes();
        let present = |owner: usize, epoch: u64| {
            let inner = &rtses[owner].inner;
            match apply_at_slot(
                inner,
                id,
                partition,
                epoch,
                &op,
                Some(stamp),
                NodeId(2),
                false,
            ) {
                RegimeReply::Done(reply) => BankReply::from_bytes(&reply).unwrap(),
                other => panic!("stamped write not answered: {other:?}"),
            }
        };
        assert_eq!(present(1, 1), BankReply::Value(7));
        place_by(&rtses[0], id, &[0, 0, 1]).unwrap();
        assert_eq!(owners_of(&rtses[0], id), vec![2, 2, 2, 2]);
        assert!(matches!(
            apply_at_slot(
                &rtses[1].inner,
                id,
                partition,
                1,
                &op,
                Some(stamp),
                NodeId(2),
                false
            ),
            RegimeReply::StaleRegime
        ));
        assert_eq!(present(2, 2), BankReply::Value(7));
        assert_eq!(bank_sum(&rtses[0], id), 7, "retry must not double-apply");
        shutdown_all(&rtses);
    }

    /// A re-placement whose new owner cannot take its partition puts every
    /// partition back where it was, under the epoch it had: the old owners
    /// were serving a moment ago, so nothing collapses onto the home.
    #[test]
    fn failed_re_placement_leaves_the_old_owners_serving() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(300),
            ..manual()
        };
        let rtses = start_all(&net, policy);
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[1, 1, 0]).unwrap();
        let placed = rtses[1].placement_of(id).unwrap();
        for key in 0..16u64 {
            deposit(&rtses[1], id, key, 1);
        }
        net.crash(NodeId(2));
        assert!(place_by(&rtses[0], id, &[1, 1, 1]).is_err());
        assert_eq!(rtses[1].placement_of(id).unwrap(), placed);
        assert_eq!(rtses[0].stats().regime_switches, 1);
        assert_eq!(rtses[0].inner.replacements.get(), 0);
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[1], id, key, 1), 2);
        }
        assert_eq!(bank_sum(&rtses[0], id), 32);
        shutdown_all(&rtses);
    }

    /// A cached table is distrusted as soon as *any* of its owners is dead,
    /// not only the first: with owners chosen by use no slot is special.
    #[test]
    fn cached_table_with_any_dead_owner_is_refetched() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            regime_lease: Duration::from_secs(10),
            ..manual()
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
        // Two users alternate: partition 1 lives on the one that does not
        // own partition 0, and neither is the home.
        let owners = owners_of(&rtses[0], id);
        let victim = owners[1];
        let client = &rtses[usize::from(owners[0])];
        assert!(victim != owners[0] && victim != 0);
        let key = (0..64u64)
            .find(|key| orca_object::shard::shard_of_u64(*key, 4) == 1)
            .unwrap();
        assert_eq!(deposit(client, id, key, 1), 1);

        // When the client last fetched the table (heartbeats share the
        // wire, so messages cannot be counted here).
        let fetched = |rts: &AdaptiveRts| {
            let deadline = Instant::now() + policy.op_timeout;
            rts.route_for(id, deadline).unwrap();
            rts.inner.routes.lock().get(&id).expect("cached").1
        };
        let cached = fetched(client);
        assert_eq!(fetched(client), cached, "long lease, every owner alive");
        net.crash(NodeId(victim));
        wait_for_death(&rtses, NodeId(victim));
        assert!(
            fetched(client) > cached,
            "partition 1's owner died: the table must come from the home again"
        );
        shutdown_all(&rtses);
    }

    /// A partition on a dead node cannot be drained, so a re-placement away
    /// from it is refused before it withdraws the partitions that still
    /// serve. (Detection only: with re-homing on, the dead owner's
    /// partitions are promoted from their backups and no owner is dead.)
    #[test]
    fn re_placement_with_a_dead_owner_withdraws_nothing() {
        let net = Network::reliable(3);
        let detect_only = RecoveryConfig {
            rehome: false,
            ..crate::recovery::patient()
        };
        let rtses = start_all_recoverable(&net, manual(), detect_only);
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
        let placed = rtses[0].placement_of(id).unwrap();
        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        let drained = rtses[1].stats().copies_dropped;
        assert_eq!(
            place_by(&rtses[0], id, &[0, 1, 0]),
            Err(RtsError::NodeDown(NodeId(2)))
        );
        assert_eq!(rtses[1].stats().copies_dropped, drained);
        assert_eq!(rtses[0].placement_of(id).unwrap(), placed);
        shutdown_all(&rtses);
    }

    /// An object that adapted into the sharded regime is backed up like a
    /// pinned one. A partition owner dies: every acknowledged write
    /// survives in the promoted backup, under the epoch it had, and a
    /// stamped write the dead owner applied and acknowledged is answered
    /// from the promoted dedup window when it is presented again, not
    /// applied twice.
    #[test]
    fn sharded_regime_survives_an_owners_death_exactly_once() {
        let net = Network::reliable(3);
        let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[0], id, key, 2), 2);
        }
        let placed = owners_of(&rtses[0], id);
        let partition = placed.iter().position(|owner| *owner == 2).unwrap() as u32;
        let key = (0..64u64)
            .find(|key| orca_object::shard::shard_of_u64(*key, 4) == partition)
            .unwrap();
        let stamp = OpStamp { origin: 0, seq: 99 };
        let op = BankOp::Deposit { key, amount: 5 }.to_bytes();
        let present = |owner: u16| {
            let inner = &rtses[usize::from(owner)].inner;
            match apply_at_slot(inner, id, partition, 1, &op, Some(stamp), NodeId(0), false) {
                RegimeReply::Done(reply) => BankReply::from_bytes(&reply).unwrap(),
                other => panic!("stamped write not answered: {other:?}"),
            }
        };
        assert_eq!(present(2), BankReply::Value(7));

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        // An ordinary write to the dead owner's partition waits for the
        // promotion; then the table names the survivor that held the backup.
        assert_eq!(deposit(&rtses[1], id, key, 1), 8);
        let (regime, epoch, owners) = rtses[1].placement_of(id).unwrap();
        assert_eq!((regime, epoch), (RegimeKind::Sharded, 1));
        assert!(!owners.contains(&NodeId(2)), "{owners:?}");
        assert_eq!(present(owners[partition as usize].0), BankReply::Value(7));
        assert_eq!(bank_sum(&rtses[0], id), 16 * 2 + 5 + 1);
        shutdown_all(&rtses);
    }

    /// The home of a sharded-regime object dies, a partition owner too (the
    /// same node): the lowest survivor re-assembles the table from the
    /// slots and backups the survivors hold, under the object's epoch, and
    /// no acknowledged write is missing.
    #[test]
    fn sharded_regime_survives_its_homes_death() {
        let net = Network::reliable(3);
        let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
        let id = new_bank(&rtses[2]);
        place_by(&rtses[2], id, &[1, 1, 1]).unwrap();
        assert!(owners_of(&rtses[2], id).contains(&2));
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[1], id, key, 3), 3);
        }
        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[1], id, key, 1), 4);
        }
        assert_eq!(bank_sum(&rtses[0], id), 64);
        let (regime, epoch, owners) = rtses[1].placement_of(id).unwrap();
        assert_eq!((regime, epoch, owners.len()), (RegimeKind::Sharded, 1, 4));
        assert!(!owners.contains(&NodeId(2)), "{owners:?}");
        shutdown_all(&rtses);
    }

    /// A switch retires the backups of the epoch it drains. A node that
    /// missed that keeps one — and when an owner dies later, such a
    /// leftover is never what is promoted, however many more writes it has
    /// seen than the backup of the current epoch.
    #[test]
    fn a_backup_a_drain_left_behind_is_never_promoted() {
        let net = Network::reliable(3);
        let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[0], id, key, 1), 1);
        }
        let backed_up = |rts: &AdaptiveRts| {
            let backups = rts.inner.backups.read();
            let of_bank = backups.iter().filter(|((object, _), _)| *object == id);
            of_bank
                .map(|(_, backup)| backup.epoch)
                .collect::<Vec<u64>>()
        };
        assert!(
            !backed_up(&rtses[0]).is_empty(),
            "node 2's backups are here"
        );
        place_by(&rtses[0], id, &[1, 1, 0]).unwrap();
        for rts in &rtses {
            assert!(backed_up(rts).iter().all(|epoch| *epoch == 2));
        }
        // As if node 0 had missed the drop, for a partition node 1 owns now
        // (its backup of this epoch is on node 2).
        let doomed = owners_of(&rtses[0], id)
            .iter()
            .position(|o| *o == 1)
            .unwrap();
        let leftover = RegimeMsg::InstallBackup {
            object: id.0,
            epoch: 1,
            partition: doomed as u32,
            type_name: Bank::TYPE_NAME.to_string(),
            state: <Bank as ObjectType>::State::new().to_bytes(),
            version: 1_000,
            dedup: DedupWindow::new(),
        };
        let planted = dispatch(&rtses[0].inner, leftover, NodeId(2));
        assert!(matches!(planted, RegimeReply::Ack));
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[0], id, key, 1), 2);
        }

        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        for key in 0..16u64 {
            assert_eq!(deposit(&rtses[0], id, key, 1), 3);
        }
        let (_, epoch, owners) = rtses[0].placement_of(id).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(owners[doomed], NodeId(2), "{owners:?}");
        shutdown_all(&rtses);
    }

    /// An object that leaves the sharded regime for a single copy at its
    /// home leaves no backup behind: when the home dies it is lost, and
    /// said to be — not brought back as it was before the switch.
    #[test]
    fn a_retired_sharded_regime_is_not_what_an_adopter_finds() {
        let net = Network::reliable(3);
        let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
        let id = new_bank(&rtses[2]);
        // Every partition on node 0, so every backup on node 1: all of the
        // sharded regime's state would outlive the home.
        place_by(&rtses[2], id, &[1, 0, 0]).unwrap();
        assert_eq!(deposit(&rtses[0], id, 1, 4), 4);
        let home = rtses[2].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[2].inner, id, &home, RegimeKind::Primary, None).unwrap();
        assert_eq!(deposit(&rtses[0], id, 1, 4), 8);

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        let sum = rtses[1].invoke(id, Bank::TYPE_NAME, OpKind::Read, &BankOp::Sum.to_bytes());
        assert_eq!(sum, Err(RtsError::ObjectLost(id)));
        shutdown_all(&rtses);
    }

    /// Replace the home's evidence for `id` with `reads[node]` reads and
    /// `writes[node]` writes per node and force a switch to the replicated
    /// regime over it (a re-placement when the object is replicated
    /// already).
    fn replicate_by(
        rts: &AdaptiveRts,
        id: ObjectId,
        reads: &[u64],
        writes: &[u64],
    ) -> Result<(), RtsError> {
        rts.replicate_by(id, reads, writes)
    }

    /// Owner and mirrors of replicated-regime `id` as the home publishes
    /// them.
    fn replicated_at(rts: &AdaptiveRts, id: ObjectId) -> (u16, Vec<u16>) {
        let (regime, _, owners) = rts.placement_of(id).unwrap();
        assert_eq!(regime, RegimeKind::Replicated);
        assert_eq!(owners.len(), 1);
        let mirrors = rts.copy_holders(id).unwrap();
        (
            owners[0].0,
            mirrors.into_iter().map(|node| node.0).collect(),
        )
    }

    /// The slot of single-copy `id` on this node.
    fn slot_of(rts: &AdaptiveRts, id: ObjectId) -> Option<Arc<Slot>> {
        rts.inner.slots.read().get(&(id, 0)).cloned()
    }

    /// [`manual`] without the grace: a forced placement is what its evidence
    /// says, however lately a node it names was heard from. (The lease is
    /// also how long a replicated-regime table is cached: not at all.)
    fn manual_exact() -> AdaptivePolicy {
        AdaptivePolicy {
            regime_lease: Duration::ZERO,
            ..manual()
        }
    }

    /// The tentpole's cost claim for a placed replicated regime, counted on
    /// the wire — the ledger's read-mostly cell in miniature: node 0
    /// creates a counter and never touches it, nodes 1 and 2 each read it
    /// nine times for every write. The copy ends up on one of the two and
    /// its one mirror on the other: the owner's write is Update + ack, the
    /// other's WriteThrough + Installed — 2 messages a write and the
    /// one-way usage reports, where a copy at the idle home costs four.
    #[test]
    fn replicated_object_moves_to_its_writers_and_mirrors_its_readers() {
        let net = Network::reliable(3);
        // Long leases: no renewal and no table re-fetch is counted below.
        let policy = AdaptivePolicy {
            regime_lease: Duration::from_secs(10),
            read_lease_ms: 10_000,
            ..AdaptivePolicy::default()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let mut writes = 0i64;
        // Rounds of nine reads and a write, alternating over the two users;
        // returns the writes so far.
        let mut rounds = |count: i64| {
            for _ in 0..count {
                let rts = &rtses[1 + (writes % 2) as usize];
                for _ in 0..9 {
                    assert!(read(rts, id) >= writes - 1);
                }
                writes += 1;
                assert_eq!(add(rts, id, 1), writes);
            }
            writes
        };
        rounds(100);
        let (owner, mirrors) = replicated_at(&rtses[0], id);
        assert!([1, 2].contains(&owner), "owner {owner}");
        assert_eq!(
            mirrors,
            vec![3 - owner],
            "the other user, not the idle home"
        );
        assert!(slot_of(&rtses[0], id).is_none());

        let switches = rtses[0].stats().regime_switches;
        let before = net.stats();
        let written = rounds(400);
        let per_write = net.stats().since(&before).total_messages() as f64 / 400.0;
        assert!(per_write <= 2.3, "{per_write} messages per write");
        // Reads are message-free at the owner and at its mirror alike (a
        // flushed counter: no report falls due among them).
        for rts in &rtses[1..] {
            rts.flush_usage(id);
        }
        let before = net.stats();
        for rts in &rtses[1..] {
            for _ in 0..20 {
                assert_eq!(read(rts, id), written);
            }
        }
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        // Twenty more evaluation windows of the same load move nothing.
        rounds(20 * policy.evaluate_every as i64 / 10);
        assert_eq!(rtses[0].stats().regime_switches, switches);
        assert_eq!(replicated_at(&rtses[0], id), (owner, mirrors));
        shutdown_all(&rtses);
    }

    /// The table is the truth: a node it lists no mirror for ships its
    /// reads to the owner — two messages, no snapshot — cannot fetch its
    /// way into the push set, and is counted: once its reads are a share of
    /// the object's, the next evaluation makes it a mirror.
    #[test]
    fn unlisted_reader_ships_its_reads_and_joins_at_the_next_evaluation() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &3i64.to_bytes())
            .unwrap();
        replicate_by(&rtses[0], id, &[0, 50, 50], &[0, 5, 5]).unwrap();
        assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
        let (_, epoch) = rtses[0].regime_of(id).unwrap();

        let fetched = rtses[0].stats().copies_fetched;
        let shipped = rtses[0].stats().remote_reads;
        let before = net.stats();
        for _ in 0..4 {
            assert_eq!(read(&rtses[0], id), 3);
        }
        assert_eq!(net.stats().since(&before).total_messages(), 8);
        assert_eq!(rtses[0].stats().remote_reads, shipped + 4);
        assert_eq!(rtses[0].stats().copies_fetched, fetched);
        let fetch = RegimeMsg::FetchMirror {
            object: id.0,
            epoch,
            have: None,
        };
        let refused = dispatch(&rtses[1].inner, fetch, NodeId(0));
        assert!(matches!(refused, RegimeReply::StaleRegime), "{refused:?}");

        // Twelve more reads make two reports of eight: a window.
        for _ in 0..12 {
            assert_eq!(read(&rtses[0], id), 3);
        }
        assert_eq!(replicated_at(&rtses[0], id), (1, vec![0, 2]));
        assert_eq!(rtses[0].inner.replacements.get(), 1);
        let before = net.stats();
        assert_eq!(read(&rtses[0], id), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        assert_eq!(rtses[0].stats().copies_fetched, fetched + 1, "primed");
        // A write from the owner reaches the new mirror.
        assert_eq!(add(&rtses[1], id, 4), 7);
        assert_eq!(read(&rtses[0], id), 7);
        shutdown_all(&rtses);
    }

    /// The first evaluation can fire on one node's reports alone: the copy
    /// goes there and nothing is mirrored. The next one, with the second
    /// node's reports in, adds the mirror — a switch to the same regime —
    /// and leaves the owner where it is.
    #[test]
    fn thin_evidence_heals_for_the_replicated_regime() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::eager());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Two reports of seven reads and a write: an evaluation window.
        let window = |rts: &AdaptiveRts| {
            for _ in 0..2 {
                for _ in 0..7 {
                    read(rts, id);
                }
                add(rts, id, 1);
            }
        };
        window(&rtses[1]);
        eventually("two reports are an evaluation window", || {
            rtses[0].regime_of(id).unwrap() == (RegimeKind::Replicated, 1)
        });
        assert_eq!(replicated_at(&rtses[0], id), (1, vec![]));
        assert_eq!(rtses[0].inner.replacements.get(), 0);

        window(&rtses[2]);
        eventually("the second node's reports re-place", || {
            rtses[0].regime_of(id).unwrap().1 == 2
        });
        assert_eq!(rtses[2].regime_of(id).unwrap(), (RegimeKind::Replicated, 2));
        assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
        assert_eq!(rtses[0].stats().regime_switches, 2);
        assert_eq!(rtses[0].inner.replacements.get(), 1);
        assert_eq!(read(&rtses[2], id), 4);
        shutdown_all(&rtses);
    }

    /// A writer on each of the two users and a reader beside each, while
    /// the copy is moved from one user to the other eight times. No
    /// observation — a read, a write's reply — may fall below a value
    /// already observed anywhere when it began (the real-time floor the
    /// write-through model-checker scenarios hold), every acknowledged add
    /// is there exactly once, and a stamped write presented again to the
    /// new owner is answered from the window that moved with the state.
    #[test]
    fn replicated_re_placements_under_concurrent_writers_and_readers_lose_nothing() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, manual_exact());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let reads = [0, 50, 50];
        replicate_by(&rtses[0], id, &reads, &[0, 5, 0]).unwrap();
        let floor = Arc::new(std::sync::atomic::AtomicI64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = [(1, true), (1, false), (2, true), (2, false)]
            .into_iter()
            .map(|(node, writer)| {
                let rts = rtses[node].clone();
                let (floor, done) = (Arc::clone(&floor), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut added = 0i64;
                    while !done.load(Ordering::SeqCst) {
                        let before = floor.load(Ordering::SeqCst);
                        let seen = if writer {
                            added += 1;
                            add(&rts, id, 1)
                        } else {
                            read(&rts, id)
                        };
                        assert!(seen >= before, "observed {seen} after {before}");
                        floor.fetch_max(seen, Ordering::SeqCst);
                    }
                    added
                })
            })
            .collect();
        for round in 0..8u16 {
            std::thread::sleep(Duration::from_millis(5));
            let owner = 2 - round % 2;
            let mut writes = [0, 0, 0];
            writes[usize::from(owner)] = 5;
            replicate_by(&rtses[0], id, &reads, &writes).unwrap();
            assert_eq!(replicated_at(&rtses[0], id), (owner, vec![3 - owner]));
        }
        done.store(true, Ordering::SeqCst);
        let added: i64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(added > 0);
        for rts in &rtses {
            assert_eq!(read(rts, id), added, "acknowledged adds lost or doubled");
        }
        assert_eq!(rtses[0].stats().regime_switches, 9);
        assert_eq!(rtses[0].inner.replacements.get(), 8);

        // The copy is on node 1; a stamped write lands there, the copy
        // moves, and the same write is presented to the new owner.
        let stamp = OpStamp { origin: 0, seq: 77 };
        let op = AccumulatorOp::Add(10).to_bytes();
        let present = |owner: usize| {
            let (_, epoch) = rtses[0].regime_of(id).unwrap();
            let inner = &rtses[owner].inner;
            match apply_at_slot(inner, id, 0, epoch, &op, Some(stamp), NodeId(0), false) {
                RegimeReply::Done(reply) => i64::from_bytes(&reply).unwrap(),
                other => panic!("stamped write not answered: {other:?}"),
            }
        };
        assert_eq!(present(1), added + 10);
        replicate_by(&rtses[0], id, &reads, &[0, 0, 5]).unwrap();
        assert_eq!(present(2), added + 10);
        assert_eq!(
            read(&rtses[1], id),
            added + 10,
            "retry must not double-apply"
        );
        shutdown_all(&rtses);
    }

    /// The owner is the grantor. After a move the new owner's ledger holds
    /// the grants, booked when it primed its mirrors; the old owner's drain
    /// revoked the ones it had given; and a write at the new owner whose
    /// mirror cannot be reached waits that mirror's grant out.
    #[test]
    fn leases_move_with_the_owner() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(300),
            read_lease_ms: 400,
            ..manual_exact()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let granted = |owner: usize| {
            let slot = slot_of(&rtses[owner], id).expect("the copy is here");
            let grants = slot.leases.lock().grants.clone();
            grants
        };
        replicate_by(&rtses[0], id, &[0, 50, 50], &[0, 5, 0]).unwrap();
        assert_eq!(granted(1).keys().collect::<Vec<_>>(), [&2]);
        let revoked = rtses[1].inner.lease_counters.revokes.get();

        replicate_by(&rtses[0], id, &[0, 50, 50], &[0, 0, 5]).unwrap();
        assert_eq!(replicated_at(&rtses[0], id), (2, vec![1]));
        assert!(slot_of(&rtses[1], id).is_none());
        assert_eq!(rtses[1].inner.lease_counters.revokes.get(), revoked + 1);
        assert_eq!(read(&rtses[1], id), 0);
        let expires = granted(2)[&1];

        // The mirror's node stops answering (nobody declares it dead): the
        // push to it fails, and the write may not be acknowledged while
        // the lease it holds could still be serving the old value.
        net.crash(NodeId(1));
        let waited = rtses[2].inner.lease_counters.revokes.get();
        assert_eq!(add(&rtses[2], id, 1), 1);
        assert!(Instant::now() >= expires, "acknowledged inside the grant");
        assert_eq!(rtses[2].inner.lease_counters.revokes.get(), waited + 1);
        shutdown_all(&rtses);
    }

    /// A re-placement whose new owner cannot take the copy puts it back
    /// where it was, under the epoch it had, and primes its mirrors again:
    /// the versions of that epoch start over, and a mirror that remembered
    /// the old ones would refuse every snapshot of the copy it is given.
    #[test]
    fn failed_replicated_re_placement_goes_back_to_its_owner_and_mirrors() {
        let net = Network::reliable(4);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(300),
            ..manual_exact()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let reads = [0, 50, 50];
        replicate_by(&rtses[0], id, &reads, &[0, 5]).unwrap();
        let placed = rtses[2].placement_of(id).unwrap();
        for n in 1..=3 {
            assert_eq!(add(&rtses[1], id, 1), n);
            assert_eq!(read(&rtses[2], id), n);
        }
        net.crash(NodeId(3));
        assert!(replicate_by(&rtses[0], id, &reads, &[0, 0, 0, 5]).is_err());
        assert_eq!(rtses[2].placement_of(id).unwrap(), placed);
        assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
        assert_eq!(rtses[0].stats().regime_switches, 1);
        // The mirror was primed again and is pushed to again.
        let fetched = rtses[2].stats().copies_fetched;
        assert_eq!(read(&rtses[2], id), 3);
        assert_eq!(add(&rtses[1], id, 1), 4);
        assert_eq!(read(&rtses[2], id), 4);
        assert_eq!(rtses[2].stats().copies_fetched, fetched);
        shutdown_all(&rtses);
    }

    /// A replicated-regime copy that lives off its home survives the home:
    /// the adopter finds the owner among the survivors and publishes its
    /// table again under the epoch it has — nothing is regenerated, no
    /// write fenced — and reads and writes carry on.
    #[test]
    fn replicated_owner_off_its_home_survives_the_homes_death() {
        let net = Network::reliable(3);
        let rtses = start_all_recoverable(&net, manual_exact(), crate::recovery::patient());
        let id = rtses[2]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        replicate_by(&rtses[2], id, &[50, 50, 0], &[0, 5, 0]).unwrap();
        assert_eq!(replicated_at(&rtses[2], id), (1, vec![0]));
        let (_, epoch) = rtses[2].regime_of(id).unwrap();
        assert_eq!(add(&rtses[0], id, 4), 4);
        assert_eq!(add(&rtses[1], id, 3), 7);
        let slot = slot_of(&rtses[1], id).unwrap();

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        assert_eq!(read(&rtses[0], id), 7);
        assert_eq!(add(&rtses[0], id, 2), 9);
        assert_eq!(add(&rtses[1], id, 1), 10);
        assert_eq!(read(&rtses[0], id), 10);
        assert_eq!(
            rtses[0].regime_of(id).unwrap(),
            (RegimeKind::Replicated, epoch)
        );
        assert_eq!(replicated_at(&rtses[1], id), (1, vec![0]));
        let serving = slot_of(&rtses[1], id).unwrap();
        assert!(Arc::ptr_eq(&slot, &serving), "the copy was regenerated");
        assert!(serving.leases.lock().fence.is_none());
        // The adopter is the home now: it can move the copy.
        replicate_by(&rtses[0], id, &[50, 50], &[5, 0]).unwrap();
        assert_eq!(replicated_at(&rtses[1], id), (0, vec![1]));
        assert_eq!(read(&rtses[1], id), 10);
        shutdown_all(&rtses);
    }

    /// The owner of a replicated-regime object dies, its home lives: the
    /// home regenerates the object from the freshest mirror into a primary
    /// copy of its own under the next epoch — the routine that adopts a
    /// dead home's object — and no acknowledged write is missing. The dead
    /// owner's grants are unknown, so the first write waits a grant span.
    #[test]
    fn dead_replicated_owner_is_regenerated_from_the_freshest_mirror() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            read_lease_ms: 150,
            ..manual_exact()
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        replicate_by(&rtses[0], id, &[50, 50, 50], &[0, 0, 5]).unwrap();
        assert_eq!(replicated_at(&rtses[0], id), (2, vec![0, 1]));
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        assert_eq!(add(&rtses[0], id, 4), 4);
        assert_eq!(add(&rtses[1], id, 3), 7);
        assert_eq!(add(&rtses[2], id, 2), 9);

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        assert_eq!(read(&rtses[1], id), 9);
        let (regime, regenerated, owners) = rtses[1].placement_of(id).unwrap();
        assert_eq!((regime, regenerated), (RegimeKind::Primary, epoch + 1));
        assert_eq!(owners, vec![NodeId(0)]);
        let slot = slot_of(&rtses[0], id).expect("regenerated at the home");
        let armed = slot.leases.lock().fence.expect("the write fence is armed");
        assert_eq!(add(&rtses[1], id, 1), 10);
        assert!(Instant::now() >= armed, "a write inside the fence");
        assert!(slot.leases.lock().fence.is_none());
        assert_eq!(read(&rtses[0], id), 10);
        shutdown_all(&rtses);
    }

    /// A write-through whose acknowledgement does not arrive in time may
    /// have been applied: the writer's mirror must stop serving reads.
    #[test]
    fn timed_out_write_through_drops_the_mirror() {
        let net = Network::reliable(3);
        let (rtses, id) = replicated_cluster(&net, Duration::from_millis(200));
        // The home never answers; the write times out at the writer.
        net.crash(NodeId(0));
        let write = rtses[1].invoke(
            id,
            Accumulator::TYPE_NAME,
            OpKind::Write,
            &AccumulatorOp::Add(9).to_bytes(),
        );
        assert_eq!(write, Err(RtsError::Timeout));
        let mirror = mirror_entry(&rtses[1].inner, id);
        let state = mirror.state.lock();
        assert!(state.copy.is_none() && state.pending_writes == 0);
        drop(state);
        shutdown_all(&rtses);
    }
}
