//! The point-to-point (primary-copy) runtime system (§3.2.2 of the paper).
//!
//! Used when the network offers no broadcast. Every object has a *primary*
//! copy on the node that created it; other nodes may hold *secondary* copies.
//! Reads execute on a local copy when one is valid, otherwise they are sent
//! to the primary by RPC. Writes are always executed at the primary, which
//! then runs one of two protocols against the secondaries:
//!
//! * **Invalidation** ([`WritePolicy::Invalidate`]): the primary applies the
//!   operation, sends an invalidation to every copy holder, collects the
//!   acknowledgements, and only then completes the write. Invalidated nodes
//!   fetch a fresh copy (or read remotely) on their next access.
//! * **Two-phase update** ([`WritePolicy::Update`]): the primary ships the
//!   *operation* to every copy holder (phase 1); each holder locks its copy,
//!   applies the operation and acknowledges while keeping the copy locked;
//!   once all acknowledgements are in, the primary sends one-way unlock
//!   notifications (phase 2). Reads attempted while a copy is locked wait
//!   until it is unlocked, which is what makes concurrent updates
//!   sequentially consistent. A writer that itself holds a copy is not in
//!   the fan-out: it marks its copy *pending* (reads wait, as on a locked
//!   copy) before it sends the write, and applies its own operation from the
//!   primary's acknowledgement — `2 + 3·(other holders)` messages per write
//!   (see the `update` module).
//!
//! Whether a node holds a copy at all is decided dynamically
//! ([`ReplicationPolicy`]): each node keeps per-object read/write counters;
//! when the read/write ratio of its own accesses exceeds a threshold it
//! fetches a copy from the primary, and when the ratio falls below a lower
//! threshold it drops the copy again — exactly the hysteresis rule sketched
//! in the paper.

pub mod messages;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::ports;
use orca_amoeba::rpc::RpcServer;
use orca_amoeba::NodeId;
use orca_group::{FailureDetector, ViewSnapshot};
use orca_object::{AnyReplica, AppliedOutcome, ObjectError, ObjectId, ObjectRegistry, OpKind};
use orca_telemetry::{trace, Counter, FlightKind};
use orca_wire::{
    BatchOutcome, CopyInfo, DedupWindow, LeaseGrant, LeaseMsg, OpBatchEncoder, OpBatchView,
    OpStamp, RecoveryMsg, RecoveryReply, Wire,
};
use parking_lot::{Mutex, RwLock};

use crate::pipeline::{
    batch_capacity, pending_pair, resolve_round, BatchPolicy, Pipeline, QueuedOp, RoundSlot,
};
use crate::recovery::{is_dead, recovery_rpc, RecoveryConfig};
use crate::stats::{AccessStats, RtsStats, RtsStatsSnapshot};
use crate::update::{CopyState, HeldCopy, UpdateChannel, WriteAck};
use crate::{PendingInvocation, RtsError, RtsKind, RuntimeSystem};
use messages::{PrimaryMsg, PrimaryReply};

/// How a write at the primary propagates to secondary copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Discard all secondary copies; they are re-fetched on demand.
    Invalidate,
    /// Push the operation to all secondary copies with a two-phase
    /// lock/update/unlock exchange.
    Update,
}

/// Dynamic replication thresholds (read/write-ratio hysteresis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPolicy {
    /// Fetch a local copy once the node's own read/write ratio for the
    /// object exceeds this value.
    pub fetch_ratio: f64,
    /// Drop the local copy once the ratio falls below this value.
    pub drop_ratio: f64,
    /// Re-evaluate the decision every this many accesses.
    pub window: u64,
    /// Disable dynamic replication entirely (no secondary copies are ever
    /// created; all remote accesses go to the primary).
    pub enabled: bool,
    /// Validity, in milliseconds, of the read leases the primary grants to
    /// secondary copy holders (0 disables leases).
    ///
    /// While a holder's lease is valid it serves reads from its local copy
    /// with **zero messages**; in exchange a write must renew, revoke or
    /// wait out every outstanding grant before it completes, which is what
    /// keeps leased reads linearizable even though update pushes can fail.
    /// Validity is tied to the failure detector's membership epoch: any
    /// view change invalidates every lease granted under the old epoch.
    pub read_lease_ms: u64,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            fetch_ratio: 4.0,
            drop_ratio: 1.0,
            window: 16,
            enabled: true,
            read_lease_ms: 150,
        }
    }
}

impl ReplicationPolicy {
    /// Policy that never creates secondary copies.
    pub fn never_replicate() -> Self {
        ReplicationPolicy {
            enabled: false,
            ..ReplicationPolicy::default()
        }
    }
}

/// How long a caller sleeps before retrying an operation whose guard was
/// false at the primary.
const BLOCKED_RETRY_DELAY: Duration = Duration::from_millis(20);

/// Default per-invocation RPC deadline; see
/// [`PrimaryCopyRts::set_op_timeout`].
const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Authoritative per-object state of the primary, guarded by one mutex that
/// doubles as the object lock held for the duration of the write protocol.
/// The dedup window and the lease table live under the same lock as the
/// replica because both must change atomically with an apply: a stamped
/// write is recorded in the window in the same critical section it executes
/// in, and leases are granted/settled while the write they fence is still
/// invisible to new readers.
struct PrimaryCore {
    /// The authoritative replica.
    replica: Box<dyn AnyReplica>,
    /// Recently applied stamped writes and their replies (exactly-once
    /// across retries and promotion; rides copy fetches and update pushes).
    dedup: DedupWindow,
    /// Outstanding read leases granted to secondary copy holders.
    leases: LeaseTable,
}

/// Primary-side bookkeeping of the read-lease protocol for one object.
#[derive(Default)]
struct LeaseTable {
    /// Latest grant per holder, with the *conservative* expiry instant on
    /// the grantor's clock (the holder counts `valid_ms` from receipt, so
    /// the grantor waits out twice that span — the bounded-delivery-delay
    /// assumption recovery's re-home wait already makes).
    grants: HashMap<NodeId, GrantRecord>,
    /// Grant sequence numbers, unique per object per grantor incarnation.
    next_seq: u64,
    /// Writes may not execute before this instant. Set when this replica
    /// was promoted by crash recovery: the dead primary's grants are
    /// unknown, so the first write conservatively waits out a full lease
    /// span (reads need no fence — every valid lease covers a copy that
    /// already contains every acknowledged write).
    fence: Option<Instant>,
}

#[derive(Clone, Copy)]
struct GrantRecord {
    seq: u64,
    expires: Instant,
}

/// Holder-side record of the lease covering the local secondary copy.
struct HeldLease {
    /// Sequence number of the grant (named by revocations and renewals).
    seq: u64,
    /// Membership epoch the grant was issued under; a holder whose own
    /// detector has moved past it treats the lease as expired regardless of
    /// the clock.
    epoch: u64,
    /// Expiry on the holder's clock (`valid_ms` from receipt).
    expires: Instant,
}

/// Telemetry counters of the lease protocol, cached so the leased read path
/// does not take the registry lock per read. Shared with the adaptive RTS:
/// both backends account their leases under the same `rts.lease.*` names.
pub(crate) struct LeaseCounters {
    pub(crate) grants: Counter,
    pub(crate) renewals: Counter,
    pub(crate) revokes: Counter,
    pub(crate) local_reads: Counter,
}

impl LeaseCounters {
    /// Resolve (or create) the `rts.lease.*` counters of this node's
    /// telemetry registry.
    pub(crate) fn from_handle(handle: &NetworkHandle) -> Self {
        let reg = handle.telemetry().registry();
        LeaseCounters {
            grants: reg.counter("rts.lease.grants"),
            renewals: reg.counter("rts.lease.renewals"),
            revokes: reg.counter("rts.lease.revokes"),
            local_reads: reg.counter("rts.lease.local_reads"),
        }
    }
}

/// Primary-side record of one object.
struct PrimaryObject {
    /// Replica, dedup window and lease table under the object lock.
    core: Mutex<PrimaryCore>,
    /// Nodes currently holding a secondary copy.
    copy_holders: Mutex<HashSet<NodeId>>,
    type_name: String,
}

/// Secondary-side state of one object on one node: the copy the update
/// protocol keeps current, under this runtime's lease record.
type SecondaryState = CopyState<HeldLease>;

/// Secondary-side record of one object on one node.
#[derive(Default)]
struct SecondaryObject {
    held: HeldCopy<HeldLease>,
    access: AccessStats,
}

struct Inner {
    node: NodeId,
    num_nodes: usize,
    handle: NetworkHandle,
    registry: ObjectRegistry,
    write_policy: WritePolicy,
    replication: ReplicationPolicy,
    primaries: RwLock<HashMap<ObjectId, Arc<PrimaryObject>>>,
    secondaries: RwLock<HashMap<ObjectId, Arc<SecondaryObject>>>,
    next_object: AtomicU64,
    /// Per-node monotonic sequence stamping synchronously-invoked writes
    /// with an exactly-once identity (see [`OpStamp`]).
    next_stamp: AtomicU64,
    /// Cached `rts.lease.*` telemetry counters.
    lease_counters: LeaseCounters,
    /// This node's end of the two-phase update fan-out.
    updates: UpdateChannel,
    /// Per-invocation RPC deadline in milliseconds.
    op_timeout_ms: AtomicU64,
    /// Batching knobs of the asynchronous path.
    batch_policy: Arc<Mutex<BatchPolicy>>,
    stats: Arc<RtsStats>,
    /// Crash-recovery knobs (see [`RecoveryConfig`]).
    recovery: RecoveryConfig,
    /// Heartbeat failure detector, present when recovery is enabled.
    detector: Option<Arc<FailureDetector>>,
    /// Re-homing overlay: objects whose primary died and was re-elected
    /// onto a survivor. Consulted before the creator-derived default.
    rehomed: RwLock<HashMap<ObjectId, NodeId>>,
    /// Objects declared lost (primary died with no surviving copy).
    lost: RwLock<HashSet<ObjectId>>,
    /// Highest view epoch whose recovery round has completed on this node.
    recovered_epoch: AtomicU64,
}

impl Inner {
    fn op_timeout(&self) -> Duration {
        Duration::from_millis(self.op_timeout_ms.load(Ordering::Relaxed))
    }

    /// Current primary of `object`: the re-homing overlay if recovery has
    /// moved it, the creating node otherwise.
    fn primary_node(&self, object: ObjectId) -> NodeId {
        if let Some(&node) = self.rehomed.read().get(&object) {
            return node;
        }
        NodeId(object.creator_index())
    }

    fn is_lost(&self, object: ObjectId) -> bool {
        self.lost.read().contains(&object)
    }

    fn leases_enabled(&self) -> bool {
        self.replication.read_lease_ms > 0
    }

    /// The membership epoch leases are stamped with (0 when recovery — and
    /// with it the failure detector — is disabled; both sides then agree on
    /// epoch 0 and leases degrade to pure wall-clock bounds).
    fn current_epoch(&self) -> u64 {
        self.detector.as_ref().map(|d| d.epoch()).unwrap_or(0)
    }

    /// Conservative grantor-side span of one lease: double the holder-side
    /// validity, covering delivery delay and clock drift to the same degree
    /// the recovery timeline already assumes.
    fn grant_span(&self) -> Duration {
        Duration::from_millis(self.replication.read_lease_ms.saturating_mul(2))
    }

    /// Mint a lease for `holder`, recording the grant in `leases`.
    fn mint_grant(
        &self,
        object: ObjectId,
        leases: &mut LeaseTable,
        holder: NodeId,
        renewal: bool,
    ) -> LeaseGrant {
        leases.next_seq += 1;
        let seq = leases.next_seq;
        leases.grants.insert(
            holder,
            GrantRecord {
                seq,
                expires: Instant::now() + self.grant_span(),
            },
        );
        if renewal {
            self.lease_counters.renewals.inc();
        } else {
            self.lease_counters.grants.inc();
        }
        LeaseGrant {
            object: object.0,
            epoch: self.current_epoch(),
            seq,
            valid_ms: self.replication.read_lease_ms,
        }
    }
}

/// True while the holder-side lease permits zero-message local reads.
fn lease_valid(inner: &Inner, state: &SecondaryState) -> bool {
    match &state.lease {
        Some(lease) => Instant::now() < lease.expires && inner.current_epoch() == lease.epoch,
        None => false,
    }
}

/// The holder-side lease a received grant amounts to (validity counted from
/// receipt, on the holder's own clock).
fn held_lease(grant: &LeaseGrant) -> HeldLease {
    HeldLease {
        seq: grant.seq,
        epoch: grant.epoch,
        expires: Instant::now() + Duration::from_millis(grant.valid_ms),
    }
}

/// Handle to one node's primary-copy runtime system. Cheap to clone.
#[derive(Clone)]
pub struct PrimaryCopyRts {
    inner: Arc<Inner>,
    server: Arc<Mutex<Option<RpcServer>>>,
    recovery_server: Arc<Mutex<Option<RpcServer>>>,
    /// Asynchronous-invocation pipeline, started lazily on first use and
    /// shared by all clones of this handle.
    pipeline: Arc<Mutex<Option<Arc<Pipeline>>>>,
}

impl std::fmt::Debug for PrimaryCopyRts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrimaryCopyRts")
            .field("node", &self.inner.node)
            .field("policy", &self.inner.write_policy)
            .finish()
    }
}

impl PrimaryCopyRts {
    /// Start the point-to-point runtime system on the node owning `handle`
    /// (without crash recovery — node failures surface as timeouts).
    pub fn start(
        handle: NetworkHandle,
        registry: ObjectRegistry,
        write_policy: WritePolicy,
        replication: ReplicationPolicy,
    ) -> Self {
        Self::start_recoverable(
            handle,
            registry,
            write_policy,
            replication,
            RecoveryConfig::disabled(),
            None,
        )
    }

    /// Start the runtime system with crash recovery: a heartbeat failure
    /// detector (either `detector`, shared with other layers, or one
    /// started internally) watches the membership; when a node dies, the
    /// lowest live node coordinates the re-homing protocol that promotes
    /// the freshest surviving secondary copy of every orphaned object to
    /// the new primary (see the `recovery` module docs).
    pub fn start_recoverable(
        handle: NetworkHandle,
        registry: ObjectRegistry,
        write_policy: WritePolicy,
        replication: ReplicationPolicy,
        recovery: RecoveryConfig,
        detector: Option<Arc<FailureDetector>>,
    ) -> Self {
        let detector = crate::recovery::ensure_detector(&handle, &recovery, detector);
        let lease_counters = LeaseCounters::from_handle(&handle);
        let updates = UpdateChannel::new(&handle, ports::RTS_PRIMARY);
        let inner = Arc::new(Inner {
            node: handle.node(),
            num_nodes: handle.num_nodes(),
            handle: handle.clone(),
            registry,
            write_policy,
            replication,
            primaries: RwLock::new(HashMap::new()),
            secondaries: RwLock::new(HashMap::new()),
            next_object: AtomicU64::new(1),
            next_stamp: AtomicU64::new(1),
            lease_counters,
            updates,
            op_timeout_ms: AtomicU64::new(DEFAULT_OP_TIMEOUT.as_millis() as u64),
            batch_policy: Arc::new(Mutex::new(BatchPolicy::default())),
            stats: RtsStats::new_shared(),
            recovery,
            detector,
            rehomed: RwLock::new(HashMap::new()),
            lost: RwLock::new(HashSet::new()),
            recovered_epoch: AtomicU64::new(0),
        });
        let service_inner = Arc::clone(&inner);
        let server =
            RpcServer::serve_concurrent(handle.clone(), ports::RTS_PRIMARY, move |body, caller| {
                serve_request(&service_inner, body, caller)
            });
        let recovery_server = if recovery.enabled {
            let recovery_inner = Arc::clone(&inner);
            Some(RpcServer::serve_concurrent(
                handle,
                ports::RECOVERY,
                move |body, caller| serve_recovery(&recovery_inner, body, caller),
            ))
        } else {
            None
        };
        if recovery.enabled && recovery.rehome {
            if let Some(detector) = &inner.detector {
                let coordinator_inner = Arc::clone(&inner);
                detector.on_failure(Box::new(move |_dead, view| {
                    // Real work happens off the detector thread.
                    let inner = Arc::clone(&coordinator_inner);
                    std::thread::Builder::new()
                        .name(format!("primary-recovery-{}", inner.node))
                        .spawn(move || coordinate_recovery(&inner, view))
                        .expect("spawn recovery coordinator thread");
                }));
            }
        }
        PrimaryCopyRts {
            inner,
            server: Arc::new(Mutex::new(Some(server))),
            recovery_server: Arc::new(Mutex::new(recovery_server)),
            pipeline: Arc::new(Mutex::new(None)),
        }
    }

    /// Stop the RPC services of this node. Idempotent.
    pub fn shutdown(&self) {
        if let Some(pipeline) = self.pipeline.lock().take() {
            pipeline.shutdown();
        }
        if let Some(server) = self.server.lock().take() {
            server.shutdown();
        }
        if let Some(server) = self.recovery_server.lock().take() {
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

    /// The node currently serving `object` as primary (re-homing aware).
    pub fn primary_of(&self, object: ObjectId) -> NodeId {
        self.inner.primary_node(object)
    }

    /// Set the per-invocation deadline of operations shipped to other
    /// nodes. An RPC whose reply does not arrive within this duration (for
    /// example because the primary crashed and the reply was dropped)
    /// surfaces [`RtsError::Timeout`] instead of blocking the invoking
    /// process forever. Guard retries (a `Blocked` reply *is* a reply)
    /// restart the deadline.
    pub fn set_op_timeout(&self, timeout: Duration) {
        self.inner
            .op_timeout_ms
            .store(timeout.as_millis() as u64, Ordering::Relaxed);
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
    fn detached(&self) -> PrimaryCopyRts {
        PrimaryCopyRts {
            inner: Arc::clone(&self.inner),
            server: Arc::clone(&self.server),
            recovery_server: Arc::clone(&self.recovery_server),
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

    /// Execute one flusher round: writes coalesce into one
    /// write-batch request per destination primary; a read flushes
    /// its destination's pending writes first (its object's earlier writes
    /// all sit there), then executes once. Every handle resolves in issue
    /// order at the end of the round.
    fn run_round(&self, ops: Vec<QueuedOp>) {
        let deadline = Instant::now() + self.inner.op_timeout();
        let mut slots: Vec<RoundSlot> = ops.iter().map(|_| RoundSlot::Todo).collect();
        // Pending write indices per destination, in first-touch order.
        let mut batches: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for i in 0..ops.len() {
            let op = &ops[i];
            if self.inner.is_lost(op.object) {
                slots[i] = RoundSlot::Ready(Err(RtsError::ObjectLost(op.object)));
                continue;
            }
            let primary = self.inner.primary_node(op.object);
            match op.kind {
                OpKind::Write => match batches.iter_mut().find(|(dest, _)| *dest == primary) {
                    Some((_, list)) => list.push(i),
                    None => batches.push((primary, vec![i])),
                },
                OpKind::Read => {
                    if let Some(pos) = batches.iter().position(|(dest, _)| *dest == primary) {
                        let (dest, list) = batches.remove(pos);
                        self.flush_write_batch(dest, &ops, &list, &mut slots, deadline);
                    }
                    slots[i] = self.async_read_once(op, primary, deadline);
                }
            }
        }
        for (dest, list) in batches {
            self.flush_write_batch(dest, &ops, &list, &mut slots, deadline);
        }
        resolve_round(ops, slots);
    }

    /// Ship one destination's pending writes as a single
    /// write-batch request (or apply them locally when this node is
    /// the primary) and record the per-op outcomes.
    fn flush_write_batch(
        &self,
        dest: NodeId,
        ops: &[QueuedOp],
        indices: &[usize],
        slots: &mut [RoundSlot],
        deadline: Instant,
    ) {
        RtsStats::bump(&self.inner.stats.batches_sent);
        self.inner
            .stats
            .ops_batched
            .fetch_add(indices.len() as u64, Ordering::Relaxed);
        if dest == self.inner.node {
            // Local primary: apply per consecutive same-object run, with
            // one coalesced update push per run.
            let mut k = 0;
            while k < indices.len() {
                let object = ops[indices[k]].object;
                let mut j = k;
                while j < indices.len() && ops[indices[j]].object == object {
                    j += 1;
                }
                let run: Vec<&[u8]> = indices[k..j]
                    .iter()
                    .map(|&i| ops[i].op.as_slice())
                    .collect();
                let outcomes = primary_write_many(&self.inner, object, &run);
                for (offset, outcome) in outcomes.into_iter().enumerate() {
                    slots[indices[k + offset]] = outcome_slot(outcome);
                }
                k = j;
            }
            return;
        }
        RtsStats::bump(&self.inner.stats.remote_writes);
        let capacity = batch_capacity(indices.iter().map(|&i| &ops[i]));
        let mut request = OpBatchEncoder::request(PrimaryMsg::WRITE_BATCH_TAG, capacity);
        for &i in indices {
            request.push(ops[i].batched(0, 0, &ops[i].op));
        }
        match self.rpc_bytes(dest, request.finish(), deadline) {
            Ok(PrimaryReply::Batch(outcomes)) if outcomes.len() == indices.len() => {
                for (&i, outcome) in indices.iter().zip(outcomes) {
                    slots[i] = outcome_slot(outcome);
                }
            }
            Ok(other) => {
                let err =
                    RtsError::Communication(format!("unexpected write-batch reply {other:?}"));
                for &i in indices {
                    slots[i] = RoundSlot::Ready(Err(err.clone()));
                }
            }
            Err(err) => {
                // The batch died with its destination: report a
                // per-operation outcome. No automatic re-send — the
                // primary may have applied any prefix before crashing, so
                // a blind retry could double-apply.
                for &i in indices {
                    slots[i] = RoundSlot::Ready(Err(err.clone()));
                }
            }
        }
    }

    /// One non-blocking read on behalf of the asynchronous path: local copy
    /// when one is valid and unlocked, otherwise one `ReadAt` RPC. A false
    /// guard resolves the handle `Blocked` instead of stalling the round.
    fn async_read_once(&self, op: &QueuedOp, primary: NodeId, deadline: Instant) -> RoundSlot {
        if primary == self.inner.node {
            return match primary_read(&self.inner, op.object, &op.op) {
                Ok(AppliedOutcome::Done(reply)) => {
                    RtsStats::bump(&self.inner.stats.local_reads);
                    RoundSlot::Ready(Ok(reply))
                }
                Ok(AppliedOutcome::Blocked) => RoundSlot::Blocked,
                Err(err) => RoundSlot::Ready(Err(err)),
            };
        }
        let entry = self.secondary_entry(op.object);
        entry.access.record_read();
        {
            let mut state = entry.held.state.lock();
            let leased = !self.inner.leases_enabled() || lease_valid(&self.inner, &state);
            if !state.reads_blocked() && leased {
                if let Some(copy) = state.copy.as_mut() {
                    match copy.apply_encoded(&op.op) {
                        Ok(AppliedOutcome::Done(reply)) => {
                            RtsStats::bump(&self.inner.stats.local_reads);
                            if self.inner.leases_enabled() {
                                self.inner.lease_counters.local_reads.inc();
                            }
                            return RoundSlot::Ready(Ok(reply));
                        }
                        Ok(AppliedOutcome::Blocked) => return RoundSlot::Blocked,
                        Err(err) => return RoundSlot::Ready(Err(err.into())),
                    }
                }
            }
            // Locked or pending (an update is in flight), lease lapsed, or
            // no copy: read at the primary, whose object lock serializes
            // against the update.
        }
        RtsStats::bump(&self.inner.stats.remote_reads);
        let msg = PrimaryMsg::ReadAt {
            object: op.object,
            op: op.op.clone(),
        };
        match self.rpc(primary, &msg, deadline) {
            Ok(PrimaryReply::Reply(bytes)) => RoundSlot::Ready(Ok(bytes)),
            Ok(PrimaryReply::Blocked) => RoundSlot::Blocked,
            Ok(PrimaryReply::Error(msg)) => RoundSlot::Ready(Err(RtsError::Communication(msg))),
            Ok(other) => RoundSlot::Ready(Err(RtsError::Communication(format!(
                "unexpected ReadAt reply {other:?}"
            )))),
            Err(err) => RoundSlot::Ready(Err(err)),
        }
    }

    /// Nodes registered at this node's primary record of `object` as
    /// secondary-copy holders (empty when this node is not the primary).
    /// Diagnostic: model-checking scenarios use it to time workloads
    /// against the fetch protocol's registration point.
    pub fn copy_holders(&self, object: ObjectId) -> Vec<NodeId> {
        let primaries = self.inner.primaries.read();
        primaries
            .get(&object)
            .map(|entry| {
                let mut holders: Vec<NodeId> = entry.copy_holders.lock().iter().copied().collect();
                holders.sort_by_key(|n| n.index());
                holders
            })
            .unwrap_or_default()
    }

    /// True if this node currently holds a valid secondary copy of `object`.
    pub fn has_local_copy(&self, object: ObjectId) -> bool {
        if self.inner.primary_node(object) == self.inner.node {
            return true;
        }
        let secondaries = self.inner.secondaries.read();
        secondaries
            .get(&object)
            .map(|entry| entry.held.state.lock().copy.is_some())
            .unwrap_or(false)
    }

    fn rpc(
        &self,
        dst: NodeId,
        msg: &PrimaryMsg,
        deadline: Instant,
    ) -> Result<PrimaryReply, RtsError> {
        self.rpc_bytes(dst, msg.to_bytes(), deadline)
    }

    /// [`Self::rpc`] for a request that is already encoded.
    fn rpc_bytes(
        &self,
        dst: NodeId,
        request: Vec<u8>,
        deadline: Instant,
    ) -> Result<PrimaryReply, RtsError> {
        let reply = recovery_rpc(
            &self.inner.handle,
            &self.inner.detector,
            &self.inner.recovery,
            dst,
            ports::RTS_PRIMARY,
            request,
            deadline,
        )?;
        PrimaryReply::from_bytes(&reply)
            .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
    }

    fn secondary_entry(&self, object: ObjectId) -> Arc<SecondaryObject> {
        {
            let secondaries = self.inner.secondaries.read();
            if let Some(entry) = secondaries.get(&object) {
                return Arc::clone(entry);
            }
        }
        let mut secondaries = self.inner.secondaries.write();
        Arc::clone(
            secondaries
                .entry(object)
                .or_insert_with(|| Arc::new(SecondaryObject::default())),
        )
    }

    fn invoke_at_primary_local(
        &self,
        object: ObjectId,
        op: &[u8],
        kind: OpKind,
        stamp: Option<OpStamp>,
    ) -> Result<Vec<u8>, RtsError> {
        loop {
            let outcome = match kind {
                OpKind::Read => {
                    let reply = primary_read(&self.inner, object, op)?;
                    RtsStats::bump(&self.inner.stats.local_reads);
                    reply
                }
                OpKind::Write => {
                    RtsStats::bump(&self.inner.stats.writes);
                    primary_write(&self.inner, object, op, stamp, None)?.0
                }
            };
            match outcome {
                AppliedOutcome::Done(reply) => return Ok(reply),
                AppliedOutcome::Blocked => {
                    RtsStats::bump(&self.inner.stats.guard_retries);
                    std::thread::sleep(BLOCKED_RETRY_DELAY);
                }
            }
        }
    }

    fn invoke_remote(
        &self,
        object: ObjectId,
        type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError> {
        let deadline = Instant::now() + self.inner.op_timeout();
        // Writes carry an exactly-once stamp, minted once per invocation and
        // re-sent verbatim by every retry below: whichever replica ends up
        // primary answers a duplicate from its dedup window instead of
        // applying the operation a second time.
        let stamp = (kind == OpKind::Write).then(|| OpStamp {
            origin: self.inner.node.0,
            seq: self.inner.next_stamp.fetch_add(1, Ordering::Relaxed),
        });
        loop {
            if self.inner.is_lost(object) {
                return Err(RtsError::ObjectLost(object));
            }
            let primary = self.inner.primary_node(object);
            if primary == self.inner.node {
                // Recovery re-homed the object onto this very node.
                return self.invoke_at_primary_local(object, op, kind, stamp);
            }
            if is_dead(&self.inner.detector, primary) {
                // Wait (bounded) for the recovery coordinator to publish a
                // new home, then retry there.
                self.await_rehome(object, primary, deadline)?;
                continue;
            }
            match self.invoke_remote_once(object, type_name, kind, op, primary, deadline, stamp) {
                Err(RtsError::NodeDown(_))
                    if self.inner.recovery.rehome && Instant::now() < deadline =>
                {
                    // The primary died mid-call; loop into the re-homing
                    // wait. The retry re-sends the same stamp, and the
                    // dedup window travels with every copy, so the write
                    // applies exactly once even when the dead primary
                    // executed it just before crashing and the promoted
                    // copy already contains it.
                    continue;
                }
                other => return other,
            }
        }
    }

    /// One attempt of a remote invocation against a specific (believed
    /// live) primary.
    #[allow(clippy::too_many_arguments)]
    fn invoke_remote_once(
        &self,
        object: ObjectId,
        type_name: &str,
        kind: OpKind,
        op: &[u8],
        primary: NodeId,
        deadline: Instant,
        stamp: Option<OpStamp>,
    ) -> Result<Vec<u8>, RtsError> {
        let entry = self.secondary_entry(object);
        match kind {
            OpKind::Read => entry.access.record_read(),
            OpKind::Write => entry.access.record_write(),
        }
        let result = match kind {
            OpKind::Read => {
                let mut local = self.try_local_secondary_read(object, &entry, op)?;
                if local.is_none() && self.try_renew_lease(object, primary, &entry, deadline) {
                    // One renewal RPC re-arms a whole lease window of
                    // zero-message reads; retry locally before going remote.
                    local = self.try_local_secondary_read(object, &entry, op)?;
                }
                if let Some(reply) = local {
                    RtsStats::bump(&self.inner.stats.local_reads);
                    Ok(reply)
                } else {
                    RtsStats::bump(&self.inner.stats.remote_reads);
                    let msg = PrimaryMsg::ReadAt {
                        object,
                        op: op.to_vec(),
                    };
                    self.remote_op(|| self.plain_attempt(primary, &msg, deadline))
                }
            }
            OpKind::Write => {
                RtsStats::bump(&self.inner.stats.writes);
                RtsStats::bump(&self.inner.stats.remote_writes);
                self.remote_write(object, &entry, op, primary, deadline, stamp)
            }
        };
        self.maybe_adjust_replication(object, type_name, primary, &entry, deadline)?;
        result
    }

    /// Ship a write to the primary, retrying while its guard is false.
    ///
    /// Under the update policy a writer that holds an installed copy writes
    /// *through* it: the copy is marked pending before the request leaves,
    /// the primary runs the update protocol against the other holders only,
    /// and this node applies its own operation from the acknowledgement
    /// ([`PrimaryCopyRts::finish_write_through`]). The mark is per attempt —
    /// a write parked on a false guard must not keep this node's readers
    /// waiting, one of them may be what makes the guard true.
    fn remote_write(
        &self,
        object: ObjectId,
        entry: &SecondaryObject,
        op: &[u8],
        primary: NodeId,
        deadline: Instant,
        stamp: Option<OpStamp>,
    ) -> Result<Vec<u8>, RtsError> {
        self.remote_op(|| {
            if self.inner.write_policy != WritePolicy::Update || !entry.held.mark_pending(0) {
                let msg = PrimaryMsg::WriteAt {
                    object,
                    op: op.to_vec(),
                    stamp,
                };
                return self.plain_attempt(primary, &msg, deadline);
            }
            let msg = PrimaryMsg::WriteThrough {
                object,
                op: op.to_vec(),
                stamp,
            };
            let answer = self.rpc(primary, &msg, deadline);
            self.finish_write_through(entry, op, stamp, primary, answer)
        })
    }

    /// Close one write-through attempt: tell the copy what the primary's
    /// answer means for it ([`WriteAck`]) — which also clears the attempt's
    /// pending mark — and turn the answer into the attempt's outcome.
    ///
    /// * `Installed` — the copy applies the operation bytes still in hand
    ///   at the version the primary applied them at.
    /// * A plain reply — the primary does not list this node as a holder
    ///   (or answered a retry from its dedup window, without a version):
    ///   the copy may have missed this or an earlier write and is dropped.
    /// * An error or a timeout — the write may or may not have been
    ///   applied. With the primary alive the copy is dropped; with the
    ///   primary dead and re-homing on it is left *locked* instead
    ///   (`promote_local` clears the lock, `apply_rehome` drops the copy).
    fn finish_write_through(
        &self,
        entry: &SecondaryObject,
        op: &[u8],
        stamp: Option<OpStamp>,
        primary: NodeId,
        answer: Result<PrimaryReply, RtsError>,
    ) -> Result<Option<Vec<u8>>, RtsError> {
        let inner = &self.inner;
        let (ack, outcome) = match answer {
            Ok(PrimaryReply::Installed {
                reply,
                version,
                lease,
            }) => {
                let ack = WriteAck::Installed {
                    version,
                    stamped: stamp.map(|stamp| (stamp, reply.clone())),
                    lease: lease.as_ref().map(held_lease),
                };
                (ack, Ok(Some(reply)))
            }
            Ok(PrimaryReply::Blocked) => (WriteAck::NotApplied, Ok(None)),
            Ok(PrimaryReply::Reply(reply)) => (WriteAck::Unsynced, Ok(Some(reply))),
            Ok(PrimaryReply::Error(msg)) => (WriteAck::Unsynced, Err(RtsError::Communication(msg))),
            Ok(other) => (
                WriteAck::Unsynced,
                Err(RtsError::Communication(format!(
                    "unexpected WriteThrough reply {other:?}"
                ))),
            ),
            Err(err) => {
                let rehoming = inner.recovery.enabled && inner.recovery.rehome;
                if rehoming && is_dead(&inner.detector, primary) {
                    (WriteAck::AuthorityLost, Err(err))
                } else {
                    (WriteAck::Unsynced, Err(err))
                }
            }
        };
        let budget = inner.op_timeout();
        if entry
            .held
            .finish_write_through(&inner.updates, 0, op, ack, budget)
        {
            RtsStats::bump(&inner.stats.copies_dropped);
        }
        outcome
    }

    /// Ask the primary for a fresh lease over the local copy, presenting the
    /// (expired or epoch-stale) grant currently held. The primary re-grants
    /// only when that grant is still the latest it issued to this node — a
    /// newer or revoked grant means the copy may have missed a write, in
    /// which case the copy is dropped and the caller falls back to a remote
    /// read.
    fn try_renew_lease(
        &self,
        object: ObjectId,
        primary: NodeId,
        entry: &SecondaryObject,
        deadline: Instant,
    ) -> bool {
        if !self.inner.leases_enabled() {
            return false;
        }
        let request = {
            let state = entry.held.state.lock();
            if state.copy.is_none() || lease_valid(&self.inner, &state) {
                return false;
            }
            let Some(lease) = &state.lease else {
                return false;
            };
            LeaseGrant {
                object: object.0,
                epoch: lease.epoch,
                seq: lease.seq,
                valid_ms: 0,
            }
        };
        match self.rpc(
            primary,
            &PrimaryMsg::Lease(LeaseMsg::Renew(request)),
            deadline,
        ) {
            Ok(PrimaryReply::Lease(LeaseMsg::Renew(grant))) => {
                let mut state = entry.held.state.lock();
                if state.copy.is_some() {
                    state.lease = Some(held_lease(&grant));
                    return true;
                }
                false
            }
            Ok(_) => {
                // Denied: the copy is (or may be) stale. Drop it and let the
                // next access re-fetch.
                let mut state = entry.held.state.lock();
                if state.copy.take().is_some() {
                    RtsStats::bump(&self.inner.stats.copies_dropped);
                }
                state.lease = None;
                state.locked = false;
                entry.held.unlocked.notify_all();
                false
            }
            Err(_) => false,
        }
    }

    /// Block (bounded by the invocation deadline and the configured
    /// re-homing wait) until recovery has either published a new home for
    /// `object`, declared it lost, or finished the epoch without a word —
    /// which means no copy survived.
    fn await_rehome(
        &self,
        object: ObjectId,
        old_primary: NodeId,
        deadline: Instant,
    ) -> Result<(), RtsError> {
        if !(self.inner.recovery.enabled && self.inner.recovery.rehome) {
            return Err(RtsError::NodeDown(old_primary));
        }
        let wait_until = deadline.min(Instant::now() + self.inner.recovery.rehome_wait);
        loop {
            if self.inner.is_lost(object) {
                return Err(RtsError::ObjectLost(object));
            }
            let current = self.inner.primary_node(object);
            if current != old_primary && !is_dead(&self.inner.detector, current) {
                return Ok(());
            }
            if let Some(detector) = &self.inner.detector {
                let view = detector.view();
                if self.inner.recovered_epoch.load(Ordering::SeqCst) >= view.epoch
                    && self.inner.primary_node(object) == old_primary
                {
                    // The recovery round covering the primary's death is
                    // complete and published no new home: nothing survived.
                    self.inner.lost.write().insert(object);
                    return Err(RtsError::ObjectLost(object));
                }
            }
            if Instant::now() >= wait_until {
                return Err(RtsError::NodeDown(old_primary));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Attempt a read on a valid, unlocked local secondary copy.
    fn try_local_secondary_read(
        &self,
        object: ObjectId,
        entry: &SecondaryObject,
        op: &[u8],
    ) -> Result<Option<Vec<u8>>, RtsError> {
        let mut state = entry.held.state.lock();
        loop {
            while state.reads_blocked() {
                entry
                    .held
                    .unlocked
                    .wait_for(&mut state, Duration::from_millis(100));
                // A lock that never clears means the primary died between
                // the update and unlock phases (a pending mark clears by
                // itself: its writer's call fails); once the detector confirms
                // it, fall through to the remote path (which rides the
                // re-homing machinery) instead of waiting on a corpse
                // forever. With re-homing enabled the copy itself must
                // survive: a mid-push copy is the freshest one alive and
                // the recovery coordinator may be about to promote it —
                // discarding it here races Promote into "no copy" and
                // turns a recoverable object into a lost one. Recovery
                // resolves the dangling lock either way (promote_local
                // clears it, apply_rehome drops the copy). Without
                // re-homing nothing ever would, so drop the copy rather
                // than leave a permanently locked zombie behind.
                if state.reads_blocked()
                    && is_dead(&self.inner.detector, self.inner.primary_node(object))
                {
                    if !(self.inner.recovery.enabled && self.inner.recovery.rehome) {
                        state.copy = None;
                        state.locked = false;
                    }
                    return Ok(None);
                }
            }
            if state.copy.is_some() && self.inner.leases_enabled() {
                // Leases on: the copy alone is not permission to read. A
                // write at the primary can complete only after renewing,
                // revoking or waiting out this node's grant, so a valid
                // lease proves the copy reflects every completed write.
                if !lease_valid(&self.inner, &state) {
                    return Ok(None);
                }
            }
            let Some(copy) = state.copy.as_mut() else {
                return Ok(None);
            };
            match copy.apply_encoded(op)? {
                AppliedOutcome::Done(reply) => {
                    if self.inner.leases_enabled() {
                        self.inner.lease_counters.local_reads.inc();
                    }
                    return Ok(Some(reply));
                }
                AppliedOutcome::Blocked => {
                    // Guarded read: wait for the copy to change (updates
                    // arrive via the update protocol) or fall back to a
                    // periodic retry.
                    RtsStats::bump(&self.inner.stats.guard_retries);
                    entry
                        .held
                        .unlocked
                        .wait_for(&mut state, Duration::from_millis(100));
                }
            }
        }
    }

    /// One attempt of a read, or of a write that does not go through a local
    /// copy, at the primary; `None` when the guard was false.
    fn plain_attempt(
        &self,
        primary: NodeId,
        msg: &PrimaryMsg,
        deadline: Instant,
    ) -> Result<Option<Vec<u8>>, RtsError> {
        match self.rpc(primary, msg, deadline)? {
            PrimaryReply::Reply(bytes) => Ok(Some(bytes)),
            PrimaryReply::Blocked => Ok(None),
            PrimaryReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Run `attempt` against the primary until it yields a reply, sleeping
    /// out each false guard.
    fn remote_op(
        &self,
        mut attempt: impl FnMut() -> Result<Option<Vec<u8>>, RtsError>,
    ) -> Result<Vec<u8>, RtsError> {
        loop {
            if let Some(reply) = attempt()? {
                return Ok(reply);
            }
            RtsStats::bump(&self.inner.stats.guard_retries);
            std::thread::sleep(BLOCKED_RETRY_DELAY);
        }
    }

    /// Apply the dynamic-replication hysteresis rule after an access.
    fn maybe_adjust_replication(
        &self,
        object: ObjectId,
        _type_name: &str,
        primary: NodeId,
        entry: &SecondaryObject,
        deadline: Instant,
    ) -> Result<(), RtsError> {
        if !self.inner.replication.enabled {
            return Ok(());
        }
        if entry.access.total() < self.inner.replication.window {
            return Ok(());
        }
        let ratio = entry.access.read_write_ratio();
        let has_copy = entry.held.state.lock().copy.is_some();
        if !has_copy && ratio >= self.inner.replication.fetch_ratio {
            self.fetch_copy(object, primary, entry, deadline)?;
        } else if has_copy && ratio <= self.inner.replication.drop_ratio {
            self.drop_copy(object, primary, entry, deadline)?;
        }
        entry.access.reset();
        Ok(())
    }

    fn fetch_copy(
        &self,
        object: ObjectId,
        primary: NodeId,
        entry: &SecondaryObject,
        deadline: Instant,
    ) -> Result<(), RtsError> {
        match self.rpc(primary, &PrimaryMsg::FetchCopy { object }, deadline)? {
            PrimaryReply::State {
                type_name,
                state,
                version,
                lease,
                dedup,
            } => {
                let replica = self.inner.registry.instantiate(&type_name, &state)?;
                let lease = lease.as_ref().map(held_lease);
                // A snapshot an update overtook in flight is not installed:
                // stay copyless; the next access re-fetches.
                if entry
                    .held
                    .state
                    .lock()
                    .install_snapshot(replica, version, dedup, lease)
                {
                    RtsStats::bump(&self.inner.stats.copies_fetched);
                }
                Ok(())
            }
            PrimaryReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected FetchCopy reply {other:?}"
            ))),
        }
    }

    fn drop_copy(
        &self,
        object: ObjectId,
        primary: NodeId,
        entry: &SecondaryObject,
        deadline: Instant,
    ) -> Result<(), RtsError> {
        let _ = self.rpc(primary, &PrimaryMsg::DropCopy { object }, deadline)?;
        let mut guard = entry.held.state.lock();
        guard.copy = None;
        guard.locked = false;
        guard.lease = None;
        guard.dedup = DedupWindow::new();
        RtsStats::bump(&self.inner.stats.copies_dropped);
        self.inner.stats.snapshot();
        Ok(())
    }
}

impl RuntimeSystem for PrimaryCopyRts {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    fn create_object(&self, type_name: &str, initial_state: &[u8]) -> Result<ObjectId, RtsError> {
        let replica = self.inner.registry.instantiate(type_name, initial_state)?;
        let counter = self.inner.next_object.fetch_add(1, Ordering::Relaxed);
        let id = ObjectId::compose(self.inner.node.0, counter);
        self.inner.primaries.write().insert(
            id,
            Arc::new(PrimaryObject {
                core: Mutex::new(PrimaryCore {
                    replica,
                    dedup: DedupWindow::new(),
                    leases: LeaseTable::default(),
                }),
                copy_holders: Mutex::new(HashSet::new()),
                type_name: type_name.to_string(),
            }),
        );
        RtsStats::bump(&self.inner.stats.objects_created);
        Ok(id)
    }

    fn invoke(
        &self,
        object: ObjectId,
        type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError> {
        if self.inner.is_lost(object) {
            return Err(RtsError::ObjectLost(object));
        }
        if self.inner.primary_node(object) == self.inner.node {
            // Local invocations never retry across a node death (the
            // caller dies with the primary), so they carry no dedup stamp.
            self.invoke_at_primary_local(object, op, kind, None)
        } else {
            self.invoke_remote(object, type_name, kind, op)
        }
    }

    fn invoke_async(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> PendingInvocation {
        if self.inner.is_lost(object) {
            return PendingInvocation::ready(Err(RtsError::ObjectLost(object)));
        }
        if kind == OpKind::Write {
            RtsStats::bump(&self.inner.stats.writes);
        }
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
        match self.inner.write_policy {
            WritePolicy::Invalidate => RtsKind::PrimaryInvalidate,
            WritePolicy::Update => RtsKind::PrimaryUpdate,
        }
    }
}

/// Map a wire-level batch outcome onto a round slot.
fn outcome_slot(outcome: BatchOutcome) -> RoundSlot {
    match outcome {
        BatchOutcome::Done(reply) => RoundSlot::Ready(Ok(reply)),
        BatchOutcome::Blocked => RoundSlot::Blocked,
        BatchOutcome::Stale => RoundSlot::Ready(Err(RtsError::Communication(
            "stale batch destination".into(),
        ))),
        BatchOutcome::Failed(msg) => RoundSlot::Ready(Err(RtsError::Communication(msg))),
    }
}

/// Execute a read operation at the primary copy.
fn primary_read(
    inner: &Arc<Inner>,
    object: ObjectId,
    op: &[u8],
) -> Result<AppliedOutcome, RtsError> {
    let entry = {
        let primaries = inner.primaries.read();
        primaries
            .get(&object)
            .cloned()
            .ok_or(RtsError::Object(ObjectError::NoSuchObject(object)))?
    };
    let mut core = entry.core.lock();
    Ok(core.replica.apply_encoded(op)?)
}

/// Sleep out the promotion fence, if one is pending: the dead primary's
/// grants are unknown to the promoted replica, so the first write waits a
/// full conservative lease span before its effect may become visible.
/// Reads are exempt — every lease still valid covers a copy that already
/// contains every acknowledged write, so pre-fence reads are consistent.
fn wait_out_fence(leases: &mut LeaseTable) {
    if let Some(fence) = leases.fence.take() {
        let now = Instant::now();
        if now < fence {
            std::thread::sleep(fence - now);
        }
    }
}

/// Prune lease grants that no longer need settling: expired on the
/// grantor's conservative clock, or held by a node the failure detector has
/// declared dead (fail-stop: a dead holder serves no reads, so its grant
/// cannot wedge writes).
fn prune_grants(inner: &Arc<Inner>, leases: &mut LeaseTable) {
    let now = Instant::now();
    leases
        .grants
        .retain(|holder, rec| now < rec.expires && !is_dead(&inner.detector, *holder));
}

/// Settle the leases of holders an update/invalidate push could not reach:
/// explicit revoke bounded by the grant's own expiry, falling back to
/// sleeping the remainder out. On return none of `failed`'s grants can
/// still authorize a local read, so the write may complete. The failed
/// holders are also deregistered — their copies are stale.
fn settle_failed_leases(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &PrimaryObject,
    leases: &mut LeaseTable,
    failed: &[NodeId],
) {
    if failed.is_empty() || !inner.leases_enabled() {
        // Without leases a failed push is ignored, as before: the holder
        // keeps receiving future pushes and version gating re-syncs it.
        return;
    }
    for holder in failed {
        let Some(rec) = leases.grants.get(holder).copied() else {
            continue;
        };
        leases.grants.remove(holder);
        if is_dead(&inner.detector, *holder) || Instant::now() >= rec.expires {
            continue;
        }
        // The revoke RPC is bounded by the grant's own expiry: waiting any
        // longer than the lease lasts could simply wait it out instead.
        inner.lease_counters.revokes.inc();
        let revoke = PrimaryMsg::Lease(LeaseMsg::Revoke {
            object: object.0,
            seq: rec.seq,
        });
        if send_to_secondary_by(inner, *holder, revoke.to_bytes(), rec.expires).is_err() {
            let now = Instant::now();
            if now < rec.expires {
                std::thread::sleep(rec.expires - now);
            }
        }
    }
    let mut holders = entry.copy_holders.lock();
    for holder in failed {
        holders.remove(holder);
    }
}

/// Run the two-phase update protocol for one already-applied write (or run
/// of writes) that left the primary replica at `version`: push `phase1` to
/// every holder, notify everyone who acknowledged to unlock — renewed lease
/// piggybacked — and settle the leases of holders that could not be
/// reached. The fan-out itself is [`UpdateChannel::two_phase`].
fn propagate_update(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &PrimaryObject,
    leases: &mut LeaseTable,
    holders: &[NodeId],
    phase1: &PrimaryMsg,
    version: u64,
) {
    let failed = inner.updates.two_phase(
        holders,
        &phase1.to_bytes(),
        |holder, body| send_to_secondary_bytes(inner, holder, body).is_ok(),
        |holder| {
            let lease = inner
                .leases_enabled()
                .then(|| inner.mint_grant(object, leases, holder, true));
            PrimaryMsg::Unlock {
                object,
                version,
                lease,
            }
            .to_bytes()
        },
    );
    settle_failed_leases(inner, object, entry, leases, &failed);
}

/// Invalidate every holder's copy and settle the leases of unreachable
/// holders. A successful invalidation retires the holder's grant with it.
fn propagate_invalidate(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &PrimaryObject,
    leases: &mut LeaseTable,
    holders: &[NodeId],
    version: u64,
) {
    let msg = PrimaryMsg::Invalidate { object, version };
    let mut scratch = Vec::new();
    msg.encode_into(&mut scratch);
    let mut failed: Vec<NodeId> = Vec::new();
    for holder in holders {
        match send_to_secondary_bytes(inner, *holder, scratch.clone()) {
            Ok(_) => {
                leases.grants.remove(holder);
            }
            Err(_) => failed.push(*holder),
        }
    }
    entry.copy_holders.lock().clear();
    settle_failed_leases(inner, object, entry, leases, &failed);
}

/// What a write-through is acknowledged with besides its reply.
struct ThroughAck {
    /// Primary replica version the write was applied at.
    version: u64,
    /// Renewed lease over the writer's copy.
    lease: Option<LeaseGrant>,
}

/// Execute a write at the primary copy and run the configured propagation
/// protocol against all copy holders. `writer` names a caller that writes
/// through its own copy; when it is a registered holder and the write is
/// freshly applied under the update policy, it is left out of the protocol
/// and acknowledged with a [`ThroughAck`] instead.
fn primary_write(
    inner: &Arc<Inner>,
    object: ObjectId,
    op: &[u8],
    stamp: Option<OpStamp>,
    writer: Option<NodeId>,
) -> Result<(AppliedOutcome, Option<ThroughAck>), RtsError> {
    let entry = {
        let primaries = inner.primaries.read();
        primaries
            .get(&object)
            .cloned()
            .ok_or(RtsError::Object(ObjectError::NoSuchObject(object)))?
    };
    // The primary core's mutex is the object lock: it stays held for the
    // entire protocol so no reads or competing writes observe partial state.
    let mut core = entry.core.lock();
    let core = &mut *core;
    wait_out_fence(&mut core.leases);
    if let Some(stamp) = stamp {
        if let Some(reply) = core.dedup.lookup(stamp) {
            // A retry of a write this replica (or the replica it was
            // promoted from) already applied: answer with the original
            // reply instead of applying twice. A caller writing through
            // its copy drops it on this plain reply (the window keeps no
            // version to install at), so stop pushing to that copy.
            let reply = reply.to_vec();
            if let Some(writer) = writer {
                core.leases.grants.remove(&writer);
                entry.copy_holders.lock().remove(&writer);
            }
            return Ok((AppliedOutcome::Done(reply), None));
        }
    }
    let outcome = core.replica.apply_encoded(op)?;
    let AppliedOutcome::Done(reply) = outcome else {
        return Ok((AppliedOutcome::Blocked, None));
    };
    if let Some(stamp) = stamp {
        core.dedup.record(stamp, reply.clone());
    }
    let version = core.replica.version();
    prune_grants(inner, &mut core.leases);
    // Copy holders the failure detector has declared dead are dropped from
    // the protocol (and the holder set): waiting on them would stall every
    // write at this primary for the full push deadline, forever.
    let mut holders: Vec<NodeId> = {
        let mut holders = entry.copy_holders.lock();
        holders.retain(|h| !is_dead(&inner.detector, *h));
        holders
            .iter()
            .copied()
            .filter(|h| *h != inner.node)
            .collect()
    };
    // The set iterates in a per-process random order; the fan-out is
    // sequential, so fix its order (replayable schedules depend on it).
    holders.sort_unstable();
    let mut ack = None;
    match inner.write_policy {
        WritePolicy::Invalidate => {
            propagate_invalidate(inner, object, &entry, &mut core.leases, &holders, version);
        }
        WritePolicy::Update => {
            let through = writer.filter(|w| holders.contains(w));
            holders.retain(|h| Some(*h) != through);
            let leases = &mut core.leases;
            // With nobody to push to — an object without copies, or one
            // whose only copy is the writer's own — there is no phase 1 to
            // build.
            if !holders.is_empty() {
                let phase1 = PrimaryMsg::UpdateOp {
                    object,
                    op: op.to_vec(),
                    version,
                    stamped: stamp.map(|s| (s, reply.clone())),
                };
                propagate_update(inner, object, &entry, leases, &holders, &phase1, version);
            }
            // The writer's renewal rides the acknowledgement, booked like
            // the others when it is sent.
            ack = through.map(|writer| ThroughAck {
                version,
                lease: inner
                    .leases_enabled()
                    .then(|| inner.mint_grant(object, leases, writer, true)),
            });
        }
    }
    Ok((AppliedOutcome::Done(reply), ack))
}

/// Apply a run of consecutive writes on one object at the primary, under
/// one hold of the object lock, and run the propagation protocol **once**
/// for the whole run: update-policy secondaries receive a single
/// [`PrimaryMsg::UpdateBatch`] (plus one unlock) instead of one
/// update/unlock pair per write — the per-secondary coalescing of the
/// pipelined path. Batches are never written through the sender's copy: a
/// sender that holds one is pushed to like any other holder.
fn primary_write_many(inner: &Arc<Inner>, object: ObjectId, ops: &[&[u8]]) -> Vec<BatchOutcome> {
    let entry = {
        let primaries = inner.primaries.read();
        match primaries.get(&object).cloned() {
            Some(entry) => entry,
            None => {
                let msg = format!("no such object {object}");
                return ops
                    .iter()
                    .map(|_| BatchOutcome::Failed(msg.clone()))
                    .collect();
            }
        }
    };
    // The primary core's mutex is the object lock: held for the entire run
    // and its propagation, exactly like a single write's protocol.
    let mut core = entry.core.lock();
    let core = &mut *core;
    wait_out_fence(&mut core.leases);
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut applied: Vec<Vec<u8>> = Vec::new();
    let mut first_version = 0;
    for op in ops {
        if outcomes
            .last()
            .is_some_and(|last| matches!(last, BatchOutcome::Blocked))
        {
            // A blocked guard stops the run: the remaining ops were issued
            // *after* the blocked one on the same object, so applying them
            // now would reorder one process's operations. They report
            // `Blocked` and re-enter the issue-order pipeline with it.
            outcomes.push(BatchOutcome::Blocked);
            continue;
        }
        match core.replica.apply_encoded(op) {
            Ok(AppliedOutcome::Done(reply)) => {
                if applied.is_empty() {
                    first_version = core.replica.version();
                }
                applied.push(op.to_vec());
                outcomes.push(BatchOutcome::Done(reply));
            }
            Ok(AppliedOutcome::Blocked) => outcomes.push(BatchOutcome::Blocked),
            Err(err) => outcomes.push(BatchOutcome::Failed(err.to_string())),
        }
    }
    if !applied.is_empty() {
        prune_grants(inner, &mut core.leases);
        let mut holders: Vec<NodeId> = {
            let mut holders = entry.copy_holders.lock();
            holders.retain(|h| !is_dead(&inner.detector, *h));
            holders
                .iter()
                .copied()
                .filter(|h| *h != inner.node)
                .collect()
        };
        holders.sort_unstable();
        match inner.write_policy {
            WritePolicy::Invalidate => {
                let version = core.replica.version();
                propagate_invalidate(inner, object, &entry, &mut core.leases, &holders, version);
            }
            WritePolicy::Update => {
                let last_version = core.replica.version();
                let update = PrimaryMsg::UpdateBatch {
                    object,
                    ops: applied,
                    first_version,
                };
                let leases = &mut core.leases;
                propagate_update(
                    inner,
                    object,
                    &entry,
                    leases,
                    &holders,
                    &update,
                    last_version,
                );
            }
        }
    }
    outcomes
}

/// Ship pre-encoded bytes to a secondary with the default push deadline.
/// Fan-out paths encode the message once (`Wire::encode_into` into a
/// scratch buffer) and clone the bytes per destination instead of
/// re-encoding per holder.
fn send_to_secondary_bytes(
    inner: &Arc<Inner>,
    dst: NodeId,
    body: Vec<u8>,
) -> Result<PrimaryReply, RtsError> {
    send_to_secondary_by(inner, dst, body, Instant::now() + inner.op_timeout())
}

fn send_to_secondary_by(
    inner: &Arc<Inner>,
    dst: NodeId,
    body: Vec<u8>,
    deadline: Instant,
) -> Result<PrimaryReply, RtsError> {
    let reply = recovery_rpc(
        &inner.handle,
        &inner.detector,
        &inner.recovery,
        dst,
        ports::RTS_PRIMARY,
        body,
        deadline,
    )?;
    PrimaryReply::from_bytes(&reply).map_err(|err| RtsError::Communication(err.to_string()))
}

/// RPC dispatch: the service side of the protocol, running on every node.
fn serve_request(inner: &Arc<Inner>, body: &[u8], caller: NodeId) -> Vec<u8> {
    // A write batch is applied straight from the request bytes; everything
    // else decodes into an owned message first.
    let reply = match OpBatchView::from_request(PrimaryMsg::WRITE_BATCH_TAG, body) {
        Some(ops) => ops.map(|ops| serve_write_batch(inner, &ops, caller)),
        None => PrimaryMsg::from_bytes(body).map(|msg| dispatch(inner, msg, caller)),
    }
    .unwrap_or_else(|err| PrimaryReply::Error(format!("bad request: {err}")));
    reply.to_bytes()
}

/// Serve a client's write batch, in order: each run of consecutive
/// operations on one object goes through [`primary_write_many`].
fn serve_write_batch(inner: &Arc<Inner>, ops: &OpBatchView<'_>, caller: NodeId) -> PrimaryReply {
    // One protocol-handling event for the whole message, one apply per op
    // — the accounting split the cost model relies on.
    if caller != inner.node {
        RtsStats::bump(&inner.stats.updates_applied);
    }
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut ops = ops.iter().peekable();
    let mut run: Vec<&[u8]> = Vec::new();
    while let Some(first) = ops.peek().copied() {
        run.clear();
        while let Some(op) = ops.next_if(|op| op.object == first.object) {
            RtsStats::bump(&inner.stats.batch_ops_applied);
            inner.handle.telemetry().record(
                inner.node.0,
                FlightKind::Apply,
                op.trace,
                op.object,
                0,
            );
            run.push(op.op);
        }
        outcomes.extend(primary_write_many(inner, ObjectId(first.object), &run));
    }
    PrimaryReply::Batch(outcomes)
}

/// Serve a shipped write: plain, or — `writer` set — through the caller's
/// own copy.
fn serve_write(
    inner: &Arc<Inner>,
    object: ObjectId,
    op: &[u8],
    stamp: Option<OpStamp>,
    writer: Option<NodeId>,
    caller: NodeId,
) -> PrimaryReply {
    match primary_write(inner, object, op, stamp, writer) {
        Ok((AppliedOutcome::Done(reply), ack)) => {
            if caller != inner.node {
                RtsStats::bump(&inner.stats.updates_applied);
            }
            match ack {
                Some(ThroughAck { version, lease }) => PrimaryReply::Installed {
                    reply,
                    version,
                    lease,
                },
                None => PrimaryReply::Reply(reply),
            }
        }
        Ok((AppliedOutcome::Blocked, _)) => PrimaryReply::Blocked,
        Err(err) => PrimaryReply::Error(err.to_string()),
    }
}

fn dispatch(inner: &Arc<Inner>, msg: PrimaryMsg, caller: NodeId) -> PrimaryReply {
    match msg {
        PrimaryMsg::ReadAt { object, op } => match primary_read(inner, object, &op) {
            Ok(AppliedOutcome::Done(reply)) => {
                if caller != inner.node {
                    // Serving another node's operation against the local
                    // primary replica is the same protocol-handling work
                    // the broadcast and sharded systems account under
                    // `updates_applied`; counting it here keeps the
                    // cross-RTS cost comparisons honest.
                    RtsStats::bump(&inner.stats.updates_applied);
                }
                PrimaryReply::Reply(reply)
            }
            Ok(AppliedOutcome::Blocked) => PrimaryReply::Blocked,
            Err(err) => PrimaryReply::Error(err.to_string()),
        },
        PrimaryMsg::WriteAt { object, op, stamp } => {
            serve_write(inner, object, &op, stamp, None, caller)
        }
        PrimaryMsg::WriteThrough { object, op, stamp } => {
            serve_write(inner, object, &op, stamp, Some(caller), caller)
        }
        PrimaryMsg::FetchCopy { object } => {
            let primaries = inner.primaries.read();
            let Some(entry) = primaries.get(&object).cloned() else {
                return PrimaryReply::Error(format!("no such object {object}"));
            };
            drop(primaries);
            // Lock the core so the state snapshot cannot interleave with
            // a write protocol in progress — and register the caller as a
            // holder *inside* the same critical section: registering after
            // the unlock used to let a write slip between snapshot and
            // registration, reaching neither the snapshot nor the push
            // list (a permanently stale copy). The dedup window snapshots
            // with the state (same atomicity: a promoted copy must remember
            // exactly the stamped writes its state contains), and a fresh
            // lease is granted in the same section, before any later write
            // could need to settle it.
            let mut core = entry.core.lock();
            let state = core.replica.state_bytes();
            let version = core.replica.version();
            let dedup = core.dedup.clone();
            let lease = inner
                .leases_enabled()
                .then(|| inner.mint_grant(object, &mut core.leases, caller, false));
            entry.copy_holders.lock().insert(caller);
            drop(core);
            PrimaryReply::State {
                type_name: entry.type_name.clone(),
                state,
                version,
                lease,
                dedup,
            }
        }
        PrimaryMsg::DropCopy { object } => {
            let primaries = inner.primaries.read();
            if let Some(entry) = primaries.get(&object) {
                entry.core.lock().leases.grants.remove(&caller);
                entry.copy_holders.lock().remove(&caller);
            }
            PrimaryReply::Ack
        }
        PrimaryMsg::Invalidate { object, version } => {
            let secondaries = inner.secondaries.read();
            if let Some(entry) = secondaries.get(&object) {
                let mut state = entry.held.state.lock();
                // Record the version floor even when no copy is installed
                // yet: an invalidation that overtakes the fetch reply it
                // races must still poison that older snapshot, or the late
                // install would serve stale reads forever (the primary has
                // already deregistered this holder).
                state.seen = state.seen.max(version);
                state.copy = None;
                state.locked = false;
                state.lease = None;
                state.dedup = DedupWindow::new();
                entry.held.unlocked.notify_all();
                RtsStats::bump(&inner.stats.invalidations_received);
            }
            PrimaryReply::Ack
        }
        PrimaryMsg::UpdateOp {
            object,
            op,
            version,
            stamped,
        } => {
            // The map guard is released before the version gate can wait.
            let entry = inner.secondaries.read().get(&object).cloned();
            if let Some(entry) = entry {
                let ops = std::slice::from_ref(&op);
                let budget = inner.op_timeout();
                if entry.held.apply_pushed(0, version, ops, stamped, budget) > 0 {
                    RtsStats::bump(&inner.stats.updates_applied);
                }
            }
            PrimaryReply::Ack
        }
        PrimaryMsg::Unlock {
            object,
            version,
            lease,
        } => {
            let entry = inner.secondaries.read().get(&object).cloned();
            if let Some(entry) = entry {
                // Renewal piggyback: the copy is current again as of this
                // unlock.
                let lease = lease.as_ref().map(held_lease);
                entry.held.unlock(0, version, lease);
            }
            PrimaryReply::Ack
        }
        PrimaryMsg::Lease(LeaseMsg::Revoke { object, seq }) => {
            // Grantor → holder: the primary could not keep this copy
            // current (an update push failed); stop serving local reads
            // and drop the stale copy.
            let id = ObjectId(object);
            let secondaries = inner.secondaries.read();
            if let Some(entry) = secondaries.get(&id) {
                let mut state = entry.held.state.lock();
                state.lease = None;
                if state.copy.take().is_some() {
                    RtsStats::bump(&inner.stats.copies_dropped);
                }
                state.locked = false;
                entry.held.unlocked.notify_all();
            }
            PrimaryReply::Lease(LeaseMsg::RevokeAck { object, seq })
        }
        PrimaryMsg::Lease(LeaseMsg::Renew(request)) => {
            // Holder → grantor: renewal request, presenting the grant the
            // holder currently holds. Re-grant only when that grant is
            // still the latest one issued to the caller — any write since
            // would have renewed (new seq) or revoked it, so a match
            // proves the caller's copy is current.
            let id = ObjectId(request.object);
            let primaries = inner.primaries.read();
            let Some(entry) = primaries.get(&id).cloned() else {
                return PrimaryReply::Error(format!("no such object {id}"));
            };
            drop(primaries);
            let mut core = entry.core.lock();
            let registered = entry.copy_holders.lock().contains(&caller);
            let current = core.leases.grants.get(&caller).map(|rec| rec.seq) == Some(request.seq);
            if inner.leases_enabled() && registered && current {
                let grant = inner.mint_grant(id, &mut core.leases, caller, true);
                PrimaryReply::Lease(LeaseMsg::Renew(grant))
            } else {
                core.leases.grants.remove(&caller);
                entry.copy_holders.lock().remove(&caller);
                PrimaryReply::Lease(LeaseMsg::Revoke {
                    object: request.object,
                    seq: request.seq,
                })
            }
        }
        PrimaryMsg::Lease(other) => {
            PrimaryReply::Error(format!("unexpected lease message {other:?}"))
        }
        PrimaryMsg::UpdateBatch {
            object,
            ops,
            first_version,
        } => {
            let entry = inner.secondaries.read().get(&object).cloned();
            if let Some(entry) = entry {
                let budget = inner.op_timeout();
                let applied = entry
                    .held
                    .apply_pushed(0, first_version, &ops, None, budget);
                if applied > 0 {
                    RtsStats::bump(&inner.stats.updates_applied);
                    inner
                        .stats
                        .batch_ops_applied
                        .fetch_add(applied as u64, Ordering::Relaxed);
                }
            }
            PrimaryReply::Ack
        }
    }
}

// ---------------------------------------------------------------------------
// Crash recovery: the re-homing protocol.
//
// When a node dies, the coordinator (lowest live node of the new view) asks
// every survivor which secondary copies of orphaned objects it still holds,
// promotes the freshest copy of each to the new primary, announces the
// re-homing to every survivor, and closes the epoch. Survivors that held
// other (possibly staler) copies drop them — the next access re-fetches from
// the new primary — and objects nobody reported are lost.
// ---------------------------------------------------------------------------

/// RPC dispatch of the recovery protocol (port `RECOVERY`).
fn serve_recovery(inner: &Arc<Inner>, body: &[u8], _caller: NodeId) -> Vec<u8> {
    let reply = match RecoveryMsg::from_bytes(body) {
        Ok(msg) => dispatch_recovery(inner, msg),
        Err(err) => RecoveryReply::Error(format!("bad request: {err}")),
    };
    reply.to_bytes()
}

fn dispatch_recovery(inner: &Arc<Inner>, msg: RecoveryMsg) -> RecoveryReply {
    match msg {
        RecoveryMsg::CopyQuery { dead, .. } => RecoveryReply::Report(local_copy_report(
            inner,
            &dead.iter().map(|&d| NodeId(d)).collect::<Vec<_>>(),
        )),
        RecoveryMsg::Promote { object, .. } => promote_local(inner, ObjectId(object)),
        RecoveryMsg::ReHome {
            object,
            new_home,
            lost,
            ..
        } => {
            apply_rehome(inner, ObjectId(object), NodeId(new_home), lost);
            RecoveryReply::Ack
        }
        RecoveryMsg::Done { epoch } => {
            inner.recovered_epoch.fetch_max(epoch, Ordering::SeqCst);
            RecoveryReply::Ack
        }
        other => RecoveryReply::Error(format!("unexpected recovery message {other:?}")),
    }
}

/// The secondary copies this node holds of objects whose current primary is
/// in `dead`.
fn local_copy_report(inner: &Arc<Inner>, dead: &[NodeId]) -> Vec<CopyInfo> {
    let secondaries = inner.secondaries.read();
    secondaries
        .iter()
        .filter(|(object, _)| dead.contains(&inner.primary_node(**object)))
        .filter_map(|(object, entry)| {
            let state = entry.held.state.lock();
            state.copy.as_ref().map(|_| CopyInfo {
                object: object.0,
                // The update-version of the copy (primary-era absolute),
                // not the replica-internal counter — two nodes' copies are
                // only comparable on this scale.
                version: state.version,
            })
        })
        .collect()
}

/// Promote this node's secondary copy of `object` to the authoritative
/// primary replica.
fn promote_local(inner: &Arc<Inner>, object: ObjectId) -> RecoveryReply {
    let entry = inner.secondaries.read().get(&object).cloned();
    let Some(entry) = entry else {
        return RecoveryReply::Error(format!("no copy of {object}"));
    };
    let (copy, dedup) = {
        let mut state = entry.held.state.lock();
        state.locked = false;
        state.version = 0;
        state.seen = 0;
        state.lease = None;
        // The dedup window travelled with the copy: as the new primary we
        // must still answer retries of writes the dead primary acked.
        (state.copy.take(), std::mem::take(&mut state.dedup))
    };
    let Some(copy) = copy else {
        return RecoveryReply::Error(format!("no copy of {object}"));
    };
    let type_name = copy.type_name().to_string();
    // Leases granted by the dead primary may still be live on nodes that
    // have not observed the view change. Reads here are safe immediately
    // (every acked write reached every leased copy), but writes must wait
    // out the longest grant the dead primary could have issued.
    let fence = inner
        .leases_enabled()
        .then(|| Instant::now() + inner.grant_span());
    inner.primaries.write().insert(
        object,
        Arc::new(PrimaryObject {
            core: Mutex::new(PrimaryCore {
                replica: copy,
                dedup,
                leases: LeaseTable {
                    fence,
                    ..LeaseTable::default()
                },
            }),
            copy_holders: Mutex::new(HashSet::new()),
            type_name,
        }),
    );
    RecoveryReply::Ack
}

/// Record a re-homing (or loss) published by the recovery coordinator.
fn apply_rehome(inner: &Arc<Inner>, object: ObjectId, new_home: NodeId, lost: bool) {
    if lost {
        inner.lost.write().insert(object);
        return;
    }
    inner.rehomed.write().insert(object, new_home);
    if new_home != inner.node && !crate::sabotage::rehome_keeps_stale_copies() {
        // Any surviving local copy is as stale as the moment of the crash
        // and the new primary does not list us as a holder: drop it, the
        // next access re-fetches. The version counters reset with it —
        // the new primary starts a fresh version era.
        if let Some(entry) = inner.secondaries.read().get(&object) {
            let mut state = entry.held.state.lock();
            state.copy = None;
            state.locked = false;
            state.version = 0;
            state.seen = 0;
            state.lease = None;
            state.dedup = DedupWindow::new();
            entry.held.unlocked.notify_all();
        }
    }
}

/// The coordinator side: runs on the lowest live node after every view
/// change. Idempotent per epoch in effect — a re-run re-promotes the same
/// freshest copies.
fn coordinate_recovery(inner: &Arc<Inner>, view: ViewSnapshot) {
    if view.coordinator() != Some(inner.node) {
        return;
    }
    let telemetry = Arc::clone(inner.handle.telemetry());
    // Phase timeline: 0 = death detected (recovery starts), 1 = copy
    // reports collected, 2 = re-homing published. The two histograms give
    // the coordinate vs re-home split of every recovery epoch.
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 0);
    let started = Instant::now();
    let dead: Vec<NodeId> = (0..inner.num_nodes)
        .map(NodeId::from)
        .filter(|n| !view.contains(*n))
        .collect();
    let deadline = Instant::now() + inner.recovery.rehome_wait;
    // Phase 1: collect surviving copies from every survivor.
    let mut candidates: HashMap<u64, Vec<(NodeId, u64)>> = HashMap::new();
    for survivor in &view.alive {
        let report = if *survivor == inner.node {
            local_copy_report(inner, &dead)
        } else {
            match coordinator_rpc(
                inner,
                *survivor,
                &RecoveryMsg::CopyQuery {
                    epoch: view.epoch,
                    dead: dead.iter().map(|n| n.0).collect(),
                },
                deadline,
            ) {
                Ok(RecoveryReply::Report(report)) => report,
                _ => Vec::new(), // a silent survivor just contributes nothing
            }
        };
        for info in report {
            candidates
                .entry(info.object)
                .or_default()
                .push((*survivor, info.version));
        }
    }
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 1);
    telemetry
        .registry()
        .histogram("rts.recovery.coordinate_ns")
        .record(started.elapsed().as_nanos() as u64);
    let rehome_started = Instant::now();
    // Phase 2 + 3: promote the freshest surviving copy and publish the new
    // home. Every *acked* write reached every copy holder (the primary
    // replies only after all pushes are acknowledged), so any surviving
    // copy is safe to promote — freshness only decides how many unacked
    // in-flight writes ride along. That is also why a failed Promote falls
    // back to the next-freshest candidate instead of abandoning the
    // object: a holder may have discarded its copy between the query and
    // the promotion (or died), while a staler copy elsewhere still holds
    // everything ever acknowledged.
    for (object, mut holders) in candidates {
        let object = ObjectId(object);
        // Freshest first; ties break toward the lowest node id so re-runs
        // are deterministic.
        holders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut promoted_holder = None;
        for (holder, _version) in holders {
            let promoted = if holder == inner.node {
                matches!(promote_local(inner, object), RecoveryReply::Ack)
            } else {
                matches!(
                    coordinator_rpc(
                        inner,
                        holder,
                        &RecoveryMsg::Promote {
                            epoch: view.epoch,
                            object: object.0,
                            trace: trace::current(),
                        },
                        deadline,
                    ),
                    Ok(RecoveryReply::Ack)
                )
            };
            if promoted {
                promoted_holder = Some(holder);
                break;
            }
        }
        let Some(holder) = promoted_holder else {
            continue; // a later epoch (holder died too) re-runs recovery
        };
        let announce = RecoveryMsg::ReHome {
            epoch: view.epoch,
            object: object.0,
            new_home: holder.0,
            lost: false,
            trace: trace::current(),
        };
        for survivor in &view.alive {
            if *survivor == inner.node {
                apply_rehome(inner, object, holder, false);
            } else {
                let _ = coordinator_rpc(inner, *survivor, &announce, deadline);
            }
        }
    }
    // Phase 4: close the epoch. Survivors treat orphaned objects without a
    // published re-homing as lost.
    for survivor in &view.alive {
        if *survivor == inner.node {
            inner
                .recovered_epoch
                .fetch_max(view.epoch, Ordering::SeqCst);
        } else {
            let _ = coordinator_rpc(
                inner,
                *survivor,
                &RecoveryMsg::Done { epoch: view.epoch },
                deadline,
            );
        }
    }
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 2);
    telemetry
        .registry()
        .histogram("rts.recovery.rehome_ns")
        .record(rehome_started.elapsed().as_nanos() as u64);
}

fn coordinator_rpc(
    inner: &Arc<Inner>,
    dst: NodeId,
    msg: &RecoveryMsg,
    deadline: Instant,
) -> Result<RecoveryReply, RtsError> {
    let reply = recovery_rpc(
        &inner.handle,
        &inner.detector,
        &inner.recovery,
        dst,
        ports::RECOVERY,
        msg.to_bytes(),
        deadline,
    )?;
    RecoveryReply::from_bytes(&reply)
        .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::network::Network;
    use orca_object::testing::{Accumulator, AccumulatorOp};
    use orca_object::ObjectType;

    fn registry() -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry
    }

    fn start_all(
        net: &Network,
        policy: WritePolicy,
        replication: ReplicationPolicy,
    ) -> Vec<PrimaryCopyRts> {
        net.node_ids()
            .into_iter()
            .map(|n| PrimaryCopyRts::start(net.handle(n), registry(), policy, replication))
            .collect()
    }

    fn add(rts: &PrimaryCopyRts, id: ObjectId, n: i64) -> i64 {
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

    fn read(rts: &PrimaryCopyRts, id: ObjectId) -> i64 {
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

    #[test]
    fn remote_reads_and_writes_through_primary() {
        for policy in [WritePolicy::Invalidate, WritePolicy::Update] {
            let net = Network::reliable(3);
            let rtses = start_all(&net, policy, ReplicationPolicy::never_replicate());
            let id = rtses[0]
                .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
                .unwrap();
            assert_eq!(add(&rtses[1], id, 5), 5);
            assert_eq!(add(&rtses[2], id, 7), 12);
            assert_eq!(read(&rtses[0], id), 12);
            assert_eq!(read(&rtses[2], id), 12);
            assert!(rtses[2].stats().remote_reads >= 1);
            assert!(rtses[1].stats().remote_writes >= 1);
            for rts in &rtses {
                rts.shutdown();
            }
        }
    }

    #[test]
    fn dynamic_replication_fetches_copy_after_many_reads() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 2.0,
            drop_ratio: 0.5,
            window: 8,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &1i64.to_bytes())
            .unwrap();
        assert!(!rtses[1].has_local_copy(id));
        for _ in 0..16 {
            assert_eq!(read(&rtses[1], id), 1);
        }
        assert!(rtses[1].has_local_copy(id), "copy should have been fetched");
        let before = rtses[1].stats();
        assert!(before.copies_fetched >= 1);
        // Reads now hit the local copy.
        let local_before = before.local_reads;
        for _ in 0..5 {
            assert_eq!(read(&rtses[1], id), 1);
        }
        assert!(rtses[1].stats().local_reads >= local_before + 5);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn update_policy_keeps_secondary_copy_current() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 1.0,
            drop_ratio: 0.0,
            window: 4,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        for _ in 0..8 {
            read(&rtses[1], id);
        }
        assert!(rtses[1].has_local_copy(id));
        // A write at the primary must propagate to the secondary copy.
        assert_eq!(add(&rtses[0], id, 9), 9);
        assert_eq!(read(&rtses[1], id), 9);
        assert!(rtses[1].stats().updates_applied >= 1);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn invalidate_policy_discards_secondary_copy_on_write() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 1.0,
            drop_ratio: 0.0,
            window: 4,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Invalidate, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        for _ in 0..8 {
            read(&rtses[1], id);
        }
        assert!(rtses[1].has_local_copy(id));
        assert_eq!(add(&rtses[0], id, 3), 3);
        assert!(!rtses[1].has_local_copy(id), "copy should be invalidated");
        assert_eq!(read(&rtses[1], id), 3);
        assert!(rtses[1].stats().invalidations_received >= 1);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn concurrent_writers_from_many_nodes_are_serialized() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, WritePolicy::Update, ReplicationPolicy::default());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let mut handles = Vec::new();
        for rts in &rtses {
            let rts = rts.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    add(&rts, id, 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(read(&rtses[3], id), 100);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn replication_policy_fetches_then_drops_copy_across_both_transitions() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 2.0,
            drop_ratio: 0.5,
            window: 8,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();

        // Transition 1: a read-heavy window pushes the read/write ratio
        // over fetch_ratio and a secondary copy is created.
        for _ in 0..8 {
            read(&rtses[1], id);
        }
        assert!(rtses[1].has_local_copy(id), "read-heavy window must fetch");
        assert_eq!(rtses[1].stats().copies_fetched, 1);
        assert_eq!(rtses[1].stats().copies_dropped, 0);

        // Transition 2: a write-heavy window drags the ratio under
        // drop_ratio and the copy is discarded again.
        for n in 0..8 {
            add(&rtses[1], id, n);
        }
        assert!(
            !rtses[1].has_local_copy(id),
            "write-heavy window must drop the copy"
        );
        assert_eq!(rtses[1].stats().copies_dropped, 1);

        // And the cycle restarts: reads re-fetch.
        for _ in 0..8 {
            read(&rtses[1], id);
        }
        assert!(rtses[1].has_local_copy(id));
        assert_eq!(rtses[1].stats().copies_fetched, 2);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn dropped_reply_from_crashed_primary_surfaces_timeout() {
        let net = Network::reliable(2);
        let rtses = start_all(
            &net,
            WritePolicy::Update,
            ReplicationPolicy::never_replicate(),
        );
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], id, 3), 3);

        // The primary crashes; its replies are dropped. The write must
        // surface Timeout within the configured deadline, not hang.
        net.crash(NodeId(0));
        rtses[1].set_op_timeout(Duration::from_millis(150));
        let started = std::time::Instant::now();
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

        // Remote reads hit the same deadline.
        let err = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::Read.to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::Timeout);

        // After recovery the system keeps working.
        net.recover(NodeId(0));
        assert_eq!(add(&rtses[1], id, 4), 7);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    fn start_all_recoverable(
        net: &Network,
        policy: WritePolicy,
        replication: ReplicationPolicy,
        recovery: RecoveryConfig,
    ) -> Vec<PrimaryCopyRts> {
        net.node_ids()
            .into_iter()
            .map(|n| {
                PrimaryCopyRts::start_recoverable(
                    net.handle(n),
                    registry(),
                    policy,
                    replication,
                    recovery,
                    None,
                )
            })
            .collect()
    }

    fn wait_for_death(rtses: &[PrimaryCopyRts], killed: NodeId) {
        crate::recovery::wait_for_deaths(rtses.len(), &[killed], &|node| {
            rtses[node.index()].membership_view()
        });
    }

    /// Tentpole: the primary dies; the freshest surviving secondary copy
    /// is promoted, every acknowledged write survives, and survivors keep
    /// reading and writing the object.
    #[test]
    fn primary_crash_rehomes_object_onto_survivor_copy() {
        let net = Network::reliable(3);
        let eager = ReplicationPolicy {
            fetch_ratio: 0.0,
            drop_ratio: -1.0,
            window: 1,
            ..ReplicationPolicy::default()
        };
        let rtses =
            start_all_recoverable(&net, WritePolicy::Update, eager, crate::recovery::patient());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Prime secondary copies on both survivors, then write through the
        // primary so the copies carry real state.
        assert_eq!(read(&rtses[1], id), 0);
        assert_eq!(read(&rtses[2], id), 0);
        assert_eq!(add(&rtses[1], id, 5), 5);
        assert_eq!(add(&rtses[2], id, 7), 12);
        assert!(rtses[1].has_local_copy(id) && rtses[2].has_local_copy(id));

        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        // Survivors keep operating on the re-homed object; no acknowledged
        // write is lost.
        assert_eq!(add(&rtses[1], id, 1), 13);
        assert_eq!(read(&rtses[2], id), 13);
        let new_primary = rtses[1].primary_of(id);
        assert_ne!(new_primary, NodeId(0), "object was not re-homed");
        let view = rtses[1].membership_view().unwrap();
        assert_eq!(view.alive, vec![NodeId(1), NodeId(2)]);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// With no secondary copy anywhere, a dead primary means the object is
    /// gone: survivors get a fast, explicit `ObjectLost` — never a hang.
    #[test]
    fn primary_crash_without_copies_reports_object_lost() {
        let net = Network::reliable(2);
        let rtses = start_all_recoverable(
            &net,
            WritePolicy::Update,
            ReplicationPolicy::never_replicate(),
            crate::recovery::patient(),
        );
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &3i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 3);
        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        let started = std::time::Instant::now();
        let err = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(1).to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::ObjectLost(id));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "ObjectLost was not fast"
        );
        // The verdict is sticky and immediate afterwards.
        let err = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::Read.to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::ObjectLost(id));
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// Satellite bugfix: with detection only (no re-homing), an invocation
    /// aimed at a *killed* node fails fast with the distinguishable
    /// `NodeDown` instead of waiting out the full operation timeout.
    #[test]
    fn detect_only_fails_fast_with_node_down() {
        let net = Network::reliable(2);
        let rtses = start_all_recoverable(
            &net,
            WritePolicy::Update,
            ReplicationPolicy::never_replicate(),
            RecoveryConfig {
                heartbeat_every: Duration::from_millis(20),
                suspect_after: 4,
                ..RecoveryConfig::detect_only()
            },
        );
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], id, 2), 2);
        // The default op timeout is 10 s; NodeDown must beat it by far.
        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        let started = std::time::Instant::now();
        let err = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(1).to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::NodeDown(NodeId(0)));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "NodeDown was not fail-fast"
        );
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn blocked_write_at_primary_retries_until_guard_true() {
        let net = Network::reliable(2);
        let rtses = start_all(
            &net,
            WritePolicy::Update,
            ReplicationPolicy::never_replicate(),
        );
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
                        &AccumulatorOp::AwaitAtLeast(4).to_bytes(),
                    )
                    .unwrap();
                i64::from_bytes(&reply).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(80));
        add(&rtses[0], id, 10);
        assert_eq!(waiter.join().unwrap(), 10);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// Tentpole: a secondary holding a valid read lease serves linearizable
    /// reads without touching the network at all — zero messages per read.
    #[test]
    fn leased_reads_are_zero_message() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 1.0,
            drop_ratio: 0.0,
            window: 4,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Prime: fetch a copy (the State reply carries the first grant) and
        // push one write through so the copy carries real state and a
        // renewed lease from the unlock.
        for _ in 0..8 {
            read(&rtses[1], id);
        }
        assert!(rtses[1].has_local_copy(id));
        assert_eq!(add(&rtses[0], id, 4), 4);
        assert!(rtses[0].inner.lease_counters.grants.get() >= 1);

        let wire_before = net.stats();
        let leased_before = rtses[1].inner.lease_counters.local_reads.get();
        for _ in 0..20 {
            assert_eq!(read(&rtses[1], id), 4);
        }
        let sent = net.stats().since(&wire_before).per_node[1];
        assert_eq!(
            sent.p2p_sent + sent.broadcasts_sent,
            0,
            "leased reads must not send any messages"
        );
        assert!(rtses[1].inner.lease_counters.local_reads.get() >= leased_before + 20);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// An expired lease is renewed with one RPC — the holder presents its
    /// old grant and, because no write intervened, gets a fresh one without
    /// re-fetching the copy.
    #[test]
    fn expired_lease_renews_without_refetching_copy() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 1.0,
            drop_ratio: 0.0,
            window: 4,
            read_lease_ms: 25,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &2i64.to_bytes())
            .unwrap();
        for _ in 0..8 {
            assert_eq!(read(&rtses[1], id), 2);
        }
        assert!(rtses[1].has_local_copy(id));
        let fetched = rtses[1].stats().copies_fetched;
        std::thread::sleep(Duration::from_millis(80)); // let the lease lapse
        assert_eq!(read(&rtses[1], id), 2);
        assert_eq!(
            rtses[1].stats().copies_fetched,
            fetched,
            "renewal must revalidate the held copy, not re-fetch it"
        );
        assert!(rtses[0].inner.lease_counters.renewals.get() >= 1);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// Lease-holder crash: a write at the primary settles the dead holder's
    /// grant within the grant's own lifetime and completes; the holder is
    /// deregistered so later writes don't keep paying the push timeout.
    #[test]
    fn write_settles_lease_of_crashed_holder() {
        let net = Network::reliable(2);
        let replication = ReplicationPolicy {
            fetch_ratio: 1.0,
            drop_ratio: 0.0,
            window: 4,
            // Long enough that the grant is still live when the push times
            // out below, forcing an explicit revoke (an already-expired
            // grant would be settled silently).
            read_lease_ms: 200,
            ..ReplicationPolicy::default()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        for _ in 0..8 {
            read(&rtses[1], id);
        }
        assert_eq!(rtses[0].copy_holders(id), vec![NodeId(1)]);

        // No failure detector here: the primary discovers the crash only
        // through the push timing out, then must settle the holder's lease
        // (bounded by the grant span) rather than hang or stay wedged.
        net.crash(NodeId(1));
        rtses[0].set_op_timeout(Duration::from_millis(150));
        let started = std::time::Instant::now();
        assert_eq!(add(&rtses[0], id, 6), 6);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(
            rtses[0].copy_holders(id).is_empty(),
            "unreachable holder must be deregistered after its lease settles"
        );
        assert!(rtses[0].inner.lease_counters.revokes.get() >= 1);
        // Later writes no longer push to the dead holder at all.
        let started = std::time::Instant::now();
        assert_eq!(add(&rtses[0], id, 1), 7);
        assert!(started.elapsed() < Duration::from_millis(100));
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// Lease-grantor crash: the promoted primary serves reads immediately
    /// but fences *writes* until every grant the dead primary could have
    /// issued has expired, so stale leased copies elsewhere can never
    /// observe a value the new era wrote.
    #[test]
    fn promoted_primary_fences_writes_until_old_grants_expire() {
        let net = Network::reliable(3);
        let eager = ReplicationPolicy {
            fetch_ratio: 0.0,
            drop_ratio: -1.0,
            window: 1,
            read_lease_ms: 300,
            ..ReplicationPolicy::default()
        };
        let rtses =
            start_all_recoverable(&net, WritePolicy::Update, eager, crate::recovery::patient());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        assert_eq!(read(&rtses[2], id), 0);
        assert_eq!(add(&rtses[1], id, 5), 5);

        let crashed = std::time::Instant::now();
        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        // The first write after promotion completes only after the fence:
        // promotion happens strictly after the crash, and the fence spans
        // the longest grant the dead primary could have had outstanding
        // (2 × read_lease_ms = 600 ms past promotion).
        assert_eq!(add(&rtses[2], id, 1), 6);
        assert!(
            crashed.elapsed() >= Duration::from_millis(550),
            "write must wait out grants issued by the dead primary"
        );
        assert_eq!(read(&rtses[1], id), 6);
        for rts in &rtses {
            rts.shutdown();
        }
    }
    /// Eager replication with long leases: every node that reads holds a
    /// copy and keeps it.
    fn sticky_copies() -> ReplicationPolicy {
        ReplicationPolicy {
            fetch_ratio: 0.0,
            drop_ratio: -1.0,
            window: 1,
            read_lease_ms: 10_000,
            ..ReplicationPolicy::default()
        }
    }

    /// The tentpole's cost claim, counted on the wire: with two holders and
    /// the writer one of them a write is WriteThrough + UpdateOp + ack +
    /// Unlock + Installed; with none it is the request and the reply.
    #[test]
    fn replicated_write_costs_five_messages_with_two_holders_and_two_with_none() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, WritePolicy::Update, sticky_copies());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        assert_eq!(read(&rtses[2], id), 0);
        assert_eq!(rtses[0].copy_holders(id), vec![NodeId(1), NodeId(2)]);
        let counters = &rtses[0].inner.updates;
        let renewals = rtses[0].inner.lease_counters.renewals.get();
        let before = net.stats();
        assert_eq!(add(&rtses[1], id, 3), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 5);
        // The simulated network shares one registry, so these are cluster
        // totals: one push and one unlock (to node 2), one install (node 1).
        assert_eq!(counters.pushes.get(), 1);
        assert_eq!(counters.unlock_notifies.get(), 1);
        assert_eq!(counters.reply_installs.get(), 1);
        assert_eq!(
            rtses[0].inner.lease_counters.renewals.get(),
            renewals + 2,
            "both holders' leases are renewed: one by the unlock, one by the reply"
        );
        // Both copies are current, still held, and serve reads locally.
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 3);
        assert_eq!(read(&rtses[2], id), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 0);

        let lonely = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let before = net.stats();
        let plain = PrimaryMsg::WriteAt {
            object: lonely,
            op: AccumulatorOp::Add(1).to_bytes(),
            stamp: None,
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(matches!(
            rtses[1].rpc(NodeId(0), &plain, deadline),
            Ok(PrimaryReply::Reply(_))
        ));
        assert_eq!(net.stats().since(&before).total_messages(), 2);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// Two writers on one copy-holding node, racing a writer on another:
    /// acknowledgements that arrive ahead of their predecessor wait for it,
    /// pushed updates that arrive ahead of an acknowledgement do too, and
    /// nobody's copy is ever dropped as "gapped".
    #[test]
    fn concurrent_write_throughs_keep_every_copy_and_converge() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, WritePolicy::Update, sticky_copies());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        assert_eq!(read(&rtses[2], id), 0);
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
                        // Read-your-writes on the local copy, every time.
                        assert!(read(&rts, id) >= 1);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        for rts in &rtses {
            assert_eq!(read(rts, id), 3 * PER_WRITER);
        }
        for holder in [1, 2] {
            assert!(rtses[holder].has_local_copy(id));
            let stats = rtses[holder].stats();
            assert_eq!((stats.copies_fetched, stats.copies_dropped), (1, 0));
        }
        assert_eq!(
            rtses[0].inner.updates.reply_installs.get(),
            3 * PER_WRITER as u64
        );
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// A writer the primary no longer lists as a holder is answered like a
    /// plain write; its copy may have missed writes and must go.
    #[test]
    fn retried_write_through_is_answered_plainly_and_deregisters_the_writer() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, WritePolicy::Update, sticky_copies());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        let through = PrimaryMsg::WriteThrough {
            object: id,
            op: AccumulatorOp::Add(4).to_bytes(),
            stamp: Some(OpStamp { origin: 1, seq: 77 }),
        };
        let first = dispatch(&rtses[0].inner, through.clone(), NodeId(1));
        assert!(matches!(first, PrimaryReply::Installed { version: 1, .. }));
        assert_eq!(rtses[0].copy_holders(id), vec![NodeId(1)]);
        // The retry carries no version to install at: the writer will drop
        // its copy on the plain reply, so the primary stops pushing to it.
        let retry = dispatch(&rtses[0].inner, through, NodeId(1));
        assert!(matches!(retry, PrimaryReply::Reply(_)));
        assert!(rtses[0].copy_holders(id).is_empty());
        assert_eq!(read(&rtses[0], id), 4);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    #[test]
    fn deregistered_writer_gets_a_plain_reply_and_drops_its_copy() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, WritePolicy::Update, sticky_copies());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        let primary = rtses[0].inner.primaries.read().get(&id).cloned().unwrap();
        primary.copy_holders.lock().remove(&NodeId(1));
        // Node 1 never hears of this one.
        assert_eq!(add(&rtses[0], id, 5), 5);

        assert_eq!(add(&rtses[1], id, 1), 6);
        assert_eq!(rtses[0].inner.updates.reply_installs.get(), 0);
        // The stale copy went; the eager policy fetched a fresh one right
        // after the write, which holds both.
        let stats = rtses[1].stats();
        assert_eq!((stats.copies_dropped, stats.copies_fetched), (1, 2));
        assert_eq!(
            rtses[1]
                .secondary_entry(id)
                .held
                .state
                .lock()
                .pending_writes,
            0
        );
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 6);
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        assert_eq!(rtses[0].copy_holders(id), vec![NodeId(1)]);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// A write-through whose acknowledgement does not arrive in time may
    /// have been applied: the writer's copy must stop serving reads rather
    /// than serve the old value.
    #[test]
    fn timed_out_write_through_never_leaves_a_readable_stale_copy() {
        let net = Network::reliable(3);
        // Short leases: the primary sleeps out the crashed holder's grant.
        let replication = ReplicationPolicy {
            read_lease_ms: 50,
            ..sticky_copies()
        };
        let rtses = start_all(&net, WritePolicy::Update, replication);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        assert_eq!(read(&rtses[2], id), 0);
        // The primary applies the write, then stalls on the push to the
        // crashed holder for longer than the writer is willing to wait.
        net.crash(NodeId(2));
        rtses[0].set_op_timeout(Duration::from_millis(400));
        rtses[1].set_op_timeout(Duration::from_millis(80));
        let write = rtses[1].invoke(
            id,
            Accumulator::TYPE_NAME,
            OpKind::Write,
            &AccumulatorOp::Add(9).to_bytes(),
        );
        assert_eq!(write, Err(RtsError::Timeout));
        let entry = rtses[1].secondary_entry(id);
        {
            let state = entry.held.state.lock();
            assert!(state.copy.is_none() && state.pending_writes == 0);
        }
        // The read goes to the primary, queues behind the stalled write and
        // observes it.
        rtses[1].set_op_timeout(Duration::from_secs(10));
        assert_eq!(read(&rtses[1], id), 9);
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// The unlock is one-way, so it can be handled after the next update:
    /// the version it carries keeps it from releasing that update's lock.
    #[test]
    fn stale_unlock_after_the_next_update_leaves_the_copy_locked() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, WritePolicy::Update, sticky_copies());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        let holder = &rtses[1].inner;
        let update = |version| PrimaryMsg::UpdateOp {
            object: id,
            op: AccumulatorOp::Add(1).to_bytes(),
            version,
            stamped: None,
        };
        let unlock = |version| PrimaryMsg::Unlock {
            object: id,
            version,
            lease: None,
        };
        let entry = rtses[1].secondary_entry(id);
        let base = entry.held.state.lock().version;
        dispatch(holder, update(base + 1), NodeId(0));
        dispatch(holder, update(base + 2), NodeId(0));
        dispatch(holder, unlock(base + 1), NodeId(0));
        assert!(entry.held.state.lock().locked, "unlock of an older update");
        dispatch(holder, unlock(base + 2), NodeId(0));
        assert!(!entry.held.state.lock().locked);
        for rts in &rtses {
            rts.shutdown();
        }
    }
}
