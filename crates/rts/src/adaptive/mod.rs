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
//!   owner. A copy nobody reads has no mirror and a write to it costs the
//!   request and the reply: how every object starts, at its creator.
//! * **Sharded** — the object is split with its type's partitioning logic
//!   ([`orca_object::shard`]) into hash-partitioned slices spread over the
//!   nodes that use it, operations shipped point-to-point to partition
//!   owners. For write-hot shardable objects.
//!
//! With the regime *pinned* ([`AdaptivePolicy::pin`]) every object is
//! created in that regime and stays there; a pin fixes the regime, not the
//! placement. Usage is counted, reported and evaluated as below, for where
//! the object lives alone. Pinned to sharded ([`AdaptivePolicy::sharded`])
//! this runtime system is the `sharded` backend: an object's partitions
//! start spread over all nodes, which is where the placement rule puts an
//! object nobody has used yet, and then follow the nodes that access it; a
//! type without partitioning logic is one partition at its creator. Pinned
//! to replicated ([`AdaptivePolicy::primary_copy`]) it is the `primary`
//! backend, the paper's point-to-point runtime system: one authoritative
//! copy and a *dynamic* set of secondary copies — the copy moves to a node
//! that writes it, mirrors come and go where it is read.
//!
//! ## Who decides, and how nodes agree
//!
//! Every node counts its own reads/writes per object and reports them to
//! the object's home node every [`AdaptivePolicy::window`] accesses,
//! one-way: no invocation waits for the home. The home folds the reports
//! into a *decayed* per-node aggregate (halved at every evaluation — stale
//! bursts lose half their weight per window, so they cannot pin a regime)
//! and re-evaluates the regime every two windows of
//! reported accesses. The home's [`RegimeTable`] is authoritative; other
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
//!    regime drops its mirrors ([`RegimeMsg::DropCopies`]) and settles the
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
//!    back to a replicated copy at home, without mirrors, under a further
//!    epoch — the merged state is in hand, so the fallback cannot fail and
//!    no state is lost — and a re-placement goes back to the owners and
//!    epoch it had.
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
//! With recovery enabled ([`RecoveryConfig`]) a sharded-regime slot keeps
//! a mirror nobody reads on the next live node — its *keeper*: primed whole
//! when the slot is installed or the keeper says it lost sync, pushed every
//! completed write (a batch's run of them as one message) *before* it is
//! acknowledged, the way a replicated copy's read mirrors are. When an
//! owner dies the home asks every survivor once what it holds of the object
//! ([`RegimeMsg::Holdings`]) and promotes, per orphaned partition, the
//! mirror of the table's epoch with the highest version, in place
//! ([`RegimeMsg::Promote`]); the partitions keep their epoch, and clients
//! learn of the new owner because they distrust a cached table that names a
//! dead one. A replicated regime's copy has the mirrors its readers hold —
//! with re-homing on, a copy that would have none keeps one, at its home
//! once it has left it and on the next live node while it is there: when
//! its owner dies the home regenerates it from the freshest one, as a
//! single copy of its own under the next epoch, without mirrors until the
//! next evaluation. When the *home* dies the lowest live node adopts the
//! object on first contact with the same steps: the newest epoch any
//! survivor holds a part of is the object's, every partition of it must
//! have a slot or a kept mirror (how many there are follows from the policy
//! every node runs), a replicated-regime copy whose owner survives keeps
//! serving under the epoch it has, and one that died with the home is
//! regenerated from its freshest read mirror. What leaves none of these —
//! an object its creator took along before a first evaluation placed it, a
//! partition whose owner and keeper both died — is lost, explicitly
//! ([`RtsError::ObjectLost`]).
//!
//! ## Residual windows
//!
//! Update pushes to mirrors and mirror drops are best-effort under node
//! crashes: a mirror that misses an update detects the sequence gap on the
//! next update and re-syncs from the owner, and the regime lease bounds how
//! long a node can act on a retired table. On a live network both paths are
//! reliable.

mod client;
pub(crate) mod messages;
mod placement;
mod policy;
mod reassembly;
mod service;
mod slot;
#[cfg(test)]
#[path = "tests/engine.rs"]
mod tests;

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
use orca_telemetry::{Counter, FlightKind};
use orca_wire::{
    BatchOutcome, DedupWindow, Holdings, LeaseGrant, OpBatchView, OpRef, OpStamp, Wire,
};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::pipeline::{
    resolve_round, BatchPolicy, LazyPipeline, PendingBatches, QueuedOp, RoundSlot,
};
use crate::recovery::{is_dead, recovery_rpc, RecoveryConfig};
use crate::stats::{RtsStats, RtsStatsSnapshot};
use crate::update::{CopyState, HeldCopy, UpdateChannel, WriteAck};
use crate::{PendingInvocation, RtsError, RtsKind, RuntimeSystem, ViewSnapshot};
use messages::{served, table_object, RegimeKind, RegimeMsg, RegimeReply, RegimeTable};
use policy::{pick_regime, place, Count, UsageAggregate};
// The role files share this file's vocabulary (`use super::*`), each other's
// through it.
use {placement::*, reassembly::*, service::*, slot::*};

pub use policy::{AdaptivePolicy, WritePolicy};

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
    /// Mirrors of slots other nodes serve: the copies this node reads of
    /// replicated-regime objects, the ones it keeps of sharded partitions.
    mirrors: RwLock<HashMap<MirrorKey, Arc<Mirror>>>,
    /// Authoritative tables of objects this node created.
    homes: RwLock<HashMap<ObjectId, Arc<HomeObject>>>,
    /// Leased cache of other objects' regime tables.
    routes: Mutex<HashMap<ObjectId, (Arc<RegimeTable>, Instant)>>,
    /// This node's unreported read/write counts per object.
    pending_usage: Mutex<HashMap<ObjectId, (u64, u64)>>,
    next_object: AtomicU64,
    /// Rotates the scan start of `Any`-routed operations.
    any_seq: AtomicU64,
    stats: RtsStats,
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

/// Handle to one node's adaptive runtime system. Cheap to clone.
#[derive(Clone)]
pub struct AdaptiveRts {
    inner: Arc<Inner>,
    server: Arc<Mutex<Option<RpcServer>>>,
    /// Asynchronous-invocation pipeline, started lazily on first use and
    /// shared by all clones of this handle.
    pipeline: LazyPipeline,
}

impl std::fmt::Debug for AdaptiveRts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRts")
            .field("node", &self.inner.node)
            .finish()
    }
}

impl AdaptiveRts {
    /// Start the adaptive runtime system on the node owning `handle`
    /// (without crash recovery — node failures surface as timeouts).
    pub fn start(handle: NetworkHandle, registry: ObjectRegistry, policy: AdaptivePolicy) -> Self {
        Self::start_recoverable(handle, registry, policy, RecoveryConfig::disabled(), None)
    }

    /// Start the runtime system with crash recovery: every sharded-regime
    /// slot keeps a mirror on the next live node, and a dead owner's
    /// partitions are re-owned by promoting those; when an object's
    /// home node dies, the lowest live node adopts the object — sharded
    /// regime: from the slots and mirrors the survivors hold; replicated
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
            mirrors: RwLock::new(HashMap::new()),
            homes: RwLock::new(HashMap::new()),
            routes: Mutex::new(HashMap::new()),
            pending_usage: Mutex::new(HashMap::new()),
            next_object: AtomicU64::new(1),
            any_seq: AtomicU64::new(0),
            stats: RtsStats::from_handle(&handle),
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
        let pipeline = LazyPipeline::new(inner.node, Arc::clone(inner.handle.telemetry()));
        AdaptiveRts {
            inner,
            server: Arc::new(Mutex::new(Some(server))),
            pipeline,
        }
    }

    /// Stop the RPC service of this node and fail any invocation still in
    /// its retry loop with [`RtsError::Terminated`] (all waits in the loop
    /// are bounded, so blocked guards observe the flag promptly).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
        self.pipeline.shutdown();
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
