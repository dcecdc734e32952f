//! The broadcast runtime system (§3.2.1 of the paper).
//!
//! Every shared object is replicated on every node. Reads are executed on the
//! local replica and generate no network traffic; writes are shipped as
//! *operations* (type, operation code and parameters) through the
//! totally-ordered reliable broadcast, and every node's object manager
//! applies them in exactly the sequence-number order in which they were
//! delivered. Because `ObjectType::apply` is deterministic and all managers
//! see the same order, all replicas stay identical and the execution is
//! sequentially consistent.
//!
//! Blocking operations (guards) are handled the way the Orca RTS does it: a
//! delivered operation whose guard is false changes nothing — on any replica,
//! since they are all in the same state — and the invoking node re-issues the
//! operation when its local replica changes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use orca_amoeba::network::NetworkHandle;
use orca_amoeba::NodeId;
use orca_group::{Delivered, GroupConfig, GroupMember, GroupSender};
use orca_object::{
    AnyReplica, AppliedOutcome, ObjectDescriptor, ObjectError, ObjectId, ObjectRegistry, OpKind,
};
use orca_wire::{Decoder, Encoder, OpBatchEncoder, OpBatchView, Wire, WireError, WireResult};
use parking_lot::{Condvar, Mutex};

use crate::pipeline::{batch_capacity, BatchPolicy, LazyPipeline, QueuedOp};
use crate::stats::{RtsStats, RtsStatsSnapshot};
use crate::{PendingInvocation, RtsError, RtsKind, RuntimeSystem};

/// Message shipped through the totally-ordered broadcast by this RTS.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RtsBroadcastMsg {
    /// Create a replica of a new object on every node.
    Create {
        /// Invocation id at the creating node (to unblock its `create_object`).
        invocation: u64,
        /// Object id, type name and encoded initial state.
        descriptor: ObjectDescriptor,
    },
    /// Apply a write operation to the named object on every node.
    Write {
        /// Invocation id at the writing node (to return the reply).
        invocation: u64,
        /// Target object.
        object: ObjectId,
        /// Encoded operation.
        op: Vec<u8>,
    },
    /// Withdraw a timed-out invocation of the sending node. Rides the same
    /// total order as the operation it cancels, so every manager makes the
    /// identical drop/apply decision: if the withdraw is delivered first,
    /// the operation is dropped *everywhere* when (if ever) it arrives —
    /// the at-most-once guarantee behind [`RtsError::Timeout`]. A batch id
    /// may be withdrawn the same way, cancelling the whole batch
    /// atomically.
    Withdraw {
        /// Invocation (or batch) id being withdrawn.
        invocation: u64,
    },
}

impl RtsBroadcastMsg {
    /// Tag byte of the *write batch* message: a batch of write operations
    /// in one total-order slot. Every manager applies the ops in batch
    /// order, back to back, so the batch occupies one slot of the global
    /// order and either applies as a whole or (when its withdraw was
    /// ordered first) not at all.
    ///
    /// The message is this byte followed by an [`orca_wire::OpBatch`]
    /// encoding (batch id, then operations) and is never an owned
    /// `RtsBroadcastMsg`: the origin streams it out of its submission
    /// queue ([`BroadcastRts::send_write_batch`]), managers apply it in
    /// place ([`write_batch_of`]).
    const WRITE_BATCH_TAG: u8 = 3;
}

/// The batch id and operations of a delivered write batch, read in place;
/// `None` when `payload` is some other message.
fn write_batch_of(payload: &[u8]) -> Option<WireResult<(u64, OpBatchView<'_>)>> {
    let (&tag, batch) = payload.split_first()?;
    (tag == RtsBroadcastMsg::WRITE_BATCH_TAG).then(|| {
        let mut dec = Decoder::new(batch);
        let id = dec.get_uvarint()?;
        let ops = OpBatchView::parse(&mut dec)?;
        dec.finish()?;
        Ok((id, ops))
    })
}

impl Wire for RtsBroadcastMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RtsBroadcastMsg::Create {
                invocation,
                descriptor,
            } => {
                enc.put_u8(0);
                invocation.encode(enc);
                descriptor.encode(enc);
            }
            RtsBroadcastMsg::Write {
                invocation,
                object,
                op,
            } => {
                enc.put_u8(1);
                invocation.encode(enc);
                object.encode(enc);
                enc.put_bytes(op);
            }
            RtsBroadcastMsg::Withdraw { invocation } => {
                enc.put_u8(2);
                invocation.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RtsBroadcastMsg::Create {
                invocation: Wire::decode(dec)?,
                descriptor: Wire::decode(dec)?,
            }),
            1 => Ok(RtsBroadcastMsg::Write {
                invocation: Wire::decode(dec)?,
                object: Wire::decode(dec)?,
                op: dec.get_bytes()?,
            }),
            2 => Ok(RtsBroadcastMsg::Withdraw {
                invocation: Wire::decode(dec)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "RtsBroadcastMsg",
                tag: u64::from(tag),
            }),
        }
    }
}

/// What applying one delivered operation came to on the local replica.
#[derive(Debug, Clone)]
enum InvocationResult {
    Done(Vec<u8>),
    /// The guard was false at the replica version given — what the manager
    /// evaluated it at, the replica mutex held.
    Blocked(u64),
    Failed(ObjectError),
}

/// What the local manager reports about one of this node's outstanding
/// total-order slots (a create, a write or a write batch) once it has
/// consumed it.
enum Delivery {
    /// The slot was applied; one result per operation, in order.
    Applied(Vec<InvocationResult>),
    /// Its withdraw was ordered first: every manager drops the slot, so
    /// nothing in it ever takes effect.
    Withdrawn,
}

/// Withdrawn invocation ids ((origin, invocation) pairs), as seen by this
/// node's manager in total order. Bounded: an entry whose operation was
/// delivered *before* its withdraw can never match again (invocation ids
/// are unique per origin) and is eventually pruned by the cap.
#[derive(Default)]
struct WithdrawnOps {
    set: HashSet<(u16, u64)>,
    order: VecDeque<(u16, u64)>,
}

/// Upper bound on remembered withdrawn invocations. Withdraws only happen
/// after timeouts, so reaching the cap takes thousands of timed-out writes.
const WITHDRAWN_CAP: usize = 1024;

impl WithdrawnOps {
    fn mark(&mut self, key: (u16, u64)) {
        if self.set.insert(key) {
            self.order.push_back(key);
            if self.order.len() > WITHDRAWN_CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.set.remove(&oldest);
                }
            }
        }
    }

    /// True (consuming the mark) if `key` was withdrawn before delivery.
    fn take(&mut self, key: &(u16, u64)) -> bool {
        self.set.remove(key)
    }
}

struct ObjectEntry {
    replica: Mutex<Box<dyn AnyReplica>>,
    /// Signalled whenever a write completes on this replica; used to wake
    /// blocked (guarded) operations.
    changed: Condvar,
}

struct Inner {
    node: NodeId,
    num_nodes: usize,
    registry: ObjectRegistry,
    sender: GroupSender,
    objects: Mutex<HashMap<ObjectId, Arc<ObjectEntry>>>,
    object_created: Condvar,
    /// This node's outstanding total-order slots, keyed by the id their
    /// message carries (an invocation id, or a batch id: one namespace, so
    /// one withdraw protocol covers both).
    pending: Mutex<HashMap<u64, Sender<Delivery>>>,
    withdrawn: Mutex<WithdrawnOps>,
    next_invocation: AtomicU64,
    next_object: AtomicU64,
    /// Per-invocation deadline in milliseconds (see
    /// [`BroadcastRts::set_op_timeout`]).
    op_timeout_ms: AtomicU64,
    stats: RtsStats,
    stopped: AtomicBool,
}

impl Inner {
    fn op_timeout(&self) -> Duration {
        Duration::from_millis(self.op_timeout_ms.load(Ordering::Relaxed))
    }
}

/// Handle to one node's broadcast runtime system. Cheap to clone.
#[derive(Clone)]
pub struct BroadcastRts {
    inner: Arc<Inner>,
    manager: Arc<Mutex<Option<JoinHandle<()>>>>,
    /// Asynchronous-invocation pipeline, started lazily on first use and
    /// shared by all clones of this handle.
    pipeline: LazyPipeline,
}

impl std::fmt::Debug for BroadcastRts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastRts")
            .field("node", &self.inner.node)
            .finish()
    }
}

/// Default deadline an invocation waits for its own broadcast to come back
/// before withdrawing it (see [`BroadcastRts::set_op_timeout`]). Generous:
/// under heavy fault injection the group layer may need several
/// retransmission rounds.
const DEFAULT_INVOCATION_TIMEOUT: Duration = Duration::from_secs(60);

/// How often a wait for an outstanding slot looks for a shutdown.
const SLOT_WAIT_SLICE: Duration = Duration::from_millis(50);

/// How long `invoke` waits for an object created elsewhere to appear locally.
const OBJECT_WAIT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a blocked (guarded) operation waits for a local change before
/// re-issuing its broadcast anyway (protects against missed wake-ups).
const GUARD_REISSUE_INTERVAL: Duration = Duration::from_millis(200);

impl BroadcastRts {
    /// Start the broadcast runtime system on the node owning `handle`.
    ///
    /// `registry` must contain every object type the application will share;
    /// all nodes must register the same set.
    pub fn start(handle: NetworkHandle, registry: ObjectRegistry, group: GroupConfig) -> Self {
        let node = handle.node();
        let num_nodes = handle.num_nodes();
        // Captured before the group member consumes the network handle.
        let pipeline = LazyPipeline::new(node, Arc::clone(handle.telemetry()));
        let stats = RtsStats::from_handle(&handle);
        let member = GroupMember::start(handle, group);
        let sender = member.sender();
        let inner = Arc::new(Inner {
            node,
            num_nodes,
            registry,
            sender,
            objects: Mutex::new(HashMap::new()),
            object_created: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            withdrawn: Mutex::new(WithdrawnOps::default()),
            next_invocation: AtomicU64::new(1),
            next_object: AtomicU64::new(1),
            op_timeout_ms: AtomicU64::new(DEFAULT_INVOCATION_TIMEOUT.as_millis() as u64),
            stats,
            stopped: AtomicBool::new(false),
        });
        let manager_inner = Arc::clone(&inner);
        let manager = std::thread::Builder::new()
            .name(format!("rts-mgr-{node}"))
            .spawn(move || manager_loop(manager_inner, member))
            .expect("spawn rts manager thread");
        BroadcastRts {
            inner,
            manager: Arc::new(Mutex::new(Some(manager))),
            pipeline,
        }
    }

    /// Stop the object-manager thread and the group member, then wake every
    /// blocked invocation so it can observe the shutdown and return
    /// [`RtsError::Terminated`] instead of parking forever. Idempotent.
    pub fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
        // Fail fast every slot still outstanding — a synchronous call's or
        // the flusher's: it can never be delivered now, and with `stopped`
        // set its waiter surfaces Terminated instead of waiting out its
        // deadline. Then the flusher is free to stop.
        let parked: Vec<Sender<Delivery>> = self
            .inner
            .pending
            .lock()
            .drain()
            .map(|(_, tx)| tx)
            .collect();
        for tx in parked {
            let _ = tx.send(Delivery::Withdrawn);
        }
        self.pipeline.shutdown();
        if let Some(handle) = self.manager.lock().take() {
            let _ = handle.join();
        }
        // Wake readers parked on `wait_for_object` and on per-object guard
        // condvars; their wait loops re-check `stopped`.
        self.inner.object_created.notify_all();
        let entries: Vec<Arc<ObjectEntry>> = self.inner.objects.lock().values().cloned().collect();
        for entry in entries {
            entry.changed.notify_all();
        }
    }

    /// Set the per-invocation deadline: how long a write (or create) waits
    /// for its own broadcast to come back before it is withdrawn and
    /// [`RtsError::Timeout`] is surfaced. Mirrors
    /// `AdaptivePolicy::op_timeout`, so the conformance suite can exercise
    /// short deadlines on every backend.
    pub fn set_op_timeout(&self, timeout: Duration) {
        self.inner
            .op_timeout_ms
            .store(timeout.as_millis() as u64, Ordering::Relaxed);
    }

    /// Set the batching knobs of the asynchronous invocation path (takes
    /// effect from the next flusher round).
    pub fn set_batch_policy(&self, policy: BatchPolicy) {
        self.pipeline.set_policy(policy);
    }

    fn broadcast(&self, msg: Vec<u8>) -> Result<(), RtsError> {
        self.inner
            .sender
            .broadcast(msg)
            .map_err(|err| RtsError::Communication(err.to_string()))
    }

    /// Occupy one slot of the total order — a create, a write or a write
    /// batch — and wait for the local manager to consume it. `encode`
    /// builds the message around the slot's id, and is called only when
    /// the message is sent. The wait watches for a shutdown; at the
    /// deadline the slot is withdrawn and waited for once more. The
    /// withdraw rides the same total order, so exactly one of three things
    /// comes back: the slot's results, however late (the operations
    /// happened, and a timeout would lie); `Timeout`, the withdraw ordered
    /// first and every manager dropping the slot; or nothing at all — the
    /// group layer itself is dead (a crashed or partitioned node) — and
    /// `Timeout` with the entry removed, the documented residual.
    fn order(
        &self,
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> Result<Vec<InvocationResult>, RtsError> {
        let inner = &self.inner;
        let id = inner.next_invocation.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        inner.pending.lock().insert(id, tx);
        let stopped = || inner.stopped.load(Ordering::SeqCst);
        let wait = || {
            let deadline = Instant::now() + inner.op_timeout();
            loop {
                match rx.recv_timeout(SLOT_WAIT_SLICE) {
                    Ok(delivery) => return Some(delivery),
                    Err(_) if stopped() || Instant::now() >= deadline => return None,
                    Err(_) => {}
                }
            }
        };
        // Checked after the insert: a shutdown that raced it has drained
        // the table already, and would leave this slot waiting out its
        // deadline.
        let sent = match stopped() {
            true => Err(RtsError::Terminated),
            false => self.broadcast(encode(id)),
        };
        let mut delivery = None;
        if sent.is_ok() {
            delivery = wait();
            let withdraw = || RtsBroadcastMsg::Withdraw { invocation: id }.to_bytes();
            if delivery.is_none() && !stopped() && self.broadcast(withdraw()).is_ok() {
                delivery = wait();
            }
        }
        inner.pending.lock().remove(&id);
        sent?;
        // A delivery that raced the removal still sits in the channel.
        match delivery.or_else(|| rx.try_recv().ok()) {
            Some(Delivery::Applied(results)) => Ok(results),
            _ if stopped() => Err(RtsError::Terminated),
            _ => Err(RtsError::Timeout),
        }
    }

    fn wait_for_object(&self, object: ObjectId) -> Result<Arc<ObjectEntry>, RtsError> {
        let deadline = Instant::now() + OBJECT_WAIT_TIMEOUT;
        let mut objects = self.inner.objects.lock();
        loop {
            if let Some(entry) = objects.get(&object) {
                return Ok(Arc::clone(entry));
            }
            if self.inner.stopped.load(Ordering::SeqCst) {
                return Err(RtsError::Terminated);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RtsError::Object(ObjectError::NoSuchObject(object)));
            }
            self.inner
                .object_created
                .wait_for(&mut objects, deadline - now);
        }
    }

    fn local_read(&self, entry: &ObjectEntry, op: &[u8]) -> Result<Vec<u8>, RtsError> {
        let mut replica = entry.replica.lock();
        loop {
            match replica.apply_encoded(op)? {
                AppliedOutcome::Done(reply) => {
                    self.inner.stats.local_reads.inc();
                    return Ok(reply);
                }
                AppliedOutcome::Blocked => {
                    // After shutdown no write can ever make the guard true;
                    // fail instead of parking forever.
                    if self.inner.stopped.load(Ordering::SeqCst) {
                        return Err(RtsError::Terminated);
                    }
                    self.inner.stats.guard_retries.inc();
                    entry.changed.wait_for(&mut replica, GUARD_REISSUE_INTERVAL);
                }
            }
        }
    }

    /// Execute one flusher round: consecutive writes coalesce into one
    /// write-batch message (one total-order slot); a read waits
    /// for the preceding writes' slot to be consumed locally, then executes
    /// on the local replica — so every operation of the round completes in
    /// issue order.
    fn run_round(&self, ops: Vec<QueuedOp>) {
        let mut writes: Vec<QueuedOp> = Vec::new();
        for op in ops {
            match op.kind {
                OpKind::Write => writes.push(op),
                OpKind::Read => {
                    if !writes.is_empty() {
                        self.send_write_batch(std::mem::take(&mut writes));
                    }
                    self.async_local_read(op);
                }
            }
        }
        if !writes.is_empty() {
            self.send_write_batch(writes);
        }
    }

    /// One non-blocking local read on behalf of the asynchronous path; a
    /// false guard resolves the handle `Blocked` (the caller's `wait()`
    /// re-enters it at the tail of the pipeline) instead of stalling the
    /// round.
    fn async_local_read(&self, op: QueuedOp) {
        let entry = match self.wait_for_object(op.object) {
            Ok(entry) => entry,
            Err(err) => return op.completer.complete(Err(err)),
        };
        let outcome = entry.replica.lock().apply_encoded(&op.op);
        match outcome {
            Ok(AppliedOutcome::Done(reply)) => {
                self.inner.stats.local_reads.inc();
                op.completer.complete(Ok(reply));
            }
            Ok(AppliedOutcome::Blocked) => op.completer.complete_blocked(),
            Err(err) => op.completer.complete(Err(err.into())),
        }
    }

    /// Broadcast one batch of writes in one total-order slot and resolve
    /// every handle (in batch order) once the local manager has applied —
    /// or withdrawn — the batch.
    fn send_write_batch(&self, writes: Vec<QueuedOp>) {
        let stats = &self.inner.stats;
        let encode = |batch_id: u64| {
            stats.broadcast_writes.inc();
            stats.batches_sent.inc();
            stats.ops_batched.add(writes.len() as u64);
            let mut msg = Vec::with_capacity(batch_capacity(&writes));
            msg.push(RtsBroadcastMsg::WRITE_BATCH_TAG);
            batch_id.encode_into(&mut msg);
            let mut msg = OpBatchEncoder::new(msg);
            for write in &writes {
                msg.push(write.batched(0, 0, &write.op));
            }
            msg.finish()
        };
        match self.order(encode) {
            Ok(results) => {
                debug_assert_eq!(results.len(), writes.len());
                for (write, result) in writes.iter().zip(results) {
                    match result {
                        InvocationResult::Done(reply) => write.completer.complete(Ok(reply)),
                        InvocationResult::Failed(err) => write.completer.complete(Err(err.into())),
                        InvocationResult::Blocked(_) => write.completer.complete_blocked(),
                    }
                }
            }
            Err(err) => {
                for write in &writes {
                    write.completer.complete(Err(err.clone()));
                }
            }
        }
    }

    fn broadcast_write(&self, object: ObjectId, op: &[u8]) -> Result<Vec<u8>, RtsError> {
        self.inner.stats.writes.inc();
        let entry = self.wait_for_object(object)?;
        loop {
            let results = self.order(|invocation| {
                self.inner.stats.broadcast_writes.inc();
                let op = op.to_vec();
                RtsBroadcastMsg::Write {
                    invocation,
                    object,
                    op,
                }
                .to_bytes()
            })?;
            match only(results) {
                InvocationResult::Done(reply) => return Ok(reply),
                InvocationResult::Failed(err) => return Err(err.into()),
                InvocationResult::Blocked(seen_version) => {
                    // Guard false everywhere. Wait until the local replica
                    // changes (or a timeout elapses) and re-issue.
                    if self.inner.stopped.load(Ordering::SeqCst) {
                        return Err(RtsError::Terminated);
                    }
                    self.inner.stats.guard_retries.inc();
                    await_change(&entry, seen_version);
                }
            }
        }
    }
}

impl RuntimeSystem for BroadcastRts {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    fn create_object(&self, type_name: &str, initial_state: &[u8]) -> Result<ObjectId, RtsError> {
        if !self.inner.registry.contains(type_name) {
            return Err(RtsError::Object(ObjectError::UnknownType(
                type_name.to_string(),
            )));
        }
        let counter = self.inner.next_object.fetch_add(1, Ordering::Relaxed);
        let id = ObjectId::compose(self.inner.node.0, counter);
        let descriptor = ObjectDescriptor {
            id,
            type_name: type_name.to_string(),
            state: initial_state.to_vec(),
        };
        let results = self.order(|invocation| {
            RtsBroadcastMsg::Create {
                invocation,
                descriptor,
            }
            .to_bytes()
        })?;
        match only(results) {
            InvocationResult::Failed(err) => Err(err.into()),
            InvocationResult::Done(_) | InvocationResult::Blocked(_) => {
                self.inner.stats.objects_created.inc();
                Ok(id)
            }
        }
    }

    fn invoke(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError> {
        match kind {
            OpKind::Read => {
                let entry = self.wait_for_object(object)?;
                self.local_read(&entry, op)
            }
            OpKind::Write => self.broadcast_write(object, op),
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
        if kind == OpKind::Write {
            self.inner.stats.writes.inc();
        }
        self.pipeline.submit(object, kind, op, |pipeline| {
            let rts = BroadcastRts {
                pipeline,
                ..self.clone()
            };
            move |ops| rts.run_round(ops)
        })
    }

    fn stats(&self) -> RtsStatsSnapshot {
        self.inner.stats.snapshot()
    }

    fn kind(&self) -> RtsKind {
        RtsKind::Broadcast
    }
}

/// The object manager: applies delivered operations in total order.
fn manager_loop(inner: Arc<Inner>, member: GroupMember) {
    loop {
        if inner.stopped.load(Ordering::SeqCst) {
            member.shutdown();
            return;
        }
        let delivered = match member.recv_timeout(Duration::from_millis(50)) {
            Ok(delivered) => delivered,
            Err(orca_group::GroupError::Timeout) => continue,
            Err(_) => return,
        };
        handle_delivery(&inner, delivered);
    }
}

fn handle_delivery(inner: &Arc<Inner>, delivered: Delivered) {
    let origin = delivered.id.origin;
    // A write batch is applied straight from the delivered bytes;
    // everything else decodes into an owned message first.
    match write_batch_of(&delivered.payload) {
        Some(Ok((batch, ops))) => return apply_write_batch(inner, origin, batch, &ops),
        Some(Err(_)) => return, // corrupted: ignore
        None => {}
    }
    let msg = match RtsBroadcastMsg::from_bytes(&delivered.payload) {
        Ok(msg) => msg,
        Err(_) => return, // not ours / corrupted: ignore
    };
    match msg {
        RtsBroadcastMsg::Create {
            invocation,
            descriptor,
        } => {
            if inner.withdrawn.lock().take(&(origin.0, invocation)) {
                // Withdrawn before delivery: dropped by every manager.
                return;
            }
            let result = install_object(inner, &descriptor);
            if origin == inner.node {
                complete(inner, invocation, Delivery::Applied(vec![result]));
            }
        }
        RtsBroadcastMsg::Write {
            invocation,
            object,
            op,
        } => {
            if inner.withdrawn.lock().take(&(origin.0, invocation)) {
                // Withdrawn before delivery: dropped by every manager, so
                // the Timeout the origin reported stays truthful.
                return;
            }
            let result = apply_write(inner, object, &op, origin != inner.node);
            if origin == inner.node {
                complete(inner, invocation, Delivery::Applied(vec![result]));
            }
        }
        RtsBroadcastMsg::Withdraw { invocation } => {
            // The decision is a pure function of the delivery order, which
            // is identical on every node: whichever of the operation and
            // its withdraw is delivered first wins everywhere.
            inner.withdrawn.lock().mark((origin.0, invocation));
            if origin == inner.node {
                complete(inner, invocation, Delivery::Withdrawn);
            }
        }
    }
}

/// Apply one delivered write batch (or drop it whole, if withdrawn).
fn apply_write_batch(inner: &Arc<Inner>, origin: NodeId, batch: u64, ops: &OpBatchView<'_>) {
    if inner.withdrawn.lock().take(&(origin.0, batch)) {
        // Withdrawn before delivery: the whole batch is dropped by
        // every manager — no partial application anywhere.
        return;
    }
    // One protocol-handling event for the whole slot, then one apply per
    // op — the accounting split the cost model relies on
    // (`updates_applied` per message, `batch_ops_applied` per op).
    if origin != inner.node {
        inner.stats.updates_applied.inc();
    }
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        inner.stats.batch_ops_applied.inc();
        results.push(apply_write(inner, ObjectId(op.object), op.op, false));
    }
    if origin == inner.node {
        complete(inner, batch, Delivery::Applied(results));
    }
}

fn install_object(inner: &Arc<Inner>, descriptor: &ObjectDescriptor) -> InvocationResult {
    let replica = match inner
        .registry
        .instantiate(&descriptor.type_name, &descriptor.state)
    {
        Ok(replica) => replica,
        Err(err) => return InvocationResult::Failed(err),
    };
    let mut objects = inner.objects.lock();
    objects.entry(descriptor.id).or_insert_with(|| {
        Arc::new(ObjectEntry {
            replica: Mutex::new(replica),
            changed: Condvar::new(),
        })
    });
    inner.object_created.notify_all();
    InvocationResult::Done(Vec::new())
}

/// The bare ordered apply of one delivered write. `counted` bumps
/// `updates_applied` — for another node's write that is a message of its
/// own; a batch is counted once by its caller.
fn apply_write(inner: &Arc<Inner>, object: ObjectId, op: &[u8], counted: bool) -> InvocationResult {
    let entry = {
        let objects = inner.objects.lock();
        match objects.get(&object) {
            Some(entry) => Arc::clone(entry),
            None => return InvocationResult::Failed(ObjectError::NoSuchObject(object)),
        }
    };
    let mut replica = entry.replica.lock();
    match replica.apply_encoded(op) {
        Ok(AppliedOutcome::Done(reply)) => {
            if counted {
                inner.stats.updates_applied.inc();
            }
            entry.changed.notify_all();
            InvocationResult::Done(reply)
        }
        Ok(AppliedOutcome::Blocked) => InvocationResult::Blocked(replica.version()),
        Err(err) => InvocationResult::Failed(err),
    }
}

/// Park a guard-blocked write until the replica of `entry` has moved past
/// `seen_version`, the version its guard was found false at, or the re-issue
/// interval is up. False when there was nothing to wait for: a write got in
/// between the manager's evaluation and this call — the wake-up it sent
/// is gone, and the guard may be true by now.
fn await_change(entry: &ObjectEntry, seen_version: u64) -> bool {
    let mut replica = entry.replica.lock();
    let unchanged = replica.version() == seen_version;
    if unchanged {
        entry.changed.wait_for(&mut replica, GUARD_REISSUE_INTERVAL);
    }
    unchanged
}

/// Resolve this node's outstanding slot `id`, if it is still waited for.
fn complete(inner: &Arc<Inner>, id: u64, delivery: Delivery) {
    if let Some(tx) = inner.pending.lock().remove(&id) {
        let _ = tx.send(delivery);
    }
}

/// The result of a slot that held one operation (a create or a write).
fn only(results: Vec<InvocationResult>) -> InvocationResult {
    let mut results = results.into_iter();
    results.next().expect("one result per operation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::network::{Network, NetworkConfig};
    use orca_amoeba::FaultConfig;
    use orca_object::testing::{Accumulator, AccumulatorOp, EventLog, EventLogOp, EventLogReply};
    use orca_object::ObjectType;

    fn registry() -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry.register::<EventLog>();
        registry
    }

    fn start_all(net: &Network) -> Vec<BroadcastRts> {
        net.node_ids()
            .into_iter()
            .map(|n| BroadcastRts::start(net.handle(n), registry(), GroupConfig::default()))
            .collect()
    }

    fn shutdown_all(rtses: Vec<BroadcastRts>) {
        for rts in &rtses {
            rts.shutdown();
        }
    }

    /// The guard's version travels with the `Blocked`: a write applied
    /// between the manager's evaluation and the invocation's wait is seen,
    /// and the wait — 200 ms for a wake-up that has already been — skipped.
    #[test]
    fn a_guarded_write_does_not_wait_for_a_change_that_has_happened() {
        let replica = registry().instantiate(Accumulator::TYPE_NAME, &0i64.to_bytes());
        let entry = ObjectEntry {
            replica: Mutex::new(replica.unwrap()),
            changed: Condvar::new(),
        };
        let evaluated_at = entry.replica.lock().version();
        let add = AccumulatorOp::Add(1).to_bytes();
        entry.replica.lock().apply_encoded(&add).unwrap();
        assert!(
            !await_change(&entry, evaluated_at),
            "waited for a past change"
        );
    }

    #[test]
    fn create_read_write_roundtrip() {
        let net = Network::reliable(3);
        let rtses = start_all(&net);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Write from node 1, read from node 2.
        let reply = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(5).to_bytes(),
            )
            .unwrap();
        assert_eq!(i64::from_bytes(&reply).unwrap(), 5);
        // The read may race with the update's arrival at node 2 only if the
        // write has not yet been applied there; reads are local, so poll.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let reply = rtses[2]
                .invoke(
                    id,
                    Accumulator::TYPE_NAME,
                    OpKind::Read,
                    &AccumulatorOp::Read.to_bytes(),
                )
                .unwrap();
            if i64::from_bytes(&reply).unwrap() == 5 {
                break;
            }
            assert!(Instant::now() < deadline, "update never reached node 2");
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = rtses[2].stats();
        assert!(stats.local_reads >= 1);
        assert_eq!(stats.remote_reads, 0);
        // Every field is in the network's registry, with no `OrcaRuntime`.
        let counters = net.telemetry().registry().snapshot().counters;
        let published = counters
            .keys()
            .filter(|name| name.starts_with("rts.node2."));
        assert_eq!(published.count(), 15);
        assert_eq!(counters["rts.node2.local_reads"], stats.local_reads);
        shutdown_all(rtses);
    }

    #[test]
    fn writes_from_all_nodes_are_applied_in_one_order_everywhere() {
        let net = Network::reliable(4);
        let rtses = start_all(&net);
        let id = rtses[0]
            .create_object(EventLog::TYPE_NAME, &Vec::<u32>::new().to_bytes())
            .unwrap();
        let mut handles = Vec::new();
        for (i, rts) in rtses.iter().enumerate() {
            let rts = rts.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..10u32 {
                    let value = (i as u32) * 100 + k;
                    rts.invoke(
                        id,
                        EventLog::TYPE_NAME,
                        OpKind::Write,
                        &EventLogOp::Append(value).to_bytes(),
                    )
                    .unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        // Wait until every node has all 40 appends, then compare snapshots.
        let expected_len = 40u64;
        let mut logs = Vec::new();
        for rts in &rtses {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let reply = rts
                    .invoke(
                        id,
                        EventLog::TYPE_NAME,
                        OpKind::Read,
                        &EventLogOp::Snapshot.to_bytes(),
                    )
                    .unwrap();
                let EventLogReply::Contents(log) = EventLogReply::from_bytes(&reply).unwrap()
                else {
                    panic!("unexpected reply variant");
                };
                if log.len() as u64 == expected_len {
                    logs.push(log);
                    break;
                }
                assert!(Instant::now() < deadline, "node missing appends");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        for log in &logs[1..] {
            assert_eq!(log, &logs[0], "replicas diverged");
        }
        shutdown_all(rtses);
    }

    #[test]
    fn blocking_write_operation_waits_for_guard() {
        let net = Network::reliable(2);
        let rtses = start_all(&net);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // AwaitAtLeast is a read op in the test object; use it on node 1
        // while node 0 eventually performs the awaited write.
        let waiter = {
            let rts = rtses[1].clone();
            std::thread::spawn(move || {
                let reply = rts
                    .invoke(
                        id,
                        Accumulator::TYPE_NAME,
                        OpKind::Read,
                        &AccumulatorOp::AwaitAtLeast(10).to_bytes(),
                    )
                    .unwrap();
                i64::from_bytes(&reply).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        rtses[0]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(25).to_bytes(),
            )
            .unwrap();
        assert_eq!(waiter.join().unwrap(), 25);
        assert!(rtses[1].stats().guard_retries >= 1);
        shutdown_all(rtses);
    }

    #[test]
    fn works_over_a_lossy_network() {
        let fault = FaultConfig {
            drop_prob: 0.10,
            duplicate_prob: 0.02,
            reorder_prob: 0.02,
            seed: 17,
        };
        let net = Network::new(NetworkConfig::with_fault(3, fault));
        let rtses = start_all(&net);
        let id = rtses[1]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        for i in 0..10 {
            let rts = &rtses[i % 3];
            rts.invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(1).to_bytes(),
            )
            .unwrap();
        }
        let reply = rtses[2]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(0).to_bytes(),
            )
            .unwrap();
        assert_eq!(i64::from_bytes(&reply).unwrap(), 10);
        shutdown_all(rtses);
    }

    #[test]
    fn unknown_type_and_unknown_object_errors() {
        let net = Network::reliable(1);
        let rtses = start_all(&net);
        assert!(matches!(
            rtses[0].create_object("NotRegistered", &[]),
            Err(RtsError::Object(ObjectError::UnknownType(_)))
        ));
        shutdown_all(rtses);
    }

    #[test]
    fn message_codec_round_trip() {
        let msgs = vec![
            RtsBroadcastMsg::Create {
                invocation: 3,
                descriptor: ObjectDescriptor {
                    id: ObjectId::compose(1, 2),
                    type_name: "X".into(),
                    state: vec![1],
                },
            },
            RtsBroadcastMsg::Write {
                invocation: 9,
                object: ObjectId::compose(0, 7),
                op: vec![1, 2, 3],
            },
            RtsBroadcastMsg::Withdraw { invocation: 11 },
        ];
        for msg in msgs {
            assert_eq!(RtsBroadcastMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    /// Satellite regression: a write whose deadline expires must remove its
    /// pending-map entry (the map used to leak one sender per timeout) and
    /// surface `Timeout` within the configured deadline, not after 60 s.
    #[test]
    fn timed_out_write_cleans_up_pending_invocations() {
        let net = Network::reliable(2);
        let rtses = start_all(&net);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Crash the writing node: its broadcasts (and withdraws) go
        // nowhere, so the invocation can only time out.
        rtses[0].set_op_timeout(Duration::from_millis(120));
        net.crash(NodeId(0));
        let started = Instant::now();
        let err = rtses[0]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(100).to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::Timeout);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(
            rtses[0].inner.pending.lock().is_empty(),
            "timed-out invocation leaked its pending-map entry"
        );
        // The dropped write took no effect on the local replica.
        let reply = rtses[0]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::Read.to_bytes(),
            )
            .unwrap();
        assert_eq!(i64::from_bytes(&reply).unwrap(), 0);
        // Creates through a dead network clean up the same way.
        let err = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap_err();
        assert_eq!(err, RtsError::Timeout);
        assert!(rtses[0].inner.pending.lock().is_empty());
        // And a pipelined write's batch: the same slot, withdrawn the same way.
        let add = AccumulatorOp::Add(7).to_bytes();
        let pending = rtses[0].invoke_async(id, Accumulator::TYPE_NAME, OpKind::Write, &add);
        assert_eq!(pending.wait(), Err(RtsError::Timeout));
        assert!(rtses[0].inner.pending.lock().is_empty());
        net.recover(NodeId(0));
        shutdown_all(rtses);
    }

    /// Satellite regression: the manager-side withdrawn marks. A write
    /// whose withdraw was ordered before it in the broadcast total order
    /// must be dropped on delivery (at-most-once for timed-out writes); a
    /// write ordered before its withdraw applies normally.
    #[test]
    fn withdrawn_write_is_not_applied_on_late_delivery() {
        use orca_group::MsgId;
        let net = Network::reliable(1);
        let rtses = start_all(&net);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let inner = &rtses[0].inner;
        let deliver = |seq: u64, msg: &RtsBroadcastMsg| {
            handle_delivery(
                inner,
                Delivered {
                    global_seq: seq,
                    id: MsgId {
                        origin: NodeId(0),
                        origin_seq: seq,
                    },
                    payload: msg.to_bytes(),
                },
            );
        };
        let read = || {
            let reply = rtses[0]
                .invoke(
                    id,
                    Accumulator::TYPE_NAME,
                    OpKind::Read,
                    &AccumulatorOp::Read.to_bytes(),
                )
                .unwrap();
            i64::from_bytes(&reply).unwrap()
        };
        // Withdraw ordered before its write: the write must be dropped.
        deliver(100, &RtsBroadcastMsg::Withdraw { invocation: 777 });
        deliver(
            101,
            &RtsBroadcastMsg::Write {
                invocation: 777,
                object: id,
                op: AccumulatorOp::Add(100).to_bytes(),
            },
        );
        assert_eq!(read(), 0, "withdrawn write was reapplied (ghost write)");
        // The consumed mark does not affect a fresh invocation of the same
        // operation.
        deliver(
            102,
            &RtsBroadcastMsg::Write {
                invocation: 778,
                object: id,
                op: AccumulatorOp::Add(5).to_bytes(),
            },
        );
        assert_eq!(read(), 5);
        // Write ordered before its (late) withdraw applies normally; the
        // stale mark can never match invocation 778 again.
        deliver(103, &RtsBroadcastMsg::Withdraw { invocation: 778 });
        deliver(
            104,
            &RtsBroadcastMsg::Write {
                invocation: 779,
                object: id,
                op: AccumulatorOp::Add(2).to_bytes(),
            },
        );
        assert_eq!(read(), 7);
        shutdown_all(rtses);
    }

    /// Crash recovery: the sequencer dies while writes are in flight from
    /// every survivor. The group layer elects a new sequencer, replays its
    /// predecessor's era from the members' delivery histories, and every
    /// write completes — the surviving replicas converge on the identical
    /// state with no acknowledged write lost.
    #[test]
    fn sequencer_crash_mid_writes_converges_on_survivors() {
        let net = Network::reliable(3);
        let group = GroupConfig {
            retransmit_timeout: Duration::from_millis(40),
            ..GroupConfig::default()
        };
        let rtses: Vec<BroadcastRts> = net
            .node_ids()
            .into_iter()
            .map(|n| BroadcastRts::start(net.handle(n), registry(), group.clone()))
            .collect();
        let id = rtses[0]
            .create_object(EventLog::TYPE_NAME, &Vec::<u32>::new().to_bytes())
            .unwrap();
        const APPENDS: u32 = 20;
        let writers: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|n| {
                let rts = rtses[n].clone();
                std::thread::spawn(move || {
                    for k in 0..APPENDS {
                        let value = (n as u32) * 100 + k;
                        rts.invoke(
                            id,
                            EventLog::TYPE_NAME,
                            OpKind::Write,
                            &EventLogOp::Append(value).to_bytes(),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        // Kill the sequencer (node 0) while the append streams are live.
        std::thread::sleep(Duration::from_millis(15));
        net.crash(NodeId(0));
        for writer in writers {
            writer.join().unwrap();
        }
        // Both survivors converge on one log containing every acknowledged
        // append exactly once.
        let mut logs = Vec::new();
        for rts in &rtses[1..] {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let reply = rts
                    .invoke(
                        id,
                        EventLog::TYPE_NAME,
                        OpKind::Read,
                        &EventLogOp::Snapshot.to_bytes(),
                    )
                    .unwrap();
                let EventLogReply::Contents(log) = EventLogReply::from_bytes(&reply).unwrap()
                else {
                    panic!("unexpected reply variant");
                };
                if log.len() as u32 == APPENDS * 2 {
                    logs.push(log);
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "survivor missing acknowledged appends ({} of {})",
                    log.len(),
                    APPENDS * 2
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        assert_eq!(logs[0], logs[1], "survivors diverged after election");
        let mut sorted = logs[0].clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u32, APPENDS * 2, "an append was duplicated");
        shutdown_all(rtses);
    }

    /// Satellite regression: shutdown must wake a reader parked in
    /// `local_read`'s guard loop and surface `Terminated` instead of
    /// letting it spin forever — and a pipelined batch whose slot is still
    /// outstanding, instead of letting it wait out its deadline.
    #[test]
    fn shutdown_wakes_blocked_guarded_reader() {
        let net = Network::reliable(2);
        let rtses = start_all(&net);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let waiter = {
            let rts = rtses[1].clone();
            std::thread::spawn(move || {
                rts.invoke(
                    id,
                    Accumulator::TYPE_NAME,
                    OpKind::Read,
                    &AccumulatorOp::AwaitAtLeast(10_000).to_bytes(),
                )
            })
        };
        // Node 1's broadcasts go nowhere: its batch stays in flight.
        net.crash(NodeId(1));
        let add = AccumulatorOp::Add(1).to_bytes();
        let batch = rtses[1].invoke_async(id, Accumulator::TYPE_NAME, OpKind::Write, &add);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(batch.try_get(), None, "the batch was not in flight");
        let started = Instant::now();
        rtses[1].shutdown();
        let result = waiter.join().unwrap();
        assert_eq!(result.unwrap_err(), RtsError::Terminated);
        assert_eq!(batch.wait(), Err(RtsError::Terminated));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "blocked reader or batch was not woken promptly"
        );
        net.recover(NodeId(1));
        // New blocked operations fail fast after shutdown too.
        let err = rtses[1]
            .invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::AwaitAtLeast(10_000).to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::Terminated);
        shutdown_all(rtses);
    }
}
