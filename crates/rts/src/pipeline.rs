//! Pipelined asynchronous invocations: completion handles, the per-node
//! submission queue, and the batching knobs shared by the runtime systems.
//!
//! The paper's runtime systems block the invoking process on every
//! operation, so throughput is bounded by round-trip latency. The
//! asynchronous path decouples *invocation* from *completion*: a process
//! submits a slice of operations and receives a [`PendingInvocation`]
//! handle per operation immediately; the node's runtime system keeps a FIFO
//! of submitted operations and a flusher thread that ships them in
//! *batches* — one totally-ordered broadcast slot, one RPC per destination
//! node — coalescing up to [`BatchPolicy::max_batch`]
//! operations per round (group commit: while one round is in flight, the
//! next round accumulates). A slice enters the queue whole, so a window of
//! up to `max_batch` operations is one round.
//!
//! # Ordering contract
//!
//! Operations submitted by one node's processes are executed and their
//! completions resolved in **issue order**: each flusher round takes a
//! FIFO prefix of the queue, executes it (batches are applied in order at
//! their destination), and resolves every handle of the round in issue
//! order before the next round is cut. In particular, operations issued by
//! one process on one object complete in the order they were issued. The
//! single deliberate exception is a *guarded* operation whose guard is
//! false at apply time: it takes no effect in its round, and
//! [`PendingInvocation::wait`] **re-enters it at the tail of the same
//! pipeline** — it re-executes in issue order relative to everything
//! submitted since, never jumping the queue through the synchronous path —
//! while later operations do not wait for its guard. Pipelining is for
//! non-blocking operations; synchronization points should use the
//! synchronous API, which waits at the copy that evaluated the guard.
//!
//! # Failure contract
//!
//! A batch that dies with its destination reports a **per-operation**
//! outcome: every handle of the batch resolves with
//! [`RtsError::NodeDown`] / [`RtsError::Timeout`] — no operation is
//! silently dropped, and the asynchronous path never re-sends an operation
//! across a node failure on its own (the destination may have applied it
//! before crashing), so no acknowledged operation is ever doubly applied. A
//! batch for a node already declared dead is not sent: its operations
//! resolve `NodeDown` at once, and the rest of the round goes on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orca_amoeba::NodeId;
use orca_object::{ObjectId, OpKind};
use orca_telemetry::{FlightKind, Telemetry};
use orca_wire::{BatchOutcome, BatchOutcomes, OpBatchEncoder, OpRef, RegimeMsg, TraceId};
use parking_lot::{Condvar, Mutex};

use crate::{AsyncOp, RtsError};

/// Batching knobs of the asynchronous invocation path (`OrcaConfig::batch`).
///
/// Synchronous invocations are never batched; these knobs only shape how
/// the flusher cuts rounds out of the asynchronous submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Upper bound on operations taken per flusher round (and therefore on
    /// operations coalesced into one destination message).
    pub max_batch: usize,
    /// How long a round waits for more submissions before it is cut when
    /// fewer than `max_batch` operations are queued: for several processes
    /// that submit single operations (a slice is queued whole). Zero ships
    /// immediately — under load the group-commit effect alone fills
    /// batches, because submissions accumulate while the previous round is
    /// in flight.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_delay: Duration::ZERO,
        }
    }
}

/// Completion state of one asynchronous invocation.
enum FutureState {
    /// Not resolved yet.
    Pending,
    /// The operation's guard was false; it took no effect. Resolved by
    /// re-entering the pipeline queue on [`PendingInvocation::wait`].
    Blocked,
    /// Resolved.
    Ready(Result<Vec<u8>, RtsError>),
}

struct FutureShared {
    state: Mutex<FutureState>,
    done: Condvar,
}

/// Re-enters a guard-blocked operation at the tail of its pipeline queue
/// (with the handed-back [`Completer`]), so the re-execution keeps issue
/// order relative to everything submitted since.
type ResubmitFn = dyn Fn(Completer) + Send + Sync;

/// Pause between a guard-blocked resolution and its re-entry into the
/// queue: a guard that stays false cycles through flusher rounds at this
/// rate instead of spinning them hot.
const BLOCKED_RESUBMIT_DELAY: Duration = Duration::from_millis(2);

/// Completion handle of one asynchronous invocation
/// (`RuntimeSystem::invoke_many`).
///
/// Cheap to move; [`PendingInvocation::wait`] may be called any number of
/// times (the result is cached).
pub struct PendingInvocation {
    shared: Arc<FutureShared>,
    resubmit: Option<Arc<ResubmitFn>>,
}

impl std::fmt::Debug for PendingInvocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &*self.shared.state.lock() {
            FutureState::Pending => "pending",
            FutureState::Blocked => "blocked",
            FutureState::Ready(_) => "ready",
        };
        f.debug_struct("PendingInvocation")
            .field("state", &state)
            .finish()
    }
}

impl PendingInvocation {
    /// An already-resolved handle: a submission refused before it was queued.
    pub fn ready(result: Result<Vec<u8>, RtsError>) -> Self {
        PendingInvocation {
            shared: Arc::new(FutureShared {
                state: Mutex::new(FutureState::Ready(result)),
                done: Condvar::new(),
            }),
            resubmit: None,
        }
    }

    /// Block until the invocation completes and return its result.
    pub fn wait(&self) -> Result<Vec<u8>, RtsError> {
        let mut state = self.shared.state.lock();
        loop {
            match &*state {
                FutureState::Ready(result) => return result.clone(),
                FutureState::Blocked => {
                    let Some(resubmit) = self.resubmit.clone() else {
                        return Err(RtsError::Communication(
                            "blocked invocation has no resubmission path".into(),
                        ));
                    };
                    // The blocked operation took no effect anywhere;
                    // re-entering it at the tail of its own pipeline keeps
                    // the issue-order contract — it never jumps the queue
                    // through the synchronous path. Re-arming under the
                    // lock makes exactly one waiter the resubmitter; any
                    // concurrent wait() sees Pending and just waits.
                    *state = FutureState::Pending;
                    drop(state);
                    std::thread::sleep(BLOCKED_RESUBMIT_DELAY);
                    resubmit(Completer {
                        shared: Arc::clone(&self.shared),
                    });
                    state = self.shared.state.lock();
                }
                FutureState::Pending => self.shared.done.wait(&mut state),
            }
        }
    }

    /// The result if the invocation has completed, `None` while it is still
    /// in flight (or guard-blocked — a blocked invocation resolves through
    /// [`PendingInvocation::wait`]).
    pub fn try_get(&self) -> Option<Result<Vec<u8>, RtsError>> {
        match &*self.shared.state.lock() {
            FutureState::Ready(result) => Some(result.clone()),
            FutureState::Pending | FutureState::Blocked => None,
        }
    }
}

/// The resolving end of a [`PendingInvocation`], held by the runtime
/// system until the operation's outcome is known.
pub(crate) struct Completer {
    shared: Arc<FutureShared>,
}

impl Completer {
    /// Resolve the handle.
    pub(crate) fn complete(&self, result: Result<Vec<u8>, RtsError>) {
        let mut state = self.shared.state.lock();
        if matches!(*state, FutureState::Pending | FutureState::Blocked) {
            *state = FutureState::Ready(result);
            self.shared.done.notify_all();
        }
    }

    /// Mark the handle guard-blocked; `wait()` re-enters it in the queue.
    pub(crate) fn complete_blocked(&self) {
        let mut state = self.shared.state.lock();
        if matches!(*state, FutureState::Pending) {
            *state = FutureState::Blocked;
            self.shared.done.notify_all();
        }
    }
}

/// Create a linked handle/completer pair. `resubmit` re-enqueues the
/// operation (with the completer it is handed) when a round reports its
/// guard false, preserving issue order for the re-execution.
pub(crate) fn pending_pair(resubmit: Arc<ResubmitFn>) -> (PendingInvocation, Completer) {
    let shared = Arc::new(FutureShared {
        state: Mutex::new(FutureState::Pending),
        done: Condvar::new(),
    });
    (
        PendingInvocation {
            shared: Arc::clone(&shared),
            resubmit: Some(resubmit),
        },
        Completer { shared },
    )
}

/// Handles of `ops`, every one already resolved with `err`.
pub(crate) fn all_failed(ops: &[AsyncOp<'_>], err: RtsError) -> Vec<PendingInvocation> {
    ops.iter()
        .map(|_| PendingInvocation::ready(Err(err.clone())))
        .collect()
}

/// Per-operation state a round executor fills in while it works through a
/// FIFO prefix of the queue.
pub(crate) enum RoundSlot {
    /// Not executed (a round that ends with `Todo` slots resolves them as
    /// timed out — every handle always resolves).
    Todo,
    /// Guard was false; `wait()` re-enters the op in the pipeline queue.
    Blocked,
    /// Executed.
    Ready(Result<Vec<u8>, RtsError>),
}

/// Resolve every handle of a finished round, in issue order.
pub(crate) fn resolve_round(ops: Vec<QueuedOp>, slots: Vec<RoundSlot>) {
    debug_assert_eq!(ops.len(), slots.len());
    for (op, slot) in ops.into_iter().zip(slots) {
        match slot {
            RoundSlot::Ready(result) => op.completer.complete(result),
            RoundSlot::Blocked => op.completer.complete_blocked(),
            RoundSlot::Todo => op.completer.complete(Err(RtsError::Timeout)),
        }
    }
}

/// Map the outcomes of one shipped batch back onto round slots; `Stale`
/// outcomes queue their index for the next pass.
pub(crate) fn record_batch_outcomes(
    indices: &[usize],
    outcomes: BatchOutcomes,
    slots: &mut [RoundSlot],
    stale: &mut Vec<usize>,
) {
    for (&i, outcome) in indices.iter().zip(outcomes.iter()) {
        match outcome {
            BatchOutcome::Done(reply) => slots[i] = RoundSlot::Ready(Ok(reply.clone())),
            BatchOutcome::Blocked => slots[i] = RoundSlot::Blocked,
            BatchOutcome::Stale => stale.push(i),
            BatchOutcome::Failed(msg) => {
                slots[i] = RoundSlot::Ready(Err(RtsError::Communication(msg.clone())))
            }
        }
    }
    stale.sort_unstable();
}

/// Size of a request that batches all of `ops`: their bytes, the codec's
/// two bytes per operation and one to spare, and a first operation's
/// unpredicted fields.
pub(crate) fn batch_capacity<'a>(ops: impl IntoIterator<Item = &'a QueuedOp>) -> usize {
    32 + ops.into_iter().map(|op| op.op.len() + 3).sum::<usize>()
}

/// One destination's share of a pass: the round indices of its operations
/// and the request message they are being encoded into.
struct DestBatch {
    dest: NodeId,
    indices: Vec<usize>,
    request: OpBatchEncoder,
}

/// The per-destination batch requests of one pass, in first-touch order.
/// Operations are encoded as they are routed — out of the submission queue
/// into the message that ships them — so nothing is cloned on the way.
pub(crate) struct PendingBatches {
    /// Operations in the round, and the size of a request that held them
    /// all: what each destination's buffers are created with, so that
    /// they do not regrow op by op.
    round_ops: usize,
    round_bytes: usize,
    list: Vec<DestBatch>,
}

impl PendingBatches {
    /// No batches yet, for a pass over (some of) the operations of `round`.
    pub(crate) fn new(round: &[QueuedOp]) -> Self {
        PendingBatches {
            round_ops: round.len(),
            round_bytes: batch_capacity(round),
            list: Vec::new(),
        }
    }

    /// Append round operation `index` to `dest`'s request.
    pub(crate) fn push(&mut self, dest: NodeId, index: usize, op: OpRef<'_>) {
        let pos = match self.list.iter().position(|batch| batch.dest == dest) {
            Some(pos) => pos,
            None => {
                self.list.push(DestBatch {
                    dest,
                    indices: Vec::with_capacity(self.round_ops),
                    request: OpBatchEncoder::request(RegimeMsg::OP_BATCH_TAG, self.round_bytes),
                });
                self.list.len() - 1
            }
        };
        let batch = &mut self.list[pos];
        batch.indices.push(index);
        batch.request.push(op);
    }

    /// Take every batch: its destination, the round indices of its
    /// operations and its finished request.
    pub(crate) fn take(&mut self) -> impl Iterator<Item = (NodeId, Vec<usize>, Vec<u8>)> + '_ {
        let finish = |batch: DestBatch| (batch.dest, batch.indices, batch.request.finish());
        self.list.drain(..).map(finish)
    }
}

/// One queued asynchronous operation.
pub(crate) struct QueuedOp {
    /// Target object.
    pub object: ObjectId,
    /// Read/write classification (as supplied by the caller).
    pub kind: OpKind,
    /// Encoded operation (shared with the handle's resubmission).
    pub op: Arc<[u8]>,
    /// Causal trace of the submitting invocation, carried into the batch
    /// messages so remote applies land in the same span.
    pub trace: TraceId,
    /// When the operation entered the queue (queue-wait latency anchor).
    pub submitted: Instant,
    /// Resolving end of the caller's handle.
    pub completer: Completer,
}

impl QueuedOp {
    /// This operation as a batch entry addressed to `partition` at
    /// `epoch`; `bytes` is its encoded form, possibly narrowed to that
    /// partition.
    pub(crate) fn batched<'a>(&self, partition: u32, epoch: u64, bytes: &'a [u8]) -> OpRef<'a> {
        OpRef {
            object: self.object.0,
            partition,
            epoch,
            trace: self.trace,
            op: bytes,
        }
    }
}

struct PipelineInner {
    queue: Mutex<VecDeque<QueuedOp>>,
    available: Condvar,
    policy: Arc<Mutex<BatchPolicy>>,
    stopped: AtomicBool,
}

/// The per-node submission queue and its flusher thread. One per runtime
/// system instance, started lazily on the first asynchronous invocation.
pub(crate) struct Pipeline {
    inner: Arc<PipelineInner>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Pipeline {
    /// Start the flusher. `round` executes one FIFO prefix of the queue —
    /// it must resolve the completer of **every** operation it is handed,
    /// in issue order. `node`/`telemetry` feed the flight recorder
    /// (batch-cut events) and the queue-wait/service latency histograms.
    pub(crate) fn start<F>(
        name: String,
        node: u16,
        telemetry: Arc<Telemetry>,
        policy: Arc<Mutex<BatchPolicy>>,
        round: F,
    ) -> Pipeline
    where
        F: Fn(Vec<QueuedOp>) + Send + 'static,
    {
        let inner = Arc::new(PipelineInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            policy,
            stopped: AtomicBool::new(false),
        });
        let flusher_inner = Arc::clone(&inner);
        let flusher = std::thread::Builder::new()
            .name(name)
            .spawn(move || flusher_loop(&flusher_inner, node, &telemetry, round))
            .expect("spawn pipeline flusher thread");
        Pipeline {
            inner,
            flusher: Mutex::new(Some(flusher)),
        }
    }

    /// Enqueue operations for the next round, all at once: a flusher that
    /// wakes finds every one of them queued.
    pub(crate) fn submit(&self, ops: impl IntoIterator<Item = QueuedOp>) {
        if self.inner.stopped.load(Ordering::SeqCst) {
            for op in ops {
                op.completer.complete(Err(RtsError::Terminated));
            }
            return;
        }
        self.inner.queue.lock().extend(ops);
        self.inner.available.notify_one();
    }

    /// Stop the flusher, resolve everything still queued with
    /// [`RtsError::Terminated`], and join. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        if let Some(flusher) = self.flusher.lock().take() {
            let _ = flusher.join();
        }
        for op in self.inner.queue.lock().drain(..) {
            op.completer.complete(Err(RtsError::Terminated));
        }
    }
}

/// A runtime system's asynchronous path: its [`Pipeline`], started on the
/// first asynchronous invocation and shared by all clones of the handle
/// that holds this, and the batching knobs its flusher reads.
#[derive(Clone)]
pub(crate) struct LazyPipeline {
    node: NodeId,
    telemetry: Arc<Telemetry>,
    policy: Arc<Mutex<BatchPolicy>>,
    started: Arc<Mutex<Option<Arc<Pipeline>>>>,
}

impl LazyPipeline {
    /// Nothing started yet, for `node`.
    pub(crate) fn new(node: NodeId, telemetry: Arc<Telemetry>) -> Self {
        LazyPipeline {
            node,
            telemetry,
            policy: Arc::default(),
            started: Arc::default(),
        }
    }

    /// Set the batching knobs (takes effect from the next flusher round).
    pub(crate) fn set_policy(&self, policy: BatchPolicy) {
        *self.policy.lock() = policy;
    }

    /// Queue `ops` on `object`, in order and under one lock, and return
    /// their completion handles. The first call starts the flusher, whose
    /// rounds `round` executes — built from a clone of this cell that is
    /// fresh and empty, for the runtime-system handle the closure captures
    /// to hold: capturing the handle that holds *this* one would close an
    /// `Arc` cycle (pipeline → closure → handle → pipeline) and leak the
    /// runtime system.
    pub(crate) fn submit_many<R>(
        &self,
        object: ObjectId,
        ops: &[AsyncOp<'_>],
        round: impl FnOnce(LazyPipeline) -> R,
    ) -> Vec<PendingInvocation>
    where
        R: Fn(Vec<QueuedOp>) + Send + 'static,
    {
        let pipeline = {
            let mut started = self.started.lock();
            let start = || {
                let detached = LazyPipeline {
                    started: Arc::default(),
                    ..self.clone()
                };
                let name = format!("rts-pipe-{}", self.node);
                let (telemetry, policy) = (Arc::clone(&self.telemetry), Arc::clone(&self.policy));
                Arc::new(Pipeline::start(
                    name,
                    self.node.0,
                    telemetry,
                    policy,
                    round(detached),
                ))
            };
            Arc::clone(started.get_or_insert_with(start))
        };
        let submitted = Instant::now();
        let mut queued = Vec::with_capacity(ops.len());
        let handles = ops
            .iter()
            .map(|&(kind, op, trace)| {
                let op: Arc<[u8]> = Arc::from(op);
                let queued_op = move |op, submitted, completer| QueuedOp {
                    object,
                    kind,
                    op,
                    trace,
                    submitted,
                    completer,
                };
                // A guard-blocked op re-enters this same queue from wait(),
                // alone, so its re-execution keeps issue order instead of
                // jumping ahead through the synchronous path.
                let (pipeline, resubmitted) = (Arc::clone(&pipeline), Arc::clone(&op));
                let (handle, completer) = pending_pair(Arc::new(move |completer| {
                    let again = queued_op(Arc::clone(&resubmitted), Instant::now(), completer);
                    pipeline.submit([again]);
                }));
                queued.push(queued_op(op, submitted, completer));
                handle
            })
            .collect();
        pipeline.submit(queued);
        handles
    }

    /// Stop the flusher, if one was started ([`Pipeline::shutdown`]).
    pub(crate) fn shutdown(&self) {
        if let Some(pipeline) = self.started.lock().take() {
            pipeline.shutdown();
        }
    }
}

fn flusher_loop<F>(inner: &Arc<PipelineInner>, node: u16, telemetry: &Arc<Telemetry>, round: F)
where
    F: Fn(Vec<QueuedOp>),
{
    let queue_hist = telemetry.registry().histogram("rts.pipeline.queue_ns");
    let service_hist = telemetry.registry().histogram("rts.pipeline.service_ns");
    loop {
        let (ops, full) = {
            let mut queue = inner.queue.lock();
            loop {
                if inner.stopped.load(Ordering::SeqCst) {
                    for op in queue.drain(..) {
                        op.completer.complete(Err(RtsError::Terminated));
                    }
                    return;
                }
                if !queue.is_empty() {
                    break;
                }
                inner.available.wait(&mut queue);
            }
            let policy = *inner.policy.lock();
            let max_batch = policy.max_batch.max(1);
            if queue.len() < max_batch && !policy.max_delay.is_zero() {
                // Let other processes' submissions arrive before the round is
                // cut (bounded by max_delay in total, not per wake-up, so a
                // trickle of early notifies cannot shrink rounds).
                let cut_at = std::time::Instant::now() + policy.max_delay;
                while queue.len() < max_batch && !inner.stopped.load(Ordering::SeqCst) {
                    let now = std::time::Instant::now();
                    if now >= cut_at {
                        break;
                    }
                    inner.available.wait_for(&mut queue, cut_at - now);
                }
            }
            let take = queue.len().min(max_batch);
            let full = take == max_batch;
            (queue.drain(..take).collect::<Vec<_>>(), full)
        };
        // b distinguishes why the round was cut: 0 = the batch filled up,
        // 1 = the delay window expired with a partial batch.
        telemetry.record(
            node,
            FlightKind::BatchCut,
            TraceId::NONE,
            ops.len() as u64,
            u64::from(!full),
        );
        let cut_at = Instant::now();
        for op in &ops {
            queue_hist.record(cut_at.saturating_duration_since(op.submitted).as_nanos() as u64);
        }
        round(ops);
        service_hist.record(cut_at.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn no_resubmit() -> Arc<ResubmitFn> {
        Arc::new(|completer: Completer| completer.complete(Err(RtsError::Terminated)))
    }

    #[test]
    fn ready_handle_resolves_immediately() {
        let handle = PendingInvocation::ready(Ok(vec![7]));
        assert_eq!(handle.try_get(), Some(Ok(vec![7])));
        assert_eq!(handle.wait(), Ok(vec![7]));
        // wait() is repeatable.
        assert_eq!(handle.wait(), Ok(vec![7]));
    }

    #[test]
    fn completer_resolves_waiting_handle() {
        let (handle, completer) = pending_pair(no_resubmit());
        assert_eq!(handle.try_get(), None);
        let waiter = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(20));
        completer.complete(Ok(vec![1, 2]));
        assert_eq!(waiter.join().unwrap(), Ok(vec![1, 2]));
    }

    #[test]
    fn blocked_handle_reenters_the_queue_until_the_guard_passes() {
        // A resubmission target standing in for the pipeline: the first
        // re-entry reports the guard still false, the second succeeds.
        let calls = Arc::new(AtomicUsize::new(0));
        let resubmit_calls = Arc::clone(&calls);
        let resubmit: Arc<ResubmitFn> = Arc::new(move |completer: Completer| {
            if resubmit_calls.fetch_add(1, Ordering::SeqCst) == 0 {
                completer.complete_blocked();
            } else {
                completer.complete(Ok(vec![9]));
            }
        });
        let (handle, completer) = pending_pair(resubmit);
        completer.complete_blocked();
        // try_get does not trigger the resubmission (it cannot block).
        assert_eq!(handle.try_get(), None);
        assert_eq!(handle.wait(), Ok(vec![9]));
        assert_eq!(handle.wait(), Ok(vec![9]));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "each blocked resolution re-enters exactly once"
        );
    }

    /// A queued write whose bytes are `value`.
    fn queued(value: u64, completer: Completer) -> QueuedOp {
        QueuedOp {
            object: ObjectId::compose(0, 1),
            kind: OpKind::Write,
            op: Arc::from(value.to_le_bytes()),
            trace: TraceId::NONE,
            submitted: Instant::now(),
            completer,
        }
    }

    fn value(op: &QueuedOp) -> u64 {
        u64::from_le_bytes(op.op[..].try_into().unwrap())
    }

    #[test]
    fn blocked_op_reexecutes_in_issue_order_not_ahead_of_the_queue() {
        // Round executor: op value 0 is guard-blocked on its first pass,
        // everything else (and its re-entry) succeeds. The re-entered op
        // must land *after* ops that were already queued behind it.
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let order_w = Arc::clone(&order);
        let first_pass = Arc::new(AtomicBool::new(true));
        let policy = Arc::new(Mutex::new(BatchPolicy {
            max_batch: 1,
            ..BatchPolicy::default()
        }));
        let telemetry = Telemetry::new(1);
        let pipeline = Pipeline::start("test-pipe".into(), 0, telemetry, policy, move |ops| {
            for op in ops {
                if value(&op) == 0 && first_pass.swap(false, Ordering::SeqCst) {
                    op.completer.complete_blocked();
                    continue;
                }
                order_w.lock().push(value(&op));
                op.completer.complete(Ok(Vec::new()));
            }
        });
        let pipe = Arc::new(pipeline);
        let mut handles = Vec::new();
        for i in 0..3u64 {
            let resubmit: Arc<ResubmitFn> = {
                let pipe = Arc::clone(&pipe);
                Arc::new(move |completer: Completer| pipe.submit([queued(i, completer)]))
            };
            let (handle, completer) = pending_pair(resubmit);
            pipe.submit([queued(i, completer)]);
            handles.push(handle);
        }
        for handle in &handles {
            assert_eq!(handle.wait(), Ok(Vec::new()));
        }
        assert_eq!(
            *order.lock(),
            vec![1, 2, 0],
            "the re-entered op must run after the ops queued behind it"
        );
        pipe.shutdown();
    }

    #[test]
    fn pipeline_rounds_are_fifo_prefixes() {
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let rounds: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let (seen_w, rounds_w) = (Arc::clone(&seen), Arc::clone(&rounds));
        let policy = Arc::new(Mutex::new(BatchPolicy {
            max_batch: 4,
            max_delay: Duration::from_millis(10),
        }));
        let telemetry = Telemetry::new(1);
        let pipeline = Pipeline::start("test-pipe".into(), 0, telemetry, policy, move |ops| {
            rounds_w.lock().push(ops.len());
            for op in ops {
                seen_w.lock().push(value(&op));
                op.completer.complete(Ok(Vec::new()));
            }
        });
        let mut handles = Vec::new();
        for i in 0..10u64 {
            let (handle, completer) = pending_pair(no_resubmit());
            pipeline.submit([queued(i, completer)]);
            handles.push(handle);
        }
        for handle in &handles {
            assert_eq!(handle.wait(), Ok(Vec::new()));
        }
        assert_eq!(*seen.lock(), (0..10).collect::<Vec<u64>>());
        assert!(rounds.lock().iter().all(|len| *len <= 4));
        pipeline.shutdown();
        // Submissions after shutdown fail fast.
        let (handle, completer) = pending_pair(no_resubmit());
        pipeline.submit([queued(0, completer)]);
        assert_eq!(handle.wait(), Err(RtsError::Terminated));
    }
}
