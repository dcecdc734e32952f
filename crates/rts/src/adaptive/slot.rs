//! What a node holds of an object — authoritative slots, and mirrors of
//! slots served elsewhere — and the owner's side of an operation: apply
//! under the epoch and withdrawn-mark discipline, then pay what a completed
//! write owes its mirrors (an update push, or an invalidation) and keep the
//! read-lease ledger.
//!
//! There is one kind of non-authoritative copy. A slot's mirrors are the
//! nodes its table lists but its owner — of a replicated object's one copy,
//! of each partition of a sharded one: they read it under a lease. With
//! recovery on, every slot also keeps one its table need not list, its
//! *keeper*, on the next live node ([`backup_target`]): granted no lease for
//! being the keeper and, pushed to last, never locked, it is there to be
//! promoted when the owner dies. All are primed with
//! [`RegimeMsg::Mirror`], pushed every write with [`RegimeMsg::Update`]
//! before the write is acknowledged, and retired with
//! [`RegimeMsg::DropCopies`].

use super::*;
use orca_object::Gated;

/// One authoritative replica (the single copy under the replicated regime,
/// or one partition under the sharded regime) held by this node.
pub(super) struct Slot {
    pub(super) replica: Arc<Mutex<Box<dyn AnyReplica>>>,
    /// Epoch of the regime this slot serves; operations stamped with any
    /// other epoch are answered `StaleRegime`.
    pub(super) epoch: u64,
    /// Set (under the replica mutex) when a regime switch has serialized
    /// this replica's state for transfer. An operation may have cloned the
    /// slot `Arc` before the drain removed it; without this mark it would
    /// apply to the orphaned replica *after* the state snapshot and be
    /// silently lost across the switch.
    pub(super) withdrawn: AtomicBool,
    /// The nodes holding a read mirror of this slot, as the table of its
    /// epoch lists them, but this node: primed when the slot was installed,
    /// pushed every write, dropped when it is drained.
    pub(super) mirrors: Vec<u16>,
    /// What the slot's mirrors mirror ([`RegimeMsg::Mirror`]): `None`, a
    /// replicated regime's one copy; `Some(p)`, a sharded regime's partition.
    pub(super) partition: Option<u32>,
    /// Recently applied stamped writes and their replies (exactly-once
    /// across client retries; travels with the state through regime
    /// switches and adoption). Locked strictly after — and only while
    /// holding — the replica mutex.
    pub(super) dedup: Mutex<DedupWindow>,
    /// What the slot books about its mirrors.
    pub(super) leases: Mutex<SlotLeases>,
    /// Requests of other nodes parked on the replica mutex
    /// ([`Slot::lock_for`]).
    pub(super) parked: AtomicU32,
    /// Signalled under the replica mutex when the replica changes, for the
    /// calls [`apply_at_slot`] parks on a false guard.
    pub(super) changed: Condvar,
}

impl Slot {
    /// True when a completed write on this slot is paid for with messages
    /// to its mirrors ([`settle_writes`]), while the replica mutex is held.
    fn fans_out(&self, inner: &Inner) -> bool {
        inner.recovery.enabled || !self.mirrors.is_empty()
    }

    /// True when the table lists `node` as a reader of this slot's mirror.
    fn lists(&self, node: NodeId) -> bool {
        self.mirrors.contains(&node.0)
    }

    /// The nodes that hold a mirror of this slot: the ones the table lists
    /// and its `keeper` ([`backup_target`]: with recovery on, every slot
    /// keeps one mirror more) — last, listed or not: the last holder of a
    /// push is never held, so it can be primed again in the middle of one.
    pub(super) fn holders(&self, keeper: Option<NodeId>) -> Vec<NodeId> {
        let listed = self.mirrors.iter().map(|&m| NodeId(m));
        let others = listed.filter(|m| Some(*m) != keeper);
        others.chain(keeper).collect()
    }

    /// The lease that rides a message to this slot's mirrors, when leases
    /// are granted and it lists readers — booked for them alone: a push that
    /// fails to reach a keeper leaves no grant to wait out.
    fn lease_span(&self, inner: &Inner) -> Option<u64> {
        inner.lease_span().filter(|_| !self.mirrors.is_empty())
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
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let patience = Instant::now() + Duration::from_millis(1);
        while self.parked.load(Ordering::SeqCst) > 0 && Instant::now() < patience {
            std::thread::yield_now();
        }
    }
}

orca_telemetry::counter_set! {
    /// The read-lease protocol, `rts.lease.<field>` in the registry.
    pub(super) struct LeaseStats => LeaseStatsSnapshot {
        /// Leases granted with a copy's state (a prime or a fetch).
        grants,
        /// Leases renewed without the state (a push, an acknowledgement, a
        /// fetch by a current copy).
        renewals,
        /// Grants settled: revoked by a drop, or waited out.
        revokes,
        /// Reads served by a leased mirror.
        local_reads,
    }
}

/// Grantor-side read-lease state of one authoritative slot.
#[derive(Default)]
pub(super) struct SlotLeases {
    /// Conservative expiry (on the grantor's clock, twice the holder-side
    /// validity) of the newest lease granted to each mirror node. A write
    /// whose push cannot reach a live mirror waits out that entry before
    /// completing.
    pub(super) grants: HashMap<u16, Instant>,
    /// Writes may not execute before this instant: the slot was promoted
    /// from a mirror ([`promote`]), the dead owner's outstanding grants are
    /// unknown, so the first write conservatively
    /// waits out a full grant span (reads need no fence — every valid lease
    /// covers a mirror that already contains every acknowledged write).
    pub(super) fence: Option<Instant>,
    /// Listed mirrors a push got no answer from, though nobody had declared
    /// them dead: reported to the home once ([`RegimeMsg::Unreached`]), and
    /// not told to drop their copy when the re-placement that asks for
    /// drains this slot — they would not answer that either.
    pub(super) unreached: Vec<u16>,
}

/// What a mirror is a mirror of: an object's one copy (`None`) or one
/// partition of it, as [`RegimeMsg::Mirror`] says.
pub(super) type MirrorKey = (ObjectId, Option<u32>);

/// The mirror of `partition` under `table` (`None` for the one copy's).
pub(super) fn mirror_key(table: &RegimeTable, partition: u32) -> MirrorKey {
    let sharded = table.regime == RegimeKind::Sharded;
    (table_object(table), sharded.then_some(partition))
}

/// The mirror-side lease a received grant of `valid_ms` amounts to
/// (validity counted from receipt, on the holder's own clock and detector
/// epoch).
pub(super) fn mirror_lease(inner: &Inner, valid_ms: u64) -> MirrorLease {
    MirrorLease {
        detector_epoch: inner.detector_epoch(),
        expires: Instant::now() + Duration::from_millis(valid_ms),
    }
}

/// True while the mirror-side lease permits zero-message local reads.
pub(super) fn mirror_lease_valid(inner: &Inner, state: &CopyState) -> bool {
    match &state.lease {
        Some(lease) => {
            Instant::now() < lease.expires && inner.detector_epoch() == lease.detector_epoch
        }
        None => false,
    }
}
/// Have `nodes` — this one among them, perhaps — discard the mirrors they
/// hold of `at` up to regime `epoch`, a reader's and a keeper's alike, so
/// nobody keeps serving (or promotes) what that regime left behind — or,
/// `written` naming the version of a write under the invalidation policy,
/// their copy of the current one, to be fetched again. Returns the nodes
/// that did; the regime lease bounds a missed drop. An invalidation runs
/// under the budget of an update push, half the operation deadline for the
/// whole fan-out: its writer is waiting.
pub(super) fn drop_copies(
    inner: &Arc<Inner>,
    (object, partition): MirrorKey,
    epoch: u64,
    written: Option<u64>,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Vec<NodeId> {
    let drop_msg = RegimeMsg::DropCopies {
        object: object.0,
        epoch,
        partition,
        written,
    };
    let budget = written.map(|_| Instant::now() + inner.policy.op_timeout / 2);
    let dropped = nodes.into_iter().filter(|node| {
        let deadline = budget.unwrap_or_else(|| Instant::now() + inner.policy.op_timeout);
        let reply = regime_fan_out(inner, [(*node, drop_msg.clone())], deadline);
        matches!(reply[..], [Ok(RegimeReply::Ack)])
    });
    dropped.collect()
}

/// Where the keeper of a slot this node serves goes — a replicated object's
/// copy or a partition alike: the next live node after it in index order.
/// `None` with recovery off, or alone.
pub(super) fn backup_target(inner: &Inner) -> Option<NodeId> {
    if !inner.recovery.enabled {
        return None;
    }
    (1..inner.num_nodes)
        .map(|step| NodeId::from((inner.node.index() + step) % inner.num_nodes))
        .find(|node| !is_dead(&inner.detector, *node))
}

/// Prime `nodes` with the whole state of `slot` ([`RegimeMsg::Mirror`],
/// encoded once), whose replica the caller holds: a reader's copy comes with
/// a lease, booked in the slot's ledger once acknowledged. Best-effort: a
/// reader that misses it fetches at its first read, a keeper answers the
/// next push `StaleRegime` and is primed again.
fn prime_mirrors(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    nodes: &[NodeId],
) {
    if nodes.is_empty() {
        return;
    }
    let lease = slot.lease_span(inner);
    let deadline = Instant::now() + inner.policy.op_timeout;
    let prime = RegimeMsg::Mirror {
        object: key.0 .0,
        epoch: slot.epoch,
        partition: slot.partition,
        type_name: replica.type_name().to_string(),
        state: replica.state_bytes(),
        seq: replica.version(),
        dedup: slot.dedup.lock().clone(),
        lease,
    }
    .to_bytes();
    for &node in nodes {
        let (_, primed) = regime_rpcs(inner, vec![(node, &prime)], deadline, || ());
        if lease.is_some() && slot.lists(node) && matches!(primed[..], [Ok(RegimeReply::Ack)]) {
            let expires = Instant::now() + inner.grant_span();
            slot.leases.lock().grants.insert(node.0, expires);
            inner.lease.grants.inc();
        }
    }
}

/// Install an authoritative slot holding `replica` (a created value, decoded
/// off the wire, or a re-stamped slot's) on this node, `placed` = its regime
/// and the mirrors its table lists. Its mirrors — those but this node, and
/// its keeper — are primed here, before it becomes visible: no write's push
/// can reach a mirror ahead of the state it has. An object is created this
/// way too, so it has a keeper before its creator returns it.
pub(super) fn install_slot(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    epoch: u64,
    replica: impl Into<Arc<Mutex<Box<dyn AnyReplica>>>>,
    dedup: DedupWindow,
    (regime, mirrors): (RegimeKind, &[u16]),
) {
    let sharded = regime == RegimeKind::Sharded;
    let others = mirrors.iter().filter(|mirror| **mirror != inner.node.0);
    let slot = Slot {
        replica: replica.into(),
        epoch,
        withdrawn: AtomicBool::new(false),
        mirrors: others.copied().collect(),
        partition: sharded.then_some(key.1),
        dedup: Mutex::new(dedup),
        leases: Mutex::default(),
        parked: AtomicU32::new(0),
        changed: Condvar::new(),
    };
    let holders = slot.holders(backup_target(inner));
    prime_mirrors(inner, key, &slot, &**slot.replica.lock(), &holders);
    inner.slots.write().insert(key, Arc::new(slot));
}

/// Make this node's mirror `at` — of a replicated object's copy or of one
/// partition — of `epoch` (or of the next, which an undone switch could not
/// take back) the authoritative slot, its owner dead, in place and under the
/// epoch the table has. Its versions carry on from the mirror's, so a copy
/// of the slot left on another survivor never outranks the keeper the
/// install primes, nor keeps it from taking the prime. It lists no readers.
/// A mirror that held a lease — a reader's, or a keeper's pushed beside
/// leased readers — was promoted from a slot that granted them: its first
/// write waits out a grant span, as a reader that has not heard of the death
/// yet may still be serving one.
pub(super) fn promote(inner: &Arc<Inner>, at: MirrorKey, epoch: u64) -> RegimeReply {
    let mirror = inner.mirrors.read().get(&at).cloned();
    let kept = mirror.and_then(|mirror| {
        let mut state = mirror.state.lock();
        let of_epoch = (epoch..=epoch + 1).contains(&state.epoch);
        let leased = state.lease.is_some();
        let mut copy = state.copy.take_if(|_| of_epoch)?;
        copy.set_version(state.version);
        Some((copy, std::mem::take(&mut state.dedup), leased))
    });
    let Some((copy, dedup, leased)) = kept else {
        return RegimeReply::StaleRegime;
    };
    let regime = at.1.map_or(RegimeKind::Replicated, |_| RegimeKind::Sharded);
    let key = (at.0, at.1.unwrap_or(0));
    install_slot(inner, key, epoch, Mutex::new(copy), dedup, (regime, &[]));
    let slot = inner.slots.read().get(&key).cloned();
    if let Some(slot) = slot.filter(|_| leased) {
        slot.leases.lock().fence = Some(Instant::now() + inner.grant_span());
    }
    RegimeReply::Ack
}

/// Apply one received operation batch in issue order, through the same
/// epoch-checked slot path as single operations. Runs of consecutive ops on
/// one slot execute under a single hold of its replica lock, and what the
/// run's completed writes owe ([`settle_writes`]) is paid as **one** message
/// per destination before the run is acknowledged: one pushed run (or one
/// invalidation) to each mirror, the slot's keeper included.
pub(super) fn apply_op_batch(
    inner: &Arc<Inner>,
    ops: &OpBatchView<'_>,
    caller: NodeId,
) -> BatchOutcomes {
    // One protocol-handling event for the whole message, one apply per op
    // — the accounting split the cost model relies on.
    if caller != inner.node {
        inner.stats.updates_applied.inc();
    }
    let mut outcomes = BatchOutcomes::default();
    let mut ops = ops.iter().peekable();
    while let Some(first) = ops.peek().copied() {
        let address = |op: &OpRef<'_>| (op.object, op.partition, op.epoch);
        let run = std::iter::from_fn(|| ops.next_if(|op| address(op) == address(&first)));
        let key = (ObjectId(first.object), first.partition);
        let Some(slot) = slot_at(inner, key, first.epoch) else {
            outcomes.push(run.count(), BatchOutcome::Stale);
            continue;
        };
        let mut replica = slot.lock_for(inner, caller);
        let mut written = Vec::new();
        for op in run {
            inner.stats.batch_ops_applied.inc();
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
                1,
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
pub(super) fn slot_at(inner: &Inner, key: (ObjectId, u32), epoch: u64) -> Option<Arc<Slot>> {
    let slots = inner.slots.read();
    slots.get(&key).filter(|slot| slot.epoch == epoch).cloned()
}

/// Execute an operation on a locally-served authoritative slot, honoring
/// the epoch and withdrawn-mark discipline ([`apply_locked`]). A false guard
/// waits for the replica to change, up to a drain, a shutdown or half the
/// deadline (`Blocked`) — not on one partition of many, which an `Any` scan
/// moves past, nor in a write through a mirror, whose mark holds its reads.
#[allow(clippy::too_many_arguments)]
pub(super) fn apply_at_slot(
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
    let (mut until, stopped) = (None, || inner.stopped.load(Ordering::SeqCst));
    let reply = {
        let replica = &mut slot.lock_for(inner, caller);
        loop {
            let seen = replica.version();
            let reply = apply_locked(inner, key, &slot, replica, op, stamp, caller, through, None);
            let logic = || inner.registry.shard_logic(replica.type_name());
            let whole = || slot.partition.is_none() || logic().is_none();
            if !matches!(reply, RegimeReply::Blocked) || through || !whole() {
                break reply;
            }
            if stopped() {
                break RegimeReply::Error(format!("{} shut down", inner.node));
            }
            inner.stats.guard_retries.inc();
            let until = *until.get_or_insert_with(|| Instant::now() + inner.policy.op_timeout / 2);
            let moved = crate::await_change(&slot.changed, replica, Some(until), |r| {
                r.version() == seen && !slot.withdrawn.load(Ordering::Relaxed) && !stopped()
            });
            if !moved {
                break reply;
            }
        }
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
/// freshly applied on a slot that lists the caller, the caller is left out
/// of what the write owes and answered [`RegimeReply::Installed`]; in every
/// other case (retry answered from the dedup window, a promoted slot that
/// lists nobody) the plain reply tells the caller its mirror is not being
/// kept current.
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
    // The op is decoded once; a write shows its kind to this gate first.
    let mut gate = |kind| {
        if kind == OpKind::Read {
            return None;
        }
        // Exactly-once: a retried stamped write the slot (or the mirror it
        // was promoted from) already applied is answered its recorded
        // reply without applying again.
        let recorded = stamp.and_then(|stamp| slot.dedup.lock().lookup(stamp).map(<[u8]>::to_vec));
        if recorded.is_none() {
            // Promotion fence: the dead owner's outstanding read leases
            // are unknown, so the first write of a slot promoted from a
            // mirror waits out a full grant span. Held under the replica
            // mutex — the fence must also keep this node's own reads from
            // observing the new write early, and it clears within one grant
            // span of the install.
            let fence = slot.leases.lock().fence.take();
            if let Some(fence) = fence {
                std::thread::sleep(fence.saturating_duration_since(Instant::now()));
            }
        }
        recorded
    };
    match replica.apply_gated(op, &mut gate) {
        Ok(Gated::Answered(reply)) => RegimeReply::Done(reply),
        Ok(Gated::Applied(kind, AppliedOutcome::Done(reply))) => {
            if caller != inner.node {
                inner.stats.updates_applied.inc();
            }
            if kind == OpKind::Write {
                slot.changed.notify_all();
                if let Some(stamp) = stamp {
                    slot.dedup.lock().record(stamp, reply.clone());
                }
                let through = through && slot.lists(caller);
                let owes = slot.fans_out(inner);
                match run {
                    Some(run) if owes => run.push(op.to_vec()),
                    None if owes => {
                        let stamped = stamp.map(|stamp| (stamp, reply.clone()));
                        let (ops, skip) = (vec![op.to_vec()], through.then_some(caller));
                        settle_writes(inner, key, slot, &**replica, ops, stamped, skip);
                    }
                    _ => {}
                }
                if through {
                    // The writer's renewal rides the acknowledgement,
                    // booked like the others when it is sent.
                    let seq = replica.version();
                    let lease = slot.lease_span(inner);
                    if lease.is_some() {
                        renew_mirror_grant(inner, slot, caller);
                    }
                    return RegimeReply::Installed { reply, seq, lease };
                }
            }
            RegimeReply::Done(reply)
        }
        Ok(Gated::Applied(_, AppliedOutcome::Blocked)) => RegimeReply::Blocked,
        Err(err) => RegimeReply::Error(err.to_string()),
    }
}

/// Pay what the completed writes `ops` — one, or a batch's run, the last of
/// which left `replica` at its current version — owe the slot's mirrors
/// before they are acknowledged ([`Slot::fans_out`]). The caller holds the
/// replica mutex. All of them but `skip` — a writer bringing its own mirror
/// up to date from the acknowledgement — and the dead get what the write
/// policy says of a replicated-regime slot's readers: a two-phase push of
/// the run ([`push_update`]), or an invalidation naming its last version,
/// which retires the copies with the `DropCopies` and grant settlement a
/// drain uses and leaves the mirrors listed, to fetch at their next read.
/// The keeper ([`backup_target`], found once per settlement) and a
/// sharded-regime slot's readers are always pushed to: an invalidated
/// keeper would protect nothing.
fn settle_writes(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    ops: Vec<Vec<u8>>,
    stamped: Option<(OpStamp, Vec<u8>)>,
    skip: Option<NodeId>,
) {
    let keeper = backup_target(inner);
    let mut others = slot.holders(keeper);
    others.retain(|n| Some(*n) != skip && !is_dead(&inner.detector, *n));
    if others.is_empty() {
        return;
    }
    match inner.policy.write {
        WritePolicy::Invalidate if slot.partition.is_none() => {
            let (kept, readers): (Vec<_>, _) = others.into_iter().partition(|n| Some(*n) == keeper);
            let nodes = || readers.iter().copied();
            let written = Some(replica.version());
            let dropped = drop_copies(inner, (key.0, None), slot.epoch, written, nodes());
            settle_grants(inner, slot, nodes(), &dropped);
            if !kept.is_empty() {
                push_update(inner, key, slot, replica, &kept, keeper, ops, stamped);
            }
        }
        _ => push_update(inner, key, slot, replica, &others, keeper, ops, stamped),
    }
}

/// Push a run of committed writes — the last of them left `replica` at its
/// current version — to the mirrors `others` of `slot`, in two phases:
/// update-and-lock, then a one-way unlock of the run's last version — for
/// all but the last of them, which is never locked
/// ([`two_phase`]): a keeper, pushed to last, never is.
/// Without read leases this is best-effort under crashes: a
/// reader's mirror that misses an update detects the sequence gap on the
/// next one and re-syncs from the owner. With leases enabled the update
/// doubles as the lease renewal, and a mirror a push could not reach has its
/// outstanding grant *settled* — the write waits out the grant's
/// conservative expiry before it is acknowledged, so no node can still be
/// serving leased reads of the pre-write state when the writer continues.
/// A listed mirror that does not answer and is not known dead would cost
/// every later write the same: the home is told, once, and re-places the
/// object without it ([`RegimeMsg::Unreached`]). A keeper that does not
/// answer is skipped — the next write finds the then-next live node — and
/// the `keeper` the caller found (listed or not; not among `others` when it
/// wrote or died) that answers it could not take the run (`StaleRegime`: no
/// copy, another epoch, a missed run) is primed whole, here, before the
/// write is acknowledged; a listed reader so answering fetches at its next
/// read.
///
/// The fan-out runs under a budget of half the operation deadline (the
/// replica mutex is held throughout, and the writer is waiting on this
/// reply): a crashed node eats the remaining budget at most once, the
/// rest of the push is skipped, and the owner still answers the writer
/// before *its* deadline expires — a committed write must not be reported
/// as a timeout just because a mirror is unreachable.
#[allow(clippy::too_many_arguments)]
fn push_update(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    others: &[NodeId],
    keeper: Option<NodeId>,
    ops: Vec<Vec<u8>>,
    stamped: Option<(OpStamp, Vec<u8>)>,
) {
    let deadline = Instant::now() + inner.policy.op_timeout / 2;
    let (object, epoch, last) = (key.0, slot.epoch, replica.version());
    // Each phase is encoded once and the bytes fanned out: the lease is the
    // same for all holders (validity counts from each holder's own receipt)
    // and whether a holder is held is one byte, set in place.
    let lease = slot.lease_span(inner);
    let room = ops.iter().map(|op| op.len() + 2).sum::<usize>();
    let mut update = Vec::with_capacity(room + 48);
    RegimeMsg::Update {
        object: object.0,
        epoch,
        partition: slot.partition,
        seq: last + 1 - ops.len() as u64,
        held: true,
        ops,
        stamped,
        lease,
    }
    .encode_into(&mut update);
    let unlock = RegimeMsg::Unlock {
        object: object.0,
        epoch,
        partition: slot.partition,
        seq: last,
    }
    .to_bytes();
    let push = |node, held| {
        if lease.is_some() && slot.lists(node) {
            renew_mirror_grant(inner, slot, node);
        }
        RegimeMsg::hold_update(&mut update, held);
        let (_, reply) = regime_rpcs(inner, vec![(node, &update)], deadline, || ());
        if Some(node) == keeper && matches!(reply[..], [Ok(RegimeReply::StaleRegime)]) {
            prime_mirrors(inner, key, slot, replica, &[node]);
        }
        matches!(reply[..], [Ok(_)])
    };
    let failed = two_phase(&inner.handle, &inner.update, others, push, &unlock);
    settle_grants(inner, slot, failed.iter().copied(), &[]);
    let listed = failed.iter().filter(|n| slot.lists(**n));
    for node in listed.filter(|n| !is_dead(&inner.detector, **n)) {
        let unreached = &mut slot.leases.lock().unreached;
        if !unreached.contains(&node.0) {
            unreached.push(node.0);
            let home = current_home(inner, object);
            let (object, node) = (object.0, node.0);
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
    inner.lease.renewals.inc();
}

/// Take the read-lease grants of `holders` off `slot`'s ledger and settle
/// them: the mirrors a push could not reach, the ones a write invalidated,
/// or all of a drained slot's. A holder among `revoked` acknowledged a
/// `DropCopies`, which is the revoke; a dead one cannot answer reads; any
/// other may go on serving leased reads of the old state until its grant
/// runs out, so the caller sleeps that out before it acknowledges the write
/// or hands over the state a new regime will accept writes on. Without
/// leases there is nothing to settle and a missed push or drop stays
/// best-effort.
pub(super) fn settle_grants(
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
            inner.lease.revokes.inc();
        } else if !is_dead(&inner.detector, node) && !left.is_zero() {
            std::thread::sleep(left);
            inner.lease.revokes.inc();
        }
    }
}

/// This node's mirror entry for `at`, created empty on first use.
pub(super) fn mirror_entry(inner: &Arc<Inner>, at: MirrorKey) -> Arc<HeldCopy> {
    if let Some(entry) = inner.mirrors.read().get(&at) {
        return Arc::clone(entry);
    }
    Arc::clone(inner.mirrors.write().entry(at).or_default())
}

/// Install a snapshot of `at` at version `seq` of regime `epoch` — the
/// owner primed it, or this node `fetched` it — as the local mirror, with
/// the lease that came along. False when the mirror has moved on to a newer
/// regime meanwhile: the retired snapshot would regress it. Nor is a
/// snapshot installed that an update raced ahead of (the next read fetches
/// again), unless the owner primed a partition: its word for the copy is
/// unraced ([`CopyState::install_snapshot`]).
#[allow(clippy::too_many_arguments)]
pub(super) fn install_mirror(
    inner: &Arc<Inner>,
    at: MirrorKey,
    epoch: u64,
    type_name: &str,
    state_bytes: &[u8],
    seq: u64,
    dedup: DedupWindow,
    lease: Option<u64>,
    fetched: bool,
) -> Result<bool, RtsError> {
    let replica = inner.registry.instantiate(type_name, state_bytes)?;
    let mirror = mirror_entry(inner, at);
    let mut state = mirror.state.lock();
    if epoch < state.epoch {
        return Ok(false);
    }
    state.enter_epoch(epoch);
    let lease = lease.map(|valid_ms| mirror_lease(inner, valid_ms));
    if state.install_snapshot(replica, seq, dedup, lease, !fetched && at.1.is_some()) {
        inner.stats.copies_fetched.inc();
    }
    mirror.unlocked.notify_all();
    Ok(true)
}

/// Owner side of a mirror fetch of `at`: the slot's state and a lease over
/// it, or the lease alone when the caller's copy, at version `have`, is
/// current. Only a mirror the slot lists is served — the table is the truth:
/// anyone else re-reads it and ships its reads, instead of fetching its way
/// into the push set.
pub(super) fn serve_fetch_mirror(
    inner: &Arc<Inner>,
    (object, partition): MirrorKey,
    epoch: u64,
    have: Option<u64>,
    caller: NodeId,
) -> RegimeReply {
    let Some(slot) = slot_at(inner, (object, partition.unwrap_or(0)), epoch) else {
        return RegimeReply::StaleRegime;
    };
    if !slot.lists(caller) {
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
            inner.lease.renewals.inc();
            RegimeReply::Renewed(LeaseGrant {
                object: object.0,
                epoch,
                seq,
                valid_ms,
            })
        }
        _ => {
            if lease.is_some() {
                inner.lease.grants.inc();
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
