//! What a node holds of an object — authoritative slots, and mirrors of
//! slots served elsewhere — and the owner's side of an operation: apply
//! under the epoch and withdrawn-mark discipline, then pay what a completed
//! write owes its mirrors (an update push, or an invalidation) and keep the
//! read-lease ledger.
//!
//! There is one kind of non-authoritative copy. A replicated-regime slot's
//! mirrors are the nodes its table lists: they read their copy, under a
//! lease. A sharded-regime slot, with recovery enabled, keeps one the table
//! does not list — its *keeper*, on the next live node ([`backup_target`]):
//! nobody reads it, so it is granted no lease and, being the only holder
//! pushed to, never locked; it is there to be promoted when the owner dies.
//! Both are primed with [`RegimeMsg::Mirror`], pushed every write with
//! [`RegimeMsg::Update`] before the write is acknowledged, and retired with
//! [`RegimeMsg::DropCopies`].

use super::*;

/// One authoritative replica (the single copy under the replicated regime,
/// or one partition under the sharded regime) held by this node.
pub(super) struct Slot {
    pub(super) replica: Mutex<Box<dyn AnyReplica>>,
    /// Epoch of the regime this slot serves; operations stamped with any
    /// other epoch are answered `StaleRegime`.
    pub(super) epoch: u64,
    /// Set (under the replica mutex) when a regime switch has serialized
    /// this replica's state for transfer. An operation may have cloned the
    /// slot `Arc` before the drain removed it; without this mark it would
    /// apply to the orphaned replica *after* the state snapshot and be
    /// silently lost across the switch.
    pub(super) withdrawn: AtomicBool,
    /// The regime this slot serves.
    pub(super) regime: RegimeKind,
    /// The nodes holding a read mirror of a replicated-regime slot, as the
    /// table of its epoch lists them: primed when the slot was installed,
    /// pushed every write, dropped when it is drained.
    pub(super) mirrors: Vec<u16>,
    /// `Some(partition)` on a sharded-regime slot with recovery enabled: it
    /// keeps one mirror nobody lists or reads, addressed by its partition,
    /// on whichever node [`backup_target`] names when a write is pushed.
    pub(super) kept: Option<u32>,
    /// Recently applied stamped writes and their replies (exactly-once
    /// across client retries; travels with the state through regime
    /// switches and adoption). Locked strictly after — and only while
    /// holding — the replica mutex.
    pub(super) dedup: Mutex<DedupWindow>,
    /// What a replicated-regime slot books about its mirrors.
    pub(super) leases: Mutex<SlotLeases>,
    /// Requests of other nodes parked on the replica mutex
    /// ([`Slot::lock_for`]).
    pub(super) parked: AtomicU32,
}

impl Slot {
    /// True when a completed write on this slot is paid for with messages
    /// to its mirrors ([`settle_writes`]), while the replica mutex is held.
    fn fans_out(&self) -> bool {
        self.kept.is_some() || !self.mirrors.is_empty()
    }

    /// The nodes that hold a mirror of this slot: the ones the table lists
    /// and, now, its keeper.
    pub(super) fn holders(&self, inner: &Inner) -> Vec<NodeId> {
        let keeper = self.kept.and_then(|_| backup_target(inner));
        let listed = self.mirrors.iter().map(|&mirror| NodeId(mirror));
        listed.chain(keeper).collect()
    }

    /// The lease that rides a message to this slot's mirrors, when leases
    /// are granted — to readers: a keeper is read by nobody and holds none,
    /// so a push that fails to reach it leaves no grant to wait out.
    fn lease_span(&self, inner: &Inner) -> Option<u64> {
        inner.lease_span().filter(|_| self.kept.is_none())
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
pub(super) struct LeaseCounters {
    pub(super) grants: Counter,
    pub(super) renewals: Counter,
    pub(super) revokes: Counter,
    pub(super) local_reads: Counter,
}

impl LeaseCounters {
    pub(super) fn from_handle(handle: &NetworkHandle) -> Self {
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
pub(super) struct SlotLeases {
    /// Conservative expiry (on the grantor's clock, twice the holder-side
    /// validity) of the newest lease granted to each mirror node. A write
    /// whose push cannot reach a live mirror waits out that entry before
    /// completing.
    pub(super) grants: HashMap<u16, Instant>,
    /// Writes may not execute before this instant. Set when this slot was
    /// regenerated from a mirror: the dead owner's outstanding grants are
    /// unknown, so the first write conservatively waits out a full grant
    /// span (reads need no fence — every valid lease covers a mirror that
    /// already contains every acknowledged write).
    pub(super) fence: Option<Instant>,
    /// Listed mirrors a push got no answer from, though nobody had declared
    /// them dead: reported to the home once ([`RegimeMsg::Unreached`]), and
    /// not told to drop their copy when the re-placement that asks for
    /// drains this slot — they would not answer that either.
    pub(super) unreached: Vec<u16>,
}

/// One node's mirror of a slot served elsewhere: the copy the update
/// protocol keeps current (its version is the sequence number of the last
/// update applied), under this runtime's lease record. A reader's serves
/// reads locally only while the lease is valid; a lapsed lease is renewed at
/// the owner, which ships the state along only if the copy fell behind. A
/// keeper's is never read.
pub(super) type MirrorState = CopyState<MirrorLease>;

/// What a mirror is a mirror of: an object's one copy (`None`) or one
/// partition of it, as [`RegimeMsg::Mirror`] says.
pub(super) type MirrorKey = (ObjectId, Option<u32>);

/// A mirror with the condition variable its readers and writers park on.
pub(super) type Mirror = HeldCopy<MirrorLease>;

/// Holder-side record of the lease covering the local mirror.
pub(super) struct MirrorLease {
    /// Membership epoch of this node's failure detector at receipt; a
    /// view change invalidates the lease regardless of the clock.
    pub(super) detector_epoch: u64,
    /// Expiry on the holder's clock (`valid_ms` from receipt).
    pub(super) expires: Instant,
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
pub(super) fn mirror_lease_valid(inner: &Inner, state: &MirrorState) -> bool {
    match &state.lease {
        Some(lease) => {
            Instant::now() < lease.expires && inner.detector_epoch() == lease.detector_epoch
        }
        None => false,
    }
}
/// Have `nodes` — this one among them, perhaps — discard the mirrors they
/// hold of `object` up to regime `epoch`, a reader's and a keeper's alike, so
/// nobody keeps serving (or promotes) what that regime left behind — or,
/// `written` naming the version of a write under the invalidation policy,
/// their copy of the current one, to be fetched again. Returns the nodes
/// that did; the regime lease bounds a missed drop. An invalidation runs
/// under the budget of an update push, half the operation deadline for the
/// whole fan-out: its writer is waiting.
pub(super) fn drop_copies(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    written: Option<u64>,
    nodes: impl Iterator<Item = NodeId>,
) -> Vec<NodeId> {
    let drop_msg = RegimeMsg::DropCopies {
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

/// Where the keeper of a sharded-regime slot this node serves goes: the next
/// live node after it in index order. `None` with recovery off, or alone.
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
        partition: slot.kept,
        type_name: replica.type_name().to_string(),
        state: replica.state_bytes(),
        seq: replica.version(),
        dedup: slot.dedup.lock().clone(),
        lease,
    }
    .to_bytes();
    for &node in nodes {
        let primed = regime_rpc_raw(inner, node, &prime, deadline);
        if lease.is_some() && matches!(primed, Ok(RegimeReply::Ack)) {
            let expires = Instant::now() + inner.grant_span();
            slot.leases.lock().grants.insert(node.0, expires);
            inner.lease_counters.grants.inc();
        }
    }
}

/// Install an authoritative slot on this node, `placed` = the regime it
/// serves and the mirrors its table lists. Its mirrors — those, and the
/// keeper of a sharded-regime slot — are primed here, wherever the slot is,
/// before it becomes visible: no write's push can reach a mirror ahead of
/// the state it applies to.
pub(super) fn install_slot(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    epoch: u64,
    type_name: &str,
    state: &[u8],
    dedup: DedupWindow,
    (regime, mirrors): (RegimeKind, &[u16]),
) -> Result<(), RtsError> {
    let slot = Slot {
        replica: Mutex::new(inner.registry.instantiate(type_name, state)?),
        epoch,
        withdrawn: AtomicBool::new(false),
        regime,
        mirrors: mirrors.to_vec(),
        kept: (regime == RegimeKind::Sharded && inner.recovery.enabled).then_some(key.1),
        dedup: Mutex::new(dedup),
        leases: Mutex::default(),
        parked: AtomicU32::new(0),
    };
    let holders = slot.holders(inner);
    prime_mirrors(inner, key, &slot, &**slot.replica.lock(), &holders);
    inner.slots.write().insert(key, Arc::new(slot));
    Ok(())
}

/// Make this node's mirror of partition `key.1`, of `epoch`, the partition's
/// authoritative slot — its owner died — in place and under the epoch its
/// sibling partitions still serve; the install primes a new keeper on the
/// next live node before the slot takes a write.
pub(super) fn promote(inner: &Arc<Inner>, key: (ObjectId, u32), epoch: u64) -> RegimeReply {
    let mirror = inner.mirrors.read().get(&(key.0, Some(key.1))).cloned();
    let kept = mirror.and_then(|mirror| {
        let mut state = mirror.state.lock();
        let of_epoch = state.epoch == epoch;
        let copy = state.copy.take_if(|_| of_epoch)?;
        Some((copy, std::mem::take(&mut state.dedup)))
    });
    let Some((copy, dedup)) = kept else {
        return RegimeReply::StaleRegime;
    };
    let (name, bytes) = (copy.type_name(), copy.state_bytes());
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
/// per destination before the run is acknowledged: one pushed run (or one
/// invalidation) to each mirror, a sharded-regime slot's keeper included.
pub(super) fn apply_op_batch(
    inner: &Arc<Inner>,
    ops: &OpBatchView<'_>,
    caller: NodeId,
) -> Vec<BatchOutcome> {
    // One protocol-handling event for the whole message, one apply per op
    // — the accounting split the cost model relies on.
    if caller != inner.node {
        inner.stats.updates_applied.inc();
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
    let reply = {
        let mut replica = slot.lock_for(inner, caller);
        let (replica, run) = (&mut replica, None);
        apply_locked(inner, key, &slot, replica, op, stamp, caller, through, run)
    };
    if caller == inner.node && slot.fans_out() {
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
                inner.stats.updates_applied.inc();
            }
            if kind == OpKind::Write {
                let stamped = stamp.map(|stamp| (stamp, reply.clone()));
                if let Some((stamp, reply)) = &stamped {
                    slot.dedup.lock().record(*stamp, reply.clone());
                }
                let through = through && slot.regime == RegimeKind::Replicated;
                let owes = slot.fans_out();
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
                    let lease = slot.lease_span(inner);
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
/// which left `replica` at its current version — owe the slot's mirrors
/// before they are acknowledged ([`Slot::fans_out`]). The caller holds the
/// replica mutex. All of them but `skip` — a writer bringing its own mirror
/// up to date from the acknowledgement — and the dead get what the write
/// policy says: a two-phase push of the run ([`push_update`]), or an
/// invalidation naming its last version, which retires the copies with the
/// `DropCopies` and grant settlement a drain uses and leaves the mirrors
/// listed, to fetch at their next read. A keeper fetches nothing — nobody
/// reads it — and an invalidated one would protect nothing: it is always
/// pushed to.
fn settle_writes(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    ops: Vec<Vec<u8>>,
    stamped: Option<(OpStamp, Vec<u8>)>,
    skip: Option<NodeId>,
) {
    let mut others = slot.holders(inner);
    others.retain(|n| Some(*n) != skip && !is_dead(&inner.detector, *n));
    if others.is_empty() {
        return;
    }
    match inner.policy.write {
        WritePolicy::Invalidate if slot.kept.is_none() => {
            let nodes = || others.iter().copied();
            let written = Some(replica.version());
            let dropped = drop_copies(inner, key.0, slot.epoch, written, nodes());
            settle_grants(inner, slot, nodes(), &dropped);
        }
        _ => push_update(inner, key, slot, replica, &others, ops, stamped),
    }
}

/// Push a run of committed writes — the last of them left `replica` at its
/// current version — to the mirrors `others` of `slot`, in two phases:
/// update-and-lock, then a one-way unlock of the run's last version — for
/// all but the last of them, which is never locked
/// ([`UpdateChannel::two_phase`]): a keeper, the one holder of its slot,
/// never is. Without read leases this is best-effort under crashes: a
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
/// one that answers it could not take the run (`StaleRegime`: it never held
/// a copy, holds one of another epoch, or missed a run) is primed whole,
/// here, before the write is acknowledged.
///
/// The fan-out runs under a budget of half the operation deadline (the
/// replica mutex is held throughout, and the writer is waiting on this
/// reply): a crashed node eats the remaining budget at most once, the
/// rest of the push is skipped, and the owner still answers the writer
/// before *its* deadline expires — a committed write must not be reported
/// as a timeout just because a mirror is unreachable.
fn push_update(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    slot: &Slot,
    replica: &dyn AnyReplica,
    others: &[NodeId],
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
        partition: slot.kept,
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
        seq: last,
    }
    .to_bytes();
    let push = |node, held| {
        if lease.is_some() {
            renew_mirror_grant(inner, slot, node);
        }
        RegimeMsg::hold_update(&mut update, held);
        let reply = regime_rpc_raw(inner, node, &update, deadline);
        if slot.kept.is_some() && matches!(reply, Ok(RegimeReply::StaleRegime)) {
            prime_mirrors(inner, key, slot, replica, &[node]);
        }
        reply.is_ok()
    };
    let failed = inner.updates.two_phase(others, push, &unlock);
    settle_grants(inner, slot, failed.iter().copied(), &[]);
    let listed = failed.iter().filter(|n| slot.mirrors.contains(&n.0));
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
    inner.lease_counters.renewals.inc();
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
            inner.lease_counters.revokes.inc();
        } else if !is_dead(&inner.detector, node) && !left.is_zero() {
            std::thread::sleep(left);
            inner.lease_counters.revokes.inc();
        }
    }
}

/// This node's mirror entry for `at`, created empty on first use.
pub(super) fn mirror_entry(inner: &Arc<Inner>, at: MirrorKey) -> Arc<Mirror> {
    if let Some(entry) = inner.mirrors.read().get(&at) {
        return Arc::clone(entry);
    }
    Arc::clone(inner.mirrors.write().entry(at).or_default())
}

/// Install a snapshot of `at` at version `seq` of regime `epoch` — the
/// owner primed it, or this node fetched it — as the local mirror, with the
/// lease that came along. False when the mirror has moved on to a newer
/// regime meanwhile: the retired snapshot would regress it. Nor is a
/// reader's snapshot installed that an update raced ahead of; the next read
/// fetches. (A keeper fetches nothing: its owner's prime is never raced.)
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
) -> Result<bool, RtsError> {
    let replica = inner.registry.instantiate(type_name, state_bytes)?;
    let mirror = mirror_entry(inner, at);
    let mut state = mirror.state.lock();
    if epoch < state.epoch {
        return Ok(false);
    }
    state.enter_epoch(epoch);
    let lease = lease.map(|valid_ms| mirror_lease(inner, valid_ms));
    if state.install_snapshot(replica, seq, dedup, lease, at.1.is_some()) {
        inner.stats.copies_fetched.inc();
    }
    mirror.unlocked.notify_all();
    Ok(true)
}

/// Owner side of a mirror fetch: the slot's state and a lease over it, or
/// the lease alone when the caller's copy, at version `have`, is current.
/// Only a mirror the slot lists is served — the table is the truth: anyone
/// else re-reads it and ships its reads, instead of fetching its way into
/// the push set.
pub(super) fn serve_fetch_mirror(
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
