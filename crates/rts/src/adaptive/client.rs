//! The client path: an invocation finds the object's regime table, is
//! executed where the table says — this node's slot or mirror, or shipped to
//! an owner — and is retried when a switch or a death got in the way; the
//! asynchronous path batches the same routing per destination.

use std::borrow::Cow;

use super::*;

/// How long a call whose guard was false on a partition of a sharded object,
/// which parks no call, waits before it tries again.
const PARTITION_RESCAN: Duration = Duration::from_millis(20);

/// Outcome of one attempt to execute (part of) an operation.
pub(super) enum PartOutcome {
    Done(Vec<u8>),
    Blocked,
    Stale,
}

/// When a call gives up: an instant, or a [`Due`] one.
pub(super) trait Deadline: Copy {
    fn at(self) -> Instant;
}

impl Deadline for Instant {
    fn at(self) -> Instant {
        self
    }
}

/// A deadline a span after it is first asked for: a synchronous call's,
/// which a call this node answers never asks for.
struct Due(std::cell::Cell<Option<Instant>>, Duration);

impl Deadline for &Due {
    fn at(self) -> Instant {
        let at = self.0.get().unwrap_or_else(|| Instant::now() + self.1);
        self.0.set(Some(at));
        at
    }
}

/// Where an operation runs under a regime table ([`AdaptiveRts::target`]).
enum Target<'a> {
    /// This node's mirror of one partition (0: the one copy), the op narrowed to it.
    Mirror(u32, Cow<'a, [u8]>),
    /// One authoritative slot, with the operation narrowed to its partition.
    Slot(u32, Cow<'a, [u8]>),
    /// The first partition that accepts it, scanning.
    Any(Arc<dyn orca_object::ShardLogic>),
    /// Every partition, fanned out by the home under its switch lock.
    All,
}

impl AdaptiveRts {
    /// Regime table for `object`: authoritative at home, cached elsewhere.
    /// When the creating node is dead, the home role falls to the lowest
    /// live node, which re-assembles the object from what the survivors
    /// hold of it on first contact.
    pub(super) fn route_for(
        &self,
        object: ObjectId,
        deadline: impl Deadline,
    ) -> Result<Arc<RegimeTable>, RtsError> {
        if self.inner.is_lost(object) {
            return Err(RtsError::ObjectLost(object));
        }
        let creator = NodeId(object.creator_index());
        let home = current_home(&self.inner, object);
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
            // epoch check is the invalidation (all there is where this node
            // owns every slot); only a table that lists mirrors (or may: a
            // replicated one) has to expire. No slot is special: an
            // operation for any partition whose owner died must re-fetch,
            // not time out against a corpse.
            if table.owners.iter().all(|&owner| owner == self.inner.node.0) {
                return Ok(Arc::clone(table));
            }
            let expires = table.regime == RegimeKind::Replicated || !table.mirrors.is_empty();
            let fresh = !expires || fetched.elapsed() < self.inner.policy.regime_lease;
            if fresh
                && !table
                    .owners
                    .iter()
                    .any(|&owner| is_dead(&self.inner.detector, NodeId(owner)))
            {
                return Ok(Arc::clone(table));
            }
        }
        let route = RegimeMsg::Route { object: object.0 };
        match regime_fan_out(&self.inner, [(home, route)], deadline.at()).remove(0)? {
            RegimeReply::Route(table) if !served(table.regime) => Err(RtsError::Communication(
                format!("unknown regime {:?} of {object}", table.regime),
            )),
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
            // The adopter may not have declared the creator dead yet;
            // surface as NodeDown so the invocation loop retries.
            RegimeReply::Error(_) if home != creator => Err(RtsError::NodeDown(creator)),
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(unexpected("Route", other)),
        }
    }

    /// Count a local access and ship a usage report to the home every
    /// [`AdaptivePolicy::window`] accesses.
    fn note_access(&self, object: ObjectId, kind: OpKind) {
        let taken = {
            let mut pending = self.inner.pending_usage.lock();
            let entry = pending.entry(object).or_insert((0, 0));
            match kind {
                OpKind::Read => entry.0 += 1,
                OpKind::Write => entry.1 += 1,
            }
            if entry.0 + entry.1 >= self.inner.policy.window {
                pending.remove(&object)
            } else {
                None
            }
        };
        if let Some((reads, writes)) = taken {
            self.send_report(object, reads, writes, false);
        }
    }

    /// Deliver a usage report to the home (served in place when this node is
    /// the home) — one message, nothing waited for, unless `acknowledged`: an
    /// invocation never stalls on the home's evaluation. Failures are
    /// ignored: a lost report only delays adaptation.
    pub(super) fn send_report(
        &self,
        object: ObjectId,
        reads: u64,
        writes: u64,
        acknowledged: bool,
    ) {
        let home = current_home(&self.inner, object);
        let msg = RegimeMsg::Report {
            object: object.0,
            reads,
            writes,
        };
        if acknowledged || home == self.inner.node {
            let deadline = Instant::now() + self.inner.policy.op_timeout;
            let _ = regime_fan_out(&self.inner, [(home, msg)], deadline);
        } else {
            let (handle, port) = (&self.inner.handle, ports::RTS_ADAPTIVE);
            let _ = rpc_notify(handle, home, port, msg.to_bytes());
        }
    }

    /// Set the batching knobs of the asynchronous invocation path (takes
    /// effect from the next flusher round).
    pub fn set_batch_policy(&self, policy: BatchPolicy) {
        self.pipeline.set_policy(policy);
    }

    /// Execute one flusher round. Each operation is routed as a call is
    /// ([`AdaptiveRts::target`]): a slot-addressed one (whatever a
    /// replicated-regime copy's owner executes, `One`-routed sharded
    /// operations) joins one epoch-stamped operation-batch request per
    /// destination node; anything else — a mirror read, an `All`/`Any`
    /// fan-out — is a barrier. Operations bounced by a regime switch
    /// (`Stale`) retry in a follow-up pass. Every handle resolves in issue
    /// order at the end of the round.
    fn run_round(&self, ops: Vec<QueuedOp>) {
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        let mut slots: Vec<RoundSlot> = ops.iter().map(|_| RoundSlot::Todo).collect();
        let mut todo: Vec<usize> = (0..ops.len()).collect();
        // A read is counted once, where it is first routed (a mirror read
        // counts itself, when it is served), however many passes it takes.
        let mut uncounted: Vec<bool> = ops.iter().map(|op| op.kind == OpKind::Read).collect();
        for pass in 0.. {
            todo = self.execute_pass(&ops, &todo, &mut slots, &mut uncounted, deadline);
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
        uncounted: &mut [bool],
        deadline: Instant,
    ) -> Vec<usize> {
        let mut stale: Vec<usize> = Vec::new();
        let mut batches = PendingBatches::new(ops);
        for &i in todo {
            let op = &ops[i];
            // An earlier operation on this object bounced in this pass;
            // executing a later one now would invert their effects.
            let bounced = |stale: &[usize]| stale.iter().any(|&s| ops[s].object == op.object);
            if bounced(&stale) {
                stale.push(i);
                continue;
            }
            let routed = self.route_for(op.object, deadline).and_then(|table| {
                let target = self.target(&table, op.kind, &op.op)?;
                if !matches!(target, Target::Mirror(..)) && std::mem::take(&mut uncounted[i]) {
                    self.record_invocation(&table, &target, OpKind::Read);
                }
                Ok((table, target))
            });
            let (table, target) = match routed {
                Ok((table, Target::Slot(partition, part_op))) => {
                    let owner = NodeId(table.owners[partition as usize]);
                    batches.push(owner, i, op.batched(partition, table.epoch, &part_op));
                    continue;
                }
                Ok(routed) => routed,
                Err(err) => {
                    slots[i] = RoundSlot::Ready(Err(err));
                    continue;
                }
            };
            // A barrier: a mirror read must see this process's earlier
            // batched writes (the owner pushes to its mirrors before it
            // acknowledges a batch), and a fan-out must order against every
            // batched operation before it.
            self.flush_batches(&mut batches, &mut stale, slots, deadline);
            if bounced(&stale) {
                stale.push(i);
                continue;
            }
            // Unstamped: the round never re-presents an operation across a
            // node death (the failure contract of `crate::pipeline`); nor
            // does it park on a guard (its ordering contract).
            let (stamp, park) = (None, false);
            slots[i] = match self.execute(&table, target, &op.op, stamp, deadline, park) {
                Ok(PartOutcome::Done(reply)) => RoundSlot::Ready(Ok(reply)),
                Ok(PartOutcome::Blocked) => RoundSlot::Blocked,
                Ok(PartOutcome::Stale) => {
                    stale.push(i);
                    continue;
                }
                Err(err) => RoundSlot::Ready(Err(err)),
            };
        }
        self.flush_batches(&mut batches, &mut stale, slots, deadline);
        stale
    }

    /// Ship every pending per-destination batch at once ([`regime_rpcs`]),
    /// this node's own applied while the others travel — read back from its
    /// encoding, as a receiver reads it — and record the per-op outcomes
    /// (`Stale` ones land in `stale` for the next pass). A batch whose
    /// destination dies reports a per-operation outcome (`NodeDown` once the
    /// failure detector confirms the death, `Timeout` otherwise) and is
    /// **never re-sent**: the destination may have applied any prefix before
    /// crashing, so a blind retry could double-apply.
    fn flush_batches(
        &self,
        batches: &mut PendingBatches,
        stale: &mut Vec<usize>,
        slots: &mut [RoundSlot],
        deadline: Instant,
    ) {
        let inner = &self.inner;
        let (mut local, mut remote, mut requests) = (None, Vec::new(), Vec::new());
        for (dest, indices, request) in batches.take() {
            inner.stats.batches_sent.inc();
            inner.stats.ops_batched.add(indices.len() as u64);
            if dest == inner.node {
                local = Some((indices, request));
            } else {
                inner.stats.remote_writes.inc();
                remote.push(indices);
                requests.push((dest, request));
            }
        }
        let apply = || {
            local.map(|(indices, request)| {
                let ops = OpBatchView::from_request(RegimeMsg::OP_BATCH_TAG, &request)
                    .expect("request begins with its tag")
                    .expect("a batch this node just encoded");
                (indices, apply_op_batch(inner, &ops, inner.node))
            })
        };
        let (applied, replies) = regime_rpcs(inner, requests, deadline, apply);
        if let Some((indices, outcomes)) = applied {
            record_batch_outcomes(&indices, outcomes, slots, stale);
        }
        for (indices, reply) in remote.into_iter().zip(replies) {
            let err = match reply {
                Ok(RegimeReply::Batch(outcomes)) if outcomes.len() == indices.len() => {
                    record_batch_outcomes(&indices, outcomes, slots, stale);
                    continue;
                }
                Ok(reply) => RtsError::Communication(format!(
                    "no batch reply for {} ops: {reply:?}",
                    indices.len()
                )),
                Err(err) => err,
            };
            for &i in &indices {
                slots[i] = RoundSlot::Ready(Err(err.clone()));
            }
        }
    }

    /// Where an operation runs under `table`. An operation of one copy —
    /// and of a pinned sharded type that does not shard — goes to the single
    /// slot; a sharded one goes where the type's partitioning logic routes
    /// it. A read of one slot is local where the table lists a mirror here
    /// and another node owns the slot.
    fn target<'a>(
        &self,
        table: &RegimeTable,
        kind: OpKind,
        op: &'a [u8],
    ) -> Result<Target<'a>, RtsError> {
        let logic = match table.regime {
            RegimeKind::Sharded => self.inner.registry.shard_logic(&table.type_name),
            _ => None,
        };
        let (partition, op) = match logic {
            None => (0, Cow::Borrowed(op)),
            Some(logic) => {
                let parts = table.partitions();
                match logic.route(op, parts)? {
                    ShardRoute::One(p) => (p, Cow::Owned(logic.op_for(op, p, parts)?)),
                    ShardRoute::Any => return Ok(Target::Any(logic)),
                    ShardRoute::All => return Ok(Target::All),
                }
            }
        };
        let (me, read) = (self.inner.node.0, kind == OpKind::Read);
        if read && table.mirrors.contains(&me) && table.owners[partition as usize] != me {
            return Ok(Target::Mirror(partition, op));
        }
        Ok(Target::Slot(partition, op))
    }

    /// Execute `op` where `target` says, under `table`; a guarded mirror
    /// read `park`s on its guard ([`AdaptiveRts::mirror_read`]).
    fn execute(
        &self,
        table: &RegimeTable,
        target: Target<'_>,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: impl Deadline,
        park: bool,
    ) -> Result<PartOutcome, RtsError> {
        match target {
            Target::Mirror(p, part_op) => self.mirror_read(table, p, &part_op, deadline.at(), park),
            Target::Slot(partition, part_op) => {
                self.slot_op(table, partition, &part_op, stamp, deadline)
            }
            Target::Any(logic) => self.any_partition_op(table, logic.as_ref(), op, stamp, deadline),
            // The shares of one logical operation need a stamp each, which
            // the home mints — not the client.
            Target::All => self.all_partitions_op(table, op, deadline.at()),
        }
    }

    /// Record invocation-level statistics once the routing decision is
    /// known (a mirror read counts itself, when it is served).
    fn record_invocation(&self, table: &RegimeTable, target: &Target<'_>, kind: OpKind) {
        let local = |owner: &u16| *owner == self.inner.node.0;
        let all_local = match target {
            Target::Mirror(..) => return,
            Target::Slot(partition, _) => local(&table.owners[*partition as usize]),
            Target::Any(_) | Target::All => table.owners.iter().all(local),
        };
        let stats = &self.inner.stats;
        match kind {
            OpKind::Read => {
                if all_local {
                    stats.local_reads.inc();
                } else {
                    stats.remote_reads.inc();
                }
            }
            OpKind::Write => {
                stats.writes.inc();
                if !all_local {
                    stats.remote_writes.inc();
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
        deadline: impl Deadline,
    ) -> Result<PartOutcome, RtsError> {
        let owner = NodeId(table.owners[partition as usize]);
        let object = table_object(table);
        let (me, epoch) = (self.inner.node, table.epoch);
        let reply = if owner == me {
            apply_at_slot(&self.inner, object, partition, epoch, op, stamp, me, false)
        } else {
            let msg = RegimeMsg::Op {
                object: object.0,
                epoch,
                partition,
                op: op.to_vec(),
                stamp,
            };
            regime_fan_out(&self.inner, [(owner, msg)], deadline.at()).remove(0)?
        };
        self.outcome(object, reply)
    }

    /// What an answer to an operation (`Op`, `OpAll`) means to it.
    fn outcome(&self, object: ObjectId, reply: RegimeReply) -> Result<PartOutcome, RtsError> {
        match reply {
            RegimeReply::Done(bytes) => Ok(PartOutcome::Done(bytes)),
            RegimeReply::Blocked => Ok(PartOutcome::Blocked),
            RegimeReply::StaleRegime => Ok(PartOutcome::Stale),
            RegimeReply::ObjectLost => {
                self.inner.lost.write().insert(object);
                Err(RtsError::ObjectLost(object))
            }
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(unexpected("an operation", other)),
        }
    }

    /// Serve a read of `partition` from this node's mirror, fetching or
    /// re-syncing it from the partition's owner when needed. A read whose
    /// guard is false waits — if it may `park`: a pipelined round's may not
    /// hold up its window — for the mirror to change, its lease to lapse or
    /// the deadline, then validates the mirror and evaluates it again.
    fn mirror_read(
        &self,
        table: &RegimeTable,
        partition: u32,
        op: &[u8],
        deadline: Instant,
        park: bool,
    ) -> Result<PartOutcome, RtsError> {
        let owner = NodeId(table.owners[partition as usize]);
        let dead = || is_dead(&self.inner.detector, owner);
        let stopped = || self.inner.stopped.load(Ordering::SeqCst);
        loop {
            let mirror = mirror_entry(&self.inner, mirror_key(table, partition));
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
                if !self.fetch_mirror(table, partition, &mirror, have, deadline)? {
                    return Ok(PartOutcome::Stale);
                }
                continue;
            }
            if !state.reads_blocked() {
                let copy = state.copy.as_mut().expect("checked above");
                match copy.apply_encoded(op)? {
                    AppliedOutcome::Done(reply) => {
                        self.inner.stats.local_reads.inc();
                        if self.inner.leases_enabled() {
                            self.inner.lease.local_reads.inc();
                        }
                        return Ok(PartOutcome::Done(reply));
                    }
                    AppliedOutcome::Blocked if !park || Instant::now() >= deadline || stopped() => {
                        return Ok(PartOutcome::Blocked)
                    }
                    AppliedOutcome::Blocked => self.inner.stats.guard_retries.inc(),
                }
            } else if Instant::now() >= deadline || stopped() {
                // A two-phase update (or a write of this node through the
                // mirror) is in flight, and reads wait for its unlock. A
                // lock that never clears (the unlock was lost to a crash
                // mid-push) must not wedge this mirror forever: once the
                // deadline passes, discard the copy — the next read
                // re-syncs a fresh, unlocked state from the owner — and
                // hand back Stale so the caller's deadline check fails
                // this invocation instead of hanging.
                state.copy = None;
                return Ok(PartOutcome::Stale);
            }
            // Wait for the unlock, or for a change that may make the guard
            // true, or for the lease to lapse — not for an owner that died:
            // the caller goes back to the home for whoever serves now.
            if dead() {
                return Err(RtsError::NodeDown(owner));
            }
            let moment = |s: &CopyState| (s.epoch, s.version, s.copy.is_some(), s.reads_blocked());
            let (seen, lease) = (moment(&state), state.lease.as_ref());
            let until = lease.map_or(deadline, |lease| lease.expires.min(deadline));
            let unchanged = |state: &CopyState| moment(state) == seen && !dead() && !stopped();
            crate::await_change(&mirror.unlocked, &mut state, Some(until), unchanged);
        }
    }

    /// Ship a write of `partition` *through* this node's mirror of it: mark
    /// it pending, send [`RegimeMsg::WriteThrough`] — the owner then pushes
    /// the update to the other mirrors only — and apply the operation here
    /// from the acknowledgement ([`finish_write_through`]). `None` when the
    /// table lists no mirror here, this node owns the partition, or no
    /// mirror of the epoch is installed; the write then goes as a plain
    /// [`RegimeMsg::Op`]. The mark lasts one attempt: a guard-blocked write
    /// is not parked at the owner, whose answer the node's readers would
    /// wait for, and is re-sent as a plain operation, which is.
    fn write_through(
        &self,
        table: &RegimeTable,
        partition: u32,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: impl Deadline,
    ) -> Option<Result<PartOutcome, RtsError>> {
        let (me, owner) = (self.inner.node, NodeId(table.owners[partition as usize]));
        if owner == me || !table.mirrors.contains(&me.0) {
            return None;
        }
        let mirror = mirror_entry(&self.inner, mirror_key(table, partition));
        if !mirror.mark_pending(table.epoch) {
            return None;
        }
        let msg = RegimeMsg::WriteThrough {
            object: table.object,
            epoch: table.epoch,
            partition,
            op: op.to_vec(),
            stamp,
        };
        let answer = regime_fan_out(&self.inner, [(owner, msg)], deadline.at()).remove(0);
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
    ///   with its `DropCopies`).
    /// * A plain `Done` — the owner answered a retry from its dedup window
    ///   (or serves no mirrors): the mirror may have missed the write and
    ///   is dropped.
    /// * An error or a timeout — the write may or may not have been
    ///   applied. Without re-homing the mirror is dropped. With it, the
    ///   owner may have died under the write — a killed process resets its
    ///   connections long before a detector counts it out — and the mirror
    ///   may be the slot's keeper, which the push left out, and so the one
    ///   copy of every acknowledged write left: it is left *locked*, like a
    ///   mirror caught mid-push. It serves no read, still answers the
    ///   `Holdings` query of whoever promotes a mirror of the slot, and under
    ///   a live owner the next update — this node's own, or a pushed one —
    ///   brings it back or finds the gap.
    fn finish_write_through(
        &self,
        mirror: &HeldCopy,
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
            Ok(other) => (WriteAck::Unsynced, Err(unexpected("WriteThrough", other))),
            Err(err) if inner.recovery.rehome => (WriteAck::AuthorityLost, Err(err)),
            Err(err) => (WriteAck::Unsynced, Err(err)),
        };
        let installs = &inner.update.reply_installs;
        mirror.finish_write_through(installs, epoch, op, ack, inner.policy.op_timeout);
        outcome
    }

    /// Fetch a fresh state of this node's mirror of `partition` — or, when
    /// the copy at version `have` is still current, a lease alone — from its
    /// owner. False when the owner says the table is stale (the epoch, or
    /// this node's place in it; the caller re-fetches the table).
    fn fetch_mirror(
        &self,
        table: &RegimeTable,
        partition: u32,
        mirror: &HeldCopy,
        have: Option<u64>,
        deadline: Instant,
    ) -> Result<bool, RtsError> {
        let at = mirror_key(table, partition);
        let msg = RegimeMsg::FetchMirror {
            object: table.object,
            epoch: table.epoch,
            partition: at.1,
            have,
        };
        let owner = NodeId(table.owners[partition as usize]);
        match regime_fan_out(&self.inner, [(owner, msg)], deadline).remove(0)? {
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
                let (inner, epoch, name) = (&self.inner, table.epoch, &table.type_name);
                install_mirror(inner, at, epoch, name, &state, seq, dedup, lease, true)
            }
            RegimeReply::StaleRegime => Ok(false),
            RegimeReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(unexpected("FetchMirror", other)),
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
        deadline: impl Deadline,
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
        let msg = RegimeMsg::OpAll {
            object: object.0,
            op: op.to_vec(),
        };
        let reply = regime_fan_out(&self.inner, [(home, msg)], deadline).remove(0)?;
        self.outcome(object, reply)
    }

    /// Route one invocation under the current regime table, count it, and
    /// execute it. A write of one slot from a node the table lists a mirror
    /// for goes *through* that mirror unless its guard was false (`blocked`);
    /// a batched one never does: it goes to the owner like any other.
    pub(super) fn dispatch_client_op(
        &self,
        table: &RegimeTable,
        kind: OpKind,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: impl Deadline,
        blocked: bool,
    ) -> Result<PartOutcome, RtsError> {
        let target = self.target(table, kind, op)?;
        self.record_invocation(table, &target, kind);
        if let (OpKind::Write, Target::Slot(partition, part_op), false) = (kind, &target, blocked) {
            if let Some(outcome) = self.write_through(table, *partition, part_op, stamp, deadline) {
                return outcome;
            }
        }
        self.execute(table, target, op, stamp, deadline, true)
    }
}

impl RuntimeSystem for AdaptiveRts {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    fn create_object(&self, initial: Box<dyn AnyReplica>) -> Result<ObjectId, RtsError> {
        let (inner, type_name) = (&self.inner, initial.type_name());
        inner.registry.require(type_name)?;
        let counter = inner.next_object.fetch_add(1, Ordering::Relaxed);
        let id = ObjectId::compose(inner.node.0, counter);
        // Unless pinned to sharded, an object starts as a replicated copy
        // here, without mirrors: nobody has read it yet.
        let regime = inner.policy.pin.unwrap_or(RegimeKind::Replicated);
        let sharded = regime == RegimeKind::Sharded;
        let logic = inner.registry.shard_logic(type_name).filter(|_| sharded);
        let owners = match logic {
            // The owners of an object nobody has used yet: every node's.
            Some(_) => placement(inner, id, &UsageAggregate::default(), &[]),
            None => vec![inner.node.0],
        };
        let table = RegimeTable {
            object: id.0,
            type_name: type_name.to_string(),
            epoch: 0,
            regime,
            owners,
            mirrors: Vec::new(),
        };
        // Priced by a size pass, split in memory, encoded for other nodes.
        let mut usage = UsageAggregate::default();
        usage.state = initial.state_len();
        let parts = match logic {
            Some(logic) => logic.split_replica(initial, table.partitions())?,
            None => vec![initial],
        };
        let parts = (0..).zip(parts.into_iter().map(Part::Value));
        install_slots(inner, &table, parts, &DedupWindow::new())?;
        inner.homes.write().insert(
            id,
            Arc::new(HomeObject {
                table: Mutex::new(Arc::new(table)),
                switch: Mutex::new(()),
                usage: Mutex::new(usage),
            }),
        );
        inner.stats.objects_created.inc();
        Ok(id)
    }

    fn invoke(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError> {
        // Taken when a leg leaves the node or a retry starts.
        let span = self.inner.policy.op_timeout;
        let mut deadline = Due(Default::default(), span);
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
        // Since its last answer from a live copy: when this invocation first
        // found the node it needs dead, and whether a table sent it astray.
        let (mut orphaned, mut bounced, mut blocked) = (None, false, false);
        loop {
            if self.inner.stopped.load(Ordering::SeqCst) {
                return Err(RtsError::Terminated);
            }
            let attempt = self.route_for(object, &deadline).and_then(|table| {
                let sent = self.dispatch_client_op(&table, kind, op, stamp, &deadline, blocked);
                Ok((sent?, table))
            });
            let (give_up, err) = match attempt {
                Ok((PartOutcome::Done(reply), _)) => return Ok(reply),
                Ok((PartOutcome::Blocked, table)) => {
                    // The guard was false and its copy waited for a change (a
                    // partition does not, so its caller pauses): re-sent at
                    // once as an operation that parks, deadline restarted.
                    let logic = || self.inner.registry.shard_logic(&table.type_name);
                    if table.regime == RegimeKind::Sharded && logic().is_some() {
                        self.inner.stats.guard_retries.inc();
                        std::thread::sleep(PARTITION_RESCAN);
                    }
                    (orphaned, bounced, blocked) = (None, false, true);
                    deadline = Due(Default::default(), span);
                    continue;
                }
                // A regime switch is (or was) in flight; the deadline stands:
                // a regime that never settles surfaces Timeout.
                Ok((PartOutcome::Stale, _)) => (deadline.at(), RtsError::Timeout),
                Err(_) if self.inner.stopped.load(Ordering::SeqCst) => {
                    return Err(RtsError::Terminated)
                }
                // The home (or a partition owner) is dead; adoption or a
                // regime fallback will re-home the object: retried until the
                // deadline, or for as long as a re-homing is waited for. The
                // retry re-presents `stamp`, and the dedup window rides
                // mirror updates and regime transfers, so a write the dead
                // home already applied is answered its recorded reply —
                // exactly once, not at-least-once.
                Err(RtsError::NodeDown(node)) if self.inner.recovery.rehome => {
                    let since = *orphaned.get_or_insert_with(Instant::now);
                    let patience = since + self.inner.recovery.rehome_wait;
                    (deadline.at().min(patience), RtsError::NodeDown(node))
                }
                Err(err) => return Err(err),
            };
            // Either way the table is re-fetched: at once — the home answers
            // a `Route` once its switch is done — and after a pause on a repeat.
            self.inner.routes.lock().remove(&object);
            if Instant::now() >= give_up {
                return Err(err);
            }
            if std::mem::replace(&mut bounced, true) {
                std::thread::sleep(self.inner.policy.stale_retry_delay);
            }
        }
    }

    fn invoke_many(
        &self,
        object: ObjectId,
        _type_name: &str,
        ops: &[AsyncOp<'_>],
    ) -> Vec<PendingInvocation> {
        if self.inner.stopped.load(Ordering::SeqCst) {
            return all_failed(ops, RtsError::Terminated);
        }
        for &(kind, ..) in ops {
            if kind == OpKind::Write {
                self.inner.stats.writes.inc();
            }
            // The access evidence driving regime decisions counts logical
            // invocations, exactly like the synchronous path.
            self.note_access(object, kind);
        }
        self.pipeline.submit_many(object, ops, |pipeline| {
            let rts = AdaptiveRts {
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
        self.inner.policy.kind()
    }
}
