//! The client path: an invocation finds the object's regime table, is
//! executed where the table says — this node's slot or mirror, or shipped to
//! an owner — and is retried when a switch or a death got in the way; the
//! asynchronous path batches the same routing per destination.

use std::borrow::Cow;

use super::*;

/// How long a guarded read parks on a mirror before re-validating the
/// regime (protects against missed wake-ups and retired mirrors).
const MIRROR_GUARD_WAIT: Duration = Duration::from_millis(100);

/// How long a mirror read waits for an in-flight two-phase update to
/// unlock before re-checking.
const MIRROR_LOCK_WAIT: Duration = Duration::from_millis(50);

/// Outcome of one attempt to execute (part of) an operation.
pub(super) enum PartOutcome {
    Done(Vec<u8>),
    Blocked,
    Stale,
}

/// Where an operation runs under a regime table ([`AdaptiveRts::target`]).
enum Target<'a> {
    /// This node's mirror: a replicated-regime read where the table lists one.
    Mirror,
    /// One authoritative slot, with the operation narrowed to its partition.
    Slot(u32, Cow<'a, [u8]>),
    /// The first partition that accepts it, scanning.
    Any(Arc<dyn orca_object::ShardLogic>),
    /// Every partition, fanned out by the home under its switch lock.
    All,
}

impl AdaptiveRts {
    /// Send a regime request to `dst`, bounded by `deadline`.
    pub(super) fn rpc(
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
    pub(super) fn route_for(
        &self,
        object: ObjectId,
        deadline: Instant,
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

    /// Deliver a usage report to the home (directly when this node is the
    /// home) — one message, nothing waited for, unless `acknowledged`: an
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
            let bounced = |stale: &[usize]| stale.iter().any(|&s| ops[s].object == op.object);
            if bounced(&stale) {
                stale.push(i);
                continue;
            }
            let routed = self.route_for(op.object, deadline).and_then(|table| {
                let target = self.target(&table, op.kind, &op.op)?;
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
            // node death (the failure contract of `crate::pipeline`).
            slots[i] = match self.execute(&table, target, &op.op, None, deadline) {
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

    /// Where an operation runs under `table`. A replicated-regime read is
    /// local where the table lists a mirror; every other operation of one
    /// copy — and of a pinned sharded type that does not shard — goes to
    /// the single slot; a sharded one goes where the type's partitioning
    /// logic routes it.
    fn target<'a>(
        &self,
        table: &RegimeTable,
        kind: OpKind,
        op: &'a [u8],
    ) -> Result<Target<'a>, RtsError> {
        let logic = match table.regime {
            RegimeKind::Replicated
                if kind == OpKind::Read && table.mirrors.contains(&self.inner.node.0) =>
            {
                return Ok(Target::Mirror)
            }
            RegimeKind::Sharded => self.inner.registry.shard_logic(&table.type_name),
            _ => None,
        };
        let Some(logic) = logic else {
            return Ok(Target::Slot(0, Cow::Borrowed(op)));
        };
        let parts = table.partitions();
        Ok(match logic.route(op, parts)? {
            ShardRoute::One(partition) => {
                Target::Slot(partition, Cow::Owned(logic.op_for(op, partition, parts)?))
            }
            ShardRoute::Any => Target::Any(logic),
            ShardRoute::All => Target::All,
        })
    }

    /// Execute `op` where `target` says, under `table`.
    fn execute(
        &self,
        table: &RegimeTable,
        target: Target<'_>,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        match target {
            Target::Mirror => self.mirror_read(table, op, deadline),
            Target::Slot(partition, part_op) => {
                self.slot_op(table, partition, &part_op, stamp, deadline)
            }
            Target::Any(logic) => self.any_partition_op(table, logic.as_ref(), op, stamp, deadline),
            // The shares of one logical operation need a stamp each, which
            // the home mints — not the client.
            Target::All => self.all_partitions_op(table, op, deadline),
        }
    }

    /// Record invocation-level statistics once the routing decision is
    /// known (a mirror read counts itself, when it is served).
    fn record_invocation(&self, table: &RegimeTable, target: &Target<'_>, kind: OpKind) {
        let local = |owner: &u16| *owner == self.inner.node.0;
        let all_local = match target {
            Target::Mirror => return,
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
            other => Err(RtsError::Communication(format!(
                "unexpected reply {other:?} to an operation"
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
            let mirror = mirror_entry(&self.inner, (object, None));
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
                    self.inner.stats.local_reads.inc();
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
        let mirror = mirror_entry(&self.inner, (object, None));
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
    ///   with its `DropCopies`).
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
                let (inner, at, name) = (&self.inner, (object, None), &table.type_name);
                install_mirror(inner, at, table.epoch, name, &state, seq, dedup, lease)
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
        self.outcome(object, reply)
    }

    /// Route one invocation under the current regime table, count it, and
    /// execute it. A write from a node the table lists a mirror for goes
    /// *through* that mirror; a batched one never does (it goes to the
    /// owner like any other slot-addressed operation of its round).
    pub(super) fn dispatch_client_op(
        &self,
        table: &RegimeTable,
        kind: OpKind,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let target = self.target(table, kind, op)?;
        self.record_invocation(table, &target, kind);
        if kind == OpKind::Write {
            if let Some(outcome) = self.write_through(table, op, stamp, deadline) {
                return outcome;
            }
        }
        self.execute(table, target, op, stamp, deadline)
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
        // Unless pinned to sharded, an object starts as a replicated copy
        // here, without mirrors: nobody has read it yet.
        let regime = inner.policy.pin.unwrap_or(RegimeKind::Replicated);
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
                    self.inner.stats.guard_retries.inc();
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
            self.inner.stats.writes.inc();
        }
        // The access evidence driving regime decisions counts logical
        // invocations, exactly like the synchronous path.
        self.note_access(object, kind);
        self.pipeline.submit(object, kind, op, |pipeline| {
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
