//! Service dispatch: the regime protocol's requests as every node answers
//! them, the `All`-routed fan-out the home runs under its switch lock, and
//! the RPC helpers the engine's own requests go out through.

use super::*;

/// RPC dispatch: the service side of the regime protocol, on every node.
pub(super) fn serve_request(inner: &Arc<Inner>, body: &[u8], caller: NodeId) -> Vec<u8> {
    // An operation batch is applied straight from the request bytes;
    // everything else decodes into an owned message first.
    let reply = match OpBatchView::from_request(RegimeMsg::OP_BATCH_TAG, body) {
        Some(ops) => ops.map(|ops| RegimeReply::Batch(apply_op_batch(inner, &ops, caller))),
        None => RegimeMsg::from_bytes(body).map(|msg| dispatch(inner, msg, caller)),
    }
    .unwrap_or_else(|err| RegimeReply::Error(format!("bad request: {err}")));
    reply.to_bytes()
}

pub(super) fn dispatch(inner: &Arc<Inner>, msg: RegimeMsg, caller: NodeId) -> RegimeReply {
    let through = matches!(msg, RegimeMsg::WriteThrough { .. });
    match msg {
        // A table asked for during a switch is the one it publishes: a caller
        // that bounced off a drained slot would bounce off the retiring one.
        RegimeMsg::Route { object } => match home_entry(inner, ObjectId(object)) {
            Ok(entry) => {
                let _switch = entry.switch.lock();
                RegimeReply::Route(RegimeTable::clone(&entry.table.lock()))
            }
            Err(RtsError::ObjectLost(_)) => RegimeReply::ObjectLost,
            Err(err) => RegimeReply::Error(err.to_string()),
        },
        // A write through the caller's own mirror is executed like any.
        RegimeMsg::Op {
            object,
            epoch,
            partition,
            op,
            stamp,
        }
        | RegimeMsg::WriteThrough {
            object,
            epoch,
            partition,
            op,
            stamp,
        } => {
            let object = ObjectId(object);
            apply_at_slot(inner, object, partition, epoch, &op, stamp, caller, through)
        }
        RegimeMsg::OpAll { object, op } => serve_op_all(inner, ObjectId(object), &op, caller),
        RegimeMsg::Propose { object } => {
            let object = ObjectId(object);
            let entry = inner.homes.read().get(&object).cloned();
            match entry {
                Some(entry) => {
                    evaluate_object(inner, object, &entry, true);
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
                let window = inner.policy.window;
                let due = entry.usage.lock().report(caller.0, reads, writes, window);
                if due {
                    evaluate_object(inner, object, &entry, false);
                }
            }
            RegimeReply::Ack
        }
        RegimeMsg::Drain {
            object,
            epoch,
            partition,
        } => withdraw(inner, (ObjectId(object), partition), epoch, None),
        RegimeMsg::Install {
            object,
            epoch,
            partition,
            type_name,
            state,
            dedup,
            regime,
            mirrors,
            from,
        } => {
            if !served(regime) {
                return RegimeReply::Error(format!("unknown regime {regime:?}"));
            }
            let key = (ObjectId(object), partition);
            let placed = (regime, &mirrors[..]);
            if let Some(from) = from {
                // Sabotaged: a copy replaces the slot once primed; it serves on till then.
                let sabotaged = sabotage::on(&sabotage::RESTAMP_LEAVES_OLD_SLOT);
                let Some(old) = slot_at(inner, key, from).filter(|_| sabotaged) else {
                    return withdraw(inner, key, from, Some((epoch, placed)));
                };
                let (state, dedup) = (old.replica.lock().state_bytes(), old.dedup.lock().clone());
                let copy = Mutex::new(inner.registry.instantiate(&type_name, &state).unwrap());
                install_slot(inner, key, epoch, copy, dedup, placed);
                return RegimeReply::Ack;
            }
            match inner.registry.instantiate(&type_name, &state) {
                Ok(replica) => {
                    install_slot(inner, key, epoch, Mutex::new(replica), dedup, placed);
                    RegimeReply::Ack
                }
                Err(err) => RegimeReply::Error(err.to_string()),
            }
        }
        RegimeMsg::Mirror {
            object,
            epoch,
            partition,
            type_name,
            state,
            seq,
            dedup,
            lease,
        } => {
            let (at, name) = ((ObjectId(object), partition), &type_name);
            match install_mirror(inner, at, epoch, name, &state, seq, dedup, lease, false) {
                Ok(_) => RegimeReply::Ack,
                Err(err) => RegimeReply::Error(err.to_string()),
            }
        }
        RegimeMsg::FetchMirror {
            object,
            epoch,
            partition,
            have,
        } => serve_fetch_mirror(inner, (ObjectId(object), partition), epoch, have, caller),
        RegimeMsg::DropCopies {
            object,
            epoch,
            partition,
            written: Some(version),
        } => {
            // A write invalidates the copy. The version is remembered even
            // when no copy is installed yet: an invalidation that overtakes
            // the fetch reply it races must still refuse that older
            // snapshot, or the late install would serve stale reads.
            let mirror = mirror_entry(inner, (ObjectId(object), partition));
            let mut state = mirror.state.lock();
            if epoch >= state.epoch {
                state.enter_epoch(epoch);
                state.seen = state.seen.max(version);
                state.discard();
                inner.stats.invalidations_received.inc();
                mirror.unlocked.notify_all();
            }
            RegimeReply::Ack
        }
        RegimeMsg::DropCopies {
            object,
            epoch,
            partition,
            written: None,
        } => {
            // Readers' mirrors and keepers alike: left behind, a retired
            // regime's would be what an adopter finds of an object that has
            // since moved on, and a promoted slot's stale siblings could
            // outrank its keeper.
            for (p, mirror) in of_object(&inner.mirrors, ObjectId(object)) {
                let mut state = mirror.state.lock();
                if state.epoch <= epoch && (partition.is_none() || p == partition) {
                    state.discard();
                    // A switch that is undone primes this epoch, or the
                    // one before, again: versions start over before it.
                    (state.version, state.seen) = (0, 0);
                    state.epoch = state.epoch.min(epoch.saturating_sub(1));
                    mirror.unlocked.notify_all();
                }
            }
            RegimeReply::Ack
        }
        RegimeMsg::Update {
            object,
            epoch,
            partition,
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
            let mirror = mirror_entry(inner, (ObjectId(object), partition));
            let lease = lease.map(|valid_ms| mirror_lease(inner, valid_ms));
            let budget = inner.policy.op_timeout;
            let applied = mirror.apply_pushed(epoch, seq, held, &ops, stamped, lease, budget);
            if applied.is_some_and(|ops| ops > 0) {
                inner.stats.updates_applied.inc();
            }
            applied.map_or(RegimeReply::StaleRegime, |_| RegimeReply::Ack)
        }
        RegimeMsg::Unlock {
            object,
            epoch,
            partition,
            seq,
        } => {
            let at = (ObjectId(object), partition);
            let mirror = inner.mirrors.read().get(&at).cloned();
            if let Some(mirror) = mirror {
                mirror.unlock(epoch, seq);
            }
            RegimeReply::Ack
        }
        RegimeMsg::Unreached { object, node } => {
            let object = ObjectId(object);
            let entry = inner.homes.read().get(&object).cloned();
            if let Some(entry) = entry {
                // Re-placed at once without it; a failed re-placement leaves
                // the mirror listed, and the next evaluation tries again.
                entry.usage.lock().forget(node);
                evaluate_object(inner, object, &entry, true);
            }
            RegimeReply::Ack
        }
        RegimeMsg::Holdings { object } => {
            RegimeReply::Holdings(Box::new(holdings(inner, ObjectId(object))))
        }
        RegimeMsg::Promote {
            object,
            epoch,
            partition,
        } => promote(inner, (ObjectId(object), partition), epoch),
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
                    // The home's own share is applied for the caller.
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
                        let deadline = Instant::now() + inner.policy.op_timeout;
                        regime_fan_out(inner, [(owner, request)], deadline).remove(0)
                    };
                    match (sent, &inner.detector) {
                        // The owner is dead, found so or found out: the
                        // operation waits for the promotion like one routed
                        // to that partition alone, and the share goes to the
                        // promoted mirror, whose window knows whether the
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
        // Nobody routes to every partition of a single copy: the caller
        // went by a retired sharded-regime table.
        _ => RegimeReply::StaleRegime,
    }
}

/// Regime messages to each node of `legs` at once, this node's own
/// dispatched here while the others travel ([`regime_rpcs`]), all awaited
/// by one `deadline`; replies in leg order. A single call is a fan-out of
/// one, and one to this node puts nothing on the network.
pub(super) fn regime_fan_out(
    inner: &Arc<Inner>,
    legs: impl IntoIterator<Item = (NodeId, RegimeMsg)>,
    deadline: Instant,
) -> Vec<Result<RegimeReply, RtsError>> {
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    for (at, (node, msg)) in legs.into_iter().enumerate() {
        match node == inner.node {
            true => local.push((at, msg)),
            false => remote.push((node, msg.to_bytes())),
        }
    }
    let serve = |(at, msg)| (at, dispatch(inner, msg, inner.node));
    let serve_all = || local.into_iter().map(serve).collect::<Vec<_>>();
    let (served, mut replies) = regime_rpcs(inner, remote, deadline, serve_all);
    for (at, reply) in served {
        replies.insert(at, Ok(reply));
    }
    replies
}

/// Regime RPCs of encoded requests, all sent at once over one client before
/// `meanwhile` runs, then awaited by one shared `deadline`; replies in
/// request order. Each request goes out exactly once — none to a node
/// already declared dead ([`RtsError::NodeDown`]) or past the deadline, so a
/// fan-out whose early legs stalled skips the rest — and the wait re-checks
/// the failure detector every heartbeat, to stop waiting on a corpse as
/// soon as it is declared (no death is declared faster), or this node stops.
pub(super) fn regime_rpcs<B: AsRef<[u8]>, T>(
    inner: &Arc<Inner>,
    requests: Vec<(NodeId, B)>,
    deadline: Instant,
    meanwhile: impl FnOnce() -> T,
) -> (T, Vec<Result<RegimeReply, RtsError>>) {
    if requests.is_empty() {
        return (meanwhile(), Vec::new());
    }
    let (detector, mut multi) = (&inner.detector, MultiRpc::new(&inner.handle));
    let mut send = |dst, body: B| match () {
        _ if is_dead(detector, dst) => Err(RtsError::NodeDown(dst)),
        _ if Instant::now() >= deadline => Err(RtsError::Timeout),
        _ => multi
            .send(dst, ports::RTS_ADAPTIVE, body)
            .map_err(|err| RtsError::Communication(err.to_string())),
    };
    let sent: Vec<_> = requests
        .into_iter()
        .map(|(dst, body)| (dst, send(dst, body)))
        .collect();
    let done = meanwhile();
    let poll = inner.recovery.heartbeat_every;
    let mut wait = |dst, call| {
        let dead = || is_dead(detector, dst);
        let stopped = || inner.stopped.load(Ordering::SeqCst);
        let reply = multi
            .wait_abortable(call, deadline, poll, &|| dead() || stopped())
            .map_err(|err| match err {
                _ if stopped() => RtsError::Terminated,
                RpcError::Aborted => RtsError::NodeDown(dst),
                RpcError::Timeout if dead() => RtsError::NodeDown(dst),
                RpcError::Timeout => RtsError::Timeout,
                other => RtsError::Communication(other.to_string()),
            })?;
        RegimeReply::from_bytes(&reply)
            .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
    };
    let replies = sent.into_iter().map(|(dst, call)| wait(dst, call?));
    (done, replies.collect())
}
