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
                let window = inner.policy.window;
                let due = entry.usage.lock().report(caller.0, reads, writes, window);
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
            if !served(regime) {
                return RegimeReply::Error(format!("unknown regime {regime:?}"));
            }
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
            partition,
            type_name,
            state,
            seq,
            dedup,
            lease,
        } => {
            let at = (ObjectId(object), partition);
            match install_mirror(inner, at, epoch, &type_name, &state, seq, dedup, lease) {
                Ok(_) => RegimeReply::Ack,
                Err(err) => RegimeReply::Error(err.to_string()),
            }
        }
        RegimeMsg::FetchMirror {
            object,
            epoch,
            have,
        } => serve_fetch_mirror(inner, ObjectId(object), epoch, have, caller),
        RegimeMsg::DropCopies {
            object,
            epoch,
            written: Some(version),
        } => {
            // A write invalidates the copy. The version is remembered even
            // when no copy is installed yet: an invalidation that overtakes
            // the fetch reply it races must still refuse that older
            // snapshot, or the late install would serve stale reads.
            let mirror = mirror_entry(inner, (ObjectId(object), None));
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
            written: None,
        } => {
            // A reader's mirror and the keepers of partitions alike: left
            // behind, a retired sharded regime's would be all an adopter
            // finds of an object that has since gone to a single copy.
            for (_, mirror) in of_object(&inner.mirrors, ObjectId(object)) {
                let mut state = mirror.state.lock();
                if state.epoch <= epoch {
                    state.discard();
                    // A switch that is undone installs this epoch's copy
                    // again, and its versions start over.
                    (state.version, state.seen) = (0, 0);
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
        RegimeMsg::Unlock { object, epoch, seq } => {
            let mirror = inner.mirrors.read().get(&(ObjectId(object), None)).cloned();
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
        RegimeMsg::Promote {
            object,
            epoch,
            partition,
        } => promote(inner, (ObjectId(object), partition), epoch),
    }
}

/// Execute an `All`-routed operation at the home, under the switch lock,
/// so its per-partition shares can never interleave with a regime change.
pub(super) fn serve_op_all(
    inner: &Arc<Inner>,
    object: ObjectId,
    op: &[u8],
    caller: NodeId,
) -> RegimeReply {
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

/// Server-side regime RPC (switch and fan-out traffic), bounded by the
/// policy deadline.
pub(super) fn regime_rpc(
    inner: &Arc<Inner>,
    dst: NodeId,
    msg: &RegimeMsg,
) -> Result<RegimeReply, RtsError> {
    regime_rpc_deadline(inner, dst, msg, Instant::now() + inner.policy.op_timeout)
}

/// Server-side regime RPC bounded by an explicit shared deadline: a
/// fan-out whose early legs stall (crashed peer) skips the remaining
/// legs instead of multiplying the stall.
pub(super) fn regime_rpc_deadline(
    inner: &Arc<Inner>,
    dst: NodeId,
    msg: &RegimeMsg,
    deadline: Instant,
) -> Result<RegimeReply, RtsError> {
    regime_rpc_raw(inner, dst, &msg.to_bytes(), deadline)
}

/// Like [`regime_rpc_deadline`] but takes the already-encoded request, so
/// fan-outs (update pushes) encode once and ship the same bytes.
pub(super) fn regime_rpc_raw(
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
