//! Reassembly after a death: what the survivors hold of an object is
//! surveyed once, an orphaned slot — a replicated object's copy or a
//! partition — is re-owned by promoting its freshest mirror in place, and a
//! dead home's role is adopted by the lowest live node.

use super::*;

/// This node's home record of `object`. A dead creator's home role falls
/// to the lowest live node; if that is us, the object is re-assembled from
/// what the survivors hold on first contact.
pub(super) fn home_entry(
    inner: &Arc<Inner>,
    object: ObjectId,
) -> Result<Arc<HomeObject>, RtsError> {
    if inner.is_lost(object) {
        return Err(RtsError::ObjectLost(object));
    }
    if let Some(entry) = inner.homes.read().get(&object).cloned() {
        return Ok(entry);
    }
    // Only its adopter is home of an object it did not create.
    if object.creator_index() != inner.node.0 && current_home(inner, object) == inner.node {
        adopt_object(inner, object)
    } else {
        Err(RtsError::Communication(format!("not home of {object}")))
    }
}

/// The entries of `map` that belong to `object`, by partition — taken out
/// of the map: what they hold is locked next, a replica mutex can be held
/// across a push to its mirrors, and the map must not wait for that.
pub(super) fn of_object<P: Copy, T>(
    map: &RwLock<HashMap<(ObjectId, P), Arc<T>>>,
    object: ObjectId,
) -> Vec<(P, Arc<T>)> {
    let map = map.read();
    let entries = map.iter().filter(|((held, _), _)| *held == object);
    entries
        .map(|((_, p), entry)| (*p, Arc::clone(entry)))
        .collect()
}

/// What this node holds of `object`, for a recovering home — by key and
/// `(epoch, version)`, no state, and the readers each slot lists. Locked
/// mirrors report too: the lock only means an update's unlock phase is
/// outstanding, and the applied update may be the freshest state alive.
pub(super) fn holdings(inner: &Arc<Inner>, object: ObjectId) -> Holdings {
    let mut held = Holdings::default();
    for (partition, slot) in of_object(&inner.slots, object) {
        let replica = slot.replica.lock();
        held.type_name = replica.type_name().to_string();
        let regime = slot
            .partition
            .map_or(RegimeKind::Replicated, |_| RegimeKind::Sharded);
        let (version, readers) = (replica.version(), slot.mirrors.clone());
        held.slots
            .push((partition, slot.epoch, version, regime, readers));
    }
    for (partition, mirror) in of_object(&inner.mirrors, object) {
        let state = mirror.state.lock();
        if let Some(copy) = &state.copy {
            held.type_name = copy.type_name().to_string();
            held.mirrors.push((partition, state.epoch, state.version));
        }
    }
    held
}

/// Ask every survivor of `view` once — this node included — what it holds
/// of `object`: the first phase of every re-homing.
fn survey(inner: &Arc<Inner>, object: ObjectId, view: &ViewSnapshot) -> Vec<(NodeId, Holdings)> {
    let telemetry = inner.handle.telemetry();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 0);
    let started = Instant::now();
    let query = RegimeMsg::Holdings { object: object.0 };
    let held = view
        .alive
        .iter()
        .filter_map(|&node| {
            let deadline = Instant::now() + inner.policy.op_timeout;
            match regime_fan_out(inner, [(node, query.clone())], deadline).remove(0) {
                Ok(RegimeReply::Holdings(held)) => Some((node, *held)),
                _ => None,
            }
        })
        .collect();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 1);
    let coordinate = telemetry.registry().histogram("rts.recovery.coordinate_ns");
    coordinate.record(started.elapsed().as_nanos() as u64);
    held
}

/// Give every slot of `object` — the one copy of a replicated regime, each
/// partition of a sharded one — that has no owner in `owners` one among the
/// survivors: the node that serves it under `epoch` (an earlier promotion,
/// or a slot that outlived its home) or else, promoted, the one that holds
/// its freshest mirror of that epoch, a reader's or a keeper's. Returns the
/// owners and the readers the recovered table lists — the ones the
/// surviving slots list, or none once a slot was promoted: a promoted slot
/// pushes to none — or `None` when a slot left neither a slot nor a mirror,
/// and the object is lost. The second phase of a re-homing, written once for
/// the live home and for the node that adopts a dead one's role.
fn reown(
    inner: &Arc<Inner>,
    object: ObjectId,
    (epoch, regime): (u64, RegimeKind),
    owners: Vec<Option<u16>>,
    held: &[(NodeId, Holdings)],
    view: &ViewSnapshot,
) -> Option<(Vec<u16>, Vec<u16>)> {
    let started = Instant::now();
    let mut listed = Some(Vec::new());
    let owners: Vec<u16> = owners
        .into_iter()
        .enumerate()
        .map(|(partition, owner)| {
            let at = (partition as u32, epoch);
            if owner.is_some() {
                return owner;
            }
            let served = held.iter().find_map(|(node, h)| {
                let slot = h.slots.iter().find(|(p, e, ..)| (*p, *e) == at)?;
                Some((node, &slot.4))
            });
            if let Some((node, readers)) = served {
                if let Some(listed) = &mut listed {
                    listed.extend(readers.iter().filter(|r| view.contains(NodeId(**r))));
                }
                return Some(node.0);
            }
            // Or of the next, a re-stamp an undone switch could not take back.
            let key = (regime == RegimeKind::Sharded).then_some(at.0);
            let next = |e: &u64| (epoch..=epoch + 1).contains(e);
            let holders = held.iter().filter_map(|(node, h)| {
                let kept = h.mirrors.iter().find(|(p, e, _)| *p == key && next(e));
                kept.map(|(_, e, version)| (*e == epoch, *version, *node))
            });
            let (_, _, holder) = holders.max()?;
            let promote = RegimeMsg::Promote {
                object: object.0,
                epoch,
                partition: key,
            };
            let deadline = Instant::now() + inner.policy.op_timeout;
            let promoted = regime_fan_out(inner, [(holder, promote)], deadline);
            listed = None;
            matches!(promoted[..], [Ok(RegimeReply::Ack)]).then_some(holder.0)
        })
        .collect::<Option<_>>()?;
    let mut listed = listed.unwrap_or_default();
    // Sabotaged: every surviving holder is listed, unprimed.
    if sabotage::on(&sabotage::REHOME_KEEPS_STALE_COPIES) {
        let holders = held.iter().filter(|(_, h)| !h.mirrors.is_empty());
        listed.extend(holders.map(|(node, _)| node.0));
    }
    listed.sort_unstable();
    listed.dedup();
    listed.retain(|node| !owners.contains(node));
    let telemetry = inner.handle.telemetry();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 2);
    let rehome = telemetry.registry().histogram("rts.recovery.rehome_ns");
    rehome.record(started.elapsed().as_nanos() as u64);
    Some((owners, listed))
}

/// Give the objects this node is home of whose owners `view` no longer
/// contains live ones again. Run on every view change.
pub(super) fn recover_home_objects(inner: &Arc<Inner>, view: &ViewSnapshot) {
    let homes: Vec<_> = inner
        .homes
        .read()
        .iter()
        .map(|(object, entry)| (*object, Arc::clone(entry)))
        .collect();
    for (object, entry) in homes {
        let _switch = entry.switch.lock();
        recover_object(inner, object, &entry, view);
    }
}

/// [`recover_home_objects`] for one object; the caller holds its switch
/// lock. Orphaned slots are re-owned ([`reown`]) and keep their epoch: a
/// client learns of the new owner because it distrusts any table that names
/// a dead one. The table lists no readers then, until the next evaluation
/// places them again.
pub(super) fn recover_object(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &HomeObject,
    view: &ViewSnapshot,
) {
    let table = Arc::clone(&entry.table.lock());
    let live = |owner: &u16| view.contains(NodeId(*owner));
    if table.owners.iter().all(live) {
        return;
    }
    let held = survey(inner, object, view);
    let owners = table.owners.iter().map(|o| live(o).then_some(*o)).collect();
    let regime = (table.epoch, table.regime);
    let Some((owners, mirrors)) = reown(inner, object, regime, owners, &held, view) else {
        inner.lost.write().insert(object);
        return;
    };
    *entry.table.lock() = Arc::new(RegimeTable {
        owners,
        mirrors,
        ..RegimeTable::clone(&table)
    });
}

/// Take over a dead creator's object on this node (the adopter) from what
/// the survivors hold of it. Its newest epoch decides, and every slot of it
/// is re-owned ([`reown`]) where it is and keeps serving under that epoch: a
/// slot that outlived the home keeps its owner and the readers it lists —
/// nothing is promoted, no write fenced — and one that died with it is
/// promoted from its freshest mirror. An object with a slot that left
/// neither — a partition whose owner and keeper both died — is lost.
pub(super) fn adopt_object(
    inner: &Arc<Inner>,
    object: ObjectId,
) -> Result<Arc<HomeObject>, RtsError> {
    let _adoption = inner.adoption.lock();
    if let Some(entry) = inner.homes.read().get(&object).cloned() {
        return Ok(entry);
    }
    if inner.is_lost(object) {
        return Err(RtsError::ObjectLost(object));
    }
    let Some(detector) = &inner.detector else {
        return Err(RtsError::Communication("no failure detector".into()));
    };
    let view = detector.view();
    let held = survey(inner, object, &view);
    let lost = || {
        inner.lost.write().insert(object);
        RtsError::ObjectLost(object)
    };
    // The newest epoch any survivor holds a part of — a slot, which names
    // its regime, or a mirror, whose key does.
    let parts = held.iter().flat_map(|(_, h)| {
        let slots = h.slots.iter().map(|slot| (slot.1, slot.3));
        let regime = |p: Option<u32>| p.map_or(RegimeKind::Replicated, |_| RegimeKind::Sharded);
        let mirrors = h.mirrors.iter().map(move |m| (m.1, regime(m.0)));
        let parts = slots.chain(mirrors);
        parts.map(move |(epoch, regime)| (epoch, regime, h))
    });
    let (epoch, regime, h) = parts.max_by_key(|(epoch, ..)| *epoch).ok_or_else(lost)?;
    // Every node runs the same policy, so how many partitions a
    // sharded-regime object has is known without the dead home.
    let slots = match inner.registry.shard_logic(&h.type_name) {
        Some(_) if regime == RegimeKind::Sharded => inner.policy.partitions.max(1) as usize,
        _ => 1,
    };
    let owners = vec![None; slots];
    let reowned = reown(inner, object, (epoch, regime), owners, &held, &view);
    let (owners, mirrors) = reowned.ok_or_else(lost)?;
    let table = RegimeTable {
        object: object.0,
        type_name: h.type_name.clone(),
        epoch,
        regime,
        owners,
        mirrors,
    };
    let entry = Arc::new(HomeObject {
        table: Mutex::new(Arc::new(table)),
        switch: Mutex::new(()),
        usage: Mutex::new(UsageAggregate::default()),
    });
    inner.homes.write().insert(object, Arc::clone(&entry));
    Ok(entry)
}
