//! Reassembly after a death: what the survivors hold of an object is
//! surveyed once, an orphaned partition is re-owned by promoting its
//! freshest mirror in place, a replicated copy is regenerated from its
//! freshest mirror at the home, and a dead home's role is adopted by the
//! lowest live node.

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

/// What this node holds of `object`, for a recovering home. Locked mirrors
/// report too: the lock only means an update's unlock phase is outstanding,
/// and the applied update may be the freshest state alive.
pub(super) fn holdings(inner: &Arc<Inner>, object: ObjectId) -> Holdings {
    let mut held = Holdings::default();
    for (partition, slot) in of_object(&inner.slots, object) {
        let replica = slot.replica.lock();
        held.type_name = replica.type_name().to_string();
        let regime = slot
            .partition
            .map_or(RegimeKind::Replicated, |_| RegimeKind::Sharded);
        let part = (partition, slot.epoch, replica.version(), regime);
        held.slots.push(part);
    }
    for (partition, mirror) in of_object(&inner.mirrors, object) {
        let state = mirror.state.lock();
        let Some(copy) = &state.copy else {
            continue;
        };
        held.type_name = copy.type_name().to_string();
        match partition {
            Some(partition) => held.keepers.push((partition, state.epoch, state.version)),
            None => {
                held.mirror = Some((state.epoch, state.version, copy.state_bytes()));
                // The window pairs with exactly this state; an adopter must
                // never combine it with another mirror's snapshot.
                held.dedup = state.dedup.clone();
            }
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

/// Give every partition of sharded-regime `object` that has no owner in
/// `owners` one among the survivors: the node that holds its slot of
/// `epoch` (an earlier promotion) or else, promoted, the one that keeps its
/// freshest mirror of that epoch. `None` when a partition left neither —
/// the object is lost. The second phase of a re-homing, written once for
/// the live home and for the node that adopts a dead one's role.
fn reown(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    owners: Vec<Option<u16>>,
    held: &[(NodeId, Holdings)],
    view: &ViewSnapshot,
) -> Option<Vec<u16>> {
    let started = Instant::now();
    let owners = owners
        .into_iter()
        .enumerate()
        .map(|(partition, owner)| {
            let at = (partition as u32, epoch);
            if owner.is_some() {
                return owner;
            }
            let serves = |h: &Holdings| h.slots.iter().any(|(p, e, ..)| (*p, *e) == at);
            if let Some((node, _)) = held.iter().find(|(_, h)| serves(h)) {
                return Some(node.0);
            }
            // Or of the next, a re-stamp an undone switch could not take back.
            let keepers = held.iter().filter_map(|(node, h)| {
                let next = |e: &u64| (epoch..=epoch + 1).contains(e);
                let kept = h.keepers.iter().find(|(p, e, _)| *p == at.0 && next(e));
                kept.map(|(_, e, version)| (*e == epoch, *version, *node))
            });
            let (_, _, holder) = keepers.max()?;
            let promote = RegimeMsg::Promote {
                object: object.0,
                epoch,
                partition: at.0,
            };
            let deadline = Instant::now() + inner.policy.op_timeout;
            let promoted = regime_fan_out(inner, [(holder, promote)], deadline);
            matches!(promoted[..], [Ok(RegimeReply::Ack)]).then_some(holder.0)
        })
        .collect();
    let telemetry = inner.handle.telemetry();
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 2);
    let rehome = telemetry.registry().histogram("rts.recovery.rehome_ns");
    rehome.record(started.elapsed().as_nanos() as u64);
    owners
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
/// lock. Orphaned partitions are re-owned and keep their epoch: a client
/// learns of the new owner because it distrusts any table that names a dead
/// one. The table lists no readers then — a promoted slot pushes to none —
/// until the next evaluation places them again. A replicated regime's one
/// copy is regenerated here, at the home, from the freshest mirror of the
/// table's epoch.
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
    let recovered = if table.regime == RegimeKind::Sharded {
        let owners = table.owners.iter().map(|o| live(o).then_some(*o)).collect();
        let owners = reown(inner, object, table.epoch, owners, &held, view);
        owners.map(|owners| RegimeTable {
            owners,
            mirrors: Vec::new(),
            ..RegimeTable::clone(&table)
        })
    } else {
        let mirror = freshest_mirror(&held, Some(table.epoch));
        mirror.and_then(|(epoch, mirror)| regenerate(inner, object, epoch, mirror).ok())
    };
    let Some(recovered) = recovered else {
        inner.lost.write().insert(object);
        return;
    };
    let regenerated = recovered.epoch != table.epoch;
    *entry.table.lock() = Arc::new(recovered);
    if regenerated {
        let alive = view.alive.iter().copied();
        drop_copies(inner, (object, None), table.epoch, None, alive);
    }
}

/// The freshest read mirror the survivors hold — of `epoch` alone, when the
/// table that lists it is known — by `(epoch, version)`; a locked one counts
/// like any other. Returns its epoch and its holder's report.
fn freshest_mirror(held: &[(NodeId, Holdings)], epoch: Option<u64>) -> Option<(u64, &Holdings)> {
    let mirrors = held.iter().filter_map(|(_, h)| {
        let (held_epoch, seq, _) = h.mirror.as_ref()?;
        let wanted = epoch.is_none_or(|epoch| epoch == *held_epoch);
        wanted.then_some(((*held_epoch, *seq), h))
    });
    let freshest = mirrors.max_by_key(|(rank, _)| *rank);
    freshest.map(|((epoch, _), h)| (epoch, h))
}

/// Regenerate a replicated-regime object whose owner died from `mirror`,
/// the freshest one of `epoch`, into a single copy on this node — its home,
/// or the node adopting that role — under `epoch + 1`, and return the table
/// to publish: a copy without mirrors, which the next evaluation places. The
/// report's dedup window pairs with exactly that mirror's snapshot, so it
/// is taken whole and never merged with another mirror's.
fn regenerate(
    inner: &Arc<Inner>,
    object: ObjectId,
    epoch: u64,
    mirror: &Holdings,
) -> Result<RegimeTable, RtsError> {
    let (_, _, state) = mirror.mirror.as_ref().expect("ranked by its mirror");
    let key = (object, 0);
    let (name, dedup) = (&mirror.type_name, mirror.dedup.clone());
    // Under the next epoch, which nothing the dead owner's regime left on
    // the survivors answers to. (Sabotaged: under the epoch it had, every
    // other node listed, so whoever kept a copy goes on reading it.)
    let (epoch, mirrors) = match sabotage::on(&sabotage::REHOME_KEEPS_STALE_COPIES) {
        false => (epoch + 1, Vec::new()),
        true => {
            let others = (0..inner.num_nodes as u16).filter(|node| *node != inner.node.0);
            (epoch, others.collect())
        }
    };
    let placed = (RegimeKind::Replicated, &[][..]);
    let replica = inner.registry.instantiate(name, state)?;
    install_slot(inner, key, epoch, Mutex::new(replica), dedup, placed);
    if inner.leases_enabled() {
        fence_writes(inner, key);
    }
    Ok(RegimeTable {
        object: object.0,
        type_name: mirror.type_name.clone(),
        epoch,
        regime: RegimeKind::Replicated,
        owners: vec![inner.node.0],
        mirrors,
    })
}

/// Take over a dead creator's object on this node (the adopter) from what
/// the survivors hold of it. Its newest epoch decides: partitions (slots
/// and kept mirrors of a sharded regime) are re-owned where they are and keep
/// serving under that epoch, and so does a replicated regime's one copy
/// when its owner is among the survivors; when only read mirrors are, the
/// freshest is regenerated into a single copy here under a fresh epoch.
/// An object that left none of these — a copy still at the dead home that
/// nobody had used enough to give it a mirror, a partition whose owner and
/// keeper both died — is lost.
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
    // its regime, or a partition's kept mirror — against the freshest
    // mirror of a whole copy.
    let parts = held.iter().flat_map(|(node, h)| {
        let slots = h.slots.iter().map(|slot| (slot.1, slot.3));
        let kept = h.keepers.iter().map(|part| (part.1, RegimeKind::Sharded));
        let parts = slots.chain(kept);
        parts.map(move |(epoch, regime)| (epoch, regime, node.0, h))
    });
    let newest = parts.max_by_key(|(epoch, ..)| *epoch);
    let mirror = freshest_mirror(&held, None);
    let newest = newest.filter(|(epoch, ..)| mirror.is_none_or(|(newer, _)| *epoch >= newer));
    // The table to publish and, adopted from a mirror, the epoch to retire.
    let (table, retired) = match (newest, mirror) {
        (Some((epoch, regime, owner, h)), _) => {
            let (owners, mirrors) = if regime == RegimeKind::Sharded {
                // Every node runs the same policy, so how many partitions a
                // sharded-regime object has is known without the dead home.
                let partitions = match inner.registry.shard_logic(&h.type_name) {
                    Some(_) => inner.policy.partitions.max(1) as usize,
                    None => 1,
                };
                let owners = reown(inner, object, epoch, vec![None; partitions], &held, &view);
                (owners.ok_or_else(lost)?, Vec::new())
            } else {
                // One copy, and its owner outlived the home: it keeps
                // serving where it is under the epoch it has — nothing is
                // regenerated, no write fenced — and its mirrors are the
                // survivors that hold one.
                let mirrors = held.iter().filter(|(_, h)| {
                    let mirror = h.mirror.as_ref();
                    mirror.is_some_and(|(held_epoch, ..)| *held_epoch == epoch)
                });
                (vec![owner], mirrors.map(|(node, _)| node.0).collect())
            };
            let table = RegimeTable {
                object: object.0,
                type_name: h.type_name.clone(),
                epoch,
                regime,
                owners,
                mirrors,
            };
            (table, None)
        }
        (None, Some((epoch, h))) => {
            let table = regenerate(inner, object, epoch, h)?;
            let retired = (table.epoch != epoch).then_some(epoch);
            (table, retired)
        }
        _ => return Err(lost()),
    };
    let entry = Arc::new(HomeObject {
        table: Mutex::new(Arc::new(table)),
        switch: Mutex::new(()),
        usage: Mutex::new(UsageAggregate::default()),
    });
    inner.homes.write().insert(object, Arc::clone(&entry));
    if let Some(epoch) = retired {
        let alive = view.alive.iter().copied();
        drop_copies(inner, (object, None), epoch, None, alive);
    }
    Ok(entry)
}
