//! Placement: the home closes a usage window, decides regime and owners,
//! and carries the change out — drain, merge, install, publish — undoing a
//! drain when an install fails.

use super::*;

/// Close a usage window at the home — two windows of reports came in, or a
/// proposal asks — and switch the regime if the decayed evidence says the
/// other one fits, or the same one over different nodes: both place by use,
/// and the switch returns early unless something moved. Under a pin the
/// target is the pinned regime, so an evaluation only re-places. No evidence
/// at all keeps what there is.
pub(super) fn evaluate_object(inner: &Arc<Inner>, object: ObjectId, entry: &Arc<HomeObject>) {
    let (reads, writes) = {
        let mut usage = entry.usage.lock();
        let totals = usage.totals();
        usage.end_window();
        totals
    };
    if reads + writes == 0 {
        return;
    }
    let (current, type_name) = {
        let table = entry.table.lock();
        (table.regime, table.type_name.clone())
    };
    let target = inner.policy.pin.unwrap_or_else(|| {
        let shardable = inner.registry.shard_logic(&type_name).is_some();
        let nodes = inner.num_nodes;
        pick_regime(reads, writes, shardable, nodes, current, &inner.policy)
    });
    // A failed switch (crashed peer) leaves the old regime in place; the
    // next evaluation window simply proposes it again.
    let _ = switch_regime(inner, object, entry, target, None);
}

/// Owners of the partitions of sharded-regime `object`, pinned or not, by
/// use: spread evenly over the nodes `usage` says access it — all of them
/// when it says nothing, as for an object just created. An owner in `owned`
/// that has been quiet for less than a regime lease — the time scale on
/// which nodes learn of a placement at all — keeps its partitions.
pub(super) fn placement(
    inner: &Inner,
    object: ObjectId,
    usage: &UsageAggregate,
    owned: &[u16],
) -> Vec<u16> {
    let (nodes, grace) = (inner.num_nodes, inner.policy.regime_lease);
    let users = usage.users(Count::Accesses, nodes, owned, grace);
    (0..inner.policy.partitions.max(1))
        .map(|partition| place(object, partition, &users))
        .collect()
}

/// Execute a regime switch: drain the old regime's replicas, merge their
/// states, install the new regime under the next epoch, publish the table.
/// The only path that changes an owner or a mirror set of a live object:
/// moving a sharded object's partitions to the nodes that use it now — or
/// one of them where `moved` says, by hand — and a replicated object's copy
/// to a node that writes it, its mirrors to the ones that read it, is a
/// switch to the same regime (what stays is re-installed where it was —
/// handing single partitions or mirrors over would be a second mechanism
/// for a state this small).
pub(super) fn switch_regime(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &Arc<HomeObject>,
    target: RegimeKind,
    moved: Option<(u32, NodeId)>,
) -> Result<(), RtsError> {
    let _switch = entry.switch.lock();
    let old = RegimeTable::clone(&entry.table.lock());
    let logic = inner.registry.shard_logic(&old.type_name);
    let owned: &[u16] = match old.regime {
        RegimeKind::Sharded => &old.owners,
        _ => &[],
    };
    let (owners, mirrors): (Vec<u16>, Vec<u16>) = match (target, moved) {
        (RegimeKind::Sharded, Some((partition, dst))) => {
            let mut owners = owned.to_vec();
            let owner = owners.get_mut(partition as usize).ok_or_else(|| {
                RtsError::Communication(format!("no partition {partition} of {object}"))
            })?;
            *owner = dst.0;
            (owners, Vec::new())
        }
        (RegimeKind::Sharded, None) if logic.is_none() => return Ok(()),
        (RegimeKind::Sharded, None) => (
            placement(inner, object, &entry.usage.lock(), owned),
            Vec::new(),
        ),
        _ => {
            // Entering the regime, the copy is the home's and has no
            // mirrors: where the rule leaves it when nothing is known.
            let (owner, named) = match old.regime {
                RegimeKind::Sharded => (inner.node.0, &[][..]),
                _ => (old.owners[0], &old.mirrors[..]),
            };
            let (nodes, grace) = (inner.num_nodes, inner.policy.regime_lease);
            let (owner, mut mirrors) = entry.usage.lock().replicate(nodes, owner, named, grace);
            // A copy nobody reads would live on its one writer alone, and
            // die with it: where a dead owner's copy is regenerated it
            // keeps one mirror to do it from — at its home once it has left
            // it, and while it is there on the next live node, where a
            // sharded slot's keeper goes.
            if inner.recovery.rehome && mirrors.is_empty() {
                let keeper = match owner == inner.node.0 {
                    true => backup_target(inner),
                    false => Some(inner.node),
                };
                mirrors.extend(keeper.map(|node| node.0));
            }
            (vec![owner], mirrors)
        }
    };
    if old.regime == target && old.owners == owners && old.mirrors == mirrors {
        return Ok(());
    }
    // Every owner has to hand its replica over, so one already known dead
    // fails the switch before anything is withdrawn: once a dead owner's
    // evidence has decayed every evaluation asks for a re-placement, which
    // must not drain and re-install the surviving partitions each time.
    if let Some(&dead) = old
        .owners
        .iter()
        .find(|&&owner| is_dead(&inner.detector, NodeId(owner)))
    {
        return Err(RtsError::NodeDown(NodeId(dead)));
    }

    // Phase 1: drain every authoritative replica of the old regime. Each
    // drained state travels with the dedup window that was recorded
    // against exactly that state, and a replicated regime's owner retires
    // its mirrors and their leases before it answers.
    let mut states: Vec<(Vec<u8>, DedupWindow)> = Vec::with_capacity(old.owners.len());
    for (partition, &owner) in old.owners.iter().enumerate() {
        let partition = partition as u32;
        let drained = if NodeId(owner) == inner.node {
            drain_local(inner, object, partition, old.epoch)
                .ok_or_else(|| RtsError::Communication(format!("slot {partition} already gone")))
        } else {
            match regime_rpc(
                inner,
                NodeId(owner),
                &RegimeMsg::Drain {
                    object: object.0,
                    epoch: old.epoch,
                    partition,
                },
            ) {
                Ok(RegimeReply::State { state, dedup }) => Ok((state, dedup)),
                Ok(other) => Err(RtsError::Communication(format!(
                    "unexpected Drain reply {other:?}"
                ))),
                Err(err) => Err(err),
            }
        };
        match drained {
            Ok(state) => states.push(state),
            Err(err) => {
                // Reinstall what was drained under the old epoch so the old
                // regime keeps serving, and report the failed switch.
                undo_drain(inner, &old, &states);
                return Err(err);
            }
        }
    }

    // The keepers of a sharded regime's slots are retired once every drain
    // has succeeded, this node's included — not by each drained owner: a
    // drop is an object's, a keeper node holds several partitions, and a
    // switch undone halfway must find the undrained ones still kept. A node
    // whose drop was lost keeps a mirror that is never promoted while the
    // object's newer epoch leaves a trace among the survivors.
    if old.regime == RegimeKind::Sharded && inner.recovery.enabled {
        let everyone = (0..inner.num_nodes).map(NodeId::from);
        drop_copies(inner, object, old.epoch, None, everyone);
    }

    // Phase 2: merge the drained states into one whole-object state
    // (`states` stays alive so any later failure can re-install the old
    // regime — a drained object must never be lost). The dedup windows
    // merge alongside: lookups are by stamp, so an entry recorded at one
    // partition is simply inert at another.
    let mut dedup = DedupWindow::new();
    for (_, window) in &states {
        dedup.merge(window);
    }
    let full = if states.len() == 1 {
        states[0].0.clone()
    } else {
        let logic = logic
            .as_ref()
            .expect("multi-partition regime implies shard logic");
        match logic.merge_states(states.iter().map(|(state, _)| state.clone()).collect()) {
            Ok(full) => full,
            Err(err) => {
                undo_drain(inner, &old, &states);
                return Err(err.into());
            }
        }
    };

    // Phase 3: install the new regime. Any failure here re-installs the
    // old regime from the drained states, so evaluate_object's invariant —
    // a failed switch leaves the old regime in place — holds on every
    // error path.
    let new = RegimeTable {
        epoch: old.epoch + 1,
        regime: target,
        owners,
        mirrors,
        ..old.clone()
    };
    let new = match install_new_regime(inner, &old, new, &full, &dedup) {
        Ok(new) => new,
        Err(err) => {
            undo_drain(inner, &old, &states);
            return Err(err);
        }
    };

    // Phase 4: publish.
    let regime = new.regime;
    *entry.table.lock() = Arc::new(new);
    inner.stats.regime_switches.inc();
    if regime == old.regime {
        inner.replacements.inc();
    }
    inner.handle.telemetry().record_traced(
        inner.node.0,
        FlightKind::RegimeSwitch,
        object.0,
        regime as u64,
    );
    Ok(())
}

/// Install the replicas of `new` — the target regime at its owners, under
/// the next epoch — and return the table to publish. Remote install
/// failures fall back to a replicated copy at home, without mirrors, under a
/// further epoch — the merged state is in hand, so the fallback cannot fail
/// remotely — except
/// when the regime was only being re-placed: its old owners were serving a
/// moment ago and take their replicas back. An error return means nothing
/// usable was installed and the caller re-installs the old regime.
fn install_new_regime(
    inner: &Arc<Inner>,
    old: &RegimeTable,
    new: RegimeTable,
    full: &[u8],
    dedup: &DedupWindow,
) -> Result<RegimeTable, RtsError> {
    match install_slots(inner, &new, full, dedup) {
        Ok(()) => Ok(new),
        Err(_) if old.regime != new.regime => {
            let fallback = RegimeTable {
                epoch: new.epoch + 1,
                regime: RegimeKind::Replicated,
                owners: vec![inner.node.0],
                mirrors: Vec::new(),
                ..new
            };
            install_slots(inner, &fallback, full, dedup)?;
            Ok(fallback)
        }
        Err(err) => Err(err),
    }
}

/// Put drained partitions back at their old owners (failed switch), so the
/// old regime keeps serving without any lost state. Each partition's dedup
/// window goes back with the state it was drained with.
fn undo_drain(inner: &Arc<Inner>, old: &RegimeTable, states: &[(Vec<u8>, DedupWindow)]) {
    for ((partition, &owner), (state, dedup)) in (0u32..).zip(&old.owners).zip(states) {
        let (state, dedup) = (state.clone(), dedup.clone());
        let _ = install_at(inner, NodeId(owner), old, partition, state, dedup);
    }
}

/// Withdraw a locally-served slot for a regime switch and return its
/// serialized state plus the dedup window that describes exactly that
/// state. Returns `None` when the slot is absent or belongs to a
/// different epoch (duplicate or late drain).
///
/// The mirrors of a replicated-regime slot are retired with it, by the node
/// that granted their leases, and *after* the withdrawal: a racing
/// `FetchMirror` is answered `StaleRegime` and cannot resurrect one;
/// existing mirrors serve the last committed state until their drop
/// arrives, and no write can commit anywhere until the new regime
/// publishes, so those reads stay consistent (best-effort under crashes;
/// the regime lease bounds the window for a node whose drop was lost, and
/// its read lease is waited out here).
pub(super) fn drain_local(
    inner: &Arc<Inner>,
    object: ObjectId,
    partition: u32,
    epoch: u64,
) -> Option<(Vec<u8>, DedupWindow)> {
    let slot = {
        let mut slots = inner.slots.write();
        match slots.get(&(object, partition)) {
            Some(slot) if slot.epoch == epoch => slots.remove(&(object, partition)),
            _ => None,
        }
    }?;
    // Mark the slot withdrawn in the same critical section that snapshots
    // the state: an operation that cloned the slot out of `slots` before
    // the removal above will acquire this mutex later, see the mark and
    // answer StaleRegime instead of applying to the orphaned replica. The
    // dedup window is cloned under the same lock so it pairs with exactly
    // this snapshot.
    let drained = {
        let replica = slot.replica.lock();
        slot.withdrawn.store(true, Ordering::Relaxed);
        (replica.state_bytes(), slot.dedup.lock().clone())
    };
    inner.stats.copies_dropped.inc();
    let unreached = std::mem::take(&mut slot.leases.lock().unreached);
    let mirrors = || slot.mirrors.iter().map(|&mirror| NodeId(mirror));
    let answering = mirrors().filter(|node| !unreached.contains(&node.0));
    let dropped = drop_copies(inner, object, epoch, None, answering);
    settle_grants(inner, &slot, mirrors(), &dropped);
    Some(drained)
}

/// Install the authoritative slots `table` names, cut from the
/// whole-object state `full`: one copy at its owner under the replicated
/// regime, one partition per owner under the sharded regime (a
/// type that does not shard is one partition). When an owner cannot take
/// its partition the partial install is discarded — local slots directly,
/// remote ones with a best-effort drain; the epoch is never published, so
/// an unreachable node's leftover slot can take no operation — and the
/// error returned.
pub(super) fn install_slots(
    inner: &Arc<Inner>,
    table: &RegimeTable,
    full: &[u8],
    dedup: &DedupWindow,
) -> Result<(), RtsError> {
    let object = table_object(table);
    let states = match inner.registry.shard_logic(&table.type_name) {
        Some(logic) if table.regime == RegimeKind::Sharded => {
            logic.split_state(full, table.partitions())?
        }
        _ => vec![full.to_vec()],
    };
    let mut installed: Vec<(u32, NodeId)> = Vec::new();
    let mut failure = None;
    for ((partition, &owner), state) in (0u32..).zip(&table.owners).zip(states) {
        let owner = NodeId(owner);
        let done = install_at(inner, owner, table, partition, state, dedup.clone());
        match done {
            Ok(()) => installed.push((partition, owner)),
            Err(err) => {
                failure = Some(err);
                break;
            }
        }
    }
    let Some(failure) = failure else {
        return Ok(());
    };
    for (partition, owner) in installed {
        if owner == inner.node {
            let mut slots = inner.slots.write();
            if slots
                .get(&(object, partition))
                .is_some_and(|slot| slot.epoch == table.epoch)
            {
                slots.remove(&(object, partition));
            }
        } else {
            let drain = RegimeMsg::Drain {
                object: object.0,
                epoch: table.epoch,
                partition,
            };
            let _ = regime_rpc(inner, owner, &drain);
        }
    }
    Err(failure)
}

/// Install partition `partition` of `table` — its state, the dedup window
/// recorded against exactly that state, the regime and the mirrors the
/// table names — at `owner`, this node or another.
fn install_at(
    inner: &Arc<Inner>,
    owner: NodeId,
    table: &RegimeTable,
    partition: u32,
    state: Vec<u8>,
    dedup: DedupWindow,
) -> Result<(), RtsError> {
    let object = table_object(table);
    if owner == inner.node {
        let key = (object, partition);
        let placed = (table.regime, &table.mirrors[..]);
        let name = &table.type_name;
        return install_slot(inner, key, table.epoch, name, &state, dedup, placed);
    }
    let install = RegimeMsg::Install {
        object: object.0,
        epoch: table.epoch,
        partition,
        type_name: table.type_name.clone(),
        state,
        dedup,
        regime: table.regime,
        mirrors: table.mirrors.clone(),
    };
    match regime_rpc(inner, owner, &install)? {
        RegimeReply::Ack => Ok(()),
        other => Err(RtsError::Communication(format!(
            "{owner} refused partition {partition} of {object}: {other:?}"
        ))),
    }
}
