//! Placement: the home closes a usage window, prices where the object could
//! live and carries a move out — drain, merge, install, publish — undoing a
//! drain when an install fails.

use super::*;

/// Close a usage window at the home — two windows of reports came in, or a
/// proposal asks — and move the object where the evidence says it costs
/// least ([`UsageAggregate::choose`]; a proposal moves it at once), in
/// another regime or over other nodes in the same one. Priced are each
/// regime's [`rule`] placement (the pinned one's alone; unpinned, partitions
/// only where three or more nodes write: with two a copy at the busier one
/// costs no more, in messages or at the busiest node) and the current
/// placement while it may stay (unpinned, or where the pin's rule keeps its
/// owners), each also with one mirror fewer. No evidence at all keeps what
/// there is.
pub(super) fn evaluate_object(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &HomeObject,
    proposed: bool,
) {
    let _switch = entry.switch.lock();
    let old = RegimeTable::clone(&entry.table.lock());
    let mut usage = entry.usage.lock();
    let (pin, nodes, grace) = (inner.policy.pin, inner.num_nodes, inner.policy.regime_lease);
    if usage.totals() == (0, 0) {
        return usage.end_window();
    }
    let spread = pin.is_some() || usage.users(Count::Writes, nodes, &[], grace).len() >= 3;
    let both = [RegimeKind::Replicated, RegimeKind::Sharded];
    let regimes = pin.as_ref().map_or(&both[..], std::slice::from_ref);
    let mut ruled = Vec::new();
    for regime in regimes
        .iter()
        .filter(|r| spread || **r == RegimeKind::Replicated)
    {
        ruled.extend(rule(inner, object, &usage, &old, *regime));
    }
    let keeps = |placed: &RegimeTable| (placed.regime, &placed.owners) == (old.regime, &old.owners);
    if pin.is_none() || ruled.iter().any(keeps) {
        ruled.insert(0, old.clone());
    }
    let mut candidates = ruled.clone();
    for placed in &ruled {
        for at in 0..placed.mirrors.len() {
            let mut fewer = placed.clone();
            fewer.mirrors.remove(at);
            candidates.push(kept(inner, fewer));
        }
    }
    let write = inner.policy.write;
    let chosen = usage.choose(&old, &candidates, inner.node.0, write, proposed);
    usage.end_window();
    drop(usage);
    // A failed switch (crashed peer) leaves the old placement in place; the
    // next evaluation window simply proposes it again.
    if let Some(placed) = chosen {
        let _ = carry_out(inner, object, entry, &old, placed);
    }
}

/// Where the membership rules put `object`, placed as `old`, in `regime`:
/// a sharded regime's partitions on the nodes that use it ([`placement`]),
/// mirrored on the ones that read it; a replicated regime's copy on a node
/// that writes it — where it is, or entering the regime at the home, while
/// the home writes — and its mirrors on the ones that read it. `None` for
/// the sharded regime of a type that does not shard.
pub(super) fn rule(
    inner: &Inner,
    object: ObjectId,
    usage: &UsageAggregate,
    old: &RegimeTable,
    regime: RegimeKind,
) -> Option<RegimeTable> {
    let (nodes, grace) = (inner.num_nodes, inner.policy.regime_lease);
    let same = old.regime == regime;
    let listed = if same { &old.mirrors[..] } else { &[] };
    let (owners, mirrors) = match regime {
        RegimeKind::Sharded => {
            inner.registry.shard_logic(&old.type_name)?;
            let owned = if same { &old.owners[..] } else { &[] };
            let mirrors = usage.users(Count::Reads, nodes, listed, grace);
            (placement(inner, object, usage, owned), mirrors)
        }
        _ => {
            let owner = if same { old.owners[0] } else { inner.node.0 };
            let (owner, mirrors) = usage.replicate(nodes, owner, listed, grace);
            (vec![owner], mirrors)
        }
    };
    let mut placed = old.clone();
    (placed.regime, placed.owners, placed.mirrors) = (regime, owners, mirrors);
    Some(kept(inner, placed))
}

/// `placed`, with the mirror an unread replicated copy keeps where a dead
/// owner's copy is regenerated, not to die with its one writer: at its home,
/// or, while it is there, on the next live node.
fn kept(inner: &Inner, mut placed: RegimeTable) -> RegimeTable {
    let lone = placed.regime == RegimeKind::Replicated && placed.mirrors.is_empty();
    if inner.recovery.rehome && lone {
        let keeper = match placed.owners[0] == inner.node.0 {
            true => backup_target(inner),
            false => Some(inner.node),
        };
        placed.mirrors.extend(keeper.map(|node| node.0));
    }
    placed
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

/// Execute a switch to `placed`, with the switch lock held and `old` read
/// under it: drain the old regime's replicas, merge their states, install
/// the new regime under the next epoch, publish the table. The only path
/// that changes an owner or a mirror set of a live object: what stays is
/// re-installed where it was — handing single partitions or mirrors over
/// would be a second mechanism for a state this small.
pub(super) fn carry_out(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &HomeObject,
    old: &RegimeTable,
    placed: RegimeTable,
) -> Result<(), RtsError> {
    let logic = inner.registry.shard_logic(&old.type_name);
    if placed == *old {
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
                undo_drain(inner, old, &states);
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
        drop_copies(inner, (object, None), old.epoch, None, everyone);
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
                undo_drain(inner, old, &states);
                return Err(err.into());
            }
        }
    };

    // The state the next move ships, as its price counts it.
    entry.usage.lock().state = full.len();

    // Phase 3: install the new regime. Any failure here re-installs the
    // old regime from the drained states, so the invariant —
    // a failed switch leaves the old regime in place — holds on every
    // error path.
    let mut new = placed;
    new.epoch = old.epoch + 1;
    let new = match install_new_regime(inner, old, new, &full, &dedup) {
        Ok(new) => new,
        Err(err) => {
            undo_drain(inner, old, &states);
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
/// The mirrors the table lists of the slot are retired with it — a sharded
/// partition's alone — by the node that granted their leases, and *after*
/// the withdrawal: a racing `FetchMirror` is answered `StaleRegime` and
/// cannot resurrect one;
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
    let dropped = drop_copies(inner, (object, slot.partition), epoch, None, answering);
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
