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
/// under it: drain the old regime's replicas, install the new regime under
/// the next epoch — each partition as drained while the regime and its
/// partition count stay — and publish the table. The only path that
/// changes an owner or a mirror set of a live object: what stays is
/// re-installed where it was — handing single partitions or mirrors over
/// would be a second mechanism for a state this small.
pub(super) fn carry_out(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &HomeObject,
    old: &RegimeTable,
    placed: RegimeTable,
) -> Result<(), RtsError> {
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
    // its mirrors and their leases before it answers. All go out at once;
    // when one fails, what was drained goes back under the old epoch.
    let drains = (0u32..).zip(&old.owners);
    let drains = drains.map(|(partition, &owner)| (NodeId(owner), drain(old, partition)));
    let deadline = Instant::now() + inner.policy.op_timeout;
    let drained: Vec<_> = regime_fan_out(inner, drains, deadline)
        .into_iter()
        .map(|reply| match reply? {
            RegimeReply::State { state, dedup } => Ok((state, dedup)),
            other => Err(unexpected("Drain", other)),
        })
        .collect();
    if let Some(err) = drained.iter().find_map(|drained| drained.as_ref().err()) {
        let err = err.clone();
        undo_drain(inner, old, &drained);
        return Err(err);
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

    // Phase 2: install the new regime (`drained` stays alive so any later
    // failure can re-install the old regime — a drained object must never
    // be lost). The dedup windows merge: lookups are by stamp, so an entry
    // recorded at one partition is simply inert at another. The state the
    // next move ships, as its price counts it, is what was drained.
    let states = || drained.iter().flatten().map(|(state, _)| state.clone());
    let mut dedup = DedupWindow::new();
    for (_, window) in drained.iter().flatten() {
        dedup.merge(window);
    }
    entry.usage.lock().state = drained.iter().flatten().map(|(state, _)| state.len()).sum();
    let mut new = placed;
    new.epoch = old.epoch + 1;
    let installed = if (new.regime, new.owners.len()) == (old.regime, old.owners.len()) {
        install_slots(inner, &new, states().collect(), &dedup).map(|()| new)
    } else {
        install_new_regime(inner, old, new, states().collect(), &dedup)
    };
    let new = match installed {
        Ok(new) => new,
        Err(err) => {
            undo_drain(inner, old, &drained);
            return Err(err);
        }
    };

    // Phase 4: publish.
    let regime = new.regime;
    *entry.table.lock() = Arc::new(new);
    inner.stats.regime_switches.inc();
    if regime == old.regime {
        inner.adaptive.replacements.inc();
    }
    inner.handle.telemetry().record_traced(
        inner.node.0,
        FlightKind::RegimeSwitch,
        object.0,
        regime as u64,
    );
    Ok(())
}

/// Install the replicas of `new` — another regime than the drained one, at
/// its owners under the next epoch — cut from the drained `states`
/// (partition order) merged into one whole-object state, and return the
/// table to publish. A failed install falls back to a replicated
/// copy at home, without mirrors, under a further epoch — the merged state
/// is in hand, so the fallback cannot fail remotely. An error return means
/// nothing usable was installed and the caller re-installs the old regime.
fn install_new_regime(
    inner: &Arc<Inner>,
    old: &RegimeTable,
    new: RegimeTable,
    mut states: Vec<Vec<u8>>,
    dedup: &DedupWindow,
) -> Result<RegimeTable, RtsError> {
    let full = match inner.registry.shard_logic(&old.type_name) {
        Some(logic) if states.len() > 1 => logic.merge_states(states)?,
        _ => states.remove(0),
    };
    match cut(inner, &new, &full).and_then(|parts| install_slots(inner, &new, parts, dedup)) {
        Ok(()) => Ok(new),
        Err(_) if old.regime != new.regime => {
            let fallback = RegimeTable {
                epoch: new.epoch + 1,
                regime: RegimeKind::Replicated,
                owners: vec![inner.node.0],
                mirrors: Vec::new(),
                ..new
            };
            install_slots(inner, &fallback, vec![full], dedup)?;
            Ok(fallback)
        }
        Err(err) => Err(err),
    }
}

/// The whole-object state `full` cut into the partitions `table` names: one
/// copy under the replicated regime, one state per owner under the sharded
/// regime (a type that does not shard is one partition). A type nobody
/// registered is refused here, before anything is installed.
pub(super) fn cut(
    inner: &Inner,
    table: &RegimeTable,
    full: &[u8],
) -> Result<Vec<Vec<u8>>, RtsError> {
    match inner.registry.shard_logic(&table.type_name) {
        Some(logic) if table.regime == RegimeKind::Sharded => {
            Ok(logic.split_state(full, table.partitions())?)
        }
        _ if !inner.registry.contains(&table.type_name) => {
            Err(ObjectError::UnknownType(table.type_name.clone()).into())
        }
        _ => Ok(vec![full.to_vec()]),
    }
}

/// The error of a `what` request answered `reply`.
fn unexpected(what: &str, reply: RegimeReply) -> RtsError {
    RtsError::Communication(format!("{what} answered {reply:?}"))
}

/// The request that withdraws partition `partition` of `table`'s object.
fn drain(table: &RegimeTable, partition: u32) -> RegimeMsg {
    let (object, epoch) = (table.object, table.epoch);
    RegimeMsg::Drain {
        object,
        epoch,
        partition,
    }
}

/// A drained partition: its state and the dedup window recorded against it.
type Drained = (Vec<u8>, DedupWindow);

/// Put drained partitions back at their old owners (failed switch), so the
/// old regime keeps serving without any lost state. Each partition's dedup
/// window goes back with the state it was drained with; a partition that
/// was not drained is where it was.
fn undo_drain(inner: &Arc<Inner>, old: &RegimeTable, drained: &[Result<Drained, RtsError>]) {
    for ((partition, &owner), drained) in (0u32..).zip(&old.owners).zip(drained) {
        if let Ok((state, dedup)) = drained {
            let install = install_msg(old, partition, state.clone(), dedup.clone());
            let deadline = Instant::now() + inner.policy.op_timeout;
            let _ = regime_fan_out(inner, [(NodeId(owner), install)], deadline);
        }
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
        slot.changed.notify_all();
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

/// Install the authoritative slots `table` names, partition `i` at owner
/// `i` with `states[i]`: one copy at its owner under the replicated regime,
/// one partition per owner under the sharded regime (a type that does not
/// shard is one partition). Every install goes out at once. When an owner
/// cannot take its partition the partial install is discarded — local
/// slots directly, remote ones with a best-effort drain; the epoch is never
/// published, so an unreachable node's leftover slot can take no
/// operation — and the first error returned.
pub(super) fn install_slots(
    inner: &Arc<Inner>,
    table: &RegimeTable,
    states: Vec<Vec<u8>>,
    dedup: &DedupWindow,
) -> Result<(), RtsError> {
    let object = table_object(table);
    let owners = || (0u32..).zip(&table.owners);
    let installs = owners().zip(states).map(|((partition, &owner), state)| {
        let install = install_msg(table, partition, state, dedup.clone());
        (NodeId(owner), install)
    });
    let deadline = Instant::now() + inner.policy.op_timeout;
    let done: Vec<_> = regime_fan_out(inner, installs, deadline)
        .into_iter()
        .map(|reply| match reply? {
            RegimeReply::Ack => Ok(()),
            other => Err(unexpected("Install", other)),
        })
        .collect();
    let Some(failure) = done.iter().find_map(|done| done.clone().err()) else {
        return Ok(());
    };
    for ((partition, &owner), _) in owners().zip(&done).filter(|(_, done)| done.is_ok()) {
        let key = (object, partition);
        if NodeId(owner) == inner.node {
            let mut slots = inner.slots.write();
            if slots
                .get(&key)
                .is_some_and(|slot| slot.epoch == table.epoch)
            {
                slots.remove(&key);
            }
        } else {
            let drain = drain(table, partition);
            let deadline = Instant::now() + inner.policy.op_timeout;
            let _ = regime_fan_out(inner, [(NodeId(owner), drain)], deadline);
        }
    }
    Err(failure)
}

/// The message that installs partition `partition` of `table` — its state,
/// the dedup window recorded against exactly that state, the regime and the
/// mirrors the table names.
fn install_msg(
    table: &RegimeTable,
    partition: u32,
    state: Vec<u8>,
    dedup: DedupWindow,
) -> RegimeMsg {
    RegimeMsg::Install {
        object: table.object,
        epoch: table.epoch,
        partition,
        type_name: table.type_name.clone(),
        state,
        dedup,
        regime: table.regime,
        mirrors: table.mirrors.clone(),
    }
}
