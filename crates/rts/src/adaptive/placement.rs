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
            candidates.push(fewer);
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
    Some(placed)
}

/// Owners of the partitions of sharded-regime `object`, now `owned`, by use
/// ([`stable_place`] over [`UsageAggregate::users`]): an owner quiet for
/// less than a regime lease is still a user.
pub(super) fn placement(
    inner: &Inner,
    object: ObjectId,
    usage: &UsageAggregate,
    owned: &[u16],
) -> Vec<u16> {
    let (nodes, grace) = (inner.num_nodes, inner.policy.regime_lease);
    let users = usage.users(Count::Accesses, nodes, owned, grace);
    stable_place(object, inner.policy.partitions.max(1), &users, owned)
}

/// Execute a switch to `placed`, with the switch lock held and `old` read
/// under it — the only path that changes an owner or a mirror set of a live
/// object: drain what moves, install it under the next epoch — re-stamping
/// in place ([`withdraw`]) a partition whose owner stays — and publish.
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
    // must not withdraw and re-install the surviving partitions each time.
    if let Some(&dead) = old
        .owners
        .iter()
        .find(|&&owner| is_dead(&inner.detector, NodeId(owner)))
    {
        return Err(RtsError::NodeDown(NodeId(dead)));
    }
    let mut new = placed;
    new.epoch = old.epoch + 1;
    let same = (new.regime, new.owners.len()) == (old.regime, old.owners.len());
    let stays = |p: &u32| same && new.owners[*p as usize] == old.owners[*p as usize];
    let (kept, moved): (Vec<u32>, Vec<u32>) = (0..old.owners.len() as u32).partition(stays);

    // Phase 1: drain the replicas that move, all at once, each with the
    // dedup window recorded against exactly its state; an owner retires the
    // slot's mirrors and their leases before it answers. The ones that stay
    // serve on. When one fails, what was drained goes back.
    let owner = |p: u32| NodeId(old.owners[p as usize]);
    let drains = moved.iter().map(|&p| (owner(p), drain(old, p)));
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
        undo(inner, old, moved.iter().zip(&drained), &[]);
        return Err(err);
    }

    // Phase 2: install what was drained and re-stamp what stays, all at once
    // (`drained` stays alive so any later failure can put the old regime
    // back). The dedup windows merge: lookups are by stamp, so an entry
    // recorded at one partition is inert at another. A move is priced by the
    // whole state.
    let states = || drained.iter().flatten().map(|(state, _)| state.clone());
    let mut dedup = DedupWindow::new();
    for (_, window) in drained.iter().flatten() {
        dedup.merge(window);
    }
    if kept.is_empty() {
        entry.usage.lock().state = drained.iter().flatten().map(|(state, _)| state.len()).sum();
    }
    let installed = if same {
        let moves = moved.iter().copied().zip(states().map(Part::Bytes));
        let parts = moves.chain(kept.iter().map(|&p| (p, Part::Kept(old.epoch))));
        install_slots(inner, &new, parts, &dedup).map(|()| new)
    } else {
        install_new_regime(inner, old, new, states().collect(), &dedup)
    };
    let new = match installed {
        Ok(new) => new,
        Err(err) => {
            undo(inner, old, moved.iter().zip(&drained), &kept);
            return Err(err);
        }
    };

    // The keepers of the old regime's slots are retired once the new regime
    // is in place, this node's included — not by each drained owner: a drop
    // is an object's, and a switch undone halfway must find them still
    // kept. A node whose drop was lost keeps a mirror that is never promoted
    // while the object's newer epoch leaves a trace among the survivors.
    if inner.recovery.enabled {
        let everyone = (0..inner.num_nodes).map(NodeId::from);
        drop_copies(inner, (object, None), old.epoch, None, everyone);
    }

    // Phase 3: publish.
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
            install_slots(inner, &fallback, [(0, Part::Bytes(full))], dedup)?;
            Ok(fallback)
        }
        Err(err) => Err(err),
    }
}

/// The whole-object state `full` cut into the partitions `table` names: one
/// copy under the replicated regime, one state per owner under the sharded
/// regime (a type that does not shard is one partition).
fn cut(inner: &Inner, table: &RegimeTable, full: &[u8]) -> Result<Vec<(u32, Part)>, RtsError> {
    let sharded = table.regime == RegimeKind::Sharded;
    let parts = match inner.registry.shard_logic(&table.type_name) {
        Some(logic) if sharded => logic.split_state(full, table.partitions())?,
        _ => vec![full.to_vec()],
    };
    Ok((0..).zip(parts.into_iter().map(Part::Bytes)).collect())
}

/// The error of a `what` request answered `reply`.
pub(super) fn unexpected(what: &str, reply: RegimeReply) -> RtsError {
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

/// Put the old regime back after a failed switch, without any lost state:
/// a drained partition is installed again at its old owner with the dedup
/// window it was drained with, a `kept` one re-stamped back; the rest are
/// where they were.
fn undo<'a>(
    inner: &Arc<Inner>,
    old: &RegimeTable,
    drained: impl Iterator<Item = (&'a u32, &'a Result<Drained, RtsError>)>,
    kept: &[u32],
) {
    let installs = drained.filter_map(|(&p, drained)| {
        let (state, dedup) = drained.as_ref().ok()?;
        Some((p, install_msg(old, p, state.clone(), dedup.clone(), None)))
    });
    let restamps = kept.iter().map(|&p| {
        let from = Some(old.epoch + 1);
        (p, install_msg(old, p, Vec::new(), DedupWindow::new(), from))
    });
    let legs = installs.chain(restamps);
    let legs = legs.map(|(p, msg)| (NodeId(old.owners[p as usize]), msg));
    regime_fan_out(inner, legs, Instant::now() + inner.policy.op_timeout);
}

/// Withdraw the slot this node serves for `key` under `epoch` for a switch
/// and answer its state and the dedup window recorded against exactly it,
/// or, `restamp`ed, serve it on under the epoch and placement given and
/// answer `Ack`; `StaleRegime` without such a slot. Its listed mirrors are
/// dropped after the withdrawal (a racing `FetchMirror` is refused), serving
/// the last committed state till then (no write commits before the new
/// regime publishes; a lost drop is bounded by the regime lease, a read
/// lease waited out here).
pub(super) fn withdraw(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    epoch: u64,
    restamp: Option<(u64, (RegimeKind, &[u16]))>,
) -> RegimeReply {
    let slot = {
        let mut slots = inner.slots.write();
        let of_epoch = slots.get(&key).is_some_and(|slot| slot.epoch == epoch);
        of_epoch.then(|| slots.remove(&key)).flatten()
    };
    let Some(slot) = slot else {
        return RegimeReply::StaleRegime;
    };
    // Mark the slot withdrawn under its replica mutex: an operation that
    // cloned the slot out of `slots` before the removal above will acquire
    // the mutex later, see the mark and answer StaleRegime instead of
    // applying to a replica that is being handed over. Nothing changes the
    // replica through this slot from here on, so the dedup window taken
    // under the same lock pairs with the state it has.
    let dedup = {
        let _replica = slot.replica.lock();
        slot.withdrawn.store(true, Ordering::Relaxed);
        slot.changed.notify_all();
        std::mem::take(&mut *slot.dedup.lock())
    };
    let unreached = std::mem::take(&mut slot.leases.lock().unreached);
    let mirrors = || slot.mirrors.iter().map(|&mirror| NodeId(mirror));
    // Re-stamped back, its keeper too drops the newer copy for the older one.
    let back = restamp.is_some_and(|(to, _)| to < epoch);
    let mut holders = if back {
        slot.holders(inner)
    } else {
        mirrors().collect()
    };
    holders.retain(|node| !unreached.contains(&node.0));
    let dropped = drop_copies(inner, (key.0, slot.partition), epoch, None, holders);
    settle_grants(inner, &slot, mirrors(), &dropped);
    let Some((to, placed)) = restamp else {
        inner.stats.copies_dropped.inc();
        let state = slot.replica.lock().state_bytes();
        return RegimeReply::State { state, dedup };
    };
    install_slot(inner, key, to, Arc::clone(&slot.replica), dedup, placed);
    RegimeReply::Ack
}

/// Install the authoritative slots `table` names, `parts` of them, each at
/// its partition's owner — a kept one re-stamped where it is — all at once.
/// When an owner cannot take its partition the installs are drained again,
/// best-effort (the epoch is never published, so an unreachable node's
/// leftover slot can take no operation), the re-stamps left for the caller
/// to undo, and the first error returned.
pub(super) fn install_slots(
    inner: &Arc<Inner>,
    table: &RegimeTable,
    parts: impl IntoIterator<Item = (u32, Part)>,
    dedup: &DedupWindow,
) -> Result<(), RtsError> {
    let object = table_object(table);
    let placed = (table.regime, &table.mirrors[..]);
    let owner = |partition: u32| NodeId(table.owners[partition as usize]);
    let (mut legs, mut sent, mut installed) = (vec![], vec![], vec![]);
    for (partition, part) in parts {
        let (state, from) = match part {
            Part::Value(value) if owner(partition) == inner.node => {
                let (key, value) = ((object, partition), Mutex::new(value));
                install_slot(inner, key, table.epoch, value, dedup.clone(), placed);
                installed.push(partition);
                continue;
            }
            Part::Value(value) => (value.state_bytes(), None),
            Part::Bytes(state) => (state, None),
            Part::Kept(from) => (Vec::new(), Some(from)),
        };
        sent.push((partition, from.is_some()));
        let dedup = from.map_or_else(|| dedup.clone(), |_| DedupWindow::new());
        let install = install_msg(table, partition, state, dedup, from);
        legs.push((owner(partition), install));
    }
    let deadline = Instant::now() + inner.policy.op_timeout;
    let mut failure = None;
    for ((partition, kept), reply) in sent.into_iter().zip(regime_fan_out(inner, legs, deadline)) {
        match reply {
            Ok(RegimeReply::Ack) if kept => {}
            Ok(RegimeReply::Ack) => installed.push(partition),
            Ok(other) => failure = failure.or(Some(unexpected("Install", other))),
            Err(err) => failure = failure.or(Some(err)),
        }
    }
    let Some(failure) = failure else {
        return Ok(());
    };
    let drains = installed.into_iter().map(|p| (owner(p), drain(table, p)));
    let _ = regime_fan_out(inner, drains, Instant::now() + inner.policy.op_timeout);
    Err(failure)
}

/// A partition for [`install_slots`]: a value, the bytes of a move, or one
/// whose owner keeps it, serving it under the epoch given.
pub(super) enum Part {
    Value(Box<dyn AnyReplica>),
    Bytes(Vec<u8>),
    Kept(u64),
}

/// The message that installs partition `partition` of `table` with its state
/// and the dedup window recorded against exactly it — or re-stamps it `from`
/// the epoch its owner serves it under.
fn install_msg(
    table: &RegimeTable,
    partition: u32,
    state: Vec<u8>,
    dedup: DedupWindow,
    from: Option<u64>,
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
        from,
    }
}
