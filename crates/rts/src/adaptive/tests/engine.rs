use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::message::WIRE_HEADER_BYTES;
use orca_amoeba::network::Network;
use orca_amoeba::NodeId;
use orca_object::shard::shard_of_u64;
use orca_object::testing::{Accumulator, AccumulatorOp, Bank, BankOp, BankReply};
use orca_object::{ObjectId, ObjectRegistry, ObjectType, OpKind, ShardRoute};
use orca_wire::{DedupWindow, OpStamp, TraceId, Wire};

use super::client::PartOutcome;
use super::messages::{RegimeKind, RegimeMsg, RegimeReply, RegimeTable};
use super::placement::{carry_out, rule};
use super::policy::UsageAggregate;
use super::reassembly::{holdings, of_object};
use super::service::{dispatch, regime_fan_out};
use super::slot::{apply_at_slot, mirror_entry, Slot};
use super::{AdaptivePolicy, AdaptiveRts};
use super::{HomeObject, Inner};
use crate::recovery::RecoveryConfig;
use crate::tests::CreateEncoded;
use crate::{RtsError, RuntimeSystem};

/// Switch `object` to `target` regime at once, placed by the regime's rule
/// ([`rule`]): a forced switch, as no evaluation would make it.
fn switch_regime(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &HomeObject,
    target: RegimeKind,
) -> Result<(), RtsError> {
    let _switch = entry.switch.lock();
    let old = RegimeTable::clone(&entry.table.lock());
    let placed = rule(inner, object, &entry.usage.lock(), &old, target);
    placed.map_or(Ok(()), |placed| {
        carry_out(inner, object, entry, &old, placed)
    })
}

/// What the tests of the pinned backends (`sharded`, `primary`) look at and
/// do that an application cannot.
impl AdaptiveRts {
    /// Partitions of `object` this node serves an authoritative slot of.
    pub(crate) fn held_partitions(&self, object: ObjectId) -> Vec<u32> {
        let held = of_object(&self.inner.slots, object);
        let mut held: Vec<u32> = held.into_iter().map(|(partition, _)| partition).collect();
        held.sort_unstable();
        held
    }

    /// This node's mirror of `object`: whether it holds a copy, the copy's
    /// version, whether it is locked, and its pending write-throughs.
    pub(crate) fn mirror_of(&self, object: ObjectId) -> (bool, u64, bool, u32) {
        let mirror = mirror_entry(&self.inner, (object, None));
        let state = mirror.state.lock();
        let held = state.copy.is_some();
        (held, state.version, state.locked, state.pending_writes)
    }

    /// The mirror this node keeps of `partition` of sharded `object`, when
    /// it holds a copy: its epoch and version, whether it is locked, and
    /// whether a lease came with it.
    pub(crate) fn keeper_of(
        &self,
        object: ObjectId,
        partition: u32,
    ) -> Option<(u64, u64, bool, bool)> {
        let mirror = mirror_entry(&self.inner, (object, Some(partition)));
        let state = mirror.state.lock();
        let kept = (
            state.epoch,
            state.version,
            state.locked,
            state.lease.is_some(),
        );
        state.copy.as_ref().map(|_| kept)
    }

    /// Until when the first write of this node's slot of `partition` of
    /// `object` is fenced, if it is.
    pub(crate) fn write_fence(&self, object: ObjectId, partition: u32) -> Option<Instant> {
        let slot = self.inner.slots.read().get(&(object, partition)).cloned();
        slot.and_then(|slot| slot.leases.lock().fence)
    }

    /// Replace the evidence of `object`, whose home this node is, with
    /// `reads[node]` reads and `writes[node]` writes per node and re-place
    /// its replicated regime over it.
    pub(crate) fn replicate_by(
        &self,
        object: ObjectId,
        reads: &[u64],
        writes: &[u64],
    ) -> Result<(), RtsError> {
        self.place_by_use(object, RegimeKind::Replicated, reads, writes)
    }

    /// [`AdaptiveRts::replicate_by`] for the sharded regime: partitions and
    /// their mirrors.
    pub(crate) fn shard_by(
        &self,
        object: ObjectId,
        reads: &[u64],
        writes: &[u64],
    ) -> Result<(), RtsError> {
        self.place_by_use(object, RegimeKind::Sharded, reads, writes)
    }

    fn place_by_use(
        &self,
        object: ObjectId,
        regime: RegimeKind,
        reads: &[u64],
        writes: &[u64],
    ) -> Result<(), RtsError> {
        let home = self.inner.homes.read().get(&object).cloned().unwrap();
        *home.usage.lock() = UsageAggregate::of(reads, writes);
        switch_regime(&self.inner, object, &home, regime)
    }

    /// Handle `msg` as if `caller` had sent it.
    pub(crate) fn serve(&self, msg: RegimeMsg, caller: NodeId) -> RegimeReply {
        dispatch(&self.inner, msg, caller)
    }

    /// One attempt of a write of this node under a stamp of the caller's
    /// choosing (a retry presents the stamp of the attempt it repeats).
    pub(crate) fn write_stamped(
        &self,
        object: ObjectId,
        op: &[u8],
        stamp: OpStamp,
    ) -> Result<Vec<u8>, RtsError> {
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        let table = self.route_for(object, deadline)?;
        match self.dispatch_client_op(&table, OpKind::Write, op, Some(stamp), deadline, false)? {
            PartOutcome::Done(reply) => Ok(reply),
            _ => Err(RtsError::Timeout),
        }
    }
}

fn registry() -> ObjectRegistry {
    let mut registry = ObjectRegistry::new();
    registry.register::<Accumulator>();
    registry.register_sharded::<Bank>();
    registry
}

fn start_all(net: &Network, policy: AdaptivePolicy) -> Vec<AdaptiveRts> {
    net.node_ids()
        .into_iter()
        .map(|n| AdaptiveRts::start(net.handle(n), registry(), policy))
        .collect()
}

fn shutdown_all(rtses: &[AdaptiveRts]) {
    for rts in rtses {
        rts.shutdown();
    }
}

/// Wait for what a usage report leads to. A report is one-way: the
/// invocation that sent it returns before the home has evaluated.
fn eventually(what: &str, holds: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !holds() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn add(rts: &AdaptiveRts, id: ObjectId, n: i64) -> i64 {
    let reply = rts
        .invoke(
            id,
            Accumulator::TYPE_NAME,
            OpKind::Write,
            &AccumulatorOp::Add(n).to_bytes(),
        )
        .unwrap();
    i64::from_bytes(&reply).unwrap()
}

fn read(rts: &AdaptiveRts, id: ObjectId) -> i64 {
    let reply = rts
        .invoke(
            id,
            Accumulator::TYPE_NAME,
            OpKind::Read,
            &AccumulatorOp::Read.to_bytes(),
        )
        .unwrap();
    i64::from_bytes(&reply).unwrap()
}

fn deposit(rts: &AdaptiveRts, id: ObjectId, key: u64, amount: i64) -> i64 {
    let reply = rts
        .invoke(
            id,
            Bank::TYPE_NAME,
            OpKind::Write,
            &BankOp::Deposit { key, amount }.to_bytes(),
        )
        .unwrap();
    let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
    v
}

fn bank_sum(rts: &AdaptiveRts, id: ObjectId) -> i64 {
    let reply = rts
        .invoke(id, Bank::TYPE_NAME, OpKind::Read, &BankOp::Sum.to_bytes())
        .unwrap();
    let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
    v
}

#[test]
fn starts_as_one_copy_at_its_creator_and_round_trips_across_nodes() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, AdaptivePolicy::default());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let placed = (RegimeKind::Replicated, 0, vec![NodeId(0)]);
    assert_eq!(rtses[1].placement_of(id).unwrap(), placed);
    assert!(rtses[1].copy_holders(id).unwrap().is_empty());
    assert_eq!(add(&rtses[1], id, 5), 5);
    assert_eq!(add(&rtses[2], id, 7), 12);
    assert_eq!(read(&rtses[0], id), 12);
    assert_eq!(read(&rtses[2], id), 12);
    assert!(rtses[2].stats().remote_reads >= 1);
    assert!(rtses[1].stats().remote_writes >= 1);
    shutdown_all(&rtses);
}

/// The wire vocabulary reserves the name of a regime this engine no longer
/// has (tag 1): an install that carries it is refused, and so is a table.
#[test]
fn a_regime_the_engine_does_not_serve_is_refused_off_the_wire() {
    let net = Network::reliable(2);
    let rtses = start_all(&net, AdaptivePolicy::default());
    let reserved = RegimeKind::from_bytes(&[1]).unwrap();
    assert!(![RegimeKind::Replicated, RegimeKind::Sharded].contains(&reserved));
    let install = RegimeMsg::Install {
        object: ObjectId::compose(1, 7).0,
        epoch: 0,
        partition: 0,
        type_name: Accumulator::TYPE_NAME.to_string(),
        state: 0i64.to_bytes(),
        dedup: DedupWindow::new(),
        regime: reserved,
        mirrors: Vec::new(),
        from: None,
    };
    let refused = dispatch(&rtses[0].inner, install, NodeId(1));
    assert!(matches!(refused, RegimeReply::Error(_)), "{refused:?}");
    assert!(rtses[0].inner.slots.read().is_empty());

    // Node 1 publishes such a table for an object of its own; node 0
    // will not route by it.
    let id = rtses[1]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let home = rtses[1].inner.homes.read().get(&id).cloned().unwrap();
    let mut table = RegimeTable::clone(&home.table.lock());
    table.regime = reserved;
    *home.table.lock() = Arc::new(table);
    let deadline = Instant::now() + Duration::from_secs(1);
    let routed = rtses[0].route_for(id, deadline);
    assert!(
        matches!(routed, Err(RtsError::Communication(_))),
        "{routed:?}"
    );
    shutdown_all(&rtses);
}

#[test]
fn read_heavy_object_switches_to_replicated_and_reads_go_local() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, AdaptivePolicy::eager());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &1i64.to_bytes())
        .unwrap();
    // A read burst from every node pushes the ratio over the
    // replicate threshold.
    for rts in &rtses {
        for _ in 0..24 {
            assert_eq!(read(rts, id), 1);
        }
        rts.flush_usage(id);
    }
    assert_eq!(rtses[1].propose(id).unwrap(), RegimeKind::Replicated);
    let (regime, epoch) = rtses[2].regime_of(id).unwrap();
    assert_eq!(regime, RegimeKind::Replicated);
    // Node 0's sixteenth read closed a window when the only reader known
    // was the owner itself: nothing to place. Nodes 1 and 2 each joined
    // when its own reads were reported — two re-placements.
    assert_eq!(epoch, 2);

    // Reads now hit the local mirror.
    let before = rtses[1].stats().local_reads;
    for _ in 0..10 {
        assert_eq!(read(&rtses[1], id), 1);
    }
    assert!(rtses[1].stats().local_reads >= before + 10);

    // A write at a non-home node propagates to every mirror before it
    // completes (two-phase update push).
    assert_eq!(add(&rtses[2], id, 9), 10);
    assert_eq!(read(&rtses[1], id), 10);
    assert_eq!(read(&rtses[0], id), 10);
    assert!(rtses[1].stats().updates_applied >= 1);
    shutdown_all(&rtses);
}

#[test]
fn write_hot_shardable_object_switches_to_sharded() {
    let net = Network::reliable(4);
    let rtses = start_all(&net, AdaptivePolicy::eager());
    let id = rtses[0]
        .create_encoded(
            Bank::TYPE_NAME,
            &<Bank as ObjectType>::State::new().to_bytes(),
        )
        .unwrap();
    for (n, rts) in rtses.iter().enumerate() {
        for key in 0..16u64 {
            deposit(rts, id, key, (n + 1) as i64);
        }
        rts.flush_usage(id);
    }
    assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Sharded);
    // Writes keep working and spread over partition owners.
    for key in 0..16u64 {
        deposit(&rtses[1], id, key, 1);
    }
    let expected: i64 = (1..=4i64).sum::<i64>() * 16 + 16;
    for rts in &rtses {
        assert_eq!(bank_sum(rts, id), expected);
    }
    assert!(rtses.iter().any(|rts| rts.stats().updates_applied > 0));
    // The sharded slots really are distributed.
    let distinct: std::collections::BTreeSet<u16> = rtses
        .iter()
        .flat_map(|rts| {
            let slots = rts.inner.slots.read();
            slots
                .keys()
                .filter(|(obj, _)| *obj == id)
                .map(|_| rts.inner.node.0)
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(distinct.len() > 1, "partitions should span nodes");
    shutdown_all(&rtses);
}

#[test]
fn write_hot_non_shardable_object_stays_one_copy() {
    let net = Network::reliable(2);
    let rtses = start_all(&net, AdaptivePolicy::eager());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    for rts in &rtses {
        for _ in 0..24 {
            add(rts, id, 1);
        }
        rts.flush_usage(id);
    }
    assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
    // Nobody reads it: no mirror, and its owner — a writer — keeps it.
    assert_eq!(replicated_at(&rtses[0], id), (0, vec![]));
    assert_eq!(read(&rtses[1], id), 48);
    shutdown_all(&rtses);
}

#[test]
fn regime_switches_under_concurrent_writers_lose_nothing() {
    // Writers hammer a bank while its regime is forced back and forth
    // between the regimes. Every acknowledged deposit must
    // survive: an op that races a drain either lands before the state
    // snapshot (and is part of the merged state) or is answered
    // StaleRegime and retried under the new regime.
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        // Manual switching only: evaluations never fire on their own.
        window: u64::MAX,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(
            Bank::TYPE_NAME,
            &<Bank as ObjectType>::State::new().to_bytes(),
        )
        .unwrap();
    const DEPOSITS: i64 = 120;
    let writers: Vec<_> = rtses
        .iter()
        .map(|rts| {
            let rts = rts.clone();
            std::thread::spawn(move || {
                for i in 0..DEPOSITS {
                    deposit(&rts, id, (i % 16) as u64, 1);
                }
            })
        })
        .collect();
    // Force switches through every regime while the writers run.
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    for target in [
        RegimeKind::Sharded,
        RegimeKind::Replicated,
        RegimeKind::Sharded,
        RegimeKind::Replicated,
        RegimeKind::Sharded,
        RegimeKind::Replicated,
        RegimeKind::Sharded,
    ] {
        switch_regime(&rtses[0].inner, id, &home, target).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    for writer in writers {
        writer.join().unwrap();
    }
    assert_eq!(
        bank_sum(&rtses[1], id),
        DEPOSITS * rtses.len() as i64,
        "acknowledged writes were lost across regime switches"
    );
    assert!(rtses[0].stats().regime_switches >= 7);
    shutdown_all(&rtses);
}

#[test]
fn a_synchronous_write_bounced_by_a_switch_re_fetches_its_table_at_once() {
    // The home answers a table asked for during a switch once the switch
    // is done, so a write bounced by one re-fetches at once: a bounce
    // costs a round trip, not `stale_retry_delay`.
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        window: u64::MAX,
        stale_retry_delay: Duration::from_secs(30),
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(
            Bank::TYPE_NAME,
            &<Bank as ObjectType>::State::new().to_bytes(),
        )
        .unwrap();
    // Nodes 1 and 2 learn the table of the copy at node 0.
    deposit(&rtses[1], id, 1, 1);
    deposit(&rtses[2], id, 2, 1);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (rts, stop) = (rtses[1].clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let (mut writes, mut slowest) = (0, Duration::ZERO);
            while !stop.load(Ordering::Relaxed) {
                let started = Instant::now();
                deposit(&rts, id, writes % 16, 1);
                slowest = slowest.max(started.elapsed());
                writes += 1;
            }
            (writes, slowest)
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[0].inner, id, &home, RegimeKind::Sharded).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let (writes, slowest) = writer.join().unwrap();
    assert!(
        slowest < Duration::from_secs(1),
        "a racing write took {slowest:?}"
    );
    // Node 2's table is the one the switch retired: its write bounces.
    let started = Instant::now();
    deposit(&rtses[2], id, 3, 1);
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "a bounced write took {took:?}"
    );
    assert_eq!(bank_sum(&rtses[0], id), 3 + writes as i64);
    shutdown_all(&rtses);
}

#[test]
fn blocked_guarded_read_survives_a_regime_switch() {
    let net = Network::reliable(2);
    let policy = AdaptivePolicy {
        window: u64::MAX,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let waiter = {
        let rts = rtses[1].clone();
        std::thread::spawn(move || {
            let reply = rts
                .invoke(
                    id,
                    Accumulator::TYPE_NAME,
                    OpKind::Read,
                    &AccumulatorOp::AwaitAtLeast(50).to_bytes(),
                )
                .unwrap();
            i64::from_bytes(&reply).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    // Switch to replicated while the reader is parked, then satisfy
    // the guard from the other node.
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(add(&rtses[0], id, 60), 60);
    assert_eq!(waiter.join().unwrap(), 60);
    // Counted where the guard waited: at the copy's owner.
    let waits: u64 = rtses.iter().map(|rts| rts.stats().guard_retries).sum();
    assert!(waits >= 1);
    shutdown_all(&rtses);
}

#[test]
fn workload_shift_reverses_a_regime_decision() {
    let net = Network::reliable(2);
    let rtses = start_all(&net, AdaptivePolicy::eager());
    let id = rtses[0]
        .create_encoded(
            Bank::TYPE_NAME,
            &<Bank as ObjectType>::State::new().to_bytes(),
        )
        .unwrap();
    // Phase 1: read-heavy → replicated, mirrored at the readers.
    for rts in &rtses {
        for _ in 0..24 {
            bank_sum(rts, id);
        }
        rts.flush_usage(id);
    }
    assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
    let placed = || {
        let (regime, _, owners) = rtses[0].placement_of(id).unwrap();
        (regime, owners, rtses[0].copy_holders(id).unwrap())
    };
    let read_heavy = placed();
    assert!(!read_heavy.2.is_empty(), "no mirror: {read_heavy:?}");
    // Phase 2: a sustained write burst decays the read history, and the
    // mirror costs every write what it no longer saves: the object is
    // placed again.
    let mut deposits = 0i64;
    for round in 0..6 {
        for rts in &rtses {
            for key in 0..16u64 {
                deposit(rts, id, key + round * 16, 1);
                deposits += 1;
            }
            rts.flush_usage(id);
        }
        rtses[0].propose(id).unwrap();
        if placed() != read_heavy {
            break;
        }
    }
    assert_ne!(placed(), read_heavy);
    // Nothing was lost across either switch.
    assert_eq!(bank_sum(&rtses[1], id), deposits);
    shutdown_all(&rtses);
}

#[test]
fn shutdown_wakes_blocked_invocation() {
    let net = Network::reliable(2);
    let rtses = start_all(&net, AdaptivePolicy::default());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    // Home-local guarded read: never touches the RPC server, so only
    // the stopped flag can wake it.
    let waiter = {
        let rts = rtses[0].clone();
        std::thread::spawn(move || {
            rts.invoke(
                id,
                Accumulator::TYPE_NAME,
                OpKind::Read,
                &AccumulatorOp::AwaitAtLeast(10_000).to_bytes(),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    rtses[0].shutdown();
    assert_eq!(waiter.join().unwrap().unwrap_err(), RtsError::Terminated);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "blocked invocation was not woken promptly"
    );
    shutdown_all(&rtses);
}

#[test]
fn dropped_reply_surfaces_timeout_not_hang() {
    let net = Network::reliable(2);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(150),
        ..AdaptivePolicy::default()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    net.crash(NodeId(0));
    let started = Instant::now();
    let err = rtses[1]
        .invoke(
            id,
            Accumulator::TYPE_NAME,
            OpKind::Write,
            &AccumulatorOp::Add(1).to_bytes(),
        )
        .unwrap_err();
    assert_eq!(err, RtsError::Timeout);
    assert!(started.elapsed() < Duration::from_secs(5));
    net.recover(NodeId(0));
    assert_eq!(add(&rtses[1], id, 4), 4);
    shutdown_all(&rtses);
}

fn start_all_recoverable(
    net: &Network,
    policy: AdaptivePolicy,
    recovery: RecoveryConfig,
) -> Vec<AdaptiveRts> {
    net.node_ids()
        .into_iter()
        .map(|n| AdaptiveRts::start_recoverable(net.handle(n), registry(), policy, recovery, None))
        .collect()
}

fn wait_for_death(rtses: &[AdaptiveRts], killed: NodeId) {
    crate::recovery::wait_for_deaths(rtses.len(), &[killed], &|node| {
        rtses[node.index()].membership_view()
    });
}

/// The home of a replicated-regime object dies, its owner with it; the
/// lowest live node adopts the object and promotes the freshest surviving
/// mirror in place, so every acknowledged write survives (the two-phase
/// update push put them on all mirrors before acknowledging).
#[test]
fn home_crash_promotes_a_surviving_mirror() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, AdaptivePolicy::eager(), crate::recovery::patient());
    // Created at node 2, so its death orphans the object while node 0
    // (the adopter) and node 1 survive.
    let id = rtses[2]
        .create_encoded(Accumulator::TYPE_NAME, &1i64.to_bytes())
        .unwrap();
    for rts in &rtses {
        for _ in 0..24 {
            assert_eq!(read(rts, id), 1);
        }
        rts.flush_usage(id);
    }
    assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
    // Mirror reads on the survivors, then an acknowledged write that
    // the two-phase push replicates everywhere.
    assert_eq!(read(&rtses[0], id), 1);
    assert_eq!(read(&rtses[1], id), 1);
    assert_eq!(add(&rtses[0], id, 9), 10);
    let placed = rtses[0].regime_of(id).unwrap();

    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    // Survivors re-route through the adopted home; the acknowledged
    // write survived in the promoted mirror state.
    assert_eq!(read(&rtses[1], id), 10);
    assert_eq!(add(&rtses[1], id, 5), 15);
    assert_eq!(read(&rtses[0], id), 15);
    // Promoted where it was — node 1's mirror and node 0's (the keeper)
    // were equally fresh, the higher node id breaks the tie — under the
    // epoch it had, listing no readers until it is placed again by use.
    assert_eq!(rtses[1].regime_of(id).unwrap(), placed);
    assert_eq!(replicated_at(&rtses[1], id), (1, vec![]));
    // Adaptation stays alive after adoption: proposals (and usage
    // reports) address the adopter, not the dead creator.
    for _ in 0..8 {
        assert_eq!(read(&rtses[1], id), 15);
    }
    rtses[1].flush_usage(id);
    assert_eq!(rtses[1].propose(id).unwrap(), RegimeKind::Replicated);
    // Node 1 is the one user the adopter has heard of, reading and
    // writing: the copy stays there, its keeper unlisted.
    assert_eq!(replicated_at(&rtses[1], id), (1, vec![]));
    shutdown_all(&rtses);
}

/// The keeper is found by identity: when it writes through its own listed
/// mirror it is not pushed to, and the listed reader pushed last in its
/// stead is not taken for it — a reader without its copy answers the push
/// `StaleRegime` and fetches at its next read, unprimed.
#[test]
fn a_listed_reader_pushed_last_is_not_primed_as_the_keeper() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[0], id, &[200, 200, 200], &[5, 5, 0]).unwrap();
    // Node 0 owns the copy; its keeper, node 1, is listed beside node 2.
    assert_eq!(replicated_at(&rtses[0], id), (0, vec![1, 2]));
    let (_, epoch) = rtses[0].regime_of(id).unwrap();
    let (held, version, ..) = rtses[2].mirror_of(id);
    assert!(held, "node 2 was primed");
    let drop = RegimeMsg::DropCopies {
        object: id.0,
        epoch,
        partition: None,
        written: Some(version),
    };
    assert_eq!(rtses[2].serve(drop, NodeId(0)), RegimeReply::Ack);
    assert!(!rtses[2].mirror_of(id).0, "node 2 dropped its copy");
    assert_eq!(add(&rtses[1], id, 4), 4);
    assert!(
        !rtses[2].mirror_of(id).0,
        "a listed reader primed as the keeper"
    );
    assert_eq!(read(&rtses[2], id), 4);
    shutdown_all(&rtses);
}

/// A slot whose owner and keeper both die leaves nothing to promote:
/// survivors get a fast, explicit `ObjectLost`.
#[test]
fn home_and_keeper_crash_reports_object_lost() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, AdaptivePolicy::default(), crate::recovery::patient());
    let id = rtses[1]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    assert_eq!(add(&rtses[0], id, 3), 3);
    // The copy's keeper is the node after its owner.
    assert!(rtses[2].mirror_of(id).0, "no keeper on node 2");
    net.crash(NodeId(1));
    net.crash(NodeId(2));
    crate::recovery::wait_for_deaths(3, &[NodeId(1), NodeId(2)], &|node| {
        rtses[node.index()].membership_view()
    });
    let started = Instant::now();
    let err = rtses[0]
        .invoke(
            id,
            Accumulator::TYPE_NAME,
            OpKind::Read,
            &AccumulatorOp::Read.to_bytes(),
        )
        .unwrap_err();
    assert_eq!(err, RtsError::ObjectLost(id));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "ObjectLost was not fast"
    );
    shutdown_all(&rtses);
}

/// Tentpole: once an object is replicated and a mirror holds a valid
/// read lease, its reads are answered entirely locally — zero
/// messages on the wire — and the lease telemetry records them.
#[test]
fn leased_mirror_reads_put_nothing_on_the_wire() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        window: u64::MAX,
        regime_lease: Duration::from_secs(10),
        read_lease_ms: 10_000,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &7i64.to_bytes())
        .unwrap();
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated).unwrap();
    // The switch pushed eager mirrors with leases alongside.
    assert!(rtses[0].inner.lease.grants.get() >= 1);
    // Warm node 1's regime-table cache, then measure.
    assert_eq!(read(&rtses[1], id), 7);
    let before = net.stats();
    let leased_before = rtses[1].inner.lease.local_reads.get();
    for _ in 0..20 {
        assert_eq!(read(&rtses[1], id), 7);
    }
    let sent = net.stats().since(&before).node(NodeId(1)).messages_sent();
    assert_eq!(sent, 0, "leased reads must be message-free");
    assert!(rtses[1].inner.lease.local_reads.get() >= leased_before + 20);
    shutdown_all(&rtses);
}

/// Headline bugfix: a stamped write re-presented after a retry is
/// answered its recorded reply from the dedup window instead of being
/// applied a second time.
#[test]
fn represented_stamped_write_applies_exactly_once() {
    let net = Network::reliable(2);
    let rtses = start_all(&net, AdaptivePolicy::default());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let stamp = OpStamp { origin: 1, seq: 77 };
    let op = AccumulatorOp::Add(5).to_bytes();
    let first = apply_at_slot(
        &rtses[0].inner,
        id,
        0,
        0,
        &op,
        Some(stamp),
        NodeId(1),
        false,
    );
    let retry = apply_at_slot(
        &rtses[0].inner,
        id,
        0,
        0,
        &op,
        Some(stamp),
        NodeId(1),
        false,
    );
    let RegimeReply::Done(first) = first else {
        panic!("first apply failed");
    };
    assert_eq!(i64::from_bytes(&first).unwrap(), 5);
    let RegimeReply::Done(retry) = retry else {
        panic!("retry was not answered");
    };
    assert_eq!(
        i64::from_bytes(&retry).unwrap(),
        5,
        "retry must see the recorded reply"
    );
    assert_eq!(read(&rtses[1], id), 5, "the write must have applied once");
    shutdown_all(&rtses);
}

/// The dedup window rides the drain/install state transfer of a regime
/// switch: a stamp recorded under the old regime still answers its
/// recorded reply under the new one.
#[test]
fn dedup_window_survives_a_regime_switch() {
    let net = Network::reliable(2);
    let policy = AdaptivePolicy {
        window: u64::MAX,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let stamp = OpStamp { origin: 1, seq: 3 };
    let op = AccumulatorOp::Add(9).to_bytes();
    let RegimeReply::Done(_) = apply_at_slot(
        &rtses[0].inner,
        id,
        0,
        0,
        &op,
        Some(stamp),
        NodeId(1),
        false,
    ) else {
        panic!("stamped write failed");
    };
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated).unwrap();
    let (_, epoch) = rtses[0].regime_of(id).unwrap();
    let RegimeReply::Done(reply) = apply_at_slot(
        &rtses[0].inner,
        id,
        0,
        epoch,
        &op,
        Some(stamp),
        NodeId(1),
        false,
    ) else {
        panic!("re-presented write was not answered");
    };
    assert_eq!(i64::from_bytes(&reply).unwrap(), 9);
    assert_eq!(read(&rtses[1], id), 9, "retry must not double-apply");
    shutdown_all(&rtses);
}

/// A mirror whose lease lapsed (idle owner) asks the owner to renew it,
/// naming the version it holds: the grant alone comes back — a request
/// and a reply of a few bytes, not the state — and reads are leased
/// again. A mirror that fell behind meanwhile still gets the snapshot.
#[test]
fn lapsed_mirror_lease_renews_without_the_state() {
    let net = Network::reliable(2);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(300),
        window: u64::MAX,
        regime_lease: Duration::from_secs(10),
        read_lease_ms: 100,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let accounts: <Bank as ObjectType>::State = (0..2_000).map(|key| (key << 40, 1)).collect();
    let state = accounts.to_bytes();
    assert!(state.len() >= 10_000, "{} bytes of state", state.len());
    let id = rtses[0].create_encoded(Bank::TYPE_NAME, &state).unwrap();
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated).unwrap();
    assert_eq!(bank_sum(&rtses[1], id), 2_000);
    let fetched = rtses[1].stats().copies_fetched;
    std::thread::sleep(Duration::from_millis(250));
    let before = net.stats();
    assert_eq!(bank_sum(&rtses[1], id), 2_000);
    let spent = net.stats().since(&before);
    assert_eq!(spent.total_messages(), 2, "a request and a reply");
    let payload = spent.total_wire_bytes() - 2 * WIRE_HEADER_BYTES as u64;
    assert!(payload < 100, "{payload} payload bytes to renew a lease");
    assert_eq!(rtses[1].stats().copies_fetched, fetched, "state re-shipped");
    // The renewal took; the next read is leased again.
    let leased = rtses[1].inner.lease.local_reads.get();
    assert_eq!(bank_sum(&rtses[1], id), 2_000);
    assert!(rtses[1].inner.lease.local_reads.get() > leased);
    assert_eq!(net.stats().since(&before).total_messages(), 2);

    // A write whose push cannot reach the mirror waits its grant out
    // and leaves it a version behind: that renewal ships the state.
    net.crash(NodeId(1));
    assert_eq!(deposit(&rtses[0], id, 0, 5), 6);
    net.recover(NodeId(1));
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(bank_sum(&rtses[1], id), 2_005);
    assert_eq!(rtses[1].stats().copies_fetched, fetched + 1);
    shutdown_all(&rtses);
}

/// Recovery fences adopted state: the adopter cannot know which leases
/// the dead home granted, so the promoted slot starts under a
/// conservative fence that the first write waits out (reads are
/// exempt — they serve the promoted committed state).
#[test]
fn adoption_fences_writes_for_a_grant_span() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        read_lease_ms: 150,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
    let id = rtses[2]
        .create_encoded(Accumulator::TYPE_NAME, &1i64.to_bytes())
        .unwrap();
    for rts in &rtses {
        for _ in 0..24 {
            assert_eq!(read(rts, id), 1);
        }
        rts.flush_usage(id);
    }
    assert_eq!(rtses[0].propose(id).unwrap(), RegimeKind::Replicated);
    assert_eq!(read(&rtses[0], id), 1);
    assert_eq!(read(&rtses[1], id), 1);

    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    // A read adopts the object on node 0 (lowest live), which promotes a
    // mirror in place, and is served without waiting for the fence.
    assert_eq!(read(&rtses[1], id), 1);
    let (_, _, owners) = rtses[0].placement_of(id).unwrap();
    let slot = slot_of(&rtses[owners[0].index()], id).expect("a mirror was promoted");
    assert!(
        slot.leases.lock().fence.is_some(),
        "adoption must arm the write fence"
    );
    // The first write waits the fence out, then clears it.
    assert_eq!(add(&rtses[1], id, 5), 6);
    assert!(
        slot.leases.lock().fence.is_none(),
        "the write consumed the fence"
    );
    shutdown_all(&rtses);
}
/// Three nodes, `id` in the replicated regime with long-leased mirrors
/// everywhere and every node's table cache warm; no usage reports.
fn replicated_cluster(net: &Network, op_timeout: Duration) -> (Vec<AdaptiveRts>, ObjectId) {
    let policy = AdaptivePolicy {
        op_timeout,
        window: u64::MAX,
        regime_lease: Duration::from_secs(10),
        read_lease_ms: 10_000,
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated).unwrap();
    for rts in &rtses {
        assert_eq!(read(rts, id), 0);
    }
    (rtses, id)
}

/// The cost claim for the replicated regime, counted on the wire: with
/// mirrors on both other nodes and the writer one of them a write is
/// WriteThrough + Update + ack + Installed — the one mirror pushed to
/// is the last of its fan-out, and never locked; to a copy without mirrors
/// it is the request and the reply.
#[test]
fn replicated_write_costs_four_messages_and_an_unmirrored_write_two() {
    let net = Network::reliable(3);
    let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
    let counters = &rtses[0].inner.update;
    let renewals = rtses[0].inner.lease.renewals.get();
    let before = net.stats();
    assert_eq!(add(&rtses[1], id, 3), 3);
    assert_eq!(net.stats().since(&before).total_messages(), 4);
    assert_eq!(counters.pushes.get(), 1);
    assert_eq!(counters.unlock_notifies.get(), 0);
    assert_eq!(counters.reply_installs.get(), 1);
    assert_eq!(
        rtses[0].inner.lease.renewals.get(),
        renewals + 2,
        "both mirrors' leases are renewed: one by the update, one by the reply"
    );
    // Both mirrors are current and serve reads locally.
    let before = net.stats();
    assert_eq!(read(&rtses[1], id), 3);
    assert_eq!(read(&rtses[2], id), 3);
    assert_eq!(net.stats().since(&before).total_messages(), 0);

    let lonely = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    assert_eq!(add(&rtses[1], lonely, 1), 1); // fetches the table
    let before = net.stats();
    assert_eq!(add(&rtses[1], lonely, 1), 2);
    assert_eq!(net.stats().since(&before).total_messages(), 2);
    shutdown_all(&rtses);
}

/// Run `write` on a cluster whose network holds every message, releasing
/// them one at a time, and return what `observe` saw each time a message
/// was waiting to be released — one entry a message. The protocol is
/// sequential up to its unlocks, so "a message is waiting" means the one
/// before it has been handled.
fn released_one_by_one<T>(
    net: &Network,
    write: impl FnOnce() + Send,
    observe: impl Fn() -> T,
) -> Vec<T> {
    net.set_scheduler(Some(orca_amoeba::sched::SchedulerConfig::default()));
    let mut seen = Vec::new();
    std::thread::scope(|scope| {
        let writer = scope.spawn(write);
        while !writer.is_finished() || !net.sched_pending().is_empty() {
            if let Some(next) = net.sched_pending().first() {
                seen.push(observe());
                assert!(net.sched_release(next.id));
            }
            std::thread::yield_now();
        }
    });
    net.set_scheduler(None);
    seen
}

/// The fan-out with more than one mirror, on four nodes: `2 + 3k − 1`
/// messages — the owner's write with three mirrors is 3 pushes, 3
/// acknowledgements and 2 unlocks, a mirror's write-through with two
/// others 7 — and between the phases every mirror pushed to is locked
/// but the last, which never is.
#[test]
fn a_write_locks_every_mirror_it_pushes_to_but_the_last() {
    let net = Network::reliable(4);
    let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
    let locked = || [1, 2, 3].map(|node: usize| rtses[node].mirror_of(id).2);
    let unlocks = &rtses[0].inner.update.unlock_notifies;

    let seen = released_one_by_one(&net, || assert_eq!(add(&rtses[0], id, 3), 3), locked);
    assert_eq!(seen.len(), 8);
    // Waiting: Update, ack, Update, ack, Update, ack, then the unlocks.
    let (f, t) = (false, true);
    let phases = [
        [f, f, f],
        [t, f, f],
        [t, f, f],
        [t, t, f],
        [t, t, f],
        [t, t, f],
    ];
    assert_eq!(seen[..6], phases);
    assert!(seen.iter().all(|locked| !locked[2]), "the last was locked");
    assert_eq!(unlocks.get(), 2);
    eventually("both unlocks land", || locked() == [f, f, f]);
    for rts in &rtses {
        assert_eq!(read(rts, id), 3);
    }

    // Node 1 writes through its mirror: nodes 2 and 3 are pushed to.
    let seen = released_one_by_one(&net, || assert_eq!(add(&rtses[1], id, 1), 4), locked);
    assert_eq!(seen.len(), 7);
    // Waiting: WriteThrough, Update, ack, Update, ack, unlock, Installed.
    assert_eq!(
        seen[..5],
        [[f, f, f], [f, f, f], [f, t, f], [f, t, f], [f, t, f]]
    );
    assert!(seen.iter().all(|locked| !locked[2]), "the last was locked");
    assert_eq!(unlocks.get(), 3);
    eventually("the unlock lands", || locked() == [f, f, f]);
    for rts in &rtses {
        assert_eq!(read(rts, id), 4);
    }
    shutdown_all(&rtses);
}

/// A mirror whose node stopped answering, with no detector to say so,
/// costs the write that finds out half its deadline — and no write
/// after it: the failed push has the home re-place the object without
/// the mirror, there and then, not at some later evaluation.
#[test]
fn an_unanswering_mirror_costs_one_write_its_push_budget_not_every_write() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(600),
        read_lease_ms: 0,
        ..manual_exact()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[0], id, &[0, 8, 8], &[8, 0, 0]).unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (0, vec![1, 2]));
    assert_eq!(read(&rtses[1], id), 0);

    net.crash(NodeId(2));
    let started = Instant::now();
    assert_eq!(add(&rtses[0], id, 1), 1);
    assert!(started.elapsed() >= policy.op_timeout / 2);
    eventually("the failed push re-places", || {
        replicated_at(&rtses[0], id) == (0, vec![1])
    });
    assert_eq!(add(&rtses[0], id, 1), 2);
    assert_eq!(add(&rtses[0], id, 1), 3);
    assert!(
        started.elapsed() < policy.op_timeout,
        "three writes cost one push budget, not three"
    );
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 2);
    assert_eq!(read(&rtses[1], id), 3);
    shutdown_all(&rtses);
}

/// Two writers on one mirror-holding node, racing a writer on another:
/// acknowledgements and pushed updates that arrive ahead of their
/// predecessor wait for it, and no mirror is ever re-fetched.
#[test]
fn concurrent_write_throughs_keep_every_mirror_and_converge() {
    let net = Network::reliable(3);
    let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
    let fetched: Vec<u64> = rtses.iter().map(|r| r.stats().copies_fetched).collect();
    const PER_WRITER: i64 = 40;
    let start = Arc::new(std::sync::Barrier::new(3));
    let writers: Vec<_> = [1usize, 1, 2]
        .into_iter()
        .map(|node| {
            let rts = rtses[node].clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..PER_WRITER {
                    add(&rts, id, 1);
                    // Read-your-writes on the local mirror, every time.
                    assert!(read(&rts, id) >= 1);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    for (rts, fetched) in rtses.iter().zip(fetched) {
        assert_eq!(read(rts, id), 3 * PER_WRITER);
        assert_eq!(rts.stats().copies_fetched, fetched, "mirror re-fetched");
    }
    assert_eq!(
        rtses[0].inner.update.reply_installs.get(),
        3 * PER_WRITER as u64
    );
    shutdown_all(&rtses);
}

/// A guarded read in a pipelined window resolves `Blocked` at once, so the
/// operations behind it do not wait for its guard; re-entered behind them,
/// it finds the guard true. (A call parks on the mirror instead.)
#[test]
fn a_pipelined_guarded_mirror_read_does_not_hold_up_its_window() {
    let net = Network::reliable(3);
    let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
    let (guarded, add) = (AccumulatorOp::AwaitAtLeast(1), AccumulatorOp::Add(1));
    let (guarded, add) = (guarded.to_bytes(), add.to_bytes());
    let window = [
        (OpKind::Read, &guarded[..], TraceId::NONE),
        (OpKind::Write, &add[..], TraceId::NONE),
    ];
    let started = Instant::now();
    let handles = rtses[1].invoke_many(id, Accumulator::TYPE_NAME, &window);
    assert_eq!(i64::from_bytes(&handles[1].wait().unwrap()).unwrap(), 1);
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "the write waited {took:?} for a guard"
    );
    assert_eq!(i64::from_bytes(&handles[0].wait().unwrap()).unwrap(), 1);
    shutdown_all(&rtses);
}

/// Start a guarded read of `id` on `rts` that blocks until `id` reaches
/// `at_least`, on its own thread.
fn await_at_least(
    rts: &AdaptiveRts,
    id: ObjectId,
    at_least: i64,
) -> std::thread::JoinHandle<Result<Vec<u8>, RtsError>> {
    let (rts, op) = (
        rts.clone(),
        AccumulatorOp::AwaitAtLeast(at_least).to_bytes(),
    );
    std::thread::spawn(move || rts.invoke(id, Accumulator::TYPE_NAME, OpKind::Read, &op))
}

/// A guarded read on a leased mirror waits on the mirror for the update
/// that makes its guard true — one wait, however long it blocks — instead
/// of handing the guard back to a retry loop.
#[test]
fn a_blocked_guard_on_a_leased_mirror_waits_once() {
    let net = Network::reliable(3);
    let (rtses, id) = replicated_cluster(&net, Duration::from_secs(10));
    let before = net.stats();
    let waiter = await_at_least(&rtses[1], id, 1);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(add(&rtses[2], id, 1), 1);
    assert_eq!(
        i64::from_bytes(&waiter.join().unwrap().unwrap()).unwrap(),
        1
    );
    let waits: Vec<u64> = rtses.iter().map(|rts| rts.stats().guard_retries).collect();
    assert_eq!(waits, [0, 1, 0]);
    // The reader read its mirror: all it sent was its acknowledgement of the
    // update that woke it.
    assert_eq!(
        net.stats().since(&before).node(NodeId(1)).messages_sent(),
        1
    );
    shutdown_all(&rtses);
}

/// A call parked on a guard — at a remote owner, or on a mirror — is let
/// go when either end shuts down: the caller's wait ends with its node, and
/// the owner answers what it parked before its service stops. A mirror
/// learns of its owner's end from the failure detector.
#[test]
fn a_blocked_guard_ends_when_either_node_shuts_down() {
    let prompt = |what: &str, shut: &AdaptiveRts, waiter: std::thread::JoinHandle<_>| {
        std::thread::sleep(Duration::from_millis(100));
        assert!(!waiter.is_finished(), "{what}: the guard did not block");
        let started = Instant::now();
        shut.shutdown();
        let result: Result<Vec<u8>, RtsError> = waiter.join().unwrap();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{what}: let go after {took:?}"
        );
        result.unwrap_err()
    };
    // Parked at the owner, node 0: no mirror, no detector.
    for shut in [0, 1] {
        let net = Network::reliable(2);
        let rtses = start_all(&net, manual());
        let id = rtses[0]
            .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let err = prompt(
            "at the owner",
            &rtses[shut],
            await_at_least(&rtses[1], id, 1),
        );
        if shut == 1 {
            assert_eq!(err, RtsError::Terminated);
        }
        shutdown_all(&rtses);
    }
    // Parked on node 1's mirror, its lease long: its own shutdown wakes it,
    // and its owner's is a death the detector declares.
    let detector = RecoveryConfig {
        heartbeat_every: Duration::from_millis(20),
        suspect_after: 15,
        ..RecoveryConfig::detect_only()
    };
    for shut in [1, 0] {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            regime_lease: Duration::from_secs(10),
            read_lease_ms: 10_000,
            ..manual()
        };
        let rtses = start_all_recoverable(&net, policy, detector);
        let id = rtses[0]
            .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let home = rtses[0].inner.homes.read().get(&id).cloned().unwrap();
        switch_regime(&rtses[0].inner, id, &home, RegimeKind::Replicated).unwrap();
        assert_eq!(read(&rtses[1], id), 0);
        assert!(rtses[1].mirror_of(id).0, "no mirror at node 1");
        let err = prompt(
            "on a mirror",
            &rtses[shut],
            await_at_least(&rtses[1], id, 1),
        );
        let expected = [RtsError::NodeDown(NodeId(0)), RtsError::Terminated];
        assert_eq!(err, expected[shut]);
        shutdown_all(&rtses);
    }
}

/// A typed call to this node is served in place, with nothing on the wire;
/// a fan-out answers in leg order, this node's leg among the others'.
#[test]
fn a_call_to_this_node_puts_nothing_on_the_wire() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, manual());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let holdings = |node| (NodeId(node), RegimeMsg::Holdings { object: id.0 });
    let slots = |legs: Vec<_>| -> Vec<usize> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let replies = regime_fan_out(&rtses[0].inner, legs, deadline);
        let held = |reply| match reply {
            Ok(RegimeReply::Holdings(held)) => held.slots.len(),
            other => panic!("answered {other:?}"),
        };
        replies.into_iter().map(held).collect()
    };
    let before = net.stats();
    assert_eq!(slots(vec![holdings(0)]), [1]);
    assert_eq!(net.stats().since(&before).total_messages(), 0);
    assert_eq!(
        slots(vec![holdings(1), holdings(0), holdings(2)]),
        [0, 1, 0]
    );
    assert_eq!(net.stats().since(&before).total_messages(), 4);
    shutdown_all(&rtses);
}

/// A pipelined window with a batch for a node already declared dead: that
/// batch's operations resolve `NodeDown` without a frame sent to the node,
/// and this node's own batch of the round applies all the same.
#[test]
fn a_batch_for_a_declared_dead_owner_is_never_sent() {
    let net = Network::reliable(3);
    // Detection alone, its heartbeats seconds apart: the death is declared
    // by hand, and nothing else goes to that node meanwhile.
    let recovery = RecoveryConfig {
        heartbeat_every: Duration::from_secs(2),
        suspect_after: 1000,
        ..RecoveryConfig::detect_only()
    };
    let policy = AdaptivePolicy {
        window: u64::MAX,
        ..AdaptivePolicy::sharded(2)
    };
    let rtses = start_all_recoverable(&net, policy, recovery);
    let id = new_bank(&rtses[0]);
    rtses[0].migrate(id, 0, NodeId(0)).unwrap();
    rtses[0].migrate(id, 1, NodeId(1)).unwrap();
    let logic = rtses[0]
        .inner
        .registry
        .shard_logic(Bank::TYPE_NAME)
        .unwrap();
    let deposit_to = |partition| {
        let deposit = |key| BankOp::Deposit { key, amount: 5 }.to_bytes();
        let routed =
            |op: &Vec<u8>| matches!(logic.route(op, 2), Ok(ShardRoute::One(p)) if p == partition);
        (0..).map(deposit).find(routed).unwrap()
    };
    let (here, there) = (deposit_to(0), deposit_to(1));
    rtses[0]
        .inner
        .detector
        .as_ref()
        .unwrap()
        .declare_dead(NodeId(1));
    let (before, served) = (net.stats(), rtses[1].stats().updates_applied);
    let window = [
        (OpKind::Write, &here[..], TraceId::NONE),
        (OpKind::Write, &there[..], TraceId::NONE),
    ];
    let handles = rtses[0].invoke_many(id, Bank::TYPE_NAME, &window);
    assert_eq!(handles[1].wait(), Err(RtsError::NodeDown(NodeId(1))));
    let BankReply::Value(balance) = BankReply::from_bytes(&handles[0].wait().unwrap()).unwrap();
    assert_eq!(balance, 5);
    assert_eq!(net.stats().since(&before).node(NodeId(1)).interrupts, 0);
    assert_eq!(rtses[1].stats().updates_applied, served);
    shutdown_all(&rtses);
}

fn new_bank(rts: &AdaptiveRts) -> ObjectId {
    rts.create_encoded(
        Bank::TYPE_NAME,
        &<Bank as ObjectType>::State::new().to_bytes(),
    )
    .unwrap()
}

/// Policy under which nothing reports: tests place by hand.
fn manual() -> AdaptivePolicy {
    AdaptivePolicy {
        window: u64::MAX,
        ..AdaptivePolicy::eager()
    }
}

/// Replace the home's evidence for `id` with `weights[node]` writes per
/// node and force a switch to the sharded regime over it (a
/// re-placement when the object is sharded already).
fn place_by(rts: &AdaptiveRts, id: ObjectId, weights: &[u64]) -> Result<(), RtsError> {
    let home = rts.inner.homes.read().get(&id).cloned().unwrap();
    *home.usage.lock() = UsageAggregate::of_writes(weights);
    switch_regime(&rts.inner, id, &home, RegimeKind::Sharded)
}

/// Owners of `id`'s partitions as the home publishes them.
fn owners_of(rts: &AdaptiveRts, id: ObjectId) -> Vec<u16> {
    let (_, _, owners) = rts.placement_of(id).unwrap();
    owners.into_iter().map(|owner| owner.0).collect()
}

/// Counted on the wire: two of three nodes write a table the third created
/// and never touches again. Under the sharded pin the partitions end up on
/// the two writers, half of each writer's operations stay local, and an
/// operation costs about one message (2 × ½ shipped + 2/64 usage reports)
/// where the fixed spread over all three nodes costs 1.25 — what the
/// unpinned engine's copy at one of the writers costs too.
#[test]
fn partitions_follow_the_writers_and_half_the_writes_stay_local() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, AdaptivePolicy::sharded(4));
    let id = new_bank(&rtses[0]);
    let mut deposits = 0u64;
    let mut write = |count: u64| {
        for _ in 0..count {
            deposit(&rtses[1 + (deposits % 2) as usize], id, deposits / 2, 1);
            deposits += 1;
        }
    };
    write(1024);
    let (regime, _, owners) = rtses[1].placement_of(id).unwrap();
    assert_eq!(regime, RegimeKind::Sharded);
    assert_eq!(owners.len(), 4);
    assert!(
        !owners.contains(&NodeId(0)),
        "the idle home owns a partition: {owners:?}"
    );
    assert!(owners.contains(&NodeId(1)) && owners.contains(&NodeId(2)));
    let switches = rtses[0].stats().regime_switches;
    let before = net.stats();
    write(2000);
    let per_op = net.stats().since(&before).total_messages() as f64 / 2000.0;
    assert!(per_op <= 1.1, "{per_op} messages per operation");
    assert_eq!(
        rtses[0].stats().regime_switches,
        switches,
        "placement must not move under a steady load"
    );
    assert_eq!(bank_sum(&rtses[0], id), deposits as i64);
    shutdown_all(&rtses);
}

/// Under the sharded pin the first evaluation can fire on one node's
/// reports alone and put every partition there; the next one, with the
/// second node's reports in, re-places — a switch to the same regime — and
/// both own partitions.
#[test]
fn thin_evidence_heals_at_the_next_evaluation() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        pin: Some(RegimeKind::Sharded),
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = new_bank(&rtses[0]);
    for key in 0..16u64 {
        deposit(&rtses[1], id, key, 1);
    }
    eventually("two reports of eight are an evaluation window", || {
        rtses[0].regime_of(id).unwrap() == (RegimeKind::Sharded, 1)
    });
    assert_eq!(owners_of(&rtses[0], id), vec![1, 1, 1, 1]);
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 1);

    for key in 0..16u64 {
        deposit(&rtses[2], id, key, 1);
    }
    eventually("the second node's reports re-place", || {
        rtses[0].regime_of(id).unwrap().1 == 2
    });
    let (regime, epoch, owners) = rtses[2].placement_of(id).unwrap();
    assert_eq!((regime, epoch), (RegimeKind::Sharded, 2));
    for node in [NodeId(1), NodeId(2)] {
        assert_eq!(owners.iter().filter(|o| **o == node).count(), 2);
    }
    assert_eq!(rtses[0].stats().regime_switches, 2);
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 2);
    assert_eq!(bank_sum(&rtses[1], id), 32);
    shutdown_all(&rtses);
}

/// Under the sharded pin the writers move from nodes {1, 2} to {0, 1}:
/// node 0 joins at once; node 2's decayed share runs out three windows
/// later, and once it has also been silent for a regime lease its
/// partitions leave — and then nothing moves any more.
#[test]
fn workload_shift_moves_the_partitions_and_then_stops() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        pin: Some(RegimeKind::Sharded),
        ..AdaptivePolicy::eager()
    };
    let rtses = start_all(&net, policy);
    let id = new_bank(&rtses[0]);
    let mut deposits = 0u64;
    // One evaluation window of deposits, alternating over `nodes`.
    let mut window = |nodes: [usize; 2]| {
        for _ in 0..2 * policy.window {
            deposit(&rtses[nodes[(deposits % 2) as usize]], id, deposits % 64, 1);
            deposits += 1;
        }
    };
    for _ in 0..8 {
        window([1, 2]);
    }
    let settled = owners_of(&rtses[0], id);
    assert!(settled.iter().all(|owner| [1, 2].contains(owner)));
    assert!(settled.contains(&1) && settled.contains(&2));

    let shifted = Instant::now();
    let mut windows = 0;
    while owners_of(&rtses[0], id).contains(&2) {
        windows += 1;
        assert!(
            shifted.elapsed() < Duration::from_secs(10),
            "node 2 still owns a partition"
        );
        window([0, 1]);
    }
    // Halved at every evaluation, node 2's seven decayed writes read
    // 3, 1, 0: a share of an owner's eighth for two windows, no
    // evidence of use at the third. How many more its grace adds is
    // the machine's speed.
    assert!(windows >= 3, "evicted on evidence of use");
    assert!(
        shifted.elapsed() >= policy.regime_lease / 2,
        "evicted while its last report was fresh"
    );
    let moved = owners_of(&rtses[0], id);
    assert!(moved.contains(&0) && moved.contains(&1));
    let switches = rtses[0].stats().regime_switches;
    for _ in 0..20 {
        window([0, 1]);
    }
    assert_eq!(rtses[0].stats().regime_switches, switches);
    assert_eq!(owners_of(&rtses[0], id), moved);
    assert_eq!(bank_sum(&rtses[2], id), deposits as i64);
    shutdown_all(&rtses);
}

/// Eight writers hammer a sharded bank while its partitions are moved
/// from one set of owners to the next. Every acknowledged deposit must
/// survive, exactly as across switches between regimes: it lands
/// before the drain's snapshot or is answered `StaleRegime` and retried
/// under the new epoch.
#[test]
fn re_placements_under_concurrent_writers_lose_nothing() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, manual());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[1, 1, 1]).unwrap();
    const DEPOSITS: i64 = 100;
    let start = Arc::new(std::sync::Barrier::new(9));
    let writers: Vec<_> = (0..8)
        .map(|writer| {
            let rts = rtses[writer % 3].clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..DEPOSITS {
                    deposit(&rts, id, (i % 16) as u64, 1);
                }
            })
        })
        .collect();
    start.wait();
    let rounds: [&[u64]; 8] = [
        &[0, 1, 1],
        &[1, 1, 0],
        &[0, 0, 1],
        &[1, 0, 1],
        &[1, 1, 1],
        &[0, 1, 0],
        &[1, 0, 0],
        &[0, 1, 1],
    ];
    for weights in rounds {
        place_by(&rtses[0], id, weights).unwrap();
        let users: Vec<u16> = (0..3u16).filter(|n| weights[*n as usize] > 0).collect();
        let owners = owners_of(&rtses[0], id);
        assert!(owners.iter().all(|owner| users.contains(owner)));
        std::thread::sleep(Duration::from_millis(5));
    }
    for writer in writers {
        writer.join().unwrap();
    }
    assert_eq!(
        bank_sum(&rtses[1], id),
        8 * DEPOSITS,
        "acknowledged writes were lost across re-placements"
    );
    assert_eq!(rtses[0].stats().regime_switches, 9);
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 8);
    shutdown_all(&rtses);
}

/// The dedup window travels with a re-placed partition: a stamped write
/// applied at the old owner and re-presented at the new one is answered
/// its recorded reply, not applied again.
#[test]
fn dedup_window_survives_a_re_placement() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, manual());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 0]).unwrap();
    let key = 5u64;
    let partition = orca_object::shard::shard_of_u64(key, 4);
    let stamp = OpStamp { origin: 2, seq: 9 };
    let op = BankOp::Deposit { key, amount: 7 }.to_bytes();
    let present = |owner: usize, epoch: u64| {
        let inner = &rtses[owner].inner;
        match apply_at_slot(
            inner,
            id,
            partition,
            epoch,
            &op,
            Some(stamp),
            NodeId(2),
            false,
        ) {
            RegimeReply::Done(reply) => BankReply::from_bytes(&reply).unwrap(),
            other => panic!("stamped write not answered: {other:?}"),
        }
    };
    assert_eq!(present(1, 1), BankReply::Value(7));
    place_by(&rtses[0], id, &[0, 0, 1]).unwrap();
    assert_eq!(owners_of(&rtses[0], id), vec![2, 2, 2, 2]);
    assert!(matches!(
        apply_at_slot(
            &rtses[1].inner,
            id,
            partition,
            1,
            &op,
            Some(stamp),
            NodeId(2),
            false
        ),
        RegimeReply::StaleRegime
    ));
    assert_eq!(present(2, 2), BankReply::Value(7));
    assert_eq!(bank_sum(&rtses[0], id), 7, "retry must not double-apply");
    shutdown_all(&rtses);
}

/// A re-placement whose new owner cannot take its partition puts every
/// partition back where it was, under the epoch it had: the old owners
/// were serving a moment ago, so nothing collapses onto the home.
#[test]
fn failed_re_placement_leaves_the_old_owners_serving() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(300),
        ..manual()
    };
    let rtses = start_all(&net, policy);
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[1, 1, 0]).unwrap();
    let placed = rtses[1].placement_of(id).unwrap();
    for key in 0..16u64 {
        deposit(&rtses[1], id, key, 1);
    }
    net.crash(NodeId(2));
    assert!(place_by(&rtses[0], id, &[1, 1, 1]).is_err());
    assert_eq!(rtses[1].placement_of(id).unwrap(), placed);
    assert_eq!(rtses[0].stats().regime_switches, 1);
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 0);
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[1], id, key, 1), 2);
    }
    assert_eq!(bank_sum(&rtses[0], id), 32);
    shutdown_all(&rtses);
}

/// A re-placement undone because an owner did not answer leaves the
/// partitions it re-stamped mirrored as they were: the re-stamp primed its
/// mirrors under the next epoch, and the re-stamp that undoes it drops
/// those copies (a drop leaves a copy before the epoch it retires) and
/// primes them again under the epoch they had. A reader of a partition of
/// a live owner goes on reading its mirror.
#[test]
fn an_undone_re_stamp_leaves_its_mirrors_reading_locally() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(300),
        regime_lease: Duration::from_secs(10),
        read_lease_ms: 0,
        ..manual()
    };
    let rtses = start_all(&net, policy);
    let id = new_bank(&rtses[0]);
    let (reads, writes) = (&[0, 64][..], &[64, 64, 64][..]);
    rtses[0]
        .place_by_use(id, RegimeKind::Sharded, reads, writes)
        .unwrap();
    let (_, epoch, owners) = rtses[0].placement_of(id).unwrap();
    assert_eq!(rtses[0].copy_holders(id).unwrap(), vec![NodeId(1)]);
    assert!(owners.contains(&NodeId(2)), "{owners:?}");
    let key = (0..64u64)
        .find(|key| owners[shard_of_u64(*key, 4) as usize] == NodeId(0))
        .expect("a key of node 0");
    assert_eq!(deposit(&rtses[1], id, key, 5), 5);

    net.crash(NodeId(2));
    let more = &[0, 64, 64][..];
    assert!(rtses[0]
        .place_by_use(id, RegimeKind::Sharded, more, writes)
        .is_err());
    assert_eq!(rtses[0].placement_of(id).unwrap().1, epoch);
    let before = net.stats();
    let get = BankOp::Get(key).to_bytes();
    let read = rtses[1]
        .invoke(id, Bank::TYPE_NAME, OpKind::Read, &get)
        .unwrap();
    assert_eq!(BankReply::from_bytes(&read).unwrap(), BankReply::Value(5));
    let sent = net.stats().since(&before).node(NodeId(1)).messages_sent();
    assert_eq!(sent, 0, "node 1 read its mirror of a partition of node 0");
    shutdown_all(&rtses);
}

/// A table asked for while a re-placement is in flight is the one the
/// switch publishes, not the one it retires: a caller that bounced off a
/// drained slot would only bounce again. Every message is held and released
/// one at a time; the `Route` is released while the switch's first `Drain`
/// is still held, so the switch cannot have published yet.
#[test]
fn a_route_during_a_switch_is_answered_with_the_next_epoch() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, manual());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
    let epoch = rtses[0].regime_of(id).unwrap().1;
    let pending_from = |node: u16| {
        let mut pending = net.sched_pending().into_iter();
        pending.find(|held| held.id.src == NodeId(node))
    };
    let taken = net
        .telemetry()
        .registry()
        .counter(orca_amoeba::rpc::REQUESTS);
    net.set_scheduler(Some(orca_amoeba::sched::SchedulerConfig::default()));
    let routed = std::thread::scope(|scope| {
        let switch = scope.spawn(|| place_by(&rtses[0], id, &[1, 1, 0]));
        // Nodes 1 and 2 own every partition: the switch starts by draining
        // one of them, under its switch lock.
        while pending_from(0).is_none() {
            std::thread::yield_now();
        }
        let route = scope.spawn(|| rtses[2].regime_of(id));
        let request = loop {
            match pending_from(2) {
                Some(held) => break held,
                None => std::thread::yield_now(),
            }
        };
        let before = taken.get();
        assert!(net.sched_release(request.id));
        // The home's worker has the request before the drain moves.
        while taken.get() == before {
            std::thread::yield_now();
        }
        while !switch.is_finished() || !route.is_finished() || !net.sched_pending().is_empty() {
            if let Some(next) = net.sched_pending().first() {
                assert!(net.sched_release(next.id));
            }
            std::thread::yield_now();
        }
        switch.join().unwrap().unwrap();
        route.join().unwrap()
    });
    net.set_scheduler(None);
    assert_eq!(routed.unwrap(), (RegimeKind::Sharded, epoch + 1));
    assert_eq!(rtses[0].regime_of(id).unwrap().1, epoch + 1);
    shutdown_all(&rtses);
}

/// A cached table is distrusted as soon as *any* of its owners is dead,
/// not only the first: with owners chosen by use no slot is special.
#[test]
fn cached_table_with_any_dead_owner_is_refetched() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        regime_lease: Duration::from_secs(10),
        ..manual()
    };
    let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
    // Two users alternate: partition 1 lives on the one that does not
    // own partition 0, and neither is the home.
    let owners = owners_of(&rtses[0], id);
    let victim = owners[1];
    let client = &rtses[usize::from(owners[0])];
    assert!(victim != owners[0] && victim != 0);
    let key = (0..64u64)
        .find(|key| orca_object::shard::shard_of_u64(*key, 4) == 1)
        .unwrap();
    assert_eq!(deposit(client, id, key, 1), 1);

    // When the client last fetched the table (heartbeats share the
    // wire, so messages cannot be counted here).
    let fetched = |rts: &AdaptiveRts| {
        let deadline = Instant::now() + policy.op_timeout;
        rts.route_for(id, deadline).unwrap();
        rts.inner.routes.lock().get(&id).expect("cached").1
    };
    let cached = fetched(client);
    assert_eq!(fetched(client), cached, "long lease, every owner alive");
    net.crash(NodeId(victim));
    wait_for_death(&rtses, NodeId(victim));
    assert!(
        fetched(client) > cached,
        "partition 1's owner died: the table must come from the home again"
    );
    shutdown_all(&rtses);
}

/// A partition on a dead node cannot be drained, so a re-placement away
/// from it is refused before it withdraws the partitions that still
/// serve. (Detection only: with re-homing on, the dead owner's
/// partitions are promoted from their keepers and no owner is dead.)
#[test]
fn re_placement_with_a_dead_owner_withdraws_nothing() {
    let net = Network::reliable(3);
    let detect_only = RecoveryConfig {
        rehome: false,
        ..crate::recovery::patient()
    };
    let rtses = start_all_recoverable(&net, manual(), detect_only);
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
    let placed = rtses[0].placement_of(id).unwrap();
    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    let drained = rtses[1].stats().copies_dropped;
    assert_eq!(
        place_by(&rtses[0], id, &[0, 1, 0]),
        Err(RtsError::NodeDown(NodeId(2)))
    );
    assert_eq!(rtses[1].stats().copies_dropped, drained);
    assert_eq!(rtses[0].placement_of(id).unwrap(), placed);
    shutdown_all(&rtses);
}

/// A switch undone after a kept owner re-stamped its partition and died —
/// so that nobody could re-stamp it back — leaves the partition's newest
/// state in its keeper, primed under the next epoch: recovery promotes that
/// keeper under the epoch the table still has, and the acknowledged
/// deposit survives.
#[test]
fn a_keeper_of_the_next_epoch_stands_in_for_a_re_stamp_not_taken_back() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
    let (_, epoch, owners) = rtses[0].placement_of(id).unwrap();
    let partition = owners.iter().position(|owner| *owner == NodeId(2)).unwrap() as u32;
    let key = (0..64u64)
        .find(|key| shard_of_u64(*key, 4) == partition)
        .unwrap();
    assert_eq!(deposit(&rtses[0], id, key, 5), 5);
    let restamp = RegimeMsg::Install {
        object: id.0,
        epoch: epoch + 1,
        partition,
        type_name: Bank::TYPE_NAME.to_string(),
        state: Vec::new(),
        dedup: DedupWindow::new(),
        regime: RegimeKind::Sharded,
        mirrors: Vec::new(),
        from: Some(epoch),
    };
    let restamped = dispatch(&rtses[2].inner, restamp, NodeId(0));
    assert!(matches!(restamped, RegimeReply::Ack), "{restamped:?}");
    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    assert_eq!(deposit(&rtses[0], id, key, 1), 6);
    let (_, recovered, owners) = rtses[0].placement_of(id).unwrap();
    assert_eq!(recovered, epoch);
    assert!(!owners.contains(&NodeId(2)), "{owners:?}");
    shutdown_all(&rtses);
}

/// An object that adapted into the sharded regime is kept like a
/// pinned one. A partition owner dies: every acknowledged write
/// survives in the promoted keeper, under the epoch it had, and a
/// stamped write the dead owner applied and acknowledged is answered
/// from the promoted dedup window when it is presented again, not
/// applied twice.
#[test]
fn sharded_regime_survives_an_owners_death_exactly_once() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[0], id, key, 2), 2);
    }
    let placed = owners_of(&rtses[0], id);
    let partition = placed.iter().position(|owner| *owner == 2).unwrap() as u32;
    let key = (0..64u64)
        .find(|key| orca_object::shard::shard_of_u64(*key, 4) == partition)
        .unwrap();
    let stamp = OpStamp { origin: 0, seq: 99 };
    let op = BankOp::Deposit { key, amount: 5 }.to_bytes();
    let present = |owner: u16| {
        let inner = &rtses[usize::from(owner)].inner;
        match apply_at_slot(inner, id, partition, 1, &op, Some(stamp), NodeId(0), false) {
            RegimeReply::Done(reply) => BankReply::from_bytes(&reply).unwrap(),
            other => panic!("stamped write not answered: {other:?}"),
        }
    };
    assert_eq!(present(2), BankReply::Value(7));

    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    // An ordinary write to the dead owner's partition waits for the
    // promotion; then the table names the survivor that kept the mirror.
    assert_eq!(deposit(&rtses[1], id, key, 1), 8);
    let (regime, epoch, owners) = rtses[1].placement_of(id).unwrap();
    assert_eq!((regime, epoch), (RegimeKind::Sharded, 1));
    assert!(!owners.contains(&NodeId(2)), "{owners:?}");
    assert_eq!(present(owners[partition as usize].0), BankReply::Value(7));
    assert_eq!(bank_sum(&rtses[0], id), 16 * 2 + 5 + 1);
    shutdown_all(&rtses);
}

/// The home of a sharded-regime object dies, a partition owner too (the
/// same node): the lowest survivor re-assembles the table from the
/// slots and kept mirrors the survivors hold, under the object's epoch, and
/// no acknowledged write is missing.
#[test]
fn sharded_regime_survives_its_homes_death() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
    let id = new_bank(&rtses[2]);
    place_by(&rtses[2], id, &[1, 1, 1]).unwrap();
    assert!(owners_of(&rtses[2], id).contains(&2));
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[1], id, key, 3), 3);
    }
    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[1], id, key, 1), 4);
    }
    assert_eq!(bank_sum(&rtses[0], id), 64);
    let (regime, epoch, owners) = rtses[1].placement_of(id).unwrap();
    assert_eq!((regime, epoch, owners.len()), (RegimeKind::Sharded, 1, 4));
    assert!(!owners.contains(&NodeId(2)), "{owners:?}");
    shutdown_all(&rtses);
}

/// A switch retires the kept mirrors of the epoch it drains. A node that
/// missed that keeps one — and when an owner dies later, such a
/// leftover is never what is promoted, however many more writes it has
/// seen than the mirror of the current epoch.
#[test]
fn a_backup_a_drain_left_behind_is_never_promoted() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
    let id = new_bank(&rtses[0]);
    place_by(&rtses[0], id, &[0, 1, 1]).unwrap();
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[0], id, key, 1), 1);
    }
    let backed_up = |rts: &AdaptiveRts| {
        let kept = holdings(&rts.inner, id).mirrors;
        kept.iter()
            .map(|(_, epoch, _)| *epoch)
            .collect::<Vec<u64>>()
    };
    assert!(
        !backed_up(&rtses[0]).is_empty(),
        "node 2's keepers are here"
    );
    place_by(&rtses[0], id, &[1, 1, 0]).unwrap();
    for rts in &rtses {
        assert!(backed_up(rts).iter().all(|epoch| *epoch == 2));
    }
    // As if node 0 had missed the drop, for a partition node 1 owns now
    // (its keeper of this epoch is on node 2).
    let doomed = owners_of(&rtses[0], id)
        .iter()
        .position(|o| *o == 1)
        .unwrap();
    let leftover = RegimeMsg::Mirror {
        object: id.0,
        epoch: 1,
        partition: Some(doomed as u32),
        type_name: Bank::TYPE_NAME.to_string(),
        state: <Bank as ObjectType>::State::new().to_bytes(),
        seq: 1_000,
        dedup: DedupWindow::new(),
        lease: None,
    };
    let planted = dispatch(&rtses[0].inner, leftover, NodeId(2));
    assert!(matches!(planted, RegimeReply::Ack));
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[0], id, key, 1), 2);
    }

    net.crash(NodeId(1));
    wait_for_death(&rtses, NodeId(1));
    for key in 0..16u64 {
        assert_eq!(deposit(&rtses[0], id, key, 1), 3);
    }
    let (_, epoch, owners) = rtses[0].placement_of(id).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(owners[doomed], NodeId(2), "{owners:?}");
    shutdown_all(&rtses);
}

/// An object that leaves the sharded regime for a single copy leaves no
/// keeper behind: when the home dies the adopter finds that copy — its
/// keeper is on the next live node, unlisted — and not the partitions as
/// they were before the switch.
#[test]
fn a_retired_sharded_regime_is_not_what_an_adopter_finds() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual(), crate::recovery::patient());
    let id = new_bank(&rtses[2]);
    // Every partition on node 0, so every keeper on node 1: all of the
    // sharded regime's state would outlive the home.
    place_by(&rtses[2], id, &[1, 0, 0]).unwrap();
    assert_eq!(deposit(&rtses[0], id, 1, 4), 4);
    let home = rtses[2].inner.homes.read().get(&id).cloned().unwrap();
    switch_regime(&rtses[2].inner, id, &home, RegimeKind::Replicated).unwrap();
    assert_eq!(replicated_at(&rtses[2], id), (0, vec![]));
    assert_eq!(deposit(&rtses[0], id, 1, 4), 8);

    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    assert_eq!(bank_sum(&rtses[1], id), 8);
    shutdown_all(&rtses);
}

/// Replace the home's evidence for `id` with `reads[node]` reads and
/// `writes[node]` writes per node and force a switch to the replicated
/// regime over it (a re-placement when the object is replicated
/// already).
fn replicate_by(
    rts: &AdaptiveRts,
    id: ObjectId,
    reads: &[u64],
    writes: &[u64],
) -> Result<(), RtsError> {
    rts.replicate_by(id, reads, writes)
}

/// Owner and mirrors of replicated-regime `id` as the home publishes
/// them.
fn replicated_at(rts: &AdaptiveRts, id: ObjectId) -> (u16, Vec<u16>) {
    let (regime, _, owners) = rts.placement_of(id).unwrap();
    assert_eq!(regime, RegimeKind::Replicated);
    assert_eq!(owners.len(), 1);
    let mirrors = rts.copy_holders(id).unwrap();
    (
        owners[0].0,
        mirrors.into_iter().map(|node| node.0).collect(),
    )
}

/// The slot of single-copy `id` on this node.
fn slot_of(rts: &AdaptiveRts, id: ObjectId) -> Option<Arc<Slot>> {
    rts.inner.slots.read().get(&(id, 0)).cloned()
}

/// [`manual`] without the grace: a forced placement is what its evidence
/// says, however lately a node it names was heard from. (The lease is
/// also how long a replicated-regime table is cached: not at all.)
fn manual_exact() -> AdaptivePolicy {
    AdaptivePolicy {
        regime_lease: Duration::ZERO,
        ..manual()
    }
}

/// The tentpole's cost claim for a placed replicated regime, counted on
/// the wire — the ledger's read-mostly cell in miniature: node 0
/// creates a counter and never touches it, nodes 1 and 2 each read it
/// nine times for every write. The copy ends up on one of the two and
/// its one mirror on the other: the owner's write is Update + ack, the
/// other's WriteThrough + Installed — 2 messages a write and the
/// one-way usage reports, where a copy at the idle home costs four.
#[test]
fn replicated_object_moves_to_its_writers_and_mirrors_its_readers() {
    let net = Network::reliable(3);
    // Long leases: no renewal and no table re-fetch is counted below.
    let policy = AdaptivePolicy {
        regime_lease: Duration::from_secs(10),
        read_lease_ms: 10_000,
        ..AdaptivePolicy::default()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let mut writes = 0i64;
    // Rounds of nine reads and a write, alternating over the two users;
    // returns the writes so far.
    let mut rounds = |count: i64| {
        for _ in 0..count {
            let rts = &rtses[1 + (writes % 2) as usize];
            for _ in 0..9 {
                assert!(read(rts, id) >= writes - 1);
            }
            writes += 1;
            assert_eq!(add(rts, id, 1), writes);
        }
        writes
    };
    rounds(100);
    let (owner, mirrors) = replicated_at(&rtses[0], id);
    assert!([1, 2].contains(&owner), "owner {owner}");
    assert_eq!(
        mirrors,
        vec![3 - owner],
        "the other user, not the idle home"
    );
    assert!(slot_of(&rtses[0], id).is_none());

    let switches = rtses[0].stats().regime_switches;
    let before = net.stats();
    let written = rounds(400);
    let per_write = net.stats().since(&before).total_messages() as f64 / 400.0;
    assert!(per_write <= 2.3, "{per_write} messages per write");
    // Reads are message-free at the owner and at its mirror alike (a
    // flushed counter: no report falls due among them).
    for rts in &rtses[1..] {
        rts.flush_usage(id);
    }
    let before = net.stats();
    for rts in &rtses[1..] {
        for _ in 0..20 {
            assert_eq!(read(rts, id), written);
        }
    }
    assert_eq!(net.stats().since(&before).total_messages(), 0);
    // Twenty more evaluation windows of the same load move nothing.
    rounds(20 * 2 * policy.window as i64 / 10);
    assert_eq!(rtses[0].stats().regime_switches, switches);
    assert_eq!(replicated_at(&rtses[0], id), (owner, mirrors));
    shutdown_all(&rtses);
}

/// The table is the truth: a node it lists no mirror for ships its
/// reads to the owner — two messages, no snapshot — cannot fetch its
/// way into the push set, and is counted: once its reads have saved more
/// than the move costs, an evaluation makes it a mirror.
#[test]
fn unlisted_reader_ships_its_reads_and_joins_at_the_next_evaluation() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, AdaptivePolicy::eager());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &3i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[0], id, &[0, 50, 50], &[0, 5, 5]).unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
    let (_, epoch) = rtses[0].regime_of(id).unwrap();

    let fetched = rtses[0].stats().copies_fetched;
    let shipped = rtses[0].stats().remote_reads;
    let before = net.stats();
    for _ in 0..4 {
        assert_eq!(read(&rtses[0], id), 3);
    }
    assert_eq!(net.stats().since(&before).total_messages(), 8);
    assert_eq!(rtses[0].stats().remote_reads, shipped + 4);
    assert_eq!(rtses[0].stats().copies_fetched, fetched);
    let fetch = RegimeMsg::FetchMirror {
        object: id.0,
        epoch,
        partition: None,
        have: None,
    };
    let refused = dispatch(&rtses[1].inner, fetch, NodeId(0));
    assert!(matches!(refused, RegimeReply::StaleRegime), "{refused:?}");

    // Twelve more reads make two reports of eight: a window, in which a
    // mirror at node 0 saves 7 messages (52 against 45) where moving costs
    // 8 (a request and a reply to drain, install and prime two mirrors).
    // Sixteen more are the next window, and the savings in a row pay.
    for _ in 0..12 {
        assert_eq!(read(&rtses[0], id), 3);
    }
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
    for _ in 0..16 {
        assert_eq!(read(&rtses[0], id), 3);
    }
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![0, 2]));
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 2);
    let before = net.stats();
    assert_eq!(read(&rtses[0], id), 3);
    assert_eq!(net.stats().since(&before).total_messages(), 0);
    assert_eq!(rtses[0].stats().copies_fetched, fetched + 1, "primed");
    // A write from the owner reaches the new mirror.
    assert_eq!(add(&rtses[1], id, 4), 7);
    assert_eq!(read(&rtses[0], id), 7);
    shutdown_all(&rtses);
}

/// The first evaluation can fire on one node's reports alone: the copy
/// goes there and nothing is mirrored. The next one, with the second
/// node's reports in, adds the mirror — a switch to the same regime —
/// and leaves the owner where it is.
#[test]
fn thin_evidence_heals_for_the_replicated_regime() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, AdaptivePolicy::eager());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    // Two reports of seven reads and a write: an evaluation window.
    let window = |rts: &AdaptiveRts| {
        for _ in 0..2 {
            for _ in 0..7 {
                read(rts, id);
            }
            add(rts, id, 1);
        }
    };
    window(&rtses[1]);
    eventually("two reports are an evaluation window", || {
        rtses[0].regime_of(id).unwrap() == (RegimeKind::Replicated, 1)
    });
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![]));
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 1);

    window(&rtses[2]);
    eventually("the second node's reports re-place", || {
        rtses[0].regime_of(id).unwrap().1 == 2
    });
    assert_eq!(rtses[2].regime_of(id).unwrap(), (RegimeKind::Replicated, 2));
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
    assert_eq!(rtses[0].stats().regime_switches, 2);
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 2);
    assert_eq!(read(&rtses[2], id), 4);
    shutdown_all(&rtses);
}

/// A writer on each of the two users and a reader beside each, while
/// the copy is moved from one user to the other eight times. No
/// observation — a read, a write's reply — may fall below a value
/// already observed anywhere when it began (the real-time floor the
/// write-through model-checker scenarios hold), every acknowledged add
/// is there exactly once, and a stamped write presented again to the
/// new owner is answered from the window that moved with the state.
#[test]
fn replicated_re_placements_under_concurrent_writers_and_readers_lose_nothing() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, manual_exact());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let reads = [0, 50, 50];
    replicate_by(&rtses[0], id, &reads, &[0, 5, 0]).unwrap();
    let floor = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = [(1, true), (1, false), (2, true), (2, false)]
        .into_iter()
        .map(|(node, writer)| {
            let rts = rtses[node].clone();
            let (floor, done) = (Arc::clone(&floor), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut added = 0i64;
                while !done.load(Ordering::SeqCst) {
                    let before = floor.load(Ordering::SeqCst);
                    let seen = if writer {
                        added += 1;
                        add(&rts, id, 1)
                    } else {
                        read(&rts, id)
                    };
                    assert!(seen >= before, "observed {seen} after {before}");
                    floor.fetch_max(seen, Ordering::SeqCst);
                }
                added
            })
        })
        .collect();
    for round in 0..8u16 {
        std::thread::sleep(Duration::from_millis(5));
        let owner = 2 - round % 2;
        let mut writes = [0, 0, 0];
        writes[usize::from(owner)] = 5;
        replicate_by(&rtses[0], id, &reads, &writes).unwrap();
        assert_eq!(replicated_at(&rtses[0], id), (owner, vec![3 - owner]));
    }
    done.store(true, Ordering::SeqCst);
    let added: i64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(added > 0);
    for rts in &rtses {
        assert_eq!(read(rts, id), added, "acknowledged adds lost or doubled");
    }
    assert_eq!(rtses[0].stats().regime_switches, 9);
    assert_eq!(rtses[0].inner.adaptive.replacements.get(), 9);

    // The copy is on node 1; a stamped write lands there, the copy
    // moves, and the same write is presented to the new owner.
    let stamp = OpStamp { origin: 0, seq: 77 };
    let op = AccumulatorOp::Add(10).to_bytes();
    let present = |owner: usize| {
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        let inner = &rtses[owner].inner;
        match apply_at_slot(inner, id, 0, epoch, &op, Some(stamp), NodeId(0), false) {
            RegimeReply::Done(reply) => i64::from_bytes(&reply).unwrap(),
            other => panic!("stamped write not answered: {other:?}"),
        }
    };
    assert_eq!(present(1), added + 10);
    replicate_by(&rtses[0], id, &reads, &[0, 0, 5]).unwrap();
    assert_eq!(present(2), added + 10);
    assert_eq!(
        read(&rtses[1], id),
        added + 10,
        "retry must not double-apply"
    );
    shutdown_all(&rtses);
}

/// A re-placement that keeps the owner and changes only the mirrors is a
/// re-stamp: the home asks the owner to serve its copy under the next epoch
/// and the owner primes the new mirror. No copy travels between the owner
/// and the home, which is neither owner nor mirror: it sends one small
/// request and gets an acknowledgement.
#[test]
fn a_replicated_re_placement_of_mirrors_ships_no_copy_to_or_from_its_owner() {
    let net = Network::reliable(3);
    let rtses = start_all(&net, manual_exact());
    let id = new_bank(&rtses[0]);
    for key in 0..256u64 {
        deposit(&rtses[1], id, key, 1);
    }
    rtses[0]
        .place_by_use(id, RegimeKind::Replicated, &[0], &[0, 64])
        .unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![]));
    let state = slot_of(&rtses[1], id).unwrap().replica.lock().state_len() as u64;
    assert!(state > 500, "a state of {state} B");
    let (before, dropped) = (net.stats(), rtses[1].stats().copies_dropped);
    rtses[0]
        .place_by_use(id, RegimeKind::Replicated, &[0, 0, 64], &[0, 64])
        .unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
    let home = net.stats().since(&before).node(NodeId(0));
    assert!(home.bytes_sent < state / 4, "the home sent {home:?}");
    assert!(
        home.bytes_received < state / 4,
        "the home received {home:?}"
    );
    assert_eq!(rtses[1].stats().copies_dropped, dropped, "nothing drained");
    assert_eq!(bank_sum(&rtses[2], id), 256);
    assert_eq!(deposit(&rtses[1], id, 0, 1), 2);
    shutdown_all(&rtses);
}

/// The owner is the grantor. After a move the new owner's ledger holds
/// the grants, booked when it primed its mirrors; the old owner's drain
/// revoked the ones it had given; and a write at the new owner whose
/// mirror cannot be reached waits that mirror's grant out.
#[test]
fn leases_move_with_the_owner() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(300),
        read_lease_ms: 400,
        ..manual_exact()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let granted = |owner: usize| {
        let slot = slot_of(&rtses[owner], id).expect("the copy is here");
        let grants = slot.leases.lock().grants.clone();
        grants
    };
    replicate_by(&rtses[0], id, &[0, 50, 50], &[0, 5, 0]).unwrap();
    assert_eq!(granted(1).keys().collect::<Vec<_>>(), [&2]);
    let revoked = rtses[1].inner.lease.revokes.get();

    replicate_by(&rtses[0], id, &[0, 50, 50], &[0, 0, 5]).unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (2, vec![1]));
    assert!(slot_of(&rtses[1], id).is_none());
    assert_eq!(rtses[1].inner.lease.revokes.get(), revoked + 1);
    assert_eq!(read(&rtses[1], id), 0);
    let expires = granted(2)[&1];

    // The mirror's node stops answering (nobody declares it dead): the
    // push to it fails, and the write may not be acknowledged while
    // the lease it holds could still be serving the old value.
    net.crash(NodeId(1));
    let waited = rtses[2].inner.lease.revokes.get();
    assert_eq!(add(&rtses[2], id, 1), 1);
    assert!(Instant::now() >= expires, "acknowledged inside the grant");
    assert_eq!(rtses[2].inner.lease.revokes.get(), waited + 1);
    shutdown_all(&rtses);
}

/// A re-placement whose new owner cannot take the copy puts it back
/// where it was, under the epoch it had, and primes its mirrors again:
/// the versions of that epoch start over, and a mirror that remembered
/// the old ones would refuse every snapshot of the copy it is given.
#[test]
fn failed_replicated_re_placement_goes_back_to_its_owner_and_mirrors() {
    let net = Network::reliable(4);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_millis(300),
        ..manual_exact()
    };
    let rtses = start_all(&net, policy);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    let reads = [0, 50, 50];
    replicate_by(&rtses[0], id, &reads, &[0, 5]).unwrap();
    let placed = rtses[2].placement_of(id).unwrap();
    for n in 1..=3 {
        assert_eq!(add(&rtses[1], id, 1), n);
        assert_eq!(read(&rtses[2], id), n);
    }
    net.crash(NodeId(3));
    assert!(replicate_by(&rtses[0], id, &reads, &[0, 0, 0, 5]).is_err());
    assert_eq!(rtses[2].placement_of(id).unwrap(), placed);
    assert_eq!(replicated_at(&rtses[0], id), (1, vec![2]));
    assert_eq!(rtses[0].stats().regime_switches, 1);
    // The mirror was primed again and is pushed to again.
    let fetched = rtses[2].stats().copies_fetched;
    assert_eq!(read(&rtses[2], id), 3);
    assert_eq!(add(&rtses[1], id, 1), 4);
    assert_eq!(read(&rtses[2], id), 4);
    assert_eq!(rtses[2].stats().copies_fetched, fetched);
    shutdown_all(&rtses);
}

/// A replicated-regime copy that lives off its home survives the home:
/// the adopter finds the owner among the survivors and publishes its
/// table again under the epoch it has, listing the readers the owner's slot
/// lists — nothing is promoted, no write fenced — and reads and writes
/// carry on.
#[test]
fn replicated_owner_off_its_home_survives_the_homes_death() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual_exact(), crate::recovery::patient());
    let id = rtses[2]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[2], id, &[50, 50, 0], &[0, 5, 0]).unwrap();
    assert_eq!(replicated_at(&rtses[2], id), (1, vec![0]));
    let (_, epoch) = rtses[2].regime_of(id).unwrap();
    assert_eq!(add(&rtses[0], id, 4), 4);
    assert_eq!(add(&rtses[1], id, 3), 7);
    let slot = slot_of(&rtses[1], id).unwrap();

    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    assert_eq!(read(&rtses[0], id), 7);
    assert_eq!(add(&rtses[0], id, 2), 9);
    assert_eq!(add(&rtses[1], id, 1), 10);
    assert_eq!(read(&rtses[0], id), 10);
    assert_eq!(
        rtses[0].regime_of(id).unwrap(),
        (RegimeKind::Replicated, epoch)
    );
    assert_eq!(replicated_at(&rtses[1], id), (1, vec![0]));
    let serving = slot_of(&rtses[1], id).unwrap();
    assert!(Arc::ptr_eq(&slot, &serving), "the copy was promoted");
    assert!(serving.leases.lock().fence.is_none());
    // The adopter is the home now: it can move the copy.
    replicate_by(&rtses[0], id, &[50, 50], &[5, 0]).unwrap();
    assert_eq!(replicated_at(&rtses[1], id), (0, vec![1]));
    assert_eq!(read(&rtses[1], id), 10);
    shutdown_all(&rtses);
}

/// A copy only its home uses has no reader to mirror it, and its table
/// lists none. With recovery on it has its keeper all the same — on the
/// next live node, unlisted, where a partition's keeper goes — and is
/// promoted from it when the home dies.
#[test]
fn unread_copy_at_its_home_is_promoted_from_its_keeper() {
    let net = Network::reliable(3);
    let rtses = start_all_recoverable(&net, manual_exact(), crate::recovery::patient());
    let id = rtses[1]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[1], id, &[], &[0, 8, 0]).unwrap();
    assert_eq!(replicated_at(&rtses[1], id), (1, vec![]));
    assert_eq!(add(&rtses[1], id, 5), 5);
    assert_eq!(rtses[2].mirror_of(id), (true, 1, false, 0));

    net.crash(NodeId(1));
    wait_for_death(&rtses, NodeId(1));
    assert_eq!(read(&rtses[2], id), 5);
    assert_eq!(replicated_at(&rtses[2], id), (2, vec![]));
    shutdown_all(&rtses);
}

/// The owner of a replicated-regime object dies, its home lives: the home
/// promotes the freshest mirror in place, under the epoch the copy had —
/// the routine that adopts a dead home's object — and no acknowledged
/// write is missing. The dead owner's grants are unknown, so the first
/// write waits a grant span.
#[test]
fn dead_replicated_owner_is_promoted_from_the_freshest_mirror() {
    let net = Network::reliable(3);
    let policy = AdaptivePolicy {
        read_lease_ms: 150,
        ..manual_exact()
    };
    let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[0], id, &[50, 50, 50], &[0, 0, 5]).unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (2, vec![0, 1]));
    let (_, epoch) = rtses[0].regime_of(id).unwrap();
    assert_eq!(add(&rtses[0], id, 4), 4);
    assert_eq!(add(&rtses[1], id, 3), 7);
    assert_eq!(add(&rtses[2], id, 2), 9);

    net.crash(NodeId(2));
    wait_for_death(&rtses, NodeId(2));
    assert_eq!(read(&rtses[1], id), 9);
    // Node 0 (the keeper) and node 1 were equally fresh: the higher id wins.
    let (regime, promoted, owners) = rtses[1].placement_of(id).unwrap();
    assert_eq!((regime, promoted), (RegimeKind::Replicated, epoch));
    assert_eq!(owners, vec![NodeId(1)]);
    let slot = slot_of(&rtses[1], id).expect("promoted in place");
    let armed = slot.leases.lock().fence.expect("the write fence is armed");
    assert_eq!(add(&rtses[1], id, 1), 10);
    assert!(Instant::now() >= armed, "a write inside the fence");
    assert!(slot.leases.lock().fence.is_none());
    assert_eq!(read(&rtses[0], id), 10);
    shutdown_all(&rtses);
}

/// How long a call waits for a re-homing is counted from the death that
/// sent it astray, not from the first one it ever saw: a guard that waits
/// out `rehome_wait` at the promoted copy outlives that owner's death too.
#[test]
fn a_second_death_after_a_long_guard_wait_is_waited_out() {
    let net = Network::reliable(4);
    let policy = AdaptivePolicy {
        op_timeout: Duration::from_secs(2),
        ..manual_exact()
    };
    let recovery = RecoveryConfig {
        rehome_wait: Duration::from_millis(500),
        ..crate::recovery::patient()
    };
    let rtses = start_all_recoverable(&net, policy, recovery);
    let id = rtses[0]
        .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
        .unwrap();
    replicate_by(&rtses[0], id, &[0, 0, 50, 0], &[0, 0, 0, 5]).unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (3, vec![2]));
    let waiter = await_at_least(&rtses[1], id, 1);

    // The owner dies; the copy is promoted at its reader, node 2 (as fresh
    // as its keeper, node 0, and of the higher id), where the guard waits
    // longer than a re-homing is waited for: a park there runs out, and the
    // call is answered `Blocked` and sent again.
    std::thread::sleep(Duration::from_millis(100));
    net.crash(NodeId(3));
    wait_for_death(&rtses, NodeId(3));
    eventually("the copy is promoted", || {
        rtses[0].placement_of(id).unwrap().2 == [NodeId(2)]
    });
    std::thread::sleep(policy.op_timeout / 2 + Duration::from_millis(300));
    assert!(policy.op_timeout / 2 > recovery.rehome_wait);

    // The copy is mirrored again, and its owner dies too.
    replicate_by(&rtses[0], id, &[50, 0, 0, 0], &[0, 0, 5, 0]).unwrap();
    assert_eq!(replicated_at(&rtses[0], id), (2, vec![0]));
    std::thread::sleep(Duration::from_millis(100));
    net.crash(NodeId(2));
    crate::recovery::wait_for_deaths(4, &[NodeId(2), NodeId(3)], &|node| {
        rtses[node.index()].membership_view()
    });
    eventually("the copy is promoted again", || {
        rtses[0].placement_of(id).unwrap().2 == [NodeId(0)]
    });
    assert!(
        !waiter.is_finished(),
        "the call gave up: {:?}",
        waiter.join()
    );
    assert_eq!(add(&rtses[0], id, 1), 1);
    let reply = waiter.join().unwrap().unwrap();
    assert_eq!(i64::from_bytes(&reply).unwrap(), 1);
    shutdown_all(&rtses);
}

/// A write-through whose acknowledgement does not arrive in time may
/// have been applied: the writer's mirror must stop serving reads.
#[test]
fn timed_out_write_through_drops_the_mirror() {
    let net = Network::reliable(3);
    let (rtses, id) = replicated_cluster(&net, Duration::from_millis(200));
    // The home never answers; the write times out at the writer.
    net.crash(NodeId(0));
    let write = rtses[1].invoke(
        id,
        Accumulator::TYPE_NAME,
        OpKind::Write,
        &AccumulatorOp::Add(9).to_bytes(),
    );
    assert_eq!(write, Err(RtsError::Timeout));
    let mirror = mirror_entry(&rtses[1].inner, (id, None));
    let state = mirror.state.lock();
    assert!(state.copy.is_none() && state.pending_writes == 0);
    drop(state);
    shutdown_all(&rtses);
}
