//! The `primary` backend — the paper's point-to-point runtime system
//! (§3.2.2): one authoritative copy, secondary copies where the object is
//! read, invalidation or a two-phase update on a write — is [`AdaptiveRts`]
//! with its regime pinned to replicated ([`AdaptivePolicy::primary_copy`]);
//! these tests hold it to what that runtime system promises. (How the copy
//! and its mirrors are *placed* by use is tested in `engine.rs` beside this
//! file, and end to end in `tests/wire_budget.rs`.)

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use orca_amoeba::network::Network;
    use orca_amoeba::NodeId;
    use orca_object::testing::{Accumulator, AccumulatorOp};
    use orca_object::{ObjectId, ObjectRegistry, ObjectType, OpKind};
    use orca_wire::{OpStamp, RegimeKind, RegimeMsg, RegimeReply, Wire};

    use crate::{
        AdaptivePolicy, AdaptiveRts, RecoveryConfig, RtsError, RtsKind, RuntimeSystem, WritePolicy,
    };

    fn registry() -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry
    }

    fn start_all_recoverable(
        net: &Network,
        policy: AdaptivePolicy,
        recovery: RecoveryConfig,
    ) -> Vec<AdaptiveRts> {
        net.node_ids()
            .into_iter()
            .map(|n| {
                AdaptiveRts::start_recoverable(net.handle(n), registry(), policy, recovery, None)
            })
            .collect()
    }

    fn start_all(net: &Network, policy: AdaptivePolicy) -> Vec<AdaptiveRts> {
        start_all_recoverable(net, policy, RecoveryConfig::disabled())
    }

    fn shutdown_all(rtses: &[AdaptiveRts]) {
        for rts in rtses {
            rts.shutdown();
        }
    }

    fn wait_for_death(rtses: &[AdaptiveRts], killed: NodeId) {
        crate::recovery::wait_for_deaths(rtses.len(), &[killed], &|node| {
            rtses[node.index()].membership_view()
        });
    }

    /// One copy at the creator and never another: nothing is reported, so
    /// nothing is ever placed.
    fn single_copy(write: WritePolicy) -> AdaptivePolicy {
        AdaptivePolicy {
            window: u64::MAX,
            ..AdaptivePolicy::primary_copy(write)
        }
    }

    /// The backend with hair-trigger thresholds: a node's eighth access is
    /// a report, two reports an evaluation.
    fn eager(write: WritePolicy) -> AdaptivePolicy {
        AdaptivePolicy {
            pin: Some(RegimeKind::Replicated),
            write,
            ..AdaptivePolicy::eager()
        }
    }

    /// Copies placed by hand ([`AdaptiveRts::replicate_by`]) and kept:
    /// nothing reports, tables and leases outlast the test.
    fn sticky_copies() -> AdaptivePolicy {
        AdaptivePolicy {
            window: u64::MAX,
            regime_lease: Duration::from_secs(10),
            read_lease_ms: 10_000,
            ..AdaptivePolicy::primary_copy(WritePolicy::Update)
        }
    }

    /// A counter created on node 0, which keeps the copy, with a mirror on
    /// every node that `reads` gives a weight; every node's table cache and
    /// every mirror warm.
    fn mirrored(rtses: &[AdaptiveRts], initial: i64, reads: &[u64]) -> ObjectId {
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &initial.to_bytes())
            .unwrap();
        rtses[0].replicate_by(id, reads, &[]).unwrap();
        let mirrors: Vec<NodeId> = (1..reads.len())
            .filter(|node| reads[*node] > 0)
            .map(NodeId::from)
            .collect();
        assert_eq!(rtses[0].placement_of(id).unwrap().2, vec![NodeId(0)]);
        assert_eq!(rtses[0].copy_holders(id).unwrap(), mirrors);
        for rts in rtses {
            assert_eq!(read(rts, id), initial);
        }
        id
    }

    fn try_add(rts: &AdaptiveRts, id: ObjectId, n: i64) -> Result<i64, RtsError> {
        let op = AccumulatorOp::Add(n).to_bytes();
        let reply = rts.invoke(id, Accumulator::TYPE_NAME, OpKind::Write, &op)?;
        Ok(i64::from_bytes(&reply).unwrap())
    }

    fn add(rts: &AdaptiveRts, id: ObjectId, n: i64) -> i64 {
        try_add(rts, id, n).unwrap()
    }

    fn try_read(rts: &AdaptiveRts, id: ObjectId) -> Result<i64, RtsError> {
        let op = AccumulatorOp::Read.to_bytes();
        let reply = rts.invoke(id, Accumulator::TYPE_NAME, OpKind::Read, &op)?;
        Ok(i64::from_bytes(&reply).unwrap())
    }

    fn read(rts: &AdaptiveRts, id: ObjectId) -> i64 {
        try_read(rts, id).unwrap()
    }

    fn has_local_copy(rts: &AdaptiveRts, id: ObjectId) -> bool {
        rts.mirror_of(id).0
    }

    /// Wait for what a usage report — or a push that got no answer — leads
    /// to at the home: both are one-way, and the invocation that sent them
    /// returns first.
    fn eventually(what: &str, holds: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !holds() {
            assert!(Instant::now() < deadline, "never happened: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A cluster-wide telemetry counter (the simulated network shares one
    /// registry).
    fn counter(net: &Network, name: &str) -> u64 {
        net.telemetry().registry().counter(name).get()
    }

    #[test]
    fn remote_reads_and_writes_through_primary() {
        for write in [WritePolicy::Invalidate, WritePolicy::Update] {
            let net = Network::reliable(3);
            let rtses = start_all(&net, single_copy(write));
            let kind = match write {
                WritePolicy::Invalidate => RtsKind::PrimaryInvalidate,
                WritePolicy::Update => RtsKind::PrimaryUpdate,
            };
            assert_eq!(rtses[0].kind(), kind);
            assert_eq!(AdaptivePolicy::primary_copy(write).kind(), kind);
            let id = rtses[0]
                .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
                .unwrap();
            assert_eq!(add(&rtses[1], id, 5), 5);
            assert_eq!(add(&rtses[2], id, 7), 12);
            assert_eq!(read(&rtses[0], id), 12);
            assert_eq!(read(&rtses[2], id), 12);
            assert!(rtses[2].stats().remote_reads >= 1);
            assert!(rtses[1].stats().remote_writes >= 1);
            shutdown_all(&rtses);
        }
    }

    #[test]
    fn dynamic_replication_fetches_copy_after_many_reads() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, eager(WritePolicy::Update));
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &1i64.to_bytes())
            .unwrap();
        assert_eq!(
            rtses[1].placement_of(id).unwrap(),
            (RegimeKind::Replicated, 0, vec![NodeId(0)]),
            "created in the pinned regime, at its creator"
        );
        assert!(!has_local_copy(&rtses[1], id));
        for _ in 0..16 {
            assert_eq!(read(&rtses[1], id), 1);
        }
        eventually("the copy is fetched", || has_local_copy(&rtses[1], id));
        assert_eq!(rtses[0].copy_holders(id).unwrap(), vec![NodeId(1)]);
        let before = rtses[1].stats();
        assert!(before.copies_fetched >= 1);
        // Reads now hit the local copy.
        for _ in 0..5 {
            assert_eq!(read(&rtses[1], id), 1);
        }
        assert!(rtses[1].stats().local_reads >= before.local_reads + 5);
        shutdown_all(&rtses);
    }

    #[test]
    fn update_policy_keeps_secondary_copy_current() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8]);
        assert!(has_local_copy(&rtses[1], id));
        // A write at the primary must propagate to the secondary copy.
        assert_eq!(add(&rtses[0], id, 9), 9);
        assert!(has_local_copy(&rtses[1], id));
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 9);
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        assert!(rtses[1].stats().updates_applied >= 1);
        shutdown_all(&rtses);
    }

    #[test]
    fn invalidate_policy_discards_secondary_copy_on_write() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            write: WritePolicy::Invalidate,
            ..sticky_copies()
        };
        let rtses = start_all(&net, policy);
        let id = mirrored(&rtses, 0, &[0, 8]);
        assert!(has_local_copy(&rtses[1], id));
        let revokes = counter(&net, "rts.lease.revokes");
        let before = net.stats();
        assert_eq!(add(&rtses[0], id, 3), 3);
        assert_eq!(
            net.stats().since(&before).total_messages(),
            2,
            "an invalidation and its acknowledgement"
        );
        assert!(!has_local_copy(&rtses[1], id), "copy should be invalidated");
        assert!(rtses[1].stats().invalidations_received >= 1);
        assert_eq!(counter(&net, "rts.lease.revokes"), revokes + 1);
        // The node stays a listed mirror: its next read fetches a fresh
        // copy, and the ones after that are local again.
        assert_eq!(rtses[0].copy_holders(id).unwrap(), vec![NodeId(1)]);
        let fetched = rtses[1].stats().copies_fetched;
        assert_eq!(read(&rtses[1], id), 3);
        assert_eq!(rtses[1].stats().copies_fetched, fetched + 1);
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        // A writer that holds a copy keeps it: it writes through, the
        // owner invalidates everybody else — here nobody.
        let before = net.stats();
        assert_eq!(add(&rtses[1], id, 4), 7);
        assert_eq!(net.stats().since(&before).total_messages(), 2);
        assert_eq!(read(&rtses[1], id), 7);
        assert_eq!(read(&rtses[0], id), 7);
        shutdown_all(&rtses);
    }

    /// An invalidation that overtakes the reply of the fetch it races must
    /// still refuse that older snapshot.
    #[test]
    fn invalidation_poisons_an_older_snapshot_in_flight() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            write: WritePolicy::Invalidate,
            ..sticky_copies()
        };
        let rtses = start_all(&net, policy);
        let id = mirrored(&rtses, 0, &[0, 8]);
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        // The fetch is served at version 0 ...
        let fetch = RegimeMsg::FetchMirror {
            object: id.0,
            epoch,
            have: None,
        };
        let RegimeReply::MirrorState {
            state, seq, dedup, ..
        } = rtses[0].serve(fetch, NodeId(1))
        else {
            panic!("fetch refused");
        };
        assert_eq!(seq, 0);
        // ... a write invalidates the copy before the reply lands ...
        assert_eq!(add(&rtses[0], id, 5), 5);
        // ... and the late snapshot (delivered as the owner's prime would
        // be) must not become the copy.
        let late = RegimeMsg::Mirror {
            object: id.0,
            epoch,
            partition: None,
            type_name: Accumulator::TYPE_NAME.to_string(),
            state,
            seq,
            dedup,
            lease: None,
        };
        rtses[1].serve(late, NodeId(0));
        assert!(!has_local_copy(&rtses[1], id), "stale snapshot installed");
        assert_eq!(read(&rtses[1], id), 5);
        shutdown_all(&rtses);
    }

    #[test]
    fn concurrent_writers_from_many_nodes_are_serialized() {
        // Eager thresholds: the copy moves between the writers while they
        // write.
        let net = Network::reliable(4);
        let rtses = start_all(&net, eager(WritePolicy::Update));
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let mut handles = Vec::new();
        for rts in &rtses {
            let rts = rts.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    add(&rts, id, 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(read(&rtses[3], id), 100);
        shutdown_all(&rtses);
    }

    #[test]
    fn replication_policy_fetches_then_drops_copy_across_both_transitions() {
        let net = Network::reliable(2);
        let policy = eager(WritePolicy::Update);
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();

        // Transition 1: a window of reads makes node 1 a reader, and a
        // secondary copy is created there.
        for _ in 0..16 {
            read(&rtses[1], id);
        }
        eventually("a read-heavy window fetches", || {
            has_local_copy(&rtses[1], id)
        });
        assert_eq!(rtses[1].stats().copies_fetched, 1);

        // Transition 2: node 1 stops reading. Its decayed reads run out a
        // few windows of the owner's writes later, and once it has not been
        // heard reading for a regime lease the copy is discarded again.
        std::thread::sleep(2 * policy.regime_lease);
        let mut written = 0;
        while !rtses[0].copy_holders(id).unwrap().is_empty() {
            assert!(written < 1_000, "the idle copy is never dropped");
            written += 1;
            assert_eq!(add(&rtses[0], id, 1), written);
        }
        assert!(
            !has_local_copy(&rtses[1], id),
            "a window without reads must drop the copy"
        );
        // Its reads are shipped, and counted:
        assert_eq!(read(&rtses[1], id), written);
        assert_eq!(rtses[1].stats().copies_fetched, 1);

        // and the cycle restarts: reads re-fetch.
        for _ in 0..64 {
            read(&rtses[1], id);
        }
        eventually("reads re-fetch", || has_local_copy(&rtses[1], id));
        assert_eq!(rtses[1].stats().copies_fetched, 2);
        shutdown_all(&rtses);
    }

    #[test]
    fn dropped_reply_from_crashed_primary_surfaces_timeout() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(150),
            ..single_copy(WritePolicy::Update)
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], id, 3), 3);

        // The primary crashes; its replies are dropped. The write must
        // surface Timeout within the configured deadline, not hang.
        net.crash(NodeId(0));
        let started = Instant::now();
        assert_eq!(try_add(&rtses[1], id, 1), Err(RtsError::Timeout));
        assert!(started.elapsed() < Duration::from_secs(5));
        // Remote reads hit the same deadline.
        assert_eq!(try_read(&rtses[1], id), Err(RtsError::Timeout));

        // After recovery the system keeps working.
        net.recover(NodeId(0));
        assert_eq!(add(&rtses[1], id, 4), 7);
        shutdown_all(&rtses);
    }

    /// The primary dies; the object is regenerated from the freshest
    /// surviving secondary copy, every acknowledged write survives, and
    /// survivors keep reading and writing the object.
    #[test]
    fn primary_crash_rehomes_object_onto_survivor_copy() {
        let net = Network::reliable(3);
        // (The first write after the regeneration waits out a grant span.)
        let policy = AdaptivePolicy {
            read_lease_ms: 50,
            ..sticky_copies()
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = mirrored(&rtses, 0, &[0, 8, 8]);
        // Write through the primary so the copies carry real state.
        assert_eq!(add(&rtses[1], id, 5), 5);
        assert_eq!(add(&rtses[2], id, 7), 12);
        assert!(has_local_copy(&rtses[1], id) && has_local_copy(&rtses[2], id));

        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        // Survivors keep operating on the re-homed object; no acknowledged
        // write is lost.
        assert_eq!(add(&rtses[1], id, 1), 13);
        assert_eq!(read(&rtses[2], id), 13);
        let (regime, _, owners) = rtses[1].placement_of(id).unwrap();
        assert_eq!(regime, RegimeKind::Replicated, "the pin holds");
        assert_ne!(owners, vec![NodeId(0)], "object was not re-homed");
        let view = rtses[1].membership_view().unwrap();
        assert_eq!(view.alive, vec![NodeId(1), NodeId(2)]);
        shutdown_all(&rtses);
    }

    /// With no secondary copy anywhere, a dead primary means the object is
    /// gone: survivors get a fast, explicit `ObjectLost` — never a hang.
    #[test]
    fn primary_crash_without_copies_reports_object_lost() {
        let net = Network::reliable(2);
        let policy = single_copy(WritePolicy::Update);
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &3i64.to_bytes())
            .unwrap();
        assert_eq!(read(&rtses[1], id), 3);
        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        let started = Instant::now();
        assert_eq!(try_add(&rtses[1], id, 1), Err(RtsError::ObjectLost(id)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "ObjectLost was not fast"
        );
        // The verdict is sticky and immediate afterwards.
        assert_eq!(try_read(&rtses[1], id), Err(RtsError::ObjectLost(id)));
        shutdown_all(&rtses);
    }

    /// With detection only (no re-homing), an invocation aimed at a
    /// *killed* node fails fast with the distinguishable `NodeDown` instead
    /// of waiting out the full operation timeout.
    #[test]
    fn detect_only_fails_fast_with_node_down() {
        let net = Network::reliable(2);
        let detect_only = RecoveryConfig {
            rehome: false,
            ..crate::recovery::patient()
        };
        let policy = AdaptivePolicy::primary_copy(WritePolicy::Update);
        let rtses = start_all_recoverable(&net, policy, detect_only);
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], id, 2), 2);
        // The default op timeout is 10 s; NodeDown must beat it by far.
        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        let started = Instant::now();
        assert_eq!(
            try_add(&rtses[1], id, 1),
            Err(RtsError::NodeDown(NodeId(0)))
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "NodeDown was not fail-fast"
        );
        shutdown_all(&rtses);
    }

    #[test]
    fn blocked_write_at_primary_retries_until_guard_true() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::primary_copy(WritePolicy::Update));
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        let waiter = {
            let rts = rtses[1].clone();
            std::thread::spawn(move || {
                let op = AccumulatorOp::AwaitAtLeast(4).to_bytes();
                let reply = rts.invoke(id, Accumulator::TYPE_NAME, OpKind::Read, &op);
                i64::from_bytes(&reply.unwrap()).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(80));
        add(&rtses[0], id, 10);
        assert_eq!(waiter.join().unwrap(), 10);
        assert!(rtses[1].stats().guard_retries >= 1);
        shutdown_all(&rtses);
    }

    /// A secondary holding a valid read lease serves linearizable reads
    /// without touching the network at all — zero messages per read.
    #[test]
    fn leased_reads_are_zero_message() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, sticky_copies());
        // Prime: the copy arrives with its first grant; one write pushed
        // through gives it real state and a lease renewed by the unlock.
        let id = mirrored(&rtses, 0, &[0, 8]);
        assert_eq!(add(&rtses[0], id, 4), 4);
        assert!(counter(&net, "rts.lease.grants") >= 1);

        let wire_before = net.stats();
        let leased_before = counter(&net, "rts.lease.local_reads");
        for _ in 0..20 {
            assert_eq!(read(&rtses[1], id), 4);
        }
        let sent = net.stats().since(&wire_before).per_node[1];
        assert_eq!(
            sent.p2p_sent + sent.broadcasts_sent,
            0,
            "leased reads must not send any messages"
        );
        assert!(counter(&net, "rts.lease.local_reads") >= leased_before + 20);
        shutdown_all(&rtses);
    }

    /// An expired lease is renewed with one RPC — the holder names the
    /// version it holds and, because no write intervened, gets a fresh
    /// grant without re-fetching the copy.
    #[test]
    fn expired_lease_renews_without_refetching_copy() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            read_lease_ms: 25,
            ..sticky_copies()
        };
        let rtses = start_all(&net, policy);
        let id = mirrored(&rtses, 2, &[0, 8]);
        let fetched = rtses[1].stats().copies_fetched;
        let renewals = counter(&net, "rts.lease.renewals");
        std::thread::sleep(Duration::from_millis(80)); // let the lease lapse
        assert_eq!(read(&rtses[1], id), 2);
        assert_eq!(
            rtses[1].stats().copies_fetched,
            fetched,
            "renewal must revalidate the held copy, not re-fetch it"
        );
        assert!(counter(&net, "rts.lease.renewals") > renewals);
        shutdown_all(&rtses);
    }

    /// Lease-holder crash: a write at the primary settles the dead holder's
    /// grant within the grant's own lifetime and completes — and has the
    /// home drop the holder, so no later write pays for it again.
    #[test]
    fn write_settles_lease_of_crashed_holder() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(150),
            // Long enough that the grant is still live when the push times
            // out below, forcing the write to wait it out (an
            // already-expired grant would be settled silently).
            read_lease_ms: 200,
            ..sticky_copies()
        };
        let rtses = start_all(&net, policy);
        let id = mirrored(&rtses, 0, &[0, 8]);
        // The home knows who writes: what is left when the holder goes.
        rtses[0].replicate_by(id, &[0, 8], &[8, 0]).unwrap();

        // No failure detector here: the primary discovers the crash only
        // through the push timing out, then must settle the holder's lease
        // (bounded by the grant span) rather than hang or stay wedged.
        net.crash(NodeId(1));
        let revokes = counter(&net, "rts.lease.revokes");
        let started = Instant::now();
        assert_eq!(add(&rtses[0], id, 6), 6);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(counter(&net, "rts.lease.revokes"), revokes + 1);
        // The failed push had the home re-place the object without the
        // holder — the drain does not wait for it either: a later write has
        // nobody to push to and no grant to wait out.
        eventually("the holder is dropped", || {
            rtses[0].copy_holders(id).unwrap().is_empty()
        });
        let started = Instant::now();
        assert_eq!(add(&rtses[0], id, 1), 7);
        assert!(started.elapsed() < policy.op_timeout / 2);
        assert_eq!(counter(&net, "rts.lease.revokes"), revokes + 1);
        shutdown_all(&rtses);
    }

    /// Lease-grantor crash: the regenerated copy serves reads immediately
    /// but fences *writes* until every grant the dead primary could have
    /// issued has expired, so stale leased copies elsewhere can never
    /// observe a value the new era wrote.
    #[test]
    fn promoted_primary_fences_writes_until_old_grants_expire() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            read_lease_ms: 300,
            ..sticky_copies()
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = mirrored(&rtses, 0, &[0, 8, 8]);
        assert_eq!(add(&rtses[1], id, 5), 5);

        let crashed = Instant::now();
        net.crash(NodeId(0));
        wait_for_death(&rtses, NodeId(0));
        // The first write after the regeneration completes only after the
        // fence: regeneration happens strictly after the crash, and the
        // fence spans the longest grant the dead primary could have had
        // outstanding (2 × read_lease_ms = 600 ms past regeneration).
        assert_eq!(add(&rtses[2], id, 1), 6);
        assert!(
            crashed.elapsed() >= Duration::from_millis(550),
            "write must wait out grants issued by the dead primary"
        );
        assert_eq!(read(&rtses[1], id), 6);
        shutdown_all(&rtses);
    }

    /// The update protocol's cost, counted on the wire: with two holders
    /// and the writer one of them a write is WriteThrough + Update + ack +
    /// Installed — the one holder pushed to is the last, and never locked;
    /// with none it is the request and the reply.
    #[test]
    fn replicated_write_costs_four_messages_with_two_holders_and_two_with_none() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8, 8]);
        let renewals = counter(&net, "rts.lease.renewals");
        let before = net.stats();
        assert_eq!(add(&rtses[1], id, 3), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 4);
        // One push and no unlock (to node 2), one install (node 1).
        assert_eq!(counter(&net, "rts.update.pushes"), 1);
        assert_eq!(counter(&net, "rts.update.unlock_notifies"), 0);
        assert_eq!(counter(&net, "rts.update.reply_installs"), 1);
        assert_eq!(
            counter(&net, "rts.lease.renewals"),
            renewals + 2,
            "both holders' leases are renewed: one by the update, one by the reply"
        );
        // Both copies are current, still held, and serve reads locally.
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 3);
        assert_eq!(read(&rtses[2], id), 3);
        assert_eq!(net.stats().since(&before).total_messages(), 0);

        let lonely = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], lonely, 1), 1); // fetches the table
        let before = net.stats();
        assert_eq!(add(&rtses[1], lonely, 1), 2);
        assert_eq!(net.stats().since(&before).total_messages(), 2);
        shutdown_all(&rtses);
    }

    /// A batch's writes reach each mirror as one pushed run: sixty-four
    /// asynchronous writes from the owner's node cost its one mirror an
    /// update and its acknowledgement — two messages, not 128.
    #[test]
    fn a_batch_of_writes_reaches_a_mirror_as_one_pushed_run() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8]);
        rtses[0].set_batch_policy(crate::BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_millis(200),
        });
        let before = net.stats();
        let op = AccumulatorOp::Add(1).to_bytes();
        let pending: Vec<_> = (0..64)
            .map(|_| rtses[0].invoke_async(id, Accumulator::TYPE_NAME, OpKind::Write, &op))
            .collect();
        let sums: Vec<i64> = pending
            .iter()
            .map(|write| i64::from_bytes(&write.wait().unwrap()).unwrap())
            .collect();
        assert_eq!(sums, (1..=64).collect::<Vec<i64>>());
        assert_eq!(net.stats().since(&before).total_messages(), 2);
        assert_eq!(counter(&net, "rts.update.pushes"), 1);
        assert_eq!(rtses[1].mirror_of(id), (true, 64, false, 0));
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 64);
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        shutdown_all(&rtses);
    }

    /// Two writers on one copy-holding node, racing a writer on another:
    /// acknowledgements that arrive ahead of their predecessor wait for it,
    /// pushed updates that arrive ahead of an acknowledgement do too, and
    /// nobody's copy is ever dropped as "gapped".
    #[test]
    fn concurrent_write_throughs_keep_every_copy_and_converge() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8, 8]);
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
                        // Read-your-writes on the local copy, every time.
                        assert!(read(&rts, id) >= 1);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        for rts in &rtses {
            assert_eq!(read(rts, id), 3 * PER_WRITER);
        }
        for holder in [1, 2] {
            assert!(has_local_copy(&rtses[holder], id));
            assert_eq!(rtses[holder].stats().copies_fetched, 1);
        }
        assert_eq!(
            counter(&net, "rts.update.reply_installs"),
            3 * PER_WRITER as u64
        );
        shutdown_all(&rtses);
    }

    /// A write-through the primary has already applied — the retry of one
    /// whose acknowledgement was lost — is answered like a plain write: the
    /// window has the reply, not the version to install it at.
    #[test]
    fn retried_write_through_is_answered_plainly_and_deregisters_the_writer() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8]);
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        let through = RegimeMsg::WriteThrough {
            object: id.0,
            epoch,
            op: AccumulatorOp::Add(4).to_bytes(),
            stamp: Some(OpStamp { origin: 1, seq: 77 }),
        };
        let first = rtses[0].serve(through.clone(), NodeId(1));
        assert!(matches!(first, RegimeReply::Installed { seq: 1, .. }));
        let retry = rtses[0].serve(through, NodeId(1));
        assert!(matches!(retry, RegimeReply::Done(_)), "{retry:?}");
        assert_eq!(read(&rtses[0], id), 4, "applied once");
        shutdown_all(&rtses);
    }

    /// The writer's side of that retry: the plain reply carries no version,
    /// so the copy it wrote through may have missed the write and must go —
    /// the next read fetches a fresh one, which holds it.
    #[test]
    fn deregistered_writer_gets_a_plain_reply_and_drops_its_copy() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8]);
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        let stamp = OpStamp { origin: 1, seq: 9 };
        let op = AccumulatorOp::Add(5).to_bytes();
        // The first attempt reaches the primary; node 1 never hears of it.
        let lost = RegimeMsg::WriteThrough {
            object: id.0,
            epoch,
            op: op.clone(),
            stamp: Some(stamp),
        };
        let applied = rtses[0].serve(lost, NodeId(1));
        assert!(matches!(applied, RegimeReply::Installed { .. }));

        let fetched = rtses[1].stats().copies_fetched;
        let retried = rtses[1].write_stamped(id, &op, stamp).unwrap();
        assert_eq!(i64::from_bytes(&retried).unwrap(), 5);
        assert_eq!(counter(&net, "rts.update.reply_installs"), 0);
        // The stale copy went, with the attempt's pending mark.
        assert_eq!(rtses[1].mirror_of(id), (false, 0, false, 0));
        assert_eq!(read(&rtses[1], id), 5);
        assert_eq!(rtses[1].stats().copies_fetched, fetched + 1);
        let before = net.stats();
        assert_eq!(read(&rtses[1], id), 5);
        assert_eq!(net.stats().since(&before).total_messages(), 0);
        assert_eq!(rtses[0].copy_holders(id).unwrap(), vec![NodeId(1)]);
        shutdown_all(&rtses);
    }

    /// A write-through whose acknowledgement does not arrive in time may
    /// have been applied: the writer's copy must stop serving reads rather
    /// than serve the old value.
    #[test]
    fn timed_out_write_through_never_leaves_a_readable_stale_copy() {
        let net = Network::reliable(3);
        // Short leases: the primary sleeps out the crashed holder's grant.
        // It gives the push 200 ms; the writer waits 80.
        let patient = AdaptivePolicy {
            op_timeout: Duration::from_millis(400),
            read_lease_ms: 50,
            ..sticky_copies()
        };
        let hasty = AdaptivePolicy {
            op_timeout: Duration::from_millis(80),
            ..patient
        };
        let rtses: Vec<AdaptiveRts> = [patient, hasty, patient]
            .into_iter()
            .zip(net.node_ids())
            .map(|(policy, node)| AdaptiveRts::start(net.handle(node), registry(), policy))
            .collect();
        let id = mirrored(&rtses, 0, &[0, 8, 8]);
        // The primary applies the write, then stalls on the push to the
        // crashed holder for longer than the writer is willing to wait.
        net.crash(NodeId(2));
        assert_eq!(try_add(&rtses[1], id, 9), Err(RtsError::Timeout));
        assert_eq!(rtses[1].mirror_of(id), (false, 0, false, 0));
        // The read goes to the primary, queues behind the stalled write —
        // for as many of its short deadlines as that takes — and observes
        // it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let seen = loop {
            match try_read(&rtses[1], id) {
                Ok(seen) => break seen,
                Err(err) => assert!(Instant::now() < deadline, "{err}"),
            }
        };
        assert_eq!(seen, 9);
        shutdown_all(&rtses);
    }

    /// The unlock is one-way, so it can be handled after the next update:
    /// the version it carries keeps it from releasing that update's lock.
    /// An update that is not held releases its predecessor's — whose unlock
    /// is on its way — and a push seen before changes nothing.
    #[test]
    fn stale_unlock_after_the_next_update_leaves_the_copy_locked() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, sticky_copies());
        let id = mirrored(&rtses, 0, &[0, 8]);
        let (_, epoch) = rtses[0].regime_of(id).unwrap();
        let update = |seq, held| RegimeMsg::Update {
            object: id.0,
            epoch,
            partition: None,
            seq,
            held,
            ops: vec![AccumulatorOp::Add(1).to_bytes()],
            stamped: None,
            lease: None,
        };
        let unlock = |seq| RegimeMsg::Unlock {
            object: id.0,
            epoch,
            seq,
        };
        let (_, base, ..) = rtses[1].mirror_of(id);
        rtses[1].serve(update(base + 1, true), NodeId(0));
        rtses[1].serve(update(base + 2, true), NodeId(0));
        rtses[1].serve(unlock(base + 1), NodeId(0));
        let locked = |rts: &AdaptiveRts| rts.mirror_of(id).2;
        assert!(locked(&rtses[1]), "unlock of an older update");
        rtses[1].serve(unlock(base + 2), NodeId(0));
        assert!(!locked(&rtses[1]));

        rtses[1].serve(update(base + 3, true), NodeId(0));
        rtses[1].serve(update(base + 3, false), NodeId(0));
        assert!(locked(&rtses[1]), "a duplicate push released the lock");
        rtses[1].serve(update(base + 4, false), NodeId(0));
        assert!(
            !locked(&rtses[1]),
            "the last holder of a fan-out was locked"
        );
        rtses[1].serve(update(base + 4, true), NodeId(0));
        rtses[1].serve(unlock(base + 3), NodeId(0));
        assert_eq!(rtses[1].mirror_of(id), (true, base + 4, false, 0));
        shutdown_all(&rtses);
    }
}
