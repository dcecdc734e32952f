//! The `sharded` backend is [`AdaptiveRts`] with its regime pinned
//! ([`AdaptivePolicy::sharded`]); these tests hold it to what a runtime
//! system that only ever partitions promises. (Adaptation, and the sharded
//! regime an object *adapts* into, are tested in `engine.rs` beside this
//! file.)

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use orca_amoeba::network::Network;
    use orca_amoeba::NodeId;
    use orca_object::shard::{shard_of_u64, spread_owner};
    use orca_object::testing::{Accumulator, AccumulatorOp, Bank, BankOp, BankReply};
    use orca_object::{ObjectId, ObjectRegistry, ObjectType, OpKind};
    use orca_wire::{OpStamp, RegimeMsg, RegimeReply, Wire};

    use crate::tests::CreateEncoded;
    use crate::{AdaptivePolicy, AdaptiveRts, RecoveryConfig, RtsError, RtsKind, RuntimeSystem};

    fn registry() -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry.register_sharded::<Bank>();
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

    fn new_bank(rts: &AdaptiveRts) -> ObjectId {
        rts.create_encoded(
            Bank::TYPE_NAME,
            &<Bank as ObjectType>::State::new().to_bytes(),
        )
        .unwrap()
    }

    /// A bank whose two partitions both start on node 0, its home.
    fn bank_at_home(rtses: &[AdaptiveRts]) -> ObjectId {
        let id = new_bank(&rtses[0]);
        for partition in 0..2 {
            rtses[0].migrate(id, partition, NodeId(0)).unwrap();
        }
        assert_eq!(rtses[0].held_partitions(id), vec![0, 1]);
        id
    }

    fn owners(rts: &AdaptiveRts, id: ObjectId) -> Vec<NodeId> {
        rts.placement_of(id).unwrap().2
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

    fn add(rts: &AdaptiveRts, id: ObjectId, n: i64) -> Result<i64, RtsError> {
        let op = AccumulatorOp::Add(n).to_bytes();
        let reply = rts.invoke(id, Accumulator::TYPE_NAME, OpKind::Write, &op)?;
        Ok(i64::from_bytes(&reply).unwrap())
    }

    /// The partition of `parts` that `owner` serves, and a key of it.
    fn partition_of(rts: &AdaptiveRts, id: ObjectId, owner: NodeId, parts: u32) -> (u32, u64) {
        let partition = owners(rts, id).iter().position(|o| *o == owner);
        let partition = partition.expect("spread placement gives every node a partition");
        (partition as u32, key_in(partition, parts))
    }

    /// A key of the bank's partition `partition` of `parts`.
    fn key_in(partition: usize, parts: u32) -> u64 {
        (0..64)
            .find(|k| shard_of_u64(*k, parts) == partition as u32)
            .unwrap()
    }

    #[test]
    fn sharded_bank_spreads_partitions_and_agrees() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, AdaptivePolicy::sharded(4));
        assert_eq!(rtses[0].kind(), RtsKind::Sharded);
        let id = new_bank(&rtses[0]);
        // With 4 partitions spread over 4 nodes, every node owns exactly
        // one partition.
        assert_eq!(owners(&rtses[1], id).len(), 4);
        let owned_total: usize = rtses.iter().map(|rts| rts.held_partitions(id).len()).sum();
        assert_eq!(owned_total, 4);

        // Writes from every node, keys spanning all partitions.
        for (n, rts) in rtses.iter().enumerate() {
            for key in 0..8u64 {
                deposit(rts, id, key, (n + 1) as i64);
            }
        }
        let expected: i64 = (1..=4i64).sum::<i64>() * 8;
        for rts in &rtses {
            assert_eq!(bank_sum(rts, id), expected);
        }
        // Different writes really executed on different nodes: every node
        // that owns a partition served operations for others.
        assert!(rtses.iter().any(|rts| rts.stats().updates_applied > 0));
        assert!(rtses[1].stats().remote_writes > 0);
        // Fewer accesses than a report window: nothing reported, nothing
        // moved.
        assert_eq!(rtses[0].regime_of(id).unwrap().1, 0);
        shutdown_all(&rtses);
    }

    #[test]
    fn single_partition_behaves_like_primary_copy() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::sharded(1));
        let id = new_bank(&rtses[0]);
        assert_eq!(owners(&rtses[2], id).len(), 1);
        assert_eq!(deposit(&rtses[1], id, 9, 5), 5);
        assert_eq!(deposit(&rtses[2], id, 9, 7), 12);
        assert_eq!(bank_sum(&rtses[0], id), 12);
        shutdown_all(&rtses);
    }

    #[test]
    fn non_shardable_type_falls_back_to_home_copy() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::sharded(4));
        let id = rtses[0]
            .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // The fallback keeps the single replica at the creating node.
        assert_eq!(rtses[0].held_partitions(id), vec![0]);
        assert_eq!(
            owners(&rtses[1], id),
            vec![NodeId(0)],
            "fallback must stay at the home node"
        );
        assert_eq!(add(&rtses[1], id, 5), Ok(5));
        assert_eq!(add(&rtses[2], id, 7), Ok(12));

        // Guarded (blocking) operations work through the retry protocol.
        let waiter = {
            let rts = rtses[2].clone();
            std::thread::spawn(move || {
                let reply = rts
                    .invoke(
                        id,
                        Accumulator::TYPE_NAME,
                        OpKind::Read,
                        &AccumulatorOp::AwaitAtLeast(100).to_bytes(),
                    )
                    .unwrap();
                i64::from_bytes(&reply).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(60));
        add(&rtses[0], id, 100).unwrap();
        assert_eq!(waiter.join().unwrap(), 112);
        shutdown_all(&rtses);
    }

    #[test]
    fn concurrent_writers_to_different_partitions_agree() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, AdaptivePolicy::sharded(8));
        let id = new_bank(&rtses[0]);
        let mut handles = Vec::new();
        for (n, rts) in rtses.iter().enumerate() {
            let rts = rts.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    deposit(&rts, id, (n as u64) * 64 + i, 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(bank_sum(&rtses[3], id), 200);
        shutdown_all(&rtses);
    }

    #[test]
    fn migration_moves_partition_and_stale_caches_recover() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::sharded(2));
        let id = bank_at_home(&rtses);

        // Prime data and node 1's route cache before the move.
        let key = key_in(1, 2);
        assert_eq!(deposit(&rtses[1], id, key, 10), 10);

        rtses[0].migrate(id, 1, NodeId(1)).unwrap();
        assert_eq!(owners(&rtses[0], id), vec![NodeId(0), NodeId(1)]);
        assert_eq!(rtses[0].held_partitions(id), vec![0]);
        assert_eq!(rtses[1].held_partitions(id), vec![1]);

        // Node 1's cached route is stale; the next operation recovers
        // transparently and the data survived the move.
        assert_eq!(deposit(&rtses[1], id, key, 5), 15);
        assert_eq!(bank_sum(&rtses[0], id), 15);

        // Migrating to the current owner is a no-op.
        let epoch = rtses[0].regime_of(id).unwrap().1;
        rtses[0].migrate(id, 1, NodeId(1)).unwrap();
        assert_eq!(rtses[0].regime_of(id).unwrap().1, epoch);
        assert_eq!(deposit(&rtses[0], id, key, 1), 16);
        // Only the home moves a partition, and only one there is.
        assert!(rtses[1].migrate(id, 1, NodeId(0)).is_err());
        assert!(rtses[0].migrate(id, 2, NodeId(0)).is_err());
        assert!(rtses[0].migrate(id, 1, NodeId(2)).is_err());
        shutdown_all(&rtses);
    }

    #[test]
    fn migration_under_concurrent_writes_loses_nothing() {
        // Writers hammer a partition while it migrates back and forth.
        // Every acknowledged deposit must survive: an op that races the
        // move either lands before the state snapshot (and is part of the
        // transferred state) or is answered StaleRegime and retried at the
        // new owner — never applied to the orphaned replica.
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::sharded(2));
        let id = bank_at_home(&rtses);
        let hot_key = key_in(1, 2);
        const DEPOSITS: i64 = 150;
        let writers: Vec<_> = rtses
            .iter()
            .map(|rts| {
                let rts = rts.clone();
                std::thread::spawn(move || {
                    for _ in 0..DEPOSITS {
                        deposit(&rts, id, hot_key, 1);
                    }
                })
            })
            .collect();
        // Bounce the hot partition between the two nodes while the
        // writers run.
        for _ in 0..6 {
            rtses[0].migrate(id, 1, NodeId(1)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            rtses[0].migrate(id, 1, NodeId(0)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(
            bank_sum(&rtses[0], id),
            DEPOSITS * rtses.len() as i64,
            "acknowledged writes were lost across migrations"
        );
        shutdown_all(&rtses);
    }

    #[test]
    fn dropped_reply_surfaces_timeout_not_hang() {
        let net = Network::reliable(2);
        let policy = AdaptivePolicy {
            op_timeout: Duration::from_millis(150),
            ..AdaptivePolicy::sharded(2)
        };
        let rtses = start_all(&net, policy);
        // Fallback object at node 0; crash node 0 and invoke from node 1.
        let acc = rtses[0]
            .create_encoded(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Sharded object with a partition owned by node 1, home at node 0;
        // crash node 1 and write to its partition.
        let bank = new_bank(&rtses[0]);
        let remote_partition = owners(&rtses[0], bank)
            .iter()
            .position(|o| *o == NodeId(1))
            .expect("two partitions spread over two nodes");

        net.crash(NodeId(1));
        let started = Instant::now();
        let op = BankOp::Deposit {
            key: key_in(remote_partition, 2),
            amount: 1,
        };
        let err = rtses[0]
            .invoke(bank, Bank::TYPE_NAME, OpKind::Write, &op.to_bytes())
            .unwrap_err();
        assert_eq!(err, RtsError::Timeout);
        assert!(started.elapsed() < Duration::from_secs(5));
        net.recover(NodeId(1));

        // Node 1 learns where the accumulator lives while node 0 answers.
        assert_eq!(add(&rtses[1], acc, 1), Ok(1));
        net.crash(NodeId(0));
        let started = Instant::now();
        assert_eq!(add(&rtses[1], acc, 1), Err(RtsError::Timeout));
        assert!(started.elapsed() < Duration::from_secs(5));
        shutdown_all(&rtses);
    }

    /// With recovery off a slot keeps no mirror: a remote write is its
    /// request and its reply.
    #[test]
    fn without_recovery_a_remote_write_is_two_messages() {
        let net = Network::reliable(2);
        let rtses = start_all(&net, AdaptivePolicy::sharded(2));
        let id = new_bank(&rtses[0]);
        let remote_partition = owners(&rtses[0], id)
            .iter()
            .position(|o| *o == NodeId(1))
            .unwrap();
        let key = key_in(remote_partition, 2);
        let before = net.stats();
        assert_eq!(deposit(&rtses[0], id, key, 1), 1);
        assert_eq!(net.stats().since(&before).total_messages(), 2);
        shutdown_all(&rtses);
    }

    /// With recovery on it keeps one, on the next live node, pushed before
    /// the write is acknowledged: request, push, acknowledgement, reply.
    /// The keeper holds the run's version, unlocked — the one holder of a
    /// fan-out is its last — and unleased, whatever the lease policy:
    /// nobody reads it.
    #[test]
    fn a_keeper_is_pushed_every_write_unheld_and_unleased() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(3), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        let (partition, key) = partition_of(&rtses[0], id, NodeId(1), 3);
        // Heartbeats share the wire and only ever add to a count.
        let quietest = (0..8).map(|_| {
            let before = net.stats();
            deposit(&rtses[0], id, key, 1);
            net.stats().since(&before).total_messages()
        });
        assert_eq!(quietest.min(), Some(4));
        assert_eq!(
            rtses[2].keeper_of(id, partition),
            Some((0, 8, false, false))
        );
        assert_eq!(rtses[0].keeper_of(id, partition), None);
        shutdown_all(&rtses);
    }

    /// A push that finds its keeper's node gone sleeps out no grant — none
    /// was made — and the next write keeps the partition on the then-next
    /// live node, primed whole: `backup_target` is asked at every push. When
    /// the owner dies too, that is the mirror promoted.
    #[test]
    fn a_dead_keeper_is_replaced_by_the_next_write() {
        let net = Network::reliable(4);
        let policy = AdaptivePolicy {
            read_lease_ms: 5_000,
            ..AdaptivePolicy::sharded(4)
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        let (partition, key) = partition_of(&rtses[0], id, NodeId(1), 4);
        assert_eq!(deposit(&rtses[0], id, key, 10), 10);
        assert!(rtses[2].keeper_of(id, partition).is_some());

        net.crash(NodeId(2));
        let started = Instant::now();
        assert_eq!(deposit(&rtses[0], id, key, 5), 15);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a grant was waited out"
        );
        wait_for_death(&rtses, NodeId(2));
        assert_eq!(deposit(&rtses[0], id, key, 1), 16);
        assert_eq!(
            rtses[3].keeper_of(id, partition),
            Some((0, 3, false, false))
        );

        net.crash(NodeId(1));
        crate::recovery::wait_for_deaths(4, &[NodeId(1), NodeId(2)], &|node| {
            rtses[node.index()].membership_view()
        });
        assert_eq!(deposit(&rtses[0], id, key, 1), 17);
        assert_eq!(owners(&rtses[0], id)[partition as usize], NodeId(3));
        shutdown_all(&rtses);
    }

    /// A keeper that cannot take a pushed run — it lost its copy, or the
    /// copy it has is a run behind — says so, and the owner primes it whole
    /// before it acknowledges the write: what is promoted when the owner
    /// dies is missing nothing.
    #[test]
    fn a_keeper_that_lost_sync_says_so_and_is_primed_before_the_ack() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(3), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        let (partition, key) = partition_of(&rtses[0], id, NodeId(1), 3);
        assert_eq!(deposit(&rtses[0], id, key, 10), 10);
        let run = |seq| RegimeMsg::Update {
            object: id.0,
            epoch: 0,
            partition: Some(partition),
            seq,
            held: false,
            ops: vec![BankOp::Deposit { key, amount: 1 }.to_bytes()],
            stamped: None,
            lease: None,
        };
        // A run with a gap before it; and after the gap the copy is gone.
        for refused in [run(3), run(2)] {
            let reply = rtses[2].serve(refused, NodeId(1));
            assert_eq!(reply, RegimeReply::StaleRegime);
        }
        assert_eq!(rtses[2].keeper_of(id, partition), None);
        // Request, push, refusal, prime, acknowledgement, reply.
        let before = net.stats();
        assert_eq!(deposit(&rtses[0], id, key, 5), 15);
        assert!(net.stats().since(&before).total_messages() >= 6);
        assert_eq!(
            rtses[2].keeper_of(id, partition),
            Some((0, 2, false, false))
        );

        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        assert_eq!(deposit(&rtses[0], id, key, 1), 16);
        assert_eq!(owners(&rtses[0], id)[partition as usize], NodeId(2));
        shutdown_all(&rtses);
    }

    /// A stamped write rides its push as it is recorded at the owner: when
    /// the owner dies having applied and pushed it, the promoted keeper
    /// answers the retry its recorded reply — exactly once across the
    /// promotion.
    #[test]
    fn a_retry_across_a_promotion_is_answered_not_applied_again() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(3), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        let (_, key) = partition_of(&rtses[0], id, NodeId(1), 3);
        let stamp = OpStamp { origin: 0, seq: 77 };
        let op = BankOp::Deposit { key, amount: 5 }.to_bytes();
        let attempt = || {
            let reply = rtses[0].write_stamped(id, &op, stamp).unwrap();
            BankReply::from_bytes(&reply).unwrap()
        };
        assert_eq!(attempt(), BankReply::Value(5));
        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        assert_eq!(bank_sum(&rtses[2], id), 5);
        assert_eq!(attempt(), BankReply::Value(5));
        assert_eq!(bank_sum(&rtses[0], id), 5);
        shutdown_all(&rtses);
    }

    /// A partition owner dies mid-stream. Every write it acknowledged was
    /// pushed to its keeper first; the home promotes the keeper's mirror
    /// and survivors keep writing — nothing is lost.
    #[test]
    fn owner_crash_promotes_backup_without_losing_acked_writes() {
        let net = Network::reliable(2);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(2), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        let Some(remote_partition) = owners(&rtses[0], id).iter().position(|o| *o == NodeId(1))
        else {
            panic!("expected a partition owned by node 1 under spread placement");
        };
        let key = key_in(remote_partition, 2);
        // Acknowledged writes against node 1's partition.
        assert_eq!(deposit(&rtses[0], id, key, 10), 10);
        assert_eq!(deposit(&rtses[0], id, key, 5), 15);

        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        // The partition is promoted from its mirror on node 0; acknowledged
        // state survived and writes keep working.
        assert_eq!(deposit(&rtses[0], id, key, 1), 16);
        assert_eq!(bank_sum(&rtses[0], id), 16);
        let owners = owners(&rtses[0], id);
        assert!(owners.iter().all(|o| *o == NodeId(0)), "{owners:?}");
        shutdown_all(&rtses);
    }

    /// The *home* (creating) node dies. The lowest live node adopts the
    /// home role, rebuilds the table from what the survivors hold,
    /// promotes the mirrors kept of the dead node's partitions, and clients
    /// re-route transparently.
    #[test]
    fn home_crash_is_adopted_by_lowest_survivor() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(3), crate::recovery::patient());
        // Created at node 2: node 2 is both home and (under spread
        // placement) owner of a partition.
        let id = new_bank(&rtses[2]);
        assert!(owners(&rtses[2], id).contains(&NodeId(2)));
        let mut expected = 0i64;
        for key in 0..12u64 {
            deposit(&rtses[0], id, key, 3);
            expected += 3;
        }
        assert_eq!(bank_sum(&rtses[1], id), expected);

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        // Clients re-route through the adopted home (node 0) and no
        // acknowledged deposit is missing.
        for key in 0..12u64 {
            deposit(&rtses[1], id, key, 1);
            expected += 1;
        }
        assert_eq!(bank_sum(&rtses[0], id), expected);
        assert_eq!(bank_sum(&rtses[1], id), expected);
        let owners = owners(&rtses[1], id);
        assert_eq!(owners.len(), 3);
        assert!(
            owners.iter().all(|o| *o != NodeId(2)),
            "dead node still owns partitions: {owners:?}"
        );
        shutdown_all(&rtses);
    }

    /// A partition is created with its keeper: killing the creator right
    /// after `create_object` returns — before any operation — loses nothing
    /// of the state the object was created with, whichever partitions the
    /// creator owned.
    #[test]
    fn home_crash_right_after_create_loses_nothing() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(3), crate::recovery::patient());
        let accounts: <Bank as ObjectType>::State = (0..12).map(|key| (key, 1)).collect();
        let id = rtses[2]
            .create_encoded(Bank::TYPE_NAME, &accounts.to_bytes())
            .unwrap();
        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        assert_eq!(bank_sum(&rtses[0], id), 12);
        assert_eq!(deposit(&rtses[1], id, 0, 1), 2);
        assert!(!owners(&rtses[0], id).contains(&NodeId(2)));
        shutdown_all(&rtses);
    }

    /// A type that does not shard is one partition at its creator, and
    /// kept like any other: it survives its home's death, acknowledged
    /// writes and all.
    #[test]
    fn non_shardable_object_survives_its_homes_death() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(4), crate::recovery::patient());
        let id = rtses[2]
            .create_encoded(Accumulator::TYPE_NAME, &1i64.to_bytes())
            .unwrap();
        assert_eq!(add(&rtses[1], id, 4), Ok(5));
        assert_eq!(add(&rtses[2], id, 2), Ok(7));

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        assert_eq!(add(&rtses[1], id, 1), Ok(8));
        assert_eq!(add(&rtses[0], id, 1), Ok(9));
        // Its keeper was the node after its creator.
        assert_eq!(owners(&rtses[1], id), vec![NodeId(0)]);
        shutdown_all(&rtses);
    }

    /// An operation on every partition, issued while an owner is dead and
    /// not yet replaced, waits for the promotion like an operation on that
    /// owner's partition alone — it is not refused for the partition's
    /// absence.
    #[test]
    fn all_routed_operation_waits_for_a_dead_owners_promotion() {
        let net = Network::reliable(3);
        let rtses =
            start_all_recoverable(&net, AdaptivePolicy::sharded(3), crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        for key in 0..12u64 {
            deposit(&rtses[1], id, key, 2);
        }
        net.crash(NodeId(2));
        // No waiting for anyone's detector: the sum is asked for at once,
        // by a node other than the home.
        assert_eq!(bank_sum(&rtses[1], id), 24);
        assert!(!owners(&rtses[1], id).contains(&NodeId(2)));
        shutdown_all(&rtses);
    }

    /// A pipelined operation on every partition is a barrier of its round,
    /// sent to the home once: one write, counted once.
    #[test]
    fn a_pipelined_all_routed_write_is_counted_once() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, AdaptivePolicy::sharded(3));
        let id = new_bank(&rtses[0]);
        deposit(&rtses[1], id, 1, 5);
        let before = rtses[1].stats().writes;
        let clear = BankOp::Clear.to_bytes();
        let pending = rtses[1].invoke_async(id, Bank::TYPE_NAME, OpKind::Write, &clear);
        let reply = BankReply::from_bytes(&pending.wait().unwrap()).unwrap();
        assert_eq!(reply, BankReply::Value(0));
        assert_eq!(rtses[1].stats().writes, before + 1);
        assert_eq!(bank_sum(&rtses[0], id), 0);
        shutdown_all(&rtses);
    }

    /// With detection only (no re-homing), an operation shipped to a
    /// *killed* owner fails fast with `NodeDown` instead of waiting out the
    /// 10 s operation deadline.
    #[test]
    fn detect_only_fails_fast_with_node_down() {
        let net = Network::reliable(2);
        let rtses = start_all_recoverable(
            &net,
            AdaptivePolicy::sharded(2),
            RecoveryConfig {
                heartbeat_every: Duration::from_millis(20),
                suspect_after: 4,
                ..RecoveryConfig::detect_only()
            },
        );
        let id = new_bank(&rtses[0]);
        let remote_partition = owners(&rtses[0], id)
            .iter()
            .position(|o| *o == NodeId(1))
            .unwrap();
        let key = key_in(remote_partition, 2);
        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        let started = Instant::now();
        let err = rtses[0]
            .invoke(
                id,
                Bank::TYPE_NAME,
                OpKind::Write,
                &BankOp::Deposit { key, amount: 1 }.to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::NodeDown(NodeId(1)));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "NodeDown was not fail-fast"
        );
        shutdown_all(&rtses);
    }

    /// A pin fixes the regime, not the placement. Two of three nodes write a
    /// bank the third created and never touches again: its partitions
    /// leave the idle home for the writers, as an object that adapted into
    /// the sharded regime does, and half of each writer's operations stay
    /// local — about one message an operation (2 × ½ shipped + 2/64 usage
    /// reports) where the spread over all three nodes costs 1.25. A hand
    /// move lasts until the next evaluation.
    #[test]
    fn pinned_partitions_follow_their_users() {
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
        let settled = owners(&rtses[1], id);
        assert_eq!(settled.len(), 4);
        assert!(
            !settled.contains(&NodeId(0)),
            "the idle home owns a partition: {settled:?}"
        );
        assert!(settled.contains(&NodeId(1)) && settled.contains(&NodeId(2)));
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

        rtses[0].migrate(id, 0, NodeId(0)).unwrap();
        assert_eq!(owners(&rtses[0], id)[0], NodeId(0));
        let moved = Instant::now();
        while owners(&rtses[0], id).contains(&NodeId(0)) {
            assert!(
                moved.elapsed() < Duration::from_secs(10),
                "the hand move outlived the evaluations after it"
            );
            write(128);
        }
        assert_eq!(owners(&rtses[0], id), settled);
        assert_eq!(bank_sum(&rtses[0], id), deposits as i64);
        shutdown_all(&rtses);
    }

    /// With `window: u64::MAX` nothing reports, so nothing moves — not the
    /// spread an object is created with, not a hand move — until a proposal
    /// decides on whatever was flushed.
    #[test]
    fn with_proposals_only_a_pinned_object_moves_when_proposed() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            window: u64::MAX,
            ..AdaptivePolicy::sharded(4)
        };
        let rtses = start_all(&net, policy);
        let id = new_bank(&rtses[0]);
        let spread = owners(&rtses[0], id);
        let write = |count: u64| {
            for i in 0..count {
                deposit(&rtses[1 + (i % 2) as usize], id, i / 2, 1);
            }
        };
        write(512);
        assert_eq!(rtses[0].regime_of(id).unwrap().1, 0);
        assert_eq!(owners(&rtses[0], id), spread);
        rtses[0].migrate(id, 0, NodeId(0)).unwrap();
        write(512);
        assert_eq!(rtses[0].regime_of(id).unwrap().1, 1);
        assert_eq!(owners(&rtses[0], id)[0], NodeId(0));

        for rts in &rtses {
            rts.flush_usage(id);
        }
        rtses[1].propose(id).unwrap();
        let placed = owners(&rtses[0], id);
        assert!(!placed.contains(&NodeId(0)), "{placed:?}");
        assert_eq!(bank_sum(&rtses[0], id), 1024);
        shutdown_all(&rtses);
    }

    fn balance(rts: &AdaptiveRts, id: ObjectId, key: u64) -> i64 {
        let get = BankOp::Get(key).to_bytes();
        let reply = rts.invoke(id, Bank::TYPE_NAME, OpKind::Read, &get).unwrap();
        let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
        v
    }

    /// Nothing reports, leases and tables outlast the test: every message
    /// counted belongs to the operation that sent it.
    fn placed_by_hand() -> AdaptivePolicy {
        AdaptivePolicy {
            window: u64::MAX,
            regime_lease: Duration::from_secs(60),
            read_lease_ms: 60_000,
            ..AdaptivePolicy::sharded(4)
        }
    }

    /// A partition is a copy: two nodes that read nine times what the other
    /// writes own the partitions between them and mirror the ones they do
    /// not own. A read is local wherever it lands; a write costs two
    /// messages — at the owner a push and its acknowledgement, from the
    /// mirror a write-through and its `Installed` — and no unlock, and the
    /// other node's next read sees it.
    #[test]
    fn a_partition_mirror_is_read_locally_and_written_through() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, placed_by_hand());
        let id = new_bank(&rtses[0]);
        rtses[0].shard_by(id, &[0, 36, 36], &[0, 4, 4]).unwrap();
        assert_eq!(rtses[0].copy_holders(id).unwrap(), [NodeId(1), NodeId(2)]);
        let (partition, key) = partition_of(&rtses[0], id, NodeId(2), 4);
        assert!(!owners(&rtses[0], id).contains(&NodeId(0)));
        let unlocks = net.telemetry().registry();
        let unlocks = unlocks.counter("rts.update.unlock_notifies");
        let cost = |op: &dyn Fn() -> i64| {
            let before = net.stats();
            (op(), net.stats().since(&before).total_messages())
        };
        // A node's first read fetches its table, nothing after that.
        for rts in &rtses[1..] {
            balance(rts, id, key);
        }
        assert_eq!(cost(&|| balance(&rtses[1], id, key)), (0, 0));
        assert_eq!(cost(&|| deposit(&rtses[1], id, key, 5)), (5, 2));
        assert_eq!(cost(&|| balance(&rtses[2], id, key)), (5, 0));
        assert_eq!(cost(&|| deposit(&rtses[2], id, key, 2)), (7, 2));
        assert_eq!(cost(&|| balance(&rtses[1], id, key)), (7, 0));
        assert_eq!(rtses[1].keeper_of(id, partition), Some((1, 2, false, true)));
        assert_eq!(unlocks.get(), 0);
        shutdown_all(&rtses);
    }

    /// A listed mirror holds every acknowledged write, so it is promoted
    /// like a keeper when its partition's owner dies; the home then lists no
    /// readers — the promoted slot pushes to none — and every acknowledged
    /// write is there, applied once.
    #[test]
    fn a_listed_partition_mirror_is_promotable_like_a_keeper() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            window: u64::MAX,
            ..AdaptivePolicy::sharded(4)
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        rtses[0].shard_by(id, &[0, 36, 36], &[0, 4, 4]).unwrap();
        let (partition, key) = partition_of(&rtses[0], id, NodeId(2), 4);
        let stamp = OpStamp { origin: 1, seq: 41 };
        let op = BankOp::Deposit { key, amount: 5 }.to_bytes();
        let written = rtses[1].write_stamped(id, &op, stamp).unwrap();
        assert_eq!(
            BankReply::from_bytes(&written).unwrap(),
            BankReply::Value(5)
        );
        assert_eq!(balance(&rtses[1], id, key), 5);
        assert!(rtses[1].keeper_of(id, partition).is_some());

        net.crash(NodeId(2));
        wait_for_death(&rtses, NodeId(2));
        assert_eq!(deposit(&rtses[1], id, key, 1), 6);
        let retried = rtses[1].write_stamped(id, &op, stamp).unwrap();
        assert_eq!(
            BankReply::from_bytes(&retried).unwrap(),
            BankReply::Value(5)
        );
        assert!(!owners(&rtses[1], id).contains(&NodeId(2)));
        assert_eq!(rtses[0].copy_holders(id).unwrap(), Vec::new());
        assert_eq!(balance(&rtses[0], id, key), 6);
        assert_eq!(balance(&rtses[1], id, key), 6);
        shutdown_all(&rtses);
    }

    /// A keeper ranks beside the readers: as fresh as a leased reader and on
    /// the higher node id, it is what is promoted when the owner dies. The
    /// reader's lease may outlive the owner on a node that has not heard of
    /// the death yet; the keeper's mirror holds the lease that rode every
    /// push beside it (booked for the reader alone), so the promoted slot's
    /// first write waits out a grant span.
    #[test]
    fn a_keeper_outranking_a_leased_reader_is_promoted_with_its_first_write_fenced() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            window: u64::MAX,
            read_lease_ms: 150,
            ..AdaptivePolicy::sharded(4)
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        rtses[0].shard_by(id, &[36, 0, 0], &[0, 4, 4]).unwrap();
        // Node 1's partition: node 0 reads it under a lease, node 2 keeps it.
        assert_eq!(rtses[0].copy_holders(id).unwrap(), [NodeId(0)]);
        let (partition, key) = partition_of(&rtses[0], id, NodeId(1), 4);
        assert_eq!(deposit(&rtses[1], id, key, 5), 5);
        assert_eq!(balance(&rtses[0], id, key), 5);
        let (_, read, ..) = rtses[0].keeper_of(id, partition).unwrap();
        let (_, kept, ..) = rtses[2].keeper_of(id, partition).unwrap();
        assert_eq!(read, kept, "the reader and the keeper are equally fresh");

        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while owners(&rtses[0], id)[partition as usize] != NodeId(2) {
            assert!(Instant::now() < deadline, "the keeper was not promoted");
            std::thread::sleep(Duration::from_millis(2));
        }
        let fenced = rtses[2]
            .write_fence(id, partition)
            .expect("the write fence is armed");
        assert_eq!(deposit(&rtses[0], id, key, 1), 6);
        assert!(Instant::now() >= fenced, "a write inside the fence");
        assert_eq!(rtses[2].write_fence(id, partition), None);
        assert_eq!(balance(&rtses[0], id, key), 6);
        shutdown_all(&rtses);
    }

    /// A keeper the table also lists as a reader is a keeper all the same:
    /// when it has lost its copy — a missed prime, a run with a gap before
    /// it, a read that gave up on it — it says so at the next push and is
    /// primed whole before the write is acknowledged, so the write outlives
    /// its owner.
    #[test]
    fn a_listed_keeper_that_lost_sync_is_primed_before_the_ack() {
        let net = Network::reliable(3);
        let policy = AdaptivePolicy {
            window: u64::MAX,
            ..AdaptivePolicy::sharded(4)
        };
        let rtses = start_all_recoverable(&net, policy, crate::recovery::patient());
        let id = new_bank(&rtses[0]);
        rtses[0].shard_by(id, &[0, 36, 36], &[0, 4, 4]).unwrap();
        // Node 1's partition: node 2 reads it and keeps it.
        let (partition, key) = partition_of(&rtses[0], id, NodeId(1), 4);
        assert_eq!(rtses[0].copy_holders(id).unwrap(), [NodeId(1), NodeId(2)]);
        let epoch = rtses[0].regime_of(id).unwrap().1;
        let gap = RegimeMsg::Update {
            object: id.0,
            epoch,
            partition: Some(partition),
            seq: 3,
            held: false,
            ops: vec![BankOp::Deposit { key, amount: 1 }.to_bytes()],
            stamped: None,
            lease: None,
        };
        assert_eq!(rtses[2].serve(gap, NodeId(1)), RegimeReply::StaleRegime);
        assert_eq!(rtses[2].keeper_of(id, partition), None);
        assert_eq!(deposit(&rtses[0], id, key, 5), 5);
        let kept = rtses[2].keeper_of(id, partition);
        assert_eq!(
            kept.map(|(epoch, version, ..)| (epoch, version)),
            Some((epoch, 1))
        );

        net.crash(NodeId(1));
        wait_for_death(&rtses, NodeId(1));
        assert_eq!(deposit(&rtses[0], id, key, 1), 6);
        assert_eq!(owners(&rtses[0], id)[partition as usize], NodeId(2));
        shutdown_all(&rtses);
    }

    #[test]
    fn placement_is_deterministic() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, AdaptivePolicy::sharded(4));
        let id = new_bank(&rtses[0]);
        // A pure function of the object id and the pool size: every node
        // could compute it without coordination.
        let spread: Vec<NodeId> = (0..4).map(|p| NodeId(spread_owner(id.0, p, 4))).collect();
        for rts in &rtses {
            assert_eq!(owners(rts, id), spread);
        }
        shutdown_all(&rtses);
    }
}
