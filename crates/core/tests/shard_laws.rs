//! The shard laws of the four shardable object types, for 1–5 partitions:
//! a split merges back to the state it was cut from, and merged partitions
//! split back into the same partitions. The second law is what lets a
//! runtime system move drained partitions as they are when the partition
//! count stays, instead of merging them and cutting the whole again.
//!
//! Every state and partition here is sized too: its `encoded_len`, the
//! size pass a home prices an object's first move by, is exactly the
//! length of its bytes — for the integer's state as well.
//!
//! Driven by a seeded SplitMix64 generator, like the wire property tests:
//! every case is reproducible from its index.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;

use orca_core::objects::{
    BoolArrayObject, IntObject, JobQueueObject, JobQueueState, KvTableObject, SetObject, TableEntry,
};
use orca_object::shard::{shard_of_u64, ShardableType};
use orca_object::ObjectType;
use orca_wire::Wire;

const CASES: usize = 256;

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The size pass of a state counts exactly the bytes its encoding writes.
fn exact_len<T: ObjectType>(state: &T::State, case: usize) {
    let (counted, written) = (state.encoded_len(), state.to_bytes().len());
    assert_eq!(counted, written, "case {case}: {} state size", T::TYPE_NAME);
}

/// Both laws for `state` cut into 1–5 partitions, the first up to `same`:
/// what a state means, for a type that does not promise every detail back.
fn laws<T: ShardableType>(state: T::State, case: usize, same: fn(T::State) -> T::State)
where
    T::State: PartialEq + Debug,
{
    exact_len::<T>(&state, case);
    for parts in 1..=5u32 {
        let split = T::split_state(state.clone(), parts);
        assert_eq!(split.len(), parts as usize, "case {case}, {parts} parts");
        split.iter().for_each(|part| exact_len::<T>(part, case));
        let merged = T::merge_states(split.clone());
        let (got, want) = (same(merged.clone()), same(state.clone()));
        assert_eq!(
            got, want,
            "case {case}: merge(split(s)) != s, {parts} parts"
        );
        let again = T::split_state(merged, parts);
        assert_eq!(
            again, split,
            "case {case}: split(merge(p)) != p, {parts} parts"
        );
    }
}

#[test]
fn kv_table_splits_and_merges_back() {
    let mut gen = Gen(0x5EED_0001);
    for case in 0..CASES {
        let state: BTreeMap<u64, TableEntry> = (0..gen.below(64))
            .map(|_| {
                let entry = TableEntry {
                    depth: gen.below(9) as i32 - 4,
                    value: gen.next() as i64,
                    aux: gen.next(),
                };
                (gen.next() >> gen.below(64), entry)
            })
            .collect();
        laws::<KvTableObject>(state, case, |state| state);
    }
}

#[test]
fn set_splits_and_merges_back() {
    let mut gen = Gen(0x5EED_0002);
    for case in 0..CASES {
        let state: BTreeSet<u64> = (0..gen.below(64)).map(|_| gen.below(1 << 20)).collect();
        laws::<SetObject>(state, case, |state| state);
    }
}

#[test]
fn bool_array_splits_and_merges_back() {
    let mut gen = Gen(0x5EED_0003);
    for case in 0..CASES {
        let state: Vec<bool> = (0..gen.below(40)).map(|_| gen.below(2) == 1).collect();
        laws::<BoolArrayObject>(state, case, |state| state);
    }
}

#[test]
fn job_queue_splits_and_merges_back() {
    let mut gen = Gen(0x5EED_0004);
    for case in 0..CASES {
        let jobs: VecDeque<Vec<u8>> = (0..gen.below(24))
            .map(|_| (0..gen.below(6)).map(|_| gen.next() as u8).collect())
            .collect();
        // Jobs already taken count too: at least as many added as pending.
        let total_added = jobs.len() as u64 + gen.below(8);
        let closed = gen.below(2) == 1;
        let state = JobQueueState {
            jobs,
            closed,
            total_added,
        };
        // A queue is FIFO within a partition only: its jobs come back, in
        // some order.
        laws::<JobQueueObject>(state, case, |mut state| {
            state.jobs.make_contiguous().sort();
            state
        });
    }
}

#[test]
fn an_integer_state_is_sized_exactly() {
    let mut gen = Gen(0x5EED_0006);
    for case in 0..CASES {
        exact_len::<IntObject>(&(gen.next() as i64 >> gen.below(64)), case);
    }
    for edge in [0, -1, 63, -64, 64, i64::MIN, i64::MAX] {
        exact_len::<IntObject>(&edge, 0);
    }
}

#[test]
fn keyed_partitions_split_back_whatever_each_holds() {
    // A keyed partition holds exactly the keys that route to it, whatever
    // writes it took since the split: partitions built key by key merge and
    // split back into themselves.
    let mut gen = Gen(0x5EED_0005);
    for case in 0..CASES {
        let parts = 1 + gen.below(5) as u32;
        let mut tables = vec![BTreeMap::new(); parts as usize];
        let mut sets = vec![BTreeSet::new(); parts as usize];
        for _ in 0..gen.below(64) {
            let key = gen.next();
            let entry = TableEntry {
                depth: 1,
                value: key as i64,
                aux: 0,
            };
            tables[shard_of_u64(key, parts) as usize].insert(key, entry);
            sets[shard_of_u64(key, parts) as usize].insert(key);
        }
        let merged = KvTableObject::merge_states(tables.clone());
        assert_eq!(
            KvTableObject::split_state(merged, parts),
            tables,
            "case {case}"
        );
        let merged = SetObject::merge_states(sets.clone());
        assert_eq!(SetObject::split_state(merged, parts), sets, "case {case}");
    }
}
