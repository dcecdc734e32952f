//! The codec passes of creating an object, per backend. An object is created
//! from a value its process holds, and its state is encoded only for the
//! nodes it ships to: on a three-node cluster, a replicated copy at its
//! creator costs no pass at all, a broadcast create one encode and a decode
//! at each other node, and a sharded create one encode and one decode per
//! partition placed away from the creator.
//!
//! The state type is this test's alone: its `Wire` encode and decode count
//! themselves, and its `encoded_len` is a size pass, so the home's pricing
//! of the first move is no encode. One test function on purpose: the
//! counters are the process's.

use std::sync::atomic::{AtomicU64, Ordering};

use orca_core::{standard_registry, OrcaConfig, OrcaRuntime};
use orca_object::shard::shard_of_u64;
use orca_object::{ObjectType, OpKind, OpOutcome, ShardRoute, ShardableType};
use orca_rts::{RtsKind, WritePolicy};
use orca_wire::{Decoder, Encoder, Wire, WireResult};

static ENCODES: AtomicU64 = AtomicU64::new(0);
static DECODES: AtomicU64 = AtomicU64::new(0);

/// A set of keys whose codec counts its passes.
#[derive(Debug, Clone, Default, PartialEq)]
struct Keys(Vec<u64>);

impl Wire for Keys {
    fn encode(&self, enc: &mut Encoder) {
        ENCODES.fetch_add(1, Ordering::SeqCst);
        self.0.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        DECODES.fetch_add(1, Ordering::SeqCst);
        Vec::decode(dec).map(Keys)
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// Insert a key (`Some`, a write) or count them (`None`, a read).
struct KeySet;

impl ObjectType for KeySet {
    type State = Keys;
    type Op = Option<u64>;
    type Reply = u64;

    const TYPE_NAME: &'static str = "test.CountedKeys";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            Some(_) => OpKind::Write,
            None => OpKind::Read,
        }
    }

    fn apply(state: &mut Keys, op: &Self::Op) -> OpOutcome<u64> {
        if let Some(key) = op {
            state.0.push(*key);
        }
        OpOutcome::Done(state.0.len() as u64)
    }
}

impl ShardableType for KeySet {
    fn split_state(state: Keys, parts: u32) -> Vec<Keys> {
        let mut split = vec![Keys::default(); parts.max(1) as usize];
        for key in state.0 {
            split[shard_of_u64(key, parts) as usize].0.push(key);
        }
        split
    }

    fn merge_states(parts: Vec<Keys>) -> Keys {
        Keys(parts.into_iter().flat_map(|part| part.0).collect())
    }

    fn route(op: &Self::Op, parts: u32) -> ShardRoute {
        match op {
            Some(key) => ShardRoute::One(shard_of_u64(*key, parts)),
            None => ShardRoute::All,
        }
    }

    fn combine(_op: &Self::Op, replies: Vec<u64>) -> u64 {
        replies.into_iter().sum()
    }
}

#[test]
fn creating_an_object_encodes_its_state_only_for_other_nodes() {
    let configs = [
        OrcaConfig::primary_copy(3, WritePolicy::Update),
        OrcaConfig::primary_copy(3, WritePolicy::Invalidate),
        OrcaConfig::adaptive(3),
        OrcaConfig::broadcast(3),
        OrcaConfig::sharded(3, 3),
        OrcaConfig::sharded(3, 5),
    ];
    for config in configs {
        let kind = config.strategy.kind();
        let mut registry = standard_registry();
        registry.register_sharded::<KeySet>();
        let runtime = OrcaRuntime::start(config, registry);
        ENCODES.store(0, Ordering::SeqCst);
        DECODES.store(0, Ordering::SeqCst);
        let keys = Keys((0..64).collect());
        let object = runtime.context(0).create::<KeySet>(&keys).expect("create");
        // Every node has the object before the count is taken.
        for node in 0..3 {
            let len = runtime.context(node).invoke(object, &None).expect("count");
            assert_eq!(len, 64, "{kind:?}");
        }
        let passes = (
            ENCODES.load(Ordering::SeqCst),
            DECODES.load(Ordering::SeqCst),
        );
        let expected = match kind {
            RtsKind::Broadcast => (1, 2),
            RtsKind::Sharded => {
                let owners = runtime.shard_owners(object.id()).expect("partitioned");
                let away = owners.iter().filter(|owner| owner.index() != 0).count() as u64;
                assert!(
                    away > 0 && away < owners.len() as u64,
                    "{kind:?}: {owners:?}"
                );
                (away, away)
            }
            _ => (0, 0),
        };
        assert_eq!(passes, expected, "{kind:?}: (encodes, decodes) of a create");
    }
}
