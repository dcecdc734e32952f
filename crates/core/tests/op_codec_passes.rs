//! The decodes of one operation, per point-to-point backend. The slot that
//! executes an operation decodes it once — its kind and its application come
//! from the same pass — whether the caller applies it to its own copy, ships
//! it to a remote owner, or batches it with `invoke_many`.
//!
//! The operation type is this test's alone: its `Wire` decode counts itself.
//! Nobody reads the object from another node, so it has no mirror a push
//! would decode the operation at. One test function on purpose: the counter
//! is the process's.

use std::sync::atomic::{AtomicU64, Ordering};

use orca_core::{standard_registry, OrcaConfig, OrcaRuntime};
use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_rts::WritePolicy;
use orca_wire::{Decoder, Encoder, Wire, WireResult};

static DECODES: AtomicU64 = AtomicU64::new(0);

/// Add to the tally (`Some`, a write) or read it (`None`); decoding one
/// counts itself.
#[derive(Debug, Clone, PartialEq)]
struct Op(Option<u64>);

impl Wire for Op {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        DECODES.fetch_add(1, Ordering::SeqCst);
        Option::decode(dec).map(Op)
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

struct Tally;

impl ObjectType for Tally {
    type State = u64;
    type Op = Op;
    type Reply = u64;

    const TYPE_NAME: &'static str = "test.CountedOps";

    fn kind(op: &Op) -> OpKind {
        match op.0 {
            Some(_) => OpKind::Write,
            None => OpKind::Read,
        }
    }

    fn apply(state: &mut u64, op: &Op) -> OpOutcome<u64> {
        *state += op.0.unwrap_or(0);
        OpOutcome::Done(*state)
    }
}

#[test]
fn an_operation_is_decoded_once_at_the_slot_that_executes_it() {
    let configs = [
        OrcaConfig::primary_copy(3, WritePolicy::Update),
        OrcaConfig::primary_copy(3, WritePolicy::Invalidate),
        OrcaConfig::adaptive(3),
        OrcaConfig::sharded(3, 3),
    ];
    for config in configs {
        let kind = config.strategy.kind();
        let mut registry = standard_registry();
        registry.register::<Tally>();
        let runtime = OrcaRuntime::start(config, registry);
        let object = runtime.context(0).create::<Tally>(&0).expect("create");
        let decodes = |what: &str, expected: u64, invoke: &dyn Fn() -> u64| {
            DECODES.store(0, Ordering::SeqCst);
            let tally = invoke();
            assert_eq!(DECODES.load(Ordering::SeqCst), 1, "{kind:?}: {what}");
            assert_eq!(tally, expected, "{kind:?}: {what}");
        };
        let (owner, other) = (runtime.context(0), runtime.context(1));
        decodes("a write to the caller's own copy", 1, &|| {
            owner.invoke(object, &Op(Some(1))).expect("local write")
        });
        decodes("a write shipped to its owner", 3, &|| {
            other.invoke(object, &Op(Some(2))).expect("shipped write")
        });
        decodes("a batched write", 6, &|| {
            let futures = owner.invoke_many(object, &[Op(Some(3))]);
            futures[0].wait().expect("batched write")
        });
        decodes("a batched write shipped to its owner", 10, &|| {
            let futures = other.invoke_many(object, &[Op(Some(4))]);
            futures[0].wait().expect("shipped batched write")
        });
    }
}
