//! Replicas: one node's copy of a shared data-object.

use std::any::Any;

use orca_wire::Wire;

use crate::{ObjectError, ObjectType, OpKind, OpOutcome};

/// Outcome of applying an *encoded* operation to a type-erased replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppliedOutcome {
    /// The operation executed; the encoded reply is returned.
    Done(Vec<u8>),
    /// The operation's guard was false; nothing changed.
    Blocked,
}

impl AppliedOutcome {
    /// True if the operation completed.
    pub fn is_done(&self) -> bool {
        matches!(self, AppliedOutcome::Done(_))
    }
}

/// Type-erased interface to a replica, used by the runtime systems so they
/// can manage objects of arbitrary types and ship encoded operations.
///
/// An object's initial state reaches its runtime system as one of these —
/// a value, built from the state the creating process holds — and is
/// encoded only for the nodes it ships to.
pub trait AnyReplica: Send + Sync {
    /// Registered type name of the object.
    fn type_name(&self) -> &'static str;

    /// Classify an encoded operation without applying it.
    fn op_kind(&self, op: &[u8]) -> Result<OpKind, ObjectError>;

    /// Apply an encoded operation, returning the encoded reply.
    ///
    /// Write operations that complete bump the replica's version; blocked
    /// operations and reads leave it unchanged.
    fn apply_encoded(&mut self, op: &[u8]) -> Result<AppliedOutcome, ObjectError>;

    /// Encode the current state (used for copy transfers and invalidation
    /// re-fetches in the primary-copy runtime system).
    fn state_bytes(&self) -> Vec<u8>;

    /// Size of the encoded state, counted without encoding it (a size
    /// pass, [`Wire::encoded_len`]): exactly `state_bytes().len()`.
    fn state_len(&self) -> usize;

    /// Overwrite the state from an encoded representation (used when
    /// installing a fetched copy).
    fn set_state_bytes(&mut self, bytes: &[u8]) -> Result<(), ObjectError>;

    /// The replica as [`Any`], for typed code to take back what it built
    /// (a partitioning of its state, say).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// Monotonic counter of completed write operations on this replica.
    fn version(&self) -> u64;
}

/// A concrete replica of an object of type `T`.
#[derive(Debug, Clone)]
pub struct Replica<T: ObjectType> {
    state: T::State,
    version: u64,
}

impl<T: ObjectType> Replica<T> {
    /// Create a replica holding `state`.
    pub fn new(state: T::State) -> Self {
        Replica { state, version: 0 }
    }

    /// Create a replica by decoding an encoded state.
    pub fn from_state_bytes(bytes: &[u8]) -> Result<Self, ObjectError> {
        let state =
            T::State::from_bytes(bytes).map_err(|err| ObjectError::Codec(err.to_string()))?;
        Ok(Replica::new(state))
    }

    /// Take the typed state out of the replica.
    pub fn into_state(self) -> T::State {
        self.state
    }

    /// Borrow the typed state (used by tests and by local reads in the typed
    /// fast path of `orca-core`).
    pub fn state(&self) -> &T::State {
        &self.state
    }

    /// Apply a typed operation directly.
    pub fn apply(&mut self, op: &T::Op) -> OpOutcome<T::Reply> {
        let outcome = T::apply(&mut self.state, op);
        if outcome.is_done() && T::kind(op) == OpKind::Write {
            self.version += 1;
        }
        outcome
    }
}

impl<T: ObjectType> AnyReplica for Replica<T> {
    fn type_name(&self) -> &'static str {
        T::TYPE_NAME
    }

    fn op_kind(&self, op: &[u8]) -> Result<OpKind, ObjectError> {
        let op = T::Op::from_bytes(op).map_err(|err| ObjectError::Codec(err.to_string()))?;
        Ok(T::kind(&op))
    }

    fn apply_encoded(&mut self, op: &[u8]) -> Result<AppliedOutcome, ObjectError> {
        let op = T::Op::from_bytes(op).map_err(|err| ObjectError::Codec(err.to_string()))?;
        match self.apply(&op) {
            OpOutcome::Done(reply) => Ok(AppliedOutcome::Done(reply.to_bytes())),
            OpOutcome::Blocked => Ok(AppliedOutcome::Blocked),
        }
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.state.to_bytes()
    }

    fn state_len(&self) -> usize {
        self.state.encoded_len()
    }

    fn set_state_bytes(&mut self, bytes: &[u8]) -> Result<(), ObjectError> {
        self.state =
            T::State::from_bytes(bytes).map_err(|err| ObjectError::Codec(err.to_string()))?;
        self.version += 1;
        Ok(())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Accumulator, AccumulatorOp};

    #[test]
    fn typed_apply_bumps_version_on_writes_only() {
        let mut replica = Replica::<Accumulator>::new(0);
        assert_eq!(replica.version(), 0);
        assert_eq!(replica.apply(&AccumulatorOp::Read).unwrap(), 0);
        assert_eq!(replica.version(), 0);
        assert_eq!(replica.apply(&AccumulatorOp::Add(5)).unwrap(), 5);
        assert_eq!(replica.version(), 1);
        assert_eq!(*replica.state(), 5);
    }

    #[test]
    fn encoded_apply_round_trips_reply() {
        let mut replica = Replica::<Accumulator>::new(10);
        let op = AccumulatorOp::Add(7).to_bytes();
        assert_eq!(replica.op_kind(&op).unwrap(), OpKind::Write);
        match replica.apply_encoded(&op).unwrap() {
            AppliedOutcome::Done(reply) => assert_eq!(i64::from_bytes(&reply).unwrap(), 17),
            AppliedOutcome::Blocked => panic!("unexpected block"),
        }
    }

    #[test]
    fn blocked_operation_leaves_state_and_version_untouched() {
        let mut replica = Replica::<Accumulator>::new(1);
        let op = AccumulatorOp::AwaitAtLeast(100).to_bytes();
        assert_eq!(replica.apply_encoded(&op).unwrap(), AppliedOutcome::Blocked);
        assert_eq!(replica.version(), 0);
        assert_eq!(*replica.state(), 1);
        // After the guard becomes true the operation completes.
        replica.apply(&AccumulatorOp::Add(200));
        assert!(replica.apply_encoded(&op).unwrap().is_done());
    }

    #[test]
    fn state_transfer_round_trip() {
        let mut source = Replica::<Accumulator>::new(0);
        source.apply(&AccumulatorOp::Add(42));
        let bytes = source.state_bytes();
        assert_eq!(source.state_len(), bytes.len());
        let mut target = Replica::<Accumulator>::new(0);
        target.set_state_bytes(&bytes).unwrap();
        assert_eq!(*target.state(), 42);
        assert!(Replica::<Accumulator>::from_state_bytes(&bytes).is_ok());
        assert!(Replica::<Accumulator>::from_state_bytes(&[0xff, 0xff, 0xff]).is_err());
    }

    #[test]
    fn malformed_operation_is_a_codec_error() {
        let mut replica = Replica::<Accumulator>::new(0);
        assert!(matches!(
            replica.apply_encoded(&[0xff, 1, 2]),
            Err(ObjectError::Codec(_))
        ));
        assert!(matches!(
            replica.op_kind(&[0xff]),
            Err(ObjectError::Codec(_))
        ));
    }
}
