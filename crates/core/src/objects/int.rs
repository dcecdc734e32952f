//! Shared integer object.
//!
//! The archetypal Orca object: the global bound in the TSP program is a
//! shared integer that is read millions of times and written only when a
//! better route is found. The `MinAssign` operation is the paper's
//! "indivisible operation that updates the object [and] first checks if the
//! new value actually is less than the current value, to prevent race
//! conditions".

use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::OrcaResult;

/// Marker type for the shared integer object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntObject;

wire_type! {
    /// Operations of [`IntObject`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum IntOp {
        /// Return the current value (read).
        VALUE_TAG = 0 => Value,
        /// Overwrite the value (write); returns the new value.
        ASSIGN_TAG = 1 => Assign(i64),
        /// Add to the value (write); returns the new value.
        ADD_TAG = 2 => Add(i64),
        /// Set the value to the minimum of the current value and the operand
        /// (write); returns the resulting value. Used for branch-and-bound
        /// bounds.
        MIN_ASSIGN_TAG = 3 => MinAssign(i64),
        /// Block until the value is at most the operand, then return it (read
        /// with a guard).
        AWAIT_AT_MOST_TAG = 4 => AwaitAtMost(i64),
    }
}

impl ObjectType for IntObject {
    type State = i64;
    type Op = IntOp;
    type Reply = i64;

    const TYPE_NAME: &'static str = "orca.Int";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            IntOp::Value | IntOp::AwaitAtMost(_) => OpKind::Read,
            IntOp::Assign(_) | IntOp::Add(_) | IntOp::MinAssign(_) => OpKind::Write,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            IntOp::Value => OpOutcome::Done(*state),
            IntOp::Assign(v) => {
                *state = *v;
                OpOutcome::Done(*state)
            }
            IntOp::Add(v) => {
                *state += v;
                OpOutcome::Done(*state)
            }
            IntOp::MinAssign(v) => {
                if *v < *state {
                    *state = *v;
                }
                OpOutcome::Done(*state)
            }
            IntOp::AwaitAtMost(v) => {
                if *state <= *v {
                    OpOutcome::Done(*state)
                } else {
                    OpOutcome::Blocked
                }
            }
        }
    }
}

/// Typed convenience wrapper around an [`IntObject`] handle.
#[derive(Debug, Clone, Copy)]
pub struct SharedInt {
    handle: ObjectHandle<IntObject>,
}

impl SharedInt {
    /// Create a shared integer with an initial value.
    pub fn create(ctx: &OrcaNode, initial: i64) -> OrcaResult<Self> {
        Ok(SharedInt {
            handle: ctx.create::<IntObject>(&initial)?,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<IntObject>) -> Self {
        SharedInt { handle }
    }

    /// The underlying handle (to pass to forked processes).
    pub fn handle(&self) -> ObjectHandle<IntObject> {
        self.handle
    }

    /// Read the current value (local, no communication in the broadcast RTS).
    pub fn value(&self, ctx: &OrcaNode) -> OrcaResult<i64> {
        ctx.invoke(self.handle, &IntOp::Value)
    }

    /// Overwrite the value.
    pub fn assign(&self, ctx: &OrcaNode, value: i64) -> OrcaResult<i64> {
        ctx.invoke(self.handle, &IntOp::Assign(value))
    }

    /// Add to the value.
    pub fn add(&self, ctx: &OrcaNode, delta: i64) -> OrcaResult<i64> {
        ctx.invoke(self.handle, &IntOp::Add(delta))
    }

    /// Atomically lower the value to `candidate` if it improves on the
    /// current value; returns the resulting value.
    pub fn min_assign(&self, ctx: &OrcaNode, candidate: i64) -> OrcaResult<i64> {
        ctx.invoke(self.handle, &IntOp::MinAssign(candidate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn ops_round_trip() {
        for op in [
            IntOp::Value,
            IntOp::Assign(-3),
            IntOp::Add(7),
            IntOp::MinAssign(2),
            IntOp::AwaitAtMost(0),
        ] {
            assert_eq!(IntOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }

    #[test]
    fn min_assign_only_lowers() {
        let mut state = 10i64;
        assert_eq!(
            IntObject::apply(&mut state, &IntOp::MinAssign(15)),
            OpOutcome::Done(10)
        );
        assert_eq!(
            IntObject::apply(&mut state, &IntOp::MinAssign(3)),
            OpOutcome::Done(3)
        );
        assert_eq!(state, 3);
    }

    #[test]
    fn await_at_most_guard() {
        let mut state = 10i64;
        assert_eq!(
            IntObject::apply(&mut state, &IntOp::AwaitAtMost(5)),
            OpOutcome::Blocked
        );
        state = 4;
        assert_eq!(
            IntObject::apply(&mut state, &IntOp::AwaitAtMost(5)),
            OpOutcome::Done(4)
        );
    }

    #[test]
    fn classification() {
        assert_eq!(IntObject::kind(&IntOp::Value), OpKind::Read);
        assert_eq!(IntObject::kind(&IntOp::MinAssign(1)), OpKind::Write);
    }
}
