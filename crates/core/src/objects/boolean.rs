//! Shared boolean flag.
//!
//! ACP uses a shared boolean that is set when a process discovers the input
//! has no solution; every worker reads it before taking on new work and quits
//! when it is true.

use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::OrcaResult;

/// Marker type for the shared boolean object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolObject;

wire_type! {
    /// Operations of [`BoolObject`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BoolOp {
        /// Return the current value (read).
        VALUE_TAG = 0 => Value,
        /// Set the value (write); returns the new value.
        SET_TAG = 1 => Set(bool),
        /// Block until the value is true, then return it (guarded read).
        AWAIT_TRUE_TAG = 2 => AwaitTrue,
    }
}

impl ObjectType for BoolObject {
    type State = bool;
    type Op = BoolOp;
    type Reply = bool;

    const TYPE_NAME: &'static str = "orca.Bool";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            BoolOp::Value | BoolOp::AwaitTrue => OpKind::Read,
            BoolOp::Set(_) => OpKind::Write,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            BoolOp::Value => OpOutcome::Done(*state),
            BoolOp::Set(v) => {
                *state = *v;
                OpOutcome::Done(*state)
            }
            BoolOp::AwaitTrue => {
                if *state {
                    OpOutcome::Done(true)
                } else {
                    OpOutcome::Blocked
                }
            }
        }
    }
}

/// Typed convenience wrapper around a [`BoolObject`] handle.
#[derive(Debug, Clone, Copy)]
pub struct BoolFlag {
    handle: ObjectHandle<BoolObject>,
}

impl BoolFlag {
    /// Create a shared flag.
    pub fn create(ctx: &OrcaNode, initial: bool) -> OrcaResult<Self> {
        Ok(BoolFlag {
            handle: ctx.create::<BoolObject>(&initial)?,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<BoolObject>) -> Self {
        BoolFlag { handle }
    }

    /// The underlying handle.
    pub fn handle(&self) -> ObjectHandle<BoolObject> {
        self.handle
    }

    /// Read the flag.
    pub fn get(&self, ctx: &OrcaNode) -> OrcaResult<bool> {
        ctx.invoke(self.handle, &BoolOp::Value)
    }

    /// Set the flag.
    pub fn set(&self, ctx: &OrcaNode, value: bool) -> OrcaResult<bool> {
        ctx.invoke(self.handle, &BoolOp::Set(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn semantics_and_codec() {
        let mut state = false;
        assert_eq!(
            BoolObject::apply(&mut state, &BoolOp::AwaitTrue),
            OpOutcome::Blocked
        );
        assert_eq!(
            BoolObject::apply(&mut state, &BoolOp::Set(true)),
            OpOutcome::Done(true)
        );
        assert_eq!(
            BoolObject::apply(&mut state, &BoolOp::AwaitTrue),
            OpOutcome::Done(true)
        );
        for op in [BoolOp::Value, BoolOp::Set(false), BoolOp::AwaitTrue] {
            assert_eq!(BoolOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        assert_eq!(BoolObject::kind(&BoolOp::Set(true)), OpKind::Write);
        assert_eq!(BoolObject::kind(&BoolOp::Value), OpKind::Read);
    }
}
