//! Shared barrier object.
//!
//! Orca programs synchronize phases with an object whose `Arrive` operation
//! is a write and whose `WaitFor(n)` operation is a guarded read that blocks
//! until `n` processes have arrived.

use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::OrcaResult;

/// Marker type for the shared barrier object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierObject;

wire_type! {
    /// Operations of [`BarrierObject`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BarrierOp {
        /// Register arrival (write); returns the number of arrivals so far.
        ARRIVE_TAG = 0 => Arrive,
        /// Block until at least `n` processes have arrived (guarded read).
        WAIT_FOR_TAG = 1 => WaitFor(u64),
        /// Number of arrivals so far (read).
        COUNT_TAG = 2 => Count,
        /// Reset the barrier to zero arrivals (write).
        RESET_TAG = 3 => Reset,
    }
}

impl ObjectType for BarrierObject {
    type State = u64;
    type Op = BarrierOp;
    type Reply = u64;

    const TYPE_NAME: &'static str = "orca.Barrier";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            BarrierOp::Arrive | BarrierOp::Reset => OpKind::Write,
            BarrierOp::WaitFor(_) | BarrierOp::Count => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            BarrierOp::Arrive => {
                *state += 1;
                OpOutcome::Done(*state)
            }
            BarrierOp::WaitFor(n) => {
                if *state >= *n {
                    OpOutcome::Done(*state)
                } else {
                    OpOutcome::Blocked
                }
            }
            BarrierOp::Count => OpOutcome::Done(*state),
            BarrierOp::Reset => {
                *state = 0;
                OpOutcome::Done(0)
            }
        }
    }
}

/// Typed convenience wrapper around a [`BarrierObject`] handle.
#[derive(Debug, Clone, Copy)]
pub struct Barrier {
    handle: ObjectHandle<BarrierObject>,
}

impl Barrier {
    /// Create a barrier with zero arrivals.
    pub fn create(ctx: &OrcaNode) -> OrcaResult<Self> {
        Ok(Barrier {
            handle: ctx.create::<BarrierObject>(&0)?,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<BarrierObject>) -> Self {
        Barrier { handle }
    }

    /// The underlying handle.
    pub fn handle(&self) -> ObjectHandle<BarrierObject> {
        self.handle
    }

    /// Register arrival and return the arrival count.
    pub fn arrive(&self, ctx: &OrcaNode) -> OrcaResult<u64> {
        ctx.invoke(self.handle, &BarrierOp::Arrive)
    }

    /// Block until `n` processes have arrived.
    pub fn wait_for(&self, ctx: &OrcaNode, n: u64) -> OrcaResult<u64> {
        ctx.invoke(self.handle, &BarrierOp::WaitFor(n))
    }

    /// Arrive and then wait for `n` arrivals (the usual barrier pattern).
    pub fn arrive_and_wait(&self, ctx: &OrcaNode, n: u64) -> OrcaResult<u64> {
        self.arrive(ctx)?;
        self.wait_for(ctx, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn arrivals_and_guard() {
        let mut state = 0u64;
        assert_eq!(
            BarrierObject::apply(&mut state, &BarrierOp::WaitFor(2)),
            OpOutcome::Blocked
        );
        BarrierObject::apply(&mut state, &BarrierOp::Arrive);
        BarrierObject::apply(&mut state, &BarrierOp::Arrive);
        assert_eq!(
            BarrierObject::apply(&mut state, &BarrierOp::WaitFor(2)),
            OpOutcome::Done(2)
        );
        BarrierObject::apply(&mut state, &BarrierOp::Reset);
        assert_eq!(
            BarrierObject::apply(&mut state, &BarrierOp::Count),
            OpOutcome::Done(0)
        );
    }

    #[test]
    fn codec_and_classification() {
        for op in [
            BarrierOp::Arrive,
            BarrierOp::WaitFor(3),
            BarrierOp::Count,
            BarrierOp::Reset,
        ] {
            assert_eq!(BarrierOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        assert_eq!(BarrierObject::kind(&BarrierOp::Arrive), OpKind::Write);
        assert_eq!(BarrierObject::kind(&BarrierOp::WaitFor(1)), OpKind::Read);
    }
}
