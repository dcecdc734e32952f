//! RPC messages of the point-to-point (primary-copy) runtime system.

use orca_object::ObjectId;
use orca_wire::{
    BatchOutcome, Decoder, DedupWindow, Encoder, LeaseGrant, LeaseMsg, OpStamp, Wire, WireError,
    WireResult,
};

/// A stamped write's identity plus the reply it produced, piggybacked on
/// update pushes so every copy holder's [`DedupWindow`] stays as fresh as
/// its state — whichever copy gets promoted can answer a retry.
pub type StampedReply = (OpStamp, Vec<u8>);

fn encode_stamped(enc: &mut Encoder, stamped: &Option<StampedReply>) {
    match stamped {
        None => enc.put_u8(0),
        Some((stamp, reply)) => {
            enc.put_u8(1);
            stamp.encode(enc);
            enc.put_bytes(reply);
        }
    }
}

fn decode_stamped(dec: &mut Decoder<'_>) -> WireResult<Option<StampedReply>> {
    match dec.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some((Wire::decode(dec)?, dec.get_bytes()?))),
        tag => Err(WireError::InvalidTag {
            type_name: "Option<StampedReply>",
            tag: u64::from(tag),
        }),
    }
}

/// Requests sent to a node's primary-copy RTS service.
///
/// `ReadAt`, `WriteAt`, `WriteThrough`, `FetchCopy`, `DropCopy` and the
/// write batch ([`PrimaryMsg::WRITE_BATCH_TAG`]) are client → primary
/// requests; the rest are primary → secondary requests used by the write
/// and lease protocols.
///
/// The three requests that ship one operation (`ReadAt`, `WriteAt`,
/// `WriteThrough`) and the two replies that carry one result
/// ([`PrimaryReply::Reply`], [`PrimaryReply::Installed`]) put it last on
/// the wire, as the message's *tail*: no length prefix, it runs to the end
/// of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimaryMsg {
    /// Execute a read operation at the primary copy (the caller holds no
    /// valid local copy).
    ReadAt {
        /// Target object.
        object: ObjectId,
        /// Encoded operation.
        op: Vec<u8>,
    },
    /// Execute a write operation at the primary copy, running the
    /// invalidation or two-phase-update protocol against all secondaries.
    WriteAt {
        /// Target object.
        object: ObjectId,
        /// Encoded operation.
        op: Vec<u8>,
        /// Exactly-once identity of the write; a retry after a timeout or a
        /// re-homing re-sends the same stamp and is answered from the
        /// primary's [`DedupWindow`] instead of being applied again.
        stamp: Option<OpStamp>,
    },
    /// [`PrimaryMsg::WriteAt`] from a writer that holds an installed copy
    /// and has marked it pending: the primary leaves the caller out of both
    /// phases of the update protocol and answers
    /// [`PrimaryReply::Installed`], from which the writer brings its own
    /// copy up to date — it already has the operation bytes in hand. A
    /// caller the primary does not list as a holder is answered like a
    /// plain `WriteAt` and drops its copy.
    WriteThrough {
        /// Target object.
        object: ObjectId,
        /// Encoded operation.
        op: Vec<u8>,
        /// Exactly-once identity of the write (see [`PrimaryMsg::WriteAt`]).
        stamp: Option<OpStamp>,
    },
    /// Register the caller as a copy holder and return the current state.
    FetchCopy {
        /// Target object.
        object: ObjectId,
    },
    /// Deregister the caller as a copy holder.
    DropCopy {
        /// Target object.
        object: ObjectId,
    },
    /// Primary → secondary: discard your copy (invalidation protocol).
    Invalidate {
        /// Target object.
        object: ObjectId,
        /// The primary replica's version after the write that triggered the
        /// invalidation. The secondary records it as *seen* even when it
        /// holds no copy yet: an invalidation can overtake the fetch reply
        /// it races (the fetch snapshot predates this write), and the
        /// version floor makes the late install discard that stale
        /// snapshot instead of serving it forever.
        version: u64,
    },
    /// Primary → secondary: apply this operation to your copy and keep the
    /// object locked until [`PrimaryMsg::Unlock`] arrives (update protocol,
    /// phase 1).
    UpdateOp {
        /// Target object.
        object: ObjectId,
        /// Encoded operation.
        op: Vec<u8>,
        /// The primary replica's version *after* applying the operation.
        /// Secondaries apply updates strictly in version order; a gap (or
        /// an update racing a state snapshot) discards the copy, which
        /// re-syncs on the next access — the discipline that makes a copy
        /// of version `v` provably contain every write up to `v`.
        version: u64,
        /// The stamp and reply of the write this update propagates, folded
        /// into the secondary's dedup window so a promoted copy answers
        /// retries of writes the dead primary already applied.
        stamped: Option<StampedReply>,
    },
    /// Primary → secondary: unlock the object (update protocol, phase 2).
    /// A one-way notification — nothing is sent back.
    Unlock {
        /// Target object.
        object: ObjectId,
        /// Version of the update this unlock completes. A holder that has
        /// since applied a later update (its `UpdateOp` can be handled
        /// before this message is) ignores the unlock: that later update's
        /// own unlock is still to come.
        version: u64,
        /// Renewed read lease, when leases are enabled: the holder's copy
        /// is current again as of this unlock, so the primary re-arms its
        /// permission to serve local reads.
        lease: Option<LeaseGrant>,
    },
    /// Primary → secondary: apply a run of consecutive update operations to
    /// your copy, in order, and keep the object locked until
    /// [`PrimaryMsg::Unlock`] — the batched form of
    /// [`PrimaryMsg::UpdateOp`], one message per secondary per batch
    /// instead of one per write.
    UpdateBatch {
        /// Target object.
        object: ObjectId,
        /// Encoded operations, in primary application order.
        ops: Vec<Vec<u8>>,
        /// The primary replica's version after applying `ops[0]`; the run
        /// covers versions `first_version ..= first_version + ops.len() - 1`
        /// and a secondary applies exactly the suffix it has not seen yet
        /// (same strict version ordering as single updates).
        first_version: u64,
    },
    /// Standalone lease traffic (see [`LeaseMsg`]): grants and renewals
    /// piggyback on [`PrimaryReply::State`] and [`PrimaryMsg::Unlock`], so
    /// only explicit revocations travel as this message.
    Lease(LeaseMsg),
}

impl PrimaryMsg {
    /// Tag byte of the client → primary *write batch* request (the
    /// pipelined asynchronous path): write operations executed in order
    /// (`partition`/`epoch` unused). Each runs the full write protocol
    /// semantics; consecutive operations on one object are applied under
    /// one object lock and their update pushes to each secondary coalesce
    /// into a single [`PrimaryMsg::UpdateBatch`]. The primary answers
    /// [`PrimaryReply::Batch`].
    ///
    /// The request is this byte followed by an [`orca_wire::batch`]
    /// encoding and is never an owned `PrimaryMsg`: senders stream it with
    /// [`orca_wire::OpBatchEncoder::request`], the primary applies it in
    /// place through [`orca_wire::OpBatchView::from_request`].
    pub const WRITE_BATCH_TAG: u8 = 7;
}

impl Wire for PrimaryMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PrimaryMsg::ReadAt { object, op } => {
                enc.put_u8(0);
                object.encode(enc);
                enc.put_raw(op);
            }
            PrimaryMsg::WriteAt { object, op, stamp } => {
                enc.put_u8(1);
                object.encode(enc);
                stamp.encode(enc);
                enc.put_raw(op);
            }
            PrimaryMsg::FetchCopy { object } => {
                enc.put_u8(2);
                object.encode(enc);
            }
            PrimaryMsg::DropCopy { object } => {
                enc.put_u8(3);
                object.encode(enc);
            }
            PrimaryMsg::Invalidate { object, version } => {
                enc.put_u8(4);
                object.encode(enc);
                version.encode(enc);
            }
            PrimaryMsg::UpdateOp {
                object,
                op,
                version,
                stamped,
            } => {
                enc.put_u8(5);
                object.encode(enc);
                enc.put_bytes(op);
                version.encode(enc);
                encode_stamped(enc, stamped);
            }
            PrimaryMsg::Unlock {
                object,
                version,
                lease,
            } => {
                enc.put_u8(6);
                object.encode(enc);
                version.encode(enc);
                lease.encode(enc);
            }
            PrimaryMsg::UpdateBatch {
                object,
                ops,
                first_version,
            } => {
                enc.put_u8(8);
                object.encode(enc);
                ops.encode(enc);
                first_version.encode(enc);
            }
            PrimaryMsg::Lease(msg) => {
                enc.put_u8(9);
                msg.encode(enc);
            }
            PrimaryMsg::WriteThrough { object, op, stamp } => {
                enc.put_u8(10);
                object.encode(enc);
                stamp.encode(enc);
                enc.put_raw(op);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(PrimaryMsg::ReadAt {
                object: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            1 => Ok(PrimaryMsg::WriteAt {
                object: Wire::decode(dec)?,
                stamp: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            2 => Ok(PrimaryMsg::FetchCopy {
                object: Wire::decode(dec)?,
            }),
            3 => Ok(PrimaryMsg::DropCopy {
                object: Wire::decode(dec)?,
            }),
            4 => Ok(PrimaryMsg::Invalidate {
                object: Wire::decode(dec)?,
                version: Wire::decode(dec)?,
            }),
            5 => Ok(PrimaryMsg::UpdateOp {
                object: Wire::decode(dec)?,
                op: dec.get_bytes()?,
                version: Wire::decode(dec)?,
                stamped: decode_stamped(dec)?,
            }),
            6 => Ok(PrimaryMsg::Unlock {
                object: Wire::decode(dec)?,
                version: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
            }),
            8 => Ok(PrimaryMsg::UpdateBatch {
                object: Wire::decode(dec)?,
                ops: Wire::decode(dec)?,
                first_version: Wire::decode(dec)?,
            }),
            9 => Ok(PrimaryMsg::Lease(Wire::decode(dec)?)),
            10 => Ok(PrimaryMsg::WriteThrough {
                object: Wire::decode(dec)?,
                stamp: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "PrimaryMsg",
                tag: u64::from(tag),
            }),
        }
    }
}

/// Replies of the primary-copy RTS service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimaryReply {
    /// Encoded reply of a completed operation.
    Reply(Vec<u8>),
    /// The operation's guard was false; the caller should retry later.
    Blocked,
    /// Current state of the object (reply to [`PrimaryMsg::FetchCopy`]).
    State {
        /// Registered type name, so the receiver can instantiate a replica.
        type_name: String,
        /// Encoded state.
        state: Vec<u8>,
        /// The primary replica's version at the snapshot; the fetcher's
        /// copy continues the update-version sequence from here.
        version: u64,
        /// A fresh read lease over the copy, when leases are enabled.
        lease: Option<LeaseGrant>,
        /// The primary's dedup window at the snapshot, so the copy can be
        /// promoted without forgetting which stamped writes were applied.
        dedup: DedupWindow,
    },
    /// Acknowledgement with no payload.
    Ack,
    /// The request failed.
    Error(String),
    /// Per-operation outcomes of a write batch
    /// ([`PrimaryMsg::WRITE_BATCH_TAG`]), in batch order.
    Batch(Vec<BatchOutcome>),
    /// Lease sub-protocol reply (a [`LeaseMsg::RevokeAck`]).
    Lease(LeaseMsg),
    /// A [`PrimaryMsg::WriteThrough`] was applied and every *other* copy
    /// holder brought up to date: the writer applies its own operation at
    /// `version`.
    Installed {
        /// Encoded reply of the write.
        reply: Vec<u8>,
        /// The primary replica's version after the write.
        version: u64,
        /// Renewed read lease over the writer's copy, when leases are
        /// enabled.
        lease: Option<LeaseGrant>,
    },
}

impl Wire for PrimaryReply {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PrimaryReply::Reply(bytes) => {
                enc.put_u8(0);
                enc.put_raw(bytes);
            }
            PrimaryReply::Blocked => enc.put_u8(1),
            PrimaryReply::State {
                type_name,
                state,
                version,
                lease,
                dedup,
            } => {
                enc.put_u8(2);
                type_name.encode(enc);
                enc.put_bytes(state);
                version.encode(enc);
                lease.encode(enc);
                dedup.encode(enc);
            }
            PrimaryReply::Ack => enc.put_u8(3),
            PrimaryReply::Error(msg) => {
                enc.put_u8(4);
                msg.encode(enc);
            }
            PrimaryReply::Batch(outcomes) => {
                enc.put_u8(5);
                outcomes.encode(enc);
            }
            PrimaryReply::Lease(msg) => {
                enc.put_u8(6);
                msg.encode(enc);
            }
            PrimaryReply::Installed {
                reply,
                version,
                lease,
            } => {
                enc.put_u8(7);
                version.encode(enc);
                lease.encode(enc);
                enc.put_raw(reply);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(PrimaryReply::Reply(dec.get_rest().to_vec())),
            1 => Ok(PrimaryReply::Blocked),
            2 => Ok(PrimaryReply::State {
                type_name: Wire::decode(dec)?,
                state: dec.get_bytes()?,
                version: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
                dedup: Wire::decode(dec)?,
            }),
            3 => Ok(PrimaryReply::Ack),
            4 => Ok(PrimaryReply::Error(Wire::decode(dec)?)),
            5 => Ok(PrimaryReply::Batch(Wire::decode(dec)?)),
            6 => Ok(PrimaryReply::Lease(Wire::decode(dec)?)),
            7 => Ok(PrimaryReply::Installed {
                version: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
                reply: dec.get_rest().to_vec(),
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "PrimaryReply",
                tag: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_requests_round_trip() {
        let object = ObjectId::compose(2, 5);
        let msgs = vec![
            PrimaryMsg::ReadAt {
                object,
                op: vec![1],
            },
            PrimaryMsg::WriteAt {
                object,
                op: vec![2, 3],
                stamp: Some(OpStamp { origin: 2, seq: 8 }),
            },
            PrimaryMsg::WriteAt {
                object,
                op: vec![2, 3],
                stamp: None,
            },
            PrimaryMsg::WriteThrough {
                object,
                op: vec![2, 3],
                stamp: Some(OpStamp { origin: 2, seq: 9 }),
            },
            PrimaryMsg::FetchCopy { object },
            PrimaryMsg::DropCopy { object },
            PrimaryMsg::Invalidate { object, version: 6 },
            PrimaryMsg::UpdateOp {
                object,
                op: vec![],
                version: 4,
                stamped: Some((OpStamp { origin: 1, seq: 2 }, vec![7])),
            },
            PrimaryMsg::UpdateOp {
                object,
                op: vec![5],
                version: 5,
                stamped: None,
            },
            PrimaryMsg::Unlock {
                object,
                version: 5,
                lease: Some(LeaseGrant {
                    object: object.0,
                    epoch: 3,
                    seq: 11,
                    valid_ms: 40,
                }),
            },
            PrimaryMsg::Unlock {
                object,
                version: 6,
                lease: None,
            },
            PrimaryMsg::UpdateBatch {
                object,
                ops: vec![vec![1], vec![2, 3]],
                first_version: 9,
            },
            PrimaryMsg::Lease(LeaseMsg::Revoke {
                object: object.0,
                seq: 11,
            }),
        ];
        for msg in msgs {
            assert_eq!(PrimaryMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn all_replies_round_trip() {
        let mut dedup = DedupWindow::new();
        dedup.record(OpStamp { origin: 0, seq: 1 }, vec![5]);
        let replies = vec![
            PrimaryReply::Reply(vec![9, 9]),
            PrimaryReply::Blocked,
            PrimaryReply::State {
                type_name: "T".into(),
                state: vec![0; 10],
                version: 7,
                lease: Some(LeaseGrant {
                    object: 4,
                    epoch: 0,
                    seq: 1,
                    valid_ms: 25,
                }),
                dedup,
            },
            PrimaryReply::State {
                type_name: "T".into(),
                state: vec![],
                version: 0,
                lease: None,
                dedup: DedupWindow::new(),
            },
            PrimaryReply::Ack,
            PrimaryReply::Error("nope".into()),
            PrimaryReply::Batch(vec![
                BatchOutcome::Done(vec![1]),
                BatchOutcome::Blocked,
                BatchOutcome::Failed("no".into()),
            ]),
            PrimaryReply::Lease(LeaseMsg::RevokeAck { object: 4, seq: 1 }),
            PrimaryReply::Installed {
                reply: vec![3],
                version: 8,
                lease: Some(LeaseGrant {
                    object: 4,
                    epoch: 0,
                    seq: 2,
                    valid_ms: 25,
                }),
            },
        ];
        for reply in replies {
            assert_eq!(PrimaryReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }

    #[test]
    fn operations_and_results_are_tails() {
        let object = ObjectId::compose(2, 5);
        let op = vec![9u8; 27];
        let stamp = Some(OpStamp { origin: 2, seq: 8 });
        let requests = [
            PrimaryMsg::ReadAt {
                object,
                op: op.clone(),
            },
            PrimaryMsg::WriteAt {
                object,
                op: op.clone(),
                stamp,
            },
            PrimaryMsg::WriteThrough {
                object,
                op: op.clone(),
                stamp,
            },
        ];
        for msg in requests {
            let bytes = msg.to_bytes();
            assert!(bytes.ends_with(&op), "{msg:?}");
            // A cut inside the head is an error; a cut at its end leaves an
            // empty operation, which is legal (the tail has no length of
            // its own — the payload's end is its end).
            let head = bytes.len() - op.len();
            for cut in 0..head {
                assert!(PrimaryMsg::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
            assert!(PrimaryMsg::from_bytes(&bytes[..head]).is_ok());
        }
        assert_eq!(
            PrimaryReply::Reply(op.clone()).to_bytes().len(),
            1 + op.len()
        );
        assert_eq!(
            PrimaryReply::from_bytes(&[0]).unwrap(),
            PrimaryReply::Reply(vec![])
        );
        let installed = PrimaryReply::Installed {
            reply: op.clone(),
            version: 8,
            lease: None,
        }
        .to_bytes();
        assert_eq!(installed.len(), 3 + op.len());
        assert!(installed.ends_with(&op));
    }
}
