//! Wire messages of the sharded runtime system.
//!
//! The sharded RTS (see `orca-rts`) splits a shardable object into `N`
//! partitions, each owned by exactly one node, and ships operations
//! point-to-point to the partition owner. The message vocabulary lives here,
//! at the bottom of the stack, so the codecs are property-tested together
//! with every other wire type and so the byte counts the network statistics
//! accumulate for shard traffic are real.
//!
//! This crate sits below the object layer, so object identifiers are carried
//! as their raw `u64` representation (exactly the encoding `ObjectId` in
//! `orca-object` uses on the wire).

use crate::batch::BatchOutcome;
use crate::lease::{DedupWindow, OpStamp};
use crate::{Decoder, Encoder, Wire, WireError, WireResult};

/// Identifies one partition of one sharded object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardPartId {
    /// Raw object id (the `u64` inside `ObjectId`).
    pub object: u64,
    /// Partition index, `0 .. partitions`.
    pub partition: u32,
}

impl Wire for ShardPartId {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.partition.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(ShardPartId {
            object: Wire::decode(dec)?,
            partition: Wire::decode(dec)?,
        })
    }
}

/// The routing table of one object: which node owns each partition.
///
/// The creating node ("home node", recoverable from the object id) holds the
/// authoritative table; every other node caches it read-through. The
/// `type_name` and the partition count are immutable for the lifetime of the
/// object and may be cached forever; `owners` changes on migration, which
/// bumps `version` — a node acting on a stale table is answered with
/// [`ShardReply::StaleRoute`] and re-fetches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouteTable {
    /// Raw object id.
    pub object: u64,
    /// Registered object type name (immutable metadata).
    pub type_name: String,
    /// True if the object is partitioned; false for the primary-copy
    /// fallback of non-shardable types (a single "partition" at the home
    /// node).
    pub sharded: bool,
    /// Bumped by every migration.
    pub version: u64,
    /// Owner node index per partition; `owners.len()` is the partition
    /// count (immutable metadata).
    pub owners: Vec<u16>,
}

impl ShardRouteTable {
    /// Number of partitions of the object.
    pub fn partitions(&self) -> u32 {
        self.owners.len() as u32
    }
}

impl Wire for ShardRouteTable {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.type_name.encode(enc);
        self.sharded.encode(enc);
        self.version.encode(enc);
        self.owners.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(ShardRouteTable {
            object: Wire::decode(dec)?,
            type_name: Wire::decode(dec)?,
            sharded: Wire::decode(dec)?,
            version: Wire::decode(dec)?,
            owners: Wire::decode(dec)?,
        })
    }
}

/// Requests of the sharded runtime-system service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// Client → home node: return the routing table of `object`.
    Route {
        /// Raw object id.
        object: u64,
    },
    /// Client → partition owner: execute an encoded operation on the
    /// partition. The owner replies [`ShardReply::Done`] or, if the
    /// operation's guard is false, [`ShardReply::Blocked`]; if the owner no
    /// longer holds the partition it replies [`ShardReply::StaleRoute`].
    /// The invocation's trace rides the RPC envelope, not this message.
    Op {
        /// Target partition.
        shard: ShardPartId,
        /// Encoded operation. On the wire it is the message's tail: it
        /// follows the stamp and runs to the end of the payload.
        op: Vec<u8>,
        /// Dedup stamp of the originating *write* invocation (`None` for
        /// reads). Minted once per invocation and reused verbatim on every
        /// retry, so an owner (or the backup promoted in its place) that
        /// already applied the write answers the recorded reply instead of
        /// applying it twice.
        stamp: Option<OpStamp>,
    },
    /// Creator/old owner → new owner: install a partition replica (initial
    /// placement and the final step of a migration).
    Install {
        /// Target partition.
        shard: ShardPartId,
        /// Registered object type name, so the receiver can instantiate a
        /// replica.
        type_name: String,
        /// Encoded partition state.
        state: Vec<u8>,
        /// Cumulative version (completed-write count over the partition's
        /// whole life) of the shipped state, preserved across migrations
        /// and promotions so recovery can always pick the freshest copy.
        version: u64,
        /// The partition's dedup window, travelling with the state: the new
        /// owner must answer retries of writes the old owner acknowledged.
        dedup: DedupWindow,
    },
    /// Client → home node: migrate a partition to node `dst`. The home node
    /// coordinates the hand-off and updates the authoritative routing table.
    Migrate {
        /// Partition to move.
        shard: ShardPartId,
        /// Destination node index.
        dst: u16,
    },
    /// Home node → current owner: hand your partition replica to `dst`
    /// (migration, phase 1). The owner transfers the state with
    /// [`ShardMsg::Install`] and discards its copy.
    HandOff {
        /// Partition to move.
        shard: ShardPartId,
        /// Destination node index.
        dst: u16,
    },
    /// Owner → backup node: apply one completed write operation to the
    /// backup replica of the partition, keeping it current so it can be
    /// promoted if the owner crashes. Shipped synchronously (under the
    /// owner's replica mutex, before the write is acknowledged), so an
    /// acknowledged write is never lost to a single node failure.
    Backup {
        /// Target partition.
        shard: ShardPartId,
        /// Encoded operation, exactly as applied at the owner.
        op: Vec<u8>,
        /// The owner replica's version *after* applying the operation; a
        /// backup whose version does not line up detects a missed update
        /// and asks for a full reinstall instead of diverging silently.
        version: u64,
        /// Stamp and original reply of the write, when the invocation was
        /// stamped: the backup records it so its dedup window stays exactly
        /// as current as its replica.
        stamped: Option<(OpStamp, Vec<u8>)>,
    },
    /// Owner → backup node: (re)install the full backup state of a
    /// partition (initial placement, migration, promotion, and recovery
    /// from a missed [`ShardMsg::Backup`]).
    InstallBackup {
        /// Target partition.
        shard: ShardPartId,
        /// Registered object type name.
        type_name: String,
        /// Encoded partition state.
        state: Vec<u8>,
        /// Version (completed-write count) of the shipped state.
        version: u64,
        /// The partition's dedup window as of the shipped state.
        dedup: DedupWindow,
    },
    /// Home node → backup holder: the partition's owner died; promote your
    /// backup replica to the authoritative copy.
    PromoteBackup {
        /// Partition to promote.
        shard: ShardPartId,
    },
    /// Recovering home → survivor: report which partitions of `object` you
    /// own and which you hold backups of (with versions), so a node
    /// adopting the home role of a dead creator can rebuild the routing
    /// table.
    ReportOwned {
        /// Raw object id.
        object: u64,
    },
    /// Owner → backup node: apply a run of consecutive completed write
    /// operations to the backup replica of the partition — the batched
    /// form of [`ShardMsg::Backup`], one message per partition per batch.
    BackupBatch {
        /// Target partition.
        shard: ShardPartId,
        /// Encoded operations, in owner application order.
        ops: Vec<Vec<u8>>,
        /// The owner's cumulative partition version after applying
        /// `ops[0]`; the run covers `first_version ..= first_version +
        /// ops.len() - 1` and the backup applies exactly the unseen
        /// suffix, or asks for a reinstall on a gap.
        first_version: u64,
    },
}

impl ShardMsg {
    /// Tag byte of the client → partition owner *operation batch* request,
    /// the pipelined asynchronous path's one-RPC-per-owner shipping:
    /// (already partition-narrowed) operations, executed in order on the
    /// partition each one names (`epoch` unused). The owner answers
    /// [`ShardReply::Batch`] with one outcome per op, and ships each
    /// partition's applied writes to its backup as a single
    /// [`ShardMsg::BackupBatch`].
    ///
    /// The request is this byte followed by a [`crate::batch`] encoding
    /// and is never an owned `ShardMsg`: senders stream it with
    /// [`crate::OpBatchEncoder::request`], owners apply it in place
    /// through [`crate::OpBatchView::from_request`].
    pub const OP_BATCH_TAG: u8 = 9;
}

impl Wire for ShardMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ShardMsg::Route { object } => {
                enc.put_u8(0);
                object.encode(enc);
            }
            ShardMsg::Op { shard, op, stamp } => {
                enc.put_u8(1);
                shard.encode(enc);
                stamp.encode(enc);
                enc.put_raw(op);
            }
            ShardMsg::Install {
                shard,
                type_name,
                state,
                version,
                dedup,
            } => {
                enc.put_u8(2);
                shard.encode(enc);
                type_name.encode(enc);
                enc.put_bytes(state);
                version.encode(enc);
                dedup.encode(enc);
            }
            ShardMsg::Migrate { shard, dst } => {
                enc.put_u8(3);
                shard.encode(enc);
                dst.encode(enc);
            }
            ShardMsg::HandOff { shard, dst } => {
                enc.put_u8(4);
                shard.encode(enc);
                dst.encode(enc);
            }
            ShardMsg::Backup {
                shard,
                op,
                version,
                stamped,
            } => {
                enc.put_u8(5);
                shard.encode(enc);
                enc.put_bytes(op);
                version.encode(enc);
                stamped.encode(enc);
            }
            ShardMsg::InstallBackup {
                shard,
                type_name,
                state,
                version,
                dedup,
            } => {
                enc.put_u8(6);
                shard.encode(enc);
                type_name.encode(enc);
                enc.put_bytes(state);
                version.encode(enc);
                dedup.encode(enc);
            }
            ShardMsg::PromoteBackup { shard } => {
                enc.put_u8(7);
                shard.encode(enc);
            }
            ShardMsg::ReportOwned { object } => {
                enc.put_u8(8);
                object.encode(enc);
            }
            ShardMsg::BackupBatch {
                shard,
                ops,
                first_version,
            } => {
                enc.put_u8(10);
                shard.encode(enc);
                ops.encode(enc);
                first_version.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(ShardMsg::Route {
                object: Wire::decode(dec)?,
            }),
            1 => Ok(ShardMsg::Op {
                shard: Wire::decode(dec)?,
                stamp: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            2 => Ok(ShardMsg::Install {
                shard: Wire::decode(dec)?,
                type_name: Wire::decode(dec)?,
                state: dec.get_bytes()?,
                version: Wire::decode(dec)?,
                dedup: Wire::decode(dec)?,
            }),
            3 => Ok(ShardMsg::Migrate {
                shard: Wire::decode(dec)?,
                dst: Wire::decode(dec)?,
            }),
            4 => Ok(ShardMsg::HandOff {
                shard: Wire::decode(dec)?,
                dst: Wire::decode(dec)?,
            }),
            5 => Ok(ShardMsg::Backup {
                shard: Wire::decode(dec)?,
                op: dec.get_bytes()?,
                version: Wire::decode(dec)?,
                stamped: Wire::decode(dec)?,
            }),
            6 => Ok(ShardMsg::InstallBackup {
                shard: Wire::decode(dec)?,
                type_name: Wire::decode(dec)?,
                state: dec.get_bytes()?,
                version: Wire::decode(dec)?,
                dedup: Wire::decode(dec)?,
            }),
            7 => Ok(ShardMsg::PromoteBackup {
                shard: Wire::decode(dec)?,
            }),
            8 => Ok(ShardMsg::ReportOwned {
                object: Wire::decode(dec)?,
            }),
            10 => Ok(ShardMsg::BackupBatch {
                shard: Wire::decode(dec)?,
                ops: Wire::decode(dec)?,
                first_version: Wire::decode(dec)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "ShardMsg",
                tag: u64::from(tag),
            }),
        }
    }
}

/// Replies of the sharded runtime-system service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardReply {
    /// Encoded reply of a completed operation (on the wire, the tail of the
    /// message).
    Done(Vec<u8>),
    /// The operation's guard was false; the caller should retry later.
    Blocked,
    /// Routing table (reply to [`ShardMsg::Route`]).
    Route(ShardRouteTable),
    /// The receiver does not (or no longer) hold the addressed partition;
    /// the caller must re-fetch the routing table from the home node.
    StaleRoute,
    /// Acknowledgement with no payload.
    Ack,
    /// The request failed.
    Error(String),
    /// Reply to [`ShardMsg::ReportOwned`]: the partitions of the object
    /// this node owns and backs up, as `(partition, version)` pairs. The
    /// type name is empty when the node holds nothing of the object.
    Owned {
        /// Registered object type name (empty when nothing is held).
        type_name: String,
        /// Partitions this node owns authoritatively.
        owned: Vec<(u32, u64)>,
        /// Partitions this node holds backup replicas of.
        backups: Vec<(u32, u64)>,
    },
    /// The object's state did not survive the failure (no authoritative
    /// copy and no backup left); operations on it can never succeed.
    ObjectLost,
    /// Per-operation outcomes of an operation batch
    /// ([`ShardMsg::OP_BATCH_TAG`]), in batch order.
    Batch(Vec<BatchOutcome>),
}

impl Wire for ShardReply {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ShardReply::Done(bytes) => {
                enc.put_u8(0);
                enc.put_raw(bytes);
            }
            ShardReply::Blocked => enc.put_u8(1),
            ShardReply::Route(table) => {
                enc.put_u8(2);
                table.encode(enc);
            }
            ShardReply::StaleRoute => enc.put_u8(3),
            ShardReply::Ack => enc.put_u8(4),
            ShardReply::Error(msg) => {
                enc.put_u8(5);
                msg.encode(enc);
            }
            ShardReply::Owned {
                type_name,
                owned,
                backups,
            } => {
                enc.put_u8(6);
                type_name.encode(enc);
                owned.encode(enc);
                backups.encode(enc);
            }
            ShardReply::ObjectLost => enc.put_u8(7),
            ShardReply::Batch(outcomes) => {
                enc.put_u8(8);
                outcomes.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(ShardReply::Done(dec.get_rest().to_vec())),
            1 => Ok(ShardReply::Blocked),
            2 => Ok(ShardReply::Route(Wire::decode(dec)?)),
            3 => Ok(ShardReply::StaleRoute),
            4 => Ok(ShardReply::Ack),
            5 => Ok(ShardReply::Error(Wire::decode(dec)?)),
            6 => Ok(ShardReply::Owned {
                type_name: Wire::decode(dec)?,
                owned: Wire::decode(dec)?,
                backups: Wire::decode(dec)?,
            }),
            7 => Ok(ShardReply::ObjectLost),
            8 => Ok(ShardReply::Batch(Wire::decode(dec)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "ShardReply",
                tag: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> ShardPartId {
        ShardPartId {
            object: (7u64 << 48) | 42,
            partition: 3,
        }
    }

    #[test]
    fn all_requests_round_trip() {
        let msgs = vec![
            ShardMsg::Route { object: 9 },
            ShardMsg::Op {
                shard: shard(),
                op: vec![1, 2, 3],
                stamp: Some(OpStamp { origin: 2, seq: 40 }),
            },
            ShardMsg::Install {
                shard: shard(),
                type_name: "orca.KvTable".into(),
                state: vec![0; 10],
                version: 5,
                dedup: {
                    let mut window = DedupWindow::new();
                    window.record(OpStamp { origin: 1, seq: 7 }, vec![3]);
                    window
                },
            },
            ShardMsg::Migrate {
                shard: shard(),
                dst: 5,
            },
            ShardMsg::HandOff {
                shard: shard(),
                dst: 0,
            },
            ShardMsg::Backup {
                shard: shard(),
                op: vec![4, 5],
                version: 3,
                stamped: Some((OpStamp { origin: 0, seq: 2 }, vec![6])),
            },
            ShardMsg::InstallBackup {
                shard: shard(),
                type_name: "orca.Set".into(),
                state: vec![7; 4],
                version: 12,
                dedup: DedupWindow::new(),
            },
            ShardMsg::PromoteBackup { shard: shard() },
            ShardMsg::ReportOwned { object: 77 },
            ShardMsg::BackupBatch {
                shard: shard(),
                ops: vec![vec![1], vec![2, 3]],
                first_version: 8,
            },
        ];
        for msg in msgs {
            assert_eq!(ShardMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn all_replies_round_trip() {
        let table = ShardRouteTable {
            object: 4,
            type_name: "orca.Set".into(),
            sharded: true,
            version: 2,
            owners: vec![0, 1, 2, 1],
        };
        assert_eq!(table.partitions(), 4);
        let replies = vec![
            ShardReply::Done(vec![9]),
            ShardReply::Blocked,
            ShardReply::Route(table),
            ShardReply::StaleRoute,
            ShardReply::Ack,
            ShardReply::Error("nope".into()),
            ShardReply::Owned {
                type_name: "orca.KvTable".into(),
                owned: vec![(0, 4), (2, 9)],
                backups: vec![(1, 3)],
            },
            ShardReply::ObjectLost,
            ShardReply::Batch(vec![
                BatchOutcome::Done(vec![2]),
                BatchOutcome::Stale,
                BatchOutcome::Blocked,
            ]),
        ];
        for reply in replies {
            assert_eq!(ShardReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_messages_are_errors() {
        let bytes = ShardMsg::Migrate {
            shard: shard(),
            dst: 5,
        }
        .to_bytes();
        assert!(ShardMsg::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(ShardReply::from_bytes(&[0xff]).is_err());
    }
}
