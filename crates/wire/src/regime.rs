//! Wire messages of the adaptive runtime system's regime protocol.
//!
//! The adaptive RTS (see `orca-rts`) serves every shared object in one of
//! two *regimes* — one copy where the object is written and mirrors,
//! updated or invalidated, on the nodes that read it; or hash-partitioned
//! sharding — and changes an object's regime at runtime from its observed
//! read/write mix (or, with the regime pinned, keeps every object in one:
//! the `primary` and `sharded` backends). A second copy of anything is kept
//! current one way — [`RegimeMsg::Mirror`] primes it, [`RegimeMsg::Update`]
//! pushes it every write before the acknowledgement — whether its holder
//! reads it (a replicated object's mirrors) or keeps it for a promotion
//! (the *keeper* of a sharded partition, with recovery on). The object's
//! home node (its creator, recoverable from the object id) owns the
//! authoritative [`RegimeTable`]; every other node caches it and is told
//! [`RegimeReply::StaleRegime`] when it acts on an outdated epoch.
//!
//! The message vocabulary lives here, at the bottom of the stack, so the
//! codecs are property-tested together with every other wire type and so the
//! byte counts the network statistics accumulate for regime traffic are
//! real. Object identifiers are carried as their raw `u64` representation
//! (exactly the encoding `ObjectId` in `orca-object` uses on the wire).

use crate::lease::{DedupWindow, LeaseGrant, OpStamp};
use crate::{Decoder, Encoder, Wire, WireError, WireResult};

/// Which synchronization regime currently serves an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegimeKind {
    /// One authoritative copy at the *owner* — a node that writes the
    /// object — plus a read mirror on every other node that reads it; writes
    /// execute at the owner, which pushes sequence-numbered updates to the
    /// mirrors. Reads are local there, shipped to the owner from anywhere
    /// else. A copy nobody reads has no mirror. For everything that is not
    /// sharded.
    Replicated,
    /// Reserved: the name and tag of a retired regime (a single copy pinned
    /// to the home node — a replicated copy without mirrors, which may
    /// move). `orca-rts` refuses a table or an install that carries it; its
    /// only reader is `bench/ledger`, and it is deleted with that reader's
    /// next `[benchmark]` change (ROADMAP item 8).
    Primary,
    /// The object is split into hash-partitioned slices, each owned by one
    /// node; operations ship point-to-point to the partition owner. Best
    /// for write-hot shardable objects.
    Sharded,
}

impl RegimeKind {
    /// Human-readable name used in logs and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            RegimeKind::Replicated => "replicated",
            RegimeKind::Primary => "primary",
            RegimeKind::Sharded => "sharded",
        }
    }
}

impl Wire for RegimeKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            RegimeKind::Replicated => 0,
            RegimeKind::Primary => 1,
            RegimeKind::Sharded => 2,
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RegimeKind::Replicated),
            1 => Ok(RegimeKind::Primary),
            2 => Ok(RegimeKind::Sharded),
            tag => Err(WireError::InvalidTag {
                type_name: "RegimeKind",
                tag: u64::from(tag),
            }),
        }
    }
}

/// The authoritative description of how one object is currently served.
///
/// Held by the object's home node; cached read-through (with a lease) by
/// every other node. `epoch` is bumped by every regime switch — a server
/// receiving an operation stamped with an outdated epoch answers
/// [`RegimeReply::StaleRegime`] and the client re-fetches the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegimeTable {
    /// Raw object id.
    pub object: u64,
    /// Registered object type name (immutable metadata).
    pub type_name: String,
    /// Bumped by every regime switch.
    pub epoch: u64,
    /// The regime currently serving the object.
    pub regime: RegimeKind,
    /// Owner node index per partition: one entry per partition for
    /// [`RegimeKind::Sharded`], a single entry — the node holding the
    /// authoritative copy — for [`RegimeKind::Replicated`].
    pub owners: Vec<u16>,
    /// The nodes holding a read mirror ([`RegimeKind::Replicated`] only,
    /// sorted, never the owner). The table is the truth: a node it does not
    /// list ships its reads to the owner.
    pub mirrors: Vec<u16>,
}

impl RegimeTable {
    /// Number of authoritative partitions of the object under this regime.
    pub fn partitions(&self) -> u32 {
        self.owners.len() as u32
    }
}

impl Wire for RegimeTable {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.type_name.encode(enc);
        self.epoch.encode(enc);
        self.regime.encode(enc);
        self.owners.encode(enc);
        self.mirrors.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(RegimeTable {
            object: Wire::decode(dec)?,
            type_name: Wire::decode(dec)?,
            epoch: Wire::decode(dec)?,
            regime: Wire::decode(dec)?,
            owners: Wire::decode(dec)?,
            mirrors: Wire::decode(dec)?,
        })
    }
}

/// Requests of the adaptive runtime-system service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegimeMsg {
    /// Client → home node: return the current [`RegimeTable`] of `object`.
    Route {
        /// Raw object id.
        object: u64,
    },
    /// Client → authoritative owner: execute an encoded operation on one
    /// partition (partition 0 under the replicated regime). The
    /// epoch pins the regime the client routed under; a mismatch is
    /// answered [`RegimeReply::StaleRegime`]. Like every request that
    /// ships one operation, it carries the operation as its tail (after
    /// every other field, to the end of the payload) and no trace — that
    /// rides the RPC envelope.
    Op {
        /// Raw object id.
        object: u64,
        /// Epoch of the regime table the client routed under.
        epoch: u64,
        /// Target partition.
        partition: u32,
        /// Encoded (already partition-narrowed) operation.
        op: Vec<u8>,
        /// Exactly-once identity of a synchronously invoked write, reused
        /// verbatim across client retries so a slot that already applied
        /// the op answers its recorded reply instead of applying again.
        /// `None` for reads and for the batched asynchronous path.
        stamp: Option<OpStamp>,
    },
    /// Client → home node: execute an all-partition operation indivisibly.
    /// The home fans the operation out under its switch lock, so a regime
    /// change can never interleave with the per-partition shares (which
    /// would re-apply non-idempotent shares on retry).
    OpAll {
        /// Raw object id.
        object: u64,
        /// Encoded whole-object operation.
        op: Vec<u8>,
    },
    /// Any node → home node: re-evaluate the object's regime now from the
    /// usage evidence accumulated so far (a regime-change *proposal*). The
    /// reply carries the — possibly freshly switched — routing table.
    Propose {
        /// Raw object id.
        object: u64,
    },
    /// Client → home node: report the sender's read/write counts for the
    /// object since its previous report. Feeds the decayed per-node usage
    /// aggregate that drives regime decisions. A one-way notification:
    /// nothing is sent back.
    Report {
        /// Raw object id.
        object: u64,
        /// Reads performed since the last report.
        reads: u64,
        /// Writes performed since the last report.
        writes: u64,
    },
    /// Home → authoritative owner (regime switch, phase 1): withdraw the
    /// partition and return its serialized state. In-flight operations that
    /// raced the withdrawal are answered `StaleRegime` and retried by their
    /// caller under the new regime — no write is lost or double-applied.
    Drain {
        /// Raw object id.
        object: u64,
        /// Epoch being drained (guards against duplicate/late drains).
        epoch: u64,
        /// Partition to withdraw.
        partition: u32,
    },
    /// Home → new owner (regime switch, phase 2): install an authoritative
    /// partition replica under the new epoch. The installer of a
    /// replicated-regime slot primes the listed mirrors, a lease each, and
    /// is their grantor from then on.
    Install {
        /// Raw object id.
        object: u64,
        /// Epoch of the new regime.
        epoch: u64,
        /// Partition index under the new regime.
        partition: u32,
        /// Registered object type name.
        type_name: String,
        /// Encoded partition state.
        state: Vec<u8>,
        /// Recently applied stamped writes of the installed state, so
        /// exactly-once dedup survives the regime switch with the state it
        /// describes.
        dedup: DedupWindow,
        /// The regime the slot serves.
        regime: RegimeKind,
        /// The slot's read mirrors (replicated regime only).
        mirrors: Vec<u16>,
    },
    /// Owner → mirror holder: install a mirror primed with the given state
    /// and update sequence number. Sent to the readers a replicated-regime
    /// slot lists when it is installed, and to the keeper of a
    /// sharded-regime slot then and whenever the keeper answers a
    /// [`RegimeMsg::Update`] it could not apply.
    Mirror {
        /// Raw object id.
        object: u64,
        /// Epoch of the mirrored slot.
        epoch: u64,
        /// What is mirrored. `None` — and nothing on the wire — is the one
        /// copy of a replicated-regime object, whose holder the table lists
        /// and reads it; `Some(p)`, the message's last field, is partition
        /// `p` of a sharded-regime object, kept for a promotion and read by
        /// nobody.
        partition: Option<u32>,
        /// Registered object type name.
        type_name: String,
        /// Encoded full-object state.
        state: Vec<u8>,
        /// Update sequence number the state corresponds to.
        seq: u64,
        /// Dedup window paired with `state` (rides along so a mirror
        /// promoted by home adoption can answer retried writes).
        dedup: DedupWindow,
        /// Read lease over the installed mirror, when the owner grants
        /// leases: its validity in milliseconds from receipt. (The message
        /// names the object, epoch and version it covers; so does every
        /// other carrier of a lease but [`RegimeReply::Renewed`].)
        lease: Option<u64>,
    },
    /// Listed mirror → owner: fetch a fresh mirror state (lazy re-sync after
    /// a lost update or a missed mirror install) or renew a lapsed lease.
    FetchMirror {
        /// Raw object id.
        object: u64,
        /// Epoch the client believes is current.
        epoch: u64,
        /// Version of the caller's unlocked copy of that epoch, if it holds
        /// one: an owner still at that version answers
        /// [`RegimeReply::Renewed`] instead of shipping the state.
        have: Option<u64>,
    },
    /// Draining owner → its mirrors (a replicated-regime slot is retired):
    /// discard the read mirror so no node keeps serving pre-switch state.
    /// Home → every node: the keepers of a retired sharded regime's
    /// partitions are discarded the same way (any switch of one with
    /// recovery on), so none is left to be promoted later. Owner → its
    /// mirrors under the invalidation write policy: a write was applied,
    /// discard the copy and fetch a fresh one at the next read.
    DropCopies {
        /// Raw object id.
        object: u64,
        /// Epoch being retired.
        epoch: u64,
        /// Version of the write that invalidates the copy, which stays
        /// listed: the holder remembers it, so an older snapshot still in
        /// flight is refused. `None` when the slot is retired, and what the
        /// holder remembers of the epoch's versions with it.
        written: Option<u64>,
    },
    /// Owner → mirror holder: apply a run of sequence-numbered updates
    /// (writes that executed at the owner: one, or a batch's consecutive
    /// writes as one message), sent before the writes are acknowledged. A
    /// `held` mirror stays locked until the [`RegimeMsg::Unlock`] of the
    /// run's last update arrives (two-phase, for sequential consistency);
    /// the last mirror of a fan-out is not held — every other copy is
    /// blocked by then — and serves the new value at once. A holder that
    /// does not have the run's last version afterwards (no copy, another
    /// epoch, a gap) answers [`RegimeReply::StaleRegime`].
    Update {
        /// Raw object id.
        object: u64,
        /// Epoch of the mirrored slot.
        epoch: u64,
        /// What is mirrored, as in [`RegimeMsg::Mirror`].
        partition: Option<u32>,
        /// Update sequence number of `ops[0]` (the owner replica's version
        /// after it); the holder applies exactly the run's unseen suffix.
        seq: u64,
        /// Lock the mirror until the unlock (see [`RegimeMsg::hold_update`]).
        held: bool,
        /// Encoded write operations, in the order the owner applied them.
        ops: Vec<Vec<u8>>,
        /// When the run is one stamped write, its exactly-once identity and
        /// recorded reply, so the mirror's dedup window stays as fresh as
        /// its copy.
        stamped: Option<(OpStamp, Vec<u8>)>,
        /// Renewed read lease over the mirror at the run's last version —
        /// the message that makes a copy current renews its lease — when
        /// the owner grants leases.
        lease: Option<u64>,
    },
    /// Mirror-holding client → owner: a replicated-regime write whose
    /// sender holds an installed mirror and has marked it pending. The owner
    /// executes it like a partition-0 [`RegimeMsg::Op`] but leaves the
    /// sender out of both phases of the mirror push and answers
    /// [`RegimeReply::Installed`], from which the sender brings its own
    /// mirror up to date — it already has the operation bytes in hand.
    WriteThrough {
        /// Raw object id.
        object: u64,
        /// Epoch of the regime table the client routed under.
        epoch: u64,
        /// Encoded write operation.
        op: Vec<u8>,
        /// Exactly-once identity of the write (see [`RegimeMsg::Op`]).
        stamp: Option<OpStamp>,
    },
    /// Owner → mirror holder: release the mirror locked by `seq`. A one-way
    /// notification — nothing is sent back — so it can be handled after a
    /// later [`RegimeMsg::Update`]; `seq` is what lets the holder ignore it
    /// then.
    Unlock {
        /// Raw object id.
        object: u64,
        /// Epoch of the replicated regime.
        epoch: u64,
        /// Update sequence number being released.
        seq: u64,
    },
    /// Recovering home → survivor: report what you hold of `object` —
    /// authoritative slots, mirrors of partitions, a read mirror — so the home
    /// (or the node adopting a dead creator's home role) can give every
    /// partition a live owner again, find a live replicated owner, or
    /// regenerate the object from a mirror. Answered
    /// [`RegimeReply::Holdings`].
    Holdings {
        /// Raw object id.
        object: u64,
    },
    /// Recovering home → holder of the freshest mirror of a dead owner's
    /// partition: make it the authoritative slot, in place, under the epoch
    /// its sibling partitions still serve.
    Promote {
        /// Raw object id.
        object: u64,
        /// Epoch the mirror must belong to.
        epoch: u64,
        /// Partition to promote.
        partition: u32,
    },
    /// Owner → home node, one-way: a push to the listed mirror `node` went
    /// unanswered though nobody has declared it dead. The home forgets what
    /// that node reported and re-places the object now, instead of every
    /// write paying the push's budget until an evaluation drops the mirror.
    Unreached {
        /// Raw object id.
        object: u64,
        /// The mirror that did not answer.
        node: u16,
    },
}

impl RegimeMsg {
    /// Tag byte of the client → slot server *operation batch* request —
    /// the pipelined asynchronous path. Each op carries the epoch its
    /// sender believed current and the partition it addresses; an op whose
    /// epoch is stale answers `Stale` in its outcome without affecting the
    /// rest of the batch ([`RegimeReply::Batch`]).
    ///
    /// The request is this byte followed by a [`crate::batch`] encoding
    /// and is never an owned `RegimeMsg`: senders stream it with
    /// [`crate::OpBatchEncoder::request`], servers apply it in place
    /// through [`crate::OpBatchView::from_request`].
    pub const OP_BATCH_TAG: u8 = 13;

    /// Set the `held` flag of an encoded [`RegimeMsg::Update`] in place: a
    /// fan-out encodes the run once and ships the same bytes to every
    /// mirror, and the flag — the byte after the tag — is all that differs.
    pub fn hold_update(update: &mut [u8], held: bool) {
        debug_assert_eq!(update[0], 10, "not an Update");
        update[1] = u8::from(held);
    }
}

/// The partition a mirror message names is its last field, written only
/// when there is one: a message is a whole request, so a decoder that is not
/// at its end has a partition left to read.
fn put_partition(enc: &mut Encoder, partition: &Option<u32>) {
    if let Some(partition) = partition {
        partition.encode(enc);
    }
}

fn get_partition(dec: &mut Decoder<'_>) -> WireResult<Option<u32>> {
    (dec.remaining() > 0).then(|| Wire::decode(dec)).transpose()
}

impl Wire for RegimeMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RegimeMsg::Route { object } => {
                enc.put_u8(0);
                object.encode(enc);
            }
            RegimeMsg::Op {
                object,
                epoch,
                partition,
                op,
                stamp,
            } => {
                enc.put_u8(1);
                object.encode(enc);
                epoch.encode(enc);
                partition.encode(enc);
                stamp.encode(enc);
                enc.put_raw(op);
            }
            RegimeMsg::OpAll { object, op } => {
                enc.put_u8(2);
                object.encode(enc);
                enc.put_raw(op);
            }
            RegimeMsg::Propose { object } => {
                enc.put_u8(3);
                object.encode(enc);
            }
            RegimeMsg::Report {
                object,
                reads,
                writes,
            } => {
                enc.put_u8(4);
                object.encode(enc);
                reads.encode(enc);
                writes.encode(enc);
            }
            RegimeMsg::Drain {
                object,
                epoch,
                partition,
            } => {
                enc.put_u8(5);
                object.encode(enc);
                epoch.encode(enc);
                partition.encode(enc);
            }
            RegimeMsg::Install {
                object,
                epoch,
                partition,
                type_name,
                state,
                dedup,
                regime,
                mirrors,
            } => {
                enc.put_u8(6);
                object.encode(enc);
                epoch.encode(enc);
                partition.encode(enc);
                type_name.encode(enc);
                enc.put_bytes(state);
                dedup.encode(enc);
                regime.encode(enc);
                mirrors.encode(enc);
            }
            RegimeMsg::Mirror {
                object,
                epoch,
                partition,
                type_name,
                state,
                seq,
                dedup,
                lease,
            } => {
                enc.put_u8(7);
                object.encode(enc);
                epoch.encode(enc);
                type_name.encode(enc);
                enc.put_bytes(state);
                seq.encode(enc);
                dedup.encode(enc);
                lease.encode(enc);
                put_partition(enc, partition);
            }
            RegimeMsg::FetchMirror {
                object,
                epoch,
                have,
            } => {
                enc.put_u8(8);
                object.encode(enc);
                epoch.encode(enc);
                have.encode(enc);
            }
            RegimeMsg::DropCopies {
                object,
                epoch,
                written,
            } => {
                enc.put_u8(9);
                object.encode(enc);
                epoch.encode(enc);
                written.encode(enc);
            }
            RegimeMsg::Update {
                object,
                epoch,
                partition,
                seq,
                held,
                ops,
                stamped,
                lease,
            } => {
                enc.put_u8(10);
                held.encode(enc);
                object.encode(enc);
                epoch.encode(enc);
                seq.encode(enc);
                ops.encode(enc);
                stamped.encode(enc);
                lease.encode(enc);
                put_partition(enc, partition);
            }
            RegimeMsg::Unlock { object, epoch, seq } => {
                enc.put_u8(11);
                object.encode(enc);
                epoch.encode(enc);
                seq.encode(enc);
            }
            RegimeMsg::WriteThrough {
                object,
                epoch,
                op,
                stamp,
            } => {
                enc.put_u8(14);
                object.encode(enc);
                epoch.encode(enc);
                stamp.encode(enc);
                enc.put_raw(op);
            }
            RegimeMsg::Holdings { object } => {
                enc.put_u8(12);
                object.encode(enc);
            }
            RegimeMsg::Promote {
                object,
                epoch,
                partition,
            } => {
                enc.put_u8(15);
                object.encode(enc);
                epoch.encode(enc);
                partition.encode(enc);
            }
            RegimeMsg::Unreached { object, node } => {
                enc.put_u8(16);
                object.encode(enc);
                node.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RegimeMsg::Route {
                object: Wire::decode(dec)?,
            }),
            1 => Ok(RegimeMsg::Op {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                partition: Wire::decode(dec)?,
                stamp: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            2 => Ok(RegimeMsg::OpAll {
                object: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            3 => Ok(RegimeMsg::Propose {
                object: Wire::decode(dec)?,
            }),
            4 => Ok(RegimeMsg::Report {
                object: Wire::decode(dec)?,
                reads: Wire::decode(dec)?,
                writes: Wire::decode(dec)?,
            }),
            5 => Ok(RegimeMsg::Drain {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                partition: Wire::decode(dec)?,
            }),
            6 => Ok(RegimeMsg::Install {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                partition: Wire::decode(dec)?,
                type_name: Wire::decode(dec)?,
                state: dec.get_bytes()?,
                dedup: Wire::decode(dec)?,
                regime: Wire::decode(dec)?,
                mirrors: Wire::decode(dec)?,
            }),
            7 => Ok(RegimeMsg::Mirror {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                type_name: Wire::decode(dec)?,
                state: dec.get_bytes()?,
                seq: Wire::decode(dec)?,
                dedup: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
                partition: get_partition(dec)?,
            }),
            8 => Ok(RegimeMsg::FetchMirror {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                have: Wire::decode(dec)?,
            }),
            9 => Ok(RegimeMsg::DropCopies {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                written: Wire::decode(dec)?,
            }),
            10 => Ok(RegimeMsg::Update {
                held: Wire::decode(dec)?,
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                seq: Wire::decode(dec)?,
                ops: Wire::decode(dec)?,
                stamped: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
                partition: get_partition(dec)?,
            }),
            11 => Ok(RegimeMsg::Unlock {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                seq: Wire::decode(dec)?,
            }),
            12 => Ok(RegimeMsg::Holdings {
                object: Wire::decode(dec)?,
            }),
            14 => Ok(RegimeMsg::WriteThrough {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                stamp: Wire::decode(dec)?,
                op: dec.get_rest().to_vec(),
            }),
            15 => Ok(RegimeMsg::Promote {
                object: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
                partition: Wire::decode(dec)?,
            }),
            16 => Ok(RegimeMsg::Unreached {
                object: Wire::decode(dec)?,
                node: Wire::decode(dec)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "RegimeMsg",
                tag: u64::from(tag),
            }),
        }
    }
}

/// What one node holds of an object: the answer to
/// [`RegimeMsg::Holdings`]. Partitions are `(partition, epoch, version)` —
/// a slot also names the regime it serves; among holders of one partition
/// the greater `(epoch, version)` is the fresher, so a mirror a drain left
/// behind never outranks its successor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Holdings {
    /// Registered type name of what is held (empty when nothing is).
    pub type_name: String,
    /// Authoritative slots this node serves, of any regime.
    pub slots: Vec<(u32, u64, u64, RegimeKind)>,
    /// Partitions of a sharded regime this node keeps a mirror of.
    pub keepers: Vec<(u32, u64, u64)>,
    /// The read mirror held, as `(epoch, seq, state)`.
    pub mirror: Option<(u64, u64, Vec<u8>)>,
    /// Dedup window paired with the mirror's state (empty without one), so
    /// an adopted home answers retried writes the dead home already
    /// applied.
    pub dedup: DedupWindow,
}

impl Wire for Holdings {
    fn encode(&self, enc: &mut Encoder) {
        self.type_name.encode(enc);
        self.slots.encode(enc);
        self.keepers.encode(enc);
        self.mirror.encode(enc);
        self.dedup.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Holdings {
            type_name: Wire::decode(dec)?,
            slots: Wire::decode(dec)?,
            keepers: Wire::decode(dec)?,
            mirror: Wire::decode(dec)?,
            dedup: Wire::decode(dec)?,
        })
    }
}

/// Replies of the adaptive runtime-system service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegimeReply {
    /// Encoded reply of a completed operation (on the wire, the tail of the
    /// message).
    Done(Vec<u8>),
    /// The operation's guard was false; the caller should retry later.
    Blocked,
    /// Routing table (reply to [`RegimeMsg::Route`] and
    /// [`RegimeMsg::Propose`]).
    Route(RegimeTable),
    /// The epoch in the request is no longer current (or the receiver does
    /// not hold the addressed partition); the caller must re-fetch the
    /// regime table from the home node.
    StaleRegime,
    /// Serialized partition state (reply to [`RegimeMsg::Drain`]).
    State {
        /// Encoded partition state.
        state: Vec<u8>,
        /// Dedup window paired with `state`, carried through the switch.
        dedup: DedupWindow,
    },
    /// Serialized full state plus update sequence number (reply to
    /// [`RegimeMsg::FetchMirror`]).
    MirrorState {
        /// Encoded full-object state.
        state: Vec<u8>,
        /// Update sequence number the state corresponds to.
        seq: u64,
        /// Dedup window paired with `state`.
        dedup: DedupWindow,
        /// Read lease over the fetched mirror (validity in milliseconds
        /// from receipt), when the owner grants leases.
        lease: Option<u64>,
    },
    /// Reply to a [`RegimeMsg::FetchMirror`] whose sender's copy is
    /// current: the renewed read lease alone — in full, since nothing else
    /// in the reply says which version it is good for.
    Renewed(LeaseGrant),
    /// Acknowledgement with no payload.
    Ack,
    /// The request failed.
    Error(String),
    /// Reply to [`RegimeMsg::Holdings`] (boxed: the rare reply is the
    /// largest by far).
    Holdings(Box<Holdings>),
    /// The object's state did not survive the failure (a partition with no
    /// owner and no mirror left, or no authoritative copy and no mirror);
    /// operations on it can never succeed.
    ObjectLost,
    /// Per-operation outcomes of an operation batch
    /// ([`RegimeMsg::OP_BATCH_TAG`]), in batch order.
    Batch(Vec<crate::batch::BatchOutcome>),
    /// A [`RegimeMsg::WriteThrough`] was applied and every *other* mirror
    /// brought up to date: the sender applies its own operation at `seq`.
    Installed {
        /// Encoded reply of the write (on the wire, the tail of the
        /// message).
        reply: Vec<u8>,
        /// Update sequence number the write was applied at.
        seq: u64,
        /// Renewed read lease over the sender's mirror (validity in
        /// milliseconds from receipt), when the owner grants leases.
        lease: Option<u64>,
    },
}

impl Wire for RegimeReply {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RegimeReply::Done(bytes) => {
                enc.put_u8(0);
                enc.put_raw(bytes);
            }
            RegimeReply::Blocked => enc.put_u8(1),
            RegimeReply::Route(table) => {
                enc.put_u8(2);
                table.encode(enc);
            }
            RegimeReply::StaleRegime => enc.put_u8(3),
            RegimeReply::State { state, dedup } => {
                enc.put_u8(4);
                enc.put_bytes(state);
                dedup.encode(enc);
            }
            RegimeReply::MirrorState {
                state,
                seq,
                dedup,
                lease,
            } => {
                enc.put_u8(5);
                enc.put_bytes(state);
                seq.encode(enc);
                dedup.encode(enc);
                lease.encode(enc);
            }
            RegimeReply::Renewed(lease) => {
                enc.put_u8(12);
                lease.encode(enc);
            }
            RegimeReply::Ack => enc.put_u8(6),
            RegimeReply::Error(msg) => {
                enc.put_u8(7);
                msg.encode(enc);
            }
            RegimeReply::Holdings(held) => {
                enc.put_u8(8);
                held.encode(enc);
            }
            RegimeReply::ObjectLost => enc.put_u8(9),
            RegimeReply::Batch(outcomes) => {
                enc.put_u8(10);
                outcomes.encode(enc);
            }
            RegimeReply::Installed { reply, seq, lease } => {
                enc.put_u8(11);
                seq.encode(enc);
                lease.encode(enc);
                enc.put_raw(reply);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RegimeReply::Done(dec.get_rest().to_vec())),
            1 => Ok(RegimeReply::Blocked),
            2 => Ok(RegimeReply::Route(Wire::decode(dec)?)),
            3 => Ok(RegimeReply::StaleRegime),
            4 => Ok(RegimeReply::State {
                state: dec.get_bytes()?,
                dedup: Wire::decode(dec)?,
            }),
            5 => Ok(RegimeReply::MirrorState {
                state: dec.get_bytes()?,
                seq: Wire::decode(dec)?,
                dedup: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
            }),
            6 => Ok(RegimeReply::Ack),
            7 => Ok(RegimeReply::Error(Wire::decode(dec)?)),
            8 => Ok(RegimeReply::Holdings(Wire::decode(dec)?)),
            9 => Ok(RegimeReply::ObjectLost),
            10 => Ok(RegimeReply::Batch(Wire::decode(dec)?)),
            11 => Ok(RegimeReply::Installed {
                seq: Wire::decode(dec)?,
                lease: Wire::decode(dec)?,
                reply: dec.get_rest().to_vec(),
            }),
            12 => Ok(RegimeReply::Renewed(Wire::decode(dec)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "RegimeReply",
                tag: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RegimeTable {
        RegimeTable {
            object: (3u64 << 48) | 17,
            type_name: "orca.KvTable".into(),
            epoch: 5,
            regime: RegimeKind::Sharded,
            owners: vec![0, 1, 2, 1],
            mirrors: Vec::new(),
        }
    }

    fn window() -> DedupWindow {
        let mut dedup = DedupWindow::new();
        dedup.record(OpStamp { origin: 3, seq: 11 }, vec![1, 2]);
        dedup
    }

    fn grant() -> LeaseGrant {
        LeaseGrant {
            object: 9,
            epoch: 3,
            seq: 4,
            valid_ms: 150,
        }
    }

    #[test]
    fn all_requests_round_trip() {
        let msgs = vec![
            RegimeMsg::Route { object: 9 },
            RegimeMsg::Op {
                object: 9,
                epoch: 2,
                partition: 3,
                op: vec![1, 2, 3],
                stamp: Some(OpStamp { origin: 2, seq: 40 }),
            },
            RegimeMsg::OpAll {
                object: 9,
                op: vec![4, 5],
            },
            RegimeMsg::Propose { object: 9 },
            RegimeMsg::Report {
                object: 9,
                reads: 100,
                writes: 3,
            },
            RegimeMsg::Drain {
                object: 9,
                epoch: 2,
                partition: 0,
            },
            RegimeMsg::Install {
                object: 9,
                epoch: 3,
                partition: 1,
                type_name: "orca.Set".into(),
                state: vec![0; 8],
                dedup: window(),
                regime: RegimeKind::Replicated,
                mirrors: vec![0, 2],
            },
            RegimeMsg::Mirror {
                object: 9,
                epoch: 3,
                partition: Some(0),
                type_name: "orca.Int".into(),
                state: vec![7],
                seq: 12,
                dedup: DedupWindow::new(),
                lease: Some(150),
            },
            RegimeMsg::FetchMirror {
                object: 9,
                epoch: 3,
                have: Some(12),
            },
            RegimeMsg::DropCopies {
                object: 9,
                epoch: 3,
                written: None,
            },
            RegimeMsg::DropCopies {
                object: 9,
                epoch: 3,
                written: Some(14),
            },
            RegimeMsg::Update {
                object: 9,
                epoch: 3,
                partition: None,
                seq: 13,
                held: false,
                ops: vec![vec![1]],
                stamped: Some((OpStamp { origin: 1, seq: 7 }, vec![0])),
                lease: Some(150),
            },
            RegimeMsg::Update {
                object: 9,
                epoch: 3,
                partition: Some(2),
                seq: 14,
                held: true,
                ops: vec![vec![1, 2], vec![], vec![0x80, 0xff]],
                stamped: None,
                lease: None,
            },
            RegimeMsg::Unlock {
                object: 9,
                epoch: 3,
                seq: 13,
            },
            RegimeMsg::Unreached { object: 9, node: 2 },
            RegimeMsg::Holdings { object: 9 },
            RegimeMsg::Promote {
                object: 9,
                epoch: 3,
                partition: 2,
            },
            RegimeMsg::WriteThrough {
                object: 9,
                epoch: 3,
                op: vec![1, 2],
                stamp: Some(OpStamp { origin: 2, seq: 41 }),
            },
        ];
        for msg in msgs {
            assert_eq!(RegimeMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn all_replies_round_trip() {
        let table = table();
        assert_eq!(table.partitions(), 4);
        let replies = vec![
            RegimeReply::Done(vec![9]),
            RegimeReply::Blocked,
            RegimeReply::Route(RegimeTable {
                regime: RegimeKind::Replicated,
                owners: vec![2],
                mirrors: vec![1],
                ..table.clone()
            }),
            RegimeReply::Route(table),
            RegimeReply::StaleRegime,
            RegimeReply::State {
                state: vec![1, 2],
                dedup: window(),
            },
            RegimeReply::MirrorState {
                state: vec![3],
                seq: 8,
                dedup: window(),
                lease: Some(150),
            },
            RegimeReply::Renewed(grant()),
            RegimeReply::Ack,
            RegimeReply::Error("nope".into()),
            RegimeReply::Holdings(Box::default()),
            RegimeReply::Holdings(Box::new(Holdings {
                type_name: "orca.KvTable".into(),
                slots: vec![(0, 4, 9, RegimeKind::Sharded)],
                keepers: vec![(1, 4, 3), (1, 3, 40)],
                mirror: Some((4, 17, vec![7])),
                dedup: window(),
            })),
            RegimeReply::ObjectLost,
            RegimeReply::Installed {
                reply: vec![5],
                seq: 14,
                lease: Some(150),
            },
            RegimeReply::Batch(vec![
                crate::batch::BatchOutcome::Done(vec![1]),
                crate::batch::BatchOutcome::Stale,
            ]),
        ];
        for reply in replies {
            assert_eq!(RegimeReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }

    /// A fan-out flips the `held` flag in the encoded bytes; a pushed
    /// operation costs its own bytes and one for its length.
    #[test]
    fn an_encoded_update_is_held_in_place_and_carries_its_operations_raw() {
        let update = |held, op: Vec<u8>| RegimeMsg::Update {
            object: 9,
            epoch: 3,
            partition: None,
            seq: 13,
            held,
            ops: vec![op],
            stamped: None,
            lease: Some(150),
        };
        let mut bytes = update(true, vec![0xff; 27]).to_bytes();
        assert_eq!(bytes.len(), update(true, Vec::new()).to_bytes().len() + 27);
        for held in [false, true, false] {
            RegimeMsg::hold_update(&mut bytes, held);
            let decoded = RegimeMsg::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, update(held, vec![0xff; 27]));
        }
    }

    #[test]
    fn regime_kind_names_and_tags() {
        for kind in [
            RegimeKind::Replicated,
            RegimeKind::Primary,
            RegimeKind::Sharded,
        ] {
            assert_eq!(RegimeKind::from_bytes(&kind.to_bytes()).unwrap(), kind);
            assert!(!kind.name().is_empty());
        }
        assert!(RegimeKind::from_bytes(&[9]).is_err());
    }

    #[test]
    fn truncated_messages_are_errors() {
        let bytes = RegimeMsg::Drain {
            object: 1,
            epoch: 1,
            partition: 1,
        }
        .to_bytes();
        assert!(RegimeMsg::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RegimeReply::from_bytes(&[0xff]).is_err());
    }
}
