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
//! reads it (a mirror of a replicated object or of a sharded partition) or
//! keeps it for a promotion (a slot's *keeper*, with recovery on). The
//! object's home node (its creator, recoverable from the object id) owns the
//! authoritative [`RegimeTable`]; every other node caches it and is told
//! [`RegimeReply::StaleRegime`] when it acts on an outdated epoch.
//!
//! The message vocabulary lives here, at the bottom of the stack, so the
//! codecs are property-tested together with every other wire type and so the
//! byte counts the network statistics accumulate for regime traffic are
//! real. Object identifiers are carried as their raw `u64` representation
//! (exactly the encoding `ObjectId` in `orca-object` uses on the wire). Each
//! type is declared with [`wire_type!`](crate::wire_type), its fields in wire
//! order.

use crate::lease::{DedupWindow, LeaseGrant, OpStamp};
use crate::wire_type;

wire_type! {
    /// Which synchronization regime currently serves an object.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum RegimeKind {
        /// One authoritative copy at the *owner* — a node that writes the
        /// object — plus a read mirror on every other node that reads it; writes
        /// execute at the owner, which pushes sequence-numbered updates to the
        /// mirrors. Reads are local there, shipped to the owner from anywhere
        /// else. A copy nobody reads has no mirror. For everything that is not
        /// sharded.
        REPLICATED_TAG = 0 => Replicated,
        /// Reserved: the name and tag of a retired regime (a single copy pinned
        /// to the home node — a replicated copy without mirrors, which may
        /// move). `orca-rts` refuses a table or an install that carries it; its
        /// only reader is `bench/ledger`, and it is deleted with that reader's
        /// next `[benchmark]` change (ROADMAP item 8).
        PRIMARY_TAG = 1 => Primary,
        /// The object is split into hash-partitioned slices, each owned by one
        /// node; operations ship point-to-point to the partition owner, but a
        /// read of a node that mirrors it: spreads a shardable object's load.
        SHARDED_TAG = 2 => Sharded,
    }
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

wire_type! {
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
        /// The nodes holding a read mirror, sorted: of the one copy (never its
        /// owner), or of every partition they do not own. The table is the
        /// truth: a node it does not list ships its reads to the owner.
        pub mirrors: Vec<u16>,
    }
}

impl RegimeTable {
    /// Number of authoritative partitions of the object under this regime.
    pub fn partitions(&self) -> u32 {
        self.owners.len() as u32
    }
}

wire_type! {
    /// Requests of the adaptive runtime-system service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RegimeMsg {
        /// Client → home node: return the current [`RegimeTable`] of `object`.
        ROUTE_TAG = 0 => Route {
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
        OP_TAG = 1 => Op {
            /// Raw object id.
            object: u64,
            /// Epoch of the regime table the client routed under.
            epoch: u64,
            /// Target partition.
            partition: u32,
            /// Exactly-once identity of a synchronously invoked write, reused
            /// verbatim across client retries so a slot that already applied
            /// the op answers its recorded reply instead of applying again.
            /// `None` for reads and for the batched asynchronous path.
            stamp: Option<OpStamp>,
            /// Encoded (already partition-narrowed) operation.
            op: Vec<u8> as tail,
        },
        /// Client → home node: execute an all-partition operation indivisibly.
        /// The home fans the operation out under its switch lock, so a regime
        /// change can never interleave with the per-partition shares (which
        /// would re-apply non-idempotent shares on retry).
        OP_ALL_TAG = 2 => OpAll {
            /// Raw object id.
            object: u64,
            /// Encoded whole-object operation.
            op: Vec<u8> as tail,
        },
        /// Any node → home node: re-evaluate the object's regime now from the
        /// usage evidence accumulated so far (a regime-change *proposal*). The
        /// reply carries the — possibly freshly switched — routing table.
        PROPOSE_TAG = 3 => Propose {
            /// Raw object id.
            object: u64,
        },
        /// Client → home node: report the sender's read/write counts for the
        /// object since its previous report. Feeds the decayed per-node usage
        /// aggregate that drives regime decisions. A one-way notification:
        /// nothing is sent back.
        REPORT_TAG = 4 => Report {
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
        DRAIN_TAG = 5 => Drain {
            /// Raw object id.
            object: u64,
            /// Epoch being drained (guards against duplicate/late drains).
            epoch: u64,
            /// Partition to withdraw.
            partition: u32,
        },
        /// Home → new owner (regime switch, phase 2): install an authoritative
        /// partition replica under the new epoch. The installer primes the
        /// listed mirrors but itself, a lease each, and is their grantor from
        /// then on.
        INSTALL_TAG = 6 => Install {
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
            /// The read mirrors the table lists (see [`RegimeTable::mirrors`]).
            mirrors: Vec<u16>,
            /// Re-stamp the owner's slot of this epoch instead (`state` empty).
            from: Option<u64> as trailing,
        },
        /// Owner → mirror holder: install a mirror primed with the given state
        /// and update sequence number. Sent to the readers the table lists when
        /// a slot is installed, and to the slot's keeper then and whenever the
        /// keeper answers a [`RegimeMsg::Update`] it could not apply.
        MIRROR_TAG = 7 => Mirror {
            /// Raw object id.
            object: u64,
            /// Epoch of the mirrored slot.
            epoch: u64,
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
            /// What is mirrored. `None` — and nothing on the wire — is the one
            /// copy of a replicated-regime object; `Some(p)`, the message's last
            /// field, is partition `p` of a sharded-regime object, read where
            /// the table lists its holder, else kept for a promotion.
            partition: Option<u32> as trailing,
        },
        /// Listed mirror → owner: fetch a fresh mirror state (lazy re-sync after
        /// a lost update or a missed mirror install) or renew a lapsed lease.
        FETCH_MIRROR_TAG = 8 => FetchMirror {
            /// Raw object id.
            object: u64,
            /// Epoch the client believes is current.
            epoch: u64,
            /// Version of the caller's unlocked copy of that epoch, if it holds
            /// one: an owner still at that version answers
            /// [`RegimeReply::Renewed`] instead of shipping the state.
            have: Option<u64>,
            /// What is mirrored, as in [`RegimeMsg::Mirror`].
            partition: Option<u32> as trailing,
        },
        /// Draining owner → its mirrors (a slot is retired): discard the read
        /// mirror so no node keeps serving pre-switch state. Home → every node:
        /// the keepers of a retired regime's slots are discarded the same way
        /// (any switch with recovery on), so none is left to be promoted later;
        /// and, before a promotion, every other holder's mirror of the slot.
        /// Owner → its listed readers under the invalidation write policy: a
        /// write was applied, discard the copy and fetch a fresh one at the
        /// next read.
        DROP_COPIES_TAG = 9 => DropCopies {
            /// Raw object id.
            object: u64,
            /// Epoch being retired.
            epoch: u64,
            /// Version of the write that invalidates the copy, which stays
            /// listed: the holder remembers it, so an older snapshot still in
            /// flight is refused. `None` when the slot is retired, and what the
            /// holder remembers of the epoch's versions with it.
            written: Option<u64>,
            /// What is mirrored, as in [`RegimeMsg::Mirror`]; retiring, `None` is all.
            partition: Option<u32> as trailing,
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
        UPDATE_TAG = 10 => Update {
            /// Lock the mirror until the unlock (see [`RegimeMsg::hold_update`]).
            held: bool,
            /// Raw object id.
            object: u64,
            /// Epoch of the mirrored slot.
            epoch: u64,
            /// Update sequence number of `ops[0]` (the owner replica's version
            /// after it); the holder applies exactly the run's unseen suffix.
            seq: u64,
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
            /// What is mirrored, as in [`RegimeMsg::Mirror`].
            partition: Option<u32> as trailing,
        },
        /// Mirror-holding client → owner: a write whose sender holds an
        /// installed mirror of the partition and has marked it pending. The
        /// owner executes it like a [`RegimeMsg::Op`], laid out the same way,
        /// but leaves the sender out of both phases of the mirror push and
        /// answers [`RegimeReply::Installed`], from which the sender brings its
        /// own mirror up to date — it already has the operation bytes in hand.
        WRITE_THROUGH_TAG = 14 => WriteThrough {
            /// Raw object id.
            object: u64,
            /// Epoch of the regime table the client routed under.
            epoch: u64,
            /// Target partition (0 under the replicated regime).
            partition: u32,
            /// Exactly-once identity of the write (see [`RegimeMsg::Op`]).
            stamp: Option<OpStamp>,
            /// Encoded (already partition-narrowed) write operation.
            op: Vec<u8> as tail,
        },
        /// Owner → mirror holder: release the mirror locked by `seq`. A one-way
        /// notification — nothing is sent back — so it can be handled after a
        /// later [`RegimeMsg::Update`]; `seq` is what lets the holder ignore it
        /// then.
        UNLOCK_TAG = 11 => Unlock {
            /// Raw object id.
            object: u64,
            /// Epoch of the mirrored slot.
            epoch: u64,
            /// Update sequence number being released.
            seq: u64,
            /// What is mirrored, as in [`RegimeMsg::Mirror`].
            partition: Option<u32> as trailing,
        },
        /// Recovering home → survivor: report what you hold of `object` —
        /// authoritative slots, mirrors of its copy or of its partitions — so
        /// the home (or the node adopting a dead creator's home role) can give
        /// every slot a live owner again. Answered [`RegimeReply::Holdings`].
        HOLDINGS_TAG = 12 => Holdings {
            /// Raw object id.
            object: u64,
        },
        /// Recovering home → holder of the freshest mirror of a dead owner's
        /// slot: make it the authoritative slot, in place, under the epoch the
        /// table has.
        PROMOTE_TAG = 15 => Promote {
            /// Raw object id.
            object: u64,
            /// Epoch the mirror must belong to.
            epoch: u64,
            /// What is mirrored, as in [`RegimeMsg::Mirror`].
            partition: Option<u32> as trailing,
        },
        /// Owner → home node, one-way: a push to the listed mirror `node` went
        /// unanswered though nobody has declared it dead. The home forgets what
        /// that node reported and re-places the object now, instead of every
        /// write paying the push's budget until an evaluation drops the mirror.
        UNREACHED_TAG = 16 => Unreached {
            /// Raw object id.
            object: u64,
            /// The mirror that did not answer.
            node: u16,
        },
    }
    reserved {
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
        OP_BATCH_TAG = 13,
    }
}

impl RegimeMsg {
    /// Set the `held` flag of an encoded [`RegimeMsg::Update`] in place: a
    /// fan-out encodes the run once and ships the same bytes to every
    /// mirror, and the flag — the byte after the tag — is all that differs.
    pub fn hold_update(update: &mut [u8], held: bool) {
        assert_eq!(update[0], RegimeMsg::UPDATE_TAG, "not an Update");
        update[1] = u8::from(held);
    }
}

wire_type! {
    /// What one node holds of an object: the answer to
    /// [`RegimeMsg::Holdings`], no state among it. Each holding is
    /// `(partition, epoch, version)` — a slot also names the regime it
    /// serves and the readers it lists; among holders of one slot the greater
    /// `(epoch, version)` is the fresher, so a mirror a drain left behind
    /// never outranks its successor.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Holdings {
        /// Registered type name of what is held (empty when nothing is).
        pub type_name: String,
        /// Authoritative slots this node serves, of any regime.
        pub slots: Vec<(u32, u64, u64, RegimeKind, Vec<u16>)>,
        /// Mirrors this node holds, read or kept, by what they mirror (as in
        /// [`RegimeMsg::Mirror`]: `None`, the one copy).
        pub mirrors: Vec<(Option<u32>, u64, u64)>,
    }
}

wire_type! {
    /// Replies of the adaptive runtime-system service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RegimeReply {
        /// Encoded reply of a completed operation (on the wire, the tail of the
        /// message).
        DONE_TAG = 0 => Done(Vec<u8> as tail),
        /// The operation's guard was false; the caller should retry later.
        BLOCKED_TAG = 1 => Blocked,
        /// Routing table (reply to [`RegimeMsg::Route`] and
        /// [`RegimeMsg::Propose`]).
        ROUTE_TAG = 2 => Route(RegimeTable),
        /// The epoch in the request is no longer current (or the receiver does
        /// not hold the addressed partition); the caller must re-fetch the
        /// regime table from the home node.
        STALE_REGIME_TAG = 3 => StaleRegime,
        /// Serialized partition state (reply to [`RegimeMsg::Drain`]).
        STATE_TAG = 4 => State {
            /// Encoded partition state.
            state: Vec<u8>,
            /// Dedup window paired with `state`, carried through the switch.
            dedup: DedupWindow,
        },
        /// Serialized full state plus update sequence number (reply to
        /// [`RegimeMsg::FetchMirror`]).
        MIRROR_STATE_TAG = 5 => MirrorState {
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
        RENEWED_TAG = 12 => Renewed(LeaseGrant),
        /// Acknowledgement with no payload.
        ACK_TAG = 6 => Ack,
        /// The request failed.
        ERROR_TAG = 7 => Error(String),
        /// Reply to [`RegimeMsg::Holdings`] (boxed: the rare reply is the
        /// largest by far).
        HOLDINGS_TAG = 8 => Holdings(Box<Holdings>),
        /// The object's state did not survive the failure (a partition with no
        /// owner and no mirror left, or no authoritative copy and no mirror);
        /// operations on it can never succeed.
        OBJECT_LOST_TAG = 9 => ObjectLost,
        /// Per-operation outcomes of an operation batch
        /// ([`RegimeMsg::OP_BATCH_TAG`]), in batch order, as runs of equal ones.
        BATCH_TAG = 10 => Batch(crate::batch::BatchOutcomes),
        /// A [`RegimeMsg::WriteThrough`] was applied and every *other* mirror
        /// brought up to date: the sender applies its own operation at `seq`.
        INSTALLED_TAG = 11 => Installed {
            /// Update sequence number the write was applied at.
            seq: u64,
            /// Renewed read lease over the sender's mirror (validity in
            /// milliseconds from receipt), when the owner grants leases.
            lease: Option<u64>,
            /// Encoded reply of the write (on the wire, the tail of the
            /// message).
            reply: Vec<u8> as tail,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wire;

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
                from: None,
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
                partition: None,
                have: Some(12),
            },
            RegimeMsg::DropCopies {
                object: 9,
                epoch: 3,
                partition: None,
                written: None,
            },
            RegimeMsg::DropCopies {
                object: 9,
                epoch: 3,
                partition: None,
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
                partition: None,
                seq: 13,
            },
            RegimeMsg::Unreached { object: 9, node: 2 },
            RegimeMsg::Holdings { object: 9 },
            RegimeMsg::Promote {
                object: 9,
                epoch: 3,
                partition: Some(2),
            },
            RegimeMsg::Promote {
                object: 9,
                epoch: 3,
                partition: None,
            },
            RegimeMsg::WriteThrough {
                object: 9,
                epoch: 3,
                partition: 0,
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
                slots: vec![(0, 4, 9, RegimeKind::Sharded, vec![1, 3])],
                mirrors: vec![(Some(1), 4, 3), (Some(1), 3, 40), (None, 4, 17)],
            })),
            RegimeReply::ObjectLost,
            RegimeReply::Installed {
                reply: vec![5],
                seq: 14,
                lease: Some(150),
            },
            RegimeReply::Batch({
                let mut outcomes = crate::batch::BatchOutcomes::default();
                outcomes.push(2, crate::batch::BatchOutcome::Done(vec![1]));
                outcomes.push(1, crate::batch::BatchOutcome::Stale);
                outcomes
            }),
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
