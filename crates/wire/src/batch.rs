//! Batched-operation vocabulary of the pipelined asynchronous invocation
//! path.
//!
//! Every runtime system accepts *operation batches*: a process that keeps
//! many invocations in flight (`invoke_async` / `invoke_many` in
//! `orca-core`) lets its node's runtime system coalesce the pending
//! operations per destination — one broadcast slot, one RPC to a primary,
//! one RPC per partition owner — instead of paying a full round trip per
//! operation. The shared shapes live here, at the bottom of the stack, so
//! the codecs are property-tested with every other wire type and the byte
//! counts the network statistics accumulate for batch traffic are real.
//!
//! A batch carries its operations **in issue order** and the receiver
//! applies them in exactly that order; the reply holds one outcome per
//! operation, in the same order, so the origin can resolve each
//! invocation's completion handle individually. A batch that fails as a
//! whole (timeout, dead destination) therefore still reports a
//! *per-operation* outcome at the origin — no operation is silently
//! dropped.
//!
//! # Encoding
//!
//! The point of shipping operations instead of data is that a write is one
//! short message, so a batched operation should cost little more than its
//! own bytes. Consecutive operations of a batch nearly always address the
//! same object, partition and epoch, and carry consecutive ids and trace
//! ids; the codec therefore *predicts* each field from the previous
//! operation and writes only the mispredictions:
//!
//! ```text
//! ops   := count:varint op*
//! op    := flags:u8 [id:varint] [object:varint] [partition:varint]
//!          [epoch:varint] [trace:TraceId] len:varint bytes
//! ```
//!
//! A set bit in `flags` says the field follows; a clear bit says it equals
//! its prediction — `id` and a traced `trace` one more than the previous
//! operation's (wrapping), everything else unchanged, all starting from
//! zero / [`TraceId::NONE`]. The common case is two bytes of overhead per
//! operation (flags and length); any sequence of values round-trips.
//!
//! There is one encoding and three ways to touch it: the owned
//! [`OpBatch`] / [`BatchOp`] (`Wire`, for tools and tests),
//! [`OpBatchEncoder`] (senders stream operations out of their submission
//! queue without building a `BatchOp` first) and [`OpBatchView`]
//! (receivers apply each operation straight from the receive buffer).

use crate::{Decoder, Encoder, TraceId, Wire, WireError, WireResult, MAX_LEN};

const HAS_ID: u8 = 1 << 0;
const HAS_OBJECT: u8 = 1 << 1;
const HAS_PARTITION: u8 = 1 << 2;
const HAS_EPOCH: u8 = 1 << 3;
const HAS_TRACE: u8 = 1 << 4;
const KNOWN_FLAGS: u8 = HAS_ID | HAS_OBJECT | HAS_PARTITION | HAS_EPOCH | HAS_TRACE;

/// One operation of a batch, borrowing its encoded bytes: what an
/// [`OpBatchView`] yields and an [`OpBatchEncoder`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRef<'a> {
    /// Raw object id (the `u64` inside `ObjectId`).
    pub object: u64,
    /// Partition the (possibly narrowed) operation addresses.
    pub partition: u32,
    /// Regime epoch the sender believes current.
    pub epoch: u64,
    /// Causal identity of the invocation that issued the operation.
    pub trace: TraceId,
    /// Encoded operation.
    pub op: &'a [u8],
}

/// The previous operation's fields, from which both ends of the codec
/// predict the next one's.
#[derive(Debug, Clone, Copy, Default)]
struct Predictor {
    id: u64,
    object: u64,
    partition: u32,
    epoch: u64,
    trace: TraceId,
}

impl Predictor {
    fn next_id(&self) -> u64 {
        self.id.wrapping_add(1)
    }

    /// Traced operations of one batch carry consecutive trace ids (one
    /// origin mints them in issue order); an untraced one is followed by
    /// untraced ones.
    fn next_trace(&self) -> TraceId {
        if self.trace.is_traced() {
            TraceId(self.trace.0.wrapping_add(1))
        } else {
            TraceId::NONE
        }
    }

    fn encode(&mut self, enc: &mut Encoder, id: u64, op: OpRef<'_>) {
        let flag = |mispredicted: bool, bit: u8| if mispredicted { bit } else { 0 };
        let flags = flag(id != self.next_id(), HAS_ID)
            | flag(op.object != self.object, HAS_OBJECT)
            | flag(op.partition != self.partition, HAS_PARTITION)
            | flag(op.epoch != self.epoch, HAS_EPOCH)
            | flag(op.trace != self.next_trace(), HAS_TRACE);
        enc.put_u8(flags);
        if flags & HAS_ID != 0 {
            enc.put_uvarint(id);
        }
        if flags & HAS_OBJECT != 0 {
            enc.put_uvarint(op.object);
        }
        if flags & HAS_PARTITION != 0 {
            enc.put_uvarint(u64::from(op.partition));
        }
        if flags & HAS_EPOCH != 0 {
            enc.put_uvarint(op.epoch);
        }
        if flags & HAS_TRACE != 0 {
            op.trace.encode(enc);
        }
        enc.put_bytes(op.op);
        *self = Predictor {
            id,
            object: op.object,
            partition: op.partition,
            epoch: op.epoch,
            trace: op.trace,
        };
    }

    /// Decode the next operation; afterwards `self` holds its fields
    /// (`self.id` is the one the returned [`OpRef`] does not carry).
    fn decode<'a>(&mut self, dec: &mut Decoder<'a>) -> WireResult<OpRef<'a>> {
        let flags = dec.get_u8()?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(WireError::InvalidTag {
                type_name: "BatchOp flags",
                tag: u64::from(flags),
            });
        }
        self.id = if flags & HAS_ID != 0 {
            dec.get_uvarint()?
        } else {
            self.next_id()
        };
        if flags & HAS_OBJECT != 0 {
            self.object = dec.get_uvarint()?;
        }
        if flags & HAS_PARTITION != 0 {
            self.partition = Wire::decode(dec)?;
        }
        if flags & HAS_EPOCH != 0 {
            self.epoch = dec.get_uvarint()?;
        }
        self.trace = if flags & HAS_TRACE != 0 {
            Wire::decode(dec)?
        } else {
            self.next_trace()
        };
        Ok(OpRef {
            object: self.object,
            partition: self.partition,
            epoch: self.epoch,
            trace: self.trace,
            op: dec.get_bytes_ref()?,
        })
    }
}

/// One operation inside an [`OpBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOp {
    /// Position marker of the operation within its origin's stream. No
    /// receiver reads it (replies are positional); consecutive ids cost no
    /// bytes.
    pub id: u64,
    /// Raw object id (the `u64` inside `ObjectId`).
    pub object: u64,
    /// Partition the (possibly narrowed) operation addresses. `0` where the
    /// object is not partitioned (broadcast; a single or replicated copy).
    pub partition: u32,
    /// Regime epoch the sender believes current (adaptive runtime system);
    /// `0` elsewhere.
    pub epoch: u64,
    /// Encoded operation.
    pub op: Vec<u8>,
    /// Causal identity of the invocation that issued this operation
    /// ([`TraceId::NONE`] when the origin did not trace it).
    pub trace: TraceId,
}

impl BatchOp {
    /// The borrowed form of this operation (everything but `id`).
    pub fn as_op_ref(&self) -> OpRef<'_> {
        OpRef {
            object: self.object,
            partition: self.partition,
            epoch: self.epoch,
            trace: self.trace,
            op: &self.op,
        }
    }
}

/// A lone operation is a batch's first: predicted from the zero state.
impl Wire for BatchOp {
    fn encode(&self, enc: &mut Encoder) {
        Predictor::default().encode(enc, self.id, self.as_op_ref());
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let mut prev = Predictor::default();
        let op = prev.decode(dec)?;
        Ok(owned(prev.id, op))
    }
}

fn owned(id: u64, op: OpRef<'_>) -> BatchOp {
    BatchOp {
        id,
        object: op.object,
        partition: op.partition,
        epoch: op.epoch,
        op: op.op.to_vec(),
        trace: op.trace,
    }
}

/// A batch of operations shipped to one destination in one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBatch {
    /// Origin-unique batch id (shares the invocation-id namespace, so the
    /// broadcast runtime system's withdraw protocol covers whole batches).
    pub batch: u64,
    /// The operations, in the exact order they were issued at the origin;
    /// the receiver applies them in this order.
    pub ops: Vec<BatchOp>,
}

impl Wire for OpBatch {
    fn encode(&self, enc: &mut Encoder) {
        self.batch.encode(enc);
        enc.put_len(self.ops.len());
        let mut prev = Predictor::default();
        for op in &self.ops {
            prev.encode(enc, op.id, op.as_op_ref());
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let batch = Wire::decode(dec)?;
        let count = dec.get_len()?;
        // An operation occupies at least two bytes, which bounds what a
        // corrupt count can make this reserve.
        let mut ops = Vec::with_capacity(count.min(dec.remaining() / 2));
        let mut prev = Predictor::default();
        for _ in 0..count {
            let op = prev.decode(dec)?;
            ops.push(owned(prev.id, op));
        }
        Ok(OpBatch { batch, ops })
    }
}

/// Streams operations into an encoded batch — `count` then `op*` of the
/// module's grammar — appended to a message the caller has already begun
/// (a request tag, a batch id). Ids are left to their prediction, so they
/// cost nothing.
#[derive(Debug)]
pub struct OpBatchEncoder {
    enc: Encoder,
    /// Where the count goes once it is known.
    count_at: usize,
    count: usize,
    prev: Predictor,
}

impl OpBatchEncoder {
    /// Begin a batch after the bytes `prefix` already holds.
    pub fn new(prefix: Vec<u8>) -> Self {
        OpBatchEncoder {
            count_at: prefix.len(),
            enc: Encoder::from_vec(prefix),
            count: 0,
            prev: Predictor::default(),
        }
    }

    /// Begin a batch request: the one-byte message tag, then the batch,
    /// in a buffer with room for `capacity` bytes.
    pub fn request(tag: u8, capacity: usize) -> Self {
        let mut prefix = Vec::with_capacity(capacity);
        prefix.push(tag);
        OpBatchEncoder::new(prefix)
    }

    /// Append one operation.
    pub fn push(&mut self, op: OpRef<'_>) {
        let id = self.prev.next_id();
        self.prev.encode(&mut self.enc, id, op);
        self.count += 1;
    }

    /// The finished message: prefix, count, operations.
    pub fn finish(mut self) -> Vec<u8> {
        // The count is written behind the operations and rotated in front
        // of them, which spares a second buffer.
        let ops_end = self.enc.len();
        self.enc.put_len(self.count);
        let mut buf = self.enc.into_bytes();
        let count_len = buf.len() - ops_end;
        buf[self.count_at..].rotate_right(count_len);
        buf
    }
}

/// An encoded run of batch operations, checked once and then read in
/// place: iterating yields each operation's fields and a slice of the
/// underlying buffer, with no allocation.
#[derive(Debug, Clone)]
pub struct OpBatchView<'a> {
    count: usize,
    /// Positioned at the first operation.
    ops: Decoder<'a>,
}

impl<'a> OpBatchView<'a> {
    /// Check the batch at the decoder's cursor and advance past it. Every
    /// operation is parsed here, so iteration cannot fail half-way through
    /// a batch a receiver has begun to apply.
    pub fn parse(dec: &mut Decoder<'a>) -> WireResult<Self> {
        let count = dec.get_len()?;
        let ops = dec.clone();
        let mut prev = Predictor::default();
        for _ in 0..count {
            prev.decode(dec)?;
        }
        Ok(OpBatchView { count, ops })
    }

    /// View a buffer that holds exactly one batch.
    pub fn from_bytes(bytes: &'a [u8]) -> WireResult<Self> {
        let mut dec = Decoder::new(bytes);
        let view = OpBatchView::parse(&mut dec)?;
        dec.finish()?;
        Ok(view)
    }

    /// View the batch of a request message, if `body` is one: `None` when
    /// it does not start with `tag` (see [`OpBatchEncoder::request`]).
    pub fn from_request(tag: u8, body: &'a [u8]) -> Option<WireResult<Self>> {
        match body.split_first() {
            Some((&first, batch)) if first == tag => Some(OpBatchView::from_bytes(batch)),
            _ => None,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for a batch of no operations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The operations, in issue order.
    pub fn iter(&self) -> OpBatchIter<'a> {
        OpBatchIter {
            left: self.count,
            dec: self.ops.clone(),
            prev: Predictor::default(),
        }
    }
}

impl<'a> IntoIterator for &OpBatchView<'a> {
    type Item = OpRef<'a>;
    type IntoIter = OpBatchIter<'a>;
    fn into_iter(self) -> OpBatchIter<'a> {
        self.iter()
    }
}

/// Iterator over the operations of an [`OpBatchView`].
#[derive(Debug, Clone)]
pub struct OpBatchIter<'a> {
    left: usize,
    dec: Decoder<'a>,
    prev: Predictor,
}

impl<'a> Iterator for OpBatchIter<'a> {
    type Item = OpRef<'a>;

    fn next(&mut self) -> Option<OpRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        Some(
            self.prev
                .decode(&mut self.dec)
                .expect("OpBatchView::parse checked every operation"),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for OpBatchIter<'_> {}

/// Outcome of one operation of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The operation completed; the encoded reply follows.
    Done(Vec<u8>),
    /// The operation's guard was false; it took no effect and the origin
    /// retries it out of band.
    Blocked,
    /// The receiver no longer serves the addressed replica (migration or
    /// regime switch in flight); the operation took no effect and the
    /// origin re-routes it.
    Stale,
    /// The operation failed; it may not be retried blindly.
    Failed(String),
}

// One varint says both which outcome and, for the one that matters, how
// long its reply is: the three rare outcomes take the first values and
// `Done` the rest, so a completed operation pays no tag byte.
const OUTCOME_BLOCKED: u64 = 0;
const OUTCOME_STALE: u64 = 1;
const OUTCOME_FAILED: u64 = 2;
const OUTCOME_DONE: u64 = 3;

impl Wire for BatchOutcome {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            BatchOutcome::Done(reply) => {
                enc.put_uvarint(OUTCOME_DONE + reply.len() as u64);
                enc.put_raw(reply);
            }
            BatchOutcome::Blocked => enc.put_uvarint(OUTCOME_BLOCKED),
            BatchOutcome::Stale => enc.put_uvarint(OUTCOME_STALE),
            BatchOutcome::Failed(msg) => {
                enc.put_uvarint(OUTCOME_FAILED);
                msg.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_uvarint()? {
            OUTCOME_BLOCKED => Ok(BatchOutcome::Blocked),
            OUTCOME_STALE => Ok(BatchOutcome::Stale),
            OUTCOME_FAILED => Ok(BatchOutcome::Failed(Wire::decode(dec)?)),
            done => {
                let len = done - OUTCOME_DONE;
                if len > MAX_LEN {
                    return Err(WireError::LengthTooLarge { len, max: MAX_LEN });
                }
                Ok(BatchOutcome::Done(dec.get_raw(len as usize)?.to_vec()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> OpBatch {
        OpBatch {
            batch: 41,
            ops: vec![
                BatchOp {
                    id: 42,
                    object: (3u64 << 48) | 7,
                    partition: 2,
                    epoch: 1,
                    op: vec![1, 2, 3],
                    trace: TraceId::mint(1, 7),
                },
                BatchOp {
                    id: 43,
                    object: 9,
                    partition: 0,
                    epoch: 0,
                    op: vec![],
                    trace: TraceId::NONE,
                },
            ],
        }
    }

    #[test]
    fn batch_round_trips() {
        let b = batch();
        assert_eq!(OpBatch::from_bytes(&b.to_bytes()).unwrap(), b);
        for op in &b.ops {
            assert_eq!(BatchOp::from_bytes(&op.to_bytes()).unwrap(), *op);
        }
        for outcome in [
            BatchOutcome::Done(vec![9]),
            BatchOutcome::Done(vec![]),
            BatchOutcome::Blocked,
            BatchOutcome::Stale,
            BatchOutcome::Failed("nope".into()),
        ] {
            assert_eq!(
                BatchOutcome::from_bytes(&outcome.to_bytes()).unwrap(),
                outcome
            );
        }
    }

    #[test]
    fn a_completed_outcome_costs_its_reply_plus_one() {
        assert_eq!(BatchOutcome::Done(vec![7, 7]).encoded_len(), 3);
        assert_eq!(BatchOutcome::Blocked.encoded_len(), 1);
    }

    #[test]
    fn truncated_batches_are_errors() {
        let bytes = batch().to_bytes();
        for cut in 0..bytes.len() {
            assert!(OpBatch::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Flag bits the format does not define, and a reply shorter than
        // its outcome claims.
        assert!(BatchOp::from_bytes(&[0x20, 0]).is_err());
        assert!(BatchOutcome::from_bytes(&[OUTCOME_DONE as u8 + 2, 1]).is_err());
    }

    #[test]
    fn mispredicted_fields_survive_and_predicted_ones_are_free() {
        // Every prediction wrong on every op, at the edges of each type.
        let hostile = OpBatch {
            batch: u64::MAX,
            ops: vec![
                BatchOp {
                    id: u64::MAX,
                    object: u64::MAX,
                    partition: u32::MAX,
                    epoch: u64::MAX,
                    op: vec![0xff; 3],
                    trace: TraceId(u64::MAX),
                },
                // id wraps to 0 and the trace to NONE: both as predicted.
                BatchOp {
                    id: 0,
                    object: 0,
                    partition: 0,
                    epoch: 0,
                    op: vec![],
                    trace: TraceId::NONE,
                },
                BatchOp {
                    id: 0,
                    object: 0,
                    partition: 1,
                    epoch: 0,
                    op: vec![1],
                    trace: TraceId::mint(0, 0),
                },
            ],
        };
        let bytes = hostile.to_bytes();
        assert_eq!(OpBatch::from_bytes(&bytes).unwrap(), hostile);
        // The wrapped second op is flags + object + partition + epoch +
        // empty op: nothing for its id or trace.
        let second = {
            let mut dec = Decoder::new(&bytes);
            u64::decode(&mut dec).unwrap();
            dec.get_len().unwrap();
            let mut prev = Predictor::default();
            prev.decode(&mut dec).unwrap();
            let start = dec.position();
            prev.decode(&mut dec).unwrap();
            dec.position() - start
        };
        assert_eq!(second, 5);
    }

    /// 64 same-object `Put`-sized operations with consecutive traces: the
    /// pipelined hot path's batch. Pinned so that a byte regression fails
    /// here, not only in the benchmark.
    #[test]
    fn golden_size_of_a_hot_path_batch() {
        const OPS: usize = 64;
        const OP_BYTES: usize = 23;
        let mut enc = OpBatchEncoder::request(9, 0);
        for i in 0..OPS {
            enc.push(OpRef {
                object: 1 << 48 | 1,
                partition: 0,
                epoch: 0,
                trace: TraceId::mint(1, 1000 + i as u64),
                op: &[i as u8; OP_BYTES],
            });
        }
        let bytes = enc.finish();
        // Tag and count, the first op's object (7) and trace (3), then
        // flags + length + payload per op.
        let budget = 2 + 7 + 3 + OPS * (2 + OP_BYTES);
        assert!(bytes.len() <= budget, "{} > {budget}", bytes.len());
    }

    #[test]
    fn encoder_and_view_agree_with_the_owned_codec() {
        let b = batch();
        let mut enc = OpBatchEncoder::new(b.batch.to_bytes());
        for op in &b.ops {
            enc.push(op.as_op_ref());
        }
        let bytes = enc.finish();
        // The encoder leaves ids to their prediction: 1, 2, ...
        let decoded = OpBatch::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.batch, b.batch);
        let ids: Vec<u64> = decoded.ops.iter().map(|op| op.id).collect();
        assert_eq!(ids, [1, 2]);

        let mut dec = Decoder::new(&bytes);
        u64::decode(&mut dec).unwrap();
        let view = OpBatchView::parse(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(view.len(), 2);
        let seen: Vec<OpRef<'_>> = view.iter().collect();
        let want: Vec<OpRef<'_>> = b.ops.iter().map(BatchOp::as_op_ref).collect();
        assert_eq!(seen, want);
        // The yielded slices alias the encoded buffer.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&seen[0].op.as_ptr()));
    }

    #[test]
    fn a_long_batch_gets_a_two_byte_count() {
        let mut enc = OpBatchEncoder::request(5, 16);
        for i in 0..200u32 {
            enc.push(OpRef {
                object: 4,
                partition: i % 3,
                epoch: 0,
                trace: TraceId::NONE,
                op: &i.to_le_bytes(),
            });
        }
        let bytes = enc.finish();
        assert!(OpBatchView::from_request(6, &bytes).is_none());
        let view = OpBatchView::from_request(5, &bytes).unwrap().unwrap();
        assert_eq!(view.len(), 200);
        for (i, op) in view.iter().enumerate() {
            assert_eq!(op.partition, i as u32 % 3);
            assert_eq!(op.op, (i as u32).to_le_bytes());
        }
        // Trailing bytes after the batch are refused, as for owned decodes.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(OpBatchView::from_request(5, &longer).unwrap().is_err());
        assert!(OpBatchView::from_request(5, &[]).is_none());
    }
}
