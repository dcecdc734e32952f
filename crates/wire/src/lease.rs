//! Read-lease vocabulary and exactly-once operation stamps.
//!
//! Two related protocol families live here, both threaded through the
//! point-to-point runtime systems in `orca-rts`:
//!
//! * **Read leases** — the owner of a replicated-regime object grants a
//!   time-bounded lease to every mirror it primes or pushes to; its span
//!   rides the messages that do so (`Mirror`, `Update`, `Installed`, the
//!   fetch reply of [`crate::regime`]; a renewal that carries nothing else
//!   is a [`LeaseGrant`] in full). While the lease is valid the
//!   holder serves reads from its local copy with *zero messages*; a write
//!   must renew, revoke or wait out every outstanding grant before its
//!   effect becomes visible, so leased reads stay linearizable. The holder
//!   also ties validity to its failure detector's membership epoch: any
//!   membership change invalidates the leases it holds, so a promoted
//!   copy only has to wait out the wall-clock bound recovery already
//!   assumes.
//!
//! * **Operation stamps** — every synchronously-invoked write carries an
//!   [`OpStamp`] `(origin, seq)` identity. The executing replica records the
//!   stamp and the reply it produced in a bounded per-origin
//!   [`DedupWindow`] that is carried along in every copy's state transfer,
//!   so a write retried across a crash-and-promotion is answered from the
//!   window instead of being applied a second time: exactly-once across
//!   recovery, not at-least-once.

use std::collections::VecDeque;

use crate::{wire_type, Decoder, Encoder, Wire, WireResult};

wire_type! {
    /// A time-bounded permission to serve reads of one object locally.
    ///
    /// `valid_ms` is relative to receipt: the holder trusts its own clock for
    /// the countdown (exactly the wall-clock assumption recovery already
    /// makes), while `epoch` pins the regime epoch of the copy the grant
    /// covers — a grant for another epoch's copy blesses nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LeaseGrant {
        /// Raw object id the lease covers.
        pub object: u64,
        /// Regime epoch of the copy the grant covers.
        pub epoch: u64,
        /// Version of the copy the grant was issued for; a renewal is good for
        /// that version and no other.
        pub seq: u64,
        /// Validity in milliseconds from receipt.
        pub valid_ms: u64,
    }
}

wire_type! {
    /// Identity of one synchronously-invoked write: issuing node plus a
    /// per-node monotonically increasing sequence number. A client retry (after
    /// a timeout or a `NodeDown` during re-homing) re-sends the *same* stamp.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct OpStamp {
        /// Node index of the issuing process.
        pub origin: u16,
        /// Per-origin sequence number.
        pub seq: u64,
    }
}

/// How many `(stamp, reply)` pairs a [`DedupWindow`] keeps per origin.
///
/// A retry can only chase the origin's most recent in-flight writes (the
/// synchronous path has one outstanding write per process), so a small
/// window is enough; it just has to survive the retry horizon of one
/// crash-and-promotion.
pub const DEDUP_WINDOW_PER_ORIGIN: usize = 32;

/// Bounded per-origin memory of recently applied stamped writes and the
/// replies they produced.
///
/// The window is part of the replicated object state: it rides update
/// pushes, mirror primes and fetches, and is carried into the
/// promoted replica during recovery — which is exactly what turns a
/// retried-across-promotion write from at-least-once into exactly-once.
/// One ring per origin of its writes in arrival order, with the newest
/// seq among them: a stamp newer than that — the common one, but for a retry
/// or a merge — misses a lookup and is appended by a record without a scan.
/// On the wire, `(origin, seq, reply)` triples, ring after ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupWindow {
    /// `(origin, newest seq, ring)`, origins in the order they first recorded.
    origins: Vec<(u16, u64, Ring)>,
}

/// One origin's last [`DEDUP_WINDOW_PER_ORIGIN`] `(seq, reply)` pairs.
type Ring = VecDeque<(u64, Vec<u8>)>;

impl DedupWindow {
    /// An empty window.
    pub fn new() -> Self {
        DedupWindow::default()
    }

    /// The recorded reply of `stamp`, if this replica (or any replica whose
    /// state was merged into it) already applied the write.
    pub fn lookup(&self, stamp: OpStamp) -> Option<&[u8]> {
        let (_, newest, ring) = self.origins.iter().find(|(o, ..)| *o == stamp.origin)?;
        let recorded = (stamp.seq <= *newest).then(|| ring.iter().rfind(|e| e.0 == stamp.seq));
        recorded.flatten().map(|(_, reply)| reply.as_slice())
    }

    /// Record that `stamp` was applied and produced `reply`, evicting the
    /// origin's oldest entry beyond [`DEDUP_WINDOW_PER_ORIGIN`].
    pub fn record(&mut self, stamp: OpStamp, reply: Vec<u8>) {
        let origins = &mut self.origins;
        let at = origins
            .iter()
            .position(|(o, ..)| *o == stamp.origin)
            .unwrap_or_else(|| {
                origins.push((stamp.origin, 0, VecDeque::new()));
                origins.len() - 1
            });
        let (_, newest, ring) = &mut origins[at];
        if stamp.seq <= *newest && ring.iter().any(|e| e.0 == stamp.seq) {
            return;
        }
        ring.push_back((stamp.seq, reply));
        *newest = stamp.seq.max(*newest);
        if ring.len() > DEDUP_WINDOW_PER_ORIGIN && ring.pop_front().map(|e| e.0) == Some(*newest) {
            *newest = ring.iter().map(|e| e.0).max().unwrap_or(0);
        }
    }

    /// Fold another replica's window in (used when recovery merges state
    /// from several survivors). Existing entries win.
    pub fn merge(&mut self, other: &DedupWindow) {
        for (origin, seq, reply) in other.entries() {
            self.record(OpStamp { origin, seq }, reply.to_vec());
        }
    }

    /// Every `(origin, seq, reply)`, ring after ring, each in arrival order.
    fn entries(&self) -> impl Iterator<Item = (u16, u64, &[u8])> {
        let rings = self.origins.iter();
        rings.flat_map(|(o, _, ring)| ring.iter().map(|(seq, reply)| (*o, *seq, &reply[..])))
    }

    /// Number of remembered writes.
    pub fn len(&self) -> usize {
        self.origins.iter().map(|(.., ring)| ring.len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }
}

impl Wire for DedupWindow {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for (origin, seq, reply) in self.entries() {
            (origin, seq).encode(enc);
            enc.put_bytes(reply);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let mut window = DedupWindow::new();
        for _ in 0..dec.get_len()? {
            let (origin, seq) = Wire::decode(dec)?;
            window.record(OpStamp { origin, seq }, dec.get_bytes()?);
        }
        Ok(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: tiny deterministic generator for the property tests (the
    /// wire crate is dependency-free by design, so no `rand` here).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    fn random_grant(gen: &mut Gen) -> LeaseGrant {
        LeaseGrant {
            object: gen.next(),
            epoch: gen.next() % 1000,
            seq: gen.next(),
            valid_ms: gen.next() % 100_000,
        }
    }

    #[test]
    fn grant_round_trips_under_random_fields() {
        let mut gen = Gen(7);
        for _ in 0..500 {
            let grant = random_grant(&mut gen);
            assert_eq!(LeaseGrant::from_bytes(&grant.to_bytes()).unwrap(), grant);
        }
    }

    #[test]
    fn all_lease_messages_round_trip() {
        // What is left of the lease vocabulary rides other messages as an
        // optional field: absent, or a grant.
        let mut gen = Gen(11);
        for _ in 0..200 {
            let carried = (gen.next() & 1 == 0).then(|| random_grant(&mut gen));
            let bytes = carried.to_bytes();
            assert_eq!(Option::<LeaseGrant>::from_bytes(&bytes).unwrap(), carried);
        }
        assert!(Option::<LeaseGrant>::from_bytes(&[42]).is_err());
    }

    #[test]
    fn truncated_lease_messages_are_errors() {
        let bytes = Some(LeaseGrant {
            object: 300,
            epoch: 2,
            seq: 9,
            valid_ms: 50,
        })
        .to_bytes();
        for cut in 0..bytes.len() {
            let cut_short = Option::<LeaseGrant>::from_bytes(&bytes[..cut]);
            assert!(cut_short.is_err(), "cut {cut}");
        }
    }

    #[test]
    fn stamp_round_trips() {
        let mut gen = Gen(3);
        for _ in 0..200 {
            let stamp = OpStamp {
                origin: gen.next() as u16,
                seq: gen.next(),
            };
            assert_eq!(OpStamp::from_bytes(&stamp.to_bytes()).unwrap(), stamp);
        }
    }

    #[test]
    fn dedup_window_remembers_and_round_trips() {
        let mut window = DedupWindow::new();
        let stamp = OpStamp { origin: 3, seq: 17 };
        assert!(window.lookup(stamp).is_none());
        window.record(stamp, vec![9, 9]);
        assert_eq!(window.lookup(stamp), Some(&[9u8, 9][..]));
        // Re-recording the same stamp is idempotent.
        window.record(stamp, vec![1]);
        assert_eq!(window.lookup(stamp), Some(&[9u8, 9][..]));
        assert_eq!(window.len(), 1);
        let decoded = DedupWindow::from_bytes(&window.to_bytes()).unwrap();
        assert_eq!(decoded, window);
    }

    #[test]
    fn dedup_window_evicts_per_origin() {
        let mut window = DedupWindow::new();
        for seq in 0..(DEDUP_WINDOW_PER_ORIGIN as u64 + 10) {
            window.record(OpStamp { origin: 1, seq }, vec![seq as u8]);
        }
        // A second origin is unaffected by origin 1's churn.
        window.record(OpStamp { origin: 2, seq: 0 }, vec![b'x']);
        assert_eq!(window.len(), DEDUP_WINDOW_PER_ORIGIN + 1);
        assert!(window.lookup(OpStamp { origin: 1, seq: 0 }).is_none());
        assert!(window
            .lookup(OpStamp {
                origin: 1,
                seq: DEDUP_WINDOW_PER_ORIGIN as u64 + 9
            })
            .is_some());
        assert!(window.lookup(OpStamp { origin: 2, seq: 0 }).is_some());
    }

    #[test]
    fn dedup_window_merge_prefers_existing() {
        let mut a = DedupWindow::new();
        a.record(OpStamp { origin: 0, seq: 1 }, vec![1]);
        let mut b = DedupWindow::new();
        b.record(OpStamp { origin: 0, seq: 1 }, vec![2]);
        b.record(OpStamp { origin: 4, seq: 7 }, vec![3]);
        a.merge(&b);
        assert_eq!(a.lookup(OpStamp { origin: 0, seq: 1 }), Some(&[1u8][..]));
        assert_eq!(a.lookup(OpStamp { origin: 4, seq: 7 }), Some(&[3u8][..]));
    }

    #[test]
    fn random_windows_round_trip() {
        let mut gen = Gen(23);
        for _ in 0..100 {
            let mut window = DedupWindow::new();
            for _ in 0..(gen.next() % 40) {
                let stamp = OpStamp {
                    origin: (gen.next() % 5) as u16,
                    seq: gen.next() % 64,
                };
                let reply: Vec<u8> = (0..(gen.next() % 8)).map(|i| i as u8).collect();
                window.record(stamp, reply);
            }
            assert_eq!(DedupWindow::from_bytes(&window.to_bytes()).unwrap(), window);
        }
    }
}
