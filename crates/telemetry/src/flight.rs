//! The flight recorder: a fixed-size per-node ring buffer of structured
//! protocol events, timestamped in deterministic sim time.
//!
//! Every node of the simulated network gets one [`FlightRecorder`]. An
//! event is five words — sim-time, node + kind, trace id, two argument
//! words: a `fetch_add` on the write cursor claims a slot, the slot's
//! contents are published under a per-slot sequence word (a seqlock), and
//! readers that race a writer simply skip the slot being overwritten. The
//! ring is [`CHUNKS`] chunks of slots, each allocated the first time a
//! record lands in it — a cluster starts without faulting in memory its
//! quiet nodes never write. That first record allocates the chunk on the
//! protocol thread, and a recorder racing it into the same chunk waits for
//! the allocation; after that, recording into the chunk is lock-free and
//! never allocates. It is safe to leave on in every test and benchmark;
//! when an invariant fires, the last
//! `CAPACITY` events per node are the black box that explains how the
//! system got there.
//!
//! Timestamps come from the owning [`crate::Telemetry`]'s logical clock —
//! a global event counter, not wall time — so under the model checker's
//! deterministic scheduler two replays of one schedule produce identical
//! event streams.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use orca_wire::TraceId;

/// Events per node the recorder retains (a power of two; older events are
/// overwritten).
pub const CAPACITY: usize = 4096;

/// Chunks of the ring, each `CAPACITY / CHUNKS` slots, allocated on first
/// use.
pub const CHUNKS: usize = 16;

/// Slots per chunk.
const CHUNK: usize = CAPACITY / CHUNKS;

/// What happened. Kept small and closed: every variant is a protocol-level
/// event some debugging session has wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A message left this node (`a` = destination, `u64::MAX` for a
    /// broadcast; `b` = wire bytes).
    Send = 0,
    /// A message was delivered to this node (`a` = source, `b` = bytes).
    Deliver = 1,
    /// This node discarded a message copy: one it could not send (`a` =
    /// destination) or one lost on its way here or on arrival (`a` =
    /// source); `b` = bytes.
    Drop = 2,
    /// This node crashed (fail-stop).
    Crash = 3,
    /// This node recovered (rejoined after a simulated crash).
    Recover = 4,
    /// A group-membership election concluded here (`a` = elected node,
    /// `b` = era/epoch).
    Election = 5,
    /// The adaptive RTS switched an object's regime at this (home) node
    /// (`a` = raw object id, `b` = new epoch).
    RegimeSwitch = 6,
    /// A crash-recovery re-homing phase ran here (`a` = phase:
    /// 0 = detect, 1 = coordinate, 2 = re-home; `b` = view epoch).
    RehomePhase = 7,
    /// The async pipeline cut a batch here (`a` = operations in the
    /// batch, `b` = flush reason: 0 = size, 1 = delay, 2 = shutdown).
    BatchCut = 8,
    /// An invocation entered the runtime system at this node
    /// (`a` = raw object id).
    InvokeStart = 9,
    /// The invocation completed at its origin (`a` = raw object id,
    /// `b` = outcome: 0 = ok, 1 = error).
    InvokeEnd = 10,
    /// An operation was applied to a replica at this node
    /// (`a` = raw object id).
    Apply = 11,
}

impl FlightKind {
    fn from_u8(raw: u8) -> Option<FlightKind> {
        use FlightKind::*;
        Some(match raw {
            0 => Send,
            1 => Deliver,
            2 => Drop,
            3 => Crash,
            4 => Recover,
            5 => Election,
            6 => RegimeSwitch,
            7 => RehomePhase,
            8 => BatchCut,
            9 => InvokeStart,
            10 => InvokeEnd,
            11 => Apply,
            _ => return None,
        })
    }

    /// Stable lowercase name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Send => "send",
            FlightKind::Deliver => "deliver",
            FlightKind::Drop => "drop",
            FlightKind::Crash => "crash",
            FlightKind::Recover => "recover",
            FlightKind::Election => "election",
            FlightKind::RegimeSwitch => "regime-switch",
            FlightKind::RehomePhase => "rehome-phase",
            FlightKind::BatchCut => "batch-cut",
            FlightKind::InvokeStart => "invoke-start",
            FlightKind::InvokeEnd => "invoke-end",
            FlightKind::Apply => "apply",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Sim-time (global logical event counter) at which it happened.
    pub t: u64,
    /// Node it happened on.
    pub node: u16,
    /// What happened.
    pub kind: FlightKind,
    /// Causal trace of the invocation it belongs to (NONE for background
    /// protocol work).
    pub trace: TraceId,
    /// Kind-specific argument (see [`FlightKind`]).
    pub a: u64,
    /// Kind-specific argument (see [`FlightKind`]).
    pub b: u64,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>8}] n{:<2} {:<13} trace={:<10} a={} b={}",
            self.t,
            self.node,
            self.kind.name(),
            self.trace.to_string(),
            self.a,
            self.b
        )
    }
}

/// One slot of the ring: a seqlock word plus the event payload.
///
/// The sequence word is even when the slot is stable and odd while a
/// writer is mid-publish; a reader retries (here: skips) a slot whose
/// sequence changed under it. It is 0 only in a slot never written.
struct Slot {
    seq: AtomicU64,
    t: AtomicU64,
    node_kind: AtomicU64,
    trace: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            t: AtomicU64::new(0),
            node_kind: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Fixed-capacity ring buffer of [`FlightEvent`]s for one node, its chunks
/// allocated on first use.
pub struct FlightRecorder {
    chunks: [OnceLock<Box<[Slot]>>; CHUNKS],
    cursor: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .field("capacity", &CAPACITY)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An empty recorder with the default [`CAPACITY`]; no chunk is
    /// allocated yet.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            cursor: AtomicU64::new(0),
        }
    }

    /// Total events ever recorded (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record one event: claims a slot with one `fetch_add` and publishes
    /// under the slot's sequence word. The first record in a chunk allocates
    /// it, and a record racing that one into the chunk waits for it; every
    /// other record is lock-free.
    pub fn record(&self, event: FlightEvent) {
        let claim = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % CAPACITY;
        let chunk =
            self.chunks[claim / CHUNK].get_or_init(|| (0..CHUNK).map(|_| Slot::new()).collect());
        let slot = &chunk[claim % CHUNK];
        // Odd sequence = write in progress. Two writers lapping each other
        // on one slot is only possible after CAPACITY interleaving records;
        // the second writer's values win, which is the ring semantics.
        let seq = slot.seq.fetch_add(1, Ordering::Acquire);
        slot.t.store(event.t, Ordering::Relaxed);
        slot.node_kind.store(
            (u64::from(event.node) << 8) | event.kind as u64,
            Ordering::Relaxed,
        );
        slot.trace.store(event.trace.0, Ordering::Relaxed);
        slot.a.store(event.a, Ordering::Relaxed);
        slot.b.store(event.b, Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(2) & !1, Ordering::Release);
    }

    /// The retained events, oldest first (by the slot's recorded sim
    /// time). Slots being concurrently rewritten, never written or in a
    /// chunk never allocated are skipped.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for slot in self
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|c| c.iter())
        {
            let before = slot.seq.load(Ordering::Acquire);
            if before & 1 == 1 || before == 0 {
                continue; // mid-write, or never written
            }
            let node_kind = slot.node_kind.load(Ordering::Relaxed);
            let event = FlightEvent {
                t: slot.t.load(Ordering::Relaxed),
                node: (node_kind >> 8) as u16,
                kind: match FlightKind::from_u8((node_kind & 0xff) as u8) {
                    Some(kind) => kind,
                    None => continue,
                },
                trace: TraceId(slot.trace.load(Ordering::Relaxed)),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // rewritten under us
            }
            out.push(event);
        }
        out.sort_by_key(|e| e.t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            t,
            node: 1,
            kind,
            trace: TraceId::mint(1, t),
            a: t * 10,
            b: 7,
        }
    }

    #[test]
    fn records_and_reads_back_in_time_order() {
        let rec = FlightRecorder::new();
        rec.record(ev(3, FlightKind::Deliver));
        rec.record(ev(1, FlightKind::Send));
        rec.record(ev(2, FlightKind::Drop));
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.t).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(events[0].kind, FlightKind::Send);
        assert_eq!(events[0].trace, TraceId::mint(1, 1));
        assert_eq!(events[0].a, 10);
    }

    #[test]
    fn wraparound_keeps_the_newest_capacity_events() {
        let rec = FlightRecorder::new();
        let total = CAPACITY as u64 + 100;
        for t in 0..total {
            rec.record(ev(t, FlightKind::Apply));
        }
        assert_eq!(rec.recorded(), total);
        let events = rec.events();
        assert_eq!(events.len(), CAPACITY);
        // The oldest 100 events were overwritten.
        assert_eq!(events.first().unwrap().t, 100);
        assert_eq!(events.last().unwrap().t, total - 1);
    }

    #[test]
    fn a_chunk_is_allocated_when_a_record_first_lands_in_it() {
        let rec = FlightRecorder::new();
        let allocated =
            |rec: &FlightRecorder| rec.chunks.iter().filter(|c| c.get().is_some()).count();
        assert_eq!((allocated(&rec), rec.events().len()), (0, 0));
        for t in 0..=CHUNK as u64 {
            rec.record(ev(t, FlightKind::Send));
        }
        assert_eq!((allocated(&rec), rec.events().len()), (2, CHUNK + 1));
    }

    #[test]
    fn every_kind_round_trips_through_the_packed_word() {
        for raw in 0..=11u8 {
            let kind = FlightKind::from_u8(raw).unwrap();
            assert_eq!(kind as u8, raw);
            assert!(!kind.name().is_empty());
            let rec = FlightRecorder::new();
            rec.record(FlightEvent {
                t: 5,
                node: 65535,
                kind,
                trace: TraceId::NONE,
                a: u64::MAX,
                b: 0,
            });
            let events = rec.events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].kind, kind);
            assert_eq!(events[0].node, 65535);
        }
        assert_eq!(FlightKind::from_u8(200), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing_when_under_capacity() {
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|worker| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..(CAPACITY / 8) as u64 {
                        rec.record(FlightEvent {
                            t: worker * 1_000_000 + i,
                            node: worker as u16,
                            kind: FlightKind::Send,
                            trace: TraceId::NONE,
                            a: i,
                            b: 0,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 4 * CAPACITY/8 = CAPACITY/2 events, no wraparound: all retained.
        assert_eq!(rec.events().len(), CAPACITY / 2);
    }
}
