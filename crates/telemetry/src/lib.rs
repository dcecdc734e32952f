//! Unified observability for the Orca reproduction: a metrics registry
//! with mergeable latency histograms, a per-node flight recorder of
//! protocol events, and causal invocation tracing — deterministic,
//! allocation-free on hot paths, and always on.
//!
//! One [`Telemetry`] instance is owned by the simulated network and shared
//! by every layer above it:
//!
//! * the **registry** ([`Registry`]) holds every counter of every layer
//!   (`net.*`, `transport.*`, `group.*`, `rts.*`) as a named handle behind
//!   a single `snapshot()` with JSON and text-table export, and hands out
//!   latency histograms with p50/p90/p99/p999 extraction;
//! * the **flight recorder** ([`flight::FlightRecorder`], one ring per
//!   node) retains the last few thousand protocol events — sends,
//!   deliveries, drops, crashes, elections, regime switches, re-homing
//!   phases, batch cuts — timestamped by a global logical clock so dumps
//!   are reproducible under the deterministic schedulers;
//! * **tracing** ([`trace`]) mints a compact [`TraceId`] per invocation,
//!   carries it in the wire vocabulary, and reconstructs span trees from
//!   flight dumps.
//!
//! Set `ORCA_FLIGHT_DUMP=1` to print the merged flight dump when a
//! [`Telemetry`] is dropped; invariant-checking code calls
//! [`Telemetry::dump_to_file`] on failure so the black box survives the
//! panic.

pub mod flight;
pub mod hist;
pub mod registry;
pub mod trace;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use hist::{Hist, HistSnapshot};
pub use orca_wire::TraceId;
pub use registry::{Counter, Gauge, HistHandle, Registry, RegistrySnapshot};
pub use trace::{render_spans, span_tree, Span};

/// The per-process observability hub: logical clock, metrics registry and
/// one flight recorder per simulated node.
#[derive(Debug)]
pub struct Telemetry {
    /// Global logical event counter; every flight event draws a unique,
    /// totally ordered timestamp from it. Deterministic schedulers make
    /// the draw order — and therefore dumps — reproducible.
    clock: AtomicU64,
    /// Per-origin invocation counters backing [`Telemetry::mint_trace`].
    trace_seq: Vec<AtomicU64>,
    registry: Registry,
    nodes: Vec<FlightRecorder>,
}

impl Telemetry {
    /// A hub for a simulation of `nodes` nodes.
    pub fn new(nodes: usize) -> Arc<Telemetry> {
        let t = Arc::new(Telemetry {
            clock: AtomicU64::new(0),
            trace_seq: (0..nodes.max(1)).map(|_| AtomicU64::new(0)).collect(),
            registry: Registry::new(),
            nodes: (0..nodes.max(1)).map(|_| FlightRecorder::new()).collect(),
        });
        set_last(&t);
        t
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Draw the next logical timestamp (also advances sim time for
    /// callers that only need ordering, not an event).
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Mint the next [`TraceId`] for an invocation entering at `origin`.
    pub fn mint_trace(&self, origin: u16) -> TraceId {
        let idx = (origin as usize) % self.trace_seq.len();
        TraceId::mint(origin, self.trace_seq[idx].fetch_add(1, Ordering::Relaxed))
    }

    /// Record one flight event on `node`, stamped with the next logical
    /// timestamp. Lock-free; safe from any thread.
    pub fn record(&self, node: u16, kind: FlightKind, trace: TraceId, a: u64, b: u64) {
        let recorder = &self.nodes[(node as usize) % self.nodes.len()];
        recorder.record(FlightEvent {
            t: self.tick(),
            node,
            kind,
            trace,
            a,
            b,
        });
    }

    /// Like [`Telemetry::record`] with the thread's current trace.
    pub fn record_traced(&self, node: u16, kind: FlightKind, a: u64, b: u64) {
        self.record(node, kind, trace::current(), a, b);
    }

    /// The merged flight dump: every retained event of every node, in
    /// logical-time order.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        let mut all = Vec::new();
        for recorder in &self.nodes {
            all.extend(recorder.events());
        }
        all.sort_by_key(|e| e.t);
        all
    }

    /// Render the merged flight dump plus per-invocation span trees — the
    /// "black box" text attached to invariant failures.
    pub fn flight_dump(&self) -> String {
        let events = self.flight_events();
        let mut out = format!("=== flight recorder: {} events ===\n", events.len());
        for e in &events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        let spans = span_tree(&events);
        if !spans.is_empty() {
            out.push_str(&format!("=== {} traced invocations ===\n", spans.len()));
            out.push_str(&render_spans(&spans));
        }
        out
    }

    /// Write the flight dump (and a metrics snapshot table) to
    /// `dir/<name>.flight.txt`, creating the directory if needed. The
    /// directory defaults to `target/flight`, overridable with
    /// `ORCA_FLIGHT_DIR`. Returns the path written, or the io error.
    pub fn dump_to_file(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var_os("ORCA_FLIGHT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target/flight"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.flight.txt"));
        let mut body = self.flight_dump();
        body.push_str("=== metrics ===\n");
        body.push_str(&self.registry.snapshot().to_table());
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if std::env::var("ORCA_FLIGHT_DUMP").as_deref() == Ok("1") {
            eprintln!("{}", self.flight_dump());
        }
    }
}

thread_local! {
    // The most recent Telemetry constructed on this thread, so layers
    // without a handle to the runtime (the model-checking engine observing
    // a violation, assertion helpers inside invariant checks) can reach
    // the flight recorder of the run they are part of. Thread-local, not
    // global: parallel test threads each see their own runtime's hub.
    static LAST: RefCell<Option<std::sync::Weak<Telemetry>>> = const { RefCell::new(None) };
}

fn set_last(t: &Arc<Telemetry>) {
    LAST.with(|last| *last.borrow_mut() = Some(Arc::downgrade(t)));
}

/// The most recently constructed [`Telemetry`] on this thread, if it is
/// still alive. This is how the model checker attaches flight dumps to
/// violations without threading a handle through every scenario.
pub fn last_on_thread() -> Option<Arc<Telemetry>> {
    LAST.with(|last| last.borrow().as_ref().and_then(std::sync::Weak::upgrade))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_orders_events_across_nodes() {
        let t = Telemetry::new(3);
        t.record(0, FlightKind::Send, TraceId::NONE, 1, 10);
        t.record(2, FlightKind::Deliver, TraceId::NONE, 0, 10);
        t.record(1, FlightKind::Send, TraceId::NONE, 2, 4);
        let events = t.flight_events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.node).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
        assert!(events.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn minting_is_per_origin_and_unique() {
        let t = Telemetry::new(2);
        let a0 = t.mint_trace(0);
        let a1 = t.mint_trace(0);
        let b0 = t.mint_trace(1);
        assert_eq!(a0, TraceId::mint(0, 0));
        assert_eq!(a1, TraceId::mint(0, 1));
        assert_eq!(b0, TraceId::mint(1, 0));
        assert!(a0 != b0);
    }

    #[test]
    fn dump_contains_events_and_spans() {
        let t = Telemetry::new(2);
        let id = t.mint_trace(0);
        t.record(0, FlightKind::InvokeStart, id, 7, 0);
        t.record(1, FlightKind::Apply, id, 7, 0);
        t.record(0, FlightKind::InvokeEnd, id, 7, 0);
        let dump = t.flight_dump();
        assert!(dump.contains("flight recorder: 3 events"));
        assert!(dump.contains("1 traced invocations"));
        assert!(dump.contains("invoke-start"));
        assert!(dump.contains("t0.0"));
    }

    #[test]
    fn last_on_thread_tracks_construction() {
        let t = Telemetry::new(1);
        let got = last_on_thread().expect("hub alive");
        assert!(Arc::ptr_eq(&t, &got));
        drop(got);
        drop(t);
        assert!(last_on_thread().is_none());
    }
}
