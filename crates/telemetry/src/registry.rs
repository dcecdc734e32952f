//! The metrics registry: named counters, gauges and histograms behind one
//! `snapshot()`, with JSON and text-table export.
//!
//! Every number in the system is a handle created through
//! [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`];
//! recording is an atomic op on a shared `Arc`, so handles are cheap to
//! clone into hot paths, and two handles of one name share one value. Each
//! layer resolves its handles once, when it starts, from the registry of
//! the network it runs on, so `Registry::snapshot()` is the one place every
//! number can be read from. The per-node counter sets, declared with
//! [`counter_set!`](crate::counter_set) (`<i>` is the node index):
//!
//! * `net.node<i>.*` — messages, bytes, packets, interrupts and drops
//!   (`orca_amoeba::NetStats`);
//! * `transport.node<i>.*` — the socket layer's frames, datagrams,
//!   connections and decode errors;
//! * `group.node<i>.*` — the group protocol's PB/BB sends, deliveries and
//!   retransmissions (`orca_group::GroupStats`);
//! * `rts.node<i>.*` — what a runtime system did for the application
//!   (`orca_rts::RtsStats`).
//!
//! Metric names are dotted paths (`net.node3.p2p_sent`,
//! `rts.invoke.sync_ns`); the exports sort them, so related metrics group
//! together without any registry-side hierarchy.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::{Hist, HistSnapshot};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle (see [`crate::hist::Hist`]).
pub type HistHandle = Arc<Hist>;

/// Declare a set of counters published under one registry prefix, naming
/// each field once: a struct of [`Counter`] handles whose `new(registry,
/// prefix)` resolves every field as `<prefix>.<field>`, and a plain
/// snapshot struct of the same fields that `snapshot()` fills in.
///
/// ```
/// orca_telemetry::counter_set! {
///     /// Live counters.
///     pub struct Stats => StatsSnapshot {
///         /// Messages sent.
///         sent,
///     }
/// }
/// let registry = orca_telemetry::Registry::new();
/// Stats::new(&registry, "net.node0").sent.inc();
/// assert_eq!(registry.counter("net.node0.sent").get(), 1);
/// assert_eq!(Stats::new(&registry, "net.node0").snapshot().sent, 1);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $live:ident => $snap:ident {
            $( $(#[$doc:meta])* $field:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $live {
            $( $(#[$doc])* pub $field: $crate::Counter, )*
        }

        impl $live {
            /// Resolve every counter of the set as `<prefix>.<field>`.
            pub fn new(registry: &$crate::Registry, prefix: &str) -> $live {
                $live {
                    $( $field: registry.counter(&format!("{prefix}.{}", stringify!($field))), )*
                }
            }

            /// Point-in-time snapshot.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.get(), )* }
            }
        }

        #[doc = concat!("Point-in-time copy of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $( $(#[$doc])* pub $field: u64, )*
        }
    };
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, HistHandle>,
}

/// The metrics registry. Cheap to clone (shared interior).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("hists", &inner.hists.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistHandle {
        let mut inner = self.inner.lock();
        Arc::clone(inner.hists.entry(name.to_string()).or_default())
    }

    /// One consistent-enough view of every metric in the system.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        let mut snap = RegistrySnapshot::default();
        for (name, counter) in &inner.counters {
            snap.counters.insert(name.clone(), counter.get());
        }
        for (name, gauge) in &inner.gauges {
            snap.gauges.insert(name.clone(), gauge.get());
        }
        for (name, hist) in &inner.hists {
            snap.hists.insert(name.clone(), hist.snapshot());
        }
        snap
    }
}

/// An immutable view of every metric at one point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl RegistrySnapshot {
    /// Serialize as JSON (hand-rolled: the workspace has no JSON
    /// dependency). Histograms export count/sum/max/mean plus the p50,
    /// p90, p99 and p999 ranks.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v))
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str("},\n  \"gauges\": {");
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v))
            .collect();
        out.push_str(&gauges.join(", "));
        out.push_str("},\n  \"histograms\": {\n");
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                format!(
                    "    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                    json_escape(k),
                    h.count,
                    h.sum,
                    h.max,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999()
                )
            })
            .collect();
        out.push_str(&hists.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Render as an aligned text table for terminals and panic messages.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.hists.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str(&format!(
                "histograms: {:<w$}  {:>9} {:>12} {:>12} {:>12} {:>12}\n",
                "",
                "count",
                "p50",
                "p90",
                "p99",
                "p999",
                w = width.saturating_sub(10)
            ));
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "  {name:<width$}  {:>9} {:>12} {:>12} {:>12} {:>12}\n",
                    h.count,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let reg = Registry::new();
        let a = reg.counter("ops");
        let b = reg.counter("ops");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("ops").get(), 3);
        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("depth").get(), 3);
        let h = reg.histogram("lat");
        h.record(10);
        assert_eq!(reg.histogram("lat").count(), 1);
    }

    #[test]
    fn exports_are_well_formed() {
        let reg = Registry::new();
        reg.counter("a.b").inc();
        reg.gauge("g \"quoted\"").set(-1);
        let h = reg.histogram("lat.ns");
        for v in [5u64, 50, 500] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"p999\":"));
        assert!(json.contains("\"count\": 3"));
        let table = snap.to_table();
        assert!(table.contains("counters:"));
        assert!(table.contains("lat.ns"));
    }
}
