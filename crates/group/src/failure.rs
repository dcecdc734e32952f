//! Heartbeat-based failure detection and epoch'd membership views.
//!
//! Every node runs one [`FailureDetector`]: a thread that periodically
//! broadcasts a heartbeat on the membership port and declares any node that
//! stays silent for [`FailureConfig::suspect_after`] heartbeat intervals
//! dead. The failure model is **fail-stop**: a node declared dead never
//! rejoins the view (the simulated kernel may un-crash its network for a
//! later experiment, but the membership machinery treats the declaration as
//! permanent — re-homed objects stay re-homed).
//!
//! Because every survivor observes the same silences, and the view
//! transition function is deterministic (remove the silent node, bump the
//! epoch), survivors converge on the same [`ViewSnapshot`] without running
//! an agreement protocol; the election rule of
//! [`orca_amoeba::election`] (lowest live node id) then yields the same
//! coordinator everywhere. Heartbeats ride the *unreliable* broadcast
//! primitive, so they are subject to fault injection like all group
//! traffic; [`FailureConfig::suspect_after`] trades detection latency
//! against false suspicions under message loss.
//!
//! Layers that need to *act* on a failure (the runtime systems' recovery
//! coordinators) register callbacks with [`FailureDetector::on_failure`];
//! callbacks run on the detector thread, so they must hand real work off to
//! their own threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orca_amoeba::election::Membership;
use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::{ports, NodeId};
use orca_wire::{RecoveryMsg, Wire};
use parking_lot::Mutex;

/// Tunables of the heartbeat failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureConfig {
    /// Interval between heartbeat broadcasts.
    pub heartbeat_every: Duration,
    /// Number of heartbeat intervals a node may stay silent before it is
    /// declared dead. Higher values tolerate more message loss at the cost
    /// of detection latency.
    pub suspect_after: u32,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            heartbeat_every: Duration::from_millis(50),
            suspect_after: 6,
        }
    }
}

impl FailureConfig {
    /// A fast-detecting configuration for tests (short intervals, few
    /// tolerated silences).
    pub fn fast() -> Self {
        FailureConfig {
            heartbeat_every: Duration::from_millis(20),
            suspect_after: 4,
        }
    }

    /// The silence after which a node is declared dead.
    pub fn silence_limit(&self) -> Duration {
        self.heartbeat_every * self.suspect_after.max(1)
    }
}

/// A point-in-time membership view: which nodes are alive, and how many
/// failures have been observed so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewSnapshot {
    /// Number of failures declared so far (0 = initial full view).
    pub epoch: u64,
    /// Nodes believed alive, in ascending id order.
    pub alive: Vec<NodeId>,
}

impl ViewSnapshot {
    /// The coordinator of this view: the lowest live node.
    pub fn coordinator(&self) -> Option<NodeId> {
        self.alive.first().copied()
    }

    /// True if `node` is alive in this view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.alive.binary_search(&node).is_ok()
    }
}

/// Callback invoked when a node is declared dead: `(dead node, view after
/// the declaration)`.
pub type FailureCallback = Box<dyn Fn(NodeId, ViewSnapshot) + Send + Sync>;

struct DetectorState {
    /// Last time a heartbeat (or the initial grace stamp) was seen, per
    /// node. `None` once the node has been declared dead — fail-stop means
    /// it can never be resurrected by a late heartbeat.
    last_heard: Vec<Option<Instant>>,
    epoch: u64,
}

struct Inner {
    node: NodeId,
    config: FailureConfig,
    membership: Membership,
    state: Mutex<DetectorState>,
    callbacks: Mutex<Vec<FailureCallback>>,
    stopped: AtomicBool,
}

/// A running heartbeat failure detector on one node.
///
/// Cheap to clone (all clones share the same detector); shut down with
/// [`FailureDetector::shutdown`] or by dropping the last clone.
pub struct FailureDetector {
    inner: Arc<Inner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureDetector")
            .field("node", &self.inner.node)
            .finish()
    }
}

impl FailureDetector {
    /// Start a failure detector on the node owning `handle`.
    pub fn start(handle: NetworkHandle, config: FailureConfig) -> Arc<FailureDetector> {
        let node = handle.node();
        let members = handle.node_ids();
        let now = Instant::now();
        let inner = Arc::new(Inner {
            node,
            config,
            membership: Membership::new(&members),
            state: Mutex::new(DetectorState {
                last_heard: vec![Some(now); members.len()],
                epoch: 0,
            }),
            callbacks: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
        });
        let thread_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name(format!("failure-detector-{node}"))
            .spawn(move || detector_loop(thread_inner, handle))
            .expect("spawn failure detector thread");
        Arc::new(FailureDetector {
            inner,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The node this detector runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The configuration the detector was started with.
    pub fn config(&self) -> FailureConfig {
        self.inner.config
    }

    /// Current membership view.
    pub fn view(&self) -> ViewSnapshot {
        ViewSnapshot {
            epoch: self.inner.state.lock().epoch,
            alive: self.inner.membership.alive(),
        }
    }

    /// Current membership epoch alone, without snapshotting the alive set.
    ///
    /// Lease validation checks the epoch on every leased local read, so this
    /// avoids cloning the membership vector on a path that must cost no more
    /// than the local apply itself.
    pub fn epoch(&self) -> u64 {
        self.inner.state.lock().epoch
    }

    /// True if `node` is currently believed alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.inner.membership.is_alive(node)
    }

    /// Register a callback invoked (on the detector thread) whenever a node
    /// is declared dead.
    pub fn on_failure(&self, callback: FailureCallback) {
        self.inner.callbacks.lock().push(callback);
    }

    /// Declare `node` dead immediately, without waiting for the silence
    /// limit (used when another layer has independent evidence of the
    /// crash, e.g. a reliable-transport RPC that went unanswered far beyond
    /// its deadline). Idempotent; fires callbacks like a detected failure.
    pub fn declare_dead(&self, node: NodeId) {
        declare_dead(&self.inner, node);
    }

    /// Stop the detector thread. Idempotent.
    pub fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

impl Drop for FailureDetector {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn detector_loop(inner: Arc<Inner>, handle: NetworkHandle) {
    let rx = handle.bind(ports::MEMBERSHIP);
    let mut last_beat = Instant::now() - inner.config.heartbeat_every;
    while !inner.stopped.load(Ordering::SeqCst) {
        // Send our own heartbeat when due.
        if last_beat.elapsed() >= inner.config.heartbeat_every {
            last_beat = Instant::now();
            let beat = RecoveryMsg::Heartbeat {
                node: inner.node.0,
                epoch: inner.state.lock().epoch,
            };
            let _ = handle.broadcast(ports::MEMBERSHIP, beat.to_bytes());
        }
        // Drain incoming heartbeats, waiting at most a fraction of the
        // interval so shutdown and sending stay prompt.
        let wait = inner.config.heartbeat_every / 4;
        if let Ok(msg) = rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            if let Ok(RecoveryMsg::Heartbeat { node, .. }) = RecoveryMsg::from_bytes(&msg.payload) {
                let mut state = inner.state.lock();
                if let Some(slot) = state.last_heard.get_mut(usize::from(node)) {
                    if slot.is_some() {
                        *slot = Some(Instant::now());
                    }
                    // A heartbeat from a node already declared dead is
                    // ignored: fail-stop views never resurrect members.
                }
            }
        }
        // Declare the silent dead.
        let silence_limit = inner.config.silence_limit();
        let silent: Vec<NodeId> = {
            let state = inner.state.lock();
            state
                .last_heard
                .iter()
                .enumerate()
                .filter_map(|(index, heard)| match heard {
                    Some(at)
                        if at.elapsed() > silence_limit && NodeId::from(index) != inner.node =>
                    {
                        Some(NodeId::from(index))
                    }
                    _ => None,
                })
                .collect()
        };
        for node in silent {
            declare_dead(&inner, node);
        }
    }
}

/// Mark `node` dead (once), bump the epoch, and fire callbacks.
fn declare_dead(inner: &Arc<Inner>, node: NodeId) {
    if node == inner.node {
        return;
    }
    let view = {
        let mut state = inner.state.lock();
        let Some(slot) = state.last_heard.get_mut(node.index()) else {
            return;
        };
        if slot.is_none() {
            return; // already declared
        }
        *slot = None;
        inner.membership.mark_failed(node);
        state.epoch += 1;
        ViewSnapshot {
            epoch: state.epoch,
            alive: inner.membership.alive(),
        }
    };
    let callbacks = inner.callbacks.lock();
    for callback in callbacks.iter() {
        callback(node, view.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::network::{Network, NetworkConfig};
    use orca_amoeba::FaultConfig;

    fn start_all(net: &Network, config: FailureConfig) -> Vec<Arc<FailureDetector>> {
        net.node_ids()
            .into_iter()
            .map(|n| FailureDetector::start(net.handle(n), config))
            .collect()
    }

    fn wait_for_epoch(detector: &FailureDetector, epoch: u64, deadline: Duration) -> ViewSnapshot {
        let until = Instant::now() + deadline;
        loop {
            let view = detector.view();
            if view.epoch >= epoch {
                return view;
            }
            assert!(Instant::now() < until, "epoch {epoch} never reached");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn silent_node_is_declared_dead_on_every_survivor() {
        let net = Network::reliable(3);
        let detectors = start_all(&net, FailureConfig::fast());
        std::thread::sleep(Duration::from_millis(50));
        for detector in &detectors {
            assert_eq!(detector.view().alive.len(), 3);
            assert_eq!(detector.view().epoch, 0);
        }
        net.crash(NodeId(2));
        for detector in &detectors[..2] {
            let view = wait_for_epoch(detector, 1, Duration::from_secs(5));
            assert_eq!(view.alive, vec![NodeId(0), NodeId(1)]);
            assert_eq!(view.coordinator(), Some(NodeId(0)));
            assert!(!detector.is_alive(NodeId(2)));
        }
        for detector in &detectors {
            detector.shutdown();
        }
    }

    #[test]
    fn callbacks_fire_once_per_failure() {
        let net = Network::reliable(2);
        let detectors = start_all(&net, FailureConfig::fast());
        let fired = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&fired);
        detectors[0].on_failure(Box::new(move |node, view| {
            sink.lock().push((node, view.epoch));
        }));
        net.crash(NodeId(1));
        wait_for_epoch(&detectors[0], 1, Duration::from_secs(5));
        // Give the detector time to (incorrectly) double-fire.
        std::thread::sleep(detectors[0].config().silence_limit() * 2);
        assert_eq!(fired.lock().as_slice(), &[(NodeId(1), 1)]);
        for detector in &detectors {
            detector.shutdown();
        }
    }

    #[test]
    fn detection_survives_message_loss() {
        // Heartbeats are droppable; a loss rate well under the silence
        // limit must not cause false suspicions, and a real crash must
        // still be detected.
        let fault = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.05,
            reorder_prob: 0.05,
            seed: 42,
        };
        let net = Network::new(NetworkConfig::with_fault(3, fault));
        let config = FailureConfig {
            heartbeat_every: Duration::from_millis(10),
            suspect_after: 12,
        };
        let detectors = start_all(&net, config);
        std::thread::sleep(config.silence_limit() * 2);
        for detector in &detectors {
            assert_eq!(detector.view().epoch, 0, "false suspicion under loss");
        }
        net.crash(NodeId(1));
        for detector in [&detectors[0], &detectors[2]] {
            let view = wait_for_epoch(detector, 1, Duration::from_secs(5));
            assert!(!view.contains(NodeId(1)));
        }
        for detector in &detectors {
            detector.shutdown();
        }
    }

    #[test]
    fn declare_dead_is_immediate_and_idempotent() {
        let net = Network::reliable(2);
        let detectors = start_all(&net, FailureConfig::default());
        detectors[0].declare_dead(NodeId(1));
        detectors[0].declare_dead(NodeId(1));
        let view = detectors[0].view();
        assert_eq!(view.epoch, 1);
        assert_eq!(view.alive, vec![NodeId(0)]);
        // Late heartbeats from the declared-dead node do not resurrect it.
        std::thread::sleep(detectors[0].config().heartbeat_every * 3);
        assert!(!detectors[0].is_alive(NodeId(1)));
        for detector in &detectors {
            detector.shutdown();
        }
    }
}
