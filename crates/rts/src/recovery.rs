//! Crash-recovery configuration shared by the runtime systems.
//!
//! Every runtime system can be started *recoverable*
//! (`start_recoverable`): a heartbeat [`FailureDetector`]
//! (`orca-group::failure`) watches the membership, and when a node is
//! declared dead the backend runs its re-homing protocol so the dead
//! node's objects keep being served by survivors:
//!
//! * **Adaptive** — and **primary copy** and **sharded**, which are the
//!   adaptive runtime with its regime pinned to replicated and to sharded —
//!   every sharded-regime partition keeps a mirror on a
//!   second node (the owner pushes each completed write to it
//!   before acknowledging); a dead owner's partitions are re-owned by
//!   promoting those, and a dead *home* node's regime table is
//!   rebuilt by the lowest live node from what the survivors hold. A
//!   replicated-regime object — a primary copy — keeps serving where it is
//!   while its owner lives and is regenerated from the freshest surviving
//!   read mirror when it does not — from its first evaluation on it has
//!   one, on the next live node if nobody reads it; an object its creator
//!   took along before that is *lost* with its node
//!   ([`crate::RtsError::ObjectLost`]).
//! * **Broadcast** — needs no per-object re-homing at all: every replica
//!   is everywhere, and a dead *sequencer* is handled inside the group
//!   layer by election + history replay.
//!
//! With [`RecoveryConfig::rehome`] disabled (see
//! [`RecoveryConfig::detect_only`]) the detector still runs and
//! operations aimed at a dead node fail fast with
//! [`crate::RtsError::NodeDown`] instead of waiting out the full
//! operation deadline — the distinguishable "killed, not slow" error.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::Port;
use orca_amoeba::rpc::{rpc_call_abortable, RpcError};
use orca_amoeba::NodeId;
use orca_group::{FailureConfig, FailureDetector, ViewSnapshot};

use crate::RtsError;

/// Knobs of the crash-recovery subsystem (surfaced as
/// `OrcaConfig::recovery` in `orca-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Master switch: when false, no failure detector runs, no partition
    /// keeps a mirror, and node failures surface as plain timeouts (the
    /// pre-recovery behavior).
    pub enabled: bool,
    /// When true, objects orphaned by a failure are re-homed onto
    /// survivors; when false the detector only provides fail-fast
    /// [`crate::RtsError::NodeDown`] errors.
    pub rehome: bool,
    /// Heartbeat interval of the failure detector.
    pub heartbeat_every: Duration,
    /// Heartbeat intervals of silence before a node is declared dead.
    pub suspect_after: u32,
    /// Per-attempt cap on RPCs while recovery is enabled: a call to a node
    /// that has (or may have) died is re-tried in slices of this length so
    /// the caller re-checks the membership view between attempts instead
    /// of sleeping through its whole deadline on a corpse.
    pub attempt_timeout: Duration,
    /// How long an invocation blocked on a dead node waits for the
    /// re-homing protocol to publish a new home before giving up with
    /// [`crate::RtsError::NodeDown`].
    pub rehome_wait: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::disabled()
    }
}

impl RecoveryConfig {
    /// Recovery switched off entirely (the default; zero overhead).
    pub fn disabled() -> Self {
        RecoveryConfig {
            enabled: false,
            rehome: false,
            heartbeat_every: Duration::from_millis(50),
            suspect_after: 6,
            attempt_timeout: Duration::from_secs(1),
            rehome_wait: Duration::from_secs(5),
        }
    }

    /// Full recovery with default timing.
    pub fn enabled() -> Self {
        RecoveryConfig {
            enabled: true,
            rehome: true,
            ..RecoveryConfig::disabled()
        }
    }

    /// Failure detection only: operations aimed at a dead node fail fast
    /// with [`crate::RtsError::NodeDown`], but nothing is re-homed.
    pub fn detect_only() -> Self {
        RecoveryConfig {
            enabled: true,
            rehome: false,
            ..RecoveryConfig::disabled()
        }
    }

    /// Full recovery with aggressive timing for tests (fast heartbeats,
    /// short attempt slices).
    pub fn fast() -> Self {
        RecoveryConfig {
            enabled: true,
            rehome: true,
            heartbeat_every: Duration::from_millis(20),
            suspect_after: 4,
            attempt_timeout: Duration::from_millis(250),
            rehome_wait: Duration::from_secs(10),
        }
    }

    /// The failure-detector configuration these knobs describe.
    pub fn failure_config(&self) -> FailureConfig {
        FailureConfig {
            heartbeat_every: self.heartbeat_every,
            suspect_after: self.suspect_after,
        }
    }
}

/// The node that adopts the home/coordination role of `creator` once it is
/// dead: the lowest live node of the view. Deterministic given the view,
/// so every survivor redirects to the same adopter without coordination.
pub fn recovery_home(view: &ViewSnapshot) -> Option<NodeId> {
    view.coordinator()
}

/// Resolve the failure detector a recoverable backend should run with:
/// the shared one when the caller provided it, a freshly started one when
/// recovery is enabled but none was passed, none otherwise.
pub fn ensure_detector(
    handle: &NetworkHandle,
    recovery: &RecoveryConfig,
    detector: Option<Arc<FailureDetector>>,
) -> Option<Arc<FailureDetector>> {
    match (detector, recovery.enabled) {
        (Some(detector), true) => Some(detector),
        (None, true) => Some(FailureDetector::start(
            handle.clone(),
            recovery.failure_config(),
        )),
        _ => None,
    }
}

/// True when `detector` is present and declares `node` dead.
pub fn is_dead(detector: &Option<Arc<FailureDetector>>, node: NodeId) -> bool {
    detector
        .as_ref()
        .map(|d| !d.is_alive(node))
        .unwrap_or(false)
}

/// Recovery-aware RPC: refuses to call a node already declared dead
/// ([`RtsError::NodeDown`]), sends the request exactly once, and — while
/// waiting for the reply — re-checks the failure detector every
/// [`RecoveryConfig::attempt_timeout`] so the caller stops waiting on a
/// corpse as soon as it is declared, instead of sleeping out the full
/// deadline. Without a detector this degrades to a plain deadline-bounded
/// call.
pub fn recovery_rpc(
    handle: &NetworkHandle,
    detector: &Option<Arc<FailureDetector>>,
    recovery: &RecoveryConfig,
    dst: NodeId,
    port: Port,
    body: &[u8],
    deadline: Instant,
) -> Result<Vec<u8>, RtsError> {
    if is_dead(detector, dst) {
        return Err(RtsError::NodeDown(dst));
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(RtsError::Timeout);
    }
    let poll = if recovery.enabled && detector.is_some() {
        recovery.attempt_timeout.min(remaining)
    } else {
        remaining
    };
    let dead = || is_dead(detector, dst);
    match rpc_call_abortable(handle, dst, port, body, remaining, poll, &dead) {
        Ok(bytes) => Ok(bytes),
        Err(RpcError::Aborted) => Err(RtsError::NodeDown(dst)),
        Err(RpcError::Timeout) => Err(if dead() {
            RtsError::NodeDown(dst)
        } else {
            RtsError::Timeout
        }),
        Err(other) => Err(RtsError::Communication(other.to_string())),
    }
}

/// [`RecoveryConfig::fast`] for this crate's unit tests, which run a hundred
/// at a time on whatever cores there are: 300 ms of silence before a node
/// is declared dead, the limit `tests/recovery.rs` settled on. At `fast`'s
/// 80 ms a starved heartbeat thread gets a live node declared dead —
/// which fail-stop membership cannot take back, and which reads as
/// `ObjectLost` somewhere else three calls later.
#[cfg(test)]
pub(crate) fn patient() -> RecoveryConfig {
    RecoveryConfig {
        suspect_after: 15,
        ..RecoveryConfig::fast()
    }
}

/// Wait until the view of every surviving node has dropped exactly the
/// `killed` nodes. Panics, naming both, when a node is missing from a view
/// without having been killed: on a loaded machine a detector can declare a
/// live node dead, and a test that goes on after that fails somewhere else.
#[cfg(test)]
pub(crate) fn wait_for_deaths(
    num_nodes: usize,
    killed: &[NodeId],
    view_of: &dyn Fn(NodeId) -> Option<ViewSnapshot>,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let nodes = || (0..num_nodes).map(NodeId::from);
    loop {
        let mut detected = true;
        for survivor in nodes().filter(|node| !killed.contains(node)) {
            let view = view_of(survivor).expect("recovery enabled");
            for node in nodes().filter(|node| !view.contains(*node)) {
                assert!(killed.contains(&node), "{survivor} suspects live {node}");
            }
            detected &= killed.iter().all(|node| !view.contains(*node));
        }
        if detected {
            return;
        }
        assert!(Instant::now() < deadline, "failure never detected");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        assert!(!RecoveryConfig::disabled().enabled);
        assert!(RecoveryConfig::enabled().rehome);
        let detect = RecoveryConfig::detect_only();
        assert!(detect.enabled && !detect.rehome);
        let fast = RecoveryConfig::fast();
        assert!(fast.enabled && fast.rehome);
        assert!(fast.failure_config().heartbeat_every <= Duration::from_millis(20));
    }

    #[test]
    fn ensure_detector_only_when_enabled() {
        let net = orca_amoeba::network::Network::reliable(2);
        assert!(
            ensure_detector(&net.handle(NodeId(0)), &RecoveryConfig::disabled(), None).is_none()
        );
        let started = ensure_detector(&net.handle(NodeId(0)), &RecoveryConfig::detect_only(), None);
        assert!(started.is_some());
        let shared = ensure_detector(
            &net.handle(NodeId(1)),
            &RecoveryConfig::detect_only(),
            started.clone(),
        );
        assert!(Arc::ptr_eq(
            started.as_ref().unwrap(),
            shared.as_ref().unwrap()
        ));
    }
}
