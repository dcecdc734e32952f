//! `orca-node` — one Orca cluster node per OS process.
//!
//! Launch the same binary N times with the same static peer list and the
//! processes form a live cluster over real TCP/UDP sockets: every node runs
//! the full runtime-system stack ([`orca_core::OrcaNodeRuntime`]), and with
//! recovery enabled the heartbeat failure detector prunes killed processes
//! from the membership and re-homes their objects onto survivors.
//!
//! Configuration comes from `KEY=VALUE` lines in an optional config file
//! (first CLI argument) with environment variables taking precedence:
//!
//! | key                  | meaning                                          |
//! |----------------------|--------------------------------------------------|
//! | `ORCA_NODE_ID`       | this process's node id (0-based, required)       |
//! | `ORCA_PEERS`         | comma-separated `host:port` list, one per node,  |
//! |                      | indexed by node id (required)                    |
//! | `ORCA_STRATEGY`      | `broadcast` \| `primary_update` \|               |
//! |                      | `primary_invalidate` \| `sharded[:P]` \|         |
//! |                      | `adaptive` (default `primary_update`)            |
//! | `ORCA_RECOVERY`      | `disabled` \| `enabled` \| `detect_only` \|      |
//! |                      | `fast` (default `disabled`)                      |
//! | `ORCA_WORKLOAD`      | `idle:<secs>` or `counter:<ops>` (default        |
//! |                      | `idle:5`)                                        |
//! | `ORCA_ACK_LOG`       | file that receives one flushed `ACK <n>` line    |
//! |                      | per acknowledged write (counter workload)        |
//!
//! The `counter` workload is the cluster conformance check used by
//! `tests/tcp_cluster.rs`: node 0 creates a shared integer, every node adds
//! 1 to it `ops` times (logging an `ACK` line after each acknowledged
//! write), then marks itself done in a per-node bit field of the same
//! counter and waits until every *live* node's field is set. The final line
//! `FINAL <value>` carries the counter value whose low 30 bits are the
//! surviving write count.

use std::fs::File;
use std::io::{BufRead, BufReader, LineWriter, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use orca_core::objects::{IntObject, IntOp};
use orca_core::{
    ObjectHandle, OrcaConfig, OrcaNodeRuntime, RecoveryConfig, RtsStrategy, SocketConfig,
};
use orca_object::ObjectId;

/// Bit position of node `n`'s 4-bit completion field in the shared counter.
/// The low [`COUNT_BITS`] bits hold the write count, so the layout supports
/// clusters of up to 8 nodes inside an `i64`.
const COUNT_BITS: u32 = 30;
const FIELD_BITS: u32 = 4;
const MAX_COUNTER_NODES: usize = 8;

/// How long [`invoke_until`] sleeps between attempts.
const RETRY_EVERY: Duration = Duration::from_millis(20);

/// How long a node of the counter workload stays up after it has seen
/// every live node finish. Its peers find that out on their own next poll,
/// up to [`RETRY_EVERY`] (plus a round trip) later, and that poll may need
/// this node — the counter's primary, if nobody else holds a copy. A node
/// that exited the moment *it* was done would turn its peers' last read
/// into a re-homing of an object without surviving copies.
const EXIT_GRACE: Duration = Duration::from_millis(500);

fn field_shift(node: usize) -> u32 {
    COUNT_BITS + FIELD_BITS * node as u32
}

/// A configuration key lookup: environment first, then the config file.
struct Settings {
    file: Vec<(String, String)>,
}

impl Settings {
    fn load() -> Result<Settings, String> {
        let mut file = Vec::new();
        if let Some(path) = std::env::args().nth(1) {
            let reader = BufReader::new(
                File::open(&path).map_err(|e| format!("cannot open config file {path}: {e}"))?,
            );
            for line in reader.lines() {
                let line = line.map_err(|e| format!("cannot read config file {path}: {e}"))?;
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let Some((key, value)) = line.split_once('=') else {
                    return Err(format!("config line without '=' in {path}: {line}"));
                };
                file.push((key.trim().to_string(), value.trim().to_string()));
            }
        }
        Ok(Settings { file })
    }

    fn get(&self, key: &str) -> Option<String> {
        if let Ok(value) = std::env::var(key) {
            return Some(value);
        }
        self.file
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn require(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .ok_or_else(|| format!("{key} must be set (environment or config file)"))
    }
}

fn parse_strategy(spec: &str) -> Result<RtsStrategy, String> {
    match spec {
        "broadcast" => Ok(RtsStrategy::broadcast()),
        "primary_update" => Ok(RtsStrategy::primary_update()),
        "primary_invalidate" => Ok(RtsStrategy::primary_invalidate()),
        "adaptive" => Ok(RtsStrategy::adaptive()),
        other => {
            if let Some(partitions) = other.strip_prefix("sharded") {
                let partitions = match partitions.strip_prefix(':') {
                    None if partitions.is_empty() => 4,
                    Some(p) => p
                        .parse()
                        .map_err(|_| format!("bad shard partition count in {other:?}"))?,
                    None => return Err(format!("unknown ORCA_STRATEGY {other:?}")),
                };
                Ok(RtsStrategy::sharded(partitions))
            } else {
                Err(format!("unknown ORCA_STRATEGY {other:?}"))
            }
        }
    }
}

fn parse_recovery(spec: &str) -> Result<RecoveryConfig, String> {
    match spec {
        "disabled" => Ok(RecoveryConfig::disabled()),
        "enabled" => Ok(RecoveryConfig::enabled()),
        "detect_only" => Ok(RecoveryConfig::detect_only()),
        "fast" => Ok(RecoveryConfig::fast()),
        other => Err(format!("unknown ORCA_RECOVERY {other:?}")),
    }
}

enum Workload {
    /// Stay up for the given duration, then exit (smoke / manual runs).
    Idle(Duration),
    /// The conformance counter workload with `ops` writes per node.
    Counter(u64),
}

fn parse_workload(spec: &str) -> Result<Workload, String> {
    match spec.split_once(':') {
        Some(("idle", secs)) => secs
            .parse()
            .map(|s| Workload::Idle(Duration::from_secs(s)))
            .map_err(|_| format!("bad idle duration in {spec:?}")),
        Some(("counter", ops)) => ops
            .parse()
            .map(Workload::Counter)
            .map_err(|_| format!("bad counter op count in {spec:?}")),
        _ => Err(format!("unknown ORCA_WORKLOAD {spec:?}")),
    }
}

fn main() {
    if let Err(message) = run() {
        eprintln!("orca-node: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let settings = Settings::load()?;
    let node: usize = settings
        .require("ORCA_NODE_ID")?
        .parse()
        .map_err(|_| "ORCA_NODE_ID must be a non-negative integer".to_string())?;
    let peers: Vec<SocketAddr> = settings
        .require("ORCA_PEERS")?
        .split(',')
        .map(|addr| {
            addr.trim()
                .parse()
                .map_err(|_| format!("bad peer address {addr:?} in ORCA_PEERS"))
        })
        .collect::<Result<_, _>>()?;
    if node >= peers.len() {
        return Err(format!(
            "ORCA_NODE_ID {node} out of range for {} peers",
            peers.len()
        ));
    }
    let strategy = parse_strategy(
        settings
            .get("ORCA_STRATEGY")
            .as_deref()
            .unwrap_or("primary_update"),
    )?;
    let recovery = parse_recovery(
        settings
            .get("ORCA_RECOVERY")
            .as_deref()
            .unwrap_or("disabled"),
    )?;
    let workload = parse_workload(settings.get("ORCA_WORKLOAD").as_deref().unwrap_or("idle:5"))?;

    let mut config = OrcaConfig::broadcast(peers.len())
        .with_recovery(recovery)
        .with_transport(orca_core::TransportConfig::SocketLoopback);
    config.strategy = strategy;
    let runtime = OrcaNodeRuntime::start(
        config,
        orca_core::standard_registry(),
        SocketConfig::new(orca_amoeba::NodeId(node as u16), peers),
    )
    .map_err(|e| format!("cannot start node {node}: {e}"))?;
    println!("READY node={node} peers={}", runtime.num_nodes());

    match workload {
        Workload::Idle(duration) => {
            std::thread::sleep(duration);
        }
        Workload::Counter(ops) => {
            let ack_log = settings.get("ORCA_ACK_LOG");
            run_counter_workload(&runtime, ops, ack_log.as_deref())?;
        }
    }
    runtime.shutdown();
    Ok(())
}

/// Retry an invocation until it succeeds or the deadline passes. Transient
/// errors (object not yet visible, primary mid-re-home, dropped frames
/// during peer startup) all surface as `Err` from `invoke` and are retried.
fn invoke_until<T>(
    deadline: Instant,
    what: &str,
    mut attempt: impl FnMut() -> orca_core::OrcaResult<T>,
) -> Result<T, String> {
    let mut last_err = None;
    while Instant::now() < deadline {
        match attempt() {
            Ok(value) => return Ok(value),
            Err(e) => last_err = Some(e),
        }
        std::thread::sleep(RETRY_EVERY);
    }
    Err(format!("timed out waiting for {what}: {last_err:?}"))
}

fn run_counter_workload(
    runtime: &OrcaNodeRuntime,
    ops: u64,
    ack_log: Option<&str>,
) -> Result<(), String> {
    let num_nodes = runtime.num_nodes();
    if num_nodes > MAX_COUNTER_NODES {
        return Err(format!(
            "counter workload supports at most {MAX_COUNTER_NODES} nodes, got {num_nodes}"
        ));
    }
    let ctx = runtime.node();
    let deadline = Instant::now() + Duration::from_secs(60);

    // Node 0 creates the shared counter; its id is deterministic (first
    // object created by node 0), so the other processes can reference it
    // without any out-of-band exchange. They probe with a read until the
    // object is reachable.
    let handle: ObjectHandle<IntObject> = if runtime.node_id().index() == 0 {
        invoke_until(deadline, "counter creation", || ctx.create::<IntObject>(&0))?
    } else {
        ObjectHandle::from_id(ObjectId::compose(0, 1))
    };
    invoke_until(deadline, "counter to become reachable", || {
        ctx.invoke(handle, &IntOp::Value)
    })?;

    let mut log: Option<LineWriter<File>> = match ack_log {
        Some(path) => Some(LineWriter::new(
            File::create(path).map_err(|e| format!("cannot create ack log {path}: {e}"))?,
        )),
        None => None,
    };

    // The write phase. Every `Add` that returns Ok has been applied by the
    // object's primary/sequencer, so once the ACK line is flushed the write
    // must be visible in the final counter value even if this process is
    // killed immediately afterwards. (A retried Add whose first attempt
    // did apply can inflate the count — the conformance check therefore
    // asserts `acked <= final`, not equality, when nodes are killed.)
    for i in 0..ops {
        invoke_until(deadline, "write acknowledgement", || {
            ctx.invoke(handle, &IntOp::Add(1))
        })?;
        if let Some(log) = log.as_mut() {
            writeln!(log, "ACK {i}").and_then(|()| log.flush()).ok();
        }
    }

    // Mark this node done in its private 4-bit field. A crash-retry can
    // apply the marker at most a handful of times, which the field width
    // absorbs; completion is "field >= 1", not "field == 1".
    let marker = 1i64 << field_shift(runtime.node_id().index());
    invoke_until(deadline, "completion marker", || {
        ctx.invoke(handle, &IntOp::Add(marker))
    })?;

    // Wait for every *live* node to finish. With recovery enabled the
    // failure detector's view shrinks when a peer is killed, so survivors
    // do not wait for the dead node's marker.
    let value = invoke_until(deadline, "all live nodes to finish", || {
        let value = ctx.invoke(handle, &IntOp::Value)?;
        let live: Vec<usize> = match runtime.membership_view() {
            Some(view) => view.alive.iter().map(|&n| n.index()).collect(),
            None => (0..num_nodes).collect(),
        };
        let all_done = live
            .iter()
            .all(|&n| (value >> field_shift(n)) & ((1 << FIELD_BITS) - 1) >= 1);
        if all_done {
            Ok(value)
        } else {
            Err(orca_core::OrcaError::Timeout)
        }
    })?;
    println!("FINAL {value}");
    std::thread::sleep(EXIT_GRACE);
    Ok(())
}

// Re-exported so the config-parsing helpers are unit-testable without
// spawning sockets.
#[cfg(test)]
mod tests {
    use super::*;
    use orca_rts::RtsKind;

    #[test]
    fn strategy_specs_parse() {
        let kind = |spec| parse_strategy(spec).unwrap().kind();
        assert_eq!(kind("broadcast"), RtsKind::Broadcast);
        assert_eq!(kind("primary_update"), RtsKind::PrimaryUpdate);
        assert_eq!(kind("primary_invalidate"), RtsKind::PrimaryInvalidate);
        assert_eq!(kind("adaptive"), RtsKind::Adaptive);
        assert_eq!(kind("sharded:8"), RtsKind::Sharded);
        assert_eq!(kind("sharded"), RtsKind::Sharded);
        let partitions = |spec| {
            parse_strategy(spec)
                .unwrap()
                .adaptive_policy()
                .unwrap()
                .partitions
        };
        assert_eq!(partitions("sharded:8"), 8);
        assert_eq!(partitions("sharded"), 4);
        assert!(parse_strategy("bogus").is_err());
        assert!(parse_strategy("sharded:x").is_err());
    }

    #[test]
    fn recovery_and_workload_specs_parse() {
        assert!(parse_recovery("fast").unwrap().enabled);
        assert!(!parse_recovery("disabled").unwrap().enabled);
        assert!(parse_recovery("sometimes").is_err());
        assert!(matches!(
            parse_workload("counter:100").unwrap(),
            Workload::Counter(100)
        ));
        assert!(matches!(
            parse_workload("idle:3").unwrap(),
            Workload::Idle(_)
        ));
        assert!(parse_workload("counter").is_err());
    }

    #[test]
    fn completion_fields_fit_an_i64() {
        let top = field_shift(MAX_COUNTER_NODES - 1) + FIELD_BITS;
        assert!(top <= 63, "field layout overflows i64: {top}");
    }
}
