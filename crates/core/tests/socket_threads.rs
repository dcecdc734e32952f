//! A socket cluster's threads end with it: once an `OrcaRuntime` over
//! loopback sockets is dropped, every thread it started — the transports'
//! accept, datagram and connection readers among them — has been joined.
//!
//! One test function on purpose. It reads the *process* thread count, and
//! `cargo test` runs the tests of one binary on parallel threads; alone in
//! its binary, nothing else starts or ends a thread while it counts.

use orca_core::objects::{IntObject, IntOp};
use orca_core::{standard_registry, OrcaConfig, OrcaRuntime, TransportConfig};
use orca_rts::WritePolicy;

/// Threads alive in this process, where the platform says (Linux).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
fn a_dropped_socket_runtime_leaves_no_thread_behind() {
    let configs = [
        OrcaConfig::broadcast(3),
        OrcaConfig::primary_copy(3, WritePolicy::Update),
        OrcaConfig::sharded(3, 3),
        OrcaConfig::adaptive(3),
    ];
    for config in configs {
        let kind = config.strategy.kind();
        let before = process_threads();
        let runtime = OrcaRuntime::start(
            config.with_transport(TransportConfig::SocketLoopback),
            standard_registry(),
        );
        let counter = runtime.context(0).create::<IntObject>(&0).expect("create");
        // A write from every node opens connections in every direction.
        for node in 0..3 {
            let ctx = runtime.context(node);
            ctx.invoke(counter, &IntOp::Add(1)).expect("add");
        }
        // The last writer's copy has applied every write (broadcast reads
        // are local, and another node's copy may lag).
        let total = runtime.context(2).invoke(counter, &IntOp::Value);
        assert_eq!(total.expect("read"), 3, "{kind:?}");
        drop(runtime);
        assert_eq!(
            process_threads(),
            before,
            "{kind:?}: threads outlive their cluster"
        );
    }
}
