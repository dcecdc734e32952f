//! The RPC layer's thread census: a service keeps the workers it has, and
//! has only as many as its handlers ever ran at once.
//!
//! One test function on purpose. It reads the *process* thread count, and
//! `cargo test` runs the tests of one binary on parallel threads; alone in
//! its binary, nothing else starts or ends a thread while it counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::network::{Network, NetworkHandle};
use orca_amoeba::node::{ports, NodeId};
use orca_amoeba::rpc::{rpc_call, workers_gauge, RpcServer, WORKERS_SPAWNED};
use orca_amoeba::transport::SocketTransport;

const SERVICE: u64 = ports::USER_BASE + 60;
const CALLS: u32 = 10_000;

/// Threads alive in this process, where the platform says (Linux).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// Run `scenario(client_handle, server_handle)` on both backends. The
/// socket cluster's own threads (accept, datagram and connection readers)
/// end a moment after it is dropped; wait them out, so the next scenario
/// counts from a quiet process.
fn both_backends(scenario: impl Fn(NetworkHandle, NetworkHandle)) {
    let net = Network::reliable(2);
    scenario(net.handle(NodeId(0)), net.handle(NodeId(1)));

    let quiet = process_threads();
    let transports = SocketTransport::start_loopback_cluster(2).expect("loopback cluster");
    let handle = |i: usize| {
        NetworkHandle::from_transport(Arc::clone(&transports[i]) as Arc<dyn orca_amoeba::Transport>)
    };
    scenario(handle(0), handle(1));
    drop(transports);
    let deadline = Instant::now() + Duration::from_secs(10);
    while process_threads() > quiet {
        assert!(Instant::now() < deadline, "socket cluster threads linger");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn echo(body: &[u8], _src: NodeId) -> Vec<u8> {
    body.to_vec()
}

type Serve = fn(NetworkHandle) -> RpcServer;

/// Ten thousand calls, one after the other, cost a service no thread
/// beyond the ones its first call left it with.
fn sequential_calls_start_no_threads() {
    let flavours: [(&str, Serve); 2] = [
        ("serve_concurrent", |h| {
            RpcServer::serve_concurrent(h, SERVICE, echo)
        }),
        ("serve_pooled", |h| {
            RpcServer::serve_pooled(h, SERVICE, echo, 2)
        }),
    ];
    for (name, serve) in flavours {
        both_backends(|client, server| {
            let registry = server.telemetry().registry().clone();
            let rpc_server = serve(server);
            let call = |i: u32| {
                let body = i.to_le_bytes().to_vec();
                assert_eq!(
                    rpc_call(&client, NodeId(1), SERVICE, body.clone()),
                    Ok(body)
                );
            };
            // The first call opens the connections (and their reader
            // threads, on sockets) and lets the service grow to its size.
            call(0);
            let after_first = process_threads();
            for i in 1..CALLS {
                call(i);
            }
            assert_eq!(process_threads(), after_first, "{name}: thread count moved");
            let spawned = registry.counter(WORKERS_SPAWNED).get();
            assert!(
                (1..=2).contains(&spawned),
                "{name}: {spawned} workers for sequential calls"
            );
            let alive = registry.gauge(&workers_gauge(NodeId(1)));
            assert_eq!(alive.get() as u64, spawned, "{name}: workers never retire");
            rpc_server.shutdown();
            assert_eq!(alive.get(), 0, "{name}: shutdown joined every worker");
        });
    }
}

/// A handler that calls back into its own service, five levels deep,
/// completes on a service started with a single worker: whoever takes a
/// request leaves someone listening.
fn a_service_started_with_one_worker_serves_nested_calls_into_itself() {
    both_backends(|client, server| {
        let registry = server.telemetry().registry().clone();
        let own = server.clone();
        let rpc_server = RpcServer::serve_pooled(
            server,
            SERVICE,
            move |body, _src| match body[0] {
                0 => vec![0],
                depth => {
                    let mut below = rpc_call(&own, NodeId(1), SERVICE, vec![depth - 1])
                        .expect("nested call into the own service");
                    below.push(depth);
                    below
                }
            },
            1,
        );
        let reply = rpc_call(&client, NodeId(1), SERVICE, vec![5]).unwrap();
        assert_eq!(reply, vec![0, 1, 2, 3, 4, 5]);
        // Six handlers ran at once; each left a listener behind.
        let spawned = registry.counter(WORKERS_SPAWNED).get();
        assert_eq!(spawned, 7, "six busy workers and the one still listening");
        // Again: the service is at its high-water mark and starts nothing.
        let reply = rpc_call(&client, NodeId(1), SERVICE, vec![5]).unwrap();
        assert_eq!(reply, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(registry.counter(WORKERS_SPAWNED).get(), spawned);
        rpc_server.shutdown();
    });
}

/// Shutdown wakes workers that are blocked on the port — nobody polls —
/// and is prompt about it.
fn shutdown_wakes_parked_workers_promptly() {
    both_backends(|_client, server| {
        let rpc_server = RpcServer::serve_pooled(server, SERVICE, echo, 4);
        let start = Instant::now();
        rpc_server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            start.elapsed()
        );
    });
}

#[test]
fn rpc_services_keep_their_workers_and_start_none_they_do_not_need() {
    sequential_calls_start_no_threads();
    a_service_started_with_one_worker_serves_nested_calls_into_itself();
    shutdown_wakes_parked_workers_promptly();
}
