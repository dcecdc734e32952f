//! `MultiRpc` demultiplexing under reordered delivery, and the mailbox rule.
//!
//! The pipelined runtime-system paths keep many RPCs in flight on one
//! shared reply mailbox, so replies routinely arrive in a different order
//! than the caller waits for them. These tests pin the two properties the
//! batching layers depend on:
//!
//! * a reply for a *different* outstanding request is stashed, never
//!   dropped, and handed out when its own `wait` comes around;
//! * replies are matched strictly by call id, so a stale reply from a
//!   timed-out earlier request of the same client can never satisfy a
//!   newer one.
//!
//! Plain calls reuse mailboxes *between* clients, where every call has id
//! 0; what keeps a late reply from a later call there is that a call which
//! ends without its reply retires its mailbox. That is pinned here too.
//!
//! So is the one-way half of the layer: an `rpc_notify` runs its handler
//! exactly once and is never answered, under all three server flavours,
//! and a versioned notification that a worker handles late is recognisably
//! stale.
//!
//! Reordering is produced deterministically by handler-side delays (a slow
//! first request, fast later ones), and each scenario runs on both the
//! simulated network and a real loopback socket cluster — the socket path
//! adds genuine cross-thread asynchrony.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use orca_amoeba::network::{Network, NetworkHandle};
use orca_amoeba::node::{ports, NodeId};
use orca_amoeba::rpc::{
    rpc_call, rpc_call_timeout, rpc_notify, MultiRpc, RpcError, RpcServer, MAILBOXES_RETIRED,
};
use orca_amoeba::transport::SocketTransport;

const SERVICE: u64 = ports::USER_BASE + 50;
const DEADLINE: Duration = Duration::from_secs(20);

/// Run `scenario(client_handle, server_handle)` on both backends.
fn both_backends(scenario: impl Fn(NetworkHandle, NetworkHandle)) {
    let net = Network::reliable(2);
    scenario(net.handle(NodeId(0)), net.handle(NodeId(1)));

    let transports = SocketTransport::start_loopback_cluster(2).expect("loopback cluster");
    let handle = |i: usize| {
        NetworkHandle::from_transport(Arc::clone(&transports[i]) as Arc<dyn orca_amoeba::Transport>)
    };
    scenario(handle(0), handle(1));
}

/// Echo server that sleeps `slow_ms` milliseconds when the request body
/// starts with the byte `b'S'`, so a slow request's reply overtakes
/// nothing while fast later replies overtake *it*.
fn echo_server_with_slow_requests(server: NetworkHandle, slow_ms: u64) -> RpcServer {
    RpcServer::serve_concurrent(server, SERVICE, move |body, _src| {
        if body.first() == Some(&b'S') {
            std::thread::sleep(Duration::from_millis(slow_ms));
        }
        body.to_vec()
    })
}

#[test]
fn reply_for_a_different_request_is_stashed_not_lost() {
    both_backends(|client, server| {
        let server = echo_server_with_slow_requests(server, 150);
        let mut rpc = MultiRpc::new(&client);
        let slow = rpc.send(NodeId(1), SERVICE, b"S-first").unwrap();
        let fast = rpc.send(NodeId(1), SERVICE, b"fast").unwrap();
        // Waiting for the slow request first forces the fast reply —
        // which arrives earlier — through the stash.
        let deadline = Instant::now() + DEADLINE;
        assert_eq!(rpc.wait(slow, deadline).unwrap(), b"S-first");
        // The fast reply was consumed while waiting for `slow`; it must
        // now come straight out of the stash (no further delivery needed).
        assert_eq!(rpc.wait(fast, deadline).unwrap(), b"fast");
        server.shutdown();
    });
}

#[test]
fn many_outstanding_replies_demux_in_any_wait_order() {
    both_backends(|client, server| {
        let server = echo_server_with_slow_requests(server, 0);
        let mut rpc = MultiRpc::new(&client);
        let ids: Vec<(u64, Vec<u8>)> = (0..8u8)
            .map(|i| {
                let body = vec![b'r', i];
                (rpc.send(NodeId(1), SERVICE, body.clone()).unwrap(), body)
            })
            .collect();
        // Wait in reverse send order: all but the last-waited reply must
        // travel through the stash at some point.
        let deadline = Instant::now() + DEADLINE;
        for (id, body) in ids.iter().rev() {
            assert_eq!(&rpc.wait(*id, deadline).unwrap(), body);
        }
        server.shutdown();
    });
}

#[test]
fn stale_reply_from_a_timed_out_call_never_satisfies_a_newer_request() {
    both_backends(|client, server| {
        let server = echo_server_with_slow_requests(server, 300);
        let mut rpc = MultiRpc::new(&client);
        let stale = rpc.send(NodeId(1), SERVICE, b"S-stale").unwrap();
        // Give up on the slow request long before its reply arrives.
        let result = rpc.wait(stale, Instant::now() + Duration::from_millis(50));
        assert!(matches!(result, Err(RpcError::Timeout)), "{result:?}");
        // A newer request on the same reply port must get *its* reply,
        // even though the stale one lands on the port first.
        let fresh = rpc.send(NodeId(1), SERVICE, b"fresh").unwrap();
        let deadline = Instant::now() + DEADLINE;
        assert_eq!(rpc.wait(fresh, deadline).unwrap(), b"fresh");
        // The stale reply went to the stash keyed by its own id — still
        // retrievable, proving it was demuxed rather than misdelivered.
        assert_eq!(rpc.wait(stale, deadline).unwrap(), b"S-stale");
        server.shutdown();
    });
}

#[test]
fn a_timed_out_call_retires_its_mailbox_and_its_late_reply_meets_no_later_call() {
    both_backends(|client, server| {
        // `S…` requests wait for the test's go-ahead before answering.
        let (release, held) = channel::<()>();
        let held = Mutex::new(held);
        let rpc_server = RpcServer::serve_concurrent(server.clone(), SERVICE, move |body, _src| {
            if body.first() == Some(&b'S') {
                held.lock().unwrap().recv().unwrap();
            }
            body.to_vec()
        });
        let retired = client.telemetry().registry().counter(MAILBOXES_RETIRED);
        let retired_before = retired.get();
        // Warm a mailbox, so the call below reuses a parked one.
        assert_eq!(
            rpc_call(&client, NodeId(1), SERVICE, b"warm".to_vec()).unwrap(),
            b"warm"
        );
        let result = rpc_call_timeout(
            &client,
            NodeId(1),
            SERVICE,
            b"S-late".to_vec(),
            Duration::from_millis(50),
        );
        assert_eq!(result, Err(RpcError::Timeout));
        assert_eq!(
            retired.get(),
            retired_before + 1,
            "the owed mailbox is gone"
        );
        // While the reply is still owed, a call from the same thread binds
        // a fresh mailbox and is answered on it.
        assert_eq!(
            rpc_call(&client, NodeId(1), SERVICE, b"fresh".to_vec()).unwrap(),
            b"fresh"
        );
        // Let the late reply go out and wait until it is on the wire. Had
        // the timed-out call parked its mailbox, `fresh` would have taken
        // it, parked it again, and the late reply (call id 0, like every
        // plain call's) would now be sitting in it for the next call.
        let sent_before = server.stats().node(NodeId(1)).messages_sent();
        release.send(()).unwrap();
        let deadline = Instant::now() + DEADLINE;
        while server.stats().node(NodeId(1)).messages_sent() == sent_before {
            assert!(Instant::now() < deadline, "late reply never sent");
            std::thread::sleep(Duration::from_millis(1));
        }
        for round in 0..3u8 {
            // On sockets the late reply precedes these replies on the same
            // connection, so it has arrived by the time they do.
            let body = vec![b'r', round];
            assert_eq!(
                rpc_call(&client, NodeId(1), SERVICE, body.clone()).unwrap(),
                body
            );
        }
        assert_eq!(retired.get(), retired_before + 1);
        rpc_server.shutdown();
    });
}

#[test]
fn a_client_dropped_with_every_reply_in_parks_its_mailbox_for_the_next() {
    // Observable as bytes: the request names the mailbox by its distance
    // from the first ephemeral port, so as long as calls reuse the first
    // mailboxes a request stays at body + 3 (mailbox, call, no trace).
    let net = Network::reliable(2);
    let (client, server) = (net.handle(NodeId(0)), net.handle(NodeId(1)));
    let rpc_server = RpcServer::serve_concurrent(server, SERVICE, |body, _src| body.to_vec());
    for round in 0..300u32 {
        let before = net.stats();
        let mut rpc = MultiRpc::new(&client);
        let a = rpc.send(NodeId(1), SERVICE, vec![1; 10]).unwrap();
        let b = rpc.send(NodeId(1), SERVICE, vec![2; 10]).unwrap();
        let deadline = Instant::now() + DEADLINE;
        assert_eq!(rpc.wait(b, deadline).unwrap(), vec![2; 10]);
        assert_eq!(rpc.wait(a, deadline).unwrap(), vec![1; 10]);
        drop(rpc);
        assert_eq!(
            rpc_call(&client, NodeId(1), SERVICE, vec![3; 10]).unwrap(),
            vec![3; 10]
        );
        let spent = net.stats().since(&before);
        assert_eq!(spent.total_messages(), 6);
        let payload = spent.total_wire_bytes() - 6 * orca_amoeba::message::WIRE_HEADER_BYTES as u64;
        assert_eq!(
            payload,
            3 * (10 + 3) + 3 * (10 + 1),
            "round {round}: three requests at body + 3, three replies at body + 1"
        );
    }
    let retired = client.telemetry().registry().counter(MAILBOXES_RETIRED);
    assert_eq!(retired.get(), 0);
    rpc_server.shutdown();
}

#[test]
fn interleaved_rounds_keep_ids_straight_across_destinations() {
    // Two servers on different nodes answering with distinct markers: a
    // client pipelining one request per destination per round must never
    // cross replies, whatever order they arrive in.
    let net = Network::reliable(3);
    let servers: Vec<RpcServer> = [1u16, 2]
        .iter()
        .map(|&n| {
            RpcServer::serve_concurrent(net.handle(NodeId(n)), SERVICE, move |body, _src| {
                let mut reply = vec![n as u8];
                reply.extend_from_slice(body);
                reply
            })
        })
        .collect();
    let mut rpc = MultiRpc::new(&net.handle(NodeId(0)));
    for round in 0..20u8 {
        let a = rpc.send(NodeId(1), SERVICE, vec![round]).unwrap();
        let b = rpc.send(NodeId(2), SERVICE, vec![round]).unwrap();
        let deadline = Instant::now() + DEADLINE;
        // Alternate which destination is waited on first.
        let (first, second, first_node, second_node) = if round % 2 == 0 {
            (a, b, 1u8, 2u8)
        } else {
            (b, a, 2u8, 1u8)
        };
        assert_eq!(rpc.wait(first, deadline).unwrap(), vec![first_node, round]);
        assert_eq!(
            rpc.wait(second, deadline).unwrap(),
            vec![second_node, round]
        );
    }
    for server in servers {
        server.shutdown();
    }
}

/// Messages sent so far by the client (node 0) and the server (node 1).
/// Reads each node's own row, which both backends fill in.
fn messages_sent(client: &NetworkHandle, server: &NetworkHandle) -> u64 {
    client.stats().node(NodeId(0)).messages_sent() + server.stats().node(NodeId(1)).messages_sent()
}

#[test]
fn notification_is_handled_once_and_never_answered() {
    type Serve = fn(NetworkHandle, Arc<AtomicU64>) -> RpcServer;
    fn count(handled: Arc<AtomicU64>) -> impl Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync {
        move |body, _src| {
            handled.fetch_add(1, Ordering::SeqCst);
            body.to_vec()
        }
    }
    let flavours: [Serve; 2] = [
        |h, n| RpcServer::serve_concurrent(h, SERVICE, count(n)),
        |h, n| RpcServer::serve_pooled(h, SERVICE, count(n), 2),
    ];
    for serve in flavours {
        both_backends(|client, server| {
            let handled = Arc::new(AtomicU64::new(0));
            let rpc_server = serve(server.clone(), Arc::clone(&handled));
            let before = messages_sent(&client, &server);
            rpc_notify(&client, NodeId(1), SERVICE, b"note").unwrap();
            let deadline = Instant::now() + DEADLINE;
            while handled.load(Ordering::SeqCst) == 0 {
                assert!(Instant::now() < deadline, "notification never handled");
                std::thread::sleep(Duration::from_millis(1));
            }
            // The handler has returned or is about to; give a (wrong)
            // reply the time to leave before counting.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                messages_sent(&client, &server) - before,
                1,
                "a notification is one message: the request, no reply"
            );
            // A call on the same service still costs two and is answered.
            assert_eq!(
                rpc_call(&client, NodeId(1), SERVICE, b"call".to_vec()).unwrap(),
                b"call"
            );
            assert_eq!(messages_sent(&client, &server) - before, 3);
            assert_eq!(
                handled.load(Ordering::SeqCst),
                2,
                "handled exactly once each"
            );
            rpc_server.shutdown();
        });
    }
}

#[test]
fn stale_versioned_unlock_after_the_next_update_leaves_the_copy_locked() {
    // The shape of the runtime systems' phase 2: `U v` (acked) applies
    // update `v` and locks the copy, `L v` (one-way) unlocks it. A worker
    // pool may handle `L 1` after `U 2`; the version it carries is what
    // lets the holder see that the lock it would release is not its own.
    both_backends(|client, server| {
        // (version, locked)
        let copy = Arc::new(Mutex::new((0u8, false)));
        let (unlock_seen_tx, unlock_seen) = channel::<()>();
        let (update_done_tx, update_done) = channel::<()>();
        let (stale_handled_tx, stale_handled) = channel::<()>();
        let unlock_seen_tx = Mutex::new(unlock_seen_tx);
        let stale_handled_tx = Mutex::new(stale_handled_tx);
        let update_done = Mutex::new(update_done);
        let update_done_tx = Mutex::new(update_done_tx);
        let holder = Arc::clone(&copy);
        let rpc_server = RpcServer::serve_pooled(
            server,
            SERVICE,
            move |body, _src| {
                let version = body[1];
                match body[0] {
                    b'U' => {
                        *holder.lock().unwrap() = (version, true);
                        if version == 2 {
                            update_done_tx.lock().unwrap().send(()).unwrap();
                        }
                    }
                    _ => {
                        if version == 1 {
                            // Hold `L 1` in its worker until `U 2` is in.
                            unlock_seen_tx.lock().unwrap().send(()).unwrap();
                            update_done.lock().unwrap().recv().unwrap();
                        }
                        let mut copy = holder.lock().unwrap();
                        if version >= copy.0 {
                            copy.1 = false;
                        }
                        drop(copy);
                        if version == 1 {
                            stale_handled_tx.lock().unwrap().send(()).unwrap();
                        }
                    }
                }
                Vec::new()
            },
            2,
        );
        rpc_call(&client, NodeId(1), SERVICE, vec![b'U', 1]).unwrap();
        rpc_notify(&client, NodeId(1), SERVICE, vec![b'L', 1]).unwrap();
        unlock_seen.recv_timeout(DEADLINE).expect("L 1 delivered");
        rpc_call(&client, NodeId(1), SERVICE, vec![b'U', 2]).unwrap();
        // `L 1` now runs against a copy locked by update 2.
        stale_handled.recv_timeout(DEADLINE).expect("L 1 handled");
        assert_eq!(
            *copy.lock().unwrap(),
            (2, true),
            "stale unlock must not release update 2"
        );
        rpc_notify(&client, NodeId(1), SERVICE, vec![b'L', 2]).unwrap();
        let deadline = Instant::now() + DEADLINE;
        while copy.lock().unwrap().1 {
            assert!(Instant::now() < deadline, "L 2 never unlocked the copy");
            std::thread::sleep(Duration::from_millis(1));
        }
        rpc_server.shutdown();
    });
}
