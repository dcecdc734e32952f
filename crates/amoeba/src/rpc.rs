//! Remote procedure calls over the network.
//!
//! Amoeba's microkernel offers RPC between arbitrary threads as its basic
//! point-to-point communication primitive; the point-to-point runtime system
//! of the paper is built entirely from RPCs (write to primary, invalidate
//! copy, fetch copy, ...). This module provides the same shape:
//!
//! * [`RpcServer`] registers a handler on a well-known port of a node and
//!   answers requests on worker threads it keeps.
//! * [`rpc_call`] sends a request to `(node, port)` and blocks until the
//!   reply arrives; [`MultiRpc`] keeps several requests in flight at once.
//! * [`rpc_notify`] sends a request nobody waits for: the handler runs
//!   exactly as for a call, but the server puts no reply on the wire.
//!
//! Requests and replies are carried over the *reliable* point-to-point
//! primitive of the network, mirroring the at-most-once, reliable semantics
//! Amoeba RPC presents to its users. On the wire they are a body inside the
//! envelope of [`orca_wire::envelope`]: a request names the caller's reply
//! *mailbox*, the call within it and the invocation's trace; a reply names
//! the call. A typical call costs its body plus six bytes.
//!
//! # The mailbox rule
//!
//! A mailbox is a bound ephemeral port. A caller does not bind one per
//! call: it takes an idle mailbox of its [`NetworkHandle`] (binding a
//! fresh one only when all are in use) and parks it again when the call
//! is over. Delivery is reliable and at-most-once, so a mailbox is clean
//! — nothing can still arrive on it — exactly when every request that
//! named it has been answered and the answer taken off it. That is the
//! one rule: **a client that ends with a reply still owed retires its
//! mailbox** (unbinds it, never to be named again) instead of parking it.
//! The late reply then finds no port, and the next call cannot mistake it
//! for its own. Port numbers are never reused, so neither can a call made
//! much later.
//!
//! # The server loop
//!
//! Amoeba server threads are created once and block in `get_request`. So
//! do these: every worker of a service blocks on the service port itself
//! — there is no dispatcher to hand requests over — and the worker that
//! takes a request stops listening while its handler runs. When it was the
//! last one listening it first starts another, so a handler that performs
//! nested RPCs (even into its own service) can never leave the port
//! unattended, and a service that has reached the high-water mark of its
//! concurrent handlers starts nothing more. Workers never retire before
//! shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use orca_telemetry::{trace, Counter, Gauge};
use orca_wire::envelope::{frame_reply, split_reply, NOTIFICATION};
use orca_wire::RequestHead;
use parking_lot::Mutex;

use crate::message::NetMessage;
use crate::network::{NetError, NetworkHandle, PortReceiver};
use crate::node::{ports, NodeId, Port};

/// Errors surfaced by the RPC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Underlying network error.
    Net(NetError),
    /// The reply did not arrive within the deadline.
    Timeout,
    /// The reply could not be decoded.
    BadReply(String),
    /// The caller's abort predicate fired while waiting for the reply
    /// (see [`rpc_call_abortable`] — typically the destination was
    /// declared dead by a failure detector).
    Aborted,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Net(err) => write!(f, "network error: {err}"),
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::BadReply(msg) => write!(f, "bad rpc reply: {msg}"),
            RpcError::Aborted => write!(f, "rpc aborted"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<NetError> for RpcError {
    fn from(err: NetError) -> Self {
        RpcError::Net(err)
    }
}

/// Default deadline for a blocking RPC.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Registry counter: requests (calls and notifications) RPC services have
/// taken off their ports.
pub const REQUESTS: &str = "amoeba.rpc.requests";

/// Registry counter: worker threads RPC services have started. Next to
/// [`REQUESTS`] it says whether requests cost threads.
pub const WORKERS_SPAWNED: &str = "amoeba.rpc.workers_spawned";

/// Registry counter: reply mailboxes unbound because a reply was still
/// owed on them (a timed-out or aborted call).
pub const MAILBOXES_RETIRED: &str = "amoeba.rpc.mailboxes_retired";

/// Registry gauge of node `node`: RPC worker threads alive on it, parked
/// and busy, over all its services.
pub fn workers_gauge(node: NodeId) -> String {
    format!("amoeba.rpc.node{}.workers", node.index())
}

/// The envelope's name for reply port `port`: its distance from the first
/// ephemeral port, plus one (0 is taken by notifications).
fn mailbox_number(port: Port) -> u64 {
    port - ports::EPHEMERAL_BASE + 1
}

/// Send a one-way notification to `(dst, service_port)`: the service's
/// handler runs on the request like on any call, but its return value is
/// discarded and no reply travels back — one message on the wire instead
/// of two. Delivery is reliable (the same primitive requests and replies
/// use); what the caller gives up is learning *when* — or, if `dst`
/// crashes first, whether — the handler ran.
pub fn rpc_notify(
    handle: &NetworkHandle,
    dst: NodeId,
    service_port: Port,
    body: impl AsRef<[u8]>,
) -> Result<(), RpcError> {
    let head = RequestHead {
        mailbox: NOTIFICATION,
        call: 0,
        trace: trace::current(),
    };
    handle.send_reliable(dst, service_port, head.frame(body.as_ref()))?;
    Ok(())
}

/// Perform a blocking RPC to `(dst, service_port)` with the default timeout.
pub fn rpc_call(
    handle: &NetworkHandle,
    dst: NodeId,
    service_port: Port,
    body: Vec<u8>,
) -> Result<Vec<u8>, RpcError> {
    rpc_call_timeout(handle, dst, service_port, body, DEFAULT_RPC_TIMEOUT)
}

/// Perform a blocking RPC with an explicit timeout.
pub fn rpc_call_timeout(
    handle: &NetworkHandle,
    dst: NodeId,
    service_port: Port,
    body: Vec<u8>,
    timeout: Duration,
) -> Result<Vec<u8>, RpcError> {
    rpc_call_abortable(handle, dst, service_port, body, timeout, timeout, &|| false)
}

/// Like [`rpc_call_timeout`], but the wait is sliced into `poll`-sized
/// chunks and `should_abort` is consulted between slices. The request is
/// sent exactly **once** (so a non-idempotent operation is never
/// re-executed by a slow server); aborting only gives up on the *reply*.
/// Used by the recovery-aware runtime systems to stop waiting on a node
/// the failure detector has since declared dead.
pub fn rpc_call_abortable(
    handle: &NetworkHandle,
    dst: NodeId,
    service_port: Port,
    body: impl AsRef<[u8]>,
    timeout: Duration,
    poll: Duration,
    should_abort: &dyn Fn() -> bool,
) -> Result<Vec<u8>, RpcError> {
    // A plain call is a client of one request; dropping it parks the
    // mailbox, or retires it when the wait ended without the reply.
    let mut rpc = MultiRpc::new(handle);
    let call = rpc.send(dst, service_port, body)?;
    rpc.wait_abortable(call, Instant::now() + timeout, poll, should_abort)
}

/// A client for *multiple outstanding* RPCs sharing one reply mailbox.
///
/// The batched (pipelined) runtime-system paths ship one operation batch
/// per destination and want all of a round's batches in flight at once.
/// `MultiRpc` holds one mailbox, numbers its requests 0, 1, 2, …, and
/// demultiplexes the interleaved replies by that number: a reply that
/// arrives while the caller is waiting for a different request is stashed
/// and handed out when its own `wait` comes around. A request given up on
/// (timeout, abort) keeps its number, so its late reply can satisfy no
/// other; the client keeps its mailbox until it is dropped, and only then
/// does the mailbox rule decide between parking and retiring it.
pub struct MultiRpc {
    handle: NetworkHandle,
    /// Taken in `new`, given up in `drop`.
    mailbox: Option<PortReceiver>,
    /// Requests sent so far; the next request's call id.
    sent: u64,
    /// Replies taken off the mailbox so far, handed out or stashed.
    received: u64,
    /// Replies that arrived ahead of their `wait`.
    stash: Vec<(u64, Vec<u8>)>,
}

impl std::fmt::Debug for MultiRpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRpc")
            .field("node", &self.handle.node())
            .field("mailbox", &self.mailbox().port())
            .field("owed", &(self.sent - self.received))
            .field("stashed", &self.stash.len())
            .finish()
    }
}

impl MultiRpc {
    /// Take a reply mailbox on the node owning `handle`.
    pub fn new(handle: &NetworkHandle) -> MultiRpc {
        MultiRpc {
            handle: handle.clone(),
            mailbox: Some(handle.take_mailbox()),
            sent: 0,
            received: 0,
            stash: Vec::new(),
        }
    }

    fn mailbox(&self) -> &PortReceiver {
        self.mailbox.as_ref().expect("held until drop")
    }

    /// Send one request; returns its id for a later [`MultiRpc::wait`].
    /// The request goes out exactly once (never re-sent), so
    /// non-idempotent bodies are safe.
    pub fn send(
        &mut self,
        dst: NodeId,
        service_port: Port,
        body: impl AsRef<[u8]>,
    ) -> Result<u64, RpcError> {
        let call = self.sent;
        let head = RequestHead {
            mailbox: mailbox_number(self.mailbox().port()),
            call,
            trace: trace::current(),
        };
        self.handle
            .send_reliable(dst, service_port, head.frame(body.as_ref()))?;
        self.sent += 1;
        Ok(call)
    }

    /// Wait for the reply to request `call`, slicing the wait into
    /// `poll`-sized chunks and consulting `should_abort` between slices.
    /// Replies to *other* outstanding requests that arrive meanwhile are
    /// stashed, not lost. This is the one wait loop of the RPC layer.
    pub fn wait_abortable(
        &mut self,
        call: u64,
        deadline: Instant,
        poll: Duration,
        should_abort: &dyn Fn() -> bool,
    ) -> Result<Vec<u8>, RpcError> {
        if let Some(at) = self.stash.iter().position(|(id, _)| *id == call) {
            return Ok(self.stash.swap_remove(at).1);
        }
        loop {
            if should_abort() {
                return Err(RpcError::Aborted);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RpcError::Timeout);
            }
            let slice = remaining.min(poll.max(Duration::from_millis(1)));
            let mut payload = match self.mailbox().recv_timeout(slice) {
                Ok(msg) => msg.payload,
                Err(NetError::Timeout) => continue,
                Err(other) => return Err(RpcError::Net(other)),
            };
            let (id, body) =
                split_reply(&payload).map_err(|err| RpcError::BadReply(err.to_string()))?;
            // The body is the payload's tail: shed the head in place.
            let head = payload.len() - body.len();
            payload.drain(..head);
            self.received += 1;
            if id == call {
                return Ok(payload);
            }
            self.stash.push((id, payload));
        }
    }

    /// Wait for the reply to request `call` until `deadline`.
    pub fn wait(&mut self, call: u64, deadline: Instant) -> Result<Vec<u8>, RpcError> {
        self.wait_abortable(call, deadline, Duration::from_millis(25), &|| false)
    }
}

impl Drop for MultiRpc {
    fn drop(&mut self) {
        let mailbox = self.mailbox.take().expect("held until drop");
        if self.received == self.sent {
            self.handle.park_mailbox(mailbox);
        } else {
            // A reply is still owed: it must find no port.
            drop(mailbox);
            let registry = self.handle.telemetry().registry();
            registry.counter(MAILBOXES_RETIRED).inc();
        }
    }
}

/// What the workers of one service share.
struct Service<F> {
    handle: NetworkHandle,
    /// The service port's queue; every listening worker blocks on it. It
    /// disconnects when the [`RpcServer`] unbinds the port, which is how
    /// shutdown wakes the workers.
    requests: Receiver<NetMessage>,
    handler: F,
    /// Thread name of the workers.
    name: String,
    /// Workers listening on `requests`, or on their way back to it.
    listening: AtomicUsize,
    /// Every worker started so far.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    requests_taken: Counter,
    spawned: Counter,
    alive: Gauge,
}

impl<F> Service<F>
where
    F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
{
    /// Put one more worker on the port.
    fn add_worker(self: &Arc<Self>) {
        let mut workers = self.workers.lock();
        self.listening.fetch_add(1, Ordering::SeqCst);
        self.spawned.inc();
        self.alive.add(1);
        let service = Arc::clone(self);
        let worker = std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || service.work())
            .expect("spawn rpc worker thread");
        workers.push(worker);
    }

    /// The server loop, run by every worker: take a request off the port,
    /// make sure someone is still listening, answer, listen again.
    fn work(self: Arc<Self>) {
        while let Ok(msg) = self.requests.recv() {
            if self.listening.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.add_worker();
            }
            self.requests_taken.inc();
            let reply = self.handle(&msg);
            // Listening again from *before* the reply leaves: the caller's
            // next request can be here before the send returns, and must
            // not find the service one listener short and start another.
            // Nothing below waits on a handler, so the count stays honest.
            self.listening.fetch_add(1, Ordering::SeqCst);
            if let Some((reply_port, payload)) = reply {
                let _ = self.handle.send_reliable(msg.src, reply_port, payload);
            }
        }
        self.alive.add(-1);
    }

    /// Run the handler on one request, under the request's trace and on
    /// the body as it lies in the received payload. Returns the reply and
    /// the port it goes to — nothing for a notification, whose sender is
    /// not listening, and for a request that cannot be parsed.
    fn handle(&self, msg: &NetMessage) -> Option<(Port, Vec<u8>)> {
        let (head, body) = RequestHead::split(&msg.payload).ok()?;
        let _span = trace::enter(head.trace);
        let reply = (self.handler)(body, msg.src);
        // Mailbox `n` is the n-th ephemeral port; `NOTIFICATION`, 0, is none.
        let reply_port = ports::EPHEMERAL_BASE.checked_add(head.mailbox.checked_sub(1)?)?;
        Some((reply_port, frame_reply(head.call, &reply)))
    }
}

/// A running RPC service on one node. Stops and joins its workers when
/// [`RpcServer::shutdown`] is called or the server is dropped.
pub struct RpcServer {
    /// The bound service port. Dropping it unbinds the port, and with the
    /// port gone the workers' queue disconnects.
    bound: Option<PortReceiver>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    node: NodeId,
    port: Port,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("node", &self.node)
            .field("port", &self.port)
            .finish()
    }
}

impl RpcServer {
    /// Start serving `service_port` on the node owning `handle`.
    ///
    /// The handler receives the request body and the caller's node id and
    /// returns the reply body. The service has as many workers as there are
    /// handlers running at once, so that a handler which itself performs
    /// (nested) RPCs cannot stall unrelated requests — nor, calling back
    /// into this service, itself. The primary-copy and adaptive runtime
    /// systems need this: their write protocols issue update/invalidate
    /// RPCs to other nodes from inside a handler. One worker is started
    /// now; see the module documentation for when more are.
    pub fn serve_concurrent<F>(handle: NetworkHandle, service_port: Port, handler: F) -> RpcServer
    where
        F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
    {
        Self::serve_pooled(handle, service_port, handler, 1)
    }

    /// [`RpcServer::serve_concurrent`] with `workers` threads started up
    /// front, for a service that knows its concurrency and would rather
    /// not grow into it request by request.
    pub fn serve_pooled<F>(
        handle: NetworkHandle,
        service_port: Port,
        handler: F,
        workers: usize,
    ) -> RpcServer
    where
        F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
    {
        assert!(workers > 0, "a service needs a worker to listen");
        let node = handle.node();
        let bound = handle.bind(service_port);
        let started = Arc::new(Mutex::new(Vec::new()));
        let registry = handle.telemetry().registry();
        // Clients count retirements as they happen; naming the counter here
        // puts the whole census in a snapshot, zeros included.
        registry.counter(MAILBOXES_RETIRED);
        let service = Arc::new(Service {
            requests: bound.receiver().clone(),
            handler,
            name: format!("rpc-{node}-{service_port}"),
            listening: AtomicUsize::new(0),
            workers: Arc::clone(&started),
            requests_taken: registry.counter(REQUESTS),
            spawned: registry.counter(WORKERS_SPAWNED),
            alive: registry.gauge(&workers_gauge(node)),
            handle,
        });
        for _ in 0..workers {
            service.add_worker();
        }
        RpcServer {
            bound: Some(bound),
            workers: started,
            node,
            port: service_port,
        }
    }

    /// Node the service runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Port the service is bound to.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Stop the service and wait for its workers to exit. Requests already
    /// queued on the port are still answered.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        drop(self.bound.take());
        // A worker that took one of the last requests may have started
        // another before it exits; that one is in the list by the time its
        // starter is joined, so go round until the list stays empty.
        loop {
            let batch = std::mem::take(&mut *self.workers.lock());
            if batch.is_empty() {
                return;
            }
            for worker in batch {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use orca_wire::Wire;

    use super::*;
    use crate::network::Network;

    #[test]
    fn echo_rpc_round_trip() {
        let net = Network::reliable(2);
        let server_handle = net.handle(NodeId(1));
        let _server =
            RpcServer::serve_concurrent(server_handle, ports::USER_BASE, |body, caller| {
                let mut reply = body.to_vec();
                reply.push(caller.0 as u8);
                reply
            });
        let client = net.handle(NodeId(0));
        let reply = rpc_call(&client, NodeId(1), ports::USER_BASE, vec![1, 2, 3]).unwrap();
        assert_eq!(reply, vec![1, 2, 3, 0]);
    }

    #[test]
    fn concurrent_clients_get_their_own_replies() {
        let net = Network::reliable(4);
        let _server =
            RpcServer::serve_concurrent(net.handle(NodeId(0)), ports::USER_BASE, |body, _| {
                let value = u64::from_bytes(body).unwrap();
                (value * 2).to_bytes()
            });
        let mut threads = Vec::new();
        for node in 1..4u16 {
            let handle = net.handle(NodeId(node));
            threads.push(std::thread::spawn(move || {
                for i in 0..20u64 {
                    let value = u64::from(node) * 1000 + i;
                    let reply =
                        rpc_call(&handle, NodeId(0), ports::USER_BASE, value.to_bytes()).unwrap();
                    assert_eq!(u64::from_bytes(&reply).unwrap(), value * 2);
                }
            }));
        }
        for thread in threads {
            thread.join().unwrap();
        }
    }

    #[test]
    fn pooled_server_answers_concurrent_clients() {
        let net = Network::reliable(4);
        let served = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&served);
        let server = RpcServer::serve_pooled(
            net.handle(NodeId(0)),
            ports::USER_BASE,
            move |body, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                let value = u64::from_bytes(body).unwrap();
                (value + 1).to_bytes()
            },
            3,
        );
        let mut threads = Vec::new();
        for node in 1..4u16 {
            let handle = net.handle(NodeId(node));
            threads.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let reply =
                        rpc_call(&handle, NodeId(0), ports::USER_BASE, i.to_bytes()).unwrap();
                    assert_eq!(u64::from_bytes(&reply).unwrap(), i + 1);
                }
            }));
        }
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(served.load(Ordering::Relaxed), 150);
        // Shutdown joins every worker.
        server.shutdown();
    }

    #[test]
    fn multi_rpc_demultiplexes_interleaved_replies() {
        let net = Network::reliable(3);
        // Two services that echo their input with a distinguishing suffix;
        // one of them answers slowly, so its reply arrives after replies
        // to requests issued later.
        let _slow =
            RpcServer::serve_concurrent(net.handle(NodeId(1)), ports::USER_BASE, |body, _| {
                std::thread::sleep(Duration::from_millis(60));
                let mut reply = body.to_vec();
                reply.push(1);
                reply
            });
        let _fast =
            RpcServer::serve_concurrent(net.handle(NodeId(2)), ports::USER_BASE, |body, _| {
                let mut reply = body.to_vec();
                reply.push(2);
                reply
            });
        let client = net.handle(NodeId(0));
        let mut multi = MultiRpc::new(&client);
        let slow_id = multi.send(NodeId(1), ports::USER_BASE, vec![10]).unwrap();
        let fast_id = multi.send(NodeId(2), ports::USER_BASE, vec![20]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // Wait for the slow reply first: the fast reply arrives in between
        // and must be stashed, then handed out for its own wait.
        assert_eq!(multi.wait(slow_id, deadline).unwrap(), vec![10, 1]);
        assert_eq!(multi.wait(fast_id, deadline).unwrap(), vec![20, 2]);
        // A wait on a crashed destination times out cleanly.
        net.crash(NodeId(1));
        let dead_id = multi.send(NodeId(1), ports::USER_BASE, vec![30]).unwrap();
        let err = multi
            .wait(
                dead_id,
                std::time::Instant::now() + Duration::from_millis(80),
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
    }

    #[test]
    fn rpc_to_crashed_node_times_out() {
        let net = Network::reliable(2);
        net.crash(NodeId(1));
        let client = net.handle(NodeId(0));
        let err = rpc_call_timeout(
            &client,
            NodeId(1),
            ports::USER_BASE,
            vec![],
            Duration::from_millis(100),
        )
        .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
    }

    #[test]
    fn server_shutdown_joins_thread() {
        let net = Network::reliable(1);
        let server =
            RpcServer::serve_concurrent(net.handle(NodeId(0)), ports::USER_BASE, |_, _| vec![]);
        server.shutdown();
    }

    #[test]
    fn a_call_names_its_mailbox_and_the_server_finds_the_port() {
        // What the server does with the number is the inverse of what the
        // client did to the port, wherever the port sits.
        for port in [ports::EPHEMERAL_BASE, ports::EPHEMERAL_BASE + 130] {
            let number = mailbox_number(port);
            assert_ne!(number, NOTIFICATION);
            assert_eq!(ports::EPHEMERAL_BASE + (number - 1), port);
        }
        // The first mailboxes of a node are one byte on the wire.
        assert_eq!(mailbox_number(ports::EPHEMERAL_BASE + 126), 127);
    }

    #[test]
    fn a_malformed_request_is_dropped_and_the_service_lives_on() {
        let net = Network::reliable(2);
        let _server =
            RpcServer::serve_concurrent(net.handle(NodeId(1)), ports::USER_BASE, |body, _| {
                body.to_vec()
            });
        let client = net.handle(NodeId(0));
        // A head cut short, and a mailbox number that overflows the port
        // space: neither is answered, neither takes the worker down.
        client
            .send_reliable(NodeId(1), ports::USER_BASE, vec![0x80])
            .unwrap();
        let overflow = RequestHead {
            mailbox: u64::MAX,
            call: 0,
            trace: orca_wire::TraceId::NONE,
        };
        client
            .send_reliable(NodeId(1), ports::USER_BASE, overflow.frame(&[]))
            .unwrap();
        let reply = rpc_call(&client, NodeId(1), ports::USER_BASE, vec![5]).unwrap();
        assert_eq!(reply, vec![5]);
    }
}
