//! Remote procedure calls over the simulated network.
//!
//! Amoeba's microkernel offers RPC between arbitrary threads as its basic
//! point-to-point communication primitive; the point-to-point runtime system
//! of the paper is built entirely from RPCs (write to primary, invalidate
//! copy, fetch copy, ...). This module provides the same shape:
//!
//! * [`RpcServer::serve`] registers a handler on a well-known port of a node
//!   and dispatches incoming requests on a dedicated thread.
//! * [`rpc_call`] sends a request to `(node, port)` and blocks until the
//!   reply arrives.
//! * [`rpc_notify`] sends a request nobody waits for: the handler runs
//!   exactly as for a call, but the server puts no reply on the wire.
//!
//! Requests and replies are carried over the *reliable* point-to-point
//! primitive of the network, mirroring the at-most-once, reliable semantics
//! Amoeba RPC presents to its users.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use orca_telemetry::trace;
use orca_wire::{Decoder, Encoder, TraceId, Wire, WireResult};

use crate::network::{NetError, NetworkHandle};
use crate::node::{NodeId, Port};

/// Wire format of an RPC request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcRequest {
    /// Identifier chosen by the client, echoed in the reply.
    pub request_id: u64,
    /// Ephemeral port on the client node where the reply is expected;
    /// [`NOTIFY_PORT`] marks a notification, which is never answered.
    pub reply_port: Port,
    /// Serialized request body (interpreted by the service).
    pub body: Vec<u8>,
    /// Causal trace of the invocation this request belongs to, captured
    /// from the calling thread and re-installed around the handler — so
    /// nested RPCs issued from inside a handler inherit it.
    pub trace: TraceId,
}

impl Wire for RpcRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.request_id.encode(enc);
        self.reply_port.encode(enc);
        enc.put_bytes(&self.body);
        self.trace.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(RpcRequest {
            request_id: Wire::decode(dec)?,
            reply_port: Wire::decode(dec)?,
            body: dec.get_bytes()?,
            trace: Wire::decode(dec)?,
        })
    }
}

/// Wire format of an RPC reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcReply {
    /// Echo of the request id.
    pub request_id: u64,
    /// Serialized reply body.
    pub body: Vec<u8>,
}

impl Wire for RpcReply {
    fn encode(&self, enc: &mut Encoder) {
        self.request_id.encode(enc);
        enc.put_bytes(&self.body);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(RpcReply {
            request_id: Wire::decode(dec)?,
            body: dec.get_bytes()?,
        })
    }
}

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

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// `reply_port` of a notification. No client ever binds port 0 (well-known
/// ports start at 1, ephemeral ones at [`crate::node::ports::EPHEMERAL_BASE`]),
/// so a server that sees it knows nobody is waiting and sends no reply.
pub const NOTIFY_PORT: Port = 0;

/// Send a one-way notification to `(dst, service_port)`: the service's
/// handler runs on the request like on any call, but its return value is
/// discarded and no [`RpcReply`] travels back — one message on the wire
/// instead of two. Delivery is reliable (the same primitive requests and
/// replies use); what the caller gives up is learning *when* — or, if
/// `dst` crashes first, whether — the handler ran.
pub fn rpc_notify(
    handle: &NetworkHandle,
    dst: NodeId,
    service_port: Port,
    body: Vec<u8>,
) -> Result<(), RpcError> {
    let request = RpcRequest {
        request_id: NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed),
        reply_port: NOTIFY_PORT,
        body,
        trace: trace::current(),
    };
    handle.send_reliable(dst, service_port, request.to_bytes())?;
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
    let reply_port = handle.alloc_ephemeral_port();
    let reply_rx = handle.bind(reply_port);
    let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    let request = RpcRequest {
        request_id,
        reply_port,
        body,
        trace: trace::current(),
    };
    handle.send_reliable(dst, service_port, request.to_bytes())?;
    loop {
        let msg = reply_rx.recv_timeout(timeout).map_err(|err| match err {
            NetError::Timeout => RpcError::Timeout,
            other => RpcError::Net(other),
        })?;
        let reply: RpcReply = msg
            .decode_payload()
            .map_err(|err| RpcError::BadReply(err.to_string()))?;
        if reply.request_id == request_id {
            return Ok(reply.body);
        }
        // A stale reply for a previous (timed-out) call on a reused port;
        // ignore and keep waiting.
    }
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
    body: Vec<u8>,
    timeout: Duration,
    poll: Duration,
    should_abort: &dyn Fn() -> bool,
) -> Result<Vec<u8>, RpcError> {
    let reply_port = handle.alloc_ephemeral_port();
    let reply_rx = handle.bind(reply_port);
    let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    let request = RpcRequest {
        request_id,
        reply_port,
        body,
        trace: trace::current(),
    };
    handle.send_reliable(dst, service_port, request.to_bytes())?;
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if should_abort() {
            return Err(RpcError::Aborted);
        }
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(RpcError::Timeout);
        }
        let slice = remaining.min(poll.max(Duration::from_millis(1)));
        match reply_rx.recv_timeout(slice) {
            Ok(msg) => {
                let reply: RpcReply = msg
                    .decode_payload()
                    .map_err(|err| RpcError::BadReply(err.to_string()))?;
                if reply.request_id == request_id {
                    return Ok(reply.body);
                }
                // Stale reply for an earlier call on a reused port; ignore.
            }
            Err(NetError::Timeout) => continue,
            Err(other) => return Err(RpcError::Net(other)),
        }
    }
}

/// A client for *multiple outstanding* RPCs sharing one reply port.
///
/// The batched (pipelined) runtime-system paths ship one operation batch
/// per destination and want all of a round's batches in flight at once.
/// `MultiRpc` binds a single ephemeral reply port, issues any number of
/// requests, and demultiplexes the interleaved replies by request id: a
/// reply that arrives while the caller is waiting for a different request
/// is stashed and handed out when its own `wait` comes around.
pub struct MultiRpc {
    handle: crate::network::NetworkHandle,
    reply_port: Port,
    rx: crate::network::PortReceiver,
    stash: std::collections::HashMap<u64, Vec<u8>>,
}

impl std::fmt::Debug for MultiRpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRpc")
            .field("node", &self.handle.node())
            .field("reply_port", &self.reply_port)
            .field("stashed", &self.stash.len())
            .finish()
    }
}

impl MultiRpc {
    /// Bind a fresh reply port on the node owning `handle`.
    pub fn new(handle: &crate::network::NetworkHandle) -> MultiRpc {
        let reply_port = handle.alloc_ephemeral_port();
        let rx = handle.bind(reply_port);
        MultiRpc {
            handle: handle.clone(),
            reply_port,
            rx,
            stash: std::collections::HashMap::new(),
        }
    }

    /// Send one request; returns its id for a later [`MultiRpc::wait`].
    /// The request goes out exactly once (never re-sent), so
    /// non-idempotent bodies are safe.
    pub fn send(&self, dst: NodeId, service_port: Port, body: Vec<u8>) -> Result<u64, RpcError> {
        let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        let request = RpcRequest {
            request_id,
            reply_port: self.reply_port,
            body,
            trace: trace::current(),
        };
        self.handle
            .send_reliable(dst, service_port, request.to_bytes())?;
        Ok(request_id)
    }

    /// Wait for the reply to `request_id`, slicing the wait into
    /// `poll`-sized chunks and consulting `should_abort` between slices
    /// (mirrors [`rpc_call_abortable`]). Replies to *other* outstanding
    /// requests that arrive meanwhile are stashed, not lost.
    pub fn wait_abortable(
        &mut self,
        request_id: u64,
        deadline: std::time::Instant,
        poll: Duration,
        should_abort: &dyn Fn() -> bool,
    ) -> Result<Vec<u8>, RpcError> {
        if let Some(body) = self.stash.remove(&request_id) {
            return Ok(body);
        }
        loop {
            if should_abort() {
                return Err(RpcError::Aborted);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(RpcError::Timeout);
            }
            let slice = remaining.min(poll.max(Duration::from_millis(1)));
            match self.rx.recv_timeout(slice) {
                Ok(msg) => {
                    let reply: RpcReply = match msg.decode_payload() {
                        Ok(reply) => reply,
                        Err(err) => return Err(RpcError::BadReply(err.to_string())),
                    };
                    if reply.request_id == request_id {
                        return Ok(reply.body);
                    }
                    // A reply for another outstanding request of this
                    // client (or a stale one from a timed-out call on the
                    // reused port): stash it — `wait` for it may come later.
                    self.stash.insert(reply.request_id, reply.body);
                }
                Err(NetError::Timeout) => continue,
                Err(other) => return Err(RpcError::Net(other)),
            }
        }
    }

    /// Wait for the reply to `request_id` until `deadline`.
    pub fn wait(
        &mut self,
        request_id: u64,
        deadline: std::time::Instant,
    ) -> Result<Vec<u8>, RpcError> {
        self.wait_abortable(request_id, deadline, Duration::from_millis(25), &|| false)
    }
}

/// Run `handler` on one request under the request's trace and send its
/// reply — unless the request is a notification ([`NOTIFY_PORT`]), whose
/// sender is not listening.
fn answer<F>(handle: &NetworkHandle, handler: &F, request: RpcRequest, src: NodeId)
where
    F: Fn(&[u8], NodeId) -> Vec<u8>,
{
    let _span = trace::enter(request.trace);
    let body = handler(&request.body, src);
    if request.reply_port == NOTIFY_PORT {
        return;
    }
    let reply = RpcReply {
        request_id: request.request_id,
        body,
    };
    let _ = handle.send_reliable(src, request.reply_port, reply.to_bytes());
}

/// A running RPC service on one node. Stops and joins its dispatch thread
/// (and worker pool, if any) when [`RpcServer::shutdown`] is called or the
/// server is dropped.
pub struct RpcServer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
    /// returns the reply body. It runs on the dispatch thread, so a slow
    /// handler delays subsequent requests to the same service (as it would on
    /// a single-threaded Amoeba server thread).
    pub fn serve<F>(handle: NetworkHandle, service_port: Port, handler: F) -> RpcServer
    where
        F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
    {
        Self::serve_inner(handle, service_port, handler, false)
    }

    /// Like [`RpcServer::serve`], but each request is handled on its own
    /// thread so that a handler which itself performs (nested) RPCs cannot
    /// stall unrelated requests. The primary-copy runtime system uses this:
    /// its write protocol issues update/invalidate RPCs to other nodes from
    /// inside a handler.
    pub fn serve_concurrent<F>(handle: NetworkHandle, service_port: Port, handler: F) -> RpcServer
    where
        F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
    {
        Self::serve_inner(handle, service_port, handler, true)
    }

    /// Like [`RpcServer::serve_concurrent`], but requests are handled by a
    /// fixed pool of `workers` threads created once at start-up, instead of
    /// one freshly spawned thread per request. Thread creation serializes
    /// process-wide, so a high-rate service (the sharded runtime system's
    /// owner-shipped operations) must not pay it per request. Handlers may
    /// still perform nested RPCs — they occupy one pool worker for the
    /// duration — so size the pool for the expected concurrency of such
    /// handlers.
    pub fn serve_pooled<F>(
        handle: NetworkHandle,
        service_port: Port,
        handler: F,
        workers: usize,
    ) -> RpcServer
    where
        F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
    {
        assert!(workers > 0, "worker pool must not be empty");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let node = handle.node();
        let rx = handle.bind(service_port);
        let handler = Arc::new(handler);
        let (work_tx, work_rx) = crossbeam::channel::unbounded::<(RpcRequest, NodeId)>();
        let worker_threads: Vec<JoinHandle<()>> = (0..workers)
            .map(|w| {
                let work_rx = work_rx.clone();
                let handler = Arc::clone(&handler);
                let handle = handle.clone();
                std::thread::Builder::new()
                    .name(format!("rpc-pool-{node}-{service_port}-{w}"))
                    .spawn(move || {
                        while let Ok((request, src)) = work_rx.recv() {
                            answer(&handle, handler.as_ref(), request, src);
                        }
                    })
                    .expect("spawn rpc pool worker")
            })
            .collect();
        let thread = std::thread::Builder::new()
            .name(format!("rpc-{node}-{service_port}"))
            .spawn(move || {
                // work_tx lives (only) here: returning drops it, which
                // disconnects the pool and lets the workers exit.
                loop {
                    if stop_flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let msg = match rx.recv_timeout(Duration::from_millis(25)) {
                        Ok(msg) => msg,
                        Err(NetError::Timeout) => continue,
                        Err(_) => return,
                    };
                    let request: RpcRequest = match msg.decode_payload() {
                        Ok(req) => req,
                        Err(_) => continue, // malformed request: drop it
                    };
                    if work_tx.send((request, msg.src)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn rpc dispatch thread");
        RpcServer {
            stop,
            thread: Some(thread),
            workers: worker_threads,
            node,
            port: service_port,
        }
    }

    fn serve_inner<F>(
        handle: NetworkHandle,
        service_port: Port,
        handler: F,
        concurrent: bool,
    ) -> RpcServer
    where
        F: Fn(&[u8], NodeId) -> Vec<u8> + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let node = handle.node();
        let rx = handle.bind(service_port);
        let handler = Arc::new(handler);
        let thread = std::thread::Builder::new()
            .name(format!("rpc-{node}-{service_port}"))
            .spawn(move || {
                loop {
                    if stop_flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let msg = match rx.recv_timeout(Duration::from_millis(25)) {
                        Ok(msg) => msg,
                        Err(NetError::Timeout) => continue,
                        Err(_) => return,
                    };
                    let request: RpcRequest = match msg.decode_payload() {
                        Ok(req) => req,
                        Err(_) => continue, // malformed request: drop it
                    };
                    if concurrent {
                        let handler = Arc::clone(&handler);
                        let handle = handle.clone();
                        let src = msg.src;
                        std::thread::Builder::new()
                            .name(format!("rpc-worker-{node}-{service_port}"))
                            .spawn(move || answer(&handle, handler.as_ref(), request, src))
                            .expect("spawn rpc worker thread");
                    } else {
                        answer(&handle, handler.as_ref(), request, msg.src);
                    }
                }
            })
            .expect("spawn rpc dispatch thread");
        RpcServer {
            stop,
            thread: Some(thread),
            workers: Vec::new(),
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

    /// Stop the dispatch thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // The dispatch thread held the work sender; with it gone the pool
        // drains and disconnects.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
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
    use super::*;
    use crate::network::Network;
    use crate::node::ports;

    #[test]
    fn echo_rpc_round_trip() {
        let net = Network::reliable(2);
        let server_handle = net.handle(NodeId(1));
        let _server = RpcServer::serve(server_handle, ports::USER_BASE, |body, caller| {
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
        let _server = RpcServer::serve(net.handle(NodeId(0)), ports::USER_BASE, |body, _| {
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
        // Shutdown joins the dispatch thread and the whole pool.
        server.shutdown();
    }

    #[test]
    fn multi_rpc_demultiplexes_interleaved_replies() {
        let net = Network::reliable(3);
        // Two services that echo their input with a distinguishing suffix;
        // one of them answers slowly, so its reply arrives after replies
        // to requests issued later.
        let _slow = RpcServer::serve(net.handle(NodeId(1)), ports::USER_BASE, |body, _| {
            std::thread::sleep(Duration::from_millis(60));
            let mut reply = body.to_vec();
            reply.push(1);
            reply
        });
        let _fast = RpcServer::serve(net.handle(NodeId(2)), ports::USER_BASE, |body, _| {
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
        let server = RpcServer::serve(net.handle(NodeId(0)), ports::USER_BASE, |_, _| vec![]);
        server.shutdown();
    }

    #[test]
    fn request_reply_wire_round_trip() {
        let req = RpcRequest {
            request_id: 9,
            reply_port: 1 << 40,
            body: vec![1, 2, 3],
            trace: TraceId::mint(3, 41),
        };
        assert_eq!(RpcRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        let rep = RpcReply {
            request_id: 9,
            body: vec![],
        };
        assert_eq!(RpcReply::from_bytes(&rep.to_bytes()).unwrap(), rep);
    }
}
