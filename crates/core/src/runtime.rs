//! The Orca runtime: processor pool, per-node runtime systems, processes.

use std::sync::Arc;
use std::time::Instant;

use orca_amoeba::network::{Network, NetworkConfig, NetworkHandle};
use orca_amoeba::process::{ProcessHandle, ProcessorPool};
use orca_amoeba::transport::{SocketTransport, Transport};
use orca_amoeba::{NetStatsSnapshot, NodeId};
use orca_object::{ObjectId, ObjectRegistry, ObjectType, OpKind};
use orca_rts::{
    AdaptiveRts, AsyncOp, BroadcastRts, FailureDetector, RegimeKind, RtsKind, RtsStatsSnapshot,
    RuntimeSystem, ViewSnapshot,
};
use orca_telemetry::{trace, FlightKind, HistHandle, Telemetry};
use orca_wire::Wire;

use crate::config::{OrcaConfig, RtsStrategy, TransportConfig};
use crate::handle::ObjectHandle;
use crate::{OrcaError, OrcaResult};

pub(crate) enum NodeRts {
    Broadcast(BroadcastRts),
    Adaptive(AdaptiveRts),
}

impl NodeRts {
    pub(crate) fn as_runtime(&self) -> Arc<dyn RuntimeSystem> {
        match self {
            NodeRts::Broadcast(rts) => Arc::new(rts.clone()),
            NodeRts::Adaptive(rts) => Arc::new(rts.clone()),
        }
    }

    pub(crate) fn shutdown(&self) {
        match self {
            NodeRts::Broadcast(rts) => rts.shutdown(),
            NodeRts::Adaptive(rts) => rts.shutdown(),
        }
    }

    pub(crate) fn set_batch_policy(&self, policy: orca_rts::BatchPolicy) {
        match self {
            NodeRts::Broadcast(rts) => rts.set_batch_policy(policy),
            NodeRts::Adaptive(rts) => rts.set_batch_policy(policy),
        }
    }
}

/// The communication substrate of a runtime: one shared simulated network,
/// or one real socket transport per node (all on loopback inside this
/// process).
pub(crate) enum ClusterNet {
    Sim(Network),
    Socket {
        transports: Vec<Arc<SocketTransport>>,
    },
}

impl ClusterNet {
    pub(crate) fn handle(&self, node: NodeId) -> NetworkHandle {
        match self {
            ClusterNet::Sim(net) => net.handle(node),
            ClusterNet::Socket { transports } => NetworkHandle::from_transport(Arc::clone(
                &transports[node.index()],
            )
                as Arc<dyn Transport>),
        }
    }

    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        match self {
            ClusterNet::Sim(net) => net.telemetry(),
            // Loopback transports are started with one shared hub.
            ClusterNet::Socket { transports } => transports[0].telemetry(),
        }
    }

    pub(crate) fn stats(&self) -> NetStatsSnapshot {
        match self {
            ClusterNet::Sim(net) => net.stats(),
            // Each transport fills in only its own node's row of the table
            // in the hub they share: any one of them reads every row.
            ClusterNet::Socket { transports } => transports[0].stats(),
        }
    }

    pub(crate) fn crash(&self, node: NodeId) {
        match self {
            ClusterNet::Sim(net) => net.crash(node),
            ClusterNet::Socket { transports } => transports[node.index()].crash_local(),
        }
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        match self {
            ClusterNet::Sim(net) => net.is_crashed(node),
            ClusterNet::Socket { transports } => transports[node.index()].is_crashed(node),
        }
    }
}

/// Build one node's runtime system for `config.strategy` over `handle`.
/// Shared by [`OrcaRuntime::start`] (N nodes in one process) and the
/// single-node cluster runtime in [`crate::cluster`].
pub(crate) fn build_node_rts(
    handle: NetworkHandle,
    config: &OrcaConfig,
    registry: &ObjectRegistry,
    detector: Option<Arc<FailureDetector>>,
) -> NodeRts {
    let rts = match &config.strategy {
        RtsStrategy::Broadcast(group) => {
            // The broadcast RTS needs no per-object re-homing: every
            // replica is everywhere and sequencer failure is handled
            // inside the group layer.
            NodeRts::Broadcast(BroadcastRts::start(handle, registry.clone(), group.clone()))
        }
        // Every point-to-point strategy is the one engine under a policy.
        pointwise => {
            let policy = pointwise.adaptive_policy();
            NodeRts::Adaptive(AdaptiveRts::start_recoverable(
                handle,
                registry.clone(),
                policy.expect("every strategy but broadcast runs the adaptive runtime system"),
                config.recovery,
                detector,
            ))
        }
    };
    rts.set_batch_policy(config.batch);
    rts
}

/// The per-process execution context: which node the process runs on and the
/// runtime system of that node. Cloneable and cheap to pass into forked
/// closures.
#[derive(Clone)]
pub struct OrcaNode {
    node: NodeId,
    rts: Arc<dyn RuntimeSystem>,
    telemetry: Arc<Telemetry>,
    /// Wall-clock latency of synchronous invocations (`rts.invoke.sync_ns`).
    sync_hist: HistHandle,
}

impl std::fmt::Debug for OrcaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrcaNode")
            .field("node", &self.node)
            .finish()
    }
}

impl OrcaNode {
    /// Assemble a context around an already-started runtime system. Used
    /// by [`OrcaRuntime::start`] and the single-node cluster runtime.
    pub(crate) fn assemble(
        node: NodeId,
        rts: Arc<dyn RuntimeSystem>,
        telemetry: Arc<Telemetry>,
    ) -> OrcaNode {
        let sync_hist = telemetry.registry().histogram("rts.invoke.sync_ns");
        OrcaNode {
            node,
            rts,
            telemetry,
            sync_hist,
        }
    }

    /// The simulated processor this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of processors in the pool.
    pub fn processors(&self) -> usize {
        self.rts.num_nodes()
    }

    /// Invoke an operation on a shared object.
    ///
    /// The operation's read/write classification decides whether it executes
    /// locally (reads on a replica) or is shipped by the runtime system
    /// (writes); blocking operations return only once their guard is true.
    pub fn invoke<T: ObjectType>(
        &self,
        handle: ObjectHandle<T>,
        op: &T::Op,
    ) -> OrcaResult<T::Reply> {
        let kind = T::kind(op);
        // Every invocation gets a fresh causal trace id; the guard makes
        // it the thread's current trace so every RPC, batch op, and flight
        // event this invocation triggers — on any node — carries it.
        let trace_id = self.telemetry.mint_trace(self.node.0);
        let _span = trace::enter(trace_id);
        self.telemetry.record(
            self.node.0,
            FlightKind::InvokeStart,
            trace_id,
            handle.id().0,
            kind as u64,
        );
        let started = Instant::now();
        let result = self
            .rts
            .invoke(handle.id(), T::TYPE_NAME, kind, &op.to_bytes());
        self.sync_hist.record(started.elapsed().as_nanos() as u64);
        self.telemetry.record(
            self.node.0,
            FlightKind::InvokeEnd,
            trace_id,
            handle.id().0,
            u64::from(result.is_err()),
        );
        let reply = result?;
        T::Reply::from_bytes(&reply)
            .map_err(|err| OrcaError::Communication(format!("reply decode: {err}")))
    }

    /// Invoke an operation on a shared object *asynchronously*: submission
    /// returns a completion handle immediately, letting this process keep
    /// many operations in flight while the runtime system coalesces the
    /// pending operations into per-destination batches on the wire.
    ///
    /// Operations issued by one process on one object complete in issue
    /// order; a batch that dies with its destination reports a per-op
    /// error on each handle, never silently dropping (or re-sending) an
    /// operation. A guarded operation whose guard is false re-enters the
    /// tail of the pipeline on [`crate::InvocationFuture::wait`] — use the
    /// synchronous [`OrcaNode::invoke`] for synchronization points.
    pub fn invoke_async<T: ObjectType>(
        &self,
        handle: ObjectHandle<T>,
        op: &T::Op,
    ) -> crate::InvocationFuture<T> {
        let mut futures = self.invoke_many(handle, std::slice::from_ref(op));
        futures.pop().expect("one future per operation")
    }

    /// Submit a whole slice of operations on one object asynchronously —
    /// the bulk form of [`OrcaNode::invoke_async`]. The slice enters the
    /// runtime system's submission queue at once, so it ships as one round
    /// (up to `BatchPolicy::max_batch` operations): one batch per
    /// destination. The operations execute (and complete) in slice order.
    pub fn invoke_many<T: ObjectType>(
        &self,
        handle: ObjectHandle<T>,
        ops: &[T::Op],
    ) -> Vec<crate::InvocationFuture<T>> {
        // Every operation gets its own trace, which its batch entry and its
        // remote apply carry; completion is recorded by the flusher.
        let (node, object) = (self.node.0, handle.id().0);
        let encoded: Vec<(OpKind, Vec<u8>, orca_wire::TraceId)> = ops
            .iter()
            .map(|op| {
                let (kind, trace) = (T::kind(op), self.telemetry.mint_trace(node));
                let start = FlightKind::InvokeStart;
                self.telemetry
                    .record(node, start, trace, object, kind as u64);
                (kind, op.to_bytes(), trace)
            })
            .collect();
        let submitted: Vec<AsyncOp<'_>> = encoded
            .iter()
            .map(|(kind, op, trace)| (*kind, op.as_slice(), *trace))
            .collect();
        let pending = self.rts.invoke_many(handle.id(), T::TYPE_NAME, &submitted);
        pending
            .into_iter()
            .map(crate::InvocationFuture::new)
            .collect()
    }

    /// Create a new shared object from this process's node.
    pub fn create<T: ObjectType>(&self, initial: &T::State) -> OrcaResult<ObjectHandle<T>> {
        let id = self.rts.create_object(T::TYPE_NAME, &initial.to_bytes())?;
        Ok(ObjectHandle::from_id(id))
    }

    /// Classification helper (exposed mostly for tests and instrumentation).
    pub fn op_kind<T: ObjectType>(&self, op: &T::Op) -> OpKind {
        T::kind(op)
    }

    /// Runtime-system statistics of this node.
    pub fn rts_stats(&self) -> RtsStatsSnapshot {
        self.rts.stats()
    }
}

/// The Orca runtime for one application run.
///
/// Owns the simulated network, the processor pool and one runtime-system
/// instance per node. The thread that creates the runtime plays the role of
/// Orca's main process (running on processor 0): it creates the shared
/// objects and forks worker processes.
pub struct OrcaRuntime {
    config: OrcaConfig,
    net: ClusterNet,
    pool: ProcessorPool,
    rtses: Vec<NodeRts>,
    contexts: Vec<OrcaNode>,
    /// Per-node heartbeat failure detectors (recovery enabled only),
    /// shared with the runtime systems.
    detectors: Vec<Arc<FailureDetector>>,
}

impl std::fmt::Debug for OrcaRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrcaRuntime")
            .field("processors", &self.config.processors)
            .field("strategy", &self.config.strategy.kind())
            .finish()
    }
}

impl OrcaRuntime {
    /// Start a runtime with the given configuration and object registry.
    ///
    /// The registry must contain every object type the application shares
    /// (start from [`crate::standard_registry`] and add application types).
    pub fn start(config: OrcaConfig, registry: ObjectRegistry) -> Self {
        assert!(config.processors > 0, "need at least one processor");
        let net = match config.transport {
            TransportConfig::Sim => ClusterNet::Sim(Network::new(NetworkConfig::with_fault(
                config.processors,
                config.fault,
            ))),
            TransportConfig::SocketLoopback => ClusterNet::Socket {
                transports: SocketTransport::start_loopback_cluster(config.processors)
                    .expect("bind loopback socket cluster"),
            },
        };
        let pool = ProcessorPool::new(config.processors);
        // With recovery enabled, one heartbeat failure detector per node is
        // started here and shared with that node's runtime system, so the
        // application (kill_node / membership_view) and the RTS see the
        // same membership.
        let detectors: Vec<Arc<FailureDetector>> = if config.recovery.enabled {
            (0..config.processors)
                .map(|node| {
                    FailureDetector::start(
                        net.handle(NodeId::from(node)),
                        config.recovery.failure_config(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        // On sockets the group layer's fail-stop oracle is not the perfect
        // simulator crash flag but the failure detector's verdict: wire
        // each node's detector into its transport's confirmed-dead set.
        if let ClusterNet::Socket { transports } = &net {
            for (index, detector) in detectors.iter().enumerate() {
                let transport = Arc::clone(&transports[index]);
                detector.on_failure(Box::new(move |dead, _view| transport.confirm_dead(dead)));
            }
        }
        let mut rtses = Vec::with_capacity(config.processors);
        for node in 0..config.processors {
            let node = NodeId::from(node);
            let detector = detectors.get(node.index()).cloned();
            rtses.push(build_node_rts(
                net.handle(node),
                &config,
                &registry,
                detector,
            ));
        }
        let telemetry = Arc::clone(net.telemetry());
        let sync_hist = telemetry.registry().histogram("rts.invoke.sync_ns");
        let contexts: Vec<OrcaNode> = rtses
            .iter()
            .enumerate()
            .map(|(index, rts)| OrcaNode {
                node: NodeId::from(index),
                rts: rts.as_runtime(),
                telemetry: Arc::clone(&telemetry),
                sync_hist: Arc::clone(&sync_hist),
            })
            .collect();
        OrcaRuntime {
            config,
            net,
            pool,
            rtses,
            contexts,
            detectors,
        }
    }

    /// Convenience constructor: broadcast RTS with the standard object
    /// registry.
    pub fn standard(processors: usize) -> Self {
        OrcaRuntime::start(
            OrcaConfig::broadcast(processors),
            crate::standard_registry(),
        )
    }

    /// Number of processors in the pool.
    pub fn processors(&self) -> usize {
        self.config.processors
    }

    /// The configuration this runtime was started with.
    pub fn config(&self) -> &OrcaConfig {
        &self.config
    }

    /// The execution context of the main process (processor 0).
    pub fn main(&self) -> &OrcaNode {
        &self.contexts[0]
    }

    /// The execution context of an arbitrary processor (used by tests and by
    /// the benchmark harness; application code normally receives its context
    /// through [`OrcaRuntime::fork_on`]).
    pub fn context(&self, node: usize) -> &OrcaNode {
        &self.contexts[node]
    }

    /// Create a shared object from the main process.
    pub fn create<T: ObjectType>(&self, initial: &T::State) -> OrcaResult<ObjectHandle<T>> {
        self.main().create(initial)
    }

    /// Fork a process on an explicit processor (Orca's `fork f() on (cpu)`).
    ///
    /// The closure receives the [`OrcaNode`] context of that processor; any
    /// [`ObjectHandle`]s it captures become the process's shared parameters.
    pub fn fork_on<R, F>(&self, cpu: usize, name: &str, body: F) -> ProcessHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(OrcaNode) -> R + Send + 'static,
    {
        let ctx = self.contexts[cpu % self.config.processors].clone();
        self.pool.spawn_on(
            NodeId::from(cpu % self.config.processors),
            name,
            move || body(ctx),
        )
    }

    /// Fork a process with default (round-robin) placement.
    pub fn fork<R, F>(&self, name: &str, body: F) -> ProcessHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(OrcaNode) -> R + Send + 'static,
    {
        let node = self.pool.total_processes() % self.config.processors;
        self.fork_on(node, name, body)
    }

    /// Network-level statistics (messages, bytes, interrupts per node).
    pub fn network_stats(&self) -> NetStatsSnapshot {
        self.net.stats()
    }

    /// The run's telemetry hub: metrics registry, flight recorder rings,
    /// and trace minting — shared by the network and every runtime system.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.net.telemetry()
    }

    /// Runtime-system statistics of every node.
    pub fn rts_stats(&self) -> Vec<RtsStatsSnapshot> {
        self.contexts.iter().map(|ctx| ctx.rts_stats()).collect()
    }

    /// Direct access to the simulated network (for crash injection and the
    /// model checker's schedule driver in tests).
    ///
    /// # Panics
    ///
    /// Panics when the runtime was started with
    /// [`TransportConfig::SocketLoopback`]: fault injection and the
    /// scheduler seam exist only on the simulator. Socket runtimes inject
    /// failures through [`OrcaRuntime::kill_node`].
    pub fn network(&self) -> &Network {
        match &self.net {
            ClusterNet::Sim(network) => network,
            ClusterNet::Socket { .. } => {
                panic!("OrcaRuntime::network() is simulator-only; this runtime uses sockets")
            }
        }
    }

    /// Kill `node`: its network traffic stops in both directions, exactly
    /// as if the machine lost power (fail-stop — the kill is permanent for
    /// the membership even if the network is later un-crashed). With
    /// recovery enabled, survivors detect the silence, agree on a new
    /// membership view, and re-home the node's objects.
    pub fn kill_node(&self, node: NodeId) {
        self.net.crash(node);
    }

    /// The membership view of the lowest live node's failure detector, or
    /// `None` when recovery is disabled. Tests and benchmarks use this to
    /// wait for a kill to be detected (`view.epoch` bumps once per death).
    pub fn membership_view(&self) -> Option<ViewSnapshot> {
        self.detectors
            .iter()
            .find(|d| !self.net.is_crashed(d.node()))
            .map(|d| d.view())
    }

    /// The runtime system of the lowest *live* node, so introspection
    /// helpers keep answering (instead of timing out against their own
    /// dead transport) after `kill_node` took out node 0.
    fn live_rts(&self) -> &NodeRts {
        self.rtses
            .iter()
            .enumerate()
            .find(|(index, _)| !self.net.is_crashed(NodeId::from(*index)))
            .map(|(_, rts)| rts)
            .unwrap_or(&self.rtses[0])
    }

    /// Partition owners of `object` under the sharded strategy (one entry
    /// per partition, freshly read from the object's home node), or `None`
    /// when another strategy is running. Used by tests and the benchmark
    /// harness to observe shard placement.
    pub fn shard_owners(&self, object: ObjectId) -> Option<Vec<NodeId>> {
        match self.live_rts() {
            NodeRts::Adaptive(rts) if rts.kind() == RtsKind::Sharded => {
                rts.placement_of(object).ok().map(|(_, _, owners)| owners)
            }
            _ => None,
        }
    }

    /// Nodes that hold a copy of `object` besides its authoritative ones:
    /// the read mirrors — the primary-copy strategy's secondary copies, a
    /// sharded object's mirrors of every partition a node does not own —
    /// the object's published table lists, as `node` reads it from the home.
    /// `None` under the broadcast strategy.
    pub fn copy_holders(&self, node: usize, object: ObjectId) -> Option<Vec<NodeId>> {
        match &self.rtses[node] {
            NodeRts::Adaptive(rts) => rts.copy_holders(object).ok(),
            NodeRts::Broadcast(_) => None,
        }
    }

    /// Move one partition of `object` to node `dst` (sharded strategy
    /// only; `None` when another strategy is running). The object's
    /// creating node, its home, performs the move as a switch to the same
    /// regime. Used by tests and the model checker to force a shard to
    /// change owners at a chosen point in a workload.
    pub fn migrate_shard(
        &self,
        object: ObjectId,
        partition: u32,
        dst: NodeId,
    ) -> Option<Result<(), orca_rts::RtsError>> {
        match &self.rtses[usize::from(object.creator_index())] {
            NodeRts::Adaptive(rts) if rts.kind() == RtsKind::Sharded => {
                Some(rts.migrate(object, partition, dst))
            }
            _ => None,
        }
    }

    /// The regime currently serving `object` under the adaptive runtime
    /// system (freshly read from the object's home node; always
    /// [`RegimeKind::Sharded`] under the sharded strategy and
    /// [`RegimeKind::Replicated`] under the primary-copy one, which are
    /// that runtime with the regime pinned), or `None` under the broadcast
    /// strategy. Used by tests and the benchmark harness to observe
    /// adaptation.
    pub fn object_regime(&self, object: ObjectId) -> Option<RegimeKind> {
        match self.live_rts() {
            NodeRts::Adaptive(rts) => rts.regime_of(object).ok().map(|(regime, _)| regime),
            _ => None,
        }
    }

    /// The node owning each authoritative replica of `object` under the
    /// adaptive runtime system — one per partition in the sharded regime,
    /// the single copy's owner in the replicated one, a node that writes
    /// the object (freshly read from the object's home node) — or `None`
    /// under the broadcast strategy.
    pub fn object_placement(&self, object: ObjectId) -> Option<Vec<NodeId>> {
        match self.live_rts() {
            NodeRts::Adaptive(rts) => rts.placement_of(object).ok().map(|(_, _, owners)| owners),
            _ => None,
        }
    }

    /// Ask the home node of `object` to re-evaluate its regime — under the
    /// primary-copy strategy, where its copies live — now, after flushing
    /// every node's unreported usage (`None` under the broadcast strategy).
    /// Returns the — possibly freshly switched — regime.
    pub fn propose_regime(&self, object: ObjectId) -> Option<RegimeKind> {
        for (index, rts) in self.rtses.iter().enumerate() {
            if self.net.is_crashed(NodeId::from(index)) {
                continue;
            }
            if let NodeRts::Adaptive(rts) = rts {
                rts.flush_usage(object);
            }
        }
        match self.live_rts() {
            NodeRts::Adaptive(rts) => rts.propose(object).ok(),
            _ => None,
        }
    }

    /// Shut down every node's runtime system. Called automatically on drop.
    pub fn shutdown(&self) {
        for rts in &self.rtses {
            rts.shutdown();
        }
        for detector in &self.detectors {
            detector.shutdown();
        }
    }
}

impl Drop for OrcaRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{IntObject, IntOp};

    #[test]
    fn fork_and_shared_counter_roundtrip() {
        let runtime = OrcaRuntime::standard(3);
        let counter = runtime.create::<IntObject>(&0).unwrap();
        let mut workers = Vec::new();
        for w in 0..3 {
            let handle = counter;
            workers.push(runtime.fork_on(w, "adder", move |ctx| {
                for _ in 0..10 {
                    ctx.invoke(handle, &IntOp::Add(1)).unwrap();
                }
                ctx.node().index()
            }));
        }
        let nodes: Vec<usize> = workers.into_iter().map(|w| w.join()).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
        let total = runtime.main().invoke(counter, &IntOp::Value).unwrap();
        assert_eq!(total, 30);
        assert!(runtime.network_stats().total_messages() > 0);
        assert_eq!(runtime.rts_stats().len(), 3);
    }

    #[test]
    fn primary_copy_strategy_also_works_end_to_end() {
        let runtime = OrcaRuntime::start(
            OrcaConfig::primary_copy(2, orca_rts::WritePolicy::Update),
            crate::standard_registry(),
        );
        let counter = runtime.create::<IntObject>(&5).unwrap();
        let worker = runtime.fork_on(1, "w", move |ctx| {
            ctx.invoke(counter, &IntOp::Add(7)).unwrap()
        });
        assert_eq!(worker.join(), 12);
        assert_eq!(runtime.main().invoke(counter, &IntOp::Value).unwrap(), 12);
    }

    #[test]
    fn sharded_strategy_works_end_to_end() {
        use crate::objects::JobQueue;
        let runtime = OrcaRuntime::start(OrcaConfig::sharded(3, 4), crate::standard_registry());
        let queue: JobQueue<u32> = JobQueue::create(runtime.main()).unwrap();
        for job in 0..30 {
            queue.add(runtime.main(), &job).unwrap();
        }
        queue.close(runtime.main()).unwrap();
        // The queue really is partitioned: four owners, placement visible.
        let owners = runtime.shard_owners(queue.handle().id()).unwrap();
        assert_eq!(owners.len(), 4);
        let mut workers = Vec::new();
        for w in 0..3 {
            workers.push(runtime.fork_on(w, "drain", move |ctx| {
                let mut got = Vec::new();
                while let Some(job) = queue.get(&ctx).unwrap() {
                    got.push(job);
                }
                got
            }));
        }
        let mut all: Vec<u32> = workers.into_iter().flat_map(|w| w.join()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());

        // Non-shardable types keep working through the fallback.
        let counter = runtime.create::<IntObject>(&0).unwrap();
        runtime.main().invoke(counter, &IntOp::Add(5)).unwrap();
        assert_eq!(
            runtime.context(1).invoke(counter, &IntOp::Value).unwrap(),
            5
        );
        assert!(runtime.shard_owners(counter.id()).is_some());
        assert_eq!(runtime.config().strategy.kind(), orca_rts::RtsKind::Sharded);
    }

    #[test]
    fn adaptive_strategy_works_end_to_end() {
        use crate::objects::JobQueue;
        use orca_rts::AdaptivePolicy;
        let config = OrcaConfig {
            strategy: crate::RtsStrategy::Adaptive {
                policy: AdaptivePolicy::eager(),
            },
            ..OrcaConfig::adaptive(3)
        };
        let runtime = OrcaRuntime::start(config, crate::standard_registry());
        let queue: JobQueue<u32> = JobQueue::create(runtime.main()).unwrap();
        for job in 0..30 {
            queue.add(runtime.main(), &job).unwrap();
        }
        queue.close(runtime.main()).unwrap();
        // Every object starts one copy at its creator; the write-hot queue
        // stays there once the evidence is in: its one writer holds it, and
        // partitions would ship three quarters of its writes.
        let proposed = runtime.propose_regime(queue.handle().id()).unwrap();
        assert_eq!(proposed, orca_rts::RegimeKind::Replicated);
        let placement = runtime.object_placement(queue.handle().id());
        assert_eq!(placement, Some(vec![NodeId(0)]));
        let mut workers = Vec::new();
        for w in 0..3 {
            workers.push(runtime.fork_on(w, "drain", move |ctx| {
                let mut got = Vec::new();
                while let Some(job) = queue.get(&ctx).unwrap() {
                    got.push(job);
                }
                got
            }));
        }
        let mut all: Vec<u32> = workers.into_iter().flat_map(|w| w.join()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());

        // Non-shardable types keep working (primary or replicated regime).
        let counter = runtime.create::<IntObject>(&0).unwrap();
        runtime.main().invoke(counter, &IntOp::Add(5)).unwrap();
        assert_eq!(
            runtime.context(1).invoke(counter, &IntOp::Value).unwrap(),
            5
        );
        assert!(runtime.object_regime(counter.id()).is_some());
        assert!(runtime.shard_owners(counter.id()).is_none());
        assert_eq!(
            runtime.config().strategy.kind(),
            orca_rts::RtsKind::Adaptive
        );
    }

    #[test]
    fn async_invocations_complete_in_issue_order_on_every_backend() {
        use orca_rts::BatchPolicy;
        let configs = [
            OrcaConfig::broadcast(3),
            OrcaConfig::primary_copy(3, orca_rts::WritePolicy::Update),
            OrcaConfig::sharded(3, 4),
            OrcaConfig::adaptive(3),
        ];
        for config in configs {
            let kind = config.strategy.kind();
            // A small flush delay so the bulk submission coalesces into
            // few wire batches.
            let config = config.with_batch(BatchPolicy {
                max_batch: 64,
                max_delay: std::time::Duration::from_millis(40),
            });
            let runtime = OrcaRuntime::start(config, crate::standard_registry());
            let counter = runtime.create::<IntObject>(&0).unwrap();
            let ctx = runtime.context(1);
            let ops: Vec<IntOp> = (1..=20).map(IntOp::Add).collect();
            let futures = ctx.invoke_many(counter, &ops);
            // Completions resolve in issue order: at any instant the
            // resolved futures form a prefix of the submission order.
            loop {
                // Snapshot back to front: resolution is monotone in time
                // and in issue order, so a future seen resolved here
                // guarantees every earlier-issued future (read afterwards)
                // is resolved too — the prefix check cannot race the
                // flusher resolving mid-sweep.
                let mut resolved: Vec<bool> = futures
                    .iter()
                    .rev()
                    .map(|f| f.try_get().is_some())
                    .collect();
                resolved.reverse();
                let gap = resolved
                    .iter()
                    .position(|done| !done)
                    .unwrap_or(resolved.len());
                assert!(
                    resolved[gap..].iter().all(|done| !done),
                    "[{}] completions out of issue order: {resolved:?}",
                    kind.name(),
                );
                if gap == resolved.len() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // Replies are the running sums of a single sequentially
            // consistent execution in issue order.
            let mut sum = 0i64;
            for (i, future) in futures.iter().enumerate() {
                sum += (i + 1) as i64;
                assert_eq!(future.wait().unwrap(), sum, "[{}] op {i}", kind.name());
            }
            // The wire path really batched: 20 ops went out in (far)
            // fewer than 20 destination messages.
            let stats = ctx.rts_stats();
            assert_eq!(stats.ops_batched, 20, "[{}]", kind.name());
            assert!(
                stats.batches_sent >= 1 && stats.batches_sent <= 5,
                "[{}] expected coalescing, got {} batches for 20 ops",
                kind.name(),
                stats.batches_sent
            );
            runtime.shutdown();
        }
    }

    /// Under the default batching knobs — no flush delay — a window
    /// submitted at once ships as one batch: to the sequencer's total order,
    /// or to the node holding the one copy.
    #[test]
    fn an_invoke_many_window_is_one_batch() {
        use orca_rts::{AdaptivePolicy, WritePolicy};
        // Nothing is reported, so the copy stays at its creator, node 0.
        let policy = AdaptivePolicy {
            window: u64::MAX,
            ..AdaptivePolicy::primary_copy(WritePolicy::Update)
        };
        let primary = OrcaConfig {
            strategy: crate::RtsStrategy::Adaptive { policy },
            ..OrcaConfig::primary_copy(3, WritePolicy::Update)
        };
        for config in [OrcaConfig::broadcast(3), primary] {
            let kind = config.strategy.kind();
            let runtime = OrcaRuntime::start(config, crate::standard_registry());
            let counter = runtime.create::<IntObject>(&0).unwrap();
            let ctx = runtime.context(1);
            let ops: Vec<IntOp> = (1..=20).map(IntOp::Add).collect();
            // The second window finds the flusher started and waiting.
            for (window, sum) in [(0, 210), (1, 420)] {
                let before = ctx.rts_stats();
                let futures = ctx.invoke_many(counter, &ops);
                let replies: Vec<i64> = futures.iter().map(|f| f.wait().unwrap()).collect();
                assert_eq!(replies.last(), Some(&sum), "[{}]", kind.name());
                let after = ctx.rts_stats();
                assert_eq!(
                    (
                        after.batches_sent - before.batches_sent,
                        after.ops_batched - before.ops_batched
                    ),
                    (1, 20),
                    "[{}] batches and operations of window {window}",
                    kind.name()
                );
            }
            runtime.shutdown();
        }
    }

    /// A pipelined read is counted where it executes — at this node or
    /// shipped — once, like a synchronous one.
    #[test]
    fn pipelined_reads_are_counted_once_each() {
        use crate::objects::{KvTableObject, KvTableOp};
        let runtime = OrcaRuntime::start(OrcaConfig::sharded(3, 4), crate::standard_registry());
        let table = runtime
            .create::<KvTableObject>(&Default::default())
            .unwrap();
        let ctx = runtime.context(1);
        let before = ctx.rts_stats();
        let reads: Vec<KvTableOp> = (0..20u64)
            .map(|key| KvTableOp::Get(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        for future in ctx.invoke_many(table, &reads) {
            future.wait().unwrap();
        }
        let after = ctx.rts_stats();
        let counted =
            (after.local_reads + after.remote_reads) - (before.local_reads + before.remote_reads);
        assert_eq!(counted, 20, "{after:?}");
        assert!(after.remote_reads > before.remote_reads, "{after:?}");
        runtime.shutdown();
    }

    #[test]
    fn socket_loopback_transport_runs_the_stack() {
        let config = OrcaConfig::primary_copy(3, orca_rts::WritePolicy::Update)
            .with_transport(crate::TransportConfig::SocketLoopback);
        let runtime = OrcaRuntime::start(config, crate::standard_registry());
        let counter = runtime.create::<IntObject>(&0).unwrap();
        let mut workers = Vec::new();
        for w in 0..3 {
            workers.push(runtime.fork_on(w, "adder", move |ctx| {
                for _ in 0..5 {
                    ctx.invoke(counter, &IntOp::Add(1)).unwrap();
                }
            }));
        }
        for worker in workers {
            worker.join();
        }
        assert_eq!(runtime.main().invoke(counter, &IntOp::Value).unwrap(), 15);
        // The traffic really went over sockets: the shared per-node table
        // has every node's own row populated.
        assert!(runtime.network_stats().total_messages() > 0);
    }

    #[test]
    fn round_robin_fork_distributes_processes() {
        let runtime = OrcaRuntime::standard(2);
        let a = runtime.fork("a", |ctx| ctx.node().index());
        let b = runtime.fork("b", |ctx| ctx.node().index());
        let (a, b) = (a.join(), b.join());
        assert_ne!(a, b);
    }
}
