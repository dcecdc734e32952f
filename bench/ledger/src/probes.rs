//! Layer probes: each layer's public functions timed on their own, from
//! outside, so a whole-invocation number can be split into the parts that
//! make it up. Every probe reports the median of its timed blocks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::rpc::{rpc_call, RpcServer};
use orca_amoeba::transport::Transport;
use orca_amoeba::{ports, Network, NetworkHandle, NodeId, SocketTransport};
use orca_core::objects::{KvTableObject, KvTableOp, TableEntry};
use orca_core::{standard_registry, OrcaConfig, OrcaRuntime};
use orca_group::{GroupConfig, GroupMember};
use orca_telemetry::{FlightKind, Hist, Telemetry};
use orca_wire::{BatchOp, OpBatch, TraceId, Wire};

use crate::cell::{key_of, Inputs};
use crate::names::{Metrics, Workload, KEYS, NODES, WINDOW};
use crate::spans::{SpanBuf, SpanKind, SpanLog, SpanSource};
use crate::stats::median;
use crate::sys;

const PING_PORT: u64 = ports::USER_BASE + 1;
const PONG_PORT: u64 = ports::USER_BASE + 2;
const RPC_PORT: u64 = ports::USER_BASE + 3;
/// How long a probe waits for a message the layer under it promises to
/// deliver; running out means the layer is broken, not slow.
const DELIVERY_PATIENCE: Duration = Duration::from_secs(30);
/// How long a probe waits before it counts a datagram as dropped.
const DATAGRAM_PATIENCE: Duration = Duration::from_millis(100);

/// Runs the probes and collects their metrics and spans.
pub struct Prober<'a> {
    /// Time each probe may spend in timed blocks.
    budget: Duration,
    /// Divides the fixed iteration counts (warm-ups, stream lengths): 1
    /// for a real run, more for the smoke run.
    shrink: usize,
    epoch: Instant,
    log: &'a mut SpanLog,
    metrics: Metrics,
}

fn sample_put(i: usize) -> KvTableOp {
    KvTableOp::Put {
        key: key_of(i % KEYS),
        entry: TableEntry {
            depth: 1 + i as i32,
            value: (i as i64) << 8,
            aux: key_of(i % KEYS),
        },
    }
}

fn sample_batch() -> OpBatch {
    OpBatch {
        batch: 77,
        ops: (0..WINDOW)
            .map(|i| BatchOp {
                id: 1000 + i as u64,
                object: 1 << 48 | 1,
                partition: (i % 4) as u32,
                epoch: 3,
                op: sample_put(i).to_bytes(),
                trace: TraceId::mint(1, i as u64),
            })
            .collect(),
    }
}

impl<'a> Prober<'a> {
    /// A prober whose probes each run timed blocks for `budget`, with
    /// fixed iteration counts divided by `shrink`.
    pub fn new(
        budget: Duration,
        shrink: usize,
        epoch: Instant,
        log: &'a mut SpanLog,
    ) -> Prober<'a> {
        Prober {
            budget,
            shrink,
            epoch,
            log,
            metrics: Metrics::default(),
        }
    }

    fn keep_spans(&mut self, probe: &str, spans: SpanBuf) {
        let source = SpanSource {
            scope: probe.to_string(),
            round: 0,
            client: 0,
        };
        self.log.keep(source, spans);
    }

    /// Time `body` in blocks of `iters` calls until the budget is spent
    /// (five blocks at least); returns the median nanoseconds per call.
    fn time(&mut self, name: &str, iters: usize, mut body: impl FnMut()) -> f64 {
        let mut spans = SpanBuf::new(self.epoch, 4096);
        let mut per_call = Vec::new();
        let deadline = Instant::now() + self.budget;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                body();
            }
            let end = Instant::now();
            spans.record(SpanKind::Probe, 0, start, end);
            per_call.push((end - start).as_nanos() as f64 / iters as f64);
            if end >= deadline && per_call.len() >= 5 {
                break;
            }
        }
        self.keep_spans(name, spans);
        median(&per_call).expect("five blocks at least")
    }

    fn wire(&mut self) {
        let put = sample_put(7);
        let bytes = put.to_bytes();
        let ns = self.time("wire.encode_op_ns", 2000, || {
            std::hint::black_box(std::hint::black_box(&put).to_bytes());
        });
        self.metrics.push("wire.encode_op_ns", ns, "ns");
        let ns = self.time("wire.decode_op_ns", 2000, || {
            std::hint::black_box(KvTableOp::from_bytes(std::hint::black_box(&bytes)).unwrap());
        });
        self.metrics.push("wire.decode_op_ns", ns, "ns");

        let batch = sample_batch();
        let mut buf = Vec::new();
        // The buffer-reusing encode is what the runtime systems' send
        // paths call.
        let ns = self.time("wire.encode_batch64_ns", 100, || {
            buf.clear();
            std::hint::black_box(&batch).encode_into(&mut buf);
            std::hint::black_box(&buf);
        });
        self.metrics.push("wire.encode_batch64_ns", ns, "ns");
        let encoded = batch.to_bytes();
        let ns = self.time("wire.decode_batch64_ns", 100, || {
            std::hint::black_box(OpBatch::from_bytes(std::hint::black_box(&encoded)).unwrap());
        });
        self.metrics.push("wire.decode_batch64_ns", ns, "ns");
        self.metrics
            .push("wire.batch64_bytes", encoded.len() as f64, "B");
        let before = sys::allocations();
        let decoded = OpBatch::from_bytes(&encoded).unwrap();
        let allocs = sys::allocations() - before;
        assert_eq!(decoded, batch, "batch codec round trip");
        self.metrics
            .push("wire.decode_batch64_allocs", allocs as f64, "count");
    }

    /// Round trip of a small message between two nodes: `reliable` picks
    /// the stream path (TCP on sockets), otherwise the datagram path.
    fn round_trip(&mut self, name: &str, nodes: &[NetworkHandle], reliable: bool) {
        let stop = Arc::new(AtomicBool::new(false));
        let echo = {
            let (handle, stop) = (nodes[1].clone(), Arc::clone(&stop));
            let ping = handle.bind(PING_PORT);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let Ok(msg) = ping.recv_timeout(Duration::from_millis(20)) else {
                        continue;
                    };
                    let sent = if reliable {
                        handle.send_reliable(msg.src, PONG_PORT, msg.payload)
                    } else {
                        handle.send(msg.src, PONG_PORT, msg.payload)
                    };
                    sent.expect("echo send");
                }
            })
        };
        let pong = nodes[0].bind(PONG_PORT);
        let payload = sample_put(3).to_bytes();
        let handle = nodes[0].clone();
        let mut lost = 0u64;
        let mut ping = || {
            let sent = if reliable {
                handle.send_reliable(NodeId(1), PING_PORT, payload.clone())
            } else {
                handle.send(NodeId(1), PING_PORT, payload.clone())
            };
            sent.expect("ping send");
            // A datagram may be dropped; a lost ping costs its timeout and
            // shows as an outlier block, which the median ignores. A
            // reliable ping is only late, never lost: on a shared host the
            // process can be off the CPU for longer than any short timeout.
            let patience = if reliable {
                DELIVERY_PATIENCE
            } else {
                DATAGRAM_PATIENCE
            };
            if pong.recv_timeout(patience).is_err() {
                lost += 1;
            }
        };
        for _ in 0..200 / self.shrink {
            ping(); // connect and warm the path
        }
        let ns = self.time(name, 50, ping);
        stop.store(true, Ordering::Release);
        echo.join().expect("echo thread");
        assert!(!reliable || lost == 0, "{name}: reliable ping lost");
        self.metrics.push(name, ns / 1000.0, "us");
    }

    /// One-way stream of small reliable frames, node 0 to node 1.
    fn tcp_stream(&mut self, nodes: &[NetworkHandle]) {
        let frames = 20_000 / self.shrink;
        let sink = nodes[1].bind(PING_PORT);
        let payload = sample_put(5).to_bytes();
        let mut rates = Vec::new();
        let mut spans = SpanBuf::new(self.epoch, 16);
        let deadline = Instant::now() + 2 * self.budget;
        while rates.len() < 3 || (Instant::now() < deadline && rates.len() < 9) {
            let (handle, payload) = (nodes[0].clone(), payload.clone());
            let start = Instant::now();
            let sender = std::thread::spawn(move || {
                for _ in 0..frames {
                    handle
                        .send_reliable(NodeId(1), PING_PORT, payload.clone())
                        .expect("stream send");
                }
            });
            for _ in 0..frames {
                sink.recv_timeout(DELIVERY_PATIENCE)
                    .expect("stream frame arrives");
            }
            let end = Instant::now();
            sender.join().expect("stream sender");
            spans.record(SpanKind::Probe, 0, start, end);
            rates.push(frames as f64 / (end - start).as_secs_f64());
        }
        self.keep_spans("amoeba.tcp_stream_frames_per_s", spans);
        self.metrics.push(
            "amoeba.tcp_stream_frames_per_s",
            median(&rates).expect("three rounds at least"),
            "1/s",
        );
    }

    /// `rpc_call` against an echo service on a four-worker pool.
    fn rpc(&mut self, name: &str, nodes: &[NetworkHandle]) {
        let server =
            RpcServer::serve_pooled(nodes[1].clone(), RPC_PORT, |body, _| body.to_vec(), 4);
        let body = sample_put(9).to_bytes();
        let handle = nodes[0].clone();
        let call = || {
            let reply = rpc_call(&handle, NodeId(1), RPC_PORT, body.clone()).expect("echo rpc");
            assert_eq!(reply.len(), body.len());
        };
        for _ in 0..200 / self.shrink {
            call();
        }
        let ns = self.time(name, 50, call);
        server.shutdown();
        self.metrics.push(name, ns / 1000.0, "us");
    }

    /// Totally-ordered broadcast from a non-sequencer member (node 1, like
    /// the benchmark's clients) to its own delivery; with `stream`, also
    /// the rate of back-to-back broadcasts and the retries they needed.
    fn group(&mut self, name: &str, nodes: &[NetworkHandle], stream: bool) {
        let members: Vec<GroupMember> = nodes
            .iter()
            .map(|handle| GroupMember::start(handle.clone(), GroupConfig::default()))
            .collect();
        let payload = sample_put(11).to_bytes();
        // The other members' deliveries are drained so their queues stay
        // short; only member 1 is timed.
        let stop = Arc::new(AtomicBool::new(false));
        let mut members = members.into_iter();
        let (first, sender) = (members.next().expect("3"), members.next().expect("3"));
        let drains: Vec<_> = std::iter::once(first)
            .chain(members)
            .map(|member| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let _ = member.recv_timeout(Duration::from_millis(20));
                    }
                    member
                })
            })
            .collect();
        let broadcast = || {
            sender.broadcast(payload.clone()).expect("member alive");
            sender
                .recv_timeout(DELIVERY_PATIENCE)
                .expect("own broadcast is delivered");
        };
        for _ in 0..200 / self.shrink {
            broadcast();
        }
        let ns = self.time(name, 20, broadcast);
        self.metrics.push(name, ns / 1000.0, "us");

        if stream {
            let messages = 4096 / self.shrink / WINDOW * WINDOW;
            let mut rates = Vec::new();
            let before = sender.stats();
            let mut spans = SpanBuf::new(self.epoch, 16);
            for _ in 0..3 {
                let start = Instant::now();
                // At most one window in flight, as the runtime system's
                // pipeline keeps it: the group layer has no flow control of
                // its own, and thousands of unacknowledged broadcasts
                // overflow the datagram sockets' buffers, after which every
                // retransmission round overflows them again.
                for _ in 0..messages / WINDOW {
                    for _ in 0..WINDOW {
                        sender.broadcast(payload.clone()).expect("member alive");
                    }
                    for _ in 0..WINDOW {
                        sender
                            .recv_timeout(DELIVERY_PATIENCE)
                            .expect("streamed broadcast is delivered");
                    }
                }
                let end = Instant::now();
                spans.record(SpanKind::Probe, 0, start, end);
                rates.push(messages as f64 / (end - start).as_secs_f64());
            }
            self.keep_spans("group.stream_msgs_per_s", spans);
            let delta = sender.stats().since(&before);
            self.metrics.push(
                "group.stream_msgs_per_s",
                median(&rates).expect("three rounds"),
                "1/s",
            );
            self.metrics.push(
                "group.retries_per_kmsg",
                1000.0 * (delta.send_retries + delta.retransmit_requests) as f64
                    / (3 * messages) as f64,
                "count",
            );
        }
        stop.store(true, Ordering::Release);
        sender.shutdown();
        for drain in drains {
            drain.join().expect("drain thread").shutdown();
        }
    }

    fn object(&mut self) {
        let inputs = Inputs::generate(Workload::WriteSyncTcp, 0);
        let state = inputs.initial_state().to_bytes();
        let mut replica = standard_registry()
            .instantiate(
                <KvTableObject as orca_object::ObjectType>::TYPE_NAME,
                &state,
            )
            .expect("KvTable is registered");
        let puts: Vec<Vec<u8>> = (0..256).map(|i| sample_put(i * 13).to_bytes()).collect();
        let gets: Vec<Vec<u8>> = (0..256)
            .map(|i| KvTableOp::Get(key_of(i * 13 % KEYS)).to_bytes())
            .collect();
        let mut i = 0;
        let ns = self.time("object.apply_put_ns", 2000, || {
            i = (i + 1) % puts.len();
            std::hint::black_box(replica.apply_encoded(&puts[i]).expect("apply put"));
        });
        self.metrics.push("object.apply_put_ns", ns, "ns");
        let ns = self.time("object.apply_get_ns", 2000, || {
            i = (i + 1) % gets.len();
            std::hint::black_box(replica.apply_encoded(&gets[i]).expect("apply get"));
        });
        self.metrics.push("object.apply_get_ns", ns, "ns");
        let ns = self.time("object.state_encode_us", 5, || {
            std::hint::black_box(replica.state_bytes());
        });
        self.metrics
            .push("object.state_encode_us", ns / 1000.0, "us");
    }

    fn telemetry(&mut self) {
        let hist = Hist::new();
        let mut value = 1u64;
        let ns = self.time("telemetry.hist_record_ns", 5000, || {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(std::hint::black_box(value >> 40));
        });
        self.metrics.push("telemetry.hist_record_ns", ns, "ns");
        let hub = Telemetry::new(NODES);
        let ns = self.time("telemetry.flight_record_ns", 5000, || {
            hub.record(1, FlightKind::InvokeStart, TraceId::mint(1, 5), 7, 1);
        });
        self.metrics.push("telemetry.flight_record_ns", ns, "ns");
        let ns = self.time("telemetry.mint_trace_ns", 5000, || {
            std::hint::black_box(hub.mint_trace(1));
        });
        self.metrics.push("telemetry.mint_trace_ns", ns, "ns");
    }

    /// A read on a one-node runtime: the whole `invoke` path with nothing
    /// to ship and a trivial apply.
    fn core(&mut self) {
        let runtime = OrcaRuntime::start(OrcaConfig::broadcast(1), standard_registry());
        let inputs = Inputs::generate(Workload::WriteSyncTcp, 0);
        let table = runtime
            .create::<KvTableObject>(inputs.initial_state())
            .expect("create table");
        let ctx = runtime.main().clone();
        let mut i = 0;
        let ns = self.time("core.invoke_overhead_ns", 1000, || {
            i = (i + 1) % KEYS;
            std::hint::black_box(
                ctx.invoke(table, &KvTableOp::Get(key_of(i)))
                    .expect("local read"),
            );
        });
        runtime.shutdown();
        self.metrics.push("core.invoke_overhead_ns", ns, "ns");
    }

    /// Run every probe; returns the metrics in the order probed.
    pub fn run(mut self) -> Metrics {
        self.wire();
        self.object();
        self.telemetry();
        self.core();

        let sim = Network::reliable(NODES);
        let sim_nodes: Vec<NetworkHandle> =
            (0..NODES).map(|n| sim.handle(NodeId::from(n))).collect();
        self.round_trip("amoeba.sim_rtt_us", &sim_nodes, true);
        self.rpc("amoeba.rpc_sim_us", &sim_nodes);
        self.group("group.bcast_sim_us", &sim_nodes, false);
        drop(sim_nodes);
        drop(sim);

        let transports =
            SocketTransport::start_loopback_cluster(NODES).expect("bind loopback cluster");
        let tcp_nodes: Vec<NetworkHandle> = transports
            .iter()
            .map(|t| NetworkHandle::from_transport(Arc::clone(t) as Arc<dyn Transport>))
            .collect();
        self.round_trip("amoeba.tcp_rtt_us", &tcp_nodes, true);
        self.round_trip("amoeba.udp_rtt_us", &tcp_nodes, false);
        self.tcp_stream(&tcp_nodes);
        self.rpc("amoeba.rpc_tcp_us", &tcp_nodes);
        self.group("group.bcast_tcp_us", &tcp_nodes, true);
        drop(tcp_nodes);
        for transport in transports {
            transport.shutdown();
        }
        self.metrics
    }
}
