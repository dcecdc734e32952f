//! One cell of the ledger: one backend under one workload for one round —
//! a fresh three-node cluster, a pre-filled table, two closed-loop clients,
//! a warm-up, a timed window, and an audit of every key from every node.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use orca_core::objects::{KvTableObject, KvTableOp, KvTableReply, TableEntry};
use orca_core::{standard_registry, ObjectHandle, OrcaNode, OrcaResult, OrcaRuntime};
use orca_rts::{RegimeKind, RtsStatsSnapshot};
use orca_telemetry::RegistrySnapshot;

use crate::names::{Backend, Workload, CLIENTS, KEYS, NODES, WINDOW};
use crate::spans::{nanos_u32, SpanBuf, SpanKind};
use crate::sys::{self, Usage};

/// Bit of a sequence word that marks a read; the low bits pick the key.
const READ_BIT: u32 = 1 << 31;
/// Length of each client's pre-generated operation sequence (a power of
/// two; the cursor wraps).
const SEQUENCE_LEN: usize = 1 << 16;
/// Reads per block when the read path is block-timed.
const READ_BLOCK: usize = 256;
/// How many times its planned length a timed window may last while a client
/// is short of its samples. The shared host has a state in which broadcast
/// completes a third of its usual synchronous writes; ten leaves room for a
/// third of that again, and a run stretched in every cell still ends inside
/// the pipeline's limit for one run.
const WINDOW_STRETCH: u32 = 10;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The table key of slot `index`. The key set is the same for every seed
/// (so partition sizes do not vary between runs); the seed decides the
/// order and mix in which slots are touched.
pub fn key_of(index: usize) -> u64 {
    splitmix64(&mut (index as u64))
}

/// What set-up stores under slot `index` (depth 0, below every `Put`).
fn initial_entry(index: usize) -> TableEntry {
    TableEntry {
        depth: 0,
        value: index as i64,
        aux: key_of(index),
    }
}

/// The inputs of one run, generated from its seed before anything is
/// timed: one operation sequence per client.
#[derive(Debug)]
pub struct Inputs {
    sequences: Vec<Arc<Vec<u32>>>,
    initial: BTreeMap<u64, TableEntry>,
}

impl Inputs {
    /// Sequences for `workload` from `seed`. Client `c` writes only slots
    /// congruent to `c` modulo the client count, so the clients' key sets
    /// are disjoint and each key has one writer; reads pick any slot.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let sequences = (0..CLIENTS)
            .map(|client| {
                let mut state = seed ^ ((client as u64 + 1) << 56);
                let words = (0..SEQUENCE_LEN)
                    .map(|_| {
                        let r = splitmix64(&mut state);
                        let slot = (r % KEYS as u64) as u32;
                        if (r >> 32) % 100 < u64::from(workload.read_percent()) {
                            READ_BIT | slot
                        } else {
                            slot - slot % CLIENTS as u32 + client as u32
                        }
                    })
                    .collect();
                Arc::new(words)
            })
            .collect();
        Inputs {
            sequences,
            initial: (0..KEYS).map(|i| (key_of(i), initial_entry(i))).collect(),
        }
    }

    /// The table's contents at creation: every key, at depth 0.
    pub fn initial_state(&self) -> &BTreeMap<u64, TableEntry> {
        &self.initial
    }
}

/// How long the phases of a cell last.
#[derive(Debug, Clone, Copy)]
pub struct CellPlan {
    /// Shortest warm-up.
    pub warm_min: Duration,
    /// The adaptive regime must have been unchanged this long before the
    /// warm-up may end.
    pub warm_settle: Duration,
    /// Longest warm-up.
    pub warm_cap: Duration,
    /// Length of the timed window.
    pub window: Duration,
    /// Latency samples each client must have before its window may end
    /// (the window is stretched, up to [`WINDOW_STRETCH`] times, rather than
    /// reporting a percentile over too few samples).
    pub samples_per_client: usize,
    /// Record spans around every call (the traced run).
    pub traced: bool,
    /// After the window, block-time pure reads (per-layer runs only).
    pub read_blocks: usize,
}

/// Per-client state and results; moves into the client thread and back.
struct Client {
    id: usize,
    workload: Workload,
    sequence: Arc<Vec<u32>>,
    cursor: usize,
    depth: i32,
    /// Last acknowledged entry per slot (only this client's slots change).
    last: Vec<TableEntry>,
    /// Slots with a failed write: the table may hold either entry.
    uncertain: Vec<bool>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    writes: u64,
    /// Latency of every sample of the timed window, exact nanoseconds.
    latencies: Vec<u32>,
    /// Nanoseconds per block of [`READ_BLOCK`] reads.
    read_blocks: Vec<u32>,
    /// `(attempted, writes)` when the timed window opened.
    mark: (u64, u64),
    /// `(operations, writes)` completed inside the timed window.
    window: (u64, u64),
    elapsed: Duration,
    spans: Option<SpanBuf>,
    window_ops: Vec<KvTableOp>,
    window_slots: Vec<usize>,
}

impl Client {
    fn next_word(&mut self) -> u32 {
        let word = self.sequence[self.cursor & (SEQUENCE_LEN - 1)];
        self.cursor += 1;
        word
    }

    fn next_put(&mut self, slot: usize) -> KvTableOp {
        self.depth += 1;
        KvTableOp::Put {
            key: key_of(slot),
            entry: TableEntry {
                depth: self.depth,
                value: (self.cursor as i64) << 8 | self.id as i64,
                aux: key_of(slot),
            },
        }
    }

    fn acknowledge(&mut self, slot: usize, op: &KvTableOp, reply: OrcaResult<KvTableReply>) {
        let KvTableOp::Put { entry, .. } = op else {
            unreachable!("clients write with Put only");
        };
        self.attempted += 1;
        self.writes += 1;
        match reply {
            // Depths only grow, so every Put must have been stored.
            Ok(KvTableReply::Count(1)) => self.last[slot] = *entry,
            Ok(_) => self.wrong += 1,
            Err(_) => {
                self.failed += 1;
                self.uncertain[slot] = true;
            }
        }
    }

    fn check_read(&mut self, slot: usize, reply: OrcaResult<KvTableReply>) {
        self.attempted += 1;
        match reply {
            Ok(KvTableReply::Found(entry)) => {
                // Every key stays present; a slot this client alone writes
                // must read back its last acknowledged entry.
                let mine = slot % CLIENTS == self.id && !self.uncertain[slot];
                if entry.aux != key_of(slot) || (mine && entry != self.last[slot]) {
                    self.wrong += 1;
                }
            }
            Ok(_) => self.wrong += 1,
            Err(_) => self.failed += 1,
        }
    }

    /// Synchronous operations up to and including the next write; returns
    /// the instant that write's reply arrived and the write's latency.
    /// Only the write is timed.
    fn sync_until_write(
        &mut self,
        ctx: &OrcaNode,
        table: ObjectHandle<KvTableObject>,
    ) -> (Instant, u32) {
        loop {
            let word = self.next_word();
            let slot = (word & !READ_BIT) as usize;
            if word & READ_BIT != 0 {
                self.sync_read(ctx, table, slot);
                continue;
            }
            let op = self.next_put(slot);
            let start = Instant::now();
            let reply = ctx.invoke(table, &op);
            let end = Instant::now();
            if let Some(spans) = &mut self.spans {
                spans.record(SpanKind::InvokeWrite, 0, start, end);
            }
            self.acknowledge(slot, &op, reply);
            return (end, nanos_u32(end - start));
        }
    }

    fn sync_read(&mut self, ctx: &OrcaNode, table: ObjectHandle<KvTableObject>, slot: usize) {
        let op = KvTableOp::Get(key_of(slot));
        let reply = match &mut self.spans {
            Some(spans) => {
                let start = Instant::now();
                let reply = ctx.invoke(table, &op);
                spans.record(SpanKind::InvokeRead, 0, start, Instant::now());
                reply
            }
            None => ctx.invoke(table, &op),
        };
        self.check_read(slot, reply);
    }

    /// One window of [`WINDOW`] asynchronous `Put`s, submit to last reply.
    fn window(&mut self, ctx: &OrcaNode, table: ObjectHandle<KvTableObject>) -> (Instant, u32) {
        let mut ops = std::mem::take(&mut self.window_ops);
        let mut slots = std::mem::take(&mut self.window_slots);
        ops.clear();
        slots.clear();
        for _ in 0..WINDOW {
            let slot = (self.next_word() & !READ_BIT) as usize;
            slots.push(slot);
            ops.push(self.next_put(slot));
        }
        let start = Instant::now();
        let futures = ctx.invoke_many(table, &ops);
        let submitted = Instant::now();
        let replies: Vec<_> = futures.iter().map(|future| future.wait()).collect();
        let end = Instant::now();
        if let Some(spans) = &mut self.spans {
            let root = spans.record(SpanKind::Window, 0, start, end);
            spans.record(SpanKind::Submit, root, start, submitted);
            spans.record(SpanKind::Wait, root, submitted, end);
        }
        for ((op, &slot), reply) in ops.iter().zip(&slots).zip(replies) {
            self.acknowledge(slot, op, reply);
        }
        self.window_ops = ops;
        self.window_slots = slots;
        (end, nanos_u32(end - start))
    }

    /// One latency sample's worth of work: when it ended and how long the
    /// timed part took.
    fn step(&mut self, ctx: &OrcaNode, table: ObjectHandle<KvTableObject>) -> (Instant, u32) {
        if self.workload.pipelined() {
            self.window(ctx, table)
        } else {
            self.sync_until_write(ctx, table)
        }
    }
}

/// Coordination between the cell's main thread and its clients.
struct Shared {
    plan: CellPlan,
    stop_warm: AtomicBool,
    /// Passed by the clients once they have left the warm-up, and by the
    /// main thread before it takes its "before" snapshot.
    parked: Barrier,
    window_start: Barrier,
    window_end: Barrier,
    /// Opens once the main thread holds its "after" snapshot, so the read
    /// blocks that follow stay out of the window's deltas.
    reads_start: Barrier,
}

fn client_body(
    ctx: OrcaNode,
    table: ObjectHandle<KvTableObject>,
    mut client: Client,
    shared: Arc<Shared>,
    first_reply: Sender<Instant>,
) -> Client {
    // Set-up ends at this client's first reply.
    let (first, _) = client.step(&ctx, table);
    first_reply.send(first).expect("the cell waits for it");
    while !shared.stop_warm.load(Ordering::Acquire) {
        client.step(&ctx, table);
    }
    client.mark = (client.attempted, client.writes);
    shared.parked.wait();
    shared.window_start.wait();
    let started = Instant::now();
    let deadline = started + shared.plan.window;
    let give_up = started + WINDOW_STRETCH * shared.plan.window;
    let ended = loop {
        let (now, latency) = client.step(&ctx, table);
        client.latencies.push(latency);
        let enough = client.latencies.len() >= shared.plan.samples_per_client;
        if now >= deadline && (enough || now >= give_up) {
            break now;
        }
    };
    client.elapsed = ended - started;
    client.window = (
        client.attempted - client.mark.0,
        client.writes - client.mark.1,
    );
    shared.window_end.wait();
    shared.reads_start.wait();
    for _ in 0..shared.plan.read_blocks {
        let start = Instant::now();
        for _ in 0..READ_BLOCK {
            let slot = (client.next_word() & !READ_BIT) as usize;
            let reply = ctx.invoke(table, &KvTableOp::Get(key_of(slot)));
            client.check_read(slot, reply);
        }
        client.read_blocks.push(nanos_u32(start.elapsed()));
        // A block of shipped reads takes milliseconds; stop at 100 ms.
        if ended.elapsed() > Duration::from_millis(100) && client.read_blocks.len() >= 3 {
            break;
        }
    }
    client
}

/// Counter snapshots taken around the timed window.
struct Probe {
    registry: RegistrySnapshot,
    rts: Vec<RtsStatsSnapshot>,
    wire_bytes: u64,
    messages: u64,
    usage: Usage,
    allocations: u64,
}

impl Probe {
    fn take(runtime: &OrcaRuntime) -> Probe {
        let network = runtime.network_stats();
        Probe {
            registry: runtime.telemetry().registry().snapshot(),
            rts: runtime.rts_stats(),
            wire_bytes: network.total_wire_bytes(),
            messages: network.total_messages(),
            usage: Usage::now(),
            allocations: sys::allocations(),
        }
    }

    fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.registry
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(_, value)| value)
            .sum()
    }
}

/// Per-layer observations of one cell's timed window, all taken from
/// outside: deltas of public snapshots divided by the window's operations.
#[derive(Debug, Clone, Default)]
pub struct CellLayers {
    pub tcp_frames_per_op: f64,
    pub udp_datagrams_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub threads: f64,
    pub ops_per_batch: f64,
    pub batches_sent: u64,
    pub queue_p50_us: f64,
    pub service_p50_us: f64,
    pub local_read_share: f64,
    pub read_p50_ns: f64,
    pub lease_renewals_per_kop: f64,
    pub lease_revokes_per_kop: f64,
    pub applies_per_write: f64,
    pub messages_per_write: f64,
    pub tcp_frames_per_write: f64,
    pub udp_datagrams_per_write: f64,
    pub broadcasts_per_write: f64,
    pub p99_us: f64,
    pub allocs_per_op: f64,
    pub cpu_us_per_op: f64,
    pub sys_share: f64,
    pub ctx_switches_per_op: f64,
    pub regime: f64,
}

/// What one cell measured.
#[derive(Debug)]
pub struct CellResult {
    /// Invocations completed per second over the whole window, both
    /// clients summed.
    pub ops_per_s: f64,
    /// Exact median of the window's latency samples, microseconds.
    pub p50_us: f64,
    /// Every latency sample of the window, both clients, nanoseconds.
    pub latencies: Vec<u32>,
    /// Operations the clients issued, warm-up included.
    pub attempted: u64,
    /// Operations among them that were refused, failed or timed out.
    pub failed: u64,
    /// Replies or audited keys that contradict the acknowledged history.
    pub wrong: u64,
    /// Cluster start, create and pre-fill, up to the first warm-up reply
    /// of the slower client.
    pub setup: Duration,
    /// Regime switches inside the timed window (adaptive only).
    pub switches_in_window: u64,
    /// True when a client hit the stretched window's end without its
    /// sample count.
    pub starved: bool,
    /// Per-layer deltas of the window.
    pub layers: CellLayers,
    /// Span buffers of the clients (traced cells only).
    pub spans: Vec<SpanBuf>,
}

fn regime_code(regime: Option<RegimeKind>) -> f64 {
    match regime {
        None => -1.0,
        Some(RegimeKind::Primary) => 0.0,
        Some(RegimeKind::Replicated) => 1.0,
        Some(RegimeKind::Sharded) => 2.0,
    }
}

/// Run one cell. `epoch` is the run's time origin for span start times.
pub fn run_cell(
    workload: Workload,
    backend: Backend,
    round: usize,
    plan: CellPlan,
    inputs: &Inputs,
    epoch: Instant,
) -> CellResult {
    let setup_started = Instant::now();
    let runtime = OrcaRuntime::start(backend.config(workload.transport()), standard_registry());
    let table = runtime
        .create::<KvTableObject>(&inputs.initial)
        .expect("create the pre-filled table");
    let shared = Arc::new(Shared {
        plan,
        stop_warm: AtomicBool::new(false),
        parked: Barrier::new(CLIENTS + 1),
        window_start: Barrier::new(CLIENTS + 1),
        window_end: Barrier::new(CLIENTS + 1),
        reads_start: Barrier::new(CLIENTS + 1),
    });
    // Latency buffers are sized before the window so recording a sample
    // never allocates: ten times the required count, at least 128 Ki.
    let capacity = (plan.samples_per_client * 10).max(1 << 17);
    let (first_reply, first_replies) = channel();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let client = Client {
                id,
                workload,
                sequence: Arc::clone(&inputs.sequences[id]),
                // Each round starts elsewhere in the sequence.
                cursor: round * (SEQUENCE_LEN / 8 + 1),
                depth: 0,
                last: (0..KEYS).map(initial_entry).collect(),
                uncertain: vec![false; KEYS],
                attempted: 0,
                failed: 0,
                wrong: 0,
                writes: 0,
                latencies: Vec::with_capacity(capacity),
                read_blocks: Vec::with_capacity(plan.read_blocks),
                mark: (0, 0),
                window: (0, 0),
                elapsed: Duration::ZERO,
                spans: plan.traced.then(|| SpanBuf::new(epoch, 1 << 19)),
                window_ops: Vec::with_capacity(WINDOW),
                window_slots: Vec::with_capacity(WINDOW),
            };
            let (shared, first_reply) = (Arc::clone(&shared), first_reply.clone());
            // Clients run on nodes 1 and 2; node 0 created the object.
            runtime.fork_on(id + 1, "client", move |ctx| {
                client_body(ctx, table, client, shared, first_reply)
            })
        })
        .collect();

    // Set-up ends when the slower client has its first reply.
    let setup = (0..CLIENTS)
        .map(|_| first_replies.recv().expect("clients outlive their set-up"))
        .max()
        .expect("two clients")
        - setup_started;

    // Warm-up: at least `warm_min`, and until the adaptive regime has been
    // unchanged for `warm_settle` (fixed backends report no regime).
    let warm_started = Instant::now();
    let mut regime = runtime.object_regime(table.id());
    let mut regime_since = warm_started;
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = Instant::now();
        let current = runtime.object_regime(table.id());
        if current != regime {
            regime = current;
            regime_since = now;
        }
        let warm = now - warm_started;
        if warm >= plan.warm_cap
            || (warm >= plan.warm_min && now - regime_since >= plan.warm_settle)
        {
            break;
        }
    }
    shared.stop_warm.store(true, Ordering::Release);

    // Both clients are parked between the two barriers when the "before"
    // snapshot is taken, so the deltas hold the window's work and nothing
    // else.
    shared.parked.wait();
    let before = Probe::take(&runtime);
    shared.window_start.wait();
    std::thread::sleep(plan.window / 2);
    let threads = sys::thread_count();
    shared.window_end.wait();
    let after = Probe::take(&runtime);
    let regime_at_end = runtime.object_regime(table.id());
    shared.reads_start.wait();

    let clients: Vec<Client> = handles.into_iter().map(|handle| handle.join()).collect();
    let rts_after_reads = runtime.rts_stats();
    // Broadcast and primary copy serve a node's reads from its own copy,
    // which a synchronous Get reaches in a microsecond; partitioned reads
    // are shipped, and shipped reads are only cheap in batches.
    let local_reads = matches!(backend, Backend::Broadcast | Backend::Primary);
    let audit_wrong = audit(&runtime, table, &clients, local_reads);
    runtime.shutdown();
    drop(runtime);

    let mut result = summarize(clients, &before, &after, &rts_after_reads, plan);
    result.setup = setup;
    result.wrong += audit_wrong;
    result.layers.threads = threads as f64;
    result.layers.regime = regime_code(regime_at_end);
    result
}

fn summarize(
    mut clients: Vec<Client>,
    before: &Probe,
    after: &Probe,
    rts_after_reads: &[RtsStatsSnapshot],
    plan: CellPlan,
) -> CellResult {
    // `attempted` and `writes` of the read blocks after the window are
    // excluded: the marks were taken when the window closed.
    let ops: u64 = clients.iter().map(|c| c.window.0).sum();
    let ops_per_s = clients
        .iter()
        .map(|c| c.window.0 as f64 / c.elapsed.as_secs_f64().max(1e-9))
        .sum();
    let starved = clients
        .iter()
        .any(|c| c.latencies.len() < plan.samples_per_client);
    let per_op = |count: u64| count as f64 / ops.max(1) as f64;

    let rts_delta = |field: fn(&RtsStatsSnapshot) -> u64| -> u64 {
        after
            .rts
            .iter()
            .zip(&before.rts)
            .map(|(a, b)| field(a).saturating_sub(field(b)))
            .sum()
    };
    let counter_delta = |prefix: &str, suffix: &str| {
        after
            .counter_sum(prefix, suffix)
            .saturating_sub(before.counter_sum(prefix, suffix))
    };
    let usage = after.usage.since(&before.usage);
    let cpu_us = usage.user_us + usage.sys_us;
    let batches_sent = rts_delta(|s| s.batches_sent);
    let ops_batched = rts_delta(|s| s.ops_batched);
    let remote_reads = rts_delta(|s| s.remote_reads);
    // Where reads are served is judged over the window and the read
    // blocks after it, so write-only workloads report it too.
    let reads_since = |field: fn(&RtsStatsSnapshot) -> u64| -> u64 {
        rts_after_reads
            .iter()
            .zip(&before.rts)
            .map(|(a, b)| field(a).saturating_sub(field(b)))
            .sum()
    };
    let (all_local, all_remote) = (
        reads_since(|s| s.local_reads),
        reads_since(|s| s.remote_reads),
    );
    let writes: u64 = clients.iter().map(|c| c.window.1).sum();
    let hist_p50_us = |name: &str| {
        after
            .registry
            .hists
            .get(name)
            .map_or(0.0, |h| h.p50() as f64 / 1000.0)
    };

    let (mut latencies, mut read_blocks) = (Vec::new(), Vec::new());
    for client in &mut clients {
        latencies.append(&mut client.latencies);
        read_blocks.append(&mut client.read_blocks);
    }
    let p99_us = crate::stats::percentile(&mut latencies, 0.99).map_or(0.0, |ns| ns as f64 / 1e3);
    let p50_us = crate::stats::percentile(&mut latencies, 0.5).map_or(0.0, |ns| ns as f64 / 1e3);
    let read_p50_ns = crate::stats::percentile(&mut read_blocks, 0.5)
        .map_or(0.0, |ns| ns as f64 / READ_BLOCK as f64);

    let tcp_frames = counter_delta("transport.node", ".tcp.frames_sent");
    let udp_datagrams = counter_delta("transport.node", ".udp.datagrams_sent");
    // A shipped read is one RPC, two messages; what is left belongs to the
    // writes, whose latency the budget explains.
    let per_write = |count: u64| count as f64 / writes.max(1) as f64;
    let layers = CellLayers {
        tcp_frames_per_op: per_op(tcp_frames),
        udp_datagrams_per_op: per_op(udp_datagrams),
        wire_bytes_per_op: per_op(after.wire_bytes.saturating_sub(before.wire_bytes)),
        threads: 0.0,
        ops_per_batch: if batches_sent == 0 {
            0.0
        } else {
            ops_batched as f64 / batches_sent as f64
        },
        batches_sent,
        queue_p50_us: hist_p50_us("rts.pipeline.queue_ns"),
        service_p50_us: hist_p50_us("rts.pipeline.service_ns"),
        local_read_share: if all_local + all_remote == 0 {
            0.0
        } else {
            all_local as f64 / (all_local + all_remote) as f64
        },
        read_p50_ns,
        lease_renewals_per_kop: 1000.0 * per_op(counter_delta("rts.lease.renewals", "")),
        lease_revokes_per_kop: 1000.0 * per_op(counter_delta("rts.lease.revokes", "")),
        applies_per_write: (rts_delta(|s| s.updates_applied) + rts_delta(|s| s.batch_ops_applied))
            as f64
            / writes.max(1) as f64,
        messages_per_write: per_write(
            (after.messages.saturating_sub(before.messages)).saturating_sub(2 * remote_reads),
        ),
        tcp_frames_per_write: per_write(tcp_frames.saturating_sub(2 * remote_reads)),
        udp_datagrams_per_write: per_write(udp_datagrams),
        broadcasts_per_write: per_write(rts_delta(|s| s.broadcast_writes)),
        p99_us,
        allocs_per_op: per_op(after.allocations.saturating_sub(before.allocations)),
        cpu_us_per_op: per_op(cpu_us),
        sys_share: usage.sys_us as f64 / cpu_us.max(1) as f64,
        ctx_switches_per_op: per_op(usage.ctx_switches),
        regime: -1.0,
    };
    CellResult {
        ops_per_s,
        p50_us,
        latencies,
        attempted: clients.iter().map(|c| c.attempted).sum(),
        failed: clients.iter().map(|c| c.failed).sum(),
        wrong: clients.iter().map(|c| c.wrong).sum(),
        setup: Duration::ZERO,
        switches_in_window: rts_delta(|s| s.regime_switches),
        starved,
        layers,
        spans: clients.iter_mut().filter_map(|c| c.spans.take()).collect(),
    }
}

/// After the window: the table must still hold exactly [`KEYS`] keys, and
/// a `Get` of every key from every node must return that key's last
/// acknowledged entry. Returns the number of contradictions.
fn audit(
    runtime: &OrcaRuntime,
    table: ObjectHandle<KvTableObject>,
    clients: &[Client],
    synchronous: bool,
) -> u64 {
    let expected: Arc<Vec<Option<TableEntry>>> = Arc::new(
        (0..KEYS)
            .map(|slot| {
                let owner = &clients[slot % CLIENTS];
                (!owner.uncertain[slot]).then_some(owner.last[slot])
            })
            .collect(),
    );
    let auditors: Vec<_> = (0..NODES)
        .map(|node| {
            let expected = Arc::clone(&expected);
            runtime.fork_on(node, "audit", move |ctx| {
                let mut wrong = 0u64;
                // A write that changes nothing (depth below every entry)
                // orders this process after every acknowledged write, so
                // the reads below may not see an older state.
                let fence = KvTableOp::Put {
                    key: key_of(0),
                    entry: TableEntry {
                        depth: -1,
                        value: 0,
                        aux: key_of(0),
                    },
                };
                if ctx.invoke(table, &fence).ok() != Some(KvTableReply::Count(0)) {
                    wrong += 1;
                }
                if ctx.invoke(table, &KvTableOp::Len).ok() != Some(KvTableReply::Count(KEYS as u64))
                {
                    wrong += 1;
                }
                for chunk in (0..KEYS).collect::<Vec<_>>().chunks(4 * WINDOW) {
                    let gets: Vec<KvTableOp> = chunk
                        .iter()
                        .map(|&slot| KvTableOp::Get(key_of(slot)))
                        .collect();
                    let replies: Vec<_> = if synchronous {
                        gets.iter().map(|get| ctx.invoke(table, get)).collect()
                    } else {
                        let futures = ctx.invoke_many(table, &gets);
                        futures.iter().map(|future| future.wait()).collect()
                    };
                    for (&slot, reply) in chunk.iter().zip(replies) {
                        let ok = match (reply, expected[slot]) {
                            (Ok(KvTableReply::Found(entry)), Some(want)) => entry == want,
                            (Ok(KvTableReply::Found(entry)), None) => entry.aux == key_of(slot),
                            _ => false,
                        };
                        wrong += u64::from(!ok);
                    }
                }
                wrong
            })
        })
        .collect();
    auditors.into_iter().map(|handle| handle.join()).sum()
}
