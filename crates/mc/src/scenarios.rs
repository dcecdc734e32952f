//! Model-checking scenarios for the four hairy protocols.
//!
//! Each scenario is a tiny distributed workload (2–3 nodes, a handful of
//! operations) engineered so the interesting protocol machinery — total
//! ordering, sequencer hand-over, dynamic replication races, crash
//! promotion, a shard changing owners, regime switching — runs *inside* the
//! scheduled window, where the engine enumerates every delivery order.
//! Workloads use distinct even-bit write deltas (`1 << (2*k)`) so the final
//! counter value is a bitmask of applied writes: a lost acked write clears
//! a required bit, a double-applied write sets an illegal one (see
//! [`crate::invariants`]).
//!
//! Scenario-design rules learned the hard way (see each type's docs):
//!
//! * **One *sending* worker per node.** Canonical message identities number
//!   each (src, dst, lane) stream; two application threads sending from one
//!   node would race for sequence numbers and make schedules
//!   non-replayable. A second process may share the node as long as the
//!   honest protocol never makes it send (the write-through scenarios'
//!   readers only ever read their node's local copy).
//! * **Object creation and priming run before the scheduler installs.**
//!   Creation traffic is not what we're checking, and priming (accruing
//!   usage counts, placing secondary copies) sets up the protocol state
//!   the scenario wants to attack.
//! * **Timers are tuned way up or folded into the scenario.** A wall-clock
//!   retransmit firing mid-schedule adds spurious choices; scenarios that
//!   don't need retransmission push those timeouts past the schedule
//!   horizon, and the one that does (sequencer failover) switches to
//!   real-time passthrough at the crash.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use orca_amoeba::network::Network;
use orca_amoeba::process::ProcessHandle;
use orca_amoeba::NodeId;
use orca_core::objects::{IntObject, IntOp, JobQueue};
use orca_core::{standard_registry, ObjectHandle, OrcaConfig, OrcaNode, OrcaRuntime, RtsStrategy};
use orca_group::GroupConfig;
use orca_rts::{AdaptivePolicy, RecoveryConfig, RegimeKind, WritePolicy};

use crate::engine::{Execution, McConfig, Scenario};
use crate::invariants::{check_counter, check_jobs, WorkerOutcome};

/// One step of a counter worker's program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `Add(delta)`; an error records the delta as maybe-applied.
    Write(i64),
    /// `Value`; errors are skipped (a failed read constrains nothing).
    Read,
}

fn counter_worker(
    ctx: OrcaNode,
    handle: ObjectHandle<IntObject>,
    steps: Vec<Step>,
) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    counter_steps(&ctx, handle, &steps, &mut out);
    out
}

/// Run `steps` in order, appending to `out` (a worker that pauses between
/// two stretches of its program calls this once per stretch).
fn counter_steps(
    ctx: &OrcaNode,
    handle: ObjectHandle<IntObject>,
    steps: &[Step],
    out: &mut WorkerOutcome,
) {
    for &step in steps {
        match step {
            Step::Write(delta) => match ctx.invoke(handle, &IntOp::Add(delta)) {
                Ok(sum) => out.acked_write(delta, sum),
                Err(_) => out.maybe_write(delta),
            },
            Step::Read => {
                if let Ok(value) = ctx.invoke(handle, &IntOp::Value) {
                    out.read(value);
                }
            }
        }
    }
}

/// Read the final value on every live node, polling until they agree (or a
/// convergence budget runs out, in which case the last disagreeing set is
/// returned and the divergence check fails). Polling matters: once the
/// scheduler uninstalls, stragglers catch up through wall-clock machinery —
/// gap repair after a dropped broadcast, post-election era replay, a
/// promotion completing — so "not converged *yet*" is not a violation, but
/// "not converged within the budget" is.
fn read_finals(
    rt: &OrcaRuntime,
    handle: ObjectHandle<IntObject>,
    live: &[usize],
) -> Result<Vec<i64>, String> {
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut last: Vec<i64> = Vec::new();
    let mut last_err: Option<String>;
    loop {
        let mut vals = Vec::with_capacity(live.len());
        let mut err: Option<String> = None;
        for &node in live {
            match rt.context(node).invoke(handle, &IntOp::Value) {
                Ok(value) => vals.push(value),
                Err(e) => {
                    err = Some(format!("final read on node {node} failed: {e}"));
                    break;
                }
            }
        }
        match err {
            None => {
                if vals.windows(2).all(|w| w[0] == w[1]) {
                    return Ok(vals);
                }
                last = vals;
                last_err = None;
            }
            some => last_err = some,
        }
        if Instant::now() >= deadline {
            return match last_err {
                Some(e) => Err(format!("{e} (and kept failing until the deadline)")),
                None => Ok(last),
            };
        }
        std::thread::sleep(Duration::from_millis(40));
    }
}

fn all_finished<T>(workers: &[ProcessHandle<T>]) -> bool {
    workers.iter().all(|w| w.is_finished())
}

/// Shared tail of every counter scenario: uninstall the scheduler, wait for
/// the workers (a hang is a liveness violation), join, read finals on live
/// nodes, run the counter invariants.
fn finish_counter(
    exec: &Execution<'_>,
    rt: &OrcaRuntime,
    workers: Vec<ProcessHandle<WorkerOutcome>>,
    handle: ObjectHandle<IntObject>,
) -> Result<(), String> {
    rt.network().set_scheduler(None);
    if !exec.settle(|| all_finished(&workers)) {
        // Unblock the stuck invocations so the joins below return, then
        // report the hang itself as the violation.
        rt.shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        return Err("liveness violation: workers still blocked after the settle budget".into());
    }
    let outcomes: Vec<WorkerOutcome> = workers.into_iter().map(|w| w.join()).collect();
    let live: Vec<usize> = (0..rt.processors())
        .filter(|&n| !rt.network().is_crashed(NodeId::from(n)))
        .collect();
    let finals = read_finals(rt, handle, &live)?;
    check_counter(&outcomes, &finals)
}

/// The primary-copy backend as the `primary_*` scenarios run it: secondary
/// copies are placed once, by the proposal that ends the priming
/// ([`prime_copies`]), and kept.
fn eager_replication(write: WritePolicy) -> AdaptivePolicy {
    placed_once(AdaptivePolicy::primary_copy(write))
}

/// `policy` with nothing reporting or evaluating mid-run: evidence reaches
/// the home only when `propose_regime` flushes it, so the regime and the
/// copies stay put and every message in a schedule belongs to an operation.
fn placed_once(policy: AdaptivePolicy) -> AdaptivePolicy {
    AdaptivePolicy {
        window: u64::MAX,
        regime_lease: Duration::from_secs(60),
        // Stretch the bounce-retry cadence: while a switch or a re-homing
        // holds an op back, a 5 ms retry loop floods the pool with table
        // re-fetches (a fresh message each time — an infinite interleaving
        // tree). At 300 ms a bounced op waits it out, yet still fires well
        // inside the engine's progress-wait cap if it is the only activity
        // left.
        stale_retry_delay: Duration::from_millis(300),
        blocked_retry_delay: Duration::from_millis(300),
        // The model checker virtualizes time; real-clock read leases would
        // either never expire or stall explored schedules on sleeps.
        read_lease_ms: 0,
        ..policy
    }
}

/// Put a copy of the counter on nodes 1 and 2 before the scheduler
/// installs: reads make them readers, the proposal places a mirror on each,
/// and a second round of reads warms every table cache and mirror.
fn prime_copies(rt: &OrcaRuntime, handle: ObjectHandle<IntObject>) -> Result<(), String> {
    let read = |what: &str| -> Result<(), String> {
        for node in 1..rt.processors() {
            for _ in 0..4 {
                let read = rt.context(node).invoke(handle, &IntOp::Value);
                read.map_err(|e| format!("{what} read failed: {e}"))?;
            }
        }
        Ok(())
    };
    read("usage-priming")?;
    if rt.propose_regime(handle.id()) != Some(RegimeKind::Replicated) {
        return Err("priming did not put the counter in the replicated regime".into());
    }
    let holders = rt.copy_holders(0, handle.id()).unwrap_or_default();
    if holders.len() != rt.processors() - 1 {
        return Err(format!("priming left copies on {holders:?} only"));
    }
    read("mirror-priming")
}

// ---------------------------------------------------------------------------
// 1. Broadcast: total-order delivery.
// ---------------------------------------------------------------------------

/// Two nodes write and read a fully replicated counter through the PB/BB
/// sequencer protocol. Exhaustively checks that every delivery order of
/// requests and sequenced broadcasts yields one sequentially consistent
/// total order with no write lost or duplicated.
///
/// Group timers are pushed past the schedule horizon: on a reliable,
/// crash-free run the protocol must not *need* retransmission, and a timer
/// firing mid-schedule would add spurious choices.
pub struct BroadcastOrdering {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for BroadcastOrdering {
    fn default() -> Self {
        BroadcastOrdering {
            budget: McConfig {
                max_schedules: 2048,
                max_depth: 48,
                quiesce_idle: Duration::from_millis(10),
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for BroadcastOrdering {
    fn name(&self) -> &'static str {
        "broadcast_ordering"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::broadcast(2);
        cfg.strategy = RtsStrategy::Broadcast(GroupConfig {
            retransmit_timeout: Duration::from_secs(5),
            suspect_after: 10_000,
            ..GroupConfig::default()
        });
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        rt.network().set_scheduler(Some(exec.scheduler()));
        let workers: Vec<_> = (0..2)
            .map(|node| {
                let steps = vec![
                    Step::Write(1 << (4 * node)),
                    Step::Read,
                    Step::Write(1 << (4 * node + 2)),
                    Step::Read,
                ];
                rt.fork_on(node, &format!("mc-w{node}"), move |ctx| {
                    counter_worker(ctx, handle, steps)
                })
            })
            .collect();
        let driven = exec.drive(rt.network(), || all_finished(&workers));
        if let Err(violation) = driven {
            rt.network().set_scheduler(None);
            return Err(violation);
        }
        finish_counter(exec, &rt, workers, handle)
    }
}

// ---------------------------------------------------------------------------
// 2. Broadcast: sequencer crash and era replay.
// ---------------------------------------------------------------------------

/// Three nodes; workers run on nodes 1 and 2 while node 0 is the
/// sequencer. The search may drop one (unreliable) broadcast packet and
/// crash the sequencer at any point; the crash switches the run to
/// real-time passthrough, where retransmission, election and the new
/// sequencer's era replay must converge every survivor on one history —
/// no sequence number reused, no acked write lost, no double apply.
pub struct BroadcastEraReplay {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for BroadcastEraReplay {
    fn default() -> Self {
        BroadcastEraReplay {
            budget: McConfig {
                max_schedules: 56,
                max_depth: 40,
                quiesce_idle: Duration::from_millis(10),
                crash_candidates: vec![NodeId(0)],
                max_crashes: 1,
                after_crash_passthrough: true,
                max_drops: 1,
                // Budget-capped: failover bugs live in the shallow
                // early-crash/early-drop branches DFS would reach last.
                shallow_first: true,
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for BroadcastEraReplay {
    fn name(&self) -> &'static str {
        "broadcast_era_replay"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::broadcast(3);
        // Post-crash recovery runs in real time: retransmission kicks in
        // after 250 ms and two silent rounds trigger the election, so a
        // failover completes in well under the settle budget.
        cfg.strategy = RtsStrategy::Broadcast(GroupConfig {
            retransmit_timeout: Duration::from_millis(250),
            suspect_after: 2,
            ..GroupConfig::default()
        });
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        rt.network().set_scheduler(Some(exec.scheduler()));
        // One write + one read per worker, not two: the schedules that
        // expose failover bugs crash the sequencer *early*, while its
        // SeqData broadcast has reached one survivor but not the other —
        // and DFS backtracks from the deepest choice points first, so a
        // deeper tree spends the whole budget on late-crash schedules
        // before ever reaching the early ones.
        let workers: Vec<_> = [1usize, 2]
            .iter()
            .map(|&node| {
                let base = 4 * (node - 1) as i64;
                let steps = vec![Step::Write(1 << base), Step::Read];
                rt.fork_on(node, &format!("mc-w{node}"), move |ctx| {
                    counter_worker(ctx, handle, steps)
                })
            })
            .collect();
        let driven = exec.drive(rt.network(), || all_finished(&workers));
        if let Err(violation) = driven {
            rt.network().set_scheduler(None);
            return Err(violation);
        }
        finish_counter(exec, &rt, workers, handle)
    }
}

// ---------------------------------------------------------------------------
// 3. Primary copy: fetch / two-phase-update race.
// ---------------------------------------------------------------------------

/// Two nodes, primary-copy with invalidation: node 1 is a listed copy holder
/// whose copy a write has just invalidated — the steady state of that
/// policy — so its first read fetches a fresh one while node 0 (the
/// primary) keeps writing and invalidating: the classic install-over-newer
/// race, a snapshot overtaken in flight by the invalidation of a write it
/// does not contain. Version gating must keep every copy on the primary's
/// version line; the `NO_VERSION_GATING` mutation makes node 1 install the
/// stale snapshot and blindly apply its own write-through on top of it,
/// which surfaces here as a worker reading a value older than its own acked
/// write.
pub struct PrimaryFetchRace {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for PrimaryFetchRace {
    fn default() -> Self {
        PrimaryFetchRace {
            budget: McConfig {
                max_schedules: 768,
                max_depth: 56,
                quiesce_idle: Duration::from_millis(10),
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for PrimaryFetchRace {
    fn name(&self) -> &'static str {
        "primary_fetch_race"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::primary_copy(2, WritePolicy::Invalidate);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: eager_replication(WritePolicy::Invalidate),
        };
        let rt = Arc::new(OrcaRuntime::start(cfg, standard_registry()));
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        // Node 1 is a copy holder, and a write that changes nothing takes
        // its copy away again: from here every write of node 0 sends it an
        // invalidation, and its next read a fetch.
        prime_copies(&rt, handle)?;
        rt.main()
            .invoke(handle, &IntOp::Add(0))
            .map_err(|e| format!("invalidating write failed: {e}"))?;
        rt.network().set_scheduler(Some(exec.scheduler()));
        // A fetch that arrives while a write holds the primary's object
        // lock parks on it beside node 0's next write, and which of the two
        // gets the lock is the operating system's choice, not the
        // scheduler's. Gate worker 0 on the fetch being *served* — the
        // reply is node 0's first message of the schedule: from here the
        // snapshot install is still in flight and the writes send
        // invalidations that race it.
        let sent_by_primary = |rt: &OrcaRuntime| rt.network_stats().node(NodeId(0)).messages_sent();
        let before = sent_by_primary(&rt);
        let probe = Arc::clone(&rt);
        let pushed = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&pushed);
        let w0 = rt.fork_on(0, "mc-w0", move |ctx| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while sent_by_primary(&probe) == before && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            let out = counter_worker(ctx, handle, vec![Step::Write(1), Step::Write(1 << 2)]);
            done.store(true, Ordering::SeqCst);
            out
        });
        // Node 1: the first read triggers the fetch, whose install races
        // both invalidations. Its write waits for node 0's second
        // acknowledgement because a write shipped earlier parks on the
        // primary's object lock, and whether it or node 0's next write gets
        // the lock node 0 frees between its two writes is the operating
        // system's choice, not the scheduler's: schedules would stop
        // replaying. It goes through the copy if the fetch left one; the
        // final read must see it.
        let w1 = rt.fork_on(1, "mc-w1", move |ctx| {
            let mut out = WorkerOutcome::default();
            counter_steps(&ctx, handle, &[Step::Read], &mut out);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !pushed.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            counter_steps(&ctx, handle, &[Step::Write(1 << 4), Step::Read], &mut out);
            out
        });
        let workers = vec![w0, w1];
        let driven = exec.drive(rt.network(), || all_finished(&workers));
        if let Err(violation) = driven {
            rt.network().set_scheduler(None);
            return Err(violation);
        }
        finish_counter(exec, &rt, workers, handle)
    }
}

// ---------------------------------------------------------------------------
// 4. Primary copy: promotion after a crash.
// ---------------------------------------------------------------------------

/// Three nodes with crash recovery: the object's primary lives on node 0,
/// nodes 1 and 2 hold secondary copies (primed before the scheduler
/// installs). The search crashes node 0 at any point — including
/// mid-two-phase-push — and keeps scheduling while the survivors detect the
/// death and the lowest of them regenerates the object from the freshest
/// surviving copy. Writes that errored during the failover are
/// maybe-applied; everything acked must survive, and no survivor may go on
/// reading the copy the dead primary left it (the
/// `REHOME_KEEPS_STALE_COPIES` mutation leaves such an orphan behind, which
/// a later local read exposes).
///
/// Retried writes are **exactly-once** even across the promotion: every
/// sync write carries a per-origin `(origin, op_seq)` stamp, the dedup
/// window travels with each secondary copy, and the promoted replica
/// answers a replayed stamp from the window instead of re-applying it. The
/// invariants therefore make no at-least-once allowance — a write applied
/// twice is a violation, crash or no crash.
pub struct PrimaryPromotion {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for PrimaryPromotion {
    fn default() -> Self {
        PrimaryPromotion {
            budget: McConfig {
                max_schedules: 72,
                max_depth: 72,
                quiesce_idle: Duration::from_millis(10),
                crash_candidates: vec![NodeId(0)],
                max_crashes: 1,
                // Budget-capped: promotion bugs need the crash *early*,
                // while writes and update pushes are still in flight.
                shallow_first: true,
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for PrimaryPromotion {
    fn name(&self) -> &'static str {
        "primary_promotion"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::primary_copy(3, WritePolicy::Update);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: eager_replication(WritePolicy::Update),
        };
        cfg.recovery = mc_recovery();
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        // Prime: both survivors hold a secondary copy *before* scheduling
        // starts, so the failover always has copies to choose from.
        prime_copies(&rt, handle)?;
        rt.network().set_scheduler(Some(exec.scheduler()));
        let workers: Vec<_> = [1usize, 2]
            .iter()
            .map(|&node| {
                let base = 4 * (node - 1) as i64;
                let steps = vec![
                    Step::Write(1 << base),
                    Step::Read,
                    Step::Write(1 << (base + 2)),
                    Step::Read,
                ];
                rt.fork_on(node, &format!("mc-w{node}"), move |ctx| {
                    counter_worker(ctx, handle, steps)
                })
            })
            .collect();
        let driven = exec.drive(rt.network(), || all_finished(&workers));
        if let Err(violation) = driven {
            rt.network().set_scheduler(None);
            return Err(violation);
        }
        finish_counter(exec, &rt, workers, handle)
    }
}

// ---------------------------------------------------------------------------
// 5. Primary copy: read-lease grant/revoke racing a write.
// ---------------------------------------------------------------------------

/// Three nodes, primary-copy with *leased* secondary copies: node 0 holds
/// the primary, nodes 1 and 2 are primed with leased copies before the
/// scheduler installs. Node 1 then serves zero-message local reads under
/// its lease while node 0 writes — every write must push an update to each
/// holder, re-lock and unlock the copies, and renew the holders' grants
/// before it completes, so the search enumerates each leased read against
/// every phase of that hand-shake.
///
/// The search may crash node 2 (a pure lease *holder* — no worker) at any
/// point. The crash exercises the failure-detector tie-in end to end: the
/// primary's push to the dead holder fails and its grant is settled by the
/// fail-stop declaration (a dead holder serves no reads), while the epoch
/// bump invalidates node 1's held lease, forcing its next read through the
/// renewal path — the grant alone when its copy is still at the primary's
/// version, the state with it when a concurrent write got there first. A
/// leased read that ever returns a value older than the reader's own acked
/// write fails sequential consistency.
///
/// Leases are deliberately much longer than the schedule (the model
/// checker virtualizes time): no lease expires mid-schedule, so no
/// wall-clock renewal traffic perturbs replay; every lease transition in
/// the scenario is driven by messages or by the epoch fence.
pub struct PrimaryLeaseRevoke {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for PrimaryLeaseRevoke {
    fn default() -> Self {
        PrimaryLeaseRevoke {
            budget: McConfig {
                max_schedules: 48,
                max_depth: 72,
                quiesce_idle: Duration::from_millis(10),
                crash_candidates: vec![NodeId(2)],
                max_crashes: 1,
                // Budget-capped: the interesting branches crash the holder
                // early, while its lease is live and pushes are in flight.
                shallow_first: true,
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for PrimaryLeaseRevoke {
    fn name(&self) -> &'static str {
        "primary_lease_revoke"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::primary_copy(3, WritePolicy::Update);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: AdaptivePolicy {
                // Leases far past the schedule horizon: transitions come
                // from writes, revokes and the epoch fence, never from a
                // wall-clock expiry mid-schedule.
                read_lease_ms: 60_000,
                ..eager_replication(WritePolicy::Update)
            },
        };
        // Recovery is enabled for the failure detector: lease validity is
        // fenced by the membership epoch, and settling a dead holder's
        // grant relies on the fail-stop declaration.
        cfg.recovery = mc_recovery();
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        // Prime: both secondaries hold a leased copy before scheduling
        // starts, so every write in the schedule races outstanding grants.
        prime_copies(&rt, handle)?;
        rt.network().set_scheduler(Some(exec.scheduler()));
        let w0 = rt.fork_on(0, "mc-w0", move |ctx| {
            counter_worker(
                ctx,
                handle,
                vec![Step::Write(1), Step::Read, Step::Write(1 << 2), Step::Read],
            )
        });
        // Node 1 reads under its lease on both sides of a forwarded write;
        // the final read must observe that write even if the lease was
        // revoked and the copy dropped in between.
        let w1 = rt.fork_on(1, "mc-w1", move |ctx| {
            counter_worker(
                ctx,
                handle,
                vec![Step::Read, Step::Write(1 << 4), Step::Read],
            )
        });
        let workers = vec![w0, w1];
        let driven = exec.drive(rt.network(), || all_finished(&workers));
        if let Err(violation) = driven {
            rt.network().set_scheduler(None);
            return Err(violation);
        }
        finish_counter(exec, &rt, workers, handle)
    }
}

// ---------------------------------------------------------------------------
// 6. Sharded: a partition changing owners under concurrent operations.
// ---------------------------------------------------------------------------

/// Two nodes, a job queue split over two partitions. While node 1 keeps
/// adding jobs, partition 0 moves from node 0 to node 1 — a switch to the
/// same regime, whose withdrawn mark and epoch are what guarantee that no
/// operation is lost or applied twice while ownership moves. After the
/// dust settles the queue is closed and drained: every acked add must come
/// out exactly once.
///
/// Node 0's worker triggers the migration and *waits* for it, so node 0
/// never has two threads sending concurrently (which would break canonical
/// message identities); node 1's adds stay concurrent with the move.
pub struct ShardedHandoff {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for ShardedHandoff {
    fn default() -> Self {
        ShardedHandoff {
            budget: McConfig {
                max_schedules: 256,
                max_depth: 72,
                quiesce_idle: Duration::from_millis(10),
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for ShardedHandoff {
    fn name(&self) -> &'static str {
        "sharded_handoff"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::sharded(2, 2);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: AdaptivePolicy {
                // As in the adaptive scenario below: an add the move
                // bounced waits the move out instead of re-fetching the
                // table every 5 ms, a fresh message and a fresh subtree
                // each time for as long as the scheduler holds the move.
                stale_retry_delay: Duration::from_millis(300),
                ..AdaptivePolicy::sharded(2)
            },
        };
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let queue = JobQueue::<i64>::create(rt.main()).map_err(|e| e.to_string())?;
        // The workload is written for a partition 0 that starts on node 0;
        // where the hash of the queue's id put it is not its business.
        rt.migrate_shard(queue.handle().id(), 0, NodeId(0))
            .expect("sharded strategy")
            .map_err(|e| e.to_string())?;
        rt.network().set_scheduler(Some(exec.scheduler()));

        let migrate_start = Arc::new(AtomicBool::new(false));
        let migrate_done = Arc::new(AtomicBool::new(false));
        let abort = Arc::new(AtomicBool::new(false));
        let adds_done = Arc::new(AtomicBool::new(false));
        let migrate_result: Mutex<Option<Result<(), String>>> = Mutex::new(None);

        // Job values are chosen by their shard hash: 5, 9, 21, 22 and 25
        // all land in partition 0 (the one that migrates from node 0 to
        // node 1), so every add in the scenario races the move itself.
        //
        // Worker 0 (on the migration-source node): add, hand off, add,
        // then close and drain once worker 1 is done adding.
        let w0 = {
            let start = migrate_start.clone();
            let done = migrate_done.clone();
            let w1_done = adds_done.clone();
            let abort = abort.clone();
            rt.fork_on(0, "mc-w0", move |ctx| {
                let mut acked = Vec::new();
                let mut maybe = Vec::new();
                let mut observed = Vec::new();
                let mut add = |ctx: &OrcaNode, job: i64| match queue.add(ctx, &job) {
                    Ok(()) => acked.push(job),
                    Err(_) => maybe.push(job),
                };
                add(&ctx, 5);
                start.store(true, Ordering::SeqCst);
                while !done.load(Ordering::SeqCst) && !abort.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Partition 0 now lives on node 1: this add goes remote.
                add(&ctx, 9);
                while !w1_done.load(Ordering::SeqCst) && !abort.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if !abort.load(Ordering::SeqCst) && queue.close(&ctx).is_ok() {
                    while let Ok(Some(job)) = queue.get(&ctx) {
                        observed.push(job);
                    }
                }
                (acked, maybe, observed)
            })
        };
        // Worker 1: waits for the move to start, then fires adds at the
        // *moving* partition — each one lands before the withdraw, between
        // withdraw and install, or after the new owner is live, and the
        // scheduler enumerates all of it.
        let w1 = {
            let start = migrate_start.clone();
            let w1_done = adds_done.clone();
            let abort = abort.clone();
            rt.fork_on(1, "mc-w1", move |ctx| {
                while !start.load(Ordering::SeqCst) && !abort.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let mut acked = Vec::new();
                let mut maybe = Vec::new();
                for job in [21i64, 22, 25] {
                    match queue.add(&ctx, &job) {
                        Ok(()) => acked.push(job),
                        Err(_) => maybe.push(job),
                    }
                }
                w1_done.store(true, Ordering::SeqCst);
                (acked, maybe, Vec::<i64>::new())
            })
        };

        let driven = std::thread::scope(|scope| {
            let migrator = scope.spawn(|| {
                while !migrate_start.load(Ordering::SeqCst) {
                    if abort.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let outcome = rt
                    .migrate_shard(queue.handle().id(), 0, NodeId(1))
                    .expect("sharded strategy")
                    .map_err(|e| e.to_string());
                *migrate_result.lock().unwrap() = Some(outcome);
                migrate_done.store(true, Ordering::SeqCst);
            });
            let driven = exec.drive(rt.network(), || {
                w0.is_finished() && w1.is_finished() && migrate_done.load(Ordering::SeqCst)
            });
            if driven.is_err() {
                abort.store(true, Ordering::SeqCst);
                rt.network().set_scheduler(None);
            }
            migrator.join().expect("migrator panicked");
            driven
        });
        driven?;

        rt.network().set_scheduler(None);
        if !exec.settle(|| w0.is_finished() && w1.is_finished()) {
            abort.store(true, Ordering::SeqCst);
            rt.shutdown();
            let _ = w0.join();
            let _ = w1.join();
            return Err("liveness violation: workers still blocked after the settle budget".into());
        }
        let (mut acked, mut maybe, observed) = w0.join();
        let (acked1, maybe1, _) = w1.join();
        acked.extend(acked1);
        maybe.extend(maybe1);
        match migrate_result.into_inner().unwrap() {
            Some(Ok(())) => {}
            Some(Err(err)) => return Err(format!("migration failed: {err}")),
            None => return Err("migration never ran".into()),
        }
        let owners = rt
            .shard_owners(queue.handle().id())
            .ok_or("no shard owners")?;
        if owners.first() != Some(&NodeId(1)) {
            return Err(format!(
                "the move did not take effect: partition owners {owners:?}"
            ));
        }
        check_jobs(&acked, &maybe, &observed)
    }
}

// ---------------------------------------------------------------------------
// 7. Adaptive: regime switch under concurrent operations.
// ---------------------------------------------------------------------------

/// Two nodes under the adaptive runtime with a hair-trigger window: the
/// workload makes the home re-evaluate the counter *during* the schedule
/// and give its unmirrored copy a first mirror, on the other node — a
/// switch: the copy is drained and installed again under the next epoch,
/// its mirror primed, while both workers keep reading and writing. Every
/// interleaving of the drain/install hand-shake against in-flight
/// operations must preserve sequential consistency — no write swallowed by
/// a retiring epoch, none applied in both.
pub struct AdaptiveRegimeSwitch {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for AdaptiveRegimeSwitch {
    fn default() -> Self {
        AdaptiveRegimeSwitch {
            budget: McConfig {
                max_schedules: 256,
                max_depth: 64,
                quiesce_idle: Duration::from_millis(10),
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for AdaptiveRegimeSwitch {
    fn name(&self) -> &'static str {
        "adaptive_regime_switch"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::adaptive(2);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: AdaptivePolicy {
                // A report every two accesses, an evaluation every four.
                window: 2,
                // The integer is not shardable, but keep the door shut
                // explicitly: this scenario is about the first mirror.
                shard_write_fraction: 0.95,
                regime_lease: Duration::from_secs(5),
                // Stretch the bounce-retry cadence: while the switch holds
                // an op Stale, a 5 ms retry loop floods the pool with table
                // re-fetches (a fresh message each time — an infinite
                // interleaving tree). At 300 ms a bounced op waits out the
                // switch, yet still fires well inside the engine's
                // progress-wait cap if it is the only activity left.
                stale_retry_delay: Duration::from_millis(300),
                blocked_retry_delay: Duration::from_millis(300),
                // The model checker virtualizes time; real-clock read
                // leases would either never expire or stall explored
                // schedules on sleeps.
                read_lease_ms: 0,
                ..AdaptivePolicy::default()
            },
        };
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        // One report of node 1's is in before the schedule starts. The
        // worker on the home finishes before any message is delivered, so
        // its reports close the first window on their own — and a replicated
        // regime places a mirror only where it knows of a reader: without
        // this the switch would involve nobody but the home and race
        // nothing.
        for _ in 0..2 {
            rt.context(1)
                .invoke(handle, &IntOp::Value)
                .map_err(|e| format!("usage-priming read failed: {e}"))?;
        }
        rt.network().set_scheduler(Some(exec.scheduler()));
        let workers: Vec<_> = (0..2)
            .map(|node| {
                let base = 4 * node as i64;
                // Read-heavy: node 1 is a reader in the window that closes
                // mid-schedule and in every later one, and the home goes on
                // writing, so the object is re-placed exactly once — no
                // flapping, which would blow the interleaving tree past any
                // budget.
                let steps = vec![Step::Read, Step::Read, Step::Write(1 << base), Step::Read];
                rt.fork_on(node, &format!("mc-w{node}"), move |ctx| {
                    counter_worker(ctx, handle, steps)
                })
            })
            .collect();
        let driven = exec.drive(rt.network(), || all_finished(&workers));
        if let Err(violation) = driven {
            rt.network().set_scheduler(None);
            return Err(violation);
        }
        finish_counter(exec, &rt, workers, handle)?;
        // The scenario is pointless if the switch silently stopped firing
        // (a policy-tuning regression would degenerate every schedule to
        // operations shipped to a single copy) — fail loudly instead.
        match rt.copy_holders(0, handle.id()) {
            Some(mirrors) if mirrors == [NodeId(1)] => Ok(()),
            other => Err(format!(
                "the switch never happened: mirrors ended as {other:?}, expected node 1"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// 8 – 9. The update protocol: writing through the writer's own mirror, and
// the owner's push to two holders.
// ---------------------------------------------------------------------------

/// Failure-detector timing of the write-through scenarios, the crash lanes'
/// own: detection well inside the settle budget, attempt slices short
/// enough to notice it.
fn mc_recovery() -> RecoveryConfig {
    RecoveryConfig {
        heartbeat_every: Duration::from_millis(25),
        suspect_after: 12,
        attempt_timeout: Duration::from_millis(250),
        rehome_wait: Duration::from_secs(10),
        ..RecoveryConfig::enabled()
    }
}

/// The operation deadline of the write-through scenarios: it bounds what the
/// crashed node's processes can spend on their way out.
const CRASHED_OP_TIMEOUT: Duration = Duration::from_secs(3);

/// What the processes of a write-through scenario share: the real-time
/// floor of the counter, and the first observation that fell below it.
///
/// The workload only adds positive deltas, so the counter's value orders
/// its states. Two-phase update promises that once *anyone* has observed a
/// value — a read returned it, or a write was acknowledged with it — no
/// copy serves an older one: every other copy applied the update before
/// the first was unlocked, and the writer's own copy is pending until it
/// has. Sequential consistency of one object cannot see a violation of
/// that (each copy still walks the same history), but processes that talk
/// through a second object, or this atomic, can; so every observation
/// checks the floor it started above and then raises it.
#[derive(Clone)]
struct Witness {
    floor: Arc<AtomicI64>,
    stale: Arc<Mutex<Option<String>>>,
    net: Network,
}

impl Witness {
    fn new(net: &Network) -> Self {
        Witness {
            floor: Arc::new(AtomicI64::new(0)),
            stale: Arc::new(Mutex::new(None)),
            net: net.clone(),
        }
    }

    /// Fail-stop: once `node` has crashed its processes no longer exist.
    /// The simulation keeps their threads running against the node's
    /// (now isolated, soon self-promoted) runtime, so whatever they
    /// observe from the crash on is void.
    fn crashed(&self, node: NodeId) -> bool {
        self.net.is_crashed(node)
    }

    /// The floor an observation about to start must not fall below.
    fn floor(&self) -> i64 {
        self.floor.load(Ordering::SeqCst)
    }

    /// An observation that started above `floor` returned `value`.
    fn observed(&self, node: NodeId, floor: i64, value: i64) {
        if value < floor {
            self.stale.lock().unwrap().get_or_insert_with(|| {
                format!(
                    "stale observation on {node}: {value:#x} after {floor:#x} had \
                     already been observed elsewhere"
                )
            });
        }
        self.floor.fetch_max(value, Ordering::SeqCst);
    }
}

/// [`counter_worker`] for a node the search may crash, reporting to a
/// [`Witness`]: stops at the crash, and a write it cannot vouch for (it
/// returned after the crash) counts as maybe-applied.
fn witnessed_worker(
    ctx: OrcaNode,
    handle: ObjectHandle<IntObject>,
    steps: Vec<Step>,
    witness: Witness,
) -> WorkerOutcome {
    let me = ctx.node();
    let mut out = WorkerOutcome::default();
    for step in steps {
        if witness.crashed(me) {
            break;
        }
        let floor = witness.floor();
        match step {
            Step::Write(delta) => match ctx.invoke(handle, &IntOp::Add(delta)) {
                Ok(sum) if !witness.crashed(me) => {
                    out.acked_write(delta, sum);
                    witness.observed(me, floor, sum);
                }
                _ => out.maybe_write(delta),
            },
            Step::Read => {
                if let Ok(value) = ctx.invoke(handle, &IntOp::Value) {
                    if !witness.crashed(me) {
                        out.read(value);
                        witness.observed(me, floor, value);
                    }
                }
            }
        }
    }
    out
}

/// A process that does nothing but read its node's copy until told to
/// stop (or its node crashes). Runs of equal values collapse to one
/// history entry, which loses nothing for the consistency check and keeps
/// its search small.
fn witnessed_reader(
    ctx: OrcaNode,
    handle: ObjectHandle<IntObject>,
    witness: Witness,
    stop: Arc<AtomicBool>,
) -> WorkerOutcome {
    let me = ctx.node();
    let mut out = WorkerOutcome::default();
    while !stop.load(Ordering::SeqCst) && !witness.crashed(me) {
        let floor = witness.floor();
        if let Ok(value) = ctx.invoke(handle, &IntOp::Value) {
            if witness.crashed(me) {
                break;
            }
            if out.ops.last().map(|op| op.reply) != Some(value) {
                out.read(value);
            }
            witness.observed(me, floor, value);
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    out
}

/// The workload the update-protocol scenarios run once their runtime is
/// primed (node 0 authoritative, copies on nodes 1 and 2): a writer on each
/// of `writers` — on a copy holder every write goes through the writer's
/// own copy, on node 0 it is pushed to both — and a reader on each copy
/// holder, reading that copy while the writes are in flight.
fn run_witnessed(
    exec: &mut Execution<'_>,
    rt: &OrcaRuntime,
    handle: ObjectHandle<IntObject>,
    writers: &[usize],
) -> Result<(), String> {
    let witness = Witness::new(rt.network());
    let stop = Arc::new(AtomicBool::new(false));
    rt.network().set_scheduler(Some(exec.scheduler()));
    let writers: Vec<_> = (0i64..)
        .zip(writers)
        .map(|(nth, &node)| {
            let base = 4 * nth;
            let steps = vec![
                Step::Write(1 << base),
                Step::Read,
                Step::Write(1 << (base + 2)),
                Step::Read,
            ];
            let witness = witness.clone();
            rt.fork_on(node, &format!("mc-w{node}"), move |ctx| {
                witnessed_worker(ctx, handle, steps, witness)
            })
        })
        .collect();
    let readers: Vec<_> = [1usize, 2]
        .iter()
        .map(|&node| {
            let (witness, stop) = (witness.clone(), Arc::clone(&stop));
            rt.fork_on(node, &format!("mc-r{node}"), move |ctx| {
                witnessed_reader(ctx, handle, witness, stop)
            })
        })
        .collect();
    let driven = exec.drive(rt.network(), || all_finished(&writers));
    rt.network().set_scheduler(None);
    if driven.is_ok() {
        exec.settle(|| all_finished(&writers));
    }
    stop.store(true, Ordering::SeqCst);
    driven?;
    let processes = writers.into_iter().chain(readers).collect();
    finish_counter(exec, rt, processes, handle)?;
    let stale = witness.stale.lock().unwrap().take();
    stale.map_or(Ok(()), Err)
}

/// Three nodes, an object that adapted into a mirrored copy: node 0 holds
/// the copy, nodes 1 and 2 hold mirrors (placed by the one proposal that
/// ends the priming, before the scheduler installs; usage reporting is off,
/// so the placement stays put and every message in the schedule belongs to
/// a write) and each runs a writer and a reader. Every write is shipped
/// *through* the writer's mirror — marked pending, left out of the owner's
/// push, brought up to date from the acknowledgement — so the search
/// interleaves each acknowledgement with the other holder's push (the
/// fan-out's only one, so never held and never unlocked), the other
/// writer's own write-through, and the reader polling the pending copy. It
/// may crash node 2 (a mirror holder, writer and reader with it) at any
/// point: the owner's push to it then fails into the failure detector and
/// the survivors carry on.
///
/// Checked: sequential consistency over writers *and* readers, no acked
/// write lost, none applied twice, convergence of the live nodes,
/// liveness, and the real-time floor of [`Witness`]. The
/// `SKIP_WRITER_PENDING_MARK` mutation lets node 1's reader see the old
/// value after node 2 has been pushed the new one; only the floor catches
/// that. (It stays on the update policy: under invalidation the
/// reader beside a writer would fetch its copy back — a second sending
/// thread on its node.)
pub struct AdaptiveWriteThroughMirror {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for AdaptiveWriteThroughMirror {
    fn default() -> Self {
        AdaptiveWriteThroughMirror {
            budget: McConfig {
                max_schedules: 64,
                max_depth: 72,
                quiesce_idle: Duration::from_millis(10),
                crash_candidates: vec![NodeId(2)],
                max_crashes: 1,
                // Budget-capped: the interesting branches reorder the
                // first write's acknowledgement, push and unlock.
                shallow_first: true,
                ..McConfig::default()
            },
        }
    }
}

impl Scenario for AdaptiveWriteThroughMirror {
    fn name(&self) -> &'static str {
        "adaptive_write_through_mirror"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::adaptive(3);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: placed_once(AdaptivePolicy {
                op_timeout: CRASHED_OP_TIMEOUT,
                ..AdaptivePolicy::default()
            }),
        };
        cfg.recovery = mc_recovery();
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        prime_copies(&rt, handle)?;
        run_witnessed(exec, &rt, handle, &[1, 2])
    }
}

/// The other half of the update protocol: the *owner* writes, and the
/// fan-out has two holders. Node 0 holds the copy and runs the writer;
/// nodes 1 and 2 hold mirrors (primed before the scheduler installs) and
/// each runs a reader. Every write is pushed to node 1, which locks its
/// mirror until the one-way unlock, and then to node 2 — the last holder,
/// which is never locked: by the time it shows the new value the owner
/// holds its replica mutex and node 1 is locked, so nobody can still serve
/// the old one. The search interleaves both pushes, their
/// acknowledgements and the unlock with the two readers, and may crash
/// node 2 at any point (the fan-out is then node 1 alone, and unheld).
///
/// Checked as in [`AdaptiveWriteThroughMirror`], the real-time floor above
/// all: the `UNHELD_EVERY_PUSH` mutation lets node 1's reader see the new
/// value while node 2, not yet pushed to, still serves the old one.
pub struct ReplicatedOwnerPush {
    /// Exploration budgets.
    pub budget: McConfig,
}

impl Default for ReplicatedOwnerPush {
    fn default() -> Self {
        ReplicatedOwnerPush {
            budget: AdaptiveWriteThroughMirror::default().budget,
        }
    }
}

impl Scenario for ReplicatedOwnerPush {
    fn name(&self) -> &'static str {
        "replicated_owner_push"
    }

    fn config(&self) -> McConfig {
        self.budget.clone()
    }

    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String> {
        let mut cfg = OrcaConfig::primary_copy(3, WritePolicy::Update);
        cfg.strategy = RtsStrategy::Adaptive {
            policy: AdaptivePolicy {
                op_timeout: CRASHED_OP_TIMEOUT,
                ..eager_replication(WritePolicy::Update)
            },
        };
        cfg.recovery = mc_recovery();
        let rt = OrcaRuntime::start(cfg, standard_registry());
        let handle = rt.create::<IntObject>(&0).map_err(|e| e.to_string())?;
        prime_copies(&rt, handle)?;
        run_witnessed(exec, &rt, handle, &[0])
    }
}

/// All nine scenarios: one per protocol family, the three crash lanes, and
/// the two update-protocol lanes.
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(BroadcastOrdering::default()),
        Box::new(BroadcastEraReplay::default()),
        Box::new(PrimaryFetchRace::default()),
        Box::new(PrimaryPromotion::default()),
        Box::new(PrimaryLeaseRevoke::default()),
        Box::new(ShardedHandoff::default()),
        Box::new(AdaptiveRegimeSwitch::default()),
        Box::new(AdaptiveWriteThroughMirror::default()),
        Box::new(ReplicatedOwnerPush::default()),
    ]
}
