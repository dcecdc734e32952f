//! Model-checking scenarios for the four hairy protocols, as rows of one
//! table.
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
//! A scenario is a row, a [`Script`]: its name and budget, the runtime it
//! starts, the object, the set-up, one step list per process and the check.
//! One interpreter (`Script::run`) runs every row, under the engine's
//! schedule or — with no scheduler installed — once on OS threads.
//!
//! Scenario-design rules learned the hard way (see each row's comment), and
//! where each shows up in a row:
//!
//! * **One *sending* process per node.** Canonical message identities
//!   number each (src, dst, lane) stream; two application threads sending
//!   from one node would race for sequence numbers and make schedules
//!   non-replayable. A row gives a node at most one process that sends; a
//!   second may share it if it only `Poll`s its node's local copy, which
//!   never sends under the honest protocol. A hand move (`Migrate`) runs on
//!   the driver lane, as the home performs it, not as a node's process.
//! * **Object creation and priming run before the scheduler installs.**
//!   Creation traffic is not what we're checking, and priming (accruing
//!   usage counts, placing secondary copies) sets up the protocol state
//!   the scenario wants to attack: a row's `setup`, whose `Expect` steps
//!   fail the run when it did not do what it claims.
//! * **Timers are tuned way up or folded into the scenario.** A wall-clock
//!   retransmit firing mid-schedule adds spurious choices; scenarios that
//!   don't need retransmission push those timeouts past the schedule
//!   horizon, and the one that does (sequencer failover) switches to
//!   real-time passthrough at the crash: a row's `config` (`placed_once`,
//!   `slow_retry`, the group timers) and `budget`.
//! * **Gates make remote traffic overlap**: `Signal`/`Await` on a named
//!   flag, and `Heard` (a node's first message of the schedule).

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use orca_amoeba::NodeId;
use orca_core::objects::{
    IntObject, IntOp, JobQueue, KvTableObject, KvTableOp, KvTableReply, TableEntry,
};
use orca_core::{
    standard_registry, ObjectHandle, OrcaConfig, OrcaNode, OrcaResult, OrcaRuntime, RtsStrategy,
};
use orca_group::GroupConfig;
use orca_object::shard::shard_of_u64;
use orca_object::ObjectId;
use orca_rts::{AdaptivePolicy, RecoveryConfig, RegimeKind, WritePolicy};

use crate::engine::{Execution, McConfig};
use crate::invariants::{check_counter, check_jobs, WorkerOutcome};

/// One model-checking scenario: a small distributed workload and the check
/// that judges it, as data.
pub struct Script {
    /// Stable name (used by `ORCA_MC_SCENARIO` and in reports), prefixed by
    /// the regime or protocol family under test.
    pub name: &'static str,
    /// Exploration budgets.
    pub budget: McConfig,
    config: OrcaConfig,
    object: Object,
    setup: Vec<Setup>,
    processes: Vec<(Lane, &'static [Step])>,
    /// Judge the counter by the real-time floor of [`Shared`] as well.
    floor: bool,
    post: Option<Expect>,
}

impl Default for Script {
    /// A counter on two nodes of the adaptive engine, nothing else.
    fn default() -> Self {
        Script {
            name: "",
            budget: McConfig::default(),
            config: OrcaConfig::adaptive(2),
            object: Object::Int,
            setup: Vec::new(),
            processes: Vec::new(),
            floor: false,
            post: None,
        }
    }
}

/// The shared object a row's processes work on.
#[derive(Clone, Copy)]
enum Object {
    /// An `IntObject` counter.
    Int,
    /// One key of a `KvTable` as a counter: the value of its entry. One
    /// process writes it — on the node that serves the key, where reading
    /// the value sends nothing — by reading it and putting the sum, deeper
    /// than the entry it replaces.
    Key(u64),
    /// A `JobQueue` of `i64` jobs, judged by [`check_jobs`]: every acked
    /// add drained exactly once (a counter by [`check_counter`]).
    Jobs,
}

/// A created [`Object`].
#[derive(Clone, Copy)]
struct Handle(Object, ObjectId);

/// Where a process runs.
#[derive(Clone, Copy)]
enum Lane {
    /// A process of this node.
    Node(usize),
    /// A thread of the runtime itself: it moves partitions, as the home
    /// does, and sends through whichever node performs the move.
    Driver,
}

/// One step of a process.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Add `delta` to the counter; an error leaves it maybe-applied.
    Write(i64),
    /// Read the counter; a failed read constrains nothing.
    Read,
    /// Read the node's copy until every process that does not poll is
    /// done. Runs of equal values collapse to one history entry, which
    /// loses nothing for the consistency check and keeps its search small.
    Poll,
    /// Add a job; an error records it as maybe-added.
    Add(i64),
    /// Close the queue and take every job out of it.
    Drain,
    /// Raise a named flag.
    Signal(&'static str),
    /// Wait for a named flag.
    Await(&'static str),
    /// Wait for this node's first message since the scheduler installed.
    Heard(u16),
    /// Move a partition to a node, by hand.
    Migrate(u32, u16),
}

/// A step of the set-up, run before the scheduler installs.
enum Setup {
    /// Put a copy of the object on every node but 0 in this regime: reads
    /// make them readers, the proposal places a mirror on each, and a
    /// second round of reads warms every table cache and mirror.
    Prime(RegimeKind),
    /// One `Write` or `Read` on a node.
    Op(usize, Step),
    /// A hand move of a partition to a node.
    Move(u32, u16),
    /// What the steps before must have established.
    Expect(Expect),
}

/// A fact about the object's placement.
enum Expect {
    /// The mirrors node 0 reads in the object's table.
    Holders(&'static [u16]),
    /// The owner of a partition.
    Owner(u32, u16),
    /// A node owns no partition, yet the set-up primed a copy on it: the
    /// keeper of the partitions of the node before it (a move drops every
    /// keeper's copy and primes the keepers of the new owners).
    Keeper(u16),
}

/// The primary-copy backend as the `replicated_*` rows run it: secondary
/// copies are placed once, by the proposal that ends the priming
/// ([`Setup::Prime`]), and kept.
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
        // The model checker virtualizes time; real-clock read leases would
        // either never expire or stall explored schedules on sleeps.
        read_lease_ms: 0,
        ..slow_retry(policy)
    }
}

/// `policy` with the bounce-retry cadence stretched: while a switch or a
/// re-homing holds an op back, a 5 ms retry loop floods the pool with table
/// re-fetches (a fresh message each time — an infinite interleaving tree).
/// At 300 ms a bounced op waits it out, yet still fires well inside the
/// engine's progress-wait cap if it is the only activity left.
fn slow_retry(policy: AdaptivePolicy) -> AdaptivePolicy {
    AdaptivePolicy {
        stale_retry_delay: Duration::from_millis(300),
        ..policy
    }
}

/// `policy` with the operation deadline of the rows whose writers may
/// crash: it bounds what the crashed node's processes can spend on their
/// way out.
fn crash_bounded(policy: AdaptivePolicy) -> AdaptivePolicy {
    let op_timeout = Duration::from_secs(3);
    AdaptivePolicy {
        op_timeout,
        ..policy
    }
}

/// The adaptive engine on `nodes` nodes under `policy`.
fn engine(nodes: usize, policy: AdaptivePolicy) -> OrcaConfig {
    OrcaConfig {
        strategy: RtsStrategy::Adaptive { policy },
        ..OrcaConfig::adaptive(nodes)
    }
}

/// [`engine`] with the failure-detector timing of the crash rows: detection
/// well inside the settle budget.
fn recovering(nodes: usize, policy: AdaptivePolicy) -> OrcaConfig {
    let recovery = RecoveryConfig {
        heartbeat_every: Duration::from_millis(25),
        suspect_after: 12,
        rehome_wait: Duration::from_secs(10),
        ..RecoveryConfig::enabled()
    };
    OrcaConfig {
        recovery,
        ..engine(nodes, policy)
    }
}

/// The broadcast runtime on `nodes` nodes with this retransmission timer.
fn broadcast(nodes: usize, retransmit_timeout: Duration) -> OrcaConfig {
    OrcaConfig {
        strategy: RtsStrategy::Broadcast(GroupConfig {
            retransmit_timeout,
            ..GroupConfig::default()
        }),
        ..OrcaConfig::broadcast(nodes)
    }
}

/// Budgets of a row the search can exhaust.
fn budget(max_schedules: usize, max_depth: usize) -> McConfig {
    McConfig {
        max_schedules,
        max_depth,
        quiesce_idle: Duration::from_millis(10),
        ..McConfig::default()
    }
}

/// Budgets of a row that may crash `node` once: shallow-first, because the
/// bugs of a failover live in the early-crash branches DFS would reach
/// last.
fn crashing(node: u16, max_schedules: usize, max_depth: usize) -> McConfig {
    McConfig {
        crash_candidates: vec![NodeId(node)],
        max_crashes: 1,
        shallow_first: true,
        ..budget(max_schedules, max_depth)
    }
}

/// Every row: one per protocol family, the crash lanes, and the
/// update-protocol lanes.
pub fn all_scenarios() -> Vec<Script> {
    use Lane::*;
    use Setup::{Move, Op, Prime};
    use Step::*;
    let ms = Duration::from_millis;
    vec![
        // Two nodes write and read a fully replicated counter through the
        // PB/BB sequencer protocol. Exhaustively checks that every delivery
        // order of requests and sequenced broadcasts yields one
        // sequentially consistent total order with no write lost or
        // duplicated. Group timers are pushed past the schedule horizon: on
        // a reliable, crash-free run the protocol must not *need*
        // retransmission, and a timer firing mid-schedule would add
        // spurious choices.
        Script {
            name: "broadcast_ordering",
            budget: budget(2048, 48),
            config: broadcast(2, Duration::from_secs(5)),
            processes: vec![
                (Node(0), &[Write(1), Read, Write(4), Read]),
                (Node(1), &[Write(16), Read, Write(64), Read]),
            ],
            ..Script::default()
        },
        // Three nodes; workers run on nodes 1 and 2 while node 0 is the
        // sequencer. The search may drop one (unreliable) broadcast packet
        // and crash the sequencer at any point; the crash switches the run
        // to real-time passthrough, where retransmission, election and the
        // new sequencer's era replay must converge every survivor on one
        // history — no sequence number reused, no acked write lost, no
        // double apply. Recovery runs in real time: each member deposes the
        // dead sequencer at its next timer tick and retransmission kicks in
        // after 250 ms, so a failover completes in well under the settle
        // budget.
        //
        // One write + one read per worker, not two: the schedules that
        // expose failover bugs crash the sequencer *early*, while its
        // SeqData broadcast has reached one survivor but not the other —
        // and a deeper tree spends the whole budget on late-crash schedules
        // before ever reaching the early ones.
        Script {
            name: "broadcast_era_replay",
            budget: McConfig {
                after_crash_passthrough: true,
                max_drops: 1,
                ..crashing(0, 56, 40)
            },
            config: broadcast(3, ms(250)),
            processes: vec![(Node(1), &[Write(1), Read]), (Node(2), &[Write(16), Read])],
            ..Script::default()
        },
        // Two nodes, invalidation: node 1 is a listed copy holder whose
        // copy a write that changes nothing has just invalidated — the
        // steady state of that policy — so from here every write of node 0
        // sends it an invalidation, and its first read fetches a fresh copy
        // while node 0 (the owner) keeps writing: the classic
        // install-over-newer race, a snapshot overtaken in flight by the
        // invalidation of a write it does not contain. Version gating must
        // keep every copy on the owner's version line; the
        // `NO_VERSION_GATING` mutation makes node 1 install the stale
        // snapshot and blindly apply its own write-through on top of it,
        // which surfaces as a process reading a value older than its own
        // acked write.
        //
        // A fetch that arrives while a write holds the owner's object lock
        // parks on it beside node 0's next write, and which of the two gets
        // the lock is the operating system's choice, not the scheduler's:
        // node 0 waits for the fetch to be *served* — the reply is its
        // first message of the schedule — so the snapshot install is still
        // in flight while the writes send invalidations that race it. Node
        // 1's write waits for node 0's second acknowledgement for the same
        // reason: shipped earlier it would park on the owner's lock. It
        // goes through the copy if the fetch left one; the final read must
        // see it.
        Script {
            name: "replicated_fetch_race",
            budget: budget(768, 56),
            config: engine(2, eager_replication(WritePolicy::Invalidate)),
            setup: vec![Prime(RegimeKind::Replicated), Op(0, Write(0))],
            processes: vec![
                (Node(0), &[Heard(0), Write(1), Write(4), Signal("pushed")]),
                (Node(1), &[Read, Await("pushed"), Write(16), Read]),
            ],
            ..Script::default()
        },
        // Three nodes with crash recovery: the object's copy lives on node
        // 0, nodes 1 and 2 hold mirrors (primed before the scheduler
        // installs, so the failover always has copies to choose from). The
        // search crashes node 0 at any point — including mid-two-phase-push
        // — and keeps scheduling while the survivors detect the death and
        // the lowest of them adopts the object and promotes the freshest
        // surviving copy in place (node 1 is also node 0's keeper). Writes
        // that errored during the failover are maybe-applied; everything
        // acked must survive, and no survivor may go on reading the copy
        // the dead owner left it (it stays behind, unlisted; the
        // `REHOME_KEEPS_STALE_COPIES` mutation lists it, which a later read
        // exposes).
        //
        // Retried writes are **exactly-once** even across the promotion:
        // every sync write carries a per-origin `(origin, op_seq)` stamp,
        // the dedup window travels with each mirror, and the promoted
        // replica answers a replayed stamp from the window instead of
        // re-applying it — so a write applied twice is a violation, crash
        // or no crash.
        Script {
            name: "replicated_promotion",
            budget: crashing(0, 72, 72),
            config: recovering(3, eager_replication(WritePolicy::Update)),
            setup: vec![Prime(RegimeKind::Replicated)],
            processes: vec![
                (Node(1), &[Write(1), Read, Write(4), Read]),
                (Node(2), &[Write(16), Read, Write(64), Read]),
            ],
            ..Script::default()
        },
        // Three nodes with *leased* mirrors: node 0 holds the copy, nodes 1
        // and 2 are primed with leased mirrors, so every write in the
        // schedule races outstanding grants. Node 1 serves zero-message
        // local reads under its lease on both sides of a forwarded write
        // while node 0 writes — every write must push an update to each
        // holder, re-lock and unlock the mirrors, and renew the holders'
        // grants before it completes.
        //
        // The search may crash node 2 (a pure lease *holder* — no process):
        // the owner's push to it fails, its grant is settled by the
        // fail-stop declaration (recovery is on for the failure detector),
        // and the epoch bump invalidates node 1's lease, forcing its next
        // read through the renewal path. Leases are far longer than the
        // schedule, so every lease transition is driven by messages or by
        // the epoch fence, never by a wall-clock expiry. A leased read is
        // held to the real-time floor, not only to sequential consistency.
        Script {
            name: "replicated_lease_revoke",
            budget: crashing(2, 48, 72),
            config: recovering(
                3,
                AdaptivePolicy {
                    read_lease_ms: 60_000,
                    ..eager_replication(WritePolicy::Update)
                },
            ),
            setup: vec![Prime(RegimeKind::Replicated)],
            processes: vec![
                (Node(0), &[Write(1), Read, Write(4), Read]),
                (Node(1), &[Read, Write(16), Read]),
            ],
            floor: true,
            ..Script::default()
        },
        // Two nodes, a job queue split over two partitions. While node 1
        // keeps adding jobs, partition 0 moves from node 0 to node 1 — a
        // switch to the same regime, whose withdrawn mark and epoch are
        // what guarantee that no operation is lost or applied twice while
        // ownership moves. The set-up puts partition 0 on node 0 (where the
        // hash of the queue's id put it is not the workload's business).
        // After the dust settles the queue is closed and drained: every
        // acked add must come out exactly once, and the move must have
        // taken effect.
        //
        // Jobs 5, 9, 21, 22 and 25 all land in partition 0, so every add
        // races the move itself. Node 0's process waits the move out, so
        // node 0 never has two threads sending concurrently; node 1's adds
        // land before the withdraw, between withdraw and install, or after
        // the new owner is live, and the scheduler enumerates all of it.
        Script {
            name: "sharded_partition_move",
            budget: budget(256, 72),
            config: engine(2, slow_retry(AdaptivePolicy::sharded(2))),
            object: Object::Jobs,
            setup: vec![Move(0, 0)],
            processes: vec![
                (
                    Node(0),
                    &[
                        Add(5),
                        Signal("go"),
                        Await("moved"),
                        Add(9),
                        Await("added"),
                        Drain,
                    ],
                ),
                (
                    Node(1),
                    &[Await("go"), Add(21), Add(22), Add(25), Signal("added")],
                ),
                (Driver, &[Await("go"), Migrate(0, 1), Signal("moved")]),
            ],
            post: Some(Expect::Owner(0, 1)),
            ..Script::default()
        },
        // Two nodes under the adaptive runtime with a hair-trigger window (a
        // report every two accesses, an evaluation every four): the
        // workload makes the home re-evaluate the counter *during* the
        // schedule and give its unmirrored copy a first mirror, on the other
        // node — a switch: the copy is drained and installed again under the
        // next epoch, its mirror primed, while both processes keep reading
        // and writing. Every interleaving of the drain/install hand-shake
        // against in-flight operations must preserve sequential consistency.
        //
        // Node 1's two set-up reads are one report in before the schedule
        // starts: the process on the home finishes before any message is
        // delivered, so its reports close the first window on their own, and
        // a replicated regime places a mirror only where it knows of a
        // reader. Read-heavy, so the object is re-placed exactly once — no
        // flapping, which would blow the tree past any budget — and the row
        // fails if the switch silently stopped firing.
        Script {
            name: "adaptive_regime_switch",
            budget: budget(256, 64),
            config: engine(
                2,
                AdaptivePolicy {
                    window: 2,
                    regime_lease: Duration::from_secs(5),
                    read_lease_ms: 0,
                    ..slow_retry(AdaptivePolicy::default())
                },
            ),
            setup: vec![Op(1, Read), Op(1, Read)],
            processes: vec![
                (Node(0), &[Read, Read, Write(1), Read]),
                (Node(1), &[Read, Read, Write(16), Read]),
            ],
            post: Some(Expect::Holders(&[1])),
            ..Script::default()
        },
        // Three nodes, an object that adapted into a mirrored copy: node 0
        // holds the copy, nodes 1 and 2 hold mirrors (usage reporting is
        // off, so the placement stays put and every message belongs to a
        // write) and each runs a writer and a reader. Every write is shipped
        // *through* the writer's mirror — marked pending, left out of the
        // owner's push, brought up to date from the acknowledgement — so the
        // search interleaves each acknowledgement with the other holder's
        // push (the fan-out's only one, so never held and never unlocked),
        // the other writer's own write-through, and the reader polling the
        // pending copy. It may crash node 2 at any point. The
        // `SKIP_WRITER_PENDING_MARK` mutation lets node 1's reader see the
        // old value after node 2 has been pushed the new one; only the floor
        // catches that. (It stays on the update policy: under invalidation
        // the reader beside a writer would fetch its copy back — a second
        // sending thread on its node.)
        Script {
            name: "adaptive_write_through_mirror",
            budget: crashing(2, 64, 72),
            config: recovering(3, placed_once(crash_bounded(AdaptivePolicy::default()))),
            setup: vec![Prime(RegimeKind::Replicated)],
            processes: vec![
                (Node(1), &[Write(1), Read, Write(4), Read]),
                (Node(2), &[Write(16), Read, Write(64), Read]),
                (Node(1), &[Poll]),
                (Node(2), &[Poll]),
            ],
            floor: true,
            ..Script::default()
        },
        // The other half of the update protocol: the *owner* writes, and
        // the fan-out has two holders. Every write is pushed to node 2,
        // which locks its mirror until the one-way unlock, and then to node
        // 1 — node 0's keeper as well as a reader, so the last holder, which
        // is never locked: by the time it shows the new value the owner
        // holds its replica mutex and node 2 is locked, so nobody can still
        // serve the old one. The search may crash node 2 at any point (the
        // fan-out is then node 1 alone, and unheld). The `UNHELD_EVERY_PUSH`
        // mutation lets node 2's reader see the new value while node 1, not
        // yet pushed to, still serves the old one.
        Script {
            name: "replicated_owner_push",
            budget: crashing(2, 64, 72),
            config: recovering(3, crash_bounded(eager_replication(WritePolicy::Update))),
            setup: vec![Prime(RegimeKind::Replicated)],
            processes: vec![
                (Node(0), &[Write(1), Read, Write(4), Read]),
                (Node(1), &[Poll]),
                (Node(2), &[Poll]),
            ],
            floor: true,
            ..Script::default()
        },
        // `replicated_owner_push` for a partition: a partition is a copy,
        // and its readers' mirrors are pushed as a replicated object's are.
        // A sharded table of two partitions; nodes 1 and 2 read it, so the
        // proposal that ends the priming gives each a mirror of every
        // partition it does not own, and a hand move — which keeps the
        // mirrors, and after which the readers warm their tables again —
        // puts the written key's partition on node 0 and the other on node
        // 1, so that node 2 owns nothing: the crash is a reader's (an owner's
        // is `sharded_keeper_promotion`'s). Every write is pushed
        // to node 2, held until the unlock, and then to node 1 — the
        // partition's keeper too, pushed once and last — never held; node 2
        // may crash at any point. `UNHELD_EVERY_PUSH` lets node 2's reader
        // see the new value while node 1 still serves the old one.
        Script {
            name: "sharded_partition_mirror",
            budget: crashing(2, 64, 72),
            config: recovering(3, placed_once(crash_bounded(AdaptivePolicy::sharded(2)))),
            object: Object::Key(7),
            setup: vec![
                Prime(RegimeKind::Sharded),
                Move(shard_of_u64(7, 2), 0),
                Move(1 - shard_of_u64(7, 2), 1),
                Op(1, Read),
                Op(2, Read),
                Setup::Expect(Expect::Holders(&[1, 2])),
            ],
            processes: vec![
                (Node(0), &[Write(1), Read, Write(4), Read]),
                (Node(1), &[Poll]),
                (Node(2), &[Poll]),
            ],
            floor: true,
            ..Script::default()
        },
        // A keeper is promoted: three nodes with recovery, a job queue of
        // two partitions. Partition 0 — jobs 5, 9, 21 and 25 — is owned by
        // node 1, not the home, so its keeper is node 2, pushed every add
        // before it is acknowledged. Nodes 0 and 1 add to it and the search
        // may crash node 1 at any point: the home then promotes the keeper
        // in place, and an add retried across the promotion applies once.
        // Node 0 drains the queue when node 1 is done or dead; every acked
        // add must come out exactly once.
        Script {
            name: "sharded_keeper_promotion",
            budget: crashing(1, 48, 72),
            config: recovering(3, placed_once(crash_bounded(AdaptivePolicy::sharded(2)))),
            object: Object::Jobs,
            setup: vec![Move(0, 1), Move(1, 0), Setup::Expect(Expect::Keeper(2))],
            processes: vec![
                (Node(0), &[Add(5), Add(9), Await("added"), Drain]),
                (Node(1), &[Add(21), Add(25), Signal("added")]),
            ],
            ..Script::default()
        },
        // A re-placement under a writer: two nodes with recovery, a job queue
        // of two partitions, partition 0 on node 1 and partition 1 (jobs 3,
        // 4) on the home, node 0. The home moves partition 0 to itself —
        // drained and installed — and, with the install, re-stamps partition
        // 1, whose owner stays and primes its keeper on node 1 under the next
        // epoch, while node 1 adds job 4 to it. Every acked add must come out of the
        // final drain exactly once. (A writer on a moving partition, its
        // sibling re-stamped, is `sharded_partition_move`.)
        Script {
            name: "sharded_replacement_under_writers",
            budget: budget(512, 72),
            config: recovering(2, placed_once(AdaptivePolicy::sharded(2))),
            object: Object::Jobs,
            setup: vec![Move(0, 1), Move(1, 0)],
            processes: vec![
                (Node(1), &[Add(3), Signal("go"), Add(4), Signal("a")]),
                (Driver, &[Await("go"), Migrate(0, 0), Signal("moved")]),
                (Node(0), &[Await("moved"), Await("a"), Drain]),
            ],
            post: Some(Expect::Owner(0, 0)),
            ..Script::default()
        },
        // The same re-placement across a death: three nodes with recovery,
        // partition 0 (jobs 5, 9) on node 1 and partition 1 (job 3) on the
        // home, node 0. The home moves partition 1 to node 2 and re-stamps
        // partition 0 while node 1 adds to it and node 2 to the moving one;
        // the search may crash the home or the kept owner at any point, and
        // a move the crash cuts short may fail. Node 2 drains when node 1 is
        // done or dead; every acked add must come out exactly once. (A
        // re-stamp sent with the drains, before they answer, loses job 5 to
        // the home's death within the first 76 schedules: the adopter takes
        // the re-stamped epoch, which the drained partition never reached.)
        Script {
            name: "sharded_replacement_across_a_death",
            budget: McConfig {
                crash_candidates: vec![NodeId(0), NodeId(1)],
                ..crashing(0, 192, 72)
            },
            config: recovering(3, placed_once(crash_bounded(AdaptivePolicy::sharded(2)))),
            object: Object::Jobs,
            setup: vec![Move(0, 1), Move(1, 0)],
            processes: vec![
                (Node(1), &[Add(5), Signal("go"), Add(9), Signal("a")]),
                (Driver, &[Await("go"), Migrate(1, 2), Signal("moved")]),
                (Node(2), &[Add(3), Await("moved"), Await("a"), Drain]),
            ],
            ..Script::default()
        },
    ]
}

/// The row named `name`; panics when there is none.
pub fn script(name: &str) -> Script {
    let mut rows = all_scenarios().into_iter();
    rows.find(|row| row.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

/// Scenarios renamed by the regime they test: old name, new name.
pub const RENAMED: &[(&str, &str)] = &[
    ("primary_fetch_race", "replicated_fetch_race"),
    ("primary_promotion", "replicated_promotion"),
    ("primary_lease_revoke", "replicated_lease_revoke"),
    ("sharded_handoff", "sharded_partition_move"),
];

impl Object {
    fn create(self, rt: &OrcaRuntime) -> OrcaResult<Handle> {
        let id = match self {
            Object::Int => rt.create::<IntObject>(&0)?.id(),
            Object::Key(_) => rt.create::<KvTableObject>(&Default::default())?.id(),
            Object::Jobs => JobQueue::<i64>::create(rt.main())?.handle().id(),
        };
        Ok(Handle(self, id))
    }
}

impl Handle {
    fn queue(self) -> JobQueue<i64> {
        JobQueue::from_handle(ObjectHandle::from_id(self.1))
    }

    /// The counter's value.
    fn value(self, ctx: &OrcaNode) -> OrcaResult<i64> {
        let Object::Key(key) = self.0 else {
            return ctx.invoke(ObjectHandle::<IntObject>::from_id(self.1), &IntOp::Value);
        };
        let get = KvTableOp::Get(key);
        Ok(
            match ctx.invoke(ObjectHandle::<KvTableObject>::from_id(self.1), &get)? {
                KvTableReply::Found(entry) => entry.value,
                _ => 0,
            },
        )
    }

    /// Add `delta` to the counter; the value the write left.
    fn add(self, ctx: &OrcaNode, delta: i64) -> OrcaResult<i64> {
        let Object::Key(key) = self.0 else {
            return ctx.invoke(
                ObjectHandle::<IntObject>::from_id(self.1),
                &IntOp::Add(delta),
            );
        };
        let value = self.value(ctx)? + delta;
        let entry = TableEntry {
            depth: value as i32,
            value,
            aux: 0,
        };
        let put = KvTableOp::Put { key, entry };
        ctx.invoke(ObjectHandle::<KvTableObject>::from_id(self.1), &put)?;
        Ok(value)
    }

    /// Move `partition` to `node` by hand.
    fn migrate(self, rt: &OrcaRuntime, partition: u32, node: u16) -> Result<(), String> {
        let moved = rt.migrate_shard(self.1, partition, NodeId(node));
        moved.ok_or("not sharded")?.map_err(|e| e.to_string())
    }
}

impl Setup {
    fn run(&self, rt: &OrcaRuntime, object: Handle, primed: &[u64]) -> Result<(), String> {
        match *self {
            Setup::Prime(regime) => {
                let read = |what: &str| -> Result<(), String> {
                    for node in (1..rt.processors()).flat_map(|node| [node; 4]) {
                        let read = object.value(rt.context(node));
                        read.map_err(|e| format!("{what} read failed: {e}"))?;
                    }
                    Ok(())
                };
                read("usage-priming")?;
                let proposed = rt.propose_regime(object.1);
                let holders = rt.copy_holders(0, object.1).unwrap_or_default();
                if proposed != Some(regime) || holders.len() != rt.processors() - 1 {
                    let found = format!("{proposed:?} with copies on {holders:?}");
                    return Err(format!("priming left the object {found}, not {regime:?}"));
                }
                read("mirror-priming")
            }
            Setup::Op(node, step) => {
                let ctx = rt.context(node);
                let done = match step {
                    Step::Write(delta) => object.add(ctx, delta).map(drop),
                    Step::Read => object.value(ctx).map(drop),
                    other => panic!("{other:?} is no set-up step"),
                };
                done.map_err(|e| format!("set-up {step:?} on node {node} failed: {e}"))
            }
            Setup::Move(partition, node) => object.migrate(rt, partition, node),
            Setup::Expect(ref expect) => expect.check(rt, object, primed),
        }
    }
}

impl Expect {
    /// Whether the fact holds; `primed` counts the copies each node had
    /// installed when the object was created.
    fn check(&self, rt: &OrcaRuntime, object: Handle, primed: &[u64]) -> Result<(), String> {
        let nodes = |nodes: Option<Vec<NodeId>>| -> Vec<u16> {
            nodes.unwrap_or_default().iter().map(|n| n.0).collect()
        };
        let owners = nodes(rt.shard_owners(object.1));
        let (holds, why) = match *self {
            Expect::Holders(want) => {
                let holders = nodes(rt.copy_holders(0, object.1));
                let why = format!("mirrors on {holders:?}, expected {want:?}");
                (holders == want, why)
            }
            Expect::Owner(partition, node) => (
                owners.get(partition as usize) == Some(&node),
                format!("partition {partition} is not on node {node}: owners {owners:?}"),
            ),
            Expect::Keeper(node) => {
                let primed = copies_primed(rt)[usize::from(node)] - primed[usize::from(node)];
                let why = format!("node {node} keeps nothing: owners {owners:?}, {primed} primed");
                (!owners.contains(&node) && primed > 0, why)
            }
        };
        holds.then_some(()).ok_or(why)
    }
}

/// What one process observed.
#[derive(Default)]
struct Outcome {
    counter: WorkerOutcome,
    acked: Vec<i64>,
    maybe: Vec<i64>,
    drained: Vec<i64>,
    /// A driver step that failed.
    failed: Option<String>,
}

/// What a row's processes share: the flags they signal, the messages each
/// node had sent when the scheduler installed, and the counter's real-time
/// floor with the first observation that fell below it.
///
/// The workloads only add positive deltas, so the counter's value orders
/// its states. Two-phase update promises that once *anyone* has observed a
/// value — a read returned it, or a write was acknowledged with it — no
/// copy serves an older one: every other copy applied the update before
/// the first was unlocked, and the writer's own copy is pending until it
/// has. Sequential consistency of one object cannot see a violation of
/// that (each copy still walks the same history), but processes that talk
/// through a second object, or this atomic, can; so every observation
/// checks the floor it started above and then raises it.
struct Shared {
    rt: Arc<OrcaRuntime>,
    sent: Vec<u64>,
    flags: Mutex<Vec<&'static str>>,
    floor: AtomicI64,
    stale: Mutex<Option<String>>,
    /// The run is over for whoever still waits: polls stop, gates open, a
    /// drain is skipped.
    over: AtomicBool,
}

impl Shared {
    /// An observation on `node` that started above `floor` returned `value`.
    fn observed(&self, node: NodeId, floor: i64, value: i64) {
        if value < floor {
            let stale = format!(
                "stale observation on {node}: {value:#x} after {floor:#x} had already \
                 been observed elsewhere"
            );
            self.stale
                .lock()
                .expect("lock poisoned")
                .get_or_insert(stale);
        }
        self.floor.fetch_max(value, Ordering::SeqCst);
    }
}

/// Run one process's steps on `ctx`. Fail-stop: once its node has crashed
/// a process no longer exists — the simulation keeps its thread running
/// against the node's isolated runtime, so whatever it observes from the
/// crash on is void, a write it cannot vouch for is maybe-applied, and of
/// its remaining steps only its signals are kept.
fn process(ctx: &OrcaNode, lane: Lane, object: Handle, steps: &[Step], shared: &Shared) -> Outcome {
    let me = ctx.node();
    let down = || matches!(lane, Lane::Node(_)) && shared.rt.network().is_crashed(me);
    let over = || shared.over.load(Ordering::SeqCst);
    let flags = || shared.flags.lock().expect("lock poisoned");
    let wait = |open: &dyn Fn() -> bool| {
        while !open() && !over() {
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    let mut out = Outcome::default();
    for &step in steps {
        if down() && !matches!(step, Step::Signal(_)) {
            continue;
        }
        let floor = shared.floor.load(Ordering::SeqCst);
        match step {
            Step::Write(delta) => match object.add(ctx, delta) {
                Ok(sum) if !down() => {
                    out.counter.acked_write(delta, sum);
                    shared.observed(me, floor, sum);
                }
                _ => out.counter.maybe_write(delta),
            },
            Step::Read | Step::Poll => loop {
                let floor = shared.floor.load(Ordering::SeqCst);
                let value = object.value(ctx);
                if down() {
                    break;
                }
                if let Ok(value) = value {
                    let changed = out.counter.ops.last().map(|op| op.reply) != Some(value);
                    if step == Step::Read || changed {
                        out.counter.read(value);
                    }
                    shared.observed(me, floor, value);
                }
                if step == Step::Read {
                    break;
                }
                std::thread::sleep(Duration::from_micros(300));
                if over() || down() {
                    break;
                }
            },
            Step::Add(job) => match object.queue().add(ctx, &job) {
                Ok(()) if !down() => out.acked.push(job),
                _ => out.maybe.push(job),
            },
            Step::Drain => {
                if !over() && object.queue().close(ctx).is_ok() {
                    while let Ok(Some(job)) = object.queue().get(ctx) {
                        out.drained.push(job);
                    }
                }
            }
            Step::Signal(flag) => flags().push(flag),
            Step::Await(flag) => wait(&|| flags().contains(&flag)),
            Step::Heard(node) => {
                let sent = || shared.rt.network_stats().node(NodeId(node)).messages_sent();
                wait(&|| sent() > shared.sent[usize::from(node)]);
            }
            Step::Migrate(partition, node) => {
                // A move a crash cut short may fail.
                let moved = object.migrate(&shared.rt, partition, node);
                let nodes = 0..shared.sent.len() as u16;
                let crashed = nodes
                    .into_iter()
                    .any(|n| shared.rt.network().is_crashed(NodeId(n)));
                if let (Err(e), false) = (moved, crashed) {
                    out.failed = Some(format!("migration failed: {e}"));
                }
            }
        }
    }
    out
}

/// Read the final value on every live node, polling until they agree (or a
/// convergence budget runs out, in which case the last disagreeing set is
/// returned and the divergence check fails). Polling matters: once the
/// scheduler uninstalls, stragglers catch up through wall-clock machinery —
/// gap repair after a dropped broadcast, post-election era replay, a
/// promotion completing — so "not converged *yet*" is not a violation, but
/// "not converged within the budget" is.
fn read_finals(rt: &OrcaRuntime, object: Handle) -> Result<Vec<i64>, String> {
    let deadline = Instant::now() + Duration::from_secs(8);
    loop {
        let finals: Result<Vec<i64>, String> = (0..rt.processors())
            .filter(|&node| !rt.network().is_crashed(NodeId::from(node)))
            .map(|node| object.value(rt.context(node)).map_err(|e| (node, e)))
            .collect::<Result<_, _>>()
            .map_err(|(node, e)| format!("final read on node {node} failed: {e}"));
        let agreed = finals
            .as_ref()
            .is_ok_and(|f| f.windows(2).all(|w| w == [w[0]; 2]));
        if agreed || Instant::now() >= deadline {
            return finals.map_err(|e| format!("{e} (and kept failing until the deadline)"));
        }
        std::thread::sleep(Duration::from_millis(40));
    }
}

/// The copies each node has installed from a snapshot: its mirrors and
/// keepers.
fn copies_primed(rt: &OrcaRuntime) -> Vec<u64> {
    rt.rts_stats().iter().map(|s| s.copies_fetched).collect()
}

/// Poll `finished` until it returns true or `budget` runs out.
fn settle(budget: Duration, finished: impl Fn() -> bool) -> bool {
    let started = Instant::now();
    while !finished() {
        if started.elapsed() >= budget {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

impl Script {
    /// Run the row once — under `exec`'s schedule, or on OS threads with no
    /// scheduler installed when there is none — and check it. Returns `Err`
    /// with a human-readable message on a violation.
    ///
    /// After the drive the scheduler is uninstalled and the processes that
    /// do not poll get the settle budget to finish; then the pollers stop,
    /// and a process still blocked is a liveness violation.
    pub(crate) fn run(&self, exec: Option<&mut Execution<'_>>) -> Result<(), String> {
        let rt = Arc::new(OrcaRuntime::start(self.config.clone(), standard_registry()));
        let object = self.object.create(&rt).map_err(|e| e.to_string())?;
        let primed = copies_primed(&rt);
        for step in &self.setup {
            step.run(&rt, object, &primed)?;
        }
        if let Some(exec) = &exec {
            rt.network().set_scheduler(Some(exec.scheduler()));
        }
        let shared = Arc::new(Shared {
            sent: (0..rt.processors() as u16)
                .map(|n| rt.network_stats().node(NodeId(n)).messages_sent())
                .collect(),
            rt: Arc::clone(&rt),
            flags: Mutex::new(Vec::new()),
            floor: AtomicI64::new(0),
            stale: Mutex::new(None),
            over: AtomicBool::new(false),
        });
        let lanes: Vec<_> = (self.processes.iter().enumerate())
            .map(|(at, (lane, steps))| {
                let (lane, steps, shared) = (*lane, *steps, Arc::clone(&shared));
                let node = if let Lane::Node(node) = lane { node } else { 0 };
                let polls = steps.contains(&Step::Poll);
                let run = move |ctx: OrcaNode| process(&ctx, lane, object, steps, &shared);
                (polls, rt.fork_on(node, &format!("mc-{at}"), run))
            })
            .collect();
        let workers_done = || lanes.iter().all(|(polls, l)| *polls || l.is_finished());
        let driven = match exec {
            Some(exec) => exec.drive(rt.network(), workers_done),
            None => Ok(()),
        };
        rt.network().set_scheduler(None);
        let stuck = driven.err().or_else(|| {
            settle(self.budget.settle, workers_done);
            shared.over.store(true, Ordering::SeqCst);
            let all_done = || lanes.iter().all(|(_, l)| l.is_finished());
            let hang = "liveness violation: workers still blocked after the settle budget";
            (!settle(self.budget.settle, all_done)).then(|| hang.to_string())
        });
        if let Some(violation) = stuck {
            // Unblock the stuck invocations and gates so the joins below
            // return, then report the violation.
            shared.over.store(true, Ordering::SeqCst);
            rt.shutdown();
            for (_, lane) in lanes {
                let _ = lane.join();
            }
            return Err(violation);
        }
        let outcomes: Vec<Outcome> = lanes.into_iter().map(|(_, l)| l.join()).collect();
        if let Some(failed) = outcomes.iter().find_map(|o| o.failed.clone()) {
            return Err(failed);
        }
        if let Object::Jobs = self.object {
            let all = |of: fn(&Outcome) -> &Vec<i64>| {
                outcomes.iter().flat_map(of).copied().collect::<Vec<_>>()
            };
            check_jobs(&all(|o| &o.acked), &all(|o| &o.maybe), &all(|o| &o.drained))?;
        } else {
            let finals = read_finals(&rt, object)?;
            let counters: Vec<WorkerOutcome> = outcomes.into_iter().map(|o| o.counter).collect();
            check_counter(&counters, &finals)?;
            let stale = shared.stale.lock().expect("lock poisoned").take();
            if let (true, Some(stale)) = (self.floor, stale) {
                return Err(stale);
            }
        }
        self.post
            .as_ref()
            .map_or(Ok(()), |expect| expect.check(&rt, object, &primed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row once on OS threads, no scheduler installed: its set-up
    /// does what it claims, its processes finish and its check holds.
    #[test]
    fn every_row_runs_once_on_os_threads() {
        for row in all_scenarios() {
            let started = Instant::now();
            let run = row.run(None);
            eprintln!("{}: {:?} in {:?}", row.name, run, started.elapsed());
            run.unwrap_or_else(|violation| panic!("{}: {violation}", row.name));
        }
    }

    #[test]
    fn rows_are_named_once_each_by_their_regime() {
        let rows = all_scenarios();
        let families = ["broadcast_", "replicated_", "sharded_", "adaptive_"];
        for (at, row) in rows.iter().enumerate() {
            assert!(
                families.iter().any(|family| row.name.starts_with(family)),
                "{} is not named by its regime",
                row.name
            );
            assert!(
                rows[..at].iter().all(|earlier| earlier.name != row.name),
                "two rows are named {}",
                row.name
            );
        }
    }

    #[test]
    fn every_renamed_scenario_maps_to_a_live_row() {
        let names: Vec<&str> = all_scenarios().iter().map(|row| row.name).collect();
        for (old, new) in RENAMED {
            assert!(
                names.contains(new),
                "{old} was renamed to {new}, which is no row"
            );
            assert!(!names.contains(old), "{old} is renamed and still a row");
        }
    }
}
