//! The schedule-exploration engine: bounded stateless DFS over delivery,
//! drop and crash choices.
//!
//! The checker is *stateless* in the model-checking sense: the runtime
//! systems run on real threads and cannot be snapshotted, so every explored
//! schedule re-executes the whole scenario from scratch (CHESS-style). One
//! execution works like this:
//!
//! 1. The scenario builds an [`orca_core::OrcaRuntime`], installs a
//!    [`SchedulerConfig`] on its network (parking every non-passthrough
//!    message in the held pool) and forks one worker process per node.
//! 2. [`Execution::drive`] repeatedly waits for the network to *quiesce*
//!    (the delivery-activity counter stays stable for
//!    [`McConfig::quiesce_idle`]), enumerates the current [`Choice`] set —
//!    release one held message, drop one unreliable held message, crash a
//!    candidate node — and applies one choice. While a recorded plan prefix
//!    remains it replays those choices *by value* (waiting for the named
//!    message to appear if a timer has not produced it yet); past the
//!    prefix it deterministically picks the smallest choice and records the
//!    full choice set for later backtracking.
//! 3. When the workers finish and the held pool is empty the scenario
//!    checks its invariants on the joined histories.
//!
//! [`explore`] wraps this in a depth-first search: after each execution it
//! pushes one new plan per unexplored alternative at every *branchable*
//! step (a step whose collapsed-state fingerprint had not been seen
//! before), deepest first. Fingerprints hash the canonical pending-message
//! multiset, the per-node delivered/dropped history and the crash set —
//! two schedules reaching the same fingerprint are assumed to lead to the
//! same behaviours, a standard (sound-in-practice, formally incomplete)
//! state-hashing reduction that keeps the tree small.
//!
//! A violated invariant aborts the search: the recorded choice list is
//! formatted as a *trace* (`"r0.1.17.0,r1.0.e.0,c0"`), the schedule is
//! re-executed once from that trace to confirm it reproduces
//! deterministically, and both land in the returned [`Report`]. Setting
//! `ORCA_MC_TRACE` to such a trace (optionally with `ORCA_MC_SCENARIO`
//! naming one scenario) skips exploration and replays exactly that
//! schedule.

use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::network::Network;
use orca_amoeba::sched::HeldDescriptor;
use orca_amoeba::{MsgId, NodeId, SchedulerConfig};
use orca_telemetry::Telemetry;

/// One scheduling decision.
///
/// The derived ordering (releases by canonical message id, then drops, then
/// crashes) is the engine's deterministic enumeration order: the default
/// policy explores the smallest choice first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Choice {
    /// Deliver the held message with this identity.
    Release(MsgId),
    /// Drop the (unreliable) held message with this identity.
    Drop(MsgId),
    /// Crash this node, fail-stop.
    Crash(NodeId),
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Release(id) => write!(f, "r{id}"),
            Choice::Drop(id) => write!(f, "d{id}"),
            Choice::Crash(node) => write!(f, "c{}", node.index()),
        }
    }
}

impl FromStr for Choice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (tag, rest) = s.split_at(1.min(s.len()));
        match tag {
            "r" => Ok(Choice::Release(rest.parse()?)),
            "d" => Ok(Choice::Drop(rest.parse()?)),
            "c" => rest
                .parse::<u16>()
                .map(|n| Choice::Crash(NodeId(n)))
                .map_err(|_| format!("malformed crash choice {s:?}")),
            _ => Err(format!("malformed choice {s:?} (want r…, d… or c…)")),
        }
    }
}

/// Format a choice sequence as a replayable trace string.
pub fn format_trace(choices: &[Choice]) -> String {
    choices
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse a trace string produced by [`format_trace`].
pub fn parse_trace(trace: &str) -> Result<Vec<Choice>, String> {
    trace
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| part.trim().parse())
        .collect()
}

/// Budgets and knobs of one scenario's exploration.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum number of schedules (re-executions) to explore.
    pub max_schedules: usize,
    /// Maximum choices per schedule; a deeper schedule is cut off (the
    /// scheduler is uninstalled and the run finishes in real time, still
    /// invariant-checked, but the search is marked incomplete).
    pub max_depth: usize,
    /// Maximum number of distinct state fingerprints remembered; beyond
    /// this every state looks "already seen" (no new branching).
    pub max_states: usize,
    /// The network counts as quiescent when its activity counter has been
    /// stable this long — all sends triggered by the previous delivery
    /// have happened and the pending pool is the full choice set.
    pub quiesce_idle: Duration,
    /// Upper bound on waiting: for quiescence, for a planned message to
    /// appear during replay, and for *anything* to happen when the pool is
    /// empty but workers have not finished (after which the run is
    /// declared stuck — a liveness violation).
    pub quiesce_cap: Duration,
    /// Nodes the search may crash (fail-stop) as an explicit choice.
    pub crash_candidates: Vec<NodeId>,
    /// Maximum crashes per schedule.
    pub max_crashes: usize,
    /// When true, a crash choice also *uninstalls* the scheduler: the rest
    /// of the run (detection, election, replay) proceeds in real time with
    /// no further choices. Used when recovery is driven by wall-clock
    /// timers that would make post-crash scheduling explode.
    pub after_crash_passthrough: bool,
    /// Maximum message drops per schedule (drops are only offered for
    /// unreliable traffic).
    pub max_drops: usize,
    /// How long a scenario waits for its workers to finish after driving
    /// ends before declaring a liveness violation.
    pub settle: Duration,
    /// Exploration order. `false` (default): classic DFS — backtrack the
    /// *deepest* unexplored alternative first, permuting the latest
    /// decisions before revisiting early ones; the right order when the
    /// budget can exhaust the tree. `true`: breadth-first over divergence
    /// points — always continue from the *shallowest* unexplored
    /// alternative. Use for budget-capped crash scenarios: the schedules
    /// that expose failover bugs diverge near the root (crash/drop while
    /// the first messages are in flight), exactly the branches DFS reaches
    /// last.
    pub shallow_first: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_schedules: 256,
            max_depth: 64,
            max_states: 1 << 16,
            quiesce_idle: Duration::from_millis(15),
            quiesce_cap: Duration::from_secs(2),
            crash_candidates: Vec::new(),
            max_crashes: 0,
            after_crash_passthrough: false,
            max_drops: 0,
            settle: Duration::from_secs(20),
            shallow_first: false,
        }
    }
}

/// What the engine recorded at one step of an execution.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The choice that was applied.
    pub chosen: Choice,
    /// The full (sorted) choice set that was available.
    pub alternatives: Vec<Choice>,
    /// Whether the search may branch here: the state fingerprint was new
    /// and more than one choice was available.
    pub branchable: bool,
}

/// One execution of a scenario under engine control.
///
/// Created by [`explore`] / [`replay_trace`]; scenarios receive it in
/// their `run` method and call [`Execution::drive`] after installing the
/// scheduler and forking their workers.
pub struct Execution<'a> {
    cfg: &'a McConfig,
    plan: Vec<Choice>,
    /// The steps taken so far (grows as `drive` runs).
    pub steps: Vec<StepRecord>,
    visited: &'a mut HashSet<u64>,
    pruned: &'a mut u64,
    crashes: usize,
    drops: usize,
    /// Rolling per-destination-node hash of everything released or dropped,
    /// part of the state fingerprint.
    delivered: Vec<u64>,
    crashed_mask: u64,
    /// Set when replay could not find a planned message within the wait
    /// budget: the schedule diverged (usually timer noise) and its
    /// recording is not trustworthy for further branching.
    pub divergence: Option<String>,
    /// Set when the schedule hit `max_depth` and finished in real time.
    pub depth_exhausted: bool,
    /// Set when a crash choice switched the run to passthrough mode.
    pub passthrough_tail: bool,
    /// Strong handle to the driven network's telemetry hub, captured by
    /// `drive` so the flight recorder outlives the scenario's runtime and
    /// a violation report can include the protocol events.
    pub telemetry: Option<Arc<Telemetry>>,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(hash: u64, value: u64) -> u64 {
    fnv(hash, &value.to_le_bytes())
}

impl<'a> Execution<'a> {
    fn new(
        cfg: &'a McConfig,
        plan: Vec<Choice>,
        visited: &'a mut HashSet<u64>,
        pruned: &'a mut u64,
    ) -> Self {
        Execution {
            cfg,
            plan,
            steps: Vec::new(),
            visited,
            pruned,
            crashes: 0,
            drops: 0,
            delivered: Vec::new(),
            crashed_mask: 0,
            divergence: None,
            depth_exhausted: false,
            passthrough_tail: false,
            telemetry: None,
        }
    }

    /// The budgets this execution runs under.
    pub fn config(&self) -> &McConfig {
        self.cfg
    }

    /// The scheduler configuration scenarios should install: hold
    /// everything except membership heartbeats.
    pub fn scheduler(&self) -> SchedulerConfig {
        SchedulerConfig::default_for_mc()
    }

    /// Wait until the network's activity counter has been stable for the
    /// configured idle window (bounded by the wait cap).
    fn quiesce(&self, net: &Network) {
        let started = Instant::now();
        let mut last = net.activity();
        let mut stable_since = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(1));
            let now = net.activity();
            if now != last {
                last = now;
                stable_since = Instant::now();
            }
            if stable_since.elapsed() >= self.cfg.quiesce_idle
                || started.elapsed() >= self.cfg.quiesce_cap
            {
                return;
            }
        }
    }

    /// The sorted choice set for the current pending pool.
    fn enumerate(&self, pending: &[HeldDescriptor]) -> Vec<Choice> {
        let mut out: Vec<Choice> = pending.iter().map(|d| Choice::Release(d.id)).collect();
        if self.drops < self.cfg.max_drops {
            out.extend(
                pending
                    .iter()
                    .filter(|d| !d.reliable)
                    .map(|d| Choice::Drop(d.id)),
            );
        }
        if self.crashes < self.cfg.max_crashes {
            out.extend(
                self.cfg
                    .crash_candidates
                    .iter()
                    .filter(|n| self.crashed_mask & (1 << n.index()) == 0)
                    .map(|n| Choice::Crash(*n)),
            );
        }
        out.sort();
        out
    }

    /// Collapsed-state fingerprint: pending multiset + delivery history +
    /// crash set. Deliberately excludes payload bytes and wall-clock time.
    fn fingerprint(&self, pending: &[HeldDescriptor]) -> u64 {
        let mut h = FNV_OFFSET;
        for d in pending {
            h = fnv_u64(h, u64::from(d.id.src.0));
            h = fnv_u64(h, u64::from(d.id.dst.0));
            h = fnv_u64(h, d.id.lane);
            h = fnv_u64(h, d.id.seq);
            h = fnv_u64(h, d.len as u64);
            h = fnv_u64(h, u64::from(d.reliable));
        }
        for &d in &self.delivered {
            h = fnv_u64(h, d);
        }
        fnv_u64(h, self.crashed_mask)
    }

    fn note_message(&mut self, id: MsgId, dropped: bool) {
        let dst = id.dst.index();
        if self.delivered.len() <= dst {
            self.delivered.resize(dst + 1, FNV_OFFSET);
        }
        let mut h = self.delivered[dst];
        h = fnv_u64(h, u64::from(id.src.0));
        h = fnv_u64(h, id.lane);
        h = fnv_u64(h, id.seq);
        h = fnv_u64(h, u64::from(dropped));
        self.delivered[dst] = h;
    }

    fn apply(&mut self, net: &Network, choice: Choice) -> Result<(), String> {
        match choice {
            Choice::Release(id) => {
                if !net.sched_release(id) {
                    return Err(format!("release of unknown message {id}"));
                }
                self.note_message(id, false);
            }
            Choice::Drop(id) => {
                if !net.sched_drop(id) {
                    return Err(format!("drop of unknown or reliable message {id}"));
                }
                self.note_message(id, true);
                self.drops += 1;
            }
            Choice::Crash(node) => {
                net.crash(node);
                self.crashed_mask |= 1 << node.index();
                self.crashes += 1;
                if self.cfg.after_crash_passthrough {
                    net.set_scheduler(None);
                    self.passthrough_tail = true;
                }
            }
        }
        Ok(())
    }

    /// Drive the schedule until the workers report finished and no held
    /// messages remain (or the depth budget runs out, or — after a crash in
    /// passthrough mode — immediately).
    ///
    /// `finished` must return true once every worker process of the
    /// scenario has completed. Returns a violation message when the run is
    /// *stuck*: nothing pending, workers not finished, and nothing happened
    /// within the wait cap.
    pub fn drive<F: Fn() -> bool>(&mut self, net: &Network, finished: F) -> Result<(), String> {
        self.telemetry = Some(Arc::clone(net.telemetry()));
        loop {
            if self.passthrough_tail {
                return Ok(());
            }
            self.quiesce(net);
            let pending = net.sched_pending();
            if pending.is_empty() {
                if finished() {
                    return Ok(());
                }
                // Nothing to schedule but the workers are still going:
                // either a local computation or a wall-clock timer is about
                // to produce traffic, or the protocol is deadlocked.
                let waiting = Instant::now();
                let mut progressed = false;
                while waiting.elapsed() < self.cfg.quiesce_cap {
                    std::thread::sleep(Duration::from_millis(2));
                    if finished() {
                        return Ok(());
                    }
                    if !net.sched_pending().is_empty() {
                        progressed = true;
                        break;
                    }
                }
                if progressed {
                    continue;
                }
                return Err(format!(
                    "stuck at step {}: no pending messages, workers not finished, \
                     nothing happened for {:?}",
                    self.steps.len(),
                    self.cfg.quiesce_cap
                ));
            }
            if self.steps.len() >= self.cfg.max_depth {
                self.depth_exhausted = true;
                net.set_scheduler(None);
                return Ok(());
            }
            let choices = self.enumerate(&pending);
            let step = self.steps.len();
            if std::env::var_os("ORCA_MC_DEBUG").is_some() {
                let pool: Vec<String> = pending
                    .iter()
                    .map(|d| {
                        format!(
                            "{}({}B{})",
                            d.id,
                            d.len,
                            if d.reliable { ",rel" } else { "" }
                        )
                    })
                    .collect();
                eprintln!("mc-debug step {step}: pool [{}]", pool.join(" "));
            }
            let (choice, pending) = if step < self.plan.len() {
                let want = self.plan[step];
                match self.await_planned(net, want, &choices) {
                    Some(pending) => (want, pending),
                    None => {
                        self.divergence = Some(format!(
                            "planned choice {want} never became available at step {step}"
                        ));
                        net.set_scheduler(None);
                        return Ok(());
                    }
                }
            } else {
                (choices[0], pending)
            };
            let fp = self.fingerprint(&pending);
            let new_state = if self.visited.len() >= self.cfg.max_states {
                false
            } else {
                self.visited.insert(fp)
            };
            if !new_state {
                *self.pruned += 1;
            }
            let alternatives = self.enumerate(&pending);
            self.steps.push(StepRecord {
                chosen: choice,
                branchable: new_state && alternatives.len() > 1,
                alternatives,
            });
            self.apply(net, choice)?;
        }
    }

    /// Wait for a planned choice to become available (timers may not have
    /// produced the message yet). Returns the pending pool in which the
    /// choice was found, or `None` on divergence.
    fn await_planned(
        &self,
        net: &Network,
        want: Choice,
        choices: &[Choice],
    ) -> Option<Vec<HeldDescriptor>> {
        if choices.contains(&want) {
            return Some(net.sched_pending());
        }
        if matches!(want, Choice::Crash(_)) {
            // Crash choices are always applicable.
            return Some(net.sched_pending());
        }
        let started = Instant::now();
        while started.elapsed() < self.cfg.quiesce_cap {
            std::thread::sleep(Duration::from_millis(2));
            let pending = net.sched_pending();
            let id = match want {
                Choice::Release(id) | Choice::Drop(id) => id,
                Choice::Crash(_) => unreachable!(),
            };
            if pending.iter().any(|d| d.id == id) {
                return Some(pending);
            }
        }
        None
    }

    /// Poll `finished` until it returns true or the settle budget runs
    /// out. Scenarios call this after [`Execution::drive`] so a worker
    /// stuck in a protocol-level livelock (a real violation) cannot hang
    /// the whole test process; on timeout the caller should shut the
    /// runtime down (failing the stuck invocations) and report a liveness
    /// violation.
    pub fn settle<F: Fn() -> bool>(&self, finished: F) -> bool {
        let started = Instant::now();
        loop {
            if finished() {
                return true;
            }
            if started.elapsed() >= self.cfg.settle {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// A model-checking scenario: a small distributed workload plus its
/// invariants.
pub trait Scenario {
    /// Stable name (used by `ORCA_MC_SCENARIO` and in reports).
    fn name(&self) -> &'static str;

    /// The exploration budgets this scenario runs under.
    fn config(&self) -> McConfig;

    /// Execute the workload once under `exec`'s control and check every
    /// invariant on the outcome. Returns `Err` with a human-readable
    /// message on violation.
    fn run(&self, exec: &mut Execution<'_>) -> Result<(), String>;
}

/// A violation found by exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// Replayable schedule trace (`ORCA_MC_TRACE` format).
    pub trace: String,
    /// Whether re-executing the trace reproduced a violation.
    pub replay_confirmed: bool,
    /// Flight-recorder dump of the violating schedule (protocol events and
    /// causal span trees), when the scenario's run reached `drive`.
    pub flight: Option<String>,
}

/// Outcome of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Schedules executed.
    pub schedules: usize,
    /// Total choices applied across all schedules.
    pub total_steps: u64,
    /// Deepest schedule (choices).
    pub deepest: usize,
    /// Distinct state fingerprints seen.
    pub states: usize,
    /// Steps not branched because their fingerprint was already known.
    pub pruned: u64,
    /// Schedules abandoned because replay diverged (timer noise).
    pub divergences: usize,
    /// True when the search ran out of work *before* hitting any budget:
    /// every reachable interleaving (modulo state-hash collapsing) was
    /// explored.
    pub complete: bool,
    /// The violation, if one was found.
    pub violation: Option<Violation>,
}

impl Report {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} schedules, {} steps (deepest {}), {} states, {} pruned, {} diverged, {}{}",
            self.scenario,
            self.schedules,
            self.total_steps,
            self.deepest,
            self.states,
            self.pruned,
            self.divergences,
            if self.complete {
                "exhaustive"
            } else {
                "budget-capped"
            },
            match &self.violation {
                Some(v) => format!("; VIOLATION: {} (trace {})", v.message, v.trace),
                None => String::new(),
            }
        )
    }
}

/// Re-execute one schedule from a trace string and report the outcome.
pub fn replay_trace(scenario: &dyn Scenario, trace: &str) -> Report {
    let cfg = scenario.config();
    let plan = match parse_trace(trace) {
        Ok(plan) => plan,
        Err(err) => {
            return Report {
                scenario: scenario.name().to_string(),
                schedules: 0,
                total_steps: 0,
                deepest: 0,
                states: 0,
                pruned: 0,
                divergences: 0,
                complete: false,
                violation: Some(Violation {
                    message: format!("unparseable trace: {err}"),
                    trace: trace.to_string(),
                    replay_confirmed: false,
                    flight: None,
                }),
            }
        }
    };
    let mut visited = HashSet::new();
    let mut pruned = 0u64;
    let mut exec = Execution::new(&cfg, plan, &mut visited, &mut pruned);
    let result = scenario.run(&mut exec);
    let steps = exec.steps.len();
    let diverged = exec.divergence.is_some();
    let flight = exec.telemetry.take().map(|t| t.flight_dump());
    Report {
        scenario: scenario.name().to_string(),
        schedules: 1,
        total_steps: steps as u64,
        deepest: steps,
        states: visited.len(),
        pruned,
        divergences: usize::from(diverged),
        complete: false,
        violation: result.err().map(|message| Violation {
            message,
            trace: trace.to_string(),
            replay_confirmed: true,
            flight,
        }),
    }
}

/// Explore a scenario's schedule tree depth-first within its budgets.
///
/// Honors `ORCA_MC_TRACE` (replay exactly one schedule instead of
/// exploring), gated by `ORCA_MC_SCENARIO` when several scenarios run in
/// one process.
pub fn explore(scenario: &dyn Scenario) -> Report {
    if let Ok(trace) = std::env::var("ORCA_MC_TRACE") {
        let wanted = std::env::var("ORCA_MC_SCENARIO").ok();
        if wanted.as_deref().is_none_or(|w| w == scenario.name()) {
            return replay_trace(scenario, &trace);
        }
    }
    let cfg = scenario.config();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut pruned = 0u64;
    let mut stack: Vec<Vec<Choice>> = vec![Vec::new()];
    let mut schedules = 0usize;
    let mut total_steps = 0u64;
    let mut deepest = 0usize;
    let mut divergences = 0usize;
    let mut complete = true;

    while let Some(plan) = {
        if cfg.shallow_first {
            // Breadth-first over divergence points: always continue from
            // the shortest pending plan. Ties keep stack order, which
            // preserves the per-step choice ordering (releases, drops,
            // crashes).
            stack
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.len(), *i))
                .map(|(i, _)| i)
                .map(|i| stack.remove(i))
        } else {
            stack.pop()
        }
    } {
        if schedules >= cfg.max_schedules {
            complete = false;
            break;
        }
        schedules += 1;
        let prefix_len = plan.len();
        let mut exec = Execution::new(&cfg, plan, &mut visited, &mut pruned);
        let result = scenario.run(&mut exec);
        total_steps += exec.steps.len() as u64;
        deepest = deepest.max(exec.steps.len());
        if exec.depth_exhausted {
            complete = false;
        }
        if let Err(message) = result {
            let trace = format_trace(&exec.steps.iter().map(|s| s.chosen).collect::<Vec<_>>());
            let flight = exec.telemetry.take().map(|t| t.flight_dump());
            let replay_confirmed = {
                let sub = replay_trace(scenario, &trace);
                sub.violation.is_some()
            };
            return Report {
                scenario: scenario.name().to_string(),
                schedules,
                total_steps,
                deepest,
                states: visited.len(),
                pruned,
                divergences,
                complete: false,
                violation: Some(Violation {
                    message,
                    trace,
                    replay_confirmed,
                    flight,
                }),
            };
        }
        if let Some(divergence) = &exec.divergence {
            if std::env::var_os("ORCA_MC_DEBUG").is_some() {
                let taken: Vec<Choice> = exec.steps.iter().map(|s| s.chosen).collect();
                eprintln!(
                    "mc-debug diverged: {divergence} after {}",
                    format_trace(&taken)
                );
            }
            divergences += 1;
            continue;
        }
        // Branch: for every step past the replayed prefix whose state was
        // new, queue one plan per untried alternative. Pushing shallower
        // steps first makes the stack pop deepest-first — classic DFS,
        // varying the latest decisions before revisiting early ones.
        for (i, step) in exec.steps.iter().enumerate() {
            if i < prefix_len || !step.branchable {
                continue;
            }
            for alt in &step.alternatives {
                if *alt == step.chosen {
                    continue;
                }
                let mut next: Vec<Choice> = exec.steps[..i].iter().map(|s| s.chosen).collect();
                next.push(*alt);
                stack.push(next);
            }
        }
    }

    Report {
        scenario: scenario.name().to_string(),
        schedules,
        total_steps,
        deepest,
        states: visited.len(),
        pruned,
        divergences,
        complete,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_roundtrip_through_display() {
        let r: Choice = "r1.0.17.3".parse().unwrap();
        assert_eq!(r.to_string(), "r1.0.17.3");
        let d: Choice = "d0.2.e.0".parse().unwrap();
        assert_eq!(d.to_string(), "d0.2.e.0");
        let c: Choice = "c2".parse().unwrap();
        assert_eq!(c, Choice::Crash(NodeId(2)));
        assert!("x1.2.3.4".parse::<Choice>().is_err());
        assert!("".parse::<Choice>().is_err());
    }

    #[test]
    fn traces_roundtrip() {
        let plan = vec![
            Choice::Release("0.1.17.0".parse().unwrap()),
            Choice::Drop("1.0.e.2".parse().unwrap()),
            Choice::Crash(NodeId(0)),
        ];
        let trace = format_trace(&plan);
        assert_eq!(trace, "r0.1.17.0,d1.0.e.2,c0");
        assert_eq!(parse_trace(&trace).unwrap(), plan);
        assert_eq!(parse_trace("").unwrap(), Vec::<Choice>::new());
    }

    #[test]
    fn choice_ordering_is_release_drop_crash() {
        let release = Choice::Release("0.1.5.0".parse().unwrap());
        let drop = Choice::Drop("0.1.5.0".parse().unwrap());
        let crash = Choice::Crash(NodeId(0));
        assert!(release < drop && drop < crash);
    }
}
