//! `orca-mc` — a bounded model checker for the Orca runtime systems over
//! the deterministic simulated Amoeba network.
//!
//! The simulator's schedule-driver seam ([`orca_amoeba::sched`]) lets an
//! external driver take control of message delivery and crash injection:
//! every non-passthrough message parks in a held pool and the driver picks
//! which one to deliver (or drop) next, and when to fail-stop a node. This
//! crate builds a CHESS-style *stateless* bounded model checker on top of
//! that seam: small scenarios (2–3 nodes, a handful of operations) are
//! re-executed once per schedule while a depth-first search enumerates
//! delivery interleavings, pruned by a collapsed-state fingerprint and
//! capped by schedule/depth/state budgets. Every terminal state is checked
//! against the extracted `orca-check` invariants — sequential consistency
//! of the recorded histories, no acked write lost, nothing applied twice —
//! plus convergence of the live replicas and liveness (a schedule that
//! wedges the protocol is a violation too).
//!
//! On a violation the engine emits a minimal replayable *trace* (the exact
//! choice sequence) and re-executes it once to confirm the reproduction is
//! deterministic. Set `ORCA_MC_TRACE=<trace>` (plus `ORCA_MC_SCENARIO` to
//! pick the scenario) to replay a failure instead of exploring.
//!
//! See `docs/ARCHITECTURE.md` (model checker section) for the seam
//! mechanics, scenario-writing rules and worked trace examples; the
//! deliberate protocol mutations the checker must catch live behind
//! `orca_rts::sabotage` / `orca_group::sabotage` and are exercised by this
//! crate's `mutations` test suite.

#![warn(missing_docs)]

pub mod engine;
pub mod invariants;
pub mod scenarios;

pub use engine::{
    explore, format_trace, parse_trace, replay_trace, Choice, Execution, McConfig, Report,
    Scenario, StepRecord, Violation,
};
pub use invariants::{check_counter, check_jobs, WorkerOutcome};
pub use scenarios::{
    all_scenarios, AdaptiveRegimeSwitch, AdaptiveWriteThroughMirror, BroadcastEraReplay,
    BroadcastOrdering, PrimaryFetchRace, PrimaryLeaseRevoke, PrimaryPromotion, ReplicatedOwnerPush,
    ShardedHandoff,
};
