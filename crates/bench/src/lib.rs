//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment of §3–§4 has one module here and one `cargo bench` target
//! in `benches/`; `src/bin/experiments.rs` runs everything and prints the
//! regenerated tables.
//!
//! | Experiment | Paper | Module |
//! |------------|-------|--------|
//! | TSP speedup (Fig. 2) | §4.1 | [`speedup::tsp_speedup`] |
//! | ACP speedup (Fig. 3) | §4.2 | [`speedup::acp_speedup`] |
//! | Chess speedup + shared-vs-local tables | §4.3 | [`speedup::chess_speedup`], [`speedup::chess_tables`] |
//! | ATPG speedup + fault simulation | §4.4 | [`speedup::atpg_speedup`] |
//! | PB vs BB broadcast protocols | §3.1 | [`protocols::pb_vs_bb`] |
//! | Invalidation vs update vs broadcast RTS | §3.2.2 | [`rtscompare::rts_comparison`] |
//! | Sharded RTS write throughput vs partitions | beyond the paper | [`sharded::sharded_throughput`] |
//! | Adaptive RTS vs every fixed regime | beyond the paper | [`adaptive::adaptive_comparison`] |
//! | Crash-recovery latency vs heartbeat settings | beyond the paper | [`recovery::recovery_sweep`] |
//!
//! All experiments run the real protocol stack in-process and feed the
//! measured work and communication counts into the calibrated cost model of
//! `orca-perf` (see DESIGN.md §3 for why wall-clock time on the build machine
//! is not used).

pub mod adaptive;
pub mod loads;
pub mod pipeline;
pub mod protocols;
pub mod recovery;
pub mod rtscompare;
pub mod sharded;
pub mod speedup;
pub mod tcp;

/// Processor counts used for the speedup sweeps (the paper's figures go up
/// to 16; intermediate points keep total bench time reasonable).
pub const PROCESSOR_SWEEP: &[usize] = &[1, 2, 4, 8, 12, 16];

/// Environment-variable override helper: `ORCA_BENCH_<NAME>`.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(format!("ORCA_BENCH_{name}"))
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
