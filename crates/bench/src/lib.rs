//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment of §3–§4 has one module here and one named section of
//! `src/bin/experiments.rs`, which prints every section, or only those named
//! on its command line.
//!
//! | Experiment | Paper | Module | Section |
//! |------------|-------|--------|---------|
//! | PB vs BB broadcast protocols | §3.1 | [`protocols::pb_vs_bb`] | `pb_vs_bb` |
//! | Invalidation vs update vs broadcast RTS | §3.2.2 | [`rtscompare::rts_comparison`] | `update_vs_invalidate` |
//! | TSP speedup (Fig. 2) | §4.1 | [`speedup::tsp_speedup`] | `fig2_tsp_speedup` |
//! | ACP speedup (Fig. 3) | §4.2 | [`speedup::acp_speedup`] | `fig3_acp_speedup` |
//! | Chess speedup + shared-vs-local tables | §4.3 | [`speedup::chess_speedup`], [`speedup::chess_tables`] | `chess_speedup`, `chess_tables` |
//! | ATPG speedup + fault simulation | §4.4 | [`speedup::atpg_speedup`] | `atpg_speedup` |
//!
//! All of them run the real protocol stack in-process and feed the measured
//! work and communication counts into the calibrated cost model of
//! `orca-perf` (ROADMAP aim 1 says why the figures use the model rather than
//! wall-clock time on the build machine). Beyond the paper, [`recovery`] and
//! [`tcp`] are wall-clock sweeps, each with its own bench target.

pub mod loads;
pub mod protocols;
pub mod recovery;
pub mod rtscompare;
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
