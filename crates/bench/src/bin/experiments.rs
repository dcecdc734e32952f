//! Run every experiment of the paper's evaluation section and print the
//! regenerated tables.
//!
//! ```text
//! cargo run --release -p orca-bench --bin experiments
//! ```

use orca_bench::{adaptive, protocols, rtscompare, speedup};
use orca_perf::format_speedup_table;

fn main() {
    println!("== Orca shared data-object reproduction: full experiment run ==\n");

    println!(
        "{}",
        protocols::format_table(&protocols::pb_vs_bb(
            16,
            &[64, 1024, 4096, 16384, 65536],
            10
        ))
    );

    println!(
        "{}",
        rtscompare::format_table(&rtscompare::rts_comparison(4, 150, &[0.5, 0.9, 0.99]))
    );

    println!(
        "{}",
        adaptive::format_table(&adaptive::adaptive_comparison(6, 192))
    );

    println!("{}", format_speedup_table(&speedup::tsp_speedup()));
    println!("{}", format_speedup_table(&speedup::acp_speedup()));
    println!("{}", format_speedup_table(&speedup::chess_speedup()));

    println!("# §4.3: shared vs local search tables (8 workers)");
    println!("tables         nodes_searched  est_seconds");
    for (name, nodes, seconds) in speedup::chess_tables() {
        println!("{name:<14} {nodes:>14}  {seconds:>11.3}");
    }
    println!();

    let (plain, with_sim, abs_ratio) = speedup::atpg_speedup();
    println!("{}", format_speedup_table(&plain));
    println!("{}", format_speedup_table(&with_sim));
    println!("# §4.4: absolute-time ratio (no fault simulation / fault simulation) at 16 procs: {abs_ratio:.2}x");
}
