//! Run the experiments of the paper's evaluation section and print the
//! regenerated tables: every section by default, or only those named.
//!
//! ```text
//! cargo run --release -p orca_bench --bin experiments
//! cargo run --release -p orca_bench --bin experiments -- pb_vs_bb chess_tables
//! ```

use orca_bench::{protocols, rtscompare, speedup};
use orca_perf::format_speedup_table;

/// A section's name and what prints it.
type Section = (&'static str, fn());

/// Every section, in print order.
const SECTIONS: &[Section] = &[
    ("pb_vs_bb", || {
        let rows = protocols::pb_vs_bb(16, &[64, 1024, 4096, 16384, 65536], 10);
        println!("{}", protocols::format_table(&rows));
    }),
    ("update_vs_invalidate", || {
        let rows = rtscompare::rts_comparison(4, 150, &[0.5, 0.9, 0.99]);
        println!("{}", rtscompare::format_table(&rows));
    }),
    ("fig2_tsp_speedup", || {
        println!("{}", format_speedup_table(&speedup::tsp_speedup()))
    }),
    ("fig3_acp_speedup", || {
        println!("{}", format_speedup_table(&speedup::acp_speedup()))
    }),
    ("chess_speedup", || {
        println!("{}", format_speedup_table(&speedup::chess_speedup()))
    }),
    ("chess_tables", || {
        println!("# §4.3: shared vs local search tables (8 workers)");
        println!("tables         nodes_searched  est_seconds");
        for (name, nodes, seconds) in speedup::chess_tables() {
            println!("{name:<14} {nodes:>14}  {seconds:>11.3}");
        }
        println!();
    }),
    ("atpg_speedup", || {
        let (plain, with_sim, abs_ratio) = speedup::atpg_speedup();
        println!("{}", format_speedup_table(&plain));
        println!("{}", format_speedup_table(&with_sim));
        println!("# §4.4: absolute-time ratio (no fault simulation / fault simulation) at 16 procs: {abs_ratio:.2}x");
    }),
];

/// The sections `named` selects, in print order: every one when none is.
fn selected(named: &[String]) -> Result<Vec<&'static Section>, String> {
    let known: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = named.iter().find(|name| !known.contains(&name.as_str())) {
        let known = known.join(", ");
        return Err(format!("unknown section {unknown:?}; sections: {known}"));
    }
    let wanted = |name: &&str| named.is_empty() || named.iter().any(|n| n == name);
    Ok(SECTIONS.iter().filter(|(name, _)| wanted(name)).collect())
}

fn main() {
    let named: Vec<String> = std::env::args().skip(1).collect();
    let sections = selected(&named).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2)
    });
    if named.is_empty() {
        println!("== Orca shared data-object reproduction: full experiment run ==\n");
    }
    for (_, print) in sections {
        print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(named: &[&str]) -> Result<Vec<&'static str>, String> {
        let named: Vec<String> = named.iter().map(|name| name.to_string()).collect();
        Ok(selected(&named)?.iter().map(|(name, _)| *name).collect())
    }

    #[test]
    fn no_name_selects_every_section() {
        assert_eq!(names(&[]).unwrap().len(), SECTIONS.len());
    }

    #[test]
    fn named_sections_print_in_table_order_and_an_unknown_name_is_refused() {
        assert_eq!(
            names(&["chess_tables", "pb_vs_bb"]).unwrap(),
            ["pb_vs_bb", "chess_tables"]
        );
        let refused = names(&["pb_vs_bb", "fig4"]).unwrap_err();
        assert!(
            refused.contains("\"fig4\"") && refused.contains("atpg_speedup"),
            "{refused}"
        );
    }
}
