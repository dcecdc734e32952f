//! Runtime-system comparison driver (§3.2.2) plus the read-lease lane.
//!
//! Prints the invalidation/update/broadcast comparison table and the
//! leased-read phase, and *asserts* the lease contract, as counted on the
//! wire, so CI catches a regression: the read-only phase under leases puts
//! zero messages on it and every secondary's read is served under its
//! lease, where the single copy costs each of them a round trip. `--smoke`
//! shrinks the sweep for CI.

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let (nodes, reads_per_node) = if smoke { (3, 300) } else { (4, 3000) };
    let report = orca_bench::rtscompare::leased_read_phase(nodes, reads_per_node);
    println!("{}", orca_bench::rtscompare::format_leased(&report));
    assert_eq!(
        report.leased.messages, 0,
        "leased read-only phase must put nothing on the wire: {report:?}"
    );
    let shipped = ((nodes - 1) * reads_per_node) as u64;
    assert_eq!(
        report.leased.lease_local_reads, shipped,
        "every secondary read should be served under its lease: {report:?}"
    );
    assert_eq!(
        report.baseline.messages,
        2 * shipped,
        "without copies every such read is a round trip: {report:?}"
    );
    if !smoke {
        let rows = orca_bench::rtscompare::rts_comparison(nodes, 150, &[0.5, 0.9, 0.99]);
        println!("{}", orca_bench::rtscompare::format_table(&rows));
    }
}
