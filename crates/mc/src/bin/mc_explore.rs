//! Explore every model-checking scenario and write `BENCH_mc.json`.
//!
//! The CI model-check lane runs this to record coverage numbers (schedules
//! explored, states visited, prunes, completeness) alongside the benchmark
//! JSONs. Exits non-zero if any scenario surfaces a violation, printing the
//! replayable trace.
//!
//! Usage: `mc_explore [output.json]` (default `BENCH_mc.json`).

use orca_mc::{all_scenarios, explore, Report, RENAMED};

/// The scenario that used to have a row, and why it no longer does (the
/// scenarios renamed by their regime are [`RENAMED`]).
const RETIRED: &str = "{ \"scenario\": \"primary_write_through_copy\", \"why\": \"deleted, not \
    re-pointed: it explored the tree of adaptive_write_through_mirror (64 schedules, 742 steps) \
    under a pin to the regime every object now starts in\" }";

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One row's report; `bound` is its schedule budget, the claim of a row
/// that is not `complete`.
fn report_json(r: &Report, bound: usize) -> String {
    let violation = match &r.violation {
        Some(v) => format!(
            "{{ \"message\": \"{}\", \"trace\": \"{}\", \"replay_confirmed\": {} }}",
            json_escape(&v.message),
            json_escape(&v.trace),
            v.replay_confirmed
        ),
        None => "null".to_string(),
    };
    format!(
        "    {{\n      \"scenario\": \"{}\",\n      \"schedules\": {},\n      \"max_schedules\": {},\n      \"total_steps\": {},\n      \"deepest\": {},\n      \"states\": {},\n      \"pruned\": {},\n      \"divergences\": {},\n      \"complete\": {},\n      \"violation\": {}\n    }}",
        json_escape(&r.scenario),
        r.schedules,
        bound,
        r.total_steps,
        r.deepest,
        r.states,
        r.pruned,
        r.divergences,
        r.complete,
        violation
    )
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_mc.json".to_string());
    let mut reports = Vec::new();
    for script in all_scenarios() {
        let report = explore(&script);
        println!("{}", report.summary());
        reports.push((report, script.budget.max_schedules));
    }
    let body = reports
        .iter()
        .map(|(report, bound)| report_json(report, *bound))
        .collect::<Vec<_>>()
        .join(",\n");
    let renamed = RENAMED
        .iter()
        .map(|(old, new)| format!("    {{ \"from\": \"{old}\", \"to\": \"{new}\" }}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"model_check\",\n  \"scenarios\": [\n{body}\n  ],\n  \"retired\": [\n    {RETIRED}\n  ],\n  \"renamed\": [\n{renamed}\n  ]\n}}\n"
    );
    std::fs::write(&out, json).unwrap_or_else(|err| panic!("writing {out}: {err}"));
    println!("wrote {out}");
    let violations: Vec<&Report> = (reports.iter().map(|(r, _)| r))
        .filter(|r| r.violation.is_some())
        .collect();
    if !violations.is_empty() {
        for report in violations {
            let v = report.violation.as_ref().unwrap();
            eprintln!(
                "VIOLATION in {}: {}\n  replay: ORCA_MC_SCENARIO={} ORCA_MC_TRACE={}",
                report.scenario, v.message, report.scenario, v.trace
            );
            if let Some(flight) = &v.flight {
                eprintln!("  flight recorder of the violating schedule:");
                for line in flight.lines() {
                    eprintln!("    {line}");
                }
            }
        }
        std::process::exit(1);
    }
}
