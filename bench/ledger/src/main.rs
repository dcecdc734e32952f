//! `ledger` — the invocation benchmark of the Orca reproduction.
//!
//! One process, a three-node in-process cluster per cell, two closed-loop
//! clients; four backends under one workload per run. See `README.md`.

mod calib;
mod cell;
mod compare;
mod json;
mod names;
mod probes;
mod run;
mod spans;
mod stats;
mod sys;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use compare::{Manifest, MetricSpec, RunSet};
use names::{Metrics, Workload};
use run::{RunReport, RunSpec};
use sys::Machine;

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

const USAGE: &str = "usage:
  ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
  ledger --quick                 smoke: every workload, timed and traced, names checked
  ledger probes                  the layer probes alone
  ledger compare A B             judge run set B against run set A (directories of saved outputs)
  ledger calibrate DIR...        min/median/max tables of run sets and the bounds they allow, as JSON
workloads: write_sync_tcp write_pipelined_tcp write_pipelined_sim read_mostly_tcp";

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

fn number(value: f64) -> String {
    // Display prints the shortest digits that read back as the same f64.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn print_report(spec: &RunSpec, machine: &Machine, report: &RunReport) {
    println!(
        "# ledger {} seed {} seconds {} trace {}",
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.traced)
    );
    for (name, value, unit) in report.metrics.rows() {
        println!("{name:<34} {value:>16.3} {unit}");
    }
    for (name, value, unit) in report.reported.rows() {
        println!("{name:<34} {value:>16.3} {unit}  (reported, not gated)");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        println!("# FAILED: {failure}");
    }
    let notes: Vec<String> = report.notes.iter().map(|n| json::quote(n)).collect();
    let reported: Vec<String> = report
        .reported
        .rows()
        .iter()
        .map(|(name, value, _)| format!("{}: {}", json::quote(name), number(*value)))
        .collect();
    println!(
        "{{\"ledger\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"load_start\": {}, \"load_end\": {}, \"pinned_cpu\": {}}}, \"reported\": {{{}}}, \"notes\": [{}]}}}}",
        json::quote(spec.workload.name()),
        spec.seed,
        number(spec.seconds),
        u8::from(spec.traced),
        machine.nproc,
        json::quote(&machine.cpu_model),
        json::quote(&machine.kernel),
        number(machine.load_start),
        number(sys::load_average()),
        machine.pinned_cpu.map_or(-1, |cpu| cpu as i64),
        reported.join(", "),
        notes.join(", "),
    );
    let metrics: Vec<String> = report
        .metrics
        .rows()
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                number(*value),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// The names a run printed must be exactly the manifest's, once each, with
/// the manifest's units, and fit the pipeline's name pattern.
fn check_names(reported: &Metrics, expected: &[MetricSpec], what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for spec in expected {
        let rows: Vec<_> = reported
            .rows()
            .iter()
            .filter(|row| row.0 == spec.name)
            .collect();
        match rows.as_slice() {
            [] => problems.push(format!("{what}: {} not reported", spec.name)),
            [row] if row.2 != spec.unit => problems.push(format!(
                "{what}: {} reported in {}, manifest says {}",
                spec.name, row.2, spec.unit
            )),
            [_] => {}
            _ => problems.push(format!(
                "{what}: {} reported {} times",
                spec.name,
                rows.len()
            )),
        }
    }
    for (name, value, _) in reported.rows() {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
        if !well_formed {
            problems.push(format!(
                "{what}: name {name:?} does not match [A-Za-z0-9_.-]+"
            ));
        }
        if !expected.iter().any(|spec| &spec.name == name) {
            problems.push(format!("{what}: {name} is not in BENCHMARK.json"));
        }
        if !value.is_finite() {
            problems.push(format!("{what}: {name} is not a finite number"));
        }
    }
    problems
}

/// Smoke: every workload, timed and traced, short; fails on any name or
/// unit that differs from `BENCHMARK.json`, any failed operation, any
/// audit miss.
fn quick() -> Result<(), String> {
    let manifest = Manifest::load()?;
    sys::pin_to_one_cpu();
    let started = Instant::now();
    let mut problems = Vec::new();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if manifest.workloads != names {
        problems.push(format!(
            "workloads: manifest has {:?}, ledger runs {names:?}",
            manifest.workloads
        ));
    }
    for workload in Workload::ALL {
        for traced in [false, true] {
            let spec = RunSpec {
                workload,
                seed: 1,
                seconds: if traced { 0.8 } else { 0.3 },
                traced,
                quick: true,
            };
            let report = run::run(&spec);
            let what = format!("{} trace {}", workload.name(), u8::from(traced));
            let expected = if traced {
                &manifest.per_layer
            } else {
                &manifest.end_to_end
            };
            problems.extend(check_names(&report.metrics, expected, &what));
            if !report.correct || report.failed > 0 || !report.failures.is_empty() {
                problems.push(format!(
                    "{what}: correct {} failed {}/{} {:?} {:?}",
                    report.correct, report.failed, report.attempted, report.failures, report.notes
                ));
            }
            println!(
                "{what}: {} metrics, {} operations, {:.1} s elapsed",
                report.metrics.rows().len(),
                report.attempted,
                started.elapsed().as_secs_f64()
            );
        }
    }
    if problems.is_empty() {
        println!("quick: ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            let loaded = Manifest::load().and_then(|manifest| {
                Ok((
                    RunSet::load(Path::new(&args[1]))?,
                    RunSet::load(Path::new(&args[2]))?,
                    manifest,
                ))
            });
            return match loaded {
                Ok((a, b, manifest)) => {
                    let (table, ok) = compare::compare(&a, &b, &manifest);
                    println!("{table}");
                    println!("compare: {}", if ok { "ok" } else { "NOT ok" });
                    ExitCode::from(u8::from(!ok))
                }
                Err(err) => {
                    eprintln!("ledger compare: {err}");
                    ExitCode::from(2)
                }
            };
        }
        Some("calibrate") if args.len() >= 2 => {
            let sets: Result<Vec<_>, String> = args[1..]
                .iter()
                .map(|dir| {
                    let label = Path::new(dir)
                        .file_name()
                        .map_or_else(|| dir.clone(), |name| name.to_string_lossy().into_owned());
                    Ok((label, RunSet::load(Path::new(dir))?))
                })
                .collect();
            return match sets {
                Ok(sets) => {
                    print!("{}", compare::calibration_report(&sets));
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("ledger calibrate: {err}");
                    ExitCode::from(2)
                }
            };
        }
        Some("--quick") if args.len() == 1 => {
            return match quick() {
                Ok(()) => ExitCode::SUCCESS,
                Err(problems) => {
                    eprintln!("quick: FAILED\n{problems}");
                    ExitCode::from(1)
                }
            };
        }
        Some("probes") if args.len() == 1 => {
            let mut log = spans::SpanLog::default();
            sys::pin_to_one_cpu();
            let prober =
                probes::Prober::new(Duration::from_millis(200), 1, Instant::now(), &mut log);
            for (name, value, unit) in prober.run().rows() {
                println!("{name:<34} {value:>16.3} {unit}");
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let mut workload = None;
    let mut spec = RunSpec {
        workload: Workload::WriteSyncTcp,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            rest.next().ok_or(format!("{flag} needs {what}"))
        };
        let parsed: Result<(), String> = match flag.as_str() {
            "--workload" => value("a name").and_then(|name| {
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
                Ok(())
            }),
            "--seed" => value("a number").and_then(|n| {
                spec.seed = n.parse().map_err(|_| format!("bad seed {n}"))?;
                Ok(())
            }),
            "--seconds" => value("a number").and_then(|n| {
                spec.seconds = n
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or(format!("bad seconds {n}"))?;
                Ok(())
            }),
            "--trace" => value("0 or 1").and_then(|n| {
                spec.traced = match n.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {n}")),
                };
                Ok(())
            }),
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(err) = parsed {
            eprintln!("ledger: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    spec.workload = workload;
    let machine = Machine::pin_and_probe();
    let report = run::run(&spec);
    print_report(&spec, &machine, &report);
    if report.correct && report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
