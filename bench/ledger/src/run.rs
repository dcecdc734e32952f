//! One run of the ledger: every backend under one workload, round after
//! round, reduced to the metrics the run reports — the end-to-end numbers
//! of the timed run, or the per-layer numbers and budget of the traced run.

use std::time::{Duration, Instant};

use crate::calib::Calibrator;
use crate::cell::{run_cell, CellLayers, CellPlan, CellResult, Inputs};
use crate::names::{Backend, Metrics, Workload, CLIENTS};
use crate::probes::Prober;
use crate::spans::{SpanLog, SpanSource};
use crate::stats::{median, percentile};
use crate::sys::Usage;

/// Rounds of a timed run; each visits every backend once.
const ROUNDS: usize = 7;
/// Rounds of a traced run (each holds a plain and a traced cell per
/// backend).
const TRACED_ROUNDS: usize = 2;
/// Latency samples a `p50_us` must rest on, or the run fails.
const SAMPLE_FLOOR: usize = 10_000;
/// Share of a traced run's seconds given to the layer probes.
const PROBE_SHARE: f64 = 0.25;
/// Timed probes of [`Prober::run`], for splitting the probe budget.
const PROBES: f64 = 22.0;

/// End-to-end metrics by definition that calibration demoted to per-layer
/// (`baseline/calibration.json` has the numbers and the rule): the timed
/// run prints them beside its metrics, the traced run among its own. On
/// the shared calibration box no wall-clock number repeats from run to run
/// within half the largest bound the pipeline allows; what a cluster puts
/// on the network per invocation does, except where broadcast retransmits.
const DEMOTED: [&str; 9] = [
    "broadcast.ops_per_s",
    "broadcast.p50_us",
    "broadcast.wire_bytes_per_op",
    "primary.ops_per_s",
    "primary.p50_us",
    "sharded.ops_per_s",
    "sharded.p50_us",
    "adaptive.ops_per_s",
    "adaptive.p50_us",
];

fn gated(name: &str) -> bool {
    !DEMOTED.contains(&name)
}

/// The one `p50_us` without a sample floor: a sample of a pipelined
/// workload is a window of 64 writes, broadcast completes about 250 of
/// them a second, and ten thousand would take three whole runs. Its note
/// says what it rests on.
fn has_floor(workload: Workload, backend: Backend) -> bool {
    !(workload.pipelined() && backend == Backend::Broadcast)
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed of the operation sequences.
    pub seed: u64,
    /// Seconds of timed windows (timed run) or of probes plus windows
    /// (traced run); warm-up, set-up and audit come on top.
    pub seconds: f64,
    /// Report per-layer metrics from plain and traced cells instead of the
    /// end-to-end metrics.
    pub traced: bool,
    /// Smoke mode: one short round, no sample floor.
    pub quick: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct RunReport {
    /// Every reply and every audited key agreed with the acknowledged
    /// history.
    pub correct: bool,
    /// Operations issued by the clients.
    pub attempted: u64,
    /// Operations refused, failed or timed out.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Demoted end-to-end metrics of a timed run: printed beside the
    /// metrics, kept out of the result line.
    pub reported: Metrics,
    /// Remarks for the human reader (each backend's rounds, re-run rounds).
    pub notes: Vec<String>,
    /// Reasons the run's numbers may not be used (a missed sample floor);
    /// any makes the process exit non-zero.
    pub failures: Vec<String>,
}

/// Everything the rounds of one backend produced.
#[derive(Default)]
struct BackendRounds {
    /// Whole-window throughput of each round.
    ops_per_s: Vec<f64>,
    /// Exact median latency of each round's samples, microseconds.
    p50_us: Vec<f64>,
    /// Latency samples of all rounds, nanoseconds.
    latencies: Vec<u32>,
    setup_s: Vec<f64>,
    layers: Vec<CellLayers>,
    switches: Vec<u64>,
}

impl BackendRounds {
    fn absorb(&mut self, mut cell: CellResult) {
        self.ops_per_s.push(cell.ops_per_s);
        self.p50_us.push(cell.p50_us);
        self.latencies.append(&mut cell.latencies);
        self.setup_s.push(cell.setup.as_secs_f64());
        self.layers.push(cell.layers);
        self.switches.push(cell.switches_in_window);
    }

    fn layer(&self, field: impl Fn(&CellLayers) -> f64) -> f64 {
        median(&self.layers.iter().map(field).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// The three numbers every backend has by definition, under their
    /// names: throughput is the median of the rounds, latency the exact
    /// median of the rounds' merged samples, and bytes on the network per
    /// invocation the median of the rounds.
    fn headline(&mut self, backend: Backend) -> [(String, f64, &'static str); 3] {
        let b = backend.name();
        let p50_ns = percentile(&mut self.latencies, 0.5);
        [
            (
                format!("{b}.ops_per_s"),
                median(&self.ops_per_s).unwrap_or(0.0),
                "1/s",
            ),
            (
                format!("{b}.p50_us"),
                p50_ns.map_or(0.0, |ns| f64::from(ns) / 1e3),
                "us",
            ),
            (
                format!("{b}.wire_bytes_per_op"),
                self.layer(|l| l.wire_bytes_per_op),
                "B",
            ),
        ]
    }

    /// One line per backend for the human reader: every round's
    /// whole-window values.
    fn by_round(&self, backend: Backend) -> String {
        let rounds: Vec<String> = (self.ops_per_s.iter().zip(&self.p50_us))
            .map(|(ops_per_s, p50_us)| format!("{ops_per_s:.1}/s:{p50_us:.1}us"))
            .collect();
        format!(
            "{} by round, ops_per_s:p50_us: {}",
            backend.name(),
            rounds.join(" ")
        )
    }
}

/// Totals across every cell of a run, kept or re-run.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    wrong: u64,
    reported: Metrics,
    notes: Vec<String>,
    failures: Vec<String>,
}

/// Run one cell; an adaptive cell whose regime switched inside the timed
/// window measured two regimes, so it is run again, once. Operations of a
/// discarded cell still count in the run's totals.
fn kept_cell(
    spec: &RunSpec,
    backend: Backend,
    round: usize,
    plan: CellPlan,
    inputs: &Inputs,
    epoch: Instant,
    totals: &mut Totals,
) -> CellResult {
    let run = |totals: &mut Totals| {
        let cell = run_cell(spec.workload, backend, round, plan, inputs, epoch);
        totals.attempted += cell.attempted;
        totals.failed += cell.failed;
        totals.wrong += cell.wrong;
        if cell.starved {
            totals.notes.push(format!(
                "round {round} {}: window closed below its sample count",
                backend.name()
            ));
        }
        cell
    };
    let cell = run(totals);
    if backend == Backend::Adaptive && cell.switches_in_window > 0 {
        totals.notes.push(format!(
            "round {round} adaptive: {} regime switches in the window, cell re-run",
            cell.switches_in_window
        ));
        return run(totals);
    }
    cell
}

fn base_plan(spec: &RunSpec, window: Duration, rounds: usize) -> CellPlan {
    CellPlan {
        warm_min: Duration::from_millis(if spec.quick { 30 } else { 300 }),
        warm_settle: Duration::from_millis(if spec.quick { 40 } else { 100 }),
        warm_cap: Duration::from_secs(2),
        window,
        samples_per_client: if spec.quick {
            0
        } else {
            SAMPLE_FLOOR.div_ceil(rounds * CLIENTS)
        },
        traced: false,
        read_blocks: 0,
    }
}

fn finish(totals: Totals, metrics: Metrics) -> RunReport {
    RunReport {
        correct: totals.wrong == 0,
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        metrics,
        reported: totals.reported,
        notes: totals.notes,
        failures: totals.failures,
    }
}

/// The timed run: end-to-end metrics with nothing else going on.
fn timed_run(spec: &RunSpec) -> RunReport {
    let rounds = if spec.quick { 1 } else { ROUNDS };
    let window = Duration::from_secs_f64(spec.seconds / (rounds * Backend::ALL.len()) as f64);
    let plan = base_plan(spec, window, rounds);
    let inputs = Inputs::generate(spec.workload, spec.seed);
    let epoch = Instant::now();
    let mut totals = Totals::default();
    let mut per_backend: [BackendRounds; 4] = Default::default();
    for round in 0..rounds {
        for backend in Backend::ALL {
            let plan = if has_floor(spec.workload, backend) {
                plan
            } else {
                CellPlan {
                    samples_per_client: 0,
                    ..plan
                }
            };
            let cell = kept_cell(spec, backend, round, plan, &inputs, epoch, &mut totals);
            per_backend[backend.index()].absorb(cell);
        }
    }

    let mut metrics = Metrics::default();
    for backend in Backend::ALL {
        let (b, rounds_of) = (backend.name(), &mut per_backend[backend.index()]);
        totals.notes.push(rounds_of.by_round(backend));
        let samples = rounds_of.latencies.len();
        if !has_floor(spec.workload, backend) {
            totals
                .notes
                .push(format!("{b}.p50_us rests on {samples} samples"));
        } else if !spec.quick && samples < SAMPLE_FLOOR {
            totals.failures.push(format!(
                "{b}.p50_us rests on {samples} samples, the floor is {SAMPLE_FLOOR}"
            ));
        }
        for (name, value, unit) in rounds_of.headline(backend) {
            if gated(&name) {
                metrics.push(name, value, unit);
            } else {
                totals.reported.push(name, value, unit);
            }
        }
    }
    // One round sets up each backend once; the run reports the median
    // round, so one slow cluster start does not move it.
    let setup_rounds: Vec<f64> = (0..rounds)
        .map(|round| per_backend.iter().map(|b| b.setup_s[round]).sum())
        .collect();
    metrics.push("setup_s", median(&setup_rounds).unwrap_or(0.0), "s");
    finish(totals, metrics)
}

/// Medians of the per-cell layer observations of one backend, under the
/// published names.
fn push_cell_layers(metrics: &mut Metrics, backend: Backend, rounds: &BackendRounds) {
    let b = backend.name();
    let mut push = |suffix: &str, unit: &'static str, field: fn(&CellLayers) -> f64| {
        metrics.push(format!("{b}.{suffix}"), rounds.layer(field), unit);
    };
    push("tcp_frames_per_op", "count", |l| l.tcp_frames_per_op);
    push("udp_datagrams_per_op", "count", |l| l.udp_datagrams_per_op);
    push("threads", "count", |l| l.threads);
    push("ops_per_batch", "count", |l| l.ops_per_batch);
    push("queue_p50_us", "us", |l| l.queue_p50_us);
    push("service_p50_us", "us", |l| l.service_p50_us);
    push("local_read_share", "ratio", |l| l.local_read_share);
    push("read_p50_ns", "ns", |l| l.read_p50_ns);
    push("p99_us", "us", |l| l.p99_us);
    push("allocs_per_op", "count", |l| l.allocs_per_op);
    push("cpu_us_per_op", "us", |l| l.cpu_us_per_op);
    push("sys_share", "ratio", |l| l.sys_share);
    push("ctx_switches_per_op", "count", |l| l.ctx_switches_per_op);
    if matches!(backend, Backend::Primary | Backend::Adaptive) {
        push("lease_renewals_per_kop", "count", |l| {
            l.lease_renewals_per_kop
        });
        push("lease_revokes_per_kop", "count", |l| {
            l.lease_revokes_per_kop
        });
    }
    if backend == Backend::Adaptive {
        push("regime", "code", |l| l.regime);
        metrics.push(
            "adaptive.switches_in_window",
            rounds.switches.iter().copied().max().unwrap_or(0) as f64,
            "count",
        );
    }
}

/// Where one latency sample's time goes, from counts observed around the
/// window times unit costs measured by the probes. Rows are sums over the
/// sample's messages and applies, not its critical path: messages that
/// travel side by side are charged one after another, so the remainder
/// `rts_self_us` — traced p50 minus the rows — goes negative exactly where
/// the runtime system overlaps them.
fn push_budget(
    metrics: &mut Metrics,
    spec: &RunSpec,
    backend: Backend,
    plain: &BackendRounds,
    traced_p50_us: f64,
    probes: &Metrics,
) {
    let probe = |name: &str| probes.get(name).unwrap_or(0.0);
    let per_sample = spec.workload.ops_per_sample() as f64;
    let applies = plain.layer(|l| l.applies_per_write).max(1.0);
    let on_sim = spec.workload == Workload::WritePipelinedSim;
    let transport_us = per_sample
        * if on_sim {
            plain.layer(|l| l.messages_per_write) * probe("amoeba.sim_rtt_us") / 2.0
        } else {
            plain.layer(|l| l.tcp_frames_per_write) * probe("amoeba.tcp_rtt_us") / 2.0
                + plain.layer(|l| l.udp_datagrams_per_write) * probe("amoeba.udp_rtt_us") / 2.0
        };
    // The layer above the transport: its probe less the transport round
    // trip under it, per call. An RPC is two messages; an ordered
    // broadcast is one call per sequenced message.
    let rpc_or_group_us = per_sample
        * if backend == Backend::Broadcast {
            let (bcast, rtt) = if on_sim {
                (probe("group.bcast_sim_us"), probe("amoeba.sim_rtt_us"))
            } else {
                (probe("group.bcast_tcp_us"), probe("amoeba.udp_rtt_us"))
            };
            plain.layer(|l| l.broadcasts_per_write) * (bcast - rtt).max(0.0)
        } else if on_sim {
            let own = (probe("amoeba.rpc_sim_us") - probe("amoeba.sim_rtt_us")).max(0.0);
            plain.layer(|l| l.messages_per_write) / 2.0 * own
        } else {
            let own = (probe("amoeba.rpc_tcp_us") - probe("amoeba.tcp_rtt_us")).max(0.0);
            plain.layer(|l| l.tcp_frames_per_write) / 2.0 * own
        };
    // One encode at the origin, one decode per replica that applies, and a
    // reply of about the same size coming back.
    let codec_us = if spec.workload.pipelined() {
        let batches = per_sample / 64.0;
        batches
            * (2.0 * probe("wire.encode_batch64_ns")
                + (applies + 1.0) * probe("wire.decode_batch64_ns"))
            / 1e3
    } else {
        (2.0 * probe("wire.encode_op_ns") + (applies + 1.0) * probe("wire.decode_op_ns")) / 1e3
    };
    let apply_us = per_sample * applies * probe("object.apply_put_ns") / 1e3;
    // Every `invoke` mints a trace, records two flight events and one
    // histogram sample at its origin.
    let telemetry_us = per_sample
        * (probe("telemetry.mint_trace_ns")
            + 2.0 * probe("telemetry.flight_record_ns")
            + probe("telemetry.hist_record_ns"))
        / 1e3;
    let rest = transport_us + rpc_or_group_us + codec_us + apply_us + telemetry_us;
    let b = backend.name();
    for (row, value) in [
        ("transport_us", transport_us),
        ("rpc_or_group_us", rpc_or_group_us),
        ("codec_us", codec_us),
        ("apply_us", apply_us),
        ("telemetry_us", telemetry_us),
        ("rts_self_us", traced_p50_us - rest),
    ] {
        metrics.push(format!("{b}.budget.{row}"), value, "us");
    }
}

/// The traced run: layer probes, then plain and traced cells side by side.
fn layered_run(spec: &RunSpec) -> RunReport {
    let rounds = if spec.quick { 1 } else { TRACED_ROUNDS };
    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let probe_budget = if spec.quick {
        Duration::from_millis(5)
    } else {
        Duration::from_secs_f64(spec.seconds * PROBE_SHARE / PROBES)
    };
    let shrink = if spec.quick { 10 } else { 1 };
    let probes = Prober::new(probe_budget, shrink, epoch, &mut log).run();

    let cells = rounds * Backend::ALL.len() * 2;
    let window = Duration::from_secs_f64(spec.seconds * (1.0 - PROBE_SHARE) / cells as f64);
    let plain_plan = CellPlan {
        samples_per_client: 0,
        read_blocks: if spec.quick { 3 } else { 64 },
        ..base_plan(spec, window, rounds)
    };
    let traced_plan = CellPlan {
        traced: true,
        read_blocks: 0,
        ..plain_plan
    };
    let inputs = Inputs::generate(spec.workload, spec.seed);
    let mut totals = Totals::default();
    let mut plain: [BackendRounds; 4] = Default::default();
    let mut traced: [BackendRounds; 4] = Default::default();
    let mut calibrator = Calibrator::start().expect("loopback sockets");
    let mut calibration = Vec::new();
    for round in 0..rounds {
        let kernel = calibrator.measure().expect("loopback echo");
        calibration.push(kernel.as_secs_f64() * 1e6);
        for backend in Backend::ALL {
            let cell = kept_cell(
                spec,
                backend,
                round,
                plain_plan,
                &inputs,
                epoch,
                &mut totals,
            );
            plain[backend.index()].absorb(cell);
            let mut cell = kept_cell(
                spec,
                backend,
                round,
                traced_plan,
                &inputs,
                epoch,
                &mut totals,
            );
            for (client, spans) in std::mem::take(&mut cell.spans).into_iter().enumerate() {
                let source = SpanSource {
                    scope: backend.name().to_string(),
                    round,
                    client,
                };
                log.keep(source, spans);
            }
            traced[backend.index()].absorb(cell);
        }
    }

    let mut metrics = Metrics::default();
    for row in probes.rows() {
        metrics.push(row.0.clone(), row.1, row.2);
    }
    let mut overhead = Vec::new();
    for backend in Backend::ALL {
        let (plain, traced) = (&mut plain[backend.index()], &mut traced[backend.index()]);
        push_cell_layers(&mut metrics, backend, plain);
        if spec.workload.pipelined() && plain.layer(|l| l.ops_per_batch) < 1.0 {
            totals.wrong += 1;
            totals.notes.push(format!(
                "{}: pipelined windows were not batched",
                backend.name()
            ));
        }
        if spec.workload == Workload::WritePipelinedSim
            && plain
                .layers
                .iter()
                .any(|l| l.tcp_frames_per_op + l.udp_datagrams_per_op > 0.0)
        {
            totals.wrong += 1;
            totals.notes.push(format!(
                "{}: the simulated network sent socket traffic",
                backend.name()
            ));
        }
        if !spec.workload.pipelined() && plain.layers.iter().any(|l| l.batches_sent > 0) {
            totals.wrong += 1;
            totals.notes.push(format!(
                "{}: synchronous writes reached the batcher",
                backend.name()
            ));
        }
        totals.notes.push(plain.by_round(backend));
        let [plain_rate, ..] = plain.headline(backend).map(|(name, value, unit)| {
            if !gated(&name) {
                metrics.push(name, value, unit);
            }
            value
        });
        let [traced_rate, traced_p50_us, _] = traced.headline(backend).map(|row| row.1);
        push_budget(&mut metrics, spec, backend, plain, traced_p50_us, &probes);
        overhead.push(1.0 - traced_rate / plain_rate);
    }
    metrics.push(
        "trace.overhead_share",
        overhead.iter().sum::<f64>() / overhead.len() as f64,
        "ratio",
    );
    metrics.push(
        "proc.peak_rss_mb",
        Usage::now().max_rss_kib as f64 / 1024.0,
        "MB",
    );
    metrics.push("bench.calib_us", median(&calibration).unwrap_or(0.0), "us");

    match write_spans(spec.workload, &log) {
        Ok(path) => totals
            .notes
            .push(format!("{} spans kept, sampled into {path}", log.total())),
        Err(err) => totals.notes.push(format!("spans not written: {err}")),
    }
    finish(totals, metrics)
}

/// Write the span sample into `out/` of this package.
fn write_spans(workload: Workload, log: &SpanLog) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.csv", workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    log.write_csv(workload.name(), &mut file)?;
    Ok(path.display().to_string())
}

/// Run `spec`.
pub fn run(spec: &RunSpec) -> RunReport {
    if spec.traced {
        layered_run(spec)
    } else {
        timed_run(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_is_the_median_round_and_the_merged_percentile() {
        let mut rounds = BackendRounds::default();
        // Three of seven rounds disturbed; every round holds 100 samples at
        // the latency a closed loop of two clients has at its rate.
        for ops_per_s in [60e3, 40e3, 61e3, 41e3, 59e3, 62e3, 39e3] {
            let latency_ns = (2e9 / ops_per_s) as u32;
            rounds.ops_per_s.push(ops_per_s);
            rounds.p50_us.push(f64::from(latency_ns) / 1e3);
            rounds.latencies.extend([latency_ns; 100]);
            rounds.layers.push(CellLayers {
                wire_bytes_per_op: 80.0,
                ..CellLayers::default()
            });
        }
        let [rate, p50, bytes] = rounds.headline(Backend::Sharded);
        assert_eq!(rate, ("sharded.ops_per_s".to_string(), 59e3, "1/s"));
        // 700 merged samples: the 350th smallest is one of round 5's.
        assert_eq!(p50.0, "sharded.p50_us");
        assert_eq!(p50.1, f64::from((2e9 / 59e3) as u32) / 1e3);
        assert_eq!(bytes, ("sharded.wire_bytes_per_op".to_string(), 80.0, "B"));
        assert_eq!(rounds.latencies.len(), 700);
    }

    #[test]
    fn every_p50_has_a_floor_but_broadcast_windows() {
        for workload in Workload::ALL {
            for backend in Backend::ALL {
                let exempt = backend == Backend::Broadcast && workload.pipelined();
                assert_eq!(has_floor(workload, backend), !exempt);
            }
        }
        for name in DEMOTED {
            assert!(!gated(name));
        }
        assert!(gated("primary.wire_bytes_per_op") && gated("setup_s"));
    }
}
