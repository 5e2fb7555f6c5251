//! The repository's benchmark: simulator throughput end to end, and a
//! traced per-layer split of the cycle loop.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it runs the workload's sweep untraced through
//! `SweepRunner::run` for `--seconds` and prints the end-to-end metrics.
//! With `--trace 1` it replays every point call for call (see `replay`),
//! checks the replay against the untraced run, and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. README.md documents the
//! workloads, the metrics and the layer map.

mod replay;
mod stats;
mod workloads;

use lapses_network::{SimResult, SweepGrid, SweepReport};
use replay::{LoopTrace, SetupTimes};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Point, Workload, ANCHOR, HELD_OUT_SEED, NAMES, PINNED_SEED};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 25.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The run's outcome: operations (points) attempted and failed, and the
/// metrics as `(name, value, unit)`.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts `points` attempted, `bad` of them failed.
    fn count(&mut self, points: usize, bad: usize) {
        self.attempted += points as u64;
        self.failed += bad as u64;
    }

    /// One readable line per metric, then the JSON result line.
    fn print(&self, workload: &str) {
        for (name, value, unit) in &self.metrics {
            println!("{workload}  {name:<36} {value:>16.6} {unit}");
        }
        println!(
            "{workload}  points attempted {} failed {}",
            self.attempted, self.failed
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A point's own output checks: it completed (neither saturated nor
/// stalled), delivered exactly the requested measured messages, and has
/// enough messages to resolve its 99th latency percentile.
fn point_ok(r: &SimResult, measure_msgs: u64) -> bool {
    !r.saturated
        && r.messages == measure_msgs
        && r.p99_latency.is_some()
        && stats::highest_percentile(r.messages, 10).is_some_and(|p| p >= 99.0)
}

/// A report's points in grid order (each workload adds its series
/// contiguously, so series order is grid order).
fn results(report: &SweepReport) -> Vec<SimResult> {
    report
        .series()
        .iter()
        .flat_map(|s| s.points.iter().map(|(_, r)| r.clone()))
        .collect()
}

/// How many of the workload's grid points fail: missing from `got`,
/// failing their checks, or differing from `expected`.
fn bad_points(wl: &Workload, want: usize, got: &[SimResult], expected: &[SimResult]) -> usize {
    want.saturating_sub(got.len())
        + got
            .iter()
            .enumerate()
            .filter(|&(i, g)| !point_ok(g, wl.measure_msgs) || expected.get(i) != Some(g))
            .count()
}

/// Measured flits a point delivered (its throughput is measured flits per
/// cycle per node).
fn measured_flits(r: &SimResult, nodes: f64) -> u64 {
    (r.throughput * r.cycles.max(1) as f64 * nodes).round() as u64
}

fn median(values: &[f64]) -> f64 {
    stats::median(values).expect("at least one sample")
}

/// `reference_16x16` at the pinned seed must reproduce the repository's
/// pinned reference sweep exactly; a mismatch fails all of its points.
fn check_anchor(out: &mut Outcome) {
    let wl = Workload::new(NAMES[0], PINNED_SEED).expect("known workload");
    let grid = wl.grid();
    let got = results(&wl.runner().run(&grid));
    let nodes = grid.points()[0].config.mesh.node_count() as f64;
    let totals = got.iter().fold((0, 0, 0), |(c, m, f), r| {
        (c + r.cycles, m + r.messages, f + measured_flits(r, nodes))
    });
    let bad = if totals == ANCHOR && got.len() == grid.len() {
        got.iter().filter(|r| !point_ok(r, wl.measure_msgs)).count()
    } else {
        eprintln!("anchor mismatch: got {totals:?}, want {ANCHOR:?}");
        grid.len()
    };
    out.count(grid.len(), bad);
}

/// Median host seconds of set-up per point, over at least three set-ups of
/// every point of the workload, repeated for at least a second.
fn setup_seconds(wl: &Workload) -> f64 {
    let points = wl.points();
    let start = Instant::now();
    let mut per_point = Vec::new();
    while per_point.len() < 3 || (start.elapsed() < Duration::from_secs(1) && per_point.len() < 200)
    {
        let total: f64 = points
            .iter()
            .map(|p| replay::prepare(p).times.total())
            .sum();
        per_point.push(total / points.len() as f64);
    }
    eprintln!("{}: set-up seconds per point: {per_point:.4?}", wl.name);
    median(&per_point)
}

/// `--trace 0`: the end-to-end metrics from untraced runs.
fn measure(wl: &Workload, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if wl.name == NAMES[0] {
        check_anchor(&mut out);
    }
    let setup_s = setup_seconds(wl);

    let grid = wl.grid();
    let runner = wl.runner();
    let nodes = grid.points()[0].config.mesh.node_count() as f64;
    let mut rates = Vec::new();
    let mut first: Option<Vec<SimResult>> = None;
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = runner.run(&grid);
        let wall = t.elapsed().as_secs_f64();
        let got = results(&report);
        rates.push(got.iter().map(|r| r.flit_hops).sum::<u64>() as f64 / wall);
        let expected = first.get_or_insert_with(|| got.clone());
        out.count(grid.len(), bad_points(wl, grid.len(), &got, expected));
    }
    // The simulated figures come from the points that passed their checks
    // (all of them, unless the run already reports failures).
    let done: Vec<SimResult> = first
        .expect("at least one repetition")
        .into_iter()
        .filter(|r| point_ok(r, wl.measure_msgs))
        .collect();
    let messages: u64 = done.iter().map(|r| r.messages).sum();
    let cycles: u64 = done.iter().map(|r| r.cycles).sum();
    // Every point measures the same message count, so a plain mean over
    // points is the message-weighted one.
    let mean_of = |f: fn(&SimResult) -> Option<f64>| {
        done.iter().filter_map(f).sum::<f64>() / done.len() as f64
    };
    out.metric("flit_hops_per_s", median(&rates), "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    out.metric(
        "sim_latency_avg_cycles",
        done.iter()
            .map(|r| r.avg_latency * r.messages as f64)
            .sum::<f64>()
            / messages as f64,
        "cycles",
    );
    out.metric(
        "sim_latency_p50_cycles",
        mean_of(|r| r.p50_latency),
        "cycles",
    );
    out.metric(
        "sim_latency_p99_cycles",
        mean_of(|r| r.p99_latency),
        "cycles",
    );
    out.metric(
        "sim_accepted_flits_per_node_cycle",
        done.iter().map(|r| measured_flits(r, nodes)).sum::<u64>() as f64 / cycles as f64 / nodes,
        "flits/node/cycle",
    );
    eprintln!(
        "{}: flit-hops/s of {} repetitions: {rates:.0?}",
        wl.name,
        rates.len()
    );
    out
}

/// One traced pass over every point of the workload.
struct Pass {
    setup: SetupTimes,
    entries_per_router: usize,
    trace: LoopTrace,
    /// Host seconds of each untraced `Scenario::run`, serially.
    serial_s: Vec<f64>,
    runner_s: f64,
    /// Host seconds of the replays, set-up after the scenario build
    /// included, so it compares with `serial_s`.
    replay_s: f64,
}

fn traced_pass(wl: &Workload, grid: &SweepGrid, points: &[Point], out: &mut Outcome) -> Pass {
    let t = Instant::now();
    let swept = results(&wl.runner().run(grid));
    let runner_s = t.elapsed().as_secs_f64();

    let mut serial_s = Vec::new();
    let untraced: Vec<SimResult> = points
        .iter()
        .map(|p| {
            let scenario = p
                .builder
                .clone()
                .seed(p.seed)
                .build()
                .expect("valid scenario");
            let t = Instant::now();
            let r = scenario.run();
            serial_s.push(t.elapsed().as_secs_f64());
            r
        })
        .collect();

    let mut pass = Pass {
        setup: SetupTimes::default(),
        entries_per_router: 0,
        trace: LoopTrace::default(),
        serial_s,
        runner_s,
        replay_s: 0.0,
    };
    let replayed: Vec<SimResult> = points
        .iter()
        .map(|p| {
            let prepared = replay::prepare(p);
            let t = prepared.times;
            pass.setup.add(&t);
            pass.entries_per_router = pass.entries_per_router.max(prepared.entries_per_router);
            let start = Instant::now();
            let r = replay::run_traced(prepared, &mut pass.trace);
            pass.replay_s += start.elapsed().as_secs_f64() + t.total() - t.scenario_build;
            r
        })
        .collect();

    // Faithfulness: every replayed point equals its untraced run, which
    // equals the runner's, and passes the point checks.
    let n = points.len();
    let bad = (0..n)
        .filter(|&i| {
            bad_points(wl, 1, &replayed[i..=i], &untraced[i..=i]) > 0
                || swept.get(i) != Some(&untraced[i])
        })
        .count();
    if bad > 0 {
        eprintln!("{}: {bad} point(s) not reproduced by the replay", wl.name);
    }
    out.count(n, bad);
    pass
}

/// `--trace 1`: the per-layer metrics from traced replays.
fn traced(wl: &Workload, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (grid, points) = (wl.grid(), wl.points());
    let start = Instant::now();
    let mut passes = vec![traced_pass(wl, &grid, &points, &mut out)];
    while start.elapsed().as_secs_f64() < seconds {
        passes.push(traced_pass(wl, &grid, &points, &mut out));
    }
    // Counts are exact; every pass must repeat the first's.
    let first = &passes[0];
    let counts = |p: &Pass| {
        let r = &p.trace.router;
        (
            p.trace.step_calls,
            p.trace.poll_calls,
            p.trace.offer_calls,
            p.trace.backlog_peak,
            p.trace.idle_steps,
            p.entries_per_router,
            (r.flits_switched, r.headers_routed, r.selection_stall_cycles),
        )
    };
    let drifted = passes.iter().filter(|p| counts(p) != counts(first)).count();
    out.count(0, drifted * first.serial_s.len());

    let n_points = first.serial_s.len() as f64;
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let per_point = |f: fn(&SetupTimes) -> f64| med(&|p: &Pass| f(&p.setup) / n_points);
    let t = &first.trace;
    let r = &t.router;
    let step_pct = |pct| {
        med(&|p: &Pass| {
            let mut steps = p.trace.step_ns.clone();
            steps.sort_unstable();
            stats::percentile_sorted(&steps, pct).unwrap_or(0) as f64
        })
    };

    out.metric("scenario.build_s", per_point(|s| s.scenario_build), "s");
    out.metric("topology.faulty_mesh_s", per_point(|s| s.topology), "s");
    out.metric("routing.compile_s", per_point(|s| s.routing), "s");
    out.metric("core.tables.program_s", per_point(|s| s.tables), "s");
    out.metric("network.new_s", per_point(|s| s.network_new), "s");
    out.metric("traffic.build_s", per_point(|s| s.workload_build), "s");
    out.metric(
        "core.tables.entries_per_router",
        first.entries_per_router as f64,
        "count",
    );
    out.metric("network.step_calls", t.step_calls as f64, "count");
    out.metric("network.step_s", med(&|p| p.trace.step_s), "s");
    out.metric("network.step_ns_p50", step_pct(50.0), "ns");
    out.metric("network.step_ns_p99", step_pct(99.0), "ns");
    out.metric(
        "network.step_ns_per_flit",
        med(&|p| p.trace.step_s * 1e9 / p.trace.router.flits_switched.max(1) as f64),
        "ns",
    );
    out.metric(
        "network.idle_step_share",
        t.idle_steps as f64 / t.step_calls.max(1) as f64,
        "share",
    );
    out.metric("traffic.poll_calls", t.poll_calls as f64, "count");
    out.metric("traffic.poll_s", med(&|p| p.trace.poll_s), "s");
    out.metric("network.offer_calls", t.offer_calls as f64, "count");
    out.metric("network.offer_s", med(&|p| p.trace.offer_s), "s");
    out.metric(
        "sim.bookkeeping_s",
        med(&|p| p.trace.loop_s - p.trace.poll_s - p.trace.offer_s - p.trace.step_s),
        "s",
    );
    out.metric("network.backlog_peak_msgs", t.backlog_peak as f64, "count");
    out.metric(
        "core.router.flits_switched",
        r.flits_switched as f64,
        "count",
    );
    out.metric(
        "core.router.headers_routed",
        r.headers_routed as f64,
        "count",
    );
    out.metric(
        "core.router.selection_stall_cycles",
        r.selection_stall_cycles as f64,
        "count",
    );
    let allocs = (r.adaptive_allocations + r.escape_allocations).max(1);
    out.metric(
        "core.router.escape_share",
        r.escape_allocations as f64 / allocs as f64,
        "share",
    );
    out.metric(
        "core.router.choice_share",
        r.multi_candidate_decisions as f64 / r.headers_routed.max(1) as f64,
        "share",
    );
    out.metric("sweep.points", n_points, "count");
    out.metric(
        "sweep.point_s_max",
        med(&|p| p.serial_s.iter().copied().fold(0.0, f64::max)),
        "s",
    );
    out.metric(
        "sweep.parallel_efficiency",
        med(&|p| p.serial_s.iter().sum::<f64>() / (wl.threads as f64 * p.runner_s)),
        "share",
    );
    out.metric(
        "trace.overhead_ratio",
        med(&|p| p.replay_s / p.serial_s.iter().sum::<f64>()),
        "ratio",
    );
    eprintln!("{}: {} traced passes", wl.name, passes.len());
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {:?}; one of {NAMES:?}\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    eprintln!(
        "{}: seed {} (pinned {PINNED_SEED}, held out {HELD_OUT_SEED}), {} thread(s), {} s",
        wl.name, args.seed, wl.threads, args.seconds
    );
    let out = if args.trace {
        traced(&wl, args.seconds)
    } else {
        measure(&wl, args.seconds)
    };
    if let Some((name, ..)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("{}: metric {name} is not a finite number", wl.name);
        return ExitCode::FAILURE;
    }
    out.print(wl.name);
    ExitCode::SUCCESS
}
