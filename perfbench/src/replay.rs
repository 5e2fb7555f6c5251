//! The traced replay: one simulation point run call for call the way
//! `SimConfig::run` runs it, with a timer around each call into a layer.
//!
//! Only public functions are called, and each is timed from outside, so
//! the simulator needs no probes. The replay is only worth its numbers if
//! it is the same program: the caller compares every replayed `SimResult`
//! with the untraced `Scenario::run` of the same point.

use crate::workloads::Point;
use lapses_core::router::RouterStats;
use lapses_core::TableScheme;
use lapses_network::{Network, SimConfig, SimResult};
use lapses_sim::{Cycle, MeasurementPhase, PhaseController, ProgressWatchdog};
use lapses_topology::FaultyMesh;
use lapses_traffic::workload::Workload;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Host seconds spent in each set-up call of one point.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `ScenarioBuilder::build` (validation, which on faulty points also
    /// compiles the routing relation once).
    pub scenario_build: f64,
    /// `FaultsConfig::resolve` + `FaultyMesh::new` on faulty points; on
    /// fault-free ones only the `Mesh` clone handed to `Network::new`.
    pub topology: f64,
    /// The routing relation: `Algorithm::build` / `build_on` (the
    /// up*/down* compile).
    pub routing: f64,
    /// Table programming: `TableKind::build` / `build_faulty`.
    pub tables: f64,
    /// `Network::new` plus the scheduling and delivery switches.
    pub network_new: f64,
    /// `SimConfig::build_workload`.
    pub workload_build: f64,
}

impl SetupTimes {
    /// Everything a user waits for before the first simulated cycle.
    pub fn total(&self) -> f64 {
        self.scenario_build
            + self.topology
            + self.routing
            + self.tables
            + self.network_new
            + self.workload_build
    }

    /// Adds another point's set-up times.
    pub fn add(&mut self, other: &SetupTimes) {
        self.scenario_build += other.scenario_build;
        self.topology += other.topology;
        self.routing += other.routing;
        self.tables += other.tables;
        self.network_new += other.network_new;
        self.workload_build += other.workload_build;
    }
}

/// A point set up and ready for its cycle loop.
pub struct Prepared {
    config: SimConfig,
    net: Network,
    workload: Box<dyn Workload>,
    /// `TableScheme::storage().entries_per_router` of the point's table.
    pub entries_per_router: usize,
    pub times: SetupTimes,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Builds the point's scenario and replays `SimConfig::run`'s set-up.
pub fn prepare(point: &Point) -> Prepared {
    let mut t = SetupTimes::default();
    let scenario = timed(&mut t.scenario_build, || point.builder.clone().build())
        .expect("workload scenarios are valid");
    let mut config = scenario.compile();
    config.seed = point.seed;

    let (algo, program): (_, Arc<dyn TableScheme>) =
        if config.faults.is_none() && !config.algorithm.fault_tolerant() {
            let algo = timed(&mut t.routing, || config.algorithm.build());
            let program = timed(&mut t.tables, || {
                config.table.build(&config.mesh, algo.as_ref())
            });
            (algo, program)
        } else {
            let fmesh = timed(&mut t.topology, || {
                let faults = config
                    .faults
                    .resolve(&config.mesh)
                    .expect("valid fault set");
                Arc::new(FaultyMesh::new(config.mesh.clone(), faults).expect("connected"))
            });
            let algo = timed(&mut t.routing, || config.algorithm.build_on(&fmesh));
            let program = timed(&mut t.tables, || {
                config.table.build_faulty(&fmesh, algo.as_ref())
            });
            (algo, program)
        };

    let mut router_cfg = config.router.clone();
    router_cfg.escape_subclasses = algo.escape_subclasses(&config.mesh).max(1);
    if algo.deadlock_free_without_escape() && router_cfg.escape_vcs == 0 {
        router_cfg.escape_subclasses = 1;
    }
    assert!(
        algo.deadlock_free_without_escape()
            || router_cfg.escape_vcs >= router_cfg.escape_subclasses,
        "workload router lacks escape VCs"
    );
    let entries_per_router = program.storage().entries_per_router;

    let mesh = timed(&mut t.topology, || config.mesh.clone());
    let net = timed(&mut t.network_new, || {
        let mut net = Network::new(mesh, router_cfg, program, config.link_delay, config.seed);
        net.set_active_scheduling(config.active_scheduling);
        net.set_batched_delivery(config.batched_delivery);
        net
    });
    let workload = timed(&mut t.workload_build, || config.build_workload());
    assert_eq!(workload.node_count(), config.mesh.node_count());
    Prepared {
        config,
        net,
        workload,
        entries_per_router,
        times: t,
    }
}

/// What the traced cycle loops of a workload's points did, summed.
#[derive(Debug, Default)]
pub struct LoopTrace {
    pub poll_calls: u64,
    /// `Workload::poll` + `Workload::next_due_cycle`.
    pub poll_s: f64,
    pub offer_calls: u64,
    pub offer_s: f64,
    pub step_calls: u64,
    pub step_s: f64,
    /// Host nanoseconds of each `Network::step` call.
    pub step_ns: Vec<u64>,
    /// Steps in which no flit moved and no allocation succeeded.
    pub idle_steps: u64,
    /// Whole cycle loops, children included.
    pub loop_s: f64,
    /// Largest `Network::backlog()` seen after a step.
    pub backlog_peak: u64,
    pub router: RouterStats,
}

/// Runs the prepared point's cycle loop exactly as `SimConfig::run` does
/// and builds the same `SimResult`, adding its activity to `trace`.
pub fn run_traced(prepared: Prepared, trace: &mut LoopTrace) -> SimResult {
    let Prepared {
        config,
        mut net,
        mut workload,
        ..
    } = prepared;
    let loop_start = Instant::now();
    let mut phase = PhaseController::new(config.warmup_msgs, config.measure_msgs);
    let mut watchdog = ProgressWatchdog::new(config.stall_window, config.backlog_limit);
    let mut clock = Cycle::ZERO;
    let mut due: BinaryHeap<Reverse<(u64, u32)>> = (0..workload.node_count() as u32)
        .map(|n| Reverse((workload.next_due_cycle(n), n)))
        .collect();
    let mut specs = Vec::new();

    let saturated = loop {
        while phase.accepting_injections() {
            match due.peek() {
                Some(&Reverse((t, _))) if t <= clock.as_u64() => {}
                _ => break,
            }
            let Reverse((_, node)) = due.pop().expect("peeked entry");
            specs.clear();
            trace.poll_calls += 1;
            timed(&mut trace.poll_s, || workload.poll(node, clock, &mut specs));
            for spec in &specs {
                if !phase.accepting_injections() {
                    break;
                }
                let measured = phase.note_injection();
                trace.offer_calls += 1;
                timed(&mut trace.offer_s, || {
                    net.offer_message(spec.src, spec.dest, spec.length, clock, measured)
                });
            }
            let next = timed(&mut trace.poll_s, || workload.next_due_cycle(node));
            due.push(Reverse((next, node)));
        }

        let start = Instant::now();
        let summary = net.step(clock);
        let ns = start.elapsed().as_nanos() as u64;
        trace.step_ns.push(ns);
        trace.step_s += ns as f64 * 1e-9;
        trace.step_calls += 1;
        trace.idle_steps += u64::from(!summary.moved);

        for _ in 0..summary.measured_deliveries {
            phase.note_measured_delivery();
        }
        if summary.moved {
            watchdog.note_progress(clock);
        }
        trace.backlog_peak = trace.backlog_peak.max(net.backlog());
        watchdog.note_backlog(net.backlog());

        if phase.phase() == MeasurementPhase::Done {
            break false;
        }
        if phase.accepting_injections()
            && !net.has_traffic()
            && due.peek().is_some_and(|&Reverse((t, _))| t == u64::MAX)
        {
            break false;
        }
        if watchdog.is_saturated()
            || watchdog.is_stalled(clock, net.has_traffic())
            || clock.as_u64() >= config.max_cycles
        {
            break true;
        }
        clock.tick();
    };
    trace.loop_s += loop_start.elapsed().as_secs_f64();

    let stats = net.router_stats();
    let r = &mut trace.router;
    r.flits_switched += stats.flits_switched;
    r.headers_routed += stats.headers_routed;
    r.adaptive_allocations += stats.adaptive_allocations;
    r.escape_allocations += stats.escape_allocations;
    r.selection_stall_cycles += stats.selection_stall_cycles;
    r.multi_candidate_decisions += stats.multi_candidate_decisions;

    if saturated {
        return SimResult {
            avg_latency: f64::INFINITY,
            avg_total_latency: f64::INFINITY,
            p50_latency: None,
            p95_latency: None,
            p99_latency: None,
            max_latency: f64::INFINITY,
            messages: net.latency().count(),
            cycles: net.cycles_run(),
            saturated: true,
            throughput: 0.0,
            escape_fraction: 0.0,
            choice_fraction: 0.0,
            max_link_utilization: 0.0,
            flit_hops: 0,
        };
    }
    let allocs = stats.adaptive_allocations + stats.escape_allocations;
    let cycles = net.cycles_run().max(1);
    let (mut max_link, mut flit_hops) = (0u64, 0u64);
    for (_, port, flits) in net.link_loads() {
        if !port.is_local() {
            max_link = max_link.max(flits);
            flit_hops += flits;
        }
    }
    SimResult {
        avg_latency: net.latency().mean(),
        avg_total_latency: net.total_latency().mean(),
        p50_latency: net.histogram().percentile(50.0),
        p95_latency: net.histogram().percentile(95.0),
        p99_latency: net.histogram().percentile(99.0),
        max_latency: net.latency().max().unwrap_or(0.0),
        messages: net.latency().count(),
        cycles: net.cycles_run(),
        saturated: false,
        throughput: net.measured_flits_ejected() as f64
            / cycles as f64
            / config.mesh.node_count() as f64,
        escape_fraction: if allocs == 0 {
            0.0
        } else {
            stats.escape_allocations as f64 / allocs as f64
        },
        choice_fraction: if stats.headers_routed == 0 {
            0.0
        } else {
            stats.multi_candidate_decisions as f64 / stats.headers_routed as f64
        },
        max_link_utilization: max_link as f64 / cycles as f64,
        flit_hops,
    }
}
