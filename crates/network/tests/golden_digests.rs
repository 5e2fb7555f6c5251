//! Golden run digests: the cycle loop's simulated outcomes, pinned.
//!
//! Every test here runs a fixed scenario, folds everything observable
//! about the run into a 64-bit digest with [`mix64`], and compares it
//! with a recorded golden value. A change to the cycle loop that keeps
//! every RNG draw, arbitration decision, latency sample and cut-off cycle
//! keeps every digest; anything else moves at least one of them.
//!
//! Four digest granularities:
//!
//! * **run digest** — every field of every [`SimResult`], in report
//!   order, floats by bit pattern and options tagged;
//! * **step digest** — a directly stepped [`Network`]: per cycle the
//!   measured deliveries, the progress flag, `has_traffic()` and
//!   `backlog()`; at the end the router counters, every link load and
//!   the latency mean and count;
//! * **router digest** — the per-cycle launch and credit sequence of one
//!   [`Router`] stepped in isolation, launches read back as whole flits
//!   through a FIFO test sink;
//! * **table-program digest** — one faulty-network set-up stage, folded
//!   over every node pair: the faulty hop distances, the up*/down* ranks
//!   and escape ports, or one table program's entries and storage. Run
//!   digests only see the entries a simulation happens to visit.
//!
//! The matrix covers the four paper patterns on PROUD and LA-PROUD (one
//! test per pattern), the 16x16 reference point with exponential and
//! with Bernoulli arrivals, a saturated point (which pins the cut-off
//! cycle), torus datelines, a faulty mesh under
//! up*/down*-adaptive routing with economical tables, a bursty source,
//! trace capture and replay, a two-cycle table lookup, and the interval
//! and meta table schemes. Stepped networks run three traffic shapes: one
//! message per node, waves separated by idle gaps, and sustained
//! contention. Table programs are pinned on an 8x8 mesh, a 4x4 torus with
//! a dead wrap link, a 3x3x3 mesh and the 32x32 benchmark instance.
//!
//! When a change is *meant* to alter simulated behavior, each failing
//! test prints the new digests; re-record them together with the reason.

use lapses_core::router::INFINITE_CREDITS;
use lapses_core::tables::{EconomicalTable, FullTable, IntervalTable};
use lapses_core::{
    Flit, FlitKind, MessageId, MsgRef, RouteEntry, Router, RouterConfig, RouterTable, StepSink,
    TableScheme,
};
use lapses_network::{
    Algorithm, ArrivalKind, Network, Pattern, Scenario, ScenarioAxis, ScenarioBuilder, SimResult,
    SweepGrid, SweepRunner, TableKind,
};
use lapses_routing::{DuatoAdaptive, RoutingAlgorithm, UpDown};
use lapses_sim::rng::mix64;
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{FaultSet, FaultyMesh, Mesh, NodeId, Port};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// An order-sensitive 64-bit fold.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0x4C41_5053_4553_1999)
    }

    fn u64(&mut self, v: u64) {
        self.0 = mix64(self.0.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ v);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(b as u64);
        }
    }

    fn result(&mut self, r: &SimResult) {
        // Exhaustive destructuring: a new field fails to compile here
        // until it is folded too.
        let SimResult {
            avg_latency,
            avg_total_latency,
            p50_latency,
            p95_latency,
            p99_latency,
            max_latency,
            messages,
            cycles,
            saturated,
            throughput,
            escape_fraction,
            choice_fraction,
            max_link_utilization,
            flit_hops,
        } = r;
        self.f64(*avg_latency);
        self.f64(*avg_total_latency);
        self.opt_f64(*p50_latency);
        self.opt_f64(*p95_latency);
        self.opt_f64(*p99_latency);
        self.f64(*max_latency);
        self.u64(*messages);
        self.u64(*cycles);
        self.u64(*saturated as u64);
        self.f64(*throughput);
        self.f64(*escape_fraction);
        self.f64(*choice_fraction);
        self.f64(*max_link_utilization);
        self.u64(*flit_hops);
    }

    fn entry(&mut self, e: &Option<RouteEntry>) {
        match e {
            None => self.u64(0),
            Some(e) => {
                self.u64(1);
                self.u64(e.candidates.bits() as u64);
                self.u64(e.escape.map_or(u64::MAX, |p| p.index() as u64));
                self.u64(e.escape_subclass as u64);
            }
        }
    }

    fn flit(&mut self, f: &Flit) {
        self.u64(f.msg.0);
        self.u64(f.rec.0 as u64);
        self.u64(f.dest.0 as u64);
        self.u64(f.seq as u64);
        self.u64(match f.kind {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::HeadTail => 3,
        });
        self.entry(&f.lookahead);
    }
}

fn run_digest(r: &SimResult) -> u64 {
    let mut d = Digest::new();
    d.result(r);
    d.0
}

/// Compares labelled digests with their goldens, printing every actual
/// value on any mismatch so a deliberate change can be re-recorded.
fn assert_golden(what: &str, actual: &[(String, u64)], golden: &[u64]) {
    let got: Vec<u64> = actual.iter().map(|(_, d)| *d).collect();
    if got != golden {
        let table: String = actual
            .iter()
            .map(|(label, d)| format!("    {d:#018x}, // {label}\n"))
            .collect();
        panic!("{what}: digests moved; actual values:\n{table}");
    }
}

/// Runs `scenario` and returns its run digest, requiring the expected
/// outcome (and, for completed runs, a non-vacuous measurement).
fn scenario_digest(scenario: &Scenario, saturated: bool) -> u64 {
    let r = scenario.run();
    assert_eq!(r.saturated, saturated, "{scenario:?}");
    assert!(
        saturated || (r.messages > 0 && r.flit_hops > 0),
        "vacuous run"
    );
    run_digest(&r)
}

fn small(width: u16, height: u16) -> ScenarioBuilder {
    Scenario::builder()
        .mesh_2d(width, height)
        .message_counts(100, 700)
        .seed(424242)
}

/// 8x8, one paper pattern on PROUD and LA-PROUD at two loads, run by the
/// parallel sweep runner: one digest per router series.
fn paper_grid_digests(pattern: Pattern) -> Vec<(String, u64)> {
    let mut grid = SweepGrid::new();
    for lookahead in [false, true] {
        let tag = if lookahead { "la" } else { "proud" };
        let scenario = small(8, 8)
            .lookahead(lookahead)
            .pattern(pattern)
            .build()
            .expect("valid");
        grid = grid
            .scenario_series(
                format!("{tag}/{}", pattern.name()),
                &scenario,
                &ScenarioAxis::Load(vec![0.1, 0.25]),
            )
            .expect("valid axis");
    }
    let report = SweepRunner::new()
        .with_threads(2)
        .with_master_seed(424242)
        .run(&grid);
    assert_eq!(report.series().len(), 2);
    report
        .series()
        .iter()
        .map(|series| {
            assert_eq!(series.points.len(), 2, "{} truncated", series.label);
            let mut d = Digest::new();
            d.str(&series.label);
            for (load, r) in &series.points {
                assert!(!r.saturated, "{} saturated at {load}", series.label);
                assert!(r.messages > 0 && r.avg_latency > 0.0 && r.cycles > 0);
                d.f64(*load);
                d.result(r);
            }
            (series.label.clone(), d.0)
        })
        .collect()
}

#[test]
fn paper_grid_uniform_matches_golden_digests() {
    let actual = paper_grid_digests(Pattern::Uniform);
    assert_golden(
        "paper grid, uniform",
        &actual,
        &[
            0xf715fd9ca7280b88, // proud/uniform
            0x3bedc59792f8230e, // la/uniform
        ],
    );
}

#[test]
fn paper_grid_transpose_matches_golden_digests() {
    let actual = paper_grid_digests(Pattern::Transpose);
    assert_golden(
        "paper grid, transpose",
        &actual,
        &[
            0xe73573a7bdff46ff, // proud/transpose
            0xafea3399b30a5fd9, // la/transpose
        ],
    );
}

#[test]
fn paper_grid_bit_reversal_matches_golden_digests() {
    let actual = paper_grid_digests(Pattern::BitReversal);
    assert_golden(
        "paper grid, bit-reversal",
        &actual,
        &[
            0xb9e9827d0883d71c, // proud/bit-reversal
            0x422c587def2c3aec, // la/bit-reversal
        ],
    );
}

#[test]
fn paper_grid_perfect_shuffle_matches_golden_digests() {
    let actual = paper_grid_digests(Pattern::PerfectShuffle);
    assert_golden(
        "paper grid, perfect shuffle",
        &actual,
        &[
            0xcb0bbd9a95354e56, // proud/perfect-shuffle
            0xaf57e6d17caa78ff, // la/perfect-shuffle
        ],
    );
}

#[test]
fn reference_scenario_matches_golden_digest() {
    // The paper's 16x16 mesh and LA-ADAPT router under uniform traffic at
    // 0.2 load.
    let scenario = Scenario::builder()
        .mesh_2d(16, 16)
        .lookahead(true)
        .pattern(Pattern::Uniform)
        .load(0.2)
        .message_counts(300, 2_500)
        .seed(1999)
        .build()
        .expect("valid");
    let actual = [(
        "16x16 reference".to_string(),
        scenario_digest(&scenario, false),
    )];
    assert_golden("reference scenario", &actual, &[0x4b0cae78628c9f31]);
}

#[test]
fn bernoulli_reference_scenario_matches_golden_digest() {
    // The reference point above with Bernoulli (geometric-gap) arrivals.
    let scenario = Scenario::builder()
        .mesh_2d(16, 16)
        .lookahead(true)
        .pattern(Pattern::Uniform)
        .arrivals(ArrivalKind::Bernoulli)
        .load(0.2)
        .message_counts(300, 2_500)
        .seed(1999)
        .build()
        .expect("valid");
    let actual = [(
        "16x16 reference, bernoulli".to_string(),
        scenario_digest(&scenario, false),
    )];
    assert_golden(
        "bernoulli reference scenario",
        &actual,
        &[0x379587282f6bcf8d],
    );
}

#[test]
fn saturated_overload_point_matches_golden_digest() {
    // Overload saturates mid-run; the digest pins the cut-off cycle.
    let scenario = Scenario::builder()
        .mesh_2d(4, 4)
        .message_counts(200, 1_500)
        .load(3.0)
        .seed(77)
        .build()
        .expect("valid");
    let actual = [("4x4 load 3.0".to_string(), scenario_digest(&scenario, true))];
    assert_golden("saturated overload", &actual, &[0x74ed48feb83f4282]);
}

#[test]
fn torus_datelines_match_golden_digest() {
    let actual: Vec<(String, u64)> = [false, true]
        .into_iter()
        .map(|lookahead| {
            let scenario = Scenario::builder()
                .torus_2d(4, 4)
                .vcs(4, 2)
                .lookahead(lookahead)
                .load(0.3)
                .message_counts(100, 600)
                .seed(5)
                .build()
                .expect("valid");
            (
                format!("4x4 torus la={lookahead}"),
                scenario_digest(&scenario, false),
            )
        })
        .collect();
    assert_golden("torus", &actual, &[0x652ebf57595acc4b, 0xd3cd7c7da626d3c9]);
}

#[test]
fn faulty_updown_economical_matches_golden_digest() {
    let scenario = small(8, 8)
        .random_faults(4, 31)
        .algorithm(Algorithm::UpDownAdaptive)
        .table(TableKind::Economical)
        .load(0.2)
        .build()
        .expect("valid");
    let actual = [(
        "8x8 4 faults".to_string(),
        scenario_digest(&scenario, false),
    )];
    assert_golden("faulty mesh", &actual, &[0x10b2b3dc0252f48c]);
}

#[test]
fn bursty_source_matches_golden_digest() {
    let scenario = small(8, 8)
        .lookahead(true)
        .bursty(8, 2.0)
        .load(0.2)
        .build()
        .expect("valid");
    let actual = [("8x8 bursty".to_string(), scenario_digest(&scenario, false))];
    assert_golden("bursty", &actual, &[0x57f66212e007f13e]);
}

#[test]
fn trace_capture_and_replay_match_golden_digests() {
    let source = small(8, 8)
        .pattern(Pattern::Transpose)
        .load(0.2)
        .build()
        .expect("valid");
    let (captured, trace) = source.run_capturing();
    let mut capture = Digest::new();
    capture.result(&captured);
    for e in trace.events() {
        capture.u64(e.cycle);
        capture.u64(e.src as u64);
        capture.u64(e.dest as u64);
        capture.u64(e.length as u64);
    }
    let replay = source
        .to_builder()
        .trace(Arc::new(trace))
        .build()
        .expect("valid")
        .run();
    assert!(!replay.saturated && replay.messages > 0);
    let actual = [
        ("capture".to_string(), capture.0),
        ("replay".to_string(), run_digest(&replay)),
    ];
    assert_golden("trace", &actual, &[0x1445a87f9e0deda8, 0x69baa3ec181e5b4c]);
}

#[test]
fn slow_table_lookup_matches_golden_digests() {
    let actual: Vec<(String, u64)> = [false, true]
        .into_iter()
        .map(|lookahead| {
            let scenario = small(8, 8)
                .lookahead(lookahead)
                .table_lookup_cycles(2)
                .load(0.25)
                .build()
                .expect("valid");
            (
                format!("lookup=2 la={lookahead}"),
                scenario_digest(&scenario, false),
            )
        })
        .collect();
    assert_golden(
        "slow table lookup",
        &actual,
        &[0x075eab1e181630c8, 0xe9b742b5a7f47d84],
    );
}

#[test]
fn interval_and_meta_tables_match_golden_digests() {
    let interval = small(8, 8)
        .algorithm(Algorithm::DimensionOrder)
        .vcs(4, 0)
        .table(TableKind::Interval)
        .load(0.2)
        .build()
        .expect("valid");
    let meta_rows = small(8, 8)
        .table(TableKind::MetaRows)
        .load(0.2)
        .build()
        .expect("valid");
    let meta_blocks = small(8, 8)
        .pattern(Pattern::Transpose)
        .table(TableKind::MetaBlocks(vec![4, 4]))
        .load(0.2)
        .build()
        .expect("valid");
    let actual = [
        ("interval".to_string(), scenario_digest(&interval, false)),
        ("meta-rows".to_string(), scenario_digest(&meta_rows, false)),
        (
            "meta-blocks 4x4".to_string(),
            scenario_digest(&meta_blocks, false),
        ),
    ];
    assert_golden(
        "interval and meta tables",
        &actual,
        &[0xfba2a441cdbe4a9a, 0xefb8124535abc80c, 0xb2cd6c9cfbaeafe0],
    );
}

/// A message offered to a directly stepped network:
/// (cycle, source, destination, length in flits).
type Offer = (u64, u32, u32, u32);

/// Steps a 4x4 network for `cycles` cycles, offering each message of
/// `traffic` just before the cycle it names, and folds the per-cycle
/// summaries and the final statistics.
fn step_digest(lookahead: bool, traffic: &[Offer], cycles: u64) -> u64 {
    let mesh = Mesh::mesh_2d(4, 4);
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
    let cfg = RouterConfig::paper_adaptive().with_lookahead(lookahead);
    let mut net = Network::new(mesh, cfg, program, 1, 42);
    let mut d = Digest::new();
    for t in 0..cycles {
        for &(_, src, dest, length) in traffic.iter().filter(|o| o.0 == t) {
            net.offer_message(NodeId(src), NodeId(dest), length, Cycle::new(t), true);
        }
        let summary = net.step(Cycle::new(t));
        d.u64(summary.measured_deliveries as u64);
        d.u64(summary.moved as u64);
        d.u64(net.has_traffic() as u64);
        d.u64(net.backlog());
    }
    assert!(!net.has_traffic(), "traffic should have drained");
    net.assert_quiescent();
    assert_eq!(net.latency().count(), traffic.len() as u64);
    let s = net.router_stats();
    for v in [
        s.flits_switched,
        s.headers_routed,
        s.adaptive_allocations,
        s.escape_allocations,
        s.selection_stall_cycles,
        s.multi_candidate_decisions,
    ] {
        d.u64(v);
    }
    for (node, port, flits) in net.link_loads() {
        d.u64(node.0 as u64);
        d.u64(port.index() as u64);
        d.u64(flits);
    }
    d.f64(net.latency().mean());
    d.u64(net.latency().count());
    d.0
}

/// Step digests of `traffic` on PROUD and on LA-PROUD.
fn stepped_digests(traffic: &[Offer], cycles: u64) -> Vec<(String, u64)> {
    [false, true]
        .into_iter()
        .map(|lookahead| {
            (
                format!("4x4 stepped la={lookahead}"),
                step_digest(lookahead, traffic, cycles),
            )
        })
        .collect()
}

#[test]
fn stepped_network_matches_golden_step_digests() {
    // One 8-flit message per node, all offered at cycle 0.
    let traffic: Vec<Offer> = (0..16)
        .map(|src| (0, src, (src * 11 + 3) % 16, 8))
        .filter(|o| o.1 != o.2)
        .collect();
    assert_golden(
        "stepped network",
        &stepped_digests(&traffic, 3_000),
        &[0x4af0f3eb0dcdcde3, 0xbd11b2521e610e7d],
    );
}

#[test]
fn stepped_network_with_idle_gaps_matches_golden_step_digests() {
    // Eight waves of 1- to 6-flit messages from a quarter of the nodes,
    // 150 cycles apart: each wave drains before the next, so routers fall
    // idle and are woken again by fresh arrivals.
    let mut traffic: Vec<Offer> = Vec::new();
    for wave in 0..8u32 {
        for src in (0..16).filter(|s| (s + wave) % 4 == 0) {
            let dest = (src * 7 + wave + 1) % 16;
            if dest != src {
                traffic.push((wave as u64 * 150, src, dest, 1 + (src + wave) % 6));
            }
        }
    }
    assert_golden(
        "stepped network, idle gaps",
        &stepped_digests(&traffic, 1_500),
        &[0xfcb96e3c7de2058f, 0x4f156c0c7a8e170f],
    );
}

#[test]
fn stepped_contended_network_matches_golden_step_digests() {
    // An 8-flit message for every third ordered node pair, all offered at
    // cycle 0: sustained contention, with flits from several neighbours
    // arriving at one router in the same cycle.
    let traffic: Vec<Offer> = (0..16)
        .flat_map(|src| (0..16).map(move |dest| (0, src, dest, 8)))
        .filter(|o| o.1 != o.2 && (o.1 + o.2) % 3 == 0)
        .collect();
    assert_golden(
        "stepped network, contended",
        &stepped_digests(&traffic, 5_000),
        &[0xc3012bdd12a2b6b6, 0x5231e88670532fd0],
    );
}

/// A router sink standing in for the wire: transferred payloads queue per
/// output (port, VC) and each launch pops the oldest, so launches and
/// ejections read back as whole flits, in the order the router emits them.
#[derive(Default)]
struct WireFifo {
    wire: HashMap<(Port, usize), VecDeque<Flit>>,
    launches: Vec<(Port, usize, Flit)>,
    credits: Vec<(Port, usize)>,
}

impl StepSink for WireFifo {
    fn eject(&mut self, vc: usize, flit: Flit) {
        self.launches.push((Port::LOCAL, vc, flit));
    }

    fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit) {
        self.wire.entry((out_port, vc)).or_default().push_back(flit);
    }

    fn launch(&mut self, port: Port, vc: usize) {
        let flit = self.wire.get_mut(&(port, vc)).and_then(VecDeque::pop_front);
        let flit = flit.expect("launch without a transferred payload");
        self.launches.push((port, vc, flit));
    }

    fn credit(&mut self, in_port: Port, vc: usize) {
        self.credits.push((in_port, vc));
    }
}

/// One router of a 1-D four-node mesh (node 1, routing toward node 3)
/// with full downstream credits, fed four messages over three input VCs
/// and stepped in isolation for 40 cycles.
fn router_digest(lookahead: bool) -> u64 {
    let mesh = Mesh::mesh(&[4]);
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
    let node = NodeId(1);
    let cfg = RouterConfig::paper_adaptive().with_lookahead(lookahead);
    let mut r = Router::new(
        node,
        mesh.ports_per_router(),
        cfg,
        RouterTable::new(Arc::clone(&program), node),
        SimRng::from_seed(1),
    );
    for p in 0..r.ports() {
        let port = Port::from_index(p);
        for v in 0..r.config().vcs_per_port {
            let credits = if port.is_local() {
                INFINITE_CREDITS
            } else {
                20
            };
            r.set_credits(port, v, credits);
        }
    }
    for (m, vc, len) in [(1u64, 0usize, 4u32), (2, 1, 1), (3, 2, 6), (4, 0, 2)] {
        let dest = NodeId(3);
        let mut flits = Flit::message(MessageId(m), MsgRef(m as u32), dest, len);
        if lookahead {
            flits[0].lookahead = Some(program.entry(node, dest));
        }
        for (i, f) in flits.iter().enumerate() {
            r.accept_flit(Port::LOCAL, vc, *f, Cycle::new(i as u64));
        }
    }
    let mut d = Digest::new();
    let mut sink = WireFifo::default();
    for t in 1..=40u64 {
        let moved = r.step_with(Cycle::new(t), &mut sink);
        d.u64(t);
        d.u64(moved as u64);
        for (port, vc, flit) in sink.launches.drain(..) {
            d.u64(port.index() as u64);
            d.u64(vc as u64);
            d.flit(&flit);
        }
        for (port, vc) in sink.credits.drain(..) {
            d.u64(port.index() as u64);
            d.u64(vc as u64);
        }
    }
    assert!(r.is_empty(), "all traffic must drain");
    assert!(
        sink.wire.values().all(VecDeque::is_empty),
        "wire must drain"
    );
    let s = r.stats();
    assert!(s.flits_switched > 0, "trace must not be vacuous");
    for v in [
        s.flits_switched,
        s.headers_routed,
        s.adaptive_allocations,
        s.escape_allocations,
        s.selection_stall_cycles,
        s.multi_candidate_decisions,
    ] {
        d.u64(v);
    }
    d.0
}

#[test]
fn router_launch_sequence_matches_golden_digests() {
    let actual: Vec<(String, u64)> = [false, true]
        .into_iter()
        .map(|lookahead| (format!("router la={lookahead}"), router_digest(lookahead)))
        .collect();
    assert_golden(
        "router launches",
        &actual,
        &[0x19250235165516a6, 0x0cb809c31cc4a6a0],
    );
}

/// Folds everything a faulty-network set-up computes: every hop distance
/// of the faulty graph, every up*/down* rank and escape port, and every
/// table entry plus the storage cost of the full, economical and interval
/// programs under deterministic and adaptive up*/down*. One digest per
/// stage, so a moved digest names the pass that changed.
fn table_program_digests(mesh: Mesh, faults: FaultSet) -> Vec<(String, u64)> {
    let fmesh = Arc::new(FaultyMesh::new(mesh, faults).expect("connected"));
    let mesh = fmesh.mesh().clone();
    let mut out = Vec::new();

    let mut d = Digest::new();
    for a in mesh.nodes() {
        for b in mesh.nodes() {
            d.u64(fmesh.distance(a, b) as u64);
        }
    }
    out.push(("distances".to_string(), d.0));

    let programs = [
        UpDown::new(Arc::clone(&fmesh)),
        UpDown::adaptive(Arc::clone(&fmesh)),
    ];
    let mut d = Digest::new();
    for node in mesh.nodes() {
        d.u64(programs[0].rank_of(node) as u64);
    }
    for here in mesh.nodes() {
        for dest in mesh.nodes() {
            let port = programs[0].escape_port(&mesh, here, dest);
            d.u64(port.map_or(u64::MAX, |p| p.index() as u64));
        }
    }
    out.push(("up*/down* ranks and escapes".to_string(), d.0));

    for algo in &programs {
        let tables: [Box<dyn TableScheme>; 3] = [
            Box::new(FullTable::program_faulty(&fmesh, algo)),
            Box::new(EconomicalTable::program_faulty(&fmesh, algo)),
            Box::new(IntervalTable::program_faulty(&fmesh, algo)),
        ];
        for table in &tables {
            let mut d = Digest::new();
            for node in mesh.nodes() {
                for dest in mesh.nodes() {
                    d.entry(&Some(table.entry(node, dest)));
                }
            }
            let storage = table.storage();
            d.u64(storage.entries_per_router as u64);
            d.u64(storage.bits_per_entry as u64);
            d.u64(storage.lookahead_bits_per_entry as u64);
            out.push((format!("{}/{}", table.name(), algo.name()), d.0));
        }
    }
    out
}

#[test]
fn table_program_8x8_mesh_with_faults_matches_golden_digests() {
    let mesh = Mesh::mesh_2d(8, 8);
    let faults = FaultSet::random(&mesh, 4, 31).expect("placeable");
    let actual = table_program_digests(mesh, faults);
    assert_golden(
        "8x8 table programs",
        &actual,
        &[
            0x450a4630561ea337, // distances
            0x8961fba83673d662, // up*/down* ranks and escapes
            0xe26882bb7b03d56c, // full/Up-Down
            0xbc72c005618c6440, // economical/Up-Down
            0xa7b609145c0a10c4, // interval/Up-Down
            0xeb3a6ffd037e81c7, // full/Up-Down-Adaptive
            0x6f3d3759fff8955a, // economical/Up-Down-Adaptive
            0xa7b609145c0a10c4, // interval/Up-Down-Adaptive
        ],
    );
}

#[test]
fn table_program_torus_with_dead_wrap_link_matches_golden_digests() {
    let torus = Mesh::torus_2d(4, 4);
    // The wrap link between (0,0) and (3,0).
    let faults = FaultSet::new(&torus, &[(NodeId(0), NodeId(3))]).expect("a link");
    let actual = table_program_digests(torus, faults);
    assert_golden(
        "4x4 torus table programs",
        &actual,
        &[
            0x6597d684aa00a70b, // distances
            0xb6a8fbb9b2e2c692, // up*/down* ranks and escapes
            0x8bae61bd21cb409e, // full/Up-Down
            0x6a817a41e19291f1, // economical/Up-Down
            0x16dcc1111af98314, // interval/Up-Down
            0x9c1f0d24f6c4a178, // full/Up-Down-Adaptive
            0x9c1f0d24f6c4a178, // economical/Up-Down-Adaptive
            0x16dcc1111af98314, // interval/Up-Down-Adaptive
        ],
    );
}

#[test]
fn table_program_3d_mesh_with_faults_matches_golden_digests() {
    let mesh = Mesh::mesh_3d(3, 3, 3);
    let faults = FaultSet::random(&mesh, 4, 11).expect("placeable");
    let actual = table_program_digests(mesh, faults);
    assert_golden(
        "3x3x3 table programs",
        &actual,
        &[
            0xa69bf16685e6eabb, // distances
            0x9191d0c0caa94963, // up*/down* ranks and escapes
            0xb60cdd989636e042, // full/Up-Down
            0x17c77cdbf2131878, // economical/Up-Down
            0xb60cdd989636e042, // interval/Up-Down
            0x42b068d43f40931c, // full/Up-Down-Adaptive
            0x5050d303b578c873, // economical/Up-Down-Adaptive
            0xb60cdd989636e042, // interval/Up-Down-Adaptive
        ],
    );
}

/// The `faulty_32x32` benchmark instance: 32x32, 16 dead links drawn
/// from seed 1999.
#[test]
fn table_program_32x32_benchmark_instance_matches_golden_digests() {
    let mesh = Mesh::mesh_2d(32, 32);
    let faults = FaultSet::random(&mesh, 16, 1999).expect("placeable");
    let actual = table_program_digests(mesh, faults);
    assert_golden(
        "32x32 table programs",
        &actual,
        &[
            0x77951e56029d1fa4, // distances
            0xa3a1dddc9f941141, // up*/down* ranks and escapes
            0x5261957a98b1aa7d, // full/Up-Down
            0x4e309e312fc5f0ca, // economical/Up-Down
            0x5d836cea4131d40c, // interval/Up-Down
            0x6c794fe2cbec976b, // full/Up-Down-Adaptive
            0x22eff6ae0fc48fff, // economical/Up-Down-Adaptive
            0x5d836cea4131d40c, // interval/Up-Down-Adaptive
        ],
    );
}
