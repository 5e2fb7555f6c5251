//! Criterion microbenchmarks backing the qualitative columns of Table 5
//! and the cost model of the router's critical path:
//!
//! * table lookup cost per scheme (full vs meta vs economical vs interval)
//!   — the paper argues lookup time grows with table size, favoring the
//!   9-entry economical table;
//! * path-selection decision cost per heuristic;
//! * a full network cycle of the 16×16 mesh under load (simulator
//!   throughput, flits moved per second of wall time);
//! * the faulty-network set-up layers — the faulty-mesh build, the
//!   up*/down* compile and economical-table programming — one at a time
//!   on the `faulty_32x32` benchmark instance.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lapses_core::psh::{PathSelection, PathSelector, PortStatus};
use lapses_core::router::INFINITE_CREDITS;
use lapses_core::tables::{EconomicalTable, FullTable, IntervalTable, MetaTable, TableScheme};
use lapses_core::{Flit, MessageId, MsgRef, Router, RouterConfig, RouterTable, StepSink};
use lapses_network::{Pattern, Scenario};
use lapses_routing::{DuatoAdaptive, UpDown};
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{Direction, FaultSet, FaultyMesh, Mesh, NodeId, Port};
use std::hint::black_box;
use std::sync::Arc;

/// A mid-mesh router with full downstream credits, fed by the benchmark.
fn bench_router() -> Router {
    let mesh = Mesh::mesh_2d(8, 8);
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
    let node = mesh.id_at(&[4, 4]).unwrap();
    let mut r = Router::new(
        node,
        mesh.ports_per_router(),
        RouterConfig::paper_adaptive(),
        RouterTable::new(program, node),
        SimRng::from_seed(5),
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
    r
}

/// A sink that only counts the flits leaving the router: the cheapest
/// consumer of the zero-copy wire, so the bench times the router alone.
#[derive(Default)]
struct CountingSink {
    launches: u64,
}

impl StepSink for CountingSink {
    fn eject(&mut self, _vc: usize, flit: Flit) {
        black_box(flit);
        self.launches += 1;
    }

    fn transfer(&mut self, _out_port: Port, _vc: usize, flit: Flit) {
        black_box(flit);
    }

    fn launch(&mut self, _port: Port, _vc: usize) {
        self.launches += 1;
    }

    fn credit(&mut self, _in_port: Port, _vc: usize) {}
}

/// One router stepped in isolation: the cost floor of the cycle loop's
/// inner call, across the occupancy regimes the scheduler distinguishes
/// (idle / one streaming message / every port saturated).
fn bench_router_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_step");
    let mesh = Mesh::mesh_2d(8, 8);
    let dest = mesh.id_at(&[7, 7]).unwrap();

    // Idle: the step the active-set scheduler elides entirely.
    group.bench_function("idle", |b| {
        let mut r = bench_router();
        let mut sink = CountingSink::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(r.step_with(Cycle::new(t), &mut sink))
        })
    });

    // Streaming: one long message — the common mid-load regime where a
    // busy router moves a flit or two per cycle.
    group.bench_function("streaming", |b| {
        b.iter_batched(
            || {
                let mut r = bench_router();
                let flits = Flit::message(MessageId(1), MsgRef(0), dest, 1000);
                for f in flits.into_iter().take(18) {
                    r.accept_flit(Port::LOCAL, 0, f, Cycle::ZERO);
                }
                (r, CountingSink::default())
            },
            |(mut r, mut sink)| {
                for t in 1..=12u64 {
                    r.step_with(Cycle::new(t), &mut sink);
                }
                black_box(sink.launches);
                (r, sink)
            },
            BatchSize::SmallInput,
        )
    });

    // Saturated: every input port streams a long message through the
    // crossbar each cycle (the occupancy masks are all hot).
    group.bench_function("saturated", |b| {
        b.iter_batched(
            || {
                let mut r = bench_router();
                for p in 0..r.ports() {
                    let flits =
                        Flit::message(MessageId(p as u64 + 1), MsgRef(p as u32), dest, 1000);
                    for f in flits.into_iter().take(18) {
                        r.accept_flit(Port::from_index(p), 0, f, Cycle::ZERO);
                    }
                }
                (r, CountingSink::default())
            },
            |(mut r, mut sink)| {
                for t in 1..=12u64 {
                    r.step_with(Cycle::new(t), &mut sink);
                }
                black_box(sink.launches);
                (r, sink)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The per-cycle delivery phase at network scale: zero-copy wire with
/// per-router batched commits, over a warmed-up 16×16 network.
fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery");
    group.sample_size(10);
    group.bench_function("batched", |b| {
        b.iter_batched(
            || {
                let cfg = Scenario::builder()
                    .pattern(Pattern::Uniform)
                    .load(0.4)
                    .build()
                    .expect("valid scenario")
                    .compile();
                let program = cfg.table.build(&cfg.mesh, cfg.algorithm.build().as_ref());
                let mut net = lapses_network::Network::new(
                    cfg.mesh.clone(),
                    cfg.router.clone(),
                    program,
                    1,
                    9,
                );
                let mut rng = SimRng::from_seed(11);
                for src in cfg.mesh.nodes() {
                    let dest = NodeId(rng.below(256) as u32);
                    if dest != src {
                        net.offer_message(src, dest, 20, lapses_sim::Cycle::ZERO, false);
                    }
                }
                // Warm up so the wires carry steady traffic.
                for t in 0..100u64 {
                    net.step(lapses_sim::Cycle::new(t));
                }
                net
            },
            |mut net| {
                for t in 100..300u64 {
                    black_box(net.step(lapses_sim::Cycle::new(t)));
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_table_lookup(c: &mut Criterion) {
    let mesh = Mesh::mesh_2d(16, 16);
    let algo = DuatoAdaptive::new();
    let schemes: Vec<(&str, Box<dyn TableScheme>)> = vec![
        ("full", Box::new(FullTable::program(&mesh, &algo))),
        (
            "economical",
            Box::new(EconomicalTable::program(&mesh, &algo)),
        ),
        (
            "meta-4x4",
            Box::new(MetaTable::blocks(&mesh, &[4, 4], &algo)),
        ),
        ("interval", Box::new(IntervalTable::program(&mesh))),
    ];
    let mut group = c.benchmark_group("table_lookup");
    let pairs: Vec<(NodeId, NodeId)> = {
        let mut rng = SimRng::from_seed(7);
        (0..256)
            .map(|_| {
                let a = NodeId(rng.below(256) as u32);
                let b = NodeId(rng.below(256) as u32);
                (a, b)
            })
            .collect()
    };
    for (name, scheme) in &schemes {
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (node, dest) = pairs[i % pairs.len()];
                i += 1;
                black_box(scheme.entry(black_box(node), black_box(dest)))
            })
        });
    }
    group.finish();
}

fn bench_path_selection(c: &mut Criterion) {
    let candidates = [
        Port::from(Direction::plus(0)),
        Port::from(Direction::plus(1)),
    ];
    let status = |p: Port| PortStatus {
        active_vcs: p.index() as u32 % 3,
        credits_sum: 40 + p.index() as u32,
        credits_max: 20,
    };
    let mut group = c.benchmark_group("path_selection");
    for psh in PathSelection::paper_five() {
        group.bench_function(psh.name(), |b| {
            let mut sel = PathSelector::new(psh, 5);
            let mut rng = SimRng::from_seed(3);
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                let pick = sel.select(black_box(&candidates), status, &mut rng);
                sel.note_port_used(pick, t, true);
                black_box(pick)
            })
        });
    }
    group.finish();
}

fn bench_network_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_cycle");
    group.sample_size(10);
    for (name, lookahead) in [("proud_16x16", false), ("la_proud_16x16", true)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    // A warmed-up network at moderate load: run the first
                    // 2000 cycles outside the measurement.
                    let cfg = Scenario::builder()
                        .lookahead(lookahead)
                        .pattern(Pattern::Uniform)
                        .load(0.4)
                        .message_counts(100, 2_000)
                        .build()
                        .expect("valid scenario")
                        .compile();
                    let program = cfg.table.build(&cfg.mesh, cfg.algorithm.build().as_ref());
                    let mut net = lapses_network::Network::new(
                        cfg.mesh.clone(),
                        cfg.router.clone(),
                        program,
                        1,
                        9,
                    );
                    // Seed some traffic.
                    let mut rng = SimRng::from_seed(11);
                    for src in cfg.mesh.nodes() {
                        let dest = NodeId(rng.below(256) as u32);
                        if dest != src {
                            net.offer_message(src, dest, 20, lapses_sim::Cycle::ZERO, false);
                        }
                    }
                    net
                },
                |mut net| {
                    for t in 0..200u64 {
                        black_box(net.step(lapses_sim::Cycle::new(t)));
                    }
                    net
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The three faulty-network set-up layers on the `faulty_32x32` benchmark
/// instance (32×32 mesh, 16 dead links drawn from seed 1999), each timed
/// alone so a change to one layer can be A/B'd without the others.
fn bench_faulty_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("faulty_setup");
    group.sample_size(10);
    let mesh = Mesh::mesh_2d(32, 32);
    let faults = FaultSet::random(&mesh, 16, 1999).expect("placeable");
    group.bench_function("faulty_mesh_new", |b| {
        b.iter(|| FaultyMesh::new(mesh.clone(), faults.clone()).expect("connected"))
    });
    let fmesh = Arc::new(FaultyMesh::new(mesh, faults).expect("connected"));
    group.bench_function("updown_adaptive_compile", |b| {
        b.iter(|| UpDown::adaptive(Arc::clone(&fmesh)))
    });
    let algo = UpDown::adaptive(Arc::clone(&fmesh));
    group.bench_function("economical_program_faulty", |b| {
        b.iter(|| EconomicalTable::program_faulty(&fmesh, &algo))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_table_lookup, bench_path_selection, bench_router_step, bench_delivery,
        bench_network_cycle, bench_faulty_setup
}
criterion_main!(benches);
