//! Property-based tests over the core invariants of the reproduction.

use lapses::core::flit::{Flit, MessageId, MsgRef};
use lapses::core::router::INFINITE_CREDITS;
use lapses::core::tables::{EconomicalTable, FullTable, IntervalTable, TableScheme};
use lapses::core::{Router, RouterTable, StepSink};
use lapses::prelude::*;
use lapses::routing::{TurnModel, TurnModelKind};
use lapses::sim::stats::{Histogram, RunningStats};
use lapses::sim::PhaseController;
use lapses::topology::labeling::{ClusterId, ClusterMap};
use lapses::topology::SignVec;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (2u16..=9, 2u16..=9).prop_map(|(w, h)| Mesh::mesh_2d(w, h))
}

fn arb_algorithm() -> impl Strategy<Value = Box<dyn RoutingAlgorithm>> {
    prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(4)].prop_map(
        |i| -> Box<dyn RoutingAlgorithm> {
            match i {
                0 => Box::new(DimensionOrder::new()),
                1 => Box::new(DuatoAdaptive::new()),
                2 => Box::new(TurnModel::new(TurnModelKind::NorthLast)),
                3 => Box::new(TurnModel::new(TurnModelKind::WestFirst)),
                _ => Box::new(TurnModel::new(TurnModelKind::NegativeFirst)),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §5.2.2: the economical table equals the full table for every
    /// source-relative algorithm, on every mesh, for every (router, dest).
    #[test]
    fn economical_equals_full_everywhere(mesh in arb_mesh(), algo in arb_algorithm()) {
        let full = FullTable::program(&mesh, algo.as_ref());
        let econ = EconomicalTable::program(&mesh, algo.as_ref());
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let f = full.entry(node, dest);
                let e = econ.entry(node, dest);
                prop_assert_eq!(f.candidates, e.candidates);
                prop_assert_eq!(f.escape, e.escape);
            }
        }
    }

    /// Every programmed entry is minimal: each candidate strictly reduces
    /// distance, and the escape is always among the candidates.
    #[test]
    fn table_entries_are_minimal_and_consistent(
        mesh in arb_mesh(),
        algo in arb_algorithm(),
    ) {
        let table = FullTable::program(&mesh, algo.as_ref());
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let e = table.entry(node, dest);
                if node == dest {
                    prop_assert!(e.is_local());
                    continue;
                }
                prop_assert!(!e.candidates.is_empty());
                let esc = e.escape.expect("escape exists away from dest");
                prop_assert!(e.candidates.contains(esc));
                for p in e.candidates.iter() {
                    let nb = mesh.neighbor(node, p.direction().unwrap()).unwrap();
                    prop_assert_eq!(
                        mesh.distance(nb, dest) + 1,
                        mesh.distance(node, dest)
                    );
                }
            }
        }
    }

    /// Walking any scheme's escape route reaches the destination in exactly
    /// the minimal number of hops — tables can never livelock a message.
    #[test]
    fn escape_walks_terminate_minimally(
        mesh in arb_mesh(),
        src_i in 0usize..81,
        dest_i in 0usize..81,
    ) {
        let n = mesh.node_count();
        let src = NodeId((src_i % n) as u32);
        let dest = NodeId((dest_i % n) as u32);
        let schemes: Vec<Box<dyn TableScheme>> = vec![
            Box::new(FullTable::program(&mesh, &DuatoAdaptive::new())),
            Box::new(EconomicalTable::program(&mesh, &DuatoAdaptive::new())),
            Box::new(IntervalTable::program(&mesh)),
        ];
        for scheme in &schemes {
            let mut at = src;
            let mut hops = 0u32;
            loop {
                let e = scheme.entry(at, dest);
                let p = e.escape.expect("programmed entry");
                if p.is_local() {
                    break;
                }
                at = mesh.neighbor(at, p.direction().unwrap()).unwrap();
                hops += 1;
                prop_assert!(hops <= mesh.distance(src, dest), "walk too long");
            }
            prop_assert_eq!(at, dest);
            prop_assert_eq!(hops, mesh.distance(src, dest));
        }
    }

    /// Meta-table safe sets: non-empty toward every foreign cluster, and
    /// minimal toward every node of that cluster.
    #[test]
    fn meta_safe_sets_sound(w in 2u16..=4, h in 2u16..=4, cw in 1u16..=2, ch in 1u16..=2) {
        let mesh = Mesh::mesh_2d(w * cw * 2, h * ch);
        let shape = [cw * 2, ch];
        let map = ClusterMap::blocks(&mesh, &shape);
        for node in mesh.nodes() {
            let coord = mesh.coord_of(node);
            let home = map.cluster_of(&coord);
            for c in 0..map.cluster_count() as u32 {
                let cluster = ClusterId(c);
                if cluster == home {
                    continue;
                }
                let safe = map.safe_ports_toward(&coord, cluster);
                prop_assert!(!safe.is_empty());
                // Safe ports reduce the distance to every member node.
                let (lo, hi) = map.cluster_bounds(cluster);
                for port in safe.iter() {
                    let nb = mesh.neighbor(node, port.direction().unwrap()).unwrap();
                    let nb_c = mesh.coord_of(nb);
                    for dim in 0..mesh.dims() {
                        // Componentwise: moving along the safe port never
                        // increases distance to the cluster box.
                        let dist = |x: u16| {
                            if x < lo[dim] { (lo[dim] - x) as i32 }
                            else if x > hi[dim] { (x - hi[dim]) as i32 }
                            else { 0 }
                        };
                        prop_assert!(dist(nb_c[dim]) <= dist(coord[dim]));
                    }
                }
            }
        }
    }

    /// Sign-vector table indices form a bijection on every dimensionality.
    #[test]
    fn sign_index_bijection(dims in 1usize..=4) {
        let len = SignVec::table_len(dims);
        let mut seen = vec![false; len];
        for (i, slot) in seen.iter_mut().enumerate() {
            let sv = SignVec::from_table_index(i, dims);
            prop_assert_eq!(sv.table_index(), i);
            prop_assert!(!*slot);
            *slot = true;
        }
    }

    /// Message construction: exactly one head, one tail, ordered seq.
    #[test]
    fn message_structure(len in 1u32..200) {
        let flits = Flit::message(MessageId(1), MsgRef(0), NodeId(1), len);
        prop_assert_eq!(flits.len() as u32, len);
        let heads = flits.iter().filter(|f| f.kind.is_head()).count();
        let tails = flits.iter().filter(|f| f.kind.is_tail()).count();
        prop_assert_eq!(heads, 1);
        prop_assert_eq!(tails, 1);
        prop_assert!(flits[0].kind.is_head());
        prop_assert!(flits.last().unwrap().kind.is_tail());
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
        }
    }

    /// Phase controller: deliveries never exceed injections; Done is
    /// reached exactly when all measured messages landed.
    #[test]
    fn phase_controller_invariants(warmup in 0u64..20, measure in 1u64..50) {
        let mut pc = PhaseController::new(warmup, measure);
        let mut measured = 0u64;
        while pc.accepting_injections() {
            if pc.note_injection() {
                measured += 1;
            }
        }
        prop_assert_eq!(measured, measure);
        prop_assert_eq!(pc.injected(), warmup + measure);
        for i in 0..measure {
            prop_assert!(pc.measured_in_flight() == measure - i);
            pc.note_measured_delivery();
        }
        prop_assert_eq!(pc.phase(), lapses::sim::MeasurementPhase::Done);
    }

    /// Histogram percentiles are monotone in p and bracket the samples.
    #[test]
    fn histogram_percentiles_monotone(samples in prop::collection::vec(0.0f64..500.0, 10..200)) {
        let mut h = Histogram::new(2.0, 512);
        let mut stats = RunningStats::new();
        for &s in &samples {
            h.record(s);
            stats.record(s);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p95 = h.percentile(95.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        prop_assert!(p50 <= p95 + 1e-9);
        prop_assert!(p95 <= p99 + 1e-9);
        prop_assert!(p99 <= stats.max().unwrap() + 2.0 + 1e-9); // bucket width slack
    }

    /// End-to-end mini-simulation: every offered message is delivered, for
    /// random loads and patterns, under both pipelines.
    #[test]
    fn small_networks_deliver_everything(
        seed in 0u64..1000,
        lookahead in any::<bool>(),
        load_pct in 5u32..30,
    ) {
        let r = Scenario::builder()
            .mesh_2d(4, 4)
            .lookahead(lookahead)
            .load(load_pct as f64 / 100.0)
            .message_counts(20, 150)
            .seed(seed)
            .build()
            .expect("valid scenario")
            .run();
        prop_assert!(!r.saturated);
        prop_assert_eq!(r.messages, 150);
        prop_assert!(r.avg_latency > 0.0);
    }
}

/// A router sink that checks the zero-copy wire protocol as the router
/// emits: payloads transferred at XB queue per output (port, VC) with
/// their cycle, and each launch must find an earlier transfer there.
#[derive(Default)]
struct ProtocolSink {
    now: u64,
    wire: HashMap<(Port, usize), VecDeque<(u64, Flit)>>,
    /// Flits that left this cycle, launched or ejected: `(port, vc, flit)`.
    left: Vec<(Port, usize, Flit)>,
    credits: Vec<(Port, usize)>,
    violations: Vec<String>,
}

impl StepSink for ProtocolSink {
    fn eject(&mut self, vc: usize, flit: Flit) {
        self.left.push((Port::LOCAL, vc, flit));
    }

    fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit) {
        if out_port.is_local() {
            self.violations
                .push(format!("cycle {}: transfer to the local port", self.now));
        }
        let fifo = self.wire.entry((out_port, vc)).or_default();
        fifo.push_back((self.now, flit));
    }

    fn launch(&mut self, port: Port, vc: usize) {
        if port.is_local() {
            self.violations
                .push(format!("cycle {}: launch on the local port", self.now));
        }
        match self.wire.get_mut(&(port, vc)).and_then(VecDeque::pop_front) {
            Some((at, flit)) if at < self.now => self.left.push((port, vc, flit)),
            Some((at, _)) => self.violations.push(format!(
                "cycle {}: {port} vc{vc} launched a flit transferred at {at}",
                self.now
            )),
            None => self.violations.push(format!(
                "cycle {}: {port} vc{vc} launched with nothing transferred",
                self.now
            )),
        }
    }

    fn credit(&mut self, in_port: Port, vc: usize) {
        self.credits.push((in_port, vc));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One mid-mesh router fed random messages on random input ports and
    /// VCs, with credits returned after a delay in both directions, keeps
    /// the sink protocol: every launch pops the oldest transfer at its
    /// (port, VC), nothing transfers or launches on the local port, every
    /// message leaves whole, in `seq` order, through one output VC, every
    /// flit leaves equal to the one sent (a launched LA-PROUD head carries
    /// the next hop's table entry instead of this router's), credits
    /// emitted equal flits accepted, and after the drain the wire and the
    /// router are empty.
    #[test]
    fn router_keeps_the_sink_protocol(
        // Draws of 25 and above address this router itself, so about a
        // quarter of the messages eject and ejection VCs get reused.
        msgs in prop::collection::vec((0usize..5, 0usize..4, 1u32..=12, 0u32..33), 1..40),
        credit_delay in 1u64..=4,
        lookahead in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mesh = Mesh::mesh_2d(5, 5);
        let node = mesh.id_at(&[2, 2]).unwrap();
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let cfg = RouterConfig::paper_adaptive().with_lookahead(lookahead);
        let (ports, vcs) = (mesh.ports_per_router(), cfg.vcs_per_port);
        let depth = cfg.input_buffer_flits as u32;
        let table = RouterTable::new(Arc::clone(&program), node);
        let mut router = Router::new(node, ports, cfg, table, SimRng::from_seed(seed));
        for p in 0..ports {
            let credits = if p == 0 { INFINITE_CREDITS } else { depth };
            for v in 0..vcs {
                router.set_credits(Port::from_index(p), v, credits);
            }
        }

        // Per input (port, VC): the flits still to send, in order.
        let mut queues = vec![VecDeque::new(); ports * vcs];
        let mut sent: HashMap<(MessageId, u32), Flit> = HashMap::new();
        for (i, &(p, v, len, dest)) in msgs.iter().enumerate() {
            let dest = if dest < 25 { NodeId(dest) } else { node };
            if p == 0 && dest == node {
                continue; // a node never addresses itself
            }
            let mut flits = Flit::message(MessageId(i as u64), MsgRef(i as u32), dest, len);
            if lookahead {
                flits[0].lookahead = Some(program.entry(node, dest));
            }
            sent.extend(flits.iter().map(|f| ((f.msg, f.seq), *f)));
            queues[p * vcs + v].extend(flits);
        }
        let total: usize = queues.iter().map(VecDeque::len).sum();

        let mut sink = ProtocolSink::default();
        let mut upstream_credits = vec![depth; ports * vcs];
        let mut to_upstream = VecDeque::new(); // (due cycle, input slot)
        let mut to_router = VecDeque::new(); // (due cycle, port, vc)
        let (mut accepted, mut credited, mut left) = (0, 0, 0);
        let mut next_seq: HashMap<MessageId, u32> = HashMap::new();
        let mut open: HashMap<(Port, usize), MessageId> = HashMap::new();
        for t in 1..=20_000u64 {
            sink.now = t;
            router.step_with(Cycle::new(t), &mut sink);
            prop_assert!(sink.violations.is_empty(), "{:?}", sink.violations);
            for (port, vc) in sink.credits.drain(..) {
                credited += 1;
                to_upstream.push_back((t + credit_delay, port.index() * vcs + vc));
            }
            for (port, vc, flit) in sink.left.drain(..) {
                left += 1;
                prop_assert_eq!(port.is_local(), flit.dest == node, "{} left via {}", flit, port);
                let want = sent.get(&(flit.msg, flit.seq)).copied();
                prop_assert!(want.is_some(), "{} was never sent", flit);
                let want = want.unwrap();
                prop_assert_eq!(flit.rec, want.rec, "{} changed its record", flit);
                prop_assert_eq!(flit.dest, want.dest, "{} changed its destination", flit);
                prop_assert_eq!(flit.kind, want.kind, "{} changed its kind", flit);
                let next_hop = port.direction().and_then(|dir| mesh.neighbor(node, dir));
                let carried = match next_hop {
                    Some(next) if lookahead && flit.kind.is_head() => {
                        Some(program.entry(next, flit.dest))
                    }
                    _ => None,
                };
                prop_assert_eq!(flit.lookahead, carried, "{} carries the wrong look-ahead", flit);
                let seq = next_seq.entry(flit.msg).or_insert(0);
                prop_assert_eq!(flit.seq, *seq, "{} left out of order", flit);
                *seq += 1;
                let streaming = open.get(&(port, vc)).copied();
                if flit.kind.is_head() {
                    prop_assert_eq!(streaming, None, "{} interleaved on {} vc{}", flit, port, vc);
                } else {
                    prop_assert_eq!(streaming, Some(flit.msg), "{} strayed to {} vc{}", flit, port, vc);
                }
                if flit.kind.is_tail() {
                    open.remove(&(port, vc));
                } else {
                    open.insert((port, vc), flit.msg);
                }
                if !port.is_local() {
                    to_router.push_back((t + credit_delay, port, vc));
                }
            }
            while to_upstream.front().is_some_and(|&(due, _)| due <= t) {
                let (_, slot) = to_upstream.pop_front().unwrap();
                upstream_credits[slot] += 1;
            }
            while to_router.front().is_some_and(|&(due, _, _)| due <= t) {
                let (_, port, vc) = to_router.pop_front().unwrap();
                router.accept_credit(port, vc);
            }
            // Each input link carries at most one flit per cycle, from a
            // rotating VC with a flit to send and a credit.
            for p in 0..ports {
                let slot = (0..vcs)
                    .map(|k| p * vcs + (t as usize + k) % vcs)
                    .find(|&i| upstream_credits[i] > 0 && !queues[i].is_empty());
                if let Some(i) = slot {
                    let flit = queues[i].pop_front().unwrap();
                    upstream_credits[i] -= 1;
                    router.accept_flit(Port::from_index(p), i % vcs, flit, Cycle::new(t));
                    accepted += 1;
                }
            }
            if left == total && to_upstream.is_empty() && to_router.is_empty() {
                break;
            }
        }
        prop_assert_eq!(left, total, "the router did not drain");
        prop_assert_eq!(accepted, total);
        prop_assert_eq!(credited, accepted, "credits emitted != flits accepted");
        prop_assert!(router.is_empty());
        prop_assert!(sink.wire.values().all(VecDeque::is_empty), "wire holds flits");
        prop_assert!(upstream_credits.iter().all(|&c| c == depth));
        for p in 1..ports {
            for v in 0..vcs {
                prop_assert_eq!(router.credits(Port::from_index(p), v), depth);
            }
        }
    }
}
