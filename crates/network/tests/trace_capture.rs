//! Trace-capture round trip: a live run recorded through the capture sink
//! and replayed as a `WorkloadKind::Trace` workload must be bit-identical
//! in every reported statistic — the injection interleaving reproduces
//! exactly because each node is polled at most once per cycle and drains
//! all of its due messages in that one poll.

use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{ArrivalKind, Pattern};
use lapses_traffic::Trace;
use std::sync::Arc;

fn fast(builder: ScenarioBuilder) -> ScenarioBuilder {
    builder.message_counts(100, 800).seed(321)
}

fn mesh8() -> ScenarioBuilder {
    Scenario::builder().mesh_2d(8, 8)
}

fn replay(source: &Scenario, trace: Trace) -> Scenario {
    source
        .to_builder()
        .trace(Arc::new(trace))
        .build()
        .expect("the capture replays on its own topology")
}

/// Capture → replay must reproduce the run exactly, across arrival
/// processes and patterns.
#[test]
fn synthetic_capture_replays_bit_identically() {
    for arrivals in [
        ArrivalKind::Exponential,
        ArrivalKind::Bernoulli,
        ArrivalKind::Periodic,
    ] {
        for pattern in [Pattern::Uniform, Pattern::Transpose] {
            let source = fast(mesh8())
                .pattern(pattern)
                .arrivals(arrivals)
                .load(0.2)
                .build()
                .unwrap();
            let (original, trace) = source.run_capturing();
            let cfg = source.config();
            assert_eq!(
                trace.len() as u64,
                cfg.warmup_msgs + cfg.measure_msgs,
                "capture records exactly the offered messages"
            );
            let replay = replay(&source, trace).run();
            assert_eq!(
                original, replay,
                "{pattern:?}/{arrivals:?} replay drifted from the live run"
            );
        }
    }
}

/// The captured trace survives its own text format: format → parse →
/// replay is still bit-identical (the capture sink writes what the loader
/// reads).
#[test]
fn captured_trace_round_trips_through_text() {
    let source = fast(mesh8()).load(0.25).build().unwrap();
    let (original, trace) = source.run_capturing();
    let text = trace.format();
    let reloaded = Trace::parse(&text, trace.node_count()).expect("formatted capture parses");
    assert_eq!(trace, reloaded);
    let replay = replay(&source, reloaded).run();
    assert_eq!(original, replay);
}

/// Capturing must not perturb the run itself.
#[test]
fn capturing_does_not_change_the_run() {
    let source = fast(mesh8()).load(0.2).build().unwrap();
    let plain = source.run();
    let (captured, _) = source.run_capturing();
    assert_eq!(plain, captured);
}

/// Scenario-level capture of a bursty run replays exactly, including the
/// lookahead router and a non-default pattern.
#[test]
fn bursty_lookahead_capture_replays() {
    let scenario = Scenario::builder()
        .mesh_2d(8, 8)
        .lookahead(true)
        .pattern(Pattern::BitReversal)
        .bursty(6, 2.0)
        .load(0.15)
        .message_counts(100, 800)
        .build()
        .unwrap();
    let (original, trace) = scenario.run_capturing();
    let replay = scenario
        .to_builder()
        .trace(Arc::new(trace))
        .build()
        .unwrap()
        .run();
    assert_eq!(original, replay);
}
