//! The benchmark's three workloads. Each is a closed batch of simulation
//! points: a grid run by `SweepRunner`, where the next point starts when a
//! worker finishes the previous one. README.md says why each was chosen.

use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{Algorithm, Pattern, ScenarioAxis, SweepGrid, SweepRunner, TableKind};

/// The default workload seed. On `reference_16x16` it reproduces the
/// repository's pinned reference sweep.
pub const PINNED_SEED: u64 = 1999;

/// A seed kept out of tuning: a later performance claim must also hold
/// with `--seed` set to it.
pub const HELD_OUT_SEED: u64 = 4242;

/// The pinned reference sweep's totals at [`PINNED_SEED`]: simulated
/// cycles, measured messages and measured flits.
pub const ANCHOR: (u64, u64, u64) = (36_284, 20_000, 400_000);

/// Warm-up and measured messages of a 16×16 point: the pinned reference
/// sweep's counts. Every point measures at least 5,000 messages, so at
/// least 50 lie beyond its 99th latency percentile.
const COUNTS_16X16: (u64, u64) = (500, 5_000);

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["reference_16x16", "contended_16x16", "faulty_32x32"];

/// One workload instance: labelled load series and the runner settings.
pub struct Workload {
    pub name: &'static str,
    pub threads: usize,
    pub seed: u64,
    /// Measured messages every point must deliver.
    pub measure_msgs: u64,
    series: Vec<(&'static str, ScenarioBuilder, Vec<f64>)>,
}

/// One grid point, as the replay builds it: the builder for its scenario
/// (load applied) and the seed the runner gives it.
pub struct Point {
    pub builder: ScenarioBuilder,
    pub seed: u64,
}

/// The 16×16 LA-ADAPT router of the paper's reference point.
fn mesh16(pattern: Pattern) -> ScenarioBuilder {
    Scenario::builder()
        .mesh_2d(16, 16)
        .lookahead(true)
        .pattern(pattern)
}

impl Workload {
    /// The named workload with its inputs drawn from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, threads, (warmup, measure), series) = match name {
            "reference_16x16" => (
                NAMES[0],
                1,
                COUNTS_16X16,
                Pattern::PAPER_FOUR
                    .iter()
                    .map(|&p| (p.name(), mesh16(p), vec![0.2]))
                    .collect(),
            ),
            "contended_16x16" => (
                NAMES[1],
                2,
                COUNTS_16X16,
                // Each load twice, under two seeds: latency past the knee
                // is heavy-tailed, and one sample per load leaves the
                // workload's tail figures too seed-dependent to compare.
                ["uniform/1", "transpose/1", "uniform/2", "transpose/2"]
                    .into_iter()
                    .map(|label| match label.starts_with("uniform") {
                        true => (label, mesh16(Pattern::Uniform), vec![0.6, 0.8, 1.0, 1.2]),
                        false => (label, mesh16(Pattern::Transpose), vec![0.3, 0.4, 0.5, 0.6]),
                    })
                    .collect(),
            ),
            "faulty_32x32" => (
                NAMES[2],
                1,
                (2_000, 20_000),
                vec![(
                    "uniform",
                    Scenario::builder()
                        .mesh_2d(32, 32)
                        .random_faults(16, seed)
                        .algorithm(Algorithm::UpDownAdaptive)
                        .table(TableKind::Economical)
                        .lookahead(true)
                        .pattern(Pattern::Uniform),
                    vec![0.1],
                )],
            ),
            _ => return None,
        };
        let series = series
            .into_iter()
            .map(|(label, b, loads)| (label, b.message_counts(warmup, measure), loads))
            .collect();
        Some(Workload {
            name,
            threads,
            seed,
            measure_msgs: measure,
            series,
        })
    }

    /// The sweep grid, built once through the scenario API.
    pub fn grid(&self) -> SweepGrid {
        self.series
            .iter()
            .fold(SweepGrid::new(), |grid, (label, builder, loads)| {
                let base = builder
                    .clone()
                    .build()
                    .expect("workload scenarios are valid");
                grid.scenario_series(*label, &base, &ScenarioAxis::Load(loads.clone()))
                    .expect("workload load axes are valid")
            })
    }

    /// The runner: this workload's thread count, seeded with the workload
    /// seed.
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::new()
            .with_threads(self.threads)
            .with_master_seed(self.seed)
    }

    /// The grid's points in grid order, each with the seed the runner
    /// derives for it.
    pub fn points(&self) -> Vec<Point> {
        self.series
            .iter()
            .flat_map(|(_, builder, loads)| loads.iter().map(|&l| builder.clone().load(l)))
            .enumerate()
            .map(|(i, builder)| Point {
                builder,
                seed: point_seed(self.seed, i as u64),
            })
            .collect()
    }
}

/// The seed `SweepRunner::with_master_seed` gives grid point `index`
/// (SplitMix64 over master and position). The replay-faithfulness check
/// fails on every point if this ever drifts from the runner's.
fn point_seed(master: u64, index: u64) -> u64 {
    lapses_sim::rng::mix64(
        master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}
