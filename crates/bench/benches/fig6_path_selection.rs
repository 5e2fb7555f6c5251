//! Figure 6 — performance of the five path-selection heuristics
//! (STATIC-XY, MIN-MUX, LFU, LRU, MAX-CREDIT) on four traffic patterns.
//!
//! Expected shape (paper §4.2): static selection is fine for uniform
//! traffic; for the three non-uniform patterns the traffic-sensitive
//! heuristics — LRU, LFU, MAX-CREDIT (and MIN-MUX) — give substantially
//! lower latency at medium-to-high load, with MAX-CREDIT typically between
//! LFU and LRU.

use lapses_bench::{paper_loads, series_points, with_bench_counts, Table};
use lapses_core::psh::PathSelection;
use lapses_network::scenario::Scenario;
use lapses_network::{Pattern, ScenarioAxis, SimResult, SweepGrid, SweepRunner};

fn main() {
    println!("== Figure 6: path-selection heuristics, adaptive 16x16 mesh ==\n");

    // All (pattern, heuristic, load) cells as one parallel grid; point
    // seeds stay at the scenario default so heuristics are compared on
    // identical workloads.
    let mut grid = SweepGrid::new();
    for pattern in Pattern::PAPER_FOUR {
        for &psh in PathSelection::paper_five().iter() {
            let scenario =
                with_bench_counts(Scenario::builder().pattern(pattern).path_selection(psh))
                    .build()
                    .expect("Fig. 6 scenario is valid");
            grid = grid
                .scenario_series(
                    format!("{}/{}", pattern.name(), psh.name()),
                    &scenario,
                    &ScenarioAxis::Load(paper_loads(pattern).to_vec()),
                )
                .expect("Fig. 6 load axis is valid");
        }
    }
    let report = SweepRunner::new().run(&grid);

    for pattern in Pattern::PAPER_FOUR {
        let loads = paper_loads(pattern);
        let sweeps: Vec<Vec<(f64, SimResult)>> = PathSelection::paper_five()
            .iter()
            .map(|&psh| series_points(&report, &format!("{}/{}", pattern.name(), psh.name())))
            .collect();

        let mut fig = Table::new(&["load", "Static-XY", "Min-Mux", "LFU", "LRU", "MAX-CREDIT"]);
        for (i, &load) in loads.iter().enumerate() {
            // Stop once every heuristic has saturated.
            let cells: Vec<String> = sweeps
                .iter()
                .map(|s| s.get(i).map_or("-".into(), |(_, r)| r.latency_cell()))
                .collect();
            if cells.iter().all(|c| c == "-" || c == "Sat.") {
                break;
            }
            let mut row = vec![format!("{load:.1}")];
            row.extend(cells);
            fig.row(row);
        }
        println!("-- Fig. 6 ({}) : average latency --", pattern.name());
        println!("{}", fig.render());
        fig.save_csv(&format!("fig6_{}", pattern.name().replace('-', "_")));
    }
}
