//! Table 4 — performance comparison of table-storage schemes: two-level
//! meta-tables (the Fig. 8 maximal- and minimal-adaptivity labelings)
//! against full-table / economical-storage routing.
//!
//! Expected shape (paper §5.2.2):
//!
//! * full-table and economical storage are **identical** (same relation,
//!   same seed — bit-for-bit equal latencies in our simulator);
//! * the "maximal flexibility" block labeling (Meta-Tbl Adp.) performs
//!   *worse* than the row labeling that collapses to deterministic routing
//!   (Meta-Tbl Det.), because adaptivity dies at cluster boundaries and
//!   boundary links congest — the paper's counter-intuitive headline;
//! * on non-uniform traffic the meta variants saturate far earlier than
//!   full-table/ES.

use lapses_bench::{series_points, with_bench_counts, Table};
use lapses_network::scenario::Scenario;
use lapses_network::{Pattern, ScenarioAxis, SweepGrid, SweepRunner, TableKind};

fn main() {
    println!("== Table 4: table-storage scheme comparison, adaptive 16x16 mesh ==\n");

    let schemes: [(&str, TableKind); 4] = [
        ("Meta-Tbl Adp.", TableKind::MetaBlocks(vec![4, 4])),
        ("Meta-Tbl Det.", TableKind::MetaRows),
        ("Full-Tbl-Adp.", TableKind::Full),
        ("Econ. Storage", TableKind::Economical),
    ];

    let cases: [(Pattern, &[f64]); 3] = [
        (
            Pattern::Uniform,
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        ),
        (Pattern::Transpose, &[0.1, 0.2, 0.3, 0.4, 0.5]),
        (Pattern::BitReversal, &[0.1, 0.2, 0.3, 0.4]),
    ];

    // One parallel grid over every (pattern, scheme, load) cell. No master
    // seed: full-table and economical storage must run from the *same*
    // per-config seed so the §5.2.2 bit-for-bit identity is visible.
    let mut grid = SweepGrid::new();
    for (pattern, loads) in cases.iter() {
        for (name, kind) in schemes.iter() {
            let scenario =
                with_bench_counts(Scenario::builder().pattern(*pattern).table(kind.clone()))
                    .build()
                    .expect("Table 4 scenario is valid");
            grid = grid
                .scenario_series(
                    format!("{}/{}", pattern.name(), name),
                    &scenario,
                    &ScenarioAxis::Load(loads.to_vec()),
                )
                .expect("Table 4 load axis is valid");
        }
    }
    let report = SweepRunner::new().run(&grid);

    let mut table = Table::new(&[
        "Traffic",
        "Load",
        "Meta-Tbl Adp.",
        "Meta-Tbl Det.",
        "Full-Tbl-Adp.",
        "Econ. Storage",
    ]);

    for (pattern, loads) in cases {
        let sweeps: Vec<Vec<(f64, lapses_network::SimResult)>> = schemes
            .iter()
            .map(|(name, _)| series_points(&report, &format!("{}/{}", pattern.name(), name)))
            .collect();
        for (i, &load) in loads.iter().enumerate() {
            let cells: Vec<String> = sweeps
                .iter()
                .map(|s| s.get(i).map_or("Sat.".into(), |(_, r)| r.latency_cell()))
                .collect();
            if cells.iter().all(|c| c == "Sat.") {
                break;
            }
            let mut row = vec![pattern.name().to_string(), format!("{load:.1}")];
            row.extend(cells);
            table.row(row);
        }
    }

    println!("{}", table.render());
    println!(
        "(Full-Tbl-Adp. and Econ. Storage run the identical routing relation \
         from the same seed, so their columns must match exactly — §5.2.2.)"
    );
    table.save_csv("table4_storage");
}
