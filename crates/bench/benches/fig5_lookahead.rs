//! Figure 5 — router performance with/without look-ahead and with/without
//! adaptive routing, four traffic patterns on a 16×16 mesh.
//!
//! The paper plots, per pattern, the percentage increase in average latency
//! of NO-LA-DET, NO-LA-ADAPT and LA-DET over the LA-ADAPT baseline, and
//! tabulates LA-ADAPT's absolute latencies. This bench regenerates both.
//!
//! Expected shape (paper §3.3): LA-ADAPT wins ~12–15 % at low load over the
//! non-look-ahead routers; on uniform traffic the deterministic routers win
//! slightly at high load; on the three non-uniform patterns the adaptive
//! routers win decisively at high load.

use lapses_bench::{paper_loads, with_bench_counts, Table};
use lapses_core::RouterConfig;
use lapses_network::scenario::Scenario;
use lapses_network::{Algorithm, Pattern, ScenarioAxis, SimResult, SweepGrid, SweepRunner};

/// The four routers of Fig. 5, as (adaptive?, look-ahead?) scenarios.
fn router_scenario(adaptive: bool, lookahead: bool) -> lapses_network::ScenarioBuilder {
    let builder = Scenario::builder().lookahead(lookahead);
    if adaptive {
        builder
    } else {
        builder
            .router(RouterConfig::paper_deterministic().with_lookahead(lookahead))
            .algorithm(Algorithm::DimensionOrder)
    }
}

fn main() {
    let configs: [(&str, bool, bool); 4] = [
        ("NO LA, DET", false, false),
        ("NO LA, ADAPT", true, false),
        ("LA, DET", false, true),
        ("LA, ADAPT", true, true),
    ];

    println!("== Figure 5: look-ahead x adaptivity, 16x16 mesh, 20-flit messages ==\n");

    // One grid over every (pattern, configuration, load) cell, executed on
    // all cores. Point seeds stay at the scenario default so each load is
    // a paired comparison across the four routers, exactly as the
    // sequential sweeps ran it.
    let mut grid = SweepGrid::new();
    for pattern in Pattern::PAPER_FOUR {
        for (name, adaptive, lookahead) in configs {
            let scenario = with_bench_counts(router_scenario(adaptive, lookahead).pattern(pattern))
                .build()
                .expect("Fig. 5 scenario is valid");
            grid = grid
                .scenario_series(
                    format!("{}/{}", pattern.name(), name),
                    &scenario,
                    &ScenarioAxis::Load(paper_loads(pattern).to_vec()),
                )
                .expect("Fig. 5 load axis is valid");
        }
    }
    let report = SweepRunner::new().run(&grid);
    let series = |pattern: Pattern, name: &str| -> Vec<(f64, SimResult)> {
        lapses_bench::series_points(&report, &format!("{}/{}", pattern.name(), name))
    };

    let mut absolute = Table::new(&[
        "pattern",
        "load",
        "NO LA, DET",
        "NO LA, ADAPT",
        "LA, DET",
        "LA, ADAPT",
    ]);

    for pattern in Pattern::PAPER_FOUR {
        let loads = paper_loads(pattern);
        let sweeps: Vec<Vec<(f64, SimResult)>> = configs
            .iter()
            .map(|(name, _, _)| series(pattern, name))
            .collect();

        let mut fig = Table::new(&[
            "load",
            "NO-LA-DET %",
            "NO-LA-ADAPT %",
            "LA-DET %",
            "LA-ADAPT (abs)",
        ]);
        for (i, &load) in loads.iter().enumerate() {
            let cell = |sweep: &Vec<(f64, SimResult)>| -> Option<SimResult> {
                sweep.get(i).map(|(_, r)| r.clone())
            };
            let Some(base) = cell(&sweeps[3]) else { break };
            if base.saturated {
                break;
            }
            let pct = |r: Option<SimResult>| match r {
                Some(r) if !r.saturated => format!(
                    "{:+.1}",
                    (r.avg_latency - base.avg_latency) / base.avg_latency * 100.0
                ),
                _ => "Sat.".to_string(),
            };
            fig.row(vec![
                format!("{load:.1}"),
                pct(cell(&sweeps[0])),
                pct(cell(&sweeps[1])),
                pct(cell(&sweeps[2])),
                format!("{:.1}", base.avg_latency),
            ]);
            absolute.row(vec![
                pattern.name().to_string(),
                format!("{load:.1}"),
                cell(&sweeps[0]).map_or("-".into(), |r| r.latency_cell()),
                cell(&sweeps[1]).map_or("-".into(), |r| r.latency_cell()),
                cell(&sweeps[2]).map_or("-".into(), |r| r.latency_cell()),
                base.latency_cell(),
            ]);
        }
        println!(
            "-- Fig. 5 ({}) : % latency increase over LA-ADAPT --",
            pattern.name()
        );
        println!("{}", fig.render());
        fig.save_csv(&format!("fig5_{}", pattern.name().replace('-', "_")));
    }

    println!("-- Fig. 5 companion table: absolute average latencies --");
    println!("{}", absolute.render());
    absolute.save_csv("fig5_absolute");
}
