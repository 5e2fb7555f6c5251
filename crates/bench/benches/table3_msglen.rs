//! Table 3 — impact of message length on the look-ahead benefit
//! (uniform traffic, normalized load 0.2).
//!
//! Paper's values for reference:
//!
//! ```text
//! len   LA      no-LA   % improv.
//!   5   51.9    63.4    18.0
//!  10   58.9    69.6    15.4
//!  20   74.0    83.6    11.5
//!  50  120.2   128.6     6.5
//! ```
//!
//! Expected shape: the shorter the message, the larger the relative gain
//! from saving one pipeline stage per hop.

use lapses_bench::{with_bench_counts, Table};
use lapses_network::scenario::Scenario;
use lapses_traffic::LengthDistribution;

fn main() {
    println!("== Table 3: message length vs look-ahead benefit (uniform, load 0.2) ==\n");

    let mut table = Table::new(&["Mesg. Len", "Look Ahead", "No Look Ahead", "% Improv."]);
    for len in [5u32, 10, 20, 50] {
        let run = |lookahead: bool| {
            with_bench_counts(
                Scenario::builder()
                    .lookahead(lookahead)
                    .load(0.2)
                    .lengths(LengthDistribution::Fixed(len)),
            )
            .build()
            .expect("Table 3 scenario is valid")
            .run()
        };
        let la = run(true);
        let no_la = run(false);
        let improv = (no_la.avg_latency - la.avg_latency) / no_la.avg_latency * 100.0;
        table.row(vec![
            len.to_string(),
            la.latency_cell(),
            no_la.latency_cell(),
            format!("{improv:.1}"),
        ]);
    }
    println!("{}", table.render());
    table.save_csv("table3_msglen");
}
