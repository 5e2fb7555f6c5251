//! Fuzzes the `.scn` front door. Each case assembles a spec from the real
//! keys, with values drawn from valid, boundary and garbage pools (plus an
//! occasional malformed line or duplicate key, in shuffled order), and
//! checks that:
//!
//! * [`ScenarioSpec::parse`] never panics;
//! * every accepted spec round-trips through parse → format → parse;
//! * every parse rejection is a [`SpecError::Parse`] whose line lies inside
//!   the text, and every build rejection is a [`SpecError::Scenario`] (or a
//!   [`SpecError::Trace`] for a trace workload);
//! * every spec that builds, on a mesh of at most 4×4 with at most 50
//!   messages, runs without panicking.
//!
//! `PROPTEST_CASES` bounds the case count.

use lapses::network::spec::WorkloadSpec;
use lapses::prelude::*;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// A spec key with its valid, boundary and garbage value pools.
type Pool = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
);

/// Every spec key with three value pools: valid values, boundary values
/// (each either rejected by `to_scenario` or the smallest accepted), and
/// garbage that must fail to parse.
const POOLS: &[Pool] = &[
    (
        "topology",
        &[
            "mesh 4x4",
            "mesh 2x2",
            "mesh 3x3",
            "mesh 4x2",
            "mesh 4",
            "mesh 2x2x2",
            "torus 3x3",
            "torus 4x4",
        ],
        &[
            "mesh 1x1",
            "mesh 1",
            "mesh 1x4",
            "torus 2x2",
            "torus 3x2",
            "mesh 2x2x2x2x2",
            "mesh 65535x65535x2",
            "mesh 0x4",
            "torus 4x0",
        ],
        &["blob 4x4", "mesh 4y4", "mesh -1x4", "mesh 70000x2", "mesh"],
    ),
    (
        "faults",
        &["(0 1)", "(0 1), (5 6)", "(1 0)"],
        &["(0 5)", "(0 1), (0 4)", "(0 1), (0 1)", "(0 9999)", "(0 0)"],
        &["1 2", "(1)", "(a b)", "(0 1),"],
    ),
    (
        "fault-count",
        &["1", "2", "3"],
        &["0", "50", "18446744073709551615"],
        &["lots", "-1"],
    ),
    (
        "fault-seed",
        &["1", "7"],
        &["0", "18446744073709551615"],
        &["x"],
    ),
    ("router", &["adaptive", "deterministic"], &[], &["fast"]),
    ("lookahead", &["true", "false"], &[], &["yes"]),
    (
        "vcs",
        &["4 1", "4 2", "2 1"],
        &["1 1", "4 0", "16 1", "0 0", "2 3"],
        &["4", "4 x"],
    ),
    (
        "path-selection",
        &["static-xy", "random", "min-mux", "lfu", "lru", "max-credit"],
        &[],
        &["best"],
    ),
    (
        "algorithm",
        &[
            "dimension-order",
            "duato",
            "north-last",
            "west-first",
            "negative-first",
            "up-down",
            "up-down-adaptive",
        ],
        &[],
        &["zigzag"],
    ),
    (
        "table",
        &[
            "full",
            "economical",
            "meta-rows",
            "interval",
            "meta-blocks 2x2",
        ],
        &[
            "meta-blocks 4x4",
            "meta-blocks 3x3",
            "meta-blocks 8x8",
            "meta-blocks 1x1x1",
            "meta-blocks 0x2",
        ],
        &["meta-blocks", "meta-blocks 2y2", "tiny"],
    ),
    (
        "pattern",
        &[
            "uniform",
            "transpose",
            "bit-reversal",
            "perfect-shuffle",
            "bit-complement",
            "tornado",
            "nearest-neighbor",
            "hotspot 3 0.2",
        ],
        &[
            "hotspot 0 1",
            "hotspot 9999 0.5",
            "hotspot 3 2.0",
            "hotspot 3 nan",
            "hotspot 3 -0.1",
            "hotspot 3 inf",
        ],
        &["hotspot 3", "hotspot x 0.2", "zipf"],
    ),
    (
        "workload",
        &[
            "synthetic exponential",
            "synthetic bernoulli",
            "synthetic periodic",
            "bursty 4 2",
            "trace ../../crates/traffic/tests/fixtures/small.trace",
        ],
        &[
            "bursty 1 1",
            "bursty 0 2",
            "bursty 4 0",
            "bursty 100 100",
            "bursty 4 nan",
            "bursty 4 1e-300",
            "trace missing.trace",
        ],
        &["synthetic poisson", "bursty 8", "trace"],
    ),
    (
        "load",
        &["0.1", "0.2", "0.35", "0.6", "1.5", "3"],
        &["0.01", "0", "-0.5", "nan", "inf", "1e30", "1e300"],
        &["heavy"],
    ),
    (
        "lengths",
        &["fixed 20", "fixed 5", "uniform 1 8", "bimodal 2 20 0.3"],
        &[
            "fixed 1",
            "uniform 5 5",
            "bimodal 1 2 0",
            "bimodal 1 2 1",
            "fixed 0",
            "uniform 0 0",
            "uniform 5 2",
            "bimodal 1 2 1.5",
            "bimodal 0 5 0.5",
            "bimodal 1 2 nan",
            "bimodal 1 2 -0.5",
        ],
        &["fixed many", "fixed -3", "uniform 5"],
    ),
    (
        "warmup",
        &["1", "5", "20"],
        &["0", "18446744073709551615"],
        &["-1", "x"],
    ),
    ("measure", &["10", "20", "30"], &["1", "0"], &["-1", "x"]),
    (
        "seed",
        &["1", "42"],
        &["0", "18446744073709551615"],
        &["18446744073709551616"],
    ),
];

/// Whole lines that stress the line grammar rather than a value, or
/// clash with another key.
const RAW_LINES: &[&str] = &[
    "just words",
    "load =",
    "= 0.2",
    "bogus-key = 3",
    "# a comment",
    "",
    "   \t",
    "measure = 10 = 20",
    "topology=mesh 4x4 # trailing comment",
    "fault-seed = 3",
    "faults = (0 1)",
];

/// Keys most specs set, so that many cases reach the run check (absent
/// `warmup` / `measure` default to a 22k-message profile).
const LIKELY: &[&str] = &["topology", "warmup", "measure"];

/// Assembles one spec text from a stream of random draws. Each line takes
/// a boundary value one time in four. Most specs are well-formed, with at
/// most one way of giving faults; one in eight carries a garbage value,
/// one in eight a stray line, and one in eight a duplicate key.
fn spec_text(entropy: &[u64]) -> String {
    let mut draws = entropy.iter().copied();
    let mut next = move || draws.next().unwrap_or(0);
    let mut lines = Vec::new();
    let mut garbage = Vec::new();
    // Explicit links, a random count, a random count and seed, or (five
    // times in eight) a perfect network.
    let faults = next() % 8;
    for &(key, valid, boundary, bad) in POOLS {
        let roll = next();
        let wanted = match key {
            "faults" => faults == 0,
            "fault-count" => faults == 1 || faults == 2,
            "fault-seed" => faults == 2,
            _ if LIKELY.contains(&key) => roll % 10 < 9,
            _ => roll % 10 < 3,
        };
        if wanted {
            let pick = (roll / 10) as usize;
            let values = if pick.is_multiple_of(4) && !boundary.is_empty() {
                boundary
            } else {
                valid
            };
            lines.push(format!("{key} = {}", values[pick / 4 % values.len()]));
            garbage.push(format!("{key} = {}", bad[pick % bad.len()]));
        }
    }
    let roll = next();
    let pick = (roll / 8) as usize;
    match roll % 8 {
        0 if !lines.is_empty() => {
            let i = pick % lines.len();
            lines[i] = garbage[i].clone();
        }
        1 => lines.push(RAW_LINES[pick % RAW_LINES.len()].to_string()),
        2 if !lines.is_empty() => lines.push(lines[pick % lines.len()].clone()),
        _ => {}
    }
    for i in (1..lines.len()).rev() {
        lines.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    lines.join("\n")
}

/// Whether a built spec is small enough to run in a property test.
fn runnable(spec: &ScenarioSpec) -> bool {
    spec.shape.iter().all(|&k| k <= 4)
        && spec.shape.iter().map(|&k| k as usize).product::<usize>() <= 16
        && spec.warmup.saturating_add(spec.measure) <= 50
}

fn fail(what: &str, text: &str) -> TestCaseError {
    TestCaseError::fail(format!("{what} on spec:\n{text}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_front_door_never_panics_and_rejects_with_typed_errors(
        entropy in prop::collection::vec(any::<u64>(), 40..41),
    ) {
        let text = spec_text(&entropy);
        let spec = match catch_unwind(|| ScenarioSpec::parse(&text)) {
            Err(_) => return Err(fail("parse panicked", &text)),
            Ok(Ok(spec)) => spec,
            Ok(Err(SpecError::Parse { line, message })) => {
                let lines = text.lines().count();
                prop_assert!(
                    (1..=lines).contains(&line),
                    "parse error at line {line} of a {lines}-line spec ({message}):\n{text}"
                );
                return Ok(());
            }
            Ok(Err(e)) => return Err(fail(&format!("parse rejected with {e:?}"), &text)),
        };

        // Debug equality also holds for NaN fields, which `==` does not.
        let formatted = spec.format();
        let again = ScenarioSpec::parse(&formatted)
            .map_err(|e| fail(&format!("formatted spec fails to parse ({e}): {formatted}"), &text))?;
        prop_assert_eq!(format!("{again:?}"), format!("{spec:?}"), "round trip of:\n{}", text);

        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
        let scenario = match catch_unwind(AssertUnwindSafe(|| spec.to_scenario(&base))) {
            Err(_) => return Err(fail("to_scenario panicked", &text)),
            Ok(Ok(scenario)) => scenario,
            Ok(Err(SpecError::Scenario(_))) => return Ok(()),
            Ok(Err(SpecError::Trace(_))) if matches!(spec.workload, WorkloadSpec::Trace(_)) => {
                return Ok(());
            }
            Ok(Err(e)) => return Err(fail(&format!("to_scenario rejected with {e:?}"), &text)),
        };
        if runnable(&spec) {
            prop_assert!(
                catch_unwind(AssertUnwindSafe(|| scenario.run())).is_ok(),
                "run panicked on spec:\n{}",
                text
            );
        }
    }
}
