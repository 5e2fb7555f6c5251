//! The Scenario API — the one way to configure and run a simulation point.
//!
//! A [`Scenario`] is a *validated* description of one simulation point:
//! topology, router microarchitecture, routing algorithm, table scheme,
//! workload, and run policy. [`ScenarioBuilder`] composes the layers with
//! infallible setters and [`ScenarioBuilder::build`] returns every
//! inconsistency as a typed [`ScenarioError`] instead of a mid-run panic.
//! The result runs directly, or *compiles* ([`Scenario::compile`]) to a
//! [`SimConfig`], the plain-data form the cycle loop and the
//! [`SweepGrid`](crate::SweepGrid) execute, which nothing else builds.
//!
//! # Example
//!
//! ```
//! use lapses_network::scenario::Scenario;
//! use lapses_network::{Algorithm, Pattern};
//!
//! let scenario = Scenario::builder()
//!     .mesh_2d(8, 8)
//!     .algorithm(Algorithm::Duato)
//!     .pattern(Pattern::Transpose)
//!     .load(0.15)
//!     .message_counts(200, 1_000)
//!     .build()
//!     .unwrap();
//! let result = scenario.run();
//! assert!(!result.saturated);
//! ```

use crate::experiment::{
    router_escape_subclasses, Algorithm, ArrivalKind, FaultsConfig, Pattern, SimConfig, TableKind,
    WorkloadKind,
};
use crate::stats::SimResult;
use lapses_core::psh::PathSelection;
use lapses_core::router::MAX_VC_SLOTS;
use lapses_core::RouterConfig;
use lapses_topology::{FaultError, FaultyMesh, Mesh, ShapeError};
use lapses_traffic::workload::OnOffWorkload;
use lapses_traffic::PatternError;
use lapses_traffic::{Generator, LengthDistribution, Trace};
use std::fmt;
use std::sync::Arc;

/// The smallest arrival gap, in cycles, that validation admits: the mean
/// gap a synthetic or bursty load implies, and a bursty source's peak gap.
///
/// A source polled at a cycle drains every arrival due by then, one loop
/// pass and one message per arrival, so a gap of `g` cycles offers `1 / g`
/// messages per node per cycle. At 1/16 that is 16 messages per node in
/// one cycle — the backlog at which a run is declared saturated — so any
/// smaller gap saturates from its first cycles and only multiplies the
/// work of reaching that verdict. Far below it the polls never return:
/// the arrival timeline is an `f64`, and once the gap drops under its
/// rounding step (about 1e-9 cycles at ten million cycles) adding the gap
/// no longer moves the timeline forward.
pub const MIN_ARRIVAL_GAP: f64 = 1.0 / 16.0;

/// Why a scenario failed to validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The normalized load must be positive and finite.
    InvalidLoad(f64),
    /// The measurement window must inject at least one message.
    EmptyMeasurement,
    /// Virtual-channel counts are inconsistent.
    VcConfig {
        /// VCs per port.
        total: usize,
        /// Escape VCs requested.
        escape: usize,
    },
    /// The router has more (port, VC) slots than the cycle loop's
    /// occupancy masks can track ([`MAX_VC_SLOTS`]).
    VcBudget {
        /// Ports per router (local + two per dimension).
        ports: usize,
        /// VCs per port.
        vcs: usize,
    },
    /// The routing algorithm needs more escape VCs than the router has.
    EscapeVcs {
        /// The algorithm.
        algorithm: Algorithm,
        /// Escape VCs (dateline subclasses) the algorithm needs.
        needed: usize,
        /// Escape VCs the router provides.
        have: usize,
    },
    /// The routing algorithm does not support the topology.
    AlgorithmTopology {
        /// The algorithm.
        algorithm: Algorithm,
        /// Rendered topology ("8x8 torus").
        topology: String,
    },
    /// Bursty parameters leave no room for an OFF silence at this load.
    BurstParams {
        /// Mean messages per burst.
        burst_len: u32,
        /// Intra-burst gap in cycles.
        peak_gap: f64,
        /// Target long-run mean gap implied by the load.
        mean_gap: f64,
    },
    /// Bernoulli arrivals need a mean gap of at least one cycle; the
    /// offered load is too high for one-trial-per-cycle arrivals.
    BernoulliGap {
        /// The implied mean gap.
        mean_gap: f64,
    },
    /// A mean gap implied by the load, or a bursty peak gap, is below
    /// [`MIN_ARRIVAL_GAP`].
    ArrivalGap {
        /// The offending gap, in cycles.
        gap: f64,
    },
    /// The trace was recorded for a different node count.
    TraceNodeCount {
        /// Nodes the trace was validated against.
        trace_nodes: u32,
        /// Nodes in the scenario's topology.
        mesh_nodes: usize,
    },
    /// The trace has no events left after warm-up.
    TraceTooShort {
        /// Events in the trace.
        events: usize,
        /// Warm-up injections requested.
        warmup: u64,
    },
    /// A sweep axis was applied to a scenario that lacks the dimension
    /// (e.g. a burst-length axis on a non-bursty workload).
    AxisMismatch {
        /// The axis name.
        axis: &'static str,
        /// The workload the scenario actually has.
        workload: &'static str,
    },
    /// A sweep axis's values must be strictly ascending (the saturation
    /// cut-off truncates a series by position).
    AxisNotAscending {
        /// The axis name.
        axis: &'static str,
    },
    /// The fault set is invalid on this topology: a pair that names no
    /// link, a duplicate, a set that disconnects the network, or a random
    /// count that cannot be placed.
    Faults(FaultError),
    /// Dead links were configured with an algorithm that cannot route
    /// around them — only the up*/down* family is fault-tolerant.
    FaultsNeedUpDown {
        /// The configured algorithm.
        algorithm: Algorithm,
    },
    /// Irregular (faulty or up*/down*) routing with a table scheme that
    /// has no irregular-topology programming (the meta-tables).
    FaultTable {
        /// The table scheme's name.
        table: &'static str,
    },
    /// The fault-count sweep axis needs a scenario whose faults are
    /// seeded-random (`FaultsConfig::Random`), so every count resolves
    /// deterministically.
    AxisNeedsRandomFaults,
    /// The topology shape is invalid (e.g. a 2-wide torus).
    Topology(ShapeError),
    /// The message-length distribution is invalid (the reason given).
    Lengths(&'static str),
    /// The traffic pattern cannot drive the topology.
    Pattern(PatternError),
    /// The table scheme cannot be programmed for the topology.
    TableTopology {
        /// The table scheme's name.
        table: &'static str,
        /// Why not.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::InvalidLoad(load) => {
                write!(f, "normalized load must be positive and finite, got {load}")
            }
            ScenarioError::EmptyMeasurement => {
                write!(f, "measurement window must inject at least one message")
            }
            ScenarioError::VcConfig { total, escape } => write!(
                f,
                "VC configuration is inconsistent: {escape} escape VC(s) out of {total} total"
            ),
            ScenarioError::VcBudget { ports, vcs } => write!(
                f,
                "{ports} ports x {vcs} VCs = {} (port, VC) slots exceeds the router's budget of {MAX_VC_SLOTS}",
                ports * vcs
            ),
            ScenarioError::EscapeVcs {
                algorithm,
                needed,
                have,
            } => write!(
                f,
                "{} routing needs at least {needed} escape VC(s) for deadlock freedom, router has {have}",
                algorithm.name()
            ),
            ScenarioError::AlgorithmTopology {
                algorithm,
                topology,
            } => write!(
                f,
                "{} routing does not support a {topology}",
                algorithm.name()
            ),
            ScenarioError::BurstParams {
                burst_len,
                peak_gap,
                mean_gap,
            } => write!(
                f,
                "bursty workload (burst {burst_len}, peak gap {peak_gap}) leaves no OFF \
                 silence at mean gap {mean_gap:.1}"
            ),
            ScenarioError::BernoulliGap { mean_gap } => write!(
                f,
                "Bernoulli arrivals need a mean gap of at least 1 cycle, load implies {mean_gap:.3}"
            ),
            ScenarioError::ArrivalGap { gap } => write!(
                f,
                "arrival gap of {gap:e} cycles is below the floor of {MIN_ARRIVAL_GAP} cycles"
            ),
            ScenarioError::TraceNodeCount {
                trace_nodes,
                mesh_nodes,
            } => write!(
                f,
                "trace was recorded for {trace_nodes} nodes but the topology has {mesh_nodes}"
            ),
            ScenarioError::TraceTooShort { events, warmup } => write!(
                f,
                "trace has {events} events, all consumed by the {warmup}-message warm-up"
            ),
            ScenarioError::AxisMismatch { axis, workload } => write!(
                f,
                "{axis} axis cannot be applied to a {workload} workload"
            ),
            ScenarioError::AxisNotAscending { axis } => {
                write!(f, "{axis} axis values must be strictly ascending")
            }
            ScenarioError::Faults(e) => write!(f, "{e}"),
            ScenarioError::FaultsNeedUpDown { algorithm } => write!(
                f,
                "{} routing cannot route around dead links; use up-down or up-down-adaptive",
                algorithm.name()
            ),
            ScenarioError::FaultTable { table } => write!(
                f,
                "{table} tables cannot be programmed for irregular (faulty) topologies"
            ),
            ScenarioError::AxisNeedsRandomFaults => write!(
                f,
                "fault-count axis needs seeded random faults (random_faults)"
            ),
            ScenarioError::Topology(e) => write!(f, "invalid topology: {e}"),
            ScenarioError::Lengths(reason) => write!(f, "invalid message lengths: {reason}"),
            ScenarioError::Pattern(e) => write!(f, "invalid traffic pattern: {e}"),
            ScenarioError::TableTopology { table, reason } => {
                write!(f, "{table} tables cannot be programmed here: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A validated simulation scenario; run it, or compile it to a
/// [`SimConfig`] for instrumentation.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: SimConfig,
}

impl Scenario {
    /// Starts a builder at the paper's reference point: the adaptive
    /// PROUD router on a 16×16 mesh, uniform synthetic traffic at 0.2
    /// normalized load, and the rest of Table 2, with a fast measurement
    /// profile (2k warm-up, 20k measured messages).
    pub fn builder() -> ScenarioBuilder {
        let mesh = Mesh::mesh_2d(16, 16);
        ScenarioBuilder {
            config: SimConfig {
                backlog_limit: backlog_limit(&mesh),
                mesh,
                faults: FaultsConfig::None,
                router: RouterConfig::paper_adaptive(),
                algorithm: Algorithm::Duato,
                table: TableKind::Full,
                pattern: Pattern::Uniform,
                workload: WorkloadKind::default(),
                load: 0.2,
                lengths: LengthDistribution::PAPER_DEFAULT,
                warmup_msgs: 2_000,
                measure_msgs: 20_000,
                seed: 20260611,
                link_delay: 1,
                max_cycles: 10_000_000,
                stall_window: 20_000,
                active_scheduling: true,
                batched_delivery: true,
            },
            shape_error: None,
        }
    }

    /// The compiled configuration, borrowed.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Compiles the scenario to the internal experiment configuration —
    /// the form the cycle loop and the sweep runner execute. The compiled
    /// form is plain data; modifying it bypasses scenario validation.
    pub fn compile(&self) -> SimConfig {
        self.config.clone()
    }

    /// Runs the scenario to completion (or saturation cut-off).
    pub fn run(&self) -> SimResult {
        self.config.run()
    }

    /// Runs the scenario while recording every injected message as a
    /// [`Trace`] event. Replayed with the same message counts, the capture
    /// is bit-identical to the run: each node is polled at most once per
    /// cycle and drains every due message in that poll.
    pub fn run_capturing(&self) -> (SimResult, Trace) {
        self.config.run_capturing()
    }

    /// Reopens the scenario for modification; `build()` re-validates.
    pub fn to_builder(&self) -> ScenarioBuilder {
        ScenarioBuilder {
            config: self.config.clone(),
            shape_error: None,
        }
    }
}

/// Composes a [`Scenario`] layer by layer; every setter is infallible and
/// [`ScenarioBuilder::build`] validates the whole composition at once.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config: SimConfig,
    /// Why the last topology setter's shape was invalid, if it was.
    shape_error: Option<ShapeError>,
}

impl ScenarioBuilder {
    // --- topology ---

    /// Sets the topology to a `width × height` mesh. A zero extent makes
    /// [`ScenarioBuilder::build`] return [`ScenarioError::Topology`].
    pub fn mesh_2d(self, width: u16, height: u16) -> Self {
        self.shape(&[width, height], false)
    }

    /// Sets the topology to a `width × height` torus (wrap links; Duato
    /// escape needs two dateline subclasses per dimension crossing). An
    /// extent below 3 makes [`ScenarioBuilder::build`] return
    /// [`ScenarioError::Topology`].
    pub fn torus_2d(self, width: u16, height: u16) -> Self {
        self.shape(&[width, height], true)
    }

    /// Sets a mesh or torus of the given shape, or records why the shape
    /// is invalid for `build` to report.
    fn shape(mut self, shape: &[u16], torus: bool) -> Self {
        match Mesh::try_new(shape, torus) {
            Ok(mesh) => self.topology(mesh),
            Err(e) => {
                self.shape_error = Some(e);
                self
            }
        }
    }

    /// Sets an arbitrary topology (any dimensionality, mesh or torus).
    /// The saturation backlog limit rescales with the node count.
    pub fn topology(mut self, mesh: Mesh) -> Self {
        self.config.backlog_limit = backlog_limit(&mesh);
        self.config.mesh = mesh;
        self.shape_error = None;
        self
    }

    /// Kills the given links (endpoint node-id pairs, order-insensitive).
    /// Validation checks every pair names a real link and that the
    /// network stays connected; faulty scenarios need an up*/down*
    /// algorithm.
    pub fn faults(mut self, links: &[(u32, u32)]) -> Self {
        self.config.faults = if links.is_empty() {
            FaultsConfig::None
        } else {
            FaultsConfig::Links(links.to_vec())
        };
        self
    }

    /// Kills `count` random links, drawn deterministically from `seed`
    /// and guaranteed connected (see
    /// [`FaultsConfig::Random`](crate::experiment::FaultsConfig)).
    pub fn random_faults(mut self, count: usize, seed: u64) -> Self {
        self.config.faults = FaultsConfig::Random { count, seed };
        self
    }

    // --- router ---

    /// Replaces the whole router microarchitecture.
    pub fn router(mut self, router: RouterConfig) -> Self {
        self.config.router = router;
        self
    }

    /// Switches look-ahead routing (LA-PROUD) on or off.
    pub fn lookahead(mut self, lookahead: bool) -> Self {
        self.config.router = self.config.router.with_lookahead(lookahead);
        self
    }

    /// Sets total and escape VC counts per port.
    pub fn vcs(mut self, total: usize, escape: usize) -> Self {
        self.config.router.vcs_per_port = total;
        self.config.router.escape_vcs = escape;
        self
    }

    /// Sets the path-selection heuristic.
    pub fn path_selection(mut self, psh: PathSelection) -> Self {
        self.config.router.path_selection = psh;
        self
    }

    /// Sets the table-lookup latency in cycles.
    pub fn table_lookup_cycles(mut self, cycles: u32) -> Self {
        self.config.router = self.config.router.with_table_lookup_cycles(cycles);
        self
    }

    // --- routing ---

    /// Sets the routing algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the table storage scheme.
    pub fn table(mut self, table: TableKind) -> Self {
        self.config.table = table;
        self
    }

    // --- workload ---

    /// Sets the traffic pattern (read by the synthetic and bursty
    /// sources).
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.config.pattern = pattern;
        self
    }

    /// Sets the message source.
    pub fn workload(mut self, workload: WorkloadKind) -> Self {
        self.config.workload = workload;
        self
    }

    /// Selects the synthetic source with the given arrival process.
    pub fn arrivals(self, arrivals: ArrivalKind) -> Self {
        self.workload(WorkloadKind::Synthetic { arrivals })
    }

    /// Selects the ON/OFF bursty source.
    pub fn bursty(self, burst_len: u32, peak_gap: f64) -> Self {
        self.workload(WorkloadKind::Bursty {
            burst_len,
            peak_gap,
        })
    }

    /// Selects trace replay (the trace carries its own timing; `load` is
    /// ignored).
    pub fn trace(self, trace: Arc<Trace>) -> Self {
        self.workload(WorkloadKind::Trace(trace))
    }

    /// Sets the normalized offered load (validated at build).
    pub fn load(mut self, load: f64) -> Self {
        self.config.load = load;
        self
    }

    /// Sets the message length distribution.
    pub fn lengths(mut self, lengths: LengthDistribution) -> Self {
        self.config.lengths = lengths;
        self
    }

    // --- run policy ---

    /// Sets warm-up and measured injection counts.
    pub fn message_counts(mut self, warmup: u64, measure: u64) -> Self {
        self.config.warmup_msgs = warmup;
        self.config.measure_msgs = measure;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the link traversal delay in cycles.
    pub fn link_delay(mut self, delay: u64) -> Self {
        self.config.link_delay = delay;
        self
    }

    /// Sets the hard cycle cap.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.config.max_cycles = max_cycles;
        self
    }

    /// Validates the composition and produces a runnable [`Scenario`].
    ///
    /// Checks, in order: the topology shape, load sanity, measurement
    /// window, the synthetic sources' message lengths and pattern (which
    /// must fit the topology and inject from some node), VC counts and the
    /// router's (port, VC) slot budget, algorithm/topology compatibility,
    /// faults, the table scheme against the topology, escape-VC
    /// sufficiency for deadlock freedom, and workload-specific
    /// consistency (Bernoulli gap ≥ 1 cycle, bursty OFF-silence
    /// positivity, arrival gaps of at least [`MIN_ARRIVAL_GAP`], trace
    /// node count).
    /// For trace workloads the measured-injection count is clamped to the
    /// events the trace actually holds, so a trace run ends exactly when
    /// the replay drains.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if let Some(e) = self.shape_error {
            return Err(ScenarioError::Topology(e));
        }
        let mut config = self.config;

        if !(config.load > 0.0 && config.load.is_finite()) {
            return Err(ScenarioError::InvalidLoad(config.load));
        }
        if config.measure_msgs == 0 {
            return Err(ScenarioError::EmptyMeasurement);
        }
        // Trace replay carries its own lengths and destinations.
        if !matches!(config.workload, WorkloadKind::Trace(_)) {
            config.lengths.validate().map_err(ScenarioError::Lengths)?;
            let pattern = config.pattern.try_build().map_err(ScenarioError::Pattern)?;
            pattern
                .check(&config.mesh)
                .map_err(ScenarioError::Pattern)?;
            if pattern.injecting_fraction(&config.mesh) == 0.0 {
                return Err(ScenarioError::Pattern(PatternError::NoTraffic));
            }
        }

        let router = &config.router;
        if router.vcs_per_port == 0 || router.escape_vcs > router.vcs_per_port {
            return Err(ScenarioError::VcConfig {
                total: router.vcs_per_port,
                escape: router.escape_vcs,
            });
        }
        let ports = config.mesh.ports_per_router();
        if ports * router.vcs_per_port > MAX_VC_SLOTS {
            return Err(ScenarioError::VcBudget {
                ports,
                vcs: router.vcs_per_port,
            });
        }

        if config.algorithm.requires_2d_mesh()
            && (config.mesh.dims() != 2 || config.mesh.is_torus())
        {
            return Err(ScenarioError::AlgorithmTopology {
                algorithm: config.algorithm,
                topology: config.mesh.to_string(),
            });
        }

        // Every fault problem is a typed error, and constructing the
        // faulty-mesh view proves connectivity. Only the up*/down* family
        // routes around dead links, and the meta-tables have no
        // irregular-topology programming.
        let faults = config
            .faults
            .resolve(&config.mesh)
            .map_err(ScenarioError::Faults)?;
        if !faults.is_empty() && !config.algorithm.fault_tolerant() {
            return Err(ScenarioError::FaultsNeedUpDown {
                algorithm: config.algorithm,
            });
        }
        if (config.algorithm.fault_tolerant() || !faults.is_empty())
            && !config.table.supports_faults()
        {
            return Err(ScenarioError::FaultTable {
                table: config.table.name(),
            });
        }
        if config.algorithm.fault_tolerant() {
            FaultyMesh::new(config.mesh.clone(), faults).map_err(ScenarioError::Faults)?;
        } else {
            config
                .table
                .check(&config.mesh)
                .map_err(|reason| ScenarioError::TableTopology {
                    table: config.table.name(),
                    reason,
                })?;
        }
        router_escape_subclasses(config.algorithm, &config.mesh, router.escape_vcs)?;

        let mean_gap =
            |c: &SimConfig| Generator::mean_gap_for_load(&c.mesh, c.load, c.lengths.mean());
        let floor = |gap: f64| {
            if gap < MIN_ARRIVAL_GAP {
                Err(ScenarioError::ArrivalGap { gap })
            } else {
                Ok(())
            }
        };
        match &config.workload {
            WorkloadKind::Synthetic {
                arrivals: ArrivalKind::Bernoulli,
            } if mean_gap(&config) < 1.0 => {
                return Err(ScenarioError::BernoulliGap {
                    mean_gap: mean_gap(&config),
                });
            }
            WorkloadKind::Synthetic { .. } => floor(mean_gap(&config))?,
            WorkloadKind::Bursty {
                burst_len,
                peak_gap,
            } => {
                let mean_gap = mean_gap(&config);
                if OnOffWorkload::off_mean_for(*burst_len, *peak_gap, mean_gap).is_none() {
                    return Err(ScenarioError::BurstParams {
                        burst_len: *burst_len,
                        peak_gap: *peak_gap,
                        mean_gap,
                    });
                }
                floor(peak_gap.min(mean_gap))?;
            }
            WorkloadKind::Trace(trace) => {
                if trace.node_count() as usize != config.mesh.node_count() {
                    return Err(ScenarioError::TraceNodeCount {
                        trace_nodes: trace.node_count(),
                        mesh_nodes: config.mesh.node_count(),
                    });
                }
                let events = trace.len() as u64;
                if events <= config.warmup_msgs {
                    return Err(ScenarioError::TraceTooShort {
                        events: trace.len(),
                        warmup: config.warmup_msgs,
                    });
                }
                config.measure_msgs = config.measure_msgs.min(events - config.warmup_msgs);
            }
        }

        Ok(Scenario { config })
    }
}

/// The aggregate NIC backlog that declares saturation: 16 messages per
/// node.
fn backlog_limit(mesh: &Mesh) -> u64 {
    16 * mesh.node_count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioBuilder {
        Scenario::builder().mesh_2d(4, 4).message_counts(50, 300)
    }

    fn tiny_trace(nodes: u32) -> Arc<Trace> {
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!("{} {} {} 5\n", i * 3, i % nodes, (i + 1) % nodes));
        }
        Arc::new(Trace::parse(&text, nodes).unwrap())
    }

    #[test]
    fn default_builder_is_the_paper_reference() {
        let s = Scenario::builder().build().unwrap();
        assert_eq!(s.config().mesh, Mesh::mesh_2d(16, 16));
        assert_eq!(s.config().router, RouterConfig::paper_adaptive());
        assert_eq!(s.config().seed, 20260611);
        assert_eq!(s.config().load, 0.2);
    }

    #[test]
    fn a_zero_mesh_extent_is_a_typed_error() {
        let err = Scenario::builder().mesh_2d(0, 4).build().unwrap_err();
        assert_eq!(err, ScenarioError::Topology(ShapeError::ZeroExtent));
        // A later valid topology replaces the invalid one.
        assert!(small().mesh_2d(0, 4).mesh_2d(4, 4).build().is_ok());
    }

    #[test]
    fn a_two_wide_torus_is_a_typed_error() {
        let err = Scenario::builder().torus_2d(2, 2).build().unwrap_err();
        assert_eq!(err, ScenarioError::Topology(ShapeError::TorusExtent(2)));
        assert!(err.to_string().contains("invalid topology"), "{err}");
    }

    #[test]
    fn invalid_load_is_rejected() {
        assert_eq!(
            small().load(0.0).build().unwrap_err(),
            ScenarioError::InvalidLoad(0.0)
        );
        assert!(matches!(
            small().load(f64::NAN).build().unwrap_err(),
            ScenarioError::InvalidLoad(_)
        ));
    }

    #[test]
    fn empty_measurement_is_rejected() {
        assert_eq!(
            small().message_counts(10, 0).build().unwrap_err(),
            ScenarioError::EmptyMeasurement
        );
    }

    #[test]
    fn escape_vc_shortage_is_an_error_not_a_panic() {
        let err = small().vcs(4, 0).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::EscapeVcs {
                algorithm: Algorithm::Duato,
                needed: 1,
                have: 0
            }
        );
        assert!(err.to_string().contains("deadlock freedom"));
    }

    #[test]
    fn vc_slots_beyond_the_router_budget_are_rejected() {
        // 2-D: 5 ports x 16 VCs = 80 slots.
        let err = small().vcs(16, 1).build().unwrap_err();
        assert_eq!(err, ScenarioError::VcBudget { ports: 5, vcs: 16 });
        assert!(err.to_string().contains("budget of 64"), "{err}");
        // 3-D: 7 ports x 9 VCs = 63 fits; x 10 = 70 does not.
        let cube = || small().topology(Mesh::mesh(&[3, 3, 3]));
        assert!(cube().vcs(9, 1).build().is_ok());
        assert_eq!(
            cube().vcs(10, 1).build().unwrap_err(),
            ScenarioError::VcBudget { ports: 7, vcs: 10 }
        );
    }

    #[test]
    fn torus_duato_needs_two_dateline_escapes() {
        let err = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::EscapeVcs {
                needed: 2,
                have: 1,
                ..
            }
        ));
        // Providing them fixes it.
        assert!(Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .vcs(4, 2)
            .build()
            .is_ok());
    }

    #[test]
    fn turn_models_reject_tori() {
        let err = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .vcs(4, 2)
            .algorithm(Algorithm::NorthLast)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::AlgorithmTopology { .. }));
        assert!(err.to_string().contains("torus"));
    }

    #[test]
    fn impossible_burst_parameters_are_rejected() {
        let err = small().load(0.5).bursty(100, 100.0).build().unwrap_err();
        assert!(matches!(err, ScenarioError::BurstParams { .. }));
        assert!(small().load(0.2).bursty(8, 2.0).build().is_ok());
    }

    #[test]
    fn bernoulli_rejects_sub_cycle_gaps() {
        // A huge load forces a mean gap below one cycle.
        let err = small()
            .load(100.0)
            .arrivals(ArrivalKind::Bernoulli)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BernoulliGap { .. }));
    }

    #[test]
    fn absurd_loads_and_peak_gaps_are_typed_errors() {
        let gap_error = |b: ScenarioBuilder| match b.build() {
            Err(ScenarioError::ArrivalGap { gap }) => assert!(gap < MIN_ARRIVAL_GAP),
            other => panic!("expected an arrival-gap error, got {other:?}"),
        };
        gap_error(small().load(1e300));
        gap_error(small().load(1e30));
        gap_error(small().load(1e30).arrivals(ArrivalKind::Periodic));
        gap_error(small().bursty(4, 1e-300));
        gap_error(small().bursty(1, 2.0).load(1e30));
        // The floor sits far past saturation: load 3 on 4x4 is a 6.7-cycle
        // gap, a 16x16 load of 30 still 2.7 cycles.
        assert!(small().load(3.0).build().is_ok());
        assert!(Scenario::builder().load(30.0).build().is_ok());
    }

    #[test]
    fn trace_node_count_must_match_topology() {
        let err = small().trace(tiny_trace(9)).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::TraceNodeCount {
                trace_nodes: 9,
                mesh_nodes: 16
            }
        );
    }

    #[test]
    fn trace_measure_clamps_to_replay_length() {
        let s = small()
            .trace(tiny_trace(16))
            .message_counts(5, 10_000)
            .build()
            .unwrap();
        assert_eq!(s.config().measure_msgs, 15); // 20 events - 5 warm-up
        let err = small()
            .trace(tiny_trace(16))
            .message_counts(20, 10)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TraceTooShort { .. }));
    }

    #[test]
    fn trace_scenario_runs_to_replay_exhaustion() {
        let r = small()
            .trace(tiny_trace(16))
            .message_counts(0, 10_000)
            .build()
            .unwrap()
            .run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 20);
        assert!(r.avg_latency > 0.0);
        assert!(r.flit_hops > 0);
    }

    #[test]
    fn bursty_scenario_runs() {
        let r = small().bursty(6, 2.0).load(0.15).build().unwrap().run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 300);
    }

    #[test]
    fn to_builder_round_trips() {
        let s = small().load(0.3).build().unwrap();
        let again = s.to_builder().build().unwrap();
        assert_eq!(s.config().load, again.config().load);
    }

    #[test]
    fn an_empty_fault_list_means_no_faults() {
        let s = small().faults(&[]).build().unwrap();
        assert_eq!(s.config().faults, FaultsConfig::None);
    }

    #[test]
    fn fault_on_a_non_link_is_typed() {
        use lapses_topology::FaultError;
        // (0, 5) is a diagonal on the 4x4 mesh: no link.
        let err = small()
            .faults(&[(0, 5)])
            .algorithm(Algorithm::UpDownAdaptive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::NotALink { .. })),
            "{err:?}"
        );
        assert!(err.to_string().contains("names no link"));
    }

    #[test]
    fn disconnecting_faults_are_typed() {
        use lapses_topology::FaultError;
        // Cut corner (0,0) off the 4x4 mesh.
        let err = small()
            .faults(&[(0, 1), (0, 4)])
            .algorithm(Algorithm::UpDownAdaptive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::Disconnected { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn faults_require_an_updown_algorithm() {
        let err = small().faults(&[(0, 1)]).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::FaultsNeedUpDown {
                algorithm: Algorithm::Duato
            }
        );
        assert!(err.to_string().contains("up-down"));
    }

    #[test]
    fn meta_tables_reject_irregular_routing() {
        let err = small()
            .faults(&[(0, 1)])
            .algorithm(Algorithm::UpDownAdaptive)
            .table(TableKind::MetaRows)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::FaultTable { table: "meta-rows" });
        // Up*/down* without faults still needs a fault-capable table.
        let err = small()
            .algorithm(Algorithm::UpDown)
            .table(TableKind::MetaBlocks(vec![2, 2]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::FaultTable {
                table: "meta-blocks"
            }
        );
    }

    #[test]
    fn torus_updown_needs_only_one_escape_vc() {
        // The torus×up*/down* rule: no dateline subclasses, so the default
        // single escape VC suffices — where Duato's dimension-order escape
        // needs two (torus_duato_needs_two_dateline_escapes above).
        let s = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .algorithm(Algorithm::UpDownAdaptive)
            .message_counts(50, 300)
            .build()
            .unwrap();
        assert_eq!(s.config().router.escape_vcs, 1);
        assert!(!s.run().saturated);
    }

    #[test]
    fn faulty_scenario_runs_to_drain() {
        let r = small()
            .random_faults(2, 5)
            .algorithm(Algorithm::UpDownAdaptive)
            .load(0.15)
            .build()
            .unwrap()
            .run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 300);
    }

    #[test]
    fn too_many_random_faults_is_typed() {
        use lapses_topology::FaultError;
        let err = small()
            .random_faults(50, 1)
            .algorithm(Algorithm::UpDownAdaptive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::TooManyFaults { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn scenario_capture_replays_bit_identically() {
        let s = small().load(0.2).build().unwrap();
        let (original, trace) = s.run_capturing();
        let replay = s.to_builder().trace(Arc::new(trace)).build().unwrap().run();
        assert_eq!(original, replay);
    }

    const SMALL: &str = "topology = mesh 4x4\nwarmup = 2\nmeasure = 20\n";

    fn small_point() -> ScenarioBuilder {
        Scenario::builder().mesh_2d(4, 4).message_counts(2, 20)
    }

    fn spec_error(text: &str) -> ScenarioError {
        use crate::spec::{ScenarioSpec, SpecError};
        match ScenarioSpec::parse(text)
            .unwrap()
            .to_scenario(std::path::Path::new("."))
        {
            Err(SpecError::Scenario(e)) => e,
            other => panic!("{text:?} gave {other:?}"),
        }
    }

    #[test]
    fn invalid_message_lengths_are_typed_errors() {
        for (lengths, text) in [
            (LengthDistribution::Fixed(0), "fixed 0"),
            (
                LengthDistribution::UniformRange { min: 0, max: 0 },
                "uniform 0 0",
            ),
            (
                LengthDistribution::UniformRange { min: 5, max: 2 },
                "uniform 5 2",
            ),
            (
                LengthDistribution::Bimodal {
                    short: 1,
                    long: 2,
                    long_fraction: 1.5,
                },
                "bimodal 1 2 1.5",
            ),
        ] {
            let err = small_point().lengths(lengths).build().unwrap_err();
            assert!(matches!(err, ScenarioError::Lengths(_)), "{text}: {err:?}");
            assert_eq!(spec_error(&format!("{SMALL}lengths = {text}")), err);
        }
    }

    #[test]
    fn out_of_range_hotspots_are_typed_errors() {
        use lapses_traffic::PatternError;
        let hotspot = |node, probability| Pattern::Hotspot { node, probability };
        let err = small_point()
            .pattern(hotspot(9999, 0.5))
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::Pattern(PatternError::HotspotNode(9999)));
        assert_eq!(
            spec_error(&format!("{SMALL}pattern = hotspot 9999 0.5")),
            err
        );
        let err = small_point().pattern(hotspot(3, 2.0)).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Pattern(PatternError::HotspotProbability(2.0))
        );
        assert_eq!(spec_error(&format!("{SMALL}pattern = hotspot 3 2.0")), err);
        let nan = |e: &ScenarioError| matches!(e, ScenarioError::Pattern(PatternError::HotspotProbability(p)) if p.is_nan());
        assert!(nan(&small_point()
            .pattern(hotspot(3, f64::NAN))
            .build()
            .unwrap_err()));
        assert!(nan(&spec_error(&format!("{SMALL}pattern = hotspot 3 nan"))));
    }

    #[test]
    fn untileable_meta_blocks_are_typed_errors() {
        for (shape, text) in [
            (vec![3, 3], "3x3"),
            (vec![8, 8], "8x8"),
            (vec![1, 1, 1], "1x1x1"),
        ] {
            let err = small_point()
                .table(TableKind::MetaBlocks(shape))
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ScenarioError::TableTopology {
                        table: "meta-blocks",
                        ..
                    }
                ),
                "{text}: {err:?}"
            );
            assert_eq!(
                spec_error(&format!("{SMALL}table = meta-blocks {text}")),
                err
            );
        }
    }

    #[test]
    fn single_node_topologies_are_typed_errors() {
        use lapses_traffic::PatternError;
        for (shape, text) in [(vec![1, 1], "1x1"), (vec![1], "1")] {
            let err = small_point()
                .topology(Mesh::mesh(&shape))
                .build()
                .unwrap_err();
            assert_eq!(err, ScenarioError::Pattern(PatternError::TooFewNodes(1)));
            assert_eq!(
                spec_error(&format!("topology = mesh {text}\nwarmup = 2\nmeasure = 20")),
                err
            );
        }
    }

    #[test]
    fn patterns_must_fit_the_topology_and_inject() {
        use lapses_traffic::PatternError;
        let on = |mesh: Mesh, pattern| small_point().topology(mesh).pattern(pattern).build();
        assert_eq!(
            on(Mesh::mesh_2d(3, 3), Pattern::Transpose).unwrap_err(),
            ScenarioError::Pattern(PatternError::NotPowerOfTwo(9))
        );
        assert_eq!(
            on(Mesh::mesh(&[8]), Pattern::Transpose).unwrap_err(),
            ScenarioError::Pattern(PatternError::OddAddressBits(3))
        );
        // Two nodes: bit reversal maps each to itself; a 2-wide row gives
        // tornado no hop.
        assert_eq!(
            on(Mesh::mesh(&[2]), Pattern::BitReversal).unwrap_err(),
            ScenarioError::Pattern(PatternError::NoTraffic)
        );
        assert_eq!(
            on(Mesh::mesh_2d(2, 4), Pattern::Tornado).unwrap_err(),
            ScenarioError::Pattern(PatternError::NoTraffic)
        );
        // Trace replay ignores the pattern.
        let trace = small_point()
            .pattern(Pattern::Transpose)
            .topology(Mesh::mesh_2d(3, 3))
            .trace(tiny_trace(9));
        assert!(trace.build().is_ok());
    }

    #[test]
    fn tables_that_need_a_mesh_reject_tori() {
        let torus = || small_point().topology(Mesh::torus_2d(4, 4)).vcs(4, 2);
        for table in [TableKind::Interval, TableKind::MetaRows] {
            let err = torus().table(table.clone()).build().unwrap_err();
            assert!(
                matches!(err, ScenarioError::TableTopology { .. }),
                "{table:?}: {err:?}"
            );
        }
        // Up*/down* programs interval runs on a torus.
        assert!(torus()
            .algorithm(Algorithm::UpDown)
            .table(TableKind::Interval)
            .build()
            .is_ok());
    }

    #[test]
    fn dimension_order_escape_vcs_must_cover_every_dateline() {
        // The router's escape VCs must cover both dateline subclasses even
        // though dimension-order routing needs none.
        let torus = || {
            small_point()
                .topology(Mesh::torus_2d(4, 4))
                .algorithm(Algorithm::DimensionOrder)
        };
        assert_eq!(
            torus().build().unwrap_err(),
            ScenarioError::EscapeVcs {
                algorithm: Algorithm::DimensionOrder,
                needed: 2,
                have: 1
            }
        );
        assert!(!torus().vcs(4, 2).build().unwrap().run().saturated);
    }

    #[test]
    fn huge_random_fault_counts_are_typed() {
        let err = small_point()
            .algorithm(Algorithm::UpDown)
            .random_faults(usize::MAX, 1)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::TooManyFaults { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn an_empty_random_fault_draw_takes_the_classic_path() {
        // Meta-tables have no faulty programming, and need none here.
        let r = small_point()
            .random_faults(0, 9)
            .table(TableKind::MetaRows)
            .build()
            .unwrap()
            .run();
        assert!(!r.saturated);
    }
}
