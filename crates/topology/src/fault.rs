//! Faulty-link topologies: dead-link sets and the faulty-mesh view.
//!
//! The paper sells programmable routing tables precisely because they can
//! encode routing functions beyond dimension-order — including routing
//! *around broken links* (§2.3, Fig. 7). This module supplies the topology
//! side of that story:
//!
//! * [`FaultSet`] — a validated set of dead **bidirectional** links,
//!   identified by their endpoint pair (a node pair names at most one link
//!   in every mesh and torus this crate can build, since torus extents are
//!   at least 3). Explicit sets are checked link by link; random sets
//!   ([`FaultSet::random`]) are drawn deterministically from a seed and
//!   never disconnect the network.
//! * [`FaultyMesh`] — a [`Mesh`] plus a [`FaultSet`], offering the same
//!   neighbor / alive-port / distance / productive-port surface the routing
//!   and table-programming layers use, but over the *surviving* links only.
//!   Construction rejects fault sets that partition the network
//!   ([`FaultError::Disconnected`]).
//!
//! Faults never touch the simulator's hot path: a dead link still exists
//! physically, it simply never appears in any table entry or candidate
//! mask, so no flit is ever routed over it.
//!
//! # Example
//!
//! ```
//! use lapses_topology::{FaultSet, FaultyMesh, Mesh, NodeId};
//!
//! let mesh = Mesh::mesh_2d(4, 4);
//! // Kill the link between (1,1) and (2,1).
//! let faults = FaultSet::new(&mesh, &[(NodeId(5), NodeId(6))]).unwrap();
//! let fmesh = FaultyMesh::new(mesh, faults).unwrap();
//! // The detour costs two extra hops.
//! assert_eq!(fmesh.distance(NodeId(5), NodeId(6)), 3);
//! ```

use crate::mesh::Mesh;
use crate::port::{Direction, Port, PortSet};
use crate::NodeId;
use lapses_sim::SimRng;
use std::fmt;

/// Why a fault set (or a faulty mesh) failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The named node pair is not connected by a link of the topology
    /// (non-adjacent nodes, an out-of-range id, or a self-pair).
    NotALink {
        /// First endpoint as given.
        a: NodeId,
        /// Second endpoint as given.
        b: NodeId,
    },
    /// The same link was listed twice.
    DuplicateLink {
        /// First endpoint (normalized order).
        a: NodeId,
        /// Second endpoint (normalized order).
        b: NodeId,
    },
    /// Removing the faulty links partitions the network.
    Disconnected {
        /// Nodes reachable from node 0 over surviving links.
        reachable: usize,
        /// Total nodes in the topology.
        nodes: usize,
    },
    /// A random draw could not place the requested number of faults
    /// without disconnecting the network.
    TooManyFaults {
        /// Faults requested.
        requested: usize,
        /// Faults that could be placed.
        placed: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NotALink { a, b } => {
                write!(f, "fault ({a}, {b}) names no link of the topology")
            }
            FaultError::DuplicateLink { a, b } => {
                write!(f, "fault ({a}, {b}) is listed more than once")
            }
            FaultError::Disconnected { reachable, nodes } => write!(
                f,
                "fault set disconnects the network ({reachable} of {nodes} nodes reachable)"
            ),
            FaultError::TooManyFaults { requested, placed } => write!(
                f,
                "cannot place {requested} faults without disconnecting the network \
                 (managed {placed})"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// A validated set of dead bidirectional links.
///
/// Stored as normalized `(min, max)` endpoint pairs in ascending order, so
/// equal sets compare equal regardless of how they were written.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSet {
    links: Vec<(NodeId, NodeId)>,
}

impl FaultSet {
    /// The fault-free set.
    pub fn empty() -> FaultSet {
        FaultSet::default()
    }

    /// Validates a list of dead links against a topology: every pair must
    /// name an existing link, and no link may be listed twice. Endpoint
    /// order within a pair does not matter.
    pub fn new(mesh: &Mesh, links: &[(NodeId, NodeId)]) -> Result<FaultSet, FaultError> {
        let mut normalized = Vec::with_capacity(links.len());
        for &(a, b) in links {
            if !are_linked(mesh, a, b) {
                return Err(FaultError::NotALink { a, b });
            }
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        for w in normalized.windows(2) {
            if w[0] == w[1] {
                return Err(FaultError::DuplicateLink {
                    a: w[0].0,
                    b: w[0].1,
                });
            }
        }
        Ok(FaultSet { links: normalized })
    }

    /// Draws `count` dead links deterministically from `seed`, guaranteed
    /// to leave the network connected: candidate links are visited in a
    /// seeded Fisher–Yates order and a link is killed only if the network
    /// stays connected without it. The same `(mesh, count, seed)` triple
    /// always yields the same set — sweep reports built from random fault
    /// sets stay bit-identical across thread counts.
    pub fn random(mesh: &Mesh, count: usize, seed: u64) -> Result<FaultSet, FaultError> {
        let mut candidates = all_links(mesh);
        let mut rng = SimRng::from_seed(lapses_sim::rng::mix64(seed ^ 0xFA_017_5E7));
        // Fisher–Yates over the candidate order.
        for i in (1..candidates.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            candidates.swap(i, j);
        }
        let mut chosen = Vec::with_capacity(count.min(candidates.len()));
        for link in candidates {
            if chosen.len() == count {
                break;
            }
            chosen.push(link);
            let trial = FaultSet {
                links: {
                    let mut v = chosen.clone();
                    v.sort_unstable();
                    v
                },
            };
            if !is_connected(mesh, &trial) {
                chosen.pop();
            }
        }
        if chosen.len() < count {
            return Err(FaultError::TooManyFaults {
                requested: count,
                placed: chosen.len(),
            });
        }
        chosen.sort_unstable();
        Ok(FaultSet { links: chosen })
    }

    /// Number of dead links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the set is empty (a perfect network).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The dead links as normalized `(min, max)` endpoint pairs, ascending.
    pub fn links(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }

    /// Whether the link between `a` and `b` is dead (order-insensitive).
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.links.binary_search(&(a.min(b), a.max(b))).is_ok()
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({a}, {b})")?;
        }
        write!(f, "}}")
    }
}

/// Whether `a` and `b` are joined by a link of `mesh`.
fn are_linked(mesh: &Mesh, a: NodeId, b: NodeId) -> bool {
    if a == b || a.index() >= mesh.node_count() || b.index() >= mesh.node_count() {
        return false;
    }
    (0..mesh.dims())
        .flat_map(|d| [Direction::plus(d), Direction::minus(d)])
        .any(|dir| mesh.neighbor(a, dir) == Some(b))
}

/// Every link of the topology as a normalized endpoint pair, ascending.
fn all_links(mesh: &Mesh) -> Vec<(NodeId, NodeId)> {
    let mut links = Vec::new();
    for node in mesh.nodes() {
        for dim in 0..mesh.dims() {
            for dir in [Direction::plus(dim), Direction::minus(dim)] {
                if let Some(nb) = mesh.neighbor(node, dir) {
                    if node < nb {
                        links.push((node, nb));
                    }
                }
            }
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

/// BFS connectivity over the surviving links, straight from the mesh:
/// [`FaultSet::random`] asks once per candidate fault, before any
/// [`FaultyMesh`] exists.
fn is_connected(mesh: &Mesh, faults: &FaultSet) -> bool {
    let n = mesh.node_count();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([NodeId(0)]);
    seen[0] = true;
    let mut count = 1;
    while let Some(node) = queue.pop_front() {
        for dim in 0..mesh.dims() {
            for dir in [Direction::plus(dim), Direction::minus(dim)] {
                let Some(nb) = mesh.neighbor(node, dir) else {
                    continue;
                };
                if faults.contains(node, nb) || seen[nb.index()] {
                    continue;
                }
                seen[nb.index()] = true;
                count += 1;
                queue.push_back(nb);
            }
        }
    }
    count == n
}

/// A mesh or torus with a set of dead links: the topology surface the
/// fault-tolerant routing and table-programming layers consume.
///
/// Construction asks the mesh for each node's neighbors once, building a
/// flat adjacency table — `links[node * ports + port]`, the neighbor
/// behind every direction port (or none at a mesh edge) — and a per-node
/// [`PortSet`] of the ports whose link survives. Every later query is an
/// array load: [`FaultyMesh::neighbor`], [`FaultyMesh::is_dead`],
/// [`FaultyMesh::alive_ports`] and [`FaultyMesh::alive_links`] read the
/// two tables, and all-pairs distances over the surviving links are one
/// BFS per node over them, so [`FaultyMesh::distance`] is one load and
/// [`FaultyMesh::productive_ports`] one load per surviving port.
///
/// The set-up passes built on top — the up*/down* compile and the table
/// programs — are a fixed number of BFS passes or node-pair scans, each
/// step of which reads these tables instead of decoding coordinates.
#[derive(Debug, Clone)]
pub struct FaultyMesh {
    mesh: Mesh,
    faults: FaultSet,
    /// Flattened `links[node * ports + port]` (`ports` per router, local
    /// port included): the neighbor behind each direction port, dead or
    /// alive; [`NO_LINK`] at mesh edges and for the local port.
    links: Vec<u32>,
    /// Per node: the direction ports whose link exists and survives.
    alive: Vec<PortSet>,
    /// Flattened `dist[a * n + b]` over surviving links.
    dist: Vec<u32>,
}

/// The `links` sentinel for a port with no link behind it.
const NO_LINK: u32 = u32::MAX;

impl FaultyMesh {
    /// Builds the faulty view, re-validating the fault set against this
    /// mesh and rejecting sets that disconnect it.
    pub fn new(mesh: Mesh, faults: FaultSet) -> Result<FaultyMesh, FaultError> {
        let n = mesh.node_count();
        let ports = mesh.ports_per_router();
        let mut links = vec![NO_LINK; n * ports];
        let mut alive = vec![PortSet::EMPTY; n];
        for node in mesh.nodes() {
            for port in mesh.direction_ports() {
                let dir = port.direction().expect("direction port");
                if let Some(nb) = mesh.neighbor(node, dir) {
                    links[node.index() * ports + port.index()] = nb.0;
                    alive[node.index()].insert(port);
                }
            }
        }
        // Kill each fault in both directions, re-validating it against
        // this mesh: a pair that names no link finds no port.
        for &(a, b) in faults.links() {
            for (from, to) in [(a, b), (b, a)] {
                let port = (from.index() < n)
                    .then(|| &links[from.index() * ports..(from.index() + 1) * ports])
                    .and_then(|row| row.iter().position(|&nb| nb == to.0))
                    .ok_or(FaultError::NotALink { a, b })?;
                alive[from.index()].remove(Port::from_index(port));
            }
        }

        let mut fmesh = FaultyMesh {
            mesh,
            faults,
            links,
            alive,
            dist: Vec::new(),
        };
        let mut dist = vec![u32::MAX; n * n];
        let mut queue = Vec::with_capacity(n);
        for (src, row) in dist.chunks_exact_mut(n).enumerate() {
            fmesh.bfs(NodeId(src as u32), row, &mut queue);
            if src == 0 {
                let reachable = row.iter().filter(|&&d| d != u32::MAX).count();
                if reachable != n {
                    return Err(FaultError::Disconnected {
                        reachable,
                        nodes: n,
                    });
                }
            }
        }
        fmesh.dist = dist;
        Ok(fmesh)
    }

    /// One BFS from `src` over the surviving links, filling `dist` (all
    /// `u32::MAX` on entry); `queue` is scratch reused across sources.
    fn bfs(&self, src: NodeId, dist: &mut [u32], queue: &mut Vec<NodeId>) {
        dist[src.index()] = 0;
        queue.clear();
        queue.push(src);
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            let d = dist[node.index()];
            for (_, nb) in self.alive_links(node) {
                if dist[nb.index()] == u32::MAX {
                    dist[nb.index()] = d + 1;
                    queue.push(nb);
                }
            }
        }
    }

    /// The underlying perfect topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The dead links.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Total node count (faults kill links, never nodes).
    pub fn node_count(&self) -> usize {
        self.mesh.node_count()
    }

    /// The `links` slot of `node`'s port toward `direction`.
    ///
    /// # Panics
    ///
    /// Panics if the direction's dimension is outside this topology or
    /// the node is out of range — the same checks [`Mesh::neighbor`]
    /// makes, and what keeps a flat index from reading the next node's
    /// row.
    fn slot(&self, node: NodeId, direction: Direction) -> (Port, usize) {
        assert!(
            direction.dim() < self.mesh.dims(),
            "direction {direction} out of range"
        );
        assert!(
            node.index() < self.node_count(),
            "node {node} out of range for {}",
            self.mesh
        );
        let port = Port::from(direction);
        (
            port,
            node.index() * self.mesh.ports_per_router() + port.index(),
        )
    }

    /// Whether the link out of `node` along `direction` is dead. An
    /// absent link (mesh edge) is not dead.
    ///
    /// # Panics
    ///
    /// Panics if the direction's dimension is outside this topology or
    /// the node is out of range.
    pub fn is_dead(&self, node: NodeId, direction: Direction) -> bool {
        let (port, slot) = self.slot(node, direction);
        self.links[slot] != NO_LINK && !self.alive[node.index()].contains(port)
    }

    /// The neighbor over a *surviving* link, or `None` when the link is
    /// dead or absent (mesh edge).
    ///
    /// # Panics
    ///
    /// Panics if the direction's dimension is outside this topology or
    /// the node is out of range.
    pub fn neighbor(&self, node: NodeId, direction: Direction) -> Option<NodeId> {
        let (port, slot) = self.slot(node, direction);
        self.alive[node.index()]
            .contains(port)
            .then(|| NodeId(self.links[slot]))
    }

    /// The direction-ports of `node` with surviving links.
    pub fn alive_ports(&self, node: NodeId) -> PortSet {
        self.alive[node.index()]
    }

    /// `node`'s surviving links as `(port, neighbor)` pairs, in ascending
    /// port order.
    pub fn alive_links(&self, node: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let ports = self.mesh.ports_per_router();
        let row = &self.links[node.index() * ports..(node.index() + 1) * ports];
        self.alive[node.index()]
            .iter()
            .map(move |p| (p, NodeId(row[p.index()])))
    }

    /// Hop distance between two nodes over surviving links.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let n = self.node_count();
        assert!(a.index() < n && b.index() < n, "node out of range");
        self.dist[a.index() * n + b.index()]
    }

    /// The surviving output ports that move a message strictly closer to
    /// `dest` in the faulty graph — the fault-aware generalization of
    /// [`Mesh::productive_ports`]. Empty exactly when `from == dest`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn productive_ports(&self, from: NodeId, dest: NodeId) -> PortSet {
        if from == dest {
            return PortSet::EMPTY;
        }
        let here = self.distance(from, dest);
        let mut set = PortSet::EMPTY;
        for (port, nb) in self.alive_links(from) {
            if self.distance(nb, dest) + 1 == here {
                set.insert(port);
            }
        }
        set
    }
}

impl fmt::Display for FaultyMesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {} dead link(s)", self.mesh, self.faults.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::mesh_2d(4, 4)
    }

    #[test]
    fn empty_fault_set_reproduces_the_mesh() {
        let mesh = mesh4();
        let fmesh = FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                assert_eq!(fmesh.distance(a, b), mesh.distance(a, b));
                assert_eq!(
                    fmesh.productive_ports(a, b),
                    mesh.productive_ports(a, b),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn dead_link_is_symmetric_and_rerouted() {
        let mesh = mesh4();
        let a = mesh.id_at(&[1, 1]).unwrap();
        let b = mesh.id_at(&[2, 1]).unwrap();
        let faults = FaultSet::new(&mesh, &[(b, a)]).unwrap(); // order-insensitive
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        assert!(fmesh.is_dead(a, Direction::plus(0)));
        assert!(fmesh.is_dead(b, Direction::minus(0)));
        assert_eq!(fmesh.neighbor(a, Direction::plus(0)), None);
        assert_eq!(fmesh.distance(a, b), 3); // around the break
        assert_eq!(fmesh.alive_ports(a).len(), 3);
    }

    #[test]
    fn productive_ports_reduce_faulty_distance() {
        let mesh = Mesh::mesh_2d(5, 5);
        let faults = FaultSet::random(&mesh, 4, 7).unwrap();
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        for a in fmesh.mesh().nodes() {
            for b in fmesh.mesh().nodes() {
                let ports = fmesh.productive_ports(a, b);
                if a == b {
                    assert!(ports.is_empty());
                    continue;
                }
                assert!(!ports.is_empty(), "{a}->{b} has no productive port");
                for p in ports.iter() {
                    let nb = fmesh.neighbor(a, p.direction().unwrap()).unwrap();
                    assert_eq!(fmesh.distance(nb, b) + 1, fmesh.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn non_links_are_rejected() {
        let mesh = mesh4();
        let diag = (mesh.id_at(&[0, 0]).unwrap(), mesh.id_at(&[1, 1]).unwrap());
        assert!(matches!(
            FaultSet::new(&mesh, &[diag]),
            Err(FaultError::NotALink { .. })
        ));
        // Self-pairs and out-of-range ids are not links either.
        assert!(FaultSet::new(&mesh, &[(NodeId(3), NodeId(3))]).is_err());
        assert!(FaultSet::new(&mesh, &[(NodeId(0), NodeId(99))]).is_err());
    }

    #[test]
    fn faults_of_another_topology_are_rejected() {
        // A torus wrap link and an out-of-range pair are no links of the
        // 4x4 mesh.
        let wrap = FaultSet::new(&Mesh::torus_2d(4, 4), &[(NodeId(0), NodeId(3))]).unwrap();
        let far = FaultSet::new(&Mesh::mesh_2d(8, 8), &[(NodeId(62), NodeId(63))]).unwrap();
        for (faults, (a, b)) in [(wrap, (0, 3)), (far, (62, 63))] {
            assert_eq!(
                FaultyMesh::new(mesh4(), faults).unwrap_err(),
                FaultError::NotALink {
                    a: NodeId(a),
                    b: NodeId(b)
                }
            );
        }
    }

    #[test]
    fn duplicates_are_rejected() {
        let mesh = mesh4();
        let link = (NodeId(0), NodeId(1));
        let err = FaultSet::new(&mesh, &[link, (NodeId(1), NodeId(0))]).unwrap_err();
        assert!(matches!(err, FaultError::DuplicateLink { .. }), "{err}");
    }

    #[test]
    fn partitioning_sets_are_rejected() {
        // Cut the corner (0,0) off completely.
        let mesh = mesh4();
        let corner = mesh.id_at(&[0, 0]).unwrap();
        let east = mesh.id_at(&[1, 0]).unwrap();
        let north = mesh.id_at(&[0, 1]).unwrap();
        let faults = FaultSet::new(&mesh, &[(corner, east), (corner, north)]).unwrap();
        let err = FaultyMesh::new(mesh, faults).unwrap_err();
        // BFS counts from node 0 — the very node that was cut off.
        assert_eq!(
            err,
            FaultError::Disconnected {
                reachable: 1,
                nodes: 16
            }
        );
        assert!(err.to_string().contains("disconnects"));
    }

    #[test]
    fn random_sets_are_deterministic_connected_and_sized() {
        let mesh = Mesh::mesh_2d(8, 8);
        let a = FaultSet::random(&mesh, 6, 42).unwrap();
        let b = FaultSet::random(&mesh, 6, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let c = FaultSet::random(&mesh, 6, 43).unwrap();
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
        assert!(FaultyMesh::new(mesh, a).is_ok());
    }

    #[test]
    fn impossible_random_counts_error() {
        // A 2x2 mesh has 4 links and a spanning tree needs 3: at most one
        // fault fits.
        let mesh = Mesh::mesh_2d(2, 2);
        assert!(FaultSet::random(&mesh, 1, 1).is_ok());
        let err = FaultSet::random(&mesh, 2, 1).unwrap_err();
        assert!(matches!(err, FaultError::TooManyFaults { placed: 1, .. }));
    }

    #[test]
    fn torus_links_are_faultable() {
        let torus = Mesh::torus_2d(4, 4);
        // The wrap link between (0,0) and (3,0).
        let a = torus.id_at(&[0, 0]).unwrap();
        let b = torus.id_at(&[3, 0]).unwrap();
        let faults = FaultSet::new(&torus, &[(a, b)]).unwrap();
        let fmesh = FaultyMesh::new(torus, faults).unwrap();
        assert!(fmesh.is_dead(a, Direction::minus(0)));
        assert!(fmesh.is_dead(b, Direction::plus(0)));
        assert_eq!(fmesh.distance(a, b), 3);
    }

    #[test]
    fn three_d_faults_work() {
        let mesh = Mesh::mesh_3d(3, 3, 3);
        let faults = FaultSet::random(&mesh, 5, 9).unwrap();
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        for a in fmesh.mesh().nodes() {
            for b in fmesh.mesh().nodes() {
                assert_ne!(fmesh.distance(a, b), u32::MAX, "{a}->{b} unreachable");
            }
        }
    }

    /// On a 4x4 mesh (5 ports per router) `-d2` would be port 6, which a
    /// flat `links` index resolves to the next node's row.
    #[test]
    #[should_panic(expected = "direction -d2 out of range")]
    fn neighbor_rejects_a_direction_outside_the_topology() {
        let fmesh = FaultyMesh::new(mesh4(), FaultSet::empty()).unwrap();
        let _ = fmesh.neighbor(NodeId(5), Direction::minus(2));
    }

    #[test]
    #[should_panic(expected = "direction +d2 out of range")]
    fn is_dead_rejects_a_direction_outside_the_topology() {
        let fmesh = FaultyMesh::new(mesh4(), FaultSet::empty()).unwrap();
        let _ = fmesh.is_dead(NodeId(5), Direction::plus(2));
    }

    #[test]
    #[should_panic(expected = "node n16 out of range")]
    fn neighbor_rejects_an_out_of_range_node() {
        let fmesh = FaultyMesh::new(mesh4(), FaultSet::empty()).unwrap();
        let _ = fmesh.neighbor(NodeId(16), Direction::plus(0));
    }

    #[test]
    #[should_panic(expected = "node n16 out of range")]
    fn is_dead_rejects_an_out_of_range_node() {
        let fmesh = FaultyMesh::new(mesh4(), FaultSet::empty()).unwrap();
        let _ = fmesh.is_dead(NodeId(16), Direction::minus(0));
    }

    #[test]
    fn display_formats() {
        let mesh = mesh4();
        let faults = FaultSet::new(&mesh, &[(NodeId(0), NodeId(1))]).unwrap();
        assert_eq!(faults.to_string(), "{(n0, n1)}");
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        assert_eq!(fmesh.to_string(), "4x4 mesh with 1 dead link(s)");
    }
}
