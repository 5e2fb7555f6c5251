//! Economical-storage routing tables — the paper's §5.2 proposal.

use crate::tables::cost::StorageCost;
use crate::tables::{RouteEntry, TableScheme};
use lapses_routing::{torus_dateline_subclass, RoutingAlgorithm};
use lapses_topology::{Coord, FaultyMesh, Mesh, NodeId, Sign, SignVec};

/// The 3ⁿ-entry economical-storage (ES) routing table.
///
/// Instead of indexing by destination address, the router computes the
/// per-dimension **sign** of the destination-relative coordinates
/// (`s_x = sign(d_x - i_x)`, `s_y = sign(d_y - i_y)`, …) with two
/// comparators and a node-id register, and uses the sign vector to index a
/// table of only `3ⁿ` entries — **9** for 2-D meshes and **27** for 3-D,
/// independent of network size (§5.2.1).
///
/// Because "all the popular adaptive mesh routing algorithms use network
/// symmetry and source-relative directions", the candidate set of such an
/// algorithm is a function of the sign vector alone, so the ES table loses
/// *no* routing flexibility relative to a full table (§5.2.2) — a claim the
/// test-suite verifies exhaustively and by property test.
///
/// On a torus the sign is computed from the minimal wrap-aware direction
/// (preferring `+` on an exactly-half-way tie) and the escape dateline
/// subclass is recomputed positionally by the same comparator hardware —
/// the §5.2.1 "minimal path routing in n-dimensional tori" extension.
///
/// # Example
///
/// ```
/// use lapses_core::tables::{EconomicalTable, TableScheme};
/// use lapses_routing::DuatoAdaptive;
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let table = EconomicalTable::program(&mesh, &DuatoAdaptive::new());
/// assert_eq!(table.storage().entries_per_router, 9); // not 256!
/// ```
#[derive(Debug)]
pub struct EconomicalTable {
    mesh: Mesh,
    /// `entries[node][sign_index]`; 3ⁿ entries per node.
    entries: Vec<Vec<RouteEntry>>,
    /// Per-destination overrides (`(dest, entry)` sorted by dest id) for
    /// relations the sign index cannot express — the small exception CAM
    /// an irregular-network ES table carries. Empty for source-relative
    /// algorithms on perfect meshes, so the classic lookup is untouched.
    exceptions: Vec<Vec<(u32, RouteEntry)>>,
    /// Whether [`TableScheme::entry`] recomputes the torus dateline
    /// subclass positionally (the classic §5.2.1 extension). Faulty
    /// programs store the subclass verbatim instead.
    recompute_dateline: bool,
}

impl EconomicalTable {
    /// Compiles the per-router sign-indexed tables from a routing algorithm.
    ///
    /// Each router's entry for a sign vector is programmed from any
    /// destination realizing that sign from the router (they all agree for
    /// source-relative algorithms — verified with debug assertions).
    /// Sign combinations unrealizable at a router (e.g. `(-,·)` at the
    /// left edge of a mesh) stay [`RouteEntry::unprogrammed`].
    pub fn program(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> EconomicalTable {
        let dims = mesh.dims();
        let table_len = SignVec::table_len(dims);
        let mut entries = vec![vec![RouteEntry::unprogrammed(); table_len]; mesh.node_count()];

        for node in mesh.nodes() {
            let row = &mut entries[node.index()];
            let mut programmed = vec![false; table_len];
            for dest in mesh.nodes() {
                let sv = relative_sign(mesh, node, dest);
                let idx = sv.table_index();
                let entry = if node == dest {
                    RouteEntry::local()
                } else {
                    let mut candidates = algo.candidates(mesh, node, dest);
                    if mesh.is_torus() {
                        // At an exactly-half-way torus tie both directions
                        // are minimal, but a sign can encode only one; keep
                        // the sign-consistent direction (the slight
                        // adaptivity loss of the sign encoding).
                        candidates = candidates
                            .iter()
                            .filter(|p| {
                                let d = p.direction().expect("network port");
                                sv.sign(d.dim()) == d.sign()
                            })
                            .collect();
                    }
                    RouteEntry {
                        candidates,
                        escape: algo.escape_port(mesh, node, dest),
                        // The stored subclass is for the mesh case; torus
                        // lookups recompute it positionally in `entry()`.
                        escape_subclass: 0,
                    }
                };
                if programmed[idx] {
                    debug_assert_eq!(
                        (row[idx].candidates, row[idx].escape),
                        (entry.candidates, entry.escape),
                        "algorithm {} is not source-relative: sign {sv} at {node} \
                         maps to different entries",
                        algo.name()
                    );
                } else {
                    row[idx] = entry;
                    programmed[idx] = true;
                }
            }
        }

        EconomicalTable {
            mesh: mesh.clone(),
            entries,
            exceptions: vec![Vec::new(); mesh.node_count()],
            recompute_dateline: true,
        }
    }

    /// Compiles an economical table for an *arbitrary* routing relation
    /// over a faulty (or perfect) topology — the table-programming story
    /// for irregular networks.
    ///
    /// Up*/down* routes around dead links are not functions of the sign
    /// vector alone, so the 3ⁿ base table cannot be lossless by itself.
    /// Instead, each sign class is programmed with the entry shared by the
    /// *most* destinations of the class, and every disagreeing
    /// destination goes into a small per-router exception store (the CAM
    /// a real ES router would add for irregular networks). The result is
    /// exactly lossless for any relation; for source-relative algorithms
    /// on fault-free meshes the exception store is empty and the table
    /// degenerates to the classic 3ⁿ program (asserted by tests).
    pub fn program_faulty(fmesh: &FaultyMesh, algo: &dyn RoutingAlgorithm) -> EconomicalTable {
        let mesh = fmesh.mesh();
        let dims = mesh.dims();
        let table_len = SignVec::table_len(dims);
        let n = mesh.node_count();
        let mut entries = vec![vec![RouteEntry::unprogrammed(); table_len]; n];
        let mut exceptions = vec![Vec::new(); n];
        let coords: Vec<Coord> = mesh.nodes().map(|v| mesh.coord_of(v)).collect();
        // Scratch reused across routers: the sign-class buckets and the
        // per-class entry tally.
        let mut by_class: Vec<Vec<(u32, RouteEntry)>> = vec![Vec::new(); table_len];
        let mut tally: Vec<(RouteEntry, usize)> = Vec::new();

        for node in mesh.nodes() {
            // Gather every destination's true entry, grouped by sign class.
            by_class.iter_mut().for_each(Vec::clear);
            let here = &coords[node.index()];
            for dest in mesh.nodes() {
                let entry = if node == dest {
                    RouteEntry::local()
                } else {
                    RouteEntry {
                        candidates: algo.candidates(mesh, node, dest),
                        escape: algo.escape_port(mesh, node, dest),
                        escape_subclass: algo.escape_subclass(mesh, node, dest) as u8,
                    }
                };
                let idx = coord_sign(mesh, here, &coords[dest.index()]).table_index();
                by_class[idx].push((dest.0, entry));
            }
            // Base entry per class: the mode, first-appearance tie-break
            // (deterministic); everything else becomes an exception.
            for (idx, members) in by_class.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                tally.clear();
                for (_, e) in members {
                    match tally.iter_mut().find(|(t, _)| t == e) {
                        Some((_, c)) => *c += 1,
                        None => tally.push((*e, 1)),
                    }
                }
                // `tally` is in first-appearance order and `>` keeps the
                // earliest of equally-frequent entries, so the tie-break
                // really is first-appearance (max_by_key would keep the
                // last).
                let base = tally
                    .iter()
                    .fold(None::<(RouteEntry, usize)>, |best, &(e, c)| match best {
                        Some((_, bc)) if c <= bc => best,
                        _ => Some((e, c)),
                    })
                    .map(|(e, _)| e)
                    .expect("class is non-empty");
                entries[node.index()][idx] = base;
                for (dest, e) in members {
                    if *e != base {
                        exceptions[node.index()].push((*dest, *e));
                    }
                }
            }
            exceptions[node.index()].sort_unstable_by_key(|(d, _)| *d);
        }

        EconomicalTable {
            mesh: mesh.clone(),
            entries,
            exceptions,
            recompute_dateline: false,
        }
    }

    /// Exception entries across all routers (0 for source-relative
    /// algorithms on fault-free meshes).
    pub fn exception_count(&self) -> usize {
        self.exceptions.iter().map(Vec::len).sum()
    }

    /// The largest per-router exception store — the extra entries one
    /// router's hardware table would need on top of the 3ⁿ base.
    pub fn max_exceptions_per_router(&self) -> usize {
        self.exceptions.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The wrap-aware relative sign: per dimension, the minimal direction of
/// travel toward `dest` (preferring `+` on a torus half-way tie), or zero
/// when aligned. On a mesh this is the plain coordinate-difference sign of
/// §5.2.1.
pub fn relative_sign(mesh: &Mesh, node: NodeId, dest: NodeId) -> SignVec {
    coord_sign(mesh, &mesh.coord_of(node), &mesh.coord_of(dest))
}

/// [`relative_sign`] on already-decoded coordinates `h` (here) and `d`
/// (destination).
fn coord_sign(mesh: &Mesh, h: &Coord, d: &Coord) -> SignVec {
    let mut signs = [Sign::Zero; lapses_topology::MAX_DIMS];
    for (dim, s) in signs.iter_mut().enumerate().take(mesh.dims()) {
        *s = if !mesh.is_torus() {
            Sign::of(d[dim] as i32 - h[dim] as i32)
        } else {
            let k = mesh.extent(dim) as i32;
            let fwd = (d[dim] as i32 - h[dim] as i32).rem_euclid(k);
            if fwd == 0 {
                Sign::Zero
            } else if fwd <= k - fwd {
                Sign::Plus // prefer + on the exactly-half tie
            } else {
                Sign::Minus
            }
        };
    }
    SignVec::from_signs(&signs[..mesh.dims()])
}

impl TableScheme for EconomicalTable {
    fn name(&self) -> &'static str {
        "economical"
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry {
        let exceptions = &self.exceptions[node.index()];
        if !exceptions.is_empty() {
            if let Ok(i) = exceptions.binary_search_by_key(&dest.0, |(d, _)| *d) {
                return exceptions[i].1;
            }
        }
        let sv = relative_sign(&self.mesh, node, dest);
        let mut e = self.entries[node.index()][sv.table_index()];
        if self.recompute_dateline && self.mesh.is_torus() {
            e.escape_subclass = torus_dateline_subclass(&self.mesh, node, dest, e.escape) as u8;
        }
        e
    }

    fn storage(&self) -> StorageCost {
        StorageCost::for_scheme(
            &self.mesh,
            SignVec::table_len(self.mesh.dims()) + self.max_exceptions_per_router(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::FullTable;
    use lapses_routing::{DimensionOrder, DuatoAdaptive, TurnModel, TurnModelKind};

    /// §5.2.2's headline claim: "performance of full-table routing and
    /// economical storage routing are identical" because the entries agree
    /// for every (router, destination) pair.
    fn assert_equivalent(mesh: &Mesh, algo: &dyn RoutingAlgorithm) {
        let full = FullTable::program(mesh, algo);
        let econ = EconomicalTable::program(mesh, algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let f = full.entry(node, dest);
                let e = econ.entry(node, dest);
                assert_eq!(
                    (f.candidates, f.escape),
                    (e.candidates, e.escape),
                    "{} differs from full table at {node}->{dest}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn equivalent_to_full_table_for_duato() {
        assert_equivalent(&Mesh::mesh_2d(8, 8), &DuatoAdaptive::new());
    }

    #[test]
    fn equivalent_to_full_table_for_xy() {
        assert_equivalent(&Mesh::mesh_2d(8, 8), &DimensionOrder::new());
    }

    #[test]
    fn equivalent_to_full_table_for_north_last() {
        assert_equivalent(
            &Mesh::mesh_2d(8, 8),
            &TurnModel::new(TurnModelKind::NorthLast),
        );
    }

    #[test]
    fn equivalent_on_3d_mesh() {
        assert_equivalent(&Mesh::mesh_3d(4, 4, 4), &DuatoAdaptive::new());
    }

    #[test]
    fn nine_entries_for_2d_27_for_3d() {
        let t2 = EconomicalTable::program(&Mesh::mesh_2d(16, 16), &DuatoAdaptive::new());
        assert_eq!(t2.storage().entries_per_router, 9);
        let t3 = EconomicalTable::program(&Mesh::mesh_3d(4, 4, 4), &DuatoAdaptive::new());
        assert_eq!(t3.storage().entries_per_router, 27);
    }

    #[test]
    fn torus_lookup_recomputes_dateline_subclass() {
        let torus = Mesh::torus_2d(8, 8);
        let algo = DuatoAdaptive::new();
        let econ = EconomicalTable::program(&torus, &algo);
        let full = FullTable::program(&torus, &algo);
        for node in torus.nodes() {
            for dest in torus.nodes() {
                let f = full.entry(node, dest);
                let e = econ.entry(node, dest);
                // Candidate sets may differ only at half-way ties (the sign
                // table prefers +); escapes and subclasses must agree there
                // too because the escape picks + on ties as well.
                assert_eq!(f.escape, e.escape, "{node}->{dest}");
                assert_eq!(f.escape_subclass, e.escape_subclass, "{node}->{dest}");
                assert!(
                    e.candidates.is_subset(f.candidates),
                    "ES candidates exceed minimal set at {node}->{dest}"
                );
            }
        }
    }

    #[test]
    fn edge_routers_have_unprogrammed_impossible_signs() {
        let mesh = Mesh::mesh_2d(4, 4);
        let econ = EconomicalTable::program(&mesh, &DuatoAdaptive::new());
        // Origin router can never see a (-, -) destination; that entry
        // stays unprogrammed. Look it up through the raw storage.
        let sv = SignVec::from_signs(&[Sign::Minus, Sign::Minus]);
        let origin = mesh.id_at(&[0, 0]).unwrap();
        assert_eq!(
            econ.entries[origin.index()][sv.table_index()],
            RouteEntry::unprogrammed()
        );
    }

    #[test]
    fn relative_sign_on_mesh_matches_signvec() {
        let mesh = Mesh::mesh_2d(8, 8);
        for node in mesh.nodes().step_by(5) {
            for dest in mesh.nodes().step_by(3) {
                let direct = SignVec::between(&mesh.coord_of(node), &mesh.coord_of(dest));
                assert_eq!(relative_sign(&mesh, node, dest), direct);
            }
        }
    }

    #[test]
    fn faulty_program_is_lossless_and_exception_free_when_source_relative() {
        use lapses_topology::{FaultSet, FaultyMesh};
        // A fault-free faulty-view program of a source-relative algorithm
        // needs no exceptions and matches the classic program everywhere.
        let mesh = Mesh::mesh_2d(6, 6);
        let fmesh = FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap();
        let algo = DuatoAdaptive::new();
        let faulty = EconomicalTable::program_faulty(&fmesh, &algo);
        assert_eq!(faulty.exception_count(), 0);
        assert_eq!(faulty.storage().entries_per_router, 9);
        let classic = EconomicalTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                assert_eq!(faulty.entry(node, dest), classic.entry(node, dest));
            }
        }
    }

    #[test]
    fn faulty_program_reproduces_updown_exactly() {
        use lapses_routing::UpDown;
        use lapses_topology::{FaultSet, FaultyMesh};
        use std::sync::Arc;
        let mesh = Mesh::mesh_2d(5, 5);
        let faults = FaultSet::random(&mesh, 3, 17).unwrap();
        let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).unwrap());
        let algo = UpDown::adaptive(Arc::clone(&fmesh));
        let table = EconomicalTable::program_faulty(&fmesh, &algo);
        let full = FullTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                assert_eq!(
                    table.entry(node, dest),
                    full.entry(node, dest),
                    "exception table lost {node}->{dest}"
                );
            }
        }
        // Up*/down* around faults is not sign-consistent: some exceptions
        // exist, but far fewer than a full table's 25 entries per router.
        assert!(table.exception_count() > 0);
        assert!(table.max_exceptions_per_router() < mesh.node_count());
        assert_eq!(
            table.storage().entries_per_router,
            9 + table.max_exceptions_per_router()
        );
    }

    #[test]
    fn relative_sign_on_torus_points_the_short_way() {
        let torus = Mesh::torus_2d(8, 8);
        let a = torus.id_at(&[1, 0]).unwrap();
        let b = torus.id_at(&[7, 0]).unwrap();
        // Short way from 1 to 7 is backwards (2 hops) not forward (6).
        assert_eq!(relative_sign(&torus, a, b).sign(0), Sign::Minus);
        // Half-way tie prefers +.
        let c = torus.id_at(&[5, 0]).unwrap();
        assert_eq!(relative_sign(&torus, a, c).sign(0), Sign::Plus);
    }
}
