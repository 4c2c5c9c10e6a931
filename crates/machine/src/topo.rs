//! Interconnect topologies, reduced to a hop count between processor pairs.
//!
//! Flat topologies (`Uniform`/`Linear`/`Mesh2D`) price every hop the
//! same. `Tiered` models a hierarchical machine — processors grouped
//! into nodes, nodes into racks, racks into one cluster — where each
//! crossing tier can carry its own α/β multiplier in
//! [`crate::CostModel`]. That is the setting where host/device or
//! intra/inter-rack asymmetry moves collective-algorithm crossovers.

/// The highest interconnect level a message must cross.
///
/// `Node` is the cheapest tier (intra-node links, also the tier every
/// flat topology reports); `Cluster` is the most expensive. The derived
/// ordering (`Node < Rack < Cluster`) is meaningful and relied on by
/// the tier-monotonicity property tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Within one node (or any link of a flat topology).
    Node = 0,
    /// Between nodes of the same rack.
    Rack = 1,
    /// Between racks.
    Cluster = 2,
}

impl Tier {
    /// All tiers, cheapest first.
    pub const ALL: [Tier; 3] = [Tier::Node, Tier::Rack, Tier::Cluster];
}

/// A priced path between two pids: the hop count and the highest tier
/// the path crosses. Flat topologies always report [`Tier::Node`], so
/// [`crate::CostModel::link_time`] degenerates to `wire_time` on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Hop count (0 for self, else >= 1).
    pub hops: u32,
    /// Highest tier crossed.
    pub tier: Tier,
}

/// A machine whose pid space is larger than its topology can address.
///
/// `Mesh2D` and `Tiered` assign coordinates to exactly `extent` pids;
/// hop counts for pids beyond that are meaningless, so executors refuse
/// to run rather than silently simulate a machine that cannot exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyError {
    /// Human-readable shape, e.g. `mesh 2x4`.
    pub topo: String,
    /// Processors the topology addresses.
    pub extent: usize,
    /// Processors the machine was asked to simulate.
    pub nprocs: usize,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "topology {} addresses {} processors but the machine has {}: \
             pids {}..{} would fall off the interconnect",
            self.topo,
            self.extent,
            self.nprocs,
            self.extent,
            self.nprocs - 1
        )
    }
}

impl std::error::Error for TopologyError {}

/// The machine's interconnect shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Every pair one hop apart (crossbar / idealized).
    Uniform,
    /// Linear processor array; hops = |i - j|.
    Linear,
    /// 2-D mesh with row-major pids; hops = Manhattan distance.
    Mesh2D { rows: usize, cols: usize },
    /// Hierarchical machine: `procs_per_node` pids per node,
    /// `nodes_per_rack` nodes per rack, `racks` racks. Pids are dense:
    /// pid `p` sits on node `p / procs_per_node` and rack
    /// `p / (procs_per_node * nodes_per_rack)`. Hops grow with the tier
    /// crossed (1 intra-node, 2 intra-rack, 3 cross-rack) and the tier
    /// selects the α/β multipliers in [`crate::CostModel`].
    Tiered {
        procs_per_node: usize,
        nodes_per_rack: usize,
        racks: usize,
    },
}

impl Topology {
    /// A single-rack tiered machine (`nodes` nodes of `procs_per_node`).
    pub fn tiered(procs_per_node: usize, nodes_per_rack: usize, racks: usize) -> Topology {
        Topology::Tiered {
            procs_per_node,
            nodes_per_rack,
            racks,
        }
    }

    /// Hop count between two pids (0 for self, else >= 1).
    pub fn hops(&self, from: usize, to: usize) -> u32 {
        self.link(from, to).hops
    }

    /// Hop count plus the highest tier crossed between two pids.
    pub fn link(&self, from: usize, to: usize) -> Link {
        if from == to {
            return Link {
                hops: 0,
                tier: Tier::Node,
            };
        }
        let hops = match self {
            Topology::Uniform => 1,
            Topology::Linear => from.abs_diff(to) as u32,
            Topology::Mesh2D { cols, .. } => {
                let (r1, c1) = (from / cols, from % cols);
                let (r2, c2) = (to / cols, to % cols);
                (r1.abs_diff(r2) + c1.abs_diff(c2)) as u32
            }
            Topology::Tiered {
                procs_per_node,
                nodes_per_rack,
                ..
            } => {
                let (n1, n2) = (from / procs_per_node, to / procs_per_node);
                if n1 == n2 {
                    1
                } else if n1 / nodes_per_rack == n2 / nodes_per_rack {
                    2
                } else {
                    3
                }
            }
        };
        Link {
            hops,
            tier: self.tier(from, to),
        }
    }

    /// Highest tier a `from -> to` message crosses. Flat topologies are
    /// all [`Tier::Node`].
    pub fn tier(&self, from: usize, to: usize) -> Tier {
        match self {
            Topology::Tiered {
                procs_per_node,
                nodes_per_rack,
                ..
            } if from != to => {
                let (n1, n2) = (from / procs_per_node, to / procs_per_node);
                if n1 == n2 {
                    Tier::Node
                } else if n1 / nodes_per_rack == n2 / nodes_per_rack {
                    Tier::Rack
                } else {
                    Tier::Cluster
                }
            }
            _ => Tier::Node,
        }
    }

    /// How many pids the topology addresses, if bounded. `Uniform` and
    /// `Linear` extend to any machine size.
    pub fn extent(&self) -> Option<usize> {
        match self {
            Topology::Uniform | Topology::Linear => None,
            Topology::Mesh2D { rows, cols } => Some(rows * cols),
            Topology::Tiered {
                procs_per_node,
                nodes_per_rack,
                racks,
            } => Some(procs_per_node * nodes_per_rack * racks),
        }
    }

    /// Check that a machine of `nprocs` fits inside the topology.
    ///
    /// `Mesh2D` used to silently compute garbage Manhattan distances
    /// for pids beyond `rows * cols` (row index ran off the mesh);
    /// executors now call this before running.
    pub fn validate(&self, nprocs: usize) -> Result<(), TopologyError> {
        match self.extent() {
            Some(extent) if nprocs > extent => Err(TopologyError {
                topo: self.describe(),
                extent,
                nprocs,
            }),
            _ => Ok(()),
        }
    }

    /// Short human-readable shape for error messages.
    pub fn describe(&self) -> String {
        match self {
            Topology::Uniform => "uniform".to_string(),
            Topology::Linear => "linear".to_string(),
            Topology::Mesh2D { rows, cols } => format!("mesh {rows}x{cols}"),
            Topology::Tiered {
                procs_per_node,
                nodes_per_rack,
                racks,
            } => format!("tiered {procs_per_node}x{nodes_per_rack}x{racks}"),
        }
    }
}

/// The spelling every command line reads: `uniform`, `linear`, or `RxC`
/// for a 2-D mesh. Every field must parse; whether the shape holds the
/// machine is [`Topology::validate`]'s question, asked once the machine
/// size is known.
impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(spec: &str) -> Result<Topology, String> {
        let mesh = || {
            let (rows, cols) = spec.split_once('x')?;
            Some(Topology::Mesh2D {
                rows: rows.parse().ok()?,
                cols: cols.parse().ok()?,
            })
        };
        match spec {
            "uniform" => Ok(Topology::Uniform),
            "linear" => Ok(Topology::Linear),
            _ => mesh().ok_or_else(|| format!("`{spec}` is not uniform, linear, or RxC")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_parse_whole_or_not_at_all() {
        assert_eq!("uniform".parse(), Ok(Topology::Uniform));
        assert_eq!("linear".parse(), Ok(Topology::Linear));
        assert_eq!("2x4".parse(), Ok(Topology::Mesh2D { rows: 2, cols: 4 }));
        for bad in ["donut", "2xbananax4", "2x", "x4", "2x4x8", "-2x4", ""] {
            let err = bad.parse::<Topology>().unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        // A dimension of zero parses; it is the machine that does not fit.
        let flat: Topology = "4x0".parse().unwrap();
        assert_eq!(flat.validate(8).unwrap_err().extent, 0);
    }

    #[test]
    fn uniform() {
        let t = Topology::Uniform;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 7), 1);
    }

    #[test]
    fn linear() {
        let t = Topology::Linear;
        assert_eq!(t.hops(1, 4), 3);
        assert_eq!(t.hops(4, 1), 3);
    }

    #[test]
    fn mesh() {
        let t = Topology::Mesh2D { rows: 2, cols: 2 };
        // P0=(0,0) P1=(0,1) P2=(1,0) P3=(1,1)
        assert_eq!(t.hops(0, 3), 2);
        assert_eq!(t.hops(1, 2), 2);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(2, 2), 0);
    }

    #[test]
    fn tiered_hops_and_tiers() {
        // 2 procs/node, 2 nodes/rack, 2 racks => 8 pids.
        let t = Topology::tiered(2, 2, 2);
        assert_eq!(
            t.link(0, 0),
            Link {
                hops: 0,
                tier: Tier::Node
            }
        );
        assert_eq!(
            t.link(0, 1),
            Link {
                hops: 1,
                tier: Tier::Node
            }
        );
        assert_eq!(
            t.link(0, 2),
            Link {
                hops: 2,
                tier: Tier::Rack
            }
        );
        assert_eq!(
            t.link(0, 4),
            Link {
                hops: 3,
                tier: Tier::Cluster
            }
        );
        assert_eq!(
            t.link(3, 7),
            Link {
                hops: 3,
                tier: Tier::Cluster
            }
        );
        // Symmetry.
        assert_eq!(t.link(5, 0), t.link(0, 5));
    }

    #[test]
    fn flat_topologies_are_all_node_tier() {
        for t in [
            Topology::Uniform,
            Topology::Linear,
            Topology::Mesh2D { rows: 2, cols: 3 },
        ] {
            assert_eq!(t.tier(0, 5), Tier::Node);
        }
    }

    #[test]
    fn validate_rejects_oversized_machines() {
        let mesh = Topology::Mesh2D { rows: 2, cols: 2 };
        assert!(mesh.validate(4).is_ok());
        let err = mesh.validate(9).unwrap_err();
        assert_eq!(err.extent, 4);
        assert_eq!(err.nprocs, 9);
        assert!(err.to_string().contains("mesh 2x2"));
        assert!(err.to_string().contains("pids 4..8"));

        let tiered = Topology::tiered(2, 2, 2);
        assert!(tiered.validate(8).is_ok());
        assert!(tiered.validate(9).is_err());

        assert!(Topology::Uniform.validate(1 << 20).is_ok());
        assert!(Topology::Linear.validate(1 << 20).is_ok());
    }

    #[test]
    fn tier_ordering_is_cheapest_first() {
        assert!(Tier::Node < Tier::Rack && Tier::Rack < Tier::Cluster);
    }
}
