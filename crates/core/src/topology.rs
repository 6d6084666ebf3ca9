//! First-class fabric topologies (DESIGN.md §15).
//!
//! The topology layer turns a declarative description — tiers, switches
//! per tier, nodes per edge switch, per-tier trunk bandwidth and
//! multiplicity — into three artifacts the rest of the stack consumes:
//!
//! 1. a built [`dclue_net::Network`] (the `NetworkBuilder` graph with
//!    BFS routes),
//! 2. the host handles the world wires components to (node hosts in
//!    node order, client hosts, the FTP pair), and
//! 3. a [`Placement`] map (node → rack) plus the worst-case path
//!    depth the report publishes as `max_path_hops`.
//!
//! Two shapes exist. [`Topology::Paper`] is the ICPP'05 Fig 1 star —
//! one switch, or two LATA switches behind an outer core — and its
//! builder-call sequence is **bit-identical** to the pre-refactor
//! inline code: device, link and connection ids, and therefore every
//! RNG draw downstream, are unchanged (pinned by the golden
//! `figures all --seeds 2 --exact` capture and
//! `tests/topology_shapes.rs`). [`Topology::Hierarchical`] is the
//! edge/aggregation tree that reaches n = 128: `nodes_per_edge` hosts
//! per edge switch, edge switches divided contiguously across
//! aggregation switches, and a core router joining the aggregation
//! tier when there is more than one switch in it. Trunks carry a tier
//! tag (0 = edge→agg, 1 = agg→core) so the report can attribute
//! utilization to the tier that actually saturates.
//!
//! Topology construction consumes **no randomness**: the same config
//! always compiles to the same graph.

use crate::config::{ClusterConfig, FabricShape};
use dclue_net::device::PortPolicy;
use dclue_net::{DeviceId, HostId, LinkId, Network, NetworkBuilder};
use dclue_sim::Duration;

/// Node → rack map plus fabric path facts, derived at build time.
///
/// A *rack* is the unit of fabric locality: the set of nodes behind
/// one edge switch (hierarchical) or inside one LATA (paper). Racks
/// are always contiguous node blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct Placement {
    /// Rack index per node, `rack_of[node]`.
    pub rack_of: Vec<u32>,
    /// Total racks (edge switches, or LATAs for the paper shape).
    pub racks: u32,
    /// Worst-case node→node path depth in links, measured over the
    /// built BFS routes (2 within a rack, up to 6 across aggregation
    /// switches). Reported as `max_path_hops`.
    pub max_hops: u32,
}

impl Placement {
    /// Which rack a node lives in.
    pub fn rack_of(&self, node: u32) -> u32 {
        self.rack_of[node as usize]
    }
}

/// Everything [`Topology::build`] hands the world.
pub struct BuiltTopology {
    pub net: Network,
    /// Server host per node, in node order.
    pub node_hosts: Vec<HostId>,
    /// Client-terminal hosts at the clients' homing router.
    pub client_hosts: Vec<HostId>,
    /// FTP cross-traffic endpoints (placed to cross the trunks).
    pub ftp_client: HostId,
    pub ftp_server: HostId,
    /// Router↔router trunk links, in builder-call order.
    pub trunks: Vec<LinkId>,
    /// Tier per trunk, parallel to `trunks`: 0 = edge tier (edge→agg,
    /// or the paper's outer↔LATA trunks), 1 = aggregation tier
    /// (agg→core).
    pub trunk_tiers: Vec<u8>,
    pub placement: Placement,
}

/// Declarative fabric description; compile with [`Topology::build`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Topology {
    /// The paper's Fig 1 star. `latas == 1`: every host on one switch,
    /// no trunks. `latas >= 2`: an outer core router with one trunk
    /// per LATA switch, clients homed at the core.
    Paper { latas: u32 },
    /// Two-tier edge/aggregation tree. `edge` switches of
    /// `nodes_per_edge` hosts each, divided contiguously across `agg`
    /// aggregation switches (`agg_of_edge = e * agg / edge`), plus a
    /// core router when `agg >= 2`. Every uplink is `uplinks` parallel
    /// trunks; BFS picks one per route, so multiplicity matters under
    /// fault plans (surviving members keep the tier connected), not
    /// for steady-state capacity.
    Hierarchical {
        edge: u32,
        agg: u32,
        nodes_per_edge: u32,
        uplinks: u32,
        /// Edge→agg trunk bandwidth, bit/s.
        trunk_bw: f64,
        /// Agg→core trunk bandwidth, bit/s (already resolved — the
        /// `agg_trunk_bw = 0` config default means "same as trunk_bw").
        agg_trunk_bw: f64,
    },
}

impl Topology {
    /// The shape a validated config describes.
    pub fn from_config(cfg: &ClusterConfig) -> Topology {
        match cfg.topology {
            FabricShape::Paper => Topology::Paper {
                latas: cfg.effective_latas(),
            },
            FabricShape::Hierarchical => Topology::Hierarchical {
                edge: cfg.effective_edge_switches(),
                agg: cfg.agg_switches,
                nodes_per_edge: cfg.nodes_per_edge,
                uplinks: cfg.uplinks,
                trunk_bw: cfg.trunk_bw,
                agg_trunk_bw: cfg.effective_agg_trunk_bw(),
            },
        }
    }

    /// Racks this shape partitions the nodes into (without building).
    pub fn racks(&self) -> u32 {
        match *self {
            Topology::Paper { latas } => latas,
            Topology::Hierarchical { edge, .. } => edge,
        }
    }

    /// Compile the description into a network graph, host handles and
    /// the placement map. Deterministic, RNG-free.
    pub fn build(&self, cfg: &ClusterConfig, policy: PortPolicy) -> BuiltTopology {
        let prop = Duration::from_micros(5);
        let mut b = NetworkBuilder::new();
        let mut trunk_tiers: Vec<u8> = Vec::new();
        let (node_hosts, client_hosts, ftp_client, ftp_server, rack_of, racks);
        match *self {
            Topology::Paper { latas } => {
                // The pre-refactor inline sequence, verbatim: routers
                // (outer first when trunked), trunks, node hosts,
                // client hosts, FTP pair. Reordering ANY call here
                // changes device/link ids and breaks golden-capture
                // bit-identity.
                let npl = cfg.nodes_per_lata();
                let mut trunks_pending = Vec::new();
                let (lata_routers, client_router) = if latas == 1 {
                    let r = b.router_with_policy(cfg.router_rate, policy);
                    (vec![r], r)
                } else {
                    let outer = b.router_with_policy(cfg.router_rate, policy);
                    let mut rs = Vec::new();
                    for _ in 0..latas {
                        let r = b.router_with_policy(cfg.router_rate, policy);
                        trunks_pending.push((outer, r));
                        rs.push(r);
                    }
                    (rs, outer)
                };
                for (outer, r) in &trunks_pending {
                    b.trunk(*outer, *r, cfg.trunk_bw, prop + cfg.extra_trunk_latency);
                    trunk_tiers.push(0);
                }
                // Server hosts.
                let mut nh = Vec::new();
                for n in 0..cfg.nodes {
                    let lata = (n / npl) as usize;
                    nh.push(b.host(lata_routers[lata], cfg.link_bw, prop));
                }
                // Client hosts (4 per lata, at the clients' homing
                // router).
                let mut ch = Vec::new();
                for _ in 0..(4 * latas) {
                    ch.push(b.host(client_router, cfg.link_bw, prop));
                }
                // FTP extra client/server (cross the trunks when there
                // are two latas, as in the paper's Fig 1).
                ftp_client = b.host(lata_routers[0], cfg.link_bw, prop);
                ftp_server = b.host(*lata_routers.last().unwrap(), cfg.link_bw, prop);
                node_hosts = nh;
                client_hosts = ch;
                rack_of = (0..cfg.nodes).map(|n| n / npl).collect();
                racks = latas;
            }
            Topology::Hierarchical {
                edge,
                agg,
                nodes_per_edge,
                uplinks,
                trunk_bw,
                agg_trunk_bw,
            } => {
                // Routers bottom-up: edge tier, aggregation tier, then
                // the core (only when the aggregation tier needs
                // joining).
                let edge_routers: Vec<u32> = (0..edge)
                    .map(|_| b.router_with_policy(cfg.router_rate, policy))
                    .collect();
                let agg_routers: Vec<u32> = (0..agg)
                    .map(|_| b.router_with_policy(cfg.router_rate, policy))
                    .collect();
                let core = (agg > 1).then(|| b.router_with_policy(cfg.router_rate, policy));
                // Tier-0 trunks: each edge switch uplinks to its
                // (contiguously assigned) aggregation switch.
                let trunk_lat = prop + cfg.extra_trunk_latency;
                for (e, er) in edge_routers.iter().enumerate() {
                    let a = e as u32 * agg / edge;
                    for _ in 0..uplinks {
                        b.trunk(*er, agg_routers[a as usize], trunk_bw, trunk_lat);
                    }
                }
                trunk_tiers.resize((edge * uplinks) as usize, 0);
                // Tier-1 trunks: aggregation switches to the core.
                if let Some(core) = core {
                    for ar in &agg_routers {
                        for _ in 0..uplinks {
                            b.trunk(*ar, core, agg_trunk_bw, trunk_lat);
                        }
                    }
                    trunk_tiers.resize(((edge + agg) * uplinks) as usize, 1);
                }
                // Server hosts in node order, rack = edge switch.
                let mut nh = Vec::new();
                for n in 0..cfg.nodes {
                    let e = (n / nodes_per_edge) as usize;
                    nh.push(b.host(edge_routers[e], cfg.link_bw, prop));
                }
                // Client hosts at the top of the tree (4 per agg
                // switch, mirroring the paper's 4-per-lata sizing), so
                // terminal traffic exercises the full uplink path.
                let top = core.unwrap_or(agg_routers[0]);
                let mut ch = Vec::new();
                for _ in 0..(4 * agg) {
                    ch.push(b.host(top, cfg.link_bw, prop));
                }
                // FTP pair across the widest span: first to last rack.
                ftp_client = b.host(edge_routers[0], cfg.link_bw, prop);
                ftp_server = b.host(*edge_routers.last().unwrap(), cfg.link_bw, prop);
                node_hosts = nh;
                client_hosts = ch;
                rack_of = (0..cfg.nodes).map(|n| n / nodes_per_edge).collect();
                racks = edge;
            }
        }
        let mut net = b.build();
        net.set_train_mode(!cfg.exact);
        // Host links precede router links in the built link table, and
        // router links keep trunk-call order — so this filter yields
        // the trunks parallel to `trunk_tiers`.
        let trunks: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| matches!((l.a, l.b), (DeviceId::Router(_), DeviceId::Router(_))))
            .map(|l| l.id)
            .collect();
        debug_assert_eq!(trunks.len(), trunk_tiers.len());
        // Worst-case node→node path depth over the actual BFS routes —
        // truthful even if the builder's route tie-breaking changes.
        let mut max_hops = 0u32;
        for (i, &ha) in node_hosts.iter().enumerate() {
            for &hb in node_hosts.iter().skip(i + 1) {
                if let Some(h) = net.hop_count(ha, hb) {
                    max_hops = max_hops.max(h);
                }
            }
        }
        BuiltTopology {
            net,
            node_hosts,
            client_hosts,
            ftp_client,
            ftp_server,
            trunks,
            trunk_tiers,
            placement: Placement {
                rack_of,
                racks,
                max_hops,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> PortPolicy {
        PortPolicy {
            discipline: dclue_net::device::Discipline::Fifo,
            drop: dclue_net::device::DropPolicy::TailDrop,
        }
    }

    #[test]
    fn paper_single_lata_has_no_trunks() {
        let cfg = ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        };
        let t = Topology::from_config(&cfg);
        assert_eq!(t, Topology::Paper { latas: 1 });
        let built = t.build(&cfg, policy());
        assert!(built.trunks.is_empty());
        assert_eq!(built.placement.racks, 1);
        assert_eq!(built.placement.max_hops, 2);
        assert_eq!(built.node_hosts.len(), 4);
        assert_eq!(built.client_hosts.len(), 4);
    }

    #[test]
    fn paper_two_latas_places_block_racks() {
        let cfg = ClusterConfig {
            nodes: 16, // auto-splits into 2 latas
            ..ClusterConfig::default()
        };
        let t = Topology::from_config(&cfg);
        let built = t.build(&cfg, policy());
        assert_eq!(built.trunks.len(), 2);
        assert_eq!(built.trunk_tiers, vec![0, 0]);
        assert_eq!(built.placement.racks, 2);
        assert_eq!(built.placement.rack_of(7), 0);
        assert_eq!(built.placement.rack_of(8), 1);
        // Cross-lata path: host → lata → outer → lata → host.
        assert_eq!(built.placement.max_hops, 4);
    }

    #[test]
    fn hierarchical_places_and_counts_trunks() {
        let cfg = ClusterConfig {
            topology: FabricShape::Hierarchical,
            nodes: 64,
            nodes_per_edge: 8,
            agg_switches: 2,
            uplinks: 2,
            ..ClusterConfig::default()
        };
        cfg.validate().expect("valid");
        let t = Topology::from_config(&cfg);
        assert_eq!(t.racks(), 8);
        let built = t.build(&cfg, policy());
        // 8 edge uplink pairs + 2 agg uplink pairs.
        assert_eq!(built.trunks.len(), 8 * 2 + 2 * 2);
        assert_eq!(built.trunk_tiers.iter().filter(|&&t| t == 0).count(), 16);
        assert_eq!(built.trunk_tiers.iter().filter(|&&t| t == 1).count(), 4);
        // Edge 0..3 under agg 0, edge 4..7 under agg 1.
        assert_eq!(built.placement.rack_of(0), 0);
        assert_eq!(built.placement.rack_of(31), 3);
        assert_eq!(built.placement.rack_of(32), 4);
        assert_eq!(built.placement.rack_of(63), 7);
        // Deepest path crosses the core: 6 links.
        assert_eq!(built.placement.max_hops, 6);
    }

    #[test]
    fn hierarchical_single_agg_skips_core() {
        let cfg = ClusterConfig {
            topology: FabricShape::Hierarchical,
            nodes: 16,
            nodes_per_edge: 4,
            agg_switches: 1,
            ..ClusterConfig::default()
        };
        cfg.validate().expect("valid");
        let built = Topology::from_config(&cfg).build(&cfg, policy());
        assert_eq!(built.trunks.len(), 4);
        assert!(built.trunk_tiers.iter().all(|&t| t == 0));
        // No core hop: host → edge → agg → edge → host.
        assert_eq!(built.placement.max_hops, 4);
    }
}
