//! Per-shape topology pins (DESIGN.md §15): the id layout the `Paper`
//! shape compiles to (the bit-identity contract with the golden
//! captures), hierarchical placement/path facts end to end through a
//! run, and the n = 64 acceptance run under the aggregate client
//! model.

#![allow(clippy::field_reassign_with_default)] // config-mutation is the intended API pattern

use dclue_cluster::config::ClientModel;
use dclue_cluster::{ClusterConfig, FabricShape, Topology, World};
use dclue_net::DeviceId;
use dclue_sim::Duration;

fn policy() -> dclue_net::device::PortPolicy {
    dclue_net::device::PortPolicy {
        discipline: dclue_net::device::Discipline::Fifo,
        drop: dclue_net::device::DropPolicy::TailDrop,
    }
}

/// The `Paper` shape must allocate device and link ids exactly like
/// the pre-refactor inline code, because every id feeds the RNG-
/// aligned setup sequence the golden `figures all --seeds 2 --exact`
/// capture pins. The layout: node hosts in node order get the first
/// host ids, then 4·latas client hosts, then the FTP pair; host links
/// precede trunk links in the link table.
#[test]
fn paper_shape_pins_the_golden_id_layout() {
    for (nodes, latas) in [(4u32, 1u32), (16, 2)] {
        let mut cfg = ClusterConfig::default();
        cfg.nodes = nodes;
        let built = Topology::from_config(&cfg).build(&cfg, policy());
        assert_eq!(cfg.effective_latas(), latas);
        // Hosts: nodes, then clients, then the FTP pair — dense ids.
        for (n, h) in built.node_hosts.iter().enumerate() {
            assert_eq!(h.0, n as u32);
        }
        assert_eq!(built.client_hosts.len(), 4 * latas as usize);
        for (i, h) in built.client_hosts.iter().enumerate() {
            assert_eq!(h.0, nodes + i as u32);
        }
        let hosts = nodes + 4 * latas + 2;
        assert_eq!(built.ftp_client.0, hosts - 2);
        assert_eq!(built.ftp_server.0, hosts - 1);
        // Links: one per host first, then the trunks in call order.
        let expected_trunks = if latas == 1 { 0 } else { latas };
        assert_eq!(built.trunks.len(), expected_trunks as usize);
        for (i, l) in built.trunks.iter().enumerate() {
            assert_eq!(l.0, hosts + i as u32);
        }
        // Every trunk joins the outer router (id 0) to a lata router.
        for &l in &built.trunks {
            let link = &built.net.links()[l.0 as usize];
            assert!(matches!(link.a, DeviceId::Router(0)));
            assert!(matches!(link.b, DeviceId::Router(r) if r >= 1 && r <= latas));
        }
    }
}

fn hier64(clients_per_node: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.topology = FabricShape::Hierarchical;
    cfg.nodes = 64;
    cfg.nodes_per_edge = 8;
    cfg.agg_switches = 2;
    cfg.uplinks = 2;
    cfg.affinity = 0.5;
    cfg.clients_per_node = clients_per_node;
    cfg.think_time = Duration::from_secs(1);
    cfg.warmup = Duration::from_secs(1);
    cfg.measure = Duration::from_secs(2);
    cfg
}

/// Acceptance run: hierarchical n = 64 completes under the aggregate
/// client model, and the report carries the new per-tier fabric stats.
#[test]
fn hierarchical_n64_runs_under_aggregate_clients() {
    let mut cfg = hier64(5);
    cfg.client_model = ClientModel::Aggregate;
    cfg.client_conns_per_node = 8;
    cfg.validate().expect("valid hierarchical n=64");
    let r = World::new(cfg).run();
    assert!(r.committed > 0, "no work committed");
    // Deepest path crosses edge → agg → core → agg → edge.
    assert_eq!(r.max_path_hops, 6);
    // Mid affinity on 8 racks: cross-rack coherence traffic must have
    // crossed the edge uplinks, and everything inter-rack rides tier 0
    // before tier 1, so edge ≥ agg ≥ 0.
    assert!(r.trunk_mbps_edge > 0.0, "edge tier carried nothing");
    assert!(r.trunk_mbps_agg > 0.0, "agg tier carried nothing");
    assert!(r.trunk_mbps_edge >= r.trunk_mbps_agg);
    // The combined figure decomposes exactly into the tiers.
    let total = r.trunk_mbps_edge + r.trunk_mbps_agg;
    assert!((r.trunk_mbps - total).abs() < 1e-9);
    assert!(r.trunk_utilization > 0.0 && r.trunk_utilization <= 1.0);
}

/// The placement map a run exposes matches the declarative shape:
/// racks are the edge switches, assigned in contiguous blocks.
#[test]
fn hierarchical_placement_is_block_by_edge_switch() {
    let cfg = hier64(1);
    let w = World::new(cfg);
    let p = w.placement();
    assert_eq!(p.racks, 8);
    for node in 0..64u32 {
        assert_eq!(p.rack_of(node), node / 8, "node {node}");
    }
    assert_eq!(p.max_hops, 6);
}
