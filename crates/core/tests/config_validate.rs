//! One test per `ClusterConfig::validate` rejection rule, plus the
//! happy paths. Each rejection asserts the error message names the
//! offending knob — the harness binaries print these verbatim, so they
//! must stay actionable.

#![allow(clippy::field_reassign_with_default)] // config-mutation is the intended API pattern

use dclue_cluster::config::LogPlacement;
use dclue_cluster::{ClusterConfig, FabricShape, ProtocolKind, QosPolicy};
use dclue_sim::Duration;

fn err_for(mutate: impl FnOnce(&mut ClusterConfig)) -> String {
    let mut cfg = ClusterConfig::default();
    mutate(&mut cfg);
    cfg.validate()
        .expect_err("config should have been rejected")
}

#[test]
fn default_config_validates() {
    assert_eq!(ClusterConfig::default().validate(), Ok(()));
}

#[test]
fn every_figure_grid_point_validates() {
    // The extremes the figures harness actually sweeps.
    for (nodes, latas, affinity) in [(1u32, 0u32, 1.0), (24, 0, 0.0), (8, 2, 0.5), (16, 2, 0.8)] {
        let mut cfg = ClusterConfig::default();
        cfg.nodes = nodes;
        cfg.latas = latas;
        cfg.affinity = affinity;
        assert_eq!(cfg.validate(), Ok(()), "n={nodes} latas={latas}");
    }
}

#[test]
fn rejects_zero_nodes() {
    assert!(err_for(|c| c.nodes = 0).contains("nodes"));
}

#[test]
fn rejects_more_latas_than_nodes() {
    let e = err_for(|c| {
        c.nodes = 2;
        c.latas = 4;
    });
    assert!(e.contains("latas"), "{e}");
}

#[test]
fn rejects_uneven_lata_split() {
    let e = err_for(|c| {
        c.nodes = 9;
        c.latas = 2;
    });
    assert!(e.contains("evenly"), "{e}");
    // The message suggests the two nearest valid node counts.
    assert!(e.contains('8') && e.contains("10"), "{e}");
}

#[test]
fn rejects_affinity_outside_unit_interval() {
    assert!(err_for(|c| c.affinity = 1.5).contains("affinity"));
    assert!(err_for(|c| c.affinity = -0.1).contains("affinity"));
}

#[test]
fn rejects_bad_buffer_fraction() {
    assert!(err_for(|c| c.buffer_fraction = 0.0).contains("buffer_fraction"));
    assert!(err_for(|c| c.buffer_fraction = 1.5).contains("buffer_fraction"));
}

#[test]
fn rejects_empty_nodes() {
    assert!(err_for(|c| c.warehouses_per_node = 0).contains("warehouses_per_node"));
    assert!(err_for(|c| c.clients_per_node = 0).contains("clients_per_node"));
}

#[test]
fn rejects_zero_spindles() {
    assert!(err_for(|c| c.data_spindles = 0).contains("spindles"));
    assert!(err_for(|c| c.log_spindles = 0).contains("spindles"));
}

#[test]
fn rejects_zero_measure_window() {
    assert!(err_for(|c| c.measure = Duration::ZERO).contains("measure"));
}

#[test]
fn rejects_degenerate_wfq_weight() {
    for w in [0.0, 1.0, -0.3, 1.7] {
        let e = err_for(|c| c.qos = QosPolicy::FtpWfq { af_weight: w });
        assert!(e.contains("af_weight"), "{e}");
    }
}

#[test]
fn rejects_nonpositive_autonomic_tolerance() {
    let e = err_for(|c| c.qos = QosPolicy::Autonomic { tolerance: 0.0 });
    assert!(e.contains("tolerance"), "{e}");
}

#[test]
fn rejects_group_commit_on_multinode_central_log() {
    let e = err_for(|c| {
        c.group_commit = true;
        c.log_placement = LogPlacement::Central;
        c.nodes = 4;
    });
    assert!(e.contains("group_commit"), "{e}");
    // The same pair is fine on a single node (no remote committers).
    let mut cfg = ClusterConfig::default();
    cfg.group_commit = true;
    cfg.log_placement = LogPlacement::Central;
    cfg.nodes = 1;
    assert_eq!(cfg.validate(), Ok(()));
}

#[test]
fn rejects_chaos_reset_on_train_engine() {
    let e = err_for(|c| {
        c.exact = false;
        c.chaos_ipc_reset_at = Some(Duration::from_secs(5));
    });
    assert!(e.contains("chaos_ipc_reset_at"), "{e}");
    let mut cfg = ClusterConfig::default();
    cfg.exact = true;
    cfg.chaos_ipc_reset_at = Some(Duration::from_secs(5));
    assert_eq!(cfg.validate(), Ok(()));
}

#[test]
fn rejects_read_leases_without_mvcc() {
    let e = err_for(|c| {
        c.protocol = ProtocolKind::MvccReadLease;
        c.mvcc = false;
    });
    assert!(e.contains("mvcc"), "{e}");
    let mut cfg = ClusterConfig::default();
    cfg.protocol = ProtocolKind::MvccReadLease;
    assert_eq!(cfg.validate(), Ok(()));
}

#[test]
fn rejects_zero_client_pool() {
    let e = err_for(|c| c.client_conns_per_node = 0);
    assert!(e.contains("client_conns_per_node"), "{e}");
}

#[test]
fn rejects_chaos_reset_under_aggregate_clients() {
    use dclue_cluster::config::ClientModel;
    let e = err_for(|c| {
        c.client_model = ClientModel::Aggregate;
        c.chaos_ipc_reset_at = Some(Duration::from_secs(5));
    });
    assert!(e.contains("client_model"), "{e}");
    // Aggregate without the chaos hook is fine.
    let mut cfg = ClusterConfig::default();
    cfg.client_model = ClientModel::Aggregate;
    assert_eq!(cfg.validate(), Ok(()));
}

fn hier(nodes: u32, nodes_per_edge: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.topology = FabricShape::Hierarchical;
    cfg.nodes = nodes;
    cfg.nodes_per_edge = nodes_per_edge;
    cfg
}

#[test]
fn hierarchical_happy_path_validates() {
    let mut cfg = hier(64, 8);
    cfg.agg_switches = 2;
    cfg.uplinks = 2;
    assert_eq!(cfg.validate(), Ok(()));
}

#[test]
fn hierarchical_rejects_latas() {
    let e = err_for(|c| {
        *c = hier(16, 4);
        c.latas = 2;
    });
    assert!(e.contains("latas"), "{e}");
}

#[test]
fn hierarchical_rejects_missing_rack_size() {
    let e = err_for(|c| *c = hier(16, 0));
    assert!(e.contains("nodes_per_edge"), "{e}");
}

#[test]
fn hierarchical_rejects_partial_racks() {
    let e = err_for(|c| *c = hier(10, 4));
    assert!(e.contains("evenly"), "{e}");
    // The message suggests the two nearest valid node counts.
    assert!(e.contains('8') && e.contains("12"), "{e}");
}

#[test]
fn hierarchical_rejects_degenerate_tiers() {
    let e = err_for(|c| {
        *c = hier(16, 4);
        c.agg_switches = 0;
    });
    assert!(e.contains("agg_switches"), "{e}");
    let e = err_for(|c| {
        *c = hier(16, 4);
        c.agg_switches = 8; // more agg switches than edge switches
    });
    assert!(e.contains("agg_switches"), "{e}");
    let e = err_for(|c| {
        *c = hier(16, 4);
        c.uplinks = 0;
    });
    assert!(e.contains("uplinks"), "{e}");
}

#[test]
fn paper_shape_ignores_hierarchical_knobs() {
    // The hierarchical knobs are inert under the paper shape — a
    // sweep can leave them set while flipping the shape off.
    let mut cfg = ClusterConfig::default();
    cfg.nodes_per_edge = 7; // would be a partial rack if it counted
    cfg.uplinks = 0;
    assert_eq!(cfg.validate(), Ok(()));
}
