//! Determinism regression: the worker pool must reproduce the serial
//! harness bit for bit.
//!
//! `World::run` is a pure function of its config, and the pool returns
//! results in submission order — so the same (config, seed) bag must
//! yield identical [`Report`]s whatever `jobs` is. This is the contract
//! that lets `figures --jobs N` claim byte-identical output, and it is
//! exactly what would break if sweep code ever grew cross-run shared
//! state (a global RNG, a shared cache, out-of-order collection).

#![allow(clippy::field_reassign_with_default)] // config-mutation is the intended API pattern

use dclue_cluster::{sweep, ClusterConfig, World};
use dclue_fault::FaultPlan;
use dclue_sim::Duration;

/// A short but non-trivial config: long enough to commit transactions
/// and exercise IPC, locking and storage paths.
fn short_cfg(nodes: u32, affinity: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.nodes = nodes;
    cfg.affinity = affinity;
    cfg.warmup = Duration::from_secs(2);
    cfg.measure = Duration::from_secs(4);
    cfg
}

fn grid() -> Vec<ClusterConfig> {
    let mut cfgs = Vec::new();
    for &n in &[1u32, 2, 4] {
        for &a in &[0.8, 0.5] {
            cfgs.push(short_cfg(n, a));
        }
    }
    cfgs
}

#[test]
fn pool_reports_are_bit_identical_to_serial() {
    let serial = sweep::run_many(1, grid());
    for jobs in [2, 3, 8] {
        let pooled = sweep::run_many(jobs, grid());
        assert_eq!(serial, pooled, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn pool_matches_the_legacy_serial_loop() {
    // The pre-pool harness shape: a plain for-loop over World::run.
    let legacy: Vec<_> = grid().into_iter().map(|c| World::new(c).run()).collect();
    let pooled = sweep::run_many(4, grid());
    assert_eq!(legacy, pooled);
}

#[test]
fn seed_averaging_is_jobs_invariant() {
    let cfgs = [short_cfg(2, 0.8), short_cfg(2, 0.5)];
    let serial = sweep::run_avg_many(1, &cfgs, 2);
    let pooled = sweep::run_avg_many(4, &cfgs, 2);
    assert_eq!(serial, pooled);
    // And the averaged rows line up with hand-expanded seed runs.
    let by_hand: Vec<_> = cfgs
        .iter()
        .map(|c| sweep::average(&sweep::run_many(1, sweep::expand_seeds(c, 2))))
        .collect();
    assert_eq!(by_hand, pooled);
}

#[test]
fn fault_transients_survive_the_pool() {
    // Availability analysis is derived from the committed-transaction
    // timeline — the most fragile output to reorder. Run the same
    // faulted config serially and pooled; the whole Report (including
    // the availability phases) must match exactly.
    let mut cfg = short_cfg(4, 0.8);
    cfg.warmup = Duration::from_secs(2);
    cfg.measure = Duration::from_secs(8);
    cfg.fault_plan =
        FaultPlan::none().node_outage(1, Duration::from_secs(5), Duration::from_secs(2));
    let bag = vec![cfg.clone(), cfg];
    let serial = sweep::run_many(1, bag.clone());
    let pooled = sweep::run_many(2, bag);
    assert!(
        serial[0].availability.is_some(),
        "fault plan must produce an availability analysis"
    );
    assert_eq!(serial, pooled);
    // Two identical configs must also agree with each other (pure run).
    assert_eq!(serial[0], serial[1]);
}
