//! Parallel sweep execution over independent `(config, seed)` points.
//!
//! `World::run` is a pure function of its config (the seed is a config
//! field), so a sweep is an embarrassingly parallel bag of tasks. This
//! module is the one place that turns a bag of configs into a bag of
//! [`Report`]s through the [`dclue_sim::par`] worker pool, preserving
//! the determinism contract: results come back in **submission order**,
//! and with `jobs == 1` the pool is bypassed for the exact legacy
//! serial loop. Every harness that prints or averages sweep output
//! (figures binary, examples, tests) goes through here so they
//! all inherit the same ordering guarantee.

use crate::{ClusterConfig, Report};

pub use dclue_sim::par::resolve_jobs;
use dclue_sim::par::run_ordered;

/// The harness seed ladder: seed index `s` runs with `42 + s * 1000`.
/// (Kept as a function so figures, examples and tests can't drift.)
pub fn seed_for(s: u64) -> u64 {
    42 + s * 1000
}

/// Expand one config into its `seeds` seed-variants, in seed order.
pub fn expand_seeds(cfg: &ClusterConfig, seeds: u64) -> Vec<ClusterConfig> {
    (0..seeds.max(1))
        .map(|s| {
            let mut c = cfg.clone();
            c.seed = seed_for(s);
            c
        })
        .collect()
}

/// Run every config across `jobs` workers; reports in submission order.
/// Each point is one serial simulation, `World::new(cfg).run()`.
pub fn run_many(jobs: usize, cfgs: Vec<ClusterConfig>) -> Vec<Report> {
    run_ordered(jobs, cfgs, |cfg| crate::World::new(cfg).run())
}

/// Run each config across `seeds` seeds (all points share one pool) and
/// average each config's reports. Output index `i` corresponds to
/// `cfgs[i]`, exactly as a serial per-config loop would produce.
pub fn run_avg_many(jobs: usize, cfgs: &[ClusterConfig], seeds: u64) -> Vec<Report> {
    let seeds = seeds.max(1) as usize;
    let tasks: Vec<ClusterConfig> = cfgs
        .iter()
        .flat_map(|c| expand_seeds(c, seeds as u64))
        .collect();
    let reports = run_many(jobs, tasks);
    reports.chunks(seeds).map(average).collect()
}

/// Average one config's seed runs: every `f64` series is the mean, and
/// every `u64` counter the integer mean rounded to nearest. The config
/// echoes (`nodes`, `affinity`, `window_s`), `max_path_hops` (a property
/// of the built fabric), `availability` and `timeline` are seed 0's.
/// With a single report this is an exact pass-through.
pub fn average(reports: &[Report]) -> Report {
    assert!(!reports.is_empty(), "cannot average zero reports");
    let mut r = reports[0].clone();
    if reports.len() == 1 {
        return r;
    }
    let n = reports.len();
    macro_rules! avg {
        ($($f:ident),*) => {
            $( r.$f = reports.iter().map(|x| x.$f).sum::<f64>() / n as f64; )*
        };
    }
    macro_rules! avg_count {
        ($($f:ident),*) => {
            $( r.$f = (reports.iter().map(|x| x.$f).sum::<u64>() + n as u64 / 2) / n as u64; )*
        };
    }
    avg! {
        tpmc_scaled, tpmc_equivalent, tps_scaled, ctl_msgs_per_txn, data_msgs_per_txn,
        storage_msgs_per_txn, lock_waits_per_txn, lock_busies_per_txn, lock_wait_ms,
        txn_latency_ms, txn_latency_p95_ms, avg_cpi, avg_cs_cycles, avg_live_threads, cpu_util,
        buffer_hit_ratio, fusion_transfers_per_txn, lease_transfers_per_txn,
        lease_renewals_per_txn, disk_reads_per_txn, version_walks_per_txn,
        versions_created_per_txn, trunk_mbps, trunk_utilization, trunk_mbps_edge,
        trunk_utilization_edge, trunk_mbps_agg, trunk_utilization_agg, ftp_mbps
    }
    avg_count! {
        committed, aborted, ftp_denied, ipc_resets, drops, fault_events_applied,
        aborted_by_fault, iscsi_retries, fault_drops
    }
    r
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config/report mutation is the intended API pattern
mod tests {
    use super::*;

    #[test]
    fn seed_ladder_is_fixed() {
        assert_eq!(seed_for(0), 42);
        assert_eq!(seed_for(1), 1042);
        assert_eq!(seed_for(3), 3042);
    }

    #[test]
    fn expand_orders_by_seed() {
        let cfg = ClusterConfig::default();
        let v = expand_seeds(&cfg, 3);
        assert_eq!(
            v.iter().map(|c| c.seed).collect::<Vec<_>>(),
            vec![42, 1042, 2042]
        );
        // Zero seeds is treated as one.
        assert_eq!(expand_seeds(&cfg, 0).len(), 1);
    }

    #[test]
    fn average_of_one_is_identity() {
        let mut r = Report::default();
        r.tpmc_scaled = 123.0;
        r.committed = 77;
        let a = average(&[r.clone()]);
        assert_eq!(a, r);
    }

    #[test]
    fn average_means_the_series() {
        let mut a = Report::default();
        let mut b = Report::default();
        a.tpmc_scaled = 100.0;
        b.tpmc_scaled = 300.0;
        a.cpu_util = 0.5;
        b.cpu_util = 1.0;
        let m = average(&[a, b]);
        assert_eq!(m.tpmc_scaled, 200.0);
        assert_eq!(m.cpu_util, 0.75);
    }

    #[test]
    fn average_means_every_series_and_counter() {
        let a = Report {
            txn_latency_p95_ms: 10.0,
            trunk_utilization_agg: 0.25,
            drops: 10,
            committed: 100,
            max_path_hops: 4,
            ..Report::default()
        };
        let b = Report {
            txn_latency_p95_ms: 20.0,
            trunk_utilization_agg: 0.75,
            drops: 21, // a mean of 15.5 rounds to 16
            committed: 200,
            max_path_hops: 6,
            ..Report::default()
        };
        let m = average(&[a, b]);
        assert_eq!((m.txn_latency_p95_ms, m.trunk_utilization_agg), (15.0, 0.5));
        assert_eq!((m.drops, m.committed), (16, 150));
        assert_eq!(m.max_path_hops, 4, "seed 0's fabric property");
    }
}
