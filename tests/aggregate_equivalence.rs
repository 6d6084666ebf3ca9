//! Statistical-equivalence regression test for the aggregate client
//! model (`ClusterConfig::client_model = Aggregate`).
//!
//! The aggregate engine deliberately trades bit-identity with the exact
//! per-terminal driver for O(active-transaction) state: each node's N
//! closed-loop terminals collapse into one arrival process (the
//! superposition of N exponential think-time clocks, re-armed at every
//! dispatch and completion edge), and the one-connection-per-terminal
//! TCP fan-in collapses into a pooled multiplexer of
//! `client_conns_per_node` long-lived connections with a FIFO admission
//! queue whose wait is folded into measured response time (see
//! DESIGN.md §14). The contract is therefore *statistical* — the same
//! ladder the segment-train fast path is held to: over the harness seed ladder, an aggregate run must reproduce
//! the exact driver's steady-state throughput, latency and abort
//! behaviour at matched populations.
//!
//! Tolerances (on seed-ladder means, documented in EXPERIMENTS.md):
//!   - committed throughput (tpmc_scaled): within 10%
//!   - mean transaction latency:           within 15%
//!   - p95 transaction latency:            within 25%
//!   - abort rate (aborted/committed):     within 2 percentage points

#![allow(clippy::field_reassign_with_default)] // config-mutation is the intended API pattern

use dclue_cluster::config::ClientModel;
use dclue_cluster::{sweep, ClusterConfig, World};
use dclue_fault::FaultPlan;
use dclue_sim::Duration;

/// Seeds 42, 1042, … — the same ladder the sweep harness uses. Three
/// rungs: the equivalence bands are statistical, and near the CPU
/// feedback knee (the coherence-heavy configuration runs at ~0.8
/// utilization) a two-seed mean still carries enough variance to brush
/// the latency band in either direction.
const SEEDS: u64 = 3;

struct Summary {
    tpmc: f64,
    latency_ms: f64,
    p95_ms: f64,
    abort_rate: f64,
}

fn run_ladder(base: &ClusterConfig, model: ClientModel) -> Summary {
    let mut acc = Summary {
        tpmc: 0.0,
        latency_ms: 0.0,
        p95_ms: 0.0,
        abort_rate: 0.0,
    };
    for s in 0..SEEDS {
        let mut cfg = base.clone();
        cfg.seed = sweep::seed_for(s);
        cfg.client_model = model;
        let r = World::new(cfg).run();
        acc.tpmc += r.tpmc_scaled;
        acc.latency_ms += r.txn_latency_ms;
        acc.p95_ms += r.txn_latency_p95_ms;
        acc.abort_rate += r.aborted as f64 / (r.committed + r.aborted).max(1) as f64;
    }
    let n = SEEDS as f64;
    Summary {
        tpmc: acc.tpmc / n,
        latency_ms: acc.latency_ms / n,
        p95_ms: acc.p95_ms / n,
        abort_rate: acc.abort_rate / n,
    }
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-9);
    (a - b).abs() / denom <= tol
}

fn assert_equivalent(name: &str, exact: &Summary, agg: &Summary) {
    eprintln!(
        "[{name}] exact:     tpmc={:.0} lat={:.1}ms p95={:.1}ms abort={:.4}",
        exact.tpmc, exact.latency_ms, exact.p95_ms, exact.abort_rate
    );
    eprintln!(
        "[{name}] aggregate: tpmc={:.0} lat={:.1}ms p95={:.1}ms abort={:.4}",
        agg.tpmc, agg.latency_ms, agg.p95_ms, agg.abort_rate
    );
    assert!(
        rel_close(exact.tpmc, agg.tpmc, 0.10),
        "{name}: throughput diverged: exact={:.0} aggregate={:.0}",
        exact.tpmc,
        agg.tpmc
    );
    assert!(
        rel_close(exact.latency_ms, agg.latency_ms, 0.15),
        "{name}: mean latency diverged: exact={:.2}ms aggregate={:.2}ms",
        exact.latency_ms,
        agg.latency_ms
    );
    assert!(
        rel_close(exact.p95_ms, agg.p95_ms, 0.25),
        "{name}: p95 latency diverged: exact={:.2}ms aggregate={:.2}ms",
        exact.p95_ms,
        agg.p95_ms
    );
    assert!(
        (exact.abort_rate - agg.abort_rate).abs() <= 0.02,
        "{name}: abort rate diverged: exact={:.4} aggregate={:.4}",
        exact.abort_rate,
        agg.abort_rate
    );
}

fn quick(base: ClusterConfig) -> ClusterConfig {
    let mut cfg = base;
    cfg.warmup = Duration::from_secs(10);
    cfg.measure = Duration::from_secs(15);
    cfg
}

#[test]
fn aggregate_matches_exact_on_small_cluster() {
    // cluster_n4_a08: the well-partitioned regime; with the default
    // 200-terminal population per node the connection pool is far from
    // saturation, where the aggregate arrival process is exact by the
    // memorylessness of exponential think times.
    let mut cfg = quick(ClusterConfig::default());
    cfg.nodes = 4;
    cfg.affinity = 0.8;
    let exact = run_ladder(&cfg, ClientModel::Exact);
    let agg = run_ladder(&cfg, ClientModel::Aggregate);
    assert_equivalent("cluster_n4_a08", &exact, &agg);
}

#[test]
fn aggregate_matches_exact_on_coherence_heavy_cluster() {
    // cluster_n8_a05: every other transaction lands off-home, so the
    // pooled multiplexer carries heavy cross-node fan-out and the
    // failover/abort paths see real traffic.
    let mut cfg = quick(ClusterConfig::default());
    cfg.nodes = 8;
    cfg.affinity = 0.5;
    let exact = run_ladder(&cfg, ClientModel::Exact);
    let agg = run_ladder(&cfg, ClientModel::Aggregate);
    assert_equivalent("cluster_n8_a05", &exact, &agg);
}

#[test]
fn aggregate_matches_exact_under_node_crash() {
    // A mid-run crash and restart: pooled connections to the dead node
    // are reaped, their in-flight terminals return to the thinking
    // population, and the arrival process keeps running for the
    // survivors — the aggregate driver must reproduce the exact
    // driver's availability dip and recovery.
    let mut cfg = quick(ClusterConfig::default());
    cfg.nodes = 8;
    cfg.affinity = 0.8;
    cfg.fault_plan =
        FaultPlan::none().node_outage(1, Duration::from_secs(14), Duration::from_secs(4));
    let exact = run_ladder(&cfg, ClientModel::Exact);
    let agg = run_ladder(&cfg, ClientModel::Aggregate);
    assert_equivalent("crash_n8", &exact, &agg);
    // The aggregate engine must actually apply the fault and report an
    // availability analysis.
    let mut probe = cfg.clone();
    probe.client_model = ClientModel::Aggregate;
    let r = World::new(probe).run();
    assert!(r.fault_events_applied >= 2, "fault plan did not fire");
    assert!(r.availability.is_some(), "availability analysis missing");
}

#[test]
fn aggregate_preserves_population_at_every_edge() {
    // Conservation property: thinking + woken-head + in-flight equals
    // the configured population at every dispatch and completion edge.
    // A starved pool (one connection per node, terminals an order of
    // magnitude above it, near-zero think time) forces the FIFO queue
    // and the deep-saturation re-arm paths; the per-edge accounting is
    // enforced by `debug_assert`s inside the driver, which are active
    // in this (debug-built) test — any violation panics the run. The
    // post-run check below re-asserts the invariant from the public
    // counters and that the driver state stayed O(active transactions).
    let mut cfg = quick(ClusterConfig::default());
    cfg.nodes = 4;
    cfg.affinity = 0.8;
    cfg.clients_per_node = 64;
    cfg.client_conns_per_node = 1;
    cfg.think_time = Duration::from_millis(100);
    cfg.client_model = ClientModel::Aggregate;
    cfg.validate().expect("starved-pool config");
    let mut w = World::new(cfg.clone());
    let report = w.run();
    assert!(report.committed > 0, "starved pool produced no commits");
    let pop_per_node = cfg.clients_per_node as u64;
    for (node, &(population, thinking, head, inflight)) in w.agg_counters().iter().enumerate() {
        assert_eq!(
            population, pop_per_node,
            "node {node}: population drifted from the configured terminal count"
        );
        assert_eq!(
            thinking + head + inflight,
            population,
            "node {node}: terminals leaked (thinking={thinking} head={head} inflight={inflight})"
        );
        assert!(
            inflight <= cfg.client_conns_per_node as u64,
            "node {node}: in-flight exceeds the connection pool"
        );
    }
    // O(active-txn) driver state: slot count is bounded by the pool
    // fan-in, never the terminal population.
    let max_slots = (cfg.nodes * cfg.client_conns_per_node) as usize;
    assert!(
        w.driver_slots() <= max_slots,
        "driver materialized {} slots for {} pooled connections",
        w.driver_slots(),
        max_slots
    );
}

/// Cost of one n = 16, affinity 0.8 run at seed 42 with
/// `clients_per_node` terminals under `model`, and its pool bound.
struct Population {
    events: u64,
    committed: u64,
    driver_slots: usize,
    /// `nodes × client_conns_per_node`: the most sessions the pooled
    /// driver can hold at once.
    slot_cap: usize,
}

fn run_population(clients_per_node: u32, model: ClientModel) -> Population {
    let mut cfg = quick(ClusterConfig::default());
    cfg.nodes = 16;
    cfg.affinity = 0.8;
    cfg.clients_per_node = clients_per_node;
    cfg.client_model = model;
    let slot_cap = (cfg.nodes * cfg.client_conns_per_node) as usize;
    let mut w = World::new(cfg);
    let committed = w.run().committed;
    Population {
        events: w.events_processed(),
        committed,
        driver_slots: w.driver_slots(),
        slot_cap,
    }
}

impl Population {
    fn events_per_committed(&self) -> f64 {
        self.events as f64 / self.committed.max(1) as f64
    }

    fn assert_pool_bounded(&self, what: &str) {
        assert!(
            self.driver_slots <= self.slot_cap,
            "{what}: aggregate driver holds {} slots, over the pool bound {}: its state is \
             no longer O(active transactions)",
            self.driver_slots,
            self.slot_cap
        );
    }
}

#[test]
fn aggregate_cuts_events_per_committed_tenfold_at_10k_terminals() {
    // At 10k terminals per node the exact driver's per-terminal timers,
    // handshakes and thrash-collapsed server cost ~12.4k events per
    // committed transaction; the aggregate driver spends ~1.1k (11.4x
    // when this bound was set). Deterministic per config and seed.
    let exact = run_population(10_000, ClientModel::Exact);
    let agg = run_population(10_000, ClientModel::Aggregate);
    let ratio = exact.events_per_committed() / agg.events_per_committed();
    eprintln!(
        "[n16 10k/node] events/committed exact={:.1} aggregate={:.1} ratio={ratio:.2}",
        exact.events_per_committed(),
        agg.events_per_committed()
    );
    assert!(
        ratio >= 10.0,
        "aggregate clients cut events per committed only {ratio:.2}x vs exact at 10k \
         terminals/node (exact {:.1}, aggregate {:.1}); the bound is 10x",
        exact.events_per_committed(),
        agg.events_per_committed()
    );
    agg.assert_pool_bounded("10k terminals/node");
}

#[test]
fn aggregate_driver_slots_bounded_by_pool_at_a_million_terminals() {
    // 16M terminals: driver state must stay O(active transactions),
    // bounded by the connection pool, not by the population.
    let agg = run_population(1_000_000, ClientModel::Aggregate);
    assert!(
        agg.committed > 0,
        "a million terminals per node committed nothing"
    );
    agg.assert_pool_bounded("1M terminals/node");
}
