//! Statistical-equivalence regression test for the segment-train fast
//! path (`ClusterConfig::exact = false`).
//!
//! Trains deliberately trade bit-identity for event count: a burst of
//! back-to-back bulk segments rides the fabric as one event and only
//! splits where the network could have treated members differently
//! (see DESIGN.md, "The hybrid train model"). The contract is therefore
//! *statistical*: over a small seed ladder, train mode must reproduce
//! the same steady-state throughput, latency and abort behaviour as the
//! segment-exact engine, while processing far fewer events.
//!
//! Tolerances (on seed-ladder means, documented in EXPERIMENTS.md):
//!   - committed throughput (tpmc_scaled): within 10%
//!   - mean transaction latency:           within 15%
//!   - p95 transaction latency:            within 25%
//!   - abort rate (aborted/committed):     within 2 percentage points
//!   - FTP goodput (QoS scenario):         within 15%
//!
//! The event-count floor is part of the same contract: if a refactor
//! quietly stops coalescing (or starts splitting every train), the
//! fast path has regressed even if the statistics still agree.
//!
//! The same seed-42 runs also hold the engine to a deterministic cost
//! budget ([`BUDGETS`]): exact-engine events per committed transaction,
//! and a train-mode event ceiling. Event counts do not drift with the
//! host the way wall clock does, so these are exact regression gates.

use dclue_cluster::{sweep, ClusterConfig, QosPolicy, World};
use dclue_fault::FaultPlan;
use dclue_sim::Duration;

/// Seeds 42, 1042, … — the same ladder the sweep harness uses.
const SEEDS: u64 = 2;

/// One scenario's cost budget, checked on its seed-42 runs.
struct Budget {
    scenario: &'static str,
    /// Ceiling on exact-engine events per committed transaction: the
    /// value measured when the budget was set, plus 10%.
    exact_events_per_committed: f64,
    /// Where it applies, the train-mode event count of the same run
    /// before the engine cancelled dead timers at re-arm and coalesced
    /// segment trains; train mode must stay at least 30% below it.
    train_events_before: Option<u64>,
}

/// Measured exact events per committed, at the time the budgets were
/// set: 128.8, 1034.6, 767.2, 1359.6 and 495.6; train-mode events
/// 602,004, 1,137,940 and 652,554 against the ceilings below.
const BUDGETS: [Budget; 5] = [
    Budget {
        scenario: "baseline_n1",
        exact_events_per_committed: 142.0,
        train_events_before: None,
    },
    Budget {
        scenario: "cluster_n8_a05",
        exact_events_per_committed: 1139.0,
        train_events_before: Some(1_356_626),
    },
    Budget {
        scenario: "cluster_n16_a08",
        exact_events_per_committed: 844.0,
        train_events_before: Some(2_106_387),
    },
    Budget {
        scenario: "qos_ftp_n8",
        exact_events_per_committed: 1496.0,
        train_events_before: Some(947_674),
    },
    Budget {
        scenario: "fault_crash_n4",
        exact_events_per_committed: 546.0,
        train_events_before: None,
    },
];

/// The budgeted scenarios, on 10 s warm-up and 15 s measured windows
/// with the default seed (42).
fn scenario(name: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        warmup: Duration::from_secs(10),
        measure: Duration::from_secs(15),
        ..ClusterConfig::default()
    };
    match name {
        // The paper's calibration point: one unclustered node.
        "baseline_n1" => {
            cfg.nodes = 1;
            cfg.affinity = 1.0;
        }
        // The coherence-heavy regime: lots of short lock and fusion
        // IPC, modest bulk traffic.
        "cluster_n8_a05" => {
            cfg.nodes = 8;
            cfg.affinity = 0.5;
        }
        // The paper's largest cluster at its headline affinity.
        "cluster_n16_a08" => {
            cfg.nodes = 16;
            cfg.affinity = 0.8;
        }
        // Two latas with priority FTP at the starvation point: QoS,
        // trunk queueing and cross-traffic all hot.
        "qos_ftp_n8" => {
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.affinity = 0.8;
            cfg.trunk_bw = 6e6;
            cfg.qos = QosPolicy::FtpPriority;
            cfg.ftp_offered_bps = 6e6;
        }
        // A node crash mid-measurement: remastering freeze and client
        // failover on top of the normal engine.
        "fault_crash_n4" => {
            cfg.nodes = 4;
            cfg.affinity = 0.8;
            cfg.fault_plan =
                FaultPlan::none().node_outage(1, Duration::from_secs(17), Duration::from_secs(4));
        }
        other => panic!("unknown scenario '{other}'"),
    }
    cfg
}

/// Events processed and transactions committed by one run.
#[derive(Clone, Copy, Default)]
struct Cost {
    events: u64,
    committed: u64,
}

fn run_cost(cfg: ClusterConfig) -> Cost {
    let mut w = World::new(cfg);
    let committed = w.run().committed;
    Cost {
        events: w.events_processed(),
        committed,
    }
}

/// Hold `name`'s seed-42 exact run (and train run, where the row has a
/// ceiling) to its [`BUDGETS`] row.
fn assert_within_budget(name: &str, exact: Cost, train: Option<Cost>) {
    let b = BUDGETS
        .iter()
        .find(|b| b.scenario == name)
        .unwrap_or_else(|| panic!("no budget for '{name}'"));
    let per_committed = exact.events as f64 / exact.committed.max(1) as f64;
    eprintln!("[{name}] exact events/committed = {per_committed:.1}");
    assert!(
        per_committed <= b.exact_events_per_committed,
        "{name}: exact engine spends {per_committed:.1} events per committed transaction, \
         over its budget of {}",
        b.exact_events_per_committed
    );
    if let Some(before) = b.train_events_before {
        let train = train.expect("a train run for a row with a train ceiling");
        assert!(
            train.events as f64 <= 0.70 * before as f64,
            "{name}: train mode processed {} events, not 30% below the {before} of the \
             engine without dead-timer cancellation and segment trains",
            train.events
        );
    }
}

struct Summary {
    tpmc: f64,
    latency_ms: f64,
    p95_ms: f64,
    abort_rate: f64,
    ftp_mbps: f64,
    events: f64,
    /// The seed-42 run alone, for [`assert_within_budget`].
    seed0: Cost,
}

fn run_ladder(base: &ClusterConfig, exact: bool) -> Summary {
    let mut acc = Summary {
        tpmc: 0.0,
        latency_ms: 0.0,
        p95_ms: 0.0,
        abort_rate: 0.0,
        ftp_mbps: 0.0,
        events: 0.0,
        seed0: Cost::default(),
    };
    for s in 0..SEEDS {
        let mut cfg = base.clone();
        cfg.seed = sweep::seed_for(s);
        cfg.exact = exact;
        let mut w = World::new(cfg);
        let r = w.run();
        acc.tpmc += r.tpmc_scaled;
        acc.latency_ms += r.txn_latency_ms;
        acc.p95_ms += r.txn_latency_p95_ms;
        acc.abort_rate += r.aborted as f64 / (r.committed + r.aborted).max(1) as f64;
        acc.ftp_mbps += r.ftp_mbps;
        acc.events += w.events_processed() as f64;
        if s == 0 {
            acc.seed0 = Cost {
                events: w.events_processed(),
                committed: r.committed,
            };
        }
    }
    let n = SEEDS as f64;
    Summary {
        tpmc: acc.tpmc / n,
        latency_ms: acc.latency_ms / n,
        p95_ms: acc.p95_ms / n,
        abort_rate: acc.abort_rate / n,
        ftp_mbps: acc.ftp_mbps / n,
        events: acc.events / n,
        seed0: acc.seed0,
    }
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-9);
    (a - b).abs() / denom <= tol
}

fn assert_equivalent(name: &str, exact: &Summary, train: &Summary, check_ftp: bool) {
    eprintln!(
        "[{name}] exact: tpmc={:.0} lat={:.1}ms p95={:.1}ms abort={:.4} ftp={:.2} events={:.0}",
        exact.tpmc, exact.latency_ms, exact.p95_ms, exact.abort_rate, exact.ftp_mbps, exact.events
    );
    eprintln!(
        "[{name}] train: tpmc={:.0} lat={:.1}ms p95={:.1}ms abort={:.4} ftp={:.2} events={:.0}",
        train.tpmc, train.latency_ms, train.p95_ms, train.abort_rate, train.ftp_mbps, train.events
    );
    assert!(
        rel_close(exact.tpmc, train.tpmc, 0.10),
        "{name}: throughput diverged: exact={:.0} train={:.0}",
        exact.tpmc,
        train.tpmc
    );
    assert!(
        rel_close(exact.latency_ms, train.latency_ms, 0.15),
        "{name}: mean latency diverged: exact={:.2}ms train={:.2}ms",
        exact.latency_ms,
        train.latency_ms
    );
    assert!(
        rel_close(exact.p95_ms, train.p95_ms, 0.25),
        "{name}: p95 latency diverged: exact={:.2}ms train={:.2}ms",
        exact.p95_ms,
        train.p95_ms
    );
    assert!(
        (exact.abort_rate - train.abort_rate).abs() <= 0.02,
        "{name}: abort rate diverged: exact={:.4} train={:.4}",
        exact.abort_rate,
        train.abort_rate
    );
    if check_ftp {
        assert!(
            rel_close(exact.ftp_mbps, train.ftp_mbps, 0.15),
            "{name}: FTP goodput diverged: exact={:.2} train={:.2}",
            exact.ftp_mbps,
            train.ftp_mbps
        );
    }
}

/// Run `name` on the seed ladder in both engines and hold the train
/// tier to the exact one; the seed-42 runs are held to the budget.
fn ladder(name: &str, check_ftp: bool) -> (Summary, Summary) {
    let cfg = scenario(name);
    let exact = run_ladder(&cfg, true);
    let train = run_ladder(&cfg, false);
    assert_equivalent(name, &exact, &train, check_ftp);
    assert_within_budget(name, exact.seed0, Some(train.seed0));
    (exact, train)
}

#[test]
fn trains_match_exact_on_coherence_heavy_cluster() {
    // Trains mostly help the storage/log flows here.
    let (exact, train) = ladder("cluster_n8_a05", false);
    // Measured ~0.51 (trains + virtual-time FIFO ports); 0.65 leaves
    // headroom for seed variation while still catching a regression
    // that disables either mechanism.
    assert!(
        train.events <= 0.65 * exact.events,
        "train mode must cut events >=35% on cluster_n8_a05: exact={:.0} train={:.0}",
        exact.events,
        train.events
    );
}

#[test]
fn trains_match_exact_on_qos_ftp_scenario() {
    // The bulk-transfer-dominated scenario the fast path targets.
    let (exact, train) = ladder("qos_ftp_n8", true);
    // Measured ~0.74 against the same-engine exact mode: the event mass
    // here is small-segment DB traffic behind strict-priority router
    // ports, which neither trains nor the virtual-time transmitter may
    // touch without corrupting the QoS dynamics under study (only ~4%
    // of packets are bulk-eligible — the 6 Mb/s trunk admits ~13k FTP
    // segments per run). The >=30% cut for this scenario is against
    // the engine before dead-timer cancellation, and is its row of
    // BUDGETS, checked in `ladder`.
    assert!(
        train.events <= 0.80 * exact.events,
        "train mode must cut events >=20% on qos_ftp_n8: exact={:.0} train={:.0}",
        exact.events,
        train.events
    );
}

#[test]
fn trains_match_exact_at_paper_n16() {
    // The node count the figures and the golden capture run.
    ladder("cluster_n16_a08", false);
}

#[test]
fn exact_cost_within_budget_off_the_ladder() {
    // The budgeted scenarios with no ladder test above: exact engine,
    // seed 42 only.
    for name in ["baseline_n1", "fault_crash_n4"] {
        assert_within_budget(name, run_cost(scenario(name)), None);
    }
}
