//! Regenerates every figure of the paper's evaluation section (§3).
//!
//! Usage:
//!   figures <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|
//!            fig13|fig14|fig15|fig16|ablate-subpage|ablate-thrash|
//!            ablate-elevator|ablate-mvcc|fault-flap|fault-crash|
//!            protocol|baseline|all> [--quick] [--seeds N] [--jobs N] [--exact]
//!            [--client-model exact|aggregate]
//!   figures run <file.dcs>    [--seeds N] [--jobs N]
//!                             [--metrics] [output=csv:PATH] [output=json:PATH]
//!   figures serve <file.dcs>  [--seeds N] [--listen ADDR]
//!   figures list
//!
//! An unknown `--flag`, or a `--seeds`/`--jobs` value that is not a
//! number, exits 2 with the list of valid flags.
//!
//! `run` executes a declarative scenario file (grammar in
//! EXPERIMENTS.md, examples under `examples/scenarios/`) through the
//! same sweep pool as the hardcoded figures — a scenario whose knobs
//! match a figure reproduces it bit-identically (pinned by
//! `tests/scenario_twin.rs`). `serve` runs the scenario while
//! answering `/status`, `/metrics` and `/scenarios` as JSON on a local
//! HTTP port. `list` enumerates everything runnable.
//!
//! Every figure collects its whole (config, seed) grid first and runs it
//! through the [`dclue_cluster::sweep`] worker pool, then prints rows in
//! submission order — so the output is byte-identical whatever `--jobs`
//! is (`--jobs 1` bypasses the pool for the exact serial loop; the
//! default is `DCLUE_JOBS` or all cores).
//!
//! By default runs use the segment-train fast path (statistically
//! equivalent, far fewer events — see DESIGN.md "The hybrid train
//! model"). Pass `--exact` for the bit-reproducible segment-exact
//! engine; the committed `figures_output.txt` golden capture is
//! produced with `figures all --seeds 2 --exact`.
//!
//! `--client-model aggregate` swaps every run's driver onto the
//! aggregate session engine (DESIGN.md §14): one arrival process and a
//! pooled connection multiplexer per node instead of per-terminal
//! timers and sockets. Statistically equivalent to `exact` (pinned by
//! `tests/aggregate_equivalence.rs`) and the only way to drive
//! million-terminal populations; keep it away from golden-capture
//! comparisons.
//!
//! Absolute numbers come from the 100x-scaled model (multiply tpm-C by
//! 100 for real-system equivalents); the paper's claims are about
//! *shapes* — who wins, by what factor, where the knees are.

#![allow(clippy::field_reassign_with_default)] // config-mutation is the intended API pattern

use dclue_cluster::config::{LogPlacement, Policer, StorageMode};
use dclue_cluster::{sweep, ClientModel, ClusterConfig, DbGrowth, QosPolicy, Report, TcpOffload};
use dclue_sim::Duration;
use dclue_storage::IscsiMode;

struct Opts {
    quick: bool,
    seeds: u64,
    jobs: usize,
    exact: bool,
    client_model: ClientModel,
}

fn base_cfg(opts: &Opts) -> ClusterConfig {
    let mut cfg = dclue_bench::grids::figures_base(opts.quick, opts.exact);
    cfg.client_model = opts.client_model;
    cfg
}

/// Reject a bad config before it reaches the worker pool — a
/// mis-built grid would otherwise panic (or silently lie) mid-sweep.
fn validate_or_die(cfg: &ClusterConfig) {
    if let Err(e) = cfg.validate() {
        eprintln!("[figures] invalid config: {e}");
        std::process::exit(2);
    }
}

/// Run a batch of configs through the worker pool: one seed-averaged
/// report per config, in submission order.
fn run_batch(cfgs: &[ClusterConfig], opts: &Opts) -> Vec<Report> {
    cfgs.iter().for_each(validate_or_die);
    sweep::run_avg_many(opts.jobs, cfgs, opts.seeds)
}

/// Run one config across seeds and average the reported series.
fn run_avg(cfg: &ClusterConfig, opts: &Opts) -> Report {
    run_batch(std::slice::from_ref(cfg), opts).pop().unwrap()
}

use dclue_bench::grids::{self, NODE_SWEEP};

fn fig2_3(affinity: f64, opts: &Opts) {
    println!("# IPC messages per transaction vs cluster size (affinity {affinity})");
    println!(
        "{:<6} {:>10} {:>10} {:>12}",
        "nodes", "ctl/txn", "data/txn", "storage/txn"
    );
    let cfgs = grids::fig2_3(&base_cfg(opts), affinity);
    for (cfg, r) in cfgs.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<6} {:>10.2} {:>10.2} {:>12.2}",
            cfg.nodes, r.ctl_msgs_per_txn, r.data_msgs_per_txn, r.storage_msgs_per_txn
        );
    }
}

fn fig4_5(opts: &Opts) {
    println!("# Lock waits per txn and lock wait time vs cluster size and affinity");
    println!(
        "{:<6} {:<5} {:>12} {:>14} {:>12}",
        "nodes", "α", "waits/txn", "wait (ms)", "busies/txn"
    );
    let mut rows = Vec::new();
    let mut cfgs = Vec::new();
    for &a in &[0.8, 0.5, 0.0] {
        for n in NODE_SWEEP {
            if n == 1 {
                continue;
            }
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.affinity = a;
            rows.push((n, a));
            cfgs.push(cfg);
        }
    }
    for (&(n, a), r) in rows.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<6} {:<5.2} {:>12.3} {:>14.1} {:>12.3}",
            n, a, r.lock_waits_per_txn, r.lock_wait_ms, r.lock_busies_per_txn
        );
    }
}

fn fig6(opts: &Opts) {
    println!("# Throughput scaling vs cluster size, affinity as parameter");
    println!(
        "{:<6} {:<5} {:>12} {:>14} {:>8} {:>8}",
        "nodes", "α", "tpmC(scaled)", "tpmC(real-eq)", "util", "threads"
    );
    let affinities = [1.0, 0.8, 0.5, 0.0];
    let mut cfgs = Vec::new();
    for &a in &affinities {
        for n in NODE_SWEEP {
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.affinity = a;
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &a in &affinities {
        for n in NODE_SWEEP {
            let r = res.next().unwrap();
            println!(
                "{:<6} {:<5.2} {:>12.0} {:>14.0} {:>8.2} {:>8.1}",
                n, a, r.tpmc_scaled, r.tpmc_equivalent, r.cpu_util, r.avg_live_threads
            );
        }
        println!();
    }
}

fn fig7(opts: &Opts) {
    println!("# Throughput vs affinity, cluster size as parameter");
    println!("{:<6} {:<5} {:>12}", "nodes", "α", "tpmC(scaled)");
    let cfgs = grids::fig7(&base_cfg(opts));
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &n in &grids::FIG7_NODES {
        for &a in &grids::FIG7_AFFINITIES {
            let r = res.next().unwrap();
            println!("{:<6} {:<5.2} {:>12.0}", n, a, r.tpmc_scaled);
        }
        println!();
    }
}

fn fig8(opts: &Opts) {
    println!("# Impact of router forwarding rate (single lata)");
    println!(
        "{:<6} {:<10} {:>12} {:>8}",
        "nodes", "rate(pps)", "tpmC(scaled)", "drops"
    );
    let rates = [10_000.0, 4_000.0];
    let nodes = [2u32, 4, 6, 8, 10, 12];
    let mut cfgs = Vec::new();
    for &rate in &rates {
        for &n in &nodes {
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.latas = 1;
            cfg.router_rate = rate;
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &rate in &rates {
        for &n in &nodes {
            let r = res.next().unwrap();
            println!(
                "{:<6} {:<10.0} {:>12.0} {:>8}",
                n, rate, r.tpmc_scaled, r.drops
            );
        }
        println!();
    }
}

fn fig9(opts: &Opts) {
    println!("# Local vs centralized logging");
    println!("{:<6} {:<9} {:>12}", "nodes", "logging", "tpmC(scaled)");
    let nodes = [1u32, 2, 4, 8, 12];
    let mut cfgs = Vec::new();
    for &central in &[false, true] {
        for &n in &nodes {
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.log_placement = if central {
                LogPlacement::Central
            } else {
                LogPlacement::Local
            };
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &central in &[false, true] {
        for &n in &nodes {
            let r = res.next().unwrap();
            println!(
                "{:<6} {:<9} {:>12.0}",
                n,
                if central { "central" } else { "local" },
                r.tpmc_scaled
            );
        }
        println!();
    }
}

fn fig10(opts: &Opts) {
    println!("# Impact of sub-linear database growth (sqrt beyond ~2 nodes)");
    println!(
        "{:<6} {:<8} {:>12} {:>12} {:>12}",
        "nodes", "growth", "warehouses", "tpmC(scaled)", "waits/txn"
    );
    let nodes = [1u32, 2, 4, 8, 12, 16];
    let mut rows = Vec::new();
    let mut cfgs = Vec::new();
    for &sqrt in &[false, true] {
        for &n in &nodes {
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.db_growth = if sqrt {
                DbGrowth::SqrtBeyond(900.0)
            } else {
                DbGrowth::Linear
            };
            rows.push(cfg.total_warehouses());
            cfgs.push(cfg);
        }
    }
    let mut res = rows.iter().zip(run_batch(&cfgs, opts));
    for &sqrt in &[false, true] {
        for &n in &nodes {
            let (wh, r) = res.next().unwrap();
            println!(
                "{:<6} {:<8} {:>12} {:>12.0} {:>12.3}",
                n,
                if sqrt { "sqrt" } else { "linear" },
                wh,
                r.tpmc_scaled,
                r.lock_waits_per_txn
            );
        }
        println!();
    }
}

fn fig11(opts: &Opts) {
    println!("# TCP / iSCSI offload cases vs affinity (n = 4)");
    println!("{:<22} {:<5} {:>12}", "case", "α", "tpmC(scaled)");
    let cases: [(&str, TcpOffload, IscsiMode); 3] = [
        (
            "HW TCP + HW iSCSI",
            TcpOffload::Hardware,
            IscsiMode::Hardware,
        ),
        (
            "HW TCP + SW iSCSI",
            TcpOffload::Hardware,
            IscsiMode::Software,
        ),
        (
            "SW TCP + SW iSCSI",
            TcpOffload::Software,
            IscsiMode::Software,
        ),
    ];
    let affinities = [1.0, 0.8, 0.5];
    let mut cfgs = Vec::new();
    for (_, tcp, iscsi) in cases {
        for &a in &affinities {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 4;
            cfg.affinity = a;
            cfg.tcp_offload = tcp;
            cfg.iscsi_mode = iscsi;
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for (name, _, _) in cases {
        for &a in &affinities {
            let r = res.next().unwrap();
            println!("{:<22} {:<5.2} {:>12.0}", name, a, r.tpmc_scaled);
        }
        println!();
    }
}

fn fig12_13(comp: f64, opts: &Opts) {
    let label = if comp < 1.0 {
        "low computation"
    } else {
        "normal computation"
    };
    println!("# Added inter-lata latency ({label}), 2 latas x 4 nodes");
    println!(
        "{:<5} {:<12} {:>12} {:>8} {:>8} {:>8}",
        "α", "extra(real)", "tpmC(scaled)", "drop%", "threads", "util"
    );
    let affinities = [0.8, 0.5];
    let latencies = [0u64, 500, 1000, 2000];
    let mut cfgs = Vec::new();
    for &a in &affinities {
        // Axis value L is the total added one-way latency (half per
        // trunk link, per the paper); real microseconds.
        for &l_us in &latencies {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.affinity = a;
            cfg.computation_factor = comp;
            // Scale by 100x: real us -> scaled us x100; half per link.
            cfg.extra_trunk_latency = Duration::from_micros(l_us * 100 / 2);
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &a in &affinities {
        let mut baseline = 0.0;
        for &l_us in &latencies {
            let r = res.next().unwrap();
            if l_us == 0 {
                baseline = r.tpmc_scaled;
            }
            println!(
                "{:<5.2} {:<12} {:>12.0} {:>8.1} {:>8.1} {:>8.2}",
                a,
                format!("{} us", l_us),
                r.tpmc_scaled,
                100.0 * (1.0 - r.tpmc_scaled / baseline.max(1.0)),
                r.avg_live_threads,
                r.cpu_util
            );
        }
        println!();
    }
}

fn fig14_15(comp: f64, opts: &Opts) {
    let label = if comp < 1.0 {
        "low computation"
    } else {
        "normal computation"
    };
    println!("# FTP cross traffic ({label}), 2 latas x 4 nodes, α = 0.8");
    println!(
        "{:<14} {:<12} {:>12} {:>8} {:>8} {:>9} {:>10} {:>8}",
        "QoS", "ftp(real)", "tpmC(scaled)", "drop%", "threads", "cs(cyc)", "wait(ms)", "ftpMb/s"
    );
    let policies = [QosPolicy::AllBestEffort, QosPolicy::FtpPriority];
    let rates = [0u64, 50, 100, 200, 300, 400, 600];
    let mut cfgs = Vec::new();
    for qos in policies {
        for &ftp_real_mbps in &rates {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.affinity = 0.8;
            cfg.computation_factor = comp;
            cfg.qos = qos;
            // Trunk sized so baseline DBMS traffic sits at the paper's
            // ~65% inter-lata utilization (their 650 Mb/s on 1 Gb/s);
            // our partition-aligned placement crosses latas less, so a
            // 1 Gb/s-equivalent trunk would idle at ~35% and hide the
            // QoS effects the paper studies.
            cfg.trunk_bw = 6e6;
            cfg.ftp_offered_bps = ftp_real_mbps as f64 * 1e6 / 100.0; // scaled
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for qos in policies {
        let mut baseline = 0.0;
        for &ftp_real_mbps in &rates {
            let r = res.next().unwrap();
            if ftp_real_mbps == 0 {
                baseline = r.tpmc_scaled;
            }
            println!(
                "{:<14} {:<12} {:>12.0} {:>8.1} {:>8.1} {:>9.0} {:>10.1} {:>8.2}",
                format!("{qos:?}"),
                format!("{} Mb/s", ftp_real_mbps),
                r.tpmc_scaled,
                100.0 * (1.0 - r.tpmc_scaled / baseline.max(1.0)),
                r.avg_live_threads,
                r.avg_cs_cycles,
                r.lock_wait_ms,
                r.ftp_mbps
            );
        }
        println!();
    }
}

fn fig16(opts: &Opts) {
    println!("# Cross-traffic sensitivity vs affinity (low computation, FTP priority)");
    println!(
        "{:<5} {:<12} {:>12} {:>8} {:>8}",
        "α", "ftp(real)", "tpmC(scaled)", "drop%", "threads"
    );
    let affinities = [0.8, 0.5];
    let rates = [0u64, 100, 200, 400];
    let mut cfgs = Vec::new();
    for &a in &affinities {
        for &ftp_real_mbps in &rates {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.affinity = a;
            cfg.computation_factor = 0.25;
            cfg.qos = QosPolicy::FtpPriority;
            cfg.trunk_bw = 6e6; // same operating point as figs 14-15
            cfg.ftp_offered_bps = ftp_real_mbps as f64 * 1e6 / 100.0;
            cfgs.push(cfg);
        }
    }
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &a in &affinities {
        let mut baseline = 0.0;
        for &ftp_real_mbps in &rates {
            let r = res.next().unwrap();
            if ftp_real_mbps == 0 {
                baseline = r.tpmc_scaled;
            }
            println!(
                "{:<5.2} {:<12} {:>12.0} {:>8.1} {:>8.1}",
                a,
                format!("{} Mb/s", ftp_real_mbps),
                r.tpmc_scaled,
                100.0 * (1.0 - r.tpmc_scaled / baseline.max(1.0)),
                r.avg_live_threads
            );
        }
        println!();
    }
}

fn baseline(opts: &Opts) {
    println!("# Baseline calibration: one unclustered node (α = 1.0)");
    let mut cfg = base_cfg(opts);
    cfg.nodes = 1;
    cfg.affinity = 1.0;
    let r = run_avg(&cfg, opts);
    println!("{}", r.summary());
    println!("target: ~500 scaled tpm-C (50K real), ~20 threads, CPI ~2.5, high hit ratio");
}

fn ablate_subpage(opts: &Opts) {
    println!("# Ablation: subpage (fine-grain) locking vs page-grain locking");
    println!(
        "{:<8} {:<7} {:>12} {:>12} {:>12}",
        "locks", "nodes", "tpmC(scaled)", "waits/txn", "busies/txn"
    );
    let mut rows = Vec::new();
    let mut cfgs = Vec::new();
    for &coarse in &[false, true] {
        for &n in &[4u32, 8] {
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.coarse_locks = coarse;
            rows.push((coarse, n));
            cfgs.push(cfg);
        }
    }
    for (&(coarse, n), r) in rows.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<8} {:<7} {:>12.0} {:>12.3} {:>12.3}",
            if coarse { "page" } else { "subpage" },
            n,
            r.tpmc_scaled,
            r.lock_waits_per_txn,
            r.lock_busies_per_txn
        );
    }
}

fn ablate_thrash(opts: &Opts) {
    println!("# Ablation: cache-thrash model on/off (latency sensitivity, low comp)");
    let mut rows = Vec::new();
    let mut cfgs = Vec::new();
    for &thrash in &[true, false] {
        for &l_us in &[0u64, 2000] {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.computation_factor = 0.25;
            cfg.thrash_model = thrash;
            cfg.extra_trunk_latency = Duration::from_micros(l_us * 100 / 2);
            rows.push((thrash, l_us));
            cfgs.push(cfg);
        }
    }
    for (&(thrash, l_us), r) in rows.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "thrash={:<5} extra={:>5}us tpmC={:>7.0} threads={:>6.1} cs={:>7.0} cpi={:.2}",
            thrash, l_us, r.tpmc_scaled, r.avg_live_threads, r.avg_cs_cycles, r.avg_cpi
        );
    }
}

fn ablate_elevator(opts: &Opts) {
    println!("# Ablation: elevator (C-SCAN) vs FIFO data disks");
    let elevators = [true, false];
    let cfgs: Vec<ClusterConfig> = elevators
        .iter()
        .map(|&elev| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 4;
            cfg.elevator = elev;
            cfg.buffer_fraction = 0.4; // stress the disks
            cfg.data_spindles = 16;
            cfg
        })
        .collect();
    for (&elev, r) in elevators.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "elevator={:<5} tpmC={:>7.0} disk/txn={:.2} latency={:.0}ms",
            elev, r.tpmc_scaled, r.disk_reads_per_txn, r.txn_latency_ms
        );
    }
}

fn ablate_autonomic(opts: &Opts) {
    println!("# Extension: autonomic QoS (the paper's stated future work)");
    println!("# FTP at the strict-priority starvation point; the controller");
    println!("# adapts the WFQ weight from observed DBMS latency.");
    println!(
        "{:<22} {:>12} {:>8} {:>9}",
        "policy", "tpmC(scaled)", "drop%", "ftpMb/s"
    );
    let cases = [
        ("no cross traffic", None),
        ("strict priority", Some(QosPolicy::FtpPriority)),
        (
            "autonomic (tol 25%)",
            Some(QosPolicy::Autonomic { tolerance: 0.25 }),
        ),
    ];
    let cfgs: Vec<ClusterConfig> = cases
        .iter()
        .map(|&(_, qos)| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.trunk_bw = 6e6;
            if let Some(q) = qos {
                cfg.qos = q;
                cfg.ftp_offered_bps = 6e6;
            }
            cfg
        })
        .collect();
    let mut base = 0.0;
    for (&(name, qos), r) in cases.iter().zip(run_batch(&cfgs, opts)) {
        if qos.is_none() {
            base = r.tpmc_scaled;
        }
        println!(
            "{:<22} {:>12.0} {:>8.1} {:>9.2}",
            name,
            r.tpmc_scaled,
            100.0 * (1.0 - r.tpmc_scaled / base.max(1.0)),
            r.ftp_mbps
        );
    }
}

fn ablate_cac(opts: &Opts) {
    println!("# Ablation: policing / admission control on priority FTP");
    println!("(completes the paper's diff-serv mechanism list; its conclusion");
    println!(" says 'some admission control scheme needs to be in place')");
    println!(
        "{:<24} {:>12} {:>8} {:>9} {:>8}",
        "control", "tpmC(scaled)", "drop%", "ftpMb/s", "denied"
    );
    let cases: [(&str, Option<Policer>, Option<u32>); 3] = [
        ("none (paper setup)", None, None),
        (
            "shaped to 150 Mb/s",
            Some(Policer {
                rate_bps: 1.5e6,
                burst_bytes: 64.0 * 1024.0,
            }),
            None,
        ),
        ("CAC: 2 concurrent", None, Some(2u32)),
    ];
    let mut cfgs: Vec<ClusterConfig> = cases
        .iter()
        .map(|&(_, policer, cac)| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.trunk_bw = 6e6;
            cfg.qos = QosPolicy::FtpPriority;
            cfg.ftp_offered_bps = 6e6; // the strict-priority starvation point
            cfg.ftp_policer = policer;
            cfg.ftp_max_concurrent = cac;
            cfg
        })
        .collect();
    // Reference: the same cluster with no cross traffic at all.
    let mut c0 = cfgs[0].clone();
    c0.ftp_offered_bps = 0.0;
    cfgs.push(c0);
    let mut res = run_batch(&cfgs, opts);
    let base = res.pop().unwrap().tpmc_scaled;
    for (&(name, _, _), r) in cases.iter().zip(res) {
        println!(
            "{:<24} {:>12.0} {:>8.1} {:>9.2} {:>8}",
            name,
            r.tpmc_scaled,
            100.0 * (1.0 - r.tpmc_scaled / base.max(1.0)),
            r.ftp_mbps,
            r.ftp_denied
        );
    }
}

fn ablate_group_commit(opts: &Opts) {
    println!("# Ablation: per-transaction logging vs group commit");
    println!(
        "{:<12} {:>12} {:>14} {:>12}",
        "logging", "tpmC(scaled)", "latency(ms)", "p95(ms)"
    );
    let groups = [false, true];
    let cfgs: Vec<ClusterConfig> = groups
        .iter()
        .map(|&grp| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 4;
            cfg.group_commit = grp;
            cfg.log_spindles = 1; // stress the log path
            cfg
        })
        .collect();
    for (&grp, r) in groups.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<12} {:>12.0} {:>14.0} {:>12.0}",
            if grp { "group" } else { "per-txn" },
            r.tpmc_scaled,
            r.txn_latency_ms,
            r.txn_latency_p95_ms
        );
    }
}

fn ablate_san(opts: &Opts) {
    println!("# Ablation: distributed iSCSI storage vs centralized SAN");
    println!(
        "{:<14} {:<7} {:>12} {:>10}",
        "storage", "nodes", "tpmC(scaled)", "disk/txn"
    );
    let mut rows = Vec::new();
    let mut cfgs = Vec::new();
    for &san in &[false, true] {
        for &n in &[2u32, 4, 8] {
            let mut cfg = base_cfg(opts);
            cfg.nodes = n;
            cfg.storage = if san {
                StorageMode::San {
                    fabric_latency: Duration::from_millis(2), // 20us real
                }
            } else {
                StorageMode::Distributed
            };
            rows.push((san, n));
            cfgs.push(cfg);
        }
    }
    for (&(san, n), r) in rows.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<14} {:<7} {:>12.0} {:>10.2}",
            if san { "SAN" } else { "distributed" },
            n,
            r.tpmc_scaled,
            r.disk_reads_per_txn
        );
    }
}

fn ablate_wfq(opts: &Opts) {
    println!("# Ablation: QoS mechanism for FTP cross traffic (priority vs WFQ vs BE)");
    println!(
        "{:<22} {:>12} {:>8} {:>9}",
        "policy", "tpmC(scaled)", "drop%", "ftpMb/s"
    );
    let ftp = 6e6; // 600 Mb/s real: the strict-priority starvation point
    let cases = [
        ("no cross traffic", None),
        ("best effort", Some(QosPolicy::AllBestEffort)),
        ("strict priority", Some(QosPolicy::FtpPriority)),
        ("WFQ weight 0.3", Some(QosPolicy::FtpWfq { af_weight: 0.3 })),
        ("WFQ weight 0.6", Some(QosPolicy::FtpWfq { af_weight: 0.6 })),
    ];
    let cfgs: Vec<ClusterConfig> = cases
        .iter()
        .map(|&(_, qos)| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.trunk_bw = 6e6;
            if let Some(q) = qos {
                cfg.qos = q;
                cfg.ftp_offered_bps = ftp;
            }
            cfg
        })
        .collect();
    let mut base = 0.0;
    for (&(name, qos), r) in cases.iter().zip(run_batch(&cfgs, opts)) {
        if qos.is_none() {
            base = r.tpmc_scaled;
        }
        println!(
            "{:<22} {:>12.0} {:>8.1} {:>9.2}",
            name,
            r.tpmc_scaled,
            100.0 * (1.0 - r.tpmc_scaled / base.max(1.0)),
            r.ftp_mbps
        );
    }
}

fn ablate_red(opts: &Opts) {
    println!("# Ablation: RED vs tail drop under FTP cross traffic");
    println!(
        "{:<10} {:>12} {:>9} {:>8}",
        "drop", "tpmC(scaled)", "ftpMb/s", "drops"
    );
    let reds = [false, true];
    let cfgs: Vec<ClusterConfig> = reds
        .iter()
        .map(|&red| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.trunk_bw = 6e6;
            cfg.qos = QosPolicy::AllBestEffort;
            cfg.red = red;
            cfg.ftp_offered_bps = 3e6;
            cfg
        })
        .collect();
    for (&red, r) in reds.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<10} {:>12.0} {:>9.2} {:>8}",
            if red { "RED" } else { "tail-drop" },
            r.tpmc_scaled,
            r.ftp_mbps,
            r.drops
        );
    }
}

fn ablate_mvcc(opts: &Opts) {
    println!("# Ablation: MVCC versioning costs on/off");
    let modes = [true, false];
    let cfgs: Vec<ClusterConfig> = modes
        .iter()
        .map(|&mvcc| {
            let mut cfg = base_cfg(opts);
            cfg.nodes = 4;
            cfg.mvcc = mvcc;
            cfg
        })
        .collect();
    for (&mvcc, r) in modes.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "mvcc={:<5} tpmC={:>7.0} versions-created/txn={:.2} walks/txn={:.3}",
            mvcc, r.tpmc_scaled, r.versions_created_per_txn, r.version_walks_per_txn
        );
    }
}

/// Coherence-protocol comparison (EXPERIMENTS.md "Protocol
/// comparison"): cache-fusion 2PL vs. MVCC read leases at the
/// coherence-heavy mid-affinity operating point. Deliberately not part
/// of `all` — the golden capture pins the fusion-only figure set.
fn protocol(opts: &Opts) {
    println!("# Coherence protocol comparison: cache-fusion 2PL vs MVCC read leases (α = 0.5)");
    println!(
        "{:<12} {:<6} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "protocol",
        "nodes",
        "tpmC(scaled)",
        "latency(ms)",
        "abort%",
        "fusion/txn",
        "lease/txn",
        "renew/txn"
    );
    let cfgs = grids::protocol(&base_cfg(opts));
    let mut res = run_batch(&cfgs, opts).into_iter();
    for &kind in &grids::PROTOCOL_KINDS {
        for &n in &grids::PROTOCOL_NODES {
            let r = res.next().unwrap();
            let attempts = (r.committed + r.aborted).max(1);
            println!(
                "{:<12} {:<6} {:>12.0} {:>12.1} {:>8.2} {:>10.2} {:>10.2} {:>10.2}",
                kind.label(),
                n,
                r.tpmc_scaled,
                r.txn_latency_ms,
                100.0 * r.aborted as f64 / attempts as f64,
                r.fusion_transfers_per_txn,
                r.lease_transfers_per_txn,
                r.lease_renewals_per_txn
            );
        }
        println!();
    }
}

/// Hierarchical fabric scale sweep (ROADMAP item 1's second half):
/// n ∈ {16, 32, 64, 128} on the edge/aggregation shape under the
/// aggregate client model, reporting trunk load per tier so the
/// saturation knee is attributable to the tier that hits it.
fn scale(opts: &Opts) {
    println!(
        "# Hierarchical fabric scale sweep (8 nodes/edge, 2 agg switches, α = {}, aggregate clients)",
        grids::SCALE_AFFINITY
    );
    println!(
        "{:<6} {:>5} {:>4} {:>12} {:>11} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "nodes",
        "racks",
        "hops",
        "tpmC(scaled)",
        "latency(ms)",
        "edge-Mb/s",
        "edge-util",
        "agg-Mb/s",
        "agg-util",
        "ctl-msgs/txn"
    );
    let cfgs = grids::scale(&base_cfg(opts));
    for (cfg, r) in cfgs.iter().zip(run_batch(&cfgs, opts)) {
        println!(
            "{:<6} {:>5} {:>4} {:>12.0} {:>11.1} {:>10.2} {:>10.3} {:>10.2} {:>10.3} {:>12.2}",
            cfg.nodes,
            cfg.effective_edge_switches(),
            r.max_path_hops,
            r.tpmc_scaled,
            r.txn_latency_ms,
            r.trunk_mbps_edge,
            r.trunk_utilization_edge,
            r.trunk_mbps_agg,
            r.trunk_utilization_agg,
            r.ctl_msgs_per_txn
        );
    }
}

/// Degraded-mode scenarios (EXPERIMENTS.md "Fault scenarios"): drive a
/// 4-node cluster through a fault plan and print the availability
/// analysis. Single-seeded — the point is the deterministic transient,
/// not a cross-seed mean.
fn fault(opts: &Opts, scenario: &str) {
    use dclue_fault::{FaultPlan, LinkRef};
    let s = Duration::from_secs;
    let mut cfg = base_cfg(opts);
    cfg.nodes = 4;
    cfg.affinity = 0.8;
    cfg.clients_per_node = 20;
    cfg.think_time = s(1);
    cfg.warmup = s(10);
    cfg.measure = s(40);
    let mid = 25;
    cfg.fault_plan = match scenario {
        "flap" => FaultPlan::none().link_flap(LinkRef::NodeUplink(0), s(mid), s(4)),
        "crash" => FaultPlan::none().node_outage(1, s(mid), s(6)),
        _ => unreachable!(),
    };
    println!("--- fault-{scenario} (n=4 α=0.8, fault at t={mid}s) ---");
    validate_or_die(&cfg);
    let r = dclue_cluster::World::new(cfg).run();
    println!(
        "committed={} aborted_by_fault={} fault_events={} fault_drops={} iscsi_retries={}",
        r.committed, r.aborted_by_fault, r.fault_events_applied, r.fault_drops, r.iscsi_retries
    );
    let a = r.availability.expect("fault plan is non-empty");
    println!(
        "baseline={:.1}/s min={:.1}/s downtime={:.1}s degraded={:.1}s recovery={}",
        a.baseline_rate,
        a.min_rate,
        a.downtime_s,
        a.degraded_s,
        match a.recovery_s {
            Some(v) => format!("{v:.1}s"),
            None => "none".into(),
        }
    );
    for p in &a.phases {
        println!(
            "  {:<9} [{:>5.1}s..{:>5.1}s] {:>6.1} txn/s",
            p.name, p.start_s, p.end_s, p.mean_rate
        );
    }
}

/// Where `figures list` and `/scenarios` look for scenario files,
/// relative to the working directory (i.e. the repo root).
const SCENARIO_DIR: &str = "examples/scenarios";

/// Built-in figure subcommands with one-line descriptions, for
/// `figures list` and the `/scenarios` endpoint.
const BUILTINS: &[(&str, &str)] = &[
    ("baseline", "calibration: one unclustered node (α = 1.0)"),
    ("fig2", "IPC messages per txn vs cluster size (α = 0.8)"),
    ("fig3", "IPC messages per txn vs cluster size (α = 0.0)"),
    ("fig4", "lock waits per txn vs cluster size and affinity"),
    ("fig5", "lock wait time vs cluster size and affinity"),
    (
        "fig6",
        "throughput scaling vs cluster size, affinity as parameter",
    ),
    ("fig7", "throughput vs affinity, cluster size as parameter"),
    ("fig8", "impact of router forwarding rate (single lata)"),
    ("fig9", "local vs centralized logging"),
    ("fig10", "impact of sub-linear database growth"),
    ("fig11", "TCP / iSCSI offload cases vs affinity (n = 4)"),
    ("fig12", "added inter-lata latency, normal computation"),
    ("fig13", "added inter-lata latency, low computation"),
    ("fig14", "FTP cross traffic, normal computation"),
    ("fig15", "FTP cross traffic, low computation"),
    (
        "fig16",
        "cross-traffic sensitivity vs affinity (FTP priority)",
    ),
    ("protocol", "cache-fusion 2PL vs MVCC read leases (α = 0.5)"),
    (
        "scale",
        "hierarchical fabric scale sweep to n = 128 (per-tier trunks)",
    ),
    ("fault-flap", "availability through a link flap (n = 4)"),
    ("fault-crash", "availability through a node outage (n = 4)"),
    ("ablate-subpage", "subpage vs page-grain locking"),
    ("ablate-thrash", "cache-thrash model on/off"),
    ("ablate-elevator", "elevator (C-SCAN) vs FIFO data disks"),
    ("ablate-mvcc", "MVCC versioning costs on/off"),
    (
        "ablate-wfq",
        "QoS mechanism: priority vs WFQ vs best effort",
    ),
    ("ablate-red", "RED vs tail drop under FTP cross traffic"),
    ("ablate-san", "distributed iSCSI storage vs centralized SAN"),
    (
        "ablate-group-commit",
        "per-transaction logging vs group commit",
    ),
    ("ablate-cac", "policing / admission control on priority FTP"),
    (
        "ablate-autonomic",
        "autonomic QoS (the paper's future work)",
    ),
    ("all", "the golden-capture figure set, in order"),
];

/// Read, parse and compile a scenario file, or die with its message
/// (parse errors carry the line number).
fn load_plan(path: &str) -> dclue_scenario::Plan {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("[figures] cannot read '{path}': {e}");
        std::process::exit(2);
    });
    let scenario = dclue_scenario::parse(&src).unwrap_or_else(|e| {
        eprintln!("[figures] {path}: {e}");
        std::process::exit(2);
    });
    dclue_scenario::compile(&scenario).unwrap_or_else(|e| {
        eprintln!("[figures] {path}: {e}");
        std::process::exit(2);
    })
}

/// The `<file.dcs>` operand of `run` / `serve`.
fn file_operand(args: &[String], cmd: &str) -> String {
    match args.get(1).filter(|a| !a.starts_with('-')) {
        Some(f) => f.clone(),
        None => {
            eprintln!("[figures] usage: figures {cmd} <file.dcs>  (see `figures list`)");
            std::process::exit(2);
        }
    }
}

/// The `output=csv:<path>` / `output=json:<path>` operands of `run`.
fn output_requests(args: &[String]) -> Vec<dclue_scenario::emit::OutputRequest> {
    args.iter()
        .filter_map(|a| a.strip_prefix("output="))
        .map(|spec| {
            dclue_scenario::emit::OutputRequest::parse(spec).unwrap_or_else(|e| {
                eprintln!("[figures] {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// `figures run <file.dcs>`: execute a scenario and print its table,
/// then write any `output=` files from the same finished rows.
fn cmd_run(
    path: &str,
    seeds_flag: Option<u64>,
    jobs_flag: Option<usize>,
    metrics: bool,
    outputs: &[dclue_scenario::emit::OutputRequest],
) {
    use dclue_scenario::runner;
    let mut plan = load_plan(path);
    if let Some(s) = seeds_flag {
        plan.seeds = s.max(1);
    }
    // CLI --jobs wins, then the scenario's [engine] jobs, then the
    // environment; --metrics pins the serial path as everywhere else.
    let jobs = if metrics {
        1
    } else {
        runner::resolve_plan_jobs(&plan, jobs_flag)
    };
    println!(
        "# scenario: {} — {}",
        plan.scenario.name, plan.scenario.description
    );
    let outcome = runner::run(&plan, jobs);
    match &outcome {
        runner::Outcome::Grid(rows) => print!("{}", runner::render_grid_table(&plan, rows)),
        runner::Outcome::Knee(out) => print!("{}", runner::render_knee_table(out)),
    }
    for req in outputs {
        req.write(&plan, &outcome).unwrap_or_else(|e| {
            eprintln!("[figures] {e}");
            std::process::exit(2);
        });
        eprintln!("[figures] wrote {}", req.path);
    }
}

/// Everything `/scenarios` should list: built-ins plus discovered files.
fn scenario_infos() -> Vec<dclue_scenario::service::ScenarioInfo> {
    use dclue_scenario::service::ScenarioInfo;
    let mut infos: Vec<ScenarioInfo> = BUILTINS
        .iter()
        .map(|&(name, desc)| ScenarioInfo {
            name: name.to_string(),
            description: desc.to_string(),
            source: "built-in".to_string(),
        })
        .collect();
    infos.extend(
        dclue_scenario::discover::discover_dir(std::path::Path::new(SCENARIO_DIR))
            .into_iter()
            .filter(|d| d.error.is_none())
            .map(|d| ScenarioInfo {
                name: d.name,
                description: d.description,
                source: d.path.display().to_string(),
            }),
    );
    infos
}

/// `figures serve <file.dcs>`: run the scenario with live endpoints.
fn cmd_serve(path: &str, seeds_flag: Option<u64>, listen_flag: Option<String>) {
    use dclue_scenario::service;
    let mut plan = load_plan(path);
    if let Some(s) = seeds_flag {
        plan.seeds = s.max(1);
    }
    let listen = listen_flag
        .or_else(|| plan.scenario.listen.clone())
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let svc = service::start(&plan, &listen, scenario_infos()).unwrap_or_else(|e| {
        eprintln!("[figures] {e}");
        std::process::exit(2);
    });
    println!(
        "[figures] serving scenario '{}' on http://{}/  (GET /status /metrics /scenarios)",
        plan.scenario.name,
        svc.addr()
    );
    svc.run_blocking(&plan);
    println!("[figures] run complete; endpoints stay up (Ctrl-C to stop)");
    loop {
        std::thread::park();
    }
}

/// `figures list`: built-in figures plus discovered scenario files.
fn cmd_list() {
    println!("built-in figures (figures <name>):");
    for &(name, desc) in BUILTINS {
        println!("  {name:<22} {desc}");
    }
    println!("\nscenario files in {SCENARIO_DIR}/ (figures run <path>):");
    let found = dclue_scenario::discover::discover_dir(std::path::Path::new(SCENARIO_DIR));
    if found.is_empty() {
        println!("  (none found — run from the repo root)");
    }
    for d in found {
        match &d.error {
            None => println!("  {:<22} {}  [{}]", d.name, d.description, d.path.display()),
            Some(e) => println!("  {:<22} parse error: {e}  [{}]", d.name, d.path.display()),
        }
    }
}

/// Every flag `figures` accepts, with the value it takes (if any).
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--quick", None),
    ("--exact", None),
    ("--metrics", None),
    ("--seeds", Some("N")),
    ("--jobs", Some("N")),
    ("--client-model", Some("exact|aggregate")),
    ("--listen", Some("ADDR")),
];

/// Report a bad command line with the list of valid flags; exit 2.
fn usage_error(msg: &str) -> ! {
    let valid: Vec<String> = FLAGS
        .iter()
        .map(|&(flag, val)| match val {
            Some(v) => format!("{flag} {v}"),
            None => flag.to_string(),
        })
        .collect();
    eprintln!("[figures] {msg}; valid flags: {}", valid.join(", "));
    std::process::exit(2);
}

/// Refuse any `-`-prefixed argument that is not in [`FLAGS`], and a
/// value-taking flag given last with no value.
fn check_flags(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with('-') {
            match FLAGS.iter().find(|&&(flag, _)| flag == a) {
                None => usage_error(&format!("unknown flag '{a}'")),
                Some((_, Some(_))) if i + 1 == args.len() => {
                    usage_error(&format!("{a} needs a value"))
                }
                Some((_, Some(_))) => i += 1,
                Some((_, None)) => {}
            }
        }
        i += 1;
    }
}

/// The numeric value of `flag`, if given; a value that does not parse
/// is a usage error.
fn number_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let s = &args[i + 1]; // present: `check_flags` ran first
    Some(
        s.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} expects a number, got '{s}'"))),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let flag_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let seeds_flag: Option<u64> = number_flag(&args, "--seeds");
    let seeds = seeds_flag.unwrap_or(1);
    let jobs_flag: Option<usize> = number_flag(&args, "--jobs");
    let exact = args.iter().any(|a| a == "--exact");
    let client_model = match flag_val("--client-model").map(String::as_str) {
        None | Some("exact") => ClientModel::Exact,
        Some("aggregate") => ClientModel::Aggregate,
        Some(other) => {
            eprintln!("[figures] unknown --client-model '{other}' (choices: exact, aggregate)");
            std::process::exit(2);
        }
    };
    // The metrics registry is thread-local, so `--metrics` pins the
    // serial (jobs=1) path and dumps the registry when the run ends.
    // Compiled in for debug builds or `--features dclue-trace/trace`.
    let metrics = args.iter().any(|a| a == "--metrics");
    if metrics {
        if let Some(j) = jobs_flag {
            if j > 1 {
                eprintln!(
                    "[figures] warning: --metrics reads a thread-local registry and must run \
                     serially; ignoring --jobs {j} and using --jobs 1 (see EXPERIMENTS.md)"
                );
            }
        }
    }
    let jobs = if metrics {
        1
    } else {
        sweep::resolve_jobs(jobs_flag)
    };
    dclue_trace::metrics::set_enabled(metrics);
    let opts = Opts {
        quick,
        seeds,
        jobs,
        exact,
        client_model,
    };
    let which = args.first().map(String::as_str).unwrap_or("all");
    let t0 = std::time::Instant::now();
    match which {
        "run" => cmd_run(
            &file_operand(&args, "run"),
            seeds_flag,
            jobs_flag,
            metrics,
            &output_requests(&args),
        ),
        "serve" => cmd_serve(
            &file_operand(&args, "serve"),
            seeds_flag,
            flag_val("--listen").cloned(),
        ),
        "list" => cmd_list(),
        "fig2" => fig2_3(0.8, &opts),
        "fig3" => fig2_3(0.0, &opts),
        "fig4" | "fig5" => fig4_5(&opts),
        "fig6" => fig6(&opts),
        "fig7" => fig7(&opts),
        "fig8" => fig8(&opts),
        "fig9" => fig9(&opts),
        "fig10" => fig10(&opts),
        "fig11" => fig11(&opts),
        "fig12" => fig12_13(1.0, &opts),
        "fig13" => fig12_13(0.25, &opts),
        "fig14" => fig14_15(1.0, &opts),
        "fig15" => fig14_15(0.25, &opts),
        "fig16" => fig16(&opts),
        "baseline" => baseline(&opts),
        "ablate-subpage" => ablate_subpage(&opts),
        "ablate-thrash" => ablate_thrash(&opts),
        "ablate-elevator" => ablate_elevator(&opts),
        "ablate-mvcc" => ablate_mvcc(&opts),
        "ablate-wfq" => ablate_wfq(&opts),
        "ablate-san" => ablate_san(&opts),
        "ablate-group-commit" => ablate_group_commit(&opts),
        "ablate-cac" => ablate_cac(&opts),
        "ablate-autonomic" => ablate_autonomic(&opts),
        "ablate-red" => ablate_red(&opts),
        "fault-flap" => fault(&opts, "flap"),
        "fault-crash" => fault(&opts, "crash"),
        "protocol" => protocol(&opts),
        // Not part of "all": the golden capture predates the
        // hierarchical shape and must stay bit-identical.
        "scale" => scale(&opts),
        "all" => {
            baseline(&opts);
            fig2_3(0.8, &opts);
            fig2_3(0.0, &opts);
            fig4_5(&opts);
            fig6(&opts);
            fig7(&opts);
            fig8(&opts);
            fig9(&opts);
            fig10(&opts);
            fig11(&opts);
            fig12_13(1.0, &opts);
            fig12_13(0.25, &opts);
            fig14_15(1.0, &opts);
            fig14_15(0.25, &opts);
            fig16(&opts);
            ablate_subpage(&opts);
            ablate_thrash(&opts);
            ablate_elevator(&opts);
            ablate_mvcc(&opts);
            ablate_wfq(&opts);
            ablate_red(&opts);
            ablate_san(&opts);
            ablate_group_commit(&opts);
            ablate_cac(&opts);
            ablate_autonomic(&opts);
        }
        other => {
            eprintln!("unknown figure '{other}'");
            std::process::exit(2);
        }
    }
    if metrics {
        for (k, v) in dclue_trace::metrics::snapshot() {
            eprintln!("[figures] metric {which} {k}={v}");
        }
    }
    eprintln!("[figures] {which} done in {:?}", t0.elapsed());
}
