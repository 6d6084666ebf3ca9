//! One workload of the dclue-rs benchmark, in one process.
//!
//! ```text
//! dclue-perf --workload <name> --seed <n> [--seconds <s>] [--min-iters <k>]
//!            [--time-db-build] [--record]
//! ```
//!
//! The plain build cycles through the workload's simulation seeds
//! (`sim_seed(n, 0..seeds)`), running each whole simulation
//! (`World::new` then `World::run`) and timing setup and run apart. It
//! keeps going for about `--seconds` of host time and at least
//! `--min-iters` simulations (default: every seed, then the first seed
//! again). Every simulation's fingerprint must equal that of the first
//! simulation of its seed (determinism) and pass the recorded reference
//! for that seed, when there is one. `--time-db-build` also times
//! `Database::build` on its own before each simulation.
//!
//! The build with the `trace` feature instead runs the first seed twice
//! under a [`CountingSink`] and reports the per-layer counts, which
//! must repeat exactly across the two runs.
//!
//! `--record` prints the reference lines for this run's seeds.
//!
//! The last line of standard output is one JSON object; the exit code
//! is 0 when every simulation passed, 1 when one failed, 2 on bad
//! arguments.

use dclue_cluster::{ClusterConfig, Report, World};
use dclue_db::Database;
use dclue_perf::{
    check, json_num, json_str, peak_rss_mb, reference, sim_seed, workload, CountingSink,
    Fingerprint, Tier, Workload, FIELDS,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

const TRACED: bool = cfg!(feature = "trace");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    min_iters: Option<usize>,
    time_db_build: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 0.0,
        min_iters: None,
        time_db_build: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |f: &str| it.next().ok_or_else(|| format!("{f} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val("--workload")?,
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--min-iters" => {
                let k: usize = val("--min-iters")?
                    .parse()
                    .map_err(|e| format!("--min-iters: {e}"))?;
                if k == 0 {
                    return Err("--min-iters must be at least 1".into());
                }
                a.min_iters = Some(k);
            }
            "--time-db-build" => a.time_db_build = true,
            "--record" => a.record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// One finished simulation.
struct Sim {
    setup_s: f64,
    run_s: f64,
    report: Report,
    events: u64,
    driver_slots: usize,
    /// `train_stats()`: members, bulk segments seen, splits.
    train: (u64, u64, u64),
}

/// Validate, build and run `cfg` once. A refusal by `validate()` or a
/// panic anywhere in setup or run is a failed simulation.
fn simulate(cfg: &ClusterConfig) -> Result<Sim, String> {
    cfg.validate()
        .map_err(|e| format!("validate() refused: {e}"))?;
    let cfg = cfg.clone();
    catch_unwind(AssertUnwindSafe(move || {
        let t0 = Instant::now();
        let mut w = World::new(cfg);
        let t1 = Instant::now();
        let report = w.run();
        let t2 = Instant::now();
        let ts = w.train_stats();
        Sim {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            report,
            events: w.events_processed(),
            driver_slots: w.driver_slots(),
            train: (ts.members, ts.bulk_segs, ts.splits),
        }
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// The correctness checks every simulation passes through.
struct Checker {
    workload: String,
    tier: Tier,
    /// Fingerprint of the first simulation of each seed.
    first: BTreeMap<u64, Fingerprint>,
    failures: Vec<String>,
}

impl Checker {
    fn new(workload: &str, tier: Tier) -> Checker {
        Checker {
            workload: workload.to_string(),
            tier,
            first: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// Check simulation `i` of `seed`; `false` (and a recorded reason)
    /// when it fails.
    fn accept(&mut self, i: usize, seed: u64, fp: &Fingerprint) -> bool {
        // Every workload commits thousands of transactions; none means
        // the run measured nothing and events per commit is undefined.
        let mut ok = fp.get("committed") > 0.0;
        if !ok {
            self.failures
                .push(format!("run {i} (seed {seed}) committed no transaction"));
        }
        if let Some(first) = self.first.get(&seed) {
            if let Err(e) = check(Tier::Exact, fp, first) {
                self.failures.push(format!(
                    "run {i} (seed {seed}) differs from the seed's first run: {e}"
                ));
                ok = false;
            }
        } else {
            self.first.insert(seed, fp.clone());
        }
        if let Some(want) = reference(&self.workload, seed) {
            if let Err(e) = check(self.tier, fp, &want) {
                self.failures
                    .push(format!("run {i} (seed {seed}) fails the reference: {e}"));
                ok = false;
            }
        }
        ok
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn reference_note(&self) -> String {
        let tier = match self.tier {
            Tier::Exact => "exact",
            Tier::Ladder => "ladder",
        };
        let referenced = self
            .first
            .keys()
            .filter(|s| reference(&self.workload, **s).is_some())
            .count();
        match referenced {
            0 => "none: no reference recorded for these seeds; determinism check only".into(),
            n if n == self.first.len() => format!("{tier} reference for every seed"),
            n => format!(
                "{tier} reference for {n} of {} seeds; determinism check for the rest",
                self.first.len()
            ),
        }
    }
}

fn fingerprint_json(fp: Option<&Fingerprint>) -> String {
    match fp {
        None => "null".into(),
        Some(fp) => {
            let body: Vec<String> = FIELDS
                .iter()
                .zip(fp.0.iter())
                .map(|(f, v)| format!("{}:{}", json_str(f), json_num(*v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
    }
}

fn list_json(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
    format!("[{}]", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dclue-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload(&args.workload, args.seed) else {
        eprintln!("dclue-perf: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    if args.record {
        return record(&args, &wl);
    }
    let mut checker = Checker::new(&args.workload, wl.tier);
    let (attempted, failed, json) = if TRACED {
        traced(&wl, &mut checker)
    } else {
        plain(&wl, &args, &mut checker)
    };
    for f in &checker.failures {
        eprintln!("dclue-perf: {}: {f}", args.workload);
    }
    let failures: Vec<String> = checker.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"traced\":{},\"reference\":{},\"config\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],{}}}",
        json_str(&args.workload),
        args.seed,
        TRACED,
        json_str(&checker.reference_note()),
        json_str(&format!("{:?}", wl.cfg)),
        attempted,
        failed,
        failures.join(","),
        json
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Print one reference line per simulation seed of this run.
fn record(args: &Args, wl: &Workload) -> ExitCode {
    for j in 0..wl.seeds {
        let seed = sim_seed(args.seed, j);
        let cfg = ClusterConfig {
            seed,
            ..wl.cfg.clone()
        };
        match simulate(&cfg) {
            Ok(sim) => println!(
                "{} {seed} {}",
                args.workload,
                Fingerprint::of(&sim.report).to_line()
            ),
            Err(e) => {
                eprintln!("dclue-perf: seed {seed}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

/// The plain build: cycle through the run's seeds for `--seconds`,
/// timing each simulation. Returns the simulations attempted and
/// failed, and the JSON members to append.
fn plain(wl: &Workload, args: &Args, checker: &mut Checker) -> (usize, usize, String) {
    let min_iters = args.min_iters.unwrap_or(wl.seeds + 1);
    let (mut setup, mut run, mut db_build) = (Vec::new(), Vec::new(), Vec::new());
    // (events, committed) of the first simulation of each seed.
    let mut per_seed: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    // Start another simulation only while it should end inside
    // `--seconds`, judged by the mean so far, so a run takes about
    // `--seconds` whatever one simulation costs.
    while attempted < min_iters
        || start.elapsed().as_secs_f64() * (attempted + 1) as f64 / attempted as f64 <= args.seconds
    {
        let i = attempted;
        attempted += 1;
        let cfg = ClusterConfig {
            seed: sim_seed(args.seed, i % wl.seeds),
            ..wl.cfg.clone()
        };
        if args.time_db_build {
            let t0 = Instant::now();
            let db = std::hint::black_box(Database::build(cfg.tpcc_scale()));
            db_build.push(t0.elapsed().as_secs_f64());
            drop(db);
        }
        match simulate(&cfg) {
            Ok(sim) => {
                if checker.accept(i, cfg.seed, &Fingerprint::of(&sim.report)) {
                    setup.push(sim.setup_s);
                    run.push(sim.run_s);
                    per_seed
                        .entry(cfg.seed)
                        .or_insert((sim.events, sim.report.committed));
                } else {
                    failed += 1;
                }
            }
            Err(e) => {
                checker.fail(format!("run {i} (seed {}) {e}", cfg.seed));
                failed += 1;
                // A configuration that cannot run will not start to.
                break;
            }
        }
    }
    let events: u64 = per_seed.values().map(|v| v.0).sum();
    let committed: u64 = per_seed.values().map(|v| v.1).sum();
    let seeds: Vec<String> = per_seed.keys().map(u64::to_string).collect();
    let json = format!(
        "\"seeds\":[{}],\"setup_s\":{},\"run_s\":{},\"events\":{},\"committed\":{},\"peak_rss_mb\":{},\"db_build_s\":{},\"fingerprint\":{}",
        seeds.join(","),
        list_json(&setup),
        list_json(&run),
        events,
        committed,
        peak_rss_mb().map_or("null".into(), json_num),
        list_json(&db_build),
        fingerprint_json(checker.first.get(&args.seed)),
    );
    (attempted, failed, json)
}

/// The traced build: the run's first seed twice under a counting sink.
/// Their fingerprints and per-layer counts must be identical, and the
/// sink must have seen one dispatch record per processed event.
fn traced(wl: &Workload, checker: &mut Checker) -> (usize, usize, String) {
    let seed = wl.cfg.seed;
    let mut runs: Vec<(Sim, CountingSink)> = Vec::new();
    let mut failed = 0;
    for i in 0..2 {
        let _ = dclue_trace::take_sink();
        dclue_trace::install(Box::new(CountingSink::default()));
        let res = simulate(&wl.cfg);
        let sink = dclue_trace::take_sink()
            .and_then(|s| {
                s.as_any()
                    .and_then(|a| a.downcast_ref::<CountingSink>())
                    .cloned()
            })
            .expect("the counting sink stays installed for the whole run");
        match res {
            Ok(sim) => {
                let mut ok = checker.accept(i, seed, &Fingerprint::of(&sim.report));
                if sink.dispatches() != sim.events {
                    checker.fail(format!(
                        "run {i}: sink saw {} dispatch records, engine processed {} events",
                        sink.dispatches(),
                        sim.events
                    ));
                    ok = false;
                }
                failed += usize::from(!ok);
                runs.push((sim, sink));
            }
            Err(e) => {
                checker.fail(format!("run {i} (seed {seed}) {e}"));
                failed += 1;
                break;
            }
        }
    }
    if let [(_, a), (_, b)] = runs.as_slice() {
        if a.counts() != b.counts() {
            checker.fail("the two traced runs' per-layer counts differ".into());
            failed = failed.max(1);
        }
    }
    let setup: Vec<f64> = runs.iter().map(|(s, _)| s.setup_s).collect();
    let run: Vec<f64> = runs.iter().map(|(s, _)| s.run_s).collect();
    let (layers, counts) = runs
        .first()
        .map_or(("null".into(), "null".into()), |(sim, sink)| {
            let counts: Vec<String> = sink
                .counts()
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect();
            (layers_json(sim, sink), format!("{{{}}}", counts.join(",")))
        });
    let json = format!(
        "\"setup_s\":{},\"run_s\":{},\"fingerprint\":{},\"layers\":{},\"counts\":{}",
        list_json(&setup),
        list_json(&run),
        fingerprint_json(checker.first.get(&seed)),
        layers,
        counts
    );
    (2, failed, json)
}

/// The per-layer metrics one traced simulation yields, by name.
fn layers_json(sim: &Sim, sink: &CountingSink) -> String {
    let r = &sim.report;
    let counts = sink.counts();
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let (members, bulk_segs, splits) = sim.train;
    let coalesce = if bulk_segs > 0 {
        members as f64 / bulk_segs as f64
    } else {
        0.0
    };
    let m: BTreeMap<&str, f64> = BTreeMap::from([
        ("sim.events", sim.events as f64),
        ("sim.dispatch_ns_p50", sink.dispatch_ns().quantile(0.5)),
        ("sim.dispatch_ns_p999", sink.dispatch_ns().quantile(0.999)),
        ("sim.wheel_flush_l0", c("sim.wheel_flush_l0")),
        ("sim.wheel_cascade_l1", c("sim.wheel_cascade_l1")),
        ("net.train_coalesce_ratio", coalesce),
        ("net.train_splits", splits as f64),
        ("net.tcp_rto", c("net.tcp_rto")),
        ("net.tcp_fast_retransmit", c("net.tcp_fast_retransmit")),
        ("net.port_drop", c("net.port_drop")),
        ("net.router_input_drop", c("net.router_input_drop")),
        ("net.ecn_mark", c("net.ecn_mark")),
        ("net.ctl_msgs_per_txn", r.ctl_msgs_per_txn),
        ("net.data_msgs_per_txn", r.data_msgs_per_txn),
        ("net.storage_msgs_per_txn", r.storage_msgs_per_txn),
        ("net.trunk_util_edge", r.trunk_utilization_edge),
        ("net.trunk_util_agg", r.trunk_utilization_agg),
        ("net.drops", r.drops as f64),
        ("platform.cpu_util", r.cpu_util),
        ("platform.avg_cpi", r.avg_cpi),
        ("platform.cs_cycles", r.avg_cs_cycles),
        ("platform.live_threads", r.avg_live_threads),
        ("storage.disk_reads_per_txn", r.disk_reads_per_txn),
        ("storage.iscsi_issue", c("storage.iscsi_issue")),
        ("storage.iscsi_timeout", c("storage.iscsi_timeout")),
        ("db.lock_waits_per_txn", r.lock_waits_per_txn),
        ("db.lock_wait_ms", r.lock_wait_ms),
        ("db.buffer_hit_ratio", r.buffer_hit_ratio),
        ("db.fusion_transfers_per_txn", r.fusion_transfers_per_txn),
        ("db.version_walks_per_txn", r.version_walks_per_txn),
        ("driver.slots", sim.driver_slots as f64),
    ]);
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}
