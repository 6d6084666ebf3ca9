//! The benchmark's own checks: the fingerprint catches a perturbed
//! report, the ladder measures aborts in percentage points, the
//! reference file parses, and the counting sink sees one dispatch
//! record per processed event.

use dclue_cluster::{ClusterConfig, Report, World};
use dclue_perf::{
    check, reference, sim_seed, workload, CountingSink, Fingerprint, Tier, FIELDS, REFERENCE,
    WORKLOADS,
};
use dclue_sim::Duration;

fn sample_report() -> Report {
    Report {
        committed: 6186,
        aborted: 27,
        tpmc_scaled: 4164.0,
        txn_latency_ms: 2751.6343824485775,
        txn_latency_p95_ms: 12161.860006463674,
        ctl_msgs_per_txn: 12.738603297769156,
        data_msgs_per_txn: 3.3986420950533462,
        storage_msgs_per_txn: 0.3116715163271904,
        fusion_transfers_per_txn: 3.3986420950533462,
        drops: 11869,
        trunk_utilization: 1.0,
        trunk_utilization_edge: 1.0,
        trunk_utilization_agg: 0.0,
        ..Report::default()
    }
}

/// Bump fingerprint field `i` of `r` by the smallest step its type has.
fn perturb(r: &mut Report, i: usize) {
    let next = |x: f64| f64::from_bits(x.to_bits() + 1);
    match FIELDS[i] {
        "committed" => r.committed += 1,
        "aborted" => r.aborted += 1,
        "tpmc_scaled" => r.tpmc_scaled = next(r.tpmc_scaled),
        "txn_latency_ms" => r.txn_latency_ms = next(r.txn_latency_ms),
        "txn_latency_p95_ms" => r.txn_latency_p95_ms = next(r.txn_latency_p95_ms),
        "ctl_msgs_per_txn" => r.ctl_msgs_per_txn = next(r.ctl_msgs_per_txn),
        "data_msgs_per_txn" => r.data_msgs_per_txn = next(r.data_msgs_per_txn),
        "storage_msgs_per_txn" => r.storage_msgs_per_txn = next(r.storage_msgs_per_txn),
        "fusion_transfers_per_txn" => r.fusion_transfers_per_txn = next(r.fusion_transfers_per_txn),
        "drops" => r.drops += 1,
        "trunk_utilization" => r.trunk_utilization = next(r.trunk_utilization),
        "trunk_utilization_edge" => r.trunk_utilization_edge = next(r.trunk_utilization_edge),
        "trunk_utilization_agg" => r.trunk_utilization_agg = next(r.trunk_utilization_agg),
        other => panic!("no perturbation for '{other}'"),
    }
}

#[test]
fn every_perturbed_field_fails_the_exact_fingerprint() {
    let base = sample_report();
    let want = Fingerprint::of(&base);
    assert_eq!(check(Tier::Exact, &Fingerprint::of(&base), &want), Ok(()));
    for (i, field) in FIELDS.iter().enumerate() {
        let mut r = base.clone();
        perturb(&mut r, i);
        let err = check(Tier::Exact, &Fingerprint::of(&r), &want)
            .expect_err(&format!("perturbing {field} went unnoticed"));
        assert!(err.contains(field), "{err}");
    }
}

#[test]
fn fields_outside_the_fingerprint_do_not_matter() {
    let base = sample_report();
    let mut r = base.clone();
    r.avg_cpi += 1.0;
    r.timeline.push((0.5, 10, 3.0));
    assert_eq!(
        check(Tier::Exact, &Fingerprint::of(&r), &Fingerprint::of(&base)),
        Ok(())
    );
}

#[test]
fn fingerprint_line_round_trips_exactly() {
    let fp = Fingerprint::of(&sample_report());
    assert_eq!(Fingerprint::parse_line(&fp.to_line()), Ok(fp.clone()));
    let missing = fp.to_line().replace("drops=11869.0", "");
    assert!(Fingerprint::parse_line(&missing).is_err());
}

fn ladder_pair(committed: u64, aborted: u64) -> (Fingerprint, Fingerprint) {
    let want = sample_report();
    let mut got = want.clone();
    got.committed = committed;
    got.aborted = aborted;
    (Fingerprint::of(&got), Fingerprint::of(&want))
}

#[test]
fn ladder_measures_aborts_in_percentage_points() {
    // The reference aborts 27 of 6213 (0.43%). Doubling the abort count
    // is a 100% relative change but only 0.43 pp: within the ladder.
    let (got, want) = ladder_pair(6186, 54);
    assert!((got.abort_pct() - want.abort_pct()).abs() < 0.5);
    assert_eq!(check(Tier::Ladder, &got, &want), Ok(()));
    // 1.9 pp above the reference passes, 2.1 pp fails.
    let (got, want) = ladder_pair(6186, 150);
    assert!((got.abort_pct() - want.abort_pct() - 1.94).abs() < 0.01);
    assert_eq!(check(Tier::Ladder, &got, &want), Ok(()));
    let (got, want) = ladder_pair(6186, 163);
    assert!((got.abort_pct() - want.abort_pct() - 2.14).abs() < 0.01);
    let err = check(Tier::Ladder, &got, &want).expect_err("2.14 pp must fail");
    assert!(err.contains("abort rate"), "{err}");
}

#[test]
fn ladder_tolerances_are_relative_for_throughput_and_latency() {
    let want = sample_report();
    for (field, ok, bad) in [
        ("tpmc_scaled", 0.09, 0.11),
        ("txn_latency_ms", 0.14, 0.16),
        ("txn_latency_p95_ms", 0.24, 0.26),
    ] {
        // The ladder divides by the larger value, so a drop by `bad`
        // is off by exactly `bad`.
        for (scale, pass) in [(1.0 + ok, true), (1.0 - ok, true), (1.0 - bad, false)] {
            let mut got = want.clone();
            match field {
                "tpmc_scaled" => got.tpmc_scaled *= scale,
                "txn_latency_ms" => got.txn_latency_ms *= scale,
                _ => got.txn_latency_p95_ms *= scale,
            }
            let res = check(
                Tier::Ladder,
                &Fingerprint::of(&got),
                &Fingerprint::of(&want),
            );
            assert_eq!(res.is_ok(), pass, "{field} x{scale}: {res:?}");
        }
    }
    // Fields outside the ladder (message counts, drops) may move freely.
    let mut got = want.clone();
    got.drops *= 3;
    got.ctl_msgs_per_txn *= 2.0;
    assert_eq!(
        check(
            Tier::Ladder,
            &Fingerprint::of(&got),
            &Fingerprint::of(&want)
        ),
        Ok(())
    );
}

#[test]
fn reference_file_parses_and_covers_the_default_seed_run() {
    let lines = REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    for l in lines {
        let mut it = l.splitn(3, ' ');
        let (w, s) = (it.next().unwrap(), it.next().unwrap());
        assert!(WORKLOADS.contains(&w), "unknown workload in '{l}'");
        assert!(reference(w, s.parse().unwrap()).is_some(), "{l}");
    }
    for w in WORKLOADS {
        let wl = workload(w, 42).unwrap();
        assert_eq!(wl.cfg.validate(), Ok(()), "{w}");
        for j in 0..wl.seeds {
            let seed = sim_seed(42, j);
            assert!(
                reference(w, seed).is_some(),
                "no reference for {w} seed {seed}"
            );
        }
    }
    assert!(workload("no_such_workload", 42).is_none());
    assert_eq!(sim_seed(42, 0), 42);
}

/// A two-node cluster small enough for a debug build.
fn tiny() -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        clients_per_node: 20,
        warmup: Duration::from_secs(1),
        measure: Duration::from_secs(2),
        ..ClusterConfig::default()
    }
}

fn counted_run(cfg: ClusterConfig) -> (CountingSink, u64, Report) {
    let _ = dclue_trace::take_sink();
    dclue_trace::install(Box::new(CountingSink::default()));
    let mut w = World::new(cfg);
    let report = w.run();
    let sink = dclue_trace::take_sink().expect("sink was installed");
    let sink = sink
        .as_any()
        .and_then(|a| a.downcast_ref::<CountingSink>())
        .expect("counting sink")
        .clone();
    (sink, w.events_processed(), report)
}

#[test]
fn counting_sink_sees_one_dispatch_per_processed_event() {
    // Test builds always compile the recording machinery in.
    const { assert!(dclue_trace::ENABLED) };
    let (sink, events, report) = counted_run(tiny());
    assert!(events > 500, "only {events} events");
    assert_eq!(sink.dispatches(), events);
    assert_eq!(sink.counts()["sim.dispatch"], events);
    assert_eq!(sink.dispatch_ns().count(), events - 1);
    assert!(report.committed > 0);
}

#[test]
fn counting_is_write_only_and_repeats_exactly() {
    let (a, events_a, report_a) = counted_run(tiny());
    let (b, events_b, report_b) = counted_run(tiny());
    assert_eq!(a.counts(), b.counts());
    assert_eq!(events_a, events_b);
    assert_eq!(report_a, report_b);
    let _ = dclue_trace::take_sink();
    let mut w = World::new(tiny());
    let untraced = w.run();
    assert_eq!(Fingerprint::of(&untraced), Fingerprint::of(&report_a));
    assert_eq!(w.events_processed(), events_a);
}
