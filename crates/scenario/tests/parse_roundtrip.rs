//! Round-trip property of the scenario DSL: `parse(s.to_dcs()) == s`.
//!
//! The canonical writer is what `figures` would use to echo a scenario
//! back, so losing information in either direction would silently
//! change experiments. Every value type and every section is exercised.

use dclue_scenario::ast::{Scenario, SweepSpec};
use dclue_scenario::parse;

fn roundtrip(src: &str) -> Scenario {
    let first = parse(src).unwrap_or_else(|e| panic!("first parse failed: {e}\n{src}"));
    let text = first.to_dcs();
    let second =
        parse(&text).unwrap_or_else(|e| panic!("reparse of canonical form failed: {e}\n{text}"));
    assert_eq!(first, second, "canonical form drifted:\n{text}");
    first
}

#[test]
fn kitchen_sink_roundtrips() {
    // Every section, every value type, faults, axes, cases, grouping.
    let sc = roundtrip(
        r#"
# full-surface scenario
scenario = kitchen-sink_1
description = Every knob the DSL knows

[engine]
exact = true
warmup = 1500ms
measure = 40s
seeds = 3
jobs = 2

[topology]
nodes = [2, 4, 8]
latas = 2
affinity = [0.0, 0.5, 0.95]
warehouses_per_node = 40
db_growth = sqrt(900)
link_bw = 10000000
trunk_bw = 6000000
router_rate = 4000
extra_trunk_latency = 250us
red = true

[protocol]
kind = [fusion2pl, mvcc-lease]
mvcc = true
coarse_locks = false
tcp = software
iscsi = hardware

[workload]
clients_per_node = 200
client_model = aggregate
client_conns_per_node = 64
think_time = 30s
computation_factor = 0.25
thrash_model = true
ftp_offered_bps = 3000000
ftp_max_concurrent = 2
ftp_policer = rate:1500000,burst:65536
qos = wfq(0.3)

[storage]
mode = san(2ms)
log_placement = central
group_commit = true
data_spindles = 16
log_spindles = 1
elevator = false
buffer_fraction = 0.4

[fault]
link_flap node_uplink:0 at=25s for=4s
degrade trunk:0 at=10s for=5s factor=0.5
loss_burst client_uplink:1 at=12s for=2s drop=0.2 corrupt=0.01
port_fail node_uplink:2 at=30s for=3s
node_outage 1 at=25s for=6s
iscsi_stall 0 at=8s for=1500ms

[output]
columns = [case, kind, nodes, affinity, tpmc_scaled, tpmc_drop_pct, abort_pct]
group_by = kind

[service]
listen = 127.0.0.1:7070

[case paper setup]

[case shaped to 150 Mb/s]
ftp_offered_bps = 6000000
ftp_policer = rate:1500000,burst:131072
"#,
    );
    assert_eq!(sc.name, "kitchen-sink_1");
    assert_eq!(sc.axes().count(), 3);
    assert_eq!(sc.faults.len(), 6);
    assert_eq!(sc.cases[1].label, "shaped to 150 Mb/s");
    assert_eq!(sc.cases[1].entries.len(), 2);
    assert_eq!(sc.listen.as_deref(), Some("127.0.0.1:7070"));
}

#[test]
fn hierarchical_topology_keys_roundtrip() {
    // Every hierarchical-fabric knob, with one swept axis. The shape
    // key itself is deliberately not sweepable (it changes what the
    // other topology knobs mean), so it appears as a scalar.
    let sc = roundtrip(
        r#"
scenario = hier-keys
description = edge/aggregation fabric knobs

[topology]
topology = hierarchical
nodes = 64
nodes_per_edge = 8
agg_switches = [1, 2, 4]
uplinks = 2
agg_trunk_bw = 12000000
affinity = 0.5
"#,
    );
    let plan = dclue_scenario::compile(&sc).expect("compiles");
    assert_eq!(plan.points.len(), 3);
    for p in &plan.points {
        assert_eq!(p.cfg.topology, dclue_cluster::FabricShape::Hierarchical);
        assert_eq!(p.cfg.nodes_per_edge, 8);
        assert_eq!(p.cfg.uplinks, 2);
        assert_eq!(p.cfg.agg_trunk_bw, 12_000_000.0);
        p.cfg.validate().expect("hierarchical grid point validates");
    }
    assert_eq!(
        plan.points
            .iter()
            .map(|p| p.cfg.agg_switches)
            .collect::<Vec<_>>(),
        vec![1, 2, 4]
    );
}

#[test]
fn unknown_topology_shape_is_rejected() {
    let e = parse("scenario = bad\n\n[topology]\ntopology = fat-tree\n")
        .expect_err("unknown shape must not parse");
    assert!(e.msg.contains("fat-tree"), "{}", e.msg);
    assert!(e.msg.contains("hierarchical"), "{}", e.msg);
}

#[test]
fn knee_sweep_roundtrips() {
    let sc = roundtrip(
        r#"
scenario = knee-example
description = adaptive knee

[topology]
affinity = 0.4

[sweep]
mode = knee
axis = nodes
min = 2
max = 16
step = 2
threshold = 0.5
"#,
    );
    match sc.sweep {
        SweepSpec::Knee(k) => {
            assert_eq!((k.min, k.max, k.step), (2, 16, 2));
            assert_eq!(k.threshold, 0.5);
        }
        SweepSpec::Grid => panic!("expected a knee sweep"),
    }
}

#[test]
fn minimal_scenario_roundtrips_with_defaults() {
    let sc = roundtrip("scenario = tiny\n");
    assert_eq!(sc.description, "");
    assert_eq!(sc.sweep, SweepSpec::Grid);
    // Default output columns survive the round trip.
    assert_eq!(
        sc.output.columns,
        vec!["nodes", "affinity", "tpmc_scaled", "txn_latency_ms"]
    );
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let sc = roundtrip(
        "# leading comment\n\nscenario = commented # trailing comment\n\n[topology]\n# a comment line\nnodes = 4  # why not\n",
    );
    assert_eq!(sc.name, "commented");
    assert_eq!(sc.entries.len(), 1);
}

#[test]
fn shipped_example_scenarios_roundtrip_and_compile() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("dcs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let sc = roundtrip(&src);
        dclue_scenario::compile(&sc)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", path.display()));
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected the shipped examples, found {checked}"
    );
}

#[test]
fn durations_write_in_coarsest_unit() {
    use dclue_scenario::ast::format_duration;
    use dclue_sim::Duration;
    assert_eq!(format_duration(Duration::from_secs(40)), "40s");
    assert_eq!(format_duration(Duration::from_millis(1500)), "1500ms");
    assert_eq!(format_duration(Duration::from_micros(250)), "250us");
    assert_eq!(format_duration(Duration::from_nanos(7)), "7ns");
    assert_eq!(format_duration(Duration::from_nanos(0)), "0s");
}
