//! From a compiled plan to printed rows: running a scenario equals
//! running the same hand-built configs, `[case]` sections are the
//! outermost axis, the command line's engine choices reach every point,
//! and the context columns (`case`, axis keys, `tpmc_drop_pct`) read
//! the right coordinates and reference rows.

use dclue_cluster::config::ClusterConfig;
use dclue_cluster::{sweep, ClientModel, QosPolicy, Report};
use dclue_scenario::runner::{self, GridRow};
use dclue_scenario::{compile, parse, Plan};
use dclue_sim::Duration;

fn plan(src: &str) -> Plan {
    compile(&parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"))).expect("compiles")
}

fn cfgs(plan: &Plan) -> Vec<ClusterConfig> {
    plan.points.iter().map(|p| p.cfg.clone()).collect()
}

#[test]
fn smoke_scenario_run_is_bit_identical_to_the_hand_built_run() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/smoke.dcs");
    let plan = plan(&std::fs::read_to_string(path).expect("smoke.dcs is shipped"));

    // Build smoke.dcs's configs by hand, without the DSL.
    let base = ClusterConfig {
        exact: true,
        warmup: Duration::from_secs(2),
        measure: Duration::from_secs(5),
        affinity: 0.8,
        clients_per_node: 20,
        think_time: Duration::from_secs(1),
        ..ClusterConfig::default()
    };
    let hand_built: Vec<ClusterConfig> = [2u32, 4]
        .iter()
        .map(|&nodes| ClusterConfig {
            nodes,
            ..base.clone()
        })
        .collect();
    assert_eq!(cfgs(&plan), hand_built, "config grids differ");
    assert_eq!(plan.seeds, 1);

    // Run both paths serially (`--jobs 1`) and compare whole Reports —
    // PartialEq on Report is bit-exact on every float field.
    let via_scenario: Vec<_> = runner::run_grid(&plan, 1)
        .into_iter()
        .map(|row| row.report)
        .collect();
    let via_sweep = sweep::run_avg_many(1, &hand_built, plan.seeds);
    assert_eq!(via_scenario, via_sweep, "run paths diverge");
}

const CASES: &str = "scenario = cases\n[engine]\nexact = false\n[topology]\nnodes = 8\n\
    affinity = [0.8, 0.5]\n[workload]\nftp_offered_bps = 1000000\n[output]\n\
    columns = [case, affinity, tpmc_drop_pct]\ngroup_by = case\n\
    [case no cross traffic]\nftp_offered_bps = 0\n[case priority]\nqos = ftp-priority\n";

#[test]
fn cases_are_the_outer_axis_and_engine_flags_reach_every_point() {
    let mut p = plan(CASES);
    let labels: Vec<String> = p.points.iter().map(|p| p.label()).collect();
    assert_eq!(
        labels,
        [
            "case=no cross traffic affinity=0.8",
            "case=no cross traffic affinity=0.5",
            "case=priority affinity=0.8",
            "case=priority affinity=0.5",
        ]
    );
    let c = cfgs(&p);
    assert_eq!(c[0].ftp_offered_bps, 0.0, "case override wins over base");
    assert_eq!(
        c[2].ftp_offered_bps, 1e6,
        "base applies when not overridden"
    );
    assert_eq!(c[2].qos, QosPolicy::FtpPriority);
    assert_eq!(c[0].qos, ClusterConfig::default().qos);
    assert_eq!((c[1].nodes, c[1].affinity), (8, 0.5));

    p.override_engine(false, None).unwrap();
    assert_eq!(cfgs(&p), c, "no flags: the file's choices stand");
    p.override_engine(true, Some(ClientModel::Aggregate))
        .unwrap();
    let mut knee =
        plan("scenario = k\n[engine]\nexact = false\n[sweep]\nmode = knee\nmin = 2\nmax = 4\n");
    knee.override_engine(true, Some(ClientModel::Aggregate))
        .unwrap();
    for cfg in cfgs(&p).iter().chain([&p.base, &knee.base]) {
        assert!(cfg.exact && cfg.client_model == ClientModel::Aggregate);
    }
}

/// Cell text of `plan`'s rows, given each row's tpm-C.
fn cell_text(plan: &Plan, tpmc: &[f64]) -> Vec<Vec<String>> {
    let rows: Vec<GridRow> = plan
        .points
        .iter()
        .zip(tpmc)
        .map(|(point, &tpmc_scaled)| GridRow {
            point: point.clone(),
            report: Report {
                tpmc_scaled,
                ..Report::default()
            },
        })
        .collect();
    let cols = runner::output_columns(plan);
    runner::table_cells(plan, &rows)
        .iter()
        .map(|row| {
            row.iter()
                .zip(&cols)
                .map(|(c, col)| c.text(col.precision))
                .collect()
        })
        .collect()
}

#[test]
fn context_columns_read_coordinates_and_group_references() {
    // Each case's first row is its reference: 100 vs 200 is a 50% drop,
    // 300 vs 150 a 100% gain.
    let text = cell_text(&plan(CASES), &[200.0, 100.0, 150.0, 300.0]);
    assert_eq!(text[0], ["no cross traffic", "0.80", "0.0"]);
    assert_eq!(text[1], ["no cross traffic", "0.50", "50.0"]);
    assert_eq!(text[2], ["priority", "0.80", "0.0"]);
    assert_eq!(text[3], ["priority", "0.50", "-100.0"]);

    // An axis key prints the point's canonical value; without group_by
    // the first row of the table is every row's reference.
    let axis = plan(
        "scenario = a\n[storage]\nlog_placement = [local, central]\n\
                     [output]\ncolumns = [log_placement, tpmc_drop_pct]\n",
    );
    let text = cell_text(&axis, &[400.0, 100.0]);
    assert_eq!(text, [["local", "0.0"], ["central", "75.0"]]);
}
