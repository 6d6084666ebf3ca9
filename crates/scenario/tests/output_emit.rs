//! `output=csv:` / `output=json:` emission round-trips the shipped
//! smoke scenario: the written CSV cells must match an independent
//! re-render of the same grid, and the JSON must scan as one
//! well-formed document carrying every selected column.

use dclue_scenario::columns::Row;
use dclue_scenario::emit::OutputRequest;
use dclue_scenario::runner::{output_columns, run, Outcome};
use dclue_scenario::{compile, json, parse, Plan};

fn smoke_plan() -> Plan {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/smoke.dcs");
    let src = std::fs::read_to_string(&path).expect("smoke.dcs is shipped");
    let scenario = parse(&src).expect("smoke.dcs parses");
    compile(&scenario).expect("smoke.dcs compiles")
}

/// A scratch file path under the target-adjacent temp dir, removed on
/// drop so failed assertions don't leave litter behind.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let p = std::env::temp_dir().join(format!("dclue_emit_{}_{name}", std::process::id()));
        Scratch(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn csv_emission_matches_a_fresh_render() {
    let plan = smoke_plan();
    let outcome = run(&plan, 1);
    let Outcome::Grid(rows) = &outcome else {
        panic!("smoke.dcs is a grid scenario");
    };

    let scratch = Scratch::new("rows.csv");
    let req = OutputRequest::parse(&format!("csv:{}", scratch.0.display())).unwrap();
    req.write(&plan, &outcome).expect("csv write succeeds");
    let csv = std::fs::read_to_string(&scratch.0).expect("csv file exists");

    let cols = output_columns(&plan);
    let mut lines = csv.lines();
    let header: Vec<&str> = cols.iter().map(|c| c.name).collect();
    assert_eq!(lines.next().unwrap(), header.join(","), "header row");

    // Re-derive every cell from the grid rows and compare textually:
    // the file and the in-memory render must agree cell for cell.
    let body: Vec<&str> = lines.collect();
    assert_eq!(body.len(), rows.len(), "one CSV line per grid point");
    for (line, row) in body.iter().zip(rows) {
        let ctx = Row {
            point: &row.point,
            report: &row.report,
            reference: &rows[0].report,
        };
        let expect: Vec<String> = cols
            .iter()
            .map(|c| c.cell(&ctx).text(c.precision))
            .collect();
        assert_eq!(*line, expect.join(","));
    }
}

#[test]
fn json_emission_is_wellformed_and_complete() {
    let plan = smoke_plan();
    let outcome = run(&plan, 1);
    let Outcome::Grid(rows) = &outcome else {
        panic!("smoke.dcs is a grid scenario");
    };

    let scratch = Scratch::new("rows.json");
    let req = OutputRequest::parse(&format!("json:{}", scratch.0.display())).unwrap();
    req.write(&plan, &outcome).expect("json write succeeds");
    let text = std::fs::read_to_string(&scratch.0).expect("json file exists");

    json::validate(&text).unwrap_or_else(|e| panic!("emitted JSON is malformed: {e}"));
    assert!(text.contains("\"mode\":\"grid\""));
    assert_eq!(
        text.matches("\"coords\":").count(),
        rows.len(),
        "one JSON row per grid point"
    );
    for c in output_columns(&plan) {
        assert!(
            text.contains(&format!("\"{}\":", c.name)),
            "column '{}' missing from JSON rows",
            c.name
        );
    }
    // Each row's coordinates name the smoke scenario's single axis.
    assert!(text.contains("\"nodes\":\"2\"") && text.contains("\"nodes\":\"4\""));
}
