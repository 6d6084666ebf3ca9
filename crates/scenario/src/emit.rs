//! File emission for `figures run`: `output=csv:<path>` and
//! `output=json:<path>`.
//!
//! The text table `figures run` prints is for eyeballs; downstream
//! plotting wants machine-readable rows. Both formats are derived from
//! the same [`crate::columns`] table as the text renderer and the
//! `/metrics` endpoint, so the three surfaces can never disagree on a
//! column's name, precision or value. CSV cells are the column's text
//! form at its declared precision (no quoting is needed: column names
//! and values never contain commas); JSON rows carry the grid-point
//! coordinates alongside the selected columns, the exact shape the
//! service streams, so a file capture and a `/metrics` poll are
//! interchangeable inputs.

use crate::columns::Cell;
use crate::json::Json;
use crate::knee::KneeOutcome;
use crate::plan::Plan;
use crate::runner::{output_columns, table_cells, GridRow};

/// File format of one `output=` request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutputFormat {
    Csv,
    Json,
}

/// One parsed `output=<fmt>:<path>` operand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutputRequest {
    pub format: OutputFormat,
    pub path: String,
}

impl OutputRequest {
    /// Parse the value of an `output=` operand: `csv:<path>` or
    /// `json:<path>`.
    pub fn parse(spec: &str) -> Result<OutputRequest, String> {
        let Some((fmt, path)) = spec.split_once(':') else {
            return Err(format!(
                "output spec '{spec}' must be csv:<path> or json:<path>"
            ));
        };
        let format = match fmt {
            "csv" => OutputFormat::Csv,
            "json" => OutputFormat::Json,
            other => {
                return Err(format!(
                    "unknown output format '{other}' (choices: csv, json)"
                ))
            }
        };
        if path.is_empty() {
            return Err(format!("output spec '{spec}' has an empty path"));
        }
        Ok(OutputRequest {
            format,
            path: path.to_string(),
        })
    }

    /// Render `outcome` in this request's format and write the file.
    pub fn write(&self, plan: &Plan, outcome: &crate::runner::Outcome) -> Result<(), String> {
        use crate::runner::Outcome;
        let text = match (outcome, self.format) {
            (Outcome::Grid(rows), OutputFormat::Csv) => grid_csv(plan, rows),
            (Outcome::Grid(rows), OutputFormat::Json) => grid_json(plan, rows).to_string(),
            (Outcome::Knee(out), OutputFormat::Csv) => knee_csv(out),
            (Outcome::Knee(out), OutputFormat::Json) => knee_json(plan, out).to_string(),
        };
        std::fs::write(&self.path, text).map_err(|e| format!("cannot write '{}': {e}", self.path))
    }
}

/// Grid rows as CSV: one header of the `[output]` column names, one
/// line per grid point, cells at each column's declared precision.
pub fn grid_csv(plan: &Plan, rows: &[GridRow]) -> String {
    let cols = output_columns(plan);
    let mut out = String::new();
    let names: Vec<&str> = cols.iter().map(|c| c.name).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for cells in table_cells(plan, rows) {
        let texts: Vec<String> = cols
            .iter()
            .zip(&cells)
            .map(|(c, cell)| cell.text(c.precision))
            .collect();
        out.push_str(&texts.join(","));
        out.push('\n');
    }
    out
}

/// One JSON row: grid-point coordinates plus the selected columns
/// (`cells`, in column order) — the shape `/metrics` streams too.
pub fn grid_row_json(plan: &Plan, row: &GridRow, cells: &[Cell]) -> Json {
    let cols = output_columns(plan);
    let mut pairs: Vec<(String, Json)> = vec![(
        "coords".into(),
        Json::Obj(
            row.point
                .coords
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::str(v.clone())))
                .collect(),
        ),
    )];
    pairs.extend(
        cols.iter()
            .zip(cells)
            .map(|(c, cell)| (c.name.to_string(), cell.json())),
    );
    Json::Obj(pairs)
}

/// Grid rows as one JSON document.
pub fn grid_json(plan: &Plan, rows: &[GridRow]) -> Json {
    Json::Obj(vec![
        ("scenario".into(), Json::str(plan.scenario.name.clone())),
        ("mode".into(), Json::str("grid")),
        ("seeds".into(), Json::Num(plan.seeds as f64)),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .zip(table_cells(plan, rows))
                    .map(|(r, cells)| grid_row_json(plan, r, &cells))
                    .collect(),
            ),
        ),
    ])
}

/// A knee search's evaluated curve as CSV.
pub fn knee_csv(out: &KneeOutcome) -> String {
    let mut s = String::from("nodes,tpmc_scaled,per_node\n");
    for (n, tpmc) in &out.evaluated {
        s.push_str(&format!("{n},{tpmc:.0},{:.0}\n", tpmc / *n as f64));
    }
    s
}

/// A knee search as one JSON document: the curve plus the verdict.
pub fn knee_json(plan: &Plan, out: &KneeOutcome) -> Json {
    Json::Obj(vec![
        ("scenario".into(), Json::str(plan.scenario.name.clone())),
        ("mode".into(), Json::str("knee")),
        (
            "rows".into(),
            Json::Arr(
                out.evaluated
                    .iter()
                    .map(|(n, tpmc)| {
                        Json::Obj(vec![
                            ("nodes".into(), Json::Num(*n as f64)),
                            ("tpmc_scaled".into(), Json::Num(*tpmc)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "knee".into(),
            Json::Obj(vec![
                ("knee".into(), Json::Num(out.knee as f64)),
                ("kneed".into(), Json::Bool(out.kneed)),
                ("per_node_ref".into(), Json::Num(out.per_node_ref)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_formats() {
        assert_eq!(
            OutputRequest::parse("csv:rows.csv").unwrap(),
            OutputRequest {
                format: OutputFormat::Csv,
                path: "rows.csv".into()
            }
        );
        assert_eq!(
            OutputRequest::parse("json:out/rows.json").unwrap(),
            OutputRequest {
                format: OutputFormat::Json,
                path: "out/rows.json".into()
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["rows.csv", "yaml:rows.yaml", "csv:", ""] {
            assert!(OutputRequest::parse(bad).is_err(), "accepted '{bad}'");
        }
    }
}
