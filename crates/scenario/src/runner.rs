//! Executing a compiled [`Plan`]: grid sweeps and knee searches.
//!
//! Grid points run through [`dclue_cluster::sweep::run_avg_many`], so a
//! scenario run inherits the harness determinism contract: results in
//! submission order, `jobs = 1` taking the exact serial path, and the
//! fixed seed ladder. A knee search evaluates each probed cluster size
//! through the same call — parallelism is across seeds, never across
//! probes, so the answer is independent of `jobs`.

use crate::ast::SweepSpec;
use crate::columns::{column, Cell, Column, Row};
use crate::knee::{find_knee, KneeOutcome};
use crate::plan::{cfg_at_nodes, Plan, Point};
use dclue_cluster::{sweep, Report};

/// One finished grid point.
#[derive(Clone, Debug)]
pub struct GridRow {
    pub point: Point,
    pub report: Report,
}

/// What a run produced — a table of rows or a knee.
#[derive(Debug)]
pub enum Outcome {
    Grid(Vec<GridRow>),
    Knee(KneeOutcome),
}

/// Resolve the worker count for a plan: CLI override first, then the
/// scenario's `[engine] jobs`, then `DCLUE_JOBS` / all cores.
pub fn resolve_plan_jobs(plan: &Plan, cli: Option<usize>) -> usize {
    sweep::resolve_jobs(cli.or(plan.jobs))
}

/// Throughput of the plan's base config at `nodes` — the knee-search
/// objective. Seeds of one probe share the pool; each probe's result is
/// the same for every `jobs` value.
pub fn eval_nodes(plan: &Plan, jobs: usize, nodes: u32) -> f64 {
    let cfg = cfg_at_nodes(&plan.base, nodes);
    sweep::run_avg_many(jobs, &[cfg], plan.seeds)[0].tpmc_scaled
}

/// Run every grid point (reports in point order).
pub fn run_grid(plan: &Plan, jobs: usize) -> Vec<GridRow> {
    let cfgs: Vec<_> = plan.points.iter().map(|p| p.cfg.clone()).collect();
    let reports = sweep::run_avg_many(jobs, &cfgs, plan.seeds);
    plan.points
        .iter()
        .cloned()
        .zip(reports)
        .map(|(point, report)| GridRow { point, report })
        .collect()
}

/// Run the whole plan per its sweep mode.
pub fn run(plan: &Plan, jobs: usize) -> Outcome {
    match &plan.scenario.sweep {
        SweepSpec::Grid => Outcome::Grid(run_grid(plan, jobs)),
        SweepSpec::Knee(spec) => Outcome::Knee(find_knee(spec, |n| eval_nodes(plan, jobs, n))),
    }
}

/// The `[output] columns` resolved against the column table. The parser
/// already validated the names, so lookups cannot fail.
pub fn output_columns(plan: &Plan) -> Vec<Column> {
    plan.scenario
        .output
        .columns
        .iter()
        .map(|name| column(name).expect("parser validated column names"))
        .collect()
}

/// The point's value on the `[output] group_by` axis, if any.
fn group_value<'a>(plan: &Plan, point: &'a Point) -> Option<&'a str> {
    point.coord(plan.scenario.output.group_by?)
}

/// Every row's cells, in `[output] columns` order. A row's reference
/// (for `tpmc_drop_pct`) is the first row of its `group_by` group, or
/// the first row of the table when there is no `group_by`.
pub fn table_cells(plan: &Plan, rows: &[GridRow]) -> Vec<Vec<Cell>> {
    let cols = output_columns(plan);
    let mut start = 0;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            if group_value(plan, &row.point) != group_value(plan, &rows[start].point) {
                start = i;
            }
            let ctx = Row {
                point: &row.point,
                report: &row.report,
                reference: &rows[start].report,
            };
            cols.iter().map(|c| c.cell(&ctx)).collect()
        })
        .collect()
}

/// Pad a cell into an aligned column (numbers right, strings left).
fn pad(text: &str, width: usize, cell: &Cell) -> String {
    match cell {
        Cell::S(_) => format!("{text:<width$}"),
        _ => format!("{text:>width$}"),
    }
}

/// Render finished grid rows as an aligned text table. A blank line is
/// inserted whenever the `[output] group_by` axis changes value, to
/// separate the sub-sweeps of a figure.
pub fn render_grid_table(plan: &Plan, rows: &[GridRow]) -> String {
    let cols = output_columns(plan);
    let cells = table_cells(plan, rows);
    let texts: Vec<Vec<String>> = cells
        .iter()
        .map(|row| {
            row.iter()
                .zip(&cols)
                .map(|(cell, col)| cell.text(col.precision))
                .collect()
        })
        .collect();
    let widths: Vec<usize> = cols
        .iter()
        .enumerate()
        .map(|(i, col)| {
            texts
                .iter()
                .map(|row| row[i].len())
                .max()
                .unwrap_or(0)
                .max(col.name.len())
        })
        .collect();

    let mut out = String::new();
    // Headers align like their column's cells.
    let header: Vec<String> = cols
        .iter()
        .enumerate()
        .map(|(i, col)| {
            let first = cells.first().map_or(&Cell::U(0), |row| &row[i]);
            pad(col.name, widths[i], first)
        })
        .collect();
    out.push_str(header.join("  ").trim_end());
    out.push('\n');

    let mut prev_group: Option<&str> = None;
    for (row, (cell_row, text_row)) in rows.iter().zip(cells.iter().zip(&texts)) {
        let g = group_value(plan, &row.point);
        if prev_group.is_some() && g != prev_group {
            out.push('\n');
        }
        prev_group = g;
        let line: Vec<String> = text_row
            .iter()
            .zip(cell_row)
            .zip(&widths)
            .map(|((text, cell), w)| pad(text, *w, cell))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// Render a knee search: the evaluated curve, then the verdict.
pub fn render_knee_table(out: &KneeOutcome) -> String {
    let mut s = String::new();
    s.push_str("nodes  tpmc_scaled  per_node\n");
    for (n, tpmc) in &out.evaluated {
        s.push_str(&format!(
            "{n:>5}  {tpmc:>11.0}  {:>8.0}\n",
            tpmc / *n as f64
        ));
    }
    if out.kneed {
        s.push_str(&format!(
            "knee at {} nodes (marginal gain fell below threshold x {:.0} tpm-C/node)\n",
            out.knee, out.per_node_ref
        ));
    } else {
        s.push_str(&format!(
            "no knee up to {} nodes (still scaling at the range edge)\n",
            out.knee
        ));
    }
    s
}
