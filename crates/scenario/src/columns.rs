//! Report columns a scenario's `[output]` section can select.
//!
//! Each column has a stable name, a formatting precision and an
//! extractor over a [`Row`] — config-side columns (`nodes`,
//! `affinity`, `kind`, …) echo the grid point, report-side columns pull
//! the measured series, and `tpmc_drop_pct` compares the row with its
//! group's reference row. Any sweep-axis key (`qos`, `log_placement`,
//! …) and `case` can also be named: they print the point's coordinate
//! in its canonical spelling. The same table drives the `figures run`
//! text table, the CSV/JSON files and the `/metrics` JSON, so they can
//! never disagree on spelling.

use crate::ast::key_spec;
use crate::plan::Point;
use dclue_cluster::Report;

/// One extracted cell.
#[derive(Clone, PartialEq, Debug)]
pub enum Cell {
    U(u64),
    F(f64),
    S(String),
}

impl Cell {
    /// Text form at the column's precision.
    pub fn text(&self, precision: usize) -> String {
        match self {
            Cell::U(v) => format!("{v}"),
            Cell::F(v) => format!("{v:.precision$}"),
            Cell::S(s) => s.clone(),
        }
    }

    /// JSON form (numbers stay numbers).
    pub fn json(&self) -> crate::json::Json {
        match self {
            Cell::U(v) => crate::json::Json::Num(*v as f64),
            Cell::F(v) => crate::json::Json::Num(*v),
            Cell::S(s) => crate::json::Json::Str(s.clone()),
        }
    }
}

/// What a column reads: the grid point, its report, and the report of
/// the first row of its `[output] group_by` group (of the whole table
/// when there is no `group_by`).
pub struct Row<'a> {
    pub point: &'a Point,
    pub report: &'a Report,
    pub reference: &'a Report,
}

#[derive(Clone, Copy)]
enum Source {
    Row(fn(&Row) -> Cell),
    /// The point's coordinate on the axis (or `case`) of this name.
    Coord,
}

/// Column descriptor: `(name, precision, extractor)`.
#[derive(Clone, Copy)]
pub struct Column {
    pub name: &'static str,
    pub precision: usize,
    source: Source,
}

impl Column {
    pub fn cell(&self, row: &Row) -> Cell {
        match self.source {
            Source::Row(f) => f(row),
            Source::Coord => Cell::S(row.point.coord(self.name).unwrap_or("").to_string()),
        }
    }

    /// Whether this column prints a point coordinate (`case` or an
    /// axis key) rather than a config or report value.
    pub fn is_coord(&self) -> bool {
        matches!(self.source, Source::Coord)
    }
}

macro_rules! col {
    ($name:literal, $prec:literal, |$c:ident, $r:ident| $body:expr) => {
        Column {
            name: $name,
            precision: $prec,
            source: Source::Row(|row: &Row| {
                let ($c, $r) = (&row.point.cfg, row.report);
                $body
            }),
        }
    };
}

/// An availability figure of a fault run; `none` without a fault plan.
fn avail(r: &Report, f: fn(&dclue_fault::Availability) -> Option<f64>) -> Cell {
    match r.availability.as_ref().and_then(f) {
        Some(v) => Cell::F(v),
        None => Cell::S("none".into()),
    }
}

/// Every selectable column.
pub const COLUMNS: &[Column] = &[
    // Grid-point echoes (from the config, so they are exact even for
    // columns the report does not carry).
    col!("nodes", 0, |c, _r| Cell::U(c.nodes as u64)),
    col!("latas", 0, |c, _r| Cell::U(c.effective_latas() as u64)),
    col!("affinity", 2, |c, _r| Cell::F(c.affinity)),
    col!(
        "warehouses",
        0,
        |c, _r| Cell::U(c.total_warehouses() as u64)
    ),
    col!("kind", 0, |c, _r| Cell::S(c.protocol.label().into())),
    col!("racks", 0, |c, _r| Cell::U(
        c.effective_edge_switches() as u64
    )),
    // Added one-way inter-lata latency in real microseconds: the
    // config holds half of it per trunk link, at the 100x time scale.
    col!("extra_real_us", 0, |c, _r| Cell::U(
        c.extra_trunk_latency.0 * 2 / 100_000
    )),
    // Offered FTP load in real Mb/s (the config holds scaled bit/s).
    col!("ftp_real_mbps", 0, |c, _r| Cell::F(
        c.ftp_offered_bps * 100.0 / 1e6
    )),
    Column {
        name: "case",
        precision: 0,
        source: Source::Coord,
    },
    // Measured series (names match the `Report` fields).
    col!("tpmc_scaled", 0, |_c, r| Cell::F(r.tpmc_scaled)),
    Column {
        name: "tpmc_drop_pct",
        precision: 1,
        source: Source::Row(|row| {
            Cell::F(100.0 * (1.0 - row.report.tpmc_scaled / row.reference.tpmc_scaled.max(1.0)))
        }),
    },
    col!("tpmc_equivalent", 0, |_c, r| Cell::F(r.tpmc_equivalent)),
    col!("tps_scaled", 1, |_c, r| Cell::F(r.tps_scaled)),
    col!("committed", 0, |_c, r| Cell::U(r.committed)),
    col!("aborted", 0, |_c, r| Cell::U(r.aborted)),
    col!("abort_pct", 2, |_c, r| {
        let attempts = (r.committed + r.aborted).max(1);
        Cell::F(100.0 * r.aborted as f64 / attempts as f64)
    }),
    col!("ctl_msgs_per_txn", 2, |_c, r| Cell::F(r.ctl_msgs_per_txn)),
    col!("data_msgs_per_txn", 2, |_c, r| Cell::F(r.data_msgs_per_txn)),
    col!("storage_msgs_per_txn", 2, |_c, r| Cell::F(
        r.storage_msgs_per_txn
    )),
    col!("lock_waits_per_txn", 3, |_c, r| Cell::F(
        r.lock_waits_per_txn
    )),
    col!("lock_busies_per_txn", 3, |_c, r| Cell::F(
        r.lock_busies_per_txn
    )),
    col!("lock_wait_ms", 1, |_c, r| Cell::F(r.lock_wait_ms)),
    col!("txn_latency_ms", 1, |_c, r| Cell::F(r.txn_latency_ms)),
    col!("txn_latency_p95_ms", 1, |_c, r| Cell::F(
        r.txn_latency_p95_ms
    )),
    col!("avg_cpi", 2, |_c, r| Cell::F(r.avg_cpi)),
    col!("avg_cs_cycles", 0, |_c, r| Cell::F(r.avg_cs_cycles)),
    col!("avg_live_threads", 1, |_c, r| Cell::F(r.avg_live_threads)),
    col!("cpu_util", 2, |_c, r| Cell::F(r.cpu_util)),
    col!("buffer_hit_ratio", 3, |_c, r| Cell::F(r.buffer_hit_ratio)),
    col!("fusion_transfers_per_txn", 2, |_c, r| Cell::F(
        r.fusion_transfers_per_txn
    )),
    col!("lease_transfers_per_txn", 2, |_c, r| Cell::F(
        r.lease_transfers_per_txn
    )),
    col!("lease_renewals_per_txn", 2, |_c, r| Cell::F(
        r.lease_renewals_per_txn
    )),
    col!("disk_reads_per_txn", 2, |_c, r| Cell::F(
        r.disk_reads_per_txn
    )),
    col!("version_walks_per_txn", 3, |_c, r| Cell::F(
        r.version_walks_per_txn
    )),
    col!("versions_created_per_txn", 2, |_c, r| Cell::F(
        r.versions_created_per_txn
    )),
    col!("trunk_mbps", 2, |_c, r| Cell::F(r.trunk_mbps)),
    col!("trunk_utilization", 3, |_c, r| Cell::F(r.trunk_utilization)),
    col!("trunk_mbps_edge", 2, |_c, r| Cell::F(r.trunk_mbps_edge)),
    col!("trunk_util_edge", 3, |_c, r| Cell::F(
        r.trunk_utilization_edge
    )),
    col!("trunk_mbps_agg", 2, |_c, r| Cell::F(r.trunk_mbps_agg)),
    col!("trunk_util_agg", 3, |_c, r| Cell::F(
        r.trunk_utilization_agg
    )),
    col!("max_path_hops", 0, |_c, r| Cell::U(r.max_path_hops as u64)),
    col!("ftp_mbps", 2, |_c, r| Cell::F(r.ftp_mbps)),
    col!("ftp_denied", 0, |_c, r| Cell::U(r.ftp_denied)),
    col!("drops", 0, |_c, r| Cell::U(r.drops)),
    col!("iscsi_retries", 0, |_c, r| Cell::U(r.iscsi_retries)),
    col!("aborted_by_fault", 0, |_c, r| Cell::U(r.aborted_by_fault)),
    col!("fault_events_applied", 0, |_c, r| Cell::U(
        r.fault_events_applied
    )),
    col!("fault_drops", 0, |_c, r| Cell::U(r.fault_drops)),
    col!("baseline_rate", 1, |_c, r| avail(r, |a| Some(
        a.baseline_rate
    ))),
    col!("min_rate", 1, |_c, r| avail(r, |a| Some(a.min_rate))),
    col!("downtime_s", 1, |_c, r| avail(r, |a| Some(a.downtime_s))),
    col!("degraded_s", 1, |_c, r| avail(r, |a| Some(a.degraded_s))),
    col!("recovery_s", 1, |_c, r| avail(r, |a| a.recovery_s)),
];

/// Look a column up by name: the table above, else a sweepable
/// scenario key, which prints the point's coordinate on that axis.
pub fn column(name: &str) -> Option<Column> {
    COLUMNS
        .iter()
        .find(|c| c.name == name)
        .copied()
        .or_else(|| {
            key_spec(name).filter(|s| s.sweepable).map(|s| Column {
                name: s.key,
                precision: 0,
                source: Source::Coord,
            })
        })
}
