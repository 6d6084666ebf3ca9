//! dclue-perf: the end-to-end and per-layer benchmark of the dclue-rs
//! simulator.
//!
//! The library holds what the benchmark binary and its tests share:
//!
//! * the three named workloads ([`workload`]), built only from
//!   [`ClusterConfig`]'s public fields, and the simulation seeds one run
//!   covers ([`sim_seed`]),
//! * the correctness fingerprint of a [`Report`] ([`Fingerprint`]) and
//!   the two ways it is checked against a recorded reference: exact
//!   equality for the segment-exact workloads and the statistical
//!   ladder for the segment-train workload ([`Tier`]),
//! * the counting trace sink the traced build installs
//!   ([`CountingSink`]), which counts records by (category, kind, name)
//!   and stamps host time at each `dispatch` record.
//!
//! Only the public surface is used: `ClusterConfig` → `World::new` →
//! `World::run` → `Report`, the `events_processed`, `train_stats` and
//! `driver_slots` accessors, and `Database::build`.

use dclue_cluster::{ClientModel, ClusterConfig, FabricShape, QosPolicy, Report};
use dclue_sim::stats::LogHistogram;
use dclue_sim::Duration;
use dclue_trace::{Category, Kind, TraceRecord, TraceSink};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Every workload the benchmark knows, in the order it lists them.
pub const WORKLOADS: [&str; 3] = ["paper_n16_exact", "qos_ftp_train", "hier64_aggregate"];

/// How a workload's fingerprint is compared with its reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Segment-exact engine: every fingerprint field must match bit for bit.
    Exact,
    /// Segment-train fast path: the statistical ladder (tpm-C 10%, mean
    /// latency 15%, p95 25%, abort rate 2 percentage points).
    Ladder,
}

/// One named workload: its cluster, how its fingerprint is checked,
/// and how many distinct simulation seeds one benchmark run covers.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The configuration, with `seed` set to the run's first
    /// simulation seed.
    pub cfg: ClusterConfig,
    pub tier: Tier,
    /// Simulation seeds per run ([`sim_seed`]). Events per committed
    /// transaction are exact for one seed but vary from seed to seed
    /// by several percent; a run reports them over all its seeds.
    pub seeds: usize,
}

/// The `j`-th simulation seed of a benchmark run started with `seed`;
/// the first is `seed` itself.
pub fn sim_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add(j as u64 * 1_000_000)
}

/// Workload `name` for a run started with `seed`; `None` for an
/// unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let mut cfg = ClusterConfig {
        seed,
        warmup: Duration::from_secs(20),
        measure: Duration::from_secs(40),
        ..ClusterConfig::default()
    };
    let (tier, seeds) = match name {
        // The paper's largest cluster at its headline affinity, exact
        // engine and exact terminals (16 x 200): the golden-capture
        // tier, where the event loop outweighs setup.
        "paper_n16_exact" => {
            cfg.nodes = 16;
            cfg.affinity = 0.8;
            (Tier::Exact, 3)
        }
        // Priority FTP bulk traffic over 6 Mb/s trunks on the
        // segment-train fast path: the only workload where the train
        // coalescer runs. Small database, so setup stays cheap.
        "qos_ftp_train" => {
            cfg.nodes = 8;
            cfg.latas = 2;
            cfg.affinity = 0.8;
            cfg.trunk_bw = 6e6;
            cfg.qos = QosPolicy::FtpPriority;
            cfg.ftp_offered_bps = 6e6;
            cfg.exact = false;
            (Tier::Ladder, 6)
        }
        // The scale workload: 8 racks of 8 behind two aggregation
        // switches with doubled uplinks, aggregate clients. Setup is
        // dominated by building the 2,560-warehouse database. With 8
        // pooled connections per node the saturated aggregation trunk
        // made the commit count swing by +-12% from seed to seed; 4
        // connections keep the trunk saturated with a third of that
        // swing, and the longer window steadies it further.
        "hier64_aggregate" => {
            cfg.topology = FabricShape::Hierarchical;
            cfg.nodes = 64;
            cfg.nodes_per_edge = 8;
            cfg.agg_switches = 2;
            cfg.uplinks = 2;
            cfg.affinity = 0.5;
            cfg.client_model = ClientModel::Aggregate;
            cfg.client_conns_per_node = 4;
            cfg.measure = Duration::from_secs(80);
            (Tier::Exact, 3)
        }
        _ => return None,
    };
    Some(Workload { cfg, tier, seeds })
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

/// The `Report` fields the correctness check compares, in order.
/// Event counts are deliberately absent: a change that dispatches
/// fewer events but leaves the report identical is correct.
pub const FIELDS: [&str; 13] = [
    "committed",
    "aborted",
    "tpmc_scaled",
    "txn_latency_ms",
    "txn_latency_p95_ms",
    "ctl_msgs_per_txn",
    "data_msgs_per_txn",
    "storage_msgs_per_txn",
    "fusion_transfers_per_txn",
    "drops",
    "trunk_utilization",
    "trunk_utilization_edge",
    "trunk_utilization_agg",
];

/// One value per [`FIELDS`] entry. Counts are held as `f64`, which is
/// exact below 2^53.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint(pub [f64; FIELDS.len()]);

impl Fingerprint {
    pub fn of(r: &Report) -> Fingerprint {
        Fingerprint([
            r.committed as f64,
            r.aborted as f64,
            r.tpmc_scaled,
            r.txn_latency_ms,
            r.txn_latency_p95_ms,
            r.ctl_msgs_per_txn,
            r.data_msgs_per_txn,
            r.storage_msgs_per_txn,
            r.fusion_transfers_per_txn,
            r.drops as f64,
            r.trunk_utilization,
            r.trunk_utilization_edge,
            r.trunk_utilization_agg,
        ])
    }

    pub fn get(&self, field: &str) -> f64 {
        let i = FIELDS
            .iter()
            .position(|f| *f == field)
            .unwrap_or_else(|| panic!("unknown fingerprint field '{field}'"));
        self.0[i]
    }

    /// Abort rate in percent of attempted transactions.
    pub fn abort_pct(&self) -> f64 {
        let (c, a) = (self.get("committed"), self.get("aborted"));
        100.0 * a / (c + a).max(1.0)
    }

    /// `field=value` pairs; `{:?}` prints the shortest text that parses
    /// back to the same `f64`, so the form round-trips exactly.
    pub fn to_line(&self) -> String {
        FIELDS
            .iter()
            .zip(self.0.iter())
            .map(|(f, v)| format!("{f}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parse the [`Fingerprint::to_line`] form. Every field must appear
    /// exactly once.
    pub fn parse_line(line: &str) -> Result<Fingerprint, String> {
        let mut vals = [f64::NAN; FIELDS.len()];
        let mut seen = [false; FIELDS.len()];
        for pair in line.split_whitespace() {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("'{pair}' is not field=value"))?;
            let i = FIELDS
                .iter()
                .position(|f| *f == k)
                .ok_or_else(|| format!("unknown field '{k}'"))?;
            if seen[i] {
                return Err(format!("field '{k}' given twice"));
            }
            vals[i] = v.parse().map_err(|e| format!("{k}: {e}"))?;
            seen[i] = true;
        }
        if let Some(i) = seen.iter().position(|s| !s) {
            return Err(format!("field '{}' missing", FIELDS[i]));
        }
        Ok(Fingerprint(vals))
    }
}

/// `|a - b|` relative to the larger magnitude (the repository's ladder
/// definition).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-9)
}

/// Compare `got` with `want` at `tier`. `Err` lists every field that
/// is out of tolerance.
pub fn check(tier: Tier, got: &Fingerprint, want: &Fingerprint) -> Result<(), String> {
    let mut bad = Vec::new();
    match tier {
        Tier::Exact => {
            for (i, f) in FIELDS.iter().enumerate() {
                // Bitwise, so that -0.0 vs 0.0 or a NaN also counts.
                if got.0[i].to_bits() != want.0[i].to_bits() {
                    bad.push(format!("{f}: got {:?}, want {:?}", got.0[i], want.0[i]));
                }
            }
        }
        Tier::Ladder => {
            for (f, tol) in [
                ("tpmc_scaled", 0.10),
                ("txn_latency_ms", 0.15),
                ("txn_latency_p95_ms", 0.25),
            ] {
                let (g, w) = (got.get(f), want.get(f));
                let d = rel_diff(g, w);
                if d.is_nan() || d > tol {
                    bad.push(format!("{f}: got {g:?}, want {w:?} (off {d:.4} > {tol})"));
                }
            }
            let pp = (got.abort_pct() - want.abort_pct()).abs();
            if pp.is_nan() || pp > 2.0 {
                bad.push(format!(
                    "abort rate: got {:.3}%, want {:.3}% (off {pp:.3} pp > 2 pp)",
                    got.abort_pct(),
                    want.abort_pct()
                ));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Recorded reference fingerprints, one line per `workload seed`:
/// `<workload> <seed> field=value ...`. Blank lines and `#` comments
/// are skipped.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// The recorded fingerprint of `workload` under `seed`, if any.
pub fn reference(workload: &str, seed: u64) -> Option<Fingerprint> {
    REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.splitn(3, ' ');
            let (w, s, rest) = (it.next()?, it.next()?, it.next()?);
            (w == workload && s.parse() == Ok(seed)).then(|| {
                Fingerprint::parse_line(rest)
                    .unwrap_or_else(|e| panic!("reference.txt, {w} {s}: {e}"))
            })
        })
}

// ---------------------------------------------------------------------
// Counting trace sink
// ---------------------------------------------------------------------

/// A write-only sink: counts records by (category, kind, name) and
/// stamps host time at each `sim/dispatch` record, so the gap between
/// two dispatch records is the host cost of dispatching one event.
#[derive(Clone)]
pub struct CountingSink {
    dispatches: u64,
    /// Keyed (category label, chrome phase letter, name).
    counts: HashMap<(&'static str, &'static str, &'static str), u64>,
    last_dispatch: Option<Instant>,
    dispatch_ns: LogHistogram,
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink {
            dispatches: 0,
            counts: HashMap::new(),
            last_dispatch: None,
            // 1 ns .. 10 s in buckets 2.3% wide.
            dispatch_ns: LogHistogram::new(1.0, 1e10, 1000),
        }
    }
}

impl CountingSink {
    /// `sim/dispatch` records seen: one per event the engine popped.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Host nanoseconds between consecutive dispatch records.
    pub fn dispatch_ns(&self) -> &LogHistogram {
        &self.dispatch_ns
    }

    /// Record counts keyed `category.name`, with `.B`, `.E` or `.C`
    /// appended for span edges and counter samples; sorted, so the
    /// map compares and prints the same on every run.
    pub fn counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        if self.dispatches > 0 {
            out.insert("sim.dispatch".to_string(), self.dispatches);
        }
        for (&(cat, phase, name), &n) in &self.counts {
            let key = if phase == Kind::Instant.phase() {
                format!("{cat}.{name}")
            } else {
                format!("{cat}.{name}.{phase}")
            };
            out.insert(key, n);
        }
        out
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: &TraceRecord) {
        if rec.cat == Category::Sim && rec.name == "dispatch" {
            let now = Instant::now();
            if let Some(prev) = self.last_dispatch {
                self.dispatch_ns
                    .record(now.duration_since(prev).as_nanos() as f64);
            }
            self.last_dispatch = Some(now);
            self.dispatches += 1;
        } else {
            *self
                .counts
                .entry((rec.cat.label(), rec.kind.phase(), rec.name))
                .or_insert(0) += 1;
        }
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------

/// This process's peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number (`null` when not finite). `{:?}` keeps every
/// digit and always parses back to the same `f64`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}
