//! The parsed form of a `.dcs` scenario file.
//!
//! A [`Scenario`] is deliberately close to the text: an ordered list of
//! `key = value(s)` [`Entry`]s (multi-valued entries are sweep axes),
//! structured [`FaultLine`]s, a [`SweepSpec`] and an [`OutputSpec`].
//! [`crate::plan::compile`] lowers it onto [`ClusterConfig`]; the
//! canonical writer [`Scenario::to_dcs`] regenerates text that parses
//! back to an equal `Scenario` (the round-trip property the tests pin).

use std::fmt;

use dclue_cluster::config::{ClientModel, LogPlacement, Policer, StorageMode};
use dclue_cluster::{ClusterConfig, DbGrowth, FabricShape, ProtocolKind, QosPolicy, TcpOffload};
use dclue_fault::LinkRef;
use dclue_sim::Duration;
use dclue_storage::IscsiMode;

/// The sections a scenario file may contain, in canonical write order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    Engine,
    Topology,
    Protocol,
    Workload,
    Storage,
    Fault,
    Sweep,
    Output,
    Service,
}

impl Section {
    pub const ALL: [Section; 9] = [
        Section::Engine,
        Section::Topology,
        Section::Protocol,
        Section::Workload,
        Section::Storage,
        Section::Fault,
        Section::Sweep,
        Section::Output,
        Section::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Section::Engine => "engine",
            Section::Topology => "topology",
            Section::Protocol => "protocol",
            Section::Workload => "workload",
            Section::Storage => "storage",
            Section::Fault => "fault",
            Section::Sweep => "sweep",
            Section::Output => "output",
            Section::Service => "service",
        }
    }

    pub fn from_name(s: &str) -> Option<Section> {
        Section::ALL.iter().copied().find(|sec| sec.name() == s)
    }
}

/// One typed scenario value. Every variant has a canonical spelling
/// ([`fmt::Display`]) that the parser accepts back.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    U32(u32),
    U64(u64),
    F64(f64),
    Bool(bool),
    Dur(Duration),
    Protocol(ProtocolKind),
    Qos(QosPolicy),
    Growth(DbGrowth),
    Storage(StorageMode),
    Log(LogPlacement),
    Tcp(TcpOffload),
    Iscsi(IscsiMode),
    Policer(Policer),
    Client(ClientModel),
    Shape(FabricShape),
}

/// Canonical duration text: the coarsest unit that divides evenly.
pub fn format_duration(d: Duration) -> String {
    let ns = d.0;
    if ns == 0 {
        "0s".into()
    } else if ns % 1_000_000_000 == 0 {
        format!("{}s", ns / 1_000_000_000)
    } else if ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U32(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Dur(d) => write!(f, "{}", format_duration(*d)),
            Value::Protocol(k) => write!(f, "{}", k.label()),
            Value::Qos(q) => match q {
                QosPolicy::AllBestEffort => write!(f, "best-effort"),
                QosPolicy::FtpPriority => write!(f, "ftp-priority"),
                QosPolicy::FtpWfq { af_weight } => write!(f, "wfq({af_weight})"),
                QosPolicy::Autonomic { tolerance } => write!(f, "autonomic({tolerance})"),
            },
            Value::Growth(g) => match g {
                DbGrowth::Linear => write!(f, "linear"),
                DbGrowth::SqrtBeyond(knee) => write!(f, "sqrt({knee})"),
            },
            Value::Storage(s) => match s {
                StorageMode::Distributed => write!(f, "distributed"),
                StorageMode::San { fabric_latency } => {
                    write!(f, "san({})", format_duration(*fabric_latency))
                }
            },
            Value::Log(p) => match p {
                LogPlacement::Local => write!(f, "local"),
                LogPlacement::Central => write!(f, "central"),
            },
            Value::Tcp(t) => match t {
                TcpOffload::Hardware => write!(f, "hardware"),
                TcpOffload::Software => write!(f, "software"),
            },
            Value::Iscsi(m) => match m {
                IscsiMode::Hardware => write!(f, "hardware"),
                IscsiMode::Software => write!(f, "software"),
            },
            Value::Policer(p) => write!(f, "rate:{},burst:{}", p.rate_bps, p.burst_bytes),
            Value::Client(m) => match m {
                ClientModel::Exact => write!(f, "exact"),
                ClientModel::Aggregate => write!(f, "aggregate"),
            },
            Value::Shape(s) => write!(f, "{}", s.label()),
        }
    }
}

/// The value type a key expects (drives parsing and list checking).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ty {
    U32,
    U64,
    F64,
    Bool,
    Dur,
    Protocol,
    Qos,
    Growth,
    Storage,
    Log,
    Tcp,
    Iscsi,
    Policer,
    Client,
    Shape,
}

/// Grammar entry for one `key = value` knob: which section owns it,
/// what type it parses as, and whether a list (sweep axis) is allowed.
pub struct KeySpec {
    pub section: Section,
    pub key: &'static str,
    pub ty: Ty,
    pub sweepable: bool,
}

const fn k(section: Section, key: &'static str, ty: Ty, sweepable: bool) -> KeySpec {
    KeySpec {
        section,
        key,
        ty,
        sweepable,
    }
}

/// Every `key = value` knob the DSL understands, grouped by section.
/// Keys are globally unique so error messages can say where a
/// misplaced key actually belongs.
pub const KEYS: &[KeySpec] = &[
    // [engine] — how to run, not what to run.
    k(Section::Engine, "exact", Ty::Bool, false),
    k(Section::Engine, "warmup", Ty::Dur, false),
    k(Section::Engine, "measure", Ty::Dur, false),
    k(Section::Engine, "seeds", Ty::U64, false),
    k(Section::Engine, "jobs", Ty::U64, false),
    // [topology] — cluster shape, fabric and data scale.
    k(Section::Topology, "nodes", Ty::U32, true),
    k(Section::Topology, "latas", Ty::U32, true),
    // Not sweepable: the fabric shape changes what the other topology
    // knobs *mean* (latas vs racks) — compare shapes across scenarios,
    // not inside one grid.
    k(Section::Topology, "topology", Ty::Shape, false),
    k(Section::Topology, "nodes_per_edge", Ty::U32, true),
    k(Section::Topology, "agg_switches", Ty::U32, true),
    k(Section::Topology, "uplinks", Ty::U32, true),
    k(Section::Topology, "agg_trunk_bw", Ty::F64, true),
    k(Section::Topology, "affinity", Ty::F64, true),
    k(Section::Topology, "warehouses_per_node", Ty::U32, true),
    k(Section::Topology, "db_growth", Ty::Growth, true),
    k(Section::Topology, "link_bw", Ty::F64, true),
    k(Section::Topology, "trunk_bw", Ty::F64, true),
    k(Section::Topology, "router_rate", Ty::F64, true),
    k(Section::Topology, "extra_trunk_latency", Ty::Dur, true),
    k(Section::Topology, "red", Ty::Bool, true),
    // [protocol] — coherence protocol and protocol processing.
    k(Section::Protocol, "kind", Ty::Protocol, true),
    k(Section::Protocol, "mvcc", Ty::Bool, true),
    k(Section::Protocol, "coarse_locks", Ty::Bool, true),
    k(Section::Protocol, "tcp", Ty::Tcp, true),
    k(Section::Protocol, "iscsi", Ty::Iscsi, true),
    // [workload] — offered load and computation mix.
    k(Section::Workload, "clients_per_node", Ty::U32, true),
    // Not sweepable: the client model changes the *driver engine*, not
    // an experiment variable — comparing the two belongs in dedicated
    // equivalence runs, not inside one sweep grid.
    k(Section::Workload, "client_model", Ty::Client, false),
    k(Section::Workload, "client_conns_per_node", Ty::U32, true),
    k(Section::Workload, "think_time", Ty::Dur, true),
    k(Section::Workload, "computation_factor", Ty::F64, true),
    k(Section::Workload, "thrash_model", Ty::Bool, true),
    k(Section::Workload, "ftp_offered_bps", Ty::F64, true),
    k(Section::Workload, "ftp_max_concurrent", Ty::U32, true),
    k(Section::Workload, "ftp_policer", Ty::Policer, false),
    k(Section::Workload, "qos", Ty::Qos, true),
    // [storage] — storage architecture and logging policy.
    k(Section::Storage, "mode", Ty::Storage, true),
    k(Section::Storage, "log_placement", Ty::Log, true),
    k(Section::Storage, "group_commit", Ty::Bool, true),
    k(Section::Storage, "data_spindles", Ty::U32, true),
    k(Section::Storage, "log_spindles", Ty::U32, true),
    k(Section::Storage, "elevator", Ty::Bool, true),
    k(Section::Storage, "buffer_fraction", Ty::F64, true),
];

/// Look up a knob by key name (keys are globally unique).
pub fn key_spec(key: &str) -> Option<&'static KeySpec> {
    KEYS.iter().find(|s| s.key == key)
}

/// Apply one knob to a config. The parser guarantees the value variant
/// matches the key's [`Ty`], so a mismatch here is a bug, not an input
/// error.
pub fn apply(cfg: &mut ClusterConfig, key: &str, v: &Value) {
    match (key, v) {
        ("exact", Value::Bool(b)) => cfg.exact = *b,
        ("warmup", Value::Dur(d)) => cfg.warmup = *d,
        ("measure", Value::Dur(d)) => cfg.measure = *d,
        ("nodes", Value::U32(n)) => cfg.nodes = *n,
        ("latas", Value::U32(n)) => cfg.latas = *n,
        ("topology", Value::Shape(s)) => cfg.topology = *s,
        ("nodes_per_edge", Value::U32(n)) => cfg.nodes_per_edge = *n,
        ("agg_switches", Value::U32(n)) => cfg.agg_switches = *n,
        ("uplinks", Value::U32(n)) => cfg.uplinks = *n,
        ("agg_trunk_bw", Value::F64(b)) => cfg.agg_trunk_bw = *b,
        ("affinity", Value::F64(a)) => cfg.affinity = *a,
        ("warehouses_per_node", Value::U32(n)) => cfg.warehouses_per_node = *n,
        ("db_growth", Value::Growth(g)) => cfg.db_growth = *g,
        ("link_bw", Value::F64(b)) => cfg.link_bw = *b,
        ("trunk_bw", Value::F64(b)) => cfg.trunk_bw = *b,
        ("router_rate", Value::F64(r)) => cfg.router_rate = *r,
        ("extra_trunk_latency", Value::Dur(d)) => cfg.extra_trunk_latency = *d,
        ("red", Value::Bool(b)) => cfg.red = *b,
        ("kind", Value::Protocol(p)) => cfg.protocol = *p,
        ("mvcc", Value::Bool(b)) => cfg.mvcc = *b,
        ("coarse_locks", Value::Bool(b)) => cfg.coarse_locks = *b,
        ("tcp", Value::Tcp(t)) => cfg.tcp_offload = *t,
        ("iscsi", Value::Iscsi(m)) => cfg.iscsi_mode = *m,
        ("clients_per_node", Value::U32(n)) => cfg.clients_per_node = *n,
        ("client_model", Value::Client(m)) => cfg.client_model = *m,
        ("client_conns_per_node", Value::U32(n)) => cfg.client_conns_per_node = *n,
        ("think_time", Value::Dur(d)) => cfg.think_time = *d,
        ("computation_factor", Value::F64(c)) => cfg.computation_factor = *c,
        ("thrash_model", Value::Bool(b)) => cfg.thrash_model = *b,
        ("ftp_offered_bps", Value::F64(b)) => cfg.ftp_offered_bps = *b,
        ("ftp_max_concurrent", Value::U32(n)) => cfg.ftp_max_concurrent = Some(*n),
        ("ftp_policer", Value::Policer(p)) => cfg.ftp_policer = Some(*p),
        ("qos", Value::Qos(q)) => cfg.qos = *q,
        ("mode", Value::Storage(s)) => cfg.storage = *s,
        ("log_placement", Value::Log(p)) => cfg.log_placement = *p,
        ("group_commit", Value::Bool(b)) => cfg.group_commit = *b,
        ("data_spindles", Value::U32(n)) => cfg.data_spindles = *n,
        ("log_spindles", Value::U32(n)) => cfg.log_spindles = *n,
        ("elevator", Value::Bool(b)) => cfg.elevator = *b,
        ("buffer_fraction", Value::F64(f)) => cfg.buffer_fraction = *f,
        // "seeds"/"jobs" are harness-level and handled by the compiler.
        ("seeds", _) | ("jobs", _) => {}
        _ => unreachable!("parser produced mismatched value for key '{key}'"),
    }
}

/// One `key = value(s)` line, in file order. A single value is a
/// scalar setting; several values make the key a sweep axis.
#[derive(Clone, PartialEq, Debug)]
pub struct Entry {
    pub section: Section,
    pub key: &'static str,
    pub values: Vec<Value>,
}

impl Entry {
    pub fn is_axis(&self) -> bool {
        self.values.len() > 1
    }
}

/// One structured `[fault]` line. These lower onto the corresponding
/// [`dclue_fault::FaultPlan`] builder helpers.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultLine {
    LinkFlap {
        link: LinkRef,
        at: Duration,
        dur: Duration,
    },
    Degrade {
        link: LinkRef,
        at: Duration,
        dur: Duration,
        factor: f64,
    },
    LossBurst {
        link: LinkRef,
        at: Duration,
        dur: Duration,
        drop: f64,
        corrupt: f64,
    },
    PortFail {
        link: LinkRef,
        at: Duration,
        dur: Duration,
    },
    NodeOutage {
        node: usize,
        at: Duration,
        dur: Duration,
    },
    IscsiStall {
        node: usize,
        at: Duration,
        dur: Duration,
    },
}

/// Canonical `link` spelling: `node_uplink:0`, `client_uplink:1`,
/// `trunk:0`.
pub fn format_link(l: LinkRef) -> String {
    match l {
        LinkRef::NodeUplink(i) => format!("node_uplink:{i}"),
        LinkRef::ClientUplink(i) => format!("client_uplink:{i}"),
        LinkRef::Trunk(i) => format!("trunk:{i}"),
    }
}

impl fmt::Display for FaultLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = format_duration;
        match self {
            FaultLine::LinkFlap { link, at, dur } => {
                write!(
                    f,
                    "link_flap {} at={} for={}",
                    format_link(*link),
                    d(*at),
                    d(*dur)
                )
            }
            FaultLine::Degrade {
                link,
                at,
                dur,
                factor,
            } => write!(
                f,
                "degrade {} at={} for={} factor={}",
                format_link(*link),
                d(*at),
                d(*dur),
                factor
            ),
            FaultLine::LossBurst {
                link,
                at,
                dur,
                drop,
                corrupt,
            } => write!(
                f,
                "loss_burst {} at={} for={} drop={} corrupt={}",
                format_link(*link),
                d(*at),
                d(*dur),
                drop,
                corrupt
            ),
            FaultLine::PortFail { link, at, dur } => {
                write!(
                    f,
                    "port_fail {} at={} for={}",
                    format_link(*link),
                    d(*at),
                    d(*dur)
                )
            }
            FaultLine::NodeOutage { node, at, dur } => {
                write!(f, "node_outage {node} at={} for={}", d(*at), d(*dur))
            }
            FaultLine::IscsiStall { node, at, dur } => {
                write!(f, "iscsi_stall {node} at={} for={}", d(*at), d(*dur))
            }
        }
    }
}

impl FaultLine {
    /// Append this line's events to a fault plan.
    pub fn extend(&self, plan: dclue_fault::FaultPlan) -> dclue_fault::FaultPlan {
        match *self {
            FaultLine::LinkFlap { link, at, dur } => plan.link_flap(link, at, dur),
            FaultLine::Degrade {
                link,
                at,
                dur,
                factor,
            } => plan.degraded_window(link, at, dur, factor),
            FaultLine::LossBurst {
                link,
                at,
                dur,
                drop,
                corrupt,
            } => plan.loss_burst(link, at, dur, drop, corrupt),
            FaultLine::PortFail { link, at, dur } => plan.port_fail_window(link, at, dur),
            FaultLine::NodeOutage { node, at, dur } => plan.node_outage(node, at, dur),
            FaultLine::IscsiStall { node, at, dur } => plan.iscsi_stall(node, at, dur),
        }
    }
}

/// How the sweep axes are explored.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum SweepSpec {
    /// Cartesian product of the cases and every axis (cases outermost,
    /// then axes in file order) — the shape of every figure grid.
    #[default]
    Grid,
    /// Adaptive bisection for the scalability knee on the `nodes` axis.
    Knee(KneeSpec),
}

/// Parameters of the adaptive knee search (see [`crate::knee`]).
#[derive(Clone, PartialEq, Debug)]
pub struct KneeSpec {
    /// Axis to bisect. Currently always `"nodes"`.
    pub axis: &'static str,
    /// Smallest cluster size to consider.
    pub min: u32,
    /// Largest cluster size to consider.
    pub max: u32,
    /// Grid step between candidate sizes (the knee is reported on this
    /// grid, so bisection and a full scan agree exactly when the
    /// marginal-gain curve is monotone).
    pub step: u32,
    /// Knee threshold: the knee is the first candidate `n` where the
    /// marginal tpm-C gained per added node between `n` and `n + step`
    /// falls below `threshold` x the per-node throughput at `min`.
    pub threshold: f64,
}

/// What `figures run` prints and `/metrics` reports per point.
#[derive(Clone, PartialEq, Debug)]
pub struct OutputSpec {
    /// Report columns, in print order (names from [`crate::columns`]).
    pub columns: Vec<&'static str>,
    /// Insert a blank line whenever this axis key (or `case`) changes
    /// value; also the group whose first row is the reference for
    /// `tpmc_drop_pct`.
    pub group_by: Option<&'static str>,
}

impl Default for OutputSpec {
    fn default() -> Self {
        OutputSpec {
            columns: vec!["nodes", "affinity", "tpmc_scaled", "txn_latency_ms"],
            group_by: None,
        }
    }
}

/// One `[case <label>]` section: a named point whose scalar overrides
/// apply on top of the base config. Cases form the outermost axis, in
/// file order.
#[derive(Clone, PartialEq, Debug)]
pub struct Case {
    pub label: String,
    /// Single-valued entries, in file order.
    pub entries: Vec<Entry>,
}

/// A parsed scenario file.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Identifier (`[a-zA-Z0-9_-]+`), used by `figures list` and the
    /// service endpoints.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Every `key = value(s)` knob, in file order.
    pub entries: Vec<Entry>,
    /// `[fault]` lines, in file order.
    pub faults: Vec<FaultLine>,
    /// `[case <label>]` sections, in file order.
    pub cases: Vec<Case>,
    pub sweep: SweepSpec,
    pub output: OutputSpec,
    /// `[service] listen` address, when present.
    pub listen: Option<String>,
}

impl Scenario {
    /// The sweep axes (multi-valued entries), in declaration order.
    pub fn axes(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(|e| e.is_axis())
    }

    /// Canonical text form. `parse(s.to_dcs())` reproduces `s` exactly;
    /// the round-trip tests pin this.
    pub fn to_dcs(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario = {}", self.name);
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", self.description);
        }
        // Sections appear in first-use order, not a fixed order: the
        // cartesian grid nests axes in file order, so reordering
        // sections here would silently change which axis is outermost.
        let mut order: Vec<Section> = Vec::new();
        for e in &self.entries {
            if !order.contains(&e.section) {
                order.push(e.section);
            }
        }
        for s in Section::ALL {
            if !order.contains(&s) {
                order.push(s);
            }
        }
        for section in order {
            let mut lines: Vec<String> = Vec::new();
            for e in self.entries.iter().filter(|e| e.section == section) {
                let vals: Vec<String> = e.values.iter().map(|v| v.to_string()).collect();
                if e.is_axis() {
                    lines.push(format!("{} = [{}]", e.key, vals.join(", ")));
                } else {
                    lines.push(format!("{} = {}", e.key, vals[0]));
                }
            }
            if section == Section::Fault {
                lines.extend(self.faults.iter().map(|f| f.to_string()));
            }
            if section == Section::Sweep {
                if let SweepSpec::Knee(k) = &self.sweep {
                    lines.push("mode = knee".into());
                    lines.push(format!("axis = {}", k.axis));
                    lines.push(format!("min = {}", k.min));
                    lines.push(format!("max = {}", k.max));
                    lines.push(format!("step = {}", k.step));
                    lines.push(format!("threshold = {}", k.threshold));
                }
            }
            if section == Section::Output {
                lines.push(format!("columns = [{}]", self.output.columns.join(", ")));
                if let Some(g) = self.output.group_by {
                    lines.push(format!("group_by = {g}"));
                }
            }
            if section == Section::Service {
                if let Some(l) = &self.listen {
                    lines.push(format!("listen = {l}"));
                }
            }
            if !lines.is_empty() {
                let _ = writeln!(out, "\n[{}]", section.name());
                for l in lines {
                    let _ = writeln!(out, "{l}");
                }
            }
        }
        for case in &self.cases {
            let _ = writeln!(out, "\n[case {}]", case.label);
            for e in &case.entries {
                let _ = writeln!(out, "{} = {}", e.key, e.values[0]);
            }
        }
        out
    }
}
