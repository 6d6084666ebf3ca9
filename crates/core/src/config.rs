//! Experiment configuration: one struct that can express every run in
//! the paper's evaluation section.

use dclue_db::TpccScale;
use dclue_platform::PlatformConfig;
use dclue_sim::Duration;
use dclue_storage::{DiskConfig, IscsiMode};

/// Where the TCP fast path runs (Fig 11).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TcpOffload {
    /// Fast path in hardware (the paper's default for most experiments).
    #[default]
    Hardware,
    /// Traditional OS-kernel software TCP (1 copy send, 2 copies recv).
    Software,
}

/// Diff-serv arrangement for the cross-traffic study (Figs 14-16).
/// `FtpWfq` explores the WFQ mechanism the paper lists but does not
/// evaluate: FTP still rides AF21, but routers schedule it with a
/// bounded weight instead of strict priority.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum QosPolicy {
    /// Everything best effort ("the lazy approach").
    #[default]
    AllBestEffort,
    /// DBMS best effort; FTP promoted to AF21 (priority + deeper queue).
    FtpPriority,
    /// DBMS best effort; FTP in AF21 served by WFQ with this weight.
    FtpWfq { af_weight: f64 },
    /// The paper's stated future work: QoS "done almost autonomically
    /// without the data center administrator doing manual setups". A
    /// feedback controller watches DBMS transaction latency and adapts
    /// the WFQ weight of the FTP class: latency above
    /// `1 + tolerance` x the warm-up baseline shrinks the weight,
    /// latency back in budget lets it recover.
    Autonomic { tolerance: f64 },
}

/// How client terminals are simulated (DESIGN.md §14).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ClientModel {
    /// One client session per terminal, each with its own think timer
    /// and per-business-transaction TCP connection — the literal
    /// closed-loop model, bit-identical to every golden capture.
    #[default]
    Exact,
    /// Aggregate terminal populations: per node, the N exponential
    /// think timers collapse into one arrival process (only the *next*
    /// wake-up is sampled, order-statistics style, re-armed on every
    /// dispatch and completion), and requests multiplex over a pooled
    /// connection tier capped at
    /// [`ClusterConfig::client_conns_per_node`] concurrent business
    /// transactions per population. Driver state is O(active
    /// transactions), not O(terminals), so million-terminal
    /// populations are a scenario, not an OOM. Statistically
    /// equivalent to `Exact` at matched populations (the same ladder
    /// the train engine is held to), not bit-identical.
    Aggregate,
}

impl ClientModel {
    /// Short stable label for tables and scenario files.
    pub fn label(self) -> &'static str {
        match self {
            ClientModel::Exact => "exact",
            ClientModel::Aggregate => "aggregate",
        }
    }
}

/// Which fabric shape [`crate::topology::Topology`] compiles for the
/// cluster (see DESIGN.md §15).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FabricShape {
    /// The paper's Fig 1 star: one router per lata (plus an outer
    /// router when there are several), every node hanging off its
    /// lata's router. Bit-identical to the golden captures.
    #[default]
    Paper,
    /// Two-tier edge/aggregation tree: `nodes_per_edge` nodes per edge
    /// switch, edge switches divided across `agg_switches` aggregation
    /// switches, aggregation switches joined by a core router when
    /// there are several. Trunk multiplicity per uplink comes from
    /// `uplinks`. This is the shape that reaches n = 128 — the paper's
    /// single-switch star stops at its port count.
    Hierarchical,
}

impl FabricShape {
    /// Short stable label for tables and scenario files.
    pub fn label(self) -> &'static str {
        match self {
            FabricShape::Paper => "paper",
            FabricShape::Hierarchical => "hierarchical",
        }
    }
}

/// How the database grows with cluster size (Fig 10).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum DbGrowth {
    /// TPC-C rule: warehouses scale linearly with target throughput.
    #[default]
    Linear,
    /// Linear up to the given scaled tpm-C, square-root beyond it —
    /// contention rises with cluster size past the knee.
    SqrtBeyond(f64),
}

/// Token-bucket policer/shaper for the FTP edge (§3.4 lists "traffic
/// policing/shaping (e.g., leaky bucket)" among the diff-serv
/// mechanisms; the paper leaves it unevaluated).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Policer {
    /// Sustained rate in bit/s (scaled).
    pub rate_bps: f64,
    /// Burst allowance in bytes.
    pub burst_bytes: f64,
}

/// Storage architecture (§2.1 of the paper): distributed per-node
/// iSCSI storage (the paper's main configuration) or a centralized
/// SAN — "the set of all IO subsystems forms a virtual SAN which is
/// accessed via some unmodeled SAN fabric" — modelled as one shared
/// disk array behind a fixed fabric latency.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum StorageMode {
    #[default]
    Distributed,
    San {
        /// One-way SAN fabric latency (scaled time).
        fabric_latency: Duration,
    },
}

/// Log placement (Fig 9).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LogPlacement {
    /// Every node logs to its own log disks.
    #[default]
    Local,
    /// One node (node 0) performs all logging; others ship log data
    /// over the fabric via iSCSI.
    Central,
}

/// Which coherence / concurrency-control protocol the cluster runs
/// (see [`crate::protocol::CoherenceProtocol`]). The paper evaluates a
/// cache-fusion 2PL design; the read-lease variant explores the axis
/// that *The End of Slow Networks* and *P4DB* argue matters once the
/// fabric is fast: where snapshot reads are served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolKind {
    /// Cache-fusion block transfers + distributed two-phase locking
    /// (the paper's protocol; the bit-identical baseline).
    #[default]
    CacheFusion2pl,
    /// Snapshot reads served from the local buffer under time-bounded
    /// leases from the page home; writes still take exclusive locks and
    /// ship write-sets over IPC. Requires `mvcc` (version walks give
    /// leased reads a consistent snapshot).
    MvccReadLease,
}

impl ProtocolKind {
    /// Short stable label for tables and trace records.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::CacheFusion2pl => "fusion2pl",
            ProtocolKind::MvccReadLease => "mvcc-lease",
        }
    }
}

/// Full experiment configuration. Defaults reproduce the paper's
/// baseline: P4 DP nodes, 1 Gb/s links (100x-scaled to 10 Mb/s),
/// hardware TCP + iSCSI, distributed storage, local logging, α = 0.8.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterConfig {
    /// Server nodes in the cluster.
    pub nodes: u32,
    /// Subclusters. 0 = automatic: 1 lata up to 12 nodes, 2 beyond
    /// (14-port routers, as in the paper).
    pub latas: u32,
    /// Query affinity α (§2.2).
    pub affinity: f64,
    /// Warehouses per node at the scaled baseline (paper: ~40 for the
    /// 100x-scaled 500 tpm-C node).
    pub warehouses_per_node: u32,
    pub db_growth: DbGrowth,
    /// Closed-loop client terminals per node. Deep pool: the paper does
    /// not bound worker threads, so terminals must outnumber the active
    /// threads by far — concurrency then self-adjusts to hide latency.
    pub clients_per_node: u32,
    /// Terminal think time between business transactions (scaled).
    pub think_time: Duration,
    /// Terminal simulation model: literal per-terminal sessions
    /// (`Exact`, the default and the bit-identical baseline) or the
    /// aggregate arrival-process engine (`Aggregate`, DESIGN.md §14).
    pub client_model: ClientModel,
    /// Aggregate model only: concurrent business transactions each
    /// node's terminal population may have in flight — the size of its
    /// pooled client-connection tier. Terminals that wake while the
    /// pool is saturated wait in FIFO order and their queueing delay
    /// is folded into the measured response time. Ignored by `Exact`.
    pub client_conns_per_node: u32,
    /// Measured simulation time after warm-up (scaled seconds).
    pub measure: Duration,
    pub warmup: Duration,
    pub seed: u64,
    /// Segment-exact network simulation (the default). When `false`,
    /// the fabric may coalesce steady-state bulk TCP segments into
    /// train events — statistically equivalent but not bit-identical;
    /// see DESIGN.md "The hybrid train model".
    pub exact: bool,
    // ---- fabric ----
    /// Fabric shape the topology layer compiles (DESIGN.md §15).
    pub topology: FabricShape,
    /// Hierarchical shape: nodes (hosts) attached to each edge switch —
    /// the rack size. Ignored by [`FabricShape::Paper`].
    pub nodes_per_edge: u32,
    /// Hierarchical shape: aggregation switches above the edge tier
    /// (edge switches are divided contiguously across them; a core
    /// router joins them when there are several). Ignored by
    /// [`FabricShape::Paper`].
    pub agg_switches: u32,
    /// Hierarchical shape: parallel trunks per uplink (edge → agg and
    /// agg → core); BFS picks one, so multiplicity adds capacity only
    /// when faults or QoS split flows — but it is first-class in the
    /// description so fault plans can target individual members.
    pub uplinks: u32,
    /// Hierarchical shape: agg → core trunk bandwidth, bit/s. `0` =
    /// same as `trunk_bw` (which sizes the edge → agg tier).
    pub agg_trunk_bw: f64,
    /// Host and intra-lata link bandwidth, bit/s (10 Mb/s = scaled 1 Gb/s).
    pub link_bw: f64,
    /// Inter-lata trunk bandwidth (the paper sometimes needs 10x here).
    /// Hierarchical shape: edge → agg trunk bandwidth.
    pub trunk_bw: f64,
    /// Router forwarding rate, packets/s (Fig 8 drops this to 4000).
    pub router_rate: f64,
    /// Extra one-way latency added to EACH inter-lata link (Figs 12-13
    /// add half the quoted RTT per link). Scaled time.
    pub extra_trunk_latency: Duration,
    pub qos: QosPolicy,
    /// Use RED instead of tail drop at router output ports (a diff-serv
    /// mechanism the paper lists but does not evaluate).
    pub red: bool,
    /// FTP cross-traffic offered load in bit/s (scaled).
    pub ftp_offered_bps: f64,
    /// Shape the FTP source with a token bucket (start of each transfer
    /// waits for credit). `None` = unpoliced, as in the paper's runs.
    pub ftp_policer: Option<Policer>,
    /// Connection admission control: maximum concurrent FTP transfers.
    /// The paper: "clearly, some admission control scheme needs to be in
    /// place to ensure that unlimited amounts of traffic don't get in".
    pub ftp_max_concurrent: Option<u32>,
    // ---- protocol processing ----
    pub tcp_offload: TcpOffload,
    pub iscsi_mode: IscsiMode,
    /// Computation scale: 1.0 = TPC-C; 0.25 = the paper's "low
    /// computation" variant (all computational path-lengths / 4).
    pub computation_factor: f64,
    // ---- storage & logging ----
    pub storage: StorageMode,
    pub log_placement: LogPlacement,
    /// Group commit: batch concurrent commit log records into one log
    /// write (size- or timer-triggered). An extension ablation; the
    /// paper logs per transaction.
    pub group_commit: bool,
    /// Data spindles per node (TPC-C class systems are spindle-rich).
    pub data_spindles: u32,
    pub log_spindles: u32,
    pub disk: DiskConfig,
    /// Elevator scheduling on data disks (ablation).
    pub elevator: bool,
    /// Buffer cache capacity as a fraction of the node's share of the
    /// database (hit ratios emerge from this, per the paper).
    pub buffer_fraction: f64,
    // ---- platform ----
    pub platform: PlatformConfig,
    /// Disable the cache-thrash model (ablation; the paper's latency
    /// discussion hinges on it).
    pub thrash_model: bool,
    /// Disable MVCC versioning costs (ablation): no version walks, no
    /// overflow pressure.
    pub mvcc: bool,
    /// Page-grain instead of subpage-grain locking (ablation for the
    /// paper's "we had to tune the subpage size per table" remark).
    pub coarse_locks: bool,
    /// Coherence / concurrency-control protocol the cluster runs.
    pub protocol: ProtocolKind,
    /// Fault injection: abort one IPC connection at this time after
    /// start (testing; the cluster must reopen it and keep committing).
    pub chaos_ipc_reset_at: Option<Duration>,
    /// Declarative fault schedule (link flaps, loss bursts, node
    /// crashes, iSCSI stalls). Times are offsets from simulation start.
    /// An empty plan injects nothing and the run matches the baseline.
    pub fault_plan: dclue_fault::FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            latas: 0,
            affinity: 0.8,
            warehouses_per_node: 40,
            db_growth: DbGrowth::Linear,
            clients_per_node: 200,
            think_time: Duration::from_secs(30),
            client_model: ClientModel::Exact,
            client_conns_per_node: 32,
            measure: Duration::from_secs(30),
            warmup: Duration::from_secs(15),
            seed: 42,
            exact: true,
            topology: FabricShape::Paper,
            nodes_per_edge: 0,
            agg_switches: 1,
            uplinks: 1,
            agg_trunk_bw: 0.0,
            link_bw: 10e6,
            trunk_bw: 10e6,
            router_rate: 10_000.0,
            extra_trunk_latency: Duration::ZERO,
            qos: QosPolicy::AllBestEffort,
            red: false,
            ftp_offered_bps: 0.0,
            ftp_policer: None,
            ftp_max_concurrent: None,
            tcp_offload: TcpOffload::Hardware,
            iscsi_mode: IscsiMode::Hardware,
            computation_factor: 1.0,
            storage: StorageMode::Distributed,
            log_placement: LogPlacement::Local,
            group_commit: false,
            data_spindles: 48,
            log_spindles: 4,
            disk: DiskConfig::default(),
            elevator: true,
            buffer_fraction: 0.75,
            platform: PlatformConfig::default(),
            thrash_model: true,
            mvcc: true,
            coarse_locks: false,
            protocol: ProtocolKind::CacheFusion2pl,
            chaos_ipc_reset_at: None,
            fault_plan: dclue_fault::FaultPlan::none(),
        }
    }
}

impl ClusterConfig {
    /// Effective lata count.
    pub fn effective_latas(&self) -> u32 {
        if self.latas > 0 {
            return self.latas;
        }
        if self.nodes > 12 {
            2
        } else {
            1
        }
    }

    /// Total warehouses for this cluster size under the growth law.
    pub fn total_warehouses(&self) -> u32 {
        let linear = self.nodes * self.warehouses_per_node;
        match self.db_growth {
            DbGrowth::Linear => linear,
            DbGrowth::SqrtBeyond(knee_tpmc) => {
                // Paper Fig 10: warehouses = tpmC/12.5 up to the knee,
                // then grow with the square root of the excess.
                let per_node_tpmc = self.warehouses_per_node as f64 * 12.5;
                let tpmc = self.nodes as f64 * per_node_tpmc;
                if tpmc <= knee_tpmc {
                    linear
                } else {
                    let at_knee = knee_tpmc / 12.5;
                    let excess = tpmc - knee_tpmc;
                    let extra = (excess / 12.5).sqrt() * (knee_tpmc / 12.5).sqrt();
                    ((at_knee + extra) as u32).max(self.warehouses_per_node)
                }
            }
        }
    }

    /// The TPC-C scale object for this configuration.
    pub fn tpcc_scale(&self) -> TpccScale {
        TpccScale::scaled(self.total_warehouses())
    }

    /// Nodes per lata (block partition).
    pub fn nodes_per_lata(&self) -> u32 {
        self.nodes.div_ceil(self.effective_latas())
    }

    /// Which lata a node lives in.
    pub fn lata_of(&self, node: u32) -> u32 {
        node / self.nodes_per_lata()
    }

    /// Edge-switch count for the hierarchical shape,
    /// `nodes / nodes_per_edge`, so a `nodes` sweep grows the edge tier
    /// without a second co-varied axis. Meaningless under
    /// [`FabricShape::Paper`].
    pub fn effective_edge_switches(&self) -> u32 {
        self.nodes.checked_div(self.nodes_per_edge).unwrap_or(0)
    }

    /// Agg → core trunk bandwidth: `agg_trunk_bw` when set, else the
    /// edge-tier `trunk_bw`.
    pub fn effective_agg_trunk_bw(&self) -> f64 {
        if self.agg_trunk_bw > 0.0 {
            self.agg_trunk_bw
        } else {
            self.trunk_bw
        }
    }

    /// Reject configurations that would silently misbehave. Call this
    /// before [`crate::World::new`]; the harness binaries do, so a bad
    /// sweep parameter fails loudly instead of being clamped (or
    /// panicking deep inside topology construction). Each error says
    /// what to change.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be >= 1 (the cluster needs at least one server)".into());
        }
        if self.latas > 0 && self.latas > self.nodes {
            return Err(format!(
                "latas ({}) exceeds nodes ({}); at most one lata per node",
                self.latas, self.nodes
            ));
        }
        if self.latas > 0 && self.nodes % self.latas != 0 {
            return Err(format!(
                "nodes ({}) must divide evenly across latas ({}); \
                 uneven subclusters skew the affinity routing — use {} or {} nodes, \
                 or latas = 0 for automatic placement",
                self.nodes,
                self.latas,
                (self.nodes / self.latas) * self.latas,
                (self.nodes / self.latas + 1) * self.latas,
            ));
        }
        if !(0.0..=1.0).contains(&self.affinity) {
            return Err(format!(
                "affinity ({}) must lie in [0, 1] — it is the probability a query \
                 routes to its home node",
                self.affinity
            ));
        }
        if !(self.buffer_fraction > 0.0 && self.buffer_fraction <= 1.0) {
            return Err(format!(
                "buffer_fraction ({}) must lie in (0, 1]: it is each node's cache \
                 share of its database partition",
                self.buffer_fraction
            ));
        }
        if self.warehouses_per_node == 0 || self.clients_per_node == 0 {
            return Err("warehouses_per_node and clients_per_node must be >= 1 \
                 (an empty node cannot run TPC-C)"
                .into());
        }
        if self.data_spindles == 0 || self.log_spindles == 0 {
            return Err(
                "data_spindles and log_spindles must be >= 1; zero spindles would \
                 divide by zero in LBA striping"
                    .into(),
            );
        }
        if self.measure == Duration::ZERO {
            return Err("measure window must be > 0 (nothing would be collected)".into());
        }
        if let QosPolicy::FtpWfq { af_weight } = self.qos {
            if !(af_weight > 0.0 && af_weight < 1.0) {
                return Err(format!(
                    "FtpWfq af_weight ({af_weight}) must lie strictly in (0, 1); \
                     the scheduler would otherwise silently clamp it"
                ));
            }
        }
        if let QosPolicy::Autonomic { tolerance } = self.qos {
            if tolerance <= 0.0 {
                return Err(format!(
                    "Autonomic tolerance ({tolerance}) must be > 0: it is the \
                     latency headroom over the warm-up baseline"
                ));
            }
        }
        if self.group_commit && self.log_placement == LogPlacement::Central && self.nodes > 1 {
            return Err(
                "group_commit with LogPlacement::Central is not meaningful on a \
                 multi-node cluster: remote committers ship their log records over \
                 iSCSI one at a time, bypassing the batcher — use LogPlacement::Local \
                 or disable group_commit"
                    .into(),
            );
        }
        if !self.exact && self.chaos_ipc_reset_at.is_some() {
            return Err(
                "chaos_ipc_reset_at is a determinism-test hook and requires the \
                 segment-exact engine; set exact = true (the train fast path \
                 coalesces the segments the reset is meant to kill mid-flight)"
                    .into(),
            );
        }
        if self.client_conns_per_node == 0 {
            return Err(
                "client_conns_per_node must be >= 1: the aggregate client model \
                 dispatches every business transaction through the pooled \
                 connection tier, and a zero-sized pool would admit nothing"
                    .into(),
            );
        }
        if self.client_model == ClientModel::Aggregate && self.chaos_ipc_reset_at.is_some() {
            return Err(
                "chaos_ipc_reset_at is a per-terminal determinism hook; the \
                 aggregate client model has no stable terminal connections to \
                 target — set client_model = exact (or use fault_plan)"
                    .into(),
            );
        }
        if self.topology == FabricShape::Hierarchical {
            if self.latas > 0 {
                return Err(format!(
                    "latas ({}) is a paper-topology knob; the hierarchical shape \
                     places nodes by edge switch — set latas = 0 (racks come from \
                     nodes_per_edge)",
                    self.latas
                ));
            }
            if self.nodes_per_edge == 0 {
                return Err("topology = hierarchical requires nodes_per_edge >= 1: \
                     it is the rack size (nodes attached to each edge switch)"
                    .into());
            }
            if self.nodes % self.nodes_per_edge != 0 {
                return Err(format!(
                    "nodes ({}) must divide evenly across edge switches of \
                     nodes_per_edge ({}) each; partial racks would skew placement — \
                     use {} or {} nodes",
                    self.nodes,
                    self.nodes_per_edge,
                    (self.nodes / self.nodes_per_edge) * self.nodes_per_edge,
                    (self.nodes / self.nodes_per_edge + 1) * self.nodes_per_edge,
                ));
            }
            let edge = self.effective_edge_switches();
            if self.agg_switches == 0 {
                return Err("agg_switches must be >= 1: the edge tier needs at \
                     least one aggregation switch above it"
                    .into());
            }
            if self.agg_switches > edge {
                return Err(format!(
                    "agg_switches ({}) exceeds edge switches ({}); every \
                     aggregation switch needs at least one edge switch below it",
                    self.agg_switches, edge
                ));
            }
            if self.uplinks == 0 {
                return Err("uplinks must be >= 1: every switch needs at least one \
                     trunk toward the tier above"
                    .into());
            }
        }
        if self.protocol == ProtocolKind::MvccReadLease && !self.mvcc {
            return Err(
                "protocol = MvccReadLease requires mvcc = true: leased snapshot \
                 reads rely on the version store for consistency"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn latas_auto_split_beyond_twelve() {
        let mut c = ClusterConfig::default();
        c.nodes = 8;
        assert_eq!(c.effective_latas(), 1);
        c.nodes = 16;
        assert_eq!(c.effective_latas(), 2);
        c.latas = 1;
        assert_eq!(c.effective_latas(), 1);
    }

    #[test]
    fn linear_growth_is_linear() {
        let mut c = ClusterConfig::default();
        c.nodes = 6;
        assert_eq!(c.total_warehouses(), 240);
    }

    #[test]
    fn sqrt_growth_bends_past_knee() {
        let mut c = ClusterConfig::default();
        c.warehouses_per_node = 40; // 500 scaled tpm-C per node
        c.db_growth = DbGrowth::SqrtBeyond(900.0); // knee at ~1.8 nodes
        c.nodes = 2;
        let at2 = c.total_warehouses();
        c.nodes = 8;
        let at8 = c.total_warehouses();
        let mut lin = c.clone();
        lin.db_growth = DbGrowth::Linear;
        assert!(at8 < lin.total_warehouses(), "sqrt growth smaller: {at8}");
        assert!(at8 > at2);
    }

    #[test]
    fn lata_partition_is_block() {
        let mut c = ClusterConfig::default();
        c.nodes = 16;
        assert_eq!(c.nodes_per_lata(), 8);
        assert_eq!(c.lata_of(0), 0);
        assert_eq!(c.lata_of(7), 0);
        assert_eq!(c.lata_of(8), 1);
        assert_eq!(c.lata_of(15), 1);
    }
}
