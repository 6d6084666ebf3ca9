//! The assembled simulation: topology, global event loop, client
//! sessions and cross traffic. Transaction execution lives in
//! [`crate::engine`] (also `impl World` blocks).

use crate::components::driver::{ClientSession, FtpPair, WorkloadDriver};
use crate::components::fabric::{ConnInfoTable, ConnKind, ConnTable, FabricPort};
use crate::components::platform::PlatformPort;
use crate::components::storage::{LogBatch, StoragePort};
use crate::config::{ClientModel, ClusterConfig, ProtocolKind, QosPolicy, StorageMode};
use crate::fusion::Directory;
use crate::ipc::ConnClass;
use crate::metrics::{Collector, Report};
use crate::node::{DiskKind, Node};
use crate::pathlen::PathLengths;
use crate::protocol::CoherenceProtocol;
use dclue_db::{BufferCache, Database, LockTable, PageKey, Table};
use dclue_fault::{FaultKind, FaultScheduler, LinkRef};
use dclue_net::packet::Dscp;
use dclue_net::{ConnId, LinkId, NetEvent};
use dclue_platform::{Cpu, CpuEvent};
use dclue_sim::{Duration, EventHeap, FxHashMap, Outbox, SimRng, SimTime};
use dclue_storage::{Disk, DiskEvent, RetryPolicy, StallGate};
use dclue_workload::{FtpGenerator, TpccGenerator};
use std::collections::{BTreeMap, VecDeque};

/// Global event type.
#[derive(Debug)]
pub enum Ev {
    Net(NetEvent),
    Cpu {
        node: u32,
        ev: CpuEvent,
    },
    Disk {
        node: u32,
        kind: DiskKind,
        disk: u32,
        ev: DiskEvent,
    },
    /// Centralized-SAN array events (SAN storage mode).
    San {
        disk: u32,
        ev: DiskEvent,
    },
    /// A SAN IO crossing the (unmodeled) SAN fabric: submit on arrival.
    SanSubmit {
        disk: u32,
        req: dclue_storage::DiskRequest,
    },
    /// An action deferred by the SAN fabric's return latency.
    DelayedAction {
        id: u64,
    },
    /// Group-commit flush timer for a node's pending log batch.
    LogFlush {
        node: u32,
        gen: u64,
    },
    /// Fault injection: abort one cluster connection.
    Chaos,
    /// The fault plan has events due: apply them.
    Fault,
    /// iSCSI initiator command timeout for attempt `attempt`.
    IscsiTimeout {
        node: u32,
        page: PageKey,
        attempt: u32,
    },
    /// Reopen a cluster connection once both endpoints are alive.
    IpcReconnect {
        a: u32,
        b: u32,
        class: ConnClass,
        attempt: u32,
    },
    ClientThink {
        session: u32,
    },
    /// Aggregate client model: the next terminal of node `node`'s
    /// population finished thinking (keyed timer, one per node). `gen`
    /// guards against stale fires of superseded arms (see
    /// `AggPopulation::wake_gen`).
    AggWake {
        node: u32,
        gen: u64,
    },
    /// Aggregate client model ramp-up: `count` terminals of node
    /// `node`'s population join the closed loop (dormant → thinking).
    AggActivate {
        node: u32,
        count: u64,
    },
    FtpNext {
        pair: u32,
    },
    TxnRetry {
        txn: u64,
    },
    LockWaitTimeout {
        txn: u64,
        gen: u32,
    },
    Sample,
    EndWarmup,
    EndRun,
}

// ---------------------------------------------------------------------
// Transaction state (driven by engine.rs)
// ---------------------------------------------------------------------

/// Where a transaction is, between CPU bursts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    /// An accumulated CPU burst is running; `block` says what happens
    /// when it completes.
    Running,
    WaitPage,
    WaitLockRemote,
    WaitLockQueued,
    WaitLog,
    Retrying,
}

/// Resume point inside the transaction program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Cursor {
    NeedPlan,
    Pages,
    Locks,
}

/// The blocking action performed once the accumulated burst retires.
/// Transactions compute *until they genuinely block* — the burst models
/// that continuous run, and the block that follows is a real context
/// switch (the only kind the platform charges for).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Block {
    PageFault {
        key: PageKey,
        exclusive: bool,
    },
    SendLockReq {
        res: dclue_db::lock::ResourceId,
        master: u32,
        queue: bool,
    },
    WaitQueuedLock {
        res: dclue_db::lock::ResourceId,
        master: u32,
    },
    FailRetry,
    WriteLog,
    Finish {
        aborted: bool,
    },
}

pub(crate) struct Txn {
    #[allow(dead_code)]
    pub id: u64,
    pub node: u32,
    pub session: Option<u32>,
    pub thread: dclue_platform::ThreadId,
    pub prog: dclue_db::tpcc::TxnProgram,
    pub read_ts: u64,
    pub phase: Phase,
    pub cursor: Cursor,
    /// Instructions accumulated since the last block.
    pub acc: u64,
    /// Action to take when the running burst completes.
    pub block: Option<Block>,
    /// A queued local lock granted before its wait burst retired.
    pub early_grant: Option<dclue_db::lock::ResourceId>,
    pub op: Option<dclue_db::tpcc::PlannedOp>,
    /// `(page, needs-exclusive)` access list of the current op.
    pub pages: Vec<(PageKey, bool)>,
    pub page_idx: usize,
    pub lock_idx: usize,
    pub locks_held: Vec<(u32, dclue_db::lock::ResourceId)>,
    /// Every lock master this txn contacted (release targets).
    pub masters: Vec<u32>,
    pub wait_gen: u32,
    pub wait_started: Option<SimTime>,
    pub retries: u32,
    pub log_bytes: u64,
    pub started: SimTime,
    /// Connection-pool queueing delay accrued before the request was
    /// sent (aggregate client model): folded into the measured response
    /// time at finish. Always zero under the exact model.
    pub queued: Duration,
}

// ---------------------------------------------------------------------
// World
// ---------------------------------------------------------------------

/// The entire simulated cluster: the deterministic scheduler plus one
/// typed component per subsystem (see [`crate::components`]).
pub struct World {
    pub cfg: ClusterConfig,
    pub(crate) paths: PathLengths,
    pub(crate) heap: EventHeap<Ev>,
    pub(crate) now: SimTime,
    pub(crate) rng: SimRng,
    /// The cluster/DB-node components: one per server.
    pub(crate) nodes: Vec<Node>,
    pub(crate) db: Database,
    pub(crate) warehouses: u32,
    /// The coherence/concurrency-control protocol in force. Both
    /// implementations are zero-sized, so the `&'static` trait object
    /// costs one pointer and never allocates.
    pub(crate) protocol: &'static dyn CoherenceProtocol,
    /// Per-node read-lease tables (`page -> expiry`), used only by
    /// `ProtocolKind::MvccReadLease`; left empty under cache fusion so
    /// the hot paths pay nothing for the feature.
    pub(crate) leases: Vec<FxHashMap<PageKey, SimTime>>,
    /// Network fabric: TCP state, conn tables, QoS controller.
    pub(crate) fabric: FabricPort,
    /// Node → rack map from the topology layer (drives the report's
    /// path stats).
    pub(crate) placement: crate::topology::Placement,
    /// Platform/CPU: the deferred-action table.
    pub(crate) platform: PlatformPort,
    /// Storage: SAN array, iSCSI initiator state, commit logs.
    pub(crate) storage: StoragePort,
    /// Workload driver: client terminals and FTP cross traffic.
    pub(crate) driver: WorkloadDriver,
    pub(crate) txns: FxHashMap<u64, Txn>,
    pub(crate) next_txn: u64,
    pub(crate) collect: Collector,
    pub(crate) measuring: bool,

    versions_at_warmup: u64,
    /// Sampled (time_s, committed-so-far, mean live threads) triples.
    pub(crate) timeline: Vec<(f64, u64, f64)>,
    /// Drains the configured fault plan in clock order.
    pub(crate) fault_sched: FaultScheduler,
    /// Per-node liveness; a crashed node drops all IPC and client work.
    pub(crate) alive: Vec<bool>,
    /// Buffer-cache capacity per node (to rebuild after a crash).
    pub(crate) buf_capacity: usize,
    done: bool,
}

impl World {
    /// Build the whole cluster per the configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        // Arm the stateful invariant checks (debug/test builds) before
        // any setup traffic: connection-open SYNs emitted here must be
        // in the conservation ledger when `run` later delivers them.
        dclue_trace::invariant::arm();
        let rng = SimRng::new(cfg.seed);
        let scale = cfg.tpcc_scale();
        let warehouses = scale.warehouses;
        let mut db = Database::build(scale.clone());
        db.coarse_locks = cfg.coarse_locks;
        let paths = PathLengths::for_config(&cfg);

        // ---- topology ----
        let discipline = match cfg.qos {
            QosPolicy::AllBestEffort => dclue_net::device::Discipline::Fifo,
            QosPolicy::FtpPriority => dclue_net::device::Discipline::Priority,
            QosPolicy::FtpWfq { af_weight } => dclue_net::device::Discipline::Wfq { af_weight },
            // The controller starts generous and earns its keep.
            QosPolicy::Autonomic { .. } => dclue_net::device::Discipline::Wfq { af_weight: 0.6 },
        };
        let drop = if cfg.red {
            dclue_net::device::DropPolicy::Red {
                min_th: 24,
                max_th: 72,
                max_p: 0.1,
            }
        } else {
            dclue_net::device::DropPolicy::TailDrop
        };
        let policy = dclue_net::device::PortPolicy { discipline, drop };
        let crate::topology::BuiltTopology {
            net,
            node_hosts,
            client_hosts,
            ftp_client,
            ftp_server,
            trunks,
            trunk_tiers,
            placement,
        } = crate::topology::Topology::from_config(&cfg).build(&cfg, policy);

        // ---- nodes ----
        let total_pages = db.total_pages();
        let per_node_share = (total_pages / cfg.nodes as u64).max(64);
        let buf_capacity = ((per_node_share as f64 * cfg.buffer_fraction) as usize).max(256);
        let mut nodes = Vec::new();
        for n in 0..cfg.nodes {
            let mut cpu = Cpu::new(cfg.platform.clone());
            let mut platform = cfg.platform.clone();
            if !cfg.thrash_model {
                platform.thrash_slope = 0.0;
                platform.cs_slope_cycles = 0.0;
                cpu = Cpu::new(platform);
            }
            cpu.set_mpi_scale(1.0 + 0.3 * (1.0 - cfg.affinity));
            let mut disk_cfg = cfg.disk.clone();
            disk_cfg.elevator = cfg.elevator;
            let data_disks = (0..cfg.data_spindles)
                .map(|_| Disk::new(disk_cfg.clone()))
                .collect();
            let log_disks: Vec<Disk> = (0..cfg.log_spindles)
                .map(|_| Disk::new(disk_cfg.clone()))
                .collect();
            let log_lba = vec![0; log_disks.len()];
            nodes.push(Node {
                id: n,
                host: node_hosts[n as usize],
                cpu,
                buffer: BufferCache::new(buf_capacity),
                locks: LockTable::new(),
                directory: Directory::new(),
                data_disks,
                log_disks,
                log_lba,
                log_rr: 0,
                pending_pages: BTreeMap::new(),
                resident_txns: 0,
            });
        }

        let san_disks = match cfg.storage {
            StorageMode::San { .. } => {
                let mut disk_cfg = cfg.disk.clone();
                disk_cfg.elevator = cfg.elevator;
                (0..cfg.data_spindles * cfg.nodes)
                    .map(|_| Disk::new(disk_cfg.clone()))
                    .collect()
            }
            StorageMode::Distributed => Vec::new(),
        };
        let gen = TpccGenerator::new(scale, rng.derive(1));
        let ftp_pairs = vec![FtpPair {
            client: ftp_client,
            server: ftp_server,
            generator: FtpGenerator::new(cfg.ftp_offered_bps, rng.derive(2)),
            tokens: cfg.ftp_policer.map(|p| p.burst_bytes).unwrap_or(0.0),
            tokens_at: SimTime::ZERO,
            active: 0,
            denied: 0,
        }];

        // ---- sessions ----
        let (sessions, agg, pools) = match cfg.client_model {
            ClientModel::Exact => {
                let n_sessions = cfg.nodes as u64 * cfg.clients_per_node as u64;
                let sessions = (0..n_sessions)
                    .map(|i| ClientSession {
                        home_w: (i * warehouses as u64 / n_sessions) as u32 + 1,
                        client_host: client_hosts[(i % client_hosts.len() as u64) as usize],
                        node: 0,
                        conn: None,
                        queue: VecDeque::new(),
                        inflight: None,
                        agg_home: None,
                        queue_delay: Duration::ZERO,
                    })
                    .collect();
                (sessions, Vec::new(), Vec::new())
            }
            ClientModel::Aggregate => {
                // No per-terminal state: each node carries its exact
                // share of the population (the closed form counts the
                // terminals the exact layout would home there without
                // enumerating them).
                let total = cfg.nodes as u64 * cfg.clients_per_node as u64;
                let agg: Vec<crate::components::driver::AggPopulation> = (0..cfg.nodes)
                    .map(|k| {
                        let population =
                            dclue_workload::node_population(k, cfg.nodes, warehouses, total);
                        let (w_lo, w_hi) =
                            dclue_workload::node_warehouse_span(k, cfg.nodes, warehouses);
                        // Per-warehouse terminal counts of the exact
                        // layout, so dispatch sampling preserves its
                        // warehouse stratification (driver::free_w).
                        let free_w: Vec<u64> = if w_lo > w_hi {
                            Vec::new()
                        } else {
                            (w_lo..=w_hi)
                                .map(|w| dclue_workload::warehouse_population(w, warehouses, total))
                                .collect()
                        };
                        debug_assert_eq!(free_w.iter().sum::<u64>(), population);
                        crate::components::driver::AggPopulation {
                            population,
                            dormant: population,
                            thinking: 0,
                            head: None,
                            inflight: 0,
                            wake_gen: 0,
                            w_lo,
                            w_hi,
                            free_w,
                        }
                    })
                    .collect();
                let pools = (0..cfg.nodes)
                    .map(|_| (0..cfg.nodes).map(|_| Vec::new()).collect())
                    .collect();
                (Vec::new(), agg, pools)
            }
        };

        let mut world = World {
            paths,
            // Sized for the steady-state pending-event population of a
            // mid-size cluster; avoids the early growth reallocations.
            heap: EventHeap::with_capacity(4096),
            now: SimTime::ZERO,
            rng,
            nodes,
            db,
            warehouses,
            protocol: crate::protocol::resolve(cfg.protocol),
            leases: match cfg.protocol {
                ProtocolKind::MvccReadLease => {
                    vec![FxHashMap::default(); cfg.nodes as usize]
                }
                ProtocolKind::CacheFusion2pl => Vec::new(),
            },
            fabric: FabricPort {
                net,
                cluster_conns: ConnTable::new(cfg.nodes),
                conn_info: ConnInfoTable::new(),
                msg_tags: FxHashMap::default(),
                next_msg: 0,
                trunks,
                trunk_tiers,
                trunk_bytes_at_warmup: [0, 0],
                client_hosts,
                qos_ctl: (0.0, 0.0, 0.6),
            },
            placement,
            platform: PlatformPort {
                actions: FxHashMap::default(),
                next_action: 0,
            },
            storage: StoragePort {
                san_disks,
                san_rr: 0,
                iscsi_gate: (0..cfg.nodes).map(|_| StallGate::default()).collect(),
                iscsi_retry: RetryPolicy::default(),
                iscsi_inflight: FxHashMap::default(),
                log_reqs: FxHashMap::default(),
                next_req: 0,
                log_batches: (0..cfg.nodes).map(|_| LogBatch::default()).collect(),
            },
            driver: WorkloadDriver {
                sessions,
                gen,
                ftp_pairs,
                agg,
                pools,
                free_slots: Vec::new(),
            },
            txns: FxHashMap::default(),
            next_txn: 0,
            collect: Collector::default(),
            measuring: false,
            versions_at_warmup: 0,
            timeline: Vec::new(),
            fault_sched: FaultScheduler::new(&cfg.fault_plan),
            alive: vec![true; cfg.nodes as usize],
            buf_capacity,
            done: false,
            cfg,
        };
        world.prewarm();
        world.init_schedule();
        world
    }

    /// Pre-warm every node's buffer cache with its partition's pages
    /// (coldest installed first so LRU keeps the hottest) and seed the
    /// fusion directory with the resulting residency. The paper measures
    /// steady state; starting stone-cold at 100x-scaled disk speeds
    /// would spend the whole run faulting the working set in.
    fn prewarm(&mut self) {
        use dclue_db::schema as sch;
        let n = self.cfg.nodes;
        let scale = self.db.scale.clone();
        let per = self.warehouses.div_ceil(n);
        for node in 0..n {
            let w_lo = node * per + 1;
            let w_hi = ((node + 1) * per).min(self.warehouses);
            if w_lo > w_hi {
                continue;
            }
            let mut keys: Vec<PageKey> = Vec::new();
            // --- cold bulk data: customer, stock ---
            for table in [Table::Customer, Table::Stock] {
                let rows_per_wh: u64 = match table {
                    Table::Customer => {
                        scale.districts_per_wh as u64 * scale.customers_per_district as u64
                    }
                    _ => scale.items as u64,
                };
                let rpp = table.rows_per_page();
                let lo = (w_lo as u64 - 1) * rows_per_wh / rpp;
                let hi = (w_hi as u64) * rows_per_wh / rpp;
                for p in lo..=hi {
                    keys.push(PageKey::data(table, p));
                }
            }
            // --- growing tables: pages in use per warehouse ---
            for table in [Table::Order, Table::OrderLine, Table::NewOrder] {
                let rows_per_wh: u64 = scale.initial_orders_per_district as u64
                    * scale.districts_per_wh as u64
                    * if table == Table::OrderLine { 10 } else { 1 };
                let rpp = table.rows_per_page();
                for w in w_lo..=w_hi {
                    let pages = rows_per_wh.div_ceil(rpp) + 1;
                    for p in 0..pages {
                        keys.push(PageKey::data(
                            table,
                            (w as u64 - 1) * dclue_db::database::WH_PAGE_SPAN + p,
                        ));
                    }
                }
            }
            // --- index paths (sampled traces seed the hot levels) ---
            let mut trace = Vec::new();
            let push_trace = |keys: &mut Vec<PageKey>, table: Table, trace: &Vec<u32>| {
                for &id in trace {
                    keys.push(PageKey::index(table, id));
                }
            };
            for w in w_lo..=w_hi {
                for d in 1..=scale.districts_per_wh {
                    trace.clear();
                    self.db
                        .index(Table::District)
                        .get(sch::district_key(w, d), &mut trace);
                    push_trace(&mut keys, Table::District, &trace);
                    let (olo, ohi) = sch::order_key_range(w, d);
                    trace.clear();
                    self.db
                        .index(Table::Order)
                        .last_in_range(olo, ohi, &mut trace);
                    push_trace(&mut keys, Table::Order, &trace);
                    trace.clear();
                    self.db
                        .index(Table::NewOrder)
                        .first_in_range(olo, ohi, &mut trace);
                    push_trace(&mut keys, Table::NewOrder, &trace);
                    trace.clear();
                    let l0 = sch::order_line_key(w, d, 1, 0);
                    let l1 = sch::order_line_key(w, d, scale.initial_orders_per_district, 15);
                    let mut out = Vec::new();
                    self.db
                        .index(Table::OrderLine)
                        .range(l0, l1, 64, &mut out, &mut trace);
                    push_trace(&mut keys, Table::OrderLine, &trace);
                    let cstep = (scale.customers_per_district / 16).max(1);
                    let mut c = 1;
                    while c <= scale.customers_per_district {
                        trace.clear();
                        self.db
                            .index(Table::Customer)
                            .get(sch::customer_key(w, d, c), &mut trace);
                        push_trace(&mut keys, Table::Customer, &trace);
                        c += cstep;
                    }
                }
                let istep = (scale.items / 32).max(1);
                let mut i = 1;
                while i <= scale.items {
                    trace.clear();
                    self.db
                        .index(Table::Stock)
                        .get(sch::stock_key(w, i), &mut trace);
                    push_trace(&mut keys, Table::Stock, &trace);
                    i += istep;
                }
                trace.clear();
                self.db
                    .index(Table::Warehouse)
                    .get(sch::wh_key(w), &mut trace);
                push_trace(&mut keys, Table::Warehouse, &trace);
            }
            // --- hottest last: item (all nodes), district, warehouse ---
            let istep = (scale.items as u64 / 64).max(1);
            let mut i = 1;
            while i <= scale.items as u64 {
                trace.clear();
                self.db.index(Table::Item).get(i, &mut trace);
                push_trace(&mut keys, Table::Item, &trace);
                i += istep;
            }
            let item_pages = (scale.items as u64).div_ceil(Table::Item.rows_per_page());
            for p in 0..item_pages {
                keys.push(PageKey::data(Table::Item, p));
            }
            {
                let rpp = Table::District.rows_per_page();
                let lo = (w_lo as u64 - 1) * scale.districts_per_wh as u64 / rpp;
                let hi = (w_hi as u64) * scale.districts_per_wh as u64 / rpp;
                for p in lo..=hi {
                    keys.push(PageKey::data(Table::District, p));
                }
            }
            {
                let rpp = Table::Warehouse.rows_per_page();
                for p in (w_lo as u64 - 1) / rpp..=(w_hi as u64 - 1) / rpp {
                    keys.push(PageKey::data(Table::Warehouse, p));
                }
            }
            let buf = &mut self.nodes[node as usize].buffer;
            for key in keys {
                if !buf.contains(key) {
                    buf.install(key, false);
                }
            }
        }
        // Seed the directory from the final residency, then zero the
        // warm-up accounting noise.
        for node in 0..n {
            let mut resident: Vec<PageKey> =
                self.nodes[node as usize].buffer.resident_keys().collect();
            // resident_keys walks a HashMap; sort so directory holder
            // lists come out identical across runs.
            resident.sort_unstable_by_key(|k| (k.space, k.page));
            for key in resident {
                let home = self.page_home(key);
                self.nodes[home as usize].directory.add_holder(key, node);
            }
        }
        for node in &mut self.nodes {
            node.buffer.stats = Default::default();
        }
    }

    fn init_schedule(&mut self) {
        // Open the two per-pair connections (IPC + storage).
        for a in 0..self.cfg.nodes {
            for bn in (a + 1)..self.cfg.nodes {
                for class in [ConnClass::Ipc, ConnClass::Storage] {
                    let (ha, hb) = (self.nodes[a as usize].host, self.nodes[bn as usize].host);
                    let cfg = self.tcp_config(true);
                    let conn = self
                        .with_net(|net, ob| net.open_connection(ha, hb, Dscp::BestEffort, cfg, ob));
                    self.fabric.cluster_conns.insert(a, bn, class, conn);
                    self.fabric
                        .conn_info
                        .insert(conn, ConnKind::Cluster { a, b: bn, class });
                }
            }
        }
        // Stagger client session starts across warm-up plus a think
        // time, so the cluster ramps up rather than being hit by a
        // thundering herd that tips it into thrash before measurement.
        let span = (self.cfg.warmup.nanos()).max(1);
        for s in 0..self.driver.sessions.len() {
            let jitter = Duration::from_nanos(self.rng.uniform(1_000_000, span))
                + self.rng.exponential(self.cfg.think_time);
            self.heap.push(
                SimTime::ZERO + jitter,
                Ev::ClientThink { session: s as u32 },
            );
        }
        // Aggregate client model: reproduce the exact driver's ramp —
        // per-terminal first arrivals are Uniform[0, warmup] + Exp(think)
        // above, so the population joins the closed loop linearly over
        // the warm-up span. A bounded number of activation ticks per
        // node (dormant → thinking) reproduces that transient in O(1)
        // events regardless of population; the Exp(think) component is
        // the superposed process's own first arrival.
        if self.cfg.client_model == ClientModel::Aggregate {
            let ramp = self.cfg.warmup.nanos().max(1);
            for k in 0..self.cfg.nodes {
                let pop = self.driver.agg[k as usize].population;
                let ticks = pop.min(64);
                let mut activated = 0u64;
                for i in 1..=ticks {
                    let upto = pop * i / ticks;
                    let count = upto - activated;
                    activated = upto;
                    if count == 0 {
                        continue;
                    }
                    self.heap.push(
                        SimTime::ZERO + Duration::from_nanos(ramp * i / ticks),
                        Ev::AggActivate { node: k, count },
                    );
                }
            }
        }
        // FTP starts halfway through warm-up.
        if self.cfg.ftp_offered_bps > 0.0 {
            self.heap.push(
                SimTime::ZERO + Duration::from_nanos(span),
                Ev::FtpNext { pair: 0 },
            );
        }
        // Fault injection, if configured.
        if let Some(at) = self.cfg.chaos_ipc_reset_at {
            self.heap.push(SimTime::ZERO + at, Ev::Chaos);
        }
        if let Some(t) = self.fault_sched.peek_next() {
            self.heap.push(t, Ev::Fault);
        }
        // Housekeeping.
        self.heap
            .push(SimTime::ZERO + Duration::from_millis(500), Ev::Sample);
        self.heap
            .push(SimTime::ZERO + self.cfg.warmup, Ev::EndWarmup);
        self.heap.push(
            SimTime::ZERO + self.cfg.warmup + self.cfg.measure,
            Ev::EndRun,
        );
    }

    /// Run to completion and report.
    pub fn run(&mut self) -> Report {
        while let Some((t, ev)) = self.heap.pop() {
            dclue_trace::invariant::clock(dclue_trace::invariant::Clock::Dispatch, 0, t.0);
            dclue_trace::trace_event!(Sim, t.0, "dispatch", self.heap.total_popped());
            self.now = t;
            if matches!(ev, Ev::EndRun) {
                self.done = true;
                break;
            }
            self.dispatch(ev);
        }
        debug_assert!(self.done, "event queue drained before EndRun");
        let report = self.build_report();
        dclue_trace::invariant::disarm();
        report
    }

    /// The node → rack placement the topology layer compiled.
    pub fn placement(&self) -> &crate::topology::Placement {
        &self.placement
    }

    /// Events dispatched by the engine so far — the DES throughput
    /// numerator the self-benchmark divides by wall time.
    pub fn events_processed(&self) -> u64 {
        self.heap.total_popped()
    }

    /// Events scheduled so far (processed plus still pending).
    pub fn events_scheduled(&self) -> u64 {
        self.heap.total_pushed()
    }

    /// Segment-train fast-path telemetry (all zero in exact mode).
    pub fn train_stats(&self) -> dclue_net::TrainStats {
        self.fabric.net.train_stats
    }

    /// Peak size of the session-slot table: O(terminals) under the
    /// exact client model, O(active transactions) under aggregate
    /// (slots are recycled, the table never shrinks — this is the
    /// driver-memory headline the self-benchmark records).
    pub fn driver_slots(&self) -> usize {
        self.driver.sessions.len()
    }

    /// Aggregate client model: per-node `(population, thinking,
    /// queued-head, inflight)` counters (empty under exact). The
    /// closed-loop invariant `population == thinking + head + inflight`
    /// holds at every dispatch edge.
    pub fn agg_counters(&self) -> Vec<(u64, u64, u64, u64)> {
        self.driver
            .agg
            .iter()
            .map(|a| {
                (
                    a.population,
                    a.thinking,
                    a.head.is_some() as u64,
                    a.inflight,
                )
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Component accessors
    // ------------------------------------------------------------------

    /// The network-fabric component: conn tables, QoS controller state.
    pub fn fabric(&self) -> &FabricPort {
        &self.fabric
    }

    /// The logical database shared by every node.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The coherence/concurrency-control protocol in force.
    pub fn protocol(&self) -> &'static dyn CoherenceProtocol {
        self.protocol
    }

    // ------------------------------------------------------------------
    // Event dispatch and outbox plumbing
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Net(e) => {
                self.with_net(|net, ob| net.handle(e, ob));
            }
            Ev::Cpu { node, ev } => {
                let mut ob = Outbox::new(self.now);
                self.nodes[node as usize].cpu.handle(ev, &mut ob);
                self.absorb_cpu(node, ob);
            }
            Ev::Disk {
                node,
                kind,
                disk,
                ev,
            } => {
                let mut ob = Outbox::new(self.now);
                let n = &mut self.nodes[node as usize];
                match kind {
                    DiskKind::Data => n.data_disks[disk as usize].handle(ev, &mut ob),
                    DiskKind::Log => n.log_disks[disk as usize].handle(ev, &mut ob),
                }
                self.absorb_disk(node, kind, disk, ob);
            }
            Ev::San { disk, ev } => {
                let mut ob = Outbox::new(self.now);
                self.storage.san_disks[disk as usize].handle(ev, &mut ob);
                self.absorb_san(disk, ob);
            }
            Ev::SanSubmit { disk, req } => {
                let mut ob = Outbox::new(self.now);
                self.storage.san_disks[disk as usize].submit(req, &mut ob);
                self.absorb_san(disk, ob);
            }
            Ev::DelayedAction { id } => self.run_action_direct(id),
            Ev::LogFlush { node, gen } => self.log_flush(node, gen),
            Ev::Chaos => self.chaos_reset_one_ipc(),
            Ev::Fault => self.fault_tick(),
            Ev::IscsiTimeout {
                node,
                page,
                attempt,
            } => self.iscsi_timeout(node, page, attempt),
            Ev::IpcReconnect {
                a,
                b,
                class,
                attempt,
            } => self.ipc_reconnect(a, b, class, attempt),
            Ev::ClientThink { session } => self.client_begin(session),
            Ev::AggWake { node, gen } => self.agg_wake(node, gen),
            Ev::AggActivate { node, count } => self.agg_activate(node, count),
            Ev::FtpNext { pair } => self.ftp_next(pair),
            Ev::TxnRetry { txn } => self.txn_retry(txn),
            Ev::LockWaitTimeout { txn, gen } => self.lock_wait_timeout(txn, gen),
            Ev::Sample => {
                self.sample();
                self.heap
                    .push(self.now + Duration::from_millis(500), Ev::Sample);
            }
            Ev::EndWarmup => self.end_warmup(),
            Ev::EndRun => unreachable!("handled in run()"),
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping
    // ------------------------------------------------------------------

    fn sample(&mut self) {
        // Time series for transient analysis (e.g. thrash onset).
        let threads = self
            .nodes
            .iter()
            .map(|n| n.cpu.live_threads() as f64)
            .sum::<f64>()
            / self.nodes.len() as f64;
        self.timeline
            .push((self.now.as_secs_f64(), self.collect.committed, threads));
        self.gauge_sample(threads);
        self.autonomic_qos_step();
        self.redrive_stale_page_waits();
        // MVCC pruning: nothing older than the oldest active snapshot is
        // reachable.
        let watermark = self
            .txns
            .values()
            .map(|t| t.read_ts)
            .min()
            .unwrap_or_else(|| self.db.current_ts());
        self.db.versions.prune(watermark.saturating_sub(1));
        // Version-area pressure: steal unpinned buffer pages.
        if self.cfg.mvcc && self.db.versions.pressure() {
            for n in 0..self.nodes.len() {
                let stolen = self.nodes[n].buffer.steal(16);
                let bytes = stolen.len() as u64 * dclue_db::schema::PAGE_BYTES;
                for ev in stolen {
                    self.page_evicted(n as u32, ev);
                }
                self.db.versions.add_capacity(bytes);
            }
        }
    }

    /// Publish the periodic gauge snapshot to the metrics registry.
    /// Free when the registry is compiled out or not enabled.
    fn gauge_sample(&mut self, threads: f64) {
        if !dclue_trace::ENABLED || !dclue_trace::metrics::enabled() {
            return;
        }
        dclue_trace::metric_gauge!("core.committed", self.collect.committed);
        dclue_trace::metric_gauge!("core.live_txns", self.txns.len());
        dclue_trace::metric_gauge!("platform.threads_avg", threads);
        dclue_trace::metric_max!(
            "sim.heap_pending_max",
            self.heap.total_pushed() - self.heap.total_popped()
        );
        let lock_entries: usize = self.nodes.iter().map(|n| n.locks.live_entries()).sum();
        dclue_trace::metric_max!("db.lock_entries_max", lock_entries);
        let port_q = self
            .fabric
            .net
            .links()
            .iter()
            .map(|l| l.ports[0].queued().max(l.ports[1].queued()))
            .max()
            .unwrap_or(0);
        dclue_trace::metric_max!("net.port_queue_max", port_q);
    }

    /// Re-drive fusion protocols whose responses were lost (only
    /// possible when an IPC connection was reset mid-flight).
    fn redrive_stale_page_waits(&mut self) {
        let stale_after = Duration::from_secs(5);
        let now = self.now;
        for node in 0..self.nodes.len() {
            // `pending_pages` is a BTreeMap: iteration is already in
            // page order, so the redrive order is deterministic with no
            // collect-and-sort pass.
            let stale: Vec<PageKey> = self.nodes[node]
                .pending_pages
                .iter()
                .filter(|(_, p)| now.since(p.since) > stale_after)
                .map(|(&k, _)| k)
                .collect();
            for key in stale {
                if let Some(p) = self.nodes[node].pending_pages.get_mut(&key) {
                    p.since = now;
                    let txn = p.waiters.first().copied().unwrap_or(0);
                    self.redrive_page(node as u32, key, txn);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (dclue-fault integration)
    // ------------------------------------------------------------------

    /// Apply every fault-plan event due now, then re-arm the timer.
    fn fault_tick(&mut self) {
        for kind in self.fault_sched.pop_due(self.now) {
            self.apply_fault(kind);
        }
        if let Some(t) = self.fault_sched.peek_next() {
            self.heap.push(t, Ev::Fault);
        }
    }

    /// Resolve a logical link reference against the built topology.
    fn resolve_link(&self, l: LinkRef) -> Option<LinkId> {
        match l {
            LinkRef::NodeUplink(i) => self
                .nodes
                .get(i)
                .map(|n| self.fabric.net.host_uplink(n.host)),
            LinkRef::ClientUplink(i) => self
                .fabric
                .client_hosts
                .get(i % self.fabric.client_hosts.len().max(1))
                .map(|&h| self.fabric.net.host_uplink(h)),
            LinkRef::Trunk(i) => self.fabric.trunks.get(i).copied(),
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        if dclue_trace::ENABLED {
            let (label, a) = match &kind {
                FaultKind::LinkDown(_) => ("fault_link_down", 0i64),
                FaultKind::LinkUp(_) => ("fault_link_up", 0),
                FaultKind::LinkDegrade { .. } => ("fault_link_degrade", 0),
                FaultKind::LinkRestore(_) => ("fault_link_restore", 0),
                FaultKind::RouterPortFail(_) => ("fault_port_fail", 0),
                FaultKind::RouterPortRecover(_) => ("fault_port_recover", 0),
                FaultKind::LossBurst { .. } => ("fault_loss_burst", 0),
                FaultKind::LossClear(_) => ("fault_loss_clear", 0),
                FaultKind::NodeCrash(n) => ("fault_node_crash", *n as i64),
                FaultKind::NodeRestart(n) => ("fault_node_restart", *n as i64),
                FaultKind::IscsiStall(n) => ("fault_iscsi_stall", *n as i64),
                FaultKind::IscsiResume(n) => ("fault_iscsi_resume", *n as i64),
            };
            dclue_trace::trace_event!(Fault, self.now.0, label, a);
        }
        match kind {
            FaultKind::LinkDown(l) => {
                if let Some(id) = self.resolve_link(l) {
                    self.fabric.net.set_link_up(id, false);
                }
            }
            FaultKind::LinkUp(l) => {
                if let Some(id) = self.resolve_link(l) {
                    self.fabric.net.set_link_up(id, true);
                }
            }
            FaultKind::LinkDegrade { link, factor } => {
                if let Some(id) = self.resolve_link(link) {
                    self.fabric.net.set_link_rate_factor(id, factor);
                }
            }
            FaultKind::LinkRestore(l) => {
                if let Some(id) = self.resolve_link(l) {
                    self.fabric.net.set_link_rate_factor(id, 1.0);
                }
            }
            FaultKind::RouterPortFail(l) => {
                // Router-side egress: towards the host on access links,
                // the a→b direction on router↔router trunks.
                let forward = matches!(l, LinkRef::Trunk(_));
                if let Some(id) = self.resolve_link(l) {
                    self.fabric.net.set_port_failed(id, forward, true);
                }
            }
            FaultKind::RouterPortRecover(l) => {
                let forward = matches!(l, LinkRef::Trunk(_));
                if let Some(id) = self.resolve_link(l) {
                    self.fabric.net.set_port_failed(id, forward, false);
                }
            }
            FaultKind::LossBurst {
                link,
                drop_prob,
                corrupt_prob,
            } => {
                if let Some(id) = self.resolve_link(link) {
                    // Dedicated stream per window: reproducible, and
                    // independent of every other draw in the run.
                    let seed = self.cfg.seed ^ 0x1055_B075 ^ ((id.0 as u64) << 32);
                    self.fabric
                        .net
                        .set_link_loss(id, drop_prob, corrupt_prob, seed);
                }
            }
            FaultKind::LossClear(l) => {
                if let Some(id) = self.resolve_link(l) {
                    self.fabric.net.clear_link_loss(id);
                }
            }
            FaultKind::NodeCrash(n) => self.crash_node(n),
            FaultKind::NodeRestart(n) => self.restart_node(n),
            FaultKind::IscsiStall(n) => {
                if n < self.storage.iscsi_gate.len() {
                    self.storage.iscsi_gate[n].stall();
                }
            }
            FaultKind::IscsiResume(n) => {
                if n < self.storage.iscsi_gate.len() {
                    let held = self.storage.iscsi_gate[n].resume();
                    for msg in held {
                        self.handle_ipc(n as u32, msg);
                    }
                }
            }
        }
    }

    /// Cluster-wide remastering freeze: abort every in-flight
    /// transaction, clear all lock tables and page waits, and rebuild
    /// the distributed state without the (crashed or returning) node.
    /// Real fusion clusters do a bounded version of this on membership
    /// change; the model takes the simple, conservative form.
    fn remaster_freeze(&mut self) {
        // Abort in-flight transactions in id order (determinism: the
        // txn map is a HashMap, so never iterate it for side effects).
        let mut ids: Vec<u64> = self.txns.keys().copied().collect();
        ids.sort_unstable();
        let mut kicked: Vec<u32> = Vec::new();
        for id in ids {
            if let Some(s) = self.txns.get(&id).and_then(|t| t.session) {
                kicked.push(s);
            }
            self.fault_abort_txn(id);
        }
        // Reset those clients' connections: the terminal sees an error,
        // thinks, and retries the whole business transaction.
        kicked.sort_unstable();
        kicked.dedup();
        for s in kicked {
            if let Some(conn) = self.driver.sessions[s as usize].conn {
                self.with_net(|net, ob| net.abort_connection(conn, ob));
            }
        }
        for n in 0..self.nodes.len() {
            self.nodes[n].locks = LockTable::new();
            self.nodes[n].pending_pages.clear();
        }
        self.storage.iscsi_inflight.clear();
        // Pending group-commit batches reference dead txns; drop them
        // (keep the generation counter so stale flush timers stay stale).
        for b in &mut self.storage.log_batches {
            b.txns.clear();
            b.bytes = 0;
            b.armed = false;
        }
        // Protocol-private state (e.g. read leases) was granted under
        // the old membership; the protocol decides what survives.
        let protocol = self.protocol;
        protocol.on_membership_change(self);
    }

    /// Abort one transaction because of an injected fault. Threads with
    /// a burst on the CPU cannot exit mid-burst; their blocking action
    /// is replaced so the burst's retirement finishes the abort.
    fn fault_abort_txn(&mut self, id: u64) {
        let Some(t) = self.txns.get_mut(&id) else {
            return;
        };
        self.collect.aborted_by_fault += 1;
        t.session = None; // client connection is reset separately
        t.locks_held.clear(); // lock tables are wholesale-cleared
        t.masters.clear();
        if t.phase == Phase::Running {
            t.block = Some(Block::Finish { aborted: true });
        } else {
            self.finish_txn(id, true);
        }
    }

    fn crash_node(&mut self, k: usize) {
        if k >= self.nodes.len() || !self.alive[k] {
            return;
        }
        self.alive[k] = false;
        self.remaster_freeze();
        // The node's volatile state is gone.
        let cap = self.buf_capacity;
        let n = &mut self.nodes[k];
        n.buffer = BufferCache::new(cap);
        n.directory = Directory::new();
        // resident_txns is NOT zeroed here: the freeze already finished
        // idle txns (decrementing it), and Running txns finish at burst
        // retirement where they decrement it themselves.
        self.storage.iscsi_gate[k].purge();
        // Survivors forget the crashed cache's residency.
        for n in 0..self.nodes.len() {
            if n != k {
                self.nodes[n].directory.purge_node(k as u32);
            }
        }
        // Reset its cluster connections; the reset handler schedules
        // reconnect attempts with backoff until the node returns.
        for other in 0..self.cfg.nodes {
            if other as usize == k {
                continue;
            }
            for class in [ConnClass::Ipc, ConnClass::Storage] {
                let (a, b) = ((k as u32).min(other), (k as u32).max(other));
                if let Some(c) = self.fabric.cluster_conns.get(a, b, class) {
                    self.with_net(|net, ob| net.abort_connection(c, ob));
                }
            }
        }
        // Clients talking to the crashed node retry elsewhere.
        let stranded: Vec<ConnId> = self
            .driver
            .sessions
            .iter()
            .filter(|s| s.node == k as u32)
            .filter_map(|s| s.conn)
            .collect();
        for c in stranded {
            self.with_net(|net, ob| net.abort_connection(c, ob));
        }
        // Aggregate model: *idle* pooled connections anchored at the
        // crashed node die too (busy ones were just caught above via
        // their bound session). The reset handler drops them from the
        // pools; replacements open on demand against live nodes.
        let idle: Vec<ConnId> = self
            .driver
            .pools
            .iter()
            .filter_map(|per_home| per_home.get(k))
            .flat_map(|pool| pool.iter())
            .filter(|c| c.busy.is_none())
            .map(|c| c.conn)
            .collect();
        for c in idle {
            self.with_net(|net, ob| net.abort_connection(c, ob));
        }
    }

    fn restart_node(&mut self, k: usize) {
        if k >= self.nodes.len() || self.alive[k] {
            return;
        }
        self.alive[k] = true;
        // Rejoin is a second membership change: same freeze, so the
        // node's lock mastership and directory role resume coherently
        // (its cache stays cold and refills on demand).
        self.remaster_freeze();
        for other in 0..self.cfg.nodes {
            if other as usize == k {
                continue;
            }
            for class in [ConnClass::Ipc, ConnClass::Storage] {
                let (a, b) = ((k as u32).min(other), (k as u32).max(other));
                if !self.fabric.cluster_conns.contains(a, b, class) {
                    self.heap.push(
                        self.now + Duration::from_millis(10),
                        Ev::IpcReconnect {
                            a,
                            b,
                            class,
                            attempt: 0,
                        },
                    );
                }
            }
        }
    }

    fn end_warmup(&mut self) {
        self.measuring = true;
        // Also clears the embedded latency histogram — see
        // `Collector::reset`.
        self.collect.reset(self.now);
        let now = self.now;
        for n in &mut self.nodes {
            n.cpu.stats.context_switches.reset();
            n.cpu.stats.cs_cycles.reset();
            n.cpu.stats.cpi.reset();
            n.cpu.stats.instructions = 0.0;
            n.cpu.stats.busy = Duration::ZERO;
            n.cpu.stats.live_threads.reset(now);
            n.cpu.stats.interrupts.reset();
            n.buffer.stats = Default::default();
        }
        self.fabric.trunk_bytes_at_warmup = self.trunk_tier_bytes();
        self.versions_at_warmup = self.db.versions.stats.versions_created;
    }

    fn build_report(&mut self) -> Report {
        // End-of-run structural check: every lock-table shard must be
        // internally consistent (holders/waiters ↔ by_txn cross-index).
        for n in &self.nodes {
            n.locks.check_consistency(self.now.0);
        }
        let window = self.now.since(self.collect.window_start);
        let wsecs = window.as_secs_f64().max(1e-9);
        let c = &self.collect;
        let committed = c.committed.max(1);
        let tpmc_scaled = c.committed_new_orders as f64 / wsecs * 60.0;
        let n_nodes = self.nodes.len() as f64;
        let avg_cpi = self
            .nodes
            .iter()
            .map(|n| n.cpu.stats.cpi.mean())
            .sum::<f64>()
            / n_nodes;
        let avg_cs = self
            .nodes
            .iter()
            .map(|n| n.cpu.stats.cs_cycles.mean())
            .sum::<f64>()
            / n_nodes;
        let threads = self
            .nodes
            .iter()
            .map(|n| n.cpu.stats.live_threads.mean(self.now))
            .sum::<f64>()
            / n_nodes;
        let util = self
            .nodes
            .iter()
            .map(|n| n.cpu.utilization(window))
            .sum::<f64>()
            / n_nodes;
        let (hits, misses) = self.nodes.iter().fold((0u64, 0u64), |(h, m), n| {
            (h + n.buffer.stats.hits, m + n.buffer.stats.misses)
        });
        let hit_ratio = if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        // Per-tier trunk deltas over the measurement window; capacity
        // comes from the actual link bandwidths, not a single assumed
        // `cfg.trunk_bw`, so mixed-tier fabrics report honestly.
        let tier_bytes = self.trunk_tier_bytes();
        let tier_delta: Vec<u64> = tier_bytes
            .iter()
            .zip(&self.fabric.trunk_bytes_at_warmup)
            .map(|(now, warm)| now.saturating_sub(*warm))
            .collect();
        let tier_capacity = self.trunk_tier_capacity();
        let tier_mbps: Vec<f64> = tier_delta
            .iter()
            .map(|&d| d as f64 * 8.0 / wsecs / 1e6)
            .collect();
        let tier_util = |t: usize| (tier_mbps[t] * 1e6 / tier_capacity[t].max(1.0)).min(1.0);
        let trunk_mbps = tier_mbps[0] + tier_mbps[1];
        let trunk_capacity = (tier_capacity[0] + tier_capacity[1]).max(1.0);
        let drops: u64 = self
            .fabric
            .net
            .links()
            .iter()
            .map(|l| l.ports[0].stats.dropped + l.ports[1].stats.dropped)
            .sum::<u64>()
            + self
                .fabric
                .net
                .routers()
                .iter()
                .map(|r| r.stats.input_dropped)
                .sum::<u64>();
        // Availability: rate timeline inside the measurement window
        // (committed only advances there) against the plan's windows.
        let availability = if self.cfg.fault_plan.is_empty() {
            None
        } else {
            let ws = self.collect.window_start.as_secs_f64();
            let samples: Vec<(f64, u64)> = self
                .timeline
                .iter()
                .filter(|&&(t, _, _)| t >= ws)
                .map(|&(t, c, _)| (t, c))
                .collect();
            let windows: Vec<(f64, f64)> = self
                .cfg
                .fault_plan
                .fault_windows()
                .iter()
                .map(|&(s, e)| (s.as_secs_f64(), e.as_secs_f64()))
                .collect();
            Some(dclue_fault::avail::analyze(&samples, &windows))
        };
        Report {
            nodes: self.cfg.nodes,
            affinity: self.cfg.affinity,
            window_s: wsecs,
            tpmc_scaled,
            tpmc_equivalent: tpmc_scaled * 100.0,
            tps_scaled: c.committed as f64 / wsecs,
            committed: c.committed,
            aborted: c.aborted,
            ctl_msgs_per_txn: c.ctl_msgs as f64 / committed as f64,
            data_msgs_per_txn: c.data_msgs as f64 / committed as f64,
            storage_msgs_per_txn: c.storage_msgs as f64 / committed as f64,
            lock_waits_per_txn: c.lock_waits as f64 / committed as f64,
            lock_busies_per_txn: c.lock_busies as f64 / committed as f64,
            lock_wait_ms: c.lock_wait.mean() * 1e3,
            txn_latency_ms: c.txn_latency.mean() * 1e3,
            avg_cpi,
            avg_cs_cycles: avg_cs,
            avg_live_threads: threads,
            cpu_util: util,
            buffer_hit_ratio: hit_ratio,
            fusion_transfers_per_txn: c.fusion_transfers as f64 / committed as f64,
            lease_transfers_per_txn: c.lease_transfers as f64 / committed as f64,
            lease_renewals_per_txn: c.lease_renewals as f64 / committed as f64,
            disk_reads_per_txn: c.disk_reads as f64 / committed as f64,
            version_walks_per_txn: c.version_walks as f64 / committed as f64,
            txn_latency_p95_ms: c.latency_hist.quantile(0.95) * 1e3,
            versions_created_per_txn: (self.db.versions.stats.versions_created
                - self.versions_at_warmup) as f64
                / committed as f64,
            trunk_mbps,
            trunk_utilization: (trunk_mbps * 1e6 / trunk_capacity).min(1.0),
            trunk_mbps_edge: tier_mbps[0],
            trunk_utilization_edge: tier_util(0),
            trunk_mbps_agg: tier_mbps[1],
            trunk_utilization_agg: tier_util(1),
            max_path_hops: self.placement.max_hops,
            ftp_mbps: c.ftp_bytes_delivered * 8.0 / wsecs / 1e6,
            ftp_denied: self.driver.ftp_pairs.iter().map(|p| p.denied).sum(),
            timeline: std::mem::take(&mut self.timeline),
            ipc_resets: c.ipc_resets,
            drops,
            fault_events_applied: self.fault_sched.applied(),
            aborted_by_fault: c.aborted_by_fault,
            iscsi_retries: c.iscsi_retries,
            fault_drops: self.fabric.net.fault_drops(),
            availability,
        }
    }
}
