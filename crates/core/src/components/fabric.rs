//! The network-fabric component: TCP connections, framed-message
//! tags, IPC sends, and the autonomic QoS controller.

use crate::components::platform::Action;
use crate::config::QosPolicy;
use crate::ipc::{ConnClass, IpcMsg};
use crate::world::{Ev, World};
use dclue_net::packet::Dscp;
use dclue_net::tcp::TcpConfig;
use dclue_net::types::Side;
use dclue_net::{ConnId, HostId, LinkId, MsgId, NetEvent, NetNote, Network};
use dclue_sim::{Duration, FxHashMap, Outbox, TimerOp};

/// First reconnect attempt delay after a cluster connection dies with a
/// crashed endpoint; doubles per attempt (capped) until the peer is back.
const IPC_RECONNECT_BASE: Duration = Duration::from_millis(200);

/// What a TCP connection is used for.
#[derive(Debug, Clone)]
pub(crate) enum ConnKind {
    /// Node pair connection; `a` is the opener node, `b` the acceptor.
    Cluster {
        a: u32,
        b: u32,
        class: ConnClass,
    },
    Client {
        session: u32,
    },
    /// An *idle* pooled client connection of the aggregate client
    /// model, owned by node population `home` and anchored at node
    /// `target`. While a session slot is bound to it, the connection is
    /// re-tagged `Client { session }`; it reverts here on release.
    ClientPool {
        home: u32,
        target: u32,
    },
    Ftp {
        #[allow(dead_code)]
        pair: u32,
    },
}

/// Dense `(min node, max node, class) -> conn` table. The pair space is
/// tiny (`nodes² · 2` slots even at the paper's 24 nodes) and the
/// lookup sits on the per-message IPC send path, so a flat index beats
/// hashing by a wide margin.
pub(crate) struct ConnTable {
    nodes: usize,
    slots: Vec<Option<ConnId>>,
}

impl ConnTable {
    pub(crate) fn new(nodes: u32) -> Self {
        let n = nodes as usize;
        ConnTable {
            nodes: n,
            slots: vec![None; n * n * 2],
        }
    }

    #[inline]
    fn idx(&self, a: u32, b: u32, class: ConnClass) -> usize {
        (a as usize * self.nodes + b as usize) * 2 + class as usize
    }

    #[inline]
    pub(crate) fn get(&self, a: u32, b: u32, class: ConnClass) -> Option<ConnId> {
        self.slots[self.idx(a, b, class)]
    }

    pub(crate) fn contains(&self, a: u32, b: u32, class: ConnClass) -> bool {
        self.get(a, b, class).is_some()
    }

    pub(crate) fn insert(&mut self, a: u32, b: u32, class: ConnClass, conn: ConnId) {
        let i = self.idx(a, b, class);
        self.slots[i] = Some(conn);
    }

    pub(crate) fn remove(&mut self, a: u32, b: u32, class: ConnClass) {
        let i = self.idx(a, b, class);
        self.slots[i] = None;
    }
}

/// Connection metadata addressed directly by `ConnId`. Ids are handed
/// out sequentially by the network and never reused, so the table only
/// grows; reaped connections leave a `None` hole. Iteration (rare) is
/// in id order — deterministic by construction.
pub(crate) struct ConnInfoTable {
    slots: Vec<Option<ConnKind>>,
}

impl ConnInfoTable {
    pub(crate) fn new() -> Self {
        ConnInfoTable { slots: Vec::new() }
    }

    #[inline]
    pub(crate) fn get(&self, conn: ConnId) -> Option<&ConnKind> {
        self.slots.get(conn.0 as usize).and_then(|s| s.as_ref())
    }

    pub(crate) fn insert(&mut self, conn: ConnId, kind: ConnKind) {
        let i = conn.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(kind);
    }

    pub(crate) fn remove(&mut self, conn: ConnId) -> Option<ConnKind> {
        self.slots.get_mut(conn.0 as usize).and_then(|s| s.take())
    }

    /// Occupied entries in ascending `ConnId` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ConnId, &ConnKind)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|k| (ConnId(i as u32), k)))
    }
}

/// Meaning of an in-flight framed message.
#[derive(Debug)]
pub(crate) enum MsgTag {
    Ipc(IpcMsg),
    ClientReq { session: u32 },
    ClientResp { session: u32 },
    FtpFile { pair: u32 },
}

/// All fabric-facing state of the cluster: the network itself plus the
/// connection/message bookkeeping that gives wire traffic its meaning.
/// Ingress port: [`NetEvent`] (scheduled by the fabric for itself);
/// egress port: [`NetNote`] (delivery/teardown notes the cluster layer
/// routes by `MsgTag`).
pub struct FabricPort {
    pub(crate) net: Network,
    /// `(min node, max node, class) -> conn`; opener is always min.
    pub(crate) cluster_conns: ConnTable,
    pub(crate) conn_info: ConnInfoTable,
    /// In-flight framed messages: `(owning connection, meaning)`. The
    /// connection id lets reset handling reap entries whose messages
    /// died with the connection.
    pub(crate) msg_tags: FxHashMap<MsgId, (ConnId, MsgTag)>,
    pub(crate) next_msg: u64,
    pub(crate) trunks: Vec<LinkId>,
    /// Tier per trunk, parallel to `trunks` (0 = edge, 1 = agg; see
    /// [`crate::topology::BuiltTopology`]).
    pub(crate) trunk_tiers: Vec<u8>,
    /// Per-tier trunk byte snapshot at the end of warm-up, so the
    /// report covers the measurement window only.
    pub(crate) trunk_bytes_at_warmup: [u64; 2],
    /// Client host ids, for resolving `LinkRef::ClientUplink`.
    pub(crate) client_hosts: Vec<HostId>,
    /// Autonomic QoS controller state: (baseline latency EWMA,
    /// recent latency EWMA, current AF weight).
    pub(crate) qos_ctl: (f64, f64, f64),
}

impl FabricPort {
    /// The autonomic QoS controller's current AF (FTP-class) weight.
    pub fn af_weight(&self) -> f64 {
        self.qos_ctl.2
    }
}

impl World {
    /// TCP parameters, paper-style: standard timers / 100 for the data
    /// center, times the 100x scale = standard values in scaled time.
    /// IPC connections get a very high retransmission cap so stress
    /// never resets them (the paper does exactly this).
    pub(crate) fn tcp_config(&self, long_lived: bool) -> TcpConfig {
        TcpConfig {
            mss: 1460,
            rwnd: 64 * 1024,
            init_cwnd_segs: 2,
            init_ssthresh: 64 * 1024,
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            delack: Duration::from_millis(40),
            max_retrans: if long_lived { 100 } else { 8 },
            max_syn_retrans: if long_lived { 30 } else { 6 },
            ecn: true,
            sack: true,
            train: !self.cfg.exact,
        }
    }

    pub(crate) fn with_net<R>(
        &mut self,
        f: impl FnOnce(&mut Network, &mut Outbox<NetEvent, NetNote>) -> R,
    ) -> R {
        let mut ob = Outbox::new(self.now);
        let r = f(&mut self.fabric.net, &mut ob);
        for (t, e) in ob.events {
            self.heap.push(t, Ev::Net(e));
        }
        // Timer ops ride a separate channel so re-arms can cancel their
        // predecessor keyed entry instead of leaving a dead event to pop.
        // Draining them after the plain events is order-safe: within one
        // dispatch, plain events land within the current transmit window
        // (≈2 ms) while timers arm at least a delack (40 ms) out, so the
        // two groups can never collide on a fire time and the relative
        // seq order between them is unobservable.
        for op in std::mem::take(&mut ob.timer_ops) {
            match op {
                TimerOp::Arm { key, at, ev } => self.heap.arm_timer(key, at, Ev::Net(ev)),
                TimerOp::Cancel { key } => self.heap.cancel_timer(key),
            }
        }
        let notes = std::mem::take(&mut ob.notes);
        for n in notes {
            self.handle_net_note(n);
        }
        r
    }

    // ------------------------------------------------------------------
    // Network notes
    // ------------------------------------------------------------------

    fn handle_net_note(&mut self, note: NetNote) {
        match note {
            NetNote::Established { conn } => self.on_established(conn),
            NetNote::MessageDelivered {
                conn,
                side,
                msg,
                bytes,
                ..
            } => self.on_message(conn, side, msg, bytes),
            NetNote::Reset { conn } => self.on_reset(conn),
            NetNote::Closed { conn } => {
                // Client/FTP connection ids are transient; reap them.
                if let Some(
                    ConnKind::Client { .. } | ConnKind::ClientPool { .. } | ConnKind::Ftp { .. },
                ) = self.fabric.conn_info.get(conn)
                {
                    self.fabric.conn_info.remove(conn);
                }
            }
            NetNote::SegmentsReceived { .. } => {
                // Folded into per-message processing costs.
            }
        }
    }

    fn on_established(&mut self, conn: ConnId) {
        match self.fabric.conn_info.get(conn) {
            Some(ConnKind::Client { session }) => {
                let s = *session;
                // Aggregate model: remember the pooled connection's
                // handshake completed so later binds send immediately.
                if let Some(k) = self.driver.sessions[s as usize].agg_home {
                    let target = self.driver.sessions[s as usize].node;
                    if let Some(c) = self.driver.pools[k as usize][target as usize]
                        .iter_mut()
                        .find(|c| c.conn == conn)
                    {
                        c.established = true;
                    }
                }
                self.client_send_next(s);
            }
            Some(ConnKind::ClientPool { home, target }) => {
                // Released before the handshake finished (reset races);
                // just record establishment for the next bind.
                let (k, t) = (*home, *target);
                if let Some(c) = self.driver.pools[k as usize][t as usize]
                    .iter_mut()
                    .find(|c| c.conn == conn)
                {
                    c.established = true;
                }
            }
            Some(ConnKind::Ftp { pair: _ }) => {
                // The transfer payload was queued at open time; nothing
                // further needed here.
            }
            _ => {}
        }
    }

    fn on_message(&mut self, conn: ConnId, side: Side, msg: MsgId, bytes: u64) {
        let Some((_, tag)) = self.fabric.msg_tags.remove(&msg) else {
            return;
        };
        match tag {
            MsgTag::Ipc(m) => {
                let Some(ConnKind::Cluster { a, b, .. }) = self.fabric.conn_info.get(conn) else {
                    return;
                };
                let node = if side == Side::Opener { *a } else { *b };
                if !self.alive[node as usize] {
                    return; // delivered to a crashed node: lost
                }
                let mut instr = self.paths.recv_instr(bytes);
                // iSCSI adds protocol processing on the receiving host.
                match &m {
                    IpcMsg::IscsiData { .. } => {
                        instr += self.paths.iscsi_initiator_per_io
                            + self.paths.iscsi_initiator_per_kb * bytes.div_ceil(1024);
                    }
                    IpcMsg::IscsiRead { .. } | IpcMsg::IscsiWrite { .. } => {
                        instr += self.paths.iscsi_target_per_io
                            + self.paths.iscsi_target_per_kb * bytes.div_ceil(1024);
                    }
                    _ => {}
                }
                let bus = self.paths.recv_bus_bytes(bytes);
                self.nodes[node as usize].cpu.account_bus(self.now, bus);
                self.charge_then(node, instr, Action::HandleIpc { node, msg: m });
            }
            MsgTag::ClientReq { session } => {
                let node = self.driver.sessions[session as usize].node;
                if !self.alive[node as usize] {
                    // Request landed on a crashed node: reset the client
                    // connection so the terminal retries on a live one.
                    self.with_net(|net, ob| net.abort_connection(conn, ob));
                    return;
                }
                let instr = self.paths.recv_instr(bytes) + self.paths.client_req_parse;
                self.charge_then(node, instr, Action::StartTxn { node, session });
            }
            MsgTag::ClientResp { session } => {
                // Arrives at the (un-modelled) client host.
                self.client_got_response(session);
            }
            MsgTag::FtpFile { pair } => {
                if self.measuring {
                    self.collect.ftp_bytes_delivered += bytes as f64;
                    self.collect.ftp_transfers += 1;
                }
                let p = &mut self.driver.ftp_pairs[pair as usize];
                p.active = p.active.saturating_sub(1);
                // Tear the per-transfer connection down from both ends.
                self.with_net(|net, ob| {
                    net.close_connection(conn, Side::Opener, ob);
                    net.close_connection(conn, Side::Acceptor, ob);
                });
            }
        }
    }

    fn on_reset(&mut self, conn: ConnId) {
        // Reap framing entries for messages that died with the
        // connection (their delivery will never come).
        self.fabric.msg_tags.retain(|_, (c, _)| *c != conn);
        match self.fabric.conn_info.remove(conn) {
            Some(ConnKind::Cluster { a, b, class }) => {
                // Should essentially never happen under load alone (high
                // retrans cap); a crash or long outage gets here. Reopen
                // immediately when both ends live, else retry with
                // exponential backoff until the peer returns.
                self.collect.ipc_resets += 1;
                self.fabric.cluster_conns.remove(a, b, class);
                if self.alive[a as usize] && self.alive[b as usize] {
                    let (ha, hb) = (self.nodes[a as usize].host, self.nodes[b as usize].host);
                    let cfg = self.tcp_config(true);
                    let newc = self
                        .with_net(|net, ob| net.open_connection(ha, hb, Dscp::BestEffort, cfg, ob));
                    self.fabric.cluster_conns.insert(a, b, class, newc);
                    self.fabric
                        .conn_info
                        .insert(newc, ConnKind::Cluster { a, b, class });
                } else {
                    self.heap.push(
                        self.now + IPC_RECONNECT_BASE,
                        Ev::IpcReconnect {
                            a,
                            b,
                            class,
                            attempt: 0,
                        },
                    );
                }
            }
            Some(ConnKind::Ftp { pair }) => {
                let p = &mut self.driver.ftp_pairs[pair as usize];
                p.active = p.active.saturating_sub(1);
            }
            Some(ConnKind::Client { session }) => {
                if let Some(k) = self.driver.sessions[session as usize].agg_home {
                    // Aggregate model: a pooled connection died with a
                    // business transaction bound to it. Drop the dead
                    // connection from the pool, abandon the business
                    // transaction, and return the terminal to its
                    // population's think pool (its next wake retries).
                    let target = self.driver.sessions[session as usize].node;
                    let home_w = self.driver.sessions[session as usize].home_w;
                    self.driver.pools[k as usize][target as usize].retain(|c| c.conn != conn);
                    self.agg_free_slot(session);
                    self.agg_return_terminal(k, home_w);
                    return;
                }
                // The business transaction is abandoned; think and retry.
                let think = self.cfg.think_time;
                let s = &mut self.driver.sessions[session as usize];
                s.conn = None;
                s.queue.clear();
                s.inflight = None;
                let delay = self.rng.exponential(think);
                self.heap
                    .push(self.now + delay, Ev::ClientThink { session });
            }
            Some(ConnKind::ClientPool { home, target }) => {
                // An *idle* pooled connection died (target crash or
                // fault injection): drop it from the pool; a fresh one
                // opens on demand at the next bind.
                self.driver.pools[home as usize][target as usize].retain(|c| c.conn != conn);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Message sending
    // ------------------------------------------------------------------

    /// Send an IPC message between nodes (or handle locally if same).
    pub(crate) fn send_ipc(&mut self, from: u32, to: u32, msg: IpcMsg) {
        if !self.alive[from as usize] || !self.alive[to as usize] {
            return; // a crashed endpoint neither sends nor receives
        }
        if from == to {
            // Local shortcut (the paper's A=B / B=C cases): no fabric,
            // no extra processing charge beyond what the op itself pays.
            self.handle_ipc(to, msg);
            return;
        }
        let class = msg.class();
        let bytes = msg.wire_bytes();
        if self.measuring {
            match class {
                ConnClass::Ipc => {
                    if msg.is_data() {
                        self.collect.data_msgs += 1;
                    } else {
                        self.collect.ctl_msgs += 1;
                    }
                }
                ConnClass::Storage => self.collect.storage_msgs += 1,
            }
        }
        let Some(conn) = self
            .fabric
            .cluster_conns
            .get(from.min(to), from.max(to), class)
        else {
            return;
        };
        let side = if from < to {
            Side::Opener
        } else {
            Side::Acceptor
        };
        let id = MsgId(self.fabric.next_msg);
        self.fabric.next_msg += 1;
        self.fabric.msg_tags.insert(id, (conn, MsgTag::Ipc(msg)));
        // Send-side processing + copy traffic.
        let instr = self.paths.send_instr(bytes);
        let bus = self.paths.send_bus_bytes(bytes);
        self.nodes[from as usize].cpu.account_bus(self.now, bus);
        self.charge_then(from, instr, Action::Nop);
        self.with_net(|net, ob| net.send_message(conn, side, id, bytes, ob));
    }

    /// Send a client-bound or server-bound message on a client conn.
    pub(crate) fn send_client_msg(&mut self, conn: ConnId, side: Side, tag: MsgTag, bytes: u64) {
        let id = MsgId(self.fabric.next_msg);
        self.fabric.next_msg += 1;
        self.fabric.msg_tags.insert(id, (conn, tag));
        self.with_net(|net, ob| net.send_message(conn, side, id, bytes, ob));
    }

    /// One step of the autonomic QoS controller (runs every sample
    /// tick when `QosPolicy::Autonomic` is configured).
    pub(crate) fn autonomic_qos_step(&mut self) {
        let QosPolicy::Autonomic { tolerance } = self.cfg.qos else {
            return;
        };
        let (baseline, recent, weight) = &mut self.fabric.qos_ctl;
        if *recent <= 0.0 || *baseline <= 0.0 {
            return; // no latency samples yet
        }
        let budget = *baseline * (1.0 + tolerance);
        if *recent > budget {
            *weight = (*weight * 0.8).max(0.05);
        } else if *recent < *baseline * (1.0 + tolerance * 0.5) {
            *weight = (*weight + 0.02).min(0.9);
        }
        let wv = *weight;
        self.fabric.net.set_af_weight(wv);
    }

    /// Feed the autonomic controller one commit-latency observation
    /// (always on, independent of the measurement window).
    pub(crate) fn qos_latency_sample(&mut self, lat_s: f64) {
        if !matches!(self.cfg.qos, QosPolicy::Autonomic { .. }) {
            return;
        }
        let (baseline, recent, _) = &mut self.fabric.qos_ctl;
        if *baseline == 0.0 {
            *baseline = lat_s;
            *recent = lat_s;
        } else {
            // The slow EWMA locks in the uncontended early behaviour;
            // the fast one tracks current conditions.
            if !self.measuring {
                *baseline += 0.02 * (lat_s - *baseline);
            }
            *recent += 0.1 * (lat_s - *recent);
        }
    }

    /// Abort the first live IPC connection (fault injection): the reset
    /// handler must reopen it and the cluster must keep committing.
    pub(crate) fn chaos_reset_one_ipc(&mut self) {
        let conn = self
            .fabric
            .conn_info
            .iter()
            .find(|(_, k)| matches!(k, ConnKind::Cluster { .. }))
            .map(|(c, _)| c);
        if let Some(c) = conn {
            self.with_net(|net, ob| net.abort_connection(c, ob));
        }
    }

    /// Try to reopen a cluster connection whose endpoint was down.
    pub(crate) fn ipc_reconnect(&mut self, a: u32, b: u32, class: ConnClass, attempt: u32) {
        if self.fabric.cluster_conns.contains(a, b, class) {
            return; // already reopened (by restart or an earlier retry)
        }
        if self.alive[a as usize] && self.alive[b as usize] {
            let (ha, hb) = (self.nodes[a as usize].host, self.nodes[b as usize].host);
            let cfg = self.tcp_config(true);
            let conn =
                self.with_net(|net, ob| net.open_connection(ha, hb, Dscp::BestEffort, cfg, ob));
            self.fabric.cluster_conns.insert(a, b, class, conn);
            self.fabric
                .conn_info
                .insert(conn, ConnKind::Cluster { a, b, class });
        } else {
            let delay = Duration::from_nanos(
                IPC_RECONNECT_BASE
                    .nanos()
                    .saturating_mul(1 << attempt.min(5)),
            );
            self.heap.push(
                self.now + delay,
                Ev::IpcReconnect {
                    a,
                    b,
                    class,
                    attempt: attempt + 1,
                },
            );
        }
    }

    /// Trunk bytes carried so far, split by tier (0 = edge, 1 = agg).
    /// The paper star has only tier-0 trunks, so its total is slot 0.
    pub(crate) fn trunk_tier_bytes(&self) -> [u64; 2] {
        let mut by_tier = [0u64; 2];
        for (&l, &tier) in self.fabric.trunks.iter().zip(&self.fabric.trunk_tiers) {
            let link = self.fabric.net.link(l);
            by_tier[tier as usize] += link.ports[0].stats.bytes_tx + link.ports[1].stats.bytes_tx;
        }
        by_tier
    }

    /// Per-tier trunk capacity, bit/s, from the actual link bandwidths
    /// (tiers can be provisioned differently; see `agg_trunk_bw`).
    pub(crate) fn trunk_tier_capacity(&self) -> [f64; 2] {
        let mut by_tier = [0.0f64; 2];
        for (&l, &tier) in self.fabric.trunks.iter().zip(&self.fabric.trunk_tiers) {
            by_tier[tier as usize] += self.fabric.net.link(l).bandwidth_bps;
        }
        by_tier
    }
}
