//! The workload-driver component: closed-loop TPC-C client terminals
//! and the FTP cross-traffic source.

use crate::components::fabric::{ConnKind, MsgTag};
use crate::components::platform::Action;
use crate::config::QosPolicy;
use crate::ipc::{CLIENT_REQ_BYTES, CLIENT_RESP_BYTES};
use crate::world::{Ev, World};
use dclue_db::tpcc::TxnInput;
use dclue_net::packet::Dscp;
use dclue_net::types::Side;
use dclue_net::{ConnId, HostId, MsgId};
use dclue_sim::{Duration, SimTime};
use dclue_workload::{route_node, FtpGenerator, FtpTransfer, TpccGenerator};
use std::collections::VecDeque;

/// A closed-loop client terminal session. Under the exact client model
/// there is one per terminal, alive for the whole run; under the
/// aggregate model a session slot exists only while a terminal has a
/// business transaction in flight, and the slot is recycled afterwards
/// (`agg_home` marks the node population it was drawn from).
pub(crate) struct ClientSession {
    pub home_w: u32,
    pub client_host: HostId,
    pub node: u32,
    pub conn: Option<ConnId>,
    pub queue: VecDeque<TxnInput>,
    pub inflight: Option<TxnInput>,
    /// Aggregate model: the node population this active terminal came
    /// from. `None` for exact-model sessions and recycled aggregate
    /// slots.
    pub agg_home: Option<u32>,
    /// Connection-pool queueing delay to fold into the next measured
    /// response time (always zero under the exact model).
    pub queue_delay: Duration,
}

/// Aggregate client model: the O(1) state of one node's terminal
/// population. The N independent exponential think timers collapse into
/// one arrival process — the minimum of `thinking` Exp(T) residuals is
/// Exp(T / thinking), so only the *next* wake-up is ever materialized
/// (order-statistics superposition), re-sampled at each state edge,
/// which is distributionally exact by memorylessness.
pub(crate) struct AggPopulation {
    /// Closed-loop terminal population homed on this node.
    pub population: u64,
    /// Terminals that have not yet joined the closed loop. The exact
    /// driver staggers first arrivals across the warm-up span to ramp
    /// the cluster up instead of thundering-herding it; the aggregate
    /// model reproduces that transient by activating the population in
    /// a bounded number of `AggActivate` ticks spread over the same
    /// span (dormant → thinking), after which the Exp(think) first
    /// arrival falls out of the superposed process itself.
    pub dormant: u64,
    /// Terminals currently in their think phase. While the connection
    /// pool is saturated the wake timer stays un-armed, so this also
    /// counts the not-yet-materialized waiters behind `head` — the
    /// closed-loop invariant
    /// `population == dormant + thinking + head + inflight`
    /// holds at every dispatch edge.
    pub thinking: u64,
    /// At most one woken-but-unadmitted terminal (its wake instant),
    /// present only while the pool is saturated. Lazy head-of-line
    /// materialization keeps the queue O(1) regardless of population.
    pub head: Option<SimTime>,
    /// Terminals with a business transaction in flight; bounded by
    /// `client_conns_per_node`, which is what makes driver state
    /// O(active transactions) instead of O(terminals).
    pub inflight: u64,
    /// Generation guard for the wake timer. A re-armed keyed timer whose
    /// predecessor already cascaded out of the timer wheel can no longer
    /// be cancelled (see `EventHeap::cancel_timer`); a fired `AggWake`
    /// carrying a stale generation is ignored instead of dispatching a
    /// phantom arrival — same idiom as the lock-wait `wait_gen`.
    pub wake_gen: u64,
    /// Home-warehouse block `[w_lo, w_hi]` the population draws from.
    pub w_lo: u32,
    pub w_hi: u32,
    /// Per-warehouse count of terminals *not* in flight (`free_w[i]`
    /// covers warehouse `w_lo + i`), initialized to the exact layout's
    /// fixed terminal→warehouse assignment. Dispatches draw the home
    /// warehouse ∝ these weights and decrement; completions increment.
    /// This reproduces the exact driver's stratification — a warehouse
    /// can never carry more concurrent transactions than it has
    /// terminals, which caps district-lock contention the same way the
    /// fixed assignment does. O(warehouses-per-node) state, independent
    /// of population. During ramp-up dormant terminals stay counted
    /// (activation is warehouse-uniform, so the mixture is right in
    /// expectation); `sum(free_w) == dormant + thinking + head`.
    pub free_w: Vec<u64>,
}

/// One pooled client connection of an aggregate-mode node population.
/// Pooled connections are long-lived: acquired per business transaction,
/// released (not closed) at completion.
pub(crate) struct AggConn {
    pub conn: ConnId,
    pub established: bool,
    /// Session slot currently bound to the connection (`None` = idle).
    pub busy: Option<u32>,
}

/// An FTP cross-traffic endpoint pair.
pub(crate) struct FtpPair {
    pub client: HostId,
    pub server: HostId,
    pub generator: FtpGenerator,
    /// Token-bucket state (tokens in bytes) for the optional policer.
    pub tokens: f64,
    pub tokens_at: SimTime,
    /// Live transfers (for connection admission control).
    pub active: u32,
    /// Transfers denied by CAC / policing.
    pub denied: u64,
}

/// Everything that *offers load* to the cluster: terminal sessions in
/// their think/request loop and the FTP pair. Egress port: framed
/// client messages tagged with `MsgTag`; ingress: the responses the
/// engine sends back through `World::reply_to_client`.
pub struct WorkloadDriver {
    pub(crate) sessions: Vec<ClientSession>,
    pub(crate) gen: TpccGenerator,
    pub(crate) ftp_pairs: Vec<FtpPair>,
    /// Aggregate model: one population per node (empty under exact).
    pub(crate) agg: Vec<AggPopulation>,
    /// Aggregate model: pooled client connections, `[home][target]`.
    pub(crate) pools: Vec<Vec<Vec<AggConn>>>,
    /// Recycled session-slot ids (aggregate model only).
    pub(crate) free_slots: Vec<u32>,
}

/// Keyed-timer key for a node population's aggregate wake event. Bit 61
/// keeps the space disjoint from the lock-wait keys (bit 60) and the
/// TCP timer keys (below 2^35).
#[inline]
pub(crate) fn agg_wake_key(node: u32) -> u64 {
    (1u64 << 61) | node as u64
}

impl World {
    // ------------------------------------------------------------------
    // Aggregate client model (ClientModel::Aggregate)
    // ------------------------------------------------------------------

    /// Arm (or re-arm) node `k`'s single wake timer: the next arrival of
    /// the superposed think-time process, Exp(think_time / thinking).
    /// No-op when nobody is thinking or a woken head is already queued
    /// (while saturated, wake events throttle to the dispatch rate, so
    /// the event count is O(throughput), not O(population)).
    pub(crate) fn agg_arm_wake(&mut self, k: u32) {
        let a = &mut self.driver.agg[k as usize];
        // Every re-arm moves to a new generation so any uncancellable
        // predecessor that still fires is recognized as stale.
        a.wake_gen += 1;
        let gen = a.wake_gen;
        if a.thinking == 0 || a.head.is_some() {
            return;
        }
        let mean = Duration::from_nanos((self.cfg.think_time.nanos() / a.thinking).max(1));
        let delay = self.rng.exponential(mean);
        self.heap.arm_timer(
            agg_wake_key(k),
            self.now + delay,
            Ev::AggWake { node: k, gen },
        );
    }

    /// One terminal of population `k` finished thinking. Dispatch it if
    /// a pooled connection is free, else park it as the materialized
    /// head of the (otherwise virtual) admission queue.
    pub(crate) fn agg_wake(&mut self, k: u32, gen: u64) {
        let cap = self.cfg.client_conns_per_node as u64;
        let now = self.now;
        let dispatch = {
            let a = &mut self.driver.agg[k as usize];
            if gen != a.wake_gen {
                return; // stale wake from a superseded timer arm
            }
            debug_assert!(a.thinking > 0, "aggregate wake with empty think pool");
            a.thinking -= 1;
            if a.inflight < cap {
                a.inflight += 1;
                true
            } else {
                debug_assert!(a.head.is_none(), "second head materialized");
                a.head = Some(now);
                false
            }
        };
        if dispatch {
            self.agg_dispatch(k, Duration::ZERO);
            self.agg_arm_wake(k);
        }
        self.agg_check_invariant(k);
    }

    /// A terminal of population `k` completed (or abandoned) its
    /// business transaction: return it to the think pool and admit the
    /// queued head, if any. The head's successor — the next order
    /// statistic of the terminals that were thinking across the
    /// saturation window — is sampled here; a successor landing in the
    /// future is discarded and re-sampled from *now* at the current
    /// rate, which is exact by memorylessness.
    pub(crate) fn agg_return_terminal(&mut self, k: u32, home_w: u32) {
        let now = self.now;
        let think = self.cfg.think_time;
        let (head, th_window) = {
            let a = &mut self.driver.agg[k as usize];
            debug_assert!(a.inflight > 0, "aggregate return without dispatch");
            a.inflight -= 1;
            let th_window = a.thinking;
            a.thinking += 1;
            a.free_w[(home_w - a.w_lo) as usize] += 1;
            (a.head.take(), th_window)
        };
        if let Some(h) = head {
            let queue_delay = now.since(h);
            let succ = think.nanos().checked_div(th_window).map(|per| {
                let mean = Duration::from_nanos(per.max(1));
                h + self.rng.exponential(mean)
            });
            let a = &mut self.driver.agg[k as usize];
            if let Some(s) = succ {
                if s <= now {
                    a.head = Some(s);
                    a.thinking -= 1;
                }
            }
            a.inflight += 1;
            self.agg_dispatch(k, queue_delay);
        }
        if self.driver.agg[k as usize].head.is_none() {
            self.agg_arm_wake(k);
        }
        self.agg_check_invariant(k);
    }

    /// Start a business transaction for one admitted terminal of
    /// population `k`: allocate a session slot, draw the home warehouse
    /// ∝ the per-warehouse free-terminal counts (preserving the exact
    /// layout's stratification — see `AggPopulation::free_w`), generate
    /// the transaction mix (identity-free — the NURand/mix streams come
    /// from the shared generator, same as exact mode), route it, and
    /// bind a pooled connection to the routed node.
    fn agg_dispatch(&mut self, k: u32, queue_delay: Duration) {
        dclue_trace::metric_add!("driver.agg_dispatches", 1);
        let slot = self.agg_alloc_slot();
        let total: u64 = self.driver.agg[k as usize].free_w.iter().sum();
        debug_assert!(total > 0, "dispatch from node {k} with no free terminals");
        let mut r = self.rng.uniform(0, total.saturating_sub(1));
        let home_w = {
            let a = &mut self.driver.agg[k as usize];
            let mut pick = a.free_w.len() - 1;
            for (i, f) in a.free_w.iter().enumerate() {
                if r < *f {
                    pick = i;
                    break;
                }
                r -= *f;
            }
            a.free_w[pick] -= 1;
            a.w_lo + pick as u32
        };
        let business = self.driver.gen.business_txn(home_w);
        let mut node = route_node(
            home_w,
            self.warehouses,
            self.cfg.nodes,
            self.cfg.affinity,
            &mut self.rng,
        );
        // Failover: a crashed home node reroutes to the next live one.
        if !self.alive[node as usize] {
            for off in 1..self.cfg.nodes {
                let cand = (node + off) % self.cfg.nodes;
                if self.alive[cand as usize] {
                    node = cand;
                    break;
                }
            }
        }
        let s = &mut self.driver.sessions[slot as usize];
        s.home_w = home_w;
        s.node = node;
        s.agg_home = Some(k);
        s.queue_delay = queue_delay;
        s.queue = business.txns.into();
        s.inflight = None;
        s.conn = None;
        self.agg_bind_conn(k, node, slot);
    }

    /// Bind a pooled connection from population `k` to node `target`
    /// for session slot `slot`, reusing an idle pooled connection when
    /// one exists and opening a long-lived one otherwise. While bound
    /// the connection is tagged `ConnKind::Client` so responses and
    /// resets route by session; released connections revert to
    /// `ConnKind::ClientPool`.
    fn agg_bind_conn(&mut self, k: u32, target: u32, slot: u32) {
        let pool = &mut self.driver.pools[k as usize][target as usize];
        let idx = pool
            .iter()
            .position(|c| c.busy.is_none() && c.established)
            .or_else(|| pool.iter().position(|c| c.busy.is_none()));
        if let Some(i) = idx {
            let c = &mut pool[i];
            c.busy = Some(slot);
            let (conn, established) = (c.conn, c.established);
            self.fabric
                .conn_info
                .insert(conn, ConnKind::Client { session: slot });
            self.driver.sessions[slot as usize].conn = Some(conn);
            if established {
                self.client_send_next(slot);
            }
            return;
        }
        let client_host = self.driver.sessions[slot as usize].client_host;
        let server_host = self.nodes[target as usize].host;
        let cfg = self.tcp_config(true);
        let conn = self.with_net(|net, ob| {
            net.open_connection(client_host, server_host, Dscp::BestEffort, cfg, ob)
        });
        self.driver.pools[k as usize][target as usize].push(AggConn {
            conn,
            established: false,
            busy: Some(slot),
        });
        self.fabric
            .conn_info
            .insert(conn, ConnKind::Client { session: slot });
        self.driver.sessions[slot as usize].conn = Some(conn);
        // on_established sends the first request once the handshake ends.
    }

    /// Release slot `slot`'s pooled connection back to `(k, target)`'s
    /// pool without closing it.
    pub(crate) fn agg_release_conn(&mut self, k: u32, target: u32, conn: ConnId) {
        if let Some(c) = self.driver.pools[k as usize][target as usize]
            .iter_mut()
            .find(|c| c.conn == conn)
        {
            c.busy = None;
        }
        self.fabric
            .conn_info
            .insert(conn, ConnKind::ClientPool { home: k, target });
    }

    /// Allocate a session slot: recycle a freed one, else append a
    /// fresh one to the session table.
    fn agg_alloc_slot(&mut self) -> u32 {
        if let Some(id) = self.driver.free_slots.pop() {
            return id;
        }
        let sessions = &mut self.driver.sessions;
        let hosts = &self.fabric.client_hosts;
        let id = sessions.len();
        sessions.push(ClientSession {
            home_w: 1,
            client_host: hosts[id % hosts.len()],
            node: 0,
            conn: None,
            queue: VecDeque::new(),
            inflight: None,
            agg_home: None,
            queue_delay: Duration::ZERO,
        });
        id as u32
    }

    /// Recycle a finished aggregate session slot. The slot's fields are
    /// neutralized so stale in-flight notifications for the old binding
    /// fall through the `conn`/`inflight` guards.
    pub(crate) fn agg_free_slot(&mut self, slot: u32) {
        let s = &mut self.driver.sessions[slot as usize];
        s.agg_home = None;
        s.conn = None;
        s.inflight = None;
        s.queue.clear();
        s.queue_delay = Duration::ZERO;
        self.driver.free_slots.push(slot);
    }

    /// A ramp-up tick: move `count` terminals of population `k` from
    /// dormant to thinking and refresh the wake timer at the new rate
    /// (re-sampling the pending arrival at the higher rate is exact by
    /// memorylessness of the superposed process).
    pub(crate) fn agg_activate(&mut self, k: u32, count: u64) {
        {
            let a = &mut self.driver.agg[k as usize];
            debug_assert!(a.dormant >= count, "over-activated population {k}");
            a.dormant -= count;
            a.thinking += count;
        }
        self.agg_arm_wake(k);
        self.agg_check_invariant(k);
    }

    #[inline]
    fn agg_check_invariant(&self, k: u32) {
        let a = &self.driver.agg[k as usize];
        debug_assert_eq!(
            a.population,
            a.dormant + a.thinking + a.head.is_some() as u64 + a.inflight,
            "aggregate closed-loop invariant violated on node {k}"
        );
        debug_assert_eq!(
            a.free_w.iter().sum::<u64>(),
            a.population - a.inflight,
            "aggregate per-warehouse stratification drifted on node {k}"
        );
        debug_assert!(
            a.population == 0 || a.free_w.len() == (a.w_hi - a.w_lo + 1) as usize,
            "aggregate warehouse table sized off the node span on node {k}"
        );
    }

    // ------------------------------------------------------------------
    // Client sessions
    // ------------------------------------------------------------------

    pub(crate) fn client_begin(&mut self, session: u32) {
        let (home_w, client_host) = {
            let s = &self.driver.sessions[session as usize];
            (s.home_w, s.client_host)
        };
        let business = self.driver.gen.business_txn(home_w);
        let mut node = route_node(
            home_w,
            self.warehouses,
            self.cfg.nodes,
            self.cfg.affinity,
            &mut self.rng,
        );
        // Failover: a crashed home node reroutes to the next live one.
        if !self.alive[node as usize] {
            for off in 1..self.cfg.nodes {
                let cand = (node + off) % self.cfg.nodes;
                if self.alive[cand as usize] {
                    node = cand;
                    break;
                }
            }
        }
        let cfg = self.tcp_config(false);
        let server_host = self.nodes[node as usize].host;
        let conn = self.with_net(|net, ob| {
            net.open_connection(client_host, server_host, Dscp::BestEffort, cfg, ob)
        });
        self.fabric
            .conn_info
            .insert(conn, ConnKind::Client { session });
        let s = &mut self.driver.sessions[session as usize];
        s.node = node;
        s.conn = Some(conn);
        s.queue = business.txns.into();
        s.inflight = None;
    }

    pub(crate) fn client_send_next(&mut self, session: u32) {
        let s = &mut self.driver.sessions[session as usize];
        let Some(conn) = s.conn else { return };
        let Some(input) = s.queue.pop_front() else {
            if let Some(k) = s.agg_home {
                // Aggregate model: business transaction complete —
                // release the pooled connection (kept open for the next
                // terminal), recycle the session slot, and return the
                // terminal to its population's think pool.
                let node = s.node;
                let home_w = s.home_w;
                s.conn = None;
                self.agg_release_conn(k, node, conn);
                self.agg_free_slot(session);
                self.agg_return_terminal(k, home_w);
                return;
            }
            // Business transaction complete: close and think.
            self.with_net(|net, ob| {
                net.close_connection(conn, Side::Opener, ob);
                net.close_connection(conn, Side::Acceptor, ob);
            });
            self.driver.sessions[session as usize].conn = None;
            let delay = self.rng.exponential(self.cfg.think_time);
            self.heap
                .push(self.now + delay, Ev::ClientThink { session });
            return;
        };
        s.inflight = Some(input);
        self.send_client_msg(
            conn,
            Side::Opener,
            MsgTag::ClientReq { session },
            CLIENT_REQ_BYTES,
        );
    }

    pub(crate) fn client_got_response(&mut self, session: u32) {
        self.client_send_next(session);
    }

    /// Called by the engine when a transaction finished: respond to the
    /// waiting client.
    pub(crate) fn reply_to_client(&mut self, node: u32, session: u32) {
        let Some(conn) = self.driver.sessions[session as usize].conn else {
            return;
        };
        let bytes = CLIENT_RESP_BYTES;
        let instr = self.paths.client_resp_build + self.paths.send_instr(bytes);
        self.charge_then(node, instr, Action::Nop);
        self.send_client_msg(conn, Side::Acceptor, MsgTag::ClientResp { session }, bytes);
    }

    // ------------------------------------------------------------------
    // FTP cross traffic
    // ------------------------------------------------------------------

    pub(crate) fn ftp_next(&mut self, pair: u32) {
        let (gap, transfer) = self.driver.ftp_pairs[pair as usize]
            .generator
            .next_transfer();
        self.heap.push(self.now + gap, Ev::FtpNext { pair });
        // Connection admission control: refuse the transfer outright
        // when the concurrent-transfer budget is exhausted.
        if let Some(cap) = self.cfg.ftp_max_concurrent {
            let p = &mut self.driver.ftp_pairs[pair as usize];
            if p.active >= cap {
                p.denied += 1;
                return;
            }
        }
        // Token-bucket shaping: push the transfer's start back until the
        // bucket holds its bytes.
        if let Some(pol) = self.cfg.ftp_policer {
            let now = self.now;
            let p = &mut self.driver.ftp_pairs[pair as usize];
            let dt = now.since(p.tokens_at).as_secs_f64();
            p.tokens = (p.tokens + dt * pol.rate_bps / 8.0).min(pol.burst_bytes);
            p.tokens_at = now;
            let need = transfer.bytes() as f64;
            if p.tokens < need {
                // Not enough credit: drop this transfer (a shaper would
                // queue it; at sustained overload that queue is
                // unbounded, so policing = drop is the stable choice).
                p.denied += 1;
                return;
            }
            p.tokens -= need;
        }
        self.driver.ftp_pairs[pair as usize].active += 1;
        let (client, server) = {
            let p = &self.driver.ftp_pairs[pair as usize];
            (p.client, p.server)
        };
        let dscp = match self.cfg.qos {
            QosPolicy::FtpPriority | QosPolicy::FtpWfq { .. } | QosPolicy::Autonomic { .. } => {
                Dscp::Af21
            }
            QosPolicy::AllBestEffort => Dscp::BestEffort,
        };
        let cfg = self.tcp_config(false);
        let conn = self.with_net(|net, ob| net.open_connection(client, server, dscp, cfg, ob));
        self.fabric.conn_info.insert(conn, ConnKind::Ftp { pair });
        // Queue the payload immediately; TCP sends it once established.
        let (side, bytes) = match transfer {
            FtpTransfer::Put { bytes } => (Side::Opener, bytes),
            FtpTransfer::Get { bytes } => (Side::Acceptor, bytes),
        };
        let id = MsgId(self.fabric.next_msg);
        self.fabric.next_msg += 1;
        self.fabric
            .msg_tags
            .insert(id, (conn, MsgTag::FtpFile { pair }));
        self.with_net(|net, ob| net.send_message(conn, side, id, bytes, ob));
    }
}
