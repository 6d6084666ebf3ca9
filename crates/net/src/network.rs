//! The assembled network: topology, routing and the event loop glue.
//!
//! [`NetworkBuilder`] constructs the lata/outer-router topology of the
//! paper (or any point-to-point graph), computes static shortest-path
//! routes, and yields a [`Network`]. The network is a pure state machine:
//! [`Network::handle`] processes one [`NetEvent`] and emits follow-ups and
//! [`NetNote`]s through the caller's outbox. Applications inject traffic
//! with [`Network::open_connection`] / [`Network::send_message`] /
//! [`Network::close_connection`].

use crate::device::{Discipline, HostPort, Link, PortPolicy, Router, TxPort};
use crate::packet::{Dscp, Packet};
use crate::tcp::{Connection, Flags, Segment, TcpAppNote, TcpConfig, TcpOut, TimerKind};
use crate::types::{ConnId, DeviceId, HostId, LinkId, MsgId, NetEvent, NetNote, Side};
use dclue_sim::{FxHashMap, Outbox};

type NetOutbox = Outbox<NetEvent, NetNote>;

/// Stable key for a connection's keyed single-shot timers in the
/// [`dclue_sim::EventHeap`] wheel. Five timers per connection; the
/// engine layer above reserves keys with bit 60 set, so these never
/// collide with it.
#[inline]
fn timer_key(conn: ConnId, kind: TimerKind) -> u64 {
    let k = match kind {
        TimerKind::Rtx(Side::Opener) => 0,
        TimerKind::Rtx(Side::Acceptor) => 1,
        TimerKind::DelAck(Side::Opener) => 2,
        TimerKind::DelAck(Side::Acceptor) => 3,
        TimerKind::Conn => 4,
    };
    conn.0 as u64 * 8 + k
}

/// A segment may join a train only if it is indistinguishable from a
/// steady-state bulk data segment: full-size, plain ACK flags, no CWR
/// (a one-shot signal pinned to a specific segment) and no SACK
/// information to deliver. An ECE echo is allowed — it is a level
/// signal repeated on every outgoing segment until the peer answers
/// with CWR, so a run sharing the same `ece` value coalesces
/// losslessly (the run condition enforces the match).
#[inline]
fn train_eligible(s: &Segment, mss: u64) -> bool {
    s.len == mss && s.flags == Flags::ACK && !s.cwr && s.sack.is_empty()
}

/// Expand a train packet back into its member segments. The members are
/// reconstructed exactly as the sender emitted them before coalescing:
/// contiguous full-size segments sharing one ACK field.
fn split_train(p: &Packet) -> impl Iterator<Item = Packet> + '_ {
    let k = p.train.max(1) as u64;
    let mss = p.seg.len / k;
    (0..k).map(move |j| {
        let mut q = p.clone();
        q.train = 1;
        q.seg.seq = p.seg.seq + j * mss;
        q.seg.len = mss;
        q
    })
}

/// Longest train the coalescer will fuse — a receive window's worth of
/// full-size segments, i.e. the largest back-to-back burst a sender can
/// emit in one dispatch. A train's members arrive (and are cumulatively
/// ACKed) together, so this also bounds the ACK compression a train can
/// induce at the receiver — the main statistical deviation of train
/// mode from segment-exact timing.
const TRAIN_MAX: u16 = 64;

/// Default queue capacity (packets) for host NIC ports.
const HOST_QUEUE_CAP: usize = 1024;
/// Default per-class queue capacity (packets) for router output ports.
const ROUTER_QUEUE_CAP: usize = 96;
/// ECN marking threshold (packets in the class queue).
const ECN_THRESH: usize = 48;

struct ConnEntry {
    conn: Connection,
    /// `[opener, acceptor]` hosts.
    hosts: [HostId; 2],
    dscp: Dscp,
    ecn: bool,
}

/// The assembled fabric.
pub struct Network {
    links: Vec<Link>,
    routers: Vec<Router>,
    host_ports: Vec<HostPort>,
    conns: FxHashMap<ConnId, ConnEntry>,
    next_conn: u32,
    /// Dead connections to reap after the current dispatch.
    graveyard: Vec<ConnId>,
    /// Aggregate count of packets that arrived at a host that was not the
    /// destination (indicates a routing bug; must stay zero).
    pub misrouted: u64,
    /// Drops/corruptions from loss windows that have already been
    /// cleared (the per-link counters die with the window).
    retired_loss: u64,
    /// Recycled [`TcpOut`] buffers: every dispatch takes this, fills it,
    /// and `absorb_tcp` puts it back cleared — no per-event allocation.
    scratch: TcpOut,
    /// Segment-train fast path enabled (statistical mode; see
    /// `train_eligible` and `Connection::train_ok`).
    train_mode: bool,
    /// Train-mode telemetry, cumulative over the run.
    pub train_stats: TrainStats,
}

/// Counters for the segment-train fast path (all zero in exact mode).
#[derive(Debug, Default, Clone, Copy)]
pub struct TrainStats {
    /// Trains of length > 1 built by the coalescer.
    pub built: u64,
    /// Member segments riding in those trains.
    pub members: u64,
    /// Trains split back into members at a queueing/marking point.
    pub splits: u64,
    /// Full-size bulk data segments seen by the coalescer (train-mode
    /// only; the denominator for the coalescing rate).
    pub bulk_segs: u64,
    /// Bulk segments that could not coalesce because the connection
    /// state failed [`Connection::train_ok`] at emission time.
    pub gate_rejected: u64,
}

impl Network {
    // ------------------------------------------------------------------
    // Application-facing API
    // ------------------------------------------------------------------

    /// Open a TCP connection from `opener` to `acceptor`. The SYN goes out
    /// immediately; an [`NetNote::Established`] follows when the handshake
    /// completes.
    pub fn open_connection(
        &mut self,
        opener: HostId,
        acceptor: HostId,
        dscp: Dscp,
        cfg: TcpConfig,
        ob: &mut NetOutbox,
    ) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        let ecn = cfg.ecn;
        let mut conn = Connection::new(id, cfg);
        let mut out = std::mem::take(&mut self.scratch);
        conn.open(ob.now(), &mut out);
        self.conns.insert(
            id,
            ConnEntry {
                conn,
                hosts: [opener, acceptor],
                dscp,
                ecn,
            },
        );
        self.absorb_tcp(id, out, ob);
        id
    }

    /// Queue a framed message on an open connection.
    pub fn send_message(
        &mut self,
        conn: ConnId,
        side: Side,
        msg: MsgId,
        bytes: u64,
        ob: &mut NetOutbox,
    ) {
        let Some(entry) = self.conns.get_mut(&conn) else {
            return;
        };
        let mut out = std::mem::take(&mut self.scratch);
        entry.conn.send_msg(side, msg, bytes, ob.now(), &mut out);
        self.absorb_tcp(conn, out, ob);
    }

    /// Begin a graceful close from `side`.
    pub fn close_connection(&mut self, conn: ConnId, side: Side, ob: &mut NetOutbox) {
        let Some(entry) = self.conns.get_mut(&conn) else {
            return;
        };
        let mut out = std::mem::take(&mut self.scratch);
        entry.conn.close(side, ob.now(), &mut out);
        self.absorb_tcp(conn, out, ob);
        self.reap();
    }

    /// Abort a connection (RST).
    pub fn abort_connection(&mut self, conn: ConnId, ob: &mut NetOutbox) {
        let Some(entry) = self.conns.get_mut(&conn) else {
            return;
        };
        let mut out = std::mem::take(&mut self.scratch);
        entry.conn.abort(&mut out);
        self.absorb_tcp(conn, out, ob);
        self.reap();
    }

    /// Bytes queued by `side` but not yet transmitted (diagnostics).
    pub fn backlog(&self, conn: ConnId, side: Side) -> u64 {
        self.conns
            .get(&conn)
            .map(|e| e.conn.backlog(side))
            .unwrap_or(0)
    }

    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// Enable or disable the segment-train fast path. Off by default:
    /// exact mode transmits every segment as its own packet and is
    /// bit-reproducible against the pre-train engine.
    pub fn set_train_mode(&mut self, on: bool) {
        self.train_mode = on;
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Process one network event.
    pub fn handle(&mut self, ev: NetEvent, ob: &mut NetOutbox) {
        match ev {
            NetEvent::Arrive { device, packet } => match device {
                DeviceId::Host(h) => self.host_receive(h, packet, ob),
                DeviceId::Router(r) => self.router_receive(r, packet, ob),
            },
            NetEvent::TxDone { link, forward } => self.tx_done(link, forward, ob),
            NetEvent::ForwardDone { router } => self.forward_done(router, ob),
            NetEvent::RtxTimer { conn, side, gen } => {
                if let Some(entry) = self.conns.get_mut(&conn) {
                    let mut out = std::mem::take(&mut self.scratch);
                    entry.conn.on_rtx_timer(side, gen, ob.now(), &mut out);
                    self.absorb_tcp(conn, out, ob);
                }
            }
            NetEvent::AckTimer { conn, side, gen } => {
                if let Some(entry) = self.conns.get_mut(&conn) {
                    let mut out = std::mem::take(&mut self.scratch);
                    entry.conn.on_ack_timer(side, gen, ob.now(), &mut out);
                    self.absorb_tcp(conn, out, ob);
                }
            }
            NetEvent::ConnTimer { conn, gen } => {
                if let Some(entry) = self.conns.get_mut(&conn) {
                    let mut out = std::mem::take(&mut self.scratch);
                    entry.conn.on_conn_timer(gen, ob.now(), &mut out);
                    self.absorb_tcp(conn, out, ob);
                }
            }
        }
        self.reap();
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn host_receive(&mut self, host: HostId, packet: Packet, ob: &mut NetOutbox) {
        if packet.dst != host {
            self.misrouted += 1;
            return;
        }
        // The fabric may delay or drop segments, never mint them: every
        // arrival at the addressed host must be covered by an emission.
        dclue_trace::invariant::seg_delivered(ob.now().0, packet.train.max(1) as u64);
        let conn_id = packet.seg.conn;
        let Some(entry) = self.conns.get_mut(&conn_id) else {
            return; // stale segment for a reaped connection
        };
        // Which side of the connection is this host?
        let side = if entry.hosts[Side::Acceptor.index()] == host && packet.seg.from == Side::Opener
        {
            Side::Acceptor
        } else {
            Side::Opener
        };
        if packet.seg.len > 0 {
            ob.notify(NetNote::SegmentsReceived {
                host,
                segments: packet.train.max(1) as u32,
                bytes: packet.seg.len,
            });
        }
        let mut out = std::mem::take(&mut self.scratch);
        entry.conn.on_segments(
            side,
            &packet.seg,
            packet.train.max(1),
            packet.ce,
            ob.now(),
            &mut out,
        );
        self.absorb_tcp(conn_id, out, ob);
    }

    fn router_receive(&mut self, router: u32, packet: Packet, ob: &mut NetOutbox) {
        let r = &mut self.routers[router as usize];
        if packet.train > 1 && r.in_service.is_some() && !r.train_fits(&packet) {
            // Input queue too full to take the train whole: its members
            // queue (and overflow) individually, exactly as exact mode
            // would have them.
            self.train_stats.splits += 1;
            dclue_trace::trace_event!(
                Net,
                ob.now().0,
                "train_split_router_input",
                router,
                packet.train
            );
            for p in split_train(&packet) {
                self.router_receive(router, p, ob);
            }
            return;
        }
        let dropped_before = r.stats.input_dropped;
        if r.offer(packet) {
            // An idle engine swallows a whole train in one service
            // event: k back-to-back packets take k service slots.
            let train = r.in_service.as_ref().map_or(1, |p| p.train.max(1));
            ob.schedule(r.service * train as u64, NetEvent::ForwardDone { router });
        }
        let over = r.stats.input_dropped - dropped_before;
        if over > 0 {
            dclue_trace::trace_event!(Net, ob.now().0, "router_input_drop", router, over);
            dclue_trace::invariant::seg_dropped(ob.now().0, over);
        }
    }

    fn forward_done(&mut self, router: u32, ob: &mut NetOutbox) {
        let r = &mut self.routers[router as usize];
        let (done, more) = r.complete();
        if more {
            let train = r.in_service.as_ref().map_or(1, |p| p.train.max(1));
            ob.schedule(r.service * train as u64, NetEvent::ForwardDone { router });
        }
        if let Some(p) = done {
            let route = self.routers[router as usize].routes.get(p.dst);
            match route {
                Some((link, forward)) => self.transmit(link, forward, p, ob),
                None => self.misrouted += 1,
            }
        }
    }

    /// Enqueue a packet on a link's transmit port, starting the
    /// transmitter if idle — or, in train mode on a port whose departure
    /// schedule is fully determined at enqueue time (single FIFO, no
    /// active loss window, healthy rate), commit the transmission
    /// analytically and schedule only the packet's `Arrive`, eliminating
    /// the per-packet `TxDone` event.
    fn transmit(&mut self, link: LinkId, forward: bool, mut p: Packet, ob: &mut NetOutbox) {
        let now = ob.now();
        let virtual_path = {
            let l = &mut self.links[link.0 as usize];
            let ok = self.train_mode
                && l.loss.is_none()
                && l.rate_factor == 1.0
                && l.port(forward).virtual_ready();
            if ok {
                // Retire started transmissions first so the occupancy
                // checks below (train_safe, caps, RED, ECN) see the
                // queue depth the segment-exact engine would.
                l.port(forward).drain_virtual(now);
            }
            ok
        };
        if p.train > 1 {
            // A train stays fused only through hops where queueing it
            // whole is indistinguishable from queueing its members back
            // to back (see `TxPort::train_safe`). An active loss window
            // draws per frame, and a port where any member could be
            // dropped, marked or overtaken mid-train is where those
            // decisions become per-packet — expand back into exact
            // segments there.
            let l = &mut self.links[link.0 as usize];
            let loss_window = l.loss.is_some();
            let split = loss_window || !l.port(forward).train_safe(&p);
            if split {
                self.train_stats.splits += 1;
                if loss_window {
                    dclue_trace::trace_event!(Net, now.0, "train_split_loss", link.0, p.train);
                } else {
                    dclue_trace::trace_event!(Net, now.0, "train_split_port", link.0, p.train);
                }
                for q in split_train(&p) {
                    self.transmit(link, forward, q, ob);
                }
                return;
            }
        }
        let n = p.train.max(1) as u64;
        let l = &mut self.links[link.0 as usize];
        if virtual_path {
            let tx = l.tx_time(p.wire_bytes());
            let far = l.far(forward);
            let prop = l.propagation;
            let port = l.port(forward);
            let marked_before = port.stats.ecn_marked;
            match port.virtual_admit(&mut p, now, tx) {
                Some(dep) => {
                    if port.stats.ecn_marked > marked_before {
                        dclue_trace::trace_event!(Net, now.0, "ecn_mark", link.0, n);
                    }
                    ob.schedule(
                        (dep - now) + prop,
                        NetEvent::Arrive {
                            device: far,
                            packet: p,
                        },
                    );
                }
                None => {
                    dclue_trace::trace_event!(Net, now.0, "port_drop", link.0, n);
                    dclue_trace::invariant::seg_dropped(now.0, n);
                }
            }
            return;
        }
        // Fault injection: random loss ahead of the queue.
        if let Some(loss) = &mut l.loss {
            if loss.drop_prob > 0.0 && loss.rng.chance(loss.drop_prob) {
                loss.dropped += 1;
                dclue_trace::trace_event!(Net, now.0, "loss_drop", link.0, n);
                dclue_trace::invariant::seg_dropped(now.0, n);
                return;
            }
        }
        let port = l.port(forward);
        let marked_before = port.stats.ecn_marked;
        if !port.enqueue(p) {
            dclue_trace::trace_event!(Net, now.0, "port_drop", link.0, n);
            dclue_trace::invariant::seg_dropped(now.0, n);
            return; // tail-dropped
        }
        if port.stats.ecn_marked > marked_before {
            dclue_trace::trace_event!(Net, now.0, "ecn_mark", link.0, n);
        }
        if !port.busy {
            port.busy = true;
            Self::start_tx(l, link, forward, ob);
        }
    }

    /// Pop the next packet and put it on the wire.
    fn start_tx(l: &mut Link, link: LinkId, forward: bool, ob: &mut NetOutbox) {
        let Some(p) = l.port(forward).dequeue() else {
            l.port(forward).busy = false;
            return;
        };
        let tx = l.tx_time(p.wire_bytes());
        let far = l.far(forward);
        {
            let port = l.port(forward);
            port.stats.bytes_tx += p.wire_bytes();
            port.stats.pkts_tx += p.train.max(1) as u64;
            port.stats.busy += tx;
        }
        // Fault injection: corruption discards the frame at the receiver
        // but the transmission slot (bandwidth) is still consumed.
        dclue_trace::invariant::clock(
            dclue_trace::invariant::Clock::Port,
            link.0 as usize * 2 + usize::from(!forward),
            ob.now().0,
        );
        let corrupted = l.loss.as_mut().is_some_and(|loss| {
            let hit = loss.corrupt_prob > 0.0 && loss.rng.chance(loss.corrupt_prob);
            if hit {
                loss.corrupted += 1;
            }
            hit
        });
        if corrupted {
            dclue_trace::trace_event!(Net, ob.now().0, "corrupt_drop", link.0, p.train.max(1));
            dclue_trace::invariant::seg_dropped(ob.now().0, p.train.max(1) as u64);
        }
        if !corrupted {
            ob.schedule(
                tx + l.propagation,
                NetEvent::Arrive {
                    device: far,
                    packet: p,
                },
            );
        }
        ob.schedule(tx, NetEvent::TxDone { link, forward });
    }

    fn tx_done(&mut self, link: LinkId, forward: bool, ob: &mut NetOutbox) {
        let l = &mut self.links[link.0 as usize];
        Self::start_tx(l, link, forward, ob);
    }

    /// Convert TCP outputs into packets, keyed timer ops and app notes.
    /// Takes the [`TcpOut`] by value and recycles its buffers into
    /// `self.scratch` on the way out.
    fn absorb_tcp(&mut self, conn_id: ConnId, mut out: TcpOut, ob: &mut NetOutbox) {
        let Some(entry) = self.conns.get(&conn_id) else {
            out.clear();
            self.scratch = out;
            return;
        };
        let hosts = entry.hosts;
        let dscp = entry.dscp;
        let ect = entry.ecn;
        let dead = entry.conn.is_dead();
        let mss = entry.conn.mss();
        let train_ok = if self.train_mode {
            [
                entry.conn.train_ok(Side::Opener),
                entry.conn.train_ok(Side::Acceptor),
            ]
        } else {
            [false, false]
        };

        // Superseded timers die first, before any re-arm below — a
        // handler may cancel a key and then re-arm it in one dispatch.
        for kind in out.cancels.drain(..) {
            ob.cancel_timer(timer_key(conn_id, kind));
        }
        let mut i = 0;
        while i < out.segs.len() {
            // Segment-train fast path: coalesce a run of back-to-back
            // full-size bulk segments from one sender into one packet
            // standing for the whole burst.
            let mut train: u16 = 1;
            if self.train_mode && train_eligible(&out.segs[i], mss) {
                self.train_stats.bulk_segs += 1;
                if !train_ok[out.segs[i].from.index()] {
                    self.train_stats.gate_rejected += 1;
                }
            }
            if train_ok[out.segs[i].from.index()] && train_eligible(&out.segs[i], mss) {
                while i + (train as usize) < out.segs.len() && train < TRAIN_MAX {
                    let a = &out.segs[i + train as usize - 1];
                    let b = &out.segs[i + train as usize];
                    if train_eligible(b, mss)
                        && b.from == a.from
                        && b.ack == a.ack
                        && b.ece == a.ece
                        && b.seq == a.seq + a.len
                    {
                        train += 1;
                    } else {
                        break;
                    }
                }
            }
            let mut seg = out.segs[i].clone();
            if train > 1 {
                seg.len = mss * train as u64;
                self.train_stats.built += 1;
                self.train_stats.members += train as u64;
            }
            let src = hosts[seg.from.index()];
            let dst = hosts[seg.from.other().index()];
            let packet = Packet {
                src,
                dst,
                dscp,
                ect,
                ce: false,
                train,
                seg,
            };
            let hp = self.host_ports[src.0 as usize];
            dclue_trace::invariant::seg_emitted(ob.now().0, train.max(1) as u64);
            self.transmit(hp.link, hp.forward, packet, ob);
            i += train as usize;
        }
        for t in out.timers.drain(..) {
            let ev = match t.kind {
                TimerKind::Rtx(side) => NetEvent::RtxTimer {
                    conn: conn_id,
                    side,
                    gen: t.gen,
                },
                TimerKind::DelAck(side) => NetEvent::AckTimer {
                    conn: conn_id,
                    side,
                    gen: t.gen,
                },
                TimerKind::Conn => NetEvent::ConnTimer {
                    conn: conn_id,
                    gen: t.gen,
                },
            };
            ob.arm_timer(timer_key(conn_id, t.kind), t.delay, ev);
        }
        dclue_trace::invariant::clock(
            dclue_trace::invariant::Clock::Conn,
            conn_id.0 as usize,
            ob.now().0,
        );
        for note in out.notes.drain(..) {
            match &note {
                TcpAppNote::Established => {
                    dclue_trace::trace_event!(Net, ob.now().0, "tcp_established", conn_id.0);
                }
                TcpAppNote::Reset => {
                    dclue_trace::trace_event!(Net, ob.now().0, "tcp_reset", conn_id.0);
                }
                TcpAppNote::Closed => {
                    dclue_trace::trace_event!(Net, ob.now().0, "tcp_closed", conn_id.0);
                }
                TcpAppNote::MessageDelivered { .. } => {}
            }
            let n = match note {
                TcpAppNote::Established => NetNote::Established { conn: conn_id },
                TcpAppNote::MessageDelivered {
                    side,
                    msg,
                    bytes,
                    sent_at,
                } => NetNote::MessageDelivered {
                    conn: conn_id,
                    side,
                    msg,
                    bytes,
                    sent_at,
                },
                TcpAppNote::Reset => NetNote::Reset { conn: conn_id },
                TcpAppNote::Closed => NetNote::Closed { conn: conn_id },
            };
            ob.notify(n);
        }
        if dead {
            // Nothing may fire for a reaped connection: cancel all of
            // its keyed timers (after the arms above, which must still
            // consume their sequence numbers for reproducibility).
            for side in [Side::Opener, Side::Acceptor] {
                ob.cancel_timer(timer_key(conn_id, TimerKind::Rtx(side)));
                ob.cancel_timer(timer_key(conn_id, TimerKind::DelAck(side)));
            }
            ob.cancel_timer(timer_key(conn_id, TimerKind::Conn));
            self.graveyard.push(conn_id);
        }
        out.clear();
        self.scratch = out;
    }

    fn reap(&mut self) {
        for id in self.graveyard.drain(..) {
            self.conns.remove(&id);
        }
    }

    // ------------------------------------------------------------------
    // Introspection for experiment harnesses
    // ------------------------------------------------------------------

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn router(&self, id: u32) -> &Router {
        &self.routers[id as usize]
    }

    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// The link a host hangs off.
    pub fn host_uplink(&self, host: HostId) -> LinkId {
        self.host_ports[host.0 as usize].link
    }

    /// Number of links a frame from `from` traverses to reach `to`,
    /// following the same static BFS routes the packet engine uses.
    /// `Some(0)` when `from == to`; `None` when the fabric has no
    /// route. Hierarchical fabrics use this to pin the worst-case path
    /// depth (edge → aggregation → edge) independently of timing.
    pub fn hop_count(&self, from: HostId, to: HostId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let hp = self.host_ports[from.0 as usize];
        let first = &self.links[hp.link.0 as usize];
        let mut hops = 1u32;
        let mut device = first.far(hp.forward);
        for _ in 0..32 {
            match device {
                DeviceId::Host(h) => return (h == to).then_some(hops),
                DeviceId::Router(r) => {
                    let (link, forward) = self.routers[r as usize].routes.get(to)?;
                    hops += 1;
                    device = self.links[link.0 as usize].far(forward);
                }
            }
        }
        None
    }

    /// Update the AF-class weight of every WFQ port in the fabric
    /// (autonomic QoS control). Ports with other disciplines ignore it.
    pub fn set_af_weight(&mut self, w: f64) {
        for l in &mut self.links {
            l.ports[0].set_af_weight(w);
            l.ports[1].set_af_weight(w);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Fail or restore both directions of a link (cable pull / link
    /// flap). Failing flushes queued packets; traffic in flight on the
    /// wire still arrives. TCP recovers by retransmission once the link
    /// comes back, or resets the connection after `max_retrans`.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let l = &mut self.links[id.0 as usize];
        let flushed = if up {
            0
        } else {
            l.ports[0].queued() + l.ports[1].queued()
        };
        l.ports[0].set_failed(!up);
        l.ports[1].set_failed(!up);
        if !up {
            // The fault edge itself is traced by the caller (which
            // knows the simulation clock); only the drop accounting
            // happens here.
            dclue_trace::invariant::seg_dropped(0, flushed as u64);
        }
    }

    /// Fail or restore a single transmit direction — an individual
    /// router or NIC port dying while the reverse path stays healthy.
    pub fn set_port_failed(&mut self, id: LinkId, forward: bool, failed: bool) {
        let port = self.links[id.0 as usize].port(forward);
        let flushed = if failed { port.queued() } else { 0 };
        port.set_failed(failed);
        if failed {
            dclue_trace::invariant::seg_dropped(0, flushed as u64);
        }
    }

    /// Degrade (or restore, with 1.0) a link's effective service rate.
    pub fn set_link_rate_factor(&mut self, id: LinkId, factor: f64) {
        self.links[id.0 as usize].rate_factor = factor.clamp(1e-6, 1.0);
    }

    /// Begin a random loss/corruption window on a link. Draws come from
    /// a dedicated stream seeded by `seed`, so runs stay reproducible.
    pub fn set_link_loss(&mut self, id: LinkId, drop_prob: f64, corrupt_prob: f64, seed: u64) {
        self.links[id.0 as usize].loss = Some(crate::device::LinkLoss {
            drop_prob: drop_prob.clamp(0.0, 1.0),
            corrupt_prob: corrupt_prob.clamp(0.0, 1.0),
            rng: dclue_sim::SimRng::new(seed),
            dropped: 0,
            corrupted: 0,
        });
    }

    /// End any loss window on the link.
    pub fn clear_link_loss(&mut self, id: LinkId) {
        if let Some(loss) = self.links[id.0 as usize].loss.take() {
            self.retired_loss += loss.dropped + loss.corrupted;
        }
    }

    /// Whether both directions of a link are currently up.
    pub fn link_is_up(&self, id: LinkId) -> bool {
        let l = &self.links[id.0 as usize];
        !l.ports[0].failed && !l.ports[1].failed
    }

    /// Total packets discarded by fault injection across the fabric:
    /// frames dropped at failed ports plus loss-window drops and
    /// corruptions.
    pub fn fault_drops(&self) -> u64 {
        self.links
            .iter()
            .map(|l| {
                let ports = l.ports[0].stats.fault_dropped + l.ports[1].stats.fault_dropped;
                let loss = l
                    .loss
                    .as_ref()
                    .map_or(0, |loss| loss.dropped + loss.corrupted);
                ports + loss
            })
            .sum::<u64>()
            + self.retired_loss
    }
}

/// Incrementally describes a topology, then computes routes.
pub struct NetworkBuilder {
    hosts: Vec<Option<(u32, f64, dclue_sim::Duration)>>, // (router, bw, prop)
    routers: Vec<(f64, PortPolicy)>,                     // (fwd rate pps, policy)
    router_links: Vec<(u32, u32, f64, dclue_sim::Duration)>,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    pub fn new() -> Self {
        NetworkBuilder {
            hosts: Vec::new(),
            routers: Vec::new(),
            router_links: Vec::new(),
        }
    }

    /// Add a router with the given forwarding rate (packets/second) and
    /// the default FIFO/tail-drop port policy.
    pub fn router(&mut self, forwarding_rate_pps: f64, qos: bool) -> u32 {
        let policy = PortPolicy {
            discipline: if qos {
                Discipline::Priority
            } else {
                Discipline::Fifo
            },
            drop: Default::default(),
        };
        self.router_with_policy(forwarding_rate_pps, policy)
    }

    /// Add a router with an explicit output-port policy (WFQ, RED, ...).
    pub fn router_with_policy(&mut self, forwarding_rate_pps: f64, policy: PortPolicy) -> u32 {
        self.routers.push((forwarding_rate_pps, policy));
        (self.routers.len() - 1) as u32
    }

    /// Add a host attached to `router` over a link with the given
    /// bandwidth (bit/s) and propagation delay.
    pub fn host(
        &mut self,
        router: u32,
        bandwidth_bps: f64,
        propagation: dclue_sim::Duration,
    ) -> HostId {
        self.hosts.push(Some((router, bandwidth_bps, propagation)));
        HostId((self.hosts.len() - 1) as u32)
    }

    /// Connect two routers.
    pub fn trunk(&mut self, a: u32, b: u32, bandwidth_bps: f64, propagation: dclue_sim::Duration) {
        self.router_links.push((a, b, bandwidth_bps, propagation));
    }

    /// Freeze the topology: create links, run BFS per router to build
    /// next-hop tables, and return the network.
    pub fn build(self) -> Network {
        let nr = self.routers.len();
        let mut links: Vec<Link> = Vec::new();
        let mut host_ports: Vec<HostPort> = Vec::new();
        let mut routers: Vec<Router> = self
            .routers
            .iter()
            .enumerate()
            .map(|(i, &(rate, policy))| Router::new(i as u32, rate, policy))
            .collect();

        // Adjacency among routers: (neighbor, link, forward-from-self).
        let mut adj: Vec<Vec<(u32, LinkId, bool)>> = vec![Vec::new(); nr];
        // Hosts directly attached to each router.
        let mut attached: Vec<Vec<(HostId, LinkId, bool)>> = vec![Vec::new(); nr];

        for (hi, spec) in self.hosts.iter().enumerate() {
            let (r, bw, prop) = spec.expect("host spec");
            let host = HostId(hi as u32);
            let id = LinkId(links.len() as u32);
            let policy = routers[r as usize].policy;
            links.push(Link {
                id,
                a: DeviceId::Host(host),
                b: DeviceId::Router(r),
                bandwidth_bps: bw,
                propagation: prop,
                rate_factor: 1.0,
                loss: None,
                ports: [
                    // host -> router: host NIC FIFO
                    TxPort::new(Discipline::Fifo, HOST_QUEUE_CAP, ECN_THRESH),
                    // router -> host: router output port
                    TxPort::with_drop_policy(
                        policy.discipline,
                        ROUTER_QUEUE_CAP,
                        ECN_THRESH,
                        policy.drop,
                    ),
                ],
            });
            host_ports.push(HostPort {
                link: id,
                forward: true,
            });
            attached[r as usize].push((host, id, false)); // router sends "backward"
        }

        for &(a, b, bw, prop) in &self.router_links {
            let id = LinkId(links.len() as u32);
            let pa = routers[a as usize].policy;
            let pb = routers[b as usize].policy;
            links.push(Link {
                id,
                a: DeviceId::Router(a),
                b: DeviceId::Router(b),
                bandwidth_bps: bw,
                propagation: prop,
                rate_factor: 1.0,
                loss: None,
                ports: [
                    TxPort::with_drop_policy(pa.discipline, ROUTER_QUEUE_CAP, ECN_THRESH, pa.drop),
                    TxPort::with_drop_policy(pb.discipline, ROUTER_QUEUE_CAP, ECN_THRESH, pb.drop),
                ],
            });
            adj[a as usize].push((b, id, true));
            adj[b as usize].push((a, id, false));
        }

        // Routes: for each router, BFS over the router graph to find the
        // first hop towards every other router; hosts map to the route of
        // their attachment router (or the direct link).
        for r in 0..nr {
            // Direct hosts.
            for &(host, link, forward) in &attached[r] {
                routers[r].routes.insert(host, (link, forward));
            }
            // BFS.
            let mut first_hop: Vec<Option<(LinkId, bool)>> = vec![None; nr];
            let mut visited = vec![false; nr];
            let mut queue = std::collections::VecDeque::new();
            visited[r] = true;
            for &(n, link, fwd) in &adj[r] {
                if !visited[n as usize] {
                    visited[n as usize] = true;
                    first_hop[n as usize] = Some((link, fwd));
                    queue.push_back(n as usize);
                }
            }
            while let Some(u) = queue.pop_front() {
                for &(n, _link, _fwd) in &adj[u] {
                    if !visited[n as usize] {
                        visited[n as usize] = true;
                        first_hop[n as usize] = first_hop[u];
                        queue.push_back(n as usize);
                    }
                }
            }
            for (other, hop) in first_hop.iter().enumerate() {
                if let Some(hop) = hop {
                    for &(host, _, _) in &attached[other] {
                        routers[r].routes.insert(host, *hop);
                    }
                }
            }
        }

        Network {
            links,
            routers,
            host_ports,
            conns: FxHashMap::default(),
            next_conn: 0,
            graveyard: Vec::new(),
            misrouted: 0,
            retired_loss: 0,
            scratch: TcpOut::new(),
            train_mode: false,
            train_stats: TrainStats::default(),
        }
    }
}
