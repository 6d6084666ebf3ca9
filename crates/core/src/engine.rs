//! The transaction engine: plan → pages → locks → apply → commit, plus
//! the cache-fusion, distributed-lock and iSCSI protocol handlers.
//!
//! A transaction *computes until it genuinely blocks*: all CPU work
//! between two blocking points (page fault, remote lock round trip,
//! queued lock, log write) accumulates into one burst, exactly like a
//! DB worker thread that runs until it must sleep. Each block is a real
//! context switch — the only kind the platform model charges — so the
//! per-transaction switch count reflects waits, not code structure.
//! Those waits are what extra worker threads hide, until the processor
//! cache starts thrashing: the paper's central feedback loop.

use crate::components::platform::Action;
use crate::config::StorageMode;
use crate::ipc::{IpcMsg, LockWire};
use crate::node::PendingPage;
use crate::world::{Block, Cursor, Ev, Phase, Txn, World};
use dclue_db::database::WH_PAGE_SPAN;
use dclue_db::lock::{LockOutcome, ResourceId};
use dclue_db::{PageKey, Table};
use dclue_sim::{Duration, Outbox};
use dclue_storage::DiskRequest;
use dclue_workload::tpcc_gen::home_node;

/// Safety timeout for queued lock waits (scaled time). The two-phase
/// scheme queues only on the first lock of an operation, but cross-
/// operation hold-and-wait can still cycle; the timeout converts such
/// cycles into release-and-retry.
const LOCK_WAIT_TIMEOUT: Duration = Duration::from_secs(3);

/// Keyed-timer key for a transaction's lock-wait safety timeout. Bit 60
/// keeps the space disjoint from the TCP timer keys the network layer
/// derives from connection ids (well below 2^35).
#[inline]
fn lock_key(txn: u64) -> u64 {
    (1u64 << 60) | txn
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl World {
    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Directory / lock-master / disk-home node of a page. Partitioned
    /// tables map to the node owning their warehouse, so a perfectly
    /// affine workload needs almost no IPC (as the paper observes at
    /// α = 1.0); item and history pages hash across the cluster, and
    /// index pages follow the warehouse of their smallest key.
    pub fn page_home(&self, key: PageKey) -> u32 {
        let n = self.cfg.nodes;
        if n <= 1 {
            return 0;
        }
        let table = key.table();
        let hashed = |key: PageKey| {
            (mix64((key.space as u64) << 48 ^ key.page.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % n as u64) as u32
        };
        if matches!(table, Table::Item | Table::History) {
            return hashed(key);
        }
        if key.is_index() {
            let Some(k) = self.db.index(table).min_key(key.page as u32) else {
                return hashed(key);
            };
            let w = match table {
                Table::Warehouse => k,
                Table::District => k / 10,
                Table::Customer => k / 1_000_000,
                Table::Stock => k / 200_000,
                Table::Order | Table::NewOrder => (k >> 24) / 10,
                Table::OrderLine => (k >> 28) / 10,
                _ => return hashed(key),
            } as u32;
            if w == 0 || w > self.warehouses {
                return hashed(key);
            }
            return home_node(w, self.warehouses, n);
        }
        let scale = &self.db.scale;
        let w = match table {
            Table::Order | Table::NewOrder | Table::OrderLine => {
                (key.page / WH_PAGE_SPAN) as u32 + 1
            }
            _ => {
                let rpp = table.rows_per_page();
                let row = key.page * rpp;
                let rows_per_wh: u64 = match table {
                    Table::Warehouse => 1,
                    Table::District => scale.districts_per_wh as u64,
                    Table::Customer => {
                        scale.districts_per_wh as u64 * scale.customers_per_district as u64
                    }
                    Table::Stock => scale.items as u64,
                    _ => 1,
                };
                (row / rows_per_wh.max(1)) as u32 + 1
            }
        };
        home_node(w.clamp(1, self.warehouses), self.warehouses, n)
    }

    /// Lock master of a resource = directory node of its page.
    pub(crate) fn lock_master(&self, res: ResourceId) -> u32 {
        self.page_home(PageKey::data(Table::from_id(res.table), res.page))
    }

    /// Logical block address of a page on its home node's data disks.
    pub fn lba_of(&self, key: PageKey) -> u64 {
        (key.space as u64 * 524_288 + key.page) % self.cfg.disk.blocks
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Begin executing the client request held by `session` on `node`.
    pub(crate) fn start_txn(&mut self, node: u32, session: u32) {
        if !self.alive[node as usize] {
            return; // crashed while the request parse was in flight
        }
        let Some(input) = self.driver.sessions[session as usize].inflight.clone() else {
            return;
        };
        let id = self.next_txn;
        self.next_txn += 1;
        dclue_trace::trace_span!(Db, Begin, self.now.0, "txn", id);
        let queued = {
            let s = &mut self.driver.sessions[session as usize];
            std::mem::replace(&mut s.queue_delay, Duration::ZERO)
        };
        let read_ts = self.db.next_ts();
        let thread = self.nodes[node as usize].cpu.spawn(id, self.now);
        self.nodes[node as usize].resident_txns += 1;
        let prog = dclue_db::tpcc::TxnProgram::new(input);
        let init = self.paths.txn_init;
        self.txns.insert(
            id,
            Txn {
                id,
                node,
                session: Some(session),
                thread,
                prog,
                read_ts,
                phase: Phase::Running,
                cursor: Cursor::NeedPlan,
                acc: init,
                block: None,
                early_grant: None,
                op: None,
                pages: Vec::new(),
                page_idx: 0,
                lock_idx: 0,
                locks_held: Vec::new(),
                masters: Vec::new(),
                wait_gen: 0,
                wait_started: None,
                retries: 0,
                log_bytes: 0,
                started: self.now,
                queued,
            },
        );
        self.advance(id);
    }

    /// Run the transaction forward, accumulating CPU work, until it
    /// discovers its next blocking point; then submit the burst.
    fn advance(&mut self, txn: u64) {
        loop {
            let Some(t) = self.txns.get_mut(&txn) else {
                return;
            };
            match t.cursor {
                Cursor::NeedPlan => match t.prog.plan_next(&self.db) {
                    Some(op) => {
                        t.acc += self.paths.op_plan_instr(&op);
                        let write = op.is_write();
                        let table = op.table;
                        let mut pages =
                            Vec::with_capacity(op.index_pages.len() + op.data_pages.len());
                        for &n in &op.index_pages {
                            pages.push((PageKey::index(table, n), false));
                        }
                        for &p in &op.data_pages {
                            pages.push((PageKey::data(table, p), write));
                        }
                        t.op = Some(op);
                        t.pages = pages;
                        t.page_idx = 0;
                        t.lock_idx = 0;
                        t.cursor = Cursor::Pages;
                    }
                    None => {
                        // Program complete: commit burst, then the log.
                        t.acc += self.paths.txn_commit
                            + self.paths.log_per_kb * t.log_bytes.div_ceil(1024)
                            + self.paths.disk_submit;
                        return self.flush(txn, Block::WriteLog);
                    }
                },
                Cursor::Pages => {
                    let t = self.txns.get_mut(&txn).unwrap();
                    let node = t.node;
                    let mut fault = None;
                    while t.page_idx < t.pages.len() {
                        let (key, exclusive) = t.pages[t.page_idx];
                        if self.nodes[node as usize].buffer.access(key, exclusive) {
                            // Under read leases, a cached snapshot read
                            // is only servable while its lease is live;
                            // an expired one blocks for a renewal round
                            // trip. `leases` is empty under cache
                            // fusion, so that path pays one branch.
                            if !exclusive
                                && !self.leases.is_empty()
                                && self.leases[node as usize]
                                    .get(&key)
                                    .is_some_and(|&expiry| expiry <= self.now)
                            {
                                fault = Some((key, false));
                                break;
                            }
                            t.page_idx += 1;
                        } else {
                            fault = Some((key, exclusive));
                            break;
                        }
                    }
                    match fault {
                        Some((key, exclusive)) => {
                            return self.flush(txn, Block::PageFault { key, exclusive })
                        }
                        None => {
                            let t = self.txns.get_mut(&txn).unwrap();
                            t.cursor = Cursor::Locks;
                        }
                    }
                }
                Cursor::Locks => {
                    let t = self.txns.get_mut(&txn).unwrap();
                    let node = t.node;
                    let op = t.op.as_ref().expect("op planned");
                    if t.lock_idx >= op.locks.len() {
                        // All locks held: apply the mutation.
                        if self.apply_current(txn) {
                            let t = self.txns.get_mut(&txn).unwrap();
                            t.cursor = Cursor::NeedPlan;
                            continue;
                        }
                        return; // aborted (flush issued inside)
                    }
                    let res = op.locks[t.lock_idx];
                    let queue = t.lock_idx == 0;
                    let master = self.lock_master(res);
                    let t = self.txns.get_mut(&txn).unwrap();
                    if !t.masters.contains(&master) {
                        t.masters.push(master);
                    }
                    if master != node {
                        return self.flush(txn, Block::SendLockReq { res, master, queue });
                    }
                    let protocol = self.protocol;
                    let outcome = protocol.try_lock(self, node, txn, res, queue);
                    match outcome {
                        LockOutcome::Granted => {
                            let lock_op = self.paths.lock_op;
                            let t = self.txns.get_mut(&txn).unwrap();
                            t.acc += lock_op;
                            t.locks_held.push((master, res));
                            t.lock_idx += 1;
                        }
                        LockOutcome::Queued => {
                            dclue_trace::trace_event!(Db, self.now.0, "lock_wait", txn, res.page);
                            dclue_trace::metric_add!("db.lock_waits", 1);
                            if self.measuring {
                                self.collect.lock_waits += 1;
                            }
                            let t = self.txns.get_mut(&txn).unwrap();
                            t.wait_started = Some(self.now);
                            t.wait_gen += 1;
                            let gen = t.wait_gen;
                            self.heap.arm_timer(
                                lock_key(txn),
                                self.now + LOCK_WAIT_TIMEOUT,
                                Ev::LockWaitTimeout { txn, gen },
                            );
                            return self.flush(txn, Block::WaitQueuedLock { res, master });
                        }
                        LockOutcome::Busy => {
                            if self.measuring {
                                self.collect.lock_busies += 1;
                            }
                            return self.flush(txn, Block::FailRetry);
                        }
                    }
                }
            }
        }
    }

    /// Apply the current operation. Returns false if the txn aborted
    /// (rollback), in which case the finishing flush was issued.
    fn apply_current(&mut self, txn: u64) -> bool {
        let t = self.txns.get_mut(&txn).unwrap();
        let read_ts = t.read_ts;
        let outcome = t.prog.apply_current(&mut self.db, read_ts);
        t.log_bytes += outcome.log_bytes;
        if self.measuring {
            self.collect.version_walks += outcome.version_walks as u64;
        }
        let op = t.op.as_ref().expect("op planned");
        let mut instr = self.paths.op_apply_instr(op, outcome.versions);
        if self.cfg.mvcc {
            instr += self.paths.version_walk * outcome.version_walks as u64;
        }
        t.acc += instr;
        if outcome.aborted {
            self.flush(txn, Block::Finish { aborted: true });
            return false;
        }
        true
    }

    /// Submit the accumulated burst; `block` runs when it retires.
    fn flush(&mut self, txn: u64, block: Block) {
        let t = self.txns.get_mut(&txn).unwrap();
        t.phase = Phase::Running;
        t.block = Some(block);
        let instr = std::mem::take(&mut t.acc).max(1);
        let thread = t.thread;
        let node = t.node;
        self.with_cpu(node, |cpu, ob| cpu.submit(thread, instr, ob));
    }

    /// The accumulated burst retired; perform the blocking action.
    pub(crate) fn on_burst_done(&mut self, txn: u64) {
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        let Some(block) = t.block.take() else {
            return;
        };
        let node = t.node;
        match block {
            Block::PageFault { key, exclusive } => {
                t.phase = Phase::WaitPage;
                self.page_miss(node, txn, key, exclusive);
            }
            Block::SendLockReq { res, master, queue } => {
                t.phase = Phase::WaitLockRemote;
                // Safety net: a lost response (e.g. an injected IPC
                // reset) must not strand the transaction.
                t.wait_gen += 1;
                let gen = t.wait_gen;
                self.heap.arm_timer(
                    lock_key(txn),
                    self.now + LOCK_WAIT_TIMEOUT,
                    Ev::LockWaitTimeout { txn, gen },
                );
                self.send_ipc(
                    node,
                    master,
                    IpcMsg::LockReq {
                        txn,
                        res,
                        queue_if_busy: queue,
                    },
                );
            }
            Block::WaitQueuedLock { res, master } => {
                if t.early_grant.take() == Some(res) {
                    // Granted while the burst was still running.
                    t.locks_held.push((master, res));
                    t.lock_idx += 1;
                    t.wait_gen += 1;
                    self.heap.cancel_timer(lock_key(txn));
                    t.wait_started = None;
                    self.advance(txn);
                } else {
                    t.phase = Phase::WaitLockQueued;
                }
            }
            Block::FailRetry => self.fail_and_retry(txn),
            Block::WriteLog => {
                // Commit ordering is the protocol's decision.
                let protocol = self.protocol;
                protocol.commit(self, txn);
            }
            Block::Finish { aborted } => self.finish_txn(txn, aborted),
        }
    }

    // ------------------------------------------------------------------
    // Cache fusion / paging
    // ------------------------------------------------------------------

    fn page_miss(&mut self, node: u32, txn: u64, key: PageKey, exclusive: bool) {
        let now = self.now;
        let pend = &mut self.nodes[node as usize].pending_pages;
        if let Some(p) = pend.get_mut(&key) {
            p.waiters.push(txn);
            return; // protocol already in flight
        }
        pend.insert(
            key,
            PendingPage {
                since: now,
                waiters: vec![txn],
                exclusive,
            },
        );
        let protocol = self.protocol;
        protocol.drive_page(self, node, key, txn, exclusive);
    }

    /// (Re)issue the coherence protocol for a registered pending page
    /// (also used by the staleness sweep after connection resets).
    pub(crate) fn redrive_page(&mut self, node: u32, key: PageKey, txn: u64) {
        let exclusive = self.nodes[node as usize]
            .pending_pages
            .get(&key)
            .map(|p| p.exclusive)
            .unwrap_or(true);
        let protocol = self.protocol;
        protocol.drive_page(self, node, key, txn, exclusive);
    }

    /// A page arrived (coherence transfer, local read or iSCSI read):
    /// install it, let the protocol register the residency, resume
    /// waiting transactions.
    pub(crate) fn page_ready(&mut self, node: u32, key: PageKey) {
        self.storage.iscsi_inflight.remove(&(node, key));
        let evicted = self.nodes[node as usize].buffer.install(key, false);
        for ev in evicted {
            self.page_evicted(node, ev);
        }
        let exclusive = self.nodes[node as usize]
            .pending_pages
            .get(&key)
            .map(|p| p.exclusive)
            .unwrap_or(true);
        let protocol = self.protocol;
        protocol.on_page_installed(self, node, key, exclusive);
        self.resume_page_waiters(node, key);
    }

    /// Unregister `key`'s pending entry on `node` and re-run every
    /// transaction that faulted on it.
    pub(crate) fn resume_page_waiters(&mut self, node: u32, key: PageKey) {
        let waiters = self.nodes[node as usize]
            .pending_pages
            .remove(&key)
            .map(|p| p.waiters)
            .unwrap_or_default();
        for txn in waiters {
            if let Some(t) = self.txns.get_mut(&txn) {
                if t.phase == Phase::WaitPage {
                    t.phase = Phase::Running;
                    self.advance(txn);
                }
            }
        }
    }

    /// Handle a buffer eviction: let the protocol undo its residency
    /// bookkeeping, then write back dirty pages to their disk home
    /// (lazily; nothing waits on this).
    pub(crate) fn page_evicted(&mut self, node: u32, ev: dclue_db::buffer::Evicted) {
        let key = ev.key;
        let protocol = self.protocol;
        protocol.on_page_evicted(self, node, key);
        if ev.dirty {
            if let StorageMode::San { fabric_latency } = self.cfg.storage {
                let lba = self.lba_of(key);
                let disk = ((lba / 64) % self.storage.san_disks.len() as u64) as u32;
                let tag = self.action(Action::Nop);
                self.heap.push(
                    self.now + fabric_latency,
                    Ev::SanSubmit {
                        disk,
                        req: DiskRequest {
                            lba,
                            bytes: dclue_db::schema::PAGE_BYTES,
                            write: true,
                            tag,
                        },
                    },
                );
                return;
            }
            let home = self.page_home(key);
            if home == node {
                let lba = self.lba_of(key);
                let spindle = self.nodes[node as usize].data_spindle(lba);
                let tag = self.action(Action::Nop);
                let mut ob = Outbox::new(self.now);
                self.nodes[node as usize].data_disks[spindle].submit(
                    DiskRequest {
                        lba,
                        bytes: dclue_db::schema::PAGE_BYTES,
                        write: true,
                        tag,
                    },
                    &mut ob,
                );
                self.absorb_data_disk(node, spindle as u32, ob);
            } else {
                let req = self.storage.next_req;
                self.storage.next_req += 1;
                self.send_ipc(
                    node,
                    home,
                    IpcMsg::IscsiWrite {
                        page: Some(key),
                        bytes: dclue_db::schema::PAGE_BYTES,
                        req,
                        requester: node,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Lock protocol completions
    // ------------------------------------------------------------------

    /// A remote LockResp arrived for `txn`.
    fn handle_remote_lock_outcome(&mut self, txn: u64, res: ResourceId, outcome: LockWire) {
        let master = self.lock_master(res);
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        if t.phase != Phase::WaitLockRemote {
            return; // stale response (txn already retried)
        }
        match outcome {
            LockWire::Granted => {
                t.wait_gen += 1;
                self.heap.cancel_timer(lock_key(txn));
                t.locks_held.push((master, res));
                t.lock_idx += 1;
                t.acc += self.paths.lock_op;
                t.phase = Phase::Running;
                self.advance(txn);
            }
            LockWire::Queued => {
                t.phase = Phase::WaitLockQueued;
                t.wait_started = Some(self.now);
                t.wait_gen += 1;
                let gen = t.wait_gen;
                dclue_trace::trace_event!(Db, self.now.0, "lock_wait_remote", txn, res.page);
                dclue_trace::metric_add!("db.lock_waits", 1);
                if self.measuring {
                    self.collect.lock_waits += 1;
                }
                self.heap.arm_timer(
                    lock_key(txn),
                    self.now + LOCK_WAIT_TIMEOUT,
                    Ev::LockWaitTimeout { txn, gen },
                );
            }
            LockWire::Busy => {
                t.wait_gen += 1;
                self.heap.cancel_timer(lock_key(txn));
                if self.measuring {
                    self.collect.lock_busies += 1;
                }
                self.fail_and_retry(txn);
            }
        }
    }

    /// A queued lock was granted (locally or via LockGrant message).
    pub(crate) fn lock_granted(&mut self, txn: u64, res: ResourceId) {
        let master = self.lock_master(res);
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        match t.phase {
            Phase::WaitLockQueued => {
                if let Some(start) = t.wait_started.take() {
                    let wait = self.now.since(start);
                    if self.measuring {
                        self.collect.lock_wait.record_duration(wait);
                    }
                }
                t.wait_gen += 1;
                self.heap.cancel_timer(lock_key(txn));
                t.locks_held.push((master, res));
                t.lock_idx += 1;
                t.phase = Phase::Running;
                self.advance(txn);
            }
            Phase::Running => {
                // Grant raced the wait burst; remember it.
                if matches!(t.block, Some(Block::WaitQueuedLock { res: r, .. }) if r == res) {
                    t.early_grant = Some(res);
                    if let Some(start) = t.wait_started.take() {
                        if self.measuring {
                            self.collect
                                .lock_wait
                                .record_duration(self.now.since(start));
                        }
                    }
                }
            }
            _ => {} // stale
        }
    }

    pub(crate) fn lock_wait_timeout(&mut self, txn: u64, gen: u32) {
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        if t.wait_gen != gen {
            return;
        }
        let queued_in_burst = matches!(t.block, Some(Block::WaitQueuedLock { .. }));
        let remote_wait = t.phase == Phase::WaitLockRemote;
        if t.phase != Phase::WaitLockQueued && !queued_in_burst && !remote_wait {
            return;
        }
        if let Some(start) = t.wait_started.take() {
            if self.measuring {
                self.collect
                    .lock_wait
                    .record_duration(self.now.since(start));
                self.collect.lock_busies += 1;
            }
        }
        if t.phase == Phase::WaitLockQueued || remote_wait {
            self.fail_and_retry(txn);
        } else {
            // Burst still running: convert the pending wait into a retry.
            t.block = Some(Block::FailRetry);
        }
    }

    /// Release everything and retry the current operation after a
    /// backoff (the paper's "lock release followed by a delayed retry").
    fn fail_and_retry(&mut self, txn: u64) {
        dclue_trace::metric_add!("db.txn_retries", 1);
        self.release_locks(txn, true);
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        t.locks_held.clear();
        t.lock_idx = 0;
        t.retries += 1;
        t.wait_gen += 1;
        self.heap.cancel_timer(lock_key(txn));
        t.early_grant = None;
        t.phase = Phase::Retrying;
        let backoff_ms = 20u64 << t.retries.min(4);
        let jitter = self.rng.uniform(0, backoff_ms * 500_000);
        let delay = Duration::from_millis(backoff_ms) + Duration::from_nanos(jitter);
        self.heap.push(self.now + delay, Ev::TxnRetry { txn });
    }

    pub(crate) fn txn_retry(&mut self, txn: u64) {
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        if t.phase != Phase::Retrying {
            return;
        }
        t.page_idx = 0;
        t.cursor = Cursor::Pages;
        t.phase = Phase::Running;
        self.advance(txn);
    }

    /// Release this txn's locks. At commit, each remotely-held lock is
    /// released with its own control message (the per-lock release
    /// traffic the paper counts); on abort/retry a single ReleaseAll per
    /// touched master also clears queued waiters.
    fn release_locks(&mut self, txn: u64, batched: bool) {
        let Some(t) = self.txns.get(&txn) else {
            return;
        };
        let node = t.node;
        let masters = t.masters.clone();
        let held = t.locks_held.clone();
        if batched {
            for m in masters {
                if m == node {
                    let grants = self.nodes[m as usize].locks.release_all(txn);
                    for (waiter, res) in grants {
                        self.notify_grant(m, waiter, res);
                    }
                } else {
                    self.send_ipc(node, m, IpcMsg::ReleaseAll { txn });
                }
            }
        } else {
            for (m, res) in held {
                if m == node {
                    let grants = self.nodes[m as usize].locks.release(txn, res);
                    for (waiter, r) in grants {
                        self.notify_grant(m, waiter, r);
                    }
                } else {
                    self.send_ipc(node, m, IpcMsg::Release { txn, res });
                }
            }
        }
    }

    /// The master granted `res` to `waiter` after a release.
    pub(crate) fn notify_grant(&mut self, master: u32, waiter: u64, res: ResourceId) {
        let wnode = match self.txns.get(&waiter) {
            Some(t) => t.node,
            None => return, // waiter died; its ReleaseAll will clean up
        };
        if wnode == master {
            self.lock_granted(waiter, res);
        } else {
            self.send_ipc(master, wnode, IpcMsg::LockGrant { txn: waiter, res });
        }
    }

    /// Commit (or abort) complete: release locks, answer the client,
    /// retire the worker thread.
    pub(crate) fn finish_txn(&mut self, txn: u64, aborted: bool) {
        self.release_locks(txn, false);
        let Some(t) = self.txns.remove(&txn) else {
            return;
        };
        self.heap.cancel_timer(lock_key(txn));
        dclue_trace::trace_span!(Db, End, self.now.0, "txn", txn, aborted as i64);
        let node = t.node;
        self.nodes[node as usize].resident_txns -= 1;
        self.nodes[node as usize].cpu.exit(t.thread, self.now);
        // Response time as the terminal saw it: pool queueing delay
        // (aggregate client model; zero under exact) plus execution.
        self.qos_latency_sample((self.now.since(t.started) + t.queued).as_secs_f64());
        if self.measuring {
            if aborted {
                self.collect.aborted += 1;
            } else {
                self.collect.committed += 1;
                if t.prog.kind() == dclue_db::TxnKind::NewOrder {
                    self.collect.committed_new_orders += 1;
                }
            }
            let lat = self.now.since(t.started) + t.queued;
            self.collect.txn_latency.record_duration(lat);
            self.collect.latency_hist.record(lat.as_secs_f64());
        }
        if let Some(session) = t.session {
            self.reply_to_client(node, session);
        }
    }

    pub(crate) fn finish_commit(&mut self, txn: u64) {
        self.finish_txn(txn, false);
    }

    // ------------------------------------------------------------------
    // IPC dispatch
    // ------------------------------------------------------------------

    pub(crate) fn handle_ipc(&mut self, node: u32, msg: IpcMsg) {
        if !self.alive[node as usize] {
            return; // crashed node: software is gone, messages die here
        }
        // A stalled iSCSI target holds arriving commands; the initiator's
        // timeout/retry machinery deals with the silence.
        let msg = match msg {
            m @ (IpcMsg::IscsiRead { .. } | IpcMsg::IscsiWrite { .. })
                if self.storage.iscsi_gate[node as usize].is_stalled() =>
            {
                match self.storage.iscsi_gate[node as usize].admit(m) {
                    Some(m) => m,
                    None => return,
                }
            }
            m => m,
        };
        match msg {
            IpcMsg::BlockReq {
                page,
                requester,
                txn,
            } => {
                // Directory lookup; forward to a live supplier or deny.
                loop {
                    match self.nodes[node as usize]
                        .directory
                        .lookup_supplier(page, requester)
                    {
                        Some(c) if c == node => {
                            if self.nodes[node as usize].buffer.contains(page) {
                                if self.measuring {
                                    self.collect.fusion_transfers += 1;
                                }
                                self.send_ipc(node, requester, IpcMsg::BlockData { page, txn });
                                return;
                            }
                            // Stale self-entry; drop and retry.
                            self.nodes[node as usize]
                                .directory
                                .remove_holder(page, node);
                        }
                        Some(c) => {
                            self.send_ipc(
                                node,
                                c,
                                IpcMsg::SupplyReq {
                                    page,
                                    requester,
                                    txn,
                                },
                            );
                            return;
                        }
                        None => {
                            self.send_ipc(node, requester, IpcMsg::BlockNeg { page, txn });
                            return;
                        }
                    }
                }
            }
            IpcMsg::SupplyReq {
                page,
                requester,
                txn,
            } => {
                if self.nodes[node as usize].buffer.contains(page) {
                    if self.measuring {
                        self.collect.fusion_transfers += 1;
                    }
                    self.send_ipc(node, requester, IpcMsg::BlockData { page, txn });
                } else {
                    // Directory was stale; correct it and deny.
                    let dir = self.page_home(page);
                    self.send_ipc(node, dir, IpcMsg::EvictNotify { page, holder: node });
                    self.send_ipc(node, requester, IpcMsg::SupplyNeg { page, txn });
                }
            }
            IpcMsg::BlockData { page, .. } => self.page_ready(node, page),
            IpcMsg::BlockNeg { page, .. } | IpcMsg::SupplyNeg { page, .. } => {
                self.disk_read(node, page)
            }
            IpcMsg::AckHolding { page, holder } => {
                self.nodes[node as usize].directory.add_holder(page, holder);
            }
            IpcMsg::EvictNotify { page, holder } => {
                self.nodes[node as usize]
                    .directory
                    .remove_holder(page, holder);
            }
            msg @ (IpcMsg::LeaseReq { .. }
            | IpcMsg::LeaseData { .. }
            | IpcMsg::LeaseNeg { .. }
            | IpcMsg::LeaseRenew { .. }
            | IpcMsg::LeaseAck { .. }) => {
                let protocol = self.protocol;
                protocol.handle_msg(self, node, msg);
            }
            IpcMsg::LockReq {
                txn,
                res,
                queue_if_busy,
            } => {
                let protocol = self.protocol;
                let outcome = protocol.try_lock(self, node, txn, res, queue_if_busy);
                let wire = match outcome {
                    LockOutcome::Granted => LockWire::Granted,
                    LockOutcome::Queued => LockWire::Queued,
                    LockOutcome::Busy => LockWire::Busy,
                };
                let requester = match self.txns.get(&txn) {
                    Some(t) => t.node,
                    None => {
                        // Requester vanished; undo a successful grant.
                        self.nodes[node as usize].locks.release_all(txn);
                        return;
                    }
                };
                self.send_ipc(
                    node,
                    requester,
                    IpcMsg::LockResp {
                        txn,
                        res,
                        outcome: wire,
                    },
                );
            }
            IpcMsg::LockResp { txn, res, outcome } => {
                self.handle_remote_lock_outcome(txn, res, outcome);
            }
            IpcMsg::LockGrant { txn, res } => self.lock_granted(txn, res),
            IpcMsg::Release { txn, res } => {
                let grants = self.nodes[node as usize].locks.release(txn, res);
                for (waiter, r) in grants {
                    self.notify_grant(node, waiter, r);
                }
            }
            IpcMsg::ReleaseAll { txn } => {
                let grants = self.nodes[node as usize].locks.release_all(txn);
                for (waiter, res) in grants {
                    self.notify_grant(node, waiter, res);
                }
            }
            IpcMsg::IscsiRead {
                page, requester, ..
            } => {
                let lba = self.lba_of(page);
                let spindle = self.nodes[node as usize].data_spindle(lba);
                let tag = self.action(Action::TargetRead {
                    node,
                    page,
                    requester,
                });
                let mut ob = Outbox::new(self.now);
                self.nodes[node as usize].data_disks[spindle].submit(
                    DiskRequest {
                        lba,
                        bytes: dclue_db::schema::PAGE_BYTES,
                        write: false,
                        tag,
                    },
                    &mut ob,
                );
                self.absorb_data_disk(node, spindle as u32, ob);
            }
            IpcMsg::IscsiData { page, .. } => self.page_ready(node, page),
            IpcMsg::IscsiWrite {
                page,
                bytes,
                req,
                requester,
            } => match page {
                Some(key) => {
                    // Remote write-back of a dirty page: no ack needed.
                    let lba = self.lba_of(key);
                    let spindle = self.nodes[node as usize].data_spindle(lba);
                    let tag = self.action(Action::Nop);
                    let mut ob = Outbox::new(self.now);
                    self.nodes[node as usize].data_disks[spindle].submit(
                        DiskRequest {
                            lba,
                            bytes,
                            write: true,
                            tag,
                        },
                        &mut ob,
                    );
                    self.absorb_data_disk(node, spindle as u32, ob);
                }
                None => {
                    // Shipped log record (centralized logging).
                    let (disk, lba) = self.nodes[node as usize].next_log_slot();
                    let tag = self.action(Action::TargetWrite {
                        node,
                        requester,
                        req,
                    });
                    let mut ob = Outbox::new(self.now);
                    self.nodes[node as usize].log_disks[disk].submit(
                        DiskRequest {
                            lba,
                            bytes,
                            write: true,
                            tag,
                        },
                        &mut ob,
                    );
                    self.absorb_log_disk(node, disk as u32, ob);
                }
            },
            IpcMsg::IscsiWriteAck { req } => {
                if let Some(txn) = self.storage.log_reqs.remove(&req) {
                    self.finish_commit(txn);
                }
            }
        }
    }

    /// Execute a deferred action (after its interrupt charge completed).
    pub(crate) fn perform_action(&mut self, a: Action) {
        match a {
            Action::Nop => {}
            Action::HandleIpc { node, msg } => self.handle_ipc(node, msg),
            Action::StartTxn { node, session } => self.start_txn(node, session),
            Action::PageReady { node, page } => self.page_ready(node, page),
            Action::SendIscsiData {
                node,
                page,
                requester,
            } => {
                self.send_ipc(node, requester, IpcMsg::IscsiData { page, req: 0 });
            }
            Action::TargetWrite {
                node,
                requester,
                req,
            } => {
                self.send_ipc(node, requester, IpcMsg::IscsiWriteAck { req });
            }
            Action::CommitFinished { txn } => self.finish_commit(txn),
            // Disk-stage markers never reach here.
            Action::PageRead { .. }
            | Action::TargetRead { .. }
            | Action::LogWritten { .. }
            | Action::LogBatchWritten { .. } => {}
        }
    }

    /// Disk completion routing: the first pass charges the completion
    /// interrupt, whose retirement performs the follow-up action.
    pub(crate) fn on_disk_complete_pub(&mut self, tag: u64) {
        let Some(a) = self.platform.actions.remove(&tag) else {
            return;
        };
        match a {
            Action::PageRead { node, page } => {
                self.charge_then(
                    node,
                    self.paths.disk_complete,
                    Action::PageReady { node, page },
                );
            }
            Action::TargetRead {
                node,
                page,
                requester,
            } => {
                let instr = self.paths.disk_complete + self.paths.iscsi_target_per_kb * 8;
                self.charge_then(
                    node,
                    instr,
                    Action::SendIscsiData {
                        node,
                        page,
                        requester,
                    },
                );
            }
            Action::TargetWrite {
                node,
                requester,
                req,
            } => {
                self.charge_then(
                    node,
                    self.paths.disk_complete,
                    Action::TargetWrite {
                        node,
                        requester,
                        req,
                    },
                );
            }
            Action::LogWritten { txn } => {
                let node = match self.txns.get(&txn) {
                    Some(t) => t.node,
                    None => return,
                };
                self.charge_then(
                    node,
                    self.paths.disk_complete,
                    Action::CommitFinished { txn },
                );
            }
            Action::LogBatchWritten { txns } => {
                for txn in txns {
                    if let Some(t) = self.txns.get(&txn) {
                        let node = t.node;
                        self.charge_then(
                            node,
                            self.paths.disk_complete,
                            Action::CommitFinished { txn },
                        );
                    }
                }
            }
            Action::Nop => {}
            other => self.perform_action(other),
        }
    }

    /// Oldest snapshot still active (diagnostics & pruning watermark).
    pub fn oldest_active_snapshot(&self) -> u64 {
        self.txns
            .values()
            .map(|t| t.read_ts)
            .min()
            .unwrap_or_else(|| self.db.current_ts())
    }
}
