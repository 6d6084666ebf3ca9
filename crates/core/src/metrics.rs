//! Measurement collection and the end-of-run report.

use dclue_sim::stats::{LogHistogram, Tally};
use dclue_sim::SimTime;

/// Counters accumulated during the measurement window.
#[derive(Debug)]
pub struct Collector {
    pub committed: u64,
    pub committed_new_orders: u64,
    pub aborted: u64,
    /// IPC control messages (fusion + lock protocol).
    pub ctl_msgs: u64,
    /// IPC data messages (block transfers).
    pub data_msgs: u64,
    /// iSCSI messages (commands + data + status + acks).
    pub storage_msgs: u64,
    pub lock_waits: u64,
    pub lock_busies: u64,
    pub lock_wait: Tally,
    pub txn_latency: Tally,
    pub fusion_transfers: u64,
    /// Pages shipped under a read lease (`ProtocolKind::MvccReadLease`;
    /// always zero under cache fusion).
    pub lease_transfers: u64,
    /// Lease-extension control round trips (no data moved).
    pub lease_renewals: u64,
    pub disk_reads: u64,
    pub remote_disk_reads: u64,
    pub log_writes: u64,
    pub version_walks: u64,
    /// FTP transfers refused by admission control / policing.
    pub ftp_denied: u64,
    pub ipc_resets: u64,
    pub ftp_bytes_delivered: f64,
    pub ftp_transfers: u64,
    /// Transactions aborted because of an injected fault (node crash
    /// freeze, exhausted iSCSI retries) since the window started.
    pub aborted_by_fault: u64,
    /// iSCSI initiator command timeouts that led to a retry.
    pub iscsi_retries: u64,
    /// Commit-latency distribution (seconds) for the window. Lives
    /// here — not on `World` — so [`Collector::reset`] cannot leave
    /// stale samples behind when the window restarts.
    pub latency_hist: LogHistogram,
    pub window_start: SimTime,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            committed: 0,
            committed_new_orders: 0,
            aborted: 0,
            ctl_msgs: 0,
            data_msgs: 0,
            storage_msgs: 0,
            lock_waits: 0,
            lock_busies: 0,
            lock_wait: Tally::new(),
            txn_latency: Tally::new(),
            fusion_transfers: 0,
            lease_transfers: 0,
            lease_renewals: 0,
            disk_reads: 0,
            remote_disk_reads: 0,
            log_writes: 0,
            version_walks: 0,
            ftp_denied: 0,
            ipc_resets: 0,
            ftp_bytes_delivered: 0.0,
            ftp_transfers: 0,
            aborted_by_fault: 0,
            iscsi_retries: 0,
            // 0.1 ms .. 100 s, 600 log bins: covers sub-ms cache hits
            // through multi-second faulted commits.
            latency_hist: LogHistogram::new(1e-4, 100.0, 600),
            window_start: SimTime::default(),
        }
    }
}

impl Collector {
    /// Restart the window (called at end of warm-up). Every counter,
    /// tally and histogram restarts empty — a mid-window reset must not
    /// leak samples from before the reset into the new window.
    pub fn reset(&mut self, now: SimTime) {
        *self = Collector {
            window_start: now,
            ..Default::default()
        }
    }
}

/// The end-of-run report: everything the paper's figures plot.
///
/// `PartialEq` is bit-exact on the float fields — that is the point:
/// the pool-vs-serial determinism tests assert whole reports equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Cluster size, echoed for table printing.
    pub nodes: u32,
    pub affinity: f64,
    /// Measurement window in scaled seconds.
    pub window_s: f64,
    /// New-orders per minute in the scaled system.
    pub tpmc_scaled: f64,
    /// Scaled back by 100x: the real-system equivalent the paper quotes.
    pub tpmc_equivalent: f64,
    /// All committed transactions per second (scaled).
    pub tps_scaled: f64,
    pub committed: u64,
    pub aborted: u64,
    pub ctl_msgs_per_txn: f64,
    pub data_msgs_per_txn: f64,
    pub storage_msgs_per_txn: f64,
    pub lock_waits_per_txn: f64,
    pub lock_busies_per_txn: f64,
    /// Mean lock wait in scaled milliseconds.
    pub lock_wait_ms: f64,
    /// Mean transaction residence time, scaled milliseconds.
    pub txn_latency_ms: f64,
    pub avg_cpi: f64,
    pub avg_cs_cycles: f64,
    pub avg_live_threads: f64,
    pub cpu_util: f64,
    pub buffer_hit_ratio: f64,
    pub fusion_transfers_per_txn: f64,
    /// Read-lease page ships per committed txn (zero under cache fusion).
    pub lease_transfers_per_txn: f64,
    /// Lease renewals per committed txn (zero under cache fusion).
    pub lease_renewals_per_txn: f64,
    pub disk_reads_per_txn: f64,
    pub version_walks_per_txn: f64,
    pub versions_created_per_txn: f64,
    /// 95th percentile transaction residence time, scaled milliseconds.
    pub txn_latency_p95_ms: f64,
    /// DBMS traffic crossing the inter-switch trunks, scaled Mb/s
    /// (all tiers combined).
    pub trunk_mbps: f64,
    /// Combined trunk utilization against the actual per-link
    /// capacities (not a single assumed `cfg.trunk_bw`).
    pub trunk_utilization: f64,
    /// Edge-tier trunk traffic (edge→agg uplinks; the paper star's
    /// outer↔LATA trunks land here), scaled Mb/s.
    pub trunk_mbps_edge: f64,
    pub trunk_utilization_edge: f64,
    /// Aggregation-tier trunk traffic (agg→core), scaled Mb/s; zero
    /// for single-tier fabrics.
    pub trunk_mbps_agg: f64,
    pub trunk_utilization_agg: f64,
    /// Worst-case node→node path depth in links over the built BFS
    /// routes (2 one-switch, up to 6 across aggregation tiers). A
    /// seed-averaged report carries seed 0's value.
    pub max_path_hops: u32,
    /// FTP goodput delivered during the window, scaled Mb/s.
    pub ftp_mbps: f64,
    /// FTP transfers refused by admission control / policing.
    pub ftp_denied: u64,
    pub ipc_resets: u64,
    /// Packet drops across all router/output ports in the window.
    pub drops: u64,
    /// Fault-plan events injected over the whole run.
    pub fault_events_applied: u64,
    /// Transactions aborted by injected faults (crash freeze, iSCSI
    /// retry exhaustion) since the window started.
    pub aborted_by_fault: u64,
    /// iSCSI initiator timeouts that triggered a command retry.
    pub iscsi_retries: u64,
    /// Frames discarded by injected link/port faults over the whole run.
    pub fault_drops: u64,
    /// Availability analysis of the throughput timeline against the
    /// fault plan's windows; `None` when the plan is empty. A
    /// seed-averaged report carries seed 0's analysis.
    pub availability: Option<dclue_fault::Availability>,
    /// Half-second samples of `(time_s, committed so far, mean live
    /// threads per node)` across the whole run (including warm-up) —
    /// lets callers study transients like thrash onset. A seed-averaged
    /// report carries seed 0's timeline.
    pub timeline: Vec<(f64, u64, f64)>,
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // building dirty collectors is the point
mod tests {
    use super::*;

    /// `reset` must restart the window with *nothing* carried over —
    /// including the latency histogram, which used to live outside the
    /// collector and silently kept its samples across a mid-window
    /// reset.
    #[test]
    fn reset_clears_counters_tallies_and_histogram() {
        let mut c = Collector::default();
        c.committed = 7;
        c.aborted = 2;
        c.lock_waits = 3;
        c.txn_latency.record(0.25);
        c.lock_wait.record(0.01);
        c.latency_hist.record(0.05);
        c.latency_hist.record(1.5);
        assert_eq!(c.latency_hist.count(), 2);

        let t = SimTime(12_345);
        c.reset(t);

        assert_eq!(c.window_start, t);
        assert_eq!(c.committed, 0);
        assert_eq!(c.aborted, 0);
        assert_eq!(c.lock_waits, 0);
        assert_eq!(c.txn_latency.count(), 0);
        assert_eq!(c.lock_wait.count(), 0);
        assert_eq!(
            c.latency_hist.count(),
            0,
            "histogram leaked samples across reset"
        );
        // The fresh histogram keeps the standard latency bounds.
        assert_eq!(c.latency_hist.quantile(0.95), 0.0);
    }

    /// Two resets in a row behave identically to one (idempotent on an
    /// already-clean collector).
    #[test]
    fn reset_is_idempotent() {
        let mut c = Collector::default();
        c.latency_hist.record(0.2);
        c.reset(SimTime(10));
        c.reset(SimTime(20));
        assert_eq!(c.window_start, SimTime(20));
        assert_eq!(c.latency_hist.count(), 0);
    }
}
