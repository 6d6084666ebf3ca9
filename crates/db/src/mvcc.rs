//! Multiversion concurrency control, timestamp flavour.
//!
//! Per the paper: MCC "avoids any read-locks since a transaction can
//! always find the appropriate version of the data to read"; writes still
//! lock. The price is managing versions — extra memory from an overflow
//! area, and when that runs low, unpinned buffer-cache pages are stolen
//! to replenish it. Each row chain tracks minimum, maximum and current
//! version numbers, exactly as described in §2.3.
//!
//! Version payloads are not materialised (the logical "current" row lives
//! in the table store); a version records its commit timestamp and size,
//! which is everything timing and capacity behaviour depend on.

use std::collections::HashMap;

#[derive(Debug)]
struct Chain {
    /// Commit timestamps, oldest first. The last entry is the current
    /// version's timestamp.
    versions: Vec<u64>,
    /// Version number of `versions[0]`.
    min_v: u64,
    row_bytes: u64,
}

impl Chain {
    fn cur_v(&self) -> u64 {
        self.min_v + self.versions.len() as u64 - 1
    }
}

/// How a read resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VersionRead {
    /// Read the current version.
    Current,
    /// Walked `steps` versions back to find a visible one.
    Old { steps: u32 },
    /// No version is visible at the read timestamp (treat as not found —
    /// the row was created after the reader's snapshot).
    Invisible,
}

/// Counters.
#[derive(Debug, Default, Clone)]
pub struct MvccStats {
    pub versions_created: u64,
    pub reads_current: u64,
    pub reads_old: u64,
    pub reads_invisible: u64,
    pub pruned: u64,
    pub steal_requests: u64,
}

/// The cluster-wide version store.
#[derive(Debug)]
pub struct VersionStore {
    chains: HashMap<(u32, u64), Chain>,
    capacity_bytes: u64,
    used_bytes: u64,
    pub stats: MvccStats,
}

impl VersionStore {
    pub fn new(capacity_bytes: u64) -> Self {
        VersionStore {
            chains: HashMap::new(),
            capacity_bytes,
            used_bytes: 0,
            stats: MvccStats::default(),
        }
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// True when the overflow area is nearly exhausted — the engine
    /// should steal buffer pages (`add_capacity`).
    pub fn pressure(&self) -> bool {
        self.used_bytes * 10 >= self.capacity_bytes * 9
    }

    /// Grow the overflow area with stolen buffer pages.
    pub fn add_capacity(&mut self, bytes: u64) {
        self.capacity_bytes += bytes;
        self.stats.steal_requests += 1;
    }

    /// Record a new version of `(table, row)` committed at `ts`.
    /// Returns true if the store is now under pressure.
    pub fn write(&mut self, table: u32, row: u64, row_bytes: u64, ts: u64) -> bool {
        let chain = self.chains.entry((table, row)).or_insert(Chain {
            versions: Vec::with_capacity(2),
            min_v: 0,
            row_bytes,
        });
        debug_assert!(
            chain.versions.last().is_none_or(|&last| ts >= last),
            "timestamps must be monotone per row"
        );
        chain.versions.push(ts);
        self.used_bytes += row_bytes;
        self.stats.versions_created += 1;
        self.pressure()
    }

    /// Resolve a read of `(table, row)` at snapshot `read_ts`.
    /// Rows that were never written resolve as `Current` (the base
    /// version from database load is visible to everyone).
    pub fn read(&mut self, table: u32, row: u64, read_ts: u64) -> VersionRead {
        let Some(chain) = self.chains.get(&(table, row)) else {
            self.stats.reads_current += 1;
            return VersionRead::Current;
        };
        // Find the newest version with ts <= read_ts.
        let idx = chain.versions.partition_point(|&t| t <= read_ts);
        if idx == chain.versions.len() {
            self.stats.reads_current += 1;
            VersionRead::Current
        } else if idx == 0 {
            // All versions are newer than the snapshot; the base version
            // (pre-first-write) is what the reader sees if the row
            // predates the run, otherwise nothing. We report Old with the
            // full walk; the engine charges the walk and treats the data
            // as the oldest state.
            if chain.min_v == 0 {
                self.stats.reads_old += 1;
                VersionRead::Old {
                    steps: chain.versions.len() as u32,
                }
            } else {
                self.stats.reads_invisible += 1;
                VersionRead::Invisible
            }
        } else {
            let steps = (chain.versions.len() - idx) as u32;
            if steps == 0 {
                self.stats.reads_current += 1;
                VersionRead::Current
            } else {
                self.stats.reads_old += 1;
                VersionRead::Old { steps }
            }
        }
    }

    /// Current version number of a row (diagnostics / tests).
    pub fn current_version(&self, table: u32, row: u64) -> u64 {
        self.chains
            .get(&(table, row))
            .map(|c| c.cur_v())
            .unwrap_or(0)
    }

    /// Drop versions no active transaction can need: everything strictly
    /// older than the newest version with `ts <= watermark`.
    pub fn prune(&mut self, watermark: u64) {
        let mut freed = 0u64;
        self.chains.retain(|_, chain| {
            let keep_from = chain
                .versions
                .partition_point(|&t| t <= watermark)
                .saturating_sub(1);
            if keep_from > 0 {
                freed += keep_from as u64 * chain.row_bytes;
                chain.versions.drain(..keep_from);
                chain.min_v += keep_from as u64;
                self.stats.pruned += keep_from as u64;
            }
            // Single fully-superseded version chains can be dropped
            // entirely once only one old version remains and it is below
            // the watermark — the base row suffices.
            !(chain.versions.len() == 1 && chain.versions[0] <= watermark && {
                freed += chain.row_bytes;
                self.stats.pruned += 1;
                true
            })
        });
        self.used_bytes = self.used_bytes.saturating_sub(freed);
    }

    /// Number of live chains (diagnostics).
    pub fn chains(&self) -> usize {
        self.chains.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_rows_read_current() {
        let mut v = VersionStore::new(1 << 20);
        assert_eq!(v.read(0, 42, 100), VersionRead::Current);
    }

    #[test]
    fn reader_after_write_sees_current() {
        let mut v = VersionStore::new(1 << 20);
        v.write(0, 1, 95, 10);
        assert_eq!(v.read(0, 1, 11), VersionRead::Current);
    }

    #[test]
    fn old_snapshot_walks_back() {
        let mut v = VersionStore::new(1 << 20);
        v.write(0, 1, 95, 10);
        v.write(0, 1, 95, 20);
        v.write(0, 1, 95, 30);
        // Snapshot at 15 sees the ts=10 version: two steps back.
        assert_eq!(v.read(0, 1, 15), VersionRead::Old { steps: 2 });
        // Snapshot at 25: one step back.
        assert_eq!(v.read(0, 1, 25), VersionRead::Old { steps: 1 });
        // Snapshot at 35: current.
        assert_eq!(v.read(0, 1, 35), VersionRead::Current);
    }

    #[test]
    fn snapshot_before_all_writes_sees_base() {
        let mut v = VersionStore::new(1 << 20);
        v.write(0, 1, 95, 10);
        assert_eq!(v.read(0, 1, 5), VersionRead::Old { steps: 1 });
    }

    #[test]
    fn version_numbers_advance() {
        let mut v = VersionStore::new(1 << 20);
        assert_eq!(v.current_version(0, 7), 0);
        v.write(0, 7, 95, 1);
        v.write(0, 7, 95, 2);
        assert_eq!(v.current_version(0, 7), 1);
    }

    #[test]
    fn capacity_pressure_signals() {
        let mut v = VersionStore::new(1000);
        assert!(!v.pressure());
        for ts in 0..9 {
            v.write(0, ts, 100, ts);
        }
        assert!(v.pressure());
        v.add_capacity(8192);
        assert!(!v.pressure());
        assert_eq!(v.stats.steal_requests, 1);
    }

    #[test]
    fn prune_frees_old_versions() {
        let mut v = VersionStore::new(1 << 20);
        for ts in 1..=10 {
            v.write(0, 1, 100, ts);
        }
        let before = v.used_bytes();
        v.prune(8);
        assert!(v.used_bytes() < before);
        // Reads at/above the watermark still resolve.
        assert_eq!(v.read(0, 1, 10), VersionRead::Current);
        assert_eq!(v.read(0, 1, 9), VersionRead::Old { steps: 1 });
    }

    #[test]
    fn prune_drops_fully_stale_chains() {
        let mut v = VersionStore::new(1 << 20);
        v.write(0, 1, 100, 5);
        v.prune(10);
        assert_eq!(v.chains(), 0);
        assert_eq!(v.used_bytes(), 0);
    }

    #[test]
    fn distinct_rows_have_independent_chains() {
        let mut v = VersionStore::new(1 << 20);
        v.write(0, 1, 100, 5);
        v.write(1, 1, 100, 6);
        v.write(0, 2, 100, 7);
        assert_eq!(v.chains(), 3);
        assert_eq!(v.read(0, 2, 3), VersionRead::Old { steps: 1 });
        assert_eq!(v.read(1, 1, 10), VersionRead::Current);
    }
}
