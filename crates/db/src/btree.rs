//! Arena-based B+-tree index, `u64 -> u64`, with page-touch tracing.
//!
//! DCLUE maintains explicit B+-tree indices per table; index pages flow
//! through the buffer cache just like data pages, so every operation here
//! reports the *node path it touched* — the caller (the transaction
//! engine) turns those into buffer-cache accesses, fusion transfers and
//! disk reads. That is how the paper gets index-cache hit ratios to
//! "fall out of the actual functioning of the simulation".
//!
//! Deletion removes the key and unlinks nodes that become empty, but does
//! not rebalance siblings: TPC-C's only deleter (the new-order table)
//! removes the oldest keys in order, for which empty-node cleanup keeps
//! the tree tidy. This trade is documented here deliberately.
//!
//! [`BTree::push_max`] is the bulk-load path: it appends a key larger
//! than every key in the tree by walking the rightmost spine, with no
//! search and no trace. Its precondition is exactly the case where
//! `insert` would descend that spine and append at the end of the last
//! leaf, and both paths split nodes through the same two helpers, so a
//! tree appended key by key is identical to one built by `insert` from
//! the same ascending keys: same node ids, fill and separators.

/// Maximum keys per node. 64 keys x (8 B key + 8 B value/child) plus
/// headers approximates an 8 KB index page at ~50% occupancy, matching
/// a production B+-tree's steady state.
const ORDER: usize = 64;

#[derive(Debug)]
enum Node {
    Internal {
        /// `keys[i]` is the smallest key reachable under `children[i+1]`.
        keys: Vec<u64>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
    },
    /// Freed slot.
    Free,
}

/// A B+-tree whose nodes live in a slab; node ids double as index-page
/// ids for buffer-cache accounting.
///
/// ```
/// use dclue_db::btree::BTree;
///
/// let mut idx = BTree::new();
/// let mut touched = Vec::new();
/// idx.insert(42, 7, &mut touched);
/// touched.clear();
/// assert_eq!(idx.get(42, &mut touched), Some(7));
/// // Every index page the lookup visited is reported for buffer-cache
/// // accounting:
/// assert!(!touched.is_empty());
/// ```
#[derive(Debug)]
pub struct BTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    pub fn new() -> Self {
        BTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            }],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live nodes (= index pages).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Smallest key stored at/under `node`, if it exists and is
    /// non-empty. Used by the cluster to partition index pages by the
    /// key range they serve.
    pub fn min_key(&self, node: u32) -> Option<u64> {
        match self.nodes.get(node as usize)? {
            Node::Leaf { keys, .. } => keys.first().copied(),
            Node::Internal { keys, .. } => keys.first().copied(),
            Node::Free => None,
        }
    }

    /// Depth of the tree (1 = just a root leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut n = self.root;
        loop {
            match &self.nodes[n as usize] {
                Node::Internal { children, .. } => {
                    n = children[0];
                    d += 1;
                }
                _ => return d,
            }
        }
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, id: u32) {
        self.nodes[id as usize] = Node::Free;
        self.free.push(id);
    }

    /// Look up `key`, recording every node visited in `trace`.
    pub fn get(&self, key: u64, trace: &mut Vec<u32>) -> Option<u64> {
        let mut n = self.root;
        loop {
            trace.push(n);
            match &self.nodes[n as usize] {
                Node::Internal { keys, children } => {
                    let i = keys.partition_point(|&k| k <= key);
                    n = children[i];
                }
                Node::Leaf { keys, vals } => {
                    return keys.binary_search(&key).ok().map(|i| vals[i]);
                }
                Node::Free => unreachable!("walked into a freed node"),
            }
        }
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: u64, val: u64, trace: &mut Vec<u32>) -> Option<u64> {
        let root = self.root;
        match self.insert_rec(root, key, val, trace) {
            InsertResult::Done(old) => old,
            InsertResult::Split(sep, right) => {
                self.grow_root(sep, right);
                None
            }
        }
    }

    /// Append `key -> val`, where `key` is larger than every key in the
    /// tree: the ascending bulk load of an index. It walks
    /// `children.last()` from the root, pushes onto the rightmost leaf
    /// and splits upward with `insert`'s rule, so the result is the tree
    /// `insert` builds, node ids included. Nothing is traced.
    ///
    /// # Panics
    ///
    /// If `key` is not greater than the rightmost leaf's last key, or is
    /// below the last separator of a node on the rightmost spine (after
    /// `remove` has emptied the rightmost leaf): `insert` would not
    /// append there.
    pub fn push_max(&mut self, key: u64, val: u64) {
        let mut n = self.root;
        loop {
            match &mut self.nodes[n as usize] {
                Node::Internal { keys, children } => {
                    if let Some(&sep) = keys.last() {
                        assert!(key >= sep, "push_max({key}) below separator {sep}");
                    }
                    n = *children.last().expect("internal node has children");
                }
                Node::Leaf { keys, vals } => {
                    if let Some(&last) = keys.last() {
                        assert!(key > last, "push_max({key}) after key {last}");
                    }
                    keys.push(key);
                    vals.push(val);
                    self.len += 1;
                    if keys.len() <= ORDER {
                        return;
                    }
                    break;
                }
                Node::Free => unreachable!("walked into a freed node"),
            }
        }
        // The leaf overflowed, about once per ORDER / 2 appends: walk the
        // spine again for the parents, then split bottom-up.
        let mut spine = Vec::new();
        let mut m = self.root;
        while let Node::Internal { children, .. } = &self.nodes[m as usize] {
            spine.push(m);
            m = *children.last().expect("internal node has children");
        }
        let mut split = self.split_leaf(n);
        while let Some((sep, right)) = split {
            let Some(parent) = spine.pop() else {
                self.grow_root(sep, right);
                return;
            };
            let Node::Internal { keys, children } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            keys.push(sep);
            children.push(right);
            split = self.split_internal(parent);
        }
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&mut self, key: u64, trace: &mut Vec<u32>) -> Option<u64> {
        let root = self.root;
        let (old, _empty) = self.remove_rec(root, key, trace);
        // Shrink the root if it is an internal node with a single child.
        loop {
            match &self.nodes[self.root as usize] {
                Node::Internal { children, .. } if children.len() == 1 => {
                    let child = children[0];
                    let dead = self.root;
                    self.root = child;
                    self.release(dead);
                }
                _ => break,
            }
        }
        old
    }

    /// Ascending scan of `[lo, hi)`, up to `limit` entries; every node
    /// visited lands in `trace`.
    pub fn range(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
        trace: &mut Vec<u32>,
    ) {
        self.range_rec(self.root, lo, hi, limit, out, trace);
    }

    /// Largest `(key, value)` with `lo <= key < hi`, if any.
    pub fn last_in_range(&self, lo: u64, hi: u64, trace: &mut Vec<u32>) -> Option<(u64, u64)> {
        self.last_rec(self.root, lo, hi, trace)
    }

    /// Smallest `(key, value)` with `lo <= key < hi`, if any.
    pub fn first_in_range(&self, lo: u64, hi: u64, trace: &mut Vec<u32>) -> Option<(u64, u64)> {
        let mut out = Vec::with_capacity(1);
        self.range_rec(self.root, lo, hi, 1, &mut out, trace);
        out.pop()
    }

    // ------------------------------------------------------------------

    fn insert_rec(&mut self, n: u32, key: u64, val: u64, trace: &mut Vec<u32>) -> InsertResult {
        trace.push(n);
        match &mut self.nodes[n as usize] {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => InsertResult::Done(Some(std::mem::replace(&mut vals[i], val))),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, val);
                    self.len += 1;
                    self.split_leaf(n).into()
                }
            },
            Node::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                let child = children[i];
                match self.insert_rec(child, key, val, trace) {
                    InsertResult::Done(old) => InsertResult::Done(old),
                    InsertResult::Split(sep, right) => {
                        let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
                            unreachable!()
                        };
                        keys.insert(i, sep);
                        children.insert(i + 1, right);
                        self.split_internal(n).into()
                    }
                }
            }
            Node::Free => unreachable!(),
        }
    }

    /// Split leaf `n` if it holds more than `ORDER` keys: the upper half
    /// moves to a new right sibling, whose first key is the separator.
    /// The lower half is copied to exact-size buffers and the sibling
    /// takes the full ones: ascending appends fill the sibling next and
    /// never touch the lower half again, so a bulk-loaded leaf carries
    /// no spare capacity and the load reuses one pair of buffers.
    fn split_leaf(&mut self, n: u32) -> Option<(u64, u32)> {
        let Node::Leaf { keys, vals } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        if keys.len() <= ORDER {
            return None;
        }
        let mid = keys.len() / 2;
        let mut rkeys = std::mem::replace(keys, keys[..mid].to_vec());
        let mut rvals = std::mem::replace(vals, vals[..mid].to_vec());
        rkeys.drain(..mid);
        rvals.drain(..mid);
        let sep = rkeys[0];
        let right = self.alloc(Node::Leaf {
            keys: rkeys,
            vals: rvals,
        });
        Some((sep, right))
    }

    /// Split internal node `n` if it holds more than `ORDER` keys: the
    /// middle key moves up as the separator, the keys and children above
    /// it to a new right sibling.
    fn split_internal(&mut self, n: u32) -> Option<(u64, u32)> {
        let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        if keys.len() <= ORDER {
            return None;
        }
        let mid = keys.len() / 2;
        let up = keys[mid];
        let rkeys = keys.split_off(mid + 1);
        keys.pop();
        let rchildren = children.split_off(mid + 1);
        let right = self.alloc(Node::Internal {
            keys: rkeys,
            children: rchildren,
        });
        Some((up, right))
    }

    /// The old root split into itself and `right`: put a new root above.
    fn grow_root(&mut self, sep: u64, right: u32) {
        let old = self.root;
        self.root = self.alloc(Node::Internal {
            keys: vec![sep],
            children: vec![old, right],
        });
    }

    /// Returns `(removed value, node-is-now-empty)`.
    fn remove_rec(&mut self, n: u32, key: u64, trace: &mut Vec<u32>) -> (Option<u64>, bool) {
        trace.push(n);
        match &mut self.nodes[n as usize] {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    let v = vals.remove(i);
                    self.len -= 1;
                    let empty = keys.is_empty();
                    (Some(v), empty)
                }
                Err(_) => (None, false),
            },
            Node::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                let child = children[i];
                let (old, child_empty) = self.remove_rec(child, key, trace);
                if child_empty {
                    let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
                        unreachable!()
                    };
                    // Keep at least one child so the tree stays rooted.
                    if children.len() > 1 {
                        children.remove(i);
                        keys.remove(if i == 0 { 0 } else { i - 1 });
                        self.release(child);
                    }
                    let empty = {
                        let Node::Internal { children, .. } = &self.nodes[n as usize] else {
                            unreachable!()
                        };
                        children.len() == 1 && self.is_node_empty(children[0])
                    };
                    (old, empty)
                } else {
                    (old, false)
                }
            }
            Node::Free => unreachable!(),
        }
    }

    fn is_node_empty(&self, n: u32) -> bool {
        match &self.nodes[n as usize] {
            Node::Leaf { keys, .. } => keys.is_empty(),
            Node::Internal { .. } => false,
            Node::Free => true,
        }
    }

    fn range_rec(
        &self,
        n: u32,
        lo: u64,
        hi: u64,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
        trace: &mut Vec<u32>,
    ) {
        if out.len() >= limit {
            return;
        }
        trace.push(n);
        match &self.nodes[n as usize] {
            Node::Leaf { keys, vals } => {
                let start = keys.partition_point(|&k| k < lo);
                for i in start..keys.len() {
                    if keys[i] >= hi || out.len() >= limit {
                        break;
                    }
                    out.push((keys[i], vals[i]));
                }
            }
            Node::Internal { keys, children } => {
                let first = keys.partition_point(|&k| k <= lo);
                for i in first..children.len() {
                    if i > first {
                        // Subtree minimum is keys[i-1]; prune if past hi.
                        if keys[i - 1] >= hi {
                            break;
                        }
                    }
                    self.range_rec(children[i], lo, hi, limit, out, trace);
                    if out.len() >= limit {
                        break;
                    }
                }
            }
            Node::Free => unreachable!(),
        }
    }

    fn last_rec(&self, n: u32, lo: u64, hi: u64, trace: &mut Vec<u32>) -> Option<(u64, u64)> {
        trace.push(n);
        match &self.nodes[n as usize] {
            Node::Leaf { keys, vals } => {
                let end = keys.partition_point(|&k| k < hi);
                if end == 0 {
                    return None;
                }
                let i = end - 1;
                (keys[i] >= lo).then(|| (keys[i], vals[i]))
            }
            Node::Internal { keys, children } => {
                // Walk children from the rightmost that can contain < hi.
                let mut i = keys.partition_point(|&k| k < hi);
                loop {
                    if let Some(hit) = self.last_rec(children[i], lo, hi, trace) {
                        return Some(hit);
                    }
                    if i == 0 {
                        return None;
                    }
                    i -= 1;
                    // Subtree maximum below keys[i]; prune if under lo.
                    if keys[i] < lo {
                        return None;
                    }
                }
            }
            Node::Free => unreachable!(),
        }
    }
}

enum InsertResult {
    Done(Option<u64>),
    Split(u64, u32),
}

impl From<Option<(u64, u32)>> for InsertResult {
    /// A fresh key went in: the node either split or did not.
    fn from(split: Option<(u64, u32)>) -> Self {
        match split {
            Some((sep, right)) => InsertResult::Split(sep, right),
            None => InsertResult::Done(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclue_sim::SimRng;
    use std::collections::BTreeMap;

    fn t() -> Vec<u32> {
        Vec::new()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut b = BTree::new();
        for i in 0..1000u64 {
            assert_eq!(b.insert(i * 7 % 1000, i, &mut t()), None);
        }
        for i in 0..1000u64 {
            assert_eq!(b.get(i * 7 % 1000, &mut t()), Some(i));
        }
        assert_eq!(b.len(), 1000);
        assert_eq!(b.get(5000, &mut t()), None);
    }

    #[test]
    fn insert_replaces() {
        let mut b = BTree::new();
        assert_eq!(b.insert(5, 1, &mut t()), None);
        assert_eq!(b.insert(5, 2, &mut t()), Some(1));
        assert_eq!(b.get(5, &mut t()), Some(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn tree_grows_in_depth() {
        let mut b = BTree::new();
        assert_eq!(b.depth(), 1);
        for i in 0..10_000u64 {
            b.insert(i, i, &mut t());
        }
        assert!(b.depth() >= 3, "depth={}", b.depth());
        assert!(b.node_count() > 100);
    }

    #[test]
    fn trace_length_equals_depth_for_get() {
        let mut b = BTree::new();
        for i in 0..10_000u64 {
            b.insert(i, i, &mut t());
        }
        let mut trace = Vec::new();
        b.get(1234, &mut trace);
        assert_eq!(trace.len(), b.depth());
        assert_eq!(trace[0], b.root);
    }

    #[test]
    fn remove_then_get_misses() {
        let mut b = BTree::new();
        for i in 0..500u64 {
            b.insert(i, i + 1, &mut t());
        }
        assert_eq!(b.remove(250, &mut t()), Some(251));
        assert_eq!(b.get(250, &mut t()), None);
        assert_eq!(b.remove(250, &mut t()), None);
        assert_eq!(b.len(), 499);
    }

    #[test]
    fn fifo_workload_releases_nodes() {
        // The new-order pattern: insert at the tail, delete at the head.
        let mut b = BTree::new();
        for i in 0..1000u64 {
            b.insert(i, i, &mut t());
        }
        let peak = b.node_count();
        for i in 0..900u64 {
            b.insert(1000 + i, i, &mut t());
            b.remove(i, &mut t());
        }
        // Empty leaves must be reclaimed; node count should not balloon.
        assert!(
            b.node_count() < peak * 2,
            "nodes={} peak={peak}",
            b.node_count()
        );
        assert_eq!(b.len(), 1000);
    }

    #[test]
    fn range_scan_in_order() {
        let mut b = BTree::new();
        for i in (0..2000u64).rev() {
            b.insert(i * 2, i, &mut t());
        }
        let mut out = Vec::new();
        b.range(100, 140, usize::MAX, &mut out, &mut t());
        let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130,
                132, 134, 136, 138
            ]
        );
    }

    #[test]
    fn range_respects_limit() {
        let mut b = BTree::new();
        for i in 0..1000u64 {
            b.insert(i, i, &mut t());
        }
        let mut out = Vec::new();
        b.range(0, 1000, 7, &mut out, &mut t());
        assert_eq!(out.len(), 7);
        assert_eq!(out[6].0, 6);
    }

    #[test]
    fn last_in_range_finds_max() {
        let mut b = BTree::new();
        for i in 0..5000u64 {
            b.insert(i * 3, i, &mut t());
        }
        assert_eq!(b.last_in_range(0, 1000, &mut t()), Some((999, 333)));
        assert_eq!(b.last_in_range(998, 999, &mut t()), None);
        assert_eq!(b.last_in_range(0, u64::MAX, &mut t()), Some((14997, 4999)));
    }

    #[test]
    fn first_in_range_finds_min() {
        let mut b = BTree::new();
        for i in 10..100u64 {
            b.insert(i * 10, i, &mut t());
        }
        assert_eq!(b.first_in_range(0, u64::MAX, &mut t()), Some((100, 10)));
        assert_eq!(b.first_in_range(101, 110, &mut t()), None);
        assert_eq!(b.first_in_range(105, 121, &mut t()), Some((110, 11)));
    }

    #[test]
    fn min_key_reports_subtree_floor() {
        let mut b = BTree::new();
        for i in 100..5000u64 {
            b.insert(i, i, &mut t());
        }
        let mut trace = Vec::new();
        b.get(100, &mut trace);
        // The leaf holding key 100 reports a min key <= 100.
        let leaf = *trace.last().unwrap();
        assert!(b.min_key(leaf).unwrap() <= 100);
        assert_eq!(b.min_key(9999), None);
    }

    #[test]
    fn empty_tree_behaves() {
        let b = BTree::new();
        assert!(b.is_empty());
        assert_eq!(b.get(1, &mut t()), None);
        assert_eq!(b.last_in_range(0, 100, &mut t()), None);
        let mut out = Vec::new();
        b.range(0, 100, 10, &mut out, &mut t());
        assert!(out.is_empty());
    }

    #[test]
    fn root_shrinks_after_mass_deletion() {
        let mut b = BTree::new();
        for i in 0..5000u64 {
            b.insert(i, i, &mut t());
        }
        let deep = b.depth();
        assert!(deep >= 3);
        for i in 0..4999u64 {
            b.remove(i, &mut t());
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(4999, &mut t()), Some(4999));
        assert!(
            b.depth() < deep,
            "root must shrink: depth {} -> {}",
            deep,
            b.depth()
        );
    }

    #[test]
    fn range_spanning_many_leaves() {
        let mut b = BTree::new();
        for i in 0..10_000u64 {
            b.insert(i, i * 2, &mut t());
        }
        let mut out = Vec::new();
        let mut trace = Vec::new();
        b.range(2_000, 4_000, usize::MAX, &mut out, &mut trace);
        assert_eq!(out.len(), 2_000);
        assert_eq!(out.first(), Some(&(2_000, 4_000)));
        assert_eq!(out.last(), Some(&(3_999, 7_998)));
        // The scan touched many leaves but pruned the rest of the tree.
        assert!(trace.len() > 30, "traced {} nodes", trace.len());
        assert!(trace.len() < 100, "traced {} nodes", trace.len());
    }

    #[test]
    fn min_key_tracks_mutations() {
        let mut b = BTree::new();
        for i in 100..200u64 {
            b.insert(i, i, &mut t());
        }
        assert_eq!(b.min_key(0).map(|k| k >= 100), Some(true));
        let mut trace = Vec::new();
        b.get(100, &mut trace);
        let leaf = *trace.last().unwrap();
        b.remove(100, &mut t());
        // Leaf min key moved up after removing the smallest key.
        if let Some(k) = b.min_key(leaf) {
            assert!(k > 100);
        }
    }

    #[test]
    fn interleaved_duplicate_keys_replace_not_grow() {
        let mut b = BTree::new();
        for round in 0..50u64 {
            for k in 0..100u64 {
                b.insert(k, round, &mut t());
            }
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.get(50, &mut t()), Some(49));
        assert!(b.node_count() < 10, "no growth from replacement");
    }

    fn appended(keys: impl Iterator<Item = u64>) -> BTree {
        let mut b = BTree::new();
        for k in keys {
            b.push_max(k, k * 3);
        }
        b
    }

    #[test]
    fn push_max_builds_the_insert_tree_for_every_prefix() {
        // Grow one pair of trees key by key and compare at every count.
        let (mut a, mut b) = (BTree::new(), BTree::new());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for k in 0..5_000u64 {
            a.push_max(2 * k + 1, k);
            b.insert(2 * k + 1, k, &mut t());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "after {} keys", k + 1);
        }
    }

    #[test]
    fn push_max_builds_the_insert_tree_when_inner_nodes_split() {
        // 100k keys need four levels, so an internal node above the
        // first internal level splits too.
        let a = appended(0..100_000);
        assert!(a.depth() >= 4, "depth={}", a.depth());
        let mut b = BTree::new();
        for k in 0..100_000 {
            b.insert(k, k * 3, &mut t());
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.get(77_777, &mut t()), Some(233_331));
    }

    #[test]
    #[should_panic(expected = "push_max(7) after key 7")]
    fn push_max_rejects_an_equal_key() {
        appended([5, 7, 7].into_iter());
    }

    #[test]
    #[should_panic(expected = "push_max(6) after key 7")]
    fn push_max_rejects_a_smaller_key() {
        appended([5, 7, 6].into_iter());
    }

    #[test]
    #[should_panic(expected = "below separator")]
    fn push_max_rejects_a_key_below_a_separator() {
        // Four levels; emptying the upper keys leaves the rightmost spine
        // ending in an empty leaf under a stale separator, so a key past
        // the largest remaining one belongs left of the spine.
        let mut b = appended((0..100_000).map(|k| 2 * k));
        let Node::Internal { keys, .. } = &b.nodes[b.root as usize] else {
            unreachable!()
        };
        let sep = *keys.last().unwrap();
        for k in (sep..2 * 100_000).step_by(2) {
            b.remove(k, &mut t());
        }
        b.push_max(sep - 1, 0);
    }

    #[test]
    fn matches_btreemap() {
        let mut rng = SimRng::new(0xB7EE_0001);
        for case in 0..32 {
            let n_ops = rng.uniform(1, 399) as usize;
            let mut model = BTreeMap::new();
            let mut tree = BTree::new();
            for _ in 0..n_ops {
                let op = rng.uniform(0, 2) as u8;
                let k = rng.uniform(0, 499);
                let v = rng.uniform(0, 999);
                match op {
                    0 => {
                        assert_eq!(tree.insert(k, v, &mut t()), model.insert(k, v));
                    }
                    1 => {
                        assert_eq!(tree.remove(k, &mut t()), model.remove(&k));
                    }
                    _ => {
                        assert_eq!(tree.get(k, &mut t()), model.get(&k).copied());
                    }
                }
                assert_eq!(tree.len(), model.len(), "case {case}");
            }
            // Full-range scan equals the model's ordered contents.
            let mut out = Vec::new();
            tree.range(0, u64::MAX, usize::MAX, &mut out, &mut t());
            let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(out, expect, "case {case}");
        }
    }

    #[test]
    fn last_in_range_matches_model() {
        use std::collections::BTreeSet;
        let mut rng = SimRng::new(0xB7EE_0002);
        for case in 0..48 {
            let n_keys = rng.uniform(1, 299) as usize;
            let keys: BTreeSet<u64> = (0..n_keys).map(|_| rng.uniform(0, 1999)).collect();
            let lo = rng.uniform(0, 1999);
            let span = rng.uniform(1, 499);
            let hi = lo + span;
            let mut tree = BTree::new();
            for &k in &keys {
                tree.insert(k, k * 2, &mut t());
            }
            let expect = keys.range(lo..hi).next_back().map(|&k| (k, k * 2));
            assert_eq!(tree.last_in_range(lo, hi, &mut t()), expect, "case {case}");
        }
    }
}
