//! TPC-C input generation per the specification's random rules, adapted
//! to the scaled database exactly as the paper scales it.

use dclue_db::tpcc::{LineInput, TxnInput, TxnKind};
use dclue_db::TpccScale;
use dclue_sim::SimRng;

/// One business transaction: the sequence of TPC-C transactions a client
/// session runs over a single TCP connection, opening with a new-order
/// and preserving the nominal 43/43/5/5/4 mix in aggregate.
#[derive(Debug)]
pub struct BusinessTxn {
    pub txns: Vec<TxnInput>,
}

/// NURand `A` parameter scaled to the domain. The spec fixes A=1023 for
/// customer ids over 3000 (~range/3) and A=8191 for item ids over 100K
/// (~range/12); we keep those ratios for scaled domains by picking the
/// `2^k - 1` closest to `range / divisor`.
fn nurand_a(range: u64, divisor: u64) -> u64 {
    let target = (range / divisor).max(1) as f64;
    let mut best = 0u64;
    for k in 0..32 {
        let a = (1u64 << k) - 1;
        if best == 0 || ((a as f64 - target).abs() < (best as f64 - target).abs()) {
            best = a;
        }
    }
    best
}

/// Generates TPC-C inputs for one cluster.
pub struct TpccGenerator {
    scale: TpccScale,
    rng: SimRng,
    /// Per-run NURand C constants.
    c_cust: u64,
    c_item: u64,
}

impl TpccGenerator {
    pub fn new(scale: TpccScale, rng: SimRng) -> Self {
        let mut rng = rng;
        let c_cust = rng.uniform(0, 1023);
        let c_item = rng.uniform(0, 8191);
        TpccGenerator {
            scale,
            rng,
            c_cust,
            c_item,
        }
    }

    fn customer(&mut self) -> u32 {
        let n = self.scale.customers_per_district as u64;
        self.rng.nurand(nurand_a(n, 3), 1, n, self.c_cust) as u32
    }

    fn item(&mut self) -> u32 {
        let n = self.scale.items as u64;
        self.rng.nurand(nurand_a(n, 12), 1, n, self.c_item) as u32
    }

    fn other_warehouse(&mut self, w: u32) -> u32 {
        if self.scale.warehouses <= 1 {
            return w;
        }
        loop {
            let o = self.rng.uniform(1, self.scale.warehouses as u64) as u32;
            if o != w {
                return o;
            }
        }
    }

    /// New-order input for home warehouse `w`.
    pub fn new_order(&mut self, w: u32) -> TxnInput {
        let d = self.rng.uniform(1, self.scale.districts_per_wh as u64) as u32;
        let c = self.customer();
        let n_lines = self.rng.uniform(5, 15) as usize;
        let lines = (0..n_lines)
            .map(|_| {
                let item = self.item();
                // Spec: 1% of lines are supplied by a remote warehouse.
                let supply_w = if self.rng.chance(0.01) {
                    self.other_warehouse(w)
                } else {
                    w
                };
                LineInput {
                    item,
                    supply_w,
                    qty: self.rng.uniform(1, 10) as u8,
                }
            })
            .collect();
        TxnInput {
            kind: TxnKind::NewOrder,
            w,
            d,
            c,
            c_w: w,
            c_d: d,
            lines,
            amount: 0,
            rollback: self.rng.chance(0.01),
            threshold: 0,
            by_name: false,
        }
    }

    pub fn payment(&mut self, w: u32) -> TxnInput {
        let d = self.rng.uniform(1, self.scale.districts_per_wh as u64) as u32;
        // Spec: 15% of payments hit a customer of a remote warehouse.
        let (c_w, c_d) = if self.rng.chance(0.15) {
            (
                self.other_warehouse(w),
                self.rng.uniform(1, self.scale.districts_per_wh as u64) as u32,
            )
        } else {
            (w, d)
        };
        TxnInput {
            kind: TxnKind::Payment,
            w,
            d,
            c: self.customer(),
            c_w,
            c_d,
            lines: Vec::new(),
            amount: self.rng.uniform(100, 500_000) as u32,
            rollback: false,
            threshold: 0,
            // Spec clause 2.5.1.2: 60% of payments select by last name.
            by_name: self.rng.chance(0.6),
        }
    }

    pub fn order_status(&mut self, w: u32) -> TxnInput {
        let d = self.rng.uniform(1, self.scale.districts_per_wh as u64) as u32;
        TxnInput {
            kind: TxnKind::OrderStatus,
            w,
            d,
            c: self.customer(),
            c_w: w,
            c_d: d,
            lines: Vec::new(),
            amount: 0,
            rollback: false,
            threshold: 0,
            // Spec clause 2.6.1.2: 60% of status queries by last name.
            by_name: self.rng.chance(0.6),
        }
    }

    pub fn delivery(&mut self, w: u32) -> TxnInput {
        TxnInput {
            kind: TxnKind::Delivery,
            w,
            d: 1,
            c: 1,
            c_w: w,
            c_d: 1,
            lines: Vec::new(),
            amount: 0,
            rollback: false,
            threshold: 0,
            by_name: false,
        }
    }

    pub fn stock_level(&mut self, w: u32) -> TxnInput {
        let d = self.rng.uniform(1, self.scale.districts_per_wh as u64) as u32;
        TxnInput {
            kind: TxnKind::StockLevel,
            w,
            d,
            c: 1,
            c_w: w,
            c_d: d,
            lines: Vec::new(),
            amount: 0,
            rollback: false,
            threshold: self.rng.uniform(10, 20) as u32,
            by_name: false,
        }
    }

    /// A business transaction for home warehouse `w`: always opens with a
    /// new-order and a payment, and appends the rarer transactions with
    /// probabilities that reproduce the 43/43/5/5/4 aggregate mix.
    pub fn business_txn(&mut self, w: u32) -> BusinessTxn {
        dclue_trace::metric_add!("workload.business_txns", 1);
        let mut txns = vec![self.new_order(w), self.payment(w)];
        if self.rng.chance(5.0 / 43.0) {
            txns.push(self.order_status(w));
        }
        if self.rng.chance(5.0 / 43.0) {
            txns.push(self.delivery(w));
        }
        if self.rng.chance(4.0 / 43.0) {
            txns.push(self.stock_level(w));
        }
        BusinessTxn { txns }
    }

    pub fn scale(&self) -> &TpccScale {
        &self.scale
    }
}

/// Affinity routing (§2.2): with probability `affinity` the transaction
/// goes to the node hosting its warehouse, otherwise to a uniformly
/// random node. Warehouses are partitioned in equal contiguous blocks.
pub fn route_node(w: u32, warehouses: u32, nodes: u32, affinity: f64, rng: &mut SimRng) -> u32 {
    let per_node = warehouses.div_ceil(nodes).max(1);
    let home = ((w - 1) / per_node).min(nodes - 1);
    if rng.unit() < affinity {
        home
    } else {
        rng.uniform(0, nodes as u64 - 1) as u32
    }
}

/// Home node of a warehouse under block partitioning.
pub fn home_node(w: u32, warehouses: u32, nodes: u32) -> u32 {
    let per_node = warehouses.div_ceil(nodes).max(1);
    ((w - 1) / per_node).min(nodes - 1)
}

/// The contiguous warehouse block `[w_lo, w_hi]` homed on `node` under
/// block partitioning (the inverse image of [`home_node`]). The last
/// node absorbs the clamped tail. Returns `(1, 0)` — an empty span —
/// for nodes beyond the warehouse count.
pub fn node_warehouse_span(node: u32, nodes: u32, warehouses: u32) -> (u32, u32) {
    let per_node = warehouses.div_ceil(nodes).max(1);
    let w_lo = node * per_node + 1;
    let w_hi = if node == nodes - 1 {
        warehouses
    } else {
        ((node + 1) * per_node).min(warehouses)
    };
    if w_lo > warehouses {
        (1, 0)
    } else {
        (w_lo, w_hi)
    }
}

/// How many of `total_sessions` closed-loop terminals are homed on
/// `node`: the exact count of sessions `i` whose evenly-spread home
/// warehouse `floor(i*W/S) + 1` falls in `node`'s block. Closed form,
/// so a million-terminal population costs nothing to place. The
/// per-node counts telescope to exactly `total_sessions`.
pub fn node_population(node: u32, nodes: u32, warehouses: u32, total_sessions: u64) -> u64 {
    let (w_lo, w_hi) = node_warehouse_span(node, nodes, warehouses);
    if w_lo > w_hi {
        return 0;
    }
    // home_w(i) >= w ⟺ i >= ceil((w-1)*S/W); count the half-open
    // session-index interval for the block (u128: W, S can each be
    // large enough for the product to clear u64).
    let bound = |w: u32| -> u64 {
        let lo = (w as u128 - 1) * total_sessions as u128;
        (lo.div_ceil(warehouses as u128) as u64).min(total_sessions)
    };
    bound(w_hi + 1) - bound(w_lo)
}

/// How many of `total_sessions` terminals are homed on warehouse `w`
/// (1-based) under the same evenly-spread layout as `node_population`.
/// The per-warehouse counts telescope to exactly `total_sessions`, so
/// the aggregate client model can reproduce the exact driver's fixed
/// terminal→warehouse stratification without enumerating sessions.
pub fn warehouse_population(w: u32, warehouses: u32, total_sessions: u64) -> u64 {
    let bound = |w: u32| -> u64 {
        let lo = (w as u128 - 1) * total_sessions as u128;
        (lo.div_ceil(warehouses as u128) as u64).min(total_sessions)
    };
    bound(w + 1) - bound(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclue_sim::SimRng;

    fn gen() -> TpccGenerator {
        TpccGenerator::new(TpccScale::scaled(40), SimRng::new(7))
    }

    #[test]
    fn new_order_inputs_in_domain() {
        let mut g = gen();
        for _ in 0..200 {
            let t = g.new_order(3);
            assert_eq!(t.w, 3);
            assert!((1..=10).contains(&t.d));
            assert!((1..=300).contains(&t.c));
            assert!((5..=15).contains(&t.lines.len()));
            for l in &t.lines {
                assert!((1..=1000).contains(&l.item));
                assert!((1..=40).contains(&l.supply_w));
                assert!((1..=10).contains(&l.qty));
            }
        }
    }

    #[test]
    fn remote_supply_rate_near_one_percent() {
        let mut g = gen();
        let mut remote = 0;
        let mut total = 0;
        for _ in 0..2000 {
            let t = g.new_order(1);
            for l in &t.lines {
                total += 1;
                if l.supply_w != 1 {
                    remote += 1;
                }
            }
        }
        let rate = remote as f64 / total as f64;
        assert!(rate > 0.003 && rate < 0.03, "rate={rate}");
    }

    #[test]
    fn payment_remote_rate_near_fifteen_percent() {
        let mut g = gen();
        let remote = (0..2000).filter(|_| g.payment(2).c_w != 2).count();
        let rate = remote as f64 / 2000.0;
        assert!(rate > 0.10 && rate < 0.20, "rate={rate}");
    }

    #[test]
    fn business_txn_mix_is_nominal() {
        let mut g = gen();
        let mut counts = [0usize; 5];
        let mut total = 0usize;
        for _ in 0..5000 {
            let b = g.business_txn(1);
            assert_eq!(b.txns[0].kind, dclue_db::TxnKind::NewOrder);
            assert_eq!(b.txns[1].kind, dclue_db::TxnKind::Payment);
            for t in &b.txns {
                let i = match t.kind {
                    dclue_db::TxnKind::NewOrder => 0,
                    dclue_db::TxnKind::Payment => 1,
                    dclue_db::TxnKind::OrderStatus => 2,
                    dclue_db::TxnKind::Delivery => 3,
                    dclue_db::TxnKind::StockLevel => 4,
                };
                counts[i] += 1;
                total += 1;
            }
        }
        let frac: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        assert!((frac[0] - 0.43).abs() < 0.02, "new-order {frac:?}");
        assert!((frac[1] - 0.43).abs() < 0.02, "payment {frac:?}");
        assert!((frac[2] - 0.05).abs() < 0.01, "status {frac:?}");
        assert!((frac[3] - 0.05).abs() < 0.01, "delivery {frac:?}");
        assert!((frac[4] - 0.04).abs() < 0.01, "stock {frac:?}");
    }

    #[test]
    fn nurand_a_matches_spec_anchors() {
        // The spec's own constants fall out at full scale...
        assert_eq!(nurand_a(3000, 3), 1023);
        assert_eq!(nurand_a(100_000, 12), 8191);
        // ...and scaled domains keep the ratio.
        assert_eq!(nurand_a(300, 3), 127);
        assert_eq!(nurand_a(1000, 12), 63);
    }

    #[test]
    fn affinity_one_always_routes_home() {
        let mut rng = SimRng::new(1);
        for w in 1..=40 {
            let n = route_node(w, 40, 8, 1.0, &mut rng);
            assert_eq!(n, home_node(w, 40, 8));
        }
    }

    #[test]
    fn affinity_zero_routes_uniformly() {
        let mut rng = SimRng::new(2);
        let mut counts = vec![0usize; 8];
        for _ in 0..8000 {
            counts[route_node(1, 40, 8, 0.0, &mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn partial_affinity_routes_home_at_rate() {
        let mut rng = SimRng::new(3);
        let home = home_node(5, 40, 8);
        let hits = (0..10_000)
            .filter(|_| route_node(5, 40, 8, 0.8, &mut rng) == home)
            .count();
        // 0.8 + 0.2/8 = 0.825 expected.
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.825).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn warehouses_partition_evenly() {
        let nodes = 4;
        let mut per = vec![0; nodes as usize];
        for w in 1..=40 {
            per[home_node(w, 40, nodes) as usize] += 1;
        }
        assert_eq!(per, vec![10, 10, 10, 10]);
    }

    #[test]
    fn warehouse_span_inverts_home_node() {
        for &(nodes, warehouses) in &[(4u32, 40u32), (8, 40), (3, 10), (8, 10), (16, 7), (1, 5)] {
            for k in 0..nodes {
                let (lo, hi) = node_warehouse_span(k, nodes, warehouses);
                for w in 1..=warehouses {
                    let inside = lo <= hi && (lo..=hi).contains(&w);
                    assert_eq!(
                        home_node(w, warehouses, nodes) == k,
                        inside,
                        "n={nodes} W={warehouses} k={k} w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_population_matches_exact_session_layout() {
        // The closed form must count exactly the sessions the exact
        // client model homes on each node (home_w(i) = i*W/S + 1).
        for &(nodes, warehouses, sessions) in &[
            (4u32, 40u32, 800u64),
            (8, 40, 801),
            (3, 10, 17),
            (8, 10, 1000),
            (16, 7, 64),
            (1, 5, 9),
        ] {
            let mut counted = vec![0u64; nodes as usize];
            for i in 0..sessions {
                let w = (i * warehouses as u64 / sessions) as u32 + 1;
                counted[home_node(w, warehouses, nodes) as usize] += 1;
            }
            let mut total = 0;
            for k in 0..nodes {
                let pop = node_population(k, nodes, warehouses, sessions);
                assert_eq!(pop, counted[k as usize], "n={nodes} W={warehouses} k={k}");
                total += pop;
            }
            assert_eq!(total, sessions);
        }
    }

    #[test]
    fn warehouse_population_matches_exact_session_layout() {
        // The per-warehouse closed form must count exactly the sessions
        // the exact client model homes on each warehouse, and telescope
        // to each node's population.
        for &(nodes, warehouses, sessions) in &[
            (4u32, 40u32, 800u64),
            (8, 40, 801),
            (3, 10, 17),
            (8, 10, 1000),
            (16, 7, 64),
            (1, 5, 9),
        ] {
            let mut counted = vec![0u64; warehouses as usize + 1];
            for i in 0..sessions {
                let w = (i * warehouses as u64 / sessions) as u32 + 1;
                counted[w as usize] += 1;
            }
            for w in 1..=warehouses {
                assert_eq!(
                    warehouse_population(w, warehouses, sessions),
                    counted[w as usize],
                    "W={warehouses} S={sessions} w={w}"
                );
            }
            for k in 0..nodes {
                let (lo, hi) = node_warehouse_span(k, nodes, warehouses);
                let by_wh: u64 = (lo..=hi)
                    .map(|w| warehouse_population(w, warehouses, sessions))
                    .sum();
                assert_eq!(by_wh, node_population(k, nodes, warehouses, sessions));
            }
        }
    }

    #[test]
    fn node_population_handles_million_scale_without_overflow() {
        let nodes = 512;
        let warehouses = 1024;
        let sessions = 512u64 * 1_000_000;
        let total: u64 = (0..nodes)
            .map(|k| node_population(k, nodes, warehouses, sessions))
            .sum();
        assert_eq!(total, sessions);
    }
}
