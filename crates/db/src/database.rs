//! The in-memory TPC-C database instance: table stores, B+-tree indices,
//! the version store, and the timestamp source.
//!
//! One `Database` exists per simulated cluster (the logical, coherent
//! database that cache fusion presents); per-node state — buffer caches
//! and lock shards — lives elsewhere. Row payloads keep only the fields
//! queries need, while sizing (rows per page, pages per table) follows
//! the real row widths in [`crate::schema`].

use crate::btree::BTree;
use crate::mvcc::VersionStore;
use crate::schema::{self, Table, TpccScale};

/// Rowid span reserved per warehouse in growing tables, so their pages
/// never straddle warehouses (required for per-warehouse storage homes).
pub const WH_ROW_SPAN: u64 = 1 << 24;
/// Page-number span per warehouse for growing tables.
pub const WH_PAGE_SPAN: u64 = 1 << 16;

// ---------------------------------------------------------------------
// Row payloads (business fields only; widths come from the schema).
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
pub struct WarehouseRow {
    pub ytd: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct DistrictRow {
    pub next_o_id: u32,
    pub ytd: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct CustomerRow {
    pub balance: i64,
    pub ytd_payment: u64,
    pub payment_cnt: u32,
    pub delivery_cnt: u32,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct StockRow {
    pub quantity: i32,
    pub ytd: u32,
    pub order_cnt: u32,
    pub remote_cnt: u32,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ItemRow {
    pub price: u32,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct OrderRow {
    pub c_id: u32,
    pub ol_cnt: u8,
    pub carrier_id: u8,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct OrderLineRow {
    pub i_id: u32,
    pub qty: u8,
    pub amount: u32,
    pub delivered: bool,
}

// ---------------------------------------------------------------------
// Per-warehouse arena store for growing tables.
// ---------------------------------------------------------------------

#[derive(Debug)]
pub struct Store<T> {
    arenas: Vec<Arena<T>>,
    table: Table,
}

#[derive(Debug)]
struct Arena<T> {
    rows: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T: Copy> Store<T> {
    fn new(table: Table, warehouses: u32) -> Self {
        Store {
            arenas: (0..warehouses)
                .map(|_| Arena {
                    rows: Vec::new(),
                    free: Vec::new(),
                })
                .collect(),
            table,
        }
    }

    /// Rowid that the next insert into warehouse `w` will use.
    pub fn peek_rowid(&self, w: u32) -> u64 {
        let a = &self.arenas[(w - 1) as usize];
        let local = a.free.last().copied().unwrap_or(a.rows.len() as u32);
        (w as u64 - 1) * WH_ROW_SPAN + local as u64
    }

    pub fn insert(&mut self, w: u32, row: T) -> u64 {
        let a = &mut self.arenas[(w - 1) as usize];
        let local = match a.free.pop() {
            Some(i) => {
                a.rows[i as usize] = Some(row);
                i
            }
            None => {
                a.rows.push(Some(row));
                (a.rows.len() - 1) as u32
            }
        };
        (w as u64 - 1) * WH_ROW_SPAN + local as u64
    }

    pub fn get(&self, rowid: u64) -> Option<&T> {
        let (w, local) = split(rowid);
        self.arenas.get(w)?.rows.get(local).and_then(|r| r.as_ref())
    }

    pub fn get_mut(&mut self, rowid: u64) -> Option<&mut T> {
        let (w, local) = split(rowid);
        self.arenas
            .get_mut(w)?
            .rows
            .get_mut(local)
            .and_then(|r| r.as_mut())
    }

    pub fn remove(&mut self, rowid: u64) -> Option<T> {
        let (w, local) = split(rowid);
        let a = self.arenas.get_mut(w)?;
        let slot = a.rows.get_mut(local)?;
        let old = slot.take();
        if old.is_some() {
            a.free.push(local as u32);
        }
        old
    }

    /// `(page, slot)` of a rowid, in the table's global page namespace.
    pub fn page_slot(&self, rowid: u64) -> (u64, u64) {
        let (w, local) = split(rowid);
        let rpp = self.table.rows_per_page();
        (
            w as u64 * WH_PAGE_SPAN + local as u64 / rpp,
            local as u64 % rpp,
        )
    }

    pub fn len(&self) -> usize {
        self.arenas
            .iter()
            .map(|a| a.rows.len() - a.free.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[inline]
fn split(rowid: u64) -> (usize, usize) {
    (
        (rowid / WH_ROW_SPAN) as usize,
        (rowid % WH_ROW_SPAN) as usize,
    )
}

// ---------------------------------------------------------------------
// The database.
// ---------------------------------------------------------------------

/// The cluster-wide logical database.
pub struct Database {
    pub scale: TpccScale,
    pub warehouses: Vec<WarehouseRow>,
    pub districts: Vec<DistrictRow>,
    pub customers: Vec<CustomerRow>,
    pub stocks: Vec<StockRow>,
    pub items: Vec<ItemRow>,
    pub orders: Store<OrderRow>,
    pub new_orders: Store<()>,
    pub order_lines: Store<OrderLineRow>,
    pub history_rows: u64,
    /// Indices for the eight keyed tables (history is heap-only).
    idx: Vec<BTree>,
    pub versions: VersionStore,
    /// Page-grain locking override (ablation; default subpage-grain).
    pub coarse_locks: bool,
    ts: u64,
}

impl Database {
    /// Build and initialise the whole database per TPC-C rules.
    pub fn build(scale: TpccScale) -> Self {
        let w_n = scale.warehouses;
        let mut db = Database {
            warehouses: vec![WarehouseRow::default(); w_n as usize],
            districts: vec![
                DistrictRow {
                    next_o_id: scale.initial_orders_per_district + 1,
                    ytd: 0,
                };
                scale.districts() as usize
            ],
            customers: vec![CustomerRow::default(); scale.customers() as usize],
            stocks: vec![
                StockRow {
                    quantity: 50,
                    ..Default::default()
                };
                scale.stock_rows() as usize
            ],
            items: (0..scale.items)
                .map(|i| ItemRow {
                    price: 100 + (i * 37) % 9900,
                })
                .collect(),
            orders: Store::new(Table::Order, w_n),
            new_orders: Store::new(Table::NewOrder, w_n),
            order_lines: Store::new(Table::OrderLine, w_n),
            history_rows: 0,
            idx: (0..8).map(|_| BTree::new()).collect(),
            versions: VersionStore::new(64 << 20),
            coarse_locks: false,
            ts: 1,
            scale,
        };
        db.build_indices_and_orders();
        db
    }

    /// Every loop below runs in `w`, `d`, then row order, and the schema
    /// encodes keys w-major, so each index receives strictly ascending
    /// keys and is bulk-loaded with `push_max` (same tree as `insert`).
    fn build_indices_and_orders(&mut self) {
        let scale = self.scale.clone();
        // Fixed tables: dense rowids, keys from the schema encoders.
        for w in 1..=scale.warehouses {
            self.idx[Table::Warehouse.id() as usize].push_max(schema::wh_key(w), (w - 1) as u64);
            for d in 1..=scale.districts_per_wh {
                let drow = ((w - 1) * scale.districts_per_wh + (d - 1)) as u64;
                self.idx[Table::District.id() as usize].push_max(schema::district_key(w, d), drow);
                for c in 1..=scale.customers_per_district {
                    let crow = drow * scale.customers_per_district as u64 + (c - 1) as u64;
                    self.idx[Table::Customer.id() as usize]
                        .push_max(schema::customer_key(w, d, c), crow);
                }
            }
            for i in 1..=scale.items {
                let srow = ((w - 1) * scale.items + (i - 1)) as u64;
                self.idx[Table::Stock.id() as usize].push_max(schema::stock_key(w, i), srow);
            }
        }
        for i in 1..=scale.items {
            self.idx[Table::Item.id() as usize].push_max(schema::item_key(i), (i - 1) as u64);
        }

        // Initial orders: the most recent 30% are open (new-order rows).
        let open_from = scale.initial_orders_per_district
            - (scale.initial_orders_per_district * 3 / 10).max(1)
            + 1;
        let mut lcg: u64 = 0x9E3779B97F4A7C15;
        let mut rand = move || {
            lcg ^= lcg << 13;
            lcg ^= lcg >> 7;
            lcg ^= lcg << 17;
            lcg
        };
        for w in 1..=scale.warehouses {
            for d in 1..=scale.districts_per_wh {
                for o in 1..=scale.initial_orders_per_district {
                    let c = (rand() % scale.customers_per_district as u64) as u32 + 1;
                    let ol_cnt = 5 + (rand() % 11) as u8;
                    let rowid = self.orders.insert(
                        w,
                        OrderRow {
                            c_id: c,
                            ol_cnt,
                            carrier_id: if o < open_from { 1 } else { 0 },
                        },
                    );
                    self.idx[Table::Order.id() as usize]
                        .push_max(schema::order_key(w, d, o), rowid);
                    if o >= open_from {
                        let no = self.new_orders.insert(w, ());
                        self.idx[Table::NewOrder.id() as usize]
                            .push_max(schema::order_key(w, d, o), no);
                    }
                    for ol in 0..ol_cnt as u32 {
                        let i_id = (rand() % scale.items as u64) as u32 + 1;
                        let olrow = self.order_lines.insert(
                            w,
                            OrderLineRow {
                                i_id,
                                qty: 5,
                                amount: 0,
                                delivered: o < open_from,
                            },
                        );
                        self.idx[Table::OrderLine.id() as usize]
                            .push_max(schema::order_line_key(w, d, o, ol), olrow);
                    }
                }
            }
        }
    }

    /// Monotone logical timestamp source.
    pub fn next_ts(&mut self) -> u64 {
        self.ts += 1;
        self.ts
    }

    pub fn current_ts(&self) -> u64 {
        self.ts
    }

    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, table: Table) -> &BTree {
        &self.idx[table.id() as usize]
    }

    #[allow(clippy::should_implement_trait)]
    pub fn index_mut(&mut self, table: Table) -> &mut BTree {
        &mut self.idx[table.id() as usize]
    }

    /// Index lookup returning `(rowid, data_page, slot)` and tracing the
    /// index pages touched.
    pub fn locate(&self, table: Table, key: u64, trace: &mut Vec<u32>) -> Option<(u64, u64, u64)> {
        let rowid = self.idx[table.id() as usize].get(key, trace)?;
        Some(self.page_slot_of(table, rowid))
    }

    /// `(rowid, page, slot)` for a known rowid.
    pub fn page_slot_of(&self, table: Table, rowid: u64) -> (u64, u64, u64) {
        let rpp = table.rows_per_page();
        match table {
            Table::Order => {
                let (p, s) = self.orders.page_slot(rowid);
                (rowid, p, s)
            }
            Table::NewOrder => {
                let (p, s) = self.new_orders.page_slot(rowid);
                (rowid, p, s)
            }
            Table::OrderLine => {
                let (p, s) = self.order_lines.page_slot(rowid);
                (rowid, p, s)
            }
            Table::History => (rowid, rowid / rpp, rowid % rpp),
            _ => (rowid, rowid / rpp, rowid % rpp),
        }
    }

    /// Total pages a full scan of `table`'s data would touch (for buffer
    /// sizing heuristics).
    pub fn data_pages(&self, table: Table) -> u64 {
        let rows = match table {
            Table::Warehouse => self.warehouses.len() as u64,
            Table::District => self.districts.len() as u64,
            Table::Customer => self.customers.len() as u64,
            Table::Stock => self.stocks.len() as u64,
            Table::Item => self.items.len() as u64,
            Table::Order => self.orders.len() as u64,
            Table::NewOrder => self.new_orders.len() as u64,
            Table::OrderLine => self.order_lines.len() as u64,
            Table::History => self.history_rows,
        };
        rows.div_ceil(table.rows_per_page())
    }

    /// Approximate total footprint in pages (data + index).
    pub fn total_pages(&self) -> u64 {
        let data: u64 = Table::ALL.iter().map(|&t| self.data_pages(t)).sum();
        let index: u64 = self.idx.iter().map(|b| b.node_count() as u64).sum();
        data + index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Database {
        Database::build(TpccScale {
            warehouses: 2,
            districts_per_wh: 10,
            customers_per_district: 30,
            items: 100,
            initial_orders_per_district: 20,
        })
    }

    #[test]
    fn build_populates_fixed_tables() {
        let db = small();
        assert_eq!(db.warehouses.len(), 2);
        assert_eq!(db.districts.len(), 20);
        assert_eq!(db.customers.len(), 600);
        assert_eq!(db.stocks.len(), 200);
        assert_eq!(db.items.len(), 100);
    }

    #[test]
    fn initial_orders_present_and_indexed() {
        let db = small();
        assert_eq!(db.orders.len(), 2 * 10 * 20);
        assert!(!db.new_orders.is_empty());
        assert!(db.order_lines.len() > db.orders.len() * 4);
        // Every district's next_o_id points past the loaded orders.
        for d in &db.districts {
            assert_eq!(d.next_o_id, 21);
        }
        // Index can find a known order.
        let mut tr = Vec::new();
        let found = db
            .index(Table::Order)
            .get(schema::order_key(1, 1, 1), &mut tr);
        assert!(found.is_some());
    }

    #[test]
    fn locate_roundtrips_customer() {
        let db = small();
        let mut tr = Vec::new();
        let (rowid, page, slot) = db
            .locate(Table::Customer, schema::customer_key(2, 3, 7), &mut tr)
            .unwrap();
        assert_eq!(rowid, ((10 + 2) * 30 + 6) as u64);
        assert_eq!(page, rowid / Table::Customer.rows_per_page());
        assert_eq!(slot, rowid % Table::Customer.rows_per_page());
        assert!(!tr.is_empty(), "index pages must be traced");
    }

    #[test]
    fn store_insert_remove_reuses_slots() {
        let mut s: Store<OrderRow> = Store::new(Table::Order, 2);
        let a = s.insert(1, OrderRow::default());
        let b = s.insert(1, OrderRow::default());
        assert_ne!(a, b);
        s.remove(a);
        let c = s.insert(1, OrderRow::default());
        assert_eq!(a, c, "freed slot reused");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn store_pages_stay_within_warehouse() {
        let mut s: Store<()> = Store::new(Table::NewOrder, 2);
        let r1 = s.insert(1, ());
        let r2 = s.insert(2, ());
        let (p1, _) = s.page_slot(r1);
        let (p2, _) = s.page_slot(r2);
        assert_eq!(p1, 0);
        assert_eq!(p2, WH_PAGE_SPAN);
    }

    #[test]
    fn peek_rowid_predicts_insert() {
        let mut s: Store<OrderRow> = Store::new(Table::Order, 1);
        let peek = s.peek_rowid(1);
        let got = s.insert(1, OrderRow::default());
        assert_eq!(peek, got);
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut db = small();
        let a = db.next_ts();
        let b = db.next_ts();
        assert!(b > a);
    }

    /// The simulator uses index node ids as buffer-cache and fusion page
    /// ids, so the bulk load must not move a single node. Measured with
    /// the `insert`-built loader at `scaled(40)`, one node's share.
    #[test]
    fn index_page_layout_is_pinned_at_40_warehouses() {
        let db = Database::build(TpccScale::scaled(40));
        let expect = [
            (Table::Warehouse, 1, 1),
            (Table::District, 13, 2),
            (Table::Customer, 3866, 4),
            (Table::Stock, 1287, 3),
            (Table::Item, 32, 2),
            (Table::NewOrder, 386, 3),
            (Table::Order, 1287, 3),
            (Table::OrderLine, 12909, 4),
        ];
        for (table, nodes, depth) in expect {
            let idx = db.index(table);
            assert_eq!((idx.node_count(), idx.depth()), (nodes, depth), "{table:?}");
        }
        assert_eq!(db.total_pages(), 34120);
    }

    #[test]
    fn bulk_loaded_indices_equal_insert_built_ones() {
        let db = Database::build(TpccScale::scaled(2));
        for &table in &Table::ALL[..8] {
            let idx = db.index(table);
            let mut rows = Vec::new();
            idx.range(0, u64::MAX, usize::MAX, &mut rows, &mut Vec::new());
            assert_eq!(rows.len(), idx.len(), "{table:?}");
            let mut rebuilt = BTree::new();
            for (k, v) in rows {
                rebuilt.insert(k, v, &mut Vec::new());
            }
            assert_eq!(format!("{idx:?}"), format!("{rebuilt:?}"), "{table:?}");
        }
    }

    #[test]
    fn total_pages_is_positive_and_sane() {
        let db = small();
        let pages = db.total_pages();
        assert!(pages > 50, "pages={pages}");
        assert!(pages < 100_000);
    }
}
