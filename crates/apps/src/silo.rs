//! A silo-like transactional in-memory database.
//!
//! Mirrors the structure of Silo (SOSP'13) running TPC-C-style workloads:
//! row-store tables ([`RecordArray`]) indexed by B+trees
//! ([`BTreeIndex`]), with the five TPC-C transaction types plus the
//! synthetic *bidding* transaction that the paper uses as `silo`'s target
//! workload. The dataset-generator parameters (Table III) are the number of
//! warehouses and the transaction-type mix.

use crate::btree::{BTreeIndex, RecordArray};
use crate::engine::{App, CodeLayout, CodeRegion};
use datamime_sim::{Machine, SimAlloc};
use datamime_stats::dist::Categorical;
use datamime_stats::Rng;

/// Transaction types the database serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// TPC-C new-order: the read-write backbone transaction.
    NewOrder,
    /// TPC-C payment.
    Payment,
    /// TPC-C delivery (batch of deferred orders).
    Delivery,
    /// TPC-C order-status (read-only).
    OrderStatus,
    /// TPC-C stock-level (read-only scan).
    StockLevel,
    /// The paper's synthetic bidding transaction: read an item's current
    /// bid, compare, and conditionally overwrite.
    Bid,
}

/// All transaction kinds in a canonical order.
pub const TX_KINDS: [TxKind; 6] = [
    TxKind::NewOrder,
    TxKind::Payment,
    TxKind::Delivery,
    TxKind::OrderStatus,
    TxKind::StockLevel,
    TxKind::Bid,
];

/// Dataset configuration for [`SiloDb`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiloConfig {
    /// TPC-C scale factor.
    pub n_warehouses: u32,
    /// Weights over [`TX_KINDS`] (normalized internally; all-zero is
    /// invalid).
    pub tx_mix: [f64; 6],
    /// Number of items in the bidding table (used by [`TxKind::Bid`]).
    pub n_bid_items: u64,
    /// Seed for request randomness derived state.
    pub seed: u64,
}

impl SiloConfig {
    /// The paper's target workload for `silo`: a synthetic bidding dataset
    /// where every transaction bids on a random item.
    pub fn bidding_target() -> Self {
        SiloConfig {
            n_warehouses: 1,
            tx_mix: [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            n_bid_items: 6_000_000,
            seed: 0xB1D,
        }
    }

    /// TailBench's default public dataset: the standard TPC-C mix
    /// (45/43/4/4/4) at a small scale.
    pub fn tpcc_default() -> Self {
        SiloConfig {
            n_warehouses: 4,
            tx_mix: [0.45, 0.43, 0.04, 0.04, 0.04, 0.0],
            n_bid_items: 1,
            seed: 0x79CC,
        }
    }
}

// TPC-C cardinalities per warehouse and row sizes (bytes).
const DISTRICTS_PER_WH: u64 = 10;
const CUSTOMERS_PER_WH: u64 = 30_000;
const STOCK_PER_WH: u64 = 100_000;
const N_ITEMS: u64 = 100_000;
const ORDER_RING: u64 = 65_536; // recent orders kept per warehouse

const WAREHOUSE_BYTES: u64 = 89;
const DISTRICT_BYTES: u64 = 95;
const CUSTOMER_BYTES: u64 = 655;
const STOCK_BYTES: u64 = 306;
const ITEM_BYTES: u64 = 82;
const ORDER_BYTES: u64 = 24;
const ORDERLINE_BYTES: u64 = 54;
const BID_BYTES: u64 = 64;

/// The silo-like database (see module docs).
#[derive(Debug, Clone)]
pub struct SiloDb {
    cfg: SiloConfig,
    mix: Categorical,
    warehouses: RecordArray,
    districts: RecordArray,
    customers: RecordArray,
    stock: RecordArray,
    items: RecordArray,
    orders: RecordArray,
    orderlines: RecordArray,
    bids: RecordArray,
    customer_idx: BTreeIndex,
    /// TPC-C secondary index: customer last name -> candidate customers.
    customer_name_idx: BTreeIndex,
    stock_idx: BTreeIndex,
    item_idx: BTreeIndex,
    order_idx: BTreeIndex,
    bid_idx: BTreeIndex,
    order_cursor: u64,
    footprint: u64,
    // Code regions: one per transaction type (silo's per-tx logic), plus
    // shared B+tree and tuple-access code.
    tx_code: Vec<CodeRegion>,
    btree_code: CodeRegion,
    tuple_code: CodeRegion,
    commit_code: CodeRegion,
}

impl SiloDb {
    /// Builds and populates the database.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero warehouses, an
    /// all-zero transaction mix, or zero bid items).
    pub fn new(cfg: SiloConfig) -> Self {
        assert!(cfg.n_warehouses > 0, "need at least one warehouse");
        assert!(cfg.n_bid_items > 0, "need at least one bid item");
        let mix = Categorical::new(&cfg.tx_mix).expect("invalid transaction mix");
        let w = cfg.n_warehouses as u64;
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let tx_code = layout.regions(TX_KINDS.len(), 7 * 1024);
        let btree_code = layout.region(5 * 1024);
        let tuple_code = layout.region(3 * 1024);
        let commit_code = layout.region(4 * 1024);

        let warehouses = RecordArray::new(&mut alloc, w, WAREHOUSE_BYTES);
        let districts = RecordArray::new(&mut alloc, w * DISTRICTS_PER_WH, DISTRICT_BYTES);
        let customers = RecordArray::new(&mut alloc, w * CUSTOMERS_PER_WH, CUSTOMER_BYTES);
        let stock = RecordArray::new(&mut alloc, w * STOCK_PER_WH, STOCK_BYTES);
        let items = RecordArray::new(&mut alloc, N_ITEMS, ITEM_BYTES);
        let orders = RecordArray::new(&mut alloc, w * ORDER_RING, ORDER_BYTES);
        let orderlines = RecordArray::new(&mut alloc, w * ORDER_RING * 10, ORDERLINE_BYTES);
        let bids = RecordArray::new(&mut alloc, cfg.n_bid_items, BID_BYTES);

        let customer_idx = BTreeIndex::new(&mut alloc, w * CUSTOMERS_PER_WH, 16);
        // TPC-C generates customers from 1000 last names per district.
        let customer_name_idx =
            BTreeIndex::new(&mut alloc, (w * DISTRICTS_PER_WH * 1000).max(1), 16);
        let stock_idx = BTreeIndex::new(&mut alloc, w * STOCK_PER_WH, 16);
        let item_idx = BTreeIndex::new(&mut alloc, N_ITEMS, 16);
        let order_idx = BTreeIndex::new(&mut alloc, w * ORDER_RING, 16);
        let bid_idx = BTreeIndex::new(&mut alloc, cfg.n_bid_items, 16);

        let footprint = warehouses.footprint_bytes()
            + districts.footprint_bytes()
            + customers.footprint_bytes()
            + stock.footprint_bytes()
            + items.footprint_bytes()
            + orders.footprint_bytes()
            + orderlines.footprint_bytes()
            + bids.footprint_bytes()
            + customer_idx.footprint_bytes()
            + customer_name_idx.footprint_bytes()
            + stock_idx.footprint_bytes()
            + item_idx.footprint_bytes()
            + order_idx.footprint_bytes()
            + bid_idx.footprint_bytes();

        SiloDb {
            cfg,
            mix,
            warehouses,
            districts,
            customers,
            stock,
            items,
            orders,
            orderlines,
            bids,
            customer_idx,
            customer_name_idx,
            stock_idx,
            item_idx,
            order_idx,
            bid_idx,
            order_cursor: 0,
            footprint,
            tx_code,
            btree_code,
            tuple_code,
            commit_code,
        }
    }

    /// The database's configuration.
    pub fn config(&self) -> &SiloConfig {
        &self.cfg
    }

    fn w(&self) -> u64 {
        self.cfg.n_warehouses as u64
    }

    fn tx_new_order(&mut self, m: &mut Machine, rng: &mut Rng) {
        let code = self.tx_code[0];
        code.call(m, 2200);
        let wh = rng.below(self.w());
        self.warehouses.read(m, wh);
        let d = wh * DISTRICTS_PER_WH + rng.below(DISTRICTS_PER_WH);
        self.districts.read(m, d);
        self.districts.write(m, d, 16); // next_o_id
        let c = wh * CUSTOMERS_PER_WH + rng.below(CUSTOMERS_PER_WH);
        self.customer_idx.lookup(m, &self.btree_code, c);
        self.customers.read(m, c);
        self.tuple_code.call(m, 400);

        let n_items = 5 + rng.below(11);
        for ol in 0..n_items {
            let item = rng.below(N_ITEMS);
            self.item_idx.lookup(m, &self.btree_code, item);
            self.items.read(m, item);
            let s = wh * STOCK_PER_WH + item;
            self.stock_idx.lookup(m, &self.btree_code, s);
            self.stock.read(m, s);
            // Stock below threshold: data-dependent replenishment branch.
            code.branch(m, 512 + ol * 4, item.is_multiple_of(10));
            self.stock.write(m, s, 24);
            let line = self.order_cursor * 10 + ol;
            self.orderlines.write(m, line, ORDERLINE_BYTES);
            self.tuple_code.call(m, 350);
        }
        self.orders.write(m, self.order_cursor, ORDER_BYTES);
        self.order_idx
            .update(m, &self.btree_code, self.order_cursor);
        self.order_cursor = (self.order_cursor + 1) % self.orders.len();
        self.commit_code.call(m, 900);
    }

    fn tx_payment(&mut self, m: &mut Machine, rng: &mut Rng) {
        let code = self.tx_code[1];
        code.call(m, 1500);
        let wh = rng.below(self.w());
        self.warehouses.read(m, wh);
        self.warehouses.write(m, wh, 16);
        let d = wh * DISTRICTS_PER_WH + rng.below(DISTRICTS_PER_WH);
        self.districts.read(m, d);
        self.districts.write(m, d, 16);
        // TPC-C: 60% of payments select the customer by last name through
        // the secondary index, then scan the candidate group to pick the
        // median customer.
        let by_name = rng.bool(0.6);
        code.branch(m, 550, by_name);
        let c = wh * CUSTOMERS_PER_WH + rng.below(CUSTOMERS_PER_WH);
        if by_name {
            let name = rng.below(self.customer_name_idx.len());
            self.customer_name_idx.lookup(m, &self.btree_code, name);
            // ~3 customers share a last name in a district; read them all.
            for k in 0..3 {
                self.customers.read(m, (c + k * 997) % self.customers.len());
            }
            self.tuple_code.call(m, 250);
        } else {
            self.customer_idx.lookup(m, &self.btree_code, c);
        }
        self.customers.read(m, c);
        self.customers.write(m, c, 48);
        // 15% of payments go to a remote warehouse in TPC-C.
        code.branch(m, 600, rng.bool(0.15));
        self.commit_code.call(m, 700);
    }

    fn tx_delivery(&mut self, m: &mut Machine, rng: &mut Rng) {
        let code = self.tx_code[2];
        code.call(m, 2000);
        let wh = rng.below(self.w());
        for d in 0..DISTRICTS_PER_WH {
            let o = (self.order_cursor + d * 97) % self.orders.len();
            self.order_idx.lookup(m, &self.btree_code, o);
            self.orders.read(m, o);
            self.orders.write(m, o, 8);
            for ol in 0..6 {
                self.orderlines.read(m, o * 10 + ol);
                self.orderlines.write(m, o * 10 + ol, 8);
            }
            let c = wh * CUSTOMERS_PER_WH + (o % CUSTOMERS_PER_WH);
            self.customers.write(m, c, 24);
            self.tuple_code.call(m, 300);
        }
        self.commit_code.call(m, 900);
    }

    fn tx_order_status(&mut self, m: &mut Machine, rng: &mut Rng) {
        let code = self.tx_code[3];
        code.call(m, 1200);
        let wh = rng.below(self.w());
        let c = wh * CUSTOMERS_PER_WH + rng.below(CUSTOMERS_PER_WH);
        self.customer_idx.lookup(m, &self.btree_code, c);
        self.customers.read(m, c);
        let o = rng.below(self.orders.len());
        self.order_idx.lookup(m, &self.btree_code, o);
        self.orders.read(m, o);
        let lines = 5 + rng.below(11);
        for ol in 0..lines {
            self.orderlines.read(m, o * 10 + ol);
        }
        self.tuple_code.call(m, 300);
    }

    fn tx_stock_level(&mut self, m: &mut Machine, rng: &mut Rng) {
        let code = self.tx_code[4];
        code.call(m, 1800);
        let wh = rng.below(self.w());
        let d = wh * DISTRICTS_PER_WH + rng.below(DISTRICTS_PER_WH);
        self.districts.read(m, d);
        // Scan the order lines of the last 20 orders and probe stock.
        for k in 0..20u64 {
            let o = (self.order_cursor + self.orders.len() - 1 - k) % self.orders.len();
            for ol in 0..5 {
                self.orderlines.read(m, o * 10 + ol);
                let item = (o * 10 + ol) % N_ITEMS;
                let s = wh * STOCK_PER_WH + item;
                self.stock_idx.lookup(m, &self.btree_code, s);
                self.stock.read(m, s);
                // Below-threshold count: data-dependent.
                code.branch(m, 256 + ol, s.is_multiple_of(4));
            }
        }
        self.tuple_code.call(m, 500);
    }

    fn tx_bid(&mut self, m: &mut Machine, rng: &mut Rng) {
        let code = self.tx_code[5];
        code.call(m, 1100);
        let item = rng.below(self.cfg.n_bid_items);
        self.bid_idx.lookup(m, &self.btree_code, item);
        self.bids.read(m, item);
        // New bid larger than the current one about half the time.
        let wins = rng.bool(0.5);
        code.branch(m, 300, wins);
        if wins {
            self.bids.write(m, item, 24);
            self.commit_code.call(m, 500);
        }
        self.tuple_code.call(m, 200);
    }
}

impl App for SiloDb {
    fn name(&self) -> &str {
        "silo"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        match TX_KINDS[self.mix.sample_index(rng)] {
            TxKind::NewOrder => self.tx_new_order(machine, rng),
            TxKind::Payment => self.tx_payment(machine, rng),
            TxKind::Delivery => self.tx_delivery(machine, rng),
            TxKind::OrderStatus => self.tx_order_status(machine, rng),
            TxKind::StockLevel => self.tx_stock_level(machine, rng),
            TxKind::Bid => self.tx_bid(machine, rng),
        }
    }

    fn fork(&self) -> Box<dyn App> {
        Box::new(self.clone())
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_sim::MachineConfig;

    fn run(cfg: SiloConfig, requests: usize) -> Machine {
        let mut db = SiloDb::new(cfg);
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(5);
        for _ in 0..requests {
            db.serve(&mut machine, &mut rng);
        }
        machine
    }

    #[test]
    fn tpcc_mix_executes() {
        let m = run(SiloConfig::tpcc_default(), 500);
        assert!(m.counters().instructions > 500 * 1000);
        assert!(m.counters().branch_mispredicts > 0);
    }

    #[test]
    fn bidding_target_has_high_llc_mpki() {
        // 6 M items x 64 B = 384 MB of bid records: random probes miss the
        // 12 MB LLC almost every time, the paper's stated property of silo.
        let m = run(SiloConfig::bidding_target(), 2_000);
        let mpki = m.counters().mpki(m.counters().llc_misses);
        assert!(mpki > 2.0, "bidding should be memory-bound, mpki {mpki}");
    }

    #[test]
    fn more_warehouses_grow_footprint_and_misses() {
        let one = SiloDb::new(SiloConfig {
            n_warehouses: 1,
            ..SiloConfig::tpcc_default()
        });
        let eight = SiloDb::new(SiloConfig {
            n_warehouses: 8,
            ..SiloConfig::tpcc_default()
        });
        assert!(eight.footprint_bytes() > one.footprint_bytes() * 4);

        let small = run(
            SiloConfig {
                n_warehouses: 1,
                ..SiloConfig::tpcc_default()
            },
            800,
        );
        let large = run(
            SiloConfig {
                n_warehouses: 16,
                ..SiloConfig::tpcc_default()
            },
            800,
        );
        let s = small.counters().mpki(small.counters().llc_misses);
        let l = large.counters().mpki(large.counters().llc_misses);
        assert!(l > s, "large {l} vs small {s}");
    }

    #[test]
    fn read_only_mix_writes_less() {
        let ro = run(
            SiloConfig {
                tx_mix: [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
                ..SiloConfig::tpcc_default()
            },
            500,
        );
        let rw = run(
            SiloConfig {
                tx_mix: [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
                ..SiloConfig::tpcc_default()
            },
            500,
        );
        // Write-heavy mixes must produce more memory write-back traffic
        // relative to their instruction count.
        let ro_rate = ro.counters().memory_bytes as f64 / ro.counters().instructions as f64;
        let rw_rate = rw.counters().memory_bytes as f64 / rw.counters().instructions as f64;
        assert!(rw_rate > 0.0 && ro_rate >= 0.0);
    }

    #[test]
    fn mix_changes_code_footprint() {
        let single = run(
            SiloConfig {
                tx_mix: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                ..SiloConfig::tpcc_default()
            },
            800,
        );
        let spread = run(SiloConfig::tpcc_default(), 800);
        let s = single.counters().mpki(single.counters().l1i_misses);
        let m = spread.counters().mpki(spread.counters().l1i_misses);
        assert!(m >= s, "diverse mix {m} vs single {s}");
    }

    #[test]
    #[should_panic(expected = "invalid transaction mix")]
    fn all_zero_mix_panics() {
        SiloDb::new(SiloConfig {
            tx_mix: [0.0; 6],
            ..SiloConfig::tpcc_default()
        });
    }

    #[test]
    fn deterministic() {
        let a = run(SiloConfig::tpcc_default(), 300);
        let b = run(SiloConfig::tpcc_default(), 300);
        assert_eq!(a.counters(), b.counters());
    }
}
