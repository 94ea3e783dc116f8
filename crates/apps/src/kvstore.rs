//! A memcached-like in-memory key-value store.
//!
//! Structure mirrors memcached: a chained hash table of items, each item a
//! header + key + value allocated from a slab-style allocator; GET requests
//! hash the key, walk the chain comparing keys, and copy the value out;
//! SET requests replace the value (possibly reallocating into a different
//! slab class). Code paths modeled as [`CodeRegion`]s include the event-loop
//! frontend, protocol parsing, hashing, per-slab-class item handling, the
//! value memcpy loop, and the response path — so datasets with diverse
//! request types and sizes exercise a larger instruction footprint, exactly
//! the mechanism behind the paper's ICache-MPKI observations.

use crate::content::ContentModel;
use crate::dataset::SizeDist;
use crate::engine::{App, CodeLayout, CodeRegion, ServicePaths};
use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::dist::{clamp_size, sample_size, FromVariate, Variate, Zipf};
use datamime_stats::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Dataset + request-mix configuration for [`KvStore`].
///
/// The six tunables of the paper's Table III `memcached` generator are
/// `get_ratio` and the key/value size distributions (QPS lives in the
/// load-generator spec); the remaining fields define the fixed aspects of
/// the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KvConfig {
    /// Number of distinct keys resident in the store.
    pub n_keys: usize,
    /// Key size distribution (bytes, clamped to `[1, 250]` as in memcached).
    pub key_size: SizeDist,
    /// Value size distribution (bytes, clamped to `[1, 1 MiB]`).
    pub value_size: SizeDist,
    /// Fraction of GET requests (the rest are SETs).
    pub get_ratio: f64,
    /// Zipf skew of key popularity.
    pub popularity_skew: f64,
    /// Whether requests traverse the modeled kernel network stack
    /// (client/server on separate machines, Sec. V-F) instead of the
    /// integrated shared-memory harness.
    pub networked: bool,
    /// Redundancy of generated value *contents* in `[0, 1]`; `None` skips
    /// content generation. Supports the Sec. III-D compressibility
    /// extension: profiles can then include a memory-snapshot compression
    /// ratio.
    pub value_redundancy: Option<f64>,
    /// Fraction of GETs issued as multigets (one request fetching 4–16
    /// keys, as Facebook's memcached clients do). Lengthens a subset of
    /// requests, widening the service-time distribution.
    pub multiget_fraction: f64,
    /// Seed for dataset construction.
    pub seed: u64,
}

impl KvConfig {
    /// A dataset representative of Facebook's memcached environment
    /// (`mem-fb` in the paper): small Gaussian keys, generalized-Pareto
    /// values, 97% GETs, mild skew, footprint well beyond the LLC.
    pub fn facebook_like() -> Self {
        KvConfig {
            n_keys: 120_000,
            key_size: SizeDist::Normal {
                mean: 31.0,
                std: 9.0,
            },
            value_size: SizeDist::GeneralizedPareto {
                mu: 15.0,
                sigma: 220.0,
                xi: 0.25,
            },
            get_ratio: 0.97,
            popularity_skew: 1.01,
            networked: false,
            value_redundancy: None,
            multiget_fraction: 0.12,
            seed: 0xFB,
        }
    }

    /// A dataset following Twitter's Twemcache trace analyses
    /// (`mem-twtr`): larger keys, moderate values, more writes, heavier
    /// skew.
    pub fn twitter_like() -> Self {
        KvConfig {
            n_keys: 200_000,
            key_size: SizeDist::Normal {
                mean: 42.0,
                std: 18.0,
            },
            value_size: SizeDist::GeneralizedPareto {
                mu: 10.0,
                sigma: 120.0,
                xi: 0.15,
            },
            get_ratio: 0.8,
            popularity_skew: 1.2,
            networked: false,
            value_redundancy: None,
            multiget_fraction: 0.05,
            seed: 0x7717,
        }
    }

    /// TailBench's default public dataset (YCSB-like): fixed-size keys and
    /// large fixed-size values, 50/50 GET/SET — the unrepresentative
    /// baseline of the paper's Fig. 1.
    pub fn ycsb_like() -> Self {
        KvConfig {
            n_keys: 30_000,
            key_size: SizeDist::Fixed(23.0),
            value_size: SizeDist::Fixed(1000.0),
            get_ratio: 0.5,
            popularity_skew: 0.99,
            networked: false,
            value_redundancy: None,
            multiget_fraction: 0.0, // YCSB issues single-key operations
            seed: 0x4C5B,
        }
    }
}

/// One entry of the item table, packed to 16 bytes: the table is the
/// largest thing a built store holds, so its size is what a build costs in
/// resident memory.
#[derive(Debug, Clone, Copy)]
struct Item {
    addr: Addr,
    value_bytes: u32,
    key_bytes: u16,
}

const ITEM_HEADER_BYTES: u64 = 56;
const MAX_KEY: u64 = 250;
const MAX_VALUE: u64 = 1 << 20;

// Sizes reach `Item::new` clamped to these, so the narrowing is lossless.
const _: () = assert!(MAX_KEY <= u16::MAX as u64 && MAX_VALUE <= u32::MAX as u64);

impl Item {
    /// Packs an item whose sizes are already clamped to `[1, MAX_KEY]` and
    /// `[1, MAX_VALUE]`.
    fn new(addr: Addr, key_bytes: u64, value_bytes: u64) -> Self {
        debug_assert!(key_bytes <= MAX_KEY && value_bytes <= MAX_VALUE);
        Item {
            addr,
            value_bytes: value_bytes as u32,
            key_bytes: key_bytes as u16,
        }
    }

    fn key_bytes(self) -> u64 {
        u64::from(self.key_bytes)
    }

    fn value_bytes(self) -> u64 {
        u64::from(self.value_bytes)
    }
}

/// The hash chains, the popularity order and the Zipf table: what serving
/// reads to pick and find a key. They depend only on the key count, the
/// skew and the build stream, so one copy serves every store built from
/// one [`KvBase`].
#[derive(Debug)]
struct KvIndex {
    /// The hash chains in CSR form: bucket `b` holds key ids
    /// `bucket_ids[bucket_starts[b]..bucket_starts[b + 1]]`, ascending.
    bucket_starts: Vec<u32>,
    bucket_ids: Vec<u32>,
    popularity: Zipf,
    /// Maps popularity rank -> key id, so hot keys are scattered over buckets.
    rank_to_key: Vec<u32>,
}

/// Everything about a built store that serving never changes, shared by
/// the store and all its copies behind one `Arc`.
#[derive(Debug)]
struct KvImage {
    cfg: KvConfig,
    index: Arc<KvIndex>,
    bucket_table: Addr,
    /// Every item as built, in key order. No copy writes it: a SET goes
    /// to the serving copy's own overlay ([`KvStore::item`]).
    items: Vec<Item>,
    /// Sampled value contents for memory-snapshot profiling.
    content_sample: Vec<Vec<u8>>,
    /// The value-size sampler SETs draw new sizes from.
    value_size: Box<dyn FromVariate + Send + Sync>,
    // Code regions.
    frontend: CodeRegion,
    netstack: CodeRegion,
    parse: CodeRegion,
    hash_fn: CodeRegion,
    copy_loop: CodeRegion,
    respond: CodeRegion,
    store_path: CodeRegion,
    reaper: CodeRegion,
    slab_classes: Vec<CodeRegion>,
    aux_paths: ServicePaths,
}

/// The memcached-like store (see module docs): an immutable image shared
/// with every copy, item table included, plus the state requests mutate.
/// A SET rewrites an item (and may move it between slab classes) in this
/// copy's overlay: a bitmap of the keys it rewrote and an ordered map of
/// their items. A copy of a freshly built store therefore costs a 1-bit-
/// per-key bitmap and the allocator, not the item table.
#[derive(Debug, Clone)]
pub struct KvStore {
    image: Arc<KvImage>,
    alloc: SimAlloc,
    /// Bit `k % 64` of word `k / 64` is set once key `k` is in `rewritten`.
    written: Vec<u64>,
    rewritten: BTreeMap<u32, Item>,
    footprint: u64,
    /// Wall-clock cycle of the last LRU-reaper pass.
    last_reap_cycles: u64,
}

/// How often the background LRU reaper (memcached's `lru_crawler`) runs,
/// in wall-clock cycles.
const REAP_INTERVAL_CYCLES: u64 = 4_000_000;
/// Items scanned per reaper pass.
const REAP_SCAN_ITEMS: usize = 192;

/// The bucket a key id hashes to (a mixed hash of the id stands in for
/// the key hash); `n_buckets` is a power of two.
fn bucket_of(key: u32, n_buckets: usize) -> usize {
    let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) & (n_buckets - 1)
}

fn slab_class_of(bytes: u64) -> usize {
    // memcached-style geometric size classes starting at 64 B.
    let mut class = 0usize;
    let mut cap = 64u64;
    while cap < bytes && class < 15 {
        cap = cap * 3 / 2;
        class += 1;
    }
    class
}

/// Runs `back` on a scoped thread while `front` runs on the caller, and
/// returns both results. A panic on the spawned lane is re-raised on the
/// caller with its original payload, not as a second panic about a join.
fn beside<F, B: Send>(front: impl FnOnce() -> F, back: impl FnOnce() -> B + Send) -> (F, B) {
    std::thread::scope(|lanes| {
        let back = lanes.spawn(back);
        let front = front();
        match back.join() {
            Ok(back) => (front, back),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Draws each key's key-size and value-size variates, in key order.
fn draw_variates(out: &mut [[f64; 2]], kinds: [Variate; 2], rng: &mut Rng) {
    for v in out {
        *v = [kinds[0].draw(rng), kinds[1].draw(rng)];
    }
}

/// The hash chains in CSR form: a counting sort of the key ids by bucket,
/// filled in id order so every chain keeps insertion order.
fn hash_chains(n_keys: usize, n_buckets: usize) -> (Vec<u32>, Vec<u32>) {
    let mut bucket_starts = vec![0u32; n_buckets + 1];
    for id in 0..n_keys as u32 {
        bucket_starts[bucket_of(id, n_buckets) + 1] += 1;
    }
    for b in 0..n_buckets {
        bucket_starts[b + 1] += bucket_starts[b];
    }
    let mut next = bucket_starts[..n_buckets].to_vec();
    let mut bucket_ids = vec![0u32; n_keys];
    for id in 0..n_keys as u32 {
        let slot = &mut next[bucket_of(id, n_buckets)];
        bucket_ids[*slot as usize] = id;
        *slot += 1;
    }
    (bucket_starts, bucket_ids)
}

/// The half of a store's build that no searched parameter moves: each
/// key's size variates, the Zipf table, the hash chains and the popularity
/// order, all fixed by the seed, the key count, the skew and the two size
/// families' variate kinds. [`KvStore::from_base`] turns a base into a
/// store for any configuration it fits by replaying only the size
/// formulas and the allocation; a search whose generator fixes those five
/// builds its base once ([`KvBase::new`]) for all its evaluations.
pub struct KvBase {
    fit: BaseFit,
    /// Each key's `[key-size, value-size]` variates, in key order.
    variates: Vec<[f64; 2]>,
    index: Arc<KvIndex>,
    /// The build stream after every key's variates and the shuffle: the
    /// `value_redundancy` content sample draws from here.
    rng: Rng,
}

/// What a [`KvBase`] is a function of: seed, key count, skew bits and the
/// key and value variate kinds.
type BaseFit = (u64, usize, u64, Variate, Variate);

/// The samplers for a configuration's key and value sizes.
///
/// # Panics
///
/// Panics if either distribution is invalid.
fn size_samplers(
    cfg: &KvConfig,
) -> (
    Box<dyn FromVariate + Send + Sync>,
    Box<dyn FromVariate + Send + Sync>,
) {
    let build = |d: &SizeDist| d.build().expect("invalid size distribution");
    (build(&cfg.key_size), build(&cfg.value_size))
}

fn fit_of(cfg: &KvConfig, kinds: [Variate; 2]) -> BaseFit {
    (
        cfg.seed,
        cfg.n_keys,
        cfg.popularity_skew.to_bits(),
        kinds[0],
        kinds[1],
    )
}

impl std::fmt::Debug for KvBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvBase").field("fit", &self.fit).finish()
    }
}

impl KvBase {
    /// Builds the base for `cfg`: the variates of one sequential pass over
    /// the build `Rng`, then the shuffle of the popularity order.
    ///
    /// The build runs on two lanes inside one `std::thread::scope` and
    /// yields, bit for bit, what that one sequential pass would: every
    /// key's variates take a fixed number of draws ([`Variate::draws`]),
    /// so the spawned lane steps a copy of the stream past the front
    /// half's draws and fills the back half while the caller fills the
    /// front half. The spawned lane also builds the hash chains and then
    /// shuffles `rank_to_key` where the sequential stream would; the
    /// caller builds the Zipf table. A panic on the spawned lane reaches
    /// the caller with its original payload.
    ///
    /// # Panics
    ///
    /// Panics on zero keys, an invalid size distribution (on the caller,
    /// before the second lane starts) or a non-finite/negative skew.
    pub fn new(cfg: &KvConfig) -> Self {
        assert!(cfg.n_keys > 0, "store needs at least one key");
        let (keys, values) = size_samplers(cfg);
        let kinds = [keys.variate(), values.variate()];
        let n_keys = cfg.n_keys;
        let n_buckets = n_keys.next_power_of_two();

        let mut rng = Rng::with_seed(cfg.seed);
        let mut variates = vec![[0.0; 2]; n_keys];
        let (front, back) = variates.split_at_mut(n_keys / 2);
        let skip = (kinds[0].draws() + kinds[1].draws()) * front.len();
        let mut back_rng = rng.clone();
        // `rng` comes back as the spawned lane's stream, which ends where
        // the sequential one would: after every key's variates and the
        // shuffle.
        let (popularity, (bucket_starts, bucket_ids, rank_to_key, rng)) = beside(
            || {
                draw_variates(front, kinds, &mut rng);
                Zipf::new(n_keys, cfg.popularity_skew).expect("invalid popularity skew")
            },
            move || {
                for _ in 0..skip {
                    back_rng.u64();
                }
                draw_variates(back, kinds, &mut back_rng);
                let (bucket_starts, bucket_ids) = hash_chains(n_keys, n_buckets);
                let mut rank_to_key: Vec<u32> = (0..n_keys as u32).collect();
                back_rng.shuffle(&mut rank_to_key);
                (bucket_starts, bucket_ids, rank_to_key, back_rng)
            },
        );
        KvBase {
            fit: fit_of(cfg, kinds),
            variates,
            index: Arc::new(KvIndex {
                bucket_starts,
                bucket_ids,
                popularity,
                rank_to_key,
            }),
            rng,
        }
    }
}

impl KvStore {
    /// Builds and populates the store from a dataset configuration: a
    /// fresh [`KvBase`], then [`KvStore::from_base`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero keys, invalid
    /// distributions, a non-finite/negative skew or a GET ratio outside
    /// `[0, 1]`).
    pub fn new(cfg: KvConfig) -> Self {
        let base = KvBase::new(&cfg);
        KvStore::from_base(cfg, &base)
    }

    /// Builds the store for `cfg` on `base`, bit for bit what
    /// [`KvStore::new`] builds: each item's sizes are the configuration's
    /// size formulas over the base's variates, the simulated addresses are
    /// handed out in key order, and the content sample draws from the
    /// base's stream. The store shares the base's hash chains, popularity
    /// order and Zipf table. A base that does not fit `cfg` (another seed,
    /// key count, skew or variate kind) is not used: the store is built on
    /// a fresh base instead.
    ///
    /// # Panics
    ///
    /// As [`KvStore::new`].
    pub fn from_base(cfg: KvConfig, base: &KvBase) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.get_ratio),
            "get_ratio must be in [0,1]"
        );
        let (key_size, value_size) = size_samplers(&cfg);
        if base.fit != fit_of(&cfg, [key_size.variate(), value_size.variate()]) {
            return KvStore::new(cfg);
        }
        let mut alloc = SimAlloc::new();

        let mut layout = CodeLayout::new(&mut alloc);
        let frontend = layout.region(12 * 1024); // event loop + syscalls
        let netstack = layout.region(32 * 1024); // kernel TCP path (networked mode)
        let parse = layout.region(3 * 1024);
        let hash_fn = layout.region(1024);
        let copy_loop = layout.region_with_ilp(512, 3.0); // streaming memcpy
        let respond = layout.region(4 * 1024);
        let store_path = layout.region(12 * 1024);
        let reaper = layout.region(4 * 1024);
        let slab_classes = layout.regions(16, 2 * 1024);
        let aux_paths = ServicePaths::new(&mut layout, 16, 2 * 1024);

        let n_keys = cfg.n_keys;
        let n_buckets = n_keys.next_power_of_two();
        let bucket_table = alloc
            .alloc(Segment::Heap, (n_buckets as u64) * 8)
            .expect("bucket table");

        let mut footprint = (n_buckets as u64) * 8;
        let items: Vec<Item> = base
            .variates
            .iter()
            .map(|&[k, v]| {
                let key_bytes = clamp_size(key_size.map_variate(k), 1, MAX_KEY);
                let value_bytes = clamp_size(value_size.map_variate(v), 1, MAX_VALUE);
                let total = ITEM_HEADER_BYTES + key_bytes + value_bytes;
                footprint += total;
                let addr = alloc.alloc(Segment::Heap, total).expect("item");
                Item::new(addr, key_bytes, value_bytes)
            })
            .collect();

        // Generate value contents for a sample of items so a profiler can
        // measure the dataset's compressibility without materializing
        // every value.
        let content_sample = match cfg.value_redundancy {
            Some(red) => {
                let model = ContentModel::new(red);
                let mut rng = base.rng.clone();
                (0..192.min(items.len()))
                    .map(|_| {
                        let it = items[rng.index(items.len())];
                        model.generate(it.value_bytes() as usize, &mut rng)
                    })
                    .collect()
            }
            None => Vec::new(),
        };

        KvStore {
            image: Arc::new(KvImage {
                cfg,
                index: Arc::clone(&base.index),
                bucket_table,
                items,
                content_sample,
                value_size,
                frontend,
                netstack,
                parse,
                hash_fn,
                copy_loop,
                respond,
                store_path,
                reaper,
                slab_classes,
                aux_paths,
            }),
            alloc,
            written: vec![0; n_keys.div_ceil(64)],
            rewritten: BTreeMap::new(),
            footprint,
            last_reap_cycles: 0,
        }
    }

    /// Key `key`'s item as this copy sees it: its own rewrite if a SET on
    /// this copy made one, the built item otherwise. Every item read goes
    /// through here.
    fn item(&self, key: u32) -> Item {
        let k = key as usize;
        if self.written[k / 64] >> (k % 64) & 1 == 0 {
            self.image.items[k]
        } else {
            self.rewritten[&key]
        }
    }

    /// Rewrites key `key`'s item in this copy's overlay.
    fn set_item(&mut self, key: u32, item: Item) {
        let k = key as usize;
        self.written[k / 64] |= 1 << (k % 64);
        self.rewritten.insert(key, item);
    }

    /// memcached's background LRU crawler: periodically scans item headers
    /// looking for expired entries — a recurring burst of pointer-chasing
    /// work that adds time-varying behaviour on top of the request stream.
    fn maybe_reap(&mut self, machine: &mut Machine, rng: &mut Rng) {
        if machine.wall_cycles() - self.last_reap_cycles < REAP_INTERVAL_CYCLES {
            return;
        }
        self.last_reap_cycles = machine.wall_cycles();
        self.image.reaper.call(machine, 900);
        let n_keys = self.image.items.len();
        for _ in 0..REAP_SCAN_ITEMS.min(n_keys) {
            let it = self.item(rng.index(n_keys) as u32);
            machine.load(it.addr, 64);
            // Expiry check on the header timestamp: almost never expired.
            self.image.reaper.branch(machine, 128, rng.bool(0.02));
        }
        self.image.reaper.call(machine, 400);
    }

    /// The store's configuration.
    pub fn config(&self) -> &KvConfig {
        &self.image.cfg
    }

    fn pick_key(&self, rng: &mut Rng) -> u32 {
        let index = &*self.image.index;
        index.rank_to_key[index.popularity.sample_rank(rng)]
    }

    /// Walks the hash chain to `key`, modeling the bucket-head load, the
    /// per-entry header loads, and the data-dependent compare branches.
    fn lookup(&self, machine: &mut Machine, key: u32) -> Item {
        let img = &*self.image;
        let index = &*img.index;
        let b = bucket_of(key, index.bucket_starts.len() - 1);
        machine.load(img.bucket_table + (b as u64) * 8, 8);
        let chain =
            &index.bucket_ids[index.bucket_starts[b] as usize..index.bucket_starts[b + 1] as usize];
        let mut found = self.item(key);
        for &id in chain {
            let it = self.item(id);
            // Header contains the hash + key pointer: one line.
            machine.load(it.addr, 64.min(ITEM_HEADER_BYTES + it.key_bytes()));
            let is_match = id == key;
            // Compare branch: taken when we keep walking.
            img.hash_fn.branch(machine, 64, !is_match);
            if is_match {
                found = it;
                break;
            }
        }
        found
    }

    fn serve_get(&mut self, machine: &mut Machine, key: u32) {
        let it = self.lookup(machine, key);
        // Read the full key for the final compare and hash verification.
        machine.load(it.addr + ITEM_HEADER_BYTES, it.key_bytes());
        self.image.hash_fn.call(machine, 150 + it.key_bytes() / 4);
        // Copy the value out through the memcpy loop (8 B/instr).
        machine.load(
            it.addr + ITEM_HEADER_BYTES + it.key_bytes(),
            it.value_bytes(),
        );
        self.image
            .copy_loop
            .call(machine, 40 + it.value_bytes() / 8);
        // Slab-class-specific item bookkeeping (LRU bump).
        let class = slab_class_of(ITEM_HEADER_BYTES + it.key_bytes() + it.value_bytes());
        self.image.slab_classes[class].call(machine, 250);
        machine.store(it.addr + 16, 8); // LRU timestamp update
    }

    fn serve_set(&mut self, machine: &mut Machine, key: u32, rng: &mut Rng) {
        let old = self.lookup(machine, key);
        // New value size drawn from the dataset's distribution.
        let value_bytes = sample_size(self.image.value_size.as_ref(), rng, 1, MAX_VALUE);
        let old_total = ITEM_HEADER_BYTES + old.key_bytes() + old.value_bytes();
        let new_total = ITEM_HEADER_BYTES + old.key_bytes() + value_bytes;
        let old_class = slab_class_of(old_total);
        let new_class = slab_class_of(new_total);
        // Reallocation branch: taken when the item changes slab class.
        self.image
            .store_path
            .branch(machine, 128, new_class != old_class);
        let addr = if new_class != old_class {
            self.alloc.free(Segment::Heap, old.addr, old_total);
            self.footprint = self.footprint - old_total + new_total;
            self.alloc
                .alloc(Segment::Heap, new_total)
                .expect("item realloc")
        } else {
            old.addr
        };
        self.set_item(key, Item::new(addr, old.key_bytes(), value_bytes));
        // Store-side bookkeeping paths: LRU maintenance, eviction checks,
        // stats, logging — memcached's write path is much wider than GET.
        self.image.aux_paths.touch(machine, rng, 3, 300);
        // Write header + key + value.
        machine.store(addr, ITEM_HEADER_BYTES + old.key_bytes());
        machine.store(addr + ITEM_HEADER_BYTES + old.key_bytes(), value_bytes);
        self.image.copy_loop.call(machine, 40 + value_bytes / 8);
        self.image.store_path.call(machine, 900);
        self.image.slab_classes[new_class].call(machine, 300);
    }
}

impl App for KvStore {
    fn name(&self) -> &str {
        "memcached"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        self.image.frontend.call(machine, 5200);
        // Connection state machine: each request runs a few of the many
        // small service functions (epoll arms, logging, stats, timeouts).
        self.image.aux_paths.touch(machine, rng, 4, 260);
        if self.image.cfg.networked {
            self.image.netstack.call(machine, 4200);
        }
        let key = self.pick_key(rng);
        let it = self.item(key);
        self.image.parse.call(machine, 350 + it.key_bytes() * 3);
        // Tokenizing the request: one data-dependent branch per few key
        // bytes (delimiter checks on effectively random characters).
        for b in 0..(it.key_bytes() / 6).max(2) {
            self.image.parse.branch(machine, 300 + b * 4, rng.bool(0.3));
        }
        let is_get = rng.bool(self.image.cfg.get_ratio);
        // Request-type dispatch: data-dependent on the request mix.
        self.image.parse.branch(machine, 256, is_get);
        if is_get {
            if rng.bool(self.image.cfg.multiget_fraction) {
                // Multiget: one request fetching several keys.
                let n = 4 + rng.index(13);
                self.serve_get(machine, key);
                for _ in 1..n {
                    let extra = self.pick_key(rng);
                    self.image.parse.call_span(machine, 512, 256, 120);
                    self.serve_get(machine, extra);
                }
            } else {
                self.serve_get(machine, key);
            }
        } else {
            self.serve_set(machine, key, rng);
        }
        self.image.respond.call(machine, 700);
        self.maybe_reap(machine, rng);
    }

    fn fork(&self) -> Box<dyn App> {
        Box::new(self.clone())
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn memory_snapshot(&self) -> Option<Vec<u8>> {
        if self.image.content_sample.is_empty() {
            return None;
        }
        let mut snap = Vec::new();
        for v in &self.image.content_sample {
            snap.extend_from_slice(v);
            if snap.len() > 256 * 1024 {
                break;
            }
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_sim::MachineConfig;

    fn run(cfg: KvConfig, requests: usize) -> Machine {
        let mut store = KvStore::new(cfg);
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(99);
        for _ in 0..requests {
            store.serve(&mut machine, &mut rng);
        }
        machine
    }

    #[test]
    fn serves_requests_and_counts_work() {
        let m = run(KvConfig::ycsb_like(), 200);
        let c = m.counters();
        assert!(c.instructions > 200 * 3000);
        assert!(c.busy_cycles > 0);
        assert!(c.branches > 200);
    }

    #[test]
    fn footprint_tracks_dataset_size() {
        let small = KvStore::new(KvConfig {
            n_keys: 1000,
            value_size: SizeDist::Fixed(100.0),
            ..KvConfig::ycsb_like()
        });
        let large = KvStore::new(KvConfig {
            n_keys: 1000,
            value_size: SizeDist::Fixed(10_000.0),
            ..KvConfig::ycsb_like()
        });
        assert!(large.footprint_bytes() > small.footprint_bytes() * 10);
    }

    #[test]
    fn bigger_dataset_means_more_llc_misses() {
        let small = run(
            KvConfig {
                n_keys: 2_000,
                ..KvConfig::facebook_like()
            },
            3_000,
        );
        let large = run(
            KvConfig {
                n_keys: 300_000,
                ..KvConfig::facebook_like()
            },
            3_000,
        );
        let small_mpki = small.counters().mpki(small.counters().llc_misses);
        let large_mpki = large.counters().mpki(large.counters().llc_misses);
        assert!(
            large_mpki > small_mpki * 2.0,
            "large {large_mpki} vs small {small_mpki}"
        );
    }

    #[test]
    fn higher_skew_improves_locality() {
        let flat = run(
            KvConfig {
                popularity_skew: 0.0,
                ..KvConfig::facebook_like()
            },
            3_000,
        );
        let skewed = run(
            KvConfig {
                popularity_skew: 1.4,
                ..KvConfig::facebook_like()
            },
            3_000,
        );
        let flat_mpki = flat.counters().mpki(flat.counters().llc_misses);
        let skew_mpki = skewed.counters().mpki(skewed.counters().llc_misses);
        assert!(
            skew_mpki < flat_mpki,
            "skewed {skew_mpki} vs flat {flat_mpki}"
        );
    }

    #[test]
    fn set_heavy_mix_writes_more_memory() {
        // Disable multigets so the comparison isolates the GET/SET ratio.
        let base = KvConfig {
            multiget_fraction: 0.0,
            ..KvConfig::facebook_like()
        };
        let reads = run(
            KvConfig {
                get_ratio: 1.0,
                ..base.clone()
            },
            2_000,
        );
        let writes = run(
            KvConfig {
                get_ratio: 0.0,
                ..base
            },
            2_000,
        );
        assert!(writes.counters().memory_bytes > reads.counters().memory_bytes);
    }

    #[test]
    fn multigets_lengthen_the_service_time_tail() {
        let single = run(
            KvConfig {
                multiget_fraction: 0.0,
                ..KvConfig::facebook_like()
            },
            2_000,
        );
        let multi = run(
            KvConfig {
                multiget_fraction: 0.3,
                ..KvConfig::facebook_like()
            },
            2_000,
        );
        assert!(
            multi.counters().instructions > single.counters().instructions * 23 / 20,
            "multigets must add work: {} vs {}",
            multi.counters().instructions,
            single.counters().instructions
        );
    }

    #[test]
    fn reaper_runs_periodically() {
        // Drive enough wall-clock time (requests + idle) to trigger the
        // reaper several times; its scan touches item headers.
        let mut store = KvStore::new(KvConfig {
            n_keys: 2_000,
            ..KvConfig::ycsb_like()
        });
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(3);
        for _ in 0..40 {
            store.serve(&mut machine, &mut rng);
            machine.idle(1_000_000);
        }
        // 40 M idle cycles + busy time -> at least 8 reaper passes, each
        // with REAP_SCAN_ITEMS branch checks.
        assert!(
            machine.counters().branches > 40 * 10 + 8 * 150,
            "reaper branches missing: {}",
            machine.counters().branches
        );
    }

    #[test]
    fn value_size_spread_touches_more_slab_classes() {
        let narrow = run(
            KvConfig {
                value_size: SizeDist::Normal {
                    mean: 300.0,
                    std: 1.0,
                },
                ..KvConfig::facebook_like()
            },
            2_000,
        );
        let wide = run(
            KvConfig {
                value_size: SizeDist::Normal {
                    mean: 300.0,
                    std: 2000.0,
                },
                ..KvConfig::facebook_like()
            },
            2_000,
        );
        let narrow_mpki = narrow.counters().mpki(narrow.counters().l1i_misses);
        let wide_mpki = wide.counters().mpki(wide.counters().l1i_misses);
        assert!(
            wide_mpki > narrow_mpki,
            "wide {wide_mpki} vs narrow {narrow_mpki}"
        );
    }

    #[test]
    fn networked_mode_adds_instruction_footprint() {
        let local = run(KvConfig::facebook_like(), 1_000);
        let net = run(
            KvConfig {
                networked: true,
                ..KvConfig::facebook_like()
            },
            1_000,
        );
        assert!(net.counters().instructions > local.counters().instructions);
        assert!(
            net.counters().l1i_misses > local.counters().l1i_misses,
            "network stack must add icache pressure"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run(KvConfig::facebook_like(), 500);
        let b = run(KvConfig::facebook_like(), 500);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn an_item_is_sixteen_bytes_and_round_trips_at_the_clamp_edges() {
        assert_eq!(std::mem::size_of::<Item>(), 16);
        for key_bytes in [1, MAX_KEY] {
            for value_bytes in [1, MAX_VALUE] {
                let it = Item::new(u64::MAX - 7, key_bytes, value_bytes);
                assert_eq!(
                    (it.addr, it.key_bytes(), it.value_bytes()),
                    (u64::MAX - 7, key_bytes, value_bytes)
                );
            }
        }
    }

    #[test]
    fn slab_class_boundaries() {
        assert_eq!(slab_class_of(1), 0);
        assert_eq!(slab_class_of(64), 0);
        assert_eq!(slab_class_of(65), 1);
        assert!(slab_class_of(1 << 20) <= 15);
    }

    /// FNV-1a over everything a build decides, as the store's reads see
    /// it: each item's address and sizes in key order (through
    /// [`KvStore::item`], so a copy's SETs show), `rank_to_key`, the
    /// footprint and the content sample.
    fn build_digest(store: &KvStore) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for key in 0..store.config().n_keys as u32 {
            let it = store.item(key);
            eat(&it.addr.to_le_bytes());
            eat(&it.key_bytes().to_le_bytes());
            eat(&it.value_bytes().to_le_bytes());
        }
        for &k in &store.image.index.rank_to_key {
            eat(&k.to_le_bytes());
        }
        eat(&store.footprint.to_le_bytes());
        for v in &store.image.content_sample {
            eat(&(v.len() as u64).to_le_bytes());
            eat(v);
        }
        h
    }

    /// Build digests recorded on the sequential single-pass build; the
    /// two-lane build must reproduce every one. The key counts straddle
    /// the lane split (one key leaves the spawned lane empty; odd counts
    /// give it the larger half), and the size families cover every draw
    /// count.
    #[test]
    fn builds_match_the_sequential_goldens() {
        let fb = KvConfig::facebook_like;
        let synth = KvConfig {
            n_keys: 50_001,
            key_size: SizeDist::Normal {
                mean: 40.0,
                std: 12.0,
            },
            value_size: SizeDist::Normal {
                mean: 900.0,
                std: 400.0,
            },
            seed: 77,
            ..fb()
        };
        let cases: Vec<(&str, KvConfig, u64)> = vec![
            ("fb n=1", KvConfig { n_keys: 1, ..fb() }, 0xe4e4fe4b981016cd),
            ("fb n=2", KvConfig { n_keys: 2, ..fb() }, 0xaf01fc0a3c2835c8),
            ("fb n=3", KvConfig { n_keys: 3, ..fb() }, 0x44c5ac1cddaa5af7),
            (
                "fb n=2999",
                KvConfig {
                    n_keys: 2_999,
                    ..fb()
                },
                0x8f253a7309a66cbf,
            ),
            ("facebook_like", fb(), 0x23d093ceb9975e7f),
            ("twitter_like", KvConfig::twitter_like(), 0x39e754fa2195b96e),
            ("ycsb_like", KvConfig::ycsb_like(), 0xd9dee948a4494cc0),
            ("normal/normal", synth.clone(), 0x7b6bbbddfef41d2d),
            (
                "lognormal/uniform",
                KvConfig {
                    n_keys: 7_777,
                    key_size: SizeDist::LogNormal {
                        mu: 3.0,
                        sigma: 0.5,
                    },
                    value_size: SizeDist::Uniform {
                        lo: 10.0,
                        hi: 5000.0,
                    },
                    ..synth.clone()
                },
                0x03258a81d30aa736,
            ),
            (
                "uniform/lognormal redundant",
                KvConfig {
                    n_keys: 4_001,
                    key_size: SizeDist::Uniform { lo: 8.0, hi: 64.0 },
                    value_size: SizeDist::LogNormal {
                        mu: 6.0,
                        sigma: 1.0,
                    },
                    value_redundancy: Some(0.6),
                    ..synth.clone()
                },
                0x05e5cf94301361f7,
            ),
            (
                "fb n=3 redundant",
                KvConfig {
                    n_keys: 3,
                    value_redundancy: Some(0.3),
                    ..fb()
                },
                0xe75c850b22d1ae9d,
            ),
            (
                "fb n=120000 redundant",
                KvConfig {
                    value_redundancy: Some(0.9),
                    ..fb()
                },
                0xcfefeca1c9dabeeb,
            ),
        ];
        for (label, cfg, want) in cases {
            let got = build_digest(&KvStore::new(cfg));
            assert_eq!(got, want, "{label}: {got:#018x}");
        }
    }

    /// A size family of variate kind `kind`, with random valid parameters.
    fn random_size(kind: Variate, rng: &mut Rng) -> SizeDist {
        match (kind, rng.below(3)) {
            (Variate::StandardNormal, 0) => SizeDist::Normal {
                mean: rng.range_f64(1.0, 2_000.0),
                std: rng.range_f64(0.0, 800.0),
            },
            (Variate::StandardNormal, _) => SizeDist::LogNormal {
                mu: rng.range_f64(0.0, 9.0),
                sigma: rng.range_f64(0.0, 2.0),
            },
            (Variate::Unit, 0) => SizeDist::Fixed(rng.range_f64(1.0, 3_000.0)),
            (Variate::Unit, 1) => {
                let lo = rng.range_f64(1.0, 500.0);
                SizeDist::Uniform {
                    lo,
                    hi: lo + rng.range_f64(0.0, 4_000.0),
                }
            }
            (Variate::Unit, _) => SizeDist::GeneralizedPareto {
                mu: rng.range_f64(0.0, 50.0),
                sigma: rng.range_f64(1.0, 400.0),
                xi: rng.range_f64(-0.3, 0.6),
            },
        }
    }

    /// A random point: sizes of the given kinds, and everything a base
    /// does not fix drawn afresh.
    fn random_point(base: &KvConfig, kinds: [Variate; 2], rng: &mut Rng) -> KvConfig {
        KvConfig {
            key_size: random_size(kinds[0], rng),
            value_size: random_size(kinds[1], rng),
            get_ratio: rng.f64(),
            value_redundancy: rng.bool(0.5).then(|| rng.f64()),
            multiget_fraction: rng.f64() * 0.3,
            ..base.clone()
        }
    }

    /// Stores built from one shared base are the stores `KvStore::new`
    /// builds, over all five size families on both sides, with and
    /// without a content sample; a base that does not fit is not used.
    #[test]
    fn points_built_on_a_shared_base_equal_fresh_builds() {
        let kinds = [Variate::StandardNormal, Variate::Unit];
        let mut rng = Rng::with_seed(0xBA5E);
        for case in 0..24 {
            let n_keys = match case {
                0 => 1,
                1 => 2,
                _ => 2 * rng.index(2_500) + 1,
            };
            let fixed = KvConfig {
                n_keys,
                popularity_skew: rng.range_f64(0.0, 1.5),
                seed: rng.u64(),
                ..KvConfig::facebook_like()
            };
            let pair = [kinds[rng.index(2)], kinds[rng.index(2)]];
            let first = random_point(&fixed, pair, &mut rng);
            let base = KvBase::new(&first);
            for cfg in [first.clone(), random_point(&fixed, pair, &mut rng)] {
                let shared = KvStore::from_base(cfg.clone(), &base);
                assert!(Arc::ptr_eq(&shared.image.index, &base.index), "{case}");
                let fresh = KvStore::new(cfg.clone());
                assert_eq!(
                    build_digest(&shared),
                    build_digest(&fresh),
                    "{case}: {cfg:?}"
                );
            }
            let other_kinds = [pair[0], kinds[(pair[1] == kinds[0]) as usize]];
            let misfits = [
                KvConfig {
                    seed: fixed.seed ^ 1,
                    ..first.clone()
                },
                KvConfig {
                    n_keys: n_keys + 1,
                    ..first.clone()
                },
                KvConfig {
                    popularity_skew: fixed.popularity_skew + 0.25,
                    ..first.clone()
                },
                random_point(&fixed, other_kinds, &mut rng),
            ];
            for cfg in misfits {
                let fallback = KvStore::from_base(cfg.clone(), &base);
                assert!(!Arc::ptr_eq(&fallback.image.index, &base.index), "{case}");
                let fresh = KvStore::new(cfg.clone());
                assert_eq!(
                    build_digest(&fallback),
                    build_digest(&fresh),
                    "{case}: {cfg:?}"
                );
            }
        }
    }

    /// Serves `requests` requests on `store`, seeded by `seed`.
    fn serve_on(store: &mut KvStore, machine: &mut Machine, requests: usize, seed: u64) {
        let mut rng = Rng::with_seed(seed);
        for _ in 0..requests {
            store.serve(machine, &mut rng);
        }
    }

    /// `App::fork`'s contract on the shared item table: a copy's SETs live
    /// in that copy alone, and a copy of a served copy carries its writes.
    #[test]
    fn sets_on_one_copy_never_show_in_the_original_or_another_copy() {
        let cfg = KvConfig {
            n_keys: 3_001,
            get_ratio: 0.2,
            ..KvConfig::facebook_like()
        };
        let fresh = build_digest(&KvStore::new(cfg.clone()));
        let original = KvStore::new(cfg);
        let mut served = original.clone();
        let mut machine = Machine::new(MachineConfig::broadwell());
        serve_on(&mut served, &mut machine, 2_000, 5);
        assert!(!served.rewritten.is_empty());
        for (&key, &it) in &served.rewritten {
            let read = served.item(key);
            assert_eq!((read.addr, read.value_bytes()), (it.addr, it.value_bytes()));
        }
        assert_ne!(build_digest(&served), fresh);
        assert_eq!(build_digest(&original), fresh);
        assert_eq!(build_digest(&original.clone()), fresh);

        let mut copy_of_served = served.clone();
        assert_eq!(build_digest(&copy_of_served), build_digest(&served));
        let mut twin = machine.clone();
        serve_on(&mut served, &mut machine, 1_000, 6);
        serve_on(&mut copy_of_served, &mut twin, 1_000, 6);
        assert_eq!(machine.counters(), twin.counters());
        assert_eq!(build_digest(&served), build_digest(&copy_of_served));
        assert_eq!(served.footprint_bytes(), copy_of_served.footprint_bytes());
        assert_eq!(build_digest(&original), fresh);
    }

    #[test]
    fn a_panic_on_the_spawned_lane_reaches_the_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let caller = std::thread::current().id();
        let mut front_ran = false;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            beside(
                || front_ran = true,
                || {
                    assert_ne!(std::thread::current().id(), caller);
                    std::panic::panic_any(Payload(7))
                },
            )
        }))
        .expect_err("the lane's panic must reach the caller");
        assert_eq!(caught.downcast_ref::<Payload>(), Some(&Payload(7)));
        assert!(front_ran, "the caller's lane runs to completion first");
    }

    #[test]
    fn a_set_draws_the_size_sample_bytes_would() {
        let cfg = KvConfig {
            n_keys: 500,
            ..KvConfig::facebook_like()
        };
        let mut store = KvStore::new(cfg.clone());
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(17);
        for i in 0..400u32 {
            let key = i * 7 % 500;
            let want = cfg.value_size.sample_bytes(&mut rng.clone(), 1, MAX_VALUE);
            store.serve_set(&mut machine, key, &mut rng);
            assert_eq!(store.item(key).value_bytes(), want, "SET {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_panics() {
        KvStore::new(KvConfig {
            n_keys: 0,
            ..KvConfig::ycsb_like()
        });
    }
}
