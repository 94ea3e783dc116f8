//! Set-associative cache models with LRU and DRRIP replacement.
//!
//! The LLC model supports way-partitioning à la Intel CAT, which is how the
//! paper measures its cache-sensitivity curves (LLC MPKI and IPC versus
//! cache allocation, Sec. IV).

use crate::mem::Addr;
use datamime_stats::Rng;
use std::fmt;

/// Replacement policy for a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used, tracked with per-line timestamps.
    Lru,
    /// Dynamic re-reference interval prediction (set-dueling SRRIP/BRRIP),
    /// the policy the paper's Broadwell LLC uses.
    Drrip,
}

/// Geometry and policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 on all modeled machines).
    pub line_bytes: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Convenience constructor with 64-byte lines and LRU replacement.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            line_bytes: 64,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/size, capacity not a
    /// multiple of `ways * line_bytes`, or a non-power-of-two set count).
    pub fn sets(&self) -> u64 {
        assert!(self.ways > 0 && self.size_bytes > 0 && self.line_bytes > 0);
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(sets > 0, "cache too small for its associativity");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        sets
    }

    /// Returns a copy restricted to `ways` ways (CAT-style partitioning):
    /// same set count, reduced associativity and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the configured associativity.
    pub fn with_ways(&self, ways: u32) -> CacheConfig {
        assert!(
            ways > 0 && ways <= self.ways,
            "invalid way allocation {ways}"
        );
        let sets = self.sets();
        CacheConfig {
            size_bytes: sets * ways as u64 * self.line_bytes,
            ways,
            line_bytes: self.line_bytes,
            replacement: self.replacement,
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB, {}-way, {:?}",
            self.size_bytes / 1024,
            self.ways,
            self.replacement
        )
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was missing; if a dirty victim was evicted,
    /// `writeback_of` holds the victim line's address so the caller can
    /// propagate the write-back to the next level.
    Miss {
        /// Line address of the evicted dirty victim, if any.
        writeback_of: Option<crate::mem::Addr>,
    },
}

impl Access {
    /// Returns `true` for [`Access::Miss`].
    pub fn is_miss(&self) -> bool {
        matches!(self, Access::Miss { .. })
    }
}

/// Sentinel tag marking an invalid (never-filled) way.
///
/// Stored tags are *narrow*: the set-index bits are implied by the way's
/// position in the tag array, so only `addr >> set_shift >> log2(sets)` is
/// kept, truncated to 32 bits (asserted in [`Cache::narrow_tag`] — real
/// tags never reach the sentinel).
const INVALID_TAG: u32 = u32::MAX;

/// A set-associative cache.
///
/// The model is storage-free: only tags and metadata are tracked, which is
/// all the performance metrics need. Storage is structure-of-arrays over a
/// single contiguous ways axis (`set * ways + way`): the lookup scans a
/// dense tag slice instead of wider per-line structs, which is what makes
/// `access` cheap enough to run a 200-iteration Bayesian search against
/// (see docs/PERFORMANCE.md). Tags are stored *narrow* — the set-index
/// bits are implied by array position and dropped, and the rest fits a
/// `u32` — so a 12 MB LLC model keeps its entire tag array under 800 KB of
/// host memory; for mixed-locality streams the model's own metadata
/// residency in the host's caches is the dominant cost.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    set_mask: u64,
    set_shift: u32,
    /// `log2(sets)`; shifted off stored tags and restored when a victim's
    /// line address is reconstructed for write-back.
    sets_shift: u32,
    ways: usize,
    /// Per-way narrow tags; `INVALID_TAG` marks an empty way.
    tags: Vec<u32>,
    /// Per-way LRU timestamps (allocated only under [`Replacement::Lru`]).
    meta: Vec<u64>,
    /// Per-way RRPVs, packed (allocated only under [`Replacement::Drrip`]).
    /// RRPVs span `0..=RRPV_MAX`, so a byte lane holds one: on a
    /// multi-megabyte LLC slice this keeps the replacement state 8x denser
    /// in the *host's* caches than a `u64` lane, which is where a
    /// mixed-locality stream spends its time.
    rrpv: Vec<u8>,
    /// Per-way dirty bit.
    dirty: Vec<bool>,
    clock: u64,
    // DRRIP set-dueling state.
    psel: i32,
    brrip_ctr: u32,
    rng: Rng,
    hits: u64,
    misses: u64,
}

const RRPV_MAX: u8 = 3;
const PSEL_MAX: i32 = 1023;

/// Maximum supported associativity. The set probe builds a per-way match
/// bitmask in one `u64`, so a set must fit in 64 ways — far beyond any
/// modeled machine (the widest is the 16-way Zen 2 L3 slice).
const MAX_WAYS: u32 = 64;

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            cfg.ways <= MAX_WAYS,
            "associativity above {MAX_WAYS} is unsupported"
        );
        let n = (sets * cfg.ways as u64) as usize;
        Cache {
            cfg,
            sets,
            set_mask: sets - 1,
            set_shift: cfg.line_bytes.trailing_zeros(),
            sets_shift: sets.trailing_zeros(),
            ways: cfg.ways as usize,
            tags: vec![INVALID_TAG; n],
            meta: if cfg.replacement == Replacement::Lru {
                vec![0; n]
            } else {
                Vec::new()
            },
            rrpv: if cfg.replacement == Replacement::Drrip {
                vec![0; n]
            } else {
                Vec::new()
            },
            dirty: vec![false; n],
            clock: 0,
            psel: PSEL_MAX / 2,
            brrip_ctr: 0,
            rng: Rng::with_seed(0xD12),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    #[inline]
    fn set_of(&self, addr: Addr) -> u64 {
        (addr >> self.set_shift) & self.set_mask
    }

    /// Narrow tag of `addr`: line index with the set bits shifted off.
    ///
    /// # Panics
    ///
    /// Panics if the narrow tag overflows 32 bits — i.e. `addr` is at or
    /// beyond `2^(32 + log2(line_bytes) + log2(sets))`, which is 16 TiB for
    /// the smallest modeled level. The simulated address spaces top out at
    /// a few hundred GiB, so the guard is an always-predicted compare.
    #[inline]
    fn narrow_tag(&self, addr: Addr) -> u32 {
        let t = (addr >> self.set_shift) >> self.sets_shift;
        assert!(
            t < u64::from(u32::MAX),
            "address {addr:#x} beyond the 32-bit tag range of this geometry"
        );
        t as u32
    }

    /// Reconstructs the line-aligned address a narrow tag in `set` denotes
    /// (the inverse of [`Cache::narrow_tag`], used for write-back victims).
    #[inline]
    fn line_of(&self, tag: u32, set: u64) -> Addr {
        ((u64::from(tag) << self.sets_shift) | set) << self.set_shift
    }

    /// Set probe: scans the dense tag slice for the first way holding
    /// `tag`. Empty ways hold `INVALID_TAG`, so probing for `INVALID_TAG`
    /// finds the first free way. The scan early-exits on the match way —
    /// measured faster than a full-width branch-free bitmask (both
    /// runtime-width and const-unrolled variants), because the kernels'
    /// access patterns are periodic enough that the host branch predictor
    /// tracks the exit iteration, while the bitmask pays its full-width
    /// cost on every probe.
    #[inline]
    fn probe(&self, base: usize, tag: u32) -> Option<usize> {
        let set_tags = &self.tags[base..base + self.ways];
        set_tags.iter().position(|&t| t == tag)
    }

    /// Accesses the line containing `addr`; `write` marks the line dirty.
    ///
    /// On a miss the line is allocated (write-allocate) and the victim's
    /// dirty state is reported so the caller can account write-back traffic.
    ///
    /// `#[inline]` is kept on a measurement. The release profile's thin
    /// LTO can inline this into other crates without it, but whether it
    /// does moves with unrelated edits: interleaved `bench_sim` rounds
    /// read the same with and without the attribute at one commit of
    /// PR 19, and 6.1–6.7 without against 5.2–5.9 ns/op with it on
    /// `sim/cache_l1_hit` two commits later (docs/PERFORMANCE.md §2).
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> Access {
        self.clock += 1;
        let set = self.set_of(addr);
        let tag = self.narrow_tag(addr);
        let base = set as usize * self.ways;
        // Policy dispatch happens once per access, up front, so each
        // specialized path is branch-free over the ways axis and inlines
        // into callers that use a fixed policy per level.
        match self.cfg.replacement {
            Replacement::Lru => self.access_lru(base, set, tag, write),
            Replacement::Drrip => self.access_drrip(base, set, tag, write),
        }
    }

    /// LRU-specialized access path (bit-identical to the generic one).
    #[inline]
    fn access_lru(&mut self, base: usize, set: u64, tag: u32, write: bool) -> Access {
        if let Some(way) = self.probe(base, tag) {
            let i = base + way;
            self.dirty[i] |= write;
            self.meta[i] = self.clock;
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        let victim = base
            + if self.ways == 8 {
                // Packed first-min (see `lru8_victim`): first empty way,
                // else first least-recent way, in a three-deep min tree.
                Self::lru8_victim(&self.meta[base..base + 8])
            } else {
                // Victim selection in ONE pass over the set: track the
                // first empty way and the first least-recent stamp
                // simultaneously with conditional moves, then prefer the
                // empty way. Equivalent to the two-scan formulation (probe
                // for `INVALID_TAG`, else min-scan) because both pick the
                // *first* qualifying way, but the set's tags and stamps
                // are each read once.
                let set_tags = &self.tags[base..base + self.ways];
                let meta = &self.meta[base..base + self.ways];
                let mut free = usize::MAX;
                let mut v = 0usize;
                let mut best = meta[0];
                if set_tags[0] == INVALID_TAG {
                    free = 0;
                }
                for w in 1..self.ways {
                    let empty = set_tags[w] == INVALID_TAG && free == usize::MAX;
                    free = if empty { w } else { free };
                    let better = meta[w] < best;
                    v = if better { w } else { v };
                    best = if better { meta[w] } else { best };
                }
                if free != usize::MAX {
                    free
                } else {
                    v
                }
            };
        // Dirty implies valid, so the install stores to the dirty array
        // only when the bit actually changes — an all-clean stream (and
        // every instruction-side caller) never touches it.
        let was_dirty = self.tags[victim] != INVALID_TAG && self.dirty[victim];
        let writeback_of = if was_dirty {
            Some(self.line_of(self.tags[victim], set))
        } else {
            None
        };
        if was_dirty != write {
            self.dirty[victim] = write;
        }
        self.tags[victim] = tag;
        self.meta[victim] = self.clock;
        Access::Miss { writeback_of }
    }

    /// DRRIP access path. The hit check is the early-exit probe; the miss
    /// body is dispatched to a const-width specialization for the two
    /// widths that carry traffic — the 12-way Broadwell LLC and its 8-way
    /// CAT partition. Runtime width throughout measured 15.7 → 21.7 ns/op
    /// on `sim/cache_llc_drrip` and +10 % on the median `xapian_bo_long`
    /// search (docs/PERFORMANCE.md §2).
    #[inline]
    fn access_drrip(&mut self, base: usize, set: u64, tag: u32, write: bool) -> Access {
        if let Some(way) = self.probe(base, tag) {
            let i = base + way;
            self.dirty[i] |= write;
            self.rrpv[i] = 0; // promote to near-immediate re-reference
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        match self.ways {
            8 => self.drrip_miss_w::<8>(base, set, tag, write),
            12 => self.drrip_miss_w::<12>(base, set, tag, write),
            _ => self.drrip_miss_w::<0>(base, set, tag, write),
        }
    }

    /// Shared DRRIP miss body: victim selection with the aging rounds
    /// collapsed, write-back detection, and the dueling-driven install.
    /// The entire victim search is one fused pass: free-way mask plus the
    /// RRPV threshold masks, from which the victim and the collapsed aging
    /// delta both fall out (see `docs/PERFORMANCE.md`).
    #[inline]
    fn drrip_miss_w<const W: usize>(
        &mut self,
        base: usize,
        set: u64,
        tag: u32,
        write: bool,
    ) -> Access {
        let ways = if W == 0 { self.ways } else { W };
        let set_tags = &self.tags[base..base + ways];
        // Victim selection with the textbook aging rounds collapsed. Aging
        // bumps every RRPV by 1 until some way reaches RRPV_MAX; since
        // RRPVs never exceed RRPV_MAX, that is equivalent to one uniform
        // add of `RRPV_MAX - max`, and the victim is the first way holding
        // the pre-aging maximum. One pass computes the free-way mask and
        // the three RRPV threshold masks; the first set bit of the highest
        // non-empty mask is exactly the way the round-by-round loop would
        // surface first.
        let rrpv = &self.rrpv[base..base + ways];
        let mut free = 0u64;
        let mut m3 = 0u64;
        for w in 0..ways {
            free |= u64::from(set_tags[w] == INVALID_TAG) << w;
            m3 |= u64::from(rrpv[w] >= RRPV_MAX) << w;
        }
        let victim = if free != 0 {
            // First never-filled way, like the old probe-for-invalid.
            free.trailing_zeros() as usize
        } else if m3 != 0 {
            // A way is already distant: no aging round would run.
            m3.trailing_zeros() as usize
        } else {
            // Aging actually runs — rare once the set is in steady
            // state, so the threshold masks are computed lazily here.
            let (mut m2, mut m1) = (0u64, 0u64);
            for (w, &m) in rrpv.iter().enumerate() {
                m2 |= u64::from(m >= RRPV_MAX - 1) << w;
                m1 |= u64::from(m >= 1) << w;
            }
            let (delta, mask) = if m2 != 0 {
                (1, m2)
            } else if m1 != 0 {
                (RRPV_MAX - 1, m1)
            } else {
                (RRPV_MAX, 1)
            };
            for m in &mut self.rrpv[base..base + ways] {
                *m += delta;
            }
            mask.trailing_zeros() as usize
        };
        // `victim` comes from a trailing_zeros over a ways-wide mask, so
        // the `min` is an identity that proves the stores below in-bounds.
        let vw = victim.min(ways - 1);
        let (sets_shift, set_shift) = (self.sets_shift, self.set_shift);
        // `drrip_insert_rrpv` only touches psel/brrip_ctr/rng, so hoisting
        // it above the set-array stores is order-equivalent; it runs first
        // so the slice reborrows below don't conflict with `&mut self`.
        let insert_rrpv = self.drrip_insert_rrpv(set);
        let set_tags = &mut self.tags[base..base + ways];
        let dirty = &mut self.dirty[base..base + ways];
        let rrpv = &mut self.rrpv[base..base + ways];
        // As in `access_lru`: dirty implies valid, so only store the bit
        // when it changes.
        let was_dirty = set_tags[vw] != INVALID_TAG && dirty[vw];
        let writeback_of = if was_dirty {
            Some(((u64::from(set_tags[vw]) << sets_shift) | set) << set_shift)
        } else {
            None
        };
        if was_dirty != write {
            dirty[vw] = write;
        }
        set_tags[vw] = tag;
        rrpv[vw] = insert_rrpv;
        Access::Miss { writeback_of }
    }

    fn drrip_insert_rrpv(&mut self, set: u64) -> u8 {
        // Set dueling: low leader sets use SRRIP, high leader sets use
        // BRRIP; followers pick the policy favored by PSEL.
        const LEADERS: u64 = 32;
        let use_brrip = if set.is_multiple_of(LEADERS) {
            self.psel = (self.psel + 1).min(PSEL_MAX); // SRRIP leader missed
            false
        } else if set % LEADERS == 1 {
            self.psel = (self.psel - 1).max(0); // BRRIP leader missed
            true
        } else {
            self.psel < PSEL_MAX / 2
        };
        if use_brrip {
            // BRRIP: distant re-reference most of the time.
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            if self.brrip_ctr.is_multiple_of(32) || self.rng.bool(0.01) {
                RRPV_MAX - 1
            } else {
                RRPV_MAX
            }
        } else {
            // SRRIP: long (but not distant) re-reference.
            RRPV_MAX - 1
        }
    }

    /// LRU victim way for an 8-way set, given the set's stamp slice.
    ///
    /// One packed first-min over `(stamp << 3) | way` replaces the
    /// two-chain scan (first `INVALID_TAG` way, else first least-recent
    /// stamp): invalid ways hold stamp 0 by invariant — `new`/`reinit`/
    /// `set_ways` zero the stamps of invalid ways, installs stamp
    /// `clock >= 1` (the caller increments `clock` before accessing) —
    /// so a free way's key is always below any valid way's, and ties
    /// between equal stamps resolve to the lower way via the packed low
    /// bits. The tree of `min`s is 3 deep where the scan's dependent
    /// conditional-move chain was 7.
    ///
    /// Stamps are access counts, so `stamp << 3` cannot overflow within
    /// any physically possible run (that would take 2^61 accesses).
    #[inline]
    fn lru8_victim(meta: &[u64]) -> usize {
        let key = |w: usize| (meta[w] << 3) | w as u64;
        let a = key(0).min(key(1));
        let b = key(2).min(key(3));
        let c = key(4).min(key(5));
        let d = key(6).min(key(7));
        (a.min(b).min(c.min(d)) & 7) as usize
    }

    /// Maximum line count per [`Cache::access_span_clean`] call.
    pub const SPAN_LINES: u32 = 8;

    /// Accesses up to [`Cache::SPAN_LINES`] *consecutive* cache lines
    /// starting at the line containing `addr`, read-only, and returns a
    /// bitmask with bit `k` set if line `k` missed. Dirty victim lines
    /// evicted by the installs are appended to `writebacks` in eviction
    /// order.
    ///
    /// Equivalent to — and bit-identical with, including every counter and
    /// replacement decision — `n` successive `access(addr + k * line,
    /// false)` calls (property-tested in `tests/batched_equivalence.rs`).
    /// This is the instruction-fetch entry point: consecutive lines map to
    /// *distinct* consecutive sets and share one narrow tag, so an 8-way
    /// LRU span that does not wrap the set array walks its sets in one
    /// pass with one address decomposition and one bounds check per
    /// array. Every L1I line of every search takes that path; any other
    /// geometry, policy or a wrapping span falls back to the per-access
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above [`Cache::SPAN_LINES`].
    ///
    /// # Examples
    ///
    /// ```
    /// use datamime_sim::{Cache, CacheConfig};
    ///
    /// let mut a = Cache::new(CacheConfig::new(32 * 1024, 8));
    /// let mut b = Cache::new(CacheConfig::new(32 * 1024, 8));
    /// let mut wb = Vec::new();
    /// // One span call == four per-access calls.
    /// let miss_mask = a.access_span_clean(0x4000_0000, 4, &mut wb);
    /// let mut expect = 0u64;
    /// for k in 0..4u64 {
    ///     expect |= u64::from(b.access(0x4000_0000 + k * 64, false).is_miss()) << k;
    /// }
    /// assert_eq!(miss_mask, expect);
    /// assert_eq!(a.hits(), b.hits());
    /// assert!(wb.is_empty()); // clean lines: no dirty victims
    /// ```
    #[inline]
    pub fn access_span_clean(&mut self, addr: Addr, n: u32, writebacks: &mut Vec<Addr>) -> u64 {
        assert!((1..=Self::SPAN_LINES).contains(&n), "span of {n} lines");
        let first_set = self.set_of(addr);
        // The fast path wants: LRU replacement (the L1/L2 levels the span
        // path serves), 8 ways (every modeled L1/L2), and a span that does
        // not wrap the set array (wrapping would alias two lines onto one
        // set and break the distinct-sets invariant).
        if self.ways == 8
            && self.cfg.replacement == Replacement::Lru
            && first_set + u64::from(n) <= self.sets
        {
            return self.span_clean_lru8(addr, first_set, n, writebacks);
        }
        let mut miss_mask = 0u64;
        for k in 0..u64::from(n) {
            if let Access::Miss { writeback_of } =
                self.access(addr + k * self.cfg.line_bytes, false)
            {
                miss_mask |= 1 << k;
                if let Some(victim) = writeback_of {
                    writebacks.push(victim);
                }
            }
        }
        miss_mask
    }

    /// Fast path of [`Cache::access_span_clean`]: 8-way LRU, non-wrapping
    /// span. Each line probes its set first and runs the packed-minimum
    /// victim selection only on a miss.
    #[inline]
    fn span_clean_lru8(
        &mut self,
        addr: Addr,
        first_set: u64,
        n: u32,
        writebacks: &mut Vec<Addr>,
    ) -> u64 {
        const W: usize = 8;
        // The narrow tag is *constant* across a non-wrapping span — the
        // lines differ only in their set bits, which narrow tags drop — so
        // one register feeds every line's compare.
        let tag = self.narrow_tag(addr);
        let base = first_set as usize * W;
        let end = base + W * n as usize;
        // One bounds check per array for the whole span; `chunks_exact`
        // hands each line's set to the loop body as a full-width slice the
        // compiler proves is 8 long, so the per-way indexing below compiles
        // without further checks.
        let tags = self.tags[base..end].chunks_exact_mut(W);
        let meta = self.meta[base..end].chunks_exact_mut(W);
        let dirty = self.dirty[base..end].chunks_exact_mut(W);
        let clock0 = self.clock;
        self.clock += u64::from(n);
        let mut hits = 0u64;
        let mut miss_mask = 0u64;
        for (k, ((set_tags, meta), dirty)) in tags.zip(meta).zip(dirty).enumerate() {
            let clock = clock0 + k as u64 + 1;
            // Probe first: instruction spans hit nearly always (hot code
            // is L1I-resident in steady state), so the victim machinery —
            // eight stamp loads and a min tree per set — would be pure
            // waste on the common path.
            if let Some(w) = set_tags.iter().position(|&t| t == tag) {
                meta[w] = clock;
                hits += 1;
                continue;
            }
            miss_mask |= 1 << k;
            let victim = Self::lru8_victim(meta);
            // Dirty implies valid (installs set both; invalidation clears
            // both), so a clean install only needs to clear the bit when a
            // write-back actually fired — the common all-clean stream never
            // stores to the dirty array at all.
            if set_tags[victim] != INVALID_TAG && dirty[victim] {
                let set = first_set + k as u64;
                writebacks.push(
                    ((u64::from(set_tags[victim]) << self.sets_shift) | set) << self.set_shift,
                );
                dirty[victim] = false;
            }
            set_tags[victim] = tag;
            meta[victim] = clock;
        }
        self.hits += hits;
        self.misses += miss_mask.count_ones() as u64;
        miss_mask
    }

    /// Repartitions the cache to `new_ways` ways in place, preserving the
    /// contents of the ways that remain — matching how CAT repartitioning
    /// behaves on hardware (lines in revoked ways are dropped; lines in
    /// retained ways stay valid).
    ///
    /// The set count never changes. Growing — up to the 64 ways a set
    /// probe supports — adds empty ways; [`crate::Machine::set_llc_ways`]
    /// is where an allocation is held to the LLC's configured
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if `new_ways` is zero or above 64.
    pub fn set_ways(&mut self, new_ways: u32) {
        assert!(
            new_ways > 0 && new_ways <= MAX_WAYS,
            "invalid way allocation"
        );
        let old_ways = self.ways;
        let new = new_ways as usize;
        if new == old_ways {
            return;
        }
        let n = self.sets as usize * new;
        let mut tags: Vec<u32> = vec![INVALID_TAG; n];
        let mut meta = vec![0u64; if self.meta.is_empty() { 0 } else { n }];
        let mut rrpv = vec![0u8; if self.rrpv.is_empty() { 0 } else { n }];
        let mut dirty = vec![false; n];
        let keep = old_ways.min(new);
        for set in 0..self.sets as usize {
            for w in 0..keep {
                tags[set * new + w] = self.tags[set * old_ways + w];
                if !meta.is_empty() {
                    meta[set * new + w] = self.meta[set * old_ways + w];
                }
                if !rrpv.is_empty() {
                    rrpv[set * new + w] = self.rrpv[set * old_ways + w];
                }
                dirty[set * new + w] = self.dirty[set * old_ways + w];
            }
        }
        self.tags = tags;
        self.meta = meta;
        self.rrpv = rrpv;
        self.dirty = dirty;
        self.ways = new;
        self.cfg.ways = new_ways;
        self.cfg.size_bytes = self.sets * new_ways as u64 * self.cfg.line_bytes;
    }

    /// Reconfigures the cache in place to exactly the state
    /// [`Cache::new(cfg)`](Cache::new) would produce, reusing the existing
    /// tag/metadata allocations when the total way count is unchanged.
    ///
    /// This is the arena-reuse hook: a pooled `Cache` handed out by
    /// `datamime`'s `EvalArena` is `reinit`ed instead of reallocated, which
    /// removes ~3 MB of allocator traffic per evaluation for a Broadwell
    /// LLC. Behaviour after `reinit(cfg)` is bit-identical to a fresh
    /// `Cache::new(cfg)` — including the DRRIP set-dueling counters and the
    /// seeded BRRIP tie-break RNG.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::sets`]).
    pub fn reinit(&mut self, cfg: CacheConfig) {
        let sets = cfg.sets();
        assert!(
            cfg.ways <= MAX_WAYS,
            "associativity above {MAX_WAYS} is unsupported"
        );
        let n = (sets * cfg.ways as u64) as usize;
        if n == self.tags.len() {
            self.tags.fill(INVALID_TAG);
            self.dirty.fill(false);
        } else {
            self.tags.clear();
            self.tags.resize(n, INVALID_TAG);
            self.dirty.clear();
            self.dirty.resize(n, false);
        }
        // Replacement state follows the (possibly changed) policy.
        let (meta_n, rrpv_n) = match cfg.replacement {
            Replacement::Lru => (n, 0),
            Replacement::Drrip => (0, n),
        };
        if self.meta.len() == meta_n {
            self.meta.fill(0);
        } else {
            self.meta.clear();
            self.meta.resize(meta_n, 0);
        }
        if self.rrpv.len() == rrpv_n {
            self.rrpv.fill(0);
        } else {
            self.rrpv.clear();
            self.rrpv.resize(rrpv_n, 0);
        }
        self.cfg = cfg;
        self.sets = sets;
        self.set_mask = sets - 1;
        self.set_shift = cfg.line_bytes.trailing_zeros();
        self.sets_shift = sets.trailing_zeros();
        self.ways = cfg.ways as usize;
        self.clock = 0;
        self.psel = PSEL_MAX / 2;
        self.brrip_ctr = 0;
        self.rng = Rng::with_seed(0xD12);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lru() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            replacement: Replacement::Lru,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_lru();
        assert!(c.access(0, false).is_miss());
        assert_eq!(c.access(0, false), Access::Hit);
        assert_eq!(c.access(63, false), Access::Hit); // same line
        assert!(c.access(64, false).is_miss()); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_lru();
        // Set 0 holds lines with addr % 256 == 0 (4 sets x 64B): 0, 256, 512.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // refresh line 0
        c.access(512, false); // evicts 256
        assert_eq!(c.access(0, false), Access::Hit);
        assert!(c.access(256, false).is_miss());
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small_lru();
        c.access(0, true); // dirty
        c.access(256, false);
        match c.access(512, false) {
            Access::Miss { writeback_of } => assert_eq!(writeback_of, Some(0)),
            Access::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small_lru();
        c.access(0, false);
        c.access(256, false);
        match c.access(512, false) {
            Access::Miss { writeback_of } => assert_eq!(writeback_of, None),
            Access::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let cfg = CacheConfig::new(32 * 1024, 8);
        let mut c = Cache::new(cfg);
        let lines: Vec<u64> = (0..256).map(|i| i * 64).collect(); // 16 KB
        for &a in &lines {
            c.access(a, false);
        }
        let miss_before = c.misses();
        for _ in 0..10 {
            for &a in &lines {
                c.access(a, false);
            }
        }
        assert_eq!(c.misses(), miss_before, "warm working set should not miss");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_lru() {
        // 512 B cache, 1 KB circular working set: LRU misses every access.
        let mut c = small_lru();
        let lines: Vec<u64> = (0..16).map(|i| i * 64).collect();
        for _ in 0..4 {
            for &a in &lines {
                c.access(a, false);
            }
        }
        let total = c.hits() + c.misses();
        assert_eq!(c.misses(), total, "LRU must thrash on cyclic overflow");
    }

    #[test]
    fn drrip_outperforms_lru_on_thrashing_pattern() {
        let mk = |rep| {
            Cache::new(CacheConfig {
                size_bytes: 16 * 1024,
                ways: 8,
                line_bytes: 64,
                replacement: rep,
            })
        };
        let mut lru = mk(Replacement::Lru);
        let mut drrip = mk(Replacement::Drrip);
        // Cyclic working set 2x the cache: classic LRU pathology.
        let lines: Vec<u64> = (0..512).map(|i| i * 64).collect();
        for _ in 0..40 {
            for &a in &lines {
                lru.access(a, false);
                drrip.access(a, false);
            }
        }
        assert!(
            drrip.hits() > lru.hits(),
            "drrip hits {} <= lru hits {}",
            drrip.hits(),
            lru.hits()
        );
    }

    #[test]
    fn with_ways_partitioning_shrinks_capacity() {
        let cfg = CacheConfig {
            size_bytes: 12 << 20,
            ways: 12,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        };
        let one = cfg.with_ways(1);
        assert_eq!(one.size_bytes, 1 << 20);
        assert_eq!(one.sets(), cfg.sets());
        let six = cfg.with_ways(6);
        assert_eq!(six.size_bytes, 6 << 20);
    }

    #[test]
    #[should_panic(expected = "invalid way allocation")]
    fn with_ways_zero_panics() {
        CacheConfig::new(1024, 4).with_ways(0);
    }

    #[test]
    fn partitioned_cache_misses_more() {
        let cfg = CacheConfig {
            size_bytes: 1 << 20,
            ways: 16,
            line_bytes: 64,
            replacement: Replacement::Lru,
        };
        let mut full = Cache::new(cfg);
        let mut slim = Cache::new(cfg.with_ways(2));
        // Working set of 512 KB: fits in 1 MB, not in 128 KB.
        let lines: Vec<u64> = (0..8192).map(|i| i * 64).collect();
        for _ in 0..5 {
            for &a in &lines {
                full.access(a, false);
                slim.access(a, false);
            }
        }
        assert!(slim.misses() > full.misses() * 2);
    }
}

#[cfg(test)]
mod resize_tests {
    use super::*;

    #[test]
    fn growing_preserves_contents() {
        let mut c = Cache::new(CacheConfig::new(4096, 2));
        c.access(0, false);
        c.access(64, false);
        c.set_ways(4);
        assert_eq!(c.config().ways, 4);
        assert_eq!(c.access(0, false), Access::Hit);
        assert_eq!(c.access(64, false), Access::Hit);
    }

    #[test]
    fn shrinking_keeps_retained_ways_only() {
        let mut c = Cache::new(CacheConfig::new(4096, 4));
        // Fill way 0 of set 0 (addresses map to set 0 every 64*16 = 1 KiB).
        c.access(0, false);
        c.set_ways(1);
        assert_eq!(c.config().ways, 1);
        assert_eq!(c.config().size_bytes, 1024);
        assert_eq!(c.access(0, false), Access::Hit);
    }

    #[test]
    fn resize_roundtrip_capacity() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 12 << 20,
            ways: 12,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        });
        c.set_ways(1);
        assert_eq!(c.config().size_bytes, 1 << 20);
        c.set_ways(12);
        assert_eq!(c.config().size_bytes, 12 << 20);
    }

    #[test]
    #[should_panic(expected = "invalid way allocation")]
    fn zero_ways_panics() {
        Cache::new(CacheConfig::new(4096, 2)).set_ways(0);
    }
}
