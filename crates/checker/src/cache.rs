//! The memoizing entailment cache.
//!
//! SLING's inference loop asks the model checker the same kind of
//! question over and over: "does this sub-heap satisfy this predicate
//! formula?" Sub-heaps recur constantly — the same list segment shows up
//! at entry and exit, across loop iterations, and across the many target
//! functions of a batch analysis. [`CheckCache`] memoizes the reduction
//! `s, h ⊩ F ⇝ h', ι` keyed on a *canonical form* of the
//! `(sub-heap shape, formula)` pair, so a repeated query — even one whose
//! concrete heap addresses differ — is answered without re-running the
//! search.
//!
//! # Canonicalization
//!
//! The key must be insensitive to the accidents of a particular run:
//!
//! * **Addresses** are renamed to dense canonical ids by a breadth-first
//!   walk of the heap rooted at the formula's free variables (in name
//!   order); unreached cells follow in address order. Two isomorphic
//!   sub-heaps therefore produce the same key, and the checker's verdict
//!   transfers because the reduction judgment is invariant under
//!   bijective renaming of addresses.
//! * **Bound variables** of the formula are renamed to positional names,
//!   so `∃u3. sll(u3)` and `∃u7. sll(u7)` share an entry.
//! * Pointers that leave the sub-heap (boundary pointers) get their own
//!   canonical ids in first-encounter order, preserving their equality
//!   pattern without leaking raw addresses into the key.
//!
//! Cached entries store the residual domain and existential
//! instantiation in canonical space; a hit rehydrates them through the
//! querying model's own renaming.
//!
//! # Concurrency
//!
//! The cache is sharded: entries are distributed over [`SHARD_COUNT`]
//! independent `Mutex<HashMap>` shards selected by the key's precomputed
//! fingerprint, so concurrent checker threads (a parallel engine batch)
//! contend only when they touch the same shard. Hit/miss counters are
//! per-shard atomics; [`CheckCache::stats`] sums them, so totals stay
//! exact under any interleaving.
//!
//! # Persistence
//!
//! Because canonical keys are stable across processes, a cache can be
//! snapshotted to disk and reloaded by a later run — see
//! [`crate::persist`]. Entries restored that way are *warm*; hits on
//! them are reported separately in [`CacheStats::warm_hits`].
//!
//! # Examples
//!
//! Two isomorphic models share one cache entry — the second query is
//! answered without re-running the search:
//!
//! ```
//! use sling_checker::{CheckCache, CheckCtx};
//! use sling_logic::{parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv,
//!                   StructDef, Symbol, TypeEnv};
//! use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};
//!
//! let node = Symbol::intern("MNode");
//! let mut types = TypeEnv::new();
//! types.define(StructDef {
//!     name: node,
//!     fields: vec![FieldDef { name: Symbol::intern("next"), ty: FieldTy::Ptr(node) }],
//! })?;
//! let mut preds = PredEnv::new();
//! for d in parse_predicates(
//!     "pred mlist(x: MNode*) := emp & x == nil | exists u. x -> MNode{next: u} * mlist(u);",
//! )? {
//!     preds.define(d)?;
//! }
//!
//! // A one-cell list headed by `x`, at a caller-chosen address.
//! let model = |base: u64| {
//!     let mut heap = Heap::new();
//!     heap.insert(Loc::new(base), HeapCell::new(node, vec![Val::Nil]));
//!     let mut stack = Stack::new();
//!     stack.bind(Symbol::intern("x"), Val::Addr(Loc::new(base)));
//!     StackHeapModel::new(stack, heap)
//! };
//!
//! let cache = CheckCache::new();
//! let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
//! let f = parse_formula("mlist(x)")?;
//! assert!(ctx.check(&model(1), &f).is_some()); // cold: runs the search
//! assert!(ctx.check(&model(9), &f).is_some()); // isomorphic: cache hit
//! assert_eq!(cache.stats().hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sling_logic::{Expr, Subst, SymHeap, Symbol};
use sling_models::{Loc, StackHeapModel, Val};

use crate::check::Reduction;
use crate::inst::Instantiation;

/// Point-in-time counters of a [`CheckCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries answered by entries loaded from a persisted cache file
    /// (see [`crate::persist`]) — the warm-start subset of `hits`.
    pub warm_hits: u64,
    /// Queries that ran the full search (and seeded the cache).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted to stay inside the configured capacity.
    pub evictions: u64,
    /// Approximate bytes currently held by stored entries (key text,
    /// cached reductions, and per-entry bookkeeping).
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// The counter movement since an `earlier` snapshot of the same
    /// cache (entry counts and resident bytes are absolute, not
    /// differenced).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            warm_hits: self.warm_hits.saturating_sub(earlier.warm_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
            evictions: self.evictions.saturating_sub(earlier.evictions),
            resident_bytes: self.resident_bytes,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}%), {} entries",
            self.hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.entries
        )?;
        if self.warm_hits > 0 {
            write!(f, ", {} warm", self.warm_hits)?;
        }
        if self.evictions > 0 {
            write!(f, ", {} evicted", self.evictions)?;
        }
        Ok(())
    }
}

/// Number of independent shards a [`CheckCache`] distributes its entries
/// over. Concurrent checker threads contend only when two lookups land on
/// the same shard.
pub const SHARD_COUNT: usize = 16;

/// FNV-1a over a byte slice — the one hash used for every fingerprint
/// in this crate (cache keys, environment fingerprints, snapshot
/// checksums), so the constants live in exactly one place.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a fold from an intermediate state.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything outside the `(model, formula)` pair that a verdict depends
/// on: the environment fingerprint and the search limits (a
/// budget-truncated "no" must not answer a full-budget query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct QueryScope {
    /// Fingerprint of the `(TypeEnv, PredEnv)` pair.
    pub(crate) env_tag: u64,
    /// Search-node budget of the querying context.
    pub(crate) node_budget: u64,
    /// Unfolding slack of the querying context.
    pub(crate) fuel_slack: u32,
}

/// The cache key: the query scope plus the canonical form of the
/// `(model, formula)` pair, with a FNV-1a fingerprint over both
/// precomputed once at canonicalization. The fingerprint picks the shard
/// and feeds the hash table directly (via a pass-through hasher), so the
/// canonical text is never re-hashed on probes; equality still compares
/// the full text, so fingerprint collisions cannot alias entries. The
/// text is refcounted (`Arc<str>`), so cloning a key — the LRU stamp
/// index holds one clone per entry — costs a pointer bump, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub(crate) scope: QueryScope,
    fingerprint: u64,
    pub(crate) text: std::sync::Arc<str>,
}

impl CacheKey {
    pub(crate) fn new(scope: QueryScope, text: String) -> CacheKey {
        let mut h = fnv1a(&scope.env_tag.to_le_bytes());
        h = fnv1a_extend(h, &scope.node_budget.to_le_bytes());
        h = fnv1a_extend(h, &scope.fuel_slack.to_le_bytes());
        h = fnv1a_extend(h, text.as_bytes());
        CacheKey {
            scope,
            fingerprint: h,
            text: text.into(),
        }
    }

    /// The shard this key belongs to. Uses high fingerprint bits, leaving
    /// the low bits (used by the hash table's bucket index) independent.
    fn shard(&self) -> usize {
        (self.fingerprint >> 48) as usize % SHARD_COUNT
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// Hasher that passes the precomputed key fingerprint straight through.
#[derive(Debug, Default, Clone)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-fingerprint keys (unused in practice).
        self.0 = fnv1a_extend(self.0, bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type FingerprintBuild = BuildHasherDefault<FingerprintHasher>;

/// Snapshot-generation stamp of entries computed live in this process.
/// Live entries always beat snapshot entries in newest-generation-wins
/// collision resolution ([`CheckCache::merge_warm`]).
pub(crate) const GEN_LIVE: u64 = u64::MAX;

/// One stored verdict plus its provenance: entries loaded from a
/// persisted cache file are *warm* and counted separately on hits.
#[derive(Debug, Clone)]
struct Entry {
    value: Option<CachedReduction>,
    warm: bool,
    /// Last-access stamp from the shard clock; the LRU victim is the
    /// entry with the smallest stamp.
    stamp: u64,
    /// Snapshot generation this entry was restored from ([`GEN_LIVE`]
    /// for entries computed in this process), for newest-wins merging.
    gen: u64,
    /// Predicates the entry's formula mentions directly — persistence
    /// metadata, so a snapshot can invalidate per predicate.
    preds: Box<[Symbol]>,
    /// Approximate resident size, so removal accounting is exact.
    bytes: u64,
}

/// Fixed per-entry bookkeeping cost added to the measured payload when
/// accounting [`CacheStats::resident_bytes`].
const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<CacheKey>() + std::mem::size_of::<Entry>()) as u64;

fn entry_bytes(key: &CacheKey, value: &Option<CachedReduction>, preds: &[Symbol]) -> u64 {
    let payload = match value {
        None => 0,
        Some(red) => {
            red.residual.len() * std::mem::size_of::<u32>()
                + red.inst.len() * std::mem::size_of::<(CanonName, CanonVal)>()
        }
    };
    ENTRY_OVERHEAD + key.text.len() as u64 + payload as u64 + std::mem::size_of_val(preds) as u64
}

/// The mutable interior of one shard: the map, its access clock, the
/// stamp-ordered LRU index, and the resident-byte ledger — everything
/// that moves together under the shard lock.
#[derive(Debug, Default)]
struct ShardMap {
    entries: HashMap<CacheKey, Entry, FingerprintBuild>,
    /// Access order: stamp → key. Stamps are unique (the clock only
    /// goes up), so the first entry is exactly the least recently used
    /// — eviction is O(log n) and unbiased at every shard size. Key
    /// clones here are pointer bumps (`CacheKey.text` is `Arc<str>`).
    by_stamp: BTreeMap<u64, CacheKey>,
    /// Monotonic per-shard access clock; every hit and insert stamps
    /// the touched entry, so LRU selection needs no global ordering.
    clock: u64,
    resident_bytes: u64,
}

impl ShardMap {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.by_stamp.remove(&entry.stamp);
        self.resident_bytes -= entry.bytes;
        Some(entry)
    }

    fn insert(&mut self, key: CacheKey, mut entry: Entry) {
        let stamp = self.tick();
        entry.stamp = stamp;
        entry.bytes = entry_bytes(&key, &entry.value, &entry.preds);
        self.resident_bytes += entry.bytes;
        self.by_stamp.insert(stamp, key.clone());
        if let Some(old) = self.entries.insert(key, entry) {
            self.by_stamp.remove(&old.stamp);
            self.resident_bytes -= old.bytes;
        }
    }

    /// Refreshes an entry's access stamp and returns its verdict and
    /// warmth, if present.
    fn touch(&mut self, key: &CacheKey) -> Option<(Option<CachedReduction>, bool)> {
        let stamp = self.tick();
        let entry = self.entries.get_mut(key)?;
        let old = std::mem::replace(&mut entry.stamp, stamp);
        let result = (entry.value.clone(), entry.warm);
        self.by_stamp.remove(&old);
        self.by_stamp.insert(stamp, key.clone());
        Some(result)
    }

    /// Evicts the least-recently-used entry — the stamp index makes the
    /// choice exact at any shard size, not a sampled approximation.
    fn evict_lru(&mut self) -> bool {
        let victim = self.by_stamp.first_key_value().map(|(_, key)| key.clone());
        match victim {
            Some(key) => self.remove(&key).is_some(),
            None => false,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.by_stamp.clear();
        self.resident_bytes = 0;
    }
}

/// One independent slice of the cache: its own map and counters.
#[derive(Debug, Default)]
struct Shard {
    map: Mutex<ShardMap>,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A shared, thread-safe memo table for checker reductions, sharded for
/// concurrent use.
///
/// Create one per [`crate::CheckCtx`] scope (an engine, a batch run) and
/// pass it via [`crate::CheckCtx::with_cache`]. Both satisfiable and
/// unsatisfiable verdicts are cached.
#[derive(Debug)]
pub struct CheckCache {
    shards: Vec<Shard>,
    shard_capacity: usize,
    /// Highest snapshot generation ever absorbed (via load or merge).
    /// Saves stamp strictly above it, so a cache that folded in a
    /// future-stamped sibling (clock skew) still writes snapshots that
    /// win newest-generation collisions with it.
    max_generation: AtomicU64,
}

impl Default for CheckCache {
    fn default() -> CheckCache {
        CheckCache::new()
    }
}

/// Default bound on stored entries; beyond it new results are computed
/// but not retained (the working set of a corpus run stays far below).
const DEFAULT_CAPACITY: usize = 1 << 20;

impl CheckCache {
    /// An empty cache with the default capacity.
    pub fn new() -> CheckCache {
        CheckCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache retaining roughly `capacity` entries. The bound is
    /// enforced per shard ([`SHARD_COUNT`] shards of
    /// `capacity / SHARD_COUNT` entries each, rounded up so small
    /// capacities still cache), so the retained total can overshoot a
    /// capacity that is not a multiple of the shard count by at most
    /// `SHARD_COUNT - 1` entries.
    pub fn with_capacity(capacity: usize) -> CheckCache {
        CheckCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            shard_capacity: capacity.div_ceil(SHARD_COUNT),
            max_generation: AtomicU64::new(0),
        }
    }

    /// Highest snapshot generation this cache has absorbed (0 when it
    /// never loaded or merged a snapshot). [`crate::persist::save`]
    /// stamps new snapshots strictly above it.
    pub(crate) fn max_generation(&self) -> u64 {
        self.max_generation.load(Ordering::Relaxed)
    }

    fn note_generation(&self, gen: u64) {
        if gen != GEN_LIVE {
            self.max_generation.fetch_max(gen, Ordering::Relaxed);
        }
    }

    /// The configured entry bound (total across shards).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARD_COUNT
    }

    /// Current counters, summed over every shard. Hit/miss totals are
    /// exact under concurrent use; `entries` and `resident_bytes` are
    /// point-in-time sums.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.warm_hits += shard.warm_hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
            let map = shard.map.lock().expect("cache lock");
            stats.entries += map.entries.len() as u64;
            stats.resident_bytes += map.resident_bytes;
        }
        stats
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.lock().expect("cache lock").clear();
        }
    }

    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Option<CachedReduction>> {
        let shard = &self.shards[key.shard()];
        let found = shard.map.lock().expect("cache lock").touch(key);
        match &found {
            Some((_, warm)) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                if *warm {
                    shard.warm_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
            }
        };
        found.map(|(value, _)| value)
    }

    /// Stores a freshly computed verdict, evicting the shard's
    /// least-recently-used entry first when the shard is full. `preds`
    /// is the formula's direct predicate-mention set, kept so the entry
    /// can be persisted with per-predicate invalidation metadata.
    pub(crate) fn store(&self, key: CacheKey, value: Option<CachedReduction>, preds: &[Symbol]) {
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().expect("cache lock");
        if map.entries.len() >= self.shard_capacity && !map.entries.contains_key(&key) {
            if !map.evict_lru() {
                return; // zero-capacity shard: nothing to evict into
            }
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(
            key,
            Entry {
                value,
                warm: false,
                stamp: 0,
                gen: GEN_LIVE,
                preds: preds.into(),
                bytes: 0,
            },
        );
    }

    /// Inserts an entry loaded from a persisted snapshot; hits on it
    /// are counted as warm starts ([`CacheStats::warm_hits`]). Warm
    /// inserts never evict live entries: the entry is dropped when its
    /// shard is at capacity. Returns whether the entry was actually
    /// retained, so loaders can report the restored count honestly.
    pub(crate) fn store_warm(
        &self,
        key: CacheKey,
        value: Option<CachedReduction>,
        preds: &[Symbol],
        gen: u64,
    ) -> bool {
        self.note_generation(gen);
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().expect("cache lock");
        if map.entries.len() >= self.shard_capacity && !map.entries.contains_key(&key) {
            return false;
        }
        map.insert(
            key,
            Entry {
                value,
                warm: true,
                stamp: 0,
                gen,
                preds: preds.into(),
                bytes: 0,
            },
        );
        true
    }

    /// [`CheckCache::store_warm`] with newest-generation-wins collision
    /// resolution, for folding sibling snapshots into a live cache: an
    /// existing entry with a generation at least `gen` (including any
    /// live-computed entry) is kept, an older one is replaced — unless
    /// it already holds the same verdict, in which case it only adopts
    /// the newer generation. Returns whether a new or changed verdict
    /// was retained, so re-folding a sibling that re-saved without new
    /// work counts nothing.
    pub(crate) fn merge_warm(
        &self,
        key: CacheKey,
        value: Option<CachedReduction>,
        preds: &[Symbol],
        gen: u64,
    ) -> bool {
        self.note_generation(gen);
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().expect("cache lock");
        if let Some(existing) = map.entries.get_mut(&key) {
            if existing.gen >= gen {
                return false;
            }
            if existing.value == value {
                existing.gen = gen;
                return false;
            }
        } else if map.entries.len() >= self.shard_capacity {
            return false;
        }
        map.insert(
            key,
            Entry {
                value,
                warm: true,
                stamp: 0,
                gen,
                preds: preds.into(),
                bytes: 0,
            },
        );
        true
    }

    /// Snapshots every stored entry whose scope carries `env_tag`, for
    /// persistence. Shards are locked one at a time, so the snapshot is
    /// per-shard consistent (exact when no checker runs concurrently).
    pub(crate) fn entries_for(&self, env_tag: u64) -> Vec<ExportedEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.map.lock().expect("cache lock");
            for (key, entry) in map.entries.iter() {
                if key.scope.env_tag == env_tag {
                    out.push(ExportedEntry {
                        key: key.clone(),
                        value: entry.value.clone(),
                        preds: entry.preds.to_vec(),
                    });
                }
            }
        }
        out
    }
}

/// One cache entry lifted out for persistence: the key, the verdict,
/// and the predicate-mention metadata the snapshot needs for partial
/// invalidation.
pub(crate) struct ExportedEntry {
    pub(crate) key: CacheKey,
    pub(crate) value: Option<CachedReduction>,
    pub(crate) preds: Vec<Symbol>,
}

/// A value in canonical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CanonVal {
    /// The null pointer.
    Nil,
    /// An integer (kept verbatim: formulas may constrain it).
    Int(i64),
    /// The `id`-th cell of the canonical heap enumeration.
    InHeap(u32),
    /// The `id`-th distinct pointer that leaves the sub-heap.
    Dangling(u32),
}

/// How a cached instantiation names a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CanonName {
    /// Positional index into the formula's binder list.
    Binder(u32),
    /// A free variable of the formula (part of the key, so stable).
    Free(Symbol),
}

/// One memoized reduction, expressed in canonical space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedReduction {
    pub(crate) residual: Vec<u32>,
    pub(crate) inst: Vec<(CanonName, CanonVal)>,
}

/// The canonical form of one `(model, formula)` query: the cache key
/// plus the renamings needed to translate a stored verdict back into
/// the model's concrete address space.
pub(crate) struct CanonicalQuery {
    /// The cache key.
    pub(crate) key: CacheKey,
    /// Predicates the formula mentions directly (sorted, unique) —
    /// stored with the entry so persistence can invalidate per
    /// predicate.
    pub(crate) preds: Vec<Symbol>,
    binders: Vec<Symbol>,
    loc_ids: BTreeMap<Loc, u32>,
    id_locs: Vec<Loc>,
    dangling_ids: BTreeMap<Loc, u32>,
    id_dangling: Vec<Loc>,
}

/// A stable fingerprint of the checking environments, mixed into cache
/// keys so a [`CheckCache`] shared between contexts with *different*
/// environments can never exchange verdicts. Both environments are
/// `BTreeMap`-backed, so their `Debug` output is deterministic for equal
/// contents. Long-lived engines compute this once at build time and pass
/// it via [`crate::CheckCtx`]'s `env_tag` field.
pub fn env_fingerprint(types: &sling_logic::TypeEnv, preds: &sling_logic::PredEnv) -> u64 {
    let text = format!("{types:?}\u{1}{preds:?}");
    fnv1a(text.as_bytes())
}

/// Predicates a formula mentions directly (sorted, unique).
pub(crate) fn formula_pred_mentions(f: &SymHeap) -> Vec<Symbol> {
    let mut out: Vec<Symbol> = f
        .spatial
        .iter()
        .filter_map(|atom| match atom {
            sling_logic::SpatialAtom::Pred { name, .. } => Some(*name),
            sling_logic::SpatialAtom::PointsTo { .. } => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A structured fingerprint of the checking environments: the overall
/// tag ([`env_fingerprint`], mixed into every cache key), a tag of the
/// type environment alone, and one fingerprint *per predicate
/// definition* together with the predicates that definition references.
///
/// The per-predicate table is what lets snapshot loading invalidate
/// partially: an entry's verdict depends only on the type environment
/// and the definitions of the predicates its formula (transitively)
/// mentions, so an entry survives a predicate-library edit whenever
/// none of those definitions changed — see
/// [`crate::persist::load`]. Long-lived engines build one profile at
/// construction and pass it to every [`crate::persist`] call.
#[derive(Debug, Clone)]
pub struct EnvProfile {
    env_tag: u64,
    types_tag: u64,
    preds: BTreeMap<Symbol, PredInfo>,
}

#[derive(Debug, Clone)]
struct PredInfo {
    /// FNV-1a over the definition's `Debug` form (name, params, cases).
    fingerprint: u64,
    /// Other predicates the definition's cases mention (its direct
    /// dependencies; self-recursion is implied and omitted).
    deps: Vec<Symbol>,
}

impl EnvProfile {
    /// Profiles a `(TypeEnv, PredEnv)` pair.
    pub fn new(types: &sling_logic::TypeEnv, preds: &sling_logic::PredEnv) -> EnvProfile {
        let mut table = BTreeMap::new();
        for def in preds.iter() {
            let fingerprint = fnv1a(format!("{def:?}").as_bytes());
            let mut deps: Vec<Symbol> = def
                .cases
                .iter()
                .flat_map(formula_pred_mentions)
                .filter(|name| *name != def.name)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            table.insert(def.name, PredInfo { fingerprint, deps });
        }
        EnvProfile {
            env_tag: env_fingerprint(types, preds),
            types_tag: fnv1a(format!("{types:?}").as_bytes()),
            preds: table,
        }
    }

    /// The overall environment tag ([`env_fingerprint`]) — the value
    /// mixed into every cache key computed under this environment.
    pub fn env_tag(&self) -> u64 {
        self.env_tag
    }

    /// Fingerprint of the type environment alone. Snapshots whose type
    /// environments differ are rejected wholesale: struct layouts feed
    /// every verdict.
    pub fn types_tag(&self) -> u64 {
        self.types_tag
    }

    /// The per-predicate fingerprint table in name order.
    pub(crate) fn pred_table(&self) -> impl Iterator<Item = (Symbol, u64)> + '_ {
        self.preds
            .iter()
            .map(|(name, info)| (*name, info.fingerprint))
    }

    /// Whether an entry that directly mentions `mentions` is still
    /// valid when the saving environment recorded `old` fingerprints:
    /// every predicate in the transitive dependency closure must exist
    /// in *both* environments with the same fingerprint. (An unchanged
    /// predicate has unchanged dependencies, so walking this profile's
    /// dependency graph visits exactly the closure the entry was
    /// computed under — or hits a changed predicate first and bails.)
    pub(crate) fn closure_unchanged(
        &self,
        old: &BTreeMap<Symbol, u64>,
        mentions: &[Symbol],
    ) -> bool {
        let mut stack: Vec<Symbol> = mentions.to_vec();
        let mut seen: std::collections::BTreeSet<Symbol> = stack.iter().copied().collect();
        while let Some(name) = stack.pop() {
            let Some(info) = self.preds.get(&name) else {
                return false; // predicate removed or renamed
            };
            if old.get(&name) != Some(&info.fingerprint) {
                return false; // definition changed (or absent at save)
            }
            for dep in &info.deps {
                if seen.insert(*dep) {
                    stack.push(*dep);
                }
            }
        }
        true
    }
}

impl CanonicalQuery {
    /// Canonicalizes a query. `scope` carries everything outside the
    /// `(model, formula)` pair that the verdict depends on (environment
    /// tag, search limits) and becomes part of the key.
    pub(crate) fn new(model: &StackHeapModel, f: &SymHeap, scope: QueryScope) -> CanonicalQuery {
        let binders: Vec<Symbol> = f.exists.clone();

        // Canonical formula text: binders renamed positionally. `$`
        // cannot occur in source identifiers, so the names are safe.
        let canon_formula = if binders.is_empty() {
            f.clone()
        } else {
            let map: Subst = binders
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, Expr::Var(Symbol::intern(&format!("$c{i}")))))
                .collect();
            sling_logic::subst_symheap_bound(f, &map)
        };

        let mut q = CanonicalQuery {
            key: CacheKey::new(scope, String::new()),
            preds: formula_pred_mentions(f),
            binders,
            loc_ids: BTreeMap::new(),
            id_locs: Vec::new(),
            dangling_ids: BTreeMap::new(),
            id_dangling: Vec::new(),
        };

        // Enumerate in-heap addresses: BFS from the formula's free
        // variables in name order, then unreached cells in address
        // order. This fixes the cell order the key lists below.
        let free: Vec<Symbol> = f.free_vars().into_iter().collect(); // sorted
        let mut queue: VecDeque<Loc> = VecDeque::new();
        for v in &free {
            if let Some(Val::Addr(loc)) = model.stack.get(*v) {
                if model.heap.contains(loc) && q.assign_in_heap(loc) {
                    queue.push_back(loc);
                }
            }
        }
        while let Some(loc) = queue.pop_front() {
            let Some(cell) = model.heap.get(loc) else {
                continue;
            };
            for val in &cell.fields {
                if let Val::Addr(next) = val {
                    if model.heap.contains(*next) && q.assign_in_heap(*next) {
                        queue.push_back(*next);
                    }
                }
            }
        }
        for loc in model.heap.domain() {
            q.assign_in_heap(loc);
        }

        // Write the canonical text: formula, free-variable values, heap
        // cells. The write order is exactly the canonical order, so
        // dangling ids are assigned deterministically as they are first
        // printed.
        use std::fmt::Write as _;
        let mut key = String::with_capacity(64 + 16 * q.id_locs.len());
        let _ = write!(key, "{canon_formula}\n;");
        for v in &free {
            match model.stack.get(*v) {
                Some(val) => {
                    let c = q.canon_val(val, model);
                    let _ = write!(key, "{v}={c:?},");
                }
                None => {
                    let _ = write!(key, "{v}=?,");
                }
            }
        }
        key.push_str("\n;");
        for i in 0..q.id_locs.len() {
            let loc = q.id_locs[i];
            let cell = model.heap.get(loc).expect("enumerated from the domain");
            let _ = write!(key, "{}{{", cell.ty);
            for val in &cell.fields {
                let c = q.canon_val(*val, model);
                let _ = write!(key, "{c:?},");
            }
            key.push_str("};");
        }
        q.key = CacheKey::new(scope, key);
        q
    }

    fn assign_in_heap(&mut self, loc: Loc) -> bool {
        if self.loc_ids.contains_key(&loc) {
            return false;
        }
        self.loc_ids.insert(loc, self.id_locs.len() as u32);
        self.id_locs.push(loc);
        true
    }

    /// Canonicalizes a value, assigning a dangling id on first sight of
    /// an address outside the heap.
    fn canon_val(&mut self, val: Val, model: &StackHeapModel) -> CanonVal {
        match val {
            Val::Nil => CanonVal::Nil,
            Val::Int(k) => CanonVal::Int(k),
            Val::Addr(loc) => {
                if model.heap.contains(loc) {
                    CanonVal::InHeap(self.loc_ids[&loc])
                } else if let Some(&id) = self.dangling_ids.get(&loc) {
                    CanonVal::Dangling(id)
                } else {
                    let id = self.id_dangling.len() as u32;
                    self.dangling_ids.insert(loc, id);
                    self.id_dangling.push(loc);
                    CanonVal::Dangling(id)
                }
            }
        }
    }

    /// Translates a fresh reduction into canonical space for storage.
    /// Returns `None` when a value falls outside the canonical frame
    /// (cannot happen for reductions of the canonicalized query; guarded
    /// anyway so a surprise degrades to "don't cache" instead of a wrong
    /// entry).
    pub(crate) fn encode(&self, r: &Reduction) -> Option<CachedReduction> {
        let mut residual = Vec::with_capacity(r.residual.len());
        for loc in r.residual.domain() {
            residual.push(*self.loc_ids.get(&loc)?);
        }
        let mut inst = Vec::with_capacity(r.inst.len());
        for (sym, val) in r.inst.iter() {
            let name = match self.binders.iter().position(|b| *b == sym) {
                Some(i) => CanonName::Binder(i as u32),
                None => CanonName::Free(sym),
            };
            let cval = match val {
                Val::Nil => CanonVal::Nil,
                Val::Int(k) => CanonVal::Int(k),
                Val::Addr(loc) => match self.loc_ids.get(&loc) {
                    Some(id) => CanonVal::InHeap(*id),
                    None => CanonVal::Dangling(*self.dangling_ids.get(&loc)?),
                },
            };
            inst.push((name, cval));
        }
        Some(CachedReduction { residual, inst })
    }

    /// Rehydrates a stored verdict against this query's model.
    pub(crate) fn decode(&self, model: &StackHeapModel, c: &CachedReduction) -> Reduction {
        let locs: std::collections::BTreeSet<Loc> = c
            .residual
            .iter()
            .map(|id| self.id_locs[*id as usize])
            .collect();
        let residual = model.heap.restrict(&locs);
        let covered = model.heap.len() - residual.len();
        let inst = Instantiation::from_bindings(c.inst.iter().filter_map(|(name, cval)| {
            let sym = match name {
                CanonName::Binder(i) => *self.binders.get(*i as usize)?,
                CanonName::Free(s) => *s,
            };
            let val = match cval {
                CanonVal::Nil => Val::Nil,
                CanonVal::Int(k) => Val::Int(*k),
                CanonVal::InHeap(id) => Val::Addr(self.id_locs[*id as usize]),
                CanonVal::Dangling(id) => Val::Addr(self.id_dangling[*id as usize]),
            };
            Some((sym, val))
        }));
        Reduction {
            residual,
            inst,
            covered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_logic::{
        parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv, StructDef, TypeEnv,
    };
    use sling_models::{Heap, HeapCell, Stack};

    use crate::CheckCtx;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn envs() -> (TypeEnv, PredEnv) {
        let node = sym("CNode");
        let mut types = TypeEnv::new();
        types
            .define(StructDef {
                name: node,
                fields: vec![FieldDef {
                    name: sym("next"),
                    ty: FieldTy::Ptr(node),
                }],
            })
            .unwrap();
        let mut preds = PredEnv::new();
        for d in parse_predicates(
            "pred clist(x: CNode*) := emp & x == nil
               | exists u. x -> CNode{next: u} * clist(u);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    /// `x` heads an `n`-cell list whose addresses start at `base`.
    fn list_model(n: u64, base: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        for i in 0..n {
            let next = if i + 1 < n {
                Val::Addr(Loc::new(base + i + 1))
            } else {
                Val::Nil
            };
            heap.insert(Loc::new(base + i), HeapCell::new(sym("CNode"), vec![next]));
        }
        let mut stack = Stack::new();
        let head = if n == 0 {
            Val::Nil
        } else {
            Val::Addr(Loc::new(base))
        };
        stack.bind(sym("x"), head);
        StackHeapModel::new(stack, heap)
    }

    #[test]
    fn isomorphic_models_share_a_key() {
        let f = parse_formula("clist(x)").unwrap();
        let scope = QueryScope::default();
        let a = CanonicalQuery::new(&list_model(3, 1), &f, scope);
        let b = CanonicalQuery::new(&list_model(3, 100), &f, scope);
        assert_eq!(a.key, b.key);
        let c = CanonicalQuery::new(&list_model(4, 1), &f, scope);
        assert_ne!(a.key, c.key, "different shapes must differ");
    }

    #[test]
    fn binder_names_do_not_matter() {
        let m = list_model(2, 1);
        let scope = QueryScope::default();
        let f1 = parse_formula("exists u3. x -> CNode{next: u3} * clist(u3)").unwrap();
        let f2 = parse_formula("exists w9. x -> CNode{next: w9} * clist(w9)").unwrap();
        assert_eq!(
            CanonicalQuery::new(&m, &f1, scope).key,
            CanonicalQuery::new(&m, &f2, scope).key
        );
    }

    #[test]
    fn scope_is_part_of_the_key() {
        let m = list_model(2, 1);
        let f = parse_formula("clist(x)").unwrap();
        let a = CanonicalQuery::new(
            &m,
            &f,
            QueryScope {
                env_tag: 1,
                node_budget: 100,
                fuel_slack: 4,
            },
        );
        let b = CanonicalQuery::new(
            &m,
            &f,
            QueryScope {
                env_tag: 2,
                node_budget: 100,
                fuel_slack: 4,
            },
        );
        assert_ne!(a.key, b.key, "different env tags must not share entries");
    }

    #[test]
    fn cached_hit_equals_fresh_verdict() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let plain = CheckCtx::new(&types, &preds);
        let f = parse_formula("clist(x)").unwrap();

        let m1 = list_model(3, 1);
        let first = ctx.check(&m1, &f).expect("holds");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);

        // Isomorphic model at different addresses: must hit, and the
        // rehydrated reduction must match an uncached check bit for bit.
        let m2 = list_model(3, 50);
        let hit = ctx.check(&m2, &f).expect("holds");
        assert_eq!(cache.stats().hits, 1);
        let fresh = plain.check(&m2, &f).expect("holds");
        assert_eq!(hit, fresh);
        assert_eq!(hit.covered, first.covered);
        assert!(hit.residual.is_empty());
    }

    #[test]
    fn negative_verdicts_are_cached() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        // A 2-cycle never satisfies clist.
        let mut heap = Heap::new();
        heap.insert(
            Loc::new(1),
            HeapCell::new(sym("CNode"), vec![Val::Addr(Loc::new(2))]),
        );
        heap.insert(
            Loc::new(2),
            HeapCell::new(sym("CNode"), vec![Val::Addr(Loc::new(1))]),
        );
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Addr(Loc::new(1)));
        let m = StackHeapModel::new(stack, heap);
        let f = parse_formula("clist(x)").unwrap();
        assert!(ctx.check(&m, &f).is_none());
        assert!(ctx.check(&m, &f).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn partial_reduction_rehydrates_residual() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        // x -> a -> b, but also an unreachable extra cell: clist(x)
        // covers the chain, the stray cell is residue.
        let mk = |base: u64| {
            let mut m = list_model(2, base);
            m.heap.insert(
                Loc::new(base + 77),
                HeapCell::new(sym("CNode"), vec![Val::Nil]),
            );
            m
        };
        let f = parse_formula("clist(x)").unwrap();
        let r1 = ctx.check(&mk(1), &f).expect("holds");
        assert_eq!(r1.residual.len(), 1);
        let r2 = ctx.check(&mk(200), &f).expect("holds");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(r2.residual.len(), 1);
        assert!(
            r2.residual.contains(Loc::new(277)),
            "residue maps to the query's space"
        );
    }

    #[test]
    fn budget_limited_verdicts_do_not_poison_full_budget_queries() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let starved = CheckCtx::with_cache(
            &types,
            &preds,
            crate::CheckConfig {
                node_budget: 1,
                fuel_slack: 0,
            },
            &cache,
        );
        let full = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        // The starved context gives up early; whatever it caches must not
        // answer the full-budget query for the same shape.
        let _ = starved.check(&list_model(3, 1), &f);
        let red = full
            .check(&list_model(3, 50), &f)
            .expect("full budget proves it");
        assert!(red.residual.is_empty());
    }

    #[test]
    fn different_environments_never_share_entries() {
        // Same predicate *name*, different definition, one shared cache:
        // the env fingerprint must keep their entries apart.
        let (types, preds_real) = envs();
        let mut preds_empty_only = PredEnv::new();
        for d in parse_predicates("pred clist(x: CNode*) := emp & x == nil;").unwrap() {
            preds_empty_only.define(d).unwrap();
        }
        let cache = CheckCache::new();
        let real = CheckCtx::with_cache(&types, &preds_real, Default::default(), &cache);
        let degenerate =
            CheckCtx::with_cache(&types, &preds_empty_only, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();

        assert!(real.check(&list_model(2, 1), &f).is_some());
        // Under the emp-only definition an allocated list can never
        // satisfy clist(x); a cross-env cache hit would claim it does.
        assert!(degenerate.check(&list_model(2, 40), &f).is_none());
        assert_eq!(
            cache.stats().hits,
            0,
            "isomorphic shapes, different envs: no sharing"
        );
    }

    #[test]
    fn stats_since_subtracts() {
        let a = CacheStats {
            hits: 10,
            warm_hits: 2,
            misses: 4,
            entries: 9,
            evictions: 1,
            resident_bytes: 900,
        };
        let b = CacheStats {
            hits: 13,
            warm_hits: 6,
            misses: 5,
            entries: 11,
            evictions: 4,
            resident_bytes: 1100,
        };
        let d = b.since(&a);
        assert_eq!((d.hits, d.warm_hits, d.misses, d.entries), (3, 4, 1, 11));
        assert_eq!((d.evictions, d.resident_bytes), (3, 1100));
        assert_eq!(d.lookups(), 4);
    }

    #[test]
    fn capacity_bounds_entries() {
        let (types, preds) = envs();
        // Capacity is enforced per shard: one entry per shard here.
        let cache = CheckCache::with_capacity(SHARD_COUNT);
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        for n in 0..(4 * SHARD_COUNT as u64) {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        assert!(cache.stats().entries <= SHARD_COUNT as u64);
    }

    #[test]
    fn tiny_capacities_still_cache() {
        // A sub-shard-count capacity rounds up to one entry per shard
        // instead of silently disabling retention.
        let (types, preds) = envs();
        let cache = CheckCache::with_capacity(2);
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        let _ = ctx.check(&list_model(3, 1), &f);
        let _ = ctx.check(&list_model(3, 50), &f);
        let stats = cache.stats();
        assert!(stats.entries >= 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "isomorphic re-query must hit: {stats:?}");
    }

    #[test]
    fn stats_sum_exactly_under_concurrent_use() {
        // Several threads hammer one shared cache with overlapping shape
        // sets; per-shard counters must sum to exactly the number of
        // lookups issued, and every shape must end up cached once.
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let f = parse_formula("clist(x)").unwrap();
        const THREADS: u64 = 8;
        const SHAPES: u64 = 24;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, types, preds, f) = (&cache, &types, &preds, &f);
                s.spawn(move || {
                    let ctx = CheckCtx::with_cache(types, preds, Default::default(), cache);
                    for n in 0..SHAPES {
                        // Offset the start so threads collide on shapes
                        // mid-flight rather than in lockstep.
                        let shape = (n + t * 3) % SHAPES;
                        let _ = ctx.check(&list_model(shape, 1), f);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.lookups(),
            THREADS * SHAPES,
            "every lookup must be counted exactly once: {stats:?}"
        );
        assert_eq!(
            stats.entries, SHAPES,
            "each distinct shape is cached exactly once: {stats:?}"
        );
        // At most one miss per (shape, racing thread) pair; in practice
        // nearly every shape misses once. Hits account for the rest.
        assert!(stats.misses >= SHAPES, "{stats:?}");
        assert_eq!(stats.hits, stats.lookups() - stats.misses);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_first() {
        // One shard in play (capacity 1 per shard, but shapes spread):
        // use a generous per-shard view instead — fill one cache to its
        // bound, touch an early shape to refresh it, overflow, and the
        // refreshed shape must survive while an untouched one dies.
        let (types, preds) = envs();
        let cache = CheckCache::with_capacity(SHARD_COUNT); // 1 entry/shard
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();

        // Find two shapes landing on the same shard.
        let scope = QueryScope {
            env_tag: ctx.env_tag,
            node_budget: ctx.config.node_budget,
            fuel_slack: ctx.config.fuel_slack,
        };
        let shard_of = |n: u64| {
            CanonicalQuery::new(&list_model(n, 1), &f, scope)
                .key
                .shard()
        };
        let a = 1u64;
        let b = (2..64)
            .find(|n| shard_of(*n) == shard_of(a))
            .expect("some shape shares shard with a");

        let _ = ctx.check(&list_model(a, 1), &f); // miss, cached
        let _ = ctx.check(&list_model(a, 99), &f); // hit, refreshes stamp
        let _ = ctx.check(&list_model(b, 1), &f); // same shard: evicts, caches b
        assert_eq!(cache.stats().evictions, 1);

        // `a` was the evictee; re-querying is a miss with the correct
        // verdict, never a stale or aliased answer.
        let before = cache.stats();
        let red = ctx.check(&list_model(a, 7), &f).expect("still satisfiable");
        assert!(red.residual.is_empty());
        let after = cache.stats();
        assert_eq!(after.misses, before.misses + 1, "evicted key must miss");
    }

    #[test]
    fn resident_bytes_track_entries() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        assert_eq!(cache.stats().resident_bytes, 0);
        for n in 0..6 {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let stats = cache.stats();
        assert!(stats.resident_bytes > 0);
        assert!(
            stats.resident_bytes >= stats.entries * ENTRY_OVERHEAD,
            "{stats:?}"
        );
        cache.clear();
        assert_eq!(cache.stats().resident_bytes, 0, "clear resets the ledger");
    }

    #[test]
    fn eviction_stress_keeps_accounting_exact_under_contention() {
        // Eight threads push a capacity-bounded cache far past its
        // limit with overlapping shape sets. Invariants: every lookup
        // is counted exactly once (hits + misses == issued), residency
        // never exceeds the capacity, evictions are observed, and every
        // answer equals a cold-search verdict.
        let (types, preds) = envs();
        const CAPACITY: usize = 2 * SHARD_COUNT; // 2 entries per shard
        const THREADS: u64 = 8;
        const SHAPES: u64 = 48;
        const PER_THREAD: u64 = 64;
        let cache = CheckCache::with_capacity(CAPACITY);
        let f = parse_formula("clist(x)").unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, types, preds, f) = (&cache, &types, &preds, &f);
                s.spawn(move || {
                    let ctx = CheckCtx::with_cache(types, preds, Default::default(), cache);
                    let plain = CheckCtx::new(types, preds);
                    for i in 0..PER_THREAD {
                        let shape = (i * (t + 3)) % SHAPES;
                        let m = list_model(shape, 1);
                        let got = ctx.check(&m, f);
                        // A cached answer must never differ from a cold
                        // search — eviction may forget, not corrupt.
                        assert_eq!(got, plain.check(&m, f), "shape {shape}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.lookups(),
            THREADS * PER_THREAD,
            "hits + misses must stay exact: {stats:?}"
        );
        assert!(
            stats.entries <= CAPACITY as u64,
            "resident entries exceed the configured capacity: {stats:?}"
        );
        assert!(
            stats.evictions > 0,
            "48 shapes through a 32-entry cache must evict: {stats:?}"
        );
        assert!(stats.resident_bytes > 0);

        // Re-querying a just-evicted shape is a miss, answered freshly
        // and correctly.
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let plain = CheckCtx::new(&types, &preds);
        let before = cache.stats();
        let mut saw_miss = false;
        for shape in 0..SHAPES {
            let m = list_model(shape, 5);
            assert_eq!(ctx.check(&m, &f), plain.check(&m, &f));
        }
        let after = cache.stats();
        saw_miss |= after.misses > before.misses;
        assert!(
            saw_miss,
            "with 48 shapes and 32 slots some re-query must miss: {after:?}"
        );
        assert!(after.entries <= CAPACITY as u64);
    }

    #[test]
    fn env_profile_tracks_per_predicate_change() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        assert_eq!(profile.env_tag(), env_fingerprint(&types, &preds));

        let old: BTreeMap<Symbol, u64> = profile.pred_table().collect();
        assert!(profile.closure_unchanged(&old, &[sym("clist")]));
        assert!(
            profile.closure_unchanged(&old, &[]),
            "pure formulas depend on no predicate"
        );
        assert!(
            !profile.closure_unchanged(&old, &[sym("not_a_pred")]),
            "unknown mentions are conservatively stale"
        );

        // Change the definition: same name, different fingerprint.
        let mut changed = PredEnv::new();
        for d in parse_predicates("pred clist(x: CNode*) := emp & x == nil;").unwrap() {
            changed.define(d).unwrap();
        }
        let changed_profile = EnvProfile::new(&types, &changed);
        assert_ne!(changed_profile.env_tag(), profile.env_tag());
        assert!(
            !changed_profile.closure_unchanged(&old, &[sym("clist")]),
            "a changed definition must invalidate"
        );
    }

    #[test]
    fn formula_mentions_are_sorted_unique_pred_names() {
        let f = parse_formula("clist(x) * clist(y) * pseg2(y, x)").unwrap();
        assert_eq!(
            formula_pred_mentions(&f),
            vec![sym("clist"), sym("pseg2")]
                .into_iter()
                .collect::<Vec<_>>()
        );
        let pure_only = parse_formula("emp & x == nil").unwrap();
        assert!(formula_pred_mentions(&pure_only).is_empty());
    }

    #[test]
    fn fingerprints_spread_over_shards() {
        let f = parse_formula("clist(x)").unwrap();
        let scope = QueryScope::default();
        let shards: std::collections::BTreeSet<usize> = (0..64)
            .map(|n| {
                CanonicalQuery::new(&list_model(n, 1), &f, scope)
                    .key
                    .shard()
            })
            .collect();
        assert!(
            shards.len() > SHARD_COUNT / 2,
            "64 distinct shapes should touch most of the {SHARD_COUNT} shards, got {}",
            shards.len()
        );
    }
}
