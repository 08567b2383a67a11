//! Cross-run persistence for the entailment cache.
//!
//! The canonical keys of a [`CheckCache`] are stable across processes —
//! they contain no raw addresses, interner ids, or hash seeds — so a
//! cache populated by one run can warm the next. This module snapshots a
//! cache to a versioned binary file ([`save`]), restores it ([`load`]),
//! and folds sibling snapshots into an already-live cache ([`merge`]),
//! turning corpus-scale workloads into incremental ones: the second
//! process over the same predicate library starts with every previously
//! established entailment already answered.
//!
//! # File format (version 2)
//!
//! A fixed header — magic `SLNGCACH`, format version, FNV-1a checksum of
//! the body — followed by the body:
//!
//! ```text
//! env_tag: u64            ; overall environment fingerprint
//! types_tag: u64          ; fingerprint of the TypeEnv alone
//! generation: u64         ; save stamp ([`generation_stamp`]), newest-wins merge order
//! npreds: u64             ; per-predicate fingerprint table
//!   (name: string, fingerprint: u64)*
//! nentries: u64
//!   entry*                ; scope, canonical text, pred-mention indices, verdict
//! ```
//!
//! Everything is little-endian. Safety properties:
//!
//! * **Versioned**: a file written by an incompatible format version is
//!   rejected with [`PersistError::UnsupportedVersion`], never
//!   misparsed.
//! * **Checksummed**: torn writes and bit rot fail the body checksum and
//!   are rejected with [`PersistError::Corrupted`] (every read is also
//!   bounds-checked, so truncation cannot panic).
//! * **Environment-keyed, per predicate**: the header records one
//!   fingerprint per predicate definition (plus a whole-`TypeEnv` tag).
//!   A changed type environment rejects the file wholesale
//!   ([`PersistError::FingerprintMismatch`]); a *partial*
//!   predicate-library change drops only the entries whose formulas
//!   (transitively) touch a changed, removed, or renamed predicate —
//!   the survivors are loaded and the drop is reported as
//!   [`PersistError::PartialStale`].
//!
//! Entries restored by [`load`] or [`merge`] are marked *warm*: hits on
//! them are reported in [`CacheStats::warm_hits`](crate::CacheStats::warm_hits)
//! so callers can observe how much a warm start actually saved.
//!
//! Saves are atomic (write to a sibling temp file, then rename), so a
//! crash mid-save leaves any previous snapshot intact and concurrent
//! readers never observe a half-written file. Temp files stranded by a
//! crashed save are swept away by the next successful [`save`] or
//! [`load`] over the same path (only temps from other processes that
//! have sat untouched for at least a minute; in-flight saves — which
//! hold their temp for milliseconds — are never affected).
//!
//! # Load vs merge
//!
//! [`load`] is the boot path: it assumes an empty (or expendable)
//! cache, replaces colliding entries unconditionally, and surfaces
//! partial staleness as a typed error so the caller can decide to
//! rewrite the snapshot. [`merge`] is the fold path for long-lived
//! processes absorbing sibling snapshots: collisions resolve
//! newest-generation-wins (live-computed entries always win), capacity
//! is enforced without evicting live entries, and the outcome is
//! returned as counts ([`MergeStats`]) because a partially stale
//! sibling is routine, not exceptional.
//!
//! # Examples
//!
//! Round-trip an (empty) cache and observe the fingerprint guard:
//!
//! ```
//! use sling_checker::{persist, CheckCache, EnvProfile};
//! use sling_logic::{FieldDef, FieldTy, PredEnv, StructDef, Symbol, TypeEnv};
//!
//! let profile = EnvProfile::new(&TypeEnv::new(), &PredEnv::new());
//! let path = std::env::temp_dir().join(format!("sling-doc-cache-{}.bin", std::process::id()));
//! let cache = CheckCache::new();
//! persist::save(&cache, &profile, &path)?;
//!
//! let restored = CheckCache::new();
//! assert_eq!(persist::load(&restored, &profile, &path)?, 0);
//!
//! // A different *type* environment rejects the file wholesale.
//! let mut other_types = TypeEnv::new();
//! other_types.define(StructDef {
//!     name: Symbol::intern("DocNode"),
//!     fields: vec![FieldDef { name: Symbol::intern("next"), ty: FieldTy::Int }],
//! })?;
//! let other = EnvProfile::new(&other_types, &PredEnv::new());
//! assert!(matches!(
//!     persist::load(&restored, &other, &path),
//!     Err(persist::PersistError::FingerprintMismatch { .. })
//! ));
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Engines wire this through
//! `EngineBuilder::cache_path(..)` / `Engine::save_cache()` /
//! `Engine::absorb_snapshot(..)` in the `sling` crate; this module is
//! the format layer underneath.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use sling_logic::Symbol;

use crate::cache::{
    fnv1a, CacheKey, CachedReduction, CanonName, CanonVal, CheckCache, EnvProfile, QueryScope,
};

/// Leading bytes of every snapshot file.
const MAGIC: &[u8; 8] = b"SLNGCACH";

/// Current format version; bump on any layout change.
const FORMAT_VERSION: u32 = 2;

/// Why a snapshot file could not be loaded (or was loaded only
/// partially).
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The bytes are not a well-formed snapshot (bad magic, failed
    /// checksum, truncated or over-long body, invalid UTF-8, ...).
    Corrupted(String),
    /// The file is a snapshot, but written by an incompatible format
    /// version.
    UnsupportedVersion(u32),
    /// The snapshot's *type environment* differs from the loading
    /// engine's — struct layouts feed every verdict, so nothing in the
    /// file can be reused.
    FingerprintMismatch {
        /// The type-environment fingerprint the loading engine runs
        /// under.
        expected: u64,
        /// The fingerprint recorded in the file.
        found: u64,
    },
    /// The predicate library changed *partially* since the snapshot was
    /// saved. The `kept` entries — those touching only unchanged
    /// predicates — **were loaded** into the cache before this error
    /// was returned; only the `dropped` entries, whose formulas touch a
    /// changed, removed, or renamed predicate, were discarded. Callers
    /// that treat the cache as an optimization count `kept` as the warm
    /// size and may want to re-save to shed the stale portion.
    PartialStale {
        /// Entries restored (valid under the current environment).
        kept: u64,
        /// Entries discarded because a predicate they depend on
        /// changed.
        dropped: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache snapshot I/O error: {e}"),
            PersistError::Corrupted(why) => write!(f, "cache snapshot corrupted: {why}"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "cache snapshot format version {v} unsupported (this build reads {FORMAT_VERSION})"
                )
            }
            PersistError::FingerprintMismatch { expected, found } => write!(
                f,
                "cache snapshot was computed under a different type environment \
                 (expected fingerprint {expected:#018x}, file has {found:#018x})"
            ),
            PersistError::PartialStale { kept, dropped } => write!(
                f,
                "cache snapshot partially stale: {kept} entries restored, \
                 {dropped} dropped for touching changed predicates"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// Outcome of folding one snapshot into a live cache with [`merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Entries inserted (or replacing an older-generation entry that
    /// held a different verdict).
    pub merged: u64,
    /// Entries skipped on collision (the resident entry was newer or
    /// equal in generation, or already held the same verdict) or
    /// because their shard was at capacity.
    pub skipped: u64,
    /// Entries dropped for touching a predicate whose definition
    /// changed since the snapshot was saved.
    pub stale: u64,
}

impl std::fmt::Display for MergeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} merged, {} skipped, {} stale",
            self.merged, self.skipped, self.stale
        )
    }
}

/// Milliseconds since the Unix epoch — the wall-clock component of
/// [`generation_stamp`].
fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Low bits of every [`generation_stamp`] reserved for the per-process
/// monotonic sub-counter (4096 distinct stamps per millisecond before
/// the counter borrows from future milliseconds — and even then stamps
/// only ever move forward).
const GENERATION_SUB_BITS: u32 = 12;

/// A fresh generation stamp for newest-wins ordering: wall-clock
/// milliseconds shifted left by `GENERATION_SUB_BITS`, forced
/// *strictly* above both every stamp this process has already issued
/// and `floor`.
///
/// The sub-counter is the same-millisecond tiebreak: two snapshots
/// saved by one process within a single millisecond used to receive
/// equal generations, and equal generations merge order-dependently
/// (the colliding offer is skipped, so whichever snapshot merged first
/// won). With the counter, stamps issued by a process are strictly
/// increasing, so newest-wins is deterministic regardless of merge
/// order. Cross-host, wall clocks remain the ordering, exactly as
/// before; `floor` (callers pass the highest generation they have
/// absorbed) keeps a process ahead of future-stamped siblings it has
/// already merged.
pub fn generation_stamp(floor: u64) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static LAST: AtomicU64 = AtomicU64::new(0);
    let wall = now_millis().saturating_mul(1 << GENERATION_SUB_BITS);
    let mut prev = LAST.load(Ordering::Relaxed);
    loop {
        let next = wall
            .max(prev.saturating_add(1))
            .max(floor.saturating_add(1));
        match LAST.compare_exchange_weak(prev, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next,
            Err(observed) => prev = observed,
        }
    }
}

/// Snapshots every entry of `cache` computed under `profile`'s
/// environment to `path`, returning how many entries were written. The
/// write is atomic: a sibling temp file is renamed over `path` only
/// once fully written.
///
/// The snapshot's generation stamp is a [`generation_stamp`]: wall
/// clock plus a per-process monotonic sub-counter (so two saves within
/// one millisecond still order deterministically), and never at or
/// below the highest generation this cache has absorbed — so a process
/// that merged a future-stamped sibling (cross-host clock skew) still
/// writes snapshots that win newest-generation [`merge`] collisions
/// against it. Wall clocks remain the cross-host ordering, so skew
/// between hosts that never exchange snapshots can still mis-order; a
/// shared directory self-corrects after one merge-save cycle.
pub fn save(cache: &CheckCache, profile: &EnvProfile, path: &Path) -> io::Result<u64> {
    let generation = generation_stamp(cache.max_generation());
    save_at(cache, profile, path, generation)
}

/// [`save`] with an explicit generation stamp (tests pin generations to
/// make newest-wins merging deterministic).
pub(crate) fn save_at(
    cache: &CheckCache,
    profile: &EnvProfile,
    path: &Path,
    generation: u64,
) -> io::Result<u64> {
    let entries = cache.entries_for(profile.env_tag());
    let table: Vec<(Symbol, u64)> = profile.pred_table().collect();
    let index_of: BTreeMap<Symbol, u32> = table
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, i as u32))
        .collect();

    let mut body = Vec::with_capacity(64 + 128 * entries.len());
    write_u64(&mut body, profile.env_tag());
    write_u64(&mut body, profile.types_tag());
    write_u64(&mut body, generation);
    write_u64(&mut body, table.len() as u64);
    for (name, fingerprint) in &table {
        write_bytes(&mut body, name.as_str().as_bytes());
        write_u64(&mut body, *fingerprint);
    }
    // Entries serialize into their own buffer first, so the count
    // written is exactly the count serialized. An entry whose mention
    // set escapes the profile's table cannot be expressed (and could
    // not be validated on load); it is skipped — mentions always come
    // from formulas checked under this environment, so in practice
    // nothing is.
    let mut written = 0u64;
    let mut entry_bytes = Vec::with_capacity(128 * entries.len());
    for entry in &entries {
        let Some(indices) = entry
            .preds
            .iter()
            .map(|name| index_of.get(name).copied())
            .collect::<Option<Vec<u32>>>()
        else {
            continue;
        };
        write_u64(&mut entry_bytes, entry.key.scope.node_budget);
        write_u32(&mut entry_bytes, entry.key.scope.fuel_slack);
        write_bytes(&mut entry_bytes, entry.key.text.as_bytes());
        write_u32(&mut entry_bytes, indices.len() as u32);
        for index in &indices {
            write_u32(&mut entry_bytes, *index);
        }
        match &entry.value {
            None => entry_bytes.push(0),
            Some(red) => {
                entry_bytes.push(1);
                write_u32(&mut entry_bytes, red.residual.len() as u32);
                for id in &red.residual {
                    write_u32(&mut entry_bytes, *id);
                }
                write_u32(&mut entry_bytes, red.inst.len() as u32);
                for (name, val) in &red.inst {
                    match name {
                        CanonName::Binder(i) => {
                            entry_bytes.push(0);
                            write_u32(&mut entry_bytes, *i);
                        }
                        CanonName::Free(sym) => {
                            entry_bytes.push(1);
                            write_bytes(&mut entry_bytes, sym.as_str().as_bytes());
                        }
                    }
                    match val {
                        CanonVal::Nil => entry_bytes.push(0),
                        CanonVal::Int(k) => {
                            entry_bytes.push(1);
                            write_u64(&mut entry_bytes, *k as u64);
                        }
                        CanonVal::InHeap(id) => {
                            entry_bytes.push(2);
                            write_u32(&mut entry_bytes, *id);
                        }
                        CanonVal::Dangling(id) => {
                            entry_bytes.push(3);
                            write_u32(&mut entry_bytes, *id);
                        }
                    }
                }
            }
        }
        written += 1;
    }
    write_u64(&mut body, written);
    body.extend_from_slice(&entry_bytes);

    let mut file = Vec::with_capacity(MAGIC.len() + 12 + body.len());
    file.extend_from_slice(MAGIC);
    write_u32(&mut file, FORMAT_VERSION);
    write_u64(&mut file, fnv1a(&body));
    file.extend_from_slice(&body);

    // Atomic replace: a crash mid-write leaves the previous snapshot
    // intact, and concurrent loaders never see a torn file. The temp
    // name is unique per save (pid + counter), so concurrent saves to
    // the same path from one process cannot interleave on one temp
    // file — last rename wins with a complete snapshot.
    static SAVE_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SAVE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, &file)?;
    match fs::rename(&tmp, path) {
        Ok(()) => {
            sweep_stale_temps(path);
            Ok(written)
        }
        Err(e) => {
            fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// How old a sibling temp file must be before the sweep treats it as
/// stranded by a crash. A live save holds its temp for milliseconds
/// (one `fs::write` + `fs::rename`), so a minute of age means its
/// writer is gone.
const STALE_TEMP_AGE: std::time::Duration = std::time::Duration::from_secs(60);

/// Removes temp files stranded next to `path` by *crashed* saves: a
/// crash between `fs::write` and `fs::rename` leaves `<stem>.tmp.<pid>.<n>`
/// behind forever, so every successful [`save`] and every [`load`]
/// sweeps the siblings. Two guards keep in-flight saves safe: temps of
/// the current process are never touched (a concurrent [`save`] on
/// another thread may be mid-write), and temps of other processes are
/// only removed once older than [`STALE_TEMP_AGE`] — a live sibling's
/// temp exists for milliseconds, a crashed one forever. Best-effort:
/// I/O errors here are ignored (the sweep is hygiene, not correctness).
fn sweep_stale_temps(path: &Path) {
    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
        return;
    };
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let prefix = format!("{stem}.tmp.");
    let own_pid = std::process::id().to_string();
    let Ok(entries) = fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        // rest is "<pid>.<counter>"; skip temps owned by this process.
        if rest.split('.').next() == Some(own_pid.as_str()) {
            continue;
        }
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= STALE_TEMP_AGE);
        if old_enough {
            fs::remove_file(entry.path()).ok();
        }
    }
}

/// One entry parsed out of a snapshot, already validated against the
/// loading environment (stale entries are dropped during parsing).
struct ParsedEntry {
    key: CacheKey,
    value: Option<CachedReduction>,
    preds: Vec<Symbol>,
}

/// A fully parsed, environment-validated snapshot.
struct ParsedSnapshot {
    generation: u64,
    entries: Vec<ParsedEntry>,
    /// Entries discarded for touching changed predicates.
    dropped: u64,
}

/// Parses and validates a snapshot against `profile`. Structural
/// problems (corruption, truncation, version skew) and a changed type
/// environment are errors; a partially changed predicate library drops
/// the affected entries and reports them in
/// [`ParsedSnapshot::dropped`]. The cache is untouched — callers insert
/// the surviving entries with their own collision policy.
fn parse_snapshot(bytes: &[u8], profile: &EnvProfile) -> Result<ParsedSnapshot, PersistError> {
    let mut r = Reader::new(bytes);

    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(PersistError::Corrupted("bad magic".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let checksum = r.u64()?;
    let body = &bytes[r.pos..];
    if fnv1a(body) != checksum {
        return Err(PersistError::Corrupted("checksum mismatch".into()));
    }

    let file_env_tag = r.u64()?;
    let file_types_tag = r.u64()?;
    if file_types_tag != profile.types_tag() {
        return Err(PersistError::FingerprintMismatch {
            expected: profile.types_tag(),
            found: file_types_tag,
        });
    }
    let generation = r.u64()?;

    let npreds = r.u64()? as usize;
    let mut table_names: Vec<Symbol> = Vec::with_capacity(npreds.min(1 << 16));
    let mut old_table: BTreeMap<Symbol, u64> = BTreeMap::new();
    for _ in 0..npreds {
        let name = Symbol::intern(&r.string()?);
        let fingerprint = r.u64()?;
        table_names.push(name);
        old_table.insert(name, fingerprint);
    }
    // Same overall tag: the whole environment (types and every
    // predicate) is unchanged, so per-entry validation is a no-op.
    let env_unchanged = file_env_tag == profile.env_tag();

    let count = r.u64()?;
    // Parse fully before touching the cache, so a corrupted tail cannot
    // leave a half-loaded (but checksum-passing prefix) state behind.
    let mut entries: Vec<ParsedEntry> = Vec::new();
    let mut dropped = 0u64;
    for _ in 0..count {
        let node_budget = r.u64()?;
        let fuel_slack = r.u32()?;
        let text = r.string()?;
        let nmentions = r.u32()? as usize;
        let mut preds = Vec::with_capacity(nmentions.min(1 << 16));
        for _ in 0..nmentions {
            let index = r.u32()? as usize;
            let name = table_names.get(index).copied().ok_or_else(|| {
                PersistError::Corrupted(format!("pred index {index} out of range"))
            })?;
            preds.push(name);
        }
        let value = match r.u8()? {
            0 => None,
            1 => {
                let n = r.u32()? as usize;
                let mut residual = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    residual.push(r.u32()?);
                }
                let n = r.u32()? as usize;
                let mut inst = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let name = match r.u8()? {
                        0 => CanonName::Binder(r.u32()?),
                        1 => CanonName::Free(Symbol::intern(&r.string()?)),
                        t => {
                            return Err(PersistError::Corrupted(format!("bad name tag {t}")));
                        }
                    };
                    let val = match r.u8()? {
                        0 => CanonVal::Nil,
                        1 => CanonVal::Int(r.u64()? as i64),
                        2 => CanonVal::InHeap(r.u32()?),
                        3 => CanonVal::Dangling(r.u32()?),
                        t => {
                            return Err(PersistError::Corrupted(format!("bad value tag {t}")));
                        }
                    };
                    inst.push((name, val));
                }
                Some(CachedReduction { residual, inst })
            }
            t => return Err(PersistError::Corrupted(format!("bad verdict tag {t}"))),
        };
        if !env_unchanged && !profile.closure_unchanged(&old_table, &preds) {
            dropped += 1;
            continue;
        }
        // Entries are re-keyed under the *loading* environment's tag:
        // their validated predicate closure is unchanged, so verdicts
        // transfer, and re-keying is what lets them answer this
        // process's queries.
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget,
            fuel_slack,
        };
        entries.push(ParsedEntry {
            key: CacheKey::new(scope, text),
            value,
            preds,
        });
    }
    if r.pos != bytes.len() {
        return Err(PersistError::Corrupted(
            "trailing bytes after entries".into(),
        ));
    }
    Ok(ParsedSnapshot {
        generation,
        entries,
        dropped,
    })
}

/// Loads the snapshot at `path` into `cache`, marking every restored
/// entry warm, and returns how many entries were actually retained
/// (less than the file's entry count when the target cache is near its
/// capacity). The snapshot must have been saved under the same type
/// environment; see [`PersistError`] for the rejection cases.
///
/// A *partial* predicate-library change is not a rejection: entries
/// touching only unchanged predicates are loaded, the rest are dropped,
/// and the split is reported as [`PersistError::PartialStale`] — the
/// cache **does** hold the `kept` entries when that error is returned.
/// Structurally invalid files leave the cache untouched.
pub fn load(cache: &CheckCache, profile: &EnvProfile, path: &Path) -> Result<u64, PersistError> {
    sweep_stale_temps(path);
    let bytes = fs::read(path)?;
    let parsed = parse_snapshot(&bytes, profile)?;
    let mut loaded = 0;
    for entry in parsed.entries {
        if cache.store_warm(entry.key, entry.value, &entry.preds, parsed.generation) {
            loaded += 1;
        }
    }
    if parsed.dropped > 0 {
        return Err(PersistError::PartialStale {
            kept: loaded,
            dropped: parsed.dropped,
        });
    }
    Ok(loaded)
}

/// Folds the snapshot at `path` into an already-live `cache`:
/// collisions resolve newest-generation-wins (entries computed live in
/// this process always beat snapshot entries; between snapshots the
/// later save wins), capacity is enforced without evicting live
/// entries, and entries touching changed predicates are dropped. The
/// counts come back as [`MergeStats`]; only structural problems and a
/// changed type environment are errors.
pub fn merge(
    cache: &CheckCache,
    profile: &EnvProfile,
    path: &Path,
) -> Result<MergeStats, PersistError> {
    let bytes = fs::read(path)?;
    let parsed = parse_snapshot(&bytes, profile)?;
    let mut stats = MergeStats {
        stale: parsed.dropped,
        ..MergeStats::default()
    };
    for entry in parsed.entries {
        if cache.merge_warm(entry.key, entry.value, &entry.preds, parsed.generation) {
            stats.merged += 1;
        } else {
            stats.skipped += 1;
        }
    }
    Ok(stats)
}

fn write_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Bounds-checked little-endian reader over the snapshot bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or_else(|| PersistError::Corrupted("unexpected end of file".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupted("invalid UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckCtx;
    use sling_logic::{
        parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv, StructDef, TypeEnv,
    };
    use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};
    use std::path::PathBuf;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn envs() -> (TypeEnv, PredEnv) {
        let node = sym("PersistNode");
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
            "pred plist(x: PersistNode*) := emp & x == nil
               | exists u. x -> PersistNode{next: u} * plist(u);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    fn list_model(n: u64, base: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        for i in 0..n {
            let next = if i + 1 < n {
                Val::Addr(Loc::new(base + i + 1))
            } else {
                Val::Nil
            };
            heap.insert(
                Loc::new(base + i),
                HeapCell::new(sym("PersistNode"), vec![next]),
            );
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

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sling-persist-test-{}-{name}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn round_trip_restores_verdicts_and_counts_warm_hits() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        assert_eq!(ctx.env_tag, profile.env_tag());
        let f = parse_formula("plist(x)").unwrap();
        // Populate: positive verdicts of several shapes, one negative.
        for n in 0..4 {
            assert!(ctx.check(&list_model(n, 1), &f).is_some());
        }
        let mut cyc = list_model(2, 1);
        let c1 = Loc::new(1);
        cyc.heap.insert(
            Loc::new(2),
            HeapCell::new(sym("PersistNode"), vec![Val::Addr(c1)]),
        );
        assert!(ctx.check(&cyc, &f).is_none());
        let saved_stats = cache.stats();

        let path = temp_path("round-trip");
        let written = save(&cache, &profile, &path).unwrap();
        assert_eq!(written, saved_stats.entries);

        // A fresh cache in a "new process": every verdict is answered
        // warm, bit-identically to an uncached search.
        let warm = CheckCache::new();
        let loaded = load(&warm, &profile, &path).unwrap();
        assert_eq!(loaded, written);
        assert_eq!(warm.stats().entries, saved_stats.entries);

        let warm_ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &warm);
        let plain = CheckCtx::new(&types, &preds);
        for n in 0..4 {
            // Different base addresses: isomorphic shapes still hit.
            let m = list_model(n, 400 + 10 * n);
            assert_eq!(warm_ctx.check(&m, &f), plain.check(&m, &f));
        }
        assert!(warm_ctx.check(&cyc, &f).is_none());
        let stats = warm.stats();
        assert_eq!(stats.misses, 0, "every query must be warm: {stats:?}");
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.warm_hits, 5, "hits on loaded entries are warm");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_entries_are_not_counted_warm() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = ctx.check(&list_model(2, 1), &f);
        let _ = ctx.check(&list_model(2, 70), &f);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.warm_hits), (1, 0));
    }

    #[test]
    fn mismatched_types_are_rejected_and_cache_untouched() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = ctx.check(&list_model(3, 1), &f);

        let path = temp_path("fingerprint");
        save(&cache, &profile, &path).unwrap();

        // A different struct layout: the file is rejected wholesale.
        let mut other_types = TypeEnv::new();
        other_types
            .define(StructDef {
                name: sym("PersistNode"),
                fields: vec![
                    FieldDef {
                        name: sym("next"),
                        ty: FieldTy::Ptr(sym("PersistNode")),
                    },
                    FieldDef {
                        name: sym("extra"),
                        ty: FieldTy::Int,
                    },
                ],
            })
            .unwrap();
        let other_profile = EnvProfile::new(&other_types, &preds);
        let other = CheckCache::new();
        let err = load(&other, &other_profile, &path).unwrap_err();
        assert!(!err.to_string().is_empty());
        match err {
            PersistError::FingerprintMismatch { expected, found } => {
                assert_eq!(expected, other_profile.types_tag());
                assert_eq!(found, profile.types_tag());
            }
            unexpected => panic!("expected FingerprintMismatch, got {unexpected:?}"),
        }
        assert_eq!(other.stats().entries, 0, "rejected load must not insert");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_predicate_change_drops_only_touching_entries() {
        // Two independent predicates in one library; entries for each.
        // Changing one drops exactly its entries and keeps the other's.
        let node = sym("PartialNode");
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
        let preds_src = |qlist_base: &str| {
            format!(
                "pred qlist(x: PartialNode*) := {qlist_base}
                   | exists u. x -> PartialNode{{next: u}} * qlist(u);
                 pred rcell(x: PartialNode*) := exists u. x -> PartialNode{{next: u}};"
            )
        };
        let mk_preds = |src: &str| {
            let mut env = PredEnv::new();
            for d in parse_predicates(src).unwrap() {
                env.define(d).unwrap();
            }
            env
        };
        let preds_v1 = mk_preds(&preds_src("emp & x == nil"));
        let profile_v1 = EnvProfile::new(&types, &preds_v1);

        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds_v1, Default::default(), &cache);
        assert!(ctx
            .check(
                &list_model_of(node, 2, 1),
                &parse_formula("qlist(x)").unwrap()
            )
            .is_some());
        assert!(ctx
            .check(
                &list_model_of(node, 1, 9),
                &parse_formula("rcell(x)").unwrap()
            )
            .is_some());
        assert_eq!(cache.stats().entries, 2);

        let path = temp_path("partial");
        assert_eq!(save(&cache, &profile_v1, &path).unwrap(), 2);

        // v2: qlist's base case changed; rcell is untouched.
        let preds_v2 = mk_preds(&preds_src("emp & x == x"));
        let profile_v2 = EnvProfile::new(&types, &preds_v2);
        assert_ne!(profile_v1.env_tag(), profile_v2.env_tag());

        let warm = CheckCache::new();
        match load(&warm, &profile_v2, &path) {
            Err(PersistError::PartialStale { kept, dropped }) => {
                assert_eq!((kept, dropped), (1, 1));
            }
            other => panic!("expected PartialStale, got {other:?}"),
        }
        assert_eq!(warm.stats().entries, 1, "the rcell entry survives");

        // The survivor answers rcell queries warm under the new env.
        let warm_ctx = CheckCtx::with_cache(&types, &preds_v2, Default::default(), &warm);
        assert!(warm_ctx
            .check(
                &list_model_of(node, 1, 40),
                &parse_formula("rcell(x)").unwrap()
            )
            .is_some());
        let stats = warm.stats();
        assert_eq!(
            (stats.hits, stats.warm_hits, stats.misses),
            (1, 1, 0),
            "{stats:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_invalidation_follows_predicate_dependencies() {
        // wrap calls through to inner; changing *inner* must drop
        // entries whose formulas only mention wrap.
        let node = sym("DepNode");
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
        let src = |inner_base: &str| {
            format!(
                "pred inner(x: DepNode*) := {inner_base}
                   | exists u. x -> DepNode{{next: u}} * inner(u);
                 pred wrap(x: DepNode*) := inner(x);"
            )
        };
        let mk = |s: &str| {
            let mut env = PredEnv::new();
            for d in parse_predicates(s).unwrap() {
                env.define(d).unwrap();
            }
            env
        };
        let v1 = mk(&src("emp & x == nil"));
        let p1 = EnvProfile::new(&types, &v1);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &v1, Default::default(), &cache);
        assert!(ctx
            .check(
                &list_model_of(node, 2, 1),
                &parse_formula("wrap(x)").unwrap()
            )
            .is_some());

        let path = temp_path("deps");
        assert!(save(&cache, &p1, &path).unwrap() > 0);

        let v2 = mk(&src("emp & x == x"));
        let p2 = EnvProfile::new(&types, &v2);
        let warm = CheckCache::new();
        match load(&warm, &p2, &path) {
            Err(PersistError::PartialStale { kept, dropped }) => {
                assert_eq!(kept, 0, "wrap depends on the changed inner");
                assert!(dropped > 0);
            }
            other => panic!("expected PartialStale, got {other:?}"),
        }
        assert_eq!(warm.stats().entries, 0);
        std::fs::remove_file(&path).ok();
    }

    /// `list_model` over an arbitrary node type.
    fn list_model_of(node: Symbol, n: u64, base: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        for i in 0..n {
            let next = if i + 1 < n {
                Val::Addr(Loc::new(base + i + 1))
            } else {
                Val::Nil
            };
            heap.insert(Loc::new(base + i), HeapCell::new(node, vec![next]));
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
    fn merge_overlapping_snapshots_is_newest_wins_union() {
        // Two caches with one shared key holding *different* synthetic
        // values (impossible via checking, handcrafted here) and one
        // private key each: merging both must produce the three-key
        // union with the newer generation winning the collision.
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget: 7,
            fuel_slack: 3,
        };
        let key = |text: &str| CacheKey::new(scope, text.to_string());
        let red = |ids: &[u32]| {
            Some(CachedReduction {
                residual: ids.to_vec(),
                inst: Vec::new(),
            })
        };

        let older = CheckCache::new();
        older.store(key("shared"), red(&[1]), &[]);
        older.store(key("only-old"), red(&[2]), &[]);
        let newer = CheckCache::new();
        newer.store(key("shared"), red(&[9]), &[]);
        newer.store(key("only-new"), red(&[3]), &[]);

        let dir = std::env::temp_dir();
        let old_path = dir.join(format!("sling-merge-old-{}.snap", std::process::id()));
        let new_path = dir.join(format!("sling-merge-new-{}.snap", std::process::id()));
        save_at(&older, &profile, &old_path, 100).unwrap();
        save_at(&newer, &profile, &new_path, 200).unwrap();

        // Merge in both orders: the result must be identical.
        for order in [[&old_path, &new_path], [&new_path, &old_path]] {
            let live = CheckCache::new();
            let mut totals = MergeStats::default();
            for p in order {
                let stats = merge(&live, &profile, p).unwrap();
                totals.merged += stats.merged;
                totals.skipped += stats.skipped;
            }
            assert_eq!(live.stats().entries, 3, "union of both key sets");
            // 4 entries offered; every offer is accounted either way.
            // Old-then-new replaces the shared key (counted merged);
            // new-then-old skips the older shared offer.
            assert_eq!(totals.merged + totals.skipped, 4);
            assert!(totals.merged >= 3, "{totals:?}");
            let winner = live.lookup(&key("shared")).expect("shared key present");
            assert_eq!(
                winner.expect("positive verdict").residual,
                vec![9],
                "the newer generation must win the collision"
            );
        }
        std::fs::remove_file(&old_path).ok();
        std::fs::remove_file(&new_path).ok();
    }

    #[test]
    fn generation_stamps_are_strictly_monotonic_and_respect_floors() {
        let a = generation_stamp(0);
        let b = generation_stamp(0);
        assert!(b > a, "back-to-back stamps must order strictly");
        // A floor from a future-stamped sibling: the stamp lands above
        // it, and later stamps never rewind below the raised watermark.
        let future = b + (1 << 20);
        let c = generation_stamp(future);
        assert!(c > future);
        let d = generation_stamp(0);
        assert!(d > c, "the counter never rewinds after a high floor");
    }

    #[test]
    fn same_millisecond_snapshots_merge_deterministically() {
        // Two snapshots stamped back-to-back — the same wall-clock
        // millisecond in practice — used to receive equal generations,
        // and equal generations merge order-dependently (the colliding
        // offer is skipped, so whichever snapshot merged first won).
        // The per-process sub-counter must break the tie: both merge
        // orders agree that the later save wins.
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget: 7,
            fuel_slack: 3,
        };
        let key = |text: &str| CacheKey::new(scope, text.to_string());
        let red = |ids: &[u32]| {
            Some(CachedReduction {
                residual: ids.to_vec(),
                inst: Vec::new(),
            })
        };

        let first = CheckCache::new();
        first.store(key("shared"), red(&[1]), &[]);
        let second = CheckCache::new();
        second.store(key("shared"), red(&[9]), &[]);

        let g1 = generation_stamp(0);
        let g2 = generation_stamp(0);
        assert!(g2 > g1, "sub-counter must break the wall-clock tie");
        assert_ne!(g1 >> GENERATION_SUB_BITS, 0, "wall component present");

        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("sling-samems-1-{}.snap", std::process::id()));
        let p2 = dir.join(format!("sling-samems-2-{}.snap", std::process::id()));
        save_at(&first, &profile, &p1, g1).unwrap();
        save_at(&second, &profile, &p2, g2).unwrap();

        for order in [[&p1, &p2], [&p2, &p1]] {
            let live = CheckCache::new();
            for p in order {
                merge(&live, &profile, p).unwrap();
            }
            let winner = live.lookup(&key("shared")).expect("shared key present");
            assert_eq!(
                winner.expect("positive verdict").residual,
                vec![9],
                "the later save must win regardless of merge order"
            );
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn merge_never_replaces_live_entries() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget: 1,
            fuel_slack: 1,
        };
        let key = CacheKey::new(scope, "live-vs-snapshot".to_string());
        let snapshot_cache = CheckCache::new();
        snapshot_cache.store(
            key.clone(),
            Some(CachedReduction {
                residual: vec![5],
                inst: Vec::new(),
            }),
            &[],
        );
        let path = temp_path("live-wins");
        save_at(&snapshot_cache, &profile, &path, u64::MAX - 1).unwrap();

        // The live cache computed its own verdict for the same key.
        let live = CheckCache::new();
        live.store(
            key.clone(),
            Some(CachedReduction {
                residual: vec![8],
                inst: Vec::new(),
            }),
            &[],
        );
        let stats = merge(&live, &profile, &path).unwrap();
        assert_eq!((stats.merged, stats.skipped), (0, 1));
        let kept = live.lookup(&key).expect("still present");
        assert_eq!(
            kept.expect("positive").residual,
            vec![8],
            "a live-computed entry beats any snapshot generation"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_respects_capacity_without_evicting() {
        use crate::SHARD_COUNT;
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        for n in 0..(4 * SHARD_COUNT as u64) {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let path = temp_path("merge-capacity");
        let written = save(&cache, &profile, &path).unwrap();

        let tiny = CheckCache::with_capacity(SHARD_COUNT); // one entry per shard
        let stats = merge(&tiny, &profile, &path).unwrap();
        assert_eq!(stats.merged, tiny.stats().entries);
        assert!(stats.merged < written);
        assert_eq!(stats.merged + stats.skipped, written);
        assert_eq!(
            tiny.stats().evictions,
            0,
            "merging must never evict to make room"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        for n in 0..3 {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let path = temp_path("corrupt");
        save(&cache, &profile, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one body byte: checksum must catch it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        std::fs::write(&path, &flipped).unwrap();
        let fresh = CheckCache::new();
        assert!(matches!(
            load(&fresh, &profile, &path),
            Err(PersistError::Corrupted(_))
        ));
        assert_eq!(fresh.stats().entries, 0, "rejected load must not insert");
        assert!(matches!(
            merge(&fresh, &profile, &path),
            Err(PersistError::Corrupted(_))
        ));

        // Truncations anywhere must error, never panic — through both
        // entry points.
        for cut in [0, 3, 9, 13, 19, 27, 35, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                load(&CheckCache::new(), &profile, &path).is_err(),
                "truncation at {cut} must be rejected"
            );
            assert!(
                merge(&CheckCache::new(), &profile, &path).is_err(),
                "merge truncation at {cut} must be rejected"
            );
        }

        // Not a snapshot at all.
        std::fs::write(&path, b"definitely not a cache").unwrap();
        assert!(matches!(
            load(&CheckCache::new(), &profile, &path),
            Err(PersistError::Corrupted(_))
        ));

        // A past or future format version is refused, not misparsed.
        for v in [1u32, 99] {
            let mut versioned = good.clone();
            versioned[8..12].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&path, &versioned).unwrap();
            assert!(matches!(
                load(&CheckCache::new(), &profile, &path),
                Err(PersistError::UnsupportedVersion(got)) if got == v
            ));
        }

        // A missing file surfaces as Io.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load(&CheckCache::new(), &profile, &path),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn stale_temp_files_are_swept_on_save_and_load() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = ctx.check(&list_model(2, 1), &f);

        let path = temp_path("sweep");
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let parent = path.parent().unwrap().to_path_buf();
        // A temp stranded by a "crashed" save of a dead process (a pid
        // this test does not have, aged past the staleness window),
        // plus a *fresh* other-pid temp (a live sibling mid-save) and
        // one belonging to this process (a concurrent save mid-write) —
        // both of which must survive.
        let stale = parent.join(format!("{stem}.tmp.999999999.0"));
        let fresh = parent.join(format!("{stem}.tmp.999999998.0"));
        let own = parent.join(format!("{stem}.tmp.{}.7", std::process::id()));
        let plant_stale = || {
            std::fs::write(&stale, b"half-written snapshot").unwrap();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&stale)
                .unwrap();
            let crashed_at = std::time::SystemTime::now() - 2 * super::STALE_TEMP_AGE;
            file.set_times(std::fs::FileTimes::new().set_modified(crashed_at))
                .unwrap();
        };
        plant_stale();
        std::fs::write(&fresh, b"in-flight sibling snapshot").unwrap();
        std::fs::write(&own, b"in-flight snapshot").unwrap();

        save(&cache, &profile, &path).unwrap();
        assert!(
            !stale.exists(),
            "a successful save must sweep aged dead-process temps"
        );
        assert!(fresh.exists(), "fresh other-pid temps may be mid-save");
        assert!(own.exists(), "own-pid temps are in flight, not stale");

        plant_stale();
        let restored = CheckCache::new();
        assert!(load(&restored, &profile, &path).unwrap() > 0);
        assert!(!stale.exists(), "load must sweep aged temps too");
        assert!(fresh.exists());
        assert!(own.exists());

        std::fs::remove_file(&fresh).ok();
        std::fs::remove_file(&own).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_only_retained_entries() {
        // Loading into a near-capacity cache keeps what fits; the
        // returned count must reflect what was retained, not the file.
        use crate::SHARD_COUNT;
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        for n in 0..(4 * SHARD_COUNT as u64) {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let path = temp_path("capacity");
        let written = save(&cache, &profile, &path).unwrap();

        let tiny = CheckCache::with_capacity(SHARD_COUNT); // one entry per shard
        let loaded = load(&tiny, &profile, &path).unwrap();
        assert_eq!(loaded, tiny.stats().entries);
        assert!(
            loaded < written,
            "a tiny cache cannot retain the whole snapshot ({loaded} vs {written})"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_filters_by_environment() {
        // One shared cache, two environments: a snapshot for one env
        // contains only that env's entries.
        let (types, preds_real) = envs();
        let mut preds_other = PredEnv::new();
        for d in parse_predicates("pred plist(x: PersistNode*) := emp & x == nil;").unwrap() {
            preds_other.define(d).unwrap();
        }
        let cache = CheckCache::new();
        let a = CheckCtx::with_cache(&types, &preds_real, Default::default(), &cache);
        let b = CheckCtx::with_cache(&types, &preds_other, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = a.check(&list_model(2, 1), &f);
        let _ = b.check(&list_model(2, 1), &f);
        assert_eq!(cache.stats().entries, 2);

        let profile_a = EnvProfile::new(&types, &preds_real);
        let path = temp_path("filter");
        assert_eq!(save(&cache, &profile_a, &path).unwrap(), 1);
        let only_a = CheckCache::new();
        assert_eq!(load(&only_a, &profile_a, &path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }
}
