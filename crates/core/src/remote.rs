//! The distributed entailment-cache tier: wire productions and the
//! write-through client.
//!
//! A fleet of engines over the same predicate library re-derives the
//! same entailments; `sling-serve --cache-server` turns the memo table
//! into a shared network service. This module owns the engine side:
//!
//! * the `get` / `put` / `sync` productions the tier speaks over the
//!   [`crate::wire`] codec ([`CacheRequest`] / [`CacheResponse`] —
//!   the server in `sling-serve` uses the same types), and
//! * [`RemoteCacheClient`], the write-through hook an engine plugs into
//!   its checker via [`crate::EngineBuilder::remote_cache`].
//!
//! # Protocol
//!
//! ```text
//! client → server   sling8 get <types:u64> <budget:u64> <slack:u64> <text:string>
//! client → server   sling8 put <types:u64> <n:u64> entry*
//! client → server   sling8 sync <types:u64> <since:u64>
//! server → client   sling8 cachehello <entries:u64>          ; banner on accept
//! server → client   sling8 hit entry                          ; get answers
//! server → client   sling8 miss
//! server → client   sling8 entries <watermark:u64> <n:u64> entry*   ; sync answer
//! server → client   sling8 error <message:string>
//! entry  := budget:u64 slack:u64 text:string blob npreds:u64 (name:string fp:u64)* gen:u64
//! blob   := "-" | "x" hex*                                    ; "-" = cached "no" verdict
//! ```
//!
//! Entries are namespaced by the *type-environment* fingerprint and
//! validated per predicate: every entry carries the `(predicate,
//! fingerprint)` pairs of its direct mentions (the v2 snapshot key
//! material, [`sling_checker::EnvProfile::pred_fingerprints`]), and the
//! *client* re-runs the snapshot loader's transitive closure check
//! before trusting a foreign verdict. Engines with partially divergent
//! predicate libraries therefore share exactly the entries whose
//! closures agree — the same rule snapshot loading applies.
//!
//! # Failure semantics
//!
//! A dead or slow cache server must never fail or stall an analysis:
//!
//! * `fetch` uses a non-blocking connection claim — a round trip
//!   already in flight means concurrent workers degrade instantly
//!   rather than queue behind it — and bounded socket timeouts;
//! * any transport error tears the connection down and starts a
//!   reconnect backoff (the shared [`crate::backoff::retry_delay`]
//!   schedule), during which every fetch degrades instantly;
//! * publishes ride a bounded queue drained by a flusher thread;
//!   under backpressure or a down server entries are *dropped*, never
//!   blocked on — the tier is an accelerator, not a store of record;
//! * a periodic anti-entropy thread pulls entries newer than the last
//!   sync watermark and folds them in through the newest-generation-wins
//!   merge, so entries computed by sibling engines arrive even when
//!   this engine never misses on them.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sling_checker::remote::{RemoteCache, RemoteHit, RemoteLookup, RemotePublish, RemoteQuery};
use sling_checker::{remote, CheckCache, EnvProfile, RemoteEntry};

use crate::backoff::{jitter_seed, retry_delay};
use crate::wire::{WireError, WireReader, WireWriter};

/// Bound on the write-behind queue; publishes beyond it are dropped
/// (and counted) rather than blocking the hot path.
const QUEUE_LIMIT: usize = 4096;
/// Entries per `put` frame the flusher uploads at a time.
const FLUSH_BATCH: usize = 256;
/// Budget for establishing a connection to the cache server.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1000);
/// Budget for any single socket read or write.
const IO_TIMEOUT: Duration = Duration::from_millis(1000);
/// Default period of the anti-entropy sync thread.
pub const DEFAULT_SYNC_INTERVAL: Duration = Duration::from_secs(30);

/// A request to the cache server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheRequest {
    /// Look up one entry by scope and canonical text.
    Get {
        /// Type-environment fingerprint namespacing the store.
        types_tag: u64,
        /// Search-node budget of the query scope.
        node_budget: u64,
        /// Unfolding slack of the query scope.
        fuel_slack: u32,
        /// Canonical query text.
        text: String,
    },
    /// Upload a batch of freshly computed entries (write-behind). The
    /// server stamps arrival generations; entry `generation` fields are
    /// ignored.
    Put {
        /// Type-environment fingerprint namespacing the store.
        types_tag: u64,
        /// The entries.
        entries: Vec<RemoteEntry>,
    },
    /// Pull entries with a generation strictly above `since`
    /// (anti-entropy).
    Sync {
        /// Type-environment fingerprint namespacing the store.
        types_tag: u64,
        /// The client's last sync watermark.
        since: u64,
    },
}

impl CacheRequest {
    /// Encodes the request as one frame line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            CacheRequest::Get {
                types_tag,
                node_budget,
                fuel_slack,
                text,
            } => {
                let mut w = WireWriter::frame("get");
                w.u64(*types_tag);
                w.u64(*node_budget);
                w.u64(u64::from(*fuel_slack));
                w.text(text);
                w.finish()
            }
            CacheRequest::Put { types_tag, entries } => {
                let mut w = WireWriter::frame("put");
                w.u64(*types_tag);
                w.u64(entries.len() as u64);
                for entry in entries {
                    write_entry(&mut w, entry);
                }
                w.finish()
            }
            CacheRequest::Sync { types_tag, since } => {
                let mut w = WireWriter::frame("sync");
                w.u64(*types_tag);
                w.u64(*since);
                w.finish()
            }
        }
    }

    /// Decodes one frame line.
    pub fn decode(line: &str) -> Result<CacheRequest, WireError> {
        let (kind, mut r) = WireReader::frame(line)?;
        let request = match kind {
            "get" => CacheRequest::Get {
                types_tag: r.u64()?,
                node_budget: r.u64()?,
                fuel_slack: read_u32(&mut r)?,
                text: r.text()?,
            },
            "put" => {
                let types_tag = r.u64()?;
                let n = r.u64()?;
                let mut entries = Vec::with_capacity((n as usize).min(1 << 16));
                for _ in 0..n {
                    entries.push(read_entry(&mut r)?);
                }
                CacheRequest::Put { types_tag, entries }
            }
            "sync" => CacheRequest::Sync {
                types_tag: r.u64()?,
                since: r.u64()?,
            },
            other => {
                return Err(WireError::Syntax(format!(
                    "unknown cache request kind {other:?}"
                )))
            }
        };
        r.finish()?;
        Ok(request)
    }
}

/// A cache-server answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheResponse {
    /// Banner sent on accept, before any request.
    Hello {
        /// Entries resident on the server (all namespaces).
        entries: u64,
    },
    /// `get` answer: the entry (key fields echoed back).
    Hit(RemoteEntry),
    /// `get` answer: nothing stored for that key.
    Miss,
    /// `sync` answer: entries newer than the requested watermark, plus
    /// the server's current watermark for the next round.
    Entries {
        /// Highest generation in the namespace after this batch.
        watermark: u64,
        /// The entries.
        entries: Vec<RemoteEntry>,
    },
    /// The server could not serve the request.
    Error {
        /// Operator-facing reason.
        message: String,
    },
}

impl CacheResponse {
    /// Encodes the response as one frame line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            CacheResponse::Hello { entries } => {
                let mut w = WireWriter::frame("cachehello");
                w.u64(*entries);
                w.finish()
            }
            CacheResponse::Hit(entry) => {
                let mut w = WireWriter::frame("hit");
                write_entry(&mut w, entry);
                w.finish()
            }
            CacheResponse::Miss => WireWriter::frame("miss").finish(),
            CacheResponse::Entries { watermark, entries } => {
                let mut w = WireWriter::frame("entries");
                w.u64(*watermark);
                w.u64(entries.len() as u64);
                for entry in entries {
                    write_entry(&mut w, entry);
                }
                w.finish()
            }
            CacheResponse::Error { message } => {
                let mut w = WireWriter::frame("error");
                w.text(message);
                w.finish()
            }
        }
    }

    /// Decodes one frame line.
    pub fn decode(line: &str) -> Result<CacheResponse, WireError> {
        let (kind, mut r) = WireReader::frame(line)?;
        let response = match kind {
            "cachehello" => CacheResponse::Hello { entries: r.u64()? },
            "hit" => CacheResponse::Hit(read_entry(&mut r)?),
            "miss" => CacheResponse::Miss,
            "entries" => {
                let watermark = r.u64()?;
                let n = r.u64()?;
                let mut entries = Vec::with_capacity((n as usize).min(1 << 16));
                for _ in 0..n {
                    entries.push(read_entry(&mut r)?);
                }
                CacheResponse::Entries { watermark, entries }
            }
            "error" => CacheResponse::Error { message: r.text()? },
            other => {
                return Err(WireError::Syntax(format!(
                    "unknown cache response kind {other:?}"
                )))
            }
        };
        r.finish()?;
        Ok(response)
    }
}

fn read_u32(r: &mut WireReader<'_>) -> Result<u32, WireError> {
    u32::try_from(r.u64()?).map_err(|_| WireError::Syntax("u32 payload out of range".into()))
}

fn write_entry(w: &mut WireWriter, entry: &RemoteEntry) {
    w.u64(entry.node_budget);
    w.u64(u64::from(entry.fuel_slack));
    w.text(&entry.text);
    match &entry.value {
        None => w.atom("-"),
        Some(blob) => {
            let mut token = String::with_capacity(1 + 2 * blob.len());
            token.push('x');
            for byte in blob {
                token.push(char::from_digit(u32::from(byte >> 4), 16).expect("hex digit"));
                token.push(char::from_digit(u32::from(byte & 0xf), 16).expect("hex digit"));
            }
            w.atom(&token);
        }
    }
    w.u64(entry.preds.len() as u64);
    for (name, fingerprint) in &entry.preds {
        w.text(name);
        w.u64(*fingerprint);
    }
    w.u64(entry.generation);
}

fn read_entry(r: &mut WireReader<'_>) -> Result<RemoteEntry, WireError> {
    let node_budget = r.u64()?;
    let fuel_slack = read_u32(r)?;
    let text = r.text()?;
    let value = match r.atom()? {
        "-" => None,
        token => {
            let hex = token
                .strip_prefix('x')
                .ok_or_else(|| WireError::Syntax(format!("bad verdict blob {token:?}")))?;
            if hex.len() % 2 != 0 {
                return Err(WireError::Syntax("odd-length verdict blob".into()));
            }
            let mut blob = Vec::with_capacity(hex.len() / 2);
            let bytes = hex.as_bytes();
            for pair in bytes.chunks_exact(2) {
                let hi = (pair[0] as char).to_digit(16);
                let lo = (pair[1] as char).to_digit(16);
                match (hi, lo) {
                    (Some(hi), Some(lo)) => blob.push(((hi << 4) | lo) as u8),
                    _ => return Err(WireError::Syntax("bad hex in verdict blob".into())),
                }
            }
            Some(blob)
        }
    };
    let npreds = r.u64()?;
    let mut preds = Vec::with_capacity((npreds as usize).min(1 << 16));
    for _ in 0..npreds {
        let name = r.text()?;
        let fingerprint = r.u64()?;
        preds.push((name, fingerprint));
    }
    let generation = r.u64()?;
    Ok(RemoteEntry {
        node_budget,
        fuel_slack,
        text,
        value,
        preds,
        generation,
    })
}

/// Counters of one [`RemoteCacheClient`] (transport-level; the
/// per-query hit/miss/degraded counters live in
/// [`crate::CacheStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteClientStats {
    /// Entries uploaded to the server by the write-behind flusher.
    pub published: u64,
    /// Publishes dropped under backpressure or a degraded tier.
    pub dropped: u64,
    /// Entries absorbed from anti-entropy syncs.
    pub synced: u64,
}

/// One connection to the cache server (banner already consumed).
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "cache-server address resolved empty",
            )
        })?;
        let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
        };
        match conn.read_response()? {
            CacheResponse::Hello { .. } => Ok(conn),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a cachehello banner, got {other:?}"),
            )),
        }
    }

    fn send(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        let mut stream = self.reader.get_ref();
        stream.write_all(line.as_bytes())
    }

    fn read_response(&mut self) -> io::Result<CacheResponse> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.trim().is_empty() {
                continue;
            }
            return CacheResponse::decode(trimmed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
        }
    }

    fn round_trip(&mut self, request: &CacheRequest) -> io::Result<CacheResponse> {
        self.send(request.encode())?;
        self.read_response()
    }
}

/// The fetch connection: ready, or down with a reconnect backoff.
#[derive(Debug)]
enum FetchState {
    Ready(Box<Conn>),
    Down {
        /// Consecutive failed reconnects (drives the backoff schedule;
        /// grows saturating, and the schedule is total at the cap).
        attempt: u32,
        /// Do not reconnect before this instant; `None` retries
        /// immediately (initial state).
        retry_at: Option<Instant>,
    },
}

#[derive(Debug, Default)]
struct PublishQueue {
    entries: VecDeque<RemoteEntry>,
    /// A batch is on the wire (kept out of `entries` so the queue
    /// bound stays honest); `flush` waits for both to clear.
    inflight: bool,
}

#[derive(Debug)]
struct Inner {
    addr: String,
    profile: EnvProfile,
    cache: Arc<CheckCache>,
    fingerprints: BTreeMap<String, u64>,
    fetch: Mutex<FetchState>,
    queue: Mutex<PublishQueue>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    sync_interval: Duration,
    sync_watermark: AtomicU64,
    seed: u64,
    published: AtomicU64,
    dropped: AtomicU64,
    synced: AtomicU64,
}

/// The engine side of the cache tier: a [`RemoteCache`] implementation
/// speaking the `get`/`put`/`sync` productions, with write-behind
/// upload and periodic anti-entropy. Construction never touches the
/// network (connections are lazy), so a dead server at build time
/// costs nothing until the first fetch — which degrades instantly and
/// starts the reconnect backoff.
#[derive(Debug)]
pub struct RemoteCacheClient {
    inner: Arc<Inner>,
    flusher: Option<std::thread::JoinHandle<()>>,
    syncer: Option<std::thread::JoinHandle<()>>,
}

impl RemoteCacheClient {
    /// Creates a client for the cache server at `addr`, publishing into
    /// and absorbing from `cache` under `profile`'s environment.
    /// `sync_interval` paces the anti-entropy thread
    /// ([`DEFAULT_SYNC_INTERVAL`] unless overridden; sub-100ms
    /// intervals are honored but mostly useful in tests).
    pub fn new(
        addr: String,
        profile: EnvProfile,
        cache: Arc<CheckCache>,
        sync_interval: Duration,
    ) -> RemoteCacheClient {
        let fingerprints = profile.pred_fingerprints().into_iter().collect();
        let inner = Arc::new(Inner {
            addr,
            profile,
            cache,
            fingerprints,
            fetch: Mutex::new(FetchState::Down {
                attempt: 0,
                retry_at: None,
            }),
            queue: Mutex::new(PublishQueue::default()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            sync_interval,
            sync_watermark: AtomicU64::new(0),
            seed: jitter_seed(),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            synced: AtomicU64::new(0),
        });
        let flusher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sling-cache-flush".into())
                .spawn(move || flusher_loop(&inner))
                .ok()
        };
        let syncer = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sling-cache-sync".into())
                .spawn(move || syncer_loop(&inner))
                .ok()
        };
        RemoteCacheClient {
            inner,
            flusher,
            syncer,
        }
    }

    /// The configured cache-server address.
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// Whether the fetch path is currently degraded (down or in
    /// reconnect backoff). A round trip in flight reports `false`.
    pub fn degraded(&self) -> bool {
        match self.inner.fetch.try_lock() {
            Ok(state) => matches!(*state, FetchState::Down { .. }),
            Err(_) => false,
        }
    }

    /// Transport-level counters.
    pub fn stats(&self) -> RemoteClientStats {
        RemoteClientStats {
            published: self.inner.published.load(Ordering::Relaxed),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            synced: self.inner.synced.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the write-behind queue has fully drained (or
    /// `timeout` elapses); returns whether it drained. Entries dropped
    /// by a degraded flusher count as drained — this waits for the
    /// queue to settle, not for delivery confirmation.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut queue = self.inner.queue.lock().expect("publish queue lock");
        loop {
            if queue.entries.is_empty() && !queue.inflight {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .queue_cv
                .wait_timeout(queue, deadline - now)
                .expect("publish queue lock");
            queue = guard;
        }
    }

    /// Runs one anti-entropy round right now (in addition to the
    /// periodic thread): pulls entries above the current watermark and
    /// merges them. Returns the number of entries absorbed, or `None`
    /// when the server was unreachable.
    pub fn sync_now(&self) -> Option<u64> {
        sync_once(&self.inner).ok()
    }
}

impl RemoteCache for RemoteCacheClient {
    fn fetch(&self, query: &RemoteQuery<'_>) -> RemoteLookup {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Relaxed) {
            return RemoteLookup::Degraded;
        }
        // Non-blocking claim: a round trip already in flight means
        // concurrent workers degrade instantly instead of queueing
        // behind a socket (bounded stall, never a pile-up).
        let Ok(mut state) = inner.fetch.try_lock() else {
            return RemoteLookup::Degraded;
        };
        let conn = match &mut *state {
            FetchState::Ready(conn) => conn,
            FetchState::Down { attempt, retry_at } => {
                if let Some(at) = retry_at {
                    if Instant::now() < *at {
                        return RemoteLookup::Degraded;
                    }
                }
                match Conn::open(&inner.addr) {
                    Ok(conn) => {
                        *state = FetchState::Ready(Box::new(conn));
                        match &mut *state {
                            FetchState::Ready(conn) => conn,
                            FetchState::Down { .. } => unreachable!("just set Ready"),
                        }
                    }
                    Err(_) => {
                        let next = attempt.saturating_add(1);
                        *state = FetchState::Down {
                            attempt: next,
                            retry_at: Some(Instant::now() + retry_delay(next, inner.seed)),
                        };
                        return RemoteLookup::Degraded;
                    }
                }
            }
        };
        let request = CacheRequest::Get {
            types_tag: inner.profile.types_tag(),
            node_budget: query.node_budget,
            fuel_slack: query.fuel_slack,
            text: query.text.to_string(),
        };
        match conn.round_trip(&request) {
            Ok(CacheResponse::Hit(entry)) => {
                // The v2 per-predicate fingerprint gate: trust the
                // verdict only when the entry's recorded closure is
                // unchanged under this engine's profile.
                let names: Vec<String> = entry.preds.iter().map(|(name, _)| name.clone()).collect();
                if inner.profile.closure_matches(&entry.preds, &names) {
                    RemoteLookup::Hit(RemoteHit {
                        value: entry.value,
                        preds: names,
                        generation: entry.generation,
                    })
                } else {
                    RemoteLookup::Miss
                }
            }
            Ok(CacheResponse::Miss) => RemoteLookup::Miss,
            Ok(_) | Err(_) => {
                // Protocol violations and transport errors tear the
                // connection down alike; the next fetch reconnects
                // after the backoff.
                *state = FetchState::Down {
                    attempt: 0,
                    retry_at: Some(Instant::now() + retry_delay(0, inner.seed)),
                };
                RemoteLookup::Degraded
            }
        }
    }

    fn publish(&self, entry: RemotePublish) {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Attach the per-predicate fingerprints the entry was computed
        // under; a mention outside the profile cannot be expressed (in
        // practice none is) and is dropped.
        let Some(preds) = entry
            .preds
            .iter()
            .map(|name| inner.fingerprints.get(name).map(|fp| (name.clone(), *fp)))
            .collect::<Option<Vec<(String, u64)>>>()
        else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let entry = RemoteEntry {
            node_budget: entry.node_budget,
            fuel_slack: entry.fuel_slack,
            text: entry.text,
            value: entry.value,
            preds,
            generation: 0, // the server stamps arrivals
        };
        let mut queue = inner.queue.lock().expect("publish queue lock");
        if queue.entries.len() >= QUEUE_LIMIT {
            drop(queue);
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        queue.entries.push_back(entry);
        drop(queue);
        inner.queue_cv.notify_all();
    }
}

impl Drop for RemoteCacheClient {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.queue_cv.notify_all();
        if let Some(handle) = self.flusher.take() {
            handle.join().ok();
        }
        if let Some(handle) = self.syncer.take() {
            handle.join().ok();
        }
    }
}

/// The write-behind flusher: drains the queue in batches onto its own
/// connection. Failures drop the batch (best-effort tier) and back
/// off; shutdown drains whatever is already queued on a live
/// connection, then exits.
fn flusher_loop(inner: &Inner) {
    let mut conn: Option<Conn> = None;
    let mut attempt: u32 = 0;
    loop {
        let batch: Vec<RemoteEntry> = {
            let mut queue = inner.queue.lock().expect("publish queue lock");
            while queue.entries.is_empty() {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("publish queue lock");
                queue = guard;
            }
            let take = queue.entries.len().min(FLUSH_BATCH);
            queue.inflight = true;
            queue.entries.drain(..take).collect()
        };
        let sent = flush_batch(inner, &mut conn, &batch);
        {
            let mut queue = inner.queue.lock().expect("publish queue lock");
            queue.inflight = false;
        }
        inner.queue_cv.notify_all();
        match sent {
            Ok(()) => {
                attempt = 0;
                inner
                    .published
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                conn = None;
                inner
                    .dropped
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                attempt = attempt.saturating_add(1);
                // Back off, but stay responsive to shutdown.
                let delay = retry_delay(attempt, inner.seed ^ 1);
                let queue = inner.queue.lock().expect("publish queue lock");
                let _ = inner.queue_cv.wait_timeout(queue, delay);
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
        }
    }
}

fn flush_batch(inner: &Inner, conn: &mut Option<Conn>, batch: &[RemoteEntry]) -> io::Result<()> {
    if conn.is_none() {
        *conn = Some(Conn::open(&inner.addr)?);
    }
    let live = conn.as_mut().expect("connection just opened");
    let request = CacheRequest::Put {
        types_tag: inner.profile.types_tag(),
        entries: batch.to_vec(),
    };
    // Writes are fire-and-forget (the server answers nothing for
    // `put`); delivery failures surface as errors on the *next* write,
    // which drops that batch — acceptable for an accelerator tier.
    live.send(request.encode())
}

/// The anti-entropy loop: every `sync_interval`, pull entries above
/// the watermark and fold them in. Sleeps in short steps so shutdown
/// is prompt even with long intervals.
fn syncer_loop(inner: &Inner) {
    let step = Duration::from_millis(50);
    loop {
        let mut slept = Duration::ZERO;
        while slept < inner.sync_interval {
            if inner.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let nap = step.min(inner.sync_interval - slept);
            std::thread::sleep(nap);
            slept += nap;
        }
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let _ = sync_once(inner);
    }
}

/// One anti-entropy round on a transient connection. Returns entries
/// absorbed; errors mean the server was unreachable (the round is
/// simply skipped — the next one retries).
fn sync_once(inner: &Inner) -> io::Result<u64> {
    let mut conn = Conn::open(&inner.addr)?;
    let since = inner.sync_watermark.load(Ordering::Relaxed);
    let request = CacheRequest::Sync {
        types_tag: inner.profile.types_tag(),
        since,
    };
    match conn.round_trip(&request)? {
        CacheResponse::Entries { watermark, entries } => {
            let merged = remote::absorb_remote(&inner.cache, &inner.profile, &entries);
            inner.synced.fetch_add(merged, Ordering::Relaxed);
            inner.sync_watermark.fetch_max(watermark, Ordering::Relaxed);
            Ok(merged)
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected an entries frame, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(text: &str, value: Option<Vec<u8>>, generation: u64) -> RemoteEntry {
        RemoteEntry {
            node_budget: 200_000,
            fuel_slack: 24,
            text: text.to_string(),
            value,
            preds: vec![("dll".into(), 0xfeed), ("sll".into(), 7)],
            generation,
        }
    }

    #[test]
    fn cache_requests_round_trip() {
        let frames = [
            CacheRequest::Get {
                types_tag: 0xabc,
                node_budget: 200_000,
                fuel_slack: 24,
                text: "F ⊩ dll(x, u1, u2, \"tmp\")".into(),
            },
            CacheRequest::Put {
                types_tag: 1,
                entries: vec![
                    entry("a", Some(vec![0, 1, 0xfe, 0xff]), 0),
                    entry("b", None, 0),
                ],
            },
            CacheRequest::Sync {
                types_tag: u64::MAX,
                since: 42,
            },
        ];
        for frame in frames {
            let line = frame.encode();
            assert_eq!(CacheRequest::decode(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn cache_responses_round_trip() {
        let frames = [
            CacheResponse::Hello { entries: 9000 },
            CacheResponse::Hit(entry("shared", Some(vec![0xde, 0xad]), 17)),
            CacheResponse::Miss,
            CacheResponse::Entries {
                watermark: 99,
                entries: vec![entry("x", None, 98), entry("y", Some(vec![]), 99)],
            },
            CacheResponse::Error {
                message: "namespace \"wedged\"\nrestart".into(),
            },
        ];
        for frame in frames {
            let line = frame.encode();
            assert_eq!(CacheResponse::decode(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn previous_version_frames_are_rejected_as_version_errors() {
        for line in [
            "sling6 get 1 2 3 \"t\"",
            "sling6 cachehello 0",
            "sling5 sync 1 0",
        ] {
            match CacheRequest::decode(line) {
                Err(WireError::Version(tag)) => assert!(tag.starts_with("sling")),
                other => panic!("expected a version error for {line:?}, got {other:?}"),
            }
            assert!(matches!(
                CacheResponse::decode(line),
                Err(WireError::Version(_))
            ));
        }
    }

    #[test]
    fn mangled_blobs_and_kinds_are_syntax_errors() {
        let bad = [
            // Unknown kinds in both directions.
            format!("{} fetch 1 2 3 \"t\"", crate::wire::WIRE_VERSION),
            // Odd-length and non-hex blobs.
            format!("{} hit 1 2 \"t\" xabc 0 5", crate::wire::WIRE_VERSION),
            format!("{} hit 1 2 \"t\" xzz 0 5", crate::wire::WIRE_VERSION),
            // A blob token without the x prefix.
            format!("{} hit 1 2 \"t\" ab12 0 5", crate::wire::WIRE_VERSION),
            // u32 overflow on fuel_slack.
            format!("{} get 1 2 5000000000 \"t\"", crate::wire::WIRE_VERSION),
        ];
        for line in &bad {
            let request = CacheRequest::decode(line);
            let response = CacheResponse::decode(line);
            assert!(
                matches!(request, Err(WireError::Syntax(_)))
                    || matches!(response, Err(WireError::Syntax(_))),
                "expected a syntax error for {line:?}: {request:?} / {response:?}"
            );
        }
    }

    #[test]
    fn degraded_client_fetches_instantly_and_drops_publishes() {
        // No server listening: the first fetch fails fast and starts
        // the backoff; during the backoff window fetches return
        // Degraded without touching the network.
        let (types, preds) = (sling_logic::TypeEnv::new(), sling_logic::PredEnv::new());
        let profile = EnvProfile::new(&types, &preds);
        let cache = Arc::new(CheckCache::new());
        let client = RemoteCacheClient::new(
            "127.0.0.1:1".into(), // reserved port: connection refused
            profile,
            cache,
            Duration::from_secs(3600),
        );
        let query = RemoteQuery {
            node_budget: 1,
            fuel_slack: 1,
            text: "q",
        };
        assert_eq!(client.fetch(&query), RemoteLookup::Degraded);
        assert!(client.degraded());
        let started = Instant::now();
        assert_eq!(client.fetch(&query), RemoteLookup::Degraded);
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "backoff window must answer instantly"
        );
        client.publish(RemotePublish {
            node_budget: 1,
            fuel_slack: 1,
            text: "q".into(),
            value: None,
            preds: Vec::new(),
        });
        assert!(client.flush(Duration::from_secs(5)), "queue must settle");
    }
}
