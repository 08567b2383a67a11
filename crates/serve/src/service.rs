//! The long-lived analysis service.

use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sling::{Engine, Report};

use crate::pool::{EnginePool, PoolSettings};
use crate::proto::{ClientFrame, FrameBuffer, FrameTooLarge, ServerFrame, MAX_FRAME_BYTES};

/// How often blocked reads wake up to notice a drain in progress.
const DRAIN_POLL: Duration = Duration::from_millis(100);

/// Engine-pool capacity when [`ServeOptions::pool_capacity`] is unset.
pub const DEFAULT_POOL_CAPACITY: usize = 8;

/// Tuning knobs for [`Service::bind_with`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Snapshot the entailment cache to the default engine's configured
    /// [`cache_path`](sling::EngineBuilder::cache_path) on this period,
    /// so a crash loses at most one interval of memoized entailments.
    /// `None` (the default) snapshots only at graceful shutdown.
    pub snapshot_interval: Option<Duration>,
    /// Bound on concurrently served connections. A connection arriving
    /// past the bound is answered with one `busy` frame (carrying the
    /// active count and the bound) and closed instead of spawning a
    /// handler thread, so a connection flood cannot exhaust threads or
    /// file descriptors. `None` (the default) accepts without bound.
    pub max_connections: Option<usize>,
    /// Bound on uploaded-tenant engines held resident at once
    /// ([`DEFAULT_POOL_CAPACITY`] when `None`); past it the
    /// least-recently-used engine is evicted.
    pub pool_capacity: Option<usize>,
    /// Bound on one frame's length on the wire
    /// ([`MAX_FRAME_BYTES`](crate::proto::MAX_FRAME_BYTES) when
    /// `None`); a peer exceeding it gets a typed `error` frame and is
    /// disconnected.
    pub max_frame_bytes: Option<usize>,
}

/// Shared state between the acceptor, connection handlers, and the
/// snapshotter.
#[derive(Debug)]
struct Shared {
    pool: EnginePool,
    draining: AtomicBool,
    /// Periodic + shutdown snapshots taken so far (observable in tests
    /// and ops logs).
    snapshots: AtomicU64,
    /// Connections currently being served (admission control against
    /// `max_connections`).
    active: AtomicUsize,
    max_connections: Option<usize>,
    max_frame_bytes: usize,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// Decrements the active-connection count when a handler exits, however
/// it exits.
struct ConnectionGuard(Arc<Shared>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Shared {
    /// Persists the default engine's cache if it has a snapshot path;
    /// counts successes. (Pool-built tenants are ephemeral by design —
    /// their caches live and die with their residency.)
    fn snapshot(&self) -> io::Result<u64> {
        let Some(engine) = self.pool.default_engine() else {
            return Ok(0);
        };
        if engine.cache_path().is_none() {
            return Ok(0);
        }
        let written = engine.save_cache()?;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(written)
    }
}

/// A multi-threaded TCP analysis service over an [`EnginePool`].
///
/// Bound with [`Service::bind`] (one pre-warmed default engine) or
/// [`Service::bind_pool`] (a full pool, possibly with no default), the
/// service accepts connections on a local address and speaks the
/// newline-delimited frame protocol of [`crate::proto`]: each `analyze`
/// frame first resolves its tenant slot against the pool — the default
/// engine, or an uploaded program built on miss and reused on hit —
/// then fans out over that engine ([`Engine::analyze_all_with`]),
/// streaming every [`Report`] back the moment it completes and closing
/// the batch with a `done` frame that carries the batch's cache delta,
/// the batch's summed grade totals
/// ([`VerifyTotals`](crate::proto::VerifyTotals)), and the pool's
/// movement counters. Engines — and with them warm entailment caches —
/// are shared by every connection, so entailments established for one
/// client answer the next client's queries against the same tenant.
///
/// Shutdown is graceful: [`Service::shutdown`] stops accepting, lets
/// in-flight batches finish, disconnects idle clients, snapshots the
/// default engine's cache one last time, and returns the pool.
#[derive(Debug)]
pub struct Service {
    /// `Some` until [`Service::shutdown`] consumes it (`Option` so the
    /// engine can be moved out past the `Drop` impl).
    shared: Option<Arc<Shared>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
}

impl Service {
    /// Binds the service to `addr` (port 0 picks an ephemeral port —
    /// see [`Service::local_addr`]) with default options, serving
    /// `engine` as the default tenant.
    pub fn bind(engine: Engine, addr: impl ToSocketAddrs) -> io::Result<Service> {
        Service::bind_with(engine, addr, ServeOptions::default())
    }

    /// [`Service::bind`] with explicit [`ServeOptions`]. Uploaded
    /// tenants are built with the default-tenant engine's config and
    /// parallelism.
    pub fn bind_with(
        engine: Engine,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> io::Result<Service> {
        let settings = PoolSettings {
            config: *engine.config(),
            parallelism: Some(engine.parallelism()),
            cache_capacity: None,
            analysis: Some(sling::AnalysisSettings::default()),
        };
        let capacity = options.pool_capacity.unwrap_or(DEFAULT_POOL_CAPACITY);
        Service::bind_pool(
            EnginePool::new(Some(engine), capacity, settings),
            addr,
            options,
        )
    }

    /// Binds the service over an explicit [`EnginePool`] — the fully
    /// multi-tenant entry point, which needs no default engine at all
    /// (a batch without an upload is then answered with a typed
    /// `error`). `options.pool_capacity` is ignored here: the pool was
    /// built with its own capacity.
    pub fn bind_pool(
        pool: EnginePool,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            pool,
            draining: AtomicBool::new(false),
            snapshots: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            max_connections: options.max_connections,
            max_frame_bytes: options.max_frame_bytes.unwrap_or(MAX_FRAME_BYTES),
            handlers: Mutex::new(Vec::new()),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let snapshotter = options.snapshot_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || snapshot_loop(&shared, interval))
        });

        Ok(Service {
            shared: Some(shared),
            local_addr,
            acceptor: Some(acceptor),
            snapshotter,
        })
    }

    fn shared(&self) -> &Arc<Shared> {
        self.shared.as_ref().expect("service not yet shut down")
    }

    /// The address the service is accepting on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The default-tenant engine, when the service has one.
    pub fn engine(&self) -> Option<&Engine> {
        self.shared().pool.default_engine()
    }

    /// The engine pool serving every connection.
    pub fn pool(&self) -> &EnginePool {
        &self.shared().pool
    }

    /// Cache snapshots taken so far (periodic plus shutdown).
    pub fn snapshots_taken(&self) -> u64 {
        self.shared().snapshots.load(Ordering::Relaxed)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared().active.load(Ordering::SeqCst)
    }

    /// Gracefully drains the service: stop accepting, let in-flight
    /// batches finish streaming, disconnect idle clients, snapshot the
    /// default engine's cache one last time (when it has a
    /// [`cache_path`](sling::EngineBuilder::cache_path)), and return
    /// the engine pool — [`EnginePool::into_default`] recovers the
    /// default tenant for further in-process use.
    ///
    /// # Errors
    ///
    /// The final snapshot's I/O error, if it fails; the drain itself
    /// always completes.
    pub fn shutdown(mut self) -> io::Result<EnginePool> {
        self.begin_drain();
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor thread");
        }
        if let Some(snapshotter) = self.snapshotter.take() {
            snapshotter.join().expect("snapshotter thread");
        }
        let shared = self.shared.take().expect("service not yet shut down");
        loop {
            let Some(handler) = shared.handlers.lock().expect("handler list").pop() else {
                break;
            };
            handler.join().expect("connection handler");
        }
        let final_save = shared.snapshot();
        let shared = Arc::try_unwrap(shared).expect("all service threads joined");
        final_save?;
        Ok(shared.pool)
    }

    /// Flags the drain and wakes the blocked acceptor.
    fn begin_drain(&self) {
        if let Some(shared) = &self.shared {
            shared.draining.store(true, Ordering::SeqCst);
            // The acceptor blocks in `accept`; a throwaway connection
            // wakes it so it can observe the flag.
            TcpStream::connect(self.local_addr).ok();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Best-effort stop for a dropped (not shut down) service: flag
        // the drain so threads wind down; joining is `shutdown`'s job.
        if self.acceptor.is_some() {
            self.begin_drain();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept errors (fd exhaustion, EMFILE) come
                // back instantly; without a pause this loop would pin a
                // core and starve the handlers that could free fds.
                std::thread::sleep(DRAIN_POLL);
                continue;
            }
        };
        // Admission control: claim a slot before spawning, so the
        // active count can never race past the bound. A connection
        // over the bound is told so (one typed `busy` frame) and
        // closed — it never costs a handler thread.
        let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(max) = shared.max_connections {
            if active > max {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                send_busy(stream, (active - 1) as u64, max as u64);
                continue;
            }
        }
        let guard = ConnectionGuard(Arc::clone(shared));
        let handler_shared = Arc::clone(shared);
        let handler = std::thread::spawn(move || {
            let _guard = guard;
            handle_connection(stream, &handler_shared);
        });
        let mut handlers = shared.handlers.lock().expect("handler list");
        // Reap finished connections so a long-lived service does not
        // accumulate one JoinHandle per connection it ever served.
        handlers.retain(|h| !h.is_finished());
        handlers.push(handler);
    }
}

/// Best-effort `busy` notice to a connection turned away at the bound.
fn send_busy(mut stream: TcpStream, active: u64, max: u64) {
    let mut line = ServerFrame::Busy { active, max }.encode();
    line.push('\n');
    stream.write_all(line.as_bytes()).ok();
}

fn snapshot_loop(shared: &Shared, interval: Duration) {
    let mut since_last = Duration::ZERO;
    loop {
        std::thread::sleep(DRAIN_POLL.min(interval));
        if shared.draining.load(Ordering::SeqCst) {
            break; // shutdown takes the final snapshot
        }
        since_last += DRAIN_POLL.min(interval);
        if since_last >= interval {
            since_last = Duration::ZERO;
            if let Err(e) = shared.snapshot() {
                eprintln!("sling-serve: periodic cache snapshot failed: {e}");
            }
        }
    }
}

/// The per-connection server loop: banner, then frame-by-frame service
/// until the client hangs up or the drain begins.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    stream.set_nodelay(true).ok();
    // Reads wake periodically so an idle connection notices the drain.
    stream.set_read_timeout(Some(DRAIN_POLL)).ok();
    let writer = Mutex::new(match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    });
    let hello = ServerFrame::Hello {
        warm_entries: shared
            .pool
            .default_engine()
            .map_or(0, |engine| engine.warm_entries()),
        parallelism: shared.pool.parallelism() as u64,
        pool: shared.pool.stats(),
    };
    if send(&writer, &hello).is_err() {
        return;
    }

    let mut reader = stream;
    let mut frames = FrameBuffer::with_limit(shared.max_frame_bytes);
    loop {
        while let Some(line) = frames.pop_line() {
            if !serve_frame(&line, shared, &writer) {
                return;
            }
        }
        if shared.draining.load(Ordering::SeqCst) {
            return; // between frames: in-flight work already finished
        }
        match frames.fill(&mut reader) {
            Ok(true) => {}
            Ok(false) => return, // clean EOF
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                // A peer past the frame cap learns why before the drop;
                // anything else (reset, broken pipe) just disconnects.
                if let Some(too_large) = e
                    .get_ref()
                    .and_then(|inner| inner.downcast_ref::<FrameTooLarge>())
                {
                    send_error(&writer, 0, &too_large.to_string());
                    drain_peer(&mut reader);
                }
                return;
            }
        }
    }
}

/// Consumes what a rejected peer already sent before the socket drops,
/// so the close delivers FIN rather than RST — a reset can destroy the
/// in-flight error frame before the peer reads it. Bounded in both
/// bytes and idle time: a peer that streams past the grace window is
/// dropped mid-stream anyway.
fn drain_peer(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let mut budget = 1usize << 20;
    let mut idle = 0u32;
    while budget > 0 && idle < 5 {
        match io::Read::read(stream, &mut scratch) {
            Ok(0) => return,
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle += 1;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Serves one decoded frame; `false` ends the connection.
fn serve_frame(line: &str, shared: &Shared, writer: &Mutex<TcpStream>) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    match ClientFrame::decode(line) {
        Ok(ClientFrame::Ping) => send(writer, &ServerFrame::Pong).is_ok(),
        Ok(ClientFrame::Analyze {
            id,
            upload,
            requests,
        }) => {
            // Resolve the tenant first: a missing default or a build
            // failure fails this batch and leaves the connection — and
            // the pool — healthy for the next frame. Static-diagnostics
            // rejections carry their structured findings in a typed
            // `rejected` frame; everything else (parse, typecheck) is a
            // plain `error` frame.
            let engine = match shared.pool.resolve(upload.as_ref()) {
                Ok(engine) => engine,
                Err(crate::pool::PoolError::Build(sling::BuildError::Rejected(diagnostics))) => {
                    return send(writer, &ServerFrame::Rejected { id, diagnostics }).is_ok();
                }
                Err(e) => return send_error(writer, id, &e.to_string()),
            };
            // Stream each report the moment its request completes; the
            // sink runs on the engine's worker threads, so the write
            // end is mutex-shared and failures flip a flag instead of
            // unwinding across the pool.
            let broken = AtomicBool::new(false);
            let sink = |index: usize, report: &Report| {
                // Encoded straight from the borrow: cloning a Report
                // (residue heaps and all) per streamed frame would be
                // pure overhead on the worker threads.
                let line = crate::proto::encode_report_frame(id, index as u64, report);
                if send_line(writer, line).is_err() {
                    broken.store(true, Ordering::Relaxed);
                }
            };
            match engine.analyze_all_with(&requests, &sink) {
                Ok(batch) => {
                    let done = ServerFrame::Done {
                        id,
                        count: batch.reports.len() as u64,
                        verify: crate::proto::VerifyTotals::from_reports(&batch.reports),
                        cache: batch.cache,
                        pool: shared.pool.stats(),
                    };
                    !broken.load(Ordering::Relaxed) && send(writer, &done).is_ok()
                }
                Err(e) => send_error(writer, id, &e.to_string()),
            }
        }
        Err(e) => send_error(writer, ClientFrame::salvage_id(line), &e.to_string()),
    }
}

fn send(writer: &Mutex<TcpStream>, frame: &ServerFrame) -> io::Result<()> {
    send_line(writer, frame.encode())
}

fn send_line(writer: &Mutex<TcpStream>, mut line: String) -> io::Result<()> {
    line.push('\n');
    let mut guard = writer.lock().expect("connection writer");
    guard.write_all(line.as_bytes())
}

/// Reports a failure to the client; the connection stays usable (a bad
/// frame must not take down a long-lived client session).
fn send_error(writer: &Mutex<TcpStream>, id: u64, message: &str) -> bool {
    send(
        writer,
        &ServerFrame::Error {
            id,
            message: message.to_string(),
        },
    )
    .is_ok()
}

/// Outcome of folding a snapshot directory into an engine with
/// [`absorb_snapshot_dir`].
#[derive(Debug, Default)]
pub struct DirMerge {
    /// Entries merged into the live cache across every readable
    /// snapshot.
    pub merged: u64,
    /// Snapshot files visited (readable or not).
    pub files: u64,
    /// Snapshots that could not be folded (corrupt, wrong version,
    /// different type environment), with the reason. A skipped sibling
    /// is a warning, never a boot failure.
    pub skipped: Vec<(std::path::PathBuf, sling::PersistError)>,
}

/// Folds every `*.snap` file under `dir` into `engine`'s live cache
/// via [`sling::Engine::absorb_snapshot`], skipping `own` (the
/// engine's configured snapshot path, already loaded at build) and
/// collecting — not propagating — per-file failures: a corrupt sibling
/// must not take down a boot that has a perfectly good engine.
///
/// This is what `sling-serve --cache DIR` runs at boot and again on
/// every snapshot tick, so a fleet of daemons writing `<name>.snap`
/// files into one directory warm each other up, live; it is exposed
/// for in-process services that want the same. A re-fold of a sibling
/// with nothing new merges 0 entries (see [`sling::persist::merge`]),
/// so a caller folding on a timer can report only what changed.
pub fn absorb_snapshot_dir(
    engine: &Engine,
    dir: &std::path::Path,
    own: Option<&std::path::Path>,
) -> io::Result<DirMerge> {
    let mut outcome = DirMerge::default();
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .filter(|path| own.is_none_or(|own| path != own))
        .collect();
    paths.sort(); // deterministic fold order for reproducible boots
    for path in paths {
        outcome.files += 1;
        match engine.absorb_snapshot(&path) {
            Ok(stats) => outcome.merged += stats.merged,
            Err(e) => outcome.skipped.push((path, e)),
        }
    }
    Ok(outcome)
}
