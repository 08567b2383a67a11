//! The shared entailment-cache server (`sling-serve --cache-server`).
//!
//! One process holds the fleet's memo table: engines built with
//! [`sling::EngineBuilder::remote_cache`] consult it on every local
//! cache miss (`get`), upload fresh verdicts write-behind (`put`), and
//! periodically pull what sibling engines computed (`sync`). The wire
//! productions — and the write-through client — live in
//! [`sling::remote`]; this module is the store and the accept loop.
//!
//! # Store semantics
//!
//! Entries are namespaced by the *type-environment* fingerprint
//! ([`sling::EnvProfile::types_tag`]) and keyed by `(node_budget,
//! fuel_slack, canonical text)` within a namespace — the same scope key
//! the engines' local shards use. Each entry carries its per-predicate
//! `(name, fingerprint)` pairs verbatim; the server never interprets
//! them (validation is the *client's* job, exactly as when loading a
//! persisted snapshot), so engines with partially divergent predicate
//! libraries can share one namespace safely.
//!
//! Arrivals are stamped with [`sling::persist::generation_stamp`] — the
//! same strictly monotonic clock snapshot saves use — so `sync since`
//! has a total order to page through and newest-generation-wins merge
//! behaves identically whether an entry arrived over the wire or from a
//! snapshot file. A `put` for an existing key simply restamps it: the
//! fleet's latest computation wins everywhere.
//!
//! The server is deliberately dumb: no persistence (engines already
//! snapshot locally), no validation, no eviction beyond a per-namespace
//! entry cap. Losing it costs the fleet warm starts, never correctness
//! — clients degrade to local-only analysis and reconnect with backoff.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sling::persist::generation_stamp;
use sling::remote::{CacheRequest, CacheResponse};
use sling::RemoteEntry;

use crate::proto::{FrameBuffer, FrameTooLarge, MAX_FRAME_BYTES};

/// How often blocked reads wake up to notice a shutdown in progress.
const DRAIN_POLL: Duration = Duration::from_millis(100);

/// Bound on entries per namespace: past it, `put`s for *new* keys are
/// dropped (restamps of resident keys still land). A cache tier under
/// memory pressure serving slightly fewer hits beats one that OOMs the
/// whole fleet's accelerator.
pub const NAMESPACE_CAP: usize = 1 << 20;

/// Bound on entries per `sync` answer; a client further behind pages
/// through in consecutive rounds (the returned watermark only advances
/// past what was actually sent).
const SYNC_BATCH: usize = 4096;

/// One stored verdict (the key lives in the map).
#[derive(Debug)]
struct Stored {
    value: Option<Vec<u8>>,
    preds: Vec<(String, u64)>,
    generation: u64,
}

/// All entries sharing one type-environment fingerprint.
#[derive(Debug, Default)]
struct Namespace {
    entries: HashMap<(u64, u32, String), Stored>,
    /// Highest generation ever stamped in this namespace (monotone even
    /// across overwrites, so `sync` watermarks never regress).
    watermark: u64,
}

/// Observable counters of a [`CacheServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheServerStats {
    /// `get` requests served.
    pub gets: u64,
    /// `get` requests answered with a hit.
    pub hits: u64,
    /// Entries accepted from `put` batches.
    pub puts: u64,
    /// `sync` requests served.
    pub syncs: u64,
    /// Entries dropped at the namespace cap.
    pub dropped: u64,
    /// Entries resident right now, across all namespaces.
    pub entries: u64,
}

#[derive(Debug)]
struct CacheShared {
    namespaces: Mutex<HashMap<u64, Namespace>>,
    entries: AtomicU64,
    draining: AtomicBool,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    gets: AtomicU64,
    hits: AtomicU64,
    puts: AtomicU64,
    syncs: AtomicU64,
    dropped: AtomicU64,
}

impl CacheShared {
    /// Serves one decoded request; `None` means no reply frame (`put`
    /// is fire-and-forget).
    fn serve(&self, request: CacheRequest) -> Option<CacheResponse> {
        match request {
            CacheRequest::Get {
                types_tag,
                node_budget,
                fuel_slack,
                text,
            } => {
                self.gets.fetch_add(1, Ordering::Relaxed);
                let namespaces = self.namespaces.lock().expect("cache store");
                let found = namespaces
                    .get(&types_tag)
                    .and_then(|ns| ns.entries.get_key_value(&(node_budget, fuel_slack, text)));
                match found {
                    Some((key, stored)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Some(CacheResponse::Hit(RemoteEntry {
                            node_budget: key.0,
                            fuel_slack: key.1,
                            text: key.2.clone(),
                            value: stored.value.clone(),
                            preds: stored.preds.clone(),
                            generation: stored.generation,
                        }))
                    }
                    None => Some(CacheResponse::Miss),
                }
            }
            CacheRequest::Put { types_tag, entries } => {
                let mut namespaces = self.namespaces.lock().expect("cache store");
                let ns = namespaces.entry(types_tag).or_default();
                for entry in entries {
                    let key = (entry.node_budget, entry.fuel_slack, entry.text);
                    if !ns.entries.contains_key(&key) {
                        if ns.entries.len() >= NAMESPACE_CAP {
                            self.dropped.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        self.entries.fetch_add(1, Ordering::Relaxed);
                    }
                    // Stamp the arrival: strictly newer than anything
                    // stored, so newest-generation-wins merges on the
                    // clients resolve toward the fleet's latest.
                    let generation = generation_stamp(ns.watermark);
                    ns.watermark = generation;
                    ns.entries.insert(
                        key,
                        Stored {
                            value: entry.value,
                            preds: entry.preds,
                            generation,
                        },
                    );
                    self.puts.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
            CacheRequest::Sync { types_tag, since } => {
                self.syncs.fetch_add(1, Ordering::Relaxed);
                let namespaces = self.namespaces.lock().expect("cache store");
                let Some(ns) = namespaces.get(&types_tag) else {
                    return Some(CacheResponse::Entries {
                        watermark: since,
                        entries: Vec::new(),
                    });
                };
                let mut fresh: Vec<RemoteEntry> = ns
                    .entries
                    .iter()
                    .filter(|(_, stored)| stored.generation > since)
                    .map(|(key, stored)| RemoteEntry {
                        node_budget: key.0,
                        fuel_slack: key.1,
                        text: key.2.clone(),
                        value: stored.value.clone(),
                        preds: stored.preds.clone(),
                        generation: stored.generation,
                    })
                    .collect();
                fresh.sort_by_key(|entry| entry.generation);
                // Page oversized backlogs: advance the watermark only
                // past what this answer actually carries, so the next
                // round resumes exactly where this one stopped.
                let watermark = if fresh.len() > SYNC_BATCH {
                    fresh.truncate(SYNC_BATCH);
                    fresh.last().map_or(since, |entry| entry.generation)
                } else {
                    ns.watermark.max(since)
                };
                Some(CacheResponse::Entries {
                    watermark,
                    entries: fresh,
                })
            }
        }
    }

    fn stats(&self) -> CacheServerStats {
        CacheServerStats {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

/// The standalone entailment-cache tier: binds a listener and serves
/// `get`/`put`/`sync` until [`CacheServer::shutdown`] (or drop). See
/// the module docs for store semantics.
#[derive(Debug)]
pub struct CacheServer {
    shared: Arc<CacheShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl CacheServer {
    /// Binds the cache server to `addr` (port 0 picks an ephemeral
    /// port — see [`CacheServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<CacheServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(CacheShared {
            namespaces: Mutex::new(HashMap::new()),
            entries: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(CacheServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The address the server is accepting on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Observable counters.
    pub fn stats(&self) -> CacheServerStats {
        self.shared.stats()
    }

    /// Stops the server: closes the listener (freeing the port for a
    /// restart), disconnects every client mid-whatever, and joins the
    /// handler threads. Clients see a dead socket and degrade — that is
    /// the contract the fault-injection tests exercise.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// The consuming-shutdown body, shared with `Drop`. Idempotent.
    fn stop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway connection wakes
        // it so it can observe the flag and drop the listener.
        TcpStream::connect(self.local_addr).ok();
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
        loop {
            let Some(handler) = self.shared.handlers.lock().expect("handler list").pop() else {
                break;
            };
            handler.join().ok();
        }
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<CacheShared>) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break; // the listener drops with this frame: port freed
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(_) => {
                std::thread::sleep(DRAIN_POLL);
                continue;
            }
        };
        let handler_shared = Arc::clone(shared);
        let handler = std::thread::spawn(move || handle_connection(stream, &handler_shared));
        let mut handlers = shared.handlers.lock().expect("handler list");
        handlers.retain(|h| !h.is_finished());
        handlers.push(handler);
    }
}

/// The per-connection loop: banner, then request/reply frames until
/// the client hangs up or the shutdown begins.
fn handle_connection(mut stream: TcpStream, shared: &CacheShared) {
    stream.set_nodelay(true).ok();
    // Reads wake periodically so an idle connection notices shutdown.
    stream.set_read_timeout(Some(DRAIN_POLL)).ok();
    let banner = CacheResponse::Hello {
        entries: shared.entries.load(Ordering::Relaxed),
    };
    if send(&mut stream, banner).is_err() {
        return;
    }
    let mut frames = FrameBuffer::with_limit(MAX_FRAME_BYTES);
    loop {
        while let Some(line) = frames.pop_line() {
            if line.trim().is_empty() {
                continue;
            }
            let reply = match CacheRequest::decode(&line) {
                Ok(request) => shared.serve(request),
                Err(e) => Some(CacheResponse::Error {
                    message: e.to_string(),
                }),
            };
            if let Some(reply) = reply {
                if send(&mut stream, reply).is_err() {
                    return;
                }
            }
        }
        if shared.draining.load(Ordering::SeqCst) {
            return; // mid-shutdown: drop the client, it knows how to degrade
        }
        match frames.fill(&mut stream) {
            Ok(true) => {}
            Ok(false) => return, // clean EOF
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                if e.get_ref().is_some_and(|inner| inner.is::<FrameTooLarge>()) {
                    send(
                        &mut stream,
                        CacheResponse::Error {
                            message: e.to_string(),
                        },
                    )
                    .ok();
                }
                return;
            }
        }
    }
}

fn send(stream: &mut TcpStream, response: CacheResponse) -> io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A bare test client speaking the cache productions directly.
    struct Probe {
        reader: BufReader<TcpStream>,
    }

    impl Probe {
        fn connect(addr: SocketAddr) -> Probe {
            let stream = TcpStream::connect(addr).expect("connect probe");
            let mut probe = Probe {
                reader: BufReader::new(stream),
            };
            assert!(matches!(probe.read(), CacheResponse::Hello { .. }));
            probe
        }

        fn send(&mut self, request: &CacheRequest) {
            let mut line = request.encode();
            line.push('\n');
            self.reader
                .get_ref()
                .write_all(line.as_bytes())
                .expect("probe write");
        }

        fn read(&mut self) -> CacheResponse {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("probe read");
            CacheResponse::decode(line.trim_end()).expect("probe decode")
        }

        fn round_trip(&mut self, request: &CacheRequest) -> CacheResponse {
            self.send(request);
            self.read()
        }
    }

    fn entry(text: &str, residual: &[u8]) -> RemoteEntry {
        RemoteEntry {
            node_budget: 1000,
            fuel_slack: 8,
            text: text.to_string(),
            value: Some(residual.to_vec()),
            preds: vec![("p".into(), 77)],
            generation: 0,
        }
    }

    #[test]
    fn get_put_sync_round_trip_with_stamped_generations() {
        let server = CacheServer::bind("127.0.0.1:0").expect("bind");
        let mut probe = Probe::connect(server.local_addr());

        let miss = probe.round_trip(&CacheRequest::Get {
            types_tag: 5,
            node_budget: 1000,
            fuel_slack: 8,
            text: "q1".into(),
        });
        assert_eq!(miss, CacheResponse::Miss);

        probe.send(&CacheRequest::Put {
            types_tag: 5,
            entries: vec![entry("q1", &[1]), entry("q2", &[2])],
        });
        // `put` has no reply; the next `get` observes it (same
        // connection, so ordering is the socket's).
        let hit = probe.round_trip(&CacheRequest::Get {
            types_tag: 5,
            node_budget: 1000,
            fuel_slack: 8,
            text: "q1".into(),
        });
        let CacheResponse::Hit(got) = hit else {
            panic!("expected a hit, got {hit:?}");
        };
        assert_eq!(got.value.as_deref(), Some(&[1][..]));
        assert_eq!(got.preds, vec![("p".to_string(), 77)]);
        assert!(got.generation > 0, "arrivals are stamped");

        // Namespaces are disjoint: the same key under another types_tag
        // misses.
        assert_eq!(
            probe.round_trip(&CacheRequest::Get {
                types_tag: 6,
                node_budget: 1000,
                fuel_slack: 8,
                text: "q1".into(),
            }),
            CacheResponse::Miss
        );

        // Sync from zero sees both entries in generation order; syncing
        // again from the returned watermark sees nothing new.
        let CacheResponse::Entries { watermark, entries } = probe.round_trip(&CacheRequest::Sync {
            types_tag: 5,
            since: 0,
        }) else {
            panic!("expected entries");
        };
        assert_eq!(entries.len(), 2);
        assert!(entries[0].generation < entries[1].generation);
        assert_eq!(watermark, entries[1].generation);
        let CacheResponse::Entries { entries: rest, .. } = probe.round_trip(&CacheRequest::Sync {
            types_tag: 5,
            since: watermark,
        }) else {
            panic!("expected entries");
        };
        assert!(rest.is_empty(), "nothing newer than the watermark");

        let stats = server.stats();
        assert_eq!((stats.gets, stats.hits), (3, 1));
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.entries, 2);
        server.shutdown();
    }

    #[test]
    fn malformed_and_old_version_frames_get_typed_errors() {
        let server = CacheServer::bind("127.0.0.1:0").expect("bind");
        let mut probe = Probe::connect(server.local_addr());
        for line in ["sling6 get 1 2 3 \"q\"", "sling8 nonsense", "not a frame"] {
            let mut framed = line.to_string();
            framed.push('\n');
            probe
                .reader
                .get_ref()
                .write_all(framed.as_bytes())
                .expect("probe write");
            assert!(
                matches!(probe.read(), CacheResponse::Error { .. }),
                "{line:?} must answer a typed error"
            );
        }
        // The connection survives garbage: a well-formed get still works.
        assert_eq!(
            probe.round_trip(&CacheRequest::Get {
                types_tag: 1,
                node_budget: 1,
                fuel_slack: 1,
                text: "q".into(),
            }),
            CacheResponse::Miss
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_frees_the_port_for_a_restart() {
        let server = CacheServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        // Rebinding the same port must succeed once shutdown returns.
        let revived = CacheServer::bind(addr).expect("rebind after shutdown");
        let mut probe = Probe::connect(revived.local_addr());
        assert_eq!(
            probe.round_trip(&CacheRequest::Sync {
                types_tag: 9,
                since: 0,
            }),
            CacheResponse::Entries {
                watermark: 0,
                entries: Vec::new(),
            }
        );
        revived.shutdown();
    }
}
