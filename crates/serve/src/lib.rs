//! # sling-serve — the SLING analysis service
//!
//! Scale-out beyond one process: a multi-threaded TCP service over a
//! capacity-bounded pool of long-lived [`Engine`](sling::Engine)s —
//! analysis as a service. A batch either targets the pre-warmed
//! *default tenant* (the program the daemon booted with, its entailment
//! cache warm-loaded from a snapshot) or *uploads* its own program and
//! predicate library on the wire; the pool builds uploaded tenants on
//! first sight, reuses them on every identical upload after, and
//! evicts least-recently-used past its cap. Every connection shares
//! the pool, so setup cost (and every memoized entailment) is
//! amortized across all clients of the same tenant, and the default
//! tenant's cache is snapshotted back to disk on an interval and at
//! graceful shutdown.
//!
//! Four layers:
//!
//! * [`proto`] — the frame grammar: `analyze` requests (optionally
//!   carrying a [`ProgramUpload`]) in, streamed `report` frames plus a
//!   `done` epilogue (with [`PoolStats`]) out, all built on the
//!   hand-rolled [`sling::wire`] codec (no serde; the build is
//!   offline).
//! * [`EnginePool`] — the tenancy layer: fingerprint-keyed LRU of
//!   built engines, one build per distinct upload, typed build
//!   failures that never poison a slot.
//! * [`Service`] — the server: binds a listener, fans connections out
//!   over handler threads, resolves each batch's tenant, answers it
//!   through
//!   [`Engine::analyze_all_with`](sling::Engine::analyze_all_with) so
//!   reports stream in completion order, drains gracefully.
//! * [`Client`] — the blocking helper: connect, read the warm-boot
//!   banner, [`Client::analyze_all`] /
//!   [`Client::analyze_all_uploaded`] as the wire mirrors of the
//!   in-process batch API.
//!
//! Daemons share memoized entailments through one on-disk format: a
//! snapshot directory. Each daemon saves its own `serve-<pid>.snap`
//! there and folds its siblings' snapshots in with
//! [`absorb_snapshot_dir`] — at boot and again on every snapshot tick —
//! so a running daemon picks up a sibling's verdicts within one
//! interval.
//!
//! The `sling-serve` binary wraps [`Service`] for standalone use; the
//! `serve_corpus` example in `examples/` replays the list-corpus
//! fixture through a live socket and diffs the result against the
//! in-process engine, and `multi_tenant` drives two uploaded tenants
//! through one daemon concurrently.
//!
//! # Example
//!
//! ```
//! use sling::{Engine, AnalysisRequest, InputSpec, ListLayout, ValueSpec};
//! use sling_serve::{Client, Service};
//! use sling_logic::Symbol;
//!
//! let engine = Engine::builder()
//!     .program_source(
//!         "struct SrvNode { next: SrvNode*; }
//!          fn walk(x: SrvNode*) -> SrvNode* {
//!              var c: SrvNode* = x;
//!              while @w (c != null) { c = c->next; }
//!              return x;
//!          }",
//!     )?
//!     .predicates_source(
//!         "pred srvlist(x: SrvNode*) := emp & x == nil
//!            | exists u. x -> SrvNode{next: u} * srvlist(u);",
//!     )?
//!     .build()?;
//!
//! // Port 0: the OS picks a free loopback port.
//! let service = Service::bind(engine, "127.0.0.1:0")?;
//! let mut client = Client::connect(service.local_addr())?;
//!
//! let layout = ListLayout {
//!     ty: Symbol::intern("SrvNode"), nfields: 1, next: 0, prev: None, data: None,
//! };
//! let request = AnalysisRequest::new("walk")
//!     .input(InputSpec::seeded(5).arg(ValueSpec::sll(layout, 3)));
//! let batch = client.analyze_all(std::slice::from_ref(&request))?;
//! assert!(batch.reports[0].invariant_count() > 0);
//!
//! // Graceful drain; the pool comes back, and with it the engine.
//! let engine = service.shutdown()?.into_default().expect("no handler holds it");
//! assert!(engine.cache_stats().lookups() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod backoff;
mod client;
mod pool;
pub mod proto;
mod service;

pub use client::{Client, ServeError};
pub use pool::{fingerprint, EnginePool, PoolError, PoolSettings};
pub use proto::{PoolStats, ProgramUpload, VerifyTotals};
pub use service::{absorb_snapshot_dir, DirMerge, ServeOptions, Service, DEFAULT_POOL_CAPACITY};
