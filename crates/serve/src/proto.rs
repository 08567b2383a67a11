//! The frame layer of the serve protocol.
//!
//! Both ends exchange newline-delimited frames built from the
//! [`sling::wire`] codec. Client-to-server frames carry work; server-to-
//! client frames stream results:
//!
//! ```text
//! client → server   sling9 analyze <id:u64> tenant <n:u64> request*
//! client → server   sling9 ping
//! server → client   sling9 hello <warm_entries:u64> <parallelism:u64> poolstats ; on connect
//! server → client   sling9 busy <active:u64> <max:u64>                  ; on connect, saturated
//! server → client   sling9 pong
//! server → client   sling9 report <id:u64> <index:u64> report           ; completion order
//! server → client   sling9 done <id:u64> <nreports:u64> cachestats verifytotals poolstats
//! server → client   sling9 rejected <id:u64> <n:u64> diagnostic*        ; upload failed the gate
//! server → client   sling9 error <id:u64> <message:string>              ; id 0 = unattributable
//!
//! tenant       := "-"                                  ; the daemon's default engine
//!               | "upload" program:string predicates:string
//! poolstats    := hits:u64 misses:u64 evictions:u64 resident:u64 cap:u64
//! verifytotals := verified:u64 refuted:u64 confirmed:u64 unknown:u64
//!                 refuted0:u64 cegir:u64 vseconds:f64
//! ```
//!
//! (`diagnostic` is the [`sling::wire`] production carrying one static
//! finding: code, severity, function, span, message, notes.)
//!
//! `id` is a client-chosen correlation number echoed on every frame of
//! the batch's response, so one connection can distinguish interleaved
//! responses. Reports stream in *completion* order; the `index` token is
//! the request's position in the batch, which is how the client
//! reassembles request order.
//!
//! The `tenant` slot is what makes the daemon multi-tenant: an `upload`
//! carries MiniC program and predicate-library source, and the server
//! resolves it against its engine pool — building on miss, reusing on
//! hit — before running the batch. Every upload passes the static
//! diagnostics gate before pooling: a program with deny-level findings
//! (use-before-init, unreachable snapshot locations, definite-null
//! dereferences, unproductive predicate cycles) is answered with a
//! typed `rejected` frame carrying the structured findings. Other build
//! failures (parse, typecheck) get a plain `error` frame. Either way
//! the connection stays healthy. `poolstats` on `hello` and `done` make
//! the pool's behaviour (hits, misses, LRU evictions, residency against
//! the cap) observable on the wire.

use std::io::{self, Read};

use sling::wire::{self, WireError, WireReader, WireWriter};
use sling::{AnalysisRequest, CacheStats, Diagnostics, Report};

/// Verification-grade totals for a whole batch, summed over every
/// report's [`RunMetrics`](sling::RunMetrics) and carried on the `done`
/// epilogue so a client sees the grading outcome — and what the
/// counterexample-guided refinement loop did — without walking the
/// individual reports. All-zero when the serving engine runs without
/// the verification post-pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VerifyTotals {
    /// Invariants graded `Verified` across the batch.
    pub verified: u64,
    /// Invariants still graded `Refuted` after the final refinement
    /// round.
    pub refuted: u64,
    /// Invariants re-graded `Confirmed` (a refutation witness survived
    /// re-inference) across the batch.
    pub confirmed: u64,
    /// Invariants the prover could not decide within its budget.
    pub unknown: u64,
    /// Refutations before any refinement ran.
    pub refuted_initial: u64,
    /// Counterexample-guided refinement rounds, summed over the batch.
    pub cegir_rounds: u64,
    /// Wall-clock seconds spent grading, summed over the batch.
    pub verify_seconds: f64,
}

impl VerifyTotals {
    /// Sums the verification metrics of every report in a batch.
    pub fn from_reports(reports: &[Report]) -> VerifyTotals {
        let mut totals = VerifyTotals::default();
        for report in reports {
            let m = &report.metrics;
            totals.verified += m.verified as u64;
            totals.refuted += m.refuted as u64;
            totals.confirmed += m.confirmed as u64;
            totals.unknown += m.unknown as u64;
            totals.refuted_initial += m.refuted_initial as u64;
            totals.cegir_rounds += m.cegir_rounds as u64;
            totals.verify_seconds += m.verify_seconds;
        }
        totals
    }

    fn write(&self, w: &mut WireWriter) {
        w.u64(self.verified);
        w.u64(self.refuted);
        w.u64(self.confirmed);
        w.u64(self.unknown);
        w.u64(self.refuted_initial);
        w.u64(self.cegir_rounds);
        w.f64(self.verify_seconds);
    }

    fn read(r: &mut WireReader<'_>) -> Result<VerifyTotals, WireError> {
        Ok(VerifyTotals {
            verified: r.u64()?,
            refuted: r.u64()?,
            confirmed: r.u64()?,
            unknown: r.u64()?,
            refuted_initial: r.u64()?,
            cegir_rounds: r.u64()?,
            verify_seconds: r.f64()?,
        })
    }
}

/// Program + predicate-library source a batch uploads, selecting (or
/// building) the pool engine that serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramUpload {
    /// MiniC program source.
    pub program: String,
    /// Inductive predicate definitions.
    pub predicates: String,
}

impl ProgramUpload {
    fn write(&self, w: &mut WireWriter) {
        w.atom("upload");
        w.text(&self.program);
        w.text(&self.predicates);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Option<ProgramUpload>, WireError> {
        match r.atom()? {
            "-" => Ok(None),
            "upload" => Ok(Some(ProgramUpload {
                program: r.text()?,
                predicates: r.text()?,
            })),
            other => Err(WireError::Syntax(format!("bad tenant tag `{other}`"))),
        }
    }
}

/// Engine-pool movement counters, carried on `hello` (lifetime so far)
/// and `done` (lifetime through this batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches served by an already-built engine.
    pub hits: u64,
    /// Batches that had to build their engine first.
    pub misses: u64,
    /// Engines evicted least-recently-used to stay under the cap.
    pub evictions: u64,
    /// Engines currently resident (excluding the default tenant).
    pub resident: u64,
    /// The pool's capacity bound.
    pub capacity: u64,
}

impl PoolStats {
    fn write(&self, w: &mut WireWriter) {
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.evictions);
        w.u64(self.resident);
        w.u64(self.capacity);
    }

    fn read(r: &mut WireReader<'_>) -> Result<PoolStats, WireError> {
        Ok(PoolStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            resident: r.u64()?,
            capacity: r.u64()?,
        })
    }
}

/// A frame the client sends.
#[derive(Debug)]
pub enum ClientFrame {
    /// Run a batch of requests; stream a `report` frame per request and
    /// a final `done` frame, all echoing `id`.
    Analyze {
        /// Client-chosen correlation id echoed on every response frame.
        id: u64,
        /// Uploaded program + predicates this batch runs against, or
        /// `None` for the daemon's default engine.
        upload: Option<ProgramUpload>,
        /// The batch, in request order.
        requests: Vec<AnalysisRequest>,
    },
    /// Liveness probe; answered with `pong`.
    Ping,
}

impl ClientFrame {
    /// Encodes the frame as one line (no trailing newline).
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] when a request carries a custom input
    /// closure.
    pub fn encode(&self) -> Result<String, WireError> {
        match self {
            ClientFrame::Analyze {
                id,
                upload,
                requests,
            } => encode_analyze_frame(*id, upload.as_ref(), requests),
            ClientFrame::Ping => Ok(WireWriter::frame("ping").finish()),
        }
    }

    /// Decodes one client line.
    pub fn decode(line: &str) -> Result<ClientFrame, WireError> {
        let (kind, mut r) = WireReader::frame(line)?;
        match kind {
            "analyze" => {
                let id = r.u64()?;
                let upload = ProgramUpload::read(&mut r)?;
                let count = r.usize()?;
                let mut requests = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    requests.push(wire::read_request(&mut r)?);
                }
                r.finish()?;
                Ok(ClientFrame::Analyze {
                    id,
                    upload,
                    requests,
                })
            }
            "ping" => {
                r.finish()?;
                Ok(ClientFrame::Ping)
            }
            other => Err(WireError::Syntax(format!(
                "unknown client frame kind `{other}`"
            ))),
        }
    }

    /// Best-effort correlation id of a line that failed to decode, so
    /// the server can attribute its `error` frame (0 when the id itself
    /// is unreadable).
    pub fn salvage_id(line: &str) -> u64 {
        WireReader::frame(line)
            .ok()
            .and_then(|(kind, mut r)| (kind == "analyze").then(|| r.u64().ok()).flatten())
            .unwrap_or(0)
    }
}

/// A frame the server sends.
#[derive(Debug)]
pub enum ServerFrame {
    /// Connection banner: the engine's warm-restored entry count,
    /// worker budget, and the engine pool's lifetime counters.
    Hello {
        /// Entries the serving engine restored from its cache snapshot
        /// (0 when the daemon boots without a default tenant).
        warm_entries: u64,
        /// The serving engine's worker budget.
        parallelism: u64,
        /// Engine-pool counters at connect time.
        pool: PoolStats,
    },
    /// Sent instead of `hello` when the service is at its
    /// [`max_connections`](crate::ServeOptions::max_connections) bound;
    /// the connection closes right after. Clients retry
    /// ([`Client::connect_retry`](crate::Client::connect_retry)) or
    /// surface [`ServeError::Busy`](crate::ServeError::Busy).
    Busy {
        /// Connections the service is currently handling.
        active: u64,
        /// The configured connection bound.
        max: u64,
    },
    /// Answer to `ping`.
    Pong,
    /// One completed report of batch `id` (streamed, completion order).
    Report {
        /// Correlation id of the batch.
        id: u64,
        /// The request's position in the batch.
        index: u64,
        /// The completed report.
        report: Report,
    },
    /// Batch `id` finished; `count` reports were streamed.
    Done {
        /// Correlation id of the batch.
        id: u64,
        /// Number of `report` frames that preceded this.
        count: u64,
        /// Checker-cache movement across the whole batch.
        cache: CacheStats,
        /// Verification-grade totals across the whole batch (all zero
        /// when the serving engine runs without the post-pass).
        verify: VerifyTotals,
        /// Engine-pool counters through this batch.
        pool: PoolStats,
    },
    /// Batch `id`'s upload failed the static diagnostics gate: the
    /// program carries deny-level findings and no engine was pooled for
    /// it. The structured findings travel typed, so clients can act on
    /// codes and spans instead of parsing prose.
    Rejected {
        /// Correlation id of the batch.
        id: u64,
        /// The findings (deny-level and any accompanying warnings).
        diagnostics: Diagnostics,
    },
    /// Batch `id` (0 = unattributable) failed.
    Error {
        /// Correlation id, when it could be read.
        id: u64,
        /// Human-readable failure reason.
        message: String,
    },
}

impl ServerFrame {
    /// Encodes the frame as one line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ServerFrame::Hello {
                warm_entries,
                parallelism,
                pool,
            } => {
                let mut w = WireWriter::frame("hello");
                w.u64(*warm_entries);
                w.u64(*parallelism);
                pool.write(&mut w);
                w.finish()
            }
            ServerFrame::Busy { active, max } => {
                let mut w = WireWriter::frame("busy");
                w.u64(*active);
                w.u64(*max);
                w.finish()
            }
            ServerFrame::Pong => WireWriter::frame("pong").finish(),
            ServerFrame::Report { id, index, report } => encode_report_frame(*id, *index, report),
            ServerFrame::Done {
                id,
                count,
                cache,
                verify,
                pool,
            } => {
                let mut w = WireWriter::frame("done");
                w.u64(*id);
                w.u64(*count);
                wire::write_cache_stats(&mut w, cache);
                verify.write(&mut w);
                pool.write(&mut w);
                w.finish()
            }
            ServerFrame::Rejected { id, diagnostics } => {
                let mut w = WireWriter::frame("rejected");
                w.u64(*id);
                w.u64(diagnostics.len() as u64);
                for d in diagnostics.iter() {
                    wire::write_diagnostic(&mut w, d);
                }
                w.finish()
            }
            ServerFrame::Error { id, message } => {
                let mut w = WireWriter::frame("error");
                w.u64(*id);
                w.text(message);
                w.finish()
            }
        }
    }

    /// Decodes one server line.
    pub fn decode(line: &str) -> Result<ServerFrame, WireError> {
        let (kind, mut r) = WireReader::frame(line)?;
        let frame = match kind {
            "hello" => ServerFrame::Hello {
                warm_entries: r.u64()?,
                parallelism: r.u64()?,
                pool: PoolStats::read(&mut r)?,
            },
            "busy" => ServerFrame::Busy {
                active: r.u64()?,
                max: r.u64()?,
            },
            "pong" => ServerFrame::Pong,
            "report" => ServerFrame::Report {
                id: r.u64()?,
                index: r.u64()?,
                report: wire::read_report(&mut r)?,
            },
            "done" => ServerFrame::Done {
                id: r.u64()?,
                count: r.u64()?,
                cache: wire::read_cache_stats(&mut r)?,
                verify: VerifyTotals::read(&mut r)?,
                pool: PoolStats::read(&mut r)?,
            },
            "rejected" => {
                let id = r.u64()?;
                let count = r.usize()?;
                let mut diagnostics = Diagnostics::new();
                for _ in 0..count {
                    diagnostics.push(wire::read_diagnostic(&mut r)?);
                }
                ServerFrame::Rejected { id, diagnostics }
            }
            "error" => ServerFrame::Error {
                id: r.u64()?,
                message: r.text()?,
            },
            other => {
                return Err(WireError::Syntax(format!(
                    "unknown server frame kind `{other}`"
                )))
            }
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Borrow-encoding twins of the owning [`ServerFrame`] / [`ClientFrame`]
/// constructors, for the hot paths that already hold a reference: the
/// server's streaming sink encodes each completed report without
/// cloning its residue heaps, and the client encodes a batch without
/// copying the request list.
pub fn encode_report_frame(id: u64, index: u64, report: &Report) -> String {
    let mut w = WireWriter::frame("report");
    w.u64(id);
    w.u64(index);
    wire::write_report(&mut w, report);
    w.finish()
}

/// See [`encode_report_frame`]; the borrow-encoding twin of
/// [`ClientFrame::Analyze`].
pub fn encode_analyze_frame(
    id: u64,
    upload: Option<&ProgramUpload>,
    requests: &[AnalysisRequest],
) -> Result<String, WireError> {
    let mut w = WireWriter::frame("analyze");
    w.u64(id);
    match upload {
        None => w.atom("-"),
        Some(upload) => upload.write(&mut w),
    }
    w.u64(requests.len() as u64);
    for request in requests {
        wire::write_request(&mut w, request)?;
    }
    Ok(w.finish())
}

/// Default cap on one frame's length. A peer that streams bytes without
/// ever sending a newline would otherwise grow the buffer until the
/// process OOMs — this bounds what one connection can pin. Far above
/// any legitimate frame (a full corpus report line is a few hundred
/// KiB; even a generous program upload is single-digit MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A peer exceeded the frame-length cap without sending a newline.
/// Travels as the payload of an [`InvalidData`](io::ErrorKind::InvalidData)
/// [`io::Error`], so callers can distinguish it from genuinely malformed
/// bytes via [`io::Error::get_ref`] + `downcast_ref::<FrameTooLarge>()`
/// and answer with a typed `error` frame before dropping the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// Bytes buffered when the limit tripped.
    pub buffered: usize,
    /// The configured cap.
    pub limit: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame too large: {} bytes buffered without a newline (limit {})",
            self.buffered, self.limit
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Incremental newline-delimited framing over a byte stream: buffers
/// partial reads (a frame may arrive in many TCP segments, or several
/// frames in one) and yields complete lines.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    limit: usize,
}

impl Default for FrameBuffer {
    fn default() -> FrameBuffer {
        FrameBuffer::with_limit(MAX_FRAME_BYTES)
    }
}

impl FrameBuffer {
    /// An empty buffer capped at [`MAX_FRAME_BYTES`].
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// An empty buffer with a custom frame-length cap.
    pub fn with_limit(limit: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            limit,
        }
    }

    /// Pops the next complete line, if one is buffered.
    pub fn pop_line(&mut self) -> Option<String> {
        let newline = self.buf.iter().position(|b| *b == b'\n')?;
        let rest = self.buf.split_off(newline + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop(); // the newline
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Reads more bytes from `source` into the buffer. `Ok(true)` means
    /// bytes arrived; `Ok(false)` means clean end of stream. A partial
    /// frame exceeding the cap is an
    /// [`InvalidData`](io::ErrorKind::InvalidData) error carrying a
    /// [`FrameTooLarge`] payload — the peer is either broken or hostile,
    /// and the connection should drop (after a best-effort typed `error`
    /// frame, on the server side).
    pub fn fill(&mut self, source: &mut impl Read) -> io::Result<bool> {
        let mut chunk = [0u8; 8192];
        let n = source.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        if self.buf.len() > self.limit && !self.buf.contains(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameTooLarge {
                    buffered: self.buf.len(),
                    limit: self.limit,
                },
            ));
        }
        Ok(true)
    }

    /// Whether a partial (incomplete) frame is buffered.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling::{InputSpec, ValueSpec};

    fn upload() -> ProgramUpload {
        ProgramUpload {
            program: "struct N { next: N*; }\nfn id(x: N*) -> N* { return x; }".into(),
            predicates: "pred p(x: N*) := emp & x == nil\n  | exists u. x -> N{next: u} * p(u);"
                .into(),
        }
    }

    #[test]
    fn analyze_frame_with_upload_round_trips() {
        let frame = ClientFrame::Analyze {
            id: 42,
            upload: Some(upload()),
            requests: vec![
                sling::AnalysisRequest::new("id").input(InputSpec::seeded(7).arg(ValueSpec::nil()))
            ],
        };
        let line = frame.encode().unwrap();
        match ClientFrame::decode(&line).unwrap() {
            ClientFrame::Analyze {
                id,
                upload: Some(u),
                requests,
            } => {
                assert_eq!(id, 42);
                assert_eq!(u, upload());
                assert_eq!(requests.len(), 1);
            }
            other => panic!("decoded {other:?}"),
        }
        assert_eq!(ClientFrame::salvage_id(&line), 42);
    }

    #[test]
    fn analyze_frame_without_upload_round_trips() {
        let frame = ClientFrame::Analyze {
            id: 1,
            upload: None,
            requests: vec![],
        };
        let line = frame.encode().unwrap();
        assert!(matches!(
            ClientFrame::decode(&line).unwrap(),
            ClientFrame::Analyze { upload: None, .. }
        ));
    }

    #[test]
    fn bad_tenant_tag_is_a_syntax_error() {
        let line = ClientFrame::Analyze {
            id: 3,
            upload: None,
            requests: vec![],
        }
        .encode()
        .unwrap();
        let bad = line.replacen(" - ", " steal ", 1);
        assert!(matches!(
            ClientFrame::decode(&bad),
            Err(WireError::Syntax(_))
        ));
    }

    #[test]
    fn hello_and_done_carry_pool_stats() {
        let pool = PoolStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            resident: 2,
            capacity: 4,
        };
        let hello = ServerFrame::Hello {
            warm_entries: 9,
            parallelism: 3,
            pool,
        }
        .encode();
        match ServerFrame::decode(&hello).unwrap() {
            ServerFrame::Hello { pool: back, .. } => assert_eq!(back, pool),
            other => panic!("decoded {other:?}"),
        }
        let done = ServerFrame::Done {
            id: 7,
            count: 1,
            cache: CacheStats::default(),
            verify: VerifyTotals::default(),
            pool,
        }
        .encode();
        match ServerFrame::decode(&done).unwrap() {
            ServerFrame::Done { pool: back, .. } => assert_eq!(back, pool),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn rejected_frame_round_trips_structured_diagnostics() {
        use sling::{lint_codes, Diagnostic, Severity};
        let mut diagnostics = Diagnostics::new();
        diagnostics.push(
            Diagnostic::new(
                lint_codes::USE_BEFORE_INIT,
                Severity::Deny,
                "variable `y` is used before it is initialized",
            )
            .in_function(sling_logic::Symbol::intern("f"))
            .with_span(sling_logic::Span::new(20, 29)),
        );
        diagnostics.push(
            Diagnostic::new(lint_codes::UNUSED_VAR, Severity::Warning, "never read")
                .with_note("context note"),
        );
        let line = ServerFrame::Rejected {
            id: 11,
            diagnostics: diagnostics.clone(),
        }
        .encode();
        match ServerFrame::decode(&line).unwrap() {
            ServerFrame::Rejected {
                id,
                diagnostics: back,
            } => {
                assert_eq!(id, 11);
                assert_eq!(back, diagnostics);
                assert!(back.has_deny());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn frame_buffer_pops_lines_and_caps_partials() {
        let mut fb = FrameBuffer::with_limit(16);
        let mut src = io::Cursor::new(b"one\ntwo\n".to_vec());
        assert!(fb.fill(&mut src).unwrap());
        assert_eq!(fb.pop_line().as_deref(), Some("one"));
        assert_eq!(fb.pop_line().as_deref(), Some("two"));
        assert!(fb.pop_line().is_none());
        assert!(!fb.has_partial());

        // A newline-free stream past the limit trips the typed error.
        let mut src = io::Cursor::new(vec![b'x'; 64]);
        let err = loop {
            match fb.fill(&mut src) {
                Ok(true) => continue,
                Ok(false) => panic!("stream ended before the cap tripped"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let too_large = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>())
            .expect("typed FrameTooLarge payload");
        assert_eq!(too_large.limit, 16);
        assert!(too_large.buffered > 16);
    }

    #[test]
    fn frame_buffer_allows_complete_lines_longer_than_a_read() {
        // The cap binds *partial* frames; complete lines under the cap
        // pass even when they span several fills.
        let mut fb = FrameBuffer::with_limit(1 << 20);
        let line = format!("{}\n", "y".repeat(20_000));
        let mut src = io::Cursor::new(line.clone().into_bytes());
        while fb.fill(&mut src).unwrap() {}
        assert_eq!(fb.pop_line().as_deref(), Some(&line[..line.len() - 1]));
    }
}
