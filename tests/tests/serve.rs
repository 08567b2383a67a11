//! End-to-end tests of the analysis service: a warm-booted server on a
//! loopback socket must produce reports formula-for-formula identical
//! to in-process `analyze_all`, stream them as they complete, reject
//! malformed frames with typed errors without dropping the connection,
//! and snapshot its cache in the background.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sling::{wire, AnalysisRequest, Engine, InputSpec, Report, ValueSpec};
use sling_serve::{Client, ServeError, ServeOptions, Service};
use sling_suite::fixtures::ListCorpus;

fn corpus_engine(corpus: &ListCorpus) -> sling::EngineBuilder {
    Engine::builder()
        .program_source(&corpus.program())
        .expect("corpus program parses")
        .predicates_source(&corpus.predicates())
        .expect("corpus predicates parse")
}

/// Everything formula-relevant about a report (timing and cache deltas
/// legitimately differ between a served and an in-process run).
fn fingerprint(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{} runs={} traces={} declared={:?}\n",
        report.target, report.metrics.runs, report.metrics.traces, report.declared_locations
    );
    for loc in &report.locations {
        let _ = writeln!(
            out,
            "  {} models={} snaps={} tainted={}",
            loc.location, loc.models_used, loc.snapshots_seen, loc.tainted
        );
        for inv in &loc.invariants {
            let _ = writeln!(
                out,
                "    [{}|{}|{:?}] {} :: residues={:?} activations={:?}",
                inv.spurious, inv.grade, inv.stats, inv.formula, inv.residues, inv.activations
            );
        }
    }
    out
}

fn temp_snapshot(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sling-serve-test-{}-{name}.bin",
        std::process::id()
    ))
}

#[test]
fn served_reports_equal_in_process_reports_and_warm_boot_pays() {
    let corpus = ListCorpus::new("ServeE2eNode");
    let batch = corpus.batch(1);
    let path = temp_snapshot("e2e");
    std::fs::remove_file(&path).ok();

    // In-process reference run; its cache seeds the snapshot the server
    // warm-boots from.
    let reference_engine = corpus_engine(&corpus)
        .cache_path(&path)
        .build()
        .expect("engine builds");
    let reference = reference_engine
        .analyze_all(&batch)
        .expect("in-process batch runs");
    assert!(reference_engine.save_cache().expect("snapshot saves") > 0);

    // Warm-booted service on an ephemeral loopback port.
    let served_engine = corpus_engine(&corpus)
        .cache_path(&path)
        .build()
        .expect("engine builds");
    assert!(served_engine.warm_entries() > 0, "snapshot must restore");
    let service = Service::bind(served_engine, "127.0.0.1:0").expect("service binds");

    let mut client = Client::connect(service.local_addr()).expect("client connects");
    assert!(
        client.warm_entries() > 0,
        "hello banner must advertise the warm boot"
    );

    // First batch over the wire: identical formulas, answered warm.
    let served = client.analyze_all(&batch).expect("served batch runs");
    assert_eq!(served.reports.len(), reference.reports.len());
    for (mine, theirs) in reference.reports.iter().zip(&served.reports) {
        assert_eq!(
            fingerprint(mine),
            fingerprint(theirs),
            "served report for `{}` must equal the in-process report",
            mine.target
        );
    }
    assert!(
        served.cache.warm_hits > 0,
        "a warm-booted server must answer its first batch from restored \
         entries: {:?}",
        served.cache
    );

    let engine = service
        .shutdown()
        .expect("graceful drain")
        .into_default()
        .expect("default tenant comes back");
    assert!(engine.cache_stats().lookups() > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn reports_stream_as_they_complete() {
    let corpus = ListCorpus::new("ServeStreamNode");
    let batch = corpus.batch(1);
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let service = Service::bind(engine, "127.0.0.1:0").expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("client connects");

    let mut streamed: Vec<(usize, sling_logic::Symbol)> = Vec::new();
    let served = client
        .analyze_all_with(&batch, |index, report| {
            streamed.push((index, report.target));
        })
        .expect("served batch runs");

    // The sink saw every report exactly once, before the batch
    // returned, with indexes matching request order.
    let mut indexes: Vec<usize> = streamed.iter().map(|(i, _)| *i).collect();
    indexes.sort_unstable();
    assert_eq!(indexes, (0..batch.len()).collect::<Vec<_>>());
    for (index, target) in &streamed {
        assert_eq!(*target, batch[*index].target);
        assert_eq!(served.reports[*index].target, batch[*index].target);
    }
    service.shutdown().expect("graceful drain");
}

#[test]
fn one_connection_serves_many_batches_and_shares_the_cache() {
    let corpus = ListCorpus::new("ServeReuseNode");
    let batch = corpus.batch(1);
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let service = Service::bind(engine, "127.0.0.1:0").expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("client connects");

    client.ping().expect("ping answers");
    let cold = client.analyze_all(&batch).expect("first batch");
    client.ping().expect("connection still usable");
    let warm = client.analyze_all(&batch).expect("second batch");
    assert!(
        warm.cache.hits > cold.cache.hits || warm.cache.misses == 0,
        "the second identical batch must ride the first one's cache: \
         cold {:?}, warm {:?}",
        cold.cache,
        warm.cache
    );
    for (a, b) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(fingerprint(a), fingerprint(b), "cache hits change nothing");
    }

    // A second client shares the same engine and cache.
    let mut second = Client::connect(service.local_addr()).expect("second client");
    let third = second.analyze_all(&batch).expect("third batch");
    assert_eq!(
        third.cache.misses, 0,
        "fully warm by now: {:?}",
        third.cache
    );
    service.shutdown().expect("graceful drain");
}

#[test]
fn malformed_frames_get_typed_errors_not_dropped_connections() {
    let corpus = ListCorpus::new("ServeRejectNode");
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let service = Service::bind(engine, "127.0.0.1:0").expect("service binds");

    // A raw socket speaking garbage: every bad frame gets an `error`
    // response and the connection survives to serve good frames after.
    let stream = TcpStream::connect(service.local_addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello banner");
    assert!(line.starts_with("sling9 hello "), "{line:?}");

    let bad_frames = [
        "complete nonsense\n",
        "sling10 analyze 1 - 0\n",                // wrong protocol version
        "sling2 ping\n",                          // previous protocol version
        "sling4 analyze 1 1 \"reverse\" 0\n",     // pre-upload protocol version
        "sling5 analyze 5 - 1 \"reverse\" - 0\n", // pre-diagnostics protocol version
        "sling6 ping\n",                          // pre-cache-tier protocol version
        "sling8 ping\n",                          // remote-cache-tier protocol version
        "sling9 frobnicate 1\n",                  // unknown frame kind
        "sling9 analyze 6 steal 0\n",             // unknown tenant tag
        "sling9 analyze 7 - 1 \"no_such_fn\" - 0\n", // decodes, but unknown target
        "sling9 analyze 8 - 2 \"reverse\" - 0\n", // truncated batch
        "sling9 analyze 9 - 1 \"reverse\" - 1 zz 0\n", // bad integer token
    ];
    for frame in bad_frames {
        writer.write_all(frame.as_bytes()).expect("write");
        line.clear();
        reader.read_line(&mut line).expect("error response");
        assert!(
            line.starts_with("sling9 error "),
            "bad frame {frame:?} must be answered with an error frame, \
             got {line:?}"
        );
    }
    // Correlation ids are salvaged when readable.
    writer
        .write_all(b"sling9 analyze 42 - 1 \"reverse\" oops\n")
        .expect("write");
    line.clear();
    reader.read_line(&mut line).expect("error response");
    assert!(line.starts_with("sling9 error 42 "), "{line:?}");

    // The connection still serves real work.
    writer.write_all(b"sling9 ping\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    assert_eq!(line.trim_end(), "sling9 pong");
    drop(writer);
    drop(reader);

    // The typed client surfaces the server's rejection as Remote.
    let mut client = Client::connect(service.local_addr()).expect("client connects");
    let missing =
        AnalysisRequest::new("no_such_fn").input(InputSpec::seeded(1).arg(ValueSpec::int(3)));
    match client.analyze_all(std::slice::from_ref(&missing)) {
        Err(ServeError::Remote(message)) => {
            assert!(message.contains("no_such_fn"), "{message}");
        }
        other => panic!("expected a Remote error, got {other:?}"),
    }
    // And custom closures are rejected client-side before hitting the
    // wire.
    let custom = AnalysisRequest::new("reverse").custom(|_| vec![sling_models::Val::Nil]);
    assert!(matches!(
        client.analyze_all(std::slice::from_ref(&custom)),
        Err(ServeError::Wire(wire::WireError::Unsupported(_)))
    ));
    service.shutdown().expect("graceful drain");
}

#[test]
fn oversized_frames_get_a_typed_error_and_a_disconnect() {
    // A peer streaming bytes with no newline must not grow the server's
    // frame buffer without bound: past the configured cap it gets one
    // typed `error` frame naming the limit, then the disconnect. A small
    // cap keeps the test cheap; the default is 64 MiB.
    let corpus = ListCorpus::new("ServeHugeNode");
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let service = Service::bind_with(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            max_frame_bytes: Some(4096),
            ..ServeOptions::default()
        },
    )
    .expect("service binds");

    let stream = TcpStream::connect(service.local_addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello banner");
    assert!(line.starts_with("sling9 hello "), "{line:?}");

    // Far past the cap, never a newline. The server may close mid-write
    // once the cap trips, so write errors are expected, not failures.
    let chunk = [b'x'; 1024];
    for _ in 0..64 {
        if writer.write_all(&chunk).is_err() {
            break;
        }
    }
    line.clear();
    reader
        .read_line(&mut line)
        .expect("typed error before close");
    assert!(line.starts_with("sling9 error 0 "), "{line:?}");
    assert!(line.contains("frame too large"), "{line:?}");
    // Then EOF: the connection is gone, not wedged.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "{line:?}");

    // The daemon itself survives to serve fresh connections.
    let mut client = Client::connect(service.local_addr()).expect("daemon alive");
    client.ping().expect("healthy after the hostile peer");
    service.shutdown().expect("graceful drain");
}

#[test]
fn background_snapshotting_persists_the_cache_while_serving() {
    let corpus = ListCorpus::new("ServeSnapNode");
    let batch = corpus.batch(1);
    let path = temp_snapshot("periodic");
    std::fs::remove_file(&path).ok();

    let engine = corpus_engine(&corpus)
        .cache_path(&path)
        .build()
        .expect("engine builds");
    let service = Service::bind_with(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            snapshot_interval: Some(Duration::from_millis(50)),
            ..ServeOptions::default()
        },
    )
    .expect("service binds");

    let mut client = Client::connect(service.local_addr()).expect("client connects");
    client.analyze_all(&batch).expect("batch runs");
    // The periodic snapshotter must persist without any shutdown.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.snapshots_taken() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        service.snapshots_taken() > 0,
        "a 50ms interval must have snapshotted within 10s"
    );
    assert!(path.exists(), "periodic snapshot must hit the disk");

    // And the snapshot is genuinely loadable: a fresh engine warm-boots
    // from it while the service is still running.
    let sibling = corpus_engine(&corpus)
        .cache_path(&path)
        .build()
        .expect("engine builds");
    assert!(sibling.warm_entries() > 0, "periodic snapshot restores");

    let engine = service
        .shutdown()
        .expect("graceful drain")
        .into_default()
        .expect("default tenant comes back");
    assert!(engine.cache_path().is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn daemon_booted_from_a_snapshot_directory_is_warm_for_every_sibling() {
    // Two sibling processes snapshot disjoint corpus halves into one
    // directory (plus one corrupt file); a service booted on that
    // directory advertises the combined warm count and answers both
    // halves warm.
    let corpus = ListCorpus::new("ServeDirNode");
    let dir = std::env::temp_dir().join(format!("sling-serve-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot dir");
    let batch = corpus.batch(1);
    let (half_a, half_b) = batch.split_at(2);

    let sibling_a = corpus_engine(&corpus).build().expect("engine builds");
    sibling_a.analyze_all(half_a).expect("half A runs");
    let a_written = sibling_a
        .save_cache_to(dir.join("a.snap"))
        .expect("A snapshots");
    let sibling_b = corpus_engine(&corpus).build().expect("engine builds");
    sibling_b.analyze_all(half_b).expect("half B runs");
    let b_written = sibling_b
        .save_cache_to(dir.join("b.snap"))
        .expect("B snapshots");
    std::fs::write(dir.join("corrupt.snap"), b"not a snapshot").unwrap();
    std::fs::write(dir.join("unrelated.txt"), b"ignored: wrong extension").unwrap();

    // What sling-serve --cache DIR runs at boot.
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let outcome = sling_serve::absorb_snapshot_dir(&engine, &dir, None).expect("directory scans");
    assert_eq!(outcome.files, 3, "both snapshots plus the corrupt one");
    assert_eq!(
        outcome.skipped.len(),
        1,
        "the corrupt sibling is skipped with a reason, not fatal: {:?}",
        outcome.skipped
    );
    // The halves share a few verdicts (both compute them); each
    // distinct entry is merged, and counted, exactly once.
    assert_eq!(
        outcome.merged,
        engine.cache_stats().entries,
        "every distinct entry merges, counted once"
    );
    assert!(outcome.merged >= a_written.max(b_written));
    assert!(outcome.merged <= a_written + b_written);
    for half in ["a.snap", "b.snap"] {
        let again = engine.absorb_snapshot(dir.join(half)).expect("re-folds");
        assert_eq!(again.merged, 0, "{half} merged without loss");
    }
    assert_eq!(engine.warm_entries(), outcome.merged);

    let service = Service::bind(engine, "127.0.0.1:0").expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("client connects");
    assert_eq!(
        client.warm_entries(),
        outcome.merged,
        "the hello banner advertises the combined warm count"
    );

    // Both halves are answered from their respective snapshots.
    let served_a = client.analyze_all(half_a).expect("half A serves");
    assert!(
        served_a.cache.warm_hits > 0,
        "half A must hit snapshot A's entries: {:?}",
        served_a.cache
    );
    let served_b = client.analyze_all(half_b).expect("half B serves");
    assert!(
        served_b.cache.warm_hits > 0,
        "half B must hit snapshot B's entries: {:?}",
        served_b.cache
    );

    service.shutdown().expect("graceful drain");
    std::fs::remove_dir_all(&dir).ok();
}

/// The live half of directory sharing: daemon B boots on an empty
/// directory before sibling A has saved anything, then A analyzes
/// `first` and saves `a.snap`. Returns the directory, both engines,
/// A's reports and the entry count A wrote.
fn sibling_saves_after_boot(
    corpus: &ListCorpus,
    tag: &str,
    first: &[AnalysisRequest],
) -> (std::path::PathBuf, Engine, Engine, Vec<Report>, u64) {
    let dir = std::env::temp_dir().join(format!("sling-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("snapshot dir");

    let engine_b = corpus_engine(corpus).build().expect("engine B builds");
    let boot = sling_serve::absorb_snapshot_dir(&engine_b, &dir, None).expect("directory scans");
    assert_eq!((boot.files, boot.merged), (0, 0), "B boots cold");

    let engine_a = corpus_engine(corpus).build().expect("engine A builds");
    let ran_a = engine_a.analyze_all(first).expect("A runs");
    let written = engine_a
        .save_cache_to(dir.join("a.snap"))
        .expect("A snapshots");
    assert!(written > 0);
    (dir, engine_a, engine_b, ran_a.reports, written)
}

fn formulas(reports: &[Report]) -> Vec<String> {
    reports.iter().map(fingerprint).collect()
}

#[test]
fn second_daemon_answers_from_a_siblings_snapshot_with_identical_formulas() {
    // B's next fold — the one `sling-serve --cache DIR` repeats on every
    // snapshot tick — takes all of A's verdicts, and B answers A's batch
    // from them without a single search.
    let corpus = ListCorpus::new("ServeLiveNode");
    let batch = corpus.batch(1);
    let (dir, _engine_a, engine_b, reports_a, written) =
        sibling_saves_after_boot(&corpus, "live", &batch);

    let fold = sling_serve::absorb_snapshot_dir(&engine_b, &dir, None).expect("directory scans");
    assert!(fold.skipped.is_empty(), "{:?}", fold.skipped);
    assert_eq!(fold.merged, written, "every entry A saved folds into B");

    let ran_b = engine_b.analyze_all(&batch).expect("B runs");
    assert_eq!(ran_b.cache.misses, 0, "no search reruns: {:?}", ran_b.cache);
    assert_eq!(ran_b.cache.warm_hits, ran_b.cache.lookups());
    assert!(ran_b.cache.lookups() > 0);
    assert_eq!(formulas(&ran_b.reports), formulas(&reports_a));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refold_absorbs_only_a_siblings_new_entries() {
    let corpus = ListCorpus::new("ServeRefoldNode");
    let batch = corpus.batch(1);
    let (first, rest) = batch.split_at(2);
    let (dir, engine_a, engine_b, _, written) = sibling_saves_after_boot(&corpus, "refold", first);
    let snap_a = dir.join("a.snap");
    let fold = sling_serve::absorb_snapshot_dir(&engine_b, &dir, None).expect("directory scans");
    assert_eq!(fold.merged, written);

    // Folding again finds nothing new — neither in the unchanged file
    // nor after A re-saves the same verdicts under a newer generation,
    // as its snapshot tick does — and leaves B's cache untouched.
    let settled = engine_b.cache_stats();
    let again = sling_serve::absorb_snapshot_dir(&engine_b, &dir, None).expect("directory scans");
    assert_eq!(again.merged, 0, "an unchanged sibling merges nothing");
    assert_eq!(
        engine_a.save_cache_to(&snap_a).expect("A re-saves"),
        written
    );
    let resaved = sling_serve::absorb_snapshot_dir(&engine_b, &dir, None).expect("directory scans");
    assert_eq!(
        resaved.merged, 0,
        "a re-save with no new work merges nothing"
    );
    assert_eq!(engine_b.cache_stats(), settled);
    assert_eq!(engine_b.warm_entries(), written);

    // A analyzes the second half and re-saves: only the new entries
    // fold in, and B answers the second half from them.
    let ran_a_rest = engine_a.analyze_all(rest).expect("A runs the rest");
    let grown = engine_a.save_cache_to(&snap_a).expect("A re-snapshots");
    assert!(grown > written, "the second half adds entries");
    let delta = sling_serve::absorb_snapshot_dir(&engine_b, &dir, None).expect("directory scans");
    assert_eq!(delta.merged, grown - written, "only the new entries fold");
    let ran_b_rest = engine_b.analyze_all(rest).expect("B runs the rest");
    assert_eq!(ran_b_rest.cache.misses, 0, "{:?}", ran_b_rest.cache);
    assert_eq!(formulas(&ran_b_rest.reports), formulas(&ran_a_rest.reports));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_service_turns_connections_away_with_busy_and_recovers() {
    let corpus = ListCorpus::new("ServeBusyNode");
    let batch = corpus.batch(1);
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let service = Service::bind_with(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            max_connections: Some(1),
            ..ServeOptions::default()
        },
    )
    .expect("service binds");
    let addr = service.local_addr();

    // The one admitted connection works normally.
    let mut first = Client::connect(addr).expect("first client connects");
    first.ping().expect("admitted connection serves");

    // The second is turned away with the typed busy frame, not a
    // silent close or a hung accept.
    match Client::connect(addr) {
        Err(ServeError::Busy { active, max }) => {
            assert_eq!((active, max), (1, 1));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // The turned-away connection cost nothing: the admitted one still
    // serves.
    first
        .ping()
        .expect("admitted connection survives the flood");
    let served = first.analyze_all(&batch).expect("batch still serves");
    assert_eq!(served.reports.len(), batch.len());

    // Dropping the admitted client frees the slot; the standard retry
    // path rides it out.
    drop(first);
    let mut retried = Client::connect_retry(addr, Duration::from_secs(10))
        .expect("retry lands once the slot frees");
    retried.ping().expect("recovered connection serves");

    service.shutdown().expect("graceful drain");
}

#[test]
fn verification_totals_ride_the_done_epilogue() {
    // A server built with the verification post-pass (`sling-serve
    // --verify`) grades every invariant it streams and sums the grades
    // into the batch's `done` frame.
    let corpus = ListCorpus::new("ServeVfyNode");
    let engine = corpus_engine(&corpus)
        .verification(sling::VerifySettings::default())
        .build()
        .expect("engine builds");
    let service = Service::bind(engine, "127.0.0.1:0").expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("client connects");
    assert_eq!(
        client.verify_totals(),
        sling_serve::VerifyTotals::default(),
        "no batch served yet"
    );

    let batch = corpus.batch(1);
    let served = client.analyze_all(&batch).expect("served batch runs");
    let totals = client.verify_totals();

    // The epilogue is exactly the sum of the streamed reports' metrics.
    let expect = |f: fn(&sling::RunMetrics) -> usize| -> u64 {
        served.reports.iter().map(|r| f(&r.metrics) as u64).sum()
    };
    assert_eq!(totals.verified, expect(|m| m.verified));
    assert_eq!(totals.refuted, expect(|m| m.refuted));
    assert_eq!(totals.confirmed, expect(|m| m.confirmed));
    assert_eq!(totals.unknown, expect(|m| m.unknown));
    assert_eq!(totals.refuted_initial, expect(|m| m.refuted_initial));
    assert_eq!(totals.cegir_rounds, expect(|m| m.cegir_rounds));

    let verify_off = matches!(std::env::var("SLING_VERIFY"), Ok(v)
        if v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false"));
    let graded = totals.verified + totals.refuted + totals.confirmed + totals.unknown;
    if verify_off {
        assert_eq!(graded, 0, "SLING_VERIFY=off leaves the epilogue inert");
    } else {
        assert!(graded > 0, "a --verify server must grade: {totals:?}");
        assert!(totals.verify_seconds > 0.0);
        assert_eq!(totals.refuted, 0, "refinement resolves refutations");
    }
    service.shutdown().expect("graceful drain");
}

#[test]
fn wire_codec_round_trips_served_corpus_reports() {
    // Property-style: every report the corpus produces must survive the
    // wire codec Debug-identically (formulas, residues, activations,
    // metrics bits and all).
    let corpus = ListCorpus::new("ServeCodecNode");
    let engine = corpus_engine(&corpus).build().expect("engine builds");
    let batch = engine
        .analyze_all(&corpus.batch(1))
        .expect("in-process batch runs");
    for report in &batch.reports {
        let line = wire::encode_report(report);
        let back = wire::decode_report(&line).expect("round trip decodes");
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }
    // Requests round-trip too (the corpus batch is spec-only).
    for request in corpus.batch(2) {
        let line = wire::encode_request(&request).expect("specs encode");
        let back = wire::decode_request(&line).expect("round trip decodes");
        assert_eq!(format!("{back:?}"), format!("{request:?}"));
    }
}
