//! Property tests for the `sling::wire` codec and the `sling9` frame
//! layer on top of it: arbitrary `InputSpec`/`Report`/`CacheStats`
//! values round-trip bit-identically, requests round-trip with and
//! without per-request [`SlingConfig`] overrides, `analyze` frames
//! round-trip with and without a [`ProgramUpload`], frames tagged with
//! previous protocols (`sling6` and older) are rejected as
//! [`WireError::Version`], and arbitrary byte mutations of a valid
//! frame never panic — every malformed input is rejected with a typed
//! error.
//!
//! Values are generated from the deterministic `proptest` stub RNG
//! (seeded per case), so failures reproduce.

use proptest::prelude::*;
use proptest::TestRng;

use sling::wire::{self, WireError, WireReader, WireWriter};
use sling::{
    AnalysisRequest, CacheStats, DataOrder, Diagnostic, ExactCell, ExactVal, InputSpec, Invariant,
    InvariantGrade, InvariantStats, LocationAnalysis, Report, RunMetrics, Severity, SlingConfig,
    TreeKind, ValueSpec, VerifyConfig, VerifySettings,
};
use sling_lang::{ListLayout, Location, TreeLayout};
use sling_logic::{parse_formula, Span, SymHeap, Symbol};
use sling_models::{Heap, HeapCell, Loc, Val};
use sling_serve::proto::{encode_analyze_frame, ClientFrame};
use sling_serve::ProgramUpload;

fn rng_for(name: &str, case: u64) -> TestRng {
    TestRng::deterministic(&format!("{name}-{case}"))
}

/// A value that exercises a tag's whole range: extremes early, then
/// arbitrary.
fn pick_i64(rng: &mut TestRng) -> i64 {
    match rng.next_u64() % 5 {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => -1,
        _ => rng.next_u64() as i64,
    }
}

fn pick_u64(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 4 {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64(),
    }
}

fn arb_list_layout(rng: &mut TestRng) -> ListLayout {
    let nfields = 1 + (rng.next_u64() % 4) as usize;
    ListLayout {
        ty: Symbol::intern(&format!("WpNode{}", rng.next_u64() % 4)),
        nfields,
        next: 0,
        prev: (rng.next_u64().is_multiple_of(2) && nfields > 1).then_some(1),
        data: (rng.next_u64().is_multiple_of(2) && nfields > 2).then_some(2),
    }
}

fn arb_tree_layout(rng: &mut TestRng) -> TreeLayout {
    let nfields = 2 + (rng.next_u64() % 4) as usize;
    TreeLayout {
        ty: Symbol::intern(&format!("WpTree{}", rng.next_u64() % 4)),
        nfields,
        left: 0,
        right: 1,
        parent: (rng.next_u64().is_multiple_of(2) && nfields > 2).then_some(2),
        data: (rng.next_u64().is_multiple_of(2) && nfields > 3).then_some(3),
        color: (rng.next_u64().is_multiple_of(2) && nfields > 4).then_some(4),
    }
}

fn arb_exact_spec(rng: &mut TestRng) -> ValueSpec {
    let ncells = (rng.next_u64() % 4) as usize;
    let cells = (0..ncells)
        .map(|_| ExactCell {
            ty: Symbol::intern(&format!("WpNode{}", rng.next_u64() % 4)),
            fields: (0..1 + rng.next_u64() % 3)
                .map(|_| match rng.next_u64() % 3 {
                    0 => ExactVal::Nil,
                    1 => ExactVal::Int(pick_i64(rng)),
                    _ => ExactVal::Cell((rng.next_u64() % ncells as u64) as usize),
                })
                .collect(),
        })
        .collect();
    ValueSpec::exact(cells)
}

fn arb_value_spec(rng: &mut TestRng) -> ValueSpec {
    match rng.next_u64() % 6 {
        0 => ValueSpec::nil(),
        5 => arb_exact_spec(rng),
        1 => ValueSpec::int(pick_i64(rng)),
        2 => {
            let (a, b) = (pick_i64(rng), pick_i64(rng));
            ValueSpec::int_in(a.min(b), a.max(b))
        }
        3 => {
            let layout = arb_list_layout(rng);
            let len = (rng.next_u64() % 64) as usize;
            let order = match rng.next_u64() % 3 {
                0 => DataOrder::Random,
                1 => DataOrder::Sorted,
                _ => DataOrder::Reversed,
            };
            let base = if rng.next_u64().is_multiple_of(2) {
                ValueSpec::sll(layout, len)
            } else if layout.prev.is_some() {
                ValueSpec::dll(layout, len)
            } else {
                ValueSpec::cyclic(layout, len)
            };
            base.with_order(order)
        }
        _ => {
            let kind = match rng.next_u64() % 4 {
                0 => TreeKind::Random,
                1 => TreeKind::Bst,
                2 => TreeKind::Balanced,
                _ => TreeKind::RedBlack,
            };
            ValueSpec::tree(arb_tree_layout(rng), (rng.next_u64() % 32) as usize, kind)
        }
    }
}

fn arb_input_spec(rng: &mut TestRng) -> InputSpec {
    let mut spec = InputSpec::seeded(pick_u64(rng));
    for _ in 0..(rng.next_u64() % 4) {
        spec = spec.arg(arb_value_spec(rng));
    }
    spec
}

fn arb_config(rng: &mut TestRng) -> SlingConfig {
    let mut config = SlingConfig::default();
    config.check.node_budget = pick_u64(rng);
    config.check.fuel_slack = rng.next_u64() as u32;
    config.infer.max_results_per_var = (rng.next_u64() % (1 << 20)) as usize;
    config.infer.max_candidates_per_pred = (rng.next_u64() % (1 << 20)) as usize;
    config.infer.require_nonvacuous = rng.next_u64().is_multiple_of(2);
    config.max_results_per_location = (rng.next_u64() % (1 << 20)) as usize;
    config.dedupe_models = rng.next_u64().is_multiple_of(2);
    config.max_models_per_location = (rng.next_u64() % (1 << 20)) as usize;
    config.vm.max_steps = pick_u64(rng);
    config.vm.max_depth = (rng.next_u64() % (1 << 20)) as usize;
    config.trace.observe_freed = rng.next_u64().is_multiple_of(2);
    config.verify = rng.next_u64().is_multiple_of(2).then(|| VerifySettings {
        prover: VerifyConfig {
            fuel: rng.next_u64() as u32,
            max_depth: rng.next_u64() as u32,
            max_models: (rng.next_u64() % (1 << 20)) as usize,
            max_references: (rng.next_u64() % (1 << 20)) as usize,
        },
        cegir_rounds: (rng.next_u64() % 16) as usize,
    });
    config
}

fn arb_request(rng: &mut TestRng) -> AnalysisRequest {
    let hostile_names = [
        "plain",
        "with space",
        "quo\"te",
        "esc\\ape",
        "multi\nline\ttabs",
        "",
    ];
    let name = hostile_names[(rng.next_u64() % hostile_names.len() as u64) as usize];
    let mut request = AnalysisRequest::new(name);
    for _ in 0..(rng.next_u64() % 3) {
        request = request.input(arb_input_spec(rng));
    }
    // Half the requests carry a per-request config override (sling5's
    // `cfg` slot), half ride the engine default (`-`).
    if rng.next_u64().is_multiple_of(2) {
        request = request.config(arb_config(rng));
    }
    request
}

/// Hostile-but-encodable program/predicate sources: quoting, escapes,
/// newlines, emptiness — the text codec must carry them unharmed.
fn arb_upload(rng: &mut TestRng) -> ProgramUpload {
    let sources = [
        "",
        "fn broken( {",
        "struct N { next: N*; }\nfn id(x: N*) -> N* { return x; }",
        "quo\"te \\esc\\ape\ttabs",
        "line one\nline two\r\nline three",
    ];
    ProgramUpload {
        program: sources[(rng.next_u64() % sources.len() as u64) as usize].to_string(),
        predicates: sources[(rng.next_u64() % sources.len() as u64) as usize].to_string(),
    }
}

fn arb_cache_stats(rng: &mut TestRng) -> CacheStats {
    CacheStats {
        hits: pick_u64(rng),
        warm_hits: pick_u64(rng),
        misses: pick_u64(rng),
        entries: pick_u64(rng),
        evictions: pick_u64(rng),
        resident_bytes: pick_u64(rng),
    }
}

fn arb_metrics(rng: &mut TestRng) -> RunMetrics {
    RunMetrics {
        traces: (rng.next_u64() % (1 << 20)) as usize,
        runs: (rng.next_u64() % (1 << 20)) as usize,
        faulted_runs: (rng.next_u64() % (1 << 20)) as usize,
        workers: (rng.next_u64() % 256) as usize,
        // Arbitrary bit patterns, including NaNs and infinities: the
        // codec ships IEEE bits, so all must survive exactly.
        seconds: f64::from_bits(pick_u64(rng)),
        verified: (rng.next_u64() % (1 << 20)) as usize,
        refuted: (rng.next_u64() % (1 << 20)) as usize,
        confirmed: (rng.next_u64() % (1 << 20)) as usize,
        unknown: (rng.next_u64() % (1 << 20)) as usize,
        refuted_initial: (rng.next_u64() % (1 << 20)) as usize,
        cegir_rounds: (rng.next_u64() % 16) as usize,
        verify_seconds: f64::from_bits(pick_u64(rng)),
        collect_seconds: f64::from_bits(pick_u64(rng)),
        static_warnings: (rng.next_u64() % (1 << 20)) as usize,
    }
}

fn arb_diagnostic(rng: &mut TestRng) -> Diagnostic {
    let codes = ["SA001", "SA003", "SA006", "SL001", "quo\"te", ""];
    let texts = ["", "plain", "with space", "esc\\ape\ttabs", "multi\nline"];
    let pick_text = |rng: &mut TestRng| -> String {
        texts[(rng.next_u64() % texts.len() as u64) as usize].to_string()
    };
    Diagnostic {
        code: codes[(rng.next_u64() % codes.len() as u64) as usize].to_string(),
        severity: if rng.next_u64().is_multiple_of(2) {
            Severity::Warning
        } else {
            Severity::Deny
        },
        function: rng
            .next_u64()
            .is_multiple_of(2)
            .then(|| Symbol::intern(&format!("wp_fn{}", rng.next_u64() % 4))),
        span: Span::new(
            (rng.next_u64() % 1000) as u32,
            (rng.next_u64() >> 16) as u32,
        ),
        message: pick_text(rng),
        notes: (0..rng.next_u64() % 3).map(|_| pick_text(rng)).collect(),
    }
}

fn arb_location(rng: &mut TestRng) -> Location {
    match rng.next_u64() % 4 {
        0 => Location::Entry,
        1 => Location::Exit((rng.next_u64() % 16) as usize),
        2 => Location::Label(Symbol::intern(&format!("lbl{}", rng.next_u64() % 8))),
        _ => Location::LoopHead(Symbol::intern(&format!("loop{}", rng.next_u64() % 8))),
    }
}

/// A formula pool normalized to print/parse fixpoints, so decoded
/// formulas are `Debug`-identical to the originals.
fn formula_pool() -> Vec<SymHeap> {
    [
        "emp & x == nil",
        "wplist(x)",
        "wpseg(x, y) * wplist(y)",
        "exists u. x -> WpNode0{next: u} * wplist(u)",
        "exists u, d. x -> WpNode1{next: u, data: d} * wpseg(u, y) & x != y",
    ]
    .iter()
    .map(|text| {
        let parsed = parse_formula(text).expect("pool parses");
        parse_formula(&parsed.to_string()).expect("printer round-trips")
    })
    .collect()
}

fn arb_heap(rng: &mut TestRng) -> Heap {
    let mut heap = Heap::new();
    for _ in 0..(rng.next_u64() % 4) {
        let loc = Loc::new(1 + rng.next_u64() % 1000); // 0 is nil, reserved
        let nfields = 1 + rng.next_u64() % 3;
        let fields = (0..nfields)
            .map(|_| match rng.next_u64() % 3 {
                0 => Val::Nil,
                1 => Val::Int(pick_i64(rng)),
                _ => Val::Addr(Loc::new(1 + rng.next_u64() % 1000)),
            })
            .collect();
        heap.insert(
            loc,
            HeapCell::new(
                Symbol::intern(&format!("WpNode{}", rng.next_u64() % 2)),
                fields,
            ),
        );
    }
    heap
}

fn arb_invariant(rng: &mut TestRng, pool: &[SymHeap]) -> Invariant {
    Invariant {
        location: arb_location(rng),
        formula: pool[(rng.next_u64() % pool.len() as u64) as usize].clone(),
        residues: (0..rng.next_u64() % 3).map(|_| arb_heap(rng)).collect(),
        activations: (0..rng.next_u64() % 5).map(|_| pick_u64(rng)).collect(),
        stats: InvariantStats {
            singletons: (rng.next_u64() % 16) as usize,
            preds: (rng.next_u64() % 16) as usize,
            pures: (rng.next_u64() % 16) as usize,
        },
        spurious: rng.next_u64().is_multiple_of(2),
        grade: match rng.next_u64() % 5 {
            0 => InvariantGrade::Ungraded,
            1 => InvariantGrade::Verified,
            2 => InvariantGrade::Refuted,
            3 => InvariantGrade::Confirmed,
            _ => InvariantGrade::Unknown,
        },
    }
}

fn arb_report(rng: &mut TestRng, pool: &[SymHeap]) -> Report {
    Report {
        target: Symbol::intern(&format!(
            "fn {} \"{}\"",
            rng.next_u64() % 8,
            rng.next_u64() % 8
        )),
        locations: (0..rng.next_u64() % 4)
            .map(|_| LocationAnalysis {
                location: arb_location(rng),
                invariants: (0..rng.next_u64() % 3)
                    .map(|_| arb_invariant(rng, pool))
                    .collect(),
                models_used: (rng.next_u64() % 64) as usize,
                snapshots_seen: (rng.next_u64() % 64) as usize,
                tainted: rng.next_u64().is_multiple_of(2),
            })
            .collect(),
        declared_locations: (0..rng.next_u64() % 4).map(|_| arb_location(rng)).collect(),
        metrics: arb_metrics(rng),
        cache: arb_cache_stats(rng),
        static_warnings: (0..rng.next_u64() % 3)
            .map(|_| arb_diagnostic(rng))
            .collect(),
        unreachable_locations: (0..rng.next_u64() % 3).map(|_| arb_location(rng)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary spec-built requests round-trip Debug-identically, and
    /// the decoded specs materialize bit-identical inputs.
    #[test]
    fn requests_round_trip(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-req", case);
        let request = arb_request(&mut rng);
        let line = wire::encode_request(&request).expect("specs always encode");
        let back = wire::decode_request(&line).expect("valid frames decode");
        prop_assert_eq!(format!("{back:?}"), format!("{request:?}"));
    }

    /// Arbitrary cache stats round-trip value-identically (all six
    /// counters, extremes included).
    #[test]
    fn cache_stats_round_trip(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-stats", case);
        let stats = arb_cache_stats(&mut rng);
        let mut w = WireWriter::new();
        wire::write_cache_stats(&mut w, &stats);
        let line = w.finish();
        let mut r = WireReader::new(&line);
        let back = wire::read_cache_stats(&mut r).expect("round trip decodes");
        r.finish().expect("no trailing tokens");
        prop_assert_eq!(back, stats);
    }

    /// Arbitrary metrics round-trip with exact `f64` bits — NaN
    /// payloads and infinities included.
    #[test]
    fn metrics_round_trip_bit_exact(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-metrics", case);
        let metrics = arb_metrics(&mut rng);
        let mut w = WireWriter::new();
        wire::write_metrics(&mut w, &metrics);
        let line = w.finish();
        let mut r = WireReader::new(&line);
        let back = wire::read_metrics(&mut r).expect("round trip decodes");
        r.finish().expect("no trailing tokens");
        prop_assert_eq!(back.seconds.to_bits(), metrics.seconds.to_bits());
        prop_assert_eq!(back.verify_seconds.to_bits(), metrics.verify_seconds.to_bits());
        prop_assert_eq!(
            (back.traces, back.runs, back.faulted_runs, back.workers),
            (metrics.traces, metrics.runs, metrics.faulted_runs, metrics.workers)
        );
        prop_assert_eq!(
            (back.verified, back.refuted, back.confirmed, back.unknown),
            (metrics.verified, metrics.refuted, metrics.confirmed, metrics.unknown)
        );
        prop_assert_eq!(
            (back.refuted_initial, back.cegir_rounds),
            (metrics.refuted_initial, metrics.cegir_rounds)
        );
    }

    /// Arbitrary synthetic reports — hostile target names, random
    /// residue heaps, extreme counters — round-trip Debug-identically.
    #[test]
    fn reports_round_trip(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-report", case);
        let pool = formula_pool();
        let report = arb_report(&mut rng, &pool);
        let line = wire::encode_report(&report);
        let back = wire::decode_report(&line).expect("valid frames decode");
        prop_assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }

    /// `analyze` frames round-trip Debug-identically with and without
    /// an uploaded tenant — hostile sources, per-request config
    /// overrides, extreme batch ids included.
    #[test]
    fn analyze_frames_round_trip(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-analyze", case);
        let id = pick_u64(&mut rng);
        let upload = rng.next_u64().is_multiple_of(2).then(|| arb_upload(&mut rng));
        let requests: Vec<AnalysisRequest> =
            (0..rng.next_u64() % 3).map(|_| arb_request(&mut rng)).collect();
        let line = encode_analyze_frame(id, upload.as_ref(), &requests)
            .expect("spec-built requests always encode");
        let back = ClientFrame::decode(&line).expect("valid frames decode");
        let expected = ClientFrame::Analyze { id, upload, requests };
        prop_assert_eq!(format!("{back:?}"), format!("{expected:?}"));
        prop_assert_eq!(ClientFrame::salvage_id(&line), id);
    }

    /// Every frame shape tagged with the previous protocol version is
    /// rejected as `WireError::Version` carrying the found tag — old
    /// clients get a typed refusal, not a misparse of the new grammar.
    #[test]
    fn previous_protocol_versions_are_rejected_typed(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-downlevel", case);
        let pool = formula_pool();
        let request_line =
            wire::encode_request(&arb_request(&mut rng)).expect("specs always encode");
        let report_line = wire::encode_report(&arb_report(&mut rng, &pool));
        let upload = arb_upload(&mut rng);
        let analyze_line = encode_analyze_frame(pick_u64(&mut rng), Some(&upload), &[])
            .expect("upload-only frames encode");
        for old in ["sling8", "sling7", "sling6", "sling5", "sling4", "sling3", "sling2", "sling1"] {
            let downlevel = |line: &str| line.replacen(wire::WIRE_VERSION, old, 1);
            prop_assert!(matches!(
                wire::decode_request(&downlevel(&request_line)),
                Err(WireError::Version(v)) if v == old
            ));
            prop_assert!(matches!(
                wire::decode_report(&downlevel(&report_line)),
                Err(WireError::Version(v)) if v == old
            ));
            prop_assert!(matches!(
                ClientFrame::decode(&downlevel(&analyze_line)),
                Err(WireError::Version(v)) if v == old
            ));
        }
    }

    /// Byte-level mutations of valid frames never panic the decoder:
    /// every outcome is a clean `Ok` (the mutation landed somewhere
    /// harmless) or a typed `WireError`.
    #[test]
    fn mutated_frames_never_panic(case in 0u64..1_000_000) {
        let mut rng = rng_for("wire-mutate", case);
        let pool = formula_pool();
        let report_line = wire::encode_report(&arb_report(&mut rng, &pool));
        let request_line =
            wire::encode_request(&arb_request(&mut rng)).expect("specs always encode");
        let upload = arb_upload(&mut rng);
        let analyze_line = encode_analyze_frame(
            pick_u64(&mut rng),
            Some(&upload),
            &[arb_request(&mut rng)],
        )
        .expect("specs always encode");
        for line in [report_line, request_line, analyze_line] {
            let mut bytes = line.clone().into_bytes();
            for _ in 0..8 {
                match rng.next_u64() % 3 {
                    0 if !bytes.is_empty() => {
                        // Overwrite one byte with an arbitrary one.
                        let at = (rng.next_u64() % bytes.len() as u64) as usize;
                        bytes[at] = (rng.next_u64() & 0xff) as u8;
                    }
                    1 if !bytes.is_empty() => {
                        // Truncate at an arbitrary point.
                        let at = (rng.next_u64() % bytes.len() as u64) as usize;
                        bytes.truncate(at);
                    }
                    _ => {
                        // Insert an arbitrary byte.
                        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
                        bytes.insert(at, (rng.next_u64() & 0xff) as u8);
                    }
                }
                let mutated = String::from_utf8_lossy(&bytes).into_owned();
                // Every decoder entry point must return, not panic;
                // errors must be the typed WireError (guaranteed by the
                // signature — the assertion is that we get here at all).
                let _ = wire::decode_report(&mutated);
                let _ = wire::decode_request(&mutated);
                let _ = ClientFrame::decode(&mutated);
                let _ = ClientFrame::salvage_id(&mutated);
            }
        }
    }
}

/// The report encoder asserts (debug builds) that atoms stay bare; the
/// public writer API must uphold it for every value the proptests
/// generate. This spot-checks the token layer against quoting abuse.
#[test]
fn token_layer_handles_hostile_strings() {
    let hostile = "a\\b\"c\nd\re\tf g";
    let mut w = WireWriter::new();
    w.text(hostile);
    let line = w.finish();
    let mut r = WireReader::new(&line);
    assert_eq!(r.text().unwrap(), hostile);
    r.finish().unwrap();
}
