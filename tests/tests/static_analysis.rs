//! Cross-layer tests for the static diagnostics pass (`sling-analysis`):
//! corpus-wide agreement between static reachability and the dynamic
//! collector (a statically-unreachable breakpoint location is never
//! observed in any trace), a fuzz sweep of the
//! analyzer over randomly generated MiniC ASTs (no panics, fully
//! deterministic), and the serve-layer upload gate answering lint-dirty
//! programs with a typed `rejected` frame over `sling9`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sling::{analyze_program, collect_models, lint_codes, AnalysisSettings, Severity};
use sling_lang::{check_program, gen_program, parse_program, TraceConfig, VmConfig};
use sling_logic::Symbol;
use sling_serve::{
    Client, EnginePool, PoolSettings, ProgramUpload, ServeError, ServeOptions, Service,
};
use sling_suite::corpus::all_benches;

/// The corpus seed the evaluation harness uses (`EvalConfig::default`).
const SEED: u64 = 0x51_1e6;

/// The soundness half of the unreachable-location lint, checked against
/// the whole corpus: any breakpoint the CFG pass marks unreachable must
/// never appear in a dynamic trace. (The other
/// direction does not hold: a reachable location may still go unvisited
/// on the particular inputs drawn.)
#[test]
fn statically_unreachable_locations_never_observed_dynamically() {
    let benches = all_benches();
    assert!(benches.len() >= 150, "corpus shrank: {}", benches.len());
    for bench in &benches {
        let program = parse_program(bench.source)
            .unwrap_or_else(|e| panic!("{}: parse error: {e}", bench.name));
        check_program(&program).unwrap_or_else(|e| panic!("{}: type error: {e}", bench.name));
        let analysis = analyze_program(&program, &AnalysisSettings::default());
        let target = Symbol::intern(bench.target);
        let unreachable = analysis.unreachable_in(target);
        let collected = collect_models(
            &program,
            target,
            &bench.inputs(SEED),
            VmConfig::default(),
            TraceConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for run in &collected.runs {
            for snap in &run.snapshots {
                assert!(
                    !unreachable.contains(&snap.location),
                    "{}: statically-unreachable {} observed dynamically",
                    bench.name,
                    snap.location,
                );
            }
        }
    }
}

/// The upload gate end to end: a program whose only definite-null
/// dereference the lints catch is answered with a `rejected` frame
/// carrying structured diagnostics — typed code, deny severity, the
/// offending function — not a stringly `error` frame. The connection
/// and the pool survive, and a clean upload then serves.
#[test]
fn lint_dirty_upload_is_rejected_with_typed_diagnostics_over_the_wire() {
    let pool = EnginePool::new(None, 2, PoolSettings::default());
    let service =
        Service::bind_pool(pool, "127.0.0.1:0", ServeOptions::default()).expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("connects");

    // One fixture per deny lint: use-before-init (SA001), an
    // unreachable breakpoint label (SA006), a definite-null
    // dereference (SA007).
    let fixtures = [
        (
            lint_codes::USE_BEFORE_INIT,
            "fn f() -> int { var y: int; return y; }",
        ),
        (
            lint_codes::UNREACHABLE_LOCATION,
            "fn f() -> int { return 1; @dead; }",
        ),
        (
            lint_codes::NULL_DEREF,
            "struct SaNode { next: SaNode*; }
             fn f() -> SaNode* {
                 var p: SaNode* = null;
                 return p->next;
             }",
        ),
    ];
    let probe = sling::AnalysisRequest::new("f");
    for (code, program) in fixtures {
        let upload = ProgramUpload {
            program: program.into(),
            predicates: String::new(),
        };
        match client.analyze_all_uploaded(&upload, std::slice::from_ref(&probe)) {
            Err(ServeError::Rejected(diags)) => {
                assert!(diags.has_deny(), "{code}: findings carry no deny");
                let hit = diags
                    .iter()
                    .find(|d| d.code == code)
                    .unwrap_or_else(|| panic!("{code} missing from:\n{diags}"));
                assert_eq!(hit.severity, Severity::Deny);
                assert_eq!(hit.function, Some(Symbol::intern("f")));
            }
            other => panic!("{code}: expected Rejected, got {other:?}"),
        }
        client.ping().expect("connection survives the rejection");
    }

    // A clean program on the same connection builds and serves.
    let corpus = sling_suite::fixtures::ListCorpus::new("SaGateNode");
    let upload = ProgramUpload {
        program: corpus.program(),
        predicates: corpus.predicates(),
    };
    let served = client
        .analyze_all_uploaded(&upload, &corpus.batch(1))
        .expect("clean upload serves after three rejections");
    assert!(!served.reports.is_empty());
    let stats = client.pool_stats();
    assert_eq!(
        stats.resident, 1,
        "rejected uploads must not occupy pool slots: {stats:?}"
    );
    service.shutdown().expect("graceful drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analyzer accepts any tree the generator can produce — no
    /// panics — and is a pure function of the AST: analyzing the same
    /// seed's program twice yields identical diagnostics and identical
    /// unreachable sets.
    #[test]
    fn analyzer_never_panics_and_is_deterministic(seed in 0u64..1_000_000) {
        let settings = AnalysisSettings::default();
        let run = || {
            let program = gen_program(&mut StdRng::seed_from_u64(seed));
            analyze_program(&program, &settings)
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Every diagnostic is attributed to a function the program has.
        let program = gen_program(&mut StdRng::seed_from_u64(seed));
        for d in a.diagnostics.iter() {
            if let Some(func) = d.function {
                prop_assert!(program.func(func).is_some());
            }
        }
    }
}
