//! Stack safety of trace collection on every thread that runs it.
//!
//! The tree-walk interpreter recurses natively, a few Rust frames per
//! MiniC activation, and the default depth limit of 2,000 activations
//! needs more native stack than a standard 2 MiB thread has. Engine
//! workers (`analyze_all` fan-out) and serve connection handlers run on
//! such threads. These tests pin that collection brings its own stack:
//! deep corpus recursion gives the same report on any calling thread,
//! and a runaway-recursive upload comes back as typed faulted runs, or
//! as a typed error when its depth limit is out of range, while the
//! daemon keeps serving.

use std::fmt::Write as _;

use sling::{AnalysisRequest, Engine, InputSpec, Report, SlingConfig, ValueSpec};
use sling_serve::{
    Client, EnginePool, PoolSettings, ProgramUpload, ServeError, ServeOptions, Service,
};
use sling_suite::corpus::all_benches;
use sling_suite::eval::{compile, EvalConfig};
use sling_suite::predicates::pred_env;

/// Everything formula-relevant about a report (timing and cache deltas
/// legitimately differ between runs on different threads or processes).
fn fingerprint(report: &Report) -> String {
    let mut out = format!(
        "{} runs={} faulted={} traces={}\n",
        report.target, report.metrics.runs, report.metrics.faulted_runs, report.metrics.traces
    );
    for loc in &report.locations {
        let _ = writeln!(out, "  {} snaps={}", loc.location, loc.snapshots_seen);
        for inv in &loc.invariants {
            let _ = writeln!(out, "    [{}|{}] {}", inv.spurious, inv.grade, inv.formula);
        }
    }
    out
}

/// `sorted/mergeSort` recurses deep enough that, collected on a 2 MiB
/// thread, it used to abort the whole process. Through `analyze_all` at
/// two workers (one request on a spawned worker thread) and through a
/// loopback daemon (collection on a connection handler thread) it must
/// give the report a plain `analyze` gives.
#[test]
fn merge_sort_reports_match_on_batch_workers_and_serve_handlers() {
    let bench = all_benches()
        .into_iter()
        .find(|b| b.name == "sorted/mergeSort")
        .unwrap();
    let config = EvalConfig::default();
    let engine = |workers| {
        Engine::builder()
            .program(compile(&bench))
            .pred_env(pred_env(bench.category))
            .config(config.sling)
            .parallelism(workers)
            .build()
            .unwrap()
    };
    let request = AnalysisRequest::new(bench.target).inputs(bench.inputs(config.seed));
    let reference = fingerprint(&engine(1).analyze(&request).unwrap());

    let batch = engine(2).analyze_all([&request, &request]).unwrap();
    for report in &batch.reports {
        assert_eq!(fingerprint(report), reference, "analyze_all at 2 workers");
    }

    let service = Service::bind(engine(2), "127.0.0.1:0").expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("connects");
    let served = client.analyze_all(std::slice::from_ref(&request)).unwrap();
    assert_eq!(fingerprint(&served.reports[0]), reference, "served");
}

/// A served upload that recurses forever, under a depth override past
/// the default: every run faults at the depth limit (one entry
/// snapshot per activation) instead of taking the daemon down. A depth
/// whose collection stack cannot be reserved is refused typed, and the
/// pool still answers the next request.
#[test]
fn runaway_recursive_upload_faults_typed_and_the_pool_keeps_serving() {
    let upload = ProgramUpload {
        program: "struct SsNode { next: SsNode*; }
                  fn spin(x: SsNode*) -> SsNode* { return spin(x); }"
            .into(),
        predicates: "pred ssls(x: SsNode*) := emp & x == nil
                       | exists u. x -> SsNode{next: u} * ssls(u);"
            .into(),
    };
    let pool = EnginePool::new(None, 2, PoolSettings::default());
    let service =
        Service::bind_pool(pool, "127.0.0.1:0", ServeOptions::default()).expect("service binds");
    let mut client = Client::connect(service.local_addr()).expect("connects");
    let request = |max_depth| {
        let mut config = SlingConfig::default();
        config.vm.max_depth = max_depth;
        AnalysisRequest::new("spin")
            .config(config)
            .input(InputSpec::seeded(1).arg(ValueSpec::nil()))
            .input(InputSpec::seeded(2).arg(ValueSpec::nil()))
    };

    let depth = 3_000;
    let served = client
        .analyze_all_uploaded(&upload, &[request(depth)])
        .expect("runaway recursion is a faulted run, not a dead daemon");
    let metrics = &served.reports[0].metrics;
    assert_eq!((metrics.runs, metrics.faulted_runs), (2, 2), "{metrics:?}");
    assert_eq!(
        metrics.traces,
        2 * depth,
        "each run stops at the depth limit"
    );

    match client.analyze_all_uploaded(&upload, &[request(1 << 40)]) {
        Err(ServeError::Remote(message)) => {
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("an impossible depth must fail typed, got {other:?}"),
    }
    client.ping().expect("connection survives the refusal");
    let again = client
        .analyze_all_uploaded(&upload, &[request(10)])
        .expect("the pool still serves");
    assert_eq!(again.reports[0].metrics.traces, 2 * 10);
}
