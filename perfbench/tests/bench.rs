//! The benchmark's own tests: a filtered smoke run of every workload,
//! the output check against corrupted reports, and repeatable checker
//! counts. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use sling::{InvariantGrade, SlingConfig};
use sling_logic::SymHeap;
use sling_perfbench::{
    analyze_timed, check, corpus, pin_environment, run, trace, Fleet, Output, Workload,
    DEFAULT_SEED,
};

/// Small enough for a smoke run: the 8-program SLL category.
const SMOKE: &str = "sll";

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
                Some(rest[..rest.find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn assert_prints(json: &str, metrics: &[(String, String)]) {
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let value = json
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("`{name}` missing from {json}"));
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        assert!(
            json[value..].starts_with(&format!("\"{name}\""))
                && json[value..].contains(&unit_field),
            "`{name}` printed without unit `{unit}`: {json}"
        );
    }
}

#[test]
fn smoke_run_of_every_workload_prints_every_metric() {
    pin_environment();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let outcome = run(workload, DEFAULT_SEED, 0.0, Some(SMOKE));
        // `verify` is not in `BENCHMARK.json`; it prints the declared
        // metrics plus its own.
        let extra = usize::from(workload.verifies());
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
        assert_eq!(outcome.attempted, 8, "one pass over the SLL category");
        assert_eq!(outcome.metrics.len(), end_to_end.len() + extra);
        assert_prints(&outcome.to_json(), &end_to_end);

        let traced = trace::run(workload, DEFAULT_SEED, Some(SMOKE));
        assert!(
            traced.correct,
            "{} traced: {:?}",
            workload.name(),
            traced.notes
        );
        assert_eq!(traced.metrics.len(), per_layer.len() + 8 * extra);
        assert_prints(&traced.to_json(), &per_layer);
    }
}

#[test]
fn output_check_rejects_a_corrupted_report() {
    pin_environment();
    let items = corpus(DEFAULT_SEED, Some("sll/reverse"));
    assert_eq!(items.len(), 1);
    let fleet = Fleet::build(&items, SlingConfig::default(), 1);
    let report = analyze_timed(&fleet.engines[0], &items[0].request)
        .outcome
        .expect("sll/reverse analyses");
    let reference = Output::of(&report);
    let outcome = Ok(report.clone());
    assert_eq!(
        check(Workload::CorpusParallel, &outcome, Some(&reference)),
        Ok(())
    );

    // One mutated formula.
    let mut corrupted = report.clone();
    let inv = corrupted
        .locations
        .iter_mut()
        .flat_map(|l| &mut l.invariants)
        .find(|i| i.formula != SymHeap::emp())
        .expect("a non-empty invariant");
    inv.formula = SymHeap::emp();
    assert!(check(Workload::CorpusParallel, &Ok(corrupted), Some(&reference)).is_err());

    // One flipped spurious flag.
    let mut corrupted = report.clone();
    let inv = &mut corrupted.locations[0].invariants[0];
    inv.spurious = !inv.spurious;
    assert!(check(Workload::CorpusParallel, &Ok(corrupted), Some(&reference)).is_err());

    // A surviving refutation fails `verify` even with no reference.
    let mut corrupted = report;
    corrupted.locations[0].invariants[0].grade = InvariantGrade::Refuted;
    assert!(check(Workload::Verify, &Ok(corrupted), None).is_err());

    // An analysis that returned an error fails every workload.
    let failed = Err("analyze error".to_string());
    for workload in Workload::ALL {
        assert!(check(workload, &failed, None).is_err());
    }
}

#[test]
fn checker_counts_repeat_exactly_at_parallelism_one() {
    pin_environment();
    let items = corpus(DEFAULT_SEED, Some(SMOKE));
    let counts = || {
        let fleet = Fleet::build(&items, SlingConfig::default(), 1);
        for (engine, item) in fleet.engines.iter().zip(&items) {
            analyze_timed(engine, &item.request)
                .outcome
                .expect("SLL programs analyse");
        }
        let stats = fleet.cache_stats();
        (stats.lookups(), stats.hits, stats.misses, stats.entries)
    };
    let first = counts();
    assert!(first.0 > 0 && first.1 > 0);
    assert_eq!(first, counts());
}
