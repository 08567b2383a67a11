//! The SLING corpus benchmark.
//!
//! Every workload runs the 157-program Table 1 corpus through the public
//! [`sling::Engine`] API, one engine per program and one shared
//! [`CheckCache`] per category, as the Table 1 harness does. The load is
//! a closed loop from one caller: each program's [`Engine::analyze`] is
//! issued after the previous one returns, and one sample is one such
//! call. The workload seed reaches the program only through
//! [`Bench::inputs`].
//!
//! [`run`] is the timed, untraced run; [`trace::run`] is the separate
//! traced run that reports per-layer numbers.

pub mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use sling::{
    AnalysisRequest, CheckCache, Engine, InvariantGrade, LocationAnalysis, Report, SlingConfig,
    VerifySettings,
};
use sling_suite::corpus::all_benches;
use sling_suite::eval::{compile, sling_finds};
use sling_suite::predicates::pred_env;
use sling_suite::{Bench, BugKind, Category};

/// The harness's seed (`EvalConfig::default`), used when none is given.
pub const DEFAULT_SEED: u64 = 0x51_1e6;

/// Environment variables that would silently change workers, executor or
/// grading; [`pin_environment`] clears them.
pub const PINNED_ENV: [&str; 3] = ["SLING_PARALLELISM", "SLING_EXECUTOR", "SLING_VERIFY"];

/// A run times about [`SETUP_SAMPLES`] samples of [`BUILDS_PER_SAMPLE`]
/// engine fleet builds each, spread evenly over its first pass; `setup_s`
/// is the median over the samples of the mean build time within one. One
/// build takes about 10 ms, so a single build's time swings with the
/// allocator; five in a row do not. The host's speed switches between a
/// fast and a slow state that last from one to several seconds, so
/// samples taken back to back see one state only, while samples spread
/// over the pass see the same mix as the timed calls.
const SETUP_SAMPLES: usize = 21;
/// Fleet builds per set-up sample; see [`SETUP_SAMPLES`].
const BUILDS_PER_SAMPLE: usize = 5;

/// Clears [`PINNED_ENV`], so parallelism is set only through
/// `EngineBuilder::parallelism` and verification only through the
/// workload's config. Call before any engine is built.
pub fn pin_environment() {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1: verification off, one worker, fresh caches every pass.
    CorpusCold,
    /// As `CorpusCold`, with `nproc` engine workers.
    CorpusParallel,
    /// As `CorpusCold`, with the default verification and CEGIR settings.
    /// Not listed in `BENCHMARK.json`: at some seeds an invariant stays
    /// `Refuted` after the last CEGIR round, which fails the check (see
    /// `perfbench/README.md`).
    Verify,
}

impl Workload {
    /// Every workload: those of `BENCHMARK.json` in its order, then
    /// `verify`.
    pub const ALL: [Workload; 3] = [
        Workload::CorpusCold,
        Workload::CorpusParallel,
        Workload::Verify,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus_cold",
            Workload::CorpusParallel => "corpus_parallel",
            Workload::Verify => "verify",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine worker count.
    pub fn workers(self) -> usize {
        match self {
            Workload::CorpusParallel => nproc(),
            _ => 1,
        }
    }

    /// Whether the verification post-pass runs.
    pub fn verifies(self) -> bool {
        self == Workload::Verify
    }

    /// The engine configuration.
    pub fn config(self) -> SlingConfig {
        SlingConfig {
            verify: self.verifies().then(VerifySettings::default),
            ..SlingConfig::default()
        }
    }
}

/// One corpus program and its analysis request.
#[derive(Debug, Clone)]
pub struct Item {
    /// The program.
    pub bench: Bench,
    /// Its target and inputs at the workload seed.
    pub request: AnalysisRequest,
}

/// The corpus at `seed`, optionally restricted to the programs whose
/// category label is `filter` or whose name starts with it (ignoring
/// case): `sll` selects the SLL category, `dll/concat` one program.
pub fn corpus(seed: u64, filter: Option<&str>) -> Vec<Item> {
    let filter = filter.map(str::to_lowercase);
    all_benches()
        .into_iter()
        .filter(|b| {
            filter.as_deref().is_none_or(|f| {
                b.category.label().to_lowercase() == f || b.name.to_lowercase().starts_with(f)
            })
        })
        .map(|bench| {
            let request = AnalysisRequest::new(bench.target).inputs(bench.inputs(seed));
            Item { bench, request }
        })
        .collect()
}

/// One engine per program; programs of a category share one cache.
pub struct Fleet {
    /// Engines, parallel to the items they were built for.
    pub engines: Vec<Engine>,
    /// The per-category caches.
    pub caches: BTreeMap<Category, Arc<CheckCache>>,
}

/// Builds one engine for `bench` on `cache`.
///
/// # Panics
///
/// Panics if a corpus program fails to build (the corpus tests rule
/// that out).
pub fn build_engine(
    bench: &Bench,
    config: SlingConfig,
    workers: usize,
    cache: Arc<CheckCache>,
) -> Engine {
    Engine::builder()
        .program(compile(bench))
        .pred_env(pred_env(bench.category))
        .config(config)
        .shared_cache(cache)
        .parallelism(workers)
        .build()
        .unwrap_or_else(|e| panic!("{}: engine build error: {e}", bench.name))
}

impl Fleet {
    /// Builds engines for `items` on fresh per-category caches.
    pub fn build(items: &[Item], config: SlingConfig, workers: usize) -> Fleet {
        let mut caches: BTreeMap<Category, Arc<CheckCache>> = BTreeMap::new();
        let engines = items
            .iter()
            .map(|item| {
                let cache = caches.entry(item.bench.category).or_default();
                build_engine(&item.bench, config, workers, Arc::clone(cache))
            })
            .collect();
        Fleet { engines, caches }
    }

    /// Counters summed over the category caches.
    pub fn cache_stats(&self) -> sling::CacheStats {
        cache_totals(self.caches.values())
    }
}

/// Hits, misses, entries, evictions and resident bytes summed over
/// `caches`.
pub fn cache_totals<'a>(
    caches: impl IntoIterator<Item = &'a Arc<CheckCache>>,
) -> sling::CacheStats {
    let mut sum = sling::CacheStats::default();
    for cache in caches {
        let s = cache.stats();
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.entries += s.entries;
        sum.evictions += s.evictions;
        sum.resident_bytes += s.resident_bytes;
    }
    sum
}

/// One set-up sample: builds and drops the fleet [`BUILDS_PER_SAMPLE`]
/// times; returns the mean build time, in seconds.
pub fn time_fleet_builds(items: &[Item], config: SlingConfig, workers: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..BUILDS_PER_SAMPLE {
        drop(Fleet::build(items, config, workers));
    }
    start.elapsed().as_secs_f64() / BUILDS_PER_SAMPLE as f64
}

/// An invariant as the output check sees it: formula, spurious flag and
/// grade.
pub type InvariantKey = (String, bool, InvariantGrade);

/// What the output check compares: per reached location, every
/// invariant's formula, spurious flag and grade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output(pub Vec<(String, Vec<InvariantKey>)>);

impl Output {
    /// The comparable part of `report`.
    pub fn of(report: &Report) -> Output {
        Output::of_locations(&report.locations)
    }

    /// The comparable part of per-location analyses.
    pub fn of_locations(locations: &[LocationAnalysis]) -> Output {
        Output(
            locations
                .iter()
                .map(|l| {
                    let invs = l
                        .invariants
                        .iter()
                        .map(|i| (i.formula.to_string(), i.spurious, i.grade))
                        .collect();
                    (l.location.to_string(), invs)
                })
                .collect(),
        )
    }
}

/// One timed `Engine::analyze` call.
pub struct Sample {
    /// Wall time of the call.
    pub seconds: f64,
    /// The report, or why there is none (an error or a panic).
    pub outcome: Result<Report, String>,
}

/// Calls `engine.analyze(request)` under a timer, catching panics.
pub fn analyze_timed(engine: &Engine, request: &AnalysisRequest) -> Sample {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| engine.analyze(request)));
    let seconds = start.elapsed().as_secs_f64();
    let outcome = match result {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("analyze error: {e}")),
        Err(panic) => Err(format!("panic: {}", panic_message(&panic))),
    };
    Sample { seconds, outcome }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string payload".into())
}

/// The output check for one analysis. `reference` is the same program's
/// output from a run this one must reproduce (for `corpus_parallel`, a
/// sequential pass on caches of its own; see [`trace::run`]).
///
/// # Errors
///
/// Returns why the analysis counts as failed.
pub fn check(
    workload: Workload,
    outcome: &Result<Report, String>,
    reference: Option<&Output>,
) -> Result<(), String> {
    let report = outcome.as_ref().map_err(Clone::clone)?;
    if workload.verifies() {
        let refuted = report.graded_count(InvariantGrade::Refuted);
        if refuted > 0 {
            return Err(format!("{refuted} invariant(s) still refuted"));
        }
    }
    if let Some(reference) = reference {
        if Output::of(report) != *reference {
            return Err("output differs from the reference run".into());
        }
    }
    Ok(())
}

/// Documented properties of `bench` that `report` matches, under the
/// Table 1/2 rule that segfault (`∗`) programs count none.
pub fn props_found(bench: &Bench, report: &Report) -> usize {
    if bench.bug == Some(BugKind::Segfault) {
        return 0;
    }
    bench
        .properties
        .iter()
        .filter(|p| sling_finds(report, p))
        .count()
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every attempted analysis passed the output check.
    pub correct: bool,
    /// Analyses attempted.
    pub attempted: usize,
    /// Analyses that failed the output check.
    pub failed: usize,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result: settings and
    /// each failure.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Formats `x` for JSON; non-finite values (never expected) become
/// `null`.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The settings that make two results comparable.
pub fn context_line(workload: Workload, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"workers\": {}, \"verify\": {}}}",
        workload.name(),
        nproc(),
        workload.workers(),
        workload.verifies(),
    )
}

/// The median of `xs` (sorts in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (sorts in place); 0 for an empty slice.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed, untraced run of `workload`: set up, then whole corpus
/// passes until `seconds` have elapsed (at least one), checking every
/// analysis.
pub fn run(workload: Workload, seed: u64, seconds: f64, filter: Option<&str>) -> Outcome {
    let items = corpus(seed, filter);
    let config = workload.config();
    let workers = workload.workers();

    let mut fleet = Fleet::build(&items, config, workers);
    let setup_stride = items.len().div_ceil(SETUP_SAMPLES);
    let mut setup_times: Vec<f64> = Vec::with_capacity(SETUP_SAMPLES);

    let mut latencies: Vec<f64> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut failed = 0usize;
    let mut props = 0usize;
    let (mut invariants, mut unproven) = (0usize, 0usize);
    let mut passes = 0usize;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        if passes > 0 {
            // Every pass starts on fresh caches.
            drop(fleet);
            fleet = Fleet::build(&items, config, workers);
        }
        for (i, item) in items.iter().enumerate() {
            // Set-up samples, spread over the first pass outside the
            // timed calls; see `SETUP_SAMPLES`.
            if passes == 0 && i % setup_stride == 0 {
                setup_times.push(time_fleet_builds(&items, config, workers));
            }
            let sample = analyze_timed(&fleet.engines[i], &item.request);
            latencies.push(sample.seconds);
            if let Err(why) = check(workload, &sample.outcome, None) {
                failed += 1;
                notes.push(format!("FAILED {}: {why}", item.bench.name));
            }
            if let (0, Ok(report)) = (passes, &sample.outcome) {
                props += props_found(&item.bench, report);
                for inv in report.locations.iter().flat_map(|l| &l.invariants) {
                    invariants += 1;
                    if !matches!(
                        inv.grade,
                        InvariantGrade::Verified | InvariantGrade::Confirmed
                    ) {
                        unproven += 1;
                    }
                }
            }
        }
        passes += 1;
    }

    let attempted = latencies.len();
    let setup_s = median(&mut setup_times);
    let timed_s: f64 = latencies.iter().sum();
    notes.push(format!(
        "{attempted} analyses in {passes} pass(es), {timed_s:.3} s timed"
    ));
    let mut metrics = vec![
        Metric {
            name: "programs_per_s",
            value: attempted as f64 / timed_s,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_s",
            value: percentile(&mut latencies, 0.5),
            unit: "s",
        },
        Metric {
            name: "latency_p90_s",
            value: percentile(&mut latencies, 0.9),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
        Metric {
            name: "props_found",
            value: props as f64,
            unit: "count",
        },
        Metric {
            name: "ok_frac",
            value: (attempted - failed) as f64 / attempted as f64,
            unit: "ratio",
        },
    ];
    // With verification off every invariant is ungraded, so the fraction
    // would read 1 whatever the program does.
    if workload.verifies() {
        metrics.push(Metric {
            name: "unknown_frac",
            value: unproven as f64 / invariants.max(1) as f64,
            unit: "ratio",
        });
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}
