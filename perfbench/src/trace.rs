//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Each program is first analysed untraced on fresh caches, as the timed
//! run does, and then re-driven through the layers' public entry points
//! on fresh caches of its own, recording a span around each call: engine build, trace collection (the tree-walk `sling_lang::Vm`
//! with a `Tracer`), [`Engine::infer_at`] per location, [`validate_frame`],
//! and wire encode/decode of the untraced report. Each `infer_at` call is
//! made twice: cold, then again on the cache it filled, where every
//! lookup hits, so the repeat times cache key build, lookup and decode
//! without the search. The checker counters are the cache deltas around
//! the cold calls. Verification and CEGIR have no public entry point of
//! their own, so on `verify` the run reads their `RunMetrics` fields off
//! the untraced reports, and analyses each request once more without
//! verification, on caches of its own, to compare and time the re-driven
//! first round against and to separate first-round collection from CEGIR
//! re-collection.
//!
//! The tracing overhead is the re-driven wall time (collection, cold
//! `infer_at` calls, validation) minus the untraced `analyze` time of the
//! same requests. The two are taken program by program, back to back, so
//! a change in the machine's speed during the run falls on both.
//!
//! A program fails the check when its untraced report fails
//! [`crate::check`] (on `corpus_parallel`, against a sequential pass on
//! caches of its own), when its re-driven report differs from the
//! untraced one, when an `infer_at` repeat on the filled cache differs
//! from the cold call, or when its report changes under wire
//! encode/decode.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sling::wire::{decode_report, encode_report};
use sling::{validate_frame, CheckCache, Engine, LocationAnalysis, Report, SlingConfig};
use sling_lang::{Location, Snapshot, Tracer, Vm};
use sling_suite::Category;

use crate::{
    analyze_timed, build_engine, cache_totals, check, corpus, nproc, Fleet, Item, Metric, Outcome,
    Output, Workload,
};

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`engine.build`, `collect`, `infer`, ...).
    pub name: &'static str,
    /// The span this call ran inside (`None` for a program's root span).
    pub parent: Option<usize>,
    /// Start, in seconds since the traced pass began.
    pub start: f64,
    /// End, in seconds since the traced pass began.
    pub end: f64,
}

impl Span {
    /// Wall time of the call.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    fn record<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, start, end);
        out
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, start: f64, end: f64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Total wall time of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Per span name: call count, total time and self time (total minus
    /// the part of each span's interval its children cover; children of
    /// one span may overlap when they ran on several threads, so the
    /// covered part is the union of their intervals).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let covered = union_length(kids);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.seconds();
            entry.2 += s.seconds() - covered;
        }
        out
    }
}

fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Counters gathered at the same boundaries as the spans.
#[derive(Debug, Default)]
struct Counters {
    runs: usize,
    snapshots: usize,
    faulted_runs: usize,
    infer_calls: usize,
    infer_wall_s: f64,
    lookups: u64,
    hits: u64,
    misses: u64,
    validate_pairs: usize,
    validate_spurious: usize,
    verify_s: f64,
    recollect_s: f64,
    cegir_rounds: usize,
    refuted_initial: usize,
    grades: [usize; 4],
    wire_bytes: usize,
}

/// Collects `item`'s snapshots with the tree-walk interpreter, numbering
/// activations across runs as the engine does.
fn collect(engine: &Engine, item: &Item, counters: &mut Counters) -> Vec<Snapshot> {
    let config = engine.config();
    let target = item.request.target;
    let mut snapshots = Vec::new();
    let mut base = 0u64;
    for input in &item.request.inputs {
        let mut vm = Vm::new(engine.program(), config.vm);
        let args = input.build(&mut vm.heap);
        vm.set_tracer(Tracer::new(target, config.trace));
        let result = vm.call(target, &args);
        let mut run = vm.take_tracer().expect("tracer was installed").snapshots;
        for s in &mut run {
            s.activation += base;
        }
        base += vm.activations();
        counters.runs += 1;
        counters.faulted_runs += usize::from(result.is_err());
        counters.snapshots += run.len();
        snapshots.extend(run);
    }
    snapshots
}

type Timed = (Result<LocationAnalysis, String>, f64, f64);

/// Calls `infer_at` for every location, on `threads` threads pulling
/// locations from a shared cursor; results come back in location order
/// with each call's start and end.
fn infer_locations(
    engine: &Engine,
    item: &Item,
    by_loc: &[(Location, Vec<&Snapshot>)],
    threads: usize,
    spans: &Spans,
) -> Vec<Timed> {
    let call = |i: usize| -> Timed {
        let (loc, snaps) = &by_loc[i];
        let start = spans.now();
        let result = engine
            .infer_at(item.request.target, *loc, snaps)
            .map_err(|e| format!("infer_at {loc}: {e}"));
        (result, start, spans.now())
    };
    if threads <= 1 {
        return (0..by_loc.len()).map(call).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Timed>>> = Mutex::new(vec![None; by_loc.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(by_loc.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= by_loc.len() {
                    break;
                }
                let timed = call(i);
                slots.lock().expect("no thread panics holding the slots")[i] = Some(timed);
            });
        }
    });
    slots
        .into_inner()
        .expect("no thread panics holding the slots")
        .into_iter()
        .map(|t| t.expect("every location was inferred"))
        .collect()
}

/// Frame-rule validation as the pipeline applies it: an exit invariant
/// that preserves no entry invariant's frame is spurious.
fn validate(locations: &mut [LocationAnalysis], counters: &mut Counters) {
    let Some(entry) = locations
        .iter()
        .find(|l| l.location == Location::Entry)
        .cloned()
    else {
        return;
    };
    for analysis in locations.iter_mut() {
        if !matches!(analysis.location, Location::Exit(_)) {
            continue;
        }
        for inv in &mut analysis.invariants {
            let ok = entry.invariants.iter().any(|pre| {
                counters.validate_pairs += 1;
                validate_frame(pre, inv)
            });
            if !ok {
                inv.spurious = true;
                counters.validate_spurious += 1;
            }
        }
    }
}

/// The per-program part of the traced pass. `expected` is the untraced
/// report the re-driven one must reproduce. Returns why the program fails
/// the check, if it does.
fn trace_program(
    item: &Item,
    untraced: &Report,
    expected: &Report,
    workload: Workload,
    cache: Arc<CheckCache>,
    spans: &mut Spans,
    counters: &mut Counters,
) -> Result<(), String> {
    let start = spans.now();
    let root = spans.push("program", None, start, start);
    let verdict = catch_unwind(AssertUnwindSafe(|| {
        redrive(
            root, item, untraced, expected, workload, cache, spans, counters,
        )
    }))
    .unwrap_or_else(|_| Err("panic in the traced pass".into()));
    spans.spans[root].end = spans.now();
    verdict
}

#[allow(clippy::too_many_arguments)]
fn redrive(
    root: usize,
    item: &Item,
    untraced: &Report,
    expected: &Report,
    workload: Workload,
    cache: Arc<CheckCache>,
    spans: &mut Spans,
    counters: &mut Counters,
) -> Result<(), String> {
    let threads = workload.workers();
    let root = Some(root);
    let engine = spans.record("engine.build", root, || {
        build_engine(&item.bench, workload.config(), threads, cache)
    });
    let snapshots = spans.record("collect", root, || collect(&engine, item, counters));
    let mut by_loc: BTreeMap<Location, Vec<&Snapshot>> = BTreeMap::new();
    for s in &snapshots {
        by_loc.entry(s.location).or_default().push(s);
    }
    let by_loc: Vec<(Location, Vec<&Snapshot>)> = by_loc.into_iter().collect();

    let before = engine.cache_stats();
    let cold = infer_locations(&engine, item, &by_loc, threads, spans);
    let delta = engine.cache_stats().since(&before);
    counters.lookups += delta.lookups();
    counters.hits += delta.hits;
    counters.misses += delta.misses;
    let warm = infer_locations(&engine, item, &by_loc, threads, spans);
    counters.infer_calls += cold.len();
    // Calls overlap when issued on several threads: wall time is the
    // span from the first start to the last end.
    let first = cold.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    let last = cold.iter().map(|c| c.2).fold(f64::NEG_INFINITY, f64::max);
    counters.infer_wall_s += (last - first).max(0.0);
    let mut locations = Vec::with_capacity(cold.len());
    for ((result, start, end), (again, wstart, wend)) in cold.into_iter().zip(warm) {
        spans.push("infer", root, start, end);
        spans.push("infer.warm", root, wstart, wend);
        let (analysis, again) = (result?, again?);
        if Output::of_locations(std::slice::from_ref(&analysis))
            != Output::of_locations(std::slice::from_ref(&again))
        {
            return Err(format!(
                "infer_at {} differs on the filled cache",
                analysis.location
            ));
        }
        locations.push(analysis);
    }
    spans.record("validate", root, || validate(&mut locations, counters));
    if Output::of_locations(&locations) != Output::of(expected) {
        return Err("re-driven report differs from the untraced one".into());
    }

    let line = spans.record("wire.encode", root, || encode_report(untraced));
    counters.wire_bytes += line.len();
    let decoded = spans.record("wire.decode", root, || decode_report(&line));
    let decoded = decoded.map_err(|e| format!("wire decode: {e}"))?;
    if Output::of(&decoded) != Output::of(untraced) {
        return Err("report changes under wire encode/decode".into());
    }
    Ok(())
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, filter: Option<&str>) -> Outcome {
    let items = corpus(seed, filter);
    let config = workload.config();
    let workers = workload.workers();
    let mut notes = Vec::new();
    let mut failures = vec![false; items.len()];
    let mut fail = |i: usize, why: String, notes: &mut Vec<String>| {
        failures[i] = true;
        notes.push(format!("FAILED {}: {why}", items[i].bench.name));
    };

    // Every pass below has caches of its own, and each program goes
    // through all of them back to back, so a change in the machine's
    // speed during the run hits the untraced and the traced timing alike.
    //
    // `corpus_parallel` must reproduce a sequential pass. The reference
    // costs a full cold pass, so it is made here rather than in every
    // timed run.
    let reference = (workload == Workload::CorpusParallel).then(|| Fleet::build(&items, config, 1));
    // The untraced pass, as in the timed run.
    let fleet = Fleet::build(&items, config, workers);
    // On `verify` the untraced reports carry grades and any CEGIR
    // re-collection, so the re-driven first round is compared with, and
    // timed against, the same requests without verification instead; the
    // verification layer is read off the untraced reports' metrics.
    let first_round = workload.verifies().then(|| {
        let dynamic = SlingConfig {
            verify: None,
            ..config
        };
        Fleet::build(&items, dynamic, workers)
    });
    let before = fleet.cache_stats();
    let mut caches: BTreeMap<Category, Arc<CheckCache>> = BTreeMap::new();
    let mut spans = Spans::new();
    let mut counters = Counters::default();
    let mut untraced_s = 0.0;
    for (i, item) in items.iter().enumerate() {
        let expected = match &reference {
            Some(reference) => match analyze_timed(&reference.engines[i], &item.request).outcome {
                Ok(report) => Some(Output::of(&report)),
                Err(why) => {
                    fail(i, format!("sequential reference: {why}"), &mut notes);
                    continue;
                }
            },
            None => None,
        };
        let sample = analyze_timed(&fleet.engines[i], &item.request);
        if let Err(why) = check(workload, &sample.outcome, expected.as_ref()) {
            fail(i, why, &mut notes);
        }
        let Ok(untraced) = sample.outcome else {
            continue;
        };
        let first = match &first_round {
            Some(first_round) => {
                let first = analyze_timed(&first_round.engines[i], &item.request);
                match first.outcome {
                    Ok(report) => Some((report, first.seconds)),
                    Err(why) => {
                        fail(i, format!("without verification: {why}"), &mut notes);
                        continue;
                    }
                }
            }
            None => None,
        };
        let (expected, seconds) = first
            .as_ref()
            .map_or((&untraced, sample.seconds), |(r, s)| (r, *s));
        untraced_s += seconds;
        if let Some((first, _)) = &first {
            let m = &untraced.metrics;
            counters.verify_s += m.verify_seconds;
            counters.recollect_s += m.collect_seconds - first.metrics.collect_seconds;
            counters.cegir_rounds += m.cegir_rounds;
            counters.refuted_initial += m.refuted_initial;
            for (n, count) in
                counters
                    .grades
                    .iter_mut()
                    .zip([m.verified, m.confirmed, m.unknown, m.refuted])
            {
                *n += count;
            }
        }

        let cache = Arc::clone(caches.entry(item.bench.category).or_default());
        let verdict = trace_program(
            item,
            &untraced,
            expected,
            workload,
            cache,
            &mut spans,
            &mut counters,
        );
        if let Err(why) = verdict {
            fail(i, format!("traced: {why}"), &mut notes);
        }
    }
    let untraced_cache = fleet.cache_stats().since(&before);
    let failed = failures.iter().filter(|f| **f).count();

    let cache_end = cache_totals(caches.values());
    // Sequential cold calls see the cache exactly as the untraced pass
    // did, so their counts must agree; verification adds lookups of its
    // own, and parallel counts vary from run to run.
    let counts_comparable = workers == 1 && !workload.verifies();
    let counts_agree = !counts_comparable
        || (counters.lookups == untraced_cache.lookups() && counters.hits == untraced_cache.hits);
    if !counts_agree {
        notes.push(format!(
            "FAILED checker counts: traced {} lookups / {} hits, untraced {} / {}",
            counters.lookups,
            counters.hits,
            untraced_cache.lookups(),
            untraced_cache.hits
        ));
    }

    let summary = spans.summary();
    for (name, (count, total, self_s)) in &summary {
        notes.push(format!(
            "span {name:<16} calls {count:>6}  total {total:>10.6} s  self {self_s:>10.6} s"
        ));
    }
    let infer_s = spans.total("infer");
    let warm_s = spans.total("infer.warm");
    let traced_s = spans.total("collect") + counters.infer_wall_s + spans.total("validate");
    let c = &counters;
    let metric = |name, value, unit| Metric { name, value, unit };
    let mut metrics = vec![
        metric("engine.build_s", spans.total("engine.build"), "s"),
        metric("collect.s", spans.total("collect"), "s"),
        metric("collect.runs", c.runs as f64, "count"),
        metric("collect.snapshots", c.snapshots as f64, "count"),
        metric("collect.faulted_runs", c.faulted_runs as f64, "count"),
        metric("infer.s", infer_s, "s"),
        metric("infer.calls", c.infer_calls as f64, "count"),
        metric("infer.warm_s", warm_s, "s"),
        metric("infer.search_s", infer_s - warm_s, "s"),
        metric("checker.lookups", c.lookups as f64, "count"),
        metric("checker.hits", c.hits as f64, "count"),
        metric("checker.misses", c.misses as f64, "count"),
        metric(
            "checker.hit_ratio",
            if c.lookups == 0 {
                0.0
            } else {
                c.hits as f64 / c.lookups as f64
            },
            "ratio",
        ),
        metric("cache.entries", cache_end.entries as f64, "count"),
        metric(
            "cache.resident_bytes",
            cache_end.resident_bytes as f64,
            "bytes",
        ),
        metric("cache.evictions", cache_end.evictions as f64, "count"),
        metric("validate.s", spans.total("validate"), "s"),
        metric("validate.pairs", c.validate_pairs as f64, "count"),
        metric("validate.spurious", c.validate_spurious as f64, "count"),
        metric("wire.encode_s", spans.total("wire.encode"), "s"),
        metric("wire.decode_s", spans.total("wire.decode"), "s"),
        metric("wire.bytes", c.wire_bytes as f64, "bytes"),
        metric("trace.untraced_s", untraced_s, "s"),
        metric("trace.traced_s", traced_s, "s"),
        metric("trace.overhead_s", traced_s - untraced_s, "s"),
    ];
    // The verification layer reads 0 on the workloads that do not verify.
    if workload.verifies() {
        metrics.extend([
            metric("verify.s", c.verify_s, "s"),
            metric("verify.cegir_rounds", c.cegir_rounds as f64, "count"),
            metric("verify.refuted_initial", c.refuted_initial as f64, "count"),
            metric("verify.recollect_s", c.recollect_s, "s"),
            metric("verify.verified", c.grades[0] as f64, "count"),
            metric("verify.confirmed", c.grades[1] as f64, "count"),
            metric("verify.unknown", c.grades[2] as f64, "count"),
            metric("verify.refuted", c.grades[3] as f64, "count"),
        ]);
    }
    notes.push(format!(
        "untraced pass: {} lookups, {} hits; nproc {}",
        untraced_cache.lookups(),
        untraced_cache.hits,
        nproc()
    ));
    Outcome {
        correct: failed == 0 && counts_agree,
        attempted: items.len(),
        failed,
        metrics,
        notes,
    }
}
