//! The long-lived analysis engine and its builder.
//!
//! An [`Engine`] owns everything that is expensive to set up and cheap
//! to reuse: the parsed, type-checked [`Program`], its [`TypeEnv`], the
//! [`PredEnv`] of inductive predicate definitions, the base
//! [`SlingConfig`], and a shared [`CheckCache`] that memoizes checker
//! reductions across every request served. Construction goes through
//! [`EngineBuilder`] (`Engine::builder()`); work is described by
//! [`AnalysisRequest`]s and answered with [`Report`]s.
//!
//! Batch analysis ([`Engine::analyze_all`]) runs many target functions
//! against the one predicate environment; because the checker cache is
//! keyed on canonical sub-heap shapes, entailments established while
//! analyzing one function are reused by the next — the second request
//! for a list-shaped argument typically starts warm.
//!
//! # Two levels of parallelism
//!
//! The worker budget ([`EngineBuilder::parallelism`], defaulting to the
//! available cores, overridable with the `SLING_PARALLELISM` environment
//! variable) is spent at whichever level has the work:
//!
//! * **Across requests** — requests are `Send + Sync` (built from
//!   declarative [`InputSpec`](crate::InputSpec)s or `Send + Sync`
//!   closures), so [`Engine::analyze_all`] fans a batch out over a
//!   scoped thread pool. Reports are always assembled in *request
//!   order*, formula-for-formula identical to a sequential run; callers
//!   that want results as they complete pass a streaming [`ReportSink`]
//!   to [`Engine::analyze_all_with`].
//! * **Across locations** — a single [`Engine::analyze`] (or a
//!   one-request batch) fans its per-location inference out over the
//!   same pool instead, so single-target workloads that cannot batch
//!   still scale. [`RunMetrics::workers`](crate::RunMetrics) reports
//!   the count actually used.
//!
//! The budget divides, never multiplies: with `r` requests in flight
//! each request fans its locations out over its share of the budget —
//! `parallelism / r`, with the remainder distributed one extra worker
//! each to the first `parallelism % r` requests, so the whole budget is
//! spent (a saturated batch runs locations sequentially, a one-request
//! batch gets the whole budget inside the request) and total thread
//! count stays bounded by the budget. The engine's entailment cache is
//! sharded, so worker threads memoize concurrently without serializing
//! on one lock.
//!
//! # Cache lifecycle
//!
//! With [`EngineBuilder::cache_path`] the entailment cache outlives the
//! process: `build()` warm-starts from the snapshot at that path when
//! one exists (rejecting corrupt files, and — because snapshots carry
//! one fingerprint *per predicate* — dropping only the entries that
//! touch changed predicates when the library changed partially; see
//! [`sling_checker::persist`]), and [`Engine::save_cache`] writes the
//! cache back. [`CacheStats::warm_hits`] reports how many queries the
//! restored entries answered.
//!
//! [`EngineBuilder::cache_capacity`] bounds the cache: past the bound,
//! the least-recently-used entry of the landing shard is evicted
//! ([`CacheStats::evictions`], [`CacheStats::resident_bytes`]).
//! [`Engine::absorb_snapshot`] folds sibling processes' snapshots into
//! the live cache, newest-generation-wins on collisions — the scale-out
//! story for fleets sharing a snapshot directory.
//!
//! # Examples
//!
//! ```
//! use sling::{AnalysisRequest, Engine, InputSpec, ListLayout, ValueSpec};
//! use sling_logic::Symbol;
//!
//! fn build(path: &std::path::Path) -> Result<Engine, sling::BuildError> {
//!     Engine::builder()
//!         .program_source(
//!             "struct ENode { next: ENode*; }
//!              fn walk(x: ENode*) -> ENode* {
//!                  var c: ENode* = x;
//!                  while @w (c != null) { c = c->next; }
//!                  return x;
//!              }",
//!         )?
//!         .predicates_source(
//!             "pred elist(x: ENode*) := emp & x == nil
//!                | exists u. x -> ENode{next: u} * elist(u);",
//!         )?
//!         .cache_path(path) // persistent entailment cache
//!         .build()
//! }
//!
//! let path = std::env::temp_dir().join(format!("sling-engine-doc-{}.bin", std::process::id()));
//! let layout = ListLayout {
//!     ty: Symbol::intern("ENode"), nfields: 1, next: 0, prev: None, data: None,
//! };
//! let request = AnalysisRequest::new("walk")
//!     .input(InputSpec::seeded(3).arg(ValueSpec::sll(layout, 4)));
//!
//! let cold = build(&path)?;
//! assert_eq!(cold.warm_entries(), 0);
//! let report = cold.analyze(&request)?;
//! assert!(report.invariant_count() > 0);
//! cold.save_cache()?; // snapshot for the next process
//!
//! let warm = build(&path)?;
//! assert!(warm.warm_entries() > 0);
//! let rerun = warm.analyze(&request)?;
//! assert!(rerun.cache.warm_hits > 0, "restored entries answered queries");
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sling_analysis::{analyze_program, AnalysisSettings, Diagnostic, Diagnostics, ProgramAnalysis};
use sling_checker::{persist, CacheStats, CheckCache, CheckCtx, EnvProfile, PersistError};
use sling_lang::{check_program, parse_program, Location, Program, Snapshot};
use sling_logic::{check_pred_env, parse_predicates, PredDef, PredEnv, Symbol, TypeEnv};

use crate::collect::{collect_stack, MAX_COLLECT_STACK};
use crate::pipeline::{infer_location, run_target, SlingConfig, VerifySettings};
use crate::report::{BatchReport, LocationAnalysis, Report};
use crate::request::AnalysisRequest;

/// Why an [`EngineBuilder`] could not produce an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No program was supplied.
    MissingProgram,
    /// MiniC source failed to parse.
    Parse(String),
    /// The program failed type checking.
    Type(String),
    /// Predicate source failed to parse.
    PredicateParse(String),
    /// A predicate definition was rejected (duplicate name, ill-formed
    /// body, non-decreasing recursion, ...).
    Predicate(String),
    /// The static-diagnostics pass found deny-level problems: the full
    /// findings (warnings included, for context) ride along. Produced by
    /// the lint gate enabled via [`EngineBuilder::static_analysis`] and
    /// by the always-on predicate-productivity check (`SL001`).
    Rejected(Diagnostics),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingProgram => {
                write!(
                    f,
                    "no program supplied: call `program(..)` or `program_source(..)`"
                )
            }
            BuildError::Parse(e) => write!(f, "program parse error: {e}"),
            BuildError::Type(e) => write!(f, "program type error: {e}"),
            BuildError::PredicateParse(e) => write!(f, "predicate parse error: {e}"),
            BuildError::Predicate(e) => write!(f, "predicate definition error: {e}"),
            BuildError::Rejected(diags) => {
                write!(
                    f,
                    "program rejected by static diagnostics ({} error{}):\n{diags}",
                    diags.deny_count(),
                    if diags.deny_count() == 1 { "" } else { "s" },
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The request's target is not a function of the engine's program.
    UnknownTarget(Symbol),
    /// The request's interpreter depth limit (`vm.max_depth`) needs a
    /// trace-collection stack larger than [`MAX_COLLECT_STACK`] for
    /// this program.
    DepthOutOfRange(usize),
    /// The operating system refused the trace-collection thread.
    CollectorSpawn(std::io::ErrorKind),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::UnknownTarget(t) => {
                write!(f, "target `{t}` is not a function of the engine's program")
            }
            AnalyzeError::DepthOutOfRange(depth) => write!(
                f,
                "vm depth limit {depth} is out of range: its trace-collection stack \
                 would exceed {MAX_COLLECT_STACK} bytes"
            ),
            AnalyzeError::CollectorSpawn(kind) => {
                write!(f, "could not start the trace-collection thread: {kind}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Typed builder for [`Engine`]; obtained from [`Engine::builder`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    program: Option<Program>,
    preds: PredEnv,
    config: SlingConfig,
    cache: Option<Arc<CheckCache>>,
    cache_path: Option<PathBuf>,
    cache_capacity: Option<usize>,
    parallelism: Option<usize>,
    analysis: Option<AnalysisSettings>,
}

impl EngineBuilder {
    /// Supplies an already-parsed program (type-checked at `build`).
    pub fn program(mut self, program: Program) -> EngineBuilder {
        self.program = Some(program);
        self
    }

    /// Parses MiniC source and supplies it as the program.
    pub fn program_source(self, source: &str) -> Result<EngineBuilder, BuildError> {
        let program = parse_program(source).map_err(|e| BuildError::Parse(e.to_string()))?;
        Ok(self.program(program))
    }

    /// Adds predicate definitions to the engine's environment.
    pub fn predicates<I>(mut self, defs: I) -> Result<EngineBuilder, BuildError>
    where
        I: IntoIterator<Item = PredDef>,
    {
        for def in defs {
            self.preds
                .define(def)
                .map_err(|e| BuildError::Predicate(e.to_string()))?;
        }
        Ok(self)
    }

    /// Parses predicate source and adds every definition.
    pub fn predicates_source(self, source: &str) -> Result<EngineBuilder, BuildError> {
        let defs =
            parse_predicates(source).map_err(|e| BuildError::PredicateParse(e.to_string()))?;
        self.predicates(defs)
    }

    /// Replaces the predicate environment wholesale (e.g. with a
    /// pre-built library).
    pub fn pred_env(mut self, preds: PredEnv) -> EngineBuilder {
        self.preds = preds;
        self
    }

    /// Sets the base configuration (requests may override per call).
    pub fn config(mut self, config: SlingConfig) -> EngineBuilder {
        self.config = config;
        self
    }

    /// Enables the static-verification post-pass: every reported
    /// invariant is graded against its siblings by bounded unfolding
    /// (see [`sling_checker::verify`]), and refutation witnesses drive
    /// up to [`VerifySettings::cegir_rounds`] counterexample-guided
    /// re-collection rounds. Off by default; setting the `SLING_VERIFY`
    /// environment variable to `off`/`0`/`false` force-disables the
    /// pass at run time without rebuilding the engine.
    pub fn verification(mut self, settings: VerifySettings) -> EngineBuilder {
        self.config.verify = Some(settings);
        self
    }

    /// Shares an existing checker cache with this engine, so entailments
    /// memoized by sibling engines (e.g. a corpus run over one predicate
    /// library) carry over. By default each engine gets a private cache.
    pub fn shared_cache(mut self, cache: Arc<CheckCache>) -> EngineBuilder {
        self.cache = Some(cache);
        self
    }

    /// Makes the entailment cache persistent: at `build()` the engine
    /// warm-starts from the snapshot at `path` (if one exists and was
    /// written under the same program types and predicate library), and
    /// [`Engine::save_cache`] writes the cache back to the same path.
    ///
    /// A missing file, a corrupted file, or a snapshot from a different
    /// environment never fails the build — the cache is an optimization,
    /// so the engine simply starts cold. [`Engine::warm_entries`]
    /// reports how many entries were actually restored; callers that
    /// need the typed rejection reason use
    /// [`sling_checker::persist::load`] directly.
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> EngineBuilder {
        self.cache_path = Some(path.into());
        self
    }

    /// Bounds the entailment cache to roughly `capacity` entries: past
    /// the bound the least-recently-used entry of the landing shard is
    /// evicted to make room ([`CacheStats::evictions`] counts them, and
    /// [`CacheStats::resident_bytes`] reports what is held). The bound
    /// is enforced per shard, so the retained total can overshoot a
    /// capacity that is not a multiple of the shard count by at most
    /// `SHARD_COUNT - 1` entries.
    ///
    /// Ignored when [`EngineBuilder::shared_cache`] supplies the cache —
    /// the shared cache's own capacity governs.
    pub fn cache_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Sets the number of worker threads the engine may use — across
    /// requests in [`Engine::analyze_all`], and across locations inside
    /// a single [`Engine::analyze`] (clamped to at least 1; `1` means
    /// strictly sequential). Defaults to the `SLING_PARALLELISM`
    /// environment variable when set, else the available CPU cores.
    pub fn parallelism(mut self, workers: usize) -> EngineBuilder {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Enables the static-diagnostics pass (`sling-analysis`) at
    /// `build()`: the program's control flow is analyzed before any
    /// trace runs, deny-level findings (definite use-before-init,
    /// unreachable snapshot locations, definite-null dereferences, ...)
    /// fail the build with [`BuildError::Rejected`], and warnings ride
    /// along in every report's
    /// [`Report::static_warnings`](crate::Report) for the report's
    /// target. The pass also feeds the inference pre-filter: statically
    /// unreachable snapshot locations are attached to reports so an
    /// empty inference site is explained rather than silent. Off by
    /// default.
    pub fn static_analysis(mut self, settings: AnalysisSettings) -> EngineBuilder {
        self.analysis = Some(settings);
        self
    }

    /// Type-checks the program, lints the predicate environment, and
    /// finalizes the engine.
    pub fn build(self) -> Result<Engine, BuildError> {
        let program = self.program.ok_or(BuildError::MissingProgram)?;
        check_program(&program).map_err(|e| BuildError::Type(e.to_string()))?;
        let types = program.type_env();
        // Per-definition checks ran at `define`; the env-level pass
        // additionally rejects unguarded call *cycles* across
        // definitions (mutual recursion that never consumes a cell),
        // which bounded unfolding — both the checker's and the
        // verifier's — could not terminate on. Its findings flow through
        // the shared diagnostics vocabulary (`SL001`).
        if let Err(e) = check_pred_env(&self.preds) {
            let mut diags = Diagnostics::new();
            diags.push(Diagnostic::from_wf_error(&e));
            return Err(BuildError::Rejected(diags));
        }
        // The opt-in lint gate: deny-level findings fail the build with
        // the *full* report (warnings included, for context); with only
        // warnings the analysis is kept on the engine, to be surfaced in
        // every report for its target.
        let analysis = self
            .analysis
            .map(|settings| analyze_program(&program, &settings));
        if let Some(analysis) = &analysis {
            if analysis.diagnostics.has_deny() {
                return Err(BuildError::Rejected(analysis.diagnostics.clone()));
            }
        }
        let profile = EnvProfile::new(&types, &self.preds);
        let cache = match (self.cache, self.cache_capacity) {
            (Some(shared), _) => shared,
            (None, Some(capacity)) => Arc::new(CheckCache::with_capacity(capacity)),
            (None, None) => Arc::default(),
        };
        // A partially stale snapshot still warms the engine with its
        // surviving entries; only the stale subset re-runs cold.
        let warm_entries = match &self.cache_path {
            Some(path) if path.exists() => match persist::load(&cache, &profile, path) {
                Ok(n) => n,
                Err(PersistError::PartialStale { kept, .. }) => {
                    // Re-save the surviving subset under the current
                    // profile right away: the next boot then loads
                    // clean instead of re-dropping the same stale
                    // entries. Best-effort — the snapshot is an
                    // optimization, so an unwritable path never fails
                    // the build.
                    let _ = persist::save(&cache, &profile, path);
                    kept
                }
                Err(_) => 0,
            },
            _ => 0,
        };
        Ok(Engine {
            program,
            types,
            preds: self.preds,
            config: self.config,
            cache,
            cache_path: self.cache_path,
            warm_entries: AtomicU64::new(warm_entries),
            profile,
            parallelism: self.parallelism.unwrap_or_else(default_parallelism),
            analysis,
        })
    }
}

/// The default worker count: `SLING_PARALLELISM` when set to a positive
/// integer, else the available CPU cores. An unparsable value falls back
/// to the core count, but loudly: silently ignoring `SLING_PARALLELISM=abc`
/// hides misconfiguration, so the first rejection per process warns on
/// stderr naming the bad value.
pub fn default_parallelism() -> usize {
    if let Ok(var) = std::env::var("SLING_PARALLELISM") {
        match parse_parallelism(&var) {
            Some(n) => return n,
            None => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "sling: ignoring unparsable SLING_PARALLELISM={var:?} \
                         (want a positive integer); using the available CPU cores"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `SLING_PARALLELISM` value: a non-negative integer (with
/// surrounding whitespace tolerated), clamped to at least 1. `None` for
/// anything else — negative numbers, non-numeric text, empty strings.
fn parse_parallelism(var: &str) -> Option<usize> {
    var.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Observer for streaming batch analysis ([`Engine::analyze_all_with`]):
/// receives each [`Report`] as it completes, before the batch finishes.
///
/// `index` is the report's position in the request list. Under parallel
/// execution reports arrive in *completion* order (not request order)
/// and from worker threads, hence `Sync`. Any `Fn(usize, &Report) + Sync`
/// closure is a sink.
pub trait ReportSink: Sync {
    /// Called exactly once per request, as its report completes.
    fn report(&self, index: usize, report: &Report);
}

impl<F: Fn(usize, &Report) + Sync> ReportSink for F {
    fn report(&self, index: usize, report: &Report) {
        self(index, report)
    }
}

/// The no-op sink behind [`Engine::analyze_all`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardReports;

impl ReportSink for DiscardReports {
    fn report(&self, _index: usize, _report: &Report) {}
}

/// A reusable SLING analysis session over one program and predicate
/// environment.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine {
    program: Program,
    types: TypeEnv,
    preds: PredEnv,
    config: SlingConfig,
    cache: Arc<CheckCache>,
    /// Where [`Engine::save_cache`] persists the cache (and where the
    /// build warm-started from), if configured.
    cache_path: Option<PathBuf>,
    /// Entries restored from `cache_path` at build time plus any
    /// absorbed later ([`Engine::absorb_snapshot`] adds to it, hence
    /// atomic).
    warm_entries: AtomicU64,
    /// Environment fingerprints (overall tag, per-predicate table),
    /// computed once at build so per-request checker contexts don't
    /// re-hash the environments and persistence can invalidate per
    /// predicate.
    profile: EnvProfile,
    parallelism: usize,
    /// The static-diagnostics result computed at build time, when the
    /// builder opted in via [`EngineBuilder::static_analysis`]. By
    /// construction it carries no deny-level findings — those fail
    /// `build()` — only warnings and the unreachable-location map.
    analysis: Option<ProgramAnalysis>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The engine's program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The type environment derived from the program.
    pub fn types(&self) -> &TypeEnv {
        &self.types
    }

    /// The predicate environment shared by every request.
    pub fn preds(&self) -> &PredEnv {
        &self.preds
    }

    /// The base configuration.
    pub fn config(&self) -> &SlingConfig {
        &self.config
    }

    /// The number of worker threads [`Engine::analyze_all`] may use.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The static-diagnostics result computed at build time, when the
    /// engine was built with [`EngineBuilder::static_analysis`]. Never
    /// contains deny-level findings (those fail the build).
    pub fn diagnostics(&self) -> Option<&ProgramAnalysis> {
        self.analysis.as_ref()
    }

    /// Cumulative checker-cache counters for this engine's cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Entries restored from the [`EngineBuilder::cache_path`] snapshot
    /// when this engine was built, plus entries folded in later by
    /// [`Engine::absorb_snapshot`] (`0` for a cold start).
    pub fn warm_entries(&self) -> u64 {
        self.warm_entries.load(Ordering::Relaxed)
    }

    /// The persistent-cache snapshot path configured via
    /// [`EngineBuilder::cache_path`], if any. Long-lived services use
    /// this to decide whether periodic [`Engine::save_cache`] calls can
    /// succeed at all.
    pub fn cache_path(&self) -> Option<&std::path::Path> {
        self.cache_path.as_deref()
    }

    /// Snapshots the entailment cache to the configured
    /// [`EngineBuilder::cache_path`], so the next process over the same
    /// program and predicate library starts warm. Returns the number of
    /// entries written. Fails with [`std::io::ErrorKind::InvalidInput`]
    /// when no cache path was configured.
    pub fn save_cache(&self) -> std::io::Result<u64> {
        let Some(path) = &self.cache_path else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no cache path configured: call EngineBuilder::cache_path(..)",
            ));
        };
        persist::save(&self.cache, &self.profile, path)
    }

    /// [`Engine::save_cache`] to an explicit path (the configured
    /// [`EngineBuilder::cache_path`], if any, is ignored).
    pub fn save_cache_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
        persist::save(&self.cache, &self.profile, path.as_ref())
    }

    /// Folds a sibling process's snapshot into this engine's *live*
    /// cache ([`sling_checker::persist::merge`]): key collisions
    /// resolve newest-generation-wins (entries this engine computed
    /// itself always win), capacity is respected without evicting live
    /// entries, and entries touching predicates whose definitions
    /// changed since the sibling saved are dropped. Merged entries are
    /// warm — hits on them count in [`CacheStats::warm_hits`] — and
    /// [`Engine::warm_entries`] grows by the merged count.
    ///
    /// Long-lived services use this at boot to fold every snapshot in a
    /// cache directory instead of loading exactly one; see
    /// `sling-serve`'s directory mode.
    pub fn absorb_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<persist::MergeStats, PersistError> {
        let stats = persist::merge(&self.cache, &self.profile, path.as_ref())?;
        self.warm_entries.fetch_add(stats.merged, Ordering::Relaxed);
        Ok(stats)
    }

    /// Drops every memoized entailment (counters are kept). Long-lived
    /// services call this to bound memory between unrelated workloads;
    /// benchmarks call it to measure the cold path.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The checker context every request of this engine runs under.
    fn check_ctx<'e>(&'e self, config: &SlingConfig) -> CheckCtx<'e> {
        CheckCtx {
            types: &self.types,
            preds: &self.preds,
            config: config.check,
            cache: Some(&self.cache),
            env_tag: self.profile.env_tag(),
        }
    }

    /// Checks what [`Engine::analyze`] refuses before any work starts:
    /// an unknown target, or a depth limit whose trace-collection stack
    /// could not be reserved.
    fn validate(&self, request: &AnalysisRequest) -> Result<(), AnalyzeError> {
        if self.program.func(request.target).is_none() {
            return Err(AnalyzeError::UnknownTarget(request.target));
        }
        let config = request.config.as_ref().unwrap_or(&self.config);
        collect_stack(&self.program, config.vm).map(drop)
    }

    /// Runs one (pre-validated) request with `workers` threads available
    /// for its per-location inference fan-out; the report's cache delta
    /// is left zeroed for the caller to fill in.
    fn run_request(
        &self,
        request: &AnalysisRequest,
        workers: usize,
    ) -> Result<Report, AnalyzeError> {
        let config = request.config.as_ref().unwrap_or(&self.config);
        let ctx = self.check_ctx(config);
        let mut report = run_target(
            &ctx,
            &self.program,
            request.target,
            &request.inputs,
            config,
            workers,
        )?;
        if let Some(analysis) = &self.analysis {
            // Surface the build-time static findings scoped to this
            // report's target: warnings ride along, and statically
            // unreachable snapshot locations explain empty inference
            // sites (`Report::missing_locations`).
            report.static_warnings = analysis
                .diagnostics
                .warnings()
                .filter(|d| d.function == Some(request.target))
                .cloned()
                .collect();
            report.metrics.static_warnings = report.static_warnings.len();
            report.unreachable_locations = analysis.unreachable_in(request.target).to_vec();
        }
        Ok(report)
    }

    /// Serves one request: collect traces for the target on the
    /// request's inputs, infer invariants at every reached location,
    /// validate entry/exit pairs with the frame rule.
    ///
    /// With [`Engine::parallelism`] `> 1` the per-location inference
    /// loop fans out over a scoped thread pool (the whole worker budget
    /// goes to this one request), so a single-target workload with many
    /// locations scales like a batch does; output is identical to a
    /// sequential run, and [`RunMetrics::workers`](crate::RunMetrics)
    /// reports the worker count actually used.
    ///
    /// Trace collection runs on a thread of its own sized for the
    /// request's `vm.max_depth`, so runaway recursion comes back as
    /// `StackOverflow`-faulted runs on any calling thread.
    ///
    /// # Errors
    ///
    /// [`AnalyzeError::UnknownTarget`] for a target the program lacks;
    /// [`AnalyzeError::DepthOutOfRange`] for a depth limit whose
    /// collection stack would exceed [`MAX_COLLECT_STACK`];
    /// [`AnalyzeError::CollectorSpawn`] when that thread cannot start.
    pub fn analyze(&self, request: &AnalysisRequest) -> Result<Report, AnalyzeError> {
        self.validate(request)?;
        let before = self.cache.stats();
        let mut report = self.run_request(request, self.parallelism)?;
        report.cache = self.cache.stats().since(&before);
        Ok(report)
    }

    /// Serves a batch of requests against the shared predicate
    /// environment and checker cache, fanning out over up to
    /// [`Engine::parallelism`] worker threads. Targets and depth limits
    /// are validated up front, so either every request runs or none
    /// does.
    ///
    /// Reports come back in *request order* and are formula-for-formula
    /// identical to a sequential run regardless of the worker count
    /// (inference is deterministic per request, and cache hits return
    /// the same reductions a cold search would). Per-report cache deltas
    /// are exact when run sequentially (`parallelism(1)`); under
    /// parallel execution concurrent requests interleave on the shared
    /// cache, so per-report deltas are left zeroed and the batch-level
    /// [`BatchReport::cache`] delta is the authoritative accounting.
    pub fn analyze_all<'r, I>(&self, requests: I) -> Result<BatchReport, AnalyzeError>
    where
        I: IntoIterator<Item = &'r AnalysisRequest>,
    {
        self.analyze_all_with(requests, &DiscardReports)
    }

    /// [`Engine::analyze_all`] with a streaming observer: `sink`
    /// receives each report as it completes (in completion order), so
    /// long batches can surface progressive results instead of blocking
    /// on the slowest request.
    pub fn analyze_all_with<'r, I, S>(
        &self,
        requests: I,
        sink: &S,
    ) -> Result<BatchReport, AnalyzeError>
    where
        I: IntoIterator<Item = &'r AnalysisRequest>,
        S: ReportSink + ?Sized,
    {
        let requests: Vec<&AnalysisRequest> = requests.into_iter().collect();
        for request in &requests {
            self.validate(request)?;
        }
        let before = self.cache.stats();
        let workers = self.parallelism.min(requests.len());
        // Divide the worker budget between the two levels: `workers`
        // requests in flight, each fanning its locations out over a
        // share of what remains. A one-request "batch" on an 8-way
        // engine gets all 8 workers inside the request; a 2-request
        // batch gets 4 each. The division is exact, not truncating:
        // the first `parallelism % workers` requests get one extra
        // inner worker, so an 8-way engine spends all 8 threads on a
        // 3-request batch (3 + 3 + 2) instead of stranding two. At most
        // `workers` requests run concurrently and fewer than `workers`
        // of them carry the +1, so concurrent thread count never
        // exceeds the budget.
        let base = self.parallelism / workers.max(1);
        let extra = self.parallelism % workers.max(1);
        let inner = |index: usize| if index < extra { base + 1 } else { base };
        let reports = if workers <= 1 {
            let mut reports = Vec::with_capacity(requests.len());
            for (index, request) in requests.iter().enumerate() {
                let at_start = self.cache.stats();
                let mut report = self.run_request(request, inner(index))?;
                report.cache = self.cache.stats().since(&at_start);
                sink.report(index, &report);
                reports.push(report);
            }
            reports
        } else {
            // The shared work-stealing scaffold: each finished report
            // lands in its request-index slot, so assembly is
            // deterministic no matter which worker ran what.
            crate::fanout::fan_out(workers, requests.len(), |index| {
                let report = self.run_request(requests[index], inner(index))?;
                sink.report(index, &report);
                Ok(report)
            })
            .into_iter()
            .collect::<Result<_, _>>()?
        };
        Ok(BatchReport {
            reports,
            cache: self.cache.stats().since(&before),
        })
    }

    /// Location-level entry point: infers invariants for `target` from
    /// externally collected snapshots, sharing the engine's predicate
    /// environment and cache. This is what benchmarking and replay
    /// tooling use to drive inference without the tracer.
    pub fn infer_at(
        &self,
        target: Symbol,
        location: Location,
        snaps: &[&Snapshot],
    ) -> Result<LocationAnalysis, AnalyzeError> {
        let Some(func) = self.program.func(target) else {
            return Err(AnalyzeError::UnknownTarget(target));
        };
        let param_order: Vec<Symbol> = func.params.iter().map(|p| p.name).collect();
        let ctx = self.check_ctx(&self.config);
        Ok(infer_location(
            &ctx,
            location,
            snaps,
            &param_order,
            &self.config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    const SRC: &str = "
        struct TNode { next: TNode*; data: int; }
        fn id(x: TNode*) -> TNode* { return x; }";

    const PREDS: &str = "
        pred tlist(x: TNode*) := emp & x == nil
           | exists u, d. x -> TNode{next: u, data: d} * tlist(u);";

    #[test]
    fn builder_requires_a_program() {
        let err = Engine::builder().build().unwrap_err();
        assert_eq!(err, BuildError::MissingProgram);
    }

    #[test]
    fn builder_surfaces_parse_errors() {
        let err = Engine::builder().program_source("fn {").unwrap_err();
        assert!(matches!(err, BuildError::Parse(_)), "{err}");
    }

    #[test]
    fn builder_surfaces_type_errors() {
        let err = Engine::builder()
            .program_source("fn f(x: Missing*) { return; }")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Type(_)), "{err}");
    }

    #[test]
    fn build_rejects_unguarded_predicate_cycles() {
        // Each definition passes the per-def check (neither calls
        // itself), so only the env-level cycle pass at build catches
        // the divergence.
        let err = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(
                "pred eping(x: TNode*) := epong(x);
                 pred epong(x: TNode*) := eping(x);",
            )
            .unwrap()
            .build()
            .unwrap_err();
        let BuildError::Rejected(ref diags) = err else {
            panic!("expected Rejected, got {err}");
        };
        assert_eq!(diags.len(), 1);
        let diag = &diags.items[0];
        assert_eq!(diag.code, sling_analysis::codes::UNPRODUCTIVE_PRED);
        assert!(diag.message.contains("not productive"), "{diag}");
        assert!(
            diag.notes.iter().any(|n| n.contains("->")),
            "cycle path note expected, got {diag}"
        );
        // The rendered error keeps the historical substring.
        assert!(err.to_string().contains("not productive"), "{err}");
    }

    #[test]
    fn static_analysis_gate_rejects_deny_findings_at_build() {
        // One fixture per deny lint: definite use-before-init,
        // unreachable snapshot location, definite-null dereference.
        let fixtures = [
            (
                "fn f() -> int { var y: int; return y; }",
                sling_analysis::codes::USE_BEFORE_INIT,
            ),
            (
                "fn f() -> int { return 1; @dead; }",
                sling_analysis::codes::UNREACHABLE_LOCATION,
            ),
            (
                "struct N { next: N*; }
                 fn f() -> N* { var x: N* = null; return x->next; }",
                sling_analysis::codes::NULL_DEREF,
            ),
        ];
        for (src, code) in fixtures {
            let err = Engine::builder()
                .program_source(src)
                .unwrap()
                .static_analysis(AnalysisSettings::default())
                .build()
                .unwrap_err();
            let BuildError::Rejected(ref diags) = err else {
                panic!("expected Rejected for {code}, got {err}");
            };
            assert!(
                diags.denies().any(|d| d.code == code),
                "expected {code} in {diags}"
            );
            // Without the opt-in the same program builds fine: the gate
            // never changes default behavior.
            assert!(Engine::builder()
                .program_source(src)
                .unwrap()
                .build()
                .is_ok());
        }
    }

    #[test]
    fn static_warnings_and_unreachable_sites_ride_in_reports() {
        // A warning-only program: `t`'s initializer is a dead store
        // (overwritten with no snapshot in between), which warns but
        // does not fail the build.
        let engine = Engine::builder()
            .program_source(
                "struct TNode { next: TNode*; data: int; }
                 fn touch(x: TNode*) -> TNode* {
                     var t: int = 0;
                     t = 1;
                     return x;
                 }",
            )
            .unwrap()
            .static_analysis(AnalysisSettings::default())
            .build()
            .unwrap();
        let analysis = engine.diagnostics().expect("analysis was computed");
        assert!(!analysis.diagnostics.is_empty());
        assert!(!analysis.diagnostics.has_deny());
        let report = engine
            .analyze(
                &AnalysisRequest::new("touch").input(crate::InputSpec::seeded(1).arg(
                    crate::ValueSpec::sll(
                        sling_lang::ListLayout {
                            ty: Symbol::intern("TNode"),
                            nfields: 2,
                            next: 0,
                            prev: None,
                            data: Some(1),
                        },
                        2,
                    ),
                )),
            )
            .unwrap();
        assert!(!report.static_warnings.is_empty());
        assert_eq!(report.metrics.static_warnings, report.static_warnings.len());
        assert!(report
            .static_warnings
            .iter()
            .all(|d| d.function == Some(Symbol::intern("touch"))));
        assert!(report.unreachable_locations.is_empty());
    }

    #[test]
    fn partially_stale_snapshot_is_resaved_clean_at_build() {
        use sling_logic::parse_formula;
        use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

        let src = "struct PSNode { next: PSNode*; }
                   fn psid(x: PSNode*) -> PSNode* { return x; }";
        let preds = |base: &str| {
            format!(
                "pred pslist(x: PSNode*) := {base}
                   | exists u. x -> PSNode{{next: u}} * pslist(u);
                 pred pscell(x: PSNode*) := exists u. x -> PSNode{{next: u}};"
            )
        };
        let list_model = |n: u64, lo: u64| {
            let mut heap = Heap::new();
            for i in 0..n {
                let next = if i + 1 < n {
                    Val::Addr(Loc::new(lo + i + 1))
                } else {
                    Val::Nil
                };
                heap.insert(
                    Loc::new(lo + i),
                    HeapCell::new(Symbol::intern("PSNode"), vec![next]),
                );
            }
            let mut stack = Stack::new();
            stack.bind(Symbol::intern("x"), Val::Addr(Loc::new(lo)));
            StackHeapModel::new(stack, heap)
        };
        let path =
            std::env::temp_dir().join(format!("sling-engine-partial-{}.bin", std::process::id()));
        std::fs::remove_file(&path).ok();

        // v1: seed the cache with one entry per predicate, snapshot it.
        let cache = Arc::new(CheckCache::new());
        let v1 = Engine::builder()
            .program_source(src)
            .unwrap()
            .predicates_source(&preds("emp & x == nil"))
            .unwrap()
            .shared_cache(Arc::clone(&cache))
            .cache_path(&path)
            .build()
            .unwrap();
        let ctx = CheckCtx::with_cache(v1.types(), v1.preds(), Default::default(), &cache);
        assert!(ctx
            .check(&list_model(2, 1), &parse_formula("pslist(x)").unwrap())
            .is_some());
        assert!(ctx
            .check(&list_model(1, 9), &parse_formula("pscell(x)").unwrap())
            .is_some());
        assert_eq!(v1.save_cache().unwrap(), 2);

        // v2: pslist's base case changed, pscell untouched. The load is
        // partially stale: the pscell entry survives, and the build must
        // immediately re-save the survivor under the v2 profile.
        let v2 = Engine::builder()
            .program_source(src)
            .unwrap()
            .predicates_source(&preds("emp & x == x"))
            .unwrap()
            .cache_path(&path)
            .build()
            .unwrap();
        assert_eq!(v2.warm_entries(), 1, "the pscell entry survives the load");

        // A third boot over the v2 environment now loads clean — the
        // stale entry is gone from the snapshot, not just from memory.
        let fresh = CheckCache::new();
        let profile = EnvProfile::new(v2.types(), v2.preds());
        assert!(
            matches!(persist::load(&fresh, &profile, &path), Ok(1)),
            "re-saved snapshot must load without PartialStale"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_surfaces_duplicate_predicates() {
        let err = Engine::builder()
            .predicates_source(PREDS)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap_err();
        assert!(matches!(err, BuildError::Predicate(_)), "{err}");
    }

    #[test]
    fn unknown_target_is_an_error_not_a_panic() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .build()
            .unwrap();
        let request = AnalysisRequest::new("missing");
        let err = engine.analyze(&request).unwrap_err();
        assert_eq!(err, AnalyzeError::UnknownTarget(Symbol::intern("missing")));
        assert!(engine.analyze_all([&request]).is_err());
    }

    #[test]
    fn out_of_range_depth_is_a_typed_error_before_any_work() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .build()
            .unwrap();
        let mut config = SlingConfig::default();
        config.vm.max_depth = usize::MAX / 4;
        let deep = AnalysisRequest::new("id").config(config);
        let err = engine.analyze(&deep).unwrap_err();
        assert_eq!(err, AnalyzeError::DepthOutOfRange(usize::MAX / 4));
        assert!(err.to_string().contains("out of range"), "{err}");
        // A batch with one such request runs none of them.
        let fine = AnalysisRequest::new("id");
        let ran = AtomicU64::new(0);
        let sink = |_: usize, _: &Report| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(
            engine.analyze_all_with([&fine, &deep], &sink).unwrap_err(),
            err
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn engines_can_share_a_cache() {
        let shared = Arc::new(CheckCache::new());
        let mk = || {
            Engine::builder()
                .program_source(SRC)
                .unwrap()
                .predicates_source(PREDS)
                .unwrap()
                .shared_cache(Arc::clone(&shared))
                .build()
                .unwrap()
        };
        let a = mk();
        let b = mk();
        let request = || {
            AnalysisRequest::new("id").custom(|heap: &mut sling_lang::RtHeap| {
                let n = heap.alloc(
                    Symbol::intern("TNode"),
                    vec![sling_models::Val::Nil, sling_models::Val::Int(1)],
                );
                vec![sling_models::Val::Addr(n)]
            })
        };
        let first = a.analyze(&request()).unwrap();
        let second = b.analyze(&request()).unwrap();
        assert!(first.invariant_count() > 0);
        assert!(
            second.cache.hits > 0,
            "second engine must reuse the shared cache: {:?}",
            second.cache
        );
    }

    #[test]
    fn engines_are_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Engine>();
    }

    #[test]
    fn parallelism_env_parse_paths() {
        // Valid values: plain, whitespace-padded, clamped zero.
        assert_eq!(parse_parallelism("8"), Some(8));
        assert_eq!(parse_parallelism(" 3\t"), Some(3));
        assert_eq!(parse_parallelism("1"), Some(1));
        assert_eq!(parse_parallelism("0"), Some(1), "zero clamps to one");
        // Invalid values fall back (and warn once at the env layer).
        assert_eq!(parse_parallelism("abc"), None);
        assert_eq!(parse_parallelism("-2"), None);
        assert_eq!(parse_parallelism(""), None);
        assert_eq!(parse_parallelism("3.5"), None);
        assert_eq!(parse_parallelism("8 cores"), None);
    }

    #[test]
    fn parallelism_knob_clamps_to_one() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .parallelism(0)
            .build()
            .unwrap();
        assert_eq!(engine.parallelism(), 1);
    }

    #[test]
    fn reports_carry_collection_timings() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .build()
            .unwrap();
        let request = AnalysisRequest::new("id").input(crate::InputSpec::seeded(1).arg(
            crate::ValueSpec::sll(
                sling_lang::ListLayout {
                    ty: Symbol::intern("TNode"),
                    nfields: 2,
                    next: 0,
                    prev: None,
                    data: Some(1),
                },
                3,
            ),
        ));
        let report = engine.analyze(&request).unwrap();
        assert!(report.metrics.collect_seconds >= 0.0);
        assert!(report.metrics.collect_seconds <= report.metrics.seconds);
    }

    #[test]
    fn streaming_sink_sees_every_report() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .parallelism(2)
            .build()
            .unwrap();
        let requests: Vec<AnalysisRequest> = (0..4)
            .map(|n| {
                AnalysisRequest::new("id").input(crate::InputSpec::seeded(n).arg(
                    crate::ValueSpec::sll(
                        sling_lang::ListLayout {
                            ty: Symbol::intern("TNode"),
                            nfields: 2,
                            next: 0,
                            prev: None,
                            data: Some(1),
                        },
                        n as usize,
                    ),
                ))
            })
            .collect();
        let seen = Mutex::new(Vec::new());
        let sink = |index: usize, report: &Report| {
            seen.lock().unwrap().push((index, report.target));
        };
        let batch = engine.analyze_all_with(&requests, &sink).unwrap();
        assert_eq!(batch.reports.len(), 4);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "sink must see each report exactly once"
        );
    }
}
