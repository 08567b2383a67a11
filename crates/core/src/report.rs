//! The structured result hierarchy produced by an [`crate::Engine`].
//!
//! One [`Report`] per analyzed target function, containing one
//! [`LocationAnalysis`] per reached breakpoint, each holding
//! [`Invariant`]s; batch runs aggregate into a [`BatchReport`]. Run
//! accounting lives in [`RunMetrics`] and checker-cache effectiveness in
//! the re-exported [`CacheStats`].

use sling_analysis::Diagnostic;
use sling_checker::CacheStats;
use sling_lang::Location;
use sling_logic::{SymHeap, Symbol};
use sling_models::Heap;

/// Size statistics of an invariant (the paper's Single/Pred/Pure
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvariantStats {
    /// Points-to atoms.
    pub singletons: usize,
    /// Inductive predicate atoms.
    pub preds: usize,
    /// Pure equalities.
    pub pures: usize,
}

/// The static-verification grade attached to every reported invariant by
/// the post-pass (see `sling_checker::verify`). With verification off,
/// every invariant is [`InvariantGrade::Ungraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantGrade {
    /// Verification did not run.
    #[default]
    Ungraded,
    /// Consistent with every bounded countermodel the prover derived from
    /// the sibling invariants at the same location.
    Verified,
    /// The prover found a countermodel and the CEGIR refinement loop ran
    /// out of rounds before resolving it.
    Refuted,
    /// The prover found a countermodel, but the refinement loop turned it
    /// into a concrete input and the invariant survived re-inference: it
    /// holds on the very state the prover proposed as a counterexample
    /// (the §5.4 "genuinely true of the bug" situation).
    Confirmed,
    /// The prover could not reach a verdict within budget.
    Unknown,
}

impl std::fmt::Display for InvariantGrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InvariantGrade::Ungraded => "ungraded",
            InvariantGrade::Verified => "verified",
            InvariantGrade::Refuted => "refuted",
            InvariantGrade::Confirmed => "confirmed",
            InvariantGrade::Unknown => "unknown",
        })
    }
}

/// An inferred invariant at a location.
#[derive(Debug, Clone)]
pub struct Invariant {
    /// Where it holds.
    pub location: Location,
    /// The formula.
    pub formula: SymHeap,
    /// Per used model: the heap cells the formula does not cover.
    pub residues: Vec<Heap>,
    /// Per used model: which activation it came from.
    pub activations: Vec<u64>,
    /// Atom counts.
    pub stats: InvariantStats,
    /// True if the invariant rests on invalid traces (freed cells) or
    /// failed frame validation.
    pub spurious: bool,
    /// Static-verification verdict for this invariant.
    pub grade: InvariantGrade,
}

/// Everything inferred at one location of one target.
#[derive(Debug, Clone)]
pub struct LocationAnalysis {
    /// The location.
    pub location: Location,
    /// Invariants, strongest first.
    pub invariants: Vec<Invariant>,
    /// Number of models used for inference (after dedupe/caps).
    pub models_used: usize,
    /// Number of snapshots observed at the location.
    pub snapshots_seen: usize,
    /// True if any snapshot at this location was tainted by freed cells.
    pub tainted: bool,
}

/// Run accounting for one analyzed target.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunMetrics {
    /// Total snapshots collected (the paper's Traces column).
    pub traces: usize,
    /// Number of test runs.
    pub runs: usize,
    /// Runs that ended in a runtime fault.
    pub faulted_runs: usize,
    /// Worker threads used for the intra-request per-location inference
    /// fan-out (`1` = strictly sequential; capped by the number of
    /// reached locations).
    pub workers: usize,
    /// Wall-clock seconds for collection + inference + validation.
    pub seconds: f64,
    /// Invariants graded [`InvariantGrade::Verified`].
    pub verified: usize,
    /// Invariants graded [`InvariantGrade::Refuted`] after the final
    /// refinement round.
    pub refuted: usize,
    /// Invariants graded [`InvariantGrade::Confirmed`].
    pub confirmed: usize,
    /// Invariants graded [`InvariantGrade::Unknown`].
    pub unknown: usize,
    /// Invariants the prover refuted *before* any refinement ran (the
    /// CEGIR loop's starting debt; `refuted` is what is left of it).
    pub refuted_initial: usize,
    /// Refinement rounds executed (re-collection + re-inference cycles).
    pub cegir_rounds: usize,
    /// Wall-clock seconds spent in verification + refinement (included in
    /// `seconds`).
    pub verify_seconds: f64,
    /// Wall-clock seconds spent collecting traces (included in
    /// `seconds`), accumulated across every CEGIR re-collection round.
    pub collect_seconds: f64,
    /// Warning-level static-diagnostics findings for the target function
    /// (the count of [`Report::static_warnings`]). Zero unless the engine
    /// was built with [`crate::EngineBuilder::static_analysis`].
    pub static_warnings: usize,
}

/// The full analysis result for one target function.
#[derive(Debug, Clone)]
pub struct Report {
    /// The analyzed function.
    pub target: Symbol,
    /// Per reached location, in location order.
    pub locations: Vec<LocationAnalysis>,
    /// All breakpoint locations the program declares for the target
    /// (reached or not — the paper's iLocs).
    pub declared_locations: Vec<Location>,
    /// Run accounting.
    pub metrics: RunMetrics,
    /// Checker-cache movement attributable to this request (hit/miss
    /// deltas; `entries` is the cache's absolute size afterwards).
    /// Exact for [`crate::Engine::analyze`] and for sequential batches
    /// (`parallelism(1)`); under parallel [`crate::Engine::analyze_all`]
    /// concurrent requests interleave on the shared cache, so this is
    /// left zeroed and [`BatchReport::cache`] is the authoritative
    /// accounting.
    pub cache: CacheStats,
    /// Warning-level findings the static-diagnostics pass attributed to
    /// the target function. Empty unless the engine was built with
    /// [`crate::EngineBuilder::static_analysis`] (deny-level findings
    /// never reach a report: they fail the build).
    pub static_warnings: Vec<Diagnostic>,
    /// Declared snapshot locations the static pass proved unreachable:
    /// the explanation for an empty inference site. A location listed
    /// here appears in `declared_locations` but never in `locations`.
    pub unreachable_locations: Vec<Location>,
}

impl Report {
    /// The analysis at `loc`, if any model reached it.
    pub fn at(&self, loc: Location) -> Option<&LocationAnalysis> {
        self.locations.iter().find(|r| r.location == loc)
    }

    /// Declared locations with no analysis entry, each paired with
    /// `true` when the static pass proved the location unreachable
    /// (the site is *necessarily* empty) or `false` when no model
    /// happened to reach it on these inputs.
    pub fn missing_locations(&self) -> Vec<(Location, bool)> {
        self.declared_locations
            .iter()
            .filter(|loc| self.at(**loc).is_none())
            .map(|loc| (*loc, self.unreachable_locations.contains(loc)))
            .collect()
    }

    /// Total invariants across locations.
    pub fn invariant_count(&self) -> usize {
        self.locations.iter().map(|r| r.invariants.len()).sum()
    }

    /// Total invariants carrying `grade`.
    pub fn graded_count(&self, grade: InvariantGrade) -> usize {
        self.locations
            .iter()
            .flat_map(|r| &r.invariants)
            .filter(|i| i.grade == grade)
            .count()
    }

    /// Total spurious invariants.
    pub fn spurious_count(&self) -> usize {
        self.locations
            .iter()
            .flat_map(|r| &r.invariants)
            .filter(|i| i.spurious)
            .count()
    }
}

/// Results of a batch analysis ([`crate::Engine::analyze_all`]) over one
/// shared program + predicate environment.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per request, in request order.
    pub reports: Vec<Report>,
    /// Checker-cache movement across the whole batch.
    pub cache: CacheStats,
}

impl BatchReport {
    /// The first report for `target`, if one was requested.
    pub fn by_target(&self, target: Symbol) -> Option<&Report> {
        self.reports.iter().find(|r| r.target == target)
    }

    /// Total invariants across all targets.
    pub fn invariant_count(&self) -> usize {
        self.reports.iter().map(|r| r.invariant_count()).sum()
    }

    /// Total wall-clock seconds across all targets.
    pub fn seconds(&self) -> f64 {
        self.reports.iter().map(|r| r.metrics.seconds).sum()
    }
}
