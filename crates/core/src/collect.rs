//! Model collection — the paper's `CollectModels` (Algorithm 1, line 1).
//!
//! Runs the program on every test input under the tracer and groups the
//! observed stack-heap models by breakpoint location. A run that faults
//! (seeded bug, non-termination guard) contributes the snapshots recorded
//! *before* the fault — the paper's Red-black-tree `insert` analysis
//! (§5.4) relies on exactly this partial-trace behaviour.
//!
//! The tree-walk interpreter (`sling_lang::Vm`) recurses natively, a
//! few Rust frames per MiniC activation, so the depth limit it enforces
//! is only reachable on a stack sized for it. Collection therefore runs
//! on a thread of its own whose stack is [`VmConfig::stack_bound`]: a
//! runaway recursion ends in the typed `StackOverflow` fault at
//! `max_depth` on whatever thread asked — an engine worker, a serve
//! connection handler — instead of aborting the process.

use std::collections::BTreeMap;

use sling_lang::{Location, Program, RtError, Snapshot, TraceConfig, Tracer, Vm, VmConfig};
use sling_logic::Symbol;

use crate::engine::AnalyzeError;
use crate::request::InputSource;

/// The largest native stack, in bytes, collection reserves for its
/// thread (1 GiB of address space; only the pages a run touches are
/// committed). A `max_depth` whose [`VmConfig::stack_bound`] exceeds
/// it is refused with [`AnalyzeError::DepthOutOfRange`].
pub const MAX_COLLECT_STACK: usize = 1 << 30;

/// One traced run of the target function.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Snapshots in execution order.
    pub snapshots: Vec<Snapshot>,
    /// The fault that ended the run early, if any.
    pub error: Option<RtError>,
}

/// All models observed for one target function across a test suite.
#[derive(Debug, Clone, Default)]
pub struct Collected {
    /// Per-run traces.
    pub runs: Vec<RunTrace>,
}

impl Collected {
    /// Snapshots grouped by location (flattened across runs, in run then
    /// execution order).
    pub fn by_location(&self) -> BTreeMap<Location, Vec<&Snapshot>> {
        let mut out: BTreeMap<Location, Vec<&Snapshot>> = BTreeMap::new();
        for run in &self.runs {
            for snap in &run.snapshots {
                out.entry(snap.location).or_default().push(snap);
            }
        }
        out
    }

    /// Total number of snapshots (the paper's "Traces" column).
    pub fn total_snapshots(&self) -> usize {
        self.runs.iter().map(|r| r.snapshots.len()).sum()
    }

    /// Number of runs that faulted.
    pub fn faulted_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.error.is_some()).count()
    }
}

/// Renumbers one run's activation ids into the collection-wide
/// sequence: every id shifts by `base`, and the next run's base comes
/// back. `activations` must be the VM's activation *counter*, not the
/// largest recorded id — an activation that faults before its first
/// snapshot still consumed an id, and offsetting by the recorded
/// maximum would let the next run reuse it (colliding entry/exit pairs
/// in the frame-rule validation).
fn offset_activations(snapshots: &mut [Snapshot], base: u64, activations: u64) -> u64 {
    for s in snapshots {
        s.activation += base;
    }
    base + activations
}

/// The collection thread's stack for `program` under `vm_config`, or
/// [`AnalyzeError::DepthOutOfRange`] when it would exceed
/// [`MAX_COLLECT_STACK`].
pub(crate) fn collect_stack(program: &Program, vm_config: VmConfig) -> Result<usize, AnalyzeError> {
    vm_config
        .stack_bound(program)
        .filter(|&bytes| bytes <= MAX_COLLECT_STACK)
        .ok_or(AnalyzeError::DepthOutOfRange(vm_config.max_depth))
}

/// Runs `target` once per input source and collects the traces, on a
/// thread whose stack holds `vm_config.max_depth` activations.
///
/// # Errors
///
/// [`AnalyzeError::DepthOutOfRange`] when that stack would exceed
/// [`MAX_COLLECT_STACK`], and [`AnalyzeError::CollectorSpawn`] when the
/// operating system refuses the thread.
pub fn collect_models(
    program: &Program,
    target: Symbol,
    inputs: &[InputSource],
    vm_config: VmConfig,
    trace_config: TraceConfig,
) -> Result<Collected, AnalyzeError> {
    let stack = collect_stack(program, vm_config)?;
    std::thread::scope(|scope| {
        let collector = std::thread::Builder::new()
            .name("sling-collect".into())
            .stack_size(stack)
            .spawn_scoped(scope, || {
                collect_runs(program, target, inputs, vm_config, trace_config)
            })
            .map_err(|e| AnalyzeError::CollectorSpawn(e.kind()))?;
        Ok(collector
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    })
}

/// [`collect_models`] on the calling thread's stack.
fn collect_runs(
    program: &Program,
    target: Symbol,
    inputs: &[InputSource],
    vm_config: VmConfig,
    trace_config: TraceConfig,
) -> Collected {
    let mut out = Collected::default();
    // Each run's VM numbers activations from 1; offset them so activation
    // ids are unique across the whole collection (the frame-rule
    // validation pairs entry/exit snapshots by activation id).
    let mut base: u64 = 0;
    for input in inputs {
        let mut vm = Vm::new(program, vm_config);
        let args = input.build(&mut vm.heap);
        vm.set_tracer(Tracer::new(target, trace_config));
        let error = vm.call(target, &args).err();
        let mut snapshots = vm.take_tracer().expect("tracer was installed").snapshots;
        base = offset_activations(&mut snapshots, base, vm.activations());
        out.runs.push(RunTrace { snapshots, error });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_lang::{check_program, parse_program, RtHeap};
    use sling_models::{StackHeapModel, Val};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const SUM: &str = "
        struct Cell { next: Cell*; data: int; }
        fn sum(x: Cell*) -> int {
            var total: int = 0;
            while @inv (x != null) { total = total + x->data; x = x->next; }
            return total;
        }";

    fn list_builder(vals: &'static [i64]) -> InputSource {
        InputSource::custom(move |heap: &mut RtHeap| {
            let mut next = Val::Nil;
            for v in vals.iter().rev() {
                let loc = heap.alloc(sym("Cell"), vec![next, Val::Int(*v)]);
                next = Val::Addr(loc);
            }
            vec![next]
        })
    }

    fn collect(p: &Program, target: &str, inputs: &[InputSource]) -> Collected {
        collect_models(
            p,
            sym(target),
            inputs,
            VmConfig::default(),
            TraceConfig::default(),
        )
        .expect("default depth fits")
    }

    #[test]
    fn collects_across_runs() {
        let p = parse_program(SUM).unwrap();
        check_program(&p).unwrap();
        let inputs = vec![
            list_builder(&[]),
            list_builder(&[1]),
            list_builder(&[1, 2, 3]),
        ];
        let c = collect(&p, "sum", &inputs);
        assert_eq!(c.runs.len(), 3);
        assert_eq!(c.faulted_runs(), 0);
        let by_loc = c.by_location();
        assert_eq!(by_loc[&Location::Entry].len(), 3);
        // Loop head: 1 + 2 + 4 hits.
        assert_eq!(by_loc[&Location::LoopHead(sym("inv"))].len(), 7);
        assert_eq!(by_loc[&Location::Exit(0)].len(), 3);
        assert_eq!(c.total_snapshots(), 13);
    }

    #[test]
    fn faulting_run_keeps_prefix() {
        let p = parse_program(
            "struct Cell { next: Cell*; data: int; }
             fn bad(x: Cell*) -> int {
                 @before;
                 return x->data;
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let c = collect(&p, "bad", &[InputSource::custom(|_| vec![Val::Nil])]);
        assert_eq!(c.runs.len(), 1);
        assert!(c.runs[0].error.is_some());
        // Entry and @before were recorded before the crash.
        assert_eq!(c.runs[0].snapshots.len(), 2);
    }

    /// Runaway recursion at the default depth faults typed even when
    /// the caller sits on a small thread: collection brings its own
    /// stack. A depth whose stack cannot be reserved is a typed error.
    #[test]
    fn runaway_recursion_faults_typed_from_a_small_thread() {
        let p = parse_program("fn f(n: int) -> int { return f(n + 1); }").unwrap();
        check_program(&p).unwrap();
        let inputs = [InputSource::custom(|_| vec![Val::Int(0)])];
        let c = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(256 << 10)
                .spawn_scoped(s, || collect(&p, "f", &inputs))
                .unwrap()
                .join()
                .unwrap()
        });
        assert_eq!(c.runs[0].error, Some(RtError::StackOverflow));
        assert_eq!(c.runs[0].snapshots.len(), VmConfig::default().max_depth);

        let huge = VmConfig {
            max_depth: usize::MAX / 2,
            ..VmConfig::default()
        };
        let err = collect_models(&p, sym("f"), &inputs, huge, TraceConfig::default());
        assert_eq!(
            err.unwrap_err(),
            AnalyzeError::DepthOutOfRange(usize::MAX / 2)
        );
    }

    /// The collision the old offsetting allowed: a run whose deepest
    /// activation recorded no snapshot (it faulted before reaching a
    /// breakpoint). Offsetting by the largest *recorded* id (2) would
    /// hand the next run a base of 2, reusing activation 3; offsetting
    /// by the VM's counter (3) keeps ids unique.
    #[test]
    fn activation_offset_uses_the_counter_not_the_recorded_max() {
        let snap = |activation: u64| Snapshot {
            location: Location::Entry,
            model: StackHeapModel::default(),
            tainted: false,
            activation,
        };
        // Run 1: activations 1 and 2 snapshotted; activation 3 faulted
        // before its first snapshot, so the counter says 3.
        let mut first = vec![snap(1), snap(2)];
        let base = offset_activations(&mut first, 0, 3);
        assert_eq!(base, 3, "counter, not max recorded id (2)");
        // Run 2: its activation 1 must not collide with run 1's unseen
        // activation 3.
        let mut second = vec![snap(1)];
        let base = offset_activations(&mut second, base, 1);
        assert_eq!(second[0].activation, 4);
        assert_eq!(base, 4);
    }

    /// Cross-run activation ids stay unique even when the first run
    /// faults mid-recursion.
    #[test]
    fn faulting_runs_keep_activation_ids_unique() {
        let p = parse_program(
            "struct Cell { next: Cell*; data: int; }
             fn probe(x: Cell*) -> int {
                 if (x->next == null) { return x->data; }
                 return probe(x->next);
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let inputs = [
            // Null x: `x->next` null-derefs right after the entry
            // snapshot records activation 1, ending run 1 early.
            InputSource::custom(|_| vec![Val::Nil]),
            InputSource::custom(|heap: &mut RtHeap| {
                let tail = heap.alloc(sym("Cell"), vec![Val::Nil, Val::Int(7)]);
                let head = heap.alloc(sym("Cell"), vec![Val::Addr(tail), Val::Int(3)]);
                vec![Val::Addr(head)]
            }),
        ];
        let c = collect(&p, "probe", &inputs);
        assert!(c.runs[0].error.is_some());
        // Run 1 consumed activation 1; run 2's two activations are
        // renumbered 2 and 3 — no reuse across runs.
        let ids: Vec<u64> = c
            .runs
            .iter()
            .flat_map(|r| r.snapshots.iter().map(|s| s.activation))
            .collect();
        assert_eq!(ids[0], 1);
        let run2: Vec<u64> = c.runs[1].snapshots.iter().map(|s| s.activation).collect();
        assert_eq!(run2, vec![2, 3, 3, 2]);
    }
}
