//! Differential tests for trace collection on the tree-walk interpreter
//! (`sling_lang::Vm`), the single program semantics.
//!
//! Two kinds of run are compared. The five seeded-bug `∗` programs of
//! the corpus are pinned: which runs fault, with which typed fault, and
//! which snapshots each faulting run keeps before it. A proptest sweep
//! then runs randomly generated integer programs (loops, branches,
//! recursion, faulting arithmetic) under a small step or depth budget
//! and under a large one: the two must agree on everything the small
//! budget allows, and a run the budget cuts short must end in the typed
//! `StepLimit`/`StackOverflow` fault with the large run's trace prefix.

use proptest::prelude::*;

use sling::{collect_models, Collected, InputSource};
use sling_lang::{check_program, parse_program, RtError, TraceConfig, VmConfig};
use sling_logic::{Span, Symbol};
use sling_models::Val;
use sling_suite::corpus::all_benches;

/// The corpus seed the evaluation harness uses (`EvalConfig::default`).
const SEED: u64 = 0x51_1e6;

/// One faulting run of a seeded-bug program: its index among the
/// program's runs, its fault, and the locations of the snapshots it
/// kept before the fault.
type FaultPin = (usize, RtError, &'static [&'static str]);

fn null_deref(lo: u32, hi: u32) -> RtError {
    RtError::NullDeref(Span::new(lo, hi))
}

/// Every `∗` program at the harness seed: `(name, runs, total
/// snapshots, faulting runs)`. The values were recorded when the
/// bytecode tier still existed and a corpus-wide gate proved it
/// trace-for-trace identical to the tree-walk interpreter.
fn seeded_bug_pins() -> Vec<(&'static str, usize, usize, Vec<FaultPin>)> {
    vec![
        (
            "sorted/quickSort",
            3,
            5,
            vec![(2, null_deref(260, 269), &["entry"])],
        ),
        (
            "bst/rmRoot",
            3,
            4,
            vec![
                (0, null_deref(146, 147), &["entry"]),
                (1, null_deref(219, 220), &["entry"]),
            ],
        ),
        (
            "rbt/del",
            9,
            12,
            vec![
                (0, null_deref(178, 179), &["entry"]),
                (1, null_deref(178, 179), &["entry"]),
                (2, null_deref(178, 179), &["entry"]),
                (3, null_deref(178, 187), &["entry"]),
                (4, null_deref(178, 187), &["entry"]),
                (5, null_deref(178, 187), &["entry"]),
            ],
        ),
        (
            "traversal/tree2listIter",
            3,
            5,
            vec![(0, null_deref(222, 223), &["entry"])],
        ),
        (
            "gh_sorted/mergeSort",
            3,
            4,
            vec![
                (0, null_deref(244, 245), &["entry"]),
                (1, null_deref(244, 253), &["entry"]),
            ],
        ),
    ]
}

/// The seeded bugs fire where they always did, and each faulting run
/// keeps exactly the snapshots recorded before its fault — the partial
/// traces the paper's §5.4 analysis of the `∗` programs relies on.
#[test]
fn seeded_bug_programs_keep_pinned_partial_traces() {
    let benches = all_benches();
    let starred: Vec<_> = benches.iter().filter(|b| b.bug.is_some()).collect();
    let pins = seeded_bug_pins();
    assert_eq!(
        starred.len(),
        pins.len(),
        "the paper seeds exactly five ∗ programs"
    );
    for (name, runs, snapshots, faults) in pins {
        let bench = starred
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("{name} is not a ∗ program"));
        let program = parse_program(bench.source).unwrap();
        check_program(&program).unwrap();
        let collected = collect_models(
            &program,
            Symbol::intern(bench.target),
            &bench.inputs(SEED),
            VmConfig::default(),
            TraceConfig::default(),
        )
        .unwrap();
        assert_eq!(collected.runs.len(), runs, "{name}: runs");
        assert_eq!(collected.total_snapshots(), snapshots, "{name}: snapshots");
        let observed: Vec<(usize, RtError, Vec<String>)> = collected
            .runs
            .iter()
            .enumerate()
            .filter_map(|(i, run)| {
                let locations = run.snapshots.iter().map(|s| s.location.to_string());
                Some((i, run.error.clone()?, locations.collect()))
            })
            .collect();
        let expected: Vec<(usize, RtError, Vec<String>)> = faults
            .into_iter()
            .map(|(i, e, locs)| (i, e, locs.iter().map(|l| l.to_string()).collect()))
            .collect();
        assert_eq!(observed, expected, "{name}: faulting runs");
    }
}

// ---------------------------------------------------------------------
// Proptest sweep: random integer programs under two budgets.
// ---------------------------------------------------------------------

/// A small random arithmetic expression over the variables in scope
/// (`vars`) and constants. Division and remainder are reachable, so
/// generated programs can fault with `DivByZero` (and large
/// multiplications with `Overflow`) before any budget runs out.
fn arb_expr(depth: u32, vars: &'static [&'static str]) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        2 => (0..vars.len()).prop_map(move |i| vars[i].to_string()),
        1 => (-9i64..10).prop_map(|n| if n < 0 { format!("({n})") } else { n.to_string() }),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_expr(depth - 1, vars);
    prop_oneof![
        4 => leaf,
        4 => (sub.clone(), prop_oneof![
                Just("+"), Just("-"), Just("*"), Just("/"), Just("%")
             ], sub.clone())
            .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
        1 => sub.prop_map(|e| format!("(-{e})")),
    ]
    .boxed()
}

/// A random loop-plus-branch function body. The loop counts `x` down
/// by a generated stride, so termination is not guaranteed — small
/// `max_steps` budgets cut runs short mid-loop.
fn arb_loop_program() -> impl Strategy<Value = String> {
    (
        arb_expr(2, &["a", "b"]),
        arb_expr(2, &["a", "b", "x"]),
        prop_oneof![Just("1"), Just("2"), Just("0")],
        arb_expr(2, &["a", "b", "x", "y"]),
        arb_expr(1, &["a", "b", "x", "y"]),
    )
        .prop_map(|(init_x, init_y, stride, acc, ret)| {
            format!(
                "fn f(a: int, b: int) -> int {{
                     var x: int = {init_x};
                     var y: int = {init_y};
                     while @l (x > 0) {{
                         x = x - {stride};
                         y = y + {acc};
                     }}
                     if (y > x) {{ return y; }} else {{ return {ret}; }}
                 }}"
            )
        })
}

/// A random linear-recursive function; small `max_depth` budgets cut
/// runs short mid-recursion.
fn arb_recursive_program() -> impl Strategy<Value = String> {
    (
        arb_expr(1, &["a", "b", "x", "y"]),
        prop_oneof![Just("1"), Just("2")],
    )
        .prop_map(|(combine, stride)| {
            format!(
                "fn f(a: int, b: int) -> int {{
                 var x: int = a;
                 var y: int = b;
                 if (a < 1) {{ return {combine}; }}
                 return y + f(a - {stride}, b + 1);
             }}"
            )
        })
}

fn collect_under(source: &str, a: i64, b: i64, vm_config: VmConfig) -> Collected {
    let program = parse_program(source).unwrap();
    check_program(&program).unwrap();
    let inputs = [InputSource::custom(move |_: &mut sling_lang::RtHeap| {
        vec![Val::Int(a), Val::Int(b)]
    })];
    collect_models(
        &program,
        Symbol::intern("f"),
        &inputs,
        vm_config,
        TraceConfig::default(),
    )
    .unwrap()
}

/// The budget property: the run under `small` either equals the run
/// under `large`, or it was cut short by exactly the `budget_fault`
/// after recording a prefix of the large run's snapshots.
fn budgets_agree(
    source: &str,
    a: i64,
    b: i64,
    small: VmConfig,
    large: VmConfig,
    budget_fault: RtError,
) {
    let cut = collect_under(source, a, b, small);
    let full = collect_under(source, a, b, large);
    let (cut, full) = (&cut.runs[0], &full.runs[0]);
    if cut.error.as_ref() == Some(&budget_fault) {
        assert!(
            full.snapshots.starts_with(&cut.snapshots),
            "{source}: the cut-short trace is not a prefix of the full one"
        );
    } else {
        assert_eq!(cut.error, full.error, "{source}: faults diverge");
        assert_eq!(cut.snapshots, full.snapshots, "{source}: traces diverge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loops and branches with faulting arithmetic: a step budget that
    /// expires mid-loop ends the run in `StepLimit` with a prefix of
    /// the unhurried run's trace; any other budget changes nothing.
    #[test]
    fn random_loop_programs_agree(
        source in arb_loop_program(),
        a in -20i64..20,
        b in -20i64..20,
        max_steps in prop_oneof![Just(3u64), Just(17), Just(64), Just(500)],
    ) {
        let at = |max_steps| VmConfig { max_steps, max_depth: 64 };
        budgets_agree(&source, a, b, at(max_steps), at(100_000), RtError::StepLimit);
    }

    /// Recursion: a depth budget that expires mid-recursion ends the
    /// run in `StackOverflow` with a prefix of the unhurried run's
    /// trace; any other budget changes nothing.
    #[test]
    fn random_recursive_programs_agree(
        source in arb_recursive_program(),
        a in -4i64..40,
        b in -20i64..20,
        max_depth in prop_oneof![Just(2usize), Just(5), Just(33)],
    ) {
        let at = |max_depth| VmConfig { max_steps: 100_000, max_depth };
        budgets_agree(&source, a, b, at(max_depth), at(1_000), RtError::StackOverflow);
    }
}
