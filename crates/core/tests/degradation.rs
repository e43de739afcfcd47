//! Budget-exhaustion degradation is *sound*: whenever the governor trips
//! and a function falls back to the worst-case summary `W^τ`, the
//! degraded verdicts must over-approximate the reference interpreter's
//! exact tables (paper §5) — never under-approximate them.

use nml_escape::{
    analyze_source_with, tabulate_program, Analysis, AnalyzeOptions, Be, Budget, DegradeReason,
    EngineConfig, EscapeError, Resource,
};
use std::time::Duration;

/// Every per-parameter verdict in `analysis` must be ⊒ the exact verdict
/// from the reference tabulation of the same (elaborated) program.
fn assert_sound_vs_reference(analysis: &Analysis) {
    let tables =
        tabulate_program(&analysis.program, &analysis.info).expect("first-order reference");
    for (name, summary) in &analysis.summaries {
        for (i, p) in summary.params.iter().enumerate() {
            let exact =
                nml_escape::reference_global(&tables, &analysis.info, *name, i).expect("G(f,i)");
            assert!(
                exact.le(p.verdict),
                "{name} param {i}: degraded verdict {:?} under-approximates exact {exact:?}",
                p.verdict
            );
        }
    }
}

/// A degraded function's summary must literally be `W^τ`: every parameter
/// fully escaping.
fn assert_worst_case(analysis: &Analysis, name: &str) {
    let summary = analysis.summary(name).expect("summary exists");
    for p in &summary.params {
        assert_eq!(
            p.verdict,
            Be::escaping(p.spines),
            "{name} is not worst-case"
        );
    }
    assert!(
        analysis.is_degraded(name),
        "{name} not recorded as degraded"
    );
}

/// Deep spines (a triple-nested flatten) with a tiny widening threshold:
/// widening fires, the node budget trips, and the degraded result is
/// still an over-approximation of the exact tables.
#[test]
fn deep_spine_node_budget_degrades_soundly() {
    let src = "letrec
      append x y = if (null x) then y
                   else cons (car x) (append (cdr x) y);
      flat ll = if (null ll) then nil
                else append (car ll) (flat (cdr ll));
      flat2 lll = if (null lll) then nil
                  else append (flat (car lll)) (flat2 (cdr lll))
    in flat2 [[[1, 2], [3]], [[4]]]";
    let config = EngineConfig {
        max_passes: 10_000,
        widen_depth: 2,
        widen_arity: 8,
    };
    let budget = Budget::tight(u32::MAX, 8, None);
    let analysis = analyze_source_with(
        src,
        &AnalyzeOptions {
            engine: config,
            budget,
            ..AnalyzeOptions::default()
        },
    )
    .expect("analysis is total under a budget");
    assert!(
        !analysis.fully_precise(),
        "an 8-node budget must trip on this program: {:?}",
        analysis.stats
    );
    assert!(analysis.degradations.iter().all(|d| matches!(
        &d.reason,
        DegradeReason::Engine(EscapeError::BudgetExhausted {
            resource: Resource::Nodes,
            ..
        })
    )));
    for d in &analysis.degradations {
        assert_worst_case(&analysis, d.function.as_str());
    }
    assert_sound_vs_reference(&analysis);
}

/// Mutual recursion under a one-pass budget: the first fixpoint query
/// needs at least two passes, so the governor trips on `Passes`; the
/// worst-case fallback stays above the exact tables.
#[test]
fn mutual_recursion_pass_budget_degrades_soundly() {
    let src = "letrec
      ping l = if (null l) then nil else cons (car l) (pong (cdr l));
      pong l = if (null l) then nil else cons (car l) (ping (cdr l))
    in ping [1, 2, 3]";
    let budget = Budget::tight(1, u64::MAX, None);
    let analysis = analyze_source_with(
        src,
        &AnalyzeOptions {
            budget,
            ..AnalyzeOptions::default()
        },
    )
    .expect("analysis is total under a budget");
    assert!(!analysis.fully_precise());
    // The governor is sticky: once the pass budget is gone, *every*
    // remaining function degrades rather than silently re-spending.
    assert!(analysis.is_degraded("ping") || analysis.is_degraded("pong"));
    for d in &analysis.degradations {
        assert!(
            matches!(
                &d.reason,
                DegradeReason::Engine(EscapeError::BudgetExhausted { .. })
            ),
            "{d}"
        );
        assert_worst_case(&analysis, d.function.as_str());
    }
    assert_sound_vs_reference(&analysis);
}

/// An already-expired deadline degrades everything immediately — and the
/// result is still a sound table, not an error.
#[test]
fn expired_deadline_degrades_everything() {
    let src = "letrec
      len l = if (null l) then 0 else 1 + len (cdr l);
      idl l = if (null l) then nil else cons (car l) (idl (cdr l))
    in len (idl [1, 2])";
    let budget = Budget::tight(u32::MAX, u64::MAX, Some(Duration::ZERO));
    let analysis = analyze_source_with(
        src,
        &AnalyzeOptions {
            budget,
            ..AnalyzeOptions::default()
        },
    )
    .expect("analysis is total under a deadline");
    assert!(analysis.is_degraded("len"));
    assert!(analysis.is_degraded("idl"));
    assert_sound_vs_reference(&analysis);
    // The rendered analysis carries one warning line per degradation.
    let shown = analysis.to_string();
    assert!(shown.contains("warning:"), "{shown}");
}

/// The same program under an unlimited budget is fully precise — the
/// governor's mere presence must not cost precision.
#[test]
fn unlimited_budget_is_fully_precise() {
    let src = "letrec
      take n l = if n = 0 then nil
                 else if (null l) then nil
                 else cons (car l) (take (n - 1) (cdr l))
    in take 2 [1, 2, 3]";
    let analysis = analyze_source_with(src, &AnalyzeOptions::default()).expect("analysis");
    assert!(analysis.fully_precise());
    assert!(analysis.degradations.is_empty());
    // take retains its list parameter's top spine (it rebuilds the spine).
    let summary = analysis.summary("take").expect("take");
    assert!(summary.param(1).retained_spines() >= 1);
}
