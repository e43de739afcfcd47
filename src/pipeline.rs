//! One-call pipelines: source → analysis → optimized IR → instrumented
//! execution.
//!
//! [`compile`] is the single compile path — [`analyze_source_with`]
//! followed by [`build_ir`] — used by the `nmlc` driver, the checked
//! driver ([`run_checked`]) and the benchmark harness; [`run`] executes
//! the result on either engine. Each step is also available à la carte
//! from the individual crates.

use nml_escape::{analyze_source_with, Analysis, AnalyzeError, AnalyzeOptions, PolyMode};
use nml_opt::{
    apply_quarantine, build_ir, IrProgram, OptOptions, QuarantineSet, SabotagePlan, SiteId,
};
use nml_runtime::{
    Engine, Interp, InterpConfig, RuntimeError, RuntimeStats, SoundnessViolation, Vm,
};
use std::fmt;
use std::path::PathBuf;

/// Renders a value in the surface syntax; see [`nml_runtime::render_value`].
pub use nml_runtime::render_value as render_value_on;

/// What [`compile`] produces.
pub struct Compiled {
    /// The escape analysis (owns the program and type info).
    pub analysis: Analysis,
    /// The lowered IR, storage-annotated by the selected passes.
    pub ir: IrProgram,
}

/// Any pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// Front-end failure (syntax, types, analysis).
    Analyze(AnalyzeError),
    /// Execution failure.
    Runtime(RuntimeError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Analyze(e) => write!(f, "{e}"),
            PipelineError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AnalyzeError> for PipelineError {
    fn from(e: AnalyzeError) -> Self {
        PipelineError::Analyze(e)
    }
}

impl From<RuntimeError> for PipelineError {
    fn from(e: RuntimeError) -> Self {
        PipelineError::Runtime(e)
    }
}

/// Everything that shapes a compile: the analysis, the optimization
/// passes, and any deliberate wrong-claim injection. The default is the
/// plain all-heap lowering (no passes, no sabotage).
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Polymorphism mode, engine, budget and scheduling of the analysis.
    pub analyze: AnalyzeOptions,
    /// Which optimization passes to run.
    pub opt: OptOptions,
    /// Deliberate wrong-claim injection (tests, `--fault-unsound-*`);
    /// empty by default.
    pub sabotage: SabotagePlan,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            analyze: AnalyzeOptions::default(),
            opt: OptOptions::NONE,
            sabotage: SabotagePlan::default(),
        }
    }
}

/// Parses, type-checks, analyzes, lowers and optimizes `src` as `opts`
/// says. Under an analysis budget, exhaustion degrades the affected
/// functions to sound worst-case summaries (recorded in
/// `compiled.analysis.degradations`) and every pass skips them.
///
/// # Errors
///
/// [`PipelineError::Analyze`] for syntax and type errors — the analysis
/// phase itself is total.
pub fn compile(src: &str, opts: &CompileOptions) -> Result<Compiled, PipelineError> {
    let analysis = analyze_source_with(src, &opts.analyze)?;
    let ir = build_ir(&analysis, &opts.opt, &opts.sabotage);
    Ok(Compiled { analysis, ir })
}

/// Parses, **monomorphizes**, analyzes, and lowers with the local-escape-
/// test-driven stack-allocation plan (paper §4.2), then runs the passes
/// `opt` selects: per-call precision, so e.g. both spines of
/// `map pair [[1,2],[3,4],[5,6]]`'s literal are stacked, not just the
/// top one.
///
/// # Errors
///
/// See [`compile`]; additionally surfaces analysis divergence from the
/// planner.
pub fn compile_with_local_stack_alloc(
    src: &str,
    opt: &OptOptions,
) -> Result<Compiled, PipelineError> {
    let analysis = analyze_source_with(
        src,
        &AnalyzeOptions {
            mode: PolyMode::Monomorphize,
            ..AnalyzeOptions::default()
        },
    )?;
    let plan = nml_opt::plan_stack_allocation(&analysis.program, &analysis.info)
        .map_err(|e| PipelineError::Analyze(AnalyzeError::Escape(e)))?;
    let mut ir = nml_opt::lower_program_with(&analysis.program, &analysis.info, &plan);
    nml_opt::optimize(&mut ir, &analysis, opt);
    Ok(Compiled { analysis, ir })
}

/// The outcome of running a program: a printable result digest plus the
/// runtime statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Human-readable rendering of the result value.
    pub result: String,
    /// Instrumentation counters.
    pub stats: RuntimeStats,
}

/// Runs the IR on the selected execution engine and renders the result.
/// Both engines produce identical results and errors; the VM is the
/// production path, the tree-walker the oracle. Allocation statistics
/// agree too, unless the IR carries [`nml_opt::AllocMode::Elided`]
/// marks — the VM scalarizes those sites away (`allocs_elided`) while
/// the tree-walker, by design, still allocates them.
///
/// # Errors
///
/// Returns [`PipelineError::Runtime`] for any execution failure.
pub fn run(
    ir: &IrProgram,
    config: InterpConfig,
    engine: Engine,
) -> Result<RunOutcome, PipelineError> {
    match engine {
        Engine::Tree => {
            let mut interp = Interp::with_config(ir, config)?;
            let v = interp.run()?;
            let result = render_value_on(&interp.heap, &v)?;
            Ok(RunOutcome {
                result,
                stats: interp.heap.stats,
            })
        }
        Engine::Vm => {
            let mut vm = Vm::with_config(ir, config)?;
            let v = vm.run()?;
            let result = render_value_on(&vm.heap, &v)?;
            Ok(RunOutcome {
                result,
                stats: vm.heap.stats,
            })
        }
    }
}

/// Configuration for a checked-optimization run ([`run_checked`]).
#[derive(Debug, Clone)]
pub struct CheckedOptions {
    /// Re-executions allowed after violations before degrading to the
    /// fully unoptimized interpreter.
    pub max_retries: u32,
    /// How each attempt compiles: the analysis, the passes to check, and
    /// any sabotage. Every pass by default.
    pub compile: CompileOptions,
    /// Where to load/persist the quarantine set (`None` = in-memory
    /// only, starting empty).
    pub quarantine_path: Option<PathBuf>,
    /// Execution engine for every attempt, including the degraded
    /// unoptimized fallback run.
    pub engine: Engine,
}

impl Default for CheckedOptions {
    fn default() -> Self {
        CheckedOptions {
            max_retries: 8,
            compile: CompileOptions {
                opt: OptOptions::default(),
                ..CompileOptions::default()
            },
            quarantine_path: None,
            engine: Engine::default(),
        }
    }
}

/// One quarantined site and the evidence that condemned it.
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// The site whose optimization was disabled.
    pub site: SiteId,
    /// The violation that disproved the site's claim.
    pub violation: SoundnessViolation,
    /// Which attempt (0-based) detected it.
    pub attempt: u32,
}

/// The outcome of a checked run: the (verified) result plus the full
/// recovery history.
#[derive(Debug, Clone)]
pub struct CheckedOutcome {
    /// Rendering of the final result value.
    pub result: String,
    /// Stats of the successful attempt, with the recovery counters
    /// (`violations`, `quarantined_sites`, `retries`) aggregated across
    /// all attempts.
    pub stats: RuntimeStats,
    /// Every site quarantined during this run, in detection order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Total attempts executed (1 = clean first run).
    pub attempts: u32,
    /// Whether the run had to fall back to the fully unoptimized
    /// interpreter (retries exhausted or an unattributable violation).
    pub degraded_unoptimized: bool,
}

/// The checked-optimization driver: analyze once, build the IR with the
/// selected passes, execute under the tombstoning heap, and on a
/// [`SoundnessViolation`] quarantine the offending site, rebuild with
/// that site's optimization disabled, and re-execute — up to
/// `max_retries` times before degrading to the fully unoptimized
/// interpreter, which cannot violate (it makes no claims).
///
/// The quarantine set persists across calls through
/// `opts.quarantine_path`, so a site disproved once stays disabled.
///
/// # Errors
///
/// [`PipelineError::Analyze`] for front-end failures;
/// [`PipelineError::Runtime`] only for *non-claim* runtime errors
/// (division by zero, step limits, fault-injected OOM) — claim
/// violations are consumed by the retry loop, never returned.
pub fn run_checked(
    src: &str,
    opts: &CheckedOptions,
    base_config: &InterpConfig,
) -> Result<(CheckedOutcome, Compiled), PipelineError> {
    let (mut quarantine, quarantine_warning) = match &opts.quarantine_path {
        Some(p) => QuarantineSet::load(p),
        None => (QuarantineSet::new(), None),
    };
    if let Some(w) = quarantine_warning {
        eprintln!("warning: quarantine file: {w}");
    }
    let analysis = analyze_source_with(src, &opts.compile.analyze)?;
    let mut records: Vec<QuarantineRecord> = Vec::new();
    let mut violations = 0u64;
    let mut attempts = 0u32;
    let mut degraded = false;

    let (outcome, ir) = loop {
        let attempt = attempts;
        attempts += 1;
        let mut ir = build_ir(&analysis, &opts.compile.opt, &opts.compile.sabotage);
        apply_quarantine(&mut ir, &quarantine);
        let mut config = base_config.clone();
        config.heap.checked = true;
        match run(&ir, config, opts.engine) {
            Ok(out) => break (out, ir),
            Err(PipelineError::Runtime(RuntimeError::Soundness(v))) => {
                violations += 1;
                let quarantinable = v
                    .site
                    .filter(|s| attempt < opts.max_retries && !quarantine.contains(*s));
                match quarantinable {
                    Some(site) => {
                        quarantine.insert(site);
                        records.push(QuarantineRecord {
                            site,
                            violation: *v,
                            attempt,
                        });
                    }
                    None => {
                        // Unattributable violation, repeat offender, or
                        // retries exhausted: degrade to the unoptimized
                        // interpreter, which makes no claims and so
                        // cannot violate.
                        if let Some(site) = v.site.filter(|_| attempt < opts.max_retries) {
                            // A quarantined site violated again — the
                            // fallback rewrite itself must be wrong;
                            // record it for the report before degrading.
                            records.push(QuarantineRecord {
                                site,
                                violation: *v,
                                attempt,
                            });
                        }
                        degraded = true;
                        attempts += 1;
                        let ir = build_ir(&analysis, &OptOptions::NONE, &SabotagePlan::default());
                        let out = run(&ir, base_config.clone(), opts.engine)?;
                        break (out, ir);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    };

    if let Some(p) = &opts.quarantine_path {
        if let Err(e) = quarantine.save(p) {
            eprintln!("warning: quarantine file: {e}");
        }
    }
    let mut stats = outcome.stats;
    stats.violations = violations;
    stats.quarantined_sites = records.len() as u64;
    stats.retries = attempts.saturating_sub(1).into();
    Ok((
        CheckedOutcome {
            result: outcome.result,
            stats,
            quarantined: records,
            attempts,
            degraded_unoptimized: degraded,
        },
        Compiled { analysis, ir },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tree(ir: &IrProgram) -> RunOutcome {
        run(ir, InterpConfig::default(), Engine::Tree).unwrap()
    }

    #[test]
    fn compile_and_run_quick() {
        let c = compile("letrec inc x = x + 1 in inc 41", &CompileOptions::default()).unwrap();
        let out = run(&c.ir, InterpConfig::default(), Engine::Tree).unwrap();
        assert_eq!(out.result, "42");
    }

    #[test]
    fn run_renders_nested_lists() {
        let c = compile("[[1, 2], [3]]", &CompileOptions::default()).unwrap();
        let out = run(&c.ir, InterpConfig::default(), Engine::Tree).unwrap();
        assert_eq!(out.result, "[[1, 2], [3]]");
    }

    #[test]
    fn stack_alloc_pipeline_reduces_heap_allocs() {
        let src = "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
                   in sum [1, 2, 3, 4]";
        let plain = run_tree(&compile(src, &CompileOptions::default()).unwrap().ir);
        let stack_only = CompileOptions {
            opt: OptOptions {
                stack: true,
                ..OptOptions::NONE
            },
            ..CompileOptions::default()
        };
        let stacked = run_tree(&compile(src, &stack_only).unwrap().ir);
        assert_eq!(plain.result, stacked.result);
        assert_eq!(plain.stats.heap_allocs, 4);
        assert_eq!(stacked.stats.heap_allocs, 0);
        assert_eq!(stacked.stats.stack_allocs, 4);
        assert_eq!(stacked.stats.stack_freed, 4);
    }

    #[test]
    fn local_stack_alloc_pipeline_stacks_nested_spines() {
        let src = "letrec
          pair x = cons (car x) (cons (car (cdr x)) nil);
          map f l = if (null l) then nil
                    else cons (f (car l)) (map f (cdr l))
        in map pair [[1,2],[3,4],[5,6]]";
        let base = run_tree(&compile(src, &CompileOptions::default()).unwrap().ir);
        let local = run_tree(
            &compile_with_local_stack_alloc(src, &OptOptions::NONE)
                .unwrap()
                .ir,
        );
        assert_eq!(base.result, local.result);
        // 9 literal cells (3 top spine + 6 inner spines) go to the stack;
        // only pair's fresh result cells stay on the heap.
        assert_eq!(local.stats.stack_allocs, 9);
        assert_eq!(local.stats.stack_freed, 9);
        assert_eq!(base.stats.heap_allocs - local.stats.heap_allocs, 9);
    }

    #[test]
    fn errors_propagate() {
        let opts = CompileOptions::default();
        assert!(matches!(
            compile("1 +", &opts),
            Err(PipelineError::Analyze(_))
        ));
        let c = compile("1 / 0", &opts).unwrap();
        assert!(matches!(
            run(&c.ir, InterpConfig::default(), Engine::Tree),
            Err(PipelineError::Runtime(_))
        ));
    }
}
