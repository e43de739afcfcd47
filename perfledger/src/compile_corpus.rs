//! `compile_corpus`: each op is one cold compile of a seeded corpus
//! program, through every compile layer, followed by one run of its
//! body on the VM.
//!
//! The compile layers do nearly all the work and the runtime almost
//! none, so a runtime change must leave this workload flat.

use crate::calib::Clock;
use crate::trace::Tracer;
use crate::{
    coverage, layer_median, self_ms, set_end_to_end, set_trace_common, timed_setup, Cfg, Counts,
    OpRec, Outcome,
};
use nml_corpusgen::{generate, Shape};
use nml_escape::{analyze_program_scheduled, Budget, EngineConfig, ScheduleOptions};
use nml_opt::{lower_program, optimize, OptOptions};
use nml_runtime::{Interp, InterpConfig, RuntimeError, Value, Vm};
use nml_syntax::parse_program;
use nml_types::infer_program;

/// Distinct programs the ops cycle over.
const PROGRAMS: u64 = 8;
/// Ops per second on the reference host.
const RATE: f64 = 30.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Per-layer time metrics and the spans they are read from.
const LAYERS: &[(&str, &str)] = &[
    ("syntax.parse_ms", "syntax.parse"),
    ("types.infer_ms", "types.infer"),
    ("escape.solve_ms", "escape.solve"),
    ("opt.lower_ms", "opt.lower"),
    ("opt.passes_ms", "opt.passes"),
    ("runtime.bytecode_ms", "runtime.bytecode"),
    ("runtime.body_run_ms", "runtime.body_run"),
];

/// The corpus shape: 256 functions in mixed clusters of 8, two dead
/// allocation sites per body.
pub fn shape() -> Shape {
    Shape::preset("mixed")
        .expect("mixed is a preset")
        .functions(256)
        .cluster(8)
        .alloc_density(2)
}

/// The distinct program sources for `seed`.
pub fn sources(seed: u64) -> Vec<String> {
    (0..PROGRAMS)
        .map(|i| generate(seed.wrapping_mul(PROGRAMS).wrapping_add(i), &shape()).source())
        .collect()
}

fn int_of(v: Result<Value<'_>, RuntimeError>) -> Result<i64, String> {
    match v.map_err(|e| e.to_string())? {
        Value::Int(n) => Ok(n),
        other => Err(format!("body returned {other:?}, not an int")),
    }
}

/// The reference: the tree-walker on the unoptimized IR, with no escape
/// analysis or optimization pass on the path.
pub fn reference(src: &str) -> Result<i64, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let info = infer_program(&program).map_err(|e| e.to_string())?;
    let ir = lower_program(&program, &info);
    let mut interp =
        Interp::with_config(&ir, InterpConfig::default()).map_err(|e| e.to_string())?;
    int_of(interp.run())
}

/// One cold compile and body run; returns the body's value and the
/// op's counts.
fn compile_and_run(src: &str, tr: &mut Tracer) -> Result<(i64, Counts), String> {
    let program = tr
        .span("syntax.parse", || parse_program(src))
        .map_err(|e| e.to_string())?;
    let info = tr
        .span("types.infer", || infer_program(&program))
        .map_err(|e| e.to_string())?;
    let analysis = tr
        .span("escape.solve", || {
            analyze_program_scheduled(
                program,
                info,
                EngineConfig::default(),
                Budget::unlimited(),
                &ScheduleOptions::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    let mut ir = tr.span("opt.lower", || {
        lower_program(&analysis.program, &analysis.info)
    });
    let summary = tr.span("opt.passes", || {
        optimize(&mut ir, &analysis, &OptOptions::default())
    });
    let code_ops = tr.span("runtime.bytecode", || {
        let code = nml_runtime::compile(&ir);
        code.chunks.iter().map(|c| c.code.len()).sum::<usize>()
    });
    let value = tr.span("runtime.body_run", || {
        let mut vm = Vm::with_config(&ir, InterpConfig::default()).map_err(|e| e.to_string())?;
        int_of(vm.run())
    })?;
    let counts = vec![
        ("escape.sccs", analysis.schedule.scc_count as f64),
        ("escape.passes", f64::from(analysis.stats.passes)),
        ("escape.memo_entries", analysis.stats.memo_entries as f64),
        ("escape.widenings", f64::from(analysis.stats.widenings)),
        ("escape.degraded_fns", analysis.degradations.len() as f64),
        ("opt.stack_calls", summary.stack_calls as f64),
        ("opt.block_calls", summary.block_calls as f64),
        ("opt.pretenured_sites", summary.pretenured_sites as f64),
        ("opt.elided_sites", summary.elided_sites as f64),
        ("runtime.code_ops", code_ops as f64),
    ];
    // The IR and the analysis are freed inside the layers that built
    // them, so teardown is not left unattributed in the op.
    tr.span("opt.lower", || drop(ir));
    tr.span("escape.solve", || drop(analysis));
    Ok((value, counts))
}

fn pass(
    srcs: &[String],
    expected: &[i64],
    n: usize,
    clock: &mut Clock,
    tr: &mut Tracer,
) -> Vec<OpRec> {
    (0..n)
        .map(|i| {
            let k = i % srcs.len();
            tr.set_op(i as u32);
            let (r, stamp) = clock.time(|| {
                let id = tr.enter("op");
                let r = compile_and_run(&srcs[k], tr);
                tr.exit(id);
                r
            });
            let (ok, counts) = match r {
                Ok((v, counts)) => (v == expected[k], counts),
                Err(e) => {
                    eprintln!("perfledger: compile_corpus op {i}: {e}");
                    (false, Vec::new())
                }
            };
            OpRec {
                kind: 0,
                input: Some(k as u32),
                stamp,
                ok,
                counts,
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (srcs, setup_s) = timed_setup(
        reps,
        || {
            let srcs = sources(cfg.seed);
            compile_and_run(&srcs[0], &mut Tracer::new(false))?;
            Ok(srcs)
        },
        |_| Ok(()),
    )?;
    // Correctness gate, before any timing: the optimized VM path must
    // agree with the reference on every distinct input.
    let mut expected = Vec::with_capacity(srcs.len());
    for src in &srcs {
        let want = reference(src)?;
        let (got, _) = compile_and_run(src, &mut Tracer::new(false))?;
        if got != want {
            return Err(format!(
                "compile_corpus gate: VM gave {got}, reference {want}"
            ));
        }
        expected.push(want);
    }

    let n = cfg.ops(RATE, 1);
    let mut clock = Clock::new();
    let untraced = pass(&srcs, &expected, n, &mut clock, &mut Tracer::new(false));
    if !cfg.trace {
        let cal = clock.finish();
        let mut out = Outcome::new(&[&untraced]);
        out.set("setup_s", setup_s);
        set_end_to_end(&mut out, &untraced, &cal, 1)?;
        return Ok(out);
    }
    let mut tr = Tracer::new(true);
    let traced = pass(&srcs, &expected, n, &mut clock, &mut tr);
    let cal = clock.finish();
    let times = tr.times();
    tr.write_jsonl(&cfg.work_dir.join("trace-compile_corpus.jsonl"))
        .map_err(|e| e.to_string())?;

    let mut out = Outcome::new(&[&untraced, &traced]);
    set_trace_common(&mut out, &untraced, &traced, &cal);
    for &(metric, span) in LAYERS {
        out.set(
            metric,
            layer_median(&traced, &cal, 0, |i| self_ms(&times, i, span)),
        );
    }
    let spans: Vec<&str> = LAYERS.iter().map(|l| l.1).collect();
    out.set("trace.coverage_frac", coverage(&traced, &times, &spans));
    out.set_count_means(&traced, &[0]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sources() {
        let a = sources(7);
        let b = sources(7);
        assert_eq!(a.len(), PROGRAMS as usize);
        assert!(a.iter().zip(&b).all(|(x, y)| x.as_bytes() == y.as_bytes()));
        assert_ne!(a, sources(8), "another seed gives other programs");
        assert!(
            a.windows(2).all(|w| w[0] != w[1]),
            "the programs are distinct"
        );
    }

    #[test]
    fn gate_rejects_a_wrong_expected_value() {
        let srcs = sources(3);
        let want = reference(&srcs[0]).unwrap();
        let mut clock = Clock::new();
        let ok = pass(&srcs[..1], &[want], 2, &mut clock, &mut Tracer::new(false));
        assert!(ok.iter().all(|r| r.ok));
        let bad = pass(
            &srcs[..1],
            &[want + 1],
            2,
            &mut clock,
            &mut Tracer::new(false),
        );
        assert!(bad.iter().all(|r| !r.ok));
        assert_eq!(Outcome::new(&[&bad]).failed, 2);
    }
}
