//! `run_lists`: each op is one pass over a fixed suite of list
//! programs, compiled once at set-up with the default optimization
//! passes. Each program runs on a fresh VM and heap.
//!
//! VM dispatch, the allocation modes (`DCONS` reuse, block and stack
//! regions, scalar replacement, pretenuring) and the generational GC do
//! nearly all the work; the compile layers do none, so a compile-layer
//! change must leave this workload flat.

use crate::calib::Clock;
use crate::trace::Tracer;
use crate::{
    coverage, incl_ms, layer_median, self_ms, set_end_to_end, set_trace_common, timed_setup, Cfg,
    OpRec, Outcome,
};
use nml_corpusgen::Rng;
use nml_escape::{analyze_program_scheduled, Budget, EngineConfig, ScheduleOptions};
use nml_opt::{lower_program, optimize, IrProgram, OptOptions};
use nml_runtime::{Interp, InterpConfig, RuntimeStats, Value, Vm};
use nml_syntax::parse_program;
use nml_types::infer_program;

/// Passes per second on the reference host.
const RATE: f64 = 18.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// A suite program: its per-program metric, its span, and its source
/// built from a seeded start value for its pseudo-random list contents.
struct Prog {
    metric: &'static str,
    span: &'static str,
    source: fn(u64) -> String,
}

/// Shared definitions: a pseudo-random stream (`next`), a list of `n`
/// values below 1000 from it (`mkrand`), and `sum`.
const PRELUDE: &str = "
  next s = (s * 75 + 74) - ((s * 75 + 74) / 65537) * 65537;
  mkrand n s = if n = 0 then nil else cons (s - (s / 1000) * 1000) (mkrand (n - 1) (next s));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  append x y = if (null x) then y else cons (car x) (append (cdr x) y)";

const SUITE: &[Prog] = &[
    Prog {
        metric: "prog.naive_reverse_ms",
        span: "prog.naive_reverse",
        source: |s| {
            format!(
                "letrec {PRELUDE};
                   rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil)
                 in sum (rev (mkrand 350 {s}))"
            )
        },
    },
    Prog {
        metric: "prog.partition_sort_ms",
        span: "prog.partition_sort",
        source: |s| {
            format!(
                "letrec {PRELUDE};
                   split p x l h =
                     if (null x) then (cons l (cons h nil))
                     else if (car x) < p
                          then split p (cdr x) (cons (car x) l) h
                          else split p (cdr x) l (cons (car x) h);
                   ps x = if (null x) then nil
                          else append (ps (car (split (car x) (cdr x) nil nil)))
                                      (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))));
                   go k acc = if k = 0 then acc else go (k - 1) (acc + sum (ps (mkrand 400 (k + {s}))))
                 in go 4 0"
            )
        },
    },
    Prog {
        metric: "prog.map_pair_ms",
        span: "prog.map_pair",
        source: |s| {
            format!(
                "letrec {PRELUDE};
                   pair x = cons (car x) (cons (car (cdr x)) nil);
                   map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l));
                   mkpairs l = if (null l) then nil
                               else cons (cons (car l) (cons (car l + 1) nil)) (mkpairs (cdr l));
                   sumheads l = if (null l) then 0 else (car (car l)) + sumheads (cdr l);
                   go k acc = if k = 0 then acc
                              else go (k - 1) (acc + sumheads (map pair (mkpairs (mkrand 600 (k + {s})))))
                 in go 12 0"
            )
        },
    },
    Prog {
        metric: "prog.create_consume_ms",
        span: "prog.create_consume",
        source: |s| {
            format!(
                "letrec {PRELUDE};
                   go k acc = if k = 0 then acc else go (k - 1) (acc + sum (mkrand 3000 (k + {s})))
                 in go 6 0"
            )
        },
    },
    Prog {
        metric: "prog.tuple_accumulate_ms",
        span: "prog.tuple_accumulate",
        source: |s| {
            format!(
                "letrec
                   step i acc = letrec t = cons i (cons acc nil)
                                in (car t) * 2 + car (cdr t) - (car (cdr t) / 1000000) * 1000000;
                   loop n acc = if n = 0 then acc else loop (n - 1) (step n acc)
                 in loop 25000 {s}"
            )
        },
    },
    Prog {
        metric: "prog.churn_with_live_set_ms",
        span: "prog.churn_with_live_set",
        source: |s| {
            format!(
                "letrec {PRELUDE};
                   keep t big = if (null t) then big else big;
                   churn k big = if k = 0 then big
                                 else churn (k - 1) (keep (cons k (cons k (cons k nil))) big)
                 in sum (churn 25000 (mkrand 4000 {s}))"
            )
        },
    },
];

/// Suite sources for `seed`: each program gets its own start value.
fn sources(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    SUITE
        .iter()
        .map(|p| (p.source)(1 + rng.below(65_000) as u64))
        .collect()
}

/// Parse, infer, analyze, lower and optimize (the default `-O`).
fn compile(src: &str) -> Result<IrProgram, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let info = infer_program(&program).map_err(|e| e.to_string())?;
    let analysis = analyze_program_scheduled(
        program,
        info,
        EngineConfig::default(),
        Budget::unlimited(),
        &ScheduleOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut ir = lower_program(&analysis.program, &analysis.info);
    optimize(&mut ir, &analysis, &OptOptions::default());
    Ok(ir)
}

/// The reference: the tree-walker on the unoptimized IR.
fn reference(src: &str) -> Result<i64, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let info = infer_program(&program).map_err(|e| e.to_string())?;
    let ir = lower_program(&program, &info);
    let mut interp =
        Interp::with_config(&ir, InterpConfig::default()).map_err(|e| e.to_string())?;
    match interp.run().map_err(|e| e.to_string())? {
        Value::Int(n) => Ok(n),
        other => Err(format!("suite program returned {other:?}")),
    }
}

/// Runs one program on a fresh VM: its value and run statistics.
fn run_one(ir: &IrProgram, tr: &mut Tracer) -> Result<(i64, RuntimeStats), String> {
    let mut vm = tr
        .span("runtime.vm_build", || {
            Vm::with_config(ir, InterpConfig::default())
        })
        .map_err(|e| e.to_string())?;
    tr.span("runtime.vm_run", move || {
        let v = vm.run().map_err(|e| e.to_string())?;
        let stats = vm.heap.stats;
        match v {
            // The heap is freed here, inside the run it served.
            Value::Int(n) => Ok((n, stats)),
            other => Err(format!("suite program returned {other:?}")),
        }
    })
}

/// Counts of one pass: sums over the suite (peak live: the maximum).
fn pass_counts(all: &[RuntimeStats]) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&RuntimeStats) -> u64| all.iter().map(f).sum::<u64>() as f64;
    let heap = sum(|s| s.heap_allocs);
    let avoided = sum(|s| s.stack_allocs + s.block_allocs + s.dcons_reuses + s.allocs_elided);
    vec![
        ("runtime.steps", sum(|s| s.steps)),
        ("runtime.heap_allocs", heap),
        ("runtime.stack_allocs", sum(|s| s.stack_allocs)),
        ("runtime.block_allocs", sum(|s| s.block_allocs)),
        ("runtime.dcons_reuses", sum(|s| s.dcons_reuses)),
        ("runtime.allocs_elided", sum(|s| s.allocs_elided)),
        ("runtime.minor_gcs", sum(|s| s.minor_gcs)),
        ("runtime.major_gcs", sum(|s| s.major_gcs)),
        ("runtime.promoted", sum(|s| s.promoted)),
        (
            "runtime.peak_live",
            all.iter().map(|s| s.peak_live).max().unwrap_or(0) as f64,
        ),
        ("runtime.avoided_frac", avoided / (heap + avoided).max(1.0)),
    ]
}

fn pass(
    irs: &[IrProgram],
    expected: &[i64],
    n: usize,
    clock: &mut Clock,
    tr: &mut Tracer,
) -> Vec<OpRec> {
    (0..n)
        .map(|i| {
            tr.set_op(i as u32);
            let (results, stamp) = clock.time(|| {
                let id = tr.enter("op");
                let results: Vec<_> = SUITE
                    .iter()
                    .zip(irs)
                    .map(|(p, ir)| {
                        let id = tr.enter(p.span);
                        let r = run_one(ir, tr);
                        tr.exit(id);
                        r
                    })
                    .collect();
                tr.exit(id);
                results
            });
            let mut ok = true;
            let mut stats = Vec::with_capacity(SUITE.len());
            for (r, want) in results.into_iter().zip(expected) {
                match r {
                    Ok((v, s)) => {
                        ok &= v == *want;
                        stats.push(s);
                    }
                    Err(e) => {
                        eprintln!("perfledger: run_lists op {i}: {e}");
                        ok = false;
                    }
                }
            }
            OpRec {
                kind: 0,
                input: Some(0),
                stamp,
                ok,
                counts: pass_counts(&stats),
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let srcs = sources(cfg.seed);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (irs, setup_s) = timed_setup(
        reps,
        || {
            srcs.iter()
                .map(|s| compile(s))
                .collect::<Result<Vec<_>, _>>()
        },
        |_| Ok(()),
    )?;
    // Correctness gate, before any timing.
    let mut expected = Vec::with_capacity(srcs.len());
    for ((src, ir), p) in srcs.iter().zip(&irs).zip(SUITE) {
        let want = reference(src)?;
        let (got, _) = run_one(ir, &mut Tracer::new(false))?;
        if got != want {
            return Err(format!(
                "run_lists gate: {} gave {got}, reference {want}",
                p.span
            ));
        }
        expected.push(want);
    }

    let n = cfg.ops(RATE, 1);
    let mut clock = Clock::new();
    let untraced = pass(&irs, &expected, n, &mut clock, &mut Tracer::new(false));
    if !cfg.trace {
        let cal = clock.finish();
        let mut out = Outcome::new(&[&untraced]);
        out.set("setup_s", setup_s);
        set_end_to_end(&mut out, &untraced, &cal, 1)?;
        return Ok(out);
    }
    let mut tr = Tracer::new(true);
    let traced = pass(&irs, &expected, n, &mut clock, &mut tr);
    let cal = clock.finish();
    let times = tr.times();
    tr.write_jsonl(&cfg.work_dir.join("trace-run_lists.jsonl"))
        .map_err(|e| e.to_string())?;

    let mut out = Outcome::new(&[&untraced, &traced]);
    set_trace_common(&mut out, &untraced, &traced, &cal);
    for (metric, span) in [
        ("runtime.vm_build_ms", "runtime.vm_build"),
        ("runtime.vm_run_ms", "runtime.vm_run"),
    ] {
        out.set(
            metric,
            layer_median(&traced, &cal, 0, |i| self_ms(&times, i, span)),
        );
    }
    for p in SUITE {
        out.set(
            p.metric,
            layer_median(&traced, &cal, 0, |i| incl_ms(&times, i, p.span)),
        );
    }
    out.set(
        "trace.coverage_frac",
        coverage(&traced, &times, &["runtime.vm_build", "runtime.vm_run"]),
    );
    out.set_count_means(&traced, &[0]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sources() {
        let a = sources(11);
        assert!(a
            .iter()
            .zip(sources(11))
            .all(|(x, y)| x.as_bytes() == y.as_bytes()));
        assert_ne!(a, sources(12));
        assert_eq!(a.len(), SUITE.len());
    }

    #[test]
    fn every_suite_program_compiles_and_matches_its_reference() {
        // Small start value; the check is the same one the gate makes.
        for p in SUITE {
            let src = (p.source)(5);
            let ir = compile(&src).unwrap();
            let (got, _) = run_one(&ir, &mut Tracer::new(false)).unwrap();
            assert_eq!(got, reference(&src).unwrap(), "{}", p.span);
        }
    }

    #[test]
    fn gate_rejects_a_wrong_expected_value() {
        let srcs = sources(2);
        let irs: Vec<IrProgram> = srcs.iter().map(|s| compile(s).unwrap()).collect();
        let mut want: Vec<i64> = srcs.iter().map(|s| reference(s).unwrap()).collect();
        let mut clock = Clock::new();
        assert!(pass(&irs, &want, 1, &mut clock, &mut Tracer::new(false))[0].ok);
        want[3] += 1;
        assert!(!pass(&irs, &want, 1, &mut clock, &mut Tracer::new(false))[0].ok);
    }
}
