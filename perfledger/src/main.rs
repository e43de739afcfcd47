//! `perfledger`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfledger --workload <compile_corpus|run_lists|serve_mixed> \
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client that runs a fixed
//! number of ops (`--seconds` times a per-workload rate) over inputs
//! generated from `--seed`, after checking every distinct input against
//! a reference that does not come from the code under test. Every
//! timing is calibrated against a memory-bound kernel (see [`calib`]).
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs half
//! the ops untraced and half traced, and reports the per-layer metrics:
//! self times of spans around each public call, counts, and the
//! tracing overhead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod compile_corpus;
mod run_lists;
mod serve_mixed;
mod stats;
mod trace;

use calib::{Calibration, Clock, Stamp};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::OpTimes;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A workload reports 0
/// for a layer it does not exercise.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("host.wall_op_ms", "ms"),
    ("bench.op_samples", "count"),
    ("bench.fail_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.count_mismatches", "count"),
    // compile_corpus
    ("syntax.parse_ms", "ms"),
    ("types.infer_ms", "ms"),
    ("escape.solve_ms", "ms"),
    ("escape.sccs", "count"),
    ("escape.passes", "count"),
    ("escape.memo_entries", "count"),
    ("escape.widenings", "count"),
    ("escape.degraded_fns", "count"),
    ("opt.lower_ms", "ms"),
    ("opt.passes_ms", "ms"),
    ("opt.stack_calls", "count"),
    ("opt.block_calls", "count"),
    ("opt.pretenured_sites", "count"),
    ("opt.elided_sites", "count"),
    ("runtime.bytecode_ms", "ms"),
    ("runtime.code_ops", "count"),
    ("runtime.body_run_ms", "ms"),
    // run_lists
    ("runtime.vm_build_ms", "ms"),
    ("runtime.vm_run_ms", "ms"),
    ("prog.naive_reverse_ms", "ms"),
    ("prog.partition_sort_ms", "ms"),
    ("prog.map_pair_ms", "ms"),
    ("prog.create_consume_ms", "ms"),
    ("prog.tuple_accumulate_ms", "ms"),
    ("prog.churn_with_live_set_ms", "ms"),
    ("runtime.steps", "count"),
    ("runtime.heap_allocs", "count"),
    ("runtime.stack_allocs", "count"),
    ("runtime.block_allocs", "count"),
    ("runtime.dcons_reuses", "count"),
    ("runtime.allocs_elided", "count"),
    ("runtime.minor_gcs", "count"),
    ("runtime.major_gcs", "count"),
    ("runtime.promoted", "count"),
    ("runtime.peak_live", "count"),
    ("runtime.avoided_frac", "ratio"),
    // serve_mixed
    ("serve.data_ms", "ms"),
    ("serve.reload_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.parse_call_ms", "ms"),
    ("serve.parse_data_ms", "ms"),
    ("serve.parse_reload_ms", "ms"),
    ("escape.incremental_ms", "ms"),
    ("escape.sccs_solved", "count"),
    ("escape.sccs_reused", "count"),
    ("opt.epoch_build_ms", "ms"),
    ("runtime.vm_rebuild_ms", "ms"),
    ("runtime.call_exec_ms", "ms"),
    ("runtime.data_exec_ms", "ms"),
    ("serve.steps", "count"),
    ("serve.transport_call_ms", "ms"),
    ("serve.transport_data_ms", "ms"),
    ("serve.transport_reload_ms", "ms"),
];

/// Run parameters from the command line.
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds on the reference host: sets the op count.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for sockets, trace files and count records.
    pub work_dir: PathBuf,
}

impl Cfg {
    /// Ops per timed pass for a workload running `rate` ops per second
    /// on the reference host, each holding `primary` primary ops. The
    /// floor of 110 primary ops keeps p90 steady (it needs 100 samples)
    /// even in short runs.
    pub fn ops(&self, rate: f64, primary: usize) -> usize {
        let total = ((self.seconds as f64) * rate).round() as usize;
        let per_pass = if self.trace { total / 2 } else { total };
        per_pass.max(110usize.div_ceil(primary))
    }
}

/// Per-layer counts of one op, by metric name.
pub type Counts = Vec<(&'static str, f64)>;

/// One timed op of a pass.
pub struct OpRec {
    /// Which kind of op (a workload's own numbering; 0 is the primary).
    pub kind: u8,
    /// Which distinct input it ran on; ops sharing an input must share
    /// their counts. `None` for inputs that occur once.
    pub input: Option<u32>,
    /// Raw time and calibration block.
    pub stamp: Stamp,
    /// Whether the result matched its reference.
    pub ok: bool,
    /// The op's per-layer counts.
    pub counts: Counts,
}

/// What a workload measured.
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops whose result mismatched or errored.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-op mean counts, for the determinism check.
    pub counts: BTreeMap<&'static str, f64>,
    /// Count mismatches found inside the run.
    pub count_mismatches: u64,
}

impl Outcome {
    /// An outcome over `recs` (all timed passes).
    pub fn new(recs: &[&[OpRec]]) -> Outcome {
        let all = || recs.iter().flat_map(|r| r.iter());
        let attempted = all().count() as u64;
        let failed = all().filter(|r| !r.ok).count() as u64;
        let mut first: BTreeMap<(u8, u32), &Counts> = BTreeMap::new();
        let mut count_mismatches = 0;
        for r in all() {
            if let Some(i) = r.input {
                let seen = first.entry((r.kind, i)).or_insert(&r.counts);
                if *seen != &r.counts {
                    count_mismatches += 1;
                }
            }
        }
        Outcome {
            attempted,
            failed,
            metrics: BTreeMap::new(),
            counts: BTreeMap::new(),
            count_mismatches,
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Reports every count that ops of `kinds` carry as its mean over
    /// the ops that carry it.
    pub fn set_count_means(&mut self, recs: &[OpRec], kinds: &[u8]) {
        let mut sums: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for r in recs.iter().filter(|r| kinds.contains(&r.kind)) {
            for &(name, v) in &r.counts {
                let e = sums.entry(name).or_default();
                e.0 += v;
                e.1 += 1;
            }
        }
        for (name, (sum, n)) in sums {
            let mean = sum / n as f64;
            self.set(name, mean);
            self.counts.insert(name, mean);
        }
    }
}

/// Calibrated times of the ops of `kind`.
pub fn kind_ms(recs: &[OpRec], cal: &Calibration, kind: u8) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.kind == kind)
        .map(|r| cal.ms(r.stamp))
        .collect()
}

/// Splits a pass into five consecutive windows (fewer in a pass of
/// fewer than five cycles), each starting on a cycle of `cycle` ops.
fn windows(recs: &[OpRec], cycle: usize) -> Vec<&[OpRec]> {
    let k = (recs.len() / cycle).clamp(1, 5);
    let len = recs.len() / k / cycle * cycle;
    (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                recs.len()
            } else {
                (i + 1) * len
            };
            &recs[i * len..end]
        })
        .collect()
}

/// Sets `op_ms` and `op_p90_ms` from the primary ops, and `ops_per_s`
/// from every op of the pass as the median over its windows, so that a
/// burst of host noise in one window does not move the run's figure.
/// `cycle` is the length of the workload's op cycle.
pub fn set_end_to_end(
    out: &mut Outcome,
    recs: &[OpRec],
    cal: &Calibration,
    cycle: usize,
) -> Result<(), String> {
    let primary = kind_ms(recs, cal, 0);
    out.set("op_ms", stats::median(&primary));
    let p90 = stats::steady_percentile(&primary, 90.0)
        .ok_or_else(|| format!("{} samples are too few for p90", primary.len()))?;
    out.set("op_p90_ms", p90);
    let rates: Vec<f64> = windows(recs, cycle)
        .iter()
        .map(|w| w.len() as f64 * 1e3 / w.iter().map(|r| cal.ms(r.stamp)).sum::<f64>())
        .collect();
    out.set("ops_per_s", stats::median(&rates));
    let raw: Vec<f64> = recs
        .iter()
        .filter(|r| r.kind == 0)
        .map(|r| r.stamp.raw_ms)
        .collect();
    eprintln!(
        "perfledger: {} ops; uncalibrated op median {} ms; kernel median {} ms",
        recs.len(),
        stats::median(&raw),
        cal.median_kernel_ms()
    );
    Ok(())
}

/// Per-layer diagnostics common to every traced run: the raw kernel and
/// op times, the sample count and the tracing overhead on kind-0 ops.
pub fn set_trace_common(
    out: &mut Outcome,
    untraced: &[OpRec],
    traced: &[OpRec],
    cal: &Calibration,
) {
    let raw: Vec<f64> = untraced
        .iter()
        .filter(|r| r.kind == 0)
        .map(|r| r.stamp.raw_ms)
        .collect();
    out.set("host.calib_ms", cal.median_kernel_ms());
    out.set("host.wall_op_ms", stats::median(&raw));
    out.set("bench.op_samples", (untraced.len() + traced.len()) as f64);
    let plain = stats::median(&kind_ms(untraced, cal, 0));
    let with = stats::median(&kind_ms(traced, cal, 0));
    out.set("trace.overhead_frac", with / plain - 1.0);
}

/// Median over the ops of `kind` of a per-op layer time (calibrated).
pub fn layer_median(
    recs: &[OpRec],
    cal: &Calibration,
    kind: u8,
    mut per_op: impl FnMut(usize) -> f64,
) -> f64 {
    let v: Vec<f64> = recs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == kind)
        .map(|(i, r)| per_op(i) * cal.factor(r.stamp.block))
        .collect();
    stats::median(&v)
}

/// Self time (raw ms) of spans named `name` in op `op`.
pub fn self_ms(times: &OpTimes, op: usize, name: &str) -> f64 {
    times
        .get(&(op as u32))
        .and_then(|m| m.get(name))
        .map_or(0.0, |t| t.self_ms)
}

/// Inclusive time (raw ms) of spans named `name` in op `op`.
pub fn incl_ms(times: &OpTimes, op: usize, name: &str) -> f64 {
    times
        .get(&(op as u32))
        .and_then(|m| m.get(name))
        .map_or(0.0, |t| t.incl_ms)
}

/// Share of the traced ops' raw time that the named layer spans cover.
pub fn coverage(recs: &[OpRec], times: &OpTimes, layers: &[&str]) -> f64 {
    let op_total: f64 = recs.iter().map(|r| r.stamp.raw_ms).sum();
    let covered: f64 = (0..recs.len())
        .map(|i| layers.iter().map(|l| self_ms(times, i, l)).sum::<f64>())
        .sum();
    covered / op_total
}

/// Runs `setup` `reps` times and returns the median calibrated seconds
/// and the last set-up's product; `teardown` takes each earlier product
/// before the next repetition starts from nothing.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut clock = Clock::new();
    let mut stamps = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let (r, s) = clock.time(&mut setup);
        last = Some(r?);
        stamps.push(s);
    }
    let cal = clock.finish();
    let secs: Vec<f64> = stamps.iter().map(|&s| cal.ms(s) / 1e3).collect();
    let last = last.ok_or("set-up ran zero times")?;
    Ok((last, stats::median(&secs)))
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Compares this run's per-op counts with an earlier run of the same
/// workload, seed, length and mode, recording them if there was none.
/// Returns how many counts differ.
fn check_counts_across_runs(
    path: &Path,
    counts: &BTreeMap<&'static str, f64>,
) -> Result<u64, String> {
    let mut now = String::new();
    for (k, v) in counts {
        let _ = writeln!(now, "{k} {v:?}");
    }
    match std::fs::read_to_string(path) {
        Ok(before) => {
            let differ = before
                .lines()
                .zip(now.lines())
                .filter(|(a, b)| a != b)
                .count()
                + before.lines().count().abs_diff(now.lines().count());
            for (a, b) in before.lines().zip(now.lines()).filter(|(a, b)| a != b) {
                eprintln!("perfledger: count differs from an earlier run: `{a}` vs `{b}`");
            }
            Ok(differ as u64)
        }
        Err(_) => std::fs::write(path, now)
            .map(|()| 0)
            .map_err(|e| format!("{}: {e}", path.display())),
    }
}

fn parse_args() -> Result<(String, Cfg), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let work_dir = PathBuf::from(target).join("perfledger");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok((
        workload.ok_or("--workload is required")?,
        Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.unwrap_or(false),
            work_dir,
        },
    ))
}

fn run() -> Result<String, String> {
    let (workload, cfg) = parse_args()?;
    let mut out = match workload.as_str() {
        "compile_corpus" => compile_corpus::run(&cfg)?,
        "run_lists" => run_lists::run(&cfg)?,
        "serve_mixed" => serve_mixed::run(&cfg)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let mode = if cfg.trace { "traced" } else { "plain" };
    let record = cfg.work_dir.join(format!(
        "counts-{workload}-seed{}-s{}-{mode}.txt",
        cfg.seed, cfg.seconds
    ));
    let across = check_counts_across_runs(&record, &out.counts)?;
    out.set(
        "trace.count_mismatches",
        (out.count_mismatches + across) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.set(
        "bench.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let v = match out.metrics.get(name) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => return Err(format!("{workload} did not measure {name}")),
        };
        if !v.is_finite() {
            return Err(format!("{name} is {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
        eprintln!("perfledger: {workload} {name} = {v} {unit}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfledger: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the declaration in BENCHMARK.json
    /// must name the same metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let decl = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(decl.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = decl.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    fn rec(kind: u8) -> OpRec {
        OpRec {
            kind,
            input: None,
            stamp: Stamp {
                raw_ms: 1.0,
                block: 0,
            },
            ok: true,
            counts: Vec::new(),
        }
    }

    #[test]
    fn windows_split_on_whole_cycles() {
        let short: Vec<OpRec> = (0..3).map(|_| rec(0)).collect();
        assert_eq!(windows(&short, 1).len(), 3);
        assert_eq!(windows(&short, 10).len(), 1);
        let long: Vec<OpRec> = (0..1003).map(|_| rec(0)).collect();
        let w = windows(&long, 1);
        assert_eq!(w.len(), 5);
        assert_eq!(w.iter().map(|w| w.len()).sum::<usize>(), 1003);
        // A cycle of one primary op and two others: every window starts
        // on a cycle boundary.
        let mixed: Vec<OpRec> = (0..999)
            .map(|i| rec(if i % 3 == 0 { 0 } else { 1 }))
            .collect();
        let w = windows(&mixed, 3);
        assert_eq!(w.len(), 5);
        assert!(w.iter().all(|w| w[0].kind == 0));
        assert_eq!(w.iter().map(|w| w.len()).sum::<usize>(), 999);
    }

    #[test]
    fn counts_across_runs_flag_any_difference() {
        let dir = std::env::temp_dir().join(format!("perfledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("counts.txt");
        let _ = std::fs::remove_file(&path);
        let mut c = BTreeMap::new();
        c.insert("escape.sccs", 200.0);
        c.insert("runtime.steps", 1234.5);
        assert_eq!(
            check_counts_across_runs(&path, &c).unwrap(),
            0,
            "first run records"
        );
        assert_eq!(
            check_counts_across_runs(&path, &c).unwrap(),
            0,
            "same counts agree"
        );
        c.insert("runtime.steps", 1234.75);
        assert_eq!(check_counts_across_runs(&path, &c).unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
