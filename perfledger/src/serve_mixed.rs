//! `serve_mixed`: one client connection to an in-process `nml_serve`
//! server with one worker, in a closed loop. Each cycle sends, in
//! order, eight compute calls (`work 400`), one data call (`inc` on a
//! 2000-element list) and one inline-source reload carrying a seeded
//! one-binding edit of the served corpus.
//!
//! The reload's time runs from sending it until the first eval that
//! answers with the new epoch completes, so the worker's VM rebuild
//! lands in the reload and not in a later call.
//!
//! The traced pass cannot put spans inside the server, so after each
//! round trip it repeats that request's layer calls in this process on
//! the same input (frame parse, incremental re-analysis, lowering and
//! optimization, VM rebuild, call, argument building and rendering).
//! The rest of the round trip is reported as transport.

use crate::calib::{Clock, Stamp};
use crate::trace::{OpTimes, Tracer};
use crate::{
    kind_ms, layer_median, self_ms, set_end_to_end, set_trace_common, stats, timed_setup, Cfg,
    OpRec, Outcome,
};
use nml_corpusgen::{generate, Corpus, Rng};
use nml_escape::{Analysis, Budget, EngineConfig, Incremental};
use nml_escape_analysis::pipeline::render_value_on;
use nml_opt::{lower_program, optimize, IrProgram, OptOptions};
use nml_runtime::{InterpConfig, Value, Vm};
use nml_serve::json::Json;
use nml_serve::proto::parse_request;
use nml_serve::{serve, Client, ServeConfig, ServeError, ServerReport};
use nml_syntax::Symbol;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cycles per second on the reference host.
const RATE: f64 = 7.5;
/// Boots per set-up measurement; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Compute calls per cycle.
const CALLS: usize = 8;
/// Argument of every compute call.
const WORK_N: i64 = 400;
/// Elements in each data call's list.
const DATA_LEN: usize = 2000;
/// Distinct data lists the data calls cycle over.
const DATA_LISTS: usize = 4;

const CALL: u8 = 0;
const DATA: u8 = 1;
const RELOAD: u8 = 2;

/// List kernels appended to the served corpus.
const KERNELS: &str = "append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  work n = sum (rev (mklist n));
  inc l = if (null l) then nil else cons (car l + 1) (inc (cdr l))";

/// The served program: the corpus bindings plus the list kernels.
fn program_source(corpus: &Corpus) -> String {
    let src = corpus.source();
    let (defs, body) = src
        .rsplit_once("\nin ")
        .expect("corpus source ends in a body");
    format!("{defs};\n  {KERNELS}\nin {body}")
}

/// Closed form of `work n`: the sum of `1..=n`.
fn work_result(n: i64) -> String {
    (n * (n + 1) / 2).to_string()
}

/// Closed form of `inc l`, rendered the way the server renders lists.
fn inc_result(list: &[i64]) -> String {
    let items: Vec<String> = list.iter().map(|v| (v + 1).to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Everything generated from the seed.
struct Inputs {
    corpus: Corpus,
    lists: Vec<Vec<i64>>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let corpus = generate(seed, &crate::compile_corpus::shape());
        let mut rng = Rng::new(seed ^ 0xda7a);
        let lists = (0..DATA_LISTS)
            .map(|_| (0..DATA_LEN).map(|_| rng.below(100_000) as i64).collect())
            .collect();
        Inputs { corpus, lists }
    }

    /// Applies reload `k`'s edit and returns the new program source.
    fn next_source(&mut self, k: u64) -> String {
        let m = self.corpus.mutate(k);
        self.corpus.bindings[m.index].rhs = m.rhs;
        program_source(&self.corpus)
    }
}

fn call_frame(id: u64) -> String {
    format!("{{\"op\":\"eval\",\"id\":{id},\"call\":\"work\",\"args\":[{WORK_N}]}}")
}

fn data_frame(id: u64, list: &[i64]) -> String {
    let items: Vec<String> = list.iter().map(i64::to_string).collect();
    format!(
        "{{\"op\":\"eval\",\"id\":{id},\"call\":\"inc\",\"args\":[[{}]]}}",
        items.join(",")
    )
}

fn reload_frame(id: u64, src: &str) -> String {
    format!(
        "{{\"op\":\"reload\",\"id\":{id},\"src\":{}}}",
        Json::Str(src.to_owned())
    )
}

/// A checked eval response: ok, with the expected result.
fn check_eval(resp: &Json, want: &str) -> Result<(u64, i64), String> {
    let status = resp.get("status").and_then(Json::as_str);
    let result = resp.get("result").and_then(Json::as_str);
    if status != Some("ok") || result != Some(want) {
        let shown: String = resp.to_string().chars().take(200).collect();
        return Err(format!("unexpected response {shown}"));
    }
    let steps = resp.get("steps").and_then(Json::as_int).unwrap_or(-1);
    let epoch = resp.get("epoch").and_then(Json::as_int).unwrap_or(-1);
    Ok((steps as u64, epoch))
}

/// Reads `key N` out of a reload description.
fn field(desc: &str, key: &str) -> Option<i64> {
    let mut words = desc.split_whitespace();
    words.find(|w| *w == key)?;
    words.next()?.parse().ok()
}

/// A running server and one connection to it.
struct Server {
    client: Client,
    thread: JoinHandle<Result<ServerReport, ServeError>>,
}

impl Server {
    /// Boots a server on `socket` and waits for its first `ping` answer.
    fn boot(src: &str, socket: &Path) -> Result<Server, String> {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (src, path) = (src.to_owned(), socket.to_owned());
        let thread = std::thread::spawn(move || serve(&src, &path, &cfg));
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut client = loop {
            match Client::connect(socket) {
                Ok(c) => break c,
                Err(_) if thread.is_finished() => {
                    let why = match thread.join() {
                        Ok(Err(e)) => format!("{e:?}"),
                        _ => "server thread ended".to_owned(),
                    };
                    return Err(format!("serve_mixed boot failed: {why}"));
                }
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_micros(500)),
            }
        };
        let pong = client
            .request("{\"op\":\"ping\",\"id\":0}")
            .map_err(|e| e.to_string())?;
        if pong.get("result").and_then(Json::as_str) != Some("pong") {
            return Err(format!("ping answered {pong}"));
        }
        Ok(Server { client, thread })
    }

    fn request(&mut self, frame: &str) -> Result<Json, String> {
        self.client.request(frame).map_err(|e| e.to_string())
    }

    /// Drains the server and checks its final report.
    fn shutdown(mut self) -> Result<ServerReport, String> {
        self.request("{\"op\":\"shutdown\",\"id\":0,\"mode\":\"drain\"}")?;
        drop(self.client);
        let report = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("{e:?}"))?;
        if report.panics != 0 || report.epoch_leaks != 0 || report.reloads_failed != 0 {
            return Err(format!("server report: {report:?}"));
        }
        Ok(report)
    }
}

/// The in-process copy of the server's layers, for the traced pass.
struct Shadow {
    inc: Incremental,
    ir: IrProgram,
}

/// Lowering plus the optimization passes, as a server epoch builds them.
fn epoch_ir(analysis: &Analysis) -> IrProgram {
    let mut ir = lower_program(&analysis.program, &analysis.info);
    optimize(&mut ir, analysis, &OptOptions::default());
    ir
}

impl Shadow {
    /// Seeds the copy from the boot source, as the server seeds its
    /// incremental engine on the first reload.
    fn new(src: &str) -> Result<Shadow, String> {
        let program = nml_syntax::parse_program(src).map_err(|e| e.to_string())?;
        let info = nml_types::infer_program(&program).map_err(|e| e.to_string())?;
        let inc = Incremental::new(program, info, EngineConfig::default(), Budget::unlimited());
        let ir = epoch_ir(inc.analysis());
        Ok(Shadow { inc, ir })
    }

    /// A long-lived VM over the current epoch's program.
    fn vm(&self) -> Result<Vm<'_>, String> {
        Vm::with_config(&self.ir, InterpConfig::default()).map_err(|e| e.to_string())
    }

    /// Re-runs a reload's layers, then checks that the new epoch's VM
    /// answers `work` correctly.
    fn reload(&mut self, frame: &str, src: &str, tr: &mut Tracer) -> Result<(), String> {
        tr.span("serve.parse", || parse_request(frame))
            .map_err(|(_, m)| m)?;
        let inc = &mut self.inc;
        let analysis = tr.span("escape.incremental", || inc.update_source(src));
        let analysis = analysis.map_err(|e| e.to_string())?;
        self.ir = tr.span("opt.epoch_build", || epoch_ir(analysis));
        let ir = &self.ir;
        let mut vm = tr
            .span("runtime.vm_rebuild", || {
                Vm::with_config(ir, InterpConfig::default())
            })
            .map_err(|e| e.to_string())?;
        call_on(&mut vm, &call_frame(0), tr)
    }
}

/// Re-runs a compute call's layers on `vm`.
fn call_on(vm: &mut Vm<'_>, frame: &str, tr: &mut Tracer) -> Result<(), String> {
    tr.span("serve.parse", || parse_request(frame))
        .map_err(|(_, m)| m)?;
    let work = Symbol::intern("work");
    match tr.span("runtime.call_exec", || {
        vm.call(work, vec![Value::Int(WORK_N)])
    }) {
        Ok(Value::Int(n)) if n.to_string() == work_result(WORK_N) => Ok(()),
        other => Err(format!("shadow work returned {other:?}")),
    }
}

/// Re-runs a data call's layers on `vm`.
fn data_on(vm: &mut Vm<'_>, frame: &str, list: &[i64], tr: &mut Tracer) -> Result<(), String> {
    tr.span("serve.parse", || parse_request(frame))
        .map_err(|(_, m)| m)?;
    let inc = Symbol::intern("inc");
    let rendered = tr.span("runtime.data_exec", || {
        let arg = vm.make_int_list(list);
        let v = vm.call(inc, vec![arg]).map_err(|e| e.to_string())?;
        render_value_on(&vm.heap, &v).map_err(|e| e.to_string())
    })?;
    if rendered == inc_result(list) {
        Ok(())
    } else {
        Err("shadow inc rendered a wrong list".to_owned())
    }
}

/// The client's side of the loop: inputs, ids, reload count and epoch.
struct Loop {
    inputs: Inputs,
    next_id: u64,
    reloads: u64,
    epoch: i64,
    data_at: usize,
}

impl Loop {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// Runs `cycles` cycles. With a shadow, every reload is mirrored into
/// it; with an enabled tracer, every op's layers are re-run under spans
/// after its round trip.
fn pass(
    server: &mut Server,
    lp: &mut Loop,
    mut shadow: Option<&mut Shadow>,
    cycles: usize,
    clock: &mut Clock,
    tr: &mut Tracer,
) -> Result<Vec<OpRec>, String> {
    let mut recs = Vec::with_capacity(cycles * (CALLS + 2));
    let want_work = work_result(WORK_N);
    for _ in 0..cycles {
        let mut vm = match (&shadow, tr.is_on()) {
            (Some(s), true) => Some(s.vm()?),
            _ => None,
        };
        for _ in 0..CALLS {
            let frame = call_frame(lp.id());
            tr.set_op(recs.len() as u32);
            let (resp, stamp) =
                clock.time(|| tr.span("serve.roundtrip", || server.request(&frame)));
            let checked = check_eval(&resp?, &want_work);
            let ok = matches!(checked, Ok((_, e)) if e == lp.epoch);
            if let Some(vm) = vm.as_mut() {
                call_on(vm, &frame, tr)?;
            }
            recs.push(op(CALL, Some(0), stamp, ok, checked));
        }

        let which = lp.data_at % DATA_LISTS;
        lp.data_at += 1;
        let list = lp.inputs.lists[which].clone();
        let frame = data_frame(lp.id(), &list);
        tr.set_op(recs.len() as u32);
        let (resp, stamp) = clock.time(|| tr.span("serve.roundtrip", || server.request(&frame)));
        let checked = check_eval(&resp?, &inc_result(&list));
        let ok = matches!(checked, Ok((_, e)) if e == lp.epoch);
        if let Some(vm) = vm.as_mut() {
            data_on(vm, &frame, &list, tr)?;
        }
        drop(vm);
        recs.push(op(DATA, Some(1 + which as u32), stamp, ok, checked));

        let src = lp.inputs.next_source(lp.reloads);
        lp.reloads += 1;
        let frame = reload_frame(lp.id(), &src);
        let eval = call_frame(lp.id());
        tr.set_op(recs.len() as u32);
        let (resps, stamp) = clock.time(|| {
            tr.span("serve.roundtrip", || {
                let reload = server.request(&frame)?;
                let first = server.request(&eval)?;
                Ok::<_, String>((reload, first))
            })
        });
        let (reload, first) = resps?;
        let desc = reload.get("result").and_then(Json::as_str).unwrap_or("");
        let new_epoch = field(desc, "epoch");
        let counts = vec![
            (
                "escape.sccs_solved",
                field(desc, "sccs_solved").unwrap_or(-1) as f64,
            ),
            (
                "escape.sccs_reused",
                field(desc, "sccs_reused").unwrap_or(-1) as f64,
            ),
        ];
        let answered = check_eval(&first, &want_work);
        let ok = match (new_epoch, &answered) {
            (Some(e), Ok((_, at))) if *at == e => {
                lp.epoch = e;
                true
            }
            _ => {
                eprintln!("perfledger: serve_mixed reload: {reload} then {answered:?}");
                false
            }
        };
        if let Some(s) = shadow.as_deref_mut() {
            if tr.is_on() {
                s.reload(&frame, &src, tr)?;
            } else {
                s.reload(&frame, &src, &mut Tracer::new(false))?;
            }
        }
        recs.push(OpRec {
            kind: RELOAD,
            input: None,
            stamp,
            ok,
            counts,
        });
    }
    Ok(recs)
}

fn op(
    kind: u8,
    input: Option<u32>,
    stamp: Stamp,
    ok: bool,
    checked: Result<(u64, i64), String>,
) -> OpRec {
    let counts = match &checked {
        Ok((steps, _)) => vec![("serve.steps", *steps as f64)],
        Err(e) => {
            eprintln!("perfledger: serve_mixed: {e}");
            Vec::new()
        }
    };
    OpRec {
        kind,
        input,
        stamp,
        ok,
        counts,
    }
}

/// Round trip minus the layer spans re-run for the op, in raw ms.
fn transport_ms(times: &OpTimes, i: usize) -> f64 {
    let Some(spans) = times.get(&(i as u32)) else {
        return 0.0;
    };
    let layers: f64 = spans
        .iter()
        .filter(|(name, _)| **name != "serve.roundtrip")
        .map(|(_, t)| t.self_ms)
        .sum();
    (self_ms(times, i, "serve.roundtrip") - layers).max(0.0)
}

fn socket_path(work_dir: &Path, tag: usize) -> PathBuf {
    // Socket paths are limited to ~100 bytes: prefer the path relative
    // to the working directory when the work directory is inside it.
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| work_dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| work_dir.to_path_buf());
    dir.join(format!("s{}-{tag}.sock", std::process::id()))
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let inputs = Inputs::new(cfg.seed);
    let boot_src = program_source(&inputs.corpus);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut boots = 0;
    let (mut server, setup_s) = timed_setup(
        reps,
        || {
            boots += 1;
            Server::boot(&boot_src, &socket_path(&cfg.work_dir, boots))
        },
        |s| s.shutdown().map(drop),
    )?;

    // Correctness gate, before any timing: every distinct request
    // against its closed form.
    check_eval(&server.request(&call_frame(0))?, &work_result(WORK_N))?;
    for (i, list) in inputs.lists.iter().enumerate() {
        check_eval(
            &server.request(&data_frame(i as u64, list))?,
            &inc_result(list),
        )?;
    }

    let mut shadow = if cfg.trace {
        Some(Shadow::new(&boot_src)?)
    } else {
        None
    };
    let mut lp = Loop {
        inputs,
        next_id: 100,
        reloads: 0,
        epoch: 1,
        data_at: 0,
    };
    let cycles = cfg.ops(RATE, CALLS);
    let mut clock = Clock::new();
    // One untimed cycle: the first reload seeds the server's
    // incremental engine with a full analysis.
    pass(
        &mut server,
        &mut lp,
        shadow.as_mut(),
        1,
        &mut clock,
        &mut Tracer::new(false),
    )?;
    let untraced = pass(
        &mut server,
        &mut lp,
        shadow.as_mut(),
        cycles,
        &mut clock,
        &mut Tracer::new(false),
    )?;
    let result = if !cfg.trace {
        let cal = clock.finish();
        let mut out = Outcome::new(&[&untraced]);
        out.set("setup_s", setup_s);
        set_end_to_end(&mut out, &untraced, &cal, CALLS + 2)?;
        out
    } else {
        let mut tr = Tracer::new(true);
        let traced = pass(
            &mut server,
            &mut lp,
            shadow.as_mut(),
            cycles,
            &mut clock,
            &mut tr,
        )?;
        let cal = clock.finish();
        let times = tr.times();
        tr.write_jsonl(&cfg.work_dir.join("trace-serve_mixed.jsonl"))
            .map_err(|e| e.to_string())?;
        let mut out = Outcome::new(&[&untraced, &traced]);
        set_trace_common(&mut out, &untraced, &traced, &cal);
        out.set(
            "serve.data_ms",
            stats::median(&kind_ms(&untraced, &cal, DATA)),
        );
        out.set(
            "serve.reload_ms",
            stats::median(&kind_ms(&untraced, &cal, RELOAD)),
        );
        let total_s: f64 = untraced.iter().map(|r| cal.ms(r.stamp)).sum::<f64>() / 1e3;
        out.set("serve.req_per_s", untraced.len() as f64 / total_s);
        let layers: &[(&str, u8, &str)] = &[
            ("serve.parse_call_ms", CALL, "serve.parse"),
            ("serve.parse_data_ms", DATA, "serve.parse"),
            ("serve.parse_reload_ms", RELOAD, "serve.parse"),
            ("runtime.call_exec_ms", CALL, "runtime.call_exec"),
            ("runtime.data_exec_ms", DATA, "runtime.data_exec"),
            ("escape.incremental_ms", RELOAD, "escape.incremental"),
            ("opt.epoch_build_ms", RELOAD, "opt.epoch_build"),
            ("runtime.vm_rebuild_ms", RELOAD, "runtime.vm_rebuild"),
        ];
        for &(metric, kind, span) in layers {
            out.set(
                metric,
                layer_median(&traced, &cal, kind, |i| self_ms(&times, i, span)),
            );
        }
        for (metric, kind) in [
            ("serve.transport_call_ms", CALL),
            ("serve.transport_data_ms", DATA),
            ("serve.transport_reload_ms", RELOAD),
        ] {
            out.set(
                metric,
                layer_median(&traced, &cal, kind, |i| transport_ms(&times, i)),
            );
        }
        let rt: f64 = (0..traced.len())
            .map(|i| self_ms(&times, i, "serve.roundtrip"))
            .sum();
        let moved: f64 = (0..traced.len()).map(|i| transport_ms(&times, i)).sum();
        out.set("trace.coverage_frac", 1.0 - moved / rt);
        out.set_count_means(&traced, &[CALL, RELOAD]);
        out
    };
    server.shutdown()?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (Inputs::new(5), Inputs::new(5));
        assert_eq!(
            program_source(&a.corpus).as_bytes(),
            program_source(&b.corpus).as_bytes()
        );
        assert_eq!(a.lists, b.lists);
        for k in 0..3 {
            assert_eq!(a.next_source(k).as_bytes(), b.next_source(k).as_bytes());
        }
        assert_ne!(a.lists, Inputs::new(6).lists);
    }

    #[test]
    fn edits_change_the_source_and_keep_it_well_typed() {
        let mut inputs = Inputs::new(9);
        let boot = program_source(&inputs.corpus);
        let mut shadow = Shadow::new(&boot).unwrap();
        let edited = inputs.next_source(0);
        assert_ne!(boot, edited);
        let frame = reload_frame(1, &edited);
        shadow
            .reload(&frame, &edited, &mut Tracer::new(false))
            .unwrap();
        assert!(shadow.inc.analysis().schedule.sccs_solved > 0);
    }

    #[test]
    fn closed_forms_reject_wrong_answers() {
        let ok = Json::Obj(vec![
            ("status".to_owned(), Json::Str("ok".to_owned())),
            ("result".to_owned(), Json::Str("20100".to_owned())),
            ("steps".to_owned(), Json::Int(5)),
            ("epoch".to_owned(), Json::Int(1)),
        ]);
        assert_eq!(check_eval(&ok, &work_result(200)), Ok((5, 1)));
        assert!(check_eval(&ok, &work_result(201)).is_err());
        assert_eq!(inc_result(&[1, 5]), "[2, 6]");
        assert_eq!(
            field(
                "epoch 3 hash ab sccs_solved 1 sccs_reused 229",
                "sccs_reused"
            ),
            Some(229)
        );
    }
}
