//! Whole-pipeline integration over the corpus: every workload parses,
//! pretty-print round-trips, type-checks, analyzes, monomorphizes,
//! lowers, and runs — and the monomorphized program computes the same
//! value as the original.

use nml_escape_analysis::corpus;
use nml_escape_analysis::escape::analyze_source;
use nml_escape_analysis::opt::{lower_program, OptOptions};
use nml_escape_analysis::pipeline::{compile, render_value_on, run, CompileOptions};
use nml_escape_analysis::runtime::{Engine, HeapConfig, Interp, InterpConfig};
use nml_escape_analysis::syntax::{parse_program, pretty_program};
use nml_escape_analysis::types::{infer_and_monomorphize, infer_program};

#[test]
fn corpus_parses_and_types() {
    for w in corpus::ALL {
        let p =
            parse_program(w.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", w.name));
        let info = infer_program(&p).unwrap_or_else(|e| panic!("{} does not type: {e}", w.name));
        for f in w.functions {
            assert!(
                info.top_sigs
                    .contains_key(&nml_escape_analysis::syntax::Symbol::intern(f)),
                "{}: function {f} missing",
                w.name
            );
        }
    }
}

#[test]
fn corpus_pretty_print_roundtrips() {
    for w in corpus::ALL {
        let p1 = parse_program(w.source).expect("parse");
        let printed = pretty_program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{printed}", w.name));
        assert_eq!(
            p1.bindings.len(),
            p2.bindings.len(),
            "{}: binding count changed",
            w.name
        );
        // The round-tripped program must type-check to the same
        // signatures.
        let i1 = infer_program(&p1).expect("infer 1");
        let i2 = infer_program(&p2).expect("infer 2");
        for (name, sig) in &i1.top_sigs {
            assert_eq!(
                Some(sig),
                i2.top_sigs.get(name),
                "{}: signature of {name} changed after round trip",
                w.name
            );
        }
    }
}

#[test]
fn corpus_analyzes_with_summaries_for_all_functions() {
    for w in corpus::ALL {
        let a =
            analyze_source(w.source).unwrap_or_else(|e| panic!("{} does not analyze: {e}", w.name));
        for f in w.functions {
            assert!(
                a.summary(f).is_some(),
                "{}: no escape summary for {f}",
                w.name
            );
        }
    }
}

#[test]
fn corpus_runs_to_a_value() {
    for w in corpus::ALL {
        let c = compile(w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let out = run(&c.ir, InterpConfig::default(), Engine::Tree)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name));
        assert!(!out.result.is_empty(), "{}: empty result", w.name);
    }
}

#[test]
fn monomorphized_corpus_computes_identical_results() {
    for w in corpus::ALL {
        let p = parse_program(w.source).expect("parse");
        let info = infer_program(&p).expect("infer");
        let base_ir = lower_program(&p, &info);
        let mut base = Interp::new(&base_ir).expect("interp");
        let base_v = base.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let base_text = render_value_on(&base.heap, &base_v).expect("render");

        let mono = infer_and_monomorphize(&p).expect("mono");
        let mono_ir = lower_program(&mono.program, &mono.info);
        let mut m = Interp::new(&mono_ir).expect("interp");
        let mono_v = m.run().unwrap_or_else(|e| panic!("{} (mono): {e}", w.name));
        let mono_text = render_value_on(&m.heap, &mono_v).expect("render");

        assert_eq!(
            base_text, mono_text,
            "{}: monomorphization changed the result",
            w.name
        );
    }
}

#[test]
fn corpus_runs_under_gc_pressure() {
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };
    for w in corpus::ALL {
        let c = compile(w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let base = run(&c.ir, InterpConfig::default(), Engine::Tree)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let stressed = run(&c.ir, config.clone(), Engine::Tree)
            .unwrap_or_else(|e| panic!("{} under GC pressure: {e}", w.name));
        assert_eq!(
            base.result, stressed.result,
            "{}: GC changed the program's result",
            w.name
        );
    }
}

#[test]
fn corpus_stack_allocation_never_changes_results() {
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };
    for w in corpus::ALL {
        let base = run(
            &compile(w.source, &CompileOptions::default()).unwrap().ir,
            InterpConfig::default(),
            Engine::Tree,
        )
        .unwrap();
        let stacked_ir = compile(
            w.source,
            &CompileOptions {
                opt: OptOptions {
                    stack: true,
                    ..OptOptions::NONE
                },
                ..CompileOptions::default()
            },
        )
        .unwrap()
        .ir;
        let stacked = run(&stacked_ir, config.clone(), Engine::Tree)
            .unwrap_or_else(|e| panic!("{} with stack allocation: {e}", w.name));
        assert_eq!(
            base.result, stacked.result,
            "{}: stack allocation changed the result",
            w.name
        );
    }
}

#[test]
fn corpus_full_optimization_never_changes_results() {
    // The whole pass manager (reuse → block → stack) over every workload,
    // under GC pressure with region validation: results must be
    // untouched.
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };
    for w in corpus::ALL {
        let base = run(
            &compile(w.source, &CompileOptions::default()).unwrap().ir,
            InterpConfig::default(),
            Engine::Tree,
        )
        .unwrap();
        let optimized_ir = compile(
            w.source,
            &CompileOptions {
                opt: OptOptions::default(),
                ..CompileOptions::default()
            },
        )
        .unwrap()
        .ir;
        let optimized = run(&optimized_ir, config.clone(), Engine::Tree)
            .unwrap_or_else(|e| panic!("{} fully optimized: {e}", w.name));
        assert_eq!(
            base.result, optimized.result,
            "{}: the pass manager changed the result",
            w.name
        );
    }
}

/// Runs `nmlc <cmd> <path> <args…>`, asserts success, returns stdout.
fn nmlc(cmd: &str, path: &std::path::Path, args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nmlc"))
        .arg(cmd)
        .arg(path)
        .args(args)
        .output()
        .expect("nmlc runs");
    assert!(
        out.status.success(),
        "nmlc {cmd} {} {args:?} failed:\n{}",
        path.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Runs nmlc with exactly `args`.
fn nmlc_output<'a>(args: impl IntoIterator<Item = &'a str>) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_nmlc"))
        .args(args)
        .output()
        .expect("nmlc runs")
}

/// Arguments a command would otherwise ignore are usage errors that
/// name the token: a value flag in the space form, a misspelt or unknown
/// flag, a value on a flag that takes none, and a second positional.
#[test]
fn nmlc_rejects_stray_arguments_and_unknown_flags() {
    let p = concat!(env!("CARGO_MANIFEST_DIR"), "/programs/naive_reverse.nml");
    for (args, token) in [
        (vec!["run", p, "--fuel", "10"], "--fuel=10"),
        (vec!["run", p, "--stak-alloc"], "--stak-alloc"),
        (vec!["run", p, "--no-such-flag=off"], "--no-such-flag=off"),
        (vec!["serve", p, "--stak-alloc"], "--stak-alloc"),
        (vec!["run", p, "--stats=yes"], "--stats=yes"),
        (vec!["run", p, "other.nml"], "other.nml"),
        (vec!["analyze", p, "--jobs", "4"], "--jobs=4"),
        (vec!["call", "--socket=s", "--ping", "stray"], "stray"),
    ] {
        let out = nmlc_output(args.iter().copied());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "nmlc {args:?} succeeded");
        assert!(
            err.contains(token),
            "nmlc {args:?}: `{token}` not in {err:?}"
        );
    }
}

/// Every flag the help text names is accepted by some command, so the
/// accepted set and the help text cannot drift apart. A flag counts as
/// accepted when the argument check passes over it and stops at the
/// stray positional that follows it (before any file is read).
#[test]
fn nmlc_accepts_every_flag_its_usage_names() {
    let usage = String::from_utf8(nmlc_output(["help"]).stdout).expect("utf-8 usage");
    let mut flags: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || "[](),/|;:`".contains(c))
        .filter(|t| {
            *t == "-O"
                || t.strip_prefix("--")
                    .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_alphabetic()))
        })
        .map(|t| t.find('=').map_or(t, |i| &t[..=i]))
        .collect();
    flags.sort_unstable();
    flags.dedup();
    assert!(
        flags.len() >= 55,
        "too few flags parsed from USAGE: {flags:?}"
    );
    for flag in flags {
        let token = if flag.ends_with('=') {
            format!("{flag}1")
        } else {
            flag.to_owned()
        };
        let accepted = [
            "run",
            "serve",
            "call",
            "analyze",
            "ir",
            "replay",
            "gen-corpus",
        ]
        .into_iter()
        .any(|cmd| {
            let file = (!matches!(cmd, "call" | "gen-corpus")).then_some("FILE");
            let out = nmlc_output(
                [cmd]
                    .into_iter()
                    .chain(file)
                    .chain([token.as_str(), "STRAY"]),
            );
            String::from_utf8_lossy(&out.stderr).contains("unexpected argument `STRAY`")
        });
        assert!(
            accepted,
            "USAGE names `{flag}` but no nmlc command accepts it"
        );
    }
}

#[test]
fn shipped_programs_run_under_every_nmlc_mode() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("programs dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("nml") {
            continue;
        }
        count += 1;
        for mode in [vec!["check"], vec!["analyze"], vec!["analyze", "--report"]] {
            nmlc(mode[0], &path, &mode[1..]);
        }
        // Every execution mode prints the tree-walking oracle's value.
        let oracle = nmlc("run", &path, &["--engine=tree"]);
        for flags in [
            vec![],
            vec!["--stack-alloc"],
            vec!["--local-stack-alloc"],
            vec!["--auto-reuse"],
            vec!["-O"],
        ] {
            assert_eq!(
                nmlc("run", &path, &flags),
                oracle,
                "nmlc run {} {flags:?}",
                path.display()
            );
        }
    }
    assert!(
        count >= 5,
        "expected the shipped .nml programs, found {count}"
    );
}

/// Pins nmlc's flag → pass-set mapping on a program whose one
/// scalar-replaceable cell is allocated 100 times: every optimization
/// flag keeps SROA under the VM, the tree-walker defaults it off,
/// `--sroa` forces the (inert) mark back on there, and `--no-sroa`
/// strips it under the VM.
#[test]
fn nmlc_flags_pick_the_documented_pass_set() {
    let path = std::env::temp_dir().join("nmlc_pass_set_test.nml");
    std::fs::write(
        &path,
        "letrec
           step i acc = letrec t = cons i (cons acc nil)
                        in (car t) * 2 + car (cdr t);
           loop n acc = if n = 0 then acc else loop (n - 1) (step n acc)
         in loop 100 0",
    )
    .expect("write temp file");
    for (flags, elided, marked) in [
        (vec![], 100, true),
        (vec!["-O"], 100, true),
        (vec!["--stack-alloc"], 100, true),
        (vec!["--auto-reuse"], 100, true),
        (vec!["--local-stack-alloc"], 100, true),
        (vec!["-O", "--engine=tree"], 0, false),
        (vec!["-O", "--engine=tree", "--sroa"], 0, true),
        (vec!["-O", "--no-sroa"], 0, false),
    ] {
        let mut run_args = flags.clone();
        run_args.push("--stats");
        let stats = nmlc("run", &path, &run_args);
        assert!(
            stats.starts_with("10100\n"),
            "nmlc run {flags:?}: wrong value:\n{stats}"
        );
        assert!(
            stats.contains(&format!(" elided={elided} ")),
            "nmlc run {flags:?}: expected elided={elided}:\n{stats}"
        );
        let ir = nmlc("ir", &path, &flags);
        assert_eq!(
            ir.contains("cons[elided]"),
            marked,
            "nmlc ir {flags:?}: elide marks {}expected:\n{ir}",
            if marked { "" } else { "not " }
        );
    }
}

#[test]
fn nmlc_binary_smoke() {
    // Drive the driver end to end through a temp file.
    let dir = std::env::temp_dir();
    let path = dir.join("nmlc_smoke_test.nml");
    std::fs::write(
        &path,
        "letrec append x y = if (null x) then y
                             else cons (car x) (append (cdr x) y)
         in append [1] [2, 3]",
    )
    .expect("write temp file");
    let exe = env!("CARGO_BIN_EXE_nmlc");
    for (args, needle) in [
        (vec!["check"], "append : forall"),
        (vec!["fmt"], "append x y = if"),
        (vec!["analyze"], "G = <1,0>"),
        (vec!["analyze", "--report"], "optimization report"),
        (vec!["ir"], "(cons (car x)"),
        (vec!["run", "--stats"], "[1, 2, 3]"),
        (vec!["run", "--stack-alloc", "--stats"], "stack"),
        (vec!["run", "--auto-reuse", "--stats"], "dcons-reuse"),
        (vec!["run", "--profile"], "hottest allocation sites"),
    ] {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg(args[0]).arg(&path);
        for a in &args[1..] {
            cmd.arg(a);
        }
        let out = cmd.output().expect("nmlc runs");
        assert!(out.status.success(), "nmlc {args:?} failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(needle),
            "nmlc {args:?}: expected {needle:?} in output:\n{text}"
        );
    }
}
