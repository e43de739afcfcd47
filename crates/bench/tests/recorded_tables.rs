//! EXPERIMENTS.md records the output of `tables --all` under "Captured
//! run". The tables are deterministic counters, so the record must match
//! the code byte for byte; a change that moves a figure regenerates the
//! block (`cargo run -p nml-bench --bin tables -- --all`).

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// The fenced block that follows the "Captured run" heading.
fn recorded_block() -> &'static str {
    let head = "## Captured run\n\n```text\n";
    let start = EXPERIMENTS
        .find(head)
        .expect("EXPERIMENTS.md has a captured-run block")
        + head.len();
    let len = EXPERIMENTS[start..]
        .find("```\n")
        .expect("captured-run block is closed");
    &EXPERIMENTS[start..start + len]
}

#[test]
fn experiments_md_records_the_current_tables() {
    // Generated programs contain deep literal lists; the recursive
    // front-end passes need the same large stack as the `tables` binary.
    let current = std::thread::Builder::new()
        .name("tables".into())
        .stack_size(512 * 1024 * 1024)
        .spawn(nml_bench::tables::all_tables)
        .expect("spawn table thread")
        .join()
        .expect("table generation succeeded");
    let recorded = recorded_block();
    if let Some((i, (want, got))) = recorded
        .lines()
        .zip(current.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "EXPERIMENTS.md captured run differs from `tables --all` at block line {}:\n  \
             recorded: {want}\n  current:  {got}",
            i + 1
        );
    }
    assert_eq!(
        recorded, current,
        "EXPERIMENTS.md captured run differs from `tables --all` in length"
    );
}
