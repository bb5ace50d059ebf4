//! `repro` at smoke scale on riscv, in-process: everything above the
//! timing section must match the committed `repro_smoke.expected`, and a
//! rerun warmed by `--cache` must simulate nothing during collection and
//! print the same text.
//!
//! After a change that is meant to move these numbers, regenerate the
//! file from the text above the `== timing` line of
//! `cargo run --release --bin repro -- <ARGS below>`; the output is the
//! same in debug and release and for any `--parallel`.

use simtune_bench::repro;

const ARGS: &str =
    "--arch riscv --scale smoke --impls 12 --test 3 --rounds 1 --seed 7 --parallel 2";
const EXPECTED: &str = include_str!("repro_smoke.expected");

/// Runs `repro` with `--cache cache` and splits its output at the
/// timing section.
fn repro(cache: &std::path::Path) -> (String, String) {
    let mut argv: Vec<String> = ARGS.split_whitespace().map(str::to_string).collect();
    argv.extend(["--cache".to_string(), cache.display().to_string()]);
    let mut out = Vec::new();
    assert_eq!(repro::run(argv, &mut out), 0, "repro failed");
    let out = String::from_utf8(out).expect("utf-8 report");
    let at = out.find("\n== timing").expect("a timing section");
    let (fixed, timing) = out.split_at(at + 1);
    (fixed.to_string(), timing.to_string())
}

fn collection_misses(timing: &str) -> u64 {
    let line = timing
        .lines()
        .find(|l| l.starts_with("collection [riscv]"))
        .expect("a collection line");
    let (_, tail) = line.split_once(" hits / ").expect("memo counters");
    tail.trim_end_matches(" misses")
        .parse()
        .expect("a miss count")
}

#[test]
fn repro_smoke_matches_the_committed_output_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("simtune_repro_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("memo.json");
    std::fs::remove_file(&cache).ok();

    let (cold, cold_timing) = repro(&cache);
    if cold != EXPECTED {
        let (n, (got, want)) = cold
            .lines()
            .zip(EXPECTED.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((cold.lines().count().min(EXPECTED.lines().count()), ("", "")));
        panic!(
            "repro output differs from repro_smoke.expected at line {}:\n  got:  {got}\n  want: {want}\n\nfull output:\n{cold}",
            n + 1
        );
    }
    assert!(
        collection_misses(&cold_timing) > 0,
        "the cold run must simulate"
    );

    let (warm, warm_timing) = repro(&cache);
    assert_eq!(collection_misses(&warm_timing), 0, "{warm_timing}");
    assert_eq!(warm, cold, "a warm rerun must print the same report");
    std::fs::remove_dir_all(&dir).ok();
}
