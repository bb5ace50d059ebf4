//! Time-budgeted differential fuzz sessions over the torture corpus —
//! the engine behind the `torture_fuzz` binary and the long-fuzz CI
//! lane.
//!
//! A session cycles the named scenario corpus
//! ([`TortureConfig::corpus`]) round-robin, derives one fresh seed per
//! case, and pushes each `(config, seed)` identity through the full
//! differential matrix ([`DiffHarness::run_case`]: every engine ×
//! backend tier × `n_parallel`). Every case is appended to a JSONL
//! *seed journal* as it completes, so a crashed or killed session loses
//! at most the in-flight case and any failure replays from its journal
//! line alone. Divergent cases are shrunk to a locally minimal program
//! (`simtune_isa::shrink_program` driven by the same matrix) and
//! written as assembly repro files; the session summary is one JSON
//! document ([`FUZZ_SCHEMA`]) with throughput and per-scenario
//! coverage — the artifact CI uploads and gates on.
//!
//! `--fidelity <spec>` adds a focus lane: each case is additionally
//! replayed on the named [`FidelitySpec`] tier on the decoded engine and
//! must report bit-identically (cycles included) to its interp run —
//! the lane the nightly matrix points at the pipelined timing tier.

use serde::{Deserialize, Serialize};
use simtune_core::diffharness::DiffHarness;
use simtune_core::{FidelitySpec, SimBackend};
use simtune_isa::{EngineKind, RunLimits, TortureConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag of the JSON summary `torture_fuzz` emits.
///
/// v2: summaries record the optional `--fidelity` focus tier whose
/// per-case engine-invariance check rode along with the matrix.
pub const FUZZ_SCHEMA: &str = "simtune-torture-fuzz-v2";

/// Options of one fuzz session.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Wall-clock budget; the session finishes the in-flight case and
    /// stops once the budget is exhausted.
    pub budget: Duration,
    /// First seed; case `i` uses `start_seed + i`.
    pub start_seed: u64,
    /// Restrict to one named scenario (default: whole corpus).
    pub scenario: Option<String>,
    /// Append one JSONL [`JournalEntry`] per case here.
    pub journal: Option<PathBuf>,
    /// Write shrunken `.s` repro files for divergent cases here.
    pub repro_dir: Option<PathBuf>,
    /// Focus tier: additionally replay every case on this
    /// [`FidelitySpec`]'s backend on the decoded engine and require a
    /// bit-identical report — cycles included — against the interp run
    /// (e.g. `pipelined:btb=512,ras=8` in the nightly matrix).
    pub fidelity: Option<FidelitySpec>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            budget: Duration::from_secs(60),
            start_seed: 1,
            scenario: None,
            journal: None,
            repro_dir: None,
            fidelity: None,
        }
    }
}

/// One journaled case: everything needed to replay it
/// (`torture_fuzz --replay <scenario>:<seed>`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Scenario preset the config came from.
    pub scenario: String,
    /// Generator seed.
    pub seed: u64,
    /// Comparisons performed for this case.
    pub combos: u32,
    /// True when the reference run faulted (fault-injection scenarios).
    pub faulted: bool,
    /// Number of divergences (0 = pass).
    pub divergences: usize,
}

/// A divergent case, with its mismatches and (when shrinking succeeded)
/// the minimal repro.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureReport {
    /// Replay identity.
    pub scenario: String,
    /// Replay identity.
    pub seed: u64,
    /// Human-readable mismatch lines (`combo/field: expected vs got`).
    pub divergences: Vec<String>,
    /// Instruction count of the original failing program.
    pub original_len: usize,
    /// Instruction count after shrinking (equal to `original_len` when
    /// shrinking could not reduce it).
    pub shrunk_len: usize,
    /// Path of the written `.s` repro, when a repro dir was configured.
    pub repro_path: Option<String>,
}

/// Per-scenario coverage counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioCoverage {
    /// Scenario name.
    pub scenario: String,
    /// Cases run.
    pub cases: u64,
    /// Cases whose reference run faulted (error-agreement checks).
    pub faulted: u64,
    /// Cases with at least one divergence.
    pub divergent: u64,
}

/// The whole session outcome, serialized as the CI artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzSummary {
    /// Schema tag ([`FUZZ_SCHEMA`]).
    pub schema: String,
    /// Digest of the `--fidelity` focus tier whose engine-invariance
    /// check rode along, `null` for plain matrix sessions.
    pub fidelity: Option<String>,
    /// Configured wall-clock budget in seconds.
    pub budget_seconds: f64,
    /// Actual wall-clock time spent.
    pub elapsed_seconds: f64,
    /// First seed of the session (`seed = start_seed + case index`).
    pub start_seed: u64,
    /// Total cases (= programs generated and diffed).
    pub cases: u64,
    /// Total engine/backend/parallelism comparisons across all cases.
    pub combos: u64,
    /// Cases per wall-clock second.
    pub programs_per_second: f64,
    /// Coverage per scenario class, corpus order.
    pub scenarios: Vec<ScenarioCoverage>,
    /// Every divergent case, shrunk where possible.
    pub failures: Vec<FailureReport>,
    /// True iff no case diverged.
    pub pass: bool,
}

/// Runs one fuzz session to completion. IO failures on the journal or
/// repro dir abort the session with an error string (the binary exits
/// nonzero) rather than silently dropping evidence.
///
/// # Errors
///
/// Returns a message when an unknown scenario is requested or journal /
/// repro files cannot be written.
pub fn run_fuzz(opts: &FuzzOptions) -> Result<FuzzSummary, String> {
    let corpus: Vec<(&'static str, TortureConfig)> = match &opts.scenario {
        None => TortureConfig::corpus(),
        Some(name) => {
            let cfg =
                TortureConfig::by_name(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
            // Leak is bounded: one short name per process invocation.
            vec![(&*Box::leak(name.clone().into_boxed_str()), cfg)]
        }
    };
    let mut journal = match &opts.journal {
        Some(path) => Some(open_journal(path)?),
        None => None,
    };
    if let Some(dir) = &opts.repro_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }

    let harness = DiffHarness::tiny();
    let focus: Option<(String, Arc<dyn SimBackend>)> = match &opts.fidelity {
        None => None,
        Some(spec) => Some((
            spec.digest(),
            spec.build(harness.hierarchy())
                .map_err(|e| format!("--fidelity: {e}"))?,
        )),
    };
    let mut coverage: Vec<ScenarioCoverage> = corpus
        .iter()
        .map(|(name, _)| ScenarioCoverage {
            scenario: name.to_string(),
            cases: 0,
            faulted: 0,
            divergent: 0,
        })
        .collect();
    let mut failures = Vec::new();
    let mut cases = 0u64;
    let mut combos = 0u64;
    let start = Instant::now();
    while start.elapsed() < opts.budget {
        let idx = (cases % corpus.len() as u64) as usize;
        let (scenario, config) = &corpus[idx];
        let seed = opts.start_seed.wrapping_add(cases);
        let out = harness.run_case(scenario, config, seed);
        cases += 1;
        combos += u64::from(out.combos);
        let cov = &mut coverage[idx];
        cov.cases += 1;
        cov.faulted += u64::from(out.faulted);
        if let Some(w) = journal.as_mut() {
            let entry = JournalEntry {
                scenario: scenario.to_string(),
                seed,
                combos: out.combos,
                faulted: out.faulted,
                divergences: out.divergences.len(),
            };
            append_jsonl(w, &entry)?;
        }
        if !out.divergences.is_empty() {
            cov.divergent += 1;
            eprintln!(
                "[fuzz] DIVERGENCE scenario={scenario} seed={seed:#x} ({} mismatches) — shrinking",
                out.divergences.len()
            );
            failures.push(report_failure(
                &harness,
                scenario,
                config,
                seed,
                &out.divergences,
                opts,
            )?);
        }
        if let Some((digest, backend)) = &focus {
            // Same (program, data) identity run_case used, replayed on
            // the focus tier on both engines.
            let exe = DiffHarness::make_executable(scenario, config, seed, seed ^ 0x5EED_DA7A);
            let mismatches = engine_invariance(digest, backend.as_ref(), &exe);
            combos += 1;
            if !mismatches.is_empty() {
                coverage[idx].divergent += 1;
                eprintln!(
                    "[fuzz] FIDELITY DIVERGENCE scenario={scenario} seed={seed:#x} \
                     ({} mismatches on {digest})",
                    mismatches.len()
                );
                failures.push(FailureReport {
                    scenario: scenario.to_string(),
                    seed,
                    divergences: mismatches,
                    original_len: exe.program.len(),
                    shrunk_len: exe.program.len(),
                    repro_path: None,
                });
            }
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    Ok(FuzzSummary {
        schema: FUZZ_SCHEMA.into(),
        fidelity: focus.as_ref().map(|(digest, _)| digest.clone()),
        budget_seconds: opts.budget.as_secs_f64(),
        elapsed_seconds: elapsed,
        start_seed: opts.start_seed,
        cases,
        combos,
        programs_per_second: cases as f64 / elapsed.max(1e-9),
        scenarios: coverage,
        pass: failures.is_empty(),
        failures,
    })
}

/// Replays one journaled `(scenario, seed)` identity through the full
/// matrix, exactly as the fuzz loop ran it.
///
/// # Errors
///
/// Returns a message for an unknown scenario name.
pub fn replay_case(
    scenario: &str,
    seed: u64,
) -> Result<simtune_core::diffharness::CaseOutcome, String> {
    let config =
        TortureConfig::by_name(scenario).ok_or_else(|| format!("unknown scenario {scenario:?}"))?;
    Ok(DiffHarness::tiny().run_case(scenario, &config, seed))
}

/// Replays `exe` on the focus backend on the decoded engine and returns
/// human-readable mismatch lines against its own interp run: the
/// tier's reports — cycles included — must not depend on the engine.
/// The `Threaded` and `Batch` labels replay on the decoded engine too,
/// so they add no comparison of their own.
fn engine_invariance(
    digest: &str,
    backend: &dyn SimBackend,
    exe: &simtune_isa::Executable,
) -> Vec<String> {
    let limits = RunLimits::default();
    let Ok(decoded) = exe.decode() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let reference = backend.run_one_decoded_on(exe, &decoded, &limits, EngineKind::Interp);
    let got = backend.run_one_decoded_on(exe, &decoded, &limits, EngineKind::Decoded);
    let combo = format!("fidelity:{digest}×engine:{}", EngineKind::Decoded.label());
    match (&reference, &got) {
        (Ok(w), Ok(g)) => {
            if w.stats.inst_mix != g.stats.inst_mix {
                out.push(format!(
                    "{combo}/inst_mix: {:?} vs {:?}",
                    w.stats.inst_mix, g.stats.inst_mix
                ));
            }
            if w.stats.cache != g.stats.cache {
                out.push(format!(
                    "{combo}/cache: {:?} vs {:?}",
                    w.stats.cache, g.stats.cache
                ));
            }
            if w.cycles != g.cycles {
                out.push(format!("{combo}/cycles: {:?} vs {:?}", w.cycles, g.cycles));
            }
        }
        (Err(w), Err(g)) => {
            if w != g {
                out.push(format!("{combo}/error: {w:?} vs {g:?}"));
            }
        }
        (Err(w), Ok(_)) => out.push(format!("{combo}/error: {w:?} vs completed")),
        (Ok(_), Err(g)) => out.push(format!("{combo}/error: completed vs {g:?}")),
    }
    out
}

/// Shrinks a divergent case and writes its repro artifact.
fn report_failure(
    harness: &DiffHarness,
    scenario: &str,
    config: &TortureConfig,
    seed: u64,
    divergences: &[simtune_core::diffharness::Divergence],
    opts: &FuzzOptions,
) -> Result<FailureReport, String> {
    let original = simtune_isa::torture_program_with(config, seed);
    let shrunk = harness
        .shrink_case(scenario, config, seed)
        .unwrap_or_else(|| original.clone());
    let repro_path = match &opts.repro_dir {
        None => None,
        Some(dir) => {
            let path = dir.join(format!("{scenario}-{seed:#x}.s"));
            write_repro(&path, scenario, config, seed, divergences, &shrunk)?;
            Some(path.display().to_string())
        }
    };
    Ok(FailureReport {
        scenario: scenario.to_string(),
        seed,
        divergences: divergences.iter().map(|d| d.to_string()).collect(),
        original_len: original.len(),
        shrunk_len: shrunk.len(),
        repro_path,
    })
}

/// Repro file: replay identity + mismatches as comments, then the
/// shrunken program's disassembly (parseable by
/// `simtune_isa::parse_program`).
fn write_repro(
    path: &Path,
    scenario: &str,
    config: &TortureConfig,
    seed: u64,
    divergences: &[simtune_core::diffharness::Divergence],
    shrunk: &simtune_isa::Program,
) -> Result<(), String> {
    let mut text = String::new();
    text.push_str(&format!(
        "; torture repro — scenario={scenario} seed={seed:#x}\n"
    ));
    text.push_str(&format!("; config: {config:?}\n"));
    text.push_str(&format!(
        "; replay: torture_fuzz --replay {scenario}:{seed}\n"
    ));
    for d in divergences {
        text.push_str(&format!("; {d}\n"));
    }
    text.push_str(&shrunk.disassemble());
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

// Unbuffered on purpose: one small write per case keeps every finished
// case durable even if the session is killed mid-run.
fn open_journal(path: &Path) -> Result<std::fs::File, String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::File::create(path).map_err(|e| format!("open journal {}: {e}", path.display()))
}

fn append_jsonl<W: Write>(w: &mut W, entry: &JournalEntry) -> Result<(), String> {
    let line = serde_json::to_string(entry).map_err(|e| format!("serialize journal: {e}"))?;
    writeln!(w, "{line}").map_err(|e| format!("append journal: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_session_covers_the_corpus_and_passes() {
        let dir = std::env::temp_dir().join(format!("simtune-fuzz-{}", std::process::id()));
        let journal = dir.join("journal.jsonl");
        let summary = run_fuzz(&FuzzOptions {
            budget: Duration::from_millis(1500),
            start_seed: 100,
            journal: Some(journal.clone()),
            repro_dir: Some(dir.join("repros")),
            ..FuzzOptions::default()
        })
        .expect("session runs");
        assert!(
            summary.pass,
            "bundled tiers must not diverge: {:#?}",
            summary.failures
        );
        assert!(summary.cases > 0);
        // 1 engine diff + 3 tiers × 2 engines + 3 sessions × 3 trials.
        assert_eq!(summary.combos, 16 * summary.cases);
        assert!(summary.programs_per_second > 0.0);
        // Round-robin coverage: the first scenarios of the corpus ran.
        assert!(summary.scenarios[0].cases > 0);
        // Journal replays: one valid JSONL line per case.
        let text = std::fs::read_to_string(&journal).expect("journal written");
        let lines: Vec<JournalEntry> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        assert_eq!(lines.len() as u64, summary.cases);
        let first = &lines[0];
        assert_eq!(first.seed, 100);
        assert_eq!(first.scenario, summary.scenarios[0].scenario);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_scenario_sessions_restrict_the_corpus() {
        let summary = run_fuzz(&FuzzOptions {
            budget: Duration::from_millis(300),
            start_seed: 7,
            scenario: Some("tiny".into()),
            ..FuzzOptions::default()
        })
        .expect("session runs");
        assert_eq!(summary.scenarios.len(), 1);
        assert_eq!(summary.scenarios[0].scenario, "tiny");
        assert!(summary.pass);
        assert!(run_fuzz(&FuzzOptions {
            scenario: Some("no-such".into()),
            ..FuzzOptions::default()
        })
        .is_err());
    }

    #[test]
    fn fidelity_focus_lane_rides_along_and_stays_invariant() {
        let summary = run_fuzz(&FuzzOptions {
            budget: Duration::from_millis(800),
            start_seed: 55,
            fidelity: Some("pipelined:btb=64,ras=4".parse().unwrap()),
            ..FuzzOptions::default()
        })
        .expect("session runs");
        assert!(
            summary.pass,
            "pipelined tier diverged across engines: {:#?}",
            summary.failures
        );
        assert_eq!(summary.fidelity.as_deref(), Some("pipelined:btb=64,ras=4"));
        // One extra engine comparison per case rode along.
        assert!(summary.cases > 0);
        assert_eq!(summary.combos, 17 * summary.cases);
    }

    #[test]
    fn replay_reproduces_a_journaled_case() {
        let out = replay_case("baseline", 100).expect("known scenario");
        assert_eq!(out.seed, 100);
        assert!(out.passed());
        assert!(replay_case("no-such", 1).is_err());
    }
}
