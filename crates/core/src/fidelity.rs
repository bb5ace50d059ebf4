//! One name for a fidelity tier: [`FidelitySpec`].
//!
//! Every layer that selects a tier — session builder, escalation
//! options, service protocol, CLI, memo fingerprint — consumes this one
//! spelling:
//!
//! * **grammar** — `tier[:key=value,...]`, e.g. `accurate`,
//!   `fast-count`, `pipelined:btb=512,ras=8`;
//!   parsed by [`FromStr`](std::str::FromStr), printed by
//!   [`Display`](std::fmt::Display) in the same canonical form;
//! * **digest** — [`FidelitySpec::digest`] is the canonical string,
//!   covering the tier *and* every parameter, which is what
//!   [`SimBackend::fidelity_digest`](crate::SimBackend::fidelity_digest)
//!   feeds into cache fingerprints;
//! * **construction** — [`FidelitySpec::build`] turns the spec plus a
//!   cache geometry into the matching [`SimBackend`].
//!
//! The shape mirrors [`crate::StrategySpec`], which plays the same role
//! for search strategies.

use crate::backend::{AccurateBackend, FastCountBackend, SimBackend, ACCURATE, FAST_COUNT};
use crate::pipelined::{PipelinedBackend, PIPELINED};
use crate::CoreError;
use simtune_cache::HierarchyConfig;
use std::fmt;
use std::sync::Arc;

/// Default BTB capacity of the pipelined tier's branch predictor.
pub const DEFAULT_BTB_ENTRIES: usize = 512;
/// Default return-address-stack depth of the pipelined tier.
pub const DEFAULT_RAS_DEPTH: usize = 8;
/// Largest BTB the `pipelined` grammar accepts: the predictor table is
/// allocated per trial, so the parser (which sees CLI flags and serve
/// frames) bounds it instead of letting a worker attempt the allocation.
const MAX_BTB_ENTRIES: usize = 1 << 20;
/// Largest RAS depth the `pipelined` grammar accepts (see
/// [`MAX_BTB_ENTRIES`]).
const MAX_RAS_DEPTH: usize = 1 << 10;

/// A parsed, canonical name for one simulation fidelity tier.
///
/// The single currency for tier selection: the session builder
/// ([`crate::SimSessionBuilder::fidelity`]), escalated tuning
/// ([`crate::EscalationOptions::explore`]), the service
/// ([`crate::SimService::open_fidelity`] and the serve protocol's
/// `fidelity` field) and the CLI all take one of these, and its
/// [`digest`](FidelitySpec::digest) keys the memo cache.
#[derive(Clone, Debug, PartialEq, Default)]
#[non_exhaustive]
pub enum FidelitySpec {
    /// Instruction-accurate reference simulation with the full cache
    /// model ([`AccurateBackend`]).
    #[default]
    Accurate,
    /// Counting-only tier, no cache model ([`FastCountBackend`]).
    FastCount,
    /// 5-stage in-order pipeline timing tier
    /// ([`crate::PipelinedBackend`]).
    Pipelined {
        /// Branch-target-buffer entries of the timing model's predictor.
        btb: usize,
        /// Return-address-stack depth of the timing model's predictor.
        ras: usize,
    },
}

impl FidelitySpec {
    /// Every bundled tier at its default parameters, cheapest host
    /// cost first: fast-count (≈ 0.65× accurate on the Table II groups),
    /// accurate, then pipelined (≈ 1.5× accurate, the benchmark's
    /// `hw.pipelined_over_accurate`).
    pub fn all() -> [FidelitySpec; 3] {
        [
            FidelitySpec::FastCount,
            FidelitySpec::Accurate,
            FidelitySpec::Pipelined {
                btb: DEFAULT_BTB_ENTRIES,
                ras: DEFAULT_RAS_DEPTH,
            },
        ]
    }

    /// Short tier label without parameters.
    pub fn label(&self) -> &'static str {
        match self {
            FidelitySpec::Accurate => ACCURATE,
            FidelitySpec::FastCount => FAST_COUNT,
            FidelitySpec::Pipelined { .. } => PIPELINED,
        }
    }

    /// Canonical spec string, parseable back via
    /// [`FromStr`](std::str::FromStr): tier name plus every parameter.
    /// Two specs with equal digests select identical backends.
    pub fn digest(&self) -> String {
        match self {
            FidelitySpec::Accurate => "accurate".into(),
            FidelitySpec::FastCount => "fast-count".into(),
            FidelitySpec::Pipelined { btb, ras } => format!("pipelined:btb={btb},ras={ras}"),
        }
    }

    /// Instantiates the backend this spec names against `hierarchy`.
    ///
    /// # Errors
    ///
    /// Returns a tier's configuration error as [`CoreError`]; every
    /// bundled tier builds from any spec that parsed.
    pub fn build(&self, hierarchy: &HierarchyConfig) -> Result<Arc<dyn SimBackend>, CoreError> {
        Ok(match self {
            FidelitySpec::Accurate => Arc::new(AccurateBackend::new(hierarchy.clone())),
            FidelitySpec::FastCount => Arc::new(FastCountBackend::matching(hierarchy)),
            FidelitySpec::Pipelined { btb, ras } => {
                Arc::new(PipelinedBackend::new(hierarchy.clone(), *btb, *ras))
            }
        })
    }
}

impl fmt::Display for FidelitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.digest())
    }
}

/// Grammar summary appended to every parse error.
const GRAMMAR: &str = "accurate | fast-count | pipelined[:btb=N,ras=N]";

fn bad_spec(msg: String) -> CoreError {
    CoreError::Pipeline(format!("{msg} (expected {GRAMMAR})"))
}

/// Splits `args` (`"k1=v1,k2=v2"`) into key/value pairs.
fn key_values(args: &str) -> Result<Vec<(&str, &str)>, CoreError> {
    args.split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            part.split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| bad_spec(format!("malformed parameter {part:?}")))
        })
        .collect()
}

impl std::str::FromStr for FidelitySpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.trim().to_ascii_lowercase();
        let (tier, args) = match lowered.split_once(':') {
            Some((tier, args)) => (tier.trim(), args),
            None => (lowered.as_str(), ""),
        };
        match tier {
            "accurate" | "acc" => {
                if !args.is_empty() {
                    return Err(bad_spec(format!(
                        "tier \"accurate\" takes no parameters, got {args:?}"
                    )));
                }
                Ok(FidelitySpec::Accurate)
            }
            "fast-count" | "fastcount" | "fast" | "count" => {
                if !args.is_empty() {
                    return Err(bad_spec(format!(
                        "tier \"fast-count\" takes no parameters, got {args:?}"
                    )));
                }
                Ok(FidelitySpec::FastCount)
            }
            "pipelined" | "pipeline" => {
                let mut btb = DEFAULT_BTB_ENTRIES;
                let mut ras = DEFAULT_RAS_DEPTH;
                for (k, v) in key_values(args)? {
                    let (slot, max) = match k {
                        "btb" => (&mut btb, MAX_BTB_ENTRIES),
                        "ras" => (&mut ras, MAX_RAS_DEPTH),
                        other => {
                            return Err(bad_spec(format!("unknown pipelined parameter {other:?}")))
                        }
                    };
                    *slot = v.parse().ok().filter(|n| *n <= max).ok_or_else(|| {
                        bad_spec(format!("{k} must be an integer <= {max}, got {v:?}"))
                    })?;
                }
                Ok(FidelitySpec::Pipelined { btb, ras })
            }
            other => Err(bad_spec(format!("unknown fidelity tier {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_round_trips_through_parse() {
        let specs = [
            FidelitySpec::Accurate,
            FidelitySpec::FastCount,
            FidelitySpec::Pipelined { btb: 64, ras: 2 },
        ];
        for spec in specs {
            let parsed: FidelitySpec = spec.digest().parse().unwrap();
            assert_eq!(parsed, spec, "digest {:?}", spec.digest());
            assert_eq!(spec.to_string(), spec.digest());
        }
    }

    #[test]
    fn parse_accepts_aliases_defaults_and_case() {
        assert_eq!(
            "ACCURATE".parse::<FidelitySpec>().unwrap(),
            FidelitySpec::Accurate
        );
        assert_eq!(
            "fastcount".parse::<FidelitySpec>().unwrap(),
            FidelitySpec::FastCount
        );
        assert_eq!(
            "pipelined".parse::<FidelitySpec>().unwrap(),
            FidelitySpec::Pipelined {
                btb: DEFAULT_BTB_ENTRIES,
                ras: DEFAULT_RAS_DEPTH
            }
        );
        assert_eq!(
            "pipelined:ras=4".parse::<FidelitySpec>().unwrap(),
            FidelitySpec::Pipelined {
                btb: DEFAULT_BTB_ENTRIES,
                ras: 4
            }
        );
        // The largest predictor tables the grammar admits.
        assert_eq!(
            "pipelined:btb=1048576,ras=1024"
                .parse::<FidelitySpec>()
                .unwrap(),
            FidelitySpec::Pipelined {
                btb: MAX_BTB_ENTRIES,
                ras: MAX_RAS_DEPTH
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "warp-speed",
            "pipelined:btb",
            "pipelined:lanes=2",
            "pipelined:btb=1048577",
            "pipelined:ras=1025",
            "pipelined:ras=1000000000000000",
            "pipelined:btb=99999999999999999999999999",
            "accurate:x=1",
            "fast-count:y=2",
        ] {
            let err = bad.parse::<FidelitySpec>().unwrap_err();
            assert!(
                matches!(err, CoreError::Pipeline(ref m) if m.contains("expected")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn the_removed_sampled_tier_is_an_unknown_tier() {
        for gone in ["sampled", "sample:fraction=0.5"] {
            let err = gone.parse::<FidelitySpec>().unwrap_err();
            assert!(
                matches!(err, CoreError::Pipeline(ref m)
                    if m.contains("unknown fidelity tier") && m.contains("expected")),
                "{gone}: {err}"
            );
        }
    }

    #[test]
    fn build_instantiates_the_named_backend() {
        let hier = HierarchyConfig::tiny_for_tests();
        for spec in FidelitySpec::all() {
            let backend = spec.build(&hier).unwrap();
            assert_eq!(backend.name(), spec.label());
        }
    }

    #[test]
    fn default_is_the_reference_tier() {
        assert_eq!(FidelitySpec::default(), FidelitySpec::Accurate);
    }

    /// What hostile spec strings are assembled from: the grammar's tier
    /// names, separators and keys, and values at, inside and past every
    /// bound.
    const TIERS: [&str; 9] = [
        "accurate",
        "acc",
        "FAST-COUNT",
        "count",
        "sampled",
        "sample",
        "pipelined",
        " pipeline ",
        "warp",
    ];
    const SEPS: [&str; 4] = [":", ":", "::", ""];
    const KEYS: [&str; 5] = ["fraction", "btb", "ras", "Fraction", ""];
    const VALUES: [&str; 22] = [
        "0",
        "1",
        "2",
        "0.5",
        "1.0",
        "-0",
        "-0.5",
        "1e-320",
        "1e309",
        "nan",
        "NaN",
        "inf",
        "-inf",
        "1048576",
        "1048577",
        "1024",
        "1025",
        "99999999999999999999",
        "0x10",
        "+1",
        "",
        " 0.25 ",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Any string: the parser never panics, a spec that parses builds
        /// against a real hierarchy, and its digest parses back to it.
        #[test]
        fn any_spec_that_parses_builds_and_round_trips(
            tier in 0usize..TIERS.len(),
            sep in 0usize..SEPS.len(),
            params in proptest::collection::vec(0usize..KEYS.len() * VALUES.len(), 0..4),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..6),
            noise_at in 0usize..64,
        ) {
            let params: Vec<String> = params
                .iter()
                .map(|&p| format!("{}={}", KEYS[p / VALUES.len()], VALUES[p % VALUES.len()]))
                .collect();
            let mut text = format!("{}{}{}", TIERS[tier], SEPS[sep], params.join(","));
            // About half the strings also carry arbitrary bytes somewhere.
            if noise_at <= text.len() && text.is_char_boundary(noise_at) {
                text.insert_str(noise_at, &String::from_utf8_lossy(&noise));
            }
            if let Ok(spec) = text.parse::<FidelitySpec>() {
                let built = spec.build(&HierarchyConfig::tiny_for_tests());
                proptest::prop_assert!(built.is_ok(), "{text:?} parsed but did not build");
                let again = spec.digest().parse::<FidelitySpec>();
                proptest::prop_assert_eq!(again.ok(), Some(spec));
            }
        }
    }
}
