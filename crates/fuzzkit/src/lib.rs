//! Deterministic fuzzing and differential oracles for the incremental
//! ALS stack.
//!
//! PRs 1–3 layered three incremental caches over the synthesis flow —
//! `estimate::MaskCache`, `lac::CandidateStore`, and `accals::TrialEval`
//! — each correct only under an exact-invalidation contract. This crate
//! hunts for contract violations on randomized circuits and randomized
//! operation sequences:
//!
//! - [`gen`] builds structured random AIGs (random DAGs with controlled
//!   depth/fanout, plus mutated `benchgen` circuits);
//! - [`ops`] drives a random operation sequence — candidate generation,
//!   batch estimation, trial evaluation, LAC commits, raw rewiring
//!   edits, cleanup/compaction, and cache remap rolls — cross-checking
//!   every incremental path against fresh recomputation at 1, 2, and 8
//!   threads after every step, plus a BDD exact-error oracle against
//!   exhaustive bit-parallel simulation for small circuits, and short
//!   end-to-end flows held to the reference flow;
//! - [`reference`](mod@reference) is the dense, obviously correct Algorithm 1 flow the
//!   production engine must match trajectory for trajectory;
//! - [`shrink()`] minimizes a failing case deterministically and prints a
//!   single-line repro.
//!
//! Every case is a pure function of a [`FuzzCase`] — a seed plus a few
//! small knobs — so any failure reduces to one line of text:
//!
//! ```text
//! fuzzkit-repro-v1 seed=0x51a7e5 src=rand pis=4 ands=12 ops=3 pats=0 fault=none
//! ```
//!
//! Reproduce with `cargo run -p fuzzkit -- --repro '<line>'`, or parse
//! the line back into a [`FuzzCase`] and call [`run_case`].

use std::fmt;
use std::str::FromStr;

pub mod gen;
pub mod ops;
pub mod reference;
pub mod shrink;

pub use ops::{golden_circuit, run_case, CaseStats, Failure};
pub use shrink::{shrink, ShrinkResult};

/// Which circuit family a case starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A free-form random DAG ([`gen::random_aig`]).
    Random,
    /// A mutated `benchgen` circuit ([`gen::mutated_bench`]); the payload
    /// selects the base circuit.
    Bench(u8),
}

/// A deliberately injected contract violation, for validating that the
/// oracles (and the shrinker) actually catch broken invalidation logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: any failure is a real bug.
    #[default]
    None,
    /// Skip the `CandidateStore`'s fanout-list invalidation condition
    /// (see `CandidateStore::inject_skip_fanout_invalidation`).
    StoreSkipFanout,
    /// Skip the arena payload remap on carried entries (see
    /// `CandidateStore::inject_stale_arena_carry`), so carried
    /// candidates keep pre-roll node ids.
    StoreStaleArena,
    /// Publish an unsound (too low) pruning threshold from the top-k
    /// scorer (see `BatchEstimator::inject_unsound_bound`), so pruning
    /// discards genuine top-set members.
    TopkLooseBound,
    /// Fork sweep cohorts one round too late (see
    /// `accals::step_cohort_faulted`): branches whose commits diverged
    /// stay on the first branch's circuit and shared caches for one
    /// extra round before splitting.
    SweepStaleFork,
    /// Ignore the window membership mask when the `CandidateStore`
    /// emits candidates (see `CandidateStore::inject_window_leak`), so
    /// carried out-of-window entries leak through the boundary freeze
    /// into a windowed round's candidate list.
    WindowLeak,
}

impl Fault {
    /// Every fault, in declaration order.
    pub const ALL: [Fault; 6] = [
        Fault::None,
        Fault::StoreSkipFanout,
        Fault::StoreStaleArena,
        Fault::TopkLooseBound,
        Fault::SweepStaleFork,
        Fault::WindowLeak,
    ];

    /// The fault's name in repro lines and on the `fuzzkit --fault`
    /// command line; [`FromStr`] parses it back.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::StoreSkipFanout => "store-fanout",
            Fault::StoreStaleArena => "store-arena",
            Fault::TopkLooseBound => "topk-bound",
            Fault::SweepStaleFork => "sweep-stale-fork",
            Fault::WindowLeak => "window-leak",
        }
    }
}

impl FromStr for Fault {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fault::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| format!("unknown fault `{s}`"))
    }
}

/// A self-contained fuzz case: a seed plus the knobs that shape the
/// circuit and the operation sequence. Everything the driver does is a
/// pure function of this struct, and its `Display`/`FromStr` round-trip
/// is the one-line repro format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// Master seed; circuit structure, pattern sample, metric choice,
    /// and the op sequence all derive from decorrelated streams of it.
    pub seed: u64,
    /// Circuit family.
    pub source: Source,
    /// Primary inputs (random source only; bench circuits fix their own).
    pub n_pis: usize,
    /// Target AND count (random source) or mutation count (bench source).
    pub n_ands: usize,
    /// Operations the driver executes.
    pub n_ops: usize,
    /// Sample size; `0` means exhaustive patterns over the inputs.
    pub n_patterns: usize,
    /// Injected fault, if any.
    pub fault: Fault,
}

const REPRO_TAG: &str = "fuzzkit-repro-v1";

/// A decorrelated `u64` drawn from [`prng::stream`]; used to derive
/// independent sub-seeds (circuit, patterns, op sequence) from one
/// master seed.
pub(crate) fn stream_u64(seed: u64, index: u64) -> u64 {
    use prng::RngCore;
    prng::stream(seed, index).next_u64()
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let src = match self.source {
            Source::Random => "rand".to_string(),
            Source::Bench(k) => format!("bench{k}"),
        };
        let fault = self.fault.name();
        write!(
            f,
            "{REPRO_TAG} seed={:#x} src={src} pis={} ands={} ops={} pats={} fault={fault}",
            self.seed, self.n_pis, self.n_ands, self.n_ops, self.n_patterns
        )
    }
}

/// Error from parsing a repro line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaseError(pub String);

impl fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad repro line: {}", self.0)
    }
}

impl std::error::Error for ParseCaseError {}

impl FromStr for FuzzCase {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut toks = s.split_whitespace();
        if toks.next() != Some(REPRO_TAG) {
            return Err(ParseCaseError(format!("expected `{REPRO_TAG}` prefix")));
        }
        let mut case = FuzzCase {
            seed: 0,
            source: Source::Random,
            n_pis: 0,
            n_ands: 0,
            n_ops: 0,
            n_patterns: 0,
            fault: Fault::None,
        };
        for tok in toks {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| ParseCaseError(format!("token `{tok}` has no `=`")))?;
            let bad = |what: &str| ParseCaseError(format!("bad {what} `{val}`"));
            match key {
                "seed" => {
                    let hex = val
                        .strip_prefix("0x")
                        .ok_or_else(|| bad("seed (want 0x-prefixed hex)"))?;
                    case.seed = u64::from_str_radix(hex, 16).map_err(|_| bad("seed"))?;
                }
                "src" => {
                    case.source = if val == "rand" {
                        Source::Random
                    } else {
                        let k = val
                            .strip_prefix("bench")
                            .and_then(|k| k.parse().ok())
                            .ok_or_else(|| bad("src"))?;
                        Source::Bench(k)
                    };
                }
                "pis" => case.n_pis = val.parse().map_err(|_| bad("pis"))?,
                "ands" => case.n_ands = val.parse().map_err(|_| bad("ands"))?,
                "ops" => case.n_ops = val.parse().map_err(|_| bad("ops"))?,
                "pats" => case.n_patterns = val.parse().map_err(|_| bad("pats"))?,
                "fault" => case.fault = val.parse().map_err(|_| bad("fault"))?,
                _ => return Err(ParseCaseError(format!("unknown key `{key}`"))),
            }
        }
        Ok(case)
    }
}

/// The `i`-th case of a soak run seeded with `base_seed`: knobs are
/// drawn from the decorrelated stream `prng::stream(base_seed, i)`.
pub fn case_from_stream(base_seed: u64, i: u64, fault: Fault) -> FuzzCase {
    use prng::{rngs::StdRng, Rng, SeedableRng};
    let seed = stream_u64(base_seed, i);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e0b_5eed);
    let source = if rng.gen_bool(0.7) {
        Source::Random
    } else {
        Source::Bench(rng.gen_range(0..3u32) as u8)
    };
    let n_ands = match source {
        Source::Random => rng.gen_range(6..=40),
        Source::Bench(_) => rng.gen_range(0..=4),
    };
    FuzzCase {
        seed,
        source,
        n_pis: rng.gen_range(3..=8),
        n_ands,
        n_ops: rng.gen_range(2..=7),
        // Samples of 1 to 24 words, so that MED/NMED word lists reach
        // the word kernel's full eight-word strips.
        n_patterns: if rng.gen_bool(0.8) {
            0
        } else {
            64 * rng.gen_range(1..=24usize)
        },
        fault,
    }
}

/// Runs `iters` cases of the soak stream and returns the first failure,
/// if any. `report` is called once per case with the case index and its
/// outcome: what a passing case exercised, or the failure.
pub fn soak(
    base_seed: u64,
    iters: u64,
    fault: Fault,
    mut report: impl FnMut(u64, Result<&CaseStats, &Failure>),
) -> Option<Failure> {
    for i in 0..iters {
        let case = case_from_stream(base_seed, i, fault);
        match run_case(&case) {
            Ok(stats) => report(i, Ok(&stats)),
            Err(f) => {
                report(i, Err(&f));
                return Some(f);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_line_round_trips() {
        let cases = [
            FuzzCase {
                seed: 0x51a7e5,
                source: Source::Random,
                n_pis: 4,
                n_ands: 12,
                n_ops: 3,
                n_patterns: 0,
                fault: Fault::None,
            },
            FuzzCase {
                seed: u64::MAX,
                source: Source::Bench(2),
                n_pis: 6,
                n_ands: 3,
                n_ops: 7,
                n_patterns: 128,
                fault: Fault::StoreSkipFanout,
            },
            FuzzCase {
                seed: 1,
                source: Source::Random,
                n_pis: 3,
                n_ands: 6,
                n_ops: 2,
                n_patterns: 64,
                fault: Fault::TopkLooseBound,
            },
            FuzzCase {
                seed: 0xa12e4a,
                source: Source::Bench(1),
                n_pis: 5,
                n_ands: 9,
                n_ops: 4,
                n_patterns: 96,
                fault: Fault::StoreStaleArena,
            },
            FuzzCase {
                seed: 0xdead,
                source: Source::Random,
                n_pis: 4,
                n_ands: 10,
                n_ops: 5,
                n_patterns: 0,
                fault: Fault::SweepStaleFork,
            },
            FuzzCase {
                seed: 0x71d0,
                source: Source::Bench(0),
                n_pis: 4,
                n_ands: 8,
                n_ops: 6,
                n_patterns: 64,
                fault: Fault::WindowLeak,
            },
        ];
        for c in cases {
            let line = c.to_string();
            assert_eq!(line.parse::<FuzzCase>().unwrap(), c, "{line}");
        }
    }

    #[test]
    fn every_fault_name_round_trips() {
        // The exhaustive match chains the variants, so a new variant
        // does not compile until it is placed in the chain, and the walk
        // then checks that `Fault::ALL` lists it.
        fn next(f: Fault) -> Option<Fault> {
            match f {
                Fault::None => Some(Fault::StoreSkipFanout),
                Fault::StoreSkipFanout => Some(Fault::StoreStaleArena),
                Fault::StoreStaleArena => Some(Fault::TopkLooseBound),
                Fault::TopkLooseBound => Some(Fault::SweepStaleFork),
                Fault::SweepStaleFork => Some(Fault::WindowLeak),
                Fault::WindowLeak => None,
            }
        }
        let walked: Vec<Fault> = std::iter::successors(Some(Fault::None), |&f| next(f)).collect();
        assert_eq!(walked, Fault::ALL);
        for f in Fault::ALL {
            assert_eq!(f.name().parse::<Fault>(), Ok(f));
        }
        assert!("window_leak".parse::<Fault>().is_err());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!("nonsense".parse::<FuzzCase>().is_err());
        assert!("fuzzkit-repro-v1 seed=12".parse::<FuzzCase>().is_err());
        assert!("fuzzkit-repro-v1 seed=0xzz".parse::<FuzzCase>().is_err());
        assert!("fuzzkit-repro-v1 wat=1".parse::<FuzzCase>().is_err());
    }

    #[test]
    fn stream_cases_are_deterministic() {
        let a = case_from_stream(42, 7, Fault::None);
        let b = case_from_stream(42, 7, Fault::None);
        assert_eq!(a, b);
        let c = case_from_stream(42, 8, Fault::None);
        assert_ne!(a.seed, c.seed);
    }
}
