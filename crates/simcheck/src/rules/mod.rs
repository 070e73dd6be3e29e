//! Rule catalogue: identifiers, severity, rationale, and explain text.
//!
//! Detection lives in the sibling modules ([`tokens`], [`float_ord`],
//! [`yield_borrow`], [`match_leak`], [`stale_allow`]); this module is the
//! single place a rule's name, why-text, hazard example, and remediation
//! are defined, so reports and `simcheck --explain <rule>` never drift.

pub mod float_ord;
pub mod match_leak;
pub mod stale_allow;
pub mod tokens;
pub mod yield_borrow;

use std::fmt;

/// Severity tier of a finding (derived from the scanned root: sim-visible
/// crates are `Deny`, host-side crates and test code are `Warn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the scan.
    Warn,
    /// Fails the scan (exit code 1) unless baselined.
    Deny,
}

impl Severity {
    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time reached from simulation code (directly or through
    /// the call graph).
    WallClock,
    /// OS entropy reached from simulation code (directly or through the
    /// call graph).
    OsEntropy,
    /// OS threads spawned from simulation code (directly or through the
    /// call graph).
    ThreadSpawn,
    /// Iteration-order-unstable containers in sim-visible modules.
    UnorderedMap,
    /// A `RefCell` borrow guard held across an `.await` or a sim yield
    /// point (`yield_now`, `sleep`, `wait*`, `recv`, ...).
    YieldBorrow,
    /// Float comparators (`partial_cmp`) or float keys feeding ordered
    /// containers / sorts.
    FloatOrd,
    /// A suppression directive that suppresses nothing, or names an
    /// unknown rule.
    StaleAllow,
    /// `ShuffleKind` matched outside the construction seam
    /// (`core/src/config.rs`, `cluster/src/testbed.rs`).
    MatchLeak,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::WallClock,
        Rule::OsEntropy,
        Rule::ThreadSpawn,
        Rule::UnorderedMap,
        Rule::YieldBorrow,
        Rule::FloatOrd,
        Rule::StaleAllow,
        Rule::MatchLeak,
    ];

    /// The kebab-case name used in reports and `allow(..)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::OsEntropy => "os-entropy",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::UnorderedMap => "unordered-map",
            Rule::YieldBorrow => "yield-borrow",
            Rule::FloatOrd => "float-ord",
            Rule::StaleAllow => "stale-allow",
            Rule::MatchLeak => "match-leak",
        }
    }

    /// Parses a rule name as used in directives and `--explain`.
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line summary for the report's rule table.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock time reached from simulation code",
            Rule::OsEntropy => "OS entropy reached from simulation code",
            Rule::ThreadSpawn => "OS threads spawned from simulation code",
            Rule::UnorderedMap => "iteration-order-unstable container in a sim-visible module",
            Rule::YieldBorrow => "RefCell guard held across an await/yield point",
            Rule::FloatOrd => "float ordering via partial_cmp or float container keys",
            Rule::StaleAllow => "suppression directive that suppresses nothing",
            Rule::MatchLeak => "ShuffleKind matched outside the construction seam",
        }
    }

    /// Why the construct is hazardous in this workspace.
    pub fn why(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock time varies run to run; use the virtual clock (sim.now())"
            }
            Rule::OsEntropy => {
                "OS entropy breaks seeded replay; use SmallRng::seed_from_u64 via the Sim"
            }
            Rule::ThreadSpawn => {
                "OS threads race the single-threaded executor; use sim.spawn_named(..)"
            }
            Rule::UnorderedMap => {
                "HashMap/HashSet iteration order is unstable; use BTreeMap/BTreeSet"
            }
            Rule::YieldBorrow => {
                "a RefCell guard held across a yield panics when another task borrows"
            }
            Rule::FloatOrd => {
                "partial_cmp on NaN is None and unwrap_or(Equal) makes order input-dependent; \
                 use total_cmp or integer keys"
            }
            Rule::StaleAllow => {
                "a suppression that suppresses nothing hides future hazards; delete it"
            }
            Rule::MatchLeak => {
                "engine dispatch lives in ShuffleKind's own methods in config.rs, so a new \
                 design is one match arm per method; only config.rs/testbed.rs may match ShuffleKind"
            }
        }
    }

    /// A minimal hazardous example, for `--explain`.
    pub fn hazard_example(self) -> &'static str {
        match self {
            Rule::WallClock => "let t0 = std::time::Instant::now();  // differs every run",
            Rule::OsEntropy => "let mut rng = rand::thread_rng();    // unseeded",
            Rule::ThreadSpawn => "std::thread::spawn(move || tick()); // races the executor",
            Rule::UnorderedMap => {
                "for (k, v) in map { schedule(k, v) } // HashMap: order varies per process"
            }
            Rule::YieldBorrow => {
                "let st = state.borrow_mut();\nqueue.recv().await; // another task panics on borrow"
            }
            Rule::FloatOrd => {
                "runs.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(Equal)); \
                 // NaN => order depends on input order"
            }
            Rule::StaleAllow => {
                "// simcheck: allow(unordered-map)   <- nothing on the next line fires"
            }
            Rule::MatchLeak => {
                "match conf.shuffle { ShuffleKind::OsuIb => special_case(), .. } \
                 // a per-design special case outside config.rs"
            }
        }
    }

    /// How to fix a finding, for `--explain`.
    pub fn remedy(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "read sim.now() inside simulations; host-side timers (benches, ETA displays) \
                 take an inline justification: // simcheck: allow(wall-clock) <reason>"
            }
            Rule::OsEntropy => "thread all randomness from the Sim's seeded SmallRng",
            Rule::ThreadSpawn => {
                "use sim.spawn_named/spawn_daemon inside sims; host-side parallelism over whole \
                 sims is justified with an inline allow"
            }
            Rule::UnorderedMap => "switch to BTreeMap/BTreeSet, or justify why order never leaks",
            Rule::YieldBorrow => "drop or scope the guard before the yield point",
            Rule::FloatOrd => {
                "use f64::total_cmp, or sort on integer keys; justify provably host-only sorts"
            }
            Rule::StaleAllow => "delete the directive (or fix its rule name)",
            Rule::MatchLeak => {
                "move the dispatch into a ShuffleKind method in config.rs and branch on that"
            }
        }
    }

    /// Full explain text for `simcheck --explain <rule>`.
    pub fn explain(self) -> String {
        format!(
            "rule: {}\n  {}\n\nwhy\n  {}\n\nhazard\n  {}\n\nfix\n  {}\n",
            self.name(),
            self.summary(),
            self.why(),
            self.hazard_example().replace('\n', "\n  "),
            self.remedy(),
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A rule hit before suppression/severity assignment.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// File index into the workspace.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Specifics of what matched.
    pub message: String,
    /// Call chain (taint findings only).
    pub chain: Vec<String>,
}

impl RawFinding {
    /// Chain-less finding.
    pub fn new(file: usize, line: u32, rule: Rule, message: String) -> Self {
        RawFinding {
            file,
            line,
            rule,
            message,
            chain: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.name()), Some(r));
        }
        assert_eq!(Rule::parse("refcell-await"), None);
        assert_eq!(Rule::parse("nope"), None);
    }

    #[test]
    fn explain_text_is_complete() {
        for r in Rule::ALL {
            let e = r.explain();
            assert!(e.contains(r.name()));
            assert!(e.contains("why"), "{e}");
            assert!(e.contains("fix"), "{e}");
        }
    }
}
