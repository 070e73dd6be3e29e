//! Argument parsing. A bad argument is a usage error (exit code 2), never a
//! panic.

use std::path::PathBuf;

use crate::rep::RepConfig;
use crate::runner;

pub const USAGE: &str = "\
usage: rmr-benchmark <command>

  run [--seed N] [--reps K] [--workload NAME]... [--out PATH] [--smoke] [--twice]
        K untraced repetitions (default 5) and one traced repetition per
        workload, one child process each, strictly serial. Prints every
        metric, writes the result set and benchmark/out/trace-<workload>.jsonl,
        exits 1 on a failed output check. --smoke: k = 1, inputs / 16.
        --twice: a second set, compared against the first.
  compare <A.json> <B.json>
        Applies the bounds per (metric, workload) row; exits 1 on `worse`.
  measure --workload NAME --seed N --seconds S --trace 0|1
        The BENCHMARK.json command: one workload, one JSON line.
  one <workload> [--seed N] [--traced] [--smoke] [--sim-end S] [--setup-only]
        A single repetition in this process; prints one JSON line.
  --list
        Workload and metric names.";

#[derive(Debug, PartialEq)]
pub enum Command {
    List,
    Run {
        seed: u64,
        reps: Option<usize>,
        workloads: Vec<String>,
        out: Option<PathBuf>,
        smoke: bool,
        twice: bool,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
    Measure {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    One {
        workload: String,
        cfg: RepConfig,
    },
}

/// Flags of one subcommand, consumed as they are read.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
    }

    fn workload(&mut self, flag: &str) -> Result<String, String> {
        let name = self.value(flag)?;
        if runner::is_workload(name) {
            Ok(name.to_string())
        } else {
            Err(format!("unknown workload {name:?} (see --list)"))
        }
    }
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("no command given")?;
    let mut f = Flags { args: rest.iter() };
    match sub.as_str() {
        "--list" | "list" => Ok(Command::List),
        "run" => {
            let (mut seed, mut reps, mut workloads, mut out) = (42, None, Vec::new(), None);
            let (mut smoke, mut twice) = (false, false);
            while let Some(flag) = f.args.next() {
                match flag.as_str() {
                    "--seed" => seed = f.number(flag)?,
                    "--reps" => {
                        let k: usize = f.number(flag)?;
                        if k == 0 {
                            return Err("--reps must be at least 1".into());
                        }
                        reps = Some(k);
                    }
                    "--workload" => workloads.push(f.workload(flag)?),
                    "--out" => out = Some(PathBuf::from(f.value(flag)?)),
                    "--smoke" => smoke = true,
                    "--twice" => twice = true,
                    other => return Err(format!("run: unknown argument {other:?}")),
                }
            }
            Ok(Command::Run {
                seed,
                reps,
                workloads,
                out,
                smoke,
                twice,
            })
        }
        "compare" => match rest {
            [a, b] => Ok(Command::Compare {
                a: PathBuf::from(a),
                b: PathBuf::from(b),
            }),
            _ => Err("compare takes exactly two result files".into()),
        },
        "measure" => {
            let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
            while let Some(flag) = f.args.next() {
                match flag.as_str() {
                    "--workload" => workload = Some(f.workload(flag)?),
                    "--seed" => seed = Some(f.number(flag)?),
                    "--seconds" => seconds = Some(f.number::<u64>(flag)?),
                    "--trace" => {
                        trace = Some(match f.value(flag)? {
                            "0" => false,
                            "1" => true,
                            v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                        })
                    }
                    other => return Err(format!("measure: unknown argument {other:?}")),
                }
            }
            Ok(Command::Measure {
                workload: workload.ok_or("measure needs --workload")?,
                seed: seed.ok_or("measure needs --seed")?,
                seconds: seconds.ok_or("measure needs --seconds")?,
                trace: trace.ok_or("measure needs --trace")?,
            })
        }
        "one" => {
            let workload = f.workload("one")?;
            let mut cfg = RepConfig::plain(42);
            while let Some(flag) = f.args.next() {
                match flag.as_str() {
                    "--seed" => cfg.seed = f.number(flag)?,
                    "--traced" => cfg.traced = true,
                    "--smoke" => cfg.smoke = true,
                    "--sim-end" => cfg.sim_end_s = Some(f.number(flag)?),
                    "--setup-only" => cfg.setup_only = true,
                    other => return Err(format!("one: unknown argument {other:?}")),
                }
            }
            Ok(Command::One { workload, cfg })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Command, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn commands_parse() {
        assert_eq!(p("--list"), Ok(Command::List));
        assert_eq!(
            p("run"),
            Ok(Command::Run {
                seed: 42,
                reps: None,
                workloads: vec![],
                out: None,
                smoke: false,
                twice: false
            })
        );
        assert_eq!(
            p("run --seed 7 --reps 3 --workload scale_256 --workload layer_kernels --out x.json --smoke --twice"),
            Ok(Command::Run {
                seed: 7,
                reps: Some(3),
                workloads: vec!["scale_256".into(), "layer_kernels".into()],
                out: Some("x.json".into()),
                smoke: true,
                twice: true
            })
        );
        assert_eq!(
            p("measure --workload terasort_ipoib --seed 3 --seconds 10 --trace 1"),
            Ok(Command::Measure {
                workload: "terasort_ipoib".into(),
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        assert_eq!(
            p("one service_cap --seed 9 --traced --sim-end 97.5"),
            Ok(Command::One {
                workload: "service_cap".into(),
                cfg: RepConfig {
                    traced: true,
                    sim_end_s: Some(97.5),
                    ..RepConfig::plain(9)
                }
            })
        );
        assert_eq!(
            p("one terasort_real --setup-only --smoke"),
            Ok(Command::One {
                workload: "terasort_real".into(),
                cfg: RepConfig {
                    smoke: true,
                    setup_only: true,
                    ..RepConfig::plain(42)
                }
            })
        );
        assert_eq!(
            p("compare a.json b.json"),
            Ok(Command::Compare {
                a: "a.json".into(),
                b: "b.json".into()
            })
        );
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            "",
            "frobnicate",
            "run --seed",
            "run --seed x",
            "run --reps 0",
            "run --workload nope",
            "run --fast",
            "compare a.json",
            "compare a b c",
            "measure --workload scale_256 --seed 1 --seconds 10",
            "measure --workload scale_256 --seed 1 --seconds 10 --trace 2",
            "measure --workload scale_256 --seed -1 --seconds 10 --trace 0",
            "one",
            "one nope",
            "one scale_256 --sim-end soon",
        ] {
            assert!(p(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
