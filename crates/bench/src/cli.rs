//! The argument parser `probe` and `rdma-mapred` share: positionals with
//! defaults plus `--flag [value]` pairs. Bad input — an unknown flag, a
//! value that does not parse, a positional nobody asked for — prints what
//! was wrong and the usage text and exits 2; it never falls back to a
//! default or panics.

use std::collections::VecDeque;
use std::str::FromStr;

use rmr_cluster::Bench;

/// Prints `msg` and the usage text, exits 2.
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2)
}

/// One subcommand's arguments, split into positionals and flags.
pub struct Args {
    usage: &'static str,
    pos: VecDeque<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Splits `argv`: `valued` flags consume the next argument, `switches`
    /// stand alone, everything else not starting with `--` is positional.
    pub fn parse(argv: &[String], valued: &[&str], switches: &[&str], usage: &'static str) -> Args {
        let mut args = Args {
            usage,
            pos: VecDeque::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                match it.next() {
                    Some(v) => args.flags.push((a.clone(), v.clone())),
                    None => args.fail(&format!("{a} needs a value")),
                }
            } else if switches.contains(&a.as_str()) {
                args.flags.push((a.clone(), String::new()));
            } else if a.starts_with("--") {
                args.fail(&format!("unknown flag {a}"));
            } else {
                args.pos.push_back(a.clone());
            }
        }
        args
    }

    /// [`usage_error`] with this command's usage text.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(msg, self.usage)
    }

    /// The next positional through `parse`, or `default` when none is left.
    pub fn pos_with<T>(&mut self, what: &str, default: T, parse: impl Fn(&str) -> Option<T>) -> T {
        match self.pos.pop_front() {
            None => default,
            Some(s) => parse(&s).unwrap_or_else(|| self.fail(&format!("bad {what}: {s:?}"))),
        }
    }

    /// The next positional as a number (or anything `FromStr`).
    pub fn pos<T: FromStr>(&mut self, what: &str, default: T) -> T {
        self.pos_with(what, default, |s| s.parse().ok())
    }

    /// A valued flag through `parse`, if given.
    pub fn flag_with<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let (_, v) = self.flags.iter().find(|(n, _)| n == name)?;
        Some(parse(v).unwrap_or_else(|| self.fail(&format!("bad value for {name}: {v:?}"))))
    }

    /// A valued flag as a number (or anything `FromStr`), if given.
    pub fn flag<T: FromStr>(&self, name: &str) -> Option<T> {
        self.flag_with(name, |s| s.parse().ok())
    }

    /// Was this switch given?
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Call after the last positional is taken: leftovers are an error.
    pub fn done(&self) {
        if let Some(extra) = self.pos.front() {
            self.fail(&format!("unexpected argument {extra:?}"));
        }
    }
}

/// `terasort` or `sort`, for [`Args::pos_with`] / [`Args::flag_with`]
/// (systems go through `System::parse` the same way).
pub fn parse_bench(name: &str) -> Option<Bench> {
    match name {
        "terasort" => Some(Bench::TeraSort),
        "sort" => Some(Bench::Sort),
        _ => None,
    }
}

/// A data size in GB for [`Args::pos_with`] / [`Args::flag_with`]: finite
/// and above zero.
pub fn parse_gb(s: &str) -> Option<f64> {
    s.parse()
        .ok()
        .filter(|gb: &f64| gb.is_finite() && *gb > 0.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_size_is_finite_and_positive() {
        for bad in ["nan", "inf", "-2", "0", "1e400"] {
            assert_eq!(super::parse_gb(bad), None, "{bad}");
        }
        assert_eq!(super::parse_gb("0.25"), Some(0.25));
    }
}
