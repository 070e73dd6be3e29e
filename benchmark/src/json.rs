//! JSON output. The value type and the parser are `rmr_obs::json`'s (the
//! workspace's one full parser); this module adds the writer it lacks, so
//! everything the benchmark writes can be read back by the same crate.

use std::collections::BTreeMap;

pub use rmr_obs::json::{parse, Json};

/// Serialises `v` on one line. Non-finite numbers become `null` (JSON has no
/// NaN); integers below 2^53 print without a fraction, everything else with
/// Rust's shortest round-tripping digits, so a measured value keeps all of
/// them.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

pub fn num(n: f64) -> Json {
    Json::Num(n)
}

pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// `v[key]` as a number, or an error naming the key.
pub fn get_num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing number {key:?}"))
}

/// `v[key]` as a string, or an error naming the key.
pub fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_obs_parser() {
        let doc = obj([
            ("name", string("tera \"sort\"\n\ttab \\ \u{1}")),
            ("exact", num(107_374_182_400.0)),
            ("measured", num(1.2034567891234567)),
            ("tiny", num(2.5e-9)),
            ("neg", num(-0.125)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![num(1.0), obj([("k", string("v"))]), Json::Arr(vec![])]),
            ),
        ]);
        let text = to_string(&doc);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).expect("parses"), doc);
        // Integers print without a fraction and floats keep every digit.
        assert!(text.contains("\"exact\":107374182400,"));
        assert!(text.contains("1.2034567891234567"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let text = to_string(&Json::Arr(vec![num(f64::NAN), num(f64::INFINITY)]));
        assert_eq!(text, "[null,null]");
    }

    #[test]
    fn getters_name_the_missing_key() {
        let doc = obj([("a", num(1.0)), ("s", string("x"))]);
        assert_eq!(get_num(&doc, "a"), Ok(1.0));
        assert_eq!(get_str(&doc, "s"), Ok("x"));
        assert!(get_num(&doc, "b").unwrap_err().contains("\"b\""));
        assert!(get_str(&doc, "a").unwrap_err().contains("\"a\""));
    }
}
