//! `match-leak`: `ShuffleKind` dispatch outside its seam.
//!
//! The invariant: the dispatch on the shuffle design lives in one place,
//! `ShuffleKind`'s own methods in `crates/core/src/config.rs` (the server
//! a TaskTracker runs, whether it caches, the reduce pipeline), so a new
//! design is one arm per method. `crates/cluster/src/testbed.rs`, which
//! maps the paper's testbed presets onto kinds, is exempt too. A
//! `match`/`matches!`/`if let` on `ShuffleKind` anywhere else re-opens
//! per-design special cases and every new design would have to chase them.
//! Constructing a kind (`ShuffleKind::OsuIb` as a value) is fine anywhere.

use crate::index::Workspace;
use crate::rules::{RawFinding, Rule};

/// Path suffixes of the files allowed to branch on `ShuffleKind`.
const SEAM_FILES: [&str; 2] = ["core/src/config.rs", "cluster/src/testbed.rs"];

/// Scans one indexed file; appends raw findings.
pub fn scan(ws: &Workspace, file: usize, out: &mut Vec<RawFinding>) {
    let path = ws.files[file].path.replace('\\', "/");
    if SEAM_FILES.iter().any(|s| path.ends_with(s)) {
        return;
    }
    let t = &ws.files[file].lexed.tokens;
    for i in 0..t.len() {
        if t[i].text != "ShuffleKind" {
            continue;
        }
        // `ShuffleKind::Variant =>` — a match arm.
        let is_arm = t.get(i + 1).is_some_and(|x| x.text == "::")
            && t.get(i + 3).is_some_and(|x| x.text == "=>");
        // `if/while let ShuffleKind::Variant = ..` — a refutable pattern.
        let is_let_pattern = t.get(i + 1).is_some_and(|x| x.text == "::")
            && t.get(i + 3).is_some_and(|x| x.text == "=")
            && t[i.saturating_sub(3)..i].iter().any(|x| x.text == "let");
        // `matches!(.., ShuffleKind::..)` — look back for the macro open.
        let in_matches = t[i.saturating_sub(8)..i]
            .windows(2)
            .any(|w| w[0].text == "matches" && w[1].text == "!");
        if is_arm || is_let_pattern || in_matches {
            let shape = if is_arm {
                "matched"
            } else if is_let_pattern {
                "pattern-matched via `let`"
            } else {
                "tested via `matches!`"
            };
            out.push(RawFinding::new(
                file,
                t[i].line,
                Rule::MatchLeak,
                format!("`ShuffleKind` {shape} outside the construction seam"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn rules_at(path: &str, src: &str) -> Vec<Rule> {
        let ws = Workspace::build(vec![(path.into(), Severity::Deny, src.into())]);
        let mut out = Vec::new();
        scan(&ws, 0, &mut out);
        out.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn match_arm_outside_seam_flags() {
        let src = "fn f(k: ShuffleKind) -> u32 {\n\
                   match k {\n\
                   ShuffleKind::Vanilla => 0,\n\
                   _ => 1,\n\
                   }\n}\n";
        assert_eq!(
            rules_at("crates/core/src/runtime.rs", src),
            vec![Rule::MatchLeak]
        );
    }

    #[test]
    fn seam_files_may_match() {
        let src = "match k { ShuffleKind::Vanilla => 0, _ => 1 }";
        assert!(rules_at("crates/core/src/config.rs", src).is_empty());
        assert!(rules_at("crates/cluster/src/testbed.rs", src).is_empty());
    }

    #[test]
    fn matches_macro_and_if_let_flag() {
        assert_eq!(
            rules_at(
                "crates/core/src/engine.rs",
                "if matches!(k, ShuffleKind::OsuIb) { x(); }"
            ),
            vec![Rule::MatchLeak]
        );
        assert_eq!(
            rules_at(
                "crates/core/src/engine.rs",
                "if let ShuffleKind::OsuIb = k { x(); }"
            ),
            vec![Rule::MatchLeak]
        );
    }

    #[test]
    fn construction_is_clean_anywhere() {
        let src = "let k = ShuffleKind::OsuIb;\nlet all = [ShuffleKind::Vanilla, ShuffleKind::HadoopA];\nassert_eq!(res.shuffle, ShuffleKind::OsuIb);\n";
        assert!(rules_at("tests/end_to_end.rs", src).is_empty());
    }
}
