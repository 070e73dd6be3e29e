//! The determinism rules clippy cannot express (`clippy.toml` bans the host
//! clock, OS threads and hash-ordered containers), each tried on samples,
//! and a length ceiling on every library and binary source file.

use std::path::{Path, PathBuf};

/// The files that may branch on `ShuffleKind`: its own methods and the
/// testbed presets. Anywhere else a branch is a per-design special case.
const SHUFFLE_SEAM: [&str; 2] = ["crates/core/src/config.rs", "crates/cluster/src/testbed.rs"];

/// Each crosses one seam once outside the `ShuffleKind` seam; `CLEAN` none.
const CROSSINGS: [&str; 8] = [
    "v.sort_by(|a, b| a.partial_cmp(b).unwrap())",
    "v.iter().copied().max_by(f64::partial_cmp)",
    "match k {\n    ShuffleKind::OsuIb => 1,\n    _ => 0,\n}",
    "match k { ShuffleKind::HadoopA if fast => 1, _ => 0 }",
    "if let ShuffleKind::HadoopA = k {}",
    "matches!(\n    conf.kind(),\n    ShuffleKind::Vanilla\n)",
    "#[allow(dead_code, clippy::disallowed_types)]",
    "#![allow(clippy::all)]",
];
const CLEAN: [&str; 3] = [
    "fn partial_cmp(&self, o: &Self) -> Option<Ordering> {",
    "let k = ShuffleKind::OsuIb; vec![k, ShuffleKind::Vanilla]",
    "#[expect(clippy::disallowed_methods, reason = \"timing\")]",
];

/// The rule a `needle` between `before` and `after` breaks, if any.
fn rule(needle: &str, before: &str, after: &str, seam: bool) -> Option<&'static str> {
    let word_end = after.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
    let arm = ["=>", "|", "if "]
        .iter()
        .any(|t| word_end.trim_start().starts_with(t));
    let bans = ["clippy::disallowed_", "clippy::style", "clippy::all"];
    match needle {
        // Only a `PartialOrd` impl may name it: ordering floats by it turns
        // NaN into whatever the caller unwraps to.
        "partial_cmp" => Some("float-ord: use total_cmp").filter(|_| !before.ends_with("fn ")),
        // An `allow` of a ban: only `expect` may suppress one, so a stale
        // suppression fails the build.
        "allow(" => Some("allow of a ban: use expect")
            .filter(|_| bans.iter().any(|l| inside(after).contains(l))),
        // A match arm or `let` pattern, or a `matches!` test.
        "ShuffleKind::" if !seam && (arm || before.ends_with("let ")) => Some("match-leak"),
        "matches!(" if !seam && inside(after).contains("ShuffleKind") => Some("match-leak"),
        _ => None,
    }
}

/// `after` up to the `)` that closes the `(` just before it.
fn inside(after: &str) -> &str {
    let mut depth = 1;
    let end = after.find(|c| {
        depth += (c == '(') as i32 - (c == ')') as i32;
        depth == 0
    });
    &after[..end.unwrap_or(after.len())]
}

/// Where `text`, the file at `rel`, crosses a seam: `rel:line: rule` each.
fn crossings(rel: &str, text: &str) -> Vec<String> {
    let mut hits = Vec::new();
    for needle in ["partial_cmp", "allow(", "ShuffleKind::", "matches!("] {
        for (i, _) in text.match_indices(needle) {
            let (before, after) = (&text[..i], &text[i + needle.len()..]);
            if let Some(rule) = rule(needle, before, after, SHUFFLE_SEAM.contains(&rel)) {
                let line = before.matches('\n').count() + 1;
                hits.push(format!("{rel}:{line}: {rule}"));
            }
        }
    }
    hits
}

#[test]
fn each_check_fires_on_what_it_bans() {
    for s in CROSSINGS {
        assert_eq!(crossings("src/x.rs", s).len(), 1, "{s}");
    }
    for s in CLEAN {
        assert_eq!(crossings("src/x.rs", s), Vec::<String>::new());
    }
    assert!(
        crossings(SHUFFLE_SEAM[0], CROSSINGS[2]).is_empty(),
        "the seam may branch"
    );
}

/// Every `.rs` file under the workspace directories `dirs`, build output
/// skipped, as (path relative to the workspace root, text).
fn sources(dirs: &[&str]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<PathBuf> = dirs.iter().map(|d| root.join(d)).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            if path.is_dir() && !rel.ends_with("target") {
                dirs.push(path);
            } else if rel.ends_with(".rs") {
                files.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    files
}

#[test]
fn no_source_crosses_a_seam() {
    let files = sources(&["crates", "shims", "src", "tests", "examples"]);
    assert!(files.len() > 100, "the walk found {} files", files.len());
    let mut found = Vec::new();
    for (rel, text) in &files {
        // This file's samples are positives.
        if rel != "tests/seams.rs" {
            found.extend(crossings(rel, text));
        }
    }
    assert!(found.is_empty(), "seams crossed:\n{}", found.join("\n"));
}

/// The longest a library or binary source file may be.
const MAX_LINES: usize = 1_200;

/// The source files longer than [`MAX_LINES`], each with the length it may
/// not pass. The list only shrinks: a file that falls to the limit leaves it,
/// and a ceiling is never raised.
const LONG_FILES: [(&str, usize); 3] = [
    ("crates/des/src/executor.rs", 1_852),
    ("crates/core/src/record.rs", 1_362),
    ("crates/core/src/reduce/rdma.rs", 1_409),
];

#[test]
fn no_source_file_outgrows_its_line_ceiling() {
    let mut found = Vec::new();
    let mut listed = 0;
    for (rel, text) in sources(&["crates", "shims", "src"]) {
        // `crates/*/src`, `shims/*/src` and `src`: tests and benches are free.
        let parts: Vec<&str> = rel.split('/').collect();
        if parts[0] != "src" && parts.get(2) != Some(&"src") {
            continue;
        }
        let lines = text.lines().count();
        let ceiling = LONG_FILES.iter().find(|(file, _)| *file == rel);
        listed += ceiling.is_some() as usize;
        match ceiling {
            Some(_) if lines <= MAX_LINES => {
                found.push(format!("{rel}: {lines} lines, take it off the list"))
            }
            Some(&(_, ceiling)) if lines > ceiling => {
                found.push(format!("{rel}: {lines} lines, over its ceiling {ceiling}"))
            }
            None if lines > MAX_LINES => {
                found.push(format!("{rel}: {lines} lines, over {MAX_LINES}"))
            }
            _ => {}
        }
    }
    assert_eq!(listed, LONG_FILES.len(), "a listed file is gone");
    assert!(found.is_empty(), "files too long:\n{}", found.join("\n"));
}
