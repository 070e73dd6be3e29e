//! The machine stamp every output carries: host numbers compare only within
//! one machine, so each result says which machine, toolchain and commit
//! produced it, and how busy the machine was when the run started.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Json};
use crate::procfs;

#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// `HEAD`. It names the source only when `dirty` is false.
    pub commit: String,
    /// The working tree differs from `HEAD` (always so while a change is
    /// being written: measured first, committed after).
    pub dirty: bool,
    /// Fingerprint of the files the binary is built from ([`tree_hash`]):
    /// what `compare` means by "the same source".
    pub tree: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    /// 1-minute load average when the run started.
    pub loadavg_1m: f64,
}

/// Resolves `HEAD` by reading `.git` as plain files (the benchmark also runs
/// in exported checkouts that are not repositories: "unknown" there).
pub fn commit_of(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string(); // detached HEAD: the hash itself
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    // Packed refs: "<hash> <ref>" lines.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// True when `git status` reports changes under `repo_root` (false where
/// there is no repository or no git).
fn dirty(repo_root: &Path) -> bool {
    Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(repo_root)
        .output()
        .is_ok_and(|o| o.status.success() && !o.stdout.is_empty())
}

/// What the benchmark binary is built from, relative to the repo root.
const SOURCES: [&str; 7] = [
    "Cargo.toml",
    "crates",
    "shims",
    "results/fig4b.jsonl",
    "benchmark/Cargo.toml",
    "benchmark/Cargo.lock",
    "benchmark/src",
];

/// FNV-1a over the path and bytes of every source file, in path order.
/// A commit hash cannot say whether two result sets ran the same code: an
/// uncommitted change has its parent's `HEAD`, and an exported checkout has
/// none. This works in both.
pub fn tree_hash(repo_root: &Path) -> String {
    fn walk(root: &Path, rel: &Path, files: &mut Vec<std::path::PathBuf>) {
        let at = root.join(rel);
        let Ok(entries) = std::fs::read_dir(&at) else {
            if at.is_file() {
                files.push(rel.to_path_buf());
            }
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name != "target" {
                walk(root, &rel.join(name), files);
            }
        }
    }
    let mut files = Vec::new();
    for source in SOURCES {
        walk(repo_root, Path::new(source), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes.iter().chain(&[0]) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rel in &files {
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(repo_root.join(rel)).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Stamp {
    pub fn take() -> Stamp {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Stamp {
            commit: commit_of(&root),
            dirty: dirty(&root),
            tree: tree_hash(&root),
            rustc: rustc_version(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: procfs::cpu_model(),
            loadavg_1m: procfs::loadavg_1m(),
        }
    }

    /// The machine was already busy when the run started.
    pub fn loaded(&self) -> bool {
        self.loadavg_1m > 0.5 * self.nproc as f64
    }

    pub fn to_json(&self) -> Json {
        json::obj([
            ("commit", json::string(&self.commit)),
            ("dirty", Json::Bool(self.dirty)),
            ("tree", json::string(&self.tree)),
            ("rustc", json::string(&self.rustc)),
            ("nproc", json::num(self.nproc as f64)),
            ("cpu_model", json::string(&self.cpu_model)),
            ("loadavg_1m", json::num(self.loadavg_1m)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_serialises_and_flags_load() {
        let s = Stamp {
            commit: "abc123".into(),
            dirty: true,
            tree: "00ff".into(),
            rustc: "rustc 1.95.0".into(),
            nproc: 2,
            cpu_model: "Some CPU @ 2.2GHz".into(),
            loadavg_1m: 1.25,
        };
        assert!(s.loaded());
        let back = json::parse(&json::to_string(&s.to_json())).unwrap();
        assert_eq!(json::get_str(&back, "commit"), Ok("abc123"));
        assert_eq!(back.get("dirty"), Some(&Json::Bool(true)));
        assert_eq!(json::get_str(&back, "tree"), Ok("00ff"));
        assert_eq!(json::get_num(&back, "nproc"), Ok(2.0));
        assert_eq!(json::get_num(&back, "loadavg_1m"), Ok(1.25));
        assert!(!Stamp {
            loadavg_1m: 0.9,
            ..s
        }
        .loaded());
    }

    /// A scratch directory inside the package's ignored `out/`.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = crate::runner::out_dir().join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tree_hash_follows_content_and_paths_not_build_outputs() {
        let dir = scratch("tree");
        std::fs::create_dir_all(dir.join("crates/a/src")).unwrap();
        std::fs::write(dir.join("crates/a/src/lib.rs"), "fn a() {}").unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]").unwrap();
        let base = tree_hash(&dir);
        assert_eq!(base.len(), 16);
        assert_eq!(tree_hash(&dir), base);
        // Build outputs and files outside the source list do not count.
        std::fs::create_dir_all(dir.join("crates/a/target")).unwrap();
        std::fs::write(dir.join("crates/a/target/x.o"), "junk").unwrap();
        std::fs::write(dir.join("README.md"), "words").unwrap();
        assert_eq!(tree_hash(&dir), base);
        // An edit, and a move, do.
        std::fs::write(dir.join("crates/a/src/lib.rs"), "fn a() { }").unwrap();
        let edited = tree_hash(&dir);
        assert_ne!(edited, base);
        std::fs::rename(
            dir.join("crates/a/src/lib.rs"),
            dir.join("crates/a/src/b.rs"),
        )
        .unwrap();
        assert_ne!(tree_hash(&dir), edited);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_reads_plain_git_files() {
        let dir = scratch("stamp");
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(commit_of(&dir), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nfeed01 refs/heads/main\n").unwrap();
        assert_eq!(commit_of(&dir), "feed01");
        std::fs::write(git.join("refs/heads/main"), "cafe02\n").unwrap();
        assert_eq!(commit_of(&dir), "cafe02");
        std::fs::write(git.join("HEAD"), "beef03\n").unwrap();
        assert_eq!(commit_of(&dir), "beef03");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
