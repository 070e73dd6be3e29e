//! `probe` rejects bad input with a message, the usage text and exit 2 — it
//! used to run OSU-IB for an unknown system name, 1024 nodes for an
//! unparsable count and a zero-byte job for a NaN or negative size, and
//! panic on a malformed flag value or a zero count.

fn probe(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .output()
        .expect("spawn probe");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_is_a_usage_error() {
    for (args, complaint) in [
        (&["one", "4", "hadoopa"][..], "bad system: \"hadoopa\""),
        (&["one", "nan"][..], "bad gb: \"nan\""),
        (&["one", "-2"][..], "bad gb: \"-2\""),
        (&["one", "4", "osu", "0"][..], "bad nodes: \"0\""),
        (&["one", "4", "osu", "4", "0"][..], "bad disks: \"0\""),
        (&["grid", "4", "0"][..], "bad nodes: \"0\""),
        (&["scale", "0"][..], "bad nodes: \"0\""),
        (&["chaos", "0"][..], "bad nodes: \"0\""),
        (&["obs", "4", "0"][..], "bad nodes: \"0\""),
        (&["service", "8", "0"][..], "bad jobs: \"0\""),
        (&["scale", "25x", "8", "75"][..], "bad nodes: \"25x\""),
        (
            &["scale", "16", "2", "1", "--budget-s", "abc"][..],
            "bad value for --budget-s: \"abc\"",
        ),
        (&["chaos", "--plan", "3"][..], "unknown flag --plan"),
        (
            &["grid", "2", "4", "1", "wordcount"][..],
            "bad bench: \"wordcount\"",
        ),
        (
            &["obs", "4", "8", "0.25", "out", "91", "extra"][..],
            "unexpected argument \"extra\"",
        ),
        (&["frobnicate"][..], "unknown subcommand \"frobnicate\""),
    ] {
        let (code, stderr) = probe(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: probe"), "{args:?}: {stderr}");
    }
}

/// An artifact directory that cannot be created (a file stands where a
/// directory is needed) is an error line naming the path and the OS error,
/// exit 2, before anything is simulated — it used to be an `expect` panic
/// after the runs.
#[test]
fn an_unwritable_artifact_path_is_an_error_not_a_panic() {
    let file = std::env::temp_dir().join(format!("probe-cli-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("scratch file");
    let under_file = format!("{}/artifacts", file.display());
    for args in [
        &["service", "4", "2", "1", "--hist-dir", &under_file][..],
        &["obs", "1", "2", "0.01", &under_file][..],
    ] {
        let (code, stderr) = probe(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let complaint = format!("probe: cannot create directory {under_file}: ");
        assert!(stderr.contains(&complaint), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&file).expect("scratch file removed");
}

#[test]
fn a_run_past_rmr_limit_reports_and_exits_2() {
    // 4 GB on 4 nodes finishes near 75 sim-seconds; stop it at 30.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(["one", "4", "osu", "4", "1"])
        .env("RMR_LIMIT", "30")
        .output()
        .expect("spawn probe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("experiment-driver hung: limit 30"),
        "{stderr}"
    );
    assert!(
        stderr.contains("- experiment-driver (blocked on"),
        "{stderr}"
    );
}
