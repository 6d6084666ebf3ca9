//! The `figures` command line refuses what it does not understand: an
//! unknown flag, or a numeric flag whose value does not parse, exits 2
//! with the list of valid flags instead of running with defaults. The
//! engine flags reach every point of a `figures run` scenario, and a
//! figure alias prints what `figures run` prints for its file.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

#[test]
fn bad_flags_exit_2_listing_the_valid_ones() {
    for (args, why) in [
        (
            &["list", "--intra-jobs", "2"][..],
            "unknown flag '--intra-jobs'",
        ),
        (&["list", "--seeds", "two"][..], "--seeds expects a number"),
        (&["list", "--jobs", "many"][..], "--jobs expects a number"),
        (&["list", "--seeds"][..], "--seeds needs a value"),
        (&["list", "--quick"][..], "unknown flag '--quick'"),
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(
            stderr.contains("valid flags: --exact"),
            "{args:?}: {stderr}"
        );
    }
    let ok = figures(&["list", "--seeds", "2", "--jobs", "1"]);
    assert_eq!(ok.status.code(), Some(0));
}

/// stdout of `figures run --jobs 1` on a tiny two-point scenario with
/// `extra` lines in its `[engine]` section, plus `flags`.
fn run_tiny(tag: &str, extra: &str, flags: &[&str]) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("dclue_cli_{}_{tag}.dcs", std::process::id()));
    let src = format!(
        "scenario = tiny\n[engine]\nwarmup = 1s\nmeasure = 2s\n{extra}\n[topology]\n\
         nodes = [2, 3]\n[workload]\nclients_per_node = 10\nthink_time = 1s\n"
    );
    std::fs::write(&path, src).unwrap();
    let out = figures(&[&["run", path.to_str().unwrap(), "--jobs", "1"], flags].concat());
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    out.stdout
}

#[test]
fn run_applies_exact_and_client_model_to_every_point() {
    let via_flags = run_tiny(
        "flags",
        "exact = false",
        &["--exact", "--client-model", "aggregate"],
    );
    // client_model lives in [workload]; the flag must match the file.
    let aggregate = "exact = true\n[workload]\nclient_model = aggregate";
    assert_eq!(via_flags, run_tiny("agg", aggregate, &[]));
    assert_ne!(via_flags, run_tiny("plain", "exact = false", &[]));
}

#[test]
fn alias_prints_what_run_prints_for_its_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/baseline.dcs"
    );
    let alias = figures(&["baseline", "--jobs", "1"]);
    assert_eq!(alias.status.code(), Some(0));
    assert_eq!(alias.stdout, figures(&["run", path, "--jobs", "1"]).stdout);
    assert!(alias
        .stdout
        .starts_with("# scenario: baseline — ".as_bytes()));
}
