//! The `figures` command line refuses what it does not understand: an
//! unknown flag, or a numeric flag whose value does not parse, exits 2
//! with the list of valid flags instead of running with defaults.

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
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(
            stderr.contains("valid flags: --quick"),
            "{args:?}: {stderr}"
        );
    }
    let ok = figures(&["list", "--seeds", "2", "--jobs", "1"]);
    assert_eq!(ok.status.code(), Some(0));
}
