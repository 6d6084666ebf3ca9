//! `update_experiments` against the committed files: the committed
//! capture regenerates the committed EXPERIMENTS.md byte for byte, and
//! a capture that lost a figure section is refused loudly.

use std::process::Command;

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Run the tool on copies of `capture` and the committed document in a
/// scratch directory; returns (success, stderr, document afterwards).
fn refresh(tag: &str, capture: &str) -> (bool, String, String) {
    let dir = std::env::temp_dir().join(format!("dclue_upd_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (fig, exp) = (dir.join("figures_output.txt"), dir.join("EXPERIMENTS.md"));
    std::fs::write(&fig, capture).unwrap();
    std::fs::write(&exp, repo_file("EXPERIMENTS.md")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_update_experiments"))
        .args([&fig, &exp])
        .output()
        .expect("spawn update_experiments");
    let doc = std::fs::read_to_string(&exp).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr, doc)
}

#[test]
fn committed_capture_regenerates_the_committed_document() {
    let (ok, stderr, doc) = refresh("same", &repo_file("figures_output.txt"));
    assert!(ok, "{stderr}");
    assert!(doc == repo_file("EXPERIMENTS.md"), "EXPERIMENTS.md changed");
}

#[test]
fn capture_without_the_fig6_section_is_refused() {
    let capture = repo_file("figures_output.txt");
    let start = capture.find("# scenario: fig6 ").expect("fig6 section");
    let len = capture[start + 1..]
        .find("\n# ")
        .expect("a section follows")
        + 2;
    let cut = format!("{}{}", &capture[..start], &capture[start + len..]);
    let (ok, stderr, doc) = refresh("nofig6", &cut);
    assert!(!ok, "a capture without fig6 was accepted");
    assert!(stderr.contains("# scenario: fig6"), "{stderr}");
    assert!(
        doc == repo_file("EXPERIMENTS.md"),
        "written despite the error"
    );
}
