//! `tensorlib parse` run as a process: malformed input ends in the usual
//! `error: …` line and exit status 1, never an abort.

use std::process::Command;

/// 200,000 nested arrays, far deeper than the reader's nesting cap and than
/// any recursive parser's stack, fail with a positioned error.
#[test]
fn deeply_nested_yosys_json_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("tl_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tensorlib"))
        .args(["parse", path.to_str().unwrap(), "--format", "yosys-json"])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "nesting deeper than {} levels at byte {}",
            serde::MAX_DEPTH,
            serde::MAX_DEPTH
        )),
        "{stderr}"
    );
}
