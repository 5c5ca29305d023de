//! Report writes run as a process: a report that cannot be written ends in
//! the usual `error: writing …` line and exit status 1, and a journaled
//! campaign whose report was lost that way finishes on a re-run from its
//! journal.

use std::path::Path;
use std::process::{Command, Output};

fn tensorlib(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tensorlib"))
        .args(args.split(' '))
        .current_dir(dir)
        .output()
        .unwrap()
}

/// The report without its provenance, whose timings and journal block
/// depend on the run.
fn without_provenance(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let (_, rest) = text
        .split_once("\n  \"config\"")
        .expect("a campaign report");
    rest.to_string()
}

#[test]
fn full_disk_is_a_typed_error_and_the_journal_replays() {
    if !Path::new("/dev/full").exists() {
        eprintln!("skipped: no /dev/full");
        return;
    }
    let dir = std::env::temp_dir().join(format!("tl_cli_full_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let faults = "faults --faults 300 --lanes 8 --seed 5";
    for args in [
        format!("{faults} --resume journal -o /dev/full"),
        "stats gemm:4,4,4 MNK-SST --rows 4 --cols 4 -o /dev/full".to_string(),
    ] {
        let out = tensorlib(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.starts_with("error: writing /dev/full: No space left on device"),
            "{args}: {stderr}"
        );
    }
    // Every chunk was journaled before the report write failed: the re-run
    // replays them all and writes the report an unjournaled run writes.
    let out = tensorlib(&dir, &format!("{faults} --resume journal -o replayed.json"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replayed = std::fs::read_to_string(dir.join("replayed.json")).unwrap();
    assert!(replayed.contains("\"chunks_executed\": 0"), "{replayed}");
    let out = tensorlib(&dir, &format!("{faults} -o plain.json"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        without_provenance(&dir.join("replayed.json"))
            == without_provenance(&dir.join("plain.json")),
        "the replayed report differs from the unjournaled run's"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
