//! `pipeline_bench`'s command line: the names select the records written,
//! every record opens with the fields `pipeline_bench` writes for all of
//! them, and any other argument is a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rtbh_json::Json;

fn pipeline_bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pipeline_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn pipeline_bench")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rtbh-pipeline-bench-test-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn one_name_writes_one_record_that_opens_with_the_shared_fields() {
    let dir = scratch_dir("index");
    let out = pipeline_bench(&dir, &["--tiny", "--reps", "1", "index"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(files_in(&dir), ["BENCH_index.json"]);

    let bytes = std::fs::read(dir.join("BENCH_index.json")).unwrap();
    let record: Json = rtbh_json::from_slice(&bytes).unwrap();
    let fields = record.expect_obj("BENCH_index.json").unwrap();
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys[..3], ["scenario", "samples", "reps"]);
    assert!(matches!(fields[0].1, Json::Obj(_)), "{:?}", fields[0].1);
    assert_eq!(fields[1].1, Json::U64(33_994));
    assert_eq!(fields[2].1, Json::U64(1));
    for shared in ["scenario", "samples", "reps"] {
        assert_eq!(keys.iter().filter(|k| **k == shared).count(), 1, "{keys:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_names_and_removed_flags_exit_2_with_the_usage() {
    let dir = scratch_dir("usage");
    let removed = [
        "--out",
        "--index-out",
        "--flows-out",
        "--filters-out",
        "--serve-out",
        "--stream-out",
        "--no-index",
        "--no-flows",
        "--filters",
        "--serve",
        "--stream",
        "--flows-floor",
        "--filters-floor",
        "--serve-floor",
        "--stream-floor",
    ];
    let mut cases: Vec<Vec<&str>> = removed
        .into_iter()
        .chain(["bogus", "BENCH_index.json"])
        .map(|arg| vec!["--tiny", arg])
        .collect();
    // --scale takes only a finite factor above zero.
    cases.extend(["0", "-1", "NaN", "inf"].map(|f| vec!["--scale", f, "index"]));
    for args in cases {
        let out = pipeline_bench(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: pipeline_bench"),
            "{args:?}: {out:?}"
        );
    }
    assert!(files_in(&dir).is_empty(), "a usage error wrote files");

    std::fs::remove_dir_all(&dir).ok();
}
