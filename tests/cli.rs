//! End-to-end integration tests for the `rtbh` CLI binary.
//!
//! Invokes the built binary via `CARGO_BIN_EXE_rtbh` and pins the exit-code
//! contract scripts rely on: 0 on success, 2 on usage errors and on
//! corrupt/missing corpora (distinct from 1, a crashed pipeline).

use std::path::PathBuf;
use std::process::{Command, Output};

fn rtbh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtbh"))
        .args(args)
        .output()
        .expect("spawn rtbh")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtbh-cli-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2() {
    let dir = scratch_dir("usage");
    let corpus = dir.join("out.rtbh");
    let corpus = corpus.to_str().unwrap();
    for args in [
        &[] as &[&str],
        &["frobnicate"],
        &["simulate", "--bogus-flag", "out.rtbh"],
        &["simulate"], // no output path
        &["info"],     // no corpus path
        &["analyze"],  // no corpus path
        &["analyze", "--threads", "not-a-number", "x.rtbh"],
        // --scale takes only a finite factor above zero.
        &["simulate", "--scale", "0", corpus],
        &["simulate", "--scale", "-1", corpus],
        &["simulate", "--scale", "NaN", corpus],
        &["simulate", "--scale", "inf", corpus],
    ] {
        let out = rtbh(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "args {args:?} should print usage"
        );
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a rejected scale wrote a corpus"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_corpus_exits_2() {
    let out = rtbh(&["info", "/nonexistent/definitely-not-here.rtbh"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to load"), "stderr: {stderr}");
}

/// The whole happy path plus corruption, against one simulated corpus:
/// simulate (exit 0) → info (exit 0, deterministic output) → analyze
/// (exit 0) → corrupted / truncated copies (exit 2, per-file diagnostics).
#[test]
fn simulate_info_analyze_and_corruption() {
    let dir = scratch_dir("flow");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();

    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");
    assert!(corpus.exists());
    assert!(
        dir.join("corpus.truth.json").exists(),
        "simulate must write the ground truth next to the corpus"
    );

    // `info` succeeds and its output is stable across invocations.
    let first = rtbh(&["info", corpus_str]);
    assert_eq!(first.status.code(), Some(0), "info failed: {first:?}");
    let text = String::from_utf8(first.stdout).unwrap();
    for needle in ["period:", "sampling:       1:10000", "digest:         0x"] {
        assert!(
            text.contains(needle),
            "info output missing {needle:?}:\n{text}"
        );
    }
    let second = rtbh(&["info", corpus_str]);
    assert_eq!(second.status.code(), Some(0));
    assert_eq!(
        String::from_utf8(second.stdout).unwrap(),
        text,
        "info output must be deterministic"
    );

    // `analyze` runs the full pipeline and reports headline findings.
    let analyzed = rtbh(&["analyze", corpus_str, "--threads", "2"]);
    assert_eq!(
        analyzed.status.code(),
        Some(0),
        "analyze failed: {analyzed:?}"
    );
    assert!(!analyzed.stdout.is_empty(), "analyze must print a report");

    // Corrupt magic → exit 2 with a load diagnostic naming the file.
    let bytes = std::fs::read(&corpus).unwrap();
    let corrupt = dir.join("corrupt.rtbh");
    let mut damaged = bytes.clone();
    damaged[0] = b'X';
    std::fs::write(&corrupt, &damaged).unwrap();
    let out = rtbh(&["info", corrupt.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "corrupt corpus must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to load") && stderr.contains("corrupt.rtbh"),
        "stderr: {stderr}"
    );

    // Truncated container → exit 2 (for both info and analyze).
    let truncated = dir.join("truncated.rtbh");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(
        rtbh(&["info", truncated.to_str().unwrap()]).status.code(),
        Some(2)
    );
    assert_eq!(
        rtbh(&["analyze", truncated.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The wall time a `--timings` line prints after its label, in ns, and
/// half the unit of its last printed digit (the most rounding can hide).
fn printed_ns(line: &str) -> (f64, f64) {
    let mut words = line.split_whitespace().skip(1);
    let (value, unit) = (words.next().unwrap(), words.next().unwrap());
    let scale = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => panic!("no duration in {line:?}"),
    };
    let decimals = value.split_once('.').map_or(0, |(_, d)| d.len());
    let half_unit = 0.5 * scale / 10f64.powi(decimals as i32);
    (value.parse::<f64>().unwrap() * scale, half_unit)
}

/// `--threads` picks the stage schedule — inline at one worker, scoped
/// threads above — but never the report: both schedules write the same
/// `--json` bytes, and the `--timings` table names the one that ran. The
/// table covers the whole job: a `load:corpus` row opens it, and its last
/// line, `end-to-end`, is at least load + prepare + stage phase.
#[test]
fn analyze_threads_pick_the_schedule_not_the_report() {
    let dir = scratch_dir("schedule");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();
    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");

    let mut reports = Vec::new();
    for (threads, schedule) in [
        ("1", "sequential, 0 worker threads"),
        ("3", "parallel, 2 worker threads"),
    ] {
        let json = dir.join(format!("threads-{threads}.json"));
        // Run in the scratch directory: `--timings` must print, not write
        // a bench file there.
        let out = Command::new(env!("CARGO_BIN_EXE_rtbh"))
            .args(["analyze", corpus_str, "--timings", "--threads", threads])
            .args(["--json", json.to_str().unwrap()])
            .current_dir(&dir)
            .output()
            .expect("spawn rtbh");
        assert_eq!(out.status.code(), Some(0), "--threads {threads}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains(schedule),
            "--threads {threads} must report {schedule:?}:\n{stdout}"
        );
        let line = |label: &str| {
            let at = stdout
                .lines()
                .position(|l| l.split_whitespace().next() == Some(label))
                .unwrap_or_else(|| panic!("no {label:?} line:\n{stdout}"));
            (at, stdout.lines().nth(at).unwrap())
        };
        let (load_at, load) = line("load:corpus");
        assert_eq!(line("prepare:clean").0, load_at + 1, "load opens the table");
        let samples: u64 = load.split_whitespace().nth(5).unwrap().parse().unwrap();
        assert!(
            samples > 0,
            "the load row counts the decoded samples: {load}"
        );
        let (end_at, end_to_end) = line("end-to-end");
        assert_eq!(line("total").0 + 1, end_at, "end-to-end follows total");
        let parts = [load, line("prepare").1, line("total").1].map(printed_ns);
        let (whole, slack) = printed_ns(end_to_end);
        let sum: f64 = parts.iter().map(|p| p.0).sum();
        let rounding: f64 = slack + parts.iter().map(|p| p.1).sum::<f64>();
        assert!(
            whole + rounding >= sum,
            "end-to-end below load + prepare + total:\n{stdout}"
        );
        reports.push(std::fs::read(&json).unwrap());
    }
    assert_eq!(reports[0], reports[1], "--threads moved the report bytes");
    assert!(
        !dir.join("BENCH_pipeline.json").exists(),
        "--timings wrote BENCH_pipeline.json"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `rtbh stream` checks its numeric flags before it loads anything: a
/// negative duration or count is a usage error, not a silently dropped
/// feed or one thread per sample.
#[test]
fn stream_rejects_negative_durations_and_thread_counts() {
    for flags in [
        ["--lateness-ms", "-5"],
        ["--lateness-ms", "-1000"],
        ["--retention-ms", "-1"],
        ["--batch", "-1"],
        ["--threads", "-1"],
    ] {
        let out = rtbh(&["stream", flags[0], flags[1], "/nonexistent/x.rtbh"]);
        assert_eq!(out.status.code(), Some(2), "flags {flags:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "flags {flags:?} should print usage"
        );
    }
}

/// `rtbh stream` opens with the batch report: on one corpus its stdout
/// starts with `rtbh analyze`'s, byte for byte, sample count included.
#[test]
fn stream_prints_the_batch_report_first() {
    let dir = scratch_dir("stream");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();
    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");

    let analyze = rtbh(&["analyze", corpus_str]);
    assert_eq!(
        analyze.status.code(),
        Some(0),
        "analyze failed: {analyze:?}"
    );
    let stream = rtbh(&["stream", corpus_str]);
    assert_eq!(stream.status.code(), Some(0), "stream failed: {stream:?}");
    assert!(
        stream.stdout.starts_with(&analyze.stdout),
        "stream report differs from analyze:\n{}\n---\n{}",
        String::from_utf8_lossy(&stream.stdout),
        String::from_utf8_lossy(&analyze.stdout)
    );

    std::fs::remove_dir_all(&dir).ok();
}
