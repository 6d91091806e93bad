//! End-to-end tests for the `rtbhd` daemon.
//!
//! Spawns the real binary via `CARGO_BIN_EXE_rtbhd` on an ephemeral port
//! (discovered from its `listening on ADDR` stdout line) and pins the
//! operational contract: concurrent clients get answers byte-identical
//! to the batch report, malformed frames get error replies without
//! killing the daemon, SIGTERM and the `Shutdown` request both drain to
//! exit 0 (within a bound, even past a client that never reads), and
//! corrupt corpora / unbindable addresses exit 2 (the CLI exit-code
//! contract) instead of panicking.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtbh::core::pipeline::AnalyzerConfig;
use rtbh::core::serve::{
    section_json, Client, Request, Response, Section, ERR_MALFORMED, PEER_DEADLINE,
};
use rtbh::core::Analyzer;
use rtbh::net::frame;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtbhd-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulates a tiny corpus, writes it to disk, and returns the path plus
/// the batch report's serialized sections (the byte-for-byte oracle) —
/// computed from a corpus *loaded back from the same file* the daemon
/// will load.
fn corpus_and_oracle(dir: &std::path::Path) -> (PathBuf, Arc<rtbh::core::pipeline::FullReport>) {
    let path = dir.join("corpus.rtbh");
    let out = rtbh::sim::run(&rtbh::sim::ScenarioConfig::tiny());
    rtbh::corpus_io::save(&out.corpus, &path).expect("write corpus");
    let corpus = rtbh::corpus_io::load(&path).expect("reload corpus");
    let config = AnalyzerConfig::for_corpus(&corpus);
    let analyzer = Analyzer::new(corpus, config);
    (path, Arc::new(analyzer.full()))
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `rtbhd` on an ephemeral port and parses the discovery line.
    fn spawn(corpus: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rtbhd"))
            .arg(corpus)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rtbhd");
        let stdout = child.stdout.take().expect("rtbhd stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read discovery line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected discovery line {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to rtbhd")
    }

    /// Sends `SIGTERM` (std can only send SIGKILL, so shell out).
    fn sigterm(&self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    fn wait_exit_code(mut self) -> i32 {
        self.child
            .wait()
            .expect("wait rtbhd")
            .code()
            .expect("rtbhd signalled")
    }

    /// The exit code, or `None` if the daemon is still running after
    /// `limit` (it is then killed on drop).
    fn exit_code_within(&mut self, limit: Duration) -> Option<i32> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().expect("poll rtbhd") {
                return status.code();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One daemon, the full client contract: concurrent clients byte-identical
/// to the batch report, hostile frames answered with clean errors without
/// killing the daemon or the connection, and a `Shutdown` request draining
/// to exit 0.
#[test]
fn concurrent_clients_match_batch_report_and_shutdown_drains() {
    let dir = scratch_dir("contract");
    let (corpus, report) = corpus_and_oracle(&dir);
    let daemon = Daemon::spawn(&corpus, &["--threads", "2"]);

    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for worker in 0..4usize {
            let report = Arc::clone(&report);
            let daemon = &daemon;
            joins.push(s.spawn(move || {
                let mut client = daemon.client();
                // Different clients hammer different sections concurrently;
                // every reply must equal the batch serialization.
                for lap in 0..3 {
                    for (i, &section) in Section::ALL.iter().enumerate() {
                        if (i + worker + lap) % 2 == 0 {
                            continue;
                        }
                        match client.request(&Request::Report(section)).expect("request") {
                            Response::Ok(body) => {
                                assert_eq!(
                                    body,
                                    section_json(&report, section),
                                    "client {worker} lap {lap}: section {section:?} diverged"
                                );
                            }
                            other => panic!("section {section:?} errored: {other:?}"),
                        }
                    }
                }
                // A malformed frame mid-connection gets an error reply...
                match client.request_raw(&[0xEE; 9]).expect("hostile frame") {
                    Response::Err { code, .. } => assert_eq!(code, ERR_MALFORMED),
                    other => panic!("hostile frame got {other:?}"),
                }
                // ...and the same connection keeps serving afterwards.
                assert!(matches!(
                    client.request(&Request::Ping).expect("ping after hostile"),
                    Response::Ok(_)
                ));
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });

    // The daemon survived all of that; now drain via the protocol.
    let mut client = daemon.client();
    assert!(matches!(
        client
            .request(&Request::Shutdown)
            .expect("shutdown request"),
        Response::Ok(_)
    ));
    assert_eq!(daemon.wait_exit_code(), 0, "graceful drain must exit 0");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM with a live, idle client connection open: the daemon drains
/// and exits 0 (no panic, no hang on the idle connection).
#[test]
fn sigterm_drains_idle_connections_to_exit_0() {
    let dir = scratch_dir("sigterm");
    let (corpus, _) = corpus_and_oracle(&dir);
    let daemon = Daemon::spawn(&corpus, &[]);

    let mut client = daemon.client();
    assert!(matches!(
        client.request(&Request::Info).expect("info"),
        Response::Ok(_)
    ));
    // Leave the connection open and idle, then signal.
    daemon.sigterm();
    assert_eq!(daemon.wait_exit_code(), 0, "SIGTERM drain must exit 0");
    // The drained server is gone: the idle connection no longer answers.
    assert!(client.request(&Request::Ping).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that pipelines 40 `report full` requests and never reads
/// cannot keep the daemon alive after SIGTERM: the reply it does not take
/// is dropped after `PEER_DEADLINE`, and the daemon exits 0.
#[test]
fn sigterm_drains_past_a_client_that_never_reads() {
    let dir = scratch_dir("stalled");
    let (corpus, _) = corpus_and_oracle(&dir);
    let mut daemon = Daemon::spawn(&corpus, &[]);

    let mut stalled = TcpStream::connect(&daemon.addr).expect("connect");
    let request = Request::Report(Section::Full).encode();
    for _ in 0..40 {
        frame::write_frame(&mut stalled, &request).expect("pipeline a request");
    }
    // The daemon is replying: reply bytes wait unread (peek takes none).
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let peeked = stalled.peek(&mut [0u8; 1]);
    assert!(matches!(peeked, Ok(1)), "no reply started: {peeked:?}");

    daemon.sigterm();
    let code = daemon.exit_code_within(PEER_DEADLINE + Duration::from_secs(3));
    assert_eq!(
        code,
        Some(0),
        "SIGTERM past a stalled client must exit 0 in time"
    );
    drop(stalled);
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt corpora and unbindable addresses are operator errors: exit 2
/// with a diagnostic, never a panic (the PR 3 CLI exit-code contract).
#[test]
fn corrupt_corpus_and_unbindable_address_exit_2() {
    let dir = scratch_dir("exit2");

    // Usage errors.
    let out = Command::new(env!("CARGO_BIN_EXE_rtbhd"))
        .output()
        .expect("spawn rtbhd");
    assert_eq!(out.status.code(), Some(2), "no corpus must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    // Corrupt corpus.
    let corrupt = dir.join("corrupt.rtbh");
    std::fs::write(&corrupt, b"not a corpus at all").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rtbhd"))
        .arg(&corrupt)
        .output()
        .expect("spawn rtbhd");
    assert_eq!(out.status.code(), Some(2), "corrupt corpus must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("failed to load"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unbindable address: occupy an ephemeral port first, then ask the
    // daemon to bind the same one.
    let (corpus, _) = corpus_and_oracle(&dir);
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = blocker.local_addr().unwrap().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_rtbhd"))
        .arg(&corpus)
        .args(["--listen", &taken])
        .output()
        .expect("spawn rtbhd");
    assert_eq!(out.status.code(), Some(2), "occupied port must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("failed to bind"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `rtbh query` subcommand against a live daemon: prints the report
/// JSON (byte-identical modulo the trailing newline), errors exit 1.
#[test]
fn rtbh_query_cli_round_trip() {
    let dir = scratch_dir("query-cli");
    let (corpus, report) = corpus_and_oracle(&dir);
    let daemon = Daemon::spawn(&corpus, &[]);

    let out = Command::new(env!("CARGO_BIN_EXE_rtbh"))
        .args(["query", &daemon.addr, "report", "headline"])
        .output()
        .expect("spawn rtbh query");
    assert_eq!(out.status.code(), Some(0), "query failed: {out:?}");
    let mut expected = section_json(&report, Section::Headline);
    expected.push(b'\n');
    assert_eq!(out.stdout, expected, "query output must be the batch bytes");

    // Unknown section: exit 2 (usage); dead server: exit 1.
    let out = Command::new(env!("CARGO_BIN_EXE_rtbh"))
        .args(["query", &daemon.addr, "report", "bogus"])
        .output()
        .expect("spawn rtbh query");
    assert_eq!(out.status.code(), Some(2));

    let mut shutdown = daemon.client();
    let _ = shutdown.request(&Request::Shutdown);
    assert_eq!(daemon.wait_exit_code(), 0);

    let out = Command::new(env!("CARGO_BIN_EXE_rtbh"))
        .args(["query", "127.0.0.1:1", "ping"])
        .output()
        .expect("spawn rtbh query");
    assert_eq!(out.status.code(), Some(1), "dead server must exit 1");
    std::fs::remove_dir_all(&dir).ok();
}
