//! `rtbhd` — the long-running analysis server over a loaded corpus.
//!
//! ```text
//! rtbhd <corpus.rtbh> [--listen ADDR] [--threads N] [--cache N]
//! ```
//!
//! Loads the corpus once, runs the prepare kernels and the batch report
//! (`Analyzer::full`), then serves concurrent queries — report sections,
//! event-window aggregates, per-prefix drop provenance — over the
//! length-prefixed binary protocol of `rtbh_core::serve` until told to
//! stop. Each open connection gets its own thread (up to
//! `serve::MAX_CONNECTIONS`); `--threads N` sets the prepare workers and
//! bounds the queries computed at once (`0` = one per core).
//! `--listen 127.0.0.1:0` binds an ephemeral port; the bound address is
//! printed to stdout as `listening on ADDR` so callers (and the e2e
//! suite) can discover it.
//!
//! Exit codes follow the CLI contract: `2` for usage errors, corrupt
//! corpora and unbindable addresses; `0` after a graceful shutdown
//! (`Shutdown` request, SIGTERM or SIGINT), which first answers the
//! queries already received, dropping a peer that does not take its
//! reply within `serve::PEER_DEADLINE`.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rtbh::core::pipeline::AnalyzerConfig;
use rtbh::core::serve::{ServeOptions, ServeState, Server};
use rtbh::core::Analyzer;

fn usage() -> ! {
    eprintln!("usage:\n  rtbhd <corpus.rtbh> [--listen ADDR] [--threads N] [--cache N]");
    std::process::exit(2);
}

/// Set by the SIGTERM/SIGINT handler; a watcher thread polls it and stops
/// the server (the handler itself must stay async-signal-safe, so it only
/// does this one atomic store).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use std::sync::atomic::Ordering;

    // The one unsafe corner of the workspace, confined to this binary:
    // std exposes no way to catch SIGTERM, and the hermetic dependency
    // policy rules out a signal crate. `signal(2)` is part of the libc
    // std already links against.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        super::SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to the `SIGNALLED` flag.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal routing off unix; the `Shutdown` request still works.
    pub fn install() {}
}

fn main() {
    let mut corpus_path: Option<String> = None;
    let mut listen = String::from("127.0.0.1:8484");
    let mut threads: usize = 0;
    let mut cache = ServeState::DEFAULT_CACHE_CAPACITY;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = it.next().unwrap_or_else(|| usage()),
            "--threads" => {
                threads = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--cache" => {
                cache = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            p if !p.starts_with('-') => corpus_path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(corpus_path) = corpus_path else {
        usage()
    };

    let corpus = rtbh::corpus_io::load(std::path::Path::new(&corpus_path)).unwrap_or_else(|e| {
        eprintln!("failed to load {corpus_path}: {e}");
        // Exit 2 (usage/input error), matching the `rtbh` CLI contract:
        // a corrupt corpus is the operator's problem, not a server crash.
        std::process::exit(2);
    });
    eprintln!(
        "loaded {corpus_path} ({} updates, {} samples); preparing...",
        corpus.updates.len(),
        corpus.flows.len()
    );
    let config = AnalyzerConfig::for_corpus(&corpus).with_workers(threads);
    let state = std::sync::Arc::new(ServeState::with_cache_capacity(
        Analyzer::new(corpus, config),
        cache,
    ));

    let options = ServeOptions { workers: threads };
    let server = Server::bind(&listen, state, options).unwrap_or_else(|e| {
        eprintln!("failed to bind {listen}: {e}");
        std::process::exit(2);
    });
    let addr = server.local_addr().unwrap_or_else(|e| {
        eprintln!("failed to resolve bound address: {e}");
        std::process::exit(2);
    });

    sig::install();
    let stopper = server.stopper();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            stopper.stop();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });

    // The discovery line the e2e suite and scripts parse; flush so it is
    // visible even through a pipe before the first query arrives.
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();

    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    eprintln!("drained; bye");
}
