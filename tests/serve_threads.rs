//! Thread hygiene for the serving layer: a session leaves no auxiliary
//! threads behind. Shutdown is event-driven (linked cancel tokens checked
//! on the session's own read probes) and every session thread is scoped,
//! so after `serve` or `serve_connections` returns, the process is back to
//! its baseline thread count — no watcher, no poller, nothing detached.
//!
//! This file holds a single `#[test]` on purpose: the assertion reads the
//! whole process's thread count from `/proc/self/status`, so it must not
//! share its process with concurrently running tests.

#![cfg(target_os = "linux")]

use delinearization::dep::budget::{BudgetSpec, CancelToken};
use delinearization::vic::batch::{BatchConfig, RetryPolicy};
use delinearization::vic::serve::multi::MultiConfig;
use delinearization::vic::serve::{serve, ServeConfig};
use std::io::Cursor;
use std::time::{Duration, Instant};

#[path = "util/serve_io.rs"]
mod serve_io;
use serve_io::{analyze_request, MultiHarness, RECURRENCE};

fn config() -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            workers: 4,
            budget: BudgetSpec::nodes_only(10_000),
            retry: RetryPolicy { max_retries: 0, escalation: 1 },
            ..BatchConfig::default()
        },
        max_in_flight: 8,
        max_request_bytes: 4096,
        idle_timeout_ms: None,
    }
}

/// The kernel's count of live tasks in this process.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Joined threads can linger in the kernel's accounting for a moment;
/// poll briefly before declaring a leak.
fn settles_to(baseline: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if thread_count() <= baseline {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn no_auxiliary_threads_survive_session_end() {
    let baseline = thread_count();

    // A full single-connection session: workers spin up, requests flow,
    // shutdown is requested mid-stream.
    let script = format!("{}\n{{\"shutdown\":true}}\n", analyze_request("a", RECURRENCE));
    let mut out: Vec<u8> = Vec::new();
    let summary = serve(Cursor::new(script.into_bytes()), &mut out, &config(), &CancelToken::new());
    assert_eq!(summary.completed, 1);
    assert!(
        settles_to(baseline),
        "serve leaked threads: baseline {baseline}, now {}",
        thread_count()
    );

    // A multi-connection daemon: pool + per-connection reader/writer
    // threads, ended by cancelling the daemon token (the SIGINT path).
    let multi = MultiConfig { serve: config(), max_connections: 4, conn_quota: 4 };
    let mut harness = MultiHarness::spawn(multi);
    let mut clients: Vec<_> = (0..3).map(|_| harness.connect()).collect();
    for (i, client) in clients.iter().enumerate() {
        client.send(&analyze_request(&format!("c{i}"), RECURRENCE));
        client.recv();
    }
    harness.shutdown.cancel();
    for client in &mut clients {
        client.close_input();
    }
    let summary = harness.close();
    assert_eq!(summary.completed, 3);
    assert!(
        settles_to(baseline),
        "serve_connections leaked threads: baseline {baseline}, now {}",
        thread_count()
    );
}
