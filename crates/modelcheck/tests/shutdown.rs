//! Regression test for the shutdown of an exploration: the explorer must
//! wake every worker thread when it stops, or the scoped join hangs.

use std::sync::mpsc;
use std::time::Duration;

use modelcheck::suite::{raw_lock_scenario, ModelTas};
use modelcheck::{explore, Config};

/// Explorations to run; a lost wake-up showed in about 1 in 100.
const RUNS: usize = 400;

/// Per exploration; each takes a few milliseconds.
const WATCHDOG: Duration = Duration::from_secs(30);

#[test]
fn repeated_explorations_always_shut_down() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        for run in 0..RUNS {
            let mut cfg = Config::smoke(format!("shutdown-{run}"));
            cfg.max_schedules = 8;
            cfg.trace_dir = None;
            explore(&cfg, &raw_lock_scenario::<ModelTas>("tas", 2, 1)).assert_ok();
            done.send(run).expect("the test is waiting");
        }
    });
    for expected in 0..RUNS {
        match finished.recv_timeout(WATCHDOG) {
            Ok(run) => assert_eq!(run, expected),
            Err(_) => panic!("exploration {expected} of {RUNS} did not shut down"),
        }
    }
}
