//! Failure accounting: a shed request is counted once and not retried.

use tag_datagen::{generate_all, Scale};
use tag_lm::sim::SimConfig;
use tag_perfbench::tally::{submit_once, Tally};
use tag_serve::{format_answer, MethodName, Request, Server, ServerConfig};

#[test]
fn queue_full_shed_is_counted_not_retried() {
    // One worker per stage and a one-slot admission queue: a burst of
    // submissions must overflow it.
    let config = ServerConfig {
        workers: 1,
        syn_workers: 1,
        gen_workers: 1,
        stage_capacity: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(
        generate_all(42, Scale::small()),
        SimConfig::default(),
        config,
    );
    let question = "How many schools located in the Bay Area region are there?";
    let burst = 64;
    let mut tally = Tally::default();
    let mut handles = Vec::new();
    for i in 0..burst {
        // Distinct questions so no reply can come from the answer cache.
        let q = format!("{question}{}", " ".repeat(i % 2));
        let method = MethodName::all()[i % 5];
        let req = Request::new("california_schools", method, q);
        if let Some(h) = submit_once(&server, req, &mut tally) {
            handles.push(h);
        }
    }
    assert!(
        tally.queue_full >= 1,
        "burst never filled the queue: {tally:?}"
    );
    assert_eq!(tally.attempted, tally.queue_full, "only refusals so far");
    for h in handles {
        match h.wait() {
            Ok(r) => {
                let a = format_answer(&r.answer);
                tally.answer(&a, &a);
            }
            Err(e) => tally.error(&e),
        }
    }
    assert_eq!(tally.attempted, burst as u64, "each request counted once");
    assert_eq!(tally.failed(), tally.queue_full + tally.deadline);
    assert!(tally.clean(), "sheds are failures, not wrong answers");
    assert!(
        tally.answered_ratio() < 1.0,
        "a shed must lower the answered ratio"
    );
    let admitted = server
        .metrics()
        .requests_admitted
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        admitted + tally.queue_full,
        burst as u64,
        "a shed request must not be resubmitted"
    );
    server.shutdown();
}

#[test]
fn mismatch_and_panic_fail_the_run() {
    let mut t = Tally::default();
    t.answer("LIST\ta", "LIST\ta");
    assert!(t.clean());
    assert_eq!(t.answered_ratio(), 1.0);
    t.answer("LIST\ta", "LIST\tb");
    assert!(!t.clean());
    assert_eq!((t.attempted, t.failed()), (2, 1));
    let mut p = Tally::default();
    p.panic();
    assert!(!p.clean());
    assert_eq!(p.failed(), 1);
}
