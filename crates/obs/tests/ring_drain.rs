//! Writers drain their own span rings: recording any number of spans
//! without a scrape in between loses none of them, and neither does a
//! scrape loop running against several writers at once.

use etude_obs::{Recorder, Stage};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const STAGES: [Stage; 4] = [Stage::Parse, Stage::Inference, Stage::TopK, Stage::Total];

#[test]
fn a_million_spans_without_a_scrape_lose_none() {
    let recorder = Recorder::new();
    for i in 0..1_000_000u64 {
        recorder.record(i, STAGES[(i % 4) as usize], 1_000 + i % 5_000);
    }
    let snap = recorder.snapshot();
    assert_eq!(snap.dropped, 0);
    for stage in STAGES {
        assert_eq!(
            snap.stage(stage.name()).unwrap().count,
            250_000,
            "{stage:?}"
        );
    }
    assert_eq!(snap.requests, 250_000);
}

#[test]
fn writers_racing_a_scrape_loop_lose_none() {
    const WRITERS: u64 = 4;
    const SPANS: u64 = 200_000;
    let recorder = Arc::new(Recorder::new());
    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let (recorder, done) = (Arc::clone(&recorder), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !done.load(Ordering::Relaxed) {
                assert_eq!(recorder.snapshot().dropped, 0);
                scrapes += 1;
            }
            scrapes
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let recorder = Arc::clone(&recorder);
            std::thread::spawn(move || {
                for i in 0..SPANS {
                    recorder.record(t * SPANS + i, STAGES[(i % 4) as usize], 1_000);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    assert!(scraper.join().unwrap() > 0, "the scraper ran");
    let snap = recorder.snapshot();
    assert_eq!(snap.dropped, 0);
    let counted: u64 = snap.stages.iter().map(|s| s.count).sum();
    assert_eq!(counted, WRITERS * SPANS);
}
