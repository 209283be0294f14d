//! The METRICS verb's schema: after a fixed frame mix through the
//! in-process serving engine, the JSON keys and the Prometheus series
//! (name plus labels) match checked-in lists. Values are left
//! out — frame timings vary run to run — so the lists pin what is
//! exposed, not what it measured.

use nmbst_server::testing::with_local_engine;
use nmbst_server::wire::{BatchOp, MetricsFormat, Request, Response, OP_METRICS};
use std::collections::BTreeSet;

/// Serves INSERT, GET and BATCH frames, then one METRICS scrape per
/// format (JSON first, so the Prometheus scrape also sees that frame).
fn scrape() -> (String, String) {
    with_local_engine(2, true, |eng| {
        let mut serve = |req: Request| {
            let (mut body, mut out) = (Vec::new(), Vec::new());
            req.encode(&mut body);
            assert!(eng.serve(&body, &mut out));
            out.split_off(4)
        };
        serve(Request::Insert(1, 10));
        serve(Request::Get(1));
        serve(Request::Batch(vec![
            BatchOp::Get(1),
            BatchOp::Insert(2, 20),
            BatchOp::Remove(1),
        ]));
        let mut text = |fmt| match Response::decode(OP_METRICS, &serve(Request::Metrics(fmt))) {
            Ok(Response::Metrics(text)) => text,
            other => panic!("METRICS reply: {other:?}"),
        };
        (text(MetricsFormat::Json), text(MetricsFormat::Prometheus))
    })
}

fn lines(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().map(|s| s + "\n").collect()
}

/// The payload has no string values, so every quoted token is a key.
#[test]
fn metrics_json_keys_match_checked_in_schema() {
    let json = scrape().0;
    let keys: BTreeSet<String> = json
        .split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect();
    assert_eq!(lines(keys), include_str!("golden/metrics_json_keys.txt"));
}

/// Histogram `_bucket` lines are left out: they repeat each series once
/// per `le` bound, and the series' `_count` line names its label set.
#[test]
fn metrics_prometheus_series_match_checked_in_schema() {
    let prom = scrape().1;
    nmbst::obs::validate_prometheus(&prom).unwrap();
    let series: BTreeSet<String> = prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("le=\""))
        .map(|l| l.rsplit_once(' ').unwrap().0.to_string())
        .collect();
    assert_eq!(lines(series), include_str!("golden/metrics_series.txt"));
}
