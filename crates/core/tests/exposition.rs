//! The exposition schema of [`MetricsSnapshot`]: a hand-built snapshot
//! with a distinct value in every field renders to checked-in JSON,
//! Prometheus and `Display` output byte for byte, so any change to a
//! metric's name, order, help text or value shows up as a diff of the
//! expected files under `tests/golden/`. A second test walks the
//! declaring table itself, [`METRIC_ROWS`].

use nmbst::obs::{render_prometheus, validate_prometheus, Kind, Merge, MetricsSnapshot};
use nmbst::obs::{ServeGauges, SlowOp, Value, METRIC_ROWS};
use nmbst::PoolStats;
use nmbst_reclaim::ReclaimGauges;
use std::collections::HashSet;

/// A snapshot whose every field holds a value no other field holds,
/// all offset by `base`: every depth bucket, latency samples in four of
/// the five op classes, and two slow ops.
fn distinct_snapshot(base: u64) -> MetricsSnapshot {
    let mut next = base;
    let mut n = move || {
        next += 1;
        next
    };
    let mut m = MetricsSnapshot {
        searches: n(),
        inserts: n(),
        inserted: n(),
        removes: n(),
        removed: n(),
        helps: n(),
        finger_hits: n(),
        finger_misses: n(),
        run_riders: n(),
        size_estimate: -(n() as i64),
        max_depth: n(),
        depth_hist: std::array::from_fn(|_| n()),
        depth_sum: n(),
        reclaim: ReclaimGauges {
            epoch: n(),
            epoch_lag: n(),
            pinned_threads: n(),
            retired_backlog: n(),
        },
        pool: PoolStats {
            hits: n(),
            misses: n(),
            recycled: n(),
            dropped: n(),
            len: n(),
            live: n(),
            segments: n(),
        },
        serve: ServeGauges {
            open_connections: n(),
            read_paused_connections: n(),
            write_buffered_bytes: n(),
            backpressure_events: n(),
        },
        ..MetricsSnapshot::default()
    };
    m.latency.get.record(n() * 100);
    m.latency.get.record(n() * 1_000);
    m.latency.insert.record(n() * 10_000);
    m.latency.remove.record(n() * 100_000);
    m.latency.batch.record(n() * 1_000_000);
    // Two slow ops, slowest first: the order a merge leaves them in.
    let slow = |ns| SlowOp {
        ns,
        ..SlowOp::default()
    };
    m.slow_ops = vec![slow(base + 2_000_000), slow(base + 1_000_000)];
    m
}

#[test]
fn exposition_matches_checked_in_schema() {
    let m = distinct_snapshot(0);
    let (json, prom, line) = (m.to_json(), m.to_prometheus(), m.to_string());
    assert_eq!(json, include_str!("golden/snapshot.json").trim_end());
    assert_eq!(prom, include_str!("golden/snapshot.prom"));
    assert_eq!(line, include_str!("golden/snapshot.txt").trim_end());
    validate_prometheus(&prom).unwrap();
}

/// Every row has a unique JSON key and Prometheus name, a counter's name
/// ends in `_total`, every row shows up in all three renderings (a
/// Prometheus row as its `# TYPE` line followed by a sample), and every
/// sample of a merged snapshot is the sum or max of the two inputs' per
/// the row's rule — in both merge orders.
#[test]
fn every_row_is_exposed_everywhere_and_merges_by_its_rule() {
    let keys: HashSet<_> = METRIC_ROWS.iter().map(|r| r.key).collect();
    let names: HashSet<_> = METRIC_ROWS.iter().map(|r| r.prom).collect();
    assert_eq!(keys.len(), METRIC_ROWS.len(), "duplicate JSON key");
    assert_eq!(names.len(), METRIC_ROWS.len(), "duplicate Prometheus name");
    let (a, b) = (distinct_snapshot(0), distinct_snapshot(1_000));
    let mut lone = MetricsSnapshot::default();
    lone.merge(&a);
    assert_eq!(lone, a, "a field without a row is lost by merge");
    let (json, prom, line) = (a.to_json(), a.to_prometheus(), a.to_string());
    for row in METRIC_ROWS {
        let (key, name) = (row.key, row.prom);
        let counter = row.kind == Kind::Counter;
        assert!(!counter || name.ends_with("_total"), "counter {name}");
        assert!(json.contains(&format!("\"{key}\":")), "JSON lacks {key}");
        let typed = format!("# TYPE {name} {}\n{name}", row.kind.name());
        assert!(prom.contains(&typed), "Prometheus lacks {name}");
        let shown = match &row.value {
            Value::Family(family) => (family.show)(&a),
            _ => format!("{key}="),
        };
        assert!(line.contains(&shown), "Display lacks {key}");
        let samples = |m: &MetricsSnapshot| {
            let out = render_prometheus(std::slice::from_ref(row), m);
            let lines = out.lines().filter(|l| !l.starts_with('#'));
            let parsed = lines.map(|l| l.rsplit_once(' ').unwrap().1.parse::<i128>().unwrap());
            parsed.collect::<Vec<_>>()
        };
        let sum = row.merge == Merge::Sum;
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut merged = x.clone();
            merged.merge(y);
            let pairs = samples(x).into_iter().zip(samples(y));
            let want: Vec<_> = pairs
                .map(|(p, q)| if sum { p + q } else { p.max(q) })
                .collect();
            assert_eq!(samples(&merged), want, "{name} merges by {:?}", row.merge);
        }
    }
}
