//! Per-thread CPU accounting from procfs (no PMU on the target box, no
//! new dependencies): on-CPU and runqueue-wait nanoseconds from
//! `/proc/self/task/*/schedstat`, voluntary context switches from
//! `/proc/self/task/*/status`, attributed by thread name.

use std::collections::BTreeMap;
use std::fs;

/// Name prefix of the server's reactor threads.
pub const SERVER_PREFIX: &str = "nmbst-worker-";
/// Name prefix of the benchmark's client threads.
pub const CLIENT_PREFIX: &str = "bench-client-";

#[derive(Debug, Default, Clone, Copy)]
pub struct Times {
    pub cpu_ns: u64,
    pub runq_ns: u64,
    pub vol_ctxsw: u64,
}

impl Times {
    fn add(&mut self, o: &Times) {
        self.cpu_ns += o.cpu_ns;
        self.runq_ns += o.runq_ns;
        self.vol_ctxsw += o.vol_ctxsw;
    }
}

/// Every live thread's counters, by tid, with its name.
pub struct Snapshot(BTreeMap<u64, (String, Times)>);

pub fn snapshot() -> Snapshot {
    let mut m = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Snapshot(m);
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let p = e.path();
        let (Ok(comm), Ok(sched), Ok(status)) = (
            fs::read_to_string(p.join("comm")),
            fs::read_to_string(p.join("schedstat")),
            fs::read_to_string(p.join("status")),
        ) else {
            continue; // the thread exited mid-walk
        };
        let mut f = sched.split_whitespace().map(|x| x.parse().unwrap_or(0));
        let t = Times {
            cpu_ns: f.next().unwrap_or(0),
            runq_ns: f.next().unwrap_or(0),
            vol_ctxsw: status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0),
        };
        m.insert(tid, (comm.trim().to_string(), t));
    }
    Snapshot(m)
}

/// Counter growth between two snapshots, summed over the threads whose
/// name starts with `prefix` ("" = every thread). A thread born after
/// `before` counts from zero.
pub fn delta(before: &Snapshot, after: &Snapshot, prefix: &str) -> Times {
    let mut sum = Times::default();
    for (tid, (name, a)) in &after.0 {
        if !name.starts_with(prefix) {
            continue;
        }
        let b = before.0.get(tid).map(|(_, t)| *t).unwrap_or_default();
        sum.add(&Times {
            cpu_ns: a.cpu_ns.saturating_sub(b.cpu_ns),
            runq_ns: a.runq_ns.saturating_sub(b.runq_ns),
            vol_ctxsw: a.vol_ctxsw.saturating_sub(b.vol_ctxsw),
        });
    }
    sum
}

/// The live threads whose name starts with `prefix`: (tid, name).
pub fn threads(prefix: &str) -> Vec<(u64, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse().ok()?;
            let name = fs::read_to_string(e.path().join("comm")).ok()?;
            let name = name.trim();
            name.starts_with(prefix).then(|| (tid, name.to_string()))
        })
        .collect()
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of the process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}
