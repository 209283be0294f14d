//! Shared configuration plumbing for the benchmark binaries and benches.
//!
//! Every knob is an environment variable so `cargo bench` / `cargo run`
//! stay argument-free:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `NMBST_SECS` | measured seconds per cell | `1.0` |
//! | `NMBST_RUNS` | runs averaged per cell | `1` |
//! | `NMBST_THREADS` | comma list of thread counts | `1,2,4,8` |
//! | `NMBST_KEYS` | comma list of key ranges | `1000,10000,100000` |
//! | `NMBST_SEED` | workload seed | `0x5EED` |
//! | `NMBST_ZIPF` | Zipf theta (unset = uniform, the paper's setting) | unset |
//!
//! The paper's full grid is `NMBST_SECS=30 NMBST_RUNS=3`
//! `NMBST_THREADS=1,2,4,8,16,32,64,128,256`
//! `NMBST_KEYS=1000,10000,100000,1000000`.
//!
//! A variable that is set but does not parse is a fatal error naming
//! the variable; unset or empty means the default.

use nmbst_harness::KeyDist;
use std::str::FromStr;
use std::time::Duration;

/// Parses the raw value of environment variable `name`: unset or empty
/// is `Ok(None)`, a value that does not parse is an error naming the
/// variable.
pub fn parse_var<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    match raw {
        None | Some("") => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("bad {name} value: {s:?}")),
    }
}

/// Reads environment variable `name` through [`parse_var`].
///
/// # Panics
///
/// When the variable is set to a value that does not parse.
pub fn env_var<T: FromStr>(name: &str) -> Option<T> {
    parse_var(name, std::env::var(name).ok().as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Parses a comma-separated list env var into numbers.
fn parse_list(name: &str, default: &[u64]) -> Vec<u64> {
    match env_var::<String>(name) {
        Some(s) => s
            .split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad {name} entry: {x:?}"))
            })
            .collect(),
        None => default.to_vec(),
    }
}

/// Sweep configuration read from the environment.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Measured duration per cell.
    pub duration: Duration,
    /// Runs averaged per cell.
    pub runs: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Key ranges to sweep.
    pub key_ranges: Vec<u64>,
    /// Workload seed.
    pub seed: u64,
    /// Key distribution (uniform unless `NMBST_ZIPF` is set).
    pub dist: KeyDist,
}

impl SweepConfig {
    /// Reads the sweep configuration from the environment.
    ///
    /// # Panics
    ///
    /// When a variable is set to a value that does not parse.
    pub fn from_env() -> Self {
        SweepConfig {
            duration: Duration::from_secs_f64(env_var("NMBST_SECS").unwrap_or(1.0)),
            runs: env_var("NMBST_RUNS").unwrap_or(1),
            threads: parse_list("NMBST_THREADS", &[1, 2, 4, 8])
                .into_iter()
                .map(|t| t as usize)
                .collect(),
            key_ranges: parse_list("NMBST_KEYS", &[1_000, 10_000, 100_000]),
            seed: env_var("NMBST_SEED").unwrap_or(0x5EED),
            dist: env_var("NMBST_ZIPF").map_or(KeyDist::Uniform, KeyDist::Zipf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // Note: assumes the test environment doesn't set NMBST_* vars.
        let c = SweepConfig::from_env();
        assert_eq!(c.runs, 1);
        assert!(!c.threads.is_empty());
        assert!(!c.key_ranges.is_empty());
    }

    #[test]
    fn parse_var_reads_good_values() {
        assert_eq!(parse_var::<f64>("NMBST_SECS", Some("0.2")), Ok(Some(0.2)));
        assert_eq!(parse_var::<usize>("NMBST_RUNS", Some("3")), Ok(Some(3)));
        assert_eq!(
            parse_var::<u64>("NMBST_SEED", Some("24301")),
            Ok(Some(24301))
        );
        assert_eq!(parse_var::<f64>("NMBST_ZIPF", Some("0.9")), Ok(Some(0.9)));
    }

    #[test]
    fn parse_var_treats_missing_and_empty_as_unset() {
        assert_eq!(parse_var::<f64>("NMBST_SECS", None), Ok(None));
        assert_eq!(parse_var::<f64>("NMBST_SECS", Some("")), Ok(None));
    }

    #[test]
    fn parse_var_rejects_malformed_values_by_name() {
        let err = parse_var::<f64>("NMBST_SECS", Some("1s")).unwrap_err();
        assert!(err.contains("NMBST_SECS") && err.contains("1s"), "{err}");
        assert!(parse_var::<usize>("NMBST_RUNS", Some("-1")).is_err());
        assert!(parse_var::<u64>("NMBST_SEED", Some("0x5EED")).is_err());
        assert!(parse_var::<f64>("NMBST_ZIPF", Some("high")).is_err());
    }
}
