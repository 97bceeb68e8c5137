//! Initial scheduling (§6, "Initial schedule").
//!
//! "The initial schedule always uses the fastest performing processors at
//! the time of application startup. For load balancing we partition the
//! work into unequal size chunks to balance processor iteration times.
//! For other techniques we partition the application workload into equal
//! size chunks."

use crate::platform::Platform;

/// The `k` hosts with the highest *delivered* speed at instant `t`
/// (peak speed × availability under current load), best first. Ties break
/// by host id for determinism.
///
/// # Panics
/// Panics if `k` exceeds the number of hosts.
pub fn fastest_hosts(platform: &Platform, k: usize, t: f64) -> Vec<usize> {
    assert!(
        k <= platform.hosts.len(),
        "requested {k} hosts from a platform of {}",
        platform.hosts.len()
    );
    best_first(0..platform.hosts.len(), k, |h| {
        platform.hosts[h].delivered_at(t)
    })
}

/// The `k` fastest among a candidate subset (same ordering rules).
///
/// # Panics
/// Panics if `k` exceeds the candidate count.
pub fn fastest_among(platform: &Platform, candidates: &[usize], k: usize, t: f64) -> Vec<usize> {
    assert!(
        k <= candidates.len(),
        "requested {k} of {}",
        candidates.len()
    );
    best_first(candidates.iter().copied(), k, |h| {
        platform.hosts[h].delivered_at(t)
    })
}

/// The `k` ids with the highest `key`, best first, ties by id: each
/// candidate's key is evaluated once, then `(key, id)` pairs are sorted
/// by that total order.
pub(crate) fn best_first(
    candidates: impl IntoIterator<Item = usize>,
    k: usize,
    key: impl Fn(usize) -> f64,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = candidates.into_iter().map(|h| (key(h), h)).collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().take(k).map(|(_, h)| h).collect()
}

/// Equal-chunk partition: every process gets `flops_per_proc` work.
pub fn equal_partition(n: usize, flops_per_proc: f64) -> Vec<f64> {
    assert!(n >= 1);
    vec![flops_per_proc; n]
}

/// Performance-proportional partition of `total_flops` over processors
/// with the given (predicted) speeds — the DLB work division: iteration
/// times are balanced *if* the speeds hold for the whole iteration.
///
/// # Panics
/// Panics if `speeds` is empty or any speed is non-positive.
pub fn balanced_partition(total_flops: f64, speeds: &[f64]) -> Vec<f64> {
    assert!(!speeds.is_empty(), "need at least one processor");
    assert!(total_flops >= 0.0);
    let sum: f64 = speeds
        .iter()
        .map(|&s| {
            assert!(s > 0.0, "speeds must be positive, got {s}");
            s
        })
        .sum();
    speeds.iter().map(|&s| total_flops * s / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Host, Platform};
    use loadmodel::LoadTrace;
    use simkit::link::SharedLink;

    fn platform(speeds: &[f64]) -> Platform {
        Platform {
            hosts: speeds
                .iter()
                .map(|&s| Host::new(s, LoadTrace::unloaded()))
                .collect(),
            link: SharedLink::hpdc03_lan(),
            startup_per_process: 0.75,
        }
    }

    #[test]
    fn fastest_hosts_sorted_by_delivered_speed() {
        let p = platform(&[1e8, 3e8, 2e8]);
        assert_eq!(fastest_hosts(&p, 2, 0.0), vec![1, 2]);
        assert_eq!(fastest_hosts(&p, 3, 0.0), vec![1, 2, 0]);
    }

    #[test]
    fn loaded_fast_host_loses_to_unloaded_slow_host() {
        let loaded = LoadTrace::from_intervals([(0.0, 100.0)]);
        let p = Platform {
            hosts: vec![
                Host::new(4e8, loaded),                // delivers 2e8 at t=0
                Host::new(3e8, LoadTrace::unloaded()), // delivers 3e8
            ],
            link: SharedLink::hpdc03_lan(),
            startup_per_process: 0.75,
        };
        assert_eq!(fastest_hosts(&p, 1, 0.0), vec![1]);
        // After the load ends the ranking flips.
        assert_eq!(fastest_hosts(&p, 1, 200.0), vec![0]);
    }

    #[test]
    fn fastest_among_respects_candidate_set() {
        let p = platform(&[1e8, 9e8, 2e8, 3e8]);
        assert_eq!(fastest_among(&p, &[0, 2, 3], 2, 0.0), vec![3, 2]);
    }

    #[test]
    fn equal_partition_is_uniform() {
        assert_eq!(equal_partition(3, 5.0), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn balanced_partition_balances_times() {
        let speeds = [2e8, 1e8, 1e8];
        let parts = balanced_partition(8e8, &speeds);
        assert_eq!(parts, vec![4e8, 2e8, 2e8]);
        // Iteration times equal: w/s identical.
        let times: Vec<f64> = parts.iter().zip(&speeds).map(|(w, s)| w / s).collect();
        assert!(times.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }

    #[test]
    fn balanced_partition_conserves_work() {
        let parts = balanced_partition(1e9, &[1.7e8, 3.1e8, 2.2e8, 2.9e8]);
        let total: f64 = parts.iter().sum();
        assert!((total - 1e9).abs() < 1.0);
    }

    #[test]
    fn ties_break_by_id() {
        let p = platform(&[2e8, 2e8, 2e8]);
        assert_eq!(fastest_hosts(&p, 2, 0.0), vec![0, 1]);
    }
}
