//! Deterministic size-aware work scheduling, shared by the crawl pool
//! (`gaugenn-playstore`) and the analysis pool (`gaugenn-core`).
//!
//! Both pools follow the same discipline: work units (store categories /
//! model files) are **assigned to workers before any thread starts**, each
//! worker processes its shard in ascending unit-index order, and the merge
//! replays unit-index order. Because the merge ignores *who* produced a
//! shard, the assignment only ever moves wall-clock time between workers —
//! it can never change the merged output.
//!
//! The one policy is longest-processing-time-first ([`assign`]): walk
//! units in (size descending, index ascending) order, always assigning to
//! the least-loaded worker (ties to the lowest worker id). It carries the
//! classic 4/3-OPT makespan bound, and it is deterministic because every
//! comparison has a total order: sizes tie-break on unit index, loads on
//! worker id. There is no seed and no runtime queue — same inputs, same
//! plan, every run.

use std::collections::BTreeMap;

/// One schedulable unit: a stable identity (`index` — the corpus/category
/// position the merge replays) and a cost estimate in arbitrary units
/// (listed app count, container bytes, ...). A zero size is legal and
/// sorts last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Merge-order identity; must be unique within one `assign` call.
    pub index: usize,
    /// Size estimate driving the assignment.
    pub size: u64,
}

/// Partition `units` across `workers` shards, longest processing time
/// first.
///
/// Returns one `Vec` of unit indices per worker, each sorted ascending so
/// workers process (and chaos fault schedules see) units in a stable
/// order. Every unit index appears in exactly one shard.
pub fn assign(units: &[WorkUnit], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut order: Vec<&WorkUnit> = units.iter().collect();
    // Size descending; equal sizes keep corpus order (index ascending) so
    // the sort key is a total order and the plan is input-determined.
    order.sort_by(|a, b| b.size.cmp(&a.size).then(a.index.cmp(&b.index)));
    let mut shards = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for u in order {
        let w = least_loaded(&load);
        shards[w].push(u.index);
        load[w] += u.size;
    }
    for shard in &mut shards {
        shard.sort_unstable();
    }
    shards
}

/// Worker with the smallest load; ties go to the lowest worker id.
fn least_loaded(load: &[u64]) -> usize {
    let mut best = 0usize;
    for (w, &l) in load.iter().enumerate().skip(1) {
        if l < load[best] {
            best = w;
        }
    }
    best
}

/// Predicted makespan of an assignment: the largest per-shard size sum.
pub fn makespan(units: &[WorkUnit], shards: &[Vec<usize>]) -> u64 {
    let size_of: BTreeMap<usize, u64> = units.iter().map(|u| (u.index, u.size)).collect();
    shards
        .iter()
        .map(|s| s.iter().map(|i| size_of.get(i).copied().unwrap_or(0)).sum())
        .max()
        .unwrap_or(0)
}

/// Predicted imbalance: makespan over mean shard load (1.0 = perfectly
/// balanced). Returns 1.0 for empty inputs.
pub fn imbalance(units: &[WorkUnit], shards: &[Vec<usize>]) -> f64 {
    let total: u64 = units.iter().map(|u| u.size).sum();
    if total == 0 || shards.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / shards.len() as f64;
    makespan(units, shards) as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn units(sizes: &[u64]) -> Vec<WorkUnit> {
        sizes
            .iter()
            .enumerate()
            .map(|(index, &size)| WorkUnit { index, size })
            .collect()
    }

    fn flat_sorted(shards: &[Vec<usize>]) -> Vec<usize> {
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// The size-oblivious `index % workers` partition: the naive
    /// reference LPT must never lose to.
    fn modulo(units: &[WorkUnit], workers: usize) -> Vec<Vec<usize>> {
        let mut shards = vec![Vec::new(); workers];
        for u in units {
            shards[u.index % workers].push(u.index);
        }
        shards
    }

    #[test]
    fn every_unit_is_covered_exactly_once() {
        let u = units(&[3, 0, 8, 8, 1, 400, 2, 2]);
        for workers in [1usize, 2, 3, 8, 16] {
            let shards = assign(&u, workers);
            assert_eq!(shards.len(), workers);
            assert_eq!(
                flat_sorted(&shards),
                (0..u.len()).collect::<Vec<_>>(),
                "x{workers}"
            );
        }
    }

    #[test]
    fn lpt_beats_static_on_a_skewed_corpus() {
        // One whale and a school of minnows: the modulo partition parks
        // the whale with whatever else shares its residue class; LPT
        // isolates it.
        let u = units(&[100, 10, 10, 10, 100, 10, 10, 10]);
        let st = modulo(&u, 4);
        let lpt = assign(&u, 4);
        assert!(
            makespan(&u, &lpt) < makespan(&u, &st),
            "lpt {} vs static {}",
            makespan(&u, &lpt),
            makespan(&u, &st)
        );
    }

    #[test]
    fn lpt_tie_break_is_stable() {
        // All-equal sizes: LPT must degrade to round-robin in index order,
        // not depend on sort internals.
        let u = units(&[7, 7, 7, 7, 7, 7]);
        let shards = assign(&u, 3);
        assert_eq!(shards, vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn assignment_is_reproducible() {
        let u = units(&[3, 141, 59, 26, 5, 35, 8, 97, 9, 3]);
        assert_eq!(assign(&u, 4), assign(&u, 4));
    }

    #[test]
    fn shards_are_sorted_ascending() {
        let u = units(&[9, 8, 7, 6, 5, 4, 3, 2, 1]);
        for shard in assign(&u, 3) {
            assert!(shard.windows(2).all(|w| w[0] < w[1]), "{shard:?}");
        }
    }

    #[test]
    fn imbalance_of_perfect_split_is_one() {
        let u = units(&[5, 5, 5, 5]);
        let shards = assign(&u, 4);
        assert!((imbalance(&u, &shards) - 1.0).abs() < 1e-9);
        assert_eq!(makespan(&u, &shards), 5);
    }

    proptest! {
        #[test]
        fn prop_assignment_is_a_permutation(
            sizes in proptest::collection::vec(0u64..10_000, 1..64),
            workers in 1usize..12,
        ) {
            let u = units(&sizes);
            let shards = assign(&u, workers);
            prop_assert_eq!(shards.len(), workers);
            prop_assert_eq!(flat_sorted(&shards), (0..u.len()).collect::<Vec<_>>());
        }

        #[test]
        fn prop_lpt_never_loses_to_static(
            sizes in proptest::collection::vec(0u64..10_000, 1..64),
            workers in 1usize..12,
        ) {
            let u = units(&sizes);
            let st = modulo(&u, workers);
            let lpt = assign(&u, workers);
            prop_assert!(makespan(&u, &lpt) <= makespan(&u, &st));
        }
    }
}
