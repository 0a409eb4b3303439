//! Lane occupancy tracking for slab-of-lanes engines.
//!
//! Every batched engine in the workspace — [`SimulatorBatch`] state
//! slabs, [`MonitorSuiteBatch`] verdict rows, the serve layer's shard
//! slabs — indexes its per-run storage by a dense *lane* number. Who
//! owns which lane is a separate question, and this module answers it
//! once for both usage shapes:
//!
//! * **static stripes** ([`Sweep::run_batched`](crate::Sweep::run_batched)):
//!   every lane is claimed at stripe setup and released as its run
//!   retires; the stripe's tick loop keys "is this lane still running?"
//!   off the allocator instead of per-lane flags;
//! * **dynamic churn** (`esafe-serve`): streams connect and disconnect
//!   continuously, claiming the lowest free lane and releasing it on
//!   retirement so the slot can be reclaimed by the next connection.
//!
//! Which runs share a stripe is decided once too: [`plan_stripes`] cuts
//! groups into near-equal stripes under a width cap, for both the
//! batched sweep and corpus replay.
//!
//! [`SimulatorBatch`]: esafe_sim::SimulatorBatch
//! [`MonitorSuiteBatch`]: esafe_monitor::MonitorSuiteBatch

use std::ops::Range;

/// A fixed-capacity free-list allocator over lane indices `0..lanes`.
///
/// Claims pop the lowest-numbered free lane (LIFO over an initially
/// ascending free list), so a batch whose occupancy never exceeds `k`
/// touches only lanes `0..k` — keeping hot slab rows dense even under
/// heavy connect/disconnect churn.
///
/// # Example
///
/// ```
/// use esafe_harness::LaneAllocator;
///
/// let mut lanes = LaneAllocator::new(2);
/// let a = lanes.claim().unwrap();
/// let b = lanes.claim().unwrap();
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(lanes.claim(), None, "slab is full");
/// lanes.release(a);
/// assert_eq!(lanes.claim(), Some(0), "freed lanes are reclaimed");
/// ```
#[derive(Debug, Clone)]
pub struct LaneAllocator {
    /// Free lane indices; the next claim pops the back.
    free: Vec<usize>,
    /// `claimed[lane]` — occupancy bitmap for O(1) queries.
    claimed: Vec<bool>,
}

impl LaneAllocator {
    /// Creates an allocator over `lanes` initially-free lanes.
    pub fn new(lanes: usize) -> Self {
        LaneAllocator {
            free: (0..lanes).rev().collect(),
            claimed: vec![false; lanes],
        }
    }

    /// Total number of lanes, claimed or free.
    pub fn lanes(&self) -> usize {
        self.claimed.len()
    }

    /// Number of lanes currently claimed.
    pub fn in_use(&self) -> usize {
        self.claimed.len() - self.free.len()
    }

    /// Number of lanes currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Claims the lowest-numbered free lane, or `None` when every lane
    /// is in use.
    pub fn claim(&mut self) -> Option<usize> {
        let lane = self.free.pop()?;
        self.claimed[lane] = true;
        Some(lane)
    }

    /// Whether `lane` is currently claimed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_claimed(&self, lane: usize) -> bool {
        self.claimed[lane]
    }

    /// Releases a claimed lane back to the free list.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or not currently claimed —
    /// double-releases corrupt a free list silently, so they are
    /// rejected loudly instead.
    pub fn release(&mut self, lane: usize) {
        assert!(
            std::mem::replace(&mut self.claimed[lane], false),
            "lane {lane} is not claimed"
        );
        self.free.push(lane);
    }

    /// Iterates the currently claimed lanes in ascending order.
    pub fn iter_claimed(&self) -> impl Iterator<Item = usize> + '_ {
        self.claimed
            .iter()
            .enumerate()
            .filter_map(|(l, &c)| c.then_some(l))
    }
}

/// Plans the stripes of a striped job: cuts each group of
/// `group_lens[g]` items into near-equal stripes (within a group, sizes
/// differ by at most 1) of at most `width` items, and returns each
/// stripe as `(group, range into the group's items)`, groups in order.
///
/// `width` is a cap, not a target. When the job would otherwise get
/// fewer stripes than the pool has `workers`, stripes are split further
/// — always cutting the group whose stripes are currently widest —
/// until every worker has one (or every stripe is a single item): a
/// 70-item group at width 128 on two workers runs as 35 + 35, not as
/// one stripe with the second worker idle.
pub fn plan_stripes(
    group_lens: &[usize],
    width: usize,
    workers: usize,
) -> Vec<(usize, Range<usize>)> {
    let width = width.max(1);
    let mut counts: Vec<usize> = group_lens.iter().map(|&n| n.div_ceil(width)).collect();
    let items: usize = group_lens.iter().sum();
    let wanted = workers.max(1).min(items);
    while counts.iter().sum::<usize>() < wanted {
        // The group with the widest stripes (first on ties) gets one
        // more. Only a group with fewer stripes than items can split,
        // and one exists while the total is below `items`.
        let widest = (0..counts.len())
            .filter(|&g| counts[g] < group_lens[g])
            .max_by_key(|&g| (group_lens[g].div_ceil(counts[g]), std::cmp::Reverse(g)))
            .expect("fewer stripes than items leaves a splittable group");
        counts[widest] += 1;
    }
    let mut stripes = Vec::with_capacity(counts.iter().sum());
    for (g, (&len, &count)) in group_lens.iter().zip(&counts).enumerate() {
        let mut start = 0;
        for k in 0..count {
            let size = len / count + usize::from(k < len % count);
            stripes.push((g, start..start + size));
            start += size;
        }
    }
    stripes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_ascend_and_fill_the_slab() {
        let mut a = LaneAllocator::new(3);
        assert_eq!(a.lanes(), 3);
        assert_eq!(a.claim(), Some(0));
        assert_eq!(a.claim(), Some(1));
        assert_eq!(a.claim(), Some(2));
        assert_eq!(a.claim(), None);
        assert_eq!((a.in_use(), a.available()), (3, 0));
    }

    #[test]
    fn release_recycles_and_keeps_occupancy_dense() {
        let mut a = LaneAllocator::new(4);
        for _ in 0..3 {
            a.claim();
        }
        a.release(1);
        a.release(0);
        // The most recently freed lane is reclaimed first; lane 3 stays
        // cold until the warm slots run out.
        assert_eq!(a.claim(), Some(0));
        assert_eq!(a.claim(), Some(1));
        assert_eq!(a.claim(), Some(3));
        assert!(a.is_claimed(2));
        assert_eq!(a.iter_claimed().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not claimed")]
    fn double_release_panics() {
        let mut a = LaneAllocator::new(1);
        a.claim();
        a.release(0);
        a.release(0);
    }

    #[test]
    fn zero_lane_allocator_is_inert() {
        let mut a = LaneAllocator::new(0);
        assert_eq!(a.claim(), None);
        assert_eq!((a.lanes(), a.in_use(), a.available()), (0, 0, 0));
    }

    /// Checks every planner invariant and returns the stripe sizes.
    fn planned_sizes(group_lens: &[usize], width: usize, workers: usize) -> Vec<usize> {
        let stripes = plan_stripes(group_lens, width, workers);
        for (g, &len) in group_lens.iter().enumerate() {
            let mut covered: Vec<usize> = stripes
                .iter()
                .filter(|(sg, _)| *sg == g)
                .flat_map(|(_, r)| r.clone())
                .collect();
            covered.sort_unstable();
            assert_eq!(
                covered,
                (0..len).collect::<Vec<_>>(),
                "group {g} covered once"
            );
            let sizes: Vec<usize> = stripes
                .iter()
                .filter(|(sg, _)| *sg == g)
                .map(|(_, r)| r.len())
                .collect();
            if let (Some(lo), Some(hi)) = (sizes.iter().min(), sizes.iter().max()) {
                assert!(hi - lo <= 1, "group {g} sizes {sizes:?}");
            }
        }
        let items: usize = group_lens.iter().sum();
        assert!(stripes
            .iter()
            .all(|(_, r)| !r.is_empty() && r.len() <= width.max(1)));
        assert!(stripes.len() >= workers.max(1).min(items), "{stripes:?}");
        stripes.iter().map(|(_, r)| r.len()).collect()
    }

    #[test]
    fn planner_balances_the_corpus_and_keeps_the_mega_sweep_plan() {
        assert_eq!(planned_sizes(&[70], 128, 2), vec![35, 35]);
        assert_eq!(planned_sizes(&[512], 128, 2), vec![128; 4]);
        assert_eq!(planned_sizes(&[140], 128, 2), vec![70, 70]);
        assert_eq!(planned_sizes(&[9], 8, 1), vec![5, 4]);
        assert_eq!(planned_sizes(&[3], 128, 8), vec![1, 1, 1]);
        // Extra stripes go to the group with the widest stripes.
        assert_eq!(planned_sizes(&[10, 2], 128, 3), vec![5, 5, 2]);
        assert!(plan_stripes(&[], 128, 2).is_empty());
        assert_eq!(plan_stripes(&[0, 2], 128, 1), vec![(1, 0..2)]);
    }

    #[test]
    fn planner_invariants_hold_across_shapes() {
        for workers in [0, 1, 2, 3, 7, 64] {
            for width in [0, 1, 2, 5, 128] {
                for lens in [&[1][..], &[0, 0], &[4, 1, 9], &[17, 33, 2, 0, 6], &[300]] {
                    planned_sizes(lens, width, workers);
                }
            }
        }
    }
}
