//! The one grid runner every campaign engine shares.
//!
//! A Monte-Carlo campaign is an `item × trial` grid: items are fault
//! scenarios (scalar engines) or lane packs of them (slab engines), and
//! every trial of every item is independent. Running a grid is always
//! the same three steps:
//!
//! 1. **decompose** it item-major into [`Block`]s — contiguous trial
//!    ranges of one item ([`blocks`]);
//! 2. **dispatch** the blocks ([`dispatch`]): inline on the calling
//!    thread for tiny grids, on the ambient rayon context at
//!    `threads == 0` (no pool is installed, so a grid run from inside an
//!    outer parallel map nests the way that map's pool says), or on a
//!    pool pinned to `threads`;
//! 3. **fold** the per-block partials back together in block order,
//!    through the result type's [`Merge`] ([`run`] does all three).
//!
//! Partials are collected in input order and merged in block order,
//! and every per-trial counter the engines keep is an exact integer
//! sum, so a grid's result never depends on the thread count, on the
//! serial fast path or on how its trials were split.

use rayon::prelude::*;
use std::ops::Range;

/// Grids of at most this many `item × trial` cells run serially by
/// default: below it the fan-out (block construction, work-steal queues
/// and, with pinned threads, pool construction) costs more than it buys
/// (`BENCH_system.json` tiny-grid rows).
pub const DEFAULT_SERIAL_THRESHOLD: u64 = 256;

/// Target blocks per worker for grids of scalar items: over-decompose
/// eightfold so a worker whose trials detect early can steal work.
pub const SCALAR_BLOCKS_PER_WORKER: usize = 8;

/// Target blocks per worker for grids of slab packs: every extra trial
/// range rebuilds the pack's fault tables (the dominant fixed cost of a
/// slab), so trials split only as far as the worker count demands.
pub const SLAB_BLOCKS_PER_WORKER: usize = 1;

/// One schedulable unit: trials `start..end` of grid item `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Index of the grid item.
    pub item: usize,
    /// First trial of the range.
    pub start: u32,
    /// One past the last trial of the range.
    pub end: u32,
}

impl Block {
    /// The block's trial range.
    pub fn trials(&self) -> Range<u32> {
        self.start..self.end
    }
}

/// A per-item result whose trial-split partials add up to the unsplit
/// result.
pub trait Merge {
    /// Add `other`, a partial of the same item over later trials.
    fn merge(&mut self, other: Self);
}

/// A lane pack's partial: one result per lane, merged lane by lane.
impl<R: Merge> Merge for Vec<R> {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.len(), other.len(), "lane count changed");
        for (acc, lane) in self.iter_mut().zip(other) {
            acc.merge(lane);
        }
    }
}

/// Threads a grid pinned to `threads` runs on (`0` = the ambient rayon
/// context's count).
pub fn resolved_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
}

/// Is a grid of `cells` small enough for the serial fast path under
/// `threshold` (`0` = never)?
pub fn runs_serially(cells: u64, threshold: u64) -> bool {
    threshold > 0 && cells <= threshold
}

/// Split an `items × trials` grid item-major into about `target_blocks`
/// blocks: one block per item when items alone reach the target,
/// otherwise each item's trials split into equal contiguous ranges.
/// Every `(item, trial)` cell lands in exactly one block, and a grid
/// without trials still yields one empty block per item.
pub fn blocks(items: usize, trials: u32, target_blocks: usize) -> Vec<Block> {
    let splits = if items == 0 || items >= target_blocks {
        1
    } else {
        (target_blocks.div_ceil(items) as u32).clamp(1, trials.max(1))
    };
    let len = trials.div_ceil(splits).max(1);
    let mut out = Vec::with_capacity(items * splits as usize);
    for item in 0..items {
        let mut start = 0u32;
        loop {
            let end = start.saturating_add(len).min(trials);
            out.push(Block { item, start, end });
            if end == trials {
                break;
            }
            start = end;
        }
    }
    out
}

/// Map `f` over `jobs`, output in input order: inline when `serial`, on
/// the ambient rayon context at `threads == 0`, otherwise on a pool
/// pinned to `threads`.
pub fn dispatch<J, R, F>(jobs: &[J], threads: usize, serial: bool, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    if serial {
        return jobs.iter().map(f).collect();
    }
    let fan_out = || jobs.par_iter().map(&f).collect();
    if threads == 0 {
        fan_out()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction is infallible")
            .install(fan_out)
    }
}

/// Fold the partials of `blocks` (same order) into one result per item,
/// item order. Blocks of one item are adjacent and trial-ordered, so a
/// partial either starts its item or merges into the item before it.
fn fold<R: Merge>(blocks: &[Block], partials: Vec<R>) -> Vec<R> {
    let mut out: Vec<R> = Vec::new();
    let mut last = None;
    for (block, partial) in blocks.iter().zip(partials) {
        if last == Some(block.item) {
            out.last_mut()
                .expect("a merge always follows a push")
                .merge(partial);
        } else {
            out.push(partial);
            last = Some(block.item);
        }
    }
    out
}

/// Run an `items × trials` grid end to end: decompose at
/// `blocks_per_worker` ([`SCALAR_BLOCKS_PER_WORKER`] or
/// [`SLAB_BLOCKS_PER_WORKER`]) per resolved thread, dispatch `f` over
/// the blocks and fold the partials — one result per item, item order.
pub fn run<R, F>(
    items: usize,
    trials: u32,
    blocks_per_worker: usize,
    threads: usize,
    serial: bool,
    f: F,
) -> Vec<R>
where
    R: Merge + Send,
    F: Fn(&Block) -> R + Sync,
{
    let grid = blocks(items, trials, resolved_threads(threads) * blocks_per_worker);
    let partials = dispatch(&grid, threads, serial, f);
    fold(&grid, partials)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-item tally that remembers which trials it saw, in order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Seen(Vec<(usize, u32)>);

    impl Merge for Seen {
        fn merge(&mut self, other: Self) {
            self.0.extend(other.0);
        }
    }

    fn seen(block: &Block) -> Seen {
        Seen(block.trials().map(|t| (block.item, t)).collect())
    }

    #[test]
    fn grid_decomposition_covers_every_cell_once() {
        for (items, trials, threads) in [
            (64usize, 8u32, 4usize),
            (3, 100, 8),
            (1, 7, 2),
            (200, 1, 16),
            (5, 6, 4),
            (3, 2, 8),
        ] {
            for per_worker in [SCALAR_BLOCKS_PER_WORKER, SLAB_BLOCKS_PER_WORKER] {
                let grid = blocks(items, trials, threads * per_worker);
                // Item-major, trial-ordered: flattening the blocks walks
                // the grid row by row, each cell exactly once.
                let cells: Vec<(usize, u32)> = grid.iter().flat_map(|b| seen(b).0).collect();
                let want: Vec<(usize, u32)> = (0..items)
                    .flat_map(|i| (0..trials).map(move |t| (i, t)))
                    .collect();
                assert_eq!(cells, want, "{items}x{trials}@{threads}/{per_worker}");
                assert!(
                    grid.iter().all(|b| b.start < b.end),
                    "empty block in {items}x{trials}@{threads}/{per_worker}"
                );
                if items >= threads * per_worker {
                    assert_eq!(grid.len(), items, "no trial split needed");
                }
            }
        }
        // Without trials each item still gets its (empty) block.
        assert_eq!(
            blocks(2, 0, 16),
            vec![
                Block {
                    item: 0,
                    start: 0,
                    end: 0
                },
                Block {
                    item: 1,
                    start: 0,
                    end: 0
                },
            ]
        );
        assert!(blocks(0, 9, 16).is_empty());
    }

    #[test]
    fn slab_policy_splits_only_as_far_as_the_workers_demand() {
        // Four packs on one worker: one block each, so one build each.
        assert_eq!(blocks(4, 64, SLAB_BLOCKS_PER_WORKER).len(), 4);
        // The scalar policy would split the same grid twice over.
        assert_eq!(blocks(4, 64, SCALAR_BLOCKS_PER_WORKER).len(), 8);
        // Two packs on four workers: two blocks per pack.
        assert_eq!(blocks(2, 64, 4 * SLAB_BLOCKS_PER_WORKER).len(), 4);
    }

    #[test]
    fn trial_split_fold_equals_the_unsplit_run() {
        let (items, trials) = (3usize, 50u32);
        let unsplit: Vec<Seen> = blocks(items, trials, 1).iter().map(seen).collect();
        assert_eq!(unsplit.len(), items);
        for target in [4usize, 9, 64, 1000] {
            let grid = blocks(items, trials, target);
            assert!(grid.len() > items, "target {target} must split trials");
            let partials: Vec<Seen> = grid.iter().map(seen).collect();
            assert_eq!(fold(&grid, partials), unsplit, "target {target}");
        }
        // Lane packs fold lane by lane.
        let lanes = |block: &Block| vec![seen(block), seen(block)];
        let grid = blocks(items, trials, 16);
        let folded = fold(&grid, grid.iter().map(lanes).collect());
        let whole: Vec<Vec<Seen>> = blocks(items, trials, 1).iter().map(lanes).collect();
        assert_eq!(folded, whole);
    }

    #[test]
    fn every_schedule_returns_the_same_order() {
        let (items, trials) = (7usize, 13u32);
        let reference = run(items, trials, SCALAR_BLOCKS_PER_WORKER, 1, true, seen);
        assert_eq!(reference.len(), items);
        for threads in [0usize, 1, 2, 4] {
            for per_worker in [SCALAR_BLOCKS_PER_WORKER, SLAB_BLOCKS_PER_WORKER] {
                for serial in [false, true] {
                    let got = run(items, trials, per_worker, threads, serial, seen);
                    assert_eq!(got, reference, "{threads} threads/{per_worker}/{serial}");
                }
            }
        }
        let jobs: Vec<u64> = (0..100).collect();
        let squares: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [0usize, 1, 2, 4] {
            assert_eq!(dispatch(&jobs, threads, false, |j| j * j), squares);
        }
    }

    #[test]
    fn serial_fast_path_needs_a_positive_threshold() {
        assert!(runs_serially(256, DEFAULT_SERIAL_THRESHOLD));
        assert!(!runs_serially(257, DEFAULT_SERIAL_THRESHOLD));
        assert!(!runs_serially(0, 0));
        assert!(runs_serially(u64::MAX, u64::MAX));
    }
}
