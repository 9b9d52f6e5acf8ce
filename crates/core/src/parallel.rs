//! Parallel RP-growth: the same search, partitioned by suffix item, scheduled
//! by work-stealing.
//!
//! After the RP-list scan, the pattern space splits into disjoint regions —
//! all patterns whose **lowest-ranked** (least frequent) item is `r`. One
//! global RP-tree is built (its projection pass chunked across threads, the
//! inserts replayed in transaction order so the tree is bit-identical to the
//! sequential one), then each region is derived from the immutable tree with
//! no locking:
//!
//! * the singleton `TS^r` is a k-way merge over the ts-lists of all nodes in
//!   the subtrees of `r`'s node-links — exactly the list the sequential
//!   miner sees after pushing ranks `> r` up (Property 3 makes the segments
//!   disjoint);
//! * each `r`-node's conditional-pattern-base entry is its ancestor path
//!   plus its subtree-merged ts-list, reproducing the sequential
//!   `prefix_paths` at the moment `r` is bottom-most.
//!
//! Regions are queued largest-first (estimated by `support · rank`, a proxy
//! for projected-database volume times recursion depth) behind a shared
//! atomic cursor; idle workers steal the next region instead of idling
//! behind a static partition. Each worker owns a [`MineScratch`], so the
//! hot path stays allocation-free per worker.
//!
//! The output — patterns **and** the algorithmic counters of
//! [`MiningStats`] (see [`MiningStats::normalized`]) — is exactly
//! [`crate::growth::mine_resolved`]'s, asserted across thread counts by
//! `tests/parallel_equivalence.rs`; only the execution strategy differs.
//! The paper evaluates a single-threaded implementation, so this module is
//! an engineering extension, benchmarked in `rpm-bench`'s `hotpath` binary.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

use crate::engine::control::{AbortReason, RunControl};
use crate::engine::observer::{Observer, Phase, NOOP};
use crate::growth::{grow, Exec, MineScratch, MiningResult, MiningStats, PathBounds};
use crate::measures::ScanSummary;
use crate::params::ResolvedParams;
use crate::pattern::{canonical_order, RecurringPattern};
use crate::rplist::RpList;
use crate::tree::{TsTree, ROOT};

/// Mines `db` using up to `threads` worker threads (clamped to at least 1).
/// Output is identical to the sequential miner's, including the algorithmic
/// [`MiningStats`] counters.
pub fn mine_parallel(db: &TransactionDb, params: ResolvedParams, threads: usize) -> MiningResult {
    mine_parallel_engine(db, params, threads, &RunControl::new(), &NOOP).0
}

/// First-win slot for the abort reason of a parallel run: whichever worker
/// trips a limit first records why; siblings observing the shared halt flag
/// keep their (derived) reasons to themselves. Shared with the delta
/// miner's parallel frontier re-growth (`crate::delta`).
pub(crate) struct AbortCell(AtomicU8);

impl AbortCell {
    pub(crate) fn new() -> Self {
        AbortCell(AtomicU8::new(0))
    }

    pub(crate) fn record(&self, reason: AbortReason) {
        let code = match reason {
            AbortReason::Cancelled => 1,
            AbortReason::DeadlineExceeded => 2,
            AbortReason::ScratchBudgetExceeded => 3,
        };
        let _ = self.0.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> Option<AbortReason> {
        match self.0.load(Ordering::Relaxed) {
            1 => Some(AbortReason::Cancelled),
            2 => Some(AbortReason::DeadlineExceeded),
            3 => Some(AbortReason::ScratchBudgetExceeded),
            _ => None,
        }
    }
}

/// The engine-facing parallel pipeline: [`mine_parallel`] plus cooperative
/// interruption and observer hooks. Workers poll the shared control between
/// stolen regions *and* at every candidate boundary inside a region; the
/// first to trip raises a shared halt flag so siblings stop within one
/// candidate as well. Returns the (possibly partial) result and the abort
/// reason when a limit tripped.
pub(crate) fn mine_parallel_engine(
    db: &TransactionDb,
    params: ResolvedParams,
    threads: usize,
    control: &RunControl,
    observer: &dyn Observer,
) -> (MiningResult, Option<AbortReason>) {
    let threads = threads.max(1);
    observer.on_phase(Phase::ListScan);
    let list = RpList::build(db, params);
    let mut stats = MiningStats {
        candidate_items: list.len(),
        scanned_items: list.scanned_items(),
        ..MiningStats::default()
    };
    if list.is_empty() {
        return (MiningResult { patterns: Vec::new(), stats }, None);
    }
    let list = &list;
    let n = list.len();
    let nt = db.len();
    observer.on_phase(Phase::TreeBuild);

    // Second scan (Algorithm 2), chunked: workers project disjoint
    // transaction ranges into flat rank buffers, then the inserts are
    // replayed in transaction order — the tree is bit-identical to the
    // sequential build, which the region derivation below relies on.
    let mut tree = TsTree::new(n);
    if threads == 1 || nt < 2 * threads {
        let mut ranks: Vec<u32> = Vec::new();
        for t in db.transactions() {
            list.project_into(t.items(), &mut ranks);
            if !ranks.is_empty() {
                tree.insert(&ranks, t.timestamp());
            }
        }
    } else {
        let chunk = nt.div_ceil(threads);
        type Projected = (Vec<u32>, Vec<(u32, u32, Timestamp)>);
        let parts: Vec<Projected> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let lo = w * chunk;
                        let hi = nt.min(lo + chunk);
                        let mut flat: Vec<u32> = Vec::new();
                        let mut rows: Vec<(u32, u32, Timestamp)> = Vec::new();
                        let mut ranks: Vec<u32> = Vec::new();
                        for i in lo..hi {
                            let t = db.transaction(i);
                            list.project_into(t.items(), &mut ranks);
                            if !ranks.is_empty() {
                                let s0 = flat.len() as u32;
                                flat.extend_from_slice(&ranks);
                                rows.push((s0, flat.len() as u32, t.timestamp()));
                            }
                        }
                        (flat, rows)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("projection worker panicked")).collect()
        });
        for (flat, rows) in &parts {
            for &(s0, s1, ts) in rows {
                tree.insert(&flat[s0 as usize..s1 as usize], ts);
            }
        }
    }
    stats.tree_nodes += tree.node_count();

    // A single worker gains nothing from the immutable-tree region
    // derivation below (it re-merges subtrees the sequential push-ups get
    // almost for free), so mine the tree directly with the sequential
    // recursion — the output is identical either way.
    if threads == 1 {
        observer.on_phase(Phase::Growth);
        let mut scratch = MineScratch::new();
        let mut suffix: Vec<ItemId> = Vec::new();
        let mut patterns = Vec::new();
        let done = AtomicUsize::new(0);
        let mut exec =
            Exec { probe: control.start(), observer, done: &done, total: n, capture: None };
        let aborted = grow(
            &mut tree,
            list,
            params,
            &mut suffix,
            &mut patterns,
            &mut stats,
            &mut scratch,
            &mut exec,
            true,
        );
        scratch.recycle(tree);
        stats.scratch_bytes_peak = scratch.footprint_bytes();
        canonical_order(&mut patterns);
        stats.patterns_found = patterns.len();
        let reason = if aborted { exec.probe.tripped() } else { None };
        return (MiningResult { patterns, stats }, reason);
    }

    // Largest-regions-first queue: support(r) bounds the region's total
    // ts volume and the rank bounds its recursion width, so their product
    // is a cheap work estimate. Workers claim regions through a shared
    // cursor — whoever is free takes the next one.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&r| {
        std::cmp::Reverse(list.candidates()[r as usize].support as u64 * (r as u64 + 1))
    });
    observer.on_phase(Phase::Growth);
    let order = &order;
    let cursor = &AtomicUsize::new(0);
    let tree_ref = &tree;
    let halt = &AtomicBool::new(false);
    let abort_cell = &AbortCell::new();
    let done = &AtomicUsize::new(0);

    let results: Vec<(Vec<RecurringPattern>, MiningStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = MineScratch::new();
                    let mut out: Vec<RecurringPattern> = Vec::new();
                    let mut local = MiningStats::default();
                    let mut suffix: Vec<ItemId> = Vec::new();
                    let mut exec = Exec {
                        probe: control.start_with_halt(Some(halt)),
                        observer,
                        done,
                        total: n,
                        capture: None,
                    };
                    loop {
                        if let Some(r) = exec.probe.poll_with(|| scratch.footprint_bytes()) {
                            abort_cell.record(r);
                            halt.store(true, Ordering::Relaxed);
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= order.len() {
                            break;
                        }
                        if i % threads != w {
                            local.regions_stolen += 1;
                        }
                        let before = local.candidates_checked;
                        let aborted = mine_region(
                            order[i],
                            tree_ref,
                            list,
                            params,
                            &mut scratch,
                            &mut suffix,
                            &mut out,
                            &mut local,
                            &mut exec,
                        );
                        if aborted {
                            if let Some(r) = exec.probe.tripped() {
                                abort_cell.record(r);
                            }
                            halt.store(true, Ordering::Relaxed);
                            break;
                        }
                        exec.suffix_done(local.candidates_checked - before);
                    }
                    local.scratch_bytes_peak = scratch.footprint_bytes();
                    (out, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut patterns = Vec::new();
    for (mut out, local) in results {
        patterns.append(&mut out);
        merge_stats(&mut stats, &local);
    }
    canonical_order(&mut patterns);
    stats.patterns_found = patterns.len();
    (MiningResult { patterns, stats }, abort_cell.get())
}

/// Mines one region — the patterns whose lowest-ranked item is `r` — from
/// the immutable global tree, mirroring the sequential processing of rank
/// `r` exactly (same scans, same conditional tree, same counters). Returns
/// `true` when `exec`'s probe tripped mid-region.
#[allow(clippy::too_many_arguments)]
fn mine_region(
    r: u32,
    tree: &TsTree,
    list: &RpList,
    params: ResolvedParams,
    scratch: &mut MineScratch,
    suffix: &mut Vec<ItemId>,
    out: &mut Vec<RecurringPattern>,
    local: &mut MiningStats,
    exec: &mut Exec<'_>,
) -> bool {
    local.max_depth = local.max_depth.max(1);
    local.candidates_checked += 1;

    // Gather the subtree ts segments of every r-node (disjoint by
    // Property 3) for the base construction below.
    {
        let MineScratch { segs, seg_bounds, stack, .. } = &mut *scratch;
        segs.clear();
        seg_bounds.clear();
        for &rn in tree.links(r) {
            let s0 = segs.len() as u32;
            debug_assert!(stack.is_empty());
            stack.push(rn);
            while let Some(x) = stack.pop() {
                let node = tree.node(x);
                if !node.ts.is_empty() {
                    segs.push(x);
                }
                stack.extend_from_slice(&node.children);
            }
            seg_bounds.push((s0, segs.len() as u32));
        }
    }
    // The region's singleton ts-list is exactly what the RP-list build scan
    // measured for this candidate, so reuse the retained summary and
    // intervals; fall back to fusing the scan into the segments' k-way
    // merge for lists built without retention.
    let stored = list.singleton(r);
    let summary = match stored {
        Some((rec, _)) => {
            let e = &list.candidates()[r as usize];
            ScanSummary { support: e.support, runs: 0, interesting: rec, erec: e.erec }
        }
        None => {
            let MineScratch { heap, scan, segs, .. } = &mut *scratch;
            scan.reset(params.per, params.min_ps);
            heap.merge(segs.len() as u32, |i| &tree.node(segs[i as usize]).ts, |t| scan.feed(t));
            scan.finish()
        }
    };
    if summary.erec < params.min_rec {
        return false;
    }
    local.recurrence_tests += 1;
    suffix.clear();
    suffix.push(list.item_at(r));
    if summary.interesting >= params.min_rec {
        let intervals = match stored {
            Some((_, intervals)) => intervals.to_vec(),
            None => scratch.scan.intervals().to_vec(),
        };
        out.push(RecurringPattern::new(suffix.clone(), summary.support, intervals));
    }

    // Conditional-pattern-base: per r-node, the ancestor path plus the
    // node's subtree-merged ts-list (what the sequential push-ups would
    // have accumulated on it by the time rank r is bottom-most).
    {
        let MineScratch { heap, walk, path_ranks, path_ts, paths, segs, seg_bounds, .. } =
            &mut *scratch;
        path_ranks.clear();
        path_ts.clear();
        paths.clear();
        for (k, &rn) in tree.links(r).iter().enumerate() {
            walk.clear();
            let mut cur = tree.node(rn).parent;
            while cur != ROOT {
                let (rank, parent) = tree.rank_parent(cur);
                walk.push(rank);
                cur = parent;
            }
            if walk.is_empty() {
                continue;
            }
            let rs = path_ranks.len() as u32;
            path_ranks.extend(walk.iter().rev().copied());
            let t0 = path_ts.len() as u32;
            let (s0, s1) = seg_bounds[k];
            heap.merge(s1 - s0, |i| &tree.node(segs[(s0 + i) as usize]).ts, |t| path_ts.push(t));
            if path_ts.len() as u32 == t0 {
                path_ranks.truncate(rs as usize);
                continue;
            }
            paths.push(PathBounds {
                rs,
                re: path_ranks.len() as u32,
                ts: t0,
                te: path_ts.len() as u32,
            });
        }
    }
    if let Some(mut cond) = scratch.build_conditional(params) {
        local.conditional_trees += 1;
        local.tree_nodes += cond.node_count();
        let aborted = grow(&mut cond, list, params, suffix, out, local, scratch, exec, false);
        scratch.recycle(cond);
        return aborted;
    }
    false
}

fn merge_stats(into: &mut MiningStats, from: &MiningStats) {
    into.candidates_checked += from.candidates_checked;
    into.recurrence_tests += from.recurrence_tests;
    into.conditional_trees += from.conditional_trees;
    into.tree_nodes += from.tree_nodes;
    into.max_depth = into.max_depth.max(from.max_depth);
    into.scratch_bytes_peak += from.scratch_bytes_peak;
    into.regions_stolen += from.regions_stolen;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::mine_resolved_impl as mine_resolved;
    use rpm_timeseries::running_example_db;

    #[test]
    fn matches_sequential_on_running_example() {
        let db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let seq = mine_resolved(&db, params);
        for threads in [1, 2, 4, 8] {
            let par = mine_parallel(&db, params, threads);
            assert_eq!(par.patterns, seq.patterns, "threads={threads}");
            assert_eq!(
                par.stats.normalized(),
                seq.stats.normalized(),
                "stats diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_random_databases() {
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(7);
        for case in 0..8 {
            let mut b = TransactionDb::builder();
            for ts in 0..150i64 {
                let labels: Vec<String> =
                    (0..8).filter(|_| rng.random_f64() < 0.3).map(|i| format!("i{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    b.add_labeled(ts, &refs);
                }
            }
            let db = b.build();
            let params = ResolvedParams::new(
                rng.random_range(1..5i64),
                rng.random_range(2..5usize),
                rng.random_range(1..3usize),
            );
            let par = mine_parallel(&db, params, 4);
            let seq = mine_resolved(&db, params);
            assert_eq!(par.patterns, seq.patterns, "case {case} params {params:?}");
            assert_eq!(
                par.stats.normalized(),
                seq.stats.normalized(),
                "case {case} params {params:?}"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let par = mine_parallel(&db, params, 0);
        assert_eq!(par.patterns.len(), 8);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::builder().build();
        let par = mine_parallel(&db, ResolvedParams::new(1, 1, 1), 4);
        assert!(par.patterns.is_empty());
    }

    #[test]
    fn stats_aggregate_across_workers() {
        let db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let par = mine_parallel(&db, params, 3);
        assert_eq!(par.stats.patterns_found, 8);
        assert_eq!(par.stats.candidate_items, 6);
        assert!(par.stats.candidates_checked >= 6);
        assert!(par.stats.scratch_bytes_peak > 0);
    }

    #[test]
    fn single_thread_steals_nothing() {
        let db = running_example_db();
        let par = mine_parallel(&db, ResolvedParams::new(2, 3, 2), 1);
        assert_eq!(par.stats.regions_stolen, 0);
    }
}
