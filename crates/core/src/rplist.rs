//! The RP-list (paper §4.2.1, Algorithm 1): one database scan computing each
//! item's support and estimated maximum recurrence (`Erec`), then pruning
//! non-candidate items and ordering candidates by descending support.

use rpm_timeseries::{ItemId, TransactionDb};

use crate::checkpoint::ItemCheckpoint;
use crate::measures::RecurrenceScan;
use crate::params::ResolvedParams;
use crate::pattern::PeriodicInterval;

/// Per-item aggregates collected by the first database scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpListEntry {
    /// The item.
    pub item: ItemId,
    /// `Sup(item)`.
    pub support: usize,
    /// `Erec(item)` — the pruning bound of §4.1.
    pub erec: usize,
}

/// The candidate-item list of RP-growth.
///
/// Candidates (items with `Erec ≥ minRec`) are stored in **descending
/// support order** (ties broken by ascending item id) — the insertion order
/// of the RP-tree. `rank` maps an `ItemId` to its position in that order.
#[derive(Debug, Clone)]
pub struct RpList {
    candidates: Vec<RpListEntry>,
    rank: Vec<Option<u32>>,
    scanned_items: usize,
    /// Per-candidate (by rank) `Rec` and interesting intervals retained from
    /// the build scan. `None` for lists assembled from bare summaries
    /// ([`RpList::from_summaries`]), whose scan states cannot replay runs.
    singletons: Option<Vec<(usize, Vec<PeriodicInterval>)>>,
}

impl RpList {
    /// Runs Algorithm 1 over `db`.
    ///
    /// The scan keeps, per item, the timestamp of its last appearance (`idl`)
    /// and the periodic-support of its current sub-database (`ps`), folding
    /// `⌊ps/minPS⌋` into `erec` whenever a gap `> per` closes a sub-database
    /// (lines 7–12), with a final fold after the scan (line 15). That state
    /// machine is [`RecurrenceScan`], which also records each candidate's
    /// interesting intervals — transactions arrive in ascending timestamp
    /// order, so this scan sees exactly the merged singleton ts-list the
    /// miner would otherwise re-derive from the tree, and the miners reuse
    /// the retained result instead (see [`crate::growth`]).
    pub fn build(db: &TransactionDb, params: ResolvedParams) -> Self {
        Self::build_impl(db, params, |_| {})
    }

    /// [`RpList::build`] that also returns every item's resumable scan
    /// state at the end of `db`, indexed by item id — the per-item
    /// checkpoints a delta store's full refresh needs, taken from the same
    /// scan instead of a second pass over the postings.
    pub(crate) fn build_with_checkpoints(
        db: &TransactionDb,
        params: ResolvedParams,
    ) -> (Self, Vec<ItemCheckpoint>) {
        let mut checkpoints = Vec::with_capacity(db.item_count());
        let list = Self::build_impl(db, params, |scan| {
            checkpoints.push(scan.map_or_else(ItemCheckpoint::default, |scan| {
                // Each transaction holds an item once, so the support fed
                // is the item's posting-list length.
                let ck = scan.checkpoint();
                let intervals = scan.intervals().to_vec();
                ItemCheckpoint { ck, intervals, postings_len: ck.summary.support }
            }));
        });
        (list, checkpoints)
    }

    /// The scan behind [`RpList::build`]. `on_item` sees every item's scan
    /// state in id order (`None` for an item that never occurs) before the
    /// scan is finished, i.e. while its last run is still open.
    fn build_impl(
        db: &TransactionDb,
        params: ResolvedParams,
        mut on_item: impl FnMut(Option<&RecurrenceScan>),
    ) -> Self {
        let n_items = db.item_count();
        let mut scans: Vec<Option<RecurrenceScan>> = Vec::new();
        scans.resize_with(n_items, || None);
        for t in db.transactions() {
            let ts = t.timestamp();
            for &item in t.items() {
                // Every item id is interned in `db`, so its slot exists.
                if let Some(slot) = scans.get_mut(item.index()) {
                    slot.get_or_insert_with(|| {
                        let mut s = RecurrenceScan::new();
                        s.reset(params.per, params.min_ps);
                        s
                    })
                    .feed(ts);
                }
            }
        }
        let mut found: Vec<(RpListEntry, (usize, Vec<PeriodicInterval>))> = Vec::new();
        for (idx, scan) in scans.iter_mut().enumerate() {
            on_item(scan.as_ref());
            let Some(scan) = scan else { continue };
            let summary = scan.finish();
            if summary.erec >= params.min_rec {
                let entry = RpListEntry {
                    item: ItemId(idx as u32),
                    support: summary.support,
                    erec: summary.erec,
                };
                found.push((entry, (summary.interesting, scan.intervals().to_vec())));
            }
        }
        found.sort_by(|(a, _), (b, _)| insertion_order(a, b));
        let (candidates, singletons): (Vec<_>, Vec<_>) = found.into_iter().unzip();
        let rank = ranks(&candidates, n_items);
        Self { candidates, rank, scanned_items: n_items, singletons: Some(singletons) }
    }

    /// Builds an RP-list directly from per-item scan summaries — used by
    /// the incremental miner, whose `IntervalScan` states are maintained as
    /// transactions stream in instead of by a batch database scan.
    pub(crate) fn from_summaries(
        summaries: impl IntoIterator<Item = (ItemId, crate::measures::ScanSummary)>,
        n_items: usize,
        min_rec: usize,
    ) -> Self {
        let mut candidates: Vec<RpListEntry> = summaries
            .into_iter()
            .filter(|(_, s)| s.erec >= min_rec)
            .map(|(item, s)| RpListEntry { item, support: s.support, erec: s.erec })
            .collect();
        candidates.sort_by(insertion_order);
        let rank = ranks(&candidates, n_items);
        Self { candidates, rank, scanned_items: n_items, singletons: None }
    }

    /// The retained singleton scan of the candidate at `rank`: its `Rec` and
    /// interesting intervals, exactly what a merged scan of `TS^item` yields.
    /// `None` when the list was built without retention
    /// ([`RpList::from_summaries`]).
    ///
    /// # Panics
    /// Panics for out-of-range ranks.
    #[inline]
    pub(crate) fn singleton(&self, rank: u32) -> Option<(usize, &[PeriodicInterval])> {
        self.singletons.as_ref().map(|s| {
            let (rec, intervals) = &s[rank as usize];
            (*rec, intervals.as_slice())
        })
    }

    /// The candidate items in RP-tree insertion order (descending support).
    pub fn candidates(&self) -> &[RpListEntry] {
        &self.candidates
    }

    /// Number of candidate items.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no item survived pruning.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of distinct items seen by the scan (before pruning).
    pub fn scanned_items(&self) -> usize {
        self.scanned_items
    }

    /// The rank of `item` in the candidate order, or `None` if pruned.
    #[inline]
    pub fn rank(&self, item: ItemId) -> Option<u32> {
        self.rank.get(item.index()).copied().flatten()
    }

    /// The item at `rank`.
    ///
    /// # Panics
    /// Panics for out-of-range ranks.
    pub fn item_at(&self, rank: u32) -> ItemId {
        self.candidates[rank as usize].item
    }

    /// Maps a transaction's items to their candidate ranks, sorted ascending
    /// (= the paper's "sort the candidate items in `t` according to the order
    /// of CI", Algorithm 2 line 4). Pruned items are dropped.
    pub fn project(&self, items: &[ItemId]) -> Vec<u32> {
        let mut ranks = Vec::new();
        self.project_into(items, &mut ranks);
        ranks
    }

    /// Allocation-free [`RpList::project`]: clears `out` and fills it with
    /// the ascending candidate ranks of `items`.
    pub fn project_into(&self, items: &[ItemId], out: &mut Vec<u32>) {
        out.clear();
        out.extend(items.iter().filter_map(|&i| self.rank(i)));
        out.sort_unstable();
    }
}

/// Algorithm 1, line 16: candidates by descending support, ties broken by
/// ascending item id.
fn insertion_order(a: &RpListEntry, b: &RpListEntry) -> std::cmp::Ordering {
    b.support.cmp(&a.support).then_with(|| a.item.cmp(&b.item))
}

/// `item index -> rank` for candidates in insertion order.
fn ranks(candidates: &[RpListEntry], n_items: usize) -> Vec<Option<u32>> {
    let mut rank = vec![None; n_items];
    for (r, e) in candidates.iter().enumerate() {
        // Candidates are interned items, so every slot exists.
        if let Some(slot) = rank.get_mut(e.item.index()) {
            *slot = Some(r as u32);
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::running_example_db;

    fn running_list() -> (rpm_timeseries::TransactionDb, RpList) {
        let db = running_example_db();
        let list = RpList::build(&db, ResolvedParams::new(2, 3, 2));
        (db, list)
    }

    #[test]
    fn matches_figure_4_final_state() {
        // Figure 4(e)/(f): supports a:8 b:7 c:7 d:6 e:6 f:6 (g pruned, erec=1);
        // erec values a:2 b:2 c:2 d:2 e:2 f:2.
        let (db, list) = running_list();
        let labels: Vec<(&str, usize, usize)> = list
            .candidates()
            .iter()
            .map(|e| (db.items().label(e.item), e.support, e.erec))
            .collect();
        assert_eq!(
            labels,
            vec![("a", 8, 2), ("b", 7, 2), ("c", 7, 2), ("d", 6, 2), ("e", 6, 2), ("f", 6, 2),]
        );
    }

    #[test]
    fn g_is_pruned_as_in_example_11() {
        let (db, list) = running_list();
        let g = db.items().id("g").unwrap();
        assert_eq!(list.rank(g), None);
        assert_eq!(list.len(), 6);
        assert_eq!(list.scanned_items(), 7);
    }

    #[test]
    fn ranks_follow_support_descending_with_id_tiebreak() {
        let (db, list) = running_list();
        let rank_of = |l: &str| list.rank(db.items().id(l).unwrap()).unwrap();
        assert_eq!(rank_of("a"), 0);
        assert_eq!(rank_of("b"), 1); // b and c tie at 7; b has the smaller id
        assert_eq!(rank_of("c"), 2);
        assert_eq!(rank_of("d"), 3);
        assert!(rank_of("e") < rank_of("f"));
        assert_eq!(list.item_at(0), db.items().id("a").unwrap());
    }

    #[test]
    fn project_filters_and_sorts() {
        let (db, list) = running_list();
        // Transaction 1: {a,b,g} → candidate projection {a,b} (Figure 5a).
        let t1 = db.transaction(0);
        let ranks = list.project(t1.items());
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn min_rec_one_keeps_everything_with_occurrences() {
        let db = running_example_db();
        let list = RpList::build(&db, ResolvedParams::new(2, 1, 1));
        assert_eq!(list.len(), 7); // even g qualifies: every run counts
    }

    #[test]
    fn strict_params_prune_all() {
        let db = running_example_db();
        let list = RpList::build(&db, ResolvedParams::new(1, 10, 5));
        assert!(list.is_empty());
    }

    #[test]
    fn empty_db_yields_empty_list() {
        let db = rpm_timeseries::TransactionDb::builder().build();
        let list = RpList::build(&db, ResolvedParams::new(2, 1, 1));
        assert!(list.is_empty());
        assert_eq!(list.scanned_items(), 0);
    }
}
