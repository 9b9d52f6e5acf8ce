//! Seeded inputs: the two datasets and each workload's op schedule.
//!
//! The generators run with fixed seeds and scales, so every `--seed` sees
//! data of the same shape and cost. `--seed` picks the item labels (a
//! permutation), the time origin, the order of the stabs and the order of
//! the `hot_reads` side appends. Regenerating
//! the data per seed would make the benchmark measure the seed: at the hot
//! parameters twitter-sim's pattern count ranges 6.6k–23.7k over generator
//! seeds 1–6.
//!
//! Everything here is built from `Vec` order and a seeded [`Pcg32`]; no
//! hash-map iteration order reaches a schedule.

use rpm_core::{ResolvedParams, RpParams, Threshold};
use rpm_datagen::{generate_clickstream, generate_twitter, ShopConfig, TwitterConfig};
use rpm_timeseries::prng::Pcg32;
use rpm_timeseries::{DbBuilder, Timestamp, TransactionDb};

/// Generator settings of one dataset, recorded in the run header.
#[derive(Debug, Clone, Copy)]
pub struct GenSpec {
    /// `rpm-datagen` generator name.
    pub generator: &'static str,
    /// Calendar compression passed to the generator.
    pub scale: f64,
    /// The generator's own seed (fixed; see the module docs).
    pub gen_seed: u64,
    /// Share of the generated stream uploaded in setup; the rest is the
    /// append stream.
    pub prefix_share: f64,
}

/// The twitter-sim stream: 17,712 minute-transactions, ~22 tags each.
pub const TW: GenSpec =
    GenSpec { generator: "twitter-sim", scale: 0.1, gen_seed: 5, prefix_share: 0.6 };
/// The shop clickstream: 13,278 minute-transactions, ~4 categories each.
pub const SHOP: GenSpec =
    GenSpec { generator: "shop-clickstream", scale: 0.25, gen_seed: 5, prefix_share: 0.6 };

/// Append batch sizes of `ingest`, one cycle's worth (sent small and large
/// alternately). Roughly geometric, so neighbouring sizes cost about the same and a
/// percentile never sits on a jump between two far-apart sizes.
pub const INGEST_BATCHES: [usize; 23] =
    [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 17, 20, 24, 28, 33, 39, 46, 54, 63, 73, 85, 100];
/// Append batch sizes of the side appends in `explore` and `hot_reads`.
pub const SMALL_BATCHES: [usize; 4] = [1, 2, 4, 8];
/// Hits per grid point in an `explore` cycle.
pub const EXPLORE_HITS: usize = 4;
/// Stabs per grid point in an `explore` cycle.
pub const EXPLORE_STABS: usize = 8;
/// Hit/stab pairs per write in a `hot_reads` cycle.
pub const HOT_PAIRS: usize = 16;

/// The two datasets every workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ds {
    /// twitter-sim.
    Tw,
    /// shop clickstream.
    Shop,
}

impl Ds {
    /// Both datasets, in upload order.
    pub const ALL: [Ds; 2] = [Ds::Tw, Ds::Shop];

    /// The registered dataset name.
    pub fn name(self) -> &'static str {
        match self {
            Ds::Tw => "tw",
            Ds::Shop => "shop",
        }
    }

    /// Index into per-dataset arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Generator settings.
    pub fn spec(self) -> GenSpec {
        match self {
            Ds::Tw => TW,
            Ds::Shop => SHOP,
        }
    }

    /// Hot parameters fixed at upload: `per`, `minPS` as a share of the
    /// uploaded prefix (made absolute, as the server requires), `minRec`.
    /// The twitter-sim result (~5.7k patterns, ~0.7 MB of JSON) keeps hits
    /// and stabs above a millisecond: reads much smaller than that mostly
    /// time the VM's thread wake-ups, which vary with the host's load.
    pub fn hot(self, prefix_len: usize) -> ResolvedParams {
        let (per, pct, min_rec) = match self {
            Ds::Tw => (360, 3.0, 1),
            Ds::Shop => (360, 0.2, 1),
        };
        let min_ps = ((prefix_len as f64) * pct / 100.0).ceil() as usize;
        ResolvedParams::new(per, min_ps.max(1), min_rec)
    }

    /// The cheap non-hot query used for the side misses of `hot_reads`
    /// and `ingest`: a full first scan, a small tree and little growth.
    pub fn light(self) -> Query {
        match self {
            Ds::Tw => Query { per: 1440, min_ps: MinPs::Pct(20.0), min_rec: 1 },
            Ds::Shop => Query { per: 360, min_ps: MinPs::Pct(1.0), min_rec: 2 },
        }
    }
}

/// `minPS` as the client sends it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinPs {
    /// A share of the database length, in percent.
    Pct(f64),
    /// An absolute count.
    Count(usize),
}

/// One mining query: the `(per, minPS, minRec)` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Maximum periodic inter-arrival time.
    pub per: Timestamp,
    /// Minimum periodic support.
    pub min_ps: MinPs,
    /// Minimum number of interesting intervals.
    pub min_rec: usize,
}

impl Query {
    /// The query string the server parses.
    pub fn to_query(self) -> String {
        let min_ps = match self.min_ps {
            MinPs::Pct(p) => format!("{p}%25"),
            MinPs::Count(c) => c.to_string(),
        };
        format!("per={}&min-ps={min_ps}&min-rec={}", self.per, self.min_rec)
    }

    /// The parameters the server resolves this query to on a database of
    /// `db_len` transactions.
    pub fn resolve(self, db_len: usize) -> ResolvedParams {
        let threshold = match self.min_ps {
            MinPs::Pct(p) => Threshold::pct(p),
            MinPs::Count(c) => Threshold::Count(c),
        };
        RpParams::try_with_threshold(self.per, threshold, self.min_rec)
            .and_then(|p| p.try_resolve(db_len))
            .expect("benchmark queries are valid")
    }

    /// The query naming exactly the hot parameters.
    pub fn hot(hot: ResolvedParams) -> Query {
        Query { per: hot.per, min_ps: MinPs::Count(hot.min_ps), min_rec: hot.min_rec }
    }
}

/// The `explore` grid: the paper's Fig 7–9 axes (`per`, `minPS`,
/// `minRec`) on both datasets, none at the hot parameters. Mine times run
/// from ~20 ms to ~0.9 s, and result sizes up to ~21k patterns, with no
/// large gap between neighbours, so the miss and stab percentiles move
/// smoothly.
pub fn explore_grid() -> Vec<(Ds, Query)> {
    let q = |per, pct, min_rec| Query { per, min_ps: MinPs::Pct(pct), min_rec };
    vec![
        (Ds::Tw, q(360, 2.0, 1)),
        (Ds::Tw, q(360, 2.5, 1)),
        (Ds::Tw, q(720, 3.0, 1)),
        (Ds::Tw, q(1440, 4.0, 1)),
        (Ds::Tw, q(720, 4.0, 1)),
        (Ds::Tw, q(360, 4.0, 1)),
        (Ds::Tw, q(1440, 5.0, 1)),
        (Ds::Tw, q(1440, 6.0, 1)),
        (Ds::Tw, q(720, 2.5, 2)),
        (Ds::Tw, q(360, 2.0, 3)),
        (Ds::Tw, q(1440, 3.0, 2)),
        (Ds::Tw, q(720, 5.0, 2)),
        (Ds::Tw, q(720, 2.5, 3)),
        (Ds::Shop, q(360, 0.07, 1)),
        (Ds::Shop, q(360, 0.1, 1)),
        (Ds::Shop, q(1440, 0.1, 1)),
        (Ds::Shop, q(1440, 0.2, 1)),
        (Ds::Shop, q(720, 0.2, 1)),
        (Ds::Shop, q(720, 0.1, 2)),
        (Ds::Shop, q(360, 0.2, 2)),
        (Ds::Shop, q(1440, 0.3, 2)),
    ]
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST …/mine` that must miss the result cache.
    Miss { ds: Ds, q: Query },
    /// `POST …/mine` that must hit the result cache.
    Hit { ds: Ds, q: Query },
    /// `GET …/active?at=` stab.
    Stab { ds: Ds, q: Query, at: Timestamp },
    /// `POST …/append` of the next `n` stream transactions.
    Append { ds: Ds, n: usize },
}

/// The four op types; latencies are never pooled across them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Cache-miss mine.
    Miss,
    /// Cache-hit mine.
    Hit,
    /// Stab.
    Stab,
    /// Append.
    Append,
}

impl OpKind {
    /// All op types, in report order.
    pub const ALL: [OpKind; 4] = [OpKind::Miss, OpKind::Hit, OpKind::Stab, OpKind::Append];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Miss => "miss",
            OpKind::Hit => "hit",
            OpKind::Stab => "stab",
            OpKind::Append => "append",
        }
    }

    /// Index into per-op-type arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

impl Op {
    /// The op's type.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Miss { .. } => OpKind::Miss,
            Op::Hit { .. } => OpKind::Hit,
            Op::Stab { .. } => OpKind::Stab,
            Op::Append { .. } => OpKind::Append,
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Parameter sweep of cache-miss mines.
    Explore,
    /// Cache-hit mines and stabs on one warm dataset.
    HotReads,
    /// Append batches, each followed by reads of the patched result.
    Ingest,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore" => Some(Workload::Explore),
            "hot_reads" => Some(Workload::HotReads),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::HotReads => "hot_reads",
            Workload::Ingest => "ingest",
        }
    }
}

/// A generated dataset: the relabelled, time-shifted stream and the split
/// between the uploaded prefix and the append stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Every generated transaction.
    pub all: TransactionDb,
    /// Transactions uploaded in setup.
    pub prefix_len: usize,
}

impl Stream {
    /// The uploaded prefix as a database of its own.
    pub fn prefix(&self) -> TransactionDb {
        let mut b = DbBuilder::with_capacity(self.prefix_len);
        for item in self.all.items().iter() {
            b.items_mut().intern(&item.label);
        }
        for t in &self.all.transactions()[..self.prefix_len] {
            b.add_ids(t.timestamp(), t.items().to_vec());
        }
        b.build()
    }

    /// Append-stream transactions `from..from + n` as `(ts, labels)`. The
    /// held-out part repeats in laps, each shifted past the previous one,
    /// so no run can use the stream up.
    pub fn rows(&self, from: usize, n: usize) -> Vec<(Timestamp, Vec<String>)> {
        let held = &self.all.transactions()[self.prefix_len..];
        let first = held[0].timestamp();
        let lap_shift = held[held.len() - 1].timestamp() - first + 1;
        (from..from + n)
            .map(|k| {
                let t = &held[k % held.len()];
                let ts = t.timestamp() + lap_shift * (k / held.len()) as Timestamp;
                (ts, t.items().iter().map(|&i| self.all.items().label(i).to_string()).collect())
            })
            .collect()
    }

    /// Time span of the uploaded prefix.
    pub fn prefix_span(&self) -> (Timestamp, Timestamp) {
        let t = self.all.transactions();
        (t[0].timestamp(), t[self.prefix_len - 1].timestamp())
    }
}

/// Both datasets for one seed.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Indexed by [`Ds::idx`].
    pub streams: [Stream; 2],
}

impl Corpus {
    /// Generates the corpus for `seed`.
    pub fn new(seed: u64) -> Corpus {
        let mut rng = Pcg32::new(seed, 0x5e_ed_c0_de);
        let tw = generate_twitter(&TwitterConfig {
            scale: TW.scale,
            seed: TW.gen_seed,
            ..TwitterConfig::default()
        })
        .db;
        let shop = generate_clickstream(&ShopConfig {
            scale: SHOP.scale,
            seed: SHOP.gen_seed,
            ..ShopConfig::default()
        })
        .db;
        let streams = [relabel(&tw, "#h", TW, &mut rng), relabel(&shop, "c", SHOP, &mut rng)];
        Corpus { streams }
    }

    /// The stream of `ds`.
    pub fn stream(&self, ds: Ds) -> &Stream {
        &self.streams[ds.idx()]
    }

    /// The hot parameters `ds` is uploaded with.
    pub fn hot(&self, ds: Ds) -> ResolvedParams {
        ds.hot(self.stream(ds).prefix_len)
    }
}

/// Renames every item to `prefix` plus a fixed-width, seed-permuted number
/// and moves the time origin by a seeded whole number of days. Item ids,
/// transaction contents and the gaps between timestamps are untouched, so
/// mining cost does not depend on the seed; fixed-width labels and a
/// seven-digit time origin keep the response sizes identical too.
fn relabel(db: &TransactionDb, prefix: &str, spec: GenSpec, rng: &mut Pcg32) -> Stream {
    let n = db.item_count();
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, rng);
    // Seven digits in text, four varint bytes in `RPMB`, for every seed.
    let origin = 2_000_000 + 1440 * rng.random_range(0..64i64);
    let mut b = DbBuilder::with_capacity(db.len());
    for &p in &perm {
        b.items_mut().intern(&format!("{prefix}{p:04}"));
    }
    for t in db.transactions() {
        b.add_ids(t.timestamp() + origin, t.items().to_vec());
    }
    let all = b.build();
    let prefix_len = ((all.len() as f64) * spec.prefix_share) as usize;
    Stream { all, prefix_len }
}

/// Fisher–Yates with the benchmark's PRNG.
fn shuffle<T>(v: &mut [T], rng: &mut Pcg32) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// `n` timestamps, the midpoints of `n` equal strata of `[lo, hi]`, in
/// seeded order: spread over the series, so every run's stabs see the same
/// mix of busy and quiet periods. Only the order and the time origin depend
/// on the seed; a stab's cost depends on where in the series it falls, and
/// drawing the point within its stratum moved `stab_ms_p50` between seeds.
fn stratified(lo: Timestamp, hi: Timestamp, n: usize, rng: &mut Pcg32) -> Vec<Timestamp> {
    let width = ((hi - lo + 1) / n as Timestamp).max(1);
    let mut out: Vec<Timestamp> = (0..n as Timestamp).map(|k| lo + k * width + width / 2).collect();
    shuffle(&mut out, rng);
    out
}

/// One cycle of `workload`'s op schedule. Every run repeats whole cycles of
/// this list, so every run times the same multiset of ops.
pub fn schedule(workload: Workload, corpus: &Corpus, seed: u64) -> Vec<Op> {
    let mut rng = Pcg32::new(seed, 0x5c_4e_d0_1e ^ workload as u64);
    let tw = corpus.stream(Ds::Tw);
    let (lo, hi) = tw.prefix_span();
    let hot = Query::hot(corpus.hot(Ds::Tw));
    let mut ops = Vec::new();
    match workload {
        Workload::Explore => {
            // Each grid point is mined, fetched again a few times, stabbed
            // across its series, and then its dataset grows by a small
            // batch: the append retires every cached result of the old
            // content, so the next cycle misses again. Each dataset's
            // appends walk the batch sizes in turn. The grid's order is
            // fixed: which results share the cache when the largest is
            // mined sets the server's peak memory, which ranged over
            // 69-82 MB across seeded orders.
            let mut appended = [0; 2];
            for (ds, q) in explore_grid() {
                let (lo, hi) = corpus.stream(ds).prefix_span();
                ops.push(Op::Miss { ds, q });
                for _ in 0..EXPLORE_HITS {
                    ops.push(Op::Hit { ds, q });
                }
                for at in stratified(lo, hi, EXPLORE_STABS, &mut rng) {
                    ops.push(Op::Stab { ds, q, at });
                }
                let n = SMALL_BATCHES[appended[ds.idx()] % SMALL_BATCHES.len()];
                appended[ds.idx()] += 1;
                ops.push(Op::Append { ds, n });
            }
        }
        Workload::HotReads => {
            // Reads of the warm twitter-sim entry, then a write and a miss
            // on the side dataset, so the twitter-sim index is never
            // rebuilt.
            let mut small = SMALL_BATCHES.to_vec();
            shuffle(&mut small, &mut rng);
            let mut stabs = stratified(lo, hi, HOT_PAIRS * small.len(), &mut rng).into_iter();
            for n in small {
                for at in stabs.by_ref().take(HOT_PAIRS) {
                    ops.push(Op::Hit { ds: Ds::Tw, q: hot });
                    ops.push(Op::Stab { ds: Ds::Tw, q: hot, at });
                }
                ops.push(Op::Append { ds: Ds::Shop, n });
                ops.push(Op::Miss { ds: Ds::Shop, q: Ds::Shop.light() });
            }
        }
        Workload::Ingest => {
            // The batch order is fixed, not seeded: what a large append
            // costs depends on the appends before it (the pattern store's
            // resume state), and seeded orders moved `append_ms_p90` by up
            // to 1.6× between seeds. Small and large sizes alternate.
            let (small, large) = INGEST_BATCHES.split_at(INGEST_BATCHES.len() / 2);
            let mut batches = Vec::with_capacity(INGEST_BATCHES.len());
            for k in 0..large.len() {
                batches.extend(small.get(k));
                batches.push(large[large.len() - 1 - k]);
            }
            let stabs = stratified(lo, hi, batches.len(), &mut rng);
            for (n, at) in batches.into_iter().zip(stabs) {
                ops.push(Op::Append { ds: Ds::Tw, n });
                ops.push(Op::Hit { ds: Ds::Tw, q: hot });
                ops.push(Op::Stab { ds: Ds::Tw, q: hot, at });
                ops.push(Op::Miss { ds: Ds::Tw, q: Ds::Tw.light() });
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte the server would receive for one seed: both uploads, the
    /// first stream laps, and each workload's schedule.
    fn fingerprint_inputs(seed: u64) -> (Vec<u8>, Vec<Vec<Op>>) {
        let corpus = Corpus::new(seed);
        let mut bytes = Vec::new();
        for ds in Ds::ALL {
            let s = corpus.stream(ds);
            bytes.extend(rpm_timeseries::to_bytes(&s.prefix()));
            let total = s.all.len() - s.prefix_len;
            for (ts, labels) in s.rows(0, total + 50) {
                bytes.extend(format!("{ts}\t{}\n", labels.join(" ")).into_bytes());
            }
        }
        let schedules = [Workload::Explore, Workload::HotReads, Workload::Ingest]
            .into_iter()
            .map(|w| schedule(w, &corpus, seed))
            .collect();
        (bytes, schedules)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a_bytes, a_ops) = fingerprint_inputs(7);
        let (b_bytes, b_ops) = fingerprint_inputs(7);
        assert!(a_bytes == b_bytes, "corpus differs between two builds of seed 7");
        assert_eq!(a_ops, b_ops);
        let (c_bytes, c_ops) = fingerprint_inputs(8);
        assert!(a_bytes != c_bytes, "seeds 7 and 8 gave the same corpus");
        for (a, c) in a_ops.iter().zip(&c_ops) {
            assert_ne!(a, c, "seeds 7 and 8 gave the same schedule");
        }
    }

    #[test]
    fn seeds_keep_the_data_shape() {
        let a = Corpus::new(1);
        let b = Corpus::new(2);
        for ds in Ds::ALL {
            let (x, y) = (a.stream(ds), b.stream(ds));
            assert_eq!(x.all.len(), y.all.len());
            assert_eq!(x.prefix_len, y.prefix_len);
            assert_eq!(
                rpm_timeseries::to_bytes(&x.all).len(),
                rpm_timeseries::to_bytes(&y.all).len()
            );
            for (s, t) in x.all.transactions().iter().zip(y.all.transactions()) {
                assert_eq!(s.items(), t.items(), "same ids, only labels differ");
            }
        }
    }

    #[test]
    fn every_workload_times_every_op_type() {
        let corpus = Corpus::new(3);
        for w in [Workload::Explore, Workload::HotReads, Workload::Ingest] {
            let ops = schedule(w, &corpus, 3);
            for kind in OpKind::ALL {
                assert!(ops.iter().any(|op| op.kind() == kind), "{w:?} lacks {kind:?}");
            }
        }
    }

    #[test]
    fn stream_laps_keep_time_increasing() {
        let corpus = Corpus::new(4);
        let s = corpus.stream(Ds::Shop);
        let held = s.all.len() - s.prefix_len;
        let rows = s.rows(0, 2 * held + 10);
        assert!(rows[0].0 > s.prefix_span().1);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "timestamps strictly increase");
        assert_eq!(rows[held].1, rows[0].1, "second lap repeats the first");
    }

    #[test]
    fn explore_grid_never_hits_hot_parameters() {
        let corpus = Corpus::new(5);
        for (ds, q) in explore_grid() {
            let s = corpus.stream(ds);
            assert_ne!(q.resolve(s.prefix_len), corpus.hot(ds));
        }
    }
}
