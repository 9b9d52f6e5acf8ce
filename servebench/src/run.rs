//! The closed-loop executor: setup, the timed cycles of a workload's op
//! schedule, and the correctness gate. The same executor drives the real
//! server (untraced pass) and the traced in-process server.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use rpm_core::pattern::RecurringPattern;
use rpm_core::{
    write_patterns_json, IncrementalMiner, MiningSession, PatternIndex, PatternStore,
    ResolvedParams,
};
use rpm_timeseries::{Timestamp, TransactionDb};

use crate::calib::{self, Calibrator};
use crate::client::{request, Reply};
use crate::corpus::{Corpus, Ds, Op, OpKind, Query, Workload};

/// Setups per untraced run; `setup_s` and `cold_mine_ms_p50` are their
/// medians.
pub const SETUP_REPS: usize = 7;
/// `GET /v1/healthz` round trips timed after the timed phase.
pub const FLOOR_PROBES: usize = 200;
/// `ingest` cycles between re-uploads of its dataset, which bound how far
/// the data grows during a run.
pub const EPOCH_CYCLES: usize = 2;
/// Periods (cycles; epochs of `ingest`) after which the server's peak
/// memory is read: the same work in every run, however fast the machine.
pub const RSS_PERIODS: usize = 2;

/// The datasets a workload uploads.
pub fn datasets(workload: Workload) -> &'static [Ds] {
    match workload {
        Workload::Explore | Workload::HotReads => &Ds::ALL,
        Workload::Ingest => &[Ds::Tw],
    }
}

/// JSON-lines rendering of `patterns`, exactly as the server writes it.
pub fn patterns_json(db: &TransactionDb, patterns: &[RecurringPattern]) -> Vec<u8> {
    let mut body = Vec::new();
    write_patterns_json(&mut body, db.items(), patterns).expect("writing to a Vec cannot fail");
    body
}

/// A batch mine of `db`: the reference every served result is held to.
pub fn batch_mine(db: &TransactionDb, params: ResolvedParams) -> Vec<RecurringPattern> {
    let session = MiningSession::builder().resolved(params).build().expect("valid parameters");
    session.mine(db).expect("non-empty database").into_result().patterns
}

/// The client's replica of one dataset: replays every append so reply
/// fingerprints and hot results can be checked.
#[derive(Clone)]
struct Replica {
    miner: IncrementalMiner,
    store: PatternStore,
    /// Next append-stream row.
    cursor: usize,
    /// Hot result of the current content, with its index; `None` after an
    /// append until needed again.
    hot: Option<(Vec<u8>, PatternIndex)>,
    /// Expected stab bodies of the current content, by timestamp.
    stabs: BTreeMap<Timestamp, Vec<u8>>,
}

impl Replica {
    fn new(db: &TransactionDb, hot: ResolvedParams) -> Replica {
        let mut miner = IncrementalMiner::with_items(db.items().clone(), hot);
        for t in db.transactions() {
            miner.append_ids(t.timestamp(), t.items().to_vec()).expect("ordered stream");
        }
        Replica { miner, store: PatternStore::new(), cursor: 0, hot: None, stabs: BTreeMap::new() }
    }

    fn append(&mut self, rows: &[(Timestamp, Vec<String>)]) {
        for (ts, labels) in rows {
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            self.miner.append(*ts, &refs).expect("ordered stream");
        }
        self.cursor += rows.len();
        self.hot = None;
        self.stabs.clear();
    }

    /// The hot result's body and index (delta-mined like the server does;
    /// the final check holds it to a batch mine).
    fn hot(&mut self) -> &(Vec<u8>, PatternIndex) {
        if self.hot.is_none() {
            let (result, _) = self.miner.mine_delta(&mut self.store);
            let body = patterns_json(self.miner.db(), &result.patterns);
            self.hot = Some((body, PatternIndex::build(&result.patterns)));
        }
        self.hot.as_ref().expect("just filled")
    }
}

/// Latencies and counts of one pass, per op type.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Latency samples in ms, indexed by [`OpKind::idx`].
    pub lat_ms: [Vec<f64>; 4],
    /// Ops attempted, per op type.
    pub attempted: [usize; 4],
    /// Ops failed (non-2xx, 206, or a body that failed the gate).
    pub failed: [usize; 4],
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Appends answered `patched:false` (a full re-mine, not a failure).
    pub unpatched: usize,
    /// Transactions appended in the timed phase.
    pub appended_tx: usize,
    /// Sum of op latencies in the timed phase, in seconds.
    pub busy_s: f64,
    /// Whole cycles run.
    pub cycles: usize,
    /// Setup wall times, in seconds.
    pub setup_s: Vec<f64>,
    /// Cold hot-parameter mines of twitter-sim in setup, in ms.
    pub cold_mine_ms: Vec<f64>,
    /// `GET /v1/healthz` round trips, in µs.
    pub floor_us: Vec<f64>,
    /// Peak resident memory of the server process, in MB.
    pub rss_peak_mb: f64,
    /// Calibration kernel times (see [`crate::calib`]).
    pub calib: calib::Samples,
}

impl PassResult {
    fn fail(&mut self, kind: OpKind, why: String) {
        self.failed[kind.idx()] += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// What the timed phase measures besides the ops.
pub struct Probes<'a> {
    /// The calibration kernel, run between ops every [`calib::EVERY`].
    pub calib: &'a Calibrator,
    /// Peak resident memory of the server, in MB.
    pub peak_mb: &'a dyn Fn() -> f64,
}

/// Where the executor sends requests, and how it labels them.
pub struct Target<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Called before every request with a fresh op id and the op's type
    /// (`None` for setup and probe requests); the traced server files its
    /// spans under it.
    pub on_op: &'a dyn Fn(u32, Option<OpKind>),
}

/// The last mined or hot result read: dataset, query, body, and the
/// reference patterns when a reference mine of that content was made.
type LastRead = (Ds, Query, Vec<u8>, Option<Vec<RecurringPattern>>);

/// A workload's client: inputs, schedule, replicas and reference results.
pub struct Client<'a> {
    corpus: &'a Corpus,
    workload: Workload,
    schedule: &'a [Op],
    /// Expected miss bodies of the first cycle (same index as the schedule).
    first_cycle: Vec<Option<(Vec<u8>, Vec<RecurringPattern>)>>,
    /// Replicas of the uploaded prefixes, their hot results computed.
    uploaded: BTreeMap<Ds, Replica>,
    replicas: BTreeMap<Ds, Replica>,
    last_read: Option<LastRead>,
    next_op: u32,
    times: Vec<(u32, Instant, Instant)>,
    /// Cycles run so far.
    cycle: usize,
    /// When the calibration kernel last ran.
    calibrated: Option<Instant>,
    /// Seconds spent running them.
    spent_s: f64,
}

impl<'a> Client<'a> {
    /// Computes every reference the gate needs before anything is timed:
    /// the hot result of each upload, and a local mine for each miss of
    /// the first cycle on the data that miss will see.
    pub fn new(corpus: &'a Corpus, workload: Workload, schedule: &'a [Op]) -> Client<'a> {
        let mut uploaded = fresh_replicas(corpus, workload);
        for r in uploaded.values_mut() {
            r.hot();
        }
        let mut replicas = uploaded.clone();
        for (&ds, r) in replicas.iter_mut() {
            r.cursor = epoch_cursor(corpus, workload, ds, 0);
        }
        let mut first_cycle = Vec::with_capacity(schedule.len());
        for op in schedule {
            first_cycle.push(match op {
                Op::Miss { ds, q } => {
                    let db = replicas[ds].miner.db();
                    let patterns = batch_mine(db, q.resolve(db.len()));
                    Some((patterns_json(db, &patterns), patterns))
                }
                Op::Append { ds, n } => {
                    let r = replicas.get_mut(ds).expect("workload dataset");
                    let rows = corpus.stream(*ds).rows(r.cursor, *n);
                    r.append(&rows);
                    None
                }
                _ => None,
            });
        }
        Client {
            corpus,
            workload,
            schedule,
            first_cycle,
            replicas: uploaded.clone(),
            uploaded,
            last_read: None,
            next_op: 0,
            times: Vec::new(),
            cycle: 0,
            calibrated: None,
            spent_s: 0.0,
        }
    }

    fn send(
        &mut self,
        t: &Target,
        kind: Option<OpKind>,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> (std::io::Result<Reply>, f64) {
        self.next_op += 1;
        (t.on_op)(self.next_op, kind);
        let started = Instant::now();
        let reply = request(t.addr, method, target, body);
        let done = Instant::now();
        self.times.push((self.next_op, started, done));
        (reply, (done - started).as_secs_f64() * 1e3)
    }

    /// Every request sent: op id, start, and when the reply was read.
    pub fn times(&self) -> &[(u32, Instant, Instant)] {
        &self.times
    }

    /// Uploads every dataset to a fresh server and mines each once at its
    /// hot parameters (the cold mine), then warms the stab index where the
    /// workload reads it. Records the setup wall time and the twitter-sim
    /// cold mine.
    pub fn setup(&mut self, t: &Target, out: &mut PassResult) -> Result<(), String> {
        let started = Instant::now();
        let mut cold_ms = 0.0;
        for &ds in datasets(self.workload) {
            let ms = self.upload(t, ds, false)?;
            if ds == Ds::Tw {
                cold_ms = ms;
            }
        }
        if self.workload == Workload::HotReads {
            let (lo, _) = self.corpus.stream(Ds::Tw).prefix_span();
            let q = Query::hot(self.corpus.hot(Ds::Tw));
            let target = format!("/v1/datasets/tw/active?{}&at={lo}", q.to_query());
            let (reply, _) = self.send(t, None, "GET", &target, b"");
            expect_status(reply, 200, "index warm-up")?;
        }
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.cold_mine_ms.push(cold_ms);
        Ok(())
    }

    /// Uploads the prefix of `ds` and mines it at its hot parameters; returns
    /// that cold mine's latency in ms.
    fn upload(&mut self, t: &Target, ds: Ds, replace: bool) -> Result<f64, String> {
        let stream = self.corpus.stream(ds);
        let hot = self.corpus.hot(ds);
        let body = rpm_timeseries::to_bytes(&stream.prefix());
        let target = format!(
            "/v1/datasets/{}?per={}&min-ps={}&min-rec={}&replace={replace}",
            ds.name(),
            hot.per,
            hot.min_ps,
            hot.min_rec
        );
        let (reply, _) = self.send(t, None, "POST", &target, &body);
        expect_status(reply, 201, "upload")?;
        let target = format!("/v1/datasets/{}/mine?{}", ds.name(), Query::hot(hot).to_query());
        let (reply, ms) = self.send(t, None, "POST", &target, b"");
        let reply = expect_status(reply, 200, "cold mine")?;
        if reply.body != self.uploaded[&ds].hot.as_ref().expect("computed up front").0 {
            return Err(format!("{} cold mine differs from the reference", ds.name()));
        }
        Ok(ms)
    }

    /// Points the replicas at the uploaded prefixes and the stream at the
    /// start of `epoch`.
    fn start_epoch(&mut self, epoch: usize) {
        self.replicas = self.uploaded.clone();
        for (&ds, r) in self.replicas.iter_mut() {
            r.cursor = epoch_cursor(self.corpus, self.workload, ds, epoch);
        }
        self.last_read = None;
    }

    /// Runs whole cycles of the schedule, continuing from the last call,
    /// until `seconds` have been spent in this method over all calls and
    /// `cycles` cycles are done. Every [`EPOCH_CYCLES`] cycles of `ingest`
    /// the dataset is uploaded again, outside the timed ops; `ingest` stops
    /// only at the end of an epoch, because an epoch's first cycle appends
    /// to a smaller dataset than its second and costs differently. Between
    /// ops the calibration kernel runs every [`calib::EVERY`], so that it
    /// samples the machine at the same moments as the ops; after
    /// [`RSS_PERIODS`] periods the server's peak memory is read.
    pub fn timed(
        &mut self,
        t: &Target,
        probes: &Probes,
        seconds: f64,
        cycles: usize,
        out: &mut PassResult,
    ) {
        let period = match self.workload {
            Workload::Ingest => EPOCH_CYCLES,
            Workload::Explore | Workload::HotReads => 1,
        };
        while self.cycle < cycles || self.spent_s < seconds || self.cycle % period != 0 {
            let started = Instant::now();
            let cycle = self.cycle;
            if cycle == 0 {
                self.start_epoch(0);
            } else if self.workload == Workload::Ingest && cycle % EPOCH_CYCLES == 0 {
                if let Err(why) = self.upload(t, Ds::Tw, true) {
                    out.fail(OpKind::Append, format!("epoch reset: {why}"));
                }
                self.start_epoch(cycle / EPOCH_CYCLES);
            }
            let mut kernel_s = 0.0;
            for i in 0..self.schedule.len() {
                self.run_op(t, i, cycle == 0, out);
                if self.calibrated.is_none_or(|at| at.elapsed() >= calib::EVERY) {
                    let before = Instant::now();
                    if let Err(e) = probes.calib.sample(&mut out.calib) {
                        out.fail(self.schedule[i].kind(), format!("calibration: {e}"));
                    }
                    self.calibrated = Some(Instant::now());
                    kernel_s += before.elapsed().as_secs_f64();
                }
            }
            self.cycle += 1;
            self.spent_s += started.elapsed().as_secs_f64() - kernel_s;
            if self.cycle == RSS_PERIODS * period {
                out.rss_peak_mb = (probes.peak_mb)();
            }
        }
        out.cycles = self.cycle;
    }

    fn run_op(&mut self, t: &Target, i: usize, first: bool, out: &mut PassResult) {
        let op = self.schedule[i].clone();
        let kind = op.kind();
        let (method, target, body, rows) = match &op {
            Op::Miss { ds, q } | Op::Hit { ds, q } => (
                "POST",
                format!("/v1/datasets/{}/mine?{}", ds.name(), q.to_query()),
                vec![],
                vec![],
            ),
            Op::Stab { ds, q, at } => (
                "GET",
                format!("/v1/datasets/{}/active?{}&at={at}", ds.name(), q.to_query()),
                vec![],
                vec![],
            ),
            Op::Append { ds, n } => {
                let rows = self.corpus.stream(*ds).rows(self.replicas[ds].cursor, *n);
                let text: String =
                    rows.iter().map(|(ts, l)| format!("{ts}\t{}\n", l.join(" "))).collect();
                ("POST", format!("/v1/datasets/{}/append", ds.name()), text.into_bytes(), rows)
            }
        };
        out.attempted[kind.idx()] += 1;
        let (reply, ms) = self.send(t, Some(kind), method, &target, &body);
        out.busy_s += ms / 1e3;
        let reply = match reply {
            Ok(r) if r.status == 200 => r,
            Ok(r) => return out.fail(kind, format!("{target}: status {}", r.status)),
            Err(e) => return out.fail(kind, format!("{target}: {e}")),
        };
        out.lat_ms[kind.idx()].push(ms);
        if let Err(why) = self.check(&op, i, first, &reply, rows, out) {
            out.fail(kind, format!("{target}: {why}"));
        }
    }

    /// The correctness gate for one reply.
    fn check(
        &mut self,
        op: &Op,
        i: usize,
        first: bool,
        reply: &Reply,
        rows: Vec<(Timestamp, Vec<String>)>,
        out: &mut PassResult,
    ) -> Result<(), String> {
        match op {
            Op::Miss { ds, q } => {
                if reply.header("X-Rpm-Cache") != Some("miss") {
                    return Err("expected a cache miss".into());
                }
                let mut patterns = None;
                if first {
                    let (want, reference) =
                        self.first_cycle[i].as_ref().expect("computed up front");
                    if &reply.body != want {
                        return Err("miss body differs from the reference mine".into());
                    }
                    patterns = Some(reference.clone());
                }
                self.last_read = Some((*ds, *q, reply.body.clone(), patterns));
                Ok(())
            }
            Op::Hit { ds, q } => {
                if reply.header("X-Rpm-Cache") != Some("hit") {
                    return Err("expected a cache hit".into());
                }
                let r = self.replicas.get_mut(ds).expect("workload dataset");
                if *q == Query::hot(r.miner.params()) {
                    // The hot entry was mined at upload and patched by every
                    // append since. Its reference is a delta mine of the
                    // replica, made on the first cycle and whenever it is
                    // already at hand (always, for a dataset never appended
                    // to); later cycles rest on the final batch check.
                    if (first || r.hot.is_some()) && reply.body != r.hot().0 {
                        return Err("hit body differs from the replica's hot result".into());
                    }
                    self.last_read = Some((*ds, *q, reply.body.clone(), None));
                    return Ok(());
                }
                match &self.last_read {
                    Some((d, m, body, _)) if d == ds && m == q && *body == reply.body => Ok(()),
                    Some((d, m, _, _)) if d == ds && m == q => {
                        Err("hit body differs from the mined body".into())
                    }
                    _ => Err("a non-hot hit must follow the miss of its query".into()),
                }
            }
            Op::Stab { ds, q, at } => {
                let r = self.replicas.get_mut(ds).expect("workload dataset");
                let want = if *q == Query::hot(r.miner.params()) && (first || r.hot.is_some()) {
                    r.hot();
                    let (_, index) = r.hot.as_ref().expect("just computed");
                    let db = r.miner.db();
                    r.stabs.entry(*at).or_insert_with(|| active_json(db, index, *at)).clone()
                } else {
                    match &self.last_read {
                        Some((d, m, _, Some(patterns))) if d == ds && m == q => {
                            active_json(r.miner.db(), &PatternIndex::build(patterns), *at)
                        }
                        // No reference mine of this content: hold the stab to
                        // the result it was cut from.
                        Some((d, m, body, None)) if d == ds && m == q => {
                            let mined: std::collections::BTreeSet<&[u8]> =
                                body.split(|&b| b == b'\n').collect();
                            if reply.body.split(|&b| b == b'\n').all(|l| mined.contains(l)) {
                                return Ok(());
                            }
                            return Err("stab row missing from the result it was cut from".into());
                        }
                        _ => return Err("a stab must follow a read of its query".into()),
                    }
                };
                if reply.body != want {
                    return Err("stab differs from PatternIndex::active_at".into());
                }
                Ok(())
            }
            Op::Append { ds, n } => {
                let r = self.replicas.get_mut(ds).expect("workload dataset");
                r.append(&rows);
                out.appended_tx += n;
                let want = format!("{:016x}", r.miner.fingerprint());
                if reply.json_field("fingerprint") != Some(want.as_str()) {
                    return Err("fingerprint differs from the replayed miner".into());
                }
                if reply.json_field("patched") != Some("true") {
                    out.unpatched += 1;
                }
                Ok(())
            }
        }
    }

    /// After the timed phase: the hot result of every dataset equals a batch
    /// mine of everything uploaded and appended.
    pub fn final_check(&mut self, t: &Target) -> Result<(), String> {
        for &ds in datasets(self.workload) {
            let r = &self.replicas[&ds];
            let db = r.miner.db();
            let hot = r.miner.params();
            let want = patterns_json(db, &batch_mine(db, hot));
            let target = format!("/v1/datasets/{}/mine?{}", ds.name(), Query::hot(hot).to_query());
            let (reply, _) = self.send(t, None, "POST", &target, b"");
            let reply = expect_status(reply, 200, "final hot mine")?;
            if reply.body != want {
                return Err(format!("{}: final hot result differs from a batch mine", ds.name()));
            }
        }
        Ok(())
    }

    /// `GET /v1/healthz` round trips: connect, accept, queue hand-off,
    /// worker wake, and the smallest parse and write.
    pub fn floor(&mut self, t: &Target, out: &mut PassResult) -> Result<(), String> {
        for _ in 0..FLOOR_PROBES {
            let (reply, ms) = self.send(t, None, "GET", "/v1/healthz", b"");
            expect_status(reply, 200, "healthz")?;
            out.floor_us.push(ms * 1e3);
        }
        Ok(())
    }
}

/// The first append-stream row of `epoch`. `ingest` starts every epoch one
/// lap further along the stream: the appended content is the same up to a
/// time shift, with the same gap after the prefix, so each epoch costs the
/// same, yet no fingerprint repeats and no cached result carries over.
fn epoch_cursor(corpus: &Corpus, workload: Workload, ds: Ds, epoch: usize) -> usize {
    match workload {
        Workload::Ingest => {
            let s = corpus.stream(ds);
            (epoch + 1) * (s.all.len() - s.prefix_len)
        }
        Workload::Explore | Workload::HotReads => 0,
    }
}

fn active_json(db: &TransactionDb, index: &PatternIndex, at: Timestamp) -> Vec<u8> {
    let active: Vec<RecurringPattern> = index.active_at(at).into_iter().cloned().collect();
    patterns_json(db, &active)
}

fn fresh_replicas(corpus: &Corpus, workload: Workload) -> BTreeMap<Ds, Replica> {
    datasets(workload)
        .iter()
        .map(|&ds| {
            let s = corpus.stream(ds);
            (ds, Replica::new(&s.prefix(), corpus.hot(ds)))
        })
        .collect()
}

fn expect_status(reply: std::io::Result<Reply>, status: u16, what: &str) -> Result<Reply, String> {
    match reply {
        Ok(r) if r.status == status => Ok(r),
        Ok(r) => Err(format!("{what}: status {} ({})", r.status, String::from_utf8_lossy(&r.body))),
        Err(e) => Err(format!("{what}: {e}")),
    }
}
