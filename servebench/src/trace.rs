//! The traced pass: an in-process server assembled from the serving layers'
//! public functions, with a span around every call into a layer.
//!
//! The handlers follow `rpm-server`'s own (`handle_upload`, `handle_mine`,
//! `handle_active`, `handle_append`) call for call. Durability is the one
//! place they differ in shape: the real `Dataset::append_lines` journals
//! through its private `DatasetLog`, so here the registry is in-memory and
//! the benchmark holds each dataset's `DatasetLog` itself, calling
//! `log_append` before `append_lines` and `maybe_snapshot` after it, in the
//! order `append_lines` does. That is what lets the WAL write and the miner
//! update be timed apart.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use rpm_core::engine::{EngineMetrics, Phase};
use rpm_core::pattern::RecurringPattern;
use rpm_core::sync::{read_recover, write_recover};
use rpm_core::{
    write_patterns_json, DeltaMode, DeltaStats, MetricsCollector, MineScratch, MiningSession,
    ResolvedParams, RunControl,
};
use rpm_server::persist::{DatasetLog, PersistCounters};
use rpm_server::{
    decode_dataset_body, parse_append_body, read_request, CachedResult, Persistence, Registry,
    Request, Response, ResultCache,
};

use crate::corpus::{MinPs, OpKind, Query};

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `cache.get`.
    pub name: &'static str,
    /// The op it served; every span of one request shares it.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the pass began.
    pub start_ns: u64,
    /// End, in ns since the pass began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one request did besides taking time.
#[derive(Debug, Default, Clone)]
pub struct Note {
    /// The op's type; `None` for setup, probe and shutdown requests.
    pub kind: Option<OpKind>,
    /// Dataset name, for dataset routes.
    pub ds: String,
    /// Response bytes written (head and body).
    pub resp_bytes: usize,
    /// Bytes and patterns serialised by `write_patterns_json`.
    pub export: Vec<(usize, usize)>,
    /// Rows returned by a stab.
    pub stab_rows: Option<usize>,
    /// Hot-parameter delta mines: stats and candidates checked.
    pub delta: Vec<(DeltaStats, usize)>,
    /// Engine metrics of a full mine.
    pub engine: Option<EngineMetrics>,
    /// Transactions appended.
    pub tx: usize,
    /// WAL bytes written.
    pub wal_bytes: u64,
    /// Whether an append patched the hot cache entry.
    pub patched: Option<bool>,
}

/// Everything the traced server recorded.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// One note per op id.
    pub notes: BTreeMap<u32, Note>,
    /// Result-cache hits, misses and evictions at the end.
    pub cache: (u64, u64, u64),
}

struct Tracer {
    base: Instant,
    op: u32,
    log: TraceLog,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Times `f` as a root span of the current op.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        self.push(name, None, start_ns, self.now());
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.log.spans.push(Span { name, op: self.op, parent, start_ns, end_ns });
        self.log.spans.len() - 1
    }

    fn note(&mut self) -> &mut Note {
        self.log.notes.entry(self.op).or_default()
    }
}

/// Counts the bytes a response writes.
struct Counting<'a> {
    inner: &'a mut TcpStream,
    bytes: usize,
}

impl Write for Counting<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The op id and type of the request the client is about to send; a closed
/// loop has one request in flight, so one slot suffices.
pub type CurrentOp = Arc<Mutex<(u32, Option<OpKind>)>>;

/// The traced server, running on its own thread.
pub struct TracedServer {
    /// Listening address.
    pub addr: SocketAddr,
    /// The slot the client fills before each request.
    pub current: CurrentOp,
    /// The instant span times count from.
    pub base: Instant,
    acceptor: std::thread::JoinHandle<()>,
    thread: std::thread::JoinHandle<TraceLog>,
}

impl TracedServer {
    /// Binds a loopback listener and serves from one thread, journalling
    /// through `persist`.
    pub fn start(persist: Arc<Persistence>) -> std::io::Result<TracedServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let current: CurrentOp = Arc::new(Mutex::new((0, None)));
        let slot = current.clone();
        let base = Instant::now();
        // An acceptor thread hands each connection to the serving thread, as
        // `rpm-server`'s acceptor hands it to a worker, so both pay the same
        // wake-up per request.
        let (handoff, accepted) = std::sync::mpsc::channel::<TcpStream>();
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                if handoff.send(stream).is_err() {
                    break;
                }
            }
        });
        let thread = std::thread::spawn(move || serve(&accepted, &slot, persist, base));
        Ok(TracedServer { addr, current, base, acceptor, thread })
    }

    /// Sends `POST /v1/shutdown` (which flushes a final snapshot of every
    /// dataset) and returns the log.
    pub fn stop(self) -> std::io::Result<TraceLog> {
        *self.current.lock().expect("op slot is never poisoned") = (u32::MAX, None);
        crate::client::request(self.addr, "POST", "/v1/shutdown", b"")?;
        let log = self.thread.join().map_err(|_| std::io::Error::other("traced server panicked"));
        // The serving thread is gone: one more connection makes the
        // acceptor's hand-off fail, and it exits.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        log
    }
}

impl TraceLog {
    /// Adds the client's side of each request as two spans the server
    /// cannot see: `http.connect`, from the client starting the request to
    /// the server starting to parse it (connect, accept, hand-off, wake),
    /// and `http.recv`, from the end of the server's write to the reply
    /// read in full.
    pub fn add_client_spans(&mut self, base: Instant, times: &[(u32, Instant, Instant)]) {
        let ns = |t: Instant| (t - base).as_nanos() as u64;
        let client: BTreeMap<u32, (u64, u64)> =
            times.iter().map(|&(op, start, end)| (op, (ns(start), ns(end)))).collect();
        let edges: Vec<(&'static str, u32, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == "http.parse" || s.name == "http.write")
            .map(|s| (s.name, s.op, if s.name == "http.parse" { s.start_ns } else { s.end_ns }))
            .collect();
        for (name, op, at) in edges {
            let Some(&(start, end)) = client.get(&op) else { continue };
            let span = match name {
                "http.parse" => Span {
                    name: "http.connect",
                    op,
                    parent: None,
                    start_ns: start,
                    end_ns: at.max(start),
                },
                _ => {
                    Span { name: "http.recv", op, parent: None, start_ns: at, end_ns: end.max(at) }
                }
            };
            self.spans.push(span);
        }
    }
}

struct State {
    registry: Registry,
    cache: ResultCache,
    persist: Arc<Persistence>,
    logs: BTreeMap<String, DatasetLog>,
    /// Cache entries whose stab index is built, by address.
    indexed: BTreeMap<usize, Weak<CachedResult>>,
}

fn serve(
    accepted: &std::sync::mpsc::Receiver<TcpStream>,
    current: &CurrentOp,
    persist: Arc<Persistence>,
    base: Instant,
) -> TraceLog {
    let defaults = rpm_server::ServerConfig::default();
    let mut st = State {
        registry: Registry::new(),
        cache: ResultCache::new(defaults.cache_bytes),
        persist,
        logs: BTreeMap::new(),
        indexed: BTreeMap::new(),
    };
    let mut tr = Tracer { base, op: 0, log: TraceLog::default() };
    for mut stream in accepted {
        let (op, kind) = *current.lock().expect("op slot is never poisoned");
        tr.op = op;
        tr.note().kind = kind;
        let Ok(req) = tr.span("http.parse", || read_request(&mut stream)) else { continue };
        let segments = req.segments();
        let (response, stop) = match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["v1", "healthz"]) => (Response::text(200, "ok\n"), false),
            ("POST", ["v1", "shutdown"]) => {
                flush_snapshots(&mut st, &mut tr);
                (Response::json(200, "{\"status\":\"shutting down\"}\n"), true)
            }
            ("POST", ["v1", "datasets", name]) => (upload(&mut st, &mut tr, name, &req), false),
            ("POST", ["v1", "datasets", name, "mine"]) => {
                (mine(&mut st, &mut tr, name, &req), false)
            }
            ("GET", ["v1", "datasets", name, "active"]) => {
                (active(&mut st, &mut tr, name, &req), false)
            }
            ("POST", ["v1", "datasets", name, "append"]) => {
                (append(&mut st, &mut tr, name, &req), false)
            }
            _ => (Response::json(404, "{\"error\":{\"code\":\"not_found\"}}\n"), false),
        };
        let mut out = Counting { inner: &mut stream, bytes: 0 };
        let _ = tr.span("http.write", || response.write_to(&mut out));
        let bytes = out.bytes;
        tr.note().resp_bytes = bytes;
        if stop {
            break;
        }
    }
    let stats = st.cache.stats();
    tr.log.cache = (stats.hits, stats.misses, stats.evictions);
    tr.log
}

fn bad(message: &str) -> Response {
    Response::json(
        400,
        format!("{{\"error\":{{\"code\":\"bad_request\",\"message\":{message:?}}}}}\n"),
    )
}

/// The server's `per`/`min-ps`/`min-rec` grammar.
fn query_of(req: &Request) -> Option<Query> {
    let per = req.query_param("per")?.parse().ok()?;
    let min_ps = req.query_param("min-ps")?;
    let min_ps = match min_ps.strip_suffix('%') {
        Some(pct) => MinPs::Pct(pct.parse().ok()?),
        None => MinPs::Count(min_ps.parse().ok()?),
    };
    let min_rec = req.query_param("min-rec").map_or(Some(1), |v| v.parse().ok())?;
    Some(Query { per, min_ps, min_rec })
}

fn upload(st: &mut State, tr: &mut Tracer, name: &str, req: &Request) -> Response {
    tr.note().ds = name.to_string();
    let Ok(db) = tr.span("registry.decode", || decode_dataset_body(&req.body)) else {
        return bad("bad dataset body");
    };
    let Some(q) = query_of(req) else { return bad("bad hot parameters") };
    let MinPs::Count(min_ps) = q.min_ps else { return bad("hot min-ps must be a count") };
    let hot = ResolvedParams::new(q.per, min_ps, q.min_rec);
    let replace = req.query_param("replace") == Some("true");
    // A replacement continues the old log's sequence, as `Registry::register`
    // does with the log it inherits.
    let persist = st.persist.clone();
    let logged = tr.span("persist.register", || match st.logs.get_mut(name).filter(|_| replace) {
        Some(log) => log.log_register(&db, hot),
        None => DatasetLog::create(&persist, name, &db, hot).map(|log| {
            st.logs.insert(name.to_string(), log);
        }),
    });
    if logged.is_err() {
        return Response::json(500, "{\"error\":{\"code\":\"internal\"}}\n");
    }
    let (tx, items) = (db.len(), db.item_count());
    match tr.span("registry.register", || st.registry.register(name, db, hot, replace)) {
        Ok(fp) => Response::json(
            201,
            format!(
                "{{\"name\":\"{name}\",\"transactions\":{tx},\"items\":{items},\"fingerprint\":\"{fp:016x}\"}}\n"
            ),
        ),
        Err(e) => bad(&e.to_string()),
    }
}

/// Serialises `patterns` under an `export.json` span.
fn export(
    tr: &mut Tracer,
    items: &rpm_timeseries::ItemTable,
    patterns: &[RecurringPattern],
) -> Vec<u8> {
    let mut body = Vec::new();
    tr.span("export.json", || write_patterns_json(&mut body, items, patterns))
        .expect("writing to a Vec cannot fail");
    let entry = (body.len(), patterns.len());
    tr.note().export.push(entry);
    body
}

/// A mine at `resolved` the way `handle_mine` runs it: the dataset's pattern
/// store at the hot parameters, otherwise a session with a collector.
fn mine_fresh(
    tr: &mut Tracer,
    ds: &rpm_server::Dataset,
    resolved: ResolvedParams,
) -> Vec<RecurringPattern> {
    if resolved == ds.hot_params() {
        let mut scratch = MineScratch::default();
        let start = tr.now();
        let (result, _, stats) = ds.mine_hot_delta(&RunControl::new(), &mut scratch, 1);
        let name =
            if matches!(stats.mode, DeltaMode::Full(_)) { "delta.full" } else { "delta.patch" };
        tr.push(name, None, start, tr.now());
        let checked = result.stats.candidates_checked;
        tr.note().delta.push((stats, checked));
        return result.patterns;
    }
    let collector = Arc::new(MetricsCollector::new());
    let session = MiningSession::builder()
        .resolved(resolved)
        .threads(1)
        .observer(collector.clone())
        .build()
        .expect("valid parameters");
    let start = tr.now();
    let outcome = session.mine(ds.db()).expect("non-empty database");
    let parent = tr.push("engine.mine", None, start, tr.now());
    let metrics = collector.snapshot();
    // The phases run back to back from the session's start.
    let mut at = start;
    for (phase, wall) in &metrics.phase_wall {
        let name = match phase {
            Phase::ListScan => "rplist.scan",
            Phase::TreeBuild => "tree.build",
            Phase::Growth => "growth.mine",
        };
        let end = at + wall.as_nanos() as u64;
        tr.push(name, Some(parent), at, end);
        at = end;
    }
    tr.note().engine = Some(metrics);
    outcome.into_result().patterns
}

fn mine(st: &mut State, tr: &mut Tracer, name: &str, req: &Request) -> Response {
    tr.note().ds = name.to_string();
    let Some(dataset) = tr.span("registry.get", || st.registry.get(name)) else {
        return Response::json(404, "{\"error\":{\"code\":\"not_found\"}}\n");
    };
    let ds = tr.span("registry.lock", || read_recover(&dataset));
    let Some(q) = query_of(req) else { return bad("bad parameters") };
    let resolved = q.resolve(ds.db().len());
    let fingerprint = ds.fingerprint();
    if let Some(hit) = tr.span("cache.get", || st.cache.get(fingerprint, resolved)) {
        let body = tr.span("cache.body_copy", || hit.body.as_ref().clone());
        return Response::json(200, body).with_header("X-Rpm-Cache", "hit");
    }
    let patterns = mine_fresh(tr, &ds, resolved);
    let body = export(tr, ds.db().items(), &patterns);
    tr.span("cache.insert", || {
        st.cache.insert(fingerprint, resolved, Arc::new(CachedResult::new(body.clone(), patterns)))
    });
    Response::json(200, body).with_header("X-Rpm-Cache", "miss")
}

fn active(st: &mut State, tr: &mut Tracer, name: &str, req: &Request) -> Response {
    tr.note().ds = name.to_string();
    let Some(dataset) = tr.span("registry.get", || st.registry.get(name)) else {
        return Response::json(404, "{\"error\":{\"code\":\"not_found\"}}\n");
    };
    let ds = tr.span("registry.lock", || read_recover(&dataset));
    let (Some(q), Some(Ok(at))) = (query_of(req), req.query_param("at").map(str::parse)) else {
        return bad("bad parameters");
    };
    let resolved = q.resolve(ds.db().len());
    let fingerprint = ds.fingerprint();
    let cached = match tr.span("cache.get", || st.cache.get(fingerprint, resolved)) {
        Some(hit) => hit,
        None => {
            let patterns = mine_fresh(tr, &ds, resolved);
            let body = export(tr, ds.db().items(), &patterns);
            let entry = Arc::new(CachedResult::new(body, patterns));
            tr.span("cache.insert", || st.cache.insert(fingerprint, resolved, entry.clone()));
            entry
        }
    };
    let key = Arc::as_ptr(&cached) as usize;
    let built =
        st.indexed.get(&key).and_then(Weak::upgrade).is_some_and(|e| Arc::ptr_eq(&e, &cached));
    if !built {
        tr.span("index.build", || cached.index());
        st.indexed.retain(|_, w| w.strong_count() > 0);
        st.indexed.insert(key, Arc::downgrade(&cached));
    }
    let active: Vec<RecurringPattern> =
        tr.span("index.stab", || cached.index().active_at(at).into_iter().cloned().collect());
    tr.note().stab_rows = Some(active.len());
    let body = export(tr, ds.db().items(), &active);
    Response::json(200, body)
}

fn append(st: &mut State, tr: &mut Tracer, name: &str, req: &Request) -> Response {
    tr.note().ds = name.to_string();
    let Some(dataset) = tr.span("registry.get", || st.registry.get(name)) else {
        return Response::json(404, "{\"error\":{\"code\":\"not_found\"}}\n");
    };
    let Ok(rows) = tr.span("registry.parse_append", || parse_append_body(&req.body)) else {
        return bad("bad append body");
    };
    let mut ds = tr.span("registry.lock", || write_recover(&dataset));
    let old_fingerprint = ds.fingerprint();
    let before = ds.db().len();
    let log = st.logs.get_mut(name).expect("every registered dataset has a log");
    let wal_before = PersistCounters::get(&st.persist.counters().wal_bytes);
    if tr.span("persist.wal_append", || log.log_append(&rows)).is_err() {
        return Response::json(500, "{\"error\":{\"code\":\"internal\"}}\n");
    }
    let wal_bytes = PersistCounters::get(&st.persist.counters().wal_bytes) - wal_before;
    let outcome = tr.span("incremental.append", || ds.append_lines(&rows));
    let (hot, appends) = (ds.hot_params(), ds.appends());
    let start = tr.now();
    if let Ok(true) = log.maybe_snapshot(ds.db(), hot, appends) {
        tr.push("persist.snapshot", None, start, tr.now());
    }
    let fingerprint = ds.fingerprint();
    let mut patched = false;
    if outcome.is_ok() && fingerprint != old_fingerprint && ds.delta_applicable() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
        let mut scratch = MineScratch::default();
        let start = tr.now();
        let (result, abort, stats) = ds.mine_hot_delta(&RunControl::new(), &mut scratch, threads);
        tr.push("delta.patch", None, start, tr.now());
        let checked = result.stats.candidates_checked;
        tr.note().delta.push((stats, checked));
        if abort.is_none() {
            let body = export(tr, ds.db().items(), &result.patterns);
            let entry = Arc::new(CachedResult::new(body, result.patterns));
            tr.span("cache.patch", || st.cache.patch(old_fingerprint, fingerprint, hot, entry));
            patched = true;
        }
    }
    let (appended, transactions) = (ds.db().len() - before, ds.db().len());
    drop(ds);
    if !patched && fingerprint != old_fingerprint {
        tr.span("cache.invalidate", || st.cache.invalidate_fingerprint(old_fingerprint));
    }
    let note = tr.note();
    note.tx = appended;
    note.wal_bytes = wal_bytes;
    note.patched = Some(patched);
    match outcome {
        Ok(()) => Response::json(
            200,
            format!(
                "{{\"appended\":{appended},\"transactions\":{transactions},\
                 \"fingerprint\":\"{fingerprint:016x}\",\"patched\":{patched}}}\n"
            ),
        ),
        Err(e) => {
            Response::json(409, format!("{{\"error\":{{\"message\":{:?}}}}}\n", e.to_string()))
        }
    }
}

/// The shutdown flush `ServerHandle::join` performs: one snapshot of every
/// durable dataset.
fn flush_snapshots(st: &mut State, tr: &mut Tracer) {
    for (name, log) in st.logs.iter_mut() {
        let Some(dataset) = st.registry.get(name) else { continue };
        let ds = read_recover(&dataset);
        let start = tr.now();
        if log.force_snapshot(ds.db(), ds.hot_params(), ds.appends()).is_ok() {
            tr.push("persist.snapshot", None, start, tr.now());
        }
    }
}
