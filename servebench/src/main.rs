//! `servebench`: a steady, closed-loop serving benchmark for `rpm-server`.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload explore|hot_reads|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` drives the real server in a
//! child process over loopback HTTP and prints the end-to-end metrics;
//! `--trace 1` does the same and then replays the schedule against a traced
//! in-process server, printing the per-layer metrics. The last line of
//! standard output is the result object; the lines before it are the run
//! header and a readable report. See `servebench/README.md`.

mod calib;
mod client;
mod corpus;
mod layers;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use calib::Calibrator;
use client::{ServerProcess, CLIENT_CONNECTIONS, FSYNC, SERVER_THREADS};
use corpus::{Corpus, Ds, OpKind, Workload};
use run::{datasets, Client, PassResult, Probes, Target, SETUP_REPS};
use stats::{median, quantile, ratio, Metrics};

/// Scratch space for data directories and span dumps, inside the checkout.
const WORK_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?} (0|1)")),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("serve") {
        let Some(dir) = argv.get(2) else { return ExitCode::from(2) };
        return match client::serve(Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints the result. `Ok(false)` when the
/// correctness gate failed (the result line is still printed).
fn bench(args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu();
    let corpus = Corpus::new(args.seed);
    let schedule = corpus::schedule(args.workload, &corpus, args.seed);
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let tag = format!("{}-{}", args.workload.name(), std::process::id());
    print_header(args, &corpus, &work, cores, cpu);

    let calib = Calibrator::start().map_err(|e| format!("calibration responder: {e}"))?;
    let mut client = Client::new(&corpus, args.workload, &schedule);
    let data_dir = work.join(format!("data-{tag}"));
    let untraced = untraced_pass(&mut client, &calib, args.seconds, &data_dir)?;
    report_pass("untraced", &untraced);
    let mut attempted: usize = untraced.attempted.iter().sum();
    let mut failed: usize = untraced.failed.iter().sum();

    let metrics = if args.trace {
        let mut client = Client::new(&corpus, args.workload, &schedule);
        let data_dir = work.join(format!("trace-{tag}"));
        let (traced, log, plain_ms) =
            traced_pass(&mut client, &calib, &corpus, untraced.cycles, &data_dir)?;
        report_pass("traced", &traced);
        attempted += traced.attempted.iter().sum::<usize>();
        failed += traced.failed.iter().sum::<usize>();
        let dump = work.join(format!("spans-{}.jsonl", args.workload.name()));
        layers::write_spans(&dump, &log).map_err(|e| format!("writing {}: {e}", dump.display()))?;
        println!("# spans written to {}", dump.display());
        layers::layer_metrics(&log, &traced, &untraced, plain_ms)
    } else {
        e2e_metrics(&untraced)
    };
    calib.stop();
    let ok = failed == 0;
    print!("{}", metrics.report());
    println!(
        "{{\"correct\":{ok},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    );
    Ok(ok)
}

/// Setup on the server to be timed, then the timed phase in `SETUP_REPS`
/// slices with a setup on a fresh side server between slices — so the
/// setup samples are spread over the run rather than bunched at its start —
/// then the floor probes and the final check.
fn untraced_pass(
    client: &mut Client,
    calib: &Calibrator,
    seconds: f64,
    data_dir: &Path,
) -> Result<PassResult, String> {
    let start = |dir: &Path| ServerProcess::start(dir).map_err(|e| format!("starting server: {e}"));
    let stop = |s: ServerProcess| s.stop().map_err(|e| format!("stopping server: {e}"));
    let mut out = PassResult::default();
    let no_label = |_: u32, _: Option<OpKind>| {};
    let server = start(data_dir)?;
    let target = Target { addr: server.addr, on_op: &no_label };
    client.setup(&target, &mut out)?;
    let peak_mb = || server.rss_peak_mb();
    let probes = Probes { calib, peak_mb: &peak_mb };
    let started = Instant::now();
    for slice in 0..SETUP_REPS {
        let until = seconds * (slice + 1) as f64 / SETUP_REPS as f64;
        client.timed(&target, &probes, until, 1, &mut out);
        if slice + 1 < SETUP_REPS {
            let side = start(&data_dir.with_extension("side"))?;
            client.setup(&Target { addr: side.addr, on_op: &no_label }, &mut out)?;
            stop(side)?;
        }
    }
    if out.rss_peak_mb == 0.0 {
        // Too slow a machine to reach the probe's cycle: the whole run.
        out.rss_peak_mb = server.rss_peak_mb();
    }
    eprintln!("# timed phase {:.1}s, {} cycles", started.elapsed().as_secs_f64(), out.cycles);
    client.floor(&target, &mut out)?;
    client.final_check(&target)?;
    stop(server)?;
    Ok(out)
}

/// One setup and the same number of cycles as the untraced pass, against
/// the traced server. Also times a plain session mine of the twitter-sim
/// prefix at its hot parameters, the base of `delta.cold_tax_ratio`.
fn traced_pass(
    client: &mut Client,
    calib: &Calibrator,
    corpus: &Corpus,
    cycles: usize,
    data_dir: &Path,
) -> Result<(PassResult, trace::TraceLog, f64), String> {
    let _ = std::fs::remove_dir_all(data_dir);
    let mut config = rpm_server::PersistConfig::new(data_dir);
    config.fsync = FSYNC;
    let persist = rpm_server::Persistence::open(config).map_err(|e| format!("data dir: {e}"))?;
    let server = trace::TracedServer::start(persist).map_err(|e| format!("traced server: {e}"))?;
    let slot = server.current.clone();
    let label = move |op: u32, kind: Option<OpKind>| {
        *slot.lock().expect("op slot is never poisoned") = (op, kind);
    };
    let target = Target { addr: server.addr, on_op: &label };
    let mut out = PassResult::default();
    let probes = Probes { calib, peak_mb: &|| 0.0 };
    client.setup(&target, &mut out)?;
    client.timed(&target, &probes, 0.0, cycles, &mut out);
    client.floor(&target, &mut out)?;
    client.final_check(&target)?;
    let base = server.base;
    let mut log = server.stop().map_err(|e| format!("stopping traced server: {e}"))?;
    log.add_client_spans(base, client.times());
    let _ = std::fs::remove_dir_all(data_dir);
    let tw = corpus.stream(Ds::Tw);
    let prefix = tw.prefix();
    let started = Instant::now();
    std::hint::black_box(run::batch_mine(&prefix, corpus.hot(Ds::Tw)));
    let plain_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((out, log, plain_ms))
}

/// The end-to-end metrics of an untraced pass, times at the calibration
/// kernel's nominal speed (see [`calib`]).
fn e2e_metrics(p: &PassResult) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(&p.setup_s), "s", p.setup_s.len());
    m.put("cold_mine_ms_p50", median(&p.cold_mine_ms), "ms", p.cold_mine_ms.len());
    // The p90s, and the stabs' p50, are in the per-op-type report lines
    // only. A run's tail is where the shared host's other tenants show,
    // and it moved by more than any bound between runs of the same code;
    // so did `explore`'s stab median (0.41 of its median as measured, 0.26
    // scaled, over ten runs), which slows more than the kernel on a busy
    // host.
    for kind in [OpKind::Miss, OpKind::Hit, OpKind::Append] {
        let lat = &p.lat_ms[kind.idx()];
        m.put(format!("{}_ms_p50", kind.name()), median(lat), "ms", lat.len());
    }
    let ops: usize = p.lat_ms.iter().map(Vec::len).sum();
    m.put("ops_per_s", ratio(ops as f64, p.busy_s), "1/s", ops);
    m.put("ingest_tx_per_s", ratio(p.appended_tx as f64, p.busy_s), "1/s", p.appended_tx);
    m.put("rss_peak_mb", p.rss_peak_mb, "MB", 1);
    m.scale_times(p.calib.scale());
    m
}

/// The pass's raw latencies per op type (not scaled) and its calibration.
fn report_pass(label: &str, p: &PassResult) {
    println!(
        "# {label}: {} cycles, {:.2}s in ops, {} unpatched appends",
        p.cycles, p.busy_s, p.unpatched
    );
    let (total, c) = (p.calib.total_ms(), &p.calib);
    println!(
        "#   calibration kernel p50 {:.4} ms (p10 {:.4}, p90 {:.4}; compute p50 {:.4}, socket \
         p50 {:.4}) over {} runs; times below are as measured, the metrics are scaled by {:.4}",
        median(&total),
        quantile(&total, 0.1),
        quantile(&total, 0.9),
        median(&c.compute_ms),
        median(&c.socket_ms),
        total.len(),
        c.scale()
    );
    for kind in OpKind::ALL {
        let lat = &p.lat_ms[kind.idx()];
        println!(
            "#   {:<7} attempted {:>6} failed {:>3} p50 {:>9.3} ms p90 {:>9.3} ms (n={})",
            kind.name(),
            p.attempted[kind.idx()],
            p.failed[kind.idx()],
            median(lat),
            quantile(lat, 0.9),
            lat.len()
        );
    }
    for e in &p.errors {
        println!("#   failure: {e}");
    }
}

/// Pins this process, and so the server child and every thread either
/// starts later, to the highest-numbered CPU it may run on; returns that
/// CPU. In a closed loop only one of the client and the server works at a
/// time. Sharing one CPU, each hands over to the other by a plain context
/// switch, and the CPU stays busy through the timed phase. On two CPUs
/// every hand-over wakes a halted virtual CPU, which waits for the host's
/// scheduler: that wait varies with the other tenants' load, and it was
/// most of a cache hit's spread between runs. `available_parallelism`
/// follows the pin, so the server's delta mines run on one thread.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid for writes of `size` bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is valid for reads of `size` bytes; pid 0 is this thread,
    // which has started no other thread yet.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The run header: everything a number depends on.
fn print_header(args: &Args, corpus: &Corpus, work: &Path, cores: usize, cpu: Option<usize>) {
    let pinned = cpu.map_or("null".to_string(), |c| c.to_string());
    let mut sets = Vec::new();
    for &ds in datasets(args.workload) {
        let s = corpus.stream(ds);
        let spec = ds.spec();
        let hot = corpus.hot(ds);
        sets.push(format!(
            "{{\"name\":\"{}\",\"generator\":\"{}\",\"scale\":{},\"generator_seed\":{},\
             \"label_seed\":{},\"uploaded_tx\":{},\"stream_tx\":{},\
             \"hot\":{{\"per\":{},\"min_ps\":{},\"min_rec\":{}}}}}",
            ds.name(),
            spec.generator,
            spec.scale,
            spec.gen_seed,
            args.seed,
            s.prefix_len,
            s.all.len() - s.prefix_len,
            hot.per,
            hot.min_ps,
            hot.min_rec
        ));
    }
    println!(
        "# header {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_cores\":{cores},\"pinned_cpu\":{pinned},\
         \"server_worker_threads\":{SERVER_THREADS},\
         \"client_connections\":{CLIENT_CONNECTIONS},\"fsync\":\"{FSYNC}\",\
         \"data_dir_fs\":\"{}\",\"git_commit\":\"{}\",\"datasets\":[{}]}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        filesystem_of(work),
        git_commit(),
        sets.join(",")
    );
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount = fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            Some((Path::new(mount).to_path_buf(), fields.get(dash + 1)?.to_string()))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.as_os_str().len())
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}
