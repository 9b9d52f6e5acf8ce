//! Per-layer metrics from the traced pass's spans and notes.
//!
//! A span's self time is its duration minus its children's. Only the
//! engine span has children (its `MetricsCollector` phases), so every other
//! span's self time is its duration, and the sum of an op's root spans is
//! the time the layers account for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use rpm_core::{DeltaMode, FullReason};

use crate::corpus::OpKind;
use crate::run::PassResult;
use crate::stats::{mean, median, quantile, ratio, Metrics};
use crate::trace::{Note, TraceLog};

/// Self times in µs of every span named `name`, from ops matching `keep`.
fn self_us(log: &TraceLog, selves: &[u64], name: &str, keep: impl Fn(&Note) -> bool) -> Vec<f64> {
    log.spans
        .iter()
        .zip(selves)
        .filter(|(s, _)| s.name == name && log.notes.get(&s.op).is_some_and(&keep))
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

fn of(kind: OpKind) -> impl Fn(&Note) -> bool {
    move |n: &Note| n.kind == Some(kind)
}

fn timed(n: &Note) -> bool {
    n.kind.is_some()
}

/// Dumps every span as one JSON object per line.
pub fn write_spans(path: &Path, log: &TraceLog) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &log.spans {
        let kind = log.notes.get(&s.op).and_then(|n| n.kind).map_or("setup", OpKind::name);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"op_type\":\"{kind}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Every per-layer metric of the run.
pub fn layer_metrics(
    log: &TraceLog,
    traced: &PassResult,
    untraced: &PassResult,
    plain_ms: f64,
) -> Metrics {
    let mut selves: Vec<u64> = log.spans.iter().map(|s| s.dur_ns()).collect();
    for s in &log.spans {
        if let Some(p) = s.parent {
            selves[p] -= s.dur_ns();
        }
    }
    let us = |name: &str, keep: &dyn Fn(&Note) -> bool| self_us(log, &selves, name, keep);
    let notes = |kind: OpKind| log.notes.values().filter(move |n| n.kind == Some(kind));
    let mut m = Metrics::default();

    // http + pool
    // Times are scaled to the calibration kernel's nominal speed at the
    // end, by the traced pass's factor; the floor comes from the untraced
    // pass, so it is brought to the traced pass's speed first.
    let (ku, kt) = (untraced.calib.scale(), traced.calib.scale());
    let floor = median(&untraced.floor_us) * ku / kt;
    m.put("http.floor_us_p50", floor, "us", untraced.floor_us.len());
    for kind in OpKind::ALL {
        let k = kind.name();
        let parse = us("http.parse", &of(kind));
        m.put(format!("http.parse_us_p50.{k}"), median(&parse), "us", parse.len());
        let write = us("http.write", &of(kind));
        m.put(format!("http.write_us_p50.{k}"), median(&write), "us", write.len());
        let connect = us("http.connect", &of(kind));
        m.put(format!("http.connect_us_p50.{k}"), median(&connect), "us", connect.len());
        let recv = us("http.recv", &of(kind));
        m.put(format!("http.recv_us_p50.{k}"), median(&recv), "us", recv.len());
        let kb: Vec<f64> = notes(kind).map(|n| n.resp_bytes as f64 / 1024.0).collect();
        m.put(format!("http.resp_kb_mean.{k}"), mean(&kb), "kB", kb.len());
        let lock = us("registry.lock", &of(kind));
        m.put(format!("registry.lock_wait_us_p90.{k}"), quantile(&lock, 0.9), "us", lock.len());
    }

    // registry: the twitter-sim upload of the traced setup.
    let tw = |n: &Note| n.kind.is_none() && n.ds == "tw";
    let decode = us("registry.decode", &tw);
    m.put("registry.decode_ms", median(&decode) / 1e3, "ms", decode.len());
    let register = us("registry.register", &tw);
    m.put("registry.register_ms", median(&register) / 1e3, "ms", register.len());

    // cache
    for kind in [OpKind::Miss, OpKind::Hit, OpKind::Stab] {
        let get = us("cache.get", &of(kind));
        m.put(format!("cache.get_us_p50.{}", kind.name()), median(&get), "us", get.len());
    }
    let copy = us("cache.body_copy", &of(OpKind::Hit));
    m.put("cache.body_copy_us_p50", median(&copy), "us", copy.len());
    let patch = us("cache.patch", &of(OpKind::Append));
    m.put("cache.patch_us_p50", median(&patch), "us", patch.len());
    let (hits, misses, evictions) = log.cache;
    m.put(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        (hits + misses) as usize,
    );
    m.put("cache.evictions", evictions as f64, "count", 1);

    // index
    let build = us("index.build", &|_| true);
    m.put("index.build_ms_p50", median(&build) / 1e3, "ms", build.len());
    let builds = us("index.build", &timed).len();
    m.put("index.builds", builds as f64, "count", builds);
    let stab = us("index.stab", &of(OpKind::Stab));
    m.put("index.stab_us_p50", median(&stab), "us", stab.len());
    let rows: Vec<f64> =
        notes(OpKind::Stab).filter_map(|n| n.stab_rows).map(|r| r as f64).collect();
    m.put("index.rows_per_stab", mean(&rows), "rows", rows.len());

    // export
    for kind in [OpKind::Miss, OpKind::Stab, OpKind::Append] {
        let json = us("export.json", &of(kind));
        m.put(format!("export.json_ms_p50.{}", kind.name()), median(&json) / 1e3, "ms", json.len());
    }
    let (bytes, patterns) = log
        .notes
        .values()
        .filter(|n| timed(n))
        .flat_map(|n| &n.export)
        .fold((0, 0), |(b, p), &(nb, np)| (b + nb, p + np));
    m.put("export.bytes_per_pattern", ratio(bytes as f64, patterns as f64), "B", patterns);

    // rplist / tree / growth, over the cache-miss mines
    let phase = |name: &str| us(name, &of(OpKind::Miss));
    for (metric, span) in [
        ("rplist.scan_ms_p50", "rplist.scan"),
        ("tree.build_ms_p50", "tree.build"),
        ("growth.mine_ms_p50", "growth.mine"),
    ] {
        let v = phase(span);
        m.put(metric, median(&v) / 1e3, "ms", v.len());
    }
    let engine: Vec<_> =
        notes(OpKind::Miss).filter_map(|n| n.engine.as_ref()).map(|e| e.stats).collect();
    let sum =
        |f: &dyn Fn(&rpm_core::MiningStats) -> usize| engine.iter().map(f).sum::<usize>() as f64;
    m.put(
        "rplist.candidate_ratio",
        ratio(sum(&|s| s.candidate_items), sum(&|s| s.scanned_items)),
        "ratio",
        engine.len(),
    );
    m.put(
        "tree.nodes_mean",
        ratio(sum(&|s| s.tree_nodes), engine.len() as f64),
        "count",
        engine.len(),
    );
    m.put(
        "growth.candidates_checked_mean",
        ratio(sum(&|s| s.candidates_checked), engine.len() as f64),
        "count",
        engine.len(),
    );
    m.put(
        "growth.pattern_yield",
        ratio(sum(&|s| s.patterns_found), sum(&|s| s.candidates_checked)),
        "ratio",
        engine.len(),
    );

    // incremental
    let appended: usize = notes(OpKind::Append).map(|n| n.tx).sum();
    let inc: f64 = us("incremental.append", &of(OpKind::Append)).iter().sum();
    m.put("incremental.append_us_per_tx", ratio(inc, appended as f64), "us", appended);

    // delta (+ checkpoint)
    let delta_patch = us("delta.patch", &of(OpKind::Append));
    m.put("delta.patch_ms_p50", median(&delta_patch) / 1e3, "ms", delta_patch.len());
    m.put("delta.patch_ms_p90", quantile(&delta_patch, 0.9) / 1e3, "ms", delta_patch.len());
    let appends: Vec<&Note> = notes(OpKind::Append).collect();
    let patched = appends.iter().filter(|n| n.patched == Some(true)).count();
    m.put("delta.delta_ratio", ratio(patched as f64, appends.len() as f64), "ratio", appends.len());
    let runs: Vec<_> = log.notes.values().flat_map(|n| &n.delta).collect();
    let mut reasons: BTreeMap<&str, usize> = BTreeMap::new();
    for reason in ["cold_store", "params_changed", "store_mismatch", "frontier_exceeded"] {
        reasons.insert(reason, 0);
    }
    for (stats, _) in &runs {
        if let DeltaMode::Full(reason) = stats.mode {
            let key = match reason {
                FullReason::ColdStore => "cold_store",
                FullReason::ParamsChanged => "params_changed",
                FullReason::StoreMismatch => "store_mismatch",
                FullReason::FrontierExceeded => "frontier_exceeded",
            };
            *reasons.entry(key).or_default() += 1;
        }
    }
    for (reason, n) in reasons {
        m.put(format!("delta.full.{reason}"), n as f64, "count", runs.len());
    }
    let patches: Vec<_> =
        appends.iter().flat_map(|n| &n.delta).filter(|(s, _)| s.mode.is_delta()).collect();
    let hits: usize = patches.iter().map(|(s, _)| s.checkpoint_hits).sum();
    let checked: usize = patches.iter().map(|(_, c)| *c).sum();
    m.put("delta.checkpoint_hit_ratio", ratio(hits as f64, checked as f64), "ratio", patches.len());
    let tail: Vec<f64> = patches.iter().map(|(s, _)| s.tail_transactions as f64).collect();
    m.put("delta.tail_tx_mean", mean(&tail), "tx", tail.len());
    let remined: Vec<f64> = patches.iter().map(|(s, _)| s.remined_patterns as f64).collect();
    m.put("delta.remined_patterns_mean", mean(&remined), "count", remined.len());
    let cold = us("delta.full", &tw);
    let cold_ms = median(&cold) / 1e3;
    m.put("delta.cold_ms", cold_ms, "ms", cold.len());
    m.put("delta.cold_tax_ratio", ratio(cold_ms, plain_ms), "ratio", cold.len());

    // persist
    let wal = us("persist.wal_append", &of(OpKind::Append));
    m.put("persist.wal_append_us_p50", median(&wal), "us", wal.len());
    let wal_bytes: u64 = appends.iter().map(|n| n.wal_bytes).sum();
    m.put("persist.wal_bytes_per_tx", ratio(wal_bytes as f64, appended as f64), "B", appended);
    let snaps = us("persist.snapshot", &|_| true);
    m.put("persist.snapshot_ms_p50", median(&snaps) / 1e3, "ms", snaps.len());
    m.put("persist.snapshots", snaps.len() as f64, "count", snaps.len());

    // trace: what the layers leave unexplained, and what tracing costs. The
    // connection part of each op is its own `http.connect` span, not the
    // floor: the floor's back-to-back probes never let the server go idle,
    // and waking it after the client's checks costs more.
    let mut attributed: BTreeMap<u32, f64> = BTreeMap::new();
    for s in log.spans.iter().filter(|s| s.parent.is_none()) {
        *attributed.entry(s.op).or_default() += s.dur_ns() as f64 / 1e6;
    }
    for kind in OpKind::ALL {
        let k = kind.name();
        let own: Vec<f64> = log
            .notes
            .iter()
            .filter(|(_, n)| n.kind == Some(kind))
            .map(|(op, _)| attributed.get(op).copied().unwrap_or(0.0))
            .collect();
        // Both passes at the kernel's nominal speed, so the machine's drift
        // between them cancels.
        let e2e = median(&untraced.lat_ms[kind.idx()]) * ku;
        let explained = median(&own) * kt;
        m.put(
            format!("trace.unattributed_ratio.{k}"),
            (1.0 - ratio(explained, e2e)).abs(),
            "ratio",
            own.len(),
        );
        let traced_p50 = median(&traced.lat_ms[kind.idx()]) * kt;
        m.put(format!("trace.overhead_ratio.{k}"), ratio(traced_p50, e2e), "ratio", own.len());
        // The same share against the traced pass's own median.
        m.put(
            format!("trace.uncovered_ratio.{k}"),
            (1.0 - ratio(explained, traced_p50)).abs(),
            "ratio",
            own.len(),
        );
    }
    m.scale_times(kt);
    // The kernel's own time in the traced pass, as measured: how fast the
    // machine was while the layers were timed.
    let kernel = traced.calib.total_ms();
    m.put("calib.kernel_ms", median(&kernel), "ms", kernel.len());
    m
}
