//! Wall-time benchmark of the trijoin engine and serving layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-cycle --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one client thread, closed loop: a *round* is one epoch of
//! mutations followed by one query (and a commit on the durable
//! workload), and the next round starts when the last call returned.
//! Inputs derive from `--seed` only. Answers are checked against the
//! brute-force oracle outside the timed calls; a mismatch makes the
//! result `"correct": false` and the exit code 1.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` every other round is traced (spans around each call,
//! written to `perfbench/out/<workload>.spans.tsv` at the end) and the
//! line carries the per-layer metrics, including the overhead of tracing
//! measured against the untraced rounds of the same run.

mod engine;
mod measure;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use trijoin_common::Json;

use measure::{Rounds, Tally};
use trace::Tracer;

/// End-to-end metrics: what a user of the engine or the server sees.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("round_p90_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("mv_query_p90_ms", "ms"),
    ("ji_query_p90_ms", "ms"),
    ("hh_query_p90_ms", "ms"),
    ("update_us", "us"),
    ("sim_round_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics. A layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("core.db_new_s", "s"),
    ("linearhash.mv_build_s", "s"),
    ("exec.ji_build_s", "s"),
    ("exec.mv.on_update_us", "us"),
    ("exec.ji.on_update_us", "us"),
    ("exec.hh.on_update_us", "us"),
    ("core.apply_r_update_us", "us"),
    ("exec.mv.read_diffs_ios", "count"),
    ("exec.mv.read_view_ios", "count"),
    ("exec.mv.write_view_ios", "count"),
    ("exec.ji.read_index_ios", "count"),
    ("exec.ji.fetch_r_ios", "count"),
    ("exec.ji.fetch_s_ios", "count"),
    ("exec.hh.spilled_partitions", "count"),
    ("exec.mv.tuples_per_query", "count"),
    ("exec.ji.tuples_per_query", "count"),
    ("exec.hh.tuples_per_query", "count"),
    ("common.ledger.ios_per_round", "count"),
    ("common.ledger.comps_per_round", "count"),
    ("common.ledger.hashes_per_round", "count"),
    ("common.ledger.moves_per_round", "count"),
    ("storage.pool.hit_ratio", "ratio"),
    ("storage.pool.evictions_per_round", "count"),
    ("storage.disk.reads_per_round", "count"),
    ("storage.disk.writes_per_round", "count"),
    ("storage.wal.commit_p50_ms", "ms"),
    ("storage.wal.sync_p50_ms", "ms"),
    ("storage.wal.fsyncs_per_round", "count"),
    ("storage.wal.commits_per_round", "count"),
    ("storage.wal.bytes_per_user_byte", "ratio"),
    ("storage.wal.frames_skipped_ratio", "ratio"),
    ("storage.wal.checkpoints", "count"),
    ("serve.ring.full_waits_per_round", "count"),
    ("serve.ring.drains_per_round", "count"),
    ("serve.ring.drain_len_mean", "count"),
    ("serve.batches_per_round", "count"),
    ("serve.batch_len_mean", "count"),
    ("serve.cross_shard_ratio", "ratio"),
    ("serve.sched_latency_p50_us", "us"),
    ("serve.sched_latency_p99_us", "us"),
    ("serve.migrate.count", "count"),
    ("serve.migrate.steps", "count"),
    ("serve.migrate.rebuild_pages", "count"),
    ("serve.migrate.rollbacks", "count"),
    ("proc.ctx_switches_per_round", "count"),
    ("proc.cpu_s_per_round", "s"),
    ("proc.threads", "count"),
    ("bench.rounds", "count"),
    ("bench.rounds_per_s", "1/s"),
    ("bench.round_p50_ms", "ms"),
    ("bench.query_p50_ms", "ms"),
    ("bench.mv_query_p50_ms", "ms"),
    ("bench.ji_query_p50_ms", "ms"),
    ("bench.hh_query_p50_ms", "ms"),
    ("bench.update_p50_us", "us"),
    ("bench.update_p90_us", "us"),
    ("bench.failed_ops_ratio", "ratio"),
    ("bench.check_points", "count"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// Least median share of a traced round that its child spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

const WORKLOADS: [&str; 2] = ["engine-cycle", "serve-durable-phase"];

/// Command-line settings shared by every workload.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Traced runs trace every other round (the rest measure the
    /// overhead); untraced runs trace none. The parity flips every 16
    /// rounds, so work that recurs every 16 rounds (a sync) falls on
    /// traced and untraced rounds alike.
    pub fn traces_round(&self, round: u32) -> bool {
        self.trace && (round + round / 16) % 2 == 1
    }
}

/// What a workload hands back: its checks, call tallies, measured rounds,
/// spans, and the metrics only it can compute.
pub struct Outcome {
    pub correct: bool,
    pub check_points: u64,
    pub tally: Tally,
    pub rounds: Rounds,
    pub tracer: Tracer,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Where a workload may write: the benchmark's own directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "engine-cycle" => engine::run(&cfg),
        _ => serve::run(&cfg),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stamp = Json::obj()
        .set("workload", workload.as_str())
        .set("seed", cfg.seed)
        .set("seconds", cfg.seconds)
        .set("trace", cfg.trace)
        .set("host", measure::host_fingerprint());
    let m = &mut outcome.metrics;
    m.insert("round_p90_ms", outcome.rounds.untraced_ms(0.9));
    m.insert("bench.round_p50_ms", outcome.rounds.untraced_ms(0.5));
    m.insert("bench.rounds_per_s", outcome.rounds.per_second());
    m.entry("peak_rss_mb").or_insert_with(measure::peak_rss_mb);
    m.insert("bench.rounds", outcome.rounds.len() as f64);
    m.insert("bench.check_points", outcome.check_points as f64);
    m.insert(
        "bench.failed_ops_ratio",
        measure::ratio(outcome.tally.failed() as f64, outcome.tally.attempted() as f64),
    );
    if cfg.trace {
        let coverage = outcome.tracer.round_coverage(trace::ROUND);
        m.insert("bench.span_coverage", measure::median(&coverage));
        m.insert("bench.trace_overhead_pct", outcome.rounds.trace_overhead_pct());
        let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
        println!("traced rounds: {}, lowest span coverage {min_coverage:.4}", coverage.len());
        let path = bench_dir().join("out").join(format!("{workload}.spans.tsv"));
        match outcome.tracer.write_tsv(&path, &stamp.dump()) {
            Ok(()) => {
                println!("spans: {} ({} spans)", path.display(), outcome.tracer.spans().len())
            }
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    println!("stamp {}", stamp.dump());
    println!("ops {}", outcome.tally.to_json().dump());
    // Every metric this run measured, for people; the last line carries
    // the set its mode reports.
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(value) = outcome.metrics.get(name) {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => {
                eprintln!("perfbench: {workload} did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        metrics = metrics.set(name, Json::obj().set("value", value).set("unit", unit));
    }
    let line = Json::obj()
        .set("correct", outcome.correct)
        .set("attempted", outcome.tally.attempted())
        .set("failed", outcome.tally.failed())
        .set("metrics", metrics);
    println!("{}", line.dump());
    if !outcome.correct {
        eprintln!("perfbench: {workload}: an answer did not match the oracle");
        return ExitCode::FAILURE;
    }
    let coverage = outcome.metrics.get("bench.span_coverage").copied();
    if let Some(coverage) = coverage.filter(|&c| c < MIN_SPAN_COVERAGE) {
        eprintln!(
            "perfbench: {workload}: span coverage {coverage:.4} is below {MIN_SPAN_COVERAGE}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
