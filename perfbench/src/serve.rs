//! `serve-durable-phase`: one client thread with one session on a sharded
//! server, closed loop.
//!
//! 2 shards, durable (one WAL per shard, deferred commits) and adaptive.
//! R and S are 6,000 × 200-byte tuples with 64 pages of memory per shard.
//! Phases of 60 rounds alternate between write trains (400 mutations per
//! query) and read trains (2), so shards migrate between strategies.
//! Every round commits, and a sync runs every 16 rounds: that flush policy
//! is part of the workload. The WAL, the file backend, the adaptive
//! controller and model pricing do the work that `engine-cycle` skips.
//!
//! It runs 2 shards, not 4: with 4 shards (six threads on two CPUs) its
//! round and query p90s spread by 0.24–0.27 of their value over ten runs.
//!
//! A trial (see [`measure::run_trials`]) starts a fresh server and serves
//! untimed warm-up rounds, then a fixed window of measured rounds. Serving
//! slows down and grows memory with the rounds a server has served, so a
//! server that lived for the whole run would make the figures depend on
//! how many rounds a run fits in.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use trijoin::{Durability, Method, Mutation, SystemParams, WorkloadSpec};
use trijoin_common::{rng, ShardedRunReport};
use trijoin_exec::oracle;
use trijoin_serve::{merged_current, ClientSession, ClientTraffic, ServeConfig, Server};

use crate::engine::sorted;
use crate::measure::{self, median, Op, ProcSnapshot, Totals, SETUPS};
use crate::trace::{Tracer, NONE, ROUND};
use crate::{Outcome, RunConfig};

const NAME: &str = "serve-durable-phase";
const SHARDS: usize = 2;
const TUPLES: u32 = 6_000;
const MEM_PAGES: usize = 64;
/// Mutations per round of each phase; phases of `PHASE_ROUNDS` rounds
/// repeat in this order. Answers are checked at every phase end.
const PHASES: [u32; 2] = [400, 2];
const PHASE_ROUNDS: u32 = 60;
/// A sync every this many rounds.
const SYNC_EVERY: u32 = 16;
/// Untimed rounds at the start of each trial.
const WARMUP_ROUNDS: u32 = 240;
/// Measured rounds of each trial: a whole number of phase cycles and sync
/// periods, so every trial ends on a phase end.
const WINDOW_ROUNDS: u32 = 720;
const TRIAL_ROUNDS: u32 = WARMUP_ROUNDS + WINDOW_ROUNDS;
/// Quantile of the rounds' time per mutation that `update_us` reports:
/// the median, below the tail of rounds that wait on a busy shard (see
/// [`measure::Latencies`]).
const UPDATE_QUANTILE: f64 = 0.5;

const METHODS: [(Method, &str); 3] = [
    (Method::MaterializedView, "serve.query.mv"),
    (Method::JoinIndex, "serve.query.ji"),
    (Method::HybridHash, "serve.query.hh"),
];

fn phase(round: u32) -> usize {
    (round / PHASE_ROUNDS) as usize % PHASES.len()
}

fn syncs_after(round: u32) -> bool {
    (round + 1).is_multiple_of(SYNC_EVERY)
}

/// Removes a directory tree when dropped (durable shard storage).
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(seed: u64, dir: Option<PathBuf>) -> ServeConfig {
    let params = SystemParams { mem_pages: MEM_PAGES, ..SystemParams::paper_defaults() };
    ServeConfig {
        seed: rng::derive(seed, NAME),
        adaptive: true,
        durable_dir: dir,
        durability: Durability::Deferred,
        ..ServeConfig::new(params, SHARDS)
    }
}

/// The server's own counters and the process's, at one point of the run.
struct Snapshot {
    report: ShardedRunReport,
    proc: ProcSnapshot,
}

impl Snapshot {
    fn take(session: &ClientSession) -> Result<Snapshot, String> {
        let report = session.report().map_err(|e| format!("report: {e}"))?;
        Ok(Snapshot { report, proc: ProcSnapshot::take() })
    }

    fn counter(&self, name: &str) -> u64 {
        self.report.rollup.metrics.counter(name)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.report.rollup.metrics.gauge(name).unwrap_or(0.0)
    }

    /// (sum, count) of a histogram.
    fn histogram(&self, name: &str) -> (u64, u64) {
        self.report.rollup.metrics.histogram(name).map_or((0, 0), |h| (h.sum, h.count))
    }
}

/// The first trial's window: the program's counters at its two ends, the
/// answer sizes by method, and the process's peak memory at its end.
/// Every trial serves the same schedule, so one window gives the counts.
/// Peak memory is read there because the allocator keeps what later
/// servers' threads take, by a few MiB more or less from run to run.
struct Window {
    start: Snapshot,
    end: Snapshot,
    tuples: [(u64, u64); 3],
    peak_rss_mb: f64,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = WorkloadSpec {
        r_tuples: TUPLES,
        s_tuples: TUPLES,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 5,
        pra: 0.1,
        update_rate: 0.005,
        seed: rng::derive(cfg.seed, NAME),
    };
    let gen = spec.generate();
    let run_dir = crate::bench_dir().join("run").join(format!("{NAME}-{}", std::process::id()));
    let _cleanup = RunDir(run_dir.clone());

    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    let Window { start, end, tuples, peak_rss_mb } = measure::run_trials(cfg.seconds, |trial| {
        trial_run(cfg, &gen, &run_dir, trial, &mut tracer, &mut totals)
    })?;
    let Totals { tally, rounds, mut lat, setup_s, correct, check_points } = totals;

    let n = f64::from(WINDOW_ROUNDS);
    let delta = |name: &str| (end.counter(name) - start.counter(name)) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", median(&setup_s));
    m.insert("peak_rss_mb", peak_rss_mb);
    lat.insert_metrics(&mut m, UPDATE_QUANTILE);
    let section_ios = |s: &Snapshot, name: &str| s.report.rollup.section_counts(name).ios;
    measure::counter_metrics(
        &mut m,
        n,
        &config(cfg.seed, None).params,
        &end.report.rollup.totals.delta_since(&start.report.rollup.totals),
        delta,
        |name| (section_ios(&end, name) - section_ios(&start, name)) as f64,
        (&start.proc, &end.proc),
    );
    m.insert("exec.hh.spilled_partitions", end.gauge("hh.spilled_partitions"));
    for (i, metric) in
        ["exec.mv.tuples_per_query", "exec.ji.tuples_per_query", "exec.hh.tuples_per_query"]
            .into_iter()
            .enumerate()
    {
        m.insert(metric, measure::ratio(tuples[i].0 as f64, tuples[i].1 as f64));
    }
    m.insert("storage.wal.fsyncs_per_round", delta("wal.fsyncs") / n);
    m.insert("storage.wal.commits_per_round", delta("wal.commits") / n);
    let user_bytes = delta("serve.updates.r") * f64::from(spec.tuple_bytes as u32);
    m.insert("storage.wal.bytes_per_user_byte", measure::ratio(delta("wal.bytes"), user_bytes));
    let skipped = delta("wal.frames_skipped");
    m.insert(
        "storage.wal.frames_skipped_ratio",
        measure::ratio(skipped, skipped + delta("wal.frames")),
    );
    m.insert("storage.wal.checkpoints", delta("wal.checkpoints"));

    let full_waits = end.gauge("serve.ring.full_waits") - start.gauge("serve.ring.full_waits");
    m.insert("serve.ring.full_waits_per_round", full_waits / n);
    m.insert("serve.ring.drains_per_round", delta("serve.ring.drains") / n);
    let hist_mean = |name: &str| {
        let ((s1, c1), (s0, c0)) = (end.histogram(name), start.histogram(name));
        measure::ratio((s1 - s0) as f64, (c1 - c0) as f64)
    };
    m.insert("serve.ring.drain_len_mean", hist_mean("serve.ring.drain.len"));
    m.insert("serve.batches_per_round", delta("serve.batches") / n);
    m.insert("serve.batch_len_mean", hist_mean("serve.batch.len"));
    m.insert(
        "serve.cross_shard_ratio",
        measure::ratio(delta("serve.updates.cross_shard"), delta("serve.updates.r")),
    );
    m.insert("serve.sched_latency_p50_us", end.gauge("serve.latency.p50_us"));
    m.insert("serve.sched_latency_p99_us", end.gauge("serve.latency.p99_us"));
    m.insert("serve.migrate.count", delta("migrate.count"));
    m.insert("serve.migrate.steps", delta("migrate.steps"));
    m.insert("serve.migrate.rebuild_pages", delta("migrate.rebuild_pages"));
    m.insert("serve.migrate.rollbacks", delta("migrate.rollbacks"));

    Ok(Outcome { correct, check_points, tally, rounds, tracer, metrics: m })
}

/// Start the server `SETUPS` times, each on a fresh directory, timing each
/// start, and keep the last one.
fn start_server(
    cfg: &RunConfig,
    gen: &trijoin::GeneratedWorkload,
    dir: &Path,
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<Server, String> {
    tracer.set_recording(cfg.trace, NONE);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let _ = std::fs::remove_dir_all(dir);
        let config = config(cfg.seed, Some(dir.to_path_buf()));
        let (r, s) = (gen.r.clone(), gen.s.clone());
        let t = tracer.begin("serve.start");
        let started = Server::start(&config, r, s);
        setup_s.push(tracer.end(t) as f64 / 1e9);
        server = Some(started.map_err(|e| format!("Server::start: {e}"))?);
    }
    tracer.set_recording(false, NONE);
    Ok(server.expect("at least one set-up"))
}

/// One trial: a fresh server, `WARMUP_ROUNDS` untimed rounds, then
/// `WINDOW_ROUNDS` measured ones. Returns the trial's counter window.
fn trial_run(
    cfg: &RunConfig,
    gen: &trijoin::GeneratedWorkload,
    run_dir: &Path,
    trial: u32,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> Result<Window, String> {
    let dir = run_dir.join(format!("trial{trial}"));
    let server = start_server(cfg, gen, &dir, tracer, &mut totals.setup_s)?;
    let session = server.session().map_err(|e| format!("session: {e}"))?;
    let mut traffic = ClientTraffic::split(gen, &config(cfg.seed, None), 1);
    let mut tuples = [(0u64, 0u64); 3];
    let mut start = None;
    let tally = &mut totals.tally;

    for r in 0..TRIAL_ROUNDS {
        let measured = r >= WARMUP_ROUNDS;
        if r == WARMUP_ROUNDS {
            start = Some(Snapshot::take(&session)?);
        }
        let phase = phase(r);
        let mutations: Vec<Mutation> =
            (0..PHASES[phase]).map(|_| traffic[0].next_mutation()).collect();
        let slot = r as usize % METHODS.len();
        let (method, query_span) = METHODS[slot];
        let sync = syncs_after(r);
        let traced = measured && cfg.traces_round(r);

        // Span round ids run on across trials.
        tracer.set_recording(traced, trial * TRIAL_ROUNDS + r);
        let t = tracer.begin(ROUND);
        let epoch = tracer.begin("serve.updates");
        let n = mutations.len() as u64;
        for m in mutations {
            let span = tracer.begin_detail("serve.update_r");
            let result = session.update_r(m);
            tracer.end(span);
            tally.record(Op::Update, result);
        }
        let epoch_ns = tracer.end(epoch);
        let q = tracer.begin(query_span);
        let result = session.query(method);
        let q_ns = tracer.end(q);
        let answer = tally.record(Op::Query, result);
        let c = tracer.begin("serve.commit");
        let result = session.commit();
        let commit_ns = tracer.end(c);
        let committed = tally.record(Op::Commit, result).is_some();
        let mut synced = None;
        if sync {
            let s = tracer.begin("serve.sync");
            let result = session.sync();
            let ns = tracer.end(s);
            synced = tally.record(Op::Sync, result).map(|()| ns);
        }
        let wall = tracer.end(t);
        tracer.set_recording(false, NONE);

        if measured {
            let lat = &mut totals.lat;
            lat.epochs.push((epoch_ns, n));
            lat.round_query.push(q_ns);
            if answer.is_some() {
                lat.query[slot].push(q_ns);
            }
            if committed {
                lat.commit.push(commit_ns);
            }
            lat.sync.extend(synced);
            totals.rounds.push(wall, phase as u32 * 2 + u32::from(sync), traced);
            tuples[slot].0 += answer.as_ref().map_or(0, |a| a.len() as u64);
            tuples[slot].1 += 1;
        }
        // Checks, outside the timed calls: the merged answer against the
        // oracle over the client's mirror of R at every phase end, the
        // trial's last round among them.
        if (r + 1).is_multiple_of(PHASE_ROUNDS) {
            let want = sorted(oracle::join_tuples(&merged_current(&traffic), &gen.s));
            totals.correct &= answer.map(sorted).as_ref() == Some(&want);
            totals.check_points += 1;
        }
    }
    let end = Snapshot::take(&session)?;
    drop(session);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Window {
        start: start.expect("window opened"),
        end,
        tuples,
        peak_rss_mb: measure::peak_rss_mb(),
    })
}
