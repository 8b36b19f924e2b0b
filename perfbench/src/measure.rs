//! Sample statistics, operation tallies, round bookkeeping, and the
//! process / host readings taken from `/proc`.

use std::collections::BTreeMap;
use std::time::Instant;

use trijoin_common::{Json, OpCounts, SystemParams};

/// Set-ups at the start of each trial; `setup_s` is the median of every
/// set-up in the run.
pub const SETUPS: usize = 7;

/// Ledger sections whose I/Os are read per round, with the metric each
/// feeds.
pub const SECTIONS: [(&str, &str); 6] = [
    ("mv.read_diffs", "exec.mv.read_diffs_ios"),
    ("mv.scan_view", "exec.mv.read_view_ios"),
    ("mv.write_view", "exec.mv.write_view_ios"),
    ("ji.read_index", "exec.ji.read_index_ios"),
    ("ji.fetch_r", "exec.ji.fetch_r_ios"),
    ("ji.fetch_s", "exec.ji.fetch_s_ios"),
];

/// Storage counters every workload reads.
pub const STORAGE_COUNTERS: [&str; 5] =
    ["pool.hits", "pool.misses", "pool.evictions", "disk.reads", "disk.writes"];

/// The program's counters over a window of `rounds` rounds, as growth
/// across it: of the ledger, of a metrics counter (`counter`), of a ledger
/// section's I/Os (`section_ios`), and of the process (`proc`).
pub fn counter_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    rounds: f64,
    params: &SystemParams,
    ledger: &OpCounts,
    counter: impl Fn(&str) -> f64,
    section_ios: impl Fn(&str) -> f64,
    proc: (&ProcSnapshot, &ProcSnapshot),
) {
    m.insert("sim_round_s", ledger.time_secs(params) / rounds);
    m.insert("common.ledger.ios_per_round", ledger.ios as f64 / rounds);
    m.insert("common.ledger.comps_per_round", ledger.comps as f64 / rounds);
    m.insert("common.ledger.hashes_per_round", ledger.hashes as f64 / rounds);
    m.insert("common.ledger.moves_per_round", ledger.moves as f64 / rounds);
    let (hits, misses) = (counter("pool.hits"), counter("pool.misses"));
    m.insert("storage.pool.hit_ratio", ratio(hits, hits + misses));
    m.insert("storage.pool.evictions_per_round", counter("pool.evictions") / rounds);
    m.insert("storage.disk.reads_per_round", counter("disk.reads") / rounds);
    m.insert("storage.disk.writes_per_round", counter("disk.writes") / rounds);
    for (section, metric) in SECTIONS {
        m.insert(metric, section_ios(section) / rounds);
    }
    let (start, end) = proc;
    m.insert(
        "proc.ctx_switches_per_round",
        (end.ctx_switches - start.ctx_switches) as f64 / rounds,
    );
    m.insert("proc.cpu_s_per_round", (end.cpu_s - start.cpu_s) / rounds);
    m.insert("proc.threads", end.threads as f64);
}

/// Run trials until `seconds` have passed, at least one, and return the
/// first trial's result.
///
/// A trial sets the program up afresh and runs a fixed schedule of rounds.
/// The host's speed changes from second to second, so set-ups spread over
/// the run sample it better than set-ups bunched at its start; and every
/// measured round sits at the same point of the schedule however fast the
/// host is: more time buys more trials, not later rounds.
pub fn run_trials<W>(
    seconds: f64,
    mut trial: impl FnMut(u32) -> Result<W, String>,
) -> Result<W, String> {
    let started = Instant::now();
    let first = trial(0)?;
    let mut n = 1;
    while started.elapsed().as_secs_f64() < seconds {
        trial(n)?;
        n += 1;
    }
    Ok(first)
}

/// What every trial of a run adds to: call tallies, timings and checks.
pub struct Totals {
    pub tally: Tally,
    pub rounds: Rounds,
    pub lat: Latencies,
    pub setup_s: Vec<f64>,
    pub correct: bool,
    pub check_points: u64,
}

impl Default for Totals {
    fn default() -> Totals {
        Totals {
            tally: Tally::default(),
            rounds: Rounds::default(),
            lat: Latencies::default(),
            setup_s: Vec::new(),
            correct: true,
            check_points: 0,
        }
    }
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Latency samples of the measured calls, in nanoseconds.
///
/// The bounded end-to-end figures are p90s. On the 2-CPU host the
/// host alternates between a fast and a slow speed (a pure CPU loop swings
/// ±30% second to second, with no steal time), and the share of fast time
/// differs from run to run, so a median can land in either mode: medians
/// spread by 0.25–0.4 of their value over ten runs where p90s, which sit
/// in the slow mode, spread by about 0.1. The medians are still reported,
/// as unbounded per-layer figures under `bench.`.
///
/// The bounded update figure, `update_us`, takes its quantile of epoch
/// means from the workload. On `engine-cycle` each epoch runs in one of
/// the host's two speeds, so the median spread by 0.30 over ten runs and
/// the p90 by 0.12. On `serve-durable-phase` the epochs share one speed
/// but a tail of them meets a shard busy with an fsync or a migration;
/// the p90 falls in that tail and spread by 0.13–0.28 over ten runs,
/// the median by 0.08. Both quantiles are reported under `bench.`.
#[derive(Default)]
pub struct Latencies {
    /// Query calls by the method they name: MV, JI, HH.
    pub query: [Vec<u64>; 3],
    /// Time each round spent in query calls.
    pub round_query: Vec<u64>,
    /// Each round's epoch of update calls: its duration and its mutations.
    pub epochs: Vec<(u64, u64)>,
    /// `commit` and `sync` calls (durable workload only).
    pub commit: Vec<u64>,
    pub sync: Vec<u64>,
}

impl Latencies {
    /// Quantile `p` over mutations of the time one mutation took, in µs,
    /// where each mutation counts at its epoch's mean. A single
    /// fire-and-forget `update_r` takes either a few hundred nanoseconds
    /// or about twice that, depending on whether the scheduler holds the
    /// ring's lock, and a per-call p90 falls on that step; the epoch mean
    /// does not.
    fn per_mutation_us(&self, p: f64) -> f64 {
        let mut means: Vec<(f64, u64)> = self
            .epochs
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|&(ns, n)| (ns as f64 / n as f64, n))
            .collect();
        means.sort_by(|a, b| a.0.total_cmp(&b.0));
        let target = (p * means.iter().map(|(_, n)| n).sum::<u64>() as f64).ceil().max(1.0);
        let mut seen = 0;
        for (mean_ns, n) in means {
            seen += n;
            if seen as f64 >= target {
                return mean_ns / 1e3;
            }
        }
        0.0
    }

    /// Insert the latency metrics; `update_us` is the quantile `update_p`
    /// of [`Self::per_mutation_us`].
    pub fn insert_metrics(&mut self, m: &mut BTreeMap<&'static str, f64>, update_p: f64) {
        let ms = |ns: u64| ns as f64 / 1e6;
        m.insert("query_p90_ms", ms(quantile(&mut self.round_query, 0.9)));
        m.insert("bench.query_p50_ms", ms(quantile(&mut self.round_query, 0.5)));
        let names = [
            ("mv_query_p90_ms", "bench.mv_query_p50_ms"),
            ("ji_query_p90_ms", "bench.ji_query_p50_ms"),
            ("hh_query_p90_ms", "bench.hh_query_p50_ms"),
        ];
        for ((p90, p50), samples) in names.into_iter().zip(self.query.iter_mut()) {
            m.insert(p90, ms(quantile(samples, 0.9)));
            m.insert(p50, ms(quantile(samples, 0.5)));
        }
        m.insert("update_us", self.per_mutation_us(update_p));
        m.insert("bench.update_p50_us", self.per_mutation_us(0.5));
        m.insert("bench.update_p90_us", self.per_mutation_us(0.9));
        m.insert("storage.wal.commit_p50_ms", ms(quantile(&mut self.commit, 0.5)));
        m.insert("storage.wal.sync_p50_ms", ms(quantile(&mut self.sync, 0.5)));
    }
}

/// The kinds of calls a round makes, counted separately.
#[derive(Clone, Copy)]
pub enum Op {
    Update,
    Query,
    Commit,
    Sync,
}

/// Attempted and failed calls by [`Op`] kind.
#[derive(Default)]
pub struct Tally {
    attempted: [u64; 4],
    failed: [u64; 4],
}

impl Tally {
    /// Count one call; returns its value when it succeeded.
    pub fn record<T, E>(&mut self, op: Op, result: Result<T, E>) -> Option<T> {
        self.attempted[op as usize] += 1;
        match result {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed[op as usize] += 1;
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn to_json(&self) -> Json {
        let kinds = ["update", "query", "commit", "sync"];
        kinds.iter().enumerate().fold(Json::obj(), |j, (i, kind)| {
            j.set(
                kind,
                Json::obj().set("attempted", self.attempted[i]).set("failed", self.failed[i]),
            )
        })
    }
}

/// Wall time of every measured round, with the round's class (rounds of
/// one class do the same kind of work) and whether it was traced.
#[derive(Default)]
pub struct Rounds {
    wall_ns: Vec<u64>,
    class: Vec<u32>,
    traced: Vec<bool>,
}

impl Rounds {
    pub fn push(&mut self, wall_ns: u64, class: u32, traced: bool) {
        self.wall_ns.push(wall_ns);
        self.class.push(class);
        self.traced.push(traced);
    }

    pub fn len(&self) -> usize {
        self.wall_ns.len()
    }

    /// Untraced rounds per second of untraced round time.
    pub fn per_second(&self) -> f64 {
        let (n, ns) = self
            .wall_ns
            .iter()
            .zip(&self.traced)
            .filter(|(_, t)| !**t)
            .fold((0u64, 0u64), |(n, ns), (w, _)| (n + 1, ns + w));
        ratio(n as f64 * 1e9, ns as f64)
    }

    /// Quantile `p` of the untraced rounds' wall time, in milliseconds.
    pub fn untraced_ms(&self, p: f64) -> f64 {
        let mut ns: Vec<u64> =
            self.wall_ns.iter().zip(&self.traced).filter(|(_, t)| !**t).map(|(w, _)| *w).collect();
        quantile(&mut ns, p) as f64 / 1e6
    }

    /// Extra wall time of traced rounds over untraced ones, in percent:
    /// per class, the median traced round against the median untraced
    /// round, weighted by how many rounds each class has.
    pub fn trace_overhead_pct(&self) -> f64 {
        let mut by_class: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for i in 0..self.len() {
            let entry = by_class.entry(self.class[i]).or_default();
            let side = if self.traced[i] { &mut entry.1 } else { &mut entry.0 };
            side.push(self.wall_ns[i] as f64);
        }
        let (mut plain, mut traced) = (0.0, 0.0);
        for (untraced_ns, traced_ns) in by_class.values() {
            if untraced_ns.is_empty() || traced_ns.is_empty() {
                continue;
            }
            let weight = (untraced_ns.len() + traced_ns.len()) as f64;
            plain += weight * median(untraced_ns);
            traced += weight * median(traced_ns);
        }
        (ratio(traced, plain) - 1.0) * 100.0
    }
}

/// Context switches, CPU time and thread count of this process.
pub struct ProcSnapshot {
    pub ctx_switches: u64,
    pub cpu_s: f64,
    pub threads: u64,
}

impl ProcSnapshot {
    /// Context switches are summed over `/proc/self/task/*` (live threads);
    /// CPU time is the process's user + system time from `/proc/self/stat`.
    pub fn take() -> ProcSnapshot {
        let mut ctx_switches = 0;
        let mut threads = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                threads += 1;
                let status =
                    std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
                for line in status.lines() {
                    if line.starts_with("voluntary_ctxt_switches")
                        || line.starts_with("nonvoluntary_ctxt_switches")
                    {
                        ctx_switches += status_value(line);
                    }
                }
            }
        }
        // Fields 14 and 15 (utime, stime) follow the parenthesised command
        // name, in clock ticks of 1/100 s (USER_HZ on Linux).
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after_name = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after_name.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        ProcSnapshot { ctx_switches, cpu_s: (ticks(11) + ticks(12)) as f64 / 100.0, threads }
    }
}

fn status_value(line: &str) -> u64 {
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find(|l| l.starts_with("VmHWM")).map(status_value).unwrap_or(0);
    kb as f64 / 1024.0
}

/// What a result was measured on: CPUs, CPU model, kernel, compiler, and
/// the commit of the checkout when it is a git work tree.
pub fn host_fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj()
        .set("nproc", nproc)
        .set("cpu", cpu)
        .set("kernel", kernel)
        .set("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .set("commit", git_commit().unwrap_or_else(|| "none".into()))
}

/// The commit `HEAD` names in the repository holding this package, read
/// from `.git` directly (a checkout without `.git` has none).
fn git_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
