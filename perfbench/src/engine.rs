//! `engine-cycle`: the three strategies side by side on in-memory engines,
//! with no server and no threads.
//!
//! One Figure-5-shaped input (SR 1%, Pr_A 0.1, 6% of R updated per round)
//! is loaded into three `Database`s: one caches the materialized view, one
//! the join index, one runs hybrid hash. R and S are 20,000 × 200-byte
//! tuples (1,429 pages each) against an 80-page memory budget, so the
//! working set is about 18× the memory and hybrid hash spills: the
//! operators, B⁺-tree, linear hash and simulated disk do all the work.
//! Each round applies one update epoch to all three engines (a mutation
//! goes to each in turn) and then queries MV, JI and HH.
//!
//! A trial (see [`measure::run_trials`]) builds the engines afresh, runs
//! one untimed warm-up round and then a fixed number of measured rounds
//! from the start of the update stream.

use std::collections::BTreeMap;

use trijoin::{Database, JoinStrategy, SystemParams, Update, WorkloadSpec};
use trijoin_common::{rng, BaseTuple, OpCounts, ViewTuple};
use trijoin_exec::oracle;

use crate::measure::{
    self, median, quantile, Latencies, Op, ProcSnapshot, Tally, Totals, SECTIONS, SETUPS,
    STORAGE_COUNTERS,
};
use crate::trace::{Tracer, NONE, ROUND};
use crate::{Outcome, RunConfig};

const TUPLES: u32 = 20_000;
const MEM_PAGES: usize = 80;
/// Measured rounds of each trial. The program's own counters are read
/// over the first trial's, so the counts of one seed repeat exactly.
const TRIAL_ROUNDS: u32 = 100;
/// Quantile of the rounds' time per mutation that `update_us` reports:
/// the p90, which sits in the host's slow speed (see [`Latencies`]).
const UPDATE_QUANTILE: f64 = 0.9;

/// Per-strategy names: label, on-update span, query span.
const LANES: [(&str, &str, &str); 3] = [
    ("mv", "exec.mv.on_update", "core.query.mv"),
    ("ji", "exec.ji.on_update", "core.query.ji"),
    ("hh", "exec.hh.on_update", "core.query.hh"),
];

struct Lane {
    on_update_span: &'static str,
    query_span: &'static str,
    db: Database,
    strategy: Box<dyn JoinStrategy>,
}

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: TUPLES,
        s_tuples: TUPLES,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 5,
        pra: 0.1,
        update_rate: 0.06,
        seed: rng::derive(seed, "perfbench/engine-cycle"),
    }
}

/// Build the three engines; returns them with the summed time of the
/// timed set-up calls. Copying the input is not timed.
fn build(
    params: &SystemParams,
    gen: &trijoin::GeneratedWorkload,
    tracer: &mut Tracer,
) -> Result<(Vec<Lane>, u64), String> {
    let mut lanes = Vec::new();
    let mut timed_ns = 0;
    for (label, on_update_span, query_span) in LANES {
        let (r, s) = (gen.r.clone(), gen.s.clone());
        let t = tracer.begin("core.db_new");
        let db = Database::new(params, r, s);
        timed_ns += tracer.end(t);
        let db = db.map_err(|e| format!("Database::new: {e}"))?;
        let strategy: Box<dyn JoinStrategy> = match label {
            "mv" => {
                let t = tracer.begin("linearhash.mv_build");
                let mv = db.materialized_view();
                timed_ns += tracer.end(t);
                Box::new(mv.map_err(|e| format!("materialized_view: {e}"))?)
            }
            "ji" => {
                let t = tracer.begin("exec.ji_build");
                let ji = db.join_index();
                timed_ns += tracer.end(t);
                Box::new(ji.map_err(|e| format!("join_index: {e}"))?)
            }
            _ => {
                let t = tracer.begin("exec.hh_new");
                let hh = db.hybrid_hash();
                timed_ns += tracer.end(t);
                Box::new(hh)
            }
        };
        lanes.push(Lane { on_update_span, query_span, db, strategy });
    }
    Ok((lanes, timed_ns))
}

/// The program's own counters, summed over the three engines.
struct Counters {
    ledger: OpCounts,
    counters: BTreeMap<&'static str, u64>,
    section_ios: BTreeMap<&'static str, u64>,
    proc: ProcSnapshot,
}

impl Counters {
    fn read(lanes: &[Lane]) -> Counters {
        let mut ledger = OpCounts::default();
        let mut counters = BTreeMap::new();
        let mut section_ios = BTreeMap::new();
        for lane in lanes {
            ledger.add(&lane.db.cost().total());
            for name in STORAGE_COUNTERS {
                *counters.entry(name).or_insert(0) += lane.db.metrics().counter(name);
            }
            for (section, _) in SECTIONS {
                *section_ios.entry(section).or_insert(0) +=
                    lane.db.cost().section_counts(section).ios;
            }
        }
        Counters { ledger, counters, section_ios, proc: ProcSnapshot::take() }
    }
}

/// One round's answers, one per strategy (`None` if its query failed).
type Answers = [Option<Vec<ViewTuple>>; 3];

/// The first trial's counters at the two ends of its measured rounds, the
/// answer sizes by strategy, and how many partitions hybrid hash spilled.
struct Window {
    start: Counters,
    end: Counters,
    tuples: [u64; 3],
    spilled: f64,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let params = SystemParams { mem_pages: MEM_PAGES, ..SystemParams::paper_defaults() };
    let gen = spec(cfg.seed).generate();
    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    let Window { start, end, tuples, spilled } = measure::run_trials(cfg.seconds, |trial| {
        trial_run(cfg, &params, &gen, trial, &mut tracer, &mut totals)
    })?;
    let Totals { tally, rounds, mut lat, setup_s, correct, check_points } = totals;

    let n = f64::from(TRIAL_ROUNDS);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", median(&setup_s));
    lat.insert_metrics(&mut m, UPDATE_QUANTILE);
    measure::counter_metrics(
        &mut m,
        n,
        &params,
        &end.ledger.delta_since(&start.ledger),
        |name| (end.counters[name] - start.counters[name]) as f64,
        |section| (end.section_ios[section] - start.section_ios[section]) as f64,
        (&start.proc, &end.proc),
    );
    m.insert("exec.hh.spilled_partitions", spilled);
    for (i, metric) in
        ["exec.mv.tuples_per_query", "exec.ji.tuples_per_query", "exec.hh.tuples_per_query"]
            .into_iter()
            .enumerate()
    {
        m.insert(metric, tuples[i] as f64 / n);
    }

    // Per-call timings come from the spans of traced rounds.
    if cfg.trace {
        let us = |name: &str| quantile(&mut tracer.durations(name), 0.5) as f64 / 1e3;
        for (metric, span) in [
            ("exec.mv.on_update_us", "exec.mv.on_update"),
            ("exec.ji.on_update_us", "exec.ji.on_update"),
            ("exec.hh.on_update_us", "exec.hh.on_update"),
            ("core.apply_r_update_us", "core.apply_r_update"),
        ] {
            m.insert(metric, us(span));
        }
        let secs = |name: &str| {
            median(&tracer.durations(name).iter().map(|&ns| ns as f64 / 1e9).collect::<Vec<_>>())
        };
        for (metric, span) in [
            ("core.db_new_s", "core.db_new"),
            ("linearhash.mv_build_s", "linearhash.mv_build"),
            ("exec.ji_build_s", "exec.ji_build"),
        ] {
            m.insert(metric, secs(span));
        }
    }

    Ok(Outcome { correct, check_points, tally, rounds, tracer, metrics: m })
}

/// One trial: build the engines `SETUPS` times and keep the last, run one
/// untimed warm-up round, then `TRIAL_ROUNDS` measured ones.
fn trial_run(
    cfg: &RunConfig,
    params: &SystemParams,
    gen: &trijoin::GeneratedWorkload,
    trial: u32,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> Result<Window, String> {
    tracer.set_recording(cfg.trace, NONE);
    let mut lanes = Vec::new();
    for _ in 0..SETUPS {
        drop(lanes);
        let (built, ns) = build(params, gen, tracer)?;
        lanes = built;
        totals.setup_s.push(ns as f64 / 1e9);
    }
    tracer.set_recording(false, NONE);

    let mut stream = gen.update_stream();
    let per_epoch = gen.updates_per_epoch();
    let mut tuples = [0u64; 3];

    // One untimed warm-up round touches every path once.
    let warm: Vec<Update> = (0..per_epoch).map(|_| stream.next_update()).collect();
    let answers = round(&mut lanes, &warm, tracer, &mut totals.tally, &mut Latencies::default());
    totals.correct &= agree(&answers.map(|a| a.map(sorted)));

    let start = Counters::read(&lanes);
    for r in 0..TRIAL_ROUNDS {
        let updates: Vec<Update> = (0..per_epoch).map(|_| stream.next_update()).collect();
        let traced = cfg.traces_round(r);
        // Span round ids run on across trials.
        tracer.set_recording(traced, trial * TRIAL_ROUNDS + r);
        let t = tracer.begin(ROUND);
        let answers = round(&mut lanes, &updates, tracer, &mut totals.tally, &mut totals.lat);
        let wall = tracer.end(t);
        tracer.set_recording(false, NONE);
        totals.rounds.push(wall, 0, traced);
        let answers = answers.map(|a| a.map(sorted));

        // Checks, outside the timed calls: the strategies agree every
        // round, and match the oracle on the first and last rounds.
        totals.correct &= agree(&answers);
        if r == 0 || r == TRIAL_ROUNDS - 1 {
            totals.correct &= matches_oracle(&answers, stream.current(), &gen.s);
            totals.check_points += 1;
        }
        for (i, a) in answers.iter().enumerate() {
            tuples[i] += a.as_ref().map_or(0, |a| a.len() as u64);
        }
    }
    let end = Counters::read(&lanes);
    let spilled = lanes[2].db.metrics().gauge("hh.spilled_partitions").unwrap_or(0.0);
    Ok(Window { start, end, tuples, spilled })
}

/// One round's calls: every mutation to each engine in turn, then one
/// query per strategy, timed into `lat`.
fn round(
    lanes: &mut [Lane],
    updates: &[Update],
    tracer: &mut Tracer,
    tally: &mut Tally,
    lat: &mut Latencies,
) -> Answers {
    let epoch = tracer.begin("engine.epoch");
    for u in updates {
        for lane in lanes.iter_mut() {
            let c = tracer.begin_detail(lane.on_update_span);
            let result = lane.strategy.on_update(u);
            tracer.end(c);
            tally.record(Op::Update, result);
            let c = tracer.begin_detail("core.apply_r_update");
            let result = lane.db.apply_r_update(u);
            tracer.end(c);
            tally.record(Op::Update, result);
        }
    }
    let epoch_ns = tracer.end(epoch);
    lat.epochs.push((epoch_ns, updates.len() as u64));
    let mut answers: Answers = Default::default();
    let mut round_query = 0;
    for (i, lane) in lanes.iter_mut().enumerate() {
        let t = tracer.begin(lane.query_span);
        let result = lane.db.query(lane.strategy.as_mut());
        let ns = tracer.end(t);
        round_query += ns;
        if let Some(rows) = tally.record(Op::Query, result) {
            lat.query[i].push(ns);
            answers[i] = Some(rows);
        }
    }
    lat.round_query.push(round_query);
    answers
}

/// Answers in oracle order, by surrogate pair. A duplicated pair stays and
/// fails the comparison.
pub fn sorted(mut rows: Vec<ViewTuple>) -> Vec<ViewTuple> {
    rows.sort_by_key(|v| (v.r_sur, v.s_sur));
    rows
}

fn agree(answers: &Answers) -> bool {
    match answers {
        [Some(mv), Some(ji), Some(hh)] => mv == ji && ji == hh,
        _ => false,
    }
}

fn matches_oracle(answers: &Answers, r: &[BaseTuple], s: &[BaseTuple]) -> bool {
    let want = sorted(oracle::join_tuples(r, s));
    answers.iter().all(|a| a.as_ref() == Some(&want))
}
