//! `mixed-open`: serving-bound open loop.
//!
//! One generator thread submits requests through `Admission` at seeded
//! Poisson arrival times: five plays of a light reference schedule spread
//! over a climb up a fixed geometric ladder of offered rates to past the
//! service's capacity, then the heavy queries one at a time. One pump
//! thread drains the queue into an unsharded `ConnService` with `nproc`
//! workers. Requests come from a pool of distinct queries clustered
//! around a few hotspots: cheap point families (ONN k = 5, small-radius
//! range, short CONN) and a few odist and route queries. Latency runs
//! from each request's due time to the moment its ticket is fulfilled.

// lint:allow-file(no-wallclock-in-kernels): a benchmark harness; wall time is what it measures
// lint:allow-file(no-thread-spawn-outside-pool): the open-loop generator and pump are benchmark client threads

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use conn_core::{
    answers_equivalent, Admission, AdmissionConfig, Answer, ConnService, Error, Query, Response,
    Scene, Ticket,
};
use conn_datasets::{batch_queries, QueryMix, DEFAULT_K};
use conn_geom::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scene::{self, timed_setup, SETUP_REPS};
use crate::stats::{mean, median, nproc, peak_rss_mb, per, percentile};
use crate::trace::{trace_overhead_pct, SpanLog};
use crate::work::Work;
use crate::{Args, Outcome};

/// Offered rate of the reference schedule (requests per second), a
/// light load: its latencies are the run's `p50_ms` / `p90_ms`.
pub const REFERENCE_RATE: f64 = 175.0;
/// Arrivals in the reference schedule.
pub const REFERENCE_ARRIVALS: usize = 250;
/// Times the reference schedule is played: before the ladder, after every
/// [`PLAY_EVERY`] rungs of the climb and, for the plays left, after it.
/// Each arrival's latency is its best over the plays, which filters out
/// the bursts and drifts a shared host adds to any one play.
pub const REFERENCE_PLAYS: usize = 5;
/// Rungs of the climb between two reference plays.
pub const PLAY_EVERY: usize = 3;
/// Offered rate of the ladder's lowest rung (requests per second).
pub const LADDER_BASE: f64 = 500.0;
/// Ratio of consecutive rungs. A capacity change of more than one step
/// moves `goodput_qps` by at least one rung.
pub const STEP: f64 = 17.0 / 16.0;
/// Rungs of the ladder; the top one, at about 2,300/s, is past the
/// service's capacity on purpose.
pub const RUNGS: usize = 26;
/// The climb offers every second rung and stops after this many of them
/// fail in a row: the rungs above would only repeat the overload. It then
/// offers the rung just above the highest passing one.
pub const STOP_AFTER_FAILS: usize = 2;

/// Offered rates of the ladder (requests per second), climbed in order.
pub fn ladder() -> [f64; RUNGS] {
    std::array::from_fn(|k| LADDER_BASE * STEP.powi(k as i32))
}
/// p99 latency limit of a passing rung (ms): well above the slowest
/// family's service time.
pub const LIMIT_MS: f64 = 1500.0;
/// A rung's backlog "does not grow" when, over its second half, the
/// queue depth its arrivals see rises by at most this share of the offered
/// rate: the service completes at least 95 % of what is offered.
pub const GROWTH_TOLERANCE: f64 = 0.05;
/// A rung stops being offered once this many requests are outstanding,
/// and fails: below the admission queue's limit of 1,024, so an
/// overloaded rung is never answered with `Error::Overloaded` refusals.
pub const CUT_DEPTH: usize = 768;
/// Distinct queries the arrivals draw from. The pool is fixed, generated
/// from the city's seed like the city itself; the seed draws which pool
/// query each arrival sends.
pub const POOL: usize = 1200;
/// Query hotspots and their spread (share of the space side).
const HOTSPOTS: usize = 4;
const SPREAD: f64 = 0.03;
/// Length of the short segments (share of the space side).
const QL: f64 = 0.01;
/// Pool queries executed traced and bare to measure tracing overhead.
const CALIBRATION_PAIRS: usize = 100;

/// The pool of distinct queries, deterministic in `seed`. Per 200: 120
/// ONN (k = 5), 50 range (radius half a segment), 28 CONN, 1 odist and
/// 1 route.
pub fn query_pool(obstacles: &[Rect], seed: u64, size: usize) -> Vec<Query> {
    let mix = QueryMix::Clustered {
        hotspots: HOTSPOTS,
        spread: SPREAD,
    };
    batch_queries(size, mix, QL, seed, obstacles)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            match i % 200 {
                0..=119 => Query::onn(s.a, DEFAULT_K),
                120..=169 => Query::range(s.a, 0.5 * s.len()),
                170..=197 => Query::conn(s),
                198 => Query::odist(s.a, s.b),
                _ => Query::route(s.a, s.b),
            }
            .build()
            .expect("generated queries are valid")
        })
        .collect()
}

/// One scheduled arrival: offset from its rung's start (s) and the pool
/// query it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub offset_s: f64,
    pub query: usize,
}

/// Seconds of offered traffic in the reference plays.
pub fn reference_seconds() -> f64 {
    (REFERENCE_PLAYS * REFERENCE_ARRIVALS) as f64 / REFERENCE_RATE
}

/// Arrivals per rung when the reference plays and a climb over every
/// second rung of the whole ladder are to take `seconds` of offered
/// traffic: every rung gets the same count.
pub fn per_rung(seconds: f64) -> usize {
    let ladder_s = (seconds - reference_seconds()).max(0.0);
    let coarse: f64 = ladder().iter().step_by(2).map(|r| 1.0 / r).sum();
    (ladder_s / coarse) as usize
}

/// Whether a pool query is one of the heavy point-to-point families.
pub fn is_heavy(q: &Query) -> bool {
    matches!(q.kind().family(), "odist" | "route")
}

/// The whole arrival schedule, generated up front.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Light-only Poisson arrivals at [`REFERENCE_RATE`].
    pub reference: Vec<Arrival>,
    /// Per rung, `n` Poisson arrivals at the rung's rate.
    pub ladder: Vec<Vec<Arrival>>,
    /// The pool's heavy queries, sent one at a time after the ladder.
    pub heavy: Vec<usize>,
}

/// One stretch of the run: a play of the reference schedule, a rung, or
/// one heavy query on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Reference(usize),
    Rung(usize),
    Heavy,
}

/// `n` Poisson arrivals at `rate` sending `queries` in a shuffled order,
/// cycling when `n` is larger.
fn poisson(rng: &mut StdRng, rate: f64, mut queries: Vec<usize>, n: usize) -> Vec<Arrival> {
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.gen_range(0..=i));
    }
    let mut t = 0.0;
    (0..n)
        .map(|j| {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            Arrival {
                offset_s: t,
                query: queries[j % queries.len()],
            }
        })
        .collect()
}

/// The arrival schedule for `seed` with `n` arrivals per rung.
///
/// The reference schedule sends the first [`REFERENCE_ARRIVALS`] light
/// pool queries. It is fixed like the pool, generated from the city's
/// seed: at light load each arrival's latency depends on what arrived just
/// before it, so with a schedule drawn per seed the percentiles followed
/// the draw (p90 spread 0.17 across five seeds), where its plays filter
/// only the host's noise.
///
/// Every rung sends the whole light pool (cycling when `n` is larger) in
/// an order and at times the seed draws; with queries drawn at random
/// instead, the mix and so the capacity changed from seed to seed.
///
/// The heavy queries (odist and route, 0.3–0.6 s each) are not part of
/// the reference schedule or the ladder: each one stalls the pump for its
/// whole length, as its coalesced batch completes only with it. When every
/// rung opened with one, the stall's backlog pushed the service into
/// large batches that raise its capacity, and the highest passing rung
/// ranged from 1,241 to 1,898/s across ten seeds. They are sent one at a
/// time after the ladder, checked like every other answer, and their
/// latencies are kept in the run record.
pub fn schedule(seed: u64, n: usize, pool: &[Query]) -> Plan {
    let (heavy, light): (Vec<usize>, Vec<usize>) =
        (0..pool.len()).partition(|&i| is_heavy(&pool[i]));
    let mut fixed = StdRng::seed_from_u64(scene::CITY_SEED ^ 0x5DEE_CE66_D1CE_4E5B);
    let catalogue = light[..REFERENCE_ARRIVALS.min(light.len())].to_vec();
    let reference = poisson(&mut fixed, REFERENCE_RATE, catalogue, REFERENCE_ARRIVALS);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_4E5B);
    let ladder = ladder()
        .iter()
        .map(|&rate| poisson(&mut rng, rate, light.clone(), n))
        .collect();
    Plan {
        reference,
        ladder,
        heavy,
    }
}

/// A submitted request whose ticket is not fulfilled yet.
struct Pending {
    phase: Phase,
    slot: usize,
    query: usize,
    due: Instant,
    ticket: Ticket,
}

/// A finished request.
struct Done {
    phase: Phase,
    slot: usize,
    query: usize,
    due: Instant,
    finished: Instant,
    result: Result<Response, Error>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a lock")
}

/// State shared by the generator and the pump thread.
struct Shared {
    outstanding: Mutex<VecDeque<Pending>>,
    done: Mutex<Vec<Done>>,
    wake: Condvar,
    stop: AtomicBool,
    pump_wall_s: Mutex<f64>,
}

impl Shared {
    /// Moves the fulfilled tickets at the front of the queue to `done`.
    /// The single pump fulfils in submission order, so after it returns
    /// `n` the `n` oldest outstanding tickets hold their responses.
    fn harvest(&self, n: usize) {
        let finished = Instant::now();
        let mut outstanding = lock(&self.outstanding);
        let mut done = lock(&self.done);
        for _ in 0..n {
            let Some(front) = outstanding.front() else {
                break;
            };
            let Some(result) = front.ticket.try_take() else {
                break;
            };
            let p = outstanding.pop_front().expect("front exists");
            done.push(Done {
                phase: p.phase,
                slot: p.slot,
                query: p.query,
                due: p.due,
                finished,
                result,
            });
        }
    }
}

/// The generator thread's side of the run: it offers the phases one by
/// one, each from an empty system, and judges a rung once it has drained.
struct Generator<'s> {
    shared: &'s Shared,
    admission: &'s Admission,
    pool: &'s [Query],
    log: SpanLog,
    lags_ms: Vec<f64>,
    refused: u64,
    /// Due offset (s) and queue depth seen by each arrival of each rung
    /// offered.
    depths: Vec<Vec<(f64, usize)>>,
    rung_starts: Vec<Option<Instant>>,
    /// Rungs whose offer was cut at [`CUT_DEPTH`].
    cut: Vec<bool>,
}

impl Generator<'_> {
    /// Waits until every submitted request has been harvested.
    fn settle(&self) {
        while !lock(&self.shared.outstanding).is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Offers `arrivals` as `phase`, starting from an empty system.
    fn play(&mut self, phase: Phase, arrivals: &[Arrival]) {
        self.settle();
        let start = Instant::now() + Duration::from_millis(2);
        if let Phase::Rung(k) = phase {
            self.rung_starts[k] = Some(start);
        }
        for (i, a) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(a.offset_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let mut outstanding = lock(&self.shared.outstanding);
            if let Phase::Rung(k) = phase {
                if outstanding.len() >= CUT_DEPTH {
                    self.cut[k] = true;
                    break;
                }
            }
            let submitted = Instant::now();
            self.lags_ms
                .push(submitted.duration_since(due).as_secs_f64() * 1e3);
            let admission = self.admission;
            let query = self.pool[a.query].clone();
            let result = self
                .log
                .span("admission.submit", i as u64, || admission.submit(query));
            match result {
                Ok(ticket) => outstanding.push_back(Pending {
                    phase,
                    slot: i,
                    query: a.query,
                    due,
                    ticket,
                }),
                Err(_) => self.refused += 1,
            }
            if let Phase::Rung(k) = phase {
                self.depths[k].push((a.offset_s, outstanding.len()));
            }
            drop(outstanding);
            self.shared.wake.notify_one();
        }
    }

    /// Whether rung `k`, once drained, passes on its raw latencies (the
    /// answers are checked at the end of the run).
    fn passes(&self, k: usize) -> bool {
        self.settle();
        let lat: Vec<f64> = lock(&self.shared.done)
            .iter()
            .filter(|d| d.phase == Phase::Rung(k))
            .map(|d| d.finished.duration_since(d.due).as_secs_f64() * 1e3)
            .collect();
        !self.cut[k] && Rung::new(ladder()[k], &lat, 0.0, &self.depths[k]).passes()
    }
}

/// Whether `answer` agrees at 1e-6 with the serial reference response;
/// a missing reference (the serial execute failed) never agrees.
pub fn matches_reference(reference: &Option<Response>, answer: &Answer) -> bool {
    reference
        .as_ref()
        .is_some_and(|r| answers_equivalent(&r.answer, answer, 1e-6))
}

/// Per-rung latency summary.
struct Rung {
    rate: f64,
    completed: usize,
    wall_s: f64,
    p99_ms: Option<f64>,
    /// Backlog growth over the second half (requests per second).
    slope: f64,
    /// Requests completed over the second half of the arrivals, and its
    /// length (s).
    window_completed: usize,
    window_s: f64,
    /// Whether its offer was cut at [`CUT_DEPTH`]; such a rung fails.
    cut: bool,
}

impl Rung {
    /// Summarises a rung from its latencies (wrong answers as infinite,
    /// so they miss the limit) and the queue depths its arrivals saw.
    fn new(rate: f64, latencies_ms: &[f64], wall_s: f64, depths: &[(f64, usize)]) -> Self {
        Rung {
            rate,
            completed: latencies_ms.iter().filter(|l| l.is_finite()).count(),
            wall_s,
            p99_ms: percentile(latencies_ms, 0.99, "rung latency")
                .ok()
                .map(|p| p.value),
            slope: backlog_slope(depths),
            window_completed: 0,
            window_s: 0.0,
            cut: false,
        }
    }

    fn passes(&self) -> bool {
        !self.cut
            && self.p99_ms.is_some_and(|p| p <= LIMIT_MS)
            && self.slope <= GROWTH_TOLERANCE * self.rate
    }
}

/// Backlog growth over a rung's second half: the least-squares slope of
/// the queue depth its arrivals see against their due offsets (requests
/// per second). The slope of a whole half, not the difference of two
/// averages, so the sawtooth of coalesced batches does not decide it.
pub fn backlog_slope(depths: &[(f64, usize)]) -> f64 {
    let half = &depths[depths.len() / 2..];
    let t: Vec<f64> = half.iter().map(|&(t, _)| t).collect();
    let d: Vec<f64> = half.iter().map(|&(_, d)| d as f64).collect();
    let (mt, md) = (mean(&t), mean(&d));
    let cov: f64 = t.iter().zip(&d).map(|(a, b)| (a - mt) * (b - md)).sum();
    let var: f64 = t.iter().map(|a| (a - mt) * (a - mt)).sum();
    if var > 0.0 {
        cov / var
    } else {
        0.0
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let workers = nproc();
    let city = scene::city(args.scale, scene::CITY_SEED);
    let pool = query_pool(&city.obstacles, scene::CITY_SEED, POOL);
    let plan = schedule(args.seed, per_rung(args.seconds), &pool);
    let prep = || (city.points.clone(), city.obstacles.clone());
    let build = |(p, o)| ConnService::new(Scene::new(p, o));
    let (lead, tail) = scene::lead_and_tail(SETUP_REPS);
    let (service, mut setup) = timed_setup(lead, prep, build);
    // Unmeasured warm-up: every worker's engine answers a heavy query
    // (each primes its own obstacle field), then a pass of light ones.
    let heavy: Vec<Query> = pool
        .iter()
        .filter(|q| is_heavy(q))
        .take(workers)
        .cloned()
        .collect();
    let _ = service.execute_batch_threads(&heavy, workers);
    for q in pool.iter().take(50) {
        let _ = service.execute(q);
    }

    let admission = Admission::new(AdmissionConfig::default());
    let shared = Shared {
        outstanding: Mutex::new(VecDeque::new()),
        done: Mutex::new(Vec::new()),
        wake: Condvar::new(),
        stop: AtomicBool::new(false),
        pump_wall_s: Mutex::new(0.0),
    };
    let origin = Instant::now();

    let (pump_log, gen) = std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let mut log = SpanLog::new(args.trace, origin);
            let mut batch = 0u64;
            loop {
                let t = Instant::now();
                let n = log.span("admission.pump", batch, || {
                    admission.pump(&service, workers)
                });
                if n > 0 {
                    *lock(&shared.pump_wall_s) += t.elapsed().as_secs_f64();
                    shared.harvest(n);
                    batch += 1;
                    continue;
                }
                let idle = lock(&shared.outstanding);
                if shared.stop.load(Ordering::SeqCst) && idle.is_empty() {
                    break log;
                }
                if admission.pending() == 0 {
                    let _ = shared.wake.wait_timeout(idle, Duration::from_millis(1));
                }
            }
        });

        let mut gen = Generator {
            shared: &shared,
            admission: &admission,
            pool: &pool,
            log: SpanLog::new(args.trace, origin),
            lags_ms: Vec::new(),
            refused: 0,
            depths: vec![Vec::new(); RUNGS],
            rung_starts: vec![None; RUNGS],
            cut: vec![false; RUNGS],
        };
        gen.play(Phase::Reference(0), &plan.reference);
        let mut plays = 1;
        // The climb: every second rung until two fail in a row, then the
        // rung just above the highest passing one.
        let (mut top, mut fails) = (None, 0);
        for k in (0..RUNGS).step_by(2) {
            if k > 0 && (k / 2).is_multiple_of(PLAY_EVERY) && plays < REFERENCE_PLAYS {
                gen.play(Phase::Reference(plays), &plan.reference);
                plays += 1;
            }
            gen.play(Phase::Rung(k), &plan.ladder[k]);
            if gen.passes(k) {
                (top, fails) = (Some(k), 0);
            } else {
                fails += 1;
                if fails >= STOP_AFTER_FAILS {
                    break;
                }
            }
        }
        if let Some(k) = top.map(|k| k + 1).filter(|&k| k < RUNGS) {
            gen.play(Phase::Rung(k), &plan.ladder[k]);
        }
        for p in plays..REFERENCE_PLAYS {
            gen.play(Phase::Reference(p), &plan.reference);
        }
        for &query in &plan.heavy {
            gen.play(
                Phase::Heavy,
                &[Arrival {
                    offset_s: 0.0,
                    query,
                }],
            );
        }
        shared.stop.store(true, Ordering::SeqCst);
        shared.wake.notify_one();
        (pump.join().expect("the pump thread panicked"), gen)
    });
    let Generator {
        log: gen_log,
        lags_ms,
        refused,
        depths,
        rung_starts,
        cut,
        ..
    } = gen;
    let done = shared.done.into_inner().expect("no thread holds the lock");
    let pump_wall_s = shared.pump_wall_s.into_inner().expect("no thread holds it");

    // Every answer is checked against a serial execute on a fresh service.
    let fresh = ConnService::new(Scene::new(city.points.clone(), city.obstacles.clone()));
    let mut used: Vec<usize> = done.iter().map(|d| d.query).collect();
    used.sort_unstable();
    used.dedup();
    let mut reference: Vec<Option<Response>> = (0..pool.len()).map(|_| None).collect();
    for &q in &used {
        reference[q] = fresh.execute(&pool[q]).ok();
    }

    let mut out = Outcome {
        attempted: done.len() as u64 + refused,
        failed: refused,
        ..Outcome::default()
    };
    let mut per_rung: Vec<Vec<f64>> = vec![Vec::new(); RUNGS];
    let mut last_finish: Vec<Option<Instant>> = vec![None; RUNGS];
    let mut best_ms = vec![f64::INFINITY; plan.reference.len()];
    let mut work = Work::default();
    let mut waits_ms = Vec::new();
    let mut pages = 0.0;
    let mut ladder_cpu_ms = 0.0;
    let mut heavy_ms = Vec::new();
    for d in &done {
        let latency_ms = d.finished.duration_since(d.due).as_secs_f64() * 1e3;
        let r = match &d.result {
            Ok(r) if matches_reference(&reference[d.query], &r.answer) => r,
            _ => {
                out.failed += 1;
                if let Phase::Rung(k) = d.phase {
                    per_rung[k].push(f64::INFINITY);
                }
                continue;
            }
        };
        let cpu_ms = r.stats.cpu.as_secs_f64() * 1e3;
        match d.phase {
            Phase::Reference(_) => {
                let best = &mut best_ms[d.slot];
                *best = best.min(latency_ms);
            }
            Phase::Rung(k) => {
                per_rung[k].push(latency_ms);
                let last = &mut last_finish[k];
                *last = Some(last.map_or(d.finished, |l: Instant| l.max(d.finished)));
                ladder_cpu_ms += cpu_ms;
            }
            Phase::Heavy => heavy_ms.push(latency_ms),
        }
        work.add(&r.stats);
        waits_ms.push(latency_ms - cpu_ms);
        if let Some(s) = reference[d.query].as_ref().map(|s| &s.stats) {
            pages += (s.data_io.reads + s.obstacle_io.reads) as f64;
        }
    }

    let rungs: Vec<Rung> = ladder()
        .iter()
        .enumerate()
        .filter_map(|(k, &rate)| {
            let start = rung_starts[k]?;
            let wall_s = last_finish[k].map_or(0.0, |l| l.duration_since(start).as_secs_f64());
            let at = |i: usize| depths[k].get(i).map_or(0.0, |d| d.0);
            let (from, to) = (
                at(depths[k].len() / 2),
                at(depths[k].len().saturating_sub(1)),
            );
            let window_completed = done
                .iter()
                .filter(|d| d.phase == Phase::Rung(k))
                .map(|d| d.finished.duration_since(start).as_secs_f64())
                .filter(|t| (from..to).contains(t))
                .count();
            Some(Rung {
                window_completed,
                window_s: to - from,
                cut: cut[k],
                ..Rung::new(rate, &per_rung[k], wall_s, &depths[k])
            })
        })
        .collect();
    for (k, r) in rungs.iter().enumerate() {
        if r.p99_ms.is_none() && !r.cut {
            return Err(format!(
                "rung {k} ({} /s) completed {} requests, too few for a p99 with 10 beyond",
                r.rate, r.completed
            ));
        }
    }
    // A reference arrival whose answers were all wrong has no best latency;
    // it is counted in `failed` already.
    best_ms.retain(|l| l.is_finite());
    let p50 = percentile(&best_ms, 0.50, "reference latency")?;
    let p90 = percentile(&best_ms, 0.90, "reference latency")?;
    let completed: usize = rungs.iter().map(|r| r.completed).sum();
    let wall: f64 = rungs.iter().map(|r| r.wall_s).sum();
    let top_pass = rungs.iter().rposition(Rung::passes);
    // Goodput is the highest offered rate on the ladder that passes.
    let goodput = top_pass.map_or(0.0, |i| rungs[i].rate);
    // The rungs above the highest passing one run the service flat out:
    // their completion rate over the second half of their arrivals, once
    // the queue has filled, is its capacity. When every rung passes, the
    // top rung's rate is a lower bound.
    let saturated = &rungs[top_pass.map_or(0, |i| i + 1).min(rungs.len() - 1)..];
    let throughput = saturated.iter().map(|r| r.window_completed).sum::<usize>() as f64
        / saturated.iter().map(|r| r.window_s).sum::<f64>();

    let e = &mut out.end_to_end;
    e.p50_ms = p50.value;
    e.p90_ms = p90.value;
    e.throughput_qps = throughput;
    e.goodput_qps = goodput;
    e.peak_rss_mb = peak_rss_mb();
    out.note("workers", workers);
    out.note("pool_queries", pool.len());
    out.note("requests", done.len());
    out.note("ladder_requests", completed);
    out.note("refused", refused);
    out.note("ladder_s", wall);
    out.note("rungs_run", rungs.len());
    out.note("saturated_rungs", saturated.len());
    out.note_pct("p50_ms", p50);
    out.note_pct("p90_ms", p90);
    out.note("reference_rate", REFERENCE_RATE);
    out.note("reference_plays", REFERENCE_PLAYS);
    out.note("limit_ms", LIMIT_MS);
    out.note("growth_tolerance", GROWTH_TOLERANCE);
    out.note("heavy_latency_ms", format!("{heavy_ms:?}"));
    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\":{},\"completed\":{},\"wall_s\":{},\"window_rate\":{},\"p99_ms\":{},\"backlog_slope\":{},\"cut\":{},\"passes\":{}}}",
                r.rate,
                r.completed,
                r.wall_s,
                r.window_completed as f64 / r.window_s,
                r.p99_ms.unwrap_or(0.0),
                r.slope,
                r.cut,
                r.passes()
            )
        })
        .collect();
    out.note("ladder", format!("[{}]", ladder.join(",")));

    if args.trace {
        let mut l = crate::Layers::default();
        work.fill(&mut l);
        l.index_pages_read = per(pages, work.requests);
        l.service_overhead_ms = per(
            pump_wall_s * workers as f64 - work.cpu_ms / 1e3,
            work.requests,
        ) * 1e3;
        let wait50 = percentile(&waits_ms, 0.50, "admission wait")?;
        let wait99 = percentile(&waits_ms, 0.99, "admission wait")?;
        let lag99 = percentile(&lags_ms, 0.99, "generator lag")?;
        l.admission_wait_p50_ms = wait50.value;
        l.admission_wait_p99_ms = wait99.value;
        l.admission_batch_size = admission.served() as f64 / admission.batches().max(1) as f64;
        l.pool_utilisation = ladder_cpu_ms / 1e3 / (wall * workers as f64);
        l.generator_lag_p99_ms = lag99.value;
        l.epoch_live_max = service.epochs_live() as f64;
        l.epoch_retired = service.epochs_retired() as f64;
        let mut log = gen_log;
        log.merge(pump_log);
        let calibration: Vec<&Query> = pool.iter().take(CALIBRATION_PAIRS).collect();
        l.trace_overhead_pct = trace_overhead_pct(&mut log, &calibration, |q| {
            std::hint::black_box(service.execute(q).map(|r| r.stats.npe).ok());
        });
        out.layers = l;
        out.note_pct("admission_wait_p50_ms", wait50);
        out.note_pct("admission_wait_p99_ms", wait99);
        out.note_pct("generator_lag_p99_ms", lag99);
        out.note("spans", log.len());
        log.write_jsonl(&crate::spans_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    drop((service, fresh));
    setup.extend(timed_setup(tail, prep, build).1);
    out.end_to_end.setup_s = median(&setup);
    out.note("setup_samples_s", format!("{setup:?}"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_bench::Scale;

    #[test]
    fn same_seed_same_schedule_and_pool() {
        let city = scene::city(Scale::SMOKE, 9);
        let p = query_pool(&city.obstacles, 9, 400);
        let q = query_pool(&city.obstacles, 9, 400);
        let kinds = |v: &[Query]| {
            v.iter()
                .map(|x| format!("{:?}", x.kind()))
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&p), kinds(&q));
        assert_eq!(p.iter().filter(|x| is_heavy(x)).count(), 4);
        let a = schedule(9, 1200, &p);
        assert_eq!(a, schedule(9, 1200, &p));
        let b = schedule(10, 1200, &p);
        assert_ne!(a.ladder, b.ladder);
        // the reference schedule is fixed like the pool
        assert_eq!(a.reference, b.reference);
        let rungs = a.ladder.iter().zip(ladder());
        for (arrivals, rate) in std::iter::once((&a.reference, REFERENCE_RATE)).chain(rungs) {
            let n = arrivals.len();
            assert!(arrivals.windows(2).all(|w| w[0].offset_s < w[1].offset_s));
            let span = arrivals[n - 1].offset_s * rate;
            let nf = n as f64;
            assert!((span - nf).abs() < 6.0 * nf.sqrt(), "{span} at {rate}/s");
        }
        assert_eq!(a.reference.len(), REFERENCE_ARRIVALS);
        assert!(a.ladder.iter().all(|r| r.len() == 1200));
        let service = ConnService::new(Scene::new(city.points.clone(), city.obstacles.clone()));
        let answers: Vec<Option<Response>> =
            p.iter().take(6).map(|q| service.execute(q).ok()).collect();
        for (i, a) in answers.iter().enumerate() {
            let answer = &a.as_ref().unwrap().answer;
            assert!(matches_reference(&answers[i], answer));
            // a corrupted reference — another query's answer, or none — fails
            assert!(!matches_reference(&answers[(i + 1) % 6], answer));
            assert!(!matches_reference(&None, answer));
        }
        // the reference schedule and the rungs are light only; the heavy
        // queries go on their own
        assert!(!a.reference.iter().any(|x| is_heavy(&p[x.query])));
        assert!(!a.ladder.iter().flatten().any(|x| is_heavy(&p[x.query])));
        assert_eq!(a.heavy.len(), 4);
        assert!(a.heavy.iter().all(|&q| is_heavy(&p[q])));
        let climb_s: f64 = ladder().iter().step_by(2).map(|r| 10.0 / r).sum();
        assert_eq!(per_rung(reference_seconds() + climb_s + 1e-9), 10);
        let top = ladder()[RUNGS - 1];
        assert!((2000.0..2500.0).contains(&top), "{top}");
    }
}
