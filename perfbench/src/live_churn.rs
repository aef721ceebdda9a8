//! `live-churn`: the write path beside reads.
//!
//! One closed-loop client on a `LiveScene` alternates deltas with ad-hoc
//! reads. The deltas are insert/remove pairs of obstacles — footprints
//! copied from randomly chosen obstacles of the scene, so sized like the
//! scene's own — and
//! of sites, all landing in the district that holds one standing query of
//! each certified family (conn, coknn, onn, range, odist, route), so
//! certificates are actually hit. The district and its standing set are
//! fixed like the city; the seed draws the deltas and the reads, which
//! are spread over the whole city. Deltas keep standing and read queries in free space, the paper's
//! model.

// lint:allow-file(no-wallclock-in-kernels): a benchmark harness; wall time is what it measures

use std::time::Instant;

use conn_core::{
    answers_equivalent, Answer, ConnConfig, ConnService, DataPoint, LiveScene, PatchReport, Query,
    Scene, StandingHandle,
};
use conn_datasets::{batch_queries, ObstacleLookup, QueryMix, DEFAULT_K, SPACE_SIDE};
use conn_geom::{Point, Rect, Segment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replay;
use crate::scene::{self, timed_setup};
use crate::stats::{median, peak_rss_mb, per, percentile};
use crate::trace::{trace_overhead_pct, SpanLog};
use crate::work::Work;
use crate::{Args, Outcome};

/// District radius as a share of the space side.
const SPREAD: f64 = 0.02;
/// Length of the standing and read segments (share of the space side).
const QL: f64 = 0.01;
/// Obstacle footprints of the delta catalogue; each gives one obstacle
/// pair and one site pair, so a pass holds four times as many deltas.
const FOOTPRINTS: usize = 30;
/// Distinct ad-hoc reads: one per delta of a pass.
const READS: usize = 4 * FOOTPRINTS;
/// Footprint draws tried while looking for [`FOOTPRINTS`] clear ones.
const FOOTPRINT_DRAWS: usize = 600;
/// Fewest passes a run makes, so every operation has a best of several.
const MIN_PASSES: usize = 3;
/// Site positions of the district's fixed catalogue. A site insert near a
/// standing ONN or range anchor costs one obstructed-distance evaluation,
/// which varies from milliseconds to seconds with the position, so every
/// run cycles through the same positions (in a seed-dependent order)
/// rather than drawing its own. [`FOOTPRINTS`] is a multiple of it, so a
/// pass inserts every site equally often whatever the seed.
const SITES: usize = 10;
/// Set-up repetitions: each one indexes the city and registers the
/// standing set.
const SETUP_REPS: usize = 5;
/// Latency limit behind `goodput_qps` (ms).
pub const LIMIT_MS: f64 = 1000.0;
/// Reads executed traced and bare to measure tracing overhead.
const CALIBRATION_PAIRS: usize = 100;

/// The standing family of query `i`.
fn standing_query(i: usize, s: Segment) -> Query {
    match i % 6 {
        0 => Query::conn(s),
        1 => Query::coknn(s, DEFAULT_K),
        2 => Query::onn(s.a, DEFAULT_K),
        3 => Query::range(s.a, 0.5 * s.len()),
        4 => Query::odist(s.a, s.b),
        _ => Query::route(s.a, s.b),
    }
    .build()
    .expect("generated queries are valid")
}

/// The read family of read `i`: ONN, range and short CONN in turn.
fn read_query(i: usize, s: Segment) -> Query {
    match i % 3 {
        0 => Query::onn(s.a, DEFAULT_K),
        1 => Query::range(s.a, 0.5 * s.len()),
        _ => Query::conn(s),
    }
    .build()
    .expect("generated queries are valid")
}

/// Whether a well-formed answer of the read's family came back.
fn read_ok(i: usize, answer: &Answer) -> bool {
    match i % 3 {
        2 => answer.as_conn().is_some_and(|r| r.check_cover().is_ok()),
        _ => answer.neighbors().is_some(),
    }
}

/// One delta of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta {
    InsertObstacle(Rect),
    RemoveObstacle(Rect),
    InsertSite(DataPoint),
    RemoveSite(DataPoint),
}

/// The generated inputs of a run: the standing queries of the district,
/// the reads and the delta stream.
pub struct Plan {
    pub standing: Vec<Query>,
    pub reads: Vec<Query>,
    /// The order in which a pass sends the reads (indices into `reads`).
    pub read_order: Vec<usize>,
    /// One pass of insert/remove pairs, obstacle pairs and site pairs
    /// alternating.
    pub deltas: Vec<Delta>,
}

/// Seed of the district and its standing queries: like the city, one
/// fixed instance.
pub const DISTRICT_SEED: u64 = scene::CITY_SEED + 1;

/// Builds the plan over the city. The district, its standing set, the
/// reads and the delta catalogue are fixed like the city; `seed` orders
/// the reads and the footprints and pairs footprints with sites. With
/// reads and footprints drawn per seed, the figures followed the draw.
pub fn plan(obstacles: &[Rect], points: &[DataPoint], seed: u64) -> Plan {
    let mix = QueryMix::Clustered {
        hotspots: 1,
        spread: SPREAD,
    };
    let standing_segs = batch_queries(6, mix, QL, DISTRICT_SEED, obstacles);
    let read_segs = batch_queries(
        READS,
        QueryMix::Uniform,
        QL,
        DISTRICT_SEED.wrapping_add(1),
        obstacles,
    );
    let standing: Vec<Query> = standing_segs
        .iter()
        .enumerate()
        .map(|(i, s)| standing_query(i, *s))
        .collect();
    let reads: Vec<Query> = read_segs
        .iter()
        .enumerate()
        .map(|(i, s)| read_query(i, *s))
        .collect();

    // The district: centred on the standing queries.
    let n = standing_segs.len() as f64;
    let centre = Point::new(
        standing_segs.iter().map(|s| s.a.x + s.b.x).sum::<f64>() / (2.0 * n),
        standing_segs.iter().map(|s| s.a.y + s.b.y).sum::<f64>() / (2.0 * n),
    );
    let radius = SPREAD * SPACE_SIDE;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_F491_4F6C_DD1D);
    let mut catalogue_rng = StdRng::seed_from_u64(DISTRICT_SEED);
    let in_district = |rng: &mut StdRng| {
        let r = radius * rng.gen::<f64>().sqrt();
        let a = rng.gen_range(0.0..std::f64::consts::TAU);
        Point::new(centre.x + r * a.cos(), centre.y + r * a.sin())
    };

    // A footprint must keep every standing and read query in free space
    // and must not swallow a site.
    let anchored: Vec<(Segment, bool)> = standing_segs
        .iter()
        .enumerate()
        .map(|(i, s)| (*s, matches!(i % 6, 0 | 1)))
        .chain(read_segs.iter().enumerate().map(|(i, s)| (*s, i % 3 == 2)))
        .collect();
    let window = Rect::new(
        centre.x - 2.0 * radius,
        centre.y - 2.0 * radius,
        centre.x + 2.0 * radius,
        centre.y + 2.0 * radius,
    );
    let near_sites: Vec<Point> = points
        .iter()
        .map(|p| p.pos)
        .filter(|p| window.contains(*p))
        .collect();
    let clear = |r: &Rect| {
        anchored.iter().all(|(s, whole)| {
            if *whole {
                r.mindist_segment(s) > 0.0
            } else {
                !r.strictly_contains(s.a) && !r.strictly_contains(s.b)
            }
        }) && !near_sites.iter().any(|p| r.strictly_contains(*p))
    };
    let mut footprints: Vec<Rect> = (0..FOOTPRINT_DRAWS)
        .filter_map(|_| {
            let r = obstacles[catalogue_rng.gen_range(0..obstacles.len())];
            let c = in_district(&mut catalogue_rng);
            let (hw, hh) = (0.5 * r.width(), 0.5 * r.height());
            let moved = Rect::new(c.x - hw, c.y - hh, c.x + hw, c.y + hh);
            clear(&moved).then_some(moved)
        })
        .take(FOOTPRINTS)
        .collect();
    let lookup = ObstacleLookup::build(obstacles);
    let mut sites: Vec<DataPoint> = Vec::with_capacity(SITES);
    while sites.len() < SITES {
        let p = in_district(&mut catalogue_rng);
        if !lookup.point_in_interior(p) {
            sites.push(DataPoint::new(u32::MAX - sites.len() as u32, p));
        }
    }
    let mut shuffle = |n: usize, swap: &mut dyn FnMut(usize, usize)| {
        for i in (1..n).rev() {
            swap(i, rng.gen_range(0..=i));
        }
    };
    shuffle(sites.len(), &mut |i, j| sites.swap(i, j));
    shuffle(footprints.len(), &mut |i, j| footprints.swap(i, j));
    let mut read_order: Vec<usize> = (0..reads.len()).collect();
    shuffle(read_order.len(), &mut |i, j| read_order.swap(i, j));
    let mut deltas = Vec::with_capacity(4 * footprints.len());
    for (r, p) in footprints.iter().zip(sites.iter().cycle()) {
        deltas.extend([
            Delta::InsertObstacle(*r),
            Delta::RemoveObstacle(*r),
            Delta::InsertSite(*p),
            Delta::RemoveSite(*p),
        ]);
    }
    Plan {
        standing,
        reads,
        read_order,
        deltas,
    }
}

/// Applies one delta; `None` when a removal found nothing to remove.
fn apply(live: &mut LiveScene, d: &Delta) -> Option<PatchReport> {
    match d {
        Delta::InsertObstacle(r) => Some(live.insert_obstacle(*r).1),
        Delta::RemoveObstacle(r) => live.remove_obstacle(r).map(|x| x.1),
        Delta::InsertSite(p) => Some(live.insert_site(*p).1),
        Delta::RemoveSite(p) => live.remove_site(p.pos).map(|x| x.1),
    }
}

/// Standing answers that disagree at 1e-6 with a cold service over the
/// live scene's current points and obstacles.
pub fn standing_mismatches(live: &LiveScene, handles: &[(StandingHandle, Query)]) -> u64 {
    let cold = ConnService::new(Scene::new(live.points(), live.obstacles()));
    handles
        .iter()
        .filter(|(h, q)| {
            let resident = live.service().standing(h);
            let fresh = cold.execute(q).ok().map(|r| r.answer);
            !matches!((resident, fresh), (Some(a), Some(b)) if answers_equivalent(&a, &b, 1e-6))
        })
        .count() as u64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let city = scene::city(args.scale, scene::CITY_SEED);
    let plan = plan(&city.obstacles, &city.points, args.seed.wrapping_add(3));
    if plan.deltas.is_empty() {
        return Err("no delta footprint fits the district".into());
    }
    let prep = || (city.points.clone(), city.obstacles.clone());
    let (lead, tail) = scene::lead_and_tail(SETUP_REPS);
    let build = |(p, o)| {
        let live = LiveScene::new(p, o, ConnConfig::default());
        let handles: Vec<(StandingHandle, Query)> = plan
            .standing
            .iter()
            .map(|q| {
                let h = live
                    .service()
                    .register(q.clone())
                    .expect("standing query registers");
                (h, q.clone())
            })
            .collect();
        (live, handles)
    };
    let ((mut live, handles), mut setup) = timed_setup(lead, prep, build);

    let mut log = SpanLog::new(args.trace, Instant::now());
    let mut out = Outcome::default();
    let mut read_ms = Vec::new();
    let mut delta_ms = Vec::new();
    let pass = plan.deltas.len();
    let mut best_read_ms = vec![f64::INFINITY; plan.reads.len()];
    let mut best_delta_ms = vec![f64::INFINITY; pass];
    let mut reports: Vec<PatchReport> = Vec::new();
    let mut work = Work::default();
    let mut epochs_live_max = 0u64;
    let mut checked = 0usize;
    let mut measured = 0.0;
    let (mut d, mut r) = (0usize, 0usize);

    while measured < args.seconds || !d.is_multiple_of(pass) || d < MIN_PASSES * pass {
        let delta = plan.deltas[d % pass];
        let t = Instant::now();
        let report = log.span("live.delta", d as u64, || apply(&mut live, &delta));
        let wall = t.elapsed().as_secs_f64();
        measured += wall;
        out.attempted += 1;
        d += 1;
        match report {
            Some(rep) => {
                delta_ms.push(wall * 1e3);
                let best = &mut best_delta_ms[(d - 1) % pass];
                *best = best.min(wall * 1e3);
                reports.push(rep);
            }
            None => out.failed += 1,
        }
        epochs_live_max = epochs_live_max.max(live.service().epochs_live());
        // Halfway, with an obstacle freshly inserted, the standing set is
        // checked against a cold rebuild.
        if checked == 0
            && measured >= 0.5 * args.seconds
            && matches!(delta, Delta::InsertObstacle(_))
        {
            out.failed += standing_mismatches(&live, &handles);
            checked += 1;
        }

        let i = plan.read_order[r % plan.read_order.len()];
        let t = Instant::now();
        let result = log.span("service.execute", r as u64, || {
            live.service().execute(&plan.reads[i])
        });
        let wall = t.elapsed().as_secs_f64();
        measured += wall;
        out.attempted += 1;
        r += 1;
        match result {
            Ok(resp) if read_ok(i, &resp.answer) => {
                read_ms.push(wall * 1e3);
                best_read_ms[i] = best_read_ms[i].min(wall * 1e3);
                work.add(&resp.stats);
            }
            _ => out.failed += 1,
        }
    }
    // The run ends with a final check.
    out.failed += standing_mismatches(&live, &handles);
    checked += 1;

    // Each read's and each delta's latency is its best over the passes,
    // which filters out the shared host's bursts (see segment-closed). An
    // operation that never succeeded has none; it is counted in `failed`.
    let pass_best: Vec<f64> = (0..pass)
        .flat_map(|k| {
            let read = plan.read_order[k % plan.read_order.len()];
            [best_delta_ms[k], best_read_ms[read]]
        })
        .filter(|l| l.is_finite())
        .collect();
    best_read_ms.retain(|l| l.is_finite());
    let p50 = percentile(&best_read_ms, 0.50, "best read latency")?;
    let p90 = percentile(&best_read_ms, 0.90, "best read latency")?;
    let dp50 = percentile(&delta_ms, 0.50, "delta latency")?;
    let dp95 = percentile(&delta_ms, 0.95, "delta latency")?;
    let best_s = pass_best.iter().sum::<f64>() / 1e3;
    let good = pass_best.iter().filter(|&&l| l <= LIMIT_MS).count();
    let e = &mut out.end_to_end;
    e.p50_ms = p50.value;
    e.p90_ms = p90.value;
    // Operations per second of one pass at its best latencies.
    e.throughput_qps = pass_best.len() as f64 / best_s;
    e.goodput_qps = good as f64 / best_s;
    e.peak_rss_mb = peak_rss_mb();
    out.note("standing", handles.len());
    out.note("reads", read_ms.len());
    out.note("deltas", delta_ms.len());
    out.note("distinct_deltas", pass);
    out.note("passes", d / pass);
    out.note(
        "pooled_throughput_qps",
        (read_ms.len() + delta_ms.len()) as f64 / measured,
    );
    out.note("checkpoints", checked);
    out.note("measured_s", measured);
    out.note_pct("p50_ms", p50);
    out.note_pct("p90_ms", p90);
    out.note_pct("delta_p50_ms", dp50);
    out.note_pct("delta_p95_ms", dp95);
    if let Ok(p) = percentile(&delta_ms, 0.99, "delta latency") {
        out.note_pct("delta_p99_ms", p);
    }
    out.note("limit_ms", LIMIT_MS);

    if args.trace {
        let mut l = crate::Layers::default();
        work.fill(&mut l);
        let n = reports.len();
        let sum = |f: fn(&PatchReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        l.live_delta_p50_ms = dp50.value;
        l.live_delta_p95_ms = dp95.value;
        l.live_kept = per(sum(|r| r.kept as u64), n);
        l.live_tuple_patched = per(sum(|r| r.tuple_patched as u64), n);
        l.live_kernel_patched = per(sum(|r| r.kernel_patched as u64), n);
        l.live_recomputed = per(sum(|r| r.recomputed as u64), n);
        l.live_labels_invalidated = per(sum(|r| r.labels_invalidated), n);
        l.live_adjacency_repairs = per(sum(|r| r.adjacency_repairs), n);
        l.epoch_live_max = epochs_live_max as f64;
        l.epoch_retired = per(live.service().epochs_retired() as f64, n);
        // Replay the tree writes of the deltas applied, on forked trees.
        let applied: Vec<Delta> = (0..d).map(|k| plan.deltas[k % pass]).collect();
        let pin = live.service().pin();
        let obstacle_ops: Vec<Option<Rect>> = applied
            .iter()
            .filter_map(|d| match d {
                Delta::InsertObstacle(r) => Some(Some(*r)),
                Delta::RemoveObstacle(_) => Some(None),
                _ => None,
            })
            .collect();
        let site_ops: Vec<Option<DataPoint>> = applied
            .iter()
            .filter_map(|d| match d {
                Delta::InsertSite(p) => Some(Some(*p)),
                Delta::RemoveSite(_) => Some(None),
                _ => None,
            })
            .collect();
        let mut writes = replay::obstacle_writes(pin.scene().obstacle_tree(), &obstacle_ops);
        writes.extend(replay::site_writes(pin.scene().data_tree(), &site_ops));
        l.index_write_us = per(writes.iter().sum(), writes.len());
        drop(pin);
        let calibration: Vec<&Query> = plan.reads.iter().take(CALIBRATION_PAIRS).collect();
        l.trace_overhead_pct = trace_overhead_pct(&mut log, &calibration, |q| {
            std::hint::black_box(live.service().execute(q).map(|r| r.stats.npe).ok());
        });
        out.layers = l;
        let outcomes = [
            ("kept", l.live_kept),
            ("tuple_patched", l.live_tuple_patched),
            ("kernel_patched", l.live_kernel_patched),
            ("recomputed", l.live_recomputed),
        ];
        for (k, v) in outcomes {
            out.note(&format!("standing_{k}_per_delta"), v);
        }
        out.note("replayed_writes", writes.len());
        out.note("spans", log.len());
        log.write_jsonl(&crate::spans_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    drop(live);
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
    fn same_seed_same_plan() {
        let city = scene::city(Scale::SMOKE, 4);
        let a = plan(&city.obstacles, &city.points, 4);
        let b = plan(&city.obstacles, &city.points, 4);
        assert_eq!(a.deltas, b.deltas);
        assert!(!a.deltas.is_empty());
        let kinds = |v: &[Query]| {
            v.iter()
                .map(|x| format!("{:?}", x.kind()))
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&a.standing), kinds(&b.standing));
        assert_eq!(kinds(&a.reads), kinds(&b.reads));
        let families: Vec<&str> = a.standing.iter().map(|q| q.kind().family()).collect();
        assert_eq!(
            families,
            ["conn", "coknn", "onn", "range", "odist", "route"]
        );
        let c = plan(&city.obstacles, &city.points, 5);
        assert_ne!(a.deltas, c.deltas);
        assert_ne!(a.read_order, c.read_order);
        // another seed reorders the same catalogue
        let sorted = |v: &[Delta]| {
            let mut s: Vec<String> = v.iter().map(|d| format!("{d:?}")).collect();
            s.sort();
            s
        };
        assert_eq!(sorted(&a.deltas), sorted(&c.deltas));
        assert_eq!(kinds(&a.reads), kinds(&c.reads));
        assert_eq!(a.deltas.len(), 4 * FOOTPRINTS);
        assert_eq!(a.reads.len(), a.deltas.len());
    }

    #[test]
    fn a_corrupted_standing_answer_is_caught() {
        let city = scene::city(Scale::SMOKE, 6);
        let p = plan(&city.obstacles, &city.points, 6);
        let mut live = LiveScene::new(
            city.points.clone(),
            city.obstacles.clone(),
            ConnConfig::default(),
        );
        let handles: Vec<(StandingHandle, Query)> = p
            .standing
            .iter()
            .map(|q| (live.service().register(q.clone()).unwrap(), q.clone()))
            .collect();
        for d in p.deltas.iter().take(8) {
            assert!(apply(&mut live, d).is_some());
        }
        assert_eq!(standing_mismatches(&live, &handles), 0);
        // Pair each handle with another standing query: the cold answers no
        // longer match the resident ones.
        let mut swapped = handles.clone();
        swapped.rotate_left(1);
        let wrong: Vec<(StandingHandle, Query)> = handles
            .iter()
            .zip(&swapped)
            .map(|((h, _), (_, q))| (*h, q.clone()))
            .collect();
        assert_eq!(standing_mismatches(&live, &wrong), handles.len() as u64);
    }
}
