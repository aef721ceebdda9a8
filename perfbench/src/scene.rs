//! The scene every workload runs on, and the timing of the program's own
//! set-up calls.
//!
//! The city is paper scale: 131,461 LA-like obstacles and as many
//! uniform sites (the `UL` combination at |P| = |O|, the setting of
//! `repro --target conn`). Like the paper's LA set it is one fixed
//! instance, generated from [`CITY_SEED`]; the run's seed varies the
//! requests and deltas, not the city.

// lint:allow-file(no-wallclock-in-kernels): a benchmark harness; wall time is what it measures

use std::time::Instant;

use conn_bench::Scale;
use conn_core::DataPoint;
use conn_datasets::{la_like, Combo};
use conn_geom::Rect;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct City {
    pub obstacles: Vec<Rect>,
    pub points: Vec<DataPoint>,
}

/// Seed of the one city every run uses.
pub const CITY_SEED: u64 = 2009;

/// Generates the city from `seed`; the same seed gives the same city.
/// These are the generator calls of `conn_bench::Workload::build` with
/// `Combo::Ul` at |P| = |O|; `Workload::build` itself also bulk-loads the
/// trees, which here is the timed set-up's own work.
pub fn city(scale: Scale, seed: u64) -> City {
    let obstacles = la_like(scale.obstacles(), seed);
    let raw = Combo::Ul.points(scale.obstacles(), seed.wrapping_add(1), &obstacles);
    City {
        points: DataPoint::from_points(&raw),
        obstacles,
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Of `reps` set-up repetitions, how many run before the run measures and
/// how many after it ends, once its own instance is dropped: the median
/// then spans the run's time on a shared host, not only its first seconds.
pub const fn lead_and_tail(reps: usize) -> (usize, usize) {
    (reps - reps / 2, reps / 2)
}

/// Runs the program's set-up `reps` times and returns the last instance
/// with every repetition's wall time (s). `prep` makes the inputs of one
/// repetition (not timed); `build` is the timed set-up itself. Each
/// instance is dropped before the next is built.
pub fn timed_setup<P, T>(
    reps: usize,
    mut prep: impl FnMut() -> P,
    mut build: impl FnMut(P) -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let input = prep();
        let t = Instant::now();
        let built = std::hint::black_box(build(input));
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up repetition"), times)
}
