//! Replays that split a request's time across the index and visibility
//! graph layers, run after the measured loop of a traced run.
//!
//! The program reports how much work a query did (NPE, NOE, sight tests)
//! but not how long each layer took. A replay redoes that much work in
//! one layer at a time through the layers' public functions:
//! `RStarTree::nearest_iter` drained for the request's NPE sites and NOE
//! obstacles, then a `VisGraph` over those obstacles and the segment's
//! endpoints, searched from one endpoint until the other settles — cold
//! (adjacency built on demand), then warm. Cold minus warm is the
//! adjacency time; warm is the Dijkstra time.

// lint:allow-file(no-wallclock-in-kernels): a benchmark harness; wall time is what it measures

use std::time::Instant;

use conn_core::{ConnConfig, DataPoint};
use conn_geom::{Rect, Segment};
use conn_index::RStarTree;
use conn_vgraph::{DijkstraEngine, NodeKind, VisGraph};

/// One request's replayed layer times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    pub retrieval_ms: f64,
    pub adjacency_ms: f64,
    pub dijkstra_ms: f64,
    /// Sight tests of the replay's cold search, to set beside the query's
    /// own count.
    pub sight_tests: u64,
}

/// Replays a segment request that evaluated `npe` sites and loaded `noe`
/// obstacles.
pub fn segment_request(
    data: &RStarTree<DataPoint>,
    obstacles: &RStarTree<Rect>,
    q: &Segment,
    npe: u64,
    noe: u64,
) -> Replay {
    let t = Instant::now();
    let sites = data.nearest_iter(*q).take(npe as usize).count();
    let rects: Vec<Rect> = obstacles
        .nearest_iter(*q)
        .take(noe as usize)
        .map(|(r, _)| r)
        .collect();
    let retrieval_ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sites);

    let mut g = VisGraph::new(ConnConfig::default().vgraph_cell);
    for r in &rects {
        g.add_obstacle(*r);
    }
    let src = g.add_point(q.a, NodeKind::Endpoint);
    let dst = g.add_point(q.b, NodeKind::Endpoint);
    let before = g.sight_tests();
    let t = Instant::now();
    let mut search = DijkstraEngine::new(&g, src);
    search.run_until_settled(&mut g, dst);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let sight_tests = g.sight_tests() - before;
    let t = Instant::now();
    search.prepare(&g, src);
    search.run_until_settled(&mut g, dst);
    let dijkstra_ms = t.elapsed().as_secs_f64() * 1e3;
    Replay {
        retrieval_ms,
        adjacency_ms: (cold_ms - dijkstra_ms).max(0.0),
        dijkstra_ms,
        sight_tests,
    }
}

/// Wall time (µs) of each obstacle-tree write of a delta stream, replayed
/// on a fork of `tree`: `Some(r)` inserts `r`, `None` removes the most
/// recently inserted rectangle that is still present.
pub fn obstacle_writes(tree: &RStarTree<Rect>, ops: &[Option<Rect>]) -> Vec<f64> {
    let mut fork = tree.fork();
    let mut inserted: Vec<Rect> = Vec::new();
    let mut times = Vec::with_capacity(ops.len());
    for op in ops {
        let t = Instant::now();
        match op {
            Some(r) => {
                fork.insert(*r);
                inserted.push(*r);
            }
            None => {
                if let Some(r) = inserted.pop() {
                    std::hint::black_box(fork.delete_by_mbr(&r));
                }
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    times
}

/// Wall time (µs) of each data-tree write of a delta stream on a fork:
/// `Some(p)` inserts `p`, `None` removes the most recent insertion.
pub fn site_writes(tree: &RStarTree<DataPoint>, ops: &[Option<DataPoint>]) -> Vec<f64> {
    let mut fork = tree.fork();
    let mut inserted: Vec<DataPoint> = Vec::new();
    let mut times = Vec::with_capacity(ops.len());
    for op in ops {
        let t = Instant::now();
        match op {
            Some(p) => {
                fork.insert(*p);
                inserted.push(*p);
            }
            None => {
                if let Some(p) = inserted.pop() {
                    std::hint::black_box(fork.delete_by_mbr(&Rect::from_point(p.pos)));
                }
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    times
}
