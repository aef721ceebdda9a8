//! Per-request work counters, summed from the `QueryStats` every
//! response carries and averaged into the per-layer metrics.

use conn_core::QueryStats;

use crate::stats::per;
use crate::Layers;

/// Sums of the counters of the requests seen so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub requests: usize,
    pub pages: f64,
    pub noe: f64,
    pub npe: f64,
    pub tuples: f64,
    pub cpu_ms: f64,
    pub nodes: f64,
    pub sight_tests: f64,
    pub sweep_events: f64,
    pub label_reuses: f64,
}

impl Work {
    /// Adds one response's counters.
    pub fn add(&mut self, s: &QueryStats) {
        self.requests += 1;
        self.pages += (s.data_io.reads + s.obstacle_io.reads) as f64;
        self.noe += s.noe as f64;
        self.npe += s.npe as f64;
        self.tuples += s.result_tuples as f64;
        self.cpu_ms += s.cpu.as_secs_f64() * 1e3;
        self.nodes += s.svg_nodes as f64;
        self.sight_tests += s.reuse.sight_tests as f64;
        self.sweep_events += s.reuse.sweep_events as f64;
        self.label_reuses +=
            (s.reuse.label_continuations + s.reuse.label_reseeds + s.reuse.label_retargets) as f64;
    }

    /// Writes the per-request averages into the layer metrics.
    pub fn fill(&self, l: &mut Layers) {
        let n = self.requests;
        l.index_pages_read = per(self.pages, n);
        l.ior_obstacles_loaded = per(self.noe, n);
        l.rlu_points_evaluated = per(self.npe, n);
        l.rlu_result_tuples = per(self.tuples, n);
        l.engine_cpu_ms = per(self.cpu_ms, n);
        l.vgraph_nodes = per(self.nodes, n);
        l.vgraph_sight_tests = per(self.sight_tests, n);
        l.vgraph_sweep_events = per(self.sweep_events, n);
        l.vgraph_label_reuses = per(self.label_reuses, n);
    }
}
