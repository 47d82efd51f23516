//! Multicommodity flow.
//!
//! SWAN/B4-style traffic engineering routes many `(source, sink, demand)`
//! commodities over shared capacity. Two solvers are provided:
//!
//! - [`max_multicommodity_flow`]: the Garg–Könemann FPTAS for maximum total
//!   throughput subject to per-commodity demand caps. Demands are enforced
//!   by a virtual per-commodity source edge of capacity `demand`, so the
//!   standard length-function machinery handles them unchanged. The result
//!   is within `(1 − ε)³` of optimal and always capacity-feasible.
//! - [`greedy_mcf`]: a shortest-path water-filling baseline (CSPF-like):
//!   commodities route greedily in the given order. Fast, order-dependent,
//!   and measurably worse under contention — a useful baseline for the
//!   throughput-gain experiments.

use crate::network::FlowNetwork;
use crate::EPS;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One traffic demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Origin node.
    pub source: usize,
    /// Destination node.
    pub sink: usize,
    /// Offered load (flow is capped at this).
    pub demand: f64,
}

/// Result of a multicommodity computation.
#[derive(Debug, Clone, PartialEq)]
pub struct McfResult {
    /// Flow routed per commodity (≤ its demand).
    pub routed: Vec<f64>,
    /// Per-commodity, per-edge flow (`routed[k] = Σ` over its paths).
    pub edge_flows: Vec<Vec<f64>>,
    /// Total throughput `Σ routed`.
    pub total: f64,
}

impl McfResult {
    /// Aggregate flow per edge across commodities.
    pub fn aggregate_edge_flows(&self, n_edges: usize) -> Vec<f64> {
        let mut agg = vec![0.0; n_edges];
        for per_edge in &self.edge_flows {
            for (a, &f) in agg.iter_mut().zip(per_edge) {
                *a += f;
            }
        }
        agg
    }

    /// Checks capacity feasibility and per-commodity demand caps.
    pub fn validate(&self, net: &FlowNetwork, commodities: &[Commodity]) -> Result<(), String> {
        let agg = self.aggregate_edge_flows(net.n_edges());
        for (i, (&f, e)) in agg.iter().zip(net.edges()).enumerate() {
            if f > e.capacity + 1e-6 {
                return Err(format!("edge {i} overloaded: {f} > {}", e.capacity));
            }
        }
        for (k, (&r, c)) in self.routed.iter().zip(commodities).enumerate() {
            if r > c.demand + 1e-6 {
                return Err(format!("commodity {k} over-routed: {r} > {}", c.demand));
            }
            if r < -EPS {
                return Err(format!("commodity {k} negative: {r}"));
            }
        }
        Ok(())
    }
}

#[derive(PartialEq)]
struct Entry {
    dist: f64,
    node: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The network's adjacency plus Dijkstra buffers reused by every search
/// of one solve.
struct Searcher {
    /// Out-edges per node, in edge-index order; zero-capacity edges are
    /// left out (no search ever crosses one).
    adj: Vec<Vec<usize>>,
    /// Endpoints per edge.
    ends: Vec<(usize, usize)>,
    dist: Vec<f64>,
    parent: Vec<Option<usize>>,
    heap: BinaryHeap<Entry>,
    /// Edges of the last path found, sink first.
    path: Vec<usize>,
}

impl Searcher {
    fn new(net: &FlowNetwork) -> Self {
        let n = net.n_nodes();
        let mut adj = vec![Vec::new(); n];
        for (i, e) in net.edges().iter().enumerate() {
            if e.capacity > EPS {
                adj[e.from].push(i);
            }
        }
        Self {
            adj,
            ends: net.edges().iter().map(|e| (e.from, e.to)).collect(),
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            heap: BinaryHeap::new(),
            path: Vec::new(),
        }
    }

    /// Dijkstra from `source`, which starts at distance `start`, over the
    /// edges `length` admits (`None` skips an edge). Pops the minimum
    /// distance first and the larger node on ties. Stops as soon as `sink`
    /// is popped — its distance and every parent on its path are final
    /// then — or once the popped distance reaches `cutoff`, in which case
    /// the sink is no closer either. On success `self.path` holds the
    /// path's edges, sink first.
    fn shortest_path(
        &mut self,
        source: usize,
        sink: usize,
        start: f64,
        cutoff: f64,
        length: impl Fn(usize) -> Option<f64>,
    ) -> bool {
        self.dist.fill(f64::INFINITY);
        self.parent.fill(None);
        self.heap.clear();
        self.path.clear();
        self.dist[source] = start;
        self.heap.push(Entry { dist: start, node: source });
        while let Some(Entry { dist: d, node: u }) = self.heap.pop() {
            if d >= cutoff {
                return false;
            }
            if d > self.dist[u] * (1.0 + 1e-12) {
                continue;
            }
            if u == sink {
                let mut v = sink;
                while v != source {
                    let ei = self.parent[v].expect("path incomplete");
                    self.path.push(ei);
                    v = self.ends[ei].0;
                }
                return true;
            }
            for &ei in &self.adj[u] {
                let Some(len) = length(ei) else { continue };
                let v = self.ends[ei].1;
                let nd = d + len;
                if nd < self.dist[v] - 1e-15 {
                    self.dist[v] = nd;
                    self.parent[v] = Some(ei);
                    self.heap.push(Entry { dist: nd, node: v });
                }
            }
        }
        false
    }

    /// Greedy water-filling: each commodity in order tops `routed` up
    /// towards its demand along successive hop-count shortest paths among
    /// edges with `residual` capacity left.
    fn water_fill(
        &mut self,
        commodities: &[Commodity],
        residual: &mut [f64],
        edge_flows: &mut [Vec<f64>],
        routed: &mut [f64],
    ) {
        for (ki, c) in commodities.iter().enumerate() {
            let mut remaining = c.demand - routed[ki];
            while remaining > EPS
                && self.shortest_path(c.source, c.sink, 0.0, f64::INFINITY, |ei| {
                    (residual[ei] > EPS).then_some(1.0)
                })
            {
                let push = self.path.iter().map(|&ei| residual[ei]).fold(remaining, f64::min);
                for &ei in &self.path {
                    residual[ei] -= push;
                    edge_flows[ki][ei] += push;
                }
                routed[ki] += push;
                remaining -= push;
            }
        }
    }
}

/// Garg–Könemann FPTAS for maximum total multicommodity throughput with
/// demand caps.
///
/// `epsilon` trades accuracy for speed (0.05–0.15 is typical). The returned
/// solution is feasible and within `(1−ε)³` of the optimum.
///
/// Each commodity's demand cap is a virtual edge into its source with
/// capacity `demand` and its own length. The searches run on the real
/// graph: the source starts at the virtual edge's length `ℓ`, exactly the
/// distance (`0.0 + ℓ == ℓ`) a search from a virtual source node would
/// assign it.
pub fn max_multicommodity_flow(
    net: &FlowNetwork,
    commodities: &[Commodity],
    epsilon: f64,
) -> McfResult {
    assert!(!commodities.is_empty(), "no commodities");
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon out of (0,1)");
    for c in commodities {
        assert!(c.source < net.n_nodes() && c.sink < net.n_nodes(), "endpoint out of range");
        assert!(c.source != c.sink, "zero-hop commodity");
        assert!(c.demand >= 0.0, "negative demand");
    }
    let k = commodities.len();
    let m_real = net.n_edges();
    let caps: Vec<f64> = net.edges().iter().map(|e| e.capacity).collect();

    // `m` counts the virtual edges too.
    let m = (m_real + k).max(2) as f64;
    let delta = (1.0 + epsilon) * ((1.0 + epsilon) * m).powf(-1.0 / epsilon);
    let initial_length = |c: f64| if c > EPS { delta / c } else { f64::INFINITY };
    let mut length: Vec<f64> = caps.iter().map(|&c| initial_length(c)).collect();
    let mut virtual_length: Vec<f64> =
        commodities.iter().map(|c| initial_length(c.demand)).collect();
    // Raw real-edge flow, commodity-major (`k × m_real`), and the flow on
    // each commodity's virtual edge.
    let mut raw_flow = vec![0.0; k * m_real];
    let mut virtual_flow = vec![0.0; k];
    let mut search = Searcher::new(net);

    // Phase loop: while some commodity still has a path shorter than 1.
    loop {
        let mut any = false;
        for (ki, c) in commodities.iter().enumerate() {
            if c.demand <= EPS {
                continue;
            }
            let flow = &mut raw_flow[ki * m_real..(ki + 1) * m_real];
            while search
                .shortest_path(c.source, c.sink, virtual_length[ki], 1.0, |ei| Some(length[ei]))
            {
                any = true;
                let bottleneck = search
                    .path
                    .iter()
                    .map(|&ei| caps[ei])
                    .fold(f64::INFINITY, f64::min)
                    .min(c.demand);
                for &ei in &search.path {
                    flow[ei] += bottleneck;
                    length[ei] *= 1.0 + epsilon * bottleneck / caps[ei];
                }
                virtual_flow[ki] += bottleneck;
                virtual_length[ki] *= 1.0 + epsilon * bottleneck / c.demand;
            }
        }
        if !any {
            break;
        }
    }

    // Scale: raw flows exceed capacity by ~log_{1+eps}(1/delta). Start from
    // the analytic factor, then tighten it to the *observed* worst edge
    // overload so the result is always exactly feasible (the analytic bound
    // is loose by a capacity-dependent constant on small graphs).
    let mut scale = ((1.0 / delta).ln() / (1.0 + epsilon).ln()).max(1.0);
    for (ei, &cap) in caps.iter().enumerate() {
        if cap > EPS {
            let total: f64 = (0..k).map(|ki| raw_flow[ki * m_real + ei]).sum();
            scale = scale.max(total / cap);
        }
    }
    for (c, &v) in commodities.iter().zip(&virtual_flow) {
        if c.demand > EPS {
            scale = scale.max(v / c.demand);
        }
    }
    let mut edge_flows = vec![vec![0.0; m_real]; k];
    let mut routed = vec![0.0; k];
    for ki in 0..k {
        // Every unit of commodity ki crosses its virtual edge, so the
        // virtual flow is its routed total. If scaling still leaves it
        // above the demand cap, shrink the whole commodity uniformly —
        // clipping only the total would leave phantom flow occupying
        // capacity on real edges.
        let v = virtual_flow[ki] / scale;
        let shrink =
            if v > commodities[ki].demand && v > EPS { commodities[ki].demand / v } else { 1.0 };
        for ei in 0..m_real {
            edge_flows[ki][ei] = raw_flow[ki * m_real + ei] / scale * shrink;
        }
        routed[ki] = v * shrink;
    }

    // Top-up pass: the conservative scaling leaves residual capacity on
    // most edges; greedily fill it with still-unsatisfied demand. This
    // recovers most of the FPTAS scaling loss at negligible cost and never
    // violates feasibility.
    let mut residual: Vec<f64> = (0..m_real)
        .map(|ei| {
            let used: f64 = edge_flows.iter().map(|per| per[ei]).sum();
            (caps[ei] - used).max(0.0)
        })
        .collect();
    search.water_fill(commodities, &mut residual, &mut edge_flows, &mut routed);

    let total = routed.iter().sum();
    let gk = McfResult { routed, edge_flows, total };

    // Hybrid selection: on small/structured instances the FPTAS's
    // feasibility scaling can cost more than greedy loses to ordering, and
    // vice versa on contention-heavy instances. Both results are feasible;
    // return the higher-throughput one (production TE controllers hedge
    // the same way).
    let greedy = greedy_mcf(net, commodities);
    if greedy.total > gk.total {
        greedy
    } else {
        gk
    }
}

/// Greedy shortest-path water-filling baseline.
///
/// Routes commodities in order; each demand is split across successive
/// shortest residual paths (hop-count metric) until satisfied or
/// disconnected.
pub fn greedy_mcf(net: &FlowNetwork, commodities: &[Commodity]) -> McfResult {
    let mut residual: Vec<f64> = net.edges().iter().map(|e| e.capacity).collect();
    let mut edge_flows = vec![vec![0.0; net.n_edges()]; commodities.len()];
    let mut routed = vec![0.0; commodities.len()];
    Searcher::new(net).water_fill(commodities, &mut residual, &mut edge_flows, &mut routed);
    let total = routed.iter().sum();
    McfResult { routed, edge_flows, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_commodity_shared_bottleneck() -> (FlowNetwork, Vec<Commodity>) {
        // Both commodities must cross the shared 1→2 edge of capacity 10.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 100.0, 0.0);
        net.add_edge(3, 1, 100.0, 0.0);
        net.add_edge(1, 2, 10.0, 0.0);
        let commodities = vec![
            Commodity { source: 0, sink: 2, demand: 8.0 },
            Commodity { source: 3, sink: 2, demand: 8.0 },
        ];
        (net, commodities)
    }

    #[test]
    fn gk_respects_shared_bottleneck() {
        let (net, cs) = two_commodity_shared_bottleneck();
        let r = max_multicommodity_flow(&net, &cs, 0.05);
        r.validate(&net, &cs).unwrap();
        // Optimum is 10 (the bottleneck); FPTAS must be within ~15%.
        assert!(r.total > 8.5 && r.total <= 10.0 + 1e-6, "total={}", r.total);
    }

    #[test]
    fn gk_uncontended_routes_everything() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 100.0, 0.0);
        net.add_edge(1, 2, 100.0, 0.0);
        let cs = vec![Commodity { source: 0, sink: 2, demand: 30.0 }];
        let r = max_multicommodity_flow(&net, &cs, 0.05);
        r.validate(&net, &cs).unwrap();
        assert!(r.routed[0] > 27.0, "routed={}", r.routed[0]);
    }

    #[test]
    fn gk_zero_demand_commodity() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 10.0, 0.0);
        let cs = vec![
            Commodity { source: 0, sink: 1, demand: 0.0 },
            Commodity { source: 0, sink: 1, demand: 5.0 },
        ];
        let r = max_multicommodity_flow(&net, &cs, 0.1);
        assert_eq!(r.routed[0], 0.0);
        assert!(r.routed[1] > 4.0);
    }

    #[test]
    fn gk_disconnected_commodity() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 10.0, 0.0);
        let cs = vec![
            Commodity { source: 0, sink: 1, demand: 5.0 },
            Commodity { source: 2, sink: 3, demand: 5.0 },
        ];
        let r = max_multicommodity_flow(&net, &cs, 0.1);
        r.validate(&net, &cs).unwrap();
        assert_eq!(r.routed[1], 0.0);
        assert!(r.routed[0] > 4.0);
    }

    #[test]
    fn gk_tighter_epsilon_stays_near_optimal() {
        let (net, cs) = two_commodity_shared_bottleneck();
        let coarse = max_multicommodity_flow(&net, &cs, 0.3);
        let fine = max_multicommodity_flow(&net, &cs, 0.03);
        coarse.validate(&net, &cs).unwrap();
        fine.validate(&net, &cs).unwrap();
        // Optimum is 10; the fine run must land very close.
        assert!(fine.total > 9.5, "fine={}", fine.total);
        assert!(coarse.total > 8.0, "coarse={}", coarse.total);
    }

    #[test]
    fn greedy_routes_in_order() {
        let (net, cs) = two_commodity_shared_bottleneck();
        let r = greedy_mcf(&net, &cs);
        r.validate(&net, &cs).unwrap();
        // First commodity grabs its full 8; second gets the leftover 2.
        assert!((r.routed[0] - 8.0).abs() < EPS);
        assert!((r.routed[1] - 2.0).abs() < EPS);
        assert!((r.total - 10.0).abs() < EPS);
    }

    #[test]
    fn greedy_splits_across_paths() {
        // Demand 8 must split over two 5-capacity parallel routes.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5.0, 0.0);
        net.add_edge(1, 3, 5.0, 0.0);
        net.add_edge(0, 2, 5.0, 0.0);
        net.add_edge(2, 3, 5.0, 0.0);
        let cs = vec![Commodity { source: 0, sink: 3, demand: 8.0 }];
        let r = greedy_mcf(&net, &cs);
        r.validate(&net, &cs).unwrap();
        assert!((r.routed[0] - 8.0).abs() < EPS);
    }

    #[test]
    fn gk_beats_or_matches_greedy_under_contention() {
        // A trap for greedy: commodity 1's shortest path blocks commodity 2
        // entirely; the optimal solution detours commodity 1.
        let mut net = FlowNetwork::new(4);
        // 0→1 direct cheap-hop, and 0→2→1 detour.
        net.add_edge(0, 1, 10.0, 0.0); // shared bottleneck for commodity 2
        net.add_edge(0, 2, 10.0, 0.0);
        net.add_edge(2, 1, 10.0, 0.0);
        net.add_edge(1, 3, 10.0, 0.0);
        let cs = vec![
            Commodity { source: 0, sink: 1, demand: 10.0 },
            Commodity { source: 0, sink: 3, demand: 10.0 },
        ];
        let greedy = greedy_mcf(&net, &cs);
        let gk = max_multicommodity_flow(&net, &cs, 0.05);
        gk.validate(&net, &cs).unwrap();
        // Optimum: 20 (commodity 1 detours via 2). Greedy: commodity 1
        // takes 0→1 direct, leaving 1→3 reachable only via leftovers → 20
        // too if it splits; but greedy's commodity 1 exhausts 0→1, then
        // commodity 2 routes 0→2→1→3, also fine. Either way GK must be
        // within ε of 20 and never below greedy by more than ε-slack.
        assert!(gk.total >= greedy.total * 0.85, "gk={} greedy={}", gk.total, greedy.total);
        assert!(gk.total > 17.0, "gk={}", gk.total);
    }

    #[test]
    fn aggregate_edge_flows_sums_commodities() {
        let (net, cs) = two_commodity_shared_bottleneck();
        let r = greedy_mcf(&net, &cs);
        let agg = r.aggregate_edge_flows(net.n_edges());
        assert!((agg[2] - 10.0).abs() < EPS, "shared edge total");
    }

    #[test]
    #[should_panic]
    fn gk_rejects_bad_epsilon() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1.0, 0.0);
        max_multicommodity_flow(
            &net,
            &[Commodity { source: 0, sink: 1, demand: 1.0 }],
            1.5,
        );
    }
}
