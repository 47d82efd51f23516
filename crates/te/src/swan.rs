//! SWAN-style traffic engineering.
//!
//! SWAN (Hong et al., SIGCOMM'13) allocates priority classes strictly in
//! order: interactive traffic is routed first; elastic traffic sees only
//! the residual capacity; background traffic scavenges what is left. Each
//! class is a multicommodity-flow problem, solved here with the hybrid
//! FPTAS/greedy solver from `rwc-flow`. A headroom (scratch) fraction can
//! be reserved on every link, mirroring SWAN's congestion-free update
//! slack.

use crate::demand::Priority;
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_flow::mcf::{max_multicommodity_flow, Commodity};
use rwc_flow::network::FlowNetwork;

/// SWAN-style solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SwanTe {
    /// FPTAS accuracy (0.05–0.15 typical).
    pub epsilon: f64,
    /// Fraction of every link reserved as update scratch (SWAN used ~10%;
    /// 0 disables).
    pub scratch_fraction: f64,
}

impl Default for SwanTe {
    fn default() -> Self {
        Self { epsilon: 0.05, scratch_fraction: 0.0 }
    }
}

impl TeAlgorithm for SwanTe {
    fn name(&self) -> &'static str {
        "swan"
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        // Written so that NaN fails the test too.
        let epsilon_valid = self.epsilon > 0.0 && self.epsilon < 1.0;
        if !epsilon_valid {
            return Err(TeError::InvalidConfig {
                algorithm: self.name(),
                detail: format!("epsilon must lie in (0,1), got {}", self.epsilon),
            });
        }
        if !(0.0..1.0).contains(&self.scratch_fraction) {
            return Err(TeError::InvalidConfig {
                algorithm: self.name(),
                detail: format!(
                    "scratch fraction must lie in [0,1), got {}",
                    self.scratch_fraction
                ),
            });
        }
        let n_edges = problem.net.n_edges();
        let mut residual: Vec<f64> = problem
            .net
            .edges()
            .iter()
            .map(|e| e.capacity * (1.0 - self.scratch_fraction))
            .collect();
        let mut routed = vec![0.0; problem.commodities.len()];
        let mut edge_flows = vec![0.0; n_edges];

        for class in Priority::ALL {
            let indices = problem.commodities_of(class);
            if indices.is_empty() {
                continue;
            }
            // Build the class sub-problem on residual capacity.
            let mut net = FlowNetwork::new(problem.net.n_nodes());
            for (e, &res) in problem.net.edges().iter().zip(&residual) {
                net.add_edge(e.from, e.to, res, e.cost);
            }
            let commodities: Vec<Commodity> =
                indices.iter().map(|&i| problem.commodities[i]).collect();
            if commodities.iter().all(|c| c.demand <= 0.0) {
                continue;
            }
            let result = max_multicommodity_flow(&net, &commodities, self.epsilon);
            for (pos, &idx) in indices.iter().enumerate() {
                routed[idx] = result.routed[pos];
            }
            let agg = result.aggregate_edge_flows(n_edges);
            for ((flow, used), res) in
                edge_flows.iter_mut().zip(&agg).zip(residual.iter_mut())
            {
                *flow += used;
                *res = (*res - used).max(0.0);
            }
        }
        let total = routed.iter().sum();
        Ok(TeSolution { routed, edge_flows, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandMatrix;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    fn contended_problem() -> TeProblem {
        // A 3-node ring of 100 G links (R0-R1, R1-R2, R2-R0): both demands
        // fight over the direct R0-R1 link and the detour via R2.
        let wan = builders::ring(3, 400.0);
        let r0 = wan.node_by_name("R0").unwrap();
        let r1 = wan.node_by_name("R1").unwrap();
        let mut dm = DemandMatrix::new();
        // 150 G of interactive + 150 G of background between the same pair:
        // capacity (direct 100 + detour 100) = 200 total.
        dm.add(r0, r1, Gbps(150.0), Priority::Interactive);
        dm.add(r0, r1, Gbps(150.0), Priority::Background);
        TeProblem::from_wan(&wan, &dm)
    }

    #[test]
    fn out_of_range_epsilon_is_invalid_config() {
        let p = contended_problem();
        for epsilon in [0.0, 1.0, 1.5, f64::NAN] {
            let swan = SwanTe { epsilon, scratch_fraction: 0.0 };
            let outcome = swan.try_solve(&p);
            assert!(
                matches!(outcome, Err(TeError::InvalidConfig { algorithm: "swan", .. })),
                "epsilon {epsilon} accepted"
            );
        }
    }

    #[test]
    fn interactive_wins_contention() {
        let p = contended_problem();
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        // ~200 G total is routable; interactive must get its 150 first.
        assert!(sol.routed[0] > 140.0, "interactive={}", sol.routed[0]);
        assert!(
            sol.routed[1] < sol.routed[0],
            "background {} must trail interactive {}",
            sol.routed[1],
            sol.routed[0]
        );
        assert!(sol.total > 180.0, "total={}", sol.total);
    }

    #[test]
    fn uncontended_routes_all_classes() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(30.0), Priority::Interactive);
        dm.add(a, b, Gbps(30.0), Priority::Elastic);
        dm.add(a, b, Gbps(30.0), Priority::Background);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        assert!((sol.satisfaction(&p) - 1.0).abs() < 0.02, "sat={}", sol.satisfaction(&p));
    }

    #[test]
    fn scratch_reserves_headroom() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(1_000.0), Priority::Elastic); // saturating
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe { epsilon: 0.05, scratch_fraction: 0.1 }.solve(&p);
        sol.validate(&p).unwrap();
        // No edge may exceed 90% of capacity.
        for (f, e) in sol.edge_flows.iter().zip(p.net.edges()) {
            assert!(*f <= e.capacity * 0.9 + 1e-6, "{f} vs {}", e.capacity);
        }
    }

    #[test]
    fn empty_matrix_is_zero() {
        let wan = builders::fig7_example();
        let p = TeProblem::from_wan(&wan, &DemandMatrix::new());
        let sol = SwanTe::default().solve(&p);
        assert_eq!(sol.total, 0.0);
        assert!(sol.edge_flows.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn gravity_workload_on_abilene() {
        let wan = builders::abilene();
        let dm = DemandMatrix::gravity(&wan, Gbps(600.0), 3);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        // A light load (600 G over a 1.4 T network) should be mostly
        // satisfiable.
        assert!(sol.satisfaction(&p) > 0.8, "sat={}", sol.satisfaction(&p));
    }
}
