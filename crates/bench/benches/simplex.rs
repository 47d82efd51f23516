//! Cold vs warm simplex on a drifting TE LP, and the sparse revised
//! simplex across topology scales.
//!
//! The drift workload mirrors what the round engine does: the same
//! augmented TE problem re-solved as its capacities drift a few percent
//! per round. `cold` allocates a fresh solver per solve (Phase I every
//! time); `warm` reuses one [`SparseSimplexSolver`], so successive solves
//! either fast-resolve (rhs-only change) or refactorise the saved basis.
//!
//! The `mesh` group times the solver on [`builders::scaled_mesh`]
//! replicas of increasing size; after each timed arm it prints the
//! eta-update chain length per refactorisation, the PFI health metric
//! from DESIGN.md §14.

use criterion::{criterion_group, criterion_main, Criterion};
use rwc_lp::{SparseLp, SparseSimplexSolver};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::problem::TeProblem;
use rwc_te::TeFormulation;
use rwc_topology::builders;
use rwc_topology::wan::LinkId;
use rwc_util::units::Gbps;

/// The abilene TE LP with every link's capacity drifted by round.
fn drifted_lp(round: usize) -> SparseLp {
    let wan = builders::abilene();
    let dm = DemandMatrix::gravity(&wan, Gbps(1_000.0), 11);
    let mut problem = TeProblem::from_wan(&wan, &dm);
    for l in 0..wan.n_links() {
        // Deterministic per-round capacity drift of up to ±5%.
        let phase = (round * (l + 3)) % 7;
        let factor = 0.95 + 0.015 * phase as f64;
        let id = LinkId(l);
        problem.override_link_capacity(id, wan.link(id).capacity().0 * factor);
    }
    lowering(&problem).sparse_lp()
}

/// Max-throughput lowering with the benches' historical unit weight.
fn lowering(problem: &TeProblem) -> rwc_te::LoweredTe<'_> {
    TeFormulation { throughput_weight: 1.0, ..TeFormulation::default() }
        .lower(problem)
        .expect("max-throughput lowering cannot fail validation")
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let lps: Vec<_> = (0..4).map(drifted_lp).collect();
    c.bench_function("simplex/cold_abilene_drift", |b| {
        b.iter(|| {
            for lp in &lps {
                std::hint::black_box(SparseSimplexSolver::new().solve_sparse(lp));
            }
        })
    });
    c.bench_function("simplex/warm_abilene_drift", |b| {
        let mut solver = SparseSimplexSolver::new();
        b.iter(|| {
            for lp in &lps {
                std::hint::black_box(solver.solve_sparse(lp));
            }
        })
    });
}

/// The drifting round sequence of the `large_te` perf stage, at a given
/// mesh replication factor.
fn scaled_problems(factor: usize, rounds: usize) -> (TeProblem, Vec<TeProblem>) {
    let wan = builders::scaled_mesh(factor, 500.0);
    let pick = |name: String| wan.node_by_name(&name).expect("scaled mesh site");
    let mut dm = DemandMatrix::new();
    for i in 0..factor {
        let s = pick(format!("S{i}-{}", 3 + (i % 3)));
        let t = pick(format!("S{}-4", (i + 1) % factor));
        if s != t {
            dm.add(s, t, Gbps(60.0), Priority::Elastic);
        }
    }
    if factor > 1 {
        // End-to-end long haul across all replicas (self-demand at x1).
        let (s, t) = (pick("S0-5".into()), pick(format!("S{}-5", factor - 1)));
        dm.add(s, t, Gbps(80.0), Priority::Elastic);
    }
    let base = TeProblem::from_wan(&wan, &dm);
    let drifted = (0..rounds)
        .map(|round| {
            let mut p = base.clone();
            for l in 0..wan.n_links() {
                let phase = (round * (l + 3)) % 7;
                let factor = 0.91 + 0.03 * phase as f64;
                let id = LinkId(l);
                p.override_link_capacity(id, wan.link(id).capacity().0 * factor);
            }
            p
        })
        .collect();
    (base, drifted)
}

fn bench_mesh_scaling(c: &mut Criterion) {
    for factor in [1usize, 2, 4] {
        let (_, rounds) = scaled_problems(factor, 4);
        let sparse_rounds: Vec<_> = rounds.iter().map(|p| lowering(p).sparse_lp()).collect();
        c.bench_function(&format!("simplex/sparse_mesh_x{factor}"), |b| {
            let mut solver = SparseSimplexSolver::new();
            b.iter(|| {
                for sp in &sparse_rounds {
                    std::hint::black_box(solver.solve_sparse(sp));
                }
            })
        });
        // Report the PFI chain health after the timed sparse runs.
        let mut probe = SparseSimplexSolver::new();
        for sp in &sparse_rounds {
            std::hint::black_box(probe.solve_sparse(sp));
        }
        let stats = probe.stats();
        let chains = if stats.refactorizations == 0 {
            0.0
        } else {
            stats.eta_updates as f64 / stats.refactorizations as f64
        };
        println!(
            "simplex/sparse_mesh_x{factor}: {} eta updates over {} refactorisations \
             ({chains:.1} per chain), final chain length {}",
            stats.eta_updates,
            stats.refactorizations,
            probe.eta_chain_len(),
        );
    }
}

criterion_group!(benches, bench_cold_vs_warm, bench_mesh_scaling);
criterion_main!(benches);
