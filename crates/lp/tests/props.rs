//! Property tests: both simplex engines — the sparse revised solver and
//! the dense reference tableau — against brute-force vertex enumeration
//! on two-variable LPs (where the optimum, if it exists, lies on a vertex
//! of the feasible polygon — checkable by hand), plus the warm sparse
//! solver against cold dense solves across drifting LP families.

use proptest::prelude::*;
use rwc_lp::model::{LinearProgram, LpBuilder, Relation};
use rwc_lp::simplex::solve_dense;
use rwc_lp::{solve, LpOutcome, SparseSimplexSolver};

/// Brute-force a 2-var LP: enumerate candidate vertices (constraint-pair
/// intersections + axis intersections + origin), keep the feasible ones,
/// return the best objective value.
fn brute_force_2var(
    objective: (f64, f64),
    constraints: &[(f64, f64, f64)], // a·x + b·y ≤ c
) -> Option<f64> {
    let mut candidates: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    // Axis intersections.
    for &(a, b, c) in constraints {
        if a.abs() > 1e-9 {
            candidates.push((c / a, 0.0));
        }
        if b.abs() > 1e-9 {
            candidates.push((0.0, c / b));
        }
    }
    // Pairwise intersections.
    for (i, &(a1, b1, c1)) in constraints.iter().enumerate() {
        for &(a2, b2, c2) in &constraints[i + 1..] {
            let det = a1 * b2 - a2 * b1;
            if det.abs() > 1e-9 {
                let x = (c1 * b2 - c2 * b1) / det;
                let y = (a1 * c2 - a2 * c1) / det;
                candidates.push((x, y));
            }
        }
    }
    let feasible = |x: f64, y: f64| {
        x >= -1e-9
            && y >= -1e-9
            && constraints.iter().all(|&(a, b, c)| a * x + b * y <= c + 1e-6)
    };
    candidates
        .into_iter()
        .filter(|&(x, y)| feasible(x, y))
        .map(|(x, y)| objective.0 * x + objective.1 * y)
        .fold(None, |best, v| Some(best.map_or(v, |b: f64| b.max(v))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On bounded-feasible random 2-var LPs both engines match the
    /// vertex-enumeration optimum.
    #[test]
    fn simplex_matches_vertex_enumeration(
        cx in -5.0f64..5.0,
        cy in -5.0f64..5.0,
        rows in proptest::collection::vec((0.1f64..5.0, 0.1f64..5.0, 0.5f64..20.0), 1..6),
    ) {
        // All-positive coefficients with positive rhs ⇒ feasible (origin)
        // and bounded (every direction eventually blocked when the
        // objective is non-positive... ensure boundedness by adding a box).
        let mut b = LpBuilder::new();
        let x = b.add_var(cx);
        let y = b.add_var(cy);
        let mut cons: Vec<(f64, f64, f64)> = rows.clone();
        cons.push((1.0, 0.0, 50.0)); // box: x ≤ 50
        cons.push((0.0, 1.0, 50.0)); // box: y ≤ 50
        for &(a, bb, c) in &cons {
            b.add_constraint(&[(x, a), (y, bb)], Relation::Le, c);
        }
        let lp = b.build();
        let expected = brute_force_2var((cx, cy), &cons).expect("origin is feasible");
        for (engine, outcome) in [("sparse", solve(&lp)), ("dense", solve_dense(&lp))] {
            match outcome {
                LpOutcome::Optimal(s) => {
                    prop_assert!((s.objective - expected).abs() < 1e-5,
                        "{engine} {} vs brute force {expected}", s.objective);
                    // The returned point is feasible.
                    prop_assert!(s.x[0] >= -1e-9 && s.x[1] >= -1e-9);
                    for &(a, bb, c) in &cons {
                        prop_assert!(a * s.x[0] + bb * s.x[1] <= c + 1e-6);
                    }
                }
                other => prop_assert!(false, "{engine}: expected optimal, got {other:?}"),
            }
        }
    }

    /// Scaling the objective scales the optimum (homogeneity).
    #[test]
    fn objective_homogeneity(
        cx in 0.1f64..5.0,
        cy in 0.1f64..5.0,
        k in 0.1f64..10.0,
        rows in proptest::collection::vec((0.1f64..5.0, 0.1f64..5.0, 0.5f64..20.0), 1..5),
    ) {
        let solve_with = |ocx: f64, ocy: f64| -> f64 {
            let mut b = LpBuilder::new();
            let x = b.add_var(ocx);
            let y = b.add_var(ocy);
            for &(a, bb, c) in &rows {
                b.add_constraint(&[(x, a), (y, bb)], Relation::Le, c);
            }
            solve(&b.build()).expect_optimal().objective
        };
        let base = solve_with(cx, cy);
        let scaled = solve_with(k * cx, k * cy);
        prop_assert!((scaled - k * base).abs() < 1e-5 * (1.0 + k * base.abs()),
            "{scaled} vs {}", k * base);
    }

    /// One persistent sparse solver re-solving a drifting LP family
    /// matches the cold dense reference's optimal objective on every step
    /// — through fast resolves (rhs-only drift), basis refactorisations
    /// (coefficient drift), and structural edits that change the
    /// constraint count.
    #[test]
    fn warm_resolve_matches_cold_across_perturbations(
        objs in proptest::collection::vec(0.2f64..5.0, 3),
        base_rows in proptest::collection::vec(
            (0.1f64..5.0, 0.1f64..5.0, 0.1f64..5.0, 1.0f64..20.0), 2..5),
        steps in proptest::collection::vec((0u8..3, 0usize..12, 0.4f64..1.6), 2..10),
    ) {
        let mut rows: Vec<([f64; 3], f64)> =
            base_rows.iter().map(|&(a, b, c, r)| ([a, b, c], r)).collect();
        let mut extra_row = false;
        let build = |rows: &[([f64; 3], f64)], extra_row: bool| -> LinearProgram {
            let mut b = LpBuilder::new();
            let vars: Vec<usize> = objs.iter().map(|&o| b.add_var(o)).collect();
            for (coef, rhs) in rows {
                let terms: Vec<(usize, f64)> =
                    vars.iter().zip(coef).map(|(&v, &a)| (v, a)).collect();
                b.add_constraint(&terms, Relation::Le, *rhs);
            }
            for &v in &vars {
                b.add_constraint(&[(v, 1.0)], Relation::Le, 50.0); // keep it bounded
            }
            if extra_row {
                let terms: Vec<(usize, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
                b.add_constraint(&terms, Relation::Le, 120.0);
            }
            b.build()
        };
        let mut warm = SparseSimplexSolver::new();
        let lp0 = build(&rows, extra_row);
        let w0 = warm.solve(&lp0).expect_optimal().objective;
        let c0 = solve_dense(&lp0).expect_optimal().objective;
        prop_assert!((w0 - c0).abs() < 1e-6 * (1.0 + c0.abs()));
        let mut same_shape_steps = 0u64;
        for &(kind, idx, factor) in &steps {
            match kind {
                // Rhs-only drift: the fast-resolve / dual-repair path.
                // Shrinking the rhs is what makes the saved basis primal-
                // infeasible, forcing the dual-simplex repair.
                0 => {
                    let i = idx % rows.len();
                    rows[i].1 *= factor;
                }
                // Coefficient drift: full warm refactorisation.
                1 => {
                    let i = idx % rows.len();
                    rows[i].0[idx % 3] *= factor;
                }
                // Structural edit: the constraint count changes.
                _ => extra_row = !extra_row,
            }
            if kind < 2 {
                same_shape_steps += 1;
            }
            let lp = build(&rows, extra_row);
            let w = warm.solve(&lp).expect_optimal().objective;
            let c = solve_dense(&lp).expect_optimal().objective;
            prop_assert!((w - c).abs() < 1e-6 * (1.0 + c.abs()),
                "warm {w} vs cold {c} after step kind={kind} idx={idx} factor={factor}");
        }
        // Every same-shape step should at least have attempted a warm
        // start (hits depend on the drift, attempts do not).
        prop_assert!(warm.stats().warm_attempts >= same_shape_steps,
            "only {} warm attempts for {} same-shape steps",
            warm.stats().warm_attempts, same_shape_steps);
    }
}
