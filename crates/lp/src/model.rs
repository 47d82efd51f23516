//! LP model types.
//!
//! A [`LinearProgram`] is always a *maximisation* over non-negative
//! variables: `max c·x  s.t.  A x {≤,=,≥} b,  x ≥ 0`. Minimisation is
//! expressed by negating the objective.

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≥`
    Ge,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable values.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Outcome of solving an LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimum was found.
    Optimal(Solution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The pivot budget ran out before reaching optimality (numerical
    /// stall or pathological degeneracy). Callers should treat this as
    /// a solver failure, not a property of the model.
    Stalled,
}

impl LpOutcome {
    /// Unwraps the optimal solution; panics otherwise.
    pub fn expect_optimal(self) -> Solution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal solution, got {other:?}"),
        }
    }
}

/// One linear constraint `coeffs · x (op) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Dense coefficient vector (length = number of variables).
    pub coeffs: Vec<f64>,
    /// Relation.
    pub op: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: maximise `objective · x` subject to constraints and
/// `x ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    /// Objective coefficients (length = number of variables).
    pub objective: Vec<f64>,
    /// Constraints.
    pub constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Validates dimensional consistency and finiteness.
    pub fn validate(&self) -> Result<(), String> {
        if self.objective.is_empty() {
            return Err("LP with no variables".into());
        }
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err("non-finite objective coefficient".into());
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if c.coeffs.len() != self.objective.len() {
                return Err(format!(
                    "constraint {i}: {} coefficients for {} variables",
                    c.coeffs.len(),
                    self.objective.len()
                ));
            }
            if c.coeffs.iter().any(|x| !x.is_finite()) || !c.rhs.is_finite() {
                return Err(format!("constraint {i}: non-finite value"));
            }
        }
        Ok(())
    }
}

/// Incremental LP construction with named variables.
#[derive(Debug, Clone, Default)]
pub struct LpBuilder {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LpBuilder {
    /// A builder with no variables yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with the given objective coefficient; returns its
    /// index. Must be called before any constraint mentions the variable.
    pub fn add_var(&mut self, objective_coeff: f64) -> usize {
        assert!(
            self.constraints.is_empty(),
            "add all variables before adding constraints"
        );
        self.objective.push(objective_coeff);
        self.objective.len() - 1
    }

    /// Number of variables added so far.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds a sparse constraint `Σ coeff·x[var] (op) rhs`.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], op: Relation, rhs: f64) {
        let mut coeffs = vec![0.0; self.objective.len()];
        for &(var, coeff) in terms {
            assert!(var < coeffs.len(), "variable {var} out of range");
            coeffs[var] += coeff;
        }
        self.constraints.push(Constraint { coeffs, op, rhs });
    }

    /// Finalises the program.
    pub fn build(self) -> LinearProgram {
        let lp = LinearProgram { objective: self.objective, constraints: self.constraints };
        lp.validate().expect("builder produced an invalid LP");
        lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_dense_rows() {
        let mut b = LpBuilder::new();
        let x = b.add_var(3.0);
        let y = b.add_var(5.0);
        b.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 14.0);
        b.add_constraint(&[(y, 1.0)], Relation::Ge, 1.0);
        let lp = b.build();
        assert_eq!(lp.n_vars(), 2);
        assert_eq!(lp.n_constraints(), 2);
        assert_eq!(lp.constraints[0].coeffs, vec![1.0, 2.0]);
        assert_eq!(lp.constraints[1].coeffs, vec![0.0, 1.0]);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        b.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Le, 5.0);
        let lp = b.build();
        assert_eq!(lp.constraints[0].coeffs, vec![3.0]);
    }

    #[test]
    fn validate_catches_dimension_mismatch() {
        let lp = LinearProgram {
            objective: vec![1.0, 2.0],
            constraints: vec![Constraint { coeffs: vec![1.0], op: Relation::Le, rhs: 1.0 }],
        };
        assert!(lp.validate().is_err());
    }

    #[test]
    fn validate_catches_nan() {
        let lp = LinearProgram {
            objective: vec![f64::NAN],
            constraints: vec![],
        };
        assert!(lp.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn vars_after_constraints_rejected() {
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        b.add_var(1.0);
    }
}
