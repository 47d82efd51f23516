//! # rwc-lp
//!
//! A small, exact linear-programming solver (sparse revised simplex with
//! warm starts) plus encoders that express flow problems as LPs.
//!
//! Why build one: the reproduction's headline theorem says min-cost
//! max-flow on the augmented graph equals max-flow on the dynamic-capacity
//! graph. The combinatorial solvers in `rwc-flow` are fast but
//! approximate in the multicommodity case; this crate provides the *ground
//! truth* they are validated against in tests and benchmarks (the Rust
//! ecosystem's optimisation offerings are thin, per the calibration notes,
//! so this is written from scratch on `std` only).
//!
//! - [`model`]: the LP model ([`model::LinearProgram`], built via
//!   [`model::LpBuilder`]) and its [`model::LpOutcome`];
//! - [`sparse`]: CSC computational form + bound-absorbing lowering;
//! - [`revised`]: the sparse revised-simplex solver — the one LP engine;
//! - [`simplex`]: the dense two-phase tableau, kept only as the cold
//!   reference oracle the equivalence suites compare against;
//! - [`flows`]: max-flow / min-cost-max-flow / multicommodity encoders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flows;
mod lu;
pub mod model;
mod pricing;
pub mod revised;
pub mod simplex;
pub mod sparse;

pub use model::{LinearProgram, LpBuilder, LpOutcome, Relation, Solution};
pub use revised::{solve, solve_with_budget, SolverStats, SparseSimplexSolver};
pub use sparse::{CscMatrix, SparseLp, SparseLpBuilder};
