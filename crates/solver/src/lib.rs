//! # homeo-solver
//!
//! Constraint-solving substrate for the Homeostasis Protocol reproduction.
//!
//! The paper's prototype delegates all reasoning to the Z3 SMT solver and its
//! Fu-Malik MaxSAT procedure. This crate implements, from scratch, exactly
//! the fragments that the homeostasis pipeline needs:
//!
//! * exact rational arithmetic ([`rational`]),
//! * linear integer arithmetic atoms and conjunctions ([`linear`]),
//! * feasibility + model extraction for conjunctions of linear constraints
//!   via Fourier–Motzkin elimination with Gaussian substitution for
//!   equalities ([`fm`]),
//! * a propositional CNF representation and a DPLL SAT solver ([`sat`]),
//! * the Fu-Malik partial-MaxSAT algorithm with deletion-based unsat-core
//!   extraction ([`maxsat`]),
//! * a lazy MaxSMT loop over linear-arithmetic soft groups
//!   ([`maxsmt`]) — the engine behind the treaty-configuration optimizer
//!   (Algorithm 1 in the paper).
//!
//! Everything is deterministic and dependency-free, which keeps protocol
//! rounds and benchmarks reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fm;
pub mod linear;
pub mod maxsat;
pub mod maxsmt;
pub mod rational;
#[cfg(test)]
mod reference;
pub mod sat;

pub use fm::{check_feasible, Feasibility};
pub use linear::{CmpKind, LinExpr, LinearConstraint, VarName};
pub use maxsat::{FuMalik, MaxSatResult};
pub use maxsmt::{max_feasible_subset, MaxSmtResult, SoftGroup};
pub use rational::Rational;
pub use sat::{Clause, Cnf, DpllSolver, Literal, SatResult, VarId};
