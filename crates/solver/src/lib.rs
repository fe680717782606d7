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
//! * the dense row form the elimination kernel runs on — variables interned
//!   to ids in name order, rows as sorted `(id, coeff)` vectors ([`dense`]),
//! * feasibility + model extraction for conjunctions of linear constraints
//!   via Fourier–Motzkin elimination with Gaussian substitution for
//!   equalities ([`fm`]): the dense kernel, entered either through the string
//!   front doors ([`check_feasible`], [`max_feasible_subset`]) or through a
//!   system prepared once and probed by row index ([`Prepared`]),
//! * a propositional CNF representation and a DPLL SAT solver ([`sat`]),
//! * the Fu-Malik partial-MaxSAT algorithm with deletion-based unsat-core
//!   extraction ([`maxsat`]),
//! * a lazy MaxSMT loop over linear-arithmetic soft groups
//!   ([`maxsmt`]) — the engine behind the treaty-configuration optimizer
//!   (Algorithm 1 in the paper); its lemma loop ([`maxsmt::search`]) takes
//!   the theory as two closures, so a caller whose probes are arithmetic
//!   (the treaty templates' box probes) brings its own.
//!
//! Everything is deterministic and dependency-free, which keeps protocol
//! rounds and benchmarks reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod fm;
pub mod linear;
pub mod maxsat;
pub mod maxsmt;
pub mod rational;
#[cfg(test)]
mod reference;
pub mod sat;

pub use dense::{DenseModel, Var};
pub use fm::{check_feasible, Feasibility, Prepared};
pub use linear::{CmpKind, LinExpr, LinearConstraint, VarName};
pub use maxsat::{FuMalik, MaxSatResult};
pub use maxsmt::{max_feasible_subset, MaxSmtResult, SoftGroup};
pub use rational::Rational;
pub use sat::{Clause, Cnf, DpllSolver, Literal, SatResult, VarId};
