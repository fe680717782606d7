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
//! * a lazy MaxSMT loop over linear-arithmetic soft groups ([`maxsmt`]) —
//!   the engine behind the treaty-configuration optimizer (Algorithm 1 in
//!   the paper). Its lemma loop ([`maxsmt::search`]) is an implicit
//!   hitting-set search: the theory, two closures the caller brings (the
//!   treaty templates' arithmetic box probes, say), learns minimal infeasible
//!   sets of groups, and a bitmask search keeps the lexicographically first
//!   maximum set that contains none of them. Where the paper asks Fu-Malik
//!   for "the largest satisfiable subset", this answers with a specified one.
//!
//! Everything is deterministic and dependency-free, which keeps protocol
//! rounds and benchmarks reproducible. The propositional side of the paper's
//! design — CNF, DPLL and Fu-Malik — survives only as test oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod fm;
pub mod linear;
#[cfg(test)]
mod maxsat;
pub mod maxsmt;
pub mod rational;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod sat;

pub use dense::{DenseModel, Var};
pub use fm::{check_feasible, Feasibility, Prepared};
pub use linear::{CmpKind, LinExpr, LinearConstraint, VarName};
pub use maxsmt::{max_feasible_subset, MaxSmtResult, SoftGroup};
pub use rational::Rational;
