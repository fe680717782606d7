//! The solver kernel as it was before dominance pruning and dense rows,
//! kept verbatim as the oracle of the differential tests: Fourier–Motzkin
//! elimination over string-keyed rows that keeps every dominated row, a
//! MaxSMT loop with a from-scratch Fu-Malik solve and a re-solved hard
//! system per lemma, a Fu-Malik that asks the DPLL for every verdict, and a
//! DPLL that copies the formula and appends the assumptions as unit
//! clauses. The production [`crate::fm`], [`crate::maxsmt`],
//! [`crate::maxsat`] and [`crate::sat`] must return the same [`Feasibility`]
//! (variant *and* model), the same [`MaxSmtResult`], the same
//! [`MaxSatResult`] in as many rounds and the same [`SatResult`] (verdict
//! *and* model — the MaxSAT layer reads its selection off the model) on
//! every input, through the string front doors and through the prepared,
//! index-probed API alike.

use std::collections::{BTreeMap, BTreeSet};

use crate::fm::Feasibility;
use crate::linear::{CmpKind, LinearConstraint, VarName};
use crate::maxsat::MaxSatResult;
use crate::maxsmt::{MaxSmtResult, SoftGroup};
use crate::rational::Rational;
use crate::sat::{Clause, Cnf, Literal, SatResult, VarId};

/// A linear expression with rational coefficients, used internally during
/// elimination.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RatExpr {
    terms: BTreeMap<VarName, Rational>,
    constant: Rational,
}

impl RatExpr {
    fn from_constraint(c: &LinearConstraint) -> (Self, CmpKind) {
        let mut terms = BTreeMap::new();
        for (v, coeff) in c.expr.terms() {
            terms.insert(v.clone(), Rational::from_int(coeff));
        }
        (
            RatExpr {
                terms,
                constant: Rational::from_int(c.expr.constant_part()),
            },
            c.op,
        )
    }

    fn coeff(&self, v: &str) -> Rational {
        self.terms.get(v).copied().unwrap_or(Rational::ZERO)
    }

    fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// self + k * other
    fn add_scaled(&self, other: &RatExpr, k: Rational) -> RatExpr {
        let mut terms = self.terms.clone();
        for (v, c) in &other.terms {
            let entry = terms.entry(v.clone()).or_insert(Rational::ZERO);
            *entry = *entry + *c * k;
        }
        terms.retain(|_, c| !c.is_zero());
        RatExpr {
            terms,
            constant: self.constant + other.constant * k,
        }
    }

    /// Substitute v := replacement (an expression not containing v).
    fn substitute(&self, v: &str, replacement: &RatExpr) -> RatExpr {
        let c = self.coeff(v);
        if c.is_zero() {
            return self.clone();
        }
        let mut without = self.clone();
        without.terms.remove(v);
        without.add_scaled(replacement, c)
    }

    fn eval(&self, assignment: &BTreeMap<VarName, Rational>) -> Rational {
        let mut total = self.constant;
        for (v, c) in &self.terms {
            total = total + *c * assignment.get(v).copied().unwrap_or(Rational::ZERO);
        }
        total
    }
}

/// A constraint `expr ≤ 0` (all strictness removed by integer tightening).
#[derive(Debug, Clone)]
struct RatLe {
    expr: RatExpr,
}

/// Checks the feasibility of a conjunction of linear constraints over the
/// integers and extracts a model when possible.
pub fn check_feasible(constraints: &[LinearConstraint]) -> Feasibility {
    // Step 0: trivial checks and conversion to rational ≤ / = forms.
    let mut les: Vec<RatLe> = Vec::new();
    let mut eqs: Vec<RatExpr> = Vec::new();
    for c in constraints {
        if let Some(truth) = c.trivially() {
            if truth {
                continue;
            }
            return Feasibility::Infeasible;
        }
        let tightened = c.tightened();
        let (expr, op) = RatExpr::from_constraint(&tightened);
        match op {
            CmpKind::Le => les.push(RatLe { expr }),
            CmpKind::Eq => eqs.push(expr),
            CmpKind::Lt => unreachable!("tightened() removes strict inequalities"),
        }
    }

    // Step 1: eliminate equalities by substitution. Record the substitutions
    // so the model can be reconstructed afterwards.
    let mut substitutions: Vec<(VarName, RatExpr)> = Vec::new();
    while let Some(eq) = eqs.pop() {
        if eq.is_constant() {
            if !eq.constant.is_zero() {
                return Feasibility::Infeasible;
            }
            continue;
        }
        // Solve for the first variable: a·v + rest = 0  =>  v = -rest / a.
        let (v, a) = {
            let (v, a) = eq.terms.iter().next().expect("non-constant equality");
            (v.clone(), *a)
        };
        let mut rest = eq.clone();
        rest.terms.remove(&v);
        let replacement = RatExpr {
            terms: rest
                .terms
                .iter()
                .map(|(k, c)| (k.clone(), -(*c / a)))
                .collect(),
            constant: -(rest.constant / a),
        };
        for e in eqs.iter_mut() {
            *e = e.substitute(&v, &replacement);
        }
        for le in les.iter_mut() {
            le.expr = le.expr.substitute(&v, &replacement);
        }
        substitutions.push((v, replacement));
    }

    // Step 2: Fourier–Motzkin elimination over the inequalities.
    let mut vars: BTreeSet<VarName> = BTreeSet::new();
    for le in &les {
        vars.extend(le.expr.terms.keys().cloned());
    }
    // For each eliminated variable remember the constraints that mentioned it
    // (in terms of later-eliminated variables only) for back-substitution.
    let mut elimination_stack: Vec<(VarName, Vec<RatLe>)> = Vec::new();

    for v in vars.iter() {
        let (mentioning, rest): (Vec<RatLe>, Vec<RatLe>) =
            les.drain(..).partition(|le| !le.expr.coeff(v).is_zero());
        les = rest;
        // Lower bounds: coefficient < 0 (v ≥ ...); upper bounds: coefficient > 0.
        let lowers: Vec<&RatLe> = mentioning
            .iter()
            .filter(|le| le.expr.coeff(v).is_negative())
            .collect();
        let uppers: Vec<&RatLe> = mentioning
            .iter()
            .filter(|le| le.expr.coeff(v).is_positive())
            .collect();
        for lo in &lowers {
            for up in &uppers {
                // lo: a·v + A ≤ 0 with a < 0  =>  v ≥ A / (-a)
                // up: b·v + B ≤ 0 with b > 0  =>  v ≤ -B / b
                // combine: b·A + (-a)·B ≤ 0
                let a = lo.expr.coeff(v);
                let b = up.expr.coeff(v);
                let mut lo_wo = lo.expr.clone();
                lo_wo.terms.remove(v);
                let mut up_wo = up.expr.clone();
                up_wo.terms.remove(v);
                let combined = lo_wo.add_scaled(&up_wo, -a / b).clone();
                // combined = A + (-a/b)·B ≤ 0 (scaled by 1/b > 0, sign safe)
                if combined.is_constant() {
                    if combined.constant.is_positive() {
                        return Feasibility::Infeasible;
                    }
                } else {
                    les.push(RatLe { expr: combined });
                }
            }
        }
        elimination_stack.push((v.clone(), mentioning));
    }

    // Step 3: whatever remains must be constant.
    for le in &les {
        debug_assert!(le.expr.is_constant());
        if le.expr.constant.is_positive() {
            return Feasibility::Infeasible;
        }
    }

    // Step 4: back-substitution to build a model.
    let mut assignment: BTreeMap<VarName, Rational> = BTreeMap::new();
    for (v, constraints) in elimination_stack.iter().rev() {
        let mut lower: Option<Rational> = None;
        let mut upper: Option<Rational> = None;
        for le in constraints {
            let a = le.expr.coeff(v);
            let mut rest = le.expr.clone();
            rest.terms.remove(v);
            let value = rest.eval(&assignment);
            // a·v + value ≤ 0
            if a.is_positive() {
                let bound = -(value / a);
                upper = Some(match upper {
                    Some(u) if u < bound => u,
                    _ => bound,
                });
            } else {
                let bound = -(value / a);
                lower = Some(match lower {
                    Some(l) if l > bound => l,
                    _ => bound,
                });
            }
        }
        let choice = match (lower, upper) {
            (Some(l), Some(u)) => {
                // Prefer an integer in [l, u]; fall back to l.
                let li = Rational::from_int(l.ceil() as i64);
                if li <= u {
                    li
                } else {
                    l
                }
            }
            (Some(l), None) => Rational::from_int(l.ceil() as i64),
            (None, Some(u)) => Rational::from_int(u.floor() as i64),
            (None, None) => Rational::ZERO,
        };
        assignment.insert(v.clone(), choice);
    }
    // Variables eliminated through equalities, in reverse order.
    for (v, replacement) in substitutions.iter().rev() {
        let value = replacement.eval(&assignment);
        assignment.insert(v.clone(), value);
    }

    // Step 5: verify and return an integer model when possible.
    let mut int_model: BTreeMap<VarName, i64> = BTreeMap::new();
    for (v, value) in &assignment {
        match value.to_i64() {
            Some(n) => {
                int_model.insert(v.clone(), n);
            }
            None => return Feasibility::FeasibleRationalOnly,
        }
    }
    if constraints.iter().all(|c| c.holds(&int_model)) {
        Feasibility::Feasible(int_model)
    } else {
        Feasibility::FeasibleRationalOnly
    }
}

/// Computes a maximum-cardinality subset of `soft_groups` that is jointly
/// feasible with `hard`, together with an integer model.
///
/// Returns `None` when the hard constraints alone are infeasible.
pub fn max_feasible_subset(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
) -> Option<MaxSmtResult> {
    if !check_feasible(hard).is_feasible() {
        return None;
    }
    let n = soft_groups.len();
    let mut cnf = Cnf::new(n);
    let soft_clauses: Vec<Clause> = (0..n).map(|j| Clause::new([Literal::pos(j)])).collect();
    let mut lemmas = 0usize;

    // Safety bound: each iteration learns a new blocking clause over the
    // selectors, so 2^n is a hard ceiling; in practice a handful suffice.
    let max_iterations = 10_000;
    for _ in 0..max_iterations {
        let (res, _) =
            fu_malik(&cnf, &soft_clauses).expect("selector abstraction is always satisfiable");
        let selected: Vec<usize> = res.satisfied_soft.clone();

        // Theory check on the selected groups.
        let mut system: Vec<LinearConstraint> = hard.to_vec();
        for &j in &selected {
            system.extend(soft_groups[j].iter().cloned());
        }
        match check_feasible(&system) {
            Feasibility::Feasible(model) => {
                return Some(MaxSmtResult {
                    cost: n - selected.len(),
                    selected,
                    model: Some(model),
                    lemmas,
                    gave_up: false,
                });
            }
            Feasibility::FeasibleRationalOnly => {
                return Some(MaxSmtResult {
                    cost: n - selected.len(),
                    selected,
                    model: None,
                    lemmas,
                    gave_up: false,
                });
            }
            Feasibility::Infeasible => {
                // Shrink to a minimal infeasible subset of the selected
                // groups (deletion-based), then block it.
                let core = minimal_infeasible_subset(hard, soft_groups, &selected);
                debug_assert!(!core.is_empty());
                cnf.add_clause(Clause::new(core.iter().map(|&j| Literal::neg(j))));
                lemmas += 1;
            }
        }
    }
    // Fall back to the hard-only solution if the iteration bound is ever hit.
    let model = match check_feasible(hard) {
        Feasibility::Feasible(m) => Some(m),
        _ => None,
    };
    Some(MaxSmtResult {
        selected: Vec::new(),
        model,
        cost: n,
        lemmas,
        gave_up: true,
    })
}

/// Deletion-based minimal infeasible subset of `candidate` group indices
/// (relative to the always-included hard constraints).
fn minimal_infeasible_subset(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
    candidate: &[usize],
) -> Vec<usize> {
    let feasible_with = |indices: &[usize]| -> bool {
        let mut system: Vec<LinearConstraint> = hard.to_vec();
        for &j in indices {
            system.extend(soft_groups[j].iter().cloned());
        }
        check_feasible(&system).is_feasible()
    };
    debug_assert!(!feasible_with(candidate));
    let mut core: Vec<usize> = candidate.to_vec();
    let mut i = 0;
    while i < core.len() {
        let mut smaller = core.clone();
        smaller.remove(i);
        if feasible_with(&smaller) {
            i += 1;
        } else {
            core = smaller;
        }
    }
    core
}

/// Fu-Malik partial MaxSAT with every verdict — the hard clauses, each
/// round's solve, each step of the deletion scan — asked of the DPLL below.
/// Returns the result and the number of relaxation rounds.
pub fn fu_malik(hard: &Cnf, soft: &[Clause]) -> Option<(MaxSatResult, usize)> {
    let soft_vars = soft
        .iter()
        .flat_map(|c| c.literals.iter().map(|l| l.var + 1));
    let original_vars = hard.num_vars.max(soft_vars.max().unwrap_or(0));
    let mut working = hard.clone();
    working.num_vars = original_vars;
    if !solve_with_assumptions(&working, &[]).is_sat() {
        return None;
    }
    let mut selectors: Vec<Literal> = Vec::with_capacity(soft.len());
    for clause in soft {
        let s = working.fresh_var();
        let mut lits = vec![Literal::neg(s)];
        lits.extend(clause.literals.iter().copied());
        working.add_clause(Clause::new(lits));
        selectors.push(Literal::pos(s));
    }
    let mut rounds = 0usize;
    loop {
        if let SatResult::Sat(model) = solve_with_assumptions(&working, &selectors) {
            let satisfies = |l: &Literal| l.var < model.len() && l.satisfied_by(model[l.var]);
            let satisfied_soft = (0..soft.len())
                .filter(|&i| soft[i].literals.iter().any(satisfies))
                .collect();
            let result = MaxSatResult {
                cost: rounds,
                model: model.iter().copied().take(original_vars).collect(),
                satisfied_soft,
            };
            return Some((result, rounds));
        }
        rounds += 1;
        let mut core = selectors.clone();
        let mut i = 0;
        while i < core.len() {
            let dropped = core.remove(i);
            if solve_with_assumptions(&working, &core).is_sat() {
                core.insert(i, dropped);
                i += 1;
            }
        }
        let mut relax_lits = Vec::with_capacity(core.len());
        for sel in &core {
            let r = working.fresh_var();
            relax_lits.push(Literal::pos(r));
            let guard = Literal::neg(sel.var);
            for clause in working.clauses.iter_mut() {
                if clause.literals.first() == Some(&guard) {
                    clause.literals.push(Literal::pos(r));
                }
            }
        }
        working.add_at_most_one(&relax_lits);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Value {
    Unassigned,
    True,
    False,
}

/// Solves the formula under the given assumption literals (treated as
/// additional unit clauses).
pub fn solve_with_assumptions(cnf: &Cnf, assumptions: &[Literal]) -> SatResult {
    let mut clauses: Vec<Vec<Literal>> = cnf.clauses.iter().map(|c| c.literals.clone()).collect();
    for a in assumptions {
        clauses.push(vec![*a]);
    }
    let num_vars = cnf
        .num_vars
        .max(assumptions.iter().map(|a| a.var + 1).max().unwrap_or(0));
    let mut assignment = vec![Value::Unassigned; num_vars];
    if dpll(&clauses, &mut assignment) {
        SatResult::Sat(
            assignment
                .into_iter()
                .map(|v| matches!(v, Value::True))
                .collect(),
        )
    } else {
        SatResult::Unsat
    }
}

fn dpll(clauses: &[Vec<Literal>], assignment: &mut Vec<Value>) -> bool {
    // Unit propagation to fixpoint.
    let mut trail: Vec<VarId> = Vec::new();
    loop {
        let mut propagated = false;
        for clause in clauses {
            let mut unassigned: Option<Literal> = None;
            let mut satisfied = false;
            let mut unassigned_count = 0;
            for lit in clause {
                match assignment[lit.var] {
                    Value::Unassigned => {
                        unassigned_count += 1;
                        unassigned = Some(*lit);
                    }
                    Value::True if lit.positive => {
                        satisfied = true;
                        break;
                    }
                    Value::False if !lit.positive => {
                        satisfied = true;
                        break;
                    }
                    _ => {}
                }
            }
            if satisfied {
                continue;
            }
            match unassigned_count {
                0 => {
                    // Conflict: undo and fail.
                    for &v in &trail {
                        assignment[v] = Value::Unassigned;
                    }
                    return false;
                }
                1 => {
                    let lit = unassigned.expect("one unassigned literal");
                    assignment[lit.var] = if lit.positive {
                        Value::True
                    } else {
                        Value::False
                    };
                    trail.push(lit.var);
                    propagated = true;
                }
                _ => {}
            }
        }
        if !propagated {
            break;
        }
    }

    // Pick a branching variable: the literal occurring most often among
    // not-yet-satisfied clauses.
    let mut counts: Vec<usize> = vec![0; assignment.len()];
    let mut any_unassigned = false;
    for clause in clauses {
        let satisfied = clause.iter().any(|l| match assignment[l.var] {
            Value::True => l.positive,
            Value::False => !l.positive,
            Value::Unassigned => false,
        });
        if satisfied {
            continue;
        }
        for lit in clause {
            if assignment[lit.var] == Value::Unassigned {
                counts[lit.var] += 1;
                any_unassigned = true;
            }
        }
    }
    if !any_unassigned {
        // All clauses satisfied (or no clauses left to satisfy).
        let all_satisfied = clauses.iter().all(|clause| {
            clause.iter().any(|l| match assignment[l.var] {
                Value::True => l.positive,
                Value::False => !l.positive,
                Value::Unassigned => false,
            })
        });
        if all_satisfied {
            // Assign remaining variables arbitrarily (false).
            for v in assignment.iter_mut() {
                if *v == Value::Unassigned {
                    *v = Value::False;
                }
            }
            return true;
        }
        for &v in &trail {
            assignment[v] = Value::Unassigned;
        }
        return false;
    }
    let branch_var = counts
        .iter()
        .enumerate()
        .filter(|(v, _)| assignment[*v] == Value::Unassigned)
        .max_by_key(|(_, c)| **c)
        .map(|(v, _)| v)
        .expect("an unassigned variable exists");

    for value in [Value::True, Value::False] {
        assignment[branch_var] = value;
        if dpll(clauses, assignment) {
            return true;
        }
        assignment[branch_var] = Value::Unassigned;
    }
    for &v in &trail {
        assignment[v] = Value::Unassigned;
    }
    false
}

#[cfg(test)]
mod tests {
    use homeo_sim::DetRng;

    use super::*;
    use crate::fm::Prepared;
    use crate::linear::LinExpr;

    /// Configuration-variable names as the templates spell them; site 10 and
    /// up sort before site 2, so name order and numeric order disagree.
    fn config_var(k: usize) -> LinExpr {
        LinExpr::var(format!("c0@{k}"))
    }

    /// A treaty-shaped system over `n` variables: `uppers` box bounds per
    /// variable and one coupling row `Σ c ≥ floor`.
    fn treaty_system(rng: &mut DetRng, n: usize, uppers: usize) -> Vec<LinearConstraint> {
        let mut system = Vec::new();
        let mut sum = LinExpr::zero();
        for k in 0..n {
            sum = sum.plus(&config_var(k));
            for _ in 0..uppers {
                let bound = LinExpr::constant(rng.int_inclusive(0, 40));
                system.push(if rng.chance(0.2) {
                    LinearConstraint::lt(config_var(k), bound)
                } else {
                    LinearConstraint::le(config_var(k), bound)
                });
            }
        }
        // Around the sum of the tightest bounds, so both answers occur.
        let floor = LinExpr::constant(rng.int_inclusive(0, 14 * n as i64));
        system.insert(
            rng.index(system.len() + 1),
            LinearConstraint::ge(sum, floor),
        );
        system
    }

    /// A small system of mixed `≤ / < / =` rows with non-unit coefficients.
    fn general_system(rng: &mut DetRng, vars: usize, rows: usize) -> Vec<LinearConstraint> {
        (0..rows)
            .map(|_| {
                let mut lhs = LinExpr::constant(rng.int_inclusive(-12, 12));
                for v in 0..vars {
                    if rng.chance(0.55) {
                        lhs.add_term(format!("v{v}"), rng.int_inclusive(-3, 3));
                    }
                }
                let rhs = LinExpr::zero();
                match rng.index(5) {
                    0 => LinearConstraint::eq(lhs, rhs),
                    1 => LinearConstraint::lt(lhs, rhs),
                    _ => LinearConstraint::le(lhs, rhs),
                }
            })
            .collect()
    }

    /// A system laid out the way a caller of the prepared API would: names
    /// ranked by hand, the rows pushed with `decoys` (rows the check must
    /// ignore) interleaved. Returns the system, the names by id and where
    /// each of `rows` landed.
    fn prepare(
        rows: &[&LinearConstraint],
        decoys: &[LinearConstraint],
    ) -> (Prepared, Vec<VarName>, Vec<usize>) {
        let all = || rows.iter().copied().chain(decoys);
        let names: BTreeSet<VarName> = all().flat_map(|c| c.vars().cloned()).collect();
        let names: Vec<VarName> = names.into_iter().collect();
        let id = |v: &VarName| names.binary_search(v).unwrap() as crate::Var;
        let mut system = Prepared::new(names.len());
        let mut push = |c: &LinearConstraint| {
            let terms = c.expr.terms().map(|(v, coeff)| (id(v), coeff));
            system.push(terms, c.expr.constant_part(), c.op)
        };
        let mut decoys = decoys.iter();
        let mut at = Vec::with_capacity(rows.len());
        for row in rows {
            if let Some(decoy) = decoys.next() {
                push(decoy);
            }
            at.push(push(row));
        }
        decoys.for_each(|decoy| {
            push(decoy);
        });
        (system, names, at)
    }

    fn name_model(model: crate::DenseModel, names: &[VarName]) -> BTreeMap<VarName, i64> {
        let named = model.into_iter();
        named.map(|(v, n)| (names[v as usize].clone(), n)).collect()
    }

    /// `check_feasible` through the prepared API, probing by row index.
    fn check_prepared(system: &[LinearConstraint], decoys: &[LinearConstraint]) -> Feasibility {
        let rows: Vec<&LinearConstraint> = system.iter().collect();
        let (prepared, names, at) = prepare(&rows, decoys);
        assert_eq!(
            prepared.is_feasible(at.iter().copied()),
            prepared.check(at.iter().copied()).is_feasible()
        );
        let checked = prepared.check(at);
        checked.map_model(|model| name_model(model, &names))
    }

    /// `max_feasible_subset` through the prepared API.
    fn max_prepared(hard: &[LinearConstraint], soft: &[SoftGroup]) -> Option<MaxSmtResult> {
        let rows: Vec<&LinearConstraint> = hard.iter().chain(soft.iter().flatten()).collect();
        let (prepared, names, _) = prepare(&rows, &[]);
        let mut next = hard.len();
        let groups: Vec<std::ops::Range<usize>> = soft
            .iter()
            .map(|group| {
                let start = next;
                next += group.len();
                start..next
            })
            .collect();
        let bound = crate::maxsmt::MAX_LEMMAS;
        let res = crate::maxsmt::search_rows(&prepared, 0..hard.len(), &groups, bound)?;
        Some(res.map_model(|model| name_model(model, &names)))
    }

    /// `remove_redundant` as the protocol had it: every candidate checked
    /// against a fresh copy of the others, here with the reference kernel.
    fn remove_redundant(mut constraints: Vec<LinearConstraint>) -> Vec<LinearConstraint> {
        let mut i = 0;
        while i < constraints.len() && constraints.len() > 1 {
            let mut rest = constraints.clone();
            let candidate = rest.remove(i);
            let implied = crate::fm::negate_constraint(&candidate).iter().all(|d| {
                rest.push(d.clone());
                let refuted = !check_feasible(&rest).is_feasible();
                rest.pop();
                refuted
            });
            if implied {
                constraints.remove(i);
            } else {
                i += 1;
            }
        }
        constraints
    }

    #[test]
    fn dpll_matches_the_reference_on_seeded_formulas() {
        let mut rng = DetRng::seed_from(0xd9_11);
        let random_literal = |rng: &mut DetRng, vars: usize| Literal {
            var: rng.index(vars),
            positive: rng.chance(0.5),
        };
        let mut sat = 0usize;
        for case in 0..3_000 {
            let vars = 2 + rng.index(9);
            let mut cnf = Cnf::new(vars);
            for _ in 0..rng.index(16) {
                let len = 1 + rng.index(3);
                cnf.add_clause(Clause::new(
                    (0..len).map(|_| random_literal(&mut rng, vars)),
                ));
            }
            // Assumptions may repeat or contradict each other, and may name
            // a variable past the formula's.
            let assumptions: Vec<Literal> = (0..rng.index(5))
                .map(|_| random_literal(&mut rng, vars + 1))
                .collect();
            let expected = solve_with_assumptions(&cnf, &assumptions);
            let mut solver = crate::sat::DpllSolver::new();
            assert_eq!(
                solver.solve_with_assumptions(&cnf, &assumptions),
                expected,
                "case {case}: {cnf:?} under {assumptions:?}"
            );
            assert_eq!(
                solver.is_sat_with_assumptions(&cnf, &assumptions),
                expected.is_sat()
            );
            sat += usize::from(expected.is_sat());
        }
        assert!((600..2_400).contains(&sat), "{sat} of 3000 satisfiable");
    }

    #[test]
    fn fu_malik_matches_the_reference_on_seeded_hitting_sets() {
        use crate::maxsat::FuMalik;
        let mut rng = DetRng::seed_from(0xb17_3a5c);
        let units = |n: usize| -> Vec<Clause> {
            let softs = (0..n).map(|j| Clause::new([Literal::pos(j)]));
            softs.collect()
        };
        let mut engine = FuMalik::new();
        let (mut relaxed_twice, mut unsat_hard) = (0usize, 0usize);
        for case in 0..3_000 {
            let selectors = 2 + rng.index(23);
            let mut hard = Cnf::new(selectors);
            for _ in 0..2 + rng.index(if selectors <= 12 { 39 } else { 11 }) {
                let earlier = hard.clauses.len();
                let lemma = match rng.index(8) {
                    // A duplicate of an earlier lemma, or one nested in it.
                    0 if earlier > 0 => hard.clauses[rng.index(earlier)].clone(),
                    1 if earlier > 0 => {
                        let outer = &hard.clauses[rng.index(earlier)].literals;
                        let inner = outer.iter().filter(|_| rng.chance(0.6));
                        Clause::new(inner.copied().chain([outer[0]]))
                    }
                    _ => {
                        let len = 1 + rng.index(4.min(selectors));
                        Clause::new((0..len).map(|_| Literal::neg(rng.index(selectors))))
                    }
                };
                hard.add_clause(lemma);
            }
            if rng.chance(0.01) {
                hard.add_clause(Clause::empty());
            }
            let soft = units(selectors);
            let expected = fu_malik(&hard, &soft);
            let got = engine.solve(&hard, &soft);
            let rounds = got.is_some().then_some(engine.rounds);
            assert_eq!(got.zip(rounds), expected, "case {case}: {hard:?}");
            // On this shape only the solves whose model is read cost a run.
            assert_eq!(engine.dpll_runs, rounds.map_or(0, |rounds| rounds + 1));
            match rounds {
                Some(rounds) => relaxed_twice += usize::from(rounds >= 2),
                None => unsat_hard += 1,
            }
        }
        assert!(relaxed_twice >= 1_000, "only {relaxed_twice} deep cases");
        assert!(unsat_hard >= 5, "only {unsat_hard} unsatisfiable cases");

        // Sixty-five soft clauses do not fit the masks, and a soft clause
        // that is not its own unit breaks the shape: both take the DPLL path,
        // which pays a run per verdict, to the same result.
        let mut swapped = units(64);
        swapped.swap(3, 4);
        for (soft, shaped) in [(units(64), true), (units(65), false), (swapped, false)] {
            let mut chain = Cnf::new(soft.len());
            for j in 1..soft.len() {
                chain.add_clause(Clause::new([Literal::neg(j - 1), Literal::neg(j)]));
            }
            let (expected, rounds) = fu_malik(&chain, &soft).expect("the lemmas are satisfiable");
            assert_eq!(engine.solve(&chain, &soft), Some(expected));
            assert_eq!(engine.rounds, rounds);
            assert_eq!(rounds, 32);
            assert!(engine.sat_calls > 32 * soft.len());
            let every_verdict = engine.sat_calls - usize::from(!cfg!(debug_assertions)) * rounds;
            let runs = if shaped { rounds + 1 } else { every_verdict };
            assert_eq!(engine.dpll_runs, runs, "{} soft clauses", soft.len());
        }
    }

    #[test]
    fn check_feasible_matches_the_reference_on_seeded_systems() {
        let mut rng = DetRng::seed_from(0x5eed_f00d);
        let mut verdicts = [0usize; 3];
        let mut tally = |f: &Feasibility| {
            verdicts[match f {
                Feasibility::Infeasible => 0,
                Feasibility::Feasible(_) => 1,
                Feasibility::FeasibleRationalOnly => 2,
            }] += 1;
        };
        for case in 0..1_500 {
            let n = 2 + rng.index(7);
            // The reference multiplies its rows by `uppers` per variable.
            let uppers = 1 + rng.index(if n <= 4 { 5 } else { 2 });
            let system = treaty_system(&mut rng, n, uppers);
            let decoy_vars = 2 + rng.index(9);
            let decoys = treaty_system(&mut rng, decoy_vars, 1);
            let expected = check_feasible(&system);
            assert_eq!(
                crate::fm::check_feasible(&system),
                expected,
                "treaty case {case}: {system:?}"
            );
            assert_eq!(
                check_prepared(&system, &decoys),
                expected,
                "prepared treaty case {case}: {system:?}"
            );
            tally(&expected);
        }
        for case in 0..1_500 {
            let vars = 2 + rng.index(5);
            let rows = 2 + rng.index(7);
            let system = general_system(&mut rng, vars, rows);
            let decoy_rows = rng.index(4);
            let decoys = general_system(&mut rng, 7, decoy_rows);
            let expected = check_feasible(&system);
            assert_eq!(
                crate::fm::check_feasible(&system),
                expected,
                "general case {case}: {system:?}"
            );
            assert_eq!(crate::fm::is_feasible(&system), expected.is_feasible());
            assert_eq!(
                check_prepared(&system, &decoys),
                expected,
                "prepared general case {case}: {system:?}"
            );
            tally(&expected);
        }
        // The generators must reach every verdict, or the test proves little.
        assert!(verdicts.iter().all(|count| *count >= 20), "{verdicts:?}");
    }

    #[test]
    fn max_feasible_subset_matches_the_reference_on_seeded_systems() {
        let mut rng = DetRng::seed_from(0xfeed_beef);
        let (mut with_lemmas, mut unsat_hard) = (0usize, 0usize);
        for case in 0..400 {
            // Treaty-shaped: H1 coupling + H2 box hard, one box per sampled
            // state soft. The reference pays (groups + 1)^n rows per probe.
            let n = 2 + rng.index(3);
            let groups = 1 + rng.index(if n == 4 { 4 } else { 7 });
            let mut hard = treaty_system(&mut rng, n, 1);
            if rng.chance(0.15) {
                // An equality in the hard system (a frozen clause).
                hard.push(LinearConstraint::eq(
                    config_var(rng.index(n)).plus(&LinExpr::var("frozen")),
                    LinExpr::constant(rng.int_inclusive(0, 30)),
                ));
            }
            let soft: Vec<SoftGroup> = (0..groups)
                .map(|_| {
                    (0..n)
                        .map(|k| {
                            let bound = LinExpr::constant(rng.int_inclusive(0, 40));
                            if rng.chance(0.1) {
                                LinearConstraint::eq(config_var(k), bound)
                            } else {
                                LinearConstraint::le(config_var(k), bound)
                            }
                        })
                        .collect()
                })
                .collect();
            let expected = max_feasible_subset(&hard, &soft);
            assert_eq!(
                crate::maxsmt::max_feasible_subset(&hard, &soft),
                expected,
                "treaty case {case}: hard {hard:?} soft {soft:?}"
            );
            assert_eq!(
                max_prepared(&hard, &soft),
                expected,
                "prepared treaty case {case}: hard {hard:?} soft {soft:?}"
            );
            match &expected {
                Some(res) if res.lemmas > 0 => with_lemmas += 1,
                None => unsat_hard += 1,
                _ => {}
            }
        }
        for case in 0..400 {
            let vars = 2 + rng.index(3);
            let hard_rows = rng.index(3);
            let hard = general_system(&mut rng, vars, hard_rows);
            let soft: Vec<SoftGroup> = (0..1 + rng.index(6))
                .map(|_| {
                    let rows = 1 + rng.index(2);
                    general_system(&mut rng, vars, rows)
                })
                .collect();
            let expected = max_feasible_subset(&hard, &soft);
            assert_eq!(
                crate::maxsmt::max_feasible_subset(&hard, &soft),
                expected,
                "general case {case}: hard {hard:?} soft {soft:?}"
            );
            assert_eq!(
                max_prepared(&hard, &soft),
                expected,
                "prepared general case {case}: hard {hard:?} soft {soft:?}"
            );
            match &expected {
                Some(res) if res.lemmas > 0 => with_lemmas += 1,
                None => unsat_hard += 1,
                _ => {}
            }
        }
        assert!(
            with_lemmas >= 150,
            "only {with_lemmas} cases learned a lemma"
        );
        assert!(unsat_hard >= 5, "only {unsat_hard} infeasible hard systems");
    }

    #[test]
    fn implication_and_redundancy_match_the_reference_on_seeded_systems() {
        let mut rng = DetRng::seed_from(0x01e5_50b5);
        let (mut implied, mut dropped) = (0usize, 0usize);
        for case in 0..1_000 {
            let vars = 2 + rng.index(3);
            let rows = 2 + rng.index(5);
            let mut system = general_system(&mut rng, vars, rows);
            if rng.chance(0.5) {
                // A weaker copy of a row, which the row implies.
                let mut weaker = system[rng.index(system.len())].clone();
                weaker.expr.add_constant(-rng.int_inclusive(0, 3));
                system.insert(rng.index(system.len() + 1), weaker);
            }
            let (antecedent, consequent) = system.split_at(system.len() / 2);
            let expected = consequent.iter().all(|c| {
                crate::fm::negate_constraint(c).iter().all(|d| {
                    let mut with = antecedent.to_vec();
                    with.push(d.clone());
                    !check_feasible(&with).is_feasible()
                })
            });
            assert_eq!(
                crate::fm::implies(antecedent, consequent),
                expected,
                "case {case}: {antecedent:?} => {consequent:?}"
            );
            implied += usize::from(expected);
            let kept = remove_redundant(system.clone());
            assert_eq!(
                crate::fm::remove_redundant(system.clone()),
                kept,
                "case {case}: {system:?}"
            );
            dropped += usize::from(kept.len() < system.len());
        }
        assert!((50..950).contains(&implied), "{implied} implications hold");
        assert!((200..1_000).contains(&dropped), "{dropped} systems shrank");
    }
}
