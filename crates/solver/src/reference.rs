//! The solver kernel as it was before dominance pruning and dense rows,
//! kept verbatim as the oracle of the differential tests: Fourier–Motzkin
//! elimination over string-keyed rows that keeps every dominated row, and a
//! MaxSMT loop that asks the reference Fu-Malik ([`crate::maxsat`], on the
//! clause-cloning DPLL of [`crate::sat`]) for each selection from scratch and
//! re-solves the hard system per lemma. The production [`crate::fm`] must
//! return the same [`Feasibility`] (variant *and* model) on every input,
//! through the string front door and through the prepared, index-probed API
//! alike. The production [`crate::maxsmt`] must reach the same optimal cost
//! and the same `gave_up`; its selection is a specified one — the
//! lexicographically first maximum feasible set — which the tests find by
//! enumerating subsets with this module's `check_feasible`, where Fu-Malik's
//! is whichever its DPLL models land on.

use std::collections::{BTreeMap, BTreeSet};

use crate::fm::Feasibility;
use crate::linear::{CmpKind, LinearConstraint, VarName};
use crate::maxsat::fu_malik;
use crate::maxsmt::{MaxSmtResult, SoftGroup};
use crate::rational::Rational;
use crate::sat::{Clause, Cnf, Literal};

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
        let res =
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

    /// The lexicographically first maximum-cardinality subset of `soft`
    /// jointly feasible with `hard` (which must be feasible), by asking this
    /// module's `check_feasible` about every subset.
    fn first_maximum_feasible(hard: &[LinearConstraint], soft: &[SoftGroup]) -> Vec<usize> {
        let subsets = (0u32..1 << soft.len()).map(|mask| {
            let chosen = (0..soft.len()).filter(|&j| mask >> j & 1 == 1);
            chosen.collect::<Vec<usize>>()
        });
        let feasible = subsets.filter(|chosen| {
            let rows = chosen.iter().flat_map(|&j| soft[j].iter().cloned());
            check_feasible(&hard.iter().cloned().chain(rows).collect::<Vec<_>>()).is_feasible()
        });
        let larger_then_first =
            |a: &Vec<usize>, b: &Vec<usize>| b.len().cmp(&a.len()).then(a.cmp(b));
        feasible
            .min_by(larger_then_first)
            .expect("the hard rows are feasible")
    }

    /// The production loop against the specification and the reference loop:
    /// the same optimal cost, the lexicographically first maximum feasible
    /// subset, the reference kernel's model of exactly that subset, the same
    /// answer through the prepared API. Returns whether the reference loop's
    /// (Fu-Malik's) selection was a different optimum and the lemma count.
    fn check_max_feasible(
        hard: &[LinearConstraint],
        soft: &[SoftGroup],
        case: &str,
    ) -> Option<(bool, usize)> {
        let expected = max_feasible_subset(hard, soft);
        let got = crate::maxsmt::max_feasible_subset(hard, soft);
        assert_eq!(max_prepared(hard, soft), got, "prepared {case}");
        let (Some(expected), Some(got)) = (expected, got.clone()) else {
            assert_eq!(got, None, "{case}: the hard rows are infeasible");
            return None;
        };
        assert_eq!(
            (got.cost, got.gave_up),
            (expected.cost, expected.gave_up),
            "{case}"
        );
        assert_eq!(got.selected, first_maximum_feasible(hard, soft), "{case}");
        let rows = got.selected.iter().flat_map(|&j| soft[j].iter().cloned());
        let model = match check_feasible(&hard.iter().cloned().chain(rows).collect::<Vec<_>>()) {
            Feasibility::Feasible(model) => Some(model),
            _ => None,
        };
        assert_eq!(got.model, model, "{case}");
        Some((expected.selected != got.selected, got.lemmas))
    }

    #[test]
    fn max_feasible_subset_matches_the_reference_on_seeded_systems() {
        let mut rng = DetRng::seed_from(0xfeed_beef);
        let (mut with_lemmas, mut unsat_hard, mut other_optimum) = (0usize, 0usize, 0usize);
        let mut tally = |outcome: Option<(bool, usize)>| match outcome {
            Some((other, lemmas)) => {
                other_optimum += usize::from(other);
                with_lemmas += usize::from(lemmas > 0);
            }
            None => unsat_hard += 1,
        };
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
            let case = format!("treaty case {case}: hard {hard:?} soft {soft:?}");
            tally(check_max_feasible(&hard, &soft, &case));
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
            let case = format!("general case {case}: hard {hard:?} soft {soft:?}");
            tally(check_max_feasible(&hard, &soft, &case));
        }
        assert!(
            with_lemmas >= 150,
            "only {with_lemmas} cases learned a lemma"
        );
        assert!(unsat_hard >= 5, "only {unsat_hard} infeasible hard systems");
        // The specification decides ties Fu-Malik left to its DPLL models.
        assert!(
            other_optimum >= 10,
            "only {other_optimum} cases broke a tie differently"
        );
    }

    #[test]
    fn wide_lemma_sets_cost_what_the_reference_fu_malik_says() {
        // 65 to 200 groups: masks of two to four words. The optimum is a
        // minimum hitting set of the lemmas, whose size the reference
        // Fu-Malik reaches one relaxation round at a time.
        let mut rng = DetRng::seed_from(0x51de_0b17);
        for case in 0..12 {
            let n = 65 + rng.index(136);
            let mut lemmas: Vec<Vec<usize>> = Vec::new();
            for _ in 0..4 + rng.index(12) {
                let lemma = match rng.index(4) {
                    0 if !lemmas.is_empty() => lemmas[rng.index(lemmas.len())].clone(),
                    1 => vec![rng.index(n)],
                    _ => (0..2 + rng.index(3)).map(|_| rng.index(n)).collect(),
                };
                lemmas.push(lemma);
            }
            let mut engine = crate::maxsmt::Lemmas::new(n);
            let mut hard = Cnf::new(n);
            for lemma in &lemmas {
                engine.add(lemma);
                hard.add_clause(Clause::new(lemma.iter().map(|&j| Literal::neg(j))));
            }
            let selected = engine.optimum();
            let soft: Vec<Clause> = (0..n).map(|j| Clause::new([Literal::pos(j)])).collect();
            let expected = fu_malik(&hard, &soft).expect("non-empty lemmas are satisfiable");
            assert_eq!(n - selected.len(), expected.cost, "case {case}: {lemmas:?}");
            let chosen = |j: &usize| selected.binary_search(j).is_ok();
            for lemma in &lemmas {
                assert!(!lemma.iter().all(chosen), "case {case}: {lemma:?} selected");
            }
        }
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
