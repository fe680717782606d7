//! Lazy MaxSMT over linear integer arithmetic.
//!
//! Algorithm 1 in the paper asks for "the largest satisfiable subset of
//! constraints that includes all the hard constraints" together with a model.
//! The soft constraints produced by sampled future executions are
//! *conjunctions* of linear constraints (one conjunction per simulated
//! database state), and the hard constraint is the treaty-template validity
//! condition — also a conjunction of linear constraints.
//!
//! The search is an implicit hitting-set loop over the soft groups:
//!
//! 1. a *lemma* is a set of groups the theory has shown jointly infeasible
//!    with the hard constraints; none is known at first;
//! 2. the hitting-set engine (`Lemmas`) proposes the lexicographically
//!    first maximum-cardinality set of groups that contains no lemma;
//! 3. the theory checks the proposal with the hard constraints;
//! 4. if it is feasible, it is the answer; otherwise a deletion scan shrinks
//!    it to a minimal infeasible subset, which becomes the next lemma, and
//!    the loop repeats.
//!
//! # What the answer is
//!
//! A lemma excludes only infeasible sets, and a superset of an infeasible set
//! is infeasible. So every feasible set is lemma-free, and a feasible proposal
//! — the first maximum-cardinality lemma-free set — is the lexicographically
//! first maximum-cardinality *feasible* set: of all the largest sets of groups
//! the hard constraints admit together, the one that keeps the lowest indices
//! (the smallest as a sorted index list). That holds whatever the lemmas were
//! and in whatever order they were learned, so the selection is a function of
//! the instance alone; the lemma loop decides only how fast it is found.
//!
//! # The engine
//!
//! `Lemmas` keeps each lemma as a multi-word bitmask over the groups and
//! answers with an include-first depth-first search in index order, under a
//! budget of excluded groups that deepens one at a time. The first set the
//! search reaches within budget `k`, when none exists within `k − 1`, is the
//! lexicographically first of cost `k`. Lemmas only ever arrive, so the
//! optimum's cost never falls and each search starts at the previous cost
//! instead of at zero — and, while the cost holds, at the previous optimum:
//! every set the search passed before it contained a lemma, and still does.
//! A node is pruned when the still-open lemmas (none of whose groups is
//! excluded yet) contain more pairwise disjoint undecided parts than the
//! budget has exclusions left, since each needs one of its own. Nothing is
//! allocated per node, and any number of groups fits.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::dense::DenseModel;
use crate::fm::{named_model, Feasibility, Prepared};
use crate::linear::{LinearConstraint, VarName};

/// A soft group: a conjunction of linear constraints that should ideally hold
/// together (e.g. "no treaty violation in sampled future database Dⱼ").
pub type SoftGroup = Vec<LinearConstraint>;

/// The result of a MaxSMT call. The string front door reports the model
/// keyed by variable name; a caller of [`search`] chooses its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxSmtResult<M = BTreeMap<VarName, i64>> {
    /// Indices, ascending, of the soft groups that are jointly satisfiable
    /// with the hard constraints: the lexicographically first
    /// maximum-cardinality such set — among the largest feasible sets, the
    /// one that keeps the lowest indices (module docs).
    pub selected: Vec<usize>,
    /// An integer model satisfying the hard constraints and every selected
    /// group, when one could be extracted.
    pub model: Option<M>,
    /// Number of soft groups left unsatisfied (`soft.len() - selected.len()`).
    pub cost: usize,
    /// Number of theory lemmas (minimal infeasible sets of groups) learned.
    pub lemmas: usize,
    /// True when the search hit its lemma bound and gave up: `selected` is
    /// then empty (the hard constraints alone), not a maximum.
    pub gave_up: bool,
}

impl<M> MaxSmtResult<M> {
    /// The same result with its model respelled (dense ids to names, say).
    pub fn map_model<N>(self, respell: impl FnOnce(M) -> N) -> MaxSmtResult<N> {
        MaxSmtResult {
            selected: self.selected,
            model: self.model.map(respell),
            cost: self.cost,
            lemmas: self.lemmas,
            gave_up: self.gave_up,
        }
    }
}

/// Safety bound on the lemma loop: each iteration learns a new lemma, so 2^n
/// is a hard ceiling; in practice a handful suffice.
pub(crate) const MAX_LEMMAS: usize = 10_000;

/// Computes a maximum-cardinality subset of `soft_groups` that is jointly
/// feasible with `hard`, together with an integer model.
///
/// Returns `None` when the hard constraints alone are infeasible.
pub fn max_feasible_subset(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
) -> Option<MaxSmtResult> {
    search_named(hard, soft_groups, MAX_LEMMAS)
}

/// The string front door: interns the names, lays the constraints out as
/// one prepared system (hard rows first, then each group's rows) and names
/// the model on the way out.
fn search_named(
    hard: &[LinearConstraint],
    soft_groups: &[SoftGroup],
    max_lemmas: usize,
) -> Option<MaxSmtResult> {
    let (system, table) = Prepared::of(hard.iter().chain(soft_groups.iter().flatten()));
    let mut next = hard.len();
    let groups: Vec<Range<usize>> = soft_groups
        .iter()
        .map(|group| {
            let start = next;
            next += group.len();
            start..next
        })
        .collect();
    let res = search_rows(&system, 0..hard.len(), &groups, max_lemmas)?;
    Some(res.map_model(|model| named_model(model, &table)))
}

/// The rows of one probe: the hard rows, then each chosen group's.
fn conjoin<'a>(
    hard: &Range<usize>,
    groups: &'a [Range<usize>],
    indices: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    let soft = indices.iter().flat_map(|&j| groups[j].clone());
    hard.clone().chain(soft)
}

/// The lemma loop over a prepared system: `hard` and each of `groups` are
/// row ranges of `system`. Every probe conjoins rows by index; nothing is
/// converted twice.
pub(crate) fn search_rows(
    system: &Prepared,
    hard: Range<usize>,
    groups: &[Range<usize>],
    max_lemmas: usize,
) -> Option<MaxSmtResult<DenseModel>> {
    search_bounded(
        groups.len(),
        max_lemmas,
        |indices| system.check(conjoin(&hard, groups, indices)),
        |indices| system.is_feasible(conjoin(&hard, groups, indices)),
    )
}

/// The lemma loop over `n` soft groups with the caller's theory: `check`
/// decides the hard constraints with the given groups (none: the hard
/// constraints alone) and extracts a model — or reports
/// [`Feasibility::FeasibleRationalOnly`] when it keeps none — and
/// `is_feasible` decides the same without one. Both must agree, and a set
/// that contains an infeasible set must be infeasible; the selection is then
/// the one the module docs specify.
pub fn search<M>(
    n: usize,
    check: impl Fn(&[usize]) -> Feasibility<M>,
    is_feasible: impl Fn(&[usize]) -> bool,
) -> Option<MaxSmtResult<M>> {
    search_bounded(n, MAX_LEMMAS, check, is_feasible)
}

/// [`search`], giving up after `max_lemmas`.
fn search_bounded<M>(
    n: usize,
    max_lemmas: usize,
    check: impl Fn(&[usize]) -> Feasibility<M>,
    is_feasible: impl Fn(&[usize]) -> bool,
) -> Option<MaxSmtResult<M>> {
    // The hard system on its own is solved once: it decides `None`, and its
    // model is the answer should the lemma bound be hit.
    let hard_only = match check(&[]) {
        Feasibility::Infeasible => return None,
        Feasibility::Feasible(model) => Some(model),
        Feasibility::FeasibleRationalOnly => None,
    };
    let mut lemmas = Lemmas::new(n);
    for learned in 0..max_lemmas {
        let selected = lemmas.optimum();
        match check(&selected) {
            Feasibility::Infeasible => {
                // Shrink to a minimal infeasible subset of the selected
                // groups (deletion-based): the next lemma.
                lemmas.add(&deletion_core(&selected, |subset| !is_feasible(subset)));
            }
            feasible => {
                return Some(MaxSmtResult {
                    cost: n - selected.len(),
                    selected,
                    model: match feasible {
                        Feasibility::Feasible(model) => Some(model),
                        _ => None,
                    },
                    lemmas: learned,
                    gave_up: false,
                });
            }
        }
    }
    // Fall back to the hard-only solution if the lemma bound is ever hit.
    Some(MaxSmtResult {
        selected: Vec::new(),
        model: hard_only,
        cost: n,
        lemmas: max_lemmas,
        gave_up: true,
    })
}

/// The deletion-based minimal unsatisfiable subset of `items`: walking the
/// items in order, each is dropped when the rest (the items kept so far plus
/// those not yet visited) is still unsatisfiable, and kept otherwise.
///
/// One test per item, on purpose: nearly every test is of an unsatisfiable
/// set, which a theory refutes cheaply, while a bisecting variant spends half
/// its tests on satisfiable sets.
///
/// Precondition: `unsat(items)` (checked by debug assertion).
pub(crate) fn deletion_core<T: Copy>(items: &[T], mut unsat: impl FnMut(&[T]) -> bool) -> Vec<T> {
    debug_assert!(unsat(items));
    let mut core: Vec<T> = items.to_vec();
    let mut i = 0;
    while i < core.len() {
        let dropped = core.remove(i);
        if !unsat(&core) {
            // This item is necessary for unsatisfiability; keep it.
            core.insert(i, dropped);
            i += 1;
        }
    }
    core
}

/// The hitting-set engine (module docs): the lemmas learned over `n` groups
/// and the optimum they leave.
#[derive(Debug)]
pub(crate) struct Lemmas {
    n: usize,
    /// 64-bit words per mask.
    words: usize,
    /// Lemma `l` is `masks[l * words..][..words]`.
    masks: Vec<u64>,
    /// The optimum's cost under the lemmas so far, a lower bound on it under
    /// any more.
    cost: usize,
    /// The search's excluded groups, all below its current index.
    excluded: Vec<u64>,
    /// The last optimum's excluded groups, when it was found at `cost`.
    last: Option<Vec<u64>>,
    /// Scratch for one node: the undecided groups of the packed lemmas.
    packed: Vec<u64>,
}

impl Lemmas {
    /// No lemmas over `n` groups.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Lemmas {
            n,
            words,
            masks: Vec::new(),
            cost: 0,
            excluded: vec![0; words],
            last: None,
            packed: vec![0; words],
        }
    }

    /// Learns that the groups of `lemma` (indices below `n`, not empty) are
    /// never all selected together.
    pub(crate) fn add(&mut self, lemma: &[usize]) {
        assert!(!lemma.is_empty(), "an empty lemma leaves no selection");
        let at = self.masks.len();
        self.masks.resize(at + self.words, 0);
        for &j in lemma {
            debug_assert!(j < self.n);
            self.masks[at + j / 64] |= 1 << (j % 64);
        }
    }

    /// The lexicographically first maximum-cardinality set of groups that
    /// contains no lemma, ascending.
    pub(crate) fn optimum(&mut self) -> Vec<usize> {
        loop {
            self.excluded.fill(0);
            let resume = self.last.is_some();
            if self.descend(0, self.cost, resume) {
                break;
            }
            self.cost += 1;
            self.last = None;
        }
        self.last = Some(self.excluded.clone());
        let excluded = |j: usize| self.excluded[j / 64] >> (j % 64) & 1 == 1;
        (0..self.n).filter(|&j| !excluded(j)).collect()
    }

    /// Whether the groups from `from` on can be decided, excluding at most
    /// `budget` of them, so that no lemma is wholly selected — the first
    /// such way in include-first order is left in `excluded`. Every group
    /// below `from` is decided; an open lemma (none of its groups excluded)
    /// therefore has all of those selected and needs one of its undecided
    /// groups excluded.
    ///
    /// With `resume`, every decision so far is the last optimum's, and the
    /// search skips the sets it passed on the way to it: they contained a
    /// lemma then, so they still do.
    fn descend(&mut self, from: usize, budget: usize, resume: bool) -> bool {
        if from == self.n {
            // Selecting a group never completes a lemma, so none is open.
            return true;
        }
        let first_word = from / 64;
        self.packed[first_word..].fill(0);
        // Disjoint open lemmas, the lowest undecided group of any open lemma,
        // and the lowest that is some open lemma's last undecided group.
        let (mut packing, mut next, mut forced) = (0, usize::MAX, usize::MAX);
        for lemma in self.masks.chunks_exact(self.words) {
            let mut hit = lemma.iter().zip(&self.excluded[..=first_word]);
            if hit.any(|(l, e)| l & e != 0) {
                continue;
            }
            let (mut lowest, mut size, mut disjoint) = (usize::MAX, 0, true);
            let words = undecided(lemma, from).zip(&self.packed[first_word..]);
            for (w, (rest, packed)) in (first_word..).zip(words) {
                if rest != 0 && lowest == usize::MAX {
                    lowest = w * 64 + rest.trailing_zeros() as usize;
                }
                size += rest.count_ones();
                disjoint &= rest & packed == 0;
            }
            debug_assert!(size > 0, "a lemma was wholly selected");
            next = next.min(lowest);
            if size == 1 {
                forced = forced.min(lowest);
            }
            if disjoint {
                packing += 1;
                let packed = self.packed[first_word..].iter_mut();
                packed
                    .zip(undecided(lemma, from))
                    .for_each(|(packed, rest)| *packed |= rest);
            }
        }
        let last = self.last.as_deref().filter(|_| resume);
        let last_excludes = |j: usize| last.is_some_and(|last| last[j / 64] >> (j % 64) & 1 == 1);
        if packing == 0 {
            // No lemma is open: select every remaining group.
            debug_assert!((from..self.n).all(|j| !last_excludes(j)));
            return true;
        }
        if packing > budget {
            return false;
        }
        // The groups below `next` are in no open lemma: select them (the last
        // optimum did too, or selecting them all would have come first).
        // Then `next` itself, unless that completes a lemma or comes before
        // the last optimum; else exclude it.
        debug_assert!((from..next).all(|j| !last_excludes(j)));
        let last_excluded = last_excludes(next);
        if !last_excluded && forced != next && self.descend(next + 1, budget, resume) {
            return true;
        }
        let (word, bit) = (next / 64, 1 << (next % 64));
        self.excluded[word] |= bit;
        if self.descend(next + 1, budget - 1, last_excluded) {
            return true;
        }
        self.excluded[word] &= !bit;
        false
    }
}

/// The groups of `lemma` from `from` on, as its words from `from / 64` on.
fn undecided(lemma: &[u64], from: usize) -> impl Iterator<Item = u64> + '_ {
    let below = u64::MAX << (from % 64);
    let words = lemma[from / 64..].iter().enumerate();
    words.map(move |(i, &word)| if i == 0 { word & below } else { word })
}

#[cfg(test)]
mod tests {
    use homeo_sim::DetRng;

    use super::*;
    use crate::linear::LinExpr;

    fn var(v: &str) -> LinExpr {
        LinExpr::var(v)
    }

    fn num(n: i64) -> LinExpr {
        LinExpr::constant(n)
    }

    #[test]
    fn all_groups_compatible() {
        let hard = vec![LinearConstraint::ge(var("c"), num(0))];
        let soft = vec![
            vec![LinearConstraint::ge(var("c"), num(3))],
            vec![LinearConstraint::ge(var("c"), num(5))],
        ];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.selected, vec![0, 1]);
        assert_eq!(res.cost, 0);
        let m = res.model.unwrap();
        assert!(m["c"] >= 5);
    }

    #[test]
    fn incompatible_groups_drop_the_minority() {
        // Hard: 0 <= c <= 10. Groups: {c >= 8}, {c >= 7}, {c <= 2}.
        // Best: keep the two lower-bound groups, drop the upper bound.
        let hard = vec![
            LinearConstraint::ge(var("c"), num(0)),
            LinearConstraint::le(var("c"), num(10)),
        ];
        let soft = vec![
            vec![LinearConstraint::ge(var("c"), num(8))],
            vec![LinearConstraint::ge(var("c"), num(7))],
            vec![LinearConstraint::le(var("c"), num(2))],
        ];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.selected, vec![0, 1]);
        let m = res.model.unwrap();
        assert!(m["c"] >= 8 && m["c"] <= 10);
        assert!(res.lemmas >= 1);
    }

    #[test]
    fn infeasible_hard_constraints_return_none() {
        let hard = vec![
            LinearConstraint::ge(var("c"), num(1)),
            LinearConstraint::le(var("c"), num(0)),
        ];
        assert!(max_feasible_subset(&hard, &[]).is_none());
    }

    #[test]
    fn paper_appendix_c_example() {
        // Templates: ϕΓ1 : x + cy ≥ 20, ϕΓ2 : cx + y ≥ 20, with D = (10, 13).
        // Validity (H1) reduces to cx + cy ≤ 20; the sampled futures yield the
        // soft groups {cy ≥ 12, cx ≥ 8}, {cy ≥ 13, cx ≥ 7}, {cy ≥ 12, cx ≥ 8}.
        // The optimizer should satisfy groups 0 and 2 (cost 1), e.g. with
        // cy = 12, cx = 8 — exactly the configuration the paper reports.
        let hard = vec![LinearConstraint::le(var("cx").plus(&var("cy")), num(20))];
        let g = |cy: i64, cx: i64| {
            vec![
                LinearConstraint::ge(var("cy"), num(cy)),
                LinearConstraint::ge(var("cx"), num(cx)),
            ]
        };
        let soft = vec![g(12, 8), g(13, 7), g(12, 8)];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.selected, vec![0, 2]);
        let m = res.model.unwrap();
        assert!(m["cy"] >= 12 && m["cx"] >= 8 && m["cx"] + m["cy"] <= 20);
    }

    #[test]
    fn groups_spanning_multiple_variables() {
        // Hard: a + b <= 10. Groups pull a and b in different directions.
        let hard = vec![LinearConstraint::le(var("a").plus(&var("b")), num(10))];
        let soft = vec![
            vec![
                LinearConstraint::ge(var("a"), num(6)),
                LinearConstraint::ge(var("b"), num(6)),
            ], // infeasible with hard
            vec![LinearConstraint::ge(var("a"), num(4))],
            vec![LinearConstraint::ge(var("b"), num(5))],
        ];
        let res = max_feasible_subset(&hard, &soft).unwrap();
        assert_eq!(res.cost, 1);
        assert_eq!(res.selected, vec![1, 2]);
        let m = res.model.unwrap();
        assert!(m["a"] >= 4 && m["b"] >= 5 && m["a"] + m["b"] <= 10);
    }

    #[test]
    fn hitting_the_lemma_bound_is_reported() {
        // Two groups that exclude each other need one lemma; with a bound
        // of one the search stops before it can use it.
        let hard = vec![
            LinearConstraint::ge(var("c"), num(0)),
            LinearConstraint::le(var("c"), num(10)),
        ];
        let soft = vec![
            vec![LinearConstraint::ge(var("c"), num(8))],
            vec![LinearConstraint::le(var("c"), num(2))],
        ];
        let stopped = search_named(&hard, &soft, 1).unwrap();
        assert!(stopped.gave_up);
        assert!(stopped.selected.is_empty());
        assert_eq!((stopped.cost, stopped.lemmas), (2, 1));
        let m = stopped.model.expect("the hard constraints have a model");
        assert!((0..=10).contains(&m["c"]));

        let finished = max_feasible_subset(&hard, &soft).unwrap();
        assert!(!finished.gave_up);
        assert_eq!((finished.cost, finished.lemmas), (1, 1));
    }

    #[test]
    fn empty_soft_set_is_trivially_optimal() {
        let hard = vec![LinearConstraint::ge(var("z"), num(0))];
        let res = max_feasible_subset(&hard, &[]).unwrap();
        assert!(res.selected.is_empty());
        assert_eq!(res.cost, 0);
        assert!(res.model.is_some());
    }

    /// A seeded lemma over `n` groups: usually one to four random groups,
    /// sometimes a copy of an earlier lemma or a subset of one (nested), or a
    /// single group.
    fn seeded_lemma(rng: &mut DetRng, n: usize, earlier: &[Vec<usize>]) -> Vec<usize> {
        match rng.index(8) {
            0 if !earlier.is_empty() => earlier[rng.index(earlier.len())].clone(),
            1 if !earlier.is_empty() => {
                let outer = &earlier[rng.index(earlier.len())];
                let inner = outer[1..].iter().filter(|_| rng.chance(0.6));
                inner.copied().chain([outer[0]]).collect()
            }
            2 => vec![rng.index(n)],
            _ => (0..1 + rng.index(4.min(n))).map(|_| rng.index(n)).collect(),
        }
    }

    /// The lexicographically first maximum-cardinality subset of `0..n`
    /// (`n ≤ 20`) that contains no lemma, by enumeration — the sets that
    /// exclude `k` groups for `k` from zero up, the smallest as an index list
    /// of the first `k` that has any — and how many sets that `k` has.
    fn first_lemma_free(n: usize, lemmas: &[Vec<usize>]) -> (Vec<usize>, usize) {
        let masks: Vec<u32> = lemmas
            .iter()
            .map(|lemma| lemma.iter().fold(0, |mask, &j| mask | 1 << j))
            .collect();
        let all = (1u32 << n) - 1;
        for k in 0..=n as u32 {
            // Every `k`-subset of the groups as a mask, ascending (Gosper).
            let mut excluded = (1u32 << k) - 1;
            let mut found: Vec<Vec<usize>> = Vec::new();
            while excluded <= all {
                let selected = all & !excluded;
                if masks.iter().all(|&lemma| selected & lemma != lemma) {
                    found.push((0..n).filter(|&j| selected >> j & 1 == 1).collect());
                }
                if excluded == 0 {
                    break;
                }
                let low = excluded & excluded.wrapping_neg();
                let ripple = excluded + low;
                excluded = (((ripple ^ excluded) >> 2) / low) | ripple;
            }
            if let Some(first) = found.iter().min() {
                return (first.clone(), found.len());
            }
        }
        unreachable!("the empty set contains no (non-empty) lemma")
    }

    fn engine_with(n: usize, lemmas: &[Vec<usize>]) -> Lemmas {
        let mut engine = Lemmas::new(n);
        lemmas.iter().for_each(|lemma| engine.add(lemma));
        engine
    }

    #[test]
    fn the_engine_selects_the_first_maximum_lemma_free_set() {
        let mut rng = DetRng::seed_from(0x1e33_a5e7);
        let (mut deep, mut ties) = (0usize, 0usize);
        for case in 0..5_000 {
            let n = 2 + rng.index(19);
            let mut lemmas: Vec<Vec<usize>> = Vec::new();
            for _ in 0..1 + rng.index(if n <= 10 { 3 * n } else { 24 }) {
                let lemma = seeded_lemma(&mut rng, n, &lemmas);
                lemmas.push(lemma);
            }
            let (expected, optima) = first_lemma_free(n, &lemmas);
            let optimum = engine_with(n, &lemmas).optimum();
            assert_eq!(optimum, expected, "case {case}: {n} groups, {lemmas:?}");
            deep += usize::from(n - expected.len() >= 4);
            ties += usize::from(optima > 1);
            // Learning the lemmas one at a time (as the lemma loop does,
            // resuming at the last cost) finds what a fresh engine does.
            let mut incremental = Lemmas::new(n);
            for (at, lemma) in lemmas.iter().enumerate() {
                incremental.add(lemma);
                let fresh = engine_with(n, &lemmas[..=at]).optimum();
                assert_eq!(incremental.optimum(), fresh, "case {case}, lemma {at}");
            }
        }
        assert!(
            deep >= 2_000,
            "only {deep} cases excluded four groups or more"
        );
        assert!(ties >= 2_000, "only {ties} cases had a tie to break");
    }

    #[test]
    fn masks_span_words_past_sixty_four_groups() {
        // A chain 0–1, 1–2, …: the optimum drops every other group, from the
        // second on, across word boundaries.
        for n in [63, 64, 65, 128, 129, 200] {
            let chain: Vec<Vec<usize>> = (1..n).map(|j| vec![j - 1, j]).collect();
            let optimum = engine_with(n, &chain).optimum();
            assert_eq!(optimum, (0..n).step_by(2).collect::<Vec<_>>(), "{n} groups");
        }
        // One lemma per word boundary, and one across all of them.
        let mut engine = Lemmas::new(130);
        engine.add(&[63, 64]);
        engine.add(&[127, 128]);
        assert_eq!(engine.optimum().len(), 128);
        engine.add(&[0, 65, 129]);
        let optimum = engine.optimum();
        assert_eq!(optimum.len(), 127);
        assert!(!optimum.contains(&64) && !optimum.contains(&128) && !optimum.contains(&129));
    }
}
