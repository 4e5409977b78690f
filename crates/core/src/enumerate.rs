//! Iterative rule enumeration via decision-tree learning (§3.3.2).
//!
//! Candidate rules are produced by repeatedly fitting small decision trees
//! that predict the hypothesised label `f̂ᵢ` from the predicate outputs and
//! reading each tree back as a DNF rule. Three concerns shape the loop:
//!
//! * **variety** — the root feature is removed from the candidate set after
//!   each iteration, so successive trees explore different predicates;
//! * **simplicity** — trees are grown under a node budget λₙ (10);
//! * **noise** — trees must be perfect on the user-provided examples
//!   (hard constraints) while the noisy clustered labels only gate
//!   continuation through an accuracy threshold λₐ (0.8). Labeled cells are
//!   weighted twice as heavily as unlabeled ones.
//!
//! The loop itself is inherently sequential — each iteration's candidate
//! set depends on the previous root removal. Its cost lives one layer
//! down, in `DecisionTree::fit`: the weights below are small integers, so
//! every split's class sums come from popcounts over the node's weight
//! groups rather than a walk over its samples, with the same bits. That
//! path runs on the calling thread, so enumeration output is the same at
//! every thread count (`parallel_differential` pins this).

use crate::cluster::ClusterOutcome;
use crate::predgen::PredicateSet;
use crate::rule::{Conjunct, Rule, RuleLiteral};
use cornet_dtree::{DecisionTree, FeatureMatrix, TreeConfig};
use cornet_table::BitVec;
use std::collections::HashSet;

/// Enumeration hyper-parameters (paper defaults in parentheses).
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// λₙ — decision-node budget per tree (10).
    pub lambda_nodes: usize,
    /// λₐ — minimum weighted accuracy on clustered labels to keep
    /// enumerating (0.8).
    pub lambda_acc: f64,
    /// Upper bound on candidate rules returned.
    pub max_rules: usize,
    /// Maximum tree depth (paper's baselines use 3; Cornet's trees are
    /// bounded by λₙ anyway — this is a safety net).
    pub max_depth: usize,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            lambda_nodes: 10,
            lambda_acc: 0.8,
            max_rules: 64,
            max_depth: 6,
        }
    }
}

/// A candidate rule with its enumeration statistics, consumed by ranking.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The rule.
    pub rule: Rule,
    /// Weighted accuracy of the generating tree on the clustered labels
    /// (a ranking feature: "accuracy on clustered labels").
    pub cluster_accuracy: f64,
}

/// Enumerates candidate rules for the clustered labels.
pub fn enumerate_rules(
    predicates: &PredicateSet,
    outcome: &ClusterOutcome,
    config: &EnumConfig,
) -> Vec<Candidate> {
    let n = predicates.n_cells;
    // Decision trees split on one representative per distinct signature:
    // signature-identical predicates are interchangeable as features, and
    // root-removal for variety (below) only works on distinct signatures.
    let reps = &predicates.representatives;
    let features = FeatureMatrix::new(n, predicates.representative_signatures());
    let labels = &outcome.labels;

    // Labeled cells — the user's examples and the soft/hard negatives —
    // are twice as important as unlabeled ones (§3.3.2); the HardNegatives
    // ablation sets the multiplier to 1.0 upstream.
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            if outcome.observed.get(i)
                || outcome.soft_negatives.get(i)
                || outcome.hard_negatives.get(i)
            {
                outcome.observed_weight
            } else {
                1.0
            }
        })
        .collect();

    // Leaf minimums scale with the column so trees cannot "repair" a few
    // noisy clustered labels with cell-sized splits: the λₐ threshold is
    // meant to *tolerate* that noise (§3.3.2), not fit it. On short columns
    // the minimum stays 1, which single-cell exceptions (the running
    // example's `-T` id) require.
    let min_leaf = (n / 64).max(1);
    let tree_config = TreeConfig {
        max_decision_nodes: config.lambda_nodes,
        max_depth: config.max_depth,
        min_samples_split: (2 * min_leaf).max(2),
        min_samples_leaf: min_leaf,
        positive_class_weight: 1.0,
    };

    let mut allowed: Vec<usize> = (0..reps.len()).collect();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();

    while !allowed.is_empty() && candidates.len() < config.max_rules {
        let tree = DecisionTree::fit(&features, labels, &weights, &allowed, &tree_config, None);
        let Some(root) = tree.root_feature() else {
            break; // degenerate tree: no split improves anything
        };
        let accuracy = tree.weighted_accuracy(&features, labels, &weights);
        if accuracy < config.lambda_acc {
            break; // λₐ stop criterion
        }
        if satisfies_hard_constraints(&tree, &features, outcome) {
            let rule = tree_to_rule(&tree, predicates);
            if !rule.condition.is_empty() {
                if seen.insert(rule.canonical().to_string()) {
                    candidates.push(Candidate {
                        rule,
                        cluster_accuracy: accuracy,
                    });
                }
            }
        }
        // Also offer the depth-1 truncation of the tree (the bare root
        // predicate, or its negation when the positive leaf sits on the
        // false side). Deep trees fit residual label noise with extra
        // conjuncts; the shallow sibling is frequently the intended rule,
        // and choosing between them is precisely the ranker's job (§3.4).
        for negated in [false, true] {
            let shallow = Rule::new(vec![Conjunct::new(vec![RuleLiteral {
                predicate: predicates.predicates[predicates.representatives[root]].clone(),
                negated,
            }])]);
            let sig = &predicates.signatures[predicates.representatives[root]];
            let exec = if negated { sig.not() } else { sig.clone() };
            let covers = outcome.observed.iter_ones().all(|i| exec.get(i));
            if !covers || exec.and_count(&outcome.hard_negatives) > 0 {
                continue;
            }
            let acc = weighted_agreement(&exec, labels, &weights);
            if acc < config.lambda_acc {
                continue;
            }
            if candidates.len() < config.max_rules && seen.insert(shallow.canonical().to_string()) {
                candidates.push(Candidate {
                    rule: shallow,
                    cluster_accuracy: acc,
                });
            }
        }
        // Variety: drop the root feature and iterate.
        allowed.retain(|&f| f != root);
    }
    candidates
}

/// Weighted label agreement of an execution mask.
///
/// The f64 sum stays serial on purpose: chunked partial sums would
/// reassociate the additions and break bit-identity across thread counts.
fn weighted_agreement(exec: &BitVec, labels: &BitVec, weights: &[f64]) -> f64 {
    let mut correct = 0.0;
    let mut total = 0.0;
    for i in 0..labels.len() {
        total += weights[i];
        if exec.get(i) == labels.get(i) {
            correct += weights[i];
        }
    }
    if total == 0.0 {
        1.0
    } else {
        correct / total
    }
}

/// The hard PBE constraints: the tree must format every user example and
/// must not format any explicit negative correction. (Unconstrained learns
/// have an empty `hard_negatives` mask, so this degrades to the historical
/// perfect-on-observed check.)
fn satisfies_hard_constraints(
    tree: &DecisionTree,
    features: &FeatureMatrix,
    outcome: &ClusterOutcome,
) -> bool {
    outcome
        .observed
        .iter_ones()
        .all(|i| tree.predict_with(|f| features.get(f, i)))
        && outcome
            .hard_negatives
            .iter_ones()
            .all(|i| !tree.predict_with(|f| features.get(f, i)))
}

/// Reads a fitted tree back as a DNF rule (§3.3.1), mapping *representative*
/// feature indices to predicates.
pub fn tree_to_rule(tree: &DecisionTree, predicates: &PredicateSet) -> Rule {
    let dnf = tree.to_dnf();
    let conjuncts: Vec<Conjunct> = dnf
        .into_iter()
        .map(|path| {
            Conjunct::new(
                path.into_iter()
                    .map(|lit| RuleLiteral {
                        predicate: predicates.predicates[predicates.representatives[lit.feature]]
                            .clone(),
                        negated: !lit.polarity,
                    })
                    .collect(),
            )
        })
        .collect();
    Rule::new(conjuncts)
}

/// Execution-based sanity check used by tests and the learner: does the rule
/// reproduce the observed examples?
pub fn covers_observed(rule: &Rule, cells: &[cornet_table::CellValue], observed: &BitVec) -> bool {
    observed.iter_ones().all(|i| rule.eval(&cells[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster_constrained, ClusterConfig};
    use crate::predgen::{generate_predicates, GenConfig};
    use crate::signature::CellSignatures;
    use cornet_table::CellValue;

    fn setup(raw: &[&str], observed: &[usize]) -> (Vec<CellValue>, PredicateSet, ClusterOutcome) {
        setup_constrained(raw, observed, &[])
    }

    fn setup_constrained(
        raw: &[&str],
        observed: &[usize],
        negatives: &[usize],
    ) -> (Vec<CellValue>, PredicateSet, ClusterOutcome) {
        let cells: Vec<CellValue> = raw.iter().map(|s| CellValue::parse(s)).collect();
        let preds = generate_predicates(&cells, &GenConfig::default());
        let sigs = CellSignatures::from_predicates(&preds);
        let outcome = cluster_constrained(&sigs, observed, negatives, &ClusterConfig::default());
        (cells, preds, outcome)
    }

    #[test]
    fn running_example_learns_rw_rule() {
        let (cells, preds, outcome) = setup(
            &["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"],
            &[0, 2, 5],
        );
        let candidates = enumerate_rules(&preds, &outcome, &EnumConfig::default());
        assert!(!candidates.is_empty());
        // Some candidate must produce exactly the intended formatting.
        let target = BitVec::from_indices(6, &[0, 2, 5]);
        assert!(
            candidates.iter().any(|c| c.rule.execute(&cells) == target),
            "no candidate matches the intended formatting; got: {:?}",
            candidates
                .iter()
                .map(|c| c.rule.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_candidates_cover_observed() {
        let (cells, preds, outcome) = setup(
            &["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"],
            &[0, 2],
        );
        let candidates = enumerate_rules(&preds, &outcome, &EnumConfig::default());
        for c in &candidates {
            assert!(
                covers_observed(&c.rule, &cells, &outcome.observed),
                "rule {} misses an observed example",
                c.rule
            );
        }
    }

    #[test]
    fn candidates_are_diverse() {
        let (_, preds, outcome) = setup(&["1", "5", "9", "12", "20", "3"], &[3, 4]);
        let candidates = enumerate_rules(&preds, &outcome, &EnumConfig::default());
        assert!(candidates.len() > 1, "iteration should yield variety");
        let mut displays: Vec<String> = candidates
            .iter()
            .map(|c| c.rule.canonical().to_string())
            .collect();
        let before = displays.len();
        displays.sort();
        displays.dedup();
        assert_eq!(displays.len(), before, "candidates must be deduplicated");
    }

    #[test]
    fn accuracy_threshold_stops_enumeration() {
        let (_, preds, outcome) = setup(&["1", "5", "9", "12", "20", "3"], &[0, 2]);
        // λₐ = 1.01 is unsatisfiable → no candidates at all.
        let config = EnumConfig {
            lambda_acc: 1.01,
            ..EnumConfig::default()
        };
        assert!(enumerate_rules(&preds, &outcome, &config).is_empty());
    }

    #[test]
    fn max_rules_cap() {
        let (_, preds, outcome) = setup(&["1", "5", "9", "12", "20", "3"], &[1, 2]);
        let config = EnumConfig {
            max_rules: 2,
            ..EnumConfig::default()
        };
        assert!(enumerate_rules(&preds, &outcome, &config).len() <= 2);
    }

    #[test]
    fn empty_predicates_yield_no_rules() {
        let (_, preds, outcome) = setup(&["same", "same", "same"], &[0]);
        assert!(enumerate_rules(&preds, &outcome, &EnumConfig::default()).is_empty());
    }

    #[test]
    fn no_candidate_covers_a_hard_negative() {
        let (cells, preds, outcome) = setup_constrained(
            &["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"],
            &[0, 2],
            &[3],
        );
        let candidates = enumerate_rules(&preds, &outcome, &EnumConfig::default());
        assert!(!candidates.is_empty(), "constrained task is learnable");
        for c in &candidates {
            assert!(
                !c.rule.eval(&cells[3]),
                "rule {} formats the hard negative",
                c.rule
            );
            assert!(covers_observed(&c.rule, &cells, &outcome.observed));
        }
    }

    #[test]
    fn rules_stay_within_node_budget() {
        let (_, preds, outcome) = setup(
            &["a1", "b2", "a3", "b4", "a5", "b6", "a7", "b8", "a9", "b10"],
            &[0, 2],
        );
        let config = EnumConfig {
            lambda_nodes: 2,
            ..EnumConfig::default()
        };
        for c in enumerate_rules(&preds, &outcome, &config) {
            assert!(c.rule.predicate_count() <= 2 * 2 + 1);
        }
    }
}
