//! Differential tests for the learner's two inner loops: clustering over
//! distinct signature rows and decision-tree split sums from popcounts.
//!
//! Each loop is checked against a test-local reference copy of the
//! straightforward per-cell / per-sample code it replaced:
//!
//! * `cluster_constrained` ≡ the per-cell sweep (every cell's min+max
//!   linkage over every member cell) — same labels, masks and sweep count
//!   in all four [`ClusterMode`]s, with and without hard negatives;
//! * `DecisionTree::fit` ≡ a per-sample CART (weighted class sums added
//!   sample by sample) — same DNF, for the integer weights enumeration
//!   uses and for the baselines' fractional ones.
//!
//! Columns are seeded and built to repeat themselves: a few distinct values
//! with many copies each, plus singleton values, which is the shape that
//! makes the distinct-row sweep pay. Every comparison runs at 1, 2 and 4
//! pool threads.

use cornet_repro::core::cluster::{
    cluster_constrained, soft_negatives, ClusterConfig, ClusterMode, ClusterOutcome,
};
use cornet_repro::core::predgen::{generate_predicates, GenConfig, PredicateSet};
use cornet_repro::core::signature::CellSignatures;
use cornet_repro::dtree::{DecisionTree, FeatureMatrix, Literal, TreeConfig};
use cornet_repro::pool::with_threads;
use cornet_repro::table::{BitVec, CellValue};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const MODES: [ClusterMode; 4] = [
    ClusterMode::Full,
    ClusterMode::NoClustering,
    ClusterMode::NoNegatives,
    ClusterMode::HardNegatives,
];

/// A seeded column with heavy row duplication: `seed % 4` picks the
/// flavour, a handful of distinct values fill most cells, and about one
/// cell in eight is a singleton.
fn duplicated_column(seed: u64) -> Vec<CellValue> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(40..=240);
    let value = |rng: &mut StdRng| -> String {
        match seed % 4 {
            0 => {
                let prefix = *["RW", "RS", "TW"].choose(rng).unwrap();
                let suffix = if rng.gen_bool(0.2) { "-T" } else { "" };
                format!("{prefix}-{}{suffix}", rng.gen_range(100..1000))
            }
            1 => format!("{}", rng.gen_range(-400..4000) as f64 * 0.25),
            2 => format!(
                "202{}-{:02}-{:02}",
                rng.gen_range(0..4),
                rng.gen_range(1..=12),
                rng.gen_range(1..=28)
            ),
            _ => (*["Open", "Closed", "Pending", "Blocked"]
                .choose(rng)
                .unwrap())
            .to_string(),
        }
    };
    let distinct = rng.gen_range(2..=6);
    let pool: Vec<String> = (0..distinct).map(|_| value(&mut rng)).collect();
    let raw: Vec<String> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.125) {
                value(&mut rng)
            } else {
                pool.choose(&mut rng).unwrap().clone()
            }
        })
        .collect();
    raw.iter().map(|s| CellValue::parse(s)).collect()
}

/// Disjoint positive and negative index sets for a column of `n` cells.
/// `seed % 3` picks the shape: one example (no soft negatives), two
/// adjacent examples (no soft negatives either), or a spread of examples.
fn examples(seed: u64, n: usize, with_negatives: bool) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(&mut rng);
    let mut positives = match seed % 3 {
        0 => vec![indices[0]],
        1 => {
            let i = rng.gen_range(0..n - 1);
            vec![i, i + 1]
        }
        _ => indices[..rng.gen_range(2..=5)].to_vec(),
    };
    positives.sort_unstable();
    let negatives = if with_negatives {
        let mut negatives: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|i| !positives.contains(i))
            .take(rng.gen_range(1..=3))
            .collect();
        negatives.sort_unstable();
        negatives
    } else {
        Vec::new()
    };
    (positives, negatives)
}

fn signatures_of(cells: &[CellValue]) -> (PredicateSet, CellSignatures) {
    let predicates = generate_predicates(cells, &GenConfig::default());
    let signatures = CellSignatures::from_predicates(&predicates);
    (predicates, signatures)
}

/// Reference min+max linkage over member *cells*, skipping the cell itself.
fn reference_linkage(sigs: &CellSignatures, i: usize, members: &[usize]) -> Option<usize> {
    let ds: Vec<usize> = members
        .iter()
        .filter(|&&m| m != i)
        .map(|&m| sigs.row(i).hamming(sigs.row(m)))
        .collect();
    Some(ds.iter().min()? + ds.iter().max()?)
}

/// Reference copy of the per-cell clustering sweep: labels and sweep count.
fn reference_cluster(
    sigs: &CellSignatures,
    observed: &[usize],
    negatives: &[usize],
    config: &ClusterConfig,
) -> (BitVec, usize) {
    const POS: u8 = 0;
    const NEG: u8 = 1;
    const UNK: u8 = 2;
    let n = sigs.n_cells();
    let observed_mask = BitVec::from_indices(n, observed);
    let hard_neg = BitVec::from_indices(n, negatives);
    let mut soft_neg = soft_negatives(n, observed);
    for i in hard_neg.iter_ones() {
        soft_neg.set(i, false);
    }
    let mut labels = observed_mask.clone();
    if config.mode == ClusterMode::NoClustering {
        for i in hard_neg.iter_ones() {
            labels.set(i, false);
        }
        return (labels, 0);
    }
    let use_neg = config.mode != ClusterMode::NoNegatives;
    let mut assign = vec![UNK; n];
    for &i in observed {
        assign[i] = POS;
    }
    if use_neg {
        for i in soft_neg.iter_ones() {
            assign[i] = NEG;
        }
    }
    for i in hard_neg.iter_ones() {
        assign[i] = NEG;
    }
    let fixed: Vec<bool> = (0..n)
        .map(|i| observed_mask.get(i) || hard_neg.get(i) || (use_neg && soft_neg.get(i)))
        .collect();
    let mut iterations = 0;
    for _ in 0..config.max_iters {
        iterations += 1;
        let members = |c: u8| (0..n).filter(|&i| assign[i] == c).collect::<Vec<usize>>();
        let (pos, neg, unk) = (members(POS), members(NEG), members(UNK));
        let mut changed = false;
        for i in 0..n {
            if fixed[i] || (!use_neg && assign[i] == POS) {
                continue;
            }
            let d_pos = reference_linkage(sigs, i, &pos);
            let next = if use_neg {
                let d_neg = reference_linkage(sigs, i, if neg.is_empty() { &unk } else { &neg });
                match (d_pos, d_neg) {
                    (Some(dp), Some(dn)) if dp < dn => POS,
                    (Some(_), Some(_)) if neg.is_empty() => UNK,
                    (Some(_), Some(_)) => NEG,
                    (Some(_), None) => POS,
                    _ => assign[i],
                }
            } else {
                match (d_pos, reference_linkage(sigs, i, &unk)) {
                    (Some(dp), Some(du)) if dp < du => POS,
                    (Some(_), None) => POS,
                    _ => assign[i],
                }
            };
            if next != assign[i] {
                assign[i] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, &a) in assign.iter().enumerate() {
        if a == POS {
            labels.set(i, true);
        }
    }
    for i in hard_neg.iter_ones() {
        labels.set(i, false);
    }
    (labels, iterations)
}

fn assert_cluster_matches(
    sigs: &CellSignatures,
    positives: &[usize],
    negatives: &[usize],
    config: &ClusterConfig,
    what: &str,
) -> ClusterOutcome {
    let (labels, iterations) = reference_cluster(sigs, positives, negatives, config);
    for threads in [1, 2, 4] {
        let got = with_threads(threads, || {
            cluster_constrained(sigs, positives, negatives, config)
        });
        assert_eq!(got.labels, labels, "{what}, {threads} threads: labels");
        assert_eq!(
            got.iterations, iterations,
            "{what}, {threads} threads: sweeps"
        );
    }
    cluster_constrained(sigs, positives, negatives, config)
}

#[test]
fn distinct_row_clustering_matches_the_per_cell_sweep() {
    let mut sweeps_seen = 0;
    for seed in 0..24u64 {
        let cells = duplicated_column(seed);
        let (_, sigs) = signatures_of(&cells);
        assert!(
            sigs.n_distinct() < sigs.n_cells(),
            "seed {seed}: fixture must repeat rows"
        );
        for with_negatives in [false, true] {
            let (positives, negatives) = examples(seed, cells.len(), with_negatives);
            for mode in MODES {
                for max_iters in [1, 3, 10] {
                    let config = ClusterConfig { mode, max_iters };
                    let what = format!(
                        "seed {seed}, {mode:?}, max_iters {max_iters}, negatives {negatives:?}"
                    );
                    let got = assert_cluster_matches(&sigs, &positives, &negatives, &config, &what);
                    sweeps_seen = sweeps_seen.max(got.iterations);
                }
            }
        }
    }
    assert!(sweeps_seen > 1, "some column must need a second sweep");
}

#[test]
fn single_example_and_no_negative_seeds_match_the_per_cell_sweep() {
    // One example and two adjacent examples leave the soft-negative mask
    // empty, so the negative side falls back to the unassigned pool.
    for seed in 100..112u64 {
        let cells = duplicated_column(seed);
        let (_, sigs) = signatures_of(&cells);
        let n = cells.len();
        let first = (seed as usize * 7) % (n - 1);
        for positives in [vec![first], vec![first, first + 1]] {
            assert!(soft_negatives(n, &positives).none());
            for mode in MODES {
                let config = ClusterConfig {
                    mode,
                    ..ClusterConfig::default()
                };
                let what = format!("seed {seed}, {mode:?}, positives {positives:?}");
                assert_cluster_matches(&sigs, &positives, &[], &config, &what);
            }
        }
    }
}

#[test]
fn uniform_column_clusters_like_the_per_cell_sweep() {
    // Every cell shares one row: all linkages are zero, and a lone member
    // of its row sees an empty cluster once it excludes itself.
    let cells: Vec<CellValue> = (0..50).map(|_| CellValue::parse("same")).collect();
    let (_, sigs) = signatures_of(&cells);
    assert_eq!(sigs.n_distinct(), 1);
    for mode in MODES {
        let config = ClusterConfig {
            mode,
            ..ClusterConfig::default()
        };
        for (positives, negatives) in [(vec![3], vec![]), (vec![3, 9], vec![20])] {
            let what = format!("{mode:?}, positives {positives:?}");
            assert_cluster_matches(&sigs, &positives, &negatives, &config, &what);
        }
    }
}

/// Reference per-sample CART: greedy weighted-Gini splits with class sums
/// added sample by sample, smallest feature index on ties. Returns the DNF
/// in [`DecisionTree::to_dnf`]'s order.
struct ReferenceTree<'a> {
    features: &'a FeatureMatrix,
    labels: &'a BitVec,
    weights: &'a [f64],
    config: &'a TreeConfig,
    decision_nodes: usize,
}

enum RefNode {
    Leaf(bool),
    Split(usize, Box<RefNode>, Box<RefNode>),
}

impl ReferenceTree<'_> {
    fn sums(&self, samples: &[usize], f: Option<usize>) -> (usize, f64, f64) {
        let (mut count, mut pos, mut neg) = (0, 0.0, 0.0);
        for &s in samples {
            if f.is_some_and(|f| !self.features.get(f, s)) {
                continue;
            }
            count += 1;
            if self.labels.get(s) {
                pos += self.weights[s] * self.config.positive_class_weight;
            } else {
                neg += self.weights[s];
            }
        }
        (count, pos, neg)
    }

    fn grow(&mut self, samples: &[usize], allowed: &[usize], depth: usize) -> RefNode {
        let (_, pos, neg) = self.sums(samples, None);
        let leaf = RefNode::Leaf(pos > neg);
        if pos == 0.0
            || neg == 0.0
            || depth >= self.config.max_depth
            || samples.len() < self.config.min_samples_split
            || self.decision_nodes >= self.config.max_decision_nodes
            || allowed.is_empty()
        {
            return leaf;
        }
        let total = pos + neg;
        let msl = self.config.min_samples_leaf;
        let mut best_gain = f64::NEG_INFINITY;
        let mut best = None;
        for &f in allowed {
            let (count_r, pos_r, neg_r) = self.sums(samples, Some(f));
            if samples.len() - count_r < msl || count_r < msl {
                continue;
            }
            let (pos_l, neg_l) = (pos - pos_r, neg - neg_r);
            let child = ((pos_l + neg_l) * gini(pos_l, neg_l)
                + (pos_r + neg_r) * gini(pos_r, neg_r))
                / total;
            let gain = gini(pos, neg) - child;
            if gain > best_gain + 1e-12 {
                best_gain = gain;
                best = Some(f);
            }
        }
        let Some(f) = best.filter(|_| best_gain >= -1e-9) else {
            return leaf;
        };
        let (right, left): (Vec<usize>, Vec<usize>) =
            samples.iter().partition(|&&s| self.features.get(f, s));
        self.decision_nodes += 1;
        let l = self.grow(&left, allowed, depth + 1);
        let r = self.grow(&right, allowed, depth + 1);
        RefNode::Split(f, Box::new(l), Box::new(r))
    }
}

fn gini(pos: f64, neg: f64) -> f64 {
    let total = pos + neg;
    if total == 0.0 {
        return 0.0;
    }
    let (p, q) = (pos / total, neg / total);
    1.0 - p * p - q * q
}

fn reference_dnf(node: &RefNode, path: &mut Vec<Literal>, out: &mut Vec<Vec<Literal>>) {
    match node {
        RefNode::Leaf(true) => out.push(path.clone()),
        RefNode::Leaf(false) => {}
        RefNode::Split(feature, left, right) => {
            for (child, polarity) in [(left, false), (right, true)] {
                path.push(Literal {
                    feature: *feature,
                    polarity,
                });
                reference_dnf(child, path, out);
                path.pop();
            }
        }
    }
}

fn assert_fit_matches(
    features: &FeatureMatrix,
    labels: &BitVec,
    weights: &[f64],
    config: &TreeConfig,
    what: &str,
) {
    let allowed: Vec<usize> = (0..features.n_features()).collect();
    let n = features.n_samples();
    let mut reference = ReferenceTree {
        features,
        labels,
        weights,
        config,
        decision_nodes: 0,
    };
    let root = reference.grow(&(0..n).collect::<Vec<_>>(), &allowed, 0);
    let mut expected = Vec::new();
    reference_dnf(&root, &mut Vec::new(), &mut expected);
    for threads in [1, 2, 4] {
        let tree = with_threads(threads, || {
            DecisionTree::fit(features, labels, weights, &allowed, config, None)
        });
        assert_eq!(tree.to_dnf(), expected, "{what}, {threads} threads");
    }
}

#[test]
fn popcount_split_fits_match_the_per_sample_tree() {
    // Enumeration's setting: representative predicate features over a
    // duplicated column, clustered labels, weight 2 on labelled cells.
    for seed in 0..16u64 {
        let cells = duplicated_column(seed + 500);
        let (predicates, sigs) = signatures_of(&cells);
        let n = cells.len();
        let (positives, negatives) = examples(seed, n, seed % 2 == 1);
        let outcome = cluster_constrained(&sigs, &positives, &negatives, &ClusterConfig::default());
        let features = FeatureMatrix::new(n, predicates.representative_signatures());
        let labelled = |i: usize| {
            outcome.observed.get(i)
                || outcome.soft_negatives.get(i)
                || outcome.hard_negatives.get(i)
        };
        let min_leaf = (n / 64).max(1);
        for (weight, pcw) in [(2.0, 1.0), (2.0, 5.0), (1.0, 1.0), (0.1, 5.0)] {
            let weights: Vec<f64> = (0..n)
                .map(|i| if labelled(i) { weight } else { 1.0 })
                .collect();
            let config = TreeConfig {
                max_decision_nodes: 10,
                max_depth: 6,
                min_samples_split: (2 * min_leaf).max(2),
                min_samples_leaf: min_leaf,
                positive_class_weight: pcw,
            };
            let what = format!("seed {seed}, labelled weight {weight}, class weight {pcw}");
            assert_fit_matches(&features, &outcome.labels, &weights, &config, &what);
        }
    }
}

#[test]
fn popcount_split_fits_match_on_random_matrices() {
    // Dense random features with many duplicate columns and samples, and
    // weights drawn from {1, 2}; 0.1 weights exercise the per-sample path.
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed + 9_000);
        let n = rng.gen_range(20..=300);
        let n_features = rng.gen_range(1..=40);
        let base: Vec<BitVec> = (0..4)
            .map(|_| (0..n).map(|_| rng.gen_bool(0.4)).collect())
            .collect();
        let columns: Vec<BitVec> = (0..n_features)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    base.choose(&mut rng).unwrap().clone()
                } else {
                    (0..n).map(|_| rng.gen_bool(0.3)).collect()
                }
            })
            .collect();
        let features = FeatureMatrix::new(n, columns);
        let labels: BitVec = (0..n).map(|_| rng.gen_bool(0.35)).collect();
        let min_leaf = rng.gen_range(1..=3);
        for (weights, pcw) in [
            ((0..n).map(|_| rng.gen_range(1..=2) as f64).collect(), 1.0),
            ((0..n).map(|_| rng.gen_range(1..=2) as f64).collect(), 5.0),
            (
                (0..n)
                    .map(|_| [1.0, 0.1][rng.gen_range(0..2)])
                    .collect::<Vec<f64>>(),
                5.0,
            ),
        ] {
            let config = TreeConfig {
                min_samples_leaf: min_leaf,
                positive_class_weight: pcw,
                ..TreeConfig::default()
            };
            let what = format!("seed {seed}, class weight {pcw}");
            assert_fit_matches(&features, &labels, &weights, &config, &what);
        }
    }
}
