//! CART-style tree induction with weighted Gini impurity.

use crate::matrix::FeatureMatrix;
use cornet_table::BitVec;

/// Hyper-parameters for tree induction.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum number of decision (internal) nodes — the paper's λₙ budget
    /// on rule size (§3.3.2 uses λₙ = 10 counting all nodes; we bound
    /// internal nodes, which implies ≤ 2·budget+1 total).
    pub max_decision_nodes: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Multiplier applied to the weight of positive-labeled samples
    /// (the decision-tree baselines of §4.1.1 use 5.0).
    pub positive_class_weight: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_decision_nodes: 10,
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            positive_class_weight: 1.0,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf predicting a class.
    Leaf {
        /// Predicted class.
        prediction: bool,
        /// Total weight of positive samples that reached the leaf.
        pos_weight: f64,
        /// Total weight of negative samples that reached the leaf.
        neg_weight: f64,
    },
    /// An internal decision node: samples where the feature is `false` go
    /// left, `true` goes right.
    Split {
        /// Feature index tested by this node.
        feature: usize,
        /// Index of the left (feature = false) child in the node arena.
        left: usize,
        /// Index of the right (feature = true) child in the node arena.
        right: usize,
    },
}

/// A literal in an extracted DNF conjunct: feature index plus required
/// polarity (`true` = the predicate must hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Literal {
    /// Feature (predicate) index.
    pub feature: usize,
    /// Required value of the feature.
    pub polarity: bool,
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    root: usize,
}

impl DecisionTree {
    /// Fits a tree on the given features and labels.
    ///
    /// * `allowed` — feature indices the tree may split on (the iterative
    ///   enumeration of §3.3.2 removes each used root from this set).
    /// * `weights` — per-sample weights (labeled cells are weighted 2×).
    /// * `tie_break` — called with the set of equal-gain best features; must
    ///   return one of them. Defaults to the smallest index, which keeps
    ///   fitting deterministic.
    pub fn fit(
        features: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        allowed: &[usize],
        config: &TreeConfig,
        tie_break: Option<&dyn Fn(&[usize]) -> usize>,
    ) -> DecisionTree {
        assert_eq!(labels.len(), features.n_samples());
        assert_eq!(weights.len(), features.n_samples());
        let groups = WeightGroups::new(labels, weights, config.positive_class_weight);
        Self::fit_with(
            features, labels, weights, allowed, config, tie_break, groups,
        )
    }

    /// [`Self::fit`] with the split-sum strategy made explicit: popcounts
    /// over `groups` when given, the per-sample loop otherwise.
    fn fit_with(
        features: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        allowed: &[usize],
        config: &TreeConfig,
        tie_break: Option<&dyn Fn(&[usize]) -> usize>,
        groups: Option<WeightGroups>,
    ) -> DecisionTree {
        let mut builder = Builder {
            features,
            labels,
            weights,
            config,
            tie_break,
            groups,
            nodes: Vec::new(),
            decision_nodes: 0,
        };
        let all: Vec<usize> = (0..features.n_samples()).collect();
        let root = builder.grow(&all, allowed, 0);
        DecisionTree {
            nodes: builder.nodes,
            root,
        }
    }

    /// Predicts the class of a single sample given a feature oracle.
    pub fn predict_with(&self, feature_value: impl Fn(usize) -> bool) -> bool {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { prediction, .. } => return *prediction,
                Node::Split {
                    feature,
                    left,
                    right,
                } => {
                    at = if feature_value(*feature) {
                        *right
                    } else {
                        *left
                    };
                }
            }
        }
    }

    /// Predicts classes for every sample in a feature matrix, one walk per
    /// sample on the calling thread.
    pub fn predict_all(&self, features: &FeatureMatrix) -> BitVec {
        let n = features.n_samples();
        let mut out = BitVec::zeros(n);
        for s in 0..n {
            if self.predict_with(|f| features.get(f, s)) {
                out.set(s, true);
            }
        }
        out
    }

    /// Weighted accuracy of the tree's predictions against labels, summed
    /// serially in sample order.
    pub fn weighted_accuracy(
        &self,
        features: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
    ) -> f64 {
        let preds = self.predict_all(features);
        let mut correct = 0.0;
        let mut total = 0.0;
        for s in 0..features.n_samples() {
            total += weights[s];
            if preds.get(s) == labels.get(s) {
                correct += weights[s];
            }
        }
        if total == 0.0 {
            1.0
        } else {
            correct / total
        }
    }

    /// The feature tested at the root, or `None` if the tree is a bare leaf.
    pub fn root_feature(&self) -> Option<usize> {
        match &self.nodes[self.root] {
            Node::Split { feature, .. } => Some(*feature),
            Node::Leaf { .. } => None,
        }
    }

    /// Number of decision (internal) nodes.
    pub fn decision_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// Depth of the tree (bare leaf = 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Extracts the tree as a DNF formula: one conjunct (list of literals)
    /// per path from the root to a `true`-predicting leaf. An empty outer
    /// vector means the tree never predicts `true`; a conjunct with no
    /// literals means the tree always predicts `true`.
    pub fn to_dnf(&self) -> Vec<Vec<Literal>> {
        let mut dnf = Vec::new();
        let mut path = Vec::new();
        self.collect_paths(self.root, &mut path, &mut dnf);
        dnf
    }

    fn collect_paths(&self, at: usize, path: &mut Vec<Literal>, dnf: &mut Vec<Vec<Literal>>) {
        match &self.nodes[at] {
            Node::Leaf { prediction, .. } => {
                if *prediction {
                    dnf.push(path.clone());
                }
            }
            Node::Split {
                feature,
                left,
                right,
            } => {
                path.push(Literal {
                    feature: *feature,
                    polarity: false,
                });
                self.collect_paths(*left, path, dnf);
                path.pop();
                path.push(Literal {
                    feature: *feature,
                    polarity: true,
                });
                self.collect_paths(*right, path, dnf);
                path.pop();
            }
        }
    }
}

struct Builder<'a> {
    features: &'a FeatureMatrix,
    labels: &'a BitVec,
    weights: &'a [f64],
    config: &'a TreeConfig,
    tie_break: Option<&'a dyn Fn(&[usize]) -> usize>,
    /// Present when split sums can be taken from popcounts (see
    /// [`WeightGroups`]).
    groups: Option<WeightGroups>,
    nodes: Vec<Node>,
    decision_nodes: usize,
}

impl Builder<'_> {
    /// Weight of a sample including the positive-class multiplier.
    fn weight(&self, s: usize) -> f64 {
        let w = self.weights[s];
        if self.labels.get(s) {
            w * self.config.positive_class_weight
        } else {
            w
        }
    }

    fn class_weights(&self, samples: &[usize]) -> (f64, f64) {
        let mut pos = 0.0;
        let mut neg = 0.0;
        for &s in samples {
            if self.labels.get(s) {
                pos += self.weight(s);
            } else {
                neg += self.weight(s);
            }
        }
        (pos, neg)
    }

    fn grow(&mut self, samples: &[usize], allowed: &[usize], depth: usize) -> usize {
        let (pos, neg) = self.class_weights(samples);
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                prediction: pos > neg,
                pos_weight: pos,
                neg_weight: neg,
            });
            nodes.len() - 1
        };
        if pos == 0.0
            || neg == 0.0
            || depth >= self.config.max_depth
            || samples.len() < self.config.min_samples_split
            || self.decision_nodes >= self.config.max_decision_nodes
            || allowed.is_empty()
        {
            return make_leaf(&mut self.nodes);
        }
        let Some(feature) = self.best_split(samples, allowed, pos, neg) else {
            return make_leaf(&mut self.nodes);
        };
        // Partition.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &s in samples {
            if self.features.get(feature, s) {
                right.push(s);
            } else {
                left.push(s);
            }
        }
        self.decision_nodes += 1;
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            left: usize::MAX,
            right: usize::MAX,
        });
        let left_idx = self.grow(&left, allowed, depth + 1);
        let right_idx = self.grow(&right, allowed, depth + 1);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_idx]
        {
            *l = left_idx;
            *r = right_idx;
        }
        node_idx
    }

    /// Picks the split with the greatest weighted Gini gain, honouring
    /// `min_samples_leaf` and the tie-break hook. Returns `None` when no
    /// valid split improves impurity.
    ///
    /// Each feature's right-child sums come from popcounts over the node's
    /// weight groups when the weights allow it ([`WeightGroups`]), and from
    /// a per-sample loop otherwise; both yield the same bits. The popcount
    /// path is a few words per feature and stays on the calling thread:
    /// fanning it out cost more in thread start-up than it saved.
    ///
    /// Per-sample gains are independent, so large ones fan out over
    /// `cornet-pool` (the closure captures only `Sync` state — the `&dyn
    /// Fn` tie-break hook cannot cross threads). The epsilon/tie selection
    /// is order-dependent and replays **serially** over the gains in
    /// `allowed` order, which `par_map`'s submission-order collection
    /// guarantees — so the chosen feature is identical to the historical
    /// all-serial loop at every thread count.
    fn best_split(
        &self,
        samples: &[usize],
        allowed: &[usize],
        pos: f64,
        neg: f64,
    ) -> Option<usize> {
        let parent = ParentSums {
            n_samples: samples.len(),
            pos,
            neg,
            min_samples_leaf: self.config.min_samples_leaf,
        };
        let gains: Vec<Option<f64>> = match &self.groups {
            Some(groups) => {
                let node = groups.restrict(BitVec::from_indices(self.labels.len(), samples));
                // A feature whose right child breaks the leaf minimum (e.g.
                // one constant on the node) needs no class sums at all.
                let gain = |f: usize| {
                    let feature = self.features.feature(f);
                    let count_r = feature.and_count(&node.node);
                    parent.admits(count_r).then(|| {
                        let (pos_r, neg_r) = node.right_sums(feature);
                        parent.gain(pos_r, neg_r)
                    })
                };
                allowed.iter().map(|&f| gain(f)).collect()
            }
            None => {
                let (features, labels, weights) = (self.features, self.labels, self.weights);
                let pcw = self.config.positive_class_weight;
                let compute = |f: usize| {
                    let (count_r, pos_r, neg_r) =
                        per_sample_right_sums(features, labels, weights, pcw, samples, f);
                    parent.admits(count_r).then(|| parent.gain(pos_r, neg_r))
                };
                if allowed.len() * samples.len() >= PAR_SPLIT_MIN_WORK {
                    cornet_pool::par_map(allowed.len(), |i| compute(allowed[i]))
                } else {
                    allowed.iter().map(|&f| compute(f)).collect()
                }
            }
        };
        // Zero-gain splits are allowed (as in sklearn): XOR-shaped labels
        // have no impurity-reducing split at the root yet become separable
        // one level down. Strictly negative gains are rejected below.
        let mut best_gain = f64::NEG_INFINITY;
        let mut best: Vec<usize> = Vec::new();
        for (&f, gain) in allowed.iter().zip(&gains) {
            let Some(gain) = *gain else { continue };
            if gain > best_gain + 1e-12 {
                best_gain = gain;
                best.clear();
                best.push(f);
            } else if gain > best_gain - 1e-12 {
                best.push(f);
            }
        }
        if best.is_empty() || best_gain < -1e-9 {
            return None;
        }
        match best.len() {
            1 => Some(best[0]),
            _ => match self.tie_break {
                Some(hook) => Some(hook(&best)),
                None => Some(best[0]),
            },
        }
    }
}

/// Below this `allowed × samples` product a per-sample split evaluation
/// stays on the calling thread — fan-out overhead would swamp the
/// arithmetic.
const PAR_SPLIT_MIN_WORK: usize = 4096;

/// The largest effective sample weight the popcount path accepts. With
/// every weight an integer in `0..=MAX_GROUP_WEIGHT`, each running f64 sum
/// of weights is an integer below `samples × 2²⁰`, far under 2⁵³, so it is
/// exact whatever the order of the additions.
const MAX_GROUP_WEIGHT: f64 = (1u64 << 20) as f64;

/// Samples partitioned by class and *effective* weight — `weights[s] ×
/// positive_class_weight` for positives, `weights[s]` for negatives, the
/// same products the per-sample loop adds up.
///
/// When every effective weight is a small non-negative integer, the
/// per-sample loop's f64 sums are exact integers, so a child's weighted
/// class sum equals `Σ weight × popcount(feature ∧ node ∧ group)` bit for
/// bit. Enumeration's weights (1, and 2 for labelled cells) qualify; the
/// baselines' fractional weights do not and keep the per-sample loop. Each
/// group costs one popcount pass per feature, and enumeration makes at most
/// four.
struct WeightGroups {
    groups: Vec<WeightGroup>,
}

struct WeightGroup {
    weight: u64,
    positive: bool,
    samples: BitVec,
}

impl WeightGroups {
    /// `None` unless every effective weight is an integer in
    /// `0..=`[`MAX_GROUP_WEIGHT`]. Zero-weight samples join no group: they
    /// add nothing to any sum.
    fn new(labels: &BitVec, weights: &[f64], positive_class_weight: f64) -> Option<WeightGroups> {
        let n = labels.len();
        let mut groups: Vec<WeightGroup> = Vec::new();
        for (s, &w) in weights.iter().enumerate() {
            let positive = labels.get(s);
            let w = if positive {
                w * positive_class_weight
            } else {
                w
            };
            // NaN fails the range test.
            if !((0.0..=MAX_GROUP_WEIGHT).contains(&w) && w.fract() == 0.0) {
                return None;
            }
            let weight = w as u64;
            if weight == 0 {
                continue;
            }
            let at = groups
                .iter()
                .position(|g| g.weight == weight && g.positive == positive);
            let at = at.unwrap_or_else(|| {
                groups.push(WeightGroup {
                    weight,
                    positive,
                    samples: BitVec::zeros(n),
                });
                groups.len() - 1
            });
            groups[at].samples.set(s, true);
        }
        Some(WeightGroups { groups })
    }

    /// The groups restricted to one node's samples.
    fn restrict(&self, node: BitVec) -> NodeGroups {
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let mut samples = g.samples.clone();
                samples.and_assign(&node);
                WeightGroup { samples, ..*g }
            })
            .collect();
        NodeGroups { node, groups }
    }
}

/// One node's samples and its weight groups.
struct NodeGroups {
    node: BitVec,
    groups: Vec<WeightGroup>,
}

impl NodeGroups {
    /// Weighted class sums of the node's samples on which `feature` holds
    /// (the right child), from popcounts alone.
    fn right_sums(&self, feature: &BitVec) -> (f64, f64) {
        let (mut pos_r, mut neg_r) = (0u64, 0u64);
        for g in &self.groups {
            let sum = g.weight * feature.and_count(&g.samples) as u64;
            if g.positive {
                pos_r += sum;
            } else {
                neg_r += sum;
            }
        }
        (pos_r as f64, neg_r as f64)
    }
}

/// Sample count and weighted class sums of the node's samples on which
/// feature `f` holds, added up sample by sample in sample order — the path
/// for weights [`WeightGroups`] rejects.
fn per_sample_right_sums(
    features: &FeatureMatrix,
    labels: &BitVec,
    weights: &[f64],
    positive_class_weight: f64,
    samples: &[usize],
    f: usize,
) -> (usize, f64, f64) {
    let mut pos_r = 0.0;
    let mut neg_r = 0.0;
    let mut count_r = 0usize;
    for &s in samples {
        if features.get(f, s) {
            count_r += 1;
            if labels.get(s) {
                pos_r += weights[s] * positive_class_weight;
            } else {
                neg_r += weights[s];
            }
        }
    }
    (count_r, pos_r, neg_r)
}

/// The node-level quantities a split's gain is measured against.
struct ParentSums {
    n_samples: usize,
    pos: f64,
    neg: f64,
    min_samples_leaf: usize,
}

impl ParentSums {
    /// True when a right child of `count_r` samples leaves both children
    /// at or above `min_samples_leaf`.
    fn admits(&self, count_r: usize) -> bool {
        let count_l = self.n_samples - count_r;
        count_l >= self.min_samples_leaf && count_r >= self.min_samples_leaf
    }

    /// Weighted-Gini gain of the split whose right child has class sums
    /// `pos_r`/`neg_r`.
    fn gain(&self, pos_r: f64, neg_r: f64) -> f64 {
        let (pos, neg) = (self.pos, self.neg);
        let total = pos + neg;
        let (pos_l, neg_l) = (pos - pos_r, neg - neg_r);
        let (w_l, w_r) = (pos_l + neg_l, pos_r + neg_r);
        let child = (w_l * gini(pos_l, neg_l) + w_r * gini(pos_r, neg_r)) / total;
        gini(pos, neg) - child
    }
}

fn gini(pos: f64, neg: f64) -> f64 {
    let total = pos + neg;
    if total == 0.0 {
        return 0.0;
    }
    let p = pos / total;
    let q = neg / total;
    1.0 - p * p - q * q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(cols: &[&[bool]]) -> FeatureMatrix {
        let n = cols[0].len();
        FeatureMatrix::new(n, cols.iter().map(|c| BitVec::from_bools(c)).collect())
    }

    fn uniform_weights(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn single_feature_perfect_split() {
        let m = matrix(&[&[true, true, false, false]]);
        let labels = BitVec::from_bools(&[true, true, false, false]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[0],
            &TreeConfig::default(),
            None,
        );
        assert_eq!(t.root_feature(), Some(0));
        assert_eq!(t.predict_all(&m), labels);
        assert_eq!(t.decision_node_count(), 1);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn pure_labels_make_a_leaf() {
        let m = matrix(&[&[true, false, true]]);
        let labels = BitVec::from_bools(&[true, true, true]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(3),
            &[0],
            &TreeConfig::default(),
            None,
        );
        assert_eq!(t.root_feature(), None);
        assert!(t.predict_with(|_| false));
        assert_eq!(t.to_dnf(), vec![Vec::<Literal>::new()]);
    }

    #[test]
    fn xor_needs_two_levels() {
        // labels = f0 XOR f1: no single feature separates, two levels do.
        let m = matrix(&[&[false, false, true, true], &[false, true, false, true]]);
        let labels = BitVec::from_bools(&[false, true, true, false]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[0, 1],
            &TreeConfig::default(),
            None,
        );
        assert_eq!(t.predict_all(&m), labels);
        assert_eq!(t.depth(), 2);
        // DNF should have two conjuncts: (f0 ∧ ¬f1) ∨ (¬f0 ∧ f1).
        let dnf = t.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn node_budget_limits_growth() {
        let m = matrix(&[&[false, false, true, true], &[false, true, false, true]]);
        let labels = BitVec::from_bools(&[false, true, true, false]);
        let config = TreeConfig {
            max_decision_nodes: 1,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &uniform_weights(4), &[0, 1], &config, None);
        assert!(t.decision_node_count() <= 1);
    }

    #[test]
    fn allowed_features_are_respected() {
        let m = matrix(&[
            &[true, true, false, false], // perfect
            &[true, false, true, false], // junk
        ]);
        let labels = BitVec::from_bools(&[true, true, false, false]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[1],
            &TreeConfig::default(),
            None,
        );
        assert_ne!(t.root_feature(), Some(0));
    }

    #[test]
    fn sample_weights_shift_the_split() {
        // Feature separates samples {0,1} from {2,3}; labels disagree on
        // sample 3. With sample 3 weighted heavily the majority flips.
        let m = matrix(&[&[true, true, false, false]]);
        let labels = BitVec::from_bools(&[true, true, false, true]);
        let mut weights = uniform_weights(4);
        weights[3] = 10.0;
        let config = TreeConfig {
            min_samples_leaf: 2,
            max_depth: 1,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &weights, &[0], &config, None);
        // Right side (feature=false) should now predict true thanks to the
        // heavy sample.
        assert!(t.predict_with(|_| false));
    }

    #[test]
    fn class_weight_biases_toward_positive() {
        let m = matrix(&[&[true, true, true, false]]);
        let labels = BitVec::from_bools(&[true, false, false, false]);
        // Unweighted: feature=true leaf is majority-negative.
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[],
            &TreeConfig::default(),
            None,
        );
        assert!(!t.predict_with(|_| true));
        // With 5:1 positive weight a bare-leaf tree flips once positives
        // outweigh: 1*5 vs 3 → positive.
        let config = TreeConfig {
            positive_class_weight: 5.0,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &uniform_weights(4), &[], &config, None);
        assert!(t.predict_with(|_| true));
    }

    #[test]
    fn tie_break_hook_is_used() {
        // Two identical features: hook picks the second.
        let m = matrix(&[&[true, true, false, false], &[true, true, false, false]]);
        let labels = BitVec::from_bools(&[true, true, false, false]);
        let pick_last = |cands: &[usize]| *cands.last().unwrap();
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(4),
            &[0, 1],
            &TreeConfig::default(),
            Some(&pick_last),
        );
        assert_eq!(t.root_feature(), Some(1));
    }

    #[test]
    fn weighted_accuracy() {
        let m = matrix(&[&[true, false]]);
        let labels = BitVec::from_bools(&[true, true]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(2),
            &[0],
            &TreeConfig::default(),
            None,
        );
        let acc = t.weighted_accuracy(&m, &labels, &uniform_weights(2));
        assert!((acc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dnf_round_trips_predictions() {
        let m = matrix(&[
            &[true, true, false, false, true],
            &[false, true, true, false, true],
        ]);
        let labels = BitVec::from_bools(&[false, true, false, false, true]);
        let t = DecisionTree::fit(
            &m,
            &labels,
            &uniform_weights(5),
            &[0, 1],
            &TreeConfig::default(),
            None,
        );
        let dnf = t.to_dnf();
        for s in 0..5 {
            let via_dnf = dnf
                .iter()
                .any(|conj| conj.iter().all(|lit| m.get(lit.feature, s) == lit.polarity));
            assert_eq!(via_dnf, t.predict_with(|f| m.get(f, s)), "sample {s}");
        }
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let m = matrix(&[&[true, false, false, false]]);
        let labels = BitVec::from_bools(&[true, false, false, false]);
        let config = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&m, &labels, &uniform_weights(4), &[0], &config, None);
        assert_eq!(t.root_feature(), None); // split would isolate 1 sample
    }

    /// A seeded xorshift stream of bits, so the tests below need no rand.
    fn bit_stream(seed: u64) -> impl FnMut(u64) -> bool {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move |one_in: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.is_multiple_of(one_in)
        }
    }

    /// Random features (with duplicated columns), labels and weights over
    /// `n` samples; `labelled` picks the weight of every third sample.
    fn random_problem(seed: u64, n: usize, labelled: f64) -> (FeatureMatrix, BitVec, Vec<f64>) {
        let mut bit = bit_stream(seed);
        let mut cols: Vec<BitVec> = (0..12).map(|_| (0..n).map(|_| bit(3)).collect()).collect();
        cols.extend(cols[..4].to_vec());
        let labels: BitVec = (0..n).map(|_| bit(2)).collect();
        let weights = (0..n)
            .map(|s| if s % 3 == 0 { labelled } else { 1.0 })
            .collect();
        (FeatureMatrix::new(n, cols), labels, weights)
    }

    #[test]
    fn popcount_and_per_sample_gains_are_bitwise_equal() {
        for seed in 0..8 {
            let n = 70 + 37 * seed as usize;
            let (m, labels, weights) = random_problem(seed, n, 2.0);
            for pcw in [1.0, 5.0] {
                let groups = WeightGroups::new(&labels, &weights, pcw).expect("integer weights");
                let mut bit = bit_stream(seed + 100);
                for keep in [1, 2, 5] {
                    let samples: Vec<usize> = (0..n).filter(|_| bit(keep)).collect();
                    let node = groups.restrict(BitVec::from_indices(n, &samples));
                    let (mut pos, mut neg) = (0.0, 0.0);
                    for &s in &samples {
                        if labels.get(s) {
                            pos += weights[s] * pcw;
                        } else {
                            neg += weights[s];
                        }
                    }
                    let parent = ParentSums {
                        n_samples: samples.len(),
                        pos,
                        neg,
                        min_samples_leaf: 1,
                    };
                    for f in 0..m.n_features() {
                        let (count_r, pos_r, neg_r) =
                            per_sample_right_sums(&m, &labels, &weights, pcw, &samples, f);
                        let (pc_pos, pc_neg) = node.right_sums(m.feature(f));
                        assert_eq!(m.feature(f).and_count(&node.node), count_r);
                        assert_eq!(pc_pos.to_bits(), pos_r.to_bits(), "seed {seed} f {f}");
                        assert_eq!(pc_neg.to_bits(), neg_r.to_bits(), "seed {seed} f {f}");
                        assert_eq!(
                            parent.gain(pc_pos, pc_neg).to_bits(),
                            parent.gain(pos_r, neg_r).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn popcount_fit_equals_per_sample_fit() {
        for seed in 0..8 {
            let n = 90 + 53 * seed as usize;
            let (m, labels, weights) = random_problem(seed, n, 2.0);
            let allowed: Vec<usize> = (0..m.n_features()).collect();
            for pcw in [1.0, 5.0] {
                let config = TreeConfig {
                    positive_class_weight: pcw,
                    min_samples_leaf: 1 + seed as usize % 3,
                    ..TreeConfig::default()
                };
                let fast = DecisionTree::fit(&m, &labels, &weights, &allowed, &config, None);
                let slow =
                    DecisionTree::fit_with(&m, &labels, &weights, &allowed, &config, None, None);
                assert_eq!(fast.nodes, slow.nodes, "seed {seed}, class weight {pcw}");
                assert!(fast.decision_node_count() > 0);
            }
        }
    }

    #[test]
    fn fractional_or_invalid_weights_take_the_per_sample_path() {
        let (_, labels, weights) = random_problem(3, 64, 0.1);
        assert!(WeightGroups::new(&labels, &weights, 1.0).is_none());
        let ones = vec![1.0; 64];
        assert!(WeightGroups::new(&labels, &ones, 1.0).is_some());
        // The positive-class multiplier counts: 1 × 0.5 is fractional.
        assert!(WeightGroups::new(&labels, &ones, 0.5).is_none());
        for bad in [f64::NAN, -1.0, f64::INFINITY, 2.0 * MAX_GROUP_WEIGHT] {
            let mut w = ones.clone();
            w[7] = bad;
            assert!(WeightGroups::new(&labels, &w, 1.0).is_none(), "{bad}");
        }
    }
}
