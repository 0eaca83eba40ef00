//! CART decision tree (Gini impurity, depth-limited).

use crate::model::{check_training_set, Classifier};

/// A node in the tree.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Fraction of positive (SPARE) training samples at this leaf.
        probability: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// Depth-limited CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Option<Node>,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree {
            root: None,
            max_depth: 6,
            min_samples_split: 8,
        }
    }
}

fn gini(positive: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = positive as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

/// Best `(feature, threshold, weighted_gini)` split of the index set.
fn best_split(
    features: &[Vec<f64>],
    labels: &[bool],
    indices: &[usize],
) -> Option<(usize, f64, f64)> {
    let dims = features[0].len();
    let total = indices.len();
    let mut best: Option<(usize, f64, f64)> = None;
    let mut best_imbalance = usize::MAX;
    #[expect(
        clippy::needless_range_loop,
        reason = "`features` is row-major: the index selects a column inside each row, so there is no slice to iterate"
    )]
    for feature in 0..dims {
        // Sort candidate values.
        let mut values: Vec<(f64, bool)> = indices
            .iter()
            .map(|&i| (features[i][feature], labels[i]))
            .collect();
        values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
        let total_pos = values.iter().filter(|(_, l)| *l).count();
        let mut left_pos = 0usize;
        for i in 0..total - 1 {
            if values[i].1 {
                left_pos += 1;
            }
            // Only split between distinct values.
            if values[i].0 == values[i + 1].0 {
                continue;
            }
            let left_n = i + 1;
            let right_n = total - left_n;
            let weighted = (left_n as f64 * gini(left_pos, left_n)
                + right_n as f64 * gini(total_pos - left_pos, right_n))
                / total as f64;
            let threshold = 0.5 * (values[i].0 + values[i + 1].0);
            // Prefer lower impurity; on (near-)ties, prefer the more
            // balanced split — degenerate one-sample splits make
            // zero-gain interactions (XOR) unlearnable within the depth
            // budget.
            let imbalance = left_n.abs_diff(right_n);
            let better = match best {
                None => true,
                Some((_, _, g)) => {
                    weighted < g - 1e-12 || (weighted < g + 1e-12 && imbalance < best_imbalance)
                }
            };
            if better {
                best = Some((feature, threshold, weighted));
                best_imbalance = imbalance;
            }
        }
    }
    best
}

fn build(
    features: &[Vec<f64>],
    labels: &[bool],
    indices: Vec<usize>,
    depth: usize,
    max_depth: usize,
    min_samples: usize,
) -> Node {
    let positive = indices.iter().filter(|&&i| labels[i]).count();
    let probability = positive as f64 / indices.len() as f64;
    if depth >= max_depth
        || indices.len() < min_samples
        || positive == 0
        || positive == indices.len()
    {
        return Node::Leaf { probability };
    }
    // Note: zero-improvement splits are allowed while depth remains —
    // XOR-like interactions have no first-level gini gain, and stopping
    // there (a classic greedy-CART mistake) would make them unlearnable.
    // Depth, purity and min-samples still bound the tree.
    let Some((feature, threshold, _split_gini)) = best_split(features, labels, &indices) else {
        return Node::Leaf { probability };
    };
    let (left, right): (Vec<usize>, Vec<usize>) = indices
        .into_iter()
        .partition(|&i| features[i][feature] <= threshold);
    if left.is_empty() || right.is_empty() {
        return Node::Leaf { probability };
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(build(
            features,
            labels,
            left,
            depth + 1,
            max_depth,
            min_samples,
        )),
        right: Box::new(build(
            features,
            labels,
            right,
            depth + 1,
            max_depth,
            min_samples,
        )),
    }
}

impl Classifier for DecisionTree {
    fn train(&mut self, features: &[Vec<f64>], labels: &[bool]) {
        check_training_set(features, labels);
        let indices: Vec<usize> = (0..features.len()).collect();
        self.root = Some(build(
            features,
            labels,
            indices,
            0,
            self.max_depth,
            self.min_samples_split,
        ));
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        let mut node = self.root.as_ref().expect("model not trained");
        loop {
            match node {
                Node::Leaf { probability } => return *probability,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "decision-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR dataset: no linear model can fit it, and the *first* split
    /// has zero gini gain — a depth-2 tree only learns it because
    /// zero-gain splits are allowed.
    fn xor_data() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            x.push(vec![a, b]);
            y.push((a as i32) ^ (b as i32) == 1);
        }
        (x, y)
    }

    #[test]
    fn fits_xor() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::default();
        tree.train(&x, &y);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(row, &label)| tree.predict(row) == label)
            .count();
        assert!(correct >= 195, "XOR accuracy {correct}/200");
    }

    #[test]
    fn depth_zero_is_a_prior_leaf() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree {
            max_depth: 0,
            ..DecisionTree::default()
        };
        tree.train(&x, &y);
        let proba = tree.predict_proba(&x[0]);
        let base_rate = y.iter().filter(|&&l| l).count() as f64 / y.len() as f64;
        assert!((proba - base_rate).abs() < 1e-9);
    }

    #[test]
    fn pure_nodes_stop_splitting() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![true, true, true, true];
        let mut tree = DecisionTree::default();
        tree.train(&x, &y);
        assert!((tree.predict_proba(&[1.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn respects_simple_threshold() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..100).map(|i| i >= 60).collect();
        let mut tree = DecisionTree::default();
        tree.train(&x, &y);
        assert!(!tree.predict(&[10.0]));
        assert!(tree.predict(&[90.0]));
    }
}
