#include "tree/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bucketing/counting.h"
#include "bucketing/sort_bucketizer.h"

namespace optrules::tree {

namespace {

double Gini(int64_t positives, int64_t total) {
  if (total == 0) return 0.0;
  const double p =
      static_cast<double>(positives) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

/// Weighted impurity of a two-way partition.
double SplitImpurity(int64_t left_pos, int64_t left_n, int64_t right_pos,
                     int64_t right_n) {
  const double n = static_cast<double>(left_n + right_n);
  return (static_cast<double>(left_n) * Gini(left_pos, left_n) +
          static_cast<double>(right_n) * Gini(right_pos, right_n)) /
         n;
}

/// A candidate split under evaluation.
struct Candidate {
  bool valid = false;
  double gain = 0.0;
  NodeKind kind = NodeKind::kLeaf;
  int attribute = -1;
  double lo = 0.0;
  double hi = 0.0;
};

}  // namespace

/// Recursive trainer; friend of DecisionTree.
class TreeBuilder {
 public:
  TreeBuilder(const storage::Relation& relation, int target,
              const TreeOptions& options)
      : relation_(relation), target_(target), options_(options) {}

  int Build(DecisionTree* tree, std::vector<int64_t> rows, int depth) {
    const std::vector<uint8_t>& target_column =
        relation_.BooleanColumn(target_);
    int64_t positives = 0;
    for (const int64_t row : rows) {
      positives += target_column[static_cast<size_t>(row)];
    }

    DecisionTree::Node node;
    node.node_depth = depth;
    node.prediction = 2 * positives >= static_cast<int64_t>(rows.size());

    const bool can_split =
        depth < options_.max_depth &&
        static_cast<int64_t>(rows.size()) >= 2 * options_.min_leaf_tuples &&
        positives != 0 && positives != static_cast<int64_t>(rows.size());
    Candidate best;
    if (can_split) best = FindBestSplit(rows, positives);

    const int index = static_cast<int>(tree->nodes_.size());
    tree->nodes_.push_back(node);
    if (!best.valid || best.gain < options_.min_gain) {
      return index;  // leaf
    }

    // Partition rows by the chosen predicate.
    std::vector<int64_t> left_rows;
    std::vector<int64_t> right_rows;
    for (const int64_t row : rows) {
      if (Matches(best, row)) {
        left_rows.push_back(row);
      } else {
        right_rows.push_back(row);
      }
    }
    if (left_rows.empty() || right_rows.empty()) return index;  // leaf

    tree->nodes_[static_cast<size_t>(index)].kind = best.kind;
    tree->nodes_[static_cast<size_t>(index)].attribute = best.attribute;
    tree->nodes_[static_cast<size_t>(index)].lo = best.lo;
    tree->nodes_[static_cast<size_t>(index)].hi = best.hi;
    rows.clear();
    rows.shrink_to_fit();
    const int left = Build(tree, std::move(left_rows), depth + 1);
    const int right = Build(tree, std::move(right_rows), depth + 1);
    tree->nodes_[static_cast<size_t>(index)].left = left;
    tree->nodes_[static_cast<size_t>(index)].right = right;
    return index;
  }

 private:
  bool Matches(const Candidate& split, int64_t row) const {
    if (split.kind == NodeKind::kNumericRange) {
      const double value = relation_.NumericValue(row, split.attribute);
      return split.lo <= value && value <= split.hi;
    }
    return relation_.BooleanValue(row, split.attribute);
  }

  Candidate FindBestSplit(const std::vector<int64_t>& rows,
                          int64_t positives) {
    Candidate best;
    const double parent = Gini(positives, static_cast<int64_t>(rows.size()));

    for (int attr = 0; attr < relation_.schema().num_numeric(); ++attr) {
      EvaluateNumeric(rows, positives, parent, attr, &best);
    }
    for (int attr = 0; attr < relation_.schema().num_boolean(); ++attr) {
      if (attr == target_) continue;
      EvaluateBoolean(rows, positives, parent, attr, &best);
    }
    return best;
  }

  void EvaluateNumeric(const std::vector<int64_t>& rows, int64_t positives,
                       double parent, int attr, Candidate* best) {
    // Gather the node's values and bucketize them (exact equi-depth on the
    // subset, so every node adapts its candidate cut points).
    std::vector<double> values;
    std::vector<uint8_t> target;
    values.reserve(rows.size());
    target.reserve(rows.size());
    const std::vector<double>& column = relation_.NumericColumn(attr);
    const std::vector<uint8_t>& target_column =
        relation_.BooleanColumn(target_);
    for (const int64_t row : rows) {
      values.push_back(column[static_cast<size_t>(row)]);
      target.push_back(target_column[static_cast<size_t>(row)]);
    }
    const bucketing::BucketBoundaries boundaries =
        bucketing::ExactEquiDepthBoundaries(values, options_.num_buckets);
    // One-channel counting plan over the gathered node as a single batch.
    storage::ColumnarBatch batch;
    batch.Reset(1, 1);
    batch.SetRows(static_cast<int64_t>(values.size()));
    batch.SetNumeric(0, values);
    batch.SetBoolean(0, target);
    bucketing::MultiCountPlan plan({&boundaries}, 1);
    plan.Accumulate(batch);
    bucketing::BucketCounts counts = plan.TakeCounts(0);
    bucketing::CompactEmptyBuckets(&counts);
    const int m = counts.num_buckets();
    if (m < 2) return;

    // Prefix sums over buckets.
    std::vector<int64_t> pu(static_cast<size_t>(m) + 1, 0);
    std::vector<int64_t> pv(static_cast<size_t>(m) + 1, 0);
    for (int i = 0; i < m; ++i) {
      pu[static_cast<size_t>(i) + 1] =
          pu[static_cast<size_t>(i)] + counts.u[static_cast<size_t>(i)];
      pv[static_cast<size_t>(i) + 1] =
          pv[static_cast<size_t>(i)] + counts.v[0][static_cast<size_t>(i)];
    }
    const int64_t n = pu[static_cast<size_t>(m)];

    const auto consider = [&](int s, int t) {
      const int64_t in_n = pu[static_cast<size_t>(t) + 1] -
                           pu[static_cast<size_t>(s)];
      const int64_t in_pos = pv[static_cast<size_t>(t) + 1] -
                             pv[static_cast<size_t>(s)];
      const int64_t out_n = n - in_n;
      if (in_n < options_.min_leaf_tuples ||
          out_n < options_.min_leaf_tuples) {
        return;
      }
      const double gain =
          parent - SplitImpurity(in_pos, in_n, positives - in_pos, out_n);
      if (gain > best->gain || !best->valid) {
        best->valid = true;
        best->gain = gain;
        best->kind = NodeKind::kNumericRange;
        best->attribute = attr;
        best->lo = counts.min_value[static_cast<size_t>(s)];
        best->hi = counts.max_value[static_cast<size_t>(t)];
      }
    };

    if (options_.split_family == SplitFamily::kRange) {
      for (int s = 0; s < m; ++s) {
        for (int t = s; t < m; ++t) consider(s, t);
      }
    } else {
      // Point splits `A <= v` are the prefix ranges [0, t].
      for (int t = 0; t + 1 < m; ++t) consider(0, t);
    }
  }

  void EvaluateBoolean(const std::vector<int64_t>& rows, int64_t positives,
                       double parent, int attr, Candidate* best) {
    const std::vector<uint8_t>& column = relation_.BooleanColumn(attr);
    const std::vector<uint8_t>& target_column =
        relation_.BooleanColumn(target_);
    int64_t true_n = 0;
    int64_t true_pos = 0;
    for (const int64_t row : rows) {
      if (column[static_cast<size_t>(row)] != 0) {
        ++true_n;
        true_pos += target_column[static_cast<size_t>(row)];
      }
    }
    const int64_t false_n = static_cast<int64_t>(rows.size()) - true_n;
    if (true_n < options_.min_leaf_tuples ||
        false_n < options_.min_leaf_tuples) {
      return;
    }
    const double gain = parent - SplitImpurity(true_pos, true_n,
                                               positives - true_pos,
                                               false_n);
    if (gain > best->gain || !best->valid) {
      best->valid = true;
      best->gain = gain;
      best->kind = NodeKind::kBooleanValue;
      best->attribute = attr;
    }
  }

  const storage::Relation& relation_;
  int target_;
  TreeOptions options_;
};

Result<DecisionTree> DecisionTree::Train(const storage::Relation& relation,
                                         const std::string& target_attr,
                                         const TreeOptions& options) {
  const Result<int> target = relation.schema().BooleanIndexOf(target_attr);
  if (!target.ok()) return target.status();
  if (relation.NumRows() == 0) {
    return Status::InvalidArgument("cannot train on an empty relation");
  }
  if (options.max_depth < 0 || options.min_leaf_tuples < 1 ||
      options.num_buckets < 2) {
    return Status::InvalidArgument("invalid tree options");
  }
  DecisionTree tree;
  tree.target_attribute_ = target.value();
  tree.schema_ = relation.schema();
  std::vector<int64_t> rows(static_cast<size_t>(relation.NumRows()));
  for (int64_t i = 0; i < relation.NumRows(); ++i) {
    rows[static_cast<size_t>(i)] = i;
  }
  TreeBuilder builder(relation, target.value(), options);
  builder.Build(&tree, std::move(rows), 0);
  return tree;
}

int DecisionTree::PredictNode(int node,
                              std::span<const double> numeric_values,
                              std::span<const uint8_t> boolean_values) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.kind == NodeKind::kLeaf) return node;
  bool matches;
  if (n.kind == NodeKind::kNumericRange) {
    const double value = numeric_values[static_cast<size_t>(n.attribute)];
    matches = n.lo <= value && value <= n.hi;
  } else {
    matches = boolean_values[static_cast<size_t>(n.attribute)] != 0;
  }
  return PredictNode(matches ? n.left : n.right, numeric_values,
                     boolean_values);
}

bool DecisionTree::Predict(std::span<const double> numeric_values,
                           std::span<const uint8_t> boolean_values) const {
  OPTRULES_CHECK(!nodes_.empty());
  const int leaf = PredictNode(0, numeric_values, boolean_values);
  return nodes_[static_cast<size_t>(leaf)].prediction;
}

double DecisionTree::Accuracy(const storage::Relation& relation) const {
  OPTRULES_CHECK(relation.schema() == schema_);
  int64_t correct = 0;
  std::vector<double> numeric(
      static_cast<size_t>(schema_.num_numeric()));
  std::vector<uint8_t> boolean(
      static_cast<size_t>(schema_.num_boolean()));
  for (int64_t row = 0; row < relation.NumRows(); ++row) {
    for (int c = 0; c < schema_.num_numeric(); ++c) {
      numeric[static_cast<size_t>(c)] = relation.NumericValue(row, c);
    }
    for (int c = 0; c < schema_.num_boolean(); ++c) {
      boolean[static_cast<size_t>(c)] =
          relation.BooleanValue(row, c) ? 1 : 0;
    }
    if (Predict(numeric, boolean) ==
        relation.BooleanValue(row, target_attribute_)) {
      ++correct;
    }
  }
  return relation.NumRows() > 0
             ? static_cast<double>(correct) /
                   static_cast<double>(relation.NumRows())
             : 0.0;
}

int DecisionTree::depth() const {
  int max_depth = 0;
  for (const Node& node : nodes_) {
    max_depth = std::max(max_depth, node.node_depth);
  }
  return max_depth;
}

std::string DecisionTree::ToString() const {
  std::string out;
  // Iterative depth-first rendering with explicit stack of (node, indent).
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [index, indent] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(index)];
    out.append(static_cast<size_t>(indent) * 2, ' ');
    char line[160];
    if (node.kind == NodeKind::kLeaf) {
      std::snprintf(line, sizeof(line), "predict %s\n",
                    node.prediction ? "yes" : "no");
    } else if (node.kind == NodeKind::kNumericRange) {
      std::snprintf(line, sizeof(line), "if %s in [%.4g, %.4g]:\n",
                    schema_.NumericName(node.attribute).c_str(), node.lo,
                    node.hi);
    } else {
      std::snprintf(line, sizeof(line), "if %s = yes:\n",
                    schema_.BooleanName(node.attribute).c_str());
    }
    out += line;
    if (node.kind != NodeKind::kLeaf) {
      // Push right first so the matching branch renders first.
      stack.push_back({node.right, indent + 1});
      stack.push_back({node.left, indent + 1});
    }
  }
  return out;
}

}  // namespace optrules::tree
