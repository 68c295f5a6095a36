#include "ml/m5_tree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "ml/rep_tree.hpp"  // best_variance_split
#include "util/table.hpp"

namespace wavetune::ml {

namespace {

double subset_sd(const Dataset& data, const std::vector<std::size_t>& idx) {
  if (idx.size() < 2) return 0.0;
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i : idx) {
    const double t = data.target(i);
    sum += t;
    sum2 += t * t;
  }
  const double n = static_cast<double>(idx.size());
  return std::sqrt(std::max(0.0, sum2 / n - (sum / n) * (sum / n)));
}

/// Mean absolute error of `model` over the rows `idx` of `data`.
double model_mae(const LinearModel& model, const Dataset& data,
                 const std::vector<std::size_t>& idx) {
  if (idx.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i : idx) s += std::abs(data.target(i) - model.predict(data.row(i)));
  return s / static_cast<double>(idx.size());
}

/// Quinlan's complexity correction: training error is optimistic, so it is
/// inflated by (n + v) / (n - v) where v is the number of parameters.
double corrected(double err, double n, double v) {
  if (n <= v) return err * 10.0;  // heavily penalise over-parameterised fits
  return err * (n + v) / (n - v);
}

double nonzero_params(const LinearModel& m) {
  double v = 1.0;  // intercept
  for (double w : m.weights()) {
    if (w != 0.0) v += 1.0;
  }
  return v;
}

}  // namespace

int M5Tree::build(const Dataset& data, std::vector<std::size_t> idx, std::size_t depth,
                  double root_sd, const M5Config& config,
                  std::vector<std::vector<std::size_t>>& node_rows) {
  Node node;
  node.n = static_cast<double>(idx.size());
  const int me = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  node_rows.push_back(idx);

  const double sd = subset_sd(data, idx);
  if (depth >= config.max_depth || idx.size() < 2 * config.min_leaf ||
      sd < config.sd_stop_fraction * root_sd) {
    return me;
  }
  const auto split = best_variance_split(data, idx, config.min_leaf, /*use_sd=*/true);
  if (!split) return me;

  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
  for (std::size_t i : idx) {
    if (data.row(i)[split->feature] <= split->threshold) left_idx.push_back(i);
    else right_idx.push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return me;

  nodes_[me].feature = static_cast<int>(split->feature);
  nodes_[me].threshold = split->threshold;
  const int l = build(data, std::move(left_idx), depth + 1, root_sd, config, node_rows);
  const int r = build(data, std::move(right_idx), depth + 1, root_sd, config, node_rows);
  nodes_[me].left = l;
  nodes_[me].right = r;
  return me;
}

void M5Tree::collect_split_features(int node, std::vector<bool>& mask) const {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  if (nd.feature < 0) return;
  mask[static_cast<std::size_t>(nd.feature)] = true;
  collect_split_features(nd.left, mask);
  collect_split_features(nd.right, mask);
}

M5Tree M5Tree::fit(const Dataset& data, const M5Config& config) {
  if (data.empty()) throw std::invalid_argument("M5Tree::fit: empty dataset");
  M5Tree tree;
  tree.smooth_ = config.smooth;
  tree.smoothing_k_ = config.smoothing_k;

  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) all[i] = i;
  const double root_sd = subset_sd(data, all);

  std::vector<std::vector<std::size_t>> node_rows;
  tree.build(data, std::move(all), 0, root_sd, config, node_rows);

  // Fit each node's linear model on the features its subtree tests; leaves
  // with no splits anywhere up the tree get intercept-only models (means).
  for (std::size_t ni = 0; ni < tree.nodes_.size(); ++ni) {
    std::vector<bool> mask(data.num_features(), false);
    tree.collect_split_features(static_cast<int>(ni), mask);
    const Dataset sub = data.subset(node_rows[ni]);
    tree.nodes_[ni].model = LinearModel::fit(sub, config.ridge_lambda, &mask);
  }

  if (config.prune) {
    // Bottom-up: replace a subtree by its node model when the corrected
    // error does not favour keeping the subtree. Children have larger
    // indices than their parent, so a reverse scan is bottom-up.
    // subtree_err[ni] = corrected MAE of the (possibly already pruned)
    // subtree rooted at ni, measured on the rows that reached ni.
    std::vector<double> subtree_err(tree.nodes_.size(), 0.0);
    for (std::size_t ni = tree.nodes_.size(); ni-- > 0;) {
      Node& nd = tree.nodes_[ni];
      const auto& rows = node_rows[ni];
      const double n = static_cast<double>(rows.size());
      const double node_err = corrected(model_mae(nd.model, data, rows), n,
                                        nonzero_params(nd.model));
      if (nd.feature < 0) {
        subtree_err[ni] = node_err;
        continue;
      }
      const auto l = static_cast<std::size_t>(nd.left);
      const auto r = static_cast<std::size_t>(nd.right);
      const double nl = static_cast<double>(node_rows[l].size());
      const double nr = static_cast<double>(node_rows[r].size());
      const double child_err =
          n > 0.0 ? (nl * subtree_err[l] + nr * subtree_err[r]) / n : 0.0;
      // Relative slack so near-ties (e.g. exactly-linear targets, where
      // every node model is perfect up to rounding noise) collapse.
      if (node_err <= child_err + std::max(1e-12, 1e-3 * child_err)) {
        nd.feature = -1;
        nd.left = nd.right = -1;
        subtree_err[ni] = node_err;
      } else {
        subtree_err[ni] = child_err;
      }
    }
    tree.compact();
  }
  return tree;
}

void M5Tree::compact() {
  if (nodes_.empty()) return;
  // Pre-order copy of the reachable subtree; children keep larger indices
  // than parents, preserving the invariant build() established.
  std::vector<Node> out;
  std::function<int(int)> copy_rec = [&](int ni) -> int {
    const Node& src = nodes_[static_cast<std::size_t>(ni)];
    const int me = static_cast<int>(out.size());
    out.push_back(src);
    if (src.feature >= 0) {
      const int l = copy_rec(src.left);
      const int r = copy_rec(src.right);
      out[static_cast<std::size_t>(me)].left = l;
      out[static_cast<std::size_t>(me)].right = r;
    }
    return me;
  };
  copy_rec(0);
  nodes_ = std::move(out);
}

double M5Tree::predict(std::span<const double> x) const {
  if (nodes_.empty()) return 0.0;
  // Walk to the leaf, remembering the path for smoothing.
  std::vector<int> path;
  int cur = 0;
  for (;;) {
    path.push_back(cur);
    const Node& nd = nodes_[static_cast<std::size_t>(cur)];
    if (nd.feature < 0) break;
    if (static_cast<std::size_t>(nd.feature) >= x.size()) {
      throw std::invalid_argument("M5Tree::predict: arity mismatch");
    }
    cur = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  double p = nodes_[static_cast<std::size_t>(path.back())].model.predict(x);
  if (!smooth_) return p;
  // Smoothing along the path: p = (n*p + k*node_prediction) / (n + k).
  for (std::size_t step = path.size() - 1; step-- > 0;) {
    const Node& nd = nodes_[static_cast<std::size_t>(path[step])];
    const double child_n = nodes_[static_cast<std::size_t>(path[step + 1])].n;
    p = (child_n * p + smoothing_k_ * nd.model.predict(x)) / (child_n + smoothing_k_);
  }
  return p;
}

std::size_t M5Tree::leaf_count() const {
  std::size_t n = 0;
  for (const auto& nd : nodes_) {
    if (nd.feature < 0) ++n;
  }
  return n;
}

std::string M5Tree::describe(const std::vector<std::string>& feature_names) const {
  if (nodes_.empty()) return "(empty tree)\n";
  std::ostringstream out;
  int lm_counter = 0;
  std::vector<std::pair<int, const LinearModel*>> models;
  std::function<void(int, std::size_t)> rec = [&](int ni, std::size_t indent) {
    const Node& nd = nodes_[static_cast<std::size_t>(ni)];
    const std::string pad(indent * 2, ' ');
    if (nd.feature < 0) {
      ++lm_counter;
      out << pad << "LM" << lm_counter << " (n=" << static_cast<long long>(nd.n) << ")\n";
      models.emplace_back(lm_counter, &nd.model);
      return;
    }
    const auto f = static_cast<std::size_t>(nd.feature);
    const std::string name = feature_label(feature_names, f);
    out << pad << name << " <= " << util::format_double(nd.threshold, 4) << " :\n";
    rec(nd.left, indent + 1);
    out << pad << name << " > " << util::format_double(nd.threshold, 4) << " :\n";
    rec(nd.right, indent + 1);
  };
  rec(0, 0);
  out << '\n';
  for (const auto& [id, model] : models) {
    out << "LM" << id << " : " << model->describe(feature_names) << '\n';
  }
  return out.str();
}

util::Json M5Tree::to_json() const {
  util::Json j = util::Json::object();
  j["kind"] = util::Json("m5_tree");
  j["smooth"] = util::Json(smooth_);
  j["smoothing_k"] = util::Json(smoothing_k_);
  util::Json arr = util::Json::array();
  for (const auto& nd : nodes_) {
    util::Json n = util::Json::object();
    n["f"] = util::Json(nd.feature);
    n["t"] = util::Json(nd.threshold);
    n["l"] = util::Json(nd.left);
    n["r"] = util::Json(nd.right);
    n["n"] = util::Json(nd.n);
    n["model"] = nd.model.to_json();
    arr.push_back(std::move(n));
  }
  j["nodes"] = std::move(arr);
  return j;
}

M5Tree M5Tree::from_json(const util::Json& j) {
  M5Tree t;
  t.smooth_ = j.at("smooth").as_bool();
  t.smoothing_k_ = j.at("smoothing_k").as_number();
  for (const auto& n : j.at("nodes").as_array()) {
    Node nd;
    nd.feature = static_cast<int>(n.at("f").as_int());
    nd.threshold = n.at("t").as_number();
    nd.left = static_cast<int>(n.at("l").as_int());
    nd.right = static_cast<int>(n.at("r").as_int());
    nd.n = n.at("n").as_number();
    nd.model = LinearModel::from_json(n.at("model"));
    t.nodes_.push_back(std::move(nd));
  }
  return t;
}

}  // namespace wavetune::ml
