#include "ml/rep_tree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace wavetune::ml {

namespace {

double subset_mean(const Dataset& data, const std::vector<std::size_t>& idx) {
  double s = 0.0;
  for (std::size_t i : idx) s += data.target(i);
  return idx.empty() ? 0.0 : s / static_cast<double>(idx.size());
}

}  // namespace

std::optional<SplitChoice> best_variance_split(const Dataset& data,
                                               const std::vector<std::size_t>& idx,
                                               std::size_t min_leaf, bool use_sd) {
  const std::size_t n = idx.size();
  if (n < 2 * min_leaf) return std::nullopt;

  // Parent impurity.
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i : idx) {
    const double t = data.target(i);
    sum += t;
    sum2 += t * t;
  }
  const double nn = static_cast<double>(n);
  const double parent_var = std::max(0.0, sum2 / nn - (sum / nn) * (sum / nn));
  const double parent_imp = use_sd ? std::sqrt(parent_var) : parent_var;
  if (parent_imp <= 1e-12) return std::nullopt;

  std::optional<SplitChoice> best;
  std::vector<std::pair<double, double>> vals(n);  // (feature value, target)
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    for (std::size_t k = 0; k < n; ++k) {
      vals[k] = {data.row(idx[k])[f], data.target(idx[k])};
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;  // constant feature

    // Prefix scan: consider splits between distinct consecutive values.
    double lsum = 0.0;
    double lsum2 = 0.0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
      lsum += vals[k].second;
      lsum2 += vals[k].second * vals[k].second;
      if (vals[k].first == vals[k + 1].first) continue;
      const std::size_t nl = k + 1;
      const std::size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      const double nld = static_cast<double>(nl);
      const double nrd = static_cast<double>(nr);
      const double rsum = sum - lsum;
      const double rsum2 = sum2 - lsum2;
      const double lvar = std::max(0.0, lsum2 / nld - (lsum / nld) * (lsum / nld));
      const double rvar = std::max(0.0, rsum2 / nrd - (rsum / nrd) * (rsum / nrd));
      const double limp = use_sd ? std::sqrt(lvar) : lvar;
      const double rimp = use_sd ? std::sqrt(rvar) : rvar;
      const double children = (nld * limp + nrd * rimp) / nn;
      const double score = parent_imp - children;
      if (score > 1e-12 && (!best || score > best->score)) {
        best = SplitChoice{f, 0.5 * (vals[k].first + vals[k + 1].first), score};
      }
    }
  }
  return best;
}

int RepTree::build(const Dataset& grow, std::vector<std::size_t> idx, std::size_t depth,
                   const RepTreeConfig& config) {
  Node node;
  node.value = subset_mean(grow, idx);
  const int me = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  if (depth >= config.max_depth) return me;
  const auto split = best_variance_split(grow, idx, config.min_leaf, /*use_sd=*/false);
  if (!split) return me;

  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
  for (std::size_t i : idx) {
    if (grow.row(i)[split->feature] <= split->threshold) left_idx.push_back(i);
    else right_idx.push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return me;

  nodes_[me].feature = static_cast<int>(split->feature);
  nodes_[me].threshold = split->threshold;
  const int l = build(grow, std::move(left_idx), depth + 1, config);
  const int r = build(grow, std::move(right_idx), depth + 1, config);
  nodes_[me].left = l;
  nodes_[me].right = r;
  return me;
}

void RepTree::prune_with(const Dataset& prune_set) {
  if (nodes_.empty() || prune_set.empty()) return;

  // Route prune examples to nodes, accumulating SSE of (a) predicting with
  // the subtree and (b) predicting the node mean. Bottom-up traversal:
  // children have larger indices than parents by construction.
  struct Acc {
    double leaf_sse = 0.0;     ///< error if collapsed to this node's mean
    double subtree_sse = 0.0;  ///< error of the current subtree
    std::vector<std::size_t> samples;
  };
  std::vector<Acc> acc(nodes_.size());
  for (std::size_t e = 0; e < prune_set.size(); ++e) {
    int cur = 0;
    const auto x = prune_set.row(e);
    for (;;) {
      acc[cur].samples.push_back(e);
      const Node& nd = nodes_[static_cast<std::size_t>(cur)];
      if (nd.feature < 0) break;
      cur = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
    }
  }

  for (std::size_t ni = nodes_.size(); ni-- > 0;) {
    Node& nd = nodes_[ni];
    for (std::size_t e : acc[ni].samples) {
      const double err = prune_set.target(e) - nd.value;
      acc[ni].leaf_sse += err * err;
    }
    if (nd.feature < 0) {
      acc[ni].subtree_sse = acc[ni].leaf_sse;
      continue;
    }
    acc[ni].subtree_sse = acc[static_cast<std::size_t>(nd.left)].subtree_sse +
                          acc[static_cast<std::size_t>(nd.right)].subtree_sse;
    if (acc[ni].leaf_sse <= acc[ni].subtree_sse + 1e-12) {
      // Collapse: the held-out data does not support the split.
      nd.feature = -1;
      nd.left = nd.right = -1;
      acc[ni].subtree_sse = acc[ni].leaf_sse;
    }
  }
  compact();
}

void RepTree::compact() {
  if (nodes_.empty()) return;
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

RepTree RepTree::fit(const Dataset& data, const RepTreeConfig& config) {
  if (data.empty()) throw std::invalid_argument("RepTree::fit: empty dataset");
  RepTree tree;
  if (config.prune && data.size() >= 8) {
    util::Rng rng(config.seed);
    auto [prune_set, grow_set] = data.split(config.prune_fraction, rng);
    if (grow_set.empty() || prune_set.empty()) {
      std::vector<std::size_t> idx(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) idx[i] = i;
      tree.build(data, std::move(idx), 0, config);
      return tree;
    }
    std::vector<std::size_t> idx(grow_set.size());
    for (std::size_t i = 0; i < grow_set.size(); ++i) idx[i] = i;
    tree.build(grow_set, std::move(idx), 0, config);
    tree.prune_with(prune_set);
  } else {
    std::vector<std::size_t> idx(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) idx[i] = i;
    tree.build(data, std::move(idx), 0, config);
  }
  return tree;
}

double RepTree::predict(std::span<const double> x) const {
  if (nodes_.empty()) return 0.0;
  int cur = 0;
  for (;;) {
    const Node& nd = nodes_[static_cast<std::size_t>(cur)];
    if (nd.feature < 0) return nd.value;
    if (static_cast<std::size_t>(nd.feature) >= x.size()) {
      throw std::invalid_argument("RepTree::predict: arity mismatch");
    }
    cur = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
}

std::size_t RepTree::leaf_count() const {
  std::size_t n = 0;
  for (const auto& nd : nodes_) {
    if (nd.feature < 0) ++n;
  }
  return n;
}

std::size_t RepTree::depth_of(int node) const {
  if (node < 0) return 0;
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  if (nd.feature < 0) return 1;
  return 1 + std::max(depth_of(nd.left), depth_of(nd.right));
}

std::size_t RepTree::depth() const { return nodes_.empty() ? 0 : depth_of(0); }

std::string RepTree::describe(const std::vector<std::string>& feature_names) const {
  std::ostringstream out;
  std::function<void(int, std::size_t)> rec = [&](int ni, std::size_t indent) {
    const Node& nd = nodes_[static_cast<std::size_t>(ni)];
    const std::string pad(indent * 2, ' ');
    if (nd.feature < 0) {
      out << pad << "-> " << util::format_double(nd.value, 4) << '\n';
      return;
    }
    const auto f = static_cast<std::size_t>(nd.feature);
    const std::string name = feature_label(feature_names, f);
    out << pad << name << " <= " << util::format_double(nd.threshold, 4) << ":\n";
    rec(nd.left, indent + 1);
    out << pad << name << " > " << util::format_double(nd.threshold, 4) << ":\n";
    rec(nd.right, indent + 1);
  };
  if (nodes_.empty()) return "(empty tree)\n";
  rec(0, 0);
  return out.str();
}

util::Json RepTree::to_json() const {
  util::Json j = util::Json::object();
  j["kind"] = util::Json("rep_tree");
  util::Json arr = util::Json::array();
  for (const auto& nd : nodes_) {
    util::Json n = util::Json::object();
    n["f"] = util::Json(nd.feature);
    n["t"] = util::Json(nd.threshold);
    n["l"] = util::Json(nd.left);
    n["r"] = util::Json(nd.right);
    n["v"] = util::Json(nd.value);
    arr.push_back(std::move(n));
  }
  j["nodes"] = std::move(arr);
  return j;
}

RepTree RepTree::from_json(const util::Json& j) {
  RepTree t;
  for (const auto& n : j.at("nodes").as_array()) {
    Node nd;
    nd.feature = static_cast<int>(n.at("f").as_int());
    nd.threshold = n.at("t").as_number();
    nd.left = static_cast<int>(n.at("l").as_int());
    nd.right = static_cast<int>(n.at("r").as_int());
    nd.value = n.at("v").as_number();
    t.nodes_.push_back(nd);
  }
  return t;
}

}  // namespace wavetune::ml
