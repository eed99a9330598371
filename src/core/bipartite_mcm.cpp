#include "core/bipartite_mcm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace lps {

namespace {

enum class TokType : std::uint8_t { kToken, kConfirm };

struct TokenMessage {
  TokType type;
  /// Log-domain order statistic: D = ln(-ln u) - ln(n_y); smaller wins.
  double value = 0.0;
  NodeId leader = kInvalidNode;
};

/// The paper's token carries an O(l log Delta)-bit number plus a leader
/// id; we meter the value at 64 bits and the id at ceil(log2 n).
struct TokenBits {
  std::uint64_t id_bits;
  std::uint64_t operator()(const TokenMessage& m) const noexcept {
    return m.type == TokType::kToken ? 64 + id_bits + 1 : id_bits + 1;
  }
};

/// Draw the Lemma 3.7 winner value for a leader with n paths: the max of
/// n i.i.d. uniforms, represented order-faithfully in log-domain.
/// max(U_1..U_n) ~ U^(1/n); D = ln(-ln(U^(1/n))) = ln(-ln u) - ln n,
/// and u^(1/n) increasing in value  <=>  D decreasing, so smaller D wins.
double draw_winner_value(const BigCounter& n, Rng& rng) {
  const double u = rng.uniform01_open();
  const double ln_n = n.log2() * 0.6931471805599453;  // ln 2
  return std::log(-std::log(u)) - ln_n;
}

/// Sample an incidence slot with probability counts[i] / total, over a
/// node's slice of the arc-positioned count column.
std::size_t sample_slot(const BigCounter* counts, std::size_t degree,
                        const BigCounter& total, Rng& rng) {
  BigCounter r = BigCounter::sample_below(total, rng);
  for (std::size_t i = 0; i < degree; ++i) {
    if (counts[i].is_zero()) continue;
    if (r < counts[i]) return i;
    r -= counts[i];
  }
  throw std::logic_error("sample_slot: counts do not sum to total");
}

}  // namespace

class TokenNet : public SyncNetwork<TokenMessage, TokenBits> {
 public:
  using SyncNetwork::SyncNetwork;
};

namespace {

/// Aug's iteration loop, for either way of giving the subgraph.
template <typename Subgraph>
AugResult aug_loop(const Graph& g, const Subgraph& h, Matching& m,
                   int max_len, std::vector<NodeId>& free,
                   const AugOptions& opts, AugScratch& scratch) {
  const NodeId n = g.num_nodes();
  if (max_len < 1 || max_len % 2 == 0) {
    throw std::invalid_argument("bipartite_aug: max_len must be odd");
  }
  std::uint64_t id_bits = 1;
  while ((std::uint64_t{1} << id_bits) < n + 1) ++id_bits;

  // Iteration budget: O(log N) w.h.p. where N <= n * Delta^{(l+1)/2}
  // (the paper's conflict-graph size bound), plus slack.
  std::uint64_t max_iterations = opts.max_iterations;
  if (max_iterations == 0) {
    const double log_n = std::log2(static_cast<double>(n) + 2.0);
    const double log_delta =
        std::log2(static_cast<double>(g.max_degree()) + 2.0);
    const double log_conflict =
        log_n + (static_cast<double>(max_len + 1) / 2.0) * log_delta;
    max_iterations =
        64 + static_cast<std::uint64_t>(16.0 * log_conflict);
  }

  AugResult result;
  const int l = max_len;
  const std::uint64_t token_rounds = static_cast<std::uint64_t>(l);
  const std::uint64_t traceback_start = token_rounds + 1;

  if (!scratch.counting.built_for(g) || scratch.tok.size() != n) {
    // New, copied, or last used on another graph: build it all for g.
    // (`free` may live in the scratch, so it is left alone.)
    scratch.counting = CountingResult{};
    scratch.tok.assign(n, {});
    scratch.flipped.assign(n, 0);
    scratch.new_match_edge.assign(n, kInvalidEdge);
  }
  const CountingResult& counting = scratch.counting;
  std::vector<AugScratch::Token>& tok = scratch.tok;
  std::vector<char>& flipped = scratch.flipped;
  std::vector<EdgeId>& new_match_edge = scratch.new_match_edge;
  std::vector<std::vector<NodeId>>& cohorts = scratch.cohorts;
  cohorts.resize(token_rounds + 1);

  for (std::uint64_t iter = 0; iter < max_iterations; ++iter) {
    // --- Phase 1: Algorithm 3 counting. ---
    count_augmenting_paths(g, h, m, l, free, scratch.counting, opts.pool);
    result.stats.merge(counting.stats);
    ++result.iterations;

    // Any free Y node reached?
    const bool any_endpoint =
        std::any_of(counting.reached.begin(), counting.reached.end(),
                    [&](NodeId v) { return counting.is_path_endpoint(v); });
    if (!any_endpoint) {
      result.converged = true;
      break;
    }

    // --- Phase 2: token selection + traceback (Lemma 3.7). ---
    // The token network is built at the first token phase, not before
    // the first counting pass: that pass, from the emptiest matching, is
    // the solve's largest, and it runs without this network's tables.
    TokenNet* net = scratch.net.get();
    if (net == nullptr || &net->graph().store() != &g.store()) {
      net = &scratch.net.emplace(g, /*seed=*/0, TokenBits{id_bits});
    }
    net->reset(splitmix64(opts.seed ^ (iter * 0x9e3779b97f4a7c15ULL)));
    net->set_thread_pool(opts.pool);

    // Active-set contract: depth-d nodes act spontaneously only at token
    // round l - d, so the driver loop below activates each depth cohort
    // at exactly that round; everything else is message-driven (tokens
    // arrive at a node in its action round, confirms walk back up), and
    // the depth-0 winners keep themselves alive across the one-round gap
    // between receiving the token and launching the traceback.
    auto step = [&](TokenNet::Ctx& ctx) {
      const NodeId v = ctx.id();
      const std::uint64_t round = ctx.round();
      const std::uint32_t d = counting.depth[v];

      if (round <= token_rounds) {
        // Token phase. Nodes at depth d act at round l - d: leaders
        // launch, interior nodes resolve arrivals and forward.
        if (d == kUnreached ||
            round != token_rounds - static_cast<std::uint64_t>(d)) {
          return;
        }
        const bool is_leader = counting.is_path_endpoint(v);
        double best_value = std::numeric_limits<double>::infinity();
        NodeId best_leader = kInvalidNode;
        EdgeId best_edge = kInvalidEdge;
        if (is_leader) {
          best_value = draw_winner_value(counting.total[v], ctx.rng());
          best_leader = v;
        } else {
          for (const auto& in : ctx.inbox()) {
            if (in.payload->type != TokType::kToken) continue;
            const double val = in.payload->value;
            const NodeId led = in.payload->leader;
            if (val < best_value ||
                (val == best_value && led < best_leader)) {
              best_value = val;
              best_leader = led;
              best_edge = in.edge;
            }
          }
          if (best_leader == kInvalidNode) return;  // no token reached v
        }
        tok[v].arrival_edge = best_edge;
        if (d == 0) {
          // Free X endpoint: the token wins; traceback starts next phase.
          tok[v].forwarded = true;  // marks "winning endpoint"
          tok[v].forwarded_leader = best_leader;
          ctx.keep_active();  // flips + confirms at traceback_start
          return;
        }
        // Choose the backward edge: Y samples by counts, X follows its
        // matched edge (which is exactly the single counted slot).
        const auto nbrs = ctx.graph().neighbors(v);
        const std::size_t slot = sample_slot(
            counting.counts.data() + g.store().offsets[v], nbrs.size(),
            counting.total[v], ctx.rng());
        const EdgeId fwd = nbrs[slot].edge;
        tok[v].forwarded = true;
        tok[v].forwarded_leader = best_leader;
        tok[v].forward_edge = fwd;
        ctx.send(fwd, TokenMessage{TokType::kToken, best_value, best_leader});
        return;
      }

      // Traceback phase: round traceback_start + t handles depth-t nodes.
      if (d == kUnreached) return;
      const std::uint64_t my_round = traceback_start + d;
      if (round != my_round) return;
      if (d == 0) {
        // Winning free X endpoint: flip and send confirm up its trail.
        if (!tok[v].forwarded) return;
        flipped[v] = 1;
        new_match_edge[v] = tok[v].arrival_edge;
        ctx.send(tok[v].arrival_edge,
                 TokenMessage{TokType::kConfirm, 0.0, tok[v].forwarded_leader});
        return;
      }
      // Interior/leader node: accept a confirm only for the token we
      // actually forwarded, arriving back on our forward edge.
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type != TokType::kConfirm) continue;
        if (!tok[v].forwarded || in.payload->leader != tok[v].forwarded_leader ||
            in.edge != tok[v].forward_edge) {
          continue;
        }
        flipped[v] = 1;
        // New matched edge: towards lower depth for odd-depth (Y) nodes,
        // towards higher depth for even-depth (X) nodes.
        new_match_edge[v] =
            (d % 2 == 1) ? tok[v].forward_edge : tok[v].arrival_edge;
        if (tok[v].arrival_edge != kInvalidEdge) {
          ctx.send(tok[v].arrival_edge,
                   TokenMessage{TokType::kConfirm, 0.0, in.payload->leader});
        }
        break;
      }
    };

    // Bucket reached nodes by action round l - depth for cohort
    // activation (cost: one pass over reached nodes per iteration).
    for (std::vector<NodeId>& cohort : cohorts) cohort.clear();
    for (const NodeId v : counting.reached) {
      const std::uint32_t d = counting.depth[v];
      if (d <= token_rounds) cohorts[token_rounds - d].push_back(v);
    }
    net->restrict_initial_active();
    // Token rounds 0..l, traceback rounds l+1..2l+1.
    const std::uint64_t total_rounds = traceback_start + token_rounds + 1;
    for (std::uint64_t r = 0; r < total_rounds; ++r) {
      if (r < cohorts.size()) {
        for (NodeId v : cohorts[r]) net->activate(v);
      }
      net->run_round(step);
    }
    result.stats.merge(net->stats());
    net->release_message_buffers();

    // --- Apply the flips to the global matching. ---
    // Every path edge is reported by both of its endpoints (old matched
    // edges by both interior endpoints; new edges by both nodes pairing
    // up), so each toggled edge appears exactly twice: keep one copy.
    std::vector<EdgeId>& toggles = scratch.toggles;
    toggles.clear();
    for (const NodeId v : counting.reached) {
      if (!flipped[v]) continue;
      if (!m.is_free(v)) toggles.push_back(m.matched_edge(v));
      toggles.push_back(new_match_edge[v]);
    }
    std::sort(toggles.begin(), toggles.end());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < toggles.size();) {
      std::size_t j = i;
      while (j < toggles.size() && toggles[j] == toggles[i]) ++j;
      if (j - i != 2) {
        throw std::logic_error("bipartite_aug: inconsistent flip parity");
      }
      toggles[kept++] = toggles[i];
      i = j;
    }
    toggles.resize(kept);
    if (toggles.empty()) {
      throw std::logic_error(
          "bipartite_aug: an iteration with endpoints selected no path");
    }
    m.symmetric_difference(g, toggles);
    // Each confirmed path has exactly one depth-0 endpoint. The token
    // phase wrote state only at the pass's reached nodes: clearing them
    // here leaves it all clean, so the pass that ends a call (no
    // endpoint, no token phase) leaves nothing for the next one to clear.
    for (const NodeId v : counting.reached) {
      if (flipped[v] && counting.depth[v] == 0) ++result.paths_applied;
      tok[v] = AugScratch::Token{};
      flipped[v] = 0;
      new_match_edge[v] = kInvalidEdge;
    }
  }
  return result;
}

}  // namespace

AugResult bipartite_aug(const Graph& g, const std::vector<std::uint8_t>& side,
                        Matching& m, int max_len,
                        const std::vector<char>& active_edges,
                        const AugOptions& opts) {
  AugScratch scratch;
  return bipartite_aug(g, side, m, max_len, active_edges, opts, scratch);
}

AugResult bipartite_aug(const Graph& g, const std::vector<std::uint8_t>& side,
                        Matching& m, int max_len,
                        const std::vector<char>& active_edges,
                        const AugOptions& opts, AugScratch& scratch) {
  const MaskedSubgraph h(g, side, active_edges);
  // The sources of every counting pass of this call, listed once: the
  // passes drop the nodes that augmentations match.
  scratch.free.clear();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (side[v] == 0 && m.is_free(v)) scratch.free.push_back(v);
  }
  return aug_loop(g, h, m, max_len, scratch.free, opts, scratch);
}

AugResult bipartite_aug(const Graph& g, const BichromaticSubgraph& h,
                        Matching& m, int max_len, std::vector<NodeId>& free,
                        const AugOptions& opts, AugScratch& scratch) {
  return aug_loop(g, h, m, max_len, free, opts, scratch);
}

BipartiteMcmResult bipartite_mcm(const Graph& g,
                                 const std::vector<std::uint8_t>& side,
                                 const BipartiteMcmOptions& opts) {
  if (opts.k < 1) throw std::invalid_argument("bipartite_mcm: k must be >= 1");
  BipartiteMcmResult result;
  result.matching = Matching(g.num_nodes());
  result.converged = true;
  AugScratch scratch;  // one per solve, shared by every phase
  for (int l = 1; l <= 2 * opts.k - 1; l += 2) {
    AugOptions aug_opts;
    aug_opts.seed = splitmix64(opts.seed ^ (0xb1ca00 + l));
    aug_opts.pool = opts.pool;
    AugResult aug =
        bipartite_aug(g, side, result.matching, l, {}, aug_opts, scratch);
    result.stats.merge(aug.stats);
    result.phases.push_back({l, aug.iterations, aug.paths_applied});
    result.converged = result.converged && aug.converged;
  }
  return result;
}

}  // namespace lps
