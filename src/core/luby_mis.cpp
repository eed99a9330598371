#include "core/luby_mis.hpp"

#include <algorithm>
#include <cmath>

#include "faults/injector.hpp"
#include "runtime/engine.hpp"

namespace lps {

namespace {

enum class MisType : std::uint8_t { kValue, kSelected };

struct MisMessage {
  MisType type;
  std::uint64_t value;
};

/// Type bit + 64-bit value (the paper draws from [1, N^4], i.e.
/// O(log N) bits; 64 bits covers N up to 2^16 exactly and we treat the
/// value as the O(log N)-bit payload).
struct MisBits {
  std::uint64_t operator()(const MisMessage& m) const noexcept {
    return m.type == MisType::kValue ? 65 : 1;
  }
};

using MisNet = SyncNetwork<MisMessage, MisBits>;

enum class NodeState : std::uint8_t { kLive, kIn, kOut };

/// Convergence test: any node still kLive?
bool any_live_node(const std::vector<NodeState>& state) {
  return std::find(state.begin(), state.end(), NodeState::kLive) !=
         state.end();
}

/// Shared MIS reconciliation under message faults (luby + abi). Message
/// loss can admit two adjacent winners (a dropped value/mark hides the
/// competitor) or leave a node eliminated by a winner that is itself
/// being demoted. Each sweep restores a consistent closure — demote the
/// larger-id member of every adjacent kIn pair, then recompute kOut iff
/// dominated by a surviving kIn — wakes the live region, and re-runs
/// protocol phases via `run_burst`. Faults stay live during bursts, so
/// sweeps repeat up to 8 times; a final enforcement pass makes
/// independence unconditional even on an exhausted budget (maximality
/// is then best-effort). Returns the number of corrective sweeps.
template <typename Net, typename RunBurst>
std::uint32_t mis_resync(const Graph& g, std::vector<NodeState>& state,
                         Net& net, RunBurst&& run_burst) {
  constexpr std::uint32_t kSweeps = 8;
  const NodeId n = g.num_nodes();
  std::uint32_t resyncs = 0;
  for (std::uint32_t sweep = 0; sweep < kSweeps; ++sweep) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      if (state[e.u] == NodeState::kIn && state[e.v] == NodeState::kIn) {
        state[std::max(e.u, e.v)] = NodeState::kLive;
        changed = true;
      }
    }
    std::vector<NodeId> live;
    for (NodeId v = 0; v < n; ++v) {
      if (state[v] == NodeState::kIn) continue;
      bool dominated = false;
      for (const Graph::Incidence& inc : g.neighbors(v)) {
        if (state[inc.to] == NodeState::kIn) {
          dominated = true;
          break;
        }
      }
      if (dominated) {
        if (state[v] == NodeState::kLive) {
          state[v] = NodeState::kOut;
          changed = true;
        }
      } else {
        if (state[v] == NodeState::kOut) {
          state[v] = NodeState::kLive;
          changed = true;
        }
        if (state[v] == NodeState::kLive) live.push_back(v);
      }
    }
    // No live nodes after reconciliation: independent and maximal.
    if (live.empty()) break;
    if (changed) {
      ++resyncs;
      telemetry::Tracer& tracer = telemetry::Tracer::global();
      if (tracer.recording()) {
        tracer.event(telemetry::EventKind::kResync, net.round(), sweep,
                     live.size());
      }
    }
    for (const NodeId v : live) net.activate(v);
    run_burst();
  }
  // Unconditional independence, even when the sweep budget ran out with
  // faults still minting conflicts.
  for (const Edge& e : g.edges()) {
    if (state[e.u] == NodeState::kIn && state[e.v] == NodeState::kIn) {
      state[std::max(e.u, e.v)] = NodeState::kOut;
    }
  }
  return resyncs;
}

}  // namespace

MisResult luby_mis(const Graph& g, const MisOptions& opts) {
  const NodeId n = g.num_nodes();
  std::vector<NodeState> state(n, NodeState::kLive);
  std::vector<std::uint64_t> my_value(n, 0);

  MisNet net(g, opts.seed, MisBits{});
  net.set_thread_pool(opts.pool);
  const std::unique_ptr<faults::MessageFaultInjector> injector =
      faults::make_message_injector(opts.faults, opts.seed);
  if (injector != nullptr) net.set_message_faults(injector.get());

  const std::uint64_t max_phases =
      opts.max_phases != 0
          ? opts.max_phases
          : 40 + 12 * static_cast<std::uint64_t>(
                          std::ceil(std::log2(static_cast<double>(n) + 1.0)));

  // Active-set contract: live nodes keep themselves alive every stage;
  // kIn/kOut nodes drop out and are only woken by kSelected arrivals.
  auto step = [&](MisNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const int stage = static_cast<int>(ctx.round() % 2);
    if (stage == 0) {
      // Handle eliminations decided at the end of the previous phase.
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type == MisType::kSelected &&
            state[v] == NodeState::kLive) {
          state[v] = NodeState::kOut;
        }
      }
      if (state[v] != NodeState::kLive) return;
      ctx.keep_active();
      my_value[v] = ctx.rng()();
      ctx.send_all(MisMessage{MisType::kValue, my_value[v]});
    } else {
      if (state[v] != NodeState::kLive) return;
      ctx.keep_active();
      bool win = true;
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type != MisType::kValue) continue;
        const std::uint64_t theirs = in.payload->value;
        if (theirs > my_value[v] || (theirs == my_value[v] && in.from < v)) {
          win = false;
          break;
        }
      }
      if (win) {
        state[v] = NodeState::kIn;
        ctx.send_all(MisMessage{MisType::kSelected, 0});
      }
    }
  };

  MisResult out;
  for (std::uint64_t phase = 0; phase < max_phases; ++phase) {
    net.run_round(step);
    net.run_round(step);
    if (!any_live_node(state)) {
      out.converged = true;
      break;
    }
  }
  if (injector != nullptr) {
    out.resyncs = mis_resync(g, state, net, [&] {
      for (std::uint64_t phase = 0; phase < 8; ++phase) {
        net.run_round(step);
        net.run_round(step);
        if (!any_live_node(state)) break;
      }
    });
  }
  out.stats = net.stats();
  out.in_mis.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (state[v] == NodeState::kIn) out.in_mis[v] = 1;
  }
  return out;
}

namespace {

enum class AbiType : std::uint8_t { kMark, kSelected, kDead };

struct AbiMessage {
  AbiType type;
  std::uint32_t degree;  // kMark only
};

struct AbiBits {
  std::uint64_t operator()(const AbiMessage& m) const noexcept {
    return m.type == AbiType::kMark ? 34 : 2;
  }
};

using AbiNet = SyncNetwork<AbiMessage, AbiBits>;

}  // namespace

MisResult abi_mis(const Graph& g, const MisOptions& opts) {
  const NodeId n = g.num_nodes();
  std::vector<NodeState> state(n, NodeState::kLive);
  std::vector<char> marked(n, 0);
  std::vector<std::uint32_t> live_degree(n);
  for (NodeId v = 0; v < n; ++v) live_degree[v] = g.degree(v);

  AbiNet net(g, opts.seed, AbiBits{});
  net.set_thread_pool(opts.pool);
  const std::unique_ptr<faults::MessageFaultInjector> injector =
      faults::make_message_injector(opts.faults, opts.seed);
  if (injector != nullptr) net.set_message_faults(injector.get());

  const std::uint64_t max_phases =
      opts.max_phases != 0
          ? opts.max_phases
          : 60 + 16 * static_cast<std::uint64_t>(
                          std::ceil(std::log2(static_cast<double>(n) + 1.0)));

  // Active-set contract: live nodes keep themselves alive every stage
  // (even unmarked ones — they must reach the next stage 0 to redraw);
  // kIn/kOut nodes drop out and are only woken by kSelected/kDead
  // arrivals, under which their step mutates exactly what the inbox
  // dictates, same as when every node is stepped.
  auto step = [&](AbiNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const int stage = static_cast<int>(ctx.round() % 3);
    if (stage == 0) {
      // Consume deaths decided at stage 2 of the previous phase.
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type == AbiType::kDead && live_degree[v] > 0) {
          --live_degree[v];
        }
      }
      if (state[v] != NodeState::kLive) return;
      ctx.keep_active();
      const double p =
          live_degree[v] == 0 ? 1.0
                              : 1.0 / (2.0 * static_cast<double>(live_degree[v]));
      marked[v] = ctx.rng().bernoulli(p) ? 1 : 0;
      if (marked[v]) {
        ctx.send_all(AbiMessage{AbiType::kMark, live_degree[v]});
      }
    } else if (stage == 1) {
      if (state[v] == NodeState::kLive) ctx.keep_active();
      if (state[v] != NodeState::kLive || !marked[v]) return;
      // Unmark if a marked neighbor beats us by (degree, id).
      bool win = true;
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type != AbiType::kMark) continue;
        const std::uint32_t theirs = in.payload->degree;
        if (theirs > live_degree[v] ||
            (theirs == live_degree[v] && in.from > v)) {
          win = false;
          break;
        }
      }
      if (win) {
        state[v] = NodeState::kIn;
        ctx.send_all(AbiMessage{AbiType::kSelected, 0});
      }
    } else {  // stage 2: eliminations + death notices
      if (state[v] != NodeState::kLive) return;
      ctx.keep_active();
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type == AbiType::kSelected) {
          state[v] = NodeState::kOut;
          ctx.send_all(AbiMessage{AbiType::kDead, 0});
          return;
        }
      }
    }
  };

  MisResult out;
  for (std::uint64_t phase = 0; phase < max_phases; ++phase) {
    net.run_round(step);
    net.run_round(step);
    net.run_round(step);
    if (!any_live_node(state)) {
      out.converged = true;
      break;
    }
  }
  if (injector != nullptr) {
    // live_degree may be stale after reconciliation (dropped kDead
    // notices); it only biases marking probabilities and tie-breaks, so
    // the re-run stays correct, just possibly slower.
    out.resyncs = mis_resync(g, state, net, [&] {
      for (std::uint64_t phase = 0; phase < 8; ++phase) {
        net.run_round(step);
        net.run_round(step);
        net.run_round(step);
        if (!any_live_node(state)) break;
      }
    });
  }
  out.stats = net.stats();
  out.in_mis.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (state[v] == NodeState::kIn) out.in_mis[v] = 1;
  }
  return out;
}

bool is_independent_set(const Graph& g, const std::vector<char>& in_set) {
  for (const Edge& e : g.edges()) {
    if (in_set[e.u] && in_set[e.v]) return false;
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g,
                                const std::vector<char>& in_set) {
  if (!is_independent_set(g, in_set)) return false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_set[v]) continue;
    bool dominated = false;
    for (const Graph::Incidence& inc : g.neighbors(v)) {
      if (in_set[inc.to]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

}  // namespace lps
