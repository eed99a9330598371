#include "core/israeli_itai.hpp"

#include <cmath>

#include "faults/injector.hpp"
#include "runtime/engine.hpp"
#include "runtime/simd.hpp"

namespace lps {

namespace {

enum class IiType : std::uint8_t { kPropose, kAccept, kMatched };

struct IiMessage {
  IiType type;
};

/// 2 bits of content; meter generously as one byte.
struct IiBits {
  std::uint64_t operator()(const IiMessage&) const noexcept { return 8; }
};

using IiNet = SyncNetwork<IiMessage, IiBits>;

}  // namespace

std::uint64_t israeli_itai_default_max_phases(NodeId n) {
  return 40 + 12 * static_cast<std::uint64_t>(
                       std::ceil(std::log2(static_cast<double>(n) + 1.0)));
}

DistMatchingResult israeli_itai(const Graph& g,
                                const IsraeliItaiOptions& opts) {
  const NodeId n = g.num_nodes();
  if (!opts.active_edges.empty() && opts.active_edges.size() != g.num_edges()) {
    throw std::invalid_argument("israeli_itai: active_edges size mismatch");
  }
  auto active = [&](EdgeId e) {
    return opts.active_edges.empty() || opts.active_edges[e];
  };

  // Persistent node state (owned here, indexed by node id; each node
  // touches only its own entries during a round).
  std::vector<EdgeId> matched_edge(n, kInvalidEdge);
  // free_neighbor per arc, laid out at CSR arc positions (offsets[v] + i
  // for v's i-th incidence) — the same indexing the engine's inbox slots
  // use, so a kMatched arrival updates its flag without scanning the row.
  const std::vector<std::uint64_t>& adj_offset = g.store().offsets;
  std::vector<std::uint8_t> neighbor_free(adj_offset[n], 1);
  if (opts.initial) {
    if (opts.initial->num_nodes() != n) {
      throw std::invalid_argument("israeli_itai: initial matching size");
    }
    for (NodeId v = 0; v < n; ++v) {
      matched_edge[v] = opts.initial->matched_edge(v);
    }
    // Neighbor liveness against the initial matching (without one,
    // every neighbor starts free and this pass would write nothing).
    for (NodeId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (matched_edge[nbrs[i].to] != kInvalidEdge) {
          neighbor_free[adj_offset[v] + i] = 0;
        }
      }
    }
  }
  std::vector<std::uint8_t> coin(n, 0);
  std::vector<EdgeId> proposal_edge(n, kInvalidEdge);
  // Set by a node at stage 0 when it is free and still sees a free
  // active neighbor; used for termination detection (a phase in which no
  // node had any candidate can never make progress again).
  std::vector<std::uint8_t> had_candidates(n, 0);

  IiNet net(g, opts.seed, IiBits{});
  net.set_thread_pool(opts.pool);
  net.set_shards(opts.shards);
  net.step_all_nodes(opts.step_all_nodes);
  const std::unique_ptr<faults::MessageFaultInjector> injector =
      faults::make_message_injector(opts.faults, opts.seed);
  if (injector != nullptr) net.set_message_faults(injector.get());
  // A masked run steps only its mask's endpoints in round 0. A node with
  // no active edge finds no candidate at stage 0 and sends nothing; the
  // proposal_edge and had_candidates it would write there are their
  // initial values, and its coin decides nothing: a coin matters only
  // beside a valid proposal_edge (stage 2) or to an acceptor holding
  // proposals (stage 1), and nobody proposes over an inactive edge. So
  // skipping it is bit-identical to stepping it.
  if (!opts.active_edges.empty()) {
    net.restrict_initial_active();
    const GraphStore& s = g.store();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (opts.active_edges[e]) {
        net.activate(s.edge_u[e]);
        net.activate(s.edge_v[e]);
      }
    }
  }

  const std::uint64_t max_phases = opts.max_phases != 0
                                       ? opts.max_phases
                                       : israeli_itai_default_max_phases(n);

  // Active-set contract: every free node keeps itself alive from stage
  // to stage (at stage 0 only while it still sees a live candidate — a
  // node whose neighbors all announced kMatched can never propose or be
  // proposed to again, the same freeze the lca oracle exploits).
  // Matched nodes drop out and are only woken by announcements, which
  // arrive as ordinary messages. This reproduces the step-everything
  // execution bit for bit: a node skipped here would neither send nor
  // mutate observable state if stepped.
  auto step = [&](IiNet::Ctx& ctx) {
    const NodeId v = ctx.id();
    const auto nbrs = ctx.graph().neighbors(v);
    const int stage = static_cast<int>(ctx.round() % 3);

    // Matched-announcements can arrive at any stage; process them first.
    // The inbox slot IS the arc position, so the flag update is direct.
    for (const auto& in : ctx.inbox()) {
      if (in.payload->type == IiType::kMatched) {
        neighbor_free[adj_offset[v] + in.slot] = 0;
      }
    }
    const bool free = matched_edge[v] == kInvalidEdge;

    if (stage == 0) {  // propose
      if (!free) return;
      coin[v] = ctx.rng().coin() ? 1 : 0;
      proposal_edge[v] = kInvalidEdge;
      // Count active free neighbors (for liveness tracking even when the
      // coin says "acceptor").
      std::uint32_t candidates = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (neighbor_free[adj_offset[v] + i] && active(nbrs[i].edge)) {
          ++candidates;
        }
      }
      had_candidates[v] = candidates > 0 ? 1 : 0;
      if (candidates > 0) ctx.keep_active();
      if (!coin[v] || candidates == 0) return;
      std::uint32_t pick = static_cast<std::uint32_t>(ctx.rng().below(candidates));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (neighbor_free[adj_offset[v] + i] && active(nbrs[i].edge)) {
          if (pick == 0) {
            proposal_edge[v] = nbrs[i].edge;
            ctx.send(nbrs[i].edge, IiMessage{IiType::kPropose});
            break;
          }
          --pick;
        }
      }
    } else if (stage == 1) {  // accept
      if (free) ctx.keep_active();
      if (!free || coin[v]) return;
      // Accept one active proposal uniformly: count them, draw, then walk
      // the inbox to the drawn one.
      auto is_proposal = [&](const auto& in) {
        return in.payload->type == IiType::kPropose && active(in.edge);
      };
      const auto& inbox = ctx.inbox();
      std::uint64_t proposals = 0;
      for (const auto& in : inbox) proposals += is_proposal(in) ? 1 : 0;
      if (proposals == 0) return;
      std::uint64_t pick = ctx.rng().below(proposals);
      EdgeId chosen = kInvalidEdge;
      for (const auto& in : inbox) {
        if (is_proposal(in) && pick-- == 0) {
          chosen = in.edge;
          break;
        }
      }
      matched_edge[v] = chosen;
      ctx.send(chosen, IiMessage{IiType::kAccept});
      for (const auto& inc : nbrs) {
        if (inc.edge != chosen) ctx.send(inc.edge, IiMessage{IiType::kMatched});
      }
    } else {  // stage 2: proposers learn their fate
      if (free) ctx.keep_active();
      if (!free || !coin[v] || proposal_edge[v] == kInvalidEdge) return;
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type == IiType::kAccept &&
            in.edge == proposal_edge[v]) {
          matched_edge[v] = proposal_edge[v];
          for (const auto& inc : nbrs) {
            if (inc.edge != proposal_edge[v]) {
              ctx.send(inc.edge, IiMessage{IiType::kMatched});
            }
          }
          break;
        }
      }
    }
  };

  bool converged = false;
  for (std::uint64_t phase = 0; phase < max_phases; ++phase) {
    std::fill(had_candidates.begin(), had_candidates.end(), 0);
    net.run_round(step);  // stage 0
    net.run_round(step);  // stage 1
    net.run_round(step);  // stage 2
    // `neighbor_free` flags only turn off on true matched-announcements,
    // so "no node saw a candidate" certifies maximality (stale flags can
    // only cause extra phases, never early termination).
    if (!simd::any_ne_u8(had_candidates.data(), n, 0)) {
      converged = true;
      break;
    }
  }

  // Resync under message faults: a dropped or belated accept leaves a
  // handshake half-committed — the acceptor believes it is matched on an
  // edge the proposer never claimed (or claimed differently). Reconcile
  // by freeing every vertex whose partner disagrees, refreshing the
  // free-flags in both directions around the freed region, and waking
  // exactly that neighborhood for a short burst of extra phases: local
  // repair, not a restart. Faults stay live during the burst, so sweep
  // until agreement or the budget runs out.
  std::uint32_t resyncs = 0;
  if (injector != nullptr) {
    for (std::uint32_t sweep = 0; sweep < opts.max_resyncs; ++sweep) {
      std::vector<NodeId> perturbed;
      for (NodeId v = 0; v < n; ++v) {
        const EdgeId e = matched_edge[v];
        if (e == kInvalidEdge) continue;
        if (matched_edge[g.other_endpoint(e, v)] != e) perturbed.push_back(v);
      }
      if (perturbed.empty()) break;
      ++resyncs;
      telemetry::Tracer& tracer = telemetry::Tracer::global();
      if (tracer.recording()) {
        tracer.event(telemetry::EventKind::kResync, net.round(), sweep,
                     perturbed.size());
      }
      for (const NodeId v : perturbed) {
        matched_edge[v] = kInvalidEdge;
        proposal_edge[v] = kInvalidEdge;
      }
      for (const NodeId v : perturbed) {
        net.activate(v);
        const auto nbrs = g.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId w = nbrs[i].to;
          neighbor_free[adj_offset[v] + i] =
              matched_edge[w] == kInvalidEdge ? 1 : 0;
          // w's slot for v: v is free again (undoes a kMatched announce).
          const auto wnbrs = g.neighbors(w);
          for (std::size_t j = 0; j < wnbrs.size(); ++j) {
            if (wnbrs[j].to == v) {
              neighbor_free[adj_offset[w] + j] = 1;
              break;
            }
          }
          net.activate(w);
        }
      }
      constexpr std::uint64_t kResyncPhases = 8;
      for (std::uint64_t phase = 0; phase < kResyncPhases; ++phase) {
        std::fill(had_candidates.begin(), had_candidates.end(), 0);
        net.run_round(step);  // stage 0
        net.run_round(step);  // stage 1
        net.run_round(step);  // stage 2
        if (!simd::any_ne_u8(had_candidates.data(), n, 0)) break;
      }
    }
  }

  DistMatchingResult out;
  out.stats = net.stats();
  out.converged = converged;
  out.resyncs = resyncs;
  std::vector<EdgeId> ids;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = matched_edge[v];
    if (e == kInvalidEdge || g.edge(e).u != v) continue;
    // Count the edge only when both endpoints claim it. Fault-free
    // executions always agree (the handshake is the agreement), so this
    // filter is vacuous there; under an exhausted resync budget it still
    // guarantees a valid matching: each vertex claims at most one edge,
    // so mutually-claimed edges can never share an endpoint.
    if (matched_edge[g.edge(e).v] == e) ids.push_back(e);
  }
  out.matching = Matching::from_edges(g, ids);
  return out;
}

}  // namespace lps
