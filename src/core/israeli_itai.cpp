#include "core/israeli_itai.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "faults/injector.hpp"
#include "runtime/engine.hpp"

namespace lps {

std::uint64_t israeli_itai_default_max_phases(NodeId n) {
  return 40 + 12 * static_cast<std::uint64_t>(
                       std::ceil(std::log2(static_cast<double>(n) + 1.0)));
}

namespace detail {

/// The one Israeli–Itai implementation: node state, network, step and
/// phase driver, shared by israeli_itai() and IsraeliItaiClassRuns.
class IsraeliItaiProtocol {
  enum class Type : std::uint8_t { kPropose, kAccept, kMatched };
  struct Message {
    Type type;
  };
  /// 2 bits of content; meter generously as one byte.
  static constexpr std::uint64_t kBits = 8;
  struct Bits {
    std::uint64_t operator()(const Message&) const noexcept { return kBits; }
  };
  using Net = SyncNetwork<Message, Bits>;

 public:
  /// `edge_class` empty = every edge active (class 0); `degree` empty =
  /// g's degrees (announcements count over all of g).
  IsraeliItaiProtocol(const Graph& g, std::span<const std::uint32_t> edge_class,
                      std::span<const NodeId> degree, std::uint64_t seed,
                      ThreadPool* pool)
      : g_(g),
        offsets_(g.store().offsets),
        edge_class_(edge_class),
        degree_(degree),
        matched_edge_(g.num_nodes(), kInvalidEdge),
        proposal_edge_(g.num_nodes(), kInvalidEdge),
        coin_(g.num_nodes(), 0),
        sees_candidate_(g.num_nodes(), 0),
        neighbor_free_(offsets_[g.num_nodes()], 1),
        net_(g, seed, Bits{}),
        rev_slot_(g.store().rev_slot()) {
    net_.set_thread_pool(pool);
  }

  void step_all_nodes(bool on) { net_.step_all_nodes(on); }

  void set_message_faults(faults::MessageFaultInjector* injector) {
    net_.set_message_faults(injector);
    faulty_ = injector != nullptr;
  }

  /// Start from `initial` instead of the empty matching (fresh state).
  void start_from(const Matching& initial) {
    const NodeId n = g_.num_nodes();
    for (NodeId v = 0; v < n; ++v) matched_edge_[v] = initial.matched_edge(v);
    for (NodeId v = 0; v < n; ++v) {
      const auto nbrs = g_.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (matched_edge_[nbrs[i].to] != kInvalidEdge) {
          neighbor_free_[offsets_[v] + i] = 0;
        }
      }
    }
  }

  /// Restart the network for a new run with `seed`.
  void restart(std::uint64_t seed) {
    net_.reset(seed);
    wake_.clear();
  }

  /// Make class c's `edges` the active ones. Round 0 then steps only
  /// their endpoints: a node with no active edge finds no candidate at
  /// stage 0 and sends nothing; the proposal_edge and sees_candidate it
  /// would write there are never read, and its coin decides nothing (a
  /// coin matters only beside a valid proposal_edge, or to an acceptor
  /// holding proposals, and nobody proposes over an inactive edge). So
  /// skipping it is bit-identical to stepping it.
  void restrict_to(std::uint32_t c, std::span<const EdgeId> edges) {
    active_class_ = c;
    net_.restrict_initial_active();
    const GraphStore& s = g_.store();
    for (const EdgeId e : edges) {
      net_.activate(s.edge_u[e]);
      net_.activate(s.edge_v[e]);
    }
  }

  /// Run phases until one ends with no free node seeing a candidate
  /// (returns true) or max_phases ran (returns false).
  bool run(std::uint64_t max_phases) {
    for (std::uint64_t phase = 0; phase < max_phases; ++phase) {
      if (!run_phase()) return true;
    }
    return false;
  }

  /// Resync under message faults: a dropped or belated accept leaves a
  /// handshake half-committed — the acceptor believes it is matched on
  /// an edge the proposer never claimed (or claimed differently).
  /// Reconcile by freeing every vertex whose partner disagrees,
  /// refreshing the free-flags in both directions around the freed
  /// region, and waking exactly that neighborhood for a short burst of
  /// extra phases: local repair, not a restart. Faults stay live during
  /// the burst, so sweep until agreement or 8 sweeps ran. Returns the
  /// sweeps that found a disagreement.
  std::uint32_t resync() {
    constexpr std::uint32_t kSweeps = 8;
    const NodeId n = g_.num_nodes();
    std::uint32_t resyncs = 0;
    for (std::uint32_t sweep = 0; sweep < kSweeps; ++sweep) {
      std::vector<NodeId> perturbed;
      for (NodeId v = 0; v < n; ++v) {
        const EdgeId e = matched_edge_[v];
        if (e == kInvalidEdge) continue;
        if (matched_edge_[g_.other_endpoint(e, v)] != e) perturbed.push_back(v);
      }
      if (perturbed.empty()) break;
      ++resyncs;
      telemetry::Tracer& tracer = telemetry::Tracer::global();
      if (tracer.recording()) {
        tracer.event(telemetry::EventKind::kResync, net_.round(), sweep,
                     perturbed.size());
      }
      for (const NodeId v : perturbed) {
        matched_edge_[v] = kInvalidEdge;
        proposal_edge_[v] = kInvalidEdge;
      }
      for (const NodeId v : perturbed) {
        net_.activate(v);
        const auto nbrs = g_.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId w = nbrs[i].to;
          neighbor_free_[offsets_[v] + i] =
              matched_edge_[w] == kInvalidEdge ? 1 : 0;
          // w's flag for v: v is free again (undoes a kMatched announce).
          neighbor_free_[mirror(offsets_[v] + i)] = 1;
          net_.activate(w);
        }
      }
      constexpr std::uint64_t kResyncPhases = 8;
      for (std::uint64_t phase = 0; phase < kResyncPhases; ++phase) {
        if (!run_phase()) break;
      }
    }
    return resyncs;
  }

  /// The run's cost, every announcement included, sent or charged.
  const NetStats& stats() const { return net_.stats(); }

  /// True iff both endpoints of e claim it. Fault-free executions always
  /// agree (the handshake is the agreement); under an exhausted resync
  /// budget this still yields a valid matching, because each vertex
  /// claims at most one edge.
  bool claims(EdgeId e) const {
    const GraphStore& s = g_.store();
    return matched_edge_[s.edge_u[e]] == e && matched_edge_[s.edge_v[e]] == e;
  }

  EdgeId matched_edge(NodeId v) const { return matched_edge_[v]; }
  NodeId num_nodes() const { return g_.num_nodes(); }
  bool in_class(EdgeId e, std::uint32_t c) const {
    return e < edge_class_.size() && edge_class_[e] == c;
  }

  /// Undo what a fault-free run on `edges` wrote and a later run could
  /// read: its endpoints' matched edges, and their flags for those edges
  /// (the only ones an announcement travels on). Coins, proposals and
  /// sees_candidate need no clearing: every node a run reads them for is
  /// an endpoint of its edges, and round 0 rewrites them all.
  void clear(std::span<const EdgeId> edges) {
    const GraphStore& s = g_.store();
    for (const EdgeId e : edges) {
      const NodeId u = s.edge_u[e];
      const NodeId v = s.edge_v[e];
      matched_edge_[u] = kInvalidEdge;
      matched_edge_[v] = kInvalidEdge;
      const std::uint64_t a = arc(u, v);
      neighbor_free_[a] = 1;
      neighbor_free_[mirror(a)] = 1;
    }
  }

 private:
  bool active(EdgeId e) const {
    return edge_class_.empty() || edge_class_[e] == active_class_;
  }

  NodeId degree(NodeId v) const {
    return degree_.empty() ? g_.degree(v) : degree_[v];
  }

  /// The mirror of arc a = v -> w: w's arc to v, where w's flag for v
  /// sits.
  std::uint64_t mirror(std::uint64_t a) const {
    return offsets_[g_.store().adj_to[a]] + rev_slot_[a];
  }

  /// The position of `to` in from's row (rows are sorted by neighbor).
  std::uint64_t arc(NodeId from, NodeId to) const {
    const NodeId* row = g_.store().adj_to.data() + offsets_[from];
    return offsets_[from] +
           static_cast<std::uint64_t>(
               std::lower_bound(row, row + g_.degree(from), to) - row);
  }

  /// Calls f(v) for every node the last round stepped: the round's
  /// active list, or all nodes after an unrestricted round 0 (or under
  /// step_all_nodes), when that list is empty.
  template <typename F>
  void for_each_stepped(F&& f) const {
    const std::span<const NodeId> stepped = net_.last_round_active();
    if (stepped.empty() && net_.last_round_stepped() != 0) {
      for (NodeId v = 0; v < g_.num_nodes(); ++v) f(v);
    } else {
      for (const NodeId v : stepped) f(v);
    }
  }

  /// One phase. Stage 0 steps the nodes woken for it (and, under message
  /// faults, announcement receivers); stages 1 and 2 step only
  /// receivers. Afterwards wake_ holds the free nodes that saw a
  /// candidate at stage 0 (plus, under message faults, the free stage-1
  /// and stage-2 receivers), activated before the next stage 0. Returns
  /// whether some free node saw a candidate: a phase in which none did
  /// can never make progress again, because flags only turn off on true
  /// announcements (stale flags can only cost extra phases, never end
  /// the run early).
  bool run_phase() {
    for (const NodeId v : wake_) {
      if (matched_edge_[v] == kInvalidEdge) net_.activate(v);
    }
    wake_.clear();
    const auto step = [this](Net::Ctx& ctx) { this->step(ctx); };
    net_.run_round(step);  // stage 0
    for_each_stepped([&](NodeId v) {
      if (matched_edge_[v] == kInvalidEdge && sees_candidate_[v]) {
        wake_.push_back(v);
      }
    });
    const bool saw_candidate = !wake_.empty();
    const auto keep_free = [&](NodeId v) {
      if (matched_edge_[v] == kInvalidEdge) wake_.push_back(v);
    };
    net_.run_round(step);  // stage 1
    if (faulty_) for_each_stepped(keep_free);
    net_.run_round(step);  // stage 2
    if (faulty_) for_each_stepped(keep_free);
    return saw_candidate;
  }

  void step(Net::Ctx& ctx) {
    const NodeId v = ctx.id();
    const std::uint64_t row = offsets_[v];
    const auto nbrs = g_.neighbors(v);

    // Under message faults announcements arrive as messages, at any
    // stage; process them first. The inbox slot IS the arc position, so
    // the flag update is direct.
    for (const auto& in : ctx.inbox()) {
      if (in.payload->type == Type::kMatched) neighbor_free_[row + in.slot] = 0;
    }
    if (matched_edge_[v] != kInvalidEdge) return;
    const std::uint64_t stage = ctx.round() % 3;

    if (stage == 0) {  // propose
      coin_[v] = ctx.rng().coin() ? 1 : 0;
      proposal_edge_[v] = kInvalidEdge;
      // Count candidates even when the coin says "acceptor": the phase
      // driver reads sees_candidate for liveness and termination.
      std::uint32_t candidates = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (neighbor_free_[row + i] && active(nbrs[i].edge)) ++candidates;
      }
      sees_candidate_[v] = candidates > 0 ? 1 : 0;
      if (!coin_[v] || candidates == 0) return;
      std::uint32_t pick =
          static_cast<std::uint32_t>(ctx.rng().below(candidates));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (neighbor_free_[row + i] && active(nbrs[i].edge)) {
          if (pick == 0) {
            proposal_edge_[v] = nbrs[i].edge;
            ctx.send(nbrs[i].edge, Message{Type::kPropose});
            break;
          }
          --pick;
        }
      }
    } else if (stage == 1) {  // accept
      if (coin_[v]) return;
      // Accept one active proposal uniformly: count them, draw, then walk
      // the inbox to the drawn one.
      auto is_proposal = [&](const auto& in) {
        return in.payload->type == Type::kPropose && active(in.edge);
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
      matched_edge_[v] = chosen;
      ctx.send(chosen, Message{Type::kAccept});
      announce(ctx, v, chosen);
    } else {  // stage 2: proposers learn their fate
      if (!coin_[v] || proposal_edge_[v] == kInvalidEdge) return;
      for (const auto& in : ctx.inbox()) {
        if (in.payload->type == Type::kAccept && in.edge == proposal_edge_[v]) {
          matched_edge_[v] = proposal_edge_[v];
          announce(ctx, v, proposal_edge_[v]);
          break;
        }
      }
    }
  }

  /// v matched on `edge`: announce it over every other edge v has in G′,
  /// each announcement charged as one message. Over an inactive edge it
  /// would set a flag no step reads, so it is only charged. Over an
  /// active edge it is sent under message faults; fault-free v clears
  /// the far flag itself. That is bit-identical to sending: flags are
  /// read only at stage 0, before which the message would have been
  /// applied, and each flag has one writer (the node it names), so the
  /// store races with nothing.
  void announce(Net::Ctx& ctx, NodeId v, EdgeId edge) {
    std::uint64_t sent = 0;
    const auto nbrs = g_.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i].edge == edge || !active(nbrs[i].edge)) continue;
      if (faulty_) {
        ctx.send(nbrs[i].edge, Message{Type::kMatched});
        ++sent;
      } else {
        neighbor_free_[mirror(offsets_[v] + i)] = 0;
      }
    }
    ctx.charge(degree(v) - 1 - sent, Message{Type::kMatched});
  }

  const Graph g_;
  const std::vector<std::uint64_t>& offsets_;
  std::span<const std::uint32_t> edge_class_;
  std::span<const NodeId> degree_;
  std::uint32_t active_class_ = 0;

  // Node state, indexed by node id; each node touches only its own
  // entries during a round.
  std::vector<EdgeId> matched_edge_;
  std::vector<EdgeId> proposal_edge_;
  std::vector<std::uint8_t> coin_;
  // Written by every free node stepped at stage 0: whether it saw a
  // candidate. The driver reads it only for those nodes.
  std::vector<std::uint8_t> sees_candidate_;
  // Free flag per arc, laid out at CSR arc positions (offsets[v] + i for
  // v's i-th incidence) — the same indexing the engine's inbox slots
  // use. w's flag for v is cleared by v's announcement: fault-free v
  // stores it through the reverse-arc table, under message faults w
  // stores it at delivery. Only w's stage-0 scan reads it.
  std::vector<std::uint8_t> neighbor_free_;

  Net net_;
  const std::vector<std::uint32_t>& rev_slot_;  // the store's reverse arcs
  bool faulty_ = false;
  std::vector<NodeId> wake_;  // woken for the next stage 0
};

}  // namespace detail

DistMatchingResult israeli_itai(const Graph& g,
                                const IsraeliItaiOptions& opts) {
  const NodeId n = g.num_nodes();
  if (!opts.active_edges.empty() && opts.active_edges.size() != g.num_edges()) {
    throw std::invalid_argument("israeli_itai: active_edges size mismatch");
  }
  if (opts.initial && opts.initial->num_nodes() != n) {
    throw std::invalid_argument("israeli_itai: initial matching size");
  }
  // A mask is a two-class labeling whose class 0 runs.
  std::vector<std::uint32_t> edge_class;
  std::vector<EdgeId> active;
  if (!opts.active_edges.empty()) {
    edge_class.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edge_class[e] = opts.active_edges[e] ? 0 : 1;
      if (opts.active_edges[e]) active.push_back(e);
    }
  }
  detail::IsraeliItaiProtocol ii(g, edge_class, {}, opts.seed, opts.pool);
  ii.step_all_nodes(opts.step_all_nodes);
  const std::unique_ptr<faults::MessageFaultInjector> injector =
      faults::make_message_injector(opts.faults, opts.seed);
  if (injector != nullptr) ii.set_message_faults(injector.get());
  if (opts.initial) ii.start_from(*opts.initial);
  if (!opts.active_edges.empty()) ii.restrict_to(0, active);

  DistMatchingResult out;
  out.converged = ii.run(opts.max_phases != 0
                             ? opts.max_phases
                             : israeli_itai_default_max_phases(n));
  if (injector != nullptr) out.resyncs = ii.resync();
  out.stats = ii.stats();
  std::vector<EdgeId> ids;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = ii.matched_edge(v);
    if (e != kInvalidEdge && g.edge(e).u == v && ii.claims(e)) ids.push_back(e);
  }
  out.matching = Matching::from_edges(g, ids);
  return out;
}

IsraeliItaiClassRuns::IsraeliItaiClassRuns(
    const Graph& g, std::span<const std::uint32_t> edge_class,
    std::span<const NodeId> degree, ThreadPool* pool) {
  if (edge_class.size() != g.num_edges() || degree.size() != g.num_nodes()) {
    throw std::invalid_argument(
        "IsraeliItaiClassRuns: one class per edge and one degree per node");
  }
  protocol_ = std::make_unique<detail::IsraeliItaiProtocol>(
      g, edge_class, degree, /*seed=*/0, pool);
}

IsraeliItaiClassRuns::~IsraeliItaiClassRuns() = default;

IsraeliItaiClassRuns::Run IsraeliItaiClassRuns::run(
    std::uint32_t c, std::span<const EdgeId> edges, std::uint64_t seed,
    std::uint64_t max_phases) {
  detail::IsraeliItaiProtocol& ii = *protocol_;
  for (const EdgeId e : edges) {
    if (!ii.in_class(e, c)) {
      throw std::invalid_argument("IsraeliItaiClassRuns: edge " +
                                  std::to_string(e) + " is not in class " +
                                  std::to_string(c));
    }
  }
  ii.restart(seed);
  ii.restrict_to(c, edges);
  Run out;
  out.converged = ii.run(max_phases != 0
                             ? max_phases
                             : israeli_itai_default_max_phases(ii.num_nodes()));
  out.stats = ii.stats();
  for (const EdgeId e : edges) {
    if (ii.claims(e)) out.matching.push_back(e);
  }
  ii.clear(edges);
  return out;
}

}  // namespace lps
