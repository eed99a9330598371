// SyncNetwork<M>: the synchronous message-passing model of the paper's
// Section 2, executable.
//
//   "in each time step, processors send (possibly different) messages to
//    neighbors, receive messages from neighbors, and perform some local
//    computation."
//
// Faithfulness points:
//  * Lock-step rounds. A message sent in round r is delivered at the
//    start of round r+1, and nothing else is ever delivered.
//  * One message per edge per direction per round (sending twice on the
//    same channel in one round throws): this is the model under which
//    the paper's CONGEST bit bounds are stated.
//  * Every message is metered in bits via a caller-supplied measure, so
//    LOCAL-vs-CONGEST claims (O(|V|+|E|) vs O(log n) bits) become
//    measurable quantities in `stats()`.
//  * A message a protocol applies itself instead of sending
//    (Ctx::charge) is metered all the same, in the round it is sent:
//    stats() cannot tell it from a delivered one. It is never delivered,
//    so a protocol may charge only a message whose effect nothing reads
//    before the round it would have arrived in (Israeli–Itai's
//    announcements, DESIGN.md §9).
//  * Per-(node, round) RNG substreams: the execution is a deterministic
//    function of the seed, independent of node iteration order — which
//    also makes thread-pool execution AND any shard count bit-identical
//    to sequential single-shard execution.
//
// Cost model of the implementation (not of the simulated protocols): a
// round costs O(stepped nodes + messages in flight), NOT O(n + m), and
// the constant stays flat as n grows because all per-round work is
// confined to cache-sized vertex shards (DESIGN.md §11):
//
//  * Epoch-stamped channels. Each directed channel (edge, direction) has
//    a round-stamp instead of a std::optional slot; "two sends on one
//    channel in one round" is a stamp comparison and there is no
//    O(m) per-round reset sweep.
//  * Structure-of-arrays message staging (DESIGN.md §15). A message in
//    flight is not a struct: its receiver, its receiver-side incidence
//    position (the inbox sort key), and its payload ride in parallel
//    typed columns, per worker at send time and per shard slice after
//    the exchange. Sender id and edge id are never stored at all — an
//    inbox entry's key names the arc offsets[to] + key, whose adj_to /
//    adj_edge entries are exactly the sender and the edge, so the
//    InboxView proxy re-derives both from the receiver's own (cache-
//    hot) CSR row at read time. The counting-sort passes therefore move
//    8–12 bytes + sizeof(M) per message instead of a 32-byte-plus
//    struct, and the inbox scan is a linear sweep over two contiguous
//    typed arrays.
//  * Sharded mailbox delivery. Vertices are partitioned into contiguous
//    power-of-two shards sized to the L2 cache (runtime/shard.hpp). A
//    round's sends are first counting-sorted by destination shard (the
//    boundary-exchange phase — the only pass that walks cross-shard
//    traffic), then each shard's slice is counting-sorted by receiver
//    and each inbox put into the receiver's incidence order. All
//    vertex-indexed bookkeeping accesses in the second phase fall
//    inside one shard's contiguous range, so they stay L2-resident at
//    any graph size. Inbox construction touches only real messages,
//    never the whole graph.
//  * Active-set scheduling. A node is stepped in a round iff it has
//    incoming messages, called ctx.keep_active() in the previous round,
//    or was activated for the round (activate(); the first round
//    defaults to every node unless restrict_initial_active() was
//    called). Active nodes are bucketed per shard and stepped shard by
//    shard, so node state and CSR rows are walked in shard order.
//    Protocols whose spontaneous sends cannot be expressed this way opt
//    out with step_all_nodes(), restoring the exact old
//    every-node-every-round semantics. Because nodes draw from
//    per-(node, round) substreams and an unstepped node would neither
//    send nor mutate state, an execution under active-set scheduling is
//    bit-identical to a step_all_nodes() execution whenever the protocol
//    keeps alive every node that might act without an incoming message.
//  * Reuse across runs. Construction costs O(n + m) (the per-arc and
//    per-node stamp tables, EngineTables); reset(seed) costs
//    O(workers + shards) and makes the next run bit-identical to one on
//    a fresh network with that seed, so a solver that runs many short
//    executions on one graph builds its network once. round() restarts
//    at 0, while the stamps are compared against an epoch base that
//    reset() moves past every stamp already written — no table is
//    swept, except once every 2^31 epochs (see kEpochSweepAt). reset()
//    clears the message columns and keeps their capacity, so a warm run
//    allocates only where a round outgrows every earlier one. Networks
//    with different message types can stamp one set of tables (the
//    sharing constructor): a solver that alternates two protocols on one
//    graph holds the graph-sized tables once.
//
// A node program is any callable `void step(Ctx& ctx)`; persistent node
// state lives in arrays owned by the algorithm object (indexed by node
// id). During a parallel round a node may only touch its own state and
// its own outgoing channels; all algorithms in src/core follow this.
//
// M must be default-constructible and movable. The bit meter is a
// template parameter so protocol meters (usually a constant or a small
// struct) are statically dispatched; the default falls back to
// std::function for ad-hoc lambdas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "faults/injector.hpp"
#include "graph/graph.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace lps {

/// Fallback meter when none is supplied: every message costs its wire
/// width, sizeof(M) * 8 bits.
template <typename M>
struct DefaultBitMeter {
  std::uint64_t operator()(const M&) const noexcept {
    return std::uint64_t{sizeof(M) * 8};
  }
};

template <typename M, typename Meter>
class SyncNetwork;

/// The graph-sized tables a round network stamps, O(n + m) to build:
/// per-arc channel metadata, per-receiver inbox bookkeeping and the
/// active-set stamps, plus the one epoch counter every stamp is drawn
/// from. Any number of networks, of any message types, may share one set,
/// provided their runs do not interleave: a network runs only while no
/// other network has run on the tables since its construction or its
/// last reset(), and after a round of its own threw, only from a reset()
/// (run_round throws std::logic_error otherwise).
class EngineTables {
 public:
  explicit EngineTables(const Graph& g)
      : graph_(g),
        inbox_meta_(g.num_nodes(), InboxMeta{kNeverEpoch, 0, 0, 0}),
        active_stamp_(g.num_nodes(), kNeverEpoch) {
    // Directed channels are indexed by CSR *arc*: the channel on which v
    // sends along its i-th incidence is arc offsets[v] + i. Senders then
    // stamp and read channel state at positions inside their own row —
    // shard-local by construction — instead of at edge-table positions
    // that are random relative to vertex order. Each arc v -> to also
    // carries v's position in to's row (the receiver-side incidence
    // position: the canonical inbox sort key), copied from the store's
    // shared reverse-arc table; it sits beside the channel's send stamp,
    // so the send path reads one per-arc location, not two.
    const std::vector<std::uint32_t>& rev = g.store().rev_slot();
    arc_meta_.reserve(rev.size());
    for (const std::uint32_t slot : rev) {
      arc_meta_.push_back(ArcMeta{kNeverEpoch, slot});
    }
  }

  /// The graph the tables were built for.
  const Graph& graph() const noexcept { return graph_; }

 private:
  template <typename, typename>
  friend class SyncNetwork;

  // Round stamps in the hot bookkeeping are 32-bit epochs: a run's
  // epoch base plus its round, truncated. kNeverEpoch doubles as "never
  // touched". Every run takes its base from epoch_, which each round
  // advances past the stamps it wrote, so a stamp left by an earlier run
  // (of any network on these tables) never equals a live epoch. Once the
  // count reaches kEpochSweepAt, the next run sweeps the three tables
  // back to kNeverEpoch and restarts it at 0. Every run thus starts
  // below 2^31, and a live stamp could alias kNeverEpoch (or wrap onto
  // an older stamp) only after more than 2^31 rounds of one run —
  // decades at any realistic rate — accepted in exchange for halving the
  // stamp footprint in the per-arc and per-receiver metadata.
  static constexpr std::uint32_t kNeverEpoch =
      static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kEpochSweepAt = std::uint32_t{1} << 31;

  /// Per-arc channel metadata, packed so the send path touches one
  /// 8-byte record per arc: the round of the channel's last send
  /// (double-send detection) and the receiver-side incidence position
  /// (the inbox sort key).
  struct ArcMeta {
    std::uint32_t stamp;
    std::uint32_t slot;
  };

  /// Per-receiver inbox bookkeeping, packed into 16 bytes so the
  /// exchange's counting passes and inbox_of() touch one cache line
  /// fragment per receiver instead of four separate arrays. `off` and
  /// `cur` index the delivery columns: per-round deliveries must fit in
  /// 32 bits (≥ 4.2B messages/round is far beyond the 2m channel bound
  /// for any graph this engine addresses).
  struct InboxMeta {
    std::uint32_t stamp;
    std::uint32_t cnt;
    std::uint32_t off;
    std::uint32_t cur;
  };

  /// The epoch base of a run starting now, sweeping first when due.
  std::uint32_t begin_run() {
    if (epoch_ >= kEpochSweepAt) {
      for (ArcMeta& am : arc_meta_) am.stamp = kNeverEpoch;
      for (InboxMeta& im : inbox_meta_) im.stamp = kNeverEpoch;
      std::fill(active_stamp_.begin(), active_stamp_.end(), kNeverEpoch);
      epoch_ = 0;
    }
    return static_cast<std::uint32_t>(epoch_);
  }

  Graph graph_;
  // Epoch-stamped directed channels (double-send detection) fused with
  // the precomputed receiver-side incidence position per channel.
  std::vector<ArcMeta> arc_meta_;      // 2m
  std::vector<InboxMeta> inbox_meta_;  // n
  std::vector<std::uint32_t> active_stamp_;  // n
  std::uint64_t epoch_ = 0;  // past every stamp written so far
};

template <typename M, typename Meter = std::function<std::uint64_t(const M&)>>
class SyncNetwork {
 public:
  /// A delivered message: sender, the edge it traveled on, payload, and
  /// the arrival edge's position in the receiver's incidence list
  /// (`slot` — so handlers can index per-slot state directly instead of
  /// scanning their row for the edge). The payload pointer is valid for
  /// the round the message is delivered in.
  struct Incoming {
    NodeId from;
    EdgeId edge;
    const M* payload;
    std::uint32_t slot;
  };

  /// Proxy over one receiver's slice of the delivery columns: `keys`
  /// (incidence positions, ascending) and `payloads`. `from` and `edge`
  /// are not stored anywhere — each is re-derived from the receiver's
  /// CSR row at the arc the key names, so iteration materializes
  /// Incoming values on the fly from contiguous typed arrays.
  class InboxView {
   public:
    InboxView() = default;
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    Incoming operator[](std::size_t i) const noexcept {
      const std::uint32_t k = keys_[i];
      return Incoming{row_to_[k], row_edge_[k], payloads_ + i, k};
    }

    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Incoming;
      using difference_type = std::ptrdiff_t;
      using pointer = const Incoming*;
      using reference = Incoming;
      iterator() = default;
      Incoming operator*() const noexcept { return (*view_)[i_]; }
      iterator& operator++() noexcept {
        ++i_;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator t = *this;
        ++i_;
        return t;
      }
      bool operator==(const iterator& o) const noexcept { return i_ == o.i_; }
      bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

     private:
      friend class InboxView;
      iterator(const InboxView* v, std::size_t i) : view_(v), i_(i) {}
      const InboxView* view_ = nullptr;
      std::size_t i_ = 0;
    };
    iterator begin() const noexcept { return iterator(this, 0); }
    iterator end() const noexcept { return iterator(this, size_); }

    /// Raw column access, for handlers that want the linear sweep.
    const std::uint32_t* keys() const noexcept { return keys_; }
    const M* payloads() const noexcept { return payloads_; }

   private:
    friend class SyncNetwork;
    InboxView(const std::uint32_t* keys, const M* payloads,
              const NodeId* row_to, const EdgeId* row_edge, std::size_t n)
        : keys_(keys),
          payloads_(payloads),
          row_to_(row_to),
          row_edge_(row_edge),
          size_(n) {}
    const std::uint32_t* keys_ = nullptr;
    const M* payloads_ = nullptr;
    const NodeId* row_to_ = nullptr;    // receiver's adj_to row base
    const EdgeId* row_edge_ = nullptr;  // receiver's adj_edge row base
    std::size_t size_ = 0;
  };

  using BitMeter = std::function<std::uint64_t(const M&)>;

 private:
  struct PerWorker;  // defined below; Ctx holds a pointer to its worker

 public:
  /// Per-node, per-round execution context.
  class Ctx {
   public:
    NodeId id() const noexcept { return id_; }
    std::uint64_t round() const noexcept { return net_->round_; }
    const Graph& graph() const noexcept { return net_->graph_; }
    /// The node's per-(node, round) substream, derived on first use —
    /// steps that never draw (most receivers, most rounds of most
    /// protocols) skip the hash entirely; the stream is the same either
    /// way, so laziness cannot perturb an execution.
    Rng& rng() noexcept {
      if (!rng_ready_) {
        rng_ = Rng::substream(net_->seed_, std::uint64_t{id_}, net_->round_);
        rng_ready_ = true;
      }
      return rng_;
    }
    const InboxView& inbox() const noexcept { return inbox_; }

    /// Send along edge e to the other endpoint (delivered next round).
    void send(EdgeId e, M msg) {
      net_->enqueue(id_, e, std::move(msg), *worker_);
    }

    /// Send a copy of msg to every neighbor (one row walk, no per-edge
    /// arc lookup).
    void send_all(const M& msg) { net_->enqueue_all(id_, msg, *worker_); }

    /// Meter `count` copies of msg as sent this round without queueing
    /// them, for messages whose effect the protocol applies itself. They
    /// count in stats() exactly like sent ones, but are never delivered
    /// and never keep run(stop_when_silent) going.
    void charge(std::uint64_t count, const M& msg) {
      worker_->stats.note_messages(count, net_->meter_(msg));
    }

    /// Stay in the next round's active set even without incoming
    /// messages. Call it whenever this node might act spontaneously next
    /// round; a no-op under step_all_nodes().
    void keep_active() {
      if (!net_->step_all_) worker_->wake.push_back(id_);
    }

   private:
    friend class SyncNetwork;
    SyncNetwork* net_ = nullptr;
    NodeId id_ = kInvalidNode;
    Rng rng_{0};
    bool rng_ready_ = false;
    InboxView inbox_;
    PerWorker* worker_ = nullptr;
  };

  /// Builds tables of its own for `g`, O(n + m). The network holds a
  /// copy of `g` (a shared reference to its store), so it stays valid for
  /// as long as it is kept, whatever happens to `g`.
  SyncNetwork(const Graph& g, std::uint64_t seed, Meter meter = Meter{})
      : SyncNetwork(setup_clock(), g, nullptr, seed, std::move(meter)) {}

  /// Runs on `tables` (non-null), shared with the networks already built
  /// on them, on the graph they were built for: O(workers + shards).
  SyncNetwork(std::shared_ptr<EngineTables> tables, std::uint64_t seed,
              Meter meter = Meter{})
      : SyncNetwork(setup_clock(), tables->graph(), tables, seed,
                    std::move(meter)) {}

 private:
  // The public constructors' body; `t_setup` (see setup_clock()) is
  // taken before any table is allocated, so the setup span covers them.
  SyncNetwork(std::uint64_t t_setup, const Graph& g,
              std::shared_ptr<EngineTables> tables, std::uint64_t seed,
              Meter meter)
      : graph_(g),
        seed_(seed),
        meter_(std::move(meter)),
        plan_(plan_shards(g.num_nodes(), /*requested=*/0)),
        tables_(tables != nullptr ? std::move(tables)
                                  : std::make_shared<EngineTables>(g)),
        arc_meta_(tables_->arc_meta_.data()),
        inbox_meta_(tables_->inbox_meta_.data()),
        active_stamp_(tables_->active_stamp_.data()),
        shard_active_(plan_.count),
        epoch_base_(tables_->begin_run()) {
    if constexpr (std::is_same_v<Meter, BitMeter>) {
      if (!meter_) meter_ = DefaultBitMeter<M>{};
    }
    trace_setup(t_setup, /*reset=*/false);
  }

 public:
  /// Restart the network for a new run with `seed`: the run is
  /// bit-identical to one on a fresh network built on the same graph
  /// with that seed and this network's meter, thread pool, shard plan,
  /// step_all_nodes() mode and fault injector, which are kept. round()
  /// restarts at 0 (steps and the per-(node, round) substreams read it);
  /// stats, the pending and delivered counters, pending activations and
  /// restrict_initial_active() are cleared; messages still in flight
  /// (sent in the last round, or held back by the fault layer) are
  /// dropped. The message columns keep their capacity. O(workers +
  /// shards + columns' contents), plus an O(n + m) stamp sweep once every
  /// 2^31 epochs (kEpochSweepAt). The next run starts past every stamp
  /// any network on these tables wrote.
  void reset(std::uint64_t seed) {
    const std::uint64_t t_setup = setup_clock();
    epoch_base_ = tables_->begin_run();
    for (PerWorker& w : workers_) {
      w.send_to.clear();
      w.send_key.clear();
      w.send_seq.clear();
      w.send_msg.clear();
      w.wake.clear();
    }
    scr_to_.clear();
    scr_key_.clear();
    scr_seq_.clear();
    scr_msg_.clear();
    dlv_key_.clear();
    dlv_seq_.clear();
    dlv_msg_.clear();
    for (std::vector<NodeId>& rs : shard_receivers_) rs.clear();
    active_.clear();
    for (std::vector<NodeId>& sa : shard_active_) sa.clear();
    delayed_.clear();
    dup_buf_.clear();
    pending_ = 0;
    seed_ = seed;
    round_ = 0;
    stats_ = NetStats{};
    delivered_last_round_ = 0;
    stepped_last_round_ = 0;
    pending_activations_.clear();
    initial_restricted_ = false;
    trace_setup(t_setup, /*reset=*/true);
  }

  /// Test hook: move the epoch base, and the tables' epoch count, to
  /// just below kEpochSweepAt, so the reset() (of any network on these
  /// tables) after the next run of at least one round sweeps the stamp
  /// tables and restarts the count at 0. Call only between runs: after
  /// construction or reset(), before the first round.
  void advance_epoch_base_for_testing() {
    if (round_ != 0) {
      throw std::logic_error("SyncNetwork: epoch base moved mid-run");
    }
    epoch_base_ = EngineTables::kEpochSweepAt - 1;
    tables_->epoch_ = epoch_base_;
  }

  /// Optional: step nodes with a thread pool (nullptr = sequential).
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }

  /// Repartition the vertex set: 0 = auto (cache-sized shards, the
  /// default), 1 = the pre-shard single-partition layout, k = at most k
  /// contiguous shards. Any value produces bit-identical executions;
  /// callable between rounds, and free when the plan does not change.
  /// Solvers keep the auto plan; only benches and engine tests call it.
  void set_shards(unsigned requested) {
    const ShardPlan plan = plan_shards(graph_.num_nodes(), requested);
    if (plan.shift == plan_.shift && plan.count == plan_.count) return;
    plan_ = plan;
    shard_active_.assign(plan_.count, {});
  }

  const Graph& graph() const noexcept { return graph_; }

  /// The tables the network stamps, for building another network on them.
  const std::shared_ptr<EngineTables>& tables() const noexcept {
    return tables_;
  }

  /// The number of vertex shards the mailbox and scheduler operate on.
  unsigned shards() const noexcept { return plan_.count; }

  /// Opt out of active-set scheduling: step every node every round, the
  /// exact semantics of the original engine. For protocols whose
  /// spontaneous sends cannot be expressed with keep_active()/activate().
  void step_all_nodes(bool on = true) noexcept { step_all_ = on; }

  /// Queue v for the next run_round's active set (on top of message
  /// receivers and keep_active callers). Callable between rounds only.
  void activate(NodeId v) { pending_activations_.push_back(v); }

  /// Drop the first round's every-node default: round 0 then steps only
  /// activate()d nodes (plus receivers — vacuous in round 0).
  void restrict_initial_active() noexcept { initial_restricted_ = true; }

  /// Attach a message-fault injector (nullptr = fault-free, the
  /// default; the injector is not owned and must outlive the network).
  /// Faults apply at the channel exchange: sends still succeed and are
  /// metered, but delivery may drop, duplicate, or delay the message.
  /// Fates are a pure function of (injector seed, channel, round), so
  /// executions stay bit-identical across thread and shard counts.
  void set_message_faults(
      const faults::MessageFaultInjector* injector) noexcept {
    faults_ = injector;
    seq_on_ = injector != nullptr && injector->message_faults();
    // The seq column is maintained only while message faults are on; if
    // the injector is attached between rounds with sends still staged,
    // backfill their seqs (all were sent in the round just executed).
    if (seq_on_) {
      const auto sent_round =
          static_cast<std::uint32_t>(round_ == 0 ? 0 : round_ - 1);
      for (PerWorker& w : workers_) {
        w.send_seq.resize(w.send_to.size(), sent_round);
      }
    }
  }

  const NetStats& stats() const noexcept { return stats_; }
  std::uint64_t round() const noexcept { return round_; }

  /// Messages delivered in the most recent round.
  std::uint64_t last_round_deliveries() const noexcept {
    return delivered_last_round_;
  }

  /// Nodes stepped in the most recent round (== n when stepping all).
  std::uint64_t last_round_stepped() const noexcept {
    return stepped_last_round_;
  }

  /// The nodes stepped in the most recent round, in step order; empty
  /// when that round stepped every node (step_all_nodes(), or round 0
  /// without restrict_initial_active()). Valid until the next round or
  /// reset().
  std::span<const NodeId> last_round_active() const noexcept {
    return active_;
  }

  /// Execute one synchronous round: deliver everything sent last round,
  /// step the round's active set (or every node), collect sends for the
  /// next round.
  template <typename Step>
  void run_round(Step&& step) {
    const Graph& g = graph_;
    const std::uint64_t stamp = std::uint64_t{epoch_base_} + round_;
    if (tables_->epoch_ != stamp) {
      throw std::logic_error(
          "SyncNetwork: another network ran on these tables, or a round "
          "threw, since this one's last reset()");
    }
    tables_->epoch_ = stamp + 1;  // past this round's stamps, even on a throw
    ensure_workers();
    ++stats_.rounds;

    // Telemetry gates, resolved once per round: two relaxed loads.
    const bool tmetrics = telemetry::enabled();
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const bool ttrace = tracer.recording();
    const bool tel = tmetrics || ttrace;
    const std::uint64_t this_round = round_;
    const std::uint64_t t_round = tel ? telemetry::now_ns() : 0;

    build_inboxes(tmetrics, ttrace);
    delivered_last_round_ = dlv_key_.size();

    const bool all = step_all_ || (round_ == 0 && !initial_restricted_);
    active_.clear();
    if (all) {
      for (PerWorker& w : workers_) w.wake.clear();
      pending_activations_.clear();
    } else {
      for (std::vector<NodeId>& sa : shard_active_) sa.clear();
      for (const std::vector<NodeId>& rs : shard_receivers_) {
        for (NodeId v : rs) mark_active(v);
      }
      for (PerWorker& w : workers_) {
        for (NodeId v : w.wake) mark_active(v);
        w.wake.clear();
      }
      for (NodeId v : pending_activations_) mark_active(v);
      pending_activations_.clear();
      // Flatten in shard order: the step loop then walks node state and
      // CSR rows one cache-sized shard at a time.
      for (const std::vector<NodeId>& sa : shard_active_) {
        active_.insert(active_.end(), sa.begin(), sa.end());
      }
    }
    const std::size_t count = all ? g.num_nodes() : active_.size();
    stepped_last_round_ = count;

    const std::uint64_t t_step = tel ? telemetry::now_ns() : 0;
    auto process = [&](unsigned worker, std::size_t begin, std::size_t end) {
      PerWorker& pw = workers_[worker];
      const std::uint64_t t_chunk = tel ? telemetry::now_ns() : 0;
      // One Ctx per chunk, reset per node: constructing the embedded Rng
      // runs the xoshiro seeding expansion, pure waste for steps that
      // never draw (rng() re-seeds from the substream on first use).
      Ctx ctx;
      ctx.net_ = this;
      ctx.worker_ = &pw;
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId node = all ? static_cast<NodeId>(i) : active_[i];
        ctx.id_ = node;
        ctx.rng_ready_ = false;
        ctx.inbox_ = inbox_of(node);
        step(ctx);
      }
      if (tel) pw.busy_ns += telemetry::now_ns() - t_chunk;
    };
    if (pool_ != nullptr && pool_->num_threads() > 1) {
      pool_->parallel_for_workers(0, count, 256, process);
    } else {
      process(0, 0, count);
    }
    const std::uint64_t t_step_end = tel ? telemetry::now_ns() : 0;

    // One stat merge per round (per-worker slots; no mutex anywhere).
    std::uint64_t sent = 0;
    std::uint64_t bits = 0;
    std::uint64_t queued = 0;
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      PerWorker& w = workers_[wi];
      sent += w.stats.messages;
      queued += w.send_to.size();
      bits += w.stats.total_bits;
      stats_.max_message_bits =
          std::max(stats_.max_message_bits, w.stats.max_message_bits);
      w.stats = NetStats{};
      if (tmetrics && w.busy_ns != 0) {
        telemetry::EngineMetrics::get().worker_busy_ns.add(wi, w.busy_ns);
      }
      w.busy_ns = 0;  // unconditional: no stale carry if telemetry toggles
    }
    stats_.messages += sent;
    stats_.total_bits += bits;
    // Queued and held-back messages are in flight (charged ones never
    // are): run(stop_when_silent) must not declare the network silent
    // while deliveries are still due.
    pending_ = queued + delayed_.size();
    ++round_;

    if (tel) {
      const std::uint64_t t_end = telemetry::now_ns();
      if (tmetrics) {
        telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
        em.rounds.add(1);
        em.messages_delivered.add(delivered_last_round_);
        em.round_ns.record(t_end - t_round);
        em.step_ns.record(t_step_end - t_step);
        em.messages_per_round.push(delivered_last_round_);
      }
      if (ttrace) {
        const auto r = static_cast<double>(this_round);
        tracer.emit("engine.step", "engine", t_step, t_step_end - t_step,
                    {{"round", r},
                     {"stepped", static_cast<double>(stepped_last_round_)}});
        tracer.emit(
            "engine.round", "engine", t_round, t_end - t_round,
            {{"round", r},
             {"delivered", static_cast<double>(delivered_last_round_)},
             {"sent", static_cast<double>(sent)}});
      }
    }
  }

  /// Run up to max_rounds; with stop_when_silent, stop after a round in
  /// which no node sent any message AND nothing is pending (for purely
  /// message-driven protocols further rounds are no-ops). Returns the
  /// number of rounds executed.
  template <typename Step>
  std::uint64_t run(std::uint64_t max_rounds, bool stop_when_silent,
                    Step&& step) {
    std::uint64_t executed = 0;
    for (; executed < max_rounds; ++executed) {
      run_round(step);
      if (stop_when_silent && pending_ == 0) {
        ++executed;
        break;
      }
    }
    return executed;
  }

 private:
  using ArcMeta = EngineTables::ArcMeta;
  using InboxMeta = EngineTables::InboxMeta;

  /// This round's stamp (see EngineTables).
  std::uint32_t epoch() const noexcept {
    return static_cast<std::uint32_t>(epoch_base_ + round_);
  }

  /// Start time of a setup to trace, or 0 when the tracer is off.
  static std::uint64_t setup_clock() noexcept {
    return telemetry::Tracer::global().recording() ? telemetry::now_ns() : 0;
  }

  /// Record a construction (reset = 0) or a reset (reset = 1) as an
  /// `engine.setup` span.
  void trace_setup(std::uint64_t t0, bool reset) const {
    if (t0 == 0) return;
    telemetry::Tracer::global().emit(
        "engine.setup", "engine", t0, telemetry::now_ns() - t0,
        {{"reset", reset ? 1.0 : 0.0},
         {"nodes", static_cast<double>(graph_.num_nodes())}});
  }

  /// Per-worker accumulators, cache-line separated. Only the worker that
  /// owns the struct touches it during a round.
  ///
  /// Outbound sends are parallel columns, fully resolved at enqueue
  /// time: `send_to[i]` is message i's receiver, `send_key[i]` the
  /// receiver-side incidence position of its arrival arc (which also
  /// determines sender and edge — see InboxView), `send_msg[i]` the
  /// payload. `send_seq` (the send round, the inbox tiebreak when fault
  /// injection lands two messages from one channel in one round) is
  /// populated only while message faults are active: fault-free inboxes
  /// never repeat a key, so the column would be dead weight in the
  /// exchange sweeps.
  struct alignas(64) PerWorker {
    std::vector<NodeId> send_to;
    std::vector<std::uint32_t> send_key;
    std::vector<std::uint32_t> send_seq;
    std::vector<M> send_msg;
    std::vector<NodeId> wake;
    NetStats stats;
    std::uint64_t busy_ns = 0;  // step-loop time this round (telemetry)
  };

  void enqueue(NodeId from, EdgeId e, M msg, PerWorker& w) {
    // Resolve the arc (from, e) by scanning the sender's own row — the
    // step function was just iterating it, so it is cache-hot, and the
    // resulting channel index is local to the sender's shard.
    const GraphStore& s = graph_.store();
    const std::uint64_t base = s.offsets[from];
    const std::uint64_t end = s.offsets[from + 1];
    std::uint64_t arc = base;
    while (arc < end && s.adj_edge[arc] != e) ++arc;
    if (arc == end) {
      throw std::logic_error("SyncNetwork::send: sender not an endpoint");
    }
    ArcMeta& am = arc_meta_[arc];
    if (am.stamp == epoch()) {
      throw std::logic_error(
          "SyncNetwork::send: two messages on one channel in one round");
    }
    am.stamp = epoch();
    w.stats.note_message(meter_(msg));
    w.send_to.push_back(s.adj_to[arc]);
    w.send_key.push_back(am.slot);
    if (seq_on_) w.send_seq.push_back(static_cast<std::uint32_t>(round_));
    w.send_msg.push_back(std::move(msg));
  }

  /// send_all: one pass over the sender's row, no per-edge arc lookup.
  void enqueue_all(NodeId from, const M& msg, PerWorker& w) {
    const GraphStore& s = graph_.store();
    const std::uint64_t base = s.offsets[from];
    const std::uint64_t end = s.offsets[from + 1];
    for (std::uint64_t arc = base; arc < end; ++arc) {
      ArcMeta& am = arc_meta_[arc];
      if (am.stamp == epoch()) {
        throw std::logic_error(
            "SyncNetwork::send: two messages on one channel in one round");
      }
      am.stamp = epoch();
      w.stats.note_message(meter_(msg));
      w.send_to.push_back(s.adj_to[arc]);
      w.send_key.push_back(am.slot);
      if (seq_on_) w.send_seq.push_back(static_cast<std::uint32_t>(round_));
      w.send_msg.push_back(msg);
    }
  }

  void ensure_workers() {
    const std::size_t want =
        (pool_ != nullptr && pool_->num_threads() > 1) ? pool_->num_threads()
                                                       : 1;
    if (workers_.size() < want) workers_.resize(want);
  }

  void mark_active(NodeId v) {
    if (active_stamp_[v] != epoch()) {
      active_stamp_[v] = epoch();
      shard_active_[plan_.shard_of(v)].push_back(v);
    }
  }

  /// A message pulled out of the normal flow by a fault (delayed, or a
  /// duplicate awaiting re-injection). Cold path, so a plain struct.
  struct PendingRec {
    std::uint64_t due;  // round at whose exchange it re-enters
    NodeId to;
    std::uint32_t key;
    std::uint32_t seq;
    M msg;
  };

  void push_pending(PendingRec&& rec) {
    PerWorker& w = workers_[0];
    w.send_to.push_back(rec.to);
    w.send_key.push_back(rec.key);
    w.send_seq.push_back(rec.seq);
    w.send_msg.push_back(std::move(rec.msg));
  }

  /// Apply message fates to last round's sends, serially, before the
  /// counting-sort phases see them. Each message is decided exactly once
  /// (at its first delivery attempt); a delayed message is re-injected
  /// verbatim in its due round. Re-injected and duplicated records ride
  /// in worker 0's columns — which worker carries a record never
  /// matters, because the per-inbox (key, seq) sort fixes the final
  /// order. The fate is keyed on (edge, sender, round); both derive
  /// from the receiver-side arc named by the message's key. With `ttrace`
  /// every fate other than delivery is recorded as a trace instant.
  void inject_message_faults(bool ttrace) {
    const GraphStore& s = graph_.store();
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    for (PerWorker& w : workers_) {
      const std::size_t n_sends = w.send_to.size();
      std::size_t out = 0;
      for (std::size_t i = 0; i < n_sends; ++i) {
        const NodeId to = w.send_to[i];
        const std::uint32_t key = w.send_key[i];
        const std::uint64_t arc = s.offsets[to] + key;
        const EdgeId edge = s.adj_edge[arc];
        const NodeId from = s.adj_to[arc];
        const faults::MessageFate fate = faults_->decide(edge, from, round_);
        if (fate.drop) {
          if (ttrace) {
            tracer.event(telemetry::EventKind::kDrop, round_, edge, from);
          }
          continue;
        }
        if (fate.delay > 0) {
          if (ttrace) {
            tracer.event(telemetry::EventKind::kDelay, round_, edge, from,
                         fate.delay);
          }
          delayed_.push_back(PendingRec{round_ + fate.delay, to, key,
                                        w.send_seq[i],
                                        std::move(w.send_msg[i])});
          continue;
        }
        if (fate.dup) {
          if constexpr (std::is_copy_constructible_v<M>) {
            if (ttrace) {
              tracer.event(telemetry::EventKind::kDup, round_, edge, from);
            }
            dup_buf_.push_back(
                PendingRec{round_, to, key, w.send_seq[i], w.send_msg[i]});
          }
        }
        if (out != i) {
          w.send_to[out] = to;
          w.send_key[out] = key;
          w.send_seq[out] = w.send_seq[i];
          w.send_msg[out] = std::move(w.send_msg[i]);
        }
        ++out;
      }
      w.send_to.resize(out);
      w.send_key.resize(out);
      w.send_seq.resize(out);
      w.send_msg.resize(out);
    }
    for (PendingRec& rec : dup_buf_) push_pending(std::move(rec));
    dup_buf_.clear();
    if (!delayed_.empty()) {
      std::size_t keep = 0;
      for (PendingRec& d : delayed_) {
        if (d.due <= round_) {
          push_pending(std::move(d));
        } else {
          delayed_[keep++] = std::move(d);
        }
      }
      delayed_.resize(keep);
    }
  }

  /// Put one inbox range [off, off + cnt) of the delivery columns into
  /// incidence order: ascending key, ties (possible only under message
  /// faults, where colliding records are bit-identical copies) broken
  /// by ascending seq. Small inboxes use an insertion sort that co-moves
  /// the columns; large ones sort a permutation and apply it, keeping
  /// the worst case O(cnt log cnt).
  void sort_inbox(std::size_t off, std::uint32_t cnt, bool with_seq) {
    if (cnt < 2) return;
    std::uint32_t* keys = dlv_key_.data() + off;
    M* msgs = dlv_msg_.data() + off;
    std::uint32_t* seqs = with_seq ? dlv_seq_.data() + off : nullptr;
    constexpr std::uint32_t kInsertionMax = 32;
    if (cnt <= kInsertionMax) {
      for (std::uint32_t i = 1; i < cnt; ++i) {
        const std::uint32_t k = keys[i];
        const std::uint32_t q = with_seq ? seqs[i] : 0;
        if (keys[i - 1] < k || (keys[i - 1] == k && (!with_seq || seqs[i - 1] <= q))) {
          continue;  // already in place — the common case
        }
        M m = std::move(msgs[i]);
        std::uint32_t j = i;
        for (; j > 0 && (keys[j - 1] > k ||
                         (keys[j - 1] == k && with_seq && seqs[j - 1] > q));
             --j) {
          keys[j] = keys[j - 1];
          if (with_seq) seqs[j] = seqs[j - 1];
          msgs[j] = std::move(msgs[j - 1]);
        }
        keys[j] = k;
        if (with_seq) seqs[j] = q;
        msgs[j] = std::move(m);
      }
      return;
    }
    std::vector<std::uint32_t> order(cnt);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (keys[a] != keys[b]) return keys[a] < keys[b];
                return with_seq && seqs[a] < seqs[b];
              });
    std::vector<std::uint32_t> tmp_k(cnt);
    std::vector<M> tmp_m(cnt);
    for (std::uint32_t i = 0; i < cnt; ++i) {
      tmp_k[i] = keys[order[i]];
      tmp_m[i] = std::move(msgs[order[i]]);
    }
    std::move(tmp_k.begin(), tmp_k.end(), keys);
    std::move(tmp_m.begin(), tmp_m.end(), msgs);
    if (with_seq) {
      for (std::uint32_t i = 0; i < cnt; ++i) tmp_k[i] = seqs[order[i]];
      std::move(tmp_k.begin(), tmp_k.end(), seqs);
    }
  }

  /// Merge last round's per-worker send columns into contiguous
  /// per-receiver inbox ranges, in two counting-sort phases:
  ///
  ///  1. Boundary exchange: scatter every send into its destination
  ///     shard's slice of the scratch columns (counting sort on shard
  ///     id — the only pass whose memory touches are cross-shard).
  ///  2. Per shard: counting-sort the shard's slice by receiver into
  ///     the delivery columns and put each inbox range into incidence
  ///     order. Every vertex-indexed access (stamps, counts, offsets)
  ///     falls in the shard's contiguous id range, which is sized to L2.
  ///
  /// Both passes are linear sweeps over the typed columns: per message
  /// they move {to, key[, seq]} plus the payload and nothing else.
  /// O(messages + active shards). Shard slices are disjoint in every
  /// array they touch, so phase 2 runs shard-parallel under a pool.
  void build_inboxes(bool tmetrics, bool ttrace) {
    const bool tel = tmetrics || ttrace;
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    // Fault seam: one branch per round while no injector is attached;
    // the serial pass mutates only per-worker send columns plus the
    // delayed queue, before any counting begins.
    if (faults_ != nullptr && faults_->message_faults()) {
      inject_message_faults(ttrace);
    }
    const bool with_seq = seq_on_;
    std::size_t total = 0;
    for (const PerWorker& w : workers_) total += w.send_to.size();
    dlv_key_.clear();
    dlv_seq_.clear();
    dlv_msg_.clear();
    if (shard_receivers_.size() != plan_.count) {
      shard_receivers_.assign(plan_.count, {});
    }
    for (std::vector<NodeId>& rs : shard_receivers_) rs.clear();
    if (total == 0) return;

    const std::uint64_t t_p1 = tel ? telemetry::now_ns() : 0;
    const unsigned num_shards = plan_.count;
    // Phase 1: bin by destination shard.
    shard_cnt_.assign(num_shards + 1, 0);
    for (const PerWorker& w : workers_) {
      for (const NodeId to : w.send_to) {
        ++shard_cnt_[plan_.shard_of(to) + 1];
      }
    }
    for (unsigned s = 0; s < num_shards; ++s) {
      shard_cnt_[s + 1] += shard_cnt_[s];
    }
    shard_off_ = shard_cnt_;  // keep range boundaries; shard_cnt_ cursors
    scr_to_.resize(total);
    scr_key_.resize(total);
    if (with_seq) scr_seq_.resize(total);
    scr_msg_.resize(total);
    for (PerWorker& w : workers_) {
      const std::size_t k = w.send_to.size();
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t pos = shard_cnt_[plan_.shard_of(w.send_to[i])]++;
        scr_to_[pos] = w.send_to[i];
        scr_key_[pos] = w.send_key[i];
        if (with_seq) scr_seq_[pos] = w.send_seq[i];
        scr_msg_[pos] = std::move(w.send_msg[i]);
      }
      w.send_to.clear();
      w.send_key.clear();
      w.send_seq.clear();
      w.send_msg.clear();
    }
    const std::uint64_t t_p1_end = tel ? telemetry::now_ns() : 0;
    if (tmetrics) {
      telemetry::EngineMetrics::get().exchange_p1_ns.record(t_p1_end - t_p1);
    }
    if (ttrace) {
      tracer.emit("engine.exchange.p1", "engine", t_p1, t_p1_end - t_p1,
                  {{"round", static_cast<double>(round_)},
                   {"msgs", static_cast<double>(total)}});
    }

    // Phase 2: within each shard, counting-sort by receiver. A shard's
    // deliveries occupy exactly its slice [shard_off_[s], shard_off_[s+1])
    // of the delivery columns, so shards are independent.
    dlv_key_.resize(total);
    if (with_seq) dlv_seq_.resize(total);
    dlv_msg_.resize(total);
    const std::uint32_t tag = epoch();
    auto build_shard = [&](unsigned s) {
      const std::size_t sb = shard_off_[s];
      const std::size_t se = shard_off_[s + 1];
      if (sb == se) return;
      const std::uint64_t t_s0 = tel ? telemetry::now_ns() : 0;
      std::vector<NodeId>& recv = shard_receivers_[s];
      for (std::size_t i = sb; i < se; ++i) {
        InboxMeta& im = inbox_meta_[scr_to_[i]];
        if (im.stamp != tag) {
          im.stamp = tag;
          im.cnt = 0;
          recv.push_back(scr_to_[i]);
        }
        ++im.cnt;
      }
      std::uint32_t off = static_cast<std::uint32_t>(sb);
      for (NodeId r : recv) {
        InboxMeta& im = inbox_meta_[r];
        im.off = off;
        im.cur = off;
        off += im.cnt;
      }
      for (std::size_t i = sb; i < se; ++i) {
        const std::size_t pos = inbox_meta_[scr_to_[i]].cur++;
        dlv_key_[pos] = scr_key_[i];
        if (with_seq) dlv_seq_[pos] = scr_seq_[i];
        dlv_msg_[pos] = std::move(scr_msg_[i]);
      }
      const std::uint64_t t_s1 = tel ? telemetry::now_ns() : 0;
      for (NodeId r : recv) {
        sort_inbox(inbox_meta_[r].off, inbox_meta_[r].cnt, with_seq);
      }
      if (faults_ != nullptr && faults_->reorder()) {
        // Deterministic per-(receiver, round) Fisher-Yates over the
        // sorted inbox: the permutation depends on neither thread nor
        // shard assignment, so perturbed executions stay reproducible.
        for (NodeId r : recv) {
          const std::uint32_t cnt = inbox_meta_[r].cnt;
          if (cnt < 2) continue;
          Rng rr = faults_->reorder_rng(r, round_);
          const std::size_t base = inbox_meta_[r].off;
          for (std::uint32_t i = cnt; i > 1; --i) {
            const std::uint32_t j = rr.below(i);
            std::swap(dlv_key_[base + i - 1], dlv_key_[base + j]);
            if (with_seq) std::swap(dlv_seq_[base + i - 1], dlv_seq_[base + j]);
            std::swap(dlv_msg_[base + i - 1], dlv_msg_[base + j]);
          }
        }
      }
      if (tel) {
        const std::uint64_t t_s2 = telemetry::now_ns();
        if (tmetrics) {
          telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
          em.exchange_p2_ns.record(t_s1 - t_s0);
          em.inbox_sort_ns.record(t_s2 - t_s1);
          em.shard_exchange_ns.add(s, t_s2 - t_s0);
        }
        if (ttrace) {
          const auto rd = static_cast<double>(round_);
          const auto sh = static_cast<double>(s);
          tracer.emit("engine.exchange.p2", "engine", t_s0, t_s1 - t_s0,
                      {{"shard", sh},
                       {"round", rd},
                       {"msgs", static_cast<double>(se - sb)}});
          tracer.emit("engine.inbox.sort", "engine", t_s1, t_s2 - t_s1,
                      {{"shard", sh}, {"round", rd}});
        }
      }
    };
    if (pool_ != nullptr && pool_->num_threads() > 1 && num_shards > 1) {
      pool_->parallel_for_workers(
          0, num_shards, 1,
          [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
              build_shard(static_cast<unsigned>(s));
            }
          });
    } else {
      for (unsigned s = 0; s < num_shards; ++s) build_shard(s);
    }
    // No materialization pass follows: inbox_of() hands out views over
    // the delivery columns directly.
  }

  InboxView inbox_of(NodeId v) const {
    const InboxMeta& im = inbox_meta_[v];
    if (dlv_key_.empty() || im.stamp != epoch()) return {};
    const GraphStore& s = graph_.store();
    const std::uint64_t base = s.offsets[v];
    return InboxView(dlv_key_.data() + im.off, dlv_msg_.data() + im.off,
                     s.adj_to.data() + base, s.adj_edge.data() + base,
                     im.cnt);
  }

  Graph graph_;
  std::uint64_t seed_;
  Meter meter_;
  ThreadPool* pool_ = nullptr;
  ShardPlan plan_;

  // The stamp tables, possibly shared with other networks, and their
  // columns' storage, which never moves once built.
  std::shared_ptr<EngineTables> tables_;
  ArcMeta* arc_meta_;             // 2m
  InboxMeta* inbox_meta_;         // n
  std::uint32_t* active_stamp_;   // n

  // This round's mailbox, as parallel columns: shard-binned staging
  // (scr_*) then receiver-grouped, inbox-ordered deliveries (dlv_*),
  // plus the per-receiver range bookkeeping (all stamped by round, so
  // none of it is ever swept). The seq columns stay empty unless
  // message faults are active.
  std::vector<NodeId> scr_to_;
  std::vector<std::uint32_t> scr_key_;
  std::vector<std::uint32_t> scr_seq_;
  std::vector<M> scr_msg_;
  std::vector<std::uint32_t> dlv_key_;
  std::vector<std::uint32_t> dlv_seq_;
  std::vector<M> dlv_msg_;
  std::vector<std::vector<NodeId>> shard_receivers_;
  std::vector<std::size_t> shard_cnt_;  // shards+1; reused as cursors
  std::vector<std::size_t> shard_off_;  // shards+1

  // Active-set scheduling state, bucketed per shard.
  std::vector<NodeId> active_;
  std::vector<NodeId> pending_activations_;
  std::vector<std::vector<NodeId>> shard_active_;
  bool step_all_ = false;
  bool initial_restricted_ = false;

  std::vector<PerWorker> workers_;

  const faults::MessageFaultInjector* faults_ = nullptr;  // not owned
  bool seq_on_ = false;  // maintain seq columns (message faults active)
  std::vector<PendingRec> delayed_;
  std::vector<PendingRec> dup_buf_;

  std::uint64_t round_ = 0;
  std::uint32_t epoch_base_;  // see epoch(); taken from tables_ by reset()
  std::uint64_t pending_ = 0;  // messages awaiting delivery next round
  std::uint64_t delivered_last_round_ = 0;
  std::uint64_t stepped_last_round_ = 0;
  NetStats stats_;
};

}  // namespace lps
