// NetworkSlot<Net>: a round network that a solver's per-solve scratch
// keeps across the passes of one solve (SyncNetwork::reset restarts it),
// declared in a header that cannot see the network's definition — the
// message type is private to one .cpp, so the header only forward-
// declares `Net`. The slot deletes the network through a deleter that
// emplace() records, so only emplace() needs `Net` to be complete.
//
// Copying a slot yields an empty one: the network is working memory,
// not part of the scratch's value, and a copy builds its own network on
// first use.
#pragma once

#include <memory>
#include <utility>

namespace lps {

template <typename Net>
class NetworkSlot {
 public:
  NetworkSlot() = default;
  NetworkSlot(const NetworkSlot&) noexcept {}
  NetworkSlot& operator=(const NetworkSlot& other) noexcept {
    if (this != &other) net_.reset();
    return *this;
  }
  NetworkSlot(NetworkSlot&&) noexcept = default;
  NetworkSlot& operator=(NetworkSlot&&) noexcept = default;

  /// The held network, or nullptr before the first emplace().
  Net* get() const noexcept { return net_.get(); }

  /// Replace the held network with Net(args...).
  template <typename... Args>
  Net& emplace(Args&&... args) {
    net_ = std::unique_ptr<Net, Deleter>(
        new Net(std::forward<Args>(args)...),
        Deleter{[](Net* net) { delete net; }});
    return *net_;
  }

 private:
  struct Deleter {
    void (*destroy)(Net*) = nullptr;
    void operator()(Net* net) const noexcept { destroy(net); }
  };
  std::unique_ptr<Net, Deleter> net_;
};

}  // namespace lps
