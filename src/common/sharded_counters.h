// corm-hotpath
//
// Sharded statistics counters for contention-free hot paths.
//
// A shared std::atomic<uint64_t> fetch_add per RPC puts every worker on the
// same cacheline: at data-plane rates the resulting coherence traffic is a
// measurable fraction of the per-op cost (FaRM and ScaleStore both shard
// their serving-loop counters for the same reason). Sharded<Shard> gives
// each worker its own cacheline-aligned block of counters; readers aggregate
// across shards with relaxed loads. Counts are monotonic and per-shard
// exact; an aggregate read concurrent with increments is a momentary
// snapshot, which is all statistics need.

#ifndef CORM_COMMON_SHARDED_COUNTERS_H_
#define CORM_COMMON_SHARDED_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace corm {

// One statistics counter inside a shard block: a relaxed atomic with
// value-like increment syntax. Cross-thread visibility of totals comes from
// the atomic itself; ordering never matters for monotonic counters.
class StatCounter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  StatCounter& operator+=(uint64_t n) {
    Add(n);
    return *this;
  }
  StatCounter& operator++() {
    Add(1);
    return *this;
  }
  uint64_t Load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// A fixed array of cacheline-aligned shard blocks. `Shard` is a plain
// struct of StatCounter fields; alignment keeps shard i's counters off
// every other shard's cachelines so per-worker increments never contend.
template <typename Shard>
class Sharded {
 public:
  explicit Sharded(size_t num_shards)
      // Shard array allocated once at construction; increments are plain
      // stores to the worker's own line. NOLINT(corm-hotpath-alloc)
      : n_(num_shards), shards_(std::make_unique<Padded[]>(num_shards)) {}

  Sharded(const Sharded&) = delete;
  Sharded& operator=(const Sharded&) = delete;

  size_t num_shards() const { return n_; }

  Shard& shard(size_t i) { return shards_[i].shard; }
  const Shard& shard(size_t i) const { return shards_[i].shard; }

  // Folds `fn(Shard&)` over every shard (aggregation on read).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < n_; ++i) fn(shards_[i].shard);
  }

 private:
  struct alignas(64) Padded {
    Shard shard;
  };

  const size_t n_;
  std::unique_ptr<Padded[]> shards_;
};

// One counter striped over kStripes cachelines, for counters bumped by
// threads that have no shard of their own (any thread may post an RDMA
// verb). Each thread adds to the stripe it was dealt round-robin on first
// use, so up to kStripes concurrent threads never share a line; load()
// sums the stripes and is exact once the adders are quiescent. The
// std::atomic-like load() keeps `stats().reads.load()` call sites intact.
class StripedCounter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(uint64_t n = 1) {
    stripes_[ThisThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t load() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };

  static size_t ThisThreadStripe() {
    static std::atomic<uint32_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace corm

#endif  // CORM_COMMON_SHARDED_COUNTERS_H_
