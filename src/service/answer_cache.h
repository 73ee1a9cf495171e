// δ-overlap semantic answer cache: the paper's degree-of-overlapping δ
// (Equation 9) promoted from a prediction weight to a serving-layer
// cache-admission predicate.
//
// A cached (query, answer) pair answers a new query q when the two query
// balls overlap (Definition 6) AND their overlap degree δ(q, q') meets the
// configured δ_min. δ = 1 only for identical balls and decays toward 0 as
// the balls drift apart, so δ_min directly trades answer staleness-in-space
// for hit rate: δ_min = 1 caches only exact repeats; δ_min → 0 admits any
// overlapping neighbour.
//
// Concurrency & cost:
//   - Entries live in per-key *groups* (the router keys by "dataset/kind"),
//     evicted LRU per group; groups are hashed over `num_shards` shards,
//     each guarded by one reader/writer lock.
//   - Lookup holds its shard's lock shared: readers of one shard run in
//     parallel and only wait while a writer of that same shard is inside
//     its critical section. A hit copies the answer out and records the LRU
//     touch as an atomic ticket stamp on the hit slot.
//   - Insert holds the lock exclusively and edits the group in place. A
//     group is a slot array plus a parallel, contiguous LRU stamp array and
//     a probe grid (cell → slot indices). An exact-duplicate query is found
//     through the new center's grid cell and overwritten; otherwise the
//     entry takes a fresh slot or, at capacity, the slot of the minimum
//     stamp (exact LRU: every insert and every hit draws a fresh ticket),
//     and only the two affected grid cells change. Nothing the size of the
//     group is copied or rebuilt per insert.
//   - Hit/miss/insert counters are per-shard atomics, so they stay exact
//     under any reader/writer interleaving.
//   - Admission bounds both the center distance and the θ ratio:
//     δ(q, q') ≥ δ_min implies ||x - x'|| ≤ (1 - δ_min)(θ + θ') and
//     θ' ∈ [θ/r, θ·r] with r = (2 - δ_min)/δ_min. The probe grid is keyed
//     by θ band as well as by cell: band b holds θ ∈ [W^b, W^(b+1)), W the
//     smallest power of two ≥ max(r², 2), so a lookup visits at most two
//     bands; each band's cell edge is sized from its top θ, so a lookup
//     visits at most 3^d cells per band however widely θ is spread in the
//     group. The probe allocates nothing. It falls back to the linear probe
//     only when enable_grid is off, at δ_min = 0 (r unbounded), when the
//     cell fan-out is not smaller than the group, when d exceeds a fixed
//     stack bound, or when cell coordinates would leave the exactly
//     representable range. Both paths pick the same entry: an exact repeat
//     wins outright, otherwise the highest δ, ties going to the most
//     recently inserted entry.
//
// All operations are thread-safe.

#ifndef QREG_SERVICE_ANSWER_CACHE_H_
#define QREG_SERVICE_ANSWER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/prototype.h"
#include "query/query.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace qreg {
namespace service {

/// \brief Cache sizing and admission parameters.
struct AnswerCacheConfig {
  /// Max cached answers per group (dataset × query kind). LRU beyond this.
  size_t capacity_per_shard = 512;

  /// Minimum degree of overlapping δ(q, q') (Eq. 9) for a cached answer to
  /// be reused. In [0, 1].
  double delta_min = 0.9;

  /// Lock shards the groups are hashed over. More shards = less contention
  /// between datasets/kinds; clamped to at least 1.
  size_t num_shards = 8;

  /// θ-banded grid bucketing of cached query centers inside each group.
  /// Disable to force the linear δ-probe (the correctness baseline).
  bool enable_grid = true;
};

/// \brief The reusable payload of one cached answer (Q1 scalar and/or the
/// Q2 list S of local linear models).
struct CachedAnswer {
  query::Query q;      ///< The query that produced this answer.
  double mean = 0.0;   ///< Q1 payload.
  std::vector<core::LocalLinearModel> pieces;  ///< Q2 payload.
  double delta = 1.0;  ///< δ(probe, q) of the admitting lookup (output only).
};

/// \brief Monotonic hit/miss/evict counters.
struct AnswerCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;
  int64_t grid_probes = 0;    ///< Lookups served by the grid path.
  int64_t linear_probes = 0;  ///< Lookups served by the linear path.

  double HitRate() const {
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                       : 0.0;
  }
};

/// \brief Thread-safe sharded LRU cache with δ-overlap admission; reads
/// share a per-shard reader/writer lock, writes edit groups in place.
class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheConfig config);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Probes the group for the cached query with the highest δ(q, ·) ≥ δ_min
  /// among overlapping entries (an exact repeat wins outright; equal δ goes
  /// to the most recently inserted entry). On a hit fills `*out` (with
  /// `out->delta` set to the achieved overlap degree), touches the entry's
  /// LRU stamp, and returns true. Holds the shard lock shared.
  bool Lookup(const std::string& group, const query::Query& q,
              CachedAnswer* out);

  /// Caches an answer, evicting the group's least-recently-used entry beyond
  /// capacity. A second insert with an identical query replaces the previous
  /// answer. A Lookup that starts after Insert returns sees the entry.
  void Insert(const std::string& group, CachedAnswer answer);

  void Clear();

  /// Erases every group whose key starts with `group_prefix` and returns the
  /// number of cached entries dropped. The router uses this to invalidate a
  /// dataset's answers after a drift retrain: cache keys carry the model
  /// generation ("dataset/g<N>/kind"), so a generation swap already stops
  /// stale entries from being served — this reclaims their memory.
  size_t EraseGroupsWithPrefix(const std::string& group_prefix);

  AnswerCacheStats stats() const;  ///< Aggregated over all shards.
  size_t size() const;             ///< Total entries across groups.

  /// Probe-grid cells across all groups. Empty cells are dropped, so this
  /// never exceeds size(); tests check that bound.
  size_t grid_cells_for_testing() const;

  const AnswerCacheConfig& config() const { return config_; }

 private:
  /// One cached entry. `seq` is the shard ticket drawn when the entry was
  /// inserted (the δ tie-break); `cell` is its grid key (θ band and cell).
  struct Slot {
    CachedAnswer answer;
    uint64_t seq = 0;
    uint64_t cell = 0;
  };

  /// LRU ticket of one slot. Readers stamp it under the shared lock, so it
  /// is atomic; the copy constructor only runs while the stamp array grows
  /// under the exclusive lock, when no reader can touch it.
  struct Stamp {
    mutable std::atomic<uint64_t> ticket;
    explicit Stamp(uint64_t t) : ticket(t) {}
    Stamp(const Stamp& other)
        : ticket(other.ticket.load(std::memory_order_relaxed)) {}
    Stamp& operator=(const Stamp&) = delete;
  };

  /// Probe grid of one group: maps a grid key (a θ band and cell
  /// coordinates hash; collisions merely merge cells — extra candidates,
  /// never missed ones) to the slots in that cell. A flat open-addressing
  /// table (linear probing, backward-shift erase, at most half full) holds
  /// each non-empty cell's first slot; the rest of the cell is a list
  /// threaded through `next_`, indexed by slot. Empty cells are dropped, so
  /// it holds at most one cell per slot; nothing is allocated per cell.
  class Grid {
   public:
    /// First slot of cell `key`, or -1; Next() walks the rest of the cell.
    int32_t Head(uint64_t key) const;
    int32_t Next(int32_t slot) const {
      return next_[static_cast<size_t>(slot)];
    }
    void Add(uint64_t key, int32_t slot);
    void Remove(uint64_t key, int32_t slot);  ///< `slot` must be in the cell.
    size_t cells() const { return cells_; }

   private:
    struct Cell {
      uint64_t key = 0;
      int32_t head = -1;  // -1: empty table entry.
    };
    /// Index of `key`'s cell, or of the empty entry that ends its probe.
    size_t Find(uint64_t key) const;
    void Grow();

    std::vector<Cell> table_;  // Size 0 or a power of two.
    std::vector<int32_t> next_;
    size_t cells_ = 0;
  };

  /// Per-group state, edited in place under the shard's exclusive lock.
  /// `slots` and `stamps` are parallel arrays; every slot is live. The grid
  /// is maintained even with enable_grid off, because Insert finds exact
  /// duplicates through it.
  struct Group {
    std::vector<Slot> slots;
    std::vector<Stamp> stamps;
    Grid grid;
  };

  /// The θ banding, a function of δ_min alone (fixed by the constructor).
  /// Band b holds θ ∈ [2^(s·b), 2^(s·(b+1))) and has cell edge
  /// cell_factor · 2^(s·(b+1)). `k` and `r` are (1 - δ_min) and
  /// (2 - δ_min)/δ_min widened by a few ulps, so rounding in δ can never
  /// admit an entry outside the probed cells. `probe` is false at δ_min = 0.
  struct Banding {
    bool probe = false;
    double k = 1.0;
    double r = 0.0;
    int s = 1;
    double cell_factor = 1.0;
  };

  struct Shard {
    util::SharedMutex mu;
    std::unordered_map<std::string, Group> groups QREG_GUARDED_BY(mu);
    std::atomic<uint64_t> ticket{1};  // LRU clock and insertion sequence.
    std::atomic<int64_t> size{0};
    std::atomic<int64_t> lookups{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> inserts{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> grid_probes{0};
    std::atomic<int64_t> linear_probes{0};
  };

  Shard& ShardFor(const std::string& group) const;

  /// The group stored under `key`, or null.
  static const Group* FindGroup(const Shard& shard, const std::string& key)
      QREG_REQUIRES_SHARED(shard.mu);

  int64_t BandOf(double theta) const;
  double BandTop(int64_t band) const;

  /// The grid key of `q`: its θ band and the cell of its center. A θ that is
  /// not positive and finite shares a degenerate band keyed by the exact
  /// center, since such a query can only be hit by an exact repeat.
  uint64_t GridKey(const query::Query& q) const;

  /// Index of the best admissible slot of `g`, or -1. Sets *delta_out and
  /// *used_grid (whether the grid path answered).
  int32_t FindBest(const Group& g, const query::Query& q, double* delta_out,
                   bool* used_grid) const;

  AnswerCacheConfig config_;
  Banding banding_;
  std::vector<std::unique_ptr<Shard>> shards_;  // Fixed size after ctor.
};

}  // namespace service
}  // namespace qreg

#endif  // QREG_SERVICE_ANSWER_CACHE_H_
