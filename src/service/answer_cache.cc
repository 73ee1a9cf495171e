#include "service/answer_cache.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace qreg {
namespace service {

namespace {

// splitmix64: cheap avalanche for combining quantized cell coordinates.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

inline int64_t CellCoord(double x, double cell) {
  return static_cast<int64_t>(std::floor(x / cell));
}

// A probe's running best candidate.
struct Best {
  int32_t idx = -1;
  double delta = 0.0;
  uint64_t seq = 0;
};

// Scores cached query `eq` (slot `idx`, inserted at `seq`) against probe q:
// the highest admissible δ wins and equal δ goes to the newer insertion, so
// the choice does not depend on probe order. Returns true iff `eq` is an
// exact repeat of q (δ = 1), which ends the probe.
inline bool Consider(const query::Query& q, const query::Query& eq,
                     int32_t idx, uint64_t seq, double delta_min, Best* best) {
  if (eq.dimension() != q.dimension()) return false;
  if (eq == q) {
    best->idx = idx;
    best->delta = 1.0;
    return true;
  }
  if (!query::Overlaps(q, eq)) return false;  // Predicate A (Definition 6).
  const double delta = query::DegreeOfOverlap(q, eq);  // Equation 9.
  if (delta < delta_min) return false;
  if (delta > best->delta ||
      (best->idx >= 0 && delta == best->delta && seq > best->seq)) {
    best->idx = idx;
    best->delta = delta;
    best->seq = seq;
  }
  return false;
}

}  // namespace

AnswerCache::AnswerCache(AnswerCacheConfig config) : config_(config) {
  config_.delta_min = std::min(1.0, std::max(0.0, config_.delta_min));
  if (config_.capacity_per_shard == 0) config_.capacity_per_shard = 1;
  if (config_.num_shards == 0) config_.num_shards = 1;
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

AnswerCache::Shard& AnswerCache::ShardFor(const std::string& group) const {
  return *shards_[std::hash<std::string>{}(group) % shards_.size()];
}

const AnswerCache::Group* AnswerCache::FindGroup(const Shard& shard,
                                                 const std::string& key) {
  auto it = shard.groups.find(key);
  return it == shard.groups.end() ? nullptr : &it->second;
}

uint64_t AnswerCache::CellHash(const double* center, size_t d,
                               double cell) const {
  uint64_t h = 0xcbf29ce484222325ULL ^ d;
  for (size_t j = 0; j < d; ++j) {
    h = Mix(h, static_cast<uint64_t>(CellCoord(center[j], cell)));
  }
  return h;
}

int32_t AnswerCache::FindBest(const Group& g, const query::Query& q,
                              double* delta_out, bool* used_grid) const {
  *used_grid = false;
  Best best;
  auto linear_probe = [&]() {
    for (size_t i = 0; i < g.slots.size(); ++i) {
      const Slot& s = g.slots[i];
      if (Consider(q, s.answer.q, static_cast<int32_t>(i), s.seq,
                   config_.delta_min, &best)) {
        break;
      }
    }
    *delta_out = best.delta;
    return best.idx;
  };
  const size_t d = q.dimension();
  if (!config_.enable_grid || d == 0) return linear_probe();

  // Any admissible entry satisfies ||x - x'|| ≤ (1 - δ_min)(θ + θ') — with
  // θ' bounded by the group's θ_max — so only cells within that radius can
  // hold a hit. Count the cell fan-out first; if it beats a straight scan
  // of the group (small groups, large d), the linear probe wins.
  const double radius = (1.0 - config_.delta_min) * (q.theta + g.theta_max);
  std::vector<int64_t> lo(d), hi(d);
  size_t cells = 1;
  for (size_t j = 0; j < d; ++j) {
    lo[j] = CellCoord(q.center[j] - radius, g.cell);
    hi[j] = CellCoord(q.center[j] + radius, g.cell);
    const uint64_t span = static_cast<uint64_t>(hi[j] - lo[j]) + 1;
    if (span > config_.max_grid_cells) return linear_probe();
    cells *= static_cast<size_t>(span);
    if (cells > config_.max_grid_cells) return linear_probe();
  }
  if (cells >= g.slots.size()) return linear_probe();
  *used_grid = true;

  std::vector<int64_t> coord = lo;
  for (;;) {
    uint64_t h = 0xcbf29ce484222325ULL ^ d;
    for (size_t j = 0; j < d; ++j) h = Mix(h, static_cast<uint64_t>(coord[j]));
    auto cell_it = g.grid.find(h);
    if (cell_it != g.grid.end()) {
      for (int32_t idx : cell_it->second) {
        const Slot& s = g.slots[static_cast<size_t>(idx)];
        if (Consider(q, s.answer.q, idx, s.seq, config_.delta_min, &best)) {
          *delta_out = best.delta;
          return best.idx;
        }
      }
    }
    // Odometer over the cell box.
    size_t j = 0;
    for (; j < d; ++j) {
      if (++coord[j] <= hi[j]) break;
      coord[j] = lo[j];
    }
    if (j == d) break;
  }
  *delta_out = best.delta;
  return best.idx;
}

bool AnswerCache::Lookup(const std::string& group_key, const query::Query& q,
                         CachedAnswer* out) {
  Shard& shard = ShardFor(group_key);
  shard.lookups.fetch_add(1, std::memory_order_relaxed);
  util::ReaderMutexLock lock(&shard.mu);
  const Group* g = FindGroup(shard, group_key);
  if (g == nullptr) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  double best_delta = 0.0;
  bool used_grid = false;
  const int32_t best = FindBest(*g, q, &best_delta, &used_grid);
  (used_grid ? shard.grid_probes : shard.linear_probes)
      .fetch_add(1, std::memory_order_relaxed);
  if (best < 0) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  const size_t idx = static_cast<size_t>(best);
  if (out != nullptr) {
    *out = g->slots[idx].answer;
    out->delta = best_delta;
  }
  // LRU touch: readers share the lock, so the stamp is the only thing they
  // write; Insert picks the victim by minimum stamp.
  g->stamps[idx].ticket.store(
      shard.ticket.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  return true;
}

void AnswerCache::Insert(const std::string& group_key, CachedAnswer answer) {
  Shard& shard = ShardFor(group_key);
  util::WriterMutexLock lock(&shard.mu);
  Group& g = shard.groups[group_key];

  const query::Query& q = answer.q;
  if (g.cell <= 0.0) {
    // Cell edge fixed from the first cached ball: matches the typical probe
    // radius (1 - δ_min)·2θ so hits probe O(3^d ∩ max_grid_cells) cells.
    double base = (1.0 - config_.delta_min) * 2.0 * q.theta;
    if (base <= 1e-12) base = q.theta;
    if (base <= 1e-12) base = 1.0;
    g.cell = base;
  }
  g.theta_max = std::max(g.theta_max, q.theta);
  const uint64_t stamp = shard.ticket.fetch_add(1, std::memory_order_relaxed);
  const uint64_t cell = CellHash(q.center.data(), q.dimension(), g.cell);

  // An exact-duplicate query shares the new center's cell: replace its
  // answer in place (keeps the group canonical).
  auto cell_it = g.grid.find(cell);
  if (cell_it != g.grid.end()) {
    for (int32_t idx : cell_it->second) {
      Slot& s = g.slots[static_cast<size_t>(idx)];
      if (s.answer.q == q) {
        s.answer = std::move(answer);
        s.seq = stamp;
        g.stamps[static_cast<size_t>(idx)].ticket.store(
            stamp, std::memory_order_relaxed);
        return;
      }
    }
  }

  shard.inserts.fetch_add(1, std::memory_order_relaxed);
  size_t idx = g.slots.size();
  if (idx < config_.capacity_per_shard) {
    g.slots.push_back(Slot{std::move(answer), stamp, cell});
    g.stamps.emplace_back(stamp);
    shard.size.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Evict the minimum LRU stamp: exact LRU, since every insert and every
    // hit draws a fresh monotone ticket.
    idx = 0;
    uint64_t victim_stamp = g.stamps[0].ticket.load(std::memory_order_relaxed);
    for (size_t i = 1; i < g.stamps.size(); ++i) {
      const uint64_t s = g.stamps[i].ticket.load(std::memory_order_relaxed);
      if (s < victim_stamp) {
        victim_stamp = s;
        idx = i;
      }
    }
    Slot& victim = g.slots[idx];
    const double victim_theta = victim.answer.q.theta;
    auto victim_cell = g.grid.find(victim.cell);
    std::vector<int32_t>& members = victim_cell->second;
    *std::find(members.begin(), members.end(), static_cast<int32_t>(idx)) =
        members.back();
    members.pop_back();
    if (members.empty()) g.grid.erase(victim_cell);

    victim.answer = std::move(answer);
    victim.seq = stamp;
    victim.cell = cell;
    g.stamps[idx].ticket.store(stamp, std::memory_order_relaxed);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    // Don't let one evicted large-θ outlier pin the probe radius (and with
    // it the grid fallback) forever: re-derive the maximum when it leaves.
    if (victim_theta >= g.theta_max) {
      g.theta_max = 0.0;
      for (const Slot& s : g.slots) {
        g.theta_max = std::max(g.theta_max, s.answer.q.theta);
      }
    }
  }
  g.grid[cell].push_back(static_cast<int32_t>(idx));
}

size_t AnswerCache::EraseGroupsWithPrefix(const std::string& group_prefix) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    util::WriterMutexLock lock(&shard->mu);
    for (auto it = shard->groups.begin(); it != shard->groups.end();) {
      if (it->first.compare(0, group_prefix.size(), group_prefix) == 0) {
        const size_t n = it->second.slots.size();
        shard->size.fetch_sub(static_cast<int64_t>(n),
                              std::memory_order_relaxed);
        erased += n;
        it = shard->groups.erase(it);
      } else {
        ++it;
      }
    }
  }
  return erased;
}

void AnswerCache::Clear() {
  for (auto& shard : shards_) {
    util::WriterMutexLock lock(&shard->mu);
    shard->groups.clear();
    shard->size.store(0, std::memory_order_relaxed);
  }
}

AnswerCacheStats AnswerCache::stats() const {
  AnswerCacheStats total;
  for (const auto& shard : shards_) {
    total.lookups += shard->lookups.load(std::memory_order_relaxed);
    total.hits += shard->hits.load(std::memory_order_relaxed);
    total.misses += shard->misses.load(std::memory_order_relaxed);
    total.inserts += shard->inserts.load(std::memory_order_relaxed);
    total.evictions += shard->evictions.load(std::memory_order_relaxed);
    total.grid_probes += shard->grid_probes.load(std::memory_order_relaxed);
    total.linear_probes += shard->linear_probes.load(std::memory_order_relaxed);
  }
  return total;
}

size_t AnswerCache::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->size.load(std::memory_order_relaxed);
  }
  return static_cast<size_t>(total);
}

size_t AnswerCache::grid_cells_for_testing() const {
  size_t cells = 0;
  for (const auto& shard : shards_) {
    util::ReaderMutexLock lock(&shard->mu);
    for (const auto& kv : shard->groups) cells += kv.second.grid.size();
  }
  return cells;
}

}  // namespace service
}  // namespace qreg
