#include "service/answer_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// A grid key is one Mix over a polynomial of the cell coordinates, seeded
// by the band (a polynomial collision merely merges two cells).
inline uint64_t Poly(uint64_t acc, uint64_t coord) {
  return acc * 0x100000001b3ULL + coord;
}

// Widening of (1 - δ_min), relative and absolute, that covers the rounding
// of δ (Equation 9): an entry the probe admits is always inside the box.
// The box edges need no more: rounding is monotone, so x - ρ ≤ x' implies
// fl(x - ρ) ≤ x' for every representable center x'.
constexpr double kRelSlack = 0x1p-30;
constexpr double kAbsSlack = 0x1p-50;

// Grid probes keep their cell box on the stack; higher d probes linearly.
constexpr size_t kMaxGridDims = 16;

// Cell coordinates are clamped to ±2^52 so the float → int64 conversion is
// always defined. Coordinates inside the limit are exact integers; a probe
// box that reaches the limit takes the linear path instead.
constexpr double kCoordLimit = 0x1p52;
constexpr int64_t kCoordLimitInt = int64_t{1} << 52;

// Band id of the degenerate band: θ not positive or not finite.
constexpr int64_t kDegenerateBand = INT64_MIN;

// floor(x / edge), clamped. Truncation plus a step down for negative
// non-integers is exact inside the limit and, unlike std::floor on
// baseline x86-64, needs no libm call.
inline int64_t CellCoord(double x, double edge) {
  const double v = x / edge;
  if (!(v > -kCoordLimit)) return -kCoordLimitInt;  // Also catches NaN.
  if (!(v < kCoordLimit)) return kCoordLimitInt;
  const auto t = static_cast<int64_t>(v);
  return static_cast<double>(t) > v ? t - 1 : t;
}

inline bool Clamped(int64_t c) {
  return c <= -kCoordLimitInt || c >= kCoordLimitInt;
}

inline bool Bandable(double theta) {
  return theta > 0.0 && std::isfinite(theta);
}

inline uint64_t BandSeed(size_t d, int64_t band) {
  return Mix(0xcbf29ce484222325ULL ^ d, static_cast<uint64_t>(band));
}

inline uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The cell box one probe visits in one θ band.
struct BandBox {
  int64_t band = 0;
  int64_t lo[kMaxGridDims] = {};
  int64_t hi[kMaxGridDims] = {};
};

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

  // δ ≥ δ_min bounds |θ - θ'| ≤ k(θ + θ'), i.e. θ' ∈ [θ/r, θ·r]. Bands are
  // W = 2^s wide with W ≥ max(r², 2), so [θ/r, θ·r] meets at most two.
  const double k = (1.0 - config_.delta_min) * (1.0 + kRelSlack) + kAbsSlack;
  const double r = (1.0 + k) / (1.0 - k);
  const double r2 = r * r * (1.0 + kRelSlack);
  if (k < 1.0 && std::isfinite(r2)) {
    banding_.probe = true;
    banding_.k = k;
    banding_.r = r;
    while (std::ldexp(1.0, banding_.s) < r2) ++banding_.s;
    // A probe radius in band b is at most k(1 + r)·top(b): three cells per
    // dimension. Near δ_min = 1 that radius vanishes; the 1/64 floor keeps
    // coordinates small without changing which entries are reachable.
    banding_.cell_factor = std::max(k * (1.0 + r), 1.0 / 64.0);
  }
  // At δ_min = 0 every lookup probes linearly; the default banding still
  // keys the grid that Insert finds exact duplicates through.
}

int32_t AnswerCache::Grid::Head(uint64_t key) const {
  return table_.empty() ? -1 : table_[Find(key)].head;
}

size_t AnswerCache::Grid::Find(uint64_t key) const {
  // Keys are splitmix outputs, so their low bits index the table directly.
  const size_t mask = table_.size() - 1;
  size_t i = static_cast<size_t>(key) & mask;
  while (table_[i].head >= 0 && table_[i].key != key) i = (i + 1) & mask;
  return i;
}

void AnswerCache::Grid::Grow() {
  std::vector<Cell> old = std::move(table_);
  table_.assign(std::max<size_t>(16, 2 * old.size()), Cell{});
  for (const Cell& c : old) {
    if (c.head >= 0) table_[Find(c.key)] = c;
  }
}

void AnswerCache::Grid::Add(uint64_t key, int32_t slot) {
  const auto s = static_cast<size_t>(slot);
  if (s >= next_.size()) next_.resize(s + 1, -1);
  if (2 * (cells_ + 1) > table_.size()) Grow();
  Cell& c = table_[Find(key)];
  if (c.head < 0) {
    c.key = key;
    ++cells_;
  }
  next_[s] = c.head;
  c.head = slot;
}

void AnswerCache::Grid::Remove(uint64_t key, int32_t slot) {
  size_t i = Find(key);
  Cell& c = table_[i];
  const auto s = static_cast<size_t>(slot);
  if (c.head == slot) {
    c.head = next_[s];
  } else {
    int32_t prev = c.head;
    while (next_[static_cast<size_t>(prev)] != slot) {
      prev = next_[static_cast<size_t>(prev)];
    }
    next_[static_cast<size_t>(prev)] = next_[s];
  }
  if (c.head >= 0) return;
  --cells_;
  // Backward-shift erase: an entry later in the probe run moves into the
  // hole unless its home index lies cyclically in (hole, entry].
  const size_t mask = table_.size() - 1;
  for (size_t j = (i + 1) & mask; table_[j].head >= 0; j = (j + 1) & mask) {
    const size_t home = static_cast<size_t>(table_[j].key) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = Cell{};
}

AnswerCache::Shard& AnswerCache::ShardFor(const std::string& group) const {
  return *shards_[std::hash<std::string>{}(group) % shards_.size()];
}

const AnswerCache::Group* AnswerCache::FindGroup(const Shard& shard,
                                                 const std::string& key) {
  auto it = shard.groups.find(key);
  return it == shard.groups.end() ? nullptr : &it->second;
}

int64_t AnswerCache::BandOf(double theta) const {
  // ilogb(θ), read off the exponent field of a normal θ: exact, so bands
  // are monotone in θ with no rounding at their edges.
  const auto biased = static_cast<int64_t>(Bits(theta) >> 52 & 0x7ff);
  const int64_t e = biased != 0 ? biased - 1023 : std::ilogb(theta);
  const int64_t s = banding_.s;
  return e >= 0 ? e / s : -((s - 1 - e) / s);
}

double AnswerCache::BandTop(int64_t band) const {
  // 2^(s·(band + 1)), built from its exponent field when it is normal.
  const int64_t e = banding_.s * (band + 1);
  if (e < -1022 || e > 1023) return std::ldexp(1.0, static_cast<int>(e));
  const uint64_t bits = static_cast<uint64_t>(e + 1023) << 52;
  double top = 0.0;
  std::memcpy(&top, &bits, sizeof(top));
  return top;
}

uint64_t AnswerCache::GridKey(const query::Query& q) const {
  const size_t d = q.dimension();
  uint64_t acc = 0;
  if (!Bandable(q.theta)) {
    for (double x : q.center) acc = Poly(acc, Bits(x + 0.0));  // -0.0 → 0.0.
    return Mix(BandSeed(d, kDegenerateBand), acc);
  }
  const int64_t band = BandOf(q.theta);
  const double edge = banding_.cell_factor * BandTop(band);
  for (double x : q.center) {
    acc = Poly(acc, static_cast<uint64_t>(CellCoord(x, edge)));
  }
  return Mix(BandSeed(d, band), acc);
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
  // Considers every slot of one grid cell; true once an exact repeat ends
  // the probe.
  auto probe_cell = [&](uint64_t key) {
    for (int32_t idx = g.grid.Head(key); idx >= 0; idx = g.grid.Next(idx)) {
      const Slot& s = g.slots[static_cast<size_t>(idx)];
      if (Consider(q, s.answer.q, idx, s.seq, config_.delta_min, &best)) {
        return true;
      }
    }
    return false;
  };
  const size_t d = q.dimension();
  const size_t n = g.slots.size();
  if (!config_.enable_grid || !banding_.probe || d == 0 || d > kMaxGridDims) {
    return linear_probe();
  }

  if (!Bandable(q.theta)) {
    // δ = 0 against every other ball: only an exact repeat, keyed in the
    // degenerate band by the exact center, can be admitted.
    if (n <= 1) return linear_probe();
    *used_grid = true;
    probe_cell(GridKey(q));
    *delta_out = best.delta;
    return best.idx;
  }

  // Admissible θ' lie in [θ/r, θ·r]: at most two bands. Within band b,
  // θ' < top(b), so the center distance is at most k(θ + min(θ·r, top(b))).
  // Count the cell fan-out first; if it is not smaller than the group, the
  // linear probe is cheaper.
  const double theta_lo = q.theta / banding_.r;
  const double theta_hi = q.theta * banding_.r;
  if (!(theta_lo > 0.0) || !std::isfinite(theta_hi)) return linear_probe();
  const int64_t band_lo = BandOf(theta_lo);
  const int64_t num_bands = BandOf(theta_hi) - band_lo + 1;
  if (num_bands > 2) return linear_probe();  // W ≥ r² rules this out.
  BandBox boxes[2];
  size_t fanout = 0;
  for (int64_t i = 0; i < num_bands; ++i) {
    BandBox& box = boxes[i];
    box.band = band_lo + i;
    const double top = BandTop(box.band);
    const double edge = banding_.cell_factor * top;
    const double radius = banding_.k * (q.theta + std::min(theta_hi, top));
    size_t cells = 1;
    for (size_t j = 0; j < d; ++j) {
      box.lo[j] = CellCoord(q.center[j] - radius, edge);
      box.hi[j] = CellCoord(q.center[j] + radius, edge);
      if (Clamped(box.lo[j]) || Clamped(box.hi[j])) return linear_probe();
      const auto span = static_cast<size_t>(box.hi[j] - box.lo[j]) + 1;
      if (span >= n) return linear_probe();
      cells *= span;  // Both factors < n: no overflow.
      if (cells >= n) return linear_probe();
    }
    fanout += cells;
    if (fanout >= n) return linear_probe();
  }
  *used_grid = true;

  int64_t coord[kMaxGridDims] = {};
  for (int64_t i = 0; i < num_bands; ++i) {
    const BandBox& box = boxes[i];
    const uint64_t seed = BandSeed(d, box.band);
    std::copy(box.lo, box.lo + d, coord);
    for (;;) {
      uint64_t acc = 0;
      for (size_t j = 0; j < d; ++j) {
        acc = Poly(acc, static_cast<uint64_t>(coord[j]));
      }
      if (probe_cell(Mix(seed, acc))) {
        *delta_out = best.delta;
        return best.idx;
      }
      // Odometer over the cell box.
      size_t j = 0;
      for (; j < d; ++j) {
        if (++coord[j] <= box.hi[j]) break;
        coord[j] = box.lo[j];
      }
      if (j == d) break;
    }
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
  const uint64_t stamp = shard.ticket.fetch_add(1, std::memory_order_relaxed);
  const uint64_t cell = GridKey(q);

  // An exact-duplicate query shares the new query's grid key: replace its
  // answer in place (keeps the group canonical).
  for (int32_t idx = g.grid.Head(cell); idx >= 0; idx = g.grid.Next(idx)) {
    Slot& s = g.slots[static_cast<size_t>(idx)];
    if (s.answer.q == q) {
      s.answer = std::move(answer);
      s.seq = stamp;
      g.stamps[static_cast<size_t>(idx)].ticket.store(
          stamp, std::memory_order_relaxed);
      return;
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
    g.grid.Remove(victim.cell, static_cast<int32_t>(idx));

    victim.answer = std::move(answer);
    victim.seq = stamp;
    victim.cell = cell;
    g.stamps[idx].ticket.store(stamp, std::memory_order_relaxed);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  g.grid.Add(cell, static_cast<int32_t>(idx));
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
    for (const auto& kv : shard->groups) cells += kv.second.grid.cells();
  }
  return cells;
}

}  // namespace service
}  // namespace qreg
