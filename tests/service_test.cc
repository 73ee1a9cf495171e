// Tests for the service layer: thread pool, model catalog (lazy training +
// warm start), δ-overlap answer cache (admission, LRU, accuracy bound), and
// the query router (policy agreement with the standalone engines, batch
// parallelism determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/metrics.h"
#include "query/workload.h"
#include "service/answer_cache.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "service/service_stats.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qreg {
namespace service {
namespace {

// Fixtures, catalog recipe and workload builders live in test_support.h,
// shared with parallel_exact_test.cc and lifecycle_test.cc.
using testsupport::DefaultCatalogOptions;
using testsupport::MixedWorkload;
using testsupport::RandomQueries;
using testsupport::SharedCatalog;
using TestData = testsupport::EngineFixture;

TestData* SharedData() { return testsupport::SharedServiceFixture(); }

CatalogOptions TestOptions() { return DefaultCatalogOptions(); }

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  util::ThreadPool pool(4, /*queue_capacity=*/16);
  std::atomic<int> count{0};
  util::BlockingCounter done(1000);
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count, &done] {
      count.fetch_add(1, std::memory_order_relaxed);
      done.DecrementCount();
    });
  }
  done.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::thread::id task_thread;
  pool.Submit([&task_thread] { task_thread = std::this_thread::get_id(); });
  EXPECT_EQ(task_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, TrySubmitAppliesBackpressure) {
  util::ThreadPool pool(1, /*queue_capacity=*/1);
  std::mutex gate;
  gate.lock();
  pool.Submit([&gate] { gate.lock(); gate.unlock(); });  // Blocks the worker.
  // Wait until the worker has dequeued the blocker.
  while (pool.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.TrySubmit([] {}));   // Fills the 1-slot queue.
  EXPECT_FALSE(pool.TrySubmit([] {}));  // Queue full -> rejected.
  gate.unlock();
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2, 64);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // Destructor joins after draining.
  EXPECT_EQ(count.load(), 50);
}

// ---------- ModelCatalog ----------

TEST(ModelCatalogTest, RegistrationValidation) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  EXPECT_TRUE(
      catalog.Register("a", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  // Duplicate name.
  auto dup = catalog.Register("a", &d->dataset->table, d->kdtree.get(), TestOptions());
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
  // Dimension mismatch between workload and table.
  CatalogOptions bad = CatalogOptions::ForCube(3, 0.0, 1.0, 0.1, 0.02);
  auto mismatch = catalog.Register("b", &d->dataset->table, d->kdtree.get(), bad);
  EXPECT_EQ(mismatch.code(), util::StatusCode::kInvalidArgument);
  // Unknown dataset.
  EXPECT_EQ(catalog.GetOrTrain("nope").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(catalog.Contains("a"));
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(ModelCatalogTest, LazyTrainingHappensExactlyOnce) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());

  // Before training: snapshot has no model.
  auto before = catalog.Get("ds");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->model, nullptr);

  auto first = catalog.GetOrTrain("ds");
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->model, nullptr);
  EXPECT_GT(first->model->num_prototypes(), 0);
  EXPECT_TRUE(first->model->frozen());
  EXPECT_GT(first->report.pairs_used, 0);
  EXPECT_GT(first->vigilance, 0.0);

  auto second = catalog.GetOrTrain("ds");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->model.get(), second->model.get());  // Same trained model.
}

TEST(ModelCatalogTest, ConcurrentGetOrTrainYieldsOneModel) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  CatalogOptions opts = TestOptions();
  opts.trainer.max_pairs = 600;  // Keep the race window short.
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());

  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const core::LlmModel>> models(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&catalog, &models, i] {
      auto snap = catalog.GetOrTrain("ds");
      ASSERT_TRUE(snap.ok());
      models[static_cast<size_t>(i)] = snap->model;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(models[0].get(), models[static_cast<size_t>(i)].get());
  }
}

TEST(ModelCatalogTest, WarmStartSkipsTrainingAndMatchesPredictions) {
  TestData* d = SharedData();
  const std::string path = testing::TempDir() + "/qreg_warm_start_model.txt";
  std::remove(path.c_str());

  CatalogOptions opts = TestOptions();
  opts.warm_start_path = path;

  ModelCatalog cold;
  ASSERT_TRUE(cold.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());
  auto trained = cold.GetOrTrain("ds");
  ASSERT_TRUE(trained.ok());
  EXPECT_FALSE(trained->warm_started);
  EXPECT_GT(trained->report.pairs_used, 0);

  ModelCatalog warm;
  ASSERT_TRUE(warm.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());
  auto loaded = warm.GetOrTrain("ds");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->warm_started);
  EXPECT_EQ(loaded->report.pairs_used, 0);
  ASSERT_NE(loaded->model, nullptr);
  EXPECT_EQ(loaded->model->num_prototypes(), trained->model->num_prototypes());

  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.1, 0.9, 0.12, 0.02, 11));
  for (int i = 0; i < 20; ++i) {
    query::Query q = gen.Next();
    auto a = trained->model->PredictMean(q);
    auto b = loaded->model->PredictMean(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(*a, *b);
  }
  std::remove(path.c_str());
}

// ---------- AnswerCache ----------

TEST(AnswerCacheTest, ExactRepeatAlwaysHits) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 1.0;  // Only identical balls admissible.
  AnswerCache cache(cfg);
  CachedAnswer a;
  a.q = query::Query({0.5, 0.5}, 0.1);
  a.mean = 42.0;
  cache.Insert("ds/Q1", a);

  CachedAnswer out;
  EXPECT_TRUE(cache.Lookup("ds/Q1", query::Query({0.5, 0.5}, 0.1), &out));
  EXPECT_DOUBLE_EQ(out.mean, 42.0);
  EXPECT_DOUBLE_EQ(out.delta, 1.0);
  // Same query, different shard: miss.
  EXPECT_FALSE(cache.Lookup("ds/Q2", query::Query({0.5, 0.5}, 0.1), nullptr));
}

TEST(AnswerCacheTest, DeltaAdmissionThreshold) {
  // δ(q, q') = 1 - max(||x - x'||, |θ - θ'|) / (θ + θ')   (Eq. 9).
  // With θ = θ' = 1: center offset e gives δ = 1 - e/2.
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.9;
  AnswerCache cache(cfg);
  CachedAnswer a;
  a.q = query::Query({0.0, 0.0}, 1.0);
  a.mean = 7.0;
  cache.Insert("ds/Q1", a);

  CachedAnswer out;
  // e = 0.1 -> δ = 0.95 ≥ 0.9: hit.
  ASSERT_TRUE(cache.Lookup("ds/Q1", query::Query({0.1, 0.0}, 1.0), &out));
  EXPECT_NEAR(out.delta, 0.95, 1e-12);
  // e = 0.3 -> δ = 0.85 < 0.9: miss despite overlapping.
  EXPECT_FALSE(cache.Lookup("ds/Q1", query::Query({0.3, 0.0}, 1.0), nullptr));
  // Disjoint balls: miss regardless of δ_min.
  EXPECT_FALSE(cache.Lookup("ds/Q1", query::Query({5.0, 0.0}, 1.0), nullptr));

  AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
}

TEST(AnswerCacheTest, PrefersHighestOverlapEntry) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.5;
  AnswerCache cache(cfg);
  CachedAnswer far;
  far.q = query::Query({0.4, 0.0}, 1.0);  // δ vs probe = 0.8
  far.mean = 1.0;
  CachedAnswer near;
  near.q = query::Query({0.1, 0.0}, 1.0);  // δ vs probe = 0.95
  near.mean = 2.0;
  cache.Insert("s", far);
  cache.Insert("s", near);

  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("s", query::Query({0.0, 0.0}, 1.0), &out));
  EXPECT_DOUBLE_EQ(out.mean, 2.0);
  EXPECT_NEAR(out.delta, 0.95, 1e-12);
}

TEST(AnswerCacheTest, LruEvictionAtCapacity) {
  AnswerCacheConfig cfg;
  cfg.capacity_per_shard = 2;
  cfg.delta_min = 1.0;
  AnswerCache cache(cfg);
  for (int i = 0; i < 3; ++i) {
    CachedAnswer a;
    a.q = query::Query({static_cast<double>(i), 0.0}, 0.1);
    a.mean = i;
    cache.Insert("s", a);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  // Entry 0 (least recently used) was evicted; 1 and 2 remain.
  EXPECT_FALSE(cache.Lookup("s", query::Query({0.0, 0.0}, 0.1), nullptr));
  EXPECT_TRUE(cache.Lookup("s", query::Query({1.0, 0.0}, 0.1), nullptr));
  EXPECT_TRUE(cache.Lookup("s", query::Query({2.0, 0.0}, 0.1), nullptr));
}

TEST(AnswerCacheTest, LookupTouchesLruOrder) {
  AnswerCacheConfig cfg;
  cfg.capacity_per_shard = 2;
  cfg.delta_min = 1.0;
  AnswerCache cache(cfg);
  CachedAnswer a;
  a.q = query::Query({0.0, 0.0}, 0.1);
  cache.Insert("s", a);
  CachedAnswer b;
  b.q = query::Query({1.0, 0.0}, 0.1);
  cache.Insert("s", b);
  // Touch a, then insert c: b (now LRU) should be evicted, a retained.
  ASSERT_TRUE(cache.Lookup("s", a.q, nullptr));
  CachedAnswer c;
  c.q = query::Query({2.0, 0.0}, 0.1);
  cache.Insert("s", c);
  EXPECT_TRUE(cache.Lookup("s", a.q, nullptr));
  EXPECT_FALSE(cache.Lookup("s", b.q, nullptr));
}

// ---------- AnswerCache: sharding + grid δ-lookup equivalence ----------
// (Random query stream comes from testsupport::RandomQueries.)

TEST(AnswerCacheShardingTest, ShardCountDoesNotChangeBehavior) {
  // Hit/miss/eviction per group only depends on that group's op sequence,
  // so any shard count must reproduce the single-shard baseline exactly.
  AnswerCacheConfig base;
  base.delta_min = 0.8;
  base.capacity_per_shard = 16;
  base.num_shards = 1;
  AnswerCacheConfig sharded = base;
  sharded.num_shards = 8;
  AnswerCache a(base), b(sharded);

  const std::vector<std::string> groups = {"ds1/Q1", "ds1/Q2", "ds2/Q1"};
  const std::vector<query::Query> qs = RandomQueries(300, 71);
  for (size_t i = 0; i < qs.size(); ++i) {
    const std::string& g = groups[i % groups.size()];
    CachedAnswer out_a, out_b;
    const bool hit_a = a.Lookup(g, qs[i], &out_a);
    const bool hit_b = b.Lookup(g, qs[i], &out_b);
    ASSERT_EQ(hit_a, hit_b) << "query " << i;
    if (hit_a) {
      EXPECT_EQ(out_a.mean, out_b.mean) << "query " << i;
      EXPECT_EQ(out_a.delta, out_b.delta) << "query " << i;
    } else {
      CachedAnswer ins;
      ins.q = qs[i];
      ins.mean = static_cast<double>(i);
      a.Insert(g, ins);
      b.Insert(g, ins);
    }
  }
  EXPECT_EQ(a.size(), b.size());
  const AnswerCacheStats sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.inserts, sb.inserts);
  EXPECT_EQ(sa.evictions, sb.evictions);
}

// Probes `grid` and `linear` (same config but enable_grid) with `probe` and
// expects the same admission, payload and δ. Returns whether it hit.
bool ExpectSameAdmission(AnswerCache* linear, AnswerCache* grid,
                         const std::string& group, const query::Query& probe,
                         const std::string& where) {
  CachedAnswer want, got;
  const bool hit_linear = linear->Lookup(group, probe, &want);
  const bool hit_grid = grid->Lookup(group, probe, &got);
  EXPECT_EQ(hit_linear, hit_grid) << where << " " << probe.ToString();
  if (hit_linear && hit_grid) {
    EXPECT_EQ(want.mean, got.mean) << where << " " << probe.ToString();
    EXPECT_EQ(want.delta, got.delta) << where << " " << probe.ToString();
  }
  return hit_linear;
}

TEST(AnswerCacheGridTest, GridLookupMatchesLinearProbeAdmissions) {
  // The θ-banded grid δ-lookup admits exactly the entries the linear probe
  // admits, with the same best-δ choice, at every δ_min — including θ = 0
  // exact repeats and centers ~1e6 with θ ~1e-9, where cell coordinates
  // approach the exactly representable range.
  for (double delta_min : {0.0, 0.5, 0.85, 0.9, 1.0}) {
    const std::string where = "delta_min=" + std::to_string(delta_min);
    AnswerCacheConfig linear_cfg;
    linear_cfg.delta_min = delta_min;
    linear_cfg.capacity_per_shard = 4096;  // No evictions: pure probe test.
    linear_cfg.enable_grid = false;
    AnswerCacheConfig grid_cfg = linear_cfg;
    grid_cfg.enable_grid = true;
    AnswerCache linear(linear_cfg), grid(grid_cfg);
    auto insert = [&](const std::string& group, const query::Query& q) {
      CachedAnswer ins;
      ins.q = q;
      ins.mean = q.center[0] + 10.0 * q.center[1] + 100.0 * q.theta;
      linear.Insert(group, ins);
      grid.Insert(group, ins);
    };

    const std::vector<query::Query> cached = RandomQueries(500, 83);
    for (const query::Query& q : cached) insert("g", q);
    // θ = 0 balls (and a -0.0 center) reachable only as exact repeats.
    std::vector<query::Query> points;
    for (int i = 0; i < 20; ++i) {
      points.emplace_back(std::vector<double>{0.05 * i, i == 0 ? -0.0 : 0.5},
                          0.0);
      insert("g", points.back());
    }
    // Far, tiny balls: centers ~1e6 (ulp ~1.2e-10) with θ ~1e-9, plus a few
    // at θ ~1e-12 whose cell coordinates leave the exact integer range.
    util::Rng rng(89);
    std::vector<query::Query> far;
    for (int i = 0; i < 300; ++i) {
      const double theta = (i % 10 == 0 ? 1e-12 : 1e-9) * rng.Uniform(0.5, 2.0);
      far.emplace_back(std::vector<double>{1e6 + rng.Uniform(0.0, 4e-8),
                                           -1e6 - rng.Uniform(0.0, 4e-8)},
                       theta);
      insert("far", far.back());
    }

    int64_t hits = 0;
    for (const query::Query& probe : RandomQueries(800, 97)) {
      hits += ExpectSameAdmission(&linear, &grid, "g", probe, where);
    }
    for (size_t i = 0; i < cached.size(); i += 5) {
      hits += ExpectSameAdmission(&linear, &grid, "g", cached[i], where);
    }
    for (const query::Query& p : points) {
      EXPECT_TRUE(ExpectSameAdmission(&linear, &grid, "g", p, where));
      const query::Query shifted({p.center[0] + 0.01, p.center[1]}, 0.0);
      ExpectSameAdmission(&linear, &grid, "g", shifted, where);
    }
    for (const query::Query& f : far) {
      hits += ExpectSameAdmission(&linear, &grid, "far", f, where);
      const query::Query jittered(
          {f.center[0] + rng.Uniform(-1e-9, 1e-9),
           f.center[1] + rng.Uniform(-1e-9, 1e-9)},
          f.theta * rng.Uniform(0.9, 1.1));
      hits += ExpectSameAdmission(&linear, &grid, "far", jittered, where);
    }
    if (HasFailure()) return;
    EXPECT_GT(hits, 20) << where << ": too few hits to be meaningful";
    EXPECT_EQ(linear.stats().grid_probes, 0) << where;
    if (delta_min == 0.0) {
      // r is unbounded at δ_min = 0: every lookup probes linearly.
      EXPECT_EQ(grid.stats().grid_probes, 0) << where;
    } else {
      EXPECT_GT(grid.stats().grid_probes, grid.stats().lookups / 2) << where;
    }
  }
}

TEST(AnswerCacheGridTest, EvictionKeepsGridConsistent) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 1.0;  // Exact repeats only: hits pinpoint single entries.
  cfg.capacity_per_shard = 8;
  cfg.enable_grid = true;
  AnswerCache cache(cfg);
  const std::vector<query::Query> qs = RandomQueries(64, 131);
  for (const auto& q : qs) {
    CachedAnswer ins;
    ins.q = q;
    cache.Insert("g", ins);
  }
  EXPECT_EQ(cache.size(), 8u);
  // The 8 most recent remain findable; evicted ones must not resurface
  // through stale grid references.
  for (size_t i = 0; i < qs.size(); ++i) {
    const bool expect_hit = i + 8 >= qs.size();
    EXPECT_EQ(cache.Lookup("g", qs[i], nullptr), expect_hit) << i;
  }
}

TEST(AnswerCacheGridTest, WideThetaSpreadStaysOnGrid) {
  // θ ~ |N(0.1, 0.1²)| after a tiny first θ: every θ band keeps its own cell
  // edge, so every lookup stays on the grid and admits what the linear
  // probe admits.
  AnswerCacheConfig linear_cfg;
  linear_cfg.delta_min = 0.9;
  linear_cfg.capacity_per_shard = 512;
  linear_cfg.enable_grid = false;
  AnswerCacheConfig grid_cfg = linear_cfg;
  grid_cfg.enable_grid = true;
  AnswerCache linear(linear_cfg), grid(grid_cfg);

  util::Rng rng(61);
  auto random_query = [&rng] {
    return query::Query({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)},
                        std::fabs(rng.Gaussian(0.1, 0.1)));
  };
  std::vector<query::Query> cached;
  cached.push_back(query::Query({0.5, 0.5}, 0.005));
  while (cached.size() < 512) cached.push_back(random_query());
  for (size_t i = 0; i < cached.size(); ++i) {
    CachedAnswer ins;
    ins.q = cached[i];
    ins.mean = static_cast<double>(i);
    linear.Insert("g", ins);
    grid.Insert("g", ins);
  }
  ASSERT_EQ(grid.size(), 512u);

  // r = (2 - δ_min)/δ_min: the widest admissible θ ratio.
  const double r = (2.0 - 0.9) / 0.9;
  int64_t hits = 0;
  for (int i = 0; i < 3000; ++i) {
    query::Query probe = random_query();
    const query::Query& c = cached[rng.UniformInt(cached.size())];
    if (i % 3 == 1) {  // A near repeat of a cached ball.
      probe = query::Query({c.center[0] + 0.01 * c.theta * rng.Uniform(-1, 1),
                            c.center[1] + 0.01 * c.theta * rng.Uniform(-1, 1)},
                           c.theta * rng.Uniform(0.98, 1.02));
    } else if (i % 3 == 2) {
      // Just inside the admission boundary: the cached θ is almost r times
      // the probe's and the centers almost (1 - δ_min)(θ + θ') apart.
      const double theta = c.theta / (0.999 * r);
      const double dist = 0.999 * 0.1 * (theta + c.theta);
      const double angle = rng.Uniform(0.0, 6.283185307179586);
      probe = query::Query({c.center[0] + dist * std::cos(angle),
                            c.center[1] + dist * std::sin(angle)},
                           theta);
    }
    hits += ExpectSameAdmission(&linear, &grid, "g", probe, "wide");
  }
  EXPECT_GT(hits, 1000);
  const AnswerCacheStats stats = grid.stats();
  EXPECT_EQ(stats.grid_probes, stats.lookups);
  EXPECT_EQ(stats.linear_probes, 0);
}

TEST(AnswerCacheGridTest, EqualDeltaTieGoesToNewestInsert) {
  // Two cached balls sit symmetrically around the probe, so their δ is
  // exactly equal (all coordinates are exact binary fractions). The newer
  // insertion must win on both probe paths, whichever order the two were
  // inserted in.
  for (bool grid : {true, false}) {
    AnswerCacheConfig cfg;
    cfg.delta_min = 0.8;
    cfg.capacity_per_shard = 64;
    cfg.enable_grid = grid;
    AnswerCache cache(cfg);
    // Far-away fillers make the group big enough for the grid path to pay.
    for (int i = 0; i < 40; ++i) {
      CachedAnswer filler;
      filler.q = query::Query({100.0 + 4.0 * i, 0.5}, 1.0);
      filler.mean = -1.0;
      cache.Insert("old_right", filler);
      cache.Insert("old_up", filler);
    }
    CachedAnswer right;
    right.q = query::Query({0.75, 0.5}, 1.0);
    right.mean = 1.0;
    CachedAnswer up;
    up.q = query::Query({0.5, 0.75}, 1.0);
    up.mean = 2.0;
    cache.Insert("old_right", right);  // `up` is newer here...
    cache.Insert("old_right", up);
    cache.Insert("old_up", up);  // ...and `right` is newer here.
    cache.Insert("old_up", right);

    const query::Query probe({0.5, 0.5}, 1.0);
    CachedAnswer out;
    ASSERT_TRUE(cache.Lookup("old_right", probe, &out)) << "grid=" << grid;
    EXPECT_EQ(out.mean, 2.0) << "grid=" << grid;
    EXPECT_EQ(out.delta, 0.875) << "grid=" << grid;
    ASSERT_TRUE(cache.Lookup("old_up", probe, &out)) << "grid=" << grid;
    EXPECT_EQ(out.mean, 1.0) << "grid=" << grid;
    EXPECT_EQ(out.delta, 0.875) << "grid=" << grid;

    // Re-inserting an exact duplicate counts as a new insertion: the
    // replaced `right` is now the newer of the two in "old_right".
    cache.Insert("old_right", right);
    ASSERT_TRUE(cache.Lookup("old_right", probe, &out)) << "grid=" << grid;
    EXPECT_EQ(out.mean, 1.0) << "grid=" << grid;
    EXPECT_EQ(cache.stats().grid_probes, grid ? 3 : 0);
  }
}

// ---------- AnswerCache: differential test against a reference model ----------

// The cache's contract restated as the plainest possible code: one vector
// per group, a linear δ-probe (exact repeat wins, then highest δ, then
// newest insert), min-stamp LRU and replace-on-duplicate. It also predicts
// which probe path the cache reports, from the documented θ-band rule.
class ReferenceCache {
 public:
  explicit ReferenceCache(const AnswerCacheConfig& cfg) : cfg_(cfg) {}

  bool Lookup(const std::string& key, const query::Query& q, CachedAnswer* out) {
    ++stats_.lookups;
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      ++stats_.misses;
      return false;
    }
    Group& g = it->second;
    ++(UsesGrid(g, q) ? stats_.grid_probes : stats_.linear_probes);
    Entry* best = nullptr;
    double best_delta = 0.0;
    for (Entry& e : g.entries) {
      if (e.answer.q == q) {
        best = &e;
        best_delta = 1.0;
        break;
      }
      if (!query::Overlaps(q, e.answer.q)) continue;
      const double delta = query::DegreeOfOverlap(q, e.answer.q);
      if (delta < cfg_.delta_min) continue;
      if (delta > best_delta ||
          (best != nullptr && delta == best_delta && e.seq > best->seq)) {
        best = &e;
        best_delta = delta;
      }
    }
    if (best == nullptr) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    *out = best->answer;
    out->delta = best_delta;
    best->stamp = clock_++;
    return true;
  }

  void Insert(const std::string& key, const CachedAnswer& a) {
    Group& g = groups_[key];
    const uint64_t now = clock_++;
    for (Entry& e : g.entries) {
      if (e.answer.q == a.q) {
        e = Entry{a, now, now};
        return;
      }
    }
    ++stats_.inserts;
    if (g.entries.size() == cfg_.capacity_per_shard) {
      g.entries.erase(std::min_element(
          g.entries.begin(), g.entries.end(),
          [](const Entry& x, const Entry& y) { return x.stamp < y.stamp; }));
      ++stats_.evictions;
    }
    g.entries.push_back(Entry{a, now, now});
  }

  size_t EraseGroupsWithPrefix(const std::string& prefix) {
    size_t erased = 0;
    for (auto it = groups_.begin(); it != groups_.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        erased += it->second.entries.size();
        it = groups_.erase(it);
      } else {
        ++it;
      }
    }
    return erased;
  }

  void Clear() { groups_.clear(); }

  size_t size() const {
    size_t n = 0;
    for (const auto& kv : groups_) n += kv.second.entries.size();
    return n;
  }

  const AnswerCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    CachedAnswer answer;
    uint64_t seq;    // Clock at insertion: the equal-δ tie-break.
    uint64_t stamp;  // Clock at the last insert or hit: LRU order.
  };
  struct Group {
    std::vector<Entry> entries;
  };

  // Admissible θ' lie in [θ/r, θ·r] (k and r are 1 - δ_min and
  // (2 - δ_min)/δ_min widened by a few ulps). Band b holds θ with
  // ilogb(θ) in [s·b, s·(b+1)), 2^s being the smallest power of two ≥ r²;
  // its cells have edge max(k(1 + r), 1/64)·2^(s·(b+1)). A lookup takes the
  // grid iff it is on, δ_min > 0, 0 < d ≤ 16, no probe-box coordinate
  // reaches ±2^52, and the cells of the box of radius
  // k(θ + min(θ·r, top(b))) summed over the bands are fewer than the
  // group's entries. A θ that is not positive and finite
  // probes one cell: exact repeats only.
  bool UsesGrid(const Group& g, const query::Query& q) const {
    const size_t n = g.entries.size();
    const size_t d = q.dimension();
    const double k = (1.0 - cfg_.delta_min) * (1.0 + 0x1p-30) + 0x1p-50;
    if (!cfg_.enable_grid || k >= 1.0 || d == 0 || d > 16) return false;
    if (!(q.theta > 0.0 && std::isfinite(q.theta))) return 1 < n;
    const double r = (1.0 + k) / (1.0 - k);
    int s = 1;
    while (std::ldexp(1.0, s) < r * r * (1.0 + 0x1p-30)) ++s;
    const double cell_factor = std::max(k * (1.0 + r), 1.0 / 64.0);
    auto band_of = [s](double theta) {
      return static_cast<int>(std::floor(std::ilogb(theta) / double(s)));
    };
    const double theta_lo = q.theta / r, theta_hi = q.theta * r;
    if (!(theta_lo > 0.0) || !std::isfinite(theta_hi)) return false;
    double cells = 0.0;
    for (int b = band_of(theta_lo); b <= band_of(theta_hi); ++b) {
      const double top = std::ldexp(1.0, s * (b + 1));
      const double edge = cell_factor * top;
      const double radius = k * (q.theta + std::min(theta_hi, top));
      double box = 1.0;
      for (double x : q.center) {
        const double lo = std::floor((x - radius) / edge);
        const double hi = std::floor((x + radius) / edge);
        if (!(std::fabs(lo) < 0x1p52 && std::fabs(hi) < 0x1p52)) return false;
        box *= hi - lo + 1.0;
      }
      cells += box;
    }
    return cells < static_cast<double>(n);
  }

  AnswerCacheConfig cfg_;
  std::map<std::string, Group> groups_;
  uint64_t clock_ = 1;
  AnswerCacheStats stats_;
};

void ExpectSameStats(const AnswerCacheStats& got, const AnswerCacheStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.lookups, want.lookups) << where;
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.inserts, want.inserts) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
  EXPECT_EQ(got.grid_probes, want.grid_probes) << where;
  EXPECT_EQ(got.linear_probes, want.linear_probes) << where;
}

// A seeded stream of mixed operations against the real cache and the
// reference, at capacities small enough that evictions, slot reuse and grid
// cell removal happen on nearly every insert. After every op the two must
// agree on the result, the payload, δ, size() and every counter, and the
// probe grid must hold no more cells than the cache holds entries.
TEST(AnswerCacheDifferentialTest, MatchesReferenceModel) {
  const std::vector<std::string> groups = {"a/g0/Q1", "a/g0/Q2", "b/g0/Q1"};
  const std::vector<std::string> prefixes = {"a/", "a/g0/Q2", "b/", "zzz"};
  for (size_t capacity : {1, 2, 8}) {
    for (bool grid : {true, false}) {
      AnswerCacheConfig cfg;
      cfg.delta_min = 0.8;
      cfg.capacity_per_shard = capacity;
      cfg.num_shards = 2;
      cfg.enable_grid = grid;
      AnswerCache cache(cfg);
      ReferenceCache ref(cfg);
      util::Rng rng(1000 + capacity * 2 + (grid ? 1 : 0));

      // Queries jitter around a few hot centers so probes hit often; a
      // window of recent queries feeds exact repeats and duplicate inserts.
      std::vector<query::Query> recent;
      auto fresh_query = [&rng] {
        const double cx = 0.2 + 0.15 * static_cast<double>(rng.UniformInt(5));
        const double cy = 0.3 + 0.2 * static_cast<double>(rng.UniformInt(3));
        return query::Query(
            {cx + rng.Uniform(-0.02, 0.02), cy + rng.Uniform(-0.02, 0.02)},
            rng.Uniform(0.08, 0.12));
      };
      auto pick_query = [&] {
        if (!recent.empty() && rng.Uniform() < 0.3) {
          return recent[rng.UniformInt(recent.size())];
        }
        return fresh_query();
      };

      for (int op = 0; op < 4000; ++op) {
        const std::string where = "capacity=" + std::to_string(capacity) +
                                  " grid=" + std::to_string(grid) +
                                  " op=" + std::to_string(op);
        const std::string& group = groups[rng.UniformInt(groups.size())];
        const double roll = rng.Uniform();
        if (roll < 0.47) {
          const query::Query q = pick_query();
          CachedAnswer got, want;
          const bool hit = cache.Lookup(group, q, &got);
          ASSERT_EQ(hit, ref.Lookup(group, q, &want)) << where;
          if (hit) {
            EXPECT_EQ(got.q, want.q) << where;
            EXPECT_EQ(got.mean, want.mean) << where;
            EXPECT_EQ(got.delta, want.delta) << where;
            ASSERT_EQ(got.pieces.size(), want.pieces.size()) << where;
            for (size_t k = 0; k < got.pieces.size(); ++k) {
              EXPECT_EQ(got.pieces[k].intercept, want.pieces[k].intercept)
                  << where;
            }
          }
        } else if (roll < 0.95) {
          CachedAnswer a;
          a.q = pick_query();
          a.mean = static_cast<double>(op);
          a.pieces.resize(rng.UniformInt(3));
          for (auto& piece : a.pieces) piece.intercept = rng.Uniform();
          cache.Insert(group, a);
          ref.Insert(group, a);
          recent.push_back(a.q);
          if (recent.size() > 16) recent.erase(recent.begin());
        } else if (roll < 0.99) {
          const std::string& prefix = prefixes[rng.UniformInt(prefixes.size())];
          ASSERT_EQ(cache.EraseGroupsWithPrefix(prefix),
                    ref.EraseGroupsWithPrefix(prefix))
              << where;
        } else {
          cache.Clear();
          ref.Clear();
        }
        ASSERT_EQ(cache.size(), ref.size()) << where;
        ASSERT_LE(cache.grid_cells_for_testing(), cache.size()) << where;
        ExpectSameStats(cache.stats(), ref.stats(), where);
        if (HasFailure()) return;
      }
      const AnswerCacheStats stats = cache.stats();
      EXPECT_GT(stats.hits, 100) << "capacity=" << capacity;
      EXPECT_GT(stats.evictions, 100) << "capacity=" << capacity;
      if (grid && capacity == 8) {
        EXPECT_GT(stats.grid_probes, 0);
      }
    }
  }
}

// ---------- AnswerCache: reads under concurrent writes ----------

// Readers hammer Lookup (shared shard lock) while a writer interleaves
// in-place Insert and EraseGroupsWithPrefix (exclusive shard lock). Every hit
// must return an internally consistent entry — the payload invariant ties
// mean, pieces and the query center together, so a torn read would trip it
// — and the monotone counters must stay exact. Run under TSan by the CI
// concurrency job (suite name matches its ^AnswerCache filter).
TEST(AnswerCacheConcurrencyTest, LookupsNeverTornDuringInsertAndErase) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.95;
  cfg.capacity_per_shard = 64;
  cfg.num_shards = 4;
  AnswerCache cache(cfg);

  // Payload invariant: mean encodes the center, pieces' size and intercept
  // re-encode the mean.
  auto make_answer = [](double cx, int pieces) {
    CachedAnswer a;
    a.q = query::Query({cx, 0.5}, 0.1);
    a.mean = cx * 1000.0 + pieces;
    a.pieces.resize(static_cast<size_t>(pieces));
    for (auto& piece : a.pieces) piece.intercept = a.mean;
    return a;
  };
  auto check_consistent = [](const CachedAnswer& a) {
    const double want_mean =
        a.q.center[0] * 1000.0 + static_cast<double>(a.pieces.size());
    if (a.mean != want_mean) return false;
    for (const auto& piece : a.pieces) {
      if (piece.intercept != a.mean) return false;
    }
    return true;
  };

  // Seed both groups so readers have hits from the start.
  for (int i = 0; i < 32; ++i) {
    cache.Insert("ds/g0/Q1", make_answer(0.01 * i, 1 + (i % 4)));
    cache.Insert("ds/g0/Q2", make_answer(0.01 * i, 1 + (i % 4)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reader_hits{0};
  std::atomic<int64_t> reader_lookups{0};
  std::atomic<bool> torn{false};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&cache, &stop, &reader_hits, &reader_lookups, &torn,
                          &started, &check_consistent, r] {
      util::Rng rng(static_cast<uint64_t>(1000 + r));
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string group = (r % 2 == 0) ? "ds/g0/Q1" : "ds/g0/Q2";
        const query::Query probe({0.01 * rng.UniformInt(32), 0.5}, 0.1);
        CachedAnswer out;
        reader_lookups.fetch_add(1, std::memory_order_relaxed);
        if (cache.Lookup(group, probe, &out)) {
          reader_hits.fetch_add(1, std::memory_order_relaxed);
          if (!check_consistent(out)) torn.store(true, std::memory_order_release);
        }
        if (!counted) {
          counted = true;
          started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // Writer: replacement inserts, fresh inserts (forcing evictions), and
  // periodic prefix erases racing the readers. It starts once every reader
  // is running, or a fast writer could finish before any reader looked up.
  while (started.load(std::memory_order_acquire) < 4) std::this_thread::yield();
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 32; ++i) {
      cache.Insert("ds/g0/Q1", make_answer(0.01 * i, 1 + ((i + round) % 4)));
    }
    for (int i = 0; i < 80; ++i) {
      cache.Insert("ds/g0/Q2", make_answer(0.01 * (i % 40) + round * 1e-4,
                                           1 + ((i + round) % 3)));
    }
    if (round % 10 == 9) {
      cache.EraseGroupsWithPrefix("ds/g0/Q2");
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load()) << "a lookup observed a torn cache entry";
  EXPECT_GT(reader_hits.load(), 0);

  // Counters are exact: every lookup is classified as exactly one hit or
  // miss, with no drops under the concurrent interleaving.
  const AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_GE(stats.lookups, reader_lookups.load());
  EXPECT_EQ(stats.hits, reader_hits.load());
}

// ---------- ModelCatalog sharding ----------

TEST(ModelCatalogShardingTest, ManyDatasetsAcrossShards) {
  TestData* d = SharedData();
  ModelCatalog catalog(/*num_shards=*/4);
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) names.push_back("ds" + std::to_string(i));
  for (const std::string& n : names) {
    ASSERT_TRUE(
        catalog.Register(n, &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  }
  EXPECT_EQ(catalog.size(), names.size());
  std::vector<std::string> sorted_names = names;
  std::sort(sorted_names.begin(), sorted_names.end());
  EXPECT_EQ(catalog.Names(), sorted_names);  // Sorted, shard layout invisible.
  for (const std::string& n : names) EXPECT_TRUE(catalog.Contains(n));
  EXPECT_FALSE(catalog.Contains("ds12"));
  // Get without training works across shards.
  for (const std::string& n : names) {
    auto snap = catalog.Get(n);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->model, nullptr);
    EXPECT_NE(snap->engine, nullptr);
  }
}

// ---------- QueryRouter: agreement with standalone layers ----------

TEST(QueryRouterTest, ExactPolicyMatchesExactEngineBitForBit) {
  TestData* d = SharedData();
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  QueryRouter router(SharedCatalog(), cfg);

  for (const Request& r : MixedWorkload(60, 21)) {
    auto got = router.Execute(r);
    if (r.kind == QueryKind::kQ1MeanValue) {
      auto want = d->engine->MeanValue(r.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;  // Empty subspace propagates as NotFound.
      EXPECT_EQ(got->source, AnswerSource::kExact);
      EXPECT_EQ(got->mean, want->mean);  // Bit-for-bit.
    } else {
      auto want = d->engine->Regression(r.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      ASSERT_EQ(got->pieces.size(), 1u);
      EXPECT_EQ(got->pieces[0].intercept, want->intercept);
      EXPECT_EQ(got->pieces[0].slope, want->slope);
    }
  }
}

TEST(QueryRouterTest, ModelPolicyMatchesLlmModelBitForBit) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  QueryRouter router(SharedCatalog(), cfg);
  auto snap = SharedCatalog()->GetOrTrain("r1");
  ASSERT_TRUE(snap.ok());

  for (const Request& r : MixedWorkload(60, 22)) {
    auto got = router.Execute(r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->source, AnswerSource::kModel);
    if (r.kind == QueryKind::kQ1MeanValue) {
      auto want = snap->model->PredictMean(r.q);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->mean, *want);  // Bit-for-bit.
    } else {
      auto want = snap->model->RegressionQuery(r.q);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(got->pieces.size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ(got->pieces[i].intercept, (*want)[i].intercept);
        EXPECT_EQ(got->pieces[i].slope, (*want)[i].slope);
        EXPECT_EQ(got->pieces[i].weight, (*want)[i].weight);
        EXPECT_EQ(got->pieces[i].prototype_id, (*want)[i].prototype_id);
      }
    }
  }
}

TEST(QueryRouterTest, ExactOnlyPolicyNeverTriggersTraining) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);

  auto got = router.Execute(Request::Q1("ds", query::Query({0.5, 0.5}, 0.12)));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->source, AnswerSource::kExact);
  // The catalog was never asked to train.
  auto snap = catalog.Get("ds");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->model, nullptr);
}

TEST(QueryRouterTest, WrongDimensionQueryIsRejected) {
  QueryRouter router(SharedCatalog(), RouterConfig());
  auto got = router.Execute(
      Request::Q1("r1", query::Query({0.5, 0.5, 0.5}, 0.1)));  // 3-d vs 2-d.
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Stats().errors, 1);
}

TEST(QueryRouterTest, HybridRoutesByTrainedRegion) {
  TestData* d = SharedData();
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  QueryRouter router(SharedCatalog(), cfg);

  // Inside the trained region: answered by the model.
  auto in = router.Execute(Request::Q1("r1", query::Query({0.5, 0.5}, 0.12)));
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->source, AnswerSource::kModel);

  // Far outside [0,1]^2 but with a ball that still reaches data: the
  // vigilance test fails and the router falls back to the exact engine.
  query::Query far({1.5, 1.5}, 1.0);
  auto out = router.Execute(Request::Q1("r1", far));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->source, AnswerSource::kExact);
  EXPECT_EQ(out->mean, d->engine->MeanValue(far)->mean);

  ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.total_queries, 2);
  EXPECT_EQ(stats.model_answers, 1);
  EXPECT_EQ(stats.exact_fallbacks, 1);
}

TEST(QueryRouterTest, CacheHitOnRepeatedQuery) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = true;
  cfg.cache.delta_min = 0.95;
  QueryRouter router(SharedCatalog(), cfg);

  Request r = Request::Q1("r1", query::Query({0.4, 0.6}, 0.1));
  auto first = router.Execute(r);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->source, AnswerSource::kModel);
  auto second = router.Execute(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, AnswerSource::kCache);
  EXPECT_EQ(second->mean, first->mean);
  EXPECT_DOUBLE_EQ(second->cache_delta, 1.0);

  AnswerCacheStats cache_stats = router.CacheStats();
  EXPECT_EQ(cache_stats.hits, 1);
  EXPECT_EQ(router.Stats().cache_hits, 1);
}

// ---------- Overload shedding (graceful degradation) ----------

TEST(OverloadSheddingTest, SaturatedBatchShedsToCacheOrRejects) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;  // Only exact repeats hit: deterministic.
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;
  cfg.overload = OverloadPolicy::kShed;
  QueryRouter router(SharedCatalog(), cfg);

  // Warm the cache inline (single Execute never touches the pool).
  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.1));
  ASSERT_TRUE(router.Execute(warm).ok());

  // Saturate: gate the lone worker, then fill the 1-slot queue.
  std::mutex gate;
  gate.lock();
  util::ThreadPool* pool = router.pool_for_testing();
  pool->Submit([&gate] { gate.lock(); gate.unlock(); });
  while (pool->queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pool->TrySubmit([] {}));

  // Every batch slot now fails TrySubmit: the cached query is served from
  // the δ-cache, the cold one is rejected with the typed status.
  Request cold = Request::Q1("r1", query::Query({0.2, 0.8}, 0.1));
  auto results = router.ExecuteBatch({warm, cold});
  gate.unlock();

  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->source, AnswerSource::kCache);
  EXPECT_EQ(results[0]->mean, router.Execute(warm)->mean);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kResourceExhausted);
  // The shed status is the contract the wire client's retry layer keys on:
  // overload is transient, so a backoff-and-retry is the right response —
  // unlike a bad query or an expired deadline, which must never be retried.
  EXPECT_TRUE(util::IsRetryable(results[1].status().code()));
  EXPECT_FALSE(util::IsRetryable(util::StatusCode::kInvalidArgument));
  EXPECT_FALSE(util::IsRetryable(util::StatusCode::kDeadlineExceeded));

  ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.errors, 1);
}

TEST(OverloadSheddingTest, UnsaturatedBatchNeverSheds) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  cfg.queue_capacity = 256;
  cfg.overload = OverloadPolicy::kShed;
  QueryRouter router(SharedCatalog(), cfg);

  auto results = router.ExecuteBatch(MixedWorkload(100, 41));
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_EQ(router.Stats().shed, 0);
}

// ---------- Router-driven parallel exact scans ----------

TEST(QueryRouterTest, ExactParallelismMatchesStandaloneEngine) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  cfg.exact_threads = 4;  // Partitioned RadiusVisit on a router-owned pool.
  QueryRouter router(&catalog, cfg);

  int64_t answered = 0;
  for (const Request& r : MixedWorkload(40, 67)) {
    Request req = r;
    req.dataset = "ds";
    auto got = router.Execute(req);
    if (req.kind == QueryKind::kQ1MeanValue) {
      auto want = d->engine->MeanValue(req.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      ++answered;
      EXPECT_EQ(got->source, AnswerSource::kExact);
      // Partitioned merge reassociates the sum: equal up to float tolerance,
      // with exact tuple counts.
      EXPECT_NEAR(got->mean, want->mean,
                  1e-9 * std::max(1.0, std::fabs(want->mean)));
    } else {
      auto want = d->engine->Regression(req.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      ++answered;
      ASSERT_EQ(got->pieces.size(), 1u);
      EXPECT_NEAR(got->pieces[0].intercept, want->intercept,
                  1e-8 * std::max(1.0, std::fabs(want->intercept)));
    }
  }
  EXPECT_GT(answered, 20);
}

// ---------- Concurrency: batched == sequential, bit for bit ----------

TEST(QueryRouterTest, ParallelBatchMatchesSequentialBitForBit) {
  RouterConfig seq_cfg;
  seq_cfg.policy = RoutePolicy::kHybrid;
  seq_cfg.enable_cache = false;  // Cache admission is order-dependent.
  seq_cfg.num_threads = 0;
  QueryRouter sequential(SharedCatalog(), seq_cfg);

  RouterConfig par_cfg = seq_cfg;
  par_cfg.num_threads = 4;
  par_cfg.queue_capacity = 32;
  // Block on the full queue: every request must really execute for the
  // bit-for-bit comparison (shedding is covered by OverloadShedding tests).
  par_cfg.overload = OverloadPolicy::kBlock;
  QueryRouter parallel(SharedCatalog(), par_cfg);

  const std::vector<Request> batch = MixedWorkload(200, 31, 0.05, 0.95);
  std::vector<ExecResult> want;
  want.reserve(batch.size());
  for (const Request& r : batch) want.push_back(sequential.Execute(r));
  const std::vector<ExecResult> got = parallel.ExecuteBatch(batch);

  ASSERT_EQ(got.size(), want.size());
  int64_t q1 = 0, q2 = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << "request " << i;
    if (!got[i].ok()) {
      EXPECT_EQ(got[i].status().code(), want[i].status().code());
      continue;
    }
    EXPECT_EQ(got[i]->source, want[i]->source) << "request " << i;
    if (batch[i].kind == QueryKind::kQ1MeanValue) {
      ++q1;
      EXPECT_EQ(got[i]->mean, want[i]->mean) << "request " << i;
    } else {
      ++q2;
      ASSERT_EQ(got[i]->pieces.size(), want[i]->pieces.size()) << "request " << i;
      for (size_t p = 0; p < got[i]->pieces.size(); ++p) {
        EXPECT_EQ(got[i]->pieces[p].intercept, want[i]->pieces[p].intercept);
        EXPECT_EQ(got[i]->pieces[p].slope, want[i]->pieces[p].slope);
        EXPECT_EQ(got[i]->pieces[p].weight, want[i]->pieces[p].weight);
      }
    }
  }
  EXPECT_GT(q1, 0);
  EXPECT_GT(q2, 0);
  EXPECT_EQ(parallel.Stats().total_queries, static_cast<int64_t>(batch.size()));
}

// ---------- Cache accuracy: δ-admission respects the error bound ----------

TEST(AnswerCacheAccuracyTest, DeltaAdmissionKeepsFvuWithinBound) {
  // Serve a clustered workload with exact execution + caching. Every answer
  // the cache substitutes (δ ≥ δ_min) is compared against the true exact
  // answer for *that* query; the FVU of the substituted answers must stay
  // within the configured bound.
  constexpr double kDeltaMin = 0.95;
  constexpr double kFvuBound = 0.05;

  TestData* d = SharedData();
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // Isolate cache-induced error.
  cfg.enable_cache = true;
  cfg.cache.delta_min = kDeltaMin;
  cfg.cache.capacity_per_shard = 2048;
  QueryRouter router(SharedCatalog(), cfg);

  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.40, 0.60, 0.12, 0.01, 17));
  eval::FvuAccumulator fvu;
  int64_t hits = 0;
  for (int i = 0; i < 600; ++i) {
    query::Query q = gen.Next();
    auto got = router.Execute(Request::Q1("r1", q));
    if (!got.ok()) continue;
    if (got->source != AnswerSource::kCache) continue;
    ++hits;
    EXPECT_GE(got->cache_delta, kDeltaMin);
    auto exact = d->engine->MeanValue(q);
    ASSERT_TRUE(exact.ok());
    fvu.Add(exact->mean, got->mean);
  }
  ASSERT_GT(hits, 10) << "clustered workload produced too few cache hits";
  EXPECT_LE(fvu.Fvu(), kFvuBound)
      << "δ-admitted answers drifted beyond the accuracy bound; hits=" << hits;
}

// ---------- ServiceStats ----------

TEST(ServiceStatsTest, SnapshotAggregatesCounters) {
  ServiceStats stats(/*latency_window=*/8);
  for (int i = 0; i < 10; ++i) {
    QueryOutcome o;
    o.latency_nanos = 1000000;
    o.ok = true;
    o.cache_hit = i % 2 == 0;
    o.used_exact = i % 2 == 1;
    stats.Record(o);
  }
  ServiceSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.total_queries, 10);
  EXPECT_EQ(s.cache_hits, 5);
  EXPECT_EQ(s.exact_fallbacks, 5);
  EXPECT_EQ(s.errors, 0);
  EXPECT_DOUBLE_EQ(s.CacheHitRate(), 0.5);
  EXPECT_DOUBLE_EQ(s.ExactFallbackRate(), 0.5);
  EXPECT_NEAR(s.p50_ms, 1.0, 1e-9);
  EXPECT_GT(s.qps, 0.0);

  stats.Reset();
  EXPECT_EQ(stats.Snapshot().total_queries, 0);
}

TEST(ServiceStatsTest, LifecycleCountersRoundTripThroughSnapshot) {
  ServiceStats stats;

  QueryOutcome deadline;
  deadline.ok = false;
  deadline.deadline_exceeded = true;
  deadline.train_aborted = true;  // The trip hit the lazy-training path.
  stats.Record(deadline);

  QueryOutcome cancelled;
  cancelled.ok = false;
  cancelled.cancelled = true;
  stats.Record(cancelled);

  QueryOutcome degraded;  // Model fallback under deadline pressure: still ok.
  degraded.ok = true;
  degraded.degraded = true;
  stats.Record(degraded);

  stats.RecordRetrain();
  stats.RecordRetrain();

  ServiceSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.total_queries, 3);
  EXPECT_EQ(s.errors, 2);
  EXPECT_EQ(s.deadline_exceeded, 1);
  EXPECT_EQ(s.cancelled, 1);
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.model_answers, 1);  // The degraded answer came from the model.
  EXPECT_EQ(s.retrains, 2);
  EXPECT_EQ(s.train_aborted, 1);

  stats.Reset();
  ServiceSnapshot zero = stats.Snapshot();
  EXPECT_EQ(zero.deadline_exceeded, 0);
  EXPECT_EQ(zero.cancelled, 0);
  EXPECT_EQ(zero.degraded, 0);
  EXPECT_EQ(zero.retrains, 0);
  EXPECT_EQ(zero.train_aborted, 0);
}

}  // namespace
}  // namespace service
}  // namespace qreg
