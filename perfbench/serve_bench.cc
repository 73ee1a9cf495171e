// The serving benchmark. One process stands up one net::Server on loopback
// in the shape `analytics_service --serve` uses (hybrid routing, δ-cache,
// the same router/executor/event-loop counts) over one ModelCatalog holding
// two datasets, then a load generator inside the same process drives one
// named workload through net::Client and verifies every answer against the
// in-process ExactEngine / LlmModel.
//
// Phases of one run:
//   1. set-up, repeated kSetupRepeats times (data generation,
//      k-d tree build, TrainAll, server start, a cache-filling warm-up);
//      the last stack serves the run, the median repetition is `setup_s`;
//   2. --seconds of load in rounds of about five seconds, each a closed-loop
//      segment then an open-loop one. In the closed loop each connection
//      keeps a fixed pipelined window in flight (summed below the router's
//      queue bound), giving `goodput_qps`: verified ok answers per second.
//      The open loop sends at the workload's fixed offered rate and times
//      latency from each request's scheduled send instant. Segments in which
//      the hypervisor stole CPU time are left out of the medians;
//   3. verification of every answer and the accuracy sample (untimed);
//   4. with trace=1 only: an in-process replay of the closed-loop requests
//      through each layer's public calls, untraced and traced in lockstep,
//      giving the per-layer metrics. Its spans are written to out_dir.
//
// Arguments are key=value pairs: workload, seed, seconds, trace and out_dir
// (perfbench/run.py passes them). The server, router, datasets, workloads
// and load generator are fixed below. The last stdout line starting with
// "RESULT " is one JSON object: correct, attempted, failed, metrics, and
// host, which records the effective configuration.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/llm_model.h"
#include "data/generator.h"
#include "eval/fvu_eval.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "service/answer_cache.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "storage/kdtree.h"
#include "util/rng.h"
#include "util/timer.h"

namespace qreg {
namespace perfbench {
namespace {

using util::NowNanos;

// ------------------------------------------------------------ parameters --

/// The run's key=value arguments.
class Params {
 public:
  bool Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* eq = std::strchr(argv[i], '=');
      if (eq == nullptr) {
        std::fprintf(stderr, "argument '%s' is not key=value\n", argv[i]);
        return false;
      }
      kv_[std::string(argv[i], static_cast<size_t>(eq - argv[i]))] = std::string(eq + 1);
    }
    return true;
  }

  std::string Str(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) Fail("missing parameter '" + key + "'");
    return it->second;
  }
  double Num(const std::string& key) const {
    const std::string s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
      Fail("parameter '" + key + "' is not a number: '" + s + "'");
    }
    return v;
  }
  int64_t Int(const std::string& key) const {
    const double v = Num(key);
    if (v != std::floor(v) || v < 0) {
      Fail("parameter '" + key + "' is not a whole number");
    }
    return static_cast<int64_t>(v);
  }

  [[noreturn]] static void Fail(const std::string& why) {
    std::fprintf(stderr, "serve_bench: %s\n", why.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> kv_;
};

struct DatasetSpec {
  const char* name;
  const char* generator;  // "R1" or "R2" (data/generator.h).
  size_t d;
  int64_t rows;
  double lo, hi;
  double theta_mean, theta_stddev;
  double a;
  int64_t max_pairs;
  std::vector<double> train_lo, train_hi;  // Training-query center box.
  uint64_t seed;        // Data.
  uint64_t train_seed;  // Training-query stream.
};

/// The catalog's datasets. A is the demo catalog of `analytics_service
/// --serve`, trained over its whole domain; B's model is trained only on
/// x₁ < 0, as a model learned from past traffic would be. Datasets and
/// models are fixed: a seed changes the traffic, not what is served.
const DatasetSpec kDatasets[] = {
    {"A", "R1", 2, 50000, 0.0, 1.0, 0.1, 0.05, 0.1, 15000, {0.0, 0.0}, {1.0, 1.0}, 1, 7},
    {"B", "R2", 2, 400000, -10.0, 10.0, 2.0, 2.0, 0.1, 15000, {-10.0, -10.0}, {0.0, 10.0}, 2,
     8},
};

struct WorkloadSpec {
  const char* name;
  const char* dataset;
  std::vector<double> center_lo, center_hi;
  double theta_mean, theta_stddev;
  double offered_qps;  // Open loop, in total.
};

const WorkloadSpec kWorkloads[] = {
    // Dashboard reuse: nearly every request is a δ-cache hit.
    {"hotspot", "A", {0.35, 0.35}, {0.65, 0.65}, 0.1, 0.01, 20000.0},
    // The paper's §VI-A traffic: mostly model answers, each inserted.
    {"uniform", "A", {0.0, 0.0}, {1.0, 1.0}, 0.1, 0.1, 2000.0},
    // The half of B its model never saw: mostly exact scans.
    {"newregion", "B", {0.0, -10.0}, {10.0, 10.0}, 2.0, 2.0, 2000.0},
};

// The load generator. Closed loop: one thread per connection, each keeping
// kWindow requests in flight. Open loop: a sender and a reader thread per
// connection.
constexpr size_t kClosedConnections = 2;
constexpr size_t kWindow = 96;
constexpr size_t kOpenConnections = 2;
constexpr int64_t kSetupRepeats = 3;
constexpr int64_t kWarmupRequests = 8000;   // Over all closed connections.
constexpr int64_t kReplayRequests = 10000;  // Traced run only.
constexpr int64_t kAccuracySample = 8000;   // Stream positions per closed connection.
constexpr int64_t kFvuMinPoints = 20;       // Smallest subspace a Q2 FVU is taken over.

/// The router `analytics_service --serve` runs: library defaults, hybrid
/// routing, δ_min 0.9 and two worker threads.
service::RouterConfig MakeRouterConfig() {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.cache.delta_min = 0.9;
  cfg.num_threads = 2;
  return cfg;
}

/// Its server: library defaults on an ephemeral loopback port.
net::ServerConfig MakeServerConfig() {
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.bind_address = "127.0.0.1";
  return cfg;
}

struct BenchSpec {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  const WorkloadSpec* workload = nullptr;
  service::RouterConfig router;
  net::ServerConfig server;
};

BenchSpec ReadSpec(const Params& p) {
  BenchSpec s;
  s.seed = static_cast<uint64_t>(p.Int("seed"));
  s.seconds = p.Num("seconds");
  s.trace = p.Int("trace") != 0;
  s.out_dir = p.Str("out_dir");
  s.router = MakeRouterConfig();
  s.server = MakeServerConfig();
  const std::string name = p.Str("workload");
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) s.workload = &w;
  }
  if (s.workload == nullptr) Params::Fail("unknown workload '" + name + "'");

  // The load generator never runs more threads than the host has cores.
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  if (kClosedConnections > nproc || 2 * kOpenConnections > nproc) {
    Params::Fail("load generator would run more threads than cores");
  }
  // Stay below the router's queue bound so a healthy server sheds nothing.
  if (kClosedConnections * kWindow >= s.router.queue_capacity) {
    Params::Fail("closed-loop window must stay below the router queue bound");
  }
  return s;
}

/// The effective configuration, as a JSON object for the RESULT line.
std::string ConfigJson(const BenchSpec& s) {
  static const char* const kPolicies[] = {"hybrid", "model_only", "exact_only"};
  char buf[512];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"server\": {\"backend\": \"%s\", \"event_loops\": %zu, "
      "\"executor_threads\": %zu}, \"router\": {\"policy\": \"%s\", \"threads\": %zu, "
      "\"queue_capacity\": %zu, \"delta_min\": %g, \"cache_capacity_per_shard\": %zu}, "
      "\"loadgen\": {\"closed_connections\": %zu, \"window\": %zu, "
      "\"open_connections\": %zu, \"offered_qps\": %g}, \"rows\": {",
      net::BackendKindName(s.server.backend), s.server.event_loops,
      s.server.executor_threads, kPolicies[static_cast<int>(s.router.policy)],
      s.router.num_threads, s.router.queue_capacity, s.router.cache.delta_min,
      s.router.cache.capacity_per_shard, kClosedConnections, kWindow,
      kOpenConnections, s.workload->offered_qps);
  if (n < 0 || static_cast<size_t>(n) >= sizeof buf) Params::Fail("config line too long");
  std::string out = buf;
  for (size_t i = 0; i < std::size(kDatasets); ++i) {
    out += (i > 0 ? ", \"" : "\"") + std::string(kDatasets[i].name) +
           "\": " + std::to_string(kDatasets[i].rows);
  }
  return out + "}}";
}

// Seeds of the request streams, derived from --seed (the workload seed).
// Connection c of a phase uses seeds[slot] + c.
enum SeedSlot : size_t { kWarmupSeed, kClosedSeed, kOpenSeed, kNumSeeds };

// ------------------------------------------------------------ statistics --

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host CPU time from /proc/stat: jiffies stolen by the hypervisor, and all
/// jiffies, summed over the CPUs.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;

  static HostCpu Now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    HostCpu h;
    for (int field = 0; field < 10 && in; ++field) {
      double v = 0.0;
      in >> v;
      h.total += v;
      if (field == 7) h.steal = v;
    }
    return h;
  }

  /// Share of the host's CPU time the hypervisor stole since `before`.
  double StealShareSince(const HostCpu& before) const {
    return Ratio(steal - before.steal, total - before.total);
  }
};

/// A load segment during which the hypervisor stole more than this share of
/// the host's CPU time measures the neighbours, not the program: it is left
/// out of the goodput and latency medians, unless fewer than two segments of
/// the run are clean.
constexpr double kMaxStealShare = 0.005;

/// The entries of `per_segment` whose segment was clean, or all of them when
/// fewer than two were.
std::vector<double> CleanOnly(const std::vector<std::vector<double>>& per_segment,
                              const std::vector<bool>& clean) {
  std::vector<double> kept, all;
  size_t clean_segments = 0;
  for (size_t i = 0; i < per_segment.size(); ++i) {
    all.insert(all.end(), per_segment[i].begin(), per_segment[i].end());
    if (clean[i]) {
      kept.insert(kept.end(), per_segment[i].begin(), per_segment[i].end());
      ++clean_segments;
    }
  }
  return clean_segments >= 2 ? kept : all;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB.
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- the stack --

struct SetupTimes {
  double generate_s = 0.0;
  double kdtree_s = 0.0;
  double train_s = 0.0;
  double total_s = 0.0;  // Everything, warm-up included.
  int64_t train_pairs = 0;
};

/// Everything the server needs, torn down in reverse order of construction
/// (server first, so no request is in flight when the catalog goes away).
struct Stack {
  std::vector<std::unique_ptr<data::Dataset>> datasets;
  std::vector<std::unique_ptr<storage::KdTree>> indexes;
  std::unique_ptr<service::ModelCatalog> catalog;
  std::unique_ptr<service::QueryRouter> router;
  std::unique_ptr<net::Server> server;
  uint16_t port = 0;
  SetupTimes times;

  const data::Dataset& Data(const std::string& name) const {
    for (size_t i = 0; i < std::size(kDatasets); ++i) {
      if (name == kDatasets[i].name) return *datasets[i];
    }
    Params::Fail("unknown dataset '" + name + "'");
  }
};

/// A seeded request stream: a fresh query per call, Q1 and Q2 alternating.
class Stream {
 public:
  Stream(const WorkloadSpec& w, uint64_t seed) : gen_(Config(w, seed)), dataset_(w.dataset) {}

  net::WireRequest Next() {
    query::Query q = gen_.Next();
    return (n_++ % 2 == 0) ? net::WireRequest::Q1(dataset_, std::move(q))
                           : net::WireRequest::Q2(dataset_, std::move(q));
  }

 private:
  static query::WorkloadConfig Config(const WorkloadSpec& w, uint64_t seed) {
    query::WorkloadConfig c;
    c.d = w.center_lo.size();
    c.center_lo = w.center_lo;
    c.center_hi = w.center_hi;
    c.theta_mean = w.theta_mean;
    c.theta_stddev = w.theta_stddev;
    c.seed = seed;
    return c;
  }

  query::WorkloadGenerator gen_;
  std::string dataset_;
  int64_t n_ = 0;
};

// ------------------------------------------------------------ load loops --

/// What the sending side knows about one request.
struct Sent {
  query::Query q;
  service::QueryKind kind = service::QueryKind::kQ1MeanValue;
  int64_t position = 0;      // Index in the connection's request stream.
  int64_t scheduled_ns = 0;  // Open loop: when the request was due.
  int64_t sent_ns = 0;
};

/// What the reading side learned about it. Written only by the reader.
struct Received {
  bool arrived = false;
  util::StatusCode code = util::StatusCode::kOk;
  service::AnswerSource source = service::AnswerSource::kModel;
  double mean = 0.0;
  double cache_delta = 0.0;
  std::vector<core::LocalLinearModel> pieces;
  int64_t exec_nanos = 0;
  int64_t recv_ns = 0;
};

struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t empty = 0;  // kNotFound on a ball the exact engine confirms empty.
  int64_t failed = 0;
  int64_t mismatched = 0;
  int64_t by_source[3] = {0, 0, 0};
  std::vector<std::string> mismatches;  // First few, for the log.

  void Note(const std::string& what) {
    if (mismatches.size() < 5) mismatches.push_back(what);
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    empty += o.empty;
    failed += o.failed;
    mismatched += o.mismatched;
    for (int i = 0; i < 3; ++i) by_source[i] += o.by_source[i];
    for (const std::string& m : o.mismatches) Note(m);
  }
};

/// One connection's requests. Records that need the exact engine or the
/// model to verify, or that are in the accuracy sample, are kept whole;
/// a closed loop checks the rest — cache answers, whose only check is
/// cache_delta — as they arrive, so the generator's memory does not grow
/// with the goodput.
struct ConnLog {
  std::vector<Sent> sent;
  std::vector<Received> recv;
  int64_t next_position = 0;           // Requests taken from the stream so far.
  Tally checked;                       // Closed loop: verified on arrival.
  std::vector<double> exec_us;         // Closed loop: every ok answer's exec.nanos.
  std::vector<int64_t> ok_per_window;  // Closed loop: ok answers per window.
  std::vector<size_t> round_begin;     // Open loop: first record of each round.
};

/// Records a response. A cache answer's Q2 payload is kept only on request
/// (for the accuracy sample): its check needs only cache_delta.
void Store(util::Result<service::Answer> response, int64_t now, bool keep_cached_pieces,
           Received* r) {
  r->arrived = true;
  r->recv_ns = now;
  if (!response.ok()) {
    r->code = response.status().code();
    return;
  }
  service::Answer& a = response.value();
  r->source = a.source;
  r->mean = a.mean;
  r->cache_delta = a.cache_delta;
  r->exec_nanos = a.exec.nanos;
  if (a.source != service::AnswerSource::kCache || keep_cached_pieces) {
    r->pieces = std::move(a.pieces);
  }
}

/// Goodput is counted in windows of this length and reported as the median
/// window, so a short stall of the shared host moves one window, not the
/// figure.
constexpr int64_t kGoodputWindowNs = 500000000;

/// A closed-loop connection: keeps `window` requests in flight and sends the
/// next one only when an answer comes back. Sends stop at `stop_ns`, or once
/// `max_requests` were sent when that is non-zero; in-flight requests are
/// then drained. Requests at stream positions below `keep_below` are kept
/// whole for the accuracy sample.
void ClosedConn(net::Client* client, Stream* stream, size_t window, double delta_min,
                int64_t start_ns, int64_t stop_ns, int64_t max_requests,
                int64_t keep_below, ConnLog* log) {
  std::unordered_map<uint64_t, Sent> in_flight;
  int64_t sent = 0;
  const size_t first_window = log->ok_per_window.size();
  log->ok_per_window.resize(
      first_window + static_cast<size_t>((stop_ns - start_ns) / kGoodputWindowNs), 0);
  auto more = [&](int64_t now) {
    return max_requests > 0 ? sent < max_requests : now < stop_ns;
  };
  auto send_next = [&]() {
    net::WireRequest req = stream->Next();
    Sent s;
    s.q = req.q;
    s.kind = req.kind;
    s.position = log->next_position++;
    s.sent_ns = NowNanos();
    ++sent;
    const uint64_t id = static_cast<uint64_t>(log->next_position);
    in_flight.emplace(id, std::move(s));
    return client->SendRequest(req, id).ok();
  };
  while (in_flight.size() < window && more(NowNanos())) {
    if (!send_next()) break;
  }
  while (!in_flight.empty()) {
    uint64_t id = 0;
    util::Result<service::Answer> response = client->ReadResponse(&id);
    const int64_t now = NowNanos();
    auto it = in_flight.find(id);
    if (it == in_flight.end()) break;  // Transport failure.
    Sent s = std::move(it->second);
    in_flight.erase(it);
    Received r;
    Store(std::move(response), now, /*keep_cached_pieces=*/true, &r);
    if (r.code == util::StatusCode::kOk) {
      log->exec_us.push_back(static_cast<double>(r.exec_nanos) / 1e3);
      const size_t w = first_window + static_cast<size_t>((now - start_ns) / kGoodputWindowNs);
      if (w < log->ok_per_window.size()) ++log->ok_per_window[w];
    }
    if (r.code == util::StatusCode::kOk && r.source == service::AnswerSource::kCache &&
        s.position >= keep_below) {
      ++log->checked.attempted;
      if (r.cache_delta >= delta_min) {
        ++log->checked.ok;
        ++log->checked.by_source[static_cast<int>(service::AnswerSource::kCache)];
      } else {
        ++log->checked.mismatched;
        log->checked.Note("mismatch: cache answer below delta_min");
      }
    } else {
      log->sent.push_back(std::move(s));
      log->recv.push_back(std::move(r));
    }
    if (more(now) && !send_next()) break;
  }
  // Whatever is still in flight after a transport failure never arrived.
  for (auto& [id, s] : in_flight) {
    (void)id;
    log->sent.push_back(std::move(s));
    log->recv.emplace_back();
  }
}

/// An open-loop connection: a sender thread sends `count` requests on a
/// fixed schedule regardless of answers, the calling thread reads.
void OpenConn(net::Client* client, Stream* stream, double rate, int64_t count,
              int64_t start_ns, ConnLog* log) {
  // Request ids are record index + 1, unique across rounds.
  const size_t base = log->sent.size();
  log->round_begin.push_back(base);
  log->sent.resize(base + static_cast<size_t>(count));
  log->recv.resize(base + static_cast<size_t>(count));
  log->next_position += count;
  const double interval_ns = 1e9 / rate;
  std::thread sender([&] {
    // Fine-grained sleeps: the default 50 µs timer slack would add that much
    // lateness to every paced send.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (int64_t i = 0; i < count; ++i) {
      const int64_t due = start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      const int64_t wait = due - NowNanos();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      net::WireRequest req = stream->Next();
      const size_t index = base + static_cast<size_t>(i);
      Sent& s = log->sent[index];
      s.q = req.q;
      s.kind = req.kind;
      s.position = static_cast<int64_t>(index);
      s.scheduled_ns = due;
      s.sent_ns = NowNanos();
      if (!client->SendRequest(req, index + 1).ok()) return;
    }
  });
  for (int64_t seen = 0; seen < count; ++seen) {
    uint64_t id = 0;
    util::Result<service::Answer> response = client->ReadResponse(&id);
    const int64_t now = NowNanos();
    // Transport failure: the rest never arrives; the sender runs out its
    // schedule against the dead socket and is joined below.
    if (id <= base || id > base + static_cast<uint64_t>(count)) break;
    Store(std::move(response), now, /*keep_cached_pieces=*/false, &log->recv[id - 1]);
  }
  sender.join();
}

using Clients = std::vector<std::unique_ptr<net::Client>>;

constexpr int kRecvTimeoutMillis = 20000;

/// Opens `n` connections, each with a receive timeout so a stalled server
/// fails the run instead of hanging it.
Clients Connect(uint16_t port, size_t n) {
  Clients clients;
  for (size_t i = 0; i < n; ++i) {
    auto c = std::make_unique<net::Client>();
    const util::Status st = c->Connect("127.0.0.1", port);
    if (!st.ok()) Params::Fail("connect failed: " + st.ToString());
    c->set_recv_timeout_millis(kRecvTimeoutMillis);
    clients.push_back(std::move(c));
  }
  return clients;
}

/// One closed-loop segment: connection c sends stream c, one thread each.
void ClosedSegment(const BenchSpec& spec, const Clients& clients, std::vector<Stream>* streams,
                   double seconds, int64_t max_per_conn, int64_t keep_below,
                   std::vector<ConnLog>* logs) {
  const int64_t start_ns = NowNanos();
  const int64_t stop_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClosedConn(clients[c].get(), &(*streams)[c], kWindow, spec.router.cache.delta_min, start_ns,
                 stop_ns, max_per_conn, keep_below, &(*logs)[c]);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// One open-loop segment of `seconds` at `offered_qps` in total, spread
/// evenly over the connections.
void OpenSegment(const Clients& clients, std::vector<Stream>* streams, double offered_qps,
                 double seconds, std::vector<ConnLog>* logs) {
  const double rate = offered_qps / static_cast<double>(clients.size());
  const int64_t count = std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
  const int64_t start = NowNanos() + 1000000;
  std::vector<std::thread> readers;
  for (size_t c = 0; c < clients.size(); ++c) {
    // Connections are offset by a fraction of the interval, so the merged
    // schedule is evenly spaced.
    const int64_t offset = static_cast<int64_t>(1e9 / offered_qps * static_cast<double>(c));
    readers.emplace_back([&, c, offset] {
      OpenConn(clients[c].get(), &(*streams)[c], rate, count, start + offset, &(*logs)[c]);
    });
  }
  for (std::thread& t : readers) t.join();
}

// ----------------------------------------------------------------- setup --

util::Result<std::unique_ptr<Stack>> BuildStack(const BenchSpec& spec) {
  const std::vector<uint64_t> seeds = util::DeriveSeeds(spec.seed, kNumSeeds);
  auto stack = std::make_unique<Stack>();
  util::Stopwatch total;

  util::Stopwatch sw;
  for (const DatasetSpec& d : kDatasets) {
    auto made = std::string(d.generator) == "R1" ? data::MakeR1(d.d, d.rows, d.seed)
                                    : data::MakeR2(d.d, d.rows, d.seed);
    if (!made.ok()) return made.status();
    stack->datasets.push_back(std::make_unique<data::Dataset>(std::move(made).value()));
  }
  stack->times.generate_s = sw.ElapsedSeconds();

  sw.Restart();
  for (const auto& ds : stack->datasets) {
    stack->indexes.push_back(std::make_unique<storage::KdTree>(ds->table));
  }
  stack->times.kdtree_s = sw.ElapsedSeconds();

  stack->catalog = std::make_unique<service::ModelCatalog>();
  for (size_t i = 0; i < std::size(kDatasets); ++i) {
    const DatasetSpec& d = kDatasets[i];
    service::CatalogOptions opts = service::CatalogOptions::ForCube(
        d.d, d.lo, d.hi, d.theta_mean, d.theta_stddev, d.a, d.max_pairs, d.train_seed);
    opts.workload.center_lo = d.train_lo;
    opts.workload.center_hi = d.train_hi;
    QREG_RETURN_NOT_OK(stack->catalog->Register(d.name, &stack->datasets[i]->table,
                                                stack->indexes[i].get(), opts));
  }
  sw.Restart();
  QREG_RETURN_NOT_OK(stack->catalog->TrainAll());
  stack->times.train_s = sw.ElapsedSeconds();
  for (const DatasetSpec& d : kDatasets) {
    auto snap = stack->catalog->Get(d.name);
    if (!snap.ok()) return snap.status();
    stack->times.train_pairs += snap->report.pairs_used;
  }

  stack->router = std::make_unique<service::QueryRouter>(stack->catalog.get(),
                                                         spec.router);
  stack->server = std::make_unique<net::Server>(stack->router.get(), spec.server);
  auto endpoint = stack->server->Start();
  if (!endpoint.ok()) return endpoint.status();
  stack->port = endpoint->port;

  // Warm-up: fills the δ-cache to its steady state before anything is
  // timed. Its cost belongs to set-up, not to goodput.
  std::vector<Stream> warm;
  for (size_t c = 0; c < kClosedConnections; ++c) {
    warm.emplace_back(*spec.workload, seeds[kWarmupSeed] + c);
  }
  const int64_t per_conn = std::max<int64_t>(
      1, kWarmupRequests / static_cast<int64_t>(kClosedConnections));
  std::vector<ConnLog> warm_logs(warm.size());
  ClosedSegment(spec, Connect(stack->port, warm.size()), &warm, 0.0, per_conn, 0, &warm_logs);
  stack->times.total_s = total.ElapsedSeconds();
  return stack;
}

// ---------------------------------------------------------- verification --

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

bool SamePieces(const std::vector<core::LocalLinearModel>& a,
                const std::vector<core::LocalLinearModel>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i].intercept, b[i].intercept) ||
        a[i].prototype_id != b[i].prototype_id ||
        !SameBits(a[i].weight, b[i].weight) ||
        a[i].slope.size() != b[i].slope.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].slope.size(); ++j) {
      if (!SameBits(a[i].slope[j], b[i].slope[j])) return false;
    }
  }
  return true;
}

/// The exact engine's answer in the router's list-S shape (one plane).
util::Result<service::Answer> ExactAnswer(const query::ExactEngine& engine,
                                          service::QueryKind kind,
                                          const query::Query& q,
                                          query::ExecStats* stats) {
  service::Answer a;
  a.kind = kind;
  a.source = service::AnswerSource::kExact;
  if (kind == service::QueryKind::kQ1MeanValue) {
    auto r = engine.MeanValue(q, stats);
    if (!r.ok()) return r.status();
    a.mean = r->mean;
  } else {
    auto fit = engine.Regression(q, stats);
    if (!fit.ok()) return fit.status();
    core::LocalLinearModel m;
    m.intercept = fit->intercept;
    m.slope = std::move(fit->slope);
    m.prototype_id = -1;
    m.weight = 1.0;
    a.pieces.push_back(std::move(m));
  }
  return a;
}

enum class Verdict { kOk, kEmpty, kFailed, kMismatch };

struct Verifier {
  const query::ExactEngine* engine = nullptr;
  std::shared_ptr<const core::LlmModel> model;
  double delta_min = 0.9;

  Verdict Check(const Sent& s, const Received& r, std::string* why) const {
    if (!r.arrived) {
      *why = "no response";
      return Verdict::kFailed;
    }
    if (r.code != util::StatusCode::kOk) {
      if (r.code != util::StatusCode::kNotFound) {
        *why = util::StatusCodeToString(r.code);
        return Verdict::kFailed;
      }
      if (engine->MeanValue(s.q).status().code() == util::StatusCode::kNotFound) {
        return Verdict::kEmpty;
      }
      *why = "kNotFound for a non-empty subspace";
      return Verdict::kMismatch;
    }
    switch (r.source) {
      case service::AnswerSource::kCache:
        if (r.cache_delta >= delta_min) return Verdict::kOk;
        *why = "cache answer below delta_min";
        return Verdict::kMismatch;
      case service::AnswerSource::kModel: {
        if (s.kind == service::QueryKind::kQ1MeanValue) {
          auto m = model->PredictMean(s.q);
          if (m.ok() && SameBits(*m, r.mean)) return Verdict::kOk;
        } else {
          auto p = model->RegressionQuery(s.q);
          if (p.ok() && SamePieces(*p, r.pieces)) return Verdict::kOk;
        }
        *why = "model answer differs from LlmModel";
        return Verdict::kMismatch;
      }
      case service::AnswerSource::kExact: {
        auto e = ExactAnswer(*engine, s.kind, s.q, nullptr);
        if (e.ok() && (s.kind == service::QueryKind::kQ1MeanValue
                           ? SameBits(e->mean, r.mean)
                           : SamePieces(e->pieces, r.pieces))) {
          return Verdict::kOk;
        }
        *why = "exact answer differs from ExactEngine";
        return Verdict::kMismatch;
      }
    }
    *why = "unknown answer source";
    return Verdict::kMismatch;
  }
};

/// Runs `fn(i)` for i in [0, n) on up to `threads` threads.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t, size_t)>& fn) {
  std::vector<std::thread> pool;
  std::atomic<size_t> next{0};
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(t, i);
    });
  }
  for (std::thread& th : pool) th.join();
}

size_t VerifyThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

Tally VerifyAll(const Verifier& v, const std::vector<ConnLog>& logs) {
  std::vector<std::pair<size_t, size_t>> items;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (size_t i = 0; i < logs[c].sent.size(); ++i) items.emplace_back(c, i);
  }
  const size_t threads = VerifyThreads();
  std::vector<Tally> part(threads);
  ParallelFor(items.size(), threads, [&](size_t t, size_t k) {
    const Sent& s = logs[items[k].first].sent[items[k].second];
    const Received& r = logs[items[k].first].recv[items[k].second];
    Tally& tally = part[t];
    ++tally.attempted;
    std::string why;
    switch (v.Check(s, r, &why)) {
      case Verdict::kOk:
        ++tally.ok;
        ++tally.by_source[static_cast<int>(r.source)];
        break;
      case Verdict::kEmpty:
        ++tally.empty;
        break;
      case Verdict::kFailed:
        ++tally.failed;
        tally.Note("failed: " + why);
        break;
      case Verdict::kMismatch:
        ++tally.mismatched;
        tally.Note("mismatch: " + why);
        break;
    }
  });
  Tally out;
  for (const ConnLog& log : logs) out.Add(log.checked);
  for (const Tally& t : part) out.Add(t);
  return out;
}

struct Accuracy {
  double q1_rmse = 0.0;
  int64_t q1_n = 0;
  double q2_fvu = 0.0;
  int64_t q2_n = 0;
};

/// Served answers on the deterministic sample (stream positions below
/// `sample` on every closed-loop connection) against the exact engine.
/// Accuracy is the served answer's, so an exact answer counts with error 0.
Accuracy MeasureAccuracy(const Verifier& v, const storage::Table& table,
                         const std::vector<ConnLog>& logs, int64_t sample,
                         int64_t min_points) {
  std::vector<std::pair<size_t, size_t>> items;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (size_t i = 0; i < logs[c].sent.size(); ++i) {
      if (logs[c].sent[i].position < sample && logs[c].recv[i].arrived &&
          logs[c].recv[i].code == util::StatusCode::kOk) {
        items.emplace_back(c, i);
      }
    }
  }
  const size_t threads = VerifyThreads();
  struct Part {
    double sse = 0.0;
    int64_t q1 = 0;
    std::vector<double> fvu;
  };
  std::vector<Part> part(threads);
  const auto& protos = v.model->prototypes();
  ParallelFor(items.size(), threads, [&](size_t t, size_t k) {
    const Sent& s = logs[items[k].first].sent[items[k].second];
    const Received& r = logs[items[k].first].recv[items[k].second];
    if (s.kind == service::QueryKind::kQ1MeanValue) {
      auto exact = v.engine->MeanValue(s.q);
      if (!exact.ok()) return;
      const double e = r.mean - exact->mean;
      part[t].sse += e * e;
      ++part[t].q1;
      return;
    }
    auto ids = v.engine->Select(s.q);
    if (!ids.ok() || static_cast<int64_t>(ids->size()) < min_points) return;
    std::vector<std::vector<double>> anchors;
    for (const core::LocalLinearModel& m : r.pieces) {
      const bool from_model =
          m.prototype_id >= 0 && static_cast<size_t>(m.prototype_id) < protos.size();
      anchors.push_back(from_model ? protos[static_cast<size_t>(m.prototype_id)].w.center
                                   : s.q.center);
    }
    auto fvu = eval::EvaluatePiecewiseFvuAt(r.pieces, anchors, table, *ids);
    if (!fvu.ok()) return;
    part[t].fvu.push_back(fvu->mean_fvu);
  });
  Accuracy acc;
  double sse = 0.0;
  std::vector<double> fvu;
  for (const Part& p : part) {
    sse += p.sse;
    acc.q1_n += p.q1;
    fvu.insert(fvu.end(), p.fvu.begin(), p.fvu.end());
  }
  acc.q1_rmse = acc.q1_n > 0 ? std::sqrt(sse / static_cast<double>(acc.q1_n)) : 0.0;
  // The median, not the mean: a handful of extrapolated answers on balls
  // with almost no variance in u reach FVUs in the hundreds and would set
  // a mean on their own.
  acc.q2_n = static_cast<int64_t>(fvu.size());
  acc.q2_fvu = Median(std::move(fvu));
  return acc;
}

// ---------------------------------------------------------------- replay --

/// Span names, one per public call the replay wraps.
enum SpanName : uint16_t {
  kRequest,          // Root: one request end to end.
  kEncodeRequest,    // net::EncodeRequest
  kDecodeRequest,    // net::DecodeRequest
  kRouterReplay,     // The router's steps, replayed call by call:
  kCatalogGet,       //   ModelCatalog::GetOrTrain
  kCacheLookup,      //   AnswerCache::Lookup
  kVigilance,        //   LlmModel::NearestPrototypeDistance
  kPredictMean,      //   LlmModel::PredictMean
  kRegressionQuery,  //   LlmModel::RegressionQuery
  kExactQ1,          //   ExactEngine::MeanValue
  kExactQ2,          //   ExactEngine::Regression
  kCacheInsert,      //   AnswerCache::Insert
  kRouterExecute,    // QueryRouter::Execute on a synchronous twin router.
  kEncodeAnswer,     // net::AppendAnswerFrame / AppendStatusFrame
  kDecodeAnswer,     // net::DecodeAnswer / DecodeStatus
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "request",
    "wire.encode_request",
    "wire.decode_request",
    "router.replay",
    "model_catalog.get",
    "answer_cache.lookup",
    "llm_model.vigilance",
    "llm_model.predict_mean",
    "llm_model.regression_query",
    "exact_engine.q1",
    "exact_engine.q2",
    "answer_cache.insert",
    "router.execute",
    "wire.encode_answer",
    "wire.decode_answer",
};

struct Span {
  uint32_t request = 0;
  uint16_t name = 0;
  int32_t parent = -1;
  int64_t start = 0;
  int64_t end = 0;
};

/// In-memory span recorder. A null tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(size_t reserve) { spans_.reserve(reserve); }

  int32_t Begin(uint32_t request, SpanName name, int32_t parent) {
    spans_.push_back(Span{request, name, parent, NowNanos(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end = NowNanos(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer* t, uint32_t request, SpanName name, int32_t parent)
      : t_(t), id_(t != nullptr ? t->Begin(request, name, parent) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* t_;
  int32_t id_;
};

struct ReplayCounts {
  int64_t requests = 0;
  int64_t agree = 0;  // Same source and same bits as the twin router.
  int64_t model_q2 = 0;
  int64_t model_q2_pieces = 0;
  int64_t exact_calls = 0;
  int64_t tuples_examined = 0;
  int64_t tuples_matched = 0;
  int64_t answer_bytes = 0;
  int64_t answer_frames = 0;
  service::AnswerCacheStats cache;  // Over the timed requests only.
  double seconds = 0.0;
  std::string first_disagreement;  // Empty while the replay matches the router.
};

bool SameResult(const util::Result<service::Answer>& a, const service::ExecResult& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  return a->source == b->source && SameBits(a->mean, b->mean) &&
         SameBits(a->cache_delta, b->cache_delta) && SamePieces(a->pieces, b->pieces);
}

/// "model Q2, 3 pieces", "exact Q1", "kNotFound" and the like, for the log.
template <typename R>
std::string Describe(const R& r) {
  if (!r.ok()) return util::StatusCodeToString(r.status().code());
  static const char* const kSources[] = {"model", "exact", "cache"};
  return std::string(kSources[static_cast<int>(r->source)]) + " " +
         service::QueryKindName(r->kind) + ", " + std::to_string(r->pieces.size()) +
         " pieces";
}

service::AnswerCacheStats Minus(const service::AnswerCacheStats& a,
                                const service::AnswerCacheStats& b) {
  service::AnswerCacheStats d;
  d.lookups = a.lookups - b.lookups;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.inserts = a.inserts - b.inserts;
  d.evictions = a.evictions - b.evictions;
  d.grid_probes = a.grid_probes - b.grid_probes;
  d.linear_probes = a.linear_probes - b.linear_probes;
  return d;
}

/// Replays requests in one thread through the layers' public calls, in the
/// order QueryRouter::Execute makes them, with its own AnswerCache. A
/// synchronous twin QueryRouter executes each request too, so the trace can
/// tell how much of router.Execute the layer calls cover, and the replay's
/// answers can be compared with the router's.
class Replayer {
 public:
  Replayer(const BenchSpec& spec, Stack* stack)
      : cfg_(spec.router),
        cache_(cfg_.cache),
        twin_(stack->catalog.get(), SyncConfig(cfg_)),
        catalog_(stack->catalog.get()) {}

  /// Replays one request; `t` null = untraced. Only requests with `count`
  /// set enter the counts.
  void One(const net::WireRequest& wire, uint32_t id, Tracer* t, bool count);

  /// Counts cache activity from here on (after the warm-up).
  void StartCounting() { before_ = cache_.stats(); }

  ReplayCounts Counts() const {
    ReplayCounts c = counts_;
    c.cache = Minus(cache_.stats(), before_);
    return c;
  }

 private:
  static service::RouterConfig SyncConfig(service::RouterConfig cfg) {
    cfg.num_threads = 0;
    return cfg;
  }

  service::RouterConfig cfg_;
  service::AnswerCache cache_;
  service::QueryRouter twin_;
  service::ModelCatalog* catalog_;
  ReplayCounts counts_;
  service::AnswerCacheStats before_;
  std::vector<uint8_t> frame_;
};

void Replayer::One(const net::WireRequest& wire, uint32_t id, Tracer* t, bool count) {
  Scope root(t, id, kRequest, -1);
  std::vector<uint8_t> bytes;
  {
    Scope s(t, id, kEncodeRequest, root.id());
    bytes = net::EncodeRequest(wire);
  }
  util::Result<net::WireRequest> decoded = util::Status::Internal("unset");
  {
    Scope s(t, id, kDecodeRequest, root.id());
    decoded = net::DecodeRequest(bytes.data(), bytes.size());
  }
  if (!decoded.ok()) Params::Fail("replay: request did not round-trip");
  const net::WireRequest& req = *decoded;
  // The twin router runs first on even requests and second on odd ones, so
  // neither side is always the one that finds the data in the CPU caches.
  service::ExecResult twin_result = util::Status::Internal("unset");
  auto run_twin = [&] {
    const service::Request twin_req =
        req.kind == service::QueryKind::kQ1MeanValue ? service::Request::Q1(req.dataset, req.q)
                                                     : service::Request::Q2(req.dataset, req.q);
    Scope s(t, id, kRouterExecute, root.id());
    twin_result = twin_.Execute(twin_req);
  };
  if (id % 2 == 0) run_twin();
  util::Result<service::Answer> result = util::Status::Internal("unset");
  query::ExecStats exec;
  bool exact_ran = false;
  {
    Scope replay(t, id, kRouterReplay, root.id());
    util::Result<service::CatalogSnapshot> snap = util::Status::Internal("unset");
    {
      Scope s(t, id, kCatalogGet, replay.id());
      snap = catalog_->GetOrTrain(req.dataset);
    }
    if (!snap.ok()) Params::Fail("replay: " + snap.status().ToString());
    const std::string key = req.dataset + "/g" + std::to_string(snap->generation) +
                            "/" + service::QueryKindName(req.kind);
    service::CachedAnswer cached;
    bool hit = false;
    {
      Scope s(t, id, kCacheLookup, replay.id());
      hit = cache_.Lookup(key, req.q, &cached);
    }
    if (hit) {
      service::Answer a;
      a.kind = req.kind;
      a.source = service::AnswerSource::kCache;
      a.mean = cached.mean;
      a.pieces = std::move(cached.pieces);
      a.cache_delta = cached.delta;
      result = std::move(a);
    } else {
      bool use_model = snap->model != nullptr && snap->model->num_prototypes() > 0;
      if (use_model && snap->vigilance > 0.0) {
        Scope s(t, id, kVigilance, replay.id());
        use_model = snap->model->NearestPrototypeDistance(req.q) <=
                    cfg_.rho_scale * snap->vigilance;
      }
      if (use_model) {
        service::Answer a;
        a.kind = req.kind;
        a.source = service::AnswerSource::kModel;
        if (req.kind == service::QueryKind::kQ1MeanValue) {
          Scope s(t, id, kPredictMean, replay.id());
          auto m = snap->model->PredictMean(req.q);
          if (m.ok()) a.mean = *m;
          result = m.ok() ? util::Result<service::Answer>(std::move(a))
                          : util::Result<service::Answer>(m.status());
        } else {
          Scope s(t, id, kRegressionQuery, replay.id());
          auto p = snap->model->RegressionQuery(req.q);
          if (p.ok()) a.pieces = std::move(p).value();
          result = p.ok() ? util::Result<service::Answer>(std::move(a))
                          : util::Result<service::Answer>(p.status());
        }
      } else {
        Scope s(t, id, req.kind == service::QueryKind::kQ1MeanValue ? kExactQ1 : kExactQ2,
                replay.id());
        result = ExactAnswer(*snap->engine, req.kind, req.q, &exec);
        exact_ran = true;
      }
      if (result.ok()) {
        service::CachedAnswer to_cache;
        to_cache.q = req.q;
        to_cache.mean = result->mean;
        to_cache.pieces = result->pieces;
        Scope s(t, id, kCacheInsert, replay.id());
        cache_.Insert(key, std::move(to_cache));
      }
    }
  }
  if (id % 2 == 1) run_twin();
  frame_.clear();
  {
    Scope s(t, id, kEncodeAnswer, root.id());
    if (result.ok()) {
      net::AppendAnswerFrame(&frame_, id + 1, *result);
    } else {
      net::AppendStatusFrame(&frame_, id + 1, result.status());
    }
  }
  {
    Scope s(t, id, kDecodeAnswer, root.id());
    const uint8_t* payload = frame_.data() + net::kHeaderBytes;
    const size_t n = frame_.size() - net::kHeaderBytes;
    if (result.ok()) {
      if (!net::DecodeAnswer(payload, n).ok()) Params::Fail("replay: answer decode");
    } else {
      util::Status transported;
      if (!net::DecodeStatus(payload, n, &transported).ok()) {
        Params::Fail("replay: status decode");
      }
    }
  }
  if (!count) return;
  ++counts_.requests;
  if (SameResult(result, twin_result)) {
    ++counts_.agree;
  } else if (counts_.first_disagreement.empty()) {
    counts_.first_disagreement = "request " + std::to_string(id) + " on " + req.dataset +
                                 ": replay gave " + Describe(result) + ", router gave " +
                                 Describe(twin_result);
  }
  counts_.answer_bytes += static_cast<int64_t>(frame_.size());
  ++counts_.answer_frames;
  if (result.ok() && result->source == service::AnswerSource::kModel &&
      req.kind == service::QueryKind::kQ2Regression) {
    ++counts_.model_q2;
    counts_.model_q2_pieces += static_cast<int64_t>(result->pieces.size());
  }
  if (exact_ran) {
    ++counts_.exact_calls;
    counts_.tuples_examined += exec.tuples_examined;
    counts_.tuples_matched += exec.tuples_matched;
  }
}

// ------------------------------------------------------------------ run --

/// `total` requests from `conns` seeded streams, interleaved round-robin —
/// the same requests a phase's connections sent, in one canonical order.
std::vector<net::WireRequest> Regenerate(const WorkloadSpec& w, uint64_t seed,
                                         size_t conns, int64_t total) {
  std::vector<Stream> streams;
  for (size_t c = 0; c < conns; ++c) streams.emplace_back(w, seed + c);
  std::vector<net::WireRequest> out;
  for (int64_t i = 0; i < total; ++i) {
    out.push_back(streams[static_cast<size_t>(i) % conns].Next());
  }
  return out;
}

struct SpanSummary {
  int64_t calls[kNumSpanNames] = {};
  int64_t total[kNumSpanNames] = {};
  int64_t self[kNumSpanNames] = {};

  double MeanSelf(SpanName n) const {
    return calls[n] > 0 ? static_cast<double>(self[n]) / static_cast<double>(calls[n]) : 0.0;
  }
};

/// Self time = a span's duration minus the part its child spans cover.
SpanSummary Summarize(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  SpanSummary out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end - spans[i].start;
    ++out.calls[spans[i].name];
    out.total[spans[i].name] += dur;
    out.self[spans[i].name] += dur - child[i];
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) Params::Fail("cannot write " + path);
  out << "span\trequest\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.request << '\t' << s.parent << '\t' << kSpanNames[s.name] << '\t'
        << s.start << '\t' << s.end << '\n';
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

int Run(const Params& params) {
  const BenchSpec spec = ReadSpec(params);
  const std::vector<uint64_t> seeds = util::DeriveSeeds(spec.seed, kNumSeeds);
  std::map<std::string, double> m;

  // 1. Set-up, repeated; the last stack serves the run.
  std::vector<double> setup, generate, kdtree, train;
  std::unique_ptr<Stack> stack;
  for (int64_t r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    auto built = BuildStack(spec);
    if (!built.ok()) Params::Fail("set-up failed: " + built.status().ToString());
    stack = std::move(built).value();
    setup.push_back(stack->times.total_s);
    generate.push_back(stack->times.generate_s);
    kdtree.push_back(stack->times.kdtree_s);
    train.push_back(stack->times.train_s);
  }
  m["setup_s"] = Median(setup);
  m["rss_mb"] = PeakRssMb();
  m["data.generate_s"] = Median(generate);
  m["kdtree.build_s"] = Median(kdtree);
  m["trainer.train_s"] = Median(train);
  m["trainer.pairs"] = static_cast<double>(stack->times.train_pairs);

  auto snap = stack->catalog->Get(spec.workload->dataset);
  if (!snap.ok() || snap->model == nullptr) Params::Fail("workload dataset is not trained");
  Verifier verifier;
  verifier.engine = snap->engine;
  verifier.model = snap->model;
  verifier.delta_min = spec.router.cache.delta_min;
  m["llm_model.prototypes"] = snap->model->num_prototypes();

  // 2-3. Closed and open loop, alternating in rounds of about five seconds,
  // so that a slow spell of the shared host falls on both and on few of
  // each one's windows.
  const int64_t rounds = std::max<int64_t>(1, std::llround(spec.seconds / 5.0));
  const double segment = spec.seconds / 2.0 / static_cast<double>(rounds);
  std::vector<Stream> closed_streams, open_streams;
  for (size_t c = 0; c < kClosedConnections; ++c) {
    closed_streams.emplace_back(*spec.workload, seeds[kClosedSeed] + c);
  }
  for (size_t c = 0; c < kOpenConnections; ++c) {
    open_streams.emplace_back(*spec.workload, seeds[kOpenSeed] + c);
  }
  std::vector<ConnLog> closed(kClosedConnections), open(kOpenConnections);
  const service::ServiceSnapshot stats_before = stack->router->Stats();
  std::vector<bool> closed_clean, open_clean;
  std::vector<size_t> closed_round_end;  // Goodput windows after each round.
  const HostCpu load_start = HostCpu::Now();
  {
    const Clients closed_clients = Connect(stack->port, kClosedConnections);
    const Clients open_clients = Connect(stack->port, kOpenConnections);
    for (int64_t r = 0; r < rounds; ++r) {
      const HostCpu t0 = HostCpu::Now();
      ClosedSegment(spec, closed_clients, &closed_streams, segment, 0, kAccuracySample,
                    &closed);
      const HostCpu t1 = HostCpu::Now();
      OpenSegment(open_clients, &open_streams, spec.workload->offered_qps, segment, &open);
      const HostCpu t2 = HostCpu::Now();
      closed_clean.push_back(t1.StealShareSince(t0) <= kMaxStealShare);
      open_clean.push_back(t2.StealShareSince(t1) <= kMaxStealShare);
      closed_round_end.push_back(closed.front().ok_per_window.size());
    }
  }
  const HostCpu load_end = HostCpu::Now();
  m["loadgen.steal_share"] = load_end.StealShareSince(load_start);
  m["loadgen.clean_segment_share"] =
      Ratio(static_cast<double>(std::count(closed_clean.begin(), closed_clean.end(), true) +
                                std::count(open_clean.begin(), open_clean.end(), true)),
            static_cast<double>(2 * rounds));
  const service::ServiceSnapshot stats_after = stack->router->Stats();

  // 4. Verification and accuracy (untimed).
  Tally closed_tally = VerifyAll(verifier, closed);
  const Tally open_tally = VerifyAll(verifier, open);
  std::vector<double> exec_us;
  std::vector<std::vector<double>> window_qps(static_cast<size_t>(rounds));
  for (size_t r = 0, w = 0; r < window_qps.size(); ++r) {
    for (; w < closed_round_end[r]; ++w) {
      double qps = 0.0;
      for (const ConnLog& log : closed) {
        qps += static_cast<double>(log.ok_per_window[w]) * 1e9 /
               static_cast<double>(kGoodputWindowNs);
      }
      window_qps[r].push_back(qps);
    }
  }
  for (const ConnLog& log : closed) {
    exec_us.insert(exec_us.end(), log.exec_us.begin(), log.exec_us.end());
  }
  Tally all = closed_tally;
  all.Add(open_tally);
  // Every ok answer was verified above; a mismatch fails the whole run.
  m["goodput_qps"] = Median(CleanOnly(window_qps, closed_clean));
  m["success_ratio"] = Ratio(static_cast<double>(all.ok + all.empty),
                             static_cast<double>(all.attempted));
  m["loadgen.empty_share"] = Ratio(static_cast<double>(all.empty),
                                   static_cast<double>(all.attempted));

  // Latency percentiles are taken per open-loop segment and reported as the
  // median segment, so one stall of the shared host moves one segment, not
  // the figure.
  std::vector<std::vector<double>> latency_ms(static_cast<size_t>(rounds));
  std::vector<double> lag_ms, outside_ms;
  double outside_sum = 0.0, client_sum = 0.0;
  for (const ConnLog& log : open) {
    for (size_t i = 0; i < log.recv.size(); ++i) {
      const Sent& s = log.sent[i];
      const Received& r = log.recv[i];
      lag_ms.push_back(static_cast<double>(s.sent_ns - s.scheduled_ns) / 1e6);
      const bool answered = r.arrived && (r.code == util::StatusCode::kOk ||
                                          r.code == util::StatusCode::kNotFound);
      const size_t w = static_cast<size_t>(
          std::upper_bound(log.round_begin.begin(), log.round_begin.end(), i) -
          log.round_begin.begin() - 1);
      // A failed request misses every latency limit: it counts as waiting
      // the client's whole receive timeout.
      latency_ms[w].push_back(answered
                                  ? static_cast<double>(r.recv_ns - s.scheduled_ns) / 1e6
                                  : static_cast<double>(kRecvTimeoutMillis));
      if (answered && r.code == util::StatusCode::kOk) {
        const double client = static_cast<double>(r.recv_ns - s.sent_ns);
        const double outside = client - static_cast<double>(r.exec_nanos);
        outside_ms.push_back(outside / 1e6);
        outside_sum += outside;
        client_sum += client;
      }
    }
  }
  std::vector<std::vector<double>> p50, p99;
  for (const std::vector<double>& window : latency_ms) {
    p50.push_back({Quantile(window, 0.50)});
    p99.push_back({Quantile(window, 0.99)});
  }
  m["latency_p50_ms"] = Median(CleanOnly(p50, open_clean));
  m["latency_p99_ms"] = Median(CleanOnly(p99, open_clean));
  m["loadgen.lag_p99_ms"] = Quantile(lag_ms, 0.99);
  m["net.outside_router_p50_ms"] = Quantile(outside_ms, 0.50);
  m["net.outside_router_p99_ms"] = Quantile(outside_ms, 0.99);
  m["net.outside_router_share"] = Ratio(outside_sum, client_sum);
  m["router.exec_p50_us"] = Quantile(exec_us, 0.50);
  m["router.exec_p99_us"] = Quantile(exec_us, 0.99);
  const double served = static_cast<double>(all.ok);
  m["router.share_cache"] = Ratio(static_cast<double>(all.by_source[2]), served);
  m["router.share_model"] = Ratio(static_cast<double>(all.by_source[0]), served);
  m["router.share_exact"] = Ratio(static_cast<double>(all.by_source[1]), served);
  m["router.shed"] = static_cast<double>(stats_after.shed - stats_before.shed);
  const double wire_requests = static_cast<double>(all.attempted);
  m["net.frames_per_request"] = Ratio(
      static_cast<double>(stats_after.net_frames_decoded - stats_before.net_frames_decoded),
      wire_requests);
  m["net.bytes_in_per_request"] = Ratio(
      static_cast<double>(stats_after.net_bytes_in - stats_before.net_bytes_in), wire_requests);
  m["net.bytes_out_per_request"] = Ratio(
      static_cast<double>(stats_after.net_bytes_out - stats_before.net_bytes_out),
      wire_requests);

  const Accuracy acc =
      MeasureAccuracy(verifier, stack->Data(spec.workload->dataset).table, closed,
                      kAccuracySample, kFvuMinPoints);
  m["q1_rmse"] = acc.q1_rmse;
  m["q2_fvu"] = acc.q2_fvu;

  std::printf("workload %s seed %" PRIu64 ": attempted %" PRId64 " ok %" PRId64
              " (cache %" PRId64 ", model %" PRId64 ", exact %" PRId64 ") empty %" PRId64
              " failed %" PRId64 " mismatched %" PRId64 "\n",
              spec.workload->name, spec.seed, all.attempted, all.ok,
              all.by_source[2], all.by_source[0], all.by_source[1], all.empty, all.failed,
              all.mismatched);
  std::printf("accuracy sample: %" PRId64 " Q1, %" PRId64 " Q2 answers\n", acc.q1_n,
              acc.q2_n);
  for (const std::string& why : all.mismatches) std::printf("  %s\n", why.c_str());

  // 5. Traced replay (per-layer metrics).
  bool replay_ok = true;
  if (spec.trace) {
    const int64_t warm_per_conn = std::max<int64_t>(
        1, kWarmupRequests / static_cast<int64_t>(kClosedConnections));
    const auto warm = Regenerate(*spec.workload, seeds[kWarmupSeed], kClosedConnections,
                                 warm_per_conn * static_cast<int64_t>(kClosedConnections));
    const auto requests =
        Regenerate(*spec.workload, seeds[kClosedSeed], kClosedConnections, kReplayRequests);
    // The untraced and the traced replay run in lockstep, request by
    // request and taking turns at going first, so a change of machine load
    // or a CPU cache warmed by the other side favours neither; the
    // difference of their rates is the tracing overhead.
    Replayer plain(spec, stack.get()), traced_replay(spec, stack.get());
    for (size_t i = 0; i < warm.size(); ++i) {
      plain.One(warm[i], static_cast<uint32_t>(i), nullptr, false);
      traced_replay.One(warm[i], static_cast<uint32_t>(i), nullptr, false);
    }
    plain.StartCounting();
    traced_replay.StartCounting();
    Tracer tracer(requests.size() * 12);
    int64_t plain_ns = 0, traced_ns = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const uint32_t id = static_cast<uint32_t>(i);
      const int64_t t0 = NowNanos();
      if (i % 2 == 0) {
        plain.One(requests[i], id, nullptr, true);
      } else {
        traced_replay.One(requests[i], id, &tracer, true);
      }
      const int64_t t1 = NowNanos();
      if (i % 2 == 0) {
        traced_replay.One(requests[i], id, &tracer, true);
      } else {
        plain.One(requests[i], id, nullptr, true);
      }
      const int64_t t2 = NowNanos();
      plain_ns += i % 2 == 0 ? t1 - t0 : t2 - t1;
      traced_ns += i % 2 == 0 ? t2 - t1 : t1 - t0;
    }
    ReplayCounts untraced = plain.Counts();
    ReplayCounts traced = traced_replay.Counts();
    untraced.seconds = static_cast<double>(plain_ns) / 1e9;
    traced.seconds = static_cast<double>(traced_ns) / 1e9;
    const SpanSummary sum = Summarize(tracer.spans());
    WriteSpans(spec.out_dir + "/trace_" + spec.workload->name + "_seed" +
                   std::to_string(spec.seed) + ".tsv",
               tracer.spans());

    m["net.wire.encode_request_ns"] = sum.MeanSelf(kEncodeRequest);
    m["net.wire.decode_request_ns"] = sum.MeanSelf(kDecodeRequest);
    m["net.wire.encode_answer_ns"] = sum.MeanSelf(kEncodeAnswer);
    m["net.wire.decode_answer_ns"] = sum.MeanSelf(kDecodeAnswer);
    m["net.wire.answer_bytes"] = Ratio(static_cast<double>(traced.answer_bytes),
                                       static_cast<double>(traced.answer_frames));
    m["model_catalog.get_ns"] = sum.MeanSelf(kCatalogGet);
    m["answer_cache.lookup_ns"] = sum.MeanSelf(kCacheLookup);
    m["answer_cache.insert_ns"] = sum.MeanSelf(kCacheInsert);
    m["answer_cache.hit_rate"] = traced.cache.HitRate();
    m["answer_cache.evictions"] = static_cast<double>(traced.cache.evictions);
    m["answer_cache.grid_probe_share"] = Ratio(static_cast<double>(traced.cache.grid_probes),
                                               static_cast<double>(traced.cache.lookups));
    m["llm_model.vigilance_ns"] = sum.MeanSelf(kVigilance);
    m["llm_model.predict_mean_ns"] = sum.MeanSelf(kPredictMean);
    m["llm_model.regression_query_ns"] = sum.MeanSelf(kRegressionQuery);
    m["llm_model.pieces_per_q2"] = Ratio(static_cast<double>(traced.model_q2_pieces),
                                         static_cast<double>(traced.model_q2));
    m["exact_engine.q1_ns"] = sum.MeanSelf(kExactQ1);
    m["exact_engine.q2_ns"] = sum.MeanSelf(kExactQ2);
    m["exact_engine.tuples_examined"] = Ratio(static_cast<double>(traced.tuples_examined),
                                              static_cast<double>(traced.exact_calls));
    m["exact_engine.match_ratio"] = Ratio(static_cast<double>(traced.tuples_matched),
                                          static_cast<double>(traced.tuples_examined));

    // Shares of the replayed serving path (the request span minus the twin
    // router's span), attributed by self time.
    const double path = static_cast<double>(sum.total[kRequest] - sum.total[kRouterExecute]);
    auto share = [&](std::initializer_list<SpanName> names) {
      int64_t t = 0;
      for (SpanName n : names) t += sum.self[n];
      return Ratio(static_cast<double>(t), path);
    };
    m["self_share.wire"] =
        share({kEncodeRequest, kDecodeRequest, kEncodeAnswer, kDecodeAnswer});
    m["self_share.model_catalog"] = share({kCatalogGet});
    m["self_share.answer_cache_read"] = share({kCacheLookup});
    m["self_share.answer_cache_write"] = share({kCacheInsert});
    m["self_share.llm_model"] = share({kVigilance, kPredictMean, kRegressionQuery});
    m["self_share.exact_engine"] = share({kExactQ1, kExactQ2});
    m["self_share.replay_glue"] = share({kRequest, kRouterReplay});
    int64_t layers = 0;
    for (SpanName n : {kCatalogGet, kCacheLookup, kVigilance, kPredictMean, kRegressionQuery,
                       kExactQ1, kExactQ2, kCacheInsert}) {
      layers += sum.total[n];
    }
    m["trace.router_coverage"] =
        Ratio(static_cast<double>(layers), static_cast<double>(sum.total[kRouterExecute]));
    m["trace.replay_qps"] = Ratio(static_cast<double>(traced.requests), traced.seconds);
    m["trace.replay_qps_untraced"] =
        Ratio(static_cast<double>(untraced.requests), untraced.seconds);
    m["trace.overhead_share"] = 1.0 - Ratio(m["trace.replay_qps"], m["trace.replay_qps_untraced"]);
    m["trace.replay_fidelity"] = Ratio(static_cast<double>(traced.agree),
                                       static_cast<double>(traced.requests));
    m["trace.spans"] = static_cast<double>(tracer.spans().size());
    // The per-layer figures are the program's only while the replay makes
    // the router's calls: an answer that differs from the twin router's
    // fails the run.
    for (const ReplayCounts* c : {&untraced, &traced}) {
      if (!c->first_disagreement.empty()) {
        std::printf("  mismatch: replay differs from QueryRouter: %s\n",
                    c->first_disagreement.c_str());
      }
    }
    replay_ok = traced.requests > 0 && traced.agree == traced.requests &&
                untraced.agree == untraced.requests;
  }

  const bool correct = all.mismatched == 0 && all.ok > 0 && replay_ok;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(all.attempted) +
                     ", \"failed\": " + std::to_string(all.failed + all.mismatched) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!std::isfinite(value)) Params::Fail("metric " + name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (first ? "" : ", ") + JsonString(name) + ": " + buf;
    first = false;
  }
  json += "}, \"host\": {\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
          ", \"compiler\": " + JsonString(__VERSION__) +
          ", \"build_type\": " + JsonString(QREG_BENCH_BUILD_TYPE) +
          ", \"config\": " + ConfigJson(spec) + "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace qreg

int main(int argc, char** argv) {
  qreg::perfbench::Params params;
  if (!params.Parse(argc, argv)) return 2;
  return qreg::perfbench::Run(params);
}
