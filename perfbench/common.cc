// Inputs, oracles, device and span helpers shared by the workloads.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <map>
#include <queue>
#include <thread>

#include "bench.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace perfbench {

namespace {

constexpr size_t kOracleThreads = 4;

/// Runs body(i) for i in [0, n) on kOracleThreads threads, strided.
template <typename Body>
void ParallelFor(size_t n, Body body) {
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kOracleThreads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kOracleThreads) body(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// Squared point-rectangle distance, computed exactly as the library's
/// scalar kernel does (geom/rect_batch.cc) so the oracle's bits match.
inline Real MinDist2(const Point& p, const Rect2& r) {
  Real dx = 0;
  if (p[0] < r.lo[0]) {
    dx = r.lo[0] - p[0];
  } else if (p[0] > r.hi[0]) {
    dx = p[0] - r.hi[0];
  }
  Real dy = 0;
  if (p[1] < r.lo[1]) {
    dy = r.lo[1] - p[1];
  } else if (p[1] > r.hi[1]) {
    dy = p[1] - r.hi[1];
  }
  return dx * dx + dy * dy;
}

}  // namespace

void Result::Fact(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  facts.push_back("\"" + key + "\": " + buf);
}

void Result::Fact(const std::string& key, const std::string& v) {
  facts.push_back("\"" + key + "\": \"" + v + "\"");
}

void Result::Fact(const std::string& key, const std::vector<double>& v) {
  std::string list = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "",
                  std::isfinite(v[i]) ? v[i] : 0.0);
    list += buf;
  }
  facts.push_back("\"" + key + "\": " + list + "]");
}

void Result::Fail(const std::string& what) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

std::vector<WindowAnswer> BruteWindows(const std::vector<Record2>& data,
                                       const std::vector<Rect2>& windows) {
  std::vector<WindowAnswer> out(windows.size());
  ParallelFor(windows.size(), [&](size_t i) {
    WindowAnswer a;
    for (const Record2& r : data) {
      if (r.rect.Intersects(windows[i])) a.Add(r.id);
    }
    out[i] = a;
  });
  return out;
}

std::vector<uint64_t> BruteKnn(const std::vector<Record2>& data,
                               const std::vector<Point>& points, size_t k) {
  std::vector<uint64_t> out(points.size());
  ParallelFor(points.size(), [&](size_t i) {
    std::priority_queue<Real> best;  // max-heap of the k smallest d2
    for (const Record2& r : data) {
      Real d2 = MinDist2(points[i], r.rect);
      if (best.size() < k) {
        best.push(d2);
      } else if (d2 < best.top()) {
        best.pop();
        best.push(d2);
      }
    }
    std::vector<Real> dists;
    while (!best.empty()) {
      dists.push_back(std::sqrt(best.top()));
      best.pop();
    }
    out[i] = DistanceDigest(std::move(dists));
  });
  return out;
}

std::vector<Rect2> MakeWindows(size_t count, uint64_t seed) {
  return prtree::workload::MakeSquareQueries(prtree::MakeRect(0, 0, 1, 1),
                                             0.01, count, seed);
}

std::vector<Point> MakePoints(size_t count, uint64_t seed) {
  prtree::Rng rng(seed);
  std::vector<Point> out(count);
  for (auto& p : out) p = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
  return out;
}

std::vector<Record2> MakeRecords(size_t n, uint64_t seed) {
  return prtree::workload::MakeTigerLike(
      n, prtree::workload::TigerRegion::kEastern, seed);
}

std::unique_ptr<prtree::UringBlockDevice> OpenDevice(const Config& cfg) {
  static int counter = 0;
  std::string path = cfg.dir + "/device-" + std::to_string(::getpid()) +
                     "-" + std::to_string(counter++) + ".img";
  prtree::UringDeviceOptions opts;
  opts.file.block_size = prtree::kDefaultBlockSize;
  opts.file.truncate = true;
  std::unique_ptr<prtree::UringBlockDevice> dev;
  prtree::AbortIfError(prtree::UringBlockDevice::Open(path, opts, &dev));
  ::unlink(path.c_str());  // the open descriptor keeps the file alive
  return dev;
}

std::vector<SpanSummary> Summarize(const std::vector<const SpanLog*>& logs) {
  // Child time per parent id, then per-name totals.
  std::map<uint64_t, int64_t> child_ns;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      SpanSummary& sum = by_name[s.name];
      sum.name = s.name;
      const int64_t dur = s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      const int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
      ++sum.calls;
      sum.total_s += static_cast<double>(dur) * 1e-9;
      sum.self_s += static_cast<double>(self) * 1e-9;
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

double SelfSeconds(const std::vector<SpanSummary>& summary,
                   const std::string& name) {
  for (const SpanSummary& s : summary) {
    if (s.name == name) return s.self_s;
  }
  return 0;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fprintf(f, "# name,calls,total_s,self_s\n");
  for (const SpanSummary& s : Summarize(logs)) {
    std::fprintf(f, "# %s,%llu,%.9f,%.9f\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.calls), s.total_s,
                 s.self_s);
  }
  std::fprintf(f, "name,id,parent,op,start_ns,end_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace perfbench {

void SlicedSamples::Merge(const SlicedSamples& o) {
  if (o.by_slice_.size() > by_slice_.size()) {
    by_slice_.resize(o.by_slice_.size());
  }
  for (size_t i = 0; i < o.by_slice_.size(); ++i) {
    by_slice_[i].insert(by_slice_[i].end(), o.by_slice_[i].begin(),
                        o.by_slice_[i].end());
  }
  count_ += o.count_;
}

std::vector<double> SlicedSamples::PerSlice(double q) const {
  std::vector<double> out;
  for (const auto& v : by_slice_) {
    if (!v.empty()) out.push_back(perfbench::Quantile(v, q));
  }
  return out;
}

void ClientTally::Merge(const ClientTally& o) {
  window_ms.Merge(o.window_ms);
  knn_ms.Merge(o.knn_ms);
  update_ms.Merge(o.update_ms);
  ops += o.ops;
  failed += o.failed;
  window_nodes += o.window_nodes;
  window_leaves += o.window_leaves;
  window_results += o.window_results;
  knn_nodes += o.knn_nodes;
  cpu_s += o.cpu_s;
  busy_s += o.busy_s;
}

std::vector<const SpanLog*> Phase::Logs() const {
  std::vector<const SpanLog*> out;
  for (const auto& log : logs) out.push_back(log.get());
  return out;
}

SpanLog* Phase::NewLog(bool traced) {
  logs.push_back(
      std::make_unique<SpanLog>(traced, static_cast<uint32_t>(logs.size())));
  return logs.back().get();
}

std::vector<double> Phase::SliceRates() const {
  std::vector<double> rates;
  for (size_t i = 0; i < slice_ops.size(); ++i) {
    rates.push_back(Ratio(slice_ops[i], slice_wall_s[i]));
  }
  return rates;
}

void Phase::AddSlice(double slice_wall, const std::vector<ClientTally>& tallies,
                     const Usage& slice_usage, const prtree::IoStats& slice_io,
                     const PoolCounters& slice_pool) {
  uint64_t ops = 0;
  for (const ClientTally& t : tallies) {
    ops += t.ops;
    total.Merge(t);
  }
  slice_ops.push_back(static_cast<double>(ops));
  slice_wall_s.push_back(slice_wall);
  wall_s += slice_wall;
  usage += slice_usage;
  io += slice_io;
  pool += slice_pool;
}

void ReportLatencies(const Phase& phase, Result* r) {
  const ClientTally& t = phase.total;
  r->E2e("window_p50_ms", t.window_ms.Quantile(0.50), "ms");
  r->E2e("window_p99_ms", t.window_ms.Quantile(0.99), "ms");
  r->E2e("knn_p50_ms", t.knn_ms.Quantile(0.50), "ms");
  r->E2e("knn_p99_ms", t.knn_ms.Quantile(0.99), "ms");
  r->Fact("window_samples", static_cast<double>(t.window_ms.size()));
  r->Fact("knn_samples", static_cast<double>(t.knn_ms.size()));
  r->Fact("window_p50_ms_each", t.window_ms.PerSlice(0.50));
  r->Fact("window_p99_ms_each", t.window_ms.PerSlice(0.99));
  r->Fact("knn_p99_ms_each", t.knn_ms.PerSlice(0.99));
  if (!phase.slice_ops.empty()) r->Fact("ops_per_s_each", phase.SliceRates());
}

void ReportBuildLayers(const std::vector<BuildSample>& builds, Result* r) {
  const prtree::IoStats& io = builds.back().io;
  std::vector<double> spill, cpu, sys, par;
  for (const BuildSample& b : builds) {
    spill.push_back(b.spill_s);
    cpu.push_back(b.usage.user_s + b.usage.sys_s);
    sys.push_back(b.usage.sys_s);
    par.push_back(Ratio(b.usage.user_s + b.usage.sys_s, b.wall_s));
  }
  r->Layer("io.device.reads", static_cast<double>(io.reads), "blocks");
  r->Layer("io.device.writes", static_cast<double>(io.writes), "blocks");
  r->Layer("io.device.write_batches", static_cast<double>(io.write_batches),
           "count");
  r->Layer("io.device.blocks_per_write_batch",
           Ratio(static_cast<double>(io.writes),
                 static_cast<double>(io.write_batches)),
           "blocks");
  r->Layer("io.stream.spill_s", Median(spill), "s");
  r->Layer("core.build.cpu_s", Median(cpu), "s");
  r->Layer("core.build.sys_s", Median(sys), "s");
  r->Layer("core.build.parallelism", Median(par), "ratio");
}

void ReportPhaseLayers(const Phase& phase, const SlicedSamples& update_ms,
                       const prtree::IoStats& update_io, Result* r) {
  const ClientTally& t = phase.total;
  const double windows = static_cast<double>(t.window_ms.size());
  const double knns = static_cast<double>(t.knn_ms.size());
  const double queries = windows + knns;
  const double ops = static_cast<double>(t.ops);
  const double updates = static_cast<double>(update_ms.size());
  const PoolCounters& pool = phase.pool;
  r->Layer("rtree.window.nodes_per_query",
           Ratio(static_cast<double>(t.window_nodes), windows), "count");
  r->Layer("rtree.window.results_per_query",
           Ratio(static_cast<double>(t.window_results), windows), "count");
  r->Layer("rtree.knn.nodes_per_query",
           Ratio(static_cast<double>(t.knn_nodes), knns), "count");
  r->Layer("client.cpu_share", Ratio(t.cpu_s, t.busy_s), "ratio");
  r->Layer("client.wait_ms_per_op", Ratio((t.busy_s - t.cpu_s) * 1e3, ops),
           "ms");
  r->Layer("client.self_ms_per_op",
           Ratio(SelfSeconds(Summarize(phase.Logs()), "client.op") * 1e3, ops),
           "ms");
  r->Layer("proc.vol_ctx_switches_per_op", Ratio(phase.usage.vol_ctx, ops),
           "count");
  r->Layer("proc.sys_ms_per_op", Ratio(phase.usage.sys_s * 1e3, ops), "ms");
  r->Layer("io.pool.hit_ratio",
           Ratio(static_cast<double>(pool.hits),
                 static_cast<double>(pool.hits + pool.misses)),
           "ratio");
  r->Layer("io.pool.misses_per_query",
           Ratio(static_cast<double>(pool.misses), queries), "count");
  r->Layer("io.pool.prefetch_staged", static_cast<double>(pool.staged),
           "count");
  r->Layer("io.pool.prefetch_accuracy",
           Ratio(static_cast<double>(pool.useful),
                 static_cast<double>(pool.staged)),
           "ratio");
  r->Layer("io.device.reads_per_query",
           Ratio(static_cast<double>(phase.io.reads), queries), "blocks");
  r->Layer("core.update_p50_ms", update_ms.Quantile(0.50), "ms");
  r->Layer("core.update_p99_ms", update_ms.Quantile(0.99), "ms");
  r->Layer("io.device.writes_per_update",
           Ratio(static_cast<double>(update_io.writes), updates), "blocks");
  r->Layer("io.device.reads_per_update",
           Ratio(static_cast<double>(update_io.reads), updates), "blocks");
  r->Fact("update_samples", updates);
}

void ReportForestLayers(size_t levels, size_t tombstones, size_t limbo_pages,
                        size_t limbo_peak, Result* r) {
  r->Layer("core.forest.levels", static_cast<double>(levels), "count");
  r->Layer("core.forest.tombstones", static_cast<double>(tombstones),
           "count");
  r->Layer("io.epoch.limbo_pages", static_cast<double>(limbo_pages), "pages");
  r->Layer("io.epoch.limbo_pages_peak", static_cast<double>(limbo_peak),
           "pages");
}

void ReportOverhead(double untraced_ops_per_s, double traced_ops_per_s,
                    Result* r) {
  r->Layer("trace.overhead_pct",
           Ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s) *
               100.0,
           "%");
}

}  // namespace perfbench
