// Workload "query-warm": 3 closed-loop clients run a 90/10 mix of window
// (the paper's 1%-area squares) and kNN (k = 10, uniform points) queries
// over a PR-tree of 1M TIGER-like Eastern records.  The pool is larger
// than the tree and fully loaded, so the pool hit path, traversal and rect
// kernels do the work and the device does none.  Three clients, not four:
// the clients still contend for the pool's shard locks, and one vCPU of the
// 4-vCPU host stays free for whatever else runs there, which would
// otherwise land inside client queries and set their p99.
//
// Every answer is checked against a serial reference computed once per run
// (result count, id digest and leaf count per window; a distance digest
// per kNN query); a sample of the reference is checked against brute
// force.  The tree is built with the in-memory PR loader: set-up cost is
// not what this workload measures, and bulkload covers the grid path.

#include <atomic>
#include <thread>

#include "bench.h"
#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr size_t kRecords = 1'000'000;
constexpr size_t kWindows = 8192;
constexpr size_t kPoints = 2048;
constexpr size_t kScheduleLength = 32768;
constexpr int kWindowPercent = 90;
constexpr size_t kNeighbors = 10;
constexpr size_t kOracleSample = 16;
constexpr int kClients = 3;
constexpr int kBuildThreads = 4;
/// Latencies are kept per bucket, an equal part of a slice's wall time
/// (1 s at --seconds 25), and a quantile is the median over buckets of each
/// bucket's quantile: a stall of the host moves the few buckets it
/// overlaps, while a slower query moves all of them.
constexpr size_t kBucketsPerSlice = 5;

struct State {
  std::unique_ptr<prtree::UringBlockDevice> dev;
  std::unique_ptr<prtree::RTree<2>> tree;
  std::unique_ptr<prtree::BufferPool> pool;
  std::vector<Rect2> windows;
  std::vector<Point> points;
  /// Op sequence the clients cycle through: i < windows.size() is window
  /// i, anything else kNN point i - windows.size().
  std::vector<uint32_t> schedule;
  BuildSample build;
  size_t records = 0;
  size_t pool_frames = 0;
};

/// The answers every client query is checked against: per window its
/// result count, id digest and leaf count; per kNN point a distance digest.
struct Reference {
  std::vector<WindowAnswer> windows;
  std::vector<uint64_t> knn;
};

/// Builds the tree from `data` and loads the pool.  Every replicate of a
/// run builds the same tree, so the reference is computed once, outside
/// set-up (ComputeReference).
std::unique_ptr<State> Setup(const Config& cfg,
                             const std::vector<Record2>& data, Result* r) {
  auto s = std::make_unique<State>();
  s->records = data.size();
  s->dev = OpenDevice(cfg);
  prtree::UringBlockDevice* dev = s->dev.get();

  // Stream the records onto the device, then build from the stream.
  prtree::Stream<Record2> stream(dev);
  int64_t t0 = NowNs();
  stream.Append(data);
  stream.Flush();
  s->build.spill_s = SecondsSince(t0);
  prtree::BuildOptions bopts;
  bopts.memory_bytes = 2 * data.size() * sizeof(Record2) + (1u << 20);
  bopts.threads = kBuildThreads;
  auto loader = prtree::MakeBulkLoader<2>(prtree::LoaderKind::kPrTree, bopts);
  s->tree = std::make_unique<prtree::RTree<2>>(dev);
  const prtree::IoStats io0 = dev->stats();
  const Usage u0 = Usage::Now();
  t0 = NowNs();
  prtree::Status st = loader->Build(dev, &stream, s->tree.get());
  s->build.wall_s = SecondsSince(t0);
  s->build.usage = Usage::Now() - u0;
  s->build.io = dev->stats() - io0;
  if (!st.ok()) r->Fail("Build: " + st.ToString());
  st = prtree::ValidateTree(*s->tree);
  if (!st.ok()) r->Fail("ValidateTree: " + st.ToString());
  const prtree::TreeStats ts = s->tree->ComputeStats();
  if (s->tree->size() != data.size() || ts.num_entries != data.size()) {
    r->Fail("tree does not hold every record");
  }

  // A pool larger than the tree, loaded with every node.
  s->pool_frames = ts.num_nodes + 16;
  s->pool = std::make_unique<prtree::BufferPool>(dev, s->pool_frames);
  s->tree->CacheInternalNodes(s->pool.get());
  s->tree->Query(prtree::MakeRect(-1, -1, 2, 2), [](const Record2&) {},
                 s->pool.get());

  s->windows = MakeWindows(cfg.Scaled(kWindows), cfg.seed + 1);
  s->points = MakePoints(cfg.Scaled(kPoints), cfg.seed + 2);
  prtree::Rng rng(cfg.seed + 3);
  for (size_t i = 0; i < cfg.Scaled(kScheduleLength); ++i) {
    if (rng.UniformInt(0, 99) < kWindowPercent) {
      s->schedule.push_back(
          static_cast<uint32_t>(rng.UniformInt(0, s->windows.size() - 1)));
    } else {
      s->schedule.push_back(static_cast<uint32_t>(
          s->windows.size() + rng.UniformInt(0, s->points.size() - 1)));
    }
  }

  return s;
}

/// Serial reference over the tree of `s`, then a sample of it against
/// brute force over `data`.
Reference ComputeReference(const State& s, const std::vector<Record2>& data,
                           Result* r) {
  Reference ref;
  for (const Rect2& w : s.windows) {
    WindowAnswer a;
    prtree::QueryStats qs = s.tree->Query(
        w, [&](const Record2& rec) { a.Add(rec.id); }, s.pool.get());
    a.leaves = qs.leaves_visited;
    ref.windows.push_back(a);
  }
  for (const Point& p : s.points) {
    ref.knn.push_back(KnnDigest(
        prtree::KnnSearch<2>(*s.tree, p, kNeighbors, nullptr, s.pool.get())));
  }
  const size_t sample = std::min(kOracleSample, s.windows.size());
  std::vector<Rect2> wsample(s.windows.begin(), s.windows.begin() + sample);
  std::vector<WindowAnswer> wbrute = BruteWindows(data, wsample);
  for (size_t i = 0; i < sample; ++i) {
    if (wbrute[i].count != ref.windows[i].count ||
        wbrute[i].id_sum != ref.windows[i].id_sum) {
      r->Fail("serial window reference differs from brute force");
    }
  }
  const size_t psample = std::min(kOracleSample, s.points.size());
  std::vector<Point> psub(s.points.begin(), s.points.begin() + psample);
  std::vector<uint64_t> kbrute = BruteKnn(data, psub, kNeighbors);
  for (size_t i = 0; i < psample; ++i) {
    if (kbrute[i] != ref.knn[i]) {
      r->Fail("serial kNN reference differs from brute force");
    }
  }
  return ref;
}

/// Runs kClients closed-loop clients over the schedule for one slice of
/// the run and adds what they did to `ph` as slice `slice`.
void RunSlice(const Config& cfg, State* s, const Reference& ref, bool traced,
              size_t slice, Phase* ph, Result* r) {
  std::vector<ClientTally> tallies(kClients);
  std::vector<SpanLog*> logs;
  for (int c = 0; c < kClients; ++c) logs.push_back(ph->NewLog(traced));
  std::atomic<bool> stop{false};
  const PoolCounters p0 = PoolCounters::Of(*s->pool);
  const prtree::IoStats io0 = s->dev->stats();
  const Usage u0 = Usage::Now();
  const int64_t start = NowNs();
  const double slice_ns = cfg.seconds / kSlices * 1e9;
  auto bucket = [&](int64_t t) {
    const auto b = static_cast<size_t>(static_cast<double>(t - start) *
                                       kBucketsPerSlice / slice_ns);
    return slice * kBucketsPerSlice + std::min(b, kBucketsPerSlice - 1);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      SpanLog* log = logs[c];
      const double cpu0 = ThreadCpuSeconds();
      const int64_t begin = NowNs();
      const size_t len = s->schedule.size();
      size_t pos = static_cast<size_t>(c) * len / kClients;
      uint64_t op = (static_cast<uint64_t>(slice) << 48) |
                    (static_cast<uint64_t>(c) << 40);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t item = s->schedule[pos++ % len];
        ScopedSpan root(log, "client.op", op);
        if (item < s->windows.size()) {
          WindowAnswer a;
          prtree::QueryStats qs;
          const int64_t q0 = NowNs();
          {
            ScopedSpan span(log, "rtree.Query", op, root.id());
            qs = s->tree->Query(s->windows[item],
                                [&](const Record2& rec) { a.Add(rec.id); },
                                s->pool.get());
          }
          t.window_ms.Add(bucket(q0), static_cast<double>(NowNs() - q0) * 1e-6);
          a.leaves = qs.leaves_visited;
          t.window_nodes += qs.nodes_visited;
          t.window_leaves += qs.leaves_visited;
          t.window_results += qs.results;
          if (!(a == ref.windows[item])) ++t.failed;
        } else {
          const size_t i = item - s->windows.size();
          prtree::QueryStats qs;
          std::vector<prtree::Neighbor<2>> nn;
          const int64_t q0 = NowNs();
          {
            ScopedSpan span(log, "rtree.KnnSearch", op, root.id());
            nn = prtree::KnnSearch<2>(*s->tree, s->points[i], kNeighbors, &qs,
                                      s->pool.get());
          }
          t.knn_ms.Add(bucket(q0), static_cast<double>(NowNs() - q0) * 1e-6);
          t.knn_nodes += qs.nodes_visited;
          if (KnnDigest(nn) != ref.knn[i]) ++t.failed;
        }
        ++t.ops;
        ++op;
      }
      t.busy_s = SecondsSince(begin);
      t.cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(cfg.seconds / kSlices));
  stop.store(true);
  for (auto& th : threads) th.join();
  ph->AddSlice(SecondsSince(start), tallies, Usage::Now() - u0,
               s->dev->stats() - io0, PoolCounters::Of(*s->pool) - p0);
  uint64_t failed = 0;
  for (const ClientTally& t : tallies) {
    r->attempted += t.ops;
    failed += t.failed;
  }
  r->failed += failed;
  if (failed != 0) {
    r->Fail(std::to_string(failed) +
            " queries differ from the serial reference");
  }
}

}  // namespace

Result RunQuery(const Config& cfg) {
  Result r;
  std::vector<double> setup_s;
  std::vector<BuildSample> builds;
  SlicedSamples build_ms;  // one slice per set-up build
  Phase ph;
  Phase traced;
  std::unique_ptr<State> s;
  Reference ref;
  // One replicate: a fresh set-up, then one timed slice on it.  The traced
  // run gives each traced slice a fresh set-up too, so traced and untraced
  // slices start from the same state.  Every replicate builds the same
  // tree, so the first one's reference checks them all (leaf counts
  // included).
  auto replicate = [&](size_t i, bool trace_slice, Phase* phase) {
    s.reset();
    const int64_t t0 = NowNs();
    std::vector<Record2> data = MakeRecords(cfg.Scaled(kRecords), kMapSeed);
    s = Setup(cfg, data, &r);
    setup_s.push_back(SecondsSince(t0));
    builds.push_back(s->build);
    build_ms.Add(i, s->build.wall_s * 1e3);
    if (ref.windows.empty()) ref = ComputeReference(*s, data, &r);
    data = {};
    RunSlice(cfg, s.get(), ref, trace_slice, i, phase, &r);
  };
  for (size_t i = 0; i < kSlices; ++i) {
    replicate(i, /*trace_slice=*/false, &ph);
    if (cfg.trace) replicate(i, /*trace_slice=*/true, &traced);
  }
  r.Fact("records", static_cast<double>(s->records));
  r.Fact("io_engine", s->dev->ring_active() ? "io_uring" : "pread");
  r.Fact("build_threads", kBuildThreads);
  r.Fact("clients", kClients);
  r.Fact("pool_frames", static_cast<double>(s->pool_frames));

  std::vector<double> build_s;
  prtree::IoStats build_io;
  for (const BuildSample& b : builds) {
    build_s.push_back(b.wall_s);
    build_io += b.io;
  }
  uint64_t leaves = 0;
  for (const WindowAnswer& a : ref.windows) leaves += a.leaves;
  r.Fact("setup_s_each", setup_s);
  r.Fact("build_s_each", build_s);
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("build_s", Median(build_s), "s");
  r.E2e("build_io_blocks", static_cast<double>(builds.back().io.Total()),
        "blocks");
  r.E2e("ops_per_s", ph.OpsPerSecond(), "1/s");
  ReportLatencies(ph, &r);
  r.E2e("leaf_ios_per_query",
        Ratio(static_cast<double>(leaves),
              static_cast<double>(ref.windows.size())),
        "blocks");
  r.E2e("device_pages", static_cast<double>(s->dev->num_allocated()),
        "pages");
  r.E2e("peak_rss_mb", Usage::Now().maxrss_mb, "MB");

  if (cfg.trace) {
    ReportOverhead(ph.OpsPerSecond(), traced.OpsPerSecond(), &r);
    if (!cfg.spans_path.empty() &&
        !WriteSpans(cfg.spans_path, traced.Logs())) {
      r.Fail("span dump not written");
    }
  }
  ReportBuildLayers(builds, &r);
  ReportPhaseLayers(cfg.trace ? traced : ph, build_ms, build_io, &r);
  ReportForestLayers(0, 0, 0, 0, &r);
  return r;
}

}  // namespace perfbench
