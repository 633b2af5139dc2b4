// Workload "bulkload": an external PR-tree bulk load of 1M TIGER-like
// Eastern records with 4 build threads and the paper-proportional memory
// budget (the build takes the grid path), followed on each fresh tree by
// the paper's §3.3 query batch: internal nodes cached, leaves read from
// the device, then the same batch again on the loaded pool, timed.  The
// build is where core, io.sort/io.stream, io.device writes and
// util.parallel do nearly all the work.  The probes check every build
// against the first one, and a fixed subset against brute force.

#include <thread>

#include "bench.h"
#include "harness/experiment.h"
#include "rtree/bulk_loader.h"
#include "rtree/validate.h"

namespace perfbench {
namespace {

constexpr size_t kRecords = 1'000'000;
constexpr size_t kWindowProbes = 2048;  // per build
constexpr size_t kKnnProbes = 2048;     // per build
constexpr size_t kOracleProbes = 256;  // of which checked by brute force
constexpr size_t kNeighbors = 10;
constexpr int kBuildThreads = 4;
/// Warm passes of the probe batch per build, and the client threads that
/// split each one.  A pass is a bucket of latencies; a quantile is the
/// median over buckets of each bucket's quantile.
constexpr size_t kWarmPasses = 10;
constexpr size_t kProbeClients = 3;

struct State {
  std::vector<Record2> data;
  std::vector<Rect2> windows;
  std::vector<Point> points;
  std::vector<WindowAnswer> window_oracle;  // brute force, first probes
  std::vector<uint64_t> knn_oracle;         // brute force, first probes
  std::unique_ptr<prtree::UringBlockDevice> dev;
};

std::unique_ptr<State> Setup(const Config& cfg) {
  auto s = std::make_unique<State>();
  s->data = MakeRecords(cfg.Scaled(kRecords), kMapSeed);
  s->windows = MakeWindows(cfg.Scaled(kWindowProbes), cfg.seed + 1);
  s->points = MakePoints(cfg.Scaled(kKnnProbes), cfg.seed + 2);
  const long oracle = static_cast<long>(
      std::min(cfg.Scaled(kOracleProbes), s->windows.size()));
  s->window_oracle = BruteWindows(
      s->data,
      std::vector<Rect2>(s->windows.begin(), s->windows.begin() + oracle));
  s->knn_oracle = BruteKnn(
      s->data,
      std::vector<Point>(s->points.begin(), s->points.begin() + oracle),
      kNeighbors);
  s->dev = OpenDevice(cfg);
  return s;
}

/// The first build's probe answers, which every later build must repeat
/// exactly (builds are byte-identical by the loader's contract).
struct Reference {
  std::vector<WindowAnswer> windows;  // count, id digest and leaf count
  std::vector<uint64_t> knn;
  prtree::IoStats build_io;
};

/// Everything one timed phase of build-and-probe cycles measured.
struct BulkPhase {
  Phase phase;  // builds and the cold §3.3 probe passes
  Phase warm;   // the warm passes: the latencies reported end to end
  std::vector<BuildSample> builds;
  SlicedSamples build_ms;
  size_t device_pages = 0;
};

/// One warm pass over the loaded pool: kProbeClients threads split the
/// probe batch (client c takes every kProbeClients-th window and point),
/// add their latencies to bucket `bucket` of `warm` and check every answer
/// against `ref`.  `op` numbers the pass's probes for the spans.
void WarmPass(const State& s, const prtree::RTree<2>& tree,
              prtree::BufferPool* pool, const Reference& ref, size_t bucket,
              const std::vector<SpanLog*>& logs, uint64_t op, ClientTally* warm,
              Result* r) {
  std::vector<ClientTally> tallies(kProbeClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kProbeClients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      SpanLog* log = logs[c];
      for (size_t i = c; i < s.windows.size(); i += kProbeClients) {
        const uint64_t id = op + i;
        ScopedSpan root(log, "client.op", id);
        WindowAnswer a;
        prtree::QueryStats qs;
        const int64_t q0 = NowNs();
        {
          ScopedSpan span(log, "rtree.Query", id, root.id());
          qs = tree.Query(s.windows[i],
                          [&](const Record2& rec) { a.Add(rec.id); }, pool);
        }
        t.window_ms.Add(bucket, static_cast<double>(NowNs() - q0) * 1e-6);
        a.leaves = qs.leaves_visited;
        if (!(a == ref.windows[i])) ++t.failed;
        ++t.ops;
      }
      for (size_t i = c; i < s.points.size(); i += kProbeClients) {
        const uint64_t id = op + s.windows.size() + i;
        ScopedSpan root(log, "client.op", id);
        std::vector<prtree::Neighbor<2>> nn;
        const int64_t q0 = NowNs();
        {
          ScopedSpan span(log, "rtree.KnnSearch", id, root.id());
          nn = prtree::KnnSearch<2>(tree, s.points[i], kNeighbors, nullptr,
                                    pool);
        }
        t.knn_ms.Add(bucket, static_cast<double>(NowNs() - q0) * 1e-6);
        if (KnnDigest(nn) != ref.knn[i]) ++t.failed;
        ++t.ops;
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t failed = 0;
  for (const ClientTally& t : tallies) {
    warm->Merge(t);
    r->attempted += t.ops;
    failed += t.failed;
  }
  r->failed += failed;
  if (failed != 0) {
    r->Fail(std::to_string(failed) +
            " warm probes differ from the first build's answers");
  }
}

/// Runs build-and-probe cycles for about cfg.seconds (at least one).  The
/// first build's answers are checked against brute force where it was
/// computed, and become `ref` for every later build.
BulkPhase RunPhase(const Config& cfg, State* s, bool traced, Reference* ref,
                   Result* r) {
  prtree::UringBlockDevice* dev = s->dev.get();
  const size_t n = s->data.size();
  prtree::BuildOptions bopts;
  bopts.memory_bytes = prtree::harness::ScaledMemoryBudget(n);
  bopts.threads = kBuildThreads;
  auto loader = prtree::MakeBulkLoader<2>(prtree::LoaderKind::kPrTree, bopts);

  BulkPhase out;
  Phase& ph = out.phase;
  SpanLog* log = ph.NewLog(traced);
  std::vector<SpanLog*> probe_logs;
  for (size_t c = 0; c < kProbeClients; ++c) {
    probe_logs.push_back(ph.NewLog(traced));
  }
  ClientTally& t = ph.total;
  uint64_t op = 0;

  const Usage u0 = Usage::Now();
  const double cpu0 = ThreadCpuSeconds();
  const int64_t start = NowNs();
  double cycle_s = 0;
  size_t cycle = 0;  // the slice of everything this cycle measures
  do {
    const int64_t cycle_start = NowNs();
    BuildSample b;
    prtree::RTree<2> tree(dev);
    {
      ScopedSpan root(log, "client.op", op);
      prtree::Stream<Record2> stream(dev);
      int64_t t0 = NowNs();
      {
        ScopedSpan span(log, "io.stream.Spill", op, root.id());
        stream.Append(s->data);
        stream.Flush();
      }
      b.spill_s = SecondsSince(t0);
      const prtree::IoStats io0 = dev->stats();
      const Usage bu0 = Usage::Now();
      t0 = NowNs();
      prtree::Status st;
      {
        ScopedSpan span(log, "core.Build", op, root.id());
        st = loader->Build(dev, &stream, &tree);
      }
      b.wall_s = SecondsSince(t0);
      b.usage = Usage::Now() - bu0;
      b.io = dev->stats() - io0;
      ++t.ops;
      ++r->attempted;
      bool ok = st.ok();
      if (!ok) r->Fail("Build: " + st.ToString());
      {
        ScopedSpan span(log, "rtree.ValidateTree", op, root.id());
        st = prtree::ValidateTree(tree);
      }
      if (!st.ok()) {
        ok = false;
        r->Fail("ValidateTree: " + st.ToString());
      }
      if (tree.size() != n || tree.ComputeStats().num_entries != n) {
        ok = false;
        r->Fail("tree does not hold every record");
      }
      if (ref->build_io.Total() == 0) ref->build_io = b.io;
      if (b.io.reads != ref->build_io.reads ||
          b.io.writes != ref->build_io.writes ||
          b.io.write_batches != ref->build_io.write_batches) {
        ok = false;
        r->Fail("build device counts differ between identical builds");
      }
      if (!ok) ++r->failed;
    }
    out.builds.push_back(b);
    out.build_ms.Add(cycle, b.wall_s * 1e3);
    ++op;

    // The §3.3 setting: every internal node cached before the first query;
    // each leaf comes from the device on its first visit.  The pool holds
    // the whole tree, so nothing is evicted and the device and pool counts
    // of this cold pass are exact.  The warm passes then repeat the batch
    // on the loaded pool: their latencies, of the pool hit path and
    // traversal of a fresh build, are the ones reported.  They run on
    // kProbeClients threads because one thread runs at the speed its vCPU
    // has at that moment, which on a shared host swings by half from one
    // pass to the next; several threads average over the vCPUs.
    const prtree::TreeStats ts = tree.ComputeStats();
    prtree::BufferPool pool(dev, ts.num_nodes + 16);
    {
      ScopedSpan span(log, "rtree.CacheInternalNodes", op);
      tree.CacheInternalNodes(&pool);
    }
    const PoolCounters p0 = PoolCounters::Of(pool);
    const prtree::IoStats pio0 = dev->stats();
    const bool first = ref->windows.empty();
    for (size_t i = 0; i < s->windows.size(); ++i, ++op) {
      ScopedSpan root(log, "client.op", op);
      WindowAnswer a;
      prtree::QueryStats qs;
      const int64_t q0 = NowNs();
      {
        ScopedSpan span(log, "rtree.Query", op, root.id());
        qs = tree.Query(s->windows[i],
                        [&](const Record2& rec) { a.Add(rec.id); }, &pool);
      }
      t.window_ms.Add(cycle, static_cast<double>(NowNs() - q0) * 1e-6);
      t.window_nodes += qs.nodes_visited;
      t.window_leaves += qs.leaves_visited;
      t.window_results += qs.results;
      ++t.ops;
      ++r->attempted;
      a.leaves = qs.leaves_visited;
      if (first) ref->windows.push_back(a);
      const bool oracle_ok = i >= s->window_oracle.size() ||
                             (a.count == s->window_oracle[i].count &&
                              a.id_sum == s->window_oracle[i].id_sum);
      if (!oracle_ok || !(a == ref->windows[i])) {
        ++r->failed;
        r->Fail("window probe " + std::to_string(i) +
                " differs from brute force or from the first build");
      }
    }
    for (size_t i = 0; i < s->points.size(); ++i, ++op) {
      ScopedSpan root(log, "client.op", op);
      prtree::QueryStats qs;
      std::vector<prtree::Neighbor<2>> nn;
      const int64_t q0 = NowNs();
      {
        ScopedSpan span(log, "rtree.KnnSearch", op, root.id());
        nn = prtree::KnnSearch<2>(tree, s->points[i], kNeighbors, &qs, &pool);
      }
      t.knn_ms.Add(cycle, static_cast<double>(NowNs() - q0) * 1e-6);
      t.knn_nodes += qs.nodes_visited;
      ++t.ops;
      ++r->attempted;
      const uint64_t digest = KnnDigest(nn);
      if (first) ref->knn.push_back(digest);
      if ((i < s->knn_oracle.size() && digest != s->knn_oracle[i]) ||
          digest != ref->knn[i]) {
        ++r->failed;
        r->Fail("kNN probe " + std::to_string(i) +
                " differs from brute force or from the first build");
      }
    }
    ph.pool += PoolCounters::Of(pool) - p0;
    ph.io += dev->stats() - pio0;
    for (size_t pass = 0; pass < kWarmPasses; ++pass) {
      WarmPass(*s, tree, &pool, *ref, cycle * kWarmPasses + pass, probe_logs,
               op, &out.warm.total, r);
      op += s->windows.size() + s->points.size();
    }
    out.device_pages = dev->num_allocated();
    tree.FreeAll();
    cycle_s = SecondsSince(cycle_start);
    ++cycle;
    // Start another cycle only if it ends nearer the budget than stopping
    // now would, so a run does a steady number of builds.
  } while (SecondsSince(start) + cycle_s / 2 < cfg.seconds);
  t.ops += out.warm.total.ops;
  ph.wall_s = SecondsSince(start);
  ph.usage = Usage::Now() - u0;
  t.cpu_s = ThreadCpuSeconds() - cpu0;
  t.busy_s = ph.wall_s;
  return out;
}

/// Records loaded per second of build: the median over the phase's builds.
double LoadRate(const BulkPhase& p, size_t records) {
  std::vector<double> rates;
  for (const BuildSample& b : p.builds) {
    rates.push_back(Ratio(static_cast<double>(records), b.wall_s));
  }
  return Median(rates);
}

}  // namespace

Result RunBulkload(const Config& cfg) {
  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<State> s;
  for (size_t i = 0; i < kSlices; ++i) {
    s.reset();
    const int64_t t0 = NowNs();
    s = Setup(cfg);
    setup_s.push_back(SecondsSince(t0));
  }
  const size_t n = s->data.size();
  r.Fact("records", static_cast<double>(n));
  r.Fact("io_engine", s->dev->ring_active() ? "io_uring" : "pread");
  r.Fact("build_threads", kBuildThreads);
  r.Fact("clients", 1);

  Reference ref;
  BulkPhase p = RunPhase(cfg, s.get(), /*traced=*/false, &ref, &r);
  if (cfg.trace) {
    BulkPhase traced = RunPhase(cfg, s.get(), /*traced=*/true, &ref, &r);
    ReportOverhead(LoadRate(p, n), LoadRate(traced, n), &r);
    if (!cfg.spans_path.empty() &&
        !WriteSpans(cfg.spans_path, traced.phase.Logs())) {
      r.Fail("span dump not written");
    }
    p = std::move(traced);
  }
  r.Fact("builds", static_cast<double>(p.builds.size()));

  std::vector<double> build_s;
  for (const BuildSample& b : p.builds) build_s.push_back(b.wall_s);
  uint64_t leaves = 0;
  for (const WindowAnswer& a : ref.windows) leaves += a.leaves;
  r.Fact("setup_s_each", setup_s);
  r.Fact("build_s_each", build_s);
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("build_s", Median(build_s), "s");
  r.E2e("build_io_blocks", static_cast<double>(ref.build_io.Total()),
        "blocks");
  r.E2e("ops_per_s", LoadRate(p, n), "1/s");
  ReportLatencies(p.warm, &r);
  r.E2e("leaf_ios_per_query",
        Ratio(static_cast<double>(leaves),
              static_cast<double>(ref.windows.size())),
        "blocks");
  r.E2e("device_pages", static_cast<double>(p.device_pages), "pages");
  r.E2e("peak_rss_mb", Usage::Now().maxrss_mb, "MB");

  ReportBuildLayers(p.builds, &r);
  prtree::IoStats build_io;
  for (const BuildSample& b : p.builds) build_io += b.io;
  ReportPhaseLayers(p.phase, p.build_ms, build_io, &r);
  ReportForestLayers(0, 0, 0, 0, &r);
  return r;
}

}  // namespace perfbench
