// Workload "mixed": a DynamicPRTree (the paper's logarithmic-method forest)
// of 200k TIGER-like Eastern records, populated in set-up through Insert,
// serving 2 closed-loop clients a 40/10/40/10 mix of insert, delete,
// window and kNN.  Reads run on snapshots; the pool holds the forest.
// Level rebuilds go through the in-memory PR loader, and epoch reclamation
// and device writes run beside the reads.  2 clients: writers serialise on
// one mutex, and more blocked clients tie the timings to host contention
// (see README).
//
// Checks: every delete of a live record returns true; the final size
// equals base + inserts - deletes whatever the interleaving; a snapshot
// pinned before the timed phase keeps answering exactly as it did; the
// forest validates; and probe windows over the final forest match brute
// force over the live record set.

#include <atomic>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/dynamic_prtree.h"
#include "util/random.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using Forest = prtree::DynamicPRTree<2>;

constexpr size_t kBase = 200'000;
constexpr size_t kWindows = 4096;
constexpr size_t kProbes = 8;
constexpr size_t kPoolFrames = 8192;
constexpr size_t kNeighbors = 10;
constexpr int kClients = 2;
constexpr int kInsertPercent = 40;
constexpr int kDeletePercent = 10;
constexpr int kWindowPercent = 40;

struct State {
  std::unique_ptr<prtree::UringBlockDevice> dev;
  std::unique_ptr<prtree::BufferPool> pool;
  std::unique_ptr<Forest> index;
  /// Pinned before the timed phase; must stay frozen.  Declared after the
  /// index so it is released first.
  std::optional<Forest::SnapshotHandle> snap;
  std::vector<WindowAnswer> snap_answers;
  std::vector<Record2> base;
  std::vector<Rect2> windows;
  std::vector<Rect2> probes;
  BuildSample build;
};

/// One client's position in its deterministic op sequence; carried from
/// the untraced phase into the traced one.
struct Cursor {
  explicit Cursor(const Config& cfg, int c)
      : rng(cfg.seed * 1000003 + static_cast<uint64_t>(c)),
        inserts(prtree::workload::NewTigerLikeGenerator(
            ~size_t{0}, prtree::workload::TigerRegion::kEastern,
            cfg.seed + 100 + static_cast<uint64_t>(c))) {}
  prtree::Rng rng;
  std::unique_ptr<prtree::workload::RecordGenerator> inserts;
  std::vector<Record2> inserted;
  size_t deleted = 0;  // this client deletes base[c], base[c + kClients], ...
  size_t peak_limbo = 0;
};

std::vector<WindowAnswer> SnapshotAnswers(const State& s) {
  std::vector<WindowAnswer> out;
  for (const Rect2& w : s.probes) {
    WindowAnswer a;
    prtree::QueryStats qs = s.snap->Query(
        w, [&](const Record2& rec) { a.Add(rec.id); }, s.pool.get());
    a.leaves = qs.leaves_visited;
    out.push_back(a);
  }
  return out;
}

std::unique_ptr<State> Setup(const Config& cfg, Result* r) {
  auto s = std::make_unique<State>();
  s->base = MakeRecords(cfg.Scaled(kBase), cfg.seed);
  s->dev = OpenDevice(cfg);
  s->pool = std::make_unique<prtree::BufferPool>(s->dev.get(), kPoolFrames);
  s->index = std::make_unique<Forest>(prtree::WorkEnv{s->dev.get()});
  s->index->AttachPool(s->pool.get());

  // The base records arrive on the device and are inserted one by one.
  prtree::Stream<Record2> stream(s->dev.get());
  int64_t t0 = NowNs();
  stream.Append(s->base);
  stream.Flush();
  s->build.spill_s = SecondsSince(t0);
  const prtree::IoStats io0 = s->dev->stats();
  const Usage u0 = Usage::Now();
  t0 = NowNs();
  for (prtree::Stream<Record2>::Reader in(&stream); !in.Done();) {
    s->index->Insert(in.Next());
  }
  s->build.wall_s = SecondsSince(t0);
  s->build.usage = Usage::Now() - u0;
  s->build.io = s->dev->stats() - io0;
  prtree::Status st = s->index->Validate();
  if (!st.ok()) r->Fail("Validate after population: " + st.ToString());
  if (s->index->size() != s->base.size()) {
    r->Fail("forest does not hold every base record");
  }

  s->windows = MakeWindows(cfg.Scaled(kWindows), cfg.seed + 1);
  s->probes = MakeWindows(kProbes, cfg.seed + 4);
  s->snap.emplace(s->index->Snapshot());
  s->snap_answers = SnapshotAnswers(*s);
  std::vector<WindowAnswer> brute = BruteWindows(s->base, s->probes);
  for (size_t i = 0; i < brute.size(); ++i) {
    if (brute[i].count != s->snap_answers[i].count ||
        brute[i].id_sum != s->snap_answers[i].id_sum) {
      r->Fail("snapshot probe differs from brute force");
    }
  }
  return s;
}

/// Runs the kClients closed-loop clients for one slice of the run and adds
/// what they did to `ph` as slice `slice`.
void RunSlice(const Config& cfg, State* s, std::vector<Cursor>* cursors,
              bool traced, size_t slice, Phase* ph, Result* r) {
  std::vector<ClientTally> tallies(kClients);
  std::vector<SpanLog*> logs;
  for (int c = 0; c < kClients; ++c) logs.push_back(ph->NewLog(traced));
  std::atomic<bool> stop{false};
  const PoolCounters p0 = PoolCounters::Of(*s->pool);
  const prtree::IoStats io0 = s->dev->stats();
  const Usage u0 = Usage::Now();
  const double seconds = cfg.seconds / kSlices;
  const int64_t start = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      Cursor& cur = (*cursors)[c];
      SpanLog* log = logs[c];
      const double cpu0 = ThreadCpuSeconds();
      const int64_t begin = NowNs();
      uint64_t op = (static_cast<uint64_t>(slice) << 48) |
                    (static_cast<uint64_t>(c) << 40);
      while (!stop.load(std::memory_order_relaxed)) {
        const int pick = static_cast<int>(cur.rng.UniformInt(0, 99));
        const size_t del_index =
            static_cast<size_t>(c) + cur.deleted * kClients;
        ScopedSpan root(log, "client.op", op);
        if (pick < kInsertPercent) {
          Record2 rec;
          cur.inserts->Next(&rec);
          rec.id = static_cast<prtree::DataId>(
              s->base.size() + static_cast<size_t>(c) +
              cur.inserted.size() * kClients);
          const int64_t q0 = NowNs();
          {
            ScopedSpan span(log, "core.forest.Insert", op, root.id());
            s->index->Insert(rec);
          }
          t.update_ms.Add(slice, static_cast<double>(NowNs() - q0) * 1e-6);
          cur.inserted.push_back(rec);
        } else if (pick < kInsertPercent + kDeletePercent &&
                   del_index < s->base.size()) {
          bool found = false;
          const int64_t q0 = NowNs();
          {
            ScopedSpan span(log, "core.forest.Delete", op, root.id());
            found = s->index->Delete(s->base[del_index]);
          }
          t.update_ms.Add(slice, static_cast<double>(NowNs() - q0) * 1e-6);
          ++cur.deleted;
          if (!found) ++t.failed;
        } else if (pick < kInsertPercent + kDeletePercent + kWindowPercent) {
          const Rect2& w =
              s->windows[cur.rng.UniformInt(0, s->windows.size() - 1)];
          prtree::QueryStats qs;
          const int64_t q0 = NowNs();
          {
            ScopedSpan span(log, "core.forest.Query", op, root.id());
            qs = s->index->Query(w, [](const Record2&) {}, s->pool.get());
          }
          t.window_ms.Add(slice, static_cast<double>(NowNs() - q0) * 1e-6);
          t.window_nodes += qs.nodes_visited;
          t.window_leaves += qs.leaves_visited;
          t.window_results += qs.results;
        } else {
          const Point p{cur.rng.Uniform(0, 1), cur.rng.Uniform(0, 1)};
          prtree::QueryStats qs;
          std::vector<prtree::Neighbor<2>> nn;
          const int64_t q0 = NowNs();
          {
            ScopedSpan span(log, "core.forest.Knn", op, root.id());
            nn = s->index->Knn(p, kNeighbors, &qs, s->pool.get());
          }
          t.knn_ms.Add(slice, static_cast<double>(NowNs() - q0) * 1e-6);
          t.knn_nodes += qs.nodes_visited;
          if (nn.size() != kNeighbors) ++t.failed;
        }
        if (c == 0) {
          cur.peak_limbo =
              std::max(cur.peak_limbo, s->index->epochs().limbo_pages());
        }
        ++t.ops;
        ++op;
      }
      t.busy_s = SecondsSince(begin);
      t.cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  // The pinned snapshot must answer exactly as before while writers run.
  bool frozen = true;
  while (SecondsSince(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<int64_t>(500, static_cast<int64_t>(
                                   (seconds - SecondsSince(start)) * 1e3) +
                                   1)));
    frozen = frozen && SnapshotAnswers(*s) == s->snap_answers;
  }
  stop.store(true);
  for (auto& th : clients) th.join();
  ph->AddSlice(SecondsSince(start), tallies, Usage::Now() - u0,
               s->dev->stats() - io0, PoolCounters::Of(*s->pool) - p0);
  uint64_t failed = 0;
  for (const ClientTally& t : tallies) {
    r->attempted += t.ops;
    failed += t.failed;
  }
  r->failed += failed;
  if (failed != 0) {
    r->Fail(std::to_string(failed) + " deletes or kNN queries failed");
  }
  if (!frozen) r->Fail("pinned snapshot changed under writers");
}

/// End-of-run checks: size, frozen snapshot, Validate, and probe windows
/// over the live set against brute force.
void FinalChecks(State* s, const std::vector<Cursor>& cursors, Result* r) {
  std::vector<bool> deleted(s->base.size(), false);
  std::vector<Record2> live;
  size_t inserts = 0, deletes = 0;
  for (int c = 0; c < kClients; ++c) {
    const Cursor& cur = cursors[c];
    for (size_t k = 0; k < cur.deleted; ++k) {
      deleted[static_cast<size_t>(c) + k * kClients] = true;
    }
    inserts += cur.inserted.size();
    deletes += cur.deleted;
    live.insert(live.end(), cur.inserted.begin(), cur.inserted.end());
  }
  for (size_t i = 0; i < s->base.size(); ++i) {
    if (!deleted[i]) live.push_back(s->base[i]);
  }
  if (s->index->size() != s->base.size() + inserts - deletes ||
      live.size() != s->index->size()) {
    r->Fail("final size depends on interleaving");
  }
  if (SnapshotAnswers(*s) != s->snap_answers) {
    r->Fail("pinned snapshot changed under writers");
  }
  prtree::Status st = s->index->Validate();
  if (!st.ok()) r->Fail("Validate: " + st.ToString());
  std::vector<WindowAnswer> brute = BruteWindows(live, s->probes);
  for (size_t i = 0; i < s->probes.size(); ++i) {
    WindowAnswer a;
    s->index->Query(s->probes[i], [&](const Record2& rec) { a.Add(rec.id); },
                    s->pool.get());
    if (a.count != brute[i].count || a.id_sum != brute[i].id_sum) {
      r->Fail("final forest window differs from brute force");
    }
  }
}

}  // namespace

Result RunMixed(const Config& cfg) {
  Result r;
  std::vector<double> setup_s;
  std::vector<BuildSample> builds;
  std::vector<double> device_pages;
  Phase ph;
  Phase traced;
  std::unique_ptr<State> s;
  size_t levels = 0, tombstones = 0, limbo = 0, limbo_peak = 0;
  // One replicate: a fresh set-up, one timed slice on it, then the final
  // checks.  The traced run gives each traced slice a fresh set-up too, so
  // traced and untraced slices start from the same forest.
  auto replicate = [&](size_t i, bool trace_slice, Phase* phase) {
    s.reset();
    const int64_t t0 = NowNs();
    s = Setup(cfg, &r);
    setup_s.push_back(SecondsSince(t0));
    builds.push_back(s->build);
    std::vector<Cursor> cursors;
    for (int c = 0; c < kClients; ++c) cursors.emplace_back(cfg, c);
    RunSlice(cfg, s.get(), &cursors, trace_slice, i, phase, &r);
    levels = s->index->num_levels();
    tombstones = s->index->tombstones();
    limbo = s->index->epochs().limbo_pages();
    limbo_peak = std::max(limbo_peak, cursors[0].peak_limbo);
    FinalChecks(s.get(), cursors, &r);
    s->snap.reset();  // releases the pinned epoch: retired pages drain
    if (!trace_slice) {
      device_pages.push_back(static_cast<double>(s->dev->num_allocated()));
    }
  };
  for (size_t i = 0; i < kSlices; ++i) {
    replicate(i, /*trace_slice=*/false, &ph);
    if (cfg.trace) replicate(i, /*trace_slice=*/true, &traced);
  }
  r.Fact("records", static_cast<double>(s->base.size()));
  r.Fact("io_engine", s->dev->ring_active() ? "io_uring" : "pread");
  r.Fact("clients", kClients);
  r.Fact("pool_frames", static_cast<double>(kPoolFrames));

  std::vector<double> build_s;
  for (const BuildSample& b : builds) build_s.push_back(b.wall_s);
  r.Fact("setup_s_each", setup_s);
  r.Fact("build_s_each", build_s);
  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("build_s", Median(build_s), "s");
  r.E2e("build_io_blocks", static_cast<double>(builds.back().io.Total()),
        "blocks");
  r.E2e("ops_per_s", ph.OpsPerSecond(), "1/s");
  ReportLatencies(ph, &r);
  r.E2e("leaf_ios_per_query",
        Ratio(static_cast<double>(ph.total.window_leaves),
              static_cast<double>(ph.total.window_ms.size())),
        "blocks");
  r.E2e("device_pages", Median(device_pages), "pages");
  r.E2e("peak_rss_mb", Usage::Now().maxrss_mb, "MB");

  if (cfg.trace) {
    ReportOverhead(ph.OpsPerSecond(), traced.OpsPerSecond(), &r);
    if (!cfg.spans_path.empty() &&
        !WriteSpans(cfg.spans_path, traced.Logs())) {
      r.Fail("span dump not written");
    }
  }
  const Phase& layer = cfg.trace ? traced : ph;
  ReportBuildLayers(builds, &r);
  // Updates read the device directly (rebuild merges, delete lookups);
  // queries read it only through the pool, so their reads are its misses.
  prtree::IoStats update_io = layer.io;
  update_io.reads -= std::min(update_io.reads, layer.pool.misses);
  ReportPhaseLayers(layer, layer.total.update_ms, update_io, &r);
  ReportForestLayers(levels, tombstones, limbo, limbo_peak, &r);
  return r;
}

}  // namespace perfbench
