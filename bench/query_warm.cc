// Warm-pool query throughput: the in-memory hot path the SoA node runs
// and SIMD kernels exist for.
//
// Once the buffer pool holds the whole tree, query time is pure CPU —
// per-node rectangle tests.  This bench pins that down: it bulk-loads the
// dataset once, gives the tree a pool larger than the tree, warms it
// fully, and runs one window batch and one kNN batch per leg, scalar and
// SIMD.  The legs must agree bit-for-bit on every QueryStats counter,
// result count and kNN distance (the dispatch contract of
// geom/rect_batch.h); only the wall clock may differ.  SIMD speedup is
// per-core, so the headline ratio — SIMD over scalar on the same tree —
// shows on a single-core CI container too.
//
// Writes BENCH_warmquery.json (gated against
// bench/baselines/warmquery.json by tools/bench_compare.py: counters
// exact, "speedup" keys one-sided with a 25% band — the committed
// baseline is deliberately floored below measured hardware numbers, see
// docs/TUNING.md).
//
//   --n=<records>     dataset size (default 400k)
//   --queries=<count> window queries per measurement (default 512)
//   --qarea=<frac>    window area as a fraction of the unit square
//                     (default 0.0005 — small windows keep the per-node
//                     test, not result emission, the dominant cost)
//   --knn=<count>     kNN queries per measurement (default 128)
//   --k=<neighbors>   neighbours per kNN query (default 16)
//   --seed=<uint64>   generator seed
//   --repeats=<count> timing repeats, minimum kept (default 5)
//   --out=<path>      JSON output path (default BENCH_warmquery.json)
//   --smoke           tiny run for the ctest tier1 label (checks the
//                     cross-leg identity contract, never gates speed)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "geom/rect_batch.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "rtree/knn.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;  // NOLINT

namespace {

struct LegResult {
  std::string simd;  // "scalar" / "avx2" / "neon"
  double window_seconds = 0;
  double knn_seconds = 0;
  uint64_t leaves = 0;
  uint64_t internal = 0;
  uint64_t results = 0;
  uint64_t knn_leaves = 0;
  uint64_t knn_internal = 0;
  uint64_t knn_results = 0;
  uint64_t knn_digest = 0;  // FNV over result ids + distance bits
};

// FNV-1a over the exact bytes that must match across legs: neighbour ids
// and IEEE-754 distance bits, in reported order.
void DigestNeighbor(uint64_t* h, uint32_t id, Real dist) {
  uint64_t bits;
  std::memcpy(&bits, &dist, sizeof(bits));
  for (uint64_t v : {static_cast<uint64_t>(id), bits}) {
    for (int b = 0; b < 64; b += 8) {
      *h ^= (v >> b) & 0xff;
      *h *= 1099511628211ull;
    }
  }
}

LegResult RunLeg(const harness::BuiltIndex& index, SimdLevel level,
                 const std::vector<Rect2>& windows,
                 const std::vector<std::array<Real, 2>>& knn_points,
                 size_t k, int repeats) {
  LegResult leg;
  leg.simd = SimdLevelName(ForceSimdLevel(level));

  // Pool bigger than the tree: after one warmup pass every node is
  // resident and the measurement is pure CPU.
  BufferPool pool(index.device.get(),
                  static_cast<size_t>(index.tree_stats.num_nodes) + 16);
  index.tree->CacheInternalNodes(&pool);

  auto window_pass = [&](bool record) {
    uint64_t leaves = 0, internal = 0, results = 0;
    for (const Rect2& q : windows) {
      QueryStats qs = index.tree->Query(q, [](const Record2&) {}, &pool);
      leaves += qs.leaves_visited;
      internal += qs.internal_visited;
      results += qs.results;
    }
    if (record) {
      leg.leaves = leaves;
      leg.internal = internal;
      leg.results = results;
    }
  };
  auto knn_pass = [&](bool record) {
    uint64_t leaves = 0, internal = 0, results = 0, digest = 1469598103934665603ull;
    for (const auto& p : knn_points) {
      QueryStats qs;
      auto neighbors = KnnSearch<2>(*index.tree, p, k, &qs, &pool);
      leaves += qs.leaves_visited;
      internal += qs.internal_visited;
      results += qs.results;
      for (const auto& nb : neighbors) {
        DigestNeighbor(&digest, nb.record.id, nb.distance);
      }
    }
    if (record) {
      leg.knn_leaves = leaves;
      leg.knn_internal = internal;
      leg.knn_results = results;
      leg.knn_digest = digest;
    }
  };

  window_pass(/*record=*/true);  // warmup + counter capture
  knn_pass(/*record=*/true);
  for (int rep = 0; rep < repeats; ++rep) {
    Timer tw;
    window_pass(/*record=*/false);
    double ws = tw.Seconds();
    if (rep == 0 || ws < leg.window_seconds) leg.window_seconds = ws;
    Timer tk;
    knn_pass(/*record=*/false);
    double ks = tk.Seconds();
    if (rep == 0 || ks < leg.knn_seconds) leg.knn_seconds = ks;
  }
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 400'000;
  size_t num_queries = 512;
  double qarea = 0.0005;
  size_t num_knn = 128;
  size_t k = 16;
  uint64_t seed = 1;
  int repeats = 5;
  std::string out_path = "BENCH_warmquery.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--n=", 4) == 0) {
      n = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      num_queries = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--qarea=", 8) == 0) {
      qarea = std::strtod(arg + 8, nullptr);
    } else if (std::strncmp(arg, "--knn=", 6) == 0) {
      num_knn = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      k = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--repeats=", 10) == 0) {
      repeats = static_cast<int>(std::strtol(arg + 10, nullptr, 10));
      if (repeats < 1) repeats = 1;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--n=N] [--queries=Q] "
                   "[--qarea=F] [--knn=K] [--k=NB] [--seed=S] [--repeats=R] "
                   "[--out=PATH] [--smoke]\n",
                   arg, argv[0]);
      return 2;
    }
  }
  if (smoke) {
    n = 40'000;
    num_queries = 64;
    num_knn = 16;
    repeats = 2;
  }

  auto data = workload::MakeSize(n, 0.001, seed);
  auto windows = workload::MakeSquareQueries(MakeRect(0, 0, 1, 1), qarea,
                                             num_queries, seed + 17);
  std::vector<std::array<Real, 2>> knn_points;
  {
    Rng rng(seed + 29);
    knn_points.reserve(num_knn);
    for (size_t i = 0; i < num_knn; ++i) {
      knn_points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
  }

  std::printf("=== query_warm: n=%zu, windows=%zu (area %.2e), knn=%zu x k=%zu%s ===\n",
              n, num_queries, qarea, num_knn, k, smoke ? " (smoke)" : "");

  harness::BuiltIndex index = harness::BuildIndex(
      harness::Variant::kPrTree, data, /*memory_bytes=*/0, /*threads=*/1);

  const SimdLevel prev_level = ActiveSimdLevel();
  std::vector<LegResult> legs;
  legs.push_back(
      RunLeg(index, SimdLevel::kScalar, windows, knn_points, k, repeats));
  legs.push_back(
      RunLeg(index, SimdLevel::kAvx2, windows, knn_points, k, repeats));
  ForceSimdLevel(prev_level);

  std::printf("%8s %12s %12s %12s %12s %14s\n", "simd", "window s",
              "knn s", "leaf I/Os", "results", "knn digest");
  for (const LegResult& leg : legs) {
    std::printf("%8s %12.4f %12.4f %12llu %12llu %14llx\n", leg.simd.c_str(),
                leg.window_seconds, leg.knn_seconds,
                static_cast<unsigned long long>(leg.leaves),
                static_cast<unsigned long long>(leg.results),
                static_cast<unsigned long long>(leg.knn_digest));
  }

  // The identity contract: both legs visit the same nodes, return the
  // same results, and report bit-identical kNN distances — SIMD dispatch
  // may only change the clock.
  const LegResult& base = legs[0];  // scalar
  const LegResult& best = legs[1];  // SIMD: the shipped configuration
  bool ok = best.leaves == base.leaves && best.internal == base.internal &&
            best.results == base.results &&
            best.knn_leaves == base.knn_leaves &&
            best.knn_internal == base.knn_internal &&
            best.knn_results == base.knn_results &&
            best.knn_digest == base.knn_digest;
  if (!ok) {
    std::fprintf(stderr, "!! leg %s diverged from %s\n", best.simd.c_str(),
                 base.simd.c_str());
  }

  double window_speedup =
      best.window_seconds > 0 ? base.window_seconds / best.window_seconds : 1;
  double knn_speedup =
      best.knn_seconds > 0 ? base.knn_seconds / best.knn_seconds : 1;
  std::printf("warm window speedup (%s over scalar): %.2fx\n",
              best.simd.c_str(), window_speedup);
  std::printf("warm knn speedup    (%s over scalar): %.2fx\n",
              best.simd.c_str(), knn_speedup);

  std::string json = "{\n  \"bench\": \"query_warm\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"n\": %zu,\n  \"queries\": %zu,\n  \"knn_queries\": %zu,\n"
                "  \"k\": %zu,\n  \"capacity\": %zu,\n"
                "  \"tree_nodes\": %llu,\n  \"tree_leaves\": %llu,\n"
                "  \"simd\": \"%s\",\n",
                n, num_queries, num_knn, k, index.tree->capacity(),
                static_cast<unsigned long long>(index.tree_stats.num_nodes),
                static_cast<unsigned long long>(index.tree_stats.num_leaves),
                best.simd.c_str());
  json += buf;
  json += "  \"legs\": [\n";
  for (size_t i = 0; i < legs.size(); ++i) {
    const LegResult& leg = legs[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"simd\": \"%s\", "
        "\"window_seconds\": %.6f, \"knn_seconds\": %.6f, "
        "\"leaves\": %llu, \"results\": %llu, \"knn_results\": %llu}%s\n",
        leg.simd.c_str(), leg.window_seconds, leg.knn_seconds,
        static_cast<unsigned long long>(leg.leaves),
        static_cast<unsigned long long>(leg.results),
        static_cast<unsigned long long>(leg.knn_results),
        i + 1 < legs.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"speedup_simd_window\": %.3f,\n"
                "  \"speedup_simd_knn\": %.3f,\n",
                window_speedup, knn_speedup);
  json += buf;
  json += std::string("  \"deterministic\": ") + (ok ? "true" : "false") +
          "\n}\n";

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "IDENTITY CHECK FAILED\n");
    return 1;
  }
  return 0;
}
