// Shared pieces of the end-to-end benchmark: run configuration, the result
// every workload fills in, clocks, resource usage, latency quantiles,
// answer digests and the span log of the traced run.
//
// Every layer is measured from outside the library: the benchmark times its
// own calls into each module's public functions and reads the counters the
// modules already expose (BlockDevice::stats(), BufferPool counters,
// QueryStats, EpochManager::limbo_pages(), DynamicPRTree level sizes).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "io/buffer_pool.h"
#include "io/uring_block_device.h"
#include "rtree/knn.h"

namespace perfbench {

using prtree::Real;
using prtree::Record2;
using prtree::Rect2;
using Point = std::array<Real, 2>;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every data and query-set size; 1 is the benchmark proper,
  /// the benchmark's own tests run at a tiny scale.
  double scale = 1.0;
  /// Directory (inside the checkout) for device files and the span dump.
  std::string dir = ".";
  /// Where the traced run writes its spans; empty: not written.
  std::string spans_path;

  size_t Scaled(size_t n) const {
    return std::max<size_t>(
        1, static_cast<size_t>(std::llround(static_cast<double>(n) * scale)));
  }
};

/// One named metric, printed with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run hands back to main().
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra facts for the provenance line (sample counts, sizes), as
  /// already-formatted JSON members: "\"key\": value".
  std::vector<std::string> facts;

  void E2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
  void Fact(const std::string& key, double v);
  void Fact(const std::string& key, const std::string& v);
  void Fact(const std::string& key, const std::vector<double>& v);
  /// Records a failed check: the run is not correct.
  void Fail(const std::string& what);
};

// ---- clocks and resource usage ---------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU time consumed by the calling thread.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process-wide getrusage snapshot (all threads).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double vol_ctx = 0;
  double maxrss_mb = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.vol_ctx = static_cast<double>(ru.ru_nvcsw);
    u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
  }
  Usage operator-(const Usage& o) const {
    return Usage{user_s - o.user_s, sys_s - o.sys_s, vol_ctx - o.vol_ctx,
                 maxrss_mb};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    vol_ctx += o.vol_ctx;
    maxrss_mb = std::max(maxrss_mb, o.maxrss_mb);
    return *this;
  }
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank quantile of `v` (copied; q in [0, 1]); 0 for an empty set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  idx = std::clamp<size_t>(idx, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- answer digests --------------------------------------------------------

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Order-independent digest of a window query's answer: result count plus
/// a sum of mixed ids, so any missing, extra or wrong record shows.
struct WindowAnswer {
  uint64_t count = 0;
  uint64_t id_sum = 0;
  uint64_t leaves = 0;
  bool operator==(const WindowAnswer&) const = default;
  void Add(prtree::DataId id) {
    ++count;
    id_sum += Mix64(id);
  }
};

/// Digest of a kNN answer over the IEEE-754 bits of its sorted distances.
/// Distances, not ids: records at equal distance may tie-break either way.
inline uint64_t DistanceDigest(std::vector<Real> dists) {
  std::sort(dists.begin(), dists.end());
  uint64_t h = 1469598103934665603ull ^ dists.size();
  for (Real d : dists) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = Mix64(h ^ bits);
  }
  return h;
}

template <typename Neighbors>
uint64_t KnnDigest(const Neighbors& nn) {
  std::vector<Real> d;
  d.reserve(nn.size());
  for (const auto& n : nn) d.push_back(n.distance);
  return DistanceDigest(std::move(d));
}

/// Brute-force oracles over the full record set, on 4 threads: window
/// answers (count + id digest) and kNN distance digests.
std::vector<WindowAnswer> BruteWindows(const std::vector<Record2>& data,
                                       const std::vector<Rect2>& windows);
std::vector<uint64_t> BruteKnn(const std::vector<Record2>& data,
                               const std::vector<Point>& points, size_t k);

// ---- inputs ----------------------------------------------------------------

/// The paper's query windows: squares of 1% of the data extent's area.
std::vector<Rect2> MakeWindows(size_t count, uint64_t seed);
/// Uniform kNN query points over the unit square.
std::vector<Point> MakePoints(size_t count, uint64_t seed);
/// `n` TIGER-like Eastern records with ids 0 .. n-1.
std::vector<Record2> MakeRecords(size_t n, uint64_t seed);
/// The seed of the map bulkload and query-warm index: one fixed TIGER-like
/// data set, as the paper's TIGER data is one fixed set, while --seed draws
/// their queries and schedules.  The map sets the tail of the query costs
/// (where its 160 urban centres pile up), so a map drawn per run would move
/// p99 latencies by a fifth from run to run, whatever the code.
inline constexpr uint64_t kMapSeed = 1;

// ---- device ----------------------------------------------------------------

/// Opens a fresh uring-backend device (buffered file; the io_uring engine
/// when the kernel allows it, pread/pwrite otherwise) under cfg.dir.  The
/// file is unlinked at once, so nothing is left behind.
std::unique_ptr<prtree::UringBlockDevice> OpenDevice(const Config& cfg);

// ---- tracing ---------------------------------------------------------------

/// One timed call into a layer: name, start, end, the op it belongs to and
/// the span that caused it (0 for a client op's root span).
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
  int64_t start_ns;
  int64_t end_ns;
};

/// Span log of one client thread in one slice.  Off (the untraced run) it
/// records nothing and costs one branch per call.  Span ids carry the
/// log's id, so they are unique across the logs of a Phase.
class SpanLog {
 public:
  SpanLog(bool on, uint32_t log_id) : on_(on), log_id_(log_id) {
    if (on_) spans_.reserve(1 << 16);
  }

  uint64_t Open(const char* name, uint64_t op, uint64_t parent) {
    if (!on_) return 0;
    uint64_t id = (static_cast<uint64_t>(log_id_ + 1) << 40) | spans_.size();
    spans_.push_back(Span{name, id, parent, op, NowNs(), 0});
    return id;
  }
  void Close(uint64_t id) {
    if (id == 0) return;
    spans_[id & ((uint64_t{1} << 40) - 1)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  uint32_t log_id_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op, uint64_t parent = 0)
      : log_(log), id_(log->Open(name, op, parent)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Per span name: calls, total and self time (duration minus the part its
/// child spans cover).
struct SpanSummary {
  std::string name;
  uint64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
};

std::vector<SpanSummary> Summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span as CSV (name,id,parent,op,start_ns,end_ns) after a
/// per-name summary block.  Returns false if the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// Self seconds of span `name` in `summary`, 0 when absent.
double SelfSeconds(const std::vector<SpanSummary>& summary,
                   const std::string& name);

// ---- measurements shared by the workloads ----------------------------------

/// A run is this many replicates: each sets up afresh, then runs a timed
/// slice of --seconds / kSlices (bulkload: set-ups first, then one slice
/// per build-and-probe cycle).  Every timing is a median over replicates,
/// so a few seconds of outside interference (CPU steal on a shared host)
/// move only a minority of them, while a change in the code moves all.
inline constexpr size_t kSlices = 5;

/// Latency samples of one op kind, kept per slice.  A quantile is the
/// median over slices of each slice's quantile.
class SlicedSamples {
 public:
  void Add(size_t slice, double v) {
    if (slice >= by_slice_.size()) by_slice_.resize(slice + 1);
    by_slice_[slice].push_back(v);
    ++count_;
  }
  void Merge(const SlicedSamples& o);
  size_t size() const { return count_; }
  /// The q-quantile of each non-empty slice.
  std::vector<double> PerSlice(double q) const;
  double Quantile(double q) const { return Median(PerSlice(q)); }

 private:
  std::vector<std::vector<double>> by_slice_;
  size_t count_ = 0;
};

/// What one client thread did in a timed phase.
struct ClientTally {
  SlicedSamples window_ms;
  SlicedSamples knn_ms;
  SlicedSamples update_ms;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t window_nodes = 0;
  uint64_t window_leaves = 0;
  uint64_t window_results = 0;
  uint64_t knn_nodes = 0;
  double cpu_s = 0;   // thread CPU time
  double busy_s = 0;  // wall time the client ran

  void Merge(const ClientTally& o);
};

/// BufferPool counters, diffed around a phase.
struct PoolCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t staged = 0;
  uint64_t useful = 0;

  static PoolCounters Of(const prtree::BufferPool& pool) {
    return PoolCounters{pool.hits(), pool.misses(), pool.prefetch_staged(),
                        pool.prefetch_useful()};
  }
  PoolCounters operator-(const PoolCounters& o) const {
    return PoolCounters{hits - o.hits, misses - o.misses, staged - o.staged,
                        useful - o.useful};
  }
  PoolCounters& operator+=(const PoolCounters& o) {
    hits += o.hits;
    misses += o.misses;
    staged += o.staged;
    useful += o.useful;
    return *this;
  }
};

/// The timed slices of a run, summed: clients' tallies, process usage,
/// device and pool deltas, and (traced) the span logs.
struct Phase {
  double wall_s = 0;
  std::vector<double> slice_ops;     // ops completed in each slice
  std::vector<double> slice_wall_s;  // and its wall time
  ClientTally total;
  Usage usage;
  prtree::IoStats io;
  PoolCounters pool;
  std::vector<std::unique_ptr<SpanLog>> logs;

  std::vector<const SpanLog*> Logs() const;
  /// A new span log owned by this phase, for one client thread.
  SpanLog* NewLog(bool traced);
  /// Ops per second of each slice, and their median.
  std::vector<double> SliceRates() const;
  double OpsPerSecond() const { return Median(SliceRates()); }
  /// Adds one slice's totals, measured over `wall_s` seconds.
  void AddSlice(double wall_s, const std::vector<ClientTally>& tallies,
                const Usage& usage, const prtree::IoStats& io,
                const PoolCounters& pool);
};

/// One index build at the build boundary: the benchmark's stream spill,
/// then the call that builds the index.
struct BuildSample {
  double spill_s = 0;
  double wall_s = 0;
  Usage usage;  // process usage over the build call
  prtree::IoStats io;
};

/// Emits window/kNN latency metrics of `phase` (end to end).
void ReportLatencies(const Phase& phase, Result* r);

/// Emits the build-boundary layer metrics: exact device counts of the last
/// build, median spill and CPU times over all builds.
void ReportBuildLayers(const std::vector<BuildSample>& builds, Result* r);

/// Emits the timed-phase layer metrics every workload shares: rtree
/// traversal counts, client CPU and wait, process syscalls and context
/// switches, pool and device read counts, client self time, and the
/// update latencies and I/O of `update_ms` (see README for what an update
/// is on each workload).
void ReportPhaseLayers(const Phase& phase, const SlicedSamples& update_ms,
                       const prtree::IoStats& update_io, Result* r);

/// Emits the dynamic-forest and epoch-reclaimer layer metrics (0 on the
/// workloads that run a static tree, where those layers do no work).
void ReportForestLayers(size_t levels, size_t tombstones, size_t limbo_pages,
                        size_t limbo_peak, Result* r);

/// Tracing overhead: relative ops/s loss of the traced phase against the
/// untraced one, in percent.
void ReportOverhead(double untraced_ops_per_s, double traced_ops_per_s,
                    Result* r);

Result RunBulkload(const Config& cfg);
Result RunQuery(const Config& cfg);
Result RunMixed(const Config& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
