// prbench: the end-to-end benchmark of the prtree library.
//
//   prbench --workload bulkload|query-warm|mixed --seed N
//           --seconds S --trace 0|1 [--scale F] [--dir DIR] [--spans PATH]
//
// Prints one provenance line, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run (--trace 0), or the per-layer metrics of a traced run
// (--trace 1).  "correct" is false when any answer failed its check; the
// exit code is non-zero only when no result could be produced.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "geom/rect_batch.h"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Result;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulkload|query-warm|mixed "
               "--seed N --seconds S --trace 0|1 [--scale F] [--dir DIR] "
               "[--spans PATH]\n",
               argv0);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::string(value) == "1";
    } else if (flag == "--scale") {
      cfg.scale = std::strtod(value, nullptr);
    } else if (flag == "--dir") {
      cfg.dir = value;
    } else if (flag == "--spans") {
      cfg.spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0 || cfg.seconds <= 0 ||
      cfg.scale <= 0) {
    return Usage(argv[0]);
  }
  // A traced run measures an untraced and a traced phase (for the tracing
  // overhead); each gets half of --seconds, so the run lasts as long as an
  // untraced one.
  if (cfg.trace) cfg.seconds /= 2;

  Result result;
  if (cfg.workload == "bulkload") {
    result = perfbench::RunBulkload(cfg);
  } else if (cfg.workload == "query-warm") {
    result = perfbench::RunQuery(cfg);
  } else if (cfg.workload == "mixed") {
    result = perfbench::RunMixed(cfg);
  } else {
    return Usage(argv[0]);
  }

  const std::vector<Metric>& metrics =
      cfg.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) result.Fail(m.name + " is not finite");
  }
  // A run whose checks failed counts every op as failed if none was
  // attributed yet, so a wrong answer can never read as a clean run.
  if (!result.correct && result.failed == 0) result.failed = result.attempted;
  if (result.attempted == 0) result.attempted = 1;

  utsname uts{};
  uname(&uts);
  std::string prov = "{\"provenance\": {";
  prov += "\"workload\": \"" + cfg.workload + "\"";
  prov += ", \"seed\": " + std::to_string(cfg.seed);
  prov += ", \"seconds\": " + JsonNumber(cfg.seconds);
  prov += ", \"trace\": " + std::to_string(cfg.trace ? 1 : 0);
  prov += ", \"scale\": " + JsonNumber(cfg.scale);
  prov += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  prov += ", \"device\": \"uring\", \"io_mode\": \"buffered\"";
  prov += std::string(", \"build_type\": \"") + PRBENCH_BUILD_TYPE + "\"";
  prov += std::string(", \"simd\": \"") +
          prtree::SimdLevelName(prtree::ActiveSimdLevel()) + "\"";
  prov += std::string(", \"kernel\": \"") + uts.release + "\"";
  for (const std::string& fact : result.facts) prov += ", " + fact;
  prov += "}}";
  std::printf("%s\n", prov.c_str());

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}
