#pragma once
/// \file common.hpp
/// \brief Shared plumbing of the end-to-end benchmark: options, clocks,
/// resource usage, statistics, the span tracer, the host block and the
/// result line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace icsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double secondsSince(Clock::time_point a) {
  return secondsBetween(a, Clock::now());
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short mode: every workload at small size with every check.
  bool shortMode = false;
  /// Scratch directory for this run (shards, journals, cache files,
  /// sockets); created fresh by the caller, relative to the checkout.
  std::string workDir;
  /// Path of the icsched_serve binary.
  std::string servePath;
  /// Where the result file (host block + metrics + spans) is written.
  std::string resultPath;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
  /// Threads / processes / connections: never more than the cores.
  std::size_t workers = 4;
};

/// A correctness check that failed; the run exits non-zero without a result.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure(\p what) unless \p ok.
inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// User + system CPU seconds of this process plus every waited-for child.
[[nodiscard]] double cpuSecondsWithChildren();

/// Peak resident set of this process plus the largest waited-for child, MB.
[[nodiscard]] double peakRssMb();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, \p q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// One metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// In-memory span recorder. Spans nest through an explicit stack (the
/// benchmark's traced loops are single-threaded); when disabled every call
/// is a branch and nothing is stored.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;
    std::uint64_t requestId = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  int begin(std::string name, std::uint64_t requestId = 0);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: each span's duration minus the part its
  /// children cover, summed by name, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> selfSeconds() const;
  /// The spans as a JSON array.
  [[nodiscard]] std::string toJson() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class SpanGuard {
 public:
  SpanGuard(Tracer& t, std::string name, std::uint64_t requestId = 0)
      : t_(t), id_(t.begin(std::move(name), requestId)) {}
  ~SpanGuard() { t_.end(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// The host block: CPU model, cores, resolved SIMD tier, NUMA layout, build
/// type, compiler and commit, as a JSON object.
[[nodiscard]] std::string hostBlockJson(const Options& opt);

/// What a workload hands back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// The workload's own figures under their workload-specific names
  /// (written to the result file and the notes, not to the result line).
  std::vector<Metric> details;
  /// Human-readable lines printed before the result line (notes, layer
  /// tables); never parsed.
  std::vector<std::string> notes;
  /// The traced run's spans (Tracer::toJson), empty when untraced.
  std::string spansJson;
};

/// Value of the metric named \p name in \p r (0 when absent).
[[nodiscard]] double metricValue(const RunResult& r, const std::string& name);

/// JSON number with all its digits.
[[nodiscard]] std::string jsonNumber(double v);
[[nodiscard]] std::string jsonString(const std::string& s);

}  // namespace icsbench
