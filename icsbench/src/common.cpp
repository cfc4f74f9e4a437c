#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/simd_dispatch.hpp"
#include "sim/numa_topology.hpp"

#ifndef ICSBENCH_BUILD_TYPE
#define ICSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ICSBENCH_COMPILER
#define ICSBENCH_COMPILER "unknown"
#endif

namespace icsbench {

namespace {

double tvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double cpuSecondsWithChildren() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime) + tvSeconds(kids.ru_utime) +
         tvSeconds(kids.ru_stime);
}

double peakRssMb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

int Tracer::begin(std::string name, std::uint64_t requestId) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start = secondsSince(origin_);
  s.parent = stack_.empty() ? -1 : stack_.back();
  // A child span without its own request id belongs to its parent's request.
  s.requestId = requestId;
  if (requestId == 0 && s.parent >= 0) {
    s.requestId = spans_[static_cast<std::size_t>(s.parent)].requestId;
  }
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::selfSeconds() const {
  std::vector<double> childCover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) childCover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += std::max(0.0, spans_[i].end - spans_[i].start - childCover[i]);
  }
  return {self.begin(), self.end()};
}

std::string Tracer::toJson() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
       << ", \"start_s\": " << jsonNumber(s.start) << ", \"end_s\": " << jsonNumber(s.end)
       << ", \"parent\": " << s.parent << ", \"request_id\": " << s.requestId << "}";
  }
  os << "\n]";
  return os.str();
}

double metricValue(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hostBlockJson(const Options& opt) {
  const icsched::NumaTopology topo = icsched::systemTopology();
  std::ostringstream os;
  os << "{\"cpu_model\": " << jsonString(cpuModel())
     << ", \"cores\": " << std::thread::hardware_concurrency()
     << ", \"simd_tier\": " << jsonString(icsched::simdTierName(icsched::activeSimdTier()))
     << ", \"numa_nodes\": " << topo.numNodes() << ", \"numa_cpus\": [";
  for (std::size_t n = 0; n < topo.numNodes(); ++n) {
    os << (n == 0 ? "" : ", ") << topo.nodes[n].cpus.size();
  }
  os << "], \"build_type\": " << jsonString(ICSBENCH_BUILD_TYPE)
     << ", \"compiler\": " << jsonString(ICSBENCH_COMPILER)
     << ", \"commit\": " << jsonString(opt.commit)
     << ", \"source_sha256\": " << jsonString(opt.sourceDigest) << "}";
  return os.str();
}

}  // namespace icsbench
