/// \file main.cpp
/// \brief icsbench: one workload of the end-to-end benchmark per call.
///
///   icsbench --workload sweep_threads|sweep_shards_faults|service_mix
///            --seed N --seconds S --trace 0|1 --work-dir DIR --serve PATH
///            [--result FILE] [--short] [--commit C] [--source-digest D]
///
/// Prints notes, a host line, and as its last line one JSON object with
/// the keys correct, attempted, failed and metrics (end-to-end metrics
/// with --trace 0, per-layer metrics with --trace 1). A failed correctness
/// check exits 1 without a result line.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using icsbench::Options;

int usage() {
  std::cerr << "usage: icsbench --workload W --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --serve PATH [--result FILE] [--short]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--short") {
        opt.shortMode = true;
      } else if (a == "--work-dir") {
        opt.workDir = value();
      } else if (a == "--serve") {
        opt.servePath = value();
      } else if (a == "--result") {
        opt.resultPath = value();
      } else if (a == "--commit") {
        opt.commit = value();
      } else if (a == "--source-digest") {
        opt.sourceDigest = value();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "icsbench: " << e.what() << "\n";
      return usage();
    }
  }
  if (opt.workload.empty() || opt.workDir.empty() || opt.servePath.empty()) return usage();

  icsbench::RunResult r;
  try {
    if (opt.workload == "sweep_threads") {
      r = icsbench::runSweepWorkload(opt, false);
    } else if (opt.workload == "sweep_shards_faults") {
      r = icsbench::runSweepWorkload(opt, true);
    } else if (opt.workload == "service_mix") {
      r = icsbench::runServiceMix(opt);
    } else {
      std::cerr << "icsbench: unknown workload '" << opt.workload << "'\n";
      return 64;
    }
  } catch (const icsbench::CheckFailure& e) {
    std::cerr << "icsbench: CHECK FAILED (" << opt.workload << "): " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "icsbench: error (" << opt.workload << "): " << e.what() << "\n";
    return 2;
  }

  const std::string host = icsbench::hostBlockJson(opt);
  const auto toJson = [](const std::vector<icsbench::Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      s += (i == 0 ? "" : ", ") + icsbench::jsonString(ms[i].name) +
           ": {\"value\": " + icsbench::jsonNumber(ms[i].value) +
           ", \"unit\": " + icsbench::jsonString(ms[i].unit) + "}";
    }
    return s + "}";
  };
  const std::string metrics = toJson(r.metrics);
  for (const icsbench::Metric& m : r.details) {
    r.notes.push_back(m.name + " " + icsbench::jsonNumber(m.value) + " " + m.unit);
  }

  if (!opt.resultPath.empty()) {
    std::ofstream f(opt.resultPath);
    f << "{\"host\": " << host << ",\n \"workload\": " << icsbench::jsonString(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << icsbench::jsonNumber(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"short\": " << (opt.shortMode ? 1 : 0)
      << ",\n \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ",\n \"metrics\": " << metrics << ",\n \"details\": " << toJson(r.details)
      << ",\n \"notes\": [";
    for (std::size_t i = 0; i < r.notes.size(); ++i) {
      f << (i == 0 ? "" : ", ") << icsbench::jsonString(r.notes[i]);
    }
    f << "],\n \"spans\": " << (r.spansJson.empty() ? "[]" : r.spansJson) << "}\n";
  }

  for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
  std::cout << "# host " << host << "\n";
  std::cout << "{\"correct\": true, \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": " << metrics << "}" << std::endl;
  return 0;
}
