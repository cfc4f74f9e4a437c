/// \file test_checkers.cpp
/// \brief Shows the benchmark's checkers are not vacuous: each accepts a
/// correct case and rejects a hand-corrupted one. Exits non-zero on the
/// first checker that lets a corrupted case through.

#include <cmath>
#include <functional>
#include <iostream>
#include <utility>

#include "approx/heuristics.hpp"
#include "catalogue.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "families/mesh.hpp"
#include "service/wire.hpp"
#include "sim/batch_runner.hpp"
#include "sim/result_codec.hpp"

namespace {

using icsbench::CheckFailure;
using icsched::NodeId;

int failures = 0;

void expectPass(const std::string& name, const std::function<void()>& f) {
  try {
    f();
    std::cout << "[ok] accepts " << name << "\n";
  } catch (const std::exception& e) {
    std::cout << "[FAIL] rejects the correct case " << name << ": " << e.what() << "\n";
    ++failures;
  }
}

void expectReject(const std::string& name, const std::function<void()>& f) {
  try {
    f();
    std::cout << "[FAIL] accepts the corrupted case " << name << "\n";
    ++failures;
  } catch (const CheckFailure& e) {
    std::cout << "[ok] rejects " << name << ": " << e.what() << "\n";
  }
}

std::string encode(const icsched::SimulationResult& r) {
  icsched::recovery::ByteWriter w;
  icsched::writeResult(w, r);
  return w.take();
}

}  // namespace

int main() {
  icsbench::Rng rng(7);
  const icsched::ScheduledDag base = icsbench::familyDag("mesh", 12);
  const icsched::ScheduledDag sd =
      icsbench::relabel(base, icsbench::randomPermutation(base.dag.numNodes(), rng));
  const icsched::Dag& g = sd.dag;
  const std::vector<NodeId> greedy = icsched::greedyEligibleSchedule(g).order();
  const std::vector<std::size_t> optimal = icsbench::eligibilityReplay(g, sd.schedule.order());

  // A schedule that breaks a dependency.
  expectPass("the greedy schedule as a linear extension",
             [&] { icsbench::checkLinearExtension(g, greedy); });
  expectReject("a schedule running a child before its parent", [&] {
    std::vector<NodeId> bad = greedy;
    std::swap(bad[0], bad[1]);  // step 0 is the source; step 1 one of its children
    icsbench::checkLinearExtension(g, bad);
  });

  // A non-greedy step.
  expectPass("the library's greedy schedule", [&] { icsbench::checkGreedySteps(g, greedy); });
  expectReject("a linear extension that is not greedy", [&] {
    // The IC-optimal diagonal order differs from the greedy tie-breaking
    // somewhere, yet is a valid linear extension.
    icsbench::checkGreedySteps(g, sd.schedule.order());
  });
  expectPass("a greedy profile under the IC-optimal one", [&] {
    icsbench::checkProfileDominated(icsbench::eligibilityReplay(g, greedy), optimal, "greedy");
  });
  expectReject("a profile above the IC-optimal one", [&] {
    std::vector<std::size_t> inflated = icsbench::eligibilityReplay(g, greedy);
    inflated[inflated.size() / 2] = optimal[optimal.size() / 2] + 1;
    icsbench::checkProfileDominated(inflated, optimal, "inflated");
  });

  // A wrong ▷ verdict, and a `chain find` order that is not ▷-linear.
  const std::vector<icsched::ScheduledDag> chain = icsched::meshWDagChain(6);
  std::vector<std::vector<std::size_t>> profiles;
  for (const auto& p : chain) profiles.push_back(icsbench::nonsinkProfile(p.dag, p.schedule));
  std::vector<std::vector<std::size_t>> reversed(profiles.rbegin(), profiles.rend());
  expectPass("PRIORITY-CHAIN on the paper's mesh W-chain", [&] {
    icsbench::checkChainVerdict(profiles, true, "PRIORITY-CHAIN\n", 0, "chain");
  });
  expectReject("NOT-A-PRIORITY-CHAIN on the paper's mesh W-chain", [&] {
    icsbench::checkChainVerdict(profiles, true, "NOT-A-PRIORITY-CHAIN\n", 2, "chain");
  });
  expectReject("PRIORITY-CHAIN on the reversed mesh W-chain", [&] {
    icsbench::checkChainVerdict(reversed, false, "PRIORITY-CHAIN\n", 0, "chain");
  });
  expectPass("the identity order on the mesh W-chain",
             [&] { icsbench::checkChainOrder(profiles, "order 0 1 2 3 4\n", 0, "find"); });
  expectReject("the reversed order on the mesh W-chain",
               [&] { icsbench::checkChainOrder(profiles, "order 4 3 2 1 0\n", 0, "find"); });
  expectReject("an order that repeats an input",
               [&] { icsbench::checkChainOrder(profiles, "order 0 1 2 3 3\n", 0, "find"); });

  // A replication that differs across execution modes: a pooled replication
  // against the same cell re-run serially in one engine.
  icsched::SweepSpec spec;
  spec.dags.push_back({"mesh-12", &g, &sd.schedule});
  spec.schedulers = {"IC-OPT", "RANDOM"};
  spec.seeds = icsched::seedRange(11, 2);
  spec.base.numClients = 4;
  const std::vector<icsched::Replication> pooled = icsched::BatchRunner(2).run(spec);
  const icsched::Replication& rep = pooled.back();
  icsched::SimulationConfig cfg = spec.base;
  cfg.seed = spec.seeds[rep.seedIndex];
  icsched::SimulationEngine engine;
  const icsched::SimulationResult a =
      engine.runWith(g, sd.schedule, spec.schedulers[rep.schedulerIndex], cfg);
  expectPass("a pooled replication against its serial re-run",
             [&] { icsbench::checkIdentical(encode(rep.result), encode(a), "rep"); });
  expectReject("a replication whose makespan moved by one ulp", [&] {
    icsched::SimulationResult c = rep.result;
    c.makespan = std::nextafter(c.makespan, 1e300);
    icsbench::checkIdentical(encode(c), encode(a), "rep");
  });
  expectReject("another cell's replication", [&] {
    icsbench::checkIdentical(encode(pooled.front().result), encode(a), "rep");
  });
  const icsbench::MakespanBound bound = icsbench::makespanBound(g, 0.5, 4);
  expectPass("a simulated makespan against its bound",
             [&] { icsbench::checkMakespan(a.makespan, bound, "rep"); });
  expectReject("a makespan below the critical path", [&] {
    icsbench::checkMakespan(bound.value() * 0.9, bound, "rep");
  });

  // A salvaged or replayed response.
  expectPass("a fresh response", [&] { icsbench::checkFresh(0, 0, "fresh"); });
  expectReject("an idempotent replay", [&] {
    icsbench::checkFresh(icsched::service::kRespFlagIdempotentReplay, 0, "replay");
  });
  expectReject("a sweep with salvaged replications",
               [&] { icsbench::checkFresh(0, 3, "salvaged"); });

  std::cout << (failures == 0 ? "all checkers reject their corrupted cases\n"
                              : "some checker is vacuous\n");
  return failures == 0 ? 0 : 1;
}
