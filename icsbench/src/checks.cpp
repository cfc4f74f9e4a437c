#include "checks.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "catalogue.hpp"
#include "common.hpp"
#include "service/wire.hpp"

namespace icsbench {

using icsched::Dag;
using icsched::NodeId;

void checkLinearExtension(const Dag& g, const std::vector<NodeId>& order) {
  const std::size_t n = g.numNodes();
  require(order.size() == n, "schedule has " + std::to_string(order.size()) +
                                 " steps for a dag of " + std::to_string(n) + " nodes");
  std::vector<std::uint8_t> done(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const NodeId v = order[t];
    require(v < n, "schedule step " + std::to_string(t) + " names node " + std::to_string(v) +
                       " outside the dag");
    require(!done[v], "schedule executes node " + std::to_string(v) + " twice");
    for (NodeId p : g.parents(v)) {
      require(done[p] != 0, "schedule executes node " + std::to_string(v) +
                                " before its parent " + std::to_string(p));
    }
    done[v] = 1;
  }
}

std::vector<std::size_t> eligibilityReplay(const Dag& g, const std::vector<NodeId>& order) {
  const std::size_t n = g.numNodes();
  std::vector<std::size_t> pending(n);
  std::size_t eligible = 0;
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = g.parents(v).size();
    if (pending[v] == 0) ++eligible;
  }
  std::vector<std::size_t> profile{eligible};
  profile.reserve(order.size() + 1);
  for (NodeId v : order) {
    --eligible;
    for (NodeId c : g.children(v)) {
      if (--pending[c] == 0) ++eligible;
    }
    profile.push_back(eligible);
  }
  return profile;
}

void checkGreedySteps(const Dag& g, const std::vector<NodeId>& order) {
  checkLinearExtension(g, order);
  const std::size_t n = g.numNodes();
  std::vector<std::size_t> pending(n);
  std::vector<std::size_t> gain(n, 0);  // children whose last missing parent is v
  std::vector<std::uint8_t> done(n, 0);
  // Ordered by (higher gain first, then lower id): begin() is the greedy pick.
  std::set<std::pair<long long, NodeId>> ready;
  const auto key = [&](NodeId v) { return std::make_pair(-static_cast<long long>(gain[v]), v); };
  for (NodeId v = 0; v < n; ++v) pending[v] = g.parents(v).size();
  const auto lastParent = [&](NodeId c) {
    for (NodeId p : g.parents(c)) {
      if (!done[p]) return p;
    }
    return static_cast<NodeId>(n);
  };
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId c : g.children(v)) {
      if (pending[c] == 1) ++gain[v];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (pending[v] == 0) ready.insert(key(v));
  }
  for (std::size_t t = 0; t < n; ++t) {
    const NodeId v = order[t];
    require(!ready.empty() && ready.begin()->second == v,
            "greedy step " + std::to_string(t) + " runs node " + std::to_string(v) +
                (ready.empty() ? std::string()
                               : " but node " + std::to_string(ready.begin()->second) +
                                     " has gain " + std::to_string(-ready.begin()->first) +
                                     " against " + std::to_string(gain[v])));
    ready.erase(ready.begin());
    done[v] = 1;
    for (NodeId c : g.children(v)) {
      --pending[c];
      if (pending[c] == 0) {
        ready.insert(key(c));
      } else if (pending[c] == 1) {
        // c now waits on one parent p alone: executing p gains c.
        const NodeId p = lastParent(c);
        if (p < n) {
          const bool isReady = pending[p] == 0;
          if (isReady) ready.erase(key(p));
          ++gain[p];
          if (isReady) ready.insert(key(p));
        }
      }
    }
  }
}

void checkProfileDominated(const std::vector<std::size_t>& got,
                           const std::vector<std::size_t>& optimal, const std::string& what) {
  require(got.size() == optimal.size(), what + ": profile lengths differ");
  for (std::size_t t = 0; t < got.size(); ++t) {
    require(got[t] <= optimal[t], what + ": " + std::to_string(got[t]) +
                                      " ELIGIBLE after step " + std::to_string(t) +
                                      " exceeds the IC-optimal " + std::to_string(optimal[t]));
  }
}

std::vector<std::size_t> nonsinkProfile(const Dag& g, const icsched::Schedule& s) {
  std::vector<std::size_t> full = eligibilityReplay(g, s.order());
  std::size_t nonsinks = 0;
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    if (!g.children(v).empty()) ++nonsinks;
  }
  for (std::size_t t = 0; t < nonsinks; ++t) {
    require(!g.children(s.order()[t]).empty(), "chain schedule is not nonsinks-first");
  }
  full.resize(nonsinks + 1);
  return full;
}

bool priorityHolds(const std::vector<std::size_t>& e1, const std::vector<std::size_t>& e2) {
  const std::size_t n1 = e1.size() - 1;
  const std::size_t n2 = e2.size() - 1;
  for (std::size_t x = 0; x <= n1; ++x) {
    for (std::size_t y = 0; y <= n2; ++y) {
      const std::size_t xp = std::min(n1, x + y);
      const std::size_t yp = x + y - xp;
      if (e1[x] + e2[y] > e1[xp] + e2[yp]) return false;
    }
  }
  return true;
}

bool priorityChainHolds(const std::vector<std::vector<std::size_t>>& profiles,
                        const std::vector<std::size_t>& order) {
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (!priorityHolds(profiles.at(order[i]), profiles.at(order[i + 1]))) return false;
  }
  return true;
}

void checkChainVerdict(const std::vector<std::vector<std::size_t>>& profiles,
                       bool paperClaimsChain, const std::string& out, int exitCode,
                       const std::string& what) {
  std::vector<std::size_t> order(profiles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const bool holds = priorityChainHolds(profiles, order);
  require(!paperClaimsChain || holds,
          what + ": the paper's ▷-chain fails the benchmark's own (2.1) check");
  checkIdentical(out, holds ? "PRIORITY-CHAIN\n" : "NOT-A-PRIORITY-CHAIN\n", what + " verdict");
  require(exitCode == (holds ? 0 : 2), what + ": wrong exit code");
}

void checkChainOrder(const std::vector<std::vector<std::size_t>>& profiles,
                     const std::string& out, int exitCode, const std::string& what) {
  require(exitCode == 0, what + ": no ▷-linear order found");
  const std::vector<std::size_t> order = parseOrderLine(out);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  require(sorted.size() == profiles.size(), what + ": order does not name every input");
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    require(sorted[k] == k, what + ": order is not a permutation of the inputs");
  }
  require(priorityChainHolds(profiles, order), what + ": found order is not ▷-linear");
}

std::vector<NodeId> parseScheduleLine(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  in >> word;
  require(word == "schedule", "response is not a schedule line");
  std::vector<NodeId> order;
  unsigned long long v = 0;
  while (in >> v) order.push_back(static_cast<NodeId>(v));
  require(in.eof(), "schedule line has a non-numeric entry");
  return order;
}

std::vector<std::size_t> parseOrderLine(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  in >> word;
  require(word == "order", "chain find response is not an order line: " + text);
  std::vector<std::size_t> order;
  unsigned long long v = 0;
  while (in >> v) order.push_back(static_cast<std::size_t>(v));
  require(in.eof(), "order line has a non-numeric entry");
  return order;
}

MakespanBound makespanBound(const Dag& g, double minTaskDuration, std::size_t clients) {
  MakespanBound b;
  const std::size_t n = g.numNodes();
  const std::size_t longest = longestPathNodes(g);
  b.criticalPath = static_cast<double>(longest) * minTaskDuration;
  b.workOverClients = static_cast<double>(n) * minTaskDuration / static_cast<double>(clients);
  return b;
}

void checkMakespan(double makespan, const MakespanBound& bound, const std::string& what) {
  // A relative slack of 1e-9 absorbs the rounding of summed durations.
  require(makespan >= bound.value() * (1.0 - 1e-9),
          what + ": makespan " + std::to_string(makespan) + " beats the lower bound " +
              std::to_string(bound.value()) + " (critical path " +
              std::to_string(bound.criticalPath) + ", work/clients " +
              std::to_string(bound.workOverClients) + ")");
}

void checkIdentical(const std::string& a, const std::string& b, const std::string& what) {
  if (a == b) return;
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  throw CheckFailure(what + ": outputs differ at byte " + std::to_string(i) + " (" +
                     std::to_string(a.size()) + " vs " + std::to_string(b.size()) + " bytes)");
}

void checkFresh(std::uint8_t responseFlags, std::uint64_t salvaged, const std::string& what) {
  require((responseFlags & icsched::service::kRespFlagIdempotentReplay) == 0,
          what + ": response is an idempotent replay");
  require(salvaged == 0, what + ": " + std::to_string(salvaged) + " replications were salvaged");
}

}  // namespace icsbench
