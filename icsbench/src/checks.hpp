#pragma once
/// \file checks.hpp
/// \brief The benchmark's output checkers. Each recomputes what it checks
/// with the benchmark's own code (pending-count replays, the quadratic form
/// of inequality (2.1)) rather than calling the library, and throws
/// CheckFailure on the first violation.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "core/schedule.hpp"

namespace icsbench {

/// \p order executes every node exactly once, each after all its parents.
void checkLinearExtension(const icsched::Dag& g, const std::vector<icsched::NodeId>& order);

/// ELIGIBLE count after each step: result[t] = eligible nodes once the
/// first t nodes of \p order ran (t = 0..n). Requires a linear extension.
[[nodiscard]] std::vector<std::size_t> eligibilityReplay(const icsched::Dag& g,
                                                         const std::vector<icsched::NodeId>& order);

/// Every step of \p order executes an ELIGIBLE node whose execution renders
/// the most children ELIGIBLE, ties broken to the lowest id (the greedy
/// rule of `schedule greedy`). Bucketed replay, O((V + E) log V).
void checkGreedySteps(const icsched::Dag& g, const std::vector<icsched::NodeId>& order);

/// got[t] <= optimal[t] for every step t (an IC-optimal profile dominates
/// every schedule's profile).
void checkProfileDominated(const std::vector<std::size_t>& got,
                           const std::vector<std::size_t>& optimal, const std::string& what);

/// Nonsinks-first profile E(x), x = 0..numNonsinks, of a schedule (the
/// input of inequality (2.1)).
[[nodiscard]] std::vector<std::size_t> nonsinkProfile(const icsched::Dag& g,
                                                      const icsched::Schedule& s);

/// Inequality (2.1) over all (x, y) pairs: G1 ▷ G2.
[[nodiscard]] bool priorityHolds(const std::vector<std::size_t>& e1,
                                 const std::vector<std::size_t>& e2);

/// G[order[0]] ▷ G[order[1]] ▷ ... over consecutive pairs.
[[nodiscard]] bool priorityChainHolds(const std::vector<std::vector<std::size_t>>& profiles,
                                      const std::vector<std::size_t>& order);

/// A `chain` response: its verdict line and exit code match the
/// benchmark's own (2.1) check over \p profiles in the given order, and a
/// chain the paper claims to be ▷-linear does hold.
void checkChainVerdict(const std::vector<std::vector<std::size_t>>& profiles,
                       bool paperClaimsChain, const std::string& out, int exitCode,
                       const std::string& what);

/// A `chain find` response: a permutation of the inputs that re-verifies as
/// ▷-linear.
void checkChainOrder(const std::vector<std::vector<std::size_t>>& profiles,
                     const std::string& out, int exitCode, const std::string& what);

/// Parses a `schedule v0 v1 ...` line.
[[nodiscard]] std::vector<icsched::NodeId> parseScheduleLine(const std::string& text);

/// Parses an `order i j ...` line of `chain find`.
[[nodiscard]] std::vector<std::size_t> parseOrderLine(const std::string& text);

/// A makespan may not beat the dag's critical path nor its total work
/// spread over every client.
struct MakespanBound {
  double criticalPath = 0.0;
  double workOverClients = 0.0;
  [[nodiscard]] double value() const {
    return criticalPath > workOverClients ? criticalPath : workOverClients;
  }
};
[[nodiscard]] MakespanBound makespanBound(const icsched::Dag& g, double minTaskDuration,
                                          std::size_t clients);
void checkMakespan(double makespan, const MakespanBound& bound, const std::string& what);

/// Byte identity of two encodings of the same outcome.
void checkIdentical(const std::string& a, const std::string& b, const std::string& what);

/// A response carries neither the idempotent-replay flag nor a salvaged
/// replication count.
void checkFresh(std::uint8_t responseFlags, std::uint64_t salvaged, const std::string& what);

}  // namespace icsbench
