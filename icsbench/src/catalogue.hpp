#pragma once
/// \file catalogue.hpp
/// \brief The benchmark's inputs: paper dags with their IC-optimal
/// schedules, seeded node-id permutations, and their text forms.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "core/priority.hpp"
#include "core/schedule.hpp"

namespace icsbench {

/// The benchmark's own RNG: a fixed engine whose stream the C++ standard
/// pins, so one --seed gives the same inputs everywhere.
using Rng = std::mt19937_64;

/// Uniform index in [0, n) from the raw engine output.
[[nodiscard]] inline std::size_t pickIndex(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

/// A paper dag by family name and size parameter:
///   mesh D       outMesh(D)            (D(D+1)/2 nodes)
///   butterfly K  butterfly(K)          ((K+1) 2^K nodes)
///   prefix N     prefixDag(N)
///   dlt N        dltPrefixDag(N)       (N a power of two)
/// with the family's IC-optimal schedule.
[[nodiscard]] icsched::ScheduledDag familyDag(const std::string& family, std::size_t param);

/// "mesh-192" style name.
[[nodiscard]] std::string familyName(const std::string& family, std::size_t param);

/// A uniformly random permutation of 0..n-1 (Fisher-Yates on the raw engine
/// output).
[[nodiscard]] std::vector<icsched::NodeId> randomPermutation(std::size_t n, Rng& rng);

/// The same dag and schedule with node v renamed perm[v]. Labels are dropped.
[[nodiscard]] icsched::ScheduledDag relabel(const icsched::ScheduledDag& sd,
                                            const std::vector<icsched::NodeId>& perm);

/// Number of nodes on the longest source-to-sink path, computed by the
/// benchmark's own Kahn traversal.
[[nodiscard]] std::size_t longestPathNodes(const icsched::Dag& g);

/// Text of a dag followed by its schedule (the CLI's stdin for `simulate`,
/// `chain` and friends); dagOnlyText for `schedule`.
[[nodiscard]] std::string scheduledText(const icsched::ScheduledDag& sd);
[[nodiscard]] std::string dagOnlyText(const icsched::Dag& g);

}  // namespace icsbench
