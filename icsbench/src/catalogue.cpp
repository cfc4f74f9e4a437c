#include "catalogue.hpp"

#include <algorithm>
#include <stdexcept>

#include "families/butterfly.hpp"
#include "families/dlt.hpp"
#include "families/mesh.hpp"
#include "families/prefix.hpp"
#include "io/dag_io.hpp"

namespace icsbench {

using icsched::Dag;
using icsched::NodeId;
using icsched::ScheduledDag;

ScheduledDag familyDag(const std::string& family, std::size_t param) {
  if (family == "mesh") return icsched::outMesh(param);
  if (family == "butterfly") return icsched::butterfly(param);
  if (family == "prefix") return icsched::prefixDag(param);
  if (family == "dlt") return icsched::dltPrefixDag(param).composite;
  throw std::invalid_argument("icsbench: unknown family '" + family + "'");
}

std::string familyName(const std::string& family, std::size_t param) {
  return family + "-" + std::to_string(param);
}

std::vector<NodeId> randomPermutation(std::size_t n, Rng& rng) {
  std::vector<NodeId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[pickIndex(rng, i)]);
  return perm;
}

ScheduledDag relabel(const ScheduledDag& sd, const std::vector<NodeId>& perm) {
  const Dag& g = sd.dag;
  icsched::DagBuilder b(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId c : g.children(u)) b.addArc(perm[u], perm[c]);
  }
  std::vector<NodeId> order;
  order.reserve(sd.schedule.size());
  for (NodeId v : sd.schedule.order()) order.push_back(perm[v]);
  return ScheduledDag{b.freeze(), icsched::Schedule(std::move(order))};
}

std::size_t longestPathNodes(const Dag& g) {
  const std::size_t n = g.numNodes();
  std::vector<std::size_t> pending(n);
  std::vector<std::size_t> depth(n, 1);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = g.parents(v).size();
    if (pending[v] == 0) ready.push_back(v);
  }
  std::size_t best = 0;
  std::size_t seen = 0;
  while (!ready.empty()) {
    const NodeId u = ready.back();
    ready.pop_back();
    ++seen;
    best = std::max(best, depth[u]);
    for (NodeId c : g.children(u)) {
      depth[c] = std::max(depth[c], depth[u] + 1);
      if (--pending[c] == 0) ready.push_back(c);
    }
  }
  if (seen != n) throw std::logic_error("icsbench: dag has a cycle");
  return best;
}

std::string scheduledText(const ScheduledDag& sd) {
  return icsched::dagToString(sd.dag) + icsched::scheduleToString(sd.schedule);
}

std::string dagOnlyText(const Dag& g) { return icsched::dagToString(g); }

}  // namespace icsbench
