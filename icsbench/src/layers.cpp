/// \file layers.cpp
/// \brief The per-layer probe suite of the traced run: spans around the
/// benchmark's own calls into each layer's public functions, on fixed
/// seeded inputs. Every probe reports a median of repeats.

#include <functional>
#include <memory>

#include "approx/heuristics.hpp"
#include "catalogue.hpp"
#include "checks.hpp"
#include "core/eligibility.hpp"
#include "core/linear_composition.hpp"
#include "core/simd_dispatch.hpp"
#include "families/mesh.hpp"
#include "recovery/journal.hpp"
#include "resilience/portable_random.hpp"
#include "service/schedule_cache.hpp"
#include "sim/event_heap.hpp"
#include "sim/result_codec.hpp"
#include "workloads.hpp"

namespace icsbench {

using icsched::NodeId;
using icsched::ScheduledDag;

namespace {

/// Median seconds of \p reps calls of \p f.
template <class F>
double medianSeconds(int reps, F&& f) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    f();
    s.push_back(secondsSince(t0));
  }
  return median(s);
}

void probeIo(const Options& opt, RunResult& out) {
  std::vector<double> gen;
  std::vector<double> parse;
  std::size_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const SweepCatalogue cat = buildSweepCatalogue(opt.shortMode);
    gen.push_back(cat.genSeconds);
    parse.push_back(cat.parseSeconds);
    bytes = cat.textBytes;
  }
  out.metrics.push_back({"families.gen_ms", "ms", median(gen) * 1e3});
  out.metrics.push_back({"io.read_dag_ms", "ms", median(parse) * 1e3});
  out.metrics.push_back(
      {"io.read_mb_per_s", "MB/s", static_cast<double>(bytes) / 1e6 / median(parse)});
}

void probeEligibility(const ScheduledDag& sd, RunResult& out) {
  icsched::EligibilityTracker tracker(sd.dag);
  std::vector<NodeId> packet;
  std::size_t sink = 0;
  const double s = medianSeconds(7, [&] {
    tracker.reset();
    for (NodeId v : sd.schedule.order()) {
      tracker.executeInto(v, packet);
      sink += packet.size();
    }
  });
  require(sink > 0, "eligibility replay produced no packets");
  out.metrics.push_back({"core.eligibility.execute_into_ns", "ns",
                         s * 1e9 / static_cast<double>(sd.dag.numNodes())});
}

/// Each scheduler alone: the onEligible/pick call sequence of one serial
/// execution is logged, then replayed into a fresh scheduler under the
/// clock (its picks must repeat exactly).
void probeSchedulers(const ScheduledDag& sd, std::uint64_t seed, RunResult& out) {
  const icsched::Dag& g = sd.dag;
  for (const std::string& name : icsched::allSchedulerNames()) {
    std::vector<std::int64_t> ops;  // -1 = pick(), else onEligible(v)
    std::vector<NodeId> picks;
    {
      auto sched = icsched::makeScheduler(name, g, sd.schedule, seed);
      icsched::EligibilityTracker tracker(g);
      std::vector<NodeId> packet;
      for (NodeId v : tracker.eligibleNodes()) {
        sched->onEligible(v);
        ops.push_back(v);
      }
      while (sched->hasWork()) {
        const NodeId v = sched->pick();
        ops.push_back(-1);
        picks.push_back(v);
        tracker.executeInto(v, packet);
        for (NodeId c : packet) {
          sched->onEligible(c);
          ops.push_back(c);
        }
      }
      require(picks.size() == g.numNodes(), name + " did not pick every node");
    }
    std::vector<NodeId> again;
    again.reserve(picks.size());
    const double s = medianSeconds(5, [&] {
      again.clear();
      auto sched = icsched::makeScheduler(name, g, sd.schedule, seed);
      for (std::int64_t op : ops) {
        if (op < 0) {
          again.push_back(sched->pick());
        } else {
          sched->onEligible(static_cast<NodeId>(op));
        }
      }
    });
    require(again == picks, name + " replayed a different pick sequence");
    out.metrics.push_back({"sim.scheduler.pick_ns." + name, "ns",
                           s * 1e9 / static_cast<double>(picks.size())});
  }
}

void probeEventHeap(std::uint64_t seed, RunResult& out) {
  icsched::EventHeap heap;
  Rng rng(seed);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < kSweepClients; ++i) {
    heap.push({static_cast<double>(rng() % 1000) * 1e-3, seq++, 0, i});
  }
  constexpr std::size_t kOps = 1u << 20;
  double sink = 0.0;
  const double s = medianSeconds(5, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const icsched::SimEvent top = heap.top();
      heap.pop();
      sink += top.time;
      heap.push({top.time + static_cast<double>(rng() % 1000) * 1e-3, seq++, 0, top.id});
    }
  });
  require(sink > 0.0, "event heap probe saw no events");
  out.metrics.push_back({"sim.event_heap.push_pop_ns", "ns", s * 1e9 / kOps});
}

/// Events and seconds of one serial stepped engine run.
struct EngineRun {
  double seconds = 0.0;
  double events = 0.0;
  [[nodiscard]] double nsPerEvent() const { return seconds * 1e9 / events; }
};

EngineRun engineRun(const ScheduledDag& sd, const std::string& scheduler,
                    const icsched::SimulationConfig& cfg) {
  icsched::SimulationEngine engine;
  std::vector<double> secs;
  EngineRun r;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    engine.beginWith(sd.dag, sd.schedule, scheduler, cfg);
    while (!engine.step(static_cast<std::size_t>(-1))) {
    }
    r.events = static_cast<double>(engine.eventsProcessed());
    const icsched::SimulationResult res = engine.takeResult();
    secs.push_back(secondsSince(t0));
    require(res.makespan > 0.0, "engine run produced no makespan");
  }
  r.seconds = median(secs);
  return r;
}

void probeEngine(const SweepCatalogue& cat, std::uint64_t seed, RunResult& out) {
  const ScheduledDag& sd = cat.dags.front();  // the mesh
  const double n = static_cast<double>(sd.dag.numNodes());
  const icsched::SweepSpec plain = makeSweepSpec(cat, false, seed, 1);
  const icsched::SweepSpec faulty = makeSweepSpec(cat, true, seed, 1);
  icsched::SimulationConfig cfg = plain.base;
  cfg.seed = seed;

  double eventsPlain = 0.0;
  for (const std::string& s : icsched::allSchedulerNames()) {
    const EngineRun r = engineRun(sd, s, cfg);
    eventsPlain += r.events;
    out.metrics.push_back({"sim.engine.ns_per_event." + s, "ns", r.nsPerEvent()});
  }
  const double schedulers = static_cast<double>(icsched::allSchedulerNames().size());
  out.metrics.push_back(
      {"sim.engine.events_per_task.fault_free", "count", eventsPlain / schedulers / n});

  icsched::SimulationConfig faultCfg = cfg;
  faultCfg.faults = faulty.faultCases.front().faults;
  faultCfg.costModel = faulty.costCases.front().cost;
  double eventsFaulty = 0.0;
  for (const std::string& s : icsched::allSchedulerNames()) {
    eventsFaulty += engineRun(sd, s, faultCfg).events;
  }
  out.metrics.push_back(
      {"sim.engine.events_per_task.faulty", "count", eventsFaulty / schedulers / n});
  out.metrics.push_back({"sim.engine.ns_per_event.faulty", "ns",
                         engineRun(sd, "IC-OPT", faultCfg).nsPerEvent()});

  const EngineRun latency = engineRun(sd, "IC-OPT", cfg);
  icsched::SimulationConfig mem = cfg;
  mem.costModel = faulty.costCases.front().cost;
  icsched::SimulationConfig bsp = cfg;
  bsp.costModel.kind = icsched::CostModelKind::Bsp;
  icsched::SimulationConfig faults = cfg;
  faults.faults = faulty.faultCases.front().faults;
  out.metrics.push_back({"sim.cost_model.ns_per_event_delta.memory", "ns",
                         engineRun(sd, "IC-OPT", mem).nsPerEvent() - latency.nsPerEvent()});
  out.metrics.push_back({"sim.cost_model.ns_per_event_delta.bsp", "ns",
                         engineRun(sd, "IC-OPT", bsp).nsPerEvent() - latency.nsPerEvent()});
  out.metrics.push_back({"sim.fault_model.ns_per_event_delta", "ns",
                         engineRun(sd, "IC-OPT", faults).nsPerEvent() - latency.nsPerEvent()});
}

void probeRng(std::uint64_t seed, RunResult& out) {
  constexpr std::size_t kDraws = 1u << 22;
  double sink = 0.0;
  std::mt19937_64 portable(seed);
  icsched::FastRand fast(seed);
  const double p = medianSeconds(5, [&] {
    for (std::size_t i = 0; i < kDraws; ++i) sink += icsched::portableUnit(portable);
  });
  const double f = medianSeconds(5, [&] {
    for (std::size_t i = 0; i < kDraws; ++i) sink += icsched::portableUnit(fast);
  });
  require(sink > 0.0, "rng probe drew nothing");
  out.metrics.push_back({"resilience.rng_draw_ns.portable", "ns", p * 1e9 / kDraws});
  out.metrics.push_back({"resilience.rng_draw_ns.fast", "ns", f * 1e9 / kDraws});
}

/// Pool and shard scaling against the serial BatchRunner on the same spec,
/// then the codec and journal on the replications it produced.
void probeBatch(const Options& opt, const SweepCatalogue& cat, RunResult& out) {
  const double workers = static_cast<double>(opt.workers);
  // The mesh alone, two seeds: twelve replications, three per worker.
  icsched::SweepSpec plain = makeSweepSpec(cat, false, opt.seed, 2);
  icsched::SweepSpec faulty = makeSweepSpec(cat, true, opt.seed, 2);
  plain.dags.resize(1);
  faulty.dags.resize(1);
  std::vector<icsched::Replication> reps;
  const double serial = medianSeconds(1, [&] { reps = icsched::BatchRunner(1).run(plain); });
  const double pooled =
      medianSeconds(3, [&] { (void)icsched::BatchRunner(opt.workers).run(plain); });
  out.metrics.push_back(
      {"sim.batch_runner.pool_efficiency", "ratio", serial / (workers * pooled)});

  const double serialFaulty = medianSeconds(1, [&] { (void)icsched::BatchRunner(1).run(faulty); });
  const double pooledFaulty =
      medianSeconds(3, [&] { (void)icsched::BatchRunner(opt.workers).run(faulty); });
  int shardRun = 0;
  const double sharded = medianSeconds(3, [&] {
    icsched::ShardOptions so;
    so.procs = opt.workers;
    so.journalDir = opt.workDir + "/probe-shards-" + std::to_string(++shardRun);
    (void)icsched::BatchRunner(1).runSharded(faulty, so);
  });
  out.metrics.push_back(
      {"sim.batch_runner.shard_efficiency", "ratio", serialFaulty / (workers * sharded)});
  out.metrics.push_back({"sim.batch_runner.shard_overhead_s", "s", sharded - pooledFaulty});

  std::vector<std::string> encoded(reps.size());
  const double enc = medianSeconds(5, [&] {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      icsched::recovery::ByteWriter w;
      icsched::writeResult(w, reps[i].result);
      encoded[i] = w.take();
    }
  });
  out.metrics.push_back(
      {"sim.result_codec.encode_ns", "ns", enc * 1e9 / static_cast<double>(reps.size())});

  std::vector<double> append;
  std::vector<double> sync;
  for (int i = 0; i < 5; ++i) {
    icsched::recovery::JournalWriter w;
    w.open(opt.workDir + "/probe-" + std::to_string(i) + ".icsjrnl", 0x1C5BE7C4ull, 0);
    const Clock::time_point a0 = Clock::now();
    for (const std::string& rec : encoded) w.append(rec);
    append.push_back(secondsSince(a0) / static_cast<double>(encoded.size()));
    const Clock::time_point s0 = Clock::now();
    w.sync();
    sync.push_back(secondsSince(s0));
    w.close();
  }
  out.metrics.push_back({"recovery.journal.append_us", "us", median(append) * 1e6});
  out.metrics.push_back({"recovery.journal.sync_ms", "ms", median(sync) * 1e3});
}

void probeSynthesis(RunResult& out) {
  for (std::size_t d : {48, 96, 192}) {
    const ScheduledDag sd = familyDag("mesh", d);
    icsched::Schedule s;
    const double secs = medianSeconds(d == 192 ? 1 : 3,
                                      [&] { s = icsched::greedyEligibleSchedule(sd.dag); });
    checkGreedySteps(sd.dag, s.order());
    out.metrics.push_back({"approx.greedy_ms.mesh" + std::to_string(d), "ms", secs * 1e3});
  }
  const ScheduledDag small = familyDag("mesh", 9);
  icsched::Schedule beam;
  const double b = medianSeconds(5, [&] { beam = icsched::beamSearchSchedule(small.dag, 32); });
  checkLinearExtension(small.dag, beam.order());
  out.metrics.push_back({"approx.beam_ms", "ms", b * 1e3});

  const ScheduledDag mesh192 = familyDag("mesh", 192);
  icsched::service::DagDigest digest;
  const double dg =
      medianSeconds(5, [&] { digest = icsched::service::structuralDigest(mesh192.dag); });
  require(digest.lo != 0 || digest.hi != 0, "structural digest is zero");
  out.metrics.push_back({"service.structural_digest_ms", "ms", dg * 1e3});
}

void probeChains(RunResult& out) {
  const std::vector<ScheduledDag> chain = icsched::meshWDagChain(192);
  std::unique_ptr<icsched::LinearCompositionBuilder> builder;
  const double build = medianSeconds(3, [&] {
    builder = std::make_unique<icsched::LinearCompositionBuilder>(chain.front());
    for (std::size_t i = 1; i < chain.size(); ++i) builder->appendFullMerge(chain[i]);
    (void)builder->build();
  });
  out.metrics.push_back({"core.linear_composition.build_ms", "ms", build * 1e3});

  const std::pair<const char*, icsched::SimdTier> tiers[] = {
      {"scalar", icsched::SimdTier::Scalar},
      {"avx2", icsched::SimdTier::Avx2},
      {"avx512", icsched::SimdTier::Avx512}};
  for (const auto& [name, tier] : tiers) {
    const bool supported = tier == icsched::SimdTier::Scalar ||
                           (tier == icsched::SimdTier::Avx2 && icsched::cpuSupportsAvx2()) ||
                           (tier == icsched::SimdTier::Avx512 && icsched::cpuSupportsAvx512());
    double ms = 0.0;  // 0 marks a tier this CPU cannot run
    if (supported) {
      const icsched::ScopedSimdTier forced(tier);
      constexpr int kVerifies = 20;
      const double s = medianSeconds(5, [&] {
        for (int i = 0; i < kVerifies; ++i) {
          require(builder->verifyPriorityChain(), "mesh W chain is not ▷-linear");
        }
      });
      ms = s * 1e3 / kVerifies;
    }
    out.metrics.push_back({std::string("core.priority.verify_ms.") + name, "ms", ms});
  }
}

}  // namespace

void probeLayers(const Options& opt, RunResult& out) {
  Tracer tracer(true);
  const SweepCatalogue cat = buildSweepCatalogue(opt.shortMode);
  const ScheduledDag& mesh = cat.dags.front();
  const std::pair<const char*, std::function<void()>> probes[] = {
      {"probe.io", [&] { probeIo(opt, out); }},
      {"probe.eligibility", [&] { probeEligibility(mesh, out); }},
      {"probe.scheduler", [&] { probeSchedulers(mesh, opt.seed, out); }},
      {"probe.event_heap", [&] { probeEventHeap(opt.seed, out); }},
      {"probe.engine", [&] { probeEngine(cat, opt.seed, out); }},
      {"probe.rng", [&] { probeRng(opt.seed, out); }},
      {"probe.batch_runner", [&] { probeBatch(opt, cat, out); }},
      {"probe.synthesis", [&] { probeSynthesis(out); }},
      {"probe.chains", [&] { probeChains(out); }},
      {"probe.service", [&] { probeService(opt, out); }},
  };
  for (const auto& [name, probe] : probes) {
    const SpanGuard span(tracer, name);
    probe();
  }
  for (const auto& [name, self] : tracer.selfSeconds()) {
    out.notes.push_back("probe_s " + name + " " + std::to_string(self));
  }
}

}  // namespace icsbench
