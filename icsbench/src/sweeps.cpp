/// \file sweeps.cpp
/// \brief sweep_threads and sweep_shards_faults: rounds of a simulation
/// sweep through BatchRunner, the entry `icsched simulate trials=N` uses,
/// on a thread pool or on forked process shards.

#include <malloc.h>

#include <filesystem>
#include <sstream>

#include "catalogue.hpp"
#include "checks.hpp"
#include "io/dag_io.hpp"
#include "recovery/journal.hpp"
#include "sim/result_codec.hpp"
#include "workloads.hpp"

namespace icsbench {

using icsched::BatchRunner;
using icsched::Replication;
using icsched::ScheduledDag;
using icsched::SweepSpec;

SweepCatalogue buildSweepCatalogue(bool shortMode) {
  const std::vector<std::pair<std::string, std::size_t>> families =
      shortMode ? std::vector<std::pair<std::string, std::size_t>>{{"mesh", 40},
                                                                   {"butterfly", 6},
                                                                   {"prefix", 128}}
                : std::vector<std::pair<std::string, std::size_t>>{{"mesh", 300},
                                                                   {"butterfly", 12},
                                                                   {"prefix", 4096}};
  SweepCatalogue cat;
  std::vector<ScheduledDag> generated;
  const Clock::time_point g0 = Clock::now();
  for (const auto& [family, param] : families) generated.push_back(familyDag(family, param));
  cat.genSeconds = secondsSince(g0);

  std::vector<std::string> texts;
  for (std::size_t i = 0; i < families.size(); ++i) {
    cat.names.push_back(familyName(families[i].first, families[i].second));
    texts.push_back(scheduledText(generated[i]));
    cat.textBytes += texts.back().size();
  }
  const Clock::time_point p0 = Clock::now();
  for (const std::string& text : texts) {
    std::istringstream in(text);
    icsched::Dag g = icsched::readDag(in);
    icsched::Schedule s = icsched::readSchedule(in);
    cat.dags.push_back(ScheduledDag{std::move(g), std::move(s)});
  }
  cat.parseSeconds = secondsSince(p0);
  for (std::size_t i = 0; i < families.size(); ++i) {
    require(cat.dags[i].dag == generated[i].dag &&
                cat.dags[i].schedule.order() == generated[i].schedule.order(),
            cat.names[i] + ": parsed text differs from the generated dag");
  }
  return cat;
}

SweepSpec makeSweepSpec(const SweepCatalogue& cat, bool faulty, std::uint64_t firstSeed,
                        std::size_t seedsPerRound) {
  SweepSpec spec;
  for (std::size_t i = 0; i < cat.dags.size(); ++i) {
    spec.dags.push_back({cat.names[i], &cat.dags[i].dag, &cat.dags[i].schedule});
  }
  spec.schedulers = icsched::allSchedulerNames();
  spec.seeds = icsched::seedRange(firstSeed, seedsPerRound);
  spec.base.numClients = kSweepClients;
  if (faulty) {
    // The full fault model of the README's resilience examples.
    icsched::FaultModelConfig f;
    f.clientDepartureRate = 0.05;
    f.clientRejoinRate = 0.5;
    f.minAliveClients = 2;
    f.taskTimeout = 6.0;
    f.stragglerProbability = 0.15;
    f.stragglerSlowdown = 6.0;
    f.speculationFactor = 1.5;
    f.transientFailureProbability = 0.1;
    f.permanentFailureProbability = 0.02;
    f.maxAttempts = 5;
    f.backoffBase = 0.1;
    f.backoffCap = 2.0;
    spec.faultCases = {{"full", f}};
    icsched::CostModelConfig mem;
    mem.kind = icsched::CostModelKind::Memory;
    mem.memCapacity = 4;
    mem.memFetchCost = 0.5;
    spec.costCases = {{"memory", mem}};
  }
  return spec;
}

icsched::SimulationConfig replicationConfig(const SweepSpec& spec, const Replication& rep) {
  icsched::SimulationConfig cfg = spec.base;
  cfg.seed = spec.seeds[rep.seedIndex];
  cfg.faults = spec.faultCases[rep.faultIndex].faults;
  cfg.costModel = spec.costCases[rep.costIndex].cost;
  return cfg;
}

namespace {

std::string encodeResult(const icsched::SimulationResult& r) {
  icsched::recovery::ByteWriter w;
  icsched::writeResult(w, r);
  return w.take();
}

/// Totals of one measured loop.
struct LoopTotals {
  double wallSeconds = 0.0;
  std::uint64_t replications = 0;
  std::uint64_t tasks = 0;
  std::size_t rounds = 0;
  /// Wall time and CPU time of each round: one sweep call, what a caller
  /// waits for. Every round simulates the same number of tasks.
  std::vector<double> roundMs;
  std::vector<double> roundCpuSeconds;

  LoopTotals& operator+=(const LoopTotals& o) {
    roundMs.insert(roundMs.end(), o.roundMs.begin(), o.roundMs.end());
    roundCpuSeconds.insert(roundCpuSeconds.end(), o.roundCpuSeconds.begin(),
                           o.roundCpuSeconds.end());
    wallSeconds += o.wallSeconds;
    replications += o.replications;
    tasks += o.tasks;
    rounds += o.rounds;
    return *this;
  }
};

class SweepLoop {
 public:
  SweepLoop(const Options& opt, bool sharded, const SweepCatalogue& cat)
      : opt_(opt), sharded_(sharded), cat_(cat), rng_(opt.seed * 0x9E3779B97F4A7C15ull + 17) {
    for (const ScheduledDag& sd : cat.dags) {
      bounds_.push_back(makespanBound(sd.dag, kMinTaskDuration, kSweepClients));
    }
  }

  /// Runs whole rounds until \p seconds of measured time have passed (at
  /// least \p minRounds rounds).
  LoopTotals run(double seconds, std::size_t minRounds, Tracer& tracer) {
    LoopTotals t;
    while (t.wallSeconds < seconds || t.rounds < minRounds) {
      oneRound(t, tracer);
      // Hand the round's freed results back to the kernel, so the next
      // round's forked shards do not inherit (and count) stale heap pages.
      malloc_trim(0);
    }
    return t;
  }

 private:
  void oneRound(LoopTotals& t, Tracer& tracer) {
    const std::size_t seedsPerRound = opt_.shortMode || sharded_ ? 1 : 2;
    const SweepSpec spec =
        makeSweepSpec(cat_, sharded_, opt_.seed * 1000003 + nextSeed_, seedsPerRound);
    nextSeed_ += seedsPerRound;
    const SpanGuard round(tracer, "round", ++roundId_);
    const std::string shardDir = opt_.workDir + "/shards-" + std::to_string(roundId_);
    require(!std::filesystem::exists(shardDir), "shard directory exists before its round");

    std::vector<Replication> reps;
    const double cpu0 = cpuSecondsWithChildren();
    const Clock::time_point w0 = Clock::now();
    if (sharded_) {
      const SpanGuard s(tracer, "sim.batch_runner.runSharded");
      icsched::ShardOptions so;
      so.procs = opt_.workers;
      so.journalDir = shardDir;
      reps = BatchRunner(1).runSharded(spec, so);
    } else {
      const SpanGuard s(tracer, "sim.batch_runner.run");
      reps = BatchRunner(opt_.workers).run(spec);
    }
    const double wall = secondsSince(w0);
    t.wallSeconds += wall;
    t.roundMs.push_back(wall * 1e3);
    t.roundCpuSeconds.push_back(cpuSecondsWithChildren() - cpu0);
    ++t.rounds;

    const SpanGuard checks(tracer, "check");
    require(reps.size() == spec.numReplications(), "sweep returned a short result vector");
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const Replication& rep = reps[i];
      require(rep.index == i, "replication out of order");
      checkMakespan(rep.result.makespan, bounds_[rep.dagIndex],
                    cat_.names[rep.dagIndex] + " " + spec.schedulers[rep.schedulerIndex]);
      t.tasks += cat_.dags[rep.dagIndex].dag.numNodes();
    }
    t.replications += reps.size();
    if (sharded_) checkShardJournals(shardDir, reps.size());

    // Determinism: one seeded replication per round, re-run serially in one
    // engine, must match the pooled / sharded bytes exactly.
    const Replication& rep = reps[pickIndex(rng_, reps.size())];
    const SpanGuard serial(tracer, "sim.engine.runWith");
    const ScheduledDag& sd = cat_.dags[rep.dagIndex];
    const icsched::SimulationResult again = engine_.runWith(
        sd.dag, sd.schedule, spec.schedulers[rep.schedulerIndex], replicationConfig(spec, rep));
    checkIdentical(encodeResult(rep.result), encodeResult(again),
                   std::string(sharded_ ? "sharded" : "pooled") + " vs serial replication " +
                       std::to_string(rep.index));
  }

  /// Nothing salvaged: the shard directory was new, and each shard journal
  /// holds exactly its share of the replications.
  void checkShardJournals(const std::string& dir, std::size_t total) {
    std::size_t records = 0;
    for (std::size_t rank = 0; rank < opt_.workers; ++rank) {
      const std::string path = icsched::shardJournalPath(dir, opt_.workers, rank);
      const icsched::recovery::JournalContents c =
          icsched::recovery::readJournal(path, icsched::recovery::JournalReadMode::Strict);
      const std::size_t share = total / opt_.workers + (rank < total % opt_.workers ? 1 : 0);
      require(c.records.size() == share, "shard " + std::to_string(rank) + " journal holds " +
                                             std::to_string(c.records.size()) +
                                             " records, expected " + std::to_string(share));
      records += c.records.size();
    }
    require(records == total, "shard journals do not cover the sweep");
    std::filesystem::remove_all(dir);
  }

  const Options& opt_;
  bool sharded_;
  const SweepCatalogue& cat_;
  Rng rng_;
  std::vector<MakespanBound> bounds_;
  icsched::SimulationEngine engine_;
  std::uint64_t nextSeed_ = 0;
  std::uint64_t roundId_ = 0;
};

}  // namespace

RunResult runSweepWorkload(const Options& opt, bool sharded) {
  RunResult out;
  // Set-up: generate the dags and parse their text, as a CLI user pays it.
  std::vector<double> setups;
  SweepCatalogue cat;
  for (int i = 0; i < (opt.shortMode ? 1 : 7); ++i) {
    const Clock::time_point s0 = Clock::now();
    cat = buildSweepCatalogue(opt.shortMode);
    setups.push_back(secondsSince(s0));
  }
  SweepLoop loop(opt, sharded, cat);
  const std::size_t minRounds = opt.shortMode ? 2 : 5;

  if (!opt.trace) {
    Tracer off(false);
    const LoopTotals t = loop.run(opt.seconds, minRounds, off);
    out.attempted = t.replications;
    out.metrics.push_back({"setup_s", "s", median(setups)});
    out.metrics.push_back({"peak_rss_mb", "MB", peakRssMb()});
    // Throughput and CPU cost from the faster quarter of rounds (all rounds
    // simulate the same task count): on a shared host, bursts of load from
    // other tenants slow some rounds, and the lower quartile stays clear of
    // them while still moving with any change to the program.
    const double tasksPerRound = static_cast<double>(t.tasks) / static_cast<double>(t.rounds);
    const double tasksPerSecond = tasksPerRound / (percentile(t.roundMs, 0.25) * 1e-3);
    const double cpuPerTask = percentile(t.roundCpuSeconds, 0.25) * 1e6 / tasksPerRound;
    out.metrics.push_back({"ops_per_s", "1/s", tasksPerSecond});
    out.metrics.push_back({"cpu_us_per_op", "us", cpuPerTask});
    out.metrics.push_back({"op_p50_ms", "ms", median(t.roundMs)});
    out.details = {{"sim_tasks_per_s", "1/s", tasksPerSecond},
                   {"sim_cpu_us_per_task", "us", cpuPerTask},
                   {"sim_tasks_per_s_mean", "1/s", static_cast<double>(t.tasks) / t.wallSeconds}};
    out.notes.push_back("round_ms p10 " + std::to_string(percentile(t.roundMs, 0.1)) + " p25 " +
                        std::to_string(percentile(t.roundMs, 0.25)) + " p50 " +
                        std::to_string(median(t.roundMs)) + " p75 " +
                        std::to_string(percentile(t.roundMs, 0.75)) + " p90 " +
                        std::to_string(percentile(t.roundMs, 0.9)));
    out.notes.push_back("rounds=" + std::to_string(t.rounds) +
                        " replications=" + std::to_string(t.replications) +
                        " measured_s=" + std::to_string(t.wallSeconds));
    return out;
  }

  // Traced run: after a warm-up round, untraced and traced rounds alternate
  // (so drift hits both alike); then the layer probes.
  Tracer off(false);
  Tracer tracer(true);
  out.attempted = loop.run(0.0, 1, off).replications;
  LoopTotals plain;
  LoopTotals traced;
  while (plain.wallSeconds + traced.wallSeconds < (opt.shortMode ? 0.0 : opt.seconds * 0.4) ||
         traced.rounds == 0) {
    plain += loop.run(0.0, 1, off);
    traced += loop.run(0.0, 1, tracer);
  }
  out.attempted += plain.replications + traced.replications;
  const double plainRate = static_cast<double>(plain.tasks) / plain.wallSeconds;
  const double tracedRate = static_cast<double>(traced.tasks) / traced.wallSeconds;
  probeLayers(opt, out);

  // Share of the measured sweep time the engine probe explains: tasks x
  // events/task x ns/event (the mean over schedulers fault-free, the faulty
  // memory-model run otherwise), spread over the workers.
  double nsPerEvent = 0.0;
  if (sharded) {
    nsPerEvent = metricValue(out, "sim.engine.ns_per_event.faulty");
  } else {
    for (const std::string& s : icsched::allSchedulerNames()) {
      nsPerEvent += metricValue(out, "sim.engine.ns_per_event." + s);
    }
    nsPerEvent /= static_cast<double>(icsched::allSchedulerNames().size());
  }
  const double eventsPerTask = metricValue(
      out, sharded ? "sim.engine.events_per_task.faulty" : "sim.engine.events_per_task.fault_free");
  const double explained = static_cast<double>(traced.tasks) * eventsPerTask * nsPerEvent * 1e-9 /
                           static_cast<double>(opt.workers);
  out.metrics.push_back({"trace.overhead_share", "ratio", (plainRate - tracedRate) / plainRate});
  out.metrics.push_back({"trace.layer_share", "ratio", explained / traced.wallSeconds});
  for (const auto& [name, self] : tracer.selfSeconds()) {
    out.notes.push_back("self_s " + name + " " + std::to_string(self));
  }
  out.spansJson = tracer.toJson();
  return out;
}

}  // namespace icsbench
