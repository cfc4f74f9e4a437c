/// \file service_mix.cpp
/// \brief service_mix: an icsched_serve daemon on a Unix socket with a
/// persistent schedule-cache file, driven by a closed loop over one
/// connection (the caller waits for each reply before sending the next).

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "catalogue.hpp"
#include "checks.hpp"
#include "families/dlt.hpp"
#include "families/mesh.hpp"
#include "io/cli.hpp"
#include "service/client.hpp"
#include "service/persistent_cache.hpp"
#include "service/request_handler.hpp"
#include "workloads.hpp"

namespace icsbench {

namespace svc = icsched::service;
using icsched::NodeId;
using icsched::ScheduledDag;

namespace {

constexpr int kCallTimeoutMillis = 120000;
/// Schedule-cache capacity: above the hot set plus every cold insert a run
/// can make (kMaxRounds x colds per round), so nothing is evicted, every
/// repeat is a hit and every first-seen dag a miss.
constexpr std::size_t kCacheCapacity = 2048;
constexpr std::size_t kMaxRounds = 100;

enum class Kind { Hit, Cold, Beam, Chain, ChainFind, Simulate };
constexpr int kKinds = 6;

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Hit: return "hit";
    case Kind::Cold: return "cold";
    case Kind::Beam: return "beam";
    case Kind::Chain: return "chain";
    case Kind::ChainFind: return "chain_find";
    case Kind::Simulate: return "simulate";
  }
  return "?";
}

/// A dag a synthesis request is about: relabeled, with the family's
/// IC-optimal schedule under the same relabeling.
struct Shape {
  std::string name;
  ScheduledDag sd;
};

/// A ▷-chain request's constituents in request order.
struct ChainInput {
  std::string name;
  std::vector<ScheduledDag> parts;
  /// The paper claims this order is ▷-linear.
  bool paperClaimsChain = false;
};

struct Request {
  Kind kind = Kind::Cold;
  svc::RequestPayload payload;
  std::shared_ptr<const Shape> shape;
  std::shared_ptr<const ChainInput> chain;
  /// Hits: index of the hot entry they repeat.
  std::size_t hot = 0;
};

struct Sample {
  double ms = 0.0;
  svc::ResponsePayload response;
  std::uint64_t salvaged = 0;
};

/// The traffic mix. Sizes are (family, parameter) pairs.
struct MixSpec {
  std::vector<std::pair<std::string, std::size_t>> hot;
  std::vector<std::pair<std::string, std::size_t>> cold;
  std::size_t hitsPerRound = 0;
  std::vector<std::pair<std::string, std::size_t>> beam;
  std::size_t chainDiagonals = 0;
  std::size_t dltChainInputs = 0;
  std::size_t simulateDiagonals = 0;
  std::size_t simulateTrials = 0;
  std::size_t minRounds = 0;
};

MixSpec mixSpec(bool shortMode) {
  MixSpec m;
  if (shortMode) {
    m.hot = {{"mesh", 24}, {"butterfly", 4}};
    m.cold = {{"mesh", 24}, {"butterfly", 4}, {"prefix", 32}};
    m.hitsPerRound = 6;
    m.beam = {{"mesh", 6}};
    m.chainDiagonals = 6;
    m.dltChainInputs = 8;
    m.simulateDiagonals = 12;
    m.simulateTrials = 3;
    m.minRounds = 2;
  } else {
    // Hits: one mesh-192 (643 KB of text) among eight dags of ~5k nodes
    // (~150 KB), so the hit median sits inside one size class and the p99
    // inside the mesh-192 class.
    m.hot = {{"mesh", 192},    {"mesh", 96},      {"mesh", 96},     {"butterfly", 9},
             {"butterfly", 9}, {"prefix", 512},   {"prefix", 512},  {"dlt", 512},
             {"dlt", 512}};
    // Colds by cost: one id-permuted mesh-192 (the slowest synthesis) per
    // sixteen, so the cold p90 falls among the next-largest dags.
    m.cold = {{"mesh", 192},    {"prefix", 512},  {"mesh", 96},     {"mesh", 96},
              {"dlt", 256},     {"dlt", 256},     {"butterfly", 8}, {"butterfly", 8},
              {"mesh", 64},     {"mesh", 64},     {"mesh", 48},     {"mesh", 48},
              {"mesh", 48},     {"butterfly", 7}, {"butterfly", 7}, {"butterfly", 7}};
    m.hitsPerRound = 153;
    m.beam = {{"mesh", 9}, {"butterfly", 3}};
    m.chainDiagonals = 12;
    m.dltChainInputs = 32;
    m.simulateDiagonals = 48;
    m.simulateTrials = 8;
    // 7 rounds give >= 100 colds (a p90 with ten beyond) and >= 1000 hits
    // (a p99 with ten beyond).
    m.minRounds = 7;
  }
  return m;
}

std::string chainText(const std::vector<ScheduledDag>& parts) {
  std::string text;
  for (const ScheduledDag& p : parts) text += scheduledText(p);
  return text;
}

/// icsched_serve as a child process; killed and reaped if still running
/// when destroyed.
class Daemon {
 public:
  Daemon(const std::string& servePath, const std::string& socketPath,
         const std::string& cacheFile, const std::string& sweepDir, std::size_t threads,
         const std::string& logPath)
      : socket_(socketPath) {
    const std::vector<std::string> args = {servePath,       "--unix",
                                           socketPath,      "--threads",
                                           std::to_string(threads), "--cache-capacity",
                                           std::to_string(kCacheCapacity), "--cache-file",
                                           cacheFile,       "--sweep-dir",
                                           sweepDir,        "--stream-every",
                                           "4",             "--quiet"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = fork();
    require(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      const int fd = open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Polls until the socket accepts and answers a Health probe.
  svc::HealthPayload waitReady() {
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      try {
        svc::ServiceClient c = svc::ServiceClient::connectUnix(socket_);
        return c.health(kCallTimeoutMillis);
      } catch (const std::exception&) {
        int status = 0;
        require(waitpid(pid_, &status, WNOHANG) == 0, "icsched_serve exited during start-up");
        require(secondsSince(t0) < 60.0, "icsched_serve did not come up within 60 s");
        usleep(200);
      }
    }
  }

  /// Graceful drain via a Shutdown frame; requires a clean exit.
  void shutdown() {
    {
      svc::ServiceClient c = svc::ServiceClient::connectUnix(socket_);
      c.requestShutdown(kCallTimeoutMillis);
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    require(WIFEXITED(status) && WEXITSTATUS(status) == 0, "icsched_serve did not drain cleanly");
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// What measured rounds add up to.
struct MixTotals {
  double wallSeconds = 0.0;
  /// Wall time of each round (every round sends the same requests).
  std::vector<double> roundSeconds;
  /// This process's CPU while requests were in flight.
  double clientCpuSeconds = 0.0;
  std::size_t rounds = 0;
  std::uint64_t requests = 0;
  std::vector<double> allMs;
  std::vector<double> kindMs[kKinds];
  std::map<std::string, std::vector<double>> shapeMs;
  double bytesIn = 0.0;
  double bytesOut = 0.0;
  /// Round trips against in-process runCli of the same request.
  double hitTripSeconds = 0.0;
  double hitCliSeconds = 0.0;
  double coldTripSeconds = 0.0;
  double coldCliSeconds = 0.0;
};

/// One daemon lifetime of the mix: preparation, set-up, measured rounds and
/// their checks.
class ServiceSession {
 public:
  ServiceSession(const Options& opt, const MixSpec& mix, const std::string& tag)
      : opt_(opt), mix_(mix), rng_(opt.seed * 0xD1B54A32D192ED03ull + 29),
        dir_(opt.workDir + "/" + tag) {
    std::filesystem::create_directories(dir_);
    require(std::filesystem::is_empty(dir_), "service directory is not fresh");
    meshChain_ = icsched::meshWDagChain(mix_.chainDiagonals);
    dltChain_ = icsched::dltPrefixChain(mix_.dltChainInputs);
    simulateText_ = scheduledText(familyDag("mesh", mix_.simulateDiagonals));
    simulateBound_ =
        makespanBound(familyDag("mesh", mix_.simulateDiagonals).dag, kMinTaskDuration, 8);
  }

  /// Untimed preparation: an earlier daemon generation answers the hot set
  /// once and drains, leaving its entries in the cache file. Each answer is
  /// checked here in full; later hits must repeat its bytes.
  void prepareEarlierGeneration() {
    Daemon d(opt_.servePath, dir_ + "/gen0.sock", gen0Cache(), dir_ + "/sweeps-gen0",
             opt_.workers, dir_ + "/daemon.log");
    (void)d.waitReady();
    svc::ServiceClient c = svc::ServiceClient::connectUnix(d.socket());
    for (const auto& [family, param] : mix_.hot) {
      Request r = synthesis(Kind::Cold, makeShape(family, param), "greedy");
      svc::ServiceClient::CallOutcome o = c.call(r.payload, kCallTimeoutMillis);
      require(o.ok, "earlier generation refused " + r.shape->name);
      Sample s;
      s.response = std::move(o.response);
      hotCliSeconds_.push_back(checkOne(r, s));
      hot_.push_back(std::move(r));
      hotAnswers_.push_back(std::move(s.response));
    }
    c.close();
    d.shutdown();
  }

  [[nodiscard]] std::string gen0Cache() const { return dir_ + "/gen0.icscache"; }
  [[nodiscard]] std::size_t hotEntries() const { return hot_.size(); }

  /// Starts a daemon on a fresh copy of the earlier generation's cache file
  /// and waits until it serves; returns the seconds that took.
  double startDaemon() {
    daemon_.reset();
    const std::string n = std::to_string(++generation_);
    const std::string cache = dir_ + "/gen" + n + ".icscache";
    std::filesystem::copy_file(gen0Cache(), cache);
    const Clock::time_point t0 = Clock::now();
    daemon_ = std::make_unique<Daemon>(opt_.servePath, dir_ + "/gen" + n + ".sock", cache,
                                       dir_ + "/sweeps-gen" + n, opt_.workers,
                                       dir_ + "/daemon.log");
    const svc::HealthPayload h = daemon_->waitReady();
    const double took = secondsSince(t0);
    require(h.cacheSize == hot_.size(), "restarted daemon salvaged " +
                                            std::to_string(h.cacheSize) + " of " +
                                            std::to_string(hot_.size()) + " cache entries");
    client_ = svc::ServiceClient::connectUnix(daemon_->socket());
    return took;
  }

  /// Drains and reaps the daemon; returns the CPU seconds it used.
  double stopDaemon() {
    client_.close();
    const double cpu0 = cpuSecondsWithChildren();
    if (daemon_) daemon_->shutdown();
    daemon_.reset();
    return cpuSecondsWithChildren() - cpu0;
  }

  /// Whole rounds until \p seconds of measured time and \p minRounds rounds
  /// have passed. Each round is checked right after it, outside the
  /// measured time, on \p checkThreads threads.
  MixTotals run(double seconds, std::size_t minRounds, Tracer& tracer,
                std::size_t checkThreads) {
    MixTotals t;
    while ((t.wallSeconds < seconds || t.rounds < minRounds) && totalRounds_ < kMaxRounds) {
      oneRound(t, tracer, checkThreads);
    }
    return t;
  }

  /// The requests and answers of the latest round.
  [[nodiscard]] const std::vector<Request>& lastRequests() const { return round_; }
  [[nodiscard]] const std::vector<Sample>& lastSamples() const { return samples_; }

 private:
  std::shared_ptr<const Shape> makeShape(const std::string& family, std::size_t param) {
    const ScheduledDag base = familyDag(family, param);
    auto shape = std::make_shared<Shape>();
    shape->name = familyName(family, param);
    shape->sd = relabel(base, randomPermutation(base.dag.numNodes(), rng_));
    return shape;
  }

  Request synthesis(Kind kind, std::shared_ptr<const Shape> shape, const std::string& method) {
    Request r;
    r.kind = kind;
    r.payload.requestId = ++nextRequestId_;
    r.payload.args = {"schedule", method};
    r.payload.stdinText = dagOnlyText(shape->sd.dag);
    r.shape = std::move(shape);
    return r;
  }

  Request chainRequest(Kind kind, std::shared_ptr<const ChainInput> chain) {
    Request r;
    r.kind = kind;
    r.payload.requestId = ++nextRequestId_;
    r.payload.args = kind == Kind::ChainFind ? std::vector<std::string>{"chain", "find"}
                                             : std::vector<std::string>{"chain"};
    r.payload.stdinText = chainText(chain->parts);
    r.chain = std::move(chain);
    return r;
  }

  /// One round's requests in a seeded order; built before the clock starts.
  std::vector<Request> buildRound() {
    std::vector<Request> round;
    for (const auto& [family, param] : mix_.cold) {
      round.push_back(synthesis(Kind::Cold, makeShape(family, param), "greedy"));
    }
    for (std::size_t i = 0; i < mix_.hitsPerRound; ++i) {
      Request r = hot_[i % hot_.size()];
      r.kind = Kind::Hit;
      r.hot = i % hot_.size();
      r.payload.requestId = ++nextRequestId_;
      round.push_back(std::move(r));
    }
    for (const auto& [family, param] : mix_.beam) {
      round.push_back(synthesis(Kind::Beam, makeShape(family, param), "beam"));
    }
    auto shuffled = std::make_shared<ChainInput>(ChainInput{"shuffled mesh W chain", meshChain_});
    for (std::size_t i = shuffled->parts.size(); i > 1; --i) {
      std::swap(shuffled->parts[i - 1], shuffled->parts[pickIndex(rng_, i)]);
    }
    round.push_back(chainRequest(
        Kind::Chain, std::make_shared<ChainInput>(ChainInput{"mesh W chain", meshChain_, true})));
    round.push_back(chainRequest(
        Kind::Chain, std::make_shared<ChainInput>(ChainInput{"DLT chain", dltChain_, true})));
    round.push_back(chainRequest(
        Kind::Chain, std::make_shared<ChainInput>(ChainInput{
                         "reversed mesh W chain", {meshChain_.rbegin(), meshChain_.rend()}})));
    round.push_back(chainRequest(Kind::ChainFind, shuffled));
    Request sim;
    sim.kind = Kind::Simulate;
    sim.payload.requestId = ++nextRequestId_;
    sim.payload.args = {"simulate", "8", "IC-OPT", std::to_string(1 + rng_() % 1000000),
                        "trials=" + std::to_string(mix_.simulateTrials)};
    sim.payload.stdinText = simulateText_;
    round.push_back(std::move(sim));
    for (std::size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[pickIndex(rng_, i)]);
    }
    return round;
  }

  void oneRound(MixTotals& t, Tracer& tracer, std::size_t checkThreads) {
    round_ = buildRound();
    samples_.assign(round_.size(), Sample{});
    const double cpu0 = cpuSecondsWithChildren();
    const Clock::time_point w0 = Clock::now();
    for (std::size_t i = 0; i < round_.size(); ++i) {
      const SpanGuard req(tracer, std::string("request.") + kindName(round_[i].kind),
                          round_[i].payload.requestId);
      const SpanGuard call(tracer, "service.client.call");
      std::uint64_t salvaged = 0;
      const Clock::time_point t0 = Clock::now();
      svc::ServiceClient::CallOutcome o = client_.call(
          round_[i].payload, kCallTimeoutMillis,
          [&](const svc::ProgressPayload& p) { salvaged = std::max(salvaged, p.salvaged); });
      samples_[i].ms = secondsSince(t0) * 1e3;
      require(o.ok, "request " + std::to_string(round_[i].payload.requestId) +
                        " got an error frame: " + o.error.message);
      samples_[i].response = std::move(o.response);
      samples_[i].salvaged = salvaged;
    }
    t.roundSeconds.push_back(secondsSince(w0));
    t.wallSeconds += t.roundSeconds.back();
    t.clientCpuSeconds += cpuSecondsWithChildren() - cpu0;
    ++t.rounds;
    ++totalRounds_;

    const SpanGuard check(tracer, "check.service");
    const std::vector<double> cliSeconds = checkRound(checkThreads);
    for (std::size_t i = 0; i < round_.size(); ++i) {
      const Request& r = round_[i];
      const double ms = samples_[i].ms;
      t.allMs.push_back(ms);
      t.kindMs[static_cast<int>(r.kind)].push_back(ms);
      const std::string shape = r.shape ? r.shape->name : "-";
      t.shapeMs[std::string(kindName(r.kind)) + " " + shape].push_back(ms);
      t.bytesIn += static_cast<double>(svc::encodeRequest(r.payload).size());
      t.bytesOut += static_cast<double>(svc::encodeResponse(samples_[i].response).size());
      ++t.requests;
      if (r.kind == Kind::Hit) {
        t.hitTripSeconds += ms * 1e-3;
        t.hitCliSeconds += hotCliSeconds_[r.hot];
      } else if (r.kind == Kind::Cold) {
        t.coldTripSeconds += ms * 1e-3;
        t.coldCliSeconds += cliSeconds[i];
      }
    }
  }

  /// Checks every request of the latest round on \p threads threads;
  /// returns each one's in-process runCli seconds (0 for hits).
  std::vector<double> checkRound(std::size_t threads) {
    std::vector<double> cliSeconds(round_.size(), 0.0);
    std::atomic<std::size_t> next{0};
    std::mutex errMutex;
    std::string firstError;
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= round_.size()) return;
        try {
          cliSeconds[i] = checkOne(round_[i], samples_[i]);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(errMutex);
          if (firstError.empty()) firstError = e.what();
        }
      }
    };
    std::vector<std::thread> pool;
    for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(worker);
    worker();
    for (std::thread& th : pool) th.join();
    require(firstError.empty(), firstError);
    return cliSeconds;
  }

  /// Checks one answer: nothing salvaged or replayed, the cache flag, byte
  /// parity with in-process runCli (hits: with the checked earlier answer),
  /// and the kind's own correctness check. Returns the runCli seconds.
  double checkOne(const Request& r, const Sample& s) const {
    const std::string what = std::string(kindName(r.kind)) + " request " +
                             std::to_string(r.payload.requestId) +
                             (r.shape ? " (" + r.shape->name + ")" : "");
    checkFresh(s.response.flags, s.salvaged, what);
    require(s.response.requestId == r.payload.requestId, what + ": answered with another id");
    const bool cacheHit = (s.response.flags & svc::kRespFlagScheduleCacheHit) != 0;
    require(cacheHit == (r.kind == Kind::Hit),
            what + (cacheHit ? ": unexpected cache hit" : ": missed the cache"));
    if (r.kind == Kind::Hit) {
      const svc::ResponsePayload& first = hotAnswers_[r.hot];
      checkIdentical(s.response.out, first.out, what + " vs the earlier generation's answer");
      checkIdentical(s.response.err, first.err, what + " stderr vs the earlier answer");
      require(s.response.exitCode == first.exitCode, what + ": exit code changed");
      return 0.0;
    }

    std::istringstream in(r.payload.stdinText);
    std::ostringstream out;
    std::ostringstream err;
    const Clock::time_point t0 = Clock::now();
    const int code = icsched::runCli(r.payload.args, in, out, err);
    const double cliSeconds = secondsSince(t0);
    require(code == s.response.exitCode, what + ": exit code " +
                                             std::to_string(s.response.exitCode) +
                                             " differs from runCli's " + std::to_string(code));
    checkIdentical(out.str(), s.response.out, what + " stdout vs runCli");
    checkIdentical(err.str(), s.response.err, what + " stderr vs runCli");

    switch (r.kind) {
      case Kind::Hit:
      case Kind::Cold:
      case Kind::Beam: {
        require(s.response.exitCode == 0, what + ": nonzero exit");
        const std::vector<NodeId> order = parseScheduleLine(s.response.out);
        const icsched::Dag& g = r.shape->sd.dag;
        if (r.kind == Kind::Beam) {
          checkLinearExtension(g, order);
        } else {
          checkGreedySteps(g, order);
        }
        checkProfileDominated(eligibilityReplay(g, order),
                              eligibilityReplay(g, r.shape->sd.schedule.order()), what);
        break;
      }
      case Kind::Chain:
      case Kind::ChainFind: {
        std::vector<std::vector<std::size_t>> profiles;
        for (const ScheduledDag& p : r.chain->parts) {
          profiles.push_back(nonsinkProfile(p.dag, p.schedule));
        }
        const std::string label = what + " (" + r.chain->name + ")";
        if (r.kind == Kind::Chain) {
          checkChainVerdict(profiles, r.chain->paperClaimsChain, s.response.out,
                            s.response.exitCode, label);
        } else {
          checkChainOrder(profiles, s.response.out, s.response.exitCode, label);
        }
        break;
      }
      case Kind::Simulate: {
        require(s.response.exitCode == 0, what + ": nonzero exit");
        std::istringstream lines(s.response.out);
        std::string line;
        std::size_t trials = 0;
        while (std::getline(lines, line)) {
          if (line.rfind("trial ", 0) != 0) continue;
          const std::size_t at = line.find("makespan=");
          require(at != std::string::npos, what + ": trial line without a makespan");
          checkMakespan(std::stod(line.substr(at + 9)), simulateBound_, what);
          ++trials;
        }
        require(trials == mix_.simulateTrials, what + ": wrong number of trial lines");
        break;
      }
    }
    return cliSeconds;
  }

  const Options& opt_;
  MixSpec mix_;
  Rng rng_;
  std::string dir_;
  std::vector<ScheduledDag> meshChain_;
  std::vector<ScheduledDag> dltChain_;
  std::string simulateText_;
  MakespanBound simulateBound_;
  std::vector<Request> hot_;
  std::vector<svc::ResponsePayload> hotAnswers_;
  std::vector<double> hotCliSeconds_;
  std::unique_ptr<Daemon> daemon_;
  svc::ServiceClient client_;
  std::size_t generation_ = 0;
  std::uint64_t nextRequestId_ = 0;
  std::size_t totalRounds_ = 0;
  std::vector<Request> round_;
  std::vector<Sample> samples_;
};

double kindPercentile(const MixTotals& t, Kind k, double q) {
  const std::vector<double>& v = t.kindMs[static_cast<int>(k)];
  return q == 0.5 ? median(v) : percentile(v, q);
}

}  // namespace

RunResult runServiceMix(const Options& opt) {
  RunResult out;
  const MixSpec mix = mixSpec(opt.shortMode);
  ServiceSession session(opt, mix, "service");
  session.prepareEarlierGeneration();

  // Set-up: a daemon start on the earlier generation's cache file, salvage
  // included, until it answers a Health probe. The last start stays up.
  std::vector<double> setups;
  const int starts = opt.shortMode ? 2 : 15;
  for (int i = 0; i < starts; ++i) {
    setups.push_back(session.startDaemon());
    if (i + 1 < starts) (void)session.stopDaemon();
  }

  Tracer off(false);
  if (!opt.trace) {
    const MixTotals t = session.run(opt.seconds, mix.minRounds, off, opt.workers);
    const double daemonCpu = session.stopDaemon();
    const double requests = static_cast<double>(t.requests);
    // Throughput from the faster quarter of rounds (every round sends the
    // same requests), clear of bursts of load from other tenants.
    const double requestsPerSecond =
        requests / static_cast<double>(t.rounds) / percentile(t.roundSeconds, 0.25);
    out.attempted = t.requests;
    out.metrics.push_back({"setup_s", "s", median(setups)});
    out.metrics.push_back({"peak_rss_mb", "MB", peakRssMb()});
    out.metrics.push_back({"ops_per_s", "1/s", requestsPerSecond});
    out.metrics.push_back(
        {"cpu_us_per_op", "us", (t.clientCpuSeconds + daemonCpu) * 1e6 / requests});
    out.metrics.push_back({"op_p50_ms", "ms", median(t.allMs)});

    std::vector<double> chains = t.kindMs[static_cast<int>(Kind::Chain)];
    const std::vector<double>& finds = t.kindMs[static_cast<int>(Kind::ChainFind)];
    chains.insert(chains.end(), finds.begin(), finds.end());
    out.details = {{"svc_requests_per_s", "1/s", requestsPerSecond},
                   {"svc_hit_p50_ms", "ms", kindPercentile(t, Kind::Hit, 0.5)},
                   {"svc_hit_p99_ms", "ms", kindPercentile(t, Kind::Hit, 0.99)},
                   {"svc_cold_p50_ms", "ms", kindPercentile(t, Kind::Cold, 0.5)},
                   {"svc_cold_p90_ms", "ms", kindPercentile(t, Kind::Cold, 0.9)},
                   {"svc_chain_p50_ms", "ms", median(chains)},
                   {"svc_simulate_p50_ms", "ms", kindPercentile(t, Kind::Simulate, 0.5)}};
    std::ostringstream note;
    note << "rounds=" << t.rounds << " requests=" << t.requests;
    for (int k = 0; k < kKinds; ++k) {
      note << " " << kindName(static_cast<Kind>(k)) << "=" << t.kindMs[k].size();
    }
    out.notes.push_back(note.str());
    for (const auto& [name, ms] : t.shapeMs) {
      out.notes.push_back("p50_ms " + name + " " + std::to_string(median(ms)) +
                          " n=" + std::to_string(ms.size()));
    }
    return out;
  }

  // Traced run: untraced and traced rounds alternate (so drift hits both
  // alike); then the layer probes.
  Tracer tracer(true);
  double plainSeconds = 0.0;
  double tracedSeconds = 0.0;
  double plainRequests = 0.0;
  double tracedRequests = 0.0;
  double coldTrip = 0.0;
  double coldCli = 0.0;
  while (plainSeconds + tracedSeconds < (opt.shortMode ? 0.0 : opt.seconds * 0.4) ||
         tracedRequests == 0.0) {
    const MixTotals p = session.run(0.0, 1, off, opt.workers);
    const MixTotals t = session.run(0.0, 1, tracer, opt.workers);
    plainSeconds += p.wallSeconds;
    tracedSeconds += t.wallSeconds;
    plainRequests += static_cast<double>(p.requests);
    tracedRequests += static_cast<double>(t.requests);
    coldTrip += p.coldTripSeconds + t.coldTripSeconds;
    coldCli += p.coldCliSeconds + t.coldCliSeconds;
  }
  (void)session.stopDaemon();
  out.attempted = static_cast<std::uint64_t>(plainRequests + tracedRequests);
  probeLayers(opt, out);

  const double plainRate = plainRequests / plainSeconds;
  const double tracedRate = tracedRequests / tracedSeconds;
  out.metrics.push_back({"trace.overhead_share", "ratio", (plainRate - tracedRate) / plainRate});
  // Share of the colds' round trips that in-process handler work (runCli)
  // explains; the rest is wire, digests, cache and queueing in the daemon.
  out.metrics.push_back({"trace.layer_share", "ratio", coldCli / coldTrip});
  for (const auto& [name, self] : tracer.selfSeconds()) {
    out.notes.push_back("self_s " + name + " " + std::to_string(self));
  }
  out.spansJson = tracer.toJson();
  return out;
}

void probeService(const Options& opt, RunResult& out) {
  const MixSpec mix = mixSpec(opt.shortMode);
  ServiceSession session(opt, mix, "probe-service");
  session.prepareEarlierGeneration();

  // Salvage of the earlier generation's cache file, outside any daemon.
  {
    const std::string copy = session.gen0Cache() + ".salvage";
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      std::filesystem::copy_file(session.gen0Cache(), copy,
                                 std::filesystem::copy_options::overwrite_existing);
      svc::PersistentScheduleCache pc;
      const Clock::time_point t0 = Clock::now();
      const auto entries = pc.openSalvage(copy, 1, 0);
      ms.push_back(secondsSince(t0) * 1e3);
      require(entries.size() == session.hotEntries(), "salvage lost cache entries");
      pc.close();
    }
    out.metrics.push_back({"service.persistent_cache.salvage_ms", "ms", median(ms)});
  }

  // One round of the mix; its runCli times come from a single checker
  // thread so they are not inflated by contention.
  (void)session.startDaemon();
  Tracer off(false);
  const MixTotals t = session.run(0.0, 1, off, 1);
  (void)session.stopDaemon();
  const auto& reqs = session.lastRequests();
  const auto& samples = session.lastSamples();

  const auto count = [&](Kind k) {
    return static_cast<double>(t.kindMs[static_cast<int>(k)].size());
  };
  const double hits = count(Kind::Hit);
  const double colds = count(Kind::Cold);
  const double synth = hits + colds + count(Kind::Beam);
  out.metrics.push_back({"service.cache.hit_ratio", "ratio", hits / synth});
  out.metrics.push_back({"service.round_trip_overhead_ms.hit", "ms",
                         (t.hitTripSeconds - t.hitCliSeconds) * 1e3 / hits});
  out.metrics.push_back({"service.round_trip_overhead_ms.cold", "ms",
                         (t.coldTripSeconds - t.coldCliSeconds) * 1e3 / colds});
  const double requests = static_cast<double>(t.requests);
  out.metrics.push_back({"service.wire.bytes_in_per_req", "B", t.bytesIn / requests});
  out.metrics.push_back({"service.wire.bytes_out_per_req", "B", t.bytesOut / requests});
  out.metrics.push_back({"service.latency_ms.hit_p50", "ms", kindPercentile(t, Kind::Hit, 0.5)});
  out.metrics.push_back({"service.latency_ms.cold_p50", "ms", kindPercentile(t, Kind::Cold, 0.5)});

  // Framing and digests over the same requests and responses, in process.
  double frameSeconds = 0.0;
  double digestSeconds = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Clock::time_point f0 = Clock::now();
      svc::FrameDecoder dec;
      dec.feed(svc::encodeRequest(reqs[i].payload));
      dec.feed(svc::encodeResponse(samples[i].response));
      const std::optional<svc::Frame> fr = dec.next();
      const std::optional<svc::Frame> fs = dec.next();
      require(fr && fs, "frame decoder lost a frame");
      const svc::RequestPayload rp = svc::decodeRequestPayload(fr->payload);
      const svc::ResponsePayload sp = svc::decodeResponsePayload(fs->payload);
      frameSeconds += secondsSince(f0);
      require(rp.stdinText == reqs[i].payload.stdinText && sp.out == samples[i].response.out,
              "frame round trip changed a payload");
      const Clock::time_point d0 = Clock::now();
      const svc::DagDigest d = svc::requestTextDigest(reqs[i].payload);
      digestSeconds += secondsSince(d0);
      require(d.lo != 0 || d.hi != 0, "request digest is zero");
    }
  }
  const double n = 3.0 * static_cast<double>(reqs.size());
  out.metrics.push_back({"service.wire.frame_us", "us", frameSeconds * 1e6 / n});
  out.metrics.push_back({"service.request_digest_us", "us", digestSeconds * 1e6 / n});

  // Cache-file appends of every cold answer, fsync per record as the
  // daemon does.
  std::vector<std::pair<svc::ScheduleCacheKey, svc::CachedResponse>> entries;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].kind != Kind::Cold) continue;
    const std::optional<svc::ScheduleCacheKey> key = svc::synthesisCacheKey(reqs[i].payload);
    require(key.has_value(), "cold request has no cache key");
    entries.emplace_back(*key, svc::CachedResponse{samples[i].response.exitCode,
                                                   samples[i].response.out,
                                                   samples[i].response.err});
  }
  svc::PersistentScheduleCache pc;
  (void)pc.openSalvage(opt.workDir + "/probe-append.icscache", 1, 0);
  const Clock::time_point a0 = Clock::now();
  for (const auto& [key, response] : entries) pc.append(key, response);
  out.metrics.push_back({"service.persistent_cache.append_us", "us",
                         secondsSince(a0) * 1e6 / static_cast<double>(entries.size())});
  pc.close();
}

}  // namespace icsbench
