// perfbench harness: one benchmark workload of the pnoc simulator, driven
// only through the library's public entry points, with every output checked
// against properties computed apart from the simulator.
//
//   pnoc_perfbench --workload <lowload|saturation|sweep|stream>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// An operation is a deterministic unit of work that repeats bit-identically:
// a reset()+run() episode (lowload, saturation), one job passed to
// execute() (sweep: saturation searches and closed-loop runs) or one
// streamed job (stream).  Runs attempt whole rounds of operations for
// `--seconds` seconds after a discarded warm-up, and time them in CPU time.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 replays the same
// simulations on networks built with the cycle profiler on (and, for the
// overhead ratio, off), checks that they reproduce the untraced results
// byte for byte, and prints the per-layer metrics.  Either way stdout ends
// with a digest line of the simulated outputs and then one JSON object
// {"correct","attempted","failed","metrics"}.  Diagnostics go to stderr.
//
// The stream workload's workers are this binary re-exec'd as
// `pnoc_perfbench --pnoc-worker`.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "scenario/dispatch/streaming_backend.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/subprocess_backend.hpp"
#include "scenario/wire.hpp"
#include "sim/rng.hpp"

using namespace pnoc;

namespace {

// ---------------------------------------------------------------- clocks

double seconds(const timespec& ts) { return ts.tv_sec + ts.tv_nsec * 1e-9; }
double seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

double threadCpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return seconds(ts);
}

double processCpu() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return seconds(ts);
}

/// User + system CPU of every reaped child process (the stream workers).
double childrenCpu() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double wallClock() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set in MB of this process (RUSAGE_SELF) or of the largest
/// reaped child (RUSAGE_CHILDREN).
double peakRssMb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- report

/// 64-bit FNV-1a over a sequence of strings (each followed by a newline).
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  void mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// The failed checks of one operation.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool condition, std::string what) {
    if (!condition) failures.push_back(std::move(what));
  }
};

class Report {
 public:
  /// Counts one operation.  A failure that is the known fault (`knownFault`)
  /// leaves `correct` true: it speaks of the operations that did not fail.
  void operation(const std::string& name, const Checks& checks, bool knownFault = false) {
    ++attempted_;
    if (knownFault) {
      ++failed_;
      if (logged_++ < kMaxLogged) std::cerr << "perfbench: " << name << " failed (known fault)\n";
      return;
    }
    if (checks.failures.empty()) return;
    ++failed_;
    correct_ = false;
    for (const std::string& what : checks.failures) {
      if (logged_++ < kMaxLogged) std::cerr << "perfbench: " << name << ": " << what << "\n";
    }
  }

  /// A check outside any single operation (cross-operation properties).
  void incorrect(const std::string& what) {
    correct_ = false;
    if (logged_++ < kMaxLogged) std::cerr << "perfbench: " << what << "\n";
  }

  void metric(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void setDigest(std::string digest) { digest_ = std::move(digest); }

  void print(const std::string& workload) const {
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char number[64];
      const auto end = std::to_chars(number, number + sizeof number, metrics_[i].value).ptr;
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
              std::string(number, end) + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::cout << "digest " << workload << " " << digest_ << "\n" << json << std::endl;
  }

 private:
  static constexpr int kMaxLogged = 20;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int logged_ = 0;
  std::vector<Metric> metrics_;
  std::string digest_;
};

// ---------------------------------------------------------------- specs

using KeyValues = std::vector<std::pair<std::string, std::string>>;

/// Binds a spec through the scenario layer's key=value table.
scenario::ScenarioSpec bind(const KeyValues& values) {
  scenario::ScenarioSpec spec;
  for (const auto& [key, value] : values) spec.set(key, value);
  return spec;
}

// Paper constants the checks use, written out here rather than read back
// from the simulator (Table 3-3, bandwidth set 1).
constexpr double kClockGhz = 2.5;
constexpr double kCores = 64.0;
constexpr double kPacketBits = 2048.0;  // 64 flits x 32 bits
constexpr double kFlitBits = 32.0;
constexpr double kAcceptanceFloor = 0.90;

std::uint64_t episodeCycles(const network::SimulationParameters& params) {
  return params.warmupCycles + params.measureCycles;
}

// ---------------------------------------------------------------- episodes

using Snapshot = obs::CycleProfiler::Snapshot;

/// One reset()+run() (or first run()) of a built network, timed in thread CPU.
struct Episode {
  metrics::RunMetrics metrics;
  double cpu = 0.0;  // setOfferedLoad + reset + run
  double resetCpu = 0.0;
  bool didReset = false;
  sim::EngineStats engine;
  Snapshot profile;  // profiler delta over the episode (zero when untraced)
  bool conserved = false;
};

Snapshot snapshotOf(const network::PhotonicNetwork& net) {
  return net.profiler() != nullptr ? net.profiler()->snapshot() : Snapshot{};
}

/// `load` retargets the injectors first; `reset` rewinds the network (a
/// retarget always rewinds, as the saturation search does).
Episode runEpisode(network::PhotonicNetwork& net, std::optional<double> load, bool reset) {
  Episode e;
  const double cpu0 = threadCpu();
  if (load) net.setOfferedLoad(*load);
  e.didReset = reset || load.has_value();
  if (e.didReset) {
    const double resetCpu0 = threadCpu();
    net.reset();
    e.resetCpu = threadCpu() - resetCpu0;
  }
  // reset() zeroes the profiler, so the episode's delta starts after it.
  const Snapshot before = snapshotOf(net);
  e.metrics = net.run();
  e.cpu = threadCpu() - cpu0;
  e.engine = net.engine().stats();
  const Snapshot after = snapshotOf(net);
  e.profile.cycles = after.cycles - before.cycles;
  for (std::size_t i = 0; i < obs::CycleProfiler::kPhaseCount; ++i) {
    e.profile.phaseNs[i] = after.phaseNs[i] - before.phaseNs[i];
  }
  for (std::size_t i = 0; i < obs::kComponentKindCount; ++i) {
    e.profile.kindNs[i] = after.kindNs[i] - before.kindNs[i];
    e.profile.kindSteps[i] = after.kindSteps[i] - before.kindSteps[i];
  }
  e.conserved = net.totalFlitsInjected() == net.totalFlitsEjected() + net.occupancy();
  return e;
}

/// Wire round trip of one RunMetrics, timed; returns the serialized bytes.
std::string wireRoundTrip(const metrics::RunMetrics& m, double& cpuSeconds, Checks& checks) {
  const double cpu0 = threadCpu();
  const std::string bytes = scenario::wire::toJson(m);
  const std::string again = scenario::wire::toJson(scenario::wire::runMetricsFromJson(bytes));
  cpuSeconds += threadCpu() - cpu0;
  checks.expect(again == bytes, "wire round trip changed the RunMetrics bytes");
  return bytes;
}

// ---------------------------------------------------------------- layers

/// Per-layer totals of a traced run.  Counts come from the traced episodes
/// (identical to the untraced ones, which the replay checks byte for byte);
/// untraced CPU and steps give sim.ns_per_step and the profiler overhead.
struct Layers {
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t timerFires = 0;
  Snapshot profile;
  std::uint64_t measuredCycles = 0;
  std::uint64_t headRetries = 0;
  std::uint64_t reservationsIssued = 0;
  std::uint64_t reservationFailures = 0;
  double untracedCpu = 0.0;
  std::uint64_t untracedSteps = 0;
  double tracedCpu = 0.0;
  std::vector<double> buildMs;
  std::vector<double> resetMs;
  double wireCpu = 0.0;
  std::uint64_t wireJobs = 0;
  // Set by the workload where the layer applies; 0 elsewhere.
  double probesPerSearch = 0.0;
  double requestsPerKcycle = 0.0;
  double dispatcherCpuUsPerJob = 0.0;
  double workerBusy = 0.0;
  double jobsPerWallS = 0.0;
  double dispatcherRssMb = 0.0;

  void add(const Episode& e, bool traced) {
    if (!traced) {
      untracedCpu += e.cpu;
      untracedSteps += e.engine.componentSteps;
      return;
    }
    tracedCpu += e.cpu;
    cycles += e.engine.cycles;
    steps += e.engine.componentSteps;
    wakes += e.engine.wakes;
    timerFires += e.engine.timersFired;
    profile.cycles += e.profile.cycles;
    for (std::size_t i = 0; i < obs::CycleProfiler::kPhaseCount; ++i) {
      profile.phaseNs[i] += e.profile.phaseNs[i];
    }
    for (std::size_t i = 0; i < obs::kComponentKindCount; ++i) {
      profile.kindNs[i] += e.profile.kindNs[i];
      profile.kindSteps[i] += e.profile.kindSteps[i];
    }
    measuredCycles += e.metrics.measuredCycles;
    headRetries += e.metrics.headRetries;
    reservationsIssued += e.metrics.reservationsIssued;
    reservationFailures += e.metrics.reservationFailures;
    if (e.didReset) resetMs.push_back(e.resetCpu * 1e3);
  }

  void emit(Report& report) const {
    const double c = static_cast<double>(cycles);
    const double kc = c / 1000.0;
    report.metric("sim.steps_per_cycle", ratio(static_cast<double>(steps), c), "steps");
    report.metric("sim.wakes_per_kcycle", ratio(static_cast<double>(wakes), kc), "count");
    report.metric("sim.timer_fires_per_kcycle", ratio(static_cast<double>(timerFires), kc),
                  "count");
    report.metric("sim.ns_per_step",
                  ratio(untracedCpu * 1e9, static_cast<double>(untracedSteps)), "ns");
    static const char* const kPhases[] = {"timer_expire", "wake_drain", "evaluate", "advance",
                                          "park_scan"};
    const double pc = static_cast<double>(profile.cycles);
    for (std::size_t i = 0; i < obs::CycleProfiler::kPhaseCount; ++i) {
      report.metric(std::string("sim.phase.") + kPhases[i] + "_ns_per_cycle",
                    ratio(static_cast<double>(profile.phaseNs[i]), pc), "ns");
    }
    struct KindName {
      obs::ComponentKind kind;
      const char* prefix;
    };
    static const KindName kKinds[] = {
        {obs::ComponentKind::kPolicy, "core.token_ring"},
        {obs::ComponentKind::kElectricalRouter, "noc.router"},
        {obs::ComponentKind::kLink, "noc.link"},
        {obs::ComponentKind::kPhotonicRouter, "network.photonic_router"},
        {obs::ComponentKind::kCore, "network.core_node"},
    };
    const double totalNs = static_cast<double>(profile.totalNs());
    for (const KindName& k : kKinds) {
      const std::size_t i = static_cast<std::size_t>(k.kind);
      const double ns = static_cast<double>(profile.kindNs[i]);
      const double kindSteps = static_cast<double>(profile.kindSteps[i]);
      const std::string prefix = k.prefix;
      report.metric(prefix + ".ns_per_step", ratio(ns, kindSteps), "ns");
      report.metric(prefix + ".steps_per_cycle", ratio(kindSteps, pc), "steps");
      report.metric(prefix + ".time_share", ratio(ns, totalNs), "ratio");
    }
    report.metric("noc.head_retries_per_kcycle",
                  ratio(static_cast<double>(headRetries),
                        static_cast<double>(measuredCycles) / 1000.0),
                  "count");
    report.metric("network.reservation_success",
                  reservationsIssued > 0
                      ? 1.0 - static_cast<double>(reservationFailures) /
                                  static_cast<double>(reservationsIssued)
                      : 0.0,
                  "ratio");
    report.metric("network.build_ms", median(buildMs), "ms");
    report.metric("network.reset_ms", median(resetMs), "ms");
    report.metric("metrics.probes_per_search", probesPerSearch, "count");
    report.metric("workload.requests_per_kcycle", requestsPerKcycle, "count");
    report.metric("scenario.wire_us_per_job",
                  ratio(wireCpu * 1e6, static_cast<double>(wireJobs)), "us");
    report.metric("scenario.dispatch.dispatcher_cpu_us_per_job", dispatcherCpuUsPerJob, "us");
    report.metric("scenario.dispatch.worker_busy", workerBusy, "ratio");
    report.metric("scenario.dispatch.jobs_per_wall_s", jobsPerWallS, "1/s");
    report.metric("scenario.dispatch.dispatcher_rss_mb", dispatcherRssMb, "MB");
    report.metric("obs.profiler_overhead", ratio(tracedCpu, untracedCpu), "ratio");
  }
};

/// Builds a network from `params`, timing the constructor into `buildMs`.
std::unique_ptr<network::PhotonicNetwork> buildNetwork(network::SimulationParameters params,
                                                       bool profile,
                                                       std::vector<double>* buildMs) {
  params.profile = profile;
  const double cpu0 = threadCpu();
  auto net = std::make_unique<network::PhotonicNetwork>(params);
  if (buildMs != nullptr) buildMs->push_back((threadCpu() - cpu0) * 1e3);
  return net;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

/// Every round of a run does identical work: `cycles` simulated cycles over
/// `jobs` operations, which cost `roundCpu` as the run's rounds estimate it.
void emitEndToEnd(Report& report, double cycles, double jobs, double roundCpu,
                  const std::vector<double>& setups, double rssMb) {
  report.metric("cycles_per_cpu_s", cycles / roundCpu, "1/s");
  report.metric("cpu_ms_per_job", roundCpu / jobs * 1e3, "ms");
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", rssMb, "MB");
}

// ------------------------------------------------- lowload / saturation

struct SteadyWorkload {
  const char* pattern;
  const char* load;
  const char* warmup;
  const char* measure;
};

constexpr SteadyWorkload kLowload{"uniform", "0.0001", "1000", "100000"};
constexpr SteadyWorkload kSaturation{"skewed-hotspot2", "0.02", "1000", "10000"};

/// The checks every steady episode must pass; `reference` is the wire form
/// of the discarded warm-up episode.
void checkSteady(const std::string& workload, const network::SimulationParameters& params,
                 const Episode& e, const std::string& bytes, const std::string& reference,
                 Checks& checks) {
  checks.expect(e.conserved, "flits injected != ejected + occupancy()");
  checks.expect(bytes == reference, "episode does not reproduce the first episode's bytes");
  const metrics::RunMetrics& m = e.metrics;
  if (workload == "lowload") {
    // Open-loop Bernoulli sources: delivered packets are binomial around
    // load x cores x window; allow six standard deviations plus edge packets.
    const double expectedPackets = params.offeredLoad * kCores * params.measureCycles;
    const double expectedGbps = params.offeredLoad * kCores * kPacketBits * kClockGhz;
    const double tolerance = (6.0 / std::sqrt(expectedPackets) + 4.0 / expectedPackets);
    checks.expect(std::abs(m.deliveredGbps() / expectedGbps - 1.0) <= tolerance,
                  "delivered " + std::to_string(m.deliveredGbps()) + " Gb/s, expected " +
                      std::to_string(expectedGbps));
  } else {
    checks.expect(m.acceptance() < kAcceptanceFloor,
                  "acceptance " + std::to_string(m.acceptance()) + " is not past the knee");
    checks.expect(m.reservationFailures > 0, "no photonic reservation failures");
    const double ejectionCapGbps = kCores * kFlitBits * kClockGhz;
    checks.expect(m.deliveredGbps() <= ejectionCapGbps,
                  "delivered " + std::to_string(m.deliveredGbps()) +
                      " Gb/s exceeds the ejection ports' capacity");
  }
}

void runSteady(const Options& options, const SteadyWorkload& w, Report& report) {
  const KeyValues values = {{"arch", "dhetpnoc"},    {"set", "1"},
                            {"cores", "64"},         {"cluster_size", "4"},
                            {"pattern", w.pattern},  {"load", w.load},
                            {"warmup", w.warmup},    {"measure", w.measure},
                            {"seed", std::to_string(options.seed)}};

  // Set-up: spec binding and network construction, done kSetups times.  Each
  // network also runs the discarded warm-up episode, outside setup_s: it is
  // the measured operation itself, and its host-dependent CPU would bury the
  // construction cost.
  std::vector<double> setups;
  std::vector<double> buildMs;
  std::unique_ptr<network::PhotonicNetwork> net;
  std::string reference;
  network::SimulationParameters params;
  for (int s = 0; s < kSetups; ++s) {
    net.reset();
    const double cpu0 = threadCpu();
    params = bind(values).params;
    net = buildNetwork(params, false, &buildMs);
    setups.push_back(threadCpu() - cpu0);
    const Episode warm = runEpisode(*net, std::nullopt, false);
    const std::string bytes = scenario::wire::toJson(warm.metrics);
    if (s == 0) reference = bytes;
    if (bytes != reference) report.incorrect("fresh networks disagree on the warm-up episode");
  }
  Digest digest;
  digest.add(reference);
  report.setDigest(digest.hex());

  const std::uint64_t cycles = episodeCycles(params);
  Layers layers;
  layers.buildMs = buildMs;
  std::unique_ptr<network::PhotonicNetwork> traced;
  if (options.trace) traced = buildNetwork(params, true, &layers.buildMs);

  std::vector<double> cpu;
  const double start = wallClock();
  do {
    for (const bool profiled : {false, true}) {
      if (profiled && !options.trace) continue;
      const Episode e = runEpisode(profiled ? *traced : *net, std::nullopt, true);
      double wireCpu = 0.0;
      Checks checks;
      const std::string bytes = wireRoundTrip(e.metrics, wireCpu, checks);
      checkSteady(options.workload, params, e, bytes, reference, checks);
      report.operation(options.workload + (profiled ? " traced episode" : " episode"), checks);
      if (options.trace) {
        layers.add(e, profiled);
        layers.wireCpu += wireCpu;
        ++layers.wireJobs;
      } else {
        cpu.push_back(e.cpu);
      }
    }
  } while (wallClock() - start < options.seconds);

  if (options.trace) {
    layers.emit(report);
    return;
  }
  // The mean episode: hundreds of episodes average the host's drift over
  // the run, where their median jumps with it.
  emitEndToEnd(report, static_cast<double>(cycles), 1.0, mean(cpu), setups,
               peakRssMb(RUSAGE_SELF));
}

// ---------------------------------------------------------------- sweep

constexpr const char* kSweepWarmup = "500";
constexpr const char* kSweepMeasure = "3000";
constexpr std::uint64_t kSweepSearchSeed = 7;

struct ClosedRun {
  const char* workload;
  std::uint32_t window;
  std::uint32_t thinkCycles;
  std::uint32_t minRoundTripCycles;  // flits serialized per flow, 1 flit/cycle
};
// closed: 8-flit request + 64-flit reply; chain adds an 8-flit forward hop.
constexpr ClosedRun kClosedRuns[] = {
    {"closed:window=4,think=20", 4, 20, 8 + 64},
    {"chain", 4, 0, 8 + 8 + 64},
};
constexpr const char* kClosedPatterns[] = {"uniform", "skewed3"};
constexpr const char* kSweepPatterns[] = {"uniform", "skewed1", "skewed2", "skewed3"};

constexpr std::size_t kSearches = 24;

/// Job index of a search in sweepJobs(): set 0..2, pattern 0..3, arch 0
/// (Firefly) or 1 (d-HetPNoC).
std::size_t searchIndex(std::size_t set, std::size_t pattern, std::size_t arch) {
  return (set * 4 + pattern) * 2 + arch;
}

/// Figure 3-3's grid (24 searches, fixed seed) followed by the closed-loop
/// runs, whose seed is the benchmark's.
std::vector<scenario::ScenarioJob> sweepJobs(std::uint64_t seed) {
  std::vector<scenario::ScenarioJob> jobs;
  for (const char* set : {"1", "2", "3"}) {
    for (const char* pattern : kSweepPatterns) {
      for (const char* arch : {"firefly", "dhetpnoc"}) {
        jobs.push_back({scenario::ScenarioJob::Op::kFindPeak,
                        bind({{"arch", arch},
                              {"set", set},
                              {"pattern", pattern},
                              {"warmup", kSweepWarmup},
                              {"measure", kSweepMeasure},
                              {"seed", std::to_string(kSweepSearchSeed)}})});
      }
    }
  }
  for (const ClosedRun& run : kClosedRuns) {
    for (const char* pattern : kClosedPatterns) {
      jobs.push_back({scenario::ScenarioJob::Op::kRun,
                      bind({{"arch", "dhetpnoc"},
                            {"set", "1"},
                            {"pattern", pattern},
                            {"workload", run.workload},
                            {"warmup", kSweepWarmup},
                            {"measure", kSweepMeasure},
                            {"seed", std::to_string(seed)}})});
    }
  }
  return jobs;
}

std::string jobName(const scenario::ScenarioJob& job) {
  const network::SimulationParameters& p = job.spec.params;
  std::string name = job.op == scenario::ScenarioJob::Op::kFindPeak ? "search" : "run";
  return name + " set=" + job.spec.get("set") + " pattern=" + p.pattern +
         " arch=" + network::toString(p.architecture) + " workload=" + p.workload;
}

/// "Never bracketed": no probe met the acceptance floor, so the search
/// returns a zero peak at load 0 — the known metrics::findPeak fault.
bool neverBracketed(const metrics::PeakSearchResult& search) {
  return search.peak.offeredLoad <= 0.0;
}

/// The four searches the known fault hits on these inputs: bandwidth set 1
/// with skewed2 or skewed3, on either architecture.  A zero peak anywhere
/// else is an ordinary failed check.
bool knownFaultSearch(std::size_t jobIndex) {
  for (const std::size_t pattern : {2, 3}) {
    for (const std::size_t arch : {0, 1}) {
      if (jobIndex == searchIndex(0, pattern, arch)) return true;
    }
  }
  return false;
}

void checkSearch(const metrics::PeakSearchResult& search, Checks& checks) {
  checks.expect(!neverBracketed(search), "search never bracketed (zero peak)");
  checks.expect(search.peak.metrics.acceptance() >= kAcceptanceFloor,
                "peak acceptance below the floor");
  bool bracketed = false;
  for (const metrics::LoadPoint& probe : search.sweep) {
    bracketed = bracketed || (probe.offeredLoad > search.peak.offeredLoad &&
                              probe.metrics.acceptance() < kAcceptanceFloor);
  }
  checks.expect(bracketed, "no probe above the peak falls below the acceptance floor");
}

/// Closed-loop bounds: each of at most 64 requesters holds `window` credits,
/// and a credit completes at most once per (round trip + think) cycles.
void checkClosed(const ClosedRun& run, const network::SimulationParameters& params,
                 const metrics::RunMetrics& m, Checks& checks) {
  const double slots = run.window * kCores;
  checks.expect(m.requestsCompleted > 0, "no request completed");
  checks.expect(static_cast<double>(m.requestsIssued) <= m.requestsCompleted + slots,
                "more than window x requesters requests in flight");
  const double maxCompleted =
      slots * (static_cast<double>(params.measureCycles) /
                   (run.minRoundTripCycles + run.thinkCycles) +
               1.0);
  checks.expect(static_cast<double>(m.requestsCompleted) <= maxCompleted,
                "achieved request rate exceeds window x requesters / (round trip + think)");
}

const ClosedRun& closedRunOf(std::size_t jobIndex) {
  return kClosedRuns[(jobIndex - kSearches) / std::size(kClosedPatterns)];
}

/// Checks one executed sweep batch and counts its operations.  The first
/// round's outcome lines become the reference every later round reproduces.
void checkSweepRound(const std::vector<scenario::ScenarioJob>& jobs,
                     const std::vector<scenario::ScenarioOutcome>& outcomes,
                     const std::string& warmReference, std::vector<std::string>& firstRound,
                     Layers& layers, Report& report) {
  std::vector<Checks> checks(jobs.size());
  std::vector<std::string> lines(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const scenario::ScenarioOutcome& outcome = outcomes[i];
    checks[i].expect(!outcome.failed, "job failed: " + outcome.error);
    const double cpu0 = threadCpu();
    lines[i] = scenario::wire::outcomeLine(i, outcome);
    const scenario::wire::WorkerReply reply = scenario::wire::parseReplyLine(lines[i]);
    const bool same = reply.ok && scenario::wire::outcomeLine(i, reply.outcome) == lines[i];
    layers.wireCpu += threadCpu() - cpu0;
    ++layers.wireJobs;
    checks[i].expect(same, "wire round trip changed the outcome bytes");
    if (!firstRound.empty()) {
      checks[i].expect(lines[i] == firstRound[i], "outcome differs from the first round's");
    }
  }
  checks[0].expect(lines[0] == warmReference, "outcome differs from the warm-up's");
  if (firstRound.empty()) firstRound = lines;

  std::vector<bool> knownFault(jobs.size(), false);
  for (std::size_t i = 0; i < kSearches; ++i) {
    if (!checks[i].failures.empty()) continue;
    if (knownFaultSearch(i) && neverBracketed(outcomes[i].search)) {
      knownFault[i] = true;
    } else {
      checkSearch(outcomes[i].search, checks[i]);
    }
  }
  // DBA against the static split: on the skewed patterns d-HetPNoC's peak is
  // at least Firefly's wherever both searches succeed.
  for (std::size_t set = 0; set < 3; ++set) {
    for (std::size_t pattern = 1; pattern < 4; ++pattern) {
      const std::size_t ff = searchIndex(set, pattern, 0);
      const std::size_t dh = searchIndex(set, pattern, 1);
      if (knownFault[ff] || knownFault[dh] || !checks[ff].failures.empty() ||
          !checks[dh].failures.empty()) {
        continue;
      }
      checks[dh].expect(outcomes[dh].search.peak.metrics.deliveredGbps() >=
                            outcomes[ff].search.peak.metrics.deliveredGbps(),
                        "d-HetPNoC peak below Firefly's");
    }
  }
  for (std::size_t i = kSearches; i < jobs.size(); ++i) {
    checkClosed(closedRunOf(i), jobs[i].spec.params, outcomes[i].metrics, checks[i]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.operation("sweep " + jobName(jobs[i]), checks[i], knownFault[i]);
  }
}

std::uint64_t sweepCycles(const std::vector<scenario::ScenarioJob>& jobs,
                          const std::vector<scenario::ScenarioOutcome>& outcomes) {
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t episodes =
        jobs[i].op == scenario::ScenarioJob::Op::kFindPeak ? outcomes[i].search.sweep.size() : 1;
    cycles += episodes * episodeCycles(jobs[i].spec.params);
  }
  return cycles;
}

/// Replays one executed job on a network built here (profiled or not) and
/// checks that every episode reproduces the job's outcome byte for byte.
void replayJob(const scenario::ScenarioJob& job, const scenario::ScenarioOutcome& outcome,
               bool profiled, Layers& layers, Report& report) {
  auto net = buildNetwork(job.spec.params, profiled, profiled ? &layers.buildMs : nullptr);
  const auto replay = [&](std::optional<double> load, const metrics::RunMetrics& expected) {
    const Episode e = runEpisode(*net, load, false);
    layers.add(e, profiled);
    if (!e.conserved) report.incorrect("replay of " + jobName(job) + ": flits not conserved");
    if (scenario::wire::toJson(e.metrics) != scenario::wire::toJson(expected)) {
      report.incorrect(std::string(profiled ? "traced" : "untraced") + " replay of " +
                       jobName(job) + " differs from the executed job");
    }
  };
  if (job.op == scenario::ScenarioJob::Op::kFindPeak) {
    for (const metrics::LoadPoint& probe : outcome.search.sweep) {
      replay(probe.offeredLoad, probe.metrics);
    }
  } else {
    replay(std::nullopt, outcome.metrics);
  }
}

/// Replays every job untraced then traced, in whole passes, for `seconds`.
void replayPasses(const std::vector<scenario::ScenarioJob>& jobs,
                  const std::vector<scenario::ScenarioOutcome>& outcomes, double seconds,
                  Layers& layers, Report& report) {
  const double start = wallClock();
  do {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (const bool profiled : {false, true}) {
        replayJob(jobs[i], outcomes[i], profiled, layers, report);
      }
    }
  } while (wallClock() - start < seconds);
}

void runSweep(const Options& options, Report& report) {
  // Set-up: binding the grid, the backend and one discarded warm-up search.
  std::vector<double> setups;
  std::vector<scenario::ScenarioJob> jobs;
  std::unique_ptr<scenario::ExecutionBackend> backend;
  std::string warmReference;
  for (int s = 0; s < kSetups; ++s) {
    const double cpu0 = threadCpu();
    jobs = sweepJobs(options.seed);
    scenario::BackendOptions oneThread;
    oneThread.workers = 1;
    backend = scenario::makeBackend(oneThread);
    const std::vector<scenario::ScenarioOutcome> warm = backend->execute({jobs[0]});
    setups.push_back(threadCpu() - cpu0);
    const std::string line = scenario::wire::outcomeLine(0, warm[0]);
    if (s == 0) warmReference = line;
    if (line != warmReference) report.incorrect("warm-up searches disagree");
  }

  // Each job goes through execute() on its own, so that its CPU is seen:
  // one worker runs a batch's jobs in order on the calling thread anyway.
  std::vector<std::string> firstRound;
  std::vector<std::vector<double>> jobCpu(jobs.size());
  std::vector<scenario::ScenarioOutcome> outcomes(jobs.size());
  Layers layers;
  const double start = wallClock();
  do {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double cpu0 = threadCpu();
      outcomes[i] = std::move(backend->execute({jobs[i]}).front());
      jobCpu[i].push_back(threadCpu() - cpu0);
    }
    checkSweepRound(jobs, outcomes, warmReference, firstRound, layers, report);
  } while (!options.trace && wallClock() - start < options.seconds);

  Digest digest;
  for (const std::string& line : firstRound) digest.add(line);
  report.setDigest(digest.hex());

  if (options.trace) {
    std::uint64_t probes = 0;
    std::uint64_t requests = 0;
    std::uint64_t closedCycles = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i < kSearches) {
        probes += outcomes[i].search.sweep.size();
      } else {
        requests += outcomes[i].metrics.requestsCompleted;
        closedCycles += outcomes[i].metrics.measuredCycles;
      }
    }
    layers.probesPerSearch = static_cast<double>(probes) / kSearches;
    layers.requestsPerKcycle = ratio(requests * 1000.0, static_cast<double>(closedCycles));
    replayPasses(jobs, outcomes, options.seconds - (wallClock() - start), layers, report);
    layers.emit(report);
    return;
  }
  // Rounds reproduce the first byte for byte (checked), so they simulate
  // the same cycles.  A run holds only five or six rounds, so a round costs
  // the sum of its jobs' median CPU: a burst of the host that slows one
  // round moves the mean of so few.
  double roundCpu = 0.0;
  for (const std::vector<double>& cpu : jobCpu) roundCpu += median(cpu);
  emitEndToEnd(report, static_cast<double>(sweepCycles(jobs, outcomes)),
               static_cast<double>(jobs.size()), roundCpu, setups, peakRssMb(RUSAGE_SELF));
}

// ---------------------------------------------------------------- stream

constexpr std::size_t kStreamJobs = 2000;
constexpr std::size_t kStreamWarmJobs = 16;
constexpr unsigned kStreamWorkers = 2;
constexpr std::size_t kStreamSamples = 8;

/// Tiny fixed-load jobs cycling through the four Figure 3-3 patterns.
std::vector<scenario::ScenarioJob> streamJobs(std::uint64_t seed) {
  std::vector<scenario::ScenarioJob> jobs;
  for (std::size_t i = 0; i < kStreamJobs; ++i) {
    jobs.push_back({scenario::ScenarioJob::Op::kRun,
                    bind({{"arch", "dhetpnoc"},
                          {"set", "1"},
                          {"pattern", kSweepPatterns[i % 4]},
                          {"load", "0.002"},
                          {"warmup", "100"},
                          {"measure", "300"},
                          {"seed", std::to_string(seed * 1000003ull + i)}})});
  }
  return jobs;
}

double dispatchCpu() { return processCpu() + childrenCpu(); }

void runStream(const Options& options, Report& report) {
  // Set-up: binding the jobs and a discarded warm-up batch, which spawns
  // the workers and runs their handshake.
  std::vector<double> setups;
  std::vector<scenario::ScenarioJob> jobs;
  std::unique_ptr<scenario::dispatch::StreamingBackend> backend;
  for (int s = 0; s < kSetups; ++s) {
    const double cpu0 = dispatchCpu();
    jobs = streamJobs(options.seed);
    backend = std::make_unique<scenario::dispatch::StreamingBackend>(kStreamWorkers);
    const std::vector<scenario::ScenarioJob> warmJobs(jobs.begin(),
                                                      jobs.begin() + kStreamWarmJobs);
    const std::vector<scenario::ScenarioOutcome> warm = backend->execute(warmJobs);
    setups.push_back(dispatchCpu() - cpu0);
    for (const scenario::ScenarioOutcome& outcome : warm) {
      if (outcome.failed) report.incorrect("warm-up job failed: " + outcome.error);
    }
  }

  // A fixed sample of jobs, executed in this process for comparison.
  std::vector<std::pair<std::size_t, std::string>> samples;
  sim::Rng rng(options.seed ^ 0x5eed5a3b1e5ull);
  for (std::size_t k = 0; k < kStreamSamples; ++k) {
    const std::size_t index = rng.nextBelow(kStreamJobs);
    samples.emplace_back(index,
                         scenario::wire::outcomeLine(index, scenario::executeJob(jobs[index])));
  }

  std::vector<std::string> firstRound;
  std::vector<double> roundCpu;
  std::vector<scenario::ScenarioOutcome> outcomes;
  Layers layers;
  const double n = static_cast<double>(kStreamJobs);
  const double start = wallClock();
  do {
    const double wall0 = wallClock();
    const double dispatcher0 = processCpu();
    const double workers0 = childrenCpu();
    outcomes = backend->execute(jobs);
    const double dispatcher = processCpu() - dispatcher0;
    const double workers = childrenCpu() - workers0;
    const double wall = wallClock() - wall0;
    roundCpu.push_back(dispatcher + workers);
    layers.dispatcherCpuUsPerJob = dispatcher * 1e6 / n;
    layers.workerBusy = workers / (kStreamWorkers * wall);
    layers.jobsPerWallS = n / wall;

    std::vector<std::string> lines(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Checks checks;
      checks.expect(!outcomes[i].failed, "job failed: " + outcomes[i].error);
      const double cpu0 = threadCpu();
      const std::string jobLine = scenario::wire::jobLine(i, jobs[i]);
      std::size_t parsedIndex = 0;
      const scenario::ScenarioJob parsed = scenario::wire::parseJobLine(jobLine, parsedIndex);
      lines[i] = scenario::wire::outcomeLine(i, outcomes[i]);
      const scenario::wire::WorkerReply reply = scenario::wire::parseReplyLine(lines[i]);
      const bool sameJob = scenario::wire::jobLine(parsedIndex, parsed) == jobLine;
      const bool sameReply =
          reply.ok && scenario::wire::outcomeLine(reply.index, reply.outcome) == lines[i];
      layers.wireCpu += threadCpu() - cpu0;
      ++layers.wireJobs;
      checks.expect(sameJob && sameReply, "wire round trip changed the job or reply bytes");
      if (!firstRound.empty()) {
        checks.expect(lines[i] == firstRound[i], "outcome differs from the first batch's");
      }
      for (const auto& [index, expected] : samples) {
        if (index == i) {
          checks.expect(lines[i] == expected, "outcome differs from executeJob in process");
        }
      }
      report.operation("stream job " + std::to_string(i), checks);
    }
    if (firstRound.empty()) firstRound = lines;
  } while (!options.trace && wallClock() - start < options.seconds);

  Digest digest;
  for (const std::string& line : firstRound) digest.add(line);
  report.setDigest(digest.hex());

  if (options.trace) {
    layers.dispatcherRssMb = peakRssMb(RUSAGE_SELF);
    replayPasses(jobs, outcomes, options.seconds - (wallClock() - start), layers, report);
    layers.emit(report);
    return;
  }
  // The simulating processes are the workers; the dispatcher's own peak
  // depends on reply interleaving and is a per-layer metric.
  emitEndToEnd(report, n * static_cast<double>(episodeCycles(jobs[0].spec.params)), n,
               mean(roundCpu), setups, peakRssMb(RUSAGE_CHILDREN));
}

// ---------------------------------------------------------------- main

bool parseOptions(int argc, char** argv, Options& options) {
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return haveWorkload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == scenario::kWorkerFlag) {
    return scenario::runWorkerLoop(std::cin, std::cout);
  }
  Options options;
  try {
    if (!parseOptions(argc, argv, options)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::cerr << "usage: pnoc_perfbench --workload <lowload|saturation|sweep|stream> "
                 "--seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  Report report;
  try {
    if (options.workload == "lowload") {
      runSteady(options, kLowload, report);
    } else if (options.workload == "saturation") {
      runSteady(options, kSaturation, report);
    } else if (options.workload == "sweep") {
      runSweep(options, report);
    } else if (options.workload == "stream") {
      runStream(options, report);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << error.what() << "\n";
    return 1;
  }
  report.print(options.workload);
  return 0;
}
