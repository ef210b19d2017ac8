// ScenarioRunner: the batch entry point of the scenario layer — now a thin
// façade that selects an ExecutionBackend and forwards to it.
//
// Callers describe WHAT to run (ScenarioSpecs) and, via BackendOptions,
// WHERE it runs: a std::thread pool in this process (backend=threads, the
// default), or a fleet of persistent worker processes dealing jobs
// dynamically across local or multi-host transports (backend=stream, also
// spelled backend=processes).
// Results are merged by index and are bit-identical across backends and
// worker counts — the choice is purely about address spaces and
// scheduling, never about numbers.
//
// The record* helpers are the single code path through which every bench
// binary (and the pnoc_run driver) emits its BENCH_*.json records.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/saturation.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/json_record.hpp"
#include "scenario/scenario_spec.hpp"

namespace pnoc::scenario {

class ScenarioRunner {
 public:
  /// In-process thread pool; `threads` == 0: auto (PNOC_BENCH_THREADS, else
  /// hardware concurrency — see resolveWorkerCount()).
  explicit ScenarioRunner(unsigned threads = 0);

  /// Backend per options (e.g. scenario::Cli's parsed backend=/shards= keys).
  explicit ScenarioRunner(const BackendOptions& options);

  /// The selected backend (capability / worker-count introspection).
  ExecutionBackend& backend() const { return *backend_; }

  /// Batch API: one fixed-load run per spec; results indexed like `specs`.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs) const;

  /// Batch saturation searches, one per spec.  Each search's internal
  /// ramp/bisection stays sequential (later loads depend on earlier results)
  /// and reuses one network via reset().
  std::vector<ScenarioPeak> findPeaks(const std::vector<ScenarioSpec>& specs) const;

  /// Mixed batch (runs and searches in one dispatch / one worker session).
  std::vector<ScenarioOutcome> execute(const std::vector<ScenarioJob>& jobs) const;

  /// One fixed-load run (builds, runs, discards a network).
  static metrics::RunMetrics runOne(const ScenarioSpec& spec) {
    return runScenario(spec);
  }

  /// One saturation search over a single reused network.
  static metrics::PeakSearchResult findPeakOne(const ScenarioSpec& spec) {
    return findScenarioPeak(spec);
  }

  /// The search schedule for a spec.
  static metrics::PeakSearchOptions peakOptions(const ScenarioSpec& spec) {
    return peakOptionsFor(spec);
  }

 private:
  std::unique_ptr<ExecutionBackend> backend_;
};

/// One "run" record: scenario identity (arch/set/pattern/seed/label) plus
/// the headline quantities of a fixed-load run.
JsonRecord& recordRun(JsonRecorder& recorder, const ScenarioSpec& spec,
                      const metrics::RunMetrics& metrics,
                      const std::string& recordName = "run");

/// One "peak" record: scenario identity plus the saturation-search result.
JsonRecord& recordPeak(JsonRecorder& recorder, const ScenarioPeak& peak,
                       const std::string& recordName = "peak");

/// The per-binary wall-time record CI trends ("timing": wall_seconds, points).
JsonRecord& recordTiming(JsonRecorder& recorder, double wallSeconds,
                         std::size_t points);

}  // namespace pnoc::scenario
