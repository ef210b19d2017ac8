// StreamingBackend: the ExecutionBackend face of the dispatch subsystem
// (`backend=stream` — and its other spelling `backend=processes` — on every
// scenario binary and pnoc_run).
//
// execute() is a short batch driver over the one multi-process executor,
// FleetManager (dispatch/fleet.hpp): the batch becomes a vector source of
// units, the fleet deals them one line at a time to whichever persistent
// worker is free, and a poll loop runs until every unit is done.  Workers
// come from either
//
//   * N local re-execs of this binary (`shards=N`), or
//   * a hosts file (`hosts=@hosts.json`) expanding to launcher-wrapped
//     workers on other machines/containers (dispatch/hosts_file.hpp),
//
// and results are byte-identical to InProcessBackend regardless of worker
// count, transport, or completion order.  The batch rules on top of the
// fleet's per-unit ones:
//
//   * A unit travels under its index in the batch, on every retry — so
//     PNOC_TEST_FAULT=crash@1 hits job 1 each time it is dealt.
//   * The outcome observer (ExecutionBackend::setOutcomeObserver) fires on
//     the calling thread per completed job; under fail_soft=1 also for jobs
//     completing AS failures.  pnoc_run's checkpointed resume hangs off it.
//   * fail_soft=0: failed jobs are reported after the batch, in one
//     exception naming the lowest failed job and its cause.  A fleet with no
//     live worker left fails its unfinished jobs instead of hanging.
//   * Success-path teardown: stdin EOF, each worker reaped within grace_ms,
//     a nonzero exit turned into a failure.
//   * A pending SIGINT/SIGTERM (sim::installInterruptHandlers) aborts the
//     batch by name; the fleet's destructor tears the workers down.
#pragma once

#include <string>
#include <vector>

#include "scenario/dispatch/hosts_file.hpp"
#include "scenario/dispatch/worker_transport.hpp"
#include "scenario/execution_backend.hpp"

namespace pnoc::scenario::dispatch {

class StreamingBackend : public ExecutionBackend {
 public:
  /// How the most recent execute() went — the observable half of dynamic
  /// dealing and of every fault-handling path (tests assert against these).
  struct Stats {
    std::vector<unsigned> jobsPerWorker;  // completed jobs per worker slot
    unsigned retries = 0;         // jobs re-dealt after a fault
    unsigned respawns = 0;        // workers relaunched through their slot
    unsigned deadlineKills = 0;   // workers killed for blowing a job deadline
    unsigned protocolDeaths = 0;  // workers killed for corrupt replies
    unsigned launchFailures = 0;  // slots that never produced a ready worker
    unsigned failedJobs = 0;      // jobs that completed as failures
    unsigned maxInFlight = 0;     // high-water in-flight jobs on one worker
  };

  /// Local fleet: `shards` workers (0 = auto, see resolveWorkerCount),
  /// re-execing `workerExecutable` ("" = this binary).  `policy` governs
  /// every failure path (dispatch/fault_policy.hpp).
  explicit StreamingBackend(unsigned shards = 0, std::string workerExecutable = "",
                            FaultPolicy policy = {});

  /// Hosts-file fleet: one worker per slot listed in `hosts`.
  explicit StreamingBackend(std::vector<HostEntry> hosts, FaultPolicy policy = {});

  std::string name() const override { return "stream"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{/*crossProcess=*/true, /*deterministicMerge=*/true};
  }
  unsigned workersFor(std::size_t jobCount) const override;

  std::vector<ScenarioOutcome> execute(const std::vector<ScenarioJob>& jobs) override;

  const Stats& lastStats() const { return stats_; }

 private:
  std::vector<std::unique_ptr<WorkerTransport>> makeTransports(
      std::size_t jobCount) const;

  unsigned shards_ = 0;
  std::string workerExecutable_;
  std::vector<HostEntry> hosts_;  // empty: local workers
  FaultPolicy policy_;
  Stats stats_;
};

}  // namespace pnoc::scenario::dispatch
