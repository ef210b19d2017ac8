#include "scenario/dispatch/streaming_backend.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include <poll.h>

#include "scenario/dispatch/fleet.hpp"
#include "sim/interrupt.hpp"

namespace pnoc::scenario::dispatch {
namespace {

std::uint64_t nowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StreamingBackend::StreamingBackend(unsigned shards, std::string workerExecutable,
                                   FaultPolicy policy)
    : shards_(shards),
      workerExecutable_(std::move(workerExecutable)),
      policy_(policy) {}

StreamingBackend::StreamingBackend(std::vector<HostEntry> hosts, FaultPolicy policy)
    : hosts_(std::move(hosts)), policy_(policy) {}

unsigned StreamingBackend::workersFor(std::size_t jobCount) const {
  if (!hosts_.empty()) {
    // The hosts file states the fleet size; more workers than jobs would
    // just idle, so clamp like every other backend.
    const std::size_t total = totalWorkers(hosts_);
    const std::size_t clamped = jobCount < total ? jobCount : total;
    return clamped == 0 ? 1 : static_cast<unsigned>(clamped);
  }
  return resolveWorkerCount(shards_, jobCount);
}

std::vector<std::unique_ptr<WorkerTransport>> StreamingBackend::makeTransports(
    std::size_t jobCount) const {
  const unsigned workers = workersFor(jobCount);
  std::vector<std::unique_ptr<WorkerTransport>> transports;
  if (!hosts_.empty()) {
    transports = transportsFor(hosts_);
    if (transports.size() > workers) transports.resize(workers);
    return transports;
  }
  for (unsigned w = 0; w < workers; ++w) {
    transports.push_back(std::make_unique<LocalProcessTransport>(workerExecutable_));
  }
  return transports;
}

std::vector<ScenarioOutcome> StreamingBackend::execute(
    const std::vector<ScenarioJob>& jobs) {
  stats_ = Stats{};
  if (jobs.empty()) return {};
  std::vector<ScenarioOutcome> outcomes;
  std::vector<bool> done;
  std::size_t doneCount = 0;
  std::size_t nextJob = 0;
  std::map<std::size_t, std::string> failures;  // fail_soft=0 verdicts

  const auto complete = [&](std::size_t index, ScenarioOutcome outcome) {
    done[index] = true;
    ++doneCount;
    outcomes[index] = std::move(outcome);
    if (outcomes[index].failed) {
      ++stats_.failedJobs;
      if (!policy_.failSoft) {
        failures.emplace(index, outcomes[index].error);
        return;
      }
    }
    if (observer_) observer_(index, outcomes[index]);
  };
  FleetManager::Callbacks callbacks;
  callbacks.nextUnit = [&]() -> std::optional<FleetUnit> {
    if (nextJob == jobs.size()) return std::nullopt;
    const std::size_t index = nextJob++;
    return FleetUnit{UnitRef{0, index}, jobs[index], index};
  };
  callbacks.unitDone = [&](const UnitRef& ref, ScenarioOutcome outcome) {
    complete(ref.unit, std::move(outcome));
  };
  FleetManager fleet(policy_, std::move(callbacks));
  const auto recordStats = [&] {
    const FleetManager::Stats fleetStats = fleet.stats();
    stats_.retries = fleetStats.retries;
    stats_.respawns = fleetStats.respawns;
    stats_.deadlineKills = fleetStats.deadlineKills;
    stats_.protocolDeaths = fleetStats.protocolDeaths;
    stats_.launchFailures = fleetStats.launchFailures;
    stats_.maxInFlight = fleetStats.maxInFlight;
    stats_.jobsPerWorker.clear();
    for (const FleetManager::WorkerStatus& worker : fleet.workerStatus()) {
      stats_.jobsPerWorker.push_back(worker.completed);
    }
  };
  const auto abort = [&](const std::string& what) {
    recordStats();
    throw std::runtime_error("stream dispatch: " + what);
  };

  // Launches only fork and exec; the connect budget runs on each worker's
  // handshake ack, which the poll loop below waits for in parallel.  The
  // workers fork before the result vector is allocated: a forked child's
  // peak RSS starts at its parent's.
  for (auto& transport : makeTransports(jobs.size())) {
    fleet.addWorker(std::move(transport), nowMs());
  }
  outcomes.resize(jobs.size());
  done.resize(jobs.size(), false);
  while (doneCount < jobs.size()) {
    if (sim::interruptRequested()) {
      abort("interrupted by signal; aborting the dispatch (completed jobs were"
            " delivered — resume=1 re-dispatches the rest)");
    }
    if (fleet.liveWorkers() == 0) {
      // A collapsed fleet: every unfinished job fails, none hangs.
      fleet.dropUnitsForJob(0);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (done[i]) continue;
        ScenarioOutcome outcome;
        outcome.op = jobs[i].op;
        outcome.spec = jobs[i].spec;
        outcome.failed = true;
        outcome.error = policy_.failSoft
                            ? "no live workers remained"
                            : "no live workers remained — " + fleet.lastNote();
        complete(i, std::move(outcome));
      }
      break;
    }
    const std::uint64_t now = nowMs();
    fleet.pump(now);
    std::vector<pollfd> fds = fleet.pollFds();
    int timeoutMs = -1;
    if (const auto deadline = fleet.nextDeadlineMs()) {
      timeoutMs = *deadline > now ? static_cast<int>(*deadline - now) : 0;
    }
    // EINTR falls through: a graceful signal surfaces at the loop's top.
    if (::poll(fds.data(), fds.size(), timeoutMs) < 0 && errno != EINTR) {
      abort(std::string("poll failed: ") + std::strerror(errno));
    }
    const std::uint64_t after = nowMs();
    for (const pollfd& fd : fds) {
      if (fd.revents != 0) fleet.onReadable(fd.fd, after);
    }
    fleet.onTick(after);
  }
  recordStats();
  const std::vector<std::string> teardown = fleet.closeAndReap();
  if (!failures.empty() || !teardown.empty()) {
    throwBatchFailure(failures, jobs.size(), teardown);
  }
  return outcomes;
}

}  // namespace pnoc::scenario::dispatch
