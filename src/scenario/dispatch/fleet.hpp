// FleetManager: the one multi-process executor — an elastic fleet of
// persistent protocol workers driven from an external poll loop.
//
// Both consumers drive the same machinery: StreamingBackend (backend=stream,
// and its spelling backend=processes) feeds it a fixed vector of units and
// polls until every unit is done; the pnoc_serve daemon feeds it an
// OPEN-ENDED stream of units pulled from its job queue and interleaves the
// fleet's fds with its client sockets.  The fleet owns every worker-side
// rule: handshake with build-stamp validation, pipelined in-order dealing,
// retry/backoff, deadline kills, respawns, and the
// charge-the-front/refund-the-rest death semantics (FaultPolicy knobs,
// dispatch/fault_policy.hpp).
//
//   FleetManager fleet(policy, callbacks);
//   fleet.addWorker(std::move(transport), nowMs);  // repeatable at runtime
//   loop {
//     fleet.pump(nowMs);                         // deal units to capacity
//     poll(fleet.pollFds() + your own fds, min(fleet.nextDeadlineMs(), ...));
//     for (ready worker fd) fleet.onReadable(fd, nowMs);
//     fleet.onTick(nowMs);                       // deadlines, backoff expiry
//   }
//
// Session shape per worker (over any WorkerTransport):
//
//   parent -> worker   {"pnoc_stream_hello":1,...}   handshake (wire.hpp)
//   worker -> parent   {"pnoc_stream_ack":1,...}     within the connect budget
//   parent -> worker   job lines, up to policy.pipeline in flight
//   worker -> parent   one reply line per job line, in order
//   parent -> worker   stdin EOF (closeAndReap)   -> worker exits 0
//
// Units enter via callbacks.nextUnit and leave via callbacks.unitDone —
// ALWAYS: the fleet is fail-soft per unit, so a unit that exhausts its retry
// budget (or fails in-band) completes as a failed ScenarioOutcome carrying a
// deterministic, pid-free cause.  Whether a failure aborts anything is the
// caller's policy (StreamingBackend throws after the batch unless
// fail_soft=1; the daemon records it).  Workers join with addWorker() and
// leave with removeWorker(); a removed or dead worker's in-flight units are
// refunded to the queue, so elasticity never drops a unit.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>

#include "obs/registry.hpp"
#include "scenario/dispatch/fault_policy.hpp"
#include "scenario/dispatch/worker_transport.hpp"
#include "scenario/execution_backend.hpp"

namespace pnoc::scenario::dispatch {

/// Names one unit: job id + index into that job's grid (a batch is job 0).
struct UnitRef {
  std::uint64_t job = 0;
  std::size_t unit = 0;
};

/// One schedulable unit with its payload, as its source hands it over.
struct FleetUnit {
  UnitRef ref;
  ScenarioJob job;
  /// The index the unit travels under on the wire — and so the index
  /// PNOC_TEST_FAULT keys on.  Chosen by the source (a batch uses the job's
  /// index in its batch, the daemon a running sequence number) and kept
  /// across every retry of the unit.
  std::size_t wireIndex = 0;
};

class FleetManager {
 public:
  struct Callbacks {
    /// Pulls the next unit to dispatch; std::nullopt when nothing pends.
    std::function<std::optional<FleetUnit>()> nextUnit;
    /// A unit completed — successfully or (retry budget exhausted, in-band
    /// error) as a failed outcome.  Fires on the loop thread.
    std::function<void(const UnitRef&, ScenarioOutcome)> unitDone;
  };

  /// Cumulative fault/pipelining counters (never reset; the status
  /// endpoint reports them verbatim).  A VALUE SNAPSHOT over the fleet's
  /// registry counters (fleet_*_total / fleet_max_in_flight) — the metrics
  /// endpoint and this struct read the same cells by construction.
  struct Stats {
    unsigned retries = 0;
    unsigned respawns = 0;
    unsigned deadlineKills = 0;
    unsigned protocolDeaths = 0;
    unsigned launchFailures = 0;
    unsigned failedUnits = 0;
    unsigned maxInFlight = 0;  // high-water in-flight units on one worker
  };

  struct WorkerStatus {
    std::size_t worker = 0;
    std::string description;
    std::string state;  // connecting | ready | dead | removed
    unsigned completed = 0;
    std::size_t inFlight = 0;
    unsigned maxInFlight = 0;
    unsigned respawns = 0;
  };

  /// `registry` hosts the fleet_* metrics (the daemon passes its own so one
  /// snapshot covers queue+fleet+journal); nullptr makes the fleet own a
  /// private registry — same behaviour, uncoordinated exposition.
  FleetManager(FaultPolicy policy, Callbacks callbacks,
               obs::Registry* registry = nullptr);
  ~FleetManager();  // terminates every live worker (bounded escalation)

  /// Spawns one worker through `transport` and starts its handshake; the
  /// slot becomes ready when the ack (with a matching build stamp) arrives
  /// within the connect budget.  Returns the slot index.
  std::size_t addWorker(std::unique_ptr<WorkerTransport> transport,
                        std::uint64_t nowMs);

  /// Removes one worker: its in-flight units are returned to the queue
  /// UNCHARGED and the process is terminated.  False (with *error named)
  /// when the index is unknown or already removed.
  bool removeWorker(std::size_t worker, std::string* error);

  /// Deals queued retries and fresh units to every ready worker with
  /// pipeline capacity.
  void pump(std::uint64_t nowMs);

  /// The worker fds to poll for readability.
  std::vector<pollfd> pollFds() const;

  /// Handles a readable worker fd (replies, handshake acks, EOF deaths).
  void onReadable(int fd, std::uint64_t nowMs);

  /// Time-based work: connect/job deadlines, backoff expiry.  Call once per
  /// loop iteration, after the poll.
  void onTick(std::uint64_t nowMs);

  /// The soonest pending deadline (connect, front-job, retry backoff), as
  /// an absolute nowMs-scale time; std::nullopt when nothing is armed.
  std::optional<std::uint64_t> nextDeadlineMs() const;

  /// Drops every queued-but-undealt retry of `jobId` and recalls nothing in
  /// flight: cancel support — in-flight units of a canceled job finish on
  /// their workers and the caller discards the results.
  void dropUnitsForJob(std::uint64_t jobId);

  /// Success-path teardown: EOF every live worker's stdin, reap each within
  /// the grace (SIGKILL past it) and return one failure text per worker
  /// that did not exit cleanly — a worker that corrupted its protocol must
  /// not pass silently just because every unit has a result.
  std::vector<std::string> closeAndReap();

  /// True when no unit is in flight and no retry is queued.
  bool idle() const;

  std::size_t readyWorkers() const;
  std::size_t liveWorkers() const;  // ready + connecting
  std::vector<WorkerStatus> workerStatus() const;
  Stats stats() const;
  /// The most recent death/connect note (what a collapsed fleet reports).
  const std::string& lastNote() const { return lastNote_; }

 private:
  struct Flight {
    FleetUnit unit;
    unsigned attempts = 0;  // faulted dispatches so far
  };

  enum class SlotState { kConnecting, kReady, kDead, kRemoved };

  struct Slot {
    std::unique_ptr<WorkerTransport> transport;
    WorkerConnection conn;
    SlotState state = SlotState::kConnecting;
    std::string buffer;
    std::deque<Flight> inFlight;  // front is the unit the worker is executing
    std::uint64_t connectDeadlineMs = 0;  // while connecting
    std::uint64_t frontDeadlineMs = 0;    // job deadline for front(); 0: none
    unsigned completed = 0;
    unsigned maxInFlight = 0;
    unsigned respawns = 0;
    bool launchFailed = false;  // connect-class death: never respawn
    std::uint64_t handshakeSpanId = 0;  // open worker-handshake trace span
  };

  struct DelayedFlight {
    Flight flight;
    std::uint64_t readyAtMs = 0;
  };

  std::uint64_t connectBudgetMs(const Slot& slot) const;
  void startWorker(Slot& slot, std::uint64_t nowMs);
  std::string killSlot(Slot& slot, SlotState endState);
  void refundInFlight(Slot& slot);
  void chargeFrontRefundRest(Slot& slot, const std::string& loudWho,
                             const std::string& recordDetail,
                             std::uint64_t nowMs);
  void unitFaulted(Flight flight, const std::string& loudWho,
                   const std::string& recordDetail, std::uint64_t nowMs);
  void recordUnitFailure(const Flight& flight, const std::string& reason);
  void connectFailure(Slot& slot, const std::string& what);
  void workerFault(Slot& slot, const std::string& what,
                   const std::string& recordDetail, std::uint64_t nowMs);
  void maybeRespawn(Slot& slot, std::uint64_t nowMs);
  void handleLine(Slot& slot, const std::string& line, std::uint64_t nowMs);
  void handleDeath(Slot& slot, std::uint64_t nowMs);
  void releaseDelayed(std::uint64_t nowMs);
  void note(const std::string& text);
  void endHandshakeSpan(Slot& slot);
  void endUnitSpan(const Flight& flight);

  FaultPolicy policy_;
  Callbacks callbacks_;
  std::vector<Slot> slots_;
  std::deque<Flight> retryQueue_;        // refunded/retried units, dealt first
  std::vector<DelayedFlight> delayed_;   // units waiting out a backoff
  std::uint64_t nextHandshakeId_ = 0;  // trace span ids across respawns
  std::string lastNote_;

  // Registry-backed fault counters (see Stats); the registry outlives the
  // handles: either `registry` from the ctor or ownedRegistry_.
  std::unique_ptr<obs::Registry> ownedRegistry_;
  obs::Counter statRetries_;
  obs::Counter statRespawns_;
  obs::Counter statDeadlineKills_;
  obs::Counter statProtocolDeaths_;
  obs::Counter statLaunchFailures_;
  obs::Counter statFailedUnits_;
  obs::Counter statUnitsCompleted_;
  obs::Gauge statMaxInFlight_;
};

}  // namespace pnoc::scenario::dispatch
