#include "scenario/dispatch/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <sys/wait.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "scenario/wire.hpp"

namespace pnoc::scenario::dispatch {
namespace {

/// PNOC_STREAM_ACK_TIMEOUT_MS overrides every connect/ack budget (tests,
/// very slow fleets); 0 / unset defers to the policy and per-host values.
std::uint64_t envConnectTimeoutMs() {
  if (const char* env = std::getenv("PNOC_STREAM_ACK_TIMEOUT_MS")) {
    const long ms = std::strtol(env, nullptr, 10);
    if (ms > 0) return static_cast<std::uint64_t>(ms);
  }
  return 0;
}

/// A worker's name in loud messages; fail-soft records never carry it (a
/// pid would make two identically-faulty runs record different bytes).
std::string describeWorker(const WorkerConnection& conn) {
  return conn.description + " (pid " + std::to_string(conn.pid) + ")";
}

}  // namespace

FleetManager::FleetManager(FaultPolicy policy, Callbacks callbacks,
                           obs::Registry* registry)
    : policy_(policy), callbacks_(std::move(callbacks)) {
  // A worker dying mid-write must surface as EPIPE, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (registry == nullptr) {
    ownedRegistry_ = std::make_unique<obs::Registry>();
    registry = ownedRegistry_.get();
  }
  statRetries_ = registry->counter("fleet_retries_total");
  statRespawns_ = registry->counter("fleet_respawns_total");
  statDeadlineKills_ = registry->counter("fleet_deadline_kills_total");
  statProtocolDeaths_ = registry->counter("fleet_protocol_deaths_total");
  statLaunchFailures_ = registry->counter("fleet_launch_failures_total");
  statFailedUnits_ = registry->counter("fleet_failed_units_total");
  statUnitsCompleted_ = registry->counter("fleet_units_completed_total");
  statMaxInFlight_ = registry->gauge("fleet_max_in_flight");
}

FleetManager::Stats FleetManager::stats() const {
  Stats s;
  s.retries = static_cast<unsigned>(statRetries_.value());
  s.respawns = static_cast<unsigned>(statRespawns_.value());
  s.deadlineKills = static_cast<unsigned>(statDeadlineKills_.value());
  s.protocolDeaths = static_cast<unsigned>(statProtocolDeaths_.value());
  s.launchFailures = static_cast<unsigned>(statLaunchFailures_.value());
  s.failedUnits = static_cast<unsigned>(statFailedUnits_.value());
  s.maxInFlight = static_cast<unsigned>(statMaxInFlight_.value());
  return s;
}

void FleetManager::endHandshakeSpan(Slot& slot) {
  if (slot.handshakeSpanId == 0) return;
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->asyncEnd("worker-handshake", "fleet", slot.handshakeSpanId);
  }
  slot.handshakeSpanId = 0;
}

void FleetManager::endUnitSpan(const Flight& flight) {
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->asyncEnd("unit-execution", "fleet", flight.unit.wireIndex);
  }
}

FleetManager::~FleetManager() {
  for (Slot& slot : slots_) {
    terminateWorker(slot.conn, policy_.graceMs);
  }
}

void FleetManager::note(const std::string& text) {
  lastNote_ = text;
  std::fprintf(stderr, "pnoc fleet: %s\n", text.c_str());
}

std::uint64_t FleetManager::connectBudgetMs(const Slot& slot) const {
  if (envConnectTimeoutMs() != 0) return envConnectTimeoutMs();
  if (slot.transport != nullptr && slot.transport->connectTimeoutMs() != 0) {
    return slot.transport->connectTimeoutMs();
  }
  return policy_.connectTimeoutMs;
}

void FleetManager::startWorker(Slot& slot, std::uint64_t nowMs) {
  try {
    slot.conn = slot.transport->launch();
  } catch (const std::exception& error) {
    slot.state = SlotState::kDead;
    slot.launchFailed = true;
    statLaunchFailures_.inc();
    note(slot.transport->describe() + " failed to launch: " + error.what());
    return;
  }
  slot.state = SlotState::kConnecting;
  slot.buffer.clear();
  slot.connectDeadlineMs = nowMs + connectBudgetMs(slot);
  if (obs::TraceWriter* writer = obs::trace()) {
    slot.handshakeSpanId = ++nextHandshakeId_;
    writer->asyncBegin("worker-handshake", "fleet", slot.handshakeSpanId);
  }
  // Handshake hello (carries this build's stamp); the ack is validated when
  // the worker's first line arrives, so a whole fleet connects in parallel:
  // a slow host costs its own connect time, never the sum over hosts.
  if (!writeAllToWorker(slot.conn.stdinFd, wire::streamHelloLine() + "\n")) {
    connectFailure(slot, describeWorker(slot.conn) + " died at the handshake");
  }
}

std::size_t FleetManager::addWorker(std::unique_ptr<WorkerTransport> transport,
                                    std::uint64_t nowMs) {
  Slot slot;
  slot.transport = std::move(transport);
  slots_.push_back(std::move(slot));
  startWorker(slots_.back(), nowMs);
  return slots_.size() - 1;
}

bool FleetManager::removeWorker(std::size_t worker, std::string* error) {
  if (worker >= slots_.size()) {
    if (error != nullptr) {
      *error = "no worker " + std::to_string(worker) + " (fleet has " +
               std::to_string(slots_.size()) + " slot(s))";
    }
    return false;
  }
  Slot& slot = slots_[worker];
  if (slot.state == SlotState::kRemoved) {
    if (error != nullptr) {
      *error = "worker " + std::to_string(worker) + " was already removed";
    }
    return false;
  }
  // In-flight units return to the retry queue UNCHARGED — removal is an
  // operator action, not a fault of the unit.
  endHandshakeSpan(slot);
  refundInFlight(slot);
  terminateWorker(slot.conn, policy_.graceMs);
  slot.state = SlotState::kRemoved;
  note("removed " + slot.transport->describe() + " (worker " +
       std::to_string(worker) + ")");
  return true;
}

std::string FleetManager::killSlot(Slot& slot, SlotState endState) {
  endHandshakeSpan(slot);
  const int status = terminateWorker(slot.conn, policy_.graceMs);
  slot.state = endState;
  slot.buffer.clear();
  slot.frontDeadlineMs = 0;
  return status < 0 ? "could not be reaped" : describeWaitStatus(status);
}

void FleetManager::refundInFlight(Slot& slot) {
  // Order-preserving reverse push_front: the refunded units re-deal in the
  // order the dead worker would have executed them.
  while (!slot.inFlight.empty()) {
    endUnitSpan(slot.inFlight.back());
    retryQueue_.push_front(std::move(slot.inFlight.back()));
    slot.inFlight.pop_back();
  }
}

void FleetManager::chargeFrontRefundRest(Slot& slot, const std::string& loudWho,
                                         const std::string& recordDetail,
                                         std::uint64_t nowMs) {
  // The FRONT unit is the one the worker was executing: it is charged a
  // retry.  The queued-behind units never started and go back uncharged.
  if (slot.inFlight.empty()) return;
  Flight front = std::move(slot.inFlight.front());
  slot.inFlight.pop_front();
  endUnitSpan(front);
  refundInFlight(slot);
  unitFaulted(std::move(front), loudWho, recordDetail, nowMs);
}

void FleetManager::unitFaulted(Flight flight, const std::string& loudWho,
                               const std::string& recordDetail,
                               std::uint64_t nowMs) {
  ++flight.attempts;
  if (flight.attempts <= policy_.retries) {
    statRetries_.inc();
    const std::uint64_t backoff = backoffMsForAttempt(policy_, flight.attempts);
    if (obs::TraceWriter* writer = obs::trace()) {
      writer->instant(backoff != 0 ? "retry-backoff" : "retry", "fleet");
    }
    note(loudWho + " while running job " + std::to_string(flight.unit.ref.job) +
         " unit " + std::to_string(flight.unit.ref.unit) + "; redispatching" +
         " (attempt " + std::to_string(flight.attempts + 1) + " of " +
         std::to_string(policy_.retries + 1) + ")" +
         (backoff != 0 ? " after " + std::to_string(backoff) + " ms" : ""));
    if (backoff == 0) {
      retryQueue_.push_front(std::move(flight));  // retries jump the queue
    } else {
      delayed_.push_back(DelayedFlight{std::move(flight), nowMs + backoff});
    }
    return;
  }
  recordUnitFailure(flight, recordDetail + " (retry budget of " +
                                std::to_string(policy_.retries) + " exhausted)");
}

void FleetManager::recordUnitFailure(const Flight& flight,
                                     const std::string& reason) {
  statFailedUnits_.inc();
  ScenarioOutcome outcome;
  outcome.op = flight.unit.job.op;
  outcome.spec = flight.unit.job.spec;
  outcome.failed = true;
  outcome.error = reason;
  note("job " + std::to_string(flight.unit.ref.job) + " unit " +
       std::to_string(flight.unit.ref.unit) + " failed: " + reason);
  if (callbacks_.unitDone) callbacks_.unitDone(flight.unit.ref, std::move(outcome));
}

void FleetManager::connectFailure(Slot& slot, const std::string& what) {
  // The host never proved it can run jobs: retire the slot (no respawn) and
  // refund anything dealt to it uncharged.
  killSlot(slot, SlotState::kDead);
  slot.launchFailed = true;
  statLaunchFailures_.inc();
  refundInFlight(slot);
  note(what);
}

void FleetManager::workerFault(Slot& slot, const std::string& what,
                               const std::string& recordDetail,
                               std::uint64_t nowMs) {
  // A worker whose protocol is corrupt cannot be trusted with further
  // units: kill it, charge its front unit a retry, and let the slot respawn.
  statProtocolDeaths_.inc();
  const std::string who = describeWorker(slot.conn);
  killSlot(slot, SlotState::kDead);
  note(who + " " + what + " (worker killed)");
  chargeFrontRefundRest(slot, who + " " + what, recordDetail, nowMs);
  maybeRespawn(slot, nowMs);
}

void FleetManager::maybeRespawn(Slot& slot, std::uint64_t nowMs) {
  if (slot.launchFailed || slot.respawns >= policy_.respawns) return;
  ++slot.respawns;
  statRespawns_.inc();
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->instant("respawn", "fleet");
  }
  note("respawning " + slot.transport->describe() + " (respawn " +
       std::to_string(slot.respawns) + " of " + std::to_string(policy_.respawns) +
       ")");
  startWorker(slot, nowMs);
}

void FleetManager::pump(std::uint64_t nowMs) {
  releaseDelayed(nowMs);
  const unsigned depth = policy_.pipeline == 0 ? 1 : policy_.pipeline;
  for (Slot& slot : slots_) {
    // Ready workers only: a connecting worker has not proven its build
    // stamp yet, and dealing to it would race the handshake.  With
    // pipeline > 1 a worker's next line is already queued on its stdin
    // while the current unit simulates — the round trip hides behind work.
    while (slot.state == SlotState::kReady && slot.inFlight.size() < depth) {
      Flight flight;
      if (!retryQueue_.empty()) {
        flight = std::move(retryQueue_.front());
        retryQueue_.pop_front();
      } else {
        std::optional<FleetUnit> unit =
            callbacks_.nextUnit ? callbacks_.nextUnit() : std::nullopt;
        if (!unit) return;  // queue is dry — nothing to deal anywhere
        flight.unit = std::move(*unit);
      }
      const std::string line =
          wire::jobLine(flight.unit.wireIndex, flight.unit.job) + "\n";
      bool written;
      {
        const obs::ScopedSpan span("dispatch", "fleet");
        written = writeAllToWorker(slot.conn.stdinFd, line);
      }
      if (written) {
        if (obs::TraceWriter* writer = obs::trace()) {
          writer->asyncBegin("unit-execution", "fleet", flight.unit.wireIndex);
        }
        if (slot.inFlight.empty() && policy_.jobDeadlineMs != 0) {
          slot.frontDeadlineMs = nowMs + policy_.jobDeadlineMs;
        }
        slot.inFlight.push_back(std::move(flight));
        const auto inFlightNow = static_cast<unsigned>(slot.inFlight.size());
        slot.maxInFlight = std::max(slot.maxInFlight, inFlightNow);
        statMaxInFlight_.observeMax(inFlightNow);
      } else {
        // Died taking the line: this unit goes back untouched; queued units
        // are handled like any death — front charged, rest refunded.
        retryQueue_.push_front(std::move(flight));
        const std::string who = describeWorker(slot.conn);
        const std::string end = killSlot(slot, SlotState::kDead);
        if (slot.inFlight.empty()) {
          note(who + " " + end + " while idle");
        } else {
          chargeFrontRefundRest(slot, who + " " + end, "worker death: " + end,
                                nowMs);
        }
        maybeRespawn(slot, nowMs);
      }
    }
  }
}

std::vector<pollfd> FleetManager::pollFds() const {
  // Idle workers are polled too: their only possible events are the
  // handshake ack and EOF, and seeing an idle death promptly keeps it a
  // tolerated (and healed) anomaly.
  std::vector<pollfd> fds;
  for (const Slot& slot : slots_) {
    if (slot.state == SlotState::kConnecting || slot.state == SlotState::kReady) {
      fds.push_back(pollfd{slot.conn.stdoutFd, POLLIN, 0});
    }
  }
  return fds;
}

void FleetManager::onReadable(int fd, std::uint64_t nowMs) {
  for (Slot& slot : slots_) {
    if (slot.conn.stdoutFd != fd ||
        (slot.state != SlotState::kConnecting && slot.state != SlotState::kReady)) {
      continue;
    }
    char buffer[65536];
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      handleDeath(slot, nowMs);
      return;
    }
    if (n == 0) {
      handleDeath(slot, nowMs);
      return;
    }
    slot.buffer.append(buffer, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((slot.state == SlotState::kConnecting ||
            slot.state == SlotState::kReady) &&
           (newline = slot.buffer.find('\n')) != std::string::npos) {
      const std::string line = slot.buffer.substr(0, newline);
      slot.buffer.erase(0, newline + 1);
      if (!line.empty()) handleLine(slot, line, nowMs);
    }
    return;
  }
}

void FleetManager::handleLine(Slot& slot, const std::string& line,
                              std::uint64_t nowMs) {
  if (slot.state == SlotState::kConnecting) {
    try {
      wire::checkStreamAck(line);
    } catch (const std::runtime_error& error) {
      // Bad ack — wrong protocol version or mismatched build stamp: the
      // host runs SOMETHING, but not this build; retire it.
      connectFailure(slot, describeWorker(slot.conn) + ": " + error.what());
      return;
    }
    slot.state = SlotState::kReady;
    endHandshakeSpan(slot);
    return;
  }
  wire::WorkerReply reply;
  try {
    reply = wire::parseReplyLine(line);
  } catch (const std::exception& error) {
    workerFault(slot, std::string("sent an unparseable reply: ") + error.what(),
                "worker-protocol death: unparseable reply", nowMs);
    return;
  }
  // In-order pipeline: the reply must answer the FRONT of this worker's
  // queue (it executes stdin lines sequentially) — anything else is
  // corruption.
  if (slot.inFlight.empty() ||
      reply.index != slot.inFlight.front().unit.wireIndex) {
    workerFault(slot,
                "replied for job " + std::to_string(reply.index) +
                    " out of order",
                "worker-protocol death: out-of-order reply", nowMs);
    return;
  }
  Flight flight = std::move(slot.inFlight.front());
  slot.inFlight.pop_front();
  endUnitSpan(flight);
  statUnitsCompleted_.inc();
  // The next queued unit is now the one the worker is executing: its
  // deadline budget starts here.
  if (!slot.inFlight.empty() && policy_.jobDeadlineMs != 0) {
    slot.frontDeadlineMs = nowMs + policy_.jobDeadlineMs;
  } else if (slot.inFlight.empty()) {
    slot.frontDeadlineMs = 0;
  }
  ++slot.completed;
  if (!reply.ok) {
    // In-band simulation failure: deterministic, never retried.
    recordUnitFailure(flight, "job error: " + reply.error);
    return;
  }
  reply.outcome.spec = flight.unit.job.spec;
  if (callbacks_.unitDone) {
    callbacks_.unitDone(flight.unit.ref, std::move(reply.outcome));
  }
}

void FleetManager::handleDeath(Slot& slot, std::uint64_t nowMs) {
  const std::string who = describeWorker(slot.conn);
  const bool connecting = slot.state == SlotState::kConnecting;
  const bool truncated = !slot.buffer.empty();
  const std::string end = killSlot(slot, SlotState::kDead);
  if (connecting) {
    connectFailure(slot, who + " " + end + " before the handshake ack");
    return;
  }
  if (truncated) statProtocolDeaths_.inc();
  const std::string how = end + (truncated ? " with a truncated reply line" : "");
  if (slot.inFlight.empty()) {
    // An idle death loses no unit: reported, healed, never charged.
    note(who + " " + how + " while idle");
  } else {
    chargeFrontRefundRest(slot, who + " " + how, "worker death: " + how, nowMs);
  }
  maybeRespawn(slot, nowMs);
}

void FleetManager::releaseDelayed(std::uint64_t nowMs) {
  for (std::size_t d = 0; d < delayed_.size();) {
    if (nowMs >= delayed_[d].readyAtMs) {
      retryQueue_.push_front(std::move(delayed_[d].flight));
      delayed_[d] = std::move(delayed_.back());
      delayed_.pop_back();
    } else {
      ++d;
    }
  }
}

void FleetManager::onTick(std::uint64_t nowMs) {
  releaseDelayed(nowMs);
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kConnecting && nowMs >= slot.connectDeadlineMs) {
      connectFailure(slot, describeWorker(slot.conn) +
                               " did not acknowledge the streaming protocol"
                               " within " +
                               std::to_string(connectBudgetMs(slot)) +
                               " ms — a worker from an older build?");
      continue;
    }
    if (slot.state == SlotState::kReady && !slot.inFlight.empty() &&
        policy_.jobDeadlineMs != 0 && slot.frontDeadlineMs != 0 &&
        nowMs >= slot.frontDeadlineMs) {
      // A hung or wedged worker: SIGTERM-grace-SIGKILL, its front unit
      // charged a retry, the queued-behind ones refunded.
      statDeadlineKills_.inc();
      const std::string who = describeWorker(slot.conn);
      const std::string deadline =
          "the " + std::to_string(policy_.jobDeadlineMs) + " ms job deadline";
      const std::string end = killSlot(slot, SlotState::kDead);
      note(who + " exceeded " + deadline + " (" + end + ")");
      chargeFrontRefundRest(slot, who + " exceeded " + deadline,
                            "job deadline exceeded (" +
                                std::to_string(policy_.jobDeadlineMs) + " ms)",
                            nowMs);
      maybeRespawn(slot, nowMs);
    }
  }
}

std::optional<std::uint64_t> FleetManager::nextDeadlineMs() const {
  std::optional<std::uint64_t> soonest;
  const auto consider = [&](std::uint64_t when) {
    if (!soonest || when < *soonest) soonest = when;
  };
  for (const Slot& slot : slots_) {
    if (slot.state == SlotState::kConnecting) consider(slot.connectDeadlineMs);
    if (slot.state == SlotState::kReady && !slot.inFlight.empty() &&
        policy_.jobDeadlineMs != 0 && slot.frontDeadlineMs != 0) {
      consider(slot.frontDeadlineMs);
    }
  }
  for (const DelayedFlight& delayed : delayed_) consider(delayed.readyAtMs);
  return soonest;
}

void FleetManager::dropUnitsForJob(std::uint64_t jobId) {
  const auto gone = [&](const Flight& flight) {
    return flight.unit.ref.job == jobId;
  };
  retryQueue_.erase(std::remove_if(retryQueue_.begin(), retryQueue_.end(), gone),
                    retryQueue_.end());
  delayed_.erase(std::remove_if(delayed_.begin(), delayed_.end(),
                                [&](const DelayedFlight& d) {
                                  return gone(d.flight);
                                }),
                 delayed_.end());
}

std::vector<std::string> FleetManager::closeAndReap() {
  std::vector<std::string> failures;
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kReady) closeConnection(slot.conn);
  }
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kConnecting) {
      // Never acknowledged, so it ran nothing: retire it without a verdict.
      killSlot(slot, SlotState::kDead);
      continue;
    }
    if (slot.state != SlotState::kReady) continue;
    slot.state = SlotState::kDead;
    bool killed = false;
    const int status = reapWorkerWithin(slot.conn, policy_.graceMs, &killed);
    if (status < 0) {
      failures.push_back(slot.conn.description + " could not be reaped");
    } else if (killed) {
      failures.push_back(slot.conn.description + " did not exit within " +
                         std::to_string(policy_.graceMs) + " ms of EOF (killed)");
    } else if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      failures.push_back(slot.conn.description + " " + describeWaitStatus(status));
    }
  }
  return failures;
}

bool FleetManager::idle() const {
  if (!retryQueue_.empty() || !delayed_.empty()) return false;
  for (const Slot& slot : slots_) {
    if (!slot.inFlight.empty()) return false;
  }
  return true;
}

std::size_t FleetManager::readyWorkers() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) count += slot.state == SlotState::kReady ? 1 : 0;
  return count;
}

std::size_t FleetManager::liveWorkers() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    count += slot.state == SlotState::kReady ||
                     slot.state == SlotState::kConnecting
                 ? 1
                 : 0;
  }
  return count;
}

std::vector<FleetManager::WorkerStatus> FleetManager::workerStatus() const {
  std::vector<WorkerStatus> statuses;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    WorkerStatus status;
    status.worker = s;
    status.description = slot.transport->describe();
    switch (slot.state) {
      case SlotState::kConnecting: status.state = "connecting"; break;
      case SlotState::kReady: status.state = "ready"; break;
      case SlotState::kDead: status.state = "dead"; break;
      case SlotState::kRemoved: status.state = "removed"; break;
    }
    status.completed = slot.completed;
    status.inFlight = slot.inFlight.size();
    status.maxInFlight = slot.maxInFlight;
    status.respawns = slot.respawns;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace pnoc::scenario::dispatch
