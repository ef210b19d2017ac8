#include "scenario/dispatch/fault_policy.hpp"

#include <limits>
#include <stdexcept>

namespace pnoc::scenario::dispatch {
namespace {

constexpr const char* kKeys[] = {
    "retries",     "respawns",           "backoff_ms", "backoff_cap_ms",
    "job_deadline_ms", "grace_ms",       "connect_timeout_ms", "fail_soft",
    "pipeline",
};

}  // namespace

bool isPolicyKey(const std::string& key) {
  for (const char* candidate : kKeys) {
    if (key == candidate) return true;
  }
  return false;
}

const std::vector<std::string>& policyKeys() {
  static const std::vector<std::string> keys(std::begin(kKeys), std::end(kKeys));
  return keys;
}

void setPolicyField(FaultPolicy& policy, const std::string& key,
                    std::uint64_t value) {
  const auto asUnsigned = [&]() -> unsigned {
    if (value > std::numeric_limits<unsigned>::max()) {
      throw std::invalid_argument(key + "=" + std::to_string(value) +
                                  " is out of range");
    }
    return static_cast<unsigned>(value);
  };
  if (key == "retries") {
    policy.retries = asUnsigned();
  } else if (key == "respawns") {
    policy.respawns = asUnsigned();
  } else if (key == "backoff_ms") {
    policy.backoffBaseMs = value;
  } else if (key == "backoff_cap_ms") {
    policy.backoffCapMs = value;
  } else if (key == "job_deadline_ms") {
    policy.jobDeadlineMs = value;
  } else if (key == "grace_ms") {
    policy.graceMs = value;
  } else if (key == "connect_timeout_ms") {
    if (value == 0) {
      throw std::invalid_argument("connect_timeout_ms must be >= 1");
    }
    policy.connectTimeoutMs = value;
  } else if (key == "fail_soft") {
    if (value > 1) {
      throw std::invalid_argument("fail_soft must be 0 or 1");
    }
    policy.failSoft = value == 1;
  } else if (key == "pipeline") {
    if (value == 0) {
      throw std::invalid_argument("pipeline must be >= 1");
    }
    policy.pipeline = asUnsigned();
  } else {
    throw std::invalid_argument("'" + key + "' is not a fault-policy key");
  }
}

std::uint64_t backoffMsForAttempt(const FaultPolicy& policy, unsigned attempt) {
  if (policy.backoffBaseMs == 0 || attempt == 0) return 0;
  std::uint64_t delay = policy.backoffBaseMs;
  for (unsigned doubling = 1; doubling < attempt; ++doubling) {
    if (delay >= policy.backoffCapMs) break;
    delay *= 2;
  }
  return delay < policy.backoffCapMs ? delay : policy.backoffCapMs;
}

std::string policyHelpText() {
  return
      "  retries=1                   redispatches per job after a fault killed its"
      " worker\n"
      "  respawns=1                  worker respawns per slot (fleet heals instead"
      " of shrinking)\n"
      "  backoff_ms=200              base redispatch backoff, doubling per attempt"
      " (backoff_cap_ms=5000)\n"
      "  job_deadline_ms=0           per-job wall-clock budget; overdue workers are"
      " killed, jobs redispatched (0: none)\n"
      "  grace_ms=2000               SIGTERM-to-SIGKILL grace whenever a worker is"
      " killed\n"
      "  connect_timeout_ms=30000    per-worker launch-to-ack budget (hosts connect"
      " concurrently)\n"
      "  fail_soft=0                 1: exhausted jobs become per-job failure"
      " records instead of failing the run after the grid\n"
      "  pipeline=1                  jobs kept in flight per worker (>1 hides"
      " high-RTT job lines; replies stay in order)\n";
}

}  // namespace pnoc::scenario::dispatch
