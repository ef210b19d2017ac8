#include "scenario/in_process_backend.hpp"

#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace pnoc::scenario {

void InProcessBackend::forEach(std::size_t n,
                               const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  const unsigned workers = workersFor(n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr firstError;
  std::mutex errorMutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (firstError) std::rethrow_exception(firstError);
}

std::vector<ScenarioOutcome> InProcessBackend::execute(
    const std::vector<ScenarioJob>& jobs) {
  std::vector<ScenarioOutcome> outcomes(jobs.size());
  std::map<std::size_t, std::string> failures;
  std::mutex mutex;  // serialises the observer and the failure map
  forEach(jobs.size(), [&](std::size_t i) {
    try {
      outcomes[i] = executeJob(jobs[i]);
    } catch (const std::exception& error) {
      const std::lock_guard<std::mutex> lock(mutex);
      failures.emplace(i, error.what());
      return;
    }
    if (observer_) {
      const std::lock_guard<std::mutex> lock(mutex);
      observer_(i, outcomes[i]);
    }
  });
  if (!failures.empty()) throwBatchFailure(failures, jobs.size());
  return outcomes;
}

}  // namespace pnoc::scenario
