// ExecutionBackend tests: the worker-count policy lives in one place and
// clamps sanely, and backend=processes (another spelling of the worker
// fleet, backend=stream) — any shard count — produces results and BENCH
// records bit-identical to InProcessBackend for mixed run/findPeaks batches
// (the acceptance bar for pluggable execution).  Both backends share one
// error contract: the observer fires per completed job and the failed jobs
// are named after the batch.
//
// The worker-process tests re-exec THIS test binary: tests/main.cpp
// recognizes --pnoc-worker and runs the protocol worker loop.
#include "scenario/execution_backend.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/in_process_backend.hpp"
#include "scenario/json_record.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/subprocess_backend.hpp"
#include "scenario/wire.hpp"

namespace pnoc::scenario {
namespace {

ScenarioSpec quickSpec(const std::string& pattern, const std::string& arch,
                       double load, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.set("pattern", pattern);
  spec.set("arch", arch);
  spec.params.offeredLoad = load;
  spec.params.seed = seed;
  spec.params.warmupCycles = 100;
  spec.params.measureCycles = 600;
  return spec;
}

/// Scoped PNOC_BENCH_THREADS override (restored on destruction).
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    const char* old = std::getenv("PNOC_BENCH_THREADS");
    hadOld_ = old != nullptr;
    if (hadOld_) old_ = old;
    if (value == nullptr) {
      ::unsetenv("PNOC_BENCH_THREADS");
    } else {
      ::setenv("PNOC_BENCH_THREADS", value, 1);
    }
  }
  ~ThreadsEnv() {
    if (hadOld_) {
      ::setenv("PNOC_BENCH_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("PNOC_BENCH_THREADS");
    }
  }

 private:
  bool hadOld_ = false;
  std::string old_;
};

/// The executor `backend=processes shards=N` builds.
std::unique_ptr<ExecutionBackend> processesBackend(unsigned shards) {
  return makeBackend(BackendOptions{parseBackendKind("processes"), shards});
}

TEST(ResolveWorkerCount, ExplicitRequestClampsToBatchSize) {
  EXPECT_EQ(resolveWorkerCount(4, 100), 4u);
  EXPECT_EQ(resolveWorkerCount(16, 3), 3u);   // shards > specs.size()
  EXPECT_EQ(resolveWorkerCount(16, 1), 1u);
  EXPECT_EQ(resolveWorkerCount(5, 0), 1u);    // empty batch still sane
}

TEST(ResolveWorkerCount, EnvZeroAndGarbageFallThrough) {
  {
    ThreadsEnv env("0");  // zero must not mean "zero workers"
    EXPECT_GE(resolveWorkerCount(0, 1000), 1u);
  }
  {
    ThreadsEnv env("-3");
    EXPECT_GE(resolveWorkerCount(0, 1000), 1u);
  }
  {
    ThreadsEnv env("banana");
    EXPECT_GE(resolveWorkerCount(0, 1000), 1u);
  }
  {
    ThreadsEnv env(nullptr);  // unset
    EXPECT_GE(resolveWorkerCount(0, 1000), 1u);
  }
}

TEST(ResolveWorkerCount, EnvPinsAutoCount) {
  ThreadsEnv env("3");
  EXPECT_EQ(resolveWorkerCount(0, 1000), 3u);
  EXPECT_EQ(resolveWorkerCount(0, 2), 2u);  // still clamped to the batch
  EXPECT_EQ(resolveWorkerCount(5, 1000), 5u);  // explicit request wins
}

TEST(ExecutionBackend, FactoryAndCapabilities) {
  const auto threads = makeBackend(BackendOptions{BackendKind::kThreads, 2});
  EXPECT_EQ(threads->name(), "threads");
  EXPECT_FALSE(threads->capabilities().crossProcess);
  EXPECT_EQ(threads->workersFor(8), 2u);

  const auto processes = processesBackend(16);
  EXPECT_EQ(processes->name(), "stream");  // processes spells stream
  EXPECT_TRUE(processes->capabilities().crossProcess);
  EXPECT_TRUE(processes->capabilities().deterministicMerge);
  EXPECT_EQ(processes->workersFor(3), 3u);  // shards > specs.size() clamps

  EXPECT_EQ(parseBackendKind("threads"), BackendKind::kThreads);
  EXPECT_EQ(parseBackendKind("processes"), BackendKind::kStream);
  EXPECT_THROW(parseBackendKind("carrier-pigeons"), std::invalid_argument);
}

TEST(InProcessBackend, MatchesDirectExecution) {
  const std::vector<ScenarioSpec> specs = {
      quickSpec("uniform", "firefly", 0.0008, 3),
      quickSpec("skewed3", "dhetpnoc", 0.002, 5),
  };
  InProcessBackend backend(2);
  const auto results = backend.run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(wire::toJson(results[i].metrics), wire::toJson(runScenario(specs[i])));
  }
}

// The acceptance bar: for the same spec batch and seeds, backend=processes
// (any shard count) and InProcessBackend produce identical merged metrics —
// compared here through the exact wire serialization of every field.
TEST(ProcessesBackend, MixedBatchMatchesInProcessBitForBit) {
  std::vector<ScenarioJob> jobs;
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 7)});
  jobs.push_back({ScenarioJob::Op::kFindPeak, quickSpec("skewed3", "dhetpnoc", 0.001, 9)});
  jobs.push_back({ScenarioJob::Op::kRun, quickSpec("bitcomp", "firefly", 0.0008, 11)});
  jobs.push_back({ScenarioJob::Op::kFindPeak, quickSpec("uniform", "firefly", 0.001, 13)});

  InProcessBackend inProcess(2);
  const auto expected = inProcess.execute(jobs);

  for (const unsigned shards : {1u, 2u, 3u}) {
    const auto subprocess = processesBackend(shards);
    const auto actual = subprocess->execute(jobs);
    ASSERT_EQ(actual.size(), expected.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].op, expected[i].op);
      EXPECT_EQ(actual[i].spec.toJson(), expected[i].spec.toJson());
      EXPECT_EQ(wire::toJson(actual[i].metrics), wire::toJson(expected[i].metrics))
          << "shards=" << shards << " job=" << i;
      EXPECT_EQ(wire::toJson(actual[i].search), wire::toJson(expected[i].search))
          << "shards=" << shards << " job=" << i;
    }
  }
}

// ... and the BENCH records built from those results are byte-identical too
// (timing records excluded — they are wall-clock by definition).
TEST(ProcessesBackend, BenchRecordsMatchInProcessByteForByte) {
  const std::vector<ScenarioSpec> runSpecs = {
      quickSpec("uniform", "dhetpnoc", 0.001, 21),
      quickSpec("skewed2", "firefly", 0.0008, 22),
  };
  const std::vector<ScenarioSpec> peakSpecs = {
      quickSpec("skewed3", "dhetpnoc", 0.001, 23),
  };

  // Collect the serialized record lines every bench binary would emit
  // (recordRun/recordPeak are THE single BENCH code path).
  const auto recordLines = [&](ExecutionBackend& backend) {
    JsonRecorder recorder("backend_compare");
    std::string lines;
    for (const auto& result : backend.run(runSpecs)) {
      lines += recordRun(recorder, result.spec, result.metrics).serialize() + "\n";
    }
    for (const auto& peak : backend.findPeaks(peakSpecs)) {
      lines += recordPeak(recorder, peak).serialize() + "\n";
    }
    return lines;
  };

  InProcessBackend inProcess(2);
  const auto subprocess = processesBackend(2);
  const std::string expected = recordLines(inProcess);
  const std::string actual = recordLines(*subprocess);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected);
}

TEST(ProcessesBackend, ShardsBeyondBatchSizeStillWork) {
  const std::vector<ScenarioSpec> specs = {
      quickSpec("uniform", "dhetpnoc", 0.001, 31),
      quickSpec("uniform", "firefly", 0.001, 32),
  };
  const auto subprocess = processesBackend(8);  // > specs.size(): 2 workers
  EXPECT_EQ(subprocess->workersFor(specs.size()), 2u);
  const auto results = subprocess->run(specs);
  InProcessBackend inProcess(1);
  const auto expected = inProcess.run(specs);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(wire::toJson(results[i].metrics), wire::toJson(expected[i].metrics));
  }
}

// Regression test for the pipe-inheritance deadlock: a later-spawned worker
// used to inherit an earlier worker's stdin write end (no FD_CLOEXEC), so
// the earlier worker never saw EOF until the later one exited.  Peak
// replies are ~4 KiB each, so 44 jobs over 2 shards puts every worker's
// output well past one pipe buffer.
TEST(ProcessesBackend, LargeRepliesAcrossWorkersDoNotDeadlock) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t seed = 0; seed < 44; ++seed) {
    ScenarioSpec spec = quickSpec("uniform", "dhetpnoc", 0.001, 100 + seed);
    spec.params.warmupCycles = 50;
    spec.params.measureCycles = 400;
    specs.push_back(spec);
  }
  const auto subprocess = processesBackend(2);
  const auto peaks = subprocess->findPeaks(specs);
  ASSERT_EQ(peaks.size(), specs.size());
  for (const auto& peak : peaks) {
    EXPECT_FALSE(peak.search.sweep.empty());
  }
}

TEST(ProcessesBackend, EmptyBatchIsANoOp) {
  const auto subprocess = processesBackend(4);
  EXPECT_TRUE(subprocess->run({}).empty());
  EXPECT_TRUE(subprocess->findPeaks({}).empty());
}

TEST(ProcessesBackend, JobFailureSurfacesAsException) {
  // An unknown traffic family passes spec.set() (patterns are validated at
  // network build time) and explodes inside the worker; the backend must
  // surface that as an exception, not silence or a crash.
  ScenarioSpec bad = quickSpec("uniform", "dhetpnoc", 0.001, 41);
  bad.params.pattern = "no-such-family";
  const auto subprocess = processesBackend(1);
  EXPECT_THROW(subprocess->run({bad}), std::runtime_error);
}

// One error contract across backends: a {load=0, valid} batch fails job 0 on
// threads and on the worker fleet alike, both deliver job 1 to the
// observer (so pnoc_run checkpoints it) with identical record bytes, and
// neither observes the failed job without fail_soft.
TEST(BackendErrorContract, ThreadsAndStreamObserveTheSameCompletedJobs) {
  ScenarioSpec zeroLoad = quickSpec("uniform", "dhetpnoc", 0.001, 51);
  zeroLoad.params.offeredLoad = 0.0;
  const std::vector<ScenarioJob> jobs = {
      {ScenarioJob::Op::kRun, zeroLoad},
      {ScenarioJob::Op::kRun, quickSpec("uniform", "dhetpnoc", 0.001, 52)}};
  std::vector<std::string> records;
  for (const BackendKind kind : {BackendKind::kThreads, BackendKind::kStream}) {
    const auto backend = makeBackend(BackendOptions{kind, 2});
    std::vector<std::size_t> observed;
    std::string record;
    backend->setOutcomeObserver([&](std::size_t index, const ScenarioOutcome& outcome) {
      observed.push_back(index);
      record = dispatch::serializedOutcomeRecord(outcome, index);
    });
    try {
      backend->execute(jobs);
      FAIL() << toString(kind) << ": expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("job 0"), std::string::npos)
          << toString(kind) << ": " << error.what();
    }
    EXPECT_EQ(observed, std::vector<std::size_t>{1}) << toString(kind);
    records.push_back(record);
  }
  EXPECT_EQ(records[0], records[1]);
}

// The worker loop speaks only the streaming protocol: a first line that is
// a job instead of the hello is a protocol error, not a session.
TEST(WorkerLoop, FirstLineMustBeTheStreamingHello) {
  const ScenarioJob job{ScenarioJob::Op::kRun,
                        quickSpec("uniform", "dhetpnoc", 0.001, 53)};
  std::istringstream in(wire::jobLine(0, job) + "\n");
  std::ostringstream out;
  ::testing::internal::CaptureStderr();
  const int exitCode = runWorkerLoop(in, out);
  const std::string stderrText = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(exitCode, 0);
  EXPECT_NE(stderrText.find("protocol error"), std::string::npos) << stderrText;
  EXPECT_TRUE(out.str().empty()) << out.str();

  // The hello first: acked, then the job is answered in-band.
  std::istringstream hello(wire::streamHelloLine() + "\n" + wire::jobLine(0, job) +
                           "\n");
  std::ostringstream replies;
  EXPECT_EQ(runWorkerLoop(hello, replies), 0);
  std::istringstream lines(replies.str());
  std::string ack, reply;
  ASSERT_TRUE(std::getline(lines, ack));
  EXPECT_NO_THROW(wire::checkStreamAck(ack));
  ASSERT_TRUE(std::getline(lines, reply));
  EXPECT_TRUE(wire::parseReplyLine(reply).ok);
}

TEST(ScenarioRunner, FacadeSelectsBackendFromOptions) {
  const ScenarioRunner threads(BackendOptions{BackendKind::kThreads, 3});
  EXPECT_EQ(threads.backend().name(), "threads");
  EXPECT_EQ(threads.backend().workersFor(100), 3u);

  const ScenarioRunner processes(BackendOptions{parseBackendKind("processes"), 2});
  EXPECT_EQ(processes.backend().name(), "stream");
  EXPECT_TRUE(processes.backend().capabilities().crossProcess);

  const ScenarioRunner legacy(4);  // unsigned ctor keeps meaning "threads"
  EXPECT_EQ(legacy.backend().name(), "threads");
  EXPECT_EQ(legacy.backend().workersFor(100), 4u);
}

}  // namespace
}  // namespace pnoc::scenario
