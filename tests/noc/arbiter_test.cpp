#include "noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace pnoc::noc {
namespace {

std::uint32_t requests(std::initializer_list<int> indices) {
  std::uint32_t mask = 0;
  for (const int i : indices) mask |= 1u << i;
  return mask;
}

/// Both arbiter kinds must satisfy the same contract; run the shared suite
/// over each via a parameterized fixture.
class ArbiterContract : public ::testing::TestWithParam<const char*> {
 protected:
  Arbiter make(std::uint32_t size) { return Arbiter(GetParam(), size); }
};

TEST_P(ArbiterContract, NoRequestsNoGrant) {
  auto arbiter = make(4);
  EXPECT_EQ(arbiter.grant(requests({})), kNoGrant);
}

TEST_P(ArbiterContract, SingleRequestWins) {
  auto arbiter = make(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(arbiter.grant(requests({i})), static_cast<std::uint32_t>(i));
  }
}

TEST_P(ArbiterContract, GrantIsAlwaysARequester) {
  auto arbiter = make(5);
  const auto mask = requests({1, 3});
  for (int i = 0; i < 20; ++i) {
    const auto winner = arbiter.grant(mask);
    EXPECT_TRUE(winner == 1 || winner == 3);
  }
}

TEST_P(ArbiterContract, StarvationFree) {
  // Under persistent full contention, every requester is granted within a
  // window of `size` grants.
  auto arbiter = make(4);
  const auto all = requests({0, 1, 2, 3});
  std::map<std::uint32_t, int> lastGranted;
  for (int round = 0; round < 40; ++round) {
    const auto winner = arbiter.grant(all);
    ASSERT_NE(winner, kNoGrant);
    lastGranted[winner] = round;
  }
  ASSERT_EQ(lastGranted.size(), 4u);
  for (const auto& [who, when] : lastGranted) EXPECT_GE(when, 36) << "requester " << who;
}

TEST_P(ArbiterContract, FairShareUnderFullLoad) {
  auto arbiter = make(3);
  const auto all = requests({0, 1, 2});
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 300; ++i) ++counts[arbiter.grant(all)];
  for (const auto& [who, count] : counts) EXPECT_EQ(count, 100) << "requester " << who;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArbiterContract,
                         ::testing::Values("round-robin", "matrix"));

TEST(RoundRobinArbiter, RotatesPriorityPastWinner) {
  Arbiter arbiter("round-robin", 3);
  EXPECT_EQ(arbiter.grant(requests({0, 2})), 0u);
  // Priority now starts at 1; index 2 beats 0.
  EXPECT_EQ(arbiter.grant(requests({0, 2})), 2u);
  EXPECT_EQ(arbiter.grant(requests({0, 2})), 0u);
}

TEST(MatrixArbiter, LeastRecentlyServedWins) {
  Arbiter arbiter("matrix", 3);
  EXPECT_EQ(arbiter.grant(requests({0, 1, 2})), 0u);
  EXPECT_EQ(arbiter.grant(requests({0, 1, 2})), 1u);
  EXPECT_EQ(arbiter.grant(requests({0, 1, 2})), 2u);
  // 0 was served longest ago among {0,1}.
  EXPECT_EQ(arbiter.grant(requests({0, 1})), 0u);
  // 2 was served after 1, so 1 wins.
  EXPECT_EQ(arbiter.grant(requests({1, 2})), 1u);
}

TEST(ArbiterFactory, RejectsUnknownKind) {
  EXPECT_THROW(Arbiter("random", 4), std::invalid_argument);
}

// --- differential check against the scan-based arbiters the masks replace ---

/// Reference round-robin: probe every index from the priority pointer on.
class ScanRoundRobin {
 public:
  explicit ScanRoundRobin(std::uint32_t size) : size_(size) {}
  std::uint32_t grant(const std::vector<bool>& requests) {
    for (std::uint32_t offset = 0; offset < size_; ++offset) {
      const std::uint32_t candidate = (next_ + offset) % size_;
      if (requests[candidate]) {
        next_ = (candidate + 1) % size_;
        return candidate;
      }
    }
    return kNoGrant;
  }

 private:
  std::uint32_t size_;
  std::uint32_t next_ = 0;
};

/// Reference matrix arbiter: a full size x size priority matrix,
/// matrix[i][j] == true meaning i has priority over j.
class ScanMatrix {
 public:
  explicit ScanMatrix(std::uint32_t size) : size_(size), matrix_(size * size, false) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      for (std::uint32_t j = i + 1; j < size_; ++j) matrix_[i * size_ + j] = true;
    }
  }
  std::uint32_t grant(const std::vector<bool>& requests) {
    std::uint32_t winner = kNoGrant;
    for (std::uint32_t i = 0; i < size_ && winner == kNoGrant; ++i) {
      if (!requests[i]) continue;
      bool dominated = false;
      for (std::uint32_t j = 0; j < size_; ++j) {
        if (j != i && requests[j] && matrix_[j * size_ + i]) {
          dominated = true;
          break;
        }
      }
      if (!dominated) winner = i;
    }
    if (winner != kNoGrant) {
      for (std::uint32_t j = 0; j < size_; ++j) {
        matrix_[winner * size_ + j] = false;
        if (j != winner) matrix_[j * size_ + winner] = true;
      }
    }
    return winner;
  }

 private:
  std::uint32_t size_;
  std::vector<bool> matrix_;
};

/// Runs `rounds` seeded random request masks (varying density, including
/// empty and full masks) through a mask arbiter and a scan reference and
/// requires identical grant streams.
template <typename Reference>
void expectSameGrantStream(const char* kind, std::uint32_t size, std::uint64_t seed) {
  Arbiter arbiter(kind, size);
  Reference reference(size);
  sim::Rng rng(seed);
  const std::uint32_t all = size == 32 ? ~0u : (1u << size) - 1;
  std::vector<bool> asVector(size);
  for (int round = 0; round < 2000; ++round) {
    std::uint32_t mask = 0;
    switch (rng.nextBelow(8)) {
      case 0: mask = 0; break;
      case 1: mask = all; break;
      case 2: mask = 1u << rng.nextBelow(size); break;
      default:
        // Per-requester probability from 1/8 to 7/8.
        for (std::uint32_t i = 0, p = 1 + static_cast<std::uint32_t>(rng.nextBelow(7));
             i < size; ++i) {
          if (rng.nextBelow(8) < p) mask |= 1u << i;
        }
    }
    for (std::uint32_t i = 0; i < size; ++i) asVector[i] = ((mask >> i) & 1u) != 0;
    const std::uint32_t expected = reference.grant(asVector);
    ASSERT_EQ(arbiter.grant(mask), expected)
        << kind << " size " << size << " seed " << seed << " round " << round;
  }
}

TEST(ArbiterDifferential, RoundRobinMatchesTheScanForEverySize) {
  for (std::uint32_t size = 1; size <= 32; ++size) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      expectSameGrantStream<ScanRoundRobin>("round-robin", size, seed * 1000 + size);
    }
  }
}

TEST(ArbiterDifferential, MatrixMatchesTheScanForEverySize) {
  for (std::uint32_t size = 1; size <= 32; ++size) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      expectSameGrantStream<ScanMatrix>("matrix", size, seed * 1000 + size);
    }
  }
}

TEST(ArbiterDifferential, ResetRestoresTheInitialGrantStream) {
  for (const char* kind : {"round-robin", "matrix"}) {
    Arbiter arbiter(kind, 7);
    std::vector<std::uint32_t> first;
    for (std::uint32_t mask = 1; mask < 40; ++mask) first.push_back(arbiter.grant(mask & 0x7f));
    arbiter.reset();
    for (std::uint32_t mask = 1; mask < 40; ++mask) {
      EXPECT_EQ(arbiter.grant(mask & 0x7f), first[mask - 1]) << kind << " mask " << mask;
    }
  }
}

}  // namespace
}  // namespace pnoc::noc
