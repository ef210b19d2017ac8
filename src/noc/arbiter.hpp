// Arbiters for the 3-stage router of [24] (input arbitration, routing,
// output arbitration — paper Section 3.3.2).
//
// Two classic designs behind one value type (requests and grants are bit
// masks over at most 32 requestors):
//  * round-robin — rotating priority; starvation free.  The grant is the
//                  first requester at or after the priority pointer: one
//                  masked count-trailing-zeros, with a wrap-around fallback.
//  * matrix      — least-recently-served priority matrix; fairer under
//                  asymmetric request rates.  Stored as one "beaten-by" word
//                  per requestor (bit j of word i set iff j has priority
//                  over i).
// The router holds arbiters by value, so a grant is a plain call on
// contiguous state (the ablation benches compare the two kinds).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace pnoc::noc {

/// Sentinel meaning "no requestor granted".
inline constexpr std::uint32_t kNoGrant = ~std::uint32_t{0};

class Arbiter {
 public:
  /// `kind` is "round-robin" or "matrix"; throws std::invalid_argument on
  /// unknown kinds.  Precondition: 1 <= size <= 32.
  Arbiter(const std::string& kind, std::uint32_t size);

  /// Grants one of the requesting inputs (bit i of `requests` set) and
  /// updates the priority state.  Returns kNoGrant if nothing is requesting.
  /// Precondition: no bit at or above the constructor's `size` is set.
  std::uint32_t grant(std::uint32_t requests) {
    assert(size_ == 32 || (requests >> size_) == 0);
    if (requests == 0) return kNoGrant;
    return beatenBy_.empty() ? grantRoundRobin(requests) : grantMatrix(requests);
  }

  /// Restores the freshly-constructed priority state (network reset).
  void reset();

 private:
  std::uint32_t grantRoundRobin(std::uint32_t requests) {
    // First requester at or after the pointer, else wrap to the lowest one.
    const std::uint32_t atOrAfter = requests & (~0u << nextPriority_);
    const auto winner =
        static_cast<std::uint32_t>(std::countr_zero(atOrAfter != 0 ? atOrAfter : requests));
    nextPriority_ = winner + 1 == size_ ? 0 : winner + 1;
    return winner;
  }
  std::uint32_t grantMatrix(std::uint32_t requests);

  std::uint32_t size_;
  std::uint32_t nextPriority_ = 0;  // round-robin: index searched first
  /// Matrix kind only (empty for round-robin): beatenBy_[i] bit j set iff
  /// requestor j currently has priority over requestor i.
  std::vector<std::uint32_t> beatenBy_;
};

}  // namespace pnoc::noc
