#include "noc/arbiter.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace pnoc::noc {

Arbiter::Arbiter(const std::string& kind, std::uint32_t size) : size_(size) {
  assert(size > 0 && size <= 32 && "requests are a 32-bit mask");
  if (kind == "matrix") {
    beatenBy_.resize(size);
  } else if (kind != "round-robin") {
    throw std::invalid_argument("unknown arbiter kind: '" + kind + "'");
  }
  reset();
}

void Arbiter::reset() {
  nextPriority_ = 0;
  // Matrix initial priority: lower index beats higher index.
  for (std::uint32_t i = 0; i < beatenBy_.size(); ++i) beatenBy_[i] = (1u << i) - 1;
}

std::uint32_t Arbiter::grantMatrix(std::uint32_t requests) {
  // Lowest-index requester that no other requester beats.  The priority
  // relation is a total order, so exactly one requester qualifies.
  std::uint32_t winner = kNoGrant;
  for (std::uint32_t rest = requests; rest != 0; rest &= rest - 1) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(rest));
    if ((beatenBy_[i] & requests) == 0) {
      winner = i;
      break;
    }
  }
  assert(winner != kNoGrant);
  // Winner drops below everyone: it beats nobody, everyone beats it.
  const std::uint32_t winnerBit = 1u << winner;
  for (std::uint32_t& word : beatenBy_) word &= ~winnerBit;
  const std::uint32_t all = size_ == 32 ? ~0u : (1u << size_) - 1;
  beatenBy_[winner] = all & ~winnerBit;
  return winner;
}

}  // namespace pnoc::noc
