// Switch fabric of a router: connects input ports to output ports for one
// cycle at a time and accounts traversal energy (Erouter of Table 3-5 is
// charged per bit moved through the electrical router, switch included).
//
// Per-cycle connection state is two port masks (at most 32 inputs and 32
// outputs), so clearing it at the start of a cycle is two stores.
#pragma once

#include <cassert>
#include <cstdint>

#include "noc/flit.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

class Crossbar {
 public:
  Crossbar(std::uint32_t numInputs, std::uint32_t numOutputs)
      : numInputs_(numInputs), numOutputs_(numOutputs) {
    assert(numInputs > 0 && numOutputs > 0);
    assert(numInputs <= 32 && numOutputs <= 32 && "port state is tracked in 32-bit masks");
  }

  std::uint32_t numInputs() const { return numInputs_; }
  std::uint32_t numOutputs() const { return numOutputs_; }

  /// Clears all connections (start of a new cycle).
  void reset() {
    inputBusy_ = 0;
    outputBusy_ = 0;
  }

  /// Zeroes the cumulative traversal counters (network reset).
  void resetStats() {
    bitsSwitched_ = 0;
    flitsSwitched_ = 0;
  }

  /// Connects input -> output for this cycle.
  /// Precondition: neither endpoint is already connected.
  void connect(std::uint32_t input, std::uint32_t output) {
    assert(input < numInputs_ && output < numOutputs_);
    assert(!inputBusy(input) && "crossbar input already connected this cycle");
    assert(!outputBusy(output) && "crossbar output already connected this cycle");
    inputBusy_ |= 1u << input;
    outputBusy_ |= 1u << output;
  }

  bool inputBusy(std::uint32_t input) const { return (inputBusy_ >> input) & 1u; }
  bool outputBusy(std::uint32_t output) const { return (outputBusy_ >> output) & 1u; }
  /// Bit p set iff output p is connected this cycle.
  std::uint32_t outputBusyMask() const { return outputBusy_; }

  /// Records a flit moving through an established connection.
  /// Precondition: connect(input, ...) was called this cycle.
  void traverse(std::uint32_t input, const Flit& flit) {
    assert(input < numInputs_);
    assert(inputBusy(input) && "traverse without an established connection");
    (void)input;
    bitsSwitched_ += flit.bits();
    ++flitsSwitched_;
  }

  Bits bitsSwitched() const { return bitsSwitched_; }
  std::uint64_t flitsSwitched() const { return flitsSwitched_; }

 private:
  std::uint32_t numInputs_;
  std::uint32_t numOutputs_;
  std::uint32_t inputBusy_ = 0;
  std::uint32_t outputBusy_ = 0;
  Bits bitsSwitched_ = 0;
  std::uint64_t flitsSwitched_ = 0;
};

}  // namespace pnoc::noc
