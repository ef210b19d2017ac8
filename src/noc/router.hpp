// Three-stage wormhole electrical router (paper Section 3.3.2, after [24]):
// input arbitration, routing/crossbar traversal, output arbitration.
//
// The router is a Clocked component.  Movement decisions are made in
// evaluate() against the state committed at the end of the previous cycle and
// applied in advance(), so a network of routers is order independent.
//
// Flow control is wormhole with per-packet VC locking: a head flit allocates
// a free, unlocked VC at the input port; body flits follow on the same VC;
// the lock is released when the tail leaves.  If no VC is available for an
// arriving head flit, canAcceptFlit() is false and the source must retry —
// the drop-and-retransmit behaviour of Section 1.4 is implemented at the
// injection site, which counts the drop.
//
// An empty router (no buffered flits) is quiescent and is parked by the
// engine; acceptFlit() wakes it.  A router that is occupied but FULLY
// blocked — every buffered stream either waits out the router pipeline
// latency or stalls on a downstream sink that cannot accept — also parks:
// it schedules an engine timer for the earliest pipeline-eligibility cycle
// and registers wake-on-drain with each blocking sink (FlitSink::
// notifyOnDrain), so a congested router sleeps instead of re-arbitrating
// nothing every cycle.  Blocked cycles are arbitration no-ops (no grants,
// no stats, no pointer movement), so parking them is bit-identical to
// polling.  Arbitration scratch state lives in member buffers so evaluate()
// allocates nothing on the hot path.
//
// Hot path.  Every head flit is routed once, when acceptFlit() buffers it:
// the output port is cached per VC and the VC's bit is set in a
// per-(input, output) "heads routed here" mask until the head pops.  Input
// arbitration ORs the masks of the outputs still free this cycle, so it
// only inspects heads that could move; requests and grants are 32-bit masks
// (Arbiter), and the crossbar's per-cycle state is two port masks.  The
// input banks mirror their occupied/head-front words and front flits into
// one router-owned VcHotSlice block, which the stages read instead of the
// VCs' ring buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noc/arbiter.hpp"
#include "noc/crossbar.hpp"
#include "noc/flit.hpp"
#include "noc/vc_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

/// Downstream consumer of flits leaving a router output port.
class FlitSink {
 public:
  virtual ~FlitSink() = default;
  /// Must be side-effect free; if it returns true, accept() in the same
  /// cycle must succeed.
  virtual bool canAccept(const Flit& flit) const = 0;
  virtual void accept(const Flit& flit, Cycle now) = 0;

  /// Wake-on-drain: arranges a one-shot `waiter.requestWake()` the next time
  /// this sink frees acceptance capacity (a link pipe slot, a buffered VC
  /// entry).  Returns false when the sink cannot provide the notification —
  /// the caller must then keep polling instead of parking.  Re-registering
  /// the same waiter is idempotent; the registration is consumed by the
  /// first drain event.
  virtual bool notifyOnDrain(sim::Clocked& waiter) {
    (void)waiter;
    return false;
  }
};

struct RouterConfig {
  /// 4 cores + 1 photonic uplink in a cluster; at most 32 (port state is
  /// kept in 32-bit masks).
  std::uint32_t numPorts = 5;
  std::uint32_t vcsPerPort = 16;    // Table 3-3
  std::uint32_t vcDepthFlits = 64;  // Table 3-3
  /// Cycles a flit spends inside the router pipeline before it may leave
  /// (3 stages -> earliest departure 2 cycles after arrival, arriving
  /// downstream on the 3rd).
  std::uint32_t pipelineLatency = 3;
  std::string arbiter = "round-robin";
  /// Electrical energy charged per bit traversing the router (Table 3-5).
  double routerEnergyPerBitPj = 0.625;
};

struct RouterStats {
  std::uint64_t flitsRouted = 0;
  Bits bitsRouted = 0;
  Picojoule energyPj = 0.0;
};

class ElectricalRouter final : public sim::Clocked {
 public:
  ElectricalRouter(std::string name, const RouterConfig& config,
                   std::function<std::uint32_t(const PacketDescriptor&)> routeFn);

  /// Wires output port `port` to a sink. All ports must be wired before the
  /// first cycle runs.
  void connectOutput(std::uint32_t port, FlitSink& sink);

  /// Ingress: true if the flit can be buffered at the input port this cycle.
  bool canAcceptFlit(std::uint32_t inputPort, const Flit& flit) const;

  /// Ingress: buffers the flit. Precondition: canAcceptFlit() is true.
  void acceptFlit(std::uint32_t inputPort, const Flit& flit, Cycle now);

  // sim::Clocked
  void evaluate(Cycle cycle) override;
  void advance(Cycle cycle) override;
  std::string name() const override { return name_; }
  obs::ComponentKind profileKind() const override {
    return obs::ComponentKind::kElectricalRouter;
  }
  /// Empty, or occupied-but-blocked with every wake source armed (see the
  /// file comment).
  bool quiescent() const override { return occupancy_ == 0 || canSleepBlocked_; }

  const RouterConfig& config() const { return config_; }
  const RouterStats& stats() const { return stats_; }
  BufferStats aggregateBufferStats() const;

  /// Restores the freshly-constructed state — empty buffers, initial
  /// arbitration priorities, zeroed statistics; wiring is preserved.
  void reset();

  /// Flits currently buffered (all ports, all VCs) — used by tests and by
  /// drain-detection in the network.  O(1): tracked on accept/forward.
  std::uint32_t occupancy() const { return occupancy_; }

 private:
  struct OutputState {
    std::uint32_t inPort = 0;
    VcId inVc = kNoVc;
    PacketId packet = 0;
    FlitSink* sink = nullptr;
  };

  struct Move {
    std::uint32_t inPort;
    VcId inVc;
    std::uint32_t outPort;
  };

  /// Index of (port, vc) in the per-VC hot arrays.
  std::size_t slot(std::uint32_t port, VcId vc) const {
    return static_cast<std::size_t>(port) * config_.vcsPerPort + vc;
  }
  /// Mask of VCs at `inPort` whose front head is routed to `outPort`.
  std::uint32_t& routedHeads(std::uint32_t inPort, std::uint32_t outPort) {
    return routedHeads_[static_cast<std::size_t>(inPort) * config_.numPorts + outPort];
  }
  bool flitEligible(std::uint32_t inPort, VcId vc, Cycle now) const;
  void finishEvaluate(Cycle cycle);
  void prepareBlockedPark(Cycle cycle);

  std::string name_;
  RouterConfig config_;
  std::function<std::uint32_t(const PacketDescriptor&)> routeFn_;
  std::vector<VcBufferBank> inputs_;
  std::vector<OutputState> outputs_;
  /// Bit p set iff output p is owned by a wormhole stream (a head went out,
  /// its tail has not).
  std::uint32_t ownedOutputs_ = 0;
  std::uint32_t allPorts_ = 0;  // bit p set for every port p < numPorts
  Crossbar crossbar_;
  /// Input-arbitration stage: one arbiter per input port picks among VCs.
  std::vector<Arbiter> inputArbiters_;
  /// Output-arbitration stage: one arbiter per output port picks among inputs.
  std::vector<Arbiter> outputArbiters_;
  /// VC a partially received packet is being written to, per input port.
  std::vector<PacketVcMap> receivingVc_;
  std::vector<Move> pendingMoves_;  // decided in evaluate, applied in advance
  std::uint32_t occupancy_ = 0;     // buffered flits across all ports/VCs
  /// Consecutive evaluate() calls that produced no move; the blocked-park
  /// scan only runs once a stall persists (a one-cycle pipeline bubble is
  /// cheaper to step through than to analyze).
  std::uint32_t zeroMoveStreak_ = 0;
  /// Set by evaluate() on a zero-move cycle once every blocked stream has a
  /// wake source armed (drain notification or eligibility timer); cleared by
  /// any new work.
  bool canSleepBlocked_ = false;
  // Hot slice of the input banks (VcBufferBank::attachHotState): one
  // occupied and one head-front word per port, front flit and front arrival
  // per (port, vc).  Sized once in the constructor.
  std::vector<std::uint32_t> hotOccupied_;
  std::vector<std::uint32_t> hotHeadFront_;
  std::vector<Flit> hotFront_;
  std::vector<Cycle> hotFrontArrival_;
  /// Output port of the head flit buffered in (port, vc), computed once by
  /// acceptFlit(); valid while the head sits at the VC's front.
  std::vector<std::uint8_t> routeOut_;
  /// [inPort][outPort] mask of VCs holding a head routed to outPort.
  std::vector<std::uint32_t> routedHeads_;
  // Arbitration scratch (no per-cycle allocation).
  std::vector<VcId> selectedVc_;          // per input port, valid when granted
  /// Per output port: inputs whose selected head targets it (zero outside
  /// evaluate(); stage 2 consumes and clears it).
  std::vector<std::uint32_t> outRequests_;
  RouterStats stats_;
};

}  // namespace pnoc::noc
