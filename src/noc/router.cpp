#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace pnoc::noc {
namespace {

std::uint32_t lowestBit(std::uint32_t mask) {
  return static_cast<std::uint32_t>(std::countr_zero(mask));
}

}  // namespace

ElectricalRouter::ElectricalRouter(
    std::string name, const RouterConfig& config,
    std::function<std::uint32_t(const PacketDescriptor&)> routeFn)
    : name_(std::move(name)),
      config_(config),
      routeFn_(std::move(routeFn)),
      outputs_(config.numPorts),
      allPorts_(config.numPorts == 32 ? ~0u : (1u << config.numPorts) - 1),
      crossbar_(config.numPorts, config.numPorts),
      receivingVc_(config.numPorts),
      hotOccupied_(config.numPorts, 0),
      hotHeadFront_(config.numPorts, 0),
      hotFront_(static_cast<std::size_t>(config.numPorts) * config.vcsPerPort),
      hotFrontArrival_(hotFront_.size(), 0),
      routeOut_(hotFront_.size(), 0),
      routedHeads_(static_cast<std::size_t>(config.numPorts) * config.numPorts, 0),
      selectedVc_(config.numPorts, kNoVc),
      outRequests_(config.numPorts, 0) {
  assert(routeFn_ && "router requires a routing function");
  inputs_.reserve(config.numPorts);
  inputArbiters_.reserve(config.numPorts);
  outputArbiters_.reserve(config.numPorts);
  for (std::uint32_t p = 0; p < config.numPorts; ++p) {
    inputs_.emplace_back(config.vcsPerPort, config.vcDepthFlits);
    inputs_.back().attachHotState(VcHotSlice{&hotOccupied_[p], &hotHeadFront_[p],
                                             &hotFront_[slot(p, 0)],
                                             &hotFrontArrival_[slot(p, 0)]});
    inputArbiters_.emplace_back(config.arbiter, config.vcsPerPort);
    outputArbiters_.emplace_back(config.arbiter, config.numPorts);
  }
  pendingMoves_.reserve(config.numPorts);
}

void ElectricalRouter::connectOutput(std::uint32_t port, FlitSink& sink) {
  assert(port < config_.numPorts);
  outputs_[port].sink = &sink;
}

bool ElectricalRouter::canAcceptFlit(std::uint32_t inputPort, const Flit& flit) const {
  assert(inputPort < config_.numPorts);
  const VcBufferBank& bank = inputs_[inputPort];
  if (flit.isHead()) {
    return bank.findFreeVcForNewPacket() != kNoVc;
  }
  const VcId vc = receivingVc_[inputPort].find(flit.packet().id);
  if (vc == kNoVc) return false;  // head was never accepted here
  return !bank.vc(vc).full();
}

void ElectricalRouter::acceptFlit(std::uint32_t inputPort, const Flit& flit, Cycle now) {
  assert(canAcceptFlit(inputPort, flit));
  VcBufferBank& bank = inputs_[inputPort];
  VcId vc = kNoVc;
  if (flit.isHead()) {
    vc = bank.findFreeVcForNewPacket();
    bank.lock(vc);
    if (!flit.isTail()) receivingVc_[inputPort].insert(flit.packet().id, vc);
    // A head opens an empty VC, so it is the VC's front until it pops:
    // route it once here instead of on every cycle it waits.
    const std::uint32_t out = routeFn_(flit.packet());
    assert(out < config_.numPorts);
    routeOut_[slot(inputPort, vc)] = static_cast<std::uint8_t>(out);
    routedHeads(inputPort, out) |= 1u << vc;
  } else {
    vc = receivingVc_[inputPort].find(flit.packet().id);
    if (flit.isTail()) receivingVc_[inputPort].erase(flit.packet().id);
  }
  bank.push(vc, flit, now);
  ++occupancy_;
  canSleepBlocked_ = false;  // new work: re-evaluate before parking again
  requestWake();
}

bool ElectricalRouter::flitEligible(std::uint32_t inPort, VcId vc, Cycle now) const {
  if (((hotOccupied_[inPort] >> vc) & 1u) == 0) return false;
  if (config_.pipelineLatency <= 1) return true;
  return hotFrontArrival_[slot(inPort, vc)] + (config_.pipelineLatency - 1) <= now;
}

void ElectricalRouter::evaluate(Cycle cycle) {
  // Empty router: no moves were pending (advance() cleared them) and the
  // crossbar is only consulted after the reset below, so skip both phases'
  // work outright.  This is the ungated engine's fast path; the gated engine
  // does not call evaluate() on an empty router at all.
  if (occupancy_ == 0) return;
  pendingMoves_.clear();
  crossbar_.reset();

  // Stage 0: continue wormhole streams that already own an output port.
  for (std::uint32_t owned = ownedOutputs_; owned != 0; owned &= owned - 1) {
    const std::uint32_t out = lowestBit(owned);
    const OutputState& state = outputs_[out];
    if (crossbar_.inputBusy(state.inPort)) continue;
    if (!flitEligible(state.inPort, state.inVc, cycle)) continue;
    const Flit& flit = hotFront_[slot(state.inPort, state.inVc)];
    assert(flit.packet().id == state.packet && "VC lock violated");
    if (state.sink == nullptr || !state.sink->canAccept(flit)) continue;
    crossbar_.connect(state.inPort, out);
    pendingMoves_.push_back(Move{state.inPort, state.inVc, out});
  }

  // Streaming fast path: with no head flit at the front of any VC, or no
  // output left to claim, stages 1 and 2 cannot produce a grant — every
  // front flit is body/tail traffic that only moves through the owned
  // outputs handled above.
  std::uint32_t anyHeadFronts = 0;
  for (const std::uint32_t heads : hotHeadFront_) anyHeadFronts |= heads;
  const std::uint32_t freeOutputs = allPorts_ & ~(ownedOutputs_ | crossbar_.outputBusyMask());
  if (anyHeadFronts == 0 || freeOutputs == 0) {
    finishEvaluate(cycle);
    return;
  }

  // Stage 1 (input arbitration): each idle input picks one VC holding an
  // eligible head flit whose route targets a free output that can accept it.
  // Only heads routed to a free output are candidates (ascending VC order,
  // as a full scan would visit them).
  for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
    if (hotHeadFront_[in] == 0 || crossbar_.inputBusy(in)) continue;
    std::uint32_t candidates = 0;
    for (std::uint32_t free = freeOutputs; free != 0; free &= free - 1) {
      candidates |= routedHeads(in, lowestBit(free));
    }
    std::uint32_t requests = 0;
    for (; candidates != 0; candidates &= candidates - 1) {
      const auto vc = static_cast<VcId>(lowestBit(candidates));
      if (!flitEligible(in, vc, cycle)) continue;
      const std::size_t at = slot(in, vc);
      const FlitSink* sink = outputs_[routeOut_[at]].sink;
      if (sink == nullptr || !sink->canAccept(hotFront_[at])) continue;
      requests |= 1u << vc;
    }
    if (requests == 0) continue;
    const auto vc = static_cast<VcId>(inputArbiters_[in].grant(requests));
    selectedVc_[in] = vc;
    outRequests_[routeOut_[slot(in, vc)]] |= 1u << in;
  }

  // Stage 2 (output arbitration): each free output picks among the inputs
  // whose selected head flit targets it.
  for (std::uint32_t free = freeOutputs; free != 0; free &= free - 1) {
    const std::uint32_t out = lowestBit(free);
    const std::uint32_t requests = std::exchange(outRequests_[out], 0);
    if (requests == 0) continue;
    const std::uint32_t in = outputArbiters_[out].grant(requests);
    crossbar_.connect(in, out);
    pendingMoves_.push_back(Move{in, selectedVc_[in], out});
  }

  finishEvaluate(cycle);
}

void ElectricalRouter::finishEvaluate(Cycle cycle) {
  // Zero-move cycles are pure no-ops (no grants were issued, advance() will
  // not touch stats): once the stall persists past a single pipeline bubble,
  // analyze the blockers and try to park until one of them clears.
  if (!pendingMoves_.empty()) {
    zeroMoveStreak_ = 0;
    canSleepBlocked_ = false;
    return;
  }
  if (++zeroMoveStreak_ >= 2) {
    prepareBlockedPark(cycle);
  } else {
    canSleepBlocked_ = false;
  }
}

void ElectricalRouter::prepareBlockedPark(Cycle cycle) {
  canSleepBlocked_ = false;
  Cycle nextEligible = kNoCycle;
  // Streams that own an output port (body/tail flits mid-wormhole).
  for (std::uint32_t owned = ownedOutputs_; owned != 0; owned &= owned - 1) {
    const OutputState& state = outputs_[lowestBit(owned)];
    if (((hotOccupied_[state.inPort] >> state.inVc) & 1u) == 0) {
      continue;  // next body flit's acceptFlit() wakes us
    }
    if (!flitEligible(state.inPort, state.inVc, cycle)) {
      nextEligible = std::min(nextEligible, hotFrontArrival_[slot(state.inPort, state.inVc)] +
                                                config_.pipelineLatency - 1);
      continue;
    }
    // Eligible but stalled on the sink: ask it to wake us when it drains.
    if (state.sink == nullptr || !state.sink->notifyOnDrain(*this)) return;
  }
  // Head flits waiting at the front of their VC.
  for (std::uint32_t in = 0; in < config_.numPorts; ++in) {
    for (std::uint32_t heads = hotHeadFront_[in]; heads != 0; heads &= heads - 1) {
      const auto vc = static_cast<VcId>(lowestBit(heads));
      const std::size_t at = slot(in, vc);
      if (!flitEligible(in, vc, cycle)) {
        nextEligible =
            std::min(nextEligible, hotFrontArrival_[at] + config_.pipelineLatency - 1);
        continue;
      }
      const std::uint32_t out = routeOut_[at];
      // An owned output frees only when its stream moves, and moves only
      // happen while we are awake — the head rides on the owner's blockers.
      if (((ownedOutputs_ >> out) & 1u) != 0) continue;
      FlitSink* sink = outputs_[out].sink;
      if (sink == nullptr) return;
      // A movable head implies a granted move, contradicting the zero-move
      // premise; stay polling rather than trust the analysis.
      if (sink->canAccept(hotFront_[at])) return;
      if (!sink->notifyOnDrain(*this)) return;
    }
  }
  if (nextEligible != kNoCycle) scheduleWakeAt(nextEligible);
  canSleepBlocked_ = true;
}

void ElectricalRouter::advance(Cycle cycle) {
  for (const Move& move : pendingMoves_) {
    VcBufferBank& bank = inputs_[move.inPort];
    const Flit flit = bank.pop(move.inVc, cycle);
    assert(occupancy_ > 0);
    --occupancy_;
    crossbar_.traverse(move.inPort, flit);
    stats_.flitsRouted += 1;
    stats_.bitsRouted += flit.bits();
    stats_.energyPj += config_.routerEnergyPerBitPj * static_cast<double>(flit.bits());

    OutputState& state = outputs_[move.outPort];
    assert(state.sink != nullptr);
    // Read everything we need from the descriptor before handing the flit
    // over: an ejection sink releases the packet's slab slot when it
    // consumes the tail, so the handle must not be dereferenced after
    // accept().
    const PacketId packetId = flit.packet().id;
    const bool isHead = flit.isHead();
    const bool isTail = flit.isTail();
    state.sink->accept(flit, cycle);

    const std::uint32_t outBit = 1u << move.outPort;
    if (isHead) routedHeads(move.inPort, move.outPort) &= ~(1u << move.inVc);
    if (isHead && !isTail) {
      ownedOutputs_ |= outBit;
      state.inPort = move.inPort;
      state.inVc = move.inVc;
      state.packet = packetId;
    }
    if (isTail) {
      if ((ownedOutputs_ & outBit) != 0 && state.packet == packetId) ownedOutputs_ &= ~outBit;
      bank.unlock(move.inVc);
    }
  }
  pendingMoves_.clear();
}

void ElectricalRouter::reset() {
  for (auto& bank : inputs_) bank.reset();
  for (OutputState& state : outputs_) {
    state.inPort = 0;
    state.inVc = kNoVc;
    state.packet = 0;  // sink wiring survives
  }
  ownedOutputs_ = 0;
  std::fill(routedHeads_.begin(), routedHeads_.end(), 0);
  crossbar_.reset();
  crossbar_.resetStats();
  for (Arbiter& arbiter : inputArbiters_) arbiter.reset();
  for (Arbiter& arbiter : outputArbiters_) arbiter.reset();
  for (auto& map : receivingVc_) map.clear();
  pendingMoves_.clear();
  occupancy_ = 0;
  zeroMoveStreak_ = 0;
  canSleepBlocked_ = false;
  stats_ = RouterStats{};
}

BufferStats ElectricalRouter::aggregateBufferStats() const {
  BufferStats total;
  for (const auto& bank : inputs_) total += bank.aggregateStats();
  return total;
}

}  // namespace pnoc::noc
