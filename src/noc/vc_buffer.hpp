// Virtual-channel buffers (paper Section 1.4, Figure 1-3; Table 3-3 sizes
// them at 16 VCs per port, 64 flits deep).
//
// Besides FIFO semantics the buffers keep the occupancy statistics the
// energy model needs: buffer energy is charged per bit on write and read, and
// congestion shows up as longer residency, which Section 3.4.1.2 identifies
// as the reason d-HetPNoC's packet energy is lower under skewed traffic.  We
// therefore track bit-cycles of residency explicitly.
//
// Capacities are fixed at construction, so the backing store is a
// RingBuffer: one allocation per VC for the network's lifetime.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "noc/flit.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

/// Occupancy/energy statistics for one buffer (or aggregated over a bank).
struct BufferStats {
  std::uint64_t flitsWritten = 0;
  std::uint64_t flitsRead = 0;
  Bits bitsWritten = 0;
  Bits bitsRead = 0;
  /// Sum over all dequeued flits of bits * cyclesResident.
  std::uint64_t bitCyclesResident = 0;
  std::uint64_t peakOccupancy = 0;

  BufferStats& operator+=(const BufferStats& other);
};

/// One virtual channel: a bounded FIFO of flits.
class VirtualChannel {
 public:
  explicit VirtualChannel(std::uint32_t capacityFlits);

  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.full(); }
  std::uint32_t capacity() const { return entries_.capacity(); }
  std::uint32_t size() const { return entries_.size(); }
  std::uint32_t freeSlots() const { return entries_.freeSlots(); }

  /// Enqueues a flit at the given cycle. Precondition: !full().
  void push(const Flit& flit, Cycle now);

  /// Front flit without removing it. Precondition: !empty().
  const Flit& front() const;

  /// Cycle at which the front flit was enqueued. Precondition: !empty().
  Cycle frontArrival() const;

  /// Dequeues the front flit at the given cycle. Precondition: !empty().
  Flit pop(Cycle now);

  /// Empties the channel and zeroes its statistics (network reset).
  void reset() {
    entries_.clear();
    stats_ = BufferStats{};
  }

  const BufferStats& stats() const { return stats_; }

 private:
  struct Entry {
    Flit flit;
    Cycle enqueuedAt = 0;
  };
  sim::RingBuffer<Entry> entries_;
  BufferStats stats_;
};

/// Hot VC-front metadata for one bank, exposed as raw pointers so an owner
/// can place every bank's slice in flat contiguous arrays: PhotonicNetwork's
/// PhotonicHotState for the photonic routers, and each ElectricalRouter's
/// own block for its input banks.  The per-cycle arbitration, transmit and
/// ejection scans then read compact SoA memory instead of chasing
/// bank->vc(id) ring buffers.  A bank not attached to external storage (a
/// standalone bank in a test) keeps its masks in plain members and skips
/// the mirroring.
struct VcHotSlice {
  std::uint32_t* occupied = nullptr;   ///< one word: bit i set iff VC i non-empty
  std::uint32_t* headFront = nullptr;  ///< one word: bit i set iff VC i's front is a head
  /// [numVcs] front flit of each occupied VC.  A slot is written when a
  /// flit lands in its empty VC and on every pop; it means nothing while the
  /// VC's occupied bit is clear, so attach and reset leave it as it is.
  Flit* front = nullptr;
  Cycle* frontArrival = nullptr;       ///< [numVcs] enqueue cycle of each front flit
};

/// A bank of VCs forming one router input port (at most 32 VCs so occupancy
/// and lock state fit in bitmasks).
///
/// All mutation goes through the bank — push/pop/lock — so it can maintain
/// an occupied-VC bitmask, a head-front bitmask and an O(1) flit count in
/// the hot slice.  The hot arbitration loops iterate set bits of
/// occupiedMask() instead of scanning every VC, free-VC lookup is a
/// count-trailing-zeros, and front flits are read from the slice without
/// touching the ring buffers at all.
class VcBufferBank {
 public:
  VcBufferBank(std::uint32_t numVcs, std::uint32_t depthFlits);

  // An attached external slice mirrors this bank's state; copying would
  // alias it, so banks move but never copy.  Moves keep the attachment (the
  // external storage does not belong to the bank).
  VcBufferBank(const VcBufferBank&) = delete;
  VcBufferBank& operator=(const VcBufferBank&) = delete;
  VcBufferBank(VcBufferBank&&) = default;
  VcBufferBank& operator=(VcBufferBank&&) = default;

  std::uint32_t numVcs() const { return static_cast<std::uint32_t>(vcs_.size()); }
  const VirtualChannel& vc(VcId id) const { return vcs_[id]; }

  /// Enqueues into VC `id`. Precondition: !vc(id).full().
  void push(VcId id, const Flit& flit, Cycle now);

  /// Dequeues the front flit of VC `id`. Precondition: !vc(id).empty().
  Flit pop(VcId id, Cycle now);

  /// Bit i set iff vc(i) is non-empty.
  std::uint32_t occupiedMask() const { return occupiedMask_; }

  /// Bit i set iff vc(i)'s front flit is a packet head (a head is always the
  /// first flit pushed into its VC, so the mask updates in O(1) on
  /// push/pop).  The router's arbitration stages only matter when this is
  /// non-zero: pure body/tail streaming takes the owned-output fast path,
  /// and the transmit scan pre-intersects candidates with this mask.
  std::uint32_t headFrontMask() const { return headFrontMask_; }
  std::uint32_t headFrontCount() const {
    return static_cast<std::uint32_t>(std::popcount(headFrontMask_));
  }

  /// Mirrors this bank's hot metadata into externally owned storage (one
  /// slice of a network-wide SoA) from now on: push/pop keep the slice's
  /// masks and front-flit copies current, so the owner can scan the flat
  /// arrays instead of the banks.  Must be called while the bank is empty
  /// (it is — attachment happens at construction); the external storage must
  /// outlive the bank.  Slice arrays must hold at least numVcs() elements.
  void attachHotState(const VcHotSlice& slice);

  /// First VC that can accept a new packet's head flit (empty and not
  /// reserved by an in-flight packet), or kNoVc.
  VcId findFreeVcForNewPacket() const;

  /// Marks a VC reserved-by-packet (wormhole: one packet owns a VC from head
  /// to tail).
  void lock(VcId id) { lockedMask_ |= bit(id); }
  void unlock(VcId id) { lockedMask_ &= ~bit(id); }
  bool isLocked(VcId id) const { return (lockedMask_ & bit(id)) != 0; }

  /// True if every VC is either non-empty or locked: a newly arriving head
  /// flit would be dropped (paper Section 1.4 drop-and-retransmit).
  bool allBusy() const { return findFreeVcForNewPacket() == kNoVc; }

  BufferStats aggregateStats() const;

  /// Empties every VC, drops all locks and zeroes statistics (network reset).
  void reset();

  /// Total flits currently buffered across all VCs (O(1)).
  std::uint32_t totalOccupancy() const { return occupancy_; }

 private:
  static std::uint32_t bit(VcId id) { return 1u << id; }

  std::vector<VirtualChannel> vcs_;
  std::uint32_t allVcsMask_ = 0;
  std::uint32_t lockedMask_ = 0;
  std::uint32_t occupiedMask_ = 0;
  std::uint32_t headFrontMask_ = 0;
  std::uint32_t occupancy_ = 0;
  /// External SoA mirror; all pointers null when unattached (push/pop then
  /// skip the mirroring entirely).
  VcHotSlice ext_;
};

/// Maps in-flight packet ids to the VC receiving them at one port.  The live
/// set is tiny (only packets mid-reception, usually 0-2), so a linear-scan
/// vector beats a node-based map on every hot ingress path.
class PacketVcMap {
 public:
  /// VC receiving `id`, or kNoVc.
  VcId find(PacketId id) const {
    for (const auto& [packet, vc] : entries_) {
      if (packet == id) return vc;
    }
    return kNoVc;
  }

  void insert(PacketId id, VcId vc) { entries_.emplace_back(id, vc); }

  void erase(PacketId id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == id) {
        *it = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  void clear() { entries_.clear(); }

 private:
  std::vector<std::pair<PacketId, VcId>> entries_;
};

}  // namespace pnoc::noc
