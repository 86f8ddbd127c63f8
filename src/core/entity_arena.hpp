// Dense struct-of-arrays storage for device and control-point state.
//
// Fleet-scale runs (10^5-10^6 entities in one Simulation, ROADMAP item 1)
// are memory-layout bound: one `std::deque<Message>` per device costs
// ~0.5 KiB of libstdc++ bookkeeping before the first probe arrives, and
// pointer-heavy per-object state scatters the probe hot path across the
// heap. The arena fixes both:
//
//   * `DeviceState`/`CpState` live in contiguous `util::SlabPool` slabs
//     (stable addresses, 32-bit indices, LIFO reuse, zero steady-state
//     allocation once the population plateaus),
//   * every device's probe service queue is an intrusive list of
//     `QueueNode`s drawn from ONE shared pool — an idle device costs
//     12 bytes of queue state, not a deque,
//   * handles are generation-tagged (`DeviceId`/`CpId`, same scheme as
//     `des::EventId`): a stale id never aliases a reused slot.
//
// The wrapper classes (`DeviceBase`, `ControlPointBase`) keep behaviour
// and network identity; all mutable protocol state lives here. Occupancy
// and high-water gauges feed the telemetry bridge
// (`probemon_entity_arena_*`).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "check/contract.hpp"
#include "net/message.hpp"
#include "util/slab_pool.hpp"

namespace probemon::core {

/// Generation-tagged arena handle. Packs (generation << 32) | (index + 1);
/// zero is the invalid handle, so a default-constructed id is never valid.
template <class Tag>
class EntityId {
 public:
  constexpr EntityId() = default;

  constexpr bool is_valid_handle() const noexcept { return raw_ != 0; }
  constexpr std::uint32_t index() const noexcept {
    return static_cast<std::uint32_t>(raw_ & 0xffff'ffffu) - 1;
  }
  constexpr std::uint32_t generation() const noexcept {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }

  friend constexpr bool operator==(EntityId a, EntityId b) noexcept {
    return a.raw_ == b.raw_;
  }
  friend constexpr bool operator!=(EntityId a, EntityId b) noexcept {
    return a.raw_ != b.raw_;
  }

 private:
  constexpr explicit EntityId(std::uint64_t raw) noexcept : raw_(raw) {}
  std::uint64_t raw_ = 0;
  friend class EntityArena;
};

using DeviceId = EntityId<struct DeviceIdTag>;
using CpId = EntityId<struct CpIdTag>;

/// All mutable state of one device. Reset on slot acquire; `gen` survives
/// release so stale `DeviceId`s are detectable.
struct DeviceState {
  static constexpr std::uint32_t kNil = 0xffff'ffffu;

  /// Reply for the in-flight computation. The device is serial (busy
  /// guards a single outstanding completion event), so one slot suffices.
  net::Message pending_reply{};
  std::uint64_t probes_received = 0;
  std::uint64_t service_epoch = 0;  ///< bumped on go_silent
  /// Last two *distinct* probers, most recent first (overlay seed).
  std::array<net::NodeId, 2> last_probers{net::kInvalidNode,
                                          net::kInvalidNode};
  net::NodeId node = net::kInvalidNode;  ///< network address
  std::uint32_t queue_head = kNil;       ///< service queue (shared pool)
  std::uint32_t queue_tail = kNil;
  std::uint32_t queue_len = 0;
  std::uint32_t gen = 0;
  bool present = true;
  bool busy = false;
  bool live = false;
};

/// All mutable state of one control point.
struct CpState {
  double absence_time = std::numeric_limits<double>::quiet_NaN();
  double current_delay = std::numeric_limits<double>::quiet_NaN();
  /// Overlay neighbours learned from reply piggyback data, oldest first;
  /// only the first `overlay_count` entries are meaningful.
  std::array<net::NodeId, 4> overlay{};
  net::NodeId node = net::kInvalidNode;    ///< network address
  net::NodeId device = net::kInvalidNode;  ///< monitored device
  std::uint32_t gen = 0;
  std::uint8_t overlay_count = 0;
  std::uint8_t dissemination_ttl = 0;
  bool running = false;
  bool device_present = true;
  bool notified_peers = false;
  bool live = false;
};

class EntityArena {
 public:
  static constexpr std::uint32_t kNil = DeviceState::kNil;

  // --- devices ---------------------------------------------------------

  DeviceId add_device() {
    const std::uint32_t index = devices_.acquire();
    DeviceState& st = devices_[index];
    const std::uint32_t gen = st.gen;
    st = DeviceState{};
    st.gen = gen;
    st.live = true;
    device_high_water_ = std::max(device_high_water_, devices_.in_use());
    return DeviceId{pack(gen, index)};
  }

  void remove_device(DeviceId id) {
    DeviceState& st = device(id);
    clear_queue(st);
    st.live = false;
    ++st.gen;  // invalidates every outstanding handle to this slot
    devices_.release(id.index());
  }

  DeviceState& device(DeviceId id) noexcept {
    PROBEMON_CONTRACT(valid(id), "stale or invalid DeviceId");
    return devices_[id.index()];
  }
  const DeviceState& device(DeviceId id) const noexcept {
    PROBEMON_CONTRACT(valid(id), "stale or invalid DeviceId");
    return devices_[id.index()];
  }

  bool valid(DeviceId id) const noexcept {
    // Only handed-out slots hold a DeviceState; an id from another arena
    // may point past them.
    if (!id.is_valid_handle() || id.index() >= devices_.handed_out()) {
      return false;
    }
    const DeviceState& st = devices_[id.index()];
    return st.live && st.gen == id.generation();
  }

  // --- control points --------------------------------------------------

  CpId add_cp() {
    const std::uint32_t index = cps_.acquire();
    CpState& st = cps_[index];
    const std::uint32_t gen = st.gen;
    st = CpState{};
    st.gen = gen;
    st.live = true;
    cp_high_water_ = std::max(cp_high_water_, cps_.in_use());
    return CpId{pack(gen, index)};
  }

  void remove_cp(CpId id) {
    CpState& st = cp(id);
    st.live = false;
    ++st.gen;
    cps_.release(id.index());
  }

  CpState& cp(CpId id) noexcept {
    PROBEMON_CONTRACT(valid(id), "stale or invalid CpId");
    return cps_[id.index()];
  }
  const CpState& cp(CpId id) const noexcept {
    PROBEMON_CONTRACT(valid(id), "stale or invalid CpId");
    return cps_[id.index()];
  }

  bool valid(CpId id) const noexcept {
    if (!id.is_valid_handle() || id.index() >= cps_.handed_out()) {
      return false;
    }
    const CpState& st = cps_[id.index()];
    return st.live && st.gen == id.generation();
  }

  // --- device service queues (one shared node pool) --------------------

  void queue_push(DeviceId id, const net::Message& msg) {
    DeviceState& st = device(id);
    const std::uint32_t node = queue_pool_.acquire();
    QueueNode& qn = queue_pool_[node];
    qn.msg = msg;
    qn.next = kNil;
    if (st.queue_tail == kNil) {
      st.queue_head = node;
    } else {
      queue_pool_[st.queue_tail].next = node;
    }
    st.queue_tail = node;
    ++st.queue_len;
    queue_high_water_ = std::max(queue_high_water_, queue_pool_.in_use());
  }

  /// Pop the oldest queued message into `out`; false when empty.
  bool queue_pop(DeviceId id, net::Message& out) {
    DeviceState& st = device(id);
    if (st.queue_head == kNil) return false;
    const std::uint32_t node = st.queue_head;
    QueueNode& qn = queue_pool_[node];
    out = qn.msg;
    st.queue_head = qn.next;
    if (st.queue_head == kNil) st.queue_tail = kNil;
    --st.queue_len;
    queue_pool_.release(node);
    return true;
  }

  void queue_clear(DeviceId id) { clear_queue(device(id)); }

  // --- occupancy / telemetry ------------------------------------------

  std::size_t device_slots() const noexcept { return devices_.capacity(); }
  std::size_t device_in_use() const noexcept { return devices_.in_use(); }
  std::size_t device_high_water() const noexcept {
    return device_high_water_;
  }
  std::size_t cp_slots() const noexcept { return cps_.capacity(); }
  std::size_t cp_in_use() const noexcept { return cps_.in_use(); }
  std::size_t cp_high_water() const noexcept { return cp_high_water_; }
  std::size_t queue_pool_slots() const noexcept {
    return queue_pool_.capacity();
  }
  std::size_t queue_pool_in_use() const noexcept {
    return queue_pool_.in_use();
  }
  std::size_t queue_pool_high_water() const noexcept {
    return queue_high_water_;
  }

 private:
  struct QueueNode {
    net::Message msg{};
    std::uint32_t next = kNil;
  };

  static constexpr std::uint64_t pack(std::uint32_t gen,
                                      std::uint32_t index) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }

  void clear_queue(DeviceState& st) {
    std::uint32_t node = st.queue_head;
    while (node != kNil) {
      const std::uint32_t next = queue_pool_[node].next;
      queue_pool_.release(node);
      node = next;
    }
    st.queue_head = kNil;
    st.queue_tail = kNil;
    st.queue_len = 0;
  }

  util::SlabPool<DeviceState> devices_;
  util::SlabPool<CpState> cps_;
  util::SlabPool<QueueNode> queue_pool_;
  std::size_t device_high_water_ = 0;
  std::size_t cp_high_water_ = 0;
  std::size_t queue_high_water_ = 0;
};

}  // namespace probemon::core
