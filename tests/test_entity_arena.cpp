// Tests for core::EntityArena: generation-tagged handles, the shared
// service-queue node pool, occupancy/high-water accounting, and the
// telemetry bridge gauges.
#include <gtest/gtest.h>

#include <vector>

#include "core/entity_arena.hpp"
#include "telemetry/bridges.hpp"
#include "telemetry/registry.hpp"

namespace probemon::core {
namespace {

net::Message probe_from(net::NodeId cp, std::uint64_t cycle) {
  net::Message msg;
  msg.kind = net::MessageKind::kProbe;
  msg.from = cp;
  msg.cycle = cycle;
  return msg;
}

TEST(EntityArena, DefaultIdIsInvalid) {
  EntityArena arena;
  DeviceId did;
  CpId cid;
  EXPECT_FALSE(did.is_valid_handle());
  EXPECT_FALSE(arena.valid(did));
  EXPECT_FALSE(arena.valid(cid));
}

TEST(EntityArena, AddRemoveDeviceTracksOccupancy) {
  EntityArena arena;
  const DeviceId a = arena.add_device();
  const DeviceId b = arena.add_device();
  EXPECT_TRUE(arena.valid(a));
  EXPECT_TRUE(arena.valid(b));
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.device_in_use(), 2u);
  EXPECT_EQ(arena.device_high_water(), 2u);

  arena.remove_device(a);
  EXPECT_FALSE(arena.valid(a));
  EXPECT_TRUE(arena.valid(b));
  EXPECT_EQ(arena.device_in_use(), 1u);
  EXPECT_EQ(arena.device_high_water(), 2u);  // high water never shrinks
}

TEST(EntityArena, StaleHandleNeverAliasesReusedSlot) {
  // The ABA hazard: remove a device, acquire a new one (which reuses the
  // LIFO-freed slot), and check the old handle stays invalid while the
  // new one works. Same for CPs.
  EntityArena arena;
  const DeviceId old_id = arena.add_device();
  arena.device(old_id).probes_received = 42;
  arena.remove_device(old_id);

  const DeviceId new_id = arena.add_device();
  ASSERT_EQ(new_id.index(), old_id.index());  // slot reused (LIFO)
  EXPECT_NE(new_id, old_id);                  // but a different generation
  EXPECT_FALSE(arena.valid(old_id));
  EXPECT_TRUE(arena.valid(new_id));
  // The reused slot was reset, not inherited.
  EXPECT_EQ(arena.device(new_id).probes_received, 0u);
  EXPECT_TRUE(arena.device(new_id).present);

  const CpId old_cp = arena.add_cp();
  arena.remove_cp(old_cp);
  const CpId new_cp = arena.add_cp();
  ASSERT_EQ(new_cp.index(), old_cp.index());
  EXPECT_FALSE(arena.valid(old_cp));
  EXPECT_TRUE(arena.valid(new_cp));
}

TEST(EntityArena, ServiceQueueIsFifoPerDevice) {
  EntityArena arena;
  const DeviceId a = arena.add_device();
  const DeviceId b = arena.add_device();

  // Interleaved pushes onto two devices sharing one node pool must stay
  // FIFO per device.
  for (std::uint64_t i = 0; i < 5; ++i) {
    arena.queue_push(a, probe_from(100, i));
    arena.queue_push(b, probe_from(200, i));
  }
  EXPECT_EQ(arena.device(a).queue_len, 5u);
  EXPECT_EQ(arena.queue_pool_in_use(), 10u);

  net::Message out;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(arena.queue_pop(a, out));
    EXPECT_EQ(out.from, 100u);
    EXPECT_EQ(out.cycle, i);
  }
  EXPECT_FALSE(arena.queue_pop(a, out));
  EXPECT_EQ(arena.device(a).queue_len, 0u);

  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(arena.queue_pop(b, out));
    EXPECT_EQ(out.from, 200u);
    EXPECT_EQ(out.cycle, i);
  }
  EXPECT_EQ(arena.queue_pool_in_use(), 0u);
  EXPECT_EQ(arena.queue_pool_high_water(), 10u);
}

TEST(EntityArena, QueueClearReleasesEveryNode) {
  EntityArena arena;
  const DeviceId id = arena.add_device();
  for (std::uint64_t i = 0; i < 8; ++i) {
    arena.queue_push(id, probe_from(7, i));
  }
  arena.queue_clear(id);
  EXPECT_EQ(arena.device(id).queue_len, 0u);
  EXPECT_EQ(arena.queue_pool_in_use(), 0u);
  net::Message out;
  EXPECT_FALSE(arena.queue_pop(id, out));

  // Push after clear works on a clean list.
  arena.queue_push(id, probe_from(8, 99));
  ASSERT_TRUE(arena.queue_pop(id, out));
  EXPECT_EQ(out.cycle, 99u);
}

TEST(EntityArena, RemoveDeviceReclaimsItsQueue) {
  EntityArena arena;
  const DeviceId id = arena.add_device();
  arena.queue_push(id, probe_from(1, 0));
  arena.queue_push(id, probe_from(1, 1));
  EXPECT_EQ(arena.queue_pool_in_use(), 2u);
  arena.remove_device(id);
  EXPECT_EQ(arena.queue_pool_in_use(), 0u);
}

TEST(EntityArena, SteadyChurnDoesNotGrowSlabs) {
  // Population plateaus => slab capacity plateaus (zero steady-state
  // allocation, the fleet-scale claim behind bench_scale's flat
  // bytes/entity).
  EntityArena arena;
  std::vector<DeviceId> devices;
  std::vector<CpId> cps;
  for (int i = 0; i < 300; ++i) {
    devices.push_back(arena.add_device());
    cps.push_back(arena.add_cp());
  }
  const std::size_t device_slots = arena.device_slots();
  const std::size_t cp_slots = arena.cp_slots();

  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 100; ++i) {
      arena.remove_device(devices.back());
      devices.pop_back();
      arena.remove_cp(cps.back());
      cps.pop_back();
    }
    for (int i = 0; i < 100; ++i) {
      devices.push_back(arena.add_device());
      cps.push_back(arena.add_cp());
    }
  }
  EXPECT_EQ(arena.device_slots(), device_slots);
  EXPECT_EQ(arena.cp_slots(), cp_slots);
  EXPECT_EQ(arena.device_in_use(), 300u);
  EXPECT_EQ(arena.device_high_water(), 300u);
}

TEST(EntityArena, ForeignIdBeyondHandedOutSlotsIsInvalid) {
  // Ids from another arena whose index this arena never handed out
  // (though it lies inside the allocated slab) must not validate.
  EntityArena other;
  DeviceId foreign_device;
  CpId foreign_cp;
  for (int i = 0; i < 5; ++i) {
    foreign_device = other.add_device();
    foreign_cp = other.add_cp();
  }
  EntityArena arena;
  const DeviceId own_device = arena.add_device();
  const CpId own_cp = arena.add_cp();
  ASSERT_GT(arena.device_slots(), foreign_device.index());
  ASSERT_GT(arena.cp_slots(), foreign_cp.index());
  EXPECT_TRUE(other.valid(foreign_device));
  EXPECT_TRUE(other.valid(foreign_cp));
  EXPECT_FALSE(arena.valid(foreign_device));
  EXPECT_FALSE(arena.valid(foreign_cp));
  EXPECT_TRUE(arena.valid(own_device));
  EXPECT_TRUE(arena.valid(own_cp));

  EntityArena empty;
  EXPECT_FALSE(empty.valid(foreign_device));
  EXPECT_FALSE(empty.valid(foreign_cp));
}

double gauge_value(const std::vector<telemetry::Sample>& samples,
                   const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  return -1.0;
}

TEST(EntityArenaTelemetry, BridgeExportsOccupancyGauges) {
  EntityArena arena;
  const DeviceId device = arena.add_device();
  arena.add_cp();
  arena.add_cp();
  arena.queue_push(device, probe_from(5, 0));

  telemetry::Registry registry;
  telemetry::instrument_entity_arena(registry, arena);
  const auto samples = registry.snapshot();
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_device_in_use"), 1.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_cp_in_use"), 2.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_cp_high_water"), 2.0);
  EXPECT_EQ(gauge_value(samples, "probemon_entity_arena_queue_pool_in_use"),
            1.0);
  EXPECT_GE(gauge_value(samples, "probemon_entity_arena_device_slots"), 1.0);

  // Callback gauges read live state: draining the queue and removing a
  // CP shows up in the next snapshot without re-registration.
  net::Message out;
  ASSERT_TRUE(arena.queue_pop(device, out));
  const auto after = registry.snapshot();
  EXPECT_EQ(gauge_value(after, "probemon_entity_arena_queue_pool_in_use"),
            0.0);
  EXPECT_EQ(gauge_value(after, "probemon_entity_arena_queue_pool_high_water"),
            1.0);
}

}  // namespace
}  // namespace probemon::core
