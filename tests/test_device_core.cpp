// Tests for the device's reply rules (core/device_core.hpp): the pure
// functions one by one, then one probe sequence fed to a DES device and
// to a reactor device, whose replies must agree field for field — the
// two drivers share the rules, so they may differ only in storage and
// timing, never in what a reply says.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "core/device_core.hpp"
#include "core/probemon.hpp"
#include "raw_udp_peer.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"

namespace probemon::core {
namespace {

constexpr net::NodeId kNone = net::kInvalidNode;

net::Message probe_from(net::NodeId from, net::NodeId to,
                        std::uint64_t cycle) {
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = from;
  probe.to = to;
  probe.cycle = cycle;
  return probe;
}

/// Records every grant the device reports.
struct GrantLog final : ProtocolObserver {
  struct Grant {
    net::NodeId device;
    double t, nt_before, nt_after;
  };
  std::vector<Grant> grants;
  void on_slot_granted(net::NodeId device, double t, double nt_before,
                       double nt_after) override {
    grants.push_back({device, t, nt_before, nt_after});
  }
};

TEST(DeviceCore, ProbeGateAcceptsOnlyProbesWhilePresent) {
  net::Message msg = probe_from(7, 1, 1);
  EXPECT_TRUE(accepts_probe(msg, true));
  EXPECT_FALSE(accepts_probe(msg, false));
  msg.kind = net::MessageKind::kReply;
  EXPECT_FALSE(accepts_probe(msg, true));
  msg.kind = net::MessageKind::kBye;
  EXPECT_FALSE(accepts_probe(msg, true));
}

TEST(DeviceCore, ReplyHeaderPiggybacksPreviousDistinctProbers) {
  Probers probers{kNone, kNone};
  net::Message probe = probe_from(7, 1, 3);
  probe.attempt = 2;
  net::Message reply;
  reply.pc = 99;  // stale payload from an earlier reply
  begin_reply(probe, 1, probers, reply);
  EXPECT_EQ(reply.kind, net::MessageKind::kReply);
  EXPECT_EQ(reply.from, 1u);
  EXPECT_EQ(reply.to, 7u);
  EXPECT_EQ(reply.cycle, 3u);
  EXPECT_EQ(reply.attempt, 2);
  EXPECT_EQ(reply.pc, 0u);
  EXPECT_EQ(reply.last_probers, (Probers{kNone, kNone}));
  EXPECT_EQ(probers, (Probers{7, kNone}));

  // A repeat is not a new prober; a new one shifts the older out.
  begin_reply(probe_from(7, 1, 4), 1, probers, reply);
  EXPECT_EQ(reply.last_probers, (Probers{7, kNone}));
  EXPECT_EQ(probers, (Probers{7, kNone}));
  begin_reply(probe_from(9, 1, 5), 1, probers, reply);
  EXPECT_EQ(reply.last_probers, (Probers{7, kNone}));
  EXPECT_EQ(probers, (Probers{9, 7}));
  begin_reply(probe_from(7, 1, 6), 1, probers, reply);
  EXPECT_EQ(reply.last_probers, (Probers{9, 7}));
  EXPECT_EQ(probers, (Probers{7, 9}));
}

TEST(DeviceCore, SappStepAddsDelta) {
  net::Message reply;
  EXPECT_EQ(sapp_step(5, 10, reply), 15u);
  EXPECT_EQ(reply.pc, 15u);
}

TEST(DeviceCore, DcppGrantAdvancesFrontierAndReportsIt) {
  DcppDeviceConfig config;
  config.delta_min = 0.1;
  config.d_min = 0.5;
  GrantLog log;
  double nt = 0.0;
  net::Message reply;
  // Idle device: the wait is d_min.
  dcpp_grant(4, nt, 100.0, config, &log, reply);
  EXPECT_DOUBLE_EQ(reply.grant_delay, 0.5);
  EXPECT_DOUBLE_EQ(nt, 100.5);
  // Busy device: the slot goes delta_min past the frontier, and the
  // wait still tops up to d_min.
  dcpp_grant(4, nt, 100.1, config, &log, reply);
  EXPECT_DOUBLE_EQ(nt, 100.6);
  EXPECT_DOUBLE_EQ(reply.grant_delay, 0.5);
  ASSERT_EQ(log.grants.size(), 2u);
  EXPECT_EQ(log.grants[1].device, 4u);
  EXPECT_DOUBLE_EQ(log.grants[1].t, 100.1);
  EXPECT_DOUBLE_EQ(log.grants[1].nt_before, 100.5);
  EXPECT_DOUBLE_EQ(log.grants[1].nt_after, 100.6);
  // No observer is fine.
  dcpp_grant(4, nt, 100.2, config, nullptr, reply);
  EXPECT_DOUBLE_EQ(nt, 100.7);
}

TEST(DeviceCore, DcppGrantChecksTheSchedule) {
  // A corrupted (NaN) frontier fails the schedule check: checked builds
  // report the invariant; release builds compile it out.
  std::vector<check::ContractViolation> seen;
  check::ScopedFailureHandler guard(
      [&](const check::ContractViolation& v) { seen.push_back(v); });
  double nt = std::numeric_limits<double>::quiet_NaN();
  net::Message reply;
  dcpp_grant(4, nt, 1.0, DcppDeviceConfig{}, nullptr, reply);
  ASSERT_EQ(seen.size(), check::kChecked ? 1u : 0u);
  if (check::kChecked) {
    EXPECT_NE(seen[0].detail.find("DCPP grant broke the schedule"),
              std::string::npos);
  }
}

TEST(DeviceCore, DesAndReactorDevicesReplyAlike) {
  // Prober indices; repeats and alternation exercise the overlay rule.
  const int order[] = {0, 0, 1, 0, 2, 2, 1, 0, 1, 1, 2, 0};
  constexpr std::size_t kProbes = std::size(order);
  constexpr int kProbers = 3;

  SappDeviceConfig sapp_config;
  DcppDeviceConfig dcpp_config;
  dcpp_config.delta_min = 0.01;
  dcpp_config.d_min = 0.05;
  // The DES devices answer without a computation delay, so each probe
  // is serviced at the instant it arrives, as on the reactor.
  sapp_config.compute = {0.0, 0.0};
  dcpp_config.compute = {0.0, 0.0};

  // Reactor: the sequence over real UDP from outside the loop, one
  // probe (to each device) at a time.
  const net::NodeId rt_ids[kProbers] = {0x60000001, 0x60000002, 0x60000003};
  std::vector<net::Message> rt_sapp, rt_dcpp;
  GrantLog rt_log;
  Probers rt_sapp_final{}, rt_dcpp_final{};
  {
    runtime::EventLoop loop;
    runtime::AsyncUdpTransport transport(loop);
    runtime::AsyncSappDevice sapp(transport, sapp_config);
    runtime::AsyncDcppDevice dcpp(transport, dcpp_config, &rt_log);
    loop.start();
    runtime::RawPeer peer;
    for (std::size_t i = 0; i < kProbes; ++i) {
      const net::NodeId from = rt_ids[order[i]];
      net::Message reply;
      ASSERT_TRUE(peer.ask(transport.local_port(),
                           probe_from(from, sapp.id(), i + 1), reply));
      rt_sapp.push_back(reply);
      ASSERT_TRUE(peer.ask(transport.local_port(),
                           probe_from(from, dcpp.id(), i + 1), reply));
      rt_dcpp.push_back(reply);
    }
    loop.stop();
    rt_sapp_final = sapp.last_probers();
    rt_dcpp_final = dcpp.last_probers();
  }
  ASSERT_EQ(rt_log.grants.size(), kProbes);

  // DES: the same sequence, each probe delivered at the instant the
  // reactor's DCPP device serviced it.
  des::Simulation sim(1);
  auto network = net::Network::make_paper_default(sim.scheduler(), sim.rng());
  EntityArena arena;
  GrantLog des_log;
  SappDevice sapp(sim, *network, arena, sapp_config);
  DcppDevice dcpp(sim, *network, arena, dcpp_config, &des_log);
  struct Prober final : net::INetworkClient {
    std::map<std::pair<net::NodeId, std::uint64_t>, net::Message> replies;
    void on_message(const net::Message& msg) override {
      replies[{msg.from, msg.cycle}] = msg;
    }
  } probers[kProbers];
  net::NodeId des_ids[kProbers];
  for (int p = 0; p < kProbers; ++p) des_ids[p] = network->attach(probers[p]);
  std::vector<net::Message> des_probes;
  for (std::size_t i = 0; i < kProbes; ++i) {
    des_probes.push_back(probe_from(des_ids[order[i]], kNone, i + 1));
  }
  for (std::size_t i = 0; i < kProbes; ++i) {
    sim.at(rt_log.grants[i].t, [&sapp, &dcpp, &des_probes, i] {
      net::Message probe = des_probes[i];
      probe.to = sapp.id();
      sapp.on_message(probe);
      probe.to = dcpp.id();
      dcpp.on_message(probe);
    });
  }
  sim.run_all();

  // Prober ids differ between the drivers; compare by prober index.
  auto label = [](const net::NodeId (&ids)[kProbers], net::NodeId id) {
    for (int p = 0; p < kProbers; ++p) {
      if (ids[p] == id) return p;
    }
    return id == kNone ? -1 : -2;
  };
  auto labels = [&](const net::NodeId (&ids)[kProbers], const Probers& pr) {
    return std::pair{label(ids, pr[0]), label(ids, pr[1])};
  };
  for (std::size_t i = 0; i < kProbes; ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    const Prober& prober = probers[order[i]];
    auto sapp_it = prober.replies.find({sapp.id(), i + 1});
    auto dcpp_it = prober.replies.find({dcpp.id(), i + 1});
    ASSERT_NE(sapp_it, prober.replies.end());
    ASSERT_NE(dcpp_it, prober.replies.end());
    const net::Message& des_sapp = sapp_it->second;
    const net::Message& des_dcpp = dcpp_it->second;

    EXPECT_EQ(des_sapp.pc, rt_sapp[i].pc);
    EXPECT_EQ(rt_sapp[i].pc, (i + 1) * sapp_config.delta());
    EXPECT_EQ(des_dcpp.grant_delay, rt_dcpp[i].grant_delay);
    EXPECT_EQ(des_log.grants[i].nt_after, rt_log.grants[i].nt_after);

    // Independent oracle for the overlay: the two most recent distinct
    // probers before probe i, by scanning the sequence backwards.
    std::pair<int, int> expected{-1, -1};
    for (std::size_t j = i; j-- > 0;) {
      if (expected.first == -1) {
        expected.first = order[j];
      } else if (order[j] != expected.first) {
        expected.second = order[j];
        break;
      }
    }
    EXPECT_EQ(labels(des_ids, des_sapp.last_probers), expected);
    EXPECT_EQ(labels(des_ids, des_dcpp.last_probers), expected);
    EXPECT_EQ(labels(rt_ids, rt_sapp[i].last_probers), expected);
    EXPECT_EQ(labels(rt_ids, rt_dcpp[i].last_probers), expected);
  }
  EXPECT_EQ(labels(des_ids, sapp.last_probers()),
            labels(rt_ids, rt_sapp_final));
  EXPECT_EQ(labels(des_ids, dcpp.last_probers()),
            labels(rt_ids, rt_dcpp_final));
}

}  // namespace
}  // namespace probemon::core
