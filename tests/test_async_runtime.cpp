// Tests for the real-time (event-loop) runtime: AsyncUdpTransport
// routing and peer learning over real sockets, device/control-point
// protocol behaviour (clean cycles, grant sharing, audited DCPP grants,
// the piggybacked prober overlay, SAPP adaptation, retransmission under
// loss, absence, hostile replies), the
// AsyncPresenceService facade, and a few-hundred-endpoint smoke run on
// one loop thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/observer_fanout.hpp"
#include "raw_udp_peer.hpp"
#include "runtime/event_loop/async_control_point.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/registry.hpp"

namespace probemon::runtime {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Tight protocol timings so tests finish in milliseconds, not the
/// paper's tens of seconds.
core::TimeoutConfig fast_timeouts() {
  core::TimeoutConfig timeouts;
  timeouts.tof = 0.020;
  timeouts.tos = 0.015;
  return timeouts;
}

core::DcppDeviceConfig fast_dcpp_device() {
  core::DcppDeviceConfig config;
  config.delta_min = 0.005;
  config.d_min = 0.02;
  return config;
}

core::DcppCpConfig fast_dcpp_cp() {
  core::DcppCpConfig config;
  config.timeouts = fast_timeouts();
  return config;
}

core::SappCpConfig fast_sapp_cp() {
  core::SappCpConfig config;
  config.timeouts = fast_timeouts();
  config.delta_min = 0.005;
  config.initial_delay = 0.01;
  return config;
}

/// A hand-written device on a RawPeer: answers probes on its own
/// thread, with `policy` deciding per probe what (and how often) to
/// answer. Pin it on the transport with set_peer(kId, port()).
class FakeDevice {
 public:
  static constexpr net::NodeId kId = 0x50000000;
  using Send = std::function<void(const net::Message& reply)>;
  /// Gets each probe and a reply addressed to its sender (kind, cycle
  /// and attempt filled in); calls `send` once per reply to transmit.
  using ReplyPolicy = std::function<void(const net::Message& probe,
                                         net::Message& reply,
                                         const Send& send)>;

  FakeDevice(std::uint16_t transport_port, ReplyPolicy policy)
      : thread_([this, transport_port, policy = std::move(policy)] {
          const Send send = [this, transport_port](const net::Message& m) {
            peer_.send_to(transport_port, m);
          };
          net::Message probe;
          while (!stop_.load()) {
            if (!peer_.receive(probe) ||
                probe.kind != net::MessageKind::kProbe) {
              continue;
            }
            probes_.fetch_add(1);
            net::Message reply;
            reply.kind = net::MessageKind::kReply;
            reply.from = kId;
            reply.to = probe.from;
            reply.cycle = probe.cycle;
            reply.attempt = probe.attempt;
            policy(probe, reply, send);
          }
        }) {}
  ~FakeDevice() {
    stop_.store(true);
    thread_.join();
  }

  std::uint16_t port() const { return peer_.port; }
  std::uint64_t probes() const { return probes_.load(); }

 private:
  RawPeer peer_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> probes_{0};
  std::thread thread_;
};

TEST(AsyncUdpTransport, SendSideUnroutableIsCounted) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);  // loop not running: direct calls OK
  net::Message msg;
  msg.kind = net::MessageKind::kProbe;
  msg.from = 1;
  msg.to = 999;  // neither attached nor a known peer
  transport.send(msg);
  EXPECT_EQ(transport.unroutable_count(), 1u);
  // sent/delivered/send_errors/unroutable partition the datagrams:
  // an unroutable one was never handed to the kernel.
  transport.flush();
  EXPECT_EQ(transport.sent_count(), 0u);
  EXPECT_EQ(transport.send_error_count(), 0u);
}

TEST(AsyncUdpTransport, LearnsPeerFromDatagramSource) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  loop.start();

  // Pose as an external control point on a raw socket: first datagram
  // teaches the transport our port, the device's reply comes back.
  RawPeer peer;
  const net::NodeId external_cp = 0x40000000;
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = external_cp;
  probe.to = device.id();
  probe.cycle = 7;
  peer.send_to(transport.local_port(), probe);

  net::Message reply;
  ASSERT_TRUE(eventually([&] { return peer.receive(reply); }))
      << "no reply routed back to the learned peer";
  EXPECT_EQ(reply.kind, net::MessageKind::kReply);
  EXPECT_EQ(reply.from, device.id());
  EXPECT_EQ(reply.to, external_cp);
  EXPECT_EQ(reply.cycle, 7u);
  EXPECT_GE(reply.grant_delay, 0.0);
  EXPECT_EQ(device.probes_received(), 1u);
  loop.stop();
}

TEST(AsyncUdpTransport, MalformedDatagramCountsRecvError) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  loop.start();

  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(transport.local_port());
  const char junk[5] = {1, 2, 3, 4, 5};  // wrong size: undecodable
  ASSERT_EQ(sendto(fd, junk, sizeof junk, 0,
                   reinterpret_cast<sockaddr*>(&dst), sizeof dst),
            static_cast<ssize_t>(sizeof junk));
  EXPECT_TRUE(eventually([&] { return transport.recv_error_count() == 1; }));
  EXPECT_EQ(device.probes_received(), 0u);
  close(fd);
  loop.stop();
}

TEST(AsyncRuntime, DcppCyclesSucceedOverRealUdp) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> successes{0};
  std::atomic<double> last_delay{-1.0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (info.success) {
      ++successes;
      last_delay.store(info.next_delay);
      EXPECT_GE(info.rtt, 0.0);
      EXPECT_LE(info.start, info.end);
      EXPECT_EQ(info.attempts, 1);  // loopback: no retransmissions
    }
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return successes.load() >= 3; }));
  EXPECT_TRUE(cp.device_considered_present());
  EXPECT_GE(cp.cycles_succeeded(), 3u);
  EXPECT_EQ(cp.cycles_failed(), 0u);
  // DCPP delay is the device's grant: bounded by [0, d_min].
  EXPECT_GE(last_delay.load(), 0.0);
  EXPECT_LE(last_delay.load(), fast_dcpp_device().d_min + 1e-9);
  EXPECT_GE(device.probes_received(), cp.cycles_succeeded());
  loop.stop();
}

TEST(AsyncRuntime, SappCycleObservesProbeCounter) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::SappDeviceConfig device_config;
  AsyncSappDevice device(transport, device_config);
  std::atomic<int> successes{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle =
      [&successes](const AsyncControlPointBase::CycleInfo& info) {
        if (info.success) ++successes;
      };
  AsyncSappControlPoint cp(transport, device.id(), fast_sapp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return successes.load() >= 2; }));
  // Every probe bumps pc by Delta = l_ideal / l_nom.
  EXPECT_GT(device.probes_received(), 0u);
  EXPECT_EQ(device.probe_counter(),
            device_config.delta() * device.probes_received());
  // The adaptive delay stays within the configured band.
  EXPECT_GE(cp.delta(), fast_sapp_cp().delta_min - 1e-9);
  EXPECT_LE(cp.delta(), fast_sapp_cp().delta_max + 1e-9);
  loop.stop();
}

TEST(AsyncRuntime, SilentDeviceDeclaredAbsentAndMonitoringStops) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> absences{0};
  std::atomic<double> absent_at{-1.0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (info.success) return;
    absent_at.store(info.end);
    ++absences;
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);

  device.go_silent();
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return absences.load() == 1; }));
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_EQ(cp.cycles_failed(), 1u);
  EXPECT_EQ(cp.cycles_succeeded(), 0u);
  // First probe + max_retransmissions retries, then silence.
  const auto sent = cp.probes_sent();
  EXPECT_EQ(sent, 1u + fast_timeouts().max_retransmissions);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(cp.probes_sent(), sent) << "monitoring must stop on absence";
  // Detection takes at least TOF + R*TOS of wall time.
  EXPECT_GE(absent_at.load(),
            fast_timeouts().tof +
                fast_timeouts().max_retransmissions * fast_timeouts().tos -
                1e-3);
  loop.stop();
}

TEST(AsyncRuntime, StaleRepliesFromOlderCyclesAreIgnored) {
  // A device that comes back mid-retransmission must not resurrect an
  // older cycle: drive the CP against a device that goes silent for
  // one full cycle, then answers again — counters must stay coherent.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> completed{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&completed](const AsyncControlPointBase::CycleInfo&) {
    ++completed;
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();
  EXPECT_TRUE(eventually([&] { return completed.load() >= 2; }));
  device.go_silent();
  std::this_thread::sleep_for(30ms);  // at least one retransmission
  device.come_back();
  EXPECT_TRUE(eventually([&] { return completed.load() >= 5; }));
  EXPECT_TRUE(cp.device_considered_present());
  EXPECT_EQ(cp.cycles_failed(), 0u);
  loop.stop();
}

TEST(AsyncUdpTransport, DeliversBetweenNodes) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  std::atomic<int> received{0};
  net::Message last;
  const net::NodeId a = transport.attach([](const net::Message&) {});
  const net::NodeId b = transport.attach([&](const net::Message& msg) {
    last = msg;  // loop thread; read after loop.stop() joins it
    ++received;
  });
  loop.start();
  loop.post([&] {
    net::Message msg;
    msg.kind = net::MessageKind::kProbe;
    msg.from = a;
    msg.to = b;
    msg.cycle = 42;
    transport.send(msg);
  });
  EXPECT_TRUE(eventually([&] { return received.load() == 1; }));
  loop.stop();
  EXPECT_EQ(last.cycle, 42u);
  EXPECT_EQ(last.from, a);
  EXPECT_EQ(transport.sent_count(), 1u);
  EXPECT_EQ(transport.delivered_count(), 1u);
}

TEST(AsyncUdpTransport, DetachStopsDelivery) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  int received = 0;
  const net::NodeId a = transport.attach([](const net::Message&) {});
  const net::NodeId b =
      transport.attach([&](const net::Message&) { ++received; });
  transport.detach(b);
  net::Message msg;
  msg.kind = net::MessageKind::kProbe;
  msg.from = a;
  msg.to = b;
  transport.send(msg);
  transport.flush();
  EXPECT_EQ(received, 0);
  // A detached id is no longer a destination: dropped at send time.
  EXPECT_EQ(transport.unroutable_count(), 1u);
  EXPECT_EQ(transport.sent_count(), 0u);
}

TEST(AsyncRuntime, NonFiniteGrantReplyIsDroppedAndLoopRuns) {
  // A peer answering with grant_delay = +inf must not reach the timer
  // wheel (which rejects non-finite deadlines by throwing on the loop
  // thread): the reply is a decode failure, the CP retransmits, and the
  // loop keeps serving.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  FakeDevice device(transport.local_port(),
                    [](const net::Message&, net::Message& reply,
                       const FakeDevice::Send& send) {
                      reply.grant_delay =
                          std::numeric_limits<double>::infinity();
                      send(reply);
                    });
  transport.set_peer(FakeDevice::kId, device.port());
  AsyncDcppControlPoint cp(transport, FakeDevice::kId, fast_dcpp_cp());
  loop.post([&cp] { cp.start(); });
  loop.start();

  EXPECT_TRUE(eventually([&] { return transport.recv_error_count() >= 1; }));
  // Unanswered as far as the CP can tell: it runs to exhaustion, and
  // every one of its probes' replies counts as a receive error.
  EXPECT_TRUE(eventually([&] { return cp.cycles_failed() == 1; }));
  const std::uint64_t probes = 1u + fast_timeouts().max_retransmissions;
  EXPECT_TRUE(
      eventually([&] { return transport.recv_error_count() == probes; }));
  EXPECT_EQ(device.probes(), probes);
  EXPECT_EQ(cp.cycles_succeeded(), 0u);
  std::promise<void> ran;
  loop.post([&ran] { ran.set_value(); });
  EXPECT_EQ(ran.get_future().wait_for(2s), std::future_status::ready);
  EXPECT_TRUE(loop.running());
  loop.stop();
}

TEST(RtDcpp, EndToEndProbingRespectsGrants) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.01;  // 100 probes/s cap
  device_config.d_min = 0.05;      // 20 probes/s per CP
  AsyncDcppDevice device(transport, device_config);
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp());
  loop.post([&cp] { cp.start(); });
  loop.start();
  std::this_thread::sleep_for(500ms);
  loop.stop();

  // Lone CP probes at ~1/d_min = 20 Hz: expect ~10 cycles in 0.5 s.
  EXPECT_GT(cp.cycles_succeeded(), 5u);
  EXPECT_LT(cp.cycles_succeeded(), 15u);
  EXPECT_TRUE(cp.device_considered_present());
  EXPECT_NEAR(cp.current_delay(), 0.05, 0.02);
}

TEST(RtDcpp, MultipleCpsShareDeviceFairly) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.01;  // 100 probes/s cap
  device_config.d_min = 0.02;      // 4 CPs would want 200/s: grants bind
  AsyncDcppDevice device(transport, device_config);

  constexpr int kCps = 4;
  std::vector<std::unique_ptr<AsyncDcppControlPoint>> cps;
  for (int i = 0; i < kCps; ++i) {
    cps.push_back(std::make_unique<AsyncDcppControlPoint>(
        transport, device.id(), fast_dcpp_cp()));
    cps.back()->start(0.005 * i);
  }
  const auto t0 = std::chrono::steady_clock::now();
  loop.start();
  std::this_thread::sleep_for(600ms);
  loop.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t min_cycles = UINT64_MAX, max_cycles = 0;
  for (const auto& cp : cps) {
    EXPECT_TRUE(cp->device_considered_present());
    EXPECT_EQ(cp->cycles_failed(), 0u);
    min_cycles = std::min(min_cycles, cp->cycles_succeeded());
    max_cycles = std::max(max_cycles, cp->cycles_succeeded());
  }
  EXPECT_GT(min_cycles, 5u);
  // Fair sharing: no CP gets more than ~2x another.
  EXPECT_LT(max_cycles, 2 * min_cycles + 5);
  // Within its grants: granted probes arrive no earlier than their
  // slots, which are delta_min apart, so the device carries at most
  // one probe per slot plus each CP's first, ungranted probe.
  EXPECT_LE(static_cast<double>(device.probes_received()),
            elapsed / device_config.delta_min + 1 + kCps);
}

TEST(RtDcpp, GrantsAuditCleanOverUdp) {
  // The device reports every grant to an InvariantAuditor auditing the
  // paper's §4 schedule (grant formula, nt monotone, slots >= delta_min
  // apart) while four CPs contend for it: no violation, and exactly one
  // grant per probe answered.
  struct GrantCounter final : core::ProtocolObserver {
    std::uint64_t grants = 0;  // loop thread
    void on_slot_granted(net::NodeId, double, double, double) override {
      ++grants;
    }
  } counter;
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.01;
  device_config.d_min = 0.02;  // 4 CPs want 200/s, the device caps 100/s
  check::AuditConfig audit;
  audit.audit_dcpp = true;
  audit.dcpp = device_config;
  check::InvariantAuditor auditor(audit);
  core::FanoutObserver observers({&auditor, &counter});
  AsyncDcppDevice device(transport, device_config, &observers);

  std::vector<std::unique_ptr<AsyncDcppControlPoint>> cps;
  for (int i = 0; i < 4; ++i) {
    cps.push_back(std::make_unique<AsyncDcppControlPoint>(
        transport, device.id(), fast_dcpp_cp()));
    cps.back()->start(0.005 * i);
  }
  loop.start();
  EXPECT_TRUE(eventually([&] {
    return std::all_of(cps.begin(), cps.end(), [](const auto& cp) {
      return cp->cycles_succeeded() >= 5;
    });
  }));
  loop.stop();

  EXPECT_EQ(auditor.total_violations(), 0u) << auditor.summary();
  EXPECT_GE(counter.grants, 4u * 5u);
  EXPECT_EQ(counter.grants, device.probes_received());
}

TEST(RtDcpp, DetectsSilentDevice) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.01;
  device_config.d_min = 0.05;
  AsyncDcppDevice device(transport, device_config);
  std::atomic<int> absences{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (!info.success) ++absences;
  };
  AsyncDcppControlPoint cp(transport, device.id(), fast_dcpp_cp(), callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();
  EXPECT_TRUE(eventually([&] { return cp.cycles_succeeded() >= 2; }));
  EXPECT_TRUE(cp.device_considered_present());
  device.go_silent();
  EXPECT_TRUE(eventually([&] { return absences.load() == 1; }));
  loop.stop();
  EXPECT_FALSE(cp.device_considered_present());
  EXPECT_EQ(absences.load(), 1);
  EXPECT_EQ(cp.cycles_failed(), 1u);
}

TEST(RtSapp, ProbeCounterAdvancesAndCpAdapts) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::SappDeviceConfig device_config;  // Delta = 1e5
  AsyncSappDevice device(transport, device_config);
  core::SappCpConfig cp_config = fast_sapp_cp();
  cp_config.delta_min = 0.02;
  cp_config.initial_delay = 0.1;
  AsyncSappControlPoint cp(transport, device.id(), cp_config);
  loop.post([&cp] { cp.start(); });
  loop.start();
  // ~10 cycles/s on a quiet host; a late reply (retransmission) doubles
  // the delay, which is the protocol working, so wait for cycles rather
  // than for a fixed time.
  EXPECT_TRUE(eventually([&] { return cp.cycles_succeeded() > 2; }));
  loop.stop();

  EXPECT_EQ(device.probe_counter(),
            device.probes_received() * device_config.delta());
  // A lone CP at 10 Hz sees L_exp = 1e5 * 10 = 1e6: inside the band, so
  // the delay must stay within [delta_min, delta_max].
  EXPECT_GE(cp.current_delay(), cp_config.delta_min);
  EXPECT_LE(cp.current_delay(), cp_config.delta_max);
}

TEST(RtSapp, ReplyPiggybacksLastTwoProbers) {
  // Paper §2: every reply carries the last two *distinct* CPs that
  // probed the device before this probe, most recent first — the overlay
  // seed. Probers A, B, A, A, C from outside the loop over real UDP.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncSappDevice device(transport, core::SappDeviceConfig{});
  loop.start();
  RawPeer peer;
  constexpr net::NodeId kA = 0x60000001, kB = 0x60000002, kC = 0x60000003;
  constexpr net::NodeId kNone = net::kInvalidNode;
  const struct {
    net::NodeId from;
    core::Probers piggyback;
  } steps[] = {{kA, {kNone, kNone}},
               {kB, {kA, kNone}},
               {kA, {kB, kA}},
               {kA, {kA, kB}},  // a repeat is not a new prober
               {kC, {kA, kB}}};
  std::uint64_t cycle = 0;
  for (const auto& step : steps) {
    net::Message probe;
    probe.kind = net::MessageKind::kProbe;
    probe.from = step.from;
    probe.to = device.id();
    probe.cycle = ++cycle;
    net::Message reply;
    ASSERT_TRUE(peer.ask(transport.local_port(), probe, reply));
    EXPECT_EQ(reply.kind, net::MessageKind::kReply);
    EXPECT_EQ(reply.to, step.from);
    EXPECT_EQ(reply.last_probers, step.piggyback) << "cycle " << cycle;
  }
  loop.stop();
  EXPECT_EQ(device.last_probers(), (core::Probers{kC, kA}));
}

TEST(RtSapp, CallbackReportsCycleSuccess) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncSappDevice device(transport, core::SappDeviceConfig{});
  core::SappCpConfig cp_config = fast_sapp_cp();
  cp_config.initial_delay = 0.05;
  cp_config.delta_min = 0.02;
  std::atomic<int> successes{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (info.success) ++successes;
  };
  AsyncSappControlPoint cp(transport, device.id(), cp_config, callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();
  EXPECT_TRUE(eventually([&] { return successes.load() > 2; }));
  loop.stop();
}

TEST(RtLossy, RetransmissionsCoverLoss) {
  // The first probe of every cycle is lost on the way to the device;
  // the first retransmission gets through. Every cycle must succeed on
  // its second attempt, and nothing may be declared absent.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  FakeDevice device(transport.local_port(),
                    [](const net::Message& probe, net::Message& reply,
                       const FakeDevice::Send& send) {
                      reply.grant_delay = 0.01;
                      if (probe.attempt > 0) send(reply);
                    });
  transport.set_peer(FakeDevice::kId, device.port());

  std::atomic<int> cycles{0};
  std::atomic<int> other_attempts{0};
  std::atomic<int> absences{0};
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle = [&](const AsyncControlPointBase::CycleInfo& info) {
    if (!info.success) ++absences;
    if (!info.success || info.attempts != 2) ++other_attempts;
    ++cycles;
  };
  AsyncDcppControlPoint cp(transport, FakeDevice::kId, fast_dcpp_cp(),
                           callbacks);
  loop.post([&cp] { cp.start(); });
  loop.start();
  EXPECT_TRUE(eventually([&] { return cycles.load() >= 8; }));
  loop.stop();

  EXPECT_EQ(other_attempts.load(), 0);
  EXPECT_EQ(absences.load(), 0);
  EXPECT_EQ(cp.cycles_failed(), 0u);
  EXPECT_TRUE(cp.device_considered_present());
  // Two probes per completed cycle, plus those of a cycle still open
  // when the loop stopped.
  EXPECT_GE(cp.probes_sent(), 2 * cp.cycles_succeeded());
  EXPECT_LE(cp.probes_sent(), 2 * cp.cycles_succeeded() + 2);
}

TEST(RtSapp, UseEveryReplyFeedsDuplicatesIntoAdaptation) {
  // A device that answers each probe twice, the second reply counting
  // one more probe (a duplicated probe datagram). The duplicate is a
  // rejected reply; with use_every_reply its (pc, t) pair, milliseconds
  // after the first, reads as overload and δ grows by alpha_inc — the
  // DES SappControlPoint rule. Without the flag δ stays put.
  for (const bool use_every_reply : {true, false}) {
    SCOPED_TRACE(use_every_reply ? "use_every_reply" : "cycle replies only");
    EventLoop loop;
    AsyncUdpTransport transport(loop);
    constexpr std::uint64_t kDelta = 100'000;  // the paper's Δ
    std::uint64_t pc = 0;                      // device thread only
    FakeDevice device(transport.local_port(),
                      [&pc](const net::Message&, net::Message& reply,
                            const FakeDevice::Send& send) {
                        reply.pc = pc += kDelta;
                        send(reply);
                        std::this_thread::sleep_for(10ms);
                        reply.pc = pc += kDelta;
                        send(reply);
                      });
    transport.set_peer(FakeDevice::kId, device.port());
    core::SappCpConfig config = fast_sapp_cp();
    config.initial_delay = 1.0;  // no second cycle within the test
    config.use_every_reply = use_every_reply;
    AsyncSappControlPoint cp(transport, FakeDevice::kId, config);
    loop.post([&cp] { cp.start(); });
    loop.start();
    EXPECT_TRUE(eventually([&] { return transport.delivered_count() >= 2; }));
    loop.stop();

    EXPECT_EQ(cp.cycles_succeeded(), 1u);
    EXPECT_EQ(cp.probes_sent(), 1u);
    EXPECT_EQ(cp.delta(), use_every_reply
                              ? config.alpha_inc * config.initial_delay
                              : config.initial_delay);
  }
}

TEST(AsyncRuntime, ContinueAfterAbsenceIsRejected) {
  // The reactor stops monitoring on absence by design, so a config that
  // asks to keep probing is refused instead of silently ignored.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::SappCpConfig sapp = fast_sapp_cp();
  sapp.continue_after_absence = true;
  EXPECT_THROW(AsyncSappControlPoint(transport, 1, sapp),
               std::invalid_argument);
  core::DcppCpConfig dcpp = fast_dcpp_cp();
  dcpp.continue_after_absence = true;
  EXPECT_THROW(AsyncDcppControlPoint(transport, 1, dcpp),
               std::invalid_argument);
}

TEST(AsyncRuntime, AdaptiveDeltaIsRejected) {
  // Δ-doubling needs the device's trailing load window, which the
  // reactor device does not keep, so the flag is refused instead of
  // silently ignored.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  core::SappDeviceConfig config;
  config.adaptive_delta = true;
  EXPECT_THROW(AsyncSappDevice(transport, config), std::invalid_argument);
  config.adaptive_delta = false;
  EXPECT_NO_THROW(AsyncSappDevice(transport, config));
}

TEST(AsyncPresence, WatchUnwatchLifecycle) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());

  telemetry::Registry registry;
  AsyncPresenceService::TelemetryOptions telemetry_options;
  telemetry_options.registry = &registry;
  AsyncPresenceService service(transport, telemetry_options);

  std::atomic<int> events{0};
  std::atomic<int> present_events{0};
  service.subscribe([&](const PresenceEvent& event) {
    ++events;
    if (event.state == Presence::kPresent) ++present_events;
  });

  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());  // off-loop: posts
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
  EXPECT_EQ(service.watch_count(), 1u);
  EXPECT_GE(present_events.load(), 1);

  const auto watches = service.snapshotWatches();
  ASSERT_EQ(watches.size(), 1u);
  EXPECT_EQ(watches[0].device, device.id());
  EXPECT_EQ(watches[0].state, Presence::kPresent);
  EXPECT_GT(watches[0].cycles_succeeded, 0u);
  EXPECT_GT(watches[0].probes_sent, 0u);
  EXPECT_GT(watches[0].next_probe_due, 0.0);

  const auto stats = service.stats();
  EXPECT_GT(stats.probes_sent, 0u);
  EXPECT_GT(stats.cycles_succeeded, 0u);

  // The p99 source must be populated by successful cycles.
  ASSERT_NE(service.reply_latency(), nullptr);
  EXPECT_GT(service.reply_latency()->count(), 0u);

  service.unwatch(device.id());
  EXPECT_TRUE(eventually([&] { return service.watch_count() == 0; }));
  EXPECT_EQ(service.presence(device.id()), Presence::kUnknown);
  loop.stop();
}

TEST(AsyncPresence, AbsenceTransitionReported) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);

  std::atomic<int> present_events{0};
  std::atomic<int> absent_events{0};
  service.subscribe([&](const PresenceEvent& event) {
    if (event.state == Presence::kPresent) ++present_events;
    if (event.state == Presence::kAbsent) ++absent_events;
  });
  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  EXPECT_TRUE(eventually([&] { return service.stats().cycles_succeeded >= 3; }));
  // The transition fires once, not once per successful cycle.
  EXPECT_EQ(present_events.load(), 1);

  device.go_silent();
  EXPECT_TRUE(eventually([&] { return absent_events.load() == 1; }));
  EXPECT_EQ(service.presence(device.id()), Presence::kAbsent);
  EXPECT_GE(service.stats().cycles_failed, 1u);
  loop.stop();
}

TEST(AsyncPresence, WatchIsIdempotentAndUnwatchForgets) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
  // A second watch (either protocol) neither duplicates nor restarts it.
  const auto probes = service.stats().probes_sent;
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  service.watch_sapp(device.id(), fast_sapp_cp());
  std::this_thread::sleep_for(20ms);  // let any posted watch run
  EXPECT_EQ(service.watch_count(), 1u);
  EXPECT_GE(service.stats().probes_sent, probes);

  service.unwatch(device.id());
  EXPECT_TRUE(eventually([&] { return service.watch_count() == 0; }));
  EXPECT_EQ(service.presence(device.id()), Presence::kUnknown);
  EXPECT_TRUE(service.snapshotWatches().empty());
  EXPECT_EQ(service.stats().probes_sent, 0u);  // its tallies are gone
  service.unwatch(device.id());                // no-op
  EXPECT_EQ(service.watch_count(), 0u);
  loop.stop();
}

TEST(AsyncPresence, SappWatchWorksToo) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncSappDevice device(transport, core::SappDeviceConfig{});
  AsyncPresenceService service(transport);
  loop.start();
  service.watch_sapp(device.id(), fast_sapp_cp());
  EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
  EXPECT_GT(service.stats().cycles_succeeded, 0u);
  EXPECT_GT(device.probe_counter(), 0u);
  loop.stop();
}

TEST(AsyncPresence, UnsubscribeStopsEvents) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  std::atomic<int> events{0};
  std::atomic<int> kept_events{0};
  const auto token =
      service.subscribe([&](const PresenceEvent&) { ++events; });
  service.subscribe([&](const PresenceEvent&) { ++kept_events; });
  service.unsubscribe(token);
  loop.start();
  service.watch_dcpp(device.id(), fast_dcpp_cp());
  EXPECT_TRUE(eventually([&] { return kept_events.load() == 1; }));
  loop.stop();
  EXPECT_EQ(events.load(), 0);
}

TEST(AsyncPresence, SnapshotWatchesReportsLiveCycleState) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice a(transport, fast_dcpp_device());
  AsyncDcppDevice b(transport, fast_dcpp_device());
  AsyncPresenceService service(transport);
  EXPECT_TRUE(service.snapshotWatches().empty());
  service.watch_dcpp(b.id(), fast_dcpp_cp());  // out of id order
  service.watch_dcpp(a.id(), fast_dcpp_cp());
  loop.start();
  EXPECT_TRUE(eventually([&] {
    return service.stats().cycles_succeeded >= 6 && service.present(a.id()) &&
           service.present(b.id());
  }));

  auto watches = service.snapshotWatches();
  ASSERT_EQ(watches.size(), 2u);
  // Sorted by device id for stable display.
  EXPECT_LT(watches[0].device, watches[1].device);
  for (const auto& w : watches) {
    EXPECT_EQ(w.state, Presence::kPresent);
    EXPECT_GT(w.probes_sent, 0u);
    EXPECT_GT(w.cycles_succeeded, 0u);
    EXPECT_EQ(w.cycles_failed, 0u);
    EXPECT_GT(w.last_rtt, 0.0);             // replies carry a real latency
    EXPECT_EQ(w.consecutive_failures, 0u);  // loopback: nothing lost
    EXPECT_GT(w.next_probe_due, 0.0);
  }

  // Kill one device: its row flips to absent with the failed cycle's
  // attempt count; the other keeps running.
  b.go_silent();
  EXPECT_TRUE(eventually(
      [&] { return service.presence(b.id()) == Presence::kAbsent; }));
  const auto a_cycles = service.snapshotWatches()[0].cycles_succeeded;
  EXPECT_TRUE(eventually([&] {
    return service.snapshotWatches()[0].cycles_succeeded > a_cycles;
  }));
  loop.stop();
  watches = service.snapshotWatches();
  const auto& alive = watches[0].device == a.id() ? watches[0] : watches[1];
  const auto& dead = watches[0].device == b.id() ? watches[0] : watches[1];
  EXPECT_EQ(alive.state, Presence::kPresent);
  EXPECT_EQ(dead.state, Presence::kAbsent);
  EXPECT_EQ(dead.cycles_failed, 1u);
  // max_retransmissions=3 default: the failed cycle sent 4 probes.
  EXPECT_EQ(dead.consecutive_failures, 4u);
  EXPECT_EQ(dead.next_probe_due, 0.0);  // probing stopped
}

TEST(AsyncPresence, DestructionWhileLoopRunsIsClean) {
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  AsyncDcppDevice device(transport, fast_dcpp_device());
  std::atomic<int> events{0};
  loop.start();
  {
    AsyncPresenceService service(transport);
    service.subscribe([&](const PresenceEvent&) { ++events; });
    service.watch_dcpp(device.id(), fast_dcpp_cp());
    EXPECT_TRUE(eventually([&] { return service.present(device.id()); }));
    // Destroyed while its CP is mid-cycle on the running loop: the
    // destructor stops the watch on the loop thread and waits.
  }
  std::this_thread::sleep_for(10ms);  // a probe already in flight lands
  const int seen = events.load();
  const auto probes = device.probes_received();
  std::this_thread::sleep_for(60ms);  // > d_min + TOF: no CP left
  EXPECT_EQ(device.probes_received(), probes);
  EXPECT_EQ(events.load(), seen);
  EXPECT_TRUE(loop.running());
  loop.stop();
}

TEST(AsyncPresence, TwoHundredEndpointSmoke) {
  // The scale shape of bench_rt_scale in miniature: one loop thread,
  // one socket, 200 devices + 200 control points, everyone present.
  EventLoop loop;
  AsyncUdpTransport transport(loop);
  constexpr int kEndpoints = 200;
  std::vector<std::unique_ptr<AsyncDcppDevice>> devices;
  devices.reserve(kEndpoints);
  for (int i = 0; i < kEndpoints; ++i) {
    devices.push_back(
        std::make_unique<AsyncDcppDevice>(transport, fast_dcpp_device()));
  }
  telemetry::Registry registry;
  AsyncPresenceService::TelemetryOptions telemetry_options;
  telemetry_options.registry = &registry;
  AsyncPresenceService service(transport, telemetry_options);

  // Watch the whole fleet before starting the loop (direct path), with
  // start jitter spreading first probes across one d_min.
  for (int i = 0; i < kEndpoints; ++i) {
    service.watch_dcpp(devices[static_cast<std::size_t>(i)]->id(),
                       fast_dcpp_cp(),
                       0.02 * i / kEndpoints);
  }
  EXPECT_EQ(service.watch_count(), static_cast<std::size_t>(kEndpoints));
  loop.start();

  auto present_count = [&service] {
    std::size_t present = 0;
    for (const auto& info : service.snapshotWatches()) {
      if (info.state == Presence::kPresent) ++present;
    }
    return present;
  };
  EXPECT_TRUE(eventually(
      [&] { return present_count() == static_cast<std::size_t>(kEndpoints); },
      5000ms));
  EXPECT_GE(service.stats().cycles_succeeded,
            static_cast<std::uint64_t>(kEndpoints));
  EXPECT_EQ(transport.recv_error_count(), 0u);
  EXPECT_EQ(transport.unroutable_count(), 0u);
  loop.stop();
}

}  // namespace
}  // namespace probemon::runtime
