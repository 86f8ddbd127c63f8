#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "core/dcpp_device.hpp"
#include "core/sapp_adaptation.hpp"
#include "des/scheduler.hpp"
#include "des/wall_clock.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "net/network.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "runtime/udp_transport.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sharded_registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace probemon;

namespace {

// Defeats constant folding of the measured loops.
volatile double g_sink = 0;

struct ChurnState {
  des::Scheduler* sched;
  InputRng rng;
  double span;
};

void churn_event(ChurnState* st) {
  st->sched->schedule_after(st->rng.unit() * st->span, [st] { churn_event(st); });
}

}  // namespace

double des_ns_per_event(std::size_t pending, double span_s) {
  pending = std::max<std::size_t>(pending, 16);
  span_s = std::max(span_s, 1e-3);
  des::Scheduler sched;
  ChurnState st{&sched, InputRng(0x5eed), span_s};
  for (std::size_t i = 0; i < pending; ++i) {
    sched.schedule_at(st.rng.unit() * span_s, [p = &st] { churn_event(p); });
  }
  // One full turnover untimed, so the pool and wheel reach steady state.
  for (std::size_t i = 0; i < pending; ++i) sched.step();
  const std::size_t n = std::max<std::size_t>(400'000, pending);
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) sched.step();
  return (now_s() - t0) * 1e9 / static_cast<double>(n);
}

namespace {

class Echo final : public net::INetworkClient {
 public:
  Echo(net::Network& network, std::size_t target)
      : network_(network), target_(target) {}
  void attach() { id = network_.attach(*this); }
  void on_message(const net::Message& msg) override {
    net::Message next;
    next.kind = net::MessageKind::kProbe;
    next.from = id;
    next.to = peer;
    next.cycle = msg.cycle + 1;
    network_.send(next);
    // Lost messages leave the air; top the population back up.
    while (network_.in_flight() < target_) network_.send(next);
  }
  net::NodeId id = net::kInvalidNode;
  net::NodeId peer = net::kInvalidNode;

 private:
  net::Network& network_;
  std::size_t target_;
};

}  // namespace

double net_ns_per_message(std::size_t in_flight, double loss, double& des_part_ns) {
  in_flight = std::max<std::size_t>(in_flight, 16);
  des::Scheduler sched;
  util::Rng rng(0x6e6574);
  net::NetworkConfig config;
  config.buffer_capacity = std::max<std::size_t>(20'000, 2 * in_flight);
  net::Network network(sched, rng, config, net::make_three_mode_delay(),
                       loss > 0 ? net::make_bernoulli_loss(loss) : net::make_no_loss());
  const std::size_t clients = std::min<std::size_t>(in_flight, 4096);
  std::deque<Echo> echoes;
  for (std::size_t i = 0; i < clients; ++i) {
    echoes.emplace_back(network, in_flight);
    echoes.back().attach();
  }
  for (std::size_t i = 0; i < clients; ++i) echoes[i].peer = echoes[(i + 1) % clients].id;
  for (std::size_t i = 0; i < in_flight; ++i) {
    net::Message m;
    m.from = echoes[i % clients].id;
    m.to = echoes[i % clients].peer;
    network.send(m);
  }
  for (std::size_t i = 0; i < in_flight; ++i) sched.step();

  const std::size_t n = std::max<std::size_t>(300'000, in_flight);
  const std::uint64_t sent0 = network.counters().sent;
  const double v0 = sched.now();
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) sched.step();
  const double wall = now_s() - t0;
  const double sent = static_cast<double>(network.counters().sent - sent0);
  // Little's law: mean time a message spends in the air.
  const double residence = (sched.now() - v0) * static_cast<double>(in_flight) /
                           static_cast<double>(n);
  des_part_ns = des_ns_per_event(in_flight, 2.0 * residence);
  return wall * 1e9 / sent;
}

double core_ns_per_dcpp_grant() {
  core::DcppDeviceConfig config;
  InputRng rng(0xd099);
  std::vector<double> gaps(4096);
  for (auto& g : gaps) g = rng.uniform(0.0, 0.2);
  const std::size_t n = 4'000'000;
  double nt = 0, t = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i & 4095];
    nt = t + core::DcppDevice::grant(nt, t, config);
  }
  const double wall = now_s() - t0;
  g_sink = nt;
  return wall * 1e9 / static_cast<double>(n);
}

double core_ns_per_sapp_step() {
  core::SappCpConfig config;
  InputRng rng(0x5a99);
  std::vector<double> gaps(4096);
  std::vector<std::uint64_t> incs(4096);
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    gaps[i] = rng.uniform(0.01, 0.5);
    incs[i] = 100'000 * (1 + rng.below(8));
  }
  core::SappAdaptation adaptation(config);
  const std::size_t n = 4'000'000;
  std::uint64_t pc = 0;
  double t = 0, acc = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    pc += incs[i & 4095];
    t += gaps[i & 4095];
    acc += adaptation.observe(pc, t);
  }
  const double wall = now_s() - t0;
  g_sink = acc;
  return wall * 1e9 / static_cast<double>(n);
}

double telemetry_ns_per_observe() {
  telemetry::Histogram hist(telemetry::Histogram::exponential_buckets(0.0005, 2.0, 14));
  InputRng rng(0x0b5e);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = std::exp(rng.uniform(std::log(5e-5), std::log(2e-2)));
  const std::size_t n = 4'000'000;
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) hist.observe(xs[i & 4095]);
  const double wall = now_s() - t0;
  g_sink = static_cast<double>(hist.count());
  return wall * 1e9 / static_cast<double>(n);
}

double codec_ns_per_msg() {
  InputRng rng(0xc0de);
  std::vector<net::Message> msgs(256);
  for (auto& m : msgs) {
    m.kind = rng.below(2) ? net::MessageKind::kProbe : net::MessageKind::kReply;
    m.from = static_cast<net::NodeId>(1 + rng.below(1u << 20));
    m.to = static_cast<net::NodeId>(1 + rng.below(1u << 20));
    m.cycle = rng.next() >> 20;
    m.attempt = static_cast<std::uint8_t>(rng.below(4));
    m.grant_delay = rng.unit();
  }
  std::uint8_t buf[runtime::kUdpWireSize];
  net::Message out;
  std::uint64_t acc = 0;
  const std::size_t n = 2'000'000;
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    runtime::udp_encode(msgs[i & 255], buf);
    if (runtime::udp_decode(buf, runtime::kUdpWireSize, out)) acc += out.cycle;
  }
  const double wall = now_s() - t0;
  g_sink = static_cast<double>(acc);
  return wall * 1e9 / static_cast<double>(n);
}

double timers_ns_per_arm_cancel(std::size_t pending, double span_s) {
  pending = std::max<std::size_t>(pending, 16);
  span_s = std::max(span_s, 1e-3);
  des::WallClockTimerWheel wheel;
  InputRng rng(0x71e5);
  // Deadlines start 60 s out so nothing falls due while measuring (the
  // wheel is never advanced here anyway).
  const double base = wheel.now() + 60.0;
  for (std::size_t i = 0; i < pending; ++i) wheel.schedule_at(base + rng.unit() * span_s, [] {});
  // Each armed timeout is cancelled 1024 arms later, as replies cancel
  // timeouts armed a little earlier.
  std::vector<des::EventId> ring(1024);
  for (auto& id : ring) id = wheel.schedule_at(base + rng.unit() * span_s, [] {});
  const std::size_t n = 1'000'000;
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    auto& slot = ring[i & 1023];
    wheel.cancel(slot);
    slot = wheel.schedule_at(base + rng.unit() * span_s, [] {});
  }
  return (now_s() - t0) * 1e9 / static_cast<double>(n);
}

LoopLagProbe::LoopLagProbe(runtime::EventLoop& loop, double period_s,
                           std::vector<double>& lags)
    : loop_(loop), period_(period_s), lags_(lags) {}

void LoopLagProbe::start() {
  loop_.post([this] {
    deadline_ = loop_.now() + period_;
    arm();
  });
}

void LoopLagProbe::arm() {
  loop_.timers().schedule_at(deadline_, [this] { fire(); });
}

void LoopLagProbe::fire() {
  const double now = loop_.timers().now();
  lags_.push_back(now - deadline_);
  deadline_ += period_;
  if (deadline_ <= now) deadline_ = now + period_;
  arm();
}

void record_replication(telemetry::MetricStore& store, const char* world,
                        std::uint64_t cycles, std::uint64_t events,
                        const double* detect_s, std::size_t detect_n) {
  const telemetry::Labels labels{{"world", world}};
  store.counter("perfbench_replications_total", "Replications run", labels).inc();
  store.counter("perfbench_cycles_total", "Completed probe cycles", labels).inc(cycles);
  store.counter("perfbench_events_total", "DES events executed", labels).inc(events);
  auto& hist = store.histogram("perfbench_detection_seconds",
                               telemetry::Histogram::exponential_buckets(0.01, 2.0, 12),
                               "Departure to absence declaration", labels);
  for (std::size_t i = 0; i < detect_n; ++i) hist.observe(detect_s[i]);
}

double merge_ms(unsigned workers, std::size_t jobs_per_worker) {
  static const char* kWorlds[] = {"sapp3", "sapp20", "dcpp_churn"};
  const double detect[] = {0.12, 0.4, 0.9, 2.5};
  std::deque<telemetry::ShardedRegistry> sources(workers);
  for (auto& src : sources) {
    for (std::size_t j = 0; j < jobs_per_worker; ++j) {
      record_replication(src, kWorlds[j % 3], 1200, 9000, detect, 4);
    }
  }
  constexpr int kRepeats = 200;
  double total = 0;
  for (int r = 0; r < kRepeats; ++r) {
    telemetry::Registry dst;
    const double t0 = now_s();
    for (const auto& src : sources) dst.merge_from(src);
    total += now_s() - t0;
  }
  return 1e3 * total / kRepeats;
}

}  // namespace perfbench
