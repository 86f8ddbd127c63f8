// rt_fleet: one runtime::EventLoop and one AsyncUdpTransport on the
// host loopback (not a real link) with the fixed 48-byte datagrams.
// 1e4 AsyncDcppDevices are watched through AsyncPresenceService with a
// registry; DCPP pacing fixes the offered load at 30k probes/s (at 60k
// a transient host slowdown could tip the loop into a collapse of false
// absences; see perfbench/README.md). Seeded
// departures use go_silent(); the devices come_back() 0.6 s later and
// are re-watched. The benchmark thread runs the departures, a 1 Hz
// registry scrape and an open-loop canary prober on its own socket
// against 4 dedicated devices, timed from each probe's due instant. A
// third thread builds spare fleets through the window to time set-up.
//
// Why: the only workload on the kernel UDP path, the reactor, the
// wall-clock timer wheel and the presence service.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "layers.hpp"
#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "runtime/udp_transport.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace probemon;

namespace {

constexpr double kDmin = 1.0 / 3.0;  // 1e4 CPs x 3 cycles/s = 30k probes/s
constexpr std::size_t kCanaryDevices = 4;
constexpr double kCanaryRate = 1000.0;  // probes/s, open loop
constexpr double kDepartRate = 150.0;   // departures/s
constexpr double kSilentFor = 0.6;      // s before come_back + re-watch
constexpr double kWarmup = 1.0;         // s after loop start, not measured
constexpr double kSpareBuildRate = 4.0; // spare fleet builds/s in the window
constexpr net::NodeId kCanaryCpBase = 0x40000000;

struct Spec {
  std::size_t devices = 0;
  std::vector<double> jitter;  ///< first-cycle offset per watch
  struct Departure {
    double at;  ///< offset into the measured window
    std::size_t device;
    double rewatch_jitter;
  };
  std::vector<Departure> departures;
  std::uint64_t checksum = 0;  ///< of the generated inputs, for the smoke test
};

Spec make_spec(const Options& opt) {
  InputRng rng(opt.seed * 0xbf58476d1ce4e5b9ULL + 0x27f1ee7);
  Spec spec;
  spec.devices = opt.tiny ? 500 : 10'000;
  spec.jitter.resize(spec.devices);
  for (auto& j : spec.jitter) j = rng.uniform(0.0, kDmin);
  // Poisson departures over the window, leaving room for the last
  // come-back; a device still silent is not picked again.
  const double rate = opt.tiny ? 20.0 : kDepartRate;
  const double last = opt.seconds - kSilentFor - 0.1;
  std::vector<double> busy_until(spec.devices, -1.0);
  for (double t = -std::log(1.0 - rng.unit()) / rate; t < last;
       t += -std::log(1.0 - rng.unit()) / rate) {
    std::size_t d = rng.below(spec.devices);
    while (busy_until[d] > t) d = rng.below(spec.devices);
    busy_until[d] = t + kSilentFor + kDmin + 0.05;
    spec.departures.push_back({t, d, rng.uniform(0.0, kDmin)});
    spec.checksum = spec.checksum * 0x100000001b3ULL + d;
  }
  return spec;
}

/// The fleet under test. The loop is stopped before members go, since
/// transport, devices and watches are loop-confined.
struct Fleet {
  telemetry::Registry registry;
  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport{loop};
  std::vector<std::unique_ptr<runtime::AsyncDcppDevice>> devices;
  std::vector<std::unique_ptr<runtime::AsyncDcppDevice>> canaries;
  std::unique_ptr<runtime::AsyncPresenceService> service;
  core::DcppDeviceConfig device_config;

  explicit Fleet(const Spec& spec) {
    device_config.d_min = kDmin;
    device_config.delta_min = kDmin / 10.0;
    loop.instrument(registry);
    transport.instrument(registry);
    devices.reserve(spec.devices);
    for (std::size_t i = 0; i < spec.devices; ++i) {
      devices.push_back(std::make_unique<runtime::AsyncDcppDevice>(transport, device_config));
    }
    for (std::size_t i = 0; i < kCanaryDevices; ++i) {
      canaries.push_back(std::make_unique<runtime::AsyncDcppDevice>(transport, device_config));
    }
    runtime::AsyncPresenceService::TelemetryOptions telemetry;
    telemetry.registry = &registry;
    service = std::make_unique<runtime::AsyncPresenceService>(transport, telemetry);
    for (std::size_t i = 0; i < spec.devices; ++i) {
      service->watch_dcpp(devices[i]->id(), core::DcppCpConfig{}, spec.jitter[i]);
    }
  }
  ~Fleet() { loop.stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Set-up cost, sampled across the whole window: builds and drops spare
/// fleets of the same spec at a fixed pace on a CPU of its own (the
/// host's speed drifts in phases of seconds, so builds bunched before the
/// window would measure one phase). Each build is timed by this thread's
/// CPU clock, so waiting for a CPU is not counted.
class SpareBuilder {
 public:
  SpareBuilder(const Spec& spec, double period_s)
      : thread_([this, &spec, period_s] { run(spec, period_s); }) {
    check(pthread_getcpuclockid(thread_.native_handle(), &clock_) == 0,
          "rt_fleet: builder thread clock");
  }
  ~SpareBuilder() { stop(); }
  SpareBuilder(const SpareBuilder&) = delete;
  SpareBuilder& operator=(const SpareBuilder&) = delete;

  /// The thread's CPU seconds so far; valid until stop().
  double cpu_s() const { return clock_s(clock_); }
  /// Joins the thread; `builds_s` is complete afterwards.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> builds_s;

 private:
  void run(const Spec& spec, double period_s) {
    pin_thread(pthread_self(), 2);
    auto next = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      const double c0 = thread_cpu_s();
      {
        Tracer::Span span("rt_fleet.build");
        const Fleet spare(spec);
        builds_s.push_back(thread_cpu_s() - c0);
      }
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(period_s));
      std::this_thread::sleep_until(next);
    }
  }

  std::atomic<bool> stop_{false};
  clockid_t clock_{};
  std::thread thread_;
};

/// Set-up seconds from the spare builds: the median over kSetupGroups
/// interleaved groups of each group's mean build, so a stray slow build
/// moves one group, not the figure.
constexpr std::size_t kSetupGroups = 5;
double setup_from(const std::vector<double>& builds) {
  const std::size_t groups = std::min(kSetupGroups, builds.size());
  std::vector<double> sum(groups, 0.0), n(groups, 0.0);
  for (std::size_t i = 0; i < builds.size(); ++i) {
    sum[i % groups] += builds[i];
    n[i % groups] += 1.0;
  }
  for (std::size_t g = 0; g < groups; ++g) sum[g] /= n[g];
  return median(sum);
}

/// Departures and come-backs, confined to the loop thread. A departed
/// device comes back kSilentFor after it went silent, but never before
/// it has been declared absent; it is then watched anew.
struct Presence {
  Fleet* fleet = nullptr;
  std::vector<double> depart_t;  ///< NaN while present
  std::vector<double> rewatch_jitter;
  std::vector<char> declared;
  std::vector<std::int64_t> index_of;  ///< NodeId -> device index or -1
  std::vector<double> detect_s;
  std::uint64_t false_absences = 0;
  double lost_watch_s = 0;  ///< silent time plus re-watch offsets
  std::atomic<std::size_t> comebacks{0};

  void depart(std::size_t d, double jitter) {
    fleet->devices[d]->go_silent();
    depart_t[d] = fleet->loop.now();
    rewatch_jitter[d] = jitter;
    declared[d] = 0;
  }

  void on_event(const runtime::PresenceEvent& ev) {
    if (ev.state != runtime::Presence::kAbsent) return;
    const std::int64_t i = ev.device < index_of.size() ? index_of[ev.device] : -1;
    if (i < 0 || std::isnan(depart_t[static_cast<std::size_t>(i)])) {
      ++false_absences;
      return;
    }
    const auto d = static_cast<std::size_t>(i);
    if (declared[d]) return;
    declared[d] = 1;
    detect_s.push_back(ev.t - depart_t[d]);
    fleet->loop.timers().schedule_at(std::max(ev.t, depart_t[d] + kSilentFor),
                                      [this, d] { come_back(d); });
  }

  void come_back(std::size_t d) {
    const net::NodeId id = fleet->devices[d]->id();
    fleet->service->unwatch(id);
    fleet->devices[d]->come_back();
    lost_watch_s += fleet->loop.now() - depart_t[d] + rewatch_jitter[d];
    depart_t[d] = std::numeric_limits<double>::quiet_NaN();
    fleet->service->watch_dcpp(id, core::DcppCpConfig{}, rewatch_jitter[d]);
    comebacks.fetch_add(1, std::memory_order_release);
  }
};

/// Open-loop prober on its own socket.
class Canary {
 public:
  Canary(std::uint16_t target_port, std::vector<net::NodeId> devices)
      : devices_(std::move(devices)) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    check(fd_ >= 0, "canary: socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    check(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0, "canary: bind");
    const int on = 1;
    check(::setsockopt(fd_, SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof(on)) == 0,
          "canary: SO_TIMESTAMPNS");
    target_ = addr;
    target_.sin_port = htons(target_port);
  }
  ~Canary() { ::close(fd_); }
  Canary(const Canary&) = delete;
  Canary& operator=(const Canary&) = delete;

  int fd() const { return fd_; }

  void send(std::uint64_t seq, double due) {
    net::Message m;
    m.kind = net::MessageKind::kProbe;
    m.from = kCanaryCpBase + static_cast<net::NodeId>(seq % devices_.size());
    m.to = devices_[seq % devices_.size()];
    m.cycle = seq;
    std::uint8_t buf[runtime::kUdpWireSize];
    runtime::udp_encode(m, buf);
    const ssize_t n = ::sendto(fd_, buf, sizeof(buf), 0,
                               reinterpret_cast<const sockaddr*>(&target_), sizeof(target_));
    if (n != static_cast<ssize_t>(sizeof(buf))) ++send_errors;
    due_.push_back(due);
    late_s.push_back(now_s() - due);
    ++sent;
  }

  /// Drains the socket; each reply's latency runs from its probe's due
  /// instant to the kernel's receive timestamp, so this thread's own
  /// wake-up delay is not counted.
  void receive() {
    // SO_TIMESTAMPNS stamps in CLOCK_REALTIME; map it onto now_s().
    timespec real{};
    clock_gettime(CLOCK_REALTIME, &real);
    const double offset = static_cast<double>(real.tv_sec) +
                          static_cast<double>(real.tv_nsec) * 1e-9 - now_s();
    std::uint8_t buf[runtime::kUdpWireSize + 16];
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
    for (;;) {
      iovec iov{buf, sizeof(buf)};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      const ssize_t n = ::recvmsg(fd_, &msg, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) ++recv_errors;
        return;
      }
      double t = now_s();
      for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
        if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
          timespec ts{};
          std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
          t = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9 - offset;
        }
      }
      net::Message m;
      if (n != static_cast<ssize_t>(runtime::kUdpWireSize) ||
          !runtime::udp_decode(buf, static_cast<std::size_t>(n), m) ||
          m.kind != net::MessageKind::kReply || m.cycle >= due_.size()) {
        ++recv_errors;
        continue;
      }
      latency_s.push_back(t - due_[m.cycle]);
    }
  }

  std::uint64_t sent = 0, send_errors = 0, recv_errors = 0;
  std::vector<double> latency_s;
  std::vector<double> late_s;  ///< send instant minus due instant

 private:
  int fd_ = -1;
  sockaddr_in target_{};
  std::vector<net::NodeId> devices_;
  std::vector<double> due_;
};

/// Counters read at each window edge.
struct Snap {
  double wall = 0, loop_cpu = 0;
  Usage loop_usage;  ///< loop thread's own user/sys (RUSAGE_THREAD)
  Usage usage;
  /// CPU of the benchmark thread (less its scrapes) and the builder.
  double others_cpu = 0;
  /// Process CPU seconds less the benchmark's own (non-scrape) work.
  double monitor_cpu_since(const Snap& o) const {
    return (usage - o.usage).cpu_s() - (others_cpu - o.others_cpu);
  }
  double cycles = 0, wakeups = 0, sent = 0, delivered = 0, errors = 0;
  double fleet_probes_received = 0, canary_probes_received = 0;
};

struct RtMeasure {
  double setup_s = 0;
  std::vector<double> window_rate, window_cpu_us;
  Snap first, last;
  std::vector<double> detect_s, reply_s, late_s, lag_s, scrape_s;
  std::uint64_t departures = 0, false_absences = 0, comebacks = 0;
  std::uint64_t canary_sent = 0, canary_errors = 0;
  double offered_cycles = 0, timers_pending_mean = 0;
  std::uint64_t inputs_checksum = 0;
  Reply reply() const {
    return {1e3 * quantile(reply_s, 0.50), 1e3 * quantile(reply_s, 0.90),
            1e3 * quantile(reply_s, 0.99)};
  }
};

RtMeasure measure(const Options& opt) {
  const Spec spec = make_spec(opt);
  RtMeasure m;
  // The loop thread, this (benchmark) thread and the spare builder each
  // get a CPU of their own, so the canary's wake-ups never preempt the
  // loop.
  const PinGuard pin(1);

  // The fleet under test, built up to loop start. Set-up is timed on the
  // spares built during the window (see SpareBuilder).
  std::unique_ptr<Fleet> fleet;
  {
    Tracer::Span span("rt_fleet.build");
    fleet = std::make_unique<Fleet>(spec);
  }
  Fleet& f = *fleet;

  Presence pres;
  pres.fleet = &f;
  pres.depart_t.assign(spec.devices, std::numeric_limits<double>::quiet_NaN());
  pres.rewatch_jitter.assign(spec.devices, 0.0);
  pres.declared.assign(spec.devices, 0);
  for (std::size_t i = 0; i < spec.devices; ++i) {
    const net::NodeId id = f.devices[i]->id();
    if (id >= pres.index_of.size()) pres.index_of.resize(id + 1, -1);
    pres.index_of[id] = static_cast<std::int64_t>(i);
  }
  f.service->subscribe([&pres](const runtime::PresenceEvent& ev) { pres.on_event(ev); });

  std::vector<double> lags;
  LoopLagProbe lag_probe(f.loop, 0.005, lags);
  // Stops the loop before anything its callbacks reference goes away,
  // on every path out of this function.
  struct StopLoop {
    runtime::EventLoop& loop;
    ~StopLoop() { loop.stop(); }
  } stop_loop{f.loop};
  f.loop.start();
  if (Tracer::enabled()) lag_probe.start();
  std::promise<pthread_t> loop_thread;
  f.loop.post([&loop_thread] { loop_thread.set_value(pthread_self()); });
  const pthread_t loop_id = loop_thread.get_future().get();
  clockid_t loop_clock{};
  check(pthread_getcpuclockid(loop_id, &loop_clock) == 0, "rt_fleet: loop thread clock");
  pin_thread(loop_id, 0);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmup));

  std::vector<net::NodeId> canary_ids;
  for (const auto& c : f.canaries) canary_ids.push_back(c->id());
  Canary canary(f.transport.local_port(), canary_ids);

  auto& ok_counter = f.registry.counter("probemon_watch_cycles_total", "", {{"result", "success"}});
  auto& fail_counter = f.registry.counter("probemon_watch_cycles_total", "", {{"result", "failure"}});
  // Monitor CPU: the process less this thread (the canary, departures)
  // and the spare builder, except for the time this thread spends in the
  // scrape, which is monitor work.
  double scrape_cpu_s = 0;
  std::unique_ptr<SpareBuilder> builder;
  auto snap = [&] {
    Snap s;
    s.wall = now_s();
    s.loop_cpu = clock_s(loop_clock);
    std::promise<Usage> loop_usage;
    f.loop.post([&loop_usage] { loop_usage.set_value(Usage::thread_now()); });
    s.loop_usage = loop_usage.get_future().get();
    s.usage = Usage::now();
    s.others_cpu = thread_cpu_s() - scrape_cpu_s + builder->cpu_s();
    s.cycles = static_cast<double>(ok_counter.value() + fail_counter.value());
    s.wakeups = static_cast<double>(f.loop.wakeups());
    s.sent = static_cast<double>(f.transport.sent_count());
    s.delivered = static_cast<double>(f.transport.delivered_count());
    s.errors = static_cast<double>(f.transport.send_error_count() +
                                   f.transport.recv_error_count() +
                                   f.transport.unroutable_count());
    for (const auto& d : f.devices) s.fleet_probes_received += static_cast<double>(d->probes_received());
    for (const auto& d : f.canaries) s.canary_probes_received += static_cast<double>(d->probes_received());
    return s;
  };

  builder = std::make_unique<SpareBuilder>(spec, 1.0 / kSpareBuildRate);
  const double t0 = now_s();
  const double t_end = t0 + opt.seconds;
  m.first = snap();
  Snap prev = m.first;
  std::size_t next_depart = 0;
  std::uint64_t canary_seq = 0;
  double next_window = t0 + 1.0;
  double next_scrape = t0 + 0.5;
  double pending_sum = 0;
  int windows = 0;
  // Past the window, wait (bounded) for the last come-backs.
  const double give_up = t_end + 5.0;
  for (;;) {
    const double now = now_s();
    if (now >= next_window && windows < opt.seconds) {
      const Snap s = snap();
      const double cycles = s.cycles - prev.cycles;
      m.window_rate.push_back(cycles / (s.wall - prev.wall));
      m.window_cpu_us.push_back(1e6 * s.monitor_cpu_since(prev) / cycles);
      pending_sum += static_cast<double>(f.loop.timers_pending());
      prev = s;
      ++windows;
      next_window += 1.0;
      if (windows == opt.seconds) {
        m.last = s;
        builder->stop();
      }
    }
    if (now >= t_end && windows == opt.seconds &&
        (pres.comebacks.load(std::memory_order_acquire) == spec.departures.size() ||
         now >= give_up)) {
      break;
    }
    // Departures, run on the loop thread.
    while (next_depart < spec.departures.size() &&
           t0 + spec.departures[next_depart].at <= now) {
      Tracer::Span span("rt_fleet.depart");
      const auto& dep = spec.departures[next_depart];
      f.loop.post([&pres, d = dep.device, jitter = dep.rewatch_jitter] { pres.depart(d, jitter); });
      ++next_depart;
    }
    // Canary probes due so far (catching up after a stall).
    while (now < t_end && t0 + static_cast<double>(canary_seq) / kCanaryRate <= now) {
      Tracer::Span span("rt_fleet.canary_send");
      canary.send(canary_seq, t0 + static_cast<double>(canary_seq) / kCanaryRate);
      ++canary_seq;
    }
    if (now >= next_scrape && now < t_end) {
      Tracer::Span span("rt_fleet.scrape");
      const double s0 = now_s();
      const double c0 = thread_cpu_s();
      const std::string text = telemetry::to_prometheus(f.registry);
      m.scrape_s.push_back(now_s() - s0);
      scrape_cpu_s += thread_cpu_s() - c0;
      check(text.find("probemon_watch_cycles_total") != std::string::npos,
            "rt_fleet: scrape lacks the cycle counters");
      next_scrape += 1.0;
    }
    // Sleep until the next due action or a canary reply.
    double wake = std::min({next_window, next_scrape,
                            t0 + static_cast<double>(canary_seq) / kCanaryRate});
    if (next_depart < spec.departures.size()) {
      wake = std::min(wake, t0 + spec.departures[next_depart].at);
    }
    if (now >= t_end) wake = std::min(wake, now + 0.005);
    const double wait = std::max(0.0, wake - now_s());
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    pollfd pfd{canary.fd(), POLLIN, 0};
    if (::ppoll(&pfd, 1, &ts, nullptr) > 0) {
      Tracer::Span span("rt_fleet.canary_recv");
      canary.receive();
    }
  }
  // Collect the replies still in flight at the end of the window.
  for (const double drain_until = now_s() + 0.5;
       canary.latency_s.size() < canary.sent && now_s() < drain_until;) {
    pollfd pfd{canary.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 10) > 0) canary.receive();
  }
  f.loop.stop();  // joins the loop thread: its bookkeeping is now ours
  builder->stop();
  // The builder's first build faults in fresh pages.
  check(builder->builds_s.size() >= 2, "rt_fleet: too few spare builds");
  std::vector<double> builds(builder->builds_s.begin() + 1, builder->builds_s.end());
  m.setup_s = setup_from(builds);

  m.detect_s = std::move(pres.detect_s);
  m.reply_s = std::move(canary.latency_s);
  m.late_s = std::move(canary.late_s);
  m.lag_s = std::move(lags);
  m.departures = spec.departures.size();
  m.inputs_checksum = spec.checksum;
  m.false_absences = pres.false_absences;
  m.comebacks = pres.comebacks.load();
  m.canary_sent = canary.sent;
  m.canary_errors = canary.send_errors + canary.recv_errors;
  m.timers_pending_mean = windows > 0 ? pending_sum / windows : 0;
  const double window_s = m.last.wall - m.first.wall;
  m.offered_cycles =
      (static_cast<double>(spec.devices) * window_s - pres.lost_watch_s) / kDmin;

  check(windows == opt.seconds, "rt_fleet: measured windows missing");
  check(m.detect_s.size() == m.departures && m.comebacks == m.departures,
        "rt_fleet: " + std::to_string(m.departures - m.detect_s.size()) + " of " +
            std::to_string(m.departures) + " departed devices never declared absent (" + std::to_string(m.comebacks) + " came back, " + std::to_string(m.false_absences) + " false absences)");
  check(m.false_absences == 0,
        "rt_fleet: " + std::to_string(m.false_absences) + " false absences");
  check(m.last.errors - m.first.errors == 0, "rt_fleet: transport errors in the window");
  check(m.canary_errors == 0, "rt_fleet: canary socket errors");
  const double delivered = m.last.cycles - m.first.cycles;
  check(delivered >= 0.99 * m.offered_cycles,
        "rt_fleet: delivered " + std::to_string(delivered) + " cycles < 99% of offered " +
            std::to_string(m.offered_cycles));
  check(m.reply_s.size() == m.canary_sent, "rt_fleet: canary replies missing");
  fleet.reset();
  return m;
}

}  // namespace

Result run_rt_fleet(const Options& opt) {
  const RtMeasure m = measure(opt);
  Result r;
  r.attempted = static_cast<std::uint64_t>(m.last.cycles - m.first.cycles);
  r.failed = m.false_absences;
  set_end_to_end(r, median(m.window_rate), median(m.window_cpu_us),
                 1e3 * quantile(m.detect_s, 0.50), 1e3 * quantile(m.detect_s, 0.99), m.setup_s);
  note_reply(r, m.reply(), "wall, from each canary probe's due instant");
  r.notes.push_back("rt_fleet inputs: " + std::to_string(m.departures) +
                    " departures, schedule checksum " + std::to_string(m.inputs_checksum));
  r.notes.push_back("rt_fleet: " + std::to_string(m.departures) + " departures detected, " +
                    std::to_string(m.reply_s.size()) + " canary replies, offered " +
                    std::to_string(m.offered_cycles) + " cycles, delivered " +
                    std::to_string(m.last.cycles - m.first.cycles));
  r.notes.push_back("rt_fleet window cpu us/cycle: " + spread(m.window_cpu_us));
  r.notes.push_back("rt_fleet canary send lateness p50/p99 ms: " +
                    std::to_string(1e3 * quantile(m.late_s, 0.50)) + " " +
                    std::to_string(1e3 * quantile(m.late_s, 0.99)));
  if (!opt.trace) return r;

  Tracer::enable(true);
  const RtMeasure t = measure(opt);
  Tracer::enable(false);
  const auto self = Tracer::self_seconds();
  Tracer::write_chrome(".bench_runs/rt_fleet-trace.json");

  const Snap& a = t.first;
  const Snap& b = t.last;
  const double cycles = b.cycles - a.cycles;
  const double cpu_us = median(t.window_cpu_us);
  // Each probe a present device receives produces one reply, so the
  // control points' probes are what the transport sent less those.
  const double canary_replies = b.canary_probes_received - a.canary_probes_received;
  const double fleet_replies = b.fleet_probes_received - a.fleet_probes_received;
  const double cp_probes = b.sent - a.sent - fleet_replies - canary_replies;
  LayerMetrics lm;
  lm.probes_per_cycle = cp_probes / cycles;
  lm.ns_per_step = core_ns_per_dcpp_grant();
  lm.setup_ms_per_world = 1e3 * t.setup_s;
  lm.reply = t.reply();
  lm.scrape_ms = 1e3 * median(t.scrape_s);
  lm.busy_share = (b.loop_cpu - a.loop_cpu) / (b.wall - a.wall);
  lm.cycles_per_wakeup = cycles / (b.wakeups - a.wakeups);
  lm.lag_p50_ms = 1e3 * quantile(t.lag_s, 0.50);
  lm.lag_p99_ms = 1e3 * quantile(t.lag_s, 0.99);
  lm.datagrams_per_cycle = (b.sent - a.sent - canary_replies) / cycles;
  lm.datagrams_per_wakeup = (b.delivered - a.delivered) / (b.wakeups - a.wakeups);
  lm.udp_errors = b.errors - a.errors;
  // The kernel/user split is the loop thread's own: the process split
  // would carry the benchmark thread's syscalls.
  const Usage loop_u = b.loop_usage - a.loop_usage;
  lm.sys_us_per_cycle = 1e6 * loop_u.sys_s / cycles;
  lm.user_us_per_cycle = 1e6 * loop_u.user_s / cycles;
  lm.ns_per_arm_cancel = timers_ns_per_arm_cancel(
      static_cast<std::size_t>(t.timers_pending_mean), kDmin);
  lm.ns_per_observe = telemetry_ns_per_observe();
  lm.codec_ns_per_msg = codec_ns_per_msg();

  // Scale the window's total CPU to the median-window figure so the
  // table's rows and residue sum to cpu_us_per_cycle.
  const double scale = cpu_us / (1e6 * b.monitor_cpu_since(a) / cycles);
  CostTable table;
  table.total_us = cpu_us;
  table.set("kernel", lm.sys_us_per_cycle * scale);
  table.set("runtime.udp", lm.datagrams_per_cycle * lm.codec_ns_per_msg * 1e-3);
  // Each probe arms a timeout that its reply cancels; each success arms
  // the next cycle.
  table.set("runtime.timers", (lm.probes_per_cycle + 1.0) * lm.ns_per_arm_cancel * 1e-3);
  // One reply-latency observe per cycle, plus the scrapes.
  const double scrape_total_s = median(t.scrape_s) * static_cast<double>(t.scrape_s.size());
  table.set("telemetry", lm.ns_per_observe * 1e-3 + 1e6 * scrape_total_s / cycles);
  table.set("core", lm.ns_per_step * 1e-3);

  Result out;
  out.attempted = static_cast<std::uint64_t>(cycles);
  out.failed = t.false_absences;
  out.notes = r.notes;
  out.notes.push_back("span self time (s):");
  for (const auto& [name, s] : self) out.notes.push_back("  " + name + " " + std::to_string(s));
  lm.trace_overhead_share = cpu_us / r.get("cpu_us_per_cycle") - 1.0;
  publish_layers(out, lm, table, "rt_fleet");
  return out;
}

}  // namespace perfbench
