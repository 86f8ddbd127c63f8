#include "runtime/event_loop/async_presence.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace probemon::runtime {

const char* to_string(Presence presence) noexcept {
  switch (presence) {
    case Presence::kUnknown: return "unknown";
    case Presence::kPresent: return "present";
    case Presence::kAbsent: return "absent";
  }
  return "?";
}

AsyncPresenceService::AsyncPresenceService(AsyncUdpTransport& transport,
                                           TelemetryOptions telemetry)
    : transport_(transport),
      loop_(transport.loop()),
      telemetry_(telemetry) {
  if (telemetry_.registry) {
    auto& r = *telemetry_.registry;
    transitions_present_ =
        &r.counter("probemon_presence_transitions_total",
                   "Presence state transitions observed by the service",
                   {{"state", "present"}});
    transitions_absent_ = &r.counter("probemon_presence_transitions_total", "",
                                     {{"state", "absent"}});
    cycles_success_ =
        &r.counter("probemon_watch_cycles_total",
                   "Completed probe cycles across all watches",
                   {{"result", "success"}});
    cycles_failure_ = &r.counter("probemon_watch_cycles_total", "",
                                 {{"result", "failure"}});
    detection_latency_ = &r.histogram(
        "probemon_detection_latency_seconds",
        telemetry::Histogram::exponential_buckets(0.01, 2.0, 11),
        "First unanswered probe to absence declaration");
    reply_latency_ = &r.histogram(
        "probemon_reply_latency_seconds",
        telemetry::Histogram::exponential_buckets(0.0005, 2.0, 14),
        "Probe send to reply acceptance latency across all watches");
    watches_gauge_ = &r.gauge("probemon_watches", "Currently watched devices");
  }
}

AsyncPresenceService::~AsyncPresenceService() {
  std::unordered_map<net::NodeId, Watch> doomed;
  {
    util::MutexLock lock(mutex_);
    doomed = std::move(watches_);
    watches_.clear();
    subscribers_.clear();
  }
  stop_watches(doomed);
  // The stopped watches are destroyed here (or, when torn down from a
  // loop callback, on a later loop iteration via the holder task).
}

void AsyncPresenceService::stop_watches(
    std::unordered_map<net::NodeId, Watch>& watches) {
  if (watches.empty()) return;
  if (loop_.on_loop_thread()) {
    // Possibly inside one of these CPs' callbacks: stop now, but push
    // destruction to a later iteration so we never free a CP whose
    // callback frame is still on the stack.
    for (auto& [id, watch] : watches) watch.cp->stop();
    auto holder = std::make_shared<std::unordered_map<net::NodeId, Watch>>(
        std::move(watches));
    watches.clear();
    loop_.post([holder] {});
    return;
  }
  if (loop_.running()) {
    // Stop on the loop thread and wait, so after return no callback can
    // reference this service. The handshake state is shared, not on
    // this stack: the loop thread may still be inside notify_all()
    // when the waiter wakes and returns.
    struct Handshake {
      util::Mutex mutex{"runtime.AsyncPresenceService.stop"};
      util::CondVar cv;
      bool done = false;
    };
    auto handshake = std::make_shared<Handshake>();
    auto* watches_ptr = &watches;
    loop_.post([handshake, watches_ptr] {
      for (auto& [id, watch] : *watches_ptr) watch.cp->stop();
      util::MutexLock lock(handshake->mutex);
      handshake->done = true;
      handshake->cv.notify_all();
    });
    util::MutexLock lock(handshake->mutex);
    while (!handshake->done) handshake->cv.wait(handshake->mutex);
    return;
  }
  // Loop not running: loop-confined calls are legal from this thread.
  for (auto& [id, watch] : watches) watch.cp->stop();
}

std::uint64_t AsyncPresenceService::subscribe(EventCallback callback) {
  util::MutexLock lock(mutex_);
  const std::uint64_t token = next_token_++;
  subscribers_.emplace(token, std::move(callback));
  return token;
}

void AsyncPresenceService::unsubscribe(std::uint64_t token) {
  util::MutexLock lock(mutex_);
  subscribers_.erase(token);
}

AsyncControlPointBase::Callbacks AsyncPresenceService::make_callbacks(
    net::NodeId device) {
  AsyncControlPointBase::Callbacks callbacks;
  callbacks.on_cycle =
      [this, device](const AsyncControlPointBase::CycleInfo& info) {
        on_cycle(device, info);
      };

  const bool want_trace = telemetry_.tracer != nullptr ||
                          telemetry_.auditor != nullptr ||
                          (telemetry_.per_watch_metrics && telemetry_.registry);
  if (!want_trace) return callbacks;

  telemetry::Counter* probes = nullptr;
  telemetry::Counter* retransmissions = nullptr;
  telemetry::Histogram* rtt = nullptr;
  if (telemetry_.per_watch_metrics && telemetry_.registry) {
    auto& r = *telemetry_.registry;
    const telemetry::Labels labels{{"device", std::to_string(device)}};
    probes = &r.counter("probemon_watch_probes_sent_total",
                        "Probes transmitted for this watch", labels);
    retransmissions =
        &r.counter("probemon_watch_retransmissions_total",
                   "Probe retransmissions for this watch", labels);
    rtt = &r.histogram(
        "probemon_watch_rtt_seconds",
        telemetry::Histogram::exponential_buckets(0.0005, 2.0, 11),
        "Probe send to reply acceptance latency", labels);
  }
  callbacks.on_cycle_trace =
      [this, probes, retransmissions,
       rtt](const telemetry::ProbeCycleTrace& trace) {
        if (telemetry_.auditor) telemetry_.auditor->audit_cycle(trace);
        if (telemetry_.tracer) telemetry_.tracer->record(trace);
        if (probes) probes->inc(trace.attempts);
        if (retransmissions && trace.attempts > 1) {
          retransmissions->inc(trace.attempts - 1u);
        }
        if (trace.success && rtt) rtt->observe(trace.rtt);
      };
  return callbacks;
}

void AsyncPresenceService::watch_dcpp(net::NodeId device,
                                      core::DcppCpConfig config,
                                      double start_jitter_s) {
  {
    util::MutexLock lock(mutex_);
    if (watches_.contains(device)) return;
  }
  if (loop_.running() && !loop_.on_loop_thread()) {
    loop_.post([this, device, config, start_jitter_s] {
      do_watch_dcpp(device, config, start_jitter_s);
    });
    return;
  }
  do_watch_dcpp(device, config, start_jitter_s);
}

void AsyncPresenceService::watch_sapp(net::NodeId device,
                                      core::SappCpConfig config,
                                      double start_jitter_s) {
  {
    util::MutexLock lock(mutex_);
    if (watches_.contains(device)) return;
  }
  if (loop_.running() && !loop_.on_loop_thread()) {
    loop_.post([this, device, config, start_jitter_s] {
      do_watch_sapp(device, config, start_jitter_s);
    });
    return;
  }
  do_watch_sapp(device, config, start_jitter_s);
}

void AsyncPresenceService::do_watch_dcpp(net::NodeId device,
                                         const core::DcppCpConfig& config,
                                         double start_jitter_s) {
  adopt_watch(device,
              std::make_unique<AsyncDcppControlPoint>(
                  transport_, device, config, make_callbacks(device)),
              start_jitter_s);
}

void AsyncPresenceService::do_watch_sapp(net::NodeId device,
                                         const core::SappCpConfig& config,
                                         double start_jitter_s) {
  adopt_watch(device,
              std::make_unique<AsyncSappControlPoint>(
                  transport_, device, config, make_callbacks(device)),
              start_jitter_s);
}

void AsyncPresenceService::adopt_watch(
    net::NodeId device, std::unique_ptr<AsyncControlPointBase> cp,
    double start_jitter_s) {
  AsyncControlPointBase* raw = cp.get();
  {
    util::MutexLock lock(mutex_);
    auto [it, inserted] = watches_.try_emplace(device);
    if (!inserted) return;  // raced with another watcher; drop ours
    it->second.cp = std::move(cp);
    if (watches_gauge_) {
      watches_gauge_->set(static_cast<double>(watches_.size()));
    }
  }
  raw->start(start_jitter_s);
}

void AsyncPresenceService::unwatch(net::NodeId device) {
  std::unordered_map<net::NodeId, Watch> doomed;
  {
    util::MutexLock lock(mutex_);
    auto it = watches_.find(device);
    if (it == watches_.end()) return;
    doomed.emplace(device, std::move(it->second));
    watches_.erase(it);
    if (watches_gauge_) {
      watches_gauge_->set(static_cast<double>(watches_.size()));
    }
  }
  stop_watches(doomed);
}

void AsyncPresenceService::on_cycle(
    net::NodeId device, const AsyncControlPointBase::CycleInfo& info) {
  if (info.success) {
    if (cycles_success_) cycles_success_->inc();
    if (reply_latency_) reply_latency_->observe(info.rtt);
  } else {
    if (cycles_failure_) cycles_failure_->inc();
    if (detection_latency_) detection_latency_->observe(info.end - info.start);
  }
  const Presence state = info.success ? Presence::kPresent : Presence::kAbsent;
  std::vector<EventCallback> to_notify;
  {
    util::MutexLock lock(mutex_);
    auto it = watches_.find(device);
    if (it == watches_.end()) return;  // unwatched concurrently
    Watch& watch = it->second;
    if (info.success) {
      watch.last_rtt = info.rtt;
      watch.consecutive_failures =
          info.attempts > 0 ? info.attempts - 1u : 0u;
      watch.next_probe_due = info.end + info.next_delay;
    } else {
      watch.consecutive_failures = info.attempts;
      watch.next_probe_due = 0.0;  // absence declared: probing stops
    }
    if (watch.state == state) return;  // no transition
    watch.state = state;
    watch.last_change = info.end;
    telemetry::Counter* transitions =
        info.success ? transitions_present_ : transitions_absent_;
    if (transitions) transitions->inc();
    to_notify.reserve(subscribers_.size());
    for (const auto& [token, cb] : subscribers_) to_notify.push_back(cb);
  }
  const PresenceEvent event{device, state, info.end};
  for (const auto& cb : to_notify) cb(event);
}

Presence AsyncPresenceService::presence(net::NodeId device) const {
  util::MutexLock lock(mutex_);
  auto it = watches_.find(device);
  return it == watches_.end() ? Presence::kUnknown : it->second.state;
}

std::size_t AsyncPresenceService::watch_count() const {
  util::MutexLock lock(mutex_);
  return watches_.size();
}

std::vector<net::NodeId> AsyncPresenceService::watched_devices() const {
  util::MutexLock lock(mutex_);
  std::vector<net::NodeId> out;
  out.reserve(watches_.size());
  for (const auto& [id, w] : watches_) out.push_back(id);
  return out;
}

std::vector<PresenceEvent> AsyncPresenceService::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<PresenceEvent> out;
  out.reserve(watches_.size());
  for (const auto& [id, w] : watches_) {
    out.push_back(PresenceEvent{id, w.state, w.last_change});
  }
  return out;
}

std::vector<AsyncPresenceService::WatchInfo>
AsyncPresenceService::snapshotWatches() const {
  util::MutexLock lock(mutex_);
  std::vector<WatchInfo> out;
  out.reserve(watches_.size());
  for (const auto& [id, w] : watches_) {
    WatchInfo info;
    info.device = id;
    info.state = w.state;
    info.last_change = w.last_change;
    info.last_rtt = w.last_rtt;
    info.consecutive_failures = w.consecutive_failures;
    info.probes_sent = w.cp->probes_sent();
    info.cycles_succeeded = w.cp->cycles_succeeded();
    info.cycles_failed = w.cp->cycles_failed();
    info.next_probe_due = w.next_probe_due;
    out.push_back(info);
  }
  std::sort(out.begin(), out.end(),
            [](const WatchInfo& a, const WatchInfo& b) {
              return a.device < b.device;
            });
  return out;
}

AsyncPresenceService::Stats AsyncPresenceService::stats() const {
  util::MutexLock lock(mutex_);
  Stats s;
  for (const auto& [id, w] : watches_) {
    s.probes_sent += w.cp->probes_sent();
    s.cycles_succeeded += w.cp->cycles_succeeded();
    s.cycles_failed += w.cp->cycles_failed();
  }
  return s;
}

}  // namespace probemon::runtime
