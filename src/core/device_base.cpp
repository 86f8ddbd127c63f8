#include "core/device_base.hpp"

#include "core/device_core.hpp"

namespace probemon::core {

DeviceBase::DeviceBase(des::Simulation& sim, net::Network& network,
                       EntityArena& arena, ComputeConfig compute,
                       ProtocolObserver* observer)
    : sim_(sim),
      network_(network),
      arena_(arena),
      compute_(compute),
      observer_(observer),
      compute_rng_(sim.rng().fork("device.compute")),
      did_(arena.add_device()) {
  compute_.validate();
  id_ = network_.attach(*this);
  state().node = id_;
  // Make the per-device stream unique even with several devices.
  compute_rng_ = compute_rng_.fork(id_);
}

DeviceBase::~DeviceBase() {
  if (network_.attached(id_)) network_.detach(id_);
  arena_.remove_device(did_);
}

void DeviceBase::go_silent() {
  DeviceState& st = state();
  st.present = false;
  arena_.queue_clear(did_);
  st.busy = false;
  // Invalidate the in-progress "computation", if any: its completion
  // event carries the old epoch and bails even if the device has come
  // back in the meantime.
  ++st.service_epoch;
}

void DeviceBase::leave_gracefully() {
  for (net::NodeId cp : state().last_probers) {
    if (cp == net::kInvalidNode) continue;
    net::Message bye;
    bye.kind = net::MessageKind::kBye;
    bye.from = id_;
    bye.to = cp;
    bye.subject = id_;
    network_.send(bye);
  }
  go_silent();
}

void DeviceBase::come_back() { state().present = true; }

void DeviceBase::on_message(const net::Message& msg) {
  DeviceState& st = state();
  if (!accepts_probe(msg, st.present)) return;

  const double t = sim_.now();
  ++st.probes_received;
  if (observer_) observer_->on_probe_received(id_, msg.from, t);
  on_probe_accepted(msg, t);

  // The device is a single-threaded little box: probes are answered one
  // at a time, each taking a computation time in [compute.min,
  // compute.max]. Concurrent probes queue up, which is what makes the
  // paper's timeout calibration (TOF = 2*RTT + compute_max) tight rather
  // than vacuous: under bursts, turnaround exceeds TOF and CPs
  // retransmit.
  arena_.queue_push(did_, msg);
  if (!st.busy) start_service();
}

void DeviceBase::start_service() {
  DeviceState& st = state();
  net::Message probe;
  if (!arena_.queue_pop(did_, probe)) {
    st.busy = false;
    return;
  }
  st.busy = true;

  // Protocol state updates at service time (the paper's "on receipt":
  // receipt and processing coincide for a serial device).
  begin_reply(probe, id_, st.last_probers, st.pending_reply);
  fill_reply(sim_.now(), st.pending_reply);

  const double compute = compute_rng_.uniform(compute_.min, compute_.max);
  auto complete = [this, epoch = st.service_epoch] {
    if (epoch != state().service_epoch) return;  // went silent mid-computation
    network_.send(state().pending_reply);
    start_service();
  };
  static_assert(des::InlineCallback::fits_inline<decltype(complete)>);
  sim_.after(compute, std::move(complete));
}

void DeviceBase::notify_delta_changed(std::uint64_t delta) {
  if (observer_) observer_->on_delta_changed(id_, sim_.now(), delta);
}

}  // namespace probemon::core
