// Bounded-retransmission probe cycle (paper Fig 1) as a sans-IO state
// machine: send a probe; wait TOF; on timeout retransmit and wait TOS,
// up to max_retransmissions times; a reply for the current cycle ends it
// successfully, exhaustion ends it unsuccessfully. It owns no clock,
// timer or socket — every input carries the current time and every
// output says what to do next — so core::ControlPointBase (DES) and
// runtime::AsyncControlPointBase (reactor) drive the same cycle: after a
// Send, transmit the probe and arm a timer for its deadline; call
// on_timeout() when it expires; disarm it when a reply is accepted or
// the cycle aborted.
//
// Observation rule (SAPP's L_exp, paper section 2): a reply to the first
// probe is observed at its arrival; a reply to a retransmission at "the
// time at which the retransmitted probe has been sent" (the most recent
// send); a rejected reply (duplicate, or from an abandoned cycle) at its
// arrival.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "net/message.hpp"

namespace probemon::core {

class ProbeCycle {
 public:
  /// Transmit probe (cycle, attempt); its timeout expires at `deadline`.
  struct Send {
    std::uint64_t cycle = 0;
    std::uint8_t attempt = 0;
    double deadline = 0;
  };

  /// What an expired timeout asks for: a retransmission, or (when the
  /// retransmissions are exhausted) declaring the device absent.
  struct Timeout {
    bool absent = false;
    Send send;  ///< meaningful iff !absent
  };

  /// Verdict on an offered reply.
  struct Verdict {
    bool accepted = false;  ///< completed the current cycle
    double t_obs = 0;       ///< SAPP observation instant (see above)
    double rtt = 0;         ///< now - last send; 0 when rejected
    /// Accepted replies only: the answered attempt + 1, and the probes
    /// the cycle sent (they differ when a late reply to an earlier
    /// attempt overtakes a retransmission).
    std::uint8_t answered = 0;
    std::uint8_t sent = 0;
  };

  explicit ProbeCycle(const TimeoutConfig& timeouts);

  /// Begin a new cycle at `now`: the first probe goes out immediately.
  /// Throws std::logic_error while a cycle is active.
  Send start(double now);

  /// The armed timeout expired. Only valid while a cycle is active.
  Timeout on_timeout(double now);

  /// Offer a reply from the monitored device. Accepted iff a cycle is
  /// active and the reply carries its tag; anything else is stale.
  Verdict offer_reply(const net::Message& reply, double now);

  /// Abandon the current cycle, if any (no outcome).
  void abort() noexcept { active_ = false; }

  bool active() const noexcept { return active_; }
  std::uint64_t cycle() const noexcept { return cycle_; }
  std::uint8_t attempt() const noexcept { return attempt_; }
  double cycle_start_time() const noexcept { return cycle_start_time_; }
  double last_send_time() const noexcept { return last_send_time_; }

  /// Totals over the machine's lifetime.
  std::uint64_t cycles_started() const noexcept { return cycle_; }
  std::uint64_t cycles_succeeded() const noexcept { return cycles_succeeded_; }
  std::uint64_t cycles_failed() const noexcept { return cycles_failed_; }

 private:
  Send transmit(double now);

  TimeoutConfig timeouts_;
  bool active_ = false;
  std::uint8_t attempt_ = 0;
  std::uint64_t cycle_ = 0;
  double cycle_start_time_ = 0;
  double last_send_time_ = 0;
  std::uint64_t cycles_succeeded_ = 0;
  std::uint64_t cycles_failed_ = 0;
};

}  // namespace probemon::core
