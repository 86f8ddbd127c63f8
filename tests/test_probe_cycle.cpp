// Tests for the sans-IO bounded-retransmission probe cycle (paper Fig 1):
// TOF/TOS deadlines, the 1 + max_retransmissions probe budget,
// stale-reply rejection, the SAPP observation rule, counters — driven by
// plain (event, now) calls, no scheduler — plus an exhaustive
// small-scope exploration of every event sequence over two cycles.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/probe_cycle.hpp"

namespace probemon::core {
namespace {

constexpr double kTof = 0.022;
constexpr double kTos = 0.021;

TimeoutConfig timeouts(int max_retransmissions = 3, double tof = kTof,
                       double tos = kTos) {
  TimeoutConfig t;
  t.tof = tof;
  t.tos = tos;
  t.max_retransmissions = max_retransmissions;
  return t;
}

net::Message reply_for(std::uint64_t cycle, std::uint8_t attempt = 0) {
  net::Message m;
  m.kind = net::MessageKind::kReply;
  m.cycle = cycle;
  m.attempt = attempt;
  return m;
}

TEST(ProbeCycle, FirstProbeSentImmediatelyOnStart) {
  ProbeCycle cycle(timeouts());
  const ProbeCycle::Send send = cycle.start(0.5);
  EXPECT_EQ(send.cycle, 1u);
  EXPECT_EQ(send.attempt, 0);
  EXPECT_DOUBLE_EQ(send.deadline, 0.5 + kTof);
  EXPECT_TRUE(cycle.active());
  EXPECT_EQ(cycle.attempt(), 0);
}

TEST(ProbeCycle, ReplyEndsCycleSuccessfully) {
  ProbeCycle cycle(timeouts());
  cycle.start(0.0);
  const ProbeCycle::Verdict v = cycle.offer_reply(reply_for(1), 0.004);
  EXPECT_TRUE(v.accepted);
  EXPECT_DOUBLE_EQ(v.t_obs, 0.004);  // clean success: reply arrival
  EXPECT_DOUBLE_EQ(v.rtt, 0.004);
  EXPECT_EQ(v.answered, 1);
  EXPECT_EQ(v.sent, 1);
  EXPECT_FALSE(cycle.active());
  EXPECT_EQ(cycle.cycles_succeeded(), 1u);
  EXPECT_EQ(cycle.cycles_failed(), 0u);
}

TEST(ProbeCycle, RetransmitsWithTofThenTos) {
  ProbeCycle cycle(timeouts());
  double deadline = cycle.start(0.0).deadline;
  EXPECT_DOUBLE_EQ(deadline, kTof);
  for (int i = 0; i < 3; ++i) {
    const ProbeCycle::Timeout t = cycle.on_timeout(deadline);
    ASSERT_FALSE(t.absent);
    EXPECT_DOUBLE_EQ(t.send.deadline, deadline + kTos);
    deadline = t.send.deadline;
  }
  EXPECT_TRUE(cycle.on_timeout(deadline).absent);  // nothing answered
  EXPECT_FALSE(cycle.active());
  EXPECT_EQ(cycle.cycles_failed(), 1u);
  EXPECT_EQ(cycle.cycles_succeeded(), 0u);
  EXPECT_EQ(cycle.attempt(), 3);  // four probes
}

TEST(ProbeCycle, AttemptNumbersIncrease) {
  ProbeCycle cycle(timeouts());
  ProbeCycle::Send send = cycle.start(0.0);
  for (std::uint8_t i = 0; i < 4; ++i) {
    EXPECT_EQ(send.attempt, i);
    EXPECT_EQ(send.cycle, 1u);
    const ProbeCycle::Timeout t = cycle.on_timeout(send.deadline);
    EXPECT_EQ(t.absent, i == 3);
    send = t.send;
  }
}

TEST(ProbeCycle, ZeroRetransmissionsFailsAfterOneProbe) {
  ProbeCycle cycle(timeouts(0));
  const ProbeCycle::Send send = cycle.start(0.0);
  EXPECT_TRUE(cycle.on_timeout(send.deadline).absent);
  EXPECT_EQ(cycle.attempt(), 0);  // the only probe
  EXPECT_EQ(cycle.cycles_failed(), 1u);
}

TEST(ProbeCycle, ReplyDuringRetransmissionPhaseAccepted) {
  ProbeCycle cycle(timeouts());
  const ProbeCycle::Send first = cycle.start(0.0);
  const ProbeCycle::Timeout retry = cycle.on_timeout(first.deadline);
  ASSERT_FALSE(retry.absent);
  const double now = kTof + 0.005;
  const ProbeCycle::Verdict v = cycle.offer_reply(reply_for(1, 1), now);
  EXPECT_TRUE(v.accepted);
  // A retransmission's reply is observed at that retransmission's send.
  EXPECT_DOUBLE_EQ(v.t_obs, kTof);
  EXPECT_NEAR(v.rtt, 0.005, 1e-12);
  EXPECT_EQ(v.answered, 2);
  EXPECT_EQ(v.sent, 2);
  EXPECT_FALSE(cycle.active());
}

TEST(ProbeCycle, LateReplyToFirstProbeObservedAtArrival) {
  // The observation rule keys on the attempt the reply answers, not on
  // how many probes the cycle has sent so far.
  ProbeCycle cycle(timeouts());
  cycle.on_timeout(cycle.start(0.0).deadline);
  const double now = kTof + 0.003;
  const ProbeCycle::Verdict v = cycle.offer_reply(reply_for(1, 0), now);
  EXPECT_TRUE(v.accepted);
  EXPECT_DOUBLE_EQ(v.t_obs, now);
  EXPECT_NEAR(v.rtt, 0.003, 1e-12);  // from the most recent send
  EXPECT_EQ(v.answered, 1);
  EXPECT_EQ(v.sent, 2);
}

TEST(ProbeCycle, StaleReplyFromPreviousCycleRejected) {
  ProbeCycle cycle(timeouts());
  cycle.start(0.0);
  EXPECT_TRUE(cycle.offer_reply(reply_for(1), 0.001).accepted);
  cycle.start(1.0);  // cycle 2
  const ProbeCycle::Verdict stale = cycle.offer_reply(reply_for(1), 1.002);
  EXPECT_FALSE(stale.accepted);  // duplicate of cycle 1
  EXPECT_DOUBLE_EQ(stale.t_obs, 1.002);  // observed at arrival
  EXPECT_EQ(cycle.cycles_succeeded(), 1u);
  EXPECT_TRUE(cycle.active());
  EXPECT_TRUE(cycle.offer_reply(reply_for(2), 1.003).accepted);
  EXPECT_EQ(cycle.cycles_succeeded(), 2u);
}

TEST(ProbeCycle, ReplyWhenInactiveRejected) {
  ProbeCycle cycle(timeouts());
  EXPECT_FALSE(cycle.offer_reply(reply_for(0), 0.0).accepted);
  EXPECT_FALSE(cycle.offer_reply(reply_for(1), 0.0).accepted);
  cycle.start(0.0);
  EXPECT_TRUE(cycle.offer_reply(reply_for(1), 0.001).accepted);
  EXPECT_FALSE(cycle.offer_reply(reply_for(1), 0.002).accepted);
}

TEST(ProbeCycle, AbortStopsWithoutCallbacks) {
  // Abandoning a cycle produces no outcome, and its reply turns stale.
  ProbeCycle cycle(timeouts());
  cycle.start(0.0);
  cycle.abort();
  EXPECT_FALSE(cycle.active());
  EXPECT_FALSE(cycle.offer_reply(reply_for(1), 0.001).accepted);
  EXPECT_EQ(cycle.cycles_succeeded(), 0u);
  EXPECT_EQ(cycle.cycles_failed(), 0u);
}

TEST(ProbeCycle, StartWhileActiveThrows) {
  ProbeCycle cycle(timeouts());
  cycle.start(0.0);
  EXPECT_THROW(cycle.start(0.0), std::logic_error);
}

TEST(ProbeCycle, CycleNumbersIncrement) {
  ProbeCycle cycle(timeouts());
  for (std::uint64_t c = 1; c <= 5; ++c) {
    EXPECT_EQ(cycle.start(static_cast<double>(c)).cycle, c);
    EXPECT_EQ(cycle.cycle(), c);
    cycle.offer_reply(reply_for(c), static_cast<double>(c) + 0.001);
  }
  EXPECT_EQ(cycle.cycles_started(), 5u);
  EXPECT_EQ(cycle.cycles_succeeded(), 5u);
}

TEST(ProbeCycle, LastSendTimeTracksRetransmissions) {
  ProbeCycle cycle(timeouts());
  const ProbeCycle::Send first = cycle.start(0.0);
  EXPECT_EQ(cycle.cycle_start_time(), 0.0);
  const ProbeCycle::Timeout second = cycle.on_timeout(first.deadline);
  cycle.on_timeout(second.send.deadline);  // two retransmissions out
  EXPECT_NEAR(cycle.last_send_time(), kTof + kTos, 1e-12);
  EXPECT_EQ(cycle.cycle_start_time(), 0.0);
}

TEST(ProbeCycle, ValidatesConstruction) {
  EXPECT_THROW(ProbeCycle(timeouts(3, 0.0, kTos)), std::invalid_argument);
  EXPECT_THROW(ProbeCycle(timeouts(3, kTof, -1.0)), std::invalid_argument);
  EXPECT_THROW(ProbeCycle(timeouts(-1)), std::invalid_argument);
}

// --- exhaustive small-scope exploration ------------------------------------
//
// Every sequence of driver inputs over two cycles on a discretised clock
// (TOF = 4, TOS = 3, other events one tick after the previous one):
// the armed timeout expiring, a reply to any attempt j sent so far in the
// current cycle, a reply tagged with the previous cycle (or, between
// cycles, with the completed one), and starting the next cycle. A
// reference model tracks what the cycle must have done; every state is
// checked against it.

constexpr double kTofTicks = 4;
constexpr double kTosTicks = 3;
constexpr int kCycles = 2;
constexpr int kStaleReplies = 2;  // per explored sequence

struct State {
  explicit State(int max_retransmissions)
      : machine(timeouts(max_retransmissions, kTofTicks, kTosTicks)) {}

  ProbeCycle machine;
  double now = 0;
  double deadline = 0;        // the armed timeout
  std::vector<double> sends;  // send instants of the current cycle
  int started = 0;            // cycles started
  int outcomes = 0;           // successes + absences
  int stale_left = kStaleReplies;
  std::string path;           // the inputs so far, for diagnostics
};

struct Coverage {
  std::set<std::pair<int, int>> successes;  // (sent, answered)
  int absences = 0;
  int terminal = 0;
};

class Explorer {
 public:
  explicit Explorer(int max_retransmissions)
      : max_r_(max_retransmissions) {}

  void explore(const State& s) {
    if (::testing::Test::HasFailure()) return;  // report the first path
    check(s);
    const bool active = s.started > s.outcomes;
    if (active) {
      timeout(s);
      for (std::size_t j = 0; j < s.sends.size(); ++j) reply(s, j);
    } else if (s.started < kCycles) {
      start(s);
    } else {
      ++coverage_.terminal;
      // Exactly one outcome per started cycle.
      EXPECT_EQ(s.outcomes, s.started) << s.path;
    }
    if (s.stale_left > 0 && s.started > 0) stale(s);
  }

  const Coverage& coverage() const { return coverage_; }

 private:
  void check(const State& s) {
    const bool active = s.started > s.outcomes;
    EXPECT_EQ(s.machine.active(), active) << s.path;
    EXPECT_LE(s.outcomes, s.started) << s.path;
    EXPECT_LE(s.sends.size(), static_cast<std::size_t>(max_r_) + 1)
        << "probe budget exceeded: " << s.path;
    EXPECT_EQ(s.machine.cycle(), static_cast<std::uint64_t>(s.started))
        << s.path;
    EXPECT_EQ(s.machine.cycles_succeeded() + s.machine.cycles_failed(),
              static_cast<std::uint64_t>(s.outcomes))
        << s.path;
    if (!s.sends.empty()) {
      EXPECT_EQ(s.machine.attempt() + 1u, s.sends.size()) << s.path;
      EXPECT_EQ(s.machine.cycle_start_time(), s.sends.front()) << s.path;
      EXPECT_EQ(s.machine.last_send_time(), s.sends.back()) << s.path;
    }
  }

  /// A send must carry the current tag, the next attempt number, and a
  /// deadline of send + TOF (first probe) or send + TOS (retries).
  void expect_send(const State& s, const ProbeCycle::Send& send) {
    EXPECT_EQ(send.cycle, static_cast<std::uint64_t>(s.started)) << s.path;
    EXPECT_EQ(send.attempt, s.sends.size() - 1) << s.path;
    EXPECT_EQ(send.deadline,
              s.now + (s.sends.size() == 1 ? kTofTicks : kTosTicks))
        << s.path;
  }

  void start(const State& from) {
    State s = from;
    s.now += 1;
    s.path += " start@" + std::to_string(s.now);
    const ProbeCycle::Send send = s.machine.start(s.now);
    ++s.started;
    s.sends = {s.now};
    expect_send(s, send);
    s.deadline = send.deadline;
    explore(s);
  }

  void timeout(const State& from) {
    State s = from;
    s.now = s.deadline;
    s.path += " timeout@" + std::to_string(s.now);
    const ProbeCycle::Timeout t = s.machine.on_timeout(s.now);
    // Absence exactly on the timeout that follows the last allowed probe.
    const bool last = s.sends.size() == static_cast<std::size_t>(max_r_) + 1;
    EXPECT_EQ(t.absent, last) << s.path;
    if (t.absent) {
      ++s.outcomes;
      ++coverage_.absences;
    } else {
      s.sends.push_back(s.now);
      expect_send(s, t.send);
      s.deadline = t.send.deadline;
    }
    explore(s);
  }

  void reply(const State& from, std::size_t attempt) {
    if (from.now + 1 >= from.deadline) return;  // the timeout fires first
    State s = from;
    s.now += 1;
    s.path += " reply(c" + std::to_string(s.started) + ",a" +
              std::to_string(attempt) + ")@" + std::to_string(s.now);
    const ProbeCycle::Verdict v = s.machine.offer_reply(
        reply_for(s.started, static_cast<std::uint8_t>(attempt)), s.now);
    EXPECT_TRUE(v.accepted) << s.path;
    // Observation rule: arrival for the first probe's reply, the most
    // recent send for a retransmission's reply.
    EXPECT_EQ(v.t_obs, attempt == 0 ? s.now : s.sends.back()) << s.path;
    EXPECT_EQ(v.rtt, s.now - s.sends.back()) << s.path;
    EXPECT_EQ(v.answered, attempt + 1) << s.path;
    EXPECT_EQ(v.sent, s.sends.size()) << s.path;
    ++s.outcomes;
    coverage_.successes.emplace(v.sent, v.answered);
    explore(s);
  }

  /// A reply no open cycle is waiting for: tagged with the previous
  /// cycle, or, between cycles, with the one that just completed.
  void stale(const State& from) {
    const bool active = from.started > from.outcomes;
    if (active && from.now + 1 >= from.deadline) return;
    State s = from;
    s.now += 1;
    --s.stale_left;
    const std::uint64_t tag = active ? s.started - 1 : s.started;
    s.path += " stale(c" + std::to_string(tag) + ")@" + std::to_string(s.now);
    const ProbeCycle::Verdict v = s.machine.offer_reply(reply_for(tag), s.now);
    EXPECT_FALSE(v.accepted) << s.path;
    EXPECT_EQ(v.t_obs, s.now) << s.path;
    EXPECT_EQ(v.rtt, 0.0) << s.path;
    explore(s);
  }

  int max_r_;
  Coverage coverage_;
};

TEST(ProbeCycle, ExhaustiveSmallScopeInvariants) {
  for (int max_r = 0; max_r <= 3; ++max_r) {
    SCOPED_TRACE("max_retransmissions = " + std::to_string(max_r));
    Explorer explorer(max_r);
    explorer.explore(State(max_r));
    ASSERT_FALSE(::testing::Test::HasFailure());
    // Not vacuous: every reachable outcome was reached — absence, and a
    // success answering each attempt j after each number of sends.
    const Coverage& c = explorer.coverage();
    EXPECT_GT(c.absences, 0);
    EXPECT_GT(c.terminal, 0);
    for (int sent = 1; sent <= max_r + 1; ++sent) {
      for (int answered = 1; answered <= sent; ++answered) {
        EXPECT_TRUE(c.successes.contains({sent, answered}))
            << "never reached: sent " << sent << ", answered " << answered;
      }
    }
  }
}

}  // namespace
}  // namespace probemon::core
