// AsyncUdpTransport: batched, non-blocking UDP for the event loop.
//
// All locally attached NodeIds are multiplexed over ONE non-blocking
// socket owned by an EventLoop — the 48-byte wire format
// (runtime/udp_transport.hpp) carries from/to ids in the payload, so one
// fd (and one epoll registration) serves 10^5 endpoints. IO is batched:
//
//   * receive — recvmmsg() pulls up to Config::recv_batch datagrams per
//     syscall; the loop's level-triggered epoll re-arms if more than
//     Config::max_datagrams_per_wake are queued (fairness bound).
//   * send    — send() encodes into a pending sendmmsg() batch which is
//     flushed when full and at the end of every loop iteration (the
//     transport registers itself as a loop flush hook), so datagrams
//     never sit across a sleep.
//
// Routing: destinations that are locally attached loop through the
// socket to our own port (real kernel UDP, not a shortcut). External
// peers are learned from datagram source addresses — the first message
// from an unknown NodeId binds that id to its source port (how
// tools/probemon_loadgen gets replies back) — or pinned explicitly via
// set_peer(). SO_REUSEPORT sharding (Config::reuse_port) lets N loops
// bind the same port and have the kernel spread load.
//
// Time: handlers read the loop clock (loop().now(), seconds since the
// loop was created) — the runtime's one time base.
//
// Threading: attach/detach/send/flush/set_peer are loop-confined (loop
// thread, or while the loop is not running — enforced under
// PROBEMON_CHECKED); the counter accessors and instrument()'s callbacks
// are atomics, safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/event_loop/event_loop.hpp"
#include "runtime/udp_transport.hpp"  // 48-byte wire codec
#include "telemetry/registry.hpp"

namespace probemon::runtime {

class AsyncUdpTransport final {
 public:
  /// Receives every datagram addressed to one attached NodeId, on the
  /// loop thread.
  using Handler = std::function<void(const net::Message&)>;

  struct Config {
    /// UDP port to bind on 127.0.0.1; 0 = ephemeral (see local_port()).
    std::uint16_t port = 0;
    /// SO_REUSEPORT, for N-loop sharding on a fixed port.
    bool reuse_port = false;
    /// recvmmsg()/sendmmsg() batch depth per syscall.
    int recv_batch = 64;
    int send_batch = 64;
    /// Fairness bound: max datagrams consumed per readable-fd wake
    /// (level-triggered epoll re-fires for the remainder).
    int max_datagrams_per_wake = 4096;
    /// Socket buffer sizes; generous, because an open-loop prober can
    /// burst far ahead of the loop.
    int rcvbuf_bytes = 1 << 22;
    int sndbuf_bytes = 1 << 22;
  };

  /// Binds the socket and registers it (plus a flush hook) on `loop`,
  /// which must not be running yet or must be driven by the caller.
  explicit AsyncUdpTransport(EventLoop& loop);
  AsyncUdpTransport(EventLoop& loop, Config config);
  ~AsyncUdpTransport();

  /// Register a handler; returns the node's address (loop-confined).
  net::NodeId attach(Handler handler);
  /// Deregister (loop-confined); the handler is not invoked again.
  void detach(net::NodeId id);
  /// Fire-and-forget datagram send (loop-confined).
  void send(net::Message msg);

  /// Pin an external NodeId to a UDP port on 127.0.0.1 (loop-confined).
  /// Datagram source addresses update the same table automatically.
  void set_peer(net::NodeId id, std::uint16_t port);

  std::uint16_t local_port() const noexcept { return local_port_; }
  int fd() const noexcept { return fd_; }
  EventLoop& loop() const noexcept { return loop_; }

  /// Transmit the pending send batch now (loop-confined). Called
  /// automatically as a loop flush hook; exposed for tests.
  void flush();

  // --- scrape-safe counters (atomics; any thread) -------------------------
  std::uint64_t sent_count() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_count() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t send_error_count() const noexcept {
    return send_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t recv_error_count() const noexcept {
    return recv_errors_.load(std::memory_order_relaxed);
  }
  /// Datagrams that decoded fine but addressed no attached handler and
  /// no known peer — the transport's drop counter.
  std::uint64_t unroutable_count() const noexcept {
    return unroutable_.load(std::memory_order_relaxed);
  }

  /// Mirror counters into `registry` with label transport="udp"
  /// (probemon_transport_datagrams_{sent,delivered}_total,
  /// probemon_transport_{send,recv}_errors_total,
  /// probemon_transport_unroutable_total) plus the
  /// probemon_transport_recv_batch_depth histogram — the recvmmsg-depth
  /// distribution that shows how much batching actually bought. The
  /// registry must outlive the transport.
  void instrument(telemetry::Registry& registry);

 private:
  struct IoBatches;  // platform-specific scratch (mmsghdr arrays)

  void on_readable();
  void handle_datagram(const std::uint8_t* data, std::size_t len,
                       std::uint16_t src_port);
  bool locally_attached(net::NodeId id) const noexcept {
    return id < handlers_.size() && handlers_[id] != nullptr;
  }
  void assert_loop_confined(const char* what) const;

  EventLoop& loop_;
  Config config_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::uint64_t flush_hook_ = 0;

  /// Dense handler table indexed by NodeId (ids start at 1).
  std::vector<Handler> handlers_;
  net::NodeId next_id_ = 1;
  /// External NodeId -> UDP port (127.0.0.1), learned or pinned.
  std::unordered_map<net::NodeId, std::uint16_t> peers_;

  std::unique_ptr<IoBatches> io_;
  int pending_send_ = 0;

  telemetry::Histogram* recv_depth_hist_ = nullptr;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> send_errors_{0};
  std::atomic<std::uint64_t> recv_errors_{0};
  std::atomic<std::uint64_t> unroutable_{0};
};

}  // namespace probemon::runtime
