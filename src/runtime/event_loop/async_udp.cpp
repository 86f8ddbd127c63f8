#include "runtime/event_loop/async_udp.hpp"

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef PROBEMON_CHECKED
#include <cstdio>
#include <cstdlib>
#endif

namespace probemon::runtime {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

constexpr std::size_t kRecvBufSize = kUdpWireSize + 16;  // oversize detect

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

struct AsyncUdpTransport::IoBatches {
  // recvmmsg scratch: one buffer/iovec/source-addr/header per slot.
  std::vector<std::array<std::uint8_t, kRecvBufSize>> rbufs;
  std::vector<iovec> riov;
  std::vector<sockaddr_in> raddr;
  std::vector<mmsghdr> rmsgs;
  // sendmmsg batch, filled by send() and drained by flush().
  std::vector<std::array<std::uint8_t, kUdpWireSize>> sbufs;
  std::vector<iovec> siov;
  std::vector<sockaddr_in> saddr;
  std::vector<mmsghdr> smsgs;

  explicit IoBatches(const Config& config) {
    const auto rn = static_cast<std::size_t>(config.recv_batch);
    rbufs.resize(rn);
    riov.resize(rn);
    raddr.resize(rn);
    rmsgs.resize(rn);
    for (std::size_t i = 0; i < rn; ++i) {
      riov[i] = {rbufs[i].data(), rbufs[i].size()};
      std::memset(&rmsgs[i], 0, sizeof(rmsgs[i]));
      rmsgs[i].msg_hdr.msg_iov = &riov[i];
      rmsgs[i].msg_hdr.msg_iovlen = 1;
      rmsgs[i].msg_hdr.msg_name = &raddr[i];
      rmsgs[i].msg_hdr.msg_namelen = sizeof(raddr[i]);
    }
    const auto sn = static_cast<std::size_t>(config.send_batch);
    sbufs.resize(sn);
    siov.resize(sn);
    saddr.resize(sn);
    smsgs.resize(sn);
    for (std::size_t i = 0; i < sn; ++i) {
      siov[i] = {sbufs[i].data(), kUdpWireSize};
      std::memset(&smsgs[i], 0, sizeof(smsgs[i]));
      smsgs[i].msg_hdr.msg_iov = &siov[i];
      smsgs[i].msg_hdr.msg_iovlen = 1;
      smsgs[i].msg_hdr.msg_name = &saddr[i];
      smsgs[i].msg_hdr.msg_namelen = sizeof(saddr[i]);
    }
  }
};

AsyncUdpTransport::AsyncUdpTransport(EventLoop& loop)
    : AsyncUdpTransport(loop, Config{}) {}

AsyncUdpTransport::AsyncUdpTransport(EventLoop& loop, Config config)
    : loop_(loop),
      config_(config),
      io_(std::make_unique<IoBatches>(config)) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("AsyncUdpTransport: socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (config_.reuse_port) {
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      const int saved = errno;
      ::close(fd_);
      errno = saved;
      throw_errno("AsyncUdpTransport: SO_REUSEPORT");
    }
  }
  if (config_.rcvbuf_bytes > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &config_.rcvbuf_bytes,
                 sizeof(config_.rcvbuf_bytes));
  }
  if (config_.sndbuf_bytes > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                 sizeof(config_.sndbuf_bytes));
  }
  sockaddr_in addr = loopback_addr(config_.port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("AsyncUdpTransport: bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    local_port_ = ntohs(addr.sin_port);
  }
  handlers_.resize(1);  // NodeId 0 = kInvalidNode, never attached
  loop_.add_fd(fd_, [this](std::uint32_t) { on_readable(); });
  flush_hook_ = loop_.add_flush_hook([this] { flush(); });
}

AsyncUdpTransport::~AsyncUdpTransport() {
  assert_loop_confined("~AsyncUdpTransport");
  flush();
  loop_.remove_flush_hook(flush_hook_);
  loop_.remove_fd(fd_);
  ::close(fd_);
}

void AsyncUdpTransport::assert_loop_confined(const char* what) const {
#ifdef PROBEMON_CHECKED
  if (loop_.running() && !loop_.on_loop_thread()) {
    std::fprintf(stderr, "AsyncUdpTransport: %s off the loop thread\n", what);
    std::abort();
  }
#else
  (void)what;
#endif
}

net::NodeId AsyncUdpTransport::attach(Handler handler) {
  assert_loop_confined("attach");
  const net::NodeId id = next_id_++;
  if (id >= handlers_.size()) handlers_.resize(id + 1);
  handlers_[id] = std::move(handler);
  return id;
}

void AsyncUdpTransport::detach(net::NodeId id) {
  assert_loop_confined("detach");
  if (id < handlers_.size()) handlers_[id] = nullptr;
}

void AsyncUdpTransport::set_peer(net::NodeId id, std::uint16_t port) {
  assert_loop_confined("set_peer");
  peers_[id] = port;
}

void AsyncUdpTransport::send(net::Message msg) {
  assert_loop_confined("send");
  std::uint16_t port = 0;
  if (locally_attached(msg.to)) {
    port = local_port_;  // loops back through the kernel, not in-process
  } else {
    auto it = peers_.find(msg.to);
    if (it != peers_.end()) port = it->second;
  }
  if (port == 0) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto slot = static_cast<std::size_t>(pending_send_);
  udp_encode(msg, io_->sbufs[slot].data());
  io_->saddr[slot] = loopback_addr(port);
  io_->smsgs[slot].msg_hdr.msg_namelen = sizeof(io_->saddr[slot]);
  if (++pending_send_ >= config_.send_batch) flush();
}

void AsyncUdpTransport::flush() {
  if (pending_send_ == 0) return;
  int done = 0;
  while (done < pending_send_) {
    const int n = ::sendmmsg(fd_, io_->smsgs.data() + done,
                             static_cast<unsigned>(pending_send_ - done), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN (full socket buffer) or a real error: UDP is best-effort
      // loss either way — count the remainder and move on, never block
      // the loop.
      send_errors_.fetch_add(
          static_cast<std::uint64_t>(pending_send_ - done),
          std::memory_order_relaxed);
      break;
    }
    done += n;
    sent_.fetch_add(static_cast<std::uint64_t>(n),
                    std::memory_order_relaxed);
  }
  pending_send_ = 0;
}

void AsyncUdpTransport::on_readable() {
  int consumed = 0;
  while (consumed < config_.max_datagrams_per_wake) {
    // Source-addr lengths are overwritten by the kernel; re-arm them.
    for (auto& m : io_->rmsgs) m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    const int n = ::recvmmsg(fd_, io_->rmsgs.data(),
                             static_cast<unsigned>(config_.recv_batch),
                             MSG_DONTWAIT, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        recv_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    if (n == 0) break;
    if (recv_depth_hist_) recv_depth_hist_->observe(static_cast<double>(n));
    for (int i = 0; i < n; ++i) {
      handle_datagram(io_->rbufs[static_cast<std::size_t>(i)].data(),
                      io_->rmsgs[static_cast<std::size_t>(i)].msg_len,
                      ntohs(io_->raddr[static_cast<std::size_t>(i)].sin_port));
    }
    consumed += n;
    if (n < config_.recv_batch) break;  // socket drained
  }
}

void AsyncUdpTransport::handle_datagram(const std::uint8_t* data,
                                        std::size_t len,
                                        std::uint16_t src_port) {
  net::Message msg;
  if (len != kUdpWireSize || !udp_decode(data, len, msg)) {
    recv_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Peer learning: an unknown external sender binds its NodeId to the
  // datagram's source port, so replies route back without pre-config.
  if (msg.from != net::kInvalidNode && !locally_attached(msg.from)) {
    peers_[msg.from] = src_port;
  }
  if (!locally_attached(msg.to)) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  handlers_[msg.to](msg);
}

void AsyncUdpTransport::instrument(telemetry::Registry& registry) {
  const telemetry::Labels labels{{"transport", "udp"}};
  registry.counter_callback(
      "probemon_transport_datagrams_sent_total",
      [this] { return static_cast<double>(sent_count()); },
      "Datagrams handed to the kernel", labels);
  registry.counter_callback(
      "probemon_transport_datagrams_delivered_total",
      [this] { return static_cast<double>(delivered_count()); },
      "Datagrams decoded and dispatched to a handler", labels);
  registry.counter_callback(
      "probemon_transport_send_errors_total",
      [this] { return static_cast<double>(send_error_count()); },
      "sendmmsg/sendto failures (full buffers count as loss)", labels);
  registry.counter_callback(
      "probemon_transport_recv_errors_total",
      [this] { return static_cast<double>(recv_error_count()); },
      "Receive failures and undecodable datagrams", labels);
  registry.counter_callback(
      "probemon_transport_unroutable_total",
      [this] { return static_cast<double>(unroutable_count()); },
      "Datagrams addressed to no attached handler or known peer", labels);
  recv_depth_hist_ = &registry.histogram(
      "probemon_transport_recv_batch_depth",
      telemetry::Histogram::exponential_buckets(
          1.0, 2.0, 8),
      "Datagrams returned per recvmmsg() call", labels);
}

}  // namespace probemon::runtime
