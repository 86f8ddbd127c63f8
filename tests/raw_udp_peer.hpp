// RawPeer: a UDP socket on 127.0.0.1 outside any event loop, for tests
// that talk to an AsyncUdpTransport from outside in the 48-byte wire
// format.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

#include "net/message.hpp"
#include "runtime/udp_transport.hpp"

namespace probemon::runtime {

/// A UDP socket on 127.0.0.1 outside the loop — an external endpoint
/// that speaks the wire format by hand.
struct RawPeer {
  int fd = -1;
  std::uint16_t port = 0;

  RawPeer() {
    fd = socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(fd, reinterpret_cast<sockaddr*>(&local), sizeof local);
    socklen_t len = sizeof local;
    getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len);
    port = ntohs(local.sin_port);
    timeval rcv_timeout{0, 50'000};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout,
               sizeof rcv_timeout);
  }
  ~RawPeer() { close(fd); }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  void send_to(std::uint16_t dst_port, const net::Message& msg) const {
    std::uint8_t wire[kUdpWireSize];
    udp_encode(msg, wire);
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    dst.sin_port = htons(dst_port);
    sendto(fd, wire, sizeof wire, 0, reinterpret_cast<sockaddr*>(&dst),
           sizeof dst);
  }

  /// Next well-formed datagram, or false after the receive timeout.
  bool receive(net::Message& out) const {
    std::uint8_t wire[kUdpWireSize + 8];
    const ssize_t n = recv(fd, wire, sizeof wire, 0);
    return n > 0 && udp_decode(wire, static_cast<std::size_t>(n), out);
  }

  /// Send `probe` and wait (up to ~2 s) for the reply to it: a datagram
  /// from probe.to carrying probe.cycle. False if none arrives.
  bool ask(std::uint16_t dst_port, const net::Message& probe,
           net::Message& reply) const {
    send_to(dst_port, probe);
    for (int tries = 0; tries < 40; ++tries) {
      if (receive(reply) && reply.from == probe.to &&
          reply.cycle == probe.cycle) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace probemon::runtime
