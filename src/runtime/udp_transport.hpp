// The 48-byte UDP wire codec every real-time endpoint speaks.
//
// AsyncUdpTransport (event_loop/async_udp.hpp) carries net::Message
// datagrams in this fixed big-endian layout (see udp_transport.cpp);
// tools/probemon_loadgen and the benchmark's raw-socket peers use the
// same two functions to talk to it from outside the loop.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/message.hpp"

namespace probemon::runtime {

inline constexpr std::size_t kUdpWireSize = 48;
/// Returns the encoded size (always kUdpWireSize).
std::size_t udp_encode(const net::Message& msg,
                       std::uint8_t out[kUdpWireSize]);
/// Returns false if the buffer is malformed: wrong size, an unknown
/// kind byte, or a grant_delay that is not a finite number (a NaN or
/// infinite grant would reach the timer wheel as a deadline).
bool udp_decode(const std::uint8_t in[kUdpWireSize], std::size_t size,
                net::Message& out);

}  // namespace probemon::runtime
