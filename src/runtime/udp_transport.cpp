#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>

#include <cmath>
#include <cstring>

namespace probemon::runtime {

namespace {

void put_u32(std::uint8_t*& p, std::uint32_t v) {
  v = htonl(v);
  std::memcpy(p, &v, 4);
  p += 4;
}
void put_u64(std::uint8_t*& p, std::uint64_t v) {
  const std::uint32_t hi = static_cast<std::uint32_t>(v >> 32);
  const std::uint32_t lo = static_cast<std::uint32_t>(v);
  put_u32(p, hi);
  put_u32(p, lo);
}
std::uint32_t get_u32(const std::uint8_t*& p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  p += 4;
  return ntohl(v);
}
std::uint64_t get_u64(const std::uint8_t*& p) {
  const std::uint64_t hi = get_u32(p);
  const std::uint64_t lo = get_u32(p);
  return (hi << 32) | lo;
}

}  // namespace

// Wire layout (48 bytes, big-endian):
//   0  kind (1) | attempt (1) | ttl (1) | reserved (1)
//   4  from (4) | to (4)
//  12  cycle (8)
//  20  pc (8)
//  28  grant_delay (8, IEEE-754 bits)
//  36  last_probers[0] (4) | last_probers[1] (4)
//  44  subject (4)
std::size_t udp_encode(const net::Message& msg,
                       std::uint8_t out[kUdpWireSize]) {
  std::uint8_t* p = out;
  *p++ = static_cast<std::uint8_t>(msg.kind);
  *p++ = msg.attempt;
  *p++ = msg.ttl;
  *p++ = 0;
  put_u32(p, msg.from);
  put_u32(p, msg.to);
  put_u64(p, msg.cycle);
  put_u64(p, msg.pc);
  std::uint64_t grant_bits;
  static_assert(sizeof(grant_bits) == sizeof(msg.grant_delay));
  std::memcpy(&grant_bits, &msg.grant_delay, 8);
  put_u64(p, grant_bits);
  put_u32(p, msg.last_probers[0]);
  put_u32(p, msg.last_probers[1]);
  put_u32(p, msg.subject);
  return kUdpWireSize;
}

bool udp_decode(const std::uint8_t in[kUdpWireSize], std::size_t size,
                net::Message& out) {
  if (size != kUdpWireSize) return false;
  const std::uint8_t* p = in;
  const std::uint8_t kind = *p++;
  if (kind > static_cast<std::uint8_t>(net::MessageKind::kNotify)) {
    return false;
  }
  out.kind = static_cast<net::MessageKind>(kind);
  out.attempt = *p++;
  out.ttl = *p++;
  ++p;  // reserved
  out.from = get_u32(p);
  out.to = get_u32(p);
  out.cycle = get_u64(p);
  out.pc = get_u64(p);
  const std::uint64_t grant_bits = get_u64(p);
  std::memcpy(&out.grant_delay, &grant_bits, 8);
  if (!std::isfinite(out.grant_delay)) return false;
  out.last_probers[0] = get_u32(p);
  out.last_probers[1] = get_u32(p);
  out.subject = get_u32(p);
  return true;
}

}  // namespace probemon::runtime
