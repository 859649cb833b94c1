#include "net/address.hpp"

#include <cstdio>

namespace msim {

std::string Ipv4Address::toString() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xff,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

std::string Endpoint::toString() const {
  return addr.toString() + ":" + std::to_string(port);
}

}  // namespace msim
