#include "net/packet.hpp"

namespace msim {

const char* toString(IpProto p) {
  switch (p) {
    case IpProto::Udp: return "UDP";
    case IpProto::Tcp: return "TCP";
    case IpProto::Icmp: return "ICMP";
  }
  return "?";
}

}  // namespace msim
