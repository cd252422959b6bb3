#include "net/transport.h"

#include <stdexcept>
#include <string>

namespace rejecto::net {

const char* CallStatusName(CallStatus status) noexcept {
  switch (status) {
    case CallStatus::kOk: return "ok";
    case CallStatus::kTimeout: return "timeout";
    case CallStatus::kPeerDead: return "peer_dead";
    case CallStatus::kError: return "error";
  }
  return "unknown";
}

void Transport::SetHandler(std::uint32_t /*peer*/, Handler /*handler*/) {}

const char* TransportKindName(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kSimNet: return "simnet";
    case TransportKind::kSocket: return "socket";
  }
  return "unknown";
}

TransportKind ParseTransportKind(std::string_view text) {
  if (text == "simnet") return TransportKind::kSimNet;
  if (text == "socket") return TransportKind::kSocket;
  throw std::invalid_argument(
      "unknown transport '" + std::string(text) +
      "' (expected one of: simnet, socket)");
}

}  // namespace rejecto::net
