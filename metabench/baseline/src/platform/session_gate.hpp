#pragma once

// Bridges the session tier (src/session) onto the platform control channel:
// token establish/refresh become real HTTPS round trips to the deployment's
// nearest control endpoint (controlpath::kSessionEstablish / kSessionRefresh),
// and the token is minted by the deployment's TokenAuthority when the
// response lands. Plugged into a SessionHub via setTokenSource, it replaces
// the hub's fixed-latency default with whatever delay the simulated internet
// actually imposes — so a reconnect storm loads the control tier with real
// request traffic before any session re-binds.

#include "platform/deployment.hpp"
#include "session/hub.hpp"

namespace msim {

/// Client-side SessionConfig implied by a platform's SessionSpec.
[[nodiscard]] session::SessionConfig sessionConfigFor(const SessionSpec& spec);

class ControlSessionGate {
 public:
  /// Installs itself as `hub`'s token source. `clientNode` hosts the HTTP
  /// client carrying the establish/refresh requests (in the testbed, a
  /// headset node behind its AP). Outlive the hub's last token request.
  ControlSessionGate(session::SessionHub& hub, Node& clientNode,
                     PlatformDeployment& deployment);

  ControlSessionGate(const ControlSessionGate&) = delete;
  ControlSessionGate& operator=(const ControlSessionGate&) = delete;

  [[nodiscard]] std::uint64_t establishRequests() const { return establishes_; }
  [[nodiscard]] std::uint64_t refreshRequests() const { return refreshes_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

 private:
  void fetch(session::Session& s, std::uint64_t epoch);

  session::SessionHub& hub_;
  PlatformDeployment& dep_;
  HttpClient http_;
  std::uint64_t establishes_{0};
  std::uint64_t refreshes_{0};
  std::uint64_t failures_{0};
};

}  // namespace msim
