#include "platform/session_gate.hpp"

namespace msim {

session::SessionConfig sessionConfigFor(const SessionSpec& spec) {
  session::SessionConfig cfg;
  cfg.tokenRefreshLead = spec.tokenRefreshLead;
  cfg.pingInterval = spec.pingInterval;
  cfg.maxPingDelay = spec.maxPingDelay;
  cfg.minReconnectDelay = spec.minReconnectDelay;
  cfg.maxReconnectDelay = spec.maxReconnectDelay;
  cfg.backoffFactor = spec.backoffFactor;
  cfg.jitteredBackoff = spec.jitteredBackoff;
  return cfg;
}

ControlSessionGate::ControlSessionGate(session::SessionHub& hub,
                                       Node& clientNode,
                                       PlatformDeployment& deployment)
    : hub_{hub}, dep_{deployment}, http_{clientNode} {
  hub_.setTokenSource([this](session::Session& s, std::uint64_t epoch) {
    fetch(s, epoch);
  });
}

void ControlSessionGate::fetch(session::Session& s, std::uint64_t epoch) {
  // A Connected session asking for a token is refreshing; anything else is
  // (re-)establishing.
  const bool refresh = s.state() == session::ConnectionState::Connected;
  refresh ? ++refreshes_ : ++establishes_;
  HttpRequest req;
  req.path = refresh ? controlpath::kSessionRefresh
                     : controlpath::kSessionEstablish;
  req.body = ByteSize::bytes(200);  // credential / current-token claims
  // The session may die while the request is in flight: capture its dense id
  // and resolve through the hub registry on completion.
  const std::uint32_t sid = s.id();
  http_.request(dep_.controlEndpointFor(s.region()), req,
                [this, sid, epoch](const HttpResponse& resp, Duration) {
                  if (resp.status != 200) {
                    ++failures_;
                    return;
                  }
                  session::Session* s = hub_.sessionAt(sid);
                  if (s == nullptr) return;
                  s->deliverToken(dep_.tokenAuthority().issue(s->userId(),
                                                              hub_.sim().now()),
                                  epoch);
                });
}

}  // namespace msim
