#pragma once

// Active measurement tools: ping (ICMP), TCP ping (SYN timing, for targets
// that block ICMP), traceroute, and the paper's anycast-inference procedure
// (§4.2): probe from several vantage points, compare RTTs and the hops right
// before the target; comparable low RTTs from distant vantages and/or
// divergent penultimate hops imply anycast.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "geo/geo.hpp"
#include "net/node.hpp"
#include "util/stats.hpp"

namespace msim {

/// Result of a ping run.
struct PingResult {
  int sent{0};
  int received{0};
  RunningStats rttMs;
  [[nodiscard]] bool reachable() const { return received > 0; }
};

/// ICMP echo pinger bound to one node.
class PingTool {
 public:
  using DoneHandler = std::function<void(const PingResult&)>;

  explicit PingTool(Node& node);
  ~PingTool();

  PingTool(const PingTool&) = delete;
  PingTool& operator=(const PingTool&) = delete;

  /// Sends `count` probes at `interval`; `done` fires after the last reply
  /// or `timeout` past the last probe.
  void ping(Ipv4Address target, int count, DoneHandler done,
            Duration interval = Duration::millis(200),
            Duration timeout = Duration::seconds(1));

 private:
  struct Run {
    Ipv4Address target;
    int count{0};
    PingResult result;
    std::map<std::uint16_t, TimePoint> outstanding;  // seq -> sent at
    DoneHandler done;
    bool finished{false};
  };

  void finish(const std::shared_ptr<Run>& run);

  Node& node_;
  std::uint16_t ident_;
  std::uint16_t nextSeq_{1};
  std::vector<std::shared_ptr<Run>> runs_;
  // Guards the node-registered ICMP listener against outliving this tool.
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

/// SYN-timing pinger: measures connect()-to-answer (SYN-ACK or RST) time.
class TcpPingTool {
 public:
  using DoneHandler = std::function<void(const PingResult&)>;

  explicit TcpPingTool(Node& node) : node_{node} {}

  void ping(Endpoint target, int count, DoneHandler done,
            Duration interval = Duration::millis(200));

 private:
  void probeOnce(Endpoint target, int remaining, Duration interval,
                 std::shared_ptr<PingResult> acc, DoneHandler done);

  Node& node_;
};

/// One traceroute hop.
struct TracerouteHop {
  int ttl{0};
  Ipv4Address addr;       // unspecified if the hop timed out
  double rttMs{0.0};
  bool reachedTarget{false};
};

/// UDP high-port traceroute.
class TracerouteTool {
 public:
  using DoneHandler = std::function<void(const std::vector<TracerouteHop>&)>;

  explicit TracerouteTool(Node& node);
  ~TracerouteTool();

  TracerouteTool(const TracerouteTool&) = delete;
  TracerouteTool& operator=(const TracerouteTool&) = delete;

  void trace(Ipv4Address target, DoneHandler done, int maxTtl = 16,
             Duration probeTimeout = Duration::seconds(1));

 private:
  struct Trace {
    Ipv4Address target;
    int maxTtl{16};
    Duration probeTimeout;
    int currentTtl{0};
    TimePoint probeSentAt;
    std::uint16_t probePort{0};
    std::vector<TracerouteHop> hops;
    DoneHandler done;
    EventId timeoutEvent;
    bool awaiting{false};
  };

  void sendNextProbe(const std::shared_ptr<Trace>& t);
  void completeHop(const std::shared_ptr<Trace>& t, Ipv4Address hopAddr,
                   bool reached);

  Node& node_;
  std::uint16_t nextPort_{33434};
  std::vector<std::shared_ptr<Trace>> traces_;
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

/// Verdict of the multi-vantage anycast inference.
struct AnycastReport {
  bool likelyAnycast{false};
  std::vector<std::string> vantageNames;
  std::vector<double> rttMs;                 // per vantage
  std::vector<Ipv4Address> penultimateHops;  // per vantage
  std::string rationale;
};

/// Runs the §4.2 procedure: ping + traceroute from every vantage node, then
/// applies the paper's criteria.
class AnycastInference {
 public:
  using DoneHandler = std::function<void(const AnycastReport&)>;

  /// `tcpFallbackPort`: if nonzero and ICMP fails, TCP-ping that port.
  static void run(Simulator& sim, const std::vector<Node*>& vantages,
                  Ipv4Address target, DoneHandler done,
                  std::uint16_t tcpFallbackPort = 443);
};

}  // namespace msim
