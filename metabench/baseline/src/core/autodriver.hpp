#pragma once

// AutoDriver — scripted session playback (§9).
//
// The paper's authors note they are extending Oculus' AutoDriver tool (which
// "enables the test of VR applications by automatically playing back
// pre-defined inputs") to run large-scale crowd-sourced experiments. This is
// that tool for the simulator: a declarative script of timed inputs — launch,
// join, walk, snap-turn, act, game on/off, mute, leave — that drives a
// PlatformClient deterministically. Experiments, tests and examples can share
// scripts instead of hand-scheduling lambdas.

#include <string>
#include <vector>

#include "core/testbed.hpp"

namespace msim {

/// One scripted input.
struct DriverStep {
  enum class Kind : std::uint8_t {
    Launch,
    JoinEvent,
    LeaveEvent,
    WalkTo,        // x, y
    TeleportTo,    // x, y
    SnapTurn,      // steps of 22.5° (a = step count, signed)
    FaceTowards,   // x, y
    ClearFace,
    Act,           // perform a visible action (latency-probe marker)
    EnterGame,
    ExitGame,
    Mute,
    Unmute,
    Wander,        // a != 0 -> on
  };

  Duration at;  // relative to playback start
  Kind kind{Kind::Launch};
  double x{0};
  double y{0};
  int a{0};
};

/// A reusable input script.
class DriverScript {
 public:
  DriverScript& launch(Duration at);
  DriverScript& join(Duration at);
  DriverScript& leave(Duration at);
  DriverScript& walkTo(Duration at, double x, double y);
  DriverScript& teleportTo(Duration at, double x, double y);
  DriverScript& snapTurn(Duration at, int steps);
  DriverScript& faceTowards(Duration at, double x, double y);
  DriverScript& clearFace(Duration at);
  DriverScript& act(Duration at);
  DriverScript& enterGame(Duration at);
  DriverScript& exitGame(Duration at);
  DriverScript& mute(Duration at, bool muted);
  DriverScript& wander(Duration at, bool on);

  /// Parses the line format emitted by toText(): one step per line,
  ///   <seconds> <verb> [args...]
  /// e.g. "0 launch", "5 join", "12.5 walk 3 -2", "250 turn 8", "30 act".
  /// Unknown verbs or malformed lines throw std::invalid_argument.
  [[nodiscard]] static DriverScript parse(const std::string& text);
  [[nodiscard]] std::string toText() const;

  [[nodiscard]] const std::vector<DriverStep>& steps() const { return steps_; }
  [[nodiscard]] bool empty() const { return steps_.empty(); }

  /// The paper's standard workloads, scripted:
  /// two users chatting (§5.1) …
  [[nodiscard]] static DriverScript chatWorkload(Duration joinAt, double peerX,
                                                 double peerY);
  /// … and the Fig. 6 joiner (enter at `joinAt`, face the centre).
  [[nodiscard]] static DriverScript fig6Joiner(Duration joinAt);

 private:
  DriverScript& add(Duration at, DriverStep::Kind kind, double x = 0,
                    double y = 0, int a = 0);
  std::vector<DriverStep> steps_;
};

/// Plays a script against one user; each Act step draws a fresh action id
/// from the testbed so latency tooling can track it.
class AutoDriver {
 public:
  AutoDriver(Testbed& bed, TestUser& user) : bed_{bed}, user_{user} {}

  /// Schedules every step; returns the time of the last one.
  TimePoint play(const DriverScript& script,
                 TimePoint startAt = TimePoint::epoch());

  /// Action ids issued by Act steps, in order.
  [[nodiscard]] const std::vector<std::uint64_t>& actionsPerformed() const {
    return actions_;
  }

 private:
  void apply(const DriverStep& step);

  Testbed& bed_;
  TestUser& user_;
  std::vector<std::uint64_t> actions_;
};

}  // namespace msim
