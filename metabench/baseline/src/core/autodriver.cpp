#include "core/autodriver.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace msim {

// ------------------------------------------------------------- DriverScript

DriverScript& DriverScript::add(Duration at, DriverStep::Kind kind, double x,
                                double y, int a) {
  steps_.push_back(DriverStep{at, kind, x, y, a});
  std::stable_sort(steps_.begin(), steps_.end(),
                   [](const DriverStep& l, const DriverStep& r) {
                     return l.at < r.at;
                   });
  return *this;
}

DriverScript& DriverScript::launch(Duration at) {
  return add(at, DriverStep::Kind::Launch);
}
DriverScript& DriverScript::join(Duration at) {
  return add(at, DriverStep::Kind::JoinEvent);
}
DriverScript& DriverScript::leave(Duration at) {
  return add(at, DriverStep::Kind::LeaveEvent);
}
DriverScript& DriverScript::walkTo(Duration at, double x, double y) {
  return add(at, DriverStep::Kind::WalkTo, x, y);
}
DriverScript& DriverScript::teleportTo(Duration at, double x, double y) {
  return add(at, DriverStep::Kind::TeleportTo, x, y);
}
DriverScript& DriverScript::snapTurn(Duration at, int steps) {
  return add(at, DriverStep::Kind::SnapTurn, 0, 0, steps);
}
DriverScript& DriverScript::faceTowards(Duration at, double x, double y) {
  return add(at, DriverStep::Kind::FaceTowards, x, y);
}
DriverScript& DriverScript::clearFace(Duration at) {
  return add(at, DriverStep::Kind::ClearFace);
}
DriverScript& DriverScript::act(Duration at) {
  return add(at, DriverStep::Kind::Act);
}
DriverScript& DriverScript::enterGame(Duration at) {
  return add(at, DriverStep::Kind::EnterGame);
}
DriverScript& DriverScript::exitGame(Duration at) {
  return add(at, DriverStep::Kind::ExitGame);
}
DriverScript& DriverScript::mute(Duration at, bool muted) {
  return add(at, muted ? DriverStep::Kind::Mute : DriverStep::Kind::Unmute);
}
DriverScript& DriverScript::wander(Duration at, bool on) {
  return add(at, DriverStep::Kind::Wander, 0, 0, on ? 1 : 0);
}

namespace {
struct VerbInfo {
  const char* verb;
  DriverStep::Kind kind;
  int args;  // numeric args after the verb
};
constexpr VerbInfo kVerbs[] = {
    {"launch", DriverStep::Kind::Launch, 0},
    {"join", DriverStep::Kind::JoinEvent, 0},
    {"leave", DriverStep::Kind::LeaveEvent, 0},
    {"walk", DriverStep::Kind::WalkTo, 2},
    {"teleport", DriverStep::Kind::TeleportTo, 2},
    {"turn", DriverStep::Kind::SnapTurn, 1},
    {"face", DriverStep::Kind::FaceTowards, 2},
    {"clearface", DriverStep::Kind::ClearFace, 0},
    {"act", DriverStep::Kind::Act, 0},
    {"game", DriverStep::Kind::EnterGame, 0},
    {"endgame", DriverStep::Kind::ExitGame, 0},
    {"mute", DriverStep::Kind::Mute, 0},
    {"unmute", DriverStep::Kind::Unmute, 0},
    {"wander", DriverStep::Kind::Wander, 1},
};
}  // namespace

DriverScript DriverScript::parse(const std::string& text) {
  DriverScript script;
  std::istringstream in{text};
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments and whitespace-only lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls{line};
    double seconds = 0;
    std::string verb;
    if (!(ls >> seconds)) {
      if (ls.eof() || line.find_first_not_of(" \t\r") == std::string::npos) {
        continue;  // blank
      }
      throw std::invalid_argument("AutoDriver script line " +
                                  std::to_string(lineNo) + ": expected time");
    }
    if (!(ls >> verb)) {
      throw std::invalid_argument("AutoDriver script line " +
                                  std::to_string(lineNo) + ": expected verb");
    }
    const VerbInfo* info = nullptr;
    for (const auto& v : kVerbs) {
      if (verb == v.verb) info = &v;
    }
    if (info == nullptr) {
      throw std::invalid_argument("AutoDriver script line " +
                                  std::to_string(lineNo) + ": unknown verb '" +
                                  verb + "'");
    }
    double args[2] = {0, 0};
    for (int i = 0; i < info->args; ++i) {
      if (!(ls >> args[i])) {
        throw std::invalid_argument("AutoDriver script line " +
                                    std::to_string(lineNo) + ": '" + verb +
                                    "' needs " + std::to_string(info->args) +
                                    " argument(s)");
      }
    }
    DriverStep step;
    step.at = Duration::seconds(seconds);
    step.kind = info->kind;
    if (info->kind == DriverStep::Kind::SnapTurn ||
        info->kind == DriverStep::Kind::Wander) {
      step.a = static_cast<int>(args[0]);
    } else {
      step.x = args[0];
      step.y = args[1];
    }
    script.steps_.push_back(step);
  }
  std::stable_sort(script.steps_.begin(), script.steps_.end(),
                   [](const DriverStep& l, const DriverStep& r) {
                     return l.at < r.at;
                   });
  return script;
}

std::string DriverScript::toText() const {
  std::ostringstream out;
  for (const DriverStep& s : steps_) {
    char buf[96];
    const double t = s.at.toSeconds();
    switch (s.kind) {
      case DriverStep::Kind::Launch: std::snprintf(buf, sizeof buf, "%g launch", t); break;
      case DriverStep::Kind::JoinEvent: std::snprintf(buf, sizeof buf, "%g join", t); break;
      case DriverStep::Kind::LeaveEvent: std::snprintf(buf, sizeof buf, "%g leave", t); break;
      case DriverStep::Kind::WalkTo:
        std::snprintf(buf, sizeof buf, "%g walk %g %g", t, s.x, s.y);
        break;
      case DriverStep::Kind::TeleportTo:
        std::snprintf(buf, sizeof buf, "%g teleport %g %g", t, s.x, s.y);
        break;
      case DriverStep::Kind::SnapTurn:
        std::snprintf(buf, sizeof buf, "%g turn %d", t, s.a);
        break;
      case DriverStep::Kind::FaceTowards:
        std::snprintf(buf, sizeof buf, "%g face %g %g", t, s.x, s.y);
        break;
      case DriverStep::Kind::ClearFace: std::snprintf(buf, sizeof buf, "%g clearface", t); break;
      case DriverStep::Kind::Act: std::snprintf(buf, sizeof buf, "%g act", t); break;
      case DriverStep::Kind::EnterGame: std::snprintf(buf, sizeof buf, "%g game", t); break;
      case DriverStep::Kind::ExitGame: std::snprintf(buf, sizeof buf, "%g endgame", t); break;
      case DriverStep::Kind::Mute: std::snprintf(buf, sizeof buf, "%g mute", t); break;
      case DriverStep::Kind::Unmute: std::snprintf(buf, sizeof buf, "%g unmute", t); break;
      case DriverStep::Kind::Wander:
        std::snprintf(buf, sizeof buf, "%g wander %d", t, s.a);
        break;
    }
    out << buf << '\n';
  }
  return out.str();
}

DriverScript DriverScript::chatWorkload(Duration joinAt, double peerX,
                                        double peerY) {
  DriverScript s;
  s.launch(Duration::zero());
  s.join(joinAt);
  s.wander(joinAt, false);
  s.faceTowards(joinAt + Duration::millis(100), peerX, peerY);
  return s;
}

DriverScript DriverScript::fig6Joiner(Duration joinAt) {
  DriverScript s;
  s.launch(Duration::zero());
  s.join(joinAt);
  s.faceTowards(joinAt + Duration::millis(100), 0.0, 0.0);
  return s;
}

// --------------------------------------------------------------- AutoDriver

TimePoint AutoDriver::play(const DriverScript& script, TimePoint startAt) {
  TimePoint last = startAt;
  for (const DriverStep& step : script.steps()) {
    const TimePoint at = startAt + step.at;
    last = std::max(last, at);
    bed_.sim().schedule(at, [this, step] { apply(step); });
  }
  return last;
}

void AutoDriver::apply(const DriverStep& step) {
  PlatformClient& client = *user_.client;
  switch (step.kind) {
    case DriverStep::Kind::Launch: client.launch(); return;
    case DriverStep::Kind::JoinEvent: client.joinEvent(); return;
    case DriverStep::Kind::LeaveEvent: client.leaveEvent(); return;
    case DriverStep::Kind::WalkTo: client.motion().walkTo(step.x, step.y); return;
    case DriverStep::Kind::TeleportTo:
      client.motion().teleportTo(step.x, step.y);
      return;
    case DriverStep::Kind::SnapTurn: client.motion().turnSteps(step.a); return;
    case DriverStep::Kind::FaceTowards: client.setFaceTarget(step.x, step.y); return;
    case DriverStep::Kind::ClearFace: client.clearFaceTarget(); return;
    case DriverStep::Kind::Act: {
      const std::uint64_t id = bed_.nextActionId();
      actions_.push_back(id);
      client.performVisibleAction(id);
      return;
    }
    case DriverStep::Kind::EnterGame: client.enterGameMode(); return;
    case DriverStep::Kind::ExitGame: client.exitGameMode(); return;
    case DriverStep::Kind::Mute: client.setMuted(true); return;
    case DriverStep::Kind::Unmute: client.setMuted(false); return;
    case DriverStep::Kind::Wander: client.setWandering(step.a != 0); return;
  }
}

}  // namespace msim
