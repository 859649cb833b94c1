#pragma once
// In-memory spans around the benchmark's calls into the simulator's layer
// APIs. A span records name, start, end and the span that was open when it
// began (its parent); spans of one repetition share a trace id. Nothing is
// written until the benchmark ends. When tracing is off, a span costs one
// branch.

#include <string>
#include <string_view>
#include <vector>

#include "host.hpp"

namespace metabench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {}

  /// Spans opened from now on belong to trace `id` (one per repetition).
  void setTrace(int id) { trace_ = id; }

  /// RAII span: open from construction to scope exit.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_{-1};
  };

  /// Self time of every span called `name`, summed per trace, median over
  /// the traces that have one; 0 when none does.
  [[nodiscard]] double medianSelfMs(std::string_view name) const;
  /// Writes every span as JSON; false on an I/O error.
  bool writeJson(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int trace{0};
    int parent{-1};  // index of the parent record, -1 for a root
    double startUs{0.0};
    double endUs{0.0};
  };

  [[nodiscard]] double nowUs() const;
  /// Per record: its duration minus the part its direct children cover.
  [[nodiscard]] std::vector<double> selfUs() const;

  bool enabled_;
  int trace_{0};
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace metabench
