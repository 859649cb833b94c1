#include "trace.hpp"

#include <cstdio>
#include <map>

namespace metabench {

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_{tracer} {
  if (!tracer_.enabled_) return;
  Record r;
  r.name = name;
  r.trace = tracer_.trace_;
  r.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  r.startUs = tracer_.nowUs();
  index_ = static_cast<int>(tracer_.records_.size());
  tracer_.records_.push_back(std::move(r));
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.records_[static_cast<std::size_t>(index_)].endUs = tracer_.nowUs();
  // Spans close innermost-first (RAII), so this one is on top of the stack.
  tracer_.open_.pop_back();
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::vector<double> Tracer::selfUs() const {
  // Children of one parent never overlap (they close before the next one
  // opens), so the covered part is the sum of their durations.
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].endUs - records_[i].startUs;
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.endUs - r.startUs;
    }
  }
  return self;
}

double Tracer::medianSelfMs(std::string_view name) const {
  const std::vector<double> self = selfUs();
  std::map<int, double> perTrace;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) perTrace[records_[i].trace] += self[i] / 1e3;
  }
  std::vector<double> values;
  values.reserve(perTrace.size());
  for (const auto& [trace, ms] : perTrace) values.push_back(ms);
  return median(std::move(values));
}

bool Tracer::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = selfUs();
  std::fprintf(f, "{\"unit\": \"us\", \"spans\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"trace\": %d, \"name\": \"%s\", "
                 "\"parent\": %d, \"start\": %.3f, \"end\": %.3f, "
                 "\"self\": %.3f}%s\n",
                 i, r.trace, r.name.c_str(), r.parent, r.startUs, r.endUs,
                 self[i], i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace metabench
