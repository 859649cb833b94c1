#include "util/intern.hpp"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace msim {

namespace {

struct InternTable {
  // detlint:allow(thread-order) guards a dedup table whose contents are order-independent (pointers compared by text, never iterated), so lock order can't reach simulation state
  std::mutex mu;
  // Owned strings live in a deque so their addresses are stable; the map
  // keys view into them.
  std::deque<std::string> storage;
  // detlint:allow(unordered-iter) lookup-only dedup table behind a mutex; it
  // is never iterated, so its order can't leak into simulation behaviour.
  std::unordered_map<std::string_view, const std::string*> byText;
};

// Meyers singleton: safe to use from static initializers of the inline
// MsgKind constants in any translation unit.
InternTable& table() {
  static InternTable t;
  return t;
}

}  // namespace

const std::string* MsgKind::intern(std::string_view s) {
  if (s.empty()) return nullptr;
  InternTable& t = table();
  // detlint:allow(thread-order) same table guard: interning is idempotent, the winner of a racing insert is textually identical
  std::lock_guard<std::mutex> lock{t.mu};
  const auto it = t.byText.find(s);
  if (it != t.byText.end()) return it->second;
  const std::string& owned = t.storage.emplace_back(s);
  t.byText.emplace(std::string_view{owned}, &owned);
  return &owned;
}

}  // namespace msim
