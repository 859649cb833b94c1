#pragma once

// Interned message-kind symbols.
//
// Every packet used to carry its app semantic as a std::string, so each
// Message copy allocated and each dispatch compared bytes. Kinds come from
// a tiny fixed vocabulary ("avatar:pose", "relay:join", HTTP paths...), so
// we intern them once into a process-wide table and pass around a pointer:
// copies are trivial, equality is a pointer compare, and the original text
// stays reachable for reports and traces.
//
// The table is append-only and mutex-protected: seed-sweep worker threads
// intern concurrently, but the hot paths (copy/compare/hash) never touch
// the table or the lock.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace msim {

class MsgKind {
 public:
  /// The empty kind ("" — a message with no app tag).
  constexpr MsgKind() = default;

  // Implicit by design: `m.kind = "relay:join"` and comparisons against
  // literals must keep working across the codebase.
  MsgKind(std::string_view s) : text_{intern(s)} {}          // NOLINT
  MsgKind(const char* s) : text_{intern(s)} {}               // NOLINT
  MsgKind(const std::string& s)                              // NOLINT
      : text_{intern(std::string_view{s})} {}

  [[nodiscard]] std::string_view view() const {
    return text_ != nullptr ? std::string_view{*text_} : std::string_view{};
  }
  [[nodiscard]] const char* c_str() const {
    return text_ != nullptr ? text_->c_str() : "";
  }
  [[nodiscard]] std::string str() const { return std::string{view()}; }
  [[nodiscard]] bool empty() const { return text_ == nullptr || text_->empty(); }

  /// O(1): two MsgKinds with equal text always share one interned string.
  friend bool operator==(MsgKind a, MsgKind b) { return a.text_ == b.text_; }
  friend bool operator!=(MsgKind a, MsgKind b) { return a.text_ != b.text_; }
  // Mixed comparisons (tests, ad-hoc kinds) fall back to a byte compare
  // without interning the right-hand side.
  friend bool operator==(MsgKind a, std::string_view b) { return a.view() == b; }
  friend bool operator!=(MsgKind a, std::string_view b) { return a.view() != b; }

  [[nodiscard]] bool startsWith(std::string_view prefix) const {
    return view().substr(0, prefix.size()) == prefix;
  }

  /// Pointer identity hash — stable for the process lifetime.
  [[nodiscard]] std::size_t hash() const {
    return std::hash<const void*>{}(text_);
  }

 private:
  static const std::string* intern(std::string_view s);

  const std::string* text_{nullptr};
};

}  // namespace msim

template <>
struct std::hash<msim::MsgKind> {
  std::size_t operator()(msim::MsgKind k) const noexcept { return k.hash(); }
};
