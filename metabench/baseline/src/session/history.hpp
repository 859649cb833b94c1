#pragma once

// Channel pub/sub with bounded server-side recovery history.
//
// Every published message carries a per-channel sequence number and is
// retained in a fixed-size history ring. A session that reconnects resumes
// each subscription with the last sequence it saw; if the gap still fits in
// the ring the broker replays exactly the missed suffix (in order, once),
// otherwise the client falls back to a full-state rejoin. This is the
// Centrifugo recovery model, and it is what turns a shard crash into a
// bounded replay burst instead of a full re-download per client (the §5.2
// per-join background transfer the paper measured is exactly the cost the
// recovery path avoids).
//
// Determinism: subscriber lists are kept sorted by dense session id, so
// publish fan-out order is a pure function of subscription history — never
// of pointer values — and audit digests stay byte-identical across
// MSIM_THREADS (DESIGN.md §9).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flatmap.hpp"

namespace msim::session {

/// One published channel message: a sequence stamp plus an opaque payload
/// identity (the simulation notes payload tags into the audit chain rather
/// than carrying bodies).
struct ChannelMessage {
  std::uint64_t seq{0};
  std::uint64_t payload{0};
  std::uint32_t bytes{0};
};

/// Fixed-capacity ring of the most recent messages on one channel.
class HistoryRing {
 public:
  explicit HistoryRing(std::size_t capacity) : capacity_{capacity} {}

  void push(const ChannelMessage& m) {
    if (capacity_ == 0) return;
    if (buf_.size() < capacity_) {
      // detlint:allow(hotpath-alloc) the ring fills once to its fixed
      // capacity, then every later push overwrites in place.
      buf_.push_back(m);
    } else {
      buf_[head_] = m;
      head_ = (head_ + 1) % capacity_;
    }
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Sequence of the oldest retained message (meaningless when empty).
  [[nodiscard]] std::uint64_t oldestSeq() const {
    return buf_.empty() ? 0 : buf_[buf_.size() < capacity_ ? 0 : head_].seq;
  }

  /// True when every message after `lastSeq` is still retained, i.e. a
  /// session that saw `lastSeq` can be caught up by replay alone.
  [[nodiscard]] bool canRecoverFrom(std::uint64_t lastSeq) const {
    return !buf_.empty() && oldestSeq() <= lastSeq + 1;
  }

  /// Visits retained messages with seq > lastSeq, oldest first.
  template <typename Fn>
  void replaySince(std::uint64_t lastSeq, Fn&& fn) const {
    const bool wrapped = buf_.size() == capacity_;
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      const ChannelMessage& m =
          buf_[wrapped ? (head_ + i) % capacity_ : i];
      if (m.seq > lastSeq) fn(m);
    }
  }

 private:
  std::size_t capacity_;
  std::vector<ChannelMessage> buf_;
  std::size_t head_{0};  // oldest entry once the ring has wrapped
};

/// Server-side channel table: sequence allocation, history retention, and
/// subscriber fan-out. Sessions are identified by their dense hub id.
class ChannelBroker {
 public:
  explicit ChannelBroker(std::size_t historyWindow) : window_{historyWindow} {}

  struct ResumeResult {
    bool recovered{false};       // false = gap outran the ring: full rejoin
    std::uint64_t headSeq{0};    // channel head at resume time
    std::uint32_t replayed{0};   // messages delivered by replay
  };

  /// Adds `sessionId` to the channel (created on first use) and returns the
  /// channel's current head sequence — the subscriber's starting cursor.
  std::uint64_t subscribe(std::uint64_t channelId, std::uint32_t sessionId) {
    Channel& ch = channelFor(channelId);
    const auto it = std::lower_bound(ch.subs.begin(), ch.subs.end(), sessionId);
    if (it == ch.subs.end() || *it != sessionId) ch.subs.insert(it, sessionId);
    return ch.seq;
  }

  void unsubscribe(std::uint64_t channelId, std::uint32_t sessionId) {
    if (const std::uint32_t* idx = index_.find(channelId)) {
      auto& subs = channels_[*idx].subs;
      const auto it = std::lower_bound(subs.begin(), subs.end(), sessionId);
      if (it != subs.end() && *it == sessionId) subs.erase(it);
    }
  }

  /// Drops `sessionId` from every channel (terminal session close; a mere
  /// disconnect keeps subscriptions so the resume path has them).
  void unsubscribeAll(std::uint32_t sessionId) {
    for (Channel& ch : channels_) {
      const auto it = std::lower_bound(ch.subs.begin(), ch.subs.end(), sessionId);
      if (it != ch.subs.end() && *it == sessionId) ch.subs.erase(it);
    }
  }

  /// Stamps the next sequence, retains the message, and calls
  /// `deliver(sessionId, msg)` for each subscriber in id order. Returns the
  /// assigned sequence.
  template <typename Fn>
  std::uint64_t publish(std::uint64_t channelId, std::uint64_t payload,
                        std::uint32_t bytes, Fn&& deliver) {
    Channel& ch = channelFor(channelId);
    const ChannelMessage m{++ch.seq, payload, bytes};
    ch.ring.push(m);
    for (const std::uint32_t sid : ch.subs) deliver(sid, m);
    return m.seq;
  }

  /// Resume after a reconnect: re-registers the subscriber and, when the
  /// missed suffix still fits the ring, replays it oldest-first through
  /// `deliver(sessionId, msg)`. recovered=false means the session must do a
  /// full-state rejoin (its cursor then restarts at headSeq).
  template <typename Fn>
  ResumeResult resume(std::uint64_t channelId, std::uint32_t sessionId,
                      std::uint64_t lastSeq, Fn&& deliver) {
    Channel& ch = channelFor(channelId);
    const auto it = std::lower_bound(ch.subs.begin(), ch.subs.end(), sessionId);
    if (it == ch.subs.end() || *it != sessionId) ch.subs.insert(it, sessionId);
    ResumeResult r;
    r.headSeq = ch.seq;
    if (lastSeq >= ch.seq) {  // nothing missed
      r.recovered = true;
      return r;
    }
    if (!ch.ring.canRecoverFrom(lastSeq)) return r;
    ch.ring.replaySince(lastSeq, [&](const ChannelMessage& m) {
      deliver(sessionId, m);
      ++r.replayed;
    });
    r.recovered = true;
    return r;
  }

  [[nodiscard]] std::uint64_t headSeq(std::uint64_t channelId) const {
    const std::uint32_t* idx = index_.find(channelId);
    return idx != nullptr ? channels_[*idx].seq : 0;
  }
  [[nodiscard]] std::size_t subscriberCount(std::uint64_t channelId) const {
    const std::uint32_t* idx = index_.find(channelId);
    return idx != nullptr ? channels_[*idx].subs.size() : 0;
  }
  [[nodiscard]] std::size_t channelCount() const { return channels_.size(); }
  [[nodiscard]] std::size_t historyWindow() const { return window_; }

 private:
  struct Channel {
    std::uint64_t id{0};
    std::uint64_t seq{0};
    HistoryRing ring;
    std::vector<std::uint32_t> subs;  // dense session ids, ascending
    explicit Channel(std::size_t window) : ring{window} {}
  };

  Channel& channelFor(std::uint64_t channelId) {
    if (const std::uint32_t* idx = index_.find(channelId)) {
      return channels_[*idx];
    }
    index_.insert(channelId, static_cast<std::uint32_t>(channels_.size()));
    // detlint:allow(hotpath-alloc) first publish on a new channel creates it;
    // every steady-state publish hits the index lookup above instead.
    channels_.emplace_back(window_);
    channels_.back().id = channelId;
    return channels_.back();
  }

  std::size_t window_;
  FlatMap64<std::uint32_t> index_;  // channelId -> dense index
  std::vector<Channel> channels_;
};

}  // namespace msim::session
