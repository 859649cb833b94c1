#include "transport/tcp.hpp"

#include <algorithm>
#include <utility>

namespace msim {

const char* toString(TcpState s) {
  switch (s) {
    case TcpState::Closed: return "CLOSED";
    case TcpState::SynSent: return "SYN_SENT";
    case TcpState::SynReceived: return "SYN_RCVD";
    case TcpState::Established: return "ESTABLISHED";
    case TcpState::FinWait: return "FIN_WAIT";
    case TcpState::CloseWait: return "CLOSE_WAIT";
    case TcpState::Closing: return "CLOSING";
  }
  return "?";
}

// ----------------------------------------------------------------- lifecycle

std::shared_ptr<TcpSocket> TcpSocket::create(Node& node, TcpConfig cfg) {
  return std::shared_ptr<TcpSocket>(new TcpSocket(node, cfg));
}

TcpSocket::TcpSocket(Node& node, TcpConfig cfg)
    : mux_{TransportMux::of(node)}, cfg_{cfg} {
  // Serial is a per-simulation map key, never user-visible: allocate it from
  // the owning Simulator so independent sims don't share a global counter.
  serial_ = mux_.node().sim().nextId();
  cwnd_ = cfg_.initialCwndSegments * cfg_.mss;
}

TcpSocket::~TcpSocket() {
  cancelRto();
  mux_.node().sim().cancel(delayedAckTimer_);
  unregisterKey();
}

void TcpSocket::registerKey() {
  if (!keyRegistered_) {
    mux_.bindTcpConnection(key_, *this);
    keyRegistered_ = true;
  }
}

void TcpSocket::unregisterKey() {
  if (keyRegistered_) {
    mux_.unbindTcpConnection(key_);
    keyRegistered_ = false;
  }
}

void TcpSocket::toState(TcpState s) {
  state_ = s;
  if (state_ == TcpState::Closed) notifyReleased();
}

void TcpSocket::notifyReleased() {
  if (!onRelease_) return;
  auto handler = std::move(onRelease_);
  onRelease_ = nullptr;
  const std::uint64_t serial = serial_;
  // Deferred so a registry erase cannot destroy us mid-member-function.
  mux_.node().sim().scheduleAfter(Duration::zero(),
                                  [handler, serial] { handler(serial); });
}

void TcpSocket::connect(const Endpoint& remote, ConnectHandler onConnect) {
  remote_ = remote;
  onConnect_ = std::move(onConnect);
  key_ = TcpConnKey{mux_.allocEphemeralPort(), remote_};
  registerKey();
  toState(TcpState::SynSent);
  sendSegment(0, 0, /*syn=*/true, /*fin=*/false);
  armRto();
}

void TcpSocket::acceptFrom(const Packet& syn, std::uint16_t localPort) {
  remote_ = Endpoint{syn.src, syn.srcPort};
  localAddr_ = syn.dst;  // reply from the address the client targeted
  key_ = TcpConnKey{localPort, remote_};
  registerKey();
  toState(TcpState::SynReceived);
  sendSegment(0, 0, /*syn=*/true, /*fin=*/false, /*forceAck=*/true);
  armRto();
}

void TcpSocket::failConnect() {
  auto self = shared_from_this();
  unregisterKey();
  toState(TcpState::Closed);
  if (onConnect_) {
    auto cb = std::move(onConnect_);
    onConnect_ = nullptr;
    cb(false);
  }
}

void TcpSocket::close() {
  if (state_ == TcpState::Closed || finQueued_) return;
  finQueued_ = true;
  trySendData();
}

void TcpSocket::abort() {
  if (state_ == TcpState::Closed) return;
  sendRst(remote_, key_.localPort);
  unregisterKey();
  toState(TcpState::Closed);
  cancelRto();
  if (onClose_) onClose_();
}

std::int64_t TcpSocket::unackedBytes() const {
  return static_cast<std::int64_t>(sndEnd_ - sndUna_);
}

Duration TcpSocket::ackStallAge() const {
  if (!hasUnackedData() && !(finSent_ && !finAcked_)) return Duration::zero();
  return mux_.node().sim().now() - lastAckProgress_;
}

// ------------------------------------------------------------------ sending

void TcpSocket::send(Message message) {
  if (finQueued_ || state_ == TcpState::Closed) return;
  if (!hasUnackedData()) lastAckProgress_ = mux_.node().sim().now();
  if (message.size < ByteSize::bytes(1)) message.size = ByteSize::bytes(1);
  sndEnd_ += static_cast<std::uint64_t>(message.size.toBytes());
  // detlint:allow(hotpath-alloc) in-flight stream bookkeeping (deque bounded
  // by the send window, drained on ack): the TCP model's per-message work is
  // the simulated machine's, outside the relay fan-out's zero-alloc gate.
  outMessages_.push_back(OutMessage{std::move(message), sndEnd_});
  trySendData();
}

void TcpSocket::trySendData() {
  if (state_ != TcpState::Established && state_ != TcpState::CloseWait) return;
  const std::uint64_t window = std::min<std::uint64_t>(cwnd_, cfg_.receiveWindow);
  while (sndNxt_ < sndEnd_ && (sndNxt_ - sndUna_) < window) {
    const std::uint64_t room = window - (sndNxt_ - sndUna_);
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({cfg_.mss, sndEnd_ - sndNxt_, room}));
    if (len == 0) break;
    sendSegment(sndNxt_, len, false, false);
    if (!rttProbe_.has_value()) {
      rttProbe_ = {sndNxt_ + len, mux_.node().sim().now()};
    }
    sndNxt_ += len;
    armRto();
  }
  if (finQueued_ && !finSent_ && sndNxt_ == sndEnd_) {
    finSent_ = true;
    sendSegment(sndEnd_, 0, false, /*fin=*/true);
    toState(state_ == TcpState::CloseWait ? TcpState::Closing : TcpState::FinWait);
    armRto();
  }
}

void TcpSocket::sendSegment(std::uint64_t seq, std::uint32_t len, bool syn,
                            bool fin, bool forceAck) {
  Packet p;
  p.src = localAddr_;  // unspecified -> the node's primary address
  p.dst = remote_.addr;
  p.dstPort = remote_.port;
  p.srcPort = key_.localPort;
  p.proto = IpProto::Tcp;
  p.overheadBytes = static_cast<std::uint16_t>(
      wire::kEthIpTcp + (len > 0 ? cfg_.extraPerSegmentOverhead : 0));
  p.payloadBytes = ByteSize::bytes(len);
  TcpHeader h;
  h.seq = seq;
  h.syn = syn;
  h.fin = fin;
  h.ackFlag = forceAck || state_ != TcpState::SynSent;
  h.ack = rcvNxt_;
  h.window = cfg_.receiveWindow;
  p.l4 = h;
  // Attach descriptors of app messages whose final byte lies in this segment
  // (so the receiving socket can deliver them at the right stream offset).
  if (len > 0) {
    for (const auto& om : outMessages_) {
      if (om.endOffset > seq + len) break;
      if (om.endOffset > seq) {
        // detlint:allow(hotpath-alloc) per-segment app-message descriptor —
        // the modeled wire carries its own copy so retransmits stay faithful.
        auto copy = std::make_shared<Message>(om.msg);
        copy->streamEndOffset = om.endOffset;
        // detlint:allow(hotpath-alloc) attaching that descriptor to the
        // packet; the vector lives only for the segment's wire flight.
        p.messages.push_back(std::move(copy));
      }
    }
  }
  mux_.node().sendFromLocal(std::move(p));
}

void TcpSocket::sendBareAck() {
  segsSinceAck_ = 0;
  delayedAckArmed_ = false;
  mux_.node().sim().cancel(delayedAckTimer_);
  sendSegment(sndNxt_, 0, false, false, /*forceAck=*/true);
}

void TcpSocket::sendRst(const Endpoint& to, std::uint16_t fromPort) {
  Packet p;
  p.dst = to.addr;
  p.dstPort = to.port;
  p.srcPort = fromPort;
  p.proto = IpProto::Tcp;
  p.overheadBytes = wire::kEthIpTcp;
  TcpHeader h;
  h.rst = true;
  h.ackFlag = true;
  h.ack = rcvNxt_;
  p.l4 = h;
  mux_.node().sendFromLocal(std::move(p));
}

// ---------------------------------------------------------------- receiving

void TcpSocket::deliverSegment(const Packet& p) {
  const TcpHeader* h = p.tcp();
  if (h == nullptr) return;
  auto self = shared_from_this();  // keep alive through callbacks

  if (h->rst) {
    unregisterKey();
    toState(TcpState::Closed);
    cancelRto();
    if (onConnect_) {
      auto cb = std::move(onConnect_);
      onConnect_ = nullptr;
      cb(false);
    } else if (onClose_) {
      onClose_();
    }
    return;
  }

  switch (state_) {
    case TcpState::SynSent:
      if (h->syn && h->ackFlag) {
        toState(TcpState::Established);
        backoff_ = 0;
        cancelRto();
        sendBareAck();
        if (onConnect_) {
          auto cb = std::move(onConnect_);
          onConnect_ = nullptr;
          cb(true);
        }
        trySendData();
      }
      return;
    case TcpState::SynReceived:
      if (h->syn && !h->ackFlag) {
        // Retransmitted SYN from the peer: answer again.
        sendSegment(0, 0, true, false, true);
        return;
      }
      if (h->ackFlag) {
        toState(TcpState::Established);
        backoff_ = 0;
        cancelRto();
        if (onConnect_) {
          auto cb = std::move(onConnect_);
          onConnect_ = nullptr;
          cb(true);
        }
        // Fall through to normal processing: the ACK may carry data.
        handleEstablishedSegment(p, *h);
      }
      return;
    case TcpState::Established:
    case TcpState::FinWait:
    case TcpState::CloseWait:
    case TcpState::Closing:
      handleEstablishedSegment(p, *h);
      return;
    case TcpState::Closed:
      if (!h->rst) sendRst(Endpoint{p.src, p.srcPort}, p.dstPort);
      return;
  }
}

void TcpSocket::handleEstablishedSegment(const Packet& p, const TcpHeader& h) {
  const auto len = static_cast<std::uint32_t>(p.payloadBytes.toBytes());
  // Only a pure ACK (no data, no FIN) may count as a duplicate ACK; data
  // segments naturally repeat the peer's latest ack value (RFC 5681 §2).
  if (h.ackFlag) processAck(h.ack, /*pureAck=*/len == 0 && !h.fin && !h.syn);
  if (len > 0) {
    // Register completed-message descriptors at their exact stream offsets
    // (the sender stamped streamEndOffset when attaching them). Offsets at
    // or below rcvNxt_ were already delivered — a retransmitted segment must
    // not deliver its messages twice.
    for (const auto& m : p.messages) {
      if (m->streamEndOffset > rcvNxt_) inMessages_[m->streamEndOffset] = *m;
    }
    acceptPayload(h.seq, len);
  }

  if (h.fin) {
    if (h.seq == rcvNxt_ && !finReceived_) {
      rcvNxt_ += 1;  // FIN consumes one sequence unit
      finReceived_ = true;
      sendBareAck();
      if (state_ == TcpState::Established) toState(TcpState::CloseWait);
      if (onClose_ && !closeNotified_) {
        closeNotified_ = true;
        onClose_();
      }
      maybeFinishClose();
    } else if (h.seq < rcvNxt_) {
      sendBareAck();  // duplicate FIN
    }
    // A FIN ahead of a hole is ignored; the peer retransmits it.
  }
}

void TcpSocket::processAck(std::uint64_t ackSeq, bool pureAck) {
  const std::uint64_t finOffset = finSent_ ? sndEnd_ + 1 : sndEnd_;
  if (ackSeq > finOffset) ackSeq = finOffset;

  if (ackSeq > sndUna_) {
    const std::uint64_t newlyAcked = ackSeq - sndUna_;
    sndUna_ = ackSeq;
    lastAckProgress_ = mux_.node().sim().now();
    // A late ACK for data sent before a go-back-N reset can overtake
    // sndNxt_; the send window arithmetic requires sndUna_ <= sndNxt_.
    if (sndNxt_ < sndUna_) sndNxt_ = sndUna_;
    dupAcks_ = 0;
    backoff_ = 0;
    dataRetries_ = 0;

    if (rttProbe_ && sndUna_ >= rttProbe_->first) {
      onRttSample(mux_.node().sim().now() - rttProbe_->second);
      rttProbe_.reset();
    }

    if (inFastRecovery_) {
      if (sndUna_ >= recoverPoint_) {
        inFastRecovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK (NewReno-style): retransmit the next hole immediately.
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cfg_.mss, sndEnd_ - sndUna_));
        if (len > 0) {
          sendSegment(sndUna_, len, false, false);
          ++retransmits_;
        }
      }
    } else {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<std::uint32_t>(
            std::min<std::uint64_t>(newlyAcked, cfg_.mss));
      } else {
        cwnd_ += std::max<std::uint32_t>(1, cfg_.mss * cfg_.mss / cwnd_);
      }
    }

    // Notify delivered messages.
    while (!outMessages_.empty() && outMessages_.front().endOffset <= sndUna_) {
      if (onDelivered_) onDelivered_(outMessages_.front().msg);
      outMessages_.pop_front();
    }

    if (finSent_ && ackSeq == sndEnd_ + 1) {
      finAcked_ = true;
      maybeFinishClose();
    }

    // Restart (not merely keep) the RTO after forward progress.
    cancelRto();
    if (sndUna_ < sndNxt_ || (finSent_ && !finAcked_)) armRto();
    trySendData();
  } else if (pureAck && ackSeq == sndUna_ && sndNxt_ > sndUna_) {
    ++dupAcks_;
    if (inFastRecovery_) {
      cwnd_ += cfg_.mss;
      trySendData();
    } else if (dupAcks_ == 3) {
      enterFastRecovery();
    }
  }
}

void TcpSocket::enterFastRecovery() {
  const std::uint64_t flight = sndNxt_ - sndUna_;
  ssthresh_ = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(flight / 2, 2ull * cfg_.mss));
  cwnd_ = ssthresh_ + 3 * cfg_.mss;
  inFastRecovery_ = true;
  recoverPoint_ = sndNxt_;
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cfg_.mss, sndEnd_ - sndUna_));
  if (len > 0) {
    sendSegment(sndUna_, len, false, false);
    ++retransmits_;
  }
  rttProbe_.reset();  // Karn's rule
}

void TcpSocket::acceptPayload(std::uint64_t seq, std::uint32_t len) {
  const std::uint64_t end = seq + len;
  bool disorder = false;
  if (end <= rcvNxt_) {
    // Entirely duplicate: ack immediately so the sender sees progress.
    sendBareAck();
    return;
  }
  if (seq <= rcvNxt_) {
    rcvNxt_ = end;
    // Absorb any now-contiguous out-of-order ranges.
    auto it = oooRanges_.begin();
    while (it != oooRanges_.end() && it->first <= rcvNxt_) {
      rcvNxt_ = std::max(rcvNxt_, it->second);
      it = oooRanges_.erase(it);
    }
  } else {
    oooRanges_[seq] = std::max(oooRanges_[seq], end);
    disorder = true;
  }

  deliverReadyMessages();

  if (disorder || !oooRanges_.empty()) {
    sendBareAck();  // immediate dupACK / fill-in ACK
  } else {
    ++segsSinceAck_;
    if (segsSinceAck_ >= 2) {
      sendBareAck();
    } else {
      scheduleDelayedAck();
    }
  }
}

void TcpSocket::deliverReadyMessages() {
  auto self = shared_from_this();
  auto it = inMessages_.begin();
  while (it != inMessages_.end() && it->first <= rcvNxt_) {
    Message msg = it->second;
    it = inMessages_.erase(it);
    if (onMessage_) onMessage_(msg);
  }
}

void TcpSocket::scheduleDelayedAck() {
  if (delayedAckArmed_) return;
  delayedAckArmed_ = true;
  std::weak_ptr<TcpSocket> weak = shared_from_this();
  delayedAckTimer_ = mux_.node().sim().scheduleAfter(cfg_.delayedAckTimeout, [weak] {
    if (auto self = weak.lock()) {
      self->delayedAckArmed_ = false;
      if (self->segsSinceAck_ > 0) self->sendBareAck();
    }
  });
}

// ------------------------------------------------------- timers & congestion

Duration TcpSocket::currentRto() const {
  Duration base = cfg_.initialRto;
  if (srtt_) {
    base = *srtt_ + 4.0 * rttvar_;
    if (base < cfg_.minRto) base = cfg_.minRto;
  }
  for (int i = 0; i < backoff_; ++i) {
    base = base * 2.0;
    if (base >= cfg_.maxRto) return cfg_.maxRto;
  }
  return base;
}

void TcpSocket::cancelRto() {
  mux_.node().sim().cancel(rtoTimer_);
  rtoArmed_ = false;
}

void TcpSocket::armRto() {
  if (rtoArmed_) return;
  rtoArmed_ = true;
  // Small timer jitter (kernel tick granularity): keeps retransmissions
  // from phase-locking with periodic cross traffic.
  const Duration rto = currentRto() * mux_.node().sim().rng().uniform(0.98, 1.15);
  std::weak_ptr<TcpSocket> weak = shared_from_this();
  rtoTimer_ = mux_.node().sim().scheduleAfter(rto, [weak] {
    if (auto self = weak.lock()) {
      self->rtoArmed_ = false;
      self->onRtoFire();
    }
  });
}

void TcpSocket::onRtoFire() {
  switch (state_) {
    case TcpState::SynSent:
      if (++synRetries_ > cfg_.maxSynRetries) {
        failConnect();
        return;
      }
      ++backoff_;
      sendSegment(0, 0, true, false);
      armRto();
      return;
    case TcpState::SynReceived:
      if (++synRetries_ > cfg_.maxSynRetries) {
        failConnect();
        return;
      }
      ++backoff_;
      sendSegment(0, 0, true, false, true);
      armRto();
      return;
    default:
      break;
  }

  const bool dataOutstanding = sndUna_ < sndNxt_;
  const bool finOutstanding = finSent_ && !finAcked_;
  if (!dataOutstanding && !finOutstanding) return;

  if (++dataRetries_ > cfg_.maxDataRetries) {
    abort();
    return;
  }

  ++backoff_;
  ++retransmits_;
  ssthresh_ = static_cast<std::uint32_t>(
      std::max<std::uint64_t>((sndNxt_ - sndUna_) / 2, 2ull * cfg_.mss));
  cwnd_ = cfg_.mss;
  inFastRecovery_ = false;
  dupAcks_ = 0;
  rttProbe_.reset();  // Karn's rule

  if (dataOutstanding) {
    // Go-back-N from the oldest unACKed byte.
    sndNxt_ = sndUna_;
    trySendData();
  } else if (finOutstanding) {
    sendSegment(sndEnd_, 0, false, true);
  }
  armRto();
}

void TcpSocket::onRttSample(Duration rtt) {
  if (!srtt_) {
    srtt_ = rtt;
    rttvar_ = rtt * 0.5;
  } else {
    const Duration err = rtt - *srtt_;
    const Duration absErr = err.isNegative() ? -err : err;
    rttvar_ = rttvar_ * 0.75 + absErr * 0.25;
    srtt_ = *srtt_ * 0.875 + rtt * 0.125;
  }
}

void TcpSocket::maybeFinishClose() {
  if (finSent_ && finAcked_ && finReceived_) {
    unregisterKey();
    toState(TcpState::Closed);
    cancelRto();
  }
}

// ----------------------------------------------------------------- listener

TcpListener::TcpListener(Node& node, std::uint16_t port, TcpConfig cfg)
    : mux_{TransportMux::of(node)}, port_{port}, cfg_{cfg} {
  mux_.bindTcpListener(port_, *this);
}

TcpListener::~TcpListener() { mux_.unbindTcpListener(port_); }

void TcpListener::handleSyn(const Packet& p) {
  auto socket = TcpSocket::create(mux_.node(), cfg_);
  // The listener owns accepted sockets until they close, so servers that do
  // not retain the shared_ptr themselves still keep connections alive.
  accepted_[socket->serial()] = socket;
  socket->onReleaseInternal(
      [this](std::uint64_t serial) { accepted_.erase(serial); });
  socket->onConnectInternal([this, weak = std::weak_ptr<TcpSocket>(socket)](bool ok) {
    auto sock = weak.lock();
    if (sock == nullptr) return;
    if (ok) {
      if (onAccept_) onAccept_(sock);
    } else {
      accepted_.erase(sock->serial());
    }
  });
  socket->acceptFrom(p, port_);
}

}  // namespace msim
