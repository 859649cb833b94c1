// Unit tests for detlint's cross-file layer: the function/call index one
// file contributes, and the include-graph call resolution the R6 walk rides
// on. Fixtures are in-memory SourceFiles so every resolution decision —
// include closure, stem-paired .cpp, qualifier filter — is pinned explicitly.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "detlint.hpp"
#include "index.hpp"

namespace {

using detlint::FileIndex;
using detlint::Finding;
using detlint::FunctionDef;
using detlint::HotPathAlloc;
using detlint::Rule;
using detlint::SourceFile;

const FunctionDef* defNamed(const FileIndex& idx, std::string_view name) {
  for (const FunctionDef& d : idx.defs) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

bool hasFinding(const std::vector<Finding>& fs, Rule rule,
                std::string_view file, int line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file && f.line == line;
  });
}

// -------------------------------------------------------- function index

TEST(DetlintIndex, FindsFreeFunctionDefinitions) {
  const auto idx = detlint::indexSource(
      "int add(int a, int b) { return a + b; }\n"
      "void noop() {}\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 2u);
  EXPECT_EQ(idx.defs[0].name, "add");
  EXPECT_EQ(idx.defs[0].line, 1);
  EXPECT_EQ(idx.defs[1].name, "noop");
  EXPECT_EQ(idx.defs[1].line, 2);
}

TEST(DetlintIndex, DeclarationsAreNotDefinitions) {
  const auto idx = detlint::indexSource(
      "void declared(int x);\n"
      "int alsoDeclared();\n"
      "void defaulted() = delete;\n"
      "void real() {}\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 1u);
  EXPECT_EQ(idx.defs[0].name, "real");
}

TEST(DetlintIndex, QualifiedMethodDefinitionKeepsQualifier) {
  const auto idx = detlint::indexSource(
      "void Grid::insert(std::uint32_t slot) { slots_.push_back(slot); }\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 1u);
  EXPECT_EQ(idx.defs[0].name, "insert");
  EXPECT_EQ(idx.defs[0].qualifier, "Grid");
  EXPECT_EQ(idx.defs[0].display(), "Grid::insert");
}

TEST(DetlintIndex, SpecifierRunsAndTrailingReturnsAreDefinitions) {
  const auto idx = detlint::indexSource(
      "int Grid::size() const noexcept { return n_; }\n"
      "auto lookup(int k) -> const Cell* { return find(k); }\n"
      "void Hub::step() const override final { tick(); }\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 3u);
  EXPECT_EQ(idx.defs[0].name, "size");
  EXPECT_EQ(idx.defs[1].name, "lookup");
  EXPECT_EQ(idx.defs[2].name, "step");
}

TEST(DetlintIndex, ConstructorInitListIsADefinition) {
  const auto idx = detlint::indexSource(
      "Hub::Hub(Simulator& sim) : sim_{sim}, recs_(kMax), head_{0} {\n"
      "  warmUp();\n"
      "}\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 1u);
  EXPECT_EQ(idx.defs[0].name, "Hub");
  EXPECT_EQ(idx.defs[0].qualifier, "Hub");
  ASSERT_EQ(idx.defs[0].calls.size(), 1u);
  EXPECT_EQ(idx.defs[0].calls[0].name, "warmUp");
}

TEST(DetlintIndex, ControlFlowKeywordsAreNotCalls) {
  const auto idx = detlint::indexSource(
      "void tick() {\n"
      "  if (ready()) { while (more()) { step(); } }\n"
      "  return;\n"
      "}\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 1u);
  std::vector<std::string> names;
  for (const auto& c : idx.defs[0].calls) names.push_back(c.name);
  EXPECT_EQ(names, (std::vector<std::string>{"ready", "more", "step"}));
}

TEST(DetlintIndex, MemberCallsRecordReceiverChain) {
  const auto idx = detlint::indexSource(
      "void flush() {\n"
      "  queue_.clear();\n"
      "  this->stats_.bytes.reset();\n"
      "}\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 1u);
  const auto& calls = idx.defs[0].calls;
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_TRUE(calls[0].member);
  EXPECT_EQ(calls[0].receiver, "queue_");
  EXPECT_EQ(calls[1].name, "reset");
  EXPECT_EQ(calls[1].receiver, "stats_.bytes");  // `this` is stripped
}

TEST(DetlintIndex, HotMacroAndCommentBothMarkRoots) {
  const auto idx = detlint::indexSource(
      "MSIM_HOT void viaMacro() {}\n"
      "// detlint:hotpath zero allocs per forward\n"
      "void viaComment() {}\n"
      "void unmarked() {}\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 3u);
  EXPECT_TRUE(defNamed(idx, "viaMacro")->hot);
  EXPECT_TRUE(defNamed(idx, "viaComment")->hot);
  EXPECT_EQ(defNamed(idx, "viaComment")->hotWhy, "zero allocs per forward");
  EXPECT_FALSE(defNamed(idx, "unmarked")->hot);
  EXPECT_TRUE(idx.unattachedHotMarks.empty());
}

TEST(DetlintIndex, TrailingHotMarkIsUnattached) {
  const auto idx = detlint::indexSource(
      "void f() {}\n"
      "// detlint:hotpath dangling — nothing defined below\n"
      "int kConst = 4;\n",
      "fixture.cpp");
  ASSERT_EQ(idx.unattachedHotMarks.size(), 1u);
  EXPECT_EQ(idx.unattachedHotMarks[0], 2);
}

TEST(DetlintIndex, AllocSitesAreCollectedPerDefinition) {
  const auto idx = detlint::indexSource(
      "void cold() { auto p = std::make_unique<Node>(); use(p); }\n"
      "void colder() { auto* q = new Node; use(q); }\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 2u);
  ASSERT_EQ(idx.defs[0].allocs.size(), 1u);
  EXPECT_EQ(idx.defs[0].allocs[0].line, 1);
  ASSERT_EQ(idx.defs[1].allocs.size(), 1u);
  EXPECT_EQ(idx.defs[1].allocs[0].line, 2);
}

TEST(DetlintIndex, PlacementNewIsNotAnAllocSite) {
  const auto idx = detlint::indexSource(
      "void construct(void* mem) { auto* p = new (mem) Node; use(p); }\n",
      "fixture.cpp");
  ASSERT_EQ(idx.defs.size(), 1u);
  EXPECT_TRUE(idx.defs[0].allocs.empty());
}

// ------------------------------------------------------- call resolution

TEST(DetlintGraph, CrossFileCallResolvesThroughInclude) {
  const std::vector<SourceFile> files = {
      {"util/helper.hpp",
       "inline void helper() { auto* n = new Node; use(n); }\n"},
      {"src/main.cpp",
       "#include \"util/helper.hpp\"\n"
       "// detlint:hotpath forward budget is zero\n"
       "void root() { helper(); }\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "util/helper.hpp", 1));
  EXPECT_NE(fs[0].message.find("root -> helper"), std::string::npos);
}

TEST(DetlintGraph, TransitiveIncludeClosureIsWalked) {
  const std::vector<SourceFile> files = {
      {"a.hpp", "inline void leaf() { auto* n = new Node; use(n); }\n"},
      {"b.hpp",
       "#include \"a.hpp\"\n"
       "inline void mid() { leaf(); }\n"},
      {"main.cpp",
       "#include \"b.hpp\"\n"
       "MSIM_HOT void root() { mid(); }\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "a.hpp", 1));
}

TEST(DetlintGraph, StemPairedCppProvidesMethodBodies) {
  // relay.cpp is not included by anyone, but it stem-pairs with relay.hpp
  // (its own first include), so callers that include relay.hpp reach its
  // method bodies — the standard header/impl split.
  const std::vector<SourceFile> files = {
      {"relay.hpp", "class Relay { void emit(); };\n"},
      {"relay.cpp",
       "#include \"relay.hpp\"\n"
       "void Relay::emit() { trace_.push_back(1); }\n"},
      {"main.cpp",
       "#include \"relay.hpp\"\n"
       "MSIM_HOT void root(Relay& r) { r.emit(); }\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "relay.cpp", 2));
}

TEST(DetlintGraph, FileOutsideIncludeClosureIsNotReached) {
  // The decoy defines the same function name with an allocation, but the
  // root's file never includes it — closure gating must keep it unreachable.
  const std::vector<SourceFile> files = {
      {"decoy.cpp", "void helper() { auto* n = new Node; use(n); }\n"},
      {"main.cpp",
       "void helper() {}\n"
       "MSIM_HOT void root() { helper(); }\n"},
  };
  EXPECT_TRUE(detlint::scanSources(files).empty());
}

TEST(DetlintGraph, QualifierMismatchDoesNotResolve) {
  // A call qualified `Grid::` must not resolve to `Other::warm` even when
  // Other's file is in the include closure.
  const std::vector<SourceFile> files = {
      {"other.hpp",
       "inline void Other::warm() { auto* n = new Node; use(n); }\n"},
      {"main.cpp",
       "#include \"other.hpp\"\n"
       "MSIM_HOT void root() { Grid::warm(); }\n"},
  };
  EXPECT_TRUE(detlint::scanSources(files).empty());
}

TEST(DetlintGraph, RecursionTerminates) {
  const std::vector<SourceFile> files = {
      {"main.cpp",
       "MSIM_HOT void root(int n) {\n"
       "  auto* p = new Node;\n"
       "  use(p);\n"
       "  if (n > 0) root(n - 1);\n"
       "}\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);  // the alloc reports once, not per unrolling
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "main.cpp", 2));
}

TEST(DetlintGraph, UnresolvedExternalCallIsSilent) {
  const std::vector<SourceFile> files = {
      {"main.cpp",
       "MSIM_HOT void root() { std::sort(v.begin(), v.end()); external(); }\n"},
  };
  EXPECT_TRUE(detlint::scanSources(files).empty());
}

TEST(DetlintGraph, FirstRootInFileOrderOwnsSharedCallees) {
  // Two roots reach the same allocation; the walk visits roots in (file,
  // definition) order and reports the construct once, attributed to the
  // first root that reached it.
  const std::vector<SourceFile> files = {
      {"main.cpp",
       "void shared() { auto* n = new Node; use(n); }\n"
       "MSIM_HOT void rootA() { shared(); }\n"
       "MSIM_HOT void rootB() { shared(); }\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("'rootA'"), std::string::npos);
}

TEST(DetlintGraph, WalkHotPathsReturnsRootAndPath) {
  std::vector<FileIndex> files;
  files.push_back(detlint::indexSource(
      "void leaf() { auto* n = new Node; use(n); }\n"
      "void mid() { leaf(); }\n"
      "MSIM_HOT void root() { mid(); }\n",
      "one.cpp"));
  const std::vector<HotPathAlloc> hits = detlint::walkHotPaths(files);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].fileIdx, 0u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[0].root, "root");
  EXPECT_EQ(hits[0].rootFile, "one.cpp");
  EXPECT_EQ(hits[0].rootLine, 3);
  EXPECT_EQ(hits[0].path, "root -> mid -> leaf");
}

TEST(DetlintGraph, DirectLinkInjectionIdiomIsAllocFree) {
  // The PDES direct-link injection shape (pdes.cpp): a MSIM_HOT send()
  // whose contract-violation throw path is pragma-allowed and whose outbox
  // append is amortized (the barrier merge clear()s it in the same file),
  // feeding a hot merge that drains outboxes into a recycled scratch. The
  // whole idiom must come out clean — it is the repo's hot path.
  const std::vector<SourceFile> files = {
      {"engine.cpp",
       "MSIM_HOT void Partition::send(int dst, long t, Fn fn) {\n"
       "  if (t < floor_) {\n"
       "    // detlint:allow(hotpath-alloc) cold contract-violation path\n"
       "    throw std::logic_error(describe(dst, t));\n"
       "  }\n"
       "  outbox_.push_back(Msg{dst, t, fn});\n"
       "}\n"
       "MSIM_HOT void Engine::merge() {\n"
       "  for (Msg& m : src_.outbox_) inboxScratch_.push_back(m);\n"
       "  src_.outbox_.clear();\n"
       "  inject(inboxScratch_);\n"
       "  inboxScratch_.clear();\n"
       "}\n"},
  };
  EXPECT_TRUE(detlint::scanSources(files).empty());
}

TEST(DetlintGraph, UnamortizedOutboxAppendStillFires) {
  // Same send() shape with the barrier-side clear() removed: the append is
  // plain growth on a hot path and must be reported at its own line.
  const std::vector<SourceFile> files = {
      {"engine.cpp",
       "MSIM_HOT void Partition::send(int dst, long t, Fn fn) {\n"
       "  outbox_.push_back(Msg{dst, t, fn});\n"
       "}\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "engine.cpp", 2));
}

// The device egress shape (net/node.cpp, net/packetfifo.*) as reached from
// the relay fan-out root: RelayRoom::broadcast -> ... -> NetDevice::send ->
// enqueueForTransmit -> PacketFifo::push -> PacketChunkPool::acquire. Only
// the device layer varies between the two fixtures below.
std::vector<SourceFile> relayToDeviceFixture(const char* nodeCpp,
                                             const char* nodeHpp) {
  return {
      {"platform/relay.cpp",
       "#include \"net/node.hpp\"\n"
       "MSIM_HOT void RelayRoom::broadcast(Msg m) { scheduleBatch(m); }\n"
       "void RelayRoom::scheduleBatch(Msg m) { dev_->send(packetFor(m)); }\n"},
      {"net/node.hpp", nodeHpp},
      {"net/node.cpp", nodeCpp},
      {"net/packetfifo.hpp",
       "class PacketFifo {\n"
       " public:\n"
       "  void push(Packet p) {\n"
       "    if (tail_ == nullptr) {\n"
       "      head_ = tail_ = pool_->acquire();\n"
       "    } else if (tailIdx_ == kChunkPackets) {\n"
       "      Chunk* c = pool_->acquire();\n"
       "      tail_->next = c;\n"
       "      tail_ = c;\n"
       "      tailIdx_ = 0;\n"
       "    }\n"
       "    tail_->slots[tailIdx_++] = std::move(p);\n"
       "  }\n"
       "};\n"},
      {"net/packetfifo.cpp",
       "#include \"net/packetfifo.hpp\"\n"
       "Chunk* PacketChunkPool::acquire() {\n"
       "  if (free_ != nullptr) {\n"
       "    Chunk* c = free_;\n"
       "    free_ = c->next;\n"
       "    return c;\n"
       "  }\n"
       "  // detlint:allow(hotpath-alloc) chunk growth only at a new high-water\n"
       "  // mark of waiting packets; recycled through free_ afterwards.\n"
       "  chunks_.push_back(std::make_unique<Chunk>());\n"
       "  return chunks_.back().get();\n"
       "}\n"},
  };
}

TEST(DetlintGraph, ChunkRecycledDeviceFifoIsAllocFree) {
  // One event per uncontended hop: the packet goes straight to the wire when
  // the device is idle, otherwise into the chunked drop-tail FIFO; either way
  // the in-flight FIFO holds it until its arrival event.
  const auto files = relayToDeviceFixture(
      "#include \"net/node.hpp\"\n"
      "void NetDevice::send(Packet p) { enqueueForTransmit(std::move(p)); }\n"
      "void NetDevice::enqueueForTransmit(Packet p) {\n"
      "  if (queue_.empty() && now() >= busyUntil_) {\n"
      "    startTransmit(std::move(p));\n"
      "    return;\n"
      "  }\n"
      "  queue_.push(std::move(p));\n"
      "}\n"
      "void NetDevice::startTransmit(Packet p) {\n"
      "  busyUntil_ = now() + txTime(p);\n"
      "  inFlight_.push(std::move(p));\n"
      "  sim_.schedule(busyUntil_ + delay_, [this] { onArrival(); });\n"
      "}\n",
      "#include \"net/packetfifo.hpp\"\n"
      "class NetDevice {\n"
      "  void send(Packet p);\n"
      "  PacketFifo queue_;\n"
      "  PacketFifo inFlight_;\n"
      "};\n");
  EXPECT_TRUE(detlint::scanSources(files).empty());

  // Clean because the pool's growth site is justified, not because the walk
  // stops short of it: without the pragma the same tree fires there.
  std::vector<SourceFile> unjustified = files;
  std::string& pool = unjustified.back().text;
  const std::size_t pragma = pool.find("  // detlint:allow");
  pool.erase(pragma, pool.find("  chunks_") - pragma);
  const auto fs = detlint::scanSources(unjustified);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "net/packetfifo.cpp", 8));
}

TEST(DetlintGraph, UnamortizedDequeDeviceQueueStillFires) {
  // The same path with the drop-tail queue as a std::deque: pop_front hands
  // blocks back to the heap, so the append is growth on every refill and
  // must be reported at its own line with the relay root named.
  const auto files = relayToDeviceFixture(
      "#include \"net/node.hpp\"\n"
      "void NetDevice::send(Packet p) { enqueueForTransmit(std::move(p)); }\n"
      "void NetDevice::enqueueForTransmit(Packet p) {\n"
      "  queue_.push_back(std::move(p));\n"
      "  startTransmitIfIdle();\n"
      "}\n"
      "void NetDevice::startTransmitIfIdle() {\n"
      "  Packet p = std::move(queue_.front());\n"
      "  queue_.pop_front();\n"
      "  inFlight_.push(std::move(p));\n"
      "}\n",
      "#include <deque>\n"
      "#include \"net/packetfifo.hpp\"\n"
      "class NetDevice {\n"
      "  void send(Packet p);\n"
      "  std::deque<Packet> queue_;\n"
      "  PacketFifo inFlight_;\n"
      "};\n");
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, "net/node.cpp", 4));
  EXPECT_NE(fs[0].message.find("'RelayRoom::broadcast'"), std::string::npos);
}

TEST(DetlintGraph, SuppressionInOwningFileFiltersGraphFinding) {
  // The allow pragma lives next to the allocation (in the callee's file),
  // not next to the root — the graph pass must honor the owning file's
  // pragmas exactly like a local finding.
  const std::vector<SourceFile> files = {
      {"pool.hpp",
       "inline void grow() {\n"
       "  // detlint:allow(hotpath-alloc) slab growth at a high-water mark\n"
       "  chunks_.push_back(make());\n"
       "}\n"},
      {"main.cpp",
       "#include \"pool.hpp\"\n"
       "MSIM_HOT void root() { grow(); }\n"},
  };
  EXPECT_TRUE(detlint::scanSources(files).empty());
}

}  // namespace
