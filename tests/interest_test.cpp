// The spatial interest layer and the SoA relay hot path (DESIGN.md §12):
// grid membership and deterministic candidate ordering, distance-banded LoD
// decimation, radius culling, the angular (viewport) predicate expressed as
// an interest configuration, rate-state migration across rooms, and audit
// digests that stay byte-identical for any MSIM_THREADS when an
// interest-enabled cluster runs a drain mid-sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/sweep.hpp"
#include "avatar/codec.hpp"
#include "cluster/manager.hpp"
#include "core/seedsweep.hpp"
#include "interest/grid.hpp"
#include "interest/lod.hpp"
#include "net/node.hpp"
#include "platform/relay.hpp"

namespace msim {
namespace {

using audit::RunFingerprint;

// ------------------------------------------------------------ InterestGrid

TEST(InterestGridTest, InsertMoveRemoveTrackMembership) {
  interest::InterestGrid grid{8.0};
  EXPECT_EQ(grid.size(), 0u);
  grid.insert(3, 1003, 1.0, 1.0);
  grid.insert(7, 1007, 100.0, -50.0);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_TRUE(grid.contains(3));
  EXPECT_TRUE(grid.contains(7));
  EXPECT_FALSE(grid.contains(4));

  // Same-cell move: no boundary crossed.
  EXPECT_FALSE(grid.move(3, 1003, 2.0, 2.0));
  // Cross-cell move.
  EXPECT_TRUE(grid.move(3, 1003, 30.0, 30.0));
  EXPECT_EQ(grid.size(), 2u);

  grid.remove(3);
  EXPECT_FALSE(grid.contains(3));
  EXPECT_EQ(grid.size(), 1u);
  grid.remove(3);  // idempotent
  EXPECT_EQ(grid.size(), 1u);
}

TEST(InterestGridTest, CandidatesVisitCellsInRowColumnSlotOrder) {
  interest::InterestGrid grid{10.0};
  // Cell (0,0): slots 5 and 2; cell (1,0): slot 9; cell (0,1): slot 1.
  grid.insert(5, 1005, 1.0, 1.0);
  grid.insert(2, 1002, 3.0, 2.0);
  grid.insert(9, 1009, 12.0, 1.0);
  grid.insert(1, 1001, 2.0, 12.0);
  std::vector<std::uint32_t> seen;
  std::vector<std::uint64_t> seenIds;
  const std::size_t visited = grid.forEachCandidate(
      5.0, 5.0, 10.0, [&](std::uint32_t s, std::uint64_t id, double, double) {
        seen.push_back(s);
        seenIds.push_back(id);
      });
  EXPECT_EQ(visited, seen.size());
  // Rows (qy) outer, columns (qx) inner, slots ascending within a cell —
  // a pure function of quantized positions and slot numbers.
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{2, 5, 9, 1}));
  // The co-located payload rides along with each slot.
  EXPECT_EQ(seenIds, (std::vector<std::uint64_t>{1002, 1005, 1009, 1001}));
}

TEST(InterestGridTest, QueryOnlyTouchesOverlappingCells) {
  interest::InterestGrid grid{8.0};
  grid.insert(1, 1, 0.0, 0.0);
  grid.insert(2, 2, 100.0, 0.0);
  grid.insert(3, 3, 0.0, 100.0);
  std::vector<std::uint32_t> seen;
  grid.forEachCandidate(
      0.0, 0.0, 10.0,
      [&](std::uint32_t s, std::uint64_t, double, double) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1}));
}

TEST(InterestGridTest, EmptiedCellsAreRecycled) {
  interest::InterestGrid grid{8.0};
  grid.insert(1, 1, 0.0, 0.0);
  grid.insert(2, 2, 50.0, 50.0);
  EXPECT_EQ(grid.occupiedCells(), 2u);
  grid.remove(2);
  EXPECT_EQ(grid.occupiedCells(), 1u);
  // The freed cell storage is reused for a different coordinate.
  grid.insert(3, 3, -70.0, 20.0);
  EXPECT_EQ(grid.occupiedCells(), 2u);
  std::vector<std::uint32_t> seen;
  grid.forEachCandidate(
      -70.0, 20.0, 4.0,
      [&](std::uint32_t s, std::uint64_t, double, double) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3}));
}

TEST(InterestGridTest, NegativeCoordinatesQuantizeDistinctly) {
  interest::InterestGrid grid{8.0};
  grid.insert(1, 1, -1.0, -1.0);  // cell (-1,-1)
  grid.insert(2, 2, 1.0, 1.0);    // cell (0,0)
  std::vector<std::uint32_t> seen;
  grid.forEachCandidate(
      -4.0, -4.0, 2.0,
      [&](std::uint32_t s, std::uint64_t, double, double) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1}));
}

// One visited candidate, as forEachCandidate hands it over.
struct Visit {
  std::uint32_t slot;
  std::uint64_t id;
  double x;
  double y;
  bool operator==(const Visit&) const = default;
};

std::vector<Visit> gridVisits(const interest::InterestGrid& grid, double x,
                              double y, double radius) {
  std::vector<Visit> out;
  const std::size_t visited = grid.forEachCandidate(
      x, y, radius, [&](std::uint32_t s, std::uint64_t id, double px, double py) {
        out.push_back({s, id, px, py});
      });
  EXPECT_EQ(visited, out.size());
  return out;
}

TEST(InterestGridTest, ChurnKeepsRowColumnSlotOrderAgainstBruteForce) {
  // ~10k seeded inserts, same-cell moves, cross-cell moves and removes on a
  // grid reserved at 4 slots per cell (cells both under and over that
  // capacity). Every 100 operations each query circle's visit sequence must
  // equal a brute-force reference: every member whose cell's nearest point
  // lies within the radius, ordered by (cell row, cell column, slot).
  constexpr double kCellM = 8.0;
  constexpr std::uint32_t kSlots = 200;
  constexpr double kHalfWorldM = 24.0;  // 6 x 6 cells
  struct Member {
    bool in{false};
    std::uint64_t id{0};
    double x{0.0};
    double y{0.0};
  };
  struct Query {
    double x, y, r;
  };
  const Query queries[] = {
      {0.0, 0.0, 10.0}, {-15.0, 7.0, 20.0}, {13.5, -3.2, 5.0}, {3.0, 3.0, 100.0}};

  interest::InterestGrid grid{kCellM};
  grid.reserve(kSlots, 4);
  std::vector<Member> ref(kSlots);
  std::mt19937_64 rng{20261020};
  const auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  const auto coord = [&] { return (2.0 * unit() - 1.0) * kHalfWorldM; };
  const auto cellOf = [&](double v) {
    return static_cast<std::int64_t>(std::floor(v / kCellM));
  };

  const auto reference = [&](const Query& q) {
    struct Keyed {
      std::int64_t row, col;
      Visit v;
    };
    std::vector<Keyed> hits;
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      const Member& m = ref[s];
      if (!m.in) continue;
      const std::int64_t col = cellOf(m.x);
      const std::int64_t row = cellOf(m.y);
      const double lo[2] = {static_cast<double>(col) * kCellM,
                            static_cast<double>(row) * kCellM};
      const double p[2] = {q.x, q.y};
      double d2 = 0.0;
      for (int a = 0; a < 2; ++a) {
        const double d = std::max({lo[a] - p[a], 0.0, p[a] - (lo[a] + kCellM)});
        d2 += d * d;
      }
      if (d2 <= q.r * q.r) hits.push_back({row, col, {s, m.id, m.x, m.y}});
    }
    std::sort(hits.begin(), hits.end(), [](const Keyed& a, const Keyed& b) {
      return std::tie(a.row, a.col, a.v.slot) < std::tie(b.row, b.col, b.v.slot);
    });
    std::vector<Visit> out;
    for (const Keyed& k : hits) out.push_back(k.v);
    return out;
  };

  std::size_t sameCellMoves = 0;
  std::size_t crossCellMoves = 0;
  for (int op = 1; op <= 10000; ++op) {
    const auto s = static_cast<std::uint32_t>(rng() % kSlots);
    Member& m = ref[s];
    const std::uint64_t id = rng();
    if (!m.in) {
      m = {true, id, coord(), coord()};
      grid.insert(s, m.id, m.x, m.y);
    } else {
      switch (rng() % 3) {
        case 0:
          grid.remove(s);
          m.in = false;
          break;
        case 1: {  // same-cell move: a fresh point inside the current cell
          const double x = (static_cast<double>(cellOf(m.x)) + unit()) * kCellM;
          const double y = (static_cast<double>(cellOf(m.y)) + unit()) * kCellM;
          ASSERT_FALSE(grid.move(s, id, x, y)) << "op " << op;
          m = {true, id, x, y};
          ++sameCellMoves;
          break;
        }
        default: {
          const double x = coord();
          const double y = coord();
          const bool crossed = cellOf(x) != cellOf(m.x) || cellOf(y) != cellOf(m.y);
          ASSERT_EQ(grid.move(s, id, x, y), crossed) << "op " << op;
          m = {true, id, x, y};
          crossCellMoves += crossed ? 1 : 0;
          break;
        }
      }
    }
    if (op % 100 != 0) continue;
    std::size_t members = 0;
    for (const Member& r : ref) members += r.in ? 1 : 0;
    ASSERT_EQ(grid.size(), members) << "op " << op;
    for (const Query& q : queries) {
      ASSERT_EQ(gridVisits(grid, q.x, q.y, q.r), reference(q))
          << "op " << op << " query (" << q.x << ", " << q.y << ", " << q.r << ")";
    }
  }
  EXPECT_GT(sameCellMoves, 1000u);
  EXPECT_GT(crossCellMoves, 1000u);

  // Empty the fullest cell, then refill it in descending slot order: the
  // cell visits in ascending slot order again, with the same payloads.
  const Query& all = queries[3];
  const std::vector<Visit> before = gridVisits(grid, all.x, all.y, all.r);
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Visit>> byCell;
  for (const Visit& v : before) byCell[{cellOf(v.y), cellOf(v.x)}].push_back(v);
  const std::vector<Visit>* fullest = nullptr;
  for (const auto& [cell, visits] : byCell) {
    if (fullest == nullptr || visits.size() > fullest->size()) fullest = &visits;
  }
  ASSERT_NE(fullest, nullptr);
  ASSERT_GT(fullest->size(), 4u);  // past the reserved capacity
  const std::vector<Visit> cell = *fullest;
  const std::size_t cellsBefore = grid.occupiedCells();
  for (const Visit& v : cell) grid.remove(v.slot);
  EXPECT_EQ(grid.occupiedCells(), cellsBefore - 1);
  EXPECT_EQ(gridVisits(grid, cell[0].x, cell[0].y, 0.0), std::vector<Visit>{});
  for (auto it = cell.rbegin(); it != cell.rend(); ++it) {
    grid.insert(it->slot, it->id, it->x, it->y);
  }
  EXPECT_EQ(grid.occupiedCells(), cellsBefore);
  EXPECT_EQ(gridVisits(grid, all.x, all.y, all.r), before);
}

// ---------------------------------------------------------- InterestParams

TEST(InterestParamsTest, BandLookupMatchesConfiguredRadii) {
  interest::InterestParams p;
  p.clearBands();
  p.addBand(10.0, 1);
  p.addBand(40.0, 2);
  p.addBand(-1.0, 10);
  EXPECT_EQ(p.bands, 3);
  EXPECT_EQ(p.bandFor(5.0 * 5.0), 0);
  EXPECT_EQ(p.bandFor(10.0 * 10.0), 0);  // boundary belongs to the nearer band
  EXPECT_EQ(p.bandFor(10.5 * 10.5), 1);
  EXPECT_EQ(p.bandFor(40.0 * 40.0), 1);
  EXPECT_EQ(p.bandFor(41.0 * 41.0), 2);
  EXPECT_EQ(p.bandFor(1e12), 2);
  EXPECT_EQ(p.keepEvery[2], 10u);
}

TEST(InterestParamsTest, DefaultIsOneOpenFullRateBand) {
  const interest::InterestParams p;
  EXPECT_FALSE(p.anyFilter());
  EXPECT_EQ(p.bandFor(1e18), 0);
  EXPECT_EQ(p.keepEvery[0], 1u);
}

// ------------------------------------------------- RelayRoom interest scan

Message poseMsg(std::uint64_t sender, std::uint64_t seq) {
  Message m;
  m.kind = avatarmsg::kPoseUpdate;
  m.size = ByteSize::bytes(100);
  m.senderId = sender;
  m.sequence = seq;
  return m;
}

DataSpec gridSpec() {
  DataSpec spec;
  spec.interestGrid = true;
  spec.interestCellM = 8.0;
  spec.interestRadiusM = 50.0;
  spec.interestFullRadiusM = 10.0;
  spec.interestHalfRadiusM = 40.0;
  spec.interestFarKeepEvery = 10;
  spec.queueCoefMs = 0.0;
  return spec;
}

/// Records, per receiver id, the sequences delivered to it.
struct DeliveryLog {
  std::vector<std::vector<std::uint64_t>> bySeq =
      std::vector<std::vector<std::uint64_t>>(64);
  std::vector<std::vector<TimePoint>> atTime =
      std::vector<std::vector<TimePoint>>(64);

  void attach(RelayRoom& room) {
    room.hooks().onLocalDeliver = [this, &room](std::uint64_t to,
                                                const Message& m) {
      bySeq[to].push_back(m.sequence);
      atTime[to].push_back(room.sim().now());
    };
  }
};

TEST(RelayInterestTest, ReceiversBeyondRadiusAreCulled) {
  Simulator sim{11};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.joinDetached(3);
  room.joinDetached(4);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{5, 0, 0});    // band 0: full rate
  // In a cell that intersects the 50 m circle (nearest corner ~43.1 m) but
  // itself ~53 m out: visited by the scan, culled by the exact circle test.
  room.updatePose(3, Pose{47.5, 23.5, 0});
  room.updatePose(4, Pose{200, 0, 0});  // far cell: never even visited

  for (std::uint64_t i = 1; i <= 4; ++i) {
    room.broadcast(1, poseMsg(1, i));
  }
  sim.run();

  EXPECT_EQ(log.bySeq[2].size(), 4u);
  EXPECT_TRUE(log.bySeq[3].empty());
  EXPECT_TRUE(log.bySeq[4].empty());
  const RelayInterestStats& stats = room.interestStats();
  EXPECT_EQ(stats.forwardedByTier[0], 4u);
  EXPECT_EQ(stats.culledByRadius, 4u);  // user 3, once per broadcast
  EXPECT_EQ(stats.culledByCell, 4u);    // user 4, once per broadcast
  EXPECT_EQ(room.interestCulledBytes().toBytes(), 8 * 100);
  EXPECT_EQ(room.forwardedBytes().toBytes(), 4 * 100);
}

TEST(RelayInterestTest, DistanceBandsDecimateAtConfiguredRates) {
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 100.0;
  Simulator sim{12};
  RelayRoom room{sim, spec};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.joinDetached(3);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{20, 0, 0});  // half-rate band (10, 40]
  room.updatePose(3, Pose{60, 0, 0});  // trickle band: 1 in 10

  for (std::uint64_t i = 1; i <= 20; ++i) {
    room.broadcast(1, poseMsg(1, i));
  }
  sim.run();

  // Sender-side pose sequence drives every band's cadence: the half-rate
  // receiver sees exactly the even sequences, the trickle receiver every
  // tenth — not merely the right counts.
  EXPECT_EQ(log.bySeq[2],
            (std::vector<std::uint64_t>{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}));
  EXPECT_EQ(log.bySeq[3], (std::vector<std::uint64_t>{10, 20}));
  const RelayInterestStats& stats = room.interestStats();
  EXPECT_EQ(stats.forwardedByTier[1], 10u);
  EXPECT_EQ(stats.forwardedByTier[2], 2u);
  EXPECT_EQ(stats.lodFiltered, 10u + 18u);
}

TEST(RelayInterestTest, UnknownPoseUsersBypassDistanceFilters) {
  Simulator sim{13};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);  // never reports a pose
  room.updatePose(1, Pose{0, 0, 0});

  // A receiver with no known pose cannot be culled or decimated.
  for (std::uint64_t i = 1; i <= 5; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 5u);

  // A sender with no known pose fans out all-to-all.
  for (std::uint64_t i = 1; i <= 3; ++i) room.broadcast(2, poseMsg(2, i));
  sim.run();
  EXPECT_EQ(log.bySeq[1].size(), 3u);
}

TEST(RelayInterestTest, NonPoseTrafficKeepsTheAllToAllPath) {
  Simulator sim{14};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{500, 0, 0});  // far outside the interest radius

  Message m;
  m.kind = relaymsg::kGameState;
  m.size = ByteSize::bytes(80);
  m.senderId = 1;
  m.sequence = 1;
  room.broadcast(1, m);
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 1u);  // game state is not interest-scoped
}

TEST(RelayInterestTest, PerFlowDeliveryStaysInOrder) {
  Simulator sim{15};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{3, 0, 0});

  for (std::uint64_t i = 1; i <= 8; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();

  ASSERT_EQ(log.bySeq[2].size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(log.bySeq[2][i], i + 1);
  }
  for (std::size_t i = 1; i < log.atTime[2].size(); ++i) {
    EXPECT_LT(log.atTime[2][i - 1], log.atTime[2][i]);
  }
}

TEST(RelayInterestTest, ViewportFilterIsAnInterestConfiguration) {
  // AltspaceVR's §6.1 wedge re-expressed as the angular predicate of the
  // interest layer: no radius, one open band, 150° width.
  DataSpec spec;
  spec.viewportFilter = true;
  spec.viewportWidthDeg = 150.0;
  spec.queueCoefMs = 0.0;
  Simulator sim{16};
  RelayRoom room{sim, spec};
  EXPECT_TRUE(room.interestParams().angular);
  EXPECT_FALSE(room.interestParams().cull());
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.joinDetached(3);
  room.updatePose(1, Pose{10, 0, 0});
  room.updatePose(2, Pose{0, 0, 0});    // facing +x: sender in view
  room.updatePose(3, Pose{0, 5, 180});  // facing -x: sender behind

  room.broadcast(1, poseMsg(1, 1));
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 1u);
  EXPECT_TRUE(log.bySeq[3].empty());
  EXPECT_EQ(room.interestStats().viewportFiltered, 1u);
  EXPECT_EQ(room.viewportFilteredBytes().toBytes(), 100);
}

// ----------------------------------------------- slots, reuse, membership

TEST(RelaySoATest, SlotsRecycleAndMembershipStaysExact) {
  Simulator sim{17};
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  RelayRoom room{sim, spec};
  DeliveryLog log;
  log.attach(room);
  for (std::uint64_t u = 1; u <= 5; ++u) room.joinDetached(u);
  room.leave(3);
  room.joinDetached(6);  // reuses user 3's slot
  EXPECT_EQ(room.userCount(), 5u);
  EXPECT_EQ(room.userIds(),
            (std::vector<std::uint64_t>{1, 2, 4, 5, 6}));

  room.broadcast(1, poseMsg(1, 1));
  sim.run();
  EXPECT_TRUE(log.bySeq[3].empty());
  for (const std::uint64_t u : {2u, 4u, 5u, 6u}) {
    EXPECT_EQ(log.bySeq[u].size(), 1u) << "user " << u;
  }
}

TEST(RelaySoATest, RejoinKeepsSenderCadenceAndFlowOrder) {
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 100.0;
  Simulator sim{18};
  RelayRoom room{sim, spec};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{20, 0, 0});  // half-rate band

  for (std::uint64_t i = 1; i <= 3; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();
  // Reconnect: the user's own pose state resets, but peers keep this
  // sender's decimation cadence — the sequence clock must not rewind.
  room.joinDetached(1);
  room.updatePose(1, Pose{0, 0, 0});
  for (std::uint64_t i = 4; i <= 6; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();

  EXPECT_EQ(log.bySeq[2], (std::vector<std::uint64_t>{2, 4, 6}));
}

TEST(RelaySoATest, EvictionSweepWorksOverSlotColumns) {
  Simulator sim{19};
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  RelayRoom room{sim, spec};
  for (std::uint64_t u = 1; u <= 3; ++u) room.joinDetached(u);
  room.startEvictionSweep(Duration::seconds(15));
  // Keep user 2 alive; 1 and 3 go silent and are evicted.
  auto keepalive = std::make_unique<PeriodicTask>(
      sim, Duration::seconds(5), [&room] { room.noteActivity(2); });
  sim.runFor(Duration::seconds(30));
  EXPECT_EQ(room.userIds(), (std::vector<std::uint64_t>{2}));
}

// ------------------------------------------- in-flight fan-out arena

/// Records, per (sender, receiver) flow, the sequences delivered on it.
struct FlowLog {
  std::vector<std::vector<std::vector<std::uint64_t>>> seqs;

  explicit FlowLog(std::size_t users)
      : seqs(users + 1, std::vector<std::vector<std::uint64_t>>(users + 1)) {}

  void attach(RelayRoom& room) {
    room.hooks().onLocalDeliver = [this](std::uint64_t to, const Message& m) {
      seqs[m.senderId][to].push_back(m.sequence);
    };
  }

  [[nodiscard]] std::size_t total() const {
    std::size_t n = 0;
    for (const auto& row : seqs) {
      for (const auto& flow : row) n += flow.size();
    }
    return n;
  }
};

TEST(RelayFanoutArenaTest, InFlightSpansSurviveLeaveAndEvacuation) {
  // 40 users x 100 broadcasts go in flight before the first delivery lands
  // (queueing term 40 x 38^1.5 ms ~ 9.4 s), spread over many chunks. Half
  // the receivers leave and the room is then emptied mid-flight: every
  // captured receiver still gets exactly its forwards, in flow order.
  constexpr std::uint64_t kUsers = 40;
  constexpr std::uint64_t kRounds = 100;
  DataSpec spec;
  spec.queueCoefMs = 40.0;
  Simulator sim{31};
  RelayRoom room{sim, spec};
  FlowLog log{kUsers};
  log.attach(room);
  for (std::uint64_t u = 1; u <= kUsers; ++u) room.joinDetached(u);
  for (std::uint64_t i = 1; i <= kRounds; ++i) {
    for (std::uint64_t u = 1; u <= kUsers; ++u) room.broadcast(u, poseMsg(u, i));
  }
  EXPECT_GT(room.inFlightChunks(), 1u);

  sim.runFor(Duration::seconds(1));
  for (std::uint64_t u = 2; u <= kUsers; u += 2) room.leave(u);
  sim.runFor(Duration::seconds(1));
  for (const std::uint64_t u : room.userIds()) room.leave(u);
  EXPECT_EQ(room.userCount(), 0u);
  EXPECT_EQ(log.total(), 0u);  // all of it still in flight
  sim.run();

  for (std::uint64_t from = 1; from <= kUsers; ++from) {
    for (std::uint64_t to = 1; to <= kUsers; ++to) {
      const std::vector<std::uint64_t>& got = log.seqs[from][to];
      if (from == to) {
        EXPECT_TRUE(got.empty());
        continue;
      }
      ASSERT_EQ(got.size(), kRounds) << from << " -> " << to;
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        EXPECT_EQ(got[i], i + 1) << from << " -> " << to;
      }
    }
  }
}

TEST(RelayFanoutArenaTest, ChunksRecycleOnlyAfterTheirLastSpan) {
  // Steady pacing with ~20 rounds in flight (every 5 ms, ~106 ms delay):
  // chunks fill, drain and recycle continuously, so a chunk handed back
  // before its last span lands would be overwritten under a pending one.
  constexpr std::uint64_t kUsers = 20;
  constexpr std::uint64_t kRounds = 200;
  DataSpec spec;
  Simulator sim{36};
  RelayRoom room{sim, spec};
  FlowLog log{kUsers};
  log.attach(room);
  for (std::uint64_t u = 1; u <= kUsers; ++u) room.joinDetached(u);
  for (std::uint64_t i = 1; i <= kRounds; ++i) {
    sim.schedule(TimePoint::epoch() + Duration::millis(5.0 * static_cast<double>(i)),
                 [&room, i] {
                   for (std::uint64_t u = 1; u <= kUsers; ++u) {
                     room.broadcast(u, poseMsg(u, i));
                   }
                 });
  }
  sim.run();
  EXPECT_GT(room.inFlightChunks(), 1u);
  for (std::uint64_t from = 1; from <= kUsers; ++from) {
    for (std::uint64_t to = 1; to <= kUsers; ++to) {
      if (from == to) continue;
      const std::vector<std::uint64_t>& got = log.seqs[from][to];
      ASSERT_EQ(got.size(), kRounds) << from << " -> " << to;
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        ASSERT_EQ(got[i], i + 1) << from << " -> " << to;
      }
    }
  }
}

TEST(RelayFanoutArenaTest, BroadcastLargerThanAChunkReachesEveryone) {
  const auto users = static_cast<std::uint64_t>(RelayRoom::kFanoutChunkIds) + 100;
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  Simulator sim{32};
  RelayRoom room{sim, spec};
  std::vector<std::uint32_t> got(users + 1, 0);
  room.hooks().onLocalDeliver = [&got](std::uint64_t to, const Message&) {
    ++got[to];
  };
  for (std::uint64_t u = 1; u <= users; ++u) room.joinDetached(u);
  // Two oversized spans in flight together, each in a chunk of its own.
  room.broadcast(1, poseMsg(1, 1));
  room.broadcast(2, poseMsg(2, 1));
  sim.run();
  EXPECT_EQ(got[1], 1u);
  EXPECT_EQ(got[2], 1u);
  for (std::uint64_t u = 3; u <= users; ++u) {
    ASSERT_EQ(got[u], 2u) << "user " << u;
  }
  EXPECT_EQ(room.forwardedMessages(), 2 * (users - 1));
  EXPECT_EQ(room.inFlightChunks(), 2u);
}

TEST(RelayFanoutArenaTest, CrossHomeReceiversGoThroughTheirOwnReplica) {
  // One room on two replicas; clients join over UDP, so each replica binds
  // its own users. A broadcast's cross-home span must hand every receiver
  // to that receiver's replica, seen by the client as the datagram source.
  Simulator sim{33};
  Network net{sim};
  Node& node = net.addNode("site");
  node.addAddress(Ipv4Address(10, 9, 0, 1));
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  auto room = std::make_shared<RelayRoom>(sim, spec);
  const std::uint16_t ports[2] = {5055, 5056};
  auto a = RelayServer::makeUdp(node, ports[0], room);
  auto b = RelayServer::makeUdp(node, ports[1], room);

  constexpr std::uint64_t kUsers = 6;
  std::vector<std::unique_ptr<UdpSocket>> clients;
  // via[to][from]: the replica port each forward arrived from.
  std::vector<std::vector<std::vector<std::uint16_t>>> via(
      kUsers + 1, std::vector<std::vector<std::uint16_t>>(kUsers + 1));
  for (std::uint64_t u = 1; u <= kUsers; ++u) {
    clients.push_back(std::make_unique<UdpSocket>(node));
    clients.back()->onReceive([&via, u](const Packet& p, const Endpoint& from) {
      const Message* m = p.primaryMessage();
      if (m != nullptr && m->kind == relaymsg::kGameState) {
        via[u][m->senderId].push_back(from.port);
      }
    });
    Message join;
    join.kind = relaymsg::kJoin;
    join.size = ByteSize::bytes(64);
    join.senderId = u;
    clients.back()->sendTo(Endpoint{node.primaryAddress(), ports[u % 2]},
                           join.size, std::make_shared<const Message>(join));
  }
  sim.run();
  ASSERT_EQ(room->userCount(), kUsers);

  for (const std::uint64_t from : {1u, 2u}) {
    Message m;
    m.kind = relaymsg::kGameState;
    m.size = ByteSize::bytes(100);
    m.senderId = from;
    room->broadcast(from, m);
  }
  sim.run();
  for (std::uint64_t to = 1; to <= kUsers; ++to) {
    for (const std::uint64_t from : {1u, 2u}) {
      if (to == from) continue;
      ASSERT_EQ(via[to][from].size(), 1u) << from << " -> " << to;
      EXPECT_EQ(via[to][from][0], ports[to % 2]) << from << " -> " << to;
    }
  }
}

TEST(RelayFanoutArenaTest, SecondIdenticalWaveAllocatesNoChunk) {
  // A lattice wave (every avatar broadcasts before any delivery), then an
  // all-to-all wave with spans larger than a chunk: once a wave has
  // drained, the same wave again reuses the recycled chunks.
  DataSpec spec = gridSpec();
  spec.interestFullRadiusM = spec.interestRadiusM;  // no decimation: waves repeat
  Simulator sim{34};
  RelayRoom grid{sim, spec};
  constexpr int kSide = 40;
  for (int i = 0; i < kSide * kSide; ++i) {
    const auto id = static_cast<std::uint64_t>(i + 1);
    grid.joinDetached(id);
    grid.updatePose(id, Pose{4.0 * (i % kSide), 4.0 * (i / kSide), 0});
  }
  const auto gridWave = [&](std::uint64_t seq) {
    for (std::uint64_t id = 1; id <= kSide * kSide; ++id) {
      grid.broadcast(id, poseMsg(id, seq));
    }
    sim.run();
  };
  gridWave(1);
  const std::size_t gridChunks = grid.inFlightChunks();
  EXPECT_GT(gridChunks, 1u);
  const std::uint64_t forwards = grid.forwardedMessages();
  gridWave(2);
  EXPECT_EQ(grid.forwardedMessages(), 2 * forwards);
  EXPECT_EQ(grid.inFlightChunks(), gridChunks);

  DataSpec open;
  open.queueCoefMs = 0.0;
  RelayRoom all{sim, open};
  const auto users = static_cast<std::uint64_t>(RelayRoom::kFanoutChunkIds) + 2;
  for (std::uint64_t u = 1; u <= users; ++u) all.joinDetached(u);
  const auto allWave = [&] {
    for (std::uint64_t u = 1; u <= 3; ++u) all.broadcast(u, poseMsg(u, 1));
    sim.run();
  };
  allWave();
  EXPECT_EQ(all.inFlightChunks(), 3u);
  allWave();
  EXPECT_EQ(all.inFlightChunks(), 3u);
}

TEST(RelayFanoutArenaTest, DrainedChunkIsRecycledWhenALargerSpanTakesOver) {
  // A drained regular chunk is current when the room grows past a chunk's
  // worth of receivers; the oversized chunk takes over and the regular one
  // must go back to the free list, to serve the small spans that later
  // overflow the oversized chunk.
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  Simulator sim{35};
  RelayRoom room{sim, spec};
  const auto big = static_cast<std::uint64_t>(RelayRoom::kFanoutChunkIds) + 2;
  for (std::uint64_t u = 1; u <= 10; ++u) room.joinDetached(u);
  room.broadcast(1, poseMsg(1, 1));
  sim.run();
  for (std::uint64_t u = 11; u <= big; ++u) room.joinDetached(u);
  room.broadcast(1, poseMsg(1, 2));
  sim.run();
  EXPECT_EQ(room.inFlightChunks(), 2u);
  for (std::uint64_t u = 11; u <= big; ++u) room.leave(u);
  // 600 spans of 9 receivers: more than the oversized chunk holds.
  for (std::uint64_t i = 0; i < 600; ++i) {
    room.broadcast(1 + i % 10, poseMsg(1 + i % 10, 3 + i / 10));
  }
  sim.run();
  EXPECT_EQ(room.inFlightChunks(), 2u);
  EXPECT_EQ(room.forwardedMessages(), 9 + (big - 1) + 600 * 9);
}

// -------------------------------------------------- migration / snapshots

TEST(RelayMigrationTest, SnapshotCarriesRateStateAcrossRooms) {
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 100.0;
  Simulator sim{20};
  RelayRoom a{sim, spec};
  RelayRoom b{sim, spec};
  DeliveryLog log;
  log.attach(a);
  log.attach(b);
  a.joinDetached(1);
  a.joinDetached(2);
  a.updatePose(1, Pose{0, 0, 0});
  a.updatePose(2, Pose{20, 0, 0});  // half-rate band

  for (std::uint64_t i = 1; i <= 3; ++i) a.broadcast(1, poseMsg(1, i));
  sim.run();

  const RelayRoomSnapshot snap = a.exportSnapshot();
  ASSERT_EQ(snap.users.size(), 2u);
  EXPECT_EQ(snap.users[0].poseSeq, 3u);  // id order: user 1 first
  b.importSnapshot(snap);
  for (const RelayUserRecord& u : snap.users) a.leave(u.id);
  EXPECT_EQ(a.userCount(), 0u);
  EXPECT_EQ(b.userCount(), 2u);

  for (std::uint64_t i = 4; i <= 6; ++i) b.broadcast(1, poseMsg(1, i));
  sim.run();

  // The half-rate cadence continues seamlessly across the handoff: even
  // sequences only, no double-delivery, no restart at 1.
  EXPECT_EQ(log.bySeq[2], (std::vector<std::uint64_t>{2, 4, 6}));
}

TEST(RelayMigrationTest, ImportPlacesMigratedPosesOnTheGrid) {
  DataSpec spec = gridSpec();
  Simulator sim{21};
  RelayRoom a{sim, spec};
  RelayRoom b{sim, spec};
  DeliveryLog log;
  log.attach(b);
  a.joinDetached(1);
  a.joinDetached(2);
  a.joinDetached(3);
  a.updatePose(1, Pose{0, 0, 0});
  a.updatePose(2, Pose{5, 0, 0});
  a.updatePose(3, Pose{400, 0, 0});

  b.importSnapshot(a.exportSnapshot());
  // The target room culls immediately: placement survived the handoff.
  b.broadcast(1, poseMsg(1, 1));
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 1u);
  EXPECT_TRUE(log.bySeq[3].empty());
  EXPECT_EQ(b.interestStats().culledByCell, 1u);
}

// ------------------------------------- thread-invariant audited sweep

/// An interest-enabled cluster scenario: three instances, grid + viewport
/// culling, deterministic orbiting poses, a mid-run drain migrating a room
/// (with its per-LoD rate state) to another shard. Fingerprinted through
/// the kernel audit hook.
RunFingerprint auditedInterestClusterRun(std::uint64_t seed) {
  Simulator sim{seed};
  sim.enableAudit(/*recordTrail=*/true);
  cluster::ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.policy = cluster::PlacementPolicy::LeastLoaded;
  cfg.capacity.cpuPerForwardUs = 200.0;
  cfg.capacity.cores = 1.0;
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 30.0;
  spec.interestFullRadiusM = 5.0;
  spec.interestHalfRadiusM = 15.0;
  spec.interestFarKeepEvery = 4;
  spec.interestCellM = 4.0;
  spec.viewportFilter = true;
  cluster::InstanceManager mgr{sim, spec, cfg};

  mgr.setDeliverySink([&sim](std::uint32_t inst, std::uint64_t toUser,
                             const Message& m) {
    sim.auditNote((static_cast<std::uint64_t>(inst) << 48) ^ toUser);
    sim.auditNote(m.sequence);
  });

  const int users = 10;
  for (std::uint64_t u = 1; u <= users; ++u) {
    mgr.joinUser(u, regions::usEast());
  }
  std::vector<std::uint64_t> seqs(users + 1, 0);
  std::vector<std::uint64_t> ticks(users + 1, 0);
  std::vector<std::unique_ptr<PeriodicTask>> senders;
  for (std::uint64_t u = 1; u <= users; ++u) {
    senders.push_back(std::make_unique<PeriodicTask>(
        sim, Duration::millis(100), [&mgr, &seqs, &ticks, u] {
          if (RelayRoom* room = mgr.roomOf(u)) {
            // Deterministic orbit: users circle at distinct radii, so pairs
            // wander across band boundaries and cells as the run advances.
            const double phase =
                static_cast<double>(ticks[u]++) * 0.05 + static_cast<double>(u);
            const double radius = 2.0 + 2.5 * static_cast<double>(u);
            room->updatePose(u, Pose{radius * std::cos(phase),
                                     radius * std::sin(phase),
                                     std::fmod(phase * 57.0, 360.0)});
            Message m = poseMsg(u, ++seqs[u]);
            m.pose = Message::PoseHint{0, 0, 0};
            room->broadcast(u, m);
          }
        }));
  }
  sim.schedule(TimePoint::epoch() + Duration::seconds(2),
               [&mgr] { mgr.drain(2); });
  sim.runFor(Duration::seconds(4));
  return sim.auditFingerprint();
}

TEST(InterestAuditSweepTest, DigestsIdenticalAcrossThreadCounts) {
  const auto seeds = defaultSeeds(3);
  for (const unsigned threads : {2u, 8u}) {
    const auto report = audit::verifyThreadInvariance(
        seeds, auditedInterestClusterRun, 1, threads);
    EXPECT_TRUE(report.identical) << report.describe();
  }
}

TEST(InterestAuditSweepTest, SweepActuallyExercisesTheInterestScan) {
  const RunFingerprint fp = auditedInterestClusterRun(4242);
  EXPECT_GT(fp.events, 100u);
}

}  // namespace
}  // namespace msim
