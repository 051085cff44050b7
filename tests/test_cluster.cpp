// Tests for ebmf::cluster: the versioned membership registry
// (join/heartbeat/evict epochs), epoch-stamped view swaps, the hot-key
// tracker, and the live control plane end to end — a backend joining
// mid-burst without losing an in-flight request, a promoted hot key
// surviving the death of its primary replica, epoch swaps leaving
// permuted-duplicate affinity intact, heartbeat eviction, and the
// server-side announce client.

#include "cluster/membership.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generators.h"
#include "cluster/replica.h"
#include "cluster/view.h"
#include "engine/engine.h"
#include "io/json.h"
#include "io/request_io.h"
#include "router/router.h"
#include "service/canon.h"
#include "service/service.h"
#include "support/rng.h"

namespace ebmf::cluster {
namespace {

using namespace std::chrono_literals;

// ---- membership -----------------------------------------------------------

TEST(Membership, JoinBumpsTheEpochOnceAndRejoinRefreshes) {
  Membership members(1s);
  const auto t0 = Clock::now();
  const MembershipUpdate first = members.join("a:1", t0);
  EXPECT_TRUE(first.changed);
  EXPECT_TRUE(first.known);
  EXPECT_EQ(first.epoch, 1u);
  // A re-join of a live member is a heartbeat, not a membership change.
  const MembershipUpdate again = members.join("a:1", t0 + 100ms);
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_EQ(members.size(), 1u);
}

TEST(Membership, HeartbeatRefreshesKnownMembersAndRejectsUnknown) {
  Membership members(1s);
  const auto t0 = Clock::now();
  members.join("a:1", t0);
  EXPECT_TRUE(members.heartbeat("a:1", t0 + 500ms).known);
  EXPECT_FALSE(members.heartbeat("ghost:1", t0).known);
  // The refreshed member survives a sweep its original join would not.
  EXPECT_TRUE(members.sweep(t0 + 1400ms).empty());
  const std::vector<std::string> evicted = members.sweep(t0 + 2600ms);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "a:1");
  EXPECT_EQ(members.size(), 0u);
  // Post-eviction heartbeats demand a re-join.
  EXPECT_FALSE(members.heartbeat("a:1", t0 + 3s).known);
}

TEST(Membership, StaticMembersAreNeverSwept) {
  Membership members(10ms);
  members.add_static("seed:1");
  const auto t0 = Clock::now();
  members.join("dyn:1", t0);
  const std::vector<std::string> evicted = members.sweep(t0 + 10s);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "dyn:1");
  EXPECT_EQ(members.size(), 1u);
  EXPECT_EQ(members.members()[0].endpoint, "seed:1");
  EXPECT_TRUE(members.members()[0].is_static);
}

TEST(Membership, LeaveRemovesAndBumpsEpoch) {
  Membership members(1s);
  members.add_static("a:1");
  members.join("b:1");
  const std::uint64_t before = members.epoch();
  EXPECT_TRUE(members.leave("b:1").changed);
  EXPECT_EQ(members.epoch(), before + 1);
  EXPECT_FALSE(members.leave("b:1").changed);  // idempotent
  EXPECT_EQ(members.epoch(), before + 1);
  EXPECT_TRUE(members.leave("a:1").changed);  // static members may drain too
  EXPECT_EQ(members.size(), 0u);
}

// ---- view -----------------------------------------------------------------

TEST(ClusterView, OrderedIsAPermutationAndTopTruncates) {
  const auto view = ClusterView::make(7, {"a:1", "b:1", "c:1"});
  EXPECT_EQ(view->epoch(), 7u);
  EXPECT_EQ(view->size(), 3u);
  for (std::uint64_t key = 0; key < 32; ++key) {
    const std::vector<std::string> order = view->ordered(key);
    ASSERT_EQ(order.size(), 3u);
    const std::vector<std::string> top = view->top(key, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], order[0]);
    EXPECT_EQ(top[1], order[1]);
  }
  EXPECT_TRUE(ClusterView::make(0, {})->empty());
}

TEST(ViewHolder, PublishSwapsWhileOldSnapshotsStayValid) {
  ViewHolder holder;
  const auto old_view = holder.current();
  EXPECT_TRUE(old_view->empty());
  holder.publish(ClusterView::make(3, {"a:1"}));
  EXPECT_EQ(holder.current()->epoch(), 3u);
  EXPECT_EQ(holder.current()->size(), 1u);
  // The snapshot taken before the swap is untouched.
  EXPECT_TRUE(old_view->empty());
}

// ---- hot keys -------------------------------------------------------------

TEST(HotKeyTracker, PromotesExactlyOnceAtTheThreshold) {
  HotKeyTracker tracker({/*promote_threshold=*/3, /*max_tracked=*/1024});
  EXPECT_FALSE(tracker.record(42).promoted);
  EXPECT_FALSE(tracker.record(42).promoted);
  const HotKeyUpdate third = tracker.record(42);
  EXPECT_TRUE(third.promoted);
  EXPECT_TRUE(third.promoted_now);
  EXPECT_EQ(third.hits, 3u);
  const HotKeyUpdate fourth = tracker.record(42);
  EXPECT_TRUE(fourth.promoted);
  EXPECT_FALSE(fourth.promoted_now);  // promotion fires once
  EXPECT_TRUE(tracker.is_promoted(42));
  EXPECT_FALSE(tracker.is_promoted(43));
  EXPECT_EQ(tracker.promoted_count(), 1u);
}

TEST(HotKeyTracker, ZeroThresholdDisablesTracking) {
  HotKeyTracker tracker({/*promote_threshold=*/0, /*max_tracked=*/1024});
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(tracker.record(1).promoted);
  EXPECT_EQ(tracker.tracked_count(), 0u);
}

TEST(HotKeyTracker, DecayBoundsTrackedKeysButKeepsPromotions) {
  HotKeyTracker tracker({/*promote_threshold=*/4, /*max_tracked=*/64});
  for (int i = 0; i < 4; ++i) tracker.record(7);  // promoted
  // A flood of one-off keys must not grow the map unboundedly.
  for (std::uint64_t key = 100; key < 1100; ++key) tracker.record(key);
  EXPECT_LE(tracker.tracked_count(), 65u);
  EXPECT_TRUE(tracker.is_promoted(7));
}

// ---- control plane end to end ---------------------------------------------

service::ServerOptions backend_options() {
  service::ServerOptions options;
  options.port = 0;  // ephemeral
  options.cache_mb = 8;
  options.budget_ceiling_seconds = 5.0;
  return options;
}

router::RouterOptions dynamic_options() {
  router::RouterOptions options;
  options.port = 0;
  options.dynamic = true;
  options.l1_mb = 0.0;  // observe the *backend* caches by default
  options.backoff_base_ms = 5;
  options.backoff_max_ms = 50;
  options.health_interval_ms = 10;
  options.reply_timeout_seconds = 10.0;
  options.heartbeat_ms = 50.0;
  options.grace_ms = 10000.0;  // eviction off unless a test wants it
  options.promote_after = 0;   // promotion off unless a test wants it
  return options;
}

/// Parsed response convenience (same shape as test_router.cpp's Reply).
struct Reply {
  io::json::Value document;

  explicit Reply(const std::string& line)
      : document(io::json::Value::parse(line)) {}

  [[nodiscard]] bool is_error() const {
    return document.find("error") != nullptr;
  }
  [[nodiscard]] double depth() const {
    return document.find("depth")->as_number();
  }
  [[nodiscard]] std::string label() const {
    const io::json::Value* value = document.find("label");
    return value == nullptr ? "" : value->as_string();
  }
  [[nodiscard]] std::string telemetry(const std::string& key) const {
    const io::json::Value* t = document.find("telemetry");
    if (t == nullptr) return "";
    const io::json::Value* value = t->find(key);
    return value == nullptr ? "" : value->as_string();
  }
};

std::string endpoint_of(const service::Server& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

std::string pattern_text(const BinaryMatrix& m) {
  std::string text;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i != 0) text += ';';
    text += m.row(i).to_string();
  }
  return text;
}

/// A fresh row/column permutation of `m`.
BinaryMatrix permuted_copy(const BinaryMatrix& m, Rng& rng) {
  const auto row_perm = rng.permutation(m.rows());
  const auto col_perm = rng.permutation(m.cols());
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

/// Poll `predicate` at 10 ms until true or ~3 s elapse.
bool eventually(const std::function<bool()>& predicate) {
  for (int tries = 0; tries < 300; ++tries) {
    if (predicate()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return false;
}

TEST(Cluster, JoinMidBurstStartsReceivingTrafficWithoutDroppingRequests) {
  // One static backend; a second joins in the middle of a pipelined burst.
  auto server_a = std::make_unique<service::Server>(backend_options());
  server_a->start();
  auto server_b = std::make_unique<service::Server>(backend_options());
  server_b->start();

  router::RouterOptions options = dynamic_options();
  options.backends = {endpoint_of(*server_a)};
  router::Router router(options);
  router.start();

  service::Client client("127.0.0.1", router.port());
  const int burst = 24;
  for (int i = 0; i < burst / 2; ++i)
    client.send_line("{\"pattern\": \"" +
                     std::string(i % 2 == 0 ? "110;011;111" : "10;01") +
                     "\", \"label\": \"b" + std::to_string(i) + "\"}");

  // Join B while the first half is in flight.
  service::Client control("127.0.0.1", router.port());
  const Reply joined(control.round_trip("{\"op\":\"join\",\"endpoint\":\"" +
                                        endpoint_of(*server_b) + "\"}"));
  ASSERT_FALSE(joined.is_error());
  EXPECT_TRUE(joined.document.find("joined")->as_bool());
  EXPECT_GE(joined.document.find("epoch")->as_number(), 2.0);

  for (int i = burst / 2; i < burst; ++i)
    client.send_line("{\"pattern\": \"" +
                     std::string(i % 2 == 0 ? "110;011;111" : "10;01") +
                     "\", \"label\": \"b" + std::to_string(i) + "\"}");

  // Zero lost requests across the epoch swap: every line answers, in order.
  for (int i = 0; i < burst; ++i) {
    const Reply reply(client.read_line());
    ASSERT_FALSE(reply.is_error()) << i << ": lost a request";
    EXPECT_EQ(reply.label(), "b" + std::to_string(i));
    EXPECT_EQ(reply.depth(), i % 2 == 0 ? 3.0 : 2.0);
  }

  // The joined backend owns ~half the key space: distinct patterns must
  // start landing on it.
  Rng rng(11);
  bool b_served = false;
  for (int attempt = 0; attempt < 40 && !b_served; ++attempt) {
    BinaryMatrix m = benchgen::random_matrix(5, 5, 0.5, rng);
    if (m.is_zero()) continue;
    const Reply reply(
        client.round_trip("{\"pattern\": \"" + pattern_text(m) + "\"}"));
    ASSERT_FALSE(reply.is_error());
    if (reply.telemetry("routed.backend") == endpoint_of(*server_b))
      b_served = true;
  }
  EXPECT_TRUE(b_served);
  EXPECT_GT(server_b->stats().requests, 0u);
  EXPECT_EQ(router.stats().joins, 1u);
  EXPECT_EQ(router.stats().members, 2u);

  router.stop();
  server_a->stop();
  server_b->stop();
}

TEST(Cluster, PromotedHotKeySurvivesReplicaKill) {
  auto server_a = std::make_unique<service::Server>(backend_options());
  server_a->start();
  auto server_b = std::make_unique<service::Server>(backend_options());
  server_b->start();

  router::RouterOptions options = dynamic_options();
  options.backends = {endpoint_of(*server_a), endpoint_of(*server_b)};
  options.replicas = 2;
  options.promote_after = 3;
  router::Router router(options);
  router.start();

  service::Client client("127.0.0.1", router.port());
  const std::string pattern = R"({"pattern": "1110;0111;1111"})";

  const Reply cold(client.round_trip(pattern));
  ASSERT_FALSE(cold.is_error());
  const std::string owner = cold.telemetry("routed.backend");
  service::Server* primary =
      owner == endpoint_of(*server_a) ? server_a.get() : server_b.get();
  service::Server* survivor =
      owner == endpoint_of(*server_a) ? server_b.get() : server_a.get();

  const Reply second(client.round_trip(pattern));
  ASSERT_FALSE(second.is_error());
  EXPECT_TRUE(second.telemetry("cluster.promote").empty());
  const Reply third(client.round_trip(pattern));
  ASSERT_FALSE(third.is_error());
  // The third hit crosses --promote-after=3: the reply is stamped and the
  // result fans out to the replica set.
  EXPECT_EQ(third.telemetry("cluster.promote"), "3");
  EXPECT_EQ(router.stats().promotions, 1u);
  ASSERT_TRUE(eventually([&]() { return survivor->stats().puts >= 1; }))
      << "replica put never reached the surviving backend";
  EXPECT_GE(router.stats().replica_puts, 1u);

  // Kill the primary; the router must notice.
  primary->stop();
  ASSERT_TRUE(eventually([&]() {
    for (const router::BackendHealth& backend : router.stats().backends)
      if (backend.endpoint == owner && !backend.alive) return true;
    return false;
  }));

  // The hot key is still served *warm*, from the surviving replica.
  const Reply after(client.round_trip(pattern));
  ASSERT_FALSE(after.is_error());
  EXPECT_EQ(after.depth(), cold.depth());
  EXPECT_EQ(after.telemetry("routed.backend"), endpoint_of(*survivor));
  EXPECT_EQ(after.telemetry("cache_hit"), "true");
  EXPECT_FALSE(after.telemetry("cluster.replica_hit").empty());
  EXPECT_GE(router.stats().replica_hits, 1u);

  router.stop();
  survivor->stop();
}

TEST(Cluster, EpochSwapKeepsPermutedDuplicateAffinityForNonPromotedKeys) {
  auto server_a = std::make_unique<service::Server>(backend_options());
  server_a->start();
  auto server_b = std::make_unique<service::Server>(backend_options());
  server_b->start();

  router::RouterOptions options = dynamic_options();
  options.backends = {endpoint_of(*server_a), endpoint_of(*server_b)};
  router::Router router(options);
  router.start();

  service::Client client("127.0.0.1", router.port());
  Rng rng(5);
  const std::vector<BinaryMatrix> bases = {
      BinaryMatrix::parse("1110;0111;1111"),
      BinaryMatrix::parse("110;011;111"),
      BinaryMatrix::parse("10;01"),
  };
  std::vector<std::string> owners;
  for (const BinaryMatrix& base : bases) {
    const Reply cold(client.round_trip("{\"pattern\": \"" +
                                       pattern_text(base) + "\"}"));
    ASSERT_FALSE(cold.is_error());
    owners.push_back(cold.telemetry("routed.backend"));
  }

  // Epoch churn: a third member joins and leaves again (it need not even
  // be reachable — membership is the router's view, liveness is the
  // pool's).
  service::Client control("127.0.0.1", router.port());
  const std::uint64_t epoch_before = router.stats().epoch;
  const Reply joined(control.round_trip(
      R"({"op":"join","endpoint":"127.0.0.1:1"})"));
  ASSERT_FALSE(joined.is_error());
  const Reply left(control.round_trip(
      R"({"op":"leave","endpoint":"127.0.0.1:1"})"));
  ASSERT_FALSE(left.is_error());
  EXPECT_TRUE(left.document.find("left")->as_bool());
  EXPECT_EQ(router.stats().epoch, epoch_before + 2);
  EXPECT_EQ(router.stats().members, 2u);

  // Static members are the command line's, not the wire's: a leave for a
  // configured backend is refused and moves nothing.
  const Reply refused(control.round_trip("{\"op\":\"leave\",\"endpoint\":\"" +
                                         endpoint_of(*server_a) + "\"}"));
  EXPECT_TRUE(refused.is_error());
  EXPECT_EQ(router.stats().members, 2u);
  EXPECT_EQ(router.stats().epoch, epoch_before + 2);

  // Permuted duplicates still land on their original backend, warm.
  for (std::size_t k = 0; k < bases.size(); ++k) {
    const Reply warm(client.round_trip(
        "{\"pattern\": \"" + pattern_text(permuted_copy(bases[k], rng)) +
        "\"}"));
    ASSERT_FALSE(warm.is_error()) << k;
    EXPECT_EQ(warm.telemetry("routed.backend"), owners[k]) << k;
    EXPECT_EQ(warm.telemetry("cache_hit"), "true") << k;
  }

  router.stop();
  server_a->stop();
  server_b->stop();
}

TEST(Cluster, MissedHeartbeatsEvictAnnouncedMembers) {
  auto server_a = std::make_unique<service::Server>(backend_options());
  server_a->start();

  router::RouterOptions options = dynamic_options();
  options.backends = {endpoint_of(*server_a)};
  options.heartbeat_ms = 20.0;
  options.grace_ms = 100.0;
  router::Router router(options);
  router.start();

  service::Client control("127.0.0.1", router.port());
  // A member that joins and then falls silent (nothing listens there; the
  // pool simply stays in backoff).
  const Reply joined(control.round_trip(
      R"({"op":"join","endpoint":"127.0.0.1:1"})"));
  ASSERT_FALSE(joined.is_error());
  EXPECT_EQ(router.stats().members, 2u);
  const Reply beat(control.round_trip(
      R"({"op":"heartbeat","endpoint":"127.0.0.1:1"})"));
  ASSERT_FALSE(beat.is_error());
  EXPECT_TRUE(beat.document.find("ok")->as_bool());

  // Silence past the grace window: the health thread evicts it.
  ASSERT_TRUE(eventually([&]() { return router.stats().members == 1; }));
  EXPECT_GE(router.stats().evictions, 1u);
  // Post-eviction heartbeats are told to re-join.
  const Reply stale(control.round_trip(
      R"({"op":"heartbeat","endpoint":"127.0.0.1:1"})"));
  ASSERT_FALSE(stale.is_error());
  EXPECT_FALSE(stale.document.find("ok")->as_bool());
  EXPECT_TRUE(stale.document.find("rejoin")->as_bool());
  // The static seed is untouched and still serves.
  const Reply solve(control.round_trip(R"({"pattern": "10;01"})"));
  ASSERT_FALSE(solve.is_error());
  EXPECT_EQ(solve.depth(), 2.0);

  router.stop();
  server_a->stop();
}

TEST(Cluster, ServerAnnounceJoinsHeartbeatsAndLeavesOnStop) {
  // A dynamic router that starts *empty*; the backend finds it by itself.
  router::RouterOptions options = dynamic_options();
  router::Router router(options);
  router.start();

  service::ServerOptions backend = backend_options();
  backend.announce = "127.0.0.1:" + std::to_string(router.port());
  backend.heartbeat_ms = 20.0;
  auto server = std::make_unique<service::Server>(backend);
  server->start();

  ASSERT_TRUE(eventually([&]() { return router.stats().members == 1; }))
      << "announce never joined";
  EXPECT_EQ(router.stats().joins, 1u);
  // The server counts its join once it has read the router's ack, which
  // can land after the router already lists it as a member.
  EXPECT_TRUE(eventually([&]() { return server->stats().joins_sent >= 1; }));

  service::Client client("127.0.0.1", router.port());
  const Reply solve(client.round_trip(R"({"pattern": "110;011;111"})"));
  ASSERT_FALSE(solve.is_error());
  EXPECT_EQ(solve.depth(), 3.0);
  EXPECT_EQ(solve.telemetry("routed.backend"), endpoint_of(*server));

  // A graceful stop says goodbye; the router's member set empties without
  // waiting out the grace window (grace is 10 s here).
  server->stop();
  ASSERT_TRUE(eventually([&]() { return router.stats().members == 0; }))
      << "leave never arrived";
  EXPECT_EQ(router.stats().leaves, 1u);
  const Reply no_backend(client.round_trip(R"({"pattern": "10;01"})"));
  EXPECT_TRUE(no_backend.is_error());

  router.stop();
}

TEST(Cluster, MembershipVerbsNeedADynamicRouter) {
  auto server = std::make_unique<service::Server>(backend_options());
  server->start();

  router::RouterOptions options = dynamic_options();
  options.dynamic = false;
  options.backends = {endpoint_of(*server)};
  router::Router router(options);
  router.start();

  service::Client client("127.0.0.1", router.port());
  const Reply join(client.round_trip(
      R"({"op":"join","endpoint":"127.0.0.1:9"})"));
  EXPECT_TRUE(join.is_error());
  // A backend server refuses membership verbs outright (misconfigured
  // announce targets must not be swallowed).
  service::Client direct("127.0.0.1", server->port());
  const Reply misdirected(direct.round_trip(
      R"({"op":"join","endpoint":"127.0.0.1:9"})"));
  EXPECT_TRUE(misdirected.is_error());
  // And the router refuses puts (they flow router -> backend).
  const Reply put(client.round_trip(
      R"({"op":"put","pattern":"10;01","strategy":"auto","report":{}})"));
  EXPECT_TRUE(put.is_error());

  router.stop();
  server->stop();
}

TEST(Cluster, PutVerbWarmsABackendCacheWithAValidatedCertificate) {
  auto server = std::make_unique<service::Server>(backend_options());
  server->start();

  // Solve the canonical pattern locally to build a certified report.
  const BinaryMatrix base = BinaryMatrix::parse("1110;0111;1111");
  const canon::Canonical canonical = canon::canonicalize(base);
  engine::Engine engine;
  const engine::SolveReport solved =
      engine.solve(engine::SolveRequest::dense(canonical.pattern, "auto"));
  ASSERT_FALSE(solved.partition.empty());

  io::WireRequest put;
  put.op = io::WireOp::Put;
  put.id = 4;
  put.request.matrix = canonical.pattern;
  put.request.strategy = "auto";
  put.put_report = solved;

  service::Client client("127.0.0.1", server->port());
  const Reply accepted(client.round_trip(io::wire_request_json(put)));
  ASSERT_FALSE(accepted.is_error());
  EXPECT_TRUE(accepted.document.find("ok")->as_bool());
  EXPECT_EQ(server->stats().puts, 1u);

  // The put warmed the cache: the first solve of that pattern hits.
  const Reply warm(client.round_trip("{\"pattern\": \"" +
                                     pattern_text(canonical.pattern) +
                                     "\"}"));
  ASSERT_FALSE(warm.is_error());
  EXPECT_EQ(warm.telemetry("cache_hit"), "true");
  EXPECT_EQ(warm.depth(), static_cast<double>(solved.partition.size()));

  // A certificate that does not witness the pattern is rejected, never
  // cached.
  io::WireRequest bogus = put;
  bogus.request.matrix = canonical.pattern;
  bogus.put_report.partition.clear();
  const Reply rejected(client.round_trip(io::wire_request_json(bogus)));
  EXPECT_TRUE(rejected.is_error());
  EXPECT_EQ(server->stats().puts, 1u);

  server->stop();
}

}  // namespace
}  // namespace ebmf::cluster
