// Replica-consistency tests for the replication tier (src/net/
// replication.*): a primary server fans its applied update stream out to
// subscribed replicas, which replay the SAME validated batches with the
// SAME batch boundaries through the same deterministic kernels — so a
// replica at epoch E must serve scores BITWISE identical to the primary
// at epoch E, not merely close. The suite pins that property under a
// mixed insert/delete stream, through a forced primary-server restart
// (disconnect → backoff → resubscribe → backlog catch-up), and checks the
// failure edges: writes to a replica answer kNotSupported, and a backlog
// trimmed past a subscriber's sequence latches the permanent
// catch-up-failed flag instead of serving a silently diverged replica.
// TSan-clean; CI runs it under -fsanitize=thread.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/dynamic_simrank.h"
#include "graph/generators.h"
#include "graph/update_stream.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "service/simrank_service.h"

namespace incsr::net {
namespace {

using core::DynamicSimRank;
using graph::DynamicDiGraph;
using graph::EdgeUpdate;

simrank::SimRankOptions Converged() {
  simrank::SimRankOptions options;
  options.iterations = 30;
  return options;
}

DynamicDiGraph TestGraph(std::uint64_t seed = 3, std::size_t n = 16,
                         std::size_t m = 40) {
  auto stream = graph::ErdosRenyiGnm(n, m, seed);
  INCSR_CHECK(stream.ok(), "generator");
  return graph::MaterializeGraph(n, stream.value());
}

std::unique_ptr<service::SimRankService> MakePrimary(
    const DynamicDiGraph& graph, service::ServiceOptions options = {}) {
  auto index = DynamicSimRank::Create(graph, Converged());
  INCSR_CHECK(index.ok(), "index build");
  auto service =
      service::SimRankService::Create(std::move(index).value(), options);
  INCSR_CHECK(service.ok(), "service build");
  return std::move(service).value();
}

std::unique_ptr<service::SimRankService> MakeReplica(
    const DynamicDiGraph& graph, service::ServiceOptions options = {}) {
  auto index = DynamicSimRank::Create(graph, Converged());
  INCSR_CHECK(index.ok(), "replica index build");
  auto service = service::SimRankService::CreateReplica(
      std::move(index).value(), options);
  INCSR_CHECK(service.ok(), "replica build");
  return std::move(service).value();
}

std::unique_ptr<ReplicationClient> MustSubscribe(
    service::SimRankService* replica, std::uint16_t primary_port) {
  ReplicationClientOptions options;
  options.primary_port = primary_port;
  auto client = ReplicationClient::Start(replica, options);
  INCSR_CHECK(client.ok(), "subscribe: %s",
              client.status().ToString().c_str());
  return std::move(client).value();
}

// Mixed insert/delete stream over the test graph, valid in submit order.
std::vector<EdgeUpdate> MixedStream(const DynamicDiGraph& graph,
                                    std::size_t inserts, std::size_t deletes,
                                    std::uint64_t seed) {
  Rng rng(seed);
  auto ins = graph::SampleInsertions(graph, inserts, &rng);
  INCSR_CHECK(ins.ok(), "insert sampling");
  auto del = graph::SampleDeletions(graph, deletes, &rng);
  INCSR_CHECK(del.ok(), "delete sampling");
  std::vector<EdgeUpdate> updates;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < ins->size() || b < del->size()) {  // 2:1 interleave
    for (int i = 0; i < 2 && a < ins->size(); ++i) {
      updates.push_back((*ins)[a++]);
    }
    if (b < del->size()) updates.push_back((*del)[b++]);
  }
  return updates;
}

void AwaitEpoch(const service::SimRankService& replica,
                std::uint64_t target) {
  WallTimer timer;
  while (replica.stats().epoch < target) {
    INCSR_CHECK(timer.ElapsedSeconds() < 20.0,
                "replica stuck at epoch %llu of %llu",
                static_cast<unsigned long long>(replica.stats().epoch),
                static_cast<unsigned long long>(target));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void AwaitSubscribers(const IncSrServer& primary, std::size_t target) {
  WallTimer timer;
  while (primary.stats().active_subscribers < target) {
    INCSR_CHECK(timer.ElapsedSeconds() < 20.0,
                "primary stuck at %zu of %zu subscribers",
                primary.stats().active_subscribers, target);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// Every pair's score and every node's top-k, over the wire, must be
// BITWISE equal between the two servers.
void ExpectServersBitwiseIdentical(const IncSrServer& primary,
                                   const IncSrServer& replica,
                                   graph::NodeId num_nodes) {
  auto primary_client = IncSrClient::Connect(primary.host(), primary.port());
  auto replica_client = IncSrClient::Connect(replica.host(), replica.port());
  ASSERT_TRUE(primary_client.ok());
  ASSERT_TRUE(replica_client.ok());
  for (graph::NodeId a = 0; a < num_nodes; ++a) {
    for (graph::NodeId b = 0; b < num_nodes; ++b) {
      auto from_primary = primary_client->Score(a, b);
      auto from_replica = replica_client->Score(a, b);
      ASSERT_TRUE(from_primary.ok());
      ASSERT_TRUE(from_replica.ok());
      ASSERT_EQ(std::bit_cast<std::uint64_t>(*from_primary),
                std::bit_cast<std::uint64_t>(*from_replica))
          << "pair (" << a << ", " << b << ") diverged";
    }
    auto primary_topk = primary_client->TopKFor(a, 6);
    auto replica_topk = replica_client->TopKFor(a, 6);
    ASSERT_TRUE(primary_topk.ok());
    ASSERT_TRUE(replica_topk.ok());
    EXPECT_EQ(*primary_topk, *replica_topk) << "TopKFor(" << a << ")";
  }
}

// The acceptance test: primary + 2 replicas under a mixed insert/delete
// stream submitted over the wire in several batches; after convergence
// every replica serves bitwise what the primary serves at the same epoch.
TEST(Replication, TwoReplicasServeBitwiseIdenticalAnswers) {
  DynamicDiGraph graph = TestGraph(29, 16, 40);
  auto primary = MakePrimary(graph);
  auto primary_server = IncSrServer::Serve(primary.get());
  ASSERT_TRUE(primary_server.ok());

  auto replica_a = MakeReplica(graph);
  auto replica_b = MakeReplica(graph);
  auto server_a = IncSrServer::Serve(replica_a.get());
  auto server_b = IncSrServer::Serve(replica_b.get());
  ASSERT_TRUE(server_a.ok());
  ASSERT_TRUE(server_b.ok());
  auto stream_a = MustSubscribe(replica_a.get(), (*primary_server)->port());
  auto stream_b = MustSubscribe(replica_b.get(), (*primary_server)->port());
  // The server loop registers subscribers asynchronously; a batch applied
  // before registration reaches the replica as backlog catch-up instead
  // of a live stream, so wait for both before submitting.
  AwaitSubscribers(**primary_server, 2);

  auto client =
      IncSrClient::Connect("127.0.0.1", (*primary_server)->port());
  ASSERT_TRUE(client.ok());
  const std::vector<EdgeUpdate> updates = MixedStream(graph, 10, 5, 41);
  for (std::size_t at = 0; at < updates.size(); at += 4) {
    std::vector<EdgeUpdate> batch(
        updates.begin() + static_cast<std::ptrdiff_t>(at),
        updates.begin() +
            static_cast<std::ptrdiff_t>(std::min(updates.size(), at + 4)));
    auto submitted = client->Submit(batch);
    ASSERT_TRUE(submitted.ok());
    EXPECT_EQ(submitted->status, wire::RpcStatus::kOk);
  }
  ASSERT_TRUE(client->Flush().ok());

  const std::uint64_t epoch = primary->stats().epoch;
  EXPECT_GE(epoch, 1u);
  AwaitEpoch(*replica_a, epoch);
  AwaitEpoch(*replica_b, epoch);
  EXPECT_EQ(replica_a->stats().applied, primary->stats().applied);
  EXPECT_EQ(replica_b->stats().applied, primary->stats().applied);

  const auto n = static_cast<graph::NodeId>(graph.num_nodes());
  ExpectServersBitwiseIdentical(**primary_server, **server_a, n);
  ExpectServersBitwiseIdentical(**primary_server, **server_b, n);

  // The replica's Stats RPC identifies it as one.
  auto replica_client =
      IncSrClient::Connect("127.0.0.1", (*server_a)->port());
  ASSERT_TRUE(replica_client.ok());
  auto stats = replica_client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->is_replica);
  EXPECT_EQ(stats->stats.epoch, epoch);

  EXPECT_GE((*primary_server)->stats().batches_streamed, 2u);
  stream_a->Stop();
  stream_b->Stop();
}

// Writes must not sneak in through a replica: Submit answers
// kNotSupported on the wire, and subscribing to a replica is refused.
TEST(Replication, ReplicaRefusesWritesAndSubscriptions) {
  DynamicDiGraph graph = TestGraph(31);
  auto primary = MakePrimary(graph);
  auto primary_server = IncSrServer::Serve(primary.get());
  ASSERT_TRUE(primary_server.ok());
  auto replica = MakeReplica(graph);
  auto replica_server = IncSrServer::Serve(replica.get());
  ASSERT_TRUE(replica_server.ok());

  auto client =
      IncSrClient::Connect("127.0.0.1", (*replica_server)->port());
  ASSERT_TRUE(client.ok());
  auto submit = client->Submit(MixedStream(graph, 2, 0, 5));
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit->status, wire::RpcStatus::kNotSupported);
  EXPECT_EQ(submit->accepted, 0u);

  // A replica server exposes no replication surface: a second-tier
  // replica trying to chain off it must be told kNotSupported.
  auto chained = MakeReplica(graph);
  ReplicationClientOptions options;
  options.primary_port = (*replica_server)->port();
  options.reconnect_initial_ms = 10;
  auto chain = ReplicationClient::Start(chained.get(), options);
  ASSERT_TRUE(chain.ok());
  // The replica answers kNotSupported, so the subscriber never completes
  // a subscription (it just keeps backing off). Give it a few retry
  // rounds' worth of wall clock, then check nothing advanced.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(chained->stats().epoch, 0u);
  EXPECT_EQ((*chain)->subscriptions(), 0u);
  (*chain)->Stop();
}

// Forced TCP disconnect mid-stream: the primary's server is stopped
// (every connection drops, including the replication stream) and a new
// server comes up on the SAME port. The subscriber must notice, back
// off, reconnect, resubscribe from its last applied sequence, and then
// follow the live stream of updates applied AFTER the restart — landing
// bitwise identical again.
TEST(Replication, ReconnectResumesStreamThroughPrimaryServerRestart) {
  DynamicDiGraph graph = TestGraph(37, 16, 40);
  auto primary = MakePrimary(graph);
  auto first_server = IncSrServer::Serve(primary.get());
  ASSERT_TRUE(first_server.ok());
  const std::uint16_t port = (*first_server)->port();

  auto replica = MakeReplica(graph);
  auto replica_server = IncSrServer::Serve(replica.get());
  ASSERT_TRUE(replica_server.ok());
  ReplicationClientOptions sub_options;
  sub_options.primary_port = port;
  sub_options.reconnect_initial_ms = 10;  // fast retry keeps the test quick
  auto subscriber = ReplicationClient::Start(replica.get(), sub_options);
  ASSERT_TRUE(subscriber.ok());

  // Phase 1: converge over the live stream.
  ASSERT_TRUE(primary->SubmitBatch(MixedStream(graph, 6, 3, 43)).ok());
  ASSERT_TRUE(primary->Flush().ok());
  AwaitEpoch(*replica, primary->stats().epoch);

  // Phase 2: kill the server (NOT the service) — the stream drops — and
  // bring up a fresh one on the same port. Its replication log starts at
  // the service's CURRENT epoch, which the replica has already reached,
  // so resubscribing from there is valid.
  (*first_server)->Stop();
  service::SimRankService* raw_primary = primary.get();
  ServerOptions same_port;
  same_port.port = port;
  auto second_server = IncSrServer::Serve(raw_primary, same_port);
  ASSERT_TRUE(second_server.ok()) << second_server.status().ToString();

  // Phase 3: updates applied after the restart reach the replica over
  // the re-established stream.
  ASSERT_TRUE(primary->SubmitBatch(MixedStream(graph, 8, 4, 47)).ok());
  ASSERT_TRUE(primary->Flush().ok());
  AwaitEpoch(*replica, primary->stats().epoch);
  EXPECT_GE((*subscriber)->subscriptions(), 2u);  // it reconnected
  EXPECT_FALSE((*subscriber)->catch_up_failed());
  const auto n = static_cast<graph::NodeId>(graph.num_nodes());
  ExpectServersBitwiseIdentical(**second_server, **replica_server, n);
  (*subscriber)->Stop();
}

// Forced subscriber drop with the server LIVE: updates applied while the
// replica is dark are retained in the server's replication log, so a new
// subscription from the replica's last applied sequence catches up from
// the backlog alone — no live batch needs to arrive.
TEST(Replication, DroppedSubscriberCatchesUpFromBacklog) {
  DynamicDiGraph graph = TestGraph(43, 16, 40);
  auto primary = MakePrimary(graph);
  auto primary_server = IncSrServer::Serve(primary.get());
  ASSERT_TRUE(primary_server.ok());
  auto replica = MakeReplica(graph);
  auto replica_server = IncSrServer::Serve(replica.get());
  ASSERT_TRUE(replica_server.ok());

  auto first = MustSubscribe(replica.get(), (*primary_server)->port());
  ASSERT_TRUE(primary->SubmitBatch(MixedStream(graph, 6, 3, 59)).ok());
  ASSERT_TRUE(primary->Flush().ok());
  AwaitEpoch(*replica, primary->stats().epoch);
  first->Stop();  // replica goes dark

  ASSERT_TRUE(primary->SubmitBatch(MixedStream(graph, 8, 4, 61)).ok());
  ASSERT_TRUE(primary->Flush().ok());
  const std::uint64_t target = primary->stats().epoch;
  EXPECT_LT(replica->stats().epoch, target);

  // Resubscribe: from_seq = the replica's epoch; everything newer is
  // still retained (default backlog ≫ the handful of batches here).
  auto second = MustSubscribe(replica.get(), (*primary_server)->port());
  AwaitEpoch(*replica, target);
  EXPECT_FALSE(second->catch_up_failed());
  const auto n = static_cast<graph::NodeId>(graph.num_nodes());
  ExpectServersBitwiseIdentical(**primary_server, **replica_server, n);
  second->Stop();
}

// A server attached to a service that already has history starts its log
// at the attach-time epoch: a replica behind that floor must be told
// kInvalid (catch-up impossible) — NOT be accepted and then fed a stream
// with a hole in it.
TEST(Replication, FreshServerRefusesSubscribersBehindItsAttachEpoch) {
  DynamicDiGraph graph = TestGraph(47, 12, 30);
  auto primary = MakePrimary(graph);
  // History applied while NO server is attached.
  ASSERT_TRUE(primary->SubmitBatch(MixedStream(graph, 6, 3, 67)).ok());
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_GE(primary->stats().epoch, 1u);

  auto late_server = IncSrServer::Serve(primary.get());
  ASSERT_TRUE(late_server.ok());
  auto replica = MakeReplica(graph);  // starts at epoch 0, behind the floor
  ReplicationClientOptions options;
  options.primary_port = (*late_server)->port();
  options.reconnect_initial_ms = 10;
  auto subscriber = ReplicationClient::Start(replica.get(), options);
  ASSERT_TRUE(subscriber.ok());

  WallTimer timer;
  while (!(*subscriber)->catch_up_failed()) {
    INCSR_CHECK(timer.ElapsedSeconds() < 10.0, "catch-up failure not latched");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(replica->stats().epoch, 0u);  // nothing partial was applied
  (*subscriber)->Stop();
}

// A replica whose sequence aged out of the primary's bounded backlog must
// latch catch_up_failed instead of silently serving stale state.
TEST(Replication, TrimmedBacklogLatchesCatchUpFailed) {
  DynamicDiGraph graph = TestGraph(41, 12, 30);
  service::ServiceOptions tiny_batches;
  tiny_batches.max_batch = 1;  // one epoch per update → many log entries
  auto primary = MakePrimary(graph, tiny_batches);
  ServerOptions small_log;
  small_log.replication_backlog = 2;  // keep only the last two batches
  auto primary_server = IncSrServer::Serve(primary.get(), small_log);
  ASSERT_TRUE(primary_server.ok());

  // Advance the primary well past what a from-scratch replica can reach.
  ASSERT_TRUE(primary->SubmitBatch(MixedStream(graph, 8, 4, 53)).ok());
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_GT(primary->stats().epoch, 2u);

  auto replica = MakeReplica(graph);
  ReplicationClientOptions options;
  options.primary_port = (*primary_server)->port();
  options.reconnect_initial_ms = 10;
  auto subscriber = ReplicationClient::Start(replica.get(), options);
  ASSERT_TRUE(subscriber.ok());

  WallTimer timer;
  while (!(*subscriber)->catch_up_failed()) {
    INCSR_CHECK(timer.ElapsedSeconds() < 10.0, "catch-up failure not latched");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE((*subscriber)->catch_up_failed());
  EXPECT_EQ(replica->stats().epoch, 0u);  // never applied a thing
  (*subscriber)->Stop();
}

}  // namespace
}  // namespace incsr::net
