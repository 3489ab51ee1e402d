// Protocol-hardening tests for the binary wire format (src/net/wire.*):
// every message type round-trips encode → decode bit-exactly, and every
// malformed input — truncated frames, oversized length prefixes, unknown
// tags, wrong versions, inflated element counts, trailing garbage, and
// plain random bytes — yields a clean error (false / non-OK Status),
// never a crash, over-read, hang, or unbounded allocation. CI runs this
// under ASan/UBSan, which is what turns "no over-read" into a checked
// property rather than a hope.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "graph/update_stream.h"
#include "net/wire.h"
#include "obs/histogram.h"
#include "stats_schema_util.h"

namespace incsr::net::wire {
namespace {

using core::ScoredPair;
using graph::EdgeUpdate;
using graph::UpdateKind;

// Encodes a body, frames it, re-parses the frame, and decodes it back,
// checking the tag survives. Returns the decoded message.
template <typename Message>
Message FrameRoundTrip(MessageTag tag, const Message& in) {
  std::string body;
  in.EncodeBody(&body);
  const std::string frame = EncodeFrame(tag, body);

  std::uint8_t prefix[4];
  EXPECT_GE(frame.size(), kFramePrefixBytes);
  std::memcpy(prefix, frame.data(), kFramePrefixBytes);
  auto payload_len = ParseFrameLength(prefix, kMaxFramePayload);
  EXPECT_TRUE(payload_len.ok()) << payload_len.status().ToString();
  EXPECT_EQ(*payload_len, frame.size() - kFramePrefixBytes);

  auto parsed = ParseFramePayload(
      std::string_view(frame).substr(kFramePrefixBytes));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tag, tag);

  Message out;
  EXPECT_TRUE(Message::DecodeBody(parsed->body, &out));
  return out;
}

// Every strict prefix of a valid body must fail decode — the Reader's
// latched-failure design makes truncation at ANY byte boundary clean.
template <typename Message>
void ExpectAllTruncationsFail(const Message& in) {
  std::string body;
  in.EncodeBody(&body);
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    Message out;
    EXPECT_FALSE(
        Message::DecodeBody(std::string_view(body.data(), cut), &out))
        << "decode accepted a body truncated to " << cut << " of "
        << body.size() << " bytes";
  }
  // And a byte of trailing garbage must fail too (Complete() contract).
  std::string padded = body + '\x5a';
  Message out;
  EXPECT_FALSE(Message::DecodeBody(padded, &out));
}

TEST(WireRoundTrip, SubmitRequest) {
  SubmitRequest in;
  in.updates = {{UpdateKind::kInsert, 3, 7},
                {UpdateKind::kDelete, 0, 12},
                {UpdateKind::kInsert, 1, 1}};
  SubmitRequest out = FrameRoundTrip(MessageTag::kSubmitRequest, in);
  EXPECT_EQ(out.updates, in.updates);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, SubmitRequestEmptyBatch) {
  SubmitRequest in;  // zero updates is a valid (no-op) batch
  SubmitRequest out = FrameRoundTrip(MessageTag::kSubmitRequest, in);
  EXPECT_TRUE(out.updates.empty());
}

TEST(WireRoundTrip, SubmitResponse) {
  SubmitResponse in;
  in.status = RpcStatus::kOverloaded;
  in.accepted = 40;
  in.rejected = 24;
  SubmitResponse out = FrameRoundTrip(MessageTag::kSubmitResponse, in);
  EXPECT_EQ(out.status, RpcStatus::kOverloaded);
  EXPECT_EQ(out.accepted, 40u);
  EXPECT_EQ(out.rejected, 24u);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, ScoreRequest) {
  ScoreRequest in;
  in.a = 5;
  in.b = 11;
  ScoreRequest out = FrameRoundTrip(MessageTag::kScoreRequest, in);
  EXPECT_EQ(out.a, 5);
  EXPECT_EQ(out.b, 11);
  ExpectAllTruncationsFail(in);
}

// Doubles cross the wire as raw IEEE-754 bits: denormals, negative zero,
// and NaN payloads all survive bitwise — the property the loopback
// bitwise-identity tests build on.
TEST(WireRoundTrip, ScoreResponseIsBitwise) {
  for (double value :
       {0.6, -0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL})}) {
    ScoreResponse in;
    in.score = value;
    ScoreResponse out = FrameRoundTrip(MessageTag::kScoreResponse, in);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.score),
              std::bit_cast<std::uint64_t>(value));
  }
  ExpectAllTruncationsFail(ScoreResponse{});
}

TEST(WireRoundTrip, TopKForRequest) {
  TopKForRequest in;
  in.node = 9;
  in.k = 25;
  TopKForRequest out = FrameRoundTrip(MessageTag::kTopKForRequest, in);
  EXPECT_EQ(out.node, 9);
  EXPECT_EQ(out.k, 25u);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, TopKPairsRequest) {
  TopKPairsRequest in;
  in.k = 100;
  TopKPairsRequest out = FrameRoundTrip(MessageTag::kTopKPairsRequest, in);
  EXPECT_EQ(out.k, 100u);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, TopKResponse) {
  TopKResponse in;
  in.entries = {{0, 4, 0.75}, {0, 2, 0.25}, {0, 9, 0.25}};
  TopKResponse out = FrameRoundTrip(MessageTag::kTopKResponse, in);
  EXPECT_EQ(out.entries, in.entries);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, SuggestRequest) {
  SuggestRequest in;
  in.k = 5;
  in.nodes = {1, 4, 4, 0};
  SuggestRequest out = FrameRoundTrip(MessageTag::kSuggestRequest, in);
  EXPECT_EQ(out.k, 5u);
  EXPECT_EQ(out.nodes, in.nodes);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, SuggestResponse) {
  SuggestResponse in;
  in.status = RpcStatus::kInvalid;
  in.suggestions.push_back({3, true, {{3, 1, 0.5}, {3, 0, 0.25}}});
  in.suggestions.push_back({99, false, {}});
  SuggestResponse out = FrameRoundTrip(MessageTag::kSuggestResponse, in);
  EXPECT_EQ(out.status, RpcStatus::kInvalid);
  ASSERT_EQ(out.suggestions.size(), 2u);
  EXPECT_EQ(out.suggestions[0].node, 3);
  EXPECT_TRUE(out.suggestions[0].found);
  EXPECT_EQ(out.suggestions[0].entries, in.suggestions[0].entries);
  EXPECT_EQ(out.suggestions[1].node, 99);
  EXPECT_FALSE(out.suggestions[1].found);
  EXPECT_TRUE(out.suggestions[1].entries.empty());
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, StatsResponse) {
  StatsResponse in;
  in.stats.epoch = 17;
  in.stats.submitted = 400;
  in.stats.applied = 390;
  in.stats.rejected = 6;
  in.stats.failed = 4;
  in.stats.batches = 17;
  in.stats.queue_depth = 3;
  in.stats.rows_published = 1234;
  in.stats.bytes_published = 9876;
  in.stats.topk_index_served = 55;
  in.stats.topk_index_fallbacks = 5;
  in.stats.topk_index_rows_reranked = 600;
  in.stats.topk_index_rows_patched = 580;
  in.stats.cache.hits = 10;
  in.stats.cache.misses = 20;
  in.stats.cache.invalidations = 30;
  in.stats.cache.evictions = 40;
  in.stats.cache.stale_inserts = 50;
  in.num_nodes = 1000;
  in.num_edges = 5000;
  in.is_replica = true;
  in.stats.rows_sparse = 700;
  in.stats.rows_dense = 300;
  in.stats.bytes_saved = 123456;
  in.stats.sparse_eps_drops = 42;
  in.stats.sparse_max_error_bound = 1.25e-4;
  in.stats.tier_demotions = 12;
  in.stats.graph_bytes_copied = 2048;
  in.stats.rows_spilled_dense = 9;
  in.stats.sparse_write_merges = 811;
  // v4 latency histograms, populated through the real recorder so the
  // encoded snapshots carry the count == Σ buckets invariant the sparse
  // decoder reconstructs.
  {
    obs::Histogram queue_wait;
    for (std::uint64_t v : {0ull, 800ull, 1500ull, 1500ull, 1ull << 20}) {
      queue_wait.Record(v);
    }
    in.stats.queue_wait_ns = queue_wait.snapshot();
    obs::Histogram apply;
    for (std::uint64_t v : {250'000ull, 900'000ull, 12'000'000ull}) {
      apply.Record(v);
    }
    in.stats.apply_ns = apply.snapshot();
  }
  StatsResponse out = FrameRoundTrip(MessageTag::kStatsResponse, in);
  EXPECT_EQ(out.stats.epoch, 17u);
  EXPECT_EQ(out.stats.submitted, 400u);
  EXPECT_EQ(out.stats.applied, 390u);
  EXPECT_EQ(out.stats.rejected, 6u);
  EXPECT_EQ(out.stats.failed, 4u);
  EXPECT_EQ(out.stats.batches, 17u);
  EXPECT_EQ(out.stats.queue_depth, 3u);
  EXPECT_EQ(out.stats.rows_published, 1234u);
  EXPECT_EQ(out.stats.bytes_published, 9876u);
  EXPECT_EQ(out.stats.topk_index_served, 55u);
  EXPECT_EQ(out.stats.topk_index_fallbacks, 5u);
  EXPECT_EQ(out.stats.topk_index_rows_reranked, 600u);
  EXPECT_EQ(out.stats.topk_index_rows_patched, 580u);
  EXPECT_EQ(out.stats.cache.hits, 10u);
  EXPECT_EQ(out.stats.cache.misses, 20u);
  EXPECT_EQ(out.stats.cache.invalidations, 30u);
  EXPECT_EQ(out.stats.cache.evictions, 40u);
  EXPECT_EQ(out.stats.cache.stale_inserts, 50u);
  EXPECT_EQ(out.num_nodes, 1000u);
  EXPECT_EQ(out.num_edges, 5000u);
  EXPECT_TRUE(out.is_replica);
  EXPECT_EQ(out.stats.rows_sparse, 700u);
  EXPECT_EQ(out.stats.rows_dense, 300u);
  EXPECT_EQ(out.stats.bytes_saved, 123456u);
  EXPECT_EQ(out.stats.sparse_eps_drops, 42u);
  EXPECT_EQ(out.stats.sparse_max_error_bound, 1.25e-4);
  EXPECT_EQ(out.stats.tier_demotions, 12u);
  EXPECT_EQ(out.stats.graph_bytes_copied, 2048u);
  EXPECT_EQ(out.stats.rows_spilled_dense, 9u);
  EXPECT_EQ(out.stats.sparse_write_merges, 811u);
  EXPECT_EQ(out.stats.queue_wait_ns.count, 5u);
  EXPECT_EQ(out.stats.queue_wait_ns.sum, in.stats.queue_wait_ns.sum);
  EXPECT_EQ(out.stats.queue_wait_ns.min, 0u);
  EXPECT_EQ(out.stats.queue_wait_ns.max, 1u << 20);
  EXPECT_EQ(out.stats.queue_wait_ns.buckets, in.stats.queue_wait_ns.buckets);
  EXPECT_EQ(out.stats.apply_ns.count, 3u);
  EXPECT_EQ(out.stats.apply_ns.buckets, in.stats.apply_ns.buckets);
  // Percentiles computed from the decoded snapshot match the source's —
  // the histogram travels losslessly, not as pre-baked quantiles.
  EXPECT_EQ(out.stats.apply_ns.Percentile(0.99),
            in.stats.apply_ns.Percentile(0.99));
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, StatsResponseEmptyHistogramsStayEmpty) {
  StatsResponse in;  // default: both histograms empty
  StatsResponse out = FrameRoundTrip(MessageTag::kStatsResponse, in);
  EXPECT_TRUE(out.stats.queue_wait_ns.empty());
  EXPECT_TRUE(out.stats.apply_ns.empty());
  ExpectAllTruncationsFail(in);
}

TEST(WireHostileInput, StatsHistogramRejectsMalformedBucketLists) {
  StatsResponse in;
  obs::Histogram hist;
  hist.Record(100);
  hist.Record(7'000);
  hist.Record(7'000);
  in.stats.queue_wait_ns = hist.snapshot();
  std::string body;
  in.EncodeBody(&body);
  {
    StatsResponse out;
    ASSERT_TRUE(StatsResponse::DecodeBody(body, &out));  // baseline sane
  }
  // Find the queue_wait_ns payload by walking the field list (status,
  // num_nodes, num_edges, is_replica, count, then name/payload fields; see
  // docs/wire_protocol.md). Its hist is sum/min/max (24 B), nonzero (4 B),
  // then two (u8 index, u64 count) pairs.
  Reader reader(std::string_view{body});
  std::uint8_t u8 = 0;
  std::uint64_t u64 = 0;
  std::uint32_t count = 0;
  ASSERT_TRUE(reader.U8(&u8) && reader.U64(&u64) && reader.U64(&u64) &&
              reader.U8(&u8) && reader.U32(&count));
  std::size_t payload_at = 0;
  for (std::uint32_t i = 0; i < count && payload_at == 0; ++i) {
    std::uint8_t name_size = 0;
    std::string_view name;
    std::uint32_t payload_size = 0;
    std::string_view payload;
    ASSERT_TRUE(reader.U8(&name_size) && reader.Bytes(name_size, &name) &&
                reader.U32(&payload_size) &&
                reader.Bytes(payload_size, &payload));
    if (name == "queue_wait_ns") {
      ASSERT_EQ(payload_size, 8 * 3 + 4 + 2 * 9);
      payload_at = static_cast<std::size_t>(payload.data() - body.data());
    }
  }
  ASSERT_NE(payload_at, 0u) << "queue_wait_ns not in the field list";
  const std::size_t nonzero_at = payload_at + 8 * 3;
  const std::size_t pairs_at = nonzero_at + 4;

  // Bucket count claiming more buckets than exist: rejected (and the
  // Reader's bounds check keeps the pair loop from over-reading).
  std::string inflated = body;
  inflated[nonzero_at] = '\x09';
  StatsResponse out;
  EXPECT_FALSE(StatsResponse::DecodeBody(inflated, &out));

  // Non-increasing bucket indices: rejected (canonical encodings only).
  std::string reordered = body;
  std::swap(reordered[pairs_at], reordered[pairs_at + 9]);
  EXPECT_FALSE(StatsResponse::DecodeBody(reordered, &out));

  // A listed bucket with a zero count: rejected.
  std::string zeroed = body;
  for (std::size_t i = 0; i < 8; ++i) zeroed[pairs_at + 1 + i] = '\0';
  EXPECT_FALSE(StatsResponse::DecodeBody(zeroed, &out));
}

TEST(WireRoundTrip, FlushResponse) {
  FlushResponse in;
  in.status = RpcStatus::kShuttingDown;
  FlushResponse out = FrameRoundTrip(MessageTag::kFlushResponse, in);
  EXPECT_EQ(out.status, RpcStatus::kShuttingDown);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, SubscribeRequest) {
  SubscribeRequest in;
  in.from_seq = 0xDEADBEEFCAFEF00DULL;
  SubscribeRequest out = FrameRoundTrip(MessageTag::kSubscribeRequest, in);
  EXPECT_EQ(out.from_seq, in.from_seq);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, SubscribeResponse) {
  SubscribeResponse in;
  in.status = RpcStatus::kOk;
  in.next_seq = 42;
  SubscribeResponse out = FrameRoundTrip(MessageTag::kSubscribeResponse, in);
  EXPECT_EQ(out.next_seq, 42u);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, ReplicaBatchMessage) {
  ReplicaBatchMessage in;
  in.seq = 7;
  in.updates = {{UpdateKind::kDelete, 2, 3}, {UpdateKind::kInsert, 3, 2}};
  ReplicaBatchMessage out = FrameRoundTrip(MessageTag::kReplicaBatch, in);
  EXPECT_EQ(out.seq, 7u);
  EXPECT_EQ(out.updates, in.updates);
  ExpectAllTruncationsFail(in);
}

TEST(WireRoundTrip, ErrorResponse) {
  ErrorResponse in;
  in.status = RpcStatus::kInternal;
  in.message = "something on fire";
  ErrorResponse out = FrameRoundTrip(MessageTag::kErrorResponse, in);
  EXPECT_EQ(out.status, RpcStatus::kInternal);
  EXPECT_EQ(out.message, "something on fire");
  ExpectAllTruncationsFail(in);
}

// ---- Schema-driven StatsResponse checks -----------------------------------
// These walk the ServiceStats field table (stats_schema_util.h), so a
// counter added to the table is covered without editing them.

// Encoded StatsResponse header: status + num_nodes + num_edges + is_replica.
constexpr std::size_t kStatsHeaderBytes = 1 + 8 + 8 + 1;

struct TaggedField {
  std::string name;
  std::string payload;
};

// Splits an encoded StatsResponse body into its tagged fields, following
// the documented layout independently of the decoder.
std::vector<TaggedField> ParseFields(const std::string& body) {
  Reader reader(std::string_view(body).substr(kStatsHeaderBytes));
  std::uint32_t count = 0;
  EXPECT_TRUE(reader.U32(&count));
  std::vector<TaggedField> fields(count);
  for (TaggedField& field : fields) {
    std::uint8_t name_size = 0;
    std::string_view name;
    std::uint32_t payload_size = 0;
    std::string_view payload;
    EXPECT_TRUE(reader.U8(&name_size) && reader.Bytes(name_size, &name) &&
                reader.U32(&payload_size) &&
                reader.Bytes(payload_size, &payload));
    field = {std::string(name), std::string(payload)};
  }
  EXPECT_TRUE(reader.Complete());
  return fields;
}

// `body`'s header followed by `fields`, announced as `count` fields.
std::string WithFields(const std::string& body,
                       const std::vector<TaggedField>& fields,
                       std::uint32_t count) {
  std::string out = body.substr(0, kStatsHeaderBytes);
  Writer writer(&out);
  writer.U32(count);
  for (const TaggedField& field : fields) {
    writer.U8(static_cast<std::uint8_t>(field.name.size()));
    writer.Bytes(field.name);
    writer.Str(field.payload);
  }
  return out;
}
std::string WithFields(const std::string& body,
                       const std::vector<TaggedField>& fields) {
  return WithFields(body, fields, static_cast<std::uint32_t>(fields.size()));
}

StatsResponse DistinctStatsResponse() {
  StatsResponse in;
  in.num_nodes = 321;
  in.num_edges = 654;
  in.is_replica = true;
  test_util::FillDistinct(&in.stats, 5);
  return in;
}

std::string EncodedBody(const StatsResponse& in) {
  std::string body;
  in.EncodeBody(&body);
  return body;
}

TEST(WireStatsSchema, EveryFieldRoundTripsAndEveryTruncationFails) {
  const StatsResponse in = DistinctStatsResponse();
  const StatsResponse out = FrameRoundTrip(MessageTag::kStatsResponse, in);
  EXPECT_EQ(test_util::Rendered(out.stats), test_util::Rendered(in.stats));
  EXPECT_EQ(out.num_nodes, 321u);
  EXPECT_EQ(out.num_edges, 654u);
  EXPECT_TRUE(out.is_replica);
  // One tagged field per table leaf, in table order, under its name.
  const std::vector<TaggedField> fields = ParseFields(EncodedBody(in));
  const std::vector<test_util::StatLeaf> leaves = test_util::Leaves(in.stats);
  ASSERT_EQ(fields.size(), leaves.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(fields[i].name, leaves[i].name);
  }
  ExpectAllTruncationsFail(in);
}

TEST(WireStatsSchema, UnknownFieldsAreSkippedByLength) {
  const StatsResponse in = DistinctStatsResponse();
  const std::string body = EncodedBody(in);
  std::vector<TaggedField> fields = ParseFields(body);
  fields.insert(fields.begin(), {"counter_from_a_newer_peer", "\x07\x07"});
  fields.push_back({"another_unknown", std::string(300, '\x01')});
  StatsResponse out;
  ASSERT_TRUE(StatsResponse::DecodeBody(WithFields(body, fields), &out));
  EXPECT_EQ(test_util::Rendered(out.stats), test_util::Rendered(in.stats));
}

TEST(WireStatsSchema, AbsentFieldsDecodeAsDefault) {
  // A peer that predates a counter omits it; the rest still decode.
  const StatsResponse in = DistinctStatsResponse();
  const std::string body = EncodedBody(in);
  const std::vector<TaggedField> fields = ParseFields(body);
  const std::vector<std::string> defaults =
      test_util::Rendered(service::ServiceStats{});
  for (std::size_t drop = 0; drop < fields.size(); ++drop) {
    std::vector<TaggedField> fewer = fields;
    fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(drop));
    StatsResponse out;
    ASSERT_TRUE(StatsResponse::DecodeBody(WithFields(body, fewer), &out))
        << fields[drop].name;
    std::vector<std::string> expected = test_util::Rendered(in.stats);
    expected[drop] = defaults[drop];
    EXPECT_EQ(test_util::Rendered(out.stats), expected);
  }
}

TEST(WireStatsSchema, RepeatedNamesAreRejected) {
  const std::string body = EncodedBody(DistinctStatsResponse());
  const std::vector<TaggedField> fields = ParseFields(body);
  StatsResponse out;
  for (const TaggedField& field : fields) {
    std::vector<TaggedField> repeated = fields;
    repeated.push_back(field);
    EXPECT_FALSE(StatsResponse::DecodeBody(WithFields(body, repeated), &out))
        << field.name;
  }
  std::vector<TaggedField> unknown_twice = fields;
  unknown_twice.push_back({"unknown", "a"});
  unknown_twice.push_back({"unknown", "b"});
  EXPECT_FALSE(
      StatsResponse::DecodeBody(WithFields(body, unknown_twice), &out));
}

TEST(WireStatsSchema, KnownFieldWithWrongPayloadLengthIsRejected) {
  const std::string body = EncodedBody(DistinctStatsResponse());
  const std::vector<TaggedField> fields = ParseFields(body);
  StatsResponse out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::vector<TaggedField> longer = fields;
    longer[i].payload.push_back('\0');
    EXPECT_FALSE(StatsResponse::DecodeBody(WithFields(body, longer), &out))
        << fields[i].name;
    std::vector<TaggedField> shorter = fields;
    shorter[i].payload.pop_back();
    EXPECT_FALSE(StatsResponse::DecodeBody(WithFields(body, shorter), &out))
        << fields[i].name;
  }
}

TEST(WireStatsSchema, FieldCountsBeyondTheBytesOrTheCapAreRejected) {
  const std::string body = EncodedBody(DistinctStatsResponse());
  const std::vector<TaggedField> fields = ParseFields(body);
  const auto count = static_cast<std::uint32_t>(fields.size());
  StatsResponse out;
  EXPECT_FALSE(
      StatsResponse::DecodeBody(WithFields(body, fields, count + 1), &out));
  EXPECT_FALSE(
      StatsResponse::DecodeBody(WithFields(body, fields, 0xFFFFFFFFu), &out));
  // Distinct unknown fields up to the cap decode; one more is refused.
  std::vector<TaggedField> many;
  for (std::uint32_t i = 0; i < kMaxStatsFields; ++i) {
    many.push_back({"unknown_" + std::to_string(i), ""});
  }
  EXPECT_TRUE(StatsResponse::DecodeBody(WithFields(body, many), &out));
  many.push_back({"one_too_many", ""});
  EXPECT_FALSE(StatsResponse::DecodeBody(WithFields(body, many), &out));
}

// ---- Frame-level malformations --------------------------------------------

std::uint8_t PrefixByte(std::uint32_t len, int i) {
  return static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
}

TEST(WireFraming, LengthPrefixRejectsTooShortAndTooLong) {
  for (std::uint32_t len : {0u, 1u}) {  // < version + tag
    std::uint8_t prefix[4] = {PrefixByte(len, 0), PrefixByte(len, 1),
                              PrefixByte(len, 2), PrefixByte(len, 3)};
    EXPECT_FALSE(ParseFrameLength(prefix, kMaxFramePayload).ok());
  }
  // An attacker announcing a 4 GiB frame must be rejected BEFORE any
  // allocation of that size; the cap is the guard.
  for (std::uint32_t len :
       {static_cast<std::uint32_t>(kMaxFramePayload) + 1, 0xFFFFFFFFu}) {
    std::uint8_t prefix[4] = {PrefixByte(len, 0), PrefixByte(len, 1),
                              PrefixByte(len, 2), PrefixByte(len, 3)};
    EXPECT_FALSE(ParseFrameLength(prefix, kMaxFramePayload).ok());
  }
  // Boundary: exactly the cap is accepted.
  const auto cap = static_cast<std::uint32_t>(kMaxFramePayload);
  std::uint8_t prefix[4] = {PrefixByte(cap, 0), PrefixByte(cap, 1),
                            PrefixByte(cap, 2), PrefixByte(cap, 3)};
  auto at_cap = ParseFrameLength(prefix, kMaxFramePayload);
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(*at_cap, kMaxFramePayload);
}

TEST(WireFraming, PayloadRejectsBadVersionAndUnknownTag) {
  // Wrong version, valid tag.
  std::string bad_version;
  bad_version.push_back(static_cast<char>(kWireVersion + 1));
  bad_version.push_back(
      static_cast<char>(MessageTag::kPingRequest));
  EXPECT_FALSE(ParseFramePayload(bad_version).ok());

  // Right version, unknown tag.
  std::string bad_tag;
  bad_tag.push_back(static_cast<char>(kWireVersion));
  bad_tag.push_back('\x42');
  EXPECT_FALSE(IsKnownTag(0x42));
  EXPECT_FALSE(ParseFramePayload(bad_tag).ok());

  // Too short for version + tag.
  EXPECT_FALSE(ParseFramePayload("").ok());
  EXPECT_FALSE(ParseFramePayload(std::string(1, kWireVersion)).ok());
}

TEST(WireFraming, EveryDeclaredTagIsKnown) {
  for (MessageTag tag :
       {MessageTag::kPingRequest, MessageTag::kSubmitRequest,
        MessageTag::kScoreRequest, MessageTag::kTopKForRequest,
        MessageTag::kTopKPairsRequest, MessageTag::kSuggestRequest,
        MessageTag::kStatsRequest, MessageTag::kFlushRequest,
        MessageTag::kSubscribeRequest, MessageTag::kPingResponse,
        MessageTag::kSubmitResponse, MessageTag::kScoreResponse,
        MessageTag::kTopKResponse, MessageTag::kSuggestResponse,
        MessageTag::kStatsResponse, MessageTag::kFlushResponse,
        MessageTag::kSubscribeResponse, MessageTag::kReplicaBatch,
        MessageTag::kErrorResponse}) {
    EXPECT_TRUE(IsKnownTag(static_cast<std::uint8_t>(tag)))
        << MessageTagName(tag);
  }
}

// ---- Hostile bodies --------------------------------------------------------

// An element count far larger than the bytes behind it must fail without
// reserving count-sized memory (the decoder checks count against
// Remaining() first). ASan would flag the over-read; the wall clock would
// flag a 4-billion-element reserve.
TEST(WireHostileInput, InflatedCountsAreRejectedWithoutAllocation) {
  std::string body;
  Writer writer(&body);
  writer.U32(0xFFFFFFFFu);  // "4 billion updates follow"
  writer.U8(0);             // ...but only one byte does
  SubmitRequest submit;
  EXPECT_FALSE(SubmitRequest::DecodeBody(body, &submit));
  EXPECT_TRUE(submit.updates.empty());

  TopKResponse topk;
  EXPECT_FALSE(TopKResponse::DecodeBody(body, &topk));
  EXPECT_TRUE(topk.entries.empty());

  // Nested inflated count: valid outer list, hostile inner list.
  SuggestResponse suggest;
  std::string nested;
  Writer nested_writer(&nested);
  nested_writer.U8(0);           // status kOk
  nested_writer.U32(1);          // one suggestion
  nested_writer.I32(3);          // node
  nested_writer.U8(1);           // found
  nested_writer.U32(0xFFFFFFu);  // 16M entries announced, none present
  EXPECT_FALSE(SuggestResponse::DecodeBody(nested, &suggest));

  // String length beyond the remaining bytes.
  std::string str_body;
  Writer str_writer(&str_body);
  str_writer.U8(2);            // status kInvalid
  str_writer.U32(0x10000000u); // 256 MB of message text announced
  ErrorResponse error;
  EXPECT_FALSE(ErrorResponse::DecodeBody(str_body, &error));
}

// Unknown enum values inside otherwise well-formed bodies.
TEST(WireHostileInput, UnknownEnumValuesAreRejected) {
  // RpcStatus byte out of range.
  std::string body;
  Writer writer(&body);
  writer.U8(250);
  writer.U32(0);
  writer.U32(0);
  SubmitResponse submit;
  EXPECT_FALSE(SubmitResponse::DecodeBody(body, &submit));

  // UpdateKind byte out of range.
  std::string updates_body;
  Writer updates_writer(&updates_body);
  updates_writer.U32(1);
  updates_writer.U8(7);  // not kInsert/kDelete
  updates_writer.I32(0);
  updates_writer.I32(1);
  SubmitRequest request;
  EXPECT_FALSE(SubmitRequest::DecodeBody(updates_body, &request));
}

// Deterministic garbage through every decoder: whatever the bytes, the
// decoders must return false or true cleanly — never crash, over-read
// (ASan), or hang. Runs a few hundred bodies of varying length.
TEST(WireHostileInput, RandomGarbageNeverCrashesAnyDecoder) {
  Rng rng(20140406);  // arbitrary fixed seed: failures must reproduce
  for (int round = 0; round < 300; ++round) {
    const std::size_t size = rng.NextBounded(160);
    std::string garbage(size, '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng.NextBounded(256));
    }
    SubmitRequest m1;
    SubmitRequest::DecodeBody(garbage, &m1);
    SubmitResponse m2;
    SubmitResponse::DecodeBody(garbage, &m2);
    ScoreRequest m3;
    ScoreRequest::DecodeBody(garbage, &m3);
    ScoreResponse m4;
    ScoreResponse::DecodeBody(garbage, &m4);
    TopKForRequest m5;
    TopKForRequest::DecodeBody(garbage, &m5);
    TopKPairsRequest m6;
    TopKPairsRequest::DecodeBody(garbage, &m6);
    TopKResponse m7;
    TopKResponse::DecodeBody(garbage, &m7);
    SuggestRequest m8;
    SuggestRequest::DecodeBody(garbage, &m8);
    SuggestResponse m9;
    SuggestResponse::DecodeBody(garbage, &m9);
    StatsResponse m10;
    StatsResponse::DecodeBody(garbage, &m10);
    FlushResponse m11;
    FlushResponse::DecodeBody(garbage, &m11);
    SubscribeRequest m12;
    SubscribeRequest::DecodeBody(garbage, &m12);
    SubscribeResponse m13;
    SubscribeResponse::DecodeBody(garbage, &m13);
    ReplicaBatchMessage m14;
    ReplicaBatchMessage::DecodeBody(garbage, &m14);
    ErrorResponse m15;
    ErrorResponse::DecodeBody(garbage, &m15);
    // Frame layer too: a random prefix either parses in-range or errors.
    if (size >= 4) {
      std::uint8_t prefix[4];
      std::memcpy(prefix, garbage.data(), 4);
      auto len = ParseFrameLength(prefix, kMaxFramePayload);
      if (len.ok()) {
        EXPECT_GE(*len, kMinFramePayload);
        EXPECT_LE(*len, kMaxFramePayload);
      }
      ParseFramePayload(garbage);
    }
  }
}

// ---- Status mapping --------------------------------------------------------

TEST(WireStatus, ServiceStatusMapsOntoWireStatus) {
  EXPECT_EQ(ToRpcStatus(Status::OK()), RpcStatus::kOk);
  EXPECT_EQ(ToRpcStatus(Status::ResourceExhausted("queue full")),
            RpcStatus::kOverloaded);
  EXPECT_EQ(ToRpcStatus(Status::NotSupported("replica")),
            RpcStatus::kNotSupported);
  EXPECT_EQ(ToRpcStatus(Status::FailedPrecondition("stopping")),
            RpcStatus::kShuttingDown);
  EXPECT_EQ(ToRpcStatus(Status::InvalidArgument("bad k")),
            RpcStatus::kInvalid);

  EXPECT_TRUE(FromRpcStatus(RpcStatus::kOk, "ctx").ok());
  EXPECT_EQ(FromRpcStatus(RpcStatus::kOverloaded, "ctx").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FromRpcStatus(RpcStatus::kNotSupported, "ctx").code(),
            StatusCode::kNotSupported);
  EXPECT_FALSE(FromRpcStatus(RpcStatus::kInternal, "ctx").ok());
}

}  // namespace
}  // namespace incsr::net::wire
