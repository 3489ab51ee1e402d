// Wire protocol for the network serving tier: a length-prefixed binary
// framing with typed, versioned messages. Every frame on the wire is
//
//   ┌────────────┬─────────┬─────┬──────────────────┐
//   │ u32 LE len │ version │ tag │ body (len−2 B)   │
//   └────────────┴─────────┴─────┴──────────────────┘
//
// where `len` counts the bytes AFTER the 4-byte prefix (version + tag +
// body) and is capped at kMaxFramePayload — a peer announcing a larger
// frame is malformed and the connection is closed before any allocation
// of that size. All integers are little-endian fixed-width; doubles cross
// the wire as their IEEE-754 bit pattern (std::bit_cast via u64), so a
// score read from a snapshot arrives at the client BITWISE identical to
// the in-process value — the serving tier's loopback tests pin this.
//
// Decoding is defensive by construction: Reader latches a failure flag on
// the first out-of-bounds read and every Decode checks element counts
// against the remaining bytes before reserving memory, so truncated
// frames, oversized counts, unknown tags, and garbage bodies all yield a
// clean `false` — never a crash, over-read, or unbounded allocation
// (tests/net_wire_test.cc fuzzes these paths under ASan/UBSan).
#ifndef INCSR_NET_WIRE_H_
#define INCSR_NET_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/dynamic_simrank.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "service/simrank_service.h"

namespace incsr::net::wire {

/// Protocol version carried in every frame; peers reject mismatches.
/// v6: StatsResponse carries its counters as a tagged field list (see
/// StatsResponse), so a new counter needs no version bump.
inline constexpr std::uint8_t kWireVersion = 6;
/// Bytes of the length prefix.
inline constexpr std::size_t kFramePrefixBytes = 4;
/// Maximum frame payload (version + tag + body) a peer may announce.
inline constexpr std::size_t kMaxFramePayload = 16u * 1024u * 1024u;
/// Minimum payload: version byte + tag byte.
inline constexpr std::size_t kMinFramePayload = 2;

/// Message type carried in the frame's tag byte. Requests have the high
/// bit clear, responses set; kReplicaBatch is a server-pushed stream
/// message (it follows a kSubscribeResponse on the same connection).
enum class MessageTag : std::uint8_t {
  kPingRequest = 0x01,
  kSubmitRequest = 0x02,
  kScoreRequest = 0x03,
  kTopKForRequest = 0x04,
  kTopKPairsRequest = 0x05,
  kSuggestRequest = 0x06,
  kStatsRequest = 0x07,
  kFlushRequest = 0x08,
  kSubscribeRequest = 0x09,

  kPingResponse = 0x81,
  kSubmitResponse = 0x82,
  kScoreResponse = 0x83,
  kTopKResponse = 0x84,
  kSuggestResponse = 0x86,
  kStatsResponse = 0x87,
  kFlushResponse = 0x88,
  kSubscribeResponse = 0x89,
  kReplicaBatch = 0x8A,
  kErrorResponse = 0xFF,
};

/// True when `tag` names a defined MessageTag.
bool IsKnownTag(std::uint8_t tag);
/// Human-readable tag name ("SubmitRequest"); "Unknown" otherwise.
const char* MessageTagName(MessageTag tag);

/// RPC outcome carried in every response. The ingest queue's backpressure
/// surfaces here: a full queue in reject mode answers kOverloaded instead
/// of blocking the connection.
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  /// Ingest queue full (reject backpressure); retry later.
  kOverloaded = 1,
  /// Malformed request: bad node id, bad count, bad body.
  kInvalid = 2,
  /// Operation not available on this server (e.g. subscribing to a
  /// sharded or replica server, writes to a replica).
  kNotSupported = 3,
  /// Server is draining for shutdown.
  kShuttingDown = 4,
  kInternal = 5,
};

const char* RpcStatusName(RpcStatus status);
/// Maps a service-layer Status onto the wire status.
RpcStatus ToRpcStatus(const Status& status);
/// Maps a non-OK wire status back to a Status (kOk maps to OK()).
Status FromRpcStatus(RpcStatus status, const std::string& context);

// ---- Primitive encode/decode ---------------------------------------------

/// Appends little-endian primitives to a byte string.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I32(std::int32_t v) { Raw(&v, sizeof v); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view v) {
    U32(static_cast<std::uint32_t>(v.size()));
    Bytes(v);
  }
  void Bytes(std::string_view v) { out_->append(v.data(), v.size()); }

 private:
  // The repo targets little-endian hosts (x86-64/aarch64); a big-endian
  // port would byte-swap here.
  void Raw(const void* p, std::size_t n) {
    out_->append(static_cast<const char*>(p), n);
  }

  std::string* out_;
};

/// Bounds-checked little-endian reads; the first failure latches and every
/// subsequent read returns false without touching its output.
class Reader {
 public:
  Reader(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit Reader(std::string_view body) : Reader(body.data(), body.size()) {}

  bool U8(std::uint8_t* v) { return Raw(v, sizeof *v); }
  bool U32(std::uint32_t* v) { return Raw(v, sizeof *v); }
  bool U64(std::uint64_t* v) { return Raw(v, sizeof *v); }
  bool I32(std::int32_t* v) { return Raw(v, sizeof *v); }
  bool F64(double* v) {
    std::uint64_t bits;
    if (!U64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
  bool Str(std::string* v) {
    std::uint32_t len;
    std::string_view bytes;
    if (!U32(&len) || !Bytes(len, &bytes)) return false;
    v->assign(bytes);
    return true;
  }
  /// The next `n` bytes, as a view into the body.
  bool Bytes(std::size_t n, std::string_view* v) {
    if (n > Remaining()) return Fail();
    *v = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  /// Bytes not yet consumed.
  std::size_t Remaining() const { return failed_ ? 0 : size_ - pos_; }
  /// True when every byte was consumed and no read failed — Decode
  /// functions require this, so trailing garbage is rejected too.
  bool Complete() const { return !failed_ && pos_ == size_; }
  bool failed() const { return failed_; }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }
  bool Raw(void* v, std::size_t n) {
    if (failed_ || size_ - pos_ < n) return Fail();
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- Framing --------------------------------------------------------------

/// Wraps a message body into a complete frame: length prefix, version,
/// tag, body. The result is ready to write to a socket.
std::string EncodeFrame(MessageTag tag, std::string_view body);

/// Parses a 4-byte length prefix. Fails (InvalidArgument) when the
/// announced payload is shorter than version+tag or larger than
/// `max_payload` — the caller must close the connection, not allocate.
Result<std::size_t> ParseFrameLength(const std::uint8_t prefix[4],
                                     std::size_t max_payload);

/// Splits a received payload (version + tag + body) after a length-valid
/// frame. Fails on a version mismatch or unknown tag.
struct Frame {
  MessageTag tag;
  std::string_view body;
};
Result<Frame> ParseFramePayload(std::string_view payload);

// ---- Messages --------------------------------------------------------------
// Every message is a struct with EncodeBody (appends to a string) and a
// static DecodeBody that returns false on any malformation: truncation,
// counts inconsistent with the remaining bytes, unknown enum values, or
// trailing bytes.

/// Batched ingest: the body of kSubmitRequest.
struct SubmitRequest {
  std::vector<graph::EdgeUpdate> updates;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, SubmitRequest* out);
};

/// kSubmitResponse: per-batch admission outcome. `accepted` entered the
/// ingest queue; `rejected` were refused by reject-mode backpressure
/// (status kOverloaded when any were). Validation against the graph
/// happens later in the applier, like in-process Submit.
struct SubmitResponse {
  RpcStatus status = RpcStatus::kOk;
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, SubmitResponse* out);
};

/// kScoreRequest: SimRank score of one pair.
struct ScoreRequest {
  graph::NodeId a = 0;
  graph::NodeId b = 0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, ScoreRequest* out);
};

/// kScoreResponse. `score` crosses as raw IEEE-754 bits.
struct ScoreResponse {
  RpcStatus status = RpcStatus::kOk;
  double score = 0.0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, ScoreResponse* out);
};

/// kTopKForRequest: top-k most similar nodes to `node`.
struct TopKForRequest {
  graph::NodeId node = 0;
  std::uint32_t k = 0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, TopKForRequest* out);
};

/// kTopKPairsRequest: global top-k pairs.
struct TopKPairsRequest {
  std::uint32_t k = 0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, TopKPairsRequest* out);
};

/// kTopKResponse: answer to both top-k requests, in contract order
/// (descending score, ascending ids).
struct TopKResponse {
  RpcStatus status = RpcStatus::kOk;
  std::vector<core::ScoredPair> entries;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, TopKResponse* out);
};

/// kSuggestRequest: bulk "suggest related" — one round trip for the top-k
/// neighbors of many nodes, served off the per-node top-k index.
struct SuggestRequest {
  std::uint32_t k = 0;
  std::vector<graph::NodeId> nodes;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, SuggestRequest* out);
};

/// kSuggestResponse: per requested node, its top-k list (same order as
/// the request). A node out of range yields an empty list and flips the
/// overall status to kInvalid, but valid nodes still carry answers.
struct SuggestResponse {
  struct NodeSuggestions {
    graph::NodeId node = 0;
    bool found = false;
    std::vector<core::ScoredPair> entries;
  };
  RpcStatus status = RpcStatus::kOk;
  std::vector<NodeSuggestions> suggestions;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, SuggestResponse* out);
};

/// kStatsResponse: the service's ServiceStats plus serving-tier facts the
/// client needs (graph shape, replica role). The body is a fixed header —
/// status, num_nodes, num_edges, is_replica — then a u32 field count and
/// one tagged field per ServiceStats table leaf (obs/stats_schema.h): the
/// name (u8 length + bytes), a u32 payload length, and the payload (a
/// u64, an f64, or a sparse histogram). The decoder skips unknown names
/// and leaves absent fields at zero; it rejects a repeated name, a known
/// name whose payload does not decode to exactly its kind, and more than
/// kMaxStatsFields fields or fields than bytes left.
inline constexpr std::uint32_t kMaxStatsFields = 1024;
struct StatsResponse {
  RpcStatus status = RpcStatus::kOk;
  service::ServiceStats stats;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  bool is_replica = false;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, StatsResponse* out);
};

/// kFlushResponse (kFlushRequest, kStatsRequest and kPing* have empty
/// bodies).
struct FlushResponse {
  RpcStatus status = RpcStatus::kOk;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, FlushResponse* out);
};

/// kSubscribeRequest: replica catch-up subscription. The server replays
/// its applied-batch backlog from `from_seq` (exclusive) and then streams
/// live batches on the same connection.
struct SubscribeRequest {
  std::uint64_t from_seq = 0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, SubscribeRequest* out);
};

/// kSubscribeResponse: `next_seq` is the first sequence the stream will
/// carry. kInvalid when `from_seq` has aged out of the backlog (the
/// replica must bootstrap from scratch), kNotSupported on servers without
/// a replication surface (sharded or replica servers).
struct SubscribeResponse {
  RpcStatus status = RpcStatus::kOk;
  std::uint64_t next_seq = 0;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, SubscribeResponse* out);
};

/// kReplicaBatch: one applied batch of the primary's update stream, in
/// apply order with the primary's batch boundaries (both are what makes
/// replica state bitwise identical). `seq` is the primary epoch the batch
/// published; batches arrive with consecutive seq.
struct ReplicaBatchMessage {
  std::uint64_t seq = 0;
  std::vector<graph::EdgeUpdate> updates;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, ReplicaBatchMessage* out);
};

/// kErrorResponse: generic failure answer (unknown tag, undecodable body).
struct ErrorResponse {
  RpcStatus status = RpcStatus::kInvalid;
  std::string message;

  void EncodeBody(std::string* out) const;
  static bool DecodeBody(std::string_view body, ErrorResponse* out);
};

}  // namespace incsr::net::wire

#endif  // INCSR_NET_WIRE_H_
