#include "net/wire.h"

#include <concepts>
#include <limits>
#include <map>

#include "obs/histogram.h"
#include "obs/stats_schema.h"

namespace incsr::net::wire {

namespace {

// Bytes per encoded EdgeUpdate (kind + src + dst).
constexpr std::size_t kUpdateBytes = 1 + 4 + 4;
// Bytes per encoded ScoredPair (a + b + score bits).
constexpr std::size_t kScoredPairBytes = 4 + 4 + 8;

void EncodeUpdates(const std::vector<graph::EdgeUpdate>& updates,
                   Writer* writer) {
  writer->U32(static_cast<std::uint32_t>(updates.size()));
  for (const graph::EdgeUpdate& update : updates) {
    writer->U8(update.kind == graph::UpdateKind::kInsert ? 0 : 1);
    writer->I32(update.src);
    writer->I32(update.dst);
  }
}

bool DecodeUpdates(Reader* reader, std::vector<graph::EdgeUpdate>* out) {
  std::uint32_t count;
  if (!reader->U32(&count)) return false;
  // Count precedes payload: check it against the bytes actually present
  // before reserving, so a forged count cannot drive a huge allocation.
  if (static_cast<std::size_t>(count) * kUpdateBytes > reader->Remaining()) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t kind;
    graph::EdgeUpdate update;
    if (!reader->U8(&kind) || !reader->I32(&update.src) ||
        !reader->I32(&update.dst)) {
      return false;
    }
    if (kind > 1) return false;
    update.kind = kind == 0 ? graph::UpdateKind::kInsert
                            : graph::UpdateKind::kDelete;
    out->push_back(update);
  }
  return true;
}

void EncodePairs(const std::vector<core::ScoredPair>& pairs, Writer* writer) {
  writer->U32(static_cast<std::uint32_t>(pairs.size()));
  for (const core::ScoredPair& pair : pairs) {
    writer->I32(pair.a);
    writer->I32(pair.b);
    writer->F64(pair.score);
  }
}

bool DecodePairs(Reader* reader, std::vector<core::ScoredPair>* out) {
  std::uint32_t count;
  if (!reader->U32(&count)) return false;
  if (static_cast<std::size_t>(count) * kScoredPairBytes >
      reader->Remaining()) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::ScoredPair pair;
    if (!reader->I32(&pair.a) || !reader->I32(&pair.b) ||
        !reader->F64(&pair.score)) {
      return false;
    }
    out->push_back(pair);
  }
  return true;
}

bool DecodeRpcStatus(Reader* reader, RpcStatus* out) {
  std::uint8_t raw;
  if (!reader->U8(&raw)) return false;
  if (raw > static_cast<std::uint8_t>(RpcStatus::kInternal)) return false;
  *out = static_cast<RpcStatus>(raw);
  return true;
}

}  // namespace

bool IsKnownTag(std::uint8_t tag) {
  switch (static_cast<MessageTag>(tag)) {
    case MessageTag::kPingRequest:
    case MessageTag::kSubmitRequest:
    case MessageTag::kScoreRequest:
    case MessageTag::kTopKForRequest:
    case MessageTag::kTopKPairsRequest:
    case MessageTag::kSuggestRequest:
    case MessageTag::kStatsRequest:
    case MessageTag::kFlushRequest:
    case MessageTag::kSubscribeRequest:
    case MessageTag::kPingResponse:
    case MessageTag::kSubmitResponse:
    case MessageTag::kScoreResponse:
    case MessageTag::kTopKResponse:
    case MessageTag::kSuggestResponse:
    case MessageTag::kStatsResponse:
    case MessageTag::kFlushResponse:
    case MessageTag::kSubscribeResponse:
    case MessageTag::kReplicaBatch:
    case MessageTag::kErrorResponse:
      return true;
  }
  return false;
}

const char* MessageTagName(MessageTag tag) {
  switch (tag) {
    case MessageTag::kPingRequest: return "PingRequest";
    case MessageTag::kSubmitRequest: return "SubmitRequest";
    case MessageTag::kScoreRequest: return "ScoreRequest";
    case MessageTag::kTopKForRequest: return "TopKForRequest";
    case MessageTag::kTopKPairsRequest: return "TopKPairsRequest";
    case MessageTag::kSuggestRequest: return "SuggestRequest";
    case MessageTag::kStatsRequest: return "StatsRequest";
    case MessageTag::kFlushRequest: return "FlushRequest";
    case MessageTag::kSubscribeRequest: return "SubscribeRequest";
    case MessageTag::kPingResponse: return "PingResponse";
    case MessageTag::kSubmitResponse: return "SubmitResponse";
    case MessageTag::kScoreResponse: return "ScoreResponse";
    case MessageTag::kTopKResponse: return "TopKResponse";
    case MessageTag::kSuggestResponse: return "SuggestResponse";
    case MessageTag::kStatsResponse: return "StatsResponse";
    case MessageTag::kFlushResponse: return "FlushResponse";
    case MessageTag::kSubscribeResponse: return "SubscribeResponse";
    case MessageTag::kReplicaBatch: return "ReplicaBatch";
    case MessageTag::kErrorResponse: return "ErrorResponse";
  }
  return "Unknown";
}

const char* RpcStatusName(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk: return "OK";
    case RpcStatus::kOverloaded: return "OVERLOADED";
    case RpcStatus::kInvalid: return "INVALID";
    case RpcStatus::kNotSupported: return "NOT_SUPPORTED";
    case RpcStatus::kShuttingDown: return "SHUTTING_DOWN";
    case RpcStatus::kInternal: return "INTERNAL";
  }
  return "Unknown";
}

RpcStatus ToRpcStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return RpcStatus::kOk;
    case StatusCode::kResourceExhausted:
      return RpcStatus::kOverloaded;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
      return RpcStatus::kInvalid;
    case StatusCode::kNotSupported:
      return RpcStatus::kNotSupported;
    case StatusCode::kFailedPrecondition:
      return RpcStatus::kShuttingDown;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
      return RpcStatus::kInternal;
  }
  return RpcStatus::kInternal;
}

Status FromRpcStatus(RpcStatus status, const std::string& context) {
  switch (status) {
    case RpcStatus::kOk:
      return Status::OK();
    case RpcStatus::kOverloaded:
      return Status::ResourceExhausted(context + ": server overloaded");
    case RpcStatus::kInvalid:
      return Status::InvalidArgument(context + ": invalid request");
    case RpcStatus::kNotSupported:
      return Status::NotSupported(context + ": not supported by server");
    case RpcStatus::kShuttingDown:
      return Status::FailedPrecondition(context + ": server shutting down");
    case RpcStatus::kInternal:
      return Status::Internal(context + ": server error");
  }
  return Status::Internal(context + ": unknown rpc status");
}

std::string EncodeFrame(MessageTag tag, std::string_view body) {
  std::string frame;
  frame.reserve(kFramePrefixBytes + kMinFramePayload + body.size());
  const auto payload =
      static_cast<std::uint32_t>(kMinFramePayload + body.size());
  Writer writer(&frame);
  writer.U32(payload);
  writer.U8(kWireVersion);
  writer.U8(static_cast<std::uint8_t>(tag));
  frame.append(body.data(), body.size());
  return frame;
}

Result<std::size_t> ParseFrameLength(const std::uint8_t prefix[4],
                                     std::size_t max_payload) {
  std::uint32_t length;
  std::memcpy(&length, prefix, sizeof length);
  if (length < kMinFramePayload) {
    return Status::InvalidArgument("frame payload shorter than version+tag");
  }
  if (length > max_payload) {
    return Status::InvalidArgument(
        "frame payload " + std::to_string(length) + " exceeds cap " +
        std::to_string(max_payload));
  }
  return static_cast<std::size_t>(length);
}

Result<Frame> ParseFramePayload(std::string_view payload) {
  if (payload.size() < kMinFramePayload) {
    return Status::InvalidArgument("frame payload shorter than version+tag");
  }
  const auto version = static_cast<std::uint8_t>(payload[0]);
  const auto tag = static_cast<std::uint8_t>(payload[1]);
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire version " + std::to_string(version) +
                                   " (expected " +
                                   std::to_string(kWireVersion) + ")");
  }
  if (!IsKnownTag(tag)) {
    return Status::InvalidArgument("unknown message tag " +
                                   std::to_string(tag));
  }
  return Frame{static_cast<MessageTag>(tag), payload.substr(2)};
}

// ---- SubmitRequest ---------------------------------------------------------

void SubmitRequest::EncodeBody(std::string* out) const {
  Writer writer(out);
  EncodeUpdates(updates, &writer);
}

bool SubmitRequest::DecodeBody(std::string_view body, SubmitRequest* out) {
  Reader reader(body);
  return DecodeUpdates(&reader, &out->updates) && reader.Complete();
}

// ---- SubmitResponse --------------------------------------------------------

void SubmitResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  writer.U32(accepted);
  writer.U32(rejected);
}

bool SubmitResponse::DecodeBody(std::string_view body, SubmitResponse* out) {
  Reader reader(body);
  return DecodeRpcStatus(&reader, &out->status) && reader.U32(&out->accepted) &&
         reader.U32(&out->rejected) && reader.Complete();
}

// ---- ScoreRequest / ScoreResponse -----------------------------------------

void ScoreRequest::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.I32(a);
  writer.I32(b);
}

bool ScoreRequest::DecodeBody(std::string_view body, ScoreRequest* out) {
  Reader reader(body);
  return reader.I32(&out->a) && reader.I32(&out->b) && reader.Complete();
}

void ScoreResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  writer.F64(score);
}

bool ScoreResponse::DecodeBody(std::string_view body, ScoreResponse* out) {
  Reader reader(body);
  return DecodeRpcStatus(&reader, &out->status) && reader.F64(&out->score) &&
         reader.Complete();
}

// ---- TopK requests / response ---------------------------------------------

void TopKForRequest::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.I32(node);
  writer.U32(k);
}

bool TopKForRequest::DecodeBody(std::string_view body, TopKForRequest* out) {
  Reader reader(body);
  return reader.I32(&out->node) && reader.U32(&out->k) && reader.Complete();
}

void TopKPairsRequest::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U32(k);
}

bool TopKPairsRequest::DecodeBody(std::string_view body,
                                  TopKPairsRequest* out) {
  Reader reader(body);
  return reader.U32(&out->k) && reader.Complete();
}

void TopKResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  EncodePairs(entries, &writer);
}

bool TopKResponse::DecodeBody(std::string_view body, TopKResponse* out) {
  Reader reader(body);
  return DecodeRpcStatus(&reader, &out->status) &&
         DecodePairs(&reader, &out->entries) && reader.Complete();
}

// ---- Suggest ---------------------------------------------------------------

void SuggestRequest::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U32(k);
  writer.U32(static_cast<std::uint32_t>(nodes.size()));
  for (graph::NodeId node : nodes) writer.I32(node);
}

bool SuggestRequest::DecodeBody(std::string_view body, SuggestRequest* out) {
  Reader reader(body);
  std::uint32_t count;
  if (!reader.U32(&out->k) || !reader.U32(&count)) return false;
  if (static_cast<std::size_t>(count) * 4 > reader.Remaining()) return false;
  out->nodes.clear();
  out->nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    graph::NodeId node;
    if (!reader.I32(&node)) return false;
    out->nodes.push_back(node);
  }
  return reader.Complete();
}

void SuggestResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  writer.U32(static_cast<std::uint32_t>(suggestions.size()));
  for (const NodeSuggestions& entry : suggestions) {
    writer.I32(entry.node);
    writer.U8(entry.found ? 1 : 0);
    EncodePairs(entry.entries, &writer);
  }
}

bool SuggestResponse::DecodeBody(std::string_view body, SuggestResponse* out) {
  Reader reader(body);
  std::uint32_t count;
  if (!DecodeRpcStatus(&reader, &out->status) || !reader.U32(&count)) {
    return false;
  }
  // Each entry is at least node + found + empty pair list: 4 + 1 + 4 B.
  if (static_cast<std::size_t>(count) * 9 > reader.Remaining()) return false;
  out->suggestions.clear();
  out->suggestions.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NodeSuggestions entry;
    std::uint8_t found;
    if (!reader.I32(&entry.node) || !reader.U8(&found) || found > 1 ||
        !DecodePairs(&reader, &entry.entries)) {
      return false;
    }
    entry.found = found == 1;
    out->suggestions.push_back(std::move(entry));
  }
  return reader.Complete();
}

// ---- Stats -----------------------------------------------------------------

namespace {

// Sparse histogram encoding: sum, min, max, then only the
// non-zero buckets as (u8 index, u64 count) pairs in strictly increasing
// index order. `count` is not sent — the snapshot invariant count ==
// Σ buckets makes it derivable, and deriving it keeps the two from ever
// disagreeing on the wire.
void EncodeHistogram(Writer* writer, const obs::HistogramSnapshot& hist) {
  writer->U64(hist.sum);
  writer->U64(hist.min);
  writer->U64(hist.max);
  std::uint32_t nonzero = 0;
  for (std::uint64_t bucket : hist.buckets) nonzero += bucket != 0;
  writer->U32(nonzero);
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    if (hist.buckets[i] == 0) continue;
    writer->U8(static_cast<std::uint8_t>(i));
    writer->U64(hist.buckets[i]);
  }
}

// Rejects non-canonical encodings: indices must strictly increase and a
// listed bucket must be non-zero (every valid histogram has exactly one
// canonical byte string, so fuzzed permutations fail instead of aliasing).
bool DecodeHistogram(Reader* reader, obs::HistogramSnapshot* out) {
  *out = obs::HistogramSnapshot{};
  std::uint32_t nonzero;
  if (!reader->U64(&out->sum) || !reader->U64(&out->min) ||
      !reader->U64(&out->max) || !reader->U32(&nonzero) ||
      nonzero > obs::kHistogramBuckets) {
    return false;
  }
  int last_index = -1;
  for (std::uint32_t k = 0; k < nonzero; ++k) {
    std::uint8_t index;
    std::uint64_t count;
    if (!reader->U8(&index) || !reader->U64(&count) || count == 0 ||
        static_cast<int>(index) <= last_index) {
      return false;
    }
    last_index = index;
    out->buckets[index] = count;
    out->count += count;
  }
  return true;
}

// One stats field payload per leaf kind.
template <std::unsigned_integral T>
void EncodeStatValue(Writer* writer, T value) {
  writer->U64(value);
}
void EncodeStatValue(Writer* writer, double value) { writer->F64(value); }
void EncodeStatValue(Writer* writer, const obs::HistogramSnapshot& value) {
  EncodeHistogram(writer, value);
}

template <std::unsigned_integral T>
bool DecodeStatValue(Reader* reader, T* value) {
  std::uint64_t raw = 0;
  if (!reader->U64(&raw) || raw > std::numeric_limits<T>::max()) return false;
  *value = static_cast<T>(raw);
  return true;
}
bool DecodeStatValue(Reader* reader, double* value) {
  return reader->F64(value);
}
bool DecodeStatValue(Reader* reader, obs::HistogramSnapshot* value) {
  return DecodeHistogram(reader, value);
}

// Smallest encoded field: name length byte + payload length.
constexpr std::size_t kMinStatsFieldBytes = 1 + 4;

}  // namespace

void StatsResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  writer.U64(num_nodes);
  writer.U64(num_edges);
  writer.U8(is_replica ? 1 : 0);
  std::string fields;
  Writer field_writer(&fields);
  std::uint32_t count = 0;
  obs::VisitLeaves(stats, [&](const std::string& name, const obs::StatField&,
                              const auto& value) {
    std::string payload;
    Writer payload_writer(&payload);
    EncodeStatValue(&payload_writer, value);
    field_writer.U8(static_cast<std::uint8_t>(name.size()));
    field_writer.Bytes(name);
    field_writer.Str(payload);
    ++count;
  });
  writer.U32(count);
  writer.Bytes(fields);
}

bool StatsResponse::DecodeBody(std::string_view body, StatsResponse* out) {
  Reader reader(body);
  std::uint8_t is_replica = 0;
  std::uint32_t count = 0;
  if (!DecodeRpcStatus(&reader, &out->status) || !reader.U64(&out->num_nodes) ||
      !reader.U64(&out->num_edges) || !reader.U8(&is_replica) ||
      is_replica > 1 || !reader.U32(&count) || count > kMaxStatsFields ||
      count > reader.Remaining() / kMinStatsFieldBytes) {
    return false;
  }
  out->is_replica = is_replica == 1;
  std::map<std::string_view, std::string_view> fields;  // name -> payload
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t name_size = 0;
    std::string_view name;
    std::uint32_t payload_size = 0;
    std::string_view payload;
    if (!reader.U8(&name_size) || !reader.Bytes(name_size, &name) ||
        !reader.U32(&payload_size) || !reader.Bytes(payload_size, &payload) ||
        !fields.emplace(name, payload).second) {
      return false;
    }
  }
  if (!reader.Complete()) return false;
  // Known fields decode by name; names this build does not know are
  // skipped, and fields the sender did not know stay zero.
  out->stats = {};
  bool ok = true;
  obs::VisitLeaves(out->stats, [&](const std::string& name,
                                   const obs::StatField&, auto& value) {
    const auto it = fields.find(name);
    if (it == fields.end()) return;
    Reader payload(it->second);
    ok = ok && DecodeStatValue(&payload, &value) && payload.Complete();
  });
  return ok;
}

// ---- Flush -----------------------------------------------------------------

void FlushResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
}

bool FlushResponse::DecodeBody(std::string_view body, FlushResponse* out) {
  Reader reader(body);
  return DecodeRpcStatus(&reader, &out->status) && reader.Complete();
}

// ---- Subscribe / ReplicaBatch ---------------------------------------------

void SubscribeRequest::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U64(from_seq);
}

bool SubscribeRequest::DecodeBody(std::string_view body,
                                  SubscribeRequest* out) {
  Reader reader(body);
  return reader.U64(&out->from_seq) && reader.Complete();
}

void SubscribeResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  writer.U64(next_seq);
}

bool SubscribeResponse::DecodeBody(std::string_view body,
                                   SubscribeResponse* out) {
  Reader reader(body);
  return DecodeRpcStatus(&reader, &out->status) && reader.U64(&out->next_seq) &&
         reader.Complete();
}

void ReplicaBatchMessage::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U64(seq);
  EncodeUpdates(updates, &writer);
}

bool ReplicaBatchMessage::DecodeBody(std::string_view body,
                                     ReplicaBatchMessage* out) {
  Reader reader(body);
  return reader.U64(&out->seq) && DecodeUpdates(&reader, &out->updates) &&
         reader.Complete();
}

// ---- ErrorResponse ---------------------------------------------------------

void ErrorResponse::EncodeBody(std::string* out) const {
  Writer writer(out);
  writer.U8(static_cast<std::uint8_t>(status));
  writer.Str(message);
}

bool ErrorResponse::DecodeBody(std::string_view body, ErrorResponse* out) {
  Reader reader(body);
  return DecodeRpcStatus(&reader, &out->status) && reader.Str(&out->message) &&
         reader.Complete();
}

}  // namespace incsr::net::wire
