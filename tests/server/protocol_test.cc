// Wire-protocol serialization tests: pure byte-string round trips, no
// sockets involved.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace watchman {
namespace {

/// Strips the length prefix of a complete frame, asserting coherence.
std::string BodyOf(const std::string& frame) {
  std::string_view body;
  size_t frame_size = 0;
  StatusOr<bool> ok =
      ExtractFrame(frame, kDefaultMaxFrameBytes, &body, &frame_size);
  EXPECT_TRUE(ok.ok() && *ok);
  EXPECT_EQ(frame_size, frame.size());
  return std::string(body);
}

TEST(ProtocolTest, PingRequestRoundTrip) {
  WireRequest request;
  request.op = OpCode::kPing;
  auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, OpCode::kPing);
  EXPECT_EQ(decoded->request_id, 0u);
}

TEST(ProtocolTest, CompactRequestRoundTrip) {
  // v4: COMPACT is payload-free both ways, like PING.
  WireRequest request;
  request.op = OpCode::kCompact;
  request.request_id = 99;
  auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, OpCode::kCompact);
  EXPECT_EQ(decoded->request_id, 99u);
  EXPECT_TRUE(decoded->query_text.empty());

  WireResponse response;
  response.op = OpCode::kCompact;
  response.request_id = 99;
  auto echoed = DecodeResponse(BodyOf(EncodeResponse(response)));
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed->op, OpCode::kCompact);
  EXPECT_EQ(echoed->code, StatusCode::kOk);
}

TEST(ProtocolTest, RequestIdRoundTripsOnEveryOp) {
  const uint64_t ids[] = {0, 1, 0x1234567890ABCDEFull, ~0ull};
  for (OpCode op : {OpCode::kPing, OpCode::kExecute, OpCode::kGet,
                    OpCode::kInvalidate, OpCode::kInvalidateRelation,
                    OpCode::kStats, OpCode::kCompact}) {
    for (uint64_t id : ids) {
      WireRequest request;
      request.op = op;
      request.request_id = id;
      request.query_text = "select 1";
      request.relation = "r";
      auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
      ASSERT_TRUE(decoded.ok()) << OpCodeName(op);
      EXPECT_EQ(decoded->op, op);
      EXPECT_EQ(decoded->request_id, id) << OpCodeName(op);
    }
  }
}

TEST(ProtocolTest, ResponseRequestIdRoundTripsOnEveryOp) {
  for (OpCode op : {OpCode::kPing, OpCode::kExecute, OpCode::kGet,
                    OpCode::kInvalidate, OpCode::kInvalidateRelation,
                    OpCode::kStats, OpCode::kCompact}) {
    WireResponse response;
    response.op = op;
    response.request_id = 0xFEEDFACECAFEBEEFull;
    auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
    ASSERT_TRUE(decoded.ok()) << OpCodeName(op);
    EXPECT_EQ(decoded->request_id, 0xFEEDFACECAFEBEEFull) << OpCodeName(op);
  }
}

TEST(ProtocolTest, AppendRequestMatchesEncodeRequestAndBatches) {
  WireRequest a;
  a.op = OpCode::kGet;
  a.request_id = 7;
  a.query_text = "select a";
  WireRequest b;
  b.op = OpCode::kExecute;
  b.request_id = 8;
  b.query_text = "select b";
  b.has_fill = true;
  b.fill_payload = "bytes";
  b.fill_cost = 5;
  b.fill_relations = {"t", "u"};
  std::string batched;
  AppendRequest(a, &batched);
  AppendRequest(b, &batched);
  EXPECT_EQ(batched, EncodeRequest(a) + EncodeRequest(b));
  // Both frames extract and decode back from the batched buffer.
  std::string_view body;
  size_t frame_size = 0;
  ASSERT_TRUE(
      *ExtractFrame(batched, kDefaultMaxFrameBytes, &body, &frame_size));
  auto first = DecodeRequest(body);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->request_id, 7u);
  ASSERT_TRUE(*ExtractFrame(std::string_view(batched).substr(frame_size),
                            kDefaultMaxFrameBytes, &body, &frame_size));
  auto second = DecodeRequest(body);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->request_id, 8u);
  EXPECT_EQ(second->fill_relations, b.fill_relations);
}

TEST(ProtocolTest, PeekPrologueReadsOpAndIdFromUndecodableBodies) {
  WireRequest request;
  request.op = OpCode::kGet;
  request.request_id = 42;
  request.query_text = "select * from nation";
  const std::string body = BodyOf(EncodeRequest(request));
  // Every truncation that still contains the full prologue yields the
  // (op, id) pair even though the request as a whole cannot decode.
  for (size_t len = 10; len < body.size(); ++len) {
    OpCode op = OpCode::kPing;
    uint64_t id = 0;
    PeekPrologue(body.substr(0, len), &op, &id);
    EXPECT_EQ(op, OpCode::kGet) << len;
    EXPECT_EQ(id, 42u) << len;
  }
  // Shorter than the prologue: outputs stay untouched.
  for (size_t len = 0; len < 10; ++len) {
    OpCode op = OpCode::kStats;
    uint64_t id = 99;
    PeekPrologue(body.substr(0, len), &op, &id);
    EXPECT_EQ(op, OpCode::kStats) << len;
    EXPECT_EQ(id, 99u) << len;
  }
  // Wrong version or bogus opcode: outputs stay untouched.
  std::string bad_version = body;
  bad_version[0] = static_cast<char>(kWireVersion + 1);
  std::string bad_op = body;
  bad_op[1] = 0x7f;
  for (const std::string& mutated : {bad_version, bad_op}) {
    OpCode op = OpCode::kStats;
    uint64_t id = 99;
    PeekPrologue(mutated, &op, &id);
    EXPECT_EQ(op, OpCode::kStats);
    EXPECT_EQ(id, 99u);
  }
}

TEST(ProtocolTest, GetAndInvalidateRequestsCarryQueryText) {
  for (OpCode op : {OpCode::kGet, OpCode::kInvalidate}) {
    WireRequest request;
    request.op = op;
    request.query_text = "select count(*) from lineitem where l_tax > 0.05";
    auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->op, op);
    EXPECT_EQ(decoded->query_text, request.query_text);
  }
}

TEST(ProtocolTest, ExecuteRequestWithoutFill) {
  WireRequest request;
  request.op = OpCode::kExecute;
  request.query_text = "select 1";
  auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, OpCode::kExecute);
  EXPECT_EQ(decoded->query_text, "select 1");
  EXPECT_FALSE(decoded->has_fill);
}

TEST(ProtocolTest, DecodeRequestIntoReusesScratchAndResetsState) {
  WireRequest scratch;
  // First frame: an EXECUTE with a fill populates every field.
  WireRequest fill_req;
  fill_req.op = OpCode::kExecute;
  fill_req.query_text = "select a from t";
  fill_req.has_fill = true;
  fill_req.fill_payload = "payload-bytes";
  fill_req.fill_cost = 42;
  fill_req.fill_relations = {"t"};
  ASSERT_TRUE(
      DecodeRequestInto(BodyOf(EncodeRequest(fill_req)), &scratch).ok());
  EXPECT_TRUE(scratch.has_fill);
  EXPECT_EQ(scratch.fill_cost, 42u);
  const char* text_buffer = scratch.query_text.data();
  // Second frame into the same scratch: stale fill state must reset and
  // the (shorter) query text must reuse the existing buffer.
  WireRequest get_req;
  get_req.op = OpCode::kGet;
  get_req.query_text = "select b";
  ASSERT_TRUE(
      DecodeRequestInto(BodyOf(EncodeRequest(get_req)), &scratch).ok());
  EXPECT_EQ(scratch.op, OpCode::kGet);
  EXPECT_EQ(scratch.query_text, "select b");
  EXPECT_FALSE(scratch.has_fill);
  EXPECT_EQ(scratch.fill_cost, 1u);
  EXPECT_TRUE(scratch.fill_payload.empty());
  EXPECT_EQ(scratch.query_text.data(), text_buffer);
  // fill_relations may keep stale (has_fill-gated) entries for buffer
  // reuse; a third EXECUTE frame must reuse the element's buffer.
  const char* relation_buffer =
      scratch.fill_relations.empty() ? nullptr
                                     : scratch.fill_relations[0].data();
  WireRequest fill_req2 = fill_req;
  fill_req2.fill_relations = {"x"};
  ASSERT_TRUE(
      DecodeRequestInto(BodyOf(EncodeRequest(fill_req2)), &scratch).ok());
  ASSERT_EQ(scratch.fill_relations.size(), 1u);
  EXPECT_EQ(scratch.fill_relations[0], "x");
  if (relation_buffer != nullptr) {
    EXPECT_EQ(scratch.fill_relations[0].data(), relation_buffer);
  }
}

TEST(ProtocolTest, AppendResponseMatchesEncodeResponseAndBatches) {
  WireResponse a;
  a.op = OpCode::kGet;
  a.cache_hit = true;
  a.payload = "retrieved set";
  WireResponse b;
  b.op = OpCode::kInvalidate;
  b.dropped = 7;
  std::string batched;
  AppendResponse(a, &batched);
  AppendResponse(b, &batched);
  EXPECT_EQ(batched, EncodeResponse(a) + EncodeResponse(b));
  // Both frames extract and decode back from the batched buffer.
  std::string_view body;
  size_t frame_size = 0;
  ASSERT_TRUE(
      *ExtractFrame(batched, kDefaultMaxFrameBytes, &body, &frame_size));
  auto first = DecodeResponse(body);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->payload, "retrieved set");
  ASSERT_TRUE(*ExtractFrame(std::string_view(batched).substr(frame_size),
                            kDefaultMaxFrameBytes, &body, &frame_size));
  auto second = DecodeResponse(body);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->dropped, 7u);
}

TEST(ProtocolTest, WireResponseResetKeepsCapacity) {
  WireResponse response;
  response.op = OpCode::kGet;
  response.code = StatusCode::kNotFound;
  response.message = "not cached: something fairly long to force a heap";
  response.payload = std::string(256, 'p');
  response.cache_hit = true;
  response.dropped = 9;
  const size_t payload_capacity = response.payload.capacity();
  response.Reset(OpCode::kPing);
  EXPECT_EQ(response.op, OpCode::kPing);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_TRUE(response.message.empty());
  EXPECT_TRUE(response.payload.empty());
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.dropped, 0u);
  EXPECT_GE(response.payload.capacity(), payload_capacity);
}

TEST(ProtocolTest, ExecuteRequestWithFillRoundTrips) {
  WireRequest request;
  request.op = OpCode::kExecute;
  request.query_text = "select sum(profit) from orders, lineitem";
  request.has_fill = true;
  request.fill_payload = std::string("binary\x00\x01\xffpayload", 16);
  request.fill_cost = 123456789;
  request.fill_relations = {"orders", "lineitem"};
  auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->has_fill);
  EXPECT_EQ(decoded->fill_payload, request.fill_payload);
  EXPECT_EQ(decoded->fill_cost, request.fill_cost);
  EXPECT_EQ(decoded->fill_relations, request.fill_relations);
}

TEST(ProtocolTest, InvalidateRelationRequestRoundTrips) {
  WireRequest request;
  request.op = OpCode::kInvalidateRelation;
  request.relation = "lineitem";
  auto decoded = DecodeRequest(BodyOf(EncodeRequest(request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->relation, "lineitem");
}

TEST(ProtocolTest, ResponsePayloadAndHitFlagRoundTrip) {
  WireResponse response;
  response.op = OpCode::kGet;
  response.cache_hit = true;
  response.payload = std::string(100000, 'x');
  auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, OpCode::kGet);
  EXPECT_EQ(decoded->code, StatusCode::kOk);
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->payload, response.payload);
}

TEST(ProtocolTest, ErrorResponseCarriesStatus) {
  WireResponse response;
  response.op = OpCode::kExecute;
  response.code = StatusCode::kNotFound;
  response.message = "cache miss and no miss-fill attached";
  auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
  ASSERT_TRUE(decoded.ok());
  const Status status = StatusFromWire(decoded->code, decoded->message);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), response.message);
}

TEST(ProtocolTest, EveryStatusCodeSurvivesTheWire) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kCapacityExceeded, StatusCode::kIOError,
        StatusCode::kCorruption, StatusCode::kNotSupported,
        StatusCode::kInternal}) {
    WireResponse response;
    response.op = OpCode::kPing;
    response.code = code;
    response.message = code == StatusCode::kOk ? "" : "context";
    auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(StatusFromWire(decoded->code, decoded->message).code(), code);
  }
}

TEST(ProtocolTest, InvalidateResponseCountRoundTrips) {
  WireResponse response;
  response.op = OpCode::kInvalidateRelation;
  response.dropped = 42;
  auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->dropped, 42u);
}

TEST(ProtocolTest, StatsResponseRoundTripsAllFields) {
  WireResponse response;
  response.op = OpCode::kStats;
  WireStats& s = response.stats;
  s.lookups = 1000;
  s.hits = 750;
  s.insertions = 240;
  s.evictions = 60;
  s.admission_rejections = 10;
  s.too_large_rejections = 2;
  s.cost_total = 999999;
  s.cost_saved = 888888;
  s.bytes_inserted = 1 << 30;
  s.bytes_evicted = 1 << 20;
  s.used_bytes = 12345678;
  s.capacity_bytes = 1ull << 33;
  s.entry_count = 180;
  s.retained_count = 97;
  s.invalidations = 5;
  s.num_shards = 8;
  s.policy_name = "lnc-ra(k=4)x8";
  s.connections_accepted = 17;
  s.connections_active = 3;
  s.connections_queued = 2;
  s.connections_queued_peak = 5;
  s.requests_served = 1010;
  s.frames_rejected = 1;
  s.compactions = 7;
  s.last_compaction_age_ms = 3456;
  s.backend = "epoll";
  WireOpMetrics m;
  m.op = static_cast<uint8_t>(OpCode::kExecute);
  m.requests = 500;
  m.errors = 4;
  m.latency_count = 500;
  m.latency_mean_us = 12.375;
  m.latency_min_us = 0.5;
  m.latency_max_us = 1875.25;
  s.per_op.push_back(m);

  auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
  ASSERT_TRUE(decoded.ok());
  const WireStats& d = decoded->stats;
  EXPECT_EQ(d.lookups, s.lookups);
  EXPECT_EQ(d.hits, s.hits);
  EXPECT_EQ(d.insertions, s.insertions);
  EXPECT_EQ(d.evictions, s.evictions);
  EXPECT_EQ(d.admission_rejections, s.admission_rejections);
  EXPECT_EQ(d.too_large_rejections, s.too_large_rejections);
  EXPECT_EQ(d.cost_total, s.cost_total);
  EXPECT_EQ(d.cost_saved, s.cost_saved);
  EXPECT_EQ(d.bytes_inserted, s.bytes_inserted);
  EXPECT_EQ(d.bytes_evicted, s.bytes_evicted);
  EXPECT_EQ(d.used_bytes, s.used_bytes);
  EXPECT_EQ(d.capacity_bytes, s.capacity_bytes);
  EXPECT_EQ(d.entry_count, s.entry_count);
  EXPECT_EQ(d.retained_count, s.retained_count);
  EXPECT_EQ(d.invalidations, s.invalidations);
  EXPECT_EQ(d.num_shards, s.num_shards);
  EXPECT_EQ(d.policy_name, s.policy_name);
  EXPECT_EQ(d.connections_accepted, s.connections_accepted);
  EXPECT_EQ(d.connections_active, s.connections_active);
  EXPECT_EQ(d.connections_queued, s.connections_queued);
  EXPECT_EQ(d.connections_queued_peak, s.connections_queued_peak);
  EXPECT_EQ(d.requests_served, s.requests_served);
  EXPECT_EQ(d.frames_rejected, s.frames_rejected);
  EXPECT_EQ(d.compactions, s.compactions);
  EXPECT_EQ(d.last_compaction_age_ms, s.last_compaction_age_ms);
  EXPECT_EQ(d.backend, s.backend);
  ASSERT_EQ(d.per_op.size(), 1u);
  EXPECT_EQ(d.per_op[0].op, m.op);
  EXPECT_EQ(d.per_op[0].requests, m.requests);
  EXPECT_EQ(d.per_op[0].errors, m.errors);
  EXPECT_EQ(d.per_op[0].latency_count, m.latency_count);
  // Doubles travel bit-exactly.
  EXPECT_EQ(d.per_op[0].latency_mean_us, m.latency_mean_us);
  EXPECT_EQ(d.per_op[0].latency_min_us, m.latency_min_us);
  EXPECT_EQ(d.per_op[0].latency_max_us, m.latency_max_us);
  EXPECT_DOUBLE_EQ(d.hit_ratio(), 0.75);
}

TEST(ProtocolTest, ExtractFrameNeedsCompletePrefixAndBody) {
  const std::string frame = EncodeRequest(WireRequest{});
  // Feed the frame byte by byte: no prefix of it except the whole thing
  // extracts.
  for (size_t len = 0; len < frame.size(); ++len) {
    std::string_view body;
    size_t frame_size = 0;
    auto extracted = ExtractFrame(frame.substr(0, len), kDefaultMaxFrameBytes,
                                  &body, &frame_size);
    ASSERT_TRUE(extracted.ok()) << len;
    EXPECT_FALSE(*extracted) << len;
  }
  std::string_view body;
  size_t frame_size = 0;
  auto extracted =
      ExtractFrame(frame, kDefaultMaxFrameBytes, &body, &frame_size);
  ASSERT_TRUE(extracted.ok());
  EXPECT_TRUE(*extracted);
  EXPECT_EQ(frame_size, frame.size());
}

TEST(ProtocolTest, ExtractFrameLeavesTrailingBytesForTheNextFrame) {
  WireRequest first;
  first.op = OpCode::kGet;
  first.query_text = "q1";
  WireRequest second;
  second.op = OpCode::kInvalidate;
  second.query_text = "q2";
  const std::string stream = EncodeRequest(first) + EncodeRequest(second);

  std::string_view body;
  size_t frame_size = 0;
  auto extracted =
      ExtractFrame(stream, kDefaultMaxFrameBytes, &body, &frame_size);
  ASSERT_TRUE(extracted.ok() && *extracted);
  auto decoded_first = DecodeRequest(body);
  ASSERT_TRUE(decoded_first.ok());
  EXPECT_EQ(decoded_first->query_text, "q1");

  extracted = ExtractFrame(std::string_view(stream).substr(frame_size),
                           kDefaultMaxFrameBytes, &body, &frame_size);
  ASSERT_TRUE(extracted.ok() && *extracted);
  auto decoded_second = DecodeRequest(body);
  ASSERT_TRUE(decoded_second.ok());
  EXPECT_EQ(decoded_second->query_text, "q2");
}

TEST(ProtocolTest, OversizedFrameIsCorruption) {
  // A length prefix of 2 MiB against a 1 MiB limit.
  std::string buffer;
  const uint32_t huge = 2u << 20;
  for (int i = 0; i < 4; ++i) {
    buffer.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  std::string_view body;
  size_t frame_size = 0;
  auto extracted = ExtractFrame(buffer, 1u << 20, &body, &frame_size);
  ASSERT_FALSE(extracted.ok());
  EXPECT_EQ(extracted.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, TruncatedBodyIsCorruption) {
  const std::string frame = EncodeRequest([] {
    WireRequest r;
    r.op = OpCode::kGet;
    r.query_text = "select * from nation";
    return r;
  }());
  const std::string body = BodyOf(frame);
  // Every strict prefix of the body must fail cleanly, never crash.
  for (size_t len = 0; len < body.size(); ++len) {
    auto decoded = DecodeRequest(body.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << len;
  }
}

/// Builds one representative request per opcode, covering every field
/// of the v3 framing (request id, strings, fill block, string list).
std::vector<WireRequest> RepresentativeRequests() {
  std::vector<WireRequest> out;
  for (OpCode op : {OpCode::kPing, OpCode::kExecute, OpCode::kGet,
                    OpCode::kInvalidate, OpCode::kInvalidateRelation,
                    OpCode::kStats}) {
    WireRequest r;
    r.op = op;
    r.request_id = 0xA5A5A5A5DEADBEEFull;
    r.query_text = "select sum(x) from t";
    r.relation = "lineitem";
    if (op == OpCode::kExecute) {
      r.has_fill = true;
      r.fill_payload = "payload";
      r.fill_cost = 123;
      r.fill_relations = {"a", "bb"};
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// One representative response per opcode (stats included).
std::vector<WireResponse> RepresentativeResponses() {
  std::vector<WireResponse> out;
  for (OpCode op : {OpCode::kPing, OpCode::kExecute, OpCode::kGet,
                    OpCode::kInvalidate, OpCode::kInvalidateRelation,
                    OpCode::kStats}) {
    WireResponse r;
    r.op = op;
    r.request_id = 77;
    r.code = StatusCode::kOk;
    r.cache_hit = true;
    r.payload = "retrieved set";
    r.dropped = 3;
    if (op == OpCode::kStats) {
      r.stats.lookups = 10;
      r.stats.policy_name = "lru";
      WireOpMetrics m;
      m.op = 2;
      m.requests = 4;
      r.stats.per_op.push_back(m);
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(ProtocolTest, EveryRequestPrefixFailsCleanly) {
  // Property: no strict prefix of any op's body decodes (every field
  // boundary of the request-id framing included), and none crashes.
  for (const WireRequest& request : RepresentativeRequests()) {
    const std::string body = BodyOf(EncodeRequest(request));
    for (size_t len = 0; len < body.size(); ++len) {
      auto decoded = DecodeRequest(body.substr(0, len));
      EXPECT_FALSE(decoded.ok())
          << OpCodeName(request.op) << " prefix " << len;
    }
    EXPECT_TRUE(DecodeRequest(body).ok()) << OpCodeName(request.op);
  }
}

TEST(ProtocolTest, EveryResponsePrefixFailsCleanly) {
  for (const WireResponse& response : RepresentativeResponses()) {
    const std::string body = BodyOf(EncodeResponse(response));
    for (size_t len = 0; len < body.size(); ++len) {
      auto decoded = DecodeResponse(body.substr(0, len));
      EXPECT_FALSE(decoded.ok())
          << OpCodeName(response.op) << " prefix " << len;
    }
    EXPECT_TRUE(DecodeResponse(body).ok()) << OpCodeName(response.op);
  }
}

TEST(ProtocolTest, SingleByteGarbageNeverCrashesTheDecoders) {
  // Property: flipping any single byte to any of a few adversarial
  // values either still decodes or fails with a clean status -- no
  // crash, no hang (string lengths are the dangerous fields).
  const uint8_t evil[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
  for (const WireRequest& request : RepresentativeRequests()) {
    const std::string body = BodyOf(EncodeRequest(request));
    for (size_t at = 0; at < body.size(); ++at) {
      for (uint8_t v : evil) {
        std::string mutated = body;
        mutated[at] = static_cast<char>(v);
        auto decoded = DecodeRequest(mutated);
        (void)decoded;  // any Status is fine; UB is not
      }
    }
  }
  for (const WireResponse& response : RepresentativeResponses()) {
    const std::string body = BodyOf(EncodeResponse(response));
    for (size_t at = 0; at < body.size(); ++at) {
      for (uint8_t v : evil) {
        std::string mutated = body;
        mutated[at] = static_cast<char>(v);
        auto decoded = DecodeResponse(mutated);
        (void)decoded;
      }
    }
  }
}

TEST(ProtocolTest, TrailingGarbageIsCorruption) {
  std::string body = BodyOf(EncodeRequest(WireRequest{}));
  body += "extra";
  auto decoded = DecodeRequest(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, VersionMismatchIsNotSupported) {
  std::string body = BodyOf(EncodeRequest(WireRequest{}));
  body[0] = static_cast<char>(kWireVersion + 1);
  auto decoded = DecodeRequest(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotSupported);
}

TEST(ProtocolTest, UnknownOpcodeIsInvalidArgument) {
  std::string body = BodyOf(EncodeRequest(WireRequest{}));
  body[1] = static_cast<char>(0x7f);
  auto decoded = DecodeRequest(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsValidOpCode(0x7f));
  EXPECT_FALSE(IsValidOpCode(0));
  EXPECT_TRUE(IsValidOpCode(static_cast<uint8_t>(OpCode::kStats)));
}

TEST(ProtocolTest, OpCodeNamesAreStable) {
  EXPECT_STREQ(OpCodeName(OpCode::kPing), "ping");
  EXPECT_STREQ(OpCodeName(OpCode::kExecute), "execute");
  EXPECT_STREQ(OpCodeName(OpCode::kGet), "get");
  EXPECT_STREQ(OpCodeName(OpCode::kInvalidate), "invalidate");
  EXPECT_STREQ(OpCodeName(OpCode::kInvalidateRelation),
               "invalidate_relation");
  EXPECT_STREQ(OpCodeName(OpCode::kStats), "stats");
  EXPECT_STREQ(OpCodeName(OpCode::kCompact), "compact");
}

TEST(ProtocolTest, NeverCompactedSentinelSurvivesTheWire) {
  // A fresh daemon reports "never compacted" as an all-ones age; the
  // sentinel must arrive intact (a 0 here would read as "just now").
  WireResponse response;
  response.op = OpCode::kStats;
  response.stats.backend = "epoll";
  auto decoded = DecodeResponse(BodyOf(EncodeResponse(response)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stats.last_compaction_age_ms,
            WireStats::kNeverCompacted);
  EXPECT_EQ(decoded->stats.compactions, 0u);
  EXPECT_EQ(decoded->stats.backend, "epoll");
}

}  // namespace
}  // namespace watchman
