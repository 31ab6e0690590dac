// Wire protocol: frame layout, encode/decode round-trips for every opcode,
// and the validate-before-allocate guarantees of the request decoders.
#include "src/net/protocol.h"

#include <cstring>

#include <gtest/gtest.h>

namespace rc::net {
namespace {

core::ClientInputs SampleInputs(uint64_t sub = 42) {
  core::ClientInputs in;
  in.subscription_id = sub;
  in.vm_type = 1;
  in.guest_os = 1;
  in.role = 2;
  in.cores = 8;
  in.memory_gb = 28.0;
  in.size_index = 3;
  in.region = 5;
  in.deploy_hour = 13;
  in.deploy_dow = 4;
  in.service_id = 7;
  return in;
}

// Splits a full frame into (header+body) payload, checking the length prefix.
std::pair<FrameHeader, rc::ml::ByteReader> OpenFrame(const std::vector<uint8_t>& frame) {
  EXPECT_GE(frame.size(), kLengthPrefixBytes + kHeaderBytes);
  uint32_t payload_len;
  std::memcpy(&payload_len, frame.data(), sizeof(payload_len));
  EXPECT_EQ(payload_len + kLengthPrefixBytes, frame.size());
  rc::ml::ByteReader r(frame.data() + kLengthPrefixBytes, payload_len);
  FrameHeader header;
  EXPECT_EQ(DecodeHeader(r, &header), WireStatus::kOk);
  return {header, r};
}

TEST(NetProtocolTest, InputsWireSizeMatchesConstant) {
  rc::ml::ByteWriter w;
  EncodeInputs(w, SampleInputs());
  EXPECT_EQ(w.size(), kInputsWireBytes);
}

TEST(NetProtocolTest, PredictSingleRequestRoundTrip) {
  std::vector<uint8_t> frame;
  AppendPredictSingleRequest(frame, 77, "VM_AVGUTIL", SampleInputs(99));
  auto [header, r] = OpenFrame(frame);
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPredictSingle));
  EXPECT_EQ(header.request_id, 77u);
  PredictSingleRequest req;
  ASSERT_EQ(DecodePredictSingleRequest(r, &req), WireStatus::kOk);
  EXPECT_EQ(req.model, "VM_AVGUTIL");
  EXPECT_EQ(req.inputs.subscription_id, 99u);
  EXPECT_EQ(req.inputs.cores, 8);
  EXPECT_DOUBLE_EQ(req.inputs.memory_gb, 28.0);
}

TEST(NetProtocolTest, PredictManyRequestRoundTrip) {
  std::vector<core::ClientInputs> inputs = {SampleInputs(1), SampleInputs(2), SampleInputs(3)};
  std::vector<uint8_t> frame;
  AppendPredictManyRequest(frame, 5, "VM_LIFETIME", inputs);
  auto [header, r] = OpenFrame(frame);
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPredictMany));
  PredictManyRequest req;
  ASSERT_EQ(DecodePredictManyRequest(r, kMaxBatch, &req), WireStatus::kOk);
  ASSERT_EQ(req.inputs.size(), 3u);
  EXPECT_EQ(req.inputs[2].subscription_id, 3u);
}

TEST(NetProtocolTest, PredictSingleResponseRoundTrip) {
  std::vector<uint8_t> frame;
  AppendPredictSingleResponse(frame, 12, core::Prediction::Of(2, 0.875));
  auto [header, r] = OpenFrame(frame);
  WireStatus remote;
  core::Prediction p;
  std::string error;
  ASSERT_TRUE(DecodePredictSingleResponse(r, &remote, &p, &error));
  EXPECT_EQ(remote, WireStatus::kOk);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.bucket, 2);
  EXPECT_DOUBLE_EQ(p.score, 0.875);
}

TEST(NetProtocolTest, PredictManyResponseRoundTrip) {
  std::vector<core::Prediction> predictions = {core::Prediction::Of(0, 0.5),
                                               core::Prediction::None()};
  std::vector<uint8_t> frame;
  AppendPredictManyResponse(frame, 9, predictions);
  auto [header, r] = OpenFrame(frame);
  WireStatus remote;
  std::vector<core::Prediction> out;
  std::string error;
  ASSERT_TRUE(DecodePredictManyResponse(r, kMaxBatch, &remote, &out, &error));
  EXPECT_EQ(remote, WireStatus::kOk);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].valid);
  EXPECT_FALSE(out[1].valid);
}

TEST(NetProtocolTest, HealthRoundTrip) {
  HealthResponse health;
  health.requests = 100;
  health.predictions = 250;
  health.protocol_errors = 3;
  health.active_connections = 7;
  health.num_models = 6;
  std::vector<uint8_t> frame;
  AppendHealthResponse(frame, 1, health);
  auto [header, r] = OpenFrame(frame);
  WireStatus remote;
  HealthResponse out;
  std::string error;
  ASSERT_TRUE(DecodeHealthResponse(r, &remote, &out, &error));
  EXPECT_EQ(out.requests, 100u);
  EXPECT_EQ(out.predictions, 250u);
  EXPECT_EQ(out.protocol_errors, 3u);
  EXPECT_EQ(out.active_connections, 7u);
  EXPECT_EQ(out.num_models, 6u);
}

TEST(NetProtocolTest, ErrorResponseCarriesStatusAndMessage) {
  std::vector<uint8_t> frame;
  AppendErrorResponse(frame, Opcode::kPredictMany, 33, WireStatus::kBatchTooLarge,
                      "batch too large");
  auto [header, r] = OpenFrame(frame);
  EXPECT_EQ(header.request_id, 33u);
  WireStatus remote;
  std::vector<core::Prediction> out;
  std::string error;
  ASSERT_TRUE(DecodePredictManyResponse(r, kMaxBatch, &remote, &out, &error));
  EXPECT_EQ(remote, WireStatus::kBatchTooLarge);
  EXPECT_EQ(error, "batch too large");
  EXPECT_TRUE(out.empty());
}

TEST(NetProtocolTest, HeaderRejectsBadMagicVersionOpcode) {
  std::vector<uint8_t> frame;
  AppendHealthRequest(frame, 1);
  // Flip the magic.
  {
    std::vector<uint8_t> bad = frame;
    bad[kLengthPrefixBytes] ^= 0xFF;
    rc::ml::ByteReader r(bad.data() + kLengthPrefixBytes, bad.size() - kLengthPrefixBytes);
    FrameHeader h;
    EXPECT_EQ(DecodeHeader(r, &h), WireStatus::kBadMagic);
  }
  // Bump the version.
  {
    std::vector<uint8_t> bad = frame;
    bad[kLengthPrefixBytes + 4] = 0x7F;
    rc::ml::ByteReader r(bad.data() + kLengthPrefixBytes, bad.size() - kLengthPrefixBytes);
    FrameHeader h;
    EXPECT_EQ(DecodeHeader(r, &h), WireStatus::kBadVersion);
  }
  // Unknown opcode still yields the request id so the error can echo it.
  {
    std::vector<uint8_t> bad = frame;
    bad[kLengthPrefixBytes + 6] = 0x77;
    rc::ml::ByteReader r(bad.data() + kLengthPrefixBytes, bad.size() - kLengthPrefixBytes);
    FrameHeader h;
    EXPECT_EQ(DecodeHeader(r, &h), WireStatus::kBadOpcode);
    EXPECT_EQ(h.request_id, 1u);
  }
}

TEST(NetProtocolTest, PredictManyCountValidatedBeforeAllocation) {
  std::vector<core::ClientInputs> inputs = {SampleInputs(1), SampleInputs(2)};
  std::vector<uint8_t> frame;
  AppendPredictManyRequest(frame, 5, "M", inputs);
  // Inflate the announced count without providing the bytes: the decoder
  // must reject instead of resizing to the bogus count.
  size_t count_off = kLengthPrefixBytes + kHeaderBytes + 4 + 1;  // strlen("M") == 1
  uint32_t bogus = 0x00FFFFFF;
  std::memcpy(frame.data() + count_off, &bogus, sizeof(bogus));
  rc::ml::ByteReader r(frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes);
  FrameHeader h;
  ASSERT_EQ(DecodeHeader(r, &h), WireStatus::kOk);
  PredictManyRequest req;
  EXPECT_EQ(DecodePredictManyRequest(r, kMaxBatch, &req), WireStatus::kBatchTooLarge);
  EXPECT_TRUE(req.inputs.empty());

  // A count within kMaxBatch but inconsistent with the actual bytes is
  // malformed, not a crash or an over-allocation.
  uint32_t inconsistent = 100;
  std::memcpy(frame.data() + count_off, &inconsistent, sizeof(inconsistent));
  rc::ml::ByteReader r2(frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes);
  ASSERT_EQ(DecodeHeader(r2, &h), WireStatus::kOk);
  EXPECT_EQ(DecodePredictManyRequest(r2, kMaxBatch, &req), WireStatus::kMalformed);
}

TEST(NetProtocolTest, TrailingGarbageIsMalformed) {
  std::vector<uint8_t> frame;
  AppendPredictSingleRequest(frame, 1, "M", SampleInputs());
  // Rebuild the frame with two extra bytes inside the declared payload.
  std::vector<uint8_t> body(frame.begin() + kLengthPrefixBytes + kHeaderBytes, frame.end());
  body.push_back(0xAA);
  body.push_back(0xBB);
  std::vector<uint8_t> padded;
  AppendFrame(padded, Opcode::kPredictSingle, 1, body);
  rc::ml::ByteReader r(padded.data() + kLengthPrefixBytes, padded.size() - kLengthPrefixBytes);
  FrameHeader h;
  ASSERT_EQ(DecodeHeader(r, &h), WireStatus::kOk);
  PredictSingleRequest req;
  EXPECT_EQ(DecodePredictSingleRequest(r, &req), WireStatus::kMalformed);
}

TEST(NetProtocolTest, TraceContextRoundTrips) {
  rc::obs::TraceContext trace{0xDEADBEEF12345678ull, 0xCAFE000000000042ull, true};
  std::vector<uint8_t> frame;
  AppendPredictSingleRequest(frame, 7, "VM_AVGUTIL", SampleInputs(), trace);
  auto [header, r] = OpenFrame(frame);
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.flags, kFlagTraceContext);
  EXPECT_EQ(header.trace.trace_id, trace.trace_id);
  EXPECT_EQ(header.trace.span_id, trace.span_id);
  EXPECT_TRUE(header.trace.sampled);
  PredictSingleRequest req;  // the body still decodes after the trace block
  ASSERT_EQ(DecodePredictSingleRequest(r, &req), WireStatus::kOk);
  EXPECT_EQ(req.model, "VM_AVGUTIL");
}

TEST(NetProtocolTest, UntracedV2FrameHasNoTraceBlock) {
  std::vector<uint8_t> frame;
  AppendPredictSingleRequest(frame, 7, "M", SampleInputs());
  auto [header, r] = OpenFrame(frame);
  EXPECT_EQ(header.flags, 0);
  EXPECT_EQ(header.trace.trace_id, 0u);
  EXPECT_FALSE(header.trace.valid());
}

// A version-1 peer's frame has the 16-byte version-independent prefix and
// no flags byte. It is refused as an unsupported version, not as a
// malformed frame, and the request id is read so the refusal can echo it.
TEST(NetProtocolTest, V1FrameIsRefusedWithItsRequestId) {
  rc::ml::ByteWriter w;
  w.U32(kMagic);
  w.Pod<uint16_t>(1);  // version
  w.Pod<uint16_t>(static_cast<uint16_t>(Opcode::kHealth));
  w.U64(88);
  ASSERT_EQ(w.bytes().size(), kHeaderBytes - 1);
  rc::ml::ByteReader r(w.bytes().data(), w.bytes().size());
  FrameHeader h;
  EXPECT_EQ(DecodeHeader(r, &h), WireStatus::kBadVersion);
  EXPECT_EQ(h.version, 1);
  EXPECT_EQ(h.request_id, 88u);
  EXPECT_EQ(h.opcode, static_cast<uint16_t>(Opcode::kHealth));
}

// Flags announce a trace block the payload doesn't contain: the header
// decoder must reject before reading past the end (validate-before-read).
TEST(NetProtocolTest, TruncatedTraceBlockIsMalformed) {
  rc::obs::TraceContext trace{1, 2, true};
  std::vector<uint8_t> frame;
  AppendFrame(frame, Opcode::kHealth, 5, {}, trace);
  for (size_t chop = 1; chop <= kTraceWireBytes; ++chop) {
    std::vector<uint8_t> bad(frame.begin(), frame.end() - static_cast<long>(chop));
    uint32_t payload_len = static_cast<uint32_t>(bad.size() - kLengthPrefixBytes);
    std::memcpy(bad.data(), &payload_len, sizeof(payload_len));
    rc::ml::ByteReader r(bad.data() + kLengthPrefixBytes, payload_len);
    FrameHeader h;
    EXPECT_EQ(DecodeHeader(r, &h), WireStatus::kMalformed) << "chop " << chop;
  }
}

// Unknown flag bits are rejected rather than skipped: a future flag may
// change the layout after the flags byte, so guessing would misparse.
TEST(NetProtocolTest, UnknownFlagBitsAreMalformed) {
  std::vector<uint8_t> frame;
  AppendHealthRequest(frame, 3);
  ASSERT_EQ(frame.size(), kLengthPrefixBytes + kHeaderBytes);
  frame[kLengthPrefixBytes + kHeaderBytes - 1] = 0x02;  // the flags byte
  rc::ml::ByteReader r(frame.data() + kLengthPrefixBytes, frame.size() - kLengthPrefixBytes);
  FrameHeader h;
  EXPECT_EQ(DecodeHeader(r, &h), WireStatus::kMalformed);
}

}  // namespace
}  // namespace rc::net
