#include "src/net/protocol.h"

#include <cstring>

namespace rc::net {

namespace {

using rc::ml::ByteReader;
using rc::ml::ByteWriter;

void AppendRaw(std::vector<uint8_t>& out, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

void EncodePrediction(ByteWriter& w, const core::Prediction& p) {
  w.Pod<uint8_t>(p.valid ? 1 : 0);
  w.I32(p.bucket);
  w.F64(p.score);
}

core::Prediction DecodePrediction(ByteReader& r) {
  core::Prediction p;
  p.valid = r.Pod<uint8_t>() != 0;
  p.bucket = r.I32();
  p.score = r.F64();
  return p;
}

// Begins a response body; error statuses carry a message and nothing else.
void EncodeStatus(ByteWriter& w, WireStatus status) {
  w.Pod<uint16_t>(static_cast<uint16_t>(status));
}

// Reads the leading status of a response body. False on truncation.
bool ReadStatus(ByteReader& r, WireStatus* status, std::string* error) {
  try {
    *status = static_cast<WireStatus>(r.Pod<uint16_t>());
    if (*status != WireStatus::kOk) {
      *error = r.String();
      return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

const char* ToString(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadMagic: return "bad magic";
    case WireStatus::kBadVersion: return "unsupported version";
    case WireStatus::kBadOpcode: return "unknown opcode";
    case WireStatus::kMalformed: return "malformed body";
    case WireStatus::kFrameTooLarge: return "frame too large";
    case WireStatus::kBatchTooLarge: return "batch too large";
    case WireStatus::kInternal: return "internal error";
  }
  return "unknown status";
}

void AppendFrame(std::vector<uint8_t>& out, Opcode opcode, uint64_t request_id,
                 std::span<const uint8_t> body, const obs::TraceContext& trace) {
  const uint8_t flags = trace.valid() ? kFlagTraceContext : 0;
  size_t header_bytes = kHeaderBytes;
  if (flags & kFlagTraceContext) header_bytes += kTraceWireBytes;
  uint32_t payload_len = static_cast<uint32_t>(header_bytes + body.size());
  uint32_t magic = kMagic;
  uint16_t version = kProtocolVersion;
  uint16_t op = static_cast<uint16_t>(opcode);
  out.reserve(out.size() + kLengthPrefixBytes + payload_len);
  AppendRaw(out, &payload_len, sizeof(payload_len));
  AppendRaw(out, &magic, sizeof(magic));
  AppendRaw(out, &version, sizeof(version));
  AppendRaw(out, &op, sizeof(op));
  AppendRaw(out, &request_id, sizeof(request_id));
  out.push_back(flags);
  if (flags & kFlagTraceContext) {
    AppendRaw(out, &trace.trace_id, sizeof(trace.trace_id));
    AppendRaw(out, &trace.span_id, sizeof(trace.span_id));
    out.push_back(trace.sampled ? 1 : 0);
  }
  if (!body.empty()) AppendRaw(out, body.data(), body.size());
}

void EncodeInputs(ByteWriter& w, const core::ClientInputs& in) {
  w.U64(in.subscription_id);
  w.I32(in.vm_type);
  w.I32(in.guest_os);
  w.I32(in.role);
  w.I32(in.cores);
  w.F64(in.memory_gb);
  w.I32(in.size_index);
  w.I32(in.region);
  w.I32(in.deploy_hour);
  w.I32(in.deploy_dow);
  w.I32(in.service_id);
}

core::ClientInputs DecodeInputs(ByteReader& r) {
  core::ClientInputs in;
  in.subscription_id = r.U64();
  in.vm_type = r.I32();
  in.guest_os = r.I32();
  in.role = r.I32();
  in.cores = r.I32();
  in.memory_gb = r.F64();
  in.size_index = r.I32();
  in.region = r.I32();
  in.deploy_hour = r.I32();
  in.deploy_dow = r.I32();
  in.service_id = r.I32();
  return in;
}

void AppendPredictSingleRequest(std::vector<uint8_t>& out, uint64_t request_id,
                                const std::string& model, const core::ClientInputs& inputs,
                                const obs::TraceContext& trace) {
  ByteWriter w;
  w.String(model);
  EncodeInputs(w, inputs);
  AppendFrame(out, Opcode::kPredictSingle, request_id, w.bytes(), trace);
}

void AppendPredictManyRequest(std::vector<uint8_t>& out, uint64_t request_id,
                              const std::string& model,
                              std::span<const core::ClientInputs> inputs,
                              const obs::TraceContext& trace) {
  ByteWriter w;
  w.String(model);
  w.U32(static_cast<uint32_t>(inputs.size()));
  for (const core::ClientInputs& in : inputs) EncodeInputs(w, in);
  AppendFrame(out, Opcode::kPredictMany, request_id, w.bytes(), trace);
}

void AppendHealthRequest(std::vector<uint8_t>& out, uint64_t request_id) {
  AppendFrame(out, Opcode::kHealth, request_id, {});
}

void AppendPredictSingleResponse(std::vector<uint8_t>& out, uint64_t request_id,
                                 const core::Prediction& prediction) {
  ByteWriter w;
  EncodeStatus(w, WireStatus::kOk);
  EncodePrediction(w, prediction);
  AppendFrame(out, Opcode::kPredictSingle, request_id, w.bytes());
}

void AppendPredictManyResponse(std::vector<uint8_t>& out, uint64_t request_id,
                               std::span<const core::Prediction> predictions) {
  ByteWriter w;
  EncodeStatus(w, WireStatus::kOk);
  w.U32(static_cast<uint32_t>(predictions.size()));
  for (const core::Prediction& p : predictions) EncodePrediction(w, p);
  AppendFrame(out, Opcode::kPredictMany, request_id, w.bytes());
}

void AppendHealthResponse(std::vector<uint8_t>& out, uint64_t request_id,
                          const HealthResponse& health) {
  ByteWriter w;
  EncodeStatus(w, WireStatus::kOk);
  w.U64(health.requests);
  w.U64(health.predictions);
  w.U64(health.protocol_errors);
  w.U64(health.active_connections);
  w.U32(health.num_models);
  AppendFrame(out, Opcode::kHealth, request_id, w.bytes());
}

void AppendErrorResponse(std::vector<uint8_t>& out, Opcode opcode, uint64_t request_id,
                         WireStatus status, std::string_view message) {
  ByteWriter w;
  EncodeStatus(w, status);
  w.String(message);
  AppendFrame(out, opcode, request_id, w.bytes());
}

WireStatus DecodeHeader(ByteReader& r, FrameHeader* header) {
  *header = FrameHeader{};
  // The prefix before the flags byte is version-independent: read it first
  // so a frame of another version is refused as such, with its id echoed.
  if (r.remaining() < kHeaderBytes - 1) return WireStatus::kMalformed;
  header->magic = r.U32();
  header->version = r.Pod<uint16_t>();
  header->opcode = r.Pod<uint16_t>();
  header->request_id = r.U64();
  if (header->magic != kMagic) return WireStatus::kBadMagic;
  if (header->version != kProtocolVersion) return WireStatus::kBadVersion;
  // Flags byte, then any optional blocks it announces — each length checked
  // against the remaining bytes before it is read.
  if (r.remaining() < 1) return WireStatus::kMalformed;
  header->flags = r.Pod<uint8_t>();
  if ((header->flags & ~kFlagTraceContext) != 0) return WireStatus::kMalformed;
  if (header->flags & kFlagTraceContext) {
    if (r.remaining() < kTraceWireBytes) return WireStatus::kMalformed;
    header->trace.trace_id = r.U64();
    header->trace.span_id = r.U64();
    header->trace.sampled = r.Pod<uint8_t>() != 0;
  }
  switch (static_cast<Opcode>(header->opcode)) {
    case Opcode::kPredictSingle:
    case Opcode::kPredictMany:
    case Opcode::kHealth:
      return WireStatus::kOk;
  }
  return WireStatus::kBadOpcode;
}

WireStatus DecodePredictSingleRequest(ByteReader& r, PredictSingleRequest* out) {
  try {
    out->model = r.String();
    out->inputs = DecodeInputs(r);
    if (!r.AtEnd()) return WireStatus::kMalformed;  // trailing garbage
  } catch (const std::exception&) {
    return WireStatus::kMalformed;
  }
  return WireStatus::kOk;
}

WireStatus DecodePredictManyRequest(ByteReader& r, size_t max_batch,
                                    PredictManyRequest* out) {
  try {
    out->model = r.String();
    uint32_t count = r.U32();
    if (count > max_batch) return WireStatus::kBatchTooLarge;
    // Validate the announced count against the bytes actually present
    // before allocating (a flipped count byte must not drive a huge resize).
    if (static_cast<size_t>(count) * kInputsWireBytes != r.remaining()) {
      return WireStatus::kMalformed;
    }
    out->inputs.resize(count);
    for (uint32_t i = 0; i < count; ++i) out->inputs[i] = DecodeInputs(r);
  } catch (const std::exception&) {
    return WireStatus::kMalformed;
  }
  return WireStatus::kOk;
}

bool DecodePredictSingleResponse(ByteReader& r, WireStatus* remote_status,
                                 core::Prediction* out, std::string* error) {
  if (!ReadStatus(r, remote_status, error)) return false;
  if (*remote_status != WireStatus::kOk) return true;
  try {
    *out = DecodePrediction(r);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool DecodePredictManyResponse(ByteReader& r, size_t max_batch, WireStatus* remote_status,
                               std::vector<core::Prediction>* out, std::string* error) {
  if (!ReadStatus(r, remote_status, error)) return false;
  if (*remote_status != WireStatus::kOk) return true;
  try {
    uint32_t count = r.U32();
    constexpr size_t kPredictionWireBytes = 1 + 4 + 8;
    if (count > max_batch || static_cast<size_t>(count) * kPredictionWireBytes != r.remaining()) {
      return false;
    }
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) (*out)[i] = DecodePrediction(r);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool DecodeHealthResponse(ByteReader& r, WireStatus* remote_status, HealthResponse* out,
                          std::string* error) {
  if (!ReadStatus(r, remote_status, error)) return false;
  if (*remote_status != WireStatus::kOk) return true;
  try {
    out->requests = r.U64();
    out->predictions = r.U64();
    out->protocol_errors = r.U64();
    out->active_connections = r.U64();
    out->num_models = r.U32();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace rc::net
