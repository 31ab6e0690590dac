// End-to-end trace propagation: a sampled PredictSingle through the pooled
// TCP client against a live server (combiner on, fast path off so the lone
// caller parks) must produce ONE connected span tree on /tracez — client
// send, server frame read, combiner park/dispatch, engine execute, response
// write — with the coalesced marker carrying a follows-from link to the
// dispatch span. Also pins the refusal of other protocol versions: a
// hand-built v1 frame gets a kBadVersion reply echoing its request id, and
// the connection keeps serving.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/obs/trace_context.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"

namespace rc::net {
namespace {

using rc::core::ClientInputs;
using rc::core::OfflinePipeline;
using rc::core::PipelineConfig;
using rc::core::TrainedModels;
using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

struct SpanInfo {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t link_span_id = 0;
};

// Pulls every span object out of a TracezJson rendering, keyed by name.
// Duplicate names keep the first occurrence (one trace, one request here).
std::map<std::string, SpanInfo> ParseSpans(const std::string& json) {
  std::map<std::string, SpanInfo> spans;
  auto hex_after = [&json](size_t from, const char* key) -> uint64_t {
    size_t k = json.find(key, from);
    if (k == std::string::npos) return 0;
    return std::stoull(json.substr(k + std::strlen(key), 20), nullptr, 16);
  };
  for (size_t pos = json.find("{\"name\":\""); pos != std::string::npos;
       pos = json.find("{\"name\":\"", pos + 1)) {
    size_t name_start = pos + std::strlen("{\"name\":\"");
    size_t name_end = json.find('"', name_start);
    std::string name = json.substr(name_start, name_end - name_start);
    size_t obj_end = json.find('}', name_end);
    if (spans.contains(name)) continue;
    SpanInfo info;
    size_t link = json.find("\"link_span_id\":\"0x", name_end);
    info.span_id = hex_after(name_end, "\"span_id\":\"0x");
    info.parent_span_id = hex_after(name_end, "\"parent_span_id\":\"0x");
    if (link != std::string::npos && link < obj_end) {
      info.link_span_id = hex_after(name_end, "\"link_span_id\":\"0x");
    }
    spans[name] = info;
  }
  return spans;
}

class TracePropagationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 2000;
    config.num_subscriptions = 100;
    config.seed = 99;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 4;
    pipeline_config.gbt.num_rounds = 4;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    rc::obs::TraceStore::Global().Configure({});
    rc::obs::TraceStore::Global().Clear();
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
    core_client_ = std::make_unique<rc::core::Client>(store_.get(), rc::core::ClientConfig{});
    ASSERT_TRUE(core_client_->Initialize());
    ServerConfig server_config;
    server_config.num_workers = 2;
    server_config.combiner_mode = CombinerMode::kShared;
    server_config.combiner_fast_path_when_idle = false;  // lone callers park
    server_ = std::make_unique<Server>(core_client_.get(), server_config);
    ASSERT_TRUE(server_->Start());
  }

  void TearDown() override {
    rc::obs::Tracer::Global().SetSampleEvery(0);
    server_.reset();
    core_client_.reset();
    store_.reset();
    rc::obs::TraceStore::Global().Clear();
  }

  ClientInputs KnownInputs() const {
    static const rc::trace::VmSizeCatalog catalog;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        return rc::core::InputsFromVm(vm, catalog);
      }
    }
    ADD_FAILURE() << "no known subscription";
    return {};
  }

  // The write span and server finish land on server threads that may still
  // be running when the client call returns; poll until the tree is whole.
  std::string WaitForSpans(const std::vector<std::string>& names,
                           int attempts = 200) {
    std::string json;
    for (int i = 0; i < attempts; ++i) {
      json = rc::obs::TraceStore::Global().TracezJson();
      bool all = true;
      for (const auto& name : names) {
        if (json.find(name) == std::string::npos) all = false;
      }
      if (all) return json;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return json;
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
  std::unique_ptr<rc::core::Client> core_client_;
  std::unique_ptr<Server> server_;
};

const Trace* TracePropagationTest::trace_ = nullptr;
const TrainedModels* TracePropagationTest::trained_ = nullptr;

TEST_F(TracePropagationTest, SampledRequestFormsOneConnectedTree) {
  rc::obs::Tracer::Global().SetSampleEvery(1);
  ClientConfig config;
  config.port = server_->port();
  config.pool_size = 1;
  config.default_deadline_us = 5'000'000;
  Client client(config);
  core::Prediction p;
  ASSERT_EQ(client.PredictSingle("VM_AVGUTIL", KnownInputs(), &p), Status::kOk);

  const std::vector<std::string> expected = {
      "netclient/call",     "net/read_frame",    "net/predict",
      "combiner/predict",   "combiner/park",     "combiner/dispatch",
      "combiner/coalesced", "client/predict",    "client/exec_batch",
      "net/write_frame"};
  std::string json = WaitForSpans(expected);
  auto spans = ParseSpans(json);
  for (const auto& name : expected) {
    ASSERT_TRUE(spans.contains(name)) << "missing " << name << " in\n" << json;
  }

  // One retained trace: every span in one tree, rooted at the client call.
  EXPECT_EQ(spans["netclient/call"].parent_span_id, 0u);
  const uint64_t root = spans["netclient/call"].span_id;
  EXPECT_EQ(spans["net/read_frame"].parent_span_id, root);
  EXPECT_EQ(spans["net/predict"].parent_span_id, root);
  EXPECT_EQ(spans["net/write_frame"].parent_span_id, root);
  EXPECT_EQ(spans["combiner/predict"].parent_span_id, spans["net/predict"].span_id);
  EXPECT_EQ(spans["combiner/park"].parent_span_id, spans["combiner/predict"].span_id);
  // The lone caller self-dispatches: the dispatch runs under its park span,
  // and the coalesced marker links back to the dispatch that did the work.
  EXPECT_EQ(spans["combiner/dispatch"].parent_span_id, spans["combiner/park"].span_id);
  EXPECT_EQ(spans["combiner/coalesced"].parent_span_id, spans["combiner/park"].span_id);
  EXPECT_EQ(spans["combiner/coalesced"].link_span_id, spans["combiner/dispatch"].span_id);
  // Execution happened inside the dispatch, not on some orphan context.
  EXPECT_EQ(spans["client/predict"].parent_span_id, spans["combiner/dispatch"].span_id);
  EXPECT_EQ(spans["client/exec_batch"].parent_span_id, spans["client/predict"].span_id);

  EXPECT_GE(rc::obs::TraceStore::Global().finished_count(), 1u);
}

TEST_F(TracePropagationTest, UnsampledRequestsRecordNothing) {
  rc::obs::Tracer::Global().SetSampleEvery(0);
  ClientConfig config;
  config.port = server_->port();
  config.pool_size = 1;
  Client client(config);
  core::Prediction p;
  ASSERT_EQ(client.PredictSingle("VM_AVGUTIL", KnownInputs(), &p), Status::kOk);
  EXPECT_EQ(rc::obs::TraceStore::Global().finished_count(), 0u);
  std::string json = rc::obs::TraceStore::Global().TracezJson();
  EXPECT_EQ(json.find("netclient/call"), std::string::npos);
}

// A version-1 peer: 16-byte header, no flags byte. The server answers with
// a kBadVersion error echoing the request id, and the frame boundary is
// intact, so the same connection then serves a current health request.
// Driven over a raw socket because the pooled client speaks only the current
// version.
TEST_F(TracePropagationTest, V1FrameIsRefusedAndConnectionStaysUsable) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  auto send_all = [fd](const std::vector<uint8_t>& bytes) {
    return ::send(fd, bytes.data(), bytes.size(), 0) == static_cast<ssize_t>(bytes.size());
  };
  auto read_exact = [fd](void* buf, size_t n) {
    uint8_t* out = static_cast<uint8_t*>(buf);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  };
  auto read_frame = [&read_exact](std::vector<uint8_t>* payload) {
    uint32_t payload_len = 0;
    if (!read_exact(&payload_len, sizeof(payload_len))) return false;
    payload->resize(payload_len);
    return read_exact(payload->data(), payload_len);
  };

  // A health request as a v1 peer frames it: empty body, 16-byte header.
  rc::ml::ByteWriter w;
  w.U32(static_cast<uint32_t>(kHeaderBytes - 1));  // length prefix
  w.U32(kMagic);
  w.Pod<uint16_t>(1);  // version
  w.Pod<uint16_t>(static_cast<uint16_t>(Opcode::kHealth));
  w.U64(424242);
  ASSERT_TRUE(send_all(w.bytes()));

  std::vector<uint8_t> payload;
  ASSERT_TRUE(read_frame(&payload));
  {
    rc::ml::ByteReader r(payload.data(), payload.size());
    FrameHeader header;
    ASSERT_EQ(DecodeHeader(r, &header), WireStatus::kOk);
    EXPECT_EQ(header.version, kProtocolVersion);
    EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kHealth));
    EXPECT_EQ(header.request_id, 424242u);
    WireStatus remote;
    HealthResponse health;
    std::string error;
    ASSERT_TRUE(DecodeHealthResponse(r, &remote, &health, &error));
    EXPECT_EQ(remote, WireStatus::kBadVersion);
    EXPECT_FALSE(error.empty());
  }

  // The same connection still serves a current frame.
  std::vector<uint8_t> v2_frame;
  AppendHealthRequest(v2_frame, 424243);
  ASSERT_TRUE(send_all(v2_frame));
  ASSERT_TRUE(read_frame(&payload));
  ::close(fd);
  rc::ml::ByteReader r(payload.data(), payload.size());
  FrameHeader header;
  ASSERT_EQ(DecodeHeader(r, &header), WireStatus::kOk);
  EXPECT_EQ(header.request_id, 424243u);
  WireStatus remote;
  HealthResponse health;
  std::string error;
  ASSERT_TRUE(DecodeHealthResponse(r, &remote, &health, &error));
  EXPECT_EQ(remote, WireStatus::kOk);
  EXPECT_EQ(health.num_models, 6u);
}

}  // namespace
}  // namespace rc::net
