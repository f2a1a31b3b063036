// In-process end-to-end test of the serve front door: a real ElasticHead +
// ServeGateway, a real ElasticWorker with the replica feed enabled, and a
// KvClient speaking the request/response protocol over loopback TCP. The
// single-process complement of the multi-process chaos serve test.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv.h"
#include "src/net/frame.h"
#include "src/runtime/elastic.h"
#include "src/serve/client.h"
#include "src/serve/gateway.h"

namespace sdg::serve {
namespace {

constexpr uint32_t kPartitions = 4;

class GatewayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("sdg_gateway_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  elastic::ElasticHeadOptions HeadOptions() {
    elastic::ElasticHeadOptions h;
    h.state = "store";
    h.partitions = kPartitions;
    h.entries = {"put", "get", "del"};  // serve fleet entry order
    h.backup_root = (root_ / "backup").string();
    h.monitor_interval_ms = 20;
    h.migrate_timeout_ms = 20000;
    return h;
  }

  // `ckpt_interval_ms` 0: the worker never checkpoints, so it never acks the
  // head's log. `slow_us`: per-item ingest delay (a slow owner).
  std::unique_ptr<elastic::ElasticWorker> MakeServeWorker(
      uint32_t member_id, uint16_t head_port, int ckpt_interval_ms,
      int slow_us = 0) {
    apps::KvOptions kv;
    kv.partitions = kPartitions;
    auto g = apps::BuildKvSdg(kv);
    EXPECT_TRUE(g.ok());
    elastic::ElasticWorkerOptions w;
    w.member_id = member_id;
    w.name = "w" + std::to_string(member_id);
    w.head_port = head_port;
    w.state = "store";
    w.partitions = kPartitions;
    w.entries = {"put", "get", "del"};
    w.backup_root = (root_ / "backup").string();
    w.checkpoint_interval_ms = ckpt_interval_ms;
    w.slow_us = slow_us;
    w.serve_feed = true;
    w.forward_sinks = {"get"};
    return std::make_unique<elastic::ElasticWorker>(std::move(*g),
                                                    std::move(w));
  }

  std::filesystem::path root_;
};

TEST_F(GatewayFixture, PutGetDelOverTheWire) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/100);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClient client({"127.0.0.1", head.port()});
  ASSERT_TRUE(client.Connect().ok());

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 60; ++k) {
    std::string v = "v" + std::to_string(k);
    auto resp = client.Put(k, v);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
    model[k] = v;
  }
  for (int64_t k = 0; k < 60; k += 4) {
    auto resp = client.Del(k);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
    model.erase(k);
  }

  // Strong gets see every write exactly (writes and reads ride separate
  // per-entry channels, so allow a short settle per key).
  for (int64_t k = 0; k < 60; ++k) {
    std::string want;
    if (auto it = model.find(k); it != model.end()) {
      want = it->second;
    }
    bool matched = false;
    for (int attempt = 0; attempt < 100 && !matched; ++attempt) {
      auto resp = client.Get(k);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      if (resp->code == net::kRespOk && resp->value == want) {
        matched = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(matched) << "key " << k;
  }

  auto st = gw.stats();
  EXPECT_EQ(st.puts, 60u);
  EXPECT_EQ(st.dels, 15u);
  EXPECT_GE(st.strong_gets, 60u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_GT(st.batches, 0u);

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

// A pipelined burst of strong gets, far past the 64-frame credit window a
// per-stream reply path would have: every reply rides the worker's control
// channel back to the head, and every one must arrive, ok, with the value
// written. The keys are read back once first, so each burst get must see its
// put.
TEST_F(GatewayFixture, PipelinedStrongGetBurstAllAnswered) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/100);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  // Nothing in this burst may be shed or time out: the test is about
  // replies, not admission.
  go.admission.high_water = 1u << 20;
  go.admission.low_water = 1u << 19;
  go.request_timeout_ms = 60000;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClientOptions co;
  co.port = head.port();
  co.recv_timeout_ms = 60000;
  KvClient client(co);
  ASSERT_TRUE(client.Connect().ok());

  constexpr int64_t kKeys = 64;
  for (int64_t k = 0; k < kKeys; ++k) {
    auto resp = client.Put(k, "value-" + std::to_string(k));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
  }
  // Writes and reads ride separate per-entry channels: settle each key once.
  for (int64_t k = 0; k < kKeys; ++k) {
    const std::string want = "value-" + std::to_string(k);
    bool matched = false;
    for (int attempt = 0; attempt < 200 && !matched; ++attempt) {
      auto resp = client.Get(k);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      matched = resp->code == net::kRespOk && resp->value == want;
      if (!matched) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_TRUE(matched) << "key " << k << " never read back";
  }

  constexpr int kBurst = 4096;
  std::map<uint64_t, int64_t> key_of;
  for (int i = 0; i < kBurst; ++i) {
    net::RequestMsg req;
    req.request_id = client.NextRequestId();
    req.op = net::kOpGet;
    req.key = i % kKeys;
    key_of[req.request_id] = req.key;
    ASSERT_TRUE(client.Send(req).ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client.Recv();
    ASSERT_TRUE(resp.ok()) << "response " << i << " lost: "
                           << resp.status().ToString();
    auto it = key_of.find(resp->request_id);
    ASSERT_NE(it, key_of.end()) << "unknown or duplicate request id "
                                << resp->request_id;
    EXPECT_EQ(resp->code, net::kRespOk) << "request " << resp->request_id;
    EXPECT_EQ(resp->value, "value-" + std::to_string(it->second));
    key_of.erase(it);
  }
  EXPECT_TRUE(key_of.empty());
  EXPECT_EQ(gw.stats().shed, 0u);
  EXPECT_EQ(gw.stats().timeouts, 0u);

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

TEST_F(GatewayFixture, BoundedStaleReadsComeFromReplica) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/50);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClient client({"127.0.0.1", head.port()});
  ASSERT_TRUE(client.Connect().ok());

  for (int64_t k = 0; k < 40; ++k) {
    auto resp = client.Put(k, "r" + std::to_string(k));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->code, net::kRespOk);
  }

  // Wait until every partition's replica has applied at least one epoch by
  // probing with stale gets (the fleet is quiescing, so replicas converge).
  uint64_t replica_answers = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int64_t k = 0; k < 40 && replica_answers < 40;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replicas never caught up: " << replica_answers << " answers, "
        << gw.stats().replica_epochs_applied << " epochs applied";
    auto resp = client.Get(k, /*stale=*/true, /*max_epoch_lag=*/8);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
    if ((resp->flags & net::kRespFromReplica) != 0 &&
        resp->value == "r" + std::to_string(k)) {
      // An admissible replica may briefly lag (max_epoch_lag epochs) while
      // the feed drains, so a stale value is retried, not failed — but the
      // replica must CONVERGE to the acked value before the deadline.
      EXPECT_GT(resp->epoch, 0u);
      ++replica_answers;
      ++k;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_EQ(replica_answers, 40u);
  EXPECT_GT(gw.stats().replica_hits, 0u);
  EXPECT_GT(gw.stats().replica_epochs_applied, 0u);

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

TEST_F(GatewayFixture, OverloadShedsWithOverloadedAndRecovers) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  // A slow owner (1 ms per item): the head's stream window to it fills, the
  // flusher blocks on it, and requests pile up in the gateway's queue. The
  // shed comes from that queue — deterministically, not from a race between
  // the burst and the flusher.
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/100,
                            /*slow_us=*/1000);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  go.admission.high_water = 16;
  go.admission.low_water = 4;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClientOptions co;
  co.port = head.port();
  co.recv_timeout_ms = 60000;  // accepted puts wait for the slow owner
  KvClient client(co);
  ASSERT_TRUE(client.Connect().ok());

  // Pipeline a burst far past what the owner's stream windows (64 frames per
  // partition; a frame carries at most one flush, and a flush at most the
  // high-water mark's worth of queued requests) and the queue can absorb.
  // Every request must get a response — ok or overloaded, never silence.
  constexpr int kBurst = 10000;
  for (int i = 0; i < kBurst; ++i) {
    net::RequestMsg req;
    req.request_id = client.NextRequestId();
    req.op = net::kOpPut;
    req.key = 500000 + i;
    req.value = "burst";
    ASSERT_TRUE(client.Send(req).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client.Recv();
    ASSERT_TRUE(resp.ok()) << "response " << i << " lost: "
                           << resp.status().ToString();
    if (resp->code == net::kRespOk) {
      ++ok;
    } else if (resp->code == net::kRespOverloaded) {
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0) << "burst never shed";
  EXPECT_GT(ok, 0) << "everything shed";
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_EQ(gw.stats().shed, static_cast<uint64_t>(overloaded));
  EXPECT_EQ(gw.admission().shed(), gw.stats().shed);

  // Hysteresis: once the owner drains the backlog and the queue falls to
  // low water, service resumes.
  bool recovered = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    auto resp = client.Put(1, "after");
    ASSERT_TRUE(resp.ok());
    if (resp->code == net::kRespOk) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(recovered) << "gateway stuck shedding after drain";

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

TEST_F(GatewayFixture, OwnerThatNeverAcksCapsTheHeadLog) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  // Never checkpoints: nothing the head logs for this owner is ever acked.
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/0);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClientOptions co;
  co.port = head.port();
  co.recv_timeout_ms = 60000;
  KvClient client(co);
  ASSERT_TRUE(client.Connect().ok());

  // Waves smaller than the admission high-water mark, so every refusal here
  // is the log bound's. Keep writing until a whole wave is refused.
  constexpr int kWave = 2048;
  constexpr int kMaxWaves = static_cast<int>(kMaxHeadLog / kWave) + 8;
  uint64_t ok = 0, overloaded = 0;
  int64_t key = 0;
  bool full = false;
  for (int wave = 0; wave < kMaxWaves && !full; ++wave) {
    for (int i = 0; i < kWave; ++i) {
      net::RequestMsg req;
      req.request_id = client.NextRequestId();
      req.op = net::kOpPut;
      req.key = key++;
      req.value = "never acked";
      ASSERT_TRUE(client.Send(req).ok());
    }
    int wave_overloaded = 0;
    for (int i = 0; i < kWave; ++i) {
      auto resp = client.Recv();
      ASSERT_TRUE(resp.ok()) << "wave " << wave << " response " << i
                             << " lost: " << resp.status().ToString();
      ASSERT_TRUE(resp->code == net::kRespOk ||
                  resp->code == net::kRespOverloaded)
          << "code " << static_cast<int>(resp->code) << ": " << resp->value;
      if (resp->code == net::kRespOk) {
        ++ok;
      } else {
        ++overloaded;
        ++wave_overloaded;
      }
    }
    ASSERT_LE(head.UnackedTotal(), kMaxHeadLog) << "after wave " << wave;
    full = wave_overloaded == kWave;
  }
  EXPECT_TRUE(full) << "log bound never reached: " << ok << " ok";
  // Every acked put is still in the log, and the log never passed the cap.
  EXPECT_EQ(ok, head.UnackedTotal());
  EXPECT_LE(ok, kMaxHeadLog);
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(gw.stats().puts, ok);
  EXPECT_EQ(gw.stats().shed, overloaded);
  EXPECT_EQ(gw.stats().errors, 0u);

  // Once the owner checkpoints, its acks drain the log and writes resume.
  ASSERT_TRUE(w1->Checkpoint().ok());
  bool resumed = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!resumed && std::chrono::steady_clock::now() < deadline) {
    auto resp = client.Put(-1, "after");
    ASSERT_TRUE(resp.ok());
    ASSERT_NE(resp->code, net::kRespError) << resp->value;
    resumed = resp->code == net::kRespOk;
    if (!resumed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(resumed) << "writes still refused after the owner acked";

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

}  // namespace
}  // namespace sdg::serve
