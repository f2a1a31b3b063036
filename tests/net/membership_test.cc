// Membership-protocol tests (kJoin/kJoinAck/kControl on a bare ChannelServer)
// plus in-process end-to-end tests of the elastic runtime: initial
// assignment, live migration with the watermark handoff, and the
// restart/reconnect-replay regression — the single-process complement of the
// multi-process chaos harness (tests/harness/chaos_process_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv.h"
#include "src/net/channel_server.h"
#include "src/net/connection.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/runtime/elastic.h"
#include "src/state/keyed_dict.h"
#include "src/state/state_backend.h"

namespace sdg {
namespace {

using net::ChannelServer;
using net::ChannelServerOptions;
using net::ControlMsg;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::JoinAckMsg;
using net::JoinMsg;
using net::ReadFrameBlocking;
using net::Socket;
using net::WriteFrameBlocking;

Result<Socket> DialJoin(uint16_t port, uint32_t member_id,
                        FrameDecoder& carry, JoinAckMsg* ack,
                        uint64_t deployment_id = 1) {
  SDG_ASSIGN_OR_RETURN(Socket s, Socket::Connect("127.0.0.1", port));
  JoinMsg join;
  join.deployment_id = deployment_id;
  join.member_id = member_id;
  join.data_port = 1;  // tests never dial back
  join.name = "test";
  SDG_RETURN_IF_ERROR(
      WriteFrameBlocking(s, FrameType::kJoin, join.Encode()));
  s.SetRecvTimeout(5000);
  SDG_ASSIGN_OR_RETURN(Frame reply, ReadFrameBlocking(s, carry));
  if (reply.type != FrameType::kJoinAck) {
    return Status(StatusCode::kDataLoss, "expected kJoinAck");
  }
  SDG_ASSIGN_OR_RETURN(*ack, JoinAckMsg::Decode(reply.payload));
  s.SetRecvTimeout(0);
  return s;
}

struct MemberServer {
  ChannelServer server{ChannelServerOptions{}};
  std::mutex mu;
  std::vector<std::pair<uint32_t, ControlMsg>> control_frames;

  Status Start() {
    return server.Start(
        [](const net::Handshake&) -> Result<uint64_t> {
          return Status(StatusCode::kFailedPrecondition, "no data channels");
        },
        [](const net::Handshake&, std::vector<runtime::DataItem>) {},
        [](const JoinMsg& join) -> Result<uint32_t> {
          if (join.deployment_id != 1) {
            return Status(StatusCode::kFailedPrecondition, "wrong deployment");
          }
          return join.member_id;
        },
        [this](uint32_t member, Frame frame) {
          if (frame.type != FrameType::kControl) {
            return;
          }
          auto msg = ControlMsg::Decode(frame.payload);
          if (msg.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            control_frames.emplace_back(member, *msg);
          }
        });
  }
};

TEST(MembershipProtocol, JoinAckAndControlRoundtrip) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());

  FrameDecoder carry;
  JoinAckMsg ack;
  auto sock = DialJoin(ms.server.port(), 7, carry, &ack);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  EXPECT_TRUE(ack.accepted);
  EXPECT_EQ(ack.member_id, 7u);
  EXPECT_EQ(ms.server.MemberCount(), 1u);

  // Head -> member.
  ControlMsg ping;
  ping.op = net::kCtrlPing;
  ASSERT_TRUE(ms.server.SendToMember(7, FrameType::kControl, ping.Encode()));
  sock->SetRecvTimeout(5000);
  auto frame = ReadFrameBlocking(*sock, carry);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kControl);
  auto msg = ControlMsg::Decode(frame->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->op, net::kCtrlPing);

  // Member -> head.
  ControlMsg report;
  report.op = net::kCtrlStraggler;
  report.arg = 3;
  ASSERT_TRUE(
      WriteFrameBlocking(*sock, FrameType::kControl, report.Encode()).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ms.mu);
      if (!ms.control_frames.empty()) {
        EXPECT_EQ(ms.control_frames[0].first, 7u);
        EXPECT_EQ(ms.control_frames[0].second.op, net::kCtrlStraggler);
        EXPECT_EQ(ms.control_frames[0].second.arg, 3u);
        break;
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "control frame never reached on_member";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ms.server.Stop();
}

TEST(MembershipProtocol, JoinRejectedWrongDeployment) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());
  FrameDecoder carry;
  JoinAckMsg ack;
  auto sock =
      DialJoin(ms.server.port(), 9, carry, &ack, /*deployment_id=*/42);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  EXPECT_FALSE(ack.accepted);
  EXPECT_FALSE(ack.message.empty());
  EXPECT_EQ(ms.server.MemberCount(), 0u);
  ms.server.Stop();
}

TEST(MembershipProtocol, DuplicateJoinSupersedes) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());

  FrameDecoder carry1, carry2;
  JoinAckMsg ack1, ack2;
  auto first = DialJoin(ms.server.port(), 5, carry1, &ack1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(ack1.accepted);
  auto second = DialJoin(ms.server.port(), 5, carry2, &ack2);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(ack2.accepted);

  // The rejoin replaced the first incarnation: one member, and control
  // traffic lands on the SECOND connection (the first reads EOF).
  EXPECT_EQ(ms.server.MemberCount(), 1u);
  ControlMsg ping;
  ping.op = net::kCtrlPing;
  ASSERT_TRUE(ms.server.SendToMember(5, FrameType::kControl, ping.Encode()));
  second->SetRecvTimeout(5000);
  auto frame = ReadFrameBlocking(*second, carry2);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kControl);

  first->SetRecvTimeout(5000);
  auto stale = ReadFrameBlocking(*first, carry1);
  EXPECT_FALSE(stale.ok()) << "superseded channel should be closed";
  ms.server.Stop();
}

TEST(MembershipProtocol, JoinThenImmediateDisconnect) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());
  {
    FrameDecoder carry;
    JoinAckMsg ack;
    auto sock = DialJoin(ms.server.port(), 11, carry, &ack);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(ack.accepted);
    // Socket drops here — the member vanished right after joining.
  }
  // Sends eventually fail (the break may take a send to surface), and the
  // server keeps accepting new members afterwards.
  ControlMsg ping;
  ping.op = net::kCtrlPing;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ms.server.SendToMember(11, FrameType::kControl, ping.Encode())) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "send to a disconnected member never failed";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FrameDecoder carry;
  JoinAckMsg ack;
  auto sock = DialJoin(ms.server.port(), 12, carry, &ack);
  ASSERT_TRUE(sock.ok());
  EXPECT_TRUE(ack.accepted);
  ms.server.Stop();
}

// --- In-process elastic runtime ---------------------------------------------

constexpr uint32_t kPartitions = 4;

class ElasticFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("sdg_elastic_test_" +
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
    h.entries = {"put", "del"};
    h.backup_root = (root_ / "backup").string();
    h.monitor_interval_ms = 20;
    h.migrate_timeout_ms = 20000;
    return h;
  }

  std::unique_ptr<elastic::ElasticWorker> MakeWorker(uint32_t member_id,
                                                     uint16_t head_port,
                                                     uint16_t data_port = 0) {
    apps::KvOptions kv;
    kv.partitions = kPartitions;
    auto g = apps::BuildKvSdg(kv);
    EXPECT_TRUE(g.ok());
    elastic::ElasticWorkerOptions w;
    w.member_id = member_id;
    w.name = "w" + std::to_string(member_id);
    w.head_port = head_port;
    w.data_port = data_port;
    w.state = "store";
    w.partitions = kPartitions;
    w.entries = {"put", "del"};
    w.backup_root = (root_ / "backup").string();
    return std::make_unique<elastic::ElasticWorker>(std::move(*g),
                                                    std::move(w));
  }

  // Reads every owned partition of `workers` into one map, asserting no
  // partition is owned twice and all partitions are covered.
  std::map<int64_t, std::string> MergedState(
      const std::vector<elastic::ElasticWorker*>& workers) {
    std::map<int64_t, std::string> merged;
    std::set<uint32_t> seen;
    for (auto* w : workers) {
      for (uint32_t p : w->OwnedPartitions()) {
        EXPECT_TRUE(seen.insert(p).second) << "partition " << p
                                           << " owned twice";
        auto* backend = w->deployment()->StateInstance("store", p);
        auto* dict =
            state::StateAs<state::KeyedDict<int64_t, std::string>>(backend);
        EXPECT_NE(dict, nullptr);
        dict->ForEach([&](const int64_t& k, const std::string& v) {
          EXPECT_TRUE(merged.emplace(k, v).second)
              << "key " << k << " present in two partitions";
        });
      }
    }
    EXPECT_EQ(seen.size(), kPartitions);
    return merged;
  }

  std::filesystem::path root_;
};

TEST_F(ElasticFixture, AssignInjectCheckpointQuiesce) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 200; ++k) {
    std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_EQ(head.UnackedTotal(), 0u);
  EXPECT_EQ(MergedState({w1.get()}), model);

  w1->Stop();
  head.Stop();
}

TEST_F(ElasticFixture, LiveMigrationMovesPartitionExactlyOnce) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  std::map<int64_t, std::string> model;
  auto put_range = [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      std::string v = "v" + std::to_string(k);
      ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
      model[k] = v;
    }
  };
  put_range(0, 300);

  // Move a partition from its current owner to the other worker, live.
  uint32_t part = 0;
  uint32_t from = head.OwnerOf(part);
  uint32_t to = from == 1 ? 2 : 1;
  ASSERT_TRUE(head.MigratePartition(part, to).ok());
  EXPECT_EQ(head.OwnerOf(part), to);
  EXPECT_EQ(head.migrations_completed(), 1u);
  EXPECT_GT(head.last_migration_pause_ms(), 0.0);

  // Deletes and overwrites after the cutover land on the new owner.
  put_range(300, 500);
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(head.Inject(1, Tuple{Value(k)}, 20000).ok());
    model.erase(k);
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_EQ(MergedState({w1.get(), w2.get()}), model);

  w1->Stop();
  w2->Stop();
  head.Stop();
}

TEST_F(ElasticFixture, RestartReplaysUnackedSuffix) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  uint16_t data_port = w1->data_port();

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 100; ++k) {
    std::string v = "a" + std::to_string(k);
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));

  // A second wave that is applied in memory but never checkpointed: the
  // restarted worker must get exactly this suffix replayed.
  for (int64_t k = 50; k < 150; ++k) {
    std::string v = "b" + std::to_string(k);
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  }
  EXPECT_GT(head.UnackedTotal(), 0u);

  w1->Stop();
  w1.reset();
  auto w1b = MakeWorker(1, head.port(), data_port);
  ASSERT_TRUE(w1b->Start().ok());
  ASSERT_TRUE(w1b->WaitJoined(10000));

  ASSERT_TRUE(head.AwaitQuiesce(30000)) << "replay did not drain the logs";
  ASSERT_TRUE(head.CheckpointAll().ok());
  EXPECT_EQ(MergedState({w1b.get()}), model);

  w1b->Stop();
  head.Stop();
}

TEST_F(ElasticFixture, JoinDuringActiveCheckpoint) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  for (int64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(head
                    .Inject(0, Tuple{Value(k), Value("v" + std::to_string(k))},
                            20000)
                    .ok());
  }
  // Join a second worker while the first is checkpointing.
  std::thread ckpt([&] { ASSERT_TRUE(head.CheckpointAll().ok()); });
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w2->WaitJoined(10000));
  ckpt.join();

  EXPECT_EQ(head.AliveMembers().size(), 2u);
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  w1->Stop();
  w2->Stop();
  head.Stop();
}

// The head aborting a migration sends the target kCtrlRelease; a target
// whose restored epoch still lists the partition owns it, so the release
// checkpoints. That checkpoint must not wedge the control loop: the worker
// keeps answering checkpoint commands afterwards.
TEST_F(ElasticFixture, ReleaseOfOwnedPartitionKeepsCheckpointing) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  ASSERT_TRUE(head.CheckpointMember(1, 10000).ok());

  ControlMsg release;
  release.op = net::kCtrlRelease;
  release.partition = 0;
  ASSERT_TRUE(head.server()->SendToMember(1, FrameType::kControl,
                                          release.Encode()));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto owns_p0 = [&] {
    auto owned = w1->OwnedPartitions();
    return std::find(owned.begin(), owned.end(), 0u) != owned.end();
  };
  while (owns_p0() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(owns_p0());
  EXPECT_TRUE(head.CheckpointMember(1, 10000).ok())
      << "control loop wedged after the release";

  w1->Stop();
  head.Stop();
}

}  // namespace
}  // namespace sdg
