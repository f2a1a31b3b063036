// Loopback integration tests of the TCP transport: RemoteChannel sender on
// a MuxPool stream, ChannelServer receiver, upstream-backup trim on acks,
// the kill/restart reconnect-replay path (§5 as the transport's error path),
// and the read-interest backpressure of client peers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/graph/sdg.h"
#include "src/net/channel_server.h"
#include "src/net/connection.h"
#include "src/net/mux.h"
#include "src/net/remote_channel.h"
#include "src/runtime/cluster.h"

namespace sdg::net {
namespace {

using runtime::DataItem;
using runtime::OutputBuffer;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

DataItem MakeItem(uint64_t ts) {
  DataItem item;
  item.from = runtime::SourceId{runtime::kRemoteSourceTask, 0};
  item.ts = ts;
  item.payload = Tuple{Value(static_cast<int64_t>(ts))};
  return item;
}

std::vector<DataItem> MakeItems(uint64_t first_ts, uint64_t last_ts) {
  std::vector<DataItem> items;
  for (uint64_t ts = first_ts; ts <= last_ts; ++ts) {
    items.push_back(MakeItem(ts));
  }
  return items;
}

TEST(ChannelTest, LoopbackDeliverAckTrim) {
  std::mutex mu;
  std::vector<uint64_t> received;
  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start([](const Handshake&) { return uint64_t{0}; },
                         [&](const Handshake& hs, std::vector<DataItem> items) {
                           EXPECT_EQ(hs.entry, "t");
                           std::lock_guard<std::mutex> lock(mu);
                           for (const auto& item : items) {
                             received.push_back(item.ts);
                           }
                         })
                  .ok());

  MuxPool pool;
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.mux = &pool;
  opts.port = server.port();
  opts.entry = "t";
  RemoteChannel chan(opts, &log);
  ASSERT_TRUE(chan.Connect().ok());
  ASSERT_TRUE(chan.connected());

  EXPECT_EQ(chan.DeliverAll(MakeItems(1, 50)), 50u);
  EXPECT_TRUE(chan.Deliver(MakeItem(51)));
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return received.size() == 51;
  }));
  {
    // Wire order is sender FIFO order.
    std::lock_guard<std::mutex> lock(mu);
    for (uint64_t i = 0; i < received.size(); ++i) {
      EXPECT_EQ(received[i], i + 1);
    }
  }

  // Everything is logged until the receiver acknowledges durability.
  EXPECT_EQ(chan.UnackedCount(), 51u);
  server.Ack(30);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 21; }));
  EXPECT_EQ(chan.acked_watermark(), 30u);
  server.Ack(51);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 0; }));

  chan.Close();
  server.Stop();
}

// Regression test for the read-interest backpressure protocol, driven
// through a client peer (the peers that pause their socket's reads; data
// streams rely on credit windows instead): a slow on_request lets the
// per-peer frame backlog repeatedly cross the pause watermark while the
// executor drains it back under the resume watermark, cycling pause/resume
// many times. A stale interest update losing the race (reads off while
// unpaused) wedges the peer permanently — the test then times out with
// requests missing.
TEST(ChannelTest, BackpressurePauseResumeStress) {
  constexpr uint64_t kRequests = 4000;
  std::atomic<uint64_t> received{0};
  std::atomic<bool> in_order{true};
  uint64_t next_id = 1;  // dispatch slices are serialized, no lock needed
  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start([](const Handshake&) { return uint64_t{0}; },
                         [](const Handshake&, std::vector<DataItem>) {})
                  .ok());
  server.SetServeHandlers(
      [&](uint64_t, std::vector<RequestMsg> reqs) {
        for (const auto& req : reqs) {
          if (req.request_id != next_id) {
            in_order.store(false);
          }
          ++next_id;
        }
        uint64_t total = received.fetch_add(reqs.size()) + reqs.size();
        // Stall in bursts so the frame backlog climbs past the pause
        // watermark, then drains below resume.
        if (total % 64 < 8) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      },
      /*on_feed=*/nullptr);

  auto sock = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  std::thread writer([&] {
    for (uint64_t id = 1; id <= kRequests; ++id) {
      RequestMsg req;
      req.request_id = id;
      req.op = kOpGet;
      req.key = static_cast<int64_t>(id);
      if (!WriteFrameBlocking(*sock, FrameType::kRequest, req.Encode())
               .ok()) {
        return;
      }
    }
  });
  const bool all =
      WaitUntil([&] { return received.load() == kRequests; }, 30000);
  sock->ShutdownBoth();  // unblocks a writer stuck behind a wedged peer
  writer.join();
  ASSERT_TRUE(all) << "delivered " << received.load() << "/" << kRequests
                   << " — read interest likely wedged off";
  EXPECT_TRUE(in_order.load());

  server.Stop();
}

TEST(ChannelTest, HandshakeRejectionSurfacesAsError) {
  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start(
                      [](const Handshake& hs) -> Result<uint64_t> {
                        return InvalidArgumentError("unknown entry '" +
                                                    hs.entry + "'");
                      },
                      [](const Handshake&, std::vector<DataItem>) {})
                  .ok());
  MuxPool pool;
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.mux = &pool;
  opts.port = server.port();
  opts.entry = "nope";
  opts.reconnect_attempts = 2;
  opts.reconnect_backoff_ms = 10;
  RemoteChannel chan(opts, &log);
  Status s = chan.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(ChannelTest, ServerRestartReplaysExactlyTheUnacked) {
  // Receiver half 1: sees ts 1..10, makes 1..5 durable, then dies.
  std::mutex mu;
  std::set<uint64_t> seen1;
  auto server1 = std::make_unique<ChannelServer>(ChannelServerOptions{});
  ASSERT_TRUE(server1
                  ->Start([](const Handshake&) { return uint64_t{0}; },
                          [&](const Handshake&, std::vector<DataItem> items) {
                            std::lock_guard<std::mutex> lock(mu);
                            for (const auto& item : items) {
                              seen1.insert(item.ts);
                            }
                          })
                  .ok());
  uint16_t port = server1->port();

  MuxPool pool;
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.mux = &pool;
  opts.port = port;
  opts.entry = "t";
  opts.reconnect_backoff_ms = 20;
  RemoteChannel chan(opts, &log);
  ASSERT_TRUE(chan.Connect().ok());
  EXPECT_EQ(chan.DeliverAll(MakeItems(1, 10)), 10u);
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return seen1.size() == 10;
  }));
  server1->Ack(5);  // only 1..5 durable before the crash
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 5; }));

  // Kill the receiver; the sender must notice the broken wire.
  server1->Stop();
  server1.reset();
  ASSERT_TRUE(WaitUntil([&] { return !chan.connected(); }));

  // Receiver half 2 on the SAME port, restored to watermark 5. It must see
  // the unacked 6..10 again (replayed) plus the new 11..20 — and nothing at
  // or below its watermark.
  std::set<uint64_t> seen2;
  std::atomic<int> replayed_count{0};
  ChannelServerOptions opts2;
  opts2.port = port;
  ChannelServer server2(opts2);
  ASSERT_TRUE(server2
                  .Start([](const Handshake&) { return uint64_t{5}; },
                         [&](const Handshake&, std::vector<DataItem> items) {
                           std::lock_guard<std::mutex> lock(mu);
                           for (const auto& item : items) {
                             EXPECT_GT(item.ts, 5u) << "acked item re-sent";
                             if (item.replayed) {
                               replayed_count.fetch_add(1);
                             }
                             seen2.insert(item.ts);
                           }
                         })
                  .ok());

  // Delivering through the broken channel reconnects, replays 6..10, then
  // sends the new batch.
  EXPECT_EQ(chan.DeliverAll(MakeItems(11, 20)), 10u);
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return seen2.size() == 15;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    for (uint64_t ts = 6; ts <= 20; ++ts) {
      EXPECT_TRUE(seen2.count(ts)) << "lost item ts=" << ts;
    }
  }
  EXPECT_EQ(replayed_count.load(), 5) << "replay set was not exactly 6..10";

  // The union of both incarnations covers every item ever sent.
  server2.Ack(20);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 0; }));
  chan.Close();
  server2.Stop();
}

TEST(ChannelTest, InjectRemoteFeedsDeployment) {
  // Full receive path: wire batches land in a live deployment through
  // InjectRemote, flowing through the same batched dispatch as local
  // injection.
  graph::SdgBuilder b;
  std::shared_ptr<std::atomic<int64_t>> sum =
      std::make_shared<std::atomic<int64_t>>(0);
  (void)b.AddEntryTask("t", [sum](const Tuple& in, graph::TaskContext&) {
    sum->fetch_add(in[0].AsInt());
  });
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  runtime::Cluster cluster(runtime::ClusterOptions{});
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start([](const Handshake&) { return uint64_t{0}; },
                         [&](const Handshake& hs, std::vector<DataItem> items) {
                           auto st =
                               (*d)->InjectRemote(hs.entry, std::move(items));
                           EXPECT_TRUE(st.ok()) << st.ToString();
                         })
                  .ok());

  MuxPool pool;
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.mux = &pool;
  opts.port = server.port();
  opts.entry = "t";
  RemoteChannel chan(opts, &log);
  ASSERT_TRUE(chan.Connect().ok());
  constexpr int64_t kN = 200;
  EXPECT_EQ(chan.DeliverAll(MakeItems(1, kN)), static_cast<size_t>(kN));
  ASSERT_TRUE(WaitUntil(
      [&] { return (*d)->ProcessedOf("t") == static_cast<uint64_t>(kN); }));
  EXPECT_EQ(sum->load(), kN * (kN + 1) / 2);

  server.Ack(kN);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 0; }));
  chan.Close();
  server.Stop();
  (*d)->Drain();
  (*d)->Shutdown();
}

}  // namespace
}  // namespace sdg::net
