// EventLoop unit tests (registration, readiness dispatch, interest updates,
// Post, and the Deregister-waits-out-callbacks contract) plus the Connection
// Close() drain guarantee in both operating modes: every frame Send()
// accepted before Close must reach the peer even when Close follows the last
// Send immediately.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace sdg::net {
namespace {

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// A nonblocking pipe: the read end is what gets registered on the loop.
struct Pipe {
  int rd = -1;
  int wr = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(pipe(fds), 0);
    rd = fds[0];
    wr = fds[1];
    fcntl(rd, F_SETFL, fcntl(rd, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Pipe() {
    if (rd >= 0) close(rd);
    if (wr >= 0) close(wr);
  }
};

class PipeReader : public EventLoop::Handler {
 public:
  explicit PipeReader(int fd) : fd_(fd) {}
  void OnReadable() override {
    char buf[256];
    ssize_t n;
    while ((n = read(fd_, buf, sizeof(buf))) > 0) {
      bytes_.fetch_add(static_cast<uint64_t>(n));
    }
    dispatches_.fetch_add(1);
  }
  uint64_t bytes() const { return bytes_.load(); }
  uint64_t dispatches() const { return dispatches_.load(); }

 private:
  int fd_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> dispatches_{0};
};

TEST(EventLoopTest, DispatchesReadableAndStopsAfterDeregister) {
  EventLoop loop;
  Pipe p;
  PipeReader reader(p.rd);
  ASSERT_TRUE(loop.Register(p.rd, &reader, /*want_read=*/true,
                            /*want_write=*/false)
                  .ok());
  ASSERT_EQ(write(p.wr, "hello", 5), 5);
  ASSERT_TRUE(WaitUntil([&] { return reader.bytes() == 5; }));

  loop.Deregister(p.rd);
  uint64_t dispatches_at_deregister = reader.dispatches();
  // Data written after Deregister must never reach the handler.
  ASSERT_EQ(write(p.wr, "again", 5), 5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(reader.bytes(), 5u);
  EXPECT_EQ(reader.dispatches(), dispatches_at_deregister);
}

TEST(EventLoopTest, UpdateEventsGatesReadInterest) {
  EventLoop loop;
  Pipe p;
  PipeReader reader(p.rd);
  ASSERT_TRUE(loop.Register(p.rd, &reader, /*want_read=*/false,
                            /*want_write=*/false)
                  .ok());
  // Interest off: pending data must not be dispatched.
  ASSERT_EQ(write(p.wr, "x", 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(reader.bytes(), 0u);
  // Level-triggered: enabling interest delivers the already-pending byte.
  ASSERT_TRUE(loop.UpdateEvents(p.rd, /*want_read=*/true,
                                /*want_write=*/false)
                  .ok());
  ASSERT_TRUE(WaitUntil([&] { return reader.bytes() == 1; }));
  loop.Deregister(p.rd);
}

TEST(EventLoopTest, DispatchesWritable) {
  EventLoop loop;
  Pipe p;
  class Writable : public EventLoop::Handler {
   public:
    void OnWritable() override { hits.fetch_add(1); }
    std::atomic<int> hits{0};
  } handler;
  // An empty pipe's write end is immediately writable.
  ASSERT_TRUE(loop.Register(p.wr, &handler, /*want_read=*/false,
                            /*want_write=*/true)
                  .ok());
  ASSERT_TRUE(WaitUntil([&] { return handler.hits.load() > 0; }));
  loop.Deregister(p.wr);
}

TEST(EventLoopTest, PostRunsOnLoopThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  loop.Post([&] {
    on_loop.store(loop.InLoopThread());
    ran.store(true);
  });
  ASSERT_TRUE(WaitUntil([&] { return ran.load(); }));
  EXPECT_TRUE(on_loop.load());
}

TEST(EventLoopTest, DeregisterWaitsOutInFlightCallback) {
  EventLoop loop;
  Pipe p;
  class SlowReader : public EventLoop::Handler {
   public:
    explicit SlowReader(int fd) : fd_(fd) {}
    void OnReadable() override {
      entered.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      char buf[16];
      while (read(fd_, buf, sizeof(buf)) > 0) {
      }
      finished.store(true);
    }
    std::atomic<bool> entered{false};
    std::atomic<bool> finished{false};

   private:
    int fd_;
  } reader(p.rd);

  ASSERT_TRUE(loop.Register(p.rd, &reader, /*want_read=*/true,
                            /*want_write=*/false)
                  .ok());
  ASSERT_EQ(write(p.wr, "x", 1), 1);
  ASSERT_TRUE(WaitUntil([&] { return reader.entered.load(); }));
  // The callback is sleeping right now; Deregister must block until it is
  // done, so the handler may be destroyed the moment it returns.
  loop.Deregister(p.rd);
  EXPECT_TRUE(reader.finished.load());
}

// ---------------------------------------------------------------------------
// Connection Close() drain: Send N frames, Close immediately, receiver must
// get all N (the writer/loop flushes what it already accepted).

std::vector<uint8_t> MakeFrameBytes(uint32_t seq, size_t payload_bytes) {
  std::vector<uint8_t> payload(payload_bytes, static_cast<uint8_t>(seq));
  payload[0] = static_cast<uint8_t>(seq >> 0);
  payload[1] = static_cast<uint8_t>(seq >> 8);
  BinaryWriter frame(kFrameHeaderBytes + payload.size());
  EncodeFrame(frame, FrameType::kData, payload.data(), payload.size());
  return std::move(frame).TakeBuffer();
}

void CloseDrainTest(bool use_event_loop) {
  constexpr uint32_t kFrames = 200;
  constexpr size_t kPayloadBytes = 512;

  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::atomic<uint32_t> received{0};
  std::atomic<bool> in_order{true};
  std::thread receiver([&] {
    auto sock = listener->Accept();
    ASSERT_TRUE(sock.ok());
    FrameDecoder carry;
    for (uint32_t i = 0; i < kFrames; ++i) {
      auto frame = ReadFrameBlocking(*sock, carry);
      if (!frame.ok()) {
        return;  // premature EOF: the count assertion below fails
      }
      uint32_t seq = static_cast<uint32_t>(frame->payload[0]) |
                     static_cast<uint32_t>(frame->payload[1]) << 8;
      if (seq != i) {
        in_order.store(false);
      }
      received.fetch_add(1);
    }
  });

  auto sock = Socket::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(sock.ok());
  Connection::Options copts;
  copts.send_queue_frames = 32;
  if (use_event_loop) {
    copts.loop = EventLoop::Shared();
  }
  // on_error may legitimately fire if the receiver closes its end (EOF) the
  // instant it has read the last frame, so it is not asserted on here — the
  // drain guarantee is about frame delivery, not about outliving the peer.
  auto conn = std::make_unique<Connection>(
      std::move(*sock), copts, [](Frame) {}, [](const Status&) {});

  for (uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(conn->Send(MakeFrameBytes(i, kPayloadBytes))) << "frame " << i;
  }
  // Stop immediately: everything Send() accepted must still hit the wire.
  conn->Close();

  receiver.join();
  EXPECT_EQ(received.load(), kFrames);
  EXPECT_TRUE(in_order.load());
}

TEST(ConnectionCloseDrainTest, EventLoopMode) {
  CloseDrainTest(/*use_event_loop=*/true);
}

TEST(ConnectionCloseDrainTest, ThreadedMode) {
  CloseDrainTest(/*use_event_loop=*/false);
}

// Abort from another thread racing Close: Close releases the descriptor, and
// a late Abort must find it released, not shutdown() a number the process
// may already have handed to another socket. The TSan job checks that the
// two are ordered.
TEST(ConnectionCloseDrainTest, AbortRacingCloseIsOrdered) {
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  for (int i = 0; i < 20; ++i) {
    auto sock = Socket::Connect("127.0.0.1", listener->port());
    ASSERT_TRUE(sock.ok());
    auto peer = listener->Accept();
    ASSERT_TRUE(peer.ok());
    Connection::Options copts;
    copts.loop = EventLoop::Shared();
    Connection conn(std::move(*sock), copts, [](Frame) {},
                    [](const Status&) {});
    std::thread aborter([&] { conn.Abort(UnavailableError("peer gone")); });
    conn.Close();
    aborter.join();
    EXPECT_TRUE(conn.broken());
  }
}

// A coalesced write of n frames takes n slots of the send-queue bound, so the
// bound keeps counting frames (responses), not writes.
TEST(ConnectionSendQueueTest, CoalescedWriteCountsEveryFrame) {
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto client = Socket::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  auto peer = listener->Accept();  // never read: the kernel buffers fill up
  ASSERT_TRUE(peer.ok());
  Connection::Options copts;
  copts.send_queue_frames = 8;
  copts.loop = EventLoop::Shared();
  Connection conn(std::move(*client), copts, [](Frame) {},
                  [](const Status&) {});

  // One write far larger than both kernel buffers: its unwritten tail stays
  // queued for as long as the peer does not read, holding one slot. (The
  // peer never decodes, so the bytes need not form a frame.)
  ASSERT_TRUE(conn.TrySendFrames(std::vector<uint8_t>(32 << 20), 1));
  auto three = [] {
    std::vector<uint8_t> bytes;
    for (uint32_t i = 0; i < 3; ++i) {
      auto frame = MakeFrameBytes(i, 16);
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
  };
  EXPECT_TRUE(conn.TrySendFrames(three(), 3));   // 4 of 8
  EXPECT_TRUE(conn.TrySendFrames(three(), 3));   // 7 of 8
  EXPECT_FALSE(conn.TrySendFrames(three(), 3));  // 10 > 8: refused whole
  EXPECT_TRUE(conn.TrySendFrames(MakeFrameBytes(9, 16), 1));  // 8 of 8
  EXPECT_FALSE(conn.TrySend(MakeFrameBytes(10, 16)));
  EXPECT_FALSE(conn.broken());
  conn.Abort(UnavailableError("test done"));  // skip Close's drain wait
}

}  // namespace
}  // namespace sdg::net
