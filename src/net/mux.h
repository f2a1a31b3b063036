// Client side of the multiplexed transport: one TCP socket per peer pair,
// many logical streams. It is the only data-channel transport.
//
// A MuxConnection is dialled once per (host, port) peer and carries every
// logical channel to that peer over a single Connection. Its first frame is
// kMuxHello, which marks the socket as a mux peer at the receiver; every
// frame carries its stream id in the common 13-byte header (see frame.h).
//
// Streams are opened with kMuxOpen / kMuxOpenAck. A data stream carries the
// Handshake identity of one (entry, partition) channel, and its open-ack
// returns the receiver's durable watermark — RemoteChannel replays its log
// past it (§5 as the transport's reconnect path). A rejected open surfaces
// as kFailedPrecondition, the receiver's verdict on the channel identity.
//
// Flow control is per-stream credit windows: the open-ack grants an initial
// window in frames, each data-bearing frame spends one credit, and the
// receiver returns credits (kMuxWindow) as its executor consumes frames. A
// hot stream out of credits blocks only its own sender — the shared socket
// keeps moving for its siblings. Cumulative acks arrive coalesced
// (kMuxAckBatch, one frame for many streams) and are handed to each stream's
// on_ack.
//
// All stream callbacks run on the event-loop thread (the Connection
// contract). MuxConnection never repairs itself: when the shared socket
// breaks, every stream fails, and the owner redials via MuxPool::Get.
#ifndef SDG_NET_MUX_H_
#define SDG_NET_MUX_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace sdg::net {

class MuxStream;

// Staged-frame capacity of a mux socket, at both ends. Many streams share
// the buffer; per-stream fairness comes from the credit windows, not this
// bound.
inline constexpr size_t kMuxSendQueueFrames = 256;

class MuxConnection : public std::enable_shared_from_this<MuxConnection> {
 public:
  struct Options {
    // Event loop driving the shared socket; nullptr = EventLoop::Shared().
    EventLoop* loop = nullptr;
    uint64_t deployment_id = 0;
  };

  // Called with each cumulative durable watermark the receiver reports for
  // a stream (loop thread).
  using AckFn = std::function<void(uint64_t acked_ts)>;

  // Dials the peer and runs the hello exchange; any failure surfaces as a
  // non-ok Result.
  static Result<std::shared_ptr<MuxConnection>> Dial(const std::string& host,
                                                     uint16_t port,
                                                     Options options);

  ~MuxConnection();
  MuxConnection(const MuxConnection&) = delete;
  MuxConnection& operator=(const MuxConnection&) = delete;

  // Opens one logical stream, blocking until the server's open-ack (bounded
  // wait). A rejected open returns kFailedPrecondition. `on_ack` sees every
  // watermark the server acks for the stream; `on_error` fires once if the
  // shared connection breaks.
  Result<std::shared_ptr<MuxStream>> OpenStream(const MuxOpenMsg& open,
                                                AckFn on_ack,
                                                Connection::ErrorFn on_error);

  bool broken() const { return broken_.load(std::memory_order_acquire); }

  // Closes the shared socket; every stream fails. Idempotent.
  void Close();

 private:
  friend class MuxStream;

  explicit MuxConnection(uint32_t default_window)
      : default_window_(default_window == 0 ? 64 : default_window) {}

  void OnFrame(Frame frame);
  void OnError(const Status& status);
  std::shared_ptr<MuxStream> FindStream(uint32_t stream_id);

  const uint32_t default_window_;
  std::unique_ptr<Connection> conn_;
  std::atomic<bool> broken_{false};

  std::mutex mu_;
  uint32_t next_stream_ = 1;
  // weak: an abandoned stream handle expires here and its frames are
  // dropped, instead of a shared_ptr cycle pinning the connection.
  std::map<uint32_t, std::weak_ptr<MuxStream>> streams_;
};

// Handle for one logical stream. Senders on a single stream must serialize
// themselves (frames interleave whole-frame across streams, FIFO within
// one).
class MuxStream {
 public:
  // Sends one data-bearing frame, blocking while the stream is out of
  // flow-control credits or the shared socket's staging buffer is full.
  // False when the connection broke — the caller's log keeps the frame
  // replayable.
  bool Send(FrameType type, std::vector<uint8_t> payload);

  uint32_t id() const { return id_; }
  // The receiver's durable watermark from the open-ack.
  uint64_t acked_ts() const { return acked_ts_; }
  bool broken() const;

  // Stops every later on_ack/on_error call, waiting out one already running,
  // so the owner of what the callbacks capture may be destroyed right after.
  // The loop thread can still hold the stream for a moment after its owner
  // drops it.
  void Detach();

 private:
  friend class MuxConnection;

  MuxStream(std::shared_ptr<MuxConnection> conn, uint32_t id,
            MuxConnection::AckFn on_ack, Connection::ErrorFn on_error)
      : conn_(std::move(conn)),
        id_(id),
        on_ack_(std::move(on_ack)),
        on_error_(std::move(on_error)) {}

  // Loop-thread entry points, called by MuxConnection::OnFrame.
  void CompleteOpen(const MuxOpenAckMsg& ack);
  void GrantCredits(uint32_t credits);
  void OnAck(uint64_t acked_ts);
  void FailStream(const Status& status);
  // OpenStream's blocking wait; returns false on timeout/breakage.
  bool AwaitOpen(MuxOpenAckMsg* out);

  const std::shared_ptr<MuxConnection> conn_;
  const uint32_t id_;
  // Held while a callback runs; Detach takes it to clear them.
  std::mutex callback_mu_;
  MuxConnection::AckFn on_ack_;
  Connection::ErrorFn on_error_;
  uint64_t acked_ts_ = 0;  // written once by OpenStream before it returns

  std::mutex mu_;
  std::condition_variable cv_;
  bool open_done_ = false;
  MuxOpenAckMsg open_ack_;
  uint64_t credits_ = 0;
  std::atomic<bool> broken_{false};  // also read lock-free by broken()
  bool error_fired_ = false;
};

// One shared MuxConnection per peer, keyed by host:port. Broken entries are
// dropped and redialled on the next Get. Thread-safe; Get holds the pool
// lock across a dial (peer dials are rare — flips and reconnects).
class MuxPool {
 public:
  explicit MuxPool(MuxConnection::Options base = {}) : base_(base) {}
  ~MuxPool() { CloseAll(); }

  Result<std::shared_ptr<MuxConnection>> Get(const std::string& host,
                                             uint16_t port);

  void CloseAll();

 private:
  const MuxConnection::Options base_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<MuxConnection>> conns_;
};

}  // namespace sdg::net

#endif  // SDG_NET_MUX_H_
