// Connection: one framed, full-duplex TCP connection between nodes.
//
// Two operating modes, selected by Options::loop:
//
//  - Event-loop mode (loop != nullptr, the default deployment path): the
//    socket is nonblocking and registered on a shared epoll loop. Reads feed
//    the FrameDecoder and dispatch complete frames from the loop thread;
//    writes stage as {inline header, payload ref} entries in a bounded deque
//    and flush as scatter-gather writev batches — SendFrame never copies the
//    payload into a contiguous frame. The sender's own thread flushes
//    inline when the kernel buffer has room (no epoll round-trip on an idle
//    socket); EPOLLOUT is armed only for the residual. No threads are owned —
//    a process with hundreds of connections pays for one IO thread total.
//
//  - Threaded mode (loop == nullptr, kept as the measured baseline and for
//    callers that want blocking isolation): a writer thread drains a BOUNDED
//    frame queue and a reader thread feeds the decoder, exactly the pre-epoll
//    design.
//
// Both modes share the backpressure contract: Send blocks while the send
// buffer holds `send_queue_frames` frames — the same discipline as
// BoundedQueue mailbox pushes, extended across the wire.
//
// On any socket or codec error the connection turns `broken`: buffered
// frames are dropped (the sender's OutputBuffer log retains every unacked
// item, so the reconnect-replay path re-sends them; see remote_channel.h),
// and on_error fires exactly once. A Connection never repairs itself —
// RemoteChannel dials a fresh one.
//
// Close() drains first: frames already accepted into the send buffer are
// flushed (bounded by a few seconds) before the socket is cut, so
// send-then-immediately-stop loses nothing on a healthy link. A broken
// connection closes immediately.
#ifndef SDG_NET_CONNECTION_H_
#define SDG_NET_CONNECTION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/queue.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace sdg::net {

class Connection : private EventLoop::Handler {
 public:
  struct Options {
    // Frames the connection may buffer before Send blocks. Each data frame is
    // one delivery batch, so this bounds in-flight bytes the same way a
    // mailbox capacity bounds queued items.
    size_t send_queue_frames = 64;
    // Read chunk size.
    size_t read_buffer_bytes = 64 * 1024;
    // Event loop driving the socket; nullptr selects threaded mode.
    EventLoop* loop = nullptr;
    // Multiplexed framing: 13-byte headers carrying a stream id (protocol
    // v2). Both ends must agree — negotiated by the kMuxHello exchange
    // before the Connection is constructed (see mux.h).
    bool mux_frames = false;
  };

  // Called one complete frame at a time — from the loop thread in event-loop
  // mode, from the reader thread in threaded mode. Must not block for long in
  // loop mode (it stalls every connection on the loop): hand heavy work to
  // the executor.
  using FrameFn = std::function<void(Frame frame)>;
  // Called once, from whichever thread hits the failure first.
  using ErrorFn = std::function<void(const Status& status)>;

  // Takes ownership of a connected socket and any bytes `carry` already read
  // past the synchronous handshake exchange.
  Connection(Socket socket, Options options, FrameFn on_frame,
             ErrorFn on_error, FrameDecoder carry = {});
  ~Connection() override;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Enqueues one encoded frame, blocking while the send buffer is full
  // (backpressure). Returns false if the connection is broken or closed —
  // the frame is NOT sent and the caller's log keeps it replayable.
  bool Send(std::vector<uint8_t> frame_bytes);

  // Non-blocking variant for best-effort traffic (acks): false when the
  // buffer is full, broken, or closed. Never waits.
  bool TrySend(const std::vector<uint8_t>& frame_bytes);

  // Non-blocking send of `frames` whole encoded frames laid back to back in
  // `bytes`, staged by move as one write. They count as `frames` against
  // send_queue_frames (event-loop mode; threaded mode queues them as one),
  // and are accepted or refused together.
  bool TrySendFrames(std::vector<uint8_t> bytes, size_t frames);

  // Zero-copy framed send: encodes the (9- or 13-byte, per Options::
  // mux_frames) header inline in the queue entry and stages the payload by
  // move — the flush path gathers header+payload straight into writev, so
  // the payload bytes are never copied again. Blocking/backpressure contract
  // matches Send. `stream` is ignored unless mux_frames.
  bool SendFrame(FrameType type, uint32_t stream,
                 std::vector<uint8_t> payload);

  // Non-blocking framed send (best-effort traffic): contract of TrySend.
  bool TrySendFrame(FrameType type, uint32_t stream,
                    const std::vector<uint8_t>& payload);

  // Pauses/resumes read-side dispatch (event-loop mode only; no-op in
  // threaded mode). While paused the kernel receive buffer fills and TCP
  // flow control pushes back on the sender — wire-level backpressure for a
  // receiver whose executor entity is behind.
  void SetReadInterest(bool want_read);

  // Flushes frames already accepted (unless broken; bounded wait), then cuts
  // the socket and releases loop registrations / joins threads. Idempotent.
  void Close();

  // Marks the connection broken and cuts the socket immediately — no drain,
  // no joins — so the peer observes a closed link and can redial. Unlike
  // Close(), safe to call from inside on_frame (the threaded-mode reader
  // would otherwise self-join). Close() must still run later for teardown.
  void Abort(const Status& status) { Fail(status); }

  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  // Event-loop mode callbacks (loop thread).
  void OnReadable() override;
  void OnWritable() override;
  void OnError() override;

  // Threaded mode.
  void WriterLoop();
  void ReaderLoop();

  void Fail(const Status& status);
  void DispatchDecoded();  // drains decoder_ into on_frame_; Fails on codec error

  Socket socket_;
  int fd_ = -1;  // cached: Deregister needs it while socket_ is being torn down
  const Options options_;
  FrameFn on_frame_;
  ErrorFn on_error_;
  FrameDecoder decoder_;
  std::vector<uint8_t> read_buf_;

  std::atomic<bool> broken_{false};
  std::atomic<bool> error_fired_{false};
  std::atomic<bool> closed_{false};

  // --- threaded mode ---
  BoundedQueue<std::vector<uint8_t>> send_queue_;
  std::thread writer_;
  std::thread reader_;
  // Frames accepted by Send/TrySend and not yet written to the socket (or
  // dropped by a failure). Close waits for this to hit zero so a sender that
  // stops right after its last Send still gets the frame onto the wire.
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  size_t pending_frames_ = 0;

  // --- event-loop mode ---
  // One staged frame: a small inline header (encoded at enqueue time) plus
  // the payload by reference. The flush path gathers both into an iovec
  // batch, so payload bytes are written straight from here — no recopy.
  struct SendEntry {
    uint8_t header[16] = {};
    uint8_t header_len = 0;  // 0: payload already holds whole encoded frames
    size_t frames = 1;       // frames in payload, counted by the queue bound
    std::vector<uint8_t> payload;
    size_t size() const { return header_len + payload.size(); }
  };
  bool EnqueueLocked(std::unique_lock<std::mutex>& lock, SendEntry entry,
                     bool may_block);
  // Drains as much of send_q_ as the kernel accepts via writev, then
  // arms/disarms EPOLLOUT to match the residual. On socket error releases
  // `lock`, runs Fail(), and returns false.
  bool FlushLocked(std::unique_lock<std::mutex>& lock);

  // Also orders socket shutdown against close in both modes: Fail (any
  // thread) must never shutdown() a descriptor Close already released and
  // the process may have reused.
  std::mutex send_mu_;
  std::condition_variable send_cv_;
  std::deque<SendEntry> send_q_;
  size_t queued_frames_ = 0;   // sum of send_q_ entries' frames
  size_t send_offset_ = 0;     // bytes of send_q_.front() already written
  bool write_armed_ = false;   // EPOLLOUT currently requested
  bool want_read_ = true;      // EPOLLIN currently requested
};

// Blocking helper for the synchronous handshake exchange that precedes the
// data-path regime: reads whole frames through `decoder` until one is
// complete. Bytes read past the frame stay buffered in `decoder` — hand it
// to the Connection afterwards.
Result<Frame> ReadFrameBlocking(Socket& socket, FrameDecoder& decoder);

// Encodes and writes one frame synchronously (handshake path only; the data
// path goes through Connection::Send).
Status WriteFrameBlocking(Socket& socket, FrameType type,
                          const std::vector<uint8_t>& payload);

}  // namespace sdg::net

#endif  // SDG_NET_CONNECTION_H_
