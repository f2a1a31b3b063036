// Connection: one framed, full-duplex TCP connection, driven by an epoll
// EventLoop.
//
// The socket is nonblocking and registered on the loop. Reads feed the
// FrameDecoder and dispatch complete frames from the loop thread; writes
// stage as {inline header, payload ref} entries in a bounded deque and flush
// as scatter-gather writev batches — SendFrame never copies the payload into
// a contiguous frame. The sender's own thread flushes inline when the kernel
// buffer has room (no epoll round-trip on an idle socket); EPOLLOUT is armed
// only for the residual. No threads are owned — a process with hundreds of
// connections pays for one IO thread total.
//
// Backpressure: SendFrame blocks while the send buffer holds
// `send_queue_frames` frames — the same discipline as BoundedQueue mailbox
// pushes, extended across the wire.
//
// On any socket or codec error the connection turns `broken`: buffered
// frames are dropped (the sender's OutputBuffer log retains every unacked
// item, so the reconnect-replay path re-sends them; see remote_channel.h),
// and on_error fires exactly once. A Connection never repairs itself — the
// MuxPool dials a fresh one.
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
#include <mutex>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace sdg::net {

class Connection : private EventLoop::Handler {
 public:
  struct Options {
    // Frames the connection may buffer before SendFrame blocks. Each data
    // frame is one delivery batch, so this bounds in-flight bytes the same
    // way a mailbox capacity bounds queued items.
    size_t send_queue_frames = 64;
    // Event loop driving the socket; nullptr = EventLoop::Shared().
    EventLoop* loop = nullptr;
  };

  // Called one complete frame at a time from the loop thread. Must not block
  // for long (it stalls every connection on the loop): hand heavy work to
  // the executor.
  using FrameFn = std::function<void(Frame frame)>;
  // Called once, from whichever thread hits the failure first.
  using ErrorFn = std::function<void(const Status& status)>;

  // Takes ownership of a connected socket and any bytes `carry` already read
  // past the synchronous setup exchange.
  Connection(Socket socket, Options options, FrameFn on_frame,
             ErrorFn on_error, FrameDecoder carry = {});
  ~Connection() override;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Zero-copy framed send: encodes the header inline in the queue entry and
  // stages the payload by move — the flush path gathers header+payload
  // straight into writev, so the payload bytes are never copied again.
  // Blocks while the send buffer is full (backpressure). Returns false if the
  // connection is broken or closed — the frame is NOT sent and the caller's
  // log keeps it replayable.
  bool SendFrame(FrameType type, uint32_t stream,
                 std::vector<uint8_t> payload);

  // Non-blocking framed send for best-effort traffic (acks, control): false
  // when the buffer is full, broken, or closed. Never waits.
  bool TrySendFrame(FrameType type, uint32_t stream,
                    const std::vector<uint8_t>& payload);

  // Non-blocking send of `frames` whole encoded frames laid back to back in
  // `bytes`, staged by move as one write. They count as `frames` against
  // send_queue_frames and are accepted or refused together.
  bool TrySendFrames(std::vector<uint8_t> bytes, size_t frames);

  // Pauses/resumes read-side dispatch. While paused the kernel receive
  // buffer fills and TCP flow control pushes back on the sender — wire-level
  // backpressure for a receiver whose executor entity is behind.
  void SetReadInterest(bool want_read);

  // Flushes frames already accepted (unless broken; bounded wait), then cuts
  // the socket and releases the loop registration. Idempotent.
  void Close();

  // Marks the connection broken and cuts the socket immediately — no drain
  // — so the peer observes a closed link and can redial. Unlike Close(),
  // safe to call from inside on_frame. Close() must still run later for
  // teardown.
  void Abort(const Status& status) { Fail(status); }

  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  // Loop-thread callbacks.
  void OnReadable() override;
  void OnWritable() override;
  void OnError() override;

  void Fail(const Status& status);
  void DispatchDecoded();  // drains decoder_ into on_frame_; Fails on codec error

  Socket socket_;
  int fd_ = -1;  // cached: Deregister needs it while socket_ is being torn down
  const size_t send_queue_frames_;
  EventLoop* const loop_;
  FrameFn on_frame_;
  ErrorFn on_error_;
  FrameDecoder decoder_;
  std::vector<uint8_t> read_buf_;

  std::atomic<bool> broken_{false};
  std::atomic<bool> error_fired_{false};
  std::atomic<bool> closed_{false};

  // One staged frame: a small inline header (encoded at enqueue time) plus
  // the payload by reference. The flush path gathers both into an iovec
  // batch, so payload bytes are written straight from here — no recopy.
  struct SendEntry {
    uint8_t header[kFrameHeaderBytes] = {};
    uint8_t header_len = 0;  // 0: payload already holds whole encoded frames
    size_t frames = 1;       // frames in payload, counted by the queue bound
    std::vector<uint8_t> payload;
    size_t size() const { return header_len + payload.size(); }
  };
  // Stages `entry` (blocking for queue room when `may_block`) unless the
  // connection is broken/closed or the bound refuses it.
  bool Enqueue(SendEntry entry, bool may_block);
  // Drains as much of send_q_ as the kernel accepts via writev, then
  // arms/disarms EPOLLOUT to match the residual. On socket error releases
  // `lock`, runs Fail(), and returns false.
  bool FlushLocked(std::unique_lock<std::mutex>& lock);

  // Also orders socket shutdown against close: Fail (any thread) must never
  // shutdown() a descriptor Close already released and the process may have
  // reused.
  std::mutex send_mu_;
  std::condition_variable send_cv_;
  std::deque<SendEntry> send_q_;
  size_t queued_frames_ = 0;   // sum of send_q_ entries' frames
  size_t send_offset_ = 0;     // bytes of send_q_.front() already written
  bool write_armed_ = false;   // EPOLLOUT currently requested
  bool want_read_ = true;      // EPOLLIN currently requested
};

// Blocking helper for the synchronous first-frame exchange that precedes the
// event-loop regime (mux hello, join, migration sessions, clients): reads
// whole frames through `decoder` until one is complete. Bytes read past the
// frame stay buffered in `decoder` — hand it to the Connection afterwards.
Result<Frame> ReadFrameBlocking(Socket& socket, FrameDecoder& decoder);

// Encodes and writes one frame (stream 0) synchronously on a blocking socket
// (setup exchanges, the worker's control channel, clients).
Status WriteFrameBlocking(Socket& socket, FrameType type,
                          const std::vector<uint8_t>& payload);

}  // namespace sdg::net

#endif  // SDG_NET_CONNECTION_H_
