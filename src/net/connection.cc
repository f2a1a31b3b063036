#include "src/net/connection.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace sdg::net {

namespace {
// Bound on the Close() drain wait. A healthy link flushes a full send buffer
// in far less; a peer that stopped reading should not wedge shutdown.
constexpr auto kCloseDrainDeadline = std::chrono::seconds(5);

// Read chunk size of the loop-thread read path.
constexpr size_t kReadBufferBytes = 64 * 1024;

// Iovec segments per writev batch (each staged frame contributes up to two:
// inline header + payload). Well under IOV_MAX; the flush loop keeps going
// while the kernel accepts bytes, so this only chunks a very deep queue.
constexpr int kMaxIovSegments = 64;
}  // namespace

Connection::Connection(Socket socket, Options options, FrameFn on_frame,
                       ErrorFn on_error, FrameDecoder carry)
    : socket_(std::move(socket)),
      fd_(socket_.fd()),
      send_queue_frames_(std::max<size_t>(1, options.send_queue_frames)),
      loop_(options.loop != nullptr ? options.loop : EventLoop::Shared()),
      on_frame_(std::move(on_frame)),
      on_error_(std::move(on_error)),
      decoder_(std::move(carry)),
      read_buf_(kReadBufferBytes) {
  Status s = socket_.SetNonBlocking(true);
  if (s.ok()) {
    s = loop_->Register(fd_, this, /*want_read=*/true, /*want_write=*/false);
  }
  if (!s.ok()) {
    Fail(s);
  }
}

Connection::~Connection() { Close(); }

bool Connection::Enqueue(SendEntry entry, bool may_block) {
  if (broken_.load(std::memory_order_acquire) ||
      closed_.load(std::memory_order_acquire)) {
    return false;
  }
  std::unique_lock<std::mutex> lock(send_mu_);
  if (may_block) {
    send_cv_.wait(lock, [&] {
      return queued_frames_ < send_queue_frames_ ||
             broken_.load(std::memory_order_acquire) ||
             closed_.load(std::memory_order_acquire);
    });
  }
  if (queued_frames_ + entry.frames > send_queue_frames_ ||
      broken_.load(std::memory_order_acquire) ||
      closed_.load(std::memory_order_acquire)) {
    return false;
  }
  if (entry.size() == 0) {
    return true;  // nothing to put on the wire
  }
  queued_frames_ += entry.frames;
  send_q_.push_back(std::move(entry));
  // Inline flush from the caller's thread: on an idle socket the frame goes
  // straight to the kernel with no epoll round-trip (the small-batch latency
  // win). If EPOLLOUT is already armed the loop thread owns the drain.
  if (!write_armed_) {
    if (!FlushLocked(lock)) {
      return false;  // lock released, Fail() ran
    }
    // The flush may have freed queue slots with EPOLLOUT left unarmed — wake
    // senders blocked on capacity or OnWritable would never do it for them.
    send_cv_.notify_all();
  }
  return true;
}

bool Connection::SendFrame(FrameType type, uint32_t stream,
                           std::vector<uint8_t> payload) {
  SendEntry entry;
  EncodeFrameHeader(entry.header, type, stream, payload.size());
  entry.header_len = kFrameHeaderBytes;
  entry.payload = std::move(payload);
  return Enqueue(std::move(entry), /*may_block=*/true);
}

bool Connection::TrySendFrame(FrameType type, uint32_t stream,
                              const std::vector<uint8_t>& payload) {
  SendEntry entry;
  EncodeFrameHeader(entry.header, type, stream, payload.size());
  entry.header_len = kFrameHeaderBytes;
  entry.payload = payload;
  return Enqueue(std::move(entry), /*may_block=*/false);
}

bool Connection::TrySendFrames(std::vector<uint8_t> bytes, size_t frames) {
  SendEntry entry;
  entry.frames = frames;
  entry.payload = std::move(bytes);
  return Enqueue(std::move(entry), /*may_block=*/false);
}

void Connection::SetReadInterest(bool want_read) {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (want_read_ == want_read || broken_.load(std::memory_order_acquire) ||
      closed_.load(std::memory_order_acquire)) {
    return;
  }
  want_read_ = want_read;
  loop_->UpdateEvents(fd_, want_read_, write_armed_);
}

void Connection::Fail(const Status& status) {
  broken_.store(true, std::memory_order_release);
  {
    // Under send_mu_, which Close also holds to release the descriptor: once
    // Close has run, this is a no-op on fd -1, never a shutdown() of a
    // descriptor number the process has since reused. Queued frames are
    // dropped: unacked items live on in the sender's OutputBuffer.
    std::lock_guard<std::mutex> lock(send_mu_);
    send_q_.clear();
    queued_frames_ = 0;
    send_offset_ = 0;
    socket_.ShutdownBoth();
  }
  send_cv_.notify_all();  // also wakes Close's drain wait
  if (!error_fired_.exchange(true) && on_error_) {
    on_error_(status);
  }
}

void Connection::DispatchDecoded() {
  for (;;) {
    Frame frame;
    auto more = decoder_.Next(&frame);
    if (!more.ok()) {
      Fail(more.status());
      return;
    }
    if (!*more) {
      return;
    }
    if (on_frame_) {
      on_frame_(std::move(frame));
    }
  }
}

void Connection::OnReadable() {
  for (;;) {
    auto n = socket_.TryRead(read_buf_.data(), read_buf_.size());
    if (!n.ok()) {
      Fail(n.status());
      return;
    }
    if (*n == Socket::kWouldBlock) {
      return;
    }
    if (*n == 0) {
      Fail(UnavailableError("peer closed the connection"));
      return;
    }
    decoder_.Feed(read_buf_.data(), *n);
    DispatchDecoded();
    if (broken_.load(std::memory_order_acquire)) {
      return;
    }
  }
}

bool Connection::FlushLocked(std::unique_lock<std::mutex>& lock) {
  while (!send_q_.empty()) {
    // Gather the queue head into one iovec batch: header and payload of each
    // staged frame by reference, the partially-written front offset skipped.
    struct iovec iov[kMaxIovSegments];
    int iovcnt = 0;
    size_t skip = send_offset_;
    for (const SendEntry& e : send_q_) {
      if (iovcnt + 2 > kMaxIovSegments) {
        break;
      }
      if (skip < e.header_len) {
        iov[iovcnt].iov_base = const_cast<uint8_t*>(e.header) + skip;
        iov[iovcnt].iov_len = e.header_len - skip;
        ++iovcnt;
        skip = 0;
      } else {
        skip -= e.header_len;
      }
      if (skip < e.payload.size()) {
        iov[iovcnt].iov_base = const_cast<uint8_t*>(e.payload.data()) + skip;
        iov[iovcnt].iov_len = e.payload.size() - skip;
        ++iovcnt;
        skip = 0;
      } else {
        skip -= e.payload.size();
      }
    }
    auto n = socket_.TryWritev(iov, iovcnt);
    if (!n.ok()) {
      lock.unlock();
      Fail(n.status());
      return false;
    }
    if (*n == 0) {
      break;  // kernel buffer full; leave the residual for EPOLLOUT
    }
    send_offset_ += *n;
    while (!send_q_.empty() && send_offset_ >= send_q_.front().size()) {
      send_offset_ -= send_q_.front().size();
      queued_frames_ -= send_q_.front().frames;
      send_q_.pop_front();
    }
  }
  const bool want_write = !send_q_.empty();
  if (write_armed_ != want_write) {
    write_armed_ = want_write;
    loop_->UpdateEvents(fd_, want_read_, want_write);
  }
  return true;
}

void Connection::OnWritable() {
  std::unique_lock<std::mutex> lock(send_mu_);
  if (!FlushLocked(lock)) {
    return;  // lock released, Fail() ran
  }
  lock.unlock();
  send_cv_.notify_all();
}

void Connection::OnError() { Fail(UnavailableError("socket error (EPOLLERR)")); }

void Connection::Close() {
  if (closed_.exchange(true)) {
    return;
  }
  // Drain: let the loop flush frames SendFrame already accepted. A broken
  // link (or a peer that stopped reading, bounded by the deadline) skips
  // ahead.
  {
    std::unique_lock<std::mutex> lock(send_mu_);
    send_cv_.wait_for(lock, kCloseDrainDeadline, [&] {
      return send_q_.empty() || broken_.load(std::memory_order_acquire);
    });
  }
  send_cv_.notify_all();  // release senders blocked on capacity
  loop_->Deregister(fd_);  // waits out any in-flight callback
  broken_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(send_mu_);  // see Fail
  socket_.ShutdownBoth();
  socket_.Close();
}

Result<Frame> ReadFrameBlocking(Socket& socket, FrameDecoder& decoder) {
  uint8_t buf[4096];
  for (;;) {
    Frame frame;
    SDG_ASSIGN_OR_RETURN(bool ready, decoder.Next(&frame));
    if (ready) {
      return frame;
    }
    SDG_ASSIGN_OR_RETURN(size_t n, socket.ReadSome(buf, sizeof(buf)));
    if (n == 0) {
      return UnavailableError("peer closed during setup");
    }
    decoder.Feed(buf, n);
  }
}

Status WriteFrameBlocking(Socket& socket, FrameType type,
                          const std::vector<uint8_t>& payload) {
  BinaryWriter w;
  EncodeFrame(w, type, payload.data(), payload.size());
  return socket.WriteAll(w.data(), w.size());
}

}  // namespace sdg::net
