#include "src/net/remote_channel.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/logging.h"

namespace sdg::net {

namespace {
// One remote endpoint per channel: the log keys every entry under this
// destination slot.
constexpr uint32_t kRemoteDest = 0;
// Replay re-sends logged entries in frames of this many items.
constexpr size_t kReplayBatch = 512;
}  // namespace

RemoteChannel::RemoteChannel(RemoteChannelOptions options,
                             runtime::OutputBuffer* log)
    : options_(std::move(options)), log_(log) {
  SDG_CHECK(options_.mux != nullptr);
}

RemoteChannel::~RemoteChannel() { Close(); }

Status RemoteChannel::Connect() {
  std::lock_guard<std::mutex> lock(send_mutex_);
  return EnsureConnectedLocked();
}

Status RemoteChannel::ConnectLocked() {
  SDG_ASSIGN_OR_RETURN(std::shared_ptr<MuxConnection> mux,
                       options_.mux->Get(options_.host, options_.port));
  MuxOpenMsg open;
  open.deployment_id = options_.deployment_id;
  open.source_task = options_.source_task;
  open.source_instance = options_.source_instance;
  open.entry = options_.entry;
  open.emit_clock = 0;
  SDG_ASSIGN_OR_RETURN(
      std::shared_ptr<MuxStream> stream,
      mux->OpenStream(
          open, [this](uint64_t acked_ts) { HandleAck(acked_ts); },
          [this](const Status& s) {
            SDG_LOG(kWarning) << "mux stream failed: " << s.ToString();
            // Heal in the background so an idle sender does not pay the
            // redial on its next Deliver. Deliver's own synchronous repair
            // remains the authoritative path; whichever runs first wins
            // (both serialize on send_mutex_ and the loser sees a healthy
            // stream).
            StartBackgroundReconnect();
          }));
  // The open-ack watermark doubles as an ack that may have been lost with
  // the previous connection: trim the log up to it before computing replay.
  const uint64_t acked_ts = stream->acked_ts();
  HandleAck(acked_ts);
  stream_ = std::move(stream);
  return ReplayLocked(acked_ts);
}

// Reconnect-replay (§5): everything logged past the receiver's durable
// watermark goes out again, marked replayed so downstream dedup drops what
// actually arrived the first time.
Status RemoteChannel::ReplayLocked(uint64_t acked_ts) {
  std::vector<runtime::DataItem> pending =
      log_->ItemsAfter(kRemoteDest, acked_ts);
  for (size_t i = 0; i < pending.size(); i += kReplayBatch) {
    const size_t end = std::min(pending.size(), i + kReplayBatch);
    runtime::EncodedBatch batch;
    batch.WriteHeader<uint32_t>(static_cast<uint32_t>(end - i));
    for (size_t j = i; j < end; ++j) {
      pending[j].replayed = true;
      batch.Add(pending[j]);
    }
    if (!SendBatchLocked(std::move(batch))) {
      return UnavailableError("connection lost during replay");
    }
  }
  return Status::Ok();
}

Status RemoteChannel::EnsureConnectedLocked() {
  if (closed_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("channel closed");
  }
  if (stream_ != nullptr && !stream_->broken()) {
    return Status::Ok();
  }
  Status last = UnavailableError("not connected");
  for (int attempt = 0; attempt < std::max(1, options_.reconnect_attempts);
       ++attempt) {
    DropStreamLocked();
    last = ConnectLocked();
    if (last.ok()) {
      return last;
    }
    DropStreamLocked();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.reconnect_backoff_ms));
  }
  return last;
}

void RemoteChannel::DropStreamLocked() {
  if (stream_ != nullptr) {
    // The loop thread may still be about to call this channel's ack/error
    // callbacks through its own reference to the stream.
    stream_->Detach();
    stream_.reset();
  }
}

bool RemoteChannel::SendBatchLocked(runtime::EncodedBatch&& batch) {
  if (stream_ == nullptr || stream_->broken()) {
    return false;
  }
  // The encoded batch is the payload, handed to the scatter-gather send path
  // by move — the header lives inline in the queue entry, so no frame buffer
  // is ever assembled.
  return stream_->Send(FrameType::kData, std::move(batch).TakeBytes());
}

bool RemoteChannel::Deliver(runtime::DataItem item) {
  std::vector<runtime::DataItem> one;
  one.push_back(std::move(item));
  return DeliverAll(std::move(one)) == 1;
}

size_t RemoteChannel::DeliverAll(std::vector<runtime::DataItem>&& items) {
  if (items.empty()) {
    return 0;
  }
  const size_t count = items.size();
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (!EnsureConnectedLocked().ok()) {
    return 0;
  }
  // Each item is encoded once: the same bytes become the log entries and
  // the kData payload (item count, then the encodings).
  runtime::EncodedBatch batch;
  batch.WriteHeader<uint32_t>(static_cast<uint32_t>(count));
  for (const auto& item : items) {
    batch.Add(item);
  }
  // Log-before-send: once an entry is in the upstream-backup buffer, a lost
  // wire delivery is recoverable by replay, so a Send failure below is not
  // data loss — the next Deliver* reconnects and replays.
  log_->AppendEncoded(batch, kRemoteDest);
  // From here the batch counts as accepted no matter what the wire does:
  // once logged, the items reach the receiver via reconnect-replay, and
  // reporting failure would invite the caller to resend fresh copies whose
  // replayed=false duplicates bypass downstream dedup.
  if (!SendBatchLocked(std::move(batch))) {
    (void)EnsureConnectedLocked();  // immediate repair attempt (replays)
  }
  return count;
}

void RemoteChannel::HandleAck(uint64_t acked_ts) {
  log_->Ack(kRemoteDest, acked_ts);
  std::lock_guard<std::mutex> lock(ack_mutex_);
  acked_watermark_ = std::max(acked_watermark_, acked_ts);
}

uint64_t RemoteChannel::acked_watermark() const {
  std::lock_guard<std::mutex> lock(ack_mutex_);
  return acked_watermark_;
}

void RemoteChannel::StartBackgroundReconnect() {
  if (closed_.load(std::memory_order_acquire)) {
    return;
  }
  if (reconnecting_.exchange(true)) {
    return;  // one round in flight already
  }
  {
    std::lock_guard<std::mutex> lock(reconnect_mutex_);
    ++reconnect_inflight_;
  }
  // Repair must not ride the shared executor: reopening a stream replays the
  // log, and replay blocks on flow-control credits the receiver grants
  // through ITS executor — an executor task waiting on another executor's
  // progress is how small pools deadlock. But waiting for the next Deliver
  // is not enough either: a reader blocked on data that only this channel's
  // replay can deliver generates no new sends, so the channel would stay
  // broken (and its log unreplayed) forever. A dedicated thread per round —
  // spawned only on connection failure — heals eagerly without touching any
  // executor.
  std::thread([this] { BackgroundReconnect(); }).detach();
}

// One bounded round of redial attempts, all on this (dedicated) thread.
// Blocking here is fine — replay may stall on flow-control credits until the
// receiver drains — and the round ends early the moment the channel is
// healthy (the synchronous Deliver path may win the race; both serialize on
// send_mutex_). After the round, the synchronous path in Deliver* owns
// repair.
void RemoteChannel::BackgroundReconnect() {
  for (int attempt = 0; attempt < std::max(1, options_.reconnect_attempts);
       ++attempt) {
    if (closed_.load(std::memory_order_acquire)) {
      break;
    }
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.reconnect_backoff_ms));
    }
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      break;
    }
    if (stream_ != nullptr && !stream_->broken()) {
      break;
    }
    DropStreamLocked();
    if (ConnectLocked().ok()) {
      if (closed_.load(std::memory_order_acquire)) {
        DropStreamLocked();  // raced with Close: do not leave a live stream
      }
      break;
    }
    DropStreamLocked();
  }
  reconnecting_.store(false, std::memory_order_release);
  // Notify under the lock: once Close observes zero it may destroy the
  // channel, so the cv must not be touched after unlock.
  std::lock_guard<std::mutex> lock(reconnect_mutex_);
  --reconnect_inflight_;
  reconnect_cv_.notify_all();
}

void RemoteChannel::Close() {
  closed_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    // The shared per-peer socket stays up for sibling channels (the pool
    // owns it).
    DropStreamLocked();
  }
  std::unique_lock<std::mutex> lock(reconnect_mutex_);
  reconnect_cv_.wait(lock, [this] { return reconnect_inflight_ == 0; });
}

bool RemoteChannel::connected() const {
  std::lock_guard<std::mutex> lock(send_mutex_);
  return stream_ != nullptr && !stream_->broken();
}

}  // namespace sdg::net
