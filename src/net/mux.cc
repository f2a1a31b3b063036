#include "src/net/mux.h"

#include <chrono>
#include <utility>

namespace sdg::net {

namespace {
// Blocking-read bound on the hello exchange.
constexpr int kHelloTimeoutMs = 5000;
// Bound on the wait for a stream's open-ack.
constexpr auto kOpenTimeout = std::chrono::seconds(10);
}  // namespace

Result<std::shared_ptr<MuxConnection>> MuxConnection::Dial(
    const std::string& host, uint16_t port, Options options) {
  SDG_ASSIGN_OR_RETURN(Socket sock, Socket::Connect(host, port));
  sock.SetRecvTimeout(kHelloTimeoutMs);
  MuxHelloMsg hello;
  hello.deployment_id = options.deployment_id;
  SDG_RETURN_IF_ERROR(
      WriteFrameBlocking(sock, FrameType::kMuxHello, hello.Encode()));
  FrameDecoder carry;
  SDG_ASSIGN_OR_RETURN(Frame reply, ReadFrameBlocking(sock, carry));
  if (reply.type != FrameType::kMuxHelloAck) {
    return UnavailableError("mux hello: unexpected reply frame");
  }
  SDG_ASSIGN_OR_RETURN(MuxHelloAckMsg ack, MuxHelloAckMsg::Decode(reply.payload));
  if (!ack.accepted) {
    return UnavailableError("mux hello rejected: " + ack.message);
  }
  sock.SetRecvTimeout(0);

  auto mux = std::shared_ptr<MuxConnection>(new MuxConnection(ack.window));
  Connection::Options copts;
  copts.loop = options.loop;
  copts.send_queue_frames = kMuxSendQueueFrames;
  std::weak_ptr<MuxConnection> weak = mux;
  mux->conn_ = std::make_unique<Connection>(
      std::move(sock), copts,
      [weak](Frame frame) {
        if (auto self = weak.lock()) {
          self->OnFrame(std::move(frame));
        }
      },
      [weak](const Status& status) {
        if (auto self = weak.lock()) {
          self->OnError(status);
        }
      },
      std::move(carry));
  if (mux->conn_->broken()) {
    return UnavailableError("mux connection failed during setup");
  }
  return mux;
}

MuxConnection::~MuxConnection() { Close(); }

void MuxConnection::Close() {
  broken_.store(true, std::memory_order_release);
  if (conn_) {
    conn_->Close();
  }
  OnError(UnavailableError("mux connection closed"));
}

Result<std::shared_ptr<MuxStream>> MuxConnection::OpenStream(
    const MuxOpenMsg& open, AckFn on_ack, Connection::ErrorFn on_error) {
  if (broken_.load(std::memory_order_acquire)) {
    return UnavailableError("mux connection is broken");
  }
  std::shared_ptr<MuxStream> stream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t id = next_stream_++;
    stream = std::shared_ptr<MuxStream>(new MuxStream(
        shared_from_this(), id, std::move(on_ack), std::move(on_error)));
    streams_[id] = stream;
  }
  auto forget = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    streams_.erase(stream->id());
  };
  if (!conn_->SendFrame(FrameType::kMuxOpen, stream->id(), open.Encode())) {
    forget();
    return UnavailableError("mux open: connection broke before send");
  }
  MuxOpenAckMsg ack;
  if (!stream->AwaitOpen(&ack)) {
    forget();
    return UnavailableError("mux open: no ack (timeout or broken link)");
  }
  if (!ack.accepted) {
    forget();
    // The receiver judged the channel identity itself (HandshakeFn): a
    // redial would be refused the same way.
    return FailedPreconditionError("mux open rejected: " + ack.message);
  }
  stream->acked_ts_ = ack.acked_ts;
  stream->GrantCredits(ack.window == 0 ? default_window_ : ack.window);
  return stream;
}

std::shared_ptr<MuxStream> MuxConnection::FindStream(uint32_t stream_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return nullptr;
  }
  auto stream = it->second.lock();
  if (!stream) {
    streams_.erase(it);  // abandoned handle — stop routing to it
  }
  return stream;
}

// Routes one server->dialer frame. Frames for an abandoned or never-opened
// stream are dropped.
void MuxConnection::OnFrame(Frame frame) {
  switch (frame.type) {
    case FrameType::kMuxAckBatch: {
      auto batch = MuxAckBatchMsg::Decode(frame.payload);
      if (!batch.ok()) {
        conn_->Abort(batch.status());
        return;
      }
      for (const auto& entry : batch->entries) {
        if (auto stream = FindStream(entry.stream)) {
          stream->OnAck(entry.acked_ts);
        }
      }
      return;
    }
    case FrameType::kMuxOpenAck: {
      auto ack = MuxOpenAckMsg::Decode(frame.payload);
      if (!ack.ok()) {
        conn_->Abort(ack.status());
        return;
      }
      if (auto stream = FindStream(frame.stream)) {
        stream->CompleteOpen(*ack);
      }
      return;
    }
    case FrameType::kMuxWindow: {
      auto grant = MuxWindowMsg::Decode(frame.payload);
      if (!grant.ok()) {
        conn_->Abort(grant.status());
        return;
      }
      if (auto stream = FindStream(frame.stream)) {
        stream->GrantCredits(grant->credits);
      }
      return;
    }
    default:
      return;  // no other frame flows server -> dialer
  }
}

void MuxConnection::OnError(const Status& status) {
  broken_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<MuxStream>> streams;
  {
    std::lock_guard<std::mutex> lock(mu_);
    streams.reserve(streams_.size());
    for (auto& [id, weak] : streams_) {
      if (auto stream = weak.lock()) {
        streams.push_back(std::move(stream));
      }
    }
  }
  for (auto& stream : streams) {
    stream->FailStream(status);
  }
}

// --- MuxStream ---------------------------------------------------------------

bool MuxStream::Send(FrameType type, std::vector<uint8_t> payload) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return credits_ > 0 || broken_.load(std::memory_order_acquire);
    });
    if (broken_.load(std::memory_order_acquire)) {
      return false;
    }
    --credits_;
  }
  // Send outside the stream lock: the loop thread takes it to grant credits,
  // and must never be blocked behind a sender waiting on socket capacity.
  return conn_->conn_->SendFrame(type, id_, std::move(payload));
}

bool MuxStream::broken() const {
  return broken_.load(std::memory_order_acquire) || conn_->broken();
}

void MuxStream::CompleteOpen(const MuxOpenAckMsg& ack) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ack_ = ack;
    open_done_ = true;
  }
  cv_.notify_all();
}

void MuxStream::GrantCredits(uint32_t credits) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    credits_ += credits;
  }
  cv_.notify_all();
}

void MuxStream::OnAck(uint64_t acked_ts) {
  std::lock_guard<std::mutex> lock(callback_mu_);
  if (on_ack_) {
    on_ack_(acked_ts);
  }
}

void MuxStream::FailStream(const Status& status) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    broken_.store(true, std::memory_order_release);
    fire = !error_fired_;
    error_fired_ = true;
  }
  cv_.notify_all();
  if (fire) {
    std::lock_guard<std::mutex> lock(callback_mu_);
    if (on_error_) {
      on_error_(status);
    }
  }
}

void MuxStream::Detach() {
  std::lock_guard<std::mutex> lock(callback_mu_);
  on_ack_ = nullptr;
  on_error_ = nullptr;
}

bool MuxStream::AwaitOpen(MuxOpenAckMsg* out) {
  std::unique_lock<std::mutex> lock(mu_);
  bool done = cv_.wait_for(lock, kOpenTimeout, [&] {
    return open_done_ || broken_.load(std::memory_order_acquire);
  });
  if (!done || !open_done_) {
    return false;
  }
  *out = open_ack_;
  return true;
}

// --- MuxPool -----------------------------------------------------------------

Result<std::shared_ptr<MuxConnection>> MuxPool::Get(const std::string& host,
                                                    uint16_t port) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conns_.find(key);
  if (it != conns_.end()) {
    if (!it->second->broken()) {
      return it->second;
    }
    conns_.erase(it);
  }
  SDG_ASSIGN_OR_RETURN(auto conn, MuxConnection::Dial(host, port, base_));
  conns_[key] = conn;
  return conn;
}

void MuxPool::CloseAll() {
  std::unordered_map<std::string, std::shared_ptr<MuxConnection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& [key, conn] : conns) {
    conn->Close();
  }
}

}  // namespace sdg::net
