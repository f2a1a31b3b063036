#include "src/net/channel_server.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/net/mux.h"

namespace sdg::net {

namespace {
// Staged-frame bound of member and feed connections.
constexpr size_t kPeerSendQueueFrames = 16;
// Client connections: responses are small and clients pipeline deeply.
constexpr size_t kClientSendQueueFrames = 16384;
// Initial flow-control window (frames in flight) granted to each data
// stream. Bounds per-stream backlog on this side — streams never pause the
// shared socket's read interest, so the window is the only thing keeping a
// hot stream's frames from piling up.
constexpr uint32_t kMuxStreamWindow = 64;
}  // namespace

// ---------------------------------------------------------------------------
// PeerDispatch

ChannelServer::PeerDispatch::PeerDispatch(
    ChannelServer* server, Peer* peer, runtime::Executor* executor,
    bool wire_pause, std::function<void(size_t)> on_consumed)
    : server_(server),
      peer_(peer),
      wire_pause_(wire_pause),
      on_consumed_(std::move(on_consumed)) {
  BindExecutor(executor);
}

void ChannelServer::PeerDispatch::PushFrame(Frame frame) {
  bool held;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    held = held_;
    frames_.push_back(std::move(frame));
    if (wire_pause_ && !paused_ && frames_.size() >= kPauseFrames) {
      paused_ = true;
      // Backlog over the high watermark: stop reading this socket. The
      // kernel buffer fills, TCP flow control reaches the sender — wire
      // backpressure. Applied under mu_ so the epoll update can never land
      // after a concurrent RunSlice's resume: reads-off with paused_==false
      // would wedge the peer forever, since only a paused slice resumes.
      // (Safe lock order: Connection never calls into the dispatch while
      // holding its send lock, and UpdateEvents is a non-blocking
      // epoll_ctl.)
      if (Connection* c = conn_.load(std::memory_order_acquire)) {
        c->SetReadInterest(false);
      }
    }
  }
  if (!held) {
    Ready();
  }
}

void ChannelServer::PeerDispatch::Hold() {
  std::lock_guard<std::mutex> lock(mu_);
  held_ = true;
}

void ChannelServer::PeerDispatch::Release() {
  bool any;
  {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    any = !frames_.empty();
  }
  if (any) {
    Ready();
  }
}

bool ChannelServer::PeerDispatch::RunSlice() {
  std::vector<Frame> batch;
  bool more;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (held_) {
      return false;
    }
    size_t n = std::min(kFramesPerSlice, frames_.size());
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(frames_.front()));
      frames_.pop_front();
    }
    if (paused_ && frames_.size() <= kResumeFrames) {
      paused_ = false;
      // Under mu_ for the same reason as the pause in PushFrame: the
      // interest change must be ordered with the paused_ flip it reflects.
      if (Connection* c = conn_.load(std::memory_order_acquire)) {
        c->SetReadInterest(true);
      }
    }
    more = !frames_.empty();
  }
  const size_t consumed = batch.size();
  if (consumed > 0) {
    server_->DispatchPeerFrames(*peer_, std::move(batch));
  }
  if (on_consumed_ != nullptr && consumed > 0) {
    on_consumed_(consumed);
  }
  return more;
}

void ChannelServer::PeerDispatch::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  // Frames already handed over are still dispatched; anything beyond that is
  // unacked and will be replayed by the sender.
  AwaitIdle();
}

// ---------------------------------------------------------------------------
// ChannelServer

std::shared_ptr<const ChannelServer::ServeHandlers>
ChannelServer::ServeSnapshot() {
  std::lock_guard<std::mutex> lock(serve_mutex_);
  return serve_;
}

// One dispatch slice of a data stream, client or feed peer. Runs on the
// peer's dispatch entity — never the epoll loop.
void ChannelServer::DispatchPeerFrames(Peer& peer, std::vector<Frame> frames) {
  if (peer.is_client) {
    // The whole slice goes to the gateway in one call, so the answers it can
    // give on the spot leave as one write.
    std::vector<RequestMsg> reqs;
    reqs.reserve(frames.size());
    for (const Frame& frame : frames) {
      if (frame.type != FrameType::kRequest) {
        continue;
      }
      auto req = RequestMsg::Decode(frame.payload);
      if (!req.ok()) {
        SDG_LOG(kWarning) << "dropping malformed request: "
                          << req.status().ToString();
        continue;
      }
      reqs.push_back(std::move(*req));
    }
    if (reqs.empty()) {
      return;
    }
    auto serve = ServeSnapshot();
    if (serve == nullptr || serve->on_request == nullptr) {
      // No gateway installed: cut the connection instead of silently eating
      // the requests, so the client fails fast and redials a live gateway.
      peer.conn->Abort(UnavailableError("no serve handler installed"));
      return;
    }
    serve->on_request(peer.client_id, std::move(reqs));
    return;
  }
  for (Frame& frame : frames) {
    if (peer.is_feed) {
      if (frame.type != FrameType::kReplicaEpoch) {
        continue;
      }
      auto msg = ReplicaEpochMsg::Decode(frame.payload);
      if (!msg.ok()) {
        SDG_LOG(kWarning) << "dropping malformed replica epoch: "
                          << msg.status().ToString();
        continue;
      }
      auto serve = ServeSnapshot();
      if (serve == nullptr || serve->on_feed == nullptr) {
        // Epochs dropped here would desync the publisher's tail from the
        // gateway's replica views (a base eaten now leaves every later delta
        // inapplicable). Cut the link: the worker redials with backoff and
        // replays its tail — base first — once a gateway is listening.
        peer.conn->Abort(UnavailableError("no serve handler installed"));
        return;
      }
      serve->on_feed(peer.subscribe, std::move(*msg));
      continue;
    }
    if (frame.type != FrameType::kData) {
      continue;
    }
    auto decoded = DataBatch::Decode(frame.payload);
    if (!decoded.ok()) {
      SDG_LOG(kWarning) << "dropping malformed data batch: "
                        << decoded.status().ToString();
      continue;
    }
    on_batch_(peer.handshake, std::move(decoded->items));
  }
}

ChannelServer::ChannelServer(ChannelServerOptions options)
    : options_(options) {}

ChannelServer::~ChannelServer() { Stop(); }

Status ChannelServer::Start(HandshakeFn on_handshake, BatchFn on_batch,
                            JoinFn on_join, MemberFrameFn on_member,
                            MigrationFn on_migration) {
  if (running_.exchange(true)) {
    return FailedPreconditionError("channel server already started");
  }
  on_handshake_ = std::move(on_handshake);
  on_batch_ = std::move(on_batch);
  on_join_ = std::move(on_join);
  on_member_ = std::move(on_member);
  on_migration_ = std::move(on_migration);
  SDG_ASSIGN_OR_RETURN(listener_, Listener::Bind(options_.port));
  port_ = listener_.port();
  executor_ = options_.executor != nullptr ? options_.executor
                                           : runtime::Executor::Shared();
  loop_ = options_.loop != nullptr ? options_.loop : EventLoop::Shared();
  SDG_RETURN_IF_ERROR(listener_.SetNonBlocking(true));
  SDG_RETURN_IF_ERROR(loop_->Register(listener_.fd(), this,
                                      /*want_read=*/true,
                                      /*want_write=*/false));
  return Status::Ok();
}

// Listener readiness (loop thread): accept everything pending, then hand
// each first-frame exchange to a short-lived setup thread. The setup is
// deliberately NOT an executor task: it blocks waiting on the client, and
// the client side may itself be an executor task blocked waiting on this
// reply — on a small pool that is a circular wait. Setup threads exist only
// during connection churn, so the steady-state thread count stays O(pool
// size).
void ChannelServer::OnReadable() {
  for (;;) {
    auto sock = listener_.TryAccept();
    if (!sock.ok() || !sock->valid()) {
      return;  // drained (EAGAIN) or listener closed by Stop
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(peers_mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      return;
    }
    setup_threads_.emplace_back(
        [this, s = std::make_shared<Socket>(std::move(*sock))]() mutable {
          SetupPeer(std::move(*s));
        });
  }
}

void ChannelServer::SetupPeer(Socket socket) {
  // Bound the first-frame read so a silent client cannot pin this thread
  // (and therefore Stop) indefinitely. Cleared before the event-loop regime,
  // where an idle-but-healthy peer is normal.
  socket.SetRecvTimeout(5000);
  FrameDecoder carry;
  auto first = ReadFrameBlocking(socket, carry);
  if (!first.ok()) {
    SDG_LOG(kWarning) << "connection dropped before its first frame";
    return;
  }
  // The first frame selects the connection's role.
  switch (first->type) {
    case FrameType::kJoin:
      SetupMember(std::move(socket), std::move(carry), *first);
      return;
    case FrameType::kMuxHello:
      SetupMuxPeer(std::move(socket), std::move(carry), *first);
      return;
    case FrameType::kMigrateBegin: {
      auto begin = MigrateBeginMsg::Decode(first->payload);
      if (!begin.ok() || on_migration_ == nullptr) {
        SDG_LOG(kWarning) << "migration session rejected: "
                          << (begin.ok() ? "no handler"
                                         : begin.status().ToString());
        return;
      }
      socket.SetRecvTimeout(0);
      on_migration_(std::move(socket), std::move(carry), *begin);
      return;
    }
    case FrameType::kRequest:
    case FrameType::kReplicaSubscribe:
      SetupServePeer(std::move(socket), std::move(carry), std::move(*first));
      return;
    default:
      SDG_LOG(kWarning) << "connection opened with unexpected frame type "
                        << static_cast<int>(first->type);
      return;
  }
}

void ChannelServer::SetupMember(Socket socket, FrameDecoder carry,
                                const Frame& first) {
  auto join = JoinMsg::Decode(first.payload);
  if (!join.ok()) {
    SDG_LOG(kWarning) << "malformed join: " << join.status().ToString();
    return;
  }
  JoinAckMsg ack;
  if (on_join_ == nullptr) {
    ack.accepted = false;
    ack.message = "this deployment accepts no members";
  } else if (join->protocol != kProtocolVersion) {
    ack.accepted = false;
    ack.message = "protocol version mismatch";
  } else {
    auto id = on_join_(*join);
    if (id.ok()) {
      ack.accepted = true;
      ack.member_id = *id;
    } else {
      ack.accepted = false;
      ack.message = id.status().message();
    }
  }
  if (!ack.accepted) {
    (void)WriteFrameBlocking(socket, FrameType::kJoinAck, ack.Encode());
    return;
  }

  socket.SetRecvTimeout(0);
  auto peer = std::make_shared<Peer>();
  peer->is_member = true;
  peer->member_id = ack.member_id;
  const uint32_t member_id = ack.member_id;
  Connection::Options copts;
  copts.send_queue_frames = kPeerSendQueueFrames;
  copts.loop = loop_;
  // Member frames are control replies and every strong-read reply of the
  // member: handled straight on the loop thread, with no executor hop, so
  // on_member_ must not block. The failure detector only sends on this
  // channel (head -> worker probes), so reply traffic cannot delay it.
  peer->conn = std::make_unique<Connection>(
      std::move(socket), copts,
      [this, member_id](Frame frame) {
        if (on_member_ != nullptr) {
          on_member_(member_id, std::move(frame));
        }
      },
      [](const Status&) {
        // A member restart shows up as a fresh join; reaped on Ack/Stop.
      },
      std::move(carry));
  // Register first, ack second: a member that has read its kJoinAck must
  // already be visible to MemberCount/SendToMember. The ack rides the
  // connection's FIFO send queue under peers_mutex_, so any control frame a
  // concurrent SendToMember enqueues still lands after it on the wire.
  Connection* conn = peer->conn.get();
  std::lock_guard<std::mutex> lock(peers_mutex_);
  if (!running_.load(std::memory_order_acquire)) {
    ClosePeer(*peer);
    return;
  }
  ReapBrokenPeersLocked();
  // A rejoin (same member id, new incarnation) supersedes the old channel.
  for (auto it = peers_.begin(); it != peers_.end();) {
    if ((*it)->is_member && (*it)->member_id == member_id) {
      ClosePeer(**it);
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
  peers_.push_back(std::move(peer));
  (void)conn->SendFrame(FrameType::kJoinAck, 0, ack.Encode());
}

void ChannelServer::SetupMuxPeer(Socket socket, FrameDecoder carry,
                                 const Frame& first) {
  auto hello = MuxHelloMsg::Decode(first.payload);
  MuxHelloAckMsg ack;
  if (!hello.ok()) {
    ack.message = "malformed mux hello";
  } else if (hello->protocol != kProtocolVersion) {
    ack.message = "protocol version mismatch";
  } else {
    ack.accepted = true;
    ack.window = kMuxStreamWindow;
  }
  Status sent =
      WriteFrameBlocking(socket, FrameType::kMuxHelloAck, ack.Encode());
  if (!sent.ok() || !ack.accepted) {
    return;
  }
  socket.SetRecvTimeout(0);
  auto peer = std::make_shared<Peer>();
  peer->is_mux = true;
  Peer* raw = peer.get();
  Connection::Options copts;
  copts.send_queue_frames = kMuxSendQueueFrames;
  copts.loop = loop_;
  std::weak_ptr<Peer> weak = peer;
  peer->conn = std::make_unique<Connection>(
      std::move(socket), copts,
      [this, raw, weak](Frame frame) {
        if (frame.type == FrameType::kMuxOpen) {
          // Opens run on a short-lived dedicated thread, NEVER the shared
          // executor: the opener on the other end may itself be an executor
          // task blocking on the ack, and on a small pool the two would
          // starve each other (the same rule that puts first-frame setup on
          // setup threads). ClosePeer waits these out via
          // mux_opens_inflight; the shared_ptr keeps the peer alive for the
          // thread's tail.
          auto sp = weak.lock();
          if (sp == nullptr) {
            return;
          }
          {
            std::lock_guard<std::mutex> lock(sp->mux_mu);
            ++sp->mux_opens_inflight;
          }
          std::thread([this, sp, f = std::move(frame)]() mutable {
            {
              // SetupMuxPeer may still be between constructing the
              // Connection (which registered with the loop and delivered
              // this very frame) and storing it into sp->conn — wait for
              // the assignment before HandleMuxOpen dereferences it.
              std::unique_lock<std::mutex> lock(sp->mux_mu);
              sp->mux_open_cv.wait(lock, [&] { return sp->mux_conn_ready; });
            }
            HandleMuxOpen(*sp, f);
            std::lock_guard<std::mutex> lock(sp->mux_mu);
            --sp->mux_opens_inflight;
            sp->mux_open_cv.notify_all();
          }).detach();
          return;
        }
        RouteMuxFrame(*raw, std::move(frame));
      },
      [](const Status&) {
        // A broken mux peer (sender restart) is reaped on the next Ack/Stop;
        // the dialer's MuxPool drops it and redials.
      },
      std::move(carry));
  {
    std::lock_guard<std::mutex> lock(peer->mux_mu);
    peer->mux_conn_ready = true;
  }
  peer->mux_open_cv.notify_all();
  std::lock_guard<std::mutex> lock(peers_mutex_);
  if (!running_.load(std::memory_order_acquire)) {
    ClosePeer(*peer);
    return;
  }
  ReapBrokenPeersLocked();
  peers_.push_back(std::move(peer));
}

// Loop thread: every non-open frame of a mux connection lands here and
// routes to its stream's own dispatch entity. Frames for an unknown stream
// are dropped — the sender only transmits after its open-ack, so these are
// stale post-supersede frames that the reopen's watermark replay repairs.
void ChannelServer::RouteMuxFrame(Peer& peer, Frame frame) {
  std::shared_ptr<Peer> stream;
  {
    std::lock_guard<std::mutex> lock(peer.mux_mu);
    auto it = peer.streams.find(frame.stream);
    if (it != peer.streams.end()) {
      stream = it->second;
    }
  }
  if (stream == nullptr) {
    return;
  }
  stream->dispatch->PushFrame(std::move(frame));
}

// Dedicated open thread: validate the open, install the stream, ack.
// Install-before-ack so the loop thread can route the sender's first data
// frame (which cannot leave the client before the ack) to a live entity.
void ChannelServer::HandleMuxOpen(Peer& peer, const Frame& frame) {
  const uint32_t stream_id = frame.stream;
  auto open = MuxOpenMsg::Decode(frame.payload);
  MuxOpenAckMsg ack;
  std::shared_ptr<Peer> stream;
  if (!open.ok()) {
    ack.message = "malformed mux open";
  } else if (on_handshake_ == nullptr) {
    ack.message = "no handshake handler";
  } else {
    Handshake hs;
    hs.deployment_id = open->deployment_id;
    hs.source_task = open->source_task;
    hs.source_instance = open->source_instance;
    hs.entry = open->entry;
    hs.emit_clock = open->emit_clock;
    auto watermark = on_handshake_(hs);
    if (watermark.ok()) {
      ack.accepted = true;
      ack.acked_ts = *watermark;
      stream = std::make_shared<Peer>();
      stream->handshake = std::move(hs);
    } else {
      ack.message = std::string(watermark.status().message());
    }
  }
  if (stream != nullptr) {
    ack.window = kMuxStreamWindow;
    Peer* raw_stream = stream.get();
    Connection* conn = peer.conn.get();
    constexpr uint32_t kGrantAt = kMuxStreamWindow / 2;
    // Credit grants ride the consumed-frames hook: once the entity has
    // dispatched half a window, hand the credits back. Blocking send — a
    // lost grant would wedge the sender for good (unlike a lost ack, which
    // the next open's watermark repairs).
    auto grant = [raw_stream, conn, stream_id](size_t n) {
      raw_stream->mux_consumed += static_cast<uint32_t>(n);
      if (raw_stream->mux_consumed >= kGrantAt) {
        MuxWindowMsg msg;
        msg.credits = raw_stream->mux_consumed;
        raw_stream->mux_consumed = 0;
        (void)conn->SendFrame(FrameType::kMuxWindow, stream_id, msg.Encode());
      }
    };
    stream->dispatch = std::make_unique<PeerDispatch>(
        this, raw_stream, executor_, /*wire_pause=*/false, std::move(grant));
    std::lock_guard<std::mutex> lock(peer.mux_mu);
    // A reopened channel identity (migration flip, sender-side redial on the
    // same socket) supersedes the old stream: stop routing to it, but keep
    // it alive until ClosePeer for in-flight slices.
    for (auto it = peer.streams.begin(); it != peer.streams.end();) {
      const Handshake& old = it->second->handshake;
      if (old.source_task == stream->handshake.source_task &&
          old.source_instance == stream->handshake.source_instance &&
          old.entry == stream->handshake.entry) {
        peer.retired_streams.push_back(std::move(it->second));
        it = peer.streams.erase(it);
      } else {
        ++it;
      }
    }
    peer.streams[stream_id] = std::move(stream);
  }
  (void)peer.conn->SendFrame(FrameType::kMuxOpenAck, stream_id, ack.Encode());
}

void ChannelServer::SetupServePeer(Socket socket, FrameDecoder carry,
                                   Frame first) {
  auto peer = std::make_shared<Peer>();
  if (first.type == FrameType::kRequest) {
    peer->is_client = true;
    peer->client_id = next_client_id_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto sub = ReplicaSubscribeMsg::Decode(first.payload);
    if (!sub.ok()) {
      SDG_LOG(kWarning) << "malformed replica subscribe: "
                        << sub.status().ToString();
      return;
    }
    if (sub->protocol != kProtocolVersion) {
      SDG_LOG(kWarning) << "replica subscribe protocol mismatch";
      return;
    }
    peer->is_feed = true;
    peer->subscribe = std::move(*sub);
  }
  socket.SetRecvTimeout(0);
  Connection::Options copts;
  copts.loop = loop_;
  // Responses are tiny and clients pipeline: a deep send queue makes the
  // non-blocking response path lossless for any sane pipeline depth while
  // still bounding what a never-reading client can pin.
  copts.send_queue_frames =
      peer->is_client ? kClientSendQueueFrames : kPeerSendQueueFrames;
  peer->dispatch = std::make_unique<PeerDispatch>(this, peer.get(), executor_);
  PeerDispatch* dispatch = peer->dispatch.get();
  // Held until the peer is installed in peers_: a handler running off the
  // first request would respond via SendToClient, which scans peers_ —
  // dispatching before installation silently drops that response.
  dispatch->Hold();
  // The first request must keep wire order with whatever the carry decoder
  // already buffered, so it goes through the dispatch before the Connection
  // starts feeding it.
  if (peer->is_client) {
    dispatch->PushFrame(std::move(first));
  }
  peer->conn = std::make_unique<Connection>(
      std::move(socket), copts,
      [dispatch](Frame frame) { dispatch->PushFrame(std::move(frame)); },
      [](const Status&) {
        // Client/feed churn is routine; reaped on the next send/Stop.
      },
      std::move(carry));
  dispatch->SetConnection(peer->conn.get());
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      ClosePeer(*peer);
      return;
    }
    ReapBrokenPeersLocked();
    peers_.push_back(peer);
  }
  // Outside peers_mutex_: the released slice may call straight back into
  // SendToClient.
  dispatch->Release();
}

void ChannelServer::ClosePeer(Peer& peer) {
  if (peer.conn != nullptr) {
    peer.conn->Close();  // deregisters: no further PushFrame after this
  }
  if (peer.dispatch != nullptr) {
    peer.dispatch->Drain();
  }
  if (peer.is_mux) {
    std::vector<std::shared_ptr<Peer>> streams;
    {
      // In-flight open handlers (dedicated threads) finish before the stream
      // sweep: they insert into `streams` and use this ChannelServer, so
      // Stop must not return from under them.
      std::unique_lock<std::mutex> lock(peer.mux_mu);
      peer.mux_open_cv.wait(lock,
                            [&] { return peer.mux_opens_inflight == 0; });
      for (auto& [id, stream] : peer.streams) {
        streams.push_back(std::move(stream));
      }
      peer.streams.clear();
      for (auto& stream : peer.retired_streams) {
        streams.push_back(std::move(stream));
      }
      peer.retired_streams.clear();
    }
    for (auto& stream : streams) {
      if (stream->dispatch != nullptr) {
        stream->dispatch->Drain();
      }
    }
  }
}

void ChannelServer::ReapBrokenPeersLocked() {
  for (auto it = peers_.begin(); it != peers_.end();) {
    if ((*it)->conn->broken()) {
      ClosePeer(**it);
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChannelServer::AckStreams(
    const std::function<std::optional<uint64_t>(const Handshake&)>&
        watermark_of) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  ReapBrokenPeersLocked();
  for (auto& peer : peers_) {
    if (!peer->is_mux) {
      continue;
    }
    // Coalesce: one frame carries every matching stream's watermark.
    MuxAckBatchMsg batch;
    {
      std::lock_guard<std::mutex> mux_lock(peer->mux_mu);
      for (auto& [id, stream] : peer->streams) {
        if (auto watermark = watermark_of(stream->handshake)) {
          batch.entries.push_back({id, *watermark});
        }
      }
    }
    if (!batch.entries.empty()) {
      // Best-effort: a dropped ack is repaired by the watermark in the next
      // open-ack, so never block the checkpoint path on a wedged peer.
      (void)peer->conn->TrySendFrame(FrameType::kMuxAckBatch, 0,
                                     batch.Encode());
    }
  }
}

void ChannelServer::Ack(uint64_t watermark) {
  AckStreams([watermark](const Handshake&) -> std::optional<uint64_t> {
    return watermark;
  });
}

void ChannelServer::AckSource(uint32_t source_task, uint32_t source_instance,
                              uint64_t watermark) {
  AckSources({{source_task, source_instance, watermark}});
}

void ChannelServer::AckSources(const std::vector<SourceAck>& acks) {
  if (acks.empty()) {
    return;
  }
  AckStreams([&acks](const Handshake& hs) -> std::optional<uint64_t> {
    for (const auto& ack : acks) {
      if (hs.source_task == ack.source_task &&
          hs.source_instance == ack.source_instance) {
        return ack.watermark;
      }
    }
    return std::nullopt;
  });
}

bool ChannelServer::SendToMember(uint32_t member_id, FrameType type,
                                 const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  ReapBrokenPeersLocked();
  for (auto& peer : peers_) {
    if (peer->is_member && peer->member_id == member_id) {
      return peer->conn->TrySendFrame(type, 0, payload);
    }
  }
  return false;
}

void ChannelServer::SetServeHandlers(RequestFn on_request, FeedFn on_feed) {
  auto handlers = std::make_shared<ServeHandlers>();
  handlers->on_request = std::move(on_request);
  handlers->on_feed = std::move(on_feed);
  std::lock_guard<std::mutex> lock(serve_mutex_);
  serve_ = std::move(handlers);
}

bool ChannelServer::SendToClient(uint64_t client_id, ResponseBatch batch) {
  if (batch.empty()) {
    return true;
  }
  const size_t count = batch.count();
  std::lock_guard<std::mutex> lock(peers_mutex_);
  for (auto& peer : peers_) {
    if (peer->is_client && peer->client_id == client_id) {
      // Non-blocking: a client that stops reading sheds its own responses
      // rather than wedging the flusher for everyone else.
      return peer->conn->TrySendFrames(std::move(batch).TakeBytes(), count);
    }
  }
  return false;
}

size_t ChannelServer::MemberCount() {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  ReapBrokenPeersLocked();
  size_t n = 0;
  for (auto& peer : peers_) {
    if (peer->is_member) {
      ++n;
    }
  }
  return n;
}

void ChannelServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (loop_ != nullptr) {
    loop_->Deregister(listener_.fd());  // waits out an in-flight accept burst
  }
  listener_.Close();
  std::vector<std::thread> setups;
  std::list<std::shared_ptr<Peer>> peers;
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    setups.swap(setup_threads_);
    peers.swap(peers_);
  }
  for (auto& peer : peers) {
    ClosePeer(*peer);
  }
  for (auto& t : setups) {
    if (t.joinable()) {
      t.join();
    }
  }
}

}  // namespace sdg::net
