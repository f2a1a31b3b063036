#include "src/net/channel_server.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace sdg::net {

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
  // Frames already handed over are still dispatched (parity with the
  // threaded reader, which delivers what it decoded before the socket cut);
  // anything beyond that is unacked and will be replayed by the sender.
  AwaitIdle();
}

// ---------------------------------------------------------------------------
// ChannelServer

std::shared_ptr<const ChannelServer::ServeHandlers>
ChannelServer::ServeSnapshot() {
  std::lock_guard<std::mutex> lock(serve_mutex_);
  return serve_;
}

// One dispatch slice for any peer kind. Runs on the peer's dispatch entity
// (event-loop mode) or reader thread (threaded mode) — never the epoll loop.
void ChannelServer::DispatchPeerFrames(Peer& peer, std::vector<Frame> frames) {
  if (peer.is_mux) {
    // Mux parent frames never reach here: kMuxOpen is handled on a dedicated
    // thread (see SetupMuxPeer) and everything else routes to a stream.
    return;
  }
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
      if (peer.conn != nullptr) {
        peer.conn->Abort(UnavailableError("no serve handler installed"));
      }
      return;
    }
    serve->on_request(peer.client_id, std::move(reqs));
    return;
  }
  for (Frame& frame : frames) {
    if (peer.is_member) {
      // A mux reply stream: kResponse (etc.) frames take the member-frame
      // route — same handler as the control channel, different wire.
      if (on_member_ != nullptr) {
        on_member_(peer.member_id, std::move(frame));
      }
      continue;
    }
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
        if (peer.conn != nullptr) {
          peer.conn->Abort(UnavailableError("no serve handler installed"));
        }
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

void ChannelServer::DispatchPeerFrame(Peer& peer, Frame frame) {
  std::vector<Frame> one;
  one.push_back(std::move(frame));
  DispatchPeerFrames(peer, std::move(one));
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
  if (options_.mode == NetMode::kEventLoop) {
    executor_ = options_.executor != nullptr ? options_.executor
                                             : runtime::Executor::Shared();
    loop_ = options_.loop != nullptr ? options_.loop : EventLoop::Shared();
    SDG_RETURN_IF_ERROR(listener_.SetNonBlocking(true));
    SDG_RETURN_IF_ERROR(loop_->Register(listener_.fd(), this,
                                        /*want_read=*/true,
                                        /*want_write=*/false));
  } else {
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }
  return Status::Ok();
}

// Listener readiness (event-loop mode, loop thread): accept everything
// pending, then hand each handshake to a short-lived setup thread. The
// handshake is deliberately NOT an executor task: it blocks waiting on the
// client, and the client side of a reconnect may itself be an executor task
// blocked waiting on this ack — on a small pool that is a circular wait.
// Setup threads exist only during connection churn, so the steady-state
// thread count stays O(pool size).
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

void ChannelServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto sock = listener_.Accept();
    if (!sock.ok()) {
      return;  // listener closed (Stop) or fatal accept error
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // Handshakes run off the acceptor so one slow client cannot delay the
    // next accept.
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
  // Bound the handshake so a silent client cannot pin this thread (and
  // therefore Stop) indefinitely. Cleared before the data-path regime, where
  // an idle-but-healthy peer is normal.
  socket.SetRecvTimeout(5000);
  FrameDecoder carry;
  auto first = ReadFrameBlocking(socket, carry);
  if (!first.ok()) {
    SDG_LOG(kWarning) << "connection dropped before handshake";
    return;
  }
  // The first frame selects the connection's role: a data handshake (the
  // historical path), a membership join, or an inbound migration session.
  if (first->type == FrameType::kJoin) {
    SetupMember(std::move(socket), std::move(carry), *first);
    return;
  }
  if (first->type == FrameType::kMuxHello) {
    SetupMuxPeer(std::move(socket), std::move(carry), *first);
    return;
  }
  if (first->type == FrameType::kMigrateBegin) {
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
  if (first->type == FrameType::kRequest ||
      first->type == FrameType::kReplicaSubscribe) {
    SetupServePeer(std::move(socket), std::move(carry), std::move(*first));
    return;
  }
  if (first->type != FrameType::kHandshake) {
    SDG_LOG(kWarning) << "connection opened with unexpected frame type "
                      << static_cast<int>(first->type);
    return;
  }
  auto hs = Handshake::Decode(first->payload);
  if (!hs.ok()) {
    SDG_LOG(kWarning) << "malformed handshake: " << hs.status().ToString();
    return;
  }

  HandshakeAck ack;
  if (hs->protocol != kProtocolVersion) {
    ack.accepted = false;
    ack.message = "protocol version mismatch";
  } else {
    auto watermark = on_handshake_(*hs);
    if (watermark.ok()) {
      ack.accepted = true;
      ack.acked_ts = *watermark;
    } else {
      ack.accepted = false;
      ack.message = watermark.status().message();
    }
  }
  Status sent = WriteFrameBlocking(socket, FrameType::kHandshakeAck,
                                   ack.Encode());
  if (!sent.ok() || !ack.accepted) {
    return;
  }

  socket.SetRecvTimeout(0);
  auto peer = std::make_shared<Peer>();
  peer->handshake = std::move(*hs);
  Peer* raw = peer.get();
  Connection::Options copts;
  copts.send_queue_frames = options_.send_queue_frames;
  if (options_.mode == NetMode::kEventLoop) {
    peer->dispatch = std::make_unique<PeerDispatch>(this, raw, executor_);
    PeerDispatch* dispatch = peer->dispatch.get();
    copts.loop = loop_;
    peer->conn = std::make_unique<Connection>(
        std::move(socket), copts,
        [dispatch](Frame frame) { dispatch->PushFrame(std::move(frame)); },
        [](const Status&) {
          // A broken inbound connection is routine (sender failover or
          // restart); the peer is reaped on the next Ack/Stop.
        },
        std::move(carry));
    dispatch->SetConnection(peer->conn.get());
  } else {
    peer->conn = std::make_unique<Connection>(
        std::move(socket), copts,
        [this, raw](Frame frame) {
          DispatchPeerFrame(*raw, std::move(frame));
        },
        [](const Status&) {
          // Reaped on the next Ack/Stop, as above.
        },
        std::move(carry));
  }
  std::lock_guard<std::mutex> lock(peers_mutex_);
  if (!running_.load(std::memory_order_acquire)) {
    ClosePeer(*peer);  // raced with Stop — do not install
    return;
  }
  ReapBrokenPeersLocked();
  peers_.push_back(std::move(peer));
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
  copts.send_queue_frames = options_.send_queue_frames;
  if (options_.mode == NetMode::kEventLoop) {
    copts.loop = loop_;
  }
  // Member frames are control replies — rare and small — so both modes route
  // them straight from the IO thread; on_member_ must not block.
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
  BinaryWriter frame;
  const std::vector<uint8_t> payload = ack.Encode();
  EncodeFrame(frame, FrameType::kJoinAck, payload.data(), payload.size());
  (void)conn->Send(frame.buffer());
}

void ChannelServer::SetupMuxPeer(Socket socket, FrameDecoder carry,
                                 const Frame& first) {
  auto hello = MuxHelloMsg::Decode(first.payload);
  MuxHelloAckMsg ack;
  if (!hello.ok()) {
    ack.message = "malformed mux hello";
  } else if (hello->protocol != kProtocolVersionMux) {
    ack.message = "protocol version mismatch";
  } else if (options_.mode != NetMode::kEventLoop) {
    ack.message = "mux requires event-loop mode";
  } else {
    ack.accepted = true;
    ack.window = options_.mux_stream_window;
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
  // Many streams share this socket's staging buffer; fairness comes from the
  // per-stream credit windows, not this bound.
  copts.send_queue_frames = std::max<size_t>(options_.send_queue_frames, 256);
  copts.loop = loop_;
  copts.mux_frames = true;
  std::weak_ptr<Peer> weak = peer;
  peer->conn = std::make_unique<Connection>(
      std::move(socket), copts,
      [this, raw, weak](Frame frame) {
        if (frame.type == FrameType::kMuxOpen) {
          // Opens run on a short-lived dedicated thread, NEVER the shared
          // executor: the opener on the other end may itself be an executor
          // task blocking on the ack, and on a small pool the two would
          // starve each other (the same rule that puts per-channel
          // handshakes on setup threads). ClosePeer waits these out via
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
  } else if (open->kind == kMuxStreamData) {
    Handshake hs;
    hs.deployment_id = open->deployment_id;
    hs.source_task = open->source_task;
    hs.source_instance = open->source_instance;
    hs.entry = open->entry;
    hs.emit_clock = open->emit_clock;
    if (on_handshake_ == nullptr) {
      ack.message = "no handshake handler";
    } else {
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
  } else if (open->kind == kMuxStreamReply) {
    if (on_member_ == nullptr) {
      ack.message = "no member-frame handler";
    } else {
      ack.accepted = true;
      stream = std::make_shared<Peer>();
      stream->is_member = true;
      stream->member_id = open->member_id;
    }
  } else {
    ack.message = "unknown stream kind";
  }
  if (stream != nullptr) {
    ack.window = options_.mux_stream_window;
    stream->mux_stream = stream_id;
    Peer* raw_stream = stream.get();
    Connection* conn = peer.conn.get();
    const uint32_t grant_at =
        std::max<uint32_t>(1, options_.mux_stream_window / 2);
    // Credit grants ride the consumed-frames hook: once the entity has
    // dispatched half a window, hand the credits back. Blocking send — a
    // lost grant would wedge the sender for good (unlike a lost ack, which
    // the next open's watermark repairs).
    auto grant = [raw_stream, conn, stream_id, grant_at](size_t n) {
      raw_stream->mux_consumed += static_cast<uint32_t>(n);
      if (raw_stream->mux_consumed >= grant_at) {
        MuxWindowMsg msg;
        msg.credits = raw_stream->mux_consumed;
        raw_stream->mux_consumed = 0;
        (void)conn->SendFrame(FrameType::kMuxWindow, stream_id, msg.Encode());
      }
    };
    stream->dispatch = std::make_unique<PeerDispatch>(
        this, raw_stream, executor_, /*wire_pause=*/false, std::move(grant));
    std::lock_guard<std::mutex> lock(peer.mux_mu);
    if (stream->is_member == false) {
      // A reopened channel identity (migration flip, sender-side redial on
      // the same socket) supersedes the old stream: stop routing to it, but
      // keep it alive until ClosePeer for in-flight slices.
      for (auto it = peer.streams.begin(); it != peer.streams.end();) {
        const auto& old = *it->second;
        if (!old.is_member &&
            old.handshake.source_task == stream->handshake.source_task &&
            old.handshake.source_instance ==
                stream->handshake.source_instance &&
            old.handshake.entry == stream->handshake.entry) {
          peer.retired_streams.push_back(std::move(it->second));
          it = peer.streams.erase(it);
        } else {
          ++it;
        }
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
  Peer* raw = peer.get();
  Connection::Options copts;
  copts.send_queue_frames = options_.send_queue_frames;
  if (peer->is_client) {
    // Responses are tiny and clients pipeline: a deep send queue makes the
    // non-blocking response path lossless for any sane pipeline depth while
    // still bounding what a never-reading client can pin.
    copts.send_queue_frames =
        std::max<size_t>(options_.send_queue_frames, 16384);
  }
  PeerDispatch* dispatch = nullptr;
  bool dispatch_first_after_install = false;
  if (options_.mode == NetMode::kEventLoop) {
    peer->dispatch = std::make_unique<PeerDispatch>(this, raw, executor_);
    dispatch = peer->dispatch.get();
    // Held until the peer is installed in peers_: a handler running off the
    // first request would respond via SendToClient, which scans peers_ —
    // dispatching before installation silently drops that response.
    dispatch->Hold();
    // The first request must keep wire order with whatever the carry decoder
    // already buffered, so it goes through the dispatch before the
    // Connection starts feeding it.
    if (peer->is_client) {
      dispatch->PushFrame(std::move(first));
    }
    copts.loop = loop_;
    peer->conn = std::make_unique<Connection>(
        std::move(socket), copts,
        [dispatch](Frame frame) { dispatch->PushFrame(std::move(frame)); },
        [](const Status&) {
          // Client/feed churn is routine; reaped on the next send/Stop.
        },
        std::move(carry));
    dispatch->SetConnection(peer->conn.get());
  } else {
    // Threaded mode has no dispatch queue to hold, so the first request is
    // dispatched after installation instead. A client awaits the response to
    // its first request before pipelining (Connect is not acked otherwise),
    // so the reader thread has nothing to reorder in front of it.
    dispatch_first_after_install = peer->is_client;
    peer->conn = std::make_unique<Connection>(
        std::move(socket), copts,
        [this, raw](Frame frame) {
          DispatchPeerFrame(*raw, std::move(frame));
        },
        [](const Status&) {},
        std::move(carry));
  }
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      ClosePeer(*peer);
      return;
    }
    ReapBrokenPeersLocked();
    peers_.push_back(peer);
  }
  // Outside peers_mutex_: the released slice (or the inline dispatch) may
  // call straight back into SendToClient.
  if (dispatch != nullptr) {
    dispatch->Release();
  }
  if (dispatch_first_after_install) {
    DispatchPeerFrame(*raw, std::move(first));
  }
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

void ChannelServer::Ack(uint64_t watermark) {
  AckMsg msg;
  msg.acked_ts = watermark;
  auto payload = msg.Encode();
  BinaryWriter frame;
  EncodeFrame(frame, FrameType::kAck, payload.data(), payload.size());
  const std::vector<uint8_t>& bytes = frame.buffer();
  std::lock_guard<std::mutex> lock(peers_mutex_);
  ReapBrokenPeersLocked();
  for (auto& peer : peers_) {
    if (peer->is_member) {
      continue;
    }
    if (peer->is_mux) {
      // Coalesce: one frame carries every data stream's watermark.
      MuxAckBatchMsg batch;
      {
        std::lock_guard<std::mutex> mux_lock(peer->mux_mu);
        for (auto& [id, stream] : peer->streams) {
          if (!stream->is_member) {
            batch.entries.push_back({id, watermark});
          }
        }
      }
      if (!batch.entries.empty()) {
        (void)peer->conn->TrySendFrame(FrameType::kMuxAckBatch, 0,
                                       batch.Encode());
      }
      continue;
    }
    // Best-effort: a dropped ack is repaired by the watermark in the next
    // handshake, so never block the checkpoint path on a wedged peer.
    (void)peer->conn->TrySend(bytes);
  }
}

void ChannelServer::AckSource(uint32_t source_task, uint32_t source_instance,
                              uint64_t watermark) {
  AckSources({{source_task, source_instance, watermark}});
}

void ChannelServer::AckSources(const std::vector<SourceAck>& acks) {
  if (acks.empty()) {
    return;
  }
  // Pre-encode one kAck frame per source for the per-channel peers.
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(acks.size());
  for (const auto& ack : acks) {
    AckMsg msg;
    msg.acked_ts = ack.watermark;
    auto payload = msg.Encode();
    BinaryWriter frame;
    EncodeFrame(frame, FrameType::kAck, payload.data(), payload.size());
    frames.push_back(frame.buffer());
  }
  std::lock_guard<std::mutex> lock(peers_mutex_);
  ReapBrokenPeersLocked();
  for (auto& peer : peers_) {
    if (peer->is_member) {
      continue;
    }
    if (peer->is_mux) {
      // One coalesced frame per peer: every stream matching any acked
      // source gets its watermark in the same kMuxAckBatch.
      MuxAckBatchMsg batch;
      {
        std::lock_guard<std::mutex> mux_lock(peer->mux_mu);
        for (auto& [id, stream] : peer->streams) {
          if (stream->is_member) {
            continue;
          }
          for (const auto& ack : acks) {
            if (stream->handshake.source_task == ack.source_task &&
                stream->handshake.source_instance == ack.source_instance) {
              batch.entries.push_back({id, ack.watermark});
              break;
            }
          }
        }
      }
      if (!batch.entries.empty()) {
        (void)peer->conn->TrySendFrame(FrameType::kMuxAckBatch, 0,
                                       batch.Encode());
      }
      continue;
    }
    for (size_t i = 0; i < acks.size(); ++i) {
      if (peer->handshake.source_task == acks[i].source_task &&
          peer->handshake.source_instance == acks[i].source_instance) {
        (void)peer->conn->TrySend(frames[i]);
        break;  // a channel carries exactly one source
      }
    }
  }
}

bool ChannelServer::SendToMember(uint32_t member_id, FrameType type,
                                 const std::vector<uint8_t>& payload) {
  BinaryWriter frame;
  EncodeFrame(frame, type, payload.data(), payload.size());
  const std::vector<uint8_t>& bytes = frame.buffer();
  std::lock_guard<std::mutex> lock(peers_mutex_);
  ReapBrokenPeersLocked();
  for (auto& peer : peers_) {
    if (peer->is_member && peer->member_id == member_id) {
      return peer->conn->TrySend(bytes);
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
  if (options_.mode == NetMode::kEventLoop && loop_ != nullptr) {
    loop_->Deregister(listener_.fd());  // waits out an in-flight accept burst
  }
  listener_.Close();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
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
