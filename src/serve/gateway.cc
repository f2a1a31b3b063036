#include "src/serve/gateway.h"

#include <iterator>
#include <string>
#include <utility>

#include "src/common/value.h"

namespace sdg::serve {

// Answers coalesced per client: everything one dispatch slice or one flushed
// batch has to tell a client leaves as one framed write.
class ServeGateway::Replies {
 public:
  void Add(uint64_t client_id, uint64_t request_id, uint8_t code,
           std::string value = {}) {
    net::ResponseMsg resp;
    resp.request_id = request_id;
    resp.code = code;
    resp.value = std::move(value);
    Add(client_id, resp);
  }

  void Add(uint64_t client_id, const net::ResponseMsg& resp) {
    for (auto& [id, batch] : by_client_) {
      if (id == client_id) {
        batch.Add(resp);
        return;
      }
    }
    by_client_.emplace_back(client_id, net::ResponseBatch()).second.Add(resp);
  }

  void Send(net::ChannelServer* server) {
    for (auto& [id, batch] : by_client_) {
      // Non-blocking: a client too slow to read its socket sheds its own
      // responses rather than blocking the gateway.
      (void)server->SendToClient(id, std::move(batch));
    }
    by_client_.clear();
  }

 private:
  std::vector<std::pair<uint64_t, net::ResponseBatch>> by_client_;
};

ServeGateway::ServeGateway(elastic::ElasticHead* head, GatewayOptions options)
    : head_(head),
      options_(options),
      admission_(options.admission),
      replicas_(options.partitions) {}

ServeGateway::~ServeGateway() { Stop(); }

Status ServeGateway::Start() {
  if (head_ == nullptr || head_->server() == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "head not started");
  }
  running_.store(true, std::memory_order_release);
  head_->server()->SetServeHandlers(
      [this](uint64_t client_id, std::vector<net::RequestMsg> reqs) {
        OnRequests(client_id, std::move(reqs));
      },
      [this](const net::ReplicaSubscribeMsg& sub, net::ReplicaEpochMsg msg) {
        (void)sub;
        replicas_.OnEpoch(msg);
      });
  head_->SetResponseHandler([this](uint32_t member_id, net::ResponseMsg msg) {
    OnResponse(member_id, std::move(msg));
  });
  flusher_ = std::thread([this] { FlushLoop(); });
  return Status::Ok();
}

void ServeGateway::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  if (head_ != nullptr) {
    if (head_->server() != nullptr) {
      head_->server()->SetServeHandlers(nullptr, nullptr);
    }
    head_->SetResponseHandler(nullptr);
  }
  queue_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
}

void ServeGateway::OnRequests(uint64_t client_id,
                              std::vector<net::RequestMsg> reqs) {
  // Dispatch-executor thread: decide, answer, or enqueue — never block.
  // Admission sees queueing only: requests waiting for a flush, strong gets
  // waiting for their owner, and the owners' mailbox depth.
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queued = queue_.size();
  }
  size_t waiting_gets;
  {
    std::lock_guard<std::mutex> lock(gets_mutex_);
    waiting_gets = pending_gets_.size();
  }
  const uint64_t downstream = waiting_gets + replicas_.owner_queue_depth();
  Replies replies;
  std::vector<Pending> admitted;
  for (net::RequestMsg& req : reqs) {
    if (req.op == net::kOpPing) {
      replies.Add(client_id, req.request_id, net::kRespOk);
      continue;
    }
    admission_.Observe(queued + admitted.size() + downstream);
    if (!admission_.Admit()) {
      replies.Add(client_id, req.request_id, net::kRespOverloaded);
      continue;
    }
    if (req.op == net::kOpGet && (req.flags & net::kReadStale) != 0) {
      StaleReadResult r = replicas_.TryGet(req.key, req.max_epoch_lag);
      if (r.admissible) {
        replica_hits_.fetch_add(1, std::memory_order_relaxed);
        net::ResponseMsg resp;
        resp.request_id = req.request_id;
        resp.flags = net::kRespFromReplica;
        resp.value = r.found ? std::move(r.value) : std::string();
        resp.epoch = r.epoch;
        replies.Add(client_id, resp);
        continue;
      }
      replica_misses_.fetch_add(1, std::memory_order_relaxed);
      // Fall through to the strong path.
    }
    admitted.push_back(Pending{client_id, std::move(req)});
  }
  if (!admitted.empty()) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      was_empty = queue_.empty();
      queue_.insert(queue_.end(), std::make_move_iterator(admitted.begin()),
                    std::make_move_iterator(admitted.end()));
    }
    // The flusher only sleeps on an empty queue.
    if (was_empty) {
      queue_cv_.notify_one();
    }
  }
  replies.Send(head_->server());
}

void ServeGateway::FlushLoop() {
  auto last_sweep = std::chrono::steady_clock::now();
  // Swapped with queue_ on every flush, so the two buffers trade places and
  // keep their capacity.
  std::vector<Pending> batch;
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(10), [this] {
        return !queue_.empty() || !running_.load(std::memory_order_acquire);
      });
      if (!running_.load(std::memory_order_acquire)) {
        break;
      }
      // Group commit: take everything queued and never wait for more. What
      // piles up while this batch is in flight forms the next one, so a slow
      // downstream grows batches instead of shrinking them.
      if (queue_.size() <= kMaxFlushBatch) {
        batch.swap(queue_);
      } else {
        auto end = queue_.begin() + kMaxFlushBatch;
        batch.assign(std::make_move_iterator(queue_.begin()),
                     std::make_move_iterator(end));
        queue_.erase(queue_.begin(), end);
      }
    }
    if (!batch.empty()) {
      FlushBatch(batch);
      batch.clear();
    }
    auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(50)) {
      last_sweep = now;
      SweepTimeouts();
    }
  }
}

void ServeGateway::FlushBatch(std::vector<Pending>& batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  Replies replies;
  // Requests the head's log has no room for are refused before they touch
  // any state. This flusher is the log's only producer, so the bound holds.
  const size_t logged = head_->UnackedTotal();
  const size_t room = logged < kMaxHeadLog ? kMaxHeadLog - logged : 0;
  std::vector<elastic::ElasticHead::TaggedTuple> puts;
  std::vector<elastic::ElasticHead::TaggedTuple> gets;
  std::vector<elastic::ElasticHead::TaggedTuple> dels;
  // Index into `batch` of each injected request, for its reply.
  std::vector<size_t> put_idx;
  std::vector<size_t> get_idx;
  std::vector<size_t> del_idx;
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (i >= room) {
      admission_.Refuse();
      replies.Add(p.client_id, p.req.request_id, net::kRespOverloaded);
      continue;
    }
    switch (p.req.op) {
      case net::kOpPut:
        puts.push_back(
            {Tuple{Value(p.req.key), Value(std::move(p.req.value))}, 0});
        put_idx.push_back(i);
        break;
      case net::kOpDel:
        dels.push_back({Tuple{Value(p.req.key)}, 0});
        del_idx.push_back(i);
        break;
      case net::kOpGet:
        gets.push_back({Tuple{Value(p.req.key)},
                        next_tag_.fetch_add(1, std::memory_order_relaxed)});
        get_idx.push_back(i);
        break;
      default:
        errors_.fetch_add(1, std::memory_order_relaxed);
        replies.Add(p.client_id, p.req.request_id, net::kRespError, "bad op");
        break;
    }
  }
  // Writes are acked once the head has logged them.
  auto inject_writes = [&](uint32_t entry,
                           std::vector<elastic::ElasticHead::TaggedTuple> tuples,
                           const std::vector<size_t>& idx,
                           std::atomic<uint64_t>& counter) {
    if (tuples.empty()) {
      return;
    }
    Status st =
        head_->InjectBatch(entry, std::move(tuples), options_.inject_deadline_ms);
    if (st.ok()) {
      counter.fetch_add(idx.size(), std::memory_order_relaxed);
    } else {
      errors_.fetch_add(idx.size(), std::memory_order_relaxed);
    }
    for (size_t i : idx) {
      const Pending& p = batch[i];
      if (st.ok()) {
        replies.Add(p.client_id, p.req.request_id, net::kRespOk);
      } else {
        replies.Add(p.client_id, p.req.request_id, net::kRespError,
                    st.ToString());
      }
    }
  };
  inject_writes(kEntryPut, std::move(puts), put_idx, puts_);
  inject_writes(kEntryDel, std::move(dels), del_idx, dels_);
  if (!gets.empty()) {
    // Registered before injection: the answer may beat InjectBatch back.
    std::vector<uint64_t> tags;
    tags.reserve(gets.size());
    {
      auto now = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lock(gets_mutex_);
      for (size_t k = 0; k < gets.size(); ++k) {
        const Pending& p = batch[get_idx[k]];
        pending_gets_[gets[k].tag] =
            PendingGet{p.client_id, p.req.request_id, now};
        tags.push_back(gets[k].tag);
      }
    }
    Status st = head_->InjectBatch(kEntryGet, std::move(gets),
                                   options_.inject_deadline_ms);
    if (!st.ok()) {
      // The gets never reached an owner: fail them now instead of waiting
      // for the sweep.
      std::lock_guard<std::mutex> lock(gets_mutex_);
      for (uint64_t tag : tags) {
        auto it = pending_gets_.find(tag);
        if (it == pending_gets_.end()) {
          continue;
        }
        errors_.fetch_add(1, std::memory_order_relaxed);
        replies.Add(it->second.client_id, it->second.client_request_id,
                    net::kRespError, st.ToString());
        pending_gets_.erase(it);
      }
    }
  }
  replies.Send(head_->server());
}

void ServeGateway::OnResponse(uint32_t member_id, net::ResponseMsg msg) {
  // Reply-stream dispatch: map the internal tag back to the waiting client.
  (void)member_id;
  PendingGet get;
  {
    std::lock_guard<std::mutex> lock(gets_mutex_);
    auto it = pending_gets_.find(msg.request_id);
    if (it == pending_gets_.end()) {
      return;  // timed out / duplicate after worker replay
    }
    get = it->second;
    pending_gets_.erase(it);
  }
  strong_gets_.fetch_add(1, std::memory_order_relaxed);
  msg.request_id = get.client_request_id;
  msg.flags = 0;
  Replies replies;
  replies.Add(get.client_id, msg);
  replies.Send(head_->server());
}

void ServeGateway::SweepTimeouts() {
  Replies replies;
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::milliseconds(options_.request_timeout_ms);
  {
    std::lock_guard<std::mutex> lock(gets_mutex_);
    for (auto it = pending_gets_.begin(); it != pending_gets_.end();) {
      if (now - it->second.injected >= limit) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        replies.Add(it->second.client_id, it->second.client_request_id,
                    net::kRespError, "timeout");
        it = pending_gets_.erase(it);
      } else {
        ++it;
      }
    }
  }
  replies.Send(head_->server());
}

ServeGateway::Stats ServeGateway::stats() const {
  Stats s;
  s.accepted = admission_.accepted();
  s.shed = admission_.shed();
  s.puts = puts_.load(std::memory_order_relaxed);
  s.dels = dels_.load(std::memory_order_relaxed);
  s.strong_gets = strong_gets_.load(std::memory_order_relaxed);
  s.replica_hits = replica_hits_.load(std::memory_order_relaxed);
  s.replica_misses = replica_misses_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.shedding = admission_.shedding();
  s.replica_epochs_applied = replicas_.epochs_applied();
  return s;
}

}  // namespace sdg::serve
