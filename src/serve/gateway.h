// ServeGateway: the client-facing front door of a serving KV fleet.
//
// Layers a request/response protocol onto the ElasticHead's existing
// membership port: clients connect with kRequest frames (the ChannelServer
// classifies them by first frame), workers' replica feeds arrive as
// kReplicaSubscribe/kReplicaEpoch, and strong-read replies ride the workers'
// membership control channels back as kResponse frames. The hot path is
// load-proportional:
//
//   * group commit: each flush injects everything queued (up to
//     kMaxFlushBatch) and never waits for more, so a slow downstream grows
//     the next batch instead of shrinking it;
//   * AdmissionController sheds with kOverloaded once queueing — the pending
//     queue + outstanding strong gets + the owners' mailbox depth — crosses
//     the high-water mark (hysteresis down to the low-water mark);
//   * the head's upstream-backup log is bounded separately, at kMaxHeadLog
//     items: requests a flush cannot log are refused with kOverloaded;
//   * gets flagged kReadStale are answered from the ReplicaTable without
//     touching the dataflow when the replica is within the client's epoch
//     lag bound, and fall back to the strong path otherwise;
//   * the answers of one dispatch slice, or of one flushed batch, leave as
//     one framed write per client.
//
// Writes are acked once the head has accepted (logged) the delivery — the
// upstream-backup contract makes them replayable from that point. Strong
// gets flow through the dataflow keyed by DataItem::user_tag and complete
// when the owning worker's sink output returns.
#ifndef SDG_SERVE_GATEWAY_H_
#define SDG_SERVE_GATEWAY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/runtime/elastic.h"
#include "src/serve/admission.h"
#include "src/serve/replica_table.h"

namespace sdg::serve {

// Entry indexes of the serving KV fleet ({"put", "get", "del"} — must match
// tools/elastic_worker.cc --serve).
inline constexpr uint32_t kEntryPut = 0;
inline constexpr uint32_t kEntryGet = 1;
inline constexpr uint32_t kEntryDel = 2;

// Most requests one flush injects.
inline constexpr size_t kMaxFlushBatch = 512;

// Most items the head's upstream-backup log (§5) may hold. The log keeps
// every injected item until the owner's next checkpoint acks it, so its
// healthy size is rate × checkpoint period (~8k items at 70k req/s with
// 100 ms checkpoints, more right after a restart replays a backlog). This
// cap is not a load signal; it only stops an owner that never acks from
// growing the head without limit.
inline constexpr size_t kMaxHeadLog = 65536;

struct GatewayOptions {
  uint32_t partitions = 4;
  AdmissionOptions admission;
  // Strong gets outstanding longer than this complete as kRespError
  // ("timeout") — e.g. the owning worker died mid-request.
  int request_timeout_ms = 5000;
  // Injection deadline per batch; shorter than the elastic default so an
  // unreachable partition surfaces as request errors, not a wedged gateway.
  int inject_deadline_ms = 10000;
};

class ServeGateway {
 public:
  ServeGateway(elastic::ElasticHead* head, GatewayOptions options);
  ~ServeGateway();

  ServeGateway(const ServeGateway&) = delete;
  ServeGateway& operator=(const ServeGateway&) = delete;

  // Installs the serve handlers on the head's server and starts the flusher.
  // The head must already be started.
  Status Start();
  void Stop();

  struct Stats {
    uint64_t accepted = 0;
    uint64_t shed = 0;
    uint64_t puts = 0;
    uint64_t dels = 0;
    uint64_t strong_gets = 0;
    uint64_t replica_hits = 0;     // stale gets answered from a replica
    uint64_t replica_misses = 0;   // stale gets that fell back to strong
    uint64_t timeouts = 0;
    uint64_t errors = 0;
    uint64_t batches = 0;
    bool shedding = false;
    uint64_t replica_epochs_applied = 0;
  };
  Stats stats() const;

  const ReplicaTable& replicas() const { return replicas_; }
  AdmissionController& admission() { return admission_; }

 private:
  struct Pending {
    uint64_t client_id = 0;
    net::RequestMsg req;
  };
  struct PendingGet {
    uint64_t client_id = 0;
    uint64_t client_request_id = 0;
    std::chrono::steady_clock::time_point injected;
  };
  class Replies;

  void OnRequests(uint64_t client_id, std::vector<net::RequestMsg> reqs);
  void OnResponse(uint32_t member_id, net::ResponseMsg msg);
  void FlushLoop();
  void FlushBatch(std::vector<Pending>& batch);
  void SweepTimeouts();

  elastic::ElasticHead* head_;
  const GatewayOptions options_;
  AdmissionController admission_;
  ReplicaTable replicas_;

  std::atomic<bool> running_{false};
  std::thread flusher_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<Pending> queue_;

  std::mutex gets_mutex_;
  std::unordered_map<uint64_t, PendingGet> pending_gets_;
  std::atomic<uint64_t> next_tag_{1};

  std::atomic<uint64_t> puts_{0};
  std::atomic<uint64_t> dels_{0};
  std::atomic<uint64_t> strong_gets_{0};
  std::atomic<uint64_t> replica_hits_{0};
  std::atomic<uint64_t> replica_misses_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace sdg::serve

#endif  // SDG_SERVE_GATEWAY_H_
