// RemoteChannel: the sender half of an inter-node dataflow edge over TCP.
//
// Implements runtime::DeliveryTarget, so the deployment's batching hot path
// (RouteEmits / InjectAll delivery groups) works unchanged whether the
// destination TE instance is a local mailbox or a process away.
//
// Every channel rides one logical stream of the MuxPool's shared socket to
// its peer, so the connection count to a peer is O(1) regardless of
// (entry, partition) fan-out.
//
// Protocol (§5 as the transport's error path):
//   1. Open a stream (deployment id, source TE id/instance, destination
//      entry name, emit-clock). The open-ack carries the receiver's durable
//      watermark for this source.
//   2. Every delivered item is appended to the attached OutputBuffer (the
//      upstream-backup log) BEFORE it is framed, then sent as a kData batch
//      within the stream's credit window (backpressure).
//   3. Acks (coalesced per socket in kMuxAckBatch) trim the log: entries at
//      or below the watermark are durable at the receiver and will never be
//      replayed.
//   4. On connection loss, Deliver* transparently reopens the stream
//      (redialling the pool's socket if it broke); after the fresh open-ack
//      the channel replays every logged entry past the receiver's acked
//      watermark, marked replayed=true so downstream dedup applies.
//
// Thread safety: Deliver/DeliverAll may be called from one sender thread at a
// time (the per-source FIFO contract); acks arrive on the event-loop thread
// and only touch the OutputBuffer, which locks internally.
//
// Repair runs on two tracks. Deliver* keeps the synchronous
// reconnect-and-replay (the authoritative path — a caller with data in hand
// always gets the full retry budget). Additionally, the moment a stream
// reports broken, one bounded round of redial attempts starts on a
// dedicated thread, so an idle sender's channel heals before the next
// Deliver instead of paying the redial latency then.
#ifndef SDG_NET_REMOTE_CHANNEL_H_
#define SDG_NET_REMOTE_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/net/mux.h"
#include "src/runtime/delivery.h"
#include "src/runtime/output_buffer.h"

namespace sdg::net {

struct RemoteChannelOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t deployment_id = 0;
  // SourceId the receiver sees on every item (keys its dedup watermarks).
  uint32_t source_task = runtime::kRemoteSourceTask;
  uint32_t source_instance = 0;
  // Entry TE of the receiving deployment.
  std::string entry;
  // Reconnect policy: attempts * backoff bounds how long a receiver restart
  // may take before Deliver* gives up and reports the channel broken.
  int reconnect_attempts = 100;
  int reconnect_backoff_ms = 100;
  // The shared per-peer sockets the channel's stream rides. Required; the
  // caller keeps ownership and must outlive the channel.
  MuxPool* mux = nullptr;
};

class RemoteChannel final : public runtime::DeliveryTarget {
 public:
  // `log` is the upstream-backup buffer for this edge; the channel appends
  // every item (dest_instance 0 — the remote endpoint is one destination)
  // and trims it on acks. Caller keeps ownership; the log may be shared with
  // the deployment's checkpoint machinery.
  RemoteChannel(RemoteChannelOptions options, runtime::OutputBuffer* log);
  ~RemoteChannel() override;

  // Opens the stream; replays anything already in the log past the
  // receiver's watermark (crash-restart of the *sender* process with a
  // restored log works the same as a reconnect). A receiver that rejects
  // the channel identity fails it with kFailedPrecondition.
  Status Connect();

  // DeliveryTarget. Items must carry monotone per-source timestamps (the
  // caller stamps them; see LogicalClock). Blocks on backpressure; on a
  // broken wire, reconnects and replays before accepting new items. Returns
  // false / 0 only when reconnecting exhausts its budget BEFORE the items
  // were logged — once logged they count as accepted (replay delivers them),
  // so the caller must never resend a batch that was accepted.
  bool Deliver(runtime::DataItem item) override;
  size_t DeliverAll(std::vector<runtime::DataItem>&& items) override;

  // Entries not yet acked by the receiver (0 once everything sent is
  // durable remotely).
  size_t UnackedCount() const { return log_->size(); }

  uint64_t acked_watermark() const;

  // Detaches the channel's stream without touching the log; the shared
  // socket stays up for sibling channels.
  void Close();

  bool connected() const;

 private:
  // Opens a stream on the peer's shared socket, then replays; under
  // send_mutex_.
  Status ConnectLocked();
  // Replays everything logged past `acked_ts`; under send_mutex_.
  Status ReplayLocked(uint64_t acked_ts);
  // Ensures a live stream, reopening with backoff; under send_mutex_.
  Status EnsureConnectedLocked();
  // Detaches and drops the current stream, if any; under send_mutex_.
  void DropStreamLocked();
  // Frames and sends one batch; false on wire failure. Under send_mutex_.
  bool SendBatchLocked(const std::vector<runtime::DataItem>& items);
  void HandleAck(uint64_t acked_ts);
  // Starts one bounded background reconnect round (dedup'd: at most one in
  // flight). Called from the stream's on_error.
  void StartBackgroundReconnect();
  // That round: all attempts on one dedicated thread.
  void BackgroundReconnect();

  const RemoteChannelOptions options_;
  runtime::OutputBuffer* const log_;

  mutable std::mutex send_mutex_;
  std::shared_ptr<MuxStream> stream_;
  mutable std::mutex ack_mutex_;
  uint64_t acked_watermark_ = 0;

  std::atomic<bool> closed_{false};
  std::atomic<bool> reconnecting_{false};
  std::mutex reconnect_mutex_;
  std::condition_variable reconnect_cv_;
  size_t reconnect_inflight_ = 0;  // Close/dtor wait for zero
};

}  // namespace sdg::net

#endif  // SDG_NET_REMOTE_CHANNEL_H_
