// Length-prefixed frame codec for the inter-node TCP transport.
//
// Every message on every connection is one frame with one header layout:
//
//   magic   u32  (kFrameMagic, rejects desynchronised/garbage streams)
//   type    u8   (FrameType)
//   stream  u32  (logical stream of a multiplexed connection; 0 elsewhere)
//   length  u32  (payload bytes; bounded by kMaxFramePayload)
//   payload length bytes
//
// Frames reuse the BinaryWriter/BinaryReader encoding of src/common, so a
// DataItem crossing a real socket is byte-identical to one crossing the
// simulated node boundary. Encoding writes into a caller-owned BinaryWriter
// (so hot paths can reuse a thread-local scratch); decoding is incremental —
// FrameDecoder::Feed accepts arbitrary read() slices and surfaces complete
// frames one at a time, returning Status (never crashing) on corrupt input.
#ifndef SDG_NET_FRAME_H_
#define SDG_NET_FRAME_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/runtime/data_item.h"

namespace sdg::net {

// "SDG2": the generation with one 13-byte header on every connection. A
// binary from the two-header generation ("SDGF") fails on its first frame
// instead of desyncing.
inline constexpr uint32_t kFrameMagic = 0x53444732;
inline constexpr uint32_t kProtocolVersion = 1;
// A frame carries at most one delivery batch; 64 MiB bounds decoder memory
// against corrupt or hostile length fields.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4 + 4;

enum class FrameType : uint8_t {
  kData = 1,  // batch of DataItems on a mux data stream
  // Membership (elastic scale-out): a fresh worker process registers with a
  // running deployment's head; the connection then stays open as the
  // member's control channel (kControl both ways, kResponse worker -> head).
  kJoin = 2,     // worker -> head, once per connection
  kJoinAck = 3,  // head -> worker
  // Live state-partition migration, its own connection to the target's
  // ChannelServer: Begin opens the session, Chunk streams base/delta chunk
  // segments, Commit is the cutover barrier carrying the watermark handoff,
  // Ack confirms each applied phase.
  kMigrateBegin = 4,
  kMigrateChunk = 5,
  kMigrateCommit = 6,
  kMigrateAck = 7,
  kControl = 8,  // head <-> member commands/replies on the join connection
  // Serve path (client-facing front door): a client's first frame is a
  // kRequest — no handshake — and the connection then carries pipelined
  // requests and (out-of-order) responses keyed by request id. Workers
  // forward strong-read results to the head as kResponse frames on their
  // membership control channel.
  kRequest = 9,    // client -> gateway
  kResponse = 10,  // gateway -> client, worker -> head
  // Replica feed: a worker's first frame on a second connection to the head
  // subscribes it as a partial-state publisher; kReplicaEpoch frames then
  // stream checkpoint-epoch base/delta chunk blobs to the gateway's read
  // replicas (§3.2 partial state as the read-scaling path).
  kReplicaSubscribe = 11,  // worker -> gateway, once per connection
  kReplicaEpoch = 12,      // worker -> gateway: epoch announce/base/delta
  // Multiplexed transport (one TCP socket per peer pair, many logical
  // streams). kMuxHello is the first frame that marks a mux peer.
  kMuxHello = 13,     // dialer -> server, first frame
  kMuxHelloAck = 14,  // server -> dialer
  kMuxOpen = 15,      // dialer -> server: open one logical stream
  kMuxOpenAck = 16,   // server -> dialer: per-stream watermark + send window
  kMuxWindow = 17,    // server -> dialer: flow-control credit grant
  kMuxAckBatch = 18,  // server -> dialer: coalesced per-stream watermarks
};
// Highest type value FrameDecoder accepts; bump when appending frame types.
inline constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::kMuxAckBatch);

struct Frame {
  FrameType type = FrameType::kData;
  // Logical stream the frame belongs to (0 on connections that are not
  // multiplexed).
  uint32_t stream = 0;
  std::vector<uint8_t> payload;
};

// Appends one whole frame (header + payload, stream 0) to `w`.
void EncodeFrame(BinaryWriter& w, FrameType type, const uint8_t* payload,
                 size_t size);

// Writes only the kFrameHeaderBytes header into `out` (used by the
// scatter-gather send path, which stages header and payload as separate
// iovec segments).
void EncodeFrameHeader(uint8_t* out, FrameType type, uint32_t stream,
                       size_t payload_size);

// Incremental decoder. Feed() buffers raw bytes; Next() pops the next
// complete frame. A magic/length violation poisons the decoder (the stream
// cannot be resynchronised) and every later call returns the same error.
class FrameDecoder {
 public:
  // Appends raw bytes read from the transport.
  void Feed(const uint8_t* data, size_t size);

  // True  -> *out holds the next frame.
  // False -> no complete frame buffered yet (read more).
  // Error -> kDataLoss: bad magic, oversized length, or unknown type.
  Result<bool> Next(Frame* out);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  Status poisoned_;
};

// --- Message payloads ---------------------------------------------------------
//
// Each message (de)serialises through BinaryWriter/BinaryReader; Decode
// rejects truncated or trailing bytes with a Status.

// Identity of one data channel, as the receiver's HandshakeFn and BatchFn
// see it: which deployment the sender belongs to, which TE instance is
// talking (the remote SourceId downstream dedup keys on), which entry TE of
// the receiving deployment the items are for, and the sender's emit-clock
// position (diagnostics: the receiver can bound the replay window). It
// travels as the fields of the stream's MuxOpenMsg.
struct Handshake {
  uint64_t deployment_id = 0;
  uint32_t source_task = 0;
  uint32_t source_instance = 0;
  std::string entry;
  uint64_t emit_clock = 0;
};

// Batch of data items, in sender FIFO order.
struct DataBatch {
  std::vector<runtime::DataItem> items;

  // Encodes straight into `w` (cleared first), so the per-batch hot path can
  // reuse a thread-local scratch writer.
  void EncodeTo(BinaryWriter& w) const;
  static Result<DataBatch> Decode(const std::vector<uint8_t>& payload);
};

// --- Membership / migration messages ------------------------------------------

// Registers a worker process with a running deployment's head. `member_id`
// is stable across restarts (it names the worker's backup-store directory);
// a rejoin with a known id replaces the previous incarnation. `data_port` is
// the joiner's own ChannelServer, where the head's mux connection and
// migration sessions are dialled.
struct JoinMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t deployment_id = 0;
  uint32_t member_id = 0;
  std::string host;
  uint32_t data_port = 0;
  std::string name;  // diagnostics only

  std::vector<uint8_t> Encode() const;
  static Result<JoinMsg> Decode(const std::vector<uint8_t>& payload);
};

struct JoinAckMsg {
  bool accepted = false;
  uint32_t member_id = 0;
  std::string message;  // reject reason

  std::vector<uint8_t> Encode() const;
  static Result<JoinAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Opens a migration session for one partition of one SE. Over the membership
// channel (head -> source worker) the target fields say where to push; over
// the session connection itself (source -> target) they are empty.
struct MigrateBeginMsg {
  std::string state;
  uint32_t partition = 0;
  uint32_t num_partitions = 0;
  std::string target_host;
  uint32_t target_port = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateBeginMsg> Decode(const std::vector<uint8_t>& payload);
};

// One chunk-stream segment of the partition being migrated. Segments of one
// chunk_index concatenate into a v2 chunk blob; an apply-marker (empty
// payload) closes the phase: the target assembles and applies everything
// buffered, then acks.
inline constexpr uint8_t kMigrateChunkDelta = 1;  // segment of a delta chunk
inline constexpr uint8_t kMigrateChunkApply = 2;  // phase barrier, no payload
struct MigrateChunkMsg {
  uint32_t chunk_index = 0;
  uint8_t flags = 0;
  std::vector<uint8_t> bytes;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateChunkMsg> Decode(const std::vector<uint8_t>& payload);
};

// Cutover barrier: the source has shipped its final delta and will never
// serve this partition again. `watermarks` carries, per remote source
// instance feeding this partition (one per head-side entry channel), the
// highest timestamp reflected in the migrated state — the receiving worker
// reports these in the next stream open-acks so the head's output buffers
// replay exactly the entries past them (the watermark handoff).
struct SourceWatermark {
  uint32_t source_instance = 0;
  uint64_t watermark = 0;
};
struct MigrateCommitMsg {
  std::string state;
  uint32_t partition = 0;
  std::vector<SourceWatermark> watermarks;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateCommitMsg> Decode(const std::vector<uint8_t>& payload);
};

struct MigrateAckMsg {
  bool ok = false;
  uint64_t watermark = 0;
  std::string message;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Commands/replies on the membership channel.
inline constexpr uint32_t kCtrlCheckpoint = 1;  // head->worker: persist + ack
inline constexpr uint32_t kCtrlDone = 2;        // worker->head: command done
inline constexpr uint32_t kCtrlRelease = 3;     // head->worker: drop partition
inline constexpr uint32_t kCtrlStraggler = 4;   // worker->head: local straggler
inline constexpr uint32_t kCtrlCutover = 5;     // head->worker: finish migration
inline constexpr uint32_t kCtrlPrepared = 6;    // worker->head: base+deltas sent
inline constexpr uint32_t kCtrlError = 7;       // worker->head: command failed
inline constexpr uint32_t kCtrlPing = 8;        // head->worker: liveness probe
struct ControlMsg {
  uint32_t op = 0;
  uint32_t partition = 0;
  uint64_t arg = 0;
  std::string text;

  std::vector<uint8_t> Encode() const;
  static Result<ControlMsg> Decode(const std::vector<uint8_t>& payload);
};

// --- Serve-path messages ------------------------------------------------------

// One KV operation. `request_id` is client-scoped (echoed back verbatim);
// responses may arrive out of order, so clients key pending ops on it.
// Reads default to the strong path (routed to the owning partition); setting
// kReadStale allows the gateway to answer from a partial-state replica as
// long as the replica lags the owner's announced checkpoint epoch by at most
// `max_epoch_lag` epochs (the staleness bound).
inline constexpr uint8_t kOpPut = 1;
inline constexpr uint8_t kOpGet = 2;
inline constexpr uint8_t kOpDel = 3;
inline constexpr uint8_t kOpPing = 4;  // connection probe, answered inline
inline constexpr uint8_t kReadStale = 1;  // RequestMsg.flags bit
struct RequestMsg {
  uint64_t request_id = 0;
  uint8_t op = kOpGet;
  uint8_t flags = 0;
  int64_t key = 0;
  std::string value;  // kOpPut payload
  uint32_t max_epoch_lag = 1;

  std::vector<uint8_t> Encode() const;
  static Result<RequestMsg> Decode(const std::vector<uint8_t>& payload);
};

inline constexpr uint8_t kRespOk = 1;
inline constexpr uint8_t kRespOverloaded = 2;  // shed by admission control
inline constexpr uint8_t kRespError = 3;
inline constexpr uint8_t kRespFromReplica = 1;  // ResponseMsg.flags bit
struct ResponseMsg {
  uint64_t request_id = 0;
  uint8_t code = kRespOk;
  uint8_t flags = 0;
  std::string value;    // get result ("" = absent) or error text
  uint64_t epoch = 0;   // replica reads: the epoch the value reflects

  std::vector<uint8_t> Encode() const;
  static Result<ResponseMsg> Decode(const std::vector<uint8_t>& payload);
  void EncodeTo(BinaryWriter& w) const;
  size_t EncodedSize() const { return 8 + 1 + 1 + 8 + value.size() + 8; }
};

// Responses for one client, encoded as whole kResponse frames back to back in
// one buffer, so a batch of answers leaves as one write
// (ChannelServer::SendToClient). The wire sees ordinary consecutive frames.
class ResponseBatch {
 public:
  void Add(const ResponseMsg& msg);
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::vector<uint8_t> TakeBytes() && { return std::move(bytes_).TakeBuffer(); }

 private:
  BinaryWriter bytes_;
  size_t count_ = 0;
};

// --- Replica feed messages ----------------------------------------------------

// Opens a worker's replica-feed connection to the gateway.
struct ReplicaSubscribeMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t deployment_id = 0;
  uint32_t member_id = 0;
  std::string state;

  std::vector<uint8_t> Encode() const;
  static Result<ReplicaSubscribeMsg> Decode(
      const std::vector<uint8_t>& payload);
};

// One replica-feed event for a partition. An announce (no chunks) advances
// the owner's epoch watermark the moment a checkpoint epoch is cut — the
// gateway's staleness bound is measured against it. Base/delta events carry
// the v2 chunk blobs of that epoch; a base replaces the replica's contents,
// a delta applies dirty records + tombstones on top. `queue_depth` piggybacks
// the worker's current mailbox depth for admission control.
inline constexpr uint8_t kEpochAnnounce = 1;
inline constexpr uint8_t kEpochBase = 2;
inline constexpr uint8_t kEpochDelta = 3;
struct ReplicaEpochMsg {
  uint32_t partition = 0;
  uint32_t member_id = 0;
  uint8_t kind = kEpochAnnounce;
  uint64_t epoch = 0;
  uint64_t queue_depth = 0;
  std::vector<std::vector<uint8_t>> chunks;

  std::vector<uint8_t> Encode() const;
  static Result<ReplicaEpochMsg> Decode(const std::vector<uint8_t>& payload);
};

// --- Mux messages -------------------------------------------------------------

// First frame of a multiplexed connection: marks the peer as mux. The
// protocol field lets a future generation renegotiate.
struct MuxHelloMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t deployment_id = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MuxHelloMsg> Decode(const std::vector<uint8_t>& payload);
};

// Reply to the hello. `window` is the initial per-stream send window (frames
// the dialer may have in flight on one stream before credits are granted
// back).
struct MuxHelloAckMsg {
  bool accepted = false;
  uint32_t window = 0;
  std::string message;  // reject reason

  std::vector<uint8_t> Encode() const;
  static Result<MuxHelloAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Opens one data stream: one (entry, partition) channel, whose fields are
// the Handshake the receiver sees; kData frames then flow dialer -> server.
// Sent on the stream's own id so the server can reply on it; the dialer
// sends no data frames until the ack arrives.
struct MuxOpenMsg {
  uint64_t deployment_id = 0;
  uint32_t source_task = 0;
  uint32_t source_instance = 0;
  std::string entry;
  uint64_t emit_clock = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MuxOpenMsg> Decode(const std::vector<uint8_t>& payload);
};

// Per-stream open reply: the receiver's durable watermark for the stream's
// source (the dialer replays every logged entry past it — §5 as the
// transport's reconnect path) and the stream's initial send window in
// frames. A rejected open carries the HandshakeFn's reason.
struct MuxOpenAckMsg {
  bool accepted = false;
  uint64_t acked_ts = 0;
  uint32_t window = 0;
  std::string message;  // reject reason

  std::vector<uint8_t> Encode() const;
  static Result<MuxOpenAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Flow-control credit grant: the server consumed `credits` frames of the
// stream, so the dialer may have that many more in flight. Per-stream
// windows are what keep one hot partition from starving its siblings on the
// shared socket — a stream out of credits blocks only its own sender.
struct MuxWindowMsg {
  uint32_t credits = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MuxWindowMsg> Decode(const std::vector<uint8_t>& payload);
};

// Coalesced cumulative acks: one frame carries the durable watermark of
// every stream a checkpoint covered; the dialer trims each stream's
// upstream-backup log to its entry.
struct MuxAckBatchMsg {
  struct Entry {
    uint32_t stream = 0;
    uint64_t acked_ts = 0;
  };
  std::vector<Entry> entries;

  std::vector<uint8_t> Encode() const;
  static Result<MuxAckBatchMsg> Decode(const std::vector<uint8_t>& payload);
};

}  // namespace sdg::net

#endif  // SDG_NET_FRAME_H_
