#include "src/net/frame.h"

#include <cstring>

namespace sdg::net {

namespace {

Status FrameError(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}

// Decode must consume the payload exactly: trailing bytes mean the sender
// and receiver disagree about the message layout.
Status RequireAtEnd(const BinaryReader& r, const char* what) {
  if (!r.AtEnd()) {
    return FrameError(std::string(what) + ": trailing bytes in payload");
  }
  return Status::Ok();
}

}  // namespace

void EncodeFrame(BinaryWriter& w, FrameType type, const uint8_t* payload,
                 size_t size) {
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(header, type, /*stream=*/0, size);
  w.WriteBytes(header, sizeof(header));
  w.WriteBytes(payload, size);
}

void EncodeFrameHeader(uint8_t* out, FrameType type, uint32_t stream,
                       size_t payload_size) {
  const uint32_t length = static_cast<uint32_t>(payload_size);
  std::memcpy(out, &kFrameMagic, 4);
  out[4] = static_cast<uint8_t>(type);
  std::memcpy(out + 5, &stream, 4);
  std::memcpy(out + 9, &length, 4);
}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state feeding does not memmove per frame.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<bool> FrameDecoder::Next(Frame* out) {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) {
    return false;
  }
  const uint8_t* p = buffer_.data() + consumed_;
  uint32_t magic;
  std::memcpy(&magic, p, sizeof(magic));
  if (magic != kFrameMagic) {
    poisoned_ = FrameError("bad frame magic: stream desynchronised");
    return poisoned_;
  }
  const uint8_t type = p[4];
  uint32_t stream;
  uint32_t length;
  std::memcpy(&stream, p + 5, sizeof(stream));
  std::memcpy(&length, p + 9, sizeof(length));
  if (length > kMaxFramePayload) {
    poisoned_ = FrameError("frame payload length " + std::to_string(length) +
                           " exceeds limit");
    return poisoned_;
  }
  if (type < static_cast<uint8_t>(FrameType::kData) || type > kMaxFrameType) {
    poisoned_ = FrameError("unknown frame type " + std::to_string(type));
    return poisoned_;
  }
  if (avail < kFrameHeaderBytes + length) {
    return false;  // payload still in flight
  }
  out->type = static_cast<FrameType>(type);
  out->stream = stream;
  out->payload.assign(p + kFrameHeaderBytes, p + kFrameHeaderBytes + length);
  consumed_ += kFrameHeaderBytes + length;
  return true;
}

// --- DataBatch ----------------------------------------------------------------

void DataBatch::EncodeTo(BinaryWriter& w) const {
  w.Clear();
  w.Write<uint32_t>(static_cast<uint32_t>(items.size()));
  for (const auto& item : items) {
    item.Serialize(w);
  }
}

Result<DataBatch> DataBatch::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  DataBatch b;
  SDG_ASSIGN_OR_RETURN(uint32_t count, r.Read<uint32_t>());
  b.items.reserve(std::min<size_t>(count, r.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    SDG_ASSIGN_OR_RETURN(runtime::DataItem item,
                         runtime::DataItem::Deserialize(r));
    b.items.push_back(std::move(item));
  }
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "data batch"));
  return b;
}

// --- JoinMsg ------------------------------------------------------------------

std::vector<uint8_t> JoinMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(protocol);
  w.Write<uint64_t>(deployment_id);
  w.Write<uint32_t>(member_id);
  w.WriteString(host);
  w.Write<uint32_t>(data_port);
  w.WriteString(name);
  return std::move(w).TakeBuffer();
}

Result<JoinMsg> JoinMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  JoinMsg m;
  SDG_ASSIGN_OR_RETURN(m.protocol, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.deployment_id, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.member_id, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.host, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.data_port, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.name, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "join"));
  return m;
}

std::vector<uint8_t> JoinAckMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint8_t>(accepted ? 1 : 0);
  w.Write<uint32_t>(member_id);
  w.WriteString(message);
  return std::move(w).TakeBuffer();
}

Result<JoinAckMsg> JoinAckMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  JoinAckMsg m;
  SDG_ASSIGN_OR_RETURN(uint8_t accepted, r.Read<uint8_t>());
  m.accepted = accepted != 0;
  SDG_ASSIGN_OR_RETURN(m.member_id, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.message, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "join-ack"));
  return m;
}

// --- Migration ----------------------------------------------------------------

std::vector<uint8_t> MigrateBeginMsg::Encode() const {
  BinaryWriter w;
  w.WriteString(state);
  w.Write<uint32_t>(partition);
  w.Write<uint32_t>(num_partitions);
  w.WriteString(target_host);
  w.Write<uint32_t>(target_port);
  return std::move(w).TakeBuffer();
}

Result<MigrateBeginMsg> MigrateBeginMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MigrateBeginMsg m;
  SDG_ASSIGN_OR_RETURN(m.state, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.partition, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.num_partitions, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.target_host, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.target_port, r.Read<uint32_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "migrate-begin"));
  return m;
}

std::vector<uint8_t> MigrateChunkMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(chunk_index);
  w.Write<uint8_t>(flags);
  w.WriteVector(bytes);
  return std::move(w).TakeBuffer();
}

Result<MigrateChunkMsg> MigrateChunkMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MigrateChunkMsg m;
  SDG_ASSIGN_OR_RETURN(m.chunk_index, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.flags, r.Read<uint8_t>());
  SDG_ASSIGN_OR_RETURN(m.bytes, r.ReadVector<uint8_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "migrate-chunk"));
  return m;
}

std::vector<uint8_t> MigrateCommitMsg::Encode() const {
  BinaryWriter w;
  w.WriteString(state);
  w.Write<uint32_t>(partition);
  w.Write<uint64_t>(watermarks.size());
  for (const auto& sw : watermarks) {
    w.Write<uint32_t>(sw.source_instance);
    w.Write<uint64_t>(sw.watermark);
  }
  return std::move(w).TakeBuffer();
}

Result<MigrateCommitMsg> MigrateCommitMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MigrateCommitMsg m;
  SDG_ASSIGN_OR_RETURN(m.state, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.partition, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(uint64_t n, r.Read<uint64_t>());
  m.watermarks.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SourceWatermark sw;
    SDG_ASSIGN_OR_RETURN(sw.source_instance, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(sw.watermark, r.Read<uint64_t>());
    m.watermarks.push_back(sw);
  }
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "migrate-commit"));
  return m;
}

std::vector<uint8_t> MigrateAckMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint8_t>(ok ? 1 : 0);
  w.Write<uint64_t>(watermark);
  w.WriteString(message);
  return std::move(w).TakeBuffer();
}

Result<MigrateAckMsg> MigrateAckMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MigrateAckMsg m;
  SDG_ASSIGN_OR_RETURN(uint8_t ok, r.Read<uint8_t>());
  m.ok = ok != 0;
  SDG_ASSIGN_OR_RETURN(m.watermark, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.message, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "migrate-ack"));
  return m;
}

// --- ControlMsg ---------------------------------------------------------------

std::vector<uint8_t> ControlMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(op);
  w.Write<uint32_t>(partition);
  w.Write<uint64_t>(arg);
  w.WriteString(text);
  return std::move(w).TakeBuffer();
}

Result<ControlMsg> ControlMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  ControlMsg m;
  SDG_ASSIGN_OR_RETURN(m.op, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.partition, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.arg, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.text, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "control"));
  return m;
}

// --- RequestMsg ---------------------------------------------------------------

std::vector<uint8_t> RequestMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint64_t>(request_id);
  w.Write<uint8_t>(op);
  w.Write<uint8_t>(flags);
  w.Write<int64_t>(key);
  w.WriteString(value);
  w.Write<uint32_t>(max_epoch_lag);
  return std::move(w).TakeBuffer();
}

Result<RequestMsg> RequestMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  RequestMsg m;
  SDG_ASSIGN_OR_RETURN(m.request_id, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.op, r.Read<uint8_t>());
  SDG_ASSIGN_OR_RETURN(m.flags, r.Read<uint8_t>());
  SDG_ASSIGN_OR_RETURN(m.key, r.Read<int64_t>());
  SDG_ASSIGN_OR_RETURN(m.value, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.max_epoch_lag, r.Read<uint32_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "request"));
  return m;
}

// --- ResponseMsg --------------------------------------------------------------

std::vector<uint8_t> ResponseMsg::Encode() const {
  BinaryWriter w(EncodedSize());
  EncodeTo(w);
  return std::move(w).TakeBuffer();
}

void ResponseMsg::EncodeTo(BinaryWriter& w) const {
  w.Write<uint64_t>(request_id);
  w.Write<uint8_t>(code);
  w.Write<uint8_t>(flags);
  w.WriteString(value);
  w.Write<uint64_t>(epoch);
}

void ResponseBatch::Add(const ResponseMsg& msg) {
  // Header and payload go straight into the batch buffer: no per-response
  // payload vector, no frame copy.
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(header, FrameType::kResponse, 0, msg.EncodedSize());
  bytes_.WriteBytes(header, sizeof(header));
  msg.EncodeTo(bytes_);
  ++count_;
}

Result<ResponseMsg> ResponseMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  ResponseMsg m;
  SDG_ASSIGN_OR_RETURN(m.request_id, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.code, r.Read<uint8_t>());
  SDG_ASSIGN_OR_RETURN(m.flags, r.Read<uint8_t>());
  SDG_ASSIGN_OR_RETURN(m.value, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.epoch, r.Read<uint64_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "response"));
  return m;
}

// --- ReplicaSubscribeMsg ------------------------------------------------------

std::vector<uint8_t> ReplicaSubscribeMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(protocol);
  w.Write<uint64_t>(deployment_id);
  w.Write<uint32_t>(member_id);
  w.WriteString(state);
  return std::move(w).TakeBuffer();
}

Result<ReplicaSubscribeMsg> ReplicaSubscribeMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  ReplicaSubscribeMsg m;
  SDG_ASSIGN_OR_RETURN(m.protocol, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.deployment_id, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.member_id, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.state, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "replica-subscribe"));
  return m;
}

// --- ReplicaEpochMsg ----------------------------------------------------------

std::vector<uint8_t> ReplicaEpochMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(partition);
  w.Write<uint32_t>(member_id);
  w.Write<uint8_t>(kind);
  w.Write<uint64_t>(epoch);
  w.Write<uint64_t>(queue_depth);
  w.Write<uint32_t>(static_cast<uint32_t>(chunks.size()));
  for (const auto& c : chunks) w.WriteVector(c);
  return std::move(w).TakeBuffer();
}

Result<ReplicaEpochMsg> ReplicaEpochMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  ReplicaEpochMsg m;
  SDG_ASSIGN_OR_RETURN(m.partition, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.member_id, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.kind, r.Read<uint8_t>());
  SDG_ASSIGN_OR_RETURN(m.epoch, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.queue_depth, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(uint32_t n, r.Read<uint32_t>());
  m.chunks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SDG_ASSIGN_OR_RETURN(std::vector<uint8_t> c, r.ReadVector<uint8_t>());
    m.chunks.push_back(std::move(c));
  }
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "replica-epoch"));
  return m;
}

// --- Mux messages -------------------------------------------------------------

std::vector<uint8_t> MuxHelloMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(protocol);
  w.Write<uint64_t>(deployment_id);
  return std::move(w).TakeBuffer();
}

Result<MuxHelloMsg> MuxHelloMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MuxHelloMsg m;
  SDG_ASSIGN_OR_RETURN(m.protocol, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.deployment_id, r.Read<uint64_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "mux-hello"));
  return m;
}

std::vector<uint8_t> MuxHelloAckMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint8_t>(accepted ? 1 : 0);
  w.Write<uint32_t>(window);
  w.WriteString(message);
  return std::move(w).TakeBuffer();
}

Result<MuxHelloAckMsg> MuxHelloAckMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MuxHelloAckMsg m;
  SDG_ASSIGN_OR_RETURN(uint8_t accepted, r.Read<uint8_t>());
  m.accepted = accepted != 0;
  SDG_ASSIGN_OR_RETURN(m.window, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.message, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "mux-hello-ack"));
  return m;
}

std::vector<uint8_t> MuxOpenMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint64_t>(deployment_id);
  w.Write<uint32_t>(source_task);
  w.Write<uint32_t>(source_instance);
  w.WriteString(entry);
  w.Write<uint64_t>(emit_clock);
  return std::move(w).TakeBuffer();
}

Result<MuxOpenMsg> MuxOpenMsg::Decode(const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MuxOpenMsg m;
  SDG_ASSIGN_OR_RETURN(m.deployment_id, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.source_task, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.source_instance, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.entry, r.ReadString());
  SDG_ASSIGN_OR_RETURN(m.emit_clock, r.Read<uint64_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "mux-open"));
  return m;
}

std::vector<uint8_t> MuxOpenAckMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint8_t>(accepted ? 1 : 0);
  w.Write<uint64_t>(acked_ts);
  w.Write<uint32_t>(window);
  w.WriteString(message);
  return std::move(w).TakeBuffer();
}

Result<MuxOpenAckMsg> MuxOpenAckMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MuxOpenAckMsg m;
  SDG_ASSIGN_OR_RETURN(uint8_t accepted, r.Read<uint8_t>());
  m.accepted = accepted != 0;
  SDG_ASSIGN_OR_RETURN(m.acked_ts, r.Read<uint64_t>());
  SDG_ASSIGN_OR_RETURN(m.window, r.Read<uint32_t>());
  SDG_ASSIGN_OR_RETURN(m.message, r.ReadString());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "mux-open-ack"));
  return m;
}

std::vector<uint8_t> MuxWindowMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(credits);
  return std::move(w).TakeBuffer();
}

Result<MuxWindowMsg> MuxWindowMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MuxWindowMsg m;
  SDG_ASSIGN_OR_RETURN(m.credits, r.Read<uint32_t>());
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "mux-window"));
  return m;
}

std::vector<uint8_t> MuxAckBatchMsg::Encode() const {
  BinaryWriter w;
  w.Write<uint32_t>(static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.Write<uint32_t>(e.stream);
    w.Write<uint64_t>(e.acked_ts);
  }
  return std::move(w).TakeBuffer();
}

Result<MuxAckBatchMsg> MuxAckBatchMsg::Decode(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  MuxAckBatchMsg m;
  SDG_ASSIGN_OR_RETURN(uint32_t n, r.Read<uint32_t>());
  m.entries.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    Entry e;
    SDG_ASSIGN_OR_RETURN(e.stream, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(e.acked_ts, r.Read<uint64_t>());
    m.entries.push_back(e);
  }
  SDG_RETURN_IF_ERROR(RequireAtEnd(r, "mux-ack-batch"));
  return m;
}

}  // namespace sdg::net
