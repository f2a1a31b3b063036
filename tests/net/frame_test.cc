// Frame codec tests: round-trips, rejection of malformed input as Status
// (never a crash), and incremental decoding across arbitrary read() splits.
#include "src/net/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace sdg::net {
namespace {

runtime::DataItem MakeItem(uint64_t ts) {
  runtime::DataItem item;
  item.from = runtime::SourceId{7, 3};
  item.ts = ts;
  item.user_tag = ts * 10;
  item.replayed = (ts % 2) == 0;
  item.payload = Tuple{Value(static_cast<int64_t>(ts)), Value("payload")};
  return item;
}

std::vector<uint8_t> EncodeOne(FrameType type,
                               const std::vector<uint8_t>& payload) {
  BinaryWriter w;
  EncodeFrame(w, type, payload.data(), payload.size());
  return std::move(w).TakeBuffer();
}

TEST(FrameCodecTest, RoundTripSingleFrame) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto bytes = EncodeOne(FrameType::kData, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame frame;
  auto ready = dec.Next(&frame);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_EQ(frame.type, FrameType::kData);
  EXPECT_EQ(frame.payload, payload);
  // Exactly one frame; the decoder is drained.
  auto more = dec.Next(&frame);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameCodecTest, EmptyPayloadFrame) {
  auto bytes = EncodeOne(FrameType::kMuxWindow, {});
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame frame;
  auto ready = dec.Next(&frame);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_EQ(frame.type, FrameType::kMuxWindow);
  EXPECT_EQ(frame.stream, 0u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameCodecTest, TruncatedFrameIsIncompleteNotError) {
  auto bytes = EncodeOne(FrameType::kData, {9, 9, 9, 9});
  FrameDecoder dec;
  Frame frame;
  // Feed everything but the last byte, one byte at a time: never an error,
  // never a frame.
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.Feed(&bytes[i], 1);
    auto ready = dec.Next(&frame);
    ASSERT_TRUE(ready.ok()) << "offset " << i;
    EXPECT_FALSE(*ready) << "offset " << i;
  }
  dec.Feed(&bytes[bytes.size() - 1], 1);
  auto ready = dec.Next(&frame);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_EQ(frame.payload.size(), 4u);
}

TEST(FrameCodecTest, CorruptMagicPoisonsDecoder) {
  auto bytes = EncodeOne(FrameType::kData, {1});
  bytes[0] ^= 0xFF;
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame frame;
  auto ready = dec.Next(&frame);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), StatusCode::kDataLoss);
  // Poisoned: even fresh valid bytes cannot resynchronise the stream.
  auto good = EncodeOne(FrameType::kData, {2});
  dec.Feed(good.data(), good.size());
  auto again = dec.Next(&frame);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, OversizedLengthRejected) {
  BinaryWriter w;
  w.Write<uint32_t>(kFrameMagic);
  w.Write<uint8_t>(static_cast<uint8_t>(FrameType::kData));
  w.Write<uint32_t>(0);  // stream
  w.Write<uint32_t>(kMaxFramePayload + 1);
  auto bytes = std::move(w).TakeBuffer();
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame frame;
  auto ready = dec.Next(&frame);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, UnknownTypeRejected) {
  BinaryWriter w;
  w.Write<uint32_t>(kFrameMagic);
  w.Write<uint8_t>(200);
  w.Write<uint32_t>(0);  // stream
  w.Write<uint32_t>(0);  // length
  auto bytes = std::move(w).TakeBuffer();
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame frame;
  auto ready = dec.Next(&frame);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, RandomSplitFeedDecodesEveryFrame) {
  // Many frames of varying sizes, fed in random read()-sized slices: the
  // incremental decoder must produce the exact frame sequence regardless of
  // where the slices fall.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> stream;
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> p(rng.NextBounded(300));
    for (auto& b : p) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    auto bytes = EncodeOne(FrameType::kData, p);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    payloads.push_back(std::move(p));
  }

  FrameDecoder dec;
  size_t fed = 0;
  size_t decoded = 0;
  Frame frame;
  while (fed < stream.size()) {
    size_t n = std::min<size_t>(1 + rng.NextBounded(97), stream.size() - fed);
    dec.Feed(stream.data() + fed, n);
    fed += n;
    for (;;) {
      auto ready = dec.Next(&frame);
      ASSERT_TRUE(ready.ok());
      if (!*ready) {
        break;
      }
      ASSERT_LT(decoded, payloads.size());
      EXPECT_EQ(frame.payload, payloads[decoded]);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, payloads.size());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameMessageTest, DataBatchRoundTrip) {
  DataBatch batch;
  for (uint64_t ts = 1; ts <= 5; ++ts) {
    batch.items.push_back(MakeItem(ts));
  }
  BinaryWriter w;
  batch.EncodeTo(w);
  auto decoded = DataBatch::Decode(w.buffer());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->items.size(), 5u);
  for (uint64_t ts = 1; ts <= 5; ++ts) {
    const auto& item = decoded->items[ts - 1];
    EXPECT_EQ(item.ts, ts);
    EXPECT_EQ(item.from.task, 7u);
    EXPECT_EQ(item.user_tag, ts * 10);
    EXPECT_EQ(item.replayed, (ts % 2) == 0);
    EXPECT_EQ(item.payload[0].AsInt(), static_cast<int64_t>(ts));
    EXPECT_EQ(item.payload[1].AsString(), "payload");
  }
}

TEST(FrameMessageTest, TruncatedMessagesRejected) {
  JoinMsg join;
  join.host = "127.0.0.1";
  join.name = "counts";
  auto bytes = join.Encode();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> partial(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(JoinMsg::Decode(partial).ok()) << "cut at " << cut;
  }
  DataBatch batch;
  batch.items.push_back(MakeItem(1));
  BinaryWriter w;
  batch.EncodeTo(w);
  const auto& full = w.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<uint8_t> partial(full.begin(), full.begin() + cut);
    EXPECT_FALSE(DataBatch::Decode(partial).ok()) << "cut at " << cut;
  }
}

TEST(FrameMessageTest, TrailingBytesRejected) {
  MuxWindowMsg msg;
  msg.credits = 5;
  auto bytes = msg.Encode();
  bytes.push_back(0);
  EXPECT_FALSE(MuxWindowMsg::Decode(bytes).ok());
}

TEST(FrameMessageTest, RequestRoundTrip) {
  RequestMsg req;
  req.request_id = 0x1122334455667788ull;
  req.op = kOpGet;
  req.flags = kReadStale;
  req.key = -42;
  req.value = "ignored for gets";
  req.max_epoch_lag = 7;
  auto decoded = RequestMsg::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->op, kOpGet);
  EXPECT_EQ(decoded->flags, kReadStale);
  EXPECT_EQ(decoded->key, -42);
  EXPECT_EQ(decoded->value, req.value);
  EXPECT_EQ(decoded->max_epoch_lag, 7u);

  for (size_t cut = 0; cut + 1 < req.Encode().size(); ++cut) {
    auto bytes = req.Encode();
    bytes.resize(cut);
    EXPECT_FALSE(RequestMsg::Decode(bytes).ok()) << "cut at " << cut;
  }
}

TEST(FrameMessageTest, ResponseRoundTrip) {
  ResponseMsg resp;
  resp.request_id = 99;
  resp.code = kRespOverloaded;
  resp.flags = kRespFromReplica;
  resp.value = std::string(300, 'x');  // multi-byte varint length
  resp.epoch = 1234567;
  auto decoded = ResponseMsg::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, 99u);
  EXPECT_EQ(decoded->code, kRespOverloaded);
  EXPECT_EQ(decoded->flags, kRespFromReplica);
  EXPECT_EQ(decoded->value, resp.value);
  EXPECT_EQ(decoded->epoch, 1234567u);
}

// A coalesced batch is nothing but ordinary kResponse frames back to back:
// the client's decoder reads them one by one, whatever the split points.
TEST(FrameMessageTest, ResponseBatchIsConsecutiveFrames) {
  ResponseBatch batch;
  EXPECT_TRUE(batch.empty());
  for (uint64_t id = 1; id <= 5; ++id) {
    ResponseMsg resp;
    resp.request_id = id;
    resp.code = id % 2 == 0 ? kRespOverloaded : kRespOk;
    resp.value = std::string(id * 7, 'v');
    resp.epoch = id * 10;
    batch.Add(resp);
  }
  EXPECT_EQ(batch.count(), 5u);
  std::vector<uint8_t> bytes = std::move(batch).TakeBytes();

  FrameDecoder decoder;
  for (size_t off = 0; off < bytes.size(); off += 13) {
    decoder.Feed(bytes.data() + off, std::min<size_t>(13, bytes.size() - off));
  }
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame frame;
    auto ready = decoder.Next(&frame);
    ASSERT_TRUE(ready.ok());
    ASSERT_TRUE(*ready) << "frame " << id << " missing";
    EXPECT_EQ(frame.type, FrameType::kResponse);
    auto resp = ResponseMsg::Decode(frame.payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->request_id, id);
    EXPECT_EQ(resp->code, id % 2 == 0 ? kRespOverloaded : kRespOk);
    EXPECT_EQ(resp->value, std::string(id * 7, 'v'));
    EXPECT_EQ(resp->epoch, id * 10);
  }
  Frame extra;
  auto more = decoder.Next(&extra);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(FrameMessageTest, ReplicaSubscribeRoundTrip) {
  ReplicaSubscribeMsg sub;
  sub.deployment_id = 31337;
  sub.member_id = 5;
  sub.state = "store";
  auto decoded = ReplicaSubscribeMsg::Decode(sub.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->protocol, kProtocolVersion);
  EXPECT_EQ(decoded->deployment_id, 31337u);
  EXPECT_EQ(decoded->member_id, 5u);
  EXPECT_EQ(decoded->state, "store");
}

TEST(FrameMessageTest, ReplicaEpochRoundTrip) {
  ReplicaEpochMsg msg;
  msg.partition = 3;
  msg.member_id = 2;
  msg.kind = kEpochDelta;
  msg.epoch = 41;
  msg.queue_depth = 17;
  msg.chunks = {{1, 2, 3}, {}, {0xFF, 0x00, 0x7F}};
  auto decoded = ReplicaEpochMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->partition, 3u);
  EXPECT_EQ(decoded->member_id, 2u);
  EXPECT_EQ(decoded->kind, kEpochDelta);
  EXPECT_EQ(decoded->epoch, 41u);
  EXPECT_EQ(decoded->queue_depth, 17u);
  EXPECT_EQ(decoded->chunks, msg.chunks);

  // An announce carries no chunks.
  ReplicaEpochMsg announce;
  announce.kind = kEpochAnnounce;
  announce.epoch = 42;
  auto d2 = ReplicaEpochMsg::Decode(announce.Encode());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->kind, kEpochAnnounce);
  EXPECT_TRUE(d2->chunks.empty());
}

}  // namespace
}  // namespace sdg::net
