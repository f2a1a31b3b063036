// TCP transport microbench (BENCH_net.json).
//
// Single process, loopback: a ChannelServer receiver and RemoteChannel
// senders backed by upstream-backup OutputBuffers, riding one MuxPool socket
// — the exact data path of the elastic fleet, minus the process boundary.
// Sweeps batch and payload size on one stream, and stream fan-out on the
// shared socket; reports items/s and MiB/s per config, plus the
// per-DeliverAll latency distribution (via Histogram::BatchRecorder, so the
// measurement itself stays off the hot path's lock).
//
// Each row is the median of SDG_BENCH_REPS runs (default 5) with the
// interquartile range of items/s beside it (`items_iqr_per_sec`), since a
// single run on a shared host spreads widely. The first element stamps the
// git revision and host.
//
// The receiver acks every kAckEveryItems items, which is what bounds the
// sender's log: the bench also reports the peak unacked count it observed so
// a regression in ack trimming shows up as unbounded memory, not silence.
//
// Short mode: SDG_BENCH_SECONDS=0.2 (CI smoke).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"
#include "src/net/channel_server.h"
#include "src/net/mux.h"
#include "src/net/remote_channel.h"
#include "src/runtime/delivery.h"
#include "src/runtime/output_buffer.h"

namespace sdg::bench {
namespace {

constexpr uint64_t kAckEveryItems = 4096;

int Reps() {
  const char* env = std::getenv("SDG_BENCH_REPS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  return 5;
}

struct NetRun {
  double items_per_sec = 0;
  double mib_per_sec = 0;
  double send_p50_us = 0;
  double send_p99_us = 0;
  uint64_t items = 0;
  uint64_t peak_unacked = 0;
};

// N logical channels share ONE socket through a MuxPool. A shared
// LogicalClock keeps ts globally monotonic across streams so the server's
// broadcast ack watermark trims every channel's log. Round-robin sends model
// the head fanning one entry's output across partitions.
NetRun MeasureConfig(double duration_s, size_t batch_items,
                     size_t payload_bytes, size_t num_streams) {
  std::atomic<uint64_t> received{0};

  net::ChannelServer server(net::ChannelServerOptions{});
  net::ChannelServer* server_ptr = &server;
  Status started = server.Start(
      [](const net::Handshake&) -> Result<uint64_t> { return 0; },
      [&received, server_ptr](const net::Handshake&,
                              std::vector<runtime::DataItem> items) {
        uint64_t before = received.fetch_add(items.size());
        // Ack on batch boundaries crossing the interval; coarse acks model a
        // checkpoint-driven watermark, not per-item chatter.
        if (before / kAckEveryItems !=
            (before + items.size()) / kAckEveryItems) {
          server_ptr->Ack(items.back().ts);
        }
      });
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }

  net::MuxPool pool;
  std::vector<std::unique_ptr<runtime::OutputBuffer>> logs;
  std::vector<std::unique_ptr<net::RemoteChannel>> chans;
  for (size_t i = 0; i < num_streams; ++i) {
    logs.push_back(std::make_unique<runtime::OutputBuffer>());
    net::RemoteChannelOptions copts;
    copts.port = server.port();
    copts.entry = "bench";
    copts.source_instance = static_cast<uint32_t>(i);
    copts.mux = &pool;
    chans.push_back(
        std::make_unique<net::RemoteChannel>(copts, logs.back().get()));
    if (Status s = chans.back()->Connect(); !s.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  Histogram send_us;
  Histogram::BatchRecorder send_rec(&send_us);
  const std::string payload(payload_bytes, 'x');
  LogicalClock clock;

  NetRun run;
  Stopwatch timer;
  size_t next = 0;
  while (timer.ElapsedSeconds() < duration_s) {
    std::vector<runtime::DataItem> batch;
    batch.reserve(batch_items);
    for (size_t i = 0; i < batch_items; ++i) {
      runtime::DataItem item;
      item.from = {runtime::kRemoteSourceTask, static_cast<uint32_t>(next)};
      item.ts = clock.Next();
      item.payload = Tuple{Value(payload)};
      batch.push_back(std::move(item));
    }
    net::RemoteChannel& chan = *chans[next];
    next = (next + 1) % num_streams;
    Stopwatch send_timer;
    size_t accepted = chan.DeliverAll(std::move(batch));
    send_rec.Record(send_timer.ElapsedSeconds() * 1e6);
    run.items += accepted;
    run.peak_unacked =
        std::max<uint64_t>(run.peak_unacked, chan.UnackedCount());
    if (accepted != batch_items) {
      std::fprintf(stderr, "delivery rejected mid-bench\n");
      std::exit(1);
    }
  }
  double wall_s = timer.ElapsedSeconds();

  // Wait for the receiver to have seen everything before tearing down, so
  // items/s reflects received (durable-side) throughput, not queued frames.
  while (received.load() < run.items) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  send_rec.Flush();
  auto snap = send_us.Snapshot();

  run.items_per_sec = run.items / wall_s;
  run.mib_per_sec =
      (static_cast<double>(run.items) * payload_bytes) / wall_s / (1 << 20);
  run.send_p50_us = snap.p50;
  run.send_p99_us = snap.p99;

  for (auto& chan : chans) {
    chan->Close();
  }
  pool.CloseAll();
  server.Stop();
  return run;
}

// Linear-interpolated quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

void MeasureRow(BenchJson& json, double duration_s, size_t streams,
                size_t batch, size_t payload) {
  const int reps = Reps();
  std::vector<NetRun> runs;
  for (int rep = 0; rep < reps; ++rep) {
    runs.push_back(MeasureConfig(duration_s, batch, payload, streams));
  }
  std::sort(runs.begin(), runs.end(), [](const NetRun& a, const NetRun& b) {
    return a.items_per_sec < b.items_per_sec;
  });
  std::vector<double> rates;
  for (const NetRun& r : runs) {
    rates.push_back(r.items_per_sec);
  }
  const double median = Quantile(rates, 0.5);
  const double iqr = Quantile(rates, 0.75) - Quantile(rates, 0.25);
  // Latency, volume and backlog come from the median run.
  const NetRun& mid = runs[(runs.size() - 1) / 2];

  char tag[64];
  std::snprintf(tag, sizeof(tag), "mux_streams%zu_batch%zu_payload%zuB",
                streams, batch, payload);
  std::printf("  %-32s %12.0f %10.0f %10.1f %10.1f %10.1f %12llu\n", tag,
              median, iqr, mid.mib_per_sec, mid.send_p50_us, mid.send_p99_us,
              static_cast<unsigned long long>(mid.peak_unacked));
  json.BeginRow();
  json.Add("config", std::string(tag));
  json.Add("mode", std::string("mux"));
  json.Add("streams", static_cast<uint64_t>(streams));
  json.Add("batch_items", static_cast<uint64_t>(batch));
  json.Add("payload_bytes", static_cast<uint64_t>(payload));
  json.Add("hw_threads", HwThreads());
  json.Add("reps", static_cast<uint64_t>(reps));
  json.Add("items_per_sec", median);
  json.Add("items_iqr_per_sec", iqr);
  json.Add("mib_per_sec", mid.mib_per_sec);
  json.Add("send_p50_us", mid.send_p50_us);
  json.Add("send_p99_us", mid.send_p99_us);
  json.Add("items", mid.items);
  json.Add("peak_unacked", mid.peak_unacked);
}

}  // namespace
}  // namespace sdg::bench

int main() {
  using namespace sdg::bench;

  const double duration_s = MeasureSeconds(1.0);

  PrintHeader("micro_net", "loopback mux transport: batch/payload/stream sweep");
  std::printf("  %-32s %12s %10s %10s %10s %10s %12s\n", "config",
              "items/s", "IQR", "MiB/s", "p50 us", "p99 us", "peak unackd");

  BenchJson json;
  json.Stamp();
  // One stream: the per-send cost of a lone channel on the shared socket.
  for (size_t batch : {1, 64, 512}) {
    for (size_t payload : {16, 256}) {
      MeasureRow(json, duration_s, /*streams=*/1, batch, payload);
    }
  }
  // Fan-out: N logical channels over ONE socket, the connection count a
  // per-channel design would pay one socket apiece for.
  for (size_t streams : {4, 16}) {
    for (size_t batch : {1, 64}) {
      MeasureRow(json, duration_s, streams, batch, /*payload=*/16);
    }
  }

  if (json.WriteFile("BENCH_net.json")) {
    PrintNote("wrote BENCH_net.json");
  }
  return 0;
}
