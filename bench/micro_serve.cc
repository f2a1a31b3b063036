// Serve front-door bench (BENCH_serve.json).
//
// One process, loopback TCP: a real ElasticHead + ServeGateway, a real
// ElasticWorker with the replica feed on, and the serve load generator as
// the client — the exact three-process serving topology of
// tools/kv_gateway + elastic_worker --serve + kv_loadgen, minus the process
// boundaries. Three stories, each row a fresh fleet so no gateway state
// leaks between rows:
//
//   1. Load sweep: open-loop QPS vs p50/p99 at several offered loads
//      (latency measured from the scheduled send time — no coordinated
//      omission), plus a closed-loop row.
//   2. Peak: a put-only load past saturation; items_per_sec is the sustained
//      accepted rate, and admission sheds the excess.
//   3. Read scaling: bounded-stale gets answered from the gateway's replica
//      table vs the write-path ceiling and the strong-read path — §3.2's
//      partial-state read replicas are the only row that clears the
//      dataflow's single-host ceiling.
//
// The first element of the JSON array stamps the git revision and host the
// rows were measured on; it has no "config", so scripts/diff_bench.py skips
// it.
//
// Short mode: SDG_BENCH_SECONDS=0.2 (CI smoke; rows carry measure_s so the
// trajectory diff never compares smoke windows against full runs).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/apps/kv.h"
#include "src/runtime/elastic.h"
#include "src/serve/client.h"
#include "src/serve/gateway.h"
#include "src/serve/loadgen.h"

namespace sdg::bench {
namespace {

constexpr uint32_t kPartitions = 4;

// A full serving fleet on loopback: head + gateway + one feed-enabled worker.
struct ServeFleet {
  std::filesystem::path root;
  std::unique_ptr<elastic::ElasticHead> head;
  std::unique_ptr<elastic::ElasticWorker> worker;
  std::unique_ptr<serve::ServeGateway> gateway;

  bool Start() {
    root = FreshBenchDir("serve");
    elastic::ElasticHeadOptions h;
    h.state = "store";
    h.partitions = kPartitions;
    h.entries = {"put", "get", "del"};
    h.backup_root = (root / "backup").string();
    h.monitor_interval_ms = 50;
    head = std::make_unique<elastic::ElasticHead>(h);
    if (!head->Start().ok()) {
      return false;
    }

    apps::KvOptions kv;
    kv.partitions = kPartitions;
    auto g = apps::BuildKvSdg(kv);
    if (!g.ok()) {
      return false;
    }
    elastic::ElasticWorkerOptions w;
    w.member_id = 1;
    w.name = "w1";
    w.head_port = head->port();
    w.state = "store";
    w.partitions = kPartitions;
    w.entries = {"put", "get", "del"};
    w.backup_root = h.backup_root;
    w.checkpoint_interval_ms = 100;
    w.serve_feed = true;
    w.forward_sinks = {"get"};
    worker = std::make_unique<elastic::ElasticWorker>(std::move(*g),
                                                      std::move(w));
    if (!worker->Start().ok() || !worker->WaitJoined(20000) ||
        !head->WaitForAssignment(20000)) {
      return false;
    }

    serve::GatewayOptions go;
    go.partitions = kPartitions;
    gateway = std::make_unique<serve::ServeGateway>(head.get(), go);
    return gateway->Start().ok();
  }

  // Writes keys 0..n-1 and waits until every partition's replica answers a
  // bounded-stale read (the feed has based every partition).
  bool Prefill(int64_t n) {
    serve::KvClient client({"127.0.0.1", head->port()});
    if (!client.Connect().ok()) {
      return false;
    }
    for (int64_t k = 0; k < n; ++k) {
      auto resp = client.Put(k, "v" + std::to_string(k));
      if (!resp.ok()) {
        std::fprintf(stderr, "prefill put %lld: %s\n",
                     static_cast<long long>(k),
                     resp.status().ToString().c_str());
        return false;
      }
      if (resp->code != net::kRespOk) {
        std::fprintf(stderr, "prefill put %lld: code %d\n",
                     static_cast<long long>(k),
                     static_cast<int>(resp->code));
        return false;
      }
    }
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const auto& table = gateway->replicas();
    uint32_t warm = 0;
    while (warm < kPartitions) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr,
                     "replica warmup timed out: %u/%u partitions warm, "
                     "%llu epochs applied, %llu feed errors, "
                     "%llu published by worker\n",
                     warm, kPartitions,
                     static_cast<unsigned long long>(
                         gateway->replicas().epochs_applied()),
                     static_cast<unsigned long long>(
                         gateway->replicas().feed_errors()),
                     static_cast<unsigned long long>(
                         worker->feed_epochs_published()));
        return false;
      }
      warm = 0;
      std::vector<bool> seen(kPartitions, false);
      for (int64_t k = 0; k < n; ++k) {
        uint32_t p = table.PartitionOf(k);
        if (!seen[p] && table.TryGet(k, 8).admissible) {
          seen[p] = true;
          ++warm;
        }
      }
      if (warm < kPartitions) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    client.Close();
    return true;
  }

  void Stop() {
    if (gateway != nullptr) {
      gateway->Stop();
    }
    if (worker != nullptr) {
      worker->Stop();
    }
    if (head != nullptr) {
      head->Stop();
    }
    std::filesystem::remove_all(root);
  }
};

struct RowSpec {
  std::string config;
  double offered_qps = 0;  // 0 = closed loop
  int connections = 4;
  double get_fraction = 0;
  double stale_fraction = 0;
  int64_t prefill = 0;
};

void RunRow(BenchJson& json, const RowSpec& spec, double measure_s) {
  ServeFleet fleet;
  if (!fleet.Start()) {
    std::fprintf(stderr, "serve fleet failed to start for %s\n",
                 spec.config.c_str());
    fleet.Stop();
    return;
  }
  if (spec.prefill > 0 && !fleet.Prefill(spec.prefill)) {
    std::fprintf(stderr, "prefill/replica warmup failed for %s\n",
                 spec.config.c_str());
    fleet.Stop();
    return;
  }

  serve::LoadGenOptions o;
  o.port = fleet.head->port();
  o.connections = spec.connections;
  o.duration_ms = static_cast<int>(measure_s * 1000);
  o.offered_qps = spec.offered_qps;
  o.get_fraction = spec.get_fraction;
  o.stale_fraction = spec.stale_fraction;
  o.max_epoch_lag = 8;
  o.key_space = spec.prefill > 0 ? spec.prefill : 4096;
  o.pipeline = 128;
  auto report = serve::RunLoadGen(o);
  auto stats = fleet.gateway->stats();
  fleet.Stop();
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen failed for %s: %s\n", spec.config.c_str(),
                 report.status().ToString().c_str());
    return;
  }

  const double batch_mean =
      stats.batches > 0
          ? static_cast<double>(stats.puts + stats.dels + stats.strong_gets) /
                static_cast<double>(stats.batches)
          : 0;
  std::printf(
      "  %-22s %8.0f qps  p50 %7.3f ms  p99 %8.3f ms  shed %6llu  "
      "replica %6llu  batch mean %.1f\n",
      spec.config.c_str(), report->achieved_qps, report->latency_ms.p50,
      report->latency_ms.p99,
      static_cast<unsigned long long>(report->overloaded),
      static_cast<unsigned long long>(report->replica_answers), batch_mean);

  json.BeginRow();
  json.Add("config", spec.config);
  json.Add("mode", spec.offered_qps > 0 ? std::string("open")
                                        : std::string("closed"));
  json.Add("offered_qps", spec.offered_qps);
  json.Add("connections", static_cast<uint64_t>(spec.connections));
  json.Add("get_fraction", spec.get_fraction);
  json.Add("stale_fraction", spec.stale_fraction);
  json.Add("measure_s", measure_s);
  json.Add("hw_threads", HwThreads());
  json.Add("items_per_sec", report->achieved_qps);
  json.Add("p50_ms", report->latency_ms.p50);
  json.Add("p99_ms", report->latency_ms.p99);
  json.Add("overloaded", report->overloaded);
  json.Add("errors", report->errors);
  json.Add("replica_answers", report->replica_answers);
  json.Add("batch_mean", batch_mean);
}

}  // namespace
}  // namespace sdg::bench

int main() {
  using namespace sdg::bench;
  double measure_s = MeasureSeconds(2.0);
  int64_t prefill = static_cast<int64_t>(512 * Scale());
  if (prefill < 64) {
    prefill = 64;
  }

  PrintHeader("serve", "front-door QPS vs latency (group commit, "
                       "admission control, replica reads)");
  PrintNote("open-loop latency runs from the scheduled send time; "
            "items_per_sec is the accepted (kRespOk) rate");

  BenchJson json;
  json.Stamp();
  std::vector<RowSpec> rows = {
      // 1. Load sweep, 50/50 put/strong-get.
      {"open_mixed_2k", 2000, 4, 0.5, 0, 0},
      {"open_mixed_6k", 6000, 4, 0.5, 0, 0},
      {"open_mixed_12k", 12000, 4, 0.5, 0, 0},
      {"closed_mixed_8c", 0, 8, 0.5, 0, 0},
      // 2. Peak: put-only, past saturation.
      {"peak_60k", 60000, 4, 0, 0, 0},
      // 3. Read scaling: replica reads vs the strong path.
      {"strong_read_closed_8c", 0, 8, 1.0, 0, 512},
      {"replica_read_60k", 60000, 4, 1.0, 1.0, 512},
  };
  for (auto& spec : rows) {
    if (spec.prefill > 0) {
      spec.prefill = prefill;
    }
    RunRow(json, spec, measure_s);
  }

  if (!json.WriteFile("BENCH_serve.json")) {
    std::fprintf(stderr, "failed to write BENCH_serve.json\n");
    return 1;
  }
  std::printf("  wrote BENCH_serve.json\n");
  return 0;
}
