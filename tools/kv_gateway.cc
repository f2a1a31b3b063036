// Serving-fleet head + gateway process: the front door of a live KV cluster.
//
//   kv_gateway --backup DIR [--port N] [--partitions N] [--high-water N]
//              [--low-water N] [--min-members N] [--auto-recover-ms N]
//
// Run against serve workers (tools/elastic_worker --serve):
//
//   term 1: kv_gateway --backup /tmp/kv --port 7600
//   term 2: elastic_worker --app kv --serve --head-port 7600 --id 1 \
//             --backup /tmp/kv --ckpt-interval-ms 100
//   term 3: kv_loadgen --port 7600 --mode bench --duration-ms 2000
//
// Prints "HEAD port=<membership/serve port>" at start and "SERVING
// members=<n>" once the fleet is assigned; clients (kv_loadgen, KvClient)
// connect to the same port. --high-water/--low-water set the admission
// marks (requests queued at the gateway + strong gets waiting on an owner +
// the owner's mailbox depth). SIGTERM/SIGINT prints a final GWSTATS line and
// exits cleanly. scripts/net_smoke.sh drives this as the serve-phase smoke.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/runtime/elastic.h"
#include "src/serve/gateway.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --backup DIR [--port N] [--partitions N] "
               "[--high-water N] [--low-water N] [--min-members N] "
               "[--auto-recover-ms N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string backup;
  uint32_t partitions = 4;
  size_t min_members = 1;
  int auto_recover_ms = 0;
  sdg::serve::GatewayOptions gw;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<uint16_t>(std::atoi(need("--port")));
    } else if (std::strcmp(argv[i], "--backup") == 0) {
      backup = need("--backup");
    } else if (std::strcmp(argv[i], "--partitions") == 0) {
      partitions = static_cast<uint32_t>(std::atoi(need("--partitions")));
    } else if (std::strcmp(argv[i], "--high-water") == 0) {
      gw.admission.high_water =
          std::strtoull(need("--high-water"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--low-water") == 0) {
      gw.admission.low_water = std::strtoull(need("--low-water"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--min-members") == 0) {
      min_members = static_cast<size_t>(std::atoi(need("--min-members")));
    } else if (std::strcmp(argv[i], "--auto-recover-ms") == 0) {
      auto_recover_ms = std::atoi(need("--auto-recover-ms"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
    }
  }
  if (backup.empty()) {
    Usage(argv[0]);
  }

  sdg::elastic::ElasticHeadOptions options;
  options.port = port;
  options.state = "store";
  options.entries = {"put", "get", "del"};  // must match --serve workers
  options.partitions = partitions;
  options.backup_root = backup;
  options.auto_recover_ms = auto_recover_ms;
  sdg::elastic::ElasticHead head(std::move(options));
  sdg::Status st = head.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("HEAD port=%u\n", static_cast<unsigned>(head.port()));
  std::fflush(stdout);

  gw.partitions = partitions;
  sdg::serve::ServeGateway gateway(&head, gw);
  st = gateway.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "gateway: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!head.WaitForMembers(min_members, 60000) ||
      !head.WaitForAssignment(60000)) {
    std::fprintf(stderr, "fleet never assembled\n");
    return 1;
  }
  std::printf("SERVING members=%zu\n", min_members);
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  sdg::serve::ServeGateway::Stats s = gateway.stats();
  gateway.Stop();
  std::printf(
      "GWSTATS accepted=%llu shed=%llu puts=%llu dels=%llu strong_gets=%llu "
      "replica_hits=%llu replica_misses=%llu timeouts=%llu errors=%llu "
      "batches=%llu epochs=%llu\n",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.puts),
      static_cast<unsigned long long>(s.dels),
      static_cast<unsigned long long>(s.strong_gets),
      static_cast<unsigned long long>(s.replica_hits),
      static_cast<unsigned long long>(s.replica_misses),
      static_cast<unsigned long long>(s.timeouts),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.replica_epochs_applied));
  std::fflush(stdout);
  head.Stop();
  return 0;
}
