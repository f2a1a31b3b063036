// Client-side driver for a serving KV fleet (kv_gateway + --serve workers).
//
//   kv_loadgen --port N [--host H] --mode bench|smoke
//     bench: runs the open/closed-loop load generator and prints one JSON
//            line (machine-readable; offered_qps 0 = closed loop).
//     smoke: deterministic fill / delete / overload-burst / drain / verify
//            sequence for scripts/net_smoke.sh — checks the exact KV
//            contents through strong gets, demands a nonzero shed count
//            under the deliberate burst (run it against a slowed worker,
//            elastic_worker --slow-us, and small admission marks), and at
//            least one bounded-stale get answered from a replica. Prints
//            SHED / REPLICA / KV OK lines.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/client.h"
#include "src/serve/loadgen.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port N [--host H] [--mode bench|smoke]\n"
      "  bench: [--connections N] [--duration-ms N] [--offered-qps F]\n"
      "         [--get-fraction F] [--stale-fraction F] [--max-lag N]\n"
      "         [--key-space N] [--value-bytes N] [--pipeline N] [--seed N]\n"
      "  smoke: [--keys N] [--burst N]\n",
      argv0);
  std::exit(2);
}

// Sync call with bounded retries on kOverloaded (shedding is a normal,
// always-retriable outcome).
template <typename Fn>
sdg::Result<sdg::net::ResponseMsg> Retry(Fn&& fn, int attempts = 200) {
  for (int i = 0; i < attempts; ++i) {
    auto resp = fn();
    if (!resp.ok() || resp->code != sdg::net::kRespOverloaded) {
      return resp;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return sdg::Status(sdg::StatusCode::kUnavailable, "still overloaded");
}

int RunSmoke(const std::string& host, uint16_t port, int64_t keys,
             int burst) {
  sdg::serve::KvClientOptions co;
  co.host = host;
  co.port = port;
  // Accepted burst puts are answered only as the slowed owner drains.
  co.recv_timeout_ms = 60000;
  sdg::serve::KvClient client(co);
  if (sdg::Status st = client.Connect(); !st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 1;
  }

  std::map<int64_t, std::string> model;
  // Reads `k` until it matches the model. Writes and reads ride separate
  // per-entry channels, so allow a settle window per key rather than
  // demanding instant agreement.
  auto check_key = [&](int64_t k, bool stale, uint64_t* replica_hits) {
    std::string want;
    if (auto it = model.find(k); it != model.end()) {
      want = it->second;
    }
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto resp = Retry([&] { return client.Get(k, stale, /*max_lag=*/8); });
      if (!resp.ok() || resp->code != sdg::net::kRespOk) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      bool from_replica =
          (resp->flags & sdg::net::kRespFromReplica) != 0;
      if (from_replica && replica_hits != nullptr) {
        ++*replica_hits;
      }
      if (resp->value == want) {
        return true;
      }
      // A stale answer may legitimately trail the last writes briefly.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::fprintf(stderr, "key %lld: wrong value (want '%s')\n",
                 static_cast<long long>(k), want.c_str());
    return false;
  };

  // 1. Deterministic fill + deletes: the reference model is exact.
  for (int64_t k = 0; k < keys; ++k) {
    std::string v = "v" + std::to_string(k);
    auto resp = Retry([&] { return client.Put(k, v); });
    if (!resp.ok() || resp->code != sdg::net::kRespOk) {
      std::fprintf(stderr, "put %lld failed\n",
                   static_cast<long long>(k));
      return 1;
    }
    model[k] = v;
  }
  for (int64_t k = 0; k < keys; k += 5) {
    // Puts and dels ride separate per-entry channels, so a del could
    // overtake its key's put on the way to a slow owner: read the put back
    // before deleting.
    if (!check_key(k, /*stale=*/false, nullptr)) {
      return 1;
    }
    auto resp = Retry([&] { return client.Del(k); });
    if (!resp.ok() || resp->code != sdg::net::kRespOk) {
      std::fprintf(stderr, "del %lld failed\n", static_cast<long long>(k));
      return 1;
    }
    model.erase(k);
  }

  // 2. Overload burst: pipeline far more puts (keys outside the verify range)
  // than a slowed owner's stream windows plus the gateway's queue can hold.
  // The gateway must shed some with kOverloaded, and every response must
  // still arrive.
  uint64_t shed = 0;
  uint64_t first_burst_id = 0;
  for (int i = 0; i < burst; ++i) {
    sdg::net::RequestMsg req;
    req.request_id = client.NextRequestId();
    if (i == 0) {
      first_burst_id = req.request_id;
    }
    req.op = sdg::net::kOpPut;
    req.key = 1000000 + i;
    req.value = "burst";
    if (sdg::Status st = client.Send(req); !st.ok()) {
      std::fprintf(stderr, "burst send: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  (void)first_burst_id;
  for (int i = 0; i < burst; ++i) {
    auto resp = client.Recv();
    if (!resp.ok()) {
      std::fprintf(stderr, "burst recv: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (resp->code == sdg::net::kRespOverloaded) {
      ++shed;
    }
  }
  std::printf("SHED n=%llu\n", static_cast<unsigned long long>(shed));
  std::fflush(stdout);
  if (shed == 0) {
    std::fprintf(stderr, "burst of %d never shed\n", burst);
    return 1;
  }

  // 3. Drain, then verify the exact contents via strong gets.
  for (int64_t k = 0; k < keys; ++k) {
    if (!check_key(k, /*stale=*/false, nullptr)) {
      return 1;
    }
  }

  // 4. Bounded-stale reads: give the checkpoint/feed cadence a moment, then
  // demand that replicas answer (and answer exactly — the fleet is quiesced).
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  uint64_t replica_hits = 0;
  for (int64_t k = 0; k < keys; ++k) {
    if (!check_key(k, /*stale=*/true, &replica_hits)) {
      return 1;
    }
  }
  std::printf("REPLICA hits=%llu\n",
              static_cast<unsigned long long>(replica_hits));
  if (replica_hits == 0) {
    std::fprintf(stderr, "no stale get was ever answered from a replica\n");
    return 1;
  }
  std::printf("KV OK n=%lld\n", static_cast<long long>(keys));
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "bench";
  sdg::serve::LoadGenOptions o;
  int64_t keys = 200;
  int burst = 10000;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      o.host = need("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      o.port = static_cast<uint16_t>(std::atoi(need("--port")));
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      mode = need("--mode");
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      o.connections = std::atoi(need("--connections"));
    } else if (std::strcmp(argv[i], "--duration-ms") == 0) {
      o.duration_ms = std::atoi(need("--duration-ms"));
    } else if (std::strcmp(argv[i], "--offered-qps") == 0) {
      o.offered_qps = std::atof(need("--offered-qps"));
    } else if (std::strcmp(argv[i], "--get-fraction") == 0) {
      o.get_fraction = std::atof(need("--get-fraction"));
    } else if (std::strcmp(argv[i], "--stale-fraction") == 0) {
      o.stale_fraction = std::atof(need("--stale-fraction"));
    } else if (std::strcmp(argv[i], "--max-lag") == 0) {
      o.max_epoch_lag = static_cast<uint32_t>(std::atoi(need("--max-lag")));
    } else if (std::strcmp(argv[i], "--key-space") == 0) {
      o.key_space = std::atoll(need("--key-space"));
    } else if (std::strcmp(argv[i], "--value-bytes") == 0) {
      o.value_bytes = std::atoi(need("--value-bytes"));
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      o.pipeline = std::atoi(need("--pipeline"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      o.seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      keys = std::atoll(need("--keys"));
    } else if (std::strcmp(argv[i], "--burst") == 0) {
      burst = std::atoi(need("--burst"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
    }
  }
  if (o.port == 0) {
    Usage(argv[0]);
  }

  if (mode == "smoke") {
    return RunSmoke(o.host, o.port, keys, burst);
  }
  if (mode != "bench") {
    Usage(argv[0]);
  }
  auto report = sdg::serve::RunLoadGen(o);
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "{\"mode\":\"bench\",\"offered_qps\":%.1f,\"connections\":%d,"
      "\"sent\":%llu,\"ok\":%llu,\"overloaded\":%llu,\"errors\":%llu,"
      "\"replica\":%llu,\"achieved_qps\":%.1f,\"p50_ms\":%.3f,"
      "\"p99_ms\":%.3f}\n",
      o.offered_qps, o.connections,
      static_cast<unsigned long long>(report->sent),
      static_cast<unsigned long long>(report->ok),
      static_cast<unsigned long long>(report->overloaded),
      static_cast<unsigned long long>(report->errors),
      static_cast<unsigned long long>(report->replica_answers),
      report->achieved_qps, report->latency_ms.p50, report->latency_ms.p99);
  std::fflush(stdout);
  return 0;
}
