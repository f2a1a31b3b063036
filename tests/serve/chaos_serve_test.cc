// Chaos for the serve path: a client streams requests at a real serving
// fleet (in-process head + gateway, real elastic_worker child processes with
// the replica feed on) while a worker is SIGKILLed mid-stream and recovered.
//
// The contract under fire: every request gets a response, and every response
// is either kRespOk, kRespOverloaded (shed before touching state), or
// kRespError (e.g. the owner died mid-request — retriable, puts and dels are
// idempotent). A client that retries on anything but kRespOk must end up
// with exactly the state it wrote: acked writes survive the kill, and no
// response ever carries a wrong answer — not during the outage, not after.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/runtime/elastic.h"
#include "src/serve/client.h"
#include "src/serve/gateway.h"
#include "tests/common/scoped_test_dir.h"
#include "tests/harness/process_fleet.h"

#ifndef SDG_ELASTIC_WORKER_BIN
#error "SDG_ELASTIC_WORKER_BIN must point at the elastic_worker binary"
#endif

namespace sdg::serve {
namespace {

constexpr uint32_t kPartitions = 4;
constexpr int64_t kKeys = 120;
constexpr int64_t kKillAfter = 40;  // keys written before the SIGKILL

std::string ValueOf(int64_t k) { return "v" + std::to_string(k); }

TEST(ChaosServeTest, SigkillServingWorkerMidStream) {
  ScopedTestDir dir("chaos_serve");
  elastic::ElasticHeadOptions h;
  h.state = "store";
  h.partitions = kPartitions;
  h.entries = {"put", "get", "del"};
  h.backup_root = (dir.path() / "backup").string();
  h.monitor_interval_ms = 50;
  h.migrate_timeout_ms = 20000;
  elastic::ElasticHead head(h);
  ASSERT_TRUE(head.Start().ok());

  GatewayOptions go;
  go.partitions = kPartitions;
  // Short deadlines: the outage must surface as retriable responses, not a
  // gateway wedged for the elastic default.
  go.request_timeout_ms = 2000;
  go.inject_deadline_ms = 2000;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  uint16_t data_port = harness::PickFreePort();
  ASSERT_NE(data_port, 0);
  auto spawn = [&]() -> pid_t {
    harness::WorkerSpec spec;
    spec.app = "kv";
    spec.head_port = head.port();
    spec.member_id = 1;
    spec.data_port = data_port;
    spec.backup_root = h.backup_root;
    spec.partitions = kPartitions;
    spec.ckpt_interval_ms = 100;
    spec.serve = true;
    return harness::SpawnElasticWorker(SDG_ELASTIC_WORKER_BIN, spec);
  };
  pid_t pid = spawn();
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(head.WaitForMembers(1, 20000));
  ASSERT_TRUE(head.WaitForAssignment(20000));

  // The client thread: writes every key with retry-until-acked, and after
  // each acked write strong-reads an earlier acked key — an OK response with
  // the wrong value at any point is an immediate failure. Counts outcomes.
  std::atomic<bool> killed{false};
  std::atomic<uint64_t> retriable{0};
  std::atomic<int64_t> progress{0};
  std::atomic<bool> client_failed{false};
  std::thread client_thread([&] {
    KvClient client({"127.0.0.1", head.port()});
    if (!client.Connect().ok()) {
      client_failed = true;
      return;
    }
    auto retry_until_ok = [&](auto&& fn, const char* what,
                              int64_t k) -> Result<net::ResponseMsg> {
      for (int attempt = 0; attempt < 600; ++attempt) {
        auto resp = fn();
        if (!resp.ok()) {
          // Transport-level failure (e.g. recv timeout): reconnect and keep
          // retrying — the ops are idempotent.
          retriable.fetch_add(1);
          client.Close();
          if (!client.Connect().ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          continue;
        }
        if (resp->code == net::kRespOk) {
          return resp;
        }
        // Shed or errored: both retriable, neither touched state visibly.
        EXPECT_TRUE(resp->code == net::kRespOverloaded ||
                    resp->code == net::kRespError)
            << what << " key " << k << ": unknown response code "
            << static_cast<int>(resp->code);
        retriable.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return Status(StatusCode::kDeadlineExceeded, "retries exhausted");
    };

    for (int64_t k = 0; k < kKeys; ++k) {
      auto put = retry_until_ok(
          [&] { return client.Put(k, ValueOf(k)); }, "put", k);
      if (!put.ok()) {
        ADD_FAILURE() << "put " << k << " never acked: "
                      << put.status().ToString();
        client_failed = true;
        return;
      }
      // Read back an already-acked key through the dataflow. Puts and gets
      // ride separate per-entry channels with no cross-channel ordering, so
      // a get may briefly race ahead of the put it chases — but it must
      // CONVERGE to the acked value; anything else is a lost write.
      int64_t probe = k / 2;
      bool converged = false;
      // Time-bounded, not round-bounded: convergence waits out the respawned
      // worker's restore+replay, whose duration is load-dependent — a round
      // count silently shrinks the wall-clock budget as responses get faster.
      // Generous because a parallel suite run on a small host can stretch
      // the respawn+replay well past what the test costs alone; the ctest
      // timeout (120 s) still bounds a true wedge.
      auto converge_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(90);
      while (!converged &&
             std::chrono::steady_clock::now() < converge_deadline) {
        auto get = retry_until_ok(
            [&] { return client.Get(probe); }, "get", probe);
        if (get.ok() && get->value == ValueOf(probe)) {
          converged = true;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (!converged) {
        ADD_FAILURE() << "strong get " << probe
                      << " never converged to the acked value";
        client_failed = true;
        return;
      }
      progress.store(k + 1);
    }
  });

  // Mid-stream: SIGKILL the only serving worker and respawn it under the
  // same member id / data port / backup root. The rejoin path restores the
  // last checkpoint and the head replays its unacked logs — no operator
  // action needed beyond the respawn.
  while (progress.load() < kKillAfter && !client_failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!client_failed.load()) {
    harness::KillHard(pid);
    killed = true;
    pid = spawn();
    EXPECT_GT(pid, 0);
  }

  client_thread.join();
  ASSERT_FALSE(client_failed.load());
  EXPECT_EQ(progress.load(), kKeys);

  // Drain, then verify the exact final contents through strong gets — acked
  // writes from before the kill included.
  ASSERT_TRUE(head.AwaitQuiesce(60000));
  KvClient verifier({"127.0.0.1", head.port()});
  ASSERT_TRUE(verifier.Connect().ok());
  for (int64_t k = 0; k < kKeys; ++k) {
    bool matched = false;
    for (int attempt = 0; attempt < 200 && !matched; ++attempt) {
      auto resp = verifier.Get(k);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      if (resp->code == net::kRespOk) {
        ASSERT_EQ(resp->value, ValueOf(k)) << "key " << k << " lost or wrong";
        matched = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    ASSERT_TRUE(matched) << "key " << k << " unreadable after recovery";
  }

  // Bounded-stale reads after the dust settles: an admissible replica answer
  // must also be exact (the fleet is idle).
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (int64_t k = 0; k < kKeys; k += 7) {
    auto resp = verifier.Get(k, /*stale=*/true, /*max_epoch_lag=*/8);
    ASSERT_TRUE(resp.ok());
    if (resp->code == net::kRespOk) {
      EXPECT_EQ(resp->value, ValueOf(k)) << "stale get " << k;
    }
  }

  EXPECT_TRUE(killed.load());
  verifier.Close();
  harness::StopSoft(pid);
  gw.Stop();
  head.Stop();
}

}  // namespace
}  // namespace sdg::serve
