// Process hygiene for the deployed serving fleet: the shipped kv_gateway and
// elastic_worker binaries run as children of the benchmark, each in its own
// process group with PR_SET_PDEATHSIG, so a benchmark that dies for any
// reason takes its fleet with it. Every exit path kills and reaps (RAII).
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// One spawned child. Its stdout is a pipe the benchmark reads protocol lines
// from ("HEAD port=", "READY port="); its stderr goes to `log_path`.
class Child {
 public:
  Child() = default;
  ~Child() { Kill(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Must be called from the main thread: PR_SET_PDEATHSIG fires when the
  // forking *thread* exits.
  bool Spawn(const std::vector<std::string>& argv, const std::string& log_path);
  // Waits for a stdout line starting with `prefix`; returns the rest of it.
  bool WaitLine(const std::string& prefix, int timeout_ms, std::string* rest);
  // SIGTERM, a short grace period, then SIGKILL; always reaps.
  void Stop(int grace_ms = 3000);
  // SIGKILL the group and reap (the crash the recovery check injects).
  void Kill();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

// Fails when an elastic_worker or kv_gateway process is already alive on
// the machine: strays depress every number (they compete for the same cores).
bool NoStrayFleet(std::string* who);

// Last `lines` lines of a child's log, for diagnostics.
std::string TailOf(const std::string& path, size_t lines = 20);

// The three-process serving topology: kv_gateway (head + gateway) and one
// elastic_worker --serve; the benchmark process is the client.
struct FleetConfig {
  std::string bin_dir;   // holds kv_gateway and elastic_worker
  std::string work_dir;  // private: backup store + child logs
  uint32_t partitions = 4;
  int ckpt_interval_ms = 100;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config) : config_(std::move(config)) {}
  // Spawns both processes and waits until the gateway reports SERVING.
  bool Start();
  // SIGKILLs the worker and starts a fresh incarnation with the same member
  // id, data port and backup store (restart recovery).
  bool CrashAndRestartWorker();
  void Stop();

  uint16_t port() const { return port_; }
  pid_t gateway_pid() const { return gateway_.pid(); }
  pid_t worker_pid() const { return worker_.pid(); }

 private:
  bool StartWorker();

  FleetConfig config_;
  Child gateway_;
  Child worker_;
  uint16_t port_ = 0;
  uint16_t data_port_ = 0;
  int incarnation_ = 0;
};

// Host-side half of the fleet for traced runs: only the worker process;
// the head + gateway are hosted by the benchmark itself.
bool StartWorkerOnly(const FleetConfig& config, uint16_t head_port, Child* worker);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
