#include "fleet.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

namespace perfbench {

bool Child::Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  Kill();
  buf_.clear();
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) {
    return false;
  }
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return false;
  }
  // Everything the child needs is prepared before fork: only
  // async-signal-safe calls run between fork and exec.
  std::vector<char*> args;
  for (const auto& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    close(log_fd);
    return false;
  }
  if (pid == 0) {
    setpgid(0, 0);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(127);  // the parent died before the death signal was armed
    }
    dup2(pipefd[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  setpgid(pid, pid);  // also from the parent: no race with the first kill
  close(pipefd[1]);
  close(log_fd);
  pid_ = pid;
  out_fd_ = pipefd[0];
  return true;
}

bool Child::WaitLine(const std::string& prefix, int timeout_ms, std::string* rest) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    size_t start = 0;
    for (size_t nl; (nl = buf_.find('\n', start)) != std::string::npos; start = nl + 1) {
      std::string line = buf_.substr(start, nl - start);
      if (line.rfind(prefix, 0) == 0) {
        buf_.erase(0, nl + 1);
        if (rest != nullptr) {
          *rest = line.substr(prefix.size());
        }
        return true;
      }
    }
    buf_.erase(0, start);
    if (out_fd_ < 0) {
      return false;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) {
      return false;
    }
    pollfd p{out_fd_, POLLIN, 0};
    int r = poll(&p, 1, static_cast<int>(left));
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    char tmp[4096];
    ssize_t n = read(out_fd_, tmp, sizeof(tmp));
    if (n <= 0) {
      close(out_fd_);
      out_fd_ = -1;
      continue;
    }
    buf_.append(tmp, static_cast<size_t>(n));
  }
}

void Child::Stop(int grace_ms) {
  if (pid_ <= 0) {
    return;
  }
  kill(-pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      kill(-pid_, SIGKILL);  // anything the child left in its group
      pid_ = -1;
      Kill();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
}

void Child::Kill() {
  if (pid_ > 0) {
    kill(-pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

bool NoStrayFleet(std::string* who) {
  DIR* proc = opendir("/proc");
  if (proc == nullptr) {
    return true;
  }
  bool clean = true;
  while (dirent* e = readdir(proc)) {
    char* end = nullptr;
    long pid = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0' || pid == getpid()) {
      continue;
    }
    std::ifstream stat(std::string("/proc/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(stat, line)) {
      continue;
    }
    size_t open_paren = line.find('(');
    size_t close_paren = line.rfind(')');
    if (open_paren == std::string::npos || close_paren == std::string::npos ||
        close_paren + 2 >= line.size()) {
      continue;
    }
    std::string comm = line.substr(open_paren + 1, close_paren - open_paren - 1);
    char state = line[close_paren + 2];
    if (state != 'Z' && (comm == "elastic_worker" || comm == "kv_gateway")) {
      clean = false;
      if (who != nullptr) {
        *who += comm + "(pid " + e->d_name + ") ";
      }
    }
  }
  closedir(proc);
  return clean;
}

std::string TailOf(const std::string& path, size_t lines) {
  std::ifstream in(path);
  std::deque<std::string> tail;
  for (std::string line; std::getline(in, line);) {
    tail.push_back(line);
    if (tail.size() > lines) {
      tail.pop_front();
    }
  }
  std::string out;
  for (const auto& l : tail) {
    out += "    " + l + "\n";
  }
  return out;
}

namespace {

std::vector<std::string> WorkerArgs(const FleetConfig& c, uint16_t head_port,
                                    uint16_t data_port) {
  return {c.bin_dir + "/elastic_worker", "--app", "kv", "--serve",
          "--head-port", std::to_string(head_port), "--id", "1",
          "--backup", c.work_dir + "/backup",
          "--partitions", std::to_string(c.partitions),
          "--ckpt-interval-ms", std::to_string(c.ckpt_interval_ms),
          "--data-port", std::to_string(data_port)};
}

bool ParsePort(const std::string& rest, uint16_t* port) {
  long v = std::strtol(rest.c_str(), nullptr, 10);
  if (v <= 0 || v > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(v);
  return true;
}

bool SpawnWorker(const FleetConfig& c, uint16_t head_port, uint16_t data_port,
                 int incarnation, Child* worker, uint16_t* ready_port) {
  std::string log = c.work_dir + "/worker" + std::to_string(incarnation) + ".log";
  std::string rest;
  if (!worker->Spawn(WorkerArgs(c, head_port, data_port), log) ||
      !worker->WaitLine("READY port=", 30000, &rest) || !ParsePort(rest, ready_port)) {
    std::fprintf(stderr, "perfbench: elastic_worker did not become ready\n%s",
                 TailOf(log).c_str());
    return false;
  }
  return true;
}

}  // namespace

bool Fleet::Start() {
  std::string log = config_.work_dir + "/gateway.log";
  std::string rest;
  if (!gateway_.Spawn({config_.bin_dir + "/kv_gateway", "--backup", config_.work_dir + "/backup",
                       "--port", "0", "--partitions", std::to_string(config_.partitions)},
                      log) ||
      !gateway_.WaitLine("HEAD port=", 30000, &rest) || !ParsePort(rest, &port_)) {
    std::fprintf(stderr, "perfbench: kv_gateway did not start\n%s", TailOf(log).c_str());
    return false;
  }
  if (!StartWorker()) {
    return false;
  }
  if (!gateway_.WaitLine("SERVING", 60000, nullptr)) {
    std::fprintf(stderr, "perfbench: fleet never assembled\n%s", TailOf(log).c_str());
    return false;
  }
  return true;
}

bool Fleet::StartWorker() {
  return SpawnWorker(config_, port_, data_port_, incarnation_++, &worker_, &data_port_);
}

bool Fleet::CrashAndRestartWorker() {
  worker_.Kill();
  return StartWorker();
}

void Fleet::Stop() {
  worker_.Stop();
  gateway_.Stop();
}

bool StartWorkerOnly(const FleetConfig& config, uint16_t head_port, Child* worker) {
  uint16_t ready_port = 0;
  return SpawnWorker(config, head_port, 0, 0, worker, &ready_port);
}

}  // namespace perfbench
