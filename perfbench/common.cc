#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PidCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) {
    return -1;
  }
  // Fields after the parenthesised comm: state is field 3, utime 14, stime 15.
  size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return -1;
  }
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) {
      utime = std::strtoull(field.c_str(), nullptr, 10);
    } else if (i == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

// Seed-derived filler: a value written under another seed does not decode.
char FillerChar(uint64_t seed, size_t i) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  uint64_t h = (seed + 0x632BE59BD9B4E019ULL) * (i + 1) * 0x9E3779B97F4A7C15ULL;
  return kAlphabet[(h >> 33) % (sizeof(kAlphabet) - 1)];
}

// Writes `digits` lowercase hex digits of v.
void PutHex(char* out, uint64_t v, int digits) {
  static const char kHex[] = "0123456789abcdef";
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = kHex[v & 0xF];
    v >>= 4;
  }
}

bool GetHex(const char* in, int digits, uint64_t* v) {
  uint64_t x = 0;
  for (int i = 0; i < digits; ++i) {
    char c = in[i];
    int d = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (d < 0) {
      return false;
    }
    x = (x << 4) | static_cast<uint64_t>(d);
  }
  *v = x;
  return true;
}

// Layout: 16 hex key ':' 4 hex writer ':' 12 hex seq ':' filler.
constexpr size_t kHeadBytes = 16 + 1 + 4 + 1 + 12 + 1;

}  // namespace

std::string EncodeValue(const WriteId& w, uint64_t seed) {
  std::string v(kValueBytes, ':');
  PutHex(&v[0], static_cast<uint64_t>(w.key), 16);
  PutHex(&v[17], w.writer, 4);
  PutHex(&v[22], w.seq, 12);
  for (size_t i = kHeadBytes; i < kValueBytes; ++i) {
    v[i] = FillerChar(seed, i);
  }
  return v;
}

bool DecodeValue(const std::string& v, uint64_t seed, WriteId* out) {
  uint64_t key = 0;
  uint64_t writer = 0;
  uint64_t seq = 0;
  if (v.size() != kValueBytes || !GetHex(&v[0], 16, &key) || !GetHex(&v[17], 4, &writer) ||
      !GetHex(&v[22], 12, &seq)) {
    return false;
  }
  WriteId w{static_cast<int64_t>(key), static_cast<uint32_t>(writer), seq};
  if (EncodeValue(w, seed) != v) {
    return false;
  }
  *out = w;
  return true;
}

double HostReferenceMs() {
  Rng rng(1, 0);
  std::vector<uint64_t> v(size_t{1} << 21);
  for (uint64_t& x : v) {
    x = rng.Next();
  }
  auto t0 = Clock::now();
  std::sort(v.begin(), v.end());
  return Ms(Clock::now() - t0);
}

bool ReadHostTicks(HostTicks* out) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return false;
  }
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                      &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) {
    return false;
  }
  out->total = 0;
  for (unsigned long long x : v) {
    out->total += x;
  }
  out->iowait = v[4];
  out->steal = v[7];
  return true;
}

void Report::Fail(const std::string& what, uint64_t n) {
  failed += n;
  correct = false;
  if (reported_++ < 10) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
