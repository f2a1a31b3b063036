// kv_write_peak: the deployed fleet (kv_gateway + elastic_worker --serve),
// driven from this process through the public serve::KvClient. Open loop
// from 2 connections (a sender and a receiver thread each), 70k req/s
// offered, 80% puts / 20% bounded-stale gets over 65,536 prefilled keys with
// 64-byte values; 4 partitions and the worker's 100 ms checkpoint interval.
// The traced run re-hosts head + gateway in this process (as
// tools/kv_gateway.cc does) and strips layers at the same mix: full KvClient
// path -> ElasticHead::InjectBatch -> one-node Cluster -> bare KeyedDict.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "fleet.h"
#include "src/runtime/elastic.h"
#include "src/serve/client.h"
#include "src/serve/gateway.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sdg::net::RequestMsg;
using sdg::net::ResponseMsg;

constexpr uint32_t kPartitions = 4;
constexpr int64_t kServeKeys = 65536;
constexpr uint32_t kMaxEpochLag = 8;
constexpr int kSetupRepeats = 3;
constexpr uint64_t kFirstRequestId = 1000;  // below: KvClient's own ping ids

// The measured load. Its gets are bounded-stale; the head strip sends the
// same share as strong gets.
struct ServeMix {
  int connections = 2;
  double get_frac = 0.2;
  double offered_qps = 70000;  // all connections together
};

sdg::serve::KvClientOptions ClientOptions(uint16_t port) {
  sdg::serve::KvClientOptions o;
  o.port = port;
  o.recv_timeout_ms = 15000;
  return o;
}

RequestMsg PutRequest(const WriteId& w, uint64_t seed) {
  RequestMsg r;
  r.op = sdg::net::kOpPut;
  r.key = w.key;
  r.value = EncodeValue(w, seed);
  return r;
}

RequestMsg GetRequest(int64_t key, bool stale) {
  RequestMsg r;
  r.op = sdg::net::kOpGet;
  r.key = key;
  if (stale) {
    r.flags |= sdg::net::kReadStale;
    r.max_epoch_lag = kMaxEpochLag;
  }
  return r;
}

// One request per key over `conns` pipelined connections (`window`
// outstanding each). Refusals are retried (always safe); `on_ok` sees every
// kRespOk. Returns the number of keys that ended in an error.
uint64_t Pipelined(uint16_t port, const std::vector<int64_t>& keys, int conns, size_t window,
                   const std::function<RequestMsg(int64_t)>& make,
                   const std::function<void(int64_t, const ResponseMsg&)>& on_ok) {
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      sdg::serve::KvClient client(ClientOptions(port));
      std::vector<int64_t> todo;
      for (size_t i = static_cast<size_t>(c); i < keys.size(); i += static_cast<size_t>(conns)) {
        todo.push_back(keys[i]);
      }
      if (!client.Connect().ok()) {
        errors.fetch_add(todo.size());
        return;
      }
      std::unordered_map<uint64_t, int64_t> inflight;
      uint64_t next_id = kFirstRequestId;
      size_t next = 0;
      while (next < todo.size() || !inflight.empty()) {
        while (next < todo.size() && inflight.size() < window) {
          RequestMsg req = make(todo[next]);
          req.request_id = next_id++;
          if (!client.Send(req).ok()) {
            errors.fetch_add(todo.size() - next + inflight.size());
            return;
          }
          inflight[req.request_id] = todo[next++];
        }
        auto resp = client.Recv();
        if (!resp.ok()) {
          errors.fetch_add(todo.size() - next + inflight.size());
          return;
        }
        auto it = inflight.find(resp->request_id);
        if (it == inflight.end()) {
          continue;
        }
        int64_t key = it->second;
        inflight.erase(it);
        if (resp->code == sdg::net::kRespOk) {
          on_ok(key, *resp);
        } else if (resp->code == sdg::net::kRespOverloaded) {
          todo.push_back(key);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  return errors.load();
}

std::vector<int64_t> Range(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    v[static_cast<size_t>(k)] = k;
  }
  return v;
}

constexpr int64_t kMarkers = 256;

// Writes every key once (writer 0, seq = key) and then, once all of those are
// acknowledged, a marker write to each of the top kMarkers keys by a writer
// of its own. The head applies each partition's puts in injection order, so
// a replica that shows a partition's markers holds that partition's whole
// prefill. (Key order proves nothing: refused prefill puts are retried late.)
bool Prefill(uint16_t port, uint64_t seed, Model* model, uint32_t* marker_writer) {
  uint64_t errors = Pipelined(
      port, Range(kServeKeys), 4, 256,
      [seed](int64_t k) { return PutRequest(WriteId{k, 0, static_cast<uint64_t>(k)}, seed); },
      [](int64_t, const ResponseMsg&) {});
  *marker_writer = model->AddWriter(kMarkers);
  WriterLog& log = model->log(*marker_writer);
  std::vector<int64_t> markers;
  for (int64_t k = kServeKeys - kMarkers; k < kServeKeys; ++k) {
    markers.push_back(k);
    log.keys.push_back(k);
    log.status.push_back(kPending);
  }
  const uint32_t w = *marker_writer;
  errors += Pipelined(
      port, markers, 4, 64,
      [seed, w](int64_t k) {
        return PutRequest(WriteId{k, w, static_cast<uint64_t>(k - (kServeKeys - kMarkers))}, seed);
      },
      [&log](int64_t k, const ResponseMsg&) {
        log.status[static_cast<size_t>(k - (kServeKeys - kMarkers))] = kAcked;
      });
  if (errors != 0) {
    std::fprintf(stderr, "perfbench: prefill failed for %llu keys\n",
                 static_cast<unsigned long long>(errors));
  }
  return errors == 0;
}

// One round of bounded-stale reads of the marker keys; true when every
// answer came from a replica and shows the marker. `max_epoch` is the
// highest replica epoch that answered.
bool ProbeReplicas(uint16_t port, uint64_t seed, uint32_t marker_writer, uint64_t* max_epoch) {
  std::vector<int64_t> probe;
  for (int64_t k = kServeKeys - kMarkers; k < kServeKeys; ++k) {
    probe.push_back(k);
  }
  std::mutex mu;
  int good = 0;
  *max_epoch = 0;
  uint64_t errors = Pipelined(
      port, probe, 1, probe.size(), [](int64_t k) { return GetRequest(k, true); },
      [&](int64_t k, const ResponseMsg& r) {
        WriteId w;
        bool ok = (r.flags & sdg::net::kRespFromReplica) != 0 &&
                  DecodeValue(r.value, seed, &w) && w.key == k && w.writer == marker_writer;
        std::lock_guard<std::mutex> lock(mu);
        good += ok;
        *max_epoch = std::max(*max_epoch, r.epoch);
      });
  return errors == 0 && good == static_cast<int>(probe.size());
}

// Until the gateway's replica table holds the whole prefill. Records in the
// model the epoch from which on it does: a replica may still serve an older
// epoch within the staleness bound (e.g. a base replayed after a feed
// reconnect), and there a key can legitimately be absent.
bool WarmReplicas(uint16_t port, uint64_t seed, uint32_t marker_writer, Model* model) {
  auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    uint64_t epoch = 0;
    if (ProbeReplicas(port, seed, marker_writer, &epoch)) {
      model->set_prefill_epoch(epoch);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "perfbench: replica warm-up timed out\n");
  return false;
}

// Prefill and replica warm-up of a freshly started fleet.
bool Fill(uint16_t port, uint64_t seed, Model* model) {
  uint32_t marker_writer = 0;
  return Prefill(port, seed, model, &marker_writer) &&
         WarmReplicas(port, seed, marker_writer, model);
}

// --- The measured load ----------------------------------------------------------

struct LoadResult {
  double window_s = 0;
  WindowedSamples put_ms;
  WindowedSamples get_ms;
  Samples late_ms;  // how late each send left vs its schedule
  double sender_cpu_s = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t ok_in_window = 0;  // kRespOk received before the window closed
  uint64_t refused = 0;
  uint64_t errors = 0;
  uint64_t lost = 0;
  uint64_t from_replica = 0;
  std::vector<ReadRec> reads;

  void Merge(const LoadResult& o) {
    put_ms.Merge(o.put_ms);
    get_ms.Merge(o.get_ms);
    late_ms.Merge(o.late_ms);
    sender_cpu_s += o.sender_cpu_s;
    sent += o.sent;
    ok += o.ok;
    ok_in_window += o.ok_in_window;
    refused += o.refused;
    errors += o.errors;
    lost += o.lost;
    from_replica += o.from_replica;
    reads.insert(reads.end(), o.reads.begin(), o.reads.end());
  }
};

ReadRec ToRead(int64_t key, const ResponseMsg& r, uint64_t seed) {
  ReadRec rec;
  rec.key = key;
  rec.decoded = DecodeValue(r.value, seed, &rec.got);
  if ((r.flags & sdg::net::kRespFromReplica) != 0) {
    rec.replica_absent = r.value.empty();
    rec.epoch = r.epoch;
  }
  return rec;
}

// A paced sender and a receiver share the connection. Latency runs from the
// *scheduled* send time, so a stall charges every request it delays.
void OpenConnection(uint16_t port, const ServeMix& mix, int conn, WriterLog& log,
                    uint32_t writer, uint64_t seed, uint64_t stream, Clock::time_point start,
                    Clock::time_point end, LoadResult* out) {
  sdg::serve::KvClient client(ClientOptions(port));
  if (!client.Connect().ok()) {
    out->errors++;
    return;
  }
  const double interval_ns = 1e9 * mix.connections / mix.offered_qps;
  const size_t capacity = static_cast<size_t>(
      std::ceil(std::chrono::duration<double, std::nano>(end - start).count() / interval_ns)) + 1;
  // Slot i is request i; the seq of a put is its slot, so `log` is indexed
  // by slot and holds -1 for the gets.
  log.keys.assign(capacity, -1);
  log.status.assign(capacity, kPending);
  std::vector<Clock::time_point> due(capacity);
  std::vector<uint8_t> is_get(capacity, 0);
  std::vector<int64_t> key_of(capacity, -1);
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<bool> sender_done{false};
  LoadResult rx;
  rx.put_ms.Start(start);
  rx.get_ms.Start(start);

  std::thread receiver([&] {
    uint64_t received = 0;
    for (;;) {
      if (sender_done.load(std::memory_order_acquire) &&
          received == published.load(std::memory_order_acquire)) {
        break;
      }
      sdg::Result<ResponseMsg> resp = client.Recv();
      if (!resp.ok()) {
        break;
      }
      auto now = Clock::now();
      uint64_t i = resp->request_id - kFirstRequestId;
      if (resp->request_id < kFirstRequestId ||
          i >= published.load(std::memory_order_acquire)) {
        continue;
      }
      ++received;
      answered.store(received, std::memory_order_relaxed);
      uint8_t outcome = resp->code == sdg::net::kRespOk           ? kAcked
                        : resp->code == sdg::net::kRespOverloaded ? kRefused
                                                                  : kErrored;
      if (is_get[i] == 0) {
        log.status[i] = outcome;
      }
      if (outcome == kAcked) {
        rx.ok++;
        rx.ok_in_window += now < end;
        double ms = Ms(now - due[i]);
        if (is_get[i] != 0) {
          rx.get_ms.Add(now, ms);
          rx.from_replica += (resp->flags & sdg::net::kRespFromReplica) != 0;
          rx.reads.push_back(ToRead(key_of[i], *resp, seed));
        } else {
          rx.put_ms.Add(now, ms);
        }
      } else if (outcome == kRefused) {
        rx.refused++;
      } else {
        rx.errors++;
      }
    }
  });

  Rng rng(seed, stream + static_cast<uint64_t>(conn));
  double cpu0 = ThreadCpuSeconds();
  uint64_t i = 0;
  for (; i < capacity; ++i) {
    auto when = start + std::chrono::nanoseconds(static_cast<int64_t>(interval_ns * i));
    if (when >= end) {
      break;
    }
    if (when > Clock::now()) {
      std::this_thread::sleep_until(when);
    }
    out->late_ms.Add(Ms(Clock::now() - when));
    int64_t key = SliceKey(rng, kServeKeys, conn, mix.connections);
    key_of[i] = key;
    RequestMsg req;
    if (rng.Unit() < mix.get_frac) {
      req = GetRequest(key, true);
      is_get[i] = 1;
    } else {
      req = PutRequest(WriteId{key, writer, i}, seed);
      log.keys[i] = key;
    }
    req.request_id = kFirstRequestId + i;
    due[i] = when;
    published.store(i + 1, std::memory_order_release);
    if (!client.Send(req).ok()) {
      ++i;
      break;
    }
  }
  out->sender_cpu_s = ThreadCpuSeconds() - cpu0;
  out->sent = i;
  sender_done.store(true, std::memory_order_release);
  // Bounded drain, then cut the wire so the receiver wakes up.
  auto drain_deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < drain_deadline) {
    if (answered.load(std::memory_order_relaxed) >= i) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client.Shutdown();
  receiver.join();
  out->Merge(rx);
  out->lost += i - (rx.ok + rx.refused + rx.errors);
}

// `stream` selects the key/op streams (values always encode under `seed`).
LoadResult RunLoad(uint16_t port, const ServeMix& mix, Model& model, uint64_t seed,
                   uint64_t stream, double seconds) {
  std::vector<LoadResult> parts(static_cast<size_t>(mix.connections));
  std::vector<uint32_t> writers;
  for (int c = 0; c < mix.connections; ++c) {
    writers.push_back(model.AddWriter(1 << 16));
  }
  auto start = Clock::now() + std::chrono::milliseconds(20);
  auto end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < mix.connections; ++c) {
    WriterLog& log = model.log(writers[static_cast<size_t>(c)]);
    LoadResult* out = &parts[static_cast<size_t>(c)];
    uint32_t w = writers[static_cast<size_t>(c)];
    threads.emplace_back([&, c, w, out] {
      OpenConnection(port, mix, c, log, w, seed, stream, start, end, out);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  LoadResult all;
  all.put_ms.Start(start);
  all.get_ms.Start(start);
  for (auto& p : parts) {
    all.Merge(p);
  }
  all.window_s = seconds;
  return all;
}

// Verifies what a load phase saw; counts its operations.
void Account(const Model& model, const LoadResult& r, Report* report) {
  report->attempted += r.sent;
  if (r.errors > 0) {
    report->Fail(std::to_string(r.errors) + " requests answered with an error", r.errors);
  }
  if (r.lost > 0) {
    report->Fail(std::to_string(r.lost) + " requests never answered", r.lost);
  }
  CheckReads(model, r.reads, report);
}

// Strong-get sweep of every key against the model. Reads race nothing once
// the load has stopped, but replayed writes may still be landing right after
// a recovery, so mismatches get a few short re-reads before they count.
void Sweep(uint16_t port, const Model& model, uint64_t seed, Report* report) {
  std::vector<WriteId> want = model.Final();
  std::vector<std::string> got(static_cast<size_t>(kServeKeys));
  std::vector<int64_t> keys = Range(kServeKeys);
  report->attempted += keys.size();
  for (int round = 0; round < 20 && !keys.empty(); ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    uint64_t errors = Pipelined(
        port, keys, 4, 256, [](int64_t k) { return GetRequest(k, false); },
        [&](int64_t k, const ResponseMsg& r) { got[static_cast<size_t>(k)] = r.value; });
    std::vector<int64_t> wrong;
    for (int64_t k : keys) {
      if (got[static_cast<size_t>(k)] != EncodeValue(want[static_cast<size_t>(k)], seed)) {
        wrong.push_back(k);
      }
    }
    (void)errors;  // an errored key keeps its stale value and is re-read
    keys.swap(wrong);
  }
  if (!keys.empty()) {
    report->Fail(std::to_string(keys.size()) + " keys differ from the model after quiesce (e.g. key " +
                     std::to_string(keys.front()) + ")",
                 keys.size());
  }
}

// Runs before every measured load: kWarmLoadSeconds of the same mix, not
// measured (but checked), so the gateway's batch controller and admission
// state settle and the window measures the steady state.
constexpr double kWarmLoadSeconds = 2.0;

void WarmLoad(uint16_t port, const ServeMix& mix, Model& model, uint64_t seed, Report* report) {
  Account(model, RunLoad(port, mix, model, seed, 100, kWarmLoadSeconds), report);
}

// The generator, not the fleet, set the pace when its senders ran late while
// busy on CPU (a sender blocked in send() is held back by the fleet).
bool GeneratorPaced(LoadResult& r, const ServeMix& mix) {
  double sender_util = r.sender_cpu_s / (r.window_s * mix.connections);
  return r.late_ms.Quantile(0.99) > 1.0 && sender_util > 0.9;
}

void PrintLoad(const char* label, LoadResult& r) {
  std::printf(
      "%s: sent=%llu ok=%llu refused=%llu replica=%llu | put p50 %.3f p99 %.3f (per-second "
      "median %.3f) ms (n=%zu) | get p50 %.3f p99 %.3f (per-second median %.3f) ms (n=%zu) | "
      "late p99 %.3f ms (n=%zu)\n",
      label, static_cast<unsigned long long>(r.sent), static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.refused), static_cast<unsigned long long>(r.from_replica),
      r.put_ms.all().Quantile(0.5), r.put_ms.all().Quantile(0.99), r.put_ms.WindowedQuantile(0.99),
      r.put_ms.count(), r.get_ms.all().Quantile(0.5), r.get_ms.all().Quantile(0.99),
      r.get_ms.WindowedQuantile(0.99), r.get_ms.count(), r.late_ms.Quantile(0.99),
      r.late_ms.count());
}

// Fleet bring-up until the first timed request could be sent.
bool SetUp(const RunArgs& args, int index, std::unique_ptr<Fleet>* fleet, double* secs,
           Model* model) {
  FleetConfig config;
  config.bin_dir = args.bin_dir;
  config.work_dir = args.work_dir + "/fleet" + std::to_string(index);
  config.partitions = kPartitions;
  std::filesystem::create_directories(config.work_dir);
  auto t0 = Clock::now();
  *fleet = std::make_unique<Fleet>(config);
  bool ok = (*fleet)->Start() && Fill((*fleet)->port(), args.seed, model);
  *secs = SecondsSince(t0);
  return ok;
}

// Restart recovery of the deployed fleet, timed kRecoveries times (best):
// a burst of acknowledged puts leaves the head an unacked log to replay,
// then SIGKILL the worker, start a new incarnation on the same data port and
// backup store, and time until every partition answers strong gets again.
constexpr int kRecoveries = 7;
constexpr int64_t kBurstPuts = 1000;

bool Recover(Fleet& fleet, Model& model, uint64_t seed, double* secs) {
  // Let the gateway finish what the load left queued first.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::vector<double> times;
  for (int cycle = 0; cycle < kRecoveries; ++cycle) {
    uint32_t w = model.AddWriter(kBurstPuts);
    WriterLog& log = model.log(w);
    std::unordered_map<int64_t, uint64_t> seq_of;
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < kBurstPuts; ++i) {
      int64_t k = (cycle * 997 + i * 61) % kServeKeys;  // distinct: 61 is odd
      seq_of[k] = static_cast<uint64_t>(i);
      keys.push_back(k);
      log.keys.push_back(k);
      log.status.push_back(kPending);
    }
    uint64_t errors = Pipelined(
        fleet.port(), keys, 4, 64,
        [&](int64_t k) { return PutRequest(WriteId{k, w, seq_of.at(k)}, seed); },
        [&](int64_t k, const ResponseMsg&) { log.status[seq_of.at(k)] = kAcked; });
    if (errors != 0) {
      std::fprintf(stderr, "perfbench: recovery burst failed\n");
      return false;
    }
    auto t0 = Clock::now();
    if (!fleet.CrashAndRestartWorker()) {
      return false;
    }
    std::vector<int64_t> probe = Range(64);
    auto deadline = t0 + std::chrono::seconds(60);
    bool back = false;
    while (!back && Clock::now() < deadline) {
      std::atomic<int> good{0};
      errors = Pipelined(
          fleet.port(), probe, 1, 64, [](int64_t k) { return GetRequest(k, false); },
          [&](int64_t k, const ResponseMsg& r) {
            WriteId got;
            good.fetch_add(DecodeValue(r.value, seed, &got) && got.key == k);
          });
      back = errors == 0 && good.load() == static_cast<int>(probe.size());
      if (!back) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    if (!back) {
      std::fprintf(stderr, "perfbench: fleet did not recover within 60 s\n");
      return false;
    }
    times.push_back(SecondsSince(t0));
  }
  *secs = *std::min_element(times.begin(), times.end());
  return true;
}

// --- Traced run -----------------------------------------------------------------

// Head layer with the gateway stripped: InjectBatch of put batches (timed per
// batch) and of tagged strong gets (timed to the response handler).
struct HeadStripResult {
  Samples put_inject_us;
  uint64_t batches = 0;
  uint64_t errors = 0;  // failed put injections
};

HeadStripResult HeadStrip(sdg::elastic::ElasticHead& head, const ServeMix& mix, Model& model,
                          size_t batch, uint64_t seed, double seconds, TaggedGets* gets) {
  HeadStripResult res;
  std::mutex mu;
  head.SetResponseHandler([gets, seed](uint32_t, ResponseMsg msg) {
    gets->Answer(msg.request_id, ToRead(0, msg, seed));
  });

  auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<uint32_t> writers;
  for (int t = 0; t < mix.connections; ++t) {
    writers.push_back(model.AddWriter(1 << 16));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < mix.connections; ++t) {
    uint32_t w = writers[static_cast<size_t>(t)];
    WriterLog& log = model.log(w);
    threads.emplace_back([&, t, w] {
      Rng rng(seed, 300 + static_cast<uint64_t>(t));
      while (Clock::now() < end) {
        std::vector<sdg::elastic::ElasticHead::TaggedTuple> puts;
        std::vector<int64_t> get_keys;
        size_t first_seq = log.keys.size();
        for (size_t i = 0; i < batch; ++i) {
          int64_t key = SliceKey(rng, kServeKeys, t, mix.connections);
          if (rng.Unit() < mix.get_frac) {
            get_keys.push_back(key);
          } else {
            WriteId id{key, w, log.keys.size()};
            puts.push_back({sdg::Tuple{sdg::Value(key), sdg::Value(EncodeValue(id, seed))}, 0});
            log.keys.push_back(key);
            log.status.push_back(kPending);
          }
        }
        if (!puts.empty()) {
          auto t0 = Clock::now();
          sdg::Status st = head.InjectBatch(sdg::serve::kEntryPut, std::move(puts), 10000);
          double us = Us(Clock::now() - t0);
          std::lock_guard<std::mutex> lock(mu);
          res.put_inject_us.Add(us);
          res.batches++;
          res.errors += !st.ok();
          for (size_t s = first_seq; s < log.status.size(); ++s) {
            log.status[s] = st.ok() ? kAcked : kErrored;
          }
        }
        gets->SendAndWait(t, get_keys, [&](const std::vector<uint64_t>& tags) {
          std::vector<sdg::elastic::ElasticHead::TaggedTuple> batch_gets;
          for (size_t i = 0; i < get_keys.size(); ++i) {
            batch_gets.push_back({sdg::Tuple{sdg::Value(get_keys[i])}, tags[i]});
          }
          return head.InjectBatch(sdg::serve::kEntryGet, std::move(batch_gets), 10000).ok();
        });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  head.SetResponseHandler(nullptr);
  return res;
}

bool RunServeTraced(const RunArgs& args, const ServeMix& mix, Report* report) {
  // Phase A: the deployed topology, untraced, with process CPU from /proc.
  double setup_s = 0;
  std::unique_ptr<Fleet> fleet;
  Model ref_model(kServeKeys);
  if (!SetUp(args, 0, &fleet, &setup_s, &ref_model)) {
    return false;
  }
  WarmLoad(fleet->port(), mix, ref_model, args.seed, report);
  double gw0 = PidCpuSeconds(fleet->gateway_pid());
  double wk0 = PidCpuSeconds(fleet->worker_pid());
  double me0 = ProcessCpuSeconds();
  LoadResult ref = RunLoad(fleet->port(), mix, ref_model, args.seed, 200, args.seconds);
  double gw_cpu = PidCpuSeconds(fleet->gateway_pid()) - gw0;
  double wk_cpu = PidCpuSeconds(fleet->worker_pid()) - wk0;
  double me_cpu = ProcessCpuSeconds() - me0;
  Account(ref_model, ref, report);
  PrintLoad("deployed", ref);
  double recover_s = 0;
  if (!Recover(*fleet, ref_model, args.seed, &recover_s)) {
    return false;
  }
  Sweep(fleet->port(), ref_model, args.seed, report);
  fleet->Stop();
  fleet.reset();
  report->Set("recover.total_s", recover_s, "s");

  double answered = static_cast<double>(ref.ok + ref.refused + ref.errors);
  report->Set("cpu.gateway_util", gw_cpu / ref.window_s, "cores");
  report->Set("cpu.worker_util", wk_cpu / ref.window_s, "cores");
  report->Set("cpu.gateway_us_per_req", answered > 0 ? 1e6 * gw_cpu / answered : 0, "us");
  report->Set("cpu.worker_us_per_req", answered > 0 ? 1e6 * wk_cpu / answered : 0, "us");
  report->Set("cpu.loadgen_util", me_cpu / ref.window_s, "cores");
  report->Set("e2e.put_p50_ms", ref.put_ms.all().Quantile(0.5), "ms");
  report->Set("e2e.get_p50_ms", ref.get_ms.all().Quantile(0.5), "ms");
  report->Set("e2e.put_p99_ms", ref.put_ms.WindowedQuantile(0.99), "ms");
  report->Set("e2e.get_p99_ms", ref.get_ms.WindowedQuantile(0.99), "ms");
  report->Set("e2e.put_samples", static_cast<double>(ref.put_ms.count()), "count");
  report->Set("e2e.get_samples", static_cast<double>(ref.get_ms.count()), "count");
  report->Set("loadgen.late_ms_p99", ref.late_ms.Quantile(0.99), "ms");
  report->Set("loadgen.valid", GeneratorPaced(ref, mix) ? 0 : 1, "bool");

  // Phase B: head + gateway hosted here, worker still its own process.
  std::string dir = args.work_dir + "/traced";
  std::filesystem::create_directories(dir);
  sdg::elastic::ElasticHeadOptions ho;
  ho.state = "store";
  ho.entries = {"put", "get", "del"};
  ho.partitions = kPartitions;
  ho.backup_root = dir + "/backup";
  TaggedGets head_gets(mix.connections);  // declared first: outlives the head that calls into it
  sdg::elastic::ElasticHead head(ho);
  if (!head.Start().ok()) {
    return false;
  }
  sdg::serve::GatewayOptions go;
  go.partitions = kPartitions;
  auto gateway = std::make_unique<sdg::serve::ServeGateway>(&head, go);
  if (!gateway->Start().ok()) {
    return false;
  }
  FleetConfig config;
  config.bin_dir = args.bin_dir;
  config.work_dir = dir;
  config.partitions = kPartitions;
  Child worker;
  Model model(kServeKeys);
  if (!StartWorkerOnly(config, head.port(), &worker) || !head.WaitForMembers(1, 60000) ||
      !head.WaitForAssignment(60000) || !Fill(head.port(), args.seed, &model)) {
    gateway->Stop();
    head.Stop();
    return false;
  }
  double layer_s = std::max(2.0, args.seconds / 2);

  // Layer 1: the full KvClient path, with the unacked backlog sampled.
  WarmLoad(head.port(), mix, model, args.seed, report);
  std::atomic<bool> sampling{true};
  Samples backlog;
  std::thread sampler([&] {
    while (sampling.load()) {
      backlog.Add(static_cast<double>(head.UnackedTotal()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  sdg::serve::ServeGateway::Stats s0 = gateway->stats();
  LoadResult full = RunLoad(head.port(), mix, model, args.seed, 200, layer_s);
  sdg::serve::ServeGateway::Stats s1 = gateway->stats();
  sampling.store(false);
  sampler.join();
  Account(model, full, report);
  PrintLoad("traced full path", full);
  double ops = static_cast<double>((s1.puts - s0.puts) + (s1.strong_gets - s0.strong_gets) +
                                   (s1.dels - s0.dels));
  double batches = static_cast<double>(s1.batches - s0.batches);
  double batch_mean = batches > 0 ? ops / batches : 0;
  double shed = static_cast<double>(s1.shed - s0.shed);
  double accepted = static_cast<double>(s1.accepted - s0.accepted);
  double hits = static_cast<double>(s1.replica_hits - s0.replica_hits);
  double misses = static_cast<double>(s1.replica_misses - s0.replica_misses);
  report->Set("serve.batch_mean", batch_mean, "count");
  report->Set("serve.shed_frac", shed + accepted > 0 ? shed / (shed + accepted) : 0, "fraction");
  report->Set("serve.replica_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0,
              "fraction");
  report->Set("serve.replica_epochs_per_s",
              static_cast<double>(s1.replica_epochs_applied - s0.replica_epochs_applied) / layer_s,
              "1/s");
  report->Set("elastic.unacked_backlog_p50", backlog.Quantile(0.5), "count");
  report->Set("elastic.unacked_backlog_max", backlog.Max(), "count");
  report->Set("trace.put_p50_overhead_ms", full.put_ms.all().Quantile(0.5) - ref.put_ms.all().Quantile(0.5),
              "ms");
  report->Set("trace.get_p50_overhead_ms", full.get_ms.all().Quantile(0.5) - ref.get_ms.all().Quantile(0.5),
              "ms");

  // Layer 2: the head alone, at the batch size the gateway formed.
  gateway->Stop();
  size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
  HeadStripResult hs =HeadStrip(head, mix, model, batch, args.seed, layer_s, &head_gets);
  report->attempted += head_gets.reads().size() + hs.batches;
  uint64_t head_errors = hs.errors + head_gets.errors();
  if (head_errors > 0) {
    report->Fail("head strip: " + std::to_string(head_errors) + " failed injections/gets",
                 head_errors);
  }
  CheckReads(model, head_gets.reads(), report);
  Samples& head_get_us = head_gets.roundtrip_us();
  report->Set("elastic.put_inject_us_p50", hs.put_inject_us.Quantile(0.5), "us");
  report->Set("elastic.put_inject_us_p99", hs.put_inject_us.Quantile(0.99), "us");
  report->Set("elastic.get_roundtrip_us_p50", head_get_us.Quantile(0.5), "us");
  report->Set("elastic.get_roundtrip_us_p99", head_get_us.Quantile(0.99), "us");
  std::printf("head strip: batch=%zu put_inject p50 %.1f us (n=%zu) get_roundtrip p50 %.1f us (n=%zu)\n",
              batch, hs.put_inject_us.Quantile(0.5), hs.put_inject_us.count(),
              head_get_us.Quantile(0.5), head_get_us.count());
  // Gateway self time: the client put round trip minus the head's put
  // injection at the same mix. Bounded-stale gets never leave the gateway,
  // so they have no head-layer counterpart.
  report->Set("serve.gateway_self_us_p50",
              1000 * full.put_ms.all().Quantile(0.5) - hs.put_inject_us.Quantile(0.5), "us");
  report->Set("serve.gateway_self_us_p99",
              1000 * full.put_ms.all().Quantile(0.99) - hs.put_inject_us.Quantile(0.99), "us");

  // The store must still hold exactly the model after both layers wrote.
  gateway = std::make_unique<sdg::serve::ServeGateway>(&head, go);
  if (!gateway->Start().ok()) {
    return false;
  }
  Sweep(head.port(), model, args.seed, report);
  gateway->Stop();
  worker.Stop();
  head.Stop();

  // Layers 3 and 4: the in-process dataflow and the bare state structure.
  StripMix strip;
  strip.threads = mix.connections;
  strip.get_frac = mix.get_frac;
  strip.keys = kServeKeys;
  strip.batch = batch;
  strip.seed = args.seed;
  strip.seconds = layer_s;
  strip.work_dir = args.work_dir + "/cluster";
  if (!ClusterStrip(strip, report)) {
    return false;
  }
  report->Set("net.get_wire_us_p50",
              head_get_us.Quantile(0.5) - report->metrics["runtime.get_roundtrip_us_p50"].value,
              "us");
  DictStrip(strip, report);
  return true;
}

}  // namespace

bool RunServe(const RunArgs& args, Report* report) {
  const ServeMix mix;
  if (args.trace) {
    return RunServeTraced(args, mix, report);
  }
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Model> model;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (fleet != nullptr) {
      fleet->Stop();
    }
    double secs = 0;
    model = std::make_unique<Model>(kServeKeys);
    if (!SetUp(args, i, &fleet, &secs, model.get())) {
      return false;
    }
    setups.push_back(secs);
  }
  WarmLoad(fleet->port(), mix, *model, args.seed, report);
  LoadResult load = RunLoad(fleet->port(), mix, *model, args.seed, 200, args.seconds);
  Account(*model, load, report);
  PrintLoad(args.workload.c_str(), load);
  if (GeneratorPaced(load, mix)) {
    // ok_qps would then measure this process, not the fleet.
    report->Fail("the load generator, not the fleet, set the pace: ok_qps is not the fleet's");
  }
  double recover_s = 0;
  if (!Recover(*fleet, *model, args.seed, &recover_s)) {
    return false;
  }
  Sweep(fleet->port(), *model, args.seed, report);
  fleet->Stop();

  report->Set("setup_s", Median(setups), "s");
  report->Set("ok_qps", static_cast<double>(load.ok_in_window) / load.window_s, "req/s");
  std::printf("setup_s runs:");
  for (double s : setups) {
    std::printf(" %.3f", s);
  }
  std::printf(" | recover_s %.3f\n", recover_s);
  return true;
}

}  // namespace perfbench
