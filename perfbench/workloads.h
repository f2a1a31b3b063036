// The benchmark's workloads and the layer strips of its traced runs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;   // kv_gateway + elastic_worker
  std::string work_dir;  // private scratch, removed by the caller
};

// kv_write_peak: the deployed three-process fleet. Returns false when the
// run could not be carried out at all (no result).
bool RunServe(const RunArgs& args, Report* report);
// dataflow_ckpt_recover: the in-process §6 cluster.
bool RunDataflow(const RunArgs& args, Report* report);

// --- Correctness model -------------------------------------------------------

// Outcome of one write as the client saw it.
enum WriteStatus : uint8_t { kPending = 0, kAcked = 1, kRefused = 2, kErrored = 3 };

// Every put a writer issued, indexed by its seq (the seq is in the value).
struct WriterLog {
  std::vector<int64_t> keys;    // seq -> key written; -1: the seq was not a put
  std::vector<uint8_t> status;  // seq -> WriteStatus
};

// Writer 0 is the prefill (seq == key). Each later writer owns a disjoint
// key slice while it runs, and writers are created in time order, so the
// expected final value of a key is its last acknowledged write.
class Model {
 public:
  explicit Model(int64_t num_keys);
  // Main thread only, before the writer's thread starts.
  uint32_t AddWriter(size_t reserve_seqs);
  WriterLog& log(uint32_t writer) { return writers_[writer]; }
  // Was `w` a write issued to `key` that the system did not refuse?
  bool Valid(int64_t key, const WriteId& w) const;
  // key -> the write a quiesced read must return.
  std::vector<WriteId> Final() const;
  // Replica epoch from which on every prefilled key exists in the replicas.
  void set_prefill_epoch(uint64_t e) { prefill_epoch_ = e; }
  uint64_t prefill_epoch() const { return prefill_epoch_; }

 private:
  int64_t num_keys_;
  uint64_t prefill_epoch_ = 0;
  std::deque<WriterLog> writers_;  // deque: references survive AddWriter
};

// One read to validate once every write outcome is known.
struct ReadRec {
  int64_t key = 0;
  WriteId got;
  bool decoded = false;
  // Bounded-stale answers: the key was absent at replica epoch `epoch`.
  bool replica_absent = false;
  uint64_t epoch = 0;
};
void CheckReads(const Model& model, const std::vector<ReadRec>& reads, Report* report);

// Uniform key in writer slice `slice` of `slices` (key % slices == slice).
inline int64_t SliceKey(Rng& rng, int64_t num_keys, int slice, int slices) {
  return slice + slices * static_cast<int64_t>(rng.Below(
                              static_cast<uint64_t>(num_keys / slices)));
}

// --- Layer strips of the traced runs -------------------------------------------

// Tagged gets sent by several threads, each thread then waiting for the
// answers to its own: how the head and the dataflow strips time a get from
// its injection to the response hook.
class TaggedGets {
 public:
  explicit TaggedGets(int threads) : outstanding_(static_cast<size_t>(threads), 0) {}
  // The response hook: `rec` answers the get tagged `tag` (rec.key is set
  // from that get). Tags this object did not hand out are ignored.
  void Answer(uint64_t tag, ReadRec rec);
  // On thread `thread`: tags one get per key, sends them with `send(tags)`
  // and waits up to 10 s for their answers. A failed send or a missing
  // answer counts as an error.
  void SendAndWait(int thread, const std::vector<int64_t>& keys,
                   const std::function<bool(const std::vector<uint64_t>&)>& send);
  // Once every sending thread has finished.
  Samples& roundtrip_us() { return roundtrip_us_; }
  const std::vector<ReadRec>& reads() const { return reads_; }
  uint64_t errors() const { return errors_; }

 private:
  struct Pending {
    Clock::time_point t0;
    int64_t key;
    int thread;
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::vector<int> outstanding_;  // per thread
  uint64_t next_tag_ = 1;
  Samples roundtrip_us_;
  std::vector<ReadRec> reads_;
  uint64_t errors_ = 0;
};

struct StripMix {
  int threads = 4;        // concurrency of the workload
  double get_frac = 0.5;  // share of gets in the op mix
  int64_t keys = 65536;
  size_t batch = 1;       // ops per injected batch
  uint64_t seed = 1;
  double seconds = 2;
  std::string work_dir;
};
// KV SDG on a one-node runtime::Cluster: runtime.put_us_*, runtime.get_roundtrip_us_*.
bool ClusterStrip(const StripMix& mix, Report* report);
// Bare KeyedDict<int64_t, std::string>: state.put_ns, state.get_ns, state.bytes.
void DictStrip(const StripMix& mix, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
