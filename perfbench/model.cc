#include "workloads.h"

namespace perfbench {

Model::Model(int64_t num_keys) : num_keys_(num_keys) {
  WriterLog& prefill = writers_.emplace_back();
  prefill.keys.resize(static_cast<size_t>(num_keys));
  prefill.status.assign(static_cast<size_t>(num_keys), kAcked);
  for (int64_t k = 0; k < num_keys; ++k) {
    prefill.keys[static_cast<size_t>(k)] = k;
  }
}

uint32_t Model::AddWriter(size_t reserve_seqs) {
  WriterLog& log = writers_.emplace_back();
  log.keys.reserve(reserve_seqs);
  log.status.reserve(reserve_seqs);
  return static_cast<uint32_t>(writers_.size() - 1);
}

bool Model::Valid(int64_t key, const WriteId& w) const {
  if (w.key != key || w.writer >= writers_.size()) {
    return false;
  }
  const WriterLog& log = writers_[w.writer];
  if (w.seq >= log.keys.size() || w.seq >= log.status.size()) {
    return false;
  }
  return log.keys[w.seq] == key && log.status[w.seq] != kRefused &&
         log.status[w.seq] != kPending;
}

std::vector<WriteId> Model::Final() const {
  std::vector<WriteId> out(static_cast<size_t>(num_keys_));
  for (uint32_t w = 0; w < writers_.size(); ++w) {
    const WriterLog& log = writers_[w];
    size_t n = std::min(log.keys.size(), log.status.size());
    for (size_t seq = 0; seq < n; ++seq) {
      int64_t key = log.keys[seq];
      if (key >= 0 && key < num_keys_ && log.status[seq] == kAcked) {
        out[static_cast<size_t>(key)] = WriteId{key, w, seq};
      }
    }
  }
  return out;
}

void CheckReads(const Model& model, const std::vector<ReadRec>& reads, Report* report) {
  for (const ReadRec& r : reads) {
    if (r.replica_absent && r.epoch < model.prefill_epoch()) {
      continue;  // a replica epoch from before this key was prefilled
    }
    if (!r.decoded) {
      report->Fail("read of key " + std::to_string(r.key) + " returned an undecodable value" +
                   (r.replica_absent ? " (absent at replica epoch " + std::to_string(r.epoch) +
                                           ", prefill complete at " +
                                           std::to_string(model.prefill_epoch()) + ")"
                                     : ""));
    } else if (!model.Valid(r.key, r.got)) {
      report->Fail("read of key " + std::to_string(r.key) + " returned write (" +
                   std::to_string(r.got.key) + ", w" + std::to_string(r.got.writer) + ", s" +
                   std::to_string(r.got.seq) + "), never acknowledged for that key");
    }
  }
}

}  // namespace perfbench
