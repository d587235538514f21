// The three benchmark workloads: their serving configuration, the
// instance each one runs on, and the seeded request/update streams.
//
// Everything here is a pure function of (workload, seed): the same seed
// gives the same request sequence and the same delta chain over the
// workload's fixed instance. The program under test receives only these
// generated inputs.
#ifndef S3PERF_WORKLOADS_H_
#define S3PERF_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/s3k.h"
#include "workload/gen_util.h"

namespace s3perf {

enum class Dataset { kMicroblog, kBusiness };

struct WorkloadConfig {
  const char* name;
  Dataset dataset;
  double scale;  // instance size multiplier over the I1/I3 stand-ins
  // ---- QueryService
  unsigned workers;
  unsigned search_threads;  // S3kOptions::threads (0 = the budget)
  unsigned intra_budget;    // QueryServiceOptions::intra_thread_budget
  size_t batch_window;
  // ---- client
  unsigned outstanding;  // closed-loop requests kept in flight
  // ---- request mix
  // Reused pool of the most frequent single keywords, drawn with Zipf
  // skew `zipf`; pool_size 0 = a fresh keyword multiset per request
  // from the paper's qset grid.
  size_t pool_size;
  double zipf;
  // ---- updates (ingest only; 0 = read-only workload)
  double update_rate_hz;
  uint64_t checkpoint_every;
};

// nullptr for an unknown name.
const WorkloadConfig* FindWorkload(const std::string& name);
const std::vector<WorkloadConfig>& AllWorkloads();

// Generates and finalizes the workload's instance. The instance is
// fixed; the run seed drives the request and update streams.
s3::workload::GenResult MakeInstance(const WorkloadConfig& cfg);

// A deterministic, endless request sequence.
class RequestStream {
 public:
  RequestStream(const WorkloadConfig& cfg, uint64_t seed,
                const s3::core::S3Instance& instance,
                const std::vector<s3::KeywordId>& anchors);

  s3::core::QueryRequest Next();

  // Distinct keyword multisets the stream draws from (cold-solo: the
  // pre-generated fresh-multiset list; it only repeats after wrapping).
  size_t pool_size() const { return pool_.size(); }
  size_t wraps() const { return wraps_; }

 private:
  enum class Kind { kZipfPool, kFreshList } kind_;
  s3::Rng rng_;
  std::vector<s3::core::QueryRequest> pool_;
  std::unique_ptr<s3::ZipfSampler> zipf_;
  size_t users_ = 1;
  size_t next_ = 0;
  size_t wraps_ = 0;
};

// Builds the next ingest delta against `base`: a burst of new posts
// (some commenting on existing fragments), tags and social edges, as in
// continuously arriving microblog traffic. Every operation is valid by
// construction; `rejected_ops` counts any the delta refused anyway.
s3::core::InstanceDelta MakeDelta(
    std::shared_ptr<const s3::core::S3Instance> base, s3::Rng& rng,
    uint64_t serial, uint64_t* rejected_ops);

// Seed of the delta generator for a run seed.
uint64_t DeltaSeed(uint64_t seed);

}  // namespace s3perf

#endif  // S3PERF_WORKLOADS_H_
