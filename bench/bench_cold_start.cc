// Cold-start benchmark: how fast does a serving process get from a
// snapshot file to a queryable instance?
//
// Compares the two load paths of the storage layer on the I1
// (microblog) and I3 (business reviews) instances — I3 is the
// document-heavy one, the instance the cold-solo perfbench workload
// attaches:
//
//   copy  LoadBinarySnapshot(bytes)     — compact-section decode,
//         eager CRC over every section, heap copies;
//   mmap  AttachBinarySnapshot(region)  — compact-section decode plus
//         zero-copy views over the mapped aligned sections (matrix CSR
//         floats, forest), lazy CRC.
//
// Also records each snapshot's bytes_on_disk.
//
// Records BM_ColdStart_<instance>_V2{Copy,Mmap}Attach. Results are
// merged into BENCH_micro.json (BenchJsonWriter merge
// mode) next to the google-benchmark records, so the bench-regression
// gate tracks the numbers; run bench_micro first, then this binary.
//
//   S3_BENCH_COLD_ITERS   timed iterations per load path (default 5)
//   S3_BENCH_SCALE        instance scale multiplier (bench_util.h)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "common/mmap_file.h"
#include "core/snapshot_binary.h"

namespace {

size_t Iterations() {
  const char* env = std::getenv("S3_BENCH_COLD_ITERS");
  size_t n = env ? std::strtoul(env, nullptr, 10) : 5;
  return n == 0 ? 1 : n;
}

// Times both load paths of `gen`'s snapshot and records them under
// BM_ColdStart_<tag>_*. Returns false on any failure.
bool RunLeg(const char* tag, const s3::workload::GenResult& gen,
            s3::bench::BenchJsonWriter& writer) {
  using s3::WallTimer;

  std::printf("bench_cold_start — instance %s: users=%zu docs=%zu "
              "nodes=%zu tags=%zu triples=%zu\n",
              gen.name.c_str(), gen.instance->UserCount(),
              gen.instance->docs().DocumentCount(),
              gen.instance->docs().NodeCount(), gen.instance->TagCount(),
              gen.instance->rdf_graph().size());

  auto v2 = s3::core::SaveBinarySnapshot(*gen.instance);
  if (!v2.ok()) {
    std::fprintf(stderr, "SaveBinarySnapshot failed\n");
    return false;
  }
  std::printf("snapshot bytes: %zu\n", v2->size());

  // The mmap leg attaches from a real file, like SnapshotManager
  // recovery does.
  const std::string v2_path = "bench_cold_start_v2.snap.tmp";
  {
    std::FILE* f = std::fopen(v2_path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(v2->data(), 1, v2->size(), f) != v2->size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", v2_path.c_str());
      return false;
    }
  }

  const size_t iters = Iterations();

  // Warm-up + correctness guard: the load must yield the population.
  {
    auto loaded = s3::core::LoadBinarySnapshot(*v2);
    if (!loaded.ok()) {
      std::fprintf(stderr, "binary load failed: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    if ((*loaded)->docs().NodeCount() != gen.instance->docs().NodeCount()) {
      std::fprintf(stderr, "loaded snapshot disagrees on the population\n");
      return false;
    }
  }

  double v2_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    auto attached = s3::core::LoadBinarySnapshot(*v2);
    if (!attached.ok()) return false;
    v2_seconds += t.ElapsedSeconds();
  }

  // mmap attach: open + map + attach per iteration — the full cold
  // path a recovering server pays.
  double mmap_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    std::shared_ptr<const s3::MappedRegion> region;
    if (!s3::MappedRegion::Open(v2_path, &region).ok()) return false;
    auto attached = s3::core::AttachBinarySnapshot(region);
    if (!attached.ok()) return false;
    mmap_seconds += t.ElapsedSeconds();
  }
  std::remove(v2_path.c_str());

  const double v2_ns = v2_seconds / iters * 1e9;
  const double mmap_ns = mmap_seconds / iters * 1e9;
  std::printf("v2 copy attach     : %8.2f ms/op\n", v2_ns / 1e6);
  std::printf("v2 mmap attach     : %8.2f ms/op\n", mmap_ns / 1e6);
  std::printf("v2 mmap is %.2fx faster than v2 copy\n",
              mmap_ns > 0 ? v2_ns / mmap_ns : 0.0);

  const std::string prefix = std::string("BM_ColdStart_") + tag;
  char extra[96];
  std::snprintf(extra, sizeof(extra), "\"bytes_on_disk\": %zu", v2->size());
  writer.Add(prefix + "_V2CopyAttach", v2_ns, extra);
  std::snprintf(extra, sizeof(extra), "\"speedup_vs_v2_copy\": %.2f",
                mmap_ns > 0 ? v2_ns / mmap_ns : 0.0);
  writer.Add(prefix + "_V2MmapAttach", mmap_ns, extra);
  return true;
}

}  // namespace

int main() {
  s3::bench::BenchJsonWriter writer("BENCH_micro.json", /*merge=*/true);
  if (!RunLeg("I1", s3::bench::MakeI1(), writer)) return 1;
  if (!RunLeg("I3", s3::bench::MakeI3(), writer)) return 1;
  return 0;
}

