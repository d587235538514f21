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
// Records BM_ColdStart_<instance>_{Copy,Mmap}Attach. Results are
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

  auto blob = s3::core::SaveBinarySnapshot(*gen.instance);
  if (!blob.ok()) {
    std::fprintf(stderr, "SaveBinarySnapshot failed\n");
    return false;
  }
  std::printf("snapshot bytes: %zu\n", blob->size());

  // The mmap leg attaches from a real file, like SnapshotManager
  // recovery does.
  const std::string path = "bench_cold_start.snap.tmp";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(blob->data(), 1, blob->size(), f) != blob->size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
  }

  const size_t iters = Iterations();

  // Warm-up + correctness guard: the load must yield the population.
  {
    auto loaded = s3::core::LoadBinarySnapshot(*blob);
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

  double copy_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    auto loaded = s3::core::LoadBinarySnapshot(*blob);
    if (!loaded.ok()) return false;
    copy_seconds += t.ElapsedSeconds();
  }

  // mmap attach: open + map + attach per iteration — the full cold
  // path a recovering server pays.
  double mmap_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    std::shared_ptr<const s3::MappedRegion> region;
    if (!s3::MappedRegion::Open(path, &region).ok()) return false;
    auto attached = s3::core::AttachBinarySnapshot(region);
    if (!attached.ok()) return false;
    mmap_seconds += t.ElapsedSeconds();
  }
  std::remove(path.c_str());

  const double copy_ns = copy_seconds / iters * 1e9;
  const double mmap_ns = mmap_seconds / iters * 1e9;
  std::printf("copy attach        : %8.2f ms/op\n", copy_ns / 1e6);
  std::printf("mmap attach        : %8.2f ms/op\n", mmap_ns / 1e6);
  std::printf("mmap is %.2fx faster than copy\n",
              mmap_ns > 0 ? copy_ns / mmap_ns : 0.0);

  const std::string prefix = std::string("BM_ColdStart_") + tag;
  char extra[96];
  std::snprintf(extra, sizeof(extra), "\"bytes_on_disk\": %zu",
                blob->size());
  writer.Add(prefix + "_CopyAttach", copy_ns, extra);
  std::snprintf(extra, sizeof(extra), "\"speedup_vs_copy\": %.2f",
                mmap_ns > 0 ? copy_ns / mmap_ns : 0.0);
  writer.Add(prefix + "_MmapAttach", mmap_ns, extra);
  return true;
}

}  // namespace

int main() {
  s3::bench::BenchJsonWriter writer("BENCH_micro.json", /*merge=*/true);
  if (!RunLeg("I1", s3::bench::MakeI1(), writer)) return 1;
  if (!RunLeg("I3", s3::bench::MakeI3(), writer)) return 1;
  return 0;
}

