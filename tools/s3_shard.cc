// s3_shard — splits a snapshot's population into N shard storage
// directories (src/server/SHARDING.md).
//
//   s3_shard plan <snapshot> --shards=N
//       Dry run: partitions the population in memory and prints the
//       per-shard placement (owned users, materialized groups,
//       documents, tags, boundary social edges). Writes nothing.
//
//   s3_shard split <snapshot> <out-root> --shards=N
//       Partitions and materializes the deployment: one
//       SnapshotManager directory per shard (binary snapshot at the
//       population's generation) plus shard.meta / partition.meta.
//       The result is served with ShardRouter::Open(out-root) and
//       inspected with s3_snapshot inspect.
//
// <snapshot> is a snapshot file (core/snapshot_binary.h).
#include <cstdio>
#include <cstring>
#include <string>

#include "common/file_io.h"
#include "core/snapshot_binary.h"
#include "shard/partitioner.h"
#include "shard/shard_meta.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  s3_shard plan <snapshot> --shards=N\n"
               "  s3_shard split <snapshot> <out-root> --shards=N\n");
  return 2;
}

int ParseShards(const char* flag, uint32_t* out) {
  if (std::strncmp(flag, "--shards=", 9) != 0) return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(flag + 9, &end, 10);
  if (end == flag + 9 || *end != '\0' || v < 1 || v > 64) return 0;
  *out = static_cast<uint32_t>(v);
  return 1;
}

s3::Result<s3::shard::PartitionResult> LoadAndPartition(
    const std::string& path, uint32_t shards) {
  std::string bytes;
  S3_RETURN_IF_ERROR(s3::ReadFileToString(path, &bytes));
  auto instance = s3::core::LoadBinarySnapshot(bytes);
  if (!instance.ok()) return instance.status();
  s3::shard::PartitionOptions options;
  options.shard_count = shards;
  return s3::shard::Partition(**instance, options);
}

void PrintPlan(const s3::shard::PartitionResult& partition) {
  std::printf("%-6s %12s %14s %10s %8s %14s\n", "shard", "owned users",
              "groups", "docs", "tags", "boundary edges");
  for (const auto& part : partition.shards) {
    std::printf("%-6u %12u %14llu %10zu %8zu %14llu\n", part.index,
                part.owned_users,
                static_cast<unsigned long long>(part.materialized_groups),
                part.instance->docs().DocumentCount(),
                part.instance->TagCount(),
                static_cast<unsigned long long>(part.boundary_social_edges));
  }
  std::printf(
      "population-wide: %llu cross-home social edges (replicated "
      "boundary set)\n",
      static_cast<unsigned long long>(partition.boundary_social_edges));
}

int Plan(const std::string& path, uint32_t shards) {
  auto partition = LoadAndPartition(path, shards);
  if (!partition.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 partition.status().ToString().c_str());
    return 1;
  }
  std::printf("%s -> %u shards (dry run)\n", path.c_str(), shards);
  PrintPlan(*partition);
  return 0;
}

int Split(const std::string& path, const std::string& out_root,
          uint32_t shards) {
  auto partition = LoadAndPartition(path, shards);
  if (!partition.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 partition.status().ToString().c_str());
    return 1;
  }
  s3::Status written = s3::shard::WritePartition(*partition, out_root);
  if (!written.ok()) {
    std::fprintf(stderr, "%s: %s\n", out_root.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("%s -> %s (%u shards)\n", path.c_str(), out_root.c_str(),
              shards);
  PrintPlan(*partition);
  std::printf("serve with ShardRouter::Open(\"%s\"); inspect any shard "
              "snapshot with s3_snapshot inspect\n",
              out_root.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string command = argv[1];
  uint32_t shards = 0;
  if (command == "plan" && argc == 4 && ParseShards(argv[3], &shards)) {
    return Plan(argv[2], shards);
  }
  if (command == "split" && argc == 5 && ParseShards(argv[4], &shards)) {
    return Split(argv[2], argv[3], shards);
  }
  return Usage();
}
