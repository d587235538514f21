// s3_shell: a small batch/interactive front end for the library.
//
// Usage:
//   s3_shell [snapshot-file]
//
// Attaches a snapshot file (core/snapshot_binary.h; e.g. a checkpoint
// of a storage directory) — or builds and finalizes a demo instance
// when no file is given — and answers queries read from stdin, one per
// line:
//
//   <seeker-uri> <keyword> [keyword...]
//
// Prints the top-5 documents with their score intervals. Lines
// starting with '#' are echoed; EOF ends the session. Example:
//
//   echo "user:u1 degree" | ./build/example_s3_shell
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/mmap_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "s3/s3.h"

using namespace s3;

namespace {

std::unique_ptr<core::S3Instance> BuildDemo() {
  auto inst = std::make_unique<core::S3Instance>();
  auto u0 = inst->AddUser("user:u0");
  auto u1 = inst->AddUser("user:u1");
  auto u2 = inst->AddUser("user:u2");
  (void)inst->AddSocialEdge(u1, u0, 1.0);
  (void)inst->AddSocialEdge(u0, u1, 1.0);
  inst->DeclareSubClass("m.s.", "degree");

  doc::Document d0("article");
  uint32_t par = d0.AddChild(0, "paragraph");
  d0.AddKeywords(par, inst->InternText("a degree gives more opportunities"));
  d0.AddKeywords(par, {inst->InternKeyword("degree")});
  auto a = inst->AddDocument(std::move(d0), "doc:d0", u0).value();

  doc::Document d1("tweet");
  uint32_t text = d1.AddChild(0, "text");
  d1.AddKeywords(text, inst->InternText("got my M.S. at @UAlberta in 2012"));
  d1.AddKeywords(text, {inst->InternKeyword("m.s.")});
  auto b = inst->AddDocument(std::move(d1), "doc:d1", u2).value();
  (void)inst->AddComment(b, inst->docs().RootNode(a));
  return inst;
}

}  // namespace

int main(int argc, char** argv) {
  std::shared_ptr<const core::S3Instance> inst;
  if (argc > 1) {
    // Map and attach, as SnapshotManager::Recover does: the aligned
    // sections stay zero-copy views into the mapping.
    std::shared_ptr<const MappedRegion> region;
    if (Status s = MappedRegion::Open(argv[1], &region); !s.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", argv[1],
                   s.ToString().c_str());
      return 1;
    }
    auto attached = core::AttachBinarySnapshot(std::move(region));
    if (!attached.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   attached.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*attached);
    std::fprintf(stderr, "loaded %s\n", argv[1]);
  } else {
    std::unique_ptr<core::S3Instance> demo = BuildDemo();
    if (Status s = demo->Finalize(); !s.ok()) {
      std::fprintf(stderr, "finalize failed: %s\n", s.ToString().c_str());
      return 1;
    }
    inst = std::move(demo);
    std::fprintf(stderr, "no snapshot file given; using the demo\n");
  }
  std::fprintf(stderr,
               "instance ready: %zu users, %zu docs, %zu tags\n"
               "query format: <seeker-uri> <keyword> [keyword...]\n"
               ":eps <value> sets a certified anytime slack for later "
               "queries (0 = exact)\n"
               ":threads <n> sets intra-query threads (0 = auto; results "
               "are identical at any count)\n"
               ":trace toggles per-query engine iteration traces\n"
               ":metrics dumps the session's metric registry "
               "(Prometheus text)\n",
               inst->UserCount(), inst->docs().DocumentCount(),
               inst->TagCount());

  // Seeker lookup by URI.
  std::unordered_map<std::string, social::UserId> user_of;
  for (const auto& u : inst->users()) user_of.emplace(u.uri, u.id);

  core::S3kOptions opts;
  opts.k = 5;
  // Re-emplaced by ":threads <n>" (the pool is built at construction).
  std::optional<core::S3kSearcher> searcher;
  searcher.emplace(*inst, opts);

  // Session-wide per-request options, adjusted with ":eps <value>".
  core::QueryOptions qopts;

  // Session observability: shell queries bypass QueryService, so the
  // shell observes its own latency series into the default registry;
  // :metrics dumps the full registry (thread-pool series included).
  obs::RegisterProcessMetrics();
  obs::Histogram* h_query = obs::MetricRegistry::Default().GetHistogram(
      "s3_shell_query_seconds", "End-to-end latency of shell queries");
  obs::Counter* c_queries = obs::MetricRegistry::Default().GetCounter(
      "s3_shell_queries_total", "Queries answered by this shell session");
  uint64_t trace_id = 0;

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::printf("%s\n", line.c_str());
      continue;
    }
    std::istringstream in(line);
    std::string seeker_uri;
    in >> seeker_uri;
    if (seeker_uri == ":threads") {
      long n = -1;
      if (!(in >> n) || n < 0) {
        std::printf("! usage: :threads <count> (0 = auto)\n");
        continue;
      }
      opts.threads = static_cast<unsigned>(n);
      searcher.reset();
      searcher.emplace(*inst, opts);
      std::printf("-- intra-query threads=%u%s\n",
                  searcher->options().threads,
                  n == 0 ? " (auto)" : "");
      continue;
    }
    if (seeker_uri == ":metrics") {
      const std::string text = obs::MetricRegistry::Default().RenderPrometheus();
      if (text.empty()) {
        std::printf("-- observability compiled out (-DS3_OBS=OFF)\n");
      } else {
        std::fputs(text.c_str(), stdout);
      }
      continue;
    }
    if (seeker_uri == ":trace") {
      qopts.trace = !qopts.trace;
      std::printf("-- trace %s\n", qopts.trace ? "on" : "off");
      continue;
    }
    if (seeker_uri == ":eps") {
      double eps = 0.0;
      if (!(in >> eps) || eps < 0.0) {
        std::printf("! usage: :eps <non-negative value>\n");
        continue;
      }
      qopts.epsilon_approx = eps;
      qopts.mode = eps > 0.0 ? core::QueryMode::kAnytime
                             : core::QueryMode::kExact;
      std::printf("-- eps=%g (%s)\n", eps,
                  eps > 0.0 ? "certified anytime" : "exact");
      continue;
    }
    auto user_it = user_of.find(seeker_uri);
    if (user_it == user_of.end()) {
      std::printf("! unknown user '%s'\n", seeker_uri.c_str());
      continue;
    }
    core::Query q;
    q.seeker = user_it->second;
    std::string kw;
    while (in >> kw) {
      KeywordId id = inst->vocabulary().Find(kw);
      if (id == kInvalidKeyword) {
        // Fall back to the stemmed form of the word.
        auto interned = ExtractKeywords(kw);
        if (!interned.empty()) id = inst->vocabulary().Find(interned[0]);
      }
      if (id == kInvalidKeyword) {
        std::printf("! keyword '%s' does not occur anywhere\n", kw.c_str());
        q.keywords.clear();
        break;
      }
      q.keywords.push_back(id);
    }
    if (q.keywords.empty()) continue;

    core::SearchStats st;
    auto result = searcher->Search(
        core::QueryRequest(q.seeker, q.keywords, qopts), &st);
    if (!result.ok()) {
      std::printf("! %s\n", result.status().ToString().c_str());
      continue;
    }
    c_queries->Inc();
    h_query->Observe(st.elapsed_seconds);
    if (qopts.trace) {
      obs::QueryTrace trace;
      trace.id = ++trace_id;
      trace.label = line;
      trace.certified_epsilon = st.certified_epsilon;
      trace.total_seconds = st.elapsed_seconds;
      trace.spans.push_back(
          obs::TraceSpan{"search", 0.0, st.elapsed_seconds, 0});
      trace.iterations = st.iteration_trace;
      std::fputs(obs::FormatTrace(trace).c_str(), stdout);
    }
    if (result->empty()) std::printf("(no results)\n");
    for (const auto& r : *result) {
      std::printf("%-24s [%.6f, %.6f]\n",
                  inst->docs().Uri(r.node).c_str(), r.lower, r.upper);
    }
    std::printf("-- %zu candidates, %zu iterations, %.2f ms, "
                "certified eps=%.2e%s\n",
                st.candidates_total, st.iterations,
                st.elapsed_seconds * 1e3, st.certified_epsilon,
                st.converged ? "" : " (truncated)");
  }
  return 0;
}
