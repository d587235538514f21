#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace s3::obs {

namespace {

// Canonical label order: sort by key so {a=1,b=2} and {b=2,a=1} are
// the same instance.
Labels Canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Prometheus label-value escaping: backslash, double-quote, newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string EscapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

// Renders doubles the way Prometheus clients do: integers without a
// trailing ".0", everything else with enough digits to round-trip.
std::string FormatValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return std::string();
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  out += "}";
  return out;
}

// Labels plus one extra pair (for histogram le="...") — the extra pair
// goes last, matching common client-library output.
std::string RenderLabelsWith(const Labels& labels, const std::string& key,
                             const std::string& value) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\",";
  }
  out += key;
  out += "=\"";
  out += EscapeLabelValue(value);
  out += "\"}";
  return out;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// ---- HistogramSnapshot ---------------------------------------------------

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lower = (i == 0) ? 0.0 : uppers[i - 1];
      // The overflow bucket has no finite upper bound; report its
      // lower edge (the best honest estimate without a max tracker).
      const double upper = (i < uppers.size()) ? uppers[i] : lower;
      if (upper <= lower) return lower;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lower + frac * (upper - lower);
    }
    seen += in_bucket;
  }
  return uppers.empty() ? 0.0 : uppers.back();
}

// ---- Histogram -----------------------------------------------------------

Histogram::Histogram(BucketSpec spec) : spec_(spec) {
  uppers_.reserve(spec_.count);
  double bound = spec_.base;
  for (uint32_t i = 0; i < spec_.count; ++i) {
    uppers_.push_back(bound);
    bound *= spec_.growth;
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(spec_.count + 1);
}

void Histogram::Observe(double v) {
  // Bucket pick: log-spaced bounds make a binary search over ~28
  // entries. lower_bound keeps the bounds upper-INCLUSIVE — an
  // observation equal to a bound belongs to that bound's bucket, which
  // is what Prometheus `le` cumulative semantics require.
  const size_t idx = static_cast<size_t>(
      std::lower_bound(uppers_.begin(), uppers_.end(), v) - uppers_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::TakeSnapshot() const {
  HistogramSnapshot snap;
  snap.uppers = uppers_;
  snap.counts.resize(spec_.count + 1);
  for (uint32_t i = 0; i <= spec_.count; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

// ---- MetricRegistry ------------------------------------------------------

MetricRegistry& MetricRegistry::Default() {
  // Leaked singleton: callbacks registered against the default
  // registry by static-lifetime components must not outlive it.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Family* MetricRegistry::GetFamilyLocked(
    const std::string& name, const std::string& help, MetricKind kind) {
  auto it = std::lower_bound(
      families_.begin(), families_.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  if (it != families_.end() && it->first == name) {
    // First non-empty help wins; kind must agree (a name can't be both
    // a counter and a histogram — keep the original, ignore the rest).
    if (it->second->help.empty()) it->second->help = help;
    return it->second.get();
  }
  auto family = std::make_unique<Family>();
  family->help = help;
  family->kind = kind;
  Family* out = family.get();
  families_.insert(it, {name, std::move(family)});
  return out;
}

MetricRegistry::Instance* MetricRegistry::FindInstanceLocked(
    Family& family, const Labels& labels) {
  for (auto& inst : family.instances) {
    if (inst->labels == labels && inst->callback == nullptr) {
      return inst.get();
    }
  }
  return nullptr;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help, Labels labels) {
  labels = Canonicalize(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, MetricKind::kCounter);
  if (Instance* found = FindInstanceLocked(*family, labels)) {
    if (found->counter == nullptr) found->counter = std::make_unique<Counter>();
    return found->counter.get();
  }
  auto inst = std::make_unique<Instance>();
  inst->labels = labels;
  inst->counter = std::make_unique<Counter>();
  Counter* out = inst->counter.get();
  family->instances.push_back(std::move(inst));
  return out;
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help, Labels labels) {
  labels = Canonicalize(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, MetricKind::kGauge);
  if (Instance* found = FindInstanceLocked(*family, labels)) {
    if (found->gauge == nullptr) found->gauge = std::make_unique<Gauge>();
    return found->gauge.get();
  }
  auto inst = std::make_unique<Instance>();
  inst->labels = labels;
  inst->gauge = std::make_unique<Gauge>();
  Gauge* out = inst->gauge.get();
  family->instances.push_back(std::move(inst));
  return out;
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& help, Labels labels,
                                        BucketSpec spec) {
  labels = Canonicalize(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, MetricKind::kHistogram);
  if (Instance* found = FindInstanceLocked(*family, labels)) {
    if (found->histogram == nullptr) {
      found->histogram = std::make_unique<Histogram>(spec);
    }
    return found->histogram.get();
  }
  auto inst = std::make_unique<Instance>();
  inst->labels = labels;
  inst->histogram = std::make_unique<Histogram>(spec);
  Histogram* out = inst->histogram.get();
  family->instances.push_back(std::move(inst));
  return out;
}

void MetricRegistry::DeclareFamily(const std::string& name,
                                   const std::string& help, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  GetFamilyLocked(name, help, kind);
}

uint64_t MetricRegistry::AddCallback(const std::string& name,
                                     const std::string& help, MetricKind kind,
                                     Labels labels,
                                     std::function<double()> fn) {
  labels = Canonicalize(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, kind);
  auto inst = std::make_unique<Instance>();
  inst->labels = std::move(labels);
  inst->callback = std::move(fn);
  inst->callback_id = next_callback_id_++;
  const uint64_t id = inst->callback_id;
  family->instances.push_back(std::move(inst));
  return id;
}

void MetricRegistry::Unregister(uint64_t callback_id) {
  if (callback_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    auto& insts = family->instances;
    insts.erase(std::remove_if(insts.begin(), insts.end(),
                               [callback_id](const auto& inst) {
                                 return inst->callback_id == callback_id;
                               }),
                insts.end());
  }
}

std::vector<MetricRegistry::Sample> MetricRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const auto& [name, family] : families_) {
    for (const auto& inst : family->instances) {
      Sample sample;
      sample.name = name;
      sample.labels = inst->labels;
      sample.kind = family->kind;
      if (inst->callback) {
        sample.value = inst->callback();
      } else if (inst->counter) {
        sample.value = static_cast<double>(inst->counter->Value());
      } else if (inst->gauge) {
        sample.value = inst->gauge->Value();
      } else if (inst->histogram) {
        sample.histogram = inst->histogram->TakeSnapshot();
      }
      out.push_back(std::move(sample));
    }
  }
  return out;
}

std::string MetricRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family->help + "\n";
    out += "# TYPE " + name + " " + std::string(KindName(family->kind)) + "\n";
    for (const auto& inst : family->instances) {
      if (family->kind == MetricKind::kHistogram && inst->histogram) {
        const HistogramSnapshot snap = inst->histogram->TakeSnapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snap.counts.size(); ++i) {
          cumulative += snap.counts[i];
          const std::string le = (i < snap.uppers.size())
                                     ? FormatValue(snap.uppers[i])
                                     : std::string("+Inf");
          out += name + "_bucket" + RenderLabelsWith(inst->labels, "le", le) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += name + "_sum" + RenderLabels(inst->labels) + " " +
               FormatValue(snap.sum) + "\n";
        out += name + "_count" + RenderLabels(inst->labels) + " " +
               std::to_string(snap.count) + "\n";
        continue;
      }
      double value = 0.0;
      if (inst->callback) {
        value = inst->callback();
      } else if (inst->counter) {
        value = static_cast<double>(inst->counter->Value());
      } else if (inst->gauge) {
        value = inst->gauge->Value();
      }
      out += name + RenderLabels(inst->labels) + " " + FormatValue(value) +
             "\n";
    }
  }
  return out;
}

std::string MetricRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out += ",\n";
    first_family = false;
    out += "  \"" + EscapeJson(name) + "\": {\"type\": \"" +
           KindName(family->kind) + "\", \"help\": \"" +
           EscapeJson(family->help) + "\", \"series\": [";
    bool first_inst = true;
    for (const auto& inst : family->instances) {
      if (!first_inst) out += ", ";
      first_inst = false;
      out += "{\"labels\": {";
      bool first_label = true;
      for (const auto& [k, v] : inst->labels) {
        if (!first_label) out += ", ";
        first_label = false;
        out += "\"" + EscapeJson(k) + "\": \"" + EscapeJson(v) + "\"";
      }
      out += "}";
      if (family->kind == MetricKind::kHistogram && inst->histogram) {
        const HistogramSnapshot snap = inst->histogram->TakeSnapshot();
        out += ", \"count\": " + std::to_string(snap.count) +
               ", \"sum\": " + FormatValue(snap.sum) +
               ", \"p50\": " + FormatValue(snap.p50()) +
               ", \"p90\": " + FormatValue(snap.p90()) +
               ", \"p99\": " + FormatValue(snap.p99());
      } else {
        double value = 0.0;
        if (inst->callback) {
          value = inst->callback();
        } else if (inst->counter) {
          value = static_cast<double>(inst->counter->Value());
        } else if (inst->gauge) {
          value = inst->gauge->Value();
        }
        out += ", \"value\": " + FormatValue(value);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n}\n";
  return out;
}

// ---- process-wide thread-pool accounting ---------------------------------

namespace {
std::atomic<int64_t> g_pools{0};
std::atomic<int64_t> g_pool_threads{0};
std::atomic<uint64_t> g_pool_regions{0};
}  // namespace

void NotePoolCreated(unsigned threads) {
  g_pools.fetch_add(1, std::memory_order_relaxed);
  g_pool_threads.fetch_add(threads, std::memory_order_relaxed);
}

void NotePoolDestroyed(unsigned threads) {
  g_pools.fetch_sub(1, std::memory_order_relaxed);
  g_pool_threads.fetch_sub(threads, std::memory_order_relaxed);
}

void NotePoolRegion(size_t) {
  g_pool_regions.fetch_add(1, std::memory_order_relaxed);
}

void RegisterProcessMetrics(MetricRegistry* registry) {
  if (registry == nullptr) registry = &MetricRegistry::Default();
  // Callbacks over process-wide statics never dangle, so no
  // CallbackSet; guard against double registration on the default
  // registry (multiple services may each call this).
  static std::mutex mu;
  static std::vector<MetricRegistry*> done;
  std::lock_guard<std::mutex> lock(mu);
  if (std::find(done.begin(), done.end(), registry) != done.end()) return;
  done.push_back(registry);
  registry->AddCallback(
      "s3_threadpool_pools", "Thread pools currently alive in the process.",
      MetricKind::kGauge, {}, [] {
        return static_cast<double>(g_pools.load(std::memory_order_relaxed));
      });
  registry->AddCallback(
      "s3_threadpool_threads",
      "Worker threads owned by live thread pools (helpers included).",
      MetricKind::kGauge, {}, [] {
        return static_cast<double>(
            g_pool_threads.load(std::memory_order_relaxed));
      });
  registry->AddCallback(
      "s3_threadpool_regions_total",
      "ParallelFor regions executed across all pools since process start.",
      MetricKind::kCounter, {}, [] {
        return static_cast<double>(
            g_pool_regions.load(std::memory_order_relaxed));
      });
}

}  // namespace s3::obs
