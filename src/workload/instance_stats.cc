#include "workload/instance_stats.h"

#include <sstream>
#include <unordered_set>

namespace s3::workload {

InstanceStats ComputeStats(const core::S3Instance& inst) {
  InstanceStats s;
  s.users = inst.UserCount();
  s.tags = inst.TagCount();
  s.documents = inst.docs().DocumentCount();
  s.fragments_non_root = inst.docs().NodeCount() - s.documents;
  s.network_edges = inst.edges().size();
  s.social_edges = inst.edges().CountLabel(social::EdgeLabel::kSocial);
  s.components = inst.components().ComponentCount();
  s.rdf_triples = inst.rdf_graph().size();
  s.rdf_derived = inst.saturation_stats().derived_triples;
  s.nodes_without_keywords =
      inst.UserCount() + inst.docs().NodeCount() + inst.TagCount();

  std::unordered_set<KeywordId> distinct;
  for (doc::NodeId n = 0; n < inst.docs().NodeCount(); ++n) {
    const auto kws = inst.docs().Keywords(n);
    s.keyword_occurrences += kws.size();
    distinct.insert(kws.begin(), kws.end());
  }
  s.distinct_keywords = distinct.size();
  s.avg_social_degree =
      s.users == 0 ? 0.0
                   : static_cast<double>(s.social_edges) /
                         static_cast<double>(s.users);
  return s;
}

std::string FormatStats(const std::string& name, const InstanceStats& s) {
  std::ostringstream os;
  os << "=== " << name << " ===\n";
  os << "Users                         " << s.users << "\n";
  os << "S3:social edges               " << s.social_edges << "\n";
  os << "Documents                     " << s.documents << "\n";
  os << "Fragments (non-root)          " << s.fragments_non_root << "\n";
  os << "Tags                          " << s.tags << "\n";
  os << "Keyword occurrences           " << s.keyword_occurrences << "\n";
  os << "Distinct keywords             " << s.distinct_keywords << "\n";
  os << "Nodes (without keywords)      " << s.nodes_without_keywords
     << "\n";
  os << "Network edges                 " << s.network_edges << "\n";
  os << "Components                    " << s.components << "\n";
  os << "RDF triples (saturated)       " << s.rdf_triples << "\n";
  os << "RDF triples derived           " << s.rdf_derived << "\n";
  os << "S3:social edges per user (avg) " << s.avg_social_degree << "\n";
  return os.str();
}

}  // namespace s3::workload
