// Synthetic ontology generator: a stand-in for the DBpedia ontology
// the paper's instances draw their semantics from.
//
// Builds a class forest with ≺sc edges, typed entity instances, and a
// property hierarchy with ≺sp / domain / range declarations. Entity
// and class URIs double as text keywords: the document generators
// "semantically enrich" text by sampling entity URIs, mirroring the
// paper's replacement of words by DBpedia URIs via foaf:name. Queries
// anchored at class URIs then gain matches through Ext(k).
#ifndef S3_WORKLOAD_ONTOLOGY_GEN_H_
#define S3_WORKLOAD_ONTOLOGY_GEN_H_

#include <cstdint>
#include <vector>

#include "core/s3_instance.h"

namespace s3::workload {

struct OntologyParams {
  uint64_t seed = 7;
  uint32_t n_classes = 120;
  uint32_t n_entities = 1200;
  uint32_t n_properties = 30;
  // Probability that a class has a parent (controls forest depth).
  double parent_probability = 0.8;
};

struct OntologyInfo {
  // Keyword ids of class URIs (semantic query anchors).
  std::vector<KeywordId> class_keywords;
  // Keyword ids of entity URIs (sampled into document text).
  std::vector<KeywordId> entity_keywords;
  size_t n_schema_triples = 0;
};

// Adds the ontology to `instance` (must not be finalized).
OntologyInfo GenerateOntology(core::S3Instance& instance,
                              const OntologyParams& params);

}  // namespace s3::workload

#endif  // S3_WORKLOAD_ONTOLOGY_GEN_H_
