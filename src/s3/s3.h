// Umbrella header: the full public API of the S3 library.
//
// Typical usage:
//
//   #include "s3/s3.h"
//
//   s3::core::S3Instance inst;
//   auto alice = inst.AddUser("user:alice");
//   ... add documents, tags, social edges, ontology ...
//   inst.Finalize();
//
//   s3::core::S3kSearcher searcher(inst, s3::core::S3kOptions{});
//   auto top = searcher.Search({alice, {inst.InternKeyword("degree")}});
#ifndef S3_S3_S3_H_
#define S3_S3_S3_H_

// Core: the unified social/structured/semantic instance and search.
#include "core/bound_engine.h"
#include "core/connections.h"
#include "core/naive_reference.h"
#include "core/s3_instance.h"
#include "core/s3k.h"
#include "core/score.h"
#include "core/snapshot_binary.h"

// Substrates.
#include "doc/document.h"
#include "doc/document_store.h"
#include "doc/inverted_index.h"
#include "doc/json_parser.h"
#include "doc/xml_parser.h"
#include "rdf/extension.h"
#include "rdf/ntriples.h"
#include "rdf/saturation.h"
#include "rdf/term_dictionary.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "social/components.h"
#include "social/edge_store.h"
#include "social/entity.h"
#include "social/transition_matrix.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

// Baseline, workloads, evaluation.
#include "baseline/flatten.h"
#include "baseline/topks.h"
#include "baseline/uit.h"
#include "eval/metrics.h"
#include "eval/runtime.h"
#include "workload/business_gen.h"
#include "workload/instance_stats.h"
#include "workload/microblog_gen.h"
#include "workload/ontology_gen.h"
#include "workload/query_gen.h"
#include "workload/review_gen.h"

// Utilities.
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

#endif  // S3_S3_S3_H_
