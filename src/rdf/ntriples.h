// Line-oriented RDF interchange, N-Triples style with an optional
// weight extension:
//
//   <subject> <property> <object> .
//   <subject> <property> "literal" .
//   <subject> <property> <object> 0.5 .        (weighted, non-standard)
//   # comment
//
// Used to load ontologies; the weight column carries the paper's
// weighted-triple model (§2.1).
#ifndef S3_RDF_NTRIPLES_H_
#define S3_RDF_NTRIPLES_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/term_dictionary.h"
#include "rdf/triple_store.h"

namespace s3::rdf {

struct NTriplesStats {
  size_t triples = 0;
  size_t lines = 0;
};

// Parses `text` into `store`, interning terms in `dict`. Stops at the
// first malformed line with its number in the error message.
Result<NTriplesStats> ParseNTriples(std::string_view text,
                                    TermDictionary& dict,
                                    TripleStore& store);

}  // namespace s3::rdf

#endif  // S3_RDF_NTRIPLES_H_
