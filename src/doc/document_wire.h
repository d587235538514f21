// Wire codec for one document tree, shared by the two storage-layer
// producers — the binary snapshot DOCS section (core/snapshot_binary)
// and the delta WAL document op (core/instance_delta) — so layout and
// validation can never diverge between them.
//
// Layout (little-endian, common/binary_io.h):
//   u32 node count (>= 1), then per node in local order:
//     u32 parent local index (UINT32_MAX for the root, node 0)
//     str name
//     u32 keyword count, then that many u32 keyword ids
#ifndef S3_DOC_DOCUMENT_WIRE_H_
#define S3_DOC_DOCUMENT_WIRE_H_

#include <cstdint>
#include <string_view>

#include "common/binary_io.h"
#include "common/status.h"
#include "doc/document.h"
#include "doc/document_store.h"

namespace s3::doc {

// Encodes registered document `d` of `store`: a snapshot's store, or a
// delta's store of its own documents for the WAL.
void WriteDocumentTree(const DocumentStore& store, DocId d, ByteWriter& w);

// Bounds-checked inverses: reject a parentless/extra root, forward
// parent references, keyword ids >= `keyword_bound`, and truncation.
// ReadDocumentTree builds a Document; AppendDocumentTree decodes
// straight into `store` under `root_uri` and also fails as
// DocumentStore::AddDocument does, leaving `store` unchanged on any
// failure. Error messages carry no site context — callers wrap them
// with their section / record position.
Result<Document> ReadDocumentTree(ByteReader& r, uint64_t keyword_bound);
Result<DocId> AppendDocumentTree(ByteReader& r, uint64_t keyword_bound,
                                 std::string_view root_uri,
                                 DocumentStore& store);

}  // namespace s3::doc

#endif  // S3_DOC_DOCUMENT_WIRE_H_
