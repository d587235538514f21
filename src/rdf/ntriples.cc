#include "rdf/ntriples.h"

#include <cctype>
#include <vector>

#include "common/str_util.h"

namespace s3::rdf {

namespace {

Status MalformedLine(size_t line_no, const std::string& why) {
  return Status::InvalidArgument("N-Triples line " +
                                 std::to_string(line_no) + ": " + why);
}

// Reads a <uri> or "literal" token starting at `pos`; advances pos.
Result<TermId> ReadTerm(std::string_view line, size_t& pos,
                        TermDictionary& dict, size_t line_no,
                        bool allow_literal) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
  if (pos >= line.size()) {
    return MalformedLine(line_no, "missing term");
  }
  if (line[pos] == '<') {
    size_t close = line.find('>', pos);
    if (close == std::string_view::npos) {
      return MalformedLine(line_no, "unterminated <uri>");
    }
    std::string_view uri = line.substr(pos + 1, close - pos - 1);
    pos = close + 1;
    return dict.InternUri(uri);
  }
  if (line[pos] == '"') {
    if (!allow_literal) {
      return MalformedLine(line_no, "literal not allowed here");
    }
    std::string value;
    size_t i = pos + 1;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        char esc = line[i + 1];
        value.push_back(esc == 'n' ? '\n' : esc == 't' ? '\t' : esc);
        i += 2;
      } else {
        value.push_back(line[i++]);
      }
    }
    if (i >= line.size()) {
      return MalformedLine(line_no, "unterminated literal");
    }
    pos = i + 1;
    return dict.InternLiteral(value);
  }
  return MalformedLine(line_no, "expected <uri> or \"literal\"");
}

}  // namespace

Result<NTriplesStats> ParseNTriples(std::string_view text,
                                    TermDictionary& dict,
                                    TripleStore& store) {
  NTriplesStats stats;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    ++stats.lines;

    // Trim and skip blanks / comments.
    size_t pos = 0;
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos >= line.size() || line[pos] == '#') {
      if (start > text.size()) break;
      continue;
    }

    Result<TermId> s = ReadTerm(line, pos, dict, line_no, false);
    if (!s.ok()) return s.status();
    Result<TermId> p = ReadTerm(line, pos, dict, line_no, false);
    if (!p.ok()) return p.status();
    Result<TermId> o = ReadTerm(line, pos, dict, line_no, true);
    if (!o.ok()) return o.status();

    // Optional weight, then the final dot.
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    double weight = 1.0;
    if (pos < line.size() && line[pos] != '.') {
      size_t consumed = 0;
      try {
        weight = std::stod(std::string(line.substr(pos)), &consumed);
      } catch (...) {
        return MalformedLine(line_no, "bad weight");
      }
      if (!(weight > 0.0 && weight <= 1.0)) {
        return MalformedLine(line_no, "weight out of (0,1]");
      }
      pos += consumed;
      while (pos < line.size() &&
             std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
    }
    if (pos >= line.size() || line[pos] != '.') {
      return MalformedLine(line_no, "missing terminating '.'");
    }
    store.Add(*s, *p, *o, weight);
    ++stats.triples;
    if (start > text.size()) break;
  }
  return stats;
}

}  // namespace s3::rdf
