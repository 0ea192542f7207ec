// The line-oriented CSV codec shared by ReaderJournal and FleetJournal
// (internal to the llrp library).
//
// Both journals are a header line followed by one record per line, fields
// separated by ',' with no quoting: free-form text is flattened by
// sanitize_field() on the way out, so a field never contains ',' or a line
// break.  Parse errors are std::invalid_argument messages of the form
// "<journal>: line <n>: <what>"; file errors are std::runtime_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tagwatch::llrp::journal_csv {

/// Splits one CSV line into fields (no quoting: fields never contain ',').
std::vector<std::string> split_fields(std::string_view line);

/// CSV fields never contain ',' or '\n'; free-form text is flattened.
std::string sanitize_field(std::string s);

/// FNV-1a 64-bit hash of `bytes` — the journal digest.
std::uint64_t fnv1a(std::string_view bytes);

/// Throws "<journal>: line <line_no>: <what>" as std::invalid_argument.
[[noreturn]] void fail(const char* journal, std::size_t line_no,
                       const std::string& what);

/// Parses a whole field as a decimal integer, or fails with line context.
std::int64_t parse_int(const char* journal, const std::string& s,
                       std::size_t line_no);

/// Writes `csv` to `path`, replacing the file.
void save(const char* journal, const std::string& path,
          const std::string& csv);

/// Reads the whole file at `path`.
std::string load(const char* journal, const std::string& path);

}  // namespace tagwatch::llrp::journal_csv
