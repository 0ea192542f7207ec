#include "llrp/journal_csv.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tagwatch::llrp::journal_csv {

std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields.emplace_back(line.substr(pos));
      break;
    }
    fields.emplace_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return fields;
}

std::string sanitize_field(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void fail(const char* journal, std::size_t line_no, const std::string& what) {
  throw std::invalid_argument(std::string(journal) + ": line " +
                              std::to_string(line_no) + ": " + what);
}

std::int64_t parse_int(const char* journal, const std::string& s,
                       std::size_t line_no) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    if (used != s.size()) {
      fail(journal, line_no, "trailing garbage in '" + s + "'");
    }
    return v;
  } catch (const std::invalid_argument&) {
    fail(journal, line_no, "expected integer, got '" + s + "'");
  } catch (const std::out_of_range&) {
    fail(journal, line_no, "integer out of range: '" + s + "'");
  }
}

void save(const char* journal, const std::string& path,
          const std::string& csv) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error(std::string(journal) + ": cannot open " + path);
  }
  out << csv;
  if (!out) {
    throw std::runtime_error(std::string(journal) + ": write failed: " + path);
  }
}

std::string load(const char* journal, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(journal) + ": cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace tagwatch::llrp::journal_csv
