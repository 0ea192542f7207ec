#include "llrp/reader_journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "llrp/journal_csv.hpp"
#include "llrp/rospec_xml.hpp"

namespace tagwatch::llrp {

namespace {

constexpr const char* kHeader = "# tagwatch-reader-journal v1";
constexpr const char* kJournal = "ReaderJournal";
/// Bytes in the shortest possible reading line, "R,,0,0,0,0,0": the input
/// holds at most size / 12 readings.
constexpr std::size_t kMinReadingLineBytes = 12;

using journal_csv::sanitize_field;
using journal_csv::split_fields;

std::string format_double(double v) {
  char buf[64];
  // %.17g round-trips every IEEE-754 double exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  journal_csv::fail(kJournal, line_no, what);
}

std::int64_t parse_int(const std::string& s, std::size_t line_no) {
  return journal_csv::parse_int(kJournal, s, line_no);
}

std::uint64_t parse_hex64(const std::string& s, std::size_t line_no) {
  if (s.empty()) fail(line_no, "empty digest");
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 16);
  if (end != s.c_str() + s.size()) fail(line_no, "bad digest '" + s + "'");
  return v;
}

double parse_double(const std::string& s, std::size_t line_no) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    fail(line_no, "expected number, got '" + s + "'");
  }
  return v;
}

}  // namespace

std::uint64_t rospec_digest(const ROSpec& spec) {
  return journal_csv::fnv1a(to_xml(spec));
}

std::uint64_t journal_digest(const ReaderJournal& journal) {
  return journal_csv::fnv1a(journal.to_csv());
}

std::string ReaderJournal::to_csv() const {
  std::ostringstream out;
  out << kHeader << '\n';
  const std::string model = sanitize_field(capabilities.model);
  out << "C," << model << ',' << capabilities.antenna_count << ','
      << capabilities.channel_count << ','
      << (capabilities.supports_truncation ? 1 : 0) << ','
      << (capabilities.live ? 1 : 0) << '\n';
  for (const JournalEntry& e : entries_) {
    if (e.kind == JournalEntry::Kind::kAdvance) {
      out << "A," << e.advance.count() << '\n';
      continue;
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(e.digest));
    const gen2::RoundStats& st = e.report.slot_totals;
    out << "E," << digest << ',' << e.start.count() << ','
        << e.report.duration.count() << ',' << e.report.rounds << ','
        << st.slots << ',' << st.empty_slots << ',' << st.collision_slots
        << ',' << st.success_slots << ',' << st.lost_slots << ','
        << st.duration.count() << ',' << e.report.readings.size() << '\n';
    if (e.error) {
      // Error record, attached to the execute above it.
      out << "X," << to_string(e.error->kind) << ',' << e.error->antenna
          << ',' << sanitize_field(e.error->message) << '\n';
    }
    for (const rf::TagReading& r : e.report.readings) {
      out << "R," << r.epc.to_binary() << ','
          << static_cast<unsigned>(r.antenna) << ',' << r.channel << ','
          << format_double(r.phase_rad) << ',' << format_double(r.rssi_dbm)
          << ',' << r.timestamp.count() << '\n';
    }
  }
  return out.str();
}

ReaderJournal ReaderJournal::from_csv(std::string_view csv) {
  ReaderJournal journal;
  std::istringstream in{std::string(csv)};
  std::string line;
  std::size_t line_no = 0;
  std::size_t pending_readings = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1) {
      if (line != kHeader) fail(line_no, "missing journal header");
      continue;
    }
    const std::vector<std::string> f = split_fields(line);
    if (f[0] == "C") {
      if (f.size() != 6) fail(line_no, "capabilities line needs 6 fields");
      journal.capabilities.model = f[1];
      journal.capabilities.antenna_count =
          static_cast<std::size_t>(parse_int(f[2], line_no));
      journal.capabilities.channel_count =
          static_cast<std::size_t>(parse_int(f[3], line_no));
      journal.capabilities.supports_truncation = parse_int(f[4], line_no) != 0;
      journal.capabilities.live = parse_int(f[5], line_no) != 0;
    } else if (f[0] == "A") {
      if (pending_readings != 0) fail(line_no, "readings still pending");
      if (f.size() != 2) fail(line_no, "advance line needs 2 fields");
      JournalEntry e;
      e.kind = JournalEntry::Kind::kAdvance;
      e.advance = util::SimDuration(parse_int(f[1], line_no));
      journal.push(std::move(e));
    } else if (f[0] == "E") {
      if (pending_readings != 0) fail(line_no, "readings still pending");
      if (f.size() != 12) fail(line_no, "execute line needs 12 fields");
      JournalEntry e;
      e.kind = JournalEntry::Kind::kExecute;
      e.digest = parse_hex64(f[1], line_no);
      e.start = util::SimTime(parse_int(f[2], line_no));
      e.report.duration = util::SimDuration(parse_int(f[3], line_no));
      e.report.rounds = static_cast<std::size_t>(parse_int(f[4], line_no));
      gen2::RoundStats& st = e.report.slot_totals;
      st.slots = static_cast<std::size_t>(parse_int(f[5], line_no));
      st.empty_slots = static_cast<std::size_t>(parse_int(f[6], line_no));
      st.collision_slots = static_cast<std::size_t>(parse_int(f[7], line_no));
      st.success_slots = static_cast<std::size_t>(parse_int(f[8], line_no));
      st.lost_slots = static_cast<std::size_t>(parse_int(f[9], line_no));
      st.duration = util::SimDuration(parse_int(f[10], line_no));
      const std::int64_t count = parse_int(f[11], line_no);
      if (count < 0) fail(line_no, "negative reading count");
      pending_readings = static_cast<std::size_t>(count);
      // A hostile count must not size the allocation: reserve no more
      // than the input could hold, and let a short input end in the
      // "truncated mid-entry" error below.
      e.report.readings.reserve(
          std::min(pending_readings, csv.size() / kMinReadingLineBytes));
      journal.push(std::move(e));
    } else if (f[0] == "X") {
      if (journal.entries_.empty() ||
          journal.entries_.back().kind != JournalEntry::Kind::kExecute) {
        fail(line_no, "error record without a preceding execute");
      }
      if (journal.entries_.back().error) {
        fail(line_no, "duplicate error record for one execute");
      }
      if (f.size() != 4) fail(line_no, "error line needs 4 fields");
      ReaderError err;
      try {
        err.kind = reader_error_kind_from_string(f[1]);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      err.antenna = static_cast<std::size_t>(parse_int(f[2], line_no));
      err.message = f[3];
      journal.entries_.back().error = std::move(err);
    } else if (f[0] == "R") {
      if (pending_readings == 0) fail(line_no, "unexpected reading line");
      if (f.size() != 7) fail(line_no, "reading line needs 7 fields");
      rf::TagReading r;
      try {
        r.epc = util::Epc(util::BitString::from_binary(f[1]));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      r.antenna = static_cast<rf::AntennaId>(parse_int(f[2], line_no));
      r.channel = static_cast<std::size_t>(parse_int(f[3], line_no));
      r.phase_rad = parse_double(f[4], line_no);
      r.rssi_dbm = parse_double(f[5], line_no);
      r.timestamp = util::SimTime(parse_int(f[6], line_no));
      journal.entries_.back().report.readings.push_back(std::move(r));
      --pending_readings;
    } else {
      fail(line_no, "unknown record kind '" + f[0] + "'");
    }
  }
  if (pending_readings != 0) {
    fail(line_no, "journal truncated mid-entry");
  }
  return journal;
}

void ReaderJournal::save(const std::string& path) const {
  journal_csv::save(kJournal, path, to_csv());
}

ReaderJournal ReaderJournal::load(const std::string& path) {
  return from_csv(journal_csv::load(kJournal, path));
}

}  // namespace tagwatch::llrp
