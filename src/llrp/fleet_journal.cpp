#include "llrp/fleet_journal.hpp"

#include <sstream>
#include <stdexcept>

#include "llrp/journal_csv.hpp"
#include "util/bitstring.hpp"

namespace tagwatch::llrp {

namespace {

constexpr const char* kHeader = "# tagwatch-fleet-journal v1";
constexpr const char* kJournal = "FleetJournal";

using journal_csv::sanitize_field;
using journal_csv::split_fields;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  journal_csv::fail(kJournal, line_no, what);
}

std::int64_t parse_int(const std::string& s, std::size_t line_no) {
  return journal_csv::parse_int(kJournal, s, line_no);
}

}  // namespace

std::uint64_t fleet_journal_digest(const FleetJournal& journal) {
  return journal_csv::fnv1a(journal.to_csv());
}

std::string FleetJournal::to_csv() const {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "S," << setup.readers << ',' << sanitize_field(setup.policy) << ','
      << gen2::to_string(setup.session) << ',' << setup.dedup_window.count()
      << '\n';
  for (const FleetJournalEntry& e : entries_) {
    switch (e.kind) {
      case FleetJournalEntry::Kind::kHandoff:
        out << "H," << e.handoff.epc.to_binary() << ','
            << e.handoff.from_reader << ',' << e.handoff.to_reader << ','
            << e.handoff.at.count() << '\n';
        break;
      case FleetJournalEntry::Kind::kDown:
        out << "D," << e.down.cycle << ',' << e.down.reader << ','
            << sanitize_field(e.down.zone) << ','
            << e.down.consecutive_failures << '\n';
        break;
      case FleetJournalEntry::Kind::kTakeover:
        out << "T," << e.takeover.cycle << ',' << e.takeover.from_reader
            << ',' << e.takeover.to_reader << ',' << e.takeover.radius_mm
            << '\n';
        break;
      case FleetJournalEntry::Kind::kRecover:
        out << "R," << e.recover.cycle << ',' << e.recover.reader << ','
            << e.recover.down_for_cycles << '\n';
        break;
      case FleetJournalEntry::Kind::kCycle: {
        const FleetCycleRecord& c = e.cycle;
        out << "F," << c.cycle << ',' << c.reader << ','
            << sanitize_field(c.zone) << ',' << c.phase1_readings << ','
            << c.phase2_readings << ',' << c.delivered << ',' << c.duplicates
            << '\n';
        break;
      }
    }
  }
  return out.str();
}

FleetJournal FleetJournal::from_csv(std::string_view csv) {
  FleetJournal journal;
  std::istringstream in{std::string(csv)};
  std::string line;
  std::size_t line_no = 0;
  bool saw_setup = false;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1) {
      if (line != kHeader) fail(line_no, "missing journal header");
      continue;
    }
    const std::vector<std::string> f = split_fields(line);
    if (f[0] == "S") {
      if (f.size() != 5) fail(line_no, "setup line needs 5 fields");
      if (saw_setup) fail(line_no, "duplicate setup line");
      journal.setup.readers =
          static_cast<std::size_t>(parse_int(f[1], line_no));
      journal.setup.policy = f[2];
      try {
        journal.setup.session = gen2::session_from_string(f[3]);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      journal.setup.dedup_window = util::SimDuration(parse_int(f[4], line_no));
      saw_setup = true;
    } else if (f[0] == "F") {
      if (f.size() != 8) fail(line_no, "cycle line needs 8 fields");
      FleetCycleRecord c;
      c.cycle = static_cast<std::size_t>(parse_int(f[1], line_no));
      c.reader = static_cast<std::size_t>(parse_int(f[2], line_no));
      c.zone = f[3];
      c.phase1_readings = static_cast<std::size_t>(parse_int(f[4], line_no));
      c.phase2_readings = static_cast<std::size_t>(parse_int(f[5], line_no));
      c.delivered = static_cast<std::size_t>(parse_int(f[6], line_no));
      c.duplicates = static_cast<std::size_t>(parse_int(f[7], line_no));
      journal.push_cycle(std::move(c));
    } else if (f[0] == "H") {
      if (f.size() != 5) fail(line_no, "handoff line needs 5 fields");
      FleetHandoffRecord h;
      try {
        h.epc = util::Epc(util::BitString::from_binary(f[1]));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      h.from_reader = static_cast<std::size_t>(parse_int(f[2], line_no));
      h.to_reader = static_cast<std::size_t>(parse_int(f[3], line_no));
      h.at = util::SimTime(parse_int(f[4], line_no));
      journal.push_handoff(std::move(h));
    } else if (f[0] == "D") {
      if (f.size() != 5) fail(line_no, "down line needs 5 fields");
      FleetDownRecord d;
      d.cycle = static_cast<std::size_t>(parse_int(f[1], line_no));
      d.reader = static_cast<std::size_t>(parse_int(f[2], line_no));
      d.zone = f[3];
      d.consecutive_failures =
          static_cast<std::size_t>(parse_int(f[4], line_no));
      journal.push_down(std::move(d));
    } else if (f[0] == "T") {
      if (f.size() != 5) fail(line_no, "takeover line needs 5 fields");
      FleetTakeoverRecord t;
      t.cycle = static_cast<std::size_t>(parse_int(f[1], line_no));
      t.from_reader = static_cast<std::size_t>(parse_int(f[2], line_no));
      t.to_reader = static_cast<std::size_t>(parse_int(f[3], line_no));
      t.radius_mm = parse_int(f[4], line_no);
      journal.push_takeover(t);
    } else if (f[0] == "R") {
      if (f.size() != 4) fail(line_no, "recover line needs 4 fields");
      FleetRecoverRecord r;
      r.cycle = static_cast<std::size_t>(parse_int(f[1], line_no));
      r.reader = static_cast<std::size_t>(parse_int(f[2], line_no));
      r.down_for_cycles = static_cast<std::size_t>(parse_int(f[3], line_no));
      journal.push_recover(r);
    } else {
      fail(line_no, "unknown record kind '" + f[0] + "'");
    }
  }
  if (!saw_setup && !journal.entries_.empty()) {
    fail(line_no, "journal has records but no setup line");
  }
  return journal;
}

void FleetJournal::save(const std::string& path) const {
  journal_csv::save(kJournal, path, to_csv());
}

FleetJournal FleetJournal::load(const std::string& path) {
  return from_csv(journal_csv::load(kJournal, path));
}

}  // namespace tagwatch::llrp
