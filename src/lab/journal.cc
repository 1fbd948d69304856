#include "src/lab/journal.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "src/lab/report_io.h"
#include "src/obs/json.h"

namespace wdmlat::lab {

namespace {

constexpr const char* kFormatName = "wdmlat-run-journal";
constexpr int kFormatVersion = 1;

using report_json::ParseU64;

// Fingerprint input: a canonical textual description of the spec. Text is
// deliberate — it keeps the hash independent of struct layout, and a
// mismatch can be debugged by printing the two descriptions side by side.
std::string SpecDescription(const MatrixSpec& spec) {
  std::ostringstream out;
  out << "master_seed=" << spec.master_seed << ";trials=" << spec.trials
      << ";stress_minutes=" << HexDouble(spec.stress_minutes)
      << ";warmup_seconds=" << HexDouble(spec.warmup_seconds) << ";oses=";
  for (const auto& os : spec.oses) {
    out << os.name << ",";
  }
  out << ";workloads=";
  for (const auto& workload : spec.workloads) {
    out << workload.name << ",";
  }
  out << ";priorities=";
  for (const int priority : spec.priorities) {
    out << priority << ",";
  }
  out << ";episode_threshold_us=" << HexDouble(spec.episode_threshold_us)
      << ";max_episodes=" << spec.max_episodes;
  if (spec.faults != nullptr && !spec.faults->empty()) {
    out << ";faults=" << spec.faults->name << ":" << spec.faults->seed << ":"
        << spec.faults->specs.size();
  }
  return out.str();
}

}  // namespace

std::uint64_t MatrixFingerprint(const MatrixSpec& spec) {
  return Fnv1a64(SpecDescription(spec));
}

bool LoadJournal(const std::string& path, const MatrixSpec* spec, JournalContents* out,
                 std::string* error) {
  *out = JournalContents{};
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open journal: " + path;
    }
    return false;
  }
  std::string line;
  std::size_t line_number = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    const obs::JsonParseResult parsed = obs::ParseJson(line);
    if (!parsed.valid) {
      if (error != nullptr) {
        std::ostringstream message;
        message << path << ":" << line_number << ": " << parsed.error << " (column "
                << parsed.error_column << ")";
        *error = message.str();
      }
      return false;
    }
    const obs::JsonValue& value = parsed.value;
    if (!have_header) {
      if (value.StringOr("format", "") != kFormatName ||
          static_cast<int>(value.NumberOr("version", 0.0)) != kFormatVersion) {
        if (error != nullptr) {
          *error = path + ": not a wdmlat run journal";
        }
        return false;
      }
      if (!ParseU64(value.StringOr("fingerprint", ""), &out->fingerprint) ||
          !ParseU64(value.StringOr("master_seed", ""), &out->master_seed)) {
        if (error != nullptr) {
          *error = path + ": journal header is missing fingerprint/master_seed";
        }
        return false;
      }
      out->cell_count = static_cast<std::size_t>(value.NumberOr("cells", 0.0));
      if (spec != nullptr) {
        const std::uint64_t expected = MatrixFingerprint(*spec);
        if (out->fingerprint != expected || out->cell_count != spec->cell_count()) {
          if (error != nullptr) {
            *error = path +
                     ": journal was written for a different matrix "
                     "(fingerprint/cell-count mismatch); refusing to resume";
          }
          return false;
        }
      }
      have_header = true;
      continue;
    }
    JournalEntry entry;
    entry.cell = static_cast<std::size_t>(value.NumberOr("cell", 0.0));
    entry.status = value.StringOr("status", "");
    entry.artifact = value.StringOr("artifact", "");
    entry.taxonomy = value.StringOr("taxonomy", "");
    entry.message = value.StringOr("message", "");
    entry.attempts = static_cast<int>(value.NumberOr("attempts", 1.0));
    if (!ParseU64(value.StringOr("seed", "0"), &entry.seed)) {
      entry.seed = 0;
    }
    if (!ParseU64(value.StringOr("checksum", "0"), &entry.checksum)) {
      entry.checksum = 0;
    }
    if (!ParseU64(value.StringOr("samples", "0"), &entry.samples)) {
      entry.samples = 0;
    }
    if (entry.status != "ok" && entry.status != "failed") {
      if (error != nullptr) {
        std::ostringstream message;
        message << path << ":" << line_number << ": unknown cell status \"" << entry.status
                << "\"";
        *error = message.str();
      }
      return false;
    }
    out->entries.push_back(std::move(entry));
  }
  if (!have_header) {
    if (error != nullptr) {
      *error = path + ": journal is empty (no header line)";
    }
    return false;
  }
  return true;
}

bool RunJournal::Create(const std::string& path, const MatrixSpec& spec,
                        std::string* error) {
  path_ = path;
  std::error_code ec;
  std::filesystem::create_directories(CellsDir(), ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create artifact directory " + CellsDir() + ": " + ec.message();
    }
    return false;
  }
  out_.open(path, std::ios::trunc);
  if (!out_) {
    if (error != nullptr) {
      *error = "cannot create journal: " + path;
    }
    return false;
  }
  out_ << "{\"format\": \"" << kFormatName << "\", \"version\": " << kFormatVersion
       << ", \"fingerprint\": \"" << MatrixFingerprint(spec) << "\", \"master_seed\": \""
       << spec.master_seed << "\", \"cells\": " << spec.cell_count() << "}\n";
  out_.flush();
  if (!out_) {
    if (error != nullptr) {
      *error = "write failed on journal: " + path;
    }
    return false;
  }
  return true;
}

bool RunJournal::OpenAppend(const std::string& path, std::string* error) {
  path_ = path;
  std::error_code ec;
  std::filesystem::create_directories(CellsDir(), ec);  // may already exist
  out_.open(path, std::ios::app);
  if (!out_) {
    if (error != nullptr) {
      *error = "cannot reopen journal: " + path;
    }
    return false;
  }
  return true;
}

bool RunJournal::Append(const JournalEntry& entry, std::string* error) {
  std::ostringstream line;
  line << "{\"cell\": " << entry.cell << ", \"seed\": \"" << entry.seed
       << "\", \"status\": \"" << entry.status << "\"";
  if (entry.status == "ok") {
    line << ", \"checksum\": \"" << entry.checksum << "\", \"artifact\": \""
         << report_json::Escape(entry.artifact) << "\", \"samples\": \"" << entry.samples << "\"";
  } else {
    line << ", \"taxonomy\": \"" << report_json::Escape(entry.taxonomy) << "\", \"message\": \""
         << report_json::Escape(entry.message) << "\"";
  }
  line << ", \"attempts\": " << entry.attempts << "}\n";
  out_ << line.str();
  out_.flush();
  if (!out_) {
    if (error != nullptr) {
      *error = "write failed on journal: " + path_;
    }
    return false;
  }
  return true;
}

std::string RunJournal::CellsDir() const { return path_ + ".cells"; }

std::string RunJournal::ArtifactPath(std::size_t cell) const {
  return CellsDir() + "/cell_" + std::to_string(cell) + ".json";
}

}  // namespace wdmlat::lab
