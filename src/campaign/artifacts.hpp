// Campaign artifacts: JSON and CSV serialization of result tables and
// per-cell aggregates, plus the parsers that make the formats round-trip
// (CI compares artifacts across runs and thread counts byte-for-byte, so
// serialization is fully deterministic: fixed key order, fixed float
// formatting, no timestamps).
#ifndef SPECSTAB_CAMPAIGN_ARTIFACTS_HPP
#define SPECSTAB_CAMPAIGN_ARTIFACTS_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/stats.hpp"

namespace specstab::campaign {

/// The whole campaign as one JSON document:
/// {"campaign": {...}, "cells": [...], "runs": [...]}.
[[nodiscard]] std::string to_json(const CampaignResult& result,
                                  const std::vector<CellSummary>& cells);

/// One CSV line per executed scenario (header + rows).
[[nodiscard]] std::string runs_to_csv(const CampaignResult& result);

/// One CSV line per aggregated cell (header + rows).
[[nodiscard]] std::string cells_to_csv(const std::vector<CellSummary>& cells);

/// Parses cells_to_csv output.  Throws std::invalid_argument on malformed
/// input (wrong header, wrong column count).
[[nodiscard]] std::vector<CellSummary> cells_from_csv(const std::string& csv);

/// Parses the "cells" array of a to_json document with the repo's JSON
/// codec (serve/json.hpp): integers read back exact over the whole int64
/// range, strings with every escape to_json writes; the runs array is
/// parsed (its uint64 seeds read as doubles) but not read.  Throws
/// std::invalid_argument on malformed JSON, on a missing or mistyped
/// cell key and on a negative count.
[[nodiscard]] std::vector<CellSummary> cells_from_json(
    const std::string& json);

/// Writes `content` to `path`, throwing std::runtime_error on I/O errors.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace specstab::campaign

#endif  // SPECSTAB_CAMPAIGN_ARTIFACTS_HPP
