#include "log/log.h"

#include <algorithm>
#include <unordered_set>

#include "log/validate.h"

namespace wflog {

Log::Log(std::vector<LogRecord> records, Interner interner)
    : records_(std::move(records)),
      interner_(std::make_unique<Interner>(std::move(interner))) {
  start_sym_ = interner_->find(kStartActivity);
  end_sym_ = interner_->find(kEndActivity);
  std::unordered_set<Wid> seen;
  for (const LogRecord& l : records_) {
    if (seen.insert(l.wid).second) wids_.push_back(l.wid);
  }
}

Log Log::from_records(std::vector<LogRecord> records, Interner interner) {
  const auto by_lsn = [](const LogRecord& a, const LogRecord& b) {
    return a.lsn < b.lsn;
  };
  // Stores and generators hand records over in lsn order already.
  if (!std::is_sorted(records.begin(), records.end(), by_lsn)) {
    std::sort(records.begin(), records.end(), by_lsn);
  }
  validate_well_formed(records, interner);
  return Log(std::move(records), std::move(interner));
}

Log Log::from_records_unchecked(std::vector<LogRecord> records,
                                Interner interner) {
  return Log(std::move(records), std::move(interner));
}

}  // namespace wflog
