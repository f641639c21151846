#pragma once
// Sub-dataset selection (the first phase of every experiment in Section V-A:
// "launch map tasks to filter out our target sub-dataset and store them
// locally on the cluster nodes"). Provided both as a MapReduce statistics
// job (per-key byte totals) and as the record predicate used by the DataNet
// facade when materializing node-local filtered data.

#include <string>

#include "mapred/job.hpp"

namespace datanet::apps {

// True iff the record belongs to sub-dataset `key`.
[[nodiscard]] inline bool matches_subdataset(const workload::RecordView& record,
                                             std::string_view key) {
  return record.key == key;
}

// MapReduce job: each map task sums encoded_size() over the records of
// `target_key` (empty target = all keys) and emits one (key, bytes) pair per
// key; the reducer sums to per-sub-dataset byte totals.
// Pure scan — the cheapest cost profile (I/O dominated).
[[nodiscard]] mapred::Job make_filter_stats_job(std::string target_key);

}  // namespace datanet::apps
