#pragma once
// Word Count (Section V-A): counts word occurrences in the payloads of the
// input sub-dataset. The canonical MapReduce benchmark; moderate per-byte
// CPU (tokenize + count).

#include "mapred/job.hpp"

namespace datanet::apps {

// Each map task counts its words and emits (word, count) once per distinct
// word; the reducer sums the counts.
[[nodiscard]] mapred::Job make_word_count_job();

}  // namespace datanet::apps
