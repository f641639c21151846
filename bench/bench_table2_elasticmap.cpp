// Table II reproduction: ElasticMap memory efficiency vs accuracy as the
// hash-map fraction alpha varies. The paper sweeps alpha = 51/40/31/25/21 %
// and reports accuracy chi from 97% down to 80% and raw-to-meta
// representation ratios from 1857 up to 3497.
//
// Shape to match: accuracy falls and the representation ratio rises
// monotonically as alpha shrinks; the binary exits non-zero if either step
// of the sweep breaks that. (Absolute ratios differ: our scaled blocks are
// 128 KiB, not 64 MiB, so each block holds fewer sub-datasets.)

#include <cstdio>
#include <limits>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "elasticmap/cost_model.hpp"
#include "elasticmap/elastic_map.hpp"

int main() {
  using namespace datanet;
  benchutil::print_header(
      "Table II: the efficiency of ElasticMap",
      "alpha 51..21% -> accuracy 97..80%, representation ratio 1857..3497");

  // Larger scaled blocks (512 KiB) for this sweep: accuracy depends on the
  // records-per-block ratio, and bigger blocks sit closer to the paper's
  // 64 MiB regime.
  auto cfg = benchutil::paper_config();
  cfg.block_size = 512 * 1024;
  const auto ds = core::make_movie_dataset(cfg, /*num_blocks=*/128,
                                           /*num_movies=*/2000);

  std::vector<std::pair<workload::SubDatasetId, std::uint64_t>> totals;
  for (const auto sid : ds.truth->ids_by_size()) {
    totals.emplace_back(sid, ds.truth->total_size(sid));
  }

  common::TextTable table({"alpha", "accuracy (chi)", "repr. ratio",
                           "meta KiB", "Eq.5 predicted KiB",
                           "avg dominant/block"});
  bool chi_falls = true;
  bool ratio_rises = true;
  double prev_chi = std::numeric_limits<double>::infinity();
  double prev_ratio = -std::numeric_limits<double>::infinity();
  for (const double alpha : {0.51, 0.40, 0.31, 0.25, 0.21, 0.15, 0.10}) {
    const auto em =
        elasticmap::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = alpha});
    std::uint64_t dominant = 0, subdatasets = 0;
    for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
      dominant += em.block_meta(b).num_dominant();
      subdatasets +=
          em.block_meta(b).num_dominant() + em.block_meta(b).num_tail();
    }
    // Eq. 5 with the realized alpha and our serialized record size.
    elasticmap::CostModelParams model;
    model.alpha =
        static_cast<double>(dominant) / static_cast<double>(subdatasets);
    model.hashmap_record_bits = 128.0;
    model.hashmap_load_factor = 1.0;
    const auto predicted = elasticmap::elasticmap_cost_bytes(subdatasets, model);
    const double chi = em.accuracy_chi(totals);
    const double ratio = em.representation_ratio();
    chi_falls = chi_falls && chi < prev_chi;
    ratio_rises = ratio_rises && ratio > prev_ratio;
    prev_chi = chi;
    prev_ratio = ratio;
    table.add_row(
        {common::fmt_percent(alpha, 0), common::fmt_percent(chi),
         common::fmt_double(ratio, 0),
         common::fmt_double(static_cast<double>(em.memory_bytes()) / 1024.0, 1),
         common::fmt_double(static_cast<double>(predicted) / 1024.0, 1),
         common::fmt_double(static_cast<double>(dominant) /
                                static_cast<double>(em.num_blocks()),
                            1)});
  }
  std::printf("\n%s\n", table.to_string().c_str());
  if (!chi_falls || !ratio_rises) {
    std::printf("trend check FAILED:%s%s\n",
                chi_falls ? "" : " accuracy does not fall as alpha shrinks;",
                ratio_rises ? "" : " representation ratio does not rise;");
    return 1;
  }
  std::printf("trend check: accuracy decreases and representation ratio "
              "increases as alpha shrinks, as in Table II.\n");
  return 0;
}
