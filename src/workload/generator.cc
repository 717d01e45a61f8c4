#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/hash.h"
#include "common/random.h"
#include "expr/predicate.h"

namespace hybridjoin {

namespace {

constexpr uint64_t kKeyHashSeed = 0xc0ffeeULL;

/// Uniform key-hash in [0,1): the position of a join key in "window space".
double KeyHash(int64_t key) {
  return static_cast<double>(
             HashInt64(static_cast<uint64_t>(key), kKeyHashSeed) >> 11) *
         0x1.0p-53;
}

double Frac(double x) { return x - std::floor(x); }

/// Stable permutation sorting `batch`'s rows by the int32 column `col`
/// ascending (stability keeps the clustered layouts deterministic).
std::vector<uint32_t> SortedByColumn(const RecordBatch& batch, size_t col) {
  std::vector<uint32_t> perm(batch.num_rows());
  std::iota(perm.begin(), perm.end(), 0u);
  const auto& values = batch.column(col).i32();
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) { return values[a] < values[b]; });
  return perm;
}

}  // namespace

Result<SolvedSpec> SolveSelectivities(const SelectivitySpec& spec,
                                      const WorkloadConfig& config) {
  const double st = spec.st;
  const double sl = spec.sl;
  const double sigma_t = spec.sigma_t;
  const double sigma_l = spec.sigma_l;
  if (sigma_t <= 0 || sigma_t > 1 || sigma_l <= 0 || sigma_l > 1 ||
      st <= 0 || st > 1 || sl <= 0 || sl > 1) {
    return Status::InvalidArgument(
        "selectivities must be in (0, 1]");
  }
  if (sigma_t + sigma_l > 1.0) {
    return Status::InvalidArgument(
        "sigma_t + sigma_l > 1 would force key-window overlap; unsupported");
  }

  // Window widths as a function of the overlap o: the tuple selectivity
  // bound (indPred <= 1) forces w >= sigma; the join-key target forces
  // w = o / s once o is large enough.
  auto wt_of = [&](double o) { return std::max(sigma_t, o / st); };
  auto wl_of = [&](double o) { return std::max(sigma_l, o / sl); };
  // Packing constraint: the two windows must fit in [0,1) with overlap o.
  auto packing = [&](double o) { return wt_of(o) + wl_of(o) - o - 1.0; };

  // The smallest overlap at which both join-key targets are met exactly.
  const double o_exact = std::max(sigma_t * st, sigma_l * sl);
  double o = o_exact;
  if (packing(o) > 0) {
    // Targets are geometrically infeasible (the windows cannot fit); find
    // the largest feasible overlap and report the achieved selectivities.
    double lo = 0.0;
    double hi = o_exact;
    for (int iter = 0; iter < 64; ++iter) {
      const double mid = (lo + hi) / 2;
      if (packing(mid) <= 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    o = lo;
  }

  SolvedSpec solved;
  solved.wt = wt_of(o);
  solved.wl = wl_of(o);
  solved.offset_l = solved.wt - o;  // L window = [wt - o, wt - o + wl)
  solved.bt = sigma_t / solved.wt;
  solved.bl = sigma_l / solved.wl;
  const double d = static_cast<double>(config.pred_domain);
  solved.t_cor_lit = static_cast<int32_t>(std::lround(solved.wt * d));
  solved.t_ind_lit = static_cast<int32_t>(std::lround(solved.bt * d));
  solved.l_cor_lit = static_cast<int32_t>(std::lround(solved.wl * d));
  solved.l_ind_lit = static_cast<int32_t>(std::lround(solved.bl * d));
  return solved;
}

SchemaPtr Workload::TSchema() {
  return Schema::Make({{"uniqKey", DataType::kInt64},
                       {"joinKey", DataType::kInt32},
                       {"corPred", DataType::kInt32},
                       {"indPred", DataType::kInt32},
                       {"predAfterJoin", DataType::kDate},
                       {"dummy1", DataType::kString},
                       {"dummy2", DataType::kInt32},
                       {"dummy3", DataType::kTime}});
}

SchemaPtr Workload::LSchema() {
  return Schema::Make({{"joinKey", DataType::kInt32},
                       {"corPred", DataType::kInt32},
                       {"indPred", DataType::kInt32},
                       {"predAfterJoin", DataType::kDate},
                       {"groupByExtractCol", DataType::kString},
                       {"dummy", DataType::kString}});
}

Result<Workload> Workload::Generate(const WorkloadConfig& config,
                                    const SelectivitySpec& spec) {
  if (config.num_join_keys == 0 || config.t_rows == 0 || config.l_rows == 0) {
    return Status::InvalidArgument("workload sizes must be positive");
  }
  if (config.zipf_s < 0 || !std::isfinite(config.zipf_s)) {
    return Status::InvalidArgument("zipf_s must be finite and >= 0");
  }
  HJ_ASSIGN_OR_RETURN(SolvedSpec solved, SolveSelectivities(spec, config));

  Workload w;
  w.config_ = config;
  w.spec_ = spec;
  w.solved_ = solved;

  const double d = static_cast<double>(config.pred_domain);
  const uint64_t keys = config.num_join_keys;

  // Per-key correlated predicate values for both tables.
  std::vector<int32_t> t_cor(keys);
  std::vector<int32_t> l_cor(keys);
  for (uint64_t k = 0; k < keys; ++k) {
    const double h = KeyHash(static_cast<int64_t>(k));
    t_cor[k] = static_cast<int32_t>(h * d);
    l_cor[k] = static_cast<int32_t>(Frac(h - solved.offset_l) * d);
  }

  // Zipf key sampler shared by both tables: cumulative weights once, then
  // one uniform draw + binary search per row. zipf_s == 0 must keep the
  // historical `rng.Uniform(keys)` call so existing seeds stay bit-identical.
  // Ranks map to key ids in KeyHash-ascending order: the corPred key windows
  // are [0, w) intervals in key-hash space, so a hash-ordered ranking keeps
  // the hottest ranks inside every window — the post-predicate stream stays
  // Zipf-skewed instead of losing its head to key-window luck.
  std::vector<double> zipf_cdf;
  std::vector<uint32_t> ranked_keys;  // rank -> key id, hash-ascending
  if (config.zipf_s > 0) {
    zipf_cdf.resize(keys);
    double acc = 0;
    for (uint64_t k = 0; k < keys; ++k) {
      acc += std::pow(static_cast<double>(k + 1), -config.zipf_s);
      zipf_cdf[k] = acc;
    }
    for (double& v : zipf_cdf) v /= acc;
    ranked_keys.resize(keys);
    std::iota(ranked_keys.begin(), ranked_keys.end(), 0u);
    std::sort(ranked_keys.begin(), ranked_keys.end(),
              [](uint32_t a, uint32_t b) {
                const double ha = KeyHash(a);
                const double hb = KeyHash(b);
                if (ha != hb) return ha < hb;
                return a < b;
              });
  }
  auto draw_key = [&](Rng& rng) {
    if (zipf_cdf.empty()) return static_cast<uint32_t>(rng.Uniform(keys));
    const auto it = std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(),
                                     rng.NextDouble());
    const auto rank = std::min<uint64_t>(
        static_cast<uint64_t>(it - zipf_cdf.begin()), keys - 1);
    return ranked_keys[rank];
  };

  // --- T ---
  {
    Rng rng(config.seed * 31 + 1);
    w.t_ = RecordBatch(TSchema());
    w.t_.Reserve(config.t_rows);
    auto& uniq = w.t_.mutable_column(0).mutable_i64();
    auto& jk = w.t_.mutable_column(1).mutable_i32();
    auto& cor = w.t_.mutable_column(2).mutable_i32();
    auto& ind = w.t_.mutable_column(3).mutable_i32();
    auto& date = w.t_.mutable_column(4).mutable_i32();
    auto& d1 = w.t_.mutable_column(5).mutable_str();
    auto& d2 = w.t_.mutable_column(6).mutable_i32();
    auto& d3 = w.t_.mutable_column(7).mutable_i32();
    char buf[64];
    for (uint64_t r = 0; r < config.t_rows; ++r) {
      const uint32_t key = draw_key(rng);
      uniq.push_back(static_cast<int64_t>(r));
      jk.push_back(static_cast<int32_t>(key));
      cor.push_back(t_cor[key]);
      ind.push_back(static_cast<int32_t>(rng.Uniform(config.pred_domain)));
      date.push_back(config.date_base_days +
                     static_cast<int32_t>(rng.Uniform(
                         config.date_window_days)));
      std::snprintf(buf, sizeof(buf), "txn/store%03u/terminal%02u/%08llx",
                    static_cast<unsigned>(rng.Uniform(500)),
                    static_cast<unsigned>(rng.Uniform(20)),
                    static_cast<unsigned long long>(rng.Next() & 0xffffffff));
      d1.push_back(buf);
      d2.push_back(static_cast<int32_t>(rng.Uniform(1 << 20)));
      d3.push_back(static_cast<int32_t>(rng.Uniform(86400)));
    }
    if (config.cluster_t_by_pred) {
      // Same rows, corPred-sorted storage order: every stored batch lands
      // entirely inside or entirely outside the corPred window, so a
      // single-batch sample misestimates sigma_T no matter which batch it
      // picks (see WorkloadConfig::cluster_t_by_pred).
      w.t_ = w.t_.Gather(SortedByColumn(w.t_, 2));
    }
  }

  // --- L ---
  {
    Rng rng(config.seed * 131 + 7);
    char buf[64];
    uint64_t remaining = config.l_rows;
    while (remaining > 0) {
      const uint64_t n = std::min<uint64_t>(remaining, config.batch_rows);
      RecordBatch batch(LSchema());
      batch.Reserve(n);
      auto& jk = batch.mutable_column(0).mutable_i32();
      auto& cor = batch.mutable_column(1).mutable_i32();
      auto& ind = batch.mutable_column(2).mutable_i32();
      auto& date = batch.mutable_column(3).mutable_i32();
      auto& grp = batch.mutable_column(4).mutable_str();
      auto& dummy = batch.mutable_column(5).mutable_str();
      for (uint64_t r = 0; r < n; ++r) {
        const uint32_t key = draw_key(rng);
        jk.push_back(static_cast<int32_t>(key));
        cor.push_back(l_cor[key]);
        ind.push_back(static_cast<int32_t>(rng.Uniform(config.pred_domain)));
        date.push_back(config.date_base_days +
                       static_cast<int32_t>(rng.Uniform(
                           config.date_window_days)));
        std::snprintf(buf, sizeof(buf), "g%u/products/item%05u",
                      static_cast<unsigned>(rng.Uniform(config.num_groups)),
                      static_cast<unsigned>(rng.Uniform(100000)));
        grp.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%08llx",
                      static_cast<unsigned long long>(rng.Next() &
                                                      0xffffffff));
        dummy.push_back(buf);
      }
      w.l_.push_back(std::move(batch));
      remaining -= n;
    }
    if (config.cluster_l_by_pred && !w.l_.empty()) {
      // Concatenate, corPred-sort, re-chunk: the HDFS blocks written from
      // these batches inherit the clustered order, so any single-block
      // sample misestimates sigma_L (see WorkloadConfig::cluster_l_by_pred).
      const RecordBatch all = ConcatBatches(LSchema(), w.l_);
      const std::vector<uint32_t> perm = SortedByColumn(all, 1);
      std::vector<RecordBatch> clustered;
      for (size_t off = 0; off < perm.size(); off += config.batch_rows) {
        const size_t end = std::min<size_t>(off + config.batch_rows,
                                            perm.size());
        clustered.push_back(all.Gather(
            std::vector<uint32_t>(perm.begin() + off, perm.begin() + end)));
      }
      w.l_ = std::move(clustered);
    }
  }
  return w;
}

HybridQuery Workload::MakeQuery() const {
  HybridQuery q;
  q.db.table = "T";
  q.db.alias = "T";
  q.db.predicate = And({Cmp("corPred", CmpOp::kLt, solved_.t_cor_lit),
                        Cmp("indPred", CmpOp::kLt, solved_.t_ind_lit)});
  q.db.projection = {"joinKey", "predAfterJoin"};
  q.db.join_key = "joinKey";

  q.hdfs.table = "L";
  q.hdfs.alias = "L";
  q.hdfs.predicate = And({Cmp("corPred", CmpOp::kLt, solved_.l_cor_lit),
                          Cmp("indPred", CmpOp::kLt, solved_.l_ind_lit)});
  q.hdfs.projection = {"joinKey", "predAfterJoin", "groupByExtractCol"};
  q.hdfs.join_key = "joinKey";

  // days(T.predAfterJoin) - days(L.predAfterJoin) BETWEEN 0 AND 1
  q.post_join_predicate =
      DiffRange("T.predAfterJoin", "L.predAfterJoin", 0, 1);
  q.agg = AggSpec::CountStar("L.groupByExtractCol", /*extract_group=*/true);
  return q;
}

}  // namespace hybridjoin
