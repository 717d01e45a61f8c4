#include "exec/join_prober.h"

#include <algorithm>

namespace hybridjoin {

SchemaPtr MakeJoinedSchema(const SchemaPtr& build_schema,
                           const std::string& build_alias,
                           const SchemaPtr& probe_schema,
                           const std::string& probe_alias) {
  std::vector<Field> fields;
  fields.reserve(build_schema->num_fields() + probe_schema->num_fields());
  for (const Field& f : build_schema->fields()) {
    fields.push_back({build_alias + "." + f.name, f.type});
  }
  for (const Field& f : probe_schema->fields()) {
    fields.push_back({probe_alias + "." + f.name, f.type});
  }
  return Schema::Make(std::move(fields));
}

JoinProber::JoinProber(const JoinHashTable* build, SchemaPtr build_schema,
                       std::string build_alias, SchemaPtr probe_schema,
                       std::string probe_alias, size_t probe_key_column,
                       PredicatePtr post_join_predicate,
                       HashAggregator* aggregator, Metrics* metrics,
                       JoinProberOptions options)
    : build_(build),
      probe_schema_(std::move(probe_schema)),
      probe_key_column_(probe_key_column),
      aggregator_(aggregator),
      metrics_(metrics),
      options_(options),
      joined_schema_(MakeJoinedSchema(build_schema, build_alias,
                                      probe_schema_, probe_alias)),
      build_width_(build_schema->num_fields()),
      pending_(joined_schema_) {
  HJ_CHECK(build_->finalized()) << "probe against non-finalized hash table";
  // The walk applies the band only when the table is ordered by its column.
  band_ = ExtractJoinBand(post_join_predicate, joined_schema_, build_width_);
  if (band_.has_value() && build_->band_column() == band_->build_column) {
    residual_ = band_->residual;
  } else {
    band_.reset();
    residual_ = std::move(post_join_predicate);
  }
  // Split the joined columns into those the residual reads and the rest. A
  // name the joined schema lacks is left to Filter to report.
  std::vector<std::string> read;
  if (residual_ != nullptr) residual_->CollectColumns(&read);
  for (const std::string& name : read) {
    auto idx = joined_schema_->IndexOf(name);
    if (idx.ok()) filter_columns_.push_back(*idx);
  }
  std::sort(filter_columns_.begin(), filter_columns_.end());
  filter_columns_.erase(
      std::unique(filter_columns_.begin(), filter_columns_.end()),
      filter_columns_.end());
  for (size_t c = 0; c < joined_schema_->num_fields(); ++c) {
    if (!std::binary_search(filter_columns_.begin(), filter_columns_.end(),
                            c)) {
      late_columns_.push_back(c);
    }
  }
  filter_batch_ = RecordBatch(joined_schema_->Project(filter_columns_));

  // The build side is frozen after Finalize, so the typed data pointers of
  // every build column/batch can be resolved once here.
  const auto& batches = build_->batches();
  build_sources_.resize(build_width_);
  for (size_t c = 0; c < build_width_; ++c) {
    BuildSource& gc = build_sources_[c];
    gc.type = PhysicalTypeOf(build_schema->field(c).type);
    gc.per_batch.reserve(batches.size());
    for (const RecordBatch& b : batches) {
      const ColumnVector& col = b.column(c);
      switch (gc.type) {
        case PhysicalType::kInt32:
          gc.per_batch.push_back(col.i32().data());
          break;
        case PhysicalType::kInt64:
          gc.per_batch.push_back(col.i64().data());
          break;
        case PhysicalType::kFloat64:
          gc.per_batch.push_back(col.f64().data());
          break;
        case PhysicalType::kString:
          gc.per_batch.push_back(&col.str());
          break;
      }
    }
  }
}

void JoinProber::GatherColumn(size_t c, const RecordBatch& probe_batch,
                              const JoinMatch* m, size_t n,
                              ColumnVector* dst) const {
  if (c >= build_width_) {
    dst->GatherAppendFrom(probe_batch.column(c - build_width_),
                          probe_rows_.data(), n);
    return;
  }
  const BuildSource& src = build_sources_[c];
  switch (src.type) {
    case PhysicalType::kInt32: {
      auto& o = dst->mutable_i32();
      o.reserve(o.size() + n);
      for (size_t j = 0; j < n; ++j) {
        o.push_back(
            static_cast<const int32_t*>(src.per_batch[m[j].batch])[m[j].row]);
      }
      break;
    }
    case PhysicalType::kInt64: {
      auto& o = dst->mutable_i64();
      o.reserve(o.size() + n);
      for (size_t j = 0; j < n; ++j) {
        o.push_back(
            static_cast<const int64_t*>(src.per_batch[m[j].batch])[m[j].row]);
      }
      break;
    }
    case PhysicalType::kFloat64: {
      auto& o = dst->mutable_f64();
      o.reserve(o.size() + n);
      for (size_t j = 0; j < n; ++j) {
        o.push_back(
            static_cast<const double*>(src.per_batch[m[j].batch])[m[j].row]);
      }
      break;
    }
    case PhysicalType::kString: {
      // Sum the rows' bytes first, so the buffer grows once.
      auto row = [&](size_t j) {
        return (*static_cast<const StringColumn*>(
            src.per_batch[m[j].batch]))[m[j].row];
      };
      size_t total = 0;
      for (size_t j = 0; j < n; ++j) total += row(j).size();
      StringColumn& o = dst->mutable_str();
      o.reserve(o.size() + n);
      char* out = o.BeginWrite(total, 0);
      for (size_t j = 0; j < n; ++j) out = o.WriteRow(out, row(j));
      break;
    }
  }
}

Status JoinProber::AppendMatches(const RecordBatch& probe_batch,
                                 const JoinMatch* m, size_t n) {
  auto set_probe_rows = [this](const JoinMatch* rows, size_t count) {
    probe_rows_.resize(count);
    for (size_t j = 0; j < count; ++j) probe_rows_[j] = rows[j].probe_row;
  };
  if (residual_ != nullptr) {
    // Filter on the residual's columns, gathered for every match; keep
    // those columns for the survivors and narrow the match list to them.
    set_probe_rows(m, n);
    for (size_t k = 0; k < filter_columns_.size(); ++k) {
      ColumnVector* col = &filter_batch_.mutable_column(k);
      col->Clear();
      GatherColumn(filter_columns_[k], probe_batch, m, n, col);
    }
    sel_.resize(n);
    for (uint32_t j = 0; j < n; ++j) sel_[j] = j;
    HJ_RETURN_IF_ERROR(residual_->Filter(filter_batch_, &sel_));
    for (size_t k = 0; k < filter_columns_.size(); ++k) {
      pending_.mutable_column(filter_columns_[k])
          .GatherAppendFrom(filter_batch_.column(k), sel_.data(), sel_.size());
    }
    survivors_.resize(sel_.size());
    for (size_t j = 0; j < sel_.size(); ++j) survivors_[j] = m[sel_[j]];
    m = survivors_.data();
    n = survivors_.size();
  }
  // The remaining columns, for the surviving matches only.
  set_probe_rows(m, n);
  for (size_t c : late_columns_) {
    GatherColumn(c, probe_batch, m, n, &pending_.mutable_column(c));
  }
  return Status::OK();
}

Status JoinProber::ProbeBatch(const RecordBatch& batch) {
  if (probe_key_column_ >= batch.num_columns()) {
    return Status::InvalidArgument("probe key column out of range");
  }
  const ColumnVector& key_col = batch.column(probe_key_column_);
  std::span<const int32_t> bands;
  if (band_.has_value()) {
    if (band_->probe_column >= batch.num_columns() ||
        batch.column(band_->probe_column).physical_type() !=
            PhysicalType::kInt32) {
      return Status::InvalidArgument("probe band column must be int32");
    }
    bands = batch.column(band_->probe_column).i32();
  }

  matches_.clear();
  auto probe = [&](auto keys) {
    if (!band_.has_value()) {
      build_->ProbeBatch(keys, &matches_);
      join_matches_ += static_cast<int64_t>(matches_.size());
      return;
    }
    JoinHashTable::BandStats stats;
    build_->ProbeBand(keys, bands, band_->lo_offset, band_->hi_offset,
                      &matches_, &stats);
    join_matches_ += stats.equi_matches;
    band_visited_ += stats.visited;
  };
  switch (key_col.physical_type()) {
    case PhysicalType::kInt32:
      probe(std::span<const int32_t>(key_col.i32()));
      break;
    case PhysicalType::kInt64:
      probe(std::span<const int64_t>(key_col.i64()));
      break;
    default:
      return Status::InvalidArgument("probe key must be integer-typed");
  }

  // Filter the match list in chunks of output_batch_rows, aggregating the
  // buffered survivors whenever a chunk's worth has accumulated.
  for (size_t pos = 0; pos < matches_.size();) {
    const size_t take =
        std::min(options_.output_batch_rows, matches_.size() - pos);
    HJ_RETURN_IF_ERROR(AppendMatches(batch, matches_.data() + pos, take));
    pos += take;
    if (pending_.num_rows() >= options_.output_batch_rows) {
      HJ_RETURN_IF_ERROR(Flush());
    }
  }
  return Status::OK();
}

Status JoinProber::Flush() {
  if (metrics_ != nullptr && band_visited_ > 0) {
    metrics_->Add(metric::kJoinBandVisited, band_visited_);
  }
  band_visited_ = 0;
  const size_t rows = pending_.num_rows();
  if (rows == 0) return Status::OK();
  output_rows_ += static_cast<int64_t>(rows);
  if (metrics_ != nullptr) {
    metrics_->Add(metric::kJoinOutputTuples, static_cast<int64_t>(rows));
  }
  sel_.resize(rows);
  for (uint32_t i = 0; i < rows; ++i) sel_[i] = i;
  HJ_RETURN_IF_ERROR(aggregator_->Update(pending_, sel_));
  for (size_t c = 0; c < pending_.num_columns(); ++c) {
    pending_.mutable_column(c).Clear();
  }
  return Status::OK();
}

}  // namespace hybridjoin
