#include "exec/join_prober.h"

#include <algorithm>

#include "expr/scalar_functions.h"

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
      build_width_(build_schema->num_fields()) {
  HJ_CHECK(build_->finalized()) << "probe against non-finalized hash table";
  // The walk applies the band only when the table is ordered by its column.
  band_ = ExtractJoinBand(post_join_predicate, joined_schema_, build_width_);
  if (band_.has_value() && build_->band_column() == band_->build_column) {
    residual_ = band_->residual;
  } else {
    band_.reset();
    residual_ = std::move(post_join_predicate);
  }
  // The joined columns the residual reads. A name the joined schema lacks
  // is left to Filter to report.
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

  const AggSpec& spec = aggregator_->spec();
  auto group = ResolveAggInput(
      spec.group_column, spec.extract_group,
      spec.extract_group
          ? "extract_group requires a string group column"
          : "group column must be integer-typed (or use extract_group)");
  if (group.ok()) {
    group_input_ = *group;
  } else {
    fold_status_ = group.status();
  }
  item_inputs_.resize(spec.items.size());
  for (size_t i = 0; i < spec.items.size(); ++i) {
    if (spec.items[i].op == AggOp::kCountStar) continue;
    auto input = ResolveAggInput(spec.items[i].column, /*string=*/false,
                                 "aggregate input must be integer");
    if (input.ok()) {
      item_inputs_[i] = *input;
    } else if (fold_status_.ok()) {
      fold_status_ = input.status();
    }
  }
}

Result<JoinProber::AggInput> JoinProber::ResolveAggInput(
    const std::string& name, bool string, const char* type_error) const {
  HJ_ASSIGN_OR_RETURN(size_t c, joined_schema_->IndexOf(name));
  AggInput in;
  in.type = PhysicalTypeOf(joined_schema_->field(c).type);
  const bool ok = string ? in.type == PhysicalType::kString
                         : in.type == PhysicalType::kInt32 ||
                               in.type == PhysicalType::kInt64;
  if (!ok) return Status::InvalidArgument(type_error);
  if (c < build_width_) {
    in.build = build_sources_[c].per_batch.data();
  } else {
    in.probe_column = c - build_width_;
  }
  return in;
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

Status JoinProber::FoldMatches(const RecordBatch& probe_batch,
                               const JoinMatch* m, size_t n) {
  if (residual_ != nullptr) {
    // Filter on the residual's columns, gathered for every match, and
    // narrow the match list to the survivors.
    probe_rows_.resize(n);
    for (size_t j = 0; j < n; ++j) probe_rows_[j] = m[j].probe_row;
    for (size_t k = 0; k < filter_columns_.size(); ++k) {
      ColumnVector* col = &filter_batch_.mutable_column(k);
      col->Clear();
      GatherColumn(filter_columns_[k], probe_batch, m, n, col);
    }
    sel_.resize(n);
    for (uint32_t j = 0; j < n; ++j) sel_[j] = j;
    HJ_RETURN_IF_ERROR(residual_->Filter(filter_batch_, &sel_));
    survivors_.resize(sel_.size());
    for (size_t j = 0; j < sel_.size(); ++j) survivors_[j] = m[sel_[j]];
    m = survivors_.data();
    n = survivors_.size();
  }
  if (n == 0) return Status::OK();
  HJ_RETURN_IF_ERROR(fold_status_);
  // Point the probe-side inputs at this batch's columns.
  auto bind = [&probe_batch](AggInput* in) -> Status {
    if (in->build != nullptr) return Status::OK();
    if (in->probe_column >= probe_batch.num_columns() ||
        probe_batch.column(in->probe_column).physical_type() != in->type) {
      return Status::InvalidArgument(
          "probe batch does not match the probe schema");
    }
    const ColumnVector& col = probe_batch.column(in->probe_column);
    switch (in->type) {
      case PhysicalType::kInt32:
        in->probe = col.i32().data();
        break;
      case PhysicalType::kInt64:
        in->probe = col.i64().data();
        break;
      default:
        in->probe = &col.str();
        break;
    }
    return Status::OK();
  };
  const AggSpec& spec = aggregator_->spec();
  HJ_RETURN_IF_ERROR(bind(&group_input_));
  for (size_t i = 0; i < spec.items.size(); ++i) {
    if (spec.items[i].op != AggOp::kCountStar) {
      HJ_RETURN_IF_ERROR(bind(&item_inputs_[i]));
    }
  }
  const AggInput& g = group_input_;
  const bool extract = spec.extract_group;
  for (size_t j = 0; j < n; ++j) {
    const int64_t group =
        extract ? ExtractGroup((*static_cast<const StringColumn*>(
                      g.data(m[j])))[g.row(m[j])])
                : g.Int(m[j]);
    aggregator_->Fold(group,
                      [&](size_t i) { return item_inputs_[i].Int(m[j]); });
  }
  output_rows_ += static_cast<int64_t>(n);
  unpublished_rows_ += static_cast<int64_t>(n);
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

  // Fold the match list, filtered in chunks of output_batch_rows when a
  // residual reads gathered columns.
  const size_t chunk = residual_ != nullptr
                           ? std::max<size_t>(options_.output_batch_rows, 1)
                           : matches_.size();
  for (size_t pos = 0; pos < matches_.size(); pos += chunk) {
    HJ_RETURN_IF_ERROR(FoldMatches(
        batch, matches_.data() + pos,
        std::min(chunk, matches_.size() - pos)));
  }
  return Status::OK();
}

Status JoinProber::Flush() {
  if (metrics_ != nullptr) {
    if (band_visited_ > 0) {
      metrics_->Add(metric::kJoinBandVisited, band_visited_);
    }
    if (unpublished_rows_ > 0) {
      metrics_->Add(metric::kJoinOutputTuples, unpublished_rows_);
    }
  }
  band_visited_ = 0;
  unpublished_rows_ = 0;
  return Status::OK();
}

}  // namespace hybridjoin
