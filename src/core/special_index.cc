#include "core/special_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/reporting_core.h"
#include "core/serde.h"
#include "suffix/suffix_tree.h"
#include "suffix/text.h"
#include "util/serial.h"

namespace pti {

struct SpecialIndex::Impl {
  UncertainString source;
  SpecialIndexOptions options;
  Text text;  // single member: the character sequence + one sentinel
  std::vector<double> logp;             // log of the stored probabilities
  std::vector<int64_t> corr_positions;  // sorted positions carrying rules
  SuffixTree st;
  // Window model and RMQ forest over text.
  ReportingCore core;

  Status Finish() {
    st = SuffixTree::Build(text.chars(), text.alphabet_size());
    core.sa = st.sa();
    core.BuildWindowModel(text, logp);
    PTI_RETURN_IF_ERROR(core.ResolveCorrelations(
        corr_positions, logp,
        [this](int64_t z) { return RuleSite{&source, z}; }));
    core.ComputeK(options.max_short_depth);
    if (options.use_rmq) {
      // Text positions are original positions, so every entry is the only
      // one of its position: active at each depth its window fits.
      const size_t n_text = text.size();
      std::vector<std::vector<uint64_t>> bits(
          core.K, std::vector<uint64_t>((n_text + 63) / 64, 0));
      for (size_t j = 0; j < n_text; ++j) {
        const int32_t fits = std::min(core.remaining[st.sa()[j]], core.K);
        for (int32_t d = 0; d < fits; ++d) {
          bits[d][j >> 6] |= uint64_t{1} << (j & 63);
        }
      }
      core.active.clear();
      for (auto& depth : bits) core.active.emplace_back(std::move(depth));
      core.BuildForest(options.rmq_engine, core.Pow2Depths(), nullptr);
    }
    return Status::OK();
  }

  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const {
    out->clear();
    LogProb log_tau;
    PTI_RETURN_IF_ERROR(
        CheckQueryArgs(pattern, tau, LogProb::Zero(), &log_tau));
    const auto range = st.FindRange(Text::MapPattern(pattern));
    if (!range.has_value() || range->empty()) return Status::OK();
    const int32_t m = static_cast<int32_t>(pattern.size());
    const int32_t l = range->begin;
    const int32_t r = range->end - 1;
    const auto keep = [&](size_t j, double v) {
      out->push_back(Match{st.sa()[j], std::exp(v)});
    };
    if (!options.use_rmq ||
        static_cast<size_t>(r - l + 1) <= options.scan_cutoff) {
      core.Scan(m, l, r, log_tau, keep);
    } else if (m <= core.K) {
      core.ExtractShort(m, l, r, log_tau, keep);
    } else {
      core.ExtractBlocked(m, l, r, log_tau, keep);
    }
    std::sort(out->begin(), out->end(), [](const Match& a, const Match& b) {
      return a.position < b.position;
    });
    return Status::OK();
  }
};

SpecialIndex::SpecialIndex() = default;
SpecialIndex::~SpecialIndex() = default;
SpecialIndex::SpecialIndex(SpecialIndex&&) noexcept = default;
SpecialIndex& SpecialIndex::operator=(SpecialIndex&&) noexcept = default;

StatusOr<SpecialIndex> SpecialIndex::Build(const UncertainString& s,
                                           const SpecialIndexOptions& options) {
  // §4 Definition 1: exactly one option per position with 0 < pr <= 1.
  // (Unlike general uncertain strings, the probabilities need not sum to 1 —
  // the remaining mass is the "no occurrence" event, as in Figure 5.)
  if (!s.IsSpecial()) {
    return Status::InvalidArgument(
        "SpecialIndex requires exactly one option per position");
  }
  for (int64_t p = 0; p < s.size(); ++p) {
    const double prob = s.options(p)[0].prob;
    if (!(prob > 0.0) || prob > 1.0) {
      return Status::InvalidArgument(
          "special uncertain string probabilities must be in (0, 1]");
    }
  }
  SpecialIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& i = *index.impl_;
  i.source = s;
  i.options = options;

  std::vector<int32_t> chars;
  chars.reserve(s.size());
  i.logp.reserve(static_cast<size_t>(s.size()) + 1);
  for (int64_t p = 0; p < s.size(); ++p) {
    const CharOption& opt = s.options(p)[0];
    double stored = opt.prob;
    if (const CorrelationRule* rule = s.FindRule(p, opt.ch)) {
      stored = std::max(rule->prob_if_present, rule->prob_if_absent);
      i.corr_positions.push_back(p);
    }
    if (!(stored > 0.0)) {
      return Status::InvalidArgument(
          "special uncertain string requires positive probabilities");
    }
    chars.push_back(opt.ch);
    i.logp.push_back(std::log(stored));
  }
  i.logp.push_back(0.0);  // the sentinel contributes nothing
  i.text.AppendMember(chars);
  PTI_RETURN_IF_ERROR(i.Finish());
  return index;
}

Status SpecialIndex::Query(const std::string& pattern, double tau,
                           std::vector<Match>* out) const {
  return impl_->Query(pattern, tau, out);
}

SpecialIndex::Stats SpecialIndex::stats() const {
  Stats s;
  s.length = impl_->source.size();
  s.short_depth_limit = impl_->core.K;
  s.num_tree_nodes = static_cast<size_t>(impl_->st.num_nodes());
  return s;
}

Status SpecialIndex::Save(std::string* out) const {
  return Save(out, serde::kContainerVersion);
}

Status SpecialIndex::Save(std::string* out, uint32_t version) const {
  if (version < serde::kInterchangeVersion ||
      version > serde::kContainerVersion) {
    return Status::InvalidArgument("unsupported container version");
  }
  const Impl& i = *impl_;
  serde::ContainerWriter cw(serde::IndexKind::kSpecial, version);
  Writer& opts = cw.AddSection(serde::kTagOptions);
  opts.PutU32(static_cast<uint32_t>(i.options.max_short_depth));
  opts.PutU8(static_cast<uint8_t>(i.options.rmq_engine));
  opts.PutU8(i.options.use_rmq ? 1 : 0);
  opts.PutU8(1);  // long levels: always built (see Load)
  opts.PutU64(i.options.scan_cutoff);
  serde::EncodeUncertainString(i.source, &cw.AddSection(serde::kTagSource));
  *out = std::move(cw).Finish();
  return Status::OK();
}

StatusOr<SpecialIndex> SpecialIndex::Load(std::string_view data) {
  serde::ContainerReader container;
  PTI_RETURN_IF_ERROR(
      serde::ContainerReader::Open(data, serde::IndexKind::kSpecial,
                                   &container));
  SpecialIndexOptions options;
  Reader opts;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagOptions, &opts));
  uint32_t max_short = 0;
  PTI_RETURN_IF_ERROR(opts.GetU32(&max_short));
  if (max_short > static_cast<uint32_t>(
                      std::numeric_limits<int32_t>::max())) {
    return Status::Corruption("short depth limit out of range");
  }
  options.max_short_depth = static_cast<int32_t>(max_short);
  uint8_t engine = 0, use_rmq = 0, long_levels = 0;
  PTI_RETURN_IF_ERROR(opts.GetU8(&engine));
  if (engine > 2) return Status::Corruption("unknown RMQ engine value");
  options.rmq_engine = static_cast<RmqEngineKind>(engine);
  PTI_RETURN_IF_ERROR(opts.GetU8(&use_rmq));
  PTI_RETURN_IF_ERROR(opts.GetU8(&long_levels));
  if (use_rmq > 1 || long_levels > 1) {
    return Status::Corruption("bad boolean option flag");
  }
  // The fourth byte once made long-pattern block levels optional; they only
  // change how a query runs, never its answer, so Load always builds them
  // and a 0 from an older writer loads like a 1.
  options.use_rmq = use_rmq != 0;
  uint64_t cutoff = 0;
  PTI_RETURN_IF_ERROR(opts.GetU64(&cutoff));
  options.scan_cutoff = cutoff;
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(opts, "options"));

  UncertainString source;
  Reader src;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagSource, &src));
  PTI_RETURN_IF_ERROR(serde::DecodeUncertainString(
      &src, &source, /*require_unit_sums=*/false));
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(src, "source"));

  // Build re-runs the §4 input validation (one option per position,
  // probabilities in (0, 1]); a decoded string that fails it is corrupt
  // data, not a caller error.
  auto built = Build(source, options);
  if (!built.ok()) {
    return Status::Corruption("persisted inputs failed validation: " +
                              built.status().message());
  }
  return built;
}

size_t SpecialIndex::MemoryUsage() const {
  const Impl& i = *impl_;
  return i.source.MemoryUsage() + i.text.MemoryUsage() + i.st.MemoryUsage() +
         i.core.MemoryUsage() + i.logp.capacity() * sizeof(double) +
         i.corr_positions.capacity() * sizeof(int64_t);
}

}  // namespace pti
