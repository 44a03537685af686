#include "core/listing_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/reporting_core.h"
#include "core/serde.h"
#include "suffix/suffix_tree.h"
#include "util/serial.h"

namespace pti {

struct ListingIndex::Impl {
  std::vector<UncertainString> docs;
  ListingOptions options;
  double tau_min = 0.0;

  Text text;                       // members = factors from all documents
  std::vector<int32_t> doc_of;     // per text position (-1 on sentinels)
  std::vector<int64_t> pos_in_doc; // per text position (-1 on sentinels)
  std::vector<double> logp;        // per text position (0.0 on sentinels)
  std::vector<int64_t> corr_positions;
  std::vector<int64_t> doc_base;   // prefix sums of document lengths

  SuffixTree st;
  // Window model and RMQ forest over text; the active bits are §6's.
  ReportingCore core;

  size_t N() const { return text.size(); }

  int64_t GlobalPos(size_t q) const {
    return doc_base[doc_of[q]] + pos_in_doc[q];
  }

  // Everything derived from (docs, text, doc_of, pos_in_doc, logp), so Build
  // and Load share it.
  Status Finish() {
    corr_positions.clear();
    for (size_t q = 0; q < N(); ++q) {
      if (doc_of[q] < 0) continue;
      const uint8_t ch = static_cast<uint8_t>(text.chars()[q]);
      if (docs[doc_of[q]].FindRule(pos_in_doc[q], ch) != nullptr) {
        corr_positions.push_back(static_cast<int64_t>(q));
      }
    }
    st = SuffixTree::Build(text.chars(), text.alphabet_size());
    core.sa = st.sa();
    core.BuildWindowModel(text, logp);
    PTI_RETURN_IF_ERROR(core.ResolveCorrelations(
        corr_positions, logp, [this](int64_t z) {
          return RuleSite{&docs[doc_of[z]], pos_in_doc[z]};
        }));
    core.ComputeK(options.max_short_depth);
    BuildMaxActive();
    core.BuildForest(options.rmq_engine, core.Pow2Depths(), nullptr);
    return Status::OK();
  }

  // §6 duplicate elimination: within every depth-i partition keep, per
  // document, the entry whose window probability is largest (= Rel_max).
  void BuildMaxActive() {
    const size_t n_text = N();
    const int32_t K = core.K;
    core.active.assign(K, VecOrView<uint64_t>());
    const int32_t ndocs = static_cast<int32_t>(docs.size());
    std::vector<int64_t> seen(std::max(ndocs, 1), -1);
    std::vector<size_t> best_j(std::max(ndocs, 1), 0);
    std::vector<double> best_v(std::max(ndocs, 1), ReportingCore::kNegInf);
    std::vector<int32_t> in_partition;
    int64_t stamp = 0;
    const auto& lcp = st.lcp();
    const auto& sa = st.sa();
    for (int32_t i = 1; i <= K; ++i) {
      std::vector<uint64_t> bits((n_text + 63) / 64, 0);
      in_partition.clear();
      auto close_partition = [&] {
        for (const int32_t d : in_partition) {
          bits[best_j[d] >> 6] |= uint64_t{1} << (best_j[d] & 63);
        }
        in_partition.clear();
      };
      for (size_t j = 0; j < n_text; ++j) {
        if (j == 0 || lcp[j] < i) {
          close_partition();
          ++stamp;
        }
        const int64_t q = sa[j];
        if (core.remaining[q] < i) continue;
        const double v = core.Value(i, j);
        if (v == ReportingCore::kNegInf) continue;
        const int32_t d = doc_of[q];
        if (seen[d] != stamp) {
          seen[d] = stamp;
          best_j[d] = j;
          best_v[d] = v;
          in_partition.push_back(d);
        } else if (v > best_v[d]) {
          best_j[d] = j;
          best_v[d] = v;
        }
      }
      close_partition();
      core.active[i - 1] = VecOrView<uint64_t>(std::move(bits));
    }
  }

  // Rel_max listing. Short patterns walk the deduplicated RMQ (one active
  // entry per doc per partition => each reported doc costs O(1)); long
  // patterns use the upper-bound levels with a per-query doc->max map.
  Status QueryMax(const std::string& pattern, double tau,
                  std::vector<DocMatch>* out) const {
    out->clear();
    LogProb log_tau;
    PTI_RETURN_IF_ERROR(CheckQueryArgs(
        pattern, tau, LogProb::FromLinear(tau_min), &log_tau));
    const auto range = st.FindRange(Text::MapPattern(pattern));
    if (!range.has_value() || range->empty()) return Status::OK();
    const int32_t m = static_cast<int32_t>(pattern.size());
    const int32_t l = range->begin;
    const int32_t r = range->end - 1;
    std::unordered_map<int32_t, double> best;  // doc -> max prob
    const auto keep = [&](size_t j, double v) {
      const int32_t d = doc_of[st.sa()[j]];
      auto [it, inserted] = best.emplace(d, std::exp(v));
      if (!inserted) it->second = std::max(it->second, std::exp(v));
    };
    if (static_cast<size_t>(r - l + 1) <= options.scan_cutoff) {
      core.Scan(m, l, r, log_tau, keep);
    } else if (m <= core.K) {
      core.ExtractShort(m, l, r, log_tau, keep);
    } else {
      core.ExtractBlocked(m, l, r, log_tau, keep);
    }
    out->reserve(best.size());
    // pti-lint: allow(unordered-iteration-in-serde): keys are unique docs
    // and the sort below imposes a total order, so emit order cancels out.
    for (const auto& [d, v] : best) out->push_back(DocMatch{d, v});
    std::sort(out->begin(), out->end(),
              [](const DocMatch& a, const DocMatch& b) {
                return a.doc < b.doc;
              });
    return Status::OK();
  }

  // OR metrics: visit every distinct occurrence with probability >= tau_min
  // in the locus range, aggregate per document, threshold the aggregate.
  Status QueryAggregate(const std::string& pattern, double tau,
                        RelevanceMetric metric,
                        std::vector<DocMatch>* out) const {
    out->clear();
    const LogProb log_floor = LogProb::FromLinear(tau_min);
    PTI_RETURN_IF_ERROR(CheckQueryArgs(pattern, tau, log_floor));
    const auto range = st.FindRange(Text::MapPattern(pattern));
    if (!range.has_value() || range->empty()) return Status::OK();
    const int32_t m = static_cast<int32_t>(pattern.size());
    struct Agg {
      double sum = 0, prod = 1, none = 1;
    };
    std::unordered_map<int32_t, Agg> agg;
    std::unordered_set<int64_t> seen;  // distinct (doc, position) keys
    core.Scan(m, range->begin, range->end - 1, log_floor,
              [&](size_t j, double v) {
                const int64_t q = st.sa()[j];
                if (!seen.insert(GlobalPos(q)).second) return;
                const double p = std::exp(v);
                Agg& a = agg[doc_of[q]];
                a.sum += p;
                a.prod *= p;
                a.none *= (1.0 - p);
              });
    // pti-lint: allow(unordered-iteration-in-serde): per-doc aggregates are
    // independent and the matches are sorted by doc before returning.
    for (const auto& [d, a] : agg) {
      const double rel = metric == RelevanceMetric::kPaperOr
                             ? a.sum - a.prod
                             : 1.0 - a.none;
      if (RelevanceMeets(rel, tau)) out->push_back(DocMatch{d, rel});
    }
    std::sort(out->begin(), out->end(),
              [](const DocMatch& a, const DocMatch& b) {
                return a.doc < b.doc;
              });
    return Status::OK();
  }
};

ListingIndex::ListingIndex() = default;
ListingIndex::~ListingIndex() = default;
ListingIndex::ListingIndex(ListingIndex&&) noexcept = default;
ListingIndex& ListingIndex::operator=(ListingIndex&&) noexcept = default;

StatusOr<ListingIndex> ListingIndex::Build(
    const std::vector<UncertainString>& docs, const ListingOptions& options) {
  ListingIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& i = *index.impl_;
  i.docs = docs;
  i.options = options;
  i.tau_min = options.transform.tau_min;

  i.doc_base.assign(docs.size() + 1, 0);
  for (size_t d = 0; d < docs.size(); ++d) {
    i.doc_base[d + 1] = i.doc_base[d] + docs[d].size();
  }
  // Transform every document and splice its factors into the shared text.
  for (size_t d = 0; d < docs.size(); ++d) {
    auto fs = TransformToFactors(i.docs[d], options.transform);
    if (!fs.ok()) return fs.status();
    const FactorSet& f = fs.value();
    for (int32_t member = 0; member < f.text.num_members(); ++member) {
      const size_t begin = f.text.MemberBegin(member);
      const size_t end = f.text.MemberEnd(member);  // sentinel position
      std::vector<int32_t> chars(f.text.chars().begin() + begin,
                                 f.text.chars().begin() + end);
      i.text.AppendMember(chars);
      for (size_t k = begin; k < end; ++k) {
        i.doc_of.push_back(static_cast<int32_t>(d));
        i.pos_in_doc.push_back(f.pos[k]);
        i.logp.push_back(f.logp[k]);
      }
      i.doc_of.push_back(-1);  // sentinel
      i.pos_in_doc.push_back(-1);
      i.logp.push_back(0.0);
    }
  }
  PTI_RETURN_IF_ERROR(i.Finish());
  return index;
}

Status ListingIndex::Query(const std::string& pattern, double tau,
                           std::vector<DocMatch>* out) const {
  return impl_->QueryMax(pattern, tau, out);
}

Status ListingIndex::QueryWithMetric(const std::string& pattern, double tau,
                                     RelevanceMetric metric,
                                     std::vector<DocMatch>* out) const {
  if (metric == RelevanceMetric::kMax) {
    return impl_->QueryMax(pattern, tau, out);
  }
  return impl_->QueryAggregate(pattern, tau, metric, out);
}

int32_t ListingIndex::num_docs() const {
  return static_cast<int32_t>(impl_->docs.size());
}

ListingIndex::Stats ListingIndex::stats() const {
  Stats s;
  s.num_docs = static_cast<int32_t>(impl_->docs.size());
  s.total_positions = impl_->doc_base.back();
  s.num_factors = static_cast<size_t>(impl_->text.num_members());
  s.transformed_length = impl_->text.size();
  s.short_depth_limit = impl_->core.K;
  return s;
}

Status ListingIndex::Save(std::string* out) const {
  return Save(out, serde::kContainerVersion);
}

Status ListingIndex::Save(std::string* out, uint32_t version) const {
  if (version < serde::kInterchangeVersion ||
      version > serde::kContainerVersion) {
    return Status::InvalidArgument("unsupported container version");
  }
  const Impl& i = *impl_;
  serde::ContainerWriter cw(serde::IndexKind::kListing, version);
  Writer& opts = cw.AddSection(serde::kTagOptions);
  opts.PutDouble(i.options.transform.tau_min);
  opts.PutU64(i.options.transform.max_total_length);
  opts.PutU32(static_cast<uint32_t>(i.options.max_short_depth));
  opts.PutU8(static_cast<uint8_t>(i.options.rmq_engine));
  opts.PutU64(i.options.scan_cutoff);
  Writer& docs = cw.AddSection(serde::kTagSource);
  docs.PutU64(i.docs.size());
  for (const UncertainString& d : i.docs) {
    serde::EncodeUncertainString(d, &docs);
  }
  Writer& text = cw.AddSection(serde::kTagText);
  text.PutSpan(i.text.chars());
  text.PutSpan(i.text.member_starts());
  Writer& maps = cw.AddSection(serde::kTagMaps);
  maps.PutVector(i.doc_of);
  maps.PutVector(i.pos_in_doc);
  maps.PutVector(i.logp);
  maps.PutVector(i.doc_base);
  *out = std::move(cw).Finish();
  return Status::OK();
}

StatusOr<ListingIndex> ListingIndex::Load(std::string_view data) {
  serde::ContainerReader container;
  PTI_RETURN_IF_ERROR(
      serde::ContainerReader::Open(data, serde::IndexKind::kListing,
                                   &container));
  ListingIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& i = *index.impl_;

  Reader opts;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagOptions, &opts));
  PTI_RETURN_IF_ERROR(opts.GetDouble(&i.options.transform.tau_min));
  if (!std::isfinite(i.options.transform.tau_min) ||
      !(i.options.transform.tau_min > 0.0) ||
      i.options.transform.tau_min > 1.0) {
    return Status::Corruption("tau_min outside (0, 1]");
  }
  i.tau_min = i.options.transform.tau_min;
  uint64_t max_total = 0;
  PTI_RETURN_IF_ERROR(opts.GetU64(&max_total));
  i.options.transform.max_total_length = max_total;
  uint32_t max_short = 0;
  PTI_RETURN_IF_ERROR(opts.GetU32(&max_short));
  if (max_short > static_cast<uint32_t>(
                      std::numeric_limits<int32_t>::max())) {
    return Status::Corruption("short depth limit out of range");
  }
  i.options.max_short_depth = static_cast<int32_t>(max_short);
  uint8_t engine = 0;
  PTI_RETURN_IF_ERROR(opts.GetU8(&engine));
  if (engine > 2) return Status::Corruption("unknown RMQ engine value");
  i.options.rmq_engine = static_cast<RmqEngineKind>(engine);
  uint64_t cutoff = 0;
  PTI_RETURN_IF_ERROR(opts.GetU64(&cutoff));
  i.options.scan_cutoff = cutoff;
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(opts, "options"));

  Reader docs;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagSource, &docs));
  uint64_t ndocs = 0;
  PTI_RETURN_IF_ERROR(docs.GetU64(&ndocs));
  if (ndocs > docs.remaining() / 16) {  // empty doc = two u64 counts
    return Status::Corruption("document count overruns section");
  }
  i.docs.resize(ndocs);
  for (uint64_t d = 0; d < ndocs; ++d) {
    PTI_RETURN_IF_ERROR(serde::DecodeUncertainString(&docs, &i.docs[d]));
  }
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(docs, "documents"));

  Reader text;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagText, &text));
  std::vector<int32_t> chars;
  std::vector<int64_t> starts;
  PTI_RETURN_IF_ERROR(text.GetVector(&chars));
  PTI_RETURN_IF_ERROR(text.GetVector(&starts));
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(text, "text"));
  PTI_ASSIGN_OR_RETURN(i.text,
                       Text::FromRaw(std::move(chars), std::move(starts)));

  Reader maps;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagMaps, &maps));
  PTI_RETURN_IF_ERROR(maps.GetVector(&i.doc_of));
  PTI_RETURN_IF_ERROR(maps.GetVector(&i.pos_in_doc));
  PTI_RETURN_IF_ERROR(maps.GetVector(&i.logp));
  PTI_RETURN_IF_ERROR(maps.GetVector(&i.doc_base));
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(maps, "maps"));

  const size_t n = i.text.size();
  if (i.doc_of.size() != n || i.pos_in_doc.size() != n ||
      i.logp.size() != n) {
    return Status::Corruption("listing maps inconsistent with text");
  }
  if (i.doc_base.size() != ndocs + 1 || i.doc_base[0] != 0) {
    return Status::Corruption("document base offsets malformed");
  }
  for (uint64_t d = 0; d < ndocs; ++d) {
    // Addition on the already-validated side: doc_base[d] is proven small by
    // induction from doc_base[0] == 0, while doc_base[d + 1] is hostile and
    // subtracting it could overflow (UB).
    if (i.doc_base[d + 1] != i.doc_base[d] + i.docs[d].size()) {
      return Status::Corruption("document base offsets malformed");
    }
  }
  for (size_t q = 0; q < n; ++q) {
    if (i.text.IsSentinel(q)) {
      if (i.doc_of[q] != -1 || i.pos_in_doc[q] != -1 || i.logp[q] != 0.0) {
        return Status::Corruption("sentinel position carries document data");
      }
      continue;
    }
    if (i.doc_of[q] < 0 || static_cast<uint64_t>(i.doc_of[q]) >= ndocs) {
      return Status::Corruption("document id out of range");
    }
    if (i.pos_in_doc[q] < 0 ||
        i.pos_in_doc[q] >= i.docs[i.doc_of[q]].size()) {
      return Status::Corruption("document position out of range");
    }
    // The correlation adjustment assumes text offsets and document offsets
    // advance together inside a factor.
    if (q + 1 < n && !i.text.IsSentinel(q + 1) &&
        (i.doc_of[q + 1] != i.doc_of[q] ||
         i.pos_in_doc[q + 1] != i.pos_in_doc[q] + 1)) {
      return Status::Corruption("document positions not contiguous");
    }
    if (std::isnan(i.logp[q]) || i.logp[q] > 0.0) {
      return Status::Corruption("stored log-probability above 0");
    }
  }

  PTI_RETURN_IF_ERROR(i.Finish());
  return index;
}

size_t ListingIndex::MemoryUsage() const {
  const Impl& i = *impl_;
  size_t bytes = i.text.MemoryUsage() + i.st.MemoryUsage() +
                 i.core.MemoryUsage() +
                 i.doc_of.capacity() * sizeof(int32_t) +
                 i.pos_in_doc.capacity() * sizeof(int64_t) +
                 i.logp.capacity() * sizeof(double) +
                 i.corr_positions.capacity() * sizeof(int64_t);
  for (const auto& d : i.docs) bytes += d.MemoryUsage();
  return bytes;
}

}  // namespace pti
