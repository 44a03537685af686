#include "core/approx_index.h"

#include <algorithm>
#include <cmath>

#include "core/reporting_core.h"
#include "core/serde.h"
#include "suffix/suffix_tree.h"
#include "util/serial.h"

namespace pti {

namespace {
// One epsilon-partitioned link. Origin point: (origin_node, origin_depth) —
// origin_node is the real node at or directly below the point (the point
// lies on its incoming edge). Target point likewise.
struct Link {
  int32_t origin_node = 0;
  int32_t origin_depth = 0;
  int32_t target_node = 0;
  int32_t target_depth = 0;
  int64_t position = 0;  // d: alignment in S
  double logp = 0.0;     // log Pr(prefix(origin point) at d)
};
}  // namespace

struct ApproxIndex::Impl {
  UncertainString source;
  ApproxOptions options;
  FactorSet fs;
  SuffixTree st;

  // Window model over fs.text: the exact, correlation-resolved window
  // log-probabilities the links are cut from.
  ReportingCore core;

  std::vector<Link> links;          // sorted by (target_node, origin_node)
  std::vector<int64_t> target_off;  // CSR into links by target node
  std::unique_ptr<RmqHandle> link_rmq;
  size_t num_marked = 0;

  size_t N() const { return fs.text.size(); }

  struct LinkLogFn {
    const Impl* impl;
    double operator()(size_t j) const { return impl->links[j].logp; }
  };

  Status Finish() {
    st = SuffixTree::Build(fs.text.chars(), fs.text.alphabet_size());
    st.BuildLcaSupport();

    core.BuildWindowModel(fs.text, fs.logp.span());
    PTI_RETURN_IF_ERROR(core.ResolveCorrelations(
        fs.corr_positions.span(), fs.logp.span(),
        [this](int64_t z) { return RuleSite{&source, fs.pos[z]}; }));

    BuildLinks();
    if (!links.empty()) {
      link_rmq = MakeRmq(RmqEngineKind::kBlock, LinkLogFn{this},
                         links.size());
    }
    return Status::OK();
  }

  void BuildLinks() {
    const auto& sa = st.sa();
    // (position d, SA index) for every real-character suffix, grouped by d
    // in SA (== leaf preorder) order.
    std::vector<std::pair<int64_t, int32_t>> dleaves;
    dleaves.reserve(N());
    for (size_t j = 0; j < N(); ++j) {
      const int64_t d = fs.pos[sa[j]];
      if (d >= 0) dleaves.emplace_back(d, static_cast<int32_t>(j));
    }
    std::sort(dleaves.begin(), dleaves.end());

    // Marked nodes per d: the d-leaves plus LCAs of consecutive d-leaves.
    // (node, representative SA index of a d-leaf below it)
    std::vector<std::pair<int32_t, int32_t>> marks;
    links.clear();
    size_t lo = 0;
    while (lo < dleaves.size()) {
      size_t hi = lo;
      const int64_t d = dleaves[lo].first;
      while (hi < dleaves.size() && dleaves[hi].first == d) ++hi;
      marks.clear();
      for (size_t k = lo; k < hi; ++k) {
        marks.emplace_back(st.leaf_node(dleaves[k].second),
                           dleaves[k].second);
        if (k + 1 < hi) {
          const int32_t lca = st.Lca(st.leaf_node(dleaves[k].second),
                                     st.leaf_node(dleaves[k + 1].second));
          marks.emplace_back(lca, dleaves[k].second);
        }
      }
      std::sort(marks.begin(), marks.end());
      marks.erase(std::unique(marks.begin(), marks.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  marks.end());
      num_marked += marks.size();
      // Preorder sweep with an ancestor stack: each marked node links to the
      // nearest marked node still open above it (or the root).
      std::vector<int32_t> stack;  // marked nodes, each an ancestor of next
      for (const auto& [node, rep] : marks) {
        while (!stack.empty() && !st.IsAncestor(stack.back(), node)) {
          stack.pop_back();
        }
        const int32_t target = stack.empty() ? st.root() : stack.back();
        if (node != target) EmitLink(node, target, d, rep);
        stack.push_back(node);
      }
      lo = hi;
    }

    std::sort(links.begin(), links.end(), [](const Link& a, const Link& b) {
      if (a.target_node != b.target_node) return a.target_node < b.target_node;
      return a.origin_node < b.origin_node;
    });
    target_off.assign(static_cast<size_t>(st.num_nodes()) + 1, 0);
    for (const Link& l : links) target_off[l.target_node + 1]++;
    for (size_t v = 0; v + 1 < target_off.size(); ++v) {
      target_off[v + 1] += target_off[v];
    }
  }

  // Splits the (u -> v, d) chain edge into epsilon-bounded sub-links. Both
  // endpoints of every sub-link lie on the root-to-u path, so the stabbing
  // predicate only ever needs (u, v, the two depths): no dummy-node ids.
  void EmitLink(int32_t u, int32_t v, int64_t d, int32_t rep_sa) {
    const int64_t q = st.sa()[rep_sa];
    const int32_t t_bottom = std::min(st.depth(u), core.remaining[q]);
    const int32_t t_top = st.depth(v);
    if (t_bottom <= t_top) return;  // fully beyond the factor: nothing to add
    const double eps = options.epsilon;
    // Without correlations in range the window probability is monotone
    // non-increasing in length, so the climb can binary-search it;
    // correlation rules can break monotonicity (a case-1 resolution may beat
    // the stored optimistic value's marginal), forcing a linear climb for
    // those (rare) chains.
    const bool monotone =
        fs.corr_positions.empty() ||
        !HasCorrInRange(q, q + t_bottom);
    int32_t bottom = t_bottom;
    double bottom_logp = core.WindowValue(q, bottom);
    while (bottom > t_top) {
      const double limit = std::exp(bottom_logp) + eps;
      int32_t top;
      if (monotone) {
        // Highest point whose probability still stays within eps.
        const double log_limit = std::log(std::min(limit, 1.0));
        int32_t lo = t_top, hi = bottom;  // answer in [lo, hi]
        while (lo < hi) {
          const int32_t mid = lo + (hi - lo) / 2;
          if (core.WindowValue(q, mid) <= log_limit + 1e-12) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        top = lo;
      } else {
        top = bottom;
        while (top > t_top && std::exp(core.WindowValue(q, top - 1)) <= limit) {
          --top;
        }
      }
      if (top == bottom) {
        // A single character step already exceeds epsilon; take it anyway
        // (the pattern point then falls exactly on the step, so the link
        // probability is exact for it).
        top = bottom - 1;
      }
      Link link;
      link.origin_node = u;
      link.origin_depth = bottom;
      link.target_node = v;
      link.target_depth = top;
      link.position = d;
      link.logp = bottom_logp;
      links.push_back(link);
      bottom = top;
      bottom_logp = core.WindowValue(q, bottom);
    }
  }

  bool HasCorrInRange(int64_t lo, int64_t hi) const {
    auto it = std::lower_bound(fs.corr_positions.begin(),
                               fs.corr_positions.end(), lo);
    return it != fs.corr_positions.end() && *it < hi;
  }

  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const {
    out->clear();
    PTI_RETURN_IF_ERROR(
        CheckQueryArgs(pattern, tau, LogProb::FromLinear(fs.tau_min)));
    if (links.empty()) return Status::OK();
    const auto range = st.FindRange(Text::MapPattern(pattern));
    if (!range.has_value() || range->empty()) return Status::OK();
    const int32_t w = range->locus;
    const int32_t m = static_cast<int32_t>(pattern.size());
    const double floor = std::max(tau - options.epsilon, 0.0);
    const LogProb log_floor =
        floor <= 0.0 ? LogProb::Zero() : LogProb::FromLinear(floor);

    // Ancestors of the locus (including the locus itself for links whose
    // target point lies on its incoming edge): at most m + 1 of them.
    std::vector<int32_t> ancestors;
    for (int32_t v = w;; v = st.parent(v)) {
      ancestors.push_back(v);
      if (v == st.root()) break;
    }
    const int32_t sub_end = st.subtree_end(w);
    for (const int32_t v : ancestors) {
      // Links targeted at v whose origin node lies inside subtree(w).
      const int64_t seg_lo = target_off[v];
      const int64_t seg_hi = target_off[v + 1];
      if (seg_lo == seg_hi) continue;
      const auto cmp = [this](const Link& l, int32_t node) {
        return l.origin_node < node;
      };
      const int64_t lo =
          std::lower_bound(links.begin() + seg_lo, links.begin() + seg_hi, w,
                           cmp) -
          links.begin();
      const int64_t hi =
          std::lower_bound(links.begin() + seg_lo, links.begin() + seg_hi,
                           sub_end, cmp) -
          links.begin();
      if (lo >= hi) continue;
      // Recursive RMQ over link probabilities; the stabbing test rejects
      // but does not stop the recursion (rejected links may hide
      // qualifying ones).
      ExtractMaxima(
          *link_rmq, lo, hi - 1, log_floor,
          [this](size_t j) { return links[j].logp; },
          [&](size_t j, double logp) {
            // Stabbing: origin node inside subtree(w) (guaranteed by the
            // segment bounds) and the link's depth interval (t_t, t_o]
            // contains m.
            const Link& link = links[j];
            if (link.target_depth >= m || link.origin_depth < m) return;
            const double prob =
                options.exact_probabilities
                    ? source.OccurrenceProb(pattern, link.position).ToLinear()
                    : std::exp(logp);
            out->push_back(Match{link.position, prob});
          });
    }
    std::sort(out->begin(), out->end(), [](const Match& a, const Match& b) {
      return a.position < b.position;
    });
    return Status::OK();
  }
};

ApproxIndex::ApproxIndex() = default;
ApproxIndex::~ApproxIndex() = default;
ApproxIndex::ApproxIndex(ApproxIndex&&) noexcept = default;
ApproxIndex& ApproxIndex::operator=(ApproxIndex&&) noexcept = default;

StatusOr<ApproxIndex> ApproxIndex::Build(const UncertainString& s,
                                         const ApproxOptions& options) {
  if (!(options.epsilon > 0.0) || options.epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  ApproxIndex index;
  index.impl_ = std::make_unique<Impl>();
  Impl& i = *index.impl_;
  i.source = s;
  i.options = options;
  PTI_ASSIGN_OR_RETURN(i.fs, TransformToFactors(i.source, options.transform));
  PTI_RETURN_IF_ERROR(i.Finish());
  return index;
}

Status ApproxIndex::Query(const std::string& pattern, double tau,
                          std::vector<Match>* out) const {
  return impl_->Query(pattern, tau, out);
}

ApproxIndex::Stats ApproxIndex::stats() const {
  Stats s;
  s.original_length = impl_->fs.original_length;
  s.transformed_length = impl_->fs.total_length();
  s.num_marked_nodes = impl_->num_marked;
  s.num_links = impl_->links.size();
  return s;
}

Status ApproxIndex::Save(std::string* out) const {
  return Save(out, serde::kContainerVersion);
}

Status ApproxIndex::Save(std::string* out, uint32_t version) const {
  if (version < serde::kInterchangeVersion ||
      version > serde::kContainerVersion) {
    return Status::InvalidArgument("unsupported container version");
  }
  const Impl& i = *impl_;
  serde::ContainerWriter cw(serde::IndexKind::kApprox, version);
  Writer& opts = cw.AddSection(serde::kTagOptions);
  opts.PutDouble(i.options.transform.tau_min);
  opts.PutU64(i.options.transform.max_total_length);
  opts.PutDouble(i.options.epsilon);
  opts.PutU8(i.options.exact_probabilities ? 1 : 0);
  serde::EncodeUncertainString(i.source, &cw.AddSection(serde::kTagSource));
  serde::EncodeFactorSet(i.fs, &cw.AddSection(serde::kTagFactors));
  *out = std::move(cw).Finish();
  return Status::OK();
}

StatusOr<ApproxIndex> ApproxIndex::Load(std::string_view data) {
  serde::ContainerReader container;
  PTI_RETURN_IF_ERROR(
      serde::ContainerReader::Open(data, serde::IndexKind::kApprox,
                                   &container));
  ApproxIndex index;
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
  uint64_t max_total = 0;
  PTI_RETURN_IF_ERROR(opts.GetU64(&max_total));
  i.options.transform.max_total_length = max_total;
  PTI_RETURN_IF_ERROR(opts.GetDouble(&i.options.epsilon));
  if (!std::isfinite(i.options.epsilon) || !(i.options.epsilon > 0.0) ||
      i.options.epsilon > 1.0) {
    return Status::Corruption("epsilon outside (0, 1]");
  }
  uint8_t exact = 0;
  PTI_RETURN_IF_ERROR(opts.GetU8(&exact));
  if (exact > 1) return Status::Corruption("bad exact-probabilities flag");
  i.options.exact_probabilities = exact != 0;
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(opts, "options"));

  Reader src;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagSource, &src));
  PTI_RETURN_IF_ERROR(serde::DecodeUncertainString(&src, &i.source));
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(src, "source"));

  Reader fact;
  PTI_RETURN_IF_ERROR(container.Section(serde::kTagFactors, &fact));
  PTI_RETURN_IF_ERROR(serde::DecodeFactorSet(&fact, i.source, &i.fs));
  PTI_RETURN_IF_ERROR(serde::ExpectSectionEnd(fact, "factors"));

  PTI_RETURN_IF_ERROR(i.Finish());
  return index;
}

size_t ApproxIndex::MemoryUsage() const {
  const Impl& i = *impl_;
  size_t bytes = i.source.MemoryUsage() + i.fs.MemoryUsage() +
                 i.st.MemoryUsage() + i.core.MemoryUsage() +
                 i.links.capacity() * sizeof(Link) +
                 i.target_off.capacity() * sizeof(int64_t);
  if (i.link_rmq) bytes += i.link_rmq->MemoryUsage();
  return bytes;
}

}  // namespace pti
