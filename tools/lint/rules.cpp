// Built-in rule set for the dreamsim lint engine (DESIGN.md §17).
//
// Migrated structural rules (the original dreamsim_lint pass):
//   list-internals, store-internals, uncharged-index-query,
//   nondeterminism, unordered-writer-iteration, entry-cells-iteration,
//   metric-catalogue
// New plane/concurrency rules:
//   plane-discipline     model-plane TUs (src/resource, src/sched,
//                        src/sim) must not reach host-plane obs headers —
//                        directly or through their include closure —
//                        except the sanctioned hooks obs/metrics.hpp,
//                        obs/metric_catalogue.hpp, obs/profiler.hpp.
//   atomics-discipline   the MetricsRegistry cell is relaxed-only, and
//                        model-plane code grows no atomics of its own.
#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/engine.hpp"

namespace dreamsim::lint {
namespace {

[[nodiscard]] bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

[[nodiscard]] bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

// --- list-internals / store-internals --------------------------------------

class OwnedTokensRule : public Rule {
 public:
  OwnedTokensRule(RuleInfo info, std::string owner_stem,
                  std::vector<std::string_view> tokens, std::string what,
                  std::string hint)
      : info_(std::move(info)),
        owner_stem_(std::move(owner_stem)),
        tokens_(std::move(tokens)),
        what_(std::move(what)),
        hint_(std::move(hint)) {}

  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void Check(Source& src, const Tree&, Reporter& out) override {
    if (Stem(src.path) == owner_stem_) return;
    for (const std::string_view token : tokens_) {
      for (const std::size_t hit : FindWord(src.clean, token)) {
        out.Report(src, hit, info_,
                   std::string(token) + " is " + what_ +
                       "; mutate it through " + owner_stem_ + "'s interface",
                   hint_);
      }
    }
  }

 private:
  RuleInfo info_;
  std::string owner_stem_;
  std::vector<std::string_view> tokens_;
  std::string what_;
  std::string hint_;
};

// --- uncharged-index-query --------------------------------------------------

class UnchargedIndexQueryRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "uncharged-index-query", Severity::kError,
        "indexed scheduler/drain queries must charge the WorkloadMeter "
        "(the modeled-effort contract)"};
    return kInfo;
  }

  void Check(Source& src, const Tree&, Reporter& out) override {
    // Call-site spellings of the modeled-effort query paths. Qualified
    // names (Foo::OldestExactMatch) are definitions, not calls: skipped.
    static const std::vector<std::string_view> kQueries = {
        "OldestExactMatch", "BestPriorityExactMatch", "OldestEligible",
        "BestPriorityEligible", "index_->BestBlank",
        "index_->BestPartiallyBlank", "index_->FindAnyIdle",
        "index_->AnyBusyFit", "index_->BestIdleConfigured",
        "index_->RankedHost"};
    const std::vector<Body> bodies = FunctionBodies(src.clean);
    for (const std::string_view token : kQueries) {
      std::size_t pos = 0;
      while ((pos = src.clean.find(token, pos)) != std::string::npos) {
        const std::size_t start = pos;
        pos += token.size();
        // Whole token: not part of a longer identifier, followed by '('.
        if (start > 0 && (IsWordChar(src.clean[start - 1]) ||
                          src.clean[start - 1] == ':')) {
          continue;
        }
        std::size_t after = start + token.size();
        while (after < src.clean.size() && IsSpace(src.clean[after])) ++after;
        if (after >= src.clean.size() || src.clean[after] != '(') continue;
        // A query is fine if ANY enclosing function body carries a charge
        // (charges may sit beside the call or around an inner lambda).
        bool enclosed = false;
        bool charged = false;
        for (const Body& body : bodies) {
          if (body.open < start && start < body.close) {
            enclosed = true;
            if (BodyHasCharge(src.clean, body)) {
              charged = true;
              break;
            }
          }
        }
        if (!enclosed || charged) continue;
        out.Report(src, start, info(),
                   std::string(token) +
                       " is a modeled-effort query path, but no "
                       "WorkloadMeter .Add( charge is visible in the "
                       "enclosing function",
                   "charge the reference scan's analytic step count "
                   "(meter_.Add(...)) beside the call");
      }
    }
  }

 private:
  [[nodiscard]] static bool BodyHasCharge(const std::string& clean,
                                          const Body& body) {
    const std::string_view text(clean.data() + body.open,
                                body.close - body.open);
    for (const std::string_view charge :
         {"meter_.Add(", "meter.Add(", "meter().Add("}) {
      if (text.find(charge) != std::string_view::npos) return true;
    }
    return false;
  }
};

// --- nondeterminism ---------------------------------------------------------

class NondeterminismRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "nondeterminism", Severity::kError,
        "no entropy or wall-clock sources outside util/rng — runs are a "
        "pure function of (seed, config)"};
    return kInfo;
  }

  void Check(Source& src, const Tree&, Reporter& out) override {
    if (Stem(src.path) == "rng") return;  // util/rng owns entropy
    struct Banned {
      std::string_view token;
      bool call_only;  // must be followed by '(' (rand/srand/time)
    };
    static const std::vector<Banned> kBanned = {
        {"rand", true},          {"srand", true},
        {"time", true},          {"random_device", false},
        {"system_clock", false},
    };
    for (const Banned& banned : kBanned) {
      for (const std::size_t hit : FindWord(src.clean, banned.token)) {
        if (banned.call_only) {
          std::size_t after = hit + banned.token.size();
          while (after < src.clean.size() && IsSpace(src.clean[after])) {
            ++after;
          }
          if (after >= src.clean.size() || src.clean[after] != '(') continue;
          // Member calls (obj.time(), ptr->time()) are not libc time().
          if (hit > 0 && (src.clean[hit - 1] == '.' ||
                          (hit > 1 && src.clean[hit - 2] == '-' &&
                           src.clean[hit - 1] == '>'))) {
            continue;
          }
        }
        out.Report(src, hit, info(),
                   std::string(banned.token) +
                       " is a nondeterminism source; runs must be a pure "
                       "function of (seed, config) — use util/rng streams",
                   "draw from the run's seeded util/rng stream instead");
      }
    }
  }
};

// --- unordered-writer-iteration ---------------------------------------------

/// Range-for loops whose range expression names an unordered member.
void CheckUnorderedRangeFor(Source& src,
                            const std::set<std::string>& unordered_names,
                            const RuleInfo& info, std::string_view why,
                            std::string hint, Reporter& out) {
  for (const std::size_t hit : FindWord(src.clean, "for")) {
    std::size_t i = hit + 3;
    while (i < src.clean.size() && IsSpace(src.clean[i])) ++i;
    if (i >= src.clean.size() || src.clean[i] != '(') continue;
    const std::size_t header_begin = i + 1;
    int depth = 1;
    std::size_t j = header_begin;
    std::size_t range_colon = std::string::npos;
    while (j < src.clean.size() && depth > 0) {
      const char c = src.clean[j];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ';') break;  // classic for loop, not range-for
      if (c == ':' && depth == 1 && range_colon == std::string::npos) {
        const bool scope =
            (j + 1 < src.clean.size() && src.clean[j + 1] == ':') ||
            (j > 0 && src.clean[j - 1] == ':');
        if (!scope) range_colon = j;
      }
      ++j;
    }
    if (range_colon == std::string::npos || depth != 0) continue;
    const std::string range_expr =
        src.clean.substr(range_colon + 1, j - 1 - (range_colon + 1));
    for (const std::string& name : unordered_names) {
      if (!FindWord(range_expr, name).empty()) {
        out.Report(src, hit, info,
                   "range-for over unordered container '" + name + "' " +
                       std::string(why),
                   std::move(hint));
        break;
      }
    }
  }
}

[[nodiscard]] std::string DirOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

class UnorderedWriterIterationRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "unordered-writer-iteration", Severity::kError,
        "report/trace writers never range-for over unordered members "
        "(hash order would leak into output bytes)"};
    return kInfo;
  }

  void Check(Source& src, const Tree& tree, Reporter& out) override {
    const bool writer = src.path.find("src/obs/") != std::string::npos ||
                        Stem(src.path).find("report") != std::string::npos;
    if (!writer) return;
    const auto it = tree.unordered_by_dir.find(DirOf(src.path));
    if (it == tree.unordered_by_dir.end()) return;
    CheckUnorderedRangeFor(
        src, it->second, info(),
        "in a report/trace writer leaks hash order into output; collect "
        "keys and sort first",
        "collect the keys into a vector, std::sort, then iterate", out);
  }
};

// --- entry-cells-iteration --------------------------------------------------

class EntryCellsIterationRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "entry-cells-iteration", Severity::kError,
        "EntryList's raw cell storage is read only by entry_list itself "
        "and the audit tooling"};
    return kInfo;
  }

  void Check(Source& src, const Tree&, Reporter& out) override {
    const std::string stem = Stem(src.path);
    if (stem == "entry_list" || stem == "structure_auditor" ||
        stem == "corruptor") {
      return;
    }
    for (const std::size_t hit : FindWord(src.clean, "cells")) {
      // Member call only: `.cells(` / `->cells(`.
      const bool member =
          (hit >= 1 && src.clean[hit - 1] == '.') ||
          (hit >= 2 && src.clean[hit - 2] == '-' && src.clean[hit - 1] == '>');
      if (!member) continue;
      std::size_t after = hit + 5;
      while (after < src.clean.size() && IsSpace(src.clean[after])) ++after;
      if (after >= src.clean.size() || src.clean[after] != '(') continue;
      out.Report(src, hit, info(),
                 "direct EntryList cells() access outside entry_list/auditor "
                 "bypasses the counted queries; use FindFirst/FindMin "
                 "instead",
                 "use the counted queries (FindFirst/FindMin)");
    }
  }
};

// --- metric-catalogue -------------------------------------------------------

class MetricCatalogueRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "metric-catalogue", Severity::kError,
        "metric hooks name literal MetricId::k tokens; exposition names "
        "come from obs/metric_catalogue.hpp only"};
    return kInfo;
  }

  void Check(Source& src, const Tree&, Reporter& out) override {
    // A registry hook call must pass a literal catalogue token as its id —
    // a computed id (cast, variable) dodges the single-source-of-names
    // rule.
    static const std::vector<std::string_view> kHooks = {
        "MetricInc", "MetricGaugeSet", "MetricGaugeMax", "MetricObserve"};
    for (const std::string_view hook : kHooks) {
      for (const std::size_t hit : FindWord(src.clean, hook)) {
        std::size_t i = hit + hook.size();
        while (i < src.clean.size() && IsSpace(src.clean[i])) ++i;
        if (i >= src.clean.size() || src.clean[i] != '(') continue;
        // The hook definitions themselves declare `MetricId id` params.
        std::size_t before = hit;
        while (before > 0 && IsSpace(src.clean[before - 1])) --before;
        std::size_t word_begin = before;
        while (word_begin > 0 && IsWordChar(src.clean[word_begin - 1])) {
          --word_begin;
        }
        if (std::string_view(src.clean.data() + word_begin,
                             before - word_begin) == "void") {
          continue;
        }
        // First argument: everything up to the first top-level ',' / ')'.
        std::size_t j = i + 1;
        int depth = 1;
        const std::size_t arg_begin = j;
        while (j < src.clean.size() && depth > 0) {
          const char c = src.clean[j];
          if (c == '(' || c == '<') ++depth;
          if (c == ')' || c == '>') --depth;
          if (c == ',' && depth == 1) break;
          ++j;
        }
        const std::string_view arg(src.clean.data() + arg_begin,
                                   j - arg_begin);
        if (arg.find("MetricId::k") != std::string_view::npos) continue;
        out.Report(src, hit, info(),
                   std::string(hook) +
                       " must name a literal MetricId::k... token from "
                       "obs/metric_catalogue.hpp (no computed ids)",
                   "declare the metric in obs/metric_catalogue.hpp and pass "
                   "its MetricId::k token");
      }
    }
    // Product code never spells a prefixed exposition name by hand: names
    // are derived from the catalogue (tests may assert rendered names).
    const bool product =
        StartsWith(src.path, "src/") || StartsWith(src.path, "tools/");
    if (!product || Stem(src.path) == "metric_catalogue") return;
    std::size_t pos = 0;
    while ((pos = src.code.find("\"dreamsim_", pos)) != std::string::npos) {
      out.Report(src, pos, info(),
                 "ad-hoc \"dreamsim_...\" metric name; exposition names come "
                 "from obs/metric_catalogue.hpp",
                 "derive the name from the catalogue entry instead of "
                 "spelling it");
      pos += 10;
    }
  }
};

// --- plane-discipline -------------------------------------------------------

/// The sanctioned obs hooks a model-plane TU may include: the lock-free
/// metric hooks, the catalogue they name, and the phase profiler. They are
/// the sealed boundary — the closure walk does not descend into them.
[[nodiscard]] bool IsSanctionedObsHeader(const std::string& target) {
  return target == "obs/metrics.hpp" || target == "obs/metric_catalogue.hpp" ||
         target == "obs/profiler.hpp";
}

[[nodiscard]] bool IsObsHeader(const std::string& target) {
  return StartsWith(target, "obs/");
}

[[nodiscard]] bool IsModelPlane(const std::string& path) {
  return StartsWith(path, "src/resource/") || StartsWith(path, "src/sched/") ||
         StartsWith(path, "src/sim/");
}

class PlaneDisciplineRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "plane-discipline", Severity::kError,
        "model-plane TUs (src/resource, src/sched, src/sim) reach "
        "host-plane obs headers only through the sanctioned hooks"};
    return kInfo;
  }

  void Check(Source& src, const Tree& tree, Reporter& out) override {
    if (!IsModelPlane(src.path)) return;
    for (const Source::Include& inc : src.includes) {
      std::vector<std::string> chain;
      if (FindsUnsanctionedObs(inc.target, tree, chain)) {
        std::string via;
        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
          via += "\"" + chain[i] + "\" -> ";
        }
        out.ReportAtLine(
            src, inc.line, info(),
            "model-plane TU reaches host-plane header \"" + chain.back() +
                "\" (" + via + "\"" + chain.back() +
                "\"); only the sanctioned obs hooks (obs/metrics.hpp, "
                "obs/metric_catalogue.hpp, obs/profiler.hpp) may cross the "
                "plane boundary",
            "route observation through the sanctioned hooks, or move the "
            "host-plane logic into src/obs behind one");
      }
    }
  }

 private:
  /// DFS over the include graph from `target`; fills `chain` with the path
  /// (target .. offending obs header) when an unsanctioned obs header is
  /// reachable. Sanctioned hooks are not descended into.
  bool FindsUnsanctionedObs(const std::string& target, const Tree& tree,
                            std::vector<std::string>& chain) {
    // Include cycles terminate: a target already on the path is clean here.
    if (std::find(chain.begin(), chain.end(), target) != chain.end()) {
      return false;
    }
    if (IsObsHeader(target)) {
      if (IsSanctionedObsHeader(target)) return false;
      chain.push_back(target);
      return true;
    }
    const auto cached = clean_.find(target);
    if (cached != clean_.end()) return false;
    chain.push_back(target);
    // Includes resolve against -Isrc, so "x/y.hpp" is src/x/y.hpp; files
    // outside the tree (system headers, gtest) are opaque and clean.
    if (const Source* hdr = tree.Find("src/" + target)) {
      for (const Source::Include& inc : hdr->includes) {
        if (FindsUnsanctionedObs(inc.target, tree, chain)) return true;
      }
    }
    chain.pop_back();
    clean_.insert(target);
    return false;
  }

  std::set<std::string> clean_;  // closure-verified-clean include targets
};

// --- atomics-discipline -----------------------------------------------------

class AtomicsDisciplineRule : public Rule {
 public:
  [[nodiscard]] const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "atomics-discipline", Severity::kError,
        "MetricsRegistry cells are memory_order_relaxed only, and "
        "model-plane code grows no atomics of its own"};
    return kInfo;
  }

  void Check(Source& src, const Tree&, Reporter& out) override {
    // Half 1: the registry's cell never escalates its ordering — the
    // snapshot path is quiescent by contract, so any acquire/release (or
    // seq_cst) there is either dead weight on the hot path or a hidden
    // synchronization dependency.
    if (src.path == "src/obs/metrics.hpp") {
      std::size_t pos = 0;
      while ((pos = src.clean.find("memory_order_", pos)) !=
             std::string::npos) {
        std::size_t end = pos + 13;
        while (end < src.clean.size() && IsWordChar(src.clean[end])) ++end;
        const std::string_view order(src.clean.data() + pos, end - pos);
        if (order != "memory_order_relaxed") {
          out.Report(src, pos, info(),
                     std::string(order) +
                         " in the metrics registry: the cell is "
                         "relaxed-only (readers are quiescent by contract)",
                     "use memory_order_relaxed; if you need ordering, the "
                     "design is wrong — snapshot at a tick boundary");
        }
        pos = end;
      }
    }
    // Half 2: model-plane code stays free of hand-rolled atomics; the
    // model plane is single-threaded by contract.
    if (!IsModelPlane(src.path)) return;
    std::size_t pos = 0;
    while ((pos = src.clean.find("atomic", pos)) != std::string::npos) {
      const bool word_start = pos == 0 || !IsWordChar(src.clean[pos - 1]);
      if (!word_start) {
        pos += 6;
        continue;
      }
      out.Report(src, pos, info(),
                 "atomic in model-plane code: the model plane is "
                 "single-threaded by contract; cross-thread counters belong "
                 "in the obs metrics cell",
                 "move shared counters into the obs/metrics.hpp cell");
      pos += 6;
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> BuiltinRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<OwnedTokensRule>(
      RuleInfo{"list-internals", Severity::kError,
               "EntryList's cells_/table_/table_used_ are touched only by "
               "entry_list.{hpp,cpp}"},
      "entry_list",
      std::vector<std::string_view>{"cells_", "table_", "table_used_"},
      "EntryList's intrusive state",
      "route the access through EntryList's public interface"));
  rules.push_back(std::make_unique<OwnedTokensRule>(
      RuleInfo{"store-internals", Severity::kError,
               "ResourceStore's intrusive mirrors are touched only by "
               "store.{hpp,cpp}"},
      "store",
      std::vector<std::string_view>{"idle_lists_", "busy_lists_",
                                    "blank_pos_", "busy_area_",
                                    "failed_count_", "fleet_totals_",
                                    "idle_list_mut",
                                    "busy_list_mut"},
      "ResourceStore's private mirror state",
      "go through ResourceStore's public queries and mutators"));
  rules.push_back(std::make_unique<UnchargedIndexQueryRule>());
  rules.push_back(std::make_unique<NondeterminismRule>());
  rules.push_back(std::make_unique<UnorderedWriterIterationRule>());
  rules.push_back(std::make_unique<EntryCellsIterationRule>());
  rules.push_back(std::make_unique<MetricCatalogueRule>());
  rules.push_back(std::make_unique<PlaneDisciplineRule>());
  rules.push_back(std::make_unique<AtomicsDisciplineRule>());
  return rules;
}

}  // namespace dreamsim::lint
