// Shared helpers for the kgoa test suite: small deterministic graphs,
// random graph/query generation, an independent brute-force evaluator
// used as the reference implementation in cross-engine agreement and
// unbiasedness tests, and the serving-core helpers behind the budget-mode
// bit-identity tests.
#ifndef KGOA_TESTS_TEST_UTIL_H_
#define KGOA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/index/snapshot.h"
#include "src/join/result.h"
#include "src/ola/parallel.h"
#include "src/query/chain_query.h"
#include "src/rdf/graph.h"
#include "src/rdf/vocab.h"
#include "src/util/rng.h"

namespace kgoa::testing {

// A small fixed graph modeled on the paper's running example: a class
// hierarchy Thing > Agent > Person > Philosopher, an "influencedBy"
// relation, and birth places. Types are materialized through the closure.
inline Graph PaperExampleGraph() {
  GraphBuilder b;
  const char* nt_type = vocab::kRdfType;
  const char* nt_sub = vocab::kRdfsSubClassOf;
  const char* thing = vocab::kOwlThing;

  auto add = [&](const std::string& s, const std::string& p,
                 const std::string& o) { b.AddSpelled(s, p, o); };

  add("Agent", nt_sub, thing);
  add("Person", nt_sub, "Agent");
  add("Philosopher", nt_sub, "Person");
  add("Place", nt_sub, thing);
  add("City", nt_sub, "Place");

  // plato, aristotle: philosophers; socrates: person; athens: city.
  const std::vector<std::pair<std::string, std::vector<std::string>>> types =
      {{"plato", {"Philosopher", "Person", "Agent", thing}},
       {"aristotle", {"Philosopher", "Person", "Agent", thing}},
       {"socrates", {"Person", "Agent", thing}},
       {"parmenides", {"Person", "Agent", thing}},
       {"athens", {"City", "Place", thing}},
       {"stagira", {"City", "Place", thing}}};
  for (const auto& [entity, classes] : types) {
    for (const auto& cls : classes) add(entity, nt_type, cls);
  }

  add("plato", "influencedBy", "socrates");
  add("plato", "influencedBy", "parmenides");
  add("aristotle", "influencedBy", "plato");
  add("aristotle", "influencedBy", "socrates");
  add("plato", "birthPlace", "athens");
  add("socrates", "birthPlace", "athens");
  add("aristotle", "birthPlace", "stagira");

  return std::move(b).Build();
}

// Random graph over small universes; may include rdf:type triples so that
// filters have something to probe.
struct RandomGraphSpec {
  int num_entities = 12;
  int num_properties = 3;
  int num_classes = 3;
  int num_property_triples = 40;
  int num_type_triples = 15;
};

inline Graph RandomGraph(Rng& rng, const RandomGraphSpec& spec = {}) {
  GraphBuilder b;
  std::vector<TermId> entities, properties, classes;
  for (int i = 0; i < spec.num_entities; ++i) {
    entities.push_back(b.Intern("e" + std::to_string(i)));
  }
  for (int i = 0; i < spec.num_properties; ++i) {
    properties.push_back(b.Intern("p" + std::to_string(i)));
  }
  for (int i = 0; i < spec.num_classes; ++i) {
    classes.push_back(b.Intern("c" + std::to_string(i)));
  }
  const TermId type_id = b.Intern(vocab::kRdfType);
  for (int i = 0; i < spec.num_property_triples; ++i) {
    b.Add(entities[rng.Below(entities.size())],
          properties[rng.Below(properties.size())],
          entities[rng.Below(entities.size())]);
  }
  for (int i = 0; i < spec.num_type_triples; ++i) {
    b.Add(entities[rng.Below(entities.size())], type_id,
          classes[rng.Below(classes.size())]);
  }
  return std::move(b).Build();
}

// Independent reference evaluator: naive backtracking over all triples.
// Intentionally shares no code with the engines under test.
inline GroupedResult BruteForce(const Graph& graph, const ChainQuery& query) {
  const auto& patterns = query.patterns();
  std::unordered_map<VarId, TermId> binding;
  std::unordered_set<uint64_t> pairs;
  GroupedResult result;

  // Existence check for filters.
  auto passes = [&](int pi, const Triple& t) {
    for (const TypeFilter& f : query.filters(pi)) {
      if (!graph.Contains(Triple{t[f.component], f.property, f.value})) {
        return false;
      }
    }
    return true;
  };

  auto match = [&](auto&& self, std::size_t pi) -> void {
    if (pi == patterns.size()) {
      const TermId a = binding.at(query.alpha());
      const TermId beta = binding.at(query.beta());
      if (query.distinct()) {
        if (pairs.insert(PackPair(a, beta)).second) ++result.counts[a];
      } else {
        ++result.counts[a];
      }
      return;
    }
    const TriplePattern& p = patterns[pi];
    for (const Triple& t : graph.triples()) {
      bool ok = true;
      std::vector<VarId> bound_here;
      for (int c = 0; c < 3 && ok; ++c) {
        if (p[c].is_var()) {
          auto it = binding.find(p[c].var());
          if (it == binding.end()) {
            binding[p[c].var()] = t[c];
            bound_here.push_back(p[c].var());
          } else if (it->second != t[c]) {
            ok = false;
          }
        } else if (p[c].term() != t[c]) {
          ok = false;
        }
      }
      // A variable repeated inside the pattern must agree with itself;
      // handled above because the second occurrence finds the binding.
      if (ok && passes(static_cast<int>(pi), t)) self(self, pi + 1);
      for (VarId v : bound_here) binding.erase(v);
    }
  };
  match(match, 0);
  return result;
}

// Random chain query over the terms of `graph`: a path of `length`
// patterns with fresh link variables; constants drawn from the graph.
// Returns nullopt when the sampled shape is invalid (caller retries).
inline std::optional<ChainQuery> RandomChainQuery(Rng& rng,
                                                  const Graph& graph,
                                                  int length,
                                                  bool distinct) {
  std::vector<TriplePattern> patterns;
  VarId next_var = 0;
  VarId prev_link = kNoVar;

  auto random_term = [&]() -> TermId {
    const auto& triples = graph.triples();
    const Triple& t = triples[rng.Below(triples.size())];
    const int c = static_cast<int>(rng.Below(3));
    return t[c];
  };

  for (int i = 0; i < length; ++i) {
    std::array<Slot, 3> slots = {Slot::MakeConst(0), Slot::MakeConst(0),
                                 Slot::MakeConst(0)};
    // Choose roles: the incoming link (except first), an outgoing link
    // (except last), and fill the rest with constants or fresh vars.
    std::vector<int> components{0, 1, 2};
    // Shuffle components.
    for (int c = 2; c > 0; --c) {
      std::swap(components[c], components[rng.Below(c + 1)]);
    }
    int idx = 0;
    VarId in_var = prev_link;
    if (i > 0) slots[components[idx++]] = Slot::MakeVar(in_var);
    VarId out_var = kNoVar;
    if (i + 1 < length) {
      out_var = next_var++;
      slots[components[idx++]] = Slot::MakeVar(out_var);
    }
    while (idx < 3) {
      if (rng.Below(2) == 0) {
        slots[components[idx]] = Slot::MakeVar(next_var++);
      } else {
        slots[components[idx]] = Slot::MakeConst(random_term());
      }
      ++idx;
    }
    // Engines require an index-order prefix for every access path they may
    // take (constants plus any one bound variable). The only uncoverable
    // component set is {subject, object}, so a constant subject or object
    // is allowed only when the predicate is constant too — which is also
    // the only shape real exploration queries produce. Free the offending
    // slots otherwise.
    if (slots[kPredicate].is_var()) {
      if (!slots[kSubject].is_var()) slots[kSubject] = Slot::MakeVar(next_var++);
      if (!slots[kObject].is_var()) slots[kObject] = Slot::MakeVar(next_var++);
    }
    patterns.push_back(TriplePattern{slots});
    prev_link = out_var;
  }

  // Alpha/beta: two variables of one pattern (may coincide across roles).
  std::vector<std::pair<VarId, VarId>> candidates;
  for (const TriplePattern& p : patterns) {
    const auto vars = p.Vars();
    for (VarId a : vars) {
      for (VarId bvar : vars) candidates.emplace_back(a, bvar);
    }
  }
  if (candidates.empty()) return std::nullopt;
  const auto [alpha, beta] = candidates[rng.Below(candidates.size())];
  return ChainQuery::Create(std::move(patterns), alpha, beta, distinct);
}

// A walk-budget chart job: `budget` walks split over `workers` logical
// slots seeded seed..seed+workers-1. The low tipping threshold keeps Audit
// Join's tipping path busy on the small test graphs.
inline ChartJobOptions BudgetJob(uint64_t budget, int workers,
                                 uint64_t seed = 17) {
  ChartJobOptions job;
  job.walk_budget = budget;
  job.workers = workers;
  job.seed = seed;
  job.tipping_threshold = 2.0;
  return job;
}

// The synchronous chart call: one job, Submit + Await, on a private
// `threads`-worker ServingCore.
inline ParallelOlaResult Serve(GraphSnapshot snapshot, const ChainQuery& query,
                               ChartJobOptions job, int threads = 2) {
  ServingCore::Options options;
  options.threads = threads;
  ServingCore core(std::move(snapshot), options);
  return core.Submit(query, std::move(job)).Await();
}

// Same, over externally owned indexes.
inline ParallelOlaResult Serve(const IndexSet& indexes,
                               const ChainQuery& query, ChartJobOptions job,
                               int threads = 2) {
  return Serve(GraphSnapshot::Unowned(indexes), query, std::move(job),
               threads);
}

// Budget-mode bit-identity: same walk counts, and every group's estimate
// and CI half-width equal as doubles (not merely close).
inline void ExpectBitIdentical(const GroupedEstimates& a,
                               const GroupedEstimates& b) {
  EXPECT_EQ(a.walks(), b.walks());
  EXPECT_EQ(a.rejected_walks(), b.rejected_walks());
  const auto ea = a.Estimates();
  const auto eb = b.Estimates();
  ASSERT_EQ(ea.size(), eb.size());
  for (const auto& [group, estimate] : ea) {
    const auto it = eb.find(group);
    ASSERT_NE(it, eb.end());
    EXPECT_EQ(estimate, it->second) << "group " << group;
    EXPECT_EQ(a.CiHalfWidth(group), b.CiHalfWidth(group))
        << "group " << group;
  }
}

}  // namespace kgoa::testing

#endif  // KGOA_TESTS_TEST_UTIL_H_
