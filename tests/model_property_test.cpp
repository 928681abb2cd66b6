// Cross-validation of the model's implicit-state machinery: the read-state
// intervals computed by index arithmetic must agree with brute-force checks
// against materialized states, on random executions.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "model/analysis.hpp"
#include "state_oracle.hpp"
#include "workload/observations.hpp"

namespace crooks::model {
namespace {

class ModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelProperty, IntervalsMatchMaterializedStates) {
  wl::ObservationFuzzOptions opts;
  opts.transactions = 6;
  opts.keys = 4;
  opts.p_dangling = 0.1;
  opts.p_phantom = 0.1;
  const wl::FuzzedObservations f = wl::fuzz_observations(GetParam(), opts);

  // Random execution order.
  Rng rng(GetParam() * 31 + 7);
  std::vector<TxnId> order;
  for (const Transaction& t : f.txns) order.push_back(t.id());
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  expect_read_states_match_materialized(f.txns, Execution(f.txns, order),
                                        "seed " + std::to_string(GetParam()));
}

TEST_P(ModelProperty, NoConfMatchesMaterializedDeltas) {
  wl::ObservationFuzzOptions opts;
  opts.transactions = 6;
  opts.keys = 4;
  const wl::FuzzedObservations f = wl::fuzz_observations(GetParam(), opts);
  const Execution e = Execution::identity(f.txns);
  const ReadStateAnalysis a(f.txns, e);

  std::vector<std::map<Key, Value>> states;
  for (StateIndex s = 0; s <= e.last_state(); ++s) {
    states.push_back(e.materialize(f.txns, s));
  }

  for (const Transaction& t : f.txns) {
    const std::size_t dense = f.txns.dense_index_of(t.id());
    const TxnAnalysis& ta = a.txn(dense);
    for (StateIndex s = 0; s <= ta.parent; ++s) {
      // Brute-force Δ(s, s_p) ∩ W_T = ∅.
      bool conflict = false;
      const auto& at_s = states[static_cast<std::size_t>(s)];
      const auto& at_p = states[static_cast<std::size_t>(ta.parent)];
      for (Key k : t.write_set()) {
        const auto vs = at_s.find(k);
        const auto vp = at_p.find(k);
        const Value a_val = vs == at_s.end() ? Value{} : vs->second;
        const Value p_val = vp == at_p.end() ? Value{} : vp->second;
        if (!(a_val == p_val)) conflict = true;
      }
      EXPECT_EQ(s >= ta.no_conf_min, !conflict)
          << "seed " << GetParam() << " " << to_string(t.id()) << " s" << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace crooks::model
