// Read-state intervals against materialized states.
//
// ReadStateAnalysis computes every operation's RS_e(o) by index arithmetic
// over per-key version timelines, without ever building a state. The ground
// truth builds them all (Execution::materialize) and asks of each state
// whether it could have served the operation (Definition 2). Shared by the
// model's property suite and the compiled-history suite.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "model/analysis.hpp"

namespace crooks::model {

/// Does the materialized `state` serve operation `op` of `t`?
inline bool state_serves(const std::map<Key, Value>& state, const Transaction& t,
                         const Operation& op, bool internal) {
  if (op.is_write() || internal) return true;  // conventions: any state ≤ parent
  const auto it = state.find(op.key);
  const TxnId current = it == state.end() ? kInitTxn : it->second.writer;
  return !op.value.phantom && current == op.value.writer &&
         op.value.writer != t.id();
}

/// Assert that each operation's RS_e(o) holds exactly the states at or
/// before its parent that serve it.
inline void expect_read_states_match_materialized(const TransactionSet& txns,
                                                  const Execution& e,
                                                  const std::string& what) {
  const ReadStateAnalysis a(txns, e);
  std::vector<std::map<Key, Value>> states;
  for (StateIndex s = 0; s <= e.last_state(); ++s) {
    states.push_back(e.materialize(txns, s));
  }
  for (const Transaction& t : txns) {
    const TxnAnalysis& ta = a.txn(txns.dense_index_of(t.id()));
    ASSERT_EQ(ta.ops.size(), t.ops().size()) << what;
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& op = t.ops()[i];
      for (StateIndex s = 0; s <= e.last_state(); ++s) {
        const bool in_interval = ta.ops[i].rs.contains(s);
        // A read of one's own never-made write has an empty RS even though
        // no state "contradicts" it; state_serves handles that case.
        const bool brute = s <= ta.parent &&
                           state_serves(states[static_cast<std::size_t>(s)], t, op,
                                        ta.ops[i].internal);
        EXPECT_EQ(in_interval, brute) << what << " " << to_string(t.id()) << " op "
                                      << i << " (" << to_string(op) << ") state s" << s;
      }
    }
  }
}

}  // namespace crooks::model
