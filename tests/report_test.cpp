// Serialization round-trips, parser error handling, and audit rendering.
#include <gtest/gtest.h>

#include "report/report.hpp"
#include "report/serialize.hpp"

namespace crooks::report {
namespace {

const char* kWriteSkew = R"(
# write skew
txn 1 start=0 commit=10
  read 0 0
  read 1 0
  write 0
end
txn 2 start=1 commit=11
  read 0 0
  read 1 0
  write 1
end
vo 0 1
vo 1 2
)";

TEST(Serialize, ParsesWellFormedInput) {
  const Observations obs = parse_observations(kWriteSkew);
  ASSERT_EQ(obs.txns.size(), 2u);
  const model::Transaction& t1 = obs.txns.by_id(TxnId{1});
  EXPECT_EQ(t1.ops().size(), 3u);
  EXPECT_EQ(t1.start_ts(), 0);
  EXPECT_EQ(t1.commit_ts(), 10);
  EXPECT_TRUE(t1.ops()[0].is_read());
  EXPECT_TRUE(t1.ops()[0].value.is_initial());
  EXPECT_TRUE(t1.ops()[2].is_write());
  ASSERT_TRUE(obs.has_version_order());
  EXPECT_EQ(obs.version_order.at(Key{0}).front(), TxnId{1});
}

TEST(Serialize, ParsesAttributes) {
  const Observations obs = parse_observations(
      "txn 7 session=3 site=2 start=-5 commit=9\n  write 1\nend\n");
  const model::Transaction& t = obs.txns.by_id(TxnId{7});
  EXPECT_EQ(t.session(), SessionId{3});
  EXPECT_EQ(t.site(), SiteId{2});
  EXPECT_EQ(t.start_ts(), -5);
  EXPECT_EQ(t.commit_ts(), 9);
}

TEST(Serialize, ParsesPhantomReads) {
  const Observations obs =
      parse_observations("txn 1\n  read 4 9 phantom\nend\n");
  EXPECT_TRUE(obs.txns.by_id(TxnId{1}).ops()[0].value.phantom);
}

TEST(Serialize, RoundTripExact) {
  const Observations a = parse_observations(kWriteSkew);
  const Observations b = parse_observations(to_text(a));
  ASSERT_EQ(a.txns.size(), b.txns.size());
  for (const model::Transaction& t : a.txns) {
    const model::Transaction& u = b.txns.by_id(t.id());
    EXPECT_EQ(t.session(), u.session());
    EXPECT_EQ(t.site(), u.site());
    EXPECT_EQ(t.start_ts(), u.start_ts());
    EXPECT_EQ(t.commit_ts(), u.commit_ts());
    ASSERT_EQ(t.ops().size(), u.ops().size());
    for (std::size_t i = 0; i < t.ops().size(); ++i) EXPECT_EQ(t.ops()[i], u.ops()[i]);
  }
  EXPECT_EQ(a.version_order, b.version_order);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  auto expect_error = [](const char* text, const char* needle) {
    try {
      parse_observations(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_error("read 1 2\n", "outside a transaction");
  expect_error("txn 1\ntxn 2\n", "another transaction is open");
  expect_error("txn 1\n  write 3\n", "unterminated");
  expect_error("txn 1\n  read 3\nend\n", "read needs");
  expect_error("txn 1 bogus=1\nend\n", "unknown attribute");
  expect_error("frobnicate\n", "unknown directive");
  expect_error("txn x\nend\n", "bad txn id");
  // Signs and ids that do not fit their field are rejected, never wrapped or
  // truncated: session=4294967297 would otherwise alias session 1.
  expect_error("txn -1\nend\n", "bad txn id");
  expect_error("txn 1\n  read -3 0\nend\n", "bad key");
  expect_error("txn 1\n  read 3 -2\nend\n", "bad writer");
  expect_error("txn 1\n  write -3\nend\n", "bad key");
  expect_error("vo -3 1\n", "bad key");
  expect_error("txn 18446744073709551616\nend\n", "out-of-range txn id");
  expect_error("txn 1 session=-1\nend\n", "bad session");
  expect_error("txn 1 session=4294967297\nend\n", "out-of-range session");
  expect_error("txn 1 session=4294967295\nend\n", "out-of-range session");
  expect_error("txn 1 site=-1\nend\n", "bad site");
  expect_error("txn 1 site=4294967296\nend\n", "out-of-range site");
  // The largest values that fit still parse.
  const Observations edge = parse_observations(
      "txn 18446744073709551615 session=4294967294 site=4294967295\nend\n");
  ASSERT_EQ(edge.txns.size(), 1u);
  EXPECT_EQ(edge.txns.begin()->session(), SessionId{4294967294u});
  EXPECT_EQ(edge.txns.begin()->site(), SiteId{4294967295u});
}

TEST(Serialize, EmptyInputIsEmptyObservationSet) {
  const Observations obs = parse_observations("");
  EXPECT_TRUE(obs.txns.empty());
  EXPECT_FALSE(obs.has_version_order());
}

TEST(Audit, WriteSkewReport) {
  const Observations obs = parse_observations(kWriteSkew);
  const AuditResult a = audit(obs);
  ASSERT_TRUE(a.strongest.has_value());
  EXPECT_EQ(*a.strongest, ct::IsolationLevel::kStrongSI);
  EXPECT_NE(a.text.find("FAIL  Serializable"), std::string::npos);
  EXPECT_NE(a.text.find("PASS  AdyaSI"), std::string::npos);
  EXPECT_NE(a.text.find("strongest level(s) admitted: StrongSI"), std::string::npos);
  EXPECT_NE(a.text.find("witness"), std::string::npos);
}

TEST(Audit, CleanHistoryAdmitsEverything) {
  const Observations obs = parse_observations(
      "txn 1 start=0 commit=1\n  write 0\nend\n"
      "txn 2 start=2 commit=3\n  read 0 1\nend\n");
  const AuditResult a = audit(obs);
  // Both lattice branches top out: the maximal set is {StrongSI, SSER}.
  ASSERT_TRUE(a.strongest.has_value());
  EXPECT_NE(a.text.find("strongest level(s) admitted: StrongSI, StrictSerializable"),
            std::string::npos)
      << a.text;
  for (ct::IsolationLevel l : ct::kAllLevels) {
    EXPECT_EQ(a.text.find(std::string("FAIL  ") + std::string(ct::name_of(l))),
              std::string::npos);
  }
}

TEST(Audit, NamesPhenomenaWhenOrderKnown) {
  const Observations obs = parse_observations(kWriteSkew);
  const AuditResult a = audit(obs);
  EXPECT_NE(a.text.find("phenomena under the install order"), std::string::npos);
  EXPECT_NE(a.text.find("G2"), std::string::npos);
}

TEST(RenderExecution, ShowsStates) {
  const Observations obs = parse_observations(
      "txn 1\n  write 0\nend\ntxn 2\n  read 0 1\n  write 1\nend\n");
  const model::Execution e(obs.txns, {TxnId{1}, TxnId{2}});
  const std::string text = render_execution(obs.txns, e);
  EXPECT_NE(text.find("s0: all keys"), std::string::npos);
  EXPECT_NE(text.find("s1: apply T1"), std::string::npos);
  EXPECT_NE(text.find("k0=T1"), std::string::npos);
  EXPECT_NE(text.find("k1=T2"), std::string::npos);
}

}  // namespace
}  // namespace crooks::report
