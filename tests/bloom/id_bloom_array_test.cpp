#include "bloom/id_bloom_array.hpp"

#include <gtest/gtest.h>

namespace ghba {
namespace {

TEST(IdBloomArrayTest, AddMemberAndLocateReplica) {
  IdBloomArray idbfa;
  idbfa.AddMember(1);
  idbfa.AddMember(2);
  ASSERT_TRUE(idbfa.AddReplica(1, /*replica_owner=*/42).ok());
  const auto r = idbfa.Locate(42);
  ASSERT_EQ(r.kind, ArrayQueryResult::Kind::kUniqueHit);
  EXPECT_EQ(r.owner, 1u);
}

TEST(IdBloomArrayTest, UnknownReplicaZeroHit) {
  IdBloomArray idbfa;
  idbfa.AddMember(1);
  EXPECT_EQ(idbfa.Locate(7).kind, ArrayQueryResult::Kind::kZeroHit);
}

TEST(IdBloomArrayTest, AddMemberIdempotent) {
  IdBloomArray idbfa;
  idbfa.AddMember(3);
  ASSERT_TRUE(idbfa.AddReplica(3, 9).ok());
  idbfa.AddMember(3);  // must not wipe the filter
  EXPECT_EQ(idbfa.Locate(9).kind, ArrayQueryResult::Kind::kUniqueHit);
}

TEST(IdBloomArrayTest, OperationsOnUnknownMemberFail) {
  IdBloomArray idbfa;
  EXPECT_EQ(idbfa.AddReplica(5, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(idbfa.RemoveReplica(5, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(idbfa.RemoveMember(5).code(), StatusCode::kNotFound);
}

TEST(IdBloomArrayTest, StaleReplicaLeaveRejectedWithoutCorruption) {
  // Member-leave replay: deregistering a replica that was never (or is no
  // longer) registered must be rejected by the counting filter instead of
  // silently decrementing counters shared with live registrations.
  IdBloomArray idbfa;
  idbfa.AddMember(1);
  ASSERT_TRUE(idbfa.AddReplica(1, 42).ok());
  EXPECT_EQ(idbfa.RemoveReplica(1, 99).code(), StatusCode::kInvalidArgument);
  // The live replica is untouched by the rejected leave.
  EXPECT_EQ(idbfa.Locate(42).kind, ArrayQueryResult::Kind::kUniqueHit);
  // A second leave of an already-removed replica is rejected the same way.
  ASSERT_TRUE(idbfa.RemoveReplica(1, 42).ok());
  EXPECT_EQ(idbfa.RemoveReplica(1, 42).code(), StatusCode::kInvalidArgument);
}

TEST(IdBloomArrayTest, RemoveMemberDropsItsFilter) {
  IdBloomArray idbfa;
  idbfa.AddMember(1);
  idbfa.AddMember(2);
  ASSERT_TRUE(idbfa.AddReplica(1, 10).ok());
  ASSERT_TRUE(idbfa.RemoveMember(1).ok());
  EXPECT_FALSE(idbfa.HasMember(1));
  EXPECT_EQ(idbfa.Locate(10).kind, ArrayQueryResult::Kind::kZeroHit);
  EXPECT_EQ(idbfa.Members(), (std::vector<MdsId>{2}));
}

TEST(IdBloomArrayTest, ManyReplicasLocateAccurately) {
  // A realistic group: 7 members, ~14 replicas each (N=100, M'=7).
  IdBloomArray idbfa;
  for (MdsId m = 0; m < 7; ++m) idbfa.AddMember(m);
  for (MdsId owner = 7; owner < 100; ++owner) {
    ASSERT_TRUE(idbfa.AddReplica(owner % 7, owner).ok());
  }
  int unique_correct = 0;
  for (MdsId owner = 7; owner < 100; ++owner) {
    const auto r = idbfa.Locate(owner);
    if (r.kind == ArrayQueryResult::Kind::kUniqueHit && r.owner == owner % 7) {
      ++unique_correct;
    } else {
      // Multi-hit must at least include the true holder.
      bool found = false;
      for (const auto h : r.all_hits) found |= (h == owner % 7);
      EXPECT_TRUE(found) << "owner " << owner;
    }
  }
  EXPECT_GT(unique_correct, 85);  // paper: false positives extremely low
}

TEST(IdBloomArrayTest, MemoryFootprintTiny) {
  // Paper, Sec 2.4: at 100 MDSs the IDBFA takes <0.1 KB... per-filter sizes
  // here are deliberately generous, so grant a small multiple of that.
  IdBloomArray idbfa;
  for (MdsId m = 0; m < 10; ++m) idbfa.AddMember(m);
  for (MdsId owner = 10; owner < 100; ++owner) {
    ASSERT_TRUE(idbfa.AddReplica(owner % 10, owner).ok());
  }
  EXPECT_LT(idbfa.MemoryBytes(), 16u * 1024u);
}

TEST(IdBloomArrayTest, SerializeRoundTrip) {
  IdBloomArray idbfa;
  for (MdsId m = 0; m < 5; ++m) idbfa.AddMember(m);
  for (MdsId owner = 5; owner < 30; ++owner) {
    ASSERT_TRUE(idbfa.AddReplica(owner % 5, owner).ok());
  }
  ByteWriter w;
  idbfa.Serialize(w);
  ByteReader r(w.data());
  auto decoded = IdBloomArray::Deserialize(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Members(), idbfa.Members());
  for (MdsId owner = 5; owner < 30; ++owner) {
    const auto loc = decoded->Locate(owner);
    ASSERT_EQ(loc.kind, ArrayQueryResult::Kind::kUniqueHit) << owner;
    EXPECT_EQ(loc.owner, owner % 5);
  }
  // Decoded filters must still support removal (counting semantics).
  ASSERT_TRUE(decoded->RemoveReplica(5 % 5, 5).ok());
}

TEST(IdBloomArrayTest, DeserializeRejectsTruncation) {
  IdBloomArray idbfa;
  idbfa.AddMember(1);
  ByteWriter w;
  idbfa.Serialize(w);
  auto data = w.Take();
  data.resize(data.size() - 5);
  ByteReader r(data);
  EXPECT_FALSE(IdBloomArray::Deserialize(r).ok());
}

}  // namespace
}  // namespace ghba
