#include "src/common/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace sdg {
namespace {

TEST(SerializeTest, RoundTripsScalars) {
  BinaryWriter w;
  w.Write<int32_t>(-7);
  w.Write<uint64_t>(std::numeric_limits<uint64_t>::max());
  w.Write<double>(3.25);
  w.Write<uint8_t>(255);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.Read<int32_t>().value(), -7);
  EXPECT_EQ(r.Read<uint64_t>().value(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(r.Read<double>().value(), 3.25);
  EXPECT_EQ(r.Read<uint8_t>().value(), 255);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripsStrings) {
  BinaryWriter w;
  w.WriteString("");
  w.WriteString("hello");
  w.WriteString(std::string(1000, 'x'));

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), std::string(1000, 'x'));
}

TEST(SerializeTest, RoundTripsVectors) {
  BinaryWriter w;
  std::vector<double> dv{1.5, -2.5, 0.0};
  std::vector<int64_t> iv{1, 2, 3, 4};
  w.WriteVector(dv);
  w.WriteVector(iv);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadVector<double>().value(), dv);
  EXPECT_EQ(r.ReadVector<int64_t>().value(), iv);
}

TEST(SerializeTest, RoundTripsStringVector) {
  BinaryWriter w;
  std::vector<std::string> v{"a", "", "long string here"};
  w.WriteStringVector(v);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadStringVector().value(), v);
}

TEST(SerializeTest, RoundTripsMap) {
  BinaryWriter w;
  std::unordered_map<int64_t, double> m{{1, 1.0}, {2, 4.0}, {-3, 9.0}};
  w.WriteMap(m);
  BinaryReader r(w.buffer());
  EXPECT_EQ((r.ReadMap<int64_t, double>().value()), m);
}

TEST(SerializeTest, ReadPastEndIsOutOfRange) {
  BinaryWriter w;
  w.Write<uint8_t>(1);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.Read<uint8_t>().ok());
  auto bad = r.Read<uint32_t>();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, CorruptStringLengthIsDetected) {
  BinaryWriter w;
  w.Write<uint64_t>(1000);  // claims 1000 bytes follow
  w.Write<uint8_t>('x');    // only 1 byte present
  BinaryReader r(w.buffer());
  auto bad = r.ReadString();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, SkipAdvancesAndBoundsChecks) {
  BinaryWriter w;
  w.Write<uint32_t>(1);
  w.Write<uint32_t>(2);
  BinaryReader r(w.buffer());
  ASSERT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(r.Read<uint32_t>().value(), 2u);
  EXPECT_FALSE(r.Skip(1).ok());
}

TEST(SerializeTest, EmptyBufferBehaviour) {
  std::vector<uint8_t> empty;
  BinaryReader r(empty);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.Read<uint8_t>().ok());
}

// Empty writes carry null pointers on both sides of the copy (a fresh
// writer's buffer, an empty vector's data(), a default string_view). They
// must be no-ops, not memcpy(nullptr, ..., 0), which the UB sanitizer aborts.
TEST(SerializeTest, EmptyWritesIntoEmptyWriterAreNoOps) {
  BinaryWriter w;
  w.WriteBytes(nullptr, 0);
  EXPECT_EQ(w.size(), 0u);
  w.WriteString(std::string_view());
  w.WriteVector(std::vector<int32_t>());
  EXPECT_EQ(w.size(), 2 * sizeof(uint64_t));

  BinaryReader r(w.buffer());
  auto s = r.ReadString();
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());
  auto v = r.ReadVector<int32_t>();
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace sdg
