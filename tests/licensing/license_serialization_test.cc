#include "licensing/license_serialization.h"

#include <string>

#include <gtest/gtest.h>

#include "licensing/license_parser.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

TEST(LicenseSerializationTest, RoundTripsIntervalLicense) {
  const ConstraintSchema schema = IntervalSchema(3);
  const License original = MakeRedistribution(
      schema, "LD1", {{0, 10}, {-5, 5}, {100, 200}}, 1234);
  std::string buffer;
  AppendLicenseBinary(original, &buffer);
  size_t pos = 0;
  const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(pos, buffer.size());
  EXPECT_EQ(loaded->id(), "LD1");
  EXPECT_EQ(loaded->content_key(), "K");
  EXPECT_EQ(loaded->type(), LicenseType::kRedistribution);
  EXPECT_EQ(loaded->permission(), Permission::kPlay);
  EXPECT_EQ(loaded->aggregate_count(), 1234);
  EXPECT_TRUE(loaded->rect() == original.rect());
}

TEST(LicenseSerializationTest, RoundTripsCategoricalLicense) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  const Result<License> original = ParseLicense(
      "(K; Play; T=[2009-03-10, 2009-03-20]; R={Asia, Europe}; A=2000)",
      schema, LicenseType::kRedistribution, "LD1");
  ASSERT_TRUE(original.ok());
  std::string buffer;
  AppendLicenseBinary(*original, &buffer);
  size_t pos = 0;
  const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(pos, buffer.size());
  EXPECT_TRUE(loaded->rect() == original->rect());
  // The reloaded license renders identically through the schema.
  EXPECT_EQ(loaded->ToString(schema), original->ToString(schema));
}

TEST(LicenseSerializationTest, MultipleLicensesInOneStream) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::string buffer;
  for (int i = 0; i < 10; ++i) {
    AppendLicenseBinary(MakeRedistribution(schema, "LD" + std::to_string(i),
                                           {{i, i + 10}}, 100 + i),
                        &buffer);
  }
  size_t pos = 0;
  for (int i = 0; i < 10; ++i) {
    const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
    ASSERT_TRUE(loaded.ok()) << i;
    EXPECT_EQ(loaded->id(), "LD" + std::to_string(i));
    EXPECT_EQ(loaded->aggregate_count(), 100 + i);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(LicenseSerializationTest, RejectsTruncation) {
  const ConstraintSchema schema = IntervalSchema(2);
  std::string bytes;
  AppendLicenseBinary(
      MakeRedistribution(schema, "LD1", {{0, 10}, {5, 6}}, 99), &bytes);
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 5) {
    size_t pos = 0;
    EXPECT_FALSE(ReadLicenseBinary(bytes.substr(0, cut), &pos).ok())
        << "cut=" << cut;
  }
}

TEST(LicenseSerializationTest, RejectsCorruptedEnums) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::string bytes;
  AppendLicenseBinary(MakeRedistribution(schema, "X", {{0, 1}}, 1), &bytes);
  // Type byte sits after the two length-prefixed strings: 4 + 1 + 4 + 1.
  const size_t type_offset = 4 + 1 + 4 + 1;
  bytes[type_offset] = 9;
  size_t pos = 0;
  EXPECT_FALSE(ReadLicenseBinary(bytes, &pos).ok());
}

// One license covering every dimension kind: an interval, an empty
// interval (written canonically as [0, -1]), a multi-interval and a
// category set.
License GoldenLicense() {
  HyperRect rect;
  rect.AddDim(ConstraintRange(Interval(-7, 300)));
  rect.AddDim(ConstraintRange(Interval::Empty()));
  rect.AddDim(ConstraintRange(
      MultiInterval::FromIntervals({Interval(1, 3), Interval(10, 20)})));
  rect.AddDim(ConstraintRange(CategorySet(0x8000000000000005ull)));
  return License("LD7", "song", LicenseType::kUsage, Permission::kCopy,
                 std::move(rect), 4242);
}

// GoldenLicense() as written by the stream encoder that preceded the
// byte-buffer codec. Wire payloads, journal frames, catalog spills and
// authority checkpoints all embed these bytes, so they must never change.
const unsigned char kGoldenBytes[] = {
    0x03, 0x00, 0x00, 0x00, 0x4c, 0x44, 0x37, 0x04, 0x00, 0x00, 0x00, 0x73,
    0x6f, 0x6e, 0x67, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x92,
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
    0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x2c, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x02, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x05,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
};

std::string GoldenBytes() {
  return std::string(reinterpret_cast<const char*>(kGoldenBytes),
                     sizeof(kGoldenBytes));
}

TEST(LicenseSerializationTest, EncoderReproducesGoldenBytes) {
  std::string bytes;
  AppendLicenseBinary(GoldenLicense(), &bytes);
  EXPECT_EQ(bytes, GoldenBytes());
}

TEST(LicenseSerializationTest, GoldenBytesRoundTrip) {
  const License expected = GoldenLicense();
  const std::string bytes = GoldenBytes();
  size_t pos = 0;
  const Result<License> loaded = ReadLicenseBinary(bytes, &pos);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(loaded->id(), expected.id());
  EXPECT_EQ(loaded->content_key(), expected.content_key());
  EXPECT_EQ(loaded->type(), expected.type());
  EXPECT_EQ(loaded->permission(), expected.permission());
  EXPECT_EQ(loaded->aggregate_count(), expected.aggregate_count());
  EXPECT_TRUE(loaded->rect() == expected.rect());
  std::string reencoded;
  AppendLicenseBinary(*loaded, &reencoded);
  EXPECT_EQ(reencoded, bytes);
}

// Decoding starts mid-buffer and stops at the license's end: a prefix and
// a suffix of foreign bytes are the caller's.
TEST(LicenseSerializationTest, DecodesInPlaceBetweenForeignBytes) {
  const std::string bytes = "head" + GoldenBytes() + "tail";
  size_t pos = 4;
  const Result<License> loaded = ReadLicenseBinary(bytes, &pos);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(pos, bytes.size() - 4);
  EXPECT_TRUE(loaded->rect() == GoldenLicense().rect());
}

TEST(LicenseSerializationTest, EveryProperPrefixIsAParseError) {
  const std::string bytes = GoldenBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    size_t pos = 0;
    const Result<License> loaded =
        ReadLicenseBinary(std::string_view(bytes).substr(0, len), &pos);
    ASSERT_FALSE(loaded.ok()) << "prefix " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "prefix " << len;
    EXPECT_LE(pos, len);
  }
}

// Property: random mixed-dimension licenses round-trip exactly.
TEST(LicenseSerializationPropertyTest, RandomLicensesRoundTrip) {
  Rng rng(70707);
  for (int trial = 0; trial < 200; ++trial) {
    HyperRect rect;
    const int dims = static_cast<int>(rng.UniformInt(1, 6));
    for (int d = 0; d < dims; ++d) {
      if (rng.Bernoulli(0.5)) {
        const int64_t lo = rng.UniformInt(-1000, 1000);
        rect.AddDim(ConstraintRange(Interval(lo, lo + rng.UniformInt(0,
                                                                     500))));
      } else {
        rect.AddDim(ConstraintRange(CategorySet(rng.Next() | 1)));
      }
    }
    const License original(
        "L" + std::to_string(trial), "content-" + std::to_string(trial % 7),
        rng.Bernoulli(0.5) ? LicenseType::kRedistribution
                           : LicenseType::kUsage,
        static_cast<Permission>(rng.UniformInt(0, kNumPermissions - 1)),
        rect, rng.UniformInt(1, 100000));
    std::string buffer;
    AppendLicenseBinary(original, &buffer);
    size_t pos = 0;
    const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(pos, buffer.size());
    EXPECT_EQ(loaded->id(), original.id());
    EXPECT_EQ(loaded->content_key(), original.content_key());
    EXPECT_EQ(loaded->type(), original.type());
    EXPECT_EQ(loaded->permission(), original.permission());
    EXPECT_EQ(loaded->aggregate_count(), original.aggregate_count());
    EXPECT_TRUE(loaded->rect() == original.rect());
  }
}

}  // namespace
}  // namespace geolic
