#include "net/wire.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/crc32c.h"

namespace geolic::net {
namespace {

using geolic::testing::IntervalSchema;
using geolic::testing::MakeUsage;

TEST(WireTest, FrameRoundTripsAllKinds) {
  const FrameKind kinds[] = {FrameKind::kIssueRequest, FrameKind::kPing,
                             FrameKind::kIssueResult,  FrameKind::kPong,
                             FrameKind::kShed,         FrameKind::kError};
  uint64_t request_id = 1;
  for (const FrameKind kind : kinds) {
    std::string bytes;
    const std::string payload = "payload-" + std::to_string(request_id);
    EncodeFrame(kind, request_id, payload, &bytes);
    EXPECT_EQ(bytes.size(), kWireHeaderBytes + payload.size());

    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(TryDecodeFrame(bytes, &frame, &consumed, &error),
              DecodeResult::kFrame)
        << error;
    EXPECT_EQ(frame.kind, kind);
    EXPECT_EQ(frame.request_id, request_id);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, bytes.size());
    ++request_id;
  }
}

TEST(WireTest, DecodeWalksConcatenatedFrames) {
  std::string bytes;
  EncodeFrame(FrameKind::kPing, 7, "", &bytes);
  EncodeFrame(FrameKind::kIssueRequest, 8, "abc", &bytes);
  EncodeFrame(FrameKind::kError, 0, "oops", &bytes);

  std::string_view rest = bytes;
  Frame frame;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(rest, &frame, &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(frame.kind, FrameKind::kPing);
  EXPECT_EQ(frame.request_id, 7u);
  rest.remove_prefix(consumed);

  ASSERT_EQ(TryDecodeFrame(rest, &frame, &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(frame.kind, FrameKind::kIssueRequest);
  EXPECT_EQ(frame.payload, "abc");
  rest.remove_prefix(consumed);

  ASSERT_EQ(TryDecodeFrame(rest, &frame, &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(frame.kind, FrameKind::kError);
  rest.remove_prefix(consumed);
  EXPECT_TRUE(rest.empty());

  EXPECT_EQ(TryDecodeFrame(rest, &frame, &consumed, &error),
            DecodeResult::kNeedMore);
}

TEST(WireTest, EveryProperPrefixNeedsMore) {
  std::string bytes;
  EncodeFrame(FrameKind::kIssueRequest, 42, "some payload bytes", &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(TryDecodeFrame(std::string_view(bytes).substr(0, len), &frame,
                             &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireTest, UnknownKindIsBadEvenWithValidCrcs) {
  // Hand-rolled frame with a kind no dialect defines: the encoder refuses
  // to emit it, so splice a valid frame and rewrite kind + header CRC.
  std::string bytes;
  EncodeFrame(FrameKind::kPing, 1, "", &bytes);
  const uint32_t alien_kind = 0x7777;
  bytes[4] = static_cast<char>(alien_kind & 0xff);
  bytes[5] = static_cast<char>((alien_kind >> 8) & 0xff);
  bytes[6] = 0;
  bytes[7] = 0;
  const uint32_t fixed_crc = Crc32c(std::string_view(bytes).substr(0, 16));
  for (size_t i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<char>((fixed_crc >> (8 * i)) & 0xff);
  }
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(bytes, &frame, &consumed, &error),
            DecodeResult::kBad);
  EXPECT_NE(error.find("unknown frame kind"), std::string::npos) << error;
}

TEST(WireTest, ImplausiblePayloadLengthIsBad) {
  // Same splice: oversized length with a recomputed (valid) header CRC.
  std::string bytes;
  EncodeFrame(FrameKind::kPing, 1, "", &bytes);
  const uint32_t huge = kWireMaxPayloadBytes + 1;
  for (size_t i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  const uint32_t fixed_crc = Crc32c(std::string_view(bytes).substr(0, 16));
  for (size_t i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<char>((fixed_crc >> (8 * i)) & 0xff);
  }
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(bytes, &frame, &consumed, &error),
            DecodeResult::kBad);
  EXPECT_NE(error.find("implausible payload length"), std::string::npos)
      << error;
}

TEST(WireTest, IssueRequestRoundTripsALicense) {
  const ConstraintSchema schema = IntervalSchema(2);
  const License license =
      MakeUsage(schema, "U1", {{10, 20}, {5, 7}}, 3);

  std::string payload;
  ASSERT_TRUE(EncodeIssueRequest(license, &payload).ok());
  const Result<License> decoded = DecodeIssueRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->id(), "U1");
  EXPECT_EQ(decoded->aggregate_count(), 3);
  EXPECT_EQ(decoded->type(), LicenseType::kUsage);

  // Round-tripping the decoded license must be byte-identical — the sim
  // harness leans on this to cross-check the codec against the service.
  std::string again;
  ASSERT_TRUE(EncodeIssueRequest(*decoded, &again).ok());
  EXPECT_EQ(again, payload);
}

TEST(WireTest, IssueRequestRejectsTrailingBytes) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::string payload;
  ASSERT_TRUE(
      EncodeIssueRequest(MakeUsage(schema, "U1", {{0, 1}}, 1), &payload)
          .ok());
  payload.push_back('\0');
  EXPECT_FALSE(DecodeIssueRequest(payload).ok());
}

TEST(WireTest, TenantIssueRequestRejectsTrailingBytes) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::string payload;
  ASSERT_TRUE(EncodeTenantIssueRequest(
                  42, MakeUsage(schema, "U1", {{0, 1}}, 1), &payload)
                  .ok());
  const Result<TenantIssueRequest> clean = DecodeTenantIssueRequest(payload);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  EXPECT_EQ(clean->tenant_id, 42u);
  EXPECT_EQ(clean->license.id(), "U1");
  payload.push_back('\0');
  EXPECT_FALSE(DecodeTenantIssueRequest(payload).ok());
}

TEST(WireTest, IssueRequestRejectsGarbage) {
  EXPECT_FALSE(DecodeIssueRequest("").ok());
  EXPECT_FALSE(DecodeIssueRequest("not a license").ok());
}

TEST(WireTest, IssueResultRoundTrips) {
  for (const auto outcome : {IssueResult::Outcome::kAccepted,
                             IssueResult::Outcome::kRejectedInstance,
                             IssueResult::Outcome::kRejectedAggregate}) {
    IssueResult result;
    result.outcome = outcome;
    result.catalog_epoch = 17;
    result.equations_checked = 123456;
    std::string payload;
    EncodeIssueResult(result, &payload);

    IssueResult decoded;
    ASSERT_TRUE(DecodeIssueResult(payload, &decoded).ok());
    EXPECT_EQ(decoded.outcome, outcome);
    EXPECT_EQ(decoded.catalog_epoch, 17u);
    EXPECT_EQ(decoded.equations_checked, 123456u);
  }
}

TEST(WireTest, IssueResultRejectsMalformedPayloads) {
  IssueResult result;
  EXPECT_FALSE(DecodeIssueResult("", &result).ok());
  EXPECT_FALSE(DecodeIssueResult("short", &result).ok());

  std::string payload;
  EncodeIssueResult(IssueResult{}, &payload);
  payload[0] = 9;  // Unknown outcome.
  EXPECT_FALSE(DecodeIssueResult(payload, &result).ok());

  payload[0] = 0;
  payload.push_back('x');  // Trailing byte.
  EXPECT_FALSE(DecodeIssueResult(payload, &result).ok());
}

}  // namespace
}  // namespace geolic::net
