#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/hyper_rect.h"
#include "net/wire.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic::net {
namespace {

using geolic::testing::IntervalSchema;
using geolic::testing::MakeUsage;
using geolic::testing::TestSeed;

// A catalog-route payload: tenant id, then a license with every
// dimension kind.
std::string SampleTenantPayload() {
  HyperRect rect;
  rect.AddDim(ConstraintRange(Interval(3, 9)));
  rect.AddDim(ConstraintRange(
      MultiInterval::FromIntervals({Interval(0, 4), Interval(8, 12)})));
  rect.AddDim(ConstraintRange(CategorySet(0x6)));
  std::string payload;
  EXPECT_TRUE(EncodeTenantIssueRequest(
                  77,
                  License("U-tenant", "K", LicenseType::kUsage,
                          Permission::kPlay, std::move(rect), 2),
                  &payload)
                  .ok());
  return payload;
}

// Representative frames for the corruption sweeps: empty payload, text
// payload, a real serialized license, and a tenant-addressed license.
std::vector<std::string> SampleFrames() {
  std::vector<std::string> frames;
  {
    std::string bytes;
    EncodeFrame(FrameKind::kPing, 1, "", &bytes);
    frames.push_back(std::move(bytes));
  }
  {
    std::string bytes;
    EncodeFrame(FrameKind::kError, 0, "connection going away", &bytes);
    frames.push_back(std::move(bytes));
  }
  {
    const ConstraintSchema schema = IntervalSchema(2);
    std::string payload;
    EXPECT_TRUE(EncodeIssueRequest(
                    MakeUsage(schema, "U-fuzz", {{3, 9}, {100, 200}}, 2),
                    &payload)
                    .ok());
    std::string bytes;
    EncodeFrame(FrameKind::kIssueRequest, 0xdeadbeef, payload, &bytes);
    frames.push_back(std::move(bytes));
  }
  {
    std::string bytes;
    EncodeFrame(FrameKind::kTenantIssueRequest, 0xfeed,
                SampleTenantPayload(), &bytes);
    frames.push_back(std::move(bytes));
  }
  return frames;
}

// The CRC pair makes corruption detection exhaustive at the bit level:
// the header CRC covers (len, kind, request_id), the payload CRC covers
// the payload, and a flip inside either CRC field mismatches its own
// check. So EVERY single-bit flip anywhere in a frame must decode as
// kBad — never a mangled kFrame, never a crash.
TEST(WireFuzzTest, EverySingleBitFlipIsRejected) {
  for (const std::string& original : SampleFrames()) {
    for (size_t byte = 0; byte < original.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = original;
        mutated[byte] = static_cast<char>(
            static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));
        Frame frame;
        size_t consumed = 0;
        std::string error;
        EXPECT_EQ(TryDecodeFrame(mutated, &frame, &consumed, &error),
                  DecodeResult::kBad)
            << "frame size " << original.size() << " byte " << byte
            << " bit " << bit;
        EXPECT_FALSE(error.empty());
      }
    }
  }
}

// A split recv() is indistinguishable from a frame in flight, so every
// proper prefix of a valid frame must report kNeedMore — truncation is
// never a hard error and never a crash.
TEST(WireFuzzTest, EveryTruncationNeedsMore) {
  for (const std::string& original : SampleFrames()) {
    for (size_t len = 0; len < original.size(); ++len) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      EXPECT_EQ(
          TryDecodeFrame(std::string_view(original).substr(0, len), &frame,
                         &consumed, &error),
          DecodeResult::kNeedMore)
          << "frame size " << original.size() << " prefix " << len;
    }
  }
}

// Heavier random corruption (multi-byte, inserts, random garbage): the
// decoder must always terminate with a classified result and in-bounds
// `consumed`; under ASan/UBSan this doubles as a memory-safety sweep.
TEST(WireFuzzTest, RandomCorruptionNeverCrashes) {
  Rng rng(TestSeed(20260808));
  const std::vector<std::string> frames = SampleFrames();
  for (int iter = 0; iter < 20000; ++iter) {
    std::string bytes = frames[rng.UniformIndex(frames.size())];
    const int edits = 1 + static_cast<int>(rng.UniformIndex(8));
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformIndex(3)) {
        case 0:  // Overwrite a byte.
          bytes[rng.UniformIndex(bytes.size())] =
              static_cast<char>(rng.UniformIndex(256));
          break;
        case 1:  // Truncate.
          bytes.resize(rng.UniformIndex(bytes.size() + 1));
          break;
        default:  // Append garbage.
          bytes.push_back(static_cast<char>(rng.UniformIndex(256)));
          break;
      }
      if (bytes.empty()) {
        bytes.push_back(static_cast<char>(rng.UniformIndex(256)));
      }
    }
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const DecodeResult result =
        TryDecodeFrame(bytes, &frame, &consumed, &error);
    if (result == DecodeResult::kFrame) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GE(consumed, kWireHeaderBytes);
    } else if (result == DecodeResult::kBad) {
      EXPECT_FALSE(error.empty());
    }
    // Whatever survived the frame layer must also never crash the
    // payload decoders.
    if (result == DecodeResult::kFrame &&
        frame.kind == FrameKind::kIssueRequest) {
      (void)DecodeIssueRequest(frame.payload);
    }
    if (result == DecodeResult::kFrame &&
        frame.kind == FrameKind::kTenantIssueRequest) {
      (void)DecodeTenantIssueRequest(frame.payload);
    }
    if (result == DecodeResult::kFrame &&
        frame.kind == FrameKind::kIssueResult) {
      IssueResult decoded;
      (void)DecodeIssueResult(frame.payload, &decoded);
    }
  }
}

// The CRCs stop corrupted bytes at the frame layer, so the sweeps above
// rarely reach the payload decoder. Here the tenant payload is mutated
// first and framed afterwards with valid CRCs: every frame arrives whole
// and DecodeTenantIssueRequest (the catalog route's per-request decoder)
// sees the damage. It must classify every input, and whatever it accepts
// must re-encode to bytes that decode to the same license again.
TEST(WireFuzzTest, MutatedTenantPayloadsReachTheDecoder) {
  Rng rng(TestSeed(31337));
  const std::string original = SampleTenantPayload();
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string payload = original;
    const int edits = 1 + static_cast<int>(rng.UniformIndex(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformIndex(4)) {
        case 0:  // Overwrite a byte.
          payload[rng.UniformIndex(payload.size())] =
              static_cast<char>(rng.UniformIndex(256));
          break;
        case 1:  // Flip one bit.
          payload[rng.UniformIndex(payload.size())] ^=
              static_cast<char>(1u << rng.UniformIndex(8));
          break;
        case 2:  // Truncate.
          payload.resize(rng.UniformIndex(payload.size() + 1));
          break;
        default:  // Append garbage.
          payload.push_back(static_cast<char>(rng.UniformIndex(256)));
          break;
      }
      if (payload.empty()) {
        payload.push_back(static_cast<char>(rng.UniformIndex(256)));
      }
    }
    std::string bytes;
    EncodeFrame(FrameKind::kTenantIssueRequest, 9, payload, &bytes);
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(TryDecodeFrame(bytes, &frame, &consumed, &error),
              DecodeResult::kFrame)
        << error;
    ASSERT_EQ(frame.payload, payload);
    const Result<TenantIssueRequest> decoded =
        DecodeTenantIssueRequest(frame.payload);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
      continue;
    }
    ++accepted;
    std::string again;
    ASSERT_TRUE(
        EncodeTenantIssueRequest(decoded->tenant_id, decoded->license, &again)
            .ok());
    const Result<TenantIssueRequest> redecoded =
        DecodeTenantIssueRequest(again);
    ASSERT_TRUE(redecoded.ok()) << redecoded.status().message();
    EXPECT_EQ(redecoded->tenant_id, decoded->tenant_id);
    EXPECT_EQ(redecoded->license.id(), decoded->license.id());
    EXPECT_EQ(redecoded->license.content_key(),
              decoded->license.content_key());
    EXPECT_EQ(redecoded->license.aggregate_count(),
              decoded->license.aggregate_count());
    EXPECT_TRUE(redecoded->license.rect() == decoded->license.rect());
  }
  // Single overwrites of endpoint, mask and tenant-id bytes decode fine,
  // so the accept branch above must really run.
  EXPECT_GT(accepted, 100);
}

// Raw noise straight at the decoder (no valid frame as a starting point):
// same guarantees.
TEST(WireFuzzTest, PureGarbageIsClassifiedNotCrashed) {
  Rng rng(TestSeed(444));
  for (int iter = 0; iter < 20000; ++iter) {
    std::string bytes(rng.UniformIndex(96), '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng.UniformIndex(256));
    }
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const DecodeResult result =
        TryDecodeFrame(bytes, &frame, &consumed, &error);
    if (bytes.size() < kWireHeaderBytes) {
      EXPECT_EQ(result, DecodeResult::kNeedMore);
    }
    if (result == DecodeResult::kFrame) {
      EXPECT_LE(consumed, bytes.size());
    }
  }
}

}  // namespace
}  // namespace geolic::net
