// Unit + property tests for the LZ byte codec, and a seeded mutation fuzz
// of its decoder against the legacy one.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/binary_io.h"
#include "common/compress.h"
#include "common/random.h"
#include "decoder_fuzz.h"

namespace hybridjoin {
namespace {

void RoundTrip(const std::vector<uint8_t>& input) {
  const auto compressed = LzCompress(input);
  auto decompressed = LzDecompress(compressed);
  ASSERT_TRUE(decompressed.ok()) << decompressed.status();
  EXPECT_EQ(*decompressed, input);
}

TEST(LzTest, EmptyInput) { RoundTrip({}); }

TEST(LzTest, TinyInputs) {
  for (size_t n = 1; n <= 8; ++n) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 37);
    RoundTrip(v);
  }
}

TEST(LzTest, HighlyRepetitiveCompressesWell) {
  std::vector<uint8_t> v(100000, 'a');
  const auto compressed = LzCompress(v);
  EXPECT_LT(compressed.size(), v.size() / 50);
  RoundTrip(v);
}

TEST(LzTest, RepeatedPhraseUsesMatches) {
  std::string phrase = "the quick brown fox jumps over the lazy dog. ";
  std::string text;
  for (int i = 0; i < 200; ++i) text += phrase;
  std::vector<uint8_t> v(text.begin(), text.end());
  const auto compressed = LzCompress(v);
  EXPECT_LT(compressed.size(), v.size() / 4);
  RoundTrip(v);
}

TEST(LzTest, IncompressibleRandomRoundTrips) {
  Rng rng(3);
  std::vector<uint8_t> v(50000);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  RoundTrip(v);
}

TEST(LzTest, OverlappingCopyPattern) {
  // "abcabcabc..." exercises offset < match length replication.
  std::vector<uint8_t> v;
  for (int i = 0; i < 10000; ++i) v.push_back("abc"[i % 3]);
  RoundTrip(v);
}

TEST(LzTest, EndsExactlyOnMatch) {
  // Input whose tail is a match (regression for the trailing-token bug).
  std::vector<uint8_t> v;
  for (int i = 0; i < 64; ++i) v.push_back(static_cast<uint8_t>(i));
  for (int i = 0; i < 64; ++i) v.push_back(static_cast<uint8_t>(i));
  RoundTrip(v);
}

TEST(LzTest, MalformedInputsRejected) {
  // Truncated stream.
  std::vector<uint8_t> v(1000, 'x');
  auto compressed = LzCompress(v);
  compressed.resize(compressed.size() / 2);
  EXPECT_TRUE(LzDecompress(compressed).status().IsIOError());

  // Garbage header claiming a huge size.
  std::vector<uint8_t> garbage = {0xff, 0xff, 0xff, 0x7f, 0x01, 0x41};
  EXPECT_TRUE(LzDecompress(garbage).status().IsIOError());

  // Bad match offset (offset beyond what has been produced).
  BinaryWriter w;
  w.PutVarint(10);  // original size
  w.PutVarint(2);   // 2 literals
  w.PutRaw("ab", 2);
  w.PutVarint(4);   // match of 4
  w.PutVarint(99);  // offset 99 > produced 2
  EXPECT_TRUE(LzDecompress(w.buffer()).status().IsIOError());
}

TEST(LzTest, HugeDeclaredSizeIsAnErrorNotAnAllocation) {
  // A header declaring 2^50 bytes followed by one literal 'a': the decoder
  // must reject it without trying to allocate the declared size.
  BinaryWriter huge;
  huge.PutVarint(uint64_t{1} << 50);
  huge.PutVarint(1);
  huge.PutRaw("a", 1);
  auto result = LzDecompress(huge.buffer());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status();

  // Under the size ceiling, a stream that stops after its first literal is
  // still rejected, again without allocating what it declared.
  BinaryWriter truncated;
  truncated.PutVarint(uint64_t{1} << 29);
  truncated.PutVarint(1);
  truncated.PutRaw("a", 1);
  EXPECT_FALSE(LzDecompress(truncated.buffer()).ok());
}

TEST(LzTest, NonOverlappingAndOverlappingMatchesCopyCorrectly) {
  // "abcdefgh" then a match at offset 8 (memcpy path), then a run of 'z'
  // built from a one-byte offset (overlapping byte-loop path).
  BinaryWriter w;
  w.PutVarint(8 + 8 + 1 + 20);
  w.PutVarint(8);
  w.PutRaw("abcdefgh", 8);
  w.PutVarint(8);
  w.PutVarint(8);
  w.PutVarint(1);
  w.PutRaw("z", 1);
  w.PutVarint(20);
  w.PutVarint(1);
  auto result = LzDecompress(w.buffer());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string text(result->begin(), result->end());
  EXPECT_EQ(text, "abcdefghabcdefghz" + std::string(20, 'z'));
}

TEST(LzTest, PropertyRandomStructuredInputs) {
  Rng rng(77);
  for (int iter = 0; iter < 50; ++iter) {
    // A mix of runs, phrases and noise.
    std::vector<uint8_t> v;
    const int segments = 1 + static_cast<int>(rng.Uniform(20));
    for (int s = 0; s < segments; ++s) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const size_t len = rng.Uniform(2000);
      if (kind == 0) {
        v.insert(v.end(), len, static_cast<uint8_t>(rng.Next()));
      } else if (kind == 1) {
        for (size_t i = 0; i < len; ++i) {
          v.push_back(static_cast<uint8_t>(rng.Next()));
        }
      } else if (!v.empty()) {
        // Copy a previous slice (creates real matches).
        const size_t start = rng.Uniform(v.size());
        const size_t n = std::min(len, v.size() - start);
        for (size_t i = 0; i < n; ++i) v.push_back(v[start + i]);
      }
    }
    RoundTrip(v);
  }
}

// --------------------------- Mutation fuzz --------------------------------

/// Inputs whose streams the fuzz corrupts: empty, runs, noise, overlapping
/// matches with short and mid-length periods, and strings shaped like paper
/// L's groupByExtractCol.
std::vector<std::vector<uint8_t>> LzCorpus() {
  Rng rng(91);
  std::vector<std::vector<uint8_t>> corpus(6);
  corpus[1].assign(3000, 'a');
  for (int i = 0; i < 600; ++i) {
    corpus[2].push_back(static_cast<uint8_t>(rng.Next()));
  }
  for (int i = 0; i < 400; ++i) {
    corpus[3].push_back(static_cast<uint8_t>("abcab"[i % 5]));
    corpus[5].push_back(static_cast<uint8_t>("0123456789ab"[i % 12]));
  }
  char buf[64];
  for (int i = 0; i < 150; ++i) {
    std::snprintf(buf, sizeof(buf), "g%u/products/item%05u",
                  static_cast<unsigned>(rng.Uniform(200)),
                  static_cast<unsigned>(rng.Uniform(100000)));
    const size_t len = std::strlen(buf);
    corpus[4].push_back(static_cast<uint8_t>(len));
    corpus[4].insert(corpus[4].end(), buf, buf + len);
  }
  return corpus;
}

/// Both decoders accept or both reject; accepted output is byte-identical,
/// and every rejection is an IOError. Returns whether it was accepted.
bool ExpectAgreesWithLegacy(const std::vector<uint8_t>& stream) {
  auto got = LzDecompress(stream);
  auto want = legacy::LzDecompress(stream.data(), stream.size());
  EXPECT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (got.ok() && want.ok()) {
    EXPECT_EQ(*got, *want);
  } else if (!got.ok()) {
    EXPECT_TRUE(got.status().IsIOError()) << got.status();
  }
  return got.ok();
}

TEST(LzFuzzTest, TruncationAtEveryOffsetMatchesLegacy) {
  for (const auto& input : LzCorpus()) {
    const std::vector<uint8_t> stream = LzCompress(input);
    EXPECT_TRUE(ExpectAgreesWithLegacy(stream));
    for (size_t cut = 0; cut < stream.size(); ++cut) {
      const std::vector<uint8_t> prefix(stream.begin(), stream.begin() + cut);
      ASSERT_FALSE(ExpectAgreesWithLegacy(prefix)) << "cut at " << cut;
    }
  }
}

TEST(LzFuzzTest, MutatedStreamsMatchLegacy) {
  Rng rng(2015);
  size_t accepted = 0, rejected = 0;
  for (const auto& input : LzCorpus()) {
    const std::vector<uint8_t> stream = LzCompress(input);
    for (int i = 0; i < 2000; ++i) {
      const std::vector<uint8_t> mutated = Mutate(stream, &rng);
      if (ExpectAgreesWithLegacy(mutated)) {
        ++accepted;
      } else {
        ++rejected;
      }
      if (HasFailure()) FAIL() << "input " << i;
    }
  }
  // The fuzz reaches both outcomes: flipped literals still decode, broken
  // tokens do not.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(LzFuzzTest, HugeVarintsInEveryFieldMatchLegacy) {
  // Each huge varint as the declared size, a literal length, a match length
  // and an offset, after an otherwise valid 64-byte stream's prefix.
  Rng rng(5);
  for (int field = 0; field < 4; ++field) {
    for (int i = 0; i < 64; ++i) {
      const std::vector<uint8_t> huge = HugeVarint(&rng);
      std::vector<uint8_t> stream;
      if (field > 0) {
        BinaryWriter prefix;
        prefix.PutVarint(64);
        if (field > 1) {
          prefix.PutVarint(8);
          prefix.PutRaw("abcdefgh", 8);
        }
        if (field == 3) prefix.PutVarint(8);
        stream = prefix.Release();
      }
      stream.insert(stream.end(), huge.begin(), huge.end());
      stream.insert(stream.end(), 16, 1);
      EXPECT_FALSE(ExpectAgreesWithLegacy(stream)) << field;
    }
  }
}

TEST(CodecTest, NoneCodecIsIdentity) {
  std::vector<uint8_t> v = {1, 2, 3};
  auto c = Compress(Codec::kNone, v.data(), v.size());
  EXPECT_EQ(c, v);
  auto d = Decompress(Codec::kNone, c.data(), c.size());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, v);
}

TEST(CodecTest, Names) {
  EXPECT_STREQ(CodecName(Codec::kNone), "none");
  EXPECT_STREQ(CodecName(Codec::kLz), "lz");
}

}  // namespace
}  // namespace hybridjoin
