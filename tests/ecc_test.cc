/**
 * @file
 * Tests for the SECDED(39,32) codec protecting CommGuard headers and
 * shared queue pointers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>

#include "common/ecc.hh"
#include "common/rng.hh"

namespace commguard
{
namespace
{

constexpr int kPositions = eccCodewordBits;

bool
isPowerOfTwo(int x)
{
    return (x & (x - 1)) == 0;
}

/**
 * Bit-serial SECDED decode, the oracle for eccDecode's byte tables: one
 * parity loop per check bit for the syndrome, overall parity over the
 * whole container, and one loop gathering the data bits.
 */
EccDecode
referenceDecode(EccWord code)
{
    // Recompute the syndrome.
    int syndrome = 0;
    for (int p = 1; p < kPositions; p <<= 1) {
        int parity = 0;
        for (int pos = 1; pos < kPositions; ++pos) {
            if (pos & p)
                parity ^= static_cast<int>((code >> pos) & 1u);
        }
        if (parity)
            syndrome |= p;
    }

    const int overall = std::popcount(code) & 1;

    EccDecode result;
    if (syndrome == 0 && overall == 0) {
        result.status = EccStatus::Clean;
    } else if (overall == 1) {
        // Odd number of flipped bits: correct the indicated position
        // (syndrome 0 with odd parity means the parity bit itself).
        if (syndrome < kPositions)
            code ^= EccWord{1} << syndrome;
        result.status = EccStatus::Corrected;
    } else {
        // Even number of flips with nonzero syndrome: uncorrectable.
        result.status = EccStatus::Uncorrectable;
    }

    // Extract data bits.
    Word data = 0;
    int seen = -1;
    for (int pos = 1; pos < kPositions; ++pos) {
        if (isPowerOfTwo(pos))
            continue;
        ++seen;
        if ((code >> pos) & 1u)
            data |= Word{1} << seen;
    }
    result.data = data;
    return result;
}

/** Empty when eccDecode agrees with the oracle on @p code. */
std::string
decodeMismatch(EccWord code)
{
    const EccDecode fast = eccDecode(code);
    const EccDecode slow = referenceDecode(code);
    if (fast.data == slow.data && fast.status == slow.status)
        return {};
    std::ostringstream os;
    os << std::hex << "code 0x" << code << ": data 0x" << fast.data
       << " vs 0x" << slow.data << std::dec << ", status "
       << static_cast<int>(fast.status) << " vs "
       << static_cast<int>(slow.status);
    return os.str();
}

TEST(Ecc, TableDecodeMatchesReference)
{
    Rng rng(2025);

    // Whole 64-bit containers: pins what the decoder does with stray
    // bits above the codeword (overall parity sees them, nothing else).
    for (int i = 0; i < (1 << 20); ++i)
        ASSERT_EQ(decodeMismatch(rng.next64()), "");

    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(decodeMismatch(eccEncode(rng.next32())), "");

    // Every single and double flip of sampled codewords.
    for (int sample = 0; sample < 64; ++sample) {
        const EccWord code = eccEncode(rng.next32());
        for (int a = 0; a < eccCodewordBits; ++a) {
            const EccWord one = eccFlipBit(code, a);
            ASSERT_EQ(decodeMismatch(one), "");
            for (int b = a + 1; b < eccCodewordBits; ++b)
                ASSERT_EQ(decodeMismatch(eccFlipBit(one, b)), "");
        }
    }
}

TEST(Ecc, CleanRoundtripZero)
{
    const EccDecode decoded = eccDecode(eccEncode(0));
    EXPECT_EQ(decoded.status, EccStatus::Clean);
    EXPECT_EQ(decoded.data, 0u);
}

TEST(Ecc, CleanRoundtripAllOnes)
{
    const EccDecode decoded = eccDecode(eccEncode(0xffffffffu));
    EXPECT_EQ(decoded.status, EccStatus::Clean);
    EXPECT_EQ(decoded.data, 0xffffffffu);
}

TEST(Ecc, CleanRoundtripWalkingOne)
{
    for (int bit = 0; bit < 32; ++bit) {
        const Word data = Word{1} << bit;
        const EccDecode decoded = eccDecode(eccEncode(data));
        EXPECT_EQ(decoded.status, EccStatus::Clean);
        EXPECT_EQ(decoded.data, data) << "bit " << bit;
    }
}

TEST(Ecc, CleanRoundtripRandomWords)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Word data = rng.next32();
        const EccDecode decoded = eccDecode(eccEncode(data));
        EXPECT_EQ(decoded.status, EccStatus::Clean);
        EXPECT_EQ(decoded.data, data);
    }
}

/** Every single-bit flip in the codeword must be corrected. */
class EccSingleFlip : public ::testing::TestWithParam<int>
{
};

TEST_P(EccSingleFlip, Corrected)
{
    const int bit = GetParam();
    Rng rng(1234 + bit);
    for (int i = 0; i < 50; ++i) {
        const Word data = rng.next32();
        const EccWord corrupted = eccFlipBit(eccEncode(data), bit);
        const EccDecode decoded = eccDecode(corrupted);
        EXPECT_EQ(decoded.status, EccStatus::Corrected)
            << "bit " << bit;
        EXPECT_EQ(decoded.data, data) << "bit " << bit;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodewordBits, EccSingleFlip,
                         ::testing::Range(0, eccCodewordBits));

TEST(Ecc, DoubleFlipsDetected)
{
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const Word data = rng.next32();
        const int bit_a =
            static_cast<int>(rng.below(eccCodewordBits));
        int bit_b = static_cast<int>(rng.below(eccCodewordBits));
        while (bit_b == bit_a)
            bit_b = static_cast<int>(rng.below(eccCodewordBits));

        EccWord corrupted = eccEncode(data);
        corrupted = eccFlipBit(corrupted, bit_a);
        corrupted = eccFlipBit(corrupted, bit_b);
        const EccDecode decoded = eccDecode(corrupted);
        EXPECT_EQ(decoded.status, EccStatus::Uncorrectable)
            << "bits " << bit_a << "," << bit_b;
    }
}

TEST(Ecc, FlipBitIsInvolution)
{
    const EccWord code = eccEncode(0xdeadbeefu);
    EXPECT_EQ(eccFlipBit(eccFlipBit(code, 17), 17), code);
}

TEST(Ecc, DistinctDataDistinctCodewords)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const Word a = rng.next32();
        const Word b = rng.next32();
        if (a != b) {
            EXPECT_NE(eccEncode(a), eccEncode(b));
        }
    }
}

} // namespace
} // namespace commguard
