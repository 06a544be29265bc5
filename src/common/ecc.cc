#include "common/ecc.hh"

#include <bit>
#include <string>

#include "common/logging.hh"

namespace commguard
{

namespace
{

// Codeword layout: bit positions 1..38 use classic Hamming numbering
// (check bits at powers of two: 1, 2, 4, 8, 16, 32; data bits fill the
// remaining 32 positions in increasing order). Bit position 0 holds the
// overall parity bit that upgrades Hamming SEC to SECDED.

constexpr int kPositions = 39;

constexpr bool
isPowerOfTwo(int x)
{
    return (x & (x - 1)) == 0;
}

/** Map data bit index (0..31) to its Hamming position (non-power-of-2). */
constexpr int
dataPosition(int data_bit)
{
    int pos = 0;
    int seen = -1;
    for (pos = 1; pos < kPositions; ++pos) {
        if (isPowerOfTwo(pos))
            continue;
        if (++seen == data_bit)
            return pos;
    }
    return -1;
}

// Decode tables. In Hamming numbering the syndrome is the XOR of the
// positions of the codeword's set bits, and every data bit sits at a
// fixed position, so both split into one lookup per codeword byte.
// Container bits above position 38 map to nothing.

constexpr int kBytes = (kPositions + 7) / 8;

struct DecodeTables
{
    /** XOR of the positions (1..38) of the byte's set bits. */
    std::uint8_t syndrome[kBytes][256] = {};
    /** The byte's data bits moved to their data-bit indices. */
    Word data[kBytes][256] = {};
};

constexpr DecodeTables
makeDecodeTables()
{
    DecodeTables tables;
    for (int byte = 0; byte < kBytes; ++byte) {
        for (int value = 0; value < 256; ++value) {
            for (int bit = 0; bit < 8; ++bit) {
                const int pos = 8 * byte + bit;
                if (((value >> bit) & 1) && pos < kPositions)
                    tables.syndrome[byte][value] ^= pos;
            }
        }
    }
    for (int i = 0; i < 32; ++i) {
        const int pos = dataPosition(i);
        for (int value = 0; value < 256; ++value) {
            if ((value >> (pos % 8)) & 1)
                tables.data[pos / 8][value] |= Word{1} << i;
        }
    }
    return tables;
}

constexpr DecodeTables kDecode = makeDecodeTables();

/** Byte @p byte of a codeword container. */
constexpr unsigned
codeByte(EccWord code, int byte)
{
    return static_cast<unsigned>(code >> (8 * byte)) & 0xffu;
}

} // namespace

EccWord
eccEncode(Word data)
{
    EccWord code = 0;

    // Place data bits.
    for (int i = 0; i < 32; ++i) {
        if ((data >> i) & 1u)
            code |= EccWord{1} << dataPosition(i);
    }

    // Compute Hamming check bits (positions 1,2,4,8,16,32): check bit at
    // position p covers every position whose index has bit p set.
    for (int p = 1; p < kPositions; p <<= 1) {
        int parity = 0;
        for (int pos = 1; pos < kPositions; ++pos) {
            if ((pos & p) && !isPowerOfTwo(pos))
                parity ^= static_cast<int>((code >> pos) & 1u);
        }
        if (parity)
            code |= EccWord{1} << p;
    }

    // Overall parity over positions 1..38 stored at position 0.
    int overall = std::popcount(code >> 1) & 1;
    if (overall)
        code |= 1u;

    return code;
}

EccDecode
eccDecode(EccWord code)
{
    // Recompute the syndrome, one codeword byte at a time.
    int syndrome = 0;
    for (int byte = 0; byte < kBytes; ++byte)
        syndrome ^= kDecode.syndrome[byte][codeByte(code, byte)];

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

    // Extract the data bits of the corrected codeword.
    Word data = 0;
    for (int byte = 0; byte < kBytes; ++byte)
        data |= kDecode.data[byte][codeByte(code, byte)];
    result.data = data;
    return result;
}

EccWord
eccFlipBit(EccWord code, int bit)
{
    if (bit < 0 || bit >= eccCodewordBits) {
        std::string msg = "eccFlipBit: bit ";
        msg += std::to_string(bit);
        msg += " is outside the 39-bit codeword";
        panic(msg);
    }
    return code ^ (EccWord{1} << bit);
}

} // namespace commguard
