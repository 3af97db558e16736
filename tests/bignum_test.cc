#include <gtest/gtest.h>

#include <stdexcept>

#include "src/crypto/bignum.h"

namespace avm {
namespace {

TEST(Bignum, ConstructionAndLowU64) {
  EXPECT_TRUE(Bignum(0).IsZero());
  EXPECT_EQ(Bignum(1).LowU64(), 1u);
  EXPECT_EQ(Bignum(0xffffffffffffffffULL).LowU64(), 0xffffffffffffffffULL);
}

TEST(Bignum, BytesRoundTrip) {
  Bignum v = Bignum::FromHex("0123456789abcdef00ff");
  EXPECT_EQ(v.ToHex(), "123456789abcdef00ff");
  EXPECT_EQ(Bignum::FromBytes(v.ToBytes()), v);
}

TEST(Bignum, ToBytesFixedWidth) {
  Bignum v(0x1234);
  Bytes b = v.ToBytes(4);
  EXPECT_EQ(HexEncode(b), "00001234");
  EXPECT_THROW(Bignum::FromHex("ffffff").ToBytes(2), std::invalid_argument);
}

TEST(Bignum, LeadingZerosNormalized) {
  Bignum a = Bignum::FromHex("00000001");
  EXPECT_EQ(a, Bignum(1));
  EXPECT_EQ(a.BitLength(), 1u);
}

TEST(Bignum, BitLength) {
  EXPECT_EQ(Bignum(0).BitLength(), 0u);
  EXPECT_EQ(Bignum(1).BitLength(), 1u);
  EXPECT_EQ(Bignum(255).BitLength(), 8u);
  EXPECT_EQ(Bignum(256).BitLength(), 9u);
  EXPECT_EQ(Bignum::FromHex("80000000000000000000").BitLength(), 80u);
}

TEST(Bignum, CompareOrdering) {
  EXPECT_LT(Bignum(3), Bignum(5));
  EXPECT_GT(Bignum::FromHex("100000000"), Bignum(0xffffffffu));
  EXPECT_EQ(Bignum::Cmp(Bignum(7), Bignum(7)), 0);
}

TEST(Bignum, AddSubAgainstU64) {
  Prng rng(5);
  for (int i = 0; i < 200; i++) {
    uint64_t a = rng.Next() >> 1, b = rng.Next() >> 1;
    EXPECT_EQ(Bignum::Add(Bignum(a), Bignum(b)).LowU64(), a + b);
    uint64_t hi = std::max(a, b), lo = std::min(a, b);
    EXPECT_EQ(Bignum::Sub(Bignum(hi), Bignum(lo)).LowU64(), hi - lo);
  }
}

TEST(Bignum, SubNegativeThrows) {
  EXPECT_THROW(Bignum::Sub(Bignum(1), Bignum(2)), std::invalid_argument);
}

TEST(Bignum, MulAgainstU64) {
  Prng rng(6);
  for (int i = 0; i < 200; i++) {
    uint64_t a = rng.Next() & 0xffffffffu, b = rng.Next() & 0xffffffffu;
    EXPECT_EQ(Bignum::Mul(Bignum(a), Bignum(b)).LowU64(), a * b);
  }
}

TEST(Bignum, MulByZero) {
  EXPECT_TRUE(Bignum::Mul(Bignum(0), Bignum::FromHex("deadbeefcafe")).IsZero());
}

TEST(Bignum, DivModAgainstU64) {
  Prng rng(7);
  for (int i = 0; i < 500; i++) {
    uint64_t a = rng.Next(), b = rng.Next() % 1000000 + 1;
    Bignum q, r;
    Bignum::DivMod(Bignum(a), Bignum(b), &q, &r);
    EXPECT_EQ(q.LowU64(), a / b);
    EXPECT_EQ(r.LowU64(), a % b);
  }
}

TEST(Bignum, DivModInvariantLargeOperands) {
  // Property: a == q*b + r with r < b, across random widths.
  Prng rng(8);
  for (int i = 0; i < 100; i++) {
    Bignum a = Bignum::RandomWithBits(rng, 64 + rng.Below(400));
    Bignum b = Bignum::RandomWithBits(rng, 32 + rng.Below(200));
    Bignum q, r;
    Bignum::DivMod(a, b, &q, &r);
    EXPECT_LT(r, b);
    EXPECT_EQ(Bignum::Add(Bignum::Mul(q, b), r), a);
  }
}

TEST(Bignum, DivByZeroThrows) {
  Bignum q, r;
  EXPECT_THROW(Bignum::DivMod(Bignum(1), Bignum(0), &q, &r), std::invalid_argument);
}

TEST(Bignum, KnuthD6AddBackCase) {
  // Divisor chosen so the qhat correction path is plausible; invariant
  // check is what matters.
  Bignum a = Bignum::FromHex("800000000000000000000003");
  Bignum b = Bignum::FromHex("200000000000000000000001");
  Bignum q, r;
  Bignum::DivMod(a, b, &q, &r);
  EXPECT_EQ(Bignum::Add(Bignum::Mul(q, b), r), a);
  EXPECT_LT(r, b);
}

TEST(Bignum, Shifts) {
  Bignum v = Bignum::FromHex("123456789abcdef");
  EXPECT_EQ(Bignum::Shr(Bignum::Shl(v, 77), 77), v);
  EXPECT_EQ(Bignum::Shl(Bignum(1), 100).BitLength(), 101u);
  EXPECT_TRUE(Bignum::Shr(v, 1000).IsZero());
}

TEST(Bignum, PowModSmall) {
  // 3^200 mod 7 == 2 (since 3^6 == 1 mod 7, 200 % 6 == 2, 3^2 == 2 mod 7).
  EXPECT_EQ(Bignum::PowMod(Bignum(3), Bignum(200), Bignum(7)).LowU64(), 2u);
  EXPECT_EQ(Bignum::PowMod(Bignum(5), Bignum(0), Bignum(13)).LowU64(), 1u);
}

TEST(Bignum, PowModFermat) {
  // Fermat's little theorem: a^(p-1) == 1 mod p for prime p.
  Bignum p(1000000007);
  Prng rng(10);
  for (int i = 0; i < 20; i++) {
    Bignum a(rng.Next() % 1000000006 + 1);
    EXPECT_EQ(Bignum::PowMod(a, Bignum(1000000006), p).LowU64(), 1u);
  }
}

TEST(Bignum, MontgomeryAcceptsOddModuliUpTo2048Bits) {
  EXPECT_TRUE(Montgomery::Supports(Bignum(3)));
  EXPECT_TRUE(Montgomery::Supports(Bignum::Sub(Bignum::Shl(Bignum(1), 2048), Bignum(1))));
  EXPECT_FALSE(Montgomery::Supports(Bignum()));
  EXPECT_FALSE(Montgomery::Supports(Bignum(1)));
  EXPECT_FALSE(Montgomery::Supports(Bignum(1000)));
  const Bignum wide = Bignum::Add(Bignum::Shl(Bignum(1), 2048), Bignum(1));
  EXPECT_FALSE(Montgomery::Supports(wide));
  EXPECT_THROW(Montgomery{wide}, std::invalid_argument);
  EXPECT_THROW(Montgomery{Bignum(1000)}, std::invalid_argument);
  // Wider moduli still exponentiate, through the division path.
  EXPECT_EQ(Bignum::PowMod(Bignum(2), Bignum(2049), wide), Bignum::Sub(wide, Bignum(2)));
}

TEST(Bignum, GcdBasics) {
  EXPECT_EQ(Bignum::Gcd(Bignum(12), Bignum(18)).LowU64(), 6u);
  EXPECT_EQ(Bignum::Gcd(Bignum(17), Bignum(13)).LowU64(), 1u);
  EXPECT_EQ(Bignum::Gcd(Bignum(0), Bignum(5)).LowU64(), 5u);
}

TEST(Bignum, InvModProperty) {
  Prng rng(11);
  Bignum m(1000000007);
  for (int i = 0; i < 50; i++) {
    Bignum a(rng.Next() % 1000000006 + 1);
    Bignum inv = Bignum::InvMod(a, m);
    EXPECT_EQ(Bignum::MulMod(a, inv, m).LowU64(), 1u);
  }
}

TEST(Bignum, InvModNotInvertibleThrows) {
  EXPECT_THROW(Bignum::InvMod(Bignum(6), Bignum(9)), std::invalid_argument);
}

TEST(Bignum, RandomWithBitsExact) {
  Prng rng(12);
  for (size_t bits : {1u, 7u, 32u, 33u, 384u}) {
    Bignum v = Bignum::RandomWithBits(rng, bits);
    EXPECT_EQ(v.BitLength(), bits);
  }
}

TEST(Bignum, MillerRabinKnownPrimes) {
  Prng rng(13);
  for (uint64_t p : {2ull, 3ull, 5ull, 97ull, 7919ull, 1000000007ull, 2305843009213693951ull}) {
    EXPECT_TRUE(Bignum::IsProbablePrime(Bignum(p), rng)) << p;
  }
}

TEST(Bignum, MillerRabinKnownComposites) {
  Prng rng(14);
  // Includes Carmichael numbers (561, 41041) that fool Fermat tests.
  for (uint64_t c : {1ull, 4ull, 561ull, 41041ull, 1000000008ull, 7917ull}) {
    EXPECT_FALSE(Bignum::IsProbablePrime(Bignum(c), rng)) << c;
  }
}

TEST(Bignum, GeneratePrimeHasRequestedSize) {
  Prng rng(15);
  Bignum p = Bignum::GeneratePrime(rng, 96);
  EXPECT_EQ(p.BitLength(), 96u);
  EXPECT_TRUE(Bignum::IsProbablePrime(p, rng));
}

}  // namespace
}  // namespace avm
