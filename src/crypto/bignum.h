// Arbitrary-precision unsigned integers for RSA key generation, padding
// and CRT recombination. Bignum keeps little-endian 32-bit limbs, always
// normalized (no high zero limbs), and does its own reduction by long
// division; modular exponentiation over odd moduli up to 2048 bits runs
// in the 64-bit-limb Montgomery kernel below instead.
#ifndef SRC_CRYPTO_BIGNUM_H_
#define SRC_CRYPTO_BIGNUM_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/prng.h"

namespace avm {

class Bignum {
 public:
  Bignum() = default;
  explicit Bignum(uint64_t v);

  // Big-endian byte import/export (the usual crypto wire order).
  static Bignum FromBytes(ByteView be);
  // Exports exactly `len` big-endian bytes (throws if the value is larger).
  Bytes ToBytes(size_t len) const;
  // Exports the minimal big-endian representation (empty for zero).
  Bytes ToBytes() const;

  static Bignum FromHex(std::string_view hex);
  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t BitLength() const;
  bool Bit(size_t i) const;
  uint64_t LowU64() const;

  // Comparison: -1, 0, +1.
  static int Cmp(const Bignum& a, const Bignum& b);
  bool operator==(const Bignum& o) const { return Cmp(*this, o) == 0; }
  bool operator!=(const Bignum& o) const { return Cmp(*this, o) != 0; }
  bool operator<(const Bignum& o) const { return Cmp(*this, o) < 0; }
  bool operator<=(const Bignum& o) const { return Cmp(*this, o) <= 0; }
  bool operator>(const Bignum& o) const { return Cmp(*this, o) > 0; }
  bool operator>=(const Bignum& o) const { return Cmp(*this, o) >= 0; }

  static Bignum Add(const Bignum& a, const Bignum& b);
  // Requires a >= b.
  static Bignum Sub(const Bignum& a, const Bignum& b);
  static Bignum Mul(const Bignum& a, const Bignum& b);
  // Quotient and remainder; throws on division by zero.
  static void DivMod(const Bignum& a, const Bignum& b, Bignum* q, Bignum* r);
  static Bignum Mod(const Bignum& a, const Bignum& m);

  static Bignum Shl(const Bignum& a, size_t bits);
  static Bignum Shr(const Bignum& a, size_t bits);

  // (a * b) mod m.
  static Bignum MulMod(const Bignum& a, const Bignum& b, const Bignum& m);
  // (base ^ exp) mod m. m must be > 0. Odd moduli Montgomery supports go
  // through it; even and wider moduli square-and-multiply with division.
  static Bignum PowMod(const Bignum& base, const Bignum& exp, const Bignum& m);
  // gcd(a, b).
  static Bignum Gcd(Bignum a, Bignum b);
  // Modular inverse of a mod m; throws if gcd(a, m) != 1.
  static Bignum InvMod(const Bignum& a, const Bignum& m);

  // Builds a value directly from little-endian 32-bit limbs.
  static Bignum FromLimbs(std::vector<uint32_t> limbs);

  // Uniform random value with exactly `bits` bits (MSB set).
  static Bignum RandomWithBits(Prng& rng, size_t bits);
  // Uniform random value in [2, limit-2] (for Miller-Rabin bases).
  static Bignum RandomBelow(Prng& rng, const Bignum& limit);

  // Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const Bignum& n, Prng& rng, int rounds = 24);
  // Generates a random prime with exactly `bits` bits.
  static Bignum GeneratePrime(Prng& rng, size_t bits);

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  void Normalize();

  std::vector<uint32_t> limbs_;
};

// Montgomery arithmetic for an odd modulus of up to 2048 bits: the engine
// under every RSA sign and verify, and so under the per-message cost of
// accountability (§6.8).
//
// The kernel works on stack-resident residues of N 64-bit limbs, with
// one instantiation per N from 1 to kMaxLimbs: 128-bit limb products, a
// dedicated squaring, and a branch-free final subtraction. Neither the
// multiply nor the exponentiation loops allocate. A context holds only
// the modulus and -m^-1 mod 2^64, so building one is cheap enough to do
// per exponentiation; it is immutable, so concurrent PowMod calls on one
// context are safe.
class Montgomery {
 public:
  static constexpr size_t kMaxLimbs = 32;  // 2048-bit moduli.

  // True when m is odd, greater than 1 and at most 64 * kMaxLimbs bits.
  static bool Supports(const Bignum& m);
  // Throws std::invalid_argument unless Supports(m).
  explicit Montgomery(const Bignum& m);

  // (base ^ exp) mod m, for any base. Exponents longer than 64 bits (the
  // private CRT exponents) use a 4-bit fixed window, ~bits/4 multiplies on
  // top of the squarings; shorter ones (public exponents such as 65537)
  // use plain square-and-multiply, which skips building the window table.
  Bignum PowMod(const Bignum& base, const Bignum& exp) const;

 private:
  Bignum modulus_;
  size_t n_ = 0;                         // Limb count N of m.
  uint64_t minv_ = 0;                    // -m^-1 mod 2^64.
  std::array<uint64_t, kMaxLimbs> m_{};  // m as 64-bit limbs.
};

}  // namespace avm

#endif  // SRC_CRYPTO_BIGNUM_H_
