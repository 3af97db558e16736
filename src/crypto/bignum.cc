#include "src/crypto/bignum.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace avm {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,  67,
    71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
    163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257,
    263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367,
    373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599,
    601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709};
}  // namespace

Bignum::Bignum(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) {
      limbs_.push_back(static_cast<uint32_t>(v >> 32));
    }
  }
}

void Bignum::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

Bignum Bignum::FromBytes(ByteView be) {
  Bignum out;
  size_t n = be.size();
  out.limbs_.resize((n + 3) / 4, 0);
  for (size_t i = 0; i < n; i++) {
    // be[n-1] is the least significant byte.
    size_t byte_idx = n - 1 - i;
    out.limbs_[i / 4] |= static_cast<uint32_t>(be[byte_idx]) << (8 * (i % 4));
  }
  out.Normalize();
  return out;
}

Bytes Bignum::ToBytes() const {
  size_t bits = BitLength();
  return ToBytes((bits + 7) / 8);
}

Bytes Bignum::ToBytes(size_t len) const {
  size_t bits = BitLength();
  size_t need = (bits + 7) / 8;
  if (need > len) {
    throw std::invalid_argument("Bignum::ToBytes: value too large for length");
  }
  Bytes out(len, 0);
  for (size_t i = 0; i < need; i++) {
    uint8_t byte = static_cast<uint8_t>(limbs_[i / 4] >> (8 * (i % 4)));
    out[len - 1 - i] = byte;
  }
  return out;
}

Bignum Bignum::FromHex(std::string_view hex) {
  std::string h(hex);
  if (h.size() % 2 != 0) {
    h.insert(h.begin(), '0');
  }
  return FromBytes(HexDecode(h));
}

std::string Bignum::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  std::string s = HexEncode(ToBytes());
  size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

size_t Bignum::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    bits++;
    top >>= 1;
  }
  return bits;
}

bool Bignum::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t Bignum::LowU64() const {
  uint64_t v = 0;
  if (limbs_.size() > 1) {
    v = static_cast<uint64_t>(limbs_[1]) << 32;
  }
  if (!limbs_.empty()) {
    v |= limbs_[0];
  }
  return v;
}

int Bignum::Cmp(const Bignum& a, const Bignum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

Bignum Bignum::Add(const Bignum& a, const Bignum& b) {
  Bignum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; i++) {
    uint64_t s = carry;
    if (i < a.limbs_.size()) {
      s += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      s += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(s);
    carry = s >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

Bignum Bignum::Sub(const Bignum& a, const Bignum& b) {
  if (Cmp(a, b) < 0) {
    throw std::invalid_argument("Bignum::Sub: would be negative");
  }
  Bignum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); i++) {
    int64_t d = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      d -= b.limbs_[i];
    }
    // Low 32 bits are d mod 2^32; the sign is the borrow (branch-free,
    // as in DivMod).
    borrow = static_cast<int64_t>(static_cast<uint64_t>(d) >> 63);
    out.limbs_[i] = static_cast<uint32_t>(d);
  }
  out.Normalize();
  return out;
}

Bignum Bignum::Mul(const Bignum& a, const Bignum& b) {
  if (a.IsZero() || b.IsZero()) {
    return Bignum();
  }
  Bignum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); i++) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); j++) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      k++;
    }
  }
  out.Normalize();
  return out;
}

Bignum Bignum::Shl(const Bignum& a, size_t bits) {
  if (a.IsZero() || bits == 0) {
    Bignum copy = a;
    return copy;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  Bignum out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); i++) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

Bignum Bignum::Shr(const Bignum& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) {
    return Bignum();
  }
  Bignum out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); i++) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

// Knuth Algorithm D (TAOCP 4.3.1) with 32-bit limbs.
void Bignum::DivMod(const Bignum& a, const Bignum& b, Bignum* q, Bignum* r) {
  if (b.IsZero()) {
    throw std::invalid_argument("Bignum::DivMod: division by zero");
  }
  if (Cmp(a, b) < 0) {
    if (q != nullptr) {
      *q = Bignum();
    }
    if (r != nullptr) {
      *r = a;
    }
    return;
  }
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t d = b.limbs_[0];
    Bignum quo;
    quo.limbs_.resize(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quo.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    quo.Normalize();
    if (q != nullptr) {
      *q = std::move(quo);
    }
    if (r != nullptr) {
      *r = Bignum(rem);
    }
    return;
  }

  // Normalize so the divisor's top limb has its high bit set.
  size_t shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    shift++;
  }
  Bignum u = Shl(a, shift);
  Bignum v = Shl(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs.

  Bignum quo;
  quo.limbs_.assign(m + 1, 0);

  uint64_t vn1 = v.limbs_[n - 1];
  uint64_t vn2 = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t num = (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = num / vn1;
    uint64_t rhat = num % vn1;
    while (qhat >= kBase || qhat * vn2 > ((rhat << 32) | u.limbs_[j + n - 2])) {
      qhat--;
      rhat += vn1;
      if (rhat >= kBase) {
        break;
      }
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; i++) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) - static_cast<int64_t>(p & 0xffffffffu) - borrow;
      // t >= -2^32, so its low 32 bits are t mod 2^32 and its sign is the
      // borrow. No branch: on a different operand every call it would
      // mispredict about half the time.
      borrow = static_cast<int64_t>(static_cast<uint64_t>(t) >> 63);
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) - static_cast<int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      qhat--;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; i++) {
        uint64_t s = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        carry2 = s >> 32;
      }
      t += static_cast<int64_t>(carry2);
    }
    u.limbs_[j + n] = static_cast<uint32_t>(t);
    quo.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  quo.Normalize();
  if (q != nullptr) {
    *q = std::move(quo);
  }
  if (r != nullptr) {
    u.limbs_.resize(n);
    u.Normalize();
    *r = Shr(u, shift);
  }
}

Bignum Bignum::Mod(const Bignum& a, const Bignum& m) {
  Bignum r;
  DivMod(a, m, nullptr, &r);
  return r;
}

Bignum Bignum::MulMod(const Bignum& a, const Bignum& b, const Bignum& m) {
  return Mod(Mul(a, b), m);
}

namespace {

using u128 = unsigned __int128;

template <size_t N>
using Limbs = std::array<uint64_t, N>;

// out = t - m if t >= m, else t, for t < 2m given as N limbs plus a top
// carry bit. Both candidates are computed and one is selected by mask.
template <size_t N>
inline void ReduceOnce(Limbs<N>& out, const uint64_t* t, uint64_t carry, const uint64_t* m) {
  uint64_t d[N] = {};
  uint64_t borrow = 0;
  for (size_t j = 0; j < N; j++) {
    u128 diff = static_cast<u128>(t[j]) - m[j] - borrow;
    d[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  // t < m exactly when there is no carry and the subtraction borrowed.
  const uint64_t keep_t = 0 - (borrow & ~carry);
  for (size_t j = 0; j < N; j++) {
    out[j] = (t[j] & keep_t) | (d[j] & ~keep_t);
  }
}

// a * b + c + d, as the returned low word and *hi. Written with 64-bit
// adds and compares rather than 128-bit adds, which GCC compiles to
// tighter carry chains in the reduction loop: whole Montgomery products
// ran 13-20% faster from 12 limbs up on x86-64 (no change at 6 limbs).
inline uint64_t MulAdd(uint64_t a, uint64_t b, uint64_t c, uint64_t d, uint64_t* hi) {
  const u128 p = static_cast<u128>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p);
  uint64_t h = static_cast<uint64_t>(p >> 64);
  lo += c;
  h += lo < c;
  lo += d;
  h += lo < d;
  *hi = h;
  return lo;
}

// Montgomery reduction: out = t * R^-1 mod m for a 2N-limb t < m * R.
// Each round adds the multiple of m that clears limb i of t.
template <size_t N>
inline void Redc(Limbs<N>& out, uint64_t* t, const uint64_t* m, uint64_t minv) {
  uint64_t top = 0;  // Carry out of limb i + N from earlier rounds.
  for (size_t i = 0; i < N; i++) {
    const uint64_t u = t[i] * minv;
    uint64_t carry = 0;
    for (size_t j = 0; j < N; j++) {
      t[i + j] = MulAdd(u, m[j], t[i + j], carry, &carry);
    }
    const uint64_t s = t[i + N] + carry;
    const uint64_t s_carry = s < carry;
    t[i + N] = s + top;
    top = s_carry + (t[i + N] < top);
  }
  ReduceOnce<N>(out, t + N, top, m);
}

// Montgomery product out = a * b * R^-1 mod m for a, b < m: a schoolbook
// product followed by Redc (separated operand scanning, so squaring can
// share the reduction). out may alias a or b.
template <size_t N>
inline void MontMul(Limbs<N>& out, const Limbs<N>& a, const Limbs<N>& b, const uint64_t* m,
                    uint64_t minv) {
  uint64_t t[2 * N] = {};
  for (size_t i = 0; i < N; i++) {
    uint64_t carry = 0;
    for (size_t j = 0; j < N; j++) {
      u128 p = static_cast<u128>(a[i]) * b[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(p);
      carry = static_cast<uint64_t>(p >> 64);
    }
    t[i + N] = carry;
  }
  Redc<N>(out, t, m, minv);
}

// out = a * a * R^-1 mod m: each cross product a[i] * a[j] (i < j) is
// computed once and doubled, about half the multiplies of MontMul's
// product. out may alias a.
template <size_t N>
inline void MontSqr(Limbs<N>& out, const Limbs<N>& a, const uint64_t* m, uint64_t minv) {
  uint64_t t[2 * N] = {};
  for (size_t i = 0; i + 1 < N; i++) {
    uint64_t carry = 0;
    for (size_t j = i + 1; j < N; j++) {
      u128 p = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(p);
      carry = static_cast<uint64_t>(p >> 64);
    }
    t[i + N] = carry;
  }
  // t = 2 * t + sum of a[i]^2 * 2^(128 i), two limbs at a time.
  uint64_t shifted_out = 0;
  uint64_t carry = 0;
  for (size_t i = 0; i < N; i++) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    const uint64_t lo = t[2 * i];
    const uint64_t hi = t[2 * i + 1];
    u128 s = static_cast<u128>((lo << 1) | shifted_out) + static_cast<uint64_t>(sq) + carry;
    t[2 * i] = static_cast<uint64_t>(s);
    s = static_cast<u128>((hi << 1) | (lo >> 63)) + static_cast<uint64_t>(sq >> 64) +
        static_cast<uint64_t>(s >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
    shifted_out = hi >> 63;
  }
  Redc<N>(out, t, m, minv);
}

// ORs a's 32-bit limbs, as 64-bit limbs, into a zeroed out[].
void ToLimbs64(const Bignum& a, uint64_t* out) {
  const auto& l = a.limbs();
  for (size_t i = 0; i < l.size(); i++) {
    out[i / 2] |= static_cast<uint64_t>(l[i]) << (32 * (i % 2));
  }
}

// Bits [4w, 4w + 4) of exp. Windows never straddle a 32-bit limb.
uint32_t Window(const Bignum& exp, size_t w) {
  const auto& l = exp.limbs();
  const size_t bit = 4 * w;
  return bit / 32 < l.size() ? (l[bit / 32] >> (bit % 32)) & 0xf : 0;
}

// Exponents up to this length skip the window table (e = 65537 needs 17
// multiplies by square-and-multiply against 14 just to build the table).
constexpr size_t kShortExpBits = 64;

// (b ^ exp) mod m, given b in Montgomery form (bR mod m) and exp > 0.
template <size_t N>
Bignum PowModN(const uint64_t* m, uint64_t minv, const Bignum& b_mont, const Bignum& exp) {
  Limbs<N> b{};
  ToLimbs64(b_mont, b.data());
  const size_t bits = exp.BitLength();
  Limbs<N> acc = b;
  if (bits <= kShortExpBits) {
    for (size_t i = bits - 1; i-- > 0;) {
      MontSqr<N>(acc, acc, m, minv);
      if (exp.Bit(i)) {
        MontMul<N>(acc, acc, b, m, minv);
      }
    }
  } else {
    // 4-bit fixed window: b^1..b^15 once, then per window four squarings
    // plus at most one table multiply. The top window is never zero.
    Limbs<N> table[16];
    table[1] = b;
    for (int i = 2; i < 16; i++) {
      MontMul<N>(table[i], table[i - 1], b, m, minv);
    }
    size_t w = (bits + 3) / 4 - 1;
    acc = table[Window(exp, w)];
    while (w-- > 0) {
      for (int i = 0; i < 4; i++) {
        MontSqr<N>(acc, acc, m, minv);
      }
      if (const uint32_t win = Window(exp, w); win != 0) {
        MontMul<N>(acc, acc, table[win], m, minv);
      }
    }
  }
  // One reduction of aR leaves a.
  uint64_t t[2 * N] = {};
  std::copy(acc.begin(), acc.end(), t);
  Redc<N>(acc, t, m, minv);
  std::vector<uint32_t> out(2 * N);
  for (size_t i = 0; i < N; i++) {
    out[2 * i] = static_cast<uint32_t>(acc[i]);
    out[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
  }
  return Bignum::FromLimbs(std::move(out));
}

using PowModFn = Bignum (*)(const uint64_t*, uint64_t, const Bignum&, const Bignum&);

// One kernel per limb count, indexed by N - 1.
template <size_t... I>
constexpr std::array<PowModFn, sizeof...(I)> MakeKernels(std::index_sequence<I...>) {
  return {&PowModN<I + 1>...};
}

constexpr auto kKernels = MakeKernels(std::make_index_sequence<Montgomery::kMaxLimbs>());

}  // namespace

bool Montgomery::Supports(const Bignum& m) {
  return m.IsOdd() && m.BitLength() >= 2 && m.BitLength() <= 64 * kMaxLimbs;
}

Montgomery::Montgomery(const Bignum& m) : modulus_(m) {
  if (!Supports(m)) {
    throw std::invalid_argument("Montgomery: modulus must be odd, > 1 and at most 2048 bits");
  }
  n_ = (m.BitLength() + 63) / 64;
  ToLimbs64(m, m_.data());
  // -m^{-1} mod 2^64 by Newton iteration: m0 is its own inverse mod 2^3,
  // and each step doubles the number of correct low bits (3 -> 96).
  const uint64_t m0 = m_[0];
  uint64_t inv = m0;
  for (int i = 0; i < 5; i++) {
    inv *= 2 - m0 * inv;
  }
  minv_ = 0 - inv;
}

Bignum Montgomery::PowMod(const Bignum& base, const Bignum& exp) const {
  if (exp.IsZero()) {
    return Bignum(1);  // m > 1.
  }
  // One long division enters the Montgomery domain (bR mod m) and
  // reduces the base in the same step, with no R^2 mod m to precompute.
  const Bignum b_mont = Bignum::Mod(Bignum::Shl(base, 64 * n_), modulus_);
  return kKernels[n_ - 1](m_.data(), minv_, b_mont, exp);
}

Bignum Bignum::PowMod(const Bignum& base, const Bignum& exp, const Bignum& m) {
  if (m.IsZero()) {
    throw std::invalid_argument("Bignum::PowMod: zero modulus");
  }
  if (Montgomery::Supports(m)) {
    // Montgomery fast path (all RSA moduli are odd).
    return Montgomery(m).PowMod(base, exp);
  }

  // Generic path: square-and-multiply with division-based reduction.
  size_t bits = exp.BitLength();
  Bignum result = Mod(Bignum(1), m);
  Bignum b = Mod(base, m);
  for (size_t i = bits; i-- > 0;) {
    result = MulMod(result, result, m);
    if (exp.Bit(i)) {
      result = MulMod(result, b, m);
    }
  }
  return result;
}

Bignum Bignum::Gcd(Bignum a, Bignum b) {
  while (!b.IsZero()) {
    Bignum r = Mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Bignum Bignum::InvMod(const Bignum& a, const Bignum& m) {
  // Extended Euclid without negative numbers: track coefficients of m
  // using the identity inv = m - t when t would be negative.
  // Standard iterative version over signed pairs, emulated with a sign flag.
  Bignum r0 = m, r1 = Mod(a, m);
  Bignum t0(0), t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.IsZero()) {
    Bignum q;
    Bignum r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 (signed arithmetic via flags).
    Bignum qt1 = Mul(q, t1);
    Bignum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Cmp(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (Cmp(r0, Bignum(1)) != 0) {
    throw std::invalid_argument("Bignum::InvMod: not invertible");
  }
  Bignum inv = Mod(t0, m);
  if (t0_neg && !inv.IsZero()) {
    inv = Sub(m, inv);
  }
  return inv;
}

Bignum Bignum::FromLimbs(std::vector<uint32_t> limbs) {
  Bignum out;
  out.limbs_ = std::move(limbs);
  out.Normalize();
  return out;
}

Bignum Bignum::RandomWithBits(Prng& rng, size_t bits) {
  if (bits == 0) {
    return Bignum();
  }
  Bignum out;
  out.limbs_.resize((bits + 31) / 32, 0);
  for (auto& l : out.limbs_) {
    l = static_cast<uint32_t>(rng.Next());
  }
  size_t top_bit = (bits - 1) % 32;
  uint32_t mask = (top_bit == 31) ? 0xffffffffu : ((1u << (top_bit + 1)) - 1);
  out.limbs_.back() &= mask;
  out.limbs_.back() |= 1u << top_bit;  // Force exact bit length.
  out.Normalize();
  return out;
}

Bignum Bignum::RandomBelow(Prng& rng, const Bignum& limit) {
  size_t bits = limit.BitLength();
  for (;;) {
    Bignum c = RandomWithBits(rng, bits);
    c.limbs_.back() &= 0x7fffffffu;  // Cheap way to get below sometimes.
    c.Normalize();
    if (Cmp(c, Bignum(2)) >= 0 && Cmp(c, limit) < 0) {
      return c;
    }
  }
}

bool Bignum::IsProbablePrime(const Bignum& n, Prng& rng, int rounds) {
  if (Cmp(n, Bignum(2)) < 0) {
    return false;
  }
  if (Cmp(n, Bignum(3)) <= 0) {
    return true;
  }
  if (!n.IsOdd()) {
    return false;
  }
  for (uint32_t p : kSmallPrimes) {
    Bignum bp(p);
    if (Cmp(n, bp) == 0) {
      return true;
    }
    if (Mod(n, bp).IsZero()) {
      return false;
    }
  }
  // Write n-1 = d * 2^s with d odd.
  Bignum n1 = Sub(n, Bignum(1));
  Bignum d = n1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = Shr(d, 1);
    s++;
  }
  for (int round = 0; round < rounds; round++) {
    Bignum a = RandomBelow(rng, n1);
    Bignum x = PowMod(a, d, n);
    if (Cmp(x, Bignum(1)) == 0 || Cmp(x, n1) == 0) {
      continue;
    }
    bool witness = true;
    for (size_t i = 1; i < s; i++) {
      x = MulMod(x, x, n);
      if (Cmp(x, n1) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

Bignum Bignum::GeneratePrime(Prng& rng, size_t bits) {
  for (;;) {
    Bignum c = RandomWithBits(rng, bits);
    if (!c.IsOdd()) {
      c = Add(c, Bignum(1));
    }
    if (IsProbablePrime(c, rng)) {
      return c;
    }
  }
}

}  // namespace avm
