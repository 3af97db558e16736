#include "src/crypto/rsa.h"

#include <stdexcept>

#include "src/util/serde.h"

namespace avm {

namespace {

// DER prefix of the SHA-256 DigestInfo structure (RFC 8017, §9.2 note 1).
constexpr uint8_t kSha256DigestInfo[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
                                         0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into emLen bytes.
Bytes EncodeDigest(const Hash256& digest, size_t em_len) {
  size_t t_len = sizeof(kSha256DigestInfo) + 32;
  if (em_len < t_len + 11) {
    throw std::invalid_argument("RSA modulus too small for SHA-256 padding");
  }
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  for (size_t i = 0; i < sizeof(kSha256DigestInfo); i++) {
    em[em_len - t_len + i] = kSha256DigestInfo[i];
  }
  for (size_t i = 0; i < 32; i++) {
    em[em_len - 32 + i] = digest.v[i];
  }
  return em;
}

}  // namespace

RsaPublicKey RsaPrivateKey::PublicPart() const {
  return RsaPublicKey{n, e};
}

Bytes RsaPublicKey::Serialize() const {
  Writer w;
  w.Blob(n.ToBytes());
  w.Blob(e.ToBytes());
  return w.Take();
}

RsaPublicKey RsaPublicKey::Deserialize(ByteView data) {
  Reader r(data);
  RsaPublicKey key;
  key.n = Bignum::FromBytes(r.Blob());
  key.e = Bignum::FromBytes(r.Blob());
  r.ExpectEnd();
  return key;
}

Hash256 RsaPublicKey::Fingerprint() const {
  return Sha256::Digest(Serialize());
}

RsaKeypair RsaKeypair::Generate(Prng& rng, size_t bits) {
  if (bits < 128 || bits % 2 != 0) {
    throw std::invalid_argument("RsaKeypair::Generate: bits must be even and >= 128");
  }
  const Bignum e(65537);
  for (;;) {
    Bignum p = Bignum::GeneratePrime(rng, bits / 2);
    Bignum q = Bignum::GeneratePrime(rng, bits / 2);
    if (p == q) {
      continue;
    }
    if (Bignum::Cmp(p, q) < 0) {
      std::swap(p, q);
    }
    Bignum n = Bignum::Mul(p, q);
    if (n.BitLength() != bits) {
      continue;
    }
    Bignum p1 = Bignum::Sub(p, Bignum(1));
    Bignum q1 = Bignum::Sub(q, Bignum(1));
    Bignum phi = Bignum::Mul(p1, q1);
    if (Bignum::Cmp(Bignum::Gcd(e, phi), Bignum(1)) != 0) {
      continue;
    }
    Bignum d = Bignum::InvMod(e, phi);

    RsaKeypair kp;
    kp.priv.n = n;
    kp.priv.e = e;
    kp.priv.d = d;
    kp.priv.p = p;
    kp.priv.q = q;
    kp.priv.dp = Bignum::Mod(d, p1);
    kp.priv.dq = Bignum::Mod(d, q1);
    kp.priv.qinv = Bignum::InvMod(q, p);
    kp.pub = kp.priv.PublicPart();
    return kp;
  }
}

Bytes RsaSignDigest(const RsaPrivateKey& key, const Hash256& digest) {
  size_t k = (key.n.BitLength() + 7) / 8;
  Bytes em = EncodeDigest(digest, k);
  Bignum m = Bignum::FromBytes(em);
  // CRT: m1 = m^dp mod p, m2 = m^dq mod q, h = qinv (m1 - m2) mod p.
  Bignum m1 = Bignum::PowMod(m, key.dp, key.p);
  Bignum m2 = Bignum::PowMod(m, key.dq, key.q);
  Bignum diff;
  if (Bignum::Cmp(m1, m2) >= 0) {
    diff = Bignum::Sub(m1, m2);
  } else {
    diff = Bignum::Sub(Bignum::Add(m1, key.p), Bignum::Mod(m2, key.p));
  }
  Bignum h = Bignum::MulMod(diff, key.qinv, key.p);
  Bignum s = Bignum::Add(m2, Bignum::Mul(h, key.q));
  return s.ToBytes(k);
}

Bytes RsaSign(const RsaPrivateKey& key, ByteView msg) {
  return RsaSignDigest(key, Sha256::Digest(msg));
}

bool RsaVerifyDigest(const RsaPublicKey& key, const Hash256& digest, ByteView sig) {
  size_t k = (key.n.BitLength() + 7) / 8;
  if (sig.size() != k) {
    return false;
  }
  Bignum s = Bignum::FromBytes(sig);
  if (Bignum::Cmp(s, key.n) >= 0) {
    return false;
  }
  Bignum m = Bignum::PowMod(s, key.e, key.n);
  Bytes em;
  try {
    em = m.ToBytes(k);
  } catch (const std::invalid_argument&) {
    return false;
  }
  Bytes expected;
  try {
    expected = EncodeDigest(digest, k);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return BytesEqual(em, expected);
}

bool RsaVerify(const RsaPublicKey& key, ByteView msg, ByteView sig) {
  return RsaVerifyDigest(key, Sha256::Digest(msg), sig);
}

}  // namespace avm
