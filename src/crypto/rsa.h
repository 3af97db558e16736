// RSA signatures (PKCS#1 v1.5-style padding with SHA-256), from scratch.
// The paper evaluates with 768-bit keys ("safe for gaming purposes"); key
// size is a parameter here so benches can sweep it.
#ifndef SRC_CRYPTO_RSA_H_
#define SRC_CRYPTO_RSA_H_

#include "src/crypto/bignum.h"
#include "src/crypto/sha256.h"
#include "src/util/bytes.h"
#include "src/util/prng.h"

namespace avm {

struct RsaPublicKey {
  Bignum n;
  Bignum e;

  // Modulus size in bytes (== signature size).
  size_t ByteLength() const { return (n.BitLength() + 7) / 8; }

  Bytes Serialize() const;
  static RsaPublicKey Deserialize(ByteView data);

  // Stable identity for key registries.
  Hash256 Fingerprint() const;
};

struct RsaPrivateKey {
  Bignum n;
  Bignum e;
  Bignum d;
  // CRT components for ~4x faster signing.
  Bignum p, q, dp, dq, qinv;

  RsaPublicKey PublicPart() const;
};

struct RsaKeypair {
  RsaPublicKey pub;
  RsaPrivateKey priv;

  // Generates an RSA keypair with an n of exactly `bits` bits. Deterministic
  // given the PRNG state (useful for reproducible scenarios).
  static RsaKeypair Generate(Prng& rng, size_t bits);
};

// Signs SHA-256(msg) with PKCS#1 v1.5-style padding. Returns the signature
// as a big-endian byte string of the modulus length.
Bytes RsaSign(const RsaPrivateKey& key, ByteView msg);
// Same, over an already-computed SHA-256 digest: lets hot paths stream
// the signed fields through one incremental hasher instead of
// materializing a payload buffer. RsaSign(key, msg) ==
// RsaSignDigest(key, Sha256::Digest(msg)) bit-for-bit.
Bytes RsaSignDigest(const RsaPrivateKey& key, const Hash256& digest);

// Verifies an RSA signature over msg. Never throws on malformed input;
// returns false instead (signatures arrive from untrusted machines).
bool RsaVerify(const RsaPublicKey& key, ByteView msg, ByteView sig);
bool RsaVerifyDigest(const RsaPublicKey& key, const Hash256& digest, ByteView sig);

}  // namespace avm

#endif  // SRC_CRYPTO_RSA_H_
