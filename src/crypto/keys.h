// Key management and the signing abstraction used by the AVMM.
//
// The paper's evaluation sweeps a configuration axis avmm-nosig vs
// avmm-rsa768; SignatureScheme reproduces that axis (plus RSA-2048 for the
// "stronger keys" discussion in §6.2).
#ifndef SRC_CRYPTO_KEYS_H_
#define SRC_CRYPTO_KEYS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/crypto/rsa.h"
#include "src/util/bytes.h"
#include "src/util/prng.h"

namespace avm {

// A party in the protocol (player, server, auditor). Names are unique
// within a scenario; assumption 3 of §4.1 says each party has a certified
// keypair, which KeyRegistry models.
using NodeId = std::string;

enum class SignatureScheme {
  kNone,     // avmm-nosig: authenticators carry no signature.
  kRsa768,   // avmm-rsa768: the paper's evaluated configuration.
  kRsa2048,  // stronger keys, for the overhead sweep.
};

const char* SignatureSchemeName(SignatureScheme s);
size_t SignatureSchemeBits(SignatureScheme s);

// Signs and verifies on behalf of one node. kNone produces empty
// signatures that verify trivially (used to isolate crypto cost in benches;
// it provides no non-repudiation and the benches/docs say so).
class Signer {
 public:
  Signer(NodeId id, SignatureScheme scheme, Prng& rng);

  const NodeId& id() const { return id_; }
  SignatureScheme scheme() const { return scheme_; }
  const std::optional<RsaPublicKey>& public_key() const { return pub_; }

  Bytes Sign(ByteView msg) const;
  // Signs an already-computed SHA-256 digest; identical output to
  // Sign(msg) when digest == Sha256::Digest(msg). Lets hot paths stream
  // the payload through one incremental hasher. Thread-safe: the key is
  // immutable and signing keeps its state on the stack, so the async
  // signing pipeline may call this concurrently with the owning thread.
  Bytes SignDigest(const Hash256& digest) const;

  // Serialized public identity (scheme + key) for the registry.
  Bytes SerializePublic() const;

 private:
  NodeId id_;
  SignatureScheme scheme_;
  std::optional<RsaPrivateKey> priv_;
  std::optional<RsaPublicKey> pub_;
};

// Maps node ids to public keys. Auditors and third parties verify
// signatures against this registry (assumption: certificates cannot be
// forged, so the registry is trusted input).
class KeyRegistry {
 public:
  void Register(const NodeId& id, SignatureScheme scheme, ByteView serialized_public);
  void RegisterSigner(const Signer& signer);

  bool Verify(const NodeId& id, ByteView msg, ByteView sig) const;
  bool VerifyDigest(const NodeId& id, const Hash256& digest, ByteView sig) const;
  bool Knows(const NodeId& id) const;
  SignatureScheme SchemeOf(const NodeId& id) const;
  // True when `id` is registered with a scheme that produces real
  // signatures (i.e. an empty signature cannot verify).
  bool RequiresSignature(const NodeId& id) const;

 private:
  struct Entry {
    SignatureScheme scheme;
    std::optional<RsaPublicKey> pub;
  };
  std::map<NodeId, Entry> entries_;
};

}  // namespace avm

#endif  // SRC_CRYPTO_KEYS_H_
