// The audit engine (§4.5): one chunked check-and-replay loop behind
// every full audit, spot check and checkpointed audit.
//
// An audit is one procedure: check the hash chain and the
// authenticators, check the message stream, then replay. Two pieces:
//
//  * ChunkedSyntacticChecker: the whole-segment syntactic check as an
//    incremental consumer of entry runs. It records every failure
//    category separately (chain rule, authenticator, message stream,
//    attested input) and Finalize() assembles them in exactly the
//    priority order of the sequential composition
//    VerifyAgainstAuthenticators -> SyntacticMessageCheck ->
//    VerifyAttestedInputs, so the reported verdict — reason and seq —
//    is bit-for-bit the sequential one even though the scan interleaves
//    the checks per chunk.
//
//  * RunAudit: reads the audited range in one SegmentSource::Scan,
//    cuts it into chunks, feeds each chunk to the checker and then to a
//    StreamingReplayer — inline, or on a pool worker while the next
//    chunk is read and checked (AuditConfig::pipelined) — and assembles
//    the verdict and evidence once. Verdicts do not depend on the thread
//    count, the chunk size or the pipelining.
#ifndef SRC_AUDIT_PIPELINE_H_
#define SRC_AUDIT_PIPELINE_H_

#include <functional>
#include <map>
#include <optional>
#include <span>

#include "src/audit/auditor.h"
#include "src/audit/message_check.h"
#include "src/avmm/attested_input.h"

namespace avm {

class ChunkedSyntacticChecker {
 public:
  // `auths` must outlive the checker. `first_seq`/`last_seq` bound the
  // authenticator coverage exactly as VerifyAgainstAuthenticators does
  // with the materialized segment; `prior_hash` is the segment's prior
  // chain hash (Zero for a log audited from its head).
  // `auth_sig_verdicts`, when nonempty, is indexed like `auths`:
  // -1 = verify the RSA signature inline when the seq streams by,
  // 0/1 = precomputed invalid/valid (so a caller that already verified
  // a signature — e.g. RunAudit's replay gate — does not pay for it
  // twice). Precomputed values must equal what VerifySignature would
  // return; verdicts are then identical.
  ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq, uint64_t last_seq,
                          const Hash256& prior_hash, std::span<const Authenticator> auths,
                          const KeyRegistry& registry, const AuditConfig& cfg,
                          std::span<const int8_t> auth_sig_verdicts = {});

  // Consumes the next run of entries (in log order, continuing the
  // previous runs). `smc_verdicts`, when nonempty, is indexed like
  // `entries` and carries PrecomputeMessageSigVerdicts results for the
  // message-stream scan (-1 = verify inline).
  void Feed(std::span<const LogEntry> entries, std::span<const int8_t> smc_verdicts = {});

  // True if any failure has been recorded; the final outcome will be a
  // syntactic failure, so replay work can be skipped (its result would
  // be discarded).
  bool AnyFailure() const;

  // The verdict of the sequential syntactic composition over everything
  // fed so far.
  CheckResult Finalize() const;

  // ---- Checkpoint support (src/audit/checkpoint.h) ----
  // Chain hash of the last entry fed (h_S): what a checkpoint records
  // as its verified watermark.
  const Hash256& chain_cursor() const { return prior_hash_; }
  // Chain hash at every authenticator seq fed so far (plus those a
  // restore seeded): lets a resumed audit check authenticators behind
  // its watermark without reading the prefix again.
  const std::map<uint64_t, Hash256>& auth_hashes() const { return auth_hashes_; }

  // Serializes the streaming scan state (message-stream state machine +
  // attested-input cursor) after feeding entries 1..S; failure slots are
  // intentionally not captured — checkpoints are only taken from
  // fully-verified states (AnyFailure() must be false).
  void SerializeResumableState(Writer& w) const;
  // Restores into a freshly constructed checker whose ctor received the
  // checkpoint's chain hash as `prior_hash`. The checker then behaves
  // as if entries 1..`watermark_seq` (already verified when the
  // checkpoint was written) had been fed: every covered authenticator
  // at or behind the watermark is checked against `auth_hashes` (which
  // must hold its seq), recorded under the same span index, so the
  // composed verdict is bit-for-bit the from-genesis one. Throws
  // SerdeError on malformed input.
  void RestoreResumableState(Reader& r, uint64_t watermark_seq,
                             const std::map<uint64_t, Hash256>& auth_hashes);

 private:
  const AuditConfig cfg_;
  const KeyRegistry& registry_;
  std::span<const Authenticator> auths_;
  std::span<const int8_t> auth_sig_verdicts_;
  Hash256 prior_hash_;   // Expected prior hash of the next entry.
  uint64_t expect_seq_ = 0;
  bool started_ = false;
  uint64_t fed_ = 0;

  // seq -> indices into auths_, in span order (the order the sequential
  // scan reports authenticator failures in).
  std::multimap<uint64_t, size_t> auth_by_seq_;
  bool any_auth_relevant_ = false;
  std::map<uint64_t, Hash256> auth_hashes_;

  // Shared sig + hash check for one authenticator, whether its seq
  // streamed by (Feed) or was resolved behind a resume watermark.
  void CheckAuthAt(size_t auth_index, const Hash256& log_hash);

  CheckResult chain_fail_;     // First chain-rule/seq failure, entry order.
  size_t auth_fail_idx_;       // Smallest failing authenticator span index.
  CheckResult auth_fail_;
  CheckResult smc_fail_;       // First message-stream failure, entry order.
  CheckResult attested_fail_;  // First attested-input failure, entry order.

  MessageCheckState smc_;
  std::optional<AttestedInputScanner> attested_;
};

// Where a checkpointed full audit resumes: entries 1..watermark were
// verified and replayed by the audit that wrote the checkpoint.
struct AuditResume {
  uint64_t watermark = 0;
  Hash256 chain_hash;         // h_watermark.
  MaterializedState machine;  // Replayed machine state at the watermark.
  Bytes scan_state;           // ChunkedSyntacticChecker::SerializeResumableState.
  std::map<uint64_t, Hash256> auth_hashes;  // Must cover every auth seq <= watermark.
};

// Called at a capture point with checker and replayer both at `seq`,
// fully verified and replay-quiescent; returns true once a checkpoint
// was persisted there.
using AuditCapture =
    std::function<bool(uint64_t seq, const ChunkedSyntacticChecker&, const StreamingReplayer&)>;

// What one RunAudit covers.
struct AuditScope {
  // A full audit (window_start == nullptr) covers the whole log
  // [1, LastSeq()] from `reference_image`, cross-references the message
  // stream strictly, and treats a signed authenticator past the end of
  // the log as a rewind (§4.3). A window (spot check, §3.5) covers
  // [from_seq, to_seq] from the verified `window_start` and
  // cross-references relaxed, since it can begin mid-queue.
  ByteView reference_image;
  const MaterializedState* window_start = nullptr;
  uint64_t from_seq = 1;
  uint64_t to_seq = 0;
  // Checkpoints (full audits only): resume after `resume->watermark`,
  // and call `capture` at every multiple of `capture_every` (chunks end
  // there). Neither changes a verdict.
  const AuditResume* resume = nullptr;
  uint64_t capture_every = 0;
  AuditCapture capture;
  // When set, receives the number of entries read past the resume point.
  uint64_t* entries_scanned = nullptr;
};

// The audit engine. Checks every authenticator signature up front (the
// replay gate: a log no covering authenticator vouches for is never
// replayed), then reads the range once, chunk by chunk
// (cfg.pipeline_chunk_entries): each chunk goes through the checker and
// then through the replayer — on a pool worker when `pool` is set and
// cfg.pipelined, overlapping the next chunk's read and checks. A store
// that cannot be read yields "log source unreadable" without evidence;
// a syntactic failure yields kProtocolViolation evidence and a replay
// divergence kReplayDivergence evidence, each over the whole range.
AuditOutcome RunAudit(const Avmm& target, const SegmentSource& source,
                      std::span<const Authenticator> auths, const AuditScope& scope,
                      const KeyRegistry& registry, AuditConfig cfg, ThreadPool* pool);

}  // namespace avm

#endif  // SRC_AUDIT_PIPELINE_H_
