// Online auditing (§6.11): incrementally replay another machine's log
// while its execution is still in progress, so cheating is detected as
// soon as the externally visible behavior diverges.
#ifndef SRC_AUDIT_ONLINE_H_
#define SRC_AUDIT_ONLINE_H_

#include <optional>

#include "src/audit/replayer.h"
#include "src/tel/log.h"
#include "src/tel/segment_source.h"

namespace avm {

// What the most recent Poll() observed about the followed log.
enum class OnlinePollStatus {
  kIdle,           // Nothing new since the last poll.
  kAdvanced,       // New entries were replayed (result still cumulative).
  kDiverged,       // Replay diverged; final (§6.11: a divergence is final).
  kTargetRewound,  // The target log *shrank* below the consumed prefix.
};

class OnlineAuditor {
 public:
  // Follows `target_log` (the auditee's live log), replaying from the
  // reference image. The log object outlives the auditor and grows
  // between Poll() calls; in-process this models streaming log transfer.
  OnlineAuditor(const TamperEvidentLog* target_log, ByteView reference_image, size_t mem_size)
      : log_(target_log),
        mem_source_(InMemorySegmentSource(*target_log)),
        source_(&*mem_source_),
        replayer_(reference_image, mem_size) {}

  // Follows any segment source — in particular a store::LogStore, so an
  // online audit can trail a log that is being spilled to disk (and a
  // fleet service can poll many auditees without touching their heaps).
  OnlineAuditor(const SegmentSource* source, ByteView reference_image, size_t mem_size)
      : source_(source), replayer_(reference_image, mem_size) {}

  // source_ points into this object's own mem_source_ on the in-memory
  // path, so a memberwise copy/move would dangle.
  OnlineAuditor(const OnlineAuditor&) = delete;
  OnlineAuditor& operator=(const OnlineAuditor&) = delete;

  // Replays all entries appended since the last poll. Returns the
  // cumulative replay status; a divergence is final.
  //
  // If the target log has *shrunk* below the already-consumed prefix
  // (legitimately reachable: the auditee crashed and LogStore::Open
  // truncated a torn tail, or restarted with a fresh log), continuing
  // would silently replay a history that no longer matches what the
  // auditor consumed. The rewind is surfaced as kTargetRewound — sticky,
  // like a divergence, but distinct: it is not proof of cheating, it
  // means this online session cannot make progress and the caller must
  // restart the audit (from genesis or a checkpoint).
  ReplayResult Poll() {
    if (status_ == OnlinePollStatus::kTargetRewound) {
      return replayer_.result();
    }
    uint64_t last = source_->LastSeq();
    if (last + 1 < next_seq_) {
      status_ = OnlinePollStatus::kTargetRewound;
      return replayer_.result();
    }
    if (next_seq_ > last) {
      if (status_ != OnlinePollStatus::kDiverged) {
        status_ = OnlinePollStatus::kIdle;
      }
      return replayer_.result();
    }
    ReplayResult r;
    if (log_ != nullptr) {
      // In-memory fast path: feed the live entries directly (zero-copy;
      // this poll sits on the frame-rate-sensitive game loop in §6.11).
      std::span<const LogEntry> all(log_->entries());
      r = replayer_.Feed(all.subspan(next_seq_ - 1, last - next_seq_ + 1));
    } else {
      LogSegment seg = source_->Extract(next_seq_, last);
      r = replayer_.Feed(seg.entries);
    }
    next_seq_ = last + 1;
    status_ = r.ok ? OnlinePollStatus::kAdvanced : OnlinePollStatus::kDiverged;
    return r;
  }

  OnlinePollStatus status() const { return status_; }
  bool target_rewound() const { return status_ == OnlinePollStatus::kTargetRewound; }

  // Entries appended but not yet audited (the "auditing falls behind the
  // game" metric of §6.11). Saturates at 0 when the target rewound, so a
  // shrunken log cannot underflow the lag into an absurd value.
  uint64_t LagEntries() const {
    uint64_t last = source_->LastSeq();
    return last + 1 >= next_seq_ ? last + 1 - next_seq_ : 0;
  }
  uint64_t consumed_seq() const { return next_seq_ - 1; }
  const StreamingReplayer& replayer() const { return replayer_; }

 private:
  // Set (with mem_source_) only on the in-memory path; enables the
  // zero-copy Feed in Poll().
  const TamperEvidentLog* log_ = nullptr;
  // Owns the wrapper when constructed from a bare TamperEvidentLog.
  std::optional<InMemorySegmentSource> mem_source_;
  const SegmentSource* source_;
  StreamingReplayer replayer_;
  uint64_t next_seq_ = 1;
  OnlinePollStatus status_ = OnlinePollStatus::kIdle;
};

}  // namespace avm

#endif  // SRC_AUDIT_ONLINE_H_
