#include "src/audit/pipeline.h"

#include <algorithm>
#include <limits>

#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/obs/trace.h"
#include "src/util/threadpool.h"

namespace avm {

ChunkedSyntacticChecker::ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq,
                                                 uint64_t last_seq, const Hash256& prior_hash,
                                                 std::span<const Authenticator> auths,
                                                 const KeyRegistry& registry,
                                                 const AuditConfig& cfg,
                                                 std::span<const int8_t> auth_sig_verdicts)
    : cfg_(cfg),
      registry_(registry),
      auths_(auths),
      auth_sig_verdicts_(auth_sig_verdicts),
      prior_hash_(prior_hash),
      auth_fail_idx_(std::numeric_limits<size_t>::max()),
      smc_(node, registry, cfg.strict_message_crossref) {
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == node && auths[i].seq >= first_seq && auths[i].seq <= last_seq) {
      auth_by_seq_.emplace(auths[i].seq, i);
      any_auth_relevant_ = true;
    }
  }
  if (cfg.attested_input) {
    attested_.emplace(node, registry);
  }
}

bool ChunkedSyntacticChecker::AnyFailure() const {
  return !chain_fail_.ok || !any_auth_relevant_ || !auth_fail_.ok || !smc_fail_.ok ||
         !attested_fail_.ok;
}

void ChunkedSyntacticChecker::Feed(std::span<const LogEntry> entries,
                                   std::span<const int8_t> smc_verdicts) {
  for (size_t i = 0; i < entries.size(); i++) {
    const LogEntry& e = entries[i];
    if (!chain_fail_.ok) {
      return;  // The verdict is fixed; later entries cannot matter.
    }
    fed_++;
    if (!started_) {
      started_ = true;
      expect_seq_ = e.seq;
      // VerifyChain's prechecks, evaluated against the actual first entry.
      if (e.seq == 0) {
        chain_fail_ = CheckResult::Fail("sequence numbers are 1-based", 0);
        return;
      }
      if (e.seq == 1 && !prior_hash_.IsZero()) {
        chain_fail_ = CheckResult::Fail("segment starts at seq 1 but prior hash is nonzero", 1);
        return;
      }
    }
    // The chain rule, link by link (shared with VerifyChain).
    CheckResult link = CheckChainLink(prior_hash_, expect_seq_, e);
    if (!link.ok) {
      chain_fail_ = link;
      return;
    }
    prior_hash_ = e.hash;
    expect_seq_++;

    // Authenticators whose seq just streamed by. Failures are recorded
    // under the authenticator's *span index*: the sequential scan
    // reports the first failing authenticator in span order, not in
    // seq order.
    auto [first, end] = auth_by_seq_.equal_range(e.seq);
    if (first != end) {
      auth_hashes_[e.seq] = e.hash;
    }
    for (auto it = first; it != end; ++it) {
      CheckAuthAt(it->second, e.hash);
    }

    // The message-stream state machine; stops at its first failure (the
    // sequential scan never feeds past it). An authenticator failure
    // outranks anything these scans could report, so once one is
    // recorded their (RSA-heavy) work is moot and skipped — only the
    // chain hashing above still matters for the final verdict.
    if (auth_fail_.ok && smc_fail_.ok) {
      CheckResult r = smc_.Feed(e, i < smc_verdicts.size() ? smc_verdicts[i] : int8_t{-1});
      if (!r.ok) {
        smc_fail_ = r;
      }
    }
    if (auth_fail_.ok && smc_fail_.ok && attested_.has_value() && attested_fail_.ok) {
      CheckResult r = attested_->Feed(e);
      if (!r.ok) {
        attested_fail_ = r;
      }
    }
  }
}

void ChunkedSyntacticChecker::CheckAuthAt(size_t auth_index, const Hash256& log_hash) {
  if (auth_index >= auth_fail_idx_) {
    return;  // A smaller span index already failed.
  }
  const Authenticator& a = auths_[auth_index];
  const int8_t pre =
      auth_index < auth_sig_verdicts_.size() ? auth_sig_verdicts_[auth_index] : int8_t{-1};
  const bool sig_ok = pre >= 0 ? pre == 1 : a.VerifySignature(registry_);
  if (!sig_ok) {
    auth_fail_idx_ = auth_index;
    auth_fail_ = CheckResult::Fail("authenticator signature invalid", a.seq);
  } else if (log_hash != a.hash) {
    auth_fail_idx_ = auth_index;
    auth_fail_ =
        CheckResult::Fail("log does not match issued authenticator (tamper or fork)", a.seq);
  }
}

void ChunkedSyntacticChecker::SerializeResumableState(Writer& w) const {
  smc_.SerializeState(w);
  w.U8(attested_.has_value() ? 1 : 0);
  if (attested_.has_value()) {
    attested_->SerializeState(w);
  }
}

void ChunkedSyntacticChecker::RestoreResumableState(
    Reader& r, uint64_t watermark_seq, const std::map<uint64_t, Hash256>& auth_hashes) {
  smc_.RestoreState(r);
  bool has_attested = r.U8() != 0;
  if (has_attested != attested_.has_value()) {
    throw SerdeError("checkpoint attested-input mode does not match the audit config");
  }
  if (attested_.has_value()) {
    attested_->RestoreState(r);
  }
  // Behave as if entries 1..watermark had been fed (they were, by the
  // audit that wrote the checkpoint): the next entry must chain from
  // the ctor's prior_hash at watermark+1, and Finalize() must not
  // mistake a fully-caught-up resume for an empty segment.
  started_ = true;
  expect_seq_ = watermark_seq + 1;
  fed_ = watermark_seq;
  // Authenticators at or behind the watermark never stream by; resolve
  // them against the chain hashes verified when the checkpoint was
  // written, in span order like everything else.
  auth_hashes_ = auth_hashes;
  for (auto it = auth_by_seq_.begin(); it != auth_by_seq_.upper_bound(watermark_seq); ++it) {
    CheckAuthAt(it->second, auth_hashes_.at(it->first));
  }
}

CheckResult ChunkedSyntacticChecker::Finalize() const {
  // Exactly the sequential composition: VerifyChain (prechecks + links),
  // then authenticator coverage + checks, then the message-stream scan
  // and its Finalize, then attested inputs.
  if (fed_ == 0) {
    return CheckResult::Fail("empty segment");
  }
  if (!chain_fail_.ok) {
    return chain_fail_;
  }
  if (!any_auth_relevant_) {
    return CheckResult::Fail("no authenticator covers the segment; cannot establish authenticity");
  }
  if (!auth_fail_.ok) {
    return auth_fail_;
  }
  if (!smc_fail_.ok) {
    return smc_fail_;
  }
  CheckResult fin = smc_.Finalize();
  if (!fin.ok) {
    return fin;
  }
  if (!attested_fail_.ok) {
    return attested_fail_;
  }
  return CheckResult::Ok();
}

namespace {

// A signature-verified authenticator past the end of the served log is
// evidence of a rewind (§4.3): the machine signed a commitment at seq X
// but cannot produce a log containing it. Honest crash recovery never
// looks like this (no authenticator is released above the durability
// watermark). Unverified signatures are skipped: a forged authenticator
// must not frame the auditee. Returns the offending authenticator.
const Authenticator* FindRewindProof(const SegmentSource& source,
                                     std::span<const Authenticator> auths,
                                     const KeyRegistry& registry) {
  const uint64_t served_last = source.LastSeq();
  for (const Authenticator& a : auths) {
    if (a.node == source.node() && a.seq > served_last && a.VerifySignature(registry)) {
      return &a;
    }
  }
  return nullptr;
}

CheckResult RewoundResult(const Authenticator& a, uint64_t served_last) {
  return CheckResult::Fail("log rewound: authenticator commits seq " + std::to_string(a.seq) +
                               " but the served log ends at " + std::to_string(served_last),
                           a.seq);
}

// Joins the audit's in-flight replay task on every exit path: the task
// uses the audit's locals by reference. Replay tasks catch their own
// exceptions, so Wait() does not throw here.
class ReplayJoin {
 public:
  explicit ReplayJoin(ThreadPool* pool) : pool_(pool) {}
  ReplayJoin(const ReplayJoin&) = delete;
  ReplayJoin& operator=(const ReplayJoin&) = delete;
  ~ReplayJoin() { (*this)(); }

  void Started() { in_flight_ = true; }
  void operator()() {
    if (in_flight_) {
      pool_->Wait();
      in_flight_ = false;
    }
  }

 private:
  ThreadPool* pool_;
  bool in_flight_ = false;
};

CheckResult UnreadableResult(const std::string& why) {
  return CheckResult::Fail("log source unreadable: " + why);
}

// Streams [from, to] through `visit` in one Scan. An audit source is
// untrusted input: a corrupt or truncated store (CRC mismatch, torn
// segment, a scan that ends early) yields the unreadable verdict, not
// an exception. Exceptions `visit` throws propagate unchanged.
std::optional<CheckResult> ScanRange(const SegmentSource& source, uint64_t from, uint64_t to,
                                     const std::function<void(const LogEntry&)>& visit) {
  uint64_t next = from;
  std::exception_ptr visit_err;
  try {
    source.Scan(from, to, [&](const LogEntry& e) {
      try {
        visit(e);
      } catch (...) {
        visit_err = std::current_exception();
        return false;
      }
      next++;
      return true;
    });
  } catch (const std::runtime_error& e) {
    return UnreadableResult(e.what());
  }
  if (visit_err != nullptr) {
    std::rethrow_exception(visit_err);
  }
  if (next != to + 1) {
    return UnreadableResult("scan ended before seq " + std::to_string(next));
  }
  return std::nullopt;
}

}  // namespace

CheckResult StreamingSyntacticCheck(const SegmentSource& source,
                                    std::span<const Authenticator> auths,
                                    const KeyRegistry& registry, const AuditConfig& cfg) {
  const uint64_t last = source.LastSeq();
  if (const Authenticator* a = FindRewindProof(source, auths, registry)) {
    return RewoundResult(*a, last);
  }
  if (last == 0) {
    return CheckResult::Fail("empty segment");
  }
  ChunkedSyntacticChecker checker(source.node(), 1, last, Hash256::Zero(), auths, registry, cfg);
  if (auto unreadable = ScanRange(source, 1, last, [&](const LogEntry& e) {
        checker.Feed(std::span<const LogEntry>(&e, 1));
      })) {
    return *unreadable;
  }
  return checker.Finalize();
}

AuditOutcome RunAudit(const Avmm& target, const SegmentSource& source,
                      std::span<const Authenticator> auths, const AuditScope& scope,
                      const KeyRegistry& registry, AuditConfig cfg, ThreadPool* pool) {
  AuditOutcome out;
  const bool full = scope.window_start == nullptr;
  cfg.strict_message_crossref = full;
  const uint64_t from = full ? 1 : scope.from_seq;
  const uint64_t to = full ? source.LastSeq() : scope.to_seq;
  if (full) {
    if (const Authenticator* a = FindRewindProof(source, auths, registry)) {
      out.syntactic = RewoundResult(*a, to);
      Evidence ev;
      ev.kind = EvidenceKind::kProtocolViolation;
      ev.accused = target.id();
      ev.claim = out.syntactic.reason;
      ev.auths.push_back(a->Serialize());
      ev.mem_size = cfg.mem_size;
      out.evidence = std::move(ev);
      return out;
    }
  }
  if (to < from) {
    out.syntactic = CheckResult::Fail("empty segment");
    return out;
  }

  // Replay gate, not a verdict: replay work is only worth starting if
  // every authenticator the verdict can depend on carries a valid
  // signature — otherwise a forged log (which anyone can chain-hash,
  // but only the accused machine can sign) would cost this auditor a
  // replay before the syntactic check rejects it. The verdict itself
  // still comes from the checker, in sequential order; the RSA results
  // are handed to it so no signature is verified twice.
  std::vector<int8_t> auth_sig_verdicts(auths.size(), -1);
  std::vector<size_t> relevant;
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == source.node() && auths[i].seq >= from && auths[i].seq <= to) {
      relevant.push_back(i);
    }
  }
  double syn_seconds = 0;
  {
    obs::Span syn_span(obs::kPhaseAuditSyntactic, "audit");
    obs::Span rsa_span(obs::kPhaseAuditRsaVerify, "audit");
    auto verify = [&](size_t k) {
      auth_sig_verdicts[relevant[k]] = auths[relevant[k]].VerifySignature(registry) ? 1 : 0;
    };
    if (pool != nullptr) {
      pool->ParallelFor(relevant.size(), verify);
    } else {
      for (size_t k = 0; k < relevant.size(); k++) {
        verify(k);
      }
    }
    rsa_span.End();
    syn_seconds += syn_span.End();
  }
  const bool replay_gate =
      !relevant.empty() && std::all_of(relevant.begin(), relevant.end(),
                                       [&](size_t i) { return auth_sig_verdicts[i] == 1; });

  // The checker needs the range's prior hash: zero at the head of the
  // log, the checkpoint's watermark hash on resume, else the stored
  // hash of entry from-1, which the scan below reads first. In-place
  // construction for the replayer: it registers itself as the
  // machine's device backend, so it must never move.
  std::optional<ChunkedSyntacticChecker> checker;
  std::optional<StreamingReplayer> replayer;
  uint64_t scan_from = from;
  if (scope.resume != nullptr) {
    checker.emplace(source.node(), from, to, scope.resume->chain_hash, auths, registry, cfg,
                    auth_sig_verdicts);
    Reader r(scope.resume->scan_state);
    checker->RestoreResumableState(r, scope.resume->watermark, scope.resume->auth_hashes);
    r.ExpectEnd();
    replayer.emplace(scope.resume->machine);
    scan_from = scope.resume->watermark + 1;
  } else {
    if (from == 1) {
      checker.emplace(source.node(), from, to, Hash256::Zero(), auths, registry, cfg,
                      auth_sig_verdicts);
    }
    if (full) {
      replayer.emplace(scope.reference_image, cfg.mem_size);
    } else {
      replayer.emplace(*scope.window_start);
    }
  }
  replayer->mutable_machine().set_jit_enabled(cfg.jit_replay);

  const uint64_t chunk_cap = cfg.pipeline_chunk_entries > 0 ? cfg.pipeline_chunk_entries : 2048;
  const uint64_t cadence = scope.capture ? scope.capture_every : 0;
  const bool replay_on_pool = pool != nullptr && cfg.pipelined;
  // Fan a chunk's per-message RSA checks across the pool whenever a
  // worker is free beyond the one replaying.
  const bool precompute = pool != nullptr && pool->thread_count() > (replay_on_pool ? 2u : 1u);

  // Everything the replay task touches is declared before `join`, so an
  // exception unwinding this frame joins the task while they are alive.
  LogSegment chunk{source.node(), Hash256::Zero(), {}};
  std::vector<LogEntry> replaying;  // The in-flight task's chunk.
  std::exception_ptr replay_err;
  double sem_seconds = 0;
  auto replay = [&](std::span<const LogEntry> entries) {
    obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
    try {
      replayer->Feed(entries);
    } catch (...) {
      // A hostile log can make the replayer throw (e.g. an oversized
      // DMA write); hold the exception until the syntactic verdict is
      // known, since a log that fails it is never replayed.
      replay_err = std::current_exception();
    }
    sem_seconds += replay_span.End();
  };

  ReplayJoin join(pool);
  uint64_t next = scan_from;  // Seq the next scanned entry should carry.
  uint64_t chunk_end = 0;
  uint64_t entry_wire_bytes = 0;
  uint64_t last_captured = scope.resume != nullptr ? scope.resume->watermark : 0;
  std::optional<obs::Span> syn_span;  // Open while a chunk is read and checked.
  auto visit = [&](const LogEntry& e) {
    if (!checker.has_value()) {  // Entry from-1: only its hash is needed.
      checker.emplace(source.node(), from, to, e.hash, auths, registry, cfg, auth_sig_verdicts);
      return;
    }
    if (chunk.entries.empty()) {
      syn_span.emplace(obs::kPhaseAuditSyntactic, "audit");
      chunk_end = std::min(next + chunk_cap - 1, to);
      if (cadence > 0) {
        // End on the next cadence boundary, so captures see checker and
        // replayer aligned there.
        chunk_end = std::min(chunk_end, (next + cadence - 1) / cadence * cadence);
      }
    }
    entry_wire_bytes += e.WireSize();
    chunk.entries.push_back(e);
    if (next++ < chunk_end) {
      return;
    }
    SigVerdicts smc_verdicts;
    if (precompute && !checker->AnyFailure()) {
      smc_verdicts = PrecomputeMessageSigVerdicts(chunk, registry, *pool);
    }
    checker->Feed(chunk.entries, smc_verdicts);
    syn_seconds += syn_span->End();
    syn_span.reset();

    // Replay's result is discarded on any syntactic failure, so stop
    // replaying once one is recorded (the scan still reads on: a later
    // chain break or unreadable entry outranks it).
    join();
    if (replay_gate && !checker->AnyFailure() && replay_err == nullptr) {
      if (replay_on_pool) {
        std::swap(replaying, chunk.entries);
        pool->Submit([&] { replay(replaying); });
        join.Started();
      } else {
        replay(chunk.entries);
      }
    }
    chunk.entries.clear();

    if (cadence > 0 && chunk_end % cadence == 0 && chunk_end > last_captured) {
      join();
      if (replay_gate && !checker->AnyFailure() && replay_err == nullptr &&
          replayer->Checkpointable() && scope.capture(chunk_end, *checker, *replayer)) {
        last_captured = chunk_end;
      }
    }
  };
  const uint64_t scan_start = checker.has_value() ? scan_from : from - 1;
  std::optional<CheckResult> unreadable;
  if (scan_start <= to) {
    unreadable = ScanRange(source, scan_start, to, visit);
  }
  syn_span.reset();
  join();
  if (scope.entries_scanned != nullptr) {
    *scope.entries_scanned = next - scan_from;
  }

  out.syntactic_seconds = syn_seconds;
  if (unreadable.has_value()) {
    out.syntactic = *unreadable;
    return out;
  }
  out.log_bytes =
      LogSegment{source.node(), Hash256::Zero(), {}}.Serialize().size() + entry_wire_bytes;
  out.syntactic = checker->Finalize();
  if (out.syntactic.ok) {
    if (replay_err != nullptr) {
      std::rethrow_exception(replay_err);
    }
    obs::Span finish_span(obs::kPhaseAuditReplay, "audit");
    out.semantic = replayer->Finish();
    out.semantic_seconds = sem_seconds + finish_span.End();
  }
  out.ok = out.syntactic.ok && out.semantic.ok;
  if (out.ok) {
    return out;
  }

  Evidence ev;
  ev.kind = out.syntactic.ok ? EvidenceKind::kReplayDivergence : EvidenceKind::kProtocolViolation;
  ev.accused = target.id();
  ev.claim = out.syntactic.ok ? out.semantic.reason : out.syntactic.reason;
  // The scan kept O(chunk) entries; evidence needs the whole range, and
  // a store that broke since still yields the unreadable outcome.
  try {
    ev.segment = source.Extract(from, to).Serialize();
  } catch (const std::runtime_error& e) {
    AuditOutcome broken;
    broken.syntactic = UnreadableResult(e.what());
    broken.syntactic_seconds = syn_seconds;
    return broken;
  }
  for (const Authenticator& a : auths) {
    ev.auths.push_back(a.Serialize());
  }
  ev.mem_size = cfg.mem_size;
  out.evidence = std::move(ev);
  return out;
}

}  // namespace avm
