// Audit-engine parity: every audit runs through one chunked
// check-and-replay loop (src/audit/pipeline.h), and every verdict —
// audit, spot check, evidence, failure reason and seq — must be
// bit-for-bit the same at every thread count, chunk size and pipelining
// setting, and must match an independent oracle composed of the public
// whole-segment primitives.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "src/audit/checkpoint.h"
#include "src/audit/pipeline.h"
#include "src/obs/metrics.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/util/serde.h"
#include "src/vm/assembler.h"

namespace avm {
namespace {

namespace fs = std::filesystem;

void ExpectSameOutcome(const AuditOutcome& a, const AuditOutcome& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.syntactic.ok, b.syntactic.ok) << what;
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason) << what;
  EXPECT_EQ(a.syntactic.bad_seq, b.syntactic.bad_seq) << what;
  EXPECT_EQ(a.semantic.ok, b.semantic.ok) << what;
  EXPECT_EQ(a.semantic.reason, b.semantic.reason) << what;
  EXPECT_EQ(a.semantic.diverged_seq, b.semantic.diverged_seq) << what;
  EXPECT_EQ(a.semantic.replay_icount, b.semantic.replay_icount) << what;
  EXPECT_EQ(a.semantic.instructions_replayed, b.semantic.instructions_replayed) << what;
  EXPECT_EQ(a.log_bytes, b.log_bytes) << what;
  ASSERT_EQ(a.evidence.has_value(), b.evidence.has_value()) << what;
  if (a.evidence.has_value()) {
    EXPECT_EQ(static_cast<int>(a.evidence->kind), static_cast<int>(b.evidence->kind)) << what;
    EXPECT_EQ(a.evidence->accused, b.evidence->accused) << what;
    EXPECT_EQ(a.evidence->claim, b.evidence->claim) << what;
    EXPECT_EQ(a.evidence->segment, b.evidence->segment) << what;
  }
}

// The fields an independent oracle can predict: verdicts, failure
// reasons and seqs, the bytes audited, and the evidence's kind and log.
void ExpectMatchesOracle(const AuditOutcome& oracle, const AuditOutcome& engine,
                         const std::string& what) {
  EXPECT_EQ(oracle.ok, engine.ok) << what;
  EXPECT_EQ(oracle.syntactic.ok, engine.syntactic.ok) << what;
  EXPECT_EQ(oracle.syntactic.reason, engine.syntactic.reason) << what;
  EXPECT_EQ(oracle.syntactic.bad_seq, engine.syntactic.bad_seq) << what;
  EXPECT_EQ(oracle.semantic.ok, engine.semantic.ok) << what;
  EXPECT_EQ(oracle.semantic.reason, engine.semantic.reason) << what;
  EXPECT_EQ(oracle.semantic.diverged_seq, engine.semantic.diverged_seq) << what;
  EXPECT_EQ(oracle.log_bytes, engine.log_bytes) << what;
  ASSERT_EQ(oracle.evidence.has_value(), engine.evidence.has_value()) << what;
  if (oracle.evidence.has_value()) {
    EXPECT_EQ(static_cast<int>(oracle.evidence->kind), static_cast<int>(engine.evidence->kind))
        << what;
    EXPECT_EQ(oracle.evidence->segment, engine.evidence->segment) << what;
  }
}

uint64_t JitNativeEnters() {
  return obs::Registry::Global().GetCounter("avm.jit.native_enters")->Value();
}

AuditConfig MakeConfig(size_t mem_size, unsigned threads, bool pipelined,
                       size_t chunk_entries = 2048) {
  AuditConfig cfg;
  cfg.mem_size = mem_size;
  cfg.threads = threads;
  cfg.pipelined = pipelined;
  cfg.pipeline_chunk_entries = chunk_entries;
  return cfg;
}

// An in-memory SegmentSource over an arbitrary (possibly tampered)
// segment: what a dishonest machine would ship to the auditor.
class VectorSegmentSource final : public SegmentSource {
 public:
  explicit VectorSegmentSource(LogSegment seg) : seg_(std::move(seg)) {}

  const NodeId& node() const override { return seg_.node; }
  uint64_t LastSeq() const override { return seg_.LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    const uint64_t first = seg_.FirstSeq();
    if (from_seq < first || to_seq > seg_.LastSeq() || from_seq > to_seq) {
      throw std::out_of_range("VectorSegmentSource::Extract: bad range");
    }
    LogSegment out;
    out.node = seg_.node;
    out.prior_hash =
        from_seq == first ? seg_.prior_hash : seg_.entries[from_seq - first - 1].hash;
    out.entries.assign(seg_.entries.begin() + static_cast<ptrdiff_t>(from_seq - first),
                       seg_.entries.begin() + static_cast<ptrdiff_t>(to_seq - first + 1));
    return out;
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    for (uint64_t s = from_seq; s <= to_seq; s++) {
      if (!visit(seg_.entries[s - seg_.FirstSeq()])) {
        return;
      }
    }
  }

 private:
  LogSegment seg_;
};

// Counts how often each seq is read through a source, by Scan and
// Extract alike (Extract's prior hash is a read of entry from-1).
class CountingSegmentSource final : public SegmentSource {
 public:
  explicit CountingSegmentSource(const SegmentSource& inner) : inner_(inner) {}

  const NodeId& node() const override { return inner_.node(); }
  uint64_t LastSeq() const override { return inner_.LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    LogSegment seg = inner_.Extract(from_seq, to_seq);
    if (from_seq > 1) {
      reads_[from_seq - 1]++;
    }
    for (const LogEntry& e : seg.entries) {
      reads_[e.seq]++;
    }
    return seg;
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    inner_.Scan(from_seq, to_seq, [&](const LogEntry& e) {
      reads_[e.seq]++;
      return visit(e);
    });
  }

  uint64_t Reads(uint64_t seq) const {
    auto it = reads_.find(seq);
    return it == reads_.end() ? 0 : it->second;
  }
  uint64_t TotalReads() const {
    uint64_t n = 0;
    for (const auto& [seq, count] : reads_) {
      n += count;
    }
    return n;
  }

 private:
  const SegmentSource& inner_;
  mutable std::map<uint64_t, uint64_t> reads_;
};

// Every entry of [from, to] was read exactly `base + 1` times and entry
// from-1 (the prior hash) at most once beyond `base`, where `base` reads
// of every entry in the log come from elsewhere (a spot check's
// snapshot index); nothing else was read.
void ExpectRangeReadOnce(const CountingSegmentSource& src, uint64_t from, uint64_t to,
                         const std::string& what, uint64_t base = 0) {
  for (uint64_t s = from; s <= to; s++) {
    ASSERT_EQ(src.Reads(s), base + 1) << what << " seq " << s;
  }
  const uint64_t prior = from > 1 ? src.Reads(from - 1) - base : 0;
  EXPECT_LE(prior, 1u) << what;
  EXPECT_EQ(src.TotalReads(), base * src.LastSeq() + (to - from + 1) + prior) << what;
}

void Rechain(LogSegment& seg) {
  Hash256 prev = seg.prior_hash;
  for (LogEntry& e : seg.entries) {
    e.hash = ChainHash(prev, e.seq, e.type, e.content);
    prev = e.hash;
  }
}

// One recorded solo AVMM everything below audits (recording is the
// expensive part; the parity sweeps only re-audit).
class PipelineAuditTest : public ::testing::Test {
 protected:
  PipelineAuditTest() : rng_(9), signer_("solo", SignatureScheme::kNone, rng_) {
    registry_.RegisterSigner(signer_);
  }

  void RecordSolo(int quanta = 40, int inputs = 25) {
    image_ = Assemble(R"(
      jmp main
      jmp irqh
  irqh:
      iret
  main:
      movi r0, 0
  loop:
      in r1, CLOCK_LO
      in r2, RAND
      in r3, INPUT
      add r1, r2
      add r1, r3
      out r1, DEBUG
      movi r4, 150
  work:
      addi r4, -1
      bne r4, r0, work
      jmp loop
    )");
    node_ = std::make_unique<Avmm>("solo", RunConfig::AvmmNoSig(), image_, &signer_, &net_,
                                   &registry_);
    node_->AddPeer("solo");
    for (int i = 0; i < inputs; i++) {
      node_->PushInput(static_cast<uint32_t>(i % 7 + 1));
    }
    SimTime now = 0;
    for (int i = 0; i < quanta; i++) {
      node_->RunQuantum(now, 1000);
      now += 1000;
    }
    node_->Finish(now);
    ASSERT_GT(node_->log().size(), 40u);
  }

  LogSegment WholeSegment() const {
    return node_->log().Extract(1, node_->log().LastSeq());
  }

  Authenticator AuthFor(const LogSegment& seg) const {
    return Authenticator{"solo", seg.LastSeq(), seg.entries.back().hash, {}};
  }

  // The independent oracle: the public whole-segment primitives in the
  // paper's order, over one materialized Extract of the log.
  AuditOutcome OracleAudit(const SegmentSource& source, std::span<const Authenticator> auths) {
    const AuditConfig cfg = MakeConfig(kMem, 1, false);
    const LogSegment seg = source.Extract(1, source.LastSeq());
    AuditOutcome out;
    out.log_bytes = seg.Serialize().size();
    out.syntactic = VerifyAgainstAuthenticators(seg, auths, registry_);
    if (out.syntactic.ok) {
      out.syntactic = SyntacticMessageCheck(seg, registry_, cfg);
    }
    if (out.syntactic.ok && cfg.attested_input) {
      out.syntactic = VerifyAttestedInputs(seg, registry_);
    }
    if (out.syntactic.ok) {
      out.semantic = ReplaySegment(seg, image_, kMem);
    }
    out.ok = out.syntactic.ok && out.semantic.ok;
    if (!out.ok) {
      Evidence ev;
      ev.kind = out.syntactic.ok ? EvidenceKind::kReplayDivergence
                                 : EvidenceKind::kProtocolViolation;
      ev.segment = seg.Serialize();
      out.evidence = std::move(ev);
    }
    return out;
  }

  // Audits `source` at threads=1 and checks it against the oracle, then
  // sweeps thread counts, chunk sizes and pipelining: every outcome must
  // agree bit for bit with the threads=1 one. Returns the latter.
  AuditOutcome ExpectParity(const SegmentSource& source, std::span<const Authenticator> auths,
                            const std::string& what) {
    Auditor base("auditor", &registry_, MakeConfig(kMem, 1, false));
    AuditOutcome baseline = base.AuditFull(*node_, source, image_, auths);
    ExpectMatchesOracle(OracleAudit(source, auths), baseline, what + " vs oracle");
    for (unsigned threads : {1u, 2u, 4u}) {
      for (size_t chunk : {size_t{7}, size_t{2048}}) {
        Auditor seq("auditor", &registry_, MakeConfig(kMem, threads, false, chunk));
        Auditor pipe("auditor", &registry_, MakeConfig(kMem, threads, true, chunk));
        ExpectSameOutcome(baseline, seq.AuditFull(*node_, source, image_, auths),
                          what + " sequential threads=" + std::to_string(threads) +
                              " chunk=" + std::to_string(chunk));
        ExpectSameOutcome(baseline, pipe.AuditFull(*node_, source, image_, auths),
                          what + " pipelined threads=" + std::to_string(threads) +
                              " chunk=" + std::to_string(chunk));
      }
    }
    return baseline;
  }

  static constexpr size_t kMem = 256 * 1024;

  Prng rng_;
  Signer signer_;
  KeyRegistry registry_;
  SimNetwork net_;
  Bytes image_;
  std::unique_ptr<Avmm> node_;
};

TEST_F(PipelineAuditTest, HonestLogPassesIdentically) {
  RecordSolo();
  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "honest");
  EXPECT_TRUE(base.ok) << base.Describe();
  EXPECT_GT(base.semantic.instructions_replayed, 10000u);
}

TEST_F(PipelineAuditTest, TamperedTraceValueFailsSemanticallyIdentically) {
  RecordSolo();
  LogSegment seg = WholeSegment();
  // Rewrite one recorded clock value and rebuild the chain + issue a
  // fresh commitment, so only replay can catch it (the paper's "machine
  // forges a nondeterministic input" case).
  bool patched = false;
  for (LogEntry& e : seg.entries) {
    if (e.type == EntryType::kTraceTime && e.seq > 20 && !patched) {
      TraceEvent ev = TraceEvent::Deserialize(e.content);
      ev.value += 1;
      e.content = ev.Serialize();
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  Rechain(seg);
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "tampered-trace");
  EXPECT_FALSE(base.ok);
  EXPECT_TRUE(base.syntactic.ok);  // Syntactically clean...
  EXPECT_FALSE(base.semantic.ok);  // ...the divergence is semantic.
  ASSERT_TRUE(base.evidence.has_value());
  EXPECT_EQ(static_cast<int>(base.evidence->kind),
            static_cast<int>(EvidenceKind::kReplayDivergence));
}

TEST_F(PipelineAuditTest, JitReplayVerdictsMatchInterpreter) {
  // The semantic check through the JIT tier (AuditConfig::jit_replay,
  // the default) must produce the bit-for-bit outcome of the Step()
  // reference interpreter — on an honest log and, more importantly,
  // on a tampered one, where the divergence seq and evidence must not
  // move between tiers.
  RecordSolo();
  LogSegment honest = WholeSegment();
  LogSegment tampered = honest;
  bool patched = false;
  for (LogEntry& e : tampered.entries) {
    if (e.type == EntryType::kTraceTime && e.seq > 20 && !patched) {
      TraceEvent ev = TraceEvent::Deserialize(e.content);
      ev.value += 1;
      e.content = ev.Serialize();
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  Rechain(tampered);

  struct Case {
    const char* what;
    LogSegment seg;
    bool expect_ok;
  };
  for (Case& c : std::vector<Case>{{"honest", std::move(honest), true},
                                   {"tampered", std::move(tampered), false}}) {
    std::vector<Authenticator> auths = {AuthFor(c.seg)};
    VectorSegmentSource source(std::move(c.seg));
    AuditConfig jit_cfg = MakeConfig(kMem, 1, false);
    AuditConfig interp_cfg = MakeConfig(kMem, 1, false);
    interp_cfg.jit_replay = false;
    Auditor jit("auditor", &registry_, jit_cfg);
    Auditor interp("auditor", &registry_, interp_cfg);
    const uint64_t before_jit = JitNativeEnters();
    AuditOutcome jit_out = jit.AuditFull(*node_, source, image_, auths);
    const uint64_t before_interp = JitNativeEnters();
    AuditOutcome interp_out = interp.AuditFull(*node_, source, image_, auths);
    // The tiers really differ: the interpreter side never enters JIT
    // code, the JIT side does wherever the JIT is compiled in.
    EXPECT_EQ(JitNativeEnters(), before_interp) << c.what;
    if (Machine::JitCompiledIn()) {
      EXPECT_GT(before_interp, before_jit) << c.what;
    }
    ExpectSameOutcome(jit_out, interp_out, std::string("jit-vs-interp ") + c.what);
    EXPECT_EQ(jit_out.ok, c.expect_ok) << c.what << ": " << jit_out.Describe();
  }
}

TEST_F(PipelineAuditTest, FullAuditReadsEachEntryOnce) {
  RecordSolo();
  InMemorySegmentSource mem(node_->log());
  std::vector<Authenticator> auths = {AuthFor(WholeSegment())};
  for (unsigned threads : {1u, 2u, 4u}) {
    for (size_t chunk : {size_t{7}, size_t{2048}}) {
      const std::string what =
          "threads=" + std::to_string(threads) + " chunk=" + std::to_string(chunk);
      CountingSegmentSource counting(mem);
      Auditor auditor("auditor", &registry_, MakeConfig(kMem, threads, true, chunk));
      AuditOutcome out = auditor.AuditFull(*node_, counting, image_, auths);
      ASSERT_TRUE(out.ok) << what << ": " << out.Describe();
      ExpectRangeReadOnce(counting, 1, counting.LastSeq(), what);
    }
  }
}

TEST_F(PipelineAuditTest, CheckpointedAuditReadsEachEntryOnce) {
  RecordSolo();
  InMemorySegmentSource mem(node_->log());
  std::vector<Authenticator> auths = {AuthFor(WholeSegment())};
  const std::string dir = (fs::path(::testing::TempDir()) / "avm_pipe_ckpt_reads").string();
  for (unsigned threads : {1u, 2u, 4u}) {
    for (size_t chunk : {size_t{7}, size_t{2048}}) {
      const std::string what =
          "threads=" + std::to_string(threads) + " chunk=" + std::to_string(chunk);
      fs::remove_all(dir);
      CheckpointConfig ckpt;
      ckpt.every_entries = 16;
      CheckpointedAuditor auditor("auditor", &registry_, MakeConfig(kMem, threads, true, chunk),
                                  ckpt);
      CountingSegmentSource cold_src(mem);
      ResumeInfo cold;
      ASSERT_TRUE(auditor.AuditFull(*node_, cold_src, image_, auths, dir, &cold).ok) << what;
      ASSERT_GT(cold.checkpoints_written, 0u) << what;
      ExpectRangeReadOnce(cold_src, 1, cold_src.LastSeq(), what + " cold");

      CountingSegmentSource resumed_src(mem);
      ResumeInfo resumed;
      ASSERT_TRUE(auditor.AuditFull(*node_, resumed_src, image_, auths, dir, &resumed).ok)
          << what;
      ASSERT_TRUE(resumed.resumed) << what << ": " << resumed.reject_reason;
      // The watermark entry itself is the resumed range's prior hash.
      ExpectRangeReadOnce(resumed_src, resumed.resumed_from + 1, resumed_src.LastSeq(),
                          what + " resumed");
    }
  }
  fs::remove_all(dir);
}

TEST_F(PipelineAuditTest, BrokenChainFailsIdentically) {
  RecordSolo(20);
  LogSegment seg = WholeSegment();
  const uint64_t victim = seg.LastSeq() / 2;
  seg.entries[victim - 1].content.push_back(0x5a);  // No re-chain: chain breaks.
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "broken-chain");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "hash chain broken");
  EXPECT_EQ(base.syntactic.bad_seq, victim);
}

TEST_F(PipelineAuditTest, ChainBreakOutranksEarlierMessageFailure) {
  // A message-stream failure early in the log plus a chain break later:
  // the sequential composition runs the whole chain check first, so the
  // chain break is the verdict — the pipelined checker must not report
  // the (earlier-seq) message failure instead.
  RecordSolo(30);
  LogSegment seg = WholeSegment();
  const uint64_t smc_victim = 10;
  seg.entries[smc_victim - 1].type = EntryType::kSend;  // Garbage SEND: malformed.
  Rechain(seg);
  const uint64_t chain_victim = seg.LastSeq() - 3;
  seg.entries[chain_victim - 1].content.push_back(0x5a);  // Breaks the chain.
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "smc-then-chain");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "hash chain broken");
  EXPECT_EQ(base.syntactic.bad_seq, chain_victim);

  // Sanity: with the chain repaired, the same log fails on the message
  // stream instead — again identically in every mode.
  LogSegment repaired = WholeSegment();
  repaired.entries[smc_victim - 1].type = EntryType::kSend;
  Rechain(repaired);
  std::vector<Authenticator> auths2 = {AuthFor(repaired)};
  VectorSegmentSource source2(std::move(repaired));
  AuditOutcome base2 = ExpectParity(source2, auths2, "smc-only");
  EXPECT_FALSE(base2.ok);
  EXPECT_EQ(base2.syntactic.reason, "malformed SEND entry");
  EXPECT_EQ(base2.syntactic.bad_seq, smc_victim);
}

TEST_F(PipelineAuditTest, AuthenticatorFailuresReportedInSpanOrder) {
  RecordSolo(20);
  LogSegment seg = WholeSegment();
  const uint64_t last = seg.LastSeq();
  // Two tampered authenticators: the span's FIRST one names a LATE seq.
  // The sequential scan reports failures in span order, not seq order;
  // the chunked checker streams seqs in order and must still agree.
  Authenticator good = AuthFor(seg);
  Authenticator bad_late{"solo", last - 2, Hash256::Zero(), {}};
  Authenticator bad_early{"solo", 5, Hash256::Zero(), {}};
  std::vector<Authenticator> auths = {bad_late, bad_early, good};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "auth-span-order");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "log does not match issued authenticator (tamper or fork)");
  EXPECT_EQ(base.syntactic.bad_seq, last - 2);
}

TEST_F(PipelineAuditTest, InvalidAuthenticatorSignatureFailsIdentically) {
  // A garbage signature (under the kNone scheme, any nonempty one) must
  // fail "authenticator signature invalid" in every mode — and in the
  // pipelined streaming path it also gates replay off entirely, so a
  // forged log cannot buy an attacker a full replay.
  RecordSolo(15);
  LogSegment seg = WholeSegment();
  Authenticator forged = AuthFor(seg);
  forged.signature = {0xde, 0xad};
  std::vector<Authenticator> auths = {forged};
  const uint64_t last = seg.LastSeq();
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "bad-auth-sig");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "authenticator signature invalid");
  EXPECT_EQ(base.syntactic.bad_seq, last);
}

TEST_F(PipelineAuditTest, NoCoveringAuthenticatorFailsIdentically) {
  RecordSolo(15);
  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths;  // Nothing covers the log.
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "no-auth");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason,
            "no authenticator covers the segment; cannot establish authenticity");
}

// --- store-backed: multi-segment logs on disk --------------------------

class PipelineStoreTest : public PipelineAuditTest {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) / (std::string("avm_pipe_") + info->name())).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  LogStoreOptions SmallSegments() {
    LogStoreOptions opts;
    opts.seal_threshold_bytes = 1024;  // Many sealed segments even for small logs.
    opts.sync = false;
    return opts;
  }

  std::string dir_;
};

TEST_F(PipelineStoreTest, StoreBackedPipelinedAuditMatchesSequential) {
  auto store_setup = [&] {
    auto store = LogStore::Open(dir_, "solo", SmallSegments());
    return store;
  };
  auto store = store_setup();
  RecordSolo(60, 40);
  node_->SpillTo(store.get());
  node_->log().SetSink(nullptr);
  store->Seal();
  ASSERT_GE(store->SealedCount(), 3u) << "want a multi-segment log";

  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  AuditOutcome base = ExpectParity(*store, auths, "store-backed");
  EXPECT_TRUE(base.ok) << base.Describe();

  // And the store-backed verdict equals the in-memory one.
  Auditor pipe("auditor", &registry_, MakeConfig(kMem, 2, true));
  InMemorySegmentSource mem_source(node_->log());
  ExpectSameOutcome(pipe.AuditFull(*node_, mem_source, image_, auths),
                    pipe.AuditFull(*node_, *store, image_, auths), "store-vs-memory");
}

TEST_F(PipelineStoreTest, CorruptSealedSegmentIsUnreadableIdentically) {
  auto store = LogStore::Open(dir_, "solo", SmallSegments());
  RecordSolo(60, 40);
  node_->SpillTo(store.get());
  node_->log().SetSink(nullptr);
  store->Seal();
  ASSERT_GE(store->SealedCount(), 3u);

  // Flip one byte in the middle of a mid-log sealed segment file.
  std::vector<fs::path> sealed;
  for (const auto& f : fs::directory_iterator(dir_)) {
    if (f.path().extension() == ".seal") {
      sealed.push_back(f.path());
    }
  }
  std::sort(sealed.begin(), sealed.end());
  ASSERT_GE(sealed.size(), 2u);
  const fs::path victim = sealed[sealed.size() / 2];
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    char b;
    f.seekg(f.tellp());
    f.get(b);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    f.put(static_cast<char>(b ^ 0x40));
  }

  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  Auditor seq("auditor", &registry_, MakeConfig(kMem, 2, false));
  Auditor pipe("auditor", &registry_, MakeConfig(kMem, 2, true, 64));
  AuditOutcome a = seq.AuditFull(*node_, *store, image_, auths);
  AuditOutcome b = pipe.AuditFull(*node_, *store, image_, auths);
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason);
  EXPECT_NE(a.syntactic.reason.find("log source unreadable"), std::string::npos)
      << a.syntactic.reason;
  EXPECT_FALSE(a.evidence.has_value());
  EXPECT_FALSE(b.evidence.has_value());
}

// --- spot-check windows -------------------------------------------------

TEST(PipelineSpotCheck, WindowVerdictsMatchSequentialIncludingCheat) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = 77;
  cfg.snapshot_interval = 200 * kMicrosPerMilli;
  cfg.client.op_period_us = 5 * kMicrosPerMilli;
  KvScenario kv(cfg);
  kv.Start();
  kv.server().SetCheatHook([](Machine& m, SimTime now) {
    if (now == 700 * kMicrosPerMilli) {
      m.WriteMem32(kKvTableAddr + 32, 0xbeef);
    }
  });
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
  ASSERT_GE(snaps.size(), 4u);
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    windows.emplace_back(snaps[i].meta.snapshot_id, snaps[i + 1].meta.snapshot_id);
  }
  std::vector<Authenticator> auths = kv.CollectAuthsForServer();

  auto run_with = [&](bool pipelined) {
    AuditConfig acfg;
    acfg.mem_size = cfg.run.mem_size;
    acfg.threads = 2;
    acfg.pipelined = pipelined;
    Auditor auditor("client", &kv.registry(), acfg);
    std::vector<AuditOutcome> outs;
    for (const auto& w : windows) {
      outs.push_back(auditor.SpotCheck(kv.server(), w.first, w.second, auths));
    }
    return outs;
  };
  std::vector<AuditOutcome> seq = run_with(false);
  std::vector<AuditOutcome> pipe = run_with(true);
  ASSERT_EQ(seq.size(), pipe.size());
  int failures = 0;
  for (size_t i = 0; i < seq.size(); i++) {
    ExpectSameOutcome(seq[i], pipe[i], "window " + std::to_string(i));
    failures += seq[i].ok ? 0 : 1;
  }
  EXPECT_EQ(failures, 1) << "exactly the corrupted window must fail";
}

class PipelineSpotCheckKv : public ::testing::Test {
 protected:
  void Record() {
    KvScenarioConfig cfg;
    cfg.run = RunConfig::AvmmNoSig();
    cfg.seed = 78;
    cfg.snapshot_interval = 200 * kMicrosPerMilli;
    cfg.client.op_period_us = 5 * kMicrosPerMilli;
    mem_size_ = cfg.run.mem_size;
    kv_ = std::make_unique<KvScenario>(cfg);
    kv_->Start();
    kv_->server().SetCheatHook([](Machine& m, SimTime now) {
      if (now == 500 * kMicrosPerMilli) {
        m.WriteMem32(kKvTableAddr + 32, 0xbeef);
      }
    });
    kv_->RunFor(kMicrosPerSecond);
    kv_->Finish();
    std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv_->server().log());
    ASSERT_GE(snaps.size(), 3u);
    for (size_t i = 0; i + 1 < snaps.size(); i++) {
      windows_.emplace_back(snaps[i].meta.snapshot_id, snaps[i + 1].meta.snapshot_id);
      window_seqs_.emplace_back(snaps[i].seq, snaps[i + 1].seq);
    }
    auths_ = kv_->CollectAuthsForServer();
  }

  AuditConfig Config(unsigned threads, bool pipelined, size_t chunk = 2048) const {
    return MakeConfig(mem_size_, threads, pipelined, chunk);
  }

  size_t mem_size_ = 0;
  std::unique_ptr<KvScenario> kv_;
  std::vector<std::pair<uint64_t, uint64_t>> windows_;      // Snapshot ids.
  std::vector<std::pair<uint64_t, uint64_t>> window_seqs_;  // Their seqs.
  std::vector<Authenticator> auths_;
};

TEST_F(PipelineSpotCheckKv, JitReplayVerdictsMatchInterpreter) {
  // Non-pipelined spot checks replay with AuditConfig::jit_replay too.
  Record();
  AuditConfig interp_cfg = Config(1, false);
  interp_cfg.jit_replay = false;
  Auditor jit("client", &kv_->registry(), Config(1, false));
  Auditor interp("client", &kv_->registry(), interp_cfg);
  int failures = 0;
  uint64_t jit_enters = 0;
  for (size_t i = 0; i < windows_.size(); i++) {
    const std::string what = "window " + std::to_string(i);
    const uint64_t before_jit = JitNativeEnters();
    AuditOutcome jit_out =
        jit.SpotCheck(kv_->server(), windows_[i].first, windows_[i].second, auths_);
    const uint64_t before_interp = JitNativeEnters();
    jit_enters += before_interp - before_jit;
    AuditOutcome interp_out =
        interp.SpotCheck(kv_->server(), windows_[i].first, windows_[i].second, auths_);
    EXPECT_EQ(JitNativeEnters(), before_interp) << what;
    ExpectSameOutcome(jit_out, interp_out, what);
    failures += jit_out.ok ? 0 : 1;
  }
  EXPECT_EQ(failures, 1) << "exactly the corrupted window must fail";
  if (Machine::JitCompiledIn()) {
    EXPECT_GT(jit_enters, 0u);  // A short window may never get hot enough.
  }
}

TEST_F(PipelineSpotCheckKv, SpotCheckReadsEachWindowEntryOnce) {
  Record();
  InMemorySegmentSource mem(kv_->server().log());
  size_t honest = 0;
  for (unsigned threads : {1u, 2u, 4u}) {
    for (size_t chunk : {size_t{7}, size_t{2048}}) {
      Auditor auditor("client", &kv_->registry(), Config(threads, true, chunk));
      for (size_t i = 0; i < windows_.size(); i++) {
        const std::string what = "threads=" + std::to_string(threads) +
                                 " chunk=" + std::to_string(chunk) + " window " +
                                 std::to_string(i);
        CountingSegmentSource counting(mem);
        AuditOutcome out = auditor.SpotCheck(kv_->server(), counting, windows_[i].first,
                                             windows_[i].second, auths_);
        if (!out.ok) {
          continue;  // Evidence re-reads the failed window on purpose.
        }
        // The snapshot index reads the whole log once; beyond that, the
        // window is read once plus its prior-hash entry.
        ExpectRangeReadOnce(counting, window_seqs_[i].first, window_seqs_[i].second, what,
                            /*base=*/1);
        honest++;
      }
    }
  }
  EXPECT_EQ(honest, 6 * (windows_.size() - 1)) << "exactly the corrupted window fails";
}

}  // namespace
}  // namespace avm