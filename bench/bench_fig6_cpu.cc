// Figure 6: CPU utilization split between game execution and the
// accountability machinery.
//
// Paper: the tamper-evident-logging daemon (pinned to one hyperthread)
// stays below 8% while the single-threaded game renders flat out; total
// CPU averages ~12.5% of the 8-hyperthread machine.
//
// Here the equivalent split is one player's record-path ledger
// (src/obs/trace.h) per configuration: guest execution as self time,
// trace recording, RSA signing and verification, transport log appends
// and snapshots. Trace recording, signing and log appends that PortOut
// runs from inside the guest are charged to their own phases, not also
// to guest execution. The "accountability share" column (everything but
// guest execution) corresponds to the paper's daemon-hyperthread
// utilization.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/audit/replayer.h"
#include "src/obs/trace.h"
#include "src/sim/scenario.h"
#include "src/vm/assembler.h"

namespace avm {
namespace {

double TotalNanos(const obs::LedgerTotals& t) {
  double total = 0;
  for (uint64_t ns : t.ns) {
    total += static_cast<double>(ns);
  }
  return std::max(total, 1.0);
}

// Everything but guest execution, as a share of the record path.
double AccountabilityShare(const obs::LedgerTotals& t) {
  const double exec = static_cast<double>(t.ns[static_cast<size_t>(obs::RecordPhase::kExec)]);
  return 100.0 * (TotalNanos(t) - exec) / TotalNanos(t);
}

void Run(BenchJson& json) {
  std::printf("  seconds per phase, self time; exec excludes the regions nested in it\n");
  std::printf("  %-14s", "config");
  for (const char* name : obs::kRecordPhaseNames) {
    std::printf(" %10s", name);
  }
  std::printf(" %16s\n", "accountability%");
  double worst_share = 0;
  std::string worst_config;
  obs::LedgerTotals worst_split;
  for (const RunConfig& run : PaperConfigs()) {
    GameScenarioConfig cfg;
    cfg.run = run;
    cfg.num_players = 2;
    cfg.seed = 6;
    GameScenario game(cfg);
    game.Start();
    const obs::RecordLedger ledger(game.player_id(0));
    const obs::LedgerTotals before = ledger.Totals();
    game.RunFor(8 * kMicrosPerSecond);
    game.Finish();
    const obs::LedgerTotals split = ledger.Totals() - before;

    std::printf("  %-14s", run.Name());
    for (size_t i = 0; i < obs::kNumRecordPhases; i++) {
      std::printf(" %10.3f", static_cast<double>(split.ns[i]) / 1e9);
    }
    const double share = AccountabilityShare(split);
    std::printf(" %15.1f%%\n", share);
    json.Add(std::string("accountability_share_pct_") + run.Name(), share, "%");
    if (share >= worst_share) {
      worst_share = share;
      worst_config = run.Name();
      worst_split = split;
    }
  }
  PrintRule();
  const double worst_total = TotalNanos(worst_split);
  std::printf("  where a record second goes in %s:\n ", worst_config.c_str());
  for (size_t i = 0; i < obs::kNumRecordPhases; i++) {
    std::printf(" %s %.1f%%", obs::kRecordPhaseNames[i],
                100.0 * static_cast<double>(worst_split.ns[i]) / worst_total);
  }
  std::printf("\n");

  // The paper's claim, checked rather than asserted: the logging daemon
  // stays under 8% of one hyperthread.
  const bool under_8pct = worst_share < 8.0;
  if (under_8pct) {
    std::printf("  shape check vs paper: the accountability machinery stays under 8%%\n");
    std::printf("  of the record path in every config: holds (worst %.1f%%, %s).\n", worst_share,
                worst_config.c_str());
  } else {
    std::printf("  shape check vs paper: KNOWN DEVIATION: the accountability machinery\n");
    std::printf("  takes %.1f%% of the record path in %s (paper: <8%% of one hyperthread).\n",
                worst_share, worst_config.c_str());
    std::printf("  It runs inline on the guest's thread, and the simulated guest executes\n");
    std::printf("  only %u instructions per simulated us, so each message's fixed hashing\n",
                RunConfig().ips_per_us);
    std::printf("  and RSA cost is large against the guest work it accompanies.\n");
  }
  json.Add("accountability_share_pct_max", worst_share, "%");
  json.Add("shape_accountability_under_8pct", under_8pct ? 1 : 0, "bool");
}

// Beyond the paper: single-stream replay throughput, the semantic
// check's fundamental limit (§6.6: replay takes about as long as the
// original execution). Three tiers:
//   - "Step()": the reference interpreter, all that runs with the JIT
//     off (set_jit_enabled(false), AVM_JIT=OFF and non-x86-64 builds);
//   - "jit (unhinted)": the x86-64 translator (src/vm/jit) with direct
//     block chaining over memory seeded by WriteMemRange, the way
//     spot-check and checkpoint windows start;
//   - "jit (hinted)": the image loaded with LoadImage, whose static
//     analysis pass (src/vm/analysis) drives region fusion across
//     direct jumps and liveness-based dead-writeback elimination.
// Each row is the median of kReplayReps reps of at least kMinRepSeconds,
// interleaved across the tiers so host drift hits all three alike.
struct ReplayTier {
  const char* name;
  const char* key;  // JSON metric suffix.
  bool jit;
  bool hinted;
};
constexpr ReplayTier kReplayTiers[] = {
    {"Step()", "step", false, true},
    {"jit (unhinted)", "jit", true, false},
    {"jit (hinted)", "jit_analysis", true, true},
};
constexpr int kNumReplayTiers = 3;
constexpr int kReplayReps = 5;
constexpr double kMinRepSeconds = 0.25;

void PrintSamples(const char* name, const std::vector<double>& mips, const char* note) {
  std::printf("  %-30s %9.1f %9.1f %9.1f%s\n", name, Median(mips),
              *std::min_element(mips.begin(), mips.end()),
              *std::max_element(mips.begin(), mips.end()), note);
}

void RunReplaySpeed(BenchJson& json) {
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 7
    la r3, 0x5000
    movi r6, 100
loop:
    addi r1, 1
    mul r2, r1
    xor r2, r1
    sw r2, [r3+0]
    jmp body2          ; Direct-jump trampolines: the shape the
body2:                 ; analysis-guided JIT fuses into one region.
    lw r4, [r3+0]
    add r4, r2
    remu r4, r6
    jmp body3
body3:
    slt r5, r4
    bne r1, r0, loop
    halt
  )");
  constexpr size_t kMem = 256 * 1024;
  constexpr uint64_t kChunk = 4'000'000;
  PrintRule();
  std::printf("  replayed-instructions/sec (single stream, mixed ALU/mem/branch;\n");
  std::printf("  median of %d interleaved reps of >=%.2f s)\n", kReplayReps, kMinRepSeconds);
  std::printf("  %-30s %9s %9s %9s\n", "tier", "MIPS", "min", "max");
  std::vector<double> mips[kNumReplayTiers];
  for (int rep = 0; rep < kReplayReps; rep++) {
    for (int tier = 0; tier < kNumReplayTiers; tier++) {
      NullBackend backend;
      Machine m(kMem, &backend);
      m.set_jit_enabled(kReplayTiers[tier].jit);
      if (kReplayTiers[tier].hinted) {
        m.LoadImage(image);
      } else {
        m.WriteMemRange(0, image);
      }
      WallTimer t;
      do {
        m.Run(kChunk);
      } while (t.ElapsedSeconds() < kMinRepSeconds && !m.cpu().halted);
      mips[tier].push_back(static_cast<double>(m.cpu().icount) / t.ElapsedSeconds() / 1e6);
    }
  }
  for (int tier = 0; tier < kNumReplayTiers; tier++) {
    PrintSamples(kReplayTiers[tier].name, mips[tier], "");
    json.AddSamples(std::string("replay_mips_") + kReplayTiers[tier].key, mips[tier], "Minsn/s");
  }
  const double step = Median(mips[0]);
  const double jit = Median(mips[1]);
  const double hinted = Median(mips[2]);
  std::printf("  jit speedup: %.2fx vs Step() (jit compiled in: %s)\n", jit / step,
              Machine::JitCompiledIn() ? "yes" : "no");
  std::printf("  analysis hints: %.2fx vs unhinted jit\n", hinted / jit);
  json.Add("replay_jit_vs_step_speedup", jit / step, "x");
  json.Add("replay_jit_analysis_speedup", hinted / jit, "x");

  // The same comparison through the full record->replay loop: a real
  // recorded log, replayed by the auditor's StreamingReplayer. A rep
  // replays the whole log as many times as fit in kMinRepSeconds.
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_players = 2;
  cfg.seed = 6;
  GameScenario game(cfg);
  game.Start();
  game.RunFor(4 * kMicrosPerSecond);
  game.Finish();
  LogSegment seg = game.server().log().Extract(1, game.server().log().LastSeq());
  MaterializedState start;
  start.memory = game.reference_server_image();
  start.memory.resize(cfg.run.mem_size, 0);
  std::vector<double> replay_mips[kNumReplayTiers];
  bool replay_ok[kNumReplayTiers] = {true, true, true};
  for (int rep = 0; rep < kReplayReps; rep++) {
    for (int tier = 0; tier < kNumReplayTiers; tier++) {
      uint64_t instructions = 0;
      WallTimer t;
      do {
        std::optional<StreamingReplayer> r;
        if (kReplayTiers[tier].hinted) {
          r.emplace(game.reference_server_image(), cfg.run.mem_size);
        } else {
          r.emplace(start);
        }
        r->mutable_machine().set_jit_enabled(kReplayTiers[tier].jit);
        r->Feed(seg.entries);
        ReplayResult res = r->Finish();
        replay_ok[tier] = replay_ok[tier] && res.ok;
        instructions += res.instructions_replayed;
      } while (t.ElapsedSeconds() < kMinRepSeconds);
      replay_mips[tier].push_back(static_cast<double>(instructions) / t.ElapsedSeconds() / 1e6);
    }
  }
  for (int tier = 0; tier < kNumReplayTiers; tier++) {
    const std::string name = std::string("audit replay, ") + kReplayTiers[tier].name;
    PrintSamples(name.c_str(), replay_mips[tier],
                 replay_ok[tier] ? "  (recorded server log, PASS)" : "  (recorded server log, FAIL)");
    json.AddSamples(std::string("audit_replay_mips_") + kReplayTiers[tier].key, replay_mips[tier],
                    "Minsn/s");
  }
  const double audit_step = Median(replay_mips[0]);
  std::printf("  audit replay speedup vs Step(): jit %.2fx, hinted jit %.2fx\n",
              Median(replay_mips[1]) / audit_step, Median(replay_mips[2]) / audit_step);
  json.Add("audit_replay_jit_speedup", Median(replay_mips[1]) / audit_step, "x");
  json.Add("audit_replay_jit_analysis_speedup", Median(replay_mips[2]) / audit_step, "x");
}

// Telemetry must be free when off and near-free when on: the same
// recording run with obs disabled vs enabled must produce a
// bit-identical serialized log (verdict/wire equivalence) and stay
// under the <2% overhead budget CI asserts on telemetry_overhead_pct.
void RunTelemetryOverhead(BenchJson& json) {
  PrintRule();
  std::printf("  telemetry overhead: identical recording run, obs off vs on\n");
  Bytes first_wire;
  bool identical = true;
  MeasureTelemetryOverhead(json, [&] {
    GameScenarioConfig cfg;
    cfg.run = RunConfig::AvmmRsa768();
    cfg.num_players = 2;
    cfg.seed = 6;
    GameScenario game(cfg);
    game.Start();
    WallTimer t;
    game.RunFor(4 * kMicrosPerSecond);
    double s = t.ElapsedSeconds();
    game.Finish();
    Bytes wire = game.server().log().Extract(1, game.server().log().LastSeq()).Serialize();
    if (first_wire.empty()) {
      first_wire = std::move(wire);
    } else {
      identical = identical && wire == first_wire;
    }
    return s;
  });
  std::printf("  serialized server log bit-identical across all %d runs: %s (%zu bytes)\n",
              2 * kOverheadPairs, identical ? "yes" : "NO (BUG)", first_wire.size());
  json.Add("telemetry_log_identical", identical ? 1 : 0, "bool");
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 6: CPU utilization split per configuration",
                   "logging daemon <8% of one HT; machine average ~12.5%");
  avm::PrintScaleNote();
  avm::BenchJson json("fig6_cpu");
  avm::Run(json);
  avm::RunReplaySpeed(json);
  avm::RunTelemetryOverhead(json);
  return 0;
}
