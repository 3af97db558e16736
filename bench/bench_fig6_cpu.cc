// Figure 6: CPU utilization split between game execution and the
// accountability machinery.
//
// Paper: the tamper-evident-logging daemon (pinned to one hyperthread)
// stays below 8% while the single-threaded game renders flat out; total
// CPU averages ~12.5% of the 8-hyperthread machine.
//
// Here the equivalent split is the wall time each AVMM spends in guest
// execution vs. trace recording vs. signing/verification vs. snapshots,
// per configuration. The "accountability share" column corresponds to
// the paper's daemon-hyperthread utilization.
#include <algorithm>
#include <optional>
#include <vector>

#include "bench/bench_common.h"
#include "src/audit/replayer.h"
#include "src/sim/scenario.h"
#include "src/vm/assembler.h"

namespace avm {
namespace {

void Run() {
  std::printf("  %-14s %8s %8s %8s %8s %16s\n", "config", "exec(s)", "rec(s)", "crypto(s)",
              "snap(s)", "accountability%");
  for (const RunConfig& run : PaperConfigs()) {
    GameScenarioConfig cfg;
    cfg.run = run;
    cfg.num_players = 2;
    cfg.seed = 6;
    GameScenario game(cfg);
    game.Start();
    game.RunFor(8 * kMicrosPerSecond);
    game.Finish();

    const Avmm& p = game.player(0);
    double exec = p.exec_seconds();
    double rec = p.record_seconds();
    double crypto = p.crypto_seconds();
    double snap = p.snapshot_seconds();
    double overhead = rec + crypto + snap;
    double share = 100.0 * overhead / (exec + overhead);
    std::printf("  %-14s %8.3f %8.3f %8.3f %8.3f %15.1f%%\n", run.Name(), exec, rec, crypto, snap,
                share);
  }
  PrintRule();
  std::printf("  shape check vs paper: guest execution dominates in every config;\n");
  std::printf("  the accountability machinery (the paper's logging daemon, <8%% of\n");
  std::printf("  one hyperthread) stays a small fraction of total CPU, largest in\n");
  std::printf("  avmm-rsa768 where per-packet signatures are added.\n");
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
  constexpr int kReps = 3;
  PrintRule();
  std::printf("  telemetry overhead: identical recording run, obs off vs on (min of %d)\n",
              kReps);
  auto run_once = [&](bool on, Bytes* wire) {
    obs::SetEnabled(on);
    obs::ResetTrace();
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
    LogSegment seg = game.server().log().Extract(1, game.server().log().LastSeq());
    *wire = seg.Serialize();
    return s;
  };
  double best[2] = {1e99, 1e99};
  Bytes wire[2];
  for (int on = 0; on < 2; on++) {
    for (int rep = 0; rep < kReps; rep++) {
      Bytes w;
      best[on] = std::min(best[on], run_once(on != 0, &w));
      wire[on] = std::move(w);
    }
  }
  obs::SetEnabled(false);
  const bool identical = wire[0] == wire[1];
  const double pct = 100.0 * (best[1] - best[0]) / best[0];
  std::printf("  %-26s %10.3f s\n", "obs off", best[0]);
  std::printf("  %-26s %10.3f s  (%+.2f%%)\n", "obs on", best[1], pct);
  std::printf("  serialized server log bit-identical: %s (%zu bytes)\n",
              identical ? "yes" : "NO (BUG)", wire[0].size());
  json.Add("telemetry_overhead_pct", pct, "%");
  json.Add("telemetry_log_identical", identical ? 1 : 0, "bool");
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 6: CPU utilization split per configuration",
                   "logging daemon <8% of one HT; machine average ~12.5%");
  avm::PrintScaleNote();
  avm::Run();
  avm::BenchJson json("fig6_cpu");
  avm::RunReplaySpeed(json);
  avm::RunTelemetryOverhead(json);
  return 0;
}
