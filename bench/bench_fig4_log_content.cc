// Figure 4: average log growth by content class, before and after
// compression.
//
// Paper: >70% of the AVMM log is replay information -- TimeTracker 59%,
// MAC-layer 14%, other 27% of that -- with tamper-evident logging
// responsible for the rest; bzip2 + a lossless VMM-specific compressor
// bring 8 MB/min down to 2.47 MB/min.
//
// Here the same game as Figure 3 runs for 30 simulated seconds; entries
// are bucketed by their stream and the log is compressed (a) with the
// generic LZSS stage only and (b) with the VMM-specific preprocessor
// (delta/varint of TimeTracker landmarks and values) in front.
#include <map>

#include "bench/bench_common.h"
#include "src/compress/lzss.h"
#include "src/util/serde.h"
#include "src/sim/scenario.h"
#include "src/vm/trace.h"

namespace avm {
namespace {

// The VMM-specific (application-independent) preprocessing: TimeTracker
// entries are near-arithmetic sequences of (icount, value) pairs, so they
// are split out and delta-encoded; everything else passes through.
Bytes VmmSpecificCompress(const TamperEvidentLog& log) {
  std::vector<uint64_t> tt_icounts, tt_values;
  Writer rest;
  for (const LogEntry& e : log.entries()) {
    if (e.type == EntryType::kTraceTime) {
      TraceEvent ev = TraceEvent::Deserialize(e.content);
      tt_icounts.push_back(ev.icount);
      tt_values.push_back(ev.value);
      continue;
    }
    rest.U64(e.seq);
    rest.U8(static_cast<uint8_t>(e.type));
    rest.Blob(e.content);
  }
  Writer out;
  out.Blob(EncodeDeltaVarint(tt_icounts));
  out.Blob(EncodeDeltaVarint(tt_values));
  out.Blob(rest.bytes());
  return LzssCompress(out.bytes());
}

Bytes SerializeWholeLog(const TamperEvidentLog& log) {
  Writer w;
  for (const LogEntry& e : log.entries()) {
    w.U64(e.seq);
    w.U8(static_cast<uint8_t>(e.type));
    w.Blob(e.content);
    w.Raw(e.hash.view());
  }
  return w.Take();
}

void Run() {
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.num_players = 3;
  cfg.seed = 4;
  GameScenario game(cfg);
  game.Start();
  game.RunFor(30 * kMicrosPerSecond);
  game.Finish();

  const TamperEvidentLog& log = game.player(0).log();
  // Replay-information rows are measured the way a plain VMM would store
  // them (content + 13-byte header); everything the tamper-evident layer
  // adds on top (per-entry chain hashes, message/ack/snapshot entries)
  // lands in the "tamper-evident logging" row -- the same accounting as
  // Figure 3's equivalent-plain-log line.
  std::map<EntryType, uint64_t> plain_by_type;
  uint64_t total = 0;
  uint64_t non_trace_content = 0;  // Message, ack, snapshot and info entries.
  for (const LogEntry& e : log.entries()) {
    total += e.WireSize();
    if (e.type == EntryType::kTraceTime || e.type == EntryType::kTraceMac ||
        e.type == EntryType::kTraceOther) {
      plain_by_type[e.type] += e.content.size() + 13;
    } else {
      non_trace_content += e.content.size();
    }
  }

  uint64_t tt = plain_by_type[EntryType::kTraceTime];
  uint64_t mac = plain_by_type[EntryType::kTraceMac];
  uint64_t other = plain_by_type[EntryType::kTraceOther];
  uint64_t replay = tt + mac + other;
  uint64_t tamper = total - replay;

  double minutes = static_cast<double>(game.now()) / kMicrosPerMinute;
  auto row = [&](const char* name, uint64_t b) {
    std::printf("  %-24s %10.1f KB/min   %5.1f%% of log\n", name, b / 1024.0 / minutes,
                100.0 * static_cast<double>(b) / static_cast<double>(total));
  };
  row("TimeTracker", tt);
  row("MAC layer", mac);
  row("other replay info", other);
  row("tamper-evident logging", tamper);
  PrintRule();
  row("total (uncompressed)", total);
  const double replay_share = 100.0 * static_cast<double>(replay) / static_cast<double>(total);
  std::printf("\n  replay info share: %.1f%% (paper: >70%%)\n", replay_share);
  std::printf("  TimeTracker share of replay info: %.1f%% (paper: dominant)\n",
              100.0 * static_cast<double>(tt) / static_cast<double>(replay));

  Bytes raw = SerializeWholeLog(log);
  Bytes generic = LzssCompress(raw);
  Bytes vmm = VmmSpecificCompress(log);
  std::printf("\n  compression (player log, %.0f KB raw):\n", raw.size() / 1024.0);
  std::printf("    generic LZSS:                 %8.1f KB  (%.2fx)\n", generic.size() / 1024.0,
              static_cast<double>(raw.size()) / static_cast<double>(generic.size()));
  std::printf("    VMM-specific + LZSS:          %8.1f KB  (%.2fx)\n", vmm.size() / 1024.0,
              static_cast<double>(raw.size()) / static_cast<double>(vmm.size()));
  std::printf("    compressed growth:            %8.1f KB/min (paper: 8 -> 2.47 MB/min)\n",
              vmm.size() / 1024.0 / minutes);
  // The paper's two claims, checked rather than asserted.
  if (replay_share > 50.0) {
    std::printf("  shape check vs paper: replay info dominates the log: holds (%.1f%%).\n",
                replay_share);
  } else {
    std::printf("  shape check vs paper: KNOWN DEVIATION: replay info is %.1f%% of the\n",
                replay_share);
    std::printf("  log, not the dominant part: per-entry chain hashes and headers take\n");
    std::printf("  %.1f%% and message, ack and snapshot entries %.1f%%.\n",
                100.0 * static_cast<double>(tamper - non_trace_content) /
                    static_cast<double>(total),
                100.0 * static_cast<double>(non_trace_content) / static_cast<double>(total));
  }
  if (vmm.size() < generic.size()) {
    std::printf("  shape check vs paper: the VMM-aware stage beats generic compression:\n");
    std::printf("  holds.\n");
  } else {
    std::printf("  shape check vs paper: KNOWN DEVIATION: the VMM-aware stage does not beat\n");
    std::printf("  generic compression here.\n");
  }
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 4: average log growth by content (avmm-rsa768 game)",
                   "TimeTracker 59% / MAC 14% / other 27% of replay info; compression ~3.2x");
  avm::PrintScaleNote();
  avm::Run();
  return 0;
}
