// The traced run: per-layer metrics from re-driving each module's public
// functions over one recording of the workload.
#ifndef AVMBENCH_SRC_LAYERS_H_
#define AVMBENCH_SRC_LAYERS_H_

#include <cstdint>

#include "avmbench/src/common.h"
#include "avmbench/src/workload.h"

namespace avmbench {

// Signatures an audit of the recording's machine has to verify: payload
// signatures of SEND/RECV entries, ACK authenticator signatures, and the
// collected authenticators. An exact count (0 without RSA).
uint64_t CountSignatures(const avm::LogSegment& log, std::span<const avm::Authenticator> auths);

// Runs the per-layer passes over `art` (whose log is `log`, audited with
// `auths`) for opt.seconds and fills `out` with every per-layer metric.
// Writes the run's spans to `trace_path`.
void RunLayers(const WorkloadSpec& spec, const Options& opt, Recording& art,
               const avm::LogSegment& log, std::span<const avm::Authenticator> auths,
               const std::string& trace_path, Ledger& ledger, RunResult* out);

}  // namespace avmbench

#endif  // AVMBENCH_SRC_LAYERS_H_
