// Background signing pipeline for SignMode::kAsync: the record/send hot
// path enqueues (seq, chain hash) pairs and returns after the cheap
// SHA-256 chain append; a dedicated signer thread (a 2-thread
// src/util/threadpool.h pool: one worker plus the caller on barriers)
// produces the RSA authenticator signatures in the background.
//
// The queue is bounded: once max_inflight requests are outstanding,
// Enqueue blocks (draining the queue alongside the worker) so a burst
// cannot grow the unsigned tail without limit. Barrier() is the
// Flush()/Finish() synchronization point: after it returns, every
// enqueued commitment is available from Drain().
//
// Thread-safety: Sign runs on the worker while the owning thread keeps
// appending/verifying; this is safe because the signer's key material is
// immutable after construction.
#ifndef SRC_AVMM_ASYNC_SIGNER_H_
#define SRC_AVMM_ASYNC_SIGNER_H_

#include <mutex>
#include <utility>
#include <vector>

#include "src/crypto/keys.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tel/log.h"
#include "src/util/threadpool.h"

namespace avm {

class AsyncSignPipeline {
 public:
  AsyncSignPipeline(NodeId node, const Signer* signer, size_t max_inflight = 64)
      : node_(std::move(node)), signer_(signer), max_inflight_(max_inflight), pool_(2) {
    auto& reg = obs::Registry::Global();
    const obs::Labels labels{{"node", std::string(node_)}};
    queue_depth_ = reg.GetGauge("signer_queue_depth", labels);
    signed_counter_ = reg.GetCounter("signer_signed_total", labels);
  }

  ~AsyncSignPipeline() { pool_.Wait(); }

  AsyncSignPipeline(const AsyncSignPipeline&) = delete;
  AsyncSignPipeline& operator=(const AsyncSignPipeline&) = delete;

  // Queues the signature over the authenticator payload for (seq, hash).
  // Blocks only when the bounded queue is full.
  void Enqueue(uint64_t seq, const Hash256& hash) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (inflight_ >= max_inflight_) {
        lock.unlock();
        pool_.Wait();  // Backpressure: help drain, then continue.
        lock.lock();
      }
      inflight_++;
      queue_depth_->Set(static_cast<int64_t>(inflight_));
    }
    pool_.Submit([this, seq, hash] {
      Authenticator a;
      a.node = node_;
      a.seq = seq;
      a.hash = hash;
      {
        obs::Span span(obs::kPhaseSignerSign, "signer");
        a.signature = signer_->SignDigest(Authenticator::SignedPayloadDigest(node_, seq, hash));
      }
      signed_counter_->Inc();
      std::lock_guard<std::mutex> g(mu_);
      done_.push_back(std::move(a));
      inflight_--;
      queue_depth_->Set(static_cast<int64_t>(inflight_));
    });
  }

  // Completed commitments, in completion order. Non-blocking.
  std::vector<Authenticator> Drain() {
    std::lock_guard<std::mutex> g(mu_);
    return std::exchange(done_, {});
  }

  // Blocks until every enqueued signature has been produced.
  void Barrier() { pool_.Wait(); }

 private:
  NodeId node_;
  const Signer* signer_;
  size_t max_inflight_;
  mutable std::mutex mu_;
  std::vector<Authenticator> done_;
  size_t inflight_ = 0;
  // Registry-owned telemetry (stable pointers; signer metrics survive
  // the pipeline because async signers are per-run, metrics per-node).
  obs::Gauge* queue_depth_ = nullptr;
  obs::Counter* signed_counter_ = nullptr;
  ThreadPool pool_;
};

}  // namespace avm

#endif  // SRC_AVMM_ASYNC_SIGNER_H_
