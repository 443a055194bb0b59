#include "sim/shard_executor.hpp"

#include <algorithm>

#include "sim/contracts.hpp"

namespace calciom::sim {

namespace {

/// One polite spin iteration: tells the core we are in a wait loop (x86
/// PAUSE / ARM YIELD) without giving up the timeslice.
inline void cpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

ShardExecutor::ShardExecutor(unsigned workers) {
  const unsigned poolSize = std::max(1u, workers) - 1;
  threads_.reserve(poolSize);
  for (unsigned i = 0; i < poolSize; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ShardExecutor::~ShardExecutor() {
  shutdown_.store(true, std::memory_order_seq_cst);
  // +2 keeps the generation even so parked workers pass the parity check,
  // re-examine the shutdown flag, and exit.
  roundGen_.fetch_add(2, std::memory_order_seq_cst);
  roundGen_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ShardExecutor::runIndices(const IndexFn& fn, std::size_t n,
                               std::size_t chunk, std::uint64_t genTag) {
  std::uint64_t packed = claim_.load(std::memory_order_acquire);
  for (;;) {
    std::size_t begin;
    std::size_t take;
    for (;;) {
      if ((packed >> kIndexBits) != genTag) {
        return;  // stale round: never claim from a generation we didn't join
      }
      begin = static_cast<std::size_t>(packed & kIndexMask);
      if (begin >= n) {
        return;  // round exhausted
      }
      take = std::min(chunk, n - begin);
      if (claim_.compare_exchange_weak(packed, packed + take,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        break;  // claimed [begin, begin + take)
      }
    }
    for (std::size_t i = begin; i < begin + take; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
    }
    // acq_rel: publishes fn's effects (and errors_ writes) to whoever
    // observes the final count, and chains prior claimants' publications
    // through intermediate increments.
    const std::uint64_t finished =
        done_.fetch_add(take, std::memory_order_acq_rel) + take;
    if (finished == n) {
      done_.notify_all();  // only the round-completing increment wakes anyone
    }
    packed = claim_.load(std::memory_order_acquire);
  }
}

void ShardExecutor::runSerial(std::size_t n, const IndexFn& fn) {
  // Same semantics as a distributed round: every index runs even if an
  // earlier one threw; the lowest-index exception surfaces.
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
  }
}

void ShardExecutor::rethrowLowest(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (errors_[i]) {
      std::rethrow_exception(errors_[i]);
    }
  }
}

bool ShardExecutor::parallelFor(std::size_t n, IndexFn fn,
                                std::size_t workEstimate) {
  if (n == 0) {
    return false;
  }
  CALCIOM_EXPECTS(n <= kIndexMask);
  errors_.assign(n, nullptr);
  if (threads_.empty() || n == 1 || workEstimate <= kSerialWorkThreshold) {
    // Serial fast path: the pool is never woken, the round costs a loop.
    runSerial(n, fn);
    rethrowLowest(n);
    return false;
  }
  const std::uint64_t prev = roundGen_.load(std::memory_order_relaxed);
  CALCIOM_EXPECTS((prev & 1) == 0);  // rounds never overlap
  const std::uint64_t open = prev + 2;
  const std::uint64_t genTag = open & kIndexMask;
  const std::size_t chunk =
      std::max<std::size_t>(1, n / ((threads_.size() + 1) * 4));
  // Odd marker: context under construction. Workers that read any of the
  // context writes below and then the generation see at least this marker
  // and discard the read (seqlock validation in workerLoop).
  roundGen_.store(open - 1, std::memory_order_seq_cst);
  job_.store(&fn, std::memory_order_seq_cst);
  jobSize_.store(n, std::memory_order_seq_cst);
  chunkSize_.store(chunk, std::memory_order_seq_cst);
  done_.store(0, std::memory_order_relaxed);
  claim_.store(genTag << kIndexBits, std::memory_order_relaxed);
  roundGen_.store(open, std::memory_order_seq_cst);
  roundGen_.notify_all();
  runIndices(fn, n, chunk, genTag);  // the caller pulls chunks too
  // Wait for the round's last index, not for worker check-ins: a worker
  // still parked (it missed the round entirely) owes nothing.
  std::uint64_t finished = done_.load(std::memory_order_acquire);
  for (int spin = 0; finished != n && spin < kSpinIterations; ++spin) {
    cpuRelax();
    finished = done_.load(std::memory_order_acquire);
  }
  while (finished != n) {
    done_.wait(finished, std::memory_order_acquire);
    finished = done_.load(std::memory_order_acquire);
  }
  rethrowLowest(n);
  return true;
}

void ShardExecutor::workerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin-then-park until an even generation we have not joined appears.
    std::uint64_t gen = roundGen_.load(std::memory_order_seq_cst);
    for (int spin = 0; (gen == seen || (gen & 1) != 0) && spin < kSpinIterations;
         ++spin) {
      cpuRelax();
      gen = roundGen_.load(std::memory_order_seq_cst);
    }
    while (gen == seen || (gen & 1) != 0) {
      roundGen_.wait(gen, std::memory_order_seq_cst);
      gen = roundGen_.load(std::memory_order_seq_cst);
    }
    if (shutdown_.load(std::memory_order_seq_cst)) {
      return;
    }
    // Seqlock read of the round context: valid only if the generation did
    // not move while we read it.
    const IndexFn* fn = job_.load(std::memory_order_seq_cst);
    const std::size_t n = jobSize_.load(std::memory_order_seq_cst);
    const std::size_t chunk = chunkSize_.load(std::memory_order_seq_cst);
    seen = gen;
    if (roundGen_.load(std::memory_order_seq_cst) != gen) {
      continue;  // context straddled rounds; rejoin at the latest one
    }
    runIndices(*fn, n, chunk, gen & kIndexMask);
  }
}

}  // namespace calciom::sim
