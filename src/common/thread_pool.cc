#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace dnlr::common {
namespace {

/// One spin-wait pause. On x86 this is the PAUSE instruction, which tells
/// the core a busy-wait is in progress (saves power, yields pipeline slots
/// to the sibling hyperthread and avoids the memory-order mis-speculation
/// stall on loop exit); elsewhere it degrades to a compiler barrier.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Spin budget shared by the worker idle loop and the caller join: rounds
/// of exponentially growing pause bursts (1, 2, 4, ... capped at
/// kMaxPauseBurst) followed by a few sched_yield rounds. The pause phase
/// is 1 + 2 + ... + 32 + 58 * 64 = 3775 PAUSEs. Skylake-SP and later Intel
/// cores stretched PAUSE from ~10 to up to ~140 cycles, so there a sweep
/// that never sees work lasts tens of microseconds: ~86 us median (80-125
/// us, ~22 ns per PAUSE) on a shared 4-vCPU AVX-512 Xeon VM at 2.1 GHz,
/// against a few microseconds on cores with the short PAUSE. Long enough to
/// bridge the gap between back-to-back ParallelFor calls (the per-(jc, pc)
/// barrier cadence of the blocked GEMM); a task that arrives more than one
/// sweep after the last finds its worker parked.
constexpr int kSpinRounds = 64;
constexpr int kMaxPauseBurst = 64;
constexpr int kYieldRounds = 4;

/// Runs one bounded backoff sweep calling `ready()` between bursts; true
/// when `ready()` became true within the budget.
template <typename Ready>
bool SpinUntil(const Ready& ready) {
  int burst = 1;
  for (int round = 0; round < kSpinRounds; ++round) {
    if (ready()) return true;
    for (int i = 0; i < burst; ++i) CpuRelax();
    burst = std::min(burst * 2, kMaxPauseBurst);
  }
  for (int round = 0; round < kYieldRounds; ++round) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// Batch::state packs (pending_chunks << 1) | caller_waiting_bit.
constexpr uint64_t kWaiterBit = 1;
constexpr uint64_t kChunkUnit = 2;

}  // namespace

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(std::max(num_threads, 1u)) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t w = 0; w + 1 < num_threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
    // Every live ParallelFor call holds its Batch on the caller's stack and
    // waits for its chunks, so the queue can only be non-empty here if a
    // caller destroyed the pool mid-call — a usage bug worth failing loudly.
    DNLR_CHECK(queue_.empty()) << "ThreadPool destroyed with queued work";
  }
  // Release ordering: spinning workers that observe the signal must also
  // observe stopping_ == true once they take queue_mu_ (the mutex itself
  // orders that; release here keeps the mirror coherent on its own too).
  stop_signal_.store(true, std::memory_order_release);
  // Shutdown is the one legitimate broadcast: every sleeper must exit.
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

uint32_t ThreadPool::HardwareThreads() {
  return std::max(std::thread::hardware_concurrency(), 1u);
}

ThreadPool::Stats ThreadPool::GetStats() const {
  Stats stats;
  // Relaxed: monotonic statistics, read for reporting/tests only; no other
  // memory is published through them.
  stats.tasks_run = stat_tasks_run_.load(std::memory_order_relaxed);
  stats.notifies = stat_notifies_.load(std::memory_order_relaxed);
  stats.blocks = stat_blocks_.load(std::memory_order_relaxed);
  stats.empty_wakeups = stat_empty_wakeups_.load(std::memory_order_relaxed);
  return stats;
}

void ThreadPool::ChunkRange(uint64_t count, uint32_t num_chunks,
                            uint32_t chunk, uint64_t* begin, uint64_t* end) {
  // Balanced split: the first (count % num_chunks) chunks get one extra
  // index. Deterministic in (count, num_chunks, chunk) only.
  const uint64_t base = count / num_chunks;
  const uint64_t extra = count % num_chunks;
  *begin = chunk * base + std::min<uint64_t>(chunk, extra);
  *end = *begin + base + (chunk < extra ? 1 : 0);
}

void ThreadPool::RunChunk(Batch* batch, uint32_t chunk) {
  uint64_t begin = 0;
  uint64_t end = 0;
  ChunkRange(batch->count, batch->num_chunks, chunk, &begin, &end);
  std::exception_ptr error;
  try {
    (*batch->body)(chunk, begin, end);
  } catch (...) {
    error = std::current_exception();
  }
  if (error != nullptr) {
    // Errors are recorded before the countdown below, so the joining
    // caller's acquire on `state` also publishes this write.
    MutexLock lock(batch->error_mu);
    if (batch->error == nullptr) batch->error = error;
  }
  // Countdown join. acq_rel: the release half publishes this chunk's work
  // (and any recorded error) to whoever observes the count reach zero; the
  // acquire half chains earlier chunks' releases into the final decrementer
  // so its wake-up path is ordered after all chunk work.
  const uint64_t prev =
      batch->state.fetch_sub(kChunkUnit, std::memory_order_acq_rel);
  if (prev == (kChunkUnit | kWaiterBit)) {
    // This decrement dropped the count to zero AND the caller has committed
    // to sleeping (waiter bit set => it blocks until `done` flips under
    // `mu`), so touching the stack-owned mutex here cannot race batch
    // destruction.
    MutexLock lock(batch->mu);
    batch->done = true;
    // Notify under the lock: the caller can only observe done == true (and
    // therefore destroy the batch) after this critical section ends.
    batch->done_cv.NotifyOne();
  }
}

bool ThreadPool::TryPop(Task* task) {
  MutexLock lock(queue_mu_);
  if (queue_.empty()) return false;
  *task = queue_.front();
  queue_.pop_front();
  // Relaxed: the mirror is a spin hint only; exactness is re-established
  // under queue_mu_ by every TryPop.
  queue_size_.store(queue_.size(), std::memory_order_relaxed);
  return true;
}

bool ThreadPool::SpinForWork() const {
  return SpinUntil([this] {
    // Relaxed: both mirrors are hints — a hit is always re-validated under
    // queue_mu_, and a miss only extends the spin.
    return queue_size_.load(std::memory_order_relaxed) != 0 ||
           stop_signal_.load(std::memory_order_relaxed);
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    if (TryPop(&task)) {
      // Relaxed: statistic counter, no ordering needed.
      stat_tasks_run_.fetch_add(1, std::memory_order_relaxed);
      RunChunk(task.batch, task.chunk);
      continue;
    }
    if (SpinForWork()) {
      // Relaxed: hint only — the locked path below is authoritative. A
      // plain `continue` here would livelock on shutdown: with stop_signal_
      // set, SpinForWork returns true forever while TryPop keeps failing.
      if (!stop_signal_.load(std::memory_order_relaxed)) continue;
      // Stop signalled: fall through to the locked path, which drains any
      // remaining queue entries and exits the loop.
    }
    // Spin budget exhausted: park on the condvar until an enqueue (or
    // shutdown) wakes us. num_sleeping_ is maintained under queue_mu_, the
    // same mutex every enqueue holds, so a producer either sees the queue
    // non-empty before we wait or sees us in num_sleeping_ and notifies —
    // no lost wake-ups.
    bool have_task = false;
    {
      MutexLock lock(queue_mu_);
      // Relaxed: statistic counter, no ordering needed.
      stat_blocks_.fetch_add(1, std::memory_order_relaxed);
      bool first_wait = true;
      while (queue_.empty() && !stopping_) {
        if (!first_wait) {
          // Woken without work and not stopping: a spinner stole the
          // notified task. Relaxed: statistic counter.
          stat_empty_wakeups_.fetch_add(1, std::memory_order_relaxed);
        }
        first_wait = false;
        ++num_sleeping_;
        queue_cv_.Wait(queue_mu_);
        --num_sleeping_;
      }
      if (!queue_.empty()) {
        task = queue_.front();
        queue_.pop_front();
        // Relaxed: spin-hint mirror (see TryPop).
        queue_size_.store(queue_.size(), std::memory_order_relaxed);
        have_task = true;
      } else if (stopping_) {
        return;
      }
    }
    if (have_task) {
      // Relaxed: statistic counter, no ordering needed.
      stat_tasks_run_.fetch_add(1, std::memory_order_relaxed);
      RunChunk(task.batch, task.chunk);
    }
  }
}

void ThreadPool::ParallelFor(uint64_t count, const ChunkFn& body) {
  if (count == 0) return;
  const uint32_t num_chunks = static_cast<uint32_t>(
      std::min<uint64_t>(num_threads_, count));
  if (num_chunks == 1) {
    // Serial fast path: no queue, no locks, no worker wake-up.
    body(0, 0, count);
    return;
  }

  Batch batch;
  batch.body = &body;
  batch.count = count;
  batch.num_chunks = num_chunks;
  // Relaxed: the batch is not yet visible to any worker; publication
  // happens below under queue_mu_ (the enqueue is the release point).
  batch.state.store(static_cast<uint64_t>(num_chunks) * kChunkUnit,
                    std::memory_order_relaxed);
  uint32_t to_wake = 0;
  {
    MutexLock lock(queue_mu_);
    DNLR_CHECK(!stopping_) << "ParallelFor on a destroyed ThreadPool";
    for (uint32_t chunk = 1; chunk < num_chunks; ++chunk) {
      queue_.push_back(Task{&batch, chunk});
    }
    // Relaxed: spin-hint mirror (see TryPop); spinning workers that see it
    // re-validate under queue_mu_.
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
    // Targeted wake-ups: one notify per queued task, capped at the number
    // of actually-sleeping workers. Spinning workers need no signal — they
    // poll queue_size_ — and idle pools with zero sleepers pay zero
    // syscalls here.
    to_wake = std::min(num_sleeping_, num_chunks - 1);
  }
  for (uint32_t i = 0; i < to_wake; ++i) queue_cv_.NotifyOne();
  if (to_wake > 0) {
    // Relaxed: statistic counter, no ordering needed.
    stat_notifies_.fetch_add(to_wake, std::memory_order_relaxed);
  }

  // The caller contributes chunk 0, then joins. Workers never wait on other
  // chunks, so this cannot deadlock no matter how many threads call
  // ParallelFor concurrently.
  RunChunk(&batch, 0);

  // Acquire: observing pending == 0 must also publish every chunk's work
  // (paired with the release half of the fetch_sub in RunChunk).
  const auto chunks_done = [&batch] {
    return (batch.state.load(std::memory_order_acquire) >> 1) == 0;
  };
  if (!SpinUntil(chunks_done)) {
    // Commit to sleeping: set the waiter bit so the final decrementer takes
    // the mutex path. acq_rel: acquire pairs with chunk releases in case
    // the count hit zero in this very instant; release orders the bit for
    // the worker's prev-value check.
    const uint64_t prev =
        batch.state.fetch_or(kWaiterBit, std::memory_order_acq_rel);
    if ((prev >> 1) != 0) {
      // Chunks still pending when the bit was set: exactly one worker will
      // observe (count==0, waiter set) and flip `done` under the mutex.
      MutexLock lock(batch.mu);
      while (!batch.done) batch.done_cv.Wait(batch.mu);
    }
    // prev >> 1 == 0: the last chunk finished between the spin and the
    // fetch_or; its release is paired by the fetch_or's acquire.
  }
  {
    MutexLock lock(batch.error_mu);
    if (batch.error != nullptr) std::rethrow_exception(batch.error);
  }
}

}  // namespace dnlr::common
