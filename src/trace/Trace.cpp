//===- trace/Trace.cpp - Always-on tracing: spans, rings, registry --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>

using namespace txdpor;
using namespace txdpor::trace;

std::atomic<uint32_t> txdpor::trace::detail::EnabledMask{0};

namespace {

/// The per-thread SPSC ring. The owning thread produces (emit); the
/// snapshotting thread consumes (read). Write/Read are monotonically
/// increasing record counts — never reduced modulo capacity — so fullness
/// is simply Write - Read == capacity, with no wrap ambiguity.
struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t Tid, size_t Capacity)
      : Tid(Tid), Slots(Capacity) {}

  const uint32_t Tid;
  std::vector<Record> Slots;
  std::atomic<uint64_t> Write{0};   ///< Producer-owned, consumer-read.
  std::atomic<uint64_t> Read{0};    ///< Consumer-owned, producer-read.
  std::atomic<uint64_t> Dropped{0}; ///< Producer-written, consumer-read.
  std::string ThreadName;           ///< Guarded by the registry mutex.

  /// Producer side: store into the next slot or count a drop. Lock-free,
  /// allocation-free.
  void push(const Record &R) {
    uint64_t W = Write.load(std::memory_order_relaxed);
    uint64_t Rd = Read.load(std::memory_order_acquire);
    if (W - Rd >= Slots.size()) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slots[W % Slots.size()] = R;
    Write.store(W + 1, std::memory_order_release);
  }

  /// Consumer side: copy out [Read, Write). Only reads slots published by
  /// the producer's release store; with \p Consume it advances Read so the
  /// producer may reuse them.
  void read(std::vector<Record> &Out, bool Consume) {
    uint64_t W = Write.load(std::memory_order_acquire);
    uint64_t Rd = Read.load(std::memory_order_relaxed);
    Out.clear();
    Out.reserve(W - Rd);
    for (uint64_t I = Rd; I != W; ++I)
      Out.push_back(Slots[I % Slots.size()]);
    if (Consume)
      Read.store(W, std::memory_order_release);
  }
};

/// Process-wide buffer registry. Buffers are owned here (shared_ptr), so
/// records survive the owning thread's exit — the parallel explorer joins
/// its workers long before the CLI writes the dump.
struct Registry {
  std::mutex Mu;
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  size_t Capacity = DefaultCapacity;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();

  static Registry &get() {
    static Registry *R = new Registry; // Never destroyed: emitters may
    return *R;                         // outlive static destruction order.
  }
};

/// The calling thread's registered buffer; null until its first record.
thread_local ThreadBuffer *LocalBuf = nullptr;
/// The calling thread's setThreadName() name, copied into its buffer when
/// that registers — so naming a thread that never records costs no ring.
thread_local std::string LocalName;

/// The calling thread's buffer, created and registered on first use.
ThreadBuffer &localBuffer() {
  if (!LocalBuf) {
    Registry &R = Registry::get();
    std::lock_guard<std::mutex> Lock(R.Mu);
    auto Buf = std::make_shared<ThreadBuffer>(
        static_cast<uint32_t>(R.Buffers.size() + 1), R.Capacity);
    Buf->ThreadName = LocalName;
    R.Buffers.push_back(Buf);
    LocalBuf = Buf.get();
  }
  return *LocalBuf;
}

} // namespace

const char *txdpor::trace::categoryName(Category C) {
  switch (C) {
  case Category::Explore:
    return "explore";
  case Category::Swap:
    return "swap";
  case Category::Check:
    return "check";
  case Category::Replay:
    return "replay";
  case Category::Parallel:
    return "parallel";
  case Category::Fuzz:
    return "fuzz";
  }
  return "?";
}

std::optional<uint32_t> txdpor::trace::parseCategories(const std::string &Spec,
                                                       std::string *BadToken) {
  uint32_t Mask = 0;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Tok = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() + 1 : Comma + 1;
    if (Tok == "all") {
      Mask |= AllCategories;
      continue;
    }
    bool Found = false;
    for (unsigned C = 0; C != NumCategories; ++C)
      if (Tok == categoryName(static_cast<Category>(C))) {
        Mask |= 1u << C;
        Found = true;
        break;
      }
    if (!Found) {
      if (BadToken)
        *BadToken = Tok;
      return std::nullopt;
    }
  }
  return Mask;
}

const char *txdpor::trace::name(Name N) {
  switch (N) {
  case Name::ExpandItem:
    return "expand";
  case Name::ValidWrites:
    return "valid_writes";
  case Name::CommitFanout:
    return "commit_fanout";
  case Name::SwapChild:
    return "swap_child";
  case Name::ReadsLatest:
    return "reads_latest";
  case Name::BulkRebuild:
    return "bulk_rebuild";
  case Name::PrefixReplay:
    return "prefix_replay";
  case Name::ReplayCursors:
    return "replay_cursors";
  case Name::SplitPhase:
    return "split_phase";
  case Name::Worker:
    return "worker";
  case Name::Idle:
    return "idle";
  case Name::Steal:
    return "steal";
  case Name::Pending:
    return "pending";
  case Name::FuzzCase:
    return "fuzz_case";
  }
  return "?";
}

void txdpor::trace::start(uint32_t Mask, size_t CapacityPerThread) {
  assert(CapacityPerThread > 0 && "trace ring needs at least one slot");
  Registry &R = Registry::get();
  // Disable first so in-flight emitters (there should be none — see the
  // session contract) stop before buffers are reset.
  detail::EnabledMask.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(R.Mu);
    R.Capacity = CapacityPerThread;
    for (auto &Buf : R.Buffers) {
      if (Buf->Slots.size() != CapacityPerThread)
        Buf->Slots.assign(CapacityPerThread, Record());
      Buf->Write.store(0, std::memory_order_relaxed);
      Buf->Read.store(0, std::memory_order_relaxed);
      Buf->Dropped.store(0, std::memory_order_relaxed);
    }
    R.Epoch = std::chrono::steady_clock::now();
  }
  detail::EnabledMask.store(Mask & AllCategories, std::memory_order_relaxed);
}

void txdpor::trace::stop() {
  detail::EnabledMask.store(0, std::memory_order_relaxed);
}

uint64_t txdpor::trace::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Registry::get().Epoch)
          .count());
}

void txdpor::trace::emitSpan(Category C, Name N, uint64_t StartNs,
                             uint64_t EndNs, uint64_t Arg0, uint64_t Arg1) {
  if (!enabled(C))
    return;
  Record R;
  R.StartNs = StartNs;
  R.EndNs = EndNs;
  R.Arg0 = Arg0;
  R.Arg1 = Arg1;
  R.Id = N;
  R.Cat = C;
  R.Kind = RecordKind::Span;
  localBuffer().push(R);
}

void txdpor::trace::emitInstant(Category C, Name N, uint64_t Arg0,
                                uint64_t Arg1) {
  if (!enabled(C))
    return;
  Record R;
  R.StartNs = nowNs();
  R.Arg0 = Arg0;
  R.Arg1 = Arg1;
  R.Id = N;
  R.Cat = C;
  R.Kind = RecordKind::Instant;
  localBuffer().push(R);
}

void txdpor::trace::emitCounterSample(Category C, Name N, uint64_t Value) {
  if (!enabled(C))
    return;
  Record R;
  R.StartNs = nowNs();
  R.Arg0 = Value;
  R.Id = N;
  R.Cat = C;
  R.Kind = RecordKind::Counter;
  localBuffer().push(R);
}

void txdpor::trace::setThreadName(const std::string &ThreadName) {
  LocalName = ThreadName;
  if (!LocalBuf)
    return;
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> Lock(R.Mu);
  LocalBuf->ThreadName = ThreadName;
}

size_t Snapshot::totalRecords() const {
  size_t N = 0;
  for (const ThreadRecords &T : Threads)
    N += T.Records.size();
  return N;
}

uint64_t Snapshot::totalDropped() const {
  uint64_t N = 0;
  for (const ThreadRecords &T : Threads)
    N += T.Dropped;
  return N;
}

Snapshot txdpor::trace::snapshot(bool Consume) {
  Registry &R = Registry::get();
  Snapshot Snap;
  std::lock_guard<std::mutex> Lock(R.Mu);
  Snap.CapacityPerThread = R.Capacity;
  Snap.Threads.reserve(R.Buffers.size());
  for (auto &Buf : R.Buffers) {
    ThreadRecords T;
    T.Tid = Buf->Tid;
    T.ThreadName = Buf->ThreadName;
    T.Dropped = Buf->Dropped.load(std::memory_order_relaxed);
    Buf->read(T.Records, Consume);
    Snap.Threads.push_back(std::move(T));
  }
  return Snap;
}
