//===- support/Relation.cpp - Dense binary relations ---------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

#include <algorithm>

using namespace txdpor;

Relation Relation::composeWith(const Relation &Other) const {
  assert(Other.NumElems == NumElems && "universe mismatch in composeWith");
  Relation Result(NumElems);
  for (unsigned A = 0; A != NumElems; ++A) {
    uint64_t *Out = Result.row(A);
    forEachSuccessor(A, [&](unsigned B) {
      const uint64_t *Mid = Other.row(B);
      for (unsigned W = 0; W != WordsPerRow; ++W)
        Out[W] |= Mid[W];
    });
  }
  return Result;
}

void Relation::runsOf(const std::vector<unsigned> &Keep,
                      std::vector<Run> &Out) {
  Out.clear();
  for (unsigned J = 0, K = static_cast<unsigned>(Keep.size()); J != K; ++J) {
    assert((J == 0 || Keep[J - 1] < Keep[J]) &&
           "kept elements must be strictly ascending");
    if (!Out.empty() && Out.back().From + Out.back().Len == Keep[J])
      ++Out.back().Len;
    else
      Out.push_back({Keep[J], J, 1});
  }
}

namespace {

/// Bits [Pos, Pos + N) of \p Row, 1 <= N <= 64, as the low bits.
uint64_t extractBits(const uint64_t *Row, unsigned Pos, unsigned N) {
  unsigned W = Pos / 64, B = Pos % 64;
  uint64_t V = Row[W] >> B;
  if (B && B + N > 64)
    V |= Row[W + 1] << (64 - B);
  return N == 64 ? V : V & ((uint64_t(1) << N) - 1);
}

/// Overwrites bits [Pos, Pos + N) of \p Row, 1 <= N <= 64, with the low
/// bits of \p V (no higher bit of V set).
void depositBits(uint64_t *Row, unsigned Pos, unsigned N, uint64_t V) {
  unsigned W = Pos / 64, B = Pos % 64;
  uint64_t Mask = N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1;
  Row[W] = (Row[W] & ~(Mask << B)) | (V << B);
  if (B && B + N > 64) {
    uint64_t High = (uint64_t(1) << (B + N - 64)) - 1;
    Row[W + 1] = (Row[W + 1] & ~High) | (V >> (64 - B));
  }
}

} // namespace

void Relation::compactBits(uint64_t *Row, unsigned Words,
                           const std::vector<Run> &Runs) {
  // Runs ascend and To <= From: each 64-bit chunk is read whole before it
  // is written at or below where it was, and no later chunk lies there.
  unsigned K = 0;
  for (const Run &R : Runs) {
    assert(R.To == K && R.From + R.Len <= Words * 64 && "runs out of order");
    if (R.From != R.To)
      for (unsigned Off = 0; Off < R.Len; Off += 64) {
        unsigned N = std::min(64u, R.Len - Off);
        depositBits(Row, R.To + Off, N, extractBits(Row, R.From + Off, N));
      }
    K = R.To + R.Len;
  }
  if (K % 64)
    Row[K / 64] &= (uint64_t(1) << (K % 64)) - 1;
  for (unsigned W = (K + 63) / 64; W < Words; ++W)
    Row[W] = 0;
}

void Relation::compact(const std::vector<Run> &Runs, unsigned OldSize) {
  assert(OldSize <= NumElems && "compaction out of range");
  // Row From + J moves to row To + J <= From + J; runs ascend, so a row is
  // never overwritten before it has moved.
  unsigned K = 0;
  for (const Run &R : Runs) {
    assert(R.From + R.Len <= OldSize && "runs out of range");
    for (unsigned J = 0; J != R.Len; ++J) {
      if (R.From != R.To)
        std::copy(row(R.From + J), row(R.From + J) + WordsPerRow,
                  row(R.To + J));
      compactBits(row(R.To + J), WordsPerRow, Runs);
    }
    K = R.To + R.Len;
  }
  std::fill(row(K), row(OldSize), 0);
}

void Relation::grow(unsigned NewSize) {
  assert(NewSize >= NumElems && "grow cannot shrink the universe");
  Relation Wider(NewSize);
  for (unsigned I = 0; I != NumElems; ++I)
    std::copy(row(I), row(I) + WordsPerRow, Wider.row(I));
  *this = std::move(Wider);
}

void Relation::closeTransitively() {
  // Floyd–Warshall specialized to bit rows: if (I, K) holds, row(I) absorbs
  // row(K).
  for (unsigned K = 0; K != NumElems; ++K) {
    const uint64_t *RowK = row(K);
    for (unsigned I = 0; I != NumElems; ++I) {
      if (!get(I, K))
        continue;
      uint64_t *RowI = row(I);
      for (unsigned W = 0; W != WordsPerRow; ++W)
        RowI[W] |= RowK[W];
    }
  }
}

bool Relation::isAcyclic() const {
  std::vector<unsigned> Order;
  return topologicalOrder(Order);
}

bool Relation::isTotalOrderCandidate() const {
  for (unsigned A = 0; A != NumElems; ++A)
    for (unsigned B = A + 1; B != NumElems; ++B)
      if (!get(A, B) && !get(B, A))
        return false;
  return true;
}

bool Relation::topologicalOrder(std::vector<unsigned> &Out) const {
  // Kahn's algorithm over the bit matrix.
  std::vector<unsigned> InDegree(NumElems, 0);
  for (unsigned A = 0; A != NumElems; ++A)
    forEachSuccessor(A, [&](unsigned B) { ++InDegree[B]; });

  std::vector<unsigned> Ready;
  Ready.reserve(NumElems);
  for (unsigned A = 0; A != NumElems; ++A)
    if (InDegree[A] == 0)
      Ready.push_back(A);

  size_t Emitted = Out.size();
  while (!Ready.empty()) {
    unsigned A = Ready.back();
    Ready.pop_back();
    Out.push_back(A);
    forEachSuccessor(A, [&](unsigned B) {
      if (--InDegree[B] == 0)
        Ready.push_back(B);
    });
  }
  if (Out.size() - Emitted != NumElems) {
    Out.resize(Emitted);
    return false;
  }
  return true;
}

std::vector<unsigned> Relation::successors(unsigned From) const {
  std::vector<unsigned> Result;
  forEachSuccessor(From, [&](unsigned To) { Result.push_back(To); });
  return Result;
}
