//===- support/Relation.cpp - Dense binary relations ---------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

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

Relation Relation::restrictedTo(const std::vector<unsigned> &Keep,
                                unsigned NewSize) const {
  const unsigned K = static_cast<unsigned>(Keep.size());
  assert(K <= NewSize && "restriction larger than its universe");
  Relation Result(NewSize);
  for (unsigned I = 0; I != K; ++I) {
    assert(Keep[I] < NumElems && (I == 0 || Keep[I - 1] < Keep[I]) &&
           "kept elements must be in range and strictly ascending");
    // Successors and Keep both ascend: one merge finds the kept ones.
    unsigned J = 0;
    forEachSuccessor(Keep[I], [&](unsigned Succ) {
      while (J != K && Keep[J] < Succ)
        ++J;
      if (J != K && Keep[J] == Succ)
        Result.set(I, J);
    });
  }
  return Result;
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
