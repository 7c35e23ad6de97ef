//===- support/Relation.h - Dense binary relations over small universes --===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense boolean matrix representing a binary relation over a universe
/// {0, ..., N-1}. Histories in this project are small (tens of
/// transactions), so a bit-matrix with word-parallel row operations is both
/// the simplest and the fastest representation for the relational algebra
/// the consistency checkers need: union, composition, transitive closure,
/// acyclicity, and topological enumeration.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_SUPPORT_RELATION_H
#define TXDPOR_SUPPORT_RELATION_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace txdpor {

/// A dense binary relation over {0, ..., size()-1} stored as a bit matrix.
///
/// Row i holds the successor set of element i. All mutating operations keep
/// unused tail bits of each row zeroed, so whole-word equality and popcount
/// are valid.
class Relation {
public:
  Relation() = default;

  /// Creates an empty relation over a universe of \p N elements.
  explicit Relation(unsigned N)
      : NumElems(N), WordsPerRow((N + 63) / 64),
        Bits(static_cast<size_t>(NumElems) * WordsPerRow, 0) {}

  unsigned size() const { return NumElems; }

  bool get(unsigned From, unsigned To) const {
    assert(From < NumElems && To < NumElems && "relation index out of range");
    return (row(From)[To / 64] >> (To % 64)) & 1;
  }

  void set(unsigned From, unsigned To) {
    assert(From < NumElems && To < NumElems && "relation index out of range");
    row(From)[To / 64] |= uint64_t(1) << (To % 64);
  }

  void clear(unsigned From, unsigned To) {
    assert(From < NumElems && To < NumElems && "relation index out of range");
    row(From)[To / 64] &= ~(uint64_t(1) << (To % 64));
  }

  /// Adds every successor of \p Src to the successors of \p Dst (one
  /// word-parallel row union — the kernel of incremental transitive
  /// closure maintenance).
  void orRow(unsigned Dst, unsigned Src) {
    assert(Dst < NumElems && Src < NumElems && "relation index out of range");
    uint64_t *D = row(Dst);
    const uint64_t *S = row(Src);
    for (unsigned W = 0; W != WordsPerRow; ++W)
      D[W] |= S[W];
  }

  /// The bit words of row \p I ((size() + 63) / 64 of them, tail bits
  /// zero) — the successor set for word-parallel reads.
  const uint64_t *rowWords(unsigned I) const {
    assert(I < NumElems && "relation index out of range");
    return row(I);
  }

  /// Returns the restriction to the elements \p Keep (strictly ascending),
  /// renumbered so Keep[I] becomes I, over a universe of \p NewSize >=
  /// Keep.size() elements. Costs one pass over the kept rows' pairs.
  Relation restrictedTo(const std::vector<unsigned> &Keep,
                        unsigned NewSize) const;

  /// Adds every pair of \p Other into this relation. Universes must match.
  void unionWith(const Relation &Other) {
    assert(Other.NumElems == NumElems && "universe mismatch in unionWith");
    for (size_t I = 0, E = Bits.size(); I != E; ++I)
      Bits[I] |= Other.Bits[I];
  }

  /// Returns the union of two relations over the same universe.
  static Relation unionOf(const Relation &A, const Relation &B) {
    Relation R = A;
    R.unionWith(B);
    return R;
  }

  /// Returns the composition {(a, c) | exists b. (a,b) in this and (b,c)
  /// in \p Other}.
  Relation composeWith(const Relation &Other) const;

  /// Computes the transitive closure in place (Floyd–Warshall on bit rows).
  void closeTransitively();

  /// Returns the transitive closure of this relation.
  Relation transitiveClosure() const {
    Relation R = *this;
    R.closeTransitively();
    return R;
  }

  /// Adds the identity pairs (i, i) for every element.
  void addReflexive() {
    for (unsigned I = 0; I != NumElems; ++I)
      set(I, I);
  }

  /// Returns true if the relation (viewed as a directed graph) has no
  /// cycle. Self-loops count as cycles.
  bool isAcyclic() const;

  /// Returns true if the relation relates every ordered pair of distinct
  /// elements one way or the other (i.e. it is total when antisymmetric).
  bool isTotalOrderCandidate() const;

  /// Appends one topological order of the graph to \p Out and returns true,
  /// or returns false if the graph has a cycle.
  bool topologicalOrder(std::vector<unsigned> &Out) const;

  /// Returns the successor set of \p From as an index list, ascending.
  std::vector<unsigned> successors(unsigned From) const;

  /// Calls \p Fn(to) for every successor of \p From, ascending.
  template <typename FnT> void forEachSuccessor(unsigned From, FnT Fn) const {
    const uint64_t *R = row(From);
    for (unsigned W = 0; W != WordsPerRow; ++W) {
      uint64_t Word = R[W];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        Fn(W * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }

  /// Number of pairs in the relation.
  unsigned countPairs() const {
    unsigned N = 0;
    for (uint64_t W : Bits)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  bool operator==(const Relation &Other) const {
    return NumElems == Other.NumElems && Bits == Other.Bits;
  }
  bool operator!=(const Relation &Other) const { return !(*this == Other); }

private:
  uint64_t *row(unsigned I) {
    return Bits.data() + static_cast<size_t>(I) * WordsPerRow;
  }
  const uint64_t *row(unsigned I) const {
    return Bits.data() + static_cast<size_t>(I) * WordsPerRow;
  }

  unsigned NumElems = 0;
  unsigned WordsPerRow = 0;
  std::vector<uint64_t> Bits;
};

} // namespace txdpor

#endif // TXDPOR_SUPPORT_RELATION_H
