//===- support/DenseBitSet.h - Fixed-universe bit set ----------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit set over a fixed universe [0, N). Used for PRE's bit-vector
/// availability problem and for tag universes; also home of popcount64,
/// which the allocator's flat bit-matrix graph counts degrees with.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SUPPORT_DENSEBITSET_H
#define RPCC_SUPPORT_DENSEBITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpcc {

/// Bits set in \p X. Branch-free and inline: without a -mpopcnt target,
/// __builtin_popcountll is an out-of-line libgcc call, which the
/// allocator's per-row degree counts would pay on every word.
inline unsigned popcount64(uint64_t X) {
  X = X - ((X >> 1) & 0x5555555555555555ULL);
  X = (X & 0x3333333333333333ULL) + ((X >> 2) & 0x3333333333333333ULL);
  X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<unsigned>((X * 0x0101010101010101ULL) >> 56);
}

/// Bit \p I of a raw word array — the row layout DenseBitSet uses, shared
/// with the flat bit matrices (liveness, the interference graph) that keep
/// many rows in one vector.
inline bool testBit(const uint64_t *Words, size_t I) {
  return (Words[I / 64] >> (I % 64)) & 1;
}
inline void setBit(uint64_t *Words, size_t I) {
  Words[I / 64] |= uint64_t(1) << (I % 64);
}
inline void resetBit(uint64_t *Words, size_t I) {
  Words[I / 64] &= ~(uint64_t(1) << (I % 64));
}

/// Dense bit set with the usual set-algebra operations. All binary
/// operations require both operands to share the same universe size.
class DenseBitSet {
public:
  DenseBitSet() = default;
  explicit DenseBitSet(size_t N) : NumBits(N), Words((N + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  void resize(size_t N) {
    NumBits = N;
    Words.assign((N + 63) / 64, 0);
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return testBit(Words.data(), I);
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    setBit(Words.data(), I);
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    resetBit(Words.data(), I);
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    trimTail();
  }

  /// Union-assign. \returns true if this set changed.
  bool unionWith(const DenseBitSet &O) {
    assert(NumBits == O.NumBits && "universe mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t New = Words[I] | O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// Intersect-assign. \returns true if this set changed.
  bool intersectWith(const DenseBitSet &O) {
    assert(NumBits == O.NumBits && "universe mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t New = Words[I] & O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// Subtract-assign (this \ O). \returns true if this set changed.
  bool subtract(const DenseBitSet &O) {
    assert(NumBits == O.NumBits && "universe mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t New = Words[I] & ~O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  bool operator==(const DenseBitSet &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }
  bool operator!=(const DenseBitSet &O) const { return !(*this == O); }

  bool any() const {
    for (uint64_t W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += popcount64(W);
    return N;
  }

  /// Calls \p F(i) for every set bit i in ascending order.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t WI = 0, WE = Words.size(); WI != WE; ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        F(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

private:
  /// Clears bits beyond NumBits in the last word after setAll().
  void trimTail() {
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace rpcc

#endif // RPCC_SUPPORT_DENSEBITSET_H
