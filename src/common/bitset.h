/// \file bitset.h
/// A runtime-sized set of small indices packed into 64-bit words.
///
/// Routers keep their per-output arbitration flags in these: one word
/// covers up to 64 outputs, and wider routers (a DPS column of more than
/// 64 nodes) take one more word per 64 outputs. The first word lives
/// inline, so the per-cycle checks of a router with at most 64 outputs
/// never leave the router object. Iteration visits members in ascending
/// index order, so a walk over the set sees outputs in the same order as
/// a plain index loop would.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace taqos {

class Bitset {
  public:
    /// Size the set for indices [0, n) and empty it.
    void resize(std::size_t n)
    {
        size_ = n;
        first_ = 0;
        rest_.assign(n > 64 ? (n - 1) / 64 : 0, 0);
    }

    void set(std::size_t i) { word(i / 64) |= bit(i); }
    void reset(std::size_t i) { word(i / 64) &= ~bit(i); }
    bool test(std::size_t i) const
    {
        return ((i < 64 ? first_ : rest_[i / 64 - 1]) & bit(i)) != 0;
    }

    bool any() const
    {
        if (first_ != 0)
            return true;
        for (std::uint64_t w : rest_) {
            if (w != 0)
                return true;
        }
        return false;
    }
    void clear()
    {
        first_ = 0;
        for (std::uint64_t &w : rest_)
            w = 0;
    }
    /// Add every index in [0, size()).
    void fill()
    {
        for (std::size_t w = 0; w <= rest_.size(); ++w) {
            const std::size_t left = size_ - w * 64;
            word(w) = left >= 64 ? ~std::uint64_t{0} : bit(left) - 1;
        }
    }

    /// Call `f(i)` for every member i, in ascending order. `f` must not
    /// change the set.
    template <class F> void forEach(F &&f) const
    {
        visit(first_, 0, f);
        for (std::size_t w = 0; w < rest_.size(); ++w)
            visit(rest_[w], (w + 1) * 64, f);
    }

    /// Remove every member and call `f(i)` for each, in ascending order.
    /// `f` may add back the index it is visiting (it stays a member and
    /// is not visited again); it must not change any other member.
    template <class F> void drain(F &&f)
    {
        for (std::size_t w = 0; w <= rest_.size(); ++w) {
            const std::uint64_t bits = word(w);
            word(w) = 0;
            visit(bits, w * 64, f);
        }
    }

  private:
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }
    std::uint64_t &word(std::size_t w)
    {
        return w == 0 ? first_ : rest_[w - 1];
    }
    template <class F>
    static void visit(std::uint64_t bits, std::size_t base, F &f)
    {
        for (; bits != 0; bits &= bits - 1)
            f(base + static_cast<std::size_t>(std::countr_zero(bits)));
    }

    std::uint64_t first_ = 0;
    std::vector<std::uint64_t> rest_; ///< words 1.. for indices >= 64
    std::size_t size_ = 0;
};

} // namespace taqos
