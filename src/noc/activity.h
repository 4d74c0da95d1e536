/// \file activity.h
/// Activity-tracking schedules shared by the routers, the ports and the
/// simulation engine. Three structures let the activity-driven engine do
/// work per event instead of per cycle:
///   - ActivityWorklist::pending: routers arm themselves when an event
///     gives them work (a flit arrival, an injector enqueue, a transfer
///     start); the engine merges the arms into its sorted active list
///     once per cycle and ticks only the listed routers;
///   - CompletionCalendar: every transfer is filed by the cycle its tail
///     departs, so the completion phase visits exactly the transfers due;
///   - EjectionList: terminal and handoff buffers arm themselves when a
///     VC is reserved into them, so the ejection phase polls only
///     buffers holding a packet.
/// Work that is not scheduled is provably a no-op — the cornerstone of
/// the activity-driven hot path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace taqos {

class OutputPort;

/// A timing wheel of in-flight transfers keyed by tail-departure cycle.
/// Entries due at the same cycle complete in (node, output index) order —
/// the order a per-router, per-output sweep visits them — so every
/// side effect (freed VCs, trace events) is sequenced exactly as in the
/// always-tick engine. A cancelled transfer leaves its entry behind; it
/// completes nothing when it comes due (the output's own tail-departure
/// check makes it a no-op).
class CompletionCalendar {
  public:
    struct Entry {
        std::uint64_t order = 0; ///< (node << 32) | output index
        OutputPort *out = nullptr;
    };

    static std::uint64_t orderKey(NodeId node, int outIdx)
    {
        return (static_cast<std::uint64_t>(node) << 32) |
               static_cast<std::uint32_t>(outIdx);
    }

    /// Engines that never drain the wheel (the always-tick reference)
    /// switch filing off so nothing accumulates.
    void setEnabled(bool on) { enabled_ = on; }

    /// File `out`'s transfer, whose tail departs at `due`.
    void file(OutputPort *out, std::uint64_t order, Cycle due)
    {
        if (!enabled_)
            return;
        TAQOS_ASSERT(due >= next_, "transfer due at %llu files behind the "
                     "wheel (next %llu)",
                     static_cast<unsigned long long>(due),
                     static_cast<unsigned long long>(next_));
        while (due - next_ >= buckets_.size())
            grow();
        buckets_[due & (buckets_.size() - 1)].push_back(Entry{order, out});
    }

    /// Hand every entry due at `now` to `complete`, in completion order,
    /// and advance the wheel past `now`. Called once per cycle.
    template <typename Fn>
    void drain(Cycle now, Fn &&complete)
    {
        TAQOS_ASSERT(now == next_, "calendar drained out of order");
        std::vector<Entry> &bucket = buckets_[now & (buckets_.size() - 1)];
        if (!bucket.empty()) {
            std::sort(bucket.begin(), bucket.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.order < b.order;
                      });
            for (const Entry &e : bucket)
                complete(*e.out);
            bucket.clear();
        }
        next_ = now + 1;
    }

    /// Empty the wheel; the next drain is for cycle `next` (checkpoint
    /// restore refiles the restored transfers afterwards).
    void reset(Cycle next)
    {
        for (auto &bucket : buckets_)
            bucket.clear();
        next_ = next;
    }

    /// Is `out` filed for cycle `due`? (invariant checks)
    bool holds(const OutputPort *out, Cycle due) const
    {
        if (due < next_ || due - next_ >= buckets_.size())
            return false;
        for (const Entry &e : buckets_[due & (buckets_.size() - 1)])
            if (e.out == out)
                return true;
        return false;
    }

  private:
    /// Double the wheel, rehoming every pending bucket (bucket i holds
    /// the one cycle in [next_, next_ + size) congruent to i).
    void grow()
    {
        const std::size_t oldSize = buckets_.size();
        std::vector<std::vector<Entry>> wider(oldSize * 2);
        for (std::size_t i = 0; i < oldSize; ++i) {
            const Cycle at = next_ + ((i - next_) & (oldSize - 1));
            wider[at & (wider.size() - 1)] = std::move(buckets_[i]);
        }
        buckets_ = std::move(wider);
    }

    std::vector<std::vector<Entry>> buckets_ =
        std::vector<std::vector<Entry>>(16);
    Cycle next_ = 0;
    bool enabled_ = false;
};

/// Fold the ids armed since the last merge into a sorted active list.
/// Ascending order is load-bearing: the always-tick engine visits routers
/// and buffers by ascending id, and same-cycle mutations (a grant at
/// router A dirtying router B) must stay ordered identically.
template <typename Id>
void
mergeArms(std::vector<Id> &active, std::vector<Id> &pending)
{
    if (pending.empty())
        return;
    std::sort(pending.begin(), pending.end());
    const auto mid = static_cast<std::ptrdiff_t>(active.size());
    active.insert(active.end(), pending.begin(), pending.end());
    std::inplace_merge(active.begin(), active.begin() + mid, active.end());
    pending.clear();
}

struct ActivityWorklist {
    /// Node ids armed since the engine last merged (unsorted, no
    /// duplicates — each router tracks its own membership flag).
    std::vector<NodeId> pending;
    /// Transfers of the routers bound to this worklist, by due cycle.
    CompletionCalendar completions;
};

/// Ejection-side buffers (terminals, then handoff buffers) with a packet
/// resident, by ejection ordinal: terminal `n` is ordinal n, aux port k
/// is numNodes + k. A buffer arms itself when a VC is reserved into it
/// (the only way it gains work); the engine merges the arms and drops
/// buffers that have drained.
struct EjectionList {
    std::vector<int> pending; ///< armed since the last merge (unsorted)
    std::vector<int> active;  ///< ascending ordinals being polled
};

} // namespace taqos
