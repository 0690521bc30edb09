#include "core/cvu.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace lvplib::core
{

namespace
{

bool
rangesOverlap(Addr a, unsigned alen, Addr b, unsigned blen)
{
    return a < b + blen && b < a + alen;
}

} // namespace

Cvu::Cvu(std::uint32_t entries, std::uint32_t ways)
    : capacity_(entries), ways_(ways == 0 ? entries : ways),
      numSets_(ways == 0 || entries == 0 ? 1 : entries / ways),
      // Twice as many buckets as entries keeps chains short.
      bucketBits_(static_cast<unsigned>(std::countr_zero(
          std::bit_ceil(std::max<std::uint32_t>(2, 2 * entries)))))
{
    if (entries != 0 && ways != 0) {
        if (entries % ways != 0 ||
            (numSets_ & (numSets_ - 1)) != 0) {
            lvp_fatal("CVU sets (entries %u / ways %u) must be a "
                      "power of two",
                      entries, ways);
        }
    }
    slab_.resize(capacity_);
    sets_.resize(numSets_);
    byGranule_.resize(std::size_t{1} << bucketBits_);
    byIndex_.resize(std::size_t{1} << bucketBits_);
    reset();
}

std::size_t
Cvu::setOf(Addr addr) const
{
    if (numSets_ == 1)
        return 0;
    // Index by the 8-byte granule of the entry's base address.
    return static_cast<std::size_t>((addr >> 3) & (numSets_ - 1));
}

std::size_t
Cvu::granuleBucket(Addr granule) const
{
    // Fibonacci hashing: the top bits of a golden-ratio product.
    return static_cast<std::size_t>(
        (granule * 0x9e3779b97f4a7c15ull) >> (64 - bucketBits_));
}

std::size_t
Cvu::indexBucket(std::uint32_t lvpt_index) const
{
    // LVPT indices are dense table slots: the low bits spread them.
    return lvpt_index & ((std::size_t{1} << bucketBits_) - 1);
}

Cvu::Slot
Cvu::find(Addr addr, std::uint32_t lvpt_index) const
{
    for (Slot e = byGranule_[granuleBucket(addr >> 3)]; e != Nil;
         e = slab_[e].gNext) {
        if (slab_[e].addr == addr && slab_[e].lvptIndex == lvpt_index)
            return e;
    }
    return Nil;
}

void
Cvu::pushFront(Slot e)
{
    Set &s = sets_[slab_[e].set];
    slab_[e].prev = Nil;
    slab_[e].next = s.head;
    if (s.head != Nil)
        slab_[s.head].prev = e;
    else
        s.tail = e;
    s.head = e;
    ++s.count;
}

void
Cvu::unlinkFromSet(Slot e)
{
    Entry &x = slab_[e];
    Set &s = sets_[x.set];
    (x.prev != Nil ? slab_[x.prev].next : s.head) = x.next;
    (x.next != Nil ? slab_[x.next].prev : s.tail) = x.prev;
    --s.count;
}

void
Cvu::remove(Slot e)
{
    unlinkFromSet(e);
    Entry &x = slab_[e];
    (x.gPrev != Nil ? slab_[x.gPrev].gNext
                    : byGranule_[granuleBucket(x.addr >> 3)]) = x.gNext;
    if (x.gNext != Nil)
        slab_[x.gNext].gPrev = x.gPrev;
    (x.iPrev != Nil ? slab_[x.iPrev].iNext
                    : byIndex_[indexBucket(x.lvptIndex)]) = x.iNext;
    if (x.iNext != Nil)
        slab_[x.iNext].iPrev = x.iPrev;
    x.next = free_;
    free_ = e;
    --live_;
}

bool
Cvu::lookup(Addr addr, std::uint32_t lvpt_index)
{
    if (capacity_ == 0)
        return false;
    Slot e = find(addr, lvpt_index);
    if (e == Nil)
        return false;
    unlinkFromSet(e);
    pushFront(e);
    return true;
}

void
Cvu::insert(Addr addr, std::uint32_t lvpt_index, unsigned size)
{
    if (capacity_ == 0)
        return;
    // Store invalidation finds an overlapping entry by its granule,
    // which holds only while an entry spans at most 8 bytes.
    lvp_assert(size <= 8, "CVU entry of %u bytes", size);
    // Refresh an existing identical entry instead of duplicating it.
    if (Slot e = find(addr, lvpt_index); e != Nil) {
        slab_[e].size = size;
        unlinkFromSet(e);
        pushFront(e);
        return;
    }
    const auto set = static_cast<std::uint32_t>(setOf(addr));
    if (sets_[set].count == ways_)
        remove(sets_[set].tail);
    Slot e = free_;
    free_ = slab_[e].next;
    ++live_;
    Entry &x = slab_[e];
    x.addr = addr;
    x.lvptIndex = lvpt_index;
    x.size = size;
    x.set = set;
    pushFront(e);
    Slot &g = byGranule_[granuleBucket(addr >> 3)];
    x.gPrev = Nil;
    x.gNext = g;
    if (g != Nil)
        slab_[g].gPrev = e;
    g = e;
    Slot &i = byIndex_[indexBucket(lvpt_index)];
    x.iPrev = Nil;
    x.iNext = i;
    if (i != Nil)
        slab_[i].iPrev = e;
    i = e;
}

unsigned
Cvu::purgeBucket(std::size_t b, Addr addr, unsigned size)
{
    unsigned n = 0;
    for (Slot e = byGranule_[b]; e != Nil;) {
        Slot next = slab_[e].gNext;
        if (rangesOverlap(slab_[e].addr, slab_[e].size, addr, size)) {
            remove(e);
            ++n;
        }
        e = next;
    }
    return n;
}

unsigned
Cvu::storeInvalidate(Addr store_addr, unsigned store_size)
{
    if (capacity_ == 0)
        return 0;
    // An overlapping entry's base address lies in
    // [store_addr - 7, store_addr + store_size): walk exactly the
    // granule buckets that range can touch. Which entries go, and
    // so the count, does not depend on the order they are found in.
    Addr lo = (store_addr >= 7 ? store_addr - 7 : 0) >> 3;
    Addr hi = (store_addr + store_size - 1) >> 3;
    Addr span = hi - lo + 1; // wraps to a huge span on overflow
    unsigned n = 0;
    if (span > byGranule_.size()) {
        // Wider than the table: every bucket is a candidate.
        for (std::size_t b = 0; b < byGranule_.size(); ++b)
            n += purgeBucket(b, store_addr, store_size);
        return n;
    }
    for (Addr g = lo; g != hi + 1; ++g)
        n += purgeBucket(granuleBucket(g), store_addr, store_size);
    return n;
}

bool
Cvu::corruptEvict(std::uint64_t which)
{
    if (live_ == 0)
        return false;
    std::uint64_t target = which % live_;
    for (const Set &s : sets_) {
        if (target < s.count) {
            Slot e = s.head;
            for (; target > 0; --target)
                e = slab_[e].next;
            remove(e);
            return true;
        }
        target -= s.count;
    }
    return false; // unreachable
}

std::vector<Cvu::Resident>
Cvu::contents() const
{
    std::vector<Resident> out;
    out.reserve(live_);
    for (const Set &s : sets_)
        for (Slot e = s.head; e != Nil; e = slab_[e].next)
            out.push_back({slab_[e].addr, slab_[e].lvptIndex,
                           slab_[e].size});
    return out;
}

unsigned
Cvu::displaceInvalidate(std::uint32_t lvpt_index)
{
    if (capacity_ == 0)
        return 0;
    unsigned n = 0;
    for (Slot e = byIndex_[indexBucket(lvpt_index)]; e != Nil;) {
        Slot next = slab_[e].iNext;
        if (slab_[e].lvptIndex == lvpt_index) {
            remove(e);
            ++n;
        }
        e = next;
    }
    return n;
}

void
Cvu::reset()
{
    std::fill(sets_.begin(), sets_.end(), Set{});
    std::fill(byGranule_.begin(), byGranule_.end(), Nil);
    std::fill(byIndex_.begin(), byIndex_.end(), Nil);
    free_ = Nil;
    for (std::size_t e = slab_.size(); e-- > 0;) {
        slab_[e].next = free_;
        free_ = static_cast<Slot>(e);
    }
    live_ = 0;
}

} // namespace lvplib::core
