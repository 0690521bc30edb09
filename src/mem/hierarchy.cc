#include "mem/hierarchy.hh"

namespace lvplib::mem
{

HierarchyConfig
HierarchyConfig::ppc620()
{
    HierarchyConfig c;
    c.l1 = {32 * 1024, 8, 64};
    c.l2 = {1024 * 1024, 8, 64};
    c.banks = 2;
    c.l2Latency = 8;
    c.memLatency = 40;
    return c;
}

HierarchyConfig
HierarchyConfig::alpha21164()
{
    HierarchyConfig c;
    // 8K direct-mapped L1, 96K 3-way L2 on chip. We round the L2 to a
    // power-of-two set count (requirement of the tag model).
    c.l1 = {8 * 1024, 1, 32};
    c.l2 = {96 * 1024, 3, 64};
    c.banks = 2; // true dual-ported: the model never reports conflicts
    c.l2Latency = 8;
    c.memLatency = 40;
    return c;
}

MemHierarchy::MemHierarchy(const HierarchyConfig &config)
    : config_(config), l1_(config.l1), l2_(config.l2)
{}

bool
MemHierarchy::touchIfPresent(Addr addr)
{
    if (!l1_.probe(addr))
        return false;
    l1_.access(addr);
    return true;
}

void
MemHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
}

} // namespace lvplib::mem
