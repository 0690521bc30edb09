#include "isa/latency.hh"

namespace lvplib::isa
{

const char *
machineIsaName(MachineIsa m)
{
    switch (m) {
      case MachineIsa::Ppc620: return "PowerPC 620";
      case MachineIsa::Alpha21164: return "Alpha AXP 21164";
    }
    return "?";
}

} // namespace lvplib::isa
