#include "isa/program.hh"

#include "util/logging.hh"

namespace lvplib::isa
{

void
Program::setWord(Addr a, Word v)
{
    for (unsigned i = 0; i < 8; ++i)
        data_[a + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

Addr
Program::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        lvp_fatal("unknown symbol '%s'", name.c_str());
    return it->second;
}

bool
Program::hasSymbol(const std::string &name) const
{
    return symbols_.find(name) != symbols_.end();
}

} // namespace lvplib::isa
