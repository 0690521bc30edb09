#include <fstream>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "vm/interpreter.hh"

extern char **environ;

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

const char *
dispatchName(lv::vm::DispatchMode m)
{
    switch (m) {
      case lv::vm::DispatchMode::LegacySwitch:
        return "LegacySwitch";
      case lv::vm::DispatchMode::Predecoded:
        return "Predecoded";
      case lv::vm::DispatchMode::ThreadedGoto:
        return "ThreadedGoto";
    }
    return "unknown";
}

std::string
lvplibEnvironment()
{
    std::string out;
    for (char **e = environ; e && *e; ++e)
        if (std::string_view(*e).rfind("LVPLIB_", 0) == 0) {
            if (!out.empty())
                out += ';';
            out += *e;
        }
    return out.empty() ? "(none)" : out;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
fingerprint(const std::string &workload, std::uint64_t seed, unsigned scale)
{
    return {
        {"cpu_model", cpuModel()},
        {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
        {"hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency())},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"cmake_options", PERFBENCH_CMAKE_OPTIONS},
        {"lvplib_env", lvplibEnvironment()},
        {"dispatch", dispatchName(lv::vm::Interpreter::defaultDispatch())},
        {"jobs", "1"},
        {"shards", "1"},
        {"workload", workload},
        {"seed", std::to_string(seed)},
        {"scale", std::to_string(scale)},
        {"cache_state",
         "setup cold (fresh empty trace directory per repetition); "
         "measured warm (replays the last setup's traces)"},
    };
}

} // namespace perfbench
