#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "trace/trace_file.hh"
#include "vm/interpreter.hh"

namespace perfbench
{

namespace
{
const std::string BuildLayer = "workloads.build";
const std::string InterpLayer = "vm.interp";
const std::string EncodeLayer = "trace.encode";
} // namespace

std::vector<TraceEntry>
writeTraces(const std::string &dir, unsigned scale, Tracer &tracer)
{
    using lv::workloads::CodeGen;
    std::vector<TraceEntry> out;
    for (const auto &w : lv::workloads::allWorkloads()) {
        for (CodeGen cg : {CodeGen::Ppc, CodeGen::Alpha}) {
            TraceEntry e;
            e.workload = &w;
            e.codegen = cg;
            {
                Tracer::Span span(tracer, BuildLayer);
                e.program = std::make_shared<const lv::isa::Program>(
                    w.build(cg, scale));
            }

            // RunCache's trace key: the file name and the fingerprint
            // salt are workload|codegen|scale|maxInstructions.
            const char *cgName = lv::workloads::codeGenName(cg);
            std::ostringstream name, salt;
            name << dir << '/' << w.name << '-' << cgName << "-s" << scale
                 << "-m" << MaxInstructions << ".trace";
            salt << w.name << '|' << cgName << '|' << scale << '|'
                 << MaxInstructions;
            e.path = name.str();
            std::uint64_t fp = lv::trace::mixFingerprint(
                lv::trace::programFingerprint(*e.program), salt.str());

            lv::trace::TraceFileWriter writer(e.path, fp);
            Probe encode(tracer, EncodeLayer, writer);
            lv::vm::Interpreter interp(*e.program);
            {
                Tracer::Span span(tracer, InterpLayer);
                interp.run(&encode, MaxInstructions);
                span.records(encode.records());
            }
            bool ok;
            {
                Tracer::Span span(tracer, EncodeLayer);
                if (!interp.halted())
                    writer.finish();
                ok = writer.close();
            }
            if (!ok)
                throw std::runtime_error("cannot write trace '" + e.path +
                                         "': " + writer.error());
            e.records = encode.records();
            e.bytes = std::filesystem::file_size(e.path);
            out.push_back(std::move(e));
        }
    }
    return out;
}

} // namespace perfbench
