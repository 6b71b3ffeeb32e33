#include "serving/execution_plan.hpp"

#include <sstream>

#include "support/bytes.hpp"
#include "support/string_utils.hpp"

namespace stats::serving {

namespace {

constexpr std::string_view kMagic = "STPL";

using support::putSigned;
using support::putString;
using support::putVarint;

const char *
tierWord(ir::ExecTier tier)
{
    return ir::execTierName(tier);
}

} // namespace

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
      case JobKind::IrSequential:  return "ir-seq";
      case JobKind::IrSpeculative: return "ir-spec";
      case JobKind::Benchmark:     return "benchmark";
    }
    return "?";
}

std::optional<JobKind>
jobKindFromName(const std::string &name)
{
    for (int i = 0; i < kJobKindCount; ++i) {
        const auto kind = static_cast<JobKind>(i);
        if (name == jobKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::string
ExecutionPlan::validate() const
{
    if (tenant.empty())
        return "plan has an empty tenant id";
    if (kind == JobKind::Benchmark) {
        if (moduleRef.empty())
            return "benchmark plan names no benchmark (moduleRef)";
        if (!moduleText.empty())
            return "benchmark plan carries inline IR";
        if (benchThreads < 1 || benchThreads > 512)
            return "benchmark threads out of range [1, 512]";
        if (benchMode != "original" && benchMode != "seq" &&
            benchMode != "par")
            return "unknown benchmark mode '" + benchMode + "'";
        if (benchWorkload != "rep" && benchWorkload != "bad")
            return "unknown benchmark workload '" + benchWorkload + "'";
    } else {
        if (moduleText.empty())
            return "inline-IR plan carries no module text";
        if (!moduleRef.empty())
            return "inline-IR plan also names a moduleRef";
        if (inputs < 1 || inputs > 4096)
            return "input count out of range [1, 4096]";
        if (stepBudget < 1)
            return "step budget must be at least 1";
    }
    if (batchLanes < 1 || batchLanes > 64)
        return "batchLanes out of range [1, 64]";
    if (noisyPercent < 0 || noisyPercent > 100)
        return "noisyPercent out of range [0, 100]";
    if (maxNoise < 0)
        return "maxNoise must be non-negative";
    if (limits.groupSize < 1 || limits.auxWindow < 0 ||
        limits.maxReexecutions < 0 || limits.rollbackDepth < 0 ||
        limits.sdThreads < 1 || limits.innerThreads < 1 ||
        limits.auxBatchGroups < 1)
        return "engine limits out of range";
    return "";
}

std::uint64_t
ExecutionPlan::compatibilityKey() const
{
    std::string canon;
    putString(canon, moduleText);
    putVarint(canon, tradeoffIndices.size());
    for (const auto &[name, index] : tradeoffIndices) {
        putString(canon, name);
        putSigned(canon, index);
    }
    putVarint(canon, static_cast<std::uint64_t>(execTier));
    putVarint(canon, stepBudget);
    return support::fnv1a(canon);
}

bool
ExecutionPlan::canBatchWith(const ExecutionPlan &other) const
{
    return kind == JobKind::IrSequential &&
           other.kind == JobKind::IrSequential && batchLanes > 1 &&
           other.batchLanes > 1 &&
           compatibilityKey() == other.compatibilityKey();
}

std::string
ExecutionPlan::saveToString() const
{
    std::string out(kMagic);
    putVarint(out, kPlanSchemaVersion);
    putString(out, tenant);
    putSigned(out, priority);
    putVarint(out, static_cast<std::uint64_t>(kind));
    putString(out, moduleRef);
    putString(out, moduleText);
    putVarint(out, tradeoffIndices.size());
    for (const auto &[name, index] : tradeoffIndices) {
        putString(out, name);
        putSigned(out, index);
    }
    putVarint(out, limits.useAuxiliary ? 1 : 0);
    putSigned(out, limits.groupSize);
    putSigned(out, limits.auxWindow);
    putSigned(out, limits.maxReexecutions);
    putSigned(out, limits.rollbackDepth);
    putSigned(out, limits.sdThreads);
    putSigned(out, limits.innerThreads);
    putSigned(out, limits.auxBatchGroups);
    // The one floating-point field travels as its bit pattern; the
    // plan stays a pure byte-for-byte round trip.
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t clone_bits = 0;
    __builtin_memcpy(&clone_bits, &limits.stateCloneCost,
                     sizeof clone_bits);
    putVarint(out, clone_bits);
    putVarint(out, stepBudget);
    putVarint(out, static_cast<std::uint64_t>(execTier));
    putSigned(out, batchLanes);
    putVarint(out, rootSeed);
    putSigned(out, inputs);
    putSigned(out, initialState);
    putSigned(out, noisyPercent);
    putSigned(out, maxNoise);
    putString(out, benchMode);
    putSigned(out, benchThreads);
    putString(out, benchWorkload);
    putString(out, faults);
    putVarint(out, recordChoices ? 1 : 0);
    putVarint(out, noCache ? 1 : 0);
    return out;
}

std::string
ExecutionPlan::resultCacheKey() const
{
    // Normalize away the fields that cannot influence the result
    // bytes, then reuse the canonical binary encoding.
    ExecutionPlan canon = *this;
    canon.tenant = "default";
    canon.priority = 0;
    canon.batchLanes = 1;
    canon.noCache = false;
    return canon.saveToString();
}

std::optional<ExecutionPlan>
ExecutionPlan::load(const std::string &bytes, std::string &error)
{
    support::ByteReader in(bytes);
    if (!in.expect(kMagic)) {
        error = "not an execution plan (bad magic)";
        return std::nullopt;
    }
    const auto truncated = [&]() -> std::optional<ExecutionPlan> {
        error = "truncated execution plan";
        return std::nullopt;
    };

    const std::uint64_t version = in.varint();
    if (!in.ok())
        return truncated();
    if (version != kPlanSchemaVersion) {
        error = "unsupported plan schema version " +
                std::to_string(version) + " (this build speaks " +
                std::to_string(kPlanSchemaVersion) + ")";
        return std::nullopt;
    }

    ExecutionPlan plan;
    plan.tenant = in.string();
    plan.priority = in.signedVarint();
    const std::uint64_t kind = in.varint();
    if (in.ok() && kind >= kJobKindCount) {
        error = "unknown job kind ordinal " + std::to_string(kind);
        return std::nullopt;
    }
    plan.kind = static_cast<JobKind>(kind);
    plan.moduleRef = in.string();
    plan.moduleText = in.string();
    // A tradeoff entry is at least a name length and an index.
    const std::uint64_t tradeoffs = in.count(2);
    for (std::uint64_t i = 0; i < tradeoffs; ++i) {
        std::string name = in.string();
        plan.tradeoffIndices[std::move(name)] = in.signedVarint();
    }
    const auto intField = [&in] {
        return static_cast<int>(in.signedVarint());
    };
    plan.limits.useAuxiliary = in.varint() != 0;
    plan.limits.groupSize = intField();
    plan.limits.auxWindow = intField();
    plan.limits.maxReexecutions = intField();
    plan.limits.rollbackDepth = intField();
    plan.limits.sdThreads = intField();
    plan.limits.innerThreads = intField();
    plan.limits.auxBatchGroups = intField();
    const std::uint64_t clone_bits = in.varint();
    __builtin_memcpy(&plan.limits.stateCloneCost, &clone_bits,
                     sizeof plan.limits.stateCloneCost);
    plan.stepBudget = in.varint();
    const std::uint64_t tier = in.varint();
    if (in.ok() && tier > static_cast<std::uint64_t>(ir::ExecTier::Auto)) {
        error = "unknown exec tier ordinal " + std::to_string(tier);
        return std::nullopt;
    }
    plan.execTier = static_cast<ir::ExecTier>(tier);
    plan.batchLanes = intField();
    plan.rootSeed = in.varint();
    plan.inputs = intField();
    plan.initialState = in.signedVarint();
    plan.noisyPercent = intField();
    plan.maxNoise = intField();
    plan.benchMode = in.string();
    plan.benchThreads = intField();
    plan.benchWorkload = in.string();
    plan.faults = in.string();
    plan.recordChoices = in.varint() != 0;
    plan.noCache = in.varint() != 0;
    if (!in.ok())
        return truncated();
    if (!in.atEnd()) {
        error = "trailing bytes after the execution plan";
        return std::nullopt;
    }
    return plan;
}

std::string
ExecutionPlan::toText() const
{
    std::ostringstream out;
    out << "plan v" << kPlanSchemaVersion << "\n";
    out << "kind " << jobKindName(kind) << "\n";
    out << "tenant " << tenant << "\n";
    out << "priority " << priority << "\n";
    out << "seed " << rootSeed << "\n";
    out << "exec-tier " << tierWord(execTier) << "\n";
    out << "batch-lanes " << batchLanes << "\n";
    out << "step-budget " << stepBudget << "\n";
    out << "record-choices " << (recordChoices ? 1 : 0) << "\n";
    out << "no-cache " << (noCache ? 1 : 0) << "\n";
    out << "limits aux=" << (limits.useAuxiliary ? 1 : 0)
        << " group=" << limits.groupSize
        << " window=" << limits.auxWindow
        << " reexec=" << limits.maxReexecutions
        << " rollback=" << limits.rollbackDepth
        << " sd-threads=" << limits.sdThreads
        << " inner-threads=" << limits.innerThreads
        << " aux-batch=" << limits.auxBatchGroups << "\n";
    out << "inputs " << inputs << "\n";
    out << "initial-state " << initialState << "\n";
    out << "noisy-percent " << noisyPercent << "\n";
    out << "max-noise " << maxNoise << "\n";
    if (!tradeoffIndices.empty()) {
        out << "config ";
        bool first = true;
        for (const auto &[name, index] : tradeoffIndices) {
            out << (first ? "" : ",") << name << ":" << index;
            first = false;
        }
        out << "\n";
    }
    if (!faults.empty())
        out << "faults " << faults << "\n";
    if (kind == JobKind::Benchmark) {
        out << "benchmark " << moduleRef << "\n";
        out << "bench-mode " << benchMode << "\n";
        out << "bench-threads " << benchThreads << "\n";
        out << "bench-workload " << benchWorkload << "\n";
    } else {
        out << "module <<IR\n" << moduleText;
        if (!moduleText.empty() && moduleText.back() != '\n')
            out << "\n";
        out << "IR\n";
    }
    return out.str();
}

std::optional<ExecutionPlan>
ExecutionPlan::fromText(const std::string &text, std::string &error)
{
    ExecutionPlan plan;
    const auto lines = support::split(text, '\n');
    bool sawHeader = false;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string line = support::trim(lines[li]);
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.find(' ');
        const std::string key =
            space == std::string::npos ? line : line.substr(0, space);
        const std::string value =
            space == std::string::npos
                ? ""
                : support::trim(line.substr(space + 1));
        const auto lineError = [&](const std::string &message) {
            error = "plan text line " + std::to_string(li + 1) + ": " +
                    message;
        };
        try {
            if (key == "plan") {
                if (value != "v" + std::to_string(kPlanSchemaVersion)) {
                    lineError("unsupported plan text version '" +
                              value + "'");
                    return std::nullopt;
                }
                sawHeader = true;
            } else if (key == "kind") {
                const auto kind = jobKindFromName(value);
                if (!kind) {
                    lineError("unknown kind '" + value + "'");
                    return std::nullopt;
                }
                plan.kind = *kind;
            } else if (key == "tenant") {
                plan.tenant = value;
            } else if (key == "priority") {
                plan.priority = std::stoll(value);
            } else if (key == "seed") {
                plan.rootSeed = std::stoull(value);
            } else if (key == "exec-tier") {
                const auto tier = ir::parseExecTier(value);
                if (!tier) {
                    lineError("unknown exec-tier '" + value + "'");
                    return std::nullopt;
                }
                plan.execTier = *tier;
            } else if (key == "batch-lanes") {
                plan.batchLanes = std::stoi(value);
            } else if (key == "step-budget") {
                plan.stepBudget = std::stoull(value);
            } else if (key == "record-choices") {
                plan.recordChoices = value != "0";
            } else if (key == "no-cache") {
                plan.noCache = value != "0";
            } else if (key == "limits") {
                for (const auto &word :
                     support::splitWhitespace(value)) {
                    const auto eq = word.find('=');
                    if (eq == std::string::npos) {
                        lineError("limits wants key=value words");
                        return std::nullopt;
                    }
                    const std::string name = word.substr(0, eq);
                    const int number = std::stoi(word.substr(eq + 1));
                    if (name == "aux")
                        plan.limits.useAuxiliary = number != 0;
                    else if (name == "group")
                        plan.limits.groupSize = number;
                    else if (name == "window")
                        plan.limits.auxWindow = number;
                    else if (name == "reexec")
                        plan.limits.maxReexecutions = number;
                    else if (name == "rollback")
                        plan.limits.rollbackDepth = number;
                    else if (name == "sd-threads")
                        plan.limits.sdThreads = number;
                    else if (name == "inner-threads")
                        plan.limits.innerThreads = number;
                    else if (name == "aux-batch")
                        plan.limits.auxBatchGroups = number;
                    else {
                        lineError("unknown limit '" + name + "'");
                        return std::nullopt;
                    }
                }
            } else if (key == "inputs") {
                plan.inputs = std::stoi(value);
            } else if (key == "initial-state") {
                plan.initialState = std::stoll(value);
            } else if (key == "noisy-percent") {
                plan.noisyPercent = std::stoi(value);
            } else if (key == "max-noise") {
                plan.maxNoise = std::stoi(value);
            } else if (key == "config") {
                for (const auto &pair : support::split(value, ',')) {
                    // Last colon: tradeoff names may themselves be
                    // namespace-qualified (aux::T_42).
                    const auto colon = pair.rfind(':');
                    if (colon == std::string::npos) {
                        lineError("config wants name:index pairs");
                        return std::nullopt;
                    }
                    plan.tradeoffIndices[pair.substr(0, colon)] =
                        std::stoll(pair.substr(colon + 1));
                }
            } else if (key == "faults") {
                plan.faults = value;
            } else if (key == "benchmark") {
                plan.moduleRef = value;
            } else if (key == "bench-mode") {
                plan.benchMode = value;
            } else if (key == "bench-threads") {
                plan.benchThreads = std::stoi(value);
            } else if (key == "bench-workload") {
                plan.benchWorkload = value;
            } else if (key == "module") {
                if (value != "<<IR") {
                    lineError("module wants a <<IR heredoc");
                    return std::nullopt;
                }
                std::ostringstream module_text;
                bool closed = false;
                for (++li; li < lines.size(); ++li) {
                    if (support::trim(lines[li]) == "IR") {
                        closed = true;
                        break;
                    }
                    module_text << lines[li] << "\n";
                }
                if (!closed) {
                    lineError("unterminated module <<IR block");
                    return std::nullopt;
                }
                plan.moduleText = module_text.str();
            } else {
                lineError("unknown plan key '" + key + "'");
                return std::nullopt;
            }
        } catch (const std::exception &) {
            lineError("malformed number in '" + value + "'");
            return std::nullopt;
        }
    }
    if (!sawHeader) {
        error = "plan text is missing the 'plan v" +
                std::to_string(kPlanSchemaVersion) + "' header";
        return std::nullopt;
    }
    return plan;
}

} // namespace stats::serving
