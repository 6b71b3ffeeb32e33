#include "replay/record_log.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "support/bytes.hpp"
#include "support/log.hpp"

namespace stats::replay {

namespace {

constexpr std::string_view kMagic = "STRL";
constexpr std::string_view kTrailer = "ENDL";

/** Smallest encodings: a metadata entry is two empty strings, a
 *  record its kind byte plus six one-byte varints. */
constexpr std::size_t kMinMetaBytes = 2;
constexpr std::size_t kMinRecordBytes = 7;

/**
 * Parse the header that load() and replaceMetaInBytes() share: the
 * magic, schema version, root seed and metadata count.
 */
bool
readHeader(support::ByteReader &reader, std::uint64_t &root_seed,
           std::uint64_t &meta_count, std::string &error)
{
    if (!reader.expect(kMagic)) {
        error = "not a STATS record log (bad magic)";
        return false;
    }
    const std::uint64_t version = reader.varint();
    if (reader.ok() && version != kLogSchemaVersion) {
        error = "unsupported log schema version " +
                std::to_string(version) + " (expected " +
                std::to_string(kLogSchemaVersion) + ")";
        return false;
    }
    root_seed = reader.varint();
    meta_count = reader.count(kMinMetaBytes);
    if (!reader.ok()) {
        error = "truncated header";
        return false;
    }
    return true;
}

} // namespace

const char *
recordKindName(RecordKind kind)
{
    switch (kind) {
      case RecordKind::RunBegin:      return "RunBegin";
      case RecordKind::MatchVerdict:  return "MatchVerdict";
      case RecordKind::Reexec:        return "Reexec";
      case RecordKind::Commit:        return "Commit";
      case RecordKind::Squash:        return "Squash";
      case RecordKind::Abort:         return "Abort";
      case RecordKind::FaultInjected: return "FaultInjected";
      case RecordKind::RunEnd:        return "RunEnd";
    }
    support::panic("recordKindName: unknown record kind ",
                   static_cast<int>(kind));
}

std::vector<std::int64_t>
encodeConfig(const RunConfigRecord &config)
{
    return {config.useAuxiliary,    config.groupSize,
            config.auxWindow,       config.maxReexecutions,
            config.rollbackDepth,   config.sdThreads,
            config.innerThreads,    config.inputCount};
}

std::optional<RunConfigRecord>
decodeConfig(const std::vector<std::int64_t> &payload)
{
    if (payload.size() != 8)
        return std::nullopt;
    RunConfigRecord config;
    config.useAuxiliary = payload[0];
    config.groupSize = payload[1];
    config.auxWindow = payload[2];
    config.maxReexecutions = payload[3];
    config.rollbackDepth = payload[4];
    config.sdThreads = payload[5];
    config.innerThreads = payload[6];
    config.inputCount = payload[7];
    return config;
}

std::vector<std::int64_t>
encodeStats(const RunStatsRecord &stats)
{
    return {stats.validations, stats.mismatches, stats.reexecutions,
            stats.aborts,      stats.squashedGroups,
            stats.invocations};
}

std::optional<RunStatsRecord>
decodeStats(const std::vector<std::int64_t> &payload)
{
    if (payload.size() != 6)
        return std::nullopt;
    RunStatsRecord stats;
    stats.validations = payload[0];
    stats.mismatches = payload[1];
    stats.reexecutions = payload[2];
    stats.aborts = payload[3];
    stats.squashedGroups = payload[4];
    stats.invocations = payload[5];
    return stats;
}

// ---------------------------------------------------------------------
// RecordLog
// ---------------------------------------------------------------------

void
RecordLog::setMeta(const std::string &key, const std::string &value)
{
    for (auto &entry : metadata) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    metadata.emplace_back(key, value);
}

std::string
RecordLog::meta(const std::string &key, const std::string &fallback) const
{
    for (const auto &entry : metadata) {
        if (entry.first == key)
            return entry.second;
    }
    return fallback;
}

std::uint32_t
RecordLog::runCount() const
{
    std::uint32_t runs = 0;
    for (const auto &record : records) {
        if (record.kind == RecordKind::RunBegin)
            ++runs;
    }
    return runs;
}

std::string
RecordLog::saveToString() const
{
    using support::putSigned;
    using support::putVarint;
    std::string out(kMagic);
    putVarint(out, kLogSchemaVersion);
    putVarint(out, rootSeed);
    putVarint(out, metadata.size());
    for (const auto &entry : metadata) {
        support::putString(out, entry.first);
        support::putString(out, entry.second);
    }
    putVarint(out, records.size());
    for (const auto &record : records) {
        out.push_back(static_cast<char>(record.kind));
        putVarint(out, record.run);
        putVarint(out, record.epoch);
        putSigned(out, record.group);
        putSigned(out, record.a);
        putSigned(out, record.b);
        putVarint(out, record.payload.size());
        for (std::int64_t word : record.payload)
            putSigned(out, word);
    }
    out.append(kTrailer);
    return out;
}

bool
RecordLog::replaceMetaInBytes(std::string &bytes, const std::string &key,
                              const std::string &value,
                              std::string &error)
{
    support::ByteReader reader(bytes);
    std::uint64_t root_seed = 0, meta_count = 0;
    if (!readHeader(reader, root_seed, meta_count, error))
        return false;
    for (std::uint64_t i = 0; i < meta_count; ++i) {
        const std::string entry_key = reader.string();
        const std::size_t value_pos = reader.pos();
        const std::string entry_value = reader.string();
        if (!reader.ok()) {
            error = "truncated metadata";
            return false;
        }
        if (entry_key != key)
            continue;
        if (entry_value != value) {
            std::string encoded;
            support::putString(encoded, value);
            bytes.replace(value_pos, reader.pos() - value_pos, encoded);
        }
        return true;
    }
    error = "no metadata entry '" + key + "'";
    return false;
}

void
RecordLog::save(std::ostream &out) const
{
    const std::string bytes = saveToString();
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
RecordLog::saveFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        support::fatal("cannot open '", path, "' for writing");
    save(out);
    if (!out)
        support::fatal("failed writing record log to '", path, "'");
}

std::optional<RecordLog>
RecordLog::load(std::istream &in, std::string &error)
{
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    support::ByteReader reader(bytes);

    RecordLog log;
    std::uint64_t meta_count = 0;
    if (!readHeader(reader, log.rootSeed, meta_count, error))
        return std::nullopt;
    for (std::uint64_t i = 0; i < meta_count && reader.ok(); ++i) {
        std::string key = reader.string();
        log.metadata.emplace_back(std::move(key), reader.string());
    }
    if (!reader.ok()) {
        error = "truncated metadata";
        return std::nullopt;
    }

    const std::uint64_t record_count = reader.count(kMinRecordBytes);
    if (!reader.ok()) {
        error = "truncated record count";
        return std::nullopt;
    }
    for (std::uint64_t i = 0; i < record_count; ++i) {
        Record record;
        const std::uint8_t kind = reader.byte();
        if (reader.ok() && kind >= kRecordKindCount) {
            error = "unknown record kind " + std::to_string(kind) +
                    " at record " + std::to_string(i);
            return std::nullopt;
        }
        record.kind = static_cast<RecordKind>(kind);
        record.run = static_cast<std::uint32_t>(reader.varint());
        record.epoch = static_cast<std::uint32_t>(reader.varint());
        record.group = static_cast<std::int32_t>(reader.signedVarint());
        record.a = reader.signedVarint();
        record.b = reader.signedVarint();
        const std::uint64_t words = reader.count(1);
        for (std::uint64_t w = 0; w < words; ++w)
            record.payload.push_back(reader.signedVarint());
        if (!reader.ok()) {
            error = "truncated at record " + std::to_string(i);
            return std::nullopt;
        }
        log.records.push_back(std::move(record));
    }

    if (!reader.expect(kTrailer) || !reader.atEnd()) {
        error = "missing trailer (truncated or trailing garbage)";
        return std::nullopt;
    }
    return log;
}

std::optional<RecordLog>
RecordLog::loadFile(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    return load(in, error);
}

} // namespace stats::replay
