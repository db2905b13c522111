#include "io/trace_io.h"

#include <cstdio>

#include "netbase/binio.h"
#include "netbase/fnv1a.h"

namespace re::io {
namespace {

constexpr std::uint32_t kMagic = 0x4b434552;  // "RECK" little-endian
constexpr std::uint32_t kVersion = 1;
// A trace holds a fuzz schedule (tens of ops) or a shrunk reproducer; a
// count beyond this is a corrupt or hostile file, not a real trace.
constexpr std::uint32_t kMaxOps = 1u << 20;

}  // namespace

std::vector<std::uint8_t> encode_trace(const check::Scenario& scenario) {
  net::BinaryWriter writer;
  writer.u32(kMagic);
  writer.u32(kVersion);
  writer.u64(scenario.seed);
  writer.u32(static_cast<std::uint32_t>(scenario.ops.size()));
  for (const check::ScenarioOp& op : scenario.ops) {
    writer.u8(static_cast<std::uint8_t>(op.kind));
    writer.u32(op.a);
    writer.u32(op.b);
    writer.u32(op.c);
  }
  const std::uint64_t sum = net::Fnv1a{}.add(writer.bytes()).finish();
  writer.u64(sum);
  return writer.take();
}

std::optional<check::Scenario> decode_trace(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8 + 8) return std::nullopt;  // header + checksum
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
  net::BinaryReader trailer(bytes.subspan(bytes.size() - 8));
  if (trailer.u64() != net::Fnv1a{}.add(body).finish()) return std::nullopt;

  net::BinaryReader reader(body);
  if (reader.u32() != kMagic || reader.u32() != kVersion) return std::nullopt;
  check::Scenario scenario;
  scenario.seed = reader.u64();
  const std::uint32_t count = reader.u32();
  if (count > kMaxOps) return std::nullopt;
  scenario.ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t kind = reader.u8();
    if (kind >= check::kOpKindCount) return std::nullopt;
    check::ScenarioOp op;
    op.kind = static_cast<check::OpKind>(kind);
    op.a = reader.u32();
    op.b = reader.u32();
    op.c = reader.u32();
    scenario.ops.push_back(op);
  }
  // ok() also rejects trailing garbage between the ops and the checksum.
  if (!reader.ok()) return std::nullopt;
  return scenario;
}

bool save_trace(const std::string& path, const check::Scenario& scenario) {
  const std::vector<std::uint8_t> bytes = encode_trace(scenario);
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  const bool closed = std::fclose(out) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<check::Scenario> load_trace(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, in)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(in);
  return decode_trace(bytes);
}

}  // namespace re::io
