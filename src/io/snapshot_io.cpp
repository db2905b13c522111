#include "io/snapshot_io.h"

#include <cstdio>
#include <filesystem>

#include "netbase/fnv1a.h"

namespace re::io {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{in[i]} << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

// Keys come from config; keep the file name shell- and fs-safe.
std::string sanitize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("checkpoint") : out;
}

}  // namespace

std::string FileCheckpointStore::path_for(const std::string& key) const {
  return directory_ + "/" + sanitize(key) + ".ckpt";
}

bool FileCheckpointStore::save(const std::string& key,
                               const std::vector<std::uint8_t>& bytes) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) return false;

  std::uint8_t header[4 + 4 + 8 + 8];
  header[0] = kMagic[0];
  header[1] = kMagic[1];
  header[2] = kMagic[2];
  header[3] = kMagic[3];
  put_u32(header + 4, kVersion);
  put_u64(header + 8, bytes.size());
  put_u64(header + 16, net::Fnv1a{}.add(bytes).raw());

  // Write to a temp file, fsync-free rename into place: load() never sees
  // a half-written checkpoint, only the previous complete one.
  const std::string final_path = path_for(key);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = std::fwrite(header, 1, sizeof(header), file) == sizeof(header);
  if (ok && !bytes.empty()) {
    ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  }
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return false;
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> FileCheckpointStore::load(
    const std::string& key) {
  std::FILE* file = std::fopen(path_for(key).c_str(), "rb");
  if (file == nullptr) return std::nullopt;

  std::uint8_t header[4 + 4 + 8 + 8];
  if (std::fread(header, 1, sizeof(header), file) != sizeof(header) ||
      header[0] != kMagic[0] || header[1] != kMagic[1] ||
      header[2] != kMagic[2] || header[3] != kMagic[3] ||
      get_u32(header + 4) != kVersion) {
    std::fclose(file);
    return std::nullopt;
  }
  const std::uint64_t size = get_u64(header + 8);
  const std::uint64_t checksum = get_u64(header + 16);
  if (size > (1ull << 34)) {  // 16 GiB sanity bound
    std::fclose(file);
    return std::nullopt;
  }

  std::vector<std::uint8_t> bytes(size);
  const bool read_ok =
      size == 0 || std::fread(bytes.data(), 1, size, file) == size;
  std::fclose(file);
  if (!read_ok || net::Fnv1a{}.add(bytes).raw() != checksum) return {};
  return bytes;
}

}  // namespace re::io
