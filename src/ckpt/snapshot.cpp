#include "hylo/ckpt/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>

namespace hylo::ckpt {

namespace {

/// Table-driven CRC-32; the table is computed once on first use.
const std::uint32_t* crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t* table = crc_table();
  std::uint32_t c = crc ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

// ------------------------------------------------- ByteWriter, ByteReader

void ByteWriter::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

ByteReader::ByteReader(const unsigned char* data, std::size_t len,
                       std::string what)
    : data_(data), len_(len), what_(std::move(what)) {}

void ByteReader::take(void* dst, std::size_t len, const char* field) {
  HYLO_CHECK(len <= remaining(),
             "snapshot section '" << what_ << "' truncated while reading "
                                  << field << ": wanted " << len
                                  << " bytes at offset " << pos_ << ", have "
                                  << remaining());
  // An empty matrix or vector reads into a null data(), and memcpy needs
  // valid pointers even for zero bytes.
  if (len == 0) return;
  std::memcpy(dst, data_ + pos_, len);
  pos_ += len;
}

void ByteReader::expect_done() const {
  HYLO_CHECK(pos_ == len_, "snapshot section '"
                               << what_ << "' has " << (len_ - pos_)
                               << " trailing bytes after its payload");
}

// ------------------------------------------------------------------ Archive

void Archive::bytes(void* data, std::size_t len, const char* field) {
  if (loading())
    in_->take(data, len, field);
  else
    out_->raw(data, len);
}

std::size_t Archive::length(std::size_t n, std::size_t item_bytes,
                            const char* field) {
  std::uint64_t stored = n;
  (*this)(stored, field);
  if (loading())
    require(stored <= in_->remaining() / item_bytes, field, "length ", stored,
            " of ", item_bytes, "-byte items exceeds the ", in_->remaining(),
            " bytes left");
  return static_cast<std::size_t>(stored);
}

void Archive::fail(const char* field, const std::string& why) const {
  throw Error("snapshot section '" + in_->what() + "', field '" + field +
              "': " + why);
}

void Archive::operator()(std::string& s, const char* field) {
  s.resize(length(s.size(), 1, field));
  bytes(s.data(), s.size(), field);
}

void Archive::operator()(Matrix& m, const char* field) {
  std::uint64_t rows = static_cast<std::uint64_t>(m.rows());
  std::uint64_t cols = static_cast<std::uint64_t>(m.cols());
  (*this)(rows, field);
  (*this)(cols, field);
  if (loading()) {
    // The payload must fit; so must each dimension of an empty matrix, so
    // that no loop over a row or column count outgrows the file.
    const std::uint64_t left = in_->remaining();
    require(std::max(rows, cols) <= left &&
                (rows == 0 || cols <= left / sizeof(real_t) / rows),
            field, "matrix ", rows, "x", cols, " exceeds the ", left,
            " bytes left");
    m = Matrix(static_cast<index_t>(rows), static_cast<index_t>(cols));
  }
  bytes(m.data(), sizeof(real_t) * static_cast<std::size_t>(m.size()), field);
}

void Archive::operator()(Rng& rng, const char* field) {
  Rng::State st = rng.state();
  for (std::uint64_t& word : st.s) (*this)(word, field);
  (*this)(st.have_cached_normal, field);
  (*this)(st.cached_normal, field);
  // xoshiro256** never reaches the all-zero state, and from it every draw
  // is zero: normal()'s rejection loop would never end.
  require((st.s[0] | st.s[1] | st.s[2] | st.s[3]) != 0, field,
          "generator state is all zero");
  if (loading()) rng.set_state(st);
}

void Archive::reals(real_t* data, index_t count, const char* field) {
  HYLO_CHECK(count >= 0, "negative real block size");
  std::uint64_t n = static_cast<std::uint64_t>(count);
  (*this)(n, field);
  require(n == static_cast<std::uint64_t>(count), field, "holds ", n,
          " reals, expected ", count);
  bytes(data, sizeof(real_t) * static_cast<std::size_t>(count), field);
}

// ---------------------------------------------------------------- AtomicFile

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_(path_ + ".tmp") {
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  HYLO_CHECK(out_.good(), "cannot open " << tmp_ << " for writing");
}

AtomicFile::~AtomicFile() {
  if (!committed_) {
    out_.close();
    std::remove(tmp_.c_str());  // abandoned write: drop the torn temp file
  }
}

void AtomicFile::commit() {
  HYLO_CHECK(!committed_, "AtomicFile::commit called twice for " << path_);
  out_.flush();
  HYLO_CHECK(out_.good(), "write failure on " << tmp_);
  out_.close();
  HYLO_CHECK(std::rename(tmp_.c_str(), path_.c_str()) == 0,
             "cannot rename " << tmp_ << " over " << path_);
  committed_ = true;
}

// ------------------------------------------------------------ SnapshotWriter

ByteWriter& SnapshotWriter::section(const std::string& name) {
  for (auto& [n, w] : sections_)
    if (n == name) return w;
  sections_.emplace_back(name, ByteWriter{});
  return sections_.back().second;
}

void SnapshotWriter::write(const std::string& path) const {
  ByteWriter out;
  Archive ar(out);
  std::uint64_t magic = kSnapshotMagic;
  std::uint32_t version = kSnapshotVersion;
  auto count = static_cast<std::uint32_t>(sections_.size());
  ar(magic, "magic");
  ar(version, "version");
  ar(count, "section count");
  for (const auto& [name, w] : sections_) {
    std::string key = name;
    std::uint64_t len = w.size();
    std::uint32_t crc = crc32(w.bytes().data(), w.size());
    ar(key, "section name");
    ar(len, "payload length");
    ar(crc, "crc");
    out.raw(w.bytes().data(), w.size());
  }
  AtomicFile file(path);
  file.stream().write(reinterpret_cast<const char*>(out.bytes().data()),
                      static_cast<std::streamsize>(out.size()));
  file.commit();
}

// ------------------------------------------------------------ SnapshotReader

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  HYLO_CHECK(path.size() < 4 ||
                 path.compare(path.size() - 4, 4, ".tmp") != 0,
             "refusing to load '" << path << "': a '.tmp' snapshot is a torn "
                                  << "in-progress write left by a crash");
  std::ifstream in(path, std::ios::binary);
  HYLO_CHECK(in.good(), "cannot open snapshot " << path);
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ByteReader r(bytes.data(), bytes.size(), "container");
  Archive ar(r);
  std::uint64_t magic = 0;
  std::uint32_t count = 0;
  HYLO_CHECK(bytes.size() >= sizeof(magic),
             "not a hylo run snapshot: " << path);
  ar(magic, "magic");
  HYLO_CHECK(magic == kSnapshotMagic, "not a hylo run snapshot: " << path);
  ar(version_, "version");
  HYLO_CHECK(version_ == kSnapshotVersion,
             "snapshot " << path << " has version " << version_
                         << ", this build reads version " << kSnapshotVersion);
  ar(count, "section count");
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t len = 0;
    std::uint32_t want_crc = 0;
    ar(name, "section name");
    ar(len, "payload length");
    ar(want_crc, "crc");
    HYLO_CHECK(len <= r.remaining(),
               "snapshot " << path << ": section '" << name
                           << "' truncated (payload of " << len
                           << " bytes, file has " << r.remaining() << ")");
    std::vector<unsigned char> payload(len);
    r.take(payload.data(), len, "section payload");
    const std::uint32_t got_crc = crc32(payload.data(), payload.size());
    HYLO_CHECK(got_crc == want_crc,
               "snapshot " << path << ": section '" << name
                           << "' failed its CRC check (stored " << want_crc
                           << ", computed " << got_crc
                           << ") — the file is corrupt");
    HYLO_CHECK(sections_.find(name) == sections_.end(),
               "snapshot " << path << ": duplicate section '" << name << "'");
    names_.push_back(name);
    sections_.emplace(name, std::move(payload));
  }
  HYLO_CHECK(r.remaining() == 0, "snapshot " << path << " has "
                                             << r.remaining()
                                             << " trailing bytes");
}

bool SnapshotReader::has(const std::string& name) const {
  return sections_.find(name) != sections_.end();
}

ByteReader SnapshotReader::open(const std::string& name) const {
  const auto it = sections_.find(name);
  HYLO_CHECK(it != sections_.end(),
             "snapshot " << path_ << " has no section '" << name << "'");
  return ByteReader(it->second.data(), it->second.size(), name);
}

std::vector<std::string> list_snapshots(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".hysnp") == 0)
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void retain_last(const std::string& dir, index_t keep,
                 const std::string& pin) {
  if (keep <= 0) return;
  const auto snaps = list_snapshots(dir);
  const index_t n = static_cast<index_t>(snaps.size());
  for (index_t i = 0; i + keep < n; ++i) {
    const std::string& path = snaps[static_cast<std::size_t>(i)];
    if (!pin.empty() && path == pin) continue;
    std::remove(path.c_str());
  }
}

}  // namespace hylo::ckpt
