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

// ---------------------------------------------------------------- ByteWriter

void ByteWriter::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void ByteWriter::reals(const real_t* data, index_t count) {
  HYLO_CHECK(count >= 0, "negative real block size");
  u64(static_cast<std::uint64_t>(count));
  raw(data, sizeof(real_t) * static_cast<std::size_t>(count));
}

void ByteWriter::real_vec(const std::vector<real_t>& v) {
  reals(v.data(), static_cast<index_t>(v.size()));
}

void ByteWriter::index_vec(const std::vector<index_t>& v) {
  u64(v.size());
  raw(v.data(), sizeof(index_t) * v.size());
}

void ByteWriter::matrix(const Matrix& m) {
  u64(static_cast<std::uint64_t>(m.rows()));
  u64(static_cast<std::uint64_t>(m.cols()));
  raw(m.data(), sizeof(real_t) * static_cast<std::size_t>(m.size()));
}

// ---------------------------------------------------------------- ByteReader

ByteReader::ByteReader(const unsigned char* data, std::size_t len,
                       std::string what)
    : data_(data), len_(len), what_(std::move(what)) {}

void ByteReader::take(void* dst, std::size_t len, const char* field) {
  HYLO_CHECK(pos_ + len <= len_,
             "snapshot section '" << what_ << "' truncated while reading "
                                  << field << ": wanted " << len
                                  << " bytes at offset " << pos_ << ", have "
                                  << (len_ - pos_));
  // An empty matrix or vector reads into a null data(), and memcpy needs
  // valid pointers even for zero bytes.
  if (len == 0) return;
  std::memcpy(dst, data_ + pos_, len);
  pos_ += len;
}

std::uint8_t ByteReader::u8() {
  std::uint8_t v = 0;
  take(&v, sizeof(v), "u8");
  return v;
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  take(&v, sizeof(v), "u32");
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  take(&v, sizeof(v), "u64");
  return v;
}

std::int64_t ByteReader::i64() {
  std::int64_t v = 0;
  take(&v, sizeof(v), "i64");
  return v;
}

double ByteReader::f64() {
  double v = 0.0;
  take(&v, sizeof(v), "f64");
  return v;
}

real_t ByteReader::real() {
  real_t v = 0.0;
  take(&v, sizeof(v), "real");
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  HYLO_CHECK(n <= remaining(),
             "snapshot section '" << what_ << "': string length " << n
                                  << " exceeds remaining payload");
  std::string s(n, '\0');
  take(s.data(), n, "string");
  return s;
}

void ByteReader::raw_into(void* dst, std::size_t len, const char* field) {
  take(dst, len, field);
}

void ByteReader::reals_into(real_t* dst, index_t count, const char* field) {
  const std::uint64_t n = u64();
  HYLO_CHECK(n == static_cast<std::uint64_t>(count),
             "snapshot section '" << what_ << "': " << field << " holds " << n
                                  << " scalars, expected " << count);
  take(dst, sizeof(real_t) * n, field);
}

std::vector<real_t> ByteReader::real_vec() {
  const std::uint64_t n = u64();
  HYLO_CHECK(sizeof(real_t) * n <= remaining(),
             "snapshot section '" << what_ << "': real vector of " << n
                                  << " exceeds remaining payload");
  std::vector<real_t> v(n);
  take(v.data(), sizeof(real_t) * n, "real vector");
  return v;
}

std::vector<index_t> ByteReader::index_vec() {
  const std::uint64_t n = u64();
  HYLO_CHECK(sizeof(index_t) * n <= remaining(),
             "snapshot section '" << what_ << "': index vector of " << n
                                  << " exceeds remaining payload");
  std::vector<index_t> v(n);
  take(v.data(), sizeof(index_t) * n, "index vector");
  return v;
}

Matrix ByteReader::matrix() {
  const std::uint64_t rows = u64();
  const std::uint64_t cols = u64();
  HYLO_CHECK(sizeof(real_t) * rows * cols <= remaining(),
             "snapshot section '" << what_ << "': matrix " << rows << "x"
                                  << cols << " exceeds remaining payload");
  Matrix m(static_cast<index_t>(rows), static_cast<index_t>(cols));
  take(m.data(), sizeof(real_t) * rows * cols, "matrix payload");
  return m;
}

void ByteReader::expect_done() const {
  HYLO_CHECK(pos_ == len_, "snapshot section '"
                               << what_ << "' has " << (len_ - pos_)
                               << " trailing bytes after its payload");
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
  out.u64(kSnapshotMagic);
  out.u32(kSnapshotVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, w] : sections_) {
    out.str(name);
    out.u64(w.size());
    out.u32(crc32(w.bytes().data(), w.size()));
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

  HYLO_CHECK(bytes.size() >= sizeof(std::uint64_t) && r.u64() == kSnapshotMagic,
             "not a hylo run snapshot: " << path);
  version_ = r.u32();
  HYLO_CHECK(version_ == kSnapshotVersion,
             "snapshot " << path << " has version " << version_
                         << ", this build reads version " << kSnapshotVersion);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    const std::uint64_t len = r.u64();
    const std::uint32_t want_crc = r.u32();
    HYLO_CHECK(len <= r.remaining(),
               "snapshot " << path << ": section '" << name
                           << "' truncated (payload of " << len
                           << " bytes, file has " << r.remaining() << ")");
    std::vector<unsigned char> payload(len);
    if (len > 0) r.raw_into(payload.data(), len, "section payload");
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

void write_rng_state(ByteWriter& w, const Rng::State& st) {
  for (int i = 0; i < 4; ++i) w.u64(st.s[i]);
  w.b(st.have_cached_normal);
  w.real(st.cached_normal);
}

Rng::State read_rng_state(ByteReader& r) {
  Rng::State st;
  for (int i = 0; i < 4; ++i) st.s[i] = r.u64();
  st.have_cached_normal = r.b();
  st.cached_normal = r.real();
  return st;
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
