#pragma once
/// \file snapshot.hpp
/// hylo::ckpt — crash-safe run snapshots. A RunSnapshot is a versioned,
/// sectioned, CRC-checked binary container holding everything a Trainer
/// needs to continue a run bitwise-identically: network weights + layer
/// state, the full optimizer state (momentum, curvature factors, RNG stream
/// positions), the data-order cursor, the fault-plan draw cursor, and the
/// accumulated simulated clock (DESIGN.md §11).
///
/// File layout ("HyLoSNP1"):
///   u64 magic | u32 version | u32 section_count
///   per section: u64 name_len | name | u64 payload_len | u32 crc32 | payload
///
/// Writes are atomic: the container is assembled in memory, streamed to a
/// `<path>.tmp` sibling, flushed, and renamed over the final path — a crash
/// at any point leaves either the previous snapshot or a `.tmp` file that
/// readers refuse to open. Every section's CRC32 is verified on load, and
/// any truncation or corruption fails loudly naming the offending section.

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/rng.hpp"
#include "hylo/common/types.hpp"
#include "hylo/tensor/matrix.hpp"

namespace hylo::ckpt {

constexpr std::uint64_t kSnapshotMagic = 0x48794C6F534E5031ULL;  // "HyLoSNP1"
/// Version 3: every run writes the timeline (with its critical-path
/// compute), and meta records the comm mode.
constexpr std::uint32_t kSnapshotVersion = 3;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes,
/// continuing from `crc` so payloads can be checksummed incrementally.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

/// Appending byte buffer: the write side of a section payload.
class ByteWriter {
 public:
  void raw(const void* data, std::size_t len);

  const std::vector<unsigned char>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked cursor over a section payload: the read side. take()
/// throws hylo::Error naming the section and the field instead of reading
/// past the end, so a torn or mislabeled section never yields garbage state.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t len, std::string what);

  /// Copy the next `len` bytes into `dst`.
  void take(void* dst, std::size_t len, const char* field);

  std::size_t remaining() const { return len_ - pos_; }
  /// Reject trailing bytes — a section must be consumed exactly.
  void expect_done() const;
  const std::string& what() const { return what_; }

 private:
  const unsigned char* data_;
  std::size_t len_, pos_ = 0;
  std::string what_;
};

/// The snapshot codec (DESIGN.md §11). Every persisted state lists its
/// fields once, as calls on an Archive, and that one list both saves and
/// loads it: over a ByteWriter each call appends a field, over a ByteReader
/// the same call reads the field back into the same variable. A load checks
/// every count, length and matrix shape against the bytes left before it
/// allocates, and every failure is a hylo::Error naming the section and the
/// field.
///
/// Encoding: fixed-width scalars in host byte order, bool as one byte;
/// strings and vectors as a u64 length and their payload; matrices as u64
/// rows, u64 cols and the row-major reals.
///
/// An Archive is a handle on its buffer, passed by value. It converts
/// implicitly from either buffer, so a field list takes a ByteWriter or a
/// ByteReader directly.
class Archive {
 public:
  Archive(ByteWriter& out) : out_(&out) {}
  Archive(ByteReader& in) : in_(&in) {}

  bool loading() const { return in_ != nullptr; }

  /// A fixed-width field: bool, an integer or a double.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void operator()(T& v, const char* field) {
    if constexpr (std::is_same_v<T, bool>) {
      // One byte; any non-zero byte loads as true.
      std::uint8_t b = v ? 1 : 0;
      (*this)(b, field);
      v = b != 0;
    } else {
      bytes(&v, sizeof(v), field);
    }
  }
  void operator()(std::string& s, const char* field);
  /// A vector of reals or indices.
  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  void operator()(std::vector<T>& v, const char* field) {
    v.resize(length(v.size(), sizeof(T), field));
    bytes(v.data(), sizeof(T) * v.size(), field);
  }
  void operator()(Matrix& m, const char* field);
  /// The xoshiro256** words and the Box-Muller cache, so a stream resumes
  /// mid-sequence exactly.
  void operator()(Rng& rng, const char* field);
  template <typename A, typename B>
  void operator()(std::pair<A, B>& p, const char* field) {
    (*this)(p.first, field);
    (*this)(p.second, field);
  }
  /// A name-keyed map: its size, then each name and its value.
  template <typename V>
  void operator()(std::map<std::string, V>& m, const char* field) {
    const std::size_t n = length(m.size(), sizeof(std::uint64_t), field);
    if (!loading()) {
      for (auto& [name, value] : m) {
        std::string key = name;
        (*this)(key, field);
        (*this)(value, field);
      }
      return;
    }
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      V value{};
      (*this)(key, field);
      (*this)(value, field);
      m[key] = value;
    }
  }

  /// `count` reals at `data`, a count the caller fixes (a parameter's
  /// size): a load checks that the stored count equals it.
  void reals(real_t* data, index_t count, const char* field);

  /// An enum stored as a one-byte tag; a load checks it is at most `last`.
  template <typename E>
    requires std::is_enum_v<E>
  void tag(E& e, E last, const char* field) {
    auto t = static_cast<std::uint8_t>(e);
    (*this)(t, field);
    require(t <= static_cast<std::uint8_t>(last), field, "tag ",
            static_cast<int>(t), " unknown");
    e = static_cast<E>(t);
  }

  /// The length of a sequence whose items take at least `item_bytes` each.
  /// A save writes seq.size(); a load bounds the stored length by the bytes
  /// left, then clears `seq` and resizes it to that length, so the caller's
  /// per-item field list fills fresh items.
  template <typename Seq>
  void count(Seq& seq, std::size_t item_bytes, const char* field) {
    const std::size_t n = length(seq.size(), item_bytes, field);
    if (!loading()) return;
    seq.clear();
    seq.resize(n);
  }

  /// A value this run fixes (a config value): a save writes it, a load
  /// checks that the stored value equals it.
  template <typename T>
  void expect(const T& v, const char* field) {
    T stored = v;
    (*this)(stored, field);
    require(stored == v, field, "snapshot has ", stored, ", this run has ", v);
  }

  /// Load-side validation: when loading and `ok` is false, throws a
  /// hylo::Error naming the section and `field`, followed by `why...`.
  template <typename... Why>
  void require(bool ok, const char* field, const Why&... why) const {
    if (ok || !loading()) return;
    std::ostringstream os;
    (os << ... << why);
    fail(field, os.str());
  }

 private:
  /// Append or take `len` raw bytes.
  void bytes(void* data, std::size_t len, const char* field);
  /// Write `n`, or read a length and check that that many items of
  /// `item_bytes` each fit the bytes left (by division, so it cannot wrap).
  std::size_t length(std::size_t n, std::size_t item_bytes, const char* field);
  [[noreturn]] void fail(const char* field, const std::string& why) const;

  ByteWriter* out_ = nullptr;
  ByteReader* in_ = nullptr;
};

/// Atomic file replacement: stream into `<path>.tmp`, then commit() flushes
/// and renames over the final path. Destruction without commit removes the
/// temporary, so a crash or exception mid-write never clobbers the previous
/// file. The snapshot writer routes through this (the lint bans raw
/// std::ofstream checkpoint writes elsewhere).
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ostream& stream() { return out_; }
  const std::string& temp_path() const { return tmp_; }

  /// Flush, close and rename over the final path. Throws on any IO failure
  /// (leaving the final path untouched).
  void commit();

 private:
  std::string path_, tmp_;
  std::ofstream out_;
  bool committed_ = false;
};

/// Assembles named sections in memory and writes the container atomically.
class SnapshotWriter {
 public:
  /// Get-or-create the section's writer. Sections keep creation order.
  ByteWriter& section(const std::string& name);

  /// Atomic write (tmp + rename) of the full container to `path`.
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, ByteWriter>> sections_;
};

/// Parses a snapshot file, verifying magic, version, and every section's
/// CRC up front. Errors name the snapshot path and the offending section.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::string& path);

  std::uint32_t version() const { return version_; }
  bool has(const std::string& name) const;
  /// Reader over a section's payload; throws if the section is missing.
  ByteReader open(const std::string& name) const;
  const std::vector<std::string>& names() const { return names_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint32_t version_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, std::vector<unsigned char>> sections_;
};

/// Trainer-facing cadence config (TrainConfig::checkpoint, or HYLO_CKPT_DIR /
/// HYLO_CKPT_EVERY / HYLO_CKPT_KEEP). A non-empty dir with `every == 0`
/// pins checkpointing off.
struct CkptConfig {
  std::string dir;     ///< snapshot directory (empty = disabled)
  index_t every = 0;   ///< snapshot cadence in iterations (0 = disabled)
  index_t keep = 3;    ///< retain the newest K snapshots (0 = keep all)

  bool enabled() const { return !dir.empty() && every > 0; }
};

/// Snapshot paths under `dir` matching the trainer's naming scheme
/// (snapshot-NNNNNNNN.hysnp), sorted oldest first.
std::vector<std::string> list_snapshots(const std::string& dir);

/// Delete all but the newest `keep` snapshots under `dir` (0 keeps all).
/// A non-empty `pin` names one path that is never deleted even when it
/// falls out of the keep window — the trainer pins its last verified-good
/// snapshot so a rollback target always survives rotation (DESIGN.md §16).
/// The pin does not count against `keep`: the newest `keep` snapshots are
/// retained in addition to it.
void retain_last(const std::string& dir, index_t keep,
                 const std::string& pin = "");

}  // namespace hylo::ckpt
