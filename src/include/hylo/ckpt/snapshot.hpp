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
#include <string>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/rng.hpp"
#include "hylo/common/types.hpp"
#include "hylo/tensor/matrix.hpp"

namespace hylo::ckpt {

constexpr std::uint64_t kSnapshotMagic = 0x48794C6F534E5031ULL;  // "HyLoSNP1"
/// Version 2: curvature optimizers serialize served and in-flight layer
/// state through one CurvatureOptimizer layout.
constexpr std::uint32_t kSnapshotVersion = 2;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes,
/// continuing from `crc` so payloads can be checksummed incrementally.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

/// Little binary serializer: fixed-width scalars, length-prefixed strings
/// and real arrays, and Matrix dims+payload. Both trainer state and every
/// Optimizer::save_state write through this so the on-disk layout has one
/// source of truth.
class ByteWriter {
 public:
  void raw(const void* data, std::size_t len);
  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void real(real_t v) { raw(&v, sizeof(v)); }
  void str(const std::string& s);
  /// u64 count + raw payload; the reader checks the count against the
  /// destination size so shape mismatches fail before any copy.
  void reals(const real_t* data, index_t count);
  void real_vec(const std::vector<real_t>& v);
  void index_vec(const std::vector<index_t>& v);
  void matrix(const Matrix& m);

  const std::vector<unsigned char>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<unsigned char> buf_;
};

/// Mirror of ByteWriter over a section payload. Every read bounds-checks
/// against the payload end and throws hylo::Error naming the section, so a
/// torn or mislabeled section never silently yields garbage state.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t len, std::string what);

  std::uint8_t u8();
  bool b() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  real_t real();
  std::string str();
  /// Reads a `reals` block written for exactly `count` scalars into `dst`.
  void reals_into(real_t* dst, index_t count, const char* field);
  /// Bounds-checked raw copy (container parsing).
  void raw_into(void* dst, std::size_t len, const char* field);
  std::vector<real_t> real_vec();
  std::vector<index_t> index_vec();
  Matrix matrix();

  std::size_t remaining() const { return len_ - pos_; }
  /// Reject trailing bytes — a section must be consumed exactly.
  void expect_done() const;
  const std::string& what() const { return what_; }

 private:
  void take(void* dst, std::size_t len, const char* field);

  const unsigned char* data_;
  std::size_t len_, pos_ = 0;
  std::string what_;
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

/// Rng stream-position serialization: the four xoshiro256** words plus the
/// Box-Muller cache, so every random stream resumes mid-sequence exactly.
void write_rng_state(ByteWriter& w, const Rng::State& st);
Rng::State read_rng_state(ByteReader& r);

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
