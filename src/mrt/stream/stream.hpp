// DeltaStream: the one seam every TopologyDelta consumer drives from.
//
// A DeltaStream is a pull-based sequence of TopologyDelta batches —
// `next()` returns the next batch or nullopt at end-of-stream. Sources exist
// for in-memory replay logs (MemorySource), wire-format byte buffers
// (BufferSource), wire-format files (FileSource), and — via
// mrt/sim/delta_stream.hpp — the path-vector simulator's quiescent-point
// log. A stream of N deltas is exactly N ordinary `update()` calls on a
// `dyn::Solver` or `rib::RibSolver`: the batch API is the single-record case
// of the stream API, not a separate code path. `serve::Daemon::drain` is the
// drain loop.
//
// Decode failures terminate the stream gracefully: `next()` returns nullopt
// and `error()` is non-empty. A well-formed stream that simply ends leaves
// `error()` empty.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mrt/dyn/delta.hpp"

namespace mrt::stream {

class DeltaStream {
 public:
  virtual ~DeltaStream() = default;

  /// Next delta batch, or nullopt when exhausted (or failed — check error()).
  virtual std::optional<dyn::TopologyDelta> next() = 0;

  /// Non-empty iff the stream terminated on a decode/io failure.
  const std::string& error() const { return error_; }

 protected:
  std::string error_;
};

/// Replays an in-memory log of deltas (no wire encoding involved).
class MemorySource final : public DeltaStream {
 public:
  explicit MemorySource(std::vector<dyn::TopologyDelta> deltas)
      : deltas_(std::move(deltas)) {}

  std::optional<dyn::TopologyDelta> next() override {
    if (i_ >= deltas_.size()) return std::nullopt;
    return deltas_[i_++];
  }

 private:
  std::vector<dyn::TopologyDelta> deltas_;
  std::size_t i_ = 0;
};

/// Decodes wire-format frames from a byte buffer, one frame per next().
class BufferSource final : public DeltaStream {
 public:
  explicit BufferSource(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  std::optional<dyn::TopologyDelta> next() override;

  /// Byte offset of the next undecoded frame (== size when drained).
  std::size_t offset() const { return pos_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Decodes wire-format frames from a file. The file is slurped on first
/// next(); an unreadable file yields an immediate end-of-stream with error()
/// set.
class FileSource final : public DeltaStream {
 public:
  explicit FileSource(std::string path) : path_(std::move(path)) {}

  std::optional<dyn::TopologyDelta> next() override;

 private:
  std::string path_;
  bool loaded_ = false;
  std::optional<BufferSource> buf_;
};

}  // namespace mrt::stream
