// Reading binary files whose element counts and lengths come from the file.

#pragma once

#include <cstdint>
#include <istream>

namespace ncl {

/// Bytes between `in`'s read position and the end of a `file_bytes`-byte
/// file (0 once the stream has failed). Every file-controlled count or
/// length is checked against this before anything is allocated for it, so
/// a forged count fails with a Status instead of a huge allocation.
inline uint64_t BytesLeft(std::istream& in, uint64_t file_bytes) {
  const std::streamoff pos = in.tellg();
  if (pos < 0 || static_cast<uint64_t>(pos) > file_bytes) return 0;
  return file_bytes - static_cast<uint64_t>(pos);
}

}  // namespace ncl
