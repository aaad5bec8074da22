// Minimal binary (de)serialization helpers for model persistence.
//
// Fixed little-endian-style encoding via raw memcpy of fixed-width types;
// all numeric fields go through the u64/f32 helpers so the format is
// identical across builds. Readers throw std::runtime_error on truncated
// or malformed input.
//
// Checksummed sections (write_section / read_section) wrap a serialized
// payload as tag | size | bytes | CRC32C, so loaders detect payload
// corruption — not just structural drift — before parsing a single field.
//
// For payloads too large to buffer (a D x classes model beyond RAM), the
// chunked section streambufs frame the same logical bytes as a sequence of
// fixed-size chunks, each carrying its own CRC32C, terminated by a zero
// length word — writer and reader both hold one chunk of memory, and a
// flipped byte still fails with an error naming the section.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace cyberhd::core::io {

inline void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated stream (u64)");
  return v;
}

inline void write_f32(std::ostream& out, float v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline float read_f32(std::istream& in) {
  float v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated stream (f32)");
  return v;
}

inline void write_f32_array(std::ostream& out, std::span<const float> v) {
  write_u64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

/// Bytes left between a seekable stream's read position and its end
/// (0 when the seek fails), or UINT64_MAX for a stream that cannot seek.
/// Loaders bound an untrusted length word by it before allocating, so a
/// corrupt or hostile length never turns into a multi-GiB allocation on a
/// file or stringstream; non-seekable streams fall back to the
/// plausibility caps.
inline std::uint64_t bytes_remaining(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return UINT64_MAX;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end < here) return 0;
  return static_cast<std::uint64_t>(end - here);
}

inline std::vector<float> read_f32_array(std::istream& in) {
  const std::uint64_t n = read_u64(in);
  if (n > (1ULL << 32)) throw std::runtime_error("implausible array size");
  if (n * sizeof(float) > bytes_remaining(in)) {
    throw std::runtime_error("truncated stream (f32 array)");
  }
  std::vector<float> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  if (!in) throw std::runtime_error("truncated stream (f32 array)");
  return v;
}

/// Write a 4-byte tag and verify it on read (format sanity checks).
inline void write_tag(std::ostream& out, const char (&tag)[5]) {
  out.write(tag, 4);
}

inline void expect_tag(std::istream& in, const char (&tag)[5]) {
  char buf[4];
  in.read(buf, 4);
  if (!in || std::memcmp(buf, tag, 4) != 0) {
    throw std::runtime_error(std::string("bad tag, expected ") + tag);
  }
}

/// Read and return the next 4-byte tag (loaders that accept more than one
/// section layout branch on it, then parse the matching body — no seeking,
/// so non-seekable streams keep working).
inline std::string read_tag(std::istream& in) {
  char buf[4];
  in.read(buf, 4);
  if (!in) throw std::runtime_error("truncated stream (tag)");
  return std::string(buf, 4);
}

// ---- CRC32C + checksummed sections -----------------------------------------

/// CRC32C (Castagnoli polynomial, reflected) over `n` bytes. Table-driven
/// software implementation — portable, no SSE4.2 dependency; persistence
/// is far from any hot path.
inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t seed = 0) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

/// Write one checksummed section: 4-byte tag, u64 payload size, payload
/// bytes, u64 checksum word (CRC32C in the low 32 bits).
inline void write_section(std::ostream& out, const char (&tag)[5],
                          std::string_view payload) {
  write_tag(out, tag);
  write_u64(out, payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_u64(out, crc32c(payload.data(), payload.size()));
}

/// Read the size | payload | CRC body of a checksummed section whose tag
/// has already been consumed (read_section wraps this; loaders that
/// branched on read_tag() call it directly). Bounds the size and
/// recomputes the CRC before returning the payload bytes; throws
/// std::runtime_error naming the section on any mismatch — a corrupt
/// payload never reaches a field parser.
inline std::string read_section_body(std::istream& in,
                                     const std::string& tag) {
  const std::uint64_t size = read_u64(in);
  // The size word sits outside the CRC, so a flipped bit in it must fail
  // cleanly too: before allocating, bound the size by what the stream can
  // actually supply (seekable streams — files and stringstreams, i.e.
  // every loader path) so a corrupt size never triggers a multi-GiB
  // allocation. Non-seekable streams fall back to the plausibility cap.
  if (size > bytes_remaining(in)) {
    throw std::runtime_error(std::string("truncated section ") + tag);
  }
  if (size > (1ULL << 33)) {
    throw std::runtime_error(std::string("implausible size for section ") +
                             tag);
  }
  std::string payload(static_cast<std::size_t>(size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  if (!in) {
    throw std::runtime_error(std::string("truncated section ") + tag);
  }
  const std::uint64_t stored = read_u64(in);
  const std::uint32_t computed = crc32c(payload.data(), payload.size());
  if (stored != computed) {
    throw std::runtime_error(
        std::string("checksum mismatch in section ") + tag + " (stored " +
        std::to_string(stored) + ", computed " + std::to_string(computed) +
        ")");
  }
  return payload;
}

/// Read one checksummed section written by write_section: verifies the
/// expected tag, then parses the body (see read_section_body).
inline std::string read_section(std::istream& in, const char (&tag)[5]) {
  expect_tag(in, tag);
  return read_section_body(in, tag);
}

// ---- chunked sections: streaming CRC32C framing ----------------------------

/// Largest chunk size a chunked section may declare (a corrupt header word
/// must never turn into a multi-GiB chunk-buffer allocation).
inline constexpr std::size_t kMaxSectionChunkBytes = std::size_t{1} << 28;

/// Output streambuf that frames everything written through it as
/// fixed-size CRC32C-checksummed chunks: [u64 n | n bytes | u64 crc]...,
/// closed by a zero length word (finish()). Memory is bounded by one
/// chunk regardless of the logical payload size — the writer side of the
/// "model bigger than RAM" persistence path.
class ChunkedSectionWriter final : public std::streambuf {
 public:
  ChunkedSectionWriter(std::ostream& out, std::size_t chunk_bytes)
      : out_(out), buf_(chunk_bytes) {
    setp(buf_.data(), buf_.data() + buf_.size());
  }
  ChunkedSectionWriter(const ChunkedSectionWriter&) = delete;
  ChunkedSectionWriter& operator=(const ChunkedSectionWriter&) = delete;

  /// Flush the partial chunk and write the terminator. Must be called
  /// exactly once, after the last byte.
  void finish() {
    flush_chunk();
    write_u64(out_, 0);
  }

 protected:
  int_type overflow(int_type ch) override {
    flush_chunk();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  void flush_chunk() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    if (n > 0) {
      write_u64(out_, n);
      out_.write(pbase(), static_cast<std::streamsize>(n));
      write_u64(out_, crc32c(pbase(), n));
    }
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  std::ostream& out_;
  std::vector<char> buf_;
};

/// Input streambuf over a chunk sequence written by ChunkedSectionWriter:
/// each underflow pulls the next chunk, bounds its size, and verifies its
/// CRC before serving a single byte — a corrupt chunk throws a
/// std::runtime_error naming `tag` instead of reaching any field parser.
/// After the zero terminator the buf reports EOF and finished() is true;
/// a stream that ends without a terminator throws (so a truncated tail
/// can never load silently).
class ChunkedSectionReader final : public std::streambuf {
 public:
  ChunkedSectionReader(std::istream& in, std::string tag,
                       std::size_t chunk_bytes)
      : in_(in), tag_(std::move(tag)) {
    if (chunk_bytes == 0 || chunk_bytes > kMaxSectionChunkBytes) {
      throw std::runtime_error("implausible chunk size in section " + tag_);
    }
    // Bound the chunk buffer by what the stream can actually supply, so a
    // corrupt chunk-size header never allocates past the file itself.
    chunk_bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_bytes, bytes_remaining(in_)));
    buf_.resize(std::max<std::size_t>(1, chunk_bytes));
  }
  ChunkedSectionReader(const ChunkedSectionReader&) = delete;
  ChunkedSectionReader& operator=(const ChunkedSectionReader&) = delete;

  /// True once the zero terminator has been consumed cleanly.
  bool finished() const noexcept { return done_; }

 protected:
  int_type underflow() override {
    if (done_) return traits_type::eof();
    const std::uint64_t n = read_word("chunk length");
    if (n == 0) {
      done_ = true;
      return traits_type::eof();
    }
    if (n > buf_.size()) {
      throw std::runtime_error("oversized chunk in section " + tag_);
    }
    in_.read(buf_.data(), static_cast<std::streamsize>(n));
    if (!in_) {
      throw std::runtime_error("truncated chunk in section " + tag_);
    }
    const std::uint64_t stored = read_word("chunk checksum");
    const std::uint32_t computed =
        crc32c(buf_.data(), static_cast<std::size_t>(n));
    if (stored != computed) {
      throw std::runtime_error(
          "checksum mismatch in section " + tag_ + " (chunk " +
          std::to_string(chunk_index_) + ", stored " +
          std::to_string(stored) + ", computed " + std::to_string(computed) +
          ")");
    }
    ++chunk_index_;
    setg(buf_.data(), buf_.data(), buf_.data() + n);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  std::uint64_t read_word(const char* what) {
    std::uint64_t v = 0;
    in_.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (!in_) {
      throw std::runtime_error(std::string("truncated section ") + tag_ +
                               " (" + what + ")");
    }
    return v;
  }

  std::istream& in_;
  std::string tag_;
  std::vector<char> buf_;
  std::size_t chunk_index_ = 0;
  bool done_ = false;
};

}  // namespace cyberhd::core::io
