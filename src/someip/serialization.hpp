// SOME/IP on-wire payload serialization.
//
// Big-endian (network byte order) basic encoding per the SOME/IP
// specification: fixed-width integers, IEEE-754 floats, strings and dynamic
// arrays with 32-bit length fields. User-defined structs opt in by
// providing ADL-visible `someip_serialize(Writer&, const T&)` and
// `someip_deserialize(Reader&, T&)` overloads.
//
// Every primitive is inline: a multi-byte value is one size bump of the
// buffer plus direct big-endian stores (loads on the read side), so a typed
// encode or decode compiles down to straight-line code with no call per
// field. encode_payload() writes into a buffer from common::BufferPool; the
// binding that finally consumes the payload releases it back, which keeps a
// steady typed message stream off the system allocator.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"

namespace dear::someip {

class Writer {
 public:
  Writer() = default;
  /// Writes into `buffer` (cleared, capacity retained) — the pooled path:
  /// callers recycle one buffer per stream and a warm encode allocates
  /// nothing.
  explicit Writer(std::vector<std::uint8_t> buffer) noexcept : bytes_(std::move(buffer)) {
    bytes_.clear();
  }

  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  void write_u8(std::uint8_t v) { bytes_.push_back(v); }
  void write_u16(std::uint16_t v) { store_be(v); }
  void write_u32(std::uint32_t v) { store_be(v); }
  void write_u64(std::uint64_t v) { store_be(v); }
  void write_i8(std::int8_t v) { write_u8(static_cast<std::uint8_t>(v)); }
  void write_i16(std::int16_t v) { write_u16(static_cast<std::uint16_t>(v)); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f32(float v) { write_u32(std::bit_cast<std::uint32_t>(v)); }
  void write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_bytes(const std::uint8_t* data, std::size_t size) {
    if (size > 0) {
      std::memcpy(extend(size), data, size);
    }
  }
  void write_string(const std::string& s) {
    write_u32(static_cast<std::uint32_t>(s.size()));
    write_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  /// Grows the buffer by `count` bytes in one step and returns the first.
  std::uint8_t* extend(std::size_t count) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + count);
    return bytes_.data() + at;
  }

  template <typename U>
  void store_be(U v) {
    std::uint8_t* out = extend(sizeof(U));
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(U) - 1 - i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Non-throwing cursor over a byte buffer. After any failed read, ok() is
/// false and all subsequent reads return zero values.
///
/// Every bounds check compares the requested count against remaining()
/// rather than position + count, which could wrap for a hostile length
/// field and authorize an out-of-range read.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) noexcept : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes) noexcept
      : Reader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t read_u8() noexcept { return load_be<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t read_u16() noexcept { return load_be<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t read_u32() noexcept { return load_be<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t read_u64() noexcept { return load_be<std::uint64_t>(); }
  [[nodiscard]] std::int8_t read_i8() noexcept { return static_cast<std::int8_t>(read_u8()); }
  [[nodiscard]] std::int16_t read_i16() noexcept { return static_cast<std::int16_t>(read_u16()); }
  [[nodiscard]] std::int32_t read_i32() noexcept { return static_cast<std::int32_t>(read_u32()); }
  [[nodiscard]] std::int64_t read_i64() noexcept { return static_cast<std::int64_t>(read_u64()); }
  [[nodiscard]] float read_f32() noexcept { return std::bit_cast<float>(read_u32()); }
  [[nodiscard]] double read_f64() noexcept { return std::bit_cast<double>(read_u64()); }
  [[nodiscard]] bool read_bool() noexcept { return read_u8() != 0; }
  [[nodiscard]] std::string read_string() { return std::string(read_string_view()); }
  /// Zero-copy string read: views the underlying buffer, valid for the
  /// buffer's lifetime. Empty view (and ok() == false) on short input.
  [[nodiscard]] std::string_view read_string_view() noexcept {
    const std::uint32_t size = read_u32();
    const std::uint8_t* bytes = view_bytes(size);
    return ok_ ? std::string_view(reinterpret_cast<const char*>(bytes), size)
               : std::string_view{};
  }

  bool read_bytes(std::uint8_t* out, std::size_t count) noexcept {
    const std::uint8_t* bytes = view_bytes(count);
    if (!ok_) {
      return false;
    }
    if (count > 0) {
      std::memcpy(out, bytes, count);
    }
    return true;
  }
  /// Zero-copy bulk read: advances the cursor and returns a pointer to
  /// `count` bytes inside the buffer, or nullptr (failing the reader) when
  /// fewer remain.
  [[nodiscard]] const std::uint8_t* view_bytes(std::size_t count) noexcept {
    if (!ok_ || count > remaining()) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* view = data_ + position_;
    position_ += count;
    return view;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - position_; }
  [[nodiscard]] std::size_t position() const noexcept { return position_; }

  /// Marks the reader failed (used by typed decoders on semantic errors).
  void fail() noexcept { ok_ = false; }

 private:
  template <typename U>
  [[nodiscard]] U load_be() noexcept {
    const std::uint8_t* in = view_bytes(sizeof(U));
    if (in == nullptr) {
      return 0;
    }
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v = static_cast<U>((v << 8) | in[i]);
    }
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t position_{0};
  bool ok_{true};
};

// --- built-in type codecs -------------------------------------------------

inline void someip_serialize(Writer& w, std::uint8_t v) { w.write_u8(v); }
inline void someip_serialize(Writer& w, std::uint16_t v) { w.write_u16(v); }
inline void someip_serialize(Writer& w, std::uint32_t v) { w.write_u32(v); }
inline void someip_serialize(Writer& w, std::uint64_t v) { w.write_u64(v); }
inline void someip_serialize(Writer& w, std::int8_t v) { w.write_i8(v); }
inline void someip_serialize(Writer& w, std::int16_t v) { w.write_i16(v); }
inline void someip_serialize(Writer& w, std::int32_t v) { w.write_i32(v); }
inline void someip_serialize(Writer& w, std::int64_t v) { w.write_i64(v); }
inline void someip_serialize(Writer& w, float v) { w.write_f32(v); }
inline void someip_serialize(Writer& w, double v) { w.write_f64(v); }
inline void someip_serialize(Writer& w, bool v) { w.write_bool(v); }
inline void someip_serialize(Writer& w, const std::string& v) { w.write_string(v); }

inline void someip_deserialize(Reader& r, std::uint8_t& v) { v = r.read_u8(); }
inline void someip_deserialize(Reader& r, std::uint16_t& v) { v = r.read_u16(); }
inline void someip_deserialize(Reader& r, std::uint32_t& v) { v = r.read_u32(); }
inline void someip_deserialize(Reader& r, std::uint64_t& v) { v = r.read_u64(); }
inline void someip_deserialize(Reader& r, std::int8_t& v) { v = r.read_i8(); }
inline void someip_deserialize(Reader& r, std::int16_t& v) { v = r.read_i16(); }
inline void someip_deserialize(Reader& r, std::int32_t& v) { v = r.read_i32(); }
inline void someip_deserialize(Reader& r, std::int64_t& v) { v = r.read_i64(); }
inline void someip_deserialize(Reader& r, float& v) { v = r.read_f32(); }
inline void someip_deserialize(Reader& r, double& v) { v = r.read_f64(); }
inline void someip_deserialize(Reader& r, bool& v) { v = r.read_bool(); }
inline void someip_deserialize(Reader& r, std::string& v) {
  // Zero-copy view, then assign into the caller's string: decoding into a
  // reused struct reuses the string's capacity instead of constructing a
  // fresh one per message.
  const std::string_view view = r.read_string_view();
  v.assign(view.begin(), view.end());
}

template <typename T>
void someip_serialize(Writer& w, const std::vector<T>& v) {
  w.write_u32(static_cast<std::uint32_t>(v.size()));
  for (const T& item : v) {
    someip_serialize(w, item);
  }
}

/// A hostile count cannot pre-size anything: elements are appended one at a
/// time, and the loop stops at the first element that fails to read, so the
/// vector holds only what the bytes actually carried.
template <typename T>
void someip_deserialize(Reader& r, std::vector<T>& v) {
  const std::uint32_t count = r.read_u32();
  v.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    T item{};
    someip_deserialize(r, item);
    if (!r.ok()) {
      return;
    }
    v.push_back(std::move(item));
  }
}

/// Serializes a value pack into a pooled payload buffer (method arguments
/// are serialized in declaration order). The binding that consumes the
/// payload returns it to common::BufferPool, so a warm stream allocates
/// nothing.
template <typename... Ts>
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const Ts&... values) {
  Writer writer(common::BufferPool::instance().acquire());
  (someip_serialize(writer, values), ...);
  return writer.take();
}

/// Serializes a value pack into `out` (cleared, capacity retained) — the
/// allocation-free variant for recycled payload buffers.
template <typename... Ts>
void encode_payload_into(std::vector<std::uint8_t>& out, const Ts&... values) {
  Writer writer(std::move(out));
  (someip_serialize(writer, values), ...);
  out = writer.take();
}

/// Decodes a payload into a tuple; returns false on malformed input.
template <typename... Ts>
[[nodiscard]] bool decode_payload(const std::vector<std::uint8_t>& payload, Ts&... values) {
  Reader reader(payload);
  (someip_deserialize(reader, values), ...);
  return reader.ok();
}

}  // namespace dear::someip
