// Flat little-endian binary images (the pre-loaded model image,
// chronus/model_image): an appending writer and a bounds-checked reader.
//
// Scalars and arrays are copied with memcpy in native order, like the RPC
// wire codec; the static_assert below keeps that order little-endian. The
// reader never allocates before it has checked that the bytes for a count
// are there, so a corrupt count cannot ask for more memory than the image
// holds.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace eco {

static_assert(std::endian::native == std::endian::little,
              "binary images are little-endian; this host is not");

class ImageWriter {
 public:
  explicit ImageWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T v) {
    static_assert(std::is_arithmetic_v<T>);
    out_->append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <typename T>
  void PutArray(const std::vector<T>& values) {
    static_assert(std::is_arithmetic_v<T>);
    out_->append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(T));
  }
  // u32 length, then the bytes.
  void PutString(std::string_view s) {
    Put(static_cast<std::uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

class ImageReader {
 public:
  explicit ImageReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - at_; }
  [[nodiscard]] bool done() const { return at_ == bytes_.size(); }
  // True when `count` elements of `size` bytes each are still unread.
  [[nodiscard]] bool Fits(std::uint64_t count, std::size_t size) const {
    return size == 0 || count <= remaining() / size;
  }

  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_arithmetic_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(v, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return true;
  }
  // Reads `count` elements into `out`; allocates only once they fit.
  template <typename T>
  bool GetArray(std::uint64_t count, std::vector<T>* out) {
    static_assert(std::is_arithmetic_v<T>);
    if (!Fits(count, sizeof(T))) return false;
    out->resize(static_cast<std::size_t>(count));
    std::memcpy(out->data(), bytes_.data() + at_, out->size() * sizeof(T));
    at_ += out->size() * sizeof(T);
    return true;
  }
  bool GetString(std::string* s) {
    std::uint32_t n = 0;
    if (!Get(&n) || remaining() < n) return false;
    s->assign(bytes_.data() + at_, n);
    at_ += n;
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t at_ = 0;
};

}  // namespace eco
