#ifndef GEOLIC_PERSIST_FRAMING_H_
#define GEOLIC_PERSIST_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace geolic::framing {

// Little-endian scalar (de)serialization shared by every framed byte
// format in the tree — journal frames, checkpoint payloads, and the wire
// protocol (net/wire.h). memcpy keeps the accesses alignment-safe; the
// persist formats are defined little-endian, which is every host this
// repo targets.

// Appends `value`'s bytes to `out`.
template <typename T>
void PutScalar(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

// Appends a u32 length prefix, then `text`'s bytes.
inline void PutString(std::string* out, std::string_view text) {
  PutScalar(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

// Reads one scalar at `*pos`, advancing it; false when `bytes` is too
// short (callers treat that as truncation, *pos unchanged).
template <typename T>
bool GetScalar(std::string_view bytes, size_t* pos, T* value) {
  if (bytes.size() - *pos < sizeof(T)) {
    return false;
  }
  std::memcpy(value, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace geolic::framing

#endif  // GEOLIC_PERSIST_FRAMING_H_
