#ifndef LSMSSD_UTIL_CRC32C_H_
#define LSMSSD_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lsmssd {
namespace crc32c {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected as 0x82F63B78).
/// The standard checksum used by production LSM stores for block integrity;
/// detects all single-bit errors and, unlike additive checksums, is not
/// fooled by swapped or misdirected payloads of equal byte sums.
///
/// `Extend` continues a CRC over more data; `Value` starts from zero.
/// Test vector: Value("123456789", 9) == 0xE3069283.
///
/// `Extend` picks its implementation once, at first use: the SSE4.2 crc32
/// instruction when the CPU has it (checked at run time, so no build flag
/// is needed), else portable slicing-by-8 tables.
uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n);

/// The two implementations behind `Extend`, exposed so tests can check one
/// against the other. `ExtendHardware` falls back to `ExtendPortable` when
/// `HasHardwareSupport()` is false.
uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n);
uint32_t ExtendHardware(uint32_t crc, const uint8_t* data, size_t n);
bool HasHardwareSupport();

inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}

}  // namespace crc32c
}  // namespace lsmssd

#endif  // LSMSSD_UTIL_CRC32C_H_
