#include "hypergraph/spill_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <string_view>

#include "common/fault.h"

namespace mochy {

namespace {

constexpr size_t kRecordHeaderBytes = 8;  // u32 payload_len + u32 checksum
constexpr size_t kNeighborWireBytes = 8;  // u32 edge + u32 weight
// Neighbors go to and from disk as raw bytes in one memcpy.
static_assert(sizeof(Neighbor) == kNeighborWireBytes &&
                  std::endian::native == std::endian::little,
              "spill records copy Neighbor arrays verbatim");
// Guards the reader against a corrupt length prefix asking for an
// absurd allocation; generous next to any real neighborhood.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;
constexpr std::string_view kKeyPrefix = "spill##";
// "spill##" + u32 edge + "##" + u64 count + "\n".
constexpr size_t kMaxKeyBytes = 7 + 10 + 2 + 20 + 1;

// FNV-style over 8-byte words, then the tail bytes, folded to 32 bits.
// The xor-shift per word feeds high bits back down; every step is a
// bijection of the state, so any single differing word changes it.
uint32_t Checksum32(const unsigned char* data, size_t len) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof word);
    h = (h ^ word) * kPrime;
    h ^= h >> 32;
  }
  for (; i < len; ++i) h = (h ^ data[i]) * kPrime;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Parses the key "spill##<edge>##<count>\n" at the front of [p, end);
// on success `*body` points just past the newline.
bool ParseKey(const char* p, const char* end, uint32_t* edge,
              uint64_t* count, const char** body) {
  if (static_cast<size_t>(end - p) < kKeyPrefix.size() ||
      std::memcmp(p, kKeyPrefix.data(), kKeyPrefix.size()) != 0) {
    return false;
  }
  auto parsed = std::from_chars(p + kKeyPrefix.size(), end, *edge);
  if (parsed.ec != std::errc() || end - parsed.ptr < 2 ||
      parsed.ptr[0] != '#' || parsed.ptr[1] != '#') {
    return false;
  }
  parsed = std::from_chars(parsed.ptr + 2, end, *count);
  if (parsed.ec != std::errc() || parsed.ptr == end || *parsed.ptr != '\n') {
    return false;
  }
  *body = parsed.ptr + 1;
  return true;
}

// pwrite() the whole buffer at `offset`, retrying partial writes.
bool PwriteAll(int fd, const unsigned char* data, size_t len,
               uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pwrite(fd, data + done, len - done, static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool PreadAll(int fd, unsigned char* data, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, data + done, len - done, static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<SpillLog>> SpillLog::Create(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create spill log " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<SpillLog>(new SpillLog(path, fd));
}

SpillLog::~SpillLog() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());  // scratch: one engine lifetime only
  }
}

bool SpillLog::Append(EdgeId e, std::span<const Neighbor> neighbors) {
  if (index_.find(e) != index_.end()) return false;  // identical bytes live

  // [header][key][neighbors], built in the reused record_ buffer.
  // Each field's bound leaves room for the delimiters after it, so even
  // a (never hit) to_chars overflow stays inside the buffer.
  char key[kMaxKeyBytes];
  char* key_end = std::copy(kKeyPrefix.begin(), kKeyPrefix.end(), key);
  key_end = std::to_chars(key_end, key + kKeyPrefix.size() + 10,
                          static_cast<uint32_t>(e))
                .ptr;
  *key_end++ = '#';
  *key_end++ = '#';
  key_end = std::to_chars(key_end, key + kMaxKeyBytes - 1,
                          static_cast<uint64_t>(neighbors.size()))
                .ptr;
  *key_end++ = '\n';
  const size_t key_len = static_cast<size_t>(key_end - key);
  const size_t payload_len = key_len + neighbors.size() * kNeighborWireBytes;

  record_.resize(kRecordHeaderBytes + payload_len);
  unsigned char* payload = record_.data() + kRecordHeaderBytes;
  std::memcpy(payload, key, key_len);
  if (!neighbors.empty()) {
    std::memcpy(payload + key_len, neighbors.data(),
                neighbors.size() * kNeighborWireBytes);
  }
  const uint32_t header[2] = {static_cast<uint32_t>(payload_len),
                              Checksum32(payload, payload_len)};
  std::memcpy(record_.data(), header, sizeof header);

  size_t write_bytes = record_.size();
  const FaultAction fault = MOCHY_FAULT_POINT("spill.append");
  if (fault.kind == FaultAction::Kind::kError) return false;  // spill dropped
  if (fault.kind == FaultAction::Kind::kShortIo) {
    // Torn write: only a prefix lands, but the index still points at the
    // full extent — exactly the state a crash mid-append would leave.
    // ReadRecord detects it by checksum and the caller recomputes.
    write_bytes = std::min(write_bytes, fault.max_bytes);
  }
  if (!PwriteAll(fd_, record_.data(), write_bytes, end_offset_)) return false;

  index_[e] = RecordRef{end_offset_, static_cast<uint32_t>(record_.size())};
  end_offset_ += record_.size();
  return true;
}

bool SpillLog::Lookup(EdgeId e, RecordRef* ref) const {
  const auto it = index_.find(e);
  if (it == index_.end()) return false;
  *ref = it->second;
  return true;
}

void SpillLog::Invalidate(EdgeId e) { index_.erase(e); }

bool SpillLog::ReadRecord(const RecordRef& ref, EdgeId expect,
                          std::vector<Neighbor>* out) const {
  if (ref.length < kRecordHeaderBytes ||
      ref.length - kRecordHeaderBytes > kMaxPayloadBytes) {
    return false;
  }
  // The caller's buffer doubles as the read buffer: the whole record
  // lands in it, then the neighbors move down to its front.
  out->resize((ref.length + sizeof(Neighbor) - 1) / sizeof(Neighbor));
  unsigned char* record = reinterpret_cast<unsigned char*>(out->data());

  size_t read_bytes = ref.length;
  const FaultAction fault = MOCHY_FAULT_POINT("spill.read");
  if (fault.kind == FaultAction::Kind::kError) return false;
  if (fault.kind == FaultAction::Kind::kShortIo) {
    read_bytes = std::min(read_bytes, fault.max_bytes);
  }
  if (!PreadAll(fd_, record, read_bytes, ref.offset)) return false;
  if (read_bytes < ref.length) return false;  // short read: torn record

  const uint32_t payload_len = GetU32(record);
  if (payload_len != ref.length - kRecordHeaderBytes) return false;
  const unsigned char* payload = record + kRecordHeaderBytes;
  if (GetU32(record + 4) != Checksum32(payload, payload_len)) return false;

  const char* text = reinterpret_cast<const char*>(payload);
  const char* end = text + payload_len;
  uint32_t edge = 0;
  uint64_t count = 0;
  const char* body = nullptr;
  if (!ParseKey(text, end, &edge, &count, &body) || edge != expect) {
    return false;
  }
  const size_t body_len = static_cast<size_t>(end - body);
  if (body_len % kNeighborWireBytes != 0 ||
      count != body_len / kNeighborWireBytes) {
    return false;
  }
  std::memmove(out->data(), body, body_len);
  out->resize(count);
  return true;
}

}  // namespace mochy
