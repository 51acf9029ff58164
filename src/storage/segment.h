#ifndef XMLAC_STORAGE_SEGMENT_H_
#define XMLAC_STORAGE_SEGMENT_H_

// WAL segment files: naming, record framing, and tail-tolerant scanning.
//
// A segment is a flat append-only file of framed records:
//
//   [u32 body_len][u32 crc32(body)] body      body = [u64 marker][payload]
//
// The marker is the commit epoch of the batch record (the genesis state at
// epoch 1 is a checkpoint, not a record), stored in the frame — not the
// payload — so segment-level code can reason about which epochs a segment
// covers without decoding payloads (checkpoint truncation needs exactly
// that).
//
// Scanning is prefix-greedy: records are consumed until the first frame
// that is truncated or fails its CRC, and the scan reports how many bytes
// were valid.  A torn tail therefore parses as "complete prefix + clean
// truncation point", never as garbage records — the recovery invariant
// everything above this layer relies on (docs/durability.md).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xmlac::storage {

// "wal-<seq, zero-padded>.log"; zero padding keeps lexicographic directory
// order equal to numeric segment order.
std::string SegmentFileName(uint64_t seq);

// Parses a segment file name; false for anything else in the directory.
bool ParseSegmentFileName(std::string_view name, uint64_t* seq);

// Appends one framed record to `out`.
void AppendFrame(std::string* out, uint64_t marker, std::string_view payload);

struct FramedRecord {
  uint64_t marker = 0;
  std::string payload;
};

struct SegmentScan {
  std::vector<FramedRecord> records;
  // Bytes consumed by complete, CRC-valid frames; the clean truncation
  // point when `clean` is false.
  size_t valid_bytes = 0;
  // True when the whole file parsed as frames with nothing left over.
  bool clean = false;
};

SegmentScan ScanSegment(std::string_view bytes);

}  // namespace xmlac::storage

#endif  // XMLAC_STORAGE_SEGMENT_H_
