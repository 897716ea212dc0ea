// Fuzzes the durable-storage decoders: the WAL replay scanner and the
// checkpoint codec. Both consume bytes a crash may have mangled arbitrarily
// (torn frames, bit rot, half-written snapshots), so the property under
// test is totality: any input either replays/decodes cleanly or is rejected
// with a Status — never a crash, hang or unbounded allocation. The first
// input byte selects the target; the rest is the file image.
//
// Invariants checked on every successful parse:
//  - WAL replay never claims more clean bytes than the image holds, never
//    returns more records than it scanned, and re-encoding the replayed
//    records reproduces exactly the clean prefix's record stream;
//  - a decoded checkpoint re-encodes to bytes that decode to the same
//    state (file count, wal_seq, replica set).
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/checkpoint.hpp"
#include "storage/wal.hpp"

namespace {

void Require(bool cond) {
  if (!cond) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::uint8_t selector = data[0] % 3;
  const std::span<const std::uint8_t> body(data + 1, size - 1);

  switch (selector) {
    case 0: {
      const auto replay = ghba::ReplayWalBuffer(body, /*from_seq=*/0);
      Require(replay.valid_bytes <= body.size());
      Require(replay.records.size() <= replay.scanned_records);
      Require(replay.torn_tail == (replay.valid_bytes != body.size()));
      // Round-trip: re-framing the replayed records must reproduce the
      // clean prefix byte-for-byte. A leading seq=0 record is scanned but
      // filtered (seq > from_seq), so only check when nothing was skipped.
      if (replay.records.size() == replay.scanned_records) {
        std::vector<std::uint8_t> reframed;
        for (const auto& record : replay.records) {
          const auto frame = ghba::EncodeWalRecordFrame(record);
          reframed.insert(reframed.end(), frame.begin(), frame.end());
        }
        Require(reframed.size() == replay.valid_bytes);
        Require(std::equal(reframed.begin(), reframed.end(), body.begin()));
      }
      break;
    }
    case 1: {
      ghba::ByteReader in(body);
      const auto record = ghba::DecodeWalRecordPayload(in);
      if (record.ok()) {
        Require(record->path.size() <= ghba::kMaxWalPathBytes);
        // Compare re-encoded bytes, not structs: metadata doubles can be
        // NaN (any bit pattern decodes), and NaN != NaN would trap on a
        // codec that is in fact bit-stable.
        ghba::ByteWriter out;
        ghba::EncodeWalRecordPayload(*record, out);
        ghba::ByteReader again(out.data());
        const auto redecoded = ghba::DecodeWalRecordPayload(again);
        Require(redecoded.ok() && again.AtEnd());
        ghba::ByteWriter out2;
        ghba::EncodeWalRecordPayload(*redecoded, out2);
        Require(out2.data() == out.data());
      }
      break;
    }
    case 2: {
      const auto state = ghba::DecodeCheckpoint(body);
      if (state.ok()) {
        // Every file entry costs at least one body byte (hardened count).
        Require(state->files.size() <= body.size());
        const auto bytes = ghba::EncodeCheckpoint(*state);
        const auto redecoded = ghba::DecodeCheckpoint(bytes);
        Require(redecoded.ok() &&
                redecoded->wal_seq == state->wal_seq &&
                redecoded->files.size() == state->files.size() &&
                redecoded->has_filter == state->has_filter);
      }
      break;
    }
  }
  return 0;
}
