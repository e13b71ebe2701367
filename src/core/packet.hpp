// Packet wire format.
//
// Eager-track packet layout (all integers little-endian):
//
//   PacketHeader (32 B)
//   FragHeader   (20 B) x nfrags     -- all fragment headers up front
//   payload area                      -- fragment payloads, same order
//
// Grouping the headers keeps the gather list short (one header block +
// one segment per payload) and lets the receiver demultiplex with a single
// linear scan — the receiver-side "help in sorting out incoming packets"
// the paper attributes to the scheduler's global view.
//
// Bulk-track packet layout (rendezvous data chunks):
//
//   BulkHeader (53 B) | raw bytes
//
// Control bodies (RTS/CTS) travel as regular fragment payloads inside
// eager packets, so they are aggregated with application traffic like any
// other small fragment.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>

#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/small_vector.hpp"
#include "util/wire.hpp"

namespace mado::core {

/// Thrown when a packet's *payload* CRC fails while the header block decoded
/// cleanly. Distinguished from plain CheckError so the engine can count it
/// as `rel.payload_crc_drops` (a link-level corruption the reliability layer
/// will repair by retransmission) instead of `rx.malformed`.
class PayloadCrcError : public CheckError {
 public:
  explicit PayloadCrcError(const std::string& what) : CheckError(what) {}
};

constexpr std::uint32_t kPacketMagic = 0x4f44414d;  // "MADO"
constexpr std::uint32_t kBulkMagic = 0x4b4c5542;    // "BULK"
constexpr std::uint8_t kWireVersion = 1;

enum class FragKind : std::uint8_t {
  Data = 0,
  RdvRts = 1,
  RdvCts = 2,
  // One-sided operations ("put/get transfers", paper §2). These are
  // engine-terminated: no application receive is involved on the target.
  RmaPut = 3,      ///< eager put: RmaPutBody + inline data
  RmaGet = 4,      ///< get request: RmaGetBody
  RmaGetData = 5,  ///< eager get reply: RmaGetDataBody + inline data
  RmaAck = 6,      ///< remote-completion ack for puts: RmaAckBody
};

constexpr FragKind kMaxFragKind = FragKind::RmaAck;

/// Flow id reserved for engine-internal one-sided traffic. Application
/// channels must not use it.
constexpr ChannelId kRmaChannel = 0xffffffffu;

/// FragHeader.flags bits.
constexpr std::uint8_t kFlagLastFrag = 0x01;

/// PacketHeader.flags / BulkHeader.flags bits (reliability layer).
/// kPhFlagRelSeq: pkt_seq participates in the per-(rail,track) reliable
/// sequence space — the receiver enforces in-order delivery and the sender
/// retransmits until acked. kPhFlagAck: ack_eager/ack_bulk carry valid
/// cumulative acks (next expected seq per track). kPhFlagPayloadCrc:
/// payload_crc covers the payload area (headers are always CRC-protected).
constexpr std::uint8_t kPhFlagRelSeq = 0x01;
constexpr std::uint8_t kPhFlagAck = 0x02;
constexpr std::uint8_t kPhFlagPayloadCrc = 0x04;

struct PacketHeader {
  std::uint8_t flags = 0;
  std::uint16_t nfrags = 0;
  std::uint32_t pkt_seq = 0;
  NodeId src_node = 0;
  /// Cumulative acks: next expected reliable seq on the peer's eager (track
  /// 0) and bulk (track 1) directions. Valid only with kPhFlagAck.
  std::uint32_t ack_eager = 0;
  std::uint32_t ack_bulk = 0;
  /// CRC-32 over the payload area. Valid only with kPhFlagPayloadCrc.
  std::uint32_t payload_crc = 0;

  static constexpr std::size_t kWireSize = 32;
};

struct FragHeader {
  ChannelId channel = 0;
  MsgSeq msg_seq = 0;
  FragIdx frag_idx = 0;
  std::uint16_t nfrags_total = 0;
  FragKind kind = FragKind::Data;
  std::uint8_t flags = 0;
  std::uint32_t len = 0;

  bool last() const { return (flags & kFlagLastFrag) != 0; }

  static constexpr std::size_t kWireSize = 20;
};

struct BulkHeader {
  std::uint8_t flags = 0;
  NodeId src_node = 0;
  std::uint64_t token = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  /// Reliable seq on the sender's bulk track. Valid only with kPhFlagRelSeq.
  std::uint32_t pkt_seq = 0;
  /// Cumulative acks, same semantics as PacketHeader. kPhFlagAck.
  std::uint32_t ack_eager = 0;
  std::uint32_t ack_bulk = 0;
  /// CRC-32 over the chunk data. Valid only with kPhFlagPayloadCrc.
  std::uint32_t payload_crc = 0;
  /// Stripe sequence: the chunk's index in the sender-side stripe plan for
  /// this transfer (MultirailPolicy::Stripe; 0 otherwise). Purely
  /// observability — reassembly keys on (token, offset) — but lets traces
  /// and tests reconstruct which rail carried which slice of the plan.
  std::uint32_t stripe = 0;

  static constexpr std::size_t kWireSize = 53;
};

/// What the bulk data of a rendezvous lands in on the receiving side.
enum class RdvTarget : std::uint8_t {
  Message = 0,    ///< a fragment slot of a posted receive (two-sided)
  Window = 1,     ///< an exposed RMA window (one-sided put)
  GetBuffer = 2,  ///< the requester's pending-get destination buffer
};

struct RtsBody {
  std::uint64_t token = 0;
  std::uint64_t total_len = 0;
  RdvTarget target = RdvTarget::Message;
  std::uint32_t window = 0;  ///< target==Window: destination window id
  std::uint64_t offset = 0;  ///< target==Window: offset within the window
  std::uint64_t aux = 0;     ///< ack token (Window) or get token (GetBuffer)

  static constexpr std::size_t kWireSize = 37;
};

struct RmaPutBody {
  std::uint32_t window = 0;
  std::uint64_t offset = 0;
  std::uint64_t ack_token = 0;
  // followed by the inline data

  static constexpr std::size_t kWireSize = 20;
};

struct RmaGetBody {
  std::uint32_t window = 0;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::uint64_t get_token = 0;

  static constexpr std::size_t kWireSize = 28;
};

struct RmaGetDataBody {
  std::uint64_t get_token = 0;
  // followed by the inline data

  static constexpr std::size_t kWireSize = 8;
};

struct RmaAckBody {
  std::uint64_t ack_token = 0;

  static constexpr std::size_t kWireSize = 8;
};

struct CtsBody {
  std::uint64_t token = 0;

  static constexpr std::size_t kWireSize = 8;
};

/// Serialize the header block (PacketHeader + all FragHeaders, with CRC)
/// into `out`. The payload area is NOT written — the engine gathers payload
/// segments behind this block. Takes a span so any contiguous container
/// (std::vector, mado::SmallVector, a C array) works without a copy.
void encode_header_block(Bytes& out, const PacketHeader& ph,
                         std::span<const FragHeader> frags);

/// Braced-list convenience: encode_header_block(out, ph, {fh}) / (…, {}).
inline void encode_header_block(Bytes& out, const PacketHeader& ph,
                                std::initializer_list<FragHeader> frags) {
  encode_header_block(
      out, ph, std::span<const FragHeader>(frags.begin(), frags.size()));
}

void encode_rts(Bytes& out, const RtsBody& rts);
RtsBody decode_rts(ByteSpan payload);
void encode_cts(Bytes& out, const CtsBody& cts);
CtsBody decode_cts(ByteSpan payload);

void encode_rma_put(Bytes& out, const RmaPutBody& b);
/// Decodes the body header and sets `data` to the inline payload view.
RmaPutBody decode_rma_put(ByteSpan payload, ByteSpan& data);
void encode_rma_get(Bytes& out, const RmaGetBody& b);
RmaGetBody decode_rma_get(ByteSpan payload);
void encode_rma_get_data(Bytes& out, const RmaGetDataBody& b);
RmaGetDataBody decode_rma_get_data(ByteSpan payload, ByteSpan& data);
void encode_rma_ack(Bytes& out, const RmaAckBody& b);
RmaAckBody decode_rma_ack(ByteSpan payload);

void encode_bulk_header(Bytes& out, const BulkHeader& bh);
/// Decode a bulk packet; returns the header and sets `data` to the raw
/// byte view inside `packet`. Throws CheckError on malformed input.
BulkHeader decode_bulk(ByteSpan packet, ByteSpan& data, bool crc_check);

/// Decoded view of one eager packet. Fragment payload views point into the
/// packet buffer passed to parse(); keep it alive while using them. A
/// packet of up to a default lookahead window of fragments decodes without
/// a heap allocation.
struct DecodedPacket {
  static constexpr std::size_t kInlineFrags = 16;
  PacketHeader header;
  SmallVector<FragHeader, kInlineFrags> frags;
  SmallVector<ByteSpan, kInlineFrags> payloads;  // parallel to frags
};

/// Parse an eager packet. Throws CheckError on malformed input (bad magic,
/// version, CRC, truncation, or payload-length mismatch).
DecodedPacket parse_packet(ByteSpan packet, bool crc_check);

}  // namespace mado::core
