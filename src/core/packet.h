// JTP packet formats (paper Figure 2).
//
// The wire format carries, per data packet: available rate, loss
// tolerance, energy budget/used and a deadline; per ACK: cumulative ACK,
// SNACK set, locally-recovered set, advertised rate, energy budget and
// the sender timeout (the receiver's current feedback period T). In the
// simulator the header is a struct; serialized sizes follow the
// prototype's 28-byte data header and 200-byte ACK header (paper §6.1)
// so energy accounting is honest about header overhead.
//
// Hot-path layout: `PacketHeader` is the trivially-copyable part every
// hop reads and stamps; the ACK-only feedback rides in an optional
// `AckBody`. A `Packet` is the header plus that optional body, so data
// packets carry no ACK state, and caching stores headers only; in the
// simulation pipeline packets live in `PacketPool` slots and move by
// handle (see packet_pool.h).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/types.h"

namespace jtp::core {

enum class PacketType : std::uint8_t { kData, kAck };

// Serialized header sizes, from the prototype implementation (§6.1).
inline constexpr std::uint32_t kDataHeaderBytes = 28;
inline constexpr std::uint32_t kAckHeaderBytes = 200;
inline constexpr std::uint32_t kDefaultPayloadBytes = 800;  // Table 1

using SeqList = std::vector<SeqNo>;

// Selective negative acknowledgment: sequence numbers the receiver still
// needs, plus the set already recovered by an in-network cache on this
// ACK's way upstream (paper §4).
struct Snack {
  SeqList missing;            // still wanted from upstream
  SeqList locally_recovered;  // satisfied by a cache en route

  bool empty() const { return missing.empty() && locally_recovered.empty(); }
};

// Feedback fields carried by an ACK (paper Figure 2(b)). Cold relative
// to the header: only endpoints and caching hops touch it.
struct AckBody {
  SeqNo cumulative_ack = 0;   // all seq < cumulative_ack delivered or waived
  Snack snack;
  double advertised_rate_pps = 0.0;  // PI^2/MD controller output
  Joules energy_budget = 0.0;        // energy-budget controller output
  double sender_timeout_s = 0.0;     // receiver's feedback period T
  std::uint64_t ack_serial = 0;      // monotone per-connection ACK counter

  // Used by the TCP/ATP baselines only: timestamp echo for the sender's
  // RTT estimator (-1 = absent).
  double echo_send_time = -1.0;
};
using AckHeader = AckBody;

// The hot, trivially-copyable part of a packet: what every hop's MAC,
// iJTP pre-xmit and cache touch. This is also the cache's storage unit —
// cached data packets carry no ack body.
struct PacketHeader {
  PacketType type = PacketType::kData;
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  SeqNo seq = 0;
  std::uint32_t payload_bytes = kDefaultPayloadBytes;

  // --- Novel JTP data-header fields (paper §2.1.1) ---
  // Min effective available rate stamped so far along the path. Starts at
  // +infinity ("no information"), and every node takes an unconditional
  // min — zero is a *meaningful* stamp (a saturated node) and must never
  // be mistaken for "unset".
  double available_rate_pps = std::numeric_limits<double>::infinity();
  double loss_tolerance = 0.0;      // remaining end-to-end loss tolerance
  Joules energy_budget = 0.0;       // max energy the network may spend
  Joules energy_used = 0.0;         // energy spent so far on this packet
  double deadline_s = 0.0;          // real-time traffic only (0 = none)

  // Baselines carry different (smaller/larger) headers; 0 = protocol
  // default sizes above.
  std::uint32_t header_override_bytes = 0;

  // Sender timestamp, echoed by baseline receivers for RTT estimation.
  double send_time = -1.0;

  // --- Simulator-side metadata (not on the wire) ---
  bool is_source_retransmission = false;
  bool is_cache_retransmission = false;
  std::uint64_t uid = 0;  // unique per created packet, for tracing

  std::uint32_t header_bytes() const {
    if (header_override_bytes != 0) return header_override_bytes;
    return type == PacketType::kData ? kDataHeaderBytes : kAckHeaderBytes;
  }
  std::uint32_t size_bytes() const { return header_bytes() + payload_bytes; }
  double size_bits() const { return 8.0 * size_bytes(); }
  bool is_data() const { return type == PacketType::kData; }
  bool is_ack() const { return type == PacketType::kAck; }
};

// One transport-layer packet traversing the network. The same struct is
// used end-to-end; intermediate nodes mutate only the soft-state fields
// (available rate, loss tolerance, energy used), in the spirit of Dynamic
// Packet State.
struct Packet : PacketHeader {
  Packet() = default;
  // Rebuilds a packet from a cached header (cache retransmissions).
  explicit Packet(const PacketHeader& h) : PacketHeader(h) {}

  // --- ACK-only body ---
  std::optional<AckBody> ack;
};

}  // namespace jtp::core
