// Runtime-controllable fault injection for the TCP transport.
//
// A ChaosRule describes what the network between this site and one peer
// should look like: lossy (drop_milli), slow (delay_us one-way latency,
// rate_per_s throughput cap), or cut (partition). Rules are installed per
// outbound link via TcpTransport::set_chaos(); inbound frames from a
// partitioned peer are discarded too, so one site's rule blackholes the
// link in both directions from its own point of view.
//
// Semantics, chosen to mimic real networks rather than to be convenient:
//
//   * drop_milli drops at enqueue time — the message vanishes as it would
//     on a lossy link. Counted in PeerStats::chaos_drops.
//   * delay_us / rate_per_s assign each queued message a due time; the
//     sender thread does not flush a frame before it is due. Due times are
//     clamped monotone per link so injected delay never reorders a channel:
//     the receiver's Durability layer would otherwise see chan_seq gaps and
//     drop the early updates until catch-up, converting "slow" into
//     "lossy, then resent".
//   * partition does NOT drop at enqueue. Outbound messages keep queueing
//     (and eventually overflow drop-oldest, exactly as against a dead
//     peer); the sender thread just refuses to flush, like TCP backing off
//     into a blackhole. Inbound frames from the partitioned peer are read
//     off the socket and discarded (PeerStats::chaos_rx_drops). Healing
//     the partition releases whatever survived the queue cap.
//
// Drops are seeded and deterministic given the same send sequence
// (TcpTransport::Options::chaos_seed).
#pragma once

#include <cstdint>

namespace ccpr::net {

struct ChaosRule {
  /// Per-message drop probability in permille (0..1000).
  std::uint32_t drop_milli = 0;
  /// Extra one-way delay added to every message on this link.
  std::uint32_t delay_us = 0;
  /// Throughput cap in messages/second (slow link). 0 = unlimited.
  std::uint32_t rate_per_s = 0;
  /// Blackhole the link: hold outbound traffic, discard inbound.
  bool partition = false;

  bool active() const noexcept {
    return drop_milli != 0 || delay_us != 0 || rate_per_s != 0 || partition;
  }
};

}  // namespace ccpr::net
