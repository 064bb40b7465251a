// Replay internals of BatchRepricer, in a header so the replay tests
// can pin the channel identity: sends and receives must pair exactly as
// the simulator's mailboxes pair them, or replay silently breaks its
// bit-identity contract (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "pas/util/format.hpp"

namespace pas::analysis::detail {

/// Widest rank id that fits the packed channel key below.
inline constexpr int kMaxReplayRanks = 0xffff;

/// Exact-match channel id: sends and receives pair FIFO per
/// (src, dst, tag), mirroring the mailbox's matching discipline. All
/// three fields are masked to their bit windows symmetrically — src and
/// dst to 16 bits, tag to 32 — and replay entry points reject ledgers
/// with more than kMaxReplayRanks ranks, so distinct channels can never
/// alias.
inline std::uint64_t channel_key(int src, int dst, int tag) {
  return ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) &
           0xffff)
          << 48) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) &
           0xffff)
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

/// Guard BatchRepricer::reprice runs before any channel key is formed.
/// Throws std::logic_error on a rank count the key cannot represent.
inline void check_replay_rank_count(int nranks) {
  if (nranks > kMaxReplayRanks)
    throw std::logic_error(pas::util::strf(
        "BatchRepricer: %d ranks exceeds the %d-rank replay limit (channel "
        "keys pack ranks into 16 bits)",
        nranks, kMaxReplayRanks));
}

}  // namespace pas::analysis::detail
