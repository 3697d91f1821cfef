#include "cache/segment_store.hpp"

#include <algorithm>
#include <utility>

namespace vodcache::cache {

namespace {
// Smallest slot block: eight 8-byte slots, one cache line.
constexpr std::uint8_t kMinSlotsLog2 = 3;
}  // namespace

SegmentStore::SegmentStore(std::vector<DataSize> peer_contributions)
    : contribution_(std::move(peer_contributions)) {
  VODCACHE_EXPECTS(!contribution_.empty());
  while (leaves_ < contribution_.size()) leaves_ *= 2;
  free_bits_.assign(leaves_, -1);
  tree_.assign(leaves_, 0);
  for (std::size_t i = 0; i < contribution_.size(); ++i) {
    VODCACHE_EXPECTS(contribution_[i] >= DataSize{});
    capacity_ += contribution_[i];
    free_bits_[i] = contribution_[i].bit_count();
  }
  for (std::size_t i = leaves_ - 1; i > 0; --i) pull(i);
}

void SegmentStore::pull(std::size_t node) {
  const std::uint32_t a = winner(2 * node);
  const std::uint32_t b = winner(2 * node + 1);
  // Ties go to the larger id.
  tree_[node] =
      std::pair{free_bits_[a], a} < std::pair{free_bits_[b], b} ? b : a;
}

void SegmentStore::set_free(std::uint32_t peer, std::int64_t free_bits) {
  free_bits_[peer] = free_bits;
  for (std::size_t i = (leaves_ + peer) / 2; i > 0; i /= 2) pull(i);
}

std::optional<PeerId> SegmentStore::best_peer(DataSize bytes,
                                              std::span<const PeerId> exclude) {
  // Mask the peers that already hold a replica, read the root, restore.
  // Masking complements a peer's free bits: negative, so it never fits,
  // and complementing again restores it.
  for (const PeerId peer : exclude) {
    set_free(peer.value(), ~free_bits_[peer.value()]);
  }
  const std::uint32_t best = winner(1);
  const std::int64_t best_free = free_bits_[best];
  for (const PeerId peer : exclude) {
    set_free(peer.value(), ~free_bits_[peer.value()]);
  }
  if (best_free < bytes.bit_count()) return std::nullopt;
  return PeerId{best};
}

SegmentStore::ProgramEntry& SegmentStore::program_entry(ProgramId program) {
  ProgramEntry* prog = programs_.find(program.value());
  return prog != nullptr ? *prog : programs_.insert(program.value(), {});
}

SegmentStore::SegmentEntry& SegmentStore::slot_for(ProgramEntry& prog,
                                                   std::uint32_t index) {
  if (prog.stored == 0) {
    prog.cap_log2 = kMinSlotsLog2;
    prog.off = slots_.allocate(prog.cap_log2);
    std::fill_n(slots_.data(prog.off), 1u << prog.cap_log2, SegmentEntry{});
  }
  // A higher segment index grows the block a class at a time; the new
  // upper half starts empty.
  while ((index >> prog.cap_log2) != 0) {
    const std::uint32_t half = 1u << prog.cap_log2;
    prog.off = slots_.grow(prog.off, prog.cap_log2, half);
    ++prog.cap_log2;
    std::fill_n(slots_.data(prog.off) + half, half, SegmentEntry{});
  }
  return slots_.data(prog.off)[index];
}

std::span<const PeerId> SegmentStore::locate(SegmentKey key) const {
  const ProgramEntry* prog = programs_.find(key.program.value());
  if (prog == nullptr || prog->stored == 0 ||
      (key.index >> prog->cap_log2) != 0) {
    return {};
  }
  // An empty slot has count 0: an empty span.
  const SegmentEntry& slot = slots_.data(prog->off)[key.index];
  return {replica_peers_.data(slot.off), slot.count};
}

bool SegmentStore::has_program(ProgramId program) const {
  const ProgramEntry* prog = programs_.find(program.value());
  return prog != nullptr && prog->stored > 0;
}

std::optional<PeerId> SegmentStore::store(SegmentKey key, DataSize bytes) {
  VODCACHE_EXPECTS(bytes > DataSize{});
  const auto peer = best_peer(bytes, locate(key));
  if (!peer) return std::nullopt;

  const auto p = peer->value();
  set_free(p, free_bits_[p] - bytes.bit_count());
  used_ += bytes;

  ProgramEntry& prog = program_entry(key.program);
  SegmentEntry& slot = slot_for(prog, key.index);
  if (slot.count == 0) {
    slot.cap_log2 = 0;
    slot.off = replica_peers_.allocate(0);
    // The bytes arena mirrors the peers arena class for class, so the two
    // blocks always share one offset.
    const std::uint32_t bytes_off = replica_bytes_.allocate(0);
    VODCACHE_ASSERT(bytes_off == slot.off);
    ++prog.stored;
  } else if (slot.count == (1u << slot.cap_log2)) {
    const std::uint32_t old_off = slot.off;
    slot.off = replica_peers_.grow(old_off, slot.cap_log2, slot.count);
    const std::uint32_t bytes_off =
        replica_bytes_.grow(old_off, slot.cap_log2, slot.count);
    VODCACHE_ASSERT(bytes_off == slot.off);
    ++slot.cap_log2;
  }
  replica_peers_.data(slot.off)[slot.count] = *peer;
  replica_bytes_.data(slot.off)[slot.count] = bytes.bit_count();
  ++slot.count;
  return peer;
}

DataSize SegmentStore::evict_program(ProgramId program) {
  const ProgramEntry* prog = programs_.find(program.value());
  if (prog == nullptr) return DataSize{};
  // Release the whole-program commitment (if any) even when no segment has
  // materialized yet.
  committed_total_ -= DataSize::bits(prog->commitment_bits);
  DataSize freed;
  if (prog->stored > 0) {
    const SegmentEntry* slots = slots_.data(prog->off);
    for (std::uint32_t i = 0; i < (1u << prog->cap_log2); ++i) {
      const SegmentEntry& slot = slots[i];
      if (slot.count == 0) continue;
      const PeerId* peers = replica_peers_.data(slot.off);
      const std::int64_t* bytes = replica_bytes_.data(slot.off);
      for (std::uint16_t r = 0; r < slot.count; ++r) {
        const auto p = peers[r].value();
        set_free(p, free_bits_[p] + bytes[r]);
        freed += DataSize::bits(bytes[r]);
      }
      replica_peers_.release(slot.off, slot.cap_log2);
      replica_bytes_.release(slot.off, slot.cap_log2);
    }
    slots_.release(prog->off, prog->cap_log2);
  }
  programs_.erase(program.value());
  used_ -= freed;
  VODCACHE_ENSURES(used_ >= DataSize{});
  return freed;
}

SegmentStore::WipeResult SegmentStore::wipe_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  WipeResult result;
  // Flat-table slot order depends on insert/erase history; visiting
  // programs in ascending id order keeps the wipe — and the emptied-program
  // report driving segment-admission untracking — a pure function of the
  // stored contents.
  wipe_programs_.clear();
  programs_.for_each([this](std::uint64_t key, const ProgramEntry& prog) {
    if (prog.stored > 0) {
      wipe_programs_.push_back(static_cast<std::uint32_t>(key));
    }
  });
  std::sort(wipe_programs_.begin(), wipe_programs_.end());

  for (const std::uint32_t program : wipe_programs_) {
    ProgramEntry& prog = *programs_.find(program);
    SegmentEntry* slots = slots_.data(prog.off);
    for (std::uint32_t i = 0; i < (1u << prog.cap_log2); ++i) {
      SegmentEntry& slot = slots[i];
      PeerId* peers = replica_peers_.data(slot.off);
      std::int64_t* bytes = replica_bytes_.data(slot.off);
      std::uint16_t r = 0;
      while (r < slot.count && peers[r] != peer) ++r;
      if (r == slot.count) continue;  // this replica set survives the wipe
      result.freed += DataSize::bits(bytes[r]);
      // Survivors keep their insertion order: locate() reports it.
      for (std::uint16_t j = r + 1; j < slot.count; ++j) {
        peers[j - 1] = peers[j];
        bytes[j - 1] = bytes[j];
      }
      if (--slot.count == 0) {
        replica_peers_.release(slot.off, slot.cap_log2);
        replica_bytes_.release(slot.off, slot.cap_log2);
        --prog.stored;
      }
    }
    if (prog.stored == 0) {
      result.emptied_programs.push_back(ProgramId{program});
      slots_.release(prog.off, prog.cap_log2);
      // A commitment outlives the wipe of all its segments.
      if (prog.commitment_bits == 0) programs_.erase(program);
    }
  }

  set_free(peer.value(), free_bits_[peer.value()] + result.freed.bit_count());
  used_ -= result.freed;
  VODCACHE_ENSURES(peer_used(peer) >= DataSize{});
  return result;
}

void SegmentStore::commit_program(ProgramId program, DataSize full_size) {
  VODCACHE_EXPECTS(full_size > DataSize{});
  VODCACHE_EXPECTS(!has_commitment(program));
  program_entry(program).commitment_bits = full_size.bit_count();
  committed_total_ += full_size;
}

bool SegmentStore::has_commitment(ProgramId program) const {
  const ProgramEntry* prog = programs_.find(program.value());
  return prog != nullptr && prog->commitment_bits != 0;
}

bool SegmentStore::can_place(SegmentKey key, DataSize bytes) {
  VODCACHE_EXPECTS(bytes > DataSize{});
  return best_peer(bytes, locate(key)).has_value();
}

DataSize SegmentStore::peer_used(PeerId peer) const {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  return contribution_[peer.value()] -
         DataSize::bits(free_bits_[peer.value()]);
}

}  // namespace vodcache::cache
