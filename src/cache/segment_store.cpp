#include "cache/segment_store.hpp"

#include <algorithm>

namespace vodcache::cache {

namespace {
// Smallest slot block: eight 8-byte slots, one cache line.
constexpr std::uint8_t kMinSlotsLog2 = 3;
}  // namespace

SegmentStore::SegmentStore(std::uint32_t peer_count, DataSize per_peer,
                           const trace::Catalog& catalog,
                           DataRate stream_rate)
    : peer_count_(peer_count),
      per_peer_(per_peer),
      catalog_(&catalog),
      stream_rate_(stream_rate),
      full_segment_bits_(
          stream_rate.over_seconds(trace::kSegmentDuration.seconds_f())
              .bit_count()) {
  VODCACHE_EXPECTS(peer_count > 0);
  VODCACHE_EXPECTS(peer_count <= kMaxPeers);
  VODCACHE_EXPECTS(per_peer >= DataSize{});
  while (leaves_ < peer_count) leaves_ *= 2;
  free_bits_.assign(leaves_, -1);
  tree_.assign(leaves_, 0);
  std::fill_n(free_bits_.begin(), peer_count, per_peer.bit_count());
  for (std::size_t i = leaves_ - 1; i > 0; --i) pull(i);
}

std::pair<std::uint32_t, std::int64_t> SegmentStore::last_segment(
    ProgramId program) const {
  const auto last = static_cast<std::uint32_t>(
      (catalog_->length(program).millis_count() - 1) /
      trace::kSegmentDuration.millis_count());
  return {last, catalog_->segment_size(program, last, stream_rate_).bit_count()};
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

std::span<const PeerId> SegmentStore::replicas(const SegmentEntry& slot) const {
  if (slot.spilled()) return {replica_peers_.data(slot.word), slot.count()};
  // Inline: `word` counts the slot's own peer, or is 0 when it is empty.
  return {&slot.peer, slot.word};
}

std::span<const PeerId> SegmentStore::replicas(const ProgramEntry& prog,
                                               std::uint32_t index) const {
  if ((index >> prog.cap_log2) != 0) return {};
  return replicas(slots_.data(prog.off)[index]);
}

std::span<const PeerId> SegmentStore::locate(SegmentKey key) const {
  const ProgramEntry* prog = programs_.find(key.program.value());
  if (prog == nullptr) return {};
  return replicas(*prog, key.index);
}

std::optional<PeerId> SegmentStore::store(SegmentKey key) {
  const DataSize bytes =
      catalog_->segment_size(key.program, key.index, stream_rate_);
  ProgramEntry* prog = programs_.find(key.program.value());
  const auto peer = best_peer(
      bytes, prog != nullptr ? replicas(*prog, key.index)
                             : std::span<const PeerId>{});
  if (!peer) return std::nullopt;

  const auto p = peer->value();
  set_free(p, free_bits_[p] - bytes.bit_count());
  used_ += bytes;

  if (prog == nullptr) prog = &programs_.insert(key.program.value(), {});
  SegmentEntry& slot = slot_for(*prog, key.index);
  if (slot.empty()) {
    ++prog->stored;
    slot.word = 1;
    slot.peer = *peer;
    return peer;
  }
  // A further replica: an inline one moves to the front of a two-replica
  // arena block; a full block grows.
  if (!slot.spilled()) {
    const std::uint32_t off = replica_peers_.allocate(1);
    replica_peers_.data(off)[0] = slot.peer;
    slot.set_spilled(off, 1, 1);
  } else if (slot.count() == (1u << slot.cap_log2())) {
    const std::uint8_t cap_log2 = slot.cap_log2();
    slot.set_spilled(replica_peers_.grow(slot.word, cap_log2, slot.count()),
                     static_cast<std::uint8_t>(cap_log2 + 1), slot.count());
  }
  const std::uint32_t count = slot.count();
  replica_peers_.data(slot.word)[count] = *peer;
  slot.set_spilled(slot.word, slot.cap_log2(), count + 1);
  return peer;
}

DataSize SegmentStore::evict_program(ProgramId program) {
  const ProgramEntry* prog = programs_.find(program.value());
  if (prog == nullptr) return DataSize{};
  const auto [last, last_bits] = last_segment(program);
  std::int64_t freed = 0;
  const SegmentEntry* slots = slots_.data(prog->off);
  for (std::uint32_t i = 0; i < (1u << prog->cap_log2); ++i) {
    const SegmentEntry& slot = slots[i];
    const std::int64_t size = i < last ? full_segment_bits_ : last_bits;
    for (const PeerId peer : replicas(slot)) {
      set_free(peer.value(), free_bits_[peer.value()] + size);
      freed += size;
    }
    if (slot.spilled()) replica_peers_.release(slot.word, slot.cap_log2());
  }
  slots_.release(prog->off, prog->cap_log2);
  programs_.erase(program.value());
  used_ -= DataSize::bits(freed);
  VODCACHE_ENSURES(used_ >= DataSize{});
  return DataSize::bits(freed);
}

SegmentStore::WipeResult SegmentStore::wipe_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < peer_count_);
  WipeResult result;
  // Flat-table slot order depends on insert/erase history; visiting
  // programs in ascending id order keeps the wipe — and the emptied-program
  // report driving segment-admission untracking — a pure function of the
  // stored contents.
  wipe_programs_.clear();
  programs_.for_each([this](std::uint64_t key, const ProgramEntry&) {
    wipe_programs_.push_back(static_cast<std::uint32_t>(key));
  });
  std::sort(wipe_programs_.begin(), wipe_programs_.end());

  for (const std::uint32_t program : wipe_programs_) {
    ProgramEntry& prog = *programs_.find(program);
    const auto [last, last_bits] = last_segment(ProgramId{program});
    SegmentEntry* slots = slots_.data(prog.off);
    for (std::uint32_t i = 0; i < (1u << prog.cap_log2); ++i) {
      SegmentEntry& slot = slots[i];
      const auto held = replicas(slot);
      const auto r = static_cast<std::uint32_t>(
          std::find(held.begin(), held.end(), peer) - held.begin());
      if (r == held.size()) continue;  // no replica on this peer
      result.freed += DataSize::bits(i < last ? full_segment_bits_ : last_bits);
      if (held.size() == 1) {
        if (slot.spilled()) replica_peers_.release(slot.word, slot.cap_log2());
        slot = SegmentEntry{};
        --prog.stored;
      } else {
        // Survivors keep their insertion order: locate() reports it.
        PeerId* const peers = replica_peers_.data(slot.word);
        std::copy(peers + r + 1, peers + held.size(), peers + r);
        slot.set_spilled(slot.word, slot.cap_log2(), slot.count() - 1);
      }
    }
    if (prog.stored == 0) {
      result.emptied_programs.push_back(ProgramId{program});
      slots_.release(prog.off, prog.cap_log2);
      programs_.erase(program);
    }
  }

  set_free(peer.value(), free_bits_[peer.value()] + result.freed.bit_count());
  used_ -= result.freed;
  VODCACHE_ENSURES(peer_used(peer) >= DataSize{});
  return result;
}

DataSize SegmentStore::peer_used(PeerId peer) const {
  VODCACHE_EXPECTS(peer.value() < peer_count_);
  return per_peer_ - DataSize::bits(free_bits_[peer.value()]);
}

}  // namespace vodcache::cache
