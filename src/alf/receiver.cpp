#include "alf/receiver.h"

#include <algorithm>
#include <cstring>

#include "alf/fec.h"
#include "buf/ingress.h"
#include "engine/engine.h"
#include "ilp/engine.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "presentation/plan.h"
#include "simd/dispatch.h"

namespace ngp::alf {

namespace {

/// Copy placement packs an ADU's copied bytes into segments that each back
/// this many bytes of fixed ADU offsets (the default pool's fragment
/// class), so copies pin about adu_len however the fragments are cut.
constexpr std::uint32_t kCopyBlock = 2048;

}  // namespace

AlfReceiver::AlfReceiver(EventLoop& loop, NetPath& data_in, NetPath& feedback_out,
                         SessionConfig config)
    : AlfReceiver(loop, &data_in, feedback_out, config) {}

AlfReceiver::AlfReceiver(EventLoop& loop, NetPath* data_in, NetPath& feedback_out,
                         SessionConfig config)
    : loop_(loop), feedback_out_(feedback_out), cfg_(config),
      jitter_rng_(config.recovery_seed != 0
                      ? config.recovery_seed
                      : 0x6E677052ull ^ (std::uint64_t{config.session_id} << 8)) {
  // Demux-fed receivers (sessiond) own no ingress path: frames reach them
  // through handle_frame() only.
  if (data_in != nullptr) {
    data_in_ = data_in;
    data_in->set_handler([this](ConstBytes frame) { on_frame(frame); });
  }
  // Out-of-band control cadence: the NACK scan and progress report run on
  // their own timers, decoupled from per-fragment processing (§3). They
  // arm lazily, on first activity (arm_timers), and stand down when idle.
}

AlfReceiver::~AlfReceiver() {
  // The ingress handler installed by the ctor closes over `this`: clear it
  // so frames delivered after teardown drop instead of calling into freed
  // memory.
  if (data_in_ != nullptr) data_in_->set_handler(nullptr);
  // Jobs still on the engine hold completion callbacks into this object:
  // settle them (on this, the control thread) before the members they
  // touch are destroyed.
  if (eng_ != nullptr && verifying_ > 0) eng_->wait_all();
  // A receiver destroyed mid-session (supervised restart) must leave no
  // timer that would call into freed memory — and teardown is not a
  // failure, so on_session_failed must NOT fire from here.
  cancel_timers();
}

void AlfReceiver::cancel_timers() {
  if (nack_timer_ != 0) loop_.cancel(nack_timer_);
  if (progress_timer_ != 0) loop_.cancel(progress_timer_);
  if (engine_pump_timer_ != 0) loop_.cancel(engine_pump_timer_);
  if (watchdog_timer_ != 0) loop_.cancel(watchdog_timer_);
  nack_timer_ = progress_timer_ = engine_pump_timer_ = watchdog_timer_ = 0;
  nack_timer_armed_ = progress_timer_armed_ = watchdog_armed_ = false;
  engine_pump_armed_ = false;
}

void AlfReceiver::arm_timers() {
  if (cfg_.retransmit != RetransmitPolicy::kNone && !nack_timer_armed_ &&
      !complete_fired_ && !failed_) {
    nack_timer_armed_ = true;
    nack_timer_ = loop_.schedule_after(cfg_.nack_delay, [this] {
      nack_timer_ = 0;
      nack_scan();
    });
  }
  if (!progress_timer_armed_ && !complete_fired_ && !failed_) {
    progress_timer_armed_ = true;
    progress_timer_ = loop_.schedule_after(cfg_.progress_interval, [this] {
      progress_timer_ = 0;
      send_progress();
    });
  }
  if (cfg_.stall_timeout > 0 && !watchdog_armed_ && !complete_fired_ && !failed_) {
    watchdog_armed_ = true;
    last_progress_mark_ = loop_.now();
    watchdog_timer_ =
        loop_.schedule_after(cfg_.stall_timeout, [this] { watchdog_tick(); });
  }
}

void AlfReceiver::watchdog_tick() {
  watchdog_timer_ = 0;
  if (complete_fired_ || failed_) {
    watchdog_armed_ = false;
    return;
  }
  const SimDuration idle = loop_.now() - last_progress_mark_;
  if (idle >= cfg_.stall_timeout) {
    watchdog_armed_ = false;
    fail_session();
    return;
  }
  watchdog_timer_ = loop_.schedule_after(cfg_.stall_timeout - idle,
                                         [this] { watchdog_tick(); });
}

void AlfReceiver::fail_session() {
  if (failed_) return;  // terminal failure is a one-shot verdict
  failed_ = true;
  ++stats_.watchdog_fired;
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kSessionFail,
                     /*trace_id=*/0, /*arg=*/cfg_.session_id);
  // Release everything: a failed session must hold no memory and schedule
  // no further work. Ids are not individually reported — the session-level
  // failure supersedes per-ADU loss reporting. Closed entries stay:
  // resume_summary() reads them so a supervisor can rebuild on what already
  // completed (DESIGN.md §10). Verifying entries stay too: their engine
  // completions are still harvested and deliver nothing, and the destructor
  // settles any the cancelled pump leaves on the engine.
  std::erase_if(book_, [](const auto& kv) {
    return kv.second.state == AduState::kMissing ||
           kv.second.state == AduState::kPartial;
  });
  reassembly_bytes_ = 0;
  cancel_timers();
  if (on_session_failed_) on_session_failed_();
}

ResumeSummary AlfReceiver::resume_summary() const {
  ResumeSummary s;
  s.closed_prefix = closed_prefix_;
  for (const auto& [id, e] : book_) {
    if (e.state == AduState::kClosed) s.closed_above.push_back(id);
  }
  s.delivered = delivered_count_;
  s.abandoned = abandoned_count_;
  s.highest_seen = highest_seen_;
  s.expected_total = expected_total_;
  return s;
}

void AlfReceiver::restore(const ResumeSummary& s) {
  closed_prefix_ = s.closed_prefix;
  book_.clear();
  for (std::uint32_t id : s.closed_above) {
    if (id > closed_prefix_) book_[id].state = AduState::kClosed;
  }
  delivered_count_ = s.delivered;
  abandoned_count_ = s.abandoned;
  highest_seen_ = s.highest_seen;
  expected_total_ = s.expected_total;
  // Deliberately no arm_timers(): a restored receiver must not burn its
  // NACK budget (or trip its watchdog) while the sender has not resumed
  // yet; the first new-epoch frame arms everything. But if the
  // predecessor had already closed every expected ADU, complete now.
  check_complete();
}

void AlfReceiver::on_frame(ConstBytes frame) {
  if (failed_) return;  // abandoned sessions ignore the substrate
  auto msg = decode_message(frame);
  if (!msg) {
    ++stats_.fragments_corrupt;
    return;
  }
  switch (msg->type) {
    case MessageType::kData:
      if (msg->data.session == cfg_.session_id) on_data(msg->data);
      break;
    case MessageType::kDone:
      if (msg->done.session == cfg_.session_id) on_done(msg->done);
      break;
    default:
      break;  // NACK/PROGRESS are sender-bound; ignore here
  }
}

void AlfReceiver::on_data(const DataFragment& f) {
  ++stats_.fragments_received;

  // Epoch guard (DESIGN.md §10): fragments stamped by another incarnation
  // of this session are stale — frames in flight across a supervised
  // restart must not pollute the new epoch's reassembly state.
  if (f.epoch != cfg_.epoch) {
    ++stats_.fragments_stale_epoch;
    return;
  }

  // Hostile-substrate validation BEFORE any resource is committed: the
  // header's claims are attacker-controlled until the ADU checksum has
  // spoken, so a claimed length or id outside the session's bounds is
  // treated exactly like header damage.
  if (f.adu_len > cfg_.max_adu_len) {
    ++stats_.fragments_corrupt;
    ++stats_.fragments_oversized;
    return;
  }
  if (cfg_.adu_id_window > 0 &&
      std::uint64_t{f.adu_id} > std::uint64_t{closed_prefix_} + cfg_.adu_id_window) {
    ++stats_.fragments_corrupt;
    ++stats_.fragments_out_of_window;
    return;
  }

  highest_seen_ = std::max(highest_seen_, f.adu_id);
  arm_timers();

  // Liveness, not novelty: any validated current-epoch fragment proves the
  // path and the peer are alive, so it resets the stall watchdog even when
  // every byte is redundant. Recovery traffic is full of duplicates (a
  // re-staged burst racing its own NACK retransmissions); failing a session
  // that is audibly talking would turn one restart into a restart storm.
  // Silence — not redundancy — is the failure signal.
  note_progress();

  if (f.adu_id <= closed_prefix_) {
    ++stats_.fragments_for_done_adus;  // late duplicate of a finished ADU
    return;
  }
  auto [it, inserted] = book_.try_emplace(f.adu_id);
  Entry& e = it->second;
  if (e.state == AduState::kClosed || e.state == AduState::kVerifying) {
    // Finished, or complete and being verified right now: any fragment
    // arriving is redundant by definition.
    ++stats_.fragments_for_done_adus;
    return;
  }
  Reassembly& r = e.r;
  if (e.state == AduState::kMissing) {
    if (!reserve_bytes(f.adu_id, f.adu_len)) {
      if (inserted) book_.erase(it);  // a known missing id stays missing
      ++stats_.fragments_dropped_mem;
      return;
    }
    e.state = AduState::kPartial;
    r.name = f.name;
    r.syntax = f.syntax;
    r.flags = static_cast<std::uint8_t>(f.flags & ~kFlagFecParity);
    r.checksum_kind = f.checksum_kind;
    r.fec_k = f.fec_k;
    r.adu_len = f.adu_len;
    r.checksum = f.adu_checksum;
    r.charged_bytes = f.adu_len;
  } else if (f.adu_len != r.adu_len) {
    return;  // inconsistent metadata: ignore the stray fragment
  }

  // Fragments reveal the sender's fragment capacity, which FEC group
  // geometry depends on: every fragment except an ADU's last is exactly
  // capacity-sized (and so is a non-final group's parity block). A short
  // *final* fragment says nothing about capacity unless it is the ADU's
  // only fragment.
  const std::size_t unit_end = f.frag_off + f.payload.size();
  if (unit_end < f.adu_len) {
    r.frag_capacity = std::max(r.frag_capacity, f.payload.size());
  } else if (f.frag_off == 0 && unit_end == f.adu_len) {
    r.frag_capacity = std::max(r.frag_capacity, f.payload.size());
  }

  if (f.is_parity()) {
    // FEC parity: keep the block keyed by its group start; it is not ADU
    // data, so the slice map is untouched. Parity blocks are memory too —
    // charged against the same reassembly budget.
    if (!r.parity.contains(f.frag_off)) {
      if (!reserve_bytes(f.adu_id, f.payload.size())) {
        ++stats_.fragments_dropped_mem;
        return;
      }
      r.parity.emplace(f.frag_off, ByteBuffer(f.payload));
      r.charged_bytes += f.payload.size();
    } else {
      ++stats_.fragments_duplicate;
    }
    if (try_fec_reconstruct(f.adu_id, r)) complete_adu(f.adu_id, e);
    return;
  }

  // Stage 1 placement: the fragment becomes a slice at its offset — by
  // REFERENCE when the payload already sits in a pool segment (that
  // placement charges nothing, which is the whole point), else by the one
  // unavoidable copy ("moving to/from the net", §3). The link published
  // the frame's backing segment for the duration of this handler call;
  // payloads from elsewhere (a re-framed path, a corrupted-copy replay, a
  // direct dispatch) are not inside it.
  const buf::Slice* ing = buf::IngressFrame::current();
  const bool by_ref = ing != nullptr && ing->ref.contains(f.payload);
  const std::uint32_t start = f.frag_off;
  const std::uint32_t end = start + static_cast<std::uint32_t>(f.payload.size());
  const std::size_t had = r.bytes_received;
  const std::uint32_t placed_end =
      place(f.adu_id, r, f.payload, start, end, by_ref ? ing : nullptr);
  if (r.bytes_received > had) {
    if (by_ref) ++stats_.fragments_zero_copy;
    else ++stats_.fragments_pool_copied;
  }
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kFragRx,
                     flight_id(f.adu_id), f.payload.size());
  if (placed_end < end) {
    // The rest would pin pool memory past the limit: keep what was linked,
    // drop the remainder (the NACK scan re-fetches it).
    ++stats_.fragments_dropped_mem;
    return;
  }
  if (r.bytes_received == had) ++stats_.fragments_duplicate;

  if (r.bytes_received == r.adu_len || try_fec_reconstruct(f.adu_id, r)) {
    complete_adu(f.adu_id, e);
    shed_for_overload(0);
    return;
  }
  // Admission policy: the newly charged bytes may have pushed reassembly
  // memory over the high-water mark — shed the least important incomplete
  // ADUs (not this one) rather than letting the hard limit evict blindly.
  shed_for_overload(f.adu_id);
}

bool AlfReceiver::range_present(const Reassembly& r, std::uint32_t start,
                                std::uint32_t end) const {
  if (start >= end) return true;
  auto it = r.frags.upper_bound(start);
  if (it == r.frags.begin()) return false;
  // Walk the slices from the one holding `start`: each must begin where
  // the covered run so far ends.
  std::uint32_t covered = start;
  for (--it; it != r.frags.end() && it->first <= covered; ++it) {
    covered = std::max(covered, it->first + it->second.len);
    if (covered >= end) return true;
  }
  return false;
}

bool AlfReceiver::try_fec_reconstruct(std::uint32_t adu_id, Reassembly& r) {
  if (r.fec_k == 0 || r.parity.empty() || r.frag_capacity == 0) return false;

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const auto& [group_start, block] : r.parity) {
      const FecGroup group{group_start, r.fec_k, r.frag_capacity, r.adu_len};
      // Find the missing fragments of this group.
      std::optional<std::size_t> missing;
      bool more_than_one = false;
      for (std::size_t i = 0; i < group.fragment_count(); ++i) {
        const auto s = static_cast<std::uint32_t>(group.fragment_offset(i));
        const auto e = static_cast<std::uint32_t>(s + group.fragment_length(i));
        if (!range_present(r, s, e)) {
          if (missing) {
            more_than_one = true;
            break;
          }
          missing = i;
        }
      }
      if (more_than_one || !missing) continue;

      // Recover the missing fragment into a fresh pool slice and place it
      // by reference like any other arrival — the ADU never flattens, and
      // only the gaps link (part of the fragment may already be here: a
      // placement cut short by the memory limit, or a peer that re-cut
      // its fragments). The surviving fragments are read in place
      // (scratch only when one straddles a slice boundary). Charge the
      // XOR traffic to the stage-1 ledger: one loading pass per surviving
      // source, one storing pass over the recovered slice.
      const auto s = static_cast<std::uint32_t>(group.fragment_offset(*missing));
      const std::size_t frag_len = group.fragment_length(*missing);
      buf::Slice out{pool().alloc(frag_len), 0, frag_len};
      simd::kernels().copy(block.span().first(frag_len), out.mutable_bytes());
      ByteBuffer scratch(r.frag_capacity);
      for (std::size_t i = 0; i < group.fragment_count(); ++i) {
        if (i == *missing) continue;
        const std::size_t take = std::min(group.fragment_length(i), frag_len);
        ConstBytes src;
        if (read_range(r, static_cast<std::uint32_t>(group.fragment_offset(i)),
                       take, scratch.span(), src)) {
          xor_into(out.mutable_bytes(), src);
        }
      }
      const auto e = static_cast<std::uint32_t>(s + frag_len);
      if (place(adu_id, r, out.bytes(), s, e, &out) < e) return false;
      reassembly_cost_.charge_operation(frag_len);
      reassembly_cost_.charge_pass(frag_len, /*stores=*/false);  // parity prefix
      for (std::size_t i = 0; i < group.fragment_count(); ++i) {
        if (i == *missing) continue;
        reassembly_cost_.charge_pass(std::min(group.fragment_length(i), frag_len),
                                     /*stores=*/false);
      }
      reassembly_cost_.charge_pass(frag_len, /*stores=*/true);
      ++stats_.fragments_fec_reconstructed;
      progressed = true;
      break;  // parity map unchanged but coverage changed: rescan
    }
  }
  return r.bytes_received == r.adu_len;
}

std::uint32_t AlfReceiver::place(std::uint32_t adu_id, Reassembly& r,
                                 ConstBytes payload, std::uint32_t start,
                                 std::uint32_t end, const buf::Slice* src) {
  // By reference, every new byte is a sub-slice of `src` — zero copies,
  // zero charges; otherwise ONE charged copy into the ADU's copy blocks.
  // Either way the pool memory a new slice pins — the whole source
  // segment, or a fresh block — is charged before it is linked, so
  // reassembly_bytes_limit bounds what the pool really holds.
  bool pinned = false;

  // Walk the gaps between the slices already placed: only genuinely new
  // bytes take a slice — a duplicate must neither hold an extra segment
  // reference nor shadow bytes already placed. New slices land before
  // `it`, and map insertion leaves `it` valid.
  std::uint32_t pos = start;
  auto it = r.frags.upper_bound(start);
  if (it != r.frags.begin()) {
    const auto& [off, prev] = *std::prev(it);
    pos = std::max(pos, std::min(end, off + prev.len));
  }
  while (pos < end) {
    const std::uint32_t gap_end =
        it != r.frags.end() ? std::min(end, it->first) : end;
    if (pos < gap_end && src != nullptr) {
      // One source, one segment: pinned once, however many gaps it fills.
      if (!pinned && !pin(adu_id, r, src->ref.capacity())) return pos;
      pinned = true;
      const auto at = static_cast<std::size_t>(
          payload.data() + (pos - start) - (src->ref.data() + src->off));
      r.frags.emplace(pos, src->sub(at, gap_end - pos));
      r.bytes_received += gap_end - pos;
    } else if (pos < gap_end) {
      if (r.blocks.empty()) {
        r.blocks.resize((std::size_t{r.adu_len} + kCopyBlock - 1) / kCopyBlock);
      }
      std::uint32_t at = pos;
      while (at < gap_end) {
        const std::uint32_t base = at / kCopyBlock * kCopyBlock;
        const auto upto = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(gap_end, std::uint64_t{base} + kCopyBlock));
        buf::BufRef& block = r.blocks[at / kCopyBlock];
        if (!block) {
          buf::BufRef fresh = pool().alloc(std::min(kCopyBlock, r.adu_len - base));
          if (!pin(adu_id, r, fresh.capacity())) break;
          block = std::move(fresh);
        }
        buf::Slice s{block, at - base, upto - at};
        simd::kernels().copy(payload.subspan(at - start, upto - at), s.mutable_bytes());
        r.frags.emplace(at, std::move(s));
        r.bytes_received += upto - at;
        at = upto;
      }
      if (at > pos) reassembly_cost_.charge_fused(at - pos);
      if (at < gap_end) return at;
    }
    if (it == r.frags.end()) break;
    pos = std::max(pos, std::min(end, it->first + it->second.len));
    ++it;
  }
  return end;
}

bool AlfReceiver::pin(std::uint32_t adu_id, Reassembly& r, std::size_t capacity) {
  // The header's claim was reserved when the ADU opened; pinned segments
  // only cost more once they outgrow it (sparse or tiny fragments, frames
  // in roomy segments).
  const std::size_t before = std::max<std::size_t>(r.adu_len, r.pinned_bytes);
  const std::size_t after = std::max<std::size_t>(r.adu_len, r.pinned_bytes + capacity);
  if (after > before && !reserve_bytes(adu_id, after - before)) return false;
  r.pinned_bytes += capacity;
  r.charged_bytes += after - before;
  return true;
}

bool AlfReceiver::read_range(const Reassembly& r, std::uint32_t start,
                             std::size_t len, MutableBytes scratch,
                             ConstBytes& out) const {
  if (len == 0) {
    out = ConstBytes{};
    return true;
  }
  // Fast path: the whole range inside one slice — alias it directly.
  auto it = r.frags.upper_bound(start);
  if (it == r.frags.begin()) return false;
  --it;
  const std::size_t rel = start - it->first;
  if (rel < it->second.len && it->second.len - rel >= len) {
    out = it->second.bytes().subspan(rel, len);
    return true;
  }
  // Gather path: the range straddles slices; stitch it into scratch.
  std::size_t done = 0;
  while (done < len) {
    auto jt = r.frags.upper_bound(static_cast<std::uint32_t>(start + done));
    if (jt == r.frags.begin()) return false;
    --jt;
    const std::size_t at = (start + done) - jt->first;
    if (at >= jt->second.len) return false;  // hole
    const std::size_t take = std::min(len - done, jt->second.len - at);
    simd::kernels().copy(jt->second.bytes().subspan(at, take),
                         scratch.subspan(done, take));
    done += take;
  }
  out = ConstBytes{scratch.data(), len};
  return true;
}

buf::BufChain AlfReceiver::build_chain(Reassembly& r) {
  // Complete coverage with disjoint slices: ascending key order IS the
  // ADU's byte order. Moving the slices transfers their references.
  buf::BufChain chain;
  for (auto& [off, slice] : r.frags) chain.append(std::move(slice));
  r.frags.clear();
  r.blocks.clear();
  return chain;
}

void AlfReceiver::note_recycle(std::uint32_t adu_id, std::size_t bytes) {
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kBufRecycle,
                     flight_id(adu_id), bytes);
}

void AlfReceiver::set_flight(obs::FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ != nullptr) flight_track_ = flight_->add_track("alf.rx");
}

std::uint64_t AlfReceiver::flight_id(std::uint32_t adu_id) const noexcept {
  return obs::flight_trace_id(cfg_.session_id, adu_id);
}

ManipulationPlan AlfReceiver::make_plan(std::uint32_t adu_id,
                                        const Reassembly& r) const {
  ManipulationPlan p;
  p.layered = cfg_.process_mode == ProcessMode::kLayered;
  p.decrypt = (r.flags & kFlagEncrypted) != 0;
  p.key = cfg_.key;
  store_u32_be(p.key.nonce.data() + 8, adu_id);  // per-ADU nonce (§5)
  p.checksum_kind = r.checksum_kind;
  p.expected_checksum = r.checksum;
  // Fused presentation (DESIGN.md §13): when a compiled plan for this wire
  // syntax is attached, its wire stage (identity or byteswap32) rides the
  // same stage-2 pass — the delivered payload is already host order and no
  // separate decode pass remains.
  if (present_plan_ != nullptr && r.syntax == present_plan_->syntax) {
    p.present = present_plan_->wire_stage();
  }
  return p;
}

void AlfReceiver::complete_adu(std::uint32_t adu_id, Entry& e) {
  Reassembly& r = e.r;
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kAduComplete,
                     flight_id(adu_id), r.adu_len);
  const ManipulationPlan plan = make_plan(adu_id, r);
  if (plan.present != PresentStage::kNone) ++stats_.adus_presentation_fused;
  // The chain owns the bytes now, not the reassembly budget. The entry
  // keeps only what delivery needs (§5: the name addresses the ADU), so
  // the parity blocks go too.
  buf::BufChain chain = build_chain(r);
  const AduName name = r.name;
  const TransferSyntax syntax = r.syntax;
  drop(adu_id, r);
  r.name = name;
  r.syntax = syntax;
  e.state = AduState::kVerifying;
  ++verifying_;

  if (eng_ == nullptr) {
    // ILP stage 2 over the gather list: decrypt and integrity-check in ONE
    // pass (kIntegrated), or one full pass per manipulation (kLayered). The
    // shared executor charges manip_cost_ — this is where the live
    // pipeline's fused-vs-layered pass counts come from. A bare verify only
    // reads: no flat staging buffer exists to store into, and that missing
    // store pass is the saving.
    obs::flight_record(flight_, flight_track_, obs::FlightStage::kManipBegin,
                       flight_id(adu_id), chain.size());
    const bool intact = run_manipulation_chain(plan, chain, &manip_cost_);
    obs::flight_record(flight_, flight_track_, obs::FlightStage::kManipEnd,
                       flight_id(adu_id), chain.size());
    settle(adu_id, intact, std::move(chain));
    return;
  }

  ++stats_.adus_engine_offloaded;
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kEngineSubmit,
                     flight_id(adu_id), chain.size());
  engine::ManipulationJob job;
  // Flow+adu worker sharding: an engine shared across many sessions
  // (sessiond) spreads distinct flows over its workers while this flow's
  // equal-id jobs still land on one FIFO lane.
  job.id = flight_id(adu_id);
  job.plan = plan;
  // The chain's last release — wherever that happens — recycles the
  // segments (the pool is thread-safe for this).
  job.chain = std::move(chain);
  job.on_done = [this, adu_id](bool intact, buf::BufChain&& done,
                                const obs::CostAccount& cost) {
    // The worker charged its private ledger; merge is commutative, so the
    // session ledger is identical whatever order completions arrive in.
    manip_cost_.merge(cost);
    obs::flight_record(flight_, flight_track_, obs::FlightStage::kHarvest,
                       flight_id(adu_id), done.size());
    settle(adu_id, intact, std::move(done));
  };
  eng_->submit(std::move(job));
  arm_engine_pump();
}

void AlfReceiver::settle(std::uint32_t adu_id, bool intact, buf::BufChain&& chain) {
  auto it = book_.find(adu_id);
  if (it == book_.end() || it->second.state != AduState::kVerifying) return;
  --verifying_;
  if (failed_) {
    book_.erase(it);  // the session failed meanwhile: deliver nothing
    return;
  }
  Entry& e = it->second;
  if (intact) {
    deliver(adu_id, e.r.name, e.r.syntax, std::move(chain));
    return;
  }
  // Whole-ADU integrity failure: discard the damaged bytes (the chain's
  // segments recycle) — the ADU is the unit of error recovery (§5).
  ++stats_.adus_checksum_failed;
  note_recycle(adu_id, chain.size());
  if (cfg_.retransmit == RetransmitPolicy::kNone && expected_total_ > 0 &&
      adu_id <= expected_total_) {
    // No recovery, and DONE has already reported every other open id: this
    // one is lost too, once, by its name.
    abandon(adu_id);
    return;
  }
  // The id reopens as missing, so the NACK scan re-fetches the whole ADU
  // on its never-seen pacing.
  drop(adu_id, e.r);
  e.state = AduState::kMissing;
  note_progress();
  arm_timers();
}

void AlfReceiver::arm_engine_pump() {
  if (engine_pump_armed_) return;
  engine_pump_armed_ = true;
  engine_pump_timer_ = loop_.schedule_after(engine_harvest_delay_, [this] {
    engine_pump_timer_ = 0;
    engine_pump();
  });
}

void AlfReceiver::engine_pump() {
  engine_pump_armed_ = false;
  if (eng_ == nullptr) return;
  // drain() blocks for at least one completion when none is ready yet:
  // simulated time only advances past the harvest point once real work has
  // actually finished, keeping the event loop's causality intact.
  eng_->drain();
  if (verifying_ > 0) arm_engine_pump();
}

void AlfReceiver::deliver(std::uint32_t adu_id, AduName name,
                          TransferSyntax syntax, buf::BufChain&& chain) {
  // Out of order w.r.t. the id sequence? (Any earlier id still open.)
  // closed_prefix_ = ids 1..closed_prefix_ are all closed already.
  const bool earlier_open = adu_id > closed_prefix_ + 1;
  obs::flight_record(flight_, flight_track_, obs::FlightStage::kDeliver,
                     flight_id(adu_id), chain.size());
  close_id(adu_id);
  ++delivered_count_;
  ++stats_.adus_delivered;
  stats_.payload_bytes_delivered += chain.size();
  if (earlier_open) ++stats_.adus_delivered_out_of_order;

  if (on_adu_chain_) {
    ++stats_.adus_chain_delivered;
    AduChain adu;
    adu.name = name;
    adu.syntax = syntax;
    adu.payload = std::move(chain);
    on_adu_chain_(std::move(adu));
  } else if (on_adu_) {
    // Flatten bridge: only a flat consumer is registered, so final
    // placement happens here — ONE load+store pass, the single copy §4
    // always grants the receive path. The chain's segments recycle now.
    const std::size_t n = chain.size();
    Adu adu;
    adu.name = name;
    adu.syntax = syntax;
    adu.payload = chain.flatten();
    reassembly_cost_.charge_fused(n);
    note_recycle(adu_id, n);
    chain.clear();
    on_adu_(std::move(adu));
  } else {
    note_recycle(adu_id, chain.size());
  }
  check_complete();
}

void AlfReceiver::close_id(std::uint32_t adu_id) {
  // Callers have already released the id's bytes. A closed entry lives
  // only above a hole: the closed run at the front of the book becomes
  // prefix.
  book_[adu_id].state = AduState::kClosed;
  for (auto it = book_.begin(); it != book_.end() &&
                                it->first == closed_prefix_ + 1 &&
                                it->second.state == AduState::kClosed;
       it = book_.erase(it)) {
    ++closed_prefix_;
  }
  note_progress();
}

void AlfReceiver::abandon(std::uint32_t adu_id, bool shed) {
  auto it = book_.find(adu_id);
  const bool name_known = it != book_.end() && it->second.state != AduState::kMissing;
  // Take the reassembly out first: closing the id may erase its entry.
  Reassembly r = name_known ? std::move(it->second.r) : Reassembly{};
  if (shed) {
    ++stats_.adus_shed;
    obs::flight_record(flight_, flight_track_, obs::FlightStage::kShed,
                       flight_id(adu_id), r.bytes_received);
  } else {
    ++stats_.adus_abandoned;
    obs::flight_record(flight_, flight_track_, obs::FlightStage::kAbandon,
                       flight_id(adu_id), 0);
  }
  close_id(adu_id);
  ++abandoned_count_;
  if (on_adu_lost_) {
    on_adu_lost_(adu_id, name_known ? r.name : generic_name(adu_id), name_known);
  }
  drop(adu_id, r);
  check_complete();
}

void AlfReceiver::drop(std::uint32_t adu_id, Reassembly& r) {
  if (!r.frags.empty()) {
    // Emptying `r` drops the last references to this ADU's slices: note
    // the recycle here, on the control thread, so flight timelines stay
    // deterministic (the pool itself never records events).
    note_recycle(adu_id, r.bytes_received);
  }
  reassembly_bytes_ -= std::min(reassembly_bytes_, r.charged_bytes);
  r = Reassembly{};
}

AlfReceiver::Book::iterator AlfReceiver::pick_shed_victim(std::uint32_t protect_id) {
  // Lowest priority first (ALF: the application ranked its names); ties go
  // to the ADU with the least reassembly progress (cheapest loss), then to
  // the youngest id — all deterministic, so seeded runs shed identically.
  auto best = book_.end();
  int best_pri = 0;
  for (auto it = book_.begin(); it != book_.end(); ++it) {
    if (it->second.state != AduState::kPartial || it->first == protect_id) continue;
    const Reassembly& r = it->second.r;
    const int pri = priority_ ? priority_(r.name) : 0;
    if (best == book_.end() || pri < best_pri ||
        (pri == best_pri &&
         (r.bytes_received < best->second.r.bytes_received ||
          (r.bytes_received == best->second.r.bytes_received &&
           it->first > best->first)))) {
      best = it;
      best_pri = pri;
    }
  }
  return best;
}

void AlfReceiver::shed_for_overload(std::uint32_t protect_id) {
  if (cfg_.shed_highwater == 0 || reassembly_bytes_ <= cfg_.shed_highwater) return;
  const std::size_t target =
      cfg_.shed_lowwater > 0 ? cfg_.shed_lowwater : cfg_.shed_highwater / 2;
  while (reassembly_bytes_ > target) {
    auto victim = pick_shed_victim(protect_id);
    if (victim == book_.end()) break;
    abandon(victim->first, /*shed=*/true);
  }
}

void AlfReceiver::evict(std::uint32_t adu_id, Entry& e) {
  // The evicted ADU's bytes are dropped but its id stays OPEN: the
  // never-seen pacing takes the later of the two records, so the id is
  // re-fetched from scratch (bounded by max_nacks like any other loss).
  ++stats_.reassembly_evictions;
  e.unseen.count = std::max(e.unseen.count, e.r.nack.count);
  e.unseen.next_at = std::max(e.unseen.next_at, e.r.nack.next_at);
  drop(adu_id, e.r);
  e.state = AduState::kMissing;
}

bool AlfReceiver::reserve_bytes(std::uint32_t for_id, std::size_t need) {
  if (cfg_.reassembly_bytes_limit != 0) {
    if (need > cfg_.reassembly_bytes_limit) return false;
    while (reassembly_bytes_ + need > cfg_.reassembly_bytes_limit) {
      // Oldest partial first: the lowest id has waited longest for its
      // holes and is the most likely casualty of a burst long past.
      auto victim = std::find_if(book_.begin(), book_.end(), [for_id](const auto& kv) {
        return kv.second.state == AduState::kPartial && kv.first != for_id;
      });
      if (victim == book_.end()) return false;
      evict(victim->first, victim->second);
    }
  }
  reassembly_bytes_ += need;
  stats_.reassembly_bytes_peak = std::max(stats_.reassembly_bytes_peak, reassembly_bytes_);
  return true;
}

void AlfReceiver::nack_scan() {
  if (failed_ || complete_fired_) {
    nack_timer_armed_ = false;
    return;
  }
  // Collect ids in [1, horizon] that are neither closed nor fully here.
  // The horizon is clamped to the id window so a forged DONE total cannot
  // turn the scan into an unbounded walk or grow the book without end.
  std::uint32_t horizon = expected_total_ > 0 ? expected_total_ : highest_seen_;
  if (cfg_.adu_id_window > 0) {
    horizon = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        horizon, std::uint64_t{closed_prefix_} + cfg_.adu_id_window));
  }
  NackMessage m;
  m.session = cfg_.session_id;
  std::vector<std::uint32_t> to_abandon;

  // Exponential per-ADU backoff: after the n-th NACK of an id, wait
  // nack_retry * 2^(n-1) before asking again — the retransmission needs
  // time to traverse the sender's queue and the network. Without this, a
  // deep sender backlog burns through max_nacks before recovery can
  // possibly land (observed in the E5 bring-up). The walk steps through
  // the book with the id range; an id with no entry was never seen.
  const SimTime now = loop_.now();
  auto it = book_.begin();
  for (std::uint32_t id = closed_prefix_ + 1;
       id <= horizon && m.adu_ids.size() < NackMessage::kMaxIds; ++id, ++it) {
    if (it == book_.end() || it->first != id) it = book_.emplace_hint(it, id, Entry{});
    Entry& e = it->second;
    if (e.state == AduState::kClosed || e.state == AduState::kVerifying) continue;
    NackState& st = e.state == AduState::kPartial ? e.r.nack : e.unseen;
    if (now < st.next_at) continue;  // give the last request time to work
    if (st.count >= cfg_.max_nacks) {
      to_abandon.push_back(id);
      continue;
    }
    ++st.count;
    const int shift = std::min(st.count - 1, 6);
    SimDuration backoff = cfg_.nack_retry << shift;
    // Explicit ceiling (many-epoch recoveries should not wait out the full
    // doubling), then deterministic seeded jitter: sessions recovering from
    // one shared outage must not re-NACK in lockstep.
    if (cfg_.nack_backoff_cap > 0) backoff = std::min(backoff, cfg_.nack_backoff_cap);
    if (cfg_.nack_jitter > 0) {
      const auto span = static_cast<std::uint64_t>(
          static_cast<double>(backoff) * cfg_.nack_jitter);
      backoff += static_cast<SimDuration>(jitter_rng_.uniform(span + 1));
    }
    st.next_at = now + backoff;
    m.adu_ids.push_back(id);
  }

  for (std::uint32_t id : to_abandon) abandon(id);

  if (!m.adu_ids.empty()) {
    ByteBuffer frame = encode_nack(m);
    feedback_out_.send(frame.span());
    ++stats_.nacks_sent;
    stats_.nack_ids_sent += m.adu_ids.size();
  }

  // Re-arm only while some known ADU is still outstanding; new arrivals
  // re-arm via arm_timers().
  if (!complete_fired_ && !failed_ && recovery_work_remains()) {
    nack_timer_ = loop_.schedule_after(cfg_.nack_retry, [this] {
      nack_timer_ = 0;
      nack_scan();
    });
  } else {
    nack_timer_armed_ = false;
  }
}

void AlfReceiver::send_progress() {
  if (failed_) {
    progress_timer_armed_ = false;
    return;
  }
  ProgressMessage m;
  m.session = cfg_.session_id;
  // "complete" here means CLOSED — delivered or consciously abandoned.
  m.complete_adus = closed_count();
  m.highest_adu_seen = highest_seen_;
  m.session_complete = complete_fired_;
  const SimDuration dt = loop_.now() - last_progress_at_;
  if (dt > 0) {
    const double bps = static_cast<double>(stats_.payload_bytes_delivered -
                                           bytes_at_last_progress_) *
                       8.0 / to_seconds(dt);
    m.consume_rate_kbps = static_cast<std::uint32_t>(bps / 1000.0);
  }
  last_progress_at_ = loop_.now();
  bytes_at_last_progress_ = stats_.payload_bytes_delivered;

  ByteBuffer frame = encode_progress(m);
  feedback_out_.send(frame.span());
  ++stats_.progress_sent;

  // Keep reporting while the session is live and unfinished (this is also
  // what lets the sender repair a lost DONE); stand down once idle.
  if (session_active()) {
    progress_timer_ = loop_.schedule_after(cfg_.progress_interval, [this] {
      progress_timer_ = 0;
      send_progress();
    });
  } else {
    progress_timer_armed_ = false;
  }
}

void AlfReceiver::on_done(const DoneMessage& d) {
  expected_total_ = d.total_adus;
  note_progress();  // learning the stream's extent is progress
  arm_timers();  // DONE may precede data (tiny streams, reordered paths)
  if (cfg_.retransmit == RetransmitPolicy::kNone) {
    // No recovery: every missing or partial id is lost; tell the
    // application in its own terms and finish. A verifying ADU settles on
    // its own: delivered, or lost once if it fails its checksum. The walk
    // is clamped to the id window — a forged total cannot trigger an
    // unbounded abandon loop.
    std::uint32_t limit = expected_total_;
    if (cfg_.adu_id_window > 0) {
      limit = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          limit, std::uint64_t{closed_prefix_} + cfg_.adu_id_window));
    }
    std::vector<std::uint32_t> open;
    for (std::uint32_t id = closed_prefix_ + 1; id <= limit; ++id) {
      auto it = book_.find(id);
      if (it == book_.end() || it->second.state == AduState::kMissing ||
          it->second.state == AduState::kPartial) {
        open.push_back(id);
      }
    }
    for (std::uint32_t id : open) abandon(id);
  }
  check_complete();
}

void AlfReceiver::check_complete() {
  if (complete_fired_ || expected_total_ == 0) return;
  if (closed_count() < expected_total_) return;
  complete_fired_ = true;
  // A completed session must not hold the event loop open: the pending
  // watchdog check would only be a no-op that stretches simulated time.
  if (watchdog_timer_ != 0) {
    loop_.cancel(watchdog_timer_);
    watchdog_timer_ = 0;
    watchdog_armed_ = false;
  }
  // One final report so the sender can retire its DONE-retry timer.
  ProgressMessage m;
  m.session = cfg_.session_id;
  m.complete_adus = closed_count();
  m.highest_adu_seen = highest_seen_;
  m.session_complete = true;
  ByteBuffer frame = encode_progress(m);
  feedback_out_.send(frame.span());
  ++stats_.progress_sent;
  if (on_complete_) on_complete_();
}

void AlfReceiver::emit_metrics(obs::MetricSink& sink) const {
  const ReceiverStats& s = stats_;
  sink.counter("fragments_received", s.fragments_received);
  sink.counter("fragments_corrupt", s.fragments_corrupt);
  sink.counter("fragments_duplicate", s.fragments_duplicate);
  sink.counter("fragments_for_done_adus", s.fragments_for_done_adus);
  sink.counter("fragments_fec_reconstructed", s.fragments_fec_reconstructed);
  sink.counter("adus_delivered", s.adus_delivered);
  sink.counter("adus_delivered_out_of_order", s.adus_delivered_out_of_order);
  sink.counter("adus_checksum_failed", s.adus_checksum_failed);
  sink.counter("adus_abandoned", s.adus_abandoned);
  sink.counter("nacks_sent", s.nacks_sent);
  sink.counter("nack_ids_sent", s.nack_ids_sent);
  sink.counter("progress_sent", s.progress_sent);
  sink.counter("payload_bytes_delivered", s.payload_bytes_delivered);
  sink.counter("reassembly_bytes_peak", s.reassembly_bytes_peak);
  sink.counter("fragments_oversized", s.fragments_oversized);
  sink.counter("fragments_out_of_window", s.fragments_out_of_window);
  sink.counter("fragments_dropped_mem", s.fragments_dropped_mem);
  sink.counter("reassembly_evictions", s.reassembly_evictions);
  sink.counter("watchdog_fired", s.watchdog_fired);
  sink.counter("fragments_stale_epoch", s.fragments_stale_epoch);
  sink.counter("adus_shed", s.adus_shed);
  sink.counter("adus_engine_offloaded", s.adus_engine_offloaded);
  sink.counter("fragments_zero_copy", s.fragments_zero_copy);
  sink.counter("fragments_pool_copied", s.fragments_pool_copied);
  sink.counter("adus_chain_delivered", s.adus_chain_delivered);
  sink.counter("adus_presentation_fused", s.adus_presentation_fused);
  sink.gauge("reassembly_bytes", static_cast<double>(reassembly_bytes_));
  obs::emit_cost(sink, "cost", manip_cost_);
  obs::emit_cost(sink, "reassembly", reassembly_cost_);
}

}  // namespace ngp::alf
